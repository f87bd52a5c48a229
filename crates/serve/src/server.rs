//! Batched query admission over the resident-model registry.
//!
//! [`PawsServer::submit`] takes a batch of [`QueryRequest`]s addressed to
//! any number of resident parks and answers every one of them:
//!
//! 1. requests are grouped by park, and each group snapshots its park's
//!    [`crate::registry::ResidentPark`] bundle exactly once — a hot swap
//!    landing mid-batch never mixes artifacts within a group;
//! 2. park groups fan out across the work-stealing pool, and inside a
//!    group every surface request shares **one union pass**: the sorted,
//!    `==`-deduplicated union of every valid level the group's live
//!    requests ask for — risk-map levels plus every level of each
//!    park-response and patrol-plan grid — goes through one
//!    `try_park_response_prepared` traversal whenever the group has more
//!    than one surface request. A risk map is its column; a response or
//!    plan grid is the whole surface when it equals the union bitwise,
//!    else its columns gathered in request order (duplicates and unsorted
//!    grids allowed). This is exact, not approximate: the forest
//!    traversal does not depend on the level at all, and a level's column
//!    depends only on its qualified-learner prefix, which both the prefix
//!    and the indexed combine accumulate over learners `0..l` in order —
//!    so each cut is bit-identical to the direct call. A lone single-level
//!    risk map, an invalid grid and a failed union pass take the direct
//!    prepared call, so typed errors are unchanged;
//! 3. each answer is a typed [`QueryResponse`] / [`ServeError`] — the
//!    admission layer never panics on caller input — and a request whose
//!    [`paws_solver::SolveBudget`] wall-clock deadline lapses before its
//!    query starts is refused with [`ServeError::DeadlineExceeded`], while
//!    a patrol-plan solve receives only its remaining budget (degrading
//!    gracefully instead of overrunning).

use crate::registry::{ModelRegistry, ResidentPark};
use crate::request::{QueryKind, QueryRequest, QueryResponse, ServeError};
use paws_core::try_planning_problem_from_response;
use paws_data::Matrix;
use paws_plan::{try_plan, PlannerConfig};
use paws_solver::SolveBudget;
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The serving front end: a registry plus the batched admission layer.
#[derive(Default)]
pub struct PawsServer {
    registry: ModelRegistry,
    /// Planner settings for patrol-plan queries (method, PWL segments);
    /// the per-request budget is injected on top of these.
    pub planner: PlannerConfig,
}

/// One park's slice of a batch: the original request indices (answers are
/// scattered back into submission order).
struct ParkGroup<'a> {
    name: &'a str,
    requests: Vec<(usize, &'a QueryRequest)>,
}

impl PawsServer {
    /// A server with an empty registry and default planner settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident-model registry (install/swap/evict parks here).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Serve a batch of queries, one answer per request, in submission
    /// order. See the module docs for the admission pipeline.
    pub fn submit(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, ServeError>> {
        let admitted = Instant::now();
        // Group by park, preserving first-seen park order for determinism.
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<(usize, &QueryRequest)>> = HashMap::new();
        for (idx, req) in requests.iter().enumerate() {
            let slot = groups.entry(req.park.as_str()).or_insert_with(|| {
                order.push(req.park.as_str());
                Vec::new()
            });
            slot.push((idx, req));
        }
        let groups: Vec<ParkGroup<'_>> = order
            .into_iter()
            .map(|name| ParkGroup {
                name,
                requests: groups.remove(name).unwrap_or_default(),
            })
            .collect();

        // Snapshot each park's bundle once per batch, then fan out.
        let mut answers: Vec<Option<Result<QueryResponse, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        let served: Vec<Vec<(usize, Result<QueryResponse, ServeError>)>> = groups
            .par_iter()
            .map(|group| {
                let resident = self.registry.resident(group.name);
                self.serve_group(group, resident, admitted)
            })
            .collect();
        for (idx, answer) in served.into_iter().flatten() {
            answers[idx] = Some(answer);
        }
        answers
            .into_iter()
            .map(|a| {
                a.unwrap_or(Err(ServeError::Model(paws_core::PawsError::Input(
                    "request was not routed to any park group",
                ))))
            })
            .collect()
    }

    /// Serve one park's requests against one snapshotted bundle.
    fn serve_group(
        &self,
        group: &ParkGroup<'_>,
        resident: Option<Arc<ResidentPark>>,
        admitted: Instant,
    ) -> Vec<(usize, Result<QueryResponse, ServeError>)> {
        let Some(resident) = resident else {
            return group
                .requests
                .iter()
                .map(|&(idx, _)| (idx, Err(ServeError::UnknownPark(group.name.to_string()))))
                .collect();
        };

        let union = UnionPass::run(&resident, &group.requests, admitted);

        group
            .requests
            .iter()
            .map(|&(idx, req)| {
                if deadline_lapsed(&req.budget, admitted) {
                    return (
                        idx,
                        Err(ServeError::DeadlineExceeded {
                            park: group.name.to_string(),
                        }),
                    );
                }
                let answer = match &req.kind {
                    QueryKind::RiskMap { effort_km } => {
                        match union.as_ref().and_then(|u| u.cut(&[*effort_km])) {
                            Some(maps) => {
                                let (risk, uncertainty) = maps.into_owned();
                                Ok(QueryResponse::RiskMap {
                                    risk: risk.into_flat(),
                                    uncertainty: uncertainty.into_flat(),
                                })
                            }
                            None => resident
                                .model
                                .try_risk_map_prepared(&resident.prepared, *effort_km)
                                .map(|(risk, uncertainty)| QueryResponse::RiskMap {
                                    risk,
                                    uncertainty,
                                })
                                .map_err(ServeError::from),
                        }
                    }
                    QueryKind::ParkResponse { effort_grid } => {
                        surface(&resident, union.as_ref(), effort_grid).map(|maps| {
                            let (probs, vars) = maps.into_owned();
                            QueryResponse::ParkResponse { probs, vars }
                        })
                    }
                    QueryKind::PatrolPlan {
                        post,
                        effort_grid,
                        patrol_length_km,
                        n_patrols,
                        beta,
                    } => {
                        let maps = match surface(&resident, union.as_ref(), effort_grid) {
                            Ok(maps) => maps,
                            Err(e) => return (idx, Err(e)),
                        };
                        let (probs, vars) = &*maps;
                        let problem = match try_planning_problem_from_response(
                            &resident.park,
                            *post,
                            effort_grid,
                            probs,
                            vars,
                            *patrol_length_km,
                            *n_patrols,
                            *beta,
                        ) {
                            Ok(p) => p,
                            Err(e) => return (idx, Err(ServeError::Model(e))),
                        };
                        // The solve gets whatever wall clock the request
                        // has left; a lapsed budget degrades the plan
                        // rather than hanging the batch.
                        let mut config = self.planner.clone();
                        config.milp.budget = remaining_budget(&req.budget, admitted);
                        try_plan(&problem, &config)
                            .map(QueryResponse::PatrolPlan)
                            .map_err(|e| ServeError::Model(e.into()))
                    }
                };
                (idx, answer)
            })
            .collect()
    }
}

/// One park group's response surface over the sorted, `==`-deduplicated
/// union of every valid effort level its live requests ask for.
struct UnionPass {
    grid: Vec<f64>,
    maps: (Matrix, Matrix),
}

impl UnionPass {
    /// Traverse the park once for the whole group. `None` — every request
    /// then takes its direct call — when fewer than two requests carry a
    /// valid level set (nothing to share) or the pass itself fails (the
    /// direct calls then return the same typed errors per request).
    fn run(
        resident: &ResidentPark,
        requests: &[(usize, &QueryRequest)],
        admitted: Instant,
    ) -> Option<Self> {
        let mut grid = Vec::new();
        let mut surface_requests = 0usize;
        for (_, req) in requests {
            if deadline_lapsed(&req.budget, admitted) {
                continue;
            }
            let levels = match &req.kind {
                QueryKind::RiskMap { effort_km } => std::slice::from_ref(effort_km),
                QueryKind::ParkResponse { effort_grid }
                | QueryKind::PatrolPlan { effort_grid, .. } => effort_grid.as_slice(),
            };
            if valid_grid(levels) {
                grid.extend_from_slice(levels);
                surface_requests += 1;
            }
        }
        if surface_requests < 2 {
            return None;
        }
        grid.sort_by(f64::total_cmp);
        grid.dedup_by(|a, b| a == b);
        let maps = resident
            .model
            .try_park_response_prepared(&resident.prepared, &grid)
            .ok()?;
        Some(Self { grid, maps })
    }

    /// The surface for `levels`, cut from the union pass: the whole
    /// surface when the grids match bitwise, else the matching columns in
    /// request order (duplicates and unsorted grids allowed). `None` for a
    /// grid the pass cannot serve (empty, or a level outside the union —
    /// which every invalid level is).
    fn cut(&self, levels: &[f64]) -> Option<Cow<'_, (Matrix, Matrix)>> {
        let same_bits = levels.len() == self.grid.len()
            && levels
                .iter()
                .zip(&self.grid)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if same_bits {
            return Some(Cow::Borrowed(&self.maps));
        }
        if levels.is_empty() {
            return None;
        }
        let columns: Vec<usize> = levels
            .iter()
            .map(|&e| self.grid.iter().position(|&g| g == e))
            .collect::<Option<_>>()?;
        Some(Cow::Owned((
            gather_columns(&self.maps.0, &columns),
            gather_columns(&self.maps.1, &columns),
        )))
    }
}

/// The response surface for one request's grid: cut from the group's
/// union pass when it covers the grid, else the direct prepared call.
fn surface<'u>(
    resident: &ResidentPark,
    union: Option<&'u UnionPass>,
    effort_grid: &[f64],
) -> Result<Cow<'u, (Matrix, Matrix)>, ServeError> {
    if let Some(maps) = union.and_then(|u| u.cut(effort_grid)) {
        return Ok(maps);
    }
    resident
        .model
        .try_park_response_prepared(&resident.prepared, effort_grid)
        .map(Cow::Owned)
        .map_err(ServeError::from)
}

/// A non-empty level set of finite, non-negative efforts — the levels the
/// prepared queries accept.
fn valid_grid(levels: &[f64]) -> bool {
    !levels.is_empty() && levels.iter().all(|e| e.is_finite() && *e >= 0.0)
}

/// `columns` of `m`, in order, as a new row-major matrix.
fn gather_columns(m: &Matrix, columns: &[usize]) -> Matrix {
    let mut flat = Vec::with_capacity(m.n_rows() * columns.len());
    for row in m.rows() {
        flat.extend(columns.iter().map(|&c| row[c]));
    }
    Matrix::from_flat(flat, columns.len())
}

/// True when the request's wall-clock budget lapsed before its query ran.
fn deadline_lapsed(budget: &SolveBudget, admitted: Instant) -> bool {
    budget
        .time_limit
        .is_some_and(|limit| admitted.elapsed() >= limit)
}

/// The budget left for a solve that starts now.
fn remaining_budget(budget: &SolveBudget, admitted: Instant) -> SolveBudget {
    SolveBudget {
        time_limit: budget
            .time_limit
            .map(|limit| limit.saturating_sub(admitted.elapsed())),
        max_lp_iterations: budget.max_lp_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{QueryKind, QueryRequest};
    use paws_core::{ModelConfig, PawsError, Scenario, ServingModel, WeakLearnerKind};
    use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
    use paws_geo::Park;
    use paws_solver::SolveStatus;
    use std::time::Duration;

    fn fixture() -> (Park, Dataset, ServingModel) {
        let scenario = Scenario::test_scenario(3);
        let history = scenario.simulate_years(2014, 3);
        let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
        let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
        let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 3);
        config.n_learners = 4;
        config.n_estimators = 4;
        config.weight_mode = paws_iware::WeightMode::Uniform;
        let model = paws_core::train(&dataset, &split, &config).into_serving();
        (scenario.park, dataset, model)
    }

    fn server_with_park() -> (PawsServer, Park) {
        let (park, dataset, model) = fixture();
        let server = PawsServer::new();
        let prev = vec![0.0; park.n_cells()];
        server
            .registry()
            .install("mondulkiri", model, park.clone(), &dataset, &prev)
            .expect("install succeeds");
        (server, park)
    }

    #[test]
    fn unknown_parks_and_empty_batches_are_handled() {
        let (server, _) = server_with_park();
        assert!(server.submit(&[]).is_empty());
        let answers = server.submit(&[QueryRequest::new(
            "atlantis",
            QueryKind::RiskMap { effort_km: 1.0 },
        )]);
        assert!(matches!(&answers[0], Err(ServeError::UnknownPark(p)) if p == "atlantis"));
    }

    #[test]
    fn invalid_queries_get_typed_errors_without_poisoning_the_batch() {
        let (server, park) = server_with_park();
        let answers = server.submit(&[
            QueryRequest::new(
                "mondulkiri",
                QueryKind::RiskMap {
                    effort_km: f64::NAN,
                },
            ),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: -2.0 }),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
            QueryRequest::new(
                "mondulkiri",
                QueryKind::ParkResponse {
                    effort_grid: vec![],
                },
            ),
            QueryRequest::new(
                "mondulkiri",
                QueryKind::PatrolPlan {
                    post: park.patrol_posts[0],
                    effort_grid: vec![0.0, 1.0],
                    patrol_length_km: 8.0,
                    n_patrols: 2,
                    beta: 1.5,
                },
            ),
        ]);
        assert!(matches!(
            &answers[0],
            Err(ServeError::Model(PawsError::Input(_)))
        ));
        assert!(matches!(
            &answers[1],
            Err(ServeError::Model(PawsError::Input(_)))
        ));
        assert!(answers[2].is_ok(), "the valid query still serves");
        assert!(matches!(
            &answers[3],
            Err(ServeError::Model(PawsError::Query(_)))
        ));
        assert!(
            matches!(&answers[4], Err(ServeError::Model(PawsError::Input(_)))),
            "beta outside [0, 1] is refused, not a panic"
        );
    }

    #[test]
    fn lapsed_deadlines_refuse_queries_and_starved_plans_degrade() {
        let (mut server, park) = server_with_park();
        let answers = server.submit(&[
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 })
                .with_budget(SolveBudget::with_time_limit(Duration::ZERO)),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
        ]);
        assert!(matches!(
            &answers[0],
            Err(ServeError::DeadlineExceeded { park }) if park == "mondulkiri"
        ));
        assert!(answers[1].is_ok(), "unbudgeted sibling is unaffected");

        // A plan whose budget lapses *during* the batch (deadline checks
        // pass at admission, solver budget is already empty) degrades to
        // the greedy incumbent instead of hanging or failing. Exact SOS2
        // keeps the plan on the branch-and-bound path: the default
        // enveloped plan needs no solver, so no budget can starve it.
        server.planner.exact_sos2 = true;
        let plan_kind = QueryKind::PatrolPlan {
            post: park.patrol_posts[0],
            effort_grid: vec![0.0, 0.5, 1.0, 2.0],
            patrol_length_km: 8.0,
            n_patrols: 2,
            beta: 0.8,
        };
        let plan_req = QueryRequest::new("mondulkiri", plan_kind.clone())
            .with_budget(SolveBudget::with_time_limit(Duration::from_nanos(1)));
        // The nanosecond budget may or may not lapse before admission on a
        // fast machine; both outcomes are acceptable, a panic or an
        // untagged full solve is not.
        let answers = server.submit(&[plan_req]);
        match &answers[0] {
            Ok(QueryResponse::PatrolPlan(plan)) => {
                assert_eq!(plan.status, SolveStatus::Degraded);
            }
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("unexpected starved-plan outcome: {other:?}"),
        }

        // A one-iteration LP budget always passes admission and always
        // starves branch-and-bound: the exact plan degrades every time.
        let starved = SolveBudget {
            time_limit: None,
            max_lp_iterations: Some(1),
        };
        let starved_req =
            || QueryRequest::new("mondulkiri", plan_kind.clone()).with_budget(starved);
        match &server.submit(&[starved_req()])[0] {
            Ok(QueryResponse::PatrolPlan(plan)) => {
                assert_eq!(plan.status, SolveStatus::Degraded);
            }
            other => panic!("unexpected starved exact plan: {other:?}"),
        }
        // The same starved budget leaves the default plan Optimal and
        // bit-identical to the unbudgeted one.
        server.planner.exact_sos2 = false;
        let answers = server.submit(&[
            starved_req(),
            QueryRequest::new("mondulkiri", plan_kind.clone()),
        ]);
        match (&answers[0], &answers[1]) {
            (Ok(QueryResponse::PatrolPlan(starved)), Ok(QueryResponse::PatrolPlan(free))) => {
                assert_eq!(starved.status, SolveStatus::Optimal);
                assert_eq!(starved.objective.to_bits(), free.objective.to_bits());
                assert_eq!(starved.coverage, free.coverage);
            }
            other => panic!("unexpected pure-LP plans: {other:?}"),
        }
    }

    #[test]
    fn identical_grids_are_computed_once_and_shared() {
        let (server, _) = server_with_park();
        let grid = vec![0.0, 0.5, 1.0];
        let answers = server.submit(&[
            QueryRequest::new(
                "mondulkiri",
                QueryKind::ParkResponse {
                    effort_grid: grid.clone(),
                },
            ),
            QueryRequest::new("mondulkiri", QueryKind::ParkResponse { effort_grid: grid }),
        ]);
        let (a, b) = (&answers[0], &answers[1]);
        match (a, b) {
            (
                Ok(QueryResponse::ParkResponse {
                    probs: pa,
                    vars: va,
                }),
                Ok(QueryResponse::ParkResponse {
                    probs: pb,
                    vars: vb,
                }),
            ) => {
                assert_eq!(pa.as_slice(), pb.as_slice());
                assert_eq!(va.as_slice(), vb.as_slice());
            }
            other => panic!("expected two response surfaces: {other:?}"),
        }
    }
}
