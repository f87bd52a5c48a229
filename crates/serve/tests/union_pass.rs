//! Union-pass edge cases: one park group mixing every awkward shape of
//! surface request — repeated single levels, a risk level only a plan grid
//! carries, an unsorted response grid with a duplicate and `-0.0`, a plan
//! grid that is a strict subset of the union, empty and NaN grids, and a
//! request whose deadline lapsed before admission — must answer each one
//! **bit-identically** to the direct prepared call (or with the same typed
//! error), on the iWare f64 and f32 planes and on plain bagging, at 1, 2
//! and 4 forced workers.

use paws_core::{
    try_planning_problem_from_response, ModelConfig, Precision, PreparedPark, Scenario,
    ServingModel, WeakLearnerKind,
};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
use paws_geo::Park;
use paws_plan::{try_plan, PlannerConfig};
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse, ServeError};
use paws_solver::SolveBudget;
use std::time::Duration;

const PARK: &str = "srepok";

/// The planes under test: iWare-E on f64, iWare-E switched to f32, plain
/// bagging.
#[derive(Clone, Copy, Debug)]
enum Plane {
    IWare64,
    IWare32,
    Plain,
}

fn fit(plane: Plane) -> (Park, Dataset, ServingModel) {
    let scenario = Scenario::test_scenario(7);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
    let use_iware = !matches!(plane, Plane::Plain);
    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, use_iware, 7);
    config.n_learners = 4;
    config.n_estimators = 4;
    config.weight_mode = paws_iware::WeightMode::Uniform;
    let mut model = paws_core::train(&dataset, &split, &config).into_serving();
    if matches!(plane, Plane::IWare32) {
        model
            .set_precision(Precision::F32)
            .expect("test arena fits the f32 plane");
    }
    (scenario.park, dataset, model)
}

fn plan_kind(park: &Park, effort_grid: Vec<f64>) -> QueryKind {
    QueryKind::PatrolPlan {
        post: park.patrol_posts[0],
        effort_grid,
        patrol_length_km: 8.0,
        n_patrols: 2,
        beta: 0.8,
    }
}

/// One park group holding every edge case at once.
fn edge_batch(park: &Park) -> Vec<QueryRequest> {
    let risk = |effort_km| QueryRequest::new(PARK, QueryKind::RiskMap { effort_km });
    let response = |effort_grid| QueryRequest::new(PARK, QueryKind::ParkResponse { effort_grid });
    let lapsed = SolveBudget::with_time_limit(Duration::ZERO);
    vec![
        // The same single level, twice.
        risk(1.0),
        risk(1.0),
        // A level only the plan grids below contain.
        risk(4.0),
        // Unsorted, with a duplicate level and a negative zero.
        response(vec![2.0, -0.0, 1.0, 2.0, 0.5]),
        // A sorted grid over the whole union.
        response(vec![0.0, 0.5, 1.0, 2.0, 4.0]),
        // Strict subsets of the union.
        QueryRequest::new(PARK, plan_kind(park, vec![0.0, 1.0, 4.0])),
        QueryRequest::new(PARK, plan_kind(park, vec![0.5, 2.0])),
        // Invalid grids and levels: typed errors, not poisoned siblings.
        response(vec![]),
        response(vec![0.5, f64::NAN]),
        QueryRequest::new(PARK, plan_kind(park, vec![0.0, f64::NAN])),
        risk(f64::NAN),
        risk(-1.0),
        // Lapsed before admission: refused, and its level never joins
        // the union.
        response(vec![0.0, 16.0]).with_budget(lapsed),
        risk(32.0).with_budget(lapsed),
    ]
}

/// What a single caller gets from the direct prepared API for `req`.
fn direct(
    model: &ServingModel,
    prepared: &PreparedPark,
    park: &Park,
    req: &QueryRequest,
) -> Result<QueryResponse, ServeError> {
    if req.budget.time_limit == Some(Duration::ZERO) {
        return Err(ServeError::DeadlineExceeded {
            park: PARK.to_string(),
        });
    }
    match &req.kind {
        QueryKind::RiskMap { effort_km } => model
            .try_risk_map_prepared(prepared, *effort_km)
            .map(|(risk, uncertainty)| QueryResponse::RiskMap { risk, uncertainty })
            .map_err(ServeError::from),
        QueryKind::ParkResponse { effort_grid } => model
            .try_park_response_prepared(prepared, effort_grid)
            .map(|(probs, vars)| QueryResponse::ParkResponse { probs, vars })
            .map_err(ServeError::from),
        QueryKind::PatrolPlan {
            post,
            effort_grid,
            patrol_length_km,
            n_patrols,
            beta,
        } => {
            let (probs, vars) = model.try_park_response_prepared(prepared, effort_grid)?;
            let problem = try_planning_problem_from_response(
                park,
                *post,
                effort_grid,
                &probs,
                &vars,
                *patrol_length_km,
                *n_patrols,
                *beta,
            )?;
            try_plan(&problem, &PlannerConfig::default())
                .map(QueryResponse::PatrolPlan)
                .map_err(|e| ServeError::Model(e.into()))
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(
    what: &str,
    served: &Result<QueryResponse, ServeError>,
    want: &Result<QueryResponse, ServeError>,
) {
    match (served, want) {
        (
            Ok(QueryResponse::RiskMap { risk, uncertainty }),
            Ok(QueryResponse::RiskMap {
                risk: want_r,
                uncertainty: want_u,
            }),
        ) => {
            assert_eq!(bits(risk), bits(want_r), "{what}: risk");
            assert_eq!(bits(uncertainty), bits(want_u), "{what}: uncertainty");
        }
        (
            Ok(QueryResponse::ParkResponse { probs, vars }),
            Ok(QueryResponse::ParkResponse {
                probs: want_p,
                vars: want_v,
            }),
        ) => {
            assert_eq!(probs.n_cols(), want_p.n_cols(), "{what}: levels");
            assert_eq!(bits(probs.as_slice()), bits(want_p.as_slice()), "{what}");
            assert_eq!(bits(vars.as_slice()), bits(want_v.as_slice()), "{what}");
        }
        (Ok(QueryResponse::PatrolPlan(plan)), Ok(QueryResponse::PatrolPlan(want))) => {
            assert_eq!(bits(&plan.coverage), bits(&want.coverage), "{what}");
            assert_eq!(plan.objective.to_bits(), want.objective.to_bits(), "{what}");
            assert_eq!(plan.status, want.status, "{what}");
        }
        (Err(e), Err(want_e)) => {
            // Same variant all the way down, and the same message (which
            // carries e.g. the offending grid index).
            assert_eq!(
                std::mem::discriminant(e),
                std::mem::discriminant(want_e),
                "{what}: {e} vs {want_e}"
            );
            if let (ServeError::Model(m), ServeError::Model(want_m)) = (e, want_e) {
                assert_eq!(std::mem::discriminant(m), std::mem::discriminant(want_m));
            }
            assert_eq!(e.to_string(), want_e.to_string(), "{what}");
        }
        (served, want) => panic!("{what}: served {served:?}, direct {want:?}"),
    }
}

#[test]
fn union_pass_answers_every_edge_case_like_the_direct_calls() {
    for plane in [Plane::IWare64, Plane::IWare32, Plane::Plain] {
        let (park, dataset, model) = fit(plane);
        let prev = vec![0.0; park.n_cells()];
        let prepared = model
            .prepare_park(&park, &dataset, &prev)
            .expect("valid prepared park");
        let server = PawsServer::new();

        let mixed = edge_batch(&park);
        let mut reversed = mixed.clone();
        reversed.reverse();
        // Two same-level risk maps alone: a one-level union.
        let pair = vec![
            QueryRequest::new(PARK, QueryKind::RiskMap { effort_km: 2.0 }),
            QueryRequest::new(PARK, QueryKind::RiskMap { effort_km: 2.0 }),
        ];
        // A response plus a risk level outside its grid.
        let widened = vec![
            QueryRequest::new(
                PARK,
                QueryKind::ParkResponse {
                    effort_grid: vec![0.0, 1.0],
                },
            ),
            QueryRequest::new(PARK, QueryKind::RiskMap { effort_km: 3.0 }),
        ];
        let batches = [mixed, reversed, pair, widened];
        let references: Vec<Vec<_>> = rayon::with_num_threads(1, || {
            batches
                .iter()
                .map(|batch| {
                    batch
                        .iter()
                        .map(|req| direct(&model, &prepared, &park, req))
                        .collect()
                })
                .collect()
        });
        server
            .registry()
            .install(PARK, model, park.clone(), &dataset, &prev)
            .expect("install succeeds");

        for threads in [1, 2, 4] {
            for (b, (batch, want)) in batches.iter().zip(&references).enumerate() {
                let served = rayon::with_num_threads(threads, || server.submit(batch));
                assert_eq!(served.len(), batch.len());
                for (i, (req, (s, w))) in batch.iter().zip(served.iter().zip(want)).enumerate() {
                    let what = format!("{plane:?} @{threads} batch {b} #{i} {:?}", req.kind);
                    assert_same(&what, s, w);
                }
            }
        }
    }
}

/// A plan whose effort grid is not strictly ascending (unsorted, or with a
/// duplicate level) used to panic while its response rows were resampled,
/// and one whose post id lies outside the park's grid panicked on the
/// park's mask. Each must come back as a typed
/// `ServeError::Model(PawsError::Input)` while every other request of its
/// batch — risk maps, an unsorted response grid (which stays legal) and
/// valid plans — is answered bit-identically to the direct calls and to the
/// same batch without the bad plans.
#[test]
fn unsorted_plan_grids_are_typed_errors_that_spare_their_batch() {
    let (park, dataset, model) = fit(Plane::IWare64);
    let prev = vec![0.0; park.n_cells()];
    let prepared = model
        .prepare_park(&park, &dataset, &prev)
        .expect("valid prepared park");
    let good = vec![
        QueryRequest::new(PARK, plan_kind(&park, vec![0.0, 1.0, 4.0])),
        QueryRequest::new(PARK, QueryKind::RiskMap { effort_km: 2.0 }),
        QueryRequest::new(
            PARK,
            QueryKind::ParkResponse {
                effort_grid: vec![2.0, 0.0, 1.0],
            },
        ),
        QueryRequest::new(PARK, plan_kind(&park, vec![0.0, 0.5, 2.0])),
    ];
    let bad = [vec![0.0, 2.0, 1.0], vec![1.0, 1.0, 2.0]];
    let mut mixed = good.clone();
    mixed.insert(1, QueryRequest::new(PARK, plan_kind(&park, bad[0].clone())));
    mixed.push(QueryRequest::new(PARK, plan_kind(&park, bad[1].clone())));
    // A post id outside the park's grid used to panic on the park's mask.
    mixed.insert(
        3,
        QueryRequest::new(
            PARK,
            QueryKind::PatrolPlan {
                post: paws_geo::CellId(u32::MAX),
                effort_grid: vec![0.0, 1.0, 4.0],
                patrol_length_km: 8.0,
                n_patrols: 2,
                beta: 0.8,
            },
        ),
    );
    let want: Vec<_> = good
        .iter()
        .map(|req| direct(&model, &prepared, &park, req))
        .collect();
    assert!(want.iter().all(|w| w.is_ok()));

    let server = PawsServer::new();
    server
        .registry()
        .install(PARK, model, park.clone(), &dataset, &prev)
        .expect("install succeeds");
    let alone = server.submit(&good);
    let served = server.submit(&mixed);
    assert_eq!(served.len(), mixed.len());
    let mut good_answers = Vec::new();
    for (req, answer) in mixed.iter().zip(&served) {
        match &req.kind {
            QueryKind::PatrolPlan {
                post, effort_grid, ..
            } if bad.contains(effort_grid) || !park.contains(*post) => {
                assert!(
                    matches!(
                        answer,
                        Err(ServeError::Model(paws_core::PawsError::Input(_)))
                    ),
                    "post {post:?}, grid {effort_grid:?}: {answer:?}"
                );
            }
            _ => good_answers.push(answer),
        }
    }
    assert_eq!(good_answers.len(), good.len());
    for (i, (s, (a, w))) in good_answers
        .into_iter()
        .zip(alone.iter().zip(&want))
        .enumerate()
    {
        assert_same(&format!("#{i} vs direct"), s, w);
        assert_same(&format!("#{i} vs the batch without bad plans"), s, a);
    }
}
