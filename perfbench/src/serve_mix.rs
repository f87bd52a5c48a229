//! `serve_mix`: the read path over the three study parks.
//!
//! MFNP, QENP and SWS are fitted and resident. Two closed-loop clients each
//! `submit` batches of ten requests: eight risk maps at a few repeated
//! effort levels (so same-park levels coalesce), one 6-level park response
//! and one budgeted patrol plan. After each batch a client submits one
//! lone risk-map read, whose latency is `read_*` (a read beside the other
//! client's batch). Every answer is checked against a reference computed
//! through the direct `paws-core` / `paws-plan` calls at set-up.
//!
//! The parks, their histories and their models are the canonical study
//! sites (`paws_bench::scenario`, `paws_bench::park_model_config`), the same
//! in every run, so `holdout_auc` and `plan_objective` change only when the
//! code does. The run's seed draws the clients' requests.

use crate::common::{
    check_map, check_plan, deadline, fanout_metrics, layer_p50, model_config, repeated_setup,
    same_bits, setup_layer_metrics, since_ms, Options, Outcome, Tally, GRID, SETUP_REPS,
};
use crate::stats::{Layers, Metric};
use paws_bench::START_YEAR;
use paws_core::{train, try_planning_problem_from_response};
use paws_data::{build_dataset, split_by_test_year, Discretization, Matrix};
use paws_geo::CellId;
use paws_plan::{try_plan, PatrolPlan, PlannerConfig};
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse, ServeError};
use paws_solver::SolveBudget;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// The paper's study parks.
const PARKS: [&str; 3] = ["MFNP", "QENP", "SWS"];
/// Simulated years: three to train on, the fourth held out.
const YEARS: u32 = 4;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Risk-map requests per batch, and the levels they draw from (km).
const RISK_PER_BATCH: usize = 8;
const RISK_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];
/// Requests per batch: the risk maps, one park response, one plan.
const BATCH: usize = RISK_PER_BATCH + 2;
/// Every plan request: patrol length, patrols, risk aversion, deadline.
const PATROL_KM: f64 = 12.0;
const N_PATROLS: usize = 3;
const BETA: f64 = 0.5;
const PLAN_DEADLINE: Duration = Duration::from_secs(2);
/// Warm-up batches per client before timing.
const WARMUP_BATCHES: usize = 3;

/// The reference plan from one patrol post.
struct PlanRef {
    post: CellId,
    plan: PatrolPlan,
    budget_km: f64,
    candidates: usize,
}

/// Reference answers of one resident park.
struct ParkRef {
    name: &'static str,
    n_cells: usize,
    risk: Vec<(Vec<f64>, Vec<f64>)>,
    response: (Matrix, Matrix),
    /// One plan per patrol post.
    plans: Vec<PlanRef>,
    auc: f64,
}

struct State {
    server: PawsServer,
    parks: Vec<ParkRef>,
}

fn setup(seed: u64, layers: &mut Layers) -> State {
    let server = PawsServer::new();
    let mut parks = Vec::with_capacity(PARKS.len());
    for name in PARKS {
        let scenario = layers.time("geo.generate_ms", || paws_bench::scenario(name));
        let history = layers.time("sim.history_ms", || {
            scenario.simulate_years(START_YEAR, YEARS)
        });
        let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
        let test_year = START_YEAR + YEARS - 1;
        let split = split_by_test_year(&dataset, test_year, 3).expect("all years are simulated");
        let config = model_config(name);
        let model = layers
            .time("core.train_ms", || train(&dataset, &split, &config))
            .into_serving();
        let auc = model.auc_on(&dataset, &split.test);
        let park = scenario.park;
        let prev = dataset.coverage.last().expect("history has steps").clone();

        // References through the direct calls the server is built on.
        let rows = layers.time("data.full_feature_matrix_ms", || {
            dataset.full_feature_matrix(&park, &prev)
        });
        let prepared = layers
            .time("core.prepare_rows_ms", || model.prepare_rows(rows))
            .expect("study park prepares");
        layers.add("core.shards", prepared.shards().len() as f64);
        let risk = RISK_LEVELS
            .iter()
            .map(|&e| model.risk_map_prepared(&prepared, e))
            .collect();
        let response = model.park_response_prepared(&prepared, &GRID);
        let plans = park
            .patrol_posts
            .iter()
            .map(|&post| {
                let problem = try_planning_problem_from_response(
                    &park,
                    post,
                    &GRID,
                    &response.0,
                    &response.1,
                    PATROL_KM,
                    N_PATROLS,
                    BETA,
                )
                .expect("study park plan problem builds");
                let plan = try_plan(&problem, &PlannerConfig::default()).expect("study park plans");
                check_plan(name, &plan, problem.budget_km(), problem.n_cells(), false)
                    .expect("reference plan is optimal and within budget");
                PlanRef {
                    post,
                    plan,
                    budget_km: problem.budget_km(),
                    candidates: problem.n_cells(),
                }
            })
            .collect();

        let n_cells = park.n_cells();
        layers
            .time("serve.install_ms", || {
                server
                    .registry()
                    .install(name, model, park, &dataset, &prev)
            })
            .expect("study park installs");
        parks.push(ParkRef {
            name,
            n_cells,
            risk,
            response,
            plans,
            auc,
        });
    }
    let state = State { server, parks };
    // Warm-up: spawn the pool and serve the first batches.
    let tally = Tally::default();
    for client in 0..CLIENTS {
        let mut rng = client_rng(seed, client);
        for _ in 0..WARMUP_BATCHES {
            let batch = make_batch(&mut rng, &state);
            let answers = state.server.submit(&batch.requests);
            check_answers(&state, &batch, &answers, &tally);
        }
    }
    assert!(
        tally.wrong_outputs().is_empty(),
        "warm-up answers are wrong: {:?}",
        tally.wrong_outputs()
    );
    state
}

fn client_rng(seed: u64, client: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (0x5eed_0000 + client as u64))
}

/// The stream of a client's lone reads, apart from its batches.
fn read_rng(seed: u64, client: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (0x7ead_0000 + client as u64))
}

/// What one request of a batch asks, by index into the parks, their
/// risk levels and their patrol posts.
#[derive(Clone, Copy, PartialEq)]
enum Ask {
    Risk { park: usize, level: usize },
    Response { park: usize },
    Plan { park: usize, post: usize },
}

impl Ask {
    fn park(self) -> usize {
        match self {
            Ask::Risk { park, .. } | Ask::Response { park } | Ask::Plan { park, .. } => park,
        }
    }
}

/// One batch and what each of its requests asks.
struct Batch {
    requests: Vec<QueryRequest>,
    asks: Vec<Ask>,
}

fn make_batch(rng: &mut ChaCha8Rng, state: &State) -> Batch {
    let mut asks = Vec::with_capacity(BATCH);
    for _ in 0..RISK_PER_BATCH {
        asks.push(Ask::Risk {
            park: rng.gen_range(0..PARKS.len()),
            level: rng.gen_range(0..RISK_LEVELS.len()),
        });
    }
    asks.push(Ask::Response {
        park: rng.gen_range(0..PARKS.len()),
    });
    let park = rng.gen_range(0..PARKS.len());
    asks.push(Ask::Plan {
        park,
        post: rng.gen_range(0..state.parks[park].plans.len()),
    });
    let requests = asks
        .iter()
        .map(|&ask| match ask {
            Ask::Risk { park, level } => QueryRequest::new(
                PARKS[park],
                QueryKind::RiskMap {
                    effort_km: RISK_LEVELS[level],
                },
            ),
            Ask::Response { park } => QueryRequest::new(
                PARKS[park],
                QueryKind::ParkResponse {
                    effort_grid: GRID.to_vec(),
                },
            ),
            Ask::Plan { park, post } => QueryRequest::new(
                PARKS[park],
                QueryKind::PatrolPlan {
                    post: state.parks[park].plans[post].post,
                    effort_grid: GRID.to_vec(),
                    patrol_length_km: PATROL_KM,
                    n_patrols: N_PATROLS,
                    beta: BETA,
                },
            )
            .with_budget(SolveBudget::with_time_limit(PLAN_DEADLINE)),
        })
        .collect();
    Batch { requests, asks }
}

/// A lone risk-map read at a random park and level.
fn make_read(rng: &mut ChaCha8Rng) -> Batch {
    let (park, level) = (
        rng.gen_range(0..PARKS.len()),
        rng.gen_range(0..RISK_LEVELS.len()),
    );
    Batch {
        requests: vec![QueryRequest::new(
            PARKS[park],
            QueryKind::RiskMap {
                effort_km: RISK_LEVELS[level],
            },
        )],
        asks: vec![Ask::Risk { park, level }],
    }
}

/// A park's distinct risk levels in a batch (sorted) and its risk-map
/// requests.
fn risk_levels(batch: &Batch, park: usize) -> (Vec<f64>, usize) {
    let mut levels: Vec<f64> = batch
        .asks
        .iter()
        .filter_map(|&ask| match ask {
            Ask::Risk { park: p, level } if p == park => Some(RISK_LEVELS[level]),
            _ => None,
        })
        .collect();
    let requests = levels.len();
    levels.sort_by(f64::total_cmp);
    levels.dedup();
    (levels, requests)
}

/// Risk maps `submit` evaluates for a park's requests: one coalesced pass
/// per distinct level when there are several, else one per request.
fn risk_evaluations(levels: usize, requests: usize) -> usize {
    if levels > 1 {
        levels
    } else {
        requests
    }
}

/// Check every answer of a batch against the set-up references.
fn check_answers(
    state: &State,
    batch: &Batch,
    answers: &[Result<QueryResponse, ServeError>],
    tally: &Tally,
) -> (u64, u64) {
    let (mut refused, mut degraded) = (0, 0);
    if answers.len() != batch.requests.len() {
        tally.wrong(format!(
            "{} answers for {} requests",
            answers.len(),
            batch.requests.len()
        ));
        return (refused, degraded);
    }
    for (answer, &ask) in answers.iter().zip(&batch.asks) {
        let r = &state.parks[ask.park()];
        let verdict = match (answer, ask) {
            (Ok(QueryResponse::RiskMap { risk, uncertainty }), Ask::Risk { level, .. }) => {
                check_map(r.name, risk, uncertainty, r.n_cells).and_then(|()| {
                    let (want_r, want_u) = &r.risk[level];
                    if same_bits(risk, want_r) && same_bits(uncertainty, want_u) {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: served risk map differs from direct call",
                            r.name
                        ))
                    }
                })
            }
            (Ok(QueryResponse::ParkResponse { probs, vars }), Ask::Response { .. }) => check_map(
                r.name,
                probs.as_slice(),
                vars.as_slice(),
                r.n_cells * GRID.len(),
            )
            .and_then(|()| {
                if same_bits(probs.as_slice(), r.response.0.as_slice())
                    && same_bits(vars.as_slice(), r.response.1.as_slice())
                {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: served response differs from direct call",
                        r.name
                    ))
                }
            }),
            (Ok(QueryResponse::PatrolPlan(plan)), Ask::Plan { post, .. }) => {
                let want = &r.plans[post];
                check_plan(r.name, plan, want.budget_km, want.candidates, true).and_then(|()| {
                    if plan.status != paws_solver::SolveStatus::Optimal {
                        degraded += 1;
                        Ok(())
                    } else if plan.objective.to_bits() == want.plan.objective.to_bits()
                        && same_bits(&plan.coverage, &want.plan.coverage)
                    {
                        Ok(())
                    } else {
                        Err(format!("{}: served plan differs from direct call", r.name))
                    }
                })
            }
            (Err(ServeError::DeadlineExceeded { .. }), Ask::Plan { .. }) => {
                refused += 1;
                tally.fail(1);
                Ok(())
            }
            (Err(e), _) => Err(format!("{}: {e}", r.name)),
            (Ok(_), _) => Err(format!("{}: answer of the wrong kind", r.name)),
        };
        tally.check(verdict);
    }
    (refused, degraded)
}

/// Replay a batch single-client through the public calls `submit` makes:
/// per park, one coalesced risk-map pass over the distinct levels, one
/// shared 6-level response, the plan problem and the solve.
fn replay(state: &State, batch: &Batch, layers: &mut Layers) -> Result<(), String> {
    let mut order: Vec<usize> = Vec::new();
    for ask in &batch.asks {
        if !order.contains(&ask.park()) {
            order.push(ask.park());
        }
    }
    for p in order {
        let r = &state.parks[p];
        let resident = state
            .server
            .registry()
            .resident(r.name)
            .ok_or_else(|| format!("{} is not resident", r.name))?;
        let (levels, requests) = risk_levels(batch, p);
        if levels.len() > 1 {
            layers
                .time("core.risk_map_ms", || {
                    resident
                        .model
                        .try_park_response_prepared(&resident.prepared, &levels)
                })
                .map_err(|e| e.to_string())?;
        } else if let Some(&level) = levels.first() {
            for _ in 0..requests {
                layers
                    .time("core.risk_map_ms", || {
                        resident
                            .model
                            .try_risk_map_prepared(&resident.prepared, level)
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
        let posts: Vec<usize> = batch
            .asks
            .iter()
            .filter_map(|&ask| match ask {
                Ask::Plan { park, post } if park == p => Some(post),
                _ => None,
            })
            .collect();
        let wants_grid = !posts.is_empty() || batch.asks.contains(&Ask::Response { park: p });
        if !wants_grid {
            continue;
        }
        let (probs, vars) = layers
            .time("core.park_response_ms", || {
                resident
                    .model
                    .try_park_response_prepared(&resident.prepared, &GRID)
            })
            .map_err(|e| e.to_string())?;
        for post in posts {
            let post = r.plans[post].post;
            let problem = layers
                .time("core.planning_problem_ms", || {
                    try_planning_problem_from_response(
                        &resident.park,
                        post,
                        &GRID,
                        &probs,
                        &vars,
                        PATROL_KM,
                        N_PATROLS,
                        BETA,
                    )
                })
                .map_err(|e| e.to_string())?;
            let mut config = state.server.planner.clone();
            config.milp.budget = SolveBudget::with_time_limit(PLAN_DEADLINE);
            let plan = layers
                .time("plan.try_plan_ms", || try_plan(&problem, &config))
                .map_err(|e| e.to_string())?;
            layers.add("plan.lp_solves", plan.lp_solves as f64);
            layers.add("plan.nodes", plan.nodes as f64);
            layers.add("plan.candidate_cells", problem.n_cells() as f64);
            layers.add("plans", 1.0);
        }
    }
    Ok(())
}

/// What one client saw in one phase.
#[derive(Default)]
struct ClientLog {
    /// Submit latency of each batch (ms); every request in it shares it.
    batches: Vec<f64>,
    /// Submit latency of each lone read (ms).
    reads: Vec<f64>,
    /// Risk-map requests, and the risk maps `submit` evaluated for them.
    risk_requests: u64,
    risk_evaluations: u64,
    refused: u64,
    degraded: u64,
    layers: Layers,
}

fn client(
    state: &State,
    seed: u64,
    id: usize,
    end: Instant,
    traced: bool,
    tally: &Tally,
) -> ClientLog {
    let mut rng = client_rng(seed, id);
    let mut reads = read_rng(seed, id);
    // Skip the warm-up batches so the timed ones are new.
    for _ in 0..WARMUP_BATCHES {
        make_batch(&mut rng, state);
    }
    let mut log = ClientLog::default();
    while Instant::now() < end {
        let batch = make_batch(&mut rng, state);
        tally.attempt(batch.requests.len() as u64);
        let start = Instant::now();
        let answers = state.server.submit(&batch.requests);
        let submit_ms = since_ms(start);
        log.batches.push(submit_ms);
        let (refused, degraded) = check_answers(state, &batch, &answers, tally);
        log.refused += refused;
        log.degraded += degraded;
        for park in 0..PARKS.len() {
            let (levels, requests) = risk_levels(&batch, park);
            log.risk_requests += requests as u64;
            log.risk_evaluations += risk_evaluations(levels.len(), requests) as u64;
        }
        if traced {
            let start = Instant::now();
            tally.check(replay(state, &batch, &mut log.layers));
            let replay_ms = since_ms(start);
            log.layers.record("serve.submit_ms", submit_ms);
            log.layers.record("serve.self_ms", submit_ms - replay_ms);
        }
        let read = make_read(&mut reads);
        tally.attempt(1);
        let start = Instant::now();
        let answers = state.server.submit(&read.requests);
        log.reads.push(since_ms(start));
        check_answers(state, &read, &answers, tally);
    }
    log
}

/// Run the clients for `seconds`; returns their logs and the wall time.
fn phase(
    state: &State,
    seed: u64,
    seconds: f64,
    traced: bool,
    tally: &Tally,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let end = deadline(seconds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| s.spawn(move || client(state, seed, id, end, traced, tally)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

pub fn run(opts: &Options, tally: &Tally) -> Outcome {
    let (state, setup_s, setup_layers) = repeated_setup(|layers| setup(opts.seed, layers));
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (logs, wall_s) = phase(&state, opts.seed, seconds, false, tally);
    let batches: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.batches.iter().copied())
        .collect();
    let reads: Vec<f64> = logs.iter().flat_map(|l| l.reads.iter().copied()).collect();
    // Every request of a batch shares the batch's submit latency; every
    // batch has the same size, so percentiles over batches are percentiles
    // over requests, and each batch is one independent sample.
    let requests = batches.len() * BATCH;

    let mut per_layer = setup_layer_metrics(&setup_layers);
    if opts.trace {
        let (traced, _) = phase(&state, opts.seed, seconds, true, tally);
        let mut layers = Layers::default();
        let (mut risk_requests, mut evaluations, mut refused, mut degraded) = (0, 0, 0, 0);
        let mut traced_batches = Vec::new();
        for log in traced {
            risk_requests += log.risk_requests;
            evaluations += log.risk_evaluations;
            refused += log.refused;
            degraded += log.degraded;
            traced_batches.extend(log.batches);
            layers.merge(log.layers);
        }
        for name in [
            "data.full_feature_matrix_ms",
            "core.prepare_rows_ms",
            "serve.install_ms",
        ] {
            // Set-up calls, one per park per rep.
            per_layer.push(layer_p50(&setup_layers, name));
        }
        per_layer.push(Metric::new(
            "core.shards",
            "count",
            setup_layers.count("core.shards") / (SETUP_REPS * PARKS.len()) as f64,
            SETUP_REPS * PARKS.len(),
        ));
        for name in [
            "core.risk_map_ms",
            "core.park_response_ms",
            "core.planning_problem_ms",
            "plan.try_plan_ms",
            "serve.submit_ms",
            "serve.self_ms",
        ] {
            per_layer.push(layer_p50(&layers, name));
        }
        let plans = layers.count("plans").max(1.0);
        for name in ["plan.lp_solves", "plan.nodes", "plan.candidate_cells"] {
            per_layer.push(Metric::new(
                name,
                "count",
                layers.count(name) / plans,
                plans as usize,
            ));
        }
        let n = traced_batches.len();
        per_layer.push(Metric::new(
            "serve.coalesce_ratio",
            "ratio",
            risk_requests as f64 / evaluations.max(1) as f64,
            n,
        ));
        per_layer.push(Metric::new(
            "serve.deadline_refused",
            "count",
            refused as f64,
            n,
        ));
        per_layer.push(Metric::new("plan.degraded", "count", degraded as f64, n));
        let mfnp = state
            .server
            .registry()
            .resident("MFNP")
            .expect("MFNP is resident");
        per_layer.extend(fanout_metrics(|| {
            std::hint::black_box(mfnp.model.risk_map_prepared(&mfnp.prepared, 1.0));
        }));
        per_layer.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            crate::stats::median(&traced_batches) / crate::stats::median(&batches),
            n,
        ));
    }

    let auc = state.parks.iter().map(|p| p.auc).sum::<f64>() / state.parks.len() as f64;
    let objectives: Vec<f64> = state
        .parks
        .iter()
        .flat_map(|p| p.plans.iter().map(|r| r.plan.objective))
        .collect();
    let objective = objectives.iter().sum::<f64>() / objectives.len() as f64;
    let mut end_to_end = vec![
        Metric::new("setup_s", "s", setup_s, SETUP_REPS),
        with_samples(Metric::p50("op_p50_ms", "ms", &batches), requests),
        with_samples(Metric::tail("op_tail_ms", "ms", &batches), requests),
        // Queries per second: the batches' requests and the lone reads.
        Metric::new(
            "ops_per_s",
            "1/s",
            (requests + reads.len()) as f64 / wall_s,
            requests + reads.len(),
        ),
    ];
    end_to_end.push(Metric::p50("read_p50_ms", "ms", &reads));
    end_to_end.push(Metric::tail("read_tail_ms", "ms", &reads));
    end_to_end.push(Metric::new("holdout_auc", "auc", auc, PARKS.len()));
    end_to_end.push(Metric::new(
        "plan_objective",
        "utility",
        objective,
        objectives.len(),
    ));
    Outcome {
        end_to_end,
        per_layer,
    }
}

/// Report a batch-level metric with its request count.
fn with_samples(m: Metric, samples: usize) -> Metric {
    Metric { samples, ..m }
}
