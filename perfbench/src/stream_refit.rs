//! `stream_refit`: patrol-log ingests beside reads on one park.
//!
//! MFNP is installed with `install_streaming` on its first year; the
//! following years' quarterly `patrol_log_batches` are replayed through
//! `ModelRegistry::ingest_batch` while one reader thread submits risk-map
//! queries against the same park. A final year is held out and never
//! ingested. The stream is replayed in whole passes (each starting from a
//! fresh install), so every run times the same mix of batch sizes. The
//! reader pauses during the re-install between passes.
//!
//! The park, its history and its model are the canonical MFNP study site
//! (`paws_bench::scenario`, `paws_bench::park_model_config`), the same in
//! every run, so `holdout_auc` and `plan_objective` change only when the
//! code does. The run's seed draws the reader's effort levels.

use crate::common::{
    check_map, check_plan, deadline, fanout_metrics, layer_p50, model_config, repeated_setup,
    setup_layer_metrics, since_ms, Options, Outcome, Tally, GRID, SETUP_REPS,
};
use crate::stats::{windowed_means, Layers, Metric};
use paws_bench::START_YEAR;
use paws_core::{
    try_planning_problem_from_response, ModelConfig, RefitPath, StreamConfig, StreamingFit,
};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
use paws_geo::Park;
use paws_plan::try_plan;
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse, ResidentPark};
use paws_sim::History;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARK: &str = "MFNP";
/// Streamed years after the install year; one more year is held out.
const STREAM_YEARS: u32 = 2;
/// Quarterly batches.
const MONTHS_PER_BATCH: usize = 3;
const BATCHES_PER_YEAR: usize = 12 / MONTHS_PER_BATCH;
/// Effort levels the reads draw from (km).
const READ_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];
/// Window over which `read_p50_ms` averages read latencies (ms). A single
/// read either runs on a free core or waits out a scheduler slice behind
/// the refit, so per-read latencies are bimodal with roughly even modes,
/// and their median jumps between the modes from run to run; the median
/// of windowed means does not.
const READ_WINDOW_MS: f64 = 250.0;
/// The plan made from the final streamed model.
const PATROL_KM: f64 = 12.0;
const N_PATROLS: usize = 3;
const BETA: f64 = 0.5;

struct State {
    server: PawsServer,
    park: Park,
    config: ModelConfig,
    /// The install year's dataset every pass starts from.
    install: Dataset,
    /// The streamed quarterly batches.
    stream: Vec<History>,
    /// Every simulated year, and the held-out year's rows in it.
    full: Dataset,
    holdout: Vec<usize>,
}

fn concat(batches: &[History]) -> History {
    History {
        start_year: batches[0].start_year,
        months: batches
            .iter()
            .flat_map(|b| b.months.iter().cloned())
            .collect(),
        n_cells: batches[0].n_cells,
    }
}

fn setup(layers: &mut Layers) -> State {
    let scenario = layers.time("geo.generate_ms", || paws_bench::scenario(PARK));
    let years = 1 + STREAM_YEARS + 1;
    let batches = layers.time("sim.history_ms", || {
        scenario.patrol_log_batches(START_YEAR, years, MONTHS_PER_BATCH)
    });
    let park = scenario.park;
    let disc = Discretization::quarterly();
    let install = build_dataset(&park, &concat(&batches[..BATCHES_PER_YEAR]), disc);
    let stream_end = BATCHES_PER_YEAR * (1 + STREAM_YEARS as usize);
    let stream = batches[BATCHES_PER_YEAR..stream_end].to_vec();
    let full = build_dataset(&park, &concat(&batches), disc);
    let holdout_year = START_YEAR + years - 1;
    let holdout = split_by_test_year(&full, holdout_year, 1)
        .expect("the held-out year is simulated")
        .test;
    let config = model_config(PARK);
    let server = PawsServer::new();
    layers
        .time("core.train_ms", || {
            server.registry().install_streaming(
                PARK,
                park.clone(),
                install.clone(),
                &config,
                StreamConfig::default(),
            )
        })
        .expect("install year fits");
    let state = State {
        server,
        park,
        config,
        install,
        stream,
        full,
        holdout,
    };
    // Warm-up: spawn the pool and serve the first reads.
    for effort_km in READ_LEVELS {
        let answers = state
            .server
            .submit(&[QueryRequest::new(PARK, QueryKind::RiskMap { effort_km })]);
        assert!(matches!(answers.first(), Some(Ok(_))), "warm-up read fails");
    }
    state
}

fn resident(state: &State) -> Option<Arc<ResidentPark>> {
    state.server.registry().resident(PARK)
}

/// Check that an ingest published a new bundle.
fn check_swap(
    before: &Option<Arc<ResidentPark>>,
    after: &Option<Arc<ResidentPark>>,
) -> Result<(), String> {
    match (before, after) {
        (Some(b), Some(a)) if !Arc::ptr_eq(b, a) => Ok(()),
        (_, None) => Err("park is not resident after ingest".to_string()),
        _ => Err("ingest returned before publishing the new bundle".to_string()),
    }
}

/// One pass over the stream through `ModelRegistry::ingest_batch`.
fn pass_untraced(state: &State, tally: &Tally, ops: &mut Vec<f64>, paths: &mut Vec<RefitPath>) {
    let mut total = state.install.n_points();
    for batch in &state.stream {
        tally.attempt(1);
        let before = resident(state);
        let start = Instant::now();
        let got = state.server.registry().ingest_batch(PARK, batch);
        ops.push(since_ms(start));
        let verdict = match got {
            Ok(Some(report)) => {
                paths.push(report.path);
                let grown = total + report.appended;
                total = report.total_rows;
                if report.total_rows != grown {
                    Err(format!(
                        "ingest reports {} rows, expected {grown}",
                        report.total_rows
                    ))
                } else {
                    check_swap(&before, &resident(state))
                }
            }
            Ok(None) => Err("a quarterly batch appended no training rows".to_string()),
            Err(e) => Err(format!("ingest_batch: {e}")),
        };
        tally.check(verdict);
    }
}

/// The same pass replayed as the public calls `ingest_batch` makes:
/// `Dataset::append_observations` → `StreamingFit::ingest` →
/// `ModelRegistry::install`.
fn pass_traced(
    state: &State,
    tally: &Tally,
    ops: &mut Vec<f64>,
    paths: &mut Vec<RefitPath>,
    layers: &mut Layers,
) {
    let mut dataset = state.install.clone();
    let mut fit = StreamingFit::new(state.config.clone(), StreamConfig::default());
    let all: Vec<usize> = (0..dataset.n_points()).collect();
    let installed = fit
        .ingest(
            dataset.feature_rows(&all).view(),
            &dataset.labels(&all),
            &dataset.efforts(&all),
        )
        .map_err(|e| format!("install-year fit: {e}"))
        .and_then(|(model, _)| {
            let prev = dataset.coverage.last().cloned().unwrap_or_default();
            state
                .server
                .registry()
                .install(PARK, model, state.park.clone(), &dataset, &prev)
                .map_err(|e| format!("install: {e}"))
        });
    if let Err(e) = installed {
        tally.wrong(e);
        return;
    }
    for batch in &state.stream {
        tally.attempt(1);
        let before_bundle = resident(state);
        let start = Instant::now();
        let verdict = (|| {
            let before = dataset.n_points();
            let appended = layers
                .time("data.append_observations_ms", || {
                    dataset.append_observations(&state.park, batch)
                })
                .map_err(|e| format!("append_observations: {e}"))?;
            if appended == 0 {
                return Err("a quarterly batch appended no training rows".to_string());
            }
            let (model, report) = layers
                .time("core.stream_ingest_ms", || {
                    let idx: Vec<usize> = (before..before + appended).collect();
                    fit.ingest(
                        dataset.feature_rows(&idx).view(),
                        &dataset.labels(&idx),
                        &dataset.efforts(&idx),
                    )
                })
                .map_err(|e| format!("StreamingFit::ingest: {e}"))?;
            paths.push(report.path);
            let prev = dataset.coverage.last().cloned().unwrap_or_default();
            layers
                .time("serve.install_ms", || {
                    state.server.registry().install(
                        PARK,
                        model,
                        state.park.clone(),
                        &dataset,
                        &prev,
                    )
                })
                .map_err(|e| format!("install: {e}"))
        })();
        ops.push(since_ms(start));
        tally.check(verdict.and_then(|()| check_swap(&before_bundle, &resident(state))));
    }
}

/// Re-install the install year so the next pass replays the same stream.
fn reinstall(state: &State) -> Result<(), String> {
    state
        .server
        .registry()
        .install_streaming(
            PARK,
            state.park.clone(),
            state.install.clone(),
            &state.config,
            StreamConfig::default(),
        )
        .map(|_| ())
        .map_err(|e| format!("install_streaming: {e}"))
}

/// Held-out AUC of the resident (final streamed) model.
fn holdout_auc(state: &State) -> f64 {
    resident(state).map_or(f64::NAN, |r| r.model.auc_on(&state.full, &state.holdout))
}

/// The reader: one risk-map query at a time until `stop`, at seeded
/// effort levels. `passes` is even while a pass runs and odd between
/// passes; the reader waits out the odd spans, and records a read only if
/// no pass began or ended while it ran.
fn reader(
    state: &State,
    seed: u64,
    passes: &AtomicUsize,
    stop: &AtomicBool,
    tally: &Tally,
    traced: bool,
) -> (Vec<f64>, Layers) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut lat = Vec::new();
    let mut layers = Layers::default();
    let n_cells = state.park.n_cells();
    while !stop.load(Ordering::Relaxed) {
        let epoch = passes.load(Ordering::Acquire);
        if epoch % 2 == 1 {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let effort_km = READ_LEVELS[rng.gen_range(0..READ_LEVELS.len())];
        tally.attempt(1);
        let start = Instant::now();
        let answers = state
            .server
            .submit(&[QueryRequest::new(PARK, QueryKind::RiskMap { effort_km })]);
        let submit_ms = since_ms(start);
        let verdict = match answers.first() {
            Some(Ok(QueryResponse::RiskMap { risk, uncertainty })) => {
                check_map("streamed risk map", risk, uncertainty, n_cells)
            }
            Some(Ok(_)) => Err("read answered with the wrong kind".to_string()),
            Some(Err(e)) => Err(format!("read: {e}")),
            None => Err("read got no answer".to_string()),
        };
        tally.check(verdict);
        if passes.load(Ordering::Acquire) != epoch {
            continue;
        }
        lat.push(submit_ms);
        if traced {
            // The single-level risk map is the one public call `submit`
            // makes for this request.
            let Some(bundle) = resident(state) else {
                continue;
            };
            let start = Instant::now();
            let ok = bundle
                .model
                .try_risk_map_prepared(&bundle.prepared, effort_km)
                .is_ok();
            let replay_ms = since_ms(start);
            layers.record("core.risk_map_ms", replay_ms);
            layers.record("serve.submit_ms", submit_ms);
            layers.record("serve.self_ms", submit_ms - replay_ms);
            if !ok {
                tally.wrong("replayed read failed".to_string());
            }
        }
    }
    (lat, layers)
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    ops: Vec<f64>,
    reads: Vec<f64>,
    paths: Vec<RefitPath>,
    /// Held-out AUC at the end of every pass.
    aucs: Vec<f64>,
    /// Wall time of the passes, without the re-installs between them.
    wall_s: f64,
    passes: usize,
    layers: Layers,
}

/// Whole passes until `seconds` have elapsed, with the reader running
/// during every pass.
fn phase(state: &State, seed: u64, seconds: f64, traced: bool, tally: &Tally) -> Phase {
    let passes = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut out = Phase::default();
    let end = deadline(seconds);
    let (reads, reader_layers) = std::thread::scope(|s| {
        let handle = s.spawn(|| reader(state, seed, &passes, &stop, tally, traced));
        loop {
            let start = Instant::now();
            if traced {
                pass_traced(state, tally, &mut out.ops, &mut out.paths, &mut out.layers);
            } else {
                pass_untraced(state, tally, &mut out.ops, &mut out.paths);
            }
            out.wall_s += start.elapsed().as_secs_f64();
            out.passes += 1;
            // Pause the reader until the next pass starts.
            passes.fetch_add(1, Ordering::AcqRel);
            out.aucs.push(holdout_auc(state));
            if Instant::now() >= end {
                break;
            }
            if let Err(e) = reinstall(state) {
                tally.wrong(e);
                break;
            }
            passes.fetch_add(1, Ordering::AcqRel);
        }
        stop.store(true, Ordering::Relaxed);
        handle.join().expect("reader thread panicked")
    });
    out.reads = reads;
    out.layers.merge(reader_layers);
    out
}

/// The final streamed model's plans from every patrol post, through one
/// `submit`; returns their mean objective.
fn final_plans(state: &State, tally: &Tally) -> f64 {
    let posts = &state.park.patrol_posts;
    let requests: Vec<QueryRequest> = posts
        .iter()
        .map(|&post| {
            QueryRequest::new(
                PARK,
                QueryKind::PatrolPlan {
                    post,
                    effort_grid: GRID.to_vec(),
                    patrol_length_km: PATROL_KM,
                    n_patrols: N_PATROLS,
                    beta: BETA,
                },
            )
        })
        .collect();
    tally.attempt(requests.len() as u64);
    let answers = state.server.submit(&requests);
    let Some(r) = resident(state) else {
        tally.wrong("park is not resident after the stream".to_string());
        return f64::NAN;
    };
    // Budget and candidate count from the same problems, built directly.
    let (probs, vars) = r.model.park_response_prepared(&r.prepared, &GRID);
    let mut total = 0.0;
    for (&post, answer) in posts.iter().zip(&answers) {
        let problem = try_planning_problem_from_response(
            &r.park, post, &GRID, &probs, &vars, PATROL_KM, N_PATROLS, BETA,
        );
        let verdict = match (answer, problem) {
            (Ok(QueryResponse::PatrolPlan(plan)), Ok(p)) => {
                total += plan.objective;
                check_plan("final plan", plan, p.budget_km(), p.n_cells(), false)
            }
            (_, Err(e)) => Err(format!("final plan problem: {e}")),
            (Ok(_), _) => Err("final plan answered with the wrong kind".to_string()),
            (Err(e), _) => Err(format!("final plan: {e}")),
        };
        tally.check(verdict);
    }
    if answers.len() != posts.len() {
        tally.wrong(format!(
            "{} answers for {} plans",
            answers.len(),
            posts.len()
        ));
    }
    total / posts.len() as f64
}

/// Time the final plan's public calls once per rep.
fn plan_layers(state: &State, layers: &mut Layers) {
    let Some(r) = resident(state) else { return };
    let post = state.park.patrol_posts[0];
    for _ in 0..SETUP_REPS {
        let rows = layers.time("data.full_feature_matrix_ms", || {
            state
                .full
                .full_feature_matrix(&state.park, state.full.coverage.last().expect("steps"))
        });
        let prepared = layers.time("core.prepare_rows_ms", || r.model.prepare_rows(rows));
        if let Ok(p) = prepared {
            layers.add("core.shards", p.shards().len() as f64);
        }
        let (probs, vars) = layers.time("core.park_response_ms", || {
            r.model.park_response_prepared(&r.prepared, &GRID)
        });
        let problem = layers.time("core.planning_problem_ms", || {
            try_planning_problem_from_response(
                &r.park, post, &GRID, &probs, &vars, PATROL_KM, N_PATROLS, BETA,
            )
        });
        if let Ok(problem) = problem {
            if let Ok(plan) = layers.time("plan.try_plan_ms", || {
                try_plan(&problem, &state.server.planner)
            }) {
                layers.add("plan.lp_solves", plan.lp_solves as f64);
                layers.add("plan.nodes", plan.nodes as f64);
                layers.add("plan.candidate_cells", problem.n_cells() as f64);
                layers.add("plans", 1.0);
            }
        }
    }
}

/// Warm/cold counts per pass and the warm-path ratios.
fn refit_metrics(paths: &[RefitPath], passes: usize) -> Vec<Metric> {
    let (mut warm, mut cold, mut kept, mut refitted, mut cached) = (0, 0, 0, 0, 0);
    for path in paths {
        match path {
            RefitPath::Warm(stats) => {
                warm += 1;
                kept += stats.learners_kept;
                refitted += stats.learners_refitted;
                cached += usize::from(stats.cv_resolved_from_cache);
            }
            RefitPath::Cold(_) => cold += 1,
        }
    }
    let per_pass = passes.max(1) as f64;
    vec![
        Metric::new(
            "iware.warm_refits",
            "count",
            warm as f64 / per_pass,
            paths.len(),
        ),
        Metric::new(
            "iware.cold_refits",
            "count",
            cold as f64 / per_pass,
            paths.len(),
        ),
        Metric::new(
            "iware.learners_kept_ratio",
            "ratio",
            kept as f64 / (kept + refitted).max(1) as f64,
            warm,
        ),
        Metric::new(
            "iware.cv_from_cache_ratio",
            "ratio",
            cached as f64 / warm.max(1) as f64,
            warm,
        ),
    ]
}

pub fn run(opts: &Options, tally: &Tally) -> Outcome {
    let (state, setup_s, setup_layers) = repeated_setup(setup);
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = phase(&state, opts.seed, seconds, false, tally);
    let auc = untraced.aucs[0];
    if untraced.aucs.iter().any(|a| a.to_bits() != auc.to_bits()) {
        tally.wrong(format!(
            "held-out AUC differs between passes: {:?}",
            untraced.aucs
        ));
    }

    let mut per_layer = setup_layer_metrics(&setup_layers);
    if opts.trace {
        let traced = phase(&state, opts.seed, seconds, true, tally);
        if traced.aucs.iter().any(|a| a.to_bits() != auc.to_bits()) {
            tally.wrong(format!(
                "replayed ingests give held-out AUC {:?}, ingest_batch gives {auc}",
                traced.aucs
            ));
        }
        let mut layers = traced.layers;
        plan_layers(&state, &mut layers);
        for name in [
            "data.append_observations_ms",
            "core.stream_ingest_ms",
            "serve.install_ms",
            "data.full_feature_matrix_ms",
            "core.prepare_rows_ms",
            "core.risk_map_ms",
            "core.park_response_ms",
            "core.planning_problem_ms",
            "plan.try_plan_ms",
            "serve.submit_ms",
            "serve.self_ms",
        ] {
            per_layer.push(layer_p50(&layers, name));
        }
        per_layer.extend(refit_metrics(&traced.paths, traced.passes));
        let plans = layers.count("plans").max(1.0);
        per_layer.push(Metric::new(
            "core.shards",
            "count",
            layers.count("core.shards") / plans,
            plans as usize,
        ));
        for name in ["plan.lp_solves", "plan.nodes", "plan.candidate_cells"] {
            per_layer.push(Metric::new(
                name,
                "count",
                layers.count(name) / plans,
                plans as usize,
            ));
        }
        let bundle = resident(&state).expect("park is resident");
        per_layer.extend(fanout_metrics(|| {
            std::hint::black_box(bundle.model.risk_map_prepared(&bundle.prepared, 1.0));
        }));
        per_layer.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            crate::stats::median(&traced.ops) / crate::stats::median(&untraced.ops),
            traced.ops.len(),
        ));
    }
    // The phase ended on a complete pass, so the resident model is the
    // final streamed one.
    let objective = final_plans(&state, tally);

    let end_to_end = vec![
        Metric::new("setup_s", "s", setup_s, SETUP_REPS),
        Metric::p50("op_p50_ms", "ms", &untraced.ops),
        Metric::tail("op_tail_ms", "ms", &untraced.ops),
        Metric::new(
            "ops_per_s",
            "1/s",
            untraced.ops.len() as f64 / untraced.wall_s,
            untraced.ops.len(),
        ),
        Metric {
            samples: untraced.reads.len(),
            ..Metric::p50(
                "read_p50_ms",
                "ms",
                &windowed_means(&untraced.reads, READ_WINDOW_MS),
            )
        },
        Metric::tail("read_tail_ms", "ms", &untraced.reads),
        Metric::new("holdout_auc", "auc", auc, untraced.passes),
        Metric::new(
            "plan_objective",
            "utility",
            objective,
            state.park.patrol_posts.len(),
        ),
    ];
    Outcome {
        end_to_end,
        per_layer,
    }
}
