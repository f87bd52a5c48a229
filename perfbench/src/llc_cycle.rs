//! `llc_cycle`: bulk park-scale work on a 50k-cell park.
//!
//! One thread runs cycles; each cycle takes the next of a few previous-
//! coverage vectors and runs `full_feature_matrix` → `prepare_rows` →
//! `risk_map_prepared` → 6-level `park_response_prepared` →
//! `try_planning_problem_from_response` with park-wide reach → `try_plan`.
//! Serving and fitting are bypassed; the model is trained during set-up.
//!
//! The park, its history and its model come from one fixed seed: the
//! park-wide plan's objective swings twofold between models trained on
//! different one-year histories, so a run seed that re-drew them would
//! make `plan_objective` (and the traversal cost of the trees) unsteady
//! across runs. The run's seed draws the cycles' previous-coverage
//! vectors instead, as seeded blends of the quarters the history observed.

use crate::common::{
    check_map, check_plan, deadline, fanout_metrics, layer_p50, model_config, repeated_setup,
    same_bits, setup_layer_metrics, since_ms, Options, Outcome, Tally, GRID,
};
use crate::stats::{Layers, Metric};
use paws_bench::START_YEAR;
use paws_core::{train, try_planning_problem_from_response, ModelConfig, Scenario, ServingModel};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
use paws_geo::{CellId, Park};
use paws_plan::{park_travel_distances, try_plan, PatrolPlan, PlannerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Cells of the LLC park.
const CELLS: usize = 50_000;
/// Seed of the LLC park, its history and its model (the park the
/// repository's criterion groups use).
const PARK_SEED: u64 = 5;
/// Simulated years: one to train on, one held out.
const YEARS: u32 = 2;
/// Distinct previous-coverage vectors the cycles rotate through.
const COVERAGES: usize = 4;
/// Simultaneous patrols and risk aversion of every plan.
const N_PATROLS: usize = 4;
const BETA: f64 = 0.5;
/// Effort level of the cycle's risk map (km).
const RISK_EFFORT: f64 = 1.0;

struct State {
    park: Park,
    dataset: Dataset,
    model: ServingModel,
    coverages: Vec<Vec<f64>>,
    post: CellId,
    patrol_length_km: f64,
    auc: f64,
}

fn setup(seed: u64, layers: &mut Layers) -> State {
    let scenario = layers.time("geo.generate_ms", || {
        Scenario::llc_scenario(CELLS, PARK_SEED)
    });
    let history = layers.time("sim.history_ms", || {
        scenario.simulate_years(START_YEAR, YEARS)
    });
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let test_year = START_YEAR + YEARS - 1;
    let split = split_by_test_year(&dataset, test_year, 1).expect("both years are simulated");
    let config = ModelConfig {
        seed: PARK_SEED,
        ..model_config("MFNP")
    };
    let model = layers
        .time("core.train_ms", || train(&dataset, &split, &config))
        .into_serving();
    let auc = model.auc_on(&dataset, &split.test);
    let coverages = blend_coverages(&dataset.coverage, seed);
    let park = scenario.park;
    let post = park.patrol_posts[0];
    // Park-wide reach: every cell is within half a patrol of the post, with
    // 8 km of effort to spare at the farthest one.
    let reach = park_travel_distances(&park, post)
        .into_iter()
        .fold(0.0f64, f64::max);
    let state = State {
        park,
        dataset,
        model,
        coverages,
        post,
        patrol_length_km: 2.0 * reach + 8.0,
        auc,
    };
    // Warm-up: spawn the pool and run one full cycle.
    let _ = cycle(&state, 0, None);
    state
}

/// [`COVERAGES`] previous-coverage vectors, each a seeded convex blend of
/// the observed quarters' coverage.
fn blend_coverages(observed: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..COVERAGES)
        .map(|_| {
            let weights: Vec<f64> = observed.iter().map(|_| rng.gen::<f64>()).collect();
            let total: f64 = weights.iter().sum();
            let mut blend = vec![0.0; observed[0].len()];
            for (cov, w) in observed.iter().zip(&weights) {
                for (b, c) in blend.iter_mut().zip(cov) {
                    *b += c * w / total;
                }
            }
            blend
        })
        .collect()
}

/// What one cycle produced.
struct CycleOut {
    plan: Result<PatrolPlan, String>,
    budget_km: f64,
    candidates: usize,
    risk_ms: f64,
    check: Result<(), String>,
}

/// One cycle on coverage vector `k`; with `layers`, every public call is
/// timed into it.
fn cycle(state: &State, k: usize, mut layers: Option<&mut Layers>) -> CycleOut {
    macro_rules! step {
        ($name:expr, $e:expr) => {{
            let start = Instant::now();
            let out = $e;
            if let Some(l) = layers.as_deref_mut() {
                l.record($name, since_ms(start));
            }
            out
        }};
    }
    let n = state.park.n_cells();
    let prev = &state.coverages[k];
    let rows = step!(
        "data.full_feature_matrix_ms",
        state.dataset.full_feature_matrix(&state.park, prev)
    );
    let prepared = match step!("core.prepare_rows_ms", state.model.prepare_rows(rows)) {
        Ok(p) => p,
        Err(e) => return failed(format!("prepare_rows: {e}")),
    };
    if let Some(l) = layers.as_deref_mut() {
        l.add("core.shards", prepared.shards().len() as f64);
    }
    let start = Instant::now();
    let (risk, var) = state.model.risk_map_prepared(&prepared, RISK_EFFORT);
    let risk_ms = since_ms(start);
    if let Some(l) = layers.as_deref_mut() {
        l.record("core.risk_map_ms", risk_ms);
    }
    let mut check = check_map("risk map", &risk, &var, n);
    let (probs, vars) = step!(
        "core.park_response_ms",
        state.model.park_response_prepared(&prepared, &GRID)
    );
    if check.is_ok() {
        check = check_map(
            "park response",
            probs.as_slice(),
            vars.as_slice(),
            n * GRID.len(),
        );
    }
    let problem = step!(
        "core.planning_problem_ms",
        try_planning_problem_from_response(
            &state.park,
            state.post,
            &GRID,
            &probs,
            &vars,
            state.patrol_length_km,
            N_PATROLS,
            BETA,
        )
    );
    let problem = match problem {
        Ok(p) => p,
        Err(e) => return failed(format!("planning problem: {e}")),
    };
    let candidates = problem.n_cells();
    if check.is_ok() && candidates != n {
        check = Err(format!("park-wide reach covers {candidates} of {n} cells"));
    }
    let plan = step!(
        "plan.try_plan_ms",
        try_plan(&problem, &PlannerConfig::default())
    );
    CycleOut {
        plan: plan.map_err(|e| format!("try_plan: {e}")),
        budget_km: problem.budget_km(),
        candidates,
        risk_ms,
        check,
    }
}

fn failed(what: String) -> CycleOut {
    CycleOut {
        plan: Err(what.clone()),
        budget_km: 0.0,
        candidates: 0,
        risk_ms: 0.0,
        check: Err(what),
    }
}

/// Latencies of one closed loop of cycles.
#[derive(Default)]
struct Loop {
    ops: Vec<f64>,
    reads: Vec<f64>,
    wall_s: f64,
}

fn run_loop(
    state: &State,
    seconds: f64,
    tally: &Tally,
    objectives: &mut [Option<(f64, Vec<f64>)>],
    mut layers: Option<&mut Layers>,
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let end = deadline(seconds);
    let mut k = 0;
    // Every coverage vector runs at least once, so the mean objective is
    // over the same plans in every run.
    while Instant::now() < end || k < COVERAGES {
        let idx = k % COVERAGES;
        tally.attempt(1);
        let t0 = Instant::now();
        let c = cycle(state, idx, layers.as_deref_mut());
        out.ops.push(since_ms(t0));
        out.reads.push(c.risk_ms);
        let verdict = c.check.and_then(|()| {
            let plan = c.plan?;
            check_plan("llc plan", &plan, c.budget_km, c.candidates, false)?;
            if let Some(l) = layers.as_deref_mut() {
                l.add("plan.lp_solves", plan.lp_solves as f64);
                l.add("plan.nodes", plan.nodes as f64);
                l.add("plan.candidate_cells", c.candidates as f64);
                l.add("plans", 1.0);
            }
            match &objectives[idx] {
                None => objectives[idx] = Some((plan.objective, plan.coverage)),
                Some((obj, cov)) => {
                    if obj.to_bits() != plan.objective.to_bits() || !same_bits(cov, &plan.coverage)
                    {
                        return Err(format!(
                            "coverage vector {idx}: plan changed between cycles \
                             ({obj} vs {})",
                            plan.objective
                        ));
                    }
                }
            }
            Ok(())
        });
        tally.check(verdict);
        k += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

pub fn run(opts: &Options, tally: &Tally) -> Outcome {
    let (state, setup_s, setup_layers) = repeated_setup(|layers| setup(opts.seed, layers));
    let mut objectives: Vec<Option<(f64, Vec<f64>)>> = vec![None; COVERAGES];
    let mut end_to_end = Vec::new();
    let mut per_layer = setup_layer_metrics(&setup_layers);

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = run_loop(&state, seconds, tally, &mut objectives, None);
    if opts.trace {
        let mut layers = Layers::default();
        let traced = run_loop(&state, seconds, tally, &mut objectives, Some(&mut layers));
        for name in [
            "data.full_feature_matrix_ms",
            "core.prepare_rows_ms",
            "core.risk_map_ms",
            "core.park_response_ms",
            "core.planning_problem_ms",
            "plan.try_plan_ms",
        ] {
            per_layer.push(layer_p50(&layers, name));
        }
        let cycles = traced.ops.len() as f64;
        let plans = layers.count("plans").max(1.0);
        per_layer.push(Metric::new(
            "core.shards",
            "count",
            layers.count("core.shards") / cycles,
            traced.ops.len(),
        ));
        for name in ["plan.lp_solves", "plan.nodes", "plan.candidate_cells"] {
            per_layer.push(Metric::new(
                name,
                "count",
                layers.count(name) / plans,
                plans as usize,
            ));
        }
        let prepared = state
            .model
            .prepare_rows(
                state
                    .dataset
                    .full_feature_matrix(&state.park, &state.coverages[0]),
            )
            .expect("the warm-up cycle prepared this stack");
        per_layer.extend(fanout_metrics(|| {
            std::hint::black_box(state.model.risk_map_prepared(&prepared, RISK_EFFORT));
        }));
        per_layer.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            crate::stats::median(&traced.ops) / crate::stats::median(&untraced.ops),
            traced.ops.len(),
        ));
    }

    let objective: Vec<f64> = objectives.iter().flatten().map(|(o, _)| *o).collect();
    end_to_end.push(Metric::new(
        "setup_s",
        "s",
        setup_s,
        crate::common::SETUP_REPS,
    ));
    end_to_end.push(Metric::p50("op_p50_ms", "ms", &untraced.ops));
    end_to_end.push(Metric::tail("op_tail_ms", "ms", &untraced.ops));
    end_to_end.push(Metric::new(
        "ops_per_s",
        "1/s",
        untraced.ops.len() as f64 / untraced.wall_s,
        untraced.ops.len(),
    ));
    end_to_end.push(Metric::p50("read_p50_ms", "ms", &untraced.reads));
    end_to_end.push(Metric::tail("read_tail_ms", "ms", &untraced.reads));
    end_to_end.push(Metric::new("holdout_auc", "auc", state.auc, 1));
    end_to_end.push(Metric::new(
        "plan_objective",
        "utility",
        objective.iter().sum::<f64>() / objective.len().max(1) as f64,
        objective.len(),
    ));
    Outcome {
        end_to_end,
        per_layer,
    }
}
