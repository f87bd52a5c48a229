//! What every workload shares: run options, outcome accounting, output
//! checks and the paper's model configuration.

use crate::stats::{ms, Layers, Metric};
use paws_bench::{park_model_config, Scale};
use paws_core::{ModelConfig, WeakLearnerKind};
use paws_plan::PatrolPlan;
use paws_solver::SolveStatus;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Effort levels of every park-response and plan query (km).
pub const GRID: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
/// Repetitions of each forced-thread-count risk map.
const FANOUT_REPS: usize = 15;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub git_sha: String,
}

/// Attempted / failed / wrong-output accounting, shared by load threads.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    wrong: Mutex<Vec<String>>,
}

impl Tally {
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// An op that got a typed refusal (e.g. a lapsed deadline): it failed,
    /// but its output is not wrong.
    pub fn fail(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    /// An op whose answer is wrong: it fails and the run is incorrect.
    pub fn wrong(&self, what: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut log = self.wrong.lock().unwrap_or_else(|p| p.into_inner());
        if log.len() < 20 {
            log.push(what);
        }
    }

    /// Record `check`'s verdict on one op.
    pub fn check(&self, check: Result<(), String>) {
        if let Err(what) = check {
            self.wrong(what);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn wrong_outputs(&self) -> Vec<String> {
        self.wrong.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The paper's configuration for a park, as `paws_bench::park_model_config`
/// gives it (quick scale, iWare-E over decision trees, f64 interleaved
/// engine).
pub fn model_config(park: &str) -> ModelConfig {
    park_model_config(park, WeakLearnerKind::DecisionTree, true, Scale::Quick)
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last state. Returns the
/// state, the median set-up time (s) and the layer timings of every rep.
pub fn repeated_setup<S>(mut setup: impl FnMut(&mut Layers) -> S) -> (S, f64, Layers) {
    let mut layers = Layers::default();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Free the previous rep's state before building the next, so every
        // rep starts from the same memory footprint.
        drop(state.take());
        let start = Instant::now();
        state = Some(setup(&mut layers));
        times.push(start.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up rep");
    (state, crate::stats::median(&times), layers)
}

/// Check a risk / uncertainty pair: one value per cell, risk in [0, 1],
/// variance finite and non-negative.
pub fn check_map(what: &str, risk: &[f64], var: &[f64], n_cells: usize) -> Result<(), String> {
    if risk.len() != n_cells || var.len() != n_cells {
        return Err(format!(
            "{what}: {} risks / {} variances for {n_cells} cells",
            risk.len(),
            var.len()
        ));
    }
    if let Some(r) = risk.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(format!("{what}: risk {r} outside [0, 1]"));
    }
    if let Some(v) = var.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
        return Err(format!("{what}: variance {v} is negative or not finite"));
    }
    Ok(())
}

/// Check a plan: `Optimal` (or `Degraded` when `budgeted`), non-negative
/// finite coverage within the effort budget, finite objective.
pub fn check_plan(
    what: &str,
    plan: &PatrolPlan,
    budget_km: f64,
    n_candidates: usize,
    budgeted: bool,
) -> Result<(), String> {
    let status_ok =
        plan.status == SolveStatus::Optimal || (budgeted && plan.status == SolveStatus::Degraded);
    if !status_ok {
        return Err(format!("{what}: plan status {:?}", plan.status));
    }
    if plan.coverage.len() != n_candidates {
        return Err(format!(
            "{what}: {} coverage entries for {n_candidates} candidate cells",
            plan.coverage.len()
        ));
    }
    if let Some(c) = plan
        .coverage
        .iter()
        .find(|c| !(c.is_finite() && **c >= 0.0))
    {
        return Err(format!("{what}: coverage {c} is negative or not finite"));
    }
    let total: f64 = plan.coverage.iter().sum();
    if total > budget_km * (1.0 + 1e-9) + 1e-9 {
        return Err(format!(
            "{what}: coverage {total} km exceeds budget {budget_km} km"
        ));
    }
    if !plan.objective.is_finite() {
        return Err(format!(
            "{what}: objective {} is not finite",
            plan.objective
        ));
    }
    Ok(())
}

/// Bit-for-bit equality of two float slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Milliseconds elapsed since `start`.
pub fn since_ms(start: Instant) -> f64 {
    ms(start.elapsed())
}

/// The time at which a phase of `seconds` that starts now ends.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// The pool metrics: worker count, and a risk map forced onto one worker
/// against the default fan-out (`rayon::with_num_threads`).
pub fn fanout_metrics(risk_map: impl Fn()) -> Vec<Metric> {
    let mut forced1 = Vec::with_capacity(FANOUT_REPS);
    let mut default = Vec::with_capacity(FANOUT_REPS);
    for _ in 0..FANOUT_REPS {
        let start = Instant::now();
        rayon::with_num_threads(1, &risk_map);
        forced1.push(since_ms(start));
        let start = Instant::now();
        risk_map();
        default.push(since_ms(start));
    }
    let f1 = crate::stats::median(&forced1);
    let d = crate::stats::median(&default);
    vec![
        Metric::new(
            "rayon.threads",
            "count",
            rayon::current_num_threads() as f64,
            1,
        ),
        Metric::p50("rayon.risk_map_forced1_ms", "ms", &forced1),
        Metric::new("rayon.fanout_speedup", "ratio", f1 / d, FANOUT_REPS),
    ]
}

/// Per-layer metrics a set-up run records (summed over a set-up's calls,
/// median over reps): scenario generation, history simulation, training.
pub fn setup_layer_metrics(layers: &Layers) -> Vec<Metric> {
    ["geo.generate_ms", "sim.history_ms", "core.train_ms"]
        .into_iter()
        .map(|name| {
            let per_rep = per_rep_sums(layers.samples(name));
            Metric::p50(name, "ms", &per_rep)
        })
        .collect()
}

/// Fold a layer's samples from [`SETUP_REPS`] set-ups into one sum per rep
/// (a set-up may call a layer once per park).
fn per_rep_sums(samples: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let per = (samples.len() / SETUP_REPS).max(1);
    samples.chunks(per).map(|c| c.iter().sum()).collect()
}

/// The median of a layer's samples (0 with 0 samples when the workload
/// never makes that call).
pub fn layer_p50(layers: &Layers, name: &'static str) -> Metric {
    Metric::p50(name, "ms", layers.samples(name))
}
