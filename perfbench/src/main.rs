//! One benchmark for the whole PAWS loop.
//!
//! ```text
//! paws-perfbench --workload <serve_mix|stream_refit|llc_cycle> --seed <n>
//!                --seconds <s> --trace <0|1> [--git-sha <sha>]
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (several times;
//! `setup_s` is the median), warms up, then drives closed-loop load through
//! the public API of `paws-serve` / `paws-core` / `paws-plan` for
//! `--seconds`, checking every answer. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` splits the time into an untraced and a traced half
//! and reports the per-layer metrics, timed around the public calls each
//! op makes. The last stdout line is the result object; the line before it
//! (`record {...}`) is the full record with seed, git SHA, thread counts,
//! sample counts and tail percentiles. A watchdog ends a stalled run with
//! exit code 3; a wrong answer ends it with exit code 1.

mod common;
mod llc_cycle;
mod serve_mix;
mod stats;
mod stream_refit;

use common::{Options, Outcome, Tally};
use stats::{json_num, json_str, Metric};
use std::time::Duration;

/// Wall-clock limit of one run, set-up included.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Every end-to-end metric, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("holdout_auc", "auc"),
    ("plan_objective", "utility"),
];

/// Every per-layer metric, in report order.
const PER_LAYER: [(&str, &str); 29] = [
    ("geo.generate_ms", "ms"),
    ("sim.history_ms", "ms"),
    ("core.train_ms", "ms"),
    ("data.append_observations_ms", "ms"),
    ("core.stream_ingest_ms", "ms"),
    ("serve.install_ms", "ms"),
    ("iware.warm_refits", "count"),
    ("iware.cold_refits", "count"),
    ("iware.learners_kept_ratio", "ratio"),
    ("iware.cv_from_cache_ratio", "ratio"),
    ("data.full_feature_matrix_ms", "ms"),
    ("core.prepare_rows_ms", "ms"),
    ("core.shards", "count"),
    ("core.risk_map_ms", "ms"),
    ("core.park_response_ms", "ms"),
    ("core.planning_problem_ms", "ms"),
    ("plan.try_plan_ms", "ms"),
    ("plan.lp_solves", "count"),
    ("plan.nodes", "count"),
    ("plan.candidate_cells", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.deadline_refused", "count"),
    ("plan.degraded", "count"),
    ("rayon.threads", "count"),
    ("rayon.risk_map_forced1_ms", "ms"),
    ("rayon.fanout_speedup", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: paws-perfbench --workload <serve_mix|stream_refit|llc_cycle> --seed <n> \
         --seconds <s> --trace <0|1> [--git-sha <sha>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        git_sha: "unknown".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value == "1",
            "--git-sha" => opts.git_sha = value.clone(),
            _ => usage(),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        usage();
    }
    opts
}

/// End the process if the run outlives [`RUN_LIMIT`] — a deadlocked pool
/// then shows up as a failed run instead of a stalled one.
fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("paws-perfbench: run exceeded {RUN_LIMIT:?}; aborting");
        std::process::exit(3);
    });
}

/// The metrics of `names`, in order, from `got`. A per-layer metric the
/// workload never exercises is reported as 0 with 0 samples.
fn select(names: &[(&'static str, &'static str)], got: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "metric {name} reported in the wrong unit");
                m.clone()
            }
            None => Metric::new(name, unit, 0.0, 0),
        })
        .collect()
}

fn metric_json(m: &Metric, detailed: bool) -> String {
    let mut s = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        json_str(m.name),
        json_num(m.value),
        json_str(m.unit)
    );
    if detailed {
        s.push_str(&format!(", \"samples\": {}", m.samples));
        if let Some(p) = m.percentile {
            s.push_str(&format!(", \"percentile\": {}", json_num(p)));
        }
    }
    s.push('}');
    s
}

fn main() {
    start_watchdog();
    let opts = parse_args();
    let tally = Tally::default();
    let outcome: Outcome = match opts.workload.as_str() {
        "serve_mix" => serve_mix::run(&opts, &tally),
        "stream_refit" => stream_refit::run(&opts, &tally),
        "llc_cycle" => llc_cycle::run(&opts, &tally),
        _ => usage(),
    };

    let metrics = if opts.trace {
        select(&PER_LAYER, &outcome.per_layer)
    } else {
        select(&END_TO_END, &outcome.end_to_end)
    };
    let wrong = tally.wrong_outputs();
    let correct = wrong.is_empty();
    let (attempted, failed) = (tally.attempted(), tally.failed());

    println!(
        "workload {}  seed {}  trace {}  attempted {attempted}  succeeded {}  failed {failed}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        attempted - failed
    );
    for m in &metrics {
        let tail = m
            .percentile
            .map(|p| format!("  (p{p})"))
            .unwrap_or_default();
        println!(
            "  {:<30} {:>16.6} {:<8} n={}{tail}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for w in &wrong {
        eprintln!("wrong output: {w}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let detailed: Vec<String> = metrics.iter().map(|m| metric_json(m, true)).collect();
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"git_sha\": {}, \"nproc\": {nproc}, \"rayon_threads\": {}, \"setup_reps\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"succeeded\": {}, \
         \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_str(&opts.workload),
        opts.seed,
        u8::from(opts.trace),
        json_num(opts.seconds),
        json_str(&opts.git_sha),
        rayon::current_num_threads(),
        common::SETUP_REPS,
        attempted - failed,
        detailed.join(", ")
    );
    let plain: Vec<String> = metrics.iter().map(|m| metric_json(m, false)).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        plain.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
