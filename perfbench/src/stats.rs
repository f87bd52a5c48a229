//! Sample summaries and the metric records the benchmark prints.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: f64 = 10.0;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated percentile `p` (0–100) of unsorted samples; 0 for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail percentile used for `n` samples: the highest percentile, on a
/// 0.1 grid and capped at 99.9, with at least [`TAIL_BEYOND`] samples
/// beyond it (the median below 20 samples). A fine grid keeps the tail
/// moving smoothly when the sample count drifts between runs.
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let exact = 100.0 * (1.0 - TAIL_BEYOND / n as f64);
    ((exact * 10.0 + 1e-9).floor() / 10.0).clamp(50.0, 99.9)
}

/// Means of consecutive runs of closed-loop latencies, each run spanning
/// about `window_ms` of back-to-back ops (a trailing partial window is
/// dropped unless it is the only one).
pub fn windowed_means(samples: &[f64], window_ms: f64) -> Vec<f64> {
    let mut means = Vec::new();
    let (mut sum, mut n) = (0.0, 0usize);
    for &x in samples {
        sum += x;
        n += 1;
        if sum >= window_ms {
            means.push(sum / n as f64);
            (sum, n) = (0.0, 0);
        }
    }
    if means.is_empty() && n > 0 {
        means.push(sum / n as f64);
    }
    means
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (0 for a layer the workload never runs).
    pub samples: usize,
    /// The percentile a tail metric reports.
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
            percentile: None,
        }
    }

    /// The median of `samples`.
    pub fn p50(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        Self::new(name, unit, median(samples), samples.len())
    }

    /// The tail percentile of `samples`, recording which one was used.
    pub fn tail(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let p = tail_percentile(samples.len());
        Self {
            percentile: Some(p),
            ..Self::new(name, unit, percentile(samples, p), samples.len())
        }
    }
}

/// Per-layer timings and counters gathered by the benchmark around the
/// public calls it makes. Nothing inside the library is instrumented.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub times: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Run `f`, recording its wall time (ms) under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.record(name, ms(start.elapsed()));
        out
    }

    pub fn record(&mut self, name: &'static str, value_ms: f64) {
        self.times.entry(name).or_default().push(value_ms);
    }

    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.times.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, mut v) in other.times {
            self.times.entry(k).or_default().append(&mut v);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}

/// Minimal JSON string escaping for the record line.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON, with every digit of its shortest round-trip form.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
    }

    #[test]
    fn windows_average_consecutive_samples() {
        assert_eq!(
            windowed_means(&[1.0, 3.0, 2.0, 2.0, 9.0, 1.0], 4.0),
            vec![2.0, 2.0, 9.0]
        );
        assert_eq!(windowed_means(&[1.0, 1.0], 4.0), vec![1.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(32), 68.7);
        assert_eq!(tail_percentile(5), 50.0);
    }
}
