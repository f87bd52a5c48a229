//! Piecewise-linear approximation of black-box effort-response functions.
//!
//! Sec. VI-B: "piecewise linear (PWL) approximations to these functions g_v
//! are constructed using m × N sampled points", which turns the black-box
//! machine-learning predictions into something a MILP can optimise. The same
//! construction is applied to the uncertainty functions ν_v in Sec. VI-C.

use serde::{Deserialize, Serialize};

/// Errors from the checked PWL constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwlError {
    /// No curve: fewer than two breakpoints (including the fully empty
    /// case, where `eval`/`domain` would have hit `xs.last().unwrap()`),
    /// or an empty sampling interval.
    Empty,
    /// Breakpoint coordinate vectors differ in length.
    LengthMismatch,
    /// Breakpoint x values are not strictly ascending.
    NotAscending,
}

impl std::fmt::Display for PwlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PwlError::Empty => write!(f, "piecewise-linear curve needs at least two breakpoints"),
            PwlError::LengthMismatch => write!(f, "breakpoint coordinate length mismatch"),
            PwlError::NotAscending => {
                write!(f, "breakpoint x values must be strictly ascending")
            }
        }
    }
}

impl std::error::Error for PwlError {}

/// A piecewise-linear function defined by ascending breakpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PwlFunction {
    /// Breakpoint x-coordinates, strictly ascending.
    xs: Vec<f64>,
    /// Breakpoint y-coordinates.
    ys: Vec<f64>,
}

impl PwlFunction {
    /// Checked construction from breakpoints: an empty (or single-point)
    /// curve is a [`PwlError::Empty`] instead of a later
    /// `xs.last().unwrap()` panic inside `eval`/`domain`.
    pub fn try_new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, PwlError> {
        if xs.len() < 2 {
            return Err(PwlError::Empty);
        }
        if xs.len() != ys.len() {
            return Err(PwlError::LengthMismatch);
        }
        if !xs.windows(2).all(|w| w[1] > w[0]) {
            return Err(PwlError::NotAscending);
        }
        Ok(Self { xs, ys })
    }

    /// Build from breakpoints.
    ///
    /// # Panics
    /// Panics when fewer than two breakpoints are given or the x values are
    /// not strictly ascending; use [`PwlFunction::try_new`] to handle these
    /// as errors.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        match Self::try_new(xs, ys) {
            Ok(f) => f,
            Err(PwlError::Empty) => panic!("a PWL function needs at least two breakpoints"),
            Err(PwlError::LengthMismatch) => panic!("breakpoint coordinate length mismatch"),
            Err(PwlError::NotAscending) => {
                panic!("breakpoint x values must be strictly ascending")
            }
        }
    }

    /// Sample a black-box function at `segments + 1` evenly spaced points
    /// on `[lo, hi]` and return its PWL approximation. A degenerate request
    /// (zero segments or an empty interval) is a [`PwlError::Empty`].
    pub fn try_from_samples(
        lo: f64,
        hi: f64,
        segments: usize,
        f: impl Fn(f64) -> f64,
    ) -> Result<Self, PwlError> {
        // `hi > lo` must hold; the negation (rather than `hi <= lo`) also
        // rejects NaN bounds, which are incomparable.
        let interval_ok = hi > lo;
        if segments < 1 || !interval_ok {
            return Err(PwlError::Empty);
        }
        let xs: Vec<f64> = (0..=segments)
            .map(|i| lo + (hi - lo) * i as f64 / segments as f64)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        Self::try_new(xs, ys)
    }

    /// Breakpoint x-coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Breakpoint y-coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Number of linear segments.
    pub fn n_segments(&self) -> usize {
        self.xs.len() - 1
    }

    /// Domain of the function.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }

    /// Evaluate by linear interpolation; clamps outside the domain.
    pub fn eval(&self, x: f64) -> f64 {
        eval(&self.xs, &self.ys, x)
    }

    /// True when the function is concave (segment slopes non-increasing),
    /// in which case its maximisation needs no binary variables.
    pub fn is_concave(&self, tol: f64) -> bool {
        is_concave(&self.xs, &self.ys, tol)
    }

    /// The upper concave envelope of the function over its breakpoints: the
    /// tightest concave PWL function that dominates it. Used by the planner
    /// to keep non-concave utilities solvable as a pure LP (the exact SOS2
    /// encoding remains available behind a flag).
    pub fn concave_envelope(&self) -> PwlFunction {
        let mut ys = self.ys.clone();
        concave_envelope_in_place(&self.xs, &mut ys, &mut Hull::default());
        PwlFunction {
            xs: self.xs.clone(),
            ys,
        }
    }
}

/// Linear interpolation through breakpoints `(xs, ys)` (`xs` strictly
/// ascending, at least two points), clamped outside the domain: the one
/// evaluation rule behind [`PwlFunction::eval`] and the planner's flat
/// curve tables.
pub(crate) fn eval(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let last = xs.len() - 1;
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[last] {
        return ys[last];
    }
    // Binary search for the segment containing x.
    let mut lo = 0usize;
    let mut hi = last;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] * (1.0 - t) + ys[hi] * t
}

/// [`eval`] at every point of `at`, written to `out`. Successive points
/// continue the segment search where the previous one ended instead of
/// bisecting afresh, which for ascending `at` (every caller's case) is a
/// single merge walk; the segment found, and so every result bit, is the
/// one [`eval`] finds.
pub(crate) fn eval_many(xs: &[f64], ys: &[f64], at: &[f64], out: &mut [f64]) {
    let last = xs.len() - 1;
    let mut lo = 0usize;
    for (y, &x) in out.iter_mut().zip(at) {
        *y = if x <= xs[0] {
            ys[0]
        } else if x >= xs[last] {
            ys[last]
        } else {
            // The segment with xs[lo] <= x < xs[lo + 1].
            while lo > 0 && xs[lo] > x {
                lo -= 1;
            }
            while xs[lo + 1] <= x {
                lo += 1;
            }
            let t = (x - xs[lo]) / (xs[lo + 1] - xs[lo]);
            ys[lo] * (1.0 - t) + ys[lo + 1] * t
        };
    }
}

/// True when the segment slopes of `(xs, ys)` never rise by more than
/// `tol` (see [`PwlFunction::is_concave`]).
pub(crate) fn is_concave(xs: &[f64], ys: &[f64], tol: f64) -> bool {
    let mut s = vec![0.0; xs.len() - 1];
    slopes(xs, ys, &mut s);
    slopes_concave(&s, tol)
}

/// The slope of every segment of `(xs, ys)`, written to `out`.
pub(crate) fn slopes(xs: &[f64], ys: &[f64], out: &mut [f64]) {
    for (j, s) in out.iter_mut().enumerate() {
        *s = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]);
    }
}

/// True when consecutive `slopes` never rise by more than `tol`.
pub(crate) fn slopes_concave(slopes: &[f64], tol: f64) -> bool {
    slopes.windows(2).all(|w| w[1] <= w[0] + tol)
}

/// Reusable scratch for [`concave_envelope_in_place`]: the upper hull's
/// vertices.
#[derive(Debug, Clone, Default)]
pub(crate) struct Hull {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

/// Replace `ys` by the upper concave envelope of `(xs, ys)` evaluated at
/// the same `xs` (see [`PwlFunction::concave_envelope`]). The hull is
/// built in `hull`, so a caller enveloping many curves allocates it once.
pub(crate) fn concave_envelope_in_place(xs: &[f64], ys: &mut [f64], hull: &mut Hull) {
    // Upper convex hull of the breakpoints (Andrew's monotone chain on
    // the upper side), then re-evaluate at the original x grid.
    hull.xs.clear();
    hull.ys.clear();
    for (&px, &py) in xs.iter().zip(ys.iter()) {
        while hull.xs.len() >= 2 {
            let n = hull.xs.len();
            let (ax, ay) = (hull.xs[n - 2], hull.ys[n - 2]);
            let (bx, by) = (hull.xs[n - 1], hull.ys[n - 1]);
            // Keep b only if it lies strictly above the chord a→p.
            let cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax);
            if cross >= 0.0 {
                hull.xs.pop();
                hull.ys.pop();
            } else {
                break;
            }
        }
        hull.xs.push(px);
        hull.ys.push(py);
    }
    eval_many(&hull.xs, &hull.ys, xs, ys);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evaluates_exactly_at_breakpoints() {
        let f = PwlFunction::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 1.0]);
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(3.0), 1.0);
    }

    #[test]
    fn interpolates_linearly_between_breakpoints() {
        let f = PwlFunction::new(vec![0.0, 2.0], vec![0.0, 4.0]);
        assert!((f.eval(0.5) - 1.0).abs() < 1e-12);
        assert!((f.eval(1.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_domain() {
        let f = PwlFunction::new(vec![1.0, 2.0], vec![3.0, 5.0]);
        assert_eq!(f.eval(0.0), 3.0);
        assert_eq!(f.eval(10.0), 5.0);
    }

    #[test]
    fn sampling_matches_function_at_breakpoints() {
        let f = PwlFunction::try_from_samples(0.0, 4.0, 8, |x| 1.0 - (-x).exp())
            .expect("valid sampling request");
        assert_eq!(f.n_segments(), 8);
        for (&x, &y) in f.xs().iter().zip(f.ys()) {
            assert!((y - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn concavity_detection() {
        let concave = PwlFunction::try_from_samples(0.0, 4.0, 10, |x| 1.0 - (-x).exp())
            .expect("valid sampling request");
        assert!(concave.is_concave(1e-9));
        let non_concave = PwlFunction::new(vec![0.0, 1.0, 2.0], vec![0.0, 0.1, 1.0]);
        assert!(!non_concave.is_concave(1e-9));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_non_monotone_breakpoints() {
        PwlFunction::new(vec![0.0, 0.0, 1.0], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn try_new_reports_empty_curves_instead_of_panicking() {
        // Regression: an empty curve used to surface as an
        // `xs.last().unwrap()` panic inside eval/domain; the checked
        // constructor catches it at the boundary.
        assert_eq!(PwlFunction::try_new(vec![], vec![]), Err(PwlError::Empty));
        assert_eq!(
            PwlFunction::try_new(vec![1.0], vec![2.0]),
            Err(PwlError::Empty)
        );
        assert_eq!(
            PwlFunction::try_new(vec![0.0, 1.0], vec![0.0]),
            Err(PwlError::LengthMismatch)
        );
        assert_eq!(
            PwlFunction::try_new(vec![1.0, 1.0], vec![0.0, 0.0]),
            Err(PwlError::NotAscending)
        );
        let f = PwlFunction::try_new(vec![0.0, 1.0], vec![0.0, 2.0]).unwrap();
        assert_eq!(f.eval(0.5), 1.0);
    }

    #[test]
    fn try_from_samples_rejects_degenerate_requests() {
        assert_eq!(
            PwlFunction::try_from_samples(0.0, 0.0, 4, |x| x).err(),
            Some(PwlError::Empty)
        );
        assert_eq!(
            PwlFunction::try_from_samples(2.0, 1.0, 4, |x| x).err(),
            Some(PwlError::Empty)
        );
        assert_eq!(
            PwlFunction::try_from_samples(0.0, 1.0, 0, |x| x).err(),
            Some(PwlError::Empty)
        );
        assert!(PwlFunction::try_from_samples(0.0, 1.0, 4, |x| x).is_ok());
        assert!(PwlError::Empty.to_string().contains("two breakpoints"));
    }

    #[test]
    fn concave_envelope_of_concave_function_is_itself() {
        let f = PwlFunction::try_from_samples(0.0, 4.0, 10, |x| 1.0 - (-x).exp())
            .expect("valid sampling request");
        let env = f.concave_envelope();
        for (&a, &b) in f.ys().iter().zip(env.ys()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn concave_envelope_dominates_and_is_concave() {
        let f = PwlFunction::new(vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![0.0, 0.1, 0.9, 0.5, 1.0]);
        let env = f.concave_envelope();
        assert!(env.is_concave(1e-9));
        for (&orig, &e) in f.ys().iter().zip(env.ys()) {
            assert!(e >= orig - 1e-12, "envelope must dominate the function");
        }
        // Endpoints are preserved.
        assert_eq!(env.eval(0.0), 0.0);
        assert_eq!(env.eval(4.0), 1.0);
    }

    /// The merge walk must find the bisection's segment, so every result
    /// is bit-identical to [`eval`] — for ascending points (every caller),
    /// for shuffled ones, and for points on breakpoints or outside the
    /// domain.
    #[test]
    fn eval_many_is_bit_identical_to_eval() {
        let mut state = 0x5EEDu64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        };
        for case in 0..200 {
            let n = 2 + case % 11;
            let mut xs = vec![uniform() - 0.5];
            for _ in 1..n {
                let step = if uniform() < 0.2 { 1e-9 } else { uniform() };
                xs.push(xs[xs.len() - 1] + step);
            }
            let ys: Vec<f64> = (0..n).map(|_| uniform() * 4.0 - 2.0).collect();
            let (lo, hi) = (xs[0] - 0.5, xs[n - 1] + 0.5);
            let mut at: Vec<f64> = (0..3 * n)
                .map(|_| lo + (hi - lo) * uniform())
                .chain(xs.iter().copied())
                .collect();
            if case % 2 == 0 {
                at.sort_by(f64::total_cmp);
            }
            let mut out = vec![0.0; at.len()];
            eval_many(&xs, &ys, &at, &mut out);
            for (&x, &y) in at.iter().zip(&out) {
                assert_eq!(
                    y.to_bits(),
                    eval(&xs, &ys, x).to_bits(),
                    "case {case} at {x}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn eval_stays_within_breakpoint_range(x in -10.0..10.0f64) {
            let f = PwlFunction::new(vec![0.0, 1.0, 2.0, 5.0], vec![0.1, 0.9, 0.4, 0.6]);
            let y = f.eval(x);
            prop_assert!((0.1 - 1e-12..=0.9 + 1e-12).contains(&y));
        }

        #[test]
        fn sampled_approximation_is_close_for_smooth_functions(x in 0.0..4.0f64) {
            let f = PwlFunction::try_from_samples(0.0, 4.0, 40, |x| 1.0 - (-1.3 * x).exp()).expect("valid sampling request");
            let truth = 1.0 - (-1.3f64 * x).exp();
            prop_assert!((f.eval(x) - truth).abs() < 0.01);
        }

        #[test]
        fn interpolation_is_monotone_for_monotone_breakpoints(a in 0.0..5.0f64, b in 0.0..5.0f64) {
            let f = PwlFunction::try_from_samples(0.0, 5.0, 10, |x| x / (1.0 + x)).expect("valid sampling request");
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(f.eval(lo) <= f.eval(hi) + 1e-12);
        }
    }
}
