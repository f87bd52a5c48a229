//! The Green Security Game planning problem.
//!
//! Sec. VI-A: the protected area is a graph of 1×1 km cells; the defender
//! (rangers) picks patrol routes starting and ending at a patrol post, and
//! each of the N adversaries (one per cell) decides whether to place snares.
//! The defender's expected utility is the probability of detecting an attack
//! summed over cells, where both the attack probability and the detection
//! probability are captured by the learned response function g_v(c_v)
//! (probability of a *detected* attack as a function of patrol effort) and —
//! in the enhanced model — its uncertainty ν_v(c_v).
//!
//! A [`PlanningProblem`] gathers everything the planner needs for one patrol
//! post: the candidate cells with their response functions, travel times
//! from the post, the patrol length T, the number of patrols K, and the
//! robustness parameter β. It is flat — per-cell columns, one table of
//! response curves, CSR adjacency — and built in one pass over the
//! response rows, with no per-cell allocation.

use crate::pwl::{self, PwlFunction};
use crate::robust::VarianceSquash;
use paws_data::matrix::Matrix;
use paws_geo::{CellId, Park};

/// Why a [`PlanningProblem`] could not be built from its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemError {
    /// The patrol post is not an in-park cell (or, for synthetic curves,
    /// not one of the candidate cells).
    PostOutsidePark,
    /// Fewer than two effort levels.
    TooFewLevels,
    /// The effort grid is not strictly ascending (or holds a NaN).
    GridNotAscending,
    /// A response surface does not have one row per cell and one column
    /// per effort level.
    SurfaceShape,
    /// The patrol length is not positive and finite, no patrols are
    /// planned, or a travel distance is negative or non-finite.
    BadBudget,
    /// β lies outside [0, 1].
    BadBeta,
}

impl ProblemError {
    /// The violated precondition, as a static message.
    pub fn message(self) -> &'static str {
        match self {
            ProblemError::PostOutsidePark => "patrol post must be inside the park",
            ProblemError::TooFewLevels => "planning needs at least two effort levels",
            ProblemError::GridNotAscending => "the effort grid must be strictly ascending",
            ProblemError::SurfaceShape => {
                "response surfaces must cover every cell at every effort level"
            }
            ProblemError::BadBudget => "patrol budget must be positive and finite",
            ProblemError::BadBeta => "beta must lie in [0, 1]",
        }
    }
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ProblemError {}

/// A patrol-planning problem for one patrol post, stored column-wise: one
/// entry per candidate cell in each per-cell column, the response curves
/// as one `cells × levels` table, and the adjacency in CSR form.
///
/// Candidate `i`'s curves are sampled at `levels` evenly spaced
/// breakpoints on its feasible-effort domain `[0, max_effort(i)]` (see
/// [`PlanningProblem::breakpoint`]), so the breakpoints are a function of
/// the patrol shape and the cell's travel distance and are not stored.
#[derive(Debug, Clone)]
pub struct PlanningProblem {
    /// Robustness weight β ∈ [0, 1] on the uncertainty penalty.
    pub beta: f64,
    /// The patrol post all routes start and end at.
    post: CellId,
    /// Index of the post among the candidate cells.
    post_index: usize,
    /// Length of a single patrol, T, in km (= time steps).
    patrol_length_km: f64,
    /// Number of patrols K conducted during the planning period.
    n_patrols: usize,
    /// Candidate cells (those reachable within the patrol length).
    cells: Vec<CellId>,
    /// In-park index (into `Park::cells`) of each candidate.
    park_index: Vec<usize>,
    /// Shortest-path travel distance from the post to each candidate, km.
    travel_km: Vec<f64>,
    /// Breakpoints per response curve.
    levels: usize,
    /// Detected-attack probability g_v at each breakpoint, `levels` per
    /// cell, row-major.
    g: Vec<f64>,
    /// Squashed prediction uncertainty ν_v ∈ [0, 1] at each breakpoint.
    nu: Vec<f64>,
    /// CSR adjacency: the in-park neighbours of candidate `i` that are
    /// themselves candidates are `neighbour_ids[neighbour_offsets[i]..
    /// neighbour_offsets[i + 1]]`.
    neighbour_offsets: Vec<usize>,
    neighbour_ids: Vec<u32>,
}

/// The checks every builder shares: at least two strictly ascending effort
/// levels, a positive finite patrol budget and β ∈ [0, 1].
fn validate_shape(
    effort_grid: &[f64],
    patrol_length_km: f64,
    n_patrols: usize,
    beta: f64,
) -> Result<(), ProblemError> {
    if effort_grid.len() < 2 {
        return Err(ProblemError::TooFewLevels);
    }
    if !effort_grid.windows(2).all(|w| w[1] > w[0]) {
        return Err(ProblemError::GridNotAscending);
    }
    if !(patrol_length_km.is_finite() && patrol_length_km > 0.0) || n_patrols == 0 {
        return Err(ProblemError::BadBudget);
    }
    if !beta.is_finite() || !(0.0..=1.0).contains(&beta) {
        return Err(ProblemError::BadBeta);
    }
    Ok(())
}

impl PlanningProblem {
    /// Build a planning problem from a park's response surfaces in one row
    /// pass.
    ///
    /// * `park` — the park geometry.
    /// * `post` — the patrol post cell.
    /// * `effort_grid` — the strictly ascending effort levels at which
    ///   `probs`/`vars` were sampled (starting at 0).
    /// * `probs`, `vars` — flat response matrices with one row per in-park
    ///   cell and one column per effort level (as produced by
    ///   `IWareModel::effort_response`); `vars` holds the *raw* predictive
    ///   variances, squashed here to ν ∈ [0, 1] with a
    ///   [`VarianceSquash`] fitted on the whole surface.
    ///
    /// The candidates are the cells reachable and back within one patrol;
    /// each one's g and ν are resampled onto its own feasible-effort domain
    /// at `effort_grid.len()` evenly spaced breakpoints.
    ///
    /// # Errors
    /// The [`ProblemError`] naming the first violated precondition.
    #[allow(clippy::too_many_arguments)]
    pub fn try_from_response(
        park: &Park,
        post: CellId,
        effort_grid: &[f64],
        probs: &Matrix,
        vars: &Matrix,
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Result<Self, ProblemError> {
        if park.cell_position(post).is_none() {
            return Err(ProblemError::PostOutsidePark);
        }
        validate_shape(effort_grid, patrol_length_km, n_patrols, beta)?;
        let levels = effort_grid.len();
        for m in [probs, vars] {
            if m.n_rows() != park.n_cells() || m.n_cols() != levels {
                return Err(ProblemError::SurfaceShape);
            }
        }
        let squash = VarianceSquash::fit(vars.as_slice());

        // Travel distance from the post to every in-park cell (km, octile).
        let travel = park_travel_distances(park, post);
        // Candidate cells: reachable and back within a single patrol.
        let reach_limit = patrol_length_km / 2.0;
        let n = travel.iter().filter(|&&t| t <= reach_limit).count();
        let mut problem = Self::with_capacity(post, n, levels, patrol_length_km, n_patrols, beta);
        // Candidate position of each in-park cell (`u32::MAX` = none).
        let mut candidate_of = vec![u32::MAX; park.n_cells()];
        let mut nu_row = vec![0.0; levels];
        let mut xs = vec![0.0; levels];
        for (pi, &cell) in park.cells.iter().enumerate() {
            let t = travel[pi];
            if t > reach_limit {
                continue;
            }
            candidate_of[pi] = problem.cells.len() as u32;
            if cell == post {
                problem.post_index = problem.cells.len();
            }
            for (v, &raw) in nu_row.iter_mut().zip(vars.row(pi)) {
                *v = squash.apply(raw);
            }
            problem.push_candidate(cell, pi, t, (effort_grid, probs.row(pi), &nu_row), &mut xs);
        }

        // Adjacency: in-park neighbours that are themselves candidates.
        problem.neighbour_ids.reserve(8 * n);
        for &pi in &problem.park_index {
            problem.neighbour_ids.extend(
                park.neighbour_positions(park.cells[pi])
                    .map(|(ni, _)| candidate_of[ni])
                    .filter(|&j| j != u32::MAX),
            );
            problem.neighbour_offsets.push(problem.neighbour_ids.len());
        }
        Ok(problem)
    }

    /// Build a problem directly from per-cell curves on one shared effort
    /// grid — synthetic workloads and tests. Every listed cell is a
    /// candidate at `travel_km` from the post (`cells[post_index]`); row
    /// `i` of `g`/`nu` is cell `i`'s detection and (already squashed)
    /// uncertainty curve over `grid`, resampled onto the cell's
    /// feasible-effort domain exactly as [`PlanningProblem::try_from_response`]
    /// does. No cell has neighbours: such problems feed the allocation
    /// planner, not routes or the flow model.
    ///
    /// # Errors
    /// The [`ProblemError`] naming the first violated precondition.
    #[allow(clippy::too_many_arguments)]
    pub fn try_from_curves(
        cells: &[CellId],
        post_index: usize,
        travel_km: f64,
        grid: &[f64],
        g: &Matrix,
        nu: &Matrix,
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Result<Self, ProblemError> {
        let post = *cells.get(post_index).ok_or(ProblemError::PostOutsidePark)?;
        validate_shape(grid, patrol_length_km, n_patrols, beta)?;
        if !(travel_km.is_finite() && travel_km >= 0.0) {
            return Err(ProblemError::BadBudget);
        }
        let n = cells.len();
        for m in [g, nu] {
            if m.n_rows() != n || m.n_cols() != grid.len() {
                return Err(ProblemError::SurfaceShape);
            }
        }
        let mut problem =
            Self::with_capacity(post, n, grid.len(), patrol_length_km, n_patrols, beta);
        problem.post_index = post_index;
        let mut xs = vec![0.0; grid.len()];
        for (i, &cell) in cells.iter().enumerate() {
            problem.push_candidate(cell, i, travel_km, (grid, g.row(i), nu.row(i)), &mut xs);
        }
        problem.neighbour_offsets.resize(n + 1, 0);
        Ok(problem)
    }

    /// An empty problem with every column sized for `n` candidates.
    fn with_capacity(
        post: CellId,
        n: usize,
        levels: usize,
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Self {
        let mut neighbour_offsets = Vec::with_capacity(n + 1);
        neighbour_offsets.push(0);
        Self {
            beta,
            post,
            post_index: 0,
            patrol_length_km,
            n_patrols,
            cells: Vec::with_capacity(n),
            park_index: Vec::with_capacity(n),
            travel_km: Vec::with_capacity(n),
            levels,
            g: Vec::with_capacity(n * levels),
            nu: Vec::with_capacity(n * levels),
            neighbour_offsets,
            neighbour_ids: Vec::new(),
        }
    }

    /// Append one candidate, resampling its curves (g and ν sampled over
    /// `grid`) by interpolation at its own breakpoints; `xs` is scratch of
    /// `levels` entries.
    fn push_candidate(
        &mut self,
        cell: CellId,
        park_index: usize,
        travel_km: f64,
        (grid, g, nu): (&[f64], &[f64], &[f64]),
        xs: &mut [f64],
    ) {
        self.cells.push(cell);
        self.park_index.push(park_index);
        self.travel_km.push(travel_km);
        self.fill_breakpoints(self.cells.len() - 1, xs);
        let row = self.g.len();
        self.g.resize(row + self.levels, 0.0);
        self.nu.resize(row + self.levels, 0.0);
        pwl::eval_many(grid, g, xs, &mut self.g[row..]);
        pwl::eval_many(grid, nu, xs, &mut self.nu[row..]);
    }

    /// Total effort budget T × K in km (Sec. VI-B, last constraint of P).
    pub fn budget_km(&self) -> f64 {
        self.patrol_length_km * self.n_patrols as f64
    }

    /// The patrol post all routes start and end at.
    pub fn post(&self) -> CellId {
        self.post
    }

    /// Index of the post among the candidate cells.
    pub fn post_index(&self) -> usize {
        self.post_index
    }

    /// Length of a single patrol, T, in km (= time steps).
    pub fn patrol_length_km(&self) -> f64 {
        self.patrol_length_km
    }

    /// Number of patrols K conducted during the planning period.
    pub fn n_patrols(&self) -> usize {
        self.n_patrols
    }

    /// Number of discrete steps in one patrol (see [`steps_for`]).
    pub fn patrol_steps(&self) -> usize {
        steps_for(self.patrol_length_km)
    }

    /// Number of candidate cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// The candidate cells, in candidate order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// In-park index (into `Park::cells`) of each candidate cell.
    pub fn park_indices(&self) -> &[usize] {
        &self.park_index
    }

    /// Shortest-path travel distance (km) from the post to candidate `i`.
    pub fn travel_km(&self, i: usize) -> f64 {
        self.travel_km[i]
    }

    /// Breakpoints per response curve.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Breakpoint `k` (effort, km) of candidate `i`'s response curves:
    /// `levels` evenly spaced points on `[0, max(max_effort(i), 10⁻³)]`.
    pub fn breakpoint(&self, i: usize, k: usize) -> f64 {
        self.max_effort(i).max(1e-3) * k as f64 / (self.levels - 1) as f64
    }

    /// Write candidate `i`'s `levels` breakpoints into `out`.
    pub(crate) fn fill_breakpoints(&self, i: usize, out: &mut [f64]) {
        let hi = self.max_effort(i).max(1e-3);
        let steps = (self.levels - 1) as f64;
        for (k, x) in out.iter_mut().enumerate() {
            *x = hi * k as f64 / steps;
        }
    }

    /// Detected-attack probability g_v at each of candidate `i`'s
    /// breakpoints.
    pub fn g(&self, i: usize) -> &[f64] {
        &self.g[i * self.levels..(i + 1) * self.levels]
    }

    /// Squashed uncertainty ν_v ∈ [0, 1] at each of candidate `i`'s
    /// breakpoints.
    pub fn nu(&self, i: usize) -> &[f64] {
        &self.nu[i * self.levels..(i + 1) * self.levels]
    }

    /// Candidates adjacent to candidate `i` (in-park 8-neighbours that are
    /// themselves candidates), as candidate indices.
    pub fn neighbours(&self, i: usize) -> &[u32] {
        &self.neighbour_ids[self.neighbour_offsets[i]..self.neighbour_offsets[i + 1]]
    }

    /// Maximum effort that can feasibly be spent in candidate cell `i`,
    /// accounting for the round trip from the post within each patrol.
    pub fn max_effort(&self, i: usize) -> f64 {
        effective_max_effort(self.patrol_length_km, self.n_patrols, self.travel_km[i])
    }

    /// Write candidate `i`'s robust utility U_v = g_v − β·g_v·ν_v (Eq. 4)
    /// at its breakpoints into `out`.
    pub(crate) fn write_utility(&self, i: usize, beta: f64, out: &mut [f64]) {
        for ((u, &g), &nu) in out.iter_mut().zip(self.g(i)).zip(self.nu(i)) {
            *u = g - beta * g * nu;
        }
    }

    /// The robust per-cell utility U_v(c) = g_v(c) − β·g_v(c)·ν_v(c)
    /// (Eq. 4), as a PWL function over the same breakpoints as g_v.
    pub fn utility(&self, i: usize, beta: f64) -> PwlFunction {
        let mut xs = vec![0.0; self.levels];
        let mut ys = vec![0.0; self.levels];
        self.fill_breakpoints(i, &mut xs);
        self.write_utility(i, beta, &mut ys);
        // ≥ 2 strictly ascending breakpoints on a positive domain.
        PwlFunction::new(xs, ys)
    }

    /// Evaluate Σ_v U_v(c_v) for a coverage vector under a given β.
    pub fn coverage_utility(&self, coverage: &[f64], beta: f64) -> f64 {
        assert_eq!(coverage.len(), self.n_cells(), "coverage length mismatch");
        let mut xs = vec![0.0; self.levels];
        coverage
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                self.fill_breakpoints(i, &mut xs);
                let g = pwl::eval(&xs, self.g(i), c);
                let nu = pwl::eval(&xs, self.nu(i), c);
                g - beta * g * nu
            })
            .sum()
    }
}

/// The number of discrete patrol steps implied by a patrol length in km
/// (one step ≈ one km, nearest-integer, never zero).
///
/// Route extraction and the time-unrolled flow MILP used to duplicate this
/// conversion — and a third site truncated with `as usize` instead of
/// rounding, so a 8.5 km patrol was 9 steps in one layer and 8 in another.
/// Every step-budget consumer now goes through this single helper.
pub fn steps_for(patrol_length_km: f64) -> usize {
    patrol_length_km.round().max(1.0) as usize
}

/// Min-heap entry for [`park_travel_distances`]: ordered by distance with
/// [`f64::total_cmp`], so a NaN distance has a consistent (greatest) rank
/// instead of silently comparing `Equal` to everything — which would let
/// it float around the heap and corrupt the pop order.
#[derive(PartialEq)]
struct MinDistEntry(f64, usize);
impl Eq for MinDistEntry {}
impl Ord for MinDistEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest distance.
        other.0.total_cmp(&self.0)
    }
}
impl PartialOrd for MinDistEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest octile travel distance (km) from `post` to every in-park cell;
/// every distance is infinite when `post` is not an in-park cell.
pub fn park_travel_distances(park: &Park, post: CellId) -> Vec<f64> {
    use std::collections::BinaryHeap;

    let mut dist = vec![f64::INFINITY; park.n_cells()];
    let Some(start) = park.cell_position(post) else {
        return dist;
    };
    dist[start] = 0.0;
    // A grid Dijkstra's frontier stays far below the cell count, so the
    // heap never reallocates.
    let mut heap = BinaryHeap::with_capacity(park.n_cells());
    heap.push(MinDistEntry(0.0, start));
    while let Some(MinDistEntry(d, i)) = heap.pop() {
        if d > dist[i] {
            continue;
        }
        for (ni, step) in park.neighbour_positions(park.cells[i]) {
            let nd = d + step;
            // A degenerate grid (NaN/infinite step weight) must not enter
            // the frontier: a non-finite key would outrank real paths under
            // any ordering and poison every distance downstream of it.
            debug_assert!(step.is_finite(), "non-finite neighbour step weight");
            if !nd.is_finite() {
                continue;
            }
            if nd < dist[ni] {
                dist[ni] = nd;
                heap.push(MinDistEntry(nd, ni));
            }
        }
    }
    dist
}

fn effective_max_effort(patrol_length_km: f64, n_patrols: usize, travel_km: f64) -> f64 {
    let per_patrol = (patrol_length_km - 2.0 * travel_km).max(0.0);
    // Even an on-post cell cannot absorb more than the per-patrol length.
    (per_patrol * n_patrols as f64).max(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_geo::parks::test_park_spec;

    fn toy_problem() -> (Park, PlanningProblem) {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid: Vec<f64> = vec![0.0, 1.0, 2.0, 4.0];
        // Saturating detection response, uncertainty rising with effort.
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let scale = 0.2 + 0.6 * (i % 7) as f64 / 7.0;
                grid.iter()
                    .map(|&e| scale * (1.0 - (-0.8 * e).exp()))
                    .collect()
            })
            .collect();
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                grid.iter()
                    .map(|&e| 0.1 + 0.05 * e + 0.002 * (i % 13) as f64)
                    .collect()
            })
            .collect();
        let problem = PlanningProblem::try_from_response(
            &park,
            post,
            &grid,
            &Matrix::from_rows(&probs),
            &Matrix::from_rows(&vars),
            10.0,
            3,
            1.0,
        )
        .unwrap();
        (park, problem)
    }

    #[test]
    fn candidate_cells_are_reachable_and_include_post() {
        let (park, p) = toy_problem();
        assert!(p.n_cells() > 1);
        assert!(p.n_cells() <= park.n_cells());
        assert_eq!(p.cells()[p.post_index()], p.post());
        for i in 0..p.n_cells() {
            assert!(p.travel_km(i) <= p.patrol_length_km() / 2.0 + 1e-9);
            assert_eq!(park.cells[p.park_indices()[i]], p.cells()[i]);
        }
    }

    #[test]
    fn neighbours_are_valid_indices() {
        let (_, p) = toy_problem();
        for i in 0..p.n_cells() {
            for &n in p.neighbours(i) {
                assert!((n as usize) < p.n_cells());
                assert_ne!(n as usize, i);
            }
        }
    }

    #[test]
    fn budget_and_max_effort_are_consistent() {
        let (_, p) = toy_problem();
        assert_eq!(p.budget_km(), 30.0);
        for i in 0..p.n_cells() {
            assert!(p.max_effort(i) > 0.0);
            assert!(p.max_effort(i) <= p.budget_km() + 1e-9);
        }
        // The post cell can absorb the most effort.
        let post_max = p.max_effort(p.post_index());
        assert!((0..p.n_cells()).all(|i| p.max_effort(i) <= post_max + 1e-9));
    }

    #[test]
    fn utility_penalises_uncertainty() {
        let (_, p) = toy_problem();
        let i = p.post_index();
        let u0 = p.utility(i, 0.0);
        let u1 = p.utility(i, 1.0);
        let c = p.max_effort(i) / 2.0;
        assert!(u1.eval(c) <= u0.eval(c) + 1e-12);
        // With β = 0 the utility is exactly g.
        let g = PwlFunction::new(u0.xs().to_vec(), p.g(i).to_vec());
        assert!((u0.eval(c) - g.eval(c)).abs() < 1e-12);
    }

    #[test]
    fn coverage_utility_matches_manual_sum() {
        let (_, p) = toy_problem();
        let coverage: Vec<f64> = (0..p.n_cells()).map(|i| (i % 3) as f64 * 0.5).collect();
        let total = p.coverage_utility(&coverage, 0.7);
        let manual: f64 = (0..p.n_cells())
            .map(|i| {
                let xs: Vec<f64> = (0..p.levels()).map(|k| p.breakpoint(i, k)).collect();
                let g = pwl::eval(&xs, p.g(i), coverage[i]);
                let nu = pwl::eval(&xs, p.nu(i), coverage[i]);
                g - 0.7 * g * nu
            })
            .sum();
        assert!((total - manual).abs() < 1e-9);
    }

    #[test]
    fn travel_distances_are_zero_at_post_and_metric() {
        let (park, p) = toy_problem();
        let d = park_travel_distances(&park, p.post());
        assert_eq!(d[park.cell_position(p.post()).unwrap()], 0.0);
        for (i, &cell) in park.cells.iter().enumerate() {
            if d[i].is_finite() {
                // Octile path distance is at least the Euclidean distance.
                assert!(d[i] + 1e-9 >= park.grid.distance_km(p.post(), cell) - 1e-9);
            }
        }
    }

    #[test]
    fn steps_for_rounds_at_half_km_boundaries() {
        // The single step-budget helper: nearest-integer with ties away
        // from zero, clamped to at least one step. Pinning the x.5 cases
        // guards against a regression to the truncating `as usize` math
        // that used to live in the route-length test.
        assert_eq!(steps_for(8.5), 9);
        assert_eq!(steps_for(7.5), 8);
        assert_eq!(steps_for(8.49), 8);
        assert_eq!(steps_for(0.5), 1);
        assert_eq!(steps_for(0.2), 1);
        // And the truncating math it replaces would have said 8 here:
        assert_ne!(steps_for(8.5), 8.5f64 as usize);
    }

    #[test]
    fn patrol_steps_uses_the_shared_helper() {
        let (_, p) = toy_problem();
        assert_eq!(p.patrol_steps(), steps_for(p.patrol_length_km()));
    }

    #[test]
    fn heap_entries_rank_nan_last_not_equal() {
        // Regression: the Dijkstra heap used `partial_cmp(..).unwrap_or(Equal)`,
        // so a NaN key compared Equal to *everything* and could surface
        // ahead of genuinely shorter paths. Under total_cmp a NaN key has a
        // consistent, worst possible rank.
        use std::collections::BinaryHeap;
        let mut heap = BinaryHeap::new();
        for (d, i) in [(2.0, 0), (f64::NAN, 1), (0.5, 2), (1.0, 3)] {
            heap.push(MinDistEntry(d, i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|e| e.1)).collect();
        assert_eq!(order, vec![2, 3, 0, 1], "NaN pops last, finite ascending");
        // And the ordering is total: NaN vs NaN is consistent, not Equal to
        // finite keys.
        assert_eq!(
            MinDistEntry(f64::NAN, 0).cmp(&MinDistEntry(1.0, 1)),
            std::cmp::Ordering::Less,
            "reversed min-heap order ranks NaN below (popped after) finite"
        );
    }

    /// The one-pass build must reproduce, bit for bit, the per-cell
    /// construction it replaced: squash the raw variances, wrap each
    /// response row in a [`PwlFunction`] over the effort grid and resample
    /// it at evenly spaced breakpoints on `[0, max_effort]`.
    #[test]
    fn one_pass_build_matches_the_per_cell_construction() {
        let park = Park::generate(&test_park_spec(), 7);
        let grid = [0.0, 1.0, 2.0, 4.0];
        let (probs, vars) = toy_surfaces(&park, &grid);
        let p = PlanningProblem::try_from_response(
            &park,
            park.patrol_posts[0],
            &grid,
            &probs,
            &vars,
            10.0,
            3,
            1.0,
        )
        .unwrap();
        assert!(p.n_cells() > 1);
        let squash = VarianceSquash::fit(vars.as_slice());
        let mut squashed = vars.clone();
        squashed
            .as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = squash.apply(*v));
        for i in 0..p.n_cells() {
            let pi = p.park_indices()[i];
            let hi = p.max_effort(i).max(1e-3);
            for (surface, got) in [(&probs, p.g(i)), (&squashed, p.nu(i))] {
                let base = PwlFunction::new(grid.to_vec(), surface.row(pi).to_vec());
                let want = PwlFunction::try_from_samples(0.0, hi, grid.len() - 1, |x| base.eval(x))
                    .unwrap();
                let xs: Vec<f64> = (0..p.levels()).map(|k| p.breakpoint(i, k)).collect();
                assert_eq!(xs, want.xs());
                assert_eq!(got, want.ys(), "cell {i}");
            }
        }
        // Neighbours: the candidate sub-graph of the park's 8-neighbourhood.
        for i in 0..p.n_cells() {
            let want: Vec<u32> = park
                .park_neighbours(p.cells()[i])
                .into_iter()
                .filter_map(|(n, _)| p.cells().iter().position(|&c| c == n))
                .map(|j| j as u32)
                .collect();
            assert_eq!(p.neighbours(i), want.as_slice());
        }
    }

    fn toy_surfaces(park: &Park, grid: &[f64]) -> (Matrix, Matrix) {
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                grid.iter()
                    .map(|&e| 0.1 * e + 0.01 * (i % 5) as f64)
                    .collect()
            })
            .collect();
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                grid.iter()
                    .map(|&e| 0.1 + 0.05 * e + 0.002 * (i % 13) as f64)
                    .collect()
            })
            .collect();
        (Matrix::from_rows(&probs), Matrix::from_rows(&vars))
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid = [0.0, 1.0, 2.0];
        let (probs, vars) = toy_surfaces(&park, &grid);
        let build = |post: CellId, grid: &[f64], probs: &Matrix, t: f64, k: usize, beta: f64| {
            PlanningProblem::try_from_response(&park, post, grid, probs, &vars, t, k, beta).err()
        };
        assert_eq!(build(post, &grid, &probs, 8.0, 2, 0.5), None);
        assert_eq!(
            build(post, &grid, &probs, 8.0, 2, 1.5),
            Some(ProblemError::BadBeta)
        );
        assert_eq!(
            build(post, &grid, &probs, f64::INFINITY, 2, 0.5),
            Some(ProblemError::BadBudget)
        );
        assert_eq!(
            build(post, &grid, &probs, 8.0, 0, 0.5),
            Some(ProblemError::BadBudget)
        );
        // Unsorted, duplicate and NaN effort levels used to panic while
        // resampling the response rows.
        for bad in [[0.0, 2.0, 1.0], [1.0, 1.0, 2.0], [0.0, f64::NAN, 2.0]] {
            assert_eq!(
                build(post, &bad, &probs, 8.0, 2, 0.5),
                Some(ProblemError::GridNotAscending)
            );
        }
        assert_eq!(
            build(post, &grid[..1], &probs, 8.0, 2, 0.5),
            Some(ProblemError::TooFewLevels)
        );
        assert_eq!(
            build(post, &[0.0, 1.0], &probs, 8.0, 2, 0.5),
            Some(ProblemError::SurfaceShape)
        );
        let outside = park
            .grid
            .cells()
            .find(|&c| !park.contains(c))
            .expect("a circular park leaves corners outside");
        for post in [outside, CellId(u32::MAX)] {
            assert_eq!(
                build(post, &grid, &probs, 8.0, 2, 0.5),
                Some(ProblemError::PostOutsidePark)
            );
        }
        assert!(park_travel_distances(&park, CellId(u32::MAX))
            .iter()
            .all(|d| d.is_infinite()));
        assert!(ProblemError::GridNotAscending
            .to_string()
            .contains("strictly ascending"));
    }

    #[test]
    fn curves_builder_resamples_the_curves_and_checks_its_inputs() {
        // T = 4, K = 2 and 1.5 km of travel leave 2 km of effort per cell:
        // the resampled breakpoints {0, 1, 2} land on grid points.
        let grid = [0.0, 1.0, 2.0, 4.0];
        let g = Matrix::from_rows(&[vec![0.0, 0.5, 0.7, 0.8], vec![0.0, 0.2, 0.9, 1.0]]);
        let nu = Matrix::from_rows(&[vec![0.1, 0.2, 0.3, 0.3], vec![0.4, 0.4, 0.4, 0.5]]);
        let cells = [CellId(3), CellId(8)];
        let p =
            PlanningProblem::try_from_curves(&cells, 1, 1.5, &grid, &g, &nu, 4.0, 2, 0.5).unwrap();
        assert_eq!((p.n_cells(), p.post(), p.post_index()), (2, CellId(8), 1));
        assert_eq!(p.max_effort(1), 2.0);
        let xs: Vec<f64> = (0..p.levels()).map(|k| p.breakpoint(1, k)).collect();
        assert_eq!(xs, [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0]);
        assert_eq!(p.g(1)[0], 0.0);
        assert_eq!(p.g(1)[3], 0.9);
        assert_eq!(p.nu(0)[3], 0.3);
        assert_eq!(p.travel_km(0), 1.5);
        assert_eq!(p.park_indices(), &[0, 1]);
        assert!(p.neighbours(0).is_empty() && p.neighbours(1).is_empty());
        assert_eq!(p.utility(1, 0.5).ys()[3], 0.9 - 0.5 * 0.9 * 0.4);

        let build = |post: usize, grid: &[f64], travel: f64| {
            PlanningProblem::try_from_curves(&cells, post, travel, grid, &g, &nu, 4.0, 2, 0.5).err()
        };
        assert_eq!(build(2, &grid, 0.0), Some(ProblemError::PostOutsidePark));
        assert_eq!(
            build(0, &[0.0, 3.0, 1.0, 4.0], 0.0),
            Some(ProblemError::GridNotAscending)
        );
        assert_eq!(build(0, &[0.0, 1.0], 0.0), Some(ProblemError::SurfaceShape));
        assert_eq!(build(0, &grid, f64::NAN), Some(ProblemError::BadBudget));
    }
}
