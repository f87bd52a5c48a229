//! The patrol-planning optimiser (problem P of Sec. VI-B/C).
//!
//! Every plan maximises Σ_v U_v(c_v) under the patrol budget, with each
//! utility resampled as a piecewise-linear (PWL) function. Three paths
//! solve it:
//!
//! * **Greedy segment fill** — [`PlannerMethod::Allocation`] whenever no
//!   SOS2 binary is needed: `exact_sos2` is off (the default, so each
//!   non-concave utility is replaced by its upper concave envelope) or
//!   every utility is concave anyway. The problem is then a separable
//!   concave maximisation with one budget row Σ_v c_v ≤ T·K and per-cell
//!   caps (each PWL's domain ends at the cell's reachable effort), i.e. a
//!   fractional knapsack over PWL segments: filling segments in descending
//!   slope order until the km budget runs out is optimal, exactly as the
//!   λ-LP would find, with no solver. Only the budget-covering prefix of
//!   that order is selected and sorted.
//! * **SOS2 MILP** — [`PlannerMethod::Allocation`] with `exact_sos2` on and
//!   at least one non-concave utility: one λ / SOS2 block per candidate
//!   cell (binaries only for the non-concave cells), the budget row, and
//!   branch-and-bound.
//! * **Flow** — [`PlannerMethod::Flow`], the full time-unrolled flow
//!   formulation of Eq. (2): aggregate patrol flow over nodes (cell, t)
//!   with conservation, source/sink at the patrol post, coverage defined as
//!   flow through a cell and the same PWL blocks. Exact but much larger;
//!   intended for small regions and for validating the allocation
//!   formulation.

use crate::game::PlanningProblem;
use crate::pwl::{self, Hull, PwlError, PwlFunction};
use paws_solver::{
    solve_milp, ConstraintOp, MilpOptions, Model, Sense, SolveStatus, SolverError, Variable,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Slope tolerance under which a sampled utility counts as concave (and so
/// needs neither an envelope nor SOS2 binaries).
const CONCAVE_TOL: f64 = 1e-9;

/// Why patrol planning failed: either the utility curves could not be
/// piecewise-linearised, or the optimiser terminated without a usable
/// point. A budget-exhausted solve is *not* an error — the planner falls
/// back to a greedy feasible incumbent tagged [`SolveStatus::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Building a piecewise-linear utility failed (degenerate cell domain,
    /// non-finite samples, zero segments).
    Pwl(PwlError),
    /// The optimiser produced no usable point (infeasible or unbounded
    /// model — both indicate a malformed problem rather than time pressure)
    /// or rejected the model input (a non-finite utility).
    Solver(SolverError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Pwl(e) => write!(f, "piecewise-linear utility construction failed: {e}"),
            PlanError::Solver(e) => write!(f, "patrol optimisation failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Pwl(e) => Some(e),
            PlanError::Solver(e) => Some(e),
        }
    }
}

impl From<PwlError> for PlanError {
    fn from(e: PwlError) -> Self {
        PlanError::Pwl(e)
    }
}

impl From<SolverError> for PlanError {
    fn from(e: SolverError) -> Self {
        PlanError::Solver(e)
    }
}

/// Which formulation to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerMethod {
    /// Separable effort-allocation formulation (default).
    Allocation,
    /// Time-unrolled network-flow formulation (small instances only).
    Flow,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Number of segments in each PWL approximation (the paper sweeps 5–30).
    pub segments: usize,
    /// Formulation to use.
    pub method: PlannerMethod,
    /// Branch-and-bound options (used by the SOS2 MILP and flow paths; the
    /// greedy fill needs no solver and ignores them).
    pub milp: MilpOptions,
    /// Encode non-concave utilities exactly with SOS2 binaries. When false
    /// (the default) the planner optimises the upper concave envelope of
    /// each non-concave utility instead, which the greedy segment fill
    /// solves exactly. Set to true for exact solutions on small instances.
    pub exact_sos2: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            segments: 10,
            method: PlannerMethod::Allocation,
            milp: MilpOptions::default(),
            exact_sos2: false,
        }
    }
}

/// A computed patrol plan.
#[derive(Debug, Clone)]
pub struct PatrolPlan {
    /// Patrol effort (km) allocated to each candidate cell of the problem.
    pub coverage: Vec<f64>,
    /// Objective value Σ_v U_v(c_v) of the optimised (PWL) model: each
    /// utility's concave envelope unless `exact_sos2` kept it as sampled.
    pub objective: f64,
    /// Wall-clock solve time.
    pub solve_time: Duration,
    /// Branch-and-bound nodes explored (0 on the greedy path).
    pub nodes: usize,
    /// LP relaxations solved (0 on the greedy path).
    pub lp_solves: usize,
    /// Termination status of the solve.
    pub status: SolveStatus,
}

/// Compute a patrol plan for a planning problem. Degenerate
/// piecewise-linear utilities (e.g. an empty sampling domain from a
/// NaN-poisoned response surface), non-finite utility values and pointless
/// solves (infeasible or unbounded models) surface as a [`PlanError`]
/// instead of a panic mid-optimisation.
///
/// Anytime behaviour: the greedy path ignores `config.milp.budget` (it is
/// exact and needs no solver). On the solver paths, when the budget runs
/// out the best solver incumbent is returned tagged
/// [`SolveStatus::Degraded`]; if the budget died before *any* incumbent
/// was found, the greedy fill (feasible by construction) is returned
/// instead, also tagged `Degraded`. An unlimited budget reproduces the
/// unbudgeted plan exactly.
pub fn try_plan(
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> Result<PatrolPlan, PlanError> {
    let start = Instant::now();
    // The PWL the planner optimises: each sampled utility, or its upper
    // concave envelope unless SOS2 binaries will encode it exactly.
    let mut utilities = UtilityTable::build(problem, config.segments, !config.exact_sos2)?;
    let pure_lp = !config.exact_sos2 || utilities.all_concave;
    let mut result = match config.method {
        PlannerMethod::Allocation if pure_lp => greedy_plan(problem, &mut utilities)?,
        PlannerMethod::Allocation => solve_allocation(problem, &utilities.functions(), config)?,
        PlannerMethod::Flow => solve_flow(problem, &utilities.functions(), config)?,
    };
    match result.status {
        SolveStatus::Infeasible => return Err(SolverError::Infeasible.into()),
        SolveStatus::Unbounded => return Err(SolverError::Unbounded.into()),
        SolveStatus::BudgetExceeded => {
            // The budget died before branch-and-bound found any incumbent:
            // fall back to the greedy fill, which needs no solver at all.
            // It fills the envelopes; the exact model kept the sampled
            // utilities, so sample them again, enveloped.
            let coverage = if config.exact_sos2 {
                UtilityTable::build(problem, config.segments, true)?.fill(problem.budget_km())
            } else {
                utilities.fill(problem.budget_km())
            };
            result = PatrolPlan {
                objective: utilities.objective(&coverage),
                coverage,
                status: SolveStatus::Degraded,
                ..result
            };
        }
        _ => {}
    }
    Ok(PatrolPlan {
        solve_time: start.elapsed(),
        ..result
    })
}

/// Every candidate cell's robust utility U_v = g_v − β·g_v·ν_v (Eq. 4)
/// resampled at `segments + 1` evenly spaced breakpoints on the cell's
/// feasible-effort domain `[0, hi_v]`, as one flat `cells × (segments + 1)`
/// table of values (breakpoint `k` of cell `v` is `hi_v · k / segments`),
/// together with the greedy fill's candidate segments, collected in the
/// same pass.
#[derive(Debug)]
struct UtilityTable {
    segments: usize,
    /// Domain end per cell.
    his: Vec<f64>,
    /// Utility values, `segments + 1` per cell, row-major.
    ys: Vec<f64>,
    /// Every segment of positive, finite slope and positive width, in
    /// (cell, segment) order until [`UtilityTable::fill`] reorders them.
    candidates: Vec<Segment>,
    /// Every sampled utility is concave (before any envelope).
    all_concave: bool,
    /// Every tabulated value is finite.
    all_finite: bool,
}

/// One PWL segment of one cell's utility, a candidate of the greedy fill.
#[derive(Debug)]
struct Segment {
    slope: f64,
    cell: u32,
    index: u32,
}

/// The greedy fill's total order: slope descending, then cell, then
/// segment — exactly the order a stable sort by slope leaves the segments
/// in, since they are collected cell by cell, segment by segment.
fn fill_order(a: &Segment, b: &Segment) -> std::cmp::Ordering {
    b.slope
        .total_cmp(&a.slope)
        .then(a.cell.cmp(&b.cell))
        .then(a.index.cmp(&b.index))
}

impl UtilityTable {
    /// Sample every cell's utility in one pass, replacing each non-concave
    /// one by its upper concave envelope when `envelope` is set (a concave
    /// one is kept bit for bit). A zero segment count or a degenerate cell
    /// domain is the [`PwlError`] `PwlFunction::try_from_samples` reports
    /// for it.
    fn build(problem: &PlanningProblem, segments: usize, envelope: bool) -> Result<Self, PwlError> {
        if segments < 1 {
            return Err(PwlError::Empty);
        }
        let n = problem.n_cells();
        let stride = segments + 1;
        let mut table = Self {
            segments,
            his: Vec::with_capacity(n),
            ys: Vec::with_capacity(n * stride),
            candidates: Vec::with_capacity(n * segments),
            all_concave: true,
            all_finite: true,
        };
        // The cell's own breakpoints and utility, then the resampling grid
        // and the resampled segments' slopes.
        let mut u_xs = vec![0.0; problem.levels()];
        let mut u = vec![0.0; problem.levels()];
        let mut xs = vec![0.0; stride];
        let mut slopes = vec![0.0; segments];
        let mut hull = Hull::default();
        for i in 0..n {
            problem.fill_breakpoints(i, &mut u_xs);
            problem.write_utility(i, problem.beta, &mut u);
            let hi = problem.max_effort(i).max(1e-3);
            // `hi > 0` must hold; the negation also rejects a NaN bound.
            let interval_ok = hi > 0.0;
            if !interval_ok {
                return Err(PwlError::Empty);
            }
            table.his.push(hi);
            table.fill_xs(i, &mut xs);
            if !xs.windows(2).all(|w| w[1] > w[0]) {
                return Err(PwlError::NotAscending);
            }
            table.ys.resize((i + 1) * stride, 0.0);
            let ys = &mut table.ys[i * stride..];
            pwl::eval_many(&u_xs, &u, &xs, ys);
            pwl::slopes(&xs, ys, &mut slopes);
            if !pwl::slopes_concave(&slopes, CONCAVE_TOL) {
                table.all_concave = false;
                if envelope {
                    pwl::concave_envelope_in_place(&xs, ys, &mut hull);
                    pwl::slopes(&xs, ys, &mut slopes);
                }
            }
            table.all_finite &= ys.iter().all(|y| y.is_finite());
            for (j, &slope) in slopes.iter().enumerate() {
                if xs[j + 1] - xs[j] > 0.0 && slope.is_finite() && slope > 0.0 {
                    table.candidates.push(Segment {
                        slope,
                        cell: i as u32,
                        index: j as u32,
                    });
                }
            }
        }
        Ok(table)
    }

    fn n_cells(&self) -> usize {
        self.his.len()
    }

    /// Write cell `i`'s `segments + 1` breakpoints into `out`.
    fn fill_xs(&self, i: usize, out: &mut [f64]) {
        let hi = self.his[i];
        for (k, x) in out.iter_mut().enumerate() {
            *x = hi * k as f64 / self.segments as f64;
        }
    }

    fn ys(&self, i: usize) -> &[f64] {
        let stride = self.segments + 1;
        &self.ys[i * stride..(i + 1) * stride]
    }

    /// Σ_v U_v(c_v) over the tabulated utilities.
    fn objective(&self, coverage: &[f64]) -> f64 {
        let mut xs = vec![0.0; self.segments + 1];
        coverage
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                // Breakpoint 0 is 0 km: an uncovered cell scores U_v(0).
                if c <= 0.0 {
                    return self.ys(i)[0];
                }
                self.fill_xs(i, &mut xs);
                pwl::eval(&xs, self.ys(i), c)
            })
            .sum()
    }

    /// One [`PwlFunction`] per cell, for the solver models.
    fn functions(&self) -> Vec<PwlFunction> {
        (0..self.n_cells())
            .map(|i| {
                let mut xs = vec![0.0; self.segments + 1];
                self.fill_xs(i, &mut xs);
                PwlFunction::new(xs, self.ys(i).to_vec())
            })
            .collect()
    }

    /// The greedy segment fill over concave (enveloped) utilities: every
    /// candidate segment is a `(slope, width)` item, and filling them in
    /// descending slope order until the `budget_km` runs out is optimal
    /// for the enveloped separable problem (a fractional knapsack: one
    /// budget row, and a concave cell's slopes descend, so its segments
    /// fill in order). Per-cell caps hold because a cell's segments sum to
    /// its PWL domain width, and the total never exceeds the budget — so
    /// the result is always feasible for problem (P), which also makes it
    /// the budget-starved fallback of the solver paths.
    ///
    /// Only the budget-covering prefix of the order matters, so the fill
    /// selects a prefix (`select_nth_unstable_by`), sorts just that
    /// prefix, and selects a twice-longer one from the rest whenever the
    /// budget outlasts it.
    fn fill(&mut self, budget_km: f64) -> Vec<f64> {
        let (his, segments) = (&self.his, self.segments as f64);
        // A segment's width, computed as the table computes its breakpoints.
        let width = |s: &Segment| {
            let (hi, j) = (his[s.cell as usize], s.index as f64);
            hi * (j + 1.0) / segments - hi * j / segments
        };
        let candidates = &mut self.candidates;
        let mut remaining = budget_km;
        let mut coverage = vec![0.0; his.len()];
        // First prefix: enough segments to cover the budget were each as
        // narrow as the narrowest cell's, but at most an eighth of the
        // candidates (or 1024).
        let narrowest = his.iter().fold(f64::INFINITY, |a, &b| a.min(b)) / segments;
        let cap = (candidates.len() / 8).max(1024);
        let mut want = ((remaining / narrowest).ceil().min(cap as f64) as usize).max(1) + 1;
        let mut done = 0;
        while done < candidates.len() {
            let rest = &mut candidates[done..];
            let k = want.min(rest.len());
            if k < rest.len() {
                rest.select_nth_unstable_by(k, fill_order);
            }
            let prefix = &mut rest[..k];
            prefix.sort_unstable_by(fill_order);
            for s in prefix.iter() {
                if remaining <= 0.0 {
                    break;
                }
                let take = width(s).min(remaining);
                coverage[s.cell as usize] += take;
                remaining -= take;
            }
            if remaining <= 0.0 {
                break;
            }
            done += k;
            want = want.saturating_mul(2);
        }
        coverage
    }
}

/// The exact plan of the enveloped allocation problem: the greedy segment
/// fill, reported `Optimal` with no solver statistics. Non-finite utility
/// values are rejected with the error the λ-model builder would raise.
fn greedy_plan(
    problem: &PlanningProblem,
    utilities: &mut UtilityTable,
) -> Result<PatrolPlan, SolverError> {
    if !utilities.all_finite {
        return Err(SolverError::Input("objective coefficient must be finite"));
    }
    let coverage = utilities.fill(problem.budget_km());
    Ok(PatrolPlan {
        objective: utilities.objective(&coverage),
        coverage,
        solve_time: Duration::default(),
        nodes: 0,
        lp_solves: 0,
        status: SolveStatus::Optimal,
    })
}

/// Add one cell's λ block to the model, with SOS2 binaries when the
/// utility is non-concave (for a concave utility the LP relaxation already
/// attains the true maximum). Returns the λ variables and their breakpoint
/// x values.
fn add_pwl_block(
    model: &mut Model,
    utility: &PwlFunction,
    cell_label: usize,
) -> Result<(Vec<Variable>, Vec<f64>), SolverError> {
    let xs = utility.xs().to_vec();
    let ys = utility.ys();
    let lambdas = (0..xs.len())
        .map(|j| {
            model.try_add_continuous(&format!("lam_{cell_label}_{j}"), 0.0, f64::INFINITY, ys[j])
        })
        .collect::<Result<Vec<Variable>, _>>()?;
    // Convexity: Σ λ = 1.
    let terms: Vec<(Variable, f64)> = lambdas.iter().map(|&v| (v, 1.0)).collect();
    model.try_add_constraint(&terms, ConstraintOp::Eq, 1.0)?;

    if !utility.is_concave(CONCAVE_TOL) {
        let n_seg = xs.len() - 1;
        let zs = (0..n_seg)
            .map(|s| model.try_add_binary(&format!("z_{cell_label}_{s}"), 0.0))
            .collect::<Result<Vec<Variable>, _>>()?;
        let zterms: Vec<(Variable, f64)> = zs.iter().map(|&z| (z, 1.0)).collect();
        model.try_add_constraint(&zterms, ConstraintOp::Eq, 1.0)?;
        for j in 0..xs.len() {
            // λ_j can be positive only if an adjacent segment is selected.
            let mut terms = vec![(lambdas[j], 1.0)];
            if j > 0 {
                terms.push((zs[j - 1], -1.0));
            }
            if j < n_seg {
                terms.push((zs[j], -1.0));
            }
            model.try_add_constraint(&terms, ConstraintOp::Le, 0.0)?;
        }
    }
    Ok((lambdas, xs))
}

/// The allocation formulation as a λ / SOS2 model: one PWL block per cell
/// plus the budget row Σ_v c_v ≤ T·K, solved by branch-and-bound.
fn solve_allocation(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    config: &PlannerConfig,
) -> Result<PatrolPlan, SolverError> {
    let mut model = Model::new(Sense::Maximize);
    let mut blocks = Vec::with_capacity(problem.n_cells());
    for (i, u) in utilities.iter().enumerate() {
        blocks.push(add_pwl_block(&mut model, u, i)?);
    }
    // Budget: Σ_v c_v ≤ T·K where c_v = Σ_j λ_vj x_vj.
    let mut budget_terms = Vec::new();
    for (lambdas, xs) in &blocks {
        for (l, &x) in lambdas.iter().zip(xs) {
            if x != 0.0 {
                budget_terms.push((*l, x));
            }
        }
    }
    model.try_add_constraint(&budget_terms, ConstraintOp::Le, problem.budget_km())?;

    let (solution, stats) = solve_milp(&model, &config.milp);
    let coverage = extract_coverage(&solution.values, &blocks);
    Ok(PatrolPlan {
        coverage,
        objective: solution.objective,
        solve_time: Duration::default(),
        nodes: stats.nodes,
        lp_solves: stats.lp_solves,
        status: solution.status,
    })
}

#[allow(clippy::needless_range_loop)]
fn solve_flow(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    config: &PlannerConfig,
) -> Result<PatrolPlan, SolverError> {
    let t_steps = problem.patrol_steps();
    let k = problem.n_patrols() as f64;
    let n = problem.n_cells();
    let mut model = Model::new(Sense::Maximize);

    // Flow variables f[i][j][t]: patrols moving from cell i to cell j (j a
    // neighbour of i, or i itself for "stay") between time t and t+1.
    let mut flow: Vec<Vec<Vec<(usize, Variable)>>> = vec![vec![Vec::new(); t_steps]; n];
    for i in 0..n {
        let mut targets: Vec<usize> = problem.neighbours(i).iter().map(|&j| j as usize).collect();
        targets.push(i);
        for t in 0..t_steps {
            for &j in &targets {
                let v = model.try_add_continuous(&format!("f_{i}_{j}_{t}"), 0.0, k, 0.0)?;
                flow[i][t].push((j, v));
            }
        }
    }

    // Source: all K patrols leave the post at t = 0; nothing leaves any other
    // cell at t = 0.
    for i in 0..n {
        let terms: Vec<(Variable, f64)> = flow[i][0].iter().map(|&(_, v)| (v, 1.0)).collect();
        let rhs = if i == problem.post_index() { k } else { 0.0 };
        model.try_add_constraint(&terms, ConstraintOp::Eq, rhs)?;
    }
    // Conservation: inflow into (i, t) equals outflow from (i, t) for
    // 1 <= t < T; at t = T all flow must be at the post (sink).
    for t in 1..t_steps {
        for i in 0..n {
            let mut terms: Vec<(Variable, f64)> = Vec::new();
            // Inflow from any j with an edge into i at time t-1.
            for j in 0..n {
                for &(dest, v) in &flow[j][t - 1] {
                    if dest == i {
                        terms.push((v, 1.0));
                    }
                }
            }
            for &(_, v) in &flow[i][t] {
                terms.push((v, -1.0));
            }
            model.try_add_constraint(&terms, ConstraintOp::Eq, 0.0)?;
        }
    }
    // Sink: the inflow at the final step must return to the post.
    let mut sink_terms: Vec<(Variable, f64)> = Vec::new();
    for j in 0..n {
        for &(dest, v) in &flow[j][t_steps - 1] {
            if dest == problem.post_index() {
                sink_terms.push((v, 1.0));
            }
        }
    }
    model.try_add_constraint(&sink_terms, ConstraintOp::Eq, k)?;

    // Coverage of cell i: time steps spent at i = Σ_t outflow from (i, t).
    // Link to the PWL blocks: Σ_j λ_ij x_ij − c_i = 0.
    let mut blocks = Vec::with_capacity(n);
    for (i, u) in utilities.iter().enumerate() {
        let block = add_pwl_block(&mut model, u, i)?;
        let mut link: Vec<(Variable, f64)> = block
            .0
            .iter()
            .zip(&block.1)
            .filter(|(_, &x)| x != 0.0)
            .map(|(&l, &x)| (l, x))
            .collect();
        for t in 0..t_steps {
            for &(_, v) in &flow[i][t] {
                link.push((v, -1.0));
            }
        }
        model.try_add_constraint(&link, ConstraintOp::Eq, 0.0)?;
        blocks.push(block);
    }

    let (solution, stats) = solve_milp(&model, &config.milp);
    let coverage = extract_coverage(&solution.values, &blocks);
    Ok(PatrolPlan {
        coverage,
        objective: solution.objective,
        solve_time: Duration::default(),
        nodes: stats.nodes,
        lp_solves: stats.lp_solves,
        status: solution.status,
    })
}

fn extract_coverage(values: &[f64], blocks: &[(Vec<Variable>, Vec<f64>)]) -> Vec<f64> {
    blocks
        .iter()
        .map(|(lambdas, xs)| {
            lambdas
                .iter()
                .zip(xs)
                .map(|(&l, &x)| values[l.0] * x)
                .sum::<f64>()
                .max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_data::matrix::Matrix;
    use paws_geo::parks::test_park_spec;
    use paws_geo::{CellId, Park};

    fn solve(problem: &PlanningProblem, config: &PlannerConfig) -> PatrolPlan {
        try_plan(problem, config).expect("plan solves")
    }

    /// Per-cell utility PWLs resampled to `segments` segments, as sampled.
    fn cell_utilities(
        problem: &PlanningProblem,
        segments: usize,
    ) -> Result<Vec<PwlFunction>, PwlError> {
        UtilityTable::build(problem, segments, false).map(|t| t.functions())
    }

    /// Σ_v U_v(c_v) over explicit PWL utilities.
    fn pwl_objective(utilities: &[PwlFunction], coverage: &[f64]) -> f64 {
        utilities
            .iter()
            .zip(coverage)
            .map(|(u, &c)| u.eval(c))
            .sum()
    }

    /// A small problem with synthetic response curves.
    fn small_problem(beta: f64, patrol_len: f64, n_patrols: usize) -> PlanningProblem {
        let (park, grid, probs, vars) = small_surfaces();
        PlanningProblem::try_from_response(
            &park,
            park.patrol_posts[0],
            &grid,
            &probs,
            &vars,
            patrol_len,
            n_patrols,
            beta,
        )
        .unwrap()
    }

    /// The test park with synthetic response surfaces over every cell.
    fn small_surfaces() -> (Park, Vec<f64>, Matrix, Matrix) {
        let park = Park::generate(&test_park_spec(), 7);
        let grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let scale = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
                grid.iter()
                    .map(|&e| scale * (1.0 - (-0.7 * e).exp()))
                    .collect()
            })
            .collect();
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let base = 0.05 + 0.4 * ((i * 61) % 100) as f64 / 100.0;
                grid.iter().map(|&e| base + 0.03 * e).collect()
            })
            .collect();
        let (probs, vars) = (Matrix::from_rows(&probs), Matrix::from_rows(&vars));
        (park, grid, probs, vars)
    }

    #[test]
    fn allocation_plan_respects_budget_and_caps() {
        let problem = small_problem(0.0, 8.0, 3);
        let plan = solve(&problem, &PlannerConfig::default());
        assert_eq!(plan.status, SolveStatus::Optimal);
        let total: f64 = plan.coverage.iter().sum();
        assert!(
            total <= problem.budget_km() + 1e-6,
            "budget violated: {total}"
        );
        for (i, &c) in plan.coverage.iter().enumerate() {
            assert!(c <= problem.max_effort(i) + 1e-6);
            assert!(c >= -1e-9);
        }
        assert!(plan.objective > 0.0);
    }

    #[test]
    fn allocation_concentrates_effort_on_high_value_cells() {
        let problem = small_problem(0.0, 8.0, 2);
        let computed = solve(&problem, &PlannerConfig::default());
        // Compare against a uniform allocation of the same budget.
        let uniform = vec![problem.budget_km() / problem.n_cells() as f64; problem.n_cells()];
        let u_plan = problem.coverage_utility(&computed.coverage, 0.0);
        let u_unif = problem.coverage_utility(&uniform, 0.0);
        assert!(u_plan >= u_unif - 1e-6, "plan {u_plan} vs uniform {u_unif}");
    }

    #[test]
    fn objective_matches_reevaluated_coverage_utility() {
        let problem = small_problem(0.5, 8.0, 2);
        let config = PlannerConfig {
            segments: 20,
            ..PlannerConfig::default()
        };
        let p = solve(&problem, &config);
        let reeval = problem.coverage_utility(&p.coverage, 0.5);
        // PWL approximation error only.
        assert!((p.objective - reeval).abs() < 0.15 * reeval.abs().max(1.0));
    }

    #[test]
    fn more_segments_never_hurts_much() {
        let problem = small_problem(1.0, 8.0, 2);
        let coarse = solve(
            &problem,
            &PlannerConfig {
                segments: 3,
                ..PlannerConfig::default()
            },
        );
        let fine = solve(
            &problem,
            &PlannerConfig {
                segments: 25,
                ..PlannerConfig::default()
            },
        );
        let u_coarse = problem.coverage_utility(&coarse.coverage, 1.0);
        let u_fine = problem.coverage_utility(&fine.coverage, 1.0);
        assert!(u_fine >= u_coarse - 0.05 * u_coarse.abs().max(1.0));
    }

    #[test]
    fn robust_plan_differs_from_nominal_plan() {
        let mut nominal_problem = small_problem(0.0, 8.0, 2);
        let nominal = solve(&nominal_problem, &PlannerConfig::default());
        nominal_problem.beta = 1.0;
        let robust = solve(&nominal_problem, &PlannerConfig::default());
        // The uncertainty penalty shifts effort; coverages should not be identical.
        let diff: f64 = nominal
            .coverage
            .iter()
            .zip(&robust.coverage)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "robust and nominal plans identical");
    }

    #[test]
    fn flow_formulation_agrees_with_allocation_on_tiny_instance() {
        // Restrict to a very small problem so the flow MILP stays tiny.
        let problem = small_problem(0.0, 4.0, 1);
        let alloc = solve(&problem, &PlannerConfig::default());
        let flow = solve(
            &problem,
            &PlannerConfig {
                method: PlannerMethod::Flow,
                segments: 8,
                ..PlannerConfig::default()
            },
        );
        assert_eq!(flow.status, SolveStatus::Optimal);
        let total_flow: f64 = flow.coverage.iter().sum();
        assert!(
            (total_flow - problem.budget_km()).abs() < 1e-4,
            "flow uses the whole patrol time"
        );
        // The flow formulation is more constrained, so its optimum cannot
        // exceed the allocation optimum (up to PWL resolution differences).
        assert!(flow.objective <= alloc.objective + 0.1 * alloc.objective.abs().max(1.0));
        assert!(flow.objective > 0.0);
    }

    /// The planner's enveloped utilities, as `try_plan` builds them for
    /// `exact_sos2 = false`.
    fn enveloped_utilities(problem: &PlanningProblem, segments: usize) -> Vec<PwlFunction> {
        cell_utilities(problem, segments)
            .unwrap()
            .into_iter()
            .map(|u| u.concave_envelope())
            .collect()
    }

    fn assert_feasible(problem: &PlanningProblem, plan: &PatrolPlan, what: &str) {
        let total: f64 = plan.coverage.iter().sum();
        assert!(
            total <= problem.budget_km() + 1e-6,
            "{what}: over budget: {total}"
        );
        for (i, &c) in plan.coverage.iter().enumerate() {
            assert!(c >= -1e-9, "{what}: cell {i} negative: {c}");
            assert!(
                c <= problem.max_effort(i) + 1e-6,
                "{what}: cell {i} over its cap: {c}"
            );
        }
    }

    #[test]
    fn starved_budget_returns_feasible_degraded_plan() {
        // Exact SOS2 on S-shaped cells builds a MILP, so a zero budget
        // reaches (and starves) the solver.
        let problem = s_shaped_problem(12, 0x5EED);
        let starved = MilpOptions {
            budget: paws_solver::SolveBudget::with_time_limit(Duration::ZERO),
            ..MilpOptions::default()
        };
        let config = PlannerConfig {
            segments: 8,
            exact_sos2: true,
            milp: starved.clone(),
            ..PlannerConfig::default()
        };
        let p = try_plan(&problem, &config).expect("degraded, not an error");
        assert_eq!(p.status, SolveStatus::Degraded);
        assert_feasible(&problem, &p, "degraded plan");
        let total: f64 = p.coverage.iter().sum();
        // The greedy incumbent is a real plan, not an all-zero placeholder.
        assert!(total > 0.0);
        assert!(p.objective > 0.0);
        // Scored under the PWL the exact model optimises: the utilities
        // as sampled, not their envelopes.
        let sampled = cell_utilities(&problem, 8).unwrap();
        assert_eq!(
            p.objective.to_bits(),
            pwl_objective(&sampled, &p.coverage).to_bits()
        );

        // The pure-LP plan never reaches the solver, so the same starved
        // budget leaves it Optimal and bit-identical to the unbudgeted plan.
        let pure = small_problem(0.5, 8.0, 3);
        let free = solve(&pure, &PlannerConfig::default());
        let budgeted = solve(
            &pure,
            &PlannerConfig {
                milp: starved,
                ..PlannerConfig::default()
            },
        );
        assert_eq!(budgeted.status, SolveStatus::Optimal);
        assert_eq!(budgeted.objective.to_bits(), free.objective.to_bits());
        assert_eq!(budgeted.coverage, free.coverage);
    }

    #[test]
    fn starved_flow_fallback_reports_the_enveloped_objective() {
        // Every cell is S-shaped, so the envelope and the sampled utility
        // differ wherever the fallback allocates effort.
        let problem = s_shaped_problem(4, 0xF10);
        let config = PlannerConfig {
            method: PlannerMethod::Flow,
            segments: 6,
            milp: MilpOptions {
                budget: paws_solver::SolveBudget::with_time_limit(Duration::ZERO),
                ..MilpOptions::default()
            },
            ..PlannerConfig::default()
        };
        assert!(!config.exact_sos2);
        let p = try_plan(&problem, &config).expect("degraded, not an error");
        assert_eq!(p.status, SolveStatus::Degraded);
        assert_feasible(&problem, &p, "flow fallback");
        let sampled = cell_utilities(&problem, config.segments).unwrap();
        let enveloped: f64 = sampled
            .iter()
            .zip(&p.coverage)
            .map(|(u, &c)| u.concave_envelope().eval(c))
            .sum();
        let raw: f64 = sampled
            .iter()
            .zip(&p.coverage)
            .map(|(u, &c)| u.eval(c))
            .sum();
        assert!(
            (p.objective - enveloped).abs() <= 1e-12 * enveloped.abs().max(1.0),
            "fallback objective {} vs Σ envelope(c) {enveloped}",
            p.objective
        );
        assert!(
            enveloped - raw > 1e-6,
            "the instance must tell the two objectives apart"
        );
    }

    #[test]
    fn generous_budget_reproduces_the_unbudgeted_plan_exactly() {
        let generous = MilpOptions {
            budget: paws_solver::SolveBudget::with_time_limit(Duration::from_secs(3600)),
            ..MilpOptions::default()
        };
        for (problem, base) in [
            (small_problem(0.5, 8.0, 2), PlannerConfig::default()),
            (
                s_shaped_problem(12, 0x5EED),
                PlannerConfig {
                    segments: 8,
                    exact_sos2: true,
                    ..PlannerConfig::default()
                },
            ),
        ] {
            let free = solve(&problem, &base);
            let budgeted = solve(
                &problem,
                &PlannerConfig {
                    milp: generous.clone(),
                    ..base
                },
            );
            assert_eq!(budgeted.status, free.status);
            assert_eq!(budgeted.coverage, free.coverage);
            assert_eq!(budgeted.objective, free.objective);
            assert_eq!(budgeted.nodes, free.nodes);
            assert_eq!(budgeted.lp_solves, free.lp_solves);
        }
    }

    #[test]
    fn greedy_plan_matches_the_lambda_model_across_a_seeded_sweep() {
        // β × patrol shape × segments on the synthetic test park, plus
        // S-shaped (all non-concave) cells: the greedy fill must reach the
        // λ-model optimum (PWL blocks + budget row through solve_milp).
        let shapes = [(2.0, 1), (4.0, 1), (8.0, 2), (8.0, 3), (12.0, 2)];
        let mut instances: Vec<(PlanningProblem, usize)> = Vec::new();
        for beta in [0.0, 0.5, 0.8, 1.0] {
            for &(patrol_len, n_patrols) in &shapes {
                for segments in [5, 10, 30] {
                    instances.push((small_problem(beta, patrol_len, n_patrols), segments));
                }
            }
        }
        for seed in [0x5EED, 1, 2, 3] {
            for segments in [5, 10, 30] {
                instances.push((s_shaped_problem(12, seed), segments));
            }
        }
        assert_eq!(instances.len(), 72);
        for (k, (problem, segments)) in instances.iter().enumerate() {
            let config = PlannerConfig {
                segments: *segments,
                ..PlannerConfig::default()
            };
            let greedy = solve(problem, &config);
            assert_eq!(greedy.status, SolveStatus::Optimal);
            assert_eq!((greedy.nodes, greedy.lp_solves), (0, 0));
            assert_feasible(problem, &greedy, &format!("instance {k}"));

            let utilities = enveloped_utilities(problem, *segments);
            let reference = solve_allocation(problem, &utilities, &config).unwrap();
            assert_eq!(reference.status, SolveStatus::Optimal);
            assert_eq!(reference.nodes, 0, "the enveloped model is a pure LP");
            assert!(
                (greedy.objective - reference.objective).abs()
                    <= 1e-9 * reference.objective.abs().max(1.0),
                "instance {k}: greedy {} vs λ-model {}",
                greedy.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn non_finite_utilities_are_typed_errors_on_every_path() {
        // A NaN detection probability in the post's response row poisons
        // its resampled curve.
        let (park, grid, mut probs, vars) = small_surfaces();
        let post = park.patrol_posts[0];
        probs.row_mut(park.cell_position(post).unwrap())[1] = f64::NAN;
        let problem =
            PlanningProblem::try_from_response(&park, post, &grid, &probs, &vars, 4.0, 1, 0.0)
                .unwrap();
        let bad = Err(PlanError::Solver(SolverError::Input(
            "objective coefficient must be finite",
        )));
        for config in [
            PlannerConfig::default(),
            PlannerConfig {
                exact_sos2: true,
                ..PlannerConfig::default()
            },
            PlannerConfig {
                method: PlannerMethod::Flow,
                segments: 4,
                ..PlannerConfig::default()
            },
        ] {
            assert_eq!(try_plan(&problem, &config).map(|p| p.status), bad);
        }
    }

    #[test]
    fn zero_beta_plan_maximises_pure_detection() {
        let problem = small_problem(0.0, 6.0, 1);
        let p = solve(&problem, &PlannerConfig::default());
        // With beta=0 the objective equals sum of g at the coverage.
        let g_sum: f64 = p
            .coverage
            .iter()
            .enumerate()
            .map(|(i, &c)| problem.utility(i, 0.0).eval(c))
            .sum();
        assert!((p.objective - g_sum).abs() < 0.1 * g_sum.max(1.0));
    }

    /// `n_cells` seeded S-shaped (convex, then concave) detection curves
    /// around an on-post patrol of 4 km: no utility is concave, so the
    /// exact SOS2 encoding and the concave-envelope relaxation differ.
    fn s_shaped_problem(n_cells: usize, seed: u64) -> PlanningProblem {
        // splitmix64, mapped to [0, 1).
        let mut state = seed;
        let mut uniform = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        };
        let grid: Vec<f64> = (0..=8).map(|k| 0.5 * k as f64).collect();
        let mut g = Matrix::zeros(n_cells, grid.len());
        let mut nu = Matrix::zeros(n_cells, grid.len());
        for i in 0..n_cells {
            let scale = 0.2 + 0.8 * uniform();
            let mid = 1.0 + 2.0 * uniform();
            let logistic = |e: f64| scale / (1.0 + (-3.0 * (e - mid)).exp());
            for (y, &e) in g.row_mut(i).iter_mut().zip(&grid) {
                *y = logistic(e) - logistic(0.0);
            }
            nu.row_mut(i).fill(0.1 + 0.4 * uniform());
        }
        let cells: Vec<CellId> = (0..n_cells as u32).map(CellId).collect();
        PlanningProblem::try_from_curves(&cells, 0, 0.0, &grid, &g, &nu, 4.0, 1, 0.5).unwrap()
    }

    /// The prefix-selected fill must fill exactly what a full stable sort
    /// of every candidate segment by slope fills, bit for bit: with slopes
    /// tied across cells, and with budgets that outlast the first prefix
    /// (several selection rounds) or end inside it.
    #[test]
    fn prefix_fill_matches_a_full_stable_sort() {
        let n = 4000;
        let grid: Vec<f64> = (0..=5).map(|k| k as f64).collect();
        let mut g = Matrix::zeros(n, grid.len());
        let mut nu = Matrix::zeros(n, grid.len());
        for i in 0..n {
            // Every other cell shares one curve, so their slopes tie.
            let scale = if i % 2 == 0 {
                0.5
            } else {
                0.1 + 0.8 * ((i * 37) % 101) as f64 / 101.0
            };
            for (y, &e) in g.row_mut(i).iter_mut().zip(&grid) {
                *y = scale * (1.0 - (-0.7 * e).exp());
            }
            nu.row_mut(i).fill(0.1 + 0.3 * ((i * 61) % 7) as f64 / 7.0);
        }
        let cells: Vec<CellId> = (0..n as u32).map(CellId).collect();
        // (T, travel): the last leaves every cell a 0.1 km domain, so the
        // 100 km budget needs 10,000 segments — past the first prefix.
        for (patrol_length_km, travel_km) in [(4.0, 0.0), (10.0, 2.5), (100.0, 49.99)] {
            let problem = PlanningProblem::try_from_curves(
                &cells,
                0,
                travel_km,
                &grid,
                &g,
                &nu,
                patrol_length_km,
                1,
                0.5,
            )
            .unwrap();
            let mut table = UtilityTable::build(&problem, 10, true).unwrap();

            // The reference: every candidate segment, stably sorted by slope.
            let mut xs = vec![0.0; 11];
            let mut all = Vec::new();
            for cell in 0..n {
                table.fill_xs(cell, &mut xs);
                let ys = table.ys(cell);
                for j in 0..10 {
                    let width = xs[j + 1] - xs[j];
                    let slope = (ys[j + 1] - ys[j]) / width;
                    if width > 0.0 && slope.is_finite() && slope > 0.0 {
                        all.push((slope, cell, width));
                    }
                }
            }
            all.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut remaining = problem.budget_km();
            let mut want = vec![0.0; n];
            for &(_, cell, width) in &all {
                if remaining <= 0.0 {
                    break;
                }
                let take = width.min(remaining);
                want[cell] += take;
                remaining -= take;
            }

            let got = table.fill(problem.budget_km());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "T = {patrol_length_km}");
        }
    }

    #[test]
    fn exact_sos2_plan_sits_between_the_envelope_bounds() {
        let problem = s_shaped_problem(12, 0x5EED);
        let envelope_config = PlannerConfig {
            segments: 8,
            ..PlannerConfig::default()
        };
        let utilities = cell_utilities(&problem, envelope_config.segments).unwrap();
        assert!(utilities.iter().all(|u| !u.is_concave(1e-9)));

        let envelope = solve(&problem, &envelope_config);
        let exact = solve(
            &problem,
            &PlannerConfig {
                exact_sos2: true,
                ..envelope_config.clone()
            },
        );
        assert_eq!(exact.status, SolveStatus::Optimal);
        assert!(exact.nodes >= 1, "the SOS2 binaries must be branched on");
        // The envelope LP relaxes the exact model: its optimum bounds the
        // exact optimum from above …
        assert!(
            exact.objective <= envelope.objective + 1e-9,
            "exact {} above envelope {}",
            exact.objective,
            envelope.objective
        );
        // … while its coverage, scored under the true (non-concave)
        // utilities, is a feasible point the exact optimum must match.
        let envelope_true: f64 = utilities
            .iter()
            .zip(&envelope.coverage)
            .map(|(u, &c)| u.eval(c))
            .sum();
        assert!(
            exact.objective >= envelope_true - 1e-9,
            "exact {} below the envelope plan's true utility {envelope_true}",
            exact.objective
        );
        let total: f64 = exact.coverage.iter().sum();
        assert!(total <= problem.budget_km() + 1e-6);
    }
}
