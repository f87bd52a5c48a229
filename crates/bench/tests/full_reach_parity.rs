//! The default planner's greedy segment fill must reach the λ-LP optimum on
//! the synthetic full-reach allocation problem (the LLC benchmark
//! workload). The reference is built from the public API only: each cell's
//! utility sampled with `PwlFunction::try_from_samples`, replaced by its
//! `concave_envelope`, written as a λ block plus one budget row, and solved
//! with `solve_lp`.

use paws_bench::full_reach_problem;
use paws_geo::parks::test_park_spec;
use paws_geo::Park;
use paws_plan::{try_plan, PlannerConfig, PlanningProblem, PwlFunction};
use paws_solver::{solve_lp, ConstraintOp, Model, Sense, SolveStatus};

/// The λ-LP optimum of the enveloped allocation problem. Each cell's
/// breakpoint-0 weight is eliminated through its convexity row
/// (λ_0 = 1 − Σ_{j≥1} λ_j, so the row becomes Σ_{j≥1} λ_j ≤ 1 and every
/// objective coefficient is taken relative to y_0): the same LP, but the
/// all-slack basis is feasible, so even the 50k-cell model solves without
/// a phase-1 pass over 50k equality rows.
fn lambda_lp_objective(problem: &PlanningProblem, segments: usize) -> f64 {
    let mut model = Model::new(Sense::Maximize);
    let mut budget_terms = Vec::new();
    let mut base = 0.0;
    for i in 0..problem.n_cells() {
        let u = problem.utility(i, problem.beta);
        let hi = problem.max_effort(i).max(1e-3);
        let envelope = PwlFunction::try_from_samples(0.0, hi, segments, |c| u.eval(c))
            .unwrap()
            .concave_envelope();
        let (xs, ys) = (envelope.xs(), envelope.ys());
        base += ys[0];
        let mut convexity = Vec::new();
        for j in 1..xs.len() {
            let lambda = model
                .try_add_continuous(&format!("lam_{i}_{j}"), 0.0, f64::INFINITY, ys[j] - ys[0])
                .unwrap();
            convexity.push((lambda, 1.0));
            budget_terms.push((lambda, xs[j]));
        }
        model
            .try_add_constraint(&convexity, ConstraintOp::Le, 1.0)
            .unwrap();
    }
    model
        .try_add_constraint(&budget_terms, ConstraintOp::Le, problem.budget_km())
        .unwrap();
    let solution = solve_lp(&model, None);
    assert_eq!(solution.status, SolveStatus::Optimal);
    base + solution.objective
}

fn assert_greedy_matches_the_lambda_lp(park: &Park) {
    let problem = full_reach_problem(park, 0.05 * park.n_cells() as f64, 1.0);
    let config = PlannerConfig::default();
    let plan = try_plan(&problem, &config).unwrap();
    assert_eq!(plan.status, SolveStatus::Optimal);
    assert_eq!((plan.nodes, plan.lp_solves), (0, 0));
    let reference = lambda_lp_objective(&problem, config.segments);
    assert!(
        (plan.objective - reference).abs() <= 1e-9 * reference.abs().max(1.0),
        "greedy {} vs λ-LP {reference}",
        plan.objective
    );
    let spent: f64 = plan.coverage.iter().sum();
    assert!(spent <= problem.budget_km() + 1e-6, "over budget: {spent}");
    for (i, &c) in plan.coverage.iter().enumerate() {
        assert!(c >= -1e-9, "cell {i} negative: {c}");
        assert!(c <= problem.max_effort(i) + 1e-6, "cell {i} over cap: {c}");
    }
}

#[test]
fn greedy_matches_the_lambda_lp_on_the_full_reach_workload() {
    assert_greedy_matches_the_lambda_lp(&Park::generate(&test_park_spec(), 11));
}

/// The 50k-cell LLC park (≈550k λ columns): release builds only.
#[cfg(not(debug_assertions))]
#[test]
fn greedy_matches_the_lambda_lp_on_the_50k_cell_llc_park() {
    let park = Park::generate(&paws_geo::parks::llc_park_spec(50_000), 11);
    assert_greedy_matches_the_lambda_lp(&park);
}
