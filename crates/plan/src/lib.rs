//! # paws-plan
//!
//! Green Security Game patrol planning under uncertainty (Sec. VI of the
//! paper): piecewise-linear approximation of the learned effort-response
//! functions, MILP optimisation of patrol effort, a robust objective that
//! penalises model uncertainty, route extraction, and plan evaluation.
//!
//! Typical flow:
//! 1. Sample g_v(c) and the raw variances from a fitted
//!    `paws_iware::IWareModel` with `effort_response`.
//! 2. Build a [`game::PlanningProblem`] per patrol post with
//!    [`game::PlanningProblem::try_from_response`], which squashes the
//!    variances to ν_v(c) ∈ [0, 1] in the same pass.
//! 3. Optimise with [`planner::try_plan`] (the exact greedy segment fill
//!    of the enveloped allocation problem by default, an SOS2 MILP when
//!    non-concave utilities must be encoded exactly, the time-unrolled
//!    flow MILP for small instances); failures come back as a typed
//!    [`PlanError`].
//! 4. Extract ranger routes with [`routes::extract_routes`] and evaluate
//!    Uβ(Cβ)/Uβ(Cβ=0) with [`evaluate::try_compare_robust_vs_baseline`]
//!    (or [`evaluate::compare_with_ground_truth`] to also score expected
//!    detections).

pub mod evaluate;
pub mod game;
pub mod planner;
pub mod pwl;
pub mod robust;
pub mod routes;

pub use evaluate::{
    compare_with_ground_truth, expected_detections, try_compare_robust_vs_baseline,
    RobustComparison,
};
pub use game::{park_travel_distances, steps_for, PlanningProblem, ProblemError};
pub use planner::{try_plan, PatrolPlan, PlanError, PlannerConfig, PlannerMethod};
pub use pwl::{PwlError, PwlFunction};
pub use robust::VarianceSquash;
pub use routes::{extract_routes, route_coverage, Route};
