//! # paws-solver
//!
//! A small, self-contained linear / mixed-binary optimisation toolkit: the
//! from-scratch substitute for the commercial MILP solver the paper's patrol
//! planner relies on.
//!
//! * [`model::Model`] — build variables, bounds, objective and constraints
//!   through the fallible `try_add_*` builders (non-finite or inconsistent
//!   input is a typed [`SolverError::Input`], never a panic).
//! * [`revised::solve_lp`] — sparse revised simplex (LU-factorised basis,
//!   bounded variables, eta updates) for the continuous relaxation; the
//!   only engine any solve path uses.
//! * [`simplex::solve_lp_dense`] — the original dense two-phase tableau,
//!   kept public only as the parity reference for the sparse engine and
//!   the relaxation oracle of the exhaustive branch-and-bound tests.
//! * [`milp::solve_milp`] — branch-and-bound over the binary variables on
//!   one sparse workspace, warm-starting each node's relaxation from its
//!   parent basis. The patrol planner reaches it only for exact SOS2
//!   encodings of non-concave utilities and for the flow formulation.
//! * [`budget::SolveBudget`] — anytime wall-clock / iteration budgets; an
//!   exhausted budget returns the best incumbent tagged
//!   [`model::SolveStatus::Degraded`] instead of hanging the caller.

pub mod budget;
pub mod csc;
pub mod lu;
pub mod milp;
pub mod model;
pub mod revised;
pub mod simplex;

pub use budget::SolveBudget;
pub use milp::{solve_milp, MilpOptions, MilpStats};
pub use model::{
    ConstraintOp, Model, Sense, Solution, SolveStatus, SolverError, VarKind, Variable,
};
pub use revised::{solve_lp, solve_lp_budgeted, LpOutcome, SparseLp};
pub use simplex::{solve_lp_dense, solve_lp_dense_budgeted};
