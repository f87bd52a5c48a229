//! Plan-path golden: FNV-64 hashes of every plan's `objective` bits and
//! `coverage` bits (plus its re-scored `coverage_utility` and extracted
//! routes) over a seeded sweep, pinned so that a refactor of the response
//! surface → planning problem → patrol plan path must reproduce every plan
//! bit for bit. The instances are built only through the public
//! `try_planning_problem_from_response` → `try_plan` path:
//!
//! * the test park: every patrol post × patrol length {4, 8, 12, 30} km ×
//!   β {0, 0.5, 1} × PWL segments {5, 10, 30}, on a seeded surface that
//!   mixes saturating and S-shaped (non-concave) detection curves, so the
//!   concave-envelope path is exercised;
//! * exact-SOS2 plans on all-S-shaped surfaces (branch-and-bound);
//! * one tiny time-unrolled flow MILP;
//! * the park-wide plan on the 50k-cell LLC park (release builds only).
//!
//! A golden changes only with a deliberate numeric change, recorded with
//! its quality evidence.

use paws_core::try_planning_problem_from_response;
use paws_data::Matrix;
use paws_geo::parks::test_park_spec;
use paws_geo::{CellId, Park};
use paws_plan::{
    extract_routes, try_plan, PatrolPlan, PlannerConfig, PlannerMethod, PlanningProblem,
};

/// The effort levels every surface is sampled at.
const GRID: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One plan: objective, coverage, the coverage re-scored under the
    /// problem's own β, and (when asked) the extracted routes.
    fn plan(&mut self, problem: &PlanningProblem, plan: &PatrolPlan, routes: bool) {
        self.word(plan.objective.to_bits());
        self.word(plan.coverage.len() as u64);
        for c in &plan.coverage {
            self.word(c.to_bits());
        }
        self.word(
            problem
                .coverage_utility(&plan.coverage, problem.beta)
                .to_bits(),
        );
        if routes {
            for route in extract_routes(problem, &plan.coverage) {
                self.word(route.cells.len() as u64);
                for &CellId(id) in &route.cells {
                    self.word(u64::from(id));
                }
            }
        }
    }
}

/// splitmix64 mapped to [0, 1).
fn uniform(seed: u64, i: usize, k: u64) -> f64 {
    let mut z = seed
        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// Seeded raw response surfaces over every in-park cell: one cell in
/// `s_shaped_every` gets an S-shaped (convex, then concave) detection
/// curve, the rest saturate; the raw variance rises with effort.
fn surfaces(park: &Park, seed: u64, s_shaped_every: usize) -> (Matrix, Matrix) {
    let n = park.n_cells();
    let mut probs = Matrix::zeros(n, GRID.len());
    let mut vars = Matrix::zeros(n, GRID.len());
    for i in 0..n {
        let scale = 0.05 + 0.85 * uniform(seed, i, 0);
        let rate = 0.2 + 0.8 * uniform(seed, i, 1);
        let mid = 1.0 + 3.0 * uniform(seed, i, 2);
        let base = 0.01 + 0.2 * uniform(seed, i, 3);
        let slope = 0.05 * uniform(seed, i, 4);
        let s_shaped = s_shaped_every > 0 && i % s_shaped_every == 0;
        let logistic = |e: f64| scale / (1.0 + (-3.0 * (e - mid)).exp());
        for (k, &e) in GRID.iter().enumerate() {
            probs.row_mut(i)[k] = if s_shaped {
                logistic(e) - logistic(0.0)
            } else {
                scale * (1.0 - (-rate * e).exp())
            };
            vars.row_mut(i)[k] = base + slope * e;
        }
    }
    (probs, vars)
}

#[allow(clippy::too_many_arguments)]
fn problem(
    park: &Park,
    post: CellId,
    (probs, vars): &(Matrix, Matrix),
    patrol_length_km: f64,
    n_patrols: usize,
    beta: f64,
) -> PlanningProblem {
    try_planning_problem_from_response(
        park,
        post,
        &GRID,
        probs,
        vars,
        patrol_length_km,
        n_patrols,
        beta,
    )
    .expect("valid planning problem")
}

fn check(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: plan-path golden moved (got {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn test_park_sweep_matches_the_golden() {
    let park = Park::generate(&test_park_spec(), 7);
    let maps = surfaces(&park, 0x60_1DE5, 5);
    let mut h = Fnv::new();
    let mut plans = 0;
    for &post in &park.patrol_posts {
        for patrol_length_km in [4.0, 8.0, 12.0, 30.0] {
            for beta in [0.0, 0.5, 1.0] {
                let p = problem(&park, post, &maps, patrol_length_km, 3, beta);
                for segments in [5, 10, 30] {
                    let config = PlannerConfig {
                        segments,
                        ..PlannerConfig::default()
                    };
                    let plan = try_plan(&p, &config).expect("plan solves");
                    h.plan(&p, &plan, true);
                    plans += 1;
                }
            }
        }
    }
    assert_eq!(plans, 36 * park.patrol_posts.len());
    check("test-park sweep", h.0, GOLDEN_TEST_PARK);
}

#[test]
fn exact_sos2_s_shaped_plans_match_the_golden() {
    let park = Park::generate(&test_park_spec(), 7);
    let post = park.patrol_posts[0];
    let mut h = Fnv::new();
    for seed in [0x5EED, 1, 2, 3] {
        // Every cell S-shaped: no utility is concave, so each block carries
        // SOS2 binaries and branch-and-bound must run.
        let p = problem(&park, post, &surfaces(&park, seed, 1), 3.0, 1, 0.5);
        for segments in [5, 8] {
            let config = PlannerConfig {
                segments,
                exact_sos2: true,
                ..PlannerConfig::default()
            };
            let plan = try_plan(&p, &config).expect("plan solves");
            assert!(plan.nodes >= 1, "the SOS2 binaries must be branched on");
            h.plan(&p, &plan, false);
        }
    }
    check("exact SOS2", h.0, GOLDEN_SOS2);
}

#[test]
fn tiny_flow_plan_matches_the_golden() {
    let park = Park::generate(&test_park_spec(), 7);
    let post = park.patrol_posts[0];
    let p = problem(&park, post, &surfaces(&park, 0xF10, 4), 3.0, 1, 0.5);
    let config = PlannerConfig {
        method: PlannerMethod::Flow,
        segments: 6,
        ..PlannerConfig::default()
    };
    let plan = try_plan(&p, &config).expect("plan solves");
    let mut h = Fnv::new();
    h.plan(&p, &plan, true);
    check("tiny flow", h.0, GOLDEN_FLOW);
}

/// The park-wide plan on the 50k-cell LLC park: every cell a candidate.
#[cfg(not(debug_assertions))]
#[test]
fn llc_park_wide_plan_matches_the_golden() {
    let park = Park::generate(&paws_geo::parks::llc_park_spec(50_000), 11);
    let post = park.patrol_posts[0];
    let reach = paws_plan::park_travel_distances(&park, post)
        .into_iter()
        .fold(0.0f64, f64::max);
    let patrol_length_km = (2.0 * reach).ceil() + 2.0;
    let p = problem(
        &park,
        post,
        &surfaces(&park, 0x11C, 7),
        patrol_length_km,
        4,
        1.0,
    );
    assert_eq!(p.n_cells(), park.n_cells());
    let plan = try_plan(&p, &PlannerConfig::default()).expect("plan solves");
    let mut h = Fnv::new();
    h.plan(&p, &plan, false);
    check("LLC 50k", h.0, GOLDEN_LLC);
}

const GOLDEN_TEST_PARK: u64 = 0x7292_eaa2_5db6_c659;
const GOLDEN_SOS2: u64 = 0xeea4_9643_3dec_791b;
const GOLDEN_FLOW: u64 = 0x8091_8fd3_274b_6fcc;
#[cfg(not(debug_assertions))]
const GOLDEN_LLC: u64 = 0x9f2f_27f9_6350_6827;
