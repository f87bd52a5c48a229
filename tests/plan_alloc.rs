//! Allocation accounting for the default plan path: building the planning
//! problem from a response surface (`try_planning_problem_from_response`)
//! and solving it (`try_plan`) must make a number of heap allocations that
//! does not grow with the park. Every per-cell quantity lives in a flat,
//! pre-sized table — no per-cell curve object, neighbour list or vector
//! regrowth — so a 10k-cell park costs no more allocations than a 1k-cell
//! one.
//!
//! Kept as a single `#[test]` so no sibling test can allocate inside the
//! measurement window (each integration-test file is its own binary with
//! its own global allocator).

use paws_core::try_planning_problem_from_response;
use paws_data::Matrix;
use paws_geo::parks::test_park_spec;
use paws_geo::{Park, ParkSpec};
use paws_plan::{park_travel_distances, try_plan, PlannerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: defers entirely to the system allocator; the counter is a
// side-channel and never affects the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations and reallocations (process-wide) made while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A park of about `cells` cells with a saturating response surface over a
/// six-level effort grid, and the allocations one park-wide plan costs.
fn plan_allocations(cells: usize) -> (usize, usize) {
    let side = (cells as f64 * 1.6).sqrt().ceil() as u32;
    let park = Park::generate(
        &ParkSpec {
            rows: side,
            cols: side,
            target_cells: cells,
            ..test_park_spec()
        },
        5,
    );
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let n = park.n_cells();
    let mut probs = Matrix::zeros(n, grid.len());
    let mut vars = Matrix::zeros(n, grid.len());
    for i in 0..n {
        let scale = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
        let rate = 0.3 + 0.5 * ((i * 53) % 97) as f64 / 97.0;
        for (k, &e) in grid.iter().enumerate() {
            probs.row_mut(i)[k] = scale * (1.0 - (-rate * e).exp());
            vars.row_mut(i)[k] = 0.01 + 0.002 * ((i * 61) % 100) as f64 + 0.01 * e;
        }
    }
    let post = park.patrol_posts[0];
    // Every reachable cell a candidate: the park-wide plan.
    let reach = park_travel_distances(&park, post)
        .into_iter()
        .filter(|d| d.is_finite())
        .fold(0.0f64, f64::max);
    let patrol_length_km = (2.0 * reach).ceil() + 2.0;
    let config = PlannerConfig::default();
    let run = || {
        let problem = try_planning_problem_from_response(
            &park,
            post,
            &grid,
            &probs,
            &vars,
            patrol_length_km,
            4,
            1.0,
        )
        .expect("valid planning problem");
        assert!(problem.n_cells() * 10 >= n * 9, "most cells are candidates");
        let plan = try_plan(&problem, &config).expect("plan solves");
        assert!(plan.objective > 0.0);
    };
    // Warm-up outside the window (lazy runtime state).
    run();
    (n, allocations_during(run))
}

#[test]
fn plan_path_allocations_do_not_grow_with_the_park() {
    let (small_cells, small) = plan_allocations(1_000);
    let (large_cells, large) = plan_allocations(10_000);
    assert!(
        large_cells >= 8 * small_cells,
        "{small_cells} vs {large_cells} cells"
    );
    assert!(
        large <= small,
        "{large} allocations at {large_cells} cells vs {small} at {small_cells}"
    );
    // A handful of flat tables, not one object per cell.
    assert!(small < 64, "{small} allocations for {small_cells} cells");
}
