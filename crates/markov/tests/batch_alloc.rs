//! Pins the `BatchSolver` allocation contract: after construction,
//! `solve_mtta` and the arbitrary right-hand-side `solve` perform zero
//! heap allocations, on both fill-free and fill-producing topologies. A counting global allocator wraps the
//! system one; the steady-state assertion is exact, not a threshold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nsr_markov::{BatchSolver, Ctmc, CtmcBuilder, StateId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A deep birth–death chain (fill-free elimination).
fn birth_death(depth: usize) -> (Ctmc, StateId) {
    let mut b = CtmcBuilder::new();
    let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
    let dead = b.add_state("dead");
    for i in 0..depth {
        b.add_transition(states[i], states[i + 1], 1.0).unwrap();
        b.add_transition(states[i + 1], states[i], 1.0).unwrap();
    }
    b.add_transition(states[depth], dead, 1.0).unwrap();
    (b.build().unwrap(), states[0])
}

/// A cycle with a chord (elimination creates fill).
fn cyclic() -> (Ctmc, StateId) {
    let mut b = CtmcBuilder::new();
    let s: Vec<StateId> = (0..6).map(|i| b.add_state(format!("{i}"))).collect();
    let dead = b.add_state("dead");
    for i in 0..6 {
        b.add_transition(s[i], s[(i + 1) % 6], 1.0).unwrap();
    }
    b.add_transition(s[0], s[3], 1.0).unwrap();
    b.add_transition(s[4], dead, 1.0).unwrap();
    (b.build().unwrap(), s[0])
}

fn assert_alloc_free(skel: &Ctmc, root: StateId, what: &str) {
    let mut solver = BatchSolver::new(skel, root).unwrap();
    let n = solver.transitions();
    let rates: Vec<f64> = (0..n).map(|k| 0.5 + 0.25 * k as f64).collect();
    // Warm-up solve (first call may touch lazily-initialized runtime
    // state outside the solver, e.g. stdout locks in the test harness).
    let first = solver.solve_mtta(&rates).unwrap();

    let before = allocations();
    let mut all_same = true;
    for _ in 0..100 {
        all_same &= solver.solve_mtta(&rates).unwrap().to_bits() == first.to_bits();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{what}: steady-state solve_mtta allocated"
    );
    assert!(all_same, "{what}: solves must be bit-reproducible");

    // The right-hand-side entry point: one unit column per transient
    // state (the fundamental-matrix solves), buffers all preallocated.
    let m = solver.dim();
    let columns: Vec<Vec<f64>> = (0..m)
        .map(|j| (0..m).map(|i| f64::from(u8::from(i == j))).collect())
        .collect();
    let first = solver.solve(&rates, &columns[0]).unwrap()[0];
    let before = allocations();
    let mut all_same = true;
    for _ in 0..10 {
        for col in &columns {
            let x = solver.solve(&rates, col).unwrap();
            all_same &= x.iter().all(|v| v.is_finite() && *v >= 0.0);
        }
        all_same &= solver.solve(&rates, &columns[0]).unwrap()[0].to_bits() == first.to_bits();
    }
    let after = allocations();
    assert_eq!(after - before, 0, "{what}: steady-state solve allocated");
    assert!(
        all_same,
        "{what}: rhs solves must be finite and reproducible"
    );
}

#[test]
fn steady_state_solves_do_not_allocate() {
    let (skel, root) = birth_death(12);
    assert_alloc_free(&skel, root, "birth-death");
    let (skel, root) = cyclic();
    assert_alloc_free(&skel, root, "cyclic-with-fill");
}
