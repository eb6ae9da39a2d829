//! Allocation-budget gate: heap allocations per `Simulator::run` are
//! pinned exactly.
//!
//! The cycle loop is meant to be allocation-free in steady state (typed
//! counter slots, borrowed SIMT contexts, per-SM scratch buffers; see
//! DESIGN.md, "Hot-path allocation discipline"). What remains is bounded
//! and deterministic — every map uses the fixed-seed hasher — so the
//! count of `alloc` + `alloc_zeroed` + `realloc` calls of a run is an
//! exact, repeatable number. A change that adds an allocation to a
//! per-cycle or per-instruction path moves it and fails here; a change
//! that removes allocations lowers it and should re-pin the budget
//! (the failure message prints the new counts).
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`. Counting is per thread, and the runs are at one
//! engine thread, so nothing else the harness does is counted.
//!
//! ```sh
//! cargo test --offline -p vksim-bench --test alloc_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vksim_core::{SimConfig, Simulator};
use vksim_scenes::{build, Scale, WorkloadKind};

/// Forwards to [`System`] and counts the calling thread's allocations.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches a const-initialized thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by one `Simulator::run` of `kind` at Test scale, at
/// one engine thread with every observer off, plus its cycle count.
fn allocations_per_run(kind: WorkloadKind) -> (u64, u64) {
    let w = build(kind, Scale::Test);
    let mut sim = Simulator::new(SimConfig::test_small().with_threads(1));
    let before = CALLS.with(Cell::get);
    let report = sim.run(&w.device, &w.cmd).expect("run succeeds");
    let allocs = CALLS.with(Cell::get) - before;
    (allocs, report.gpu.cycles)
}

/// `(workload, pinned allocations per run)`.
const BUDGET: [(WorkloadKind, u64); 2] =
    [(WorkloadKind::Ext, 48_367), (WorkloadKind::Rtv6, 18_074)];

#[test]
fn allocations_per_run_are_pinned() {
    // The engine reads its thread count, observers, watchdog and
    // checkpointing from `VKSIM_*` variables; any of them would change
    // the program being counted. This binary has this one test, so
    // editing the environment races with nothing.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VKSIM_") {
            std::env::remove_var(&key);
        }
    }
    let mut report = Vec::new();
    let mut failed = false;
    for (kind, pinned) in BUDGET {
        let (allocs, cycles) = allocations_per_run(kind);
        let (again, _) = allocations_per_run(kind);
        assert_eq!(
            allocs, again,
            "{kind:?}: two identical runs allocated differently"
        );
        failed |= allocs != pinned;
        report.push(format!(
            "{kind:?}: {allocs} allocations over {cycles} cycles ({:.2}/cycle), pinned {pinned}",
            allocs as f64 / cycles as f64
        ));
    }
    assert!(
        !failed,
        "allocation budget moved; re-pin BUDGET in tests/alloc_budget.rs if intended:\n{}",
        report.join("\n")
    );
}
