//! Allocation budget of the automaton evaluator. Once a query's pooled
//! memo tables are warm and the caller's `EvalScratch` has been sized by
//! an earlier run, a run must not allocate per visited node: memo hits
//! read arrays, node lists and result sets live in the scratch's arena.
//! What remains is the output vector and a few fixed set-up allocations.
//!
//! A test-local counting global allocator counts the allocations made by
//! the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xwq_core::{Engine, EvalScratch, Strategy};
use xwq_index::TopologyKind;
use xwq_xmark::GenOptions;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the only addition is bumping a const-initialised thread-local
// counter, which never allocates. `realloc` and `alloc_zeroed` keep their
// default bodies, which allocate through `alloc` and so are counted too.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: no destructor is registered for a const-initialised
        // `Cell`, so this never fails, and the allocator stays panic-free.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as this method's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, which
    // is passed on to `System` as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// At most this many allocations per warm run, whatever the query: the
/// output vector plus fixed set-up.
const PER_RUN: u64 = 4;

/// The two full scans of the mix.
const FULL_SCANS: [&str; 2] = ["//*[ .//keyword ]", "//*[ not(.//mail) ]/name"];

/// The benchmark's `automaton` mix: XMark Q05–Q15 plus three shapes.
fn mix() -> Vec<&'static str> {
    (5..=15)
        .map(xwq_xmark::query)
        .chain(FULL_SCANS)
        .chain(["/site/*/*[ .//emph ]"])
        .collect()
}

#[test]
fn warm_automaton_runs_do_not_allocate_per_visit() {
    let doc = xwq_xmark::generate(GenOptions {
        factor: 0.05,
        seed: 42,
    });
    for topology in [TopologyKind::Array, TopologyKind::Succinct] {
        let engine = Engine::build_with(&doc, topology);
        let mut scratch = EvalScratch::new();
        for query in mix() {
            let q = engine.compile(query).unwrap();
            // The first run fills the memo, the second sizes the scratch
            // for the warm traversal.
            for _ in 0..2 {
                engine.run_with_scratch(&q, Strategy::Optimized, &mut scratch);
            }
            let before = allocations();
            let out = engine.run_with_scratch(&q, Strategy::Optimized, &mut scratch);
            let n = allocations() - before;
            let visited = out.stats.visited;
            drop(out);
            assert!(
                n <= PER_RUN,
                "{query} on {topology:?}: {n} allocations in one warm run ({visited} visits)"
            );
            if FULL_SCANS.contains(&query) {
                let per_visit = n as f64 / visited as f64;
                assert!(
                    per_visit < 0.01,
                    "{query} on {topology:?}: {per_visit:.3} allocations per visit"
                );
            }
        }
    }
}
