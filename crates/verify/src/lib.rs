//! `xwq-verify` — a dependency-free, loom-style concurrency model checker.
//!
//! The serving tier rests on three hand-rolled concurrency cores: the
//! condvar-parked worker pool, the ticketed-FIFO admission gate
//! with timeout tombstones, and the epoch-based artifact GC. Stress tests
//! sample a handful of schedules per run and miss rare interleavings — the
//! PR 5 park/notify shutdown hang shipped and survived a week of CI exactly
//! that way. This crate explores schedules *systematically* instead: the
//! program under test runs on real OS threads, but a deterministic scheduler
//! serializes them and depth-first-enumerates every interleaving up to a
//! configurable preemption bound.
//!
//! * [`check`] / [`explore`] — run a harness closure under every schedule;
//!   panics (invariant violations) and deadlocks / lost notifies are caught,
//!   minimized, and reported with a seed that [`Config::replay`] or the
//!   `XWQ_MODEL_REPLAY` env var replays deterministically.
//! * [`sync`] / [`thread`] — drop-in shims for the `std::sync` and
//!   `std::thread` subset the serving tier uses. Outside a model execution
//!   they pass straight through to `std`, so a `--cfg model` build of the
//!   workspace still runs its ordinary test suite unchanged; `xwq_store::sync`
//!   re-exports them under `--cfg model` and plain `std::sync` otherwise, for
//!   itself and for `crates/shard` and `crates/serve`.
//!
//! ```
//! use xwq_verify::{check, Config};
//! use xwq_verify::sync::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! // Two racing non-atomic increments: load, then store. The checker finds
//! // the lost update and prints a replayable schedule.
//! let report = xwq_verify::explore(&Config::default(), || {
//!     let n = Arc::new(AtomicUsize::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = xwq_verify::thread::spawn(move || {
//!         let v = n2.load(Ordering::SeqCst);
//!         n2.store(v + 1, Ordering::SeqCst);
//!     });
//!     let v = n.load(Ordering::SeqCst);
//!     n.store(v + 1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
//! });
//! assert!(report.failure.is_some());
//! ```

mod sched;
pub mod sync;
pub mod thread;

pub use sched::{check, explore, Config, Failure, FailureKind, Report, Schedule};
