//! The serving tier's sync abstraction: `std::sync` in normal builds, the
//! [`xwq_verify`] model-checker shims under `--cfg model`.
//!
//! Everything that takes part in a cross-thread *protocol* comes from
//! here: the [`Pool`](crate::pool::Pool) queue mutex, park condvar and
//! worker handles, the batch [`Latch`](crate::pool::Latch) and its claim
//! cursor, and — in `xwq-shard` — the admission gate and the epoch GC.
//! `RUSTFLAGS="--cfg model"` builds can then model-check those protocols
//! exhaustively (see `crates/verify` and the `model_` tests). In normal
//! builds every name is a plain `std` re-export with zero runtime cost; a
//! unit test asserts the types are literally `std`'s.
//!
//! Deliberately *not* routed through this module: monotonic statistics
//! counters (cache hit/miss tallies, admission counts) and read-mostly
//! registry locks. They are race-benign, and each shim op is a scheduler
//! yield point — modeling them would multiply the explored schedule tree
//! without adding checkable behavior.

#[cfg(not(model))]
mod imp {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::{Condvar, Mutex, MutexGuard};

    /// Model-aware thread handles: plain `std::thread` here.
    pub mod thread {
        pub use std::thread::{spawn, yield_now, Builder, JoinHandle};
    }

    use std::time::Instant;

    /// Waits on `cv` until notified or `deadline` passes; returns the
    /// reacquired guard and whether the deadline had passed on wake. The
    /// flag is advisory — callers re-check their predicate, exactly as with
    /// `Condvar::wait_timeout`. Panics on a poisoned mutex.
    ///
    /// Exists so the model build can treat the timeout as a scheduler
    /// choice: under `--cfg model` this maps to
    /// [`xwq_verify::sync::wait_deadline`], which explores both the
    /// notified-first and timed-out-first orders without real-time sleeps.
    pub fn wait_deadline<'a, T>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let now = Instant::now();
        if now >= deadline {
            return (guard, true);
        }
        let (guard, result) = cv
            .wait_timeout(guard, deadline - now)
            .unwrap_or_else(|_| panic!("wait_deadline: mutex poisoned"));
        (guard, result.timed_out() || Instant::now() >= deadline)
    }
}

#[cfg(model)]
mod imp {
    pub use xwq_verify::sync::{
        wait_deadline, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
    };

    /// Model-aware thread handles: scheduler-registered spawns and joins.
    pub mod thread {
        pub use xwq_verify::thread::{spawn, yield_now, Builder, JoinHandle};
    }
}

pub use imp::*;

#[cfg(all(test, not(model)))]
mod tests {
    use std::any::TypeId;

    /// The zero-cost claim, checked: outside `--cfg model` the re-exports
    /// are literally `std::sync`'s types, not wrappers.
    #[test]
    fn normal_build_reexports_are_plain_std() {
        assert_eq!(
            TypeId::of::<super::Mutex<u8>>(),
            TypeId::of::<std::sync::Mutex<u8>>()
        );
        assert_eq!(
            TypeId::of::<super::Condvar>(),
            TypeId::of::<std::sync::Condvar>()
        );
        assert_eq!(
            TypeId::of::<super::AtomicU64>(),
            TypeId::of::<std::sync::atomic::AtomicU64>()
        );
    }
}
