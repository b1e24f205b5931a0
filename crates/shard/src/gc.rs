//! Epoch-based reclamation for superseded `.xwqi` artifacts.
//!
//! A durable `replace` (or `remove`) retires the old generation's artifact
//! file, but two parties may still need its bytes:
//!
//! * **In-flight readers.** Corpus documents are served from memory maps;
//!   unlinking a mapped file is safe on unix, but the corpus promises the
//!   stronger property that a reader holding a guard taken *before* the
//!   replace still sees the old generation byte-identically. Each
//!   [`ShardedSession`](crate::ShardedSession) request pins the current
//!   epoch for its whole fan-out; a retirement bumps the epoch, and a
//!   retired file is only reclaimable once every guard from before its
//!   retirement has dropped.
//!
//! * **Crash recovery.** Until the superseding op is folded into a
//!   durable checkpoint (manifest rewrite + WAL reset), a power cut can
//!   leave a WAL prefix that ends *before* that op's record — recovery
//!   then lands on the pre-replace catalog, which still names the old
//!   artifact. So retired files also wait for a checkpoint before unlink.
//!
//! Unlink therefore requires **both**: the retire epoch has drained *and*
//! a checkpoint has sealed the superseding op. The accounting is a single
//! mutex around small maps — retirement and guard drop are rare next to
//! query work, and correctness beats lock-free cleverness here.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use xwq_store::sync::{AtomicU64, Mutex, Ordering};

/// A retired artifact awaiting reclamation.
#[derive(Debug)]
struct Retired {
    path: PathBuf,
    /// Epoch at the moment of retirement: guards pinned at an earlier
    /// epoch may still read this file.
    retire_epoch: u64,
    /// Set once a checkpoint has made the superseding op part of the
    /// manifest baseline, so no recoverable WAL prefix references us.
    checkpointed: bool,
}

#[derive(Debug, Default)]
struct GcState {
    /// Current epoch; bumped by every retirement.
    epoch: u64,
    /// Pin counts per epoch still held by live guards.
    active: BTreeMap<u64, usize>,
    retired: Vec<Retired>,
}

/// The corpus-wide artifact garbage collector. Cheap to share: readers
/// take one mutex per request to pin/unpin.
#[derive(Default)]
pub struct EpochGc {
    state: Mutex<GcState>,
    /// Relaxed everywhere (audit note): the epoch/pin/drain *protocol* lives
    /// entirely inside `state`'s mutex — there are no lock-free pin or drain
    /// pairs to order, so no Acquire/Release upgrade applies. This counter
    /// is a monotonic statistic bumped under that same mutex; readers get an
    /// eventually-consistent total and nothing branches on it.
    unlinked: AtomicU64,
    /// Opt-in telemetry: total artifacts reclaimed, wired by
    /// `Corpus::enable_telemetry`.
    unlinked_counter: OnceLock<Arc<xwq_obs::Counter>>,
}

impl fmt::Debug for EpochGc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().unwrap();
        f.debug_struct("EpochGc")
            .field("epoch", &state.epoch)
            .field("active_pins", &state.active.values().sum::<usize>())
            .field("pending", &state.retired.len())
            .field("unlinked", &self.unlinked.load(Ordering::Relaxed))
            .finish()
    }
}

/// Keeps every artifact generation visible as of the pin alive until
/// dropped. Dropping is when reclamation of drained epochs runs.
#[derive(Debug)]
pub struct EpochGuard {
    gc: Arc<EpochGc>,
    epoch: u64,
}

impl EpochGc {
    /// Pins the current epoch. Files retired *after* this call will not be
    /// unlinked while the guard lives.
    pub fn pin(self: &Arc<Self>) -> EpochGuard {
        let mut state = self.state.lock().unwrap();
        let epoch = state.epoch;
        *state.active.entry(epoch).or_insert(0) += 1;
        EpochGuard {
            gc: Arc::clone(self),
            epoch,
        }
    }

    /// Hands `path` to the collector and bumps the epoch. The file stays
    /// on disk until its epoch drains *and* a checkpoint seals it.
    pub fn retire(&self, path: PathBuf) {
        let mut state = self.state.lock().unwrap();
        let retire_epoch = state.epoch;
        state.epoch += 1;
        state.retired.push(Retired {
            path,
            retire_epoch,
            checkpointed: false,
        });
    }

    /// Marks every currently retired file as sealed by a checkpoint, then
    /// reclaims whatever has also drained. Called by `Corpus::checkpoint`
    /// after the manifest rewrite and WAL reset are durable.
    pub fn seal_and_collect(&self) {
        let mut state = self.state.lock().unwrap();
        for r in &mut state.retired {
            r.checkpointed = true;
        }
        Self::collect_locked(self, &mut state);
    }

    /// Number of retired files still waiting on an epoch drain or a
    /// checkpoint.
    pub fn pending(&self) -> usize {
        self.state.lock().unwrap().retired.len()
    }

    /// Total artifacts unlinked over this collector's lifetime.
    pub fn unlinked_total(&self) -> u64 {
        self.unlinked.load(Ordering::Relaxed)
    }

    /// Wires the reclaim counter (adds the pre-wiring total so the
    /// exported series starts correct).
    pub fn set_counter(&self, counter: Arc<xwq_obs::Counter>) {
        counter.add(self.unlinked.load(Ordering::Relaxed));
        let _ = self.unlinked_counter.set(counter);
    }

    fn collect_locked(&self, state: &mut GcState) {
        // A retired file is reclaimable when no live guard predates its
        // retirement (oldest pinned epoch >= retire_epoch ⇒ every holder
        // pinned after the replace and sees the new generation) and a
        // checkpoint has sealed it.
        let oldest_pin = state.active.keys().next().copied();
        let mut kept = Vec::with_capacity(state.retired.len());
        for r in state.retired.drain(..) {
            let drained = oldest_pin.is_none_or(|oldest| oldest > r.retire_epoch);
            if drained && r.checkpointed {
                // Missing-file errors are fine: a previous crash may have
                // been cut between unlink and our bookkeeping.
                let _ = std::fs::remove_file(&r.path);
                self.unlinked.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = self.unlinked_counter.get() {
                    c.inc();
                }
            } else {
                kept.push(r);
            }
        }
        state.retired = kept;
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        let mut state = self.gc.state.lock().unwrap();
        if let Some(n) = state.active.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                state.active.remove(&self.epoch);
            }
        }
        self.gc.collect_locked(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("xwq-gc-{tag}-{}", std::process::id()));
        std::fs::write(&path, b"artifact bytes").unwrap();
        path
    }

    #[test]
    fn unlink_waits_for_both_epoch_drain_and_checkpoint() {
        let gc = Arc::new(EpochGc::default());
        let path = tmp_file("both");
        let guard = gc.pin();
        gc.retire(path.clone());

        // Guard alive, unsealed: file must stay.
        gc.seal_and_collect();
        assert!(path.exists(), "live pre-retire guard must keep the file");

        drop(guard);
        assert!(!path.exists(), "drain + checkpoint should reclaim");
        assert_eq!(gc.unlinked_total(), 1);
    }

    #[test]
    fn checkpoint_alone_is_not_enough_and_drain_alone_is_not_enough() {
        let gc = Arc::new(EpochGc::default());

        // Drain alone: no checkpoint yet.
        let path = tmp_file("drain");
        gc.retire(path.clone());
        // No guards at all — epoch is trivially drained.
        assert!(path.exists(), "unsealed file must survive a drain");
        assert_eq!(gc.pending(), 1);
        gc.seal_and_collect();
        assert!(!path.exists());

        // Guards pinned *after* retirement do not block reclamation.
        let path2 = tmp_file("post-pin");
        gc.retire(path2.clone());
        let late = gc.pin();
        gc.seal_and_collect();
        assert!(!path2.exists(), "post-retire guard sees the new generation");
        drop(late);
    }

    #[test]
    fn multiple_generations_reclaim_independently() {
        let gc = Arc::new(EpochGc::default());
        let old = tmp_file("gen-old");
        let new = tmp_file("gen-new");

        gc.retire(old.clone()); // epoch 0 -> 1
        let guard = gc.pin(); // pins epoch 1: after `old`, before `new`
        gc.retire(new.clone()); // epoch 1 -> 2
        gc.seal_and_collect();

        assert!(!old.exists(), "old predates the guard's pin — reclaimable");
        assert!(new.exists(), "guard may still read the second retiree");
        drop(guard);
        assert!(!new.exists());
        assert_eq!(gc.unlinked_total(), 2);
    }
}

/// Exhaustive model check of the pin/retire/seal protocol (built only
/// under `RUSTFLAGS="--cfg model"`, where the `xwq_store::sync` mutex is the
/// `xwq_verify` shim). The serial tests above fix the interleaving by
/// construction; here the checker constructs *every* interleaving of a
/// reader and a retiring writer within the preemption bound.
#[cfg(all(test, model))]
mod model_tests {
    use super::*;
    use xwq_store::sync::{thread as sync_thread, AtomicBool};

    #[test]
    fn model_no_unlink_while_a_pre_retire_guard_is_pinned() {
        let config = xwq_verify::Config {
            preemption_bound: Some(2),
            ..xwq_verify::Config::default()
        };
        let report = xwq_verify::check("gc-pin-vs-retire", config, || {
            let gc = Arc::new(EpochGc::default());
            let path =
                std::env::temp_dir().join(format!("xwq-model-gc-pin-{}", std::process::id()));
            std::fs::write(&path, b"artifact bytes").unwrap();
            // Raised by the writer *before* it retires, so a reader that
            // still observes `false` after pinning knows its pin strictly
            // precedes the retirement.
            let retiring = Arc::new(AtomicBool::new(false));

            let reader = {
                let gc = Arc::clone(&gc);
                let path = path.clone();
                let retiring = Arc::clone(&retiring);
                sync_thread::spawn(move || {
                    let guard = gc.pin();
                    let pinned_first = !retiring.load(Ordering::Acquire);
                    if pinned_first {
                        assert!(path.exists(), "pre-retire pin must keep the file");
                    }
                    // Give the scheduler a point to run the writer's whole
                    // retire + seal between our pin and our re-check.
                    sync_thread::yield_now();
                    if pinned_first {
                        assert!(path.exists(), "file unlinked under a live pre-retire guard");
                    }
                    drop(guard);
                })
            };
            let writer = {
                let gc = Arc::clone(&gc);
                let path = path.clone();
                let retiring = Arc::clone(&retiring);
                sync_thread::spawn(move || {
                    retiring.store(true, Ordering::Release);
                    gc.retire(path);
                    gc.seal_and_collect();
                })
            };
            reader.join().unwrap();
            writer.join().unwrap();
            // Whatever the interleaving, drain + checkpoint both happened
            // by now: the artifact is reclaimed exactly once.
            assert!(!path.exists(), "drained + sealed artifact must be gone");
            assert_eq!(gc.unlinked_total(), 1);
            assert_eq!(gc.pending(), 0);
        });
        // A floor on the explored-schedule count: if the cfg wiring ever
        // degrades the shims to passthrough, exploration collapses to one
        // schedule and this catches it.
        assert!(report.schedules > 50, "exploration collapsed: {report:?}");
        assert!(report.complete, "schedule tree exhausted: {report:?}");
    }
}
