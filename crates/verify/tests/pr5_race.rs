//! Checker validation against a bug this repo actually shipped.
//!
//! PR 5's shard worker pool originally signalled shutdown by flipping an
//! `AtomicBool` and calling `notify_all()` *without holding the queue mutex*.
//! A worker that had just checked the flag (false) inside its critical
//! section — but not yet parked on the condvar — missed the notify and slept
//! forever; `Session::drop` then hung joining it. The fix flips the flag
//! while holding the queue mutex, closing the check→wait window; today
//! `xwq_store::pool::Pool` keeps the flag inside that mutex outright.
//!
//! This test re-introduces the old logic in a faithful copy of the pool's
//! state machine and proves the model checker finds the hang — with a
//! printed, seed-replayable schedule — while the fixed discipline explores
//! clean. If the checker ever regresses into missing this class of bug,
//! this is the test that catches it.

use std::collections::VecDeque;
use std::sync::Arc;

use xwq_verify::sync::{AtomicBool, Condvar, Mutex, Ordering};
use xwq_verify::{explore, Config, FailureKind};

/// The shard pool's shared state, reduced to the parts the shutdown
/// handshake touches: a job queue, the park condvar, and the shutdown flag.
struct PoolShared {
    jobs: Mutex<VecDeque<u32>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn new() -> Arc<PoolShared> {
        Arc::new(PoolShared {
            jobs: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        })
    }
}

/// The worker park loop as the shard pool had it: claim under the lock,
/// re-check the shutdown flag, park on the condvar otherwise.
fn worker_loop(shared: &PoolShared, drained: &Mutex<Vec<u32>>) {
    let mut jobs = shared.jobs.lock().expect("pool lock");
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = jobs.pop_front() {
            drop(jobs);
            drained.lock().expect("drained lock").push(job);
            jobs = shared.jobs.lock().expect("pool lock");
            continue;
        }
        jobs = shared.work_cv.wait(jobs).expect("pool cv");
    }
}

/// PR 5's original shutdown: flag flip and notify race the worker's
/// check→park window because neither holds the queue mutex.
fn begin_shutdown_lock_free(shared: &PoolShared) {
    shared.shutdown.store(true, Ordering::Release);
    shared.work_cv.notify_all();
}

/// The shipped fix: the flag flips inside the queue mutex, so a worker is
/// either before its check (sees true) or already parked (gets the notify).
fn begin_shutdown_locked(shared: &PoolShared) {
    {
        let _jobs = shared.jobs.lock().expect("pool lock");
        shared.shutdown.store(true, Ordering::Release);
    }
    shared.work_cv.notify_all();
}

fn pool_scenario(shutdown: fn(&PoolShared)) {
    let shared = PoolShared::new();
    let drained = Arc::new(Mutex::new(Vec::new()));
    let (s2, d2) = (Arc::clone(&shared), Arc::clone(&drained));
    let worker = xwq_verify::thread::spawn(move || worker_loop(&s2, &d2));

    // Publish one job, as a live fan-out would.
    {
        let mut jobs = shared.jobs.lock().expect("pool lock");
        jobs.push_back(7);
    }
    shared.work_cv.notify_all();

    shutdown(&shared);
    worker.join().expect("worker must exit after shutdown");
}

#[test]
fn checker_finds_the_pr5_shutdown_hang() {
    let report = explore(&Config::default(), || {
        pool_scenario(begin_shutdown_lock_free)
    });
    let failure = report
        .failure
        .expect("the lock-free shutdown must hang under some schedule");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("lost notify") || failure.message.contains("joining"),
        "diagnostic should implicate the parked worker: {}",
        failure.message
    );
    println!(
        "PR 5 race reproduced in {} schedules; minimized replay seed: \"{}\"",
        report.schedules,
        failure.schedule.seed()
    );

    // The printed seed replays the hang deterministically.
    let replay = explore(
        &Config {
            replay: Some(failure.schedule.clone()),
            ..Config::default()
        },
        || pool_scenario(begin_shutdown_lock_free),
    );
    assert_eq!(replay.schedules, 1, "replay runs exactly one schedule");
    assert_eq!(
        replay.failure.map(|f| f.kind),
        Some(FailureKind::Deadlock),
        "seed must reproduce the hang"
    );
}

#[test]
fn fixed_shutdown_discipline_explores_clean() {
    let report = explore(&Config::default(), || pool_scenario(begin_shutdown_locked));
    assert!(
        report.failure.is_none(),
        "fixed shutdown must not hang: {:?}",
        report.failure
    );
    assert!(
        report.complete,
        "schedule tree must be exhausted, not truncated"
    );
    println!(
        "fixed shutdown verified across {} schedules at preemption bound 2",
        report.schedules
    );
}
