//! The one worker pool, and the batch latch the query fan-outs build on.
//!
//! [`Pool<T>`] is a `Mutex<VecDeque<T>>` plus a `Condvar`: named workers,
//! spawned lazily by [`Pool::grow`], park on the condvar while the queue is
//! empty and take tasks in FIFO order. Its rules:
//!
//! * Each worker keeps one state value (an `EvalScratch`, say) for its
//!   whole life and hands it to every task it runs.
//! * The stop flag lives inside the queue mutex. A worker checks it and
//!   parks under that mutex, so a stop can never land between the check
//!   and the park and leave a worker asleep through its own shutdown.
//! * Workers exit only when stop is set **and** the queue is empty: every
//!   task accepted before [`Pool::shutdown`] still runs.
//! * Each task runs under `catch_unwind`. A panicking task is dropped, the
//!   worker's state is rebuilt, and the worker carries on, so a panic never
//!   shrinks the pool.
//! * An optional queue cap ([`Pool::bounded`]) makes [`Pool::push`] hand
//!   the task back instead of queueing it, so a caller can shed load.
//!
//! A job that up to `n` workers may join is published as `n` handles to
//! one `Arc`'d job ([`Pool::push_n`]); a handle taken after the job's work
//! ran out costs one empty claim.
//!
//! [`Latch`] is the batch half: workers claim items from a [`Cursor`],
//! answer them, fold their evaluation stats into the batch total once, and
//! tick the latch; the caller waits on it. `Session::query_many` and the
//! sharded corpus fan-out both use it.

use crate::sync::{thread, AtomicUsize, Condvar, Mutex, Ordering};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use xwq_core::EvalStats;

/// A FIFO task queue drained by named, condvar-parked worker threads.
pub struct Pool<T> {
    shared: Arc<Shared<T>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    cap: usize,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    cv: Condvar,
}

struct Queue<T> {
    tasks: VecDeque<T>,
    stop: bool,
}

impl<T: Send + 'static> Default for Pool<T> {
    fn default() -> Self {
        Self::bounded(usize::MAX)
    }
}

impl<T: Send + 'static> Pool<T> {
    /// A pool with an unbounded queue and no workers yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool whose queue holds at most `cap` waiting tasks.
    pub fn bounded(cap: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    tasks: VecDeque::new(),
                    stop: false,
                }),
                cv: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// Spawns workers until there are `want`. Worker `i` is named
    /// `name(i)`, starts from `S::default()`, and runs each task it takes
    /// as `run(&mut state, task)`.
    pub fn grow<S, F>(&self, want: usize, name: impl Fn(usize) -> String, run: F)
    where
        S: Default,
        F: Fn(&mut S, T) + Clone + Send + 'static,
    {
        let mut workers = self.workers.lock().expect("pool workers poisoned");
        while workers.len() < want {
            let shared = Arc::clone(&self.shared);
            let run = run.clone();
            let handle = thread::Builder::new()
                .name(name(workers.len()))
                .spawn(move || shared.work(run))
                .expect("spawn pool worker");
            workers.push(handle);
        }
    }

    /// Queues `task`, or hands it back when the queue is at its cap.
    pub fn push(&self, task: T) -> Result<(), T> {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        if queue.tasks.len() >= self.cap {
            return Err(task);
        }
        queue.tasks.push_back(task);
        drop(queue);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Queues `n` handles to one job that up to `n` workers may join. The
    /// queue cap does not apply.
    pub fn push_n(&self, task: T, n: usize)
    where
        T: Clone,
    {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.tasks.extend(std::iter::repeat_n(task, n));
        drop(queue);
        self.shared.cv.notify_all();
    }
}

impl<T> Pool<T> {
    /// Live worker threads.
    pub fn workers(&self) -> usize {
        self.workers.lock().expect("pool workers poisoned").len()
    }

    /// Stops the pool: workers run every queued task, then exit, and are
    /// joined. Idempotent; dropping the pool does the same.
    pub fn shutdown(&self) {
        // Never panics, since `Drop` calls it: both locks only ever hold
        // whole updates, so a poisoned guard is still valid.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stop = true;
        self.shared.cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl<T> Shared<T> {
    fn work<S: Default>(&self, run: impl Fn(&mut S, T)) {
        let mut state = S::default();
        while let Some(task) = self.take() {
            if catch_unwind(AssertUnwindSafe(|| run(&mut state, task))).is_err() {
                state = S::default();
            }
        }
    }

    /// The next task, parking while the queue is empty; `None` once the
    /// pool is stopped and drained.
    fn take(&self) -> Option<T> {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            if queue.stop {
                return None;
            }
            queue = self.cv.wait(queue).expect("pool queue poisoned");
        }
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A claim cursor over `0..len`: each index is handed out exactly once.
pub struct Cursor {
    next: AtomicUsize,
    len: usize,
}

impl Cursor {
    /// A cursor over `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    fn claim(&self) -> Option<usize> {
        // Relaxed: uniqueness comes from `fetch_add`'s total modification
        // order alone; the items themselves reach the worker through the
        // pool's queue mutex, not through this counter.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

/// The completion latch of a batch: how many items are still unanswered,
/// and the batch's folded evaluation totals.
pub struct Latch {
    left: Mutex<usize>,
    cv: Condvar,
    totals: Mutex<EvalStats>,
    /// Wake waiters on every answered item, not only the last (a streaming
    /// caller emits the completed prefix per tick).
    ticks: bool,
}

impl Latch {
    /// A latch over `items` unanswered items.
    pub fn new(items: usize, ticks: bool) -> Self {
        Self {
            left: Mutex::new(items),
            cv: Condvar::new(),
            totals: Mutex::new(EvalStats::default()),
            ticks,
        }
    }

    /// Claims items from `cursor` until it runs out and answers each with
    /// `answer(i, state)`, which stores the result and returns its stats.
    ///
    /// The stats of the items this call answered are folded into the
    /// totals once, at the end. Each item's tick is deferred until the next
    /// claim, so the last one fires only after that fold: [`Self::wait`]
    /// never returns before every worker's stats are in. An answer that
    /// panics leaves its item unanswered (the caller finds the empty slot),
    /// rebuilds `state`, and the claim loop carries on, so one bad item
    /// never strands the rest of the batch.
    pub fn work<S: Default>(
        &self,
        cursor: &Cursor,
        state: &mut S,
        mut answer: impl FnMut(usize, &mut S) -> EvalStats,
    ) {
        let mut local = EvalStats::default();
        let mut held = false;
        while let Some(i) = cursor.claim() {
            if held {
                self.tick();
            }
            held = true;
            match catch_unwind(AssertUnwindSafe(|| answer(i, state))) {
                Ok(stats) => local.accumulate(&stats),
                Err(_) => *state = S::default(),
            }
        }
        if local != EvalStats::default() {
            self.totals
                .lock()
                .expect("latch totals poisoned")
                .accumulate(&local);
        }
        if held {
            self.tick();
        }
    }

    fn tick(&self) {
        let mut left = self.left.lock().expect("latch poisoned");
        *left -= 1;
        if self.ticks || *left == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until fewer than `seen` items are unanswered (at once if that
    /// already holds, or if `seen` is 0) and returns how many are left.
    pub fn wait_below(&self, seen: usize) -> usize {
        let mut left = self.left.lock().expect("latch poisoned");
        while seen > 0 && *left >= seen {
            left = self.cv.wait(left).expect("latch poisoned");
        }
        *left
    }

    /// Blocks until every item is answered and returns the batch totals.
    pub fn wait(&self) -> EvalStats {
        self.wait_below(1);
        *self.totals.lock().expect("latch totals poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn panicking_task_keeps_the_worker_and_later_tasks_run() {
        let pool: Pool<u32> = Pool::new();
        let (tx, rx) = mpsc::channel();
        pool.grow(
            2,
            |i| format!("test-w{i}"),
            move |seen: &mut u32, task: u32| {
                assert_ne!(task, 0, "task 0 panics");
                *seen += 1;
                tx.send((task, *seen)).unwrap();
            },
        );
        pool.push(0).unwrap();
        for task in 1..=4 {
            pool.push(task).unwrap();
        }
        let mut got: Vec<u32> = (0..4).map(|_| rx.recv().unwrap().0).collect();
        got.sort_unstable();
        assert_eq!(got, [1, 2, 3, 4]);
        assert_eq!(pool.workers(), 2, "a panic never shrinks the pool");
    }

    #[test]
    fn bounded_queue_hands_tasks_back_and_shutdown_drains() {
        let pool: Pool<u32> = Pool::bounded(2);
        assert_eq!(pool.push(1), Ok(()));
        assert_eq!(pool.push(2), Ok(()));
        assert_eq!(pool.push(3), Err(3), "queue at its cap");
        let (tx, rx) = mpsc::channel();
        pool.grow(
            1,
            |i| format!("test-w{i}"),
            move |_: &mut (), task: u32| {
                tx.send(task).unwrap();
            },
        );
        pool.shutdown();
        assert_eq!(pool.workers(), 0);
        assert_eq!(rx.iter().collect::<Vec<_>>(), [1, 2], "queued tasks run");
    }
}

/// Exhaustive model check of the pool and latch protocol, built only under
/// `RUSTFLAGS="--cfg model"` (where `crate::sync` is the `xwq_verify`
/// shims): the body runs once per schedule within the preemption bound.
#[cfg(all(test, model))]
mod model_tests {
    use super::*;

    struct Job {
        cursor: Cursor,
        latch: Latch,
    }

    fn job(items: usize) -> Arc<Job> {
        Arc::new(Job {
            cursor: Cursor::new(items),
            latch: Latch::new(items, false),
        })
    }

    /// Two workers; a two-item job published as two handles (publish,
    /// claim, park, multi-handle join), then a one-item job queued right
    /// before the shutdown that races it. In every schedule the first job's
    /// latch releases with both items counted once, and shutdown returns
    /// only after the queued job ran (drain, then exit) — no lost wakeup,
    /// no worker asleep through its own shutdown.
    #[test]
    fn model_pool_publish_claim_drain_shutdown() {
        let config = xwq_verify::Config {
            preemption_bound: Some(2),
            ..xwq_verify::Config::default()
        };
        let report = xwq_verify::check("pool-lifecycle", config, || {
            let pool: Pool<Arc<Job>> = Pool::new();
            pool.grow(
                2,
                |i| format!("model-w{i}"),
                |_: &mut (), job: Arc<Job>| {
                    job.latch.work(&job.cursor, &mut (), |_, _| EvalStats {
                        visited: 1,
                        ..EvalStats::default()
                    });
                },
            );
            let first = job(2);
            pool.push_n(Arc::clone(&first), 2);
            assert_eq!(first.latch.wait().visited, 2, "each item answered once");
            let last = job(1);
            pool.push(Arc::clone(&last))
                .unwrap_or_else(|_| panic!("unbounded"));
            pool.shutdown();
            assert_eq!(*last.latch.left.lock().unwrap(), 0, "queued task drained");
            assert_eq!(pool.workers(), 0);
        });
        // A floor on the explored-schedule count: if the cfg wiring ever
        // degrades the shims to passthrough, exploration collapses to one
        // schedule and this catches it.
        assert!(report.schedules > 50, "exploration collapsed: {report:?}");
        assert!(report.complete, "schedule tree exhausted: {report:?}");
    }
}
