//! The [`ShardedSession`]: corpus-wide query serving on per-shard pinned
//! worker pools.
//!
//! Layout: every corpus shard gets its own long-lived worker [`Pool`]
//! **and** its own [`Session`] — so the compiled-query LRU, the memo
//! pools hanging off each `CompiledQuery`, and every worker's
//! [`EvalScratch`] are all confined to one shard by construction. A
//! worker thread is spawned *for* a shard, parks on that shard's condvar,
//! and only ever evaluates documents placed on that shard: shard→worker
//! affinity is structural, not advisory, which is exactly the handle a
//! future NUMA binding needs (pin the shard's workers to the node whose
//! memory holds the shard's mapped `.xwqi` pages).
//!
//! [`ShardedSession::query_corpus`] fans one query out over all (or a
//! subset of) documents: the caller groups the target documents by shard,
//! publishes one job per involved shard, and waits on a single corpus-wide
//! completion [`Latch`] while each shard's workers claim documents from
//! their job's [`Cursor`]. Results always come back merged in document-name
//! order, so the answer is byte-identical no matter how many shards or
//! workers served it.
//!
//! Concurrent callers pass through a **bounded admission queue** first: at
//! most `max_active` fan-outs run at once, at most `max_waiting` callers
//! park behind them, and everyone beyond that is rejected immediately with
//! [`CorpusError::Overloaded`] — under overload the corpus degrades by
//! shedding load, not by piling unbounded work onto the pools.

use crate::{Corpus, CorpusError};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xwq_core::{EvalScratch, EvalStats, Strategy};
use xwq_obs::{Counter, LatencyHisto, Registry};
use xwq_store::pool::{Cursor, Latch, Pool};
use xwq_store::sync::{wait_deadline, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use xwq_store::{CacheStats, QueryResponse, Session, SessionError};

/// The corpus-wide merged result slots, indexed by each document's
/// position in the name-ordered target list and shared by every shard's
/// job of one fan-out.
type ResultSlots = Arc<Mutex<Vec<Option<Result<QueryResponse, SessionError>>>>>;

/// One document's outcome within a corpus fan-out.
#[derive(Debug)]
pub struct DocOutcome {
    /// The document name (outcomes are merged in name order).
    pub doc: String,
    /// The shard that served it.
    pub shard: usize,
    /// The per-document response or error (a bad document never aborts
    /// the rest of the fan-out).
    pub result: Result<QueryResponse, SessionError>,
}

/// Admission-queue limits for concurrent [`ShardedSession::query_corpus`]
/// callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Fan-outs served concurrently (at least 1).
    pub max_active: usize,
    /// Callers allowed to wait behind them; one more is rejected.
    pub max_waiting: usize,
    /// How long a waiter may stay parked before giving up with
    /// [`CorpusError::Overloaded`]. `None` waits indefinitely. A timed-out
    /// waiter withdraws its ticket without stalling the FIFO queue behind
    /// it.
    pub timeout: Option<Duration>,
}

impl Default for AdmissionConfig {
    /// As many active fan-outs as the machine has cores, with a short
    /// bounded queue behind them and no wait deadline.
    fn default() -> Self {
        Self {
            max_active: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_waiting: 64,
            timeout: None,
        }
    }
}

/// Admission observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Callers admitted (immediately or after waiting).
    pub admitted: u64,
    /// Callers that had to wait for a slot before being admitted.
    pub waited: u64,
    /// Callers rejected because the wait queue was full.
    pub rejected: u64,
    /// Waiters that gave up when their admission deadline expired.
    pub timed_out: u64,
}

/// Tuning for a [`ShardedSession`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Long-lived workers pinned to each shard. `0` serves every fan-out
    /// on the calling thread (shard by shard, in order) — the serial
    /// reference mode.
    pub workers_per_shard: usize,
    /// Compiled-query LRU capacity of each shard's session.
    pub cache_capacity: usize,
    /// Admission-queue limits.
    pub admission: AdmissionConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            workers_per_shard: 1,
            cache_capacity: xwq_store::DEFAULT_CACHE_CAPACITY,
            admission: AdmissionConfig::default(),
        }
    }
}

/// A corpus-wide serving session: one pinned worker pool + one
/// compiled-query cache per shard, and a bounded admission queue in front.
pub struct ShardedSession {
    corpus: Arc<Corpus>,
    shards: Vec<ShardServer>,
    admission: Admission,
    workers_per_shard: usize,
    /// `xwq_corpus_fanout_latency_ns`: end-to-end fan-out wall time
    /// (admission wait included). Set by [`Self::enable_telemetry`].
    fanout_latency: OnceLock<Arc<LatencyHisto>>,
    /// Test-only slow-shard fixture: a hook every evaluation passes its
    /// document name through before running, so a test can make one
    /// shard's documents arbitrarily slow (or block them on a signal) and
    /// observe streaming emission ordering deterministically.
    #[cfg(test)]
    eval_gate: Mutex<Option<EvalGate>>,
}

/// See [`ShardedSession::eval_gate`].
#[cfg(test)]
type EvalGate = Arc<dyn Fn(&str) + Send + Sync>;

/// One shard's serving state.
struct ShardServer {
    /// The shard-local session: compiled-query LRU + store access. Its
    /// *own* internal pool is never engaged (this layer always calls
    /// [`Session::query_with_scratch`]), so the only threads touching a
    /// shard are the ones pinned to it.
    session: Arc<Session>,
    /// The shard's pinned workers, named `xwq-shard{N}-w{M}`: a worker
    /// spawned here only ever sees this shard's jobs, store and scratch.
    pool: Pool<Arc<ShardJob>>,
    /// `xwq_shard_queue_wait_ns{shard=...}`: publish→first-claim delay of
    /// this shard's jobs. Set by [`ShardedSession::enable_telemetry`].
    queue_wait: OnceLock<Arc<LatencyHisto>>,
}

impl ShardedSession {
    /// A session over `corpus` with `workers_per_shard` pinned workers per
    /// shard and default cache/admission settings.
    pub fn new(corpus: Arc<Corpus>, workers_per_shard: usize) -> Self {
        Self::with_config(
            corpus,
            ShardedConfig {
                workers_per_shard,
                ..ShardedConfig::default()
            },
        )
    }

    /// A session with explicit tuning.
    pub fn with_config(corpus: Arc<Corpus>, config: ShardedConfig) -> Self {
        let shards = (0..corpus.shard_count())
            .map(|s| ShardServer {
                session: Arc::new(Session::with_cache_capacity(
                    Arc::clone(corpus.shard_store(s)),
                    config.cache_capacity,
                )),
                pool: Pool::new(),
                queue_wait: OnceLock::new(),
            })
            .collect();
        Self {
            corpus,
            shards,
            admission: Admission::new(config.admission),
            workers_per_shard: config.workers_per_shard,
            fanout_latency: OnceLock::new(),
            #[cfg(test)]
            eval_gate: Mutex::new(None),
        }
    }

    /// Wires the whole serving stack into a metrics [`Registry`]: each
    /// shard's session (latency histogram + cache counters, labelled
    /// `shard="<n>"`), each shard's job-queue wait histogram, the
    /// corpus-wide fan-out latency histogram, the admission gate's
    /// counters and wait histogram, and the corpus durability metrics
    /// (WAL commit latency, recovery counters, GC reclaim counter).
    /// Idempotent — only the first call takes effect; until called,
    /// serving skips all telemetry work.
    pub fn enable_telemetry(&self, registry: &Registry) {
        registry.describe(
            "xwq_corpus_fanout_latency_ns",
            "End-to-end corpus fan-out latency (admission wait included), nanoseconds",
        );
        registry.describe(
            "xwq_shard_queue_wait_ns",
            "Time a published shard job waited before its first worker claimed it, nanoseconds",
        );
        let _ = self
            .fanout_latency
            .set(registry.histo("xwq_corpus_fanout_latency_ns"));
        for (s, shard) in self.shards.iter().enumerate() {
            let label = s.to_string();
            shard
                .session
                .enable_telemetry(registry, &[("shard", &label)]);
            let _ = shard
                .queue_wait
                .set(registry.histo_with("xwq_shard_queue_wait_ns", &[("shard", &label)]));
        }
        self.admission.enable_telemetry(registry);
        self.corpus.enable_telemetry(registry);
    }

    /// The corpus this session serves.
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// Workers currently pinned to shard `s`.
    pub fn shard_workers(&self, s: usize) -> usize {
        self.shards[s].pool.workers()
    }

    /// Total live workers across all shards.
    pub fn total_workers(&self) -> usize {
        (0..self.shards.len()).map(|s| self.shard_workers(s)).sum()
    }

    /// Admission-queue counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Aggregated compiled-query cache counters across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.session.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.capacity += s.capacity;
        }
        total
    }

    /// Snapshots every compiled program the shard sessions hold into
    /// `.xwqp` sidecars next to each durable document's `.xwqi` artifact —
    /// execution history included, so the next open of this corpus starts
    /// warm *and* re-plans from observed visits (see
    /// [`xwq_store::Session::persist_plans`]). Best effort by design: a
    /// document that cannot be persisted (no cached programs, a vanished
    /// artifact) is skipped, never an error — this runs on server drain,
    /// which must not fail. Returns the number of programs persisted.
    /// No-op (0) for an in-memory corpus.
    pub fn persist_plans(&self) -> usize {
        let Some(dir) = self.corpus.dir() else {
            return 0;
        };
        // Pin the epoch so artifact GC cannot unlink a generation between
        // the catalog read and the sidecar write next to it.
        let _epoch = self.corpus.pin();
        let mut saved = 0;
        for (name, entry) in self.corpus.durable_entries() {
            if let Some(shard) = self.corpus.shard_of(&name) {
                saved += self.shards[shard]
                    .session
                    .persist_plans(&name, dir.join(&entry.file))
                    .unwrap_or(0);
            }
        }
        saved
    }

    /// Fans `query` out over **every** document in the corpus and merges
    /// the per-document outcomes in document-name order.
    pub fn query_corpus(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<Vec<DocOutcome>, CorpusError> {
        self.query_corpus_stats(query, strategy).map(|(out, _)| out)
    }

    /// [`Self::query_corpus`] plus merged evaluation totals across every
    /// document of the fan-out. Merge discipline: each pinned worker
    /// accumulates the stats of the documents *it* served and folds them
    /// into the fan-out total exactly once, at the corpus latch — so the
    /// total equals the sum over successful outcomes and the serial run,
    /// independent of worker count or claim order.
    pub fn query_corpus_stats(
        &self,
        query: &str,
        strategy: Strategy,
    ) -> Result<(Vec<DocOutcome>, EvalStats), CorpusError> {
        self.run(query, strategy, self.corpus.placements(), None)
    }

    /// [`Self::query_corpus`] restricted to a subset of document names
    /// (any order, duplicates collapsed; unknown names fail the whole call
    /// up front). Outcomes still come back in document-name order.
    pub fn query_docs(
        &self,
        query: &str,
        strategy: Strategy,
        docs: &[impl AsRef<str>],
    ) -> Result<Vec<DocOutcome>, CorpusError> {
        self.query_docs_stats(query, strategy, docs)
            .map(|(out, _)| out)
    }

    /// [`Self::query_docs`] plus merged evaluation totals (see
    /// [`Self::query_corpus_stats`]).
    pub fn query_docs_stats(
        &self,
        query: &str,
        strategy: Strategy,
        docs: &[impl AsRef<str>],
    ) -> Result<(Vec<DocOutcome>, EvalStats), CorpusError> {
        self.run(query, strategy, self.doc_targets(docs)?, None)
    }

    /// Streaming [`Self::query_corpus_stats`]: instead of materializing
    /// the merged outcome vector, `sink` receives each [`DocOutcome`] in
    /// document-name order **as it completes** — the first document's
    /// outcome is delivered while later shards are still evaluating, so a
    /// network caller can start writing its response before the fan-out
    /// finishes. Emission is *ordered* incremental: outcome `i` is held
    /// until outcomes `0..i` have been emitted, so the concatenated stream
    /// is byte-identical to the non-streaming merge.
    ///
    /// The sink runs on the calling thread with no internal lock held; a
    /// slow sink never stalls shard workers, but it does extend how long
    /// this fan-out holds its admission permit. Returns the merged
    /// evaluation totals (identical to the non-streaming call).
    pub fn query_corpus_streaming(
        &self,
        query: &str,
        strategy: Strategy,
        mut sink: impl FnMut(DocOutcome),
    ) -> Result<EvalStats, CorpusError> {
        self.run(query, strategy, self.corpus.placements(), Some(&mut sink))
            .map(|(_, stats)| stats)
    }

    /// Streaming [`Self::query_docs_stats`] (see
    /// [`Self::query_corpus_streaming`] for the emission contract).
    pub fn query_docs_streaming(
        &self,
        query: &str,
        strategy: Strategy,
        docs: &[impl AsRef<str>],
        mut sink: impl FnMut(DocOutcome),
    ) -> Result<EvalStats, CorpusError> {
        self.run(query, strategy, self.doc_targets(docs)?, Some(&mut sink))
            .map(|(_, stats)| stats)
    }

    /// `(name, shard)` for a subset of document names, deduplicated and in
    /// name order; an unknown name fails the whole call.
    fn doc_targets(&self, docs: &[impl AsRef<str>]) -> Result<Vec<(String, usize)>, CorpusError> {
        let mut names: Vec<&str> = docs.iter().map(AsRef::as_ref).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                self.corpus
                    .shard_of(name)
                    .map(|shard| (name.to_string(), shard))
                    .ok_or_else(|| CorpusError::UnknownDocument(name.to_string()))
            })
            .collect()
    }

    /// The fan-out core. `targets` is `(name, shard)` in name order; the
    /// returned outcomes keep that order. With a `sink`, each outcome is
    /// emitted in that order *as it completes* instead (and the returned
    /// vec is empty). The sink runs on the calling thread with no session
    /// lock held, so it may block (e.g. on a socket write) without stalling
    /// shard workers — though a blocked sink does hold this fan-out's
    /// admission permit.
    fn run(
        &self,
        query: &str,
        strategy: Strategy,
        targets: Vec<(String, usize)>,
        mut sink: Option<&mut dyn FnMut(DocOutcome)>,
    ) -> Result<(Vec<DocOutcome>, EvalStats), CorpusError> {
        let fanout_histo = self.fanout_latency.get();
        let fanout_start = fanout_histo.map(|_| Instant::now());
        // Pin the artifact-GC epoch for the whole fan-out: a durable
        // replace/remove committed while this request runs cannot unlink
        // the generation it is reading until the guard drops.
        let _epoch = self.corpus.pin();
        let _permit = self.admission.enter()?;
        if targets.is_empty() {
            return Ok((Vec::new(), EvalStats::default()));
        }
        // Group the name-ordered targets by shard, remembering each
        // document's slot in the merged output.
        let mut per_shard: Vec<Vec<(usize, String)>> = vec![Vec::new(); self.shards.len()];
        for (slot, (name, shard)) in targets.iter().enumerate() {
            per_shard[*shard].push((slot, name.clone()));
        }
        let out: ResultSlots = Arc::new(Mutex::new((0..targets.len()).map(|_| None).collect()));
        let latch = Arc::new(Latch::new(targets.len(), sink.is_some()));
        let query: Arc<str> = Arc::from(query);
        #[cfg(test)]
        let gate = self.eval_gate.lock().expect("gate poisoned").clone();
        // Next slot a streaming sink is owed (slots strictly below it have
        // been taken and emitted already).
        let mut emitted = 0usize;

        for (s, docs) in per_shard.into_iter().enumerate() {
            if docs.is_empty() {
                continue;
            }
            let shard = &self.shards[s];
            let job = Arc::new(ShardJob {
                query: Arc::clone(&query),
                strategy,
                cursor: Cursor::new(docs.len()),
                docs,
                out: Arc::clone(&out),
                latch: Arc::clone(&latch),
                queue_wait: shard
                    .queue_wait
                    .get()
                    .filter(|_| self.workers_per_shard > 0)
                    .map(|histo| QueueWaitProbe {
                        published: Instant::now(),
                        recorded: AtomicBool::new(false),
                        histo: Arc::clone(histo),
                    }),
                #[cfg(test)]
                gate: gate.clone(),
            });
            if self.workers_per_shard == 0 {
                // Serial reference mode: the caller serves each shard in
                // order, with a fresh scratch per *shard* — evaluator state
                // never crosses shards, as in pooled mode.
                job.run(&shard.session, &mut EvalScratch::new());
                if let Some(sink) = sink.as_deref_mut() {
                    emitted = drain_ready(&targets, &out, emitted, sink);
                }
                continue;
            }
            // Up to `limit` pinned workers join the job, one per handle.
            let limit = self.workers_per_shard.min(job.docs.len());
            let session = Arc::clone(&shard.session);
            shard.pool.grow(
                limit,
                |w| format!("xwq-shard{s}-w{w}"),
                move |scratch: &mut EvalScratch, job: Arc<ShardJob>| job.run(&session, scratch),
            );
            shard.pool.push_n(job, limit);
        }
        // In pooled mode the caller never works a shard itself — it would
        // break pinning — so it waits on the latch. A streaming sink drains
        // the completed name-order prefix on every tick: a document's slot
        // is written before its tick (see `Latch::work`), so each wakeup can
        // only ever find *more* of the prefix complete.
        let mut left = targets.len();
        while left > 0 {
            left = latch.wait_below(left);
            if let Some(sink) = sink.as_deref_mut() {
                emitted = drain_ready(&targets, &out, emitted, sink);
            }
        }
        let totals = latch.wait();

        let mut slots = out.lock().expect("corpus results poisoned");
        let outcomes = targets
            .into_iter()
            .zip(slots.iter_mut())
            .skip(emitted)
            .map(|((doc, shard), slot)| DocOutcome {
                doc,
                shard,
                result: slot.take().expect("every document answered exactly once"),
            })
            .collect();
        if let (Some(histo), Some(start)) = (fanout_histo, fanout_start) {
            histo.record(start.elapsed().as_nanos() as u64);
        }
        Ok((outcomes, totals))
    }
}

impl fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.shards.len())
            .field("docs", &self.corpus.len())
            .field("workers_per_shard", &self.workers_per_shard)
            .field("total_workers", &self.total_workers())
            .field("admission", &self.admission.stats())
            .finish()
    }
}

/// One fan-out's slice for one shard, shared by the pinned workers holding
/// its handles.
struct ShardJob {
    query: Arc<str>,
    strategy: Strategy,
    /// `(merged-output slot, document name)` — only documents placed on
    /// this job's shard.
    docs: Vec<(usize, String)>,
    cursor: Cursor,
    /// The corpus-wide merged output, shared by every shard's job.
    out: ResultSlots,
    /// The corpus-wide completion latch, shared by every shard's job.
    latch: Arc<Latch>,
    /// Queue-wait telemetry: the first claiming worker records how long
    /// the job sat published before any worker picked it up.
    queue_wait: Option<QueueWaitProbe>,
    /// Slow-shard test fixture (see [`ShardedSession::eval_gate`]).
    #[cfg(test)]
    gate: Option<EvalGate>,
}

impl ShardJob {
    /// Answers this shard's documents until the job's cursor runs out.
    /// `session` is the *shard's* session; `scratch` the calling worker's
    /// lifetime scratch.
    fn run(&self, session: &Session, scratch: &mut EvalScratch) {
        if let Some(probe) = &self.queue_wait {
            probe.record_first_claim();
        }
        self.latch.work(&self.cursor, scratch, |i, scratch| {
            let (slot, name) = &self.docs[i];
            #[cfg(test)]
            if let Some(gate) = &self.gate {
                gate(name);
            }
            let result = session.query_with_scratch(name, &self.query, self.strategy, scratch);
            let stats = result.as_ref().map(|resp| resp.stats).unwrap_or_default();
            self.out.lock().expect("corpus results poisoned")[*slot] = Some(result);
            stats
        });
    }
}

/// Takes and emits the contiguous completed prefix of `out` starting at
/// `emitted`, returning the new high-water mark. Each slot is taken under
/// the lock but handed to the sink with no lock held.
fn drain_ready(
    targets: &[(String, usize)],
    out: &ResultSlots,
    mut emitted: usize,
    sink: &mut dyn FnMut(DocOutcome),
) -> usize {
    loop {
        let taken = {
            let mut slots = out.lock().expect("corpus results poisoned");
            if emitted < targets.len() && slots[emitted].is_some() {
                slots[emitted].take()
            } else {
                None
            }
        };
        let Some(result) = taken else {
            return emitted;
        };
        let (doc, shard) = targets[emitted].clone();
        sink(DocOutcome { doc, shard, result });
        emitted += 1;
    }
}

/// Telemetry carried on a published job (see [`ShardJob::queue_wait`]).
struct QueueWaitProbe {
    published: Instant,
    recorded: AtomicBool,
    histo: Arc<LatencyHisto>,
}

impl QueueWaitProbe {
    /// Records the publish→first-claim delay, once per job.
    fn record_first_claim(&self) {
        // AcqRel (upgraded from Relaxed): exactly-once already follows from
        // the swap's total modification order, but with Relaxed the winner's
        // histogram write was unordered with the flag — a thread observing
        // `recorded == true` could not assume the sample had landed, and the
        // `published` read had no edge of its own to the publisher beyond
        // the queue mutex this probe is documented not to rely on. AcqRel
        // makes "flag set ⇒ sample recorded" a real happens-before claim.
        if !self.recorded.swap(true, Ordering::AcqRel) {
            self.histo
                .record(self.published.elapsed().as_nanos() as u64);
        }
    }
}

/// The bounded admission queue: a **ticketed FIFO** gate with an explicit
/// waiting cap. Pure std (mutex + condvar), like the pools.
///
/// Every caller that cannot be admitted immediately takes a monotonically
/// increasing ticket; slots freed by departing permits go to the lowest
/// outstanding ticket, so waiters are admitted strictly in arrival order.
/// (The previous design woke waiters in whatever order the condvar chose,
/// so a late arrival could starve an early one under sustained load.) A
/// newly arriving caller never jumps the queue either: with any ticket
/// outstanding, a free slot belongs to the head waiter, and the arrival
/// takes the next ticket behind it.
struct Admission {
    config: AdmissionConfig,
    state: Mutex<AdmissionState>,
    cv: Condvar,
    // The four counters below are monotonic statistics: every access is a
    // single Relaxed RMW or load, nothing branches on them inside the
    // protocol, and `stats()` promises only an eventually-consistent
    // snapshot — so Relaxed is sufficient for all of them (each site says
    // so by citing this invariant).
    admitted: AtomicU64,
    waited: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    telemetry: OnceLock<AdmissionTelemetry>,
}

/// The gate's ticket dispenser. Waiting callers are exactly the tickets
/// issued but neither served nor abandoned, so the parked-caller count
/// needs no separate bookkeeping (and cannot drift from the queue's true
/// state).
#[derive(Default)]
struct AdmissionState {
    /// Fan-outs currently holding a permit.
    active: usize,
    /// The next ticket to hand out.
    next_ticket: u64,
    /// The lowest ticket not yet admitted; `serving == next_ticket` means
    /// nobody is waiting.
    serving: u64,
    /// Tickets whose holders timed out while parked behind `serving`;
    /// skipped (and forgotten) when `serving` reaches them, so a
    /// withdrawal never stalls the FIFO order behind it.
    abandoned: BTreeSet<u64>,
}

impl AdmissionState {
    fn waiting(&self) -> usize {
        (self.next_ticket - self.serving) as usize - self.abandoned.len()
    }

    /// Moves `serving` past any abandoned successors. Must run after every
    /// `serving` advance so `serving` never rests on a ticket nobody holds
    /// (which would park the whole queue until its timeout).
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.serving) {
            self.serving += 1;
        }
    }
}

/// Registry wiring for the gate (see [`Admission::enable_telemetry`]).
struct AdmissionTelemetry {
    admitted: Arc<Counter>,
    waited: Arc<Counter>,
    rejected: Arc<Counter>,
    timed_out: Arc<Counter>,
    /// Records 0 for immediate admissions too, so the percentiles describe
    /// *all* callers, not just the unlucky ones.
    wait_ns: Arc<LatencyHisto>,
}

/// Held for the duration of one admitted fan-out; releases the slot (and
/// wakes the head waiter) on drop, including during unwinding.
struct AdmissionPermit<'a>(&'a Admission);

impl Admission {
    fn new(mut config: AdmissionConfig) -> Self {
        config.max_active = config.max_active.max(1);
        Self {
            config,
            state: Mutex::new(AdmissionState::default()),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            waited: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Wires the gate into a metrics [`Registry`]. Idempotent; until
    /// called, `enter` touches no telemetry.
    fn enable_telemetry(&self, registry: &Registry) {
        registry.describe(
            "xwq_admission_admitted_total",
            "Fan-outs admitted through the gate, immediately or after waiting",
        );
        registry.describe(
            "xwq_admission_waited_total",
            "Fan-outs that took a ticket and waited before admission",
        );
        registry.describe(
            "xwq_admission_rejected_total",
            "Fan-outs rejected because the admission wait queue was full",
        );
        registry.describe(
            "xwq_admission_timeout_total",
            "Waiters that abandoned the queue when their admission deadline expired",
        );
        registry.describe(
            "xwq_admission_wait_ns",
            "Admission wait latency in nanoseconds (0 for immediate admissions)",
        );
        let _ = self.telemetry.set(AdmissionTelemetry {
            admitted: registry.counter("xwq_admission_admitted_total"),
            waited: registry.counter("xwq_admission_waited_total"),
            rejected: registry.counter("xwq_admission_rejected_total"),
            timed_out: registry.counter("xwq_admission_timeout_total"),
            wait_ns: registry.histo("xwq_admission_wait_ns"),
        });
    }

    fn enter(&self) -> Result<AdmissionPermit<'_>, CorpusError> {
        self.enter_ticketed().map(|(permit, _)| permit)
    }

    /// [`Self::enter`], also reporting the FIFO ticket this caller waited
    /// on (`None` for an immediate admission). The ticket is how the
    /// model-checking harness asserts arrival-order admission across all
    /// interleavings; production callers go through [`Self::enter`].
    fn enter_ticketed(&self) -> Result<(AdmissionPermit<'_>, Option<u64>), CorpusError> {
        let telemetry = self.telemetry.get();
        let mut state = self.state.lock().expect("admission poisoned");
        let mut waited_on = None;
        if state.active >= self.config.max_active || state.waiting() > 0 {
            if state.waiting() >= self.config.max_waiting {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = telemetry {
                    t.rejected.inc();
                }
                return Err(CorpusError::Overloaded {
                    active: state.active,
                    waiting: state.waiting(),
                });
            }
            let me = state.next_ticket;
            state.next_ticket += 1;
            waited_on = Some(me);
            self.waited.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = telemetry {
                t.waited.inc();
            }
            let start = telemetry.map(|_| Instant::now());
            let deadline = self.config.timeout.map(|d| Instant::now() + d);
            while !(state.serving == me && state.active < self.config.max_active) {
                match deadline {
                    None => state = self.cv.wait(state).expect("admission poisoned"),
                    Some(deadline) => {
                        let (guard, timed_out) = wait_deadline(&self.cv, state, deadline);
                        state = guard;
                        // A wake that is simultaneously a timeout and an
                        // admission goes to admission: re-check the
                        // predicate before withdrawing (under `--cfg model`
                        // the timeout is a scheduler choice, so both orders
                        // of that race are explored).
                        if timed_out
                            && !(state.serving == me && state.active < self.config.max_active)
                        {
                            // Withdraw the ticket. As the head waiter,
                            // hand `serving` on (and skip other
                            // abandoners) so the queue behind never
                            // stalls; otherwise leave a tombstone for
                            // `serving` to skip when it gets here.
                            if state.serving == me {
                                state.serving += 1;
                                state.skip_abandoned();
                            } else {
                                state.abandoned.insert(me);
                            }
                            self.timed_out.fetch_add(1, Ordering::Relaxed);
                            if let Some(t) = telemetry {
                                t.timed_out.inc();
                            }
                            let err = CorpusError::Overloaded {
                                active: state.active,
                                waiting: state.waiting(),
                            };
                            drop(state);
                            self.cv.notify_all();
                            return Err(err);
                        }
                    }
                };
            }
            state.serving += 1;
            state.skip_abandoned();
            if let (Some(t), Some(start)) = (telemetry, start) {
                t.wait_ns.record(start.elapsed().as_nanos() as u64);
            }
        } else if let Some(t) = telemetry {
            t.wait_ns.record(0);
        }
        state.active += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = telemetry {
            t.admitted.inc();
        }
        drop(state);
        // With max_active > 1 there may still be a free slot for the next
        // ticket holder — wake the queue so its head can check.
        self.cv.notify_all();
        Ok((AdmissionPermit(self), waited_on))
    }

    fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            waited: self.waited.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
        }
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().expect("admission poisoned");
        state.active -= 1;
        drop(state);
        // notify_all, not notify_one: only the head ticket's holder may
        // proceed, and a single wake could land on a later ticket, which
        // would re-park and strand the queue.
        self.0.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementPolicy;
    use xwq_index::TopologyKind;

    fn corpus(shards: usize) -> Arc<Corpus> {
        let corpus = Corpus::new(shards, PlacementPolicy::RoundRobin);
        corpus
            .add_xml("alpha", "<r><x><y/></x><x/></r>", TopologyKind::Array)
            .unwrap();
        corpus
            .add_xml("beta", "<r><y/><x><y/></x></r>", TopologyKind::Succinct)
            .unwrap();
        corpus
            .add_xml("gamma", "<r><x/><x><y/></x><x/></r>", TopologyKind::Array)
            .unwrap();
        Arc::new(corpus)
    }

    #[test]
    fn fan_out_merges_in_name_order_and_matches_serial() {
        let corpus = corpus(2);
        let serial = ShardedSession::new(Arc::clone(&corpus), 0);
        let expect = serial.query_corpus("//x[y]", Strategy::Auto).unwrap();
        assert_eq!(
            expect.iter().map(|o| o.doc.as_str()).collect::<Vec<_>>(),
            vec!["alpha", "beta", "gamma"]
        );
        assert_eq!(serial.total_workers(), 0, "serial mode spawns no workers");
        for workers in [1, 2, 8] {
            let pooled = ShardedSession::new(Arc::clone(&corpus), workers);
            let got = pooled.query_corpus("//x[y]", Strategy::Auto).unwrap();
            assert_eq!(got.len(), expect.len());
            for (a, b) in expect.iter().zip(&got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(
                    a.result.as_ref().unwrap().nodes,
                    b.result.as_ref().unwrap().nodes,
                    "doc {} at {workers} workers",
                    a.doc
                );
            }
        }
    }

    #[test]
    fn streaming_emission_matches_materialized_merge_across_combos() {
        for shards in [1, 2, 3] {
            let corpus = corpus(shards);
            let serial = ShardedSession::new(Arc::clone(&corpus), 0);
            let (expect, expect_stats) =
                serial.query_corpus_stats("//x[y]", Strategy::Auto).unwrap();
            for workers in [0, 1, 2, 8] {
                let session = ShardedSession::new(Arc::clone(&corpus), workers);
                let mut streamed = Vec::new();
                let stats = session
                    .query_corpus_streaming("//x[y]", Strategy::Auto, |o| streamed.push(o))
                    .unwrap();
                assert_eq!(stats, expect_stats, "{shards} shards {workers} workers");
                assert_eq!(streamed.len(), expect.len());
                for (a, b) in expect.iter().zip(&streamed) {
                    assert_eq!((a.doc.as_str(), a.shard), (b.doc.as_str(), b.shard));
                    assert_eq!(
                        a.result.as_ref().unwrap().nodes,
                        b.result.as_ref().unwrap().nodes,
                        "doc {} at {shards} shards {workers} workers",
                        a.doc
                    );
                }
                // Subset streaming too, including the error outcome path.
                let mut subset = Vec::new();
                session
                    .query_docs_streaming("//x[y]", Strategy::Auto, &["gamma", "alpha"], |o| {
                        subset.push(o.doc)
                    })
                    .unwrap();
                assert_eq!(subset, vec!["alpha", "gamma"]);
            }
        }
    }

    /// The slow-shard fixture: "beta" (alone on shard 1 of 2 under
    /// round-robin) blocks inside evaluation until the test releases it.
    /// The streaming sink must receive "alpha" — a different shard's
    /// document — while "beta" is still blocked, proving emission is
    /// incremental rather than gated on the full corpus latch. A merge
    /// that waited for every shard would deadlock here (bounded by the
    /// receive timeout) instead of passing.
    #[test]
    fn streaming_delivers_first_document_before_slow_shard_finishes() {
        use std::sync::mpsc;
        let corpus = corpus(2);
        let session = Arc::new(ShardedSession::new(Arc::clone(&corpus), 1));
        let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let gate = {
            let release = Arc::clone(&release);
            Arc::new(move |name: &str| {
                if name == "beta" {
                    let (lock, cv) = &*release;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
            }) as EvalGate
        };
        *session.eval_gate.lock().unwrap() = Some(gate);

        let (tx, rx) = mpsc::channel();
        let worker = {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                session
                    .query_corpus_streaming("//x", Strategy::Auto, |o| tx.send(o.doc).unwrap())
                    .unwrap()
            })
        };
        let first = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("first outcome must arrive while the slow shard is still blocked");
        assert_eq!(first, "alpha");
        // Only now let "beta" evaluate; the rest of the stream follows.
        {
            let (lock, cv) = &*release;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let rest: Vec<String> = rx.into_iter().collect();
        assert_eq!(rest, vec!["beta", "gamma"]);
        worker.join().unwrap();
    }

    /// A panicking evaluation surfaces in its own fan-out's caller and
    /// leaves the pinned pools whole: the next fan-out answers every
    /// document with the same workers.
    #[test]
    fn evaluation_panic_surfaces_and_the_pools_survive() {
        let corpus = corpus(2);
        let session = ShardedSession::new(Arc::clone(&corpus), 1);
        let nodes = |out: Vec<DocOutcome>| -> Vec<Vec<u32>> {
            out.into_iter().map(|o| o.result.unwrap().nodes).collect()
        };
        let expect = nodes(session.query_corpus("//x", Strategy::Auto).unwrap());
        let workers = |s: &ShardedSession| (0..2).map(|i| s.shard_workers(i)).collect::<Vec<_>>();
        let before = workers(&session);
        *session.eval_gate.lock().unwrap() = Some(Arc::new(|name: &str| {
            assert_ne!(name, "beta", "injected evaluation panic");
        }) as EvalGate);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.query_corpus("//x", Strategy::Auto)
        }));
        assert!(caught.is_err(), "the fan-out's caller surfaces the panic");
        *session.eval_gate.lock().unwrap() = None;
        let again = nodes(session.query_corpus("//x", Strategy::Auto).unwrap());
        assert_eq!(again, expect, "every document answered after the panic");
        assert_eq!(workers(&session), before);
    }

    #[test]
    fn workers_are_pinned_and_capped_per_shard() {
        let corpus = corpus(2);
        let session = ShardedSession::new(Arc::clone(&corpus), 8);
        session.query_corpus("//y", Strategy::Optimized).unwrap();
        for s in 0..corpus.shard_count() {
            let docs_on_shard = corpus
                .placements()
                .iter()
                .filter(|(_, shard)| *shard == s)
                .count();
            assert!(
                session.shard_workers(s) <= docs_on_shard,
                "shard {s}: {} workers for {docs_on_shard} docs",
                session.shard_workers(s)
            );
        }
        // A second identical fan-out reuses the pools (no growth) and the
        // per-shard compiled-query caches.
        let before = session.total_workers();
        session.query_corpus("//y", Strategy::Optimized).unwrap();
        assert_eq!(session.total_workers(), before);
        let cache = session.cache_stats();
        assert_eq!(cache.hits, 3, "second round hits every per-shard cache");
    }

    #[test]
    fn concurrent_fan_outs_share_the_pools_without_losing_jobs() {
        // Several admitted callers publish jobs to the same per-shard
        // pools side by side; with a single job slot (instead of the job
        // queue) a later publish would overwrite an unclaimed earlier job
        // and strand its caller on the latch forever. Every call must
        // complete with correct, identically-ordered results.
        let corpus = corpus(2);
        let session = Arc::new(ShardedSession::with_config(
            Arc::clone(&corpus),
            ShardedConfig {
                workers_per_shard: 1,
                admission: AdmissionConfig {
                    max_active: 8,
                    max_waiting: 64,
                    timeout: None,
                },
                ..ShardedConfig::default()
            },
        ));
        let expect: Vec<Vec<u32>> = session
            .query_corpus("//x[y]", Strategy::Optimized)
            .unwrap()
            .into_iter()
            .map(|o| o.result.unwrap().nodes)
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let session = Arc::clone(&session);
                let expect = expect.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let got: Vec<Vec<u32>> = session
                            .query_corpus("//x[y]", Strategy::Optimized)
                            .unwrap()
                            .into_iter()
                            .map(|o| o.result.unwrap().nodes)
                            .collect();
                        assert_eq!(got, expect);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(session.admission_stats().admitted, 8 * 20 + 1);
        assert_eq!(session.admission_stats().rejected, 0);
    }

    #[test]
    fn subset_queries_validate_names_up_front() {
        let session = ShardedSession::new(corpus(2), 1);
        let out = session
            .query_docs("//x", Strategy::Auto, &["gamma", "alpha", "gamma"])
            .unwrap();
        assert_eq!(
            out.iter().map(|o| o.doc.as_str()).collect::<Vec<_>>(),
            vec!["alpha", "gamma"],
            "subset is deduped and name-ordered"
        );
        assert!(matches!(
            session.query_docs("//x", Strategy::Auto, &["alpha", "nope"]),
            Err(CorpusError::UnknownDocument(n)) if n == "nope"
        ));
    }

    #[test]
    fn per_document_errors_do_not_abort_the_fan_out() {
        let session = ShardedSession::new(corpus(2), 2);
        let out = session.query_corpus("//[", Strategy::Auto).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|o| matches!(o.result, Err(SessionError::Query(_)))));
    }

    #[test]
    fn empty_corpus_serves_empty_answers() {
        let corpus = Arc::new(Corpus::new(2, PlacementPolicy::RoundRobin));
        let session = ShardedSession::new(corpus, 4);
        assert!(session
            .query_corpus("//x", Strategy::Auto)
            .unwrap()
            .is_empty());
        assert_eq!(session.total_workers(), 0);
    }

    #[test]
    fn admission_gate_counts_and_rejects() {
        let admission = Admission::new(AdmissionConfig {
            max_active: 1,
            max_waiting: 0,
            timeout: None,
        });
        let first = admission.enter().unwrap();
        // Queue full (no waiting allowed): immediate rejection.
        assert!(matches!(
            admission.enter(),
            Err(CorpusError::Overloaded {
                active: 1,
                waiting: 0
            })
        ));
        drop(first);
        let second = admission.enter().unwrap();
        drop(second);
        let stats = admission.stats();
        assert_eq!((stats.admitted, stats.waited, stats.rejected), (2, 0, 1));
    }

    #[test]
    fn admission_waiters_are_released_in_bounded_order() {
        let admission = Arc::new(Admission::new(AdmissionConfig {
            max_active: 1,
            max_waiting: 8,
            timeout: None,
        }));
        let permit = admission.enter().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let admission = Arc::clone(&admission);
                std::thread::spawn(move || {
                    let permit = admission.enter().unwrap();
                    drop(permit);
                })
            })
            .collect();
        // Give the waiters time to park, then open the gate.
        while admission.stats().waited < 4 {
            std::thread::yield_now();
        }
        drop(permit);
        for h in handles {
            h.join().unwrap();
        }
        let stats = admission.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn admission_releases_waiters_in_strict_fifo_order() {
        let admission = Arc::new(Admission::new(AdmissionConfig {
            max_active: 1,
            max_waiting: 8,
            timeout: None,
        }));
        let order = Arc::new(Mutex::new(Vec::new()));
        let permit = admission.enter().unwrap();
        let mut handles = Vec::new();
        for i in 0..6u32 {
            let waited_before = admission.stats().waited;
            let gate = Arc::clone(&admission);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = gate.enter().unwrap();
                order.lock().unwrap().push(i);
                drop(permit);
            }));
            // Tickets are issued under the gate's mutex, so once the
            // waited counter moves this waiter's ticket is fixed and the
            // next spawn queues strictly behind it.
            while admission.stats().waited == waited_before {
                std::thread::yield_now();
            }
        }
        drop(permit);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec![0, 1, 2, 3, 4, 5],
            "waiters must be admitted in arrival order"
        );
    }

    #[test]
    fn admission_timeout_returns_overloaded_and_counts() {
        let admission = Arc::new(Admission::new(AdmissionConfig {
            max_active: 1,
            max_waiting: 8,
            timeout: Some(Duration::from_millis(20)),
        }));
        let permit = admission.enter().unwrap();
        let gate = Arc::clone(&admission);
        let waiter = std::thread::spawn(move || gate.enter().map(drop));
        while admission.stats().waited < 1 {
            std::thread::yield_now();
        }
        // The held permit outlives the waiter's deadline.
        let result = waiter.join().unwrap();
        assert!(matches!(result, Err(CorpusError::Overloaded { .. })));
        let stats = admission.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.admitted, 1);
        drop(permit);
        // The gate still works after the withdrawal.
        drop(admission.enter().unwrap());
        assert_eq!(admission.stats().admitted, 2);
    }

    #[test]
    fn timed_out_waiters_do_not_stall_the_queue_behind_them() {
        // Two waiters park and both abandon: the one behind the head
        // leaves a tombstone, the head hands `serving` past it. A fresh
        // waiter arriving afterwards (full deadline ahead of it) must
        // still be admitted the moment the permit frees — abandoned
        // tickets may not wedge `serving`.
        let admission = Arc::new(Admission::new(AdmissionConfig {
            max_active: 1,
            max_waiting: 8,
            timeout: Some(Duration::from_millis(25)),
        }));
        let permit = admission.enter().unwrap();
        let quitters: Vec<_> = (0..2u64)
            .map(|i| {
                let gate = Arc::clone(&admission);
                let t = std::thread::spawn(move || gate.enter().map(drop));
                // Ticket order is fixed once the waited counter moves.
                while admission.stats().waited < i + 1 {
                    std::thread::yield_now();
                }
                t
            })
            .collect();
        for q in quitters {
            assert!(matches!(
                q.join().unwrap(),
                Err(CorpusError::Overloaded { .. })
            ));
        }
        assert_eq!(admission.stats().timed_out, 2);
        // Both tickets are withdrawn; a fresh waiter starts its own clock.
        let gate = Arc::clone(&admission);
        let stayer = std::thread::spawn(move || gate.enter().map(drop));
        while admission.stats().waited < 3 {
            std::thread::yield_now();
        }
        drop(permit);
        assert!(stayer.join().unwrap().is_ok());
        let stats = admission.stats();
        assert_eq!((stats.admitted, stats.timed_out), (2, 2));
    }

    #[test]
    fn session_config_timeout_reaches_the_gate() {
        let corpus = corpus(1);
        let session = ShardedSession::with_config(
            corpus,
            ShardedConfig {
                workers_per_shard: 1,
                admission: AdmissionConfig {
                    max_active: 1,
                    max_waiting: 4,
                    timeout: Some(Duration::from_millis(10)),
                },
                ..ShardedConfig::default()
            },
        );
        let registry = Registry::new();
        session.enable_telemetry(&registry);
        let _permit = session.admission.enter().unwrap();
        // This caller waits behind the held permit and times out.
        assert!(matches!(
            session.query_corpus("//x", Strategy::Auto),
            Err(CorpusError::Overloaded { .. })
        ));
        assert_eq!(session.admission_stats().timed_out, 1);
        let text = registry.render(xwq_obs::RenderFormat::Prometheus);
        assert!(
            text.contains("xwq_admission_timeout_total 1"),
            "timeout counter must export:\n{text}"
        );
    }

    #[test]
    fn corpus_stats_totals_match_serial_across_worker_counts() {
        // Hybrid compiles to a pure spine plan: per-request stats carry no
        // memo warmth, so a fresh session yields identical stats per
        // document regardless of worker count or claim order.
        let corpus = corpus(2);
        let serial = ShardedSession::new(Arc::clone(&corpus), 0);
        let (outcomes, serial_totals) = serial
            .query_corpus_stats("//x[y]", Strategy::Hybrid)
            .unwrap();
        let mut summed = EvalStats::default();
        for o in &outcomes {
            summed.accumulate(&o.result.as_ref().unwrap().stats);
        }
        assert_eq!(
            serial_totals, summed,
            "serial totals equal the sum over outcomes"
        );
        for workers in [1, 2, 8] {
            let pooled = ShardedSession::new(Arc::clone(&corpus), workers);
            let (out, totals) = pooled
                .query_corpus_stats("//x[y]", Strategy::Hybrid)
                .unwrap();
            assert_eq!(out.len(), outcomes.len());
            assert_eq!(totals, serial_totals, "{workers} workers");
        }
    }

    #[test]
    fn telemetry_covers_fanout_queue_wait_and_admission() {
        let corpus = corpus(2);
        let session = ShardedSession::new(Arc::clone(&corpus), 2);
        let registry = Registry::new();
        session.enable_telemetry(&registry);
        session.query_corpus("//x[y]", Strategy::Auto).unwrap();
        session.query_corpus("//x[y]", Strategy::Auto).unwrap();
        let text = registry.render(xwq_obs::RenderFormat::Prometheus);
        assert!(
            text.contains("xwq_corpus_fanout_latency_ns_count 2"),
            "fan-out histogram counts both calls:\n{text}"
        );
        assert!(
            text.contains("xwq_shard_queue_wait_ns"),
            "queue-wait histogram is registered:\n{text}"
        );
        assert!(
            text.contains("xwq_admission_admitted_total 2"),
            "admission counters move:\n{text}"
        );
        assert!(
            text.contains("xwq_session_query_latency_ns_count{shard=\"0\"}"),
            "per-shard session latency is labelled:\n{text}"
        );
    }

    #[test]
    fn sharded_session_rejects_when_overloaded() {
        let corpus = corpus(1);
        let session = Arc::new(ShardedSession::with_config(
            corpus,
            ShardedConfig {
                workers_per_shard: 1,
                admission: AdmissionConfig {
                    max_active: 1,
                    max_waiting: 0,
                    timeout: None,
                },
                ..ShardedConfig::default()
            },
        ));
        // Hold the only admission slot on another thread long enough for
        // this thread to observe the rejection.
        let holder = Arc::clone(&session);
        let gate = Arc::new((Mutex::new(0u8), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            let _permit = holder.admission.enter().unwrap();
            let (stage, cv) = &*gate2;
            *stage.lock().unwrap() = 1;
            cv.notify_all();
            let mut stage = stage.lock().unwrap();
            while *stage < 2 {
                stage = cv.wait(stage).unwrap();
            }
        });
        let (stage, cv) = &*gate;
        {
            let mut stage = stage.lock().unwrap();
            while *stage < 1 {
                stage = cv.wait(stage).unwrap();
            }
        }
        assert!(matches!(
            session.query_corpus("//x", Strategy::Auto),
            Err(CorpusError::Overloaded { .. })
        ));
        assert_eq!(session.admission_stats().rejected, 1);
        *stage.lock().unwrap() = 2;
        cv.notify_all();
        t.join().unwrap();
        // The slot is free again.
        assert!(session.query_corpus("//x", Strategy::Auto).is_ok());
    }
}

/// Exhaustive model checks of this module's concurrency protocols. Only
/// built under `RUSTFLAGS="--cfg model"`, where `xwq_store::sync` resolves to
/// the `xwq_verify` shims: every test body runs once per schedule the
/// deterministic scheduler can construct within the preemption bound, and
/// the assertions must hold on *all* of them. A failure panics with a
/// seed that `XWQ_MODEL_REPLAY` replays deterministically.
#[cfg(all(test, model))]
mod model_tests {
    use super::*;
    use xwq_store::sync::thread as sync_thread;
    use xwq_verify::Config;

    /// Preemption bound 2 covers every bug class this repo has shipped
    /// (see `crates/verify/tests/pr5_race.rs`): one unforced switch to
    /// open a race window, one to land in it.
    fn cfg() -> Config {
        Config {
            preemption_bound: Some(2),
            ..Config::default()
        }
    }

    /// FIFO admission under every interleaving: two callers race for
    /// tickets behind a held permit; whoever drew the lower ticket must be
    /// admitted first, and the gate must end fully drained.
    #[test]
    fn model_admission_gate_is_fifo_and_drains() {
        let report = xwq_verify::check("admission-fifo", cfg(), || {
            let admission = Arc::new(Admission::new(AdmissionConfig {
                max_active: 1,
                max_waiting: 4,
                timeout: None,
            }));
            // Admission order log. With `max_active == 1` a holder logs its
            // ticket *before* releasing the permit, so log order is exactly
            // admission order.
            let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let head = admission.enter().unwrap();
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&admission);
                    let log = Arc::clone(&log);
                    sync_thread::spawn(move || {
                        let (permit, ticket) = gate.enter_ticketed().unwrap();
                        if let Some(t) = ticket {
                            log.lock().unwrap().push(t);
                        }
                        drop(permit);
                    })
                })
                .collect();
            drop(head);
            for w in waiters {
                w.join().unwrap();
            }
            let log = log.lock().unwrap();
            assert!(
                log.windows(2).all(|w| w[0] < w[1]),
                "tickets admitted out of arrival order: {log:?}"
            );
            let state = admission.state.lock().unwrap();
            assert_eq!(state.active, 0);
            assert_eq!(state.serving, state.next_ticket, "queue fully drained");
            assert!(state.abandoned.is_empty());
            drop(state);
            assert_eq!(admission.stats().admitted, 3);
        });
        // A floor on the explored-schedule count: if the cfg wiring ever
        // degrades the shims to passthrough, exploration collapses to one
        // schedule and this catches it.
        assert!(report.schedules > 50, "exploration collapsed: {report:?}");
        assert!(report.complete, "schedule tree exhausted: {report:?}");
    }

    /// Timeout withdrawal under every interleaving: with a deadline
    /// configured, the model scheduler chooses nondeterministically at each
    /// wake whether a waiter's deadline has expired, so this explores head
    /// hand-off, behind-the-head tombstones, and the timeout-vs-admission
    /// tie (admission must win). Invariants: nobody strands (the check
    /// itself fails on deadlock), the gate drains, and every caller is
    /// accounted admitted or timed out.
    #[test]
    fn model_admission_timeout_hands_off_and_strands_nobody() {
        let report = xwq_verify::check("admission-timeout", cfg(), || {
            let admission = Arc::new(Admission::new(AdmissionConfig {
                max_active: 1,
                max_waiting: 4,
                // The duration is irrelevant under `--cfg model`: expiry is
                // a scheduler decision, not a clock read.
                timeout: Some(Duration::from_millis(1)),
            }));
            let head = admission.enter().unwrap();
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&admission);
                    sync_thread::spawn(move || match gate.enter() {
                        Ok(permit) => {
                            drop(permit);
                            true
                        }
                        Err(CorpusError::Overloaded { .. }) => false,
                        Err(e) => panic!("unexpected admission error: {e}"),
                    })
                })
                .collect();
            drop(head);
            let admitted_waiters = waiters
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|admitted| *admitted)
                .count() as u64;
            let state = admission.state.lock().unwrap();
            assert_eq!(state.active, 0);
            assert_eq!(
                state.serving, state.next_ticket,
                "withdrawn tickets may not wedge `serving`"
            );
            assert!(state.abandoned.is_empty(), "tombstones are consumed");
            drop(state);
            let stats = admission.stats();
            assert_eq!(stats.admitted, 1 + admitted_waiters);
            assert_eq!(stats.timed_out, 2 - admitted_waiters);
            assert_eq!(stats.rejected, 0);
        });
        // A floor on the explored-schedule count: if the cfg wiring ever
        // degrades the shims to passthrough, exploration collapses to one
        // schedule and this catches it.
        assert!(report.schedules > 50, "exploration collapsed: {report:?}");
        assert!(report.complete, "schedule tree exhausted: {report:?}");
    }
}
