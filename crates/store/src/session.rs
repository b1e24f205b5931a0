//! The [`Session`] serving layer: cached, batched query evaluation over a
//! shared [`DocumentStore`].
//!
//! A session holds an LRU cache of compiled queries keyed by
//! `(document, query, strategy)`, so a repeated query skips the
//! XPath→ASTA compile entirely and goes straight to plan execution.
//! Sessions are `Sync`: one session can serve many threads (the cache sits
//! behind a `Mutex`; hit/miss counters are atomics), or each connection
//! can hold its own session over the same store — compiled queries are
//! `Arc`-shared either way.
//!
//! [`Session::query_many`] additionally parallelizes *within* one batch on
//! a persistent [`Pool`]: long-lived workers (spawned lazily on the first
//! parallel batch) park between batches and claim requests from the
//! batch's shared [`Cursor`] — load balance is per-request, and the
//! per-batch cost is a wake-up instead of a thread spawn. Each worker owns
//! one [`EvalScratch`] for its whole lifetime, so the document-sized
//! visited bitset and the spine executor's memo tables are reused across
//! batches, not just within one. Results come back in request order; the
//! calling thread works the batch too, so progress never depends on the
//! pool.

use crate::lru::LruCache;
use crate::plans::{
    peek_index_checksum, plans_sidecar_path, write_plans_file_durable, PlanEntry, PlanSet,
};
use crate::pool::{Cursor, Latch, Pool};
use crate::sync::{Mutex, Ordering};
use crate::{DocumentStore, FormatError, StoredDocument};
use std::fmt;
use std::path::Path;
// The compiled-query cache and its hit/miss/eviction counters stay on
// plain `std` primitives even under `--cfg model` (see the `crate::sync`
// module docs): they are outside the modeled pool protocol, and no model
// yield point ever runs inside their critical sections.
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::Mutex as StdMutex;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use xwq_core::{CompiledQuery, EvalScratch, EvalStats, Program, QueryError, Strategy};
use xwq_obs::{Counter, LatencyHisto, Registry};
use xwq_xml::NodeId;

/// Default number of compiled queries kept per session.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Errors from serving a query.
#[derive(Debug)]
pub enum SessionError {
    /// The request named a document the store does not have.
    UnknownDocument(String),
    /// Parsing or compiling the query failed.
    Query(QueryError),
    /// Writing or binding a `.xwqp` plan sidecar failed.
    Persist(FormatError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownDocument(d) => write!(f, "no document named {d:?}"),
            SessionError::Query(e) => write!(f, "{e}"),
            SessionError::Persist(e) => write!(f, "persisting plans: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Query(e) => Some(e),
            SessionError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

/// One unit of work for [`Session::query_many`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Name of the document in the store.
    pub document: String,
    /// The XPath query text.
    pub query: String,
    /// Evaluation strategy.
    pub strategy: Strategy,
}

impl QueryRequest {
    /// A request with the given document and query, using the default
    /// strategy ([`Strategy::Auto`] — the cost-based planner).
    pub fn new(document: impl Into<String>, query: impl Into<String>) -> Self {
        Self {
            document: document.into(),
            query: query.into(),
            strategy: Strategy::default(),
        }
    }

    /// Overrides the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// The outcome of one served query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Selected nodes in document order.
    pub nodes: Vec<NodeId>,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// True if the compiled query came from the session cache.
    pub cache_hit: bool,
    /// True if [`Strategy::Hybrid`] fell back to the optimized automaton.
    pub hybrid_fallback: bool,
    /// True if this run's actual-vs-estimated visit feedback triggered a
    /// re-plan (subsequent runs use the replacement program).
    pub replanned: bool,
    /// Nanoseconds spent in the register VM's dispatch loop (0 when the
    /// query ran on the automaton path or selected nothing).
    pub vm_dispatch_ns: u64,
}

/// Cache observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from the compiled-query cache.
    pub hits: u64,
    /// Queries that had to compile.
    pub misses: u64,
    /// Compiled queries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// `(document name, document generation, query, strategy)`. The generation
/// (see [`StoredDocument::generation`]) makes entries compiled against a
/// removed-and-replaced document unreachable — without it, re-registering
/// a different document under the same name would serve stale automata
/// whose label ids and filter node lists belong to the old document.
type CacheKey = (String, u64, String, Strategy);

/// A serving session over a shared [`DocumentStore`].
pub struct Session {
    inner: Arc<SessionInner>,
    pool: Pool<Arc<Batch>>,
}

/// Pre-resolved telemetry handles: set once via
/// [`Session::enable_telemetry`], after which the per-query cost is one
/// `Instant` read plus a few relaxed atomic ops. When unset the record
/// path is a single `OnceLock::get` branch.
struct SessionTelemetry {
    /// `xwq_session_query_latency_ns`: end-to-end per-query wall time.
    query_latency: Arc<LatencyHisto>,
    /// `xwq_session_cache_hits_total` / `_misses_total`.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// `xwq_plan_replans_total`: programs replaced after visit feedback.
    plan_replans: Arc<Counter>,
    /// `xwq_vm_dispatch_ns`: register-VM dispatch-loop time per query.
    vm_dispatch: Arc<LatencyHisto>,
}

/// The `'static` part workers share with the session.
struct SessionInner {
    store: Arc<DocumentStore>,
    cache: StdMutex<LruCache<CacheKey, Arc<CompiledQuery>>>,
    // Monotonic statistics: nothing branches on these, `Relaxed` is
    // exact under the `fetch_add` total modification order.
    hits: StdAtomicU64,
    misses: StdAtomicU64,
    evictions: StdAtomicU64,
    /// Set at most once (the inner struct is `Arc`-shared with pool
    /// workers, so late wiring must go through `&self`).
    telemetry: OnceLock<SessionTelemetry>,
}

impl Session {
    /// A session with the default compiled-query cache capacity.
    pub fn new(store: Arc<DocumentStore>) -> Self {
        Self::with_cache_capacity(store, DEFAULT_CACHE_CAPACITY)
    }

    /// A session with an explicit cache capacity (0 disables caching).
    pub fn with_cache_capacity(store: Arc<DocumentStore>, capacity: usize) -> Self {
        Self {
            inner: Arc::new(SessionInner {
                store,
                cache: StdMutex::new(LruCache::new(capacity)),
                hits: StdAtomicU64::new(0),
                misses: StdAtomicU64::new(0),
                evictions: StdAtomicU64::new(0),
                telemetry: OnceLock::new(),
            }),
            pool: Pool::new(),
        }
    }

    /// Wires this session into a metrics [`Registry`]: per-query latency
    /// histogram plus compiled-query-cache hit/miss counters, all carrying
    /// `labels` (e.g. `[("shard", "3")]`). Idempotent — only the first call
    /// takes effect. Until called, queries skip all telemetry work.
    pub fn enable_telemetry(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.describe(
            "xwq_session_query_latency_ns",
            "End-to-end per-query latency (compile-or-cache + evaluate), nanoseconds",
        );
        registry.describe(
            "xwq_session_cache_hits_total",
            "Queries served from the compiled-query cache",
        );
        registry.describe(
            "xwq_session_cache_misses_total",
            "Queries that had to compile",
        );
        registry.describe(
            "xwq_plan_replans_total",
            "Compiled programs re-planned after actual-vs-estimated visit feedback",
        );
        registry.describe(
            "xwq_vm_dispatch_ns",
            "Register-VM dispatch-loop time per query, nanoseconds",
        );
        let _ = self.inner.telemetry.set(SessionTelemetry {
            query_latency: registry.histo_with("xwq_session_query_latency_ns", labels),
            cache_hits: registry.counter_with("xwq_session_cache_hits_total", labels),
            cache_misses: registry.counter_with("xwq_session_cache_misses_total", labels),
            plan_replans: registry.counter_with("xwq_plan_replans_total", labels),
            vm_dispatch: registry.histo_with("xwq_vm_dispatch_ns", labels),
        });
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.inner.store
    }

    /// Serves one query.
    pub fn query(
        &self,
        document: &str,
        query: &str,
        strategy: Strategy,
    ) -> Result<QueryResponse, SessionError> {
        self.query_with_scratch(document, query, strategy, &mut EvalScratch::new())
    }

    /// Serves one query reusing a caller-held [`EvalScratch`] (the
    /// per-thread form `query_many` workers use).
    pub fn query_with_scratch(
        &self,
        document: &str,
        query: &str,
        strategy: Strategy,
        scratch: &mut EvalScratch,
    ) -> Result<QueryResponse, SessionError> {
        self.inner
            .query_with_scratch(document, query, strategy, scratch)
    }

    /// Serves a batch of queries across documents, in request order,
    /// evaluating independent requests in parallel on the persistent
    /// worker pool sized to the machine (see
    /// [`Self::query_many_with_threads`]).
    ///
    /// Each request is answered independently: one bad query or missing
    /// document does not abort the rest of the batch.
    pub fn query_many(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, SessionError>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.query_many_with_threads(requests, threads)
    }

    /// [`Self::query_many`] with an explicit worker count (`0` and `1`
    /// both mean serial). Up to `threads` workers — the calling thread
    /// plus pool workers woken for this batch — claim requests from a
    /// shared atomic cursor, so load balance is per-request, not
    /// per-chunk. Pool workers are spawned lazily on the first parallel
    /// batch and persist across batches, each keeping one [`EvalScratch`]
    /// for its lifetime. Results come back in request order regardless of
    /// completion order.
    pub fn query_many_with_threads(
        &self,
        requests: &[QueryRequest],
        threads: usize,
    ) -> Vec<Result<QueryResponse, SessionError>> {
        self.query_many_stats(requests, threads).0
    }

    /// [`Self::query_many_with_threads`] plus merged evaluation totals.
    ///
    /// The merge discipline: each participating thread accumulates the
    /// stats of the requests *it* answered into a thread-local
    /// [`EvalStats`] and folds that into the batch total exactly once,
    /// when its participation ends — so the total is independent of how
    /// the work cursor distributed requests across workers and always
    /// equals the sum over successful responses.
    pub fn query_many_stats(
        &self,
        requests: &[QueryRequest],
        threads: usize,
    ) -> (Vec<Result<QueryResponse, SessionError>>, EvalStats) {
        let threads = threads.max(1).min(requests.len().max(1));
        if threads == 1 {
            let mut scratch = EvalScratch::new();
            let mut totals = EvalStats::default();
            let results = requests
                .iter()
                .map(|r| {
                    let result = self.inner.query_with_scratch(
                        &r.document,
                        &r.query,
                        r.strategy,
                        &mut scratch,
                    );
                    if let Ok(resp) = &result {
                        totals.accumulate(&resp.stats);
                    }
                    result
                })
                .collect();
            return (results, totals);
        }
        // The workers need owned requests (they outlive this call's
        // borrows); cloning a batch of strings is far cheaper than the
        // per-batch thread spawns this pool replaces.
        let batch = Arc::new(Batch {
            requests: requests.to_vec(),
            cursor: Cursor::new(requests.len()),
            out: Mutex::new((0..requests.len()).map(|_| None).collect()),
            latch: Latch::new(requests.len(), false),
        });
        // The caller works the batch too; up to `threads - 1` pool workers
        // join it, one per queued handle.
        let inner = Arc::clone(&self.inner);
        self.pool.grow(
            threads - 1,
            |w| format!("xwq-session-w{w}"),
            move |scratch: &mut EvalScratch, batch: Arc<Batch>| inner.work(&batch, scratch),
        );
        self.pool.push_n(Arc::clone(&batch), threads - 1);
        self.inner.work(&batch, &mut EvalScratch::new());
        let totals = batch.latch.wait();
        let mut out = batch.out.lock().expect("batch results poisoned");
        let results = out
            .iter_mut()
            .map(|slot| slot.take().expect("every request answered exactly once"))
            .collect();
        (results, totals)
    }

    /// Snapshots every compiled program this session has planned for
    /// `document` into a `.xwqp` sidecar next to `index_path` (the
    /// document's persisted `.xwqi` file), so a later
    /// [`DocumentStore::load_index_file`] / `open_mmap` of that index
    /// starts warm: the first query per entry installs the persisted
    /// program instead of planning cold.
    ///
    /// The sidecar is bound to the index file's payload checksum; loading
    /// it next to any other index (or a rewritten one) silently falls back
    /// to cold planning. Written durably via a staged rename. Returns the
    /// number of programs persisted.
    pub fn persist_plans(
        &self,
        document: &str,
        index_path: impl AsRef<Path>,
    ) -> Result<usize, SessionError> {
        let index_path = index_path.as_ref();
        let doc = self
            .inner
            .store
            .get(document)
            .ok_or_else(|| SessionError::UnknownDocument(document.to_string()))?;
        let mut set = PlanSet::new(peek_index_checksum(index_path).map_err(SessionError::Persist)?);
        {
            let cache = self.inner.cache.lock().expect("cache lock poisoned");
            for ((name, generation, query, strategy), compiled) in cache.iter() {
                if name != doc.name() || *generation != doc.generation() {
                    continue;
                }
                if let Some(cell) = doc.engine().cached_program(compiled, *strategy) {
                    set.entries.push(PlanEntry {
                        query: query.clone(),
                        strategy: *strategy,
                        program: cell.program.encode(),
                        runs: cell.runs(),
                        total_visits: cell.total_visits(),
                    });
                }
            }
        }
        // Deterministic on-disk order regardless of cache recency.
        set.entries.sort_by(|a, b| {
            (a.query.as_str(), a.strategy.name()).cmp(&(b.query.as_str(), b.strategy.name()))
        });
        let count = set.entries.len();
        write_plans_file_durable(plans_sidecar_path(index_path), &set)
            .map_err(SessionError::Persist)?;
        Ok(count)
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.inner.cache.lock().expect("cache lock poisoned");
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            entries: cache.len(),
            capacity: cache.capacity(),
        }
    }

    /// Number of live pool workers (observability / tests).
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }
}

impl SessionInner {
    /// Fetches a compiled query for `(document, query, strategy)`, from
    /// cache if possible. The compiled automaton itself does not depend on
    /// the strategy, but the strategy is part of the cache key so the
    /// cache's working set mirrors the serving workload (and eviction
    /// pressure is observable per strategy mix).
    fn compiled(
        &self,
        doc: &StoredDocument,
        query: &str,
        strategy: Strategy,
    ) -> Result<(Arc<CompiledQuery>, bool), SessionError> {
        let key: CacheKey = (
            doc.name().to_string(),
            doc.generation(),
            query.to_string(),
            strategy,
        );
        if let Some(hit) = self.cache.lock().expect("cache lock poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), true));
        }
        // Compile outside the cache lock: compilation can be slow and
        // other threads should keep hitting the cache meanwhile. Two
        // threads may race to compile the same query; both results are
        // identical and the second insert simply refreshes the entry.
        let compiled = Arc::new(doc.engine().compile(query).map_err(SessionError::Query)?);
        // Warm start: if the document came with a validated `.xwqp`
        // sidecar carrying a program for this exact (query, strategy),
        // install it so the first run skips cold planning. Any decode or
        // validation failure silently falls through to planning.
        if let Some(plans) = doc.warm_plans() {
            for entry in &plans.entries {
                if entry.query == query && entry.strategy == strategy {
                    if let Ok(program) = Program::decode(&entry.program) {
                        // Persisted execution history rides along: a
                        // program whose recorded visits already blew its
                        // estimate is corrected at install, not re-learned.
                        doc.engine().install_program_with_history(
                            &compiled,
                            strategy,
                            program,
                            entry.runs,
                            entry.total_visits,
                        );
                    }
                    break;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let displaced = self
            .cache
            .lock()
            .expect("cache lock poisoned")
            .insert(key.clone(), Arc::clone(&compiled));
        // A displaced different key is a capacity eviction; getting our own
        // key back means a concurrent thread compiled the same query (a
        // refresh, not an eviction).
        if displaced.is_some_and(|(k, _)| k != key) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((compiled, false))
    }

    fn query_with_scratch(
        &self,
        document: &str,
        query: &str,
        strategy: Strategy,
        scratch: &mut EvalScratch,
    ) -> Result<QueryResponse, SessionError> {
        // The disabled path pays exactly one branch here.
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let doc = self
            .store
            .get(document)
            .ok_or_else(|| SessionError::UnknownDocument(document.to_string()))?;
        let (compiled, cache_hit) = self.compiled(&doc, query, strategy)?;
        let out = doc.engine().run_with_scratch(&compiled, strategy, scratch);
        if let Some(t) = telemetry {
            if let Some(start) = start {
                t.query_latency.record(start.elapsed().as_nanos() as u64);
            }
            if cache_hit {
                t.cache_hits.inc();
            } else {
                t.cache_misses.inc();
            }
            if out.replanned {
                t.plan_replans.inc();
            }
            if out.vm_dispatch_ns > 0 {
                t.vm_dispatch.record(out.vm_dispatch_ns);
            }
        }
        Ok(QueryResponse {
            nodes: out.nodes,
            stats: out.stats,
            cache_hit,
            hybrid_fallback: out.hybrid_fallback,
            replanned: out.replanned,
            vm_dispatch_ns: out.vm_dispatch_ns,
        })
    }

    /// Works `batch` on this thread: claims requests from its cursor and
    /// answers each into its result slot (see [`Latch::work`]).
    fn work(&self, batch: &Batch, scratch: &mut EvalScratch) {
        batch.latch.work(&batch.cursor, scratch, |i, scratch| {
            let r = &batch.requests[i];
            let result = self.query_with_scratch(&r.document, &r.query, r.strategy, scratch);
            let stats = result.as_ref().map(|resp| resp.stats).unwrap_or_default();
            batch.out.lock().expect("batch results poisoned")[i] = Some(result);
            stats
        });
    }
}

/// One parallel [`Session::query_many`] batch, shared by the caller and
/// every pool worker holding one of its handles.
struct Batch {
    requests: Vec<QueryRequest>,
    cursor: Cursor,
    /// Result slots, filled in request order.
    out: Mutex<Vec<Option<Result<QueryResponse, SessionError>>>>,
    latch: Latch,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("cache", &self.cache_stats())
            .field("pool_workers", &self.pool_workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_index::TopologyKind;

    fn store() -> Arc<DocumentStore> {
        let s = DocumentStore::new();
        s.insert_xml("a", "<r><x><y/></x><x/></r>", TopologyKind::Array)
            .unwrap();
        s.insert_xml("b", "<r><y/></r>", TopologyKind::Succinct)
            .unwrap();
        Arc::new(s)
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let session = Session::new(store());
        let first = session.query("a", "//x[y]", Strategy::Optimized).unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.nodes, vec![1]);
        let second = session.query("a", "//x[y]", Strategy::Optimized).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.nodes, first.nodes);
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Different strategy is a different cache entry.
        assert!(
            !session
                .query("a", "//x[y]", Strategy::Naive)
                .unwrap()
                .cache_hit
        );
    }

    #[test]
    fn batch_mixes_documents_and_errors() {
        let session = Session::new(store());
        let results = session.query_many(&[
            QueryRequest::new("a", "//x"),
            QueryRequest::new("b", "//y"),
            QueryRequest::new("missing", "//y"),
            QueryRequest::new("a", "//["),
        ]);
        assert_eq!(results[0].as_ref().unwrap().nodes, vec![1, 3]);
        assert_eq!(results[1].as_ref().unwrap().nodes, vec![1]);
        assert!(matches!(results[2], Err(SessionError::UnknownDocument(_))));
        assert!(matches!(results[3], Err(SessionError::Query(_))));
    }

    #[test]
    fn replaced_document_is_never_served_stale_compilations() {
        let store = Arc::new(DocumentStore::new());
        store
            .insert_xml("d", "<r><x>old</x></r>", TopologyKind::Array)
            .unwrap();
        let session = Session::new(Arc::clone(&store));
        // Warm the cache against the first registration; the compiled
        // automaton embeds this document's label ids and text-filter nodes.
        let old = session
            .query("d", "//x[text()='old']", Strategy::Optimized)
            .unwrap();
        assert_eq!(old.nodes, vec![1]);

        // Replace "d" with a structurally different document.
        store.remove("d").unwrap();
        store
            .insert_xml("d", "<r><y/><x>new</x><x>old</x></r>", TopologyKind::Array)
            .unwrap();

        // The same (name, query, strategy) must recompile, not hit stale
        // cache state from the old registration.
        let new = session
            .query("d", "//x[text()='old']", Strategy::Optimized)
            .unwrap();
        assert!(!new.cache_hit, "stale compiled query served after replace");
        assert_eq!(new.nodes, vec![4]);
        assert_eq!(
            session
                .query("d", "//x[text()='new']", Strategy::Optimized)
                .unwrap()
                .nodes,
            vec![2]
        );
    }

    #[test]
    fn parallel_batches_match_serial() {
        let store = Arc::new(DocumentStore::new());
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(if i % 3 == 0 { "<x><y/></x>" } else { "<x/>" });
        }
        xml.push_str("</r>");
        store.insert_xml("d", &xml, TopologyKind::Succinct).unwrap();
        let session = Session::new(Arc::clone(&store));
        let requests: Vec<QueryRequest> = ["//x", "//x[y]", "//y", "//x[not(y)]", "//r/x", "//["]
            .iter()
            .cycle()
            .take(30)
            .map(|q| QueryRequest::new("d", *q))
            .collect();
        let serial = session.query_many_with_threads(&requests, 1);
        assert_eq!(session.pool_workers(), 0, "serial batches spawn no pool");
        for threads in [2, 4, 8] {
            let par = session.query_many_with_threads(&requests, threads);
            assert_eq!(par.len(), serial.len());
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                match (a, b) {
                    (Ok(x), Ok(y)) => assert_eq!(x.nodes, y.nodes, "request {i}"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("request {i}: serial/parallel disagree on success"),
                }
            }
        }
        // Workers persist across batches instead of respawning per batch.
        assert_eq!(session.pool_workers(), 7);
        let again = session.query_many_with_threads(&requests, 4);
        assert_eq!(again.len(), serial.len());
        assert_eq!(session.pool_workers(), 7);
    }

    #[test]
    fn batch_stats_totals_match_serial() {
        let mut xml = String::from("<r>");
        for i in 0..60 {
            xml.push_str(if i % 3 == 0 { "<x><y/></x>" } else { "<x/>" });
        }
        xml.push_str("</r>");
        // Hybrid plans are pure spine runs with per-run scratch state, so
        // per-request stats are identical no matter which worker (or how
        // warm a session) serves them — totals must match exactly.
        let requests: Vec<QueryRequest> = ["//x", "//x[y]", "//y", "//r/x"]
            .iter()
            .cycle()
            .take(24)
            .map(|q| QueryRequest::new("d", *q).with_strategy(Strategy::Hybrid))
            .collect();
        let serial_store = Arc::new(DocumentStore::new());
        serial_store
            .insert_xml("d", &xml, TopologyKind::Succinct)
            .unwrap();
        let serial_session = Session::new(serial_store);
        let (serial_results, serial_totals) = serial_session.query_many_stats(&requests, 1);
        assert!(serial_totals.visited > 0);
        for threads in [2, 4, 8] {
            let store = Arc::new(DocumentStore::new());
            store.insert_xml("d", &xml, TopologyKind::Succinct).unwrap();
            let session = Session::new(store);
            let (results, totals) = session.query_many_stats(&requests, threads);
            assert_eq!(totals, serial_totals, "{threads} threads vs serial");
            // The merged total is exactly the sum over successful responses.
            let mut summed = EvalStats::default();
            for r in results.iter().flatten() {
                summed.accumulate(&r.stats);
            }
            assert_eq!(totals, summed, "{threads} threads vs response sum");
            assert_eq!(results.len(), serial_results.len());
        }
    }

    #[test]
    fn telemetry_records_latency_and_cache_traffic() {
        let registry = Registry::new();
        let session = Session::new(store());
        session.enable_telemetry(&registry, &[]);
        session.enable_telemetry(&registry, &[("dup", "ignored")]); // idempotent
        session.query("a", "//x[y]", Strategy::Auto).unwrap();
        session.query("a", "//x[y]", Strategy::Auto).unwrap();
        session.query("a", "//x", Strategy::Auto).unwrap();
        let histo = registry.histo("xwq_session_query_latency_ns");
        assert_eq!(histo.count(), 3);
        assert!(histo.sum() > 0);
        assert_eq!(registry.counter("xwq_session_cache_hits_total").get(), 1);
        assert_eq!(registry.counter("xwq_session_cache_misses_total").get(), 2);
        let text = registry.render(xwq_obs::RenderFormat::Prometheus);
        assert!(text.contains("# TYPE xwq_session_query_latency_ns histogram"));
        assert!(text.contains("xwq_session_cache_hits_total 1"));
    }

    #[test]
    fn pool_survives_many_small_batches() {
        let session = Session::new(store());
        for round in 0..50 {
            let requests = vec![
                QueryRequest::new("a", "//x"),
                QueryRequest::new("b", "//y"),
                QueryRequest::new("a", "//x[y]"),
            ];
            let out = session.query_many_with_threads(&requests, 3);
            assert_eq!(out.len(), 3, "round {round}");
            assert_eq!(out[0].as_ref().unwrap().nodes, vec![1, 3]);
            assert_eq!(out[1].as_ref().unwrap().nodes, vec![1]);
            assert_eq!(out[2].as_ref().unwrap().nodes, vec![1]);
        }
        // Pool never exceeds the largest batch's worker demand.
        assert!(session.pool_workers() <= 2);
    }

    #[test]
    fn plan_sidecar_warm_start_corruption_and_staleness() {
        let dir = std::env::temp_dir().join(format!("xwq-warm-start-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.xwqi");
        let store = Arc::new(DocumentStore::new());
        let d = store
            .insert_xml(
                "d",
                "<r><x><y/></x><x/><z>t</z><x><y/></x></r>",
                TopologyKind::Succinct,
            )
            .unwrap();
        d.save(&path).unwrap();
        let session = Session::new(Arc::clone(&store));
        let queries = ["//x[y]", "//x", "//z[text()='t']"];
        let cold: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|q| session.query("d", q, Strategy::Auto).unwrap().nodes)
            .collect();
        assert_eq!(session.persist_plans("d", &path).unwrap(), queries.len());
        let sidecar = crate::plans_sidecar_path(&path);
        let good_sidecar = std::fs::read(&sidecar).unwrap();

        // Warm open: the sidecar validates, and the first compile of each
        // persisted query installs its program instead of planning cold.
        let store2 = Arc::new(DocumentStore::new());
        let d2 = store2.load_index_file("d", &path).unwrap();
        assert!(d2.warm_plans().is_some(), "valid sidecar must load");
        let warm = Session::new(Arc::clone(&store2));
        for (q, expect) in queries.iter().zip(&cold) {
            assert_eq!(&warm.query("d", q, Strategy::Auto).unwrap().nodes, expect);
        }
        let counters = d2.engine().plan_counters();
        assert_eq!(counters.installed, queries.len() as u64);
        assert_eq!(counters.planned, 0, "warm start must skip planning");

        // Corrupt sidecar: silently ignored, answers stay correct.
        let mut bad = good_sidecar.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&sidecar, &bad).unwrap();
        let store3 = Arc::new(DocumentStore::new());
        let d3 = store3.load_index_file("d", &path).unwrap();
        assert!(d3.warm_plans().is_none(), "corrupt sidecar must be ignored");
        let fallback = Session::new(Arc::clone(&store3));
        for (q, expect) in queries.iter().zip(&cold) {
            assert_eq!(
                &fallback.query("d", q, Strategy::Auto).unwrap().nodes,
                expect
            );
        }
        assert!(d3.engine().plan_counters().planned > 0);

        // Stale identity: a valid sidecar bound to a *different* index
        // (the path was rewritten from another document) must be ignored.
        std::fs::write(&sidecar, &good_sidecar).unwrap();
        let other = DocumentStore::new();
        let od = other
            .insert_xml("o", "<r><x/><q>t</q></r>", TopologyKind::Succinct)
            .unwrap();
        od.save(&path).unwrap();
        let store4 = Arc::new(DocumentStore::new());
        let d4 = store4.load_index_file("d", &path).unwrap();
        assert!(d4.warm_plans().is_none(), "stale sidecar must be ignored");
        let stale = Session::new(Arc::clone(&store4));
        assert_eq!(stale.query("d", "//x", Strategy::Auto).unwrap().nodes, [1]);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Persisted visit history drives re-planning across a restart: a
    /// sidecar whose recorded observed visits dwarf the program's estimate
    /// makes the warm install re-plan immediately (counted as a replan,
    /// results unchanged), while honest history installs as-is.
    #[test]
    fn sidecar_history_replans_at_warm_install() {
        let dir = std::env::temp_dir().join(format!("xwq-warm-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.xwqi");
        let store = Arc::new(DocumentStore::new());
        let d = store
            .insert_xml(
                "d",
                "<r><x><y/></x><x/><z>t</z><x><y/></x></r>",
                TopologyKind::Succinct,
            )
            .unwrap();
        d.save(&path).unwrap();
        let session = Session::new(Arc::clone(&store));
        let expect = session.query("d", "//x[y]", Strategy::Auto).unwrap().nodes;
        assert_eq!(session.persist_plans("d", &path).unwrap(), 1);
        let sidecar = crate::plans_sidecar_path(&path);

        // Round 1: honest history (one quiet run) installs untouched.
        let store2 = Arc::new(DocumentStore::new());
        let d2 = store2.load_index_file("d", &path).unwrap();
        let plans = d2.warm_plans().expect("sidecar must load");
        assert_eq!(plans.entries[0].runs, 1, "history must persist");
        assert!(plans.entries[0].total_visits > 0);
        let warm = Session::new(Arc::clone(&store2));
        assert_eq!(
            warm.query("d", "//x[y]", Strategy::Auto).unwrap().nodes,
            expect
        );
        let counters = d2.engine().plan_counters();
        assert_eq!((counters.installed, counters.replans), (1, 0));

        // Round 2: rewrite the sidecar with history claiming the program
        // wildly under-estimated. The warm install must re-plan from that
        // feedback instead of installing the known-bad program.
        let mut set = crate::read_plans_file(&sidecar).unwrap();
        set.entries[0].runs = 16;
        set.entries[0].total_visits = 16_000_000;
        crate::write_plans_file_durable(&sidecar, &set).unwrap();
        let store3 = Arc::new(DocumentStore::new());
        let d3 = store3.load_index_file("d", &path).unwrap();
        let corrected = Session::new(Arc::clone(&store3));
        assert_eq!(
            corrected
                .query("d", "//x[y]", Strategy::Auto)
                .unwrap()
                .nodes,
            expect,
            "a history-driven re-plan never changes answers"
        );
        let counters = d3.engine().plan_counters();
        assert_eq!(counters.installed, 1);
        assert_eq!(counters.replans, 1, "bad history must trigger a re-plan");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capacity_pressure_evicts() {
        let session = Session::with_cache_capacity(store(), 2);
        for q in ["//x", "//y", "//x/y", "//x"] {
            session.query("a", q, Strategy::Optimized).unwrap();
        }
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.evictions >= 1);
        // "//x" was evicted by the time it repeats, so all 4 are misses.
        assert_eq!(stats.misses, 4);
    }
}

/// Exhaustive model check of the worker pool's publish/claim/park/shutdown
/// state machine. Built only under `RUSTFLAGS="--cfg model"`, where
/// `crate::sync` resolves to the `xwq_verify` shims: the body runs once
/// per schedule the deterministic scheduler can construct within the
/// preemption bound, and a failing schedule panics with a replayable seed.
#[cfg(all(test, model))]
mod model_tests {
    use super::*;
    use xwq_index::TopologyKind;

    /// One real parallel batch (caller + one pool worker racing on the
    /// claim cursor) followed by the `Drop` shutdown, across every
    /// interleaving: both requests answered exactly once, the latch
    /// releases, and the worker never sleeps through its own shutdown
    /// (the checker reports any hang as a deadlock).
    #[test]
    fn model_batch_claim_and_drop_shutdown() {
        let config = xwq_verify::Config {
            preemption_bound: Some(2),
            ..xwq_verify::Config::default()
        };
        let report = xwq_verify::check("store-pool-batch", config, || {
            let store = DocumentStore::new();
            store
                .insert_xml("a", "<r><x/><x/></r>", TopologyKind::Array)
                .unwrap();
            let session = Session::with_cache_capacity(Arc::new(store), 4);
            let requests = [QueryRequest::new("a", "//x"), QueryRequest::new("a", "//x")];
            let results = session.query_many_with_threads(&requests, 2);
            assert_eq!(results.len(), 2);
            for r in results {
                assert_eq!(r.unwrap().nodes.len(), 2, "every slot answered");
            }
            // Drop = shutdown + join of the parked worker, still under the
            // model scheduler: the lock-free flag-store variant of this
            // (the PR 5 race) hangs here in some schedule.
            drop(session);
        });
        // A floor on the explored-schedule count: if the cfg wiring ever
        // degrades the shims to passthrough, exploration collapses to one
        // schedule and this catches it.
        assert!(report.schedules > 50, "exploration collapsed: {report:?}");
        assert!(report.complete, "schedule tree exhausted: {report:?}");
    }
}
