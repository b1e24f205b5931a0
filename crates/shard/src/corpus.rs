//! The [`Corpus`]: a catalog of documents spread over a fixed set of
//! shards.
//!
//! A corpus owns `N` independent [`DocumentStore`] shards. Every document
//! registered with the corpus is placed on exactly one shard by the
//! corpus's [`PlacementPolicy`] and stays there for its lifetime — the
//! doc→shard mapping is what [`crate::ShardedSession`] workers pin to.
//! Shards are ordinary stores: several corpora (or several processes)
//! opening the same `.xwqi` files via [`DocumentStore::open_mmap`] share
//! the kernel page cache, which is what makes per-shard serving cheap —
//! a shard adds affinity, not a copy.
//!
//! # Durability
//!
//! A corpus opened from a directory ([`Corpus::open_dir`] /
//! [`Corpus::open_or_create_dir`]) is *durable*: catalog mutations go
//! through [`Corpus::add_durable`], [`Corpus::replace`] and
//! [`Corpus::remove`], each committed to the `MANIFEST.wal` write-ahead
//! log (see [`crate::wal`]) before the in-memory catalog moves. The
//! commit protocol per mutation:
//!
//! 1. stage the new `.xwqi` under `.stage.<artifact>` and `sync_data` it;
//! 2. append the WAL record, `sync_data` the log, fsync the directory
//!    — *this is the commit point*;
//! 3. rename the staged artifact over its final name and fsync the
//!    directory again.
//!
//! A crash at any byte leaves recovery ([`Corpus::open_dir`]) a torn tail
//! to truncate, a committed record whose rename it completes, or an
//! orphaned staged file to sweep — the catalog always lands on either the
//! pre-op or the post-op state. [`Corpus::checkpoint`] folds the log into
//! an atomically rewritten manifest and resets the log. Superseded
//! artifacts are reclaimed by epoch GC (see [`crate::gc`]) only after
//! both the readers that could see them have drained *and* a checkpoint
//! has sealed the superseding op.

use crate::gc::{EpochGc, EpochGuard};
use crate::manifest::{Manifest, ManifestError};
use crate::wal::{self, FailPoint, FaultPlan, WalAppender, WalError, WalOp, WalRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;
use xwq_index::TopologyKind;
use xwq_store::{DocumentStore, StoreError, StoredDocument};

/// How new documents are assigned to shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Cycle through the shards in registration order: the shard with the
    /// fewest documents wins (ties to the lowest index). Best when
    /// documents are similar in size or arrival order should dominate.
    #[default]
    RoundRobin,
    /// The shard with the fewest total *nodes* wins (ties to the lowest
    /// index), so a few large documents don't pile onto one shard while
    /// small ones pad the rest. Best for heterogeneous corpora.
    SizeBalanced,
}

impl PlacementPolicy {
    /// Picks the shard for a document of `doc_nodes` nodes given the
    /// current per-shard loads. `loads` is never empty.
    pub fn place(self, loads: &[ShardLoad], doc_nodes: usize) -> usize {
        let _ = doc_nodes; // both built-in policies only look at loads
        let key = |l: &ShardLoad| match self {
            PlacementPolicy::RoundRobin => l.docs,
            PlacementPolicy::SizeBalanced => l.nodes,
        };
        loads
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| (key(l), *i))
            .map(|(i, _)| i)
            .expect("corpus has at least one shard")
    }

    /// The CLI token for this policy.
    pub fn token(self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::SizeBalanced => "size-balanced",
        }
    }
}

impl std::str::FromStr for PlacementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "round-robin" | "rr" => Ok(PlacementPolicy::RoundRobin),
            "size-balanced" | "size" => Ok(PlacementPolicy::SizeBalanced),
            other => Err(format!(
                "unknown placement policy {other:?} (expected round-robin|size-balanced)"
            )),
        }
    }
}

/// What one shard currently holds (placement input + observability).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Documents registered on this shard.
    pub docs: usize,
    /// Total nodes across those documents.
    pub nodes: usize,
}

/// Errors from corpus operations.
#[derive(Debug)]
pub enum CorpusError {
    /// A document with this name is already in the corpus.
    DuplicateDocument(String),
    /// The request named a document the corpus does not have.
    UnknownDocument(String),
    /// The underlying shard store rejected the operation.
    Store(StoreError),
    /// Reading or writing the corpus manifest failed.
    Manifest(ManifestError),
    /// An operation on one named document failed (context wrapper, so a
    /// multi-file corpus open names the artifact that broke).
    Doc {
        /// The document whose artifact or registration failed.
        name: String,
        /// What went wrong.
        source: Box<CorpusError>,
    },
    /// The admission queue is full (active + waiting callers at capacity),
    /// or a waiter's admission deadline expired.
    Overloaded {
        /// Concurrent `query_corpus` calls currently being served.
        active: usize,
        /// Callers parked waiting for an admission slot.
        waiting: usize,
    },
    /// A durable mutation was requested on a corpus not opened from a
    /// directory (no WAL to commit to).
    NotDurable,
    /// The document name cannot be used as an on-disk artifact stem
    /// (empty, contains a path separator / tab / newline, or starts with
    /// a dot).
    BadName(String),
    /// A previous durable commit failed partway; the in-process writer is
    /// poisoned and the corpus must be reopened to recover.
    Broken,
    /// A filesystem operation in the commit or recovery path failed.
    Io(std::io::Error),
    /// Reading, truncating or appending the write-ahead log failed.
    Wal(WalError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::DuplicateDocument(d) => write!(f, "document {d:?} already in corpus"),
            CorpusError::UnknownDocument(d) => write!(f, "no document named {d:?} in corpus"),
            CorpusError::Store(e) => write!(f, "{e}"),
            CorpusError::Manifest(e) => write!(f, "{e}"),
            CorpusError::Doc { name, source } => write!(f, "document {name:?}: {source}"),
            CorpusError::Overloaded { active, waiting } => write!(
                f,
                "corpus overloaded: {active} active and {waiting} waiting callers at capacity"
            ),
            CorpusError::NotDurable => write!(
                f,
                "corpus was not opened from a directory; durable mutations need a WAL"
            ),
            CorpusError::BadName(n) => write!(
                f,
                "document name {n:?} unusable as an artifact stem (empty, path separator, \
                 control character, or leading dot)"
            ),
            CorpusError::Broken => write!(
                f,
                "a previous durable commit failed; reopen the corpus directory to recover"
            ),
            CorpusError::Io(e) => write!(f, "corpus i/o: {e}"),
            CorpusError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Store(e) => Some(e),
            CorpusError::Manifest(e) => Some(e),
            CorpusError::Doc { source, .. } => Some(source),
            CorpusError::Io(e) => Some(e),
            CorpusError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CorpusError {
    fn from(e: StoreError) -> Self {
        CorpusError::Store(e)
    }
}

impl From<ManifestError> for CorpusError {
    fn from(e: ManifestError) -> Self {
        CorpusError::Manifest(e)
    }
}

/// The mutable catalog state: doc name → shard, plus per-shard loads.
/// A `BTreeMap` keeps document iteration in name order, which is what
/// makes corpus-wide results deterministic regardless of shard layout.
struct Catalog {
    placements: BTreeMap<String, usize>,
    loads: Vec<ShardLoad>,
}

/// One durable catalog row: the artifact currently backing a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableEntry {
    /// Artifact file name, relative to the corpus directory.
    pub file: String,
    /// Node count of the document.
    pub nodes: u64,
    /// Generation stamp of the mutation that produced this artifact.
    pub gen: u64,
}

/// What recovery did while opening a corpus directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// WAL records replayed over the manifest baseline.
    pub replayed_ops: u64,
    /// Bytes dropped when truncating a torn WAL tail.
    pub dropped_bytes: u64,
    /// True when the WAL had a torn tail (crash signature).
    pub torn: bool,
    /// Committed-but-unrenamed staged artifacts whose rename recovery
    /// finished.
    pub completed_renames: u64,
    /// Orphaned staged or unreferenced artifact files deleted.
    pub swept_files: u64,
}

/// The single-writer durable state behind a directory-backed corpus: the
/// WAL appender plus the on-disk catalog image it maintains. One mutex
/// serializes all mutations — the WAL is single-writer by design.
struct DurableState {
    dir: PathBuf,
    /// Lazily opened so read-only uses never create or touch the log; also
    /// dropped after a checkpoint swaps the log file, and after a fault
    /// plan changes, so the next commit reopens the real current file.
    appender: Option<WalAppender>,
    entries: BTreeMap<String, DurableEntry>,
    next_gen: u64,
    ops_since_checkpoint: u64,
    /// Set when a commit fails partway: the on-disk log may hold a torn
    /// tail, so further durable writes are refused until a reopen recovers.
    broken: bool,
    plan: Option<Arc<FaultPlan>>,
}

impl DurableState {
    fn appender(&mut self) -> Result<&mut WalAppender, CorpusError> {
        if self.appender.is_none() {
            self.appender =
                Some(WalAppender::open(&self.dir, self.plan.as_ref()).map_err(CorpusError::Wal)?);
        }
        Ok(self.appender.as_mut().expect("just opened"))
    }
}

/// Opt-in metric handles, wired once by [`Corpus::enable_telemetry`].
#[derive(Default)]
struct CorpusTelemetry {
    wal_commit: OnceLock<Arc<xwq_obs::LatencyHisto>>,
}

/// True if `name` can be a durable document name. Stricter than the
/// manifest's field check: the name becomes an artifact file stem
/// (`<name>.g<gen>.xwqi`), so path separators and leading dots (which
/// would collide with `.stage.*` staging names) are out too.
fn valid_doc_name(name: &str) -> bool {
    !name.is_empty() && !name.starts_with('.') && !name.contains(['\t', '\n', '\r', '/', '\\'])
}

/// Generation stamp embedded in a durable artifact name
/// (`<name>.g<gen>.xwqi`), or 0 for pre-durability artifacts.
fn parse_gen(file: &str) -> u64 {
    file.strip_suffix(".xwqi")
        .and_then(|s| s.rsplit_once(".g"))
        .and_then(|(_, g)| g.parse().ok())
        .unwrap_or(0)
}

/// A catalog of documents spread over a fixed set of shards.
pub struct Corpus {
    shards: Vec<Arc<DocumentStore>>,
    policy: PlacementPolicy,
    catalog: RwLock<Catalog>,
    gc: Arc<EpochGc>,
    durable: Option<Mutex<DurableState>>,
    recovery: RecoveryStats,
    telemetry: CorpusTelemetry,
}

impl Corpus {
    /// An empty corpus with `shards` shards (at least one) and the given
    /// placement policy.
    pub fn new(shards: usize, policy: PlacementPolicy) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Arc::new(DocumentStore::new()))
                .collect(),
            policy,
            catalog: RwLock::new(Catalog {
                placements: BTreeMap::new(),
                loads: vec![ShardLoad::default(); shards],
            }),
            gc: Arc::new(EpochGc::default()),
            durable: None,
            recovery: RecoveryStats::default(),
            telemetry: CorpusTelemetry::default(),
        }
    }

    /// Opens a corpus directory: reads its manifest, **recovers** any
    /// write-ahead log on top of it, and memory-maps every per-document
    /// `.xwqi` — the zero-copy path, so shards mapping the same artifacts
    /// share the page cache. Recovery replays intact WAL records over the
    /// manifest baseline, truncates a torn tail, completes the rename of
    /// any committed-but-unrenamed artifact, and sweeps staged or
    /// unreferenced leftovers; what it did is in
    /// [`Corpus::recovery_stats`]. The result accepts durable mutations.
    pub fn open_dir(
        dir: impl AsRef<Path>,
        shards: usize,
        policy: PlacementPolicy,
    ) -> Result<Self, CorpusError> {
        let dir = dir.as_ref();
        let manifest = Manifest::read_dir(dir)?;
        let scan = wal::recover(dir).map_err(CorpusError::Wal)?;

        let mut stats = RecoveryStats::default();
        if let Some(t) = &scan.torn {
            stats.torn = true;
            stats.dropped_bytes = t.dropped_bytes;
        }

        // Manifest baseline, then idempotent replay. `referenced` tracks
        // every artifact any surviving WAL record names — those must stay
        // on disk even when replaced-then-removed later, because recovery
        // from a *prefix* of this same log (a later crash) can land on an
        // intermediate catalog that still needs them.
        let mut entries: BTreeMap<String, DurableEntry> = manifest
            .docs()
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    DurableEntry {
                        file: d.file.clone(),
                        nodes: d.nodes as u64,
                        gen: parse_gen(&d.file),
                    },
                )
            })
            .collect();
        let mut referenced: BTreeSet<String> = entries.values().map(|e| e.file.clone()).collect();
        let mut next_gen = entries.values().map(|e| e.gen + 1).max().unwrap_or(1);
        let mut ops_since_checkpoint = 0;
        for rec in &scan.records {
            match &rec.op {
                WalOp::AddDoc { name, file, nodes } | WalOp::ReplaceDoc { name, file, nodes } => {
                    referenced.insert(file.clone());
                    entries.insert(
                        name.clone(),
                        DurableEntry {
                            file: file.clone(),
                            nodes: *nodes,
                            gen: rec.gen,
                        },
                    );
                    stats.replayed_ops += 1;
                    ops_since_checkpoint += 1;
                }
                WalOp::RemoveDoc { name } => {
                    entries.remove(name);
                    stats.replayed_ops += 1;
                    ops_since_checkpoint += 1;
                }
                WalOp::Checkpoint => {}
            }
            next_gen = next_gen.max(rec.gen + 1);
        }

        // A commit that crashed between the WAL record and the rename left
        // the artifact under its staging name; finish the rename.
        let mut renamed = false;
        for file in &referenced {
            let target = dir.join(file);
            let staged = dir.join(format!(".stage.{file}"));
            if !target.exists() && staged.exists() {
                std::fs::rename(&staged, &target).map_err(CorpusError::Io)?;
                stats.completed_renames += 1;
                renamed = true;
            }
        }
        if renamed {
            xwq_store::fsync_dir(dir).map_err(CorpusError::Io)?;
        }

        // Sweep: any remaining staged file is either a duplicate of a
        // completed rename or belongs to a record that never committed;
        // any `.xwqi` no manifest row or WAL record names is an orphan.
        for item in std::fs::read_dir(dir).map_err(CorpusError::Io)? {
            let item = item.map_err(CorpusError::Io)?;
            let fname = item.file_name().to_string_lossy().into_owned();
            let orphan = fname.starts_with(".stage.")
                || (fname.ends_with(".xwqi") && !referenced.contains(&fname))
                // A plan sidecar is only meaningful next to its index;
                // sweep any whose `.xwqi` is gone or unreferenced.
                || fname.strip_suffix(".xwqp").is_some_and(|stem| {
                    !referenced.contains(&format!("{stem}.xwqi"))
                });
            if orphan {
                std::fs::remove_file(item.path()).map_err(CorpusError::Io)?;
                stats.swept_files += 1;
            }
        }

        let mut corpus = Self::new(shards, policy);
        corpus.recovery = stats;
        corpus.durable = Some(Mutex::new(DurableState {
            dir: dir.to_path_buf(),
            appender: None,
            entries: entries.clone(),
            next_gen,
            ops_since_checkpoint,
            broken: false,
            plan: None,
        }));
        for (name, e) in &entries {
            corpus
                .add_mmap(name, dir.join(&e.file))
                .map_err(|err| CorpusError::Doc {
                    name: name.clone(),
                    source: Box::new(err),
                })?;
        }
        Ok(corpus)
    }

    /// [`Corpus::open_dir`], creating the directory (with an empty durable
    /// manifest) when it does not hold a corpus yet.
    pub fn open_or_create_dir(
        dir: impl AsRef<Path>,
        shards: usize,
        policy: PlacementPolicy,
    ) -> Result<Self, CorpusError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(CorpusError::Io)?;
        if !dir.join(crate::manifest::MANIFEST_FILE).exists() {
            Manifest::new().write_dir(dir)?;
        }
        Self::open_dir(dir, shards, policy)
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The store behind shard `s` (for direct lookups / observability).
    pub fn shard_store(&self, s: usize) -> &Arc<DocumentStore> {
        &self.shards[s]
    }

    /// Current per-shard loads, indexed by shard.
    pub fn loads(&self) -> Vec<ShardLoad> {
        self.catalog
            .read()
            .expect("corpus catalog poisoned")
            .loads
            .clone()
    }

    /// Number of documents in the corpus.
    pub fn len(&self) -> usize {
        self.catalog
            .read()
            .expect("corpus catalog poisoned")
            .placements
            .len()
    }

    /// True if the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All document names, sorted — the deterministic corpus order every
    /// fan-out merges back into.
    pub fn doc_names(&self) -> Vec<String> {
        self.catalog
            .read()
            .expect("corpus catalog poisoned")
            .placements
            .keys()
            .cloned()
            .collect()
    }

    /// The shard holding `name`, if the corpus has it.
    pub fn shard_of(&self, name: &str) -> Option<usize> {
        self.catalog
            .read()
            .expect("corpus catalog poisoned")
            .placements
            .get(name)
            .copied()
    }

    /// Looks a document up through its shard.
    pub fn get(&self, name: &str) -> Option<Arc<StoredDocument>> {
        let shard = self.shard_of(name)?;
        self.shards[shard].get(name)
    }

    /// `(name, shard)` pairs in name order (the fan-out work list).
    pub(crate) fn placements(&self) -> Vec<(String, usize)> {
        self.catalog
            .read()
            .expect("corpus catalog poisoned")
            .placements
            .iter()
            .map(|(n, &s)| (n.clone(), s))
            .collect()
    }

    /// Places a document of `nodes` nodes, reserving its slot in the
    /// catalog. Returns the chosen shard.
    fn place(&self, name: &str, nodes: usize) -> Result<usize, CorpusError> {
        let mut catalog = self.catalog.write().expect("corpus catalog poisoned");
        if catalog.placements.contains_key(name) {
            return Err(CorpusError::DuplicateDocument(name.to_string()));
        }
        let shard = self.policy.place(&catalog.loads, nodes);
        catalog.placements.insert(name.to_string(), shard);
        catalog.loads[shard].docs += 1;
        catalog.loads[shard].nodes += nodes;
        Ok(shard)
    }

    /// Undoes [`Self::place`] when the shard-store registration fails.
    fn unplace(&self, name: &str, shard: usize, nodes: usize) {
        let mut catalog = self.catalog.write().expect("corpus catalog poisoned");
        catalog.placements.remove(name);
        catalog.loads[shard].docs -= 1;
        catalog.loads[shard].nodes -= nodes;
    }

    /// Registers an already-loaded document + index pair on the shard the
    /// policy picks. All `add_*` entry points funnel through here.
    pub fn add_prebuilt(
        &self,
        name: &str,
        doc: xwq_xml::Document,
        index: xwq_index::TreeIndex,
    ) -> Result<usize, CorpusError> {
        self.add_prebuilt_inner(name, doc, index, None)
    }

    fn add_prebuilt_inner(
        &self,
        name: &str,
        doc: xwq_xml::Document,
        index: xwq_index::TreeIndex,
        plans: Option<std::sync::Arc<xwq_store::PlanSet>>,
    ) -> Result<usize, CorpusError> {
        let nodes = doc.len();
        let shard = self.place(name, nodes)?;
        match self.shards[shard].insert_prebuilt_with_plans(name, doc, index, plans) {
            Ok(_) => Ok(shard),
            Err(e) => {
                self.unplace(name, shard, nodes);
                Err(e.into())
            }
        }
    }

    /// Parses, indexes and places an XML document. Returns its shard.
    pub fn add_xml(
        &self,
        name: &str,
        xml: &str,
        topology: TopologyKind,
    ) -> Result<usize, CorpusError> {
        let doc = xwq_xml::parse(xml).map_err(|e| CorpusError::Store(StoreError::Parse(e)))?;
        let index = xwq_index::TreeIndex::build_with(&doc, topology);
        self.add_prebuilt(name, doc, index)
    }

    /// Memory-maps a `.xwqi` file and places it (the zero-copy load —
    /// what [`Self::open_dir`] uses). Returns its shard.
    pub fn add_mmap(&self, name: &str, path: impl AsRef<Path>) -> Result<usize, CorpusError> {
        // A validated `.xwqp` sidecar rides along onto whatever shard the
        // document lands on, so per-shard sessions start warm too.
        let plans = xwq_store::load_sidecar_plans(path.as_ref());
        let (doc, index) = xwq_store::read_index_file_mmap(path).map_err(StoreError::Format)?;
        self.add_prebuilt_inner(name, doc, index, plans)
    }

    /// Reads a `.xwqi` file into owned memory and places it. Returns its
    /// shard.
    pub fn add_index_file(&self, name: &str, path: impl AsRef<Path>) -> Result<usize, CorpusError> {
        let (doc, index) = xwq_store::read_index_file(path).map_err(StoreError::Format)?;
        self.add_prebuilt(name, doc, index)
    }

    // ── durability ─────────────────────────────────────────────────────

    /// True when this corpus is backed by a directory and accepts durable
    /// mutations.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The backing directory of a durable corpus (`None` when in-memory).
    pub fn dir(&self) -> Option<PathBuf> {
        self.durable
            .as_ref()
            .map(|d| d.lock().expect("durable state poisoned").dir.clone())
    }

    /// What recovery did when this corpus was opened (all zeros for a
    /// clean open or an in-memory corpus).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.clone()
    }

    /// The durable catalog: `(name, entry)` rows in name order. Empty for
    /// an in-memory corpus.
    pub fn durable_entries(&self) -> Vec<(String, DurableEntry)> {
        match &self.durable {
            Some(durable) => {
                let state = durable.lock().expect("durable state poisoned");
                state
                    .entries
                    .iter()
                    .map(|(n, e)| (n.clone(), e.clone()))
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// WAL records appended since the last checkpoint (replayed ones
    /// count — they are still in the log).
    pub fn wal_ops_since_checkpoint(&self) -> u64 {
        match &self.durable {
            Some(durable) => {
                durable
                    .lock()
                    .expect("durable state poisoned")
                    .ops_since_checkpoint
            }
            None => 0,
        }
    }

    /// Pins the artifact GC epoch: files superseded *after* this call
    /// outlive the guard, so a reader holding it keeps seeing its
    /// generation byte-identically. [`crate::ShardedSession`] pins one per
    /// request automatically.
    pub fn pin(&self) -> EpochGuard {
        self.gc.pin()
    }

    /// The artifact garbage collector (observability and tests).
    pub fn gc(&self) -> &Arc<EpochGc> {
        &self.gc
    }

    /// Installs a fault plan on the durable I/O path (test/CI crash
    /// matrix): the next commit fails at `point`, leaving exactly the
    /// bytes a power cut there would.
    pub fn inject_fault(&self, point: FailPoint) -> Result<(), CorpusError> {
        let durable = self.durable.as_ref().ok_or(CorpusError::NotDurable)?;
        let mut state = durable.lock().expect("durable state poisoned");
        state.plan = Some(FaultPlan::new(point));
        state.appender = None; // reopen wrapped in the plan
        Ok(())
    }

    /// Removes any installed fault plan. Does *not* clear a broken-writer
    /// state — a failed commit still requires a reopen to recover.
    pub fn clear_fault(&self) {
        if let Some(durable) = &self.durable {
            let mut state = durable.lock().expect("durable state poisoned");
            state.plan = None;
            state.appender = None;
        }
    }

    /// Wires the durability metrics into `registry`: the
    /// `xwq_wal_commit_latency_ns` histogram, recovery counters
    /// (`xwq_wal_replayed_ops_total`, `xwq_wal_dropped_bytes_total`,
    /// `xwq_wal_torn_truncations_total`) and the GC reclaim counter
    /// (`xwq_gc_unlinked_artifacts_total`). Idempotent: second and later
    /// calls are no-ops, so the one-shot recovery totals are added once.
    pub fn enable_telemetry(&self, registry: &xwq_obs::Registry) {
        registry.describe(
            "xwq_wal_commit_latency_ns",
            "Durable WAL commit latency (append + sync_data + dir fsync)",
        );
        if self
            .telemetry
            .wal_commit
            .set(registry.histo("xwq_wal_commit_latency_ns"))
            .is_err()
        {
            return; // already wired
        }
        registry.describe(
            "xwq_wal_replayed_ops_total",
            "WAL records replayed over the manifest baseline at open",
        );
        registry
            .counter("xwq_wal_replayed_ops_total")
            .add(self.recovery.replayed_ops);
        registry.describe(
            "xwq_wal_dropped_bytes_total",
            "Bytes truncated from torn WAL tails at open",
        );
        registry
            .counter("xwq_wal_dropped_bytes_total")
            .add(self.recovery.dropped_bytes);
        registry.describe(
            "xwq_wal_torn_truncations_total",
            "Opens that found and truncated a torn WAL tail",
        );
        registry
            .counter("xwq_wal_torn_truncations_total")
            .add(self.recovery.torn as u64);
        registry.describe(
            "xwq_gc_unlinked_artifacts_total",
            "Superseded .xwqi artifacts reclaimed after epoch drain + checkpoint",
        );
        self.gc
            .set_counter(registry.counter("xwq_gc_unlinked_artifacts_total"));
    }

    /// Stages the artifact, commits the WAL record, renames — steps 1–3 of
    /// the commit protocol. Returns the new catalog row. On a commit-path
    /// failure the writer is poisoned ([`CorpusError::Broken`] thereafter)
    /// because the log may hold a torn tail only a reopen can repair.
    fn commit_artifact(
        &self,
        state: &mut DurableState,
        name: &str,
        doc: &xwq_xml::Document,
        index: &xwq_index::TreeIndex,
        replace: bool,
    ) -> Result<DurableEntry, CorpusError> {
        if state.broken {
            return Err(CorpusError::Broken);
        }
        if !valid_doc_name(name) {
            return Err(CorpusError::BadName(name.to_string()));
        }
        let bytes = xwq_store::serialize(doc, index)
            .map_err(|e| CorpusError::Store(StoreError::Format(e)))?;
        let gen = state.next_gen;
        let nodes = doc.len() as u64;
        let file = format!("{name}.g{gen}.xwqi");
        let staged = state.dir.join(format!(".stage.{file}"));

        // 1. Stage + sync_data. A failure here touched nothing durable —
        //    no poisoning, just clean up the partial staged file.
        let staged_ok = xwq_store::write_synced(&staged, &bytes)
            .and_then(|()| state.plan.as_ref().map_or(Ok(()), |p| p.check_stage_sync()));
        if let Err(e) = staged_ok {
            let _ = std::fs::remove_file(&staged);
            return Err(CorpusError::Io(e));
        }

        // 2. WAL commit — the commit point. On failure the log may be
        //    torn; keep the staged file (if the record did reach disk,
        //    recovery will finish the rename) and poison the writer.
        let record = WalRecord {
            gen,
            op: if replace {
                WalOp::ReplaceDoc {
                    name: name.to_string(),
                    file: file.clone(),
                    nodes,
                }
            } else {
                WalOp::AddDoc {
                    name: name.to_string(),
                    file: file.clone(),
                    nodes,
                }
            },
        };
        let t0 = Instant::now();
        let commit = state.appender()?.commit(&record);
        if let Err(e) = commit {
            state.broken = true;
            return Err(CorpusError::Io(e));
        }
        if let Some(h) = self.telemetry.wal_commit.get() {
            h.record(t0.elapsed().as_nanos() as u64);
        }

        // 3. Publish the artifact under its final name.
        let publish = std::fs::rename(&staged, state.dir.join(&file))
            .and_then(|()| xwq_store::fsync_dir(&state.dir));
        if let Err(e) = publish {
            state.broken = true;
            return Err(CorpusError::Io(e));
        }

        state.next_gen += 1;
        state.ops_since_checkpoint += 1;
        Ok(DurableEntry { file, nodes, gen })
    }

    /// Durably adds a prebuilt document: its `.xwqi` artifact and WAL
    /// record are on disk (commit protocol above) before it is placed on a
    /// shard. Returns the shard.
    pub fn add_durable(
        &self,
        name: &str,
        doc: xwq_xml::Document,
        index: xwq_index::TreeIndex,
    ) -> Result<usize, CorpusError> {
        let durable = self.durable.as_ref().ok_or(CorpusError::NotDurable)?;
        let mut state = durable.lock().expect("durable state poisoned");
        if state.entries.contains_key(name) {
            return Err(CorpusError::DuplicateDocument(name.to_string()));
        }
        let entry = self.commit_artifact(&mut state, name, &doc, &index, false)?;
        state.entries.insert(name.to_string(), entry);
        self.add_prebuilt(name, doc, index)
    }

    /// Durably replaces a document with a new build. The old artifact is
    /// retired to epoch GC — readers pinned before the swap keep their
    /// generation, and the file is unlinked only after the epoch drains
    /// *and* a [`Corpus::checkpoint`] seals the replace. Returns the
    /// document's (unchanged) shard.
    pub fn replace(
        &self,
        name: &str,
        doc: xwq_xml::Document,
        index: xwq_index::TreeIndex,
    ) -> Result<usize, CorpusError> {
        let durable = self.durable.as_ref().ok_or(CorpusError::NotDurable)?;
        let mut state = durable.lock().expect("durable state poisoned");
        let Some(old) = state.entries.get(name).cloned() else {
            return Err(CorpusError::UnknownDocument(name.to_string()));
        };
        let entry = self.commit_artifact(&mut state, name, &doc, &index, true)?;
        state.entries.insert(name.to_string(), entry);
        let old_path = state.dir.join(&old.file);
        drop(state);

        let new_nodes = doc.len();
        let shard = {
            let mut catalog = self.catalog.write().expect("corpus catalog poisoned");
            let shard = *catalog
                .placements
                .get(name)
                .ok_or_else(|| CorpusError::UnknownDocument(name.to_string()))?;
            self.shards[shard].replace_prebuilt(name, doc, index)?;
            catalog.loads[shard].nodes += new_nodes;
            catalog.loads[shard].nodes -= old.nodes as usize;
            shard
        };
        self.gc.retire(old_path);
        Ok(shard)
    }

    /// Durably removes a document. Its artifact is retired to epoch GC
    /// (same drain + checkpoint rule as [`Corpus::replace`]).
    pub fn remove(&self, name: &str) -> Result<(), CorpusError> {
        let durable = self.durable.as_ref().ok_or(CorpusError::NotDurable)?;
        let mut state = durable.lock().expect("durable state poisoned");
        if state.broken {
            return Err(CorpusError::Broken);
        }
        let Some(old) = state.entries.get(name).cloned() else {
            return Err(CorpusError::UnknownDocument(name.to_string()));
        };
        let record = WalRecord {
            gen: state.next_gen,
            op: WalOp::RemoveDoc {
                name: name.to_string(),
            },
        };
        let t0 = Instant::now();
        let commit = state.appender()?.commit(&record);
        if let Err(e) = commit {
            state.broken = true;
            return Err(CorpusError::Io(e));
        }
        if let Some(h) = self.telemetry.wal_commit.get() {
            h.record(t0.elapsed().as_nanos() as u64);
        }
        state.next_gen += 1;
        state.ops_since_checkpoint += 1;
        state.entries.remove(name);
        let old_path = state.dir.join(&old.file);
        drop(state);

        {
            let mut catalog = self.catalog.write().expect("corpus catalog poisoned");
            if let Some(shard) = catalog.placements.remove(name) {
                self.shards[shard].remove(name);
                catalog.loads[shard].docs -= 1;
                catalog.loads[shard].nodes -= old.nodes as usize;
            }
        }
        self.gc.retire(old_path);
        Ok(())
    }

    /// Folds the WAL into the manifest: rewrites `MANIFEST.xwqc`
    /// atomically and durably, resets the log to a single checkpoint
    /// record carrying the next generation, and lets epoch GC reclaim
    /// every artifact the checkpoint sealed (once readers drain).
    pub fn checkpoint(&self) -> Result<(), CorpusError> {
        let durable = self.durable.as_ref().ok_or(CorpusError::NotDurable)?;
        let mut state = durable.lock().expect("durable state poisoned");
        if state.broken {
            return Err(CorpusError::Broken);
        }
        let mut manifest = Manifest::new();
        for (name, e) in &state.entries {
            manifest.push(name, &e.file, e.nodes as usize)?;
        }
        manifest.write_dir(&state.dir)?;
        wal::reset(&state.dir, state.next_gen).map_err(CorpusError::Wal)?;
        // The appender's fd points at the pre-reset log inode; reopen
        // lazily on the next commit.
        state.appender = None;
        state.ops_since_checkpoint = 0;
        drop(state);
        self.gc.seal_and_collect();
        Ok(())
    }
}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Corpus")
            .field("shards", &self.shard_count())
            .field("policy", &self.policy)
            .field("docs", &self.len())
            .field("loads", &self.loads())
            .field("durable", &self.is_durable())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_balances_doc_counts() {
        let corpus = Corpus::new(3, PlacementPolicy::RoundRobin);
        for i in 0..7 {
            corpus
                .add_xml(&format!("d{i}"), "<r><x/></r>", TopologyKind::Array)
                .unwrap();
        }
        let loads = corpus.loads();
        let docs: Vec<usize> = loads.iter().map(|l| l.docs).collect();
        assert_eq!(docs.iter().sum::<usize>(), 7);
        assert!(docs.iter().all(|&d| d == 2 || d == 3), "{docs:?}");
    }

    #[test]
    fn size_balanced_prefers_the_lightest_shard() {
        let corpus = Corpus::new(2, PlacementPolicy::SizeBalanced);
        // One big document lands on shard 0 (empty tie → lowest index)…
        let big: String = format!("<r>{}</r>", "<x/>".repeat(200));
        assert_eq!(corpus.add_xml("big", &big, TopologyKind::Array).unwrap(), 0);
        // …then small documents all pile onto shard 1 until it catches up.
        for i in 0..5 {
            assert_eq!(
                corpus
                    .add_xml(&format!("s{i}"), "<r><x/></r>", TopologyKind::Array)
                    .unwrap(),
                1,
                "small doc {i} should avoid the heavy shard"
            );
        }
        let loads = corpus.loads();
        assert!(loads[0].nodes > loads[1].nodes);
        assert_eq!(loads[1].docs, 5);
    }

    #[test]
    fn duplicate_names_are_rejected_corpus_wide() {
        // Even when the duplicate would land on a *different* shard.
        let corpus = Corpus::new(2, PlacementPolicy::RoundRobin);
        corpus.add_xml("d", "<r/>", TopologyKind::Array).unwrap();
        assert!(matches!(
            corpus.add_xml("d", "<r/>", TopologyKind::Array),
            Err(CorpusError::DuplicateDocument(_))
        ));
        assert_eq!(corpus.len(), 1);
    }

    #[test]
    fn doc_names_are_sorted_regardless_of_insertion_order() {
        let corpus = Corpus::new(2, PlacementPolicy::RoundRobin);
        for name in ["zeta", "alpha", "mid"] {
            corpus.add_xml(name, "<r/>", TopologyKind::Array).unwrap();
        }
        assert_eq!(corpus.doc_names(), vec!["alpha", "mid", "zeta"]);
        assert!(corpus.get("alpha").is_some());
        assert!(corpus.get("nope").is_none());
    }
}
