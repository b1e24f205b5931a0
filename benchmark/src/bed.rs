//! Set-up: the ingest rounds that bring a workload's documents from XML
//! bytes to a served, answering system, and the beds (stores, sessions,
//! corpus, server) the timed phase runs against.
//!
//! An ingest round is the system's whole set-up path, timed step by step:
//! parse → index → write → open → first query answered. It is repeated
//! and every set-up figure is the median round, so one slow disk flush
//! does not decide `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xwq_core::Strategy;
use xwq_index::{TopologyKind, TreeIndex};
use xwq_shard::{AdmissionConfig, Corpus, PlacementPolicy, ShardedConfig, ShardedSession};
use xwq_store::{DocumentStore, Session};

use crate::inputs::DocInput;

// Every machine-derived default of the system is pinned here and recorded
// in results.json, so a run on another box measures the same configuration.
pub const SHARDS: usize = 2;
pub const PLACEMENT: PlacementPolicy = PlacementPolicy::SizeBalanced;
pub const CACHE_CAPACITY: usize = 256;
pub const WORKERS_PER_SHARD: usize = 1;
pub const MAX_ACTIVE: usize = 2;
pub const MAX_WAITING: usize = 64;
pub const HTTP_WORKERS: usize = 2;

pub fn sharded_config() -> ShardedConfig {
    ShardedConfig {
        workers_per_shard: WORKERS_PER_SHARD,
        cache_capacity: CACHE_CAPACITY,
        admission: AdmissionConfig {
            max_active: MAX_ACTIVE,
            max_waiting: MAX_WAITING,
            timeout: None,
        },
    }
}

/// Step times of one ingest round, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub parse: f64,
    pub build: f64,
    /// `open_mmap` / `Corpus::open_dir`.
    pub open: f64,
    /// XML bytes → `.xwqi` bytes in memory: parse + build + serialize.
    /// The processor's share of an ingest; the disk's is in `write`.
    pub encode: f64,
    /// The whole round.
    pub total: f64,
    /// Whole update ops (XML bytes → new version answering queries), ms.
    pub update_ms: Vec<f64>,
    /// `Corpus::replace` alone, ms (corpus rounds that replace).
    pub commit_ms: Vec<f64>,
    pub checkpoint_ms: f64,
    pub wal_bytes_per_op: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A single-document bed: one store serving `doc` from a mapped `.xwqi`.
pub struct SingleBed {
    pub store: Arc<DocumentStore>,
    pub index_path: PathBuf,
}

pub const DOC: &str = "doc";

/// Opens a fresh store over the on-disk index and answers `first_query`:
/// what every `xwq query --index` invocation pays. Returns the bed, its
/// session and `(open, first)` seconds.
pub fn open_single(
    index_path: &Path,
    first_query: (&str, Strategy),
) -> (SingleBed, Session, f64, f64) {
    let t0 = Instant::now();
    let store = Arc::new(DocumentStore::new());
    store
        .open_mmap(DOC, index_path)
        .expect("the index this run wrote opens");
    let t1 = Instant::now();
    let session = Session::with_cache_capacity(Arc::clone(&store), CACHE_CAPACITY);
    session
        .query(DOC, first_query.0, first_query.1)
        .expect("first query is answered");
    let t2 = Instant::now();
    let bed = SingleBed {
        store,
        index_path: index_path.to_path_buf(),
    };
    (bed, session, secs(t1 - t0), secs(t2 - t1))
}

/// One single-document ingest round; the bed and session it ends with are
/// returned so the last round's can serve the timed phase.
pub fn single_round(
    input: &DocInput,
    topology: TopologyKind,
    index_path: &Path,
    first_query: (&str, Strategy),
) -> (Round, SingleBed, Session) {
    // A stale sidecar would bind to the old checksum and be ignored, but
    // it would still count into the index size.
    std::fs::remove_file(xwq_store::plans_sidecar_path(index_path)).ok();
    let t0 = Instant::now();
    let doc = xwq_xml::parse_bytes(&input.xml).expect("generated XML parses");
    let t1 = Instant::now();
    let index = TreeIndex::build_with(&doc, topology);
    let t2 = Instant::now();
    // `write_index_file` in two steps, so the encoding can be timed apart
    // from the file system.
    let bytes = xwq_store::serialize(&doc, &index).expect("index serializes");
    let t_encoded = Instant::now();
    std::fs::write(index_path, &bytes).expect("index file is written");
    drop((doc, index, bytes));
    let (bed, session, open, _) = open_single(index_path, first_query);
    let t4 = Instant::now();
    let round = Round {
        parse: secs(t1 - t0),
        build: secs(t2 - t1),
        open,
        encode: secs(t_encoded - t0),
        total: secs(t4 - t0),
        update_ms: vec![secs(t4 - t0) * 1e3],
        ..Round::default()
    };
    (round, bed, session)
}

/// A corpus bed: a durable corpus directory opened with
/// `Corpus::open_dir` behind a pinned `ShardedSession`.
pub struct CorpusBed {
    pub corpus: Arc<Corpus>,
    pub session: Arc<ShardedSession>,
    pub dir: PathBuf,
}

/// Opens the corpus directory and answers `first_query` over the whole
/// corpus. Returns the bed and `(open, first)` seconds.
pub fn open_corpus(dir: &Path, first_query: (&str, Strategy)) -> (CorpusBed, f64, f64) {
    let t0 = Instant::now();
    let corpus = Arc::new(
        Corpus::open_dir(dir, SHARDS, PLACEMENT).expect("the corpus this run wrote opens"),
    );
    let t1 = Instant::now();
    let session = Arc::new(ShardedSession::with_config(
        Arc::clone(&corpus),
        sharded_config(),
    ));
    let out = session
        .query_corpus(first_query.0, first_query.1)
        .expect("first corpus query is admitted");
    assert!(
        out.iter().all(|o| o.result.is_ok()),
        "first corpus query is answered on every document"
    );
    let t2 = Instant::now();
    let bed = CorpusBed {
        corpus,
        session,
        dir: dir.to_path_buf(),
    };
    (bed, secs(t1 - t0), secs(t2 - t1))
}

/// Size of the write-ahead log, 0 when it does not exist yet.
pub fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("MANIFEST.wal")).map_or(0, |m| m.len())
}

/// One whole update as a corpus operator performs it: XML bytes → parse →
/// build → `Corpus::replace`. Returns `(parse, build, replace)` seconds.
pub fn replace_op(corpus: &Corpus, input: &DocInput) -> Result<(f64, f64, f64), String> {
    let t0 = Instant::now();
    let doc = xwq_xml::parse_bytes(&input.xml).expect("generated XML parses");
    let t1 = Instant::now();
    let index = TreeIndex::build_with(&doc, TopologyKind::Array);
    let t2 = Instant::now();
    corpus
        .replace(&input.name, doc, index)
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    Ok((secs(t1 - t0), secs(t2 - t1), secs(t3 - t2)))
}

/// One corpus ingest round: create the directory, durably add every
/// document, optionally replace each once (the write-path sample of a
/// workload that has no writer of its own), checkpoint, drop everything,
/// reopen from disk and answer the first query.
pub fn corpus_round(
    inputs: &[DocInput],
    dir: &Path,
    replace_each: bool,
    first_query: (&str, Strategy),
) -> (Round, CorpusBed) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("stale corpus directory is removable");
    }
    let mut round = Round::default();
    let t0 = Instant::now();
    let corpus =
        Corpus::open_or_create_dir(dir, SHARDS, PLACEMENT).expect("corpus directory is created");
    for input in inputs {
        let a = Instant::now();
        let doc = xwq_xml::parse_bytes(&input.xml).expect("generated XML parses");
        let b = Instant::now();
        let index = TreeIndex::build_with(&doc, TopologyKind::Array);
        let c = Instant::now();
        // `add_durable` encodes inside its commit; encoding once more here
        // times it apart from the disk.
        let encoded = xwq_store::serialize(&doc, &index).expect("index serializes");
        let d = Instant::now();
        drop(encoded);
        corpus
            .add_durable(&input.name, doc, index)
            .expect("add commits");
        round.parse += secs(b - a);
        round.build += secs(c - b);
        round.encode += secs(d - a);
    }
    if replace_each {
        let wal_before = wal_len(dir);
        for input in inputs {
            let (parse, build, commit) = replace_op(&corpus, input).expect("replace commits");
            round.update_ms.push((parse + build + commit) * 1e3);
            round.commit_ms.push(commit * 1e3);
        }
        round.wal_bytes_per_op = (wal_len(dir) - wal_before) as f64 / inputs.len() as f64;
    }
    let t = Instant::now();
    corpus.checkpoint().expect("checkpoint commits");
    round.checkpoint_ms = secs(t.elapsed()) * 1e3;
    drop(corpus);
    let (bed, open, _) = open_corpus(dir, first_query);
    round.open = open;
    round.total = secs(t0.elapsed());
    (round, bed)
}

/// Bytes of the live index artifacts: `.xwqi` files plus any `.xwqp`
/// sidecars beside them.
pub fn index_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .flat_map(|p| [p.clone(), xwq_store::plans_sidecar_path(p)])
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// The live `.xwqi` artifacts of a durable corpus.
pub fn corpus_artifacts(corpus: &Corpus) -> Vec<PathBuf> {
    let dir = corpus.dir().expect("bench corpora are durable");
    corpus
        .durable_entries()
        .into_iter()
        .map(|(_, e)| dir.join(e.file))
        .collect()
}
