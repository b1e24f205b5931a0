//! `xwq-shard` — the sharded multi-document serving tier.
//!
//! Everything below this crate serves *one document at a time*: the
//! `.xwqi` store persists a single index, a [`xwq_store::Session`] batches
//! queries against one catalog with one worker pool. This crate is the
//! corpus layer on top:
//!
//! * **[`Corpus`]** — a catalog of documents spread over a fixed set of
//!   [`xwq_store::DocumentStore`] shards by a pluggable
//!   [`PlacementPolicy`] (round-robin or size-balanced). Corpus
//!   directories built by `xwq corpus build` are a [`Manifest`] plus one
//!   `.xwqi` per document, opened zero-copy via mmap so shards share the
//!   page cache.
//!
//! * **[`ShardedSession`]** — corpus-wide query serving with **pinned
//!   worker pools**: each shard owns its own condvar-parked long-lived
//!   workers, its own compiled-query LRU, and per-worker
//!   [`xwq_core::EvalScratch`] state, none of which ever crosses a shard
//!   boundary. [`ShardedSession::query_corpus`] fans one query out over
//!   all (or a subset of) documents and merges per-document outcomes in
//!   deterministic name order; a bounded admission queue sheds load when
//!   too many callers pile up ([`CorpusError::Overloaded`]).
//!
//! * **Durability** — a corpus opened from a directory is mutable and
//!   crash-safe: [`Corpus::add_durable`] / [`Corpus::replace`] /
//!   [`Corpus::remove`] commit through a checksummed write-ahead log
//!   (`MANIFEST.wal`, see [`mod@wal`]) before touching the in-memory
//!   catalog, [`Corpus::open_dir`] replays and repairs after a crash, and
//!   superseded artifacts are reclaimed by epoch-based GC ([`mod@gc`])
//!   only once in-flight readers drain and a [`Corpus::checkpoint`] seals
//!   the change.
//!
//! Shard→worker affinity being structural (a worker thread belongs to
//! exactly one shard for its whole life) is what makes later NUMA binding
//! a local change: pin each shard's workers to the node that holds its
//! mapped pages, and nothing above this crate moves.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use xwq_shard::{Corpus, PlacementPolicy, ShardedSession};
//! use xwq_core::Strategy;
//! use xwq_index::TopologyKind;
//!
//! let corpus = Corpus::new(2, PlacementPolicy::SizeBalanced);
//! corpus.add_xml("a", "<r><x/><x><y/></x></r>", TopologyKind::Array)?;
//! corpus.add_xml("b", "<r><x><y/></x></r>", TopologyKind::Succinct)?;
//!
//! let session = ShardedSession::new(Arc::new(corpus), 2);
//! let out = session.query_corpus("//x[y]", Strategy::Auto)?;
//! let counts: Vec<(&str, usize)> = out
//!     .iter()
//!     .map(|o| (o.doc.as_str(), o.result.as_ref().unwrap().nodes.len()))
//!     .collect();
//! assert_eq!(counts, vec![("a", 1), ("b", 1)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod corpus;
pub mod gc;
mod manifest;
mod session;
pub mod wal;

pub use corpus::{Corpus, CorpusError, DurableEntry, PlacementPolicy, RecoveryStats, ShardLoad};
pub use gc::{EpochGc, EpochGuard};
pub use manifest::{Manifest, ManifestDoc, ManifestError, MANIFEST_FILE, MANIFEST_VERSION};
pub use session::{AdmissionConfig, AdmissionStats, DocOutcome, ShardedConfig, ShardedSession};
pub use wal::{FailPoint, FaultPlan, WalError, WalOp, WalRecord};
