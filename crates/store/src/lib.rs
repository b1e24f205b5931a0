//! `xwq-store` — the persistence and serving layer.
//!
//! The paper's engine (see [`xwq_core`]) answers one query over one
//! in-memory index, but building that index means parsing XML and
//! constructing label lists, rank/select directories and (optionally)
//! balanced-parentheses topology on every invocation — parse+index cost
//! dominates any single query. This crate turns the index into a
//! *persistent artifact* and adds the serving machinery on top:
//!
//! * **`.xwqi` files** — a versioned, checksummed binary serialization of
//!   a fully built index (document arrays + alphabet + per-label preorder
//!   arrays + topology, including the succinct backend's
//!   balanced-parentheses bits and rank/select directories). Cold start
//!   becomes a bulk read plus structural validation: [`read_index_file`] /
//!   [`write_index_file`] / [`serialize`] / [`deserialize`] — or, zero-
//!   copy, a memory map: [`read_index_file_mmap`] / [`deserialize_shared`]
//!   build every array as a borrowed view into an [`IndexBytes`] buffer,
//!   so queries run straight against the mapped file with no per-array
//!   copies. Corrupt or truncated input yields [`FormatError`], never a
//!   panic, on both paths. The byte layout is documented in
//!   `src/format.rs`; the mapping trade-offs in `src/bytes.rs`.
//!
//! * **[`DocumentStore`]** — a named catalog of indexed documents behind
//!   `Arc`, safe for concurrent readers: lookups clone an
//!   [`Arc<StoredDocument>`] out of a short read lock, inserts and
//!   removals never invalidate in-flight queries.
//!   [`DocumentStore::open_mmap`] registers a memory-mapped `.xwqi`
//!   directly.
//!
//! * **[`Session`]** — the query-serving API: an LRU compiled-query cache
//!   keyed by `(document, query, strategy)` (repeats skip the XPath→ASTA
//!   compile), single [`Session::query`] and batched
//!   [`Session::query_many`] entry points, and cache observability via
//!   [`Session::cache_stats`].
//!
//! * **[`pool::Pool`]** — the one worker pool of the serving tier (batch
//!   workers here, pinned shard workers in `xwq-shard`, connection
//!   handlers in `xwq-serve`), with the batch [`pool::Latch`] the query
//!   fan-outs build on.
//!
//! The `xwq` CLI exposes this layer as `xwq index`, `xwq query --index`
//! and `xwq batch`; see the workspace README for the end-to-end tour and
//! `benches/store_load.rs` in `xwq-bench` for the cold-load vs re-parse
//! and cached vs uncached measurements.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use xwq_store::{DocumentStore, Session, QueryRequest};
//! use xwq_index::TopologyKind;
//! use xwq_core::Strategy;
//!
//! let store = DocumentStore::new();
//! store.insert_xml("auctions", "<site><item/><item/></site>", TopologyKind::Array)?;
//!
//! // Persist the built index and load it back without re-parsing.
//! let path = std::env::temp_dir().join("xwq-store-doctest.xwqi");
//! store.get("auctions").unwrap().save(&path)?;
//! store.load_index_file("auctions-cold", &path)?;
//!
//! let session = Session::new(Arc::new(store));
//! let hot = session.query("auctions", "//item", Strategy::Optimized)?;
//! assert_eq!(hot.nodes.len(), 2);
//! let again = session.query("auctions", "//item", Strategy::Optimized)?;
//! assert!(again.cache_hit);
//!
//! let batch = session.query_many(&[
//!     QueryRequest::new("auctions", "//item"),
//!     QueryRequest::new("auctions-cold", "//item"),
//! ]);
//! assert!(batch.iter().all(|r| r.is_ok()));
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytes;
mod durable;
mod format;
mod lru;
mod plans;
pub mod pool;
mod session;
mod store;
pub mod sync;
mod wire;

pub use bytes::IndexBytes;
pub use durable::{atomic_write, fsync_dir, write_synced};
pub use format::{
    deserialize, deserialize_shared, deserialize_shared_trusted, read_index_file,
    read_index_file_mmap, read_index_file_mmap_trusted, serialize, serialize_version,
    write_index_file, FormatError, HEADER_LEN, MAGIC, MIN_VERSION, VERSION,
};
pub use lru::LruCache;
pub use plans::{
    deserialize_plans, peek_index_checksum, plans_sidecar_path, read_plans_file, serialize_plans,
    write_plans_file_durable, PlanEntry, PlanSet, PLANS_HEADER_LEN, PLANS_MAGIC, PLANS_VERSION,
};
pub use session::{
    CacheStats, QueryRequest, QueryResponse, Session, SessionError, DEFAULT_CACHE_CAPACITY,
};
pub use store::{load_sidecar_plans, DocumentStore, StoreError, StoredDocument};
/// The `.xwqi` payload checksum, exported so sibling on-disk formats (the
/// corpus write-ahead log) share one pinned checksum spec instead of
/// growing a second, subtly different mixer.
pub use wire::checksum as payload_checksum;
