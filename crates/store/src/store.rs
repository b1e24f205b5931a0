//! The [`DocumentStore`]: a concurrent catalog of named, fully indexed
//! documents.
//!
//! Every entry is an [`Arc<StoredDocument>`] — an immutable bundle of the
//! parsed [`Document`] and a query [`Engine`] (which owns the built
//! [`xwq_index::TreeIndex`]). Readers clone the `Arc` out of the catalog
//! under a short read lock and then query lock-free; inserting or removing
//! documents never invalidates in-flight queries.

use crate::plans::{peek_index_checksum, plans_sidecar_path, read_plans_file, PlanSet};
use crate::{read_index_file, write_index_file, FormatError};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use xwq_core::Engine;
use xwq_index::{TopologyKind, TreeIndex};
use xwq_xml::{Document, ParseError};

/// Errors from catalog operations.
#[derive(Debug)]
pub enum StoreError {
    /// A document with this name is already registered.
    DuplicateName(String),
    /// No document with this name is registered.
    NotFound(String),
    /// Reading or writing a `.xwqi` file failed.
    Format(FormatError),
    /// Parsing source XML failed.
    Parse(ParseError),
    /// Reading source XML failed.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateName(n) => write!(f, "document {n:?} already exists"),
            StoreError::NotFound(n) => write!(f, "no document named {n:?}"),
            StoreError::Format(e) => write!(f, "{e}"),
            StoreError::Parse(e) => write!(f, "{e}"),
            StoreError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Format(e) => Some(e),
            StoreError::Parse(e) => Some(e),
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

/// Process-wide counter backing [`StoredDocument::generation`].
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// One immutable, indexed document held by the store.
pub struct StoredDocument {
    name: String,
    generation: u64,
    doc: Document,
    engine: Engine,
    /// Compiled plans loaded from a `.xwqp` sidecar, if one sat next to
    /// the index file and validated against it. [`crate::Session`]
    /// installs them on first compile, skipping cold planning.
    plans: Option<Arc<PlanSet>>,
}

impl StoredDocument {
    /// The catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A process-unique identity for this registration. Two documents
    /// registered under the same name (remove + re-insert) get different
    /// generations — caches keyed on `(name, generation)` can never serve
    /// state compiled against a replaced document.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The document tree (labels, text, navigation).
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The query engine over this document's index.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Persists this document's index as a `.xwqi` file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), FormatError> {
        write_index_file(path, &self.doc, self.engine.index())
    }

    /// The warm compiled plans this document was opened with, if any.
    pub fn warm_plans(&self) -> Option<&Arc<PlanSet>> {
        self.plans.as_ref()
    }
}

/// Loads and validates the `.xwqp` sidecar next to an index file. Any
/// failure — no sidecar, unreadable, corrupt, or bound to a different
/// index checksum — yields `None`: the caller simply starts cold.
pub fn load_sidecar_plans(index_path: &Path) -> Option<Arc<PlanSet>> {
    let set = read_plans_file(plans_sidecar_path(index_path)).ok()?;
    let checksum = peek_index_checksum(index_path).ok()?;
    (set.index_checksum == checksum).then(|| Arc::new(set))
}

impl fmt::Debug for StoredDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredDocument")
            .field("name", &self.name)
            .field("nodes", &self.doc.len())
            .finish()
    }
}

/// A named catalog of indexed documents, safe for concurrent readers.
#[derive(Default)]
pub struct DocumentStore {
    docs: RwLock<HashMap<String, Arc<StoredDocument>>>,
}

impl DocumentStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the entry outside the lock, then inserts it under one write
    /// lock: a new name when `replace` is false, a swap of an existing one
    /// when it is true.
    fn register(
        &self,
        name: &str,
        doc: Document,
        index: TreeIndex,
        plans: Option<Arc<PlanSet>>,
        replace: bool,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let stored = Arc::new(StoredDocument {
            name: name.to_string(),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            engine: Engine::from_index(index),
            doc,
            plans,
        });
        let mut docs = self.docs.write().expect("store lock poisoned");
        match (docs.contains_key(name), replace) {
            (true, false) => Err(StoreError::DuplicateName(name.to_string())),
            (false, true) => Err(StoreError::NotFound(name.to_string())),
            _ => {
                docs.insert(name.to_string(), Arc::clone(&stored));
                Ok(stored)
            }
        }
    }

    /// Indexes a parsed document and registers it under `name`.
    pub fn insert(
        &self,
        name: &str,
        doc: Document,
        topology: TopologyKind,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let index = TreeIndex::build_with(&doc, topology);
        self.register(name, doc, index, None, false)
    }

    /// Registers a document with an index that was already built over it
    /// (e.g. deserialized from a `.xwqi` file).
    pub fn insert_prebuilt(
        &self,
        name: &str,
        doc: Document,
        index: TreeIndex,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        self.register(name, doc, index, None, false)
    }

    /// Swaps the document registered under `name` for a new build under one
    /// write lock, so a concurrent [`Self::get`] sees the old entry or the
    /// new one, never neither. In-flight queries holding the old `Arc`
    /// finish unaffected; the new entry gets a fresh generation.
    pub fn replace_prebuilt(
        &self,
        name: &str,
        doc: Document,
        index: TreeIndex,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        self.register(name, doc, index, None, true)
    }

    /// [`Self::insert_prebuilt`] carrying warm compiled plans (e.g. a
    /// validated `.xwqp` sidecar from [`load_sidecar_plans`]) — the hook
    /// callers that load index bytes themselves (the sharded corpus) use
    /// to keep the warm-start path.
    pub fn insert_prebuilt_with_plans(
        &self,
        name: &str,
        doc: Document,
        index: TreeIndex,
        plans: Option<Arc<PlanSet>>,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        self.register(name, doc, index, plans, false)
    }

    /// Parses XML text, indexes it, and registers it under `name`.
    pub fn insert_xml(
        &self,
        name: &str,
        xml: &str,
        topology: TopologyKind,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let doc = xwq_xml::parse(xml).map_err(StoreError::Parse)?;
        self.insert(name, doc, topology)
    }

    /// Loads a persisted `.xwqi` index file and registers it under `name` —
    /// the cold-start path: a bulk read instead of an XML re-parse.
    pub fn load_index_file(
        &self,
        name: &str,
        path: impl AsRef<Path>,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let plans = load_sidecar_plans(path.as_ref());
        let (doc, index) = read_index_file(path)?;
        self.register(name, doc, index, plans, false)
    }

    /// Memory-maps a persisted `.xwqi` file and registers it under `name`:
    /// the zero-copy cold-start path. The registered document's arrays are
    /// views into the mapping (kept alive by the structures themselves),
    /// so queries served through a [`crate::Session`] run directly against
    /// the mapped file with no per-array copies. Several stores (or NUMA
    /// shards) mapping the same file share its page cache. See
    /// [`crate::read_index_file_mmap`] for validation and safety notes.
    pub fn open_mmap(
        &self,
        name: &str,
        path: impl AsRef<Path>,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let plans = load_sidecar_plans(path.as_ref());
        let (doc, index) = crate::read_index_file_mmap(path)?;
        self.register(name, doc, index, plans, false)
    }

    /// [`Self::open_mmap`] for **trusted local files**: skips the payload
    /// checksum pass (which faults in every page before the first query)
    /// and issues an `madvise(WILLNEED)` prefetch hint on unix64. All
    /// structural validation still runs. Only use this on artifacts this
    /// process (or a trusted pipeline) wrote — it inherits every caveat of
    /// mapping files you don't control *plus* undetected bit rot; see the
    /// README's zero-copy section.
    pub fn open_mmap_trusted(
        &self,
        name: &str,
        path: impl AsRef<Path>,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let plans = load_sidecar_plans(path.as_ref());
        let (doc, index) = crate::read_index_file_mmap_trusted(path)?;
        self.register(name, doc, index, plans, false)
    }

    /// Parses and indexes an XML file and registers it under `name`.
    pub fn load_xml_file(
        &self,
        name: &str,
        path: impl AsRef<Path>,
        topology: TopologyKind,
    ) -> Result<Arc<StoredDocument>, StoreError> {
        let xml = std::fs::read_to_string(path).map_err(StoreError::Io)?;
        self.insert_xml(name, &xml, topology)
    }

    /// Looks up a document by name.
    pub fn get(&self, name: &str) -> Option<Arc<StoredDocument>> {
        self.docs
            .read()
            .expect("store lock poisoned")
            .get(name)
            .cloned()
    }

    /// Removes a document; in-flight queries holding the `Arc` finish
    /// unaffected. Returns it if it was present.
    pub fn remove(&self, name: &str) -> Option<Arc<StoredDocument>> {
        self.docs.write().expect("store lock poisoned").remove(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .docs
            .read()
            .expect("store lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered documents.
    pub fn len(&self) -> usize {
        self.docs.read().expect("store lock poisoned").len()
    }

    /// True if no documents are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for DocumentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DocumentStore")
            .field("documents", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let store = DocumentStore::new();
        store
            .insert_xml("d", "<a><b/></a>", TopologyKind::Array)
            .unwrap();
        assert!(matches!(
            store.insert_xml("d", "<a/>", TopologyKind::Array),
            Err(StoreError::DuplicateName(_))
        ));
        let d = store.get("d").unwrap();
        assert_eq!(d.engine().query("//b").unwrap(), vec![1]);
        assert_eq!(store.names(), vec!["d".to_string()]);
        let removed = store.remove("d").unwrap();
        assert!(store.get("d").is_none());
        // The removed Arc still works.
        assert_eq!(removed.engine().query("//b").unwrap(), vec![1]);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("xwq-store-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.xwqi");
        let store = DocumentStore::new();
        let d = store
            .insert_xml("d", "<a><b>x</b><b/></a>", TopologyKind::Succinct)
            .unwrap();
        d.save(&path).unwrap();
        let loaded = store.load_index_file("d2", &path).unwrap();
        assert_eq!(
            loaded.engine().query("//b").unwrap(),
            d.engine().query("//b").unwrap()
        );
        std::fs::remove_file(&path).ok();
    }
}
