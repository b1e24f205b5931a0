//! The `.xwqi` persistent index format: a versioned, checksummed binary
//! serialization of a fully built document index.
//!
//! A `.xwqi` file holds everything [`xwq_core::Engine`] needs, so opening
//! one is a bulk read plus structural validation — no XML parsing, no
//! label-list construction, no rank-directory or segment-tree builds:
//!
//! ```text
//! ┌────────────────────────── header (32 bytes) ──────────────────────────┐
//! │ magic "XWQI" │ version u32 │ flags u32 │ reserved u32 │
//! │ payload_len u64 │ checksum u64 (over the payload bytes)               │
//! ├────────────────────────── document section ───────────────────────────┤
//! │ n_nodes u64 │ alphabet string-table │ labels u32[n] │ parent u32[n]   │
//! │ first_child u32[n] │ next_sibling u32[n] │ text_ref u32[n]            │
//! │ texts string-table                                                    │
//! ├─────────────────────────── index section ─────────────────────────────┤
//! │ topology u32 (0 = array, 1 = succinct)                                │
//! │   array:    subtree_end u32[n] │ depth u32[n]                         │
//! │   succinct: bit_len u64 │ bp words u64[] │ rank dir u64[]             │
//! │             (v2+) block dir u64[] │ select1 samples u32[]             │
//! │             (v2+) select0 samples u32[]                               │
//! │             seg_leaves u64 │ seg (i32,i32)[]                          │
//! │ label list count u64 │ per label: preorder ids u32[]                  │
//! │ text_values string-table │ text_ids u32[n]                            │
//! └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! **Versioning.** Version 2 added the O(1) rank/select directories
//! (packed block counts and sampled select inventories). Writers emit the
//! current version; the reader accepts both — a v1 file simply rebuilds
//! the newer directories from the bit data on load, so old indexes stay
//! readable across the upgrade.
//!
//! All integers are little-endian; arrays are length-prefixed; blobs are
//! padded so numeric arrays stay 8-byte aligned (see [`crate::wire`]).
//! The reader validates magic, version, payload length and checksum
//! before touching the payload, then rebuilds each layer through its
//! validated `from_raw_parts` constructor — corrupt input yields
//! [`FormatError`], never a panic.

use crate::wire::{checksum, Reader, Writer};
use crate::IndexBytes;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use xwq_index::{Topology, TopologyKind, TreeIndex};
use xwq_succinct::{BitVec, Bp, Owner, RankSelect, SuccinctTree};
use xwq_xml::{Alphabet, Document};

/// File magic: `XWQI`.
pub const MAGIC: [u8; 4] = *b"XWQI";

/// Current format version.
pub const VERSION: u32 = 2;

/// Oldest version the reader still accepts.
pub const MIN_VERSION: u32 = 1;

/// Header size in bytes.
pub const HEADER_LEN: usize = 32;

/// Everything that can go wrong reading or writing a `.xwqi` file.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file ends before a field it promises.
    Truncated {
        /// Bytes the next field needs.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expect: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// Structurally invalid content (bad offsets, inconsistent arrays, …).
    Corrupt(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic => write!(f, "not a .xwqi file (bad magic)"),
            FormatError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .xwqi version {v} (this build reads {VERSION})"
                )
            }
            FormatError::Truncated { need, have } => {
                write!(
                    f,
                    "truncated .xwqi file: need {need} more bytes, have {have}"
                )
            }
            FormatError::ChecksumMismatch { expect, got } => write!(
                f,
                "corrupt .xwqi file: checksum {got:#018x}, header says {expect:#018x}"
            ),
            FormatError::Corrupt(msg) => write!(f, "corrupt .xwqi file: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// Serializes a document plus its built index into `.xwqi` bytes.
///
/// The index must have been built over exactly this document (same node
/// count and alphabet); mismatches are reported as [`FormatError::Corrupt`].
pub fn serialize(doc: &Document, index: &TreeIndex) -> Result<Vec<u8>, FormatError> {
    serialize_version(doc, index, VERSION)
}

/// Serializes at an explicit format version (compatibility testing and
/// emitting indexes readable by older binaries). Only versions in
/// `MIN_VERSION..=VERSION` are supported.
pub fn serialize_version(
    doc: &Document,
    index: &TreeIndex,
    version: u32,
) -> Result<Vec<u8>, FormatError> {
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(FormatError::UnsupportedVersion(version));
    }
    if index.len() != doc.len() || index.alphabet().len() != doc.alphabet().len() {
        return Err(FormatError::Corrupt(
            "index was not built over this document".into(),
        ));
    }
    let mut w = Writer::new();

    // Document section.
    let (labels, parent, first_child, next_sibling, text_ref) = doc.raw_arrays();
    w.put_u64(doc.len() as u64);
    let names: Vec<&str> = doc.alphabet().names().collect();
    w.put_string_table(names.iter());
    w.put_u32_array(labels);
    w.put_u32_array(parent);
    w.put_u32_array(first_child);
    w.put_u32_array(next_sibling);
    w.put_u32_array(text_ref);
    w.put_string_table(doc.texts().iter());

    // Index section.
    let topo = index.topology();
    match topo.kind() {
        TopologyKind::Array => {
            w.put_u32(0);
            let (subtree_end, depth) = topo.array_derived().expect("array topology");
            w.put_u32_array(subtree_end);
            w.put_u32_array(depth);
        }
        TopologyKind::Succinct => {
            w.put_u32(1);
            let tree = topo.succinct_tree().expect("succinct topology");
            let rs = tree.bp().rank_select();
            w.put_u64(rs.bit_vec().len() as u64);
            w.put_u64_array(rs.bit_vec().words());
            w.put_u64_array(rs.super_ranks());
            if version >= 2 {
                w.put_u64_array(rs.block_ranks());
                w.put_u32_array(rs.select1_samples());
                w.put_u32_array(rs.select0_samples());
            }
            let (seg_leaves, seg) = tree.bp().seg_directory();
            w.put_u64(seg_leaves as u64);
            w.put_i32_pairs_flat(seg);
        }
    }
    w.put_u64(index.alphabet().len() as u64);
    for l in index.alphabet().ids() {
        w.put_u32_array(index.label_list(l));
    }
    w.put_string_table(index.text_values().iter());
    w.put_u32_array(index.text_ids());

    // Wrap in the header.
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Deserializes `.xwqi` bytes back into the document and its index,
/// copying every array into owned storage.
pub fn deserialize(bytes: &[u8]) -> Result<(Document, TreeIndex), FormatError> {
    deserialize_inner(bytes, None, true)
}

/// Zero-copy deserialization: the document and index arrays become views
/// into `bytes` (an mmap or aligned heap buffer), each view holding a
/// clone of the `Arc` so the buffer lives as long as the last structure.
///
/// Validation is exactly as strict as [`deserialize`] — checksum, bounds
/// and structural directory checks all run once against the mapped slice;
/// only the per-array `memcpy`s and per-string allocations are gone. On
/// big-endian targets or misaligned sections individual arrays silently
/// fall back to owned copies (correctness first).
pub fn deserialize_shared(bytes: &Arc<IndexBytes>) -> Result<(Document, TreeIndex), FormatError> {
    let owner: Owner = Arc::clone(bytes) as Owner;
    deserialize_inner(bytes.as_slice(), Some(owner), true)
}

/// [`deserialize_shared`] minus the checksum pass, for **trusted local
/// files only**: the checksum reads every payload byte, which on a
/// freshly mapped file faults in every page before the first query. All
/// structural validation (magic, version, payload length, directory
/// shapes, `from_raw_parts` consistency checks) still runs — only silent
/// bit rot goes undetected, exactly what the checksum exists to catch.
pub fn deserialize_shared_trusted(
    bytes: &Arc<IndexBytes>,
) -> Result<(Document, TreeIndex), FormatError> {
    let owner: Owner = Arc::clone(bytes) as Owner;
    deserialize_inner(bytes.as_slice(), Some(owner), false)
}

fn deserialize_inner(
    bytes: &[u8],
    owner: Option<Owner>,
    verify_checksum: bool,
) -> Result<(Document, TreeIndex), FormatError> {
    if bytes.len() < HEADER_LEN {
        return Err(FormatError::Truncated {
            need: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let expect = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let have = bytes.len() - HEADER_LEN;
    let payload_len = usize::try_from(payload_len).map_err(|_| FormatError::Truncated {
        need: usize::MAX,
        have,
    })?;
    if have < payload_len {
        return Err(FormatError::Truncated {
            need: payload_len,
            have,
        });
    }
    if have > payload_len {
        // A .xwqi file is exactly header + payload; trailing bytes mean a
        // damaged append or concatenated files — reject rather than guess.
        return Err(FormatError::Corrupt(format!(
            "{} bytes after the declared payload",
            have - payload_len
        )));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    if verify_checksum {
        let got = checksum(payload);
        if got != expect {
            return Err(FormatError::ChecksumMismatch { expect, got });
        }
    }

    let mut r = match owner {
        Some(owner) => Reader::new_shared(payload, owner),
        None => Reader::new(payload),
    };
    let corrupt = FormatError::Corrupt;

    // Document section. The alphabet wraps the name table directly: on
    // the zero-copy path the label names stay views into the mapping —
    // the last per-entry allocation on load is gone.
    let n = r.u64()?;
    let names = r.string_table()?;
    let alphabet = Alphabet::from_table(names).map_err(corrupt)?;
    let labels = r.u32_array()?;
    if labels.len() as u64 != n {
        return Err(FormatError::Corrupt("node count mismatch".into()));
    }
    let parent = r.u32_array()?;
    let first_child = r.u32_array()?;
    let next_sibling = r.u32_array()?;
    let text_ref = r.u32_array()?;
    let texts = r.string_table()?;
    let doc = Document::from_raw_parts(
        alphabet.clone(),
        labels.clone(),
        parent,
        first_child,
        next_sibling,
        text_ref,
        texts,
    )
    .map_err(corrupt)?;

    // Index section.
    let topo = match r.u32()? {
        0 => {
            let subtree_end = r.u32_array()?;
            let depth = r.u32_array()?;
            Topology::from_array_parts(&doc, subtree_end, depth).map_err(corrupt)?
        }
        1 => {
            let bit_len = usize::try_from(r.u64()?)
                .map_err(|_| FormatError::Corrupt("bit length too large".into()))?;
            let words = r.u64_array()?;
            let bits = BitVec::from_raw_parts(words, bit_len).map_err(corrupt)?;
            let super_ranks = r.u64_array()?;
            let rs = if version >= 2 {
                let block_ranks = r.u64_array()?;
                let select1_samples = r.u32_array()?;
                let select0_samples = r.u32_array()?;
                RankSelect::from_raw_parts_v2(
                    bits,
                    super_ranks,
                    block_ranks,
                    select1_samples,
                    select0_samples,
                )
                .map_err(corrupt)?
            } else {
                // v1 carries only the superblock directory: rebuild the
                // block and select directories from the bit data.
                RankSelect::from_raw_parts(bits, super_ranks).map_err(corrupt)?
            };
            let seg_leaves = usize::try_from(r.u64()?)
                .map_err(|_| FormatError::Corrupt("segment tree too large".into()))?;
            let seg = r.i32_pairs_flat()?;
            let bp = Bp::from_raw_parts(rs, seg_leaves, seg).map_err(corrupt)?;
            let tree = SuccinctTree::from_raw_parts(bp).map_err(corrupt)?;
            Topology::from_succinct_tree(&doc, tree).map_err(corrupt)?
        }
        k => {
            return Err(FormatError::Corrupt(format!("unknown topology kind {k}")));
        }
    };
    let n_lists = r.u64()?;
    if n_lists != alphabet.len() as u64 {
        return Err(FormatError::Corrupt("label list count mismatch".into()));
    }
    let mut label_lists: Vec<xwq_succinct::Store<u32>> = Vec::with_capacity(alphabet.len());
    for _ in 0..alphabet.len() {
        label_lists.push(r.u32_array()?);
    }
    let text_values = r.string_table()?;
    let text_ids = r.u32_array()?;
    let index =
        TreeIndex::from_raw_parts(alphabet, labels, topo, label_lists, text_values, text_ids)
            .map_err(corrupt)?;
    if r.remaining() != 0 {
        return Err(FormatError::Corrupt(format!(
            "{} trailing payload bytes",
            r.remaining()
        )));
    }
    Ok((doc, index))
}

/// Serializes `doc` + `index` to a `.xwqi` file.
pub fn write_index_file(
    path: impl AsRef<Path>,
    doc: &Document,
    index: &TreeIndex,
) -> Result<(), FormatError> {
    let bytes = serialize(doc, index)?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Reads a `.xwqi` file back into a document and its index, copying every
/// array into owned storage.
pub fn read_index_file(path: impl AsRef<Path>) -> Result<(Document, TreeIndex), FormatError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    deserialize(&bytes)
}

/// Memory-maps a `.xwqi` file and deserializes it zero-copy: queries run
/// straight against the mapped pages (see [`deserialize_shared`] for the
/// validation and fallback story, and `crate::IndexBytes` for the safety
/// trade-offs of mapping files you don't control).
pub fn read_index_file_mmap(path: impl AsRef<Path>) -> Result<(Document, TreeIndex), FormatError> {
    let bytes = IndexBytes::open_mmap(path)?;
    deserialize_shared(&bytes)
}

/// [`read_index_file_mmap`] for **trusted local files**: skips the
/// checksum pass (which touches every page at open) and issues an
/// `madvise(WILLNEED)` prefetch hint so page-ins overlap with the
/// structural validation. See [`deserialize_shared_trusted`] for exactly
/// what is and is not still checked.
pub fn read_index_file_mmap_trusted(
    path: impl AsRef<Path>,
) -> Result<(Document, TreeIndex), FormatError> {
    let bytes = IndexBytes::open_mmap(path)?;
    bytes.advise_willneed();
    deserialize_shared_trusted(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_index::TreeIndex;
    use xwq_xml::parse;

    fn sample() -> (Document, TreeIndex) {
        let doc =
            parse(r#"<site><regions><item id="7">gold <b>ring</b></item><item/></regions></site>"#)
                .unwrap();
        let ix = TreeIndex::build(&doc);
        (doc, ix)
    }

    #[test]
    fn roundtrip_array_topology() {
        let (doc, ix) = sample();
        let bytes = serialize(&doc, &ix).unwrap();
        let (doc2, ix2) = deserialize(&bytes).unwrap();
        assert_eq!(doc.to_xml(), doc2.to_xml());
        assert_eq!(ix.len(), ix2.len());
        for v in 0..ix.len() as u32 {
            assert_eq!(ix.subtree_end(v), ix2.subtree_end(v));
            assert_eq!(ix.depth(v), ix2.depth(v));
            assert_eq!(ix.text_of(v), ix2.text_of(v));
        }
        assert_eq!(ix2.topology().kind(), TopologyKind::Array);
    }

    #[test]
    fn roundtrip_succinct_topology() {
        let doc = parse("<a><b><c/><c/></b><d>text</d></a>").unwrap();
        let ix = TreeIndex::build_with(&doc, TopologyKind::Succinct);
        let bytes = serialize(&doc, &ix).unwrap();
        let (_, ix2) = deserialize(&bytes).unwrap();
        assert_eq!(ix2.topology().kind(), TopologyKind::Succinct);
        for v in 0..ix.len() as u32 {
            assert_eq!(ix.first_child(v), ix2.first_child(v));
            assert_eq!(ix.next_sibling(v), ix2.next_sibling(v));
            assert_eq!(ix.parent(v), ix2.parent(v));
            assert_eq!(ix.subtree_end(v), ix2.subtree_end(v));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let (doc, ix) = sample();
        let mut bytes = serialize(&doc, &ix).unwrap();
        bytes[0] = b'Y';
        assert!(matches!(deserialize(&bytes), Err(FormatError::BadMagic)));
    }

    #[test]
    fn future_version_rejected() {
        let (doc, ix) = sample();
        let mut bytes = serialize(&doc, &ix).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            deserialize(&bytes),
            Err(FormatError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_errors() {
        let (doc, ix) = sample();
        let bytes = serialize(&doc, &ix).unwrap();
        for cut in 0..bytes.len() {
            assert!(deserialize(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_corruption_errors() {
        let (doc, ix) = sample();
        let bytes = serialize(&doc, &ix).unwrap();
        // Flip one bit in each payload byte: the checksum must catch it.
        for i in HEADER_LEN..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x40;
            assert!(
                matches!(deserialize(&m), Err(FormatError::ChecksumMismatch { .. })),
                "flip at {i} slipped past the checksum"
            );
        }
    }
}
