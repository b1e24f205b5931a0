//! Corruption tests: malformed `.xwqi` input must always produce a
//! [`FormatError`], never a panic and never a silently wrong index.

use xwq_index::{TopologyKind, TreeIndex};
use xwq_store::{deserialize, deserialize_shared, serialize, FormatError, IndexBytes, HEADER_LEN};
use xwq_xmark::GenOptions;
use xwq_xml::Document;

fn sample(topo: TopologyKind) -> (Document, Vec<u8>) {
    let doc = xwq_xmark::generate(GenOptions {
        factor: 0.005,
        seed: 42,
    });
    let index = TreeIndex::build_with(&doc, topo);
    let bytes = serialize(&doc, &index).expect("serialize");
    (doc, bytes)
}

#[test]
fn empty_and_tiny_inputs() {
    assert!(matches!(
        deserialize(&[]),
        Err(FormatError::Truncated { .. })
    ));
    assert!(matches!(
        deserialize(b"XW"),
        Err(FormatError::Truncated { .. })
    ));
    assert!(matches!(
        deserialize(&[0u8; HEADER_LEN]),
        Err(FormatError::BadMagic)
    ));
}

#[test]
fn bad_magic() {
    let (_, mut bytes) = sample(TopologyKind::Array);
    bytes[..4].copy_from_slice(b"WHAT");
    assert!(matches!(deserialize(&bytes), Err(FormatError::BadMagic)));
}

#[test]
fn unsupported_version() {
    let (_, mut bytes) = sample(TopologyKind::Array);
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        deserialize(&bytes),
        Err(FormatError::UnsupportedVersion(99))
    ));
    // Version 0 predates the format and is equally rejected.
    bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        deserialize(&bytes),
        Err(FormatError::UnsupportedVersion(0))
    ));
    // Version 1, the retired generation without the rank/select
    // directories, is no longer read either.
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        deserialize(&bytes),
        Err(FormatError::UnsupportedVersion(1))
    ));
}

#[test]
fn every_truncation_length_errors() {
    for topo in [TopologyKind::Array, TopologyKind::Succinct] {
        let (_, bytes) = sample(topo);
        // Exhaustive over the header and a stride through the payload.
        for cut in (0..bytes.len()).step_by(101).chain(0..HEADER_LEN + 64) {
            let cut = cut.min(bytes.len() - 1);
            assert!(
                deserialize(&bytes[..cut]).is_err(),
                "{topo:?}: truncation at {cut} must error"
            );
        }
    }
}

#[test]
fn bit_flips_in_payload_are_caught_by_the_checksum() {
    for topo in [TopologyKind::Array, TopologyKind::Succinct] {
        let (_, bytes) = sample(topo);
        for i in (HEADER_LEN..bytes.len()).step_by(37) {
            for bit in [0x01u8, 0x80] {
                let mut m = bytes.clone();
                m[i] ^= bit;
                assert!(
                    matches!(deserialize(&m), Err(FormatError::ChecksumMismatch { .. })),
                    "{topo:?}: flip {bit:#x} at byte {i} slipped through"
                );
            }
        }
    }
}

#[test]
fn header_tampering_is_caught() {
    let (_, bytes) = sample(TopologyKind::Array);
    // Shrink the claimed payload length: checksum no longer matches.
    let mut m = bytes.clone();
    m[16..24].copy_from_slice(&8u64.to_le_bytes());
    assert!(deserialize(&m).is_err());
    // Grow the claimed payload length past the file: truncated.
    let mut m = bytes.clone();
    m[16..24].copy_from_slice(&(u64::MAX).to_le_bytes());
    assert!(matches!(
        deserialize(&m),
        Err(FormatError::Truncated { .. })
    ));
    // Tamper with the stored checksum itself.
    let mut m = bytes;
    m[24] ^= 0xFF;
    assert!(matches!(
        deserialize(&m),
        Err(FormatError::ChecksumMismatch { .. })
    ));
}

#[test]
fn trailing_garbage_after_payload_is_rejected() {
    // A .xwqi file is exactly header + payload: bytes after the declared
    // payload (a damaged append, concatenated files) must be rejected, not
    // silently ignored.
    let (_, mut bytes) = sample(TopologyKind::Array);
    bytes.extend_from_slice(b"garbage");
    assert!(matches!(deserialize(&bytes), Err(FormatError::Corrupt(_))));
    // Two concatenated valid files are also not a valid file.
    let (_, one) = sample(TopologyKind::Array);
    let mut two = one.clone();
    two.extend_from_slice(&one);
    assert!(deserialize(&two).is_err());
}

/// Re-implementation of the payload checksum, pinning the on-disk spec:
/// if the algorithm in `xwq-store` ever changes, this test fails and the
/// format version must be bumped.
fn spec_checksum(bytes: &[u8]) -> u64 {
    const MIX: u64 = 0x2545_F491_4F6C_DD1D;
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ v).wrapping_mul(MIX).rotate_left(27);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = rem.len() as u8 | 0x80;
        h = (h ^ u64::from_le_bytes(tail))
            .wrapping_mul(MIX)
            .rotate_left(27);
    }
    h ^ (h >> 29)
}

#[test]
fn spec_checksum_matches_the_writer() {
    let (_, bytes) = sample(TopologyKind::Array);
    let stored = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    assert_eq!(stored, spec_checksum(&bytes[HEADER_LEN..]));
}

/// The v2 sections (packed block ranks, select samples) are guarded by
/// structural validation, not just the checksum: corrupt each new section
/// in a checksum-consistent way and demand a `Corrupt` error.
#[test]
fn v2_rank_select_directories_are_validated_structurally() {
    let doc = xwq_xmark::generate(GenOptions {
        factor: 0.005,
        seed: 42,
    });
    let index = TreeIndex::build_with(&doc, TopologyKind::Succinct);
    let bytes = serialize(&doc, &index).expect("serialize");
    let rs = index
        .topology()
        .succinct_tree()
        .expect("succinct")
        .bp()
        .rank_select();

    // Locate the succinct index section by searching for each directory's
    // serialized image in the payload (arrays are length-prefixed, so the
    // raw little-endian element run is unique enough at this scale).
    let payload = &bytes[HEADER_LEN..];
    // Each image includes the u64 length prefix so the search cannot
    // false-match similar-looking data elsewhere in the payload.
    fn with_prefix(bytes: impl IntoIterator<Item = u8>, len: usize) -> Vec<u8> {
        let mut v = (len as u64).to_le_bytes().to_vec();
        v.extend(bytes);
        v
    }
    let images: Vec<(&str, Vec<u8>)> = vec![
        (
            "block_ranks",
            with_prefix(
                rs.block_ranks().iter().flat_map(|v| v.to_le_bytes()),
                rs.block_ranks().len(),
            ),
        ),
        (
            "select1_samples",
            with_prefix(
                rs.select1_samples().iter().flat_map(|v| v.to_le_bytes()),
                rs.select1_samples().len(),
            ),
        ),
        (
            "select0_samples",
            with_prefix(
                rs.select0_samples().iter().flat_map(|v| v.to_le_bytes()),
                rs.select0_samples().len(),
            ),
        ),
    ];
    for (name, image) in images {
        assert!(image.len() > 8, "{name} image empty");
        let pos = payload
            .windows(image.len())
            .position(|w| w == &image[..])
            .unwrap_or_else(|| panic!("{name} not found in payload"));
        let mut m = bytes.clone();
        // Flip a low bit of the first element (past the length prefix),
        // then re-fix the checksum so only structural validation stands
        // between us and a wrong index.
        m[HEADER_LEN + pos + 8] ^= 1;
        let fixed = spec_checksum(&m[HEADER_LEN..]);
        m[24..32].copy_from_slice(&fixed.to_le_bytes());
        assert!(
            matches!(deserialize(&m), Err(FormatError::Corrupt(_))),
            "checksum-consistent corruption of {name} must be rejected structurally"
        );
    }
}

#[test]
fn inconsistent_content_with_a_valid_checksum_is_rejected_structurally() {
    // A corrupted payload whose checksum has been *re-fixed* must still be
    // rejected — by structural validation, not the checksum.
    let (_, bytes) = sample(TopologyKind::Array);
    // Payload offset 0 is the node count; claim one node too many.
    let n = u64::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 8].try_into().unwrap());
    let mut m = bytes.clone();
    m[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&(n + 1).to_le_bytes());
    let fixed = spec_checksum(&m[HEADER_LEN..]);
    m[24..32].copy_from_slice(&fixed.to_le_bytes());
    assert!(
        matches!(deserialize(&m), Err(FormatError::Corrupt(_))),
        "structural validation must catch a checksum-consistent lie"
    );
}

/// A document whose every text and attribute value starts and ends with a
/// two-byte character, so moving any string-table offset by one byte
/// splits a character.
fn multibyte_sample(topo: TopologyKind) -> (Document, TreeIndex, Vec<u8>) {
    let mut xml = String::from("<site>");
    let mut seed = 7u32;
    for i in 0..60 {
        seed = seed.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        xml += &format!("<item id=\"ü{i}ü\"><name>é{}é</name>", i % 7);
        if (seed >> 16).is_multiple_of(3) {
            xml += &format!("<desc><b>ö{i}ö</b><i/></desc>");
        }
        if (seed >> 16).is_multiple_of(2) {
            xml += "<keyword>ß✓ß</keyword>";
        }
        xml += "</item>";
    }
    xml += "</site>";
    let doc = xwq_xml::parse(&xml).expect("sample parses");
    let index = TreeIndex::build_with(&doc, topo);
    let bytes = serialize(&doc, &index).expect("serialize");
    (doc, index, bytes)
}

/// One array of the payload: where its first element sits (payload
/// offset), how wide each element is and how many there are.
struct Section {
    name: String,
    at: usize,
    width: usize,
    count: usize,
}

/// Walks a payload by the documented `.xwqi` layout, recording every
/// array and string-table offset directory.
struct Walk<'a> {
    p: &'a [u8],
    pos: usize,
    sections: Vec<Section>,
}

impl Walk<'_> {
    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.p[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }

    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.p[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }

    fn pad(&mut self) {
        self.pos = self.pos.next_multiple_of(8);
    }

    fn array(&mut self, name: impl Into<String>, width: usize) {
        let count = self.u64() as usize;
        self.sections.push(Section {
            name: name.into(),
            at: self.pos,
            width,
            count,
        });
        self.pos += count * width;
        // Only `u32` arrays are padded; 8-byte elements keep alignment.
        if width == 4 {
            self.pad();
        }
    }

    fn strings(&mut self, name: &str) {
        let n = self.u64() as usize;
        let at = self.pos;
        self.pos += (n + 1) * 8;
        let total = u64::from_le_bytes(self.p[self.pos - 8..self.pos].try_into().unwrap());
        self.sections.push(Section {
            name: format!("{name} offsets"),
            at,
            width: 8,
            count: n + 1,
        });
        self.pos += total as usize;
        self.pad();
    }
}

fn layout(payload: &[u8]) -> Vec<Section> {
    let mut w = Walk {
        p: payload,
        pos: 0,
        sections: Vec::new(),
    };
    w.u64(); // node count
    w.strings("names");
    for name in [
        "labels",
        "parent",
        "first_child",
        "next_sibling",
        "text_ref",
    ] {
        w.array(name, 4);
    }
    w.strings("texts");
    match w.u32() {
        0 => {
            w.array("subtree_end", 4);
            w.array("depth", 4);
        }
        1 => {
            w.u64(); // bit length
            for name in ["bp words", "super ranks", "block ranks"] {
                w.array(name, 8);
            }
            w.array("select1 samples", 4);
            w.array("select0 samples", 4);
            w.u64(); // segment-tree leaves
            w.array("segment tree", 8);
        }
        k => panic!("unknown topology kind {k}"),
    }
    let lists = w.u64();
    for l in 0..lists {
        w.array(format!("label list {l}"), 4);
    }
    w.strings("text_values");
    w.array("text_ids", 4);
    assert_eq!(w.pos, payload.len(), "walker must consume the payload");
    w.sections
}

fn get(payload: &[u8], s: &Section, i: usize) -> u64 {
    assert!(i < s.count, "{}: entry {i} of {}", s.name, s.count);
    let at = s.at + i * s.width;
    let mut b = [0u8; 8];
    b[..s.width].copy_from_slice(&payload[at..at + s.width]);
    u64::from_le_bytes(b)
}

fn set(payload: &mut [u8], s: &Section, i: usize, v: u64) {
    assert!(i < s.count, "{}: entry {i} of {}", s.name, s.count);
    let at = s.at + i * s.width;
    payload[at..at + s.width].copy_from_slice(&v.to_le_bytes()[..s.width]);
}

/// One section edit: a label for messages and the `(entry, new value)`
/// writes it makes.
type Edit = (String, Vec<(usize, u64)>);

fn oor(i: usize, v: u64) -> Edit {
    ("out-of-range".into(), vec![(i, v)])
}

fn obo(i: usize, v: u64) -> Edit {
    ("off-by-one".into(), vec![(i, v)])
}

fn swap(payload: &[u8], s: &Section, a: usize, b: usize) -> Edit {
    let (va, vb) = (get(payload, s, a), get(payload, s, b));
    assert_ne!(va, vb, "{}: swapping equal entries {a} and {b}", s.name);
    ("swapped-entry".into(), vec![(a, vb), (b, va)])
}

/// The edits to make in one section. Each is chosen so that an invariant
/// the loader checks today must break: structural validation, not the
/// checksum (which is re-fixed), has to reject it.
fn edits_for(s: &Section, payload: &[u8], doc: &Document, index: &TreeIndex) -> Vec<Edit> {
    const NONE: u64 = u32::MAX as u64;
    let n = doc.len();
    let val = |i| get(payload, s, i);
    let first = |pred: &dyn Fn(usize) -> bool, from: usize| {
        (from..s.count)
            .find(|&i| pred(i))
            .unwrap_or_else(|| panic!("{}: no entry to edit", s.name))
    };
    let mid = n / 2;
    match s.name.as_str() {
        "labels" => {
            let other = first(&|i| val(i) != val(mid), mid);
            vec![
                oor(mid, doc.alphabet().len() as u64),
                obo(mid, val(mid) + 1),
                swap(payload, s, mid, other),
            ]
        }
        "parent" => {
            let other = first(&|i| val(i) != val(mid), mid);
            vec![
                oor(mid, n as u64),
                obo(mid, val(mid) + 1),
                swap(payload, s, mid, other),
            ]
        }
        "first_child" => {
            let a = first(&|i| val(i) != NONE, mid);
            let b = first(&|i| val(i) != NONE, a + 1);
            vec![oor(a, n as u64), obo(a, val(a) + 1), swap(payload, s, a, b)]
        }
        "next_sibling" => {
            let a = first(&|i| val(i) != NONE, mid);
            let pa = doc.parent(a as u32);
            let b = first(&|i| val(i) != NONE && doc.parent(i as u32) != pa, a + 1);
            vec![oor(a, n as u64), obo(a, val(a) - 1), swap(payload, s, a, b)]
        }
        "text_ref" => {
            let text = first(&|i| val(i) != NONE, mid);
            let elem = first(&|i| val(i) == NONE, mid);
            vec![
                oor(text, doc.texts().len() as u64),
                obo(elem, (val(elem) + 1) & NONE),
                swap(payload, s, text, elem),
            ]
        }
        "subtree_end" | "depth" => {
            let other = first(&|i| val(i) != val(mid), mid);
            vec![
                oor(mid, n as u64 + 1),
                obo(mid, val(mid) + 1),
                swap(payload, s, mid, other),
            ]
        }
        "text_ids" => {
            let top = (0..s.count)
                .filter(|&i| val(i) != NONE)
                .max_by_key(|&i| val(i))
                .expect("a text node");
            let text = first(&|i| val(i) != NONE, mid);
            let elem = first(&|i| val(i) == NONE, mid);
            vec![
                oor(text, index.text_values().len() as u64),
                obo(top, val(top) + 1),
                swap(payload, s, text, elem),
            ]
        }
        "texts offsets" | "text_values offsets" => {
            let last = s.count - 1;
            assert!(last >= 3, "{}: too few strings", s.name);
            vec![
                oor(1, val(last) + 1),
                obo(1, val(1) + 1),
                obo(last, val(last) - 1),
                swap(payload, s, 1, 2),
            ]
        }
        name if name.starts_with("label list ") => {
            let mut e = vec![oor(0, n as u64), obo(0, val(0) + 1)];
            if s.count >= 2 {
                e.push(swap(payload, s, 0, 1));
            }
            e
        }
        _ => Vec::new(),
    }
}

/// Every section of the document and index, three kinds of edit each,
/// checksum re-fixed: both loaders must answer `Corrupt` — never `Ok`,
/// never a panic.
#[test]
fn checksum_consistent_edits_of_every_section_are_rejected() {
    for topo in [TopologyKind::Array, TopologyKind::Succinct] {
        let (doc, index, bytes) = multibyte_sample(topo);
        let payload = &bytes[HEADER_LEN..];
        let sections = layout(payload);
        let mut covered = Vec::new();
        for s in &sections {
            let edits = edits_for(s, payload, &doc, &index);
            if !edits.is_empty() {
                covered.push(s.name.clone());
            }
            for (kind, writes) in edits {
                let mut m = bytes.clone();
                for &(i, v) in &writes {
                    set(&mut m[HEADER_LEN..], s, i, v);
                }
                let fixed = spec_checksum(&m[HEADER_LEN..]);
                m[24..32].copy_from_slice(&fixed.to_le_bytes());
                let what = format!("{topo:?}: {kind} edit {writes:?} of {}", s.name);
                let owned = std::panic::catch_unwind(|| deserialize(&m).map(|_| ()));
                let shared = std::panic::catch_unwind(|| {
                    deserialize_shared(&IndexBytes::from_vec(m.clone())).map(|_| ())
                });
                for (mode, got) in [("owned", owned), ("shared", shared)] {
                    match got {
                        Err(_) => panic!("{what}: {mode} load panicked"),
                        Ok(Err(FormatError::Corrupt(_))) => {}
                        Ok(other) => panic!("{what}: {mode} load gave {other:?}"),
                    }
                }
            }
        }
        let mut want: Vec<String> = [
            "labels",
            "parent",
            "first_child",
            "next_sibling",
            "text_ref",
            "texts offsets",
            "text_values offsets",
            "text_ids",
        ]
        .map(String::from)
        .to_vec();
        if topo == TopologyKind::Array {
            want.extend(["subtree_end".into(), "depth".into()]);
        }
        want.extend((0..doc.alphabet().len()).map(|l| format!("label list {l}")));
        for name in &want {
            assert!(covered.contains(name), "{topo:?}: {name} not corrupted");
        }
    }
}
