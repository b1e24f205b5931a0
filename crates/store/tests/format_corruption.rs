//! Corruption tests: malformed `.xwqi` input must always produce a
//! [`FormatError`], never a panic and never a silently wrong index.

use xwq_index::{TopologyKind, TreeIndex};
use xwq_store::{deserialize, serialize, FormatError, HEADER_LEN};
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
