//! Low-level byte-level plumbing for the `.xwqi` format: a little-endian
//! writer, a bounds-checked reader that never panics on corrupt input, and
//! the payload checksum.
//!
//! Layout conventions (see the crate docs for the full file layout):
//!
//! * all integers are little-endian;
//! * numeric arrays are a `u64` element count followed by the elements;
//! * string tables are an offset directory plus one contiguous UTF-8 blob;
//! * byte blobs are padded to an 8-byte boundary, so every numeric array
//!   in the file sits at 8-byte alignment relative to the payload start.
//!
//! The [`Reader`] has two modes. In owned mode every array is decoded into
//! a fresh `Vec`. In **zero-copy mode** ([`Reader::new_shared`]) the
//! payload is a view into a reference-counted buffer (an mmap or an
//! aligned heap read — see [`crate::IndexBytes`]) and arrays come back as
//! borrowed [`Store::Shared`] views into that buffer: no copy, no
//! allocation. Zero-copy engages per array only when the platform is
//! little-endian (the wire format is LE) and the section is correctly
//! aligned; otherwise that array silently decodes into an owned `Vec`, so
//! corrupt alignment can never become undefined behavior — only a copy.

use crate::FormatError;
use xwq_succinct::{Owner, Pod, SharedSlice, Store, StrTable};

/// Mixer used by [`checksum`] (splitmix64's finalizer constant).
const MIX: u64 = 0x2545_F491_4F6C_DD1D;

/// A fast 64-bit payload checksum (not cryptographic — it guards against
/// truncation and bit rot, like a CRC).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
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

/// Append-only little-endian buffer writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes followed by zero padding to an 8-byte boundary.
    pub fn put_padded_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Writes a length-prefixed `u32` array.
    pub fn put_u32_array(&mut self, vals: &[u32]) {
        self.put_u64(vals.len() as u64);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Writes a length-prefixed `u64` array.
    pub fn put_u64_array(&mut self, vals: &[u64]) {
        self.put_u64(vals.len() as u64);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `(i32, i32)` pair array given in flat
    /// interleaved form (`[a0, b0, a1, b1, …]`); the count written is the
    /// number of *pairs*, byte-identical to the historical pair encoding.
    ///
    /// # Panics
    /// Panics if `flat.len()` is odd.
    pub fn put_i32_pairs_flat(&mut self, flat: &[i32]) {
        assert!(
            flat.len().is_multiple_of(2),
            "flat pair array has odd length"
        );
        self.put_u64((flat.len() / 2) as u64);
        for &v in flat {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a string table: count, offset directory, and one padded
    /// UTF-8 blob.
    pub fn put_string_table<S: AsRef<str>>(
        &mut self,
        strings: impl ExactSizeIterator<Item = S> + Clone,
    ) {
        self.put_u64(strings.len() as u64);
        let mut off = 0u64;
        self.put_u64(off);
        for s in strings.clone() {
            off += s.as_ref().len() as u64;
            self.put_u64(off);
        }
        let mut blob = Vec::with_capacity(off as usize);
        for s in strings {
            blob.extend_from_slice(s.as_ref().as_bytes());
        }
        self.put_padded_bytes(&blob);
    }
}

/// Decoding of one wire element type (little-endian) for the owned path.
trait Elem: Pod {
    const BYTES: usize;
    fn decode(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! elem {
    ($t:ty) => {
        impl Elem for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn decode(bytes: &[u8]) -> Vec<Self> {
                bytes
                    .chunks_exact(Self::BYTES)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("exact chunk")))
                    .collect()
            }
        }
    };
}

elem!(u32);
elem!(u64);
elem!(i32);

/// Bounds-checked little-endian reader over a borrowed payload. Every
/// accessor returns `Err(FormatError::Truncated)` instead of panicking
/// when the payload is too short, and array lengths are validated against
/// the remaining bytes *before* any allocation, so a corrupt length field
/// cannot trigger a huge allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Present in zero-copy mode: the handle keeping `buf`'s backing
    /// memory alive, cloned into every [`Store::Shared`] view handed out.
    owner: Option<Owner>,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf` (owned mode: arrays are
    /// decoded into fresh `Vec`s).
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            owner: None,
        }
    }

    /// A zero-copy reader: `buf` must borrow from memory kept alive by
    /// `owner`, and arrays are returned as views into it where alignment
    /// (and endianness) permit.
    pub fn new_shared(buf: &'a [u8], owner: Owner) -> Self {
        Self {
            buf,
            pos: 0,
            owner: Some(owner),
        }
    }

    /// Wraps an element region as a shared view when possible, otherwise
    /// decodes it into an owned `Vec`.
    fn to_store<T: Elem>(&self, bytes: &'a [u8]) -> Store<T> {
        if let Some(owner) = &self.owner {
            #[cfg(target_endian = "little")]
            {
                // SAFETY: `T: Pod` (any bit pattern valid); the split below
                // only yields the correctly aligned middle.
                let (pre, mid, post) = unsafe { bytes.align_to::<T>() };
                if pre.is_empty() && post.is_empty() {
                    // An empty pre/post split can only mean the region was
                    // already aligned and an exact multiple of the element
                    // size; guard the cast against either invariant rotting.
                    debug_assert!(
                        (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()),
                        "aligned split from a misaligned region"
                    );
                    debug_assert_eq!(
                        std::mem::size_of_val(mid),
                        bytes.len(),
                        "aligned split dropped bytes"
                    );
                    // SAFETY: `bytes` borrows from the owner's memory per
                    // the `new_shared` contract.
                    return Store::Shared(unsafe { SharedSlice::new(owner.clone(), mid) });
                }
            }
            let _ = owner;
        }
        Store::Owned(T::decode(bytes))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < n {
            return Err(FormatError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an element count: a `u64` that must fit in `usize` and whose
    /// elements (of `elem_bytes` each) must fit in the remaining bytes.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, FormatError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw)
            .ok()
            .filter(|&n| {
                n.checked_mul(elem_bytes)
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or(FormatError::Truncated {
                need: raw.saturating_mul(elem_bytes as u64) as usize,
                have: self.remaining(),
            })?;
        Ok(n)
    }

    fn skip_padding(&mut self) -> Result<(), FormatError> {
        while !self.pos.is_multiple_of(8) {
            self.take(1)?;
        }
        Ok(())
    }

    /// Reads a length-prefixed `u32` array.
    pub fn u32_array(&mut self) -> Result<Store<u32>, FormatError> {
        let n = self.count(4)?;
        let bytes = self.take(n * 4)?;
        let out = self.to_store(bytes);
        self.skip_padding()?;
        Ok(out)
    }

    /// Reads a length-prefixed `u64` array.
    pub fn u64_array(&mut self) -> Result<Store<u64>, FormatError> {
        let n = self.count(8)?;
        let bytes = self.take(n * 8)?;
        Ok(self.to_store(bytes))
    }

    /// Reads a length-prefixed `(i32, i32)` pair array in flat interleaved
    /// form (`[a0, b0, a1, b1, …]` — the count on the wire is pairs).
    pub fn i32_pairs_flat(&mut self) -> Result<Store<i32>, FormatError> {
        let n = self.count(8)?;
        let bytes = self.take(n * 8)?;
        Ok(self.to_store(bytes))
    }

    /// Reads a string table written by [`Writer::put_string_table`]. In
    /// zero-copy mode the offsets and blob stay borrowed. Either way the
    /// table is validated once here ([`StrTable::check`]), in one pass
    /// over the blob and one over the directory.
    pub fn string_table(&mut self) -> Result<StrTable, FormatError> {
        let n = self.count(8)?;
        let off_bytes = self.take((n + 1) * 8)?;
        let offsets: Store<u64> = self.to_store(off_bytes);
        let total = usize::try_from(offsets[n])
            .map_err(|_| FormatError::Corrupt("string table too large".into()))?;
        let blob = self.take(total)?;
        let table = match (&self.owner, offsets) {
            (Some(owner), Store::Shared(off_view)) => {
                // SAFETY: `blob` borrows from the owner's memory per the
                // `new_shared` contract; `u8` has no alignment demands.
                let blob_view = unsafe { SharedSlice::new(owner.clone(), blob) };
                StrTable::shared(off_view, blob_view).map_err(FormatError::Corrupt)?
            }
            (_, offsets) => {
                StrTable::check(&offsets, blob).map_err(FormatError::Corrupt)?;
                let out = offsets
                    .windows(2)
                    .map(|w| {
                        let s = &blob[w[0] as usize..w[1] as usize];
                        // SAFETY: `check` accepted the table: the offsets
                        // ascend within the blob, on character boundaries
                        // of a UTF-8 blob.
                        unsafe { std::str::from_utf8_unchecked(s) }.to_string()
                    })
                    .collect();
                StrTable::Owned(out)
            }
        };
        self.skip_padding()?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(t: &StrTable) -> Vec<String> {
        t.iter().map(String::from).collect()
    }

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = Writer::new();
        w.put_u64(7);
        w.put_u32_array(&[1, 2, 3]);
        w.put_u64_array(&[u64::MAX, 0]);
        w.put_i32_pairs_flat(&[-1, 2, i32::MIN, i32::MAX]);
        w.put_string_table(["", "héllo", "x"].iter());
        w.put_u32(9);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(&*r.u32_array().unwrap(), &[1, 2, 3]);
        assert_eq!(&*r.u64_array().unwrap(), &[u64::MAX, 0]);
        assert_eq!(&*r.i32_pairs_flat().unwrap(), &[-1, 2, i32::MIN, i32::MAX]);
        assert_eq!(strings(&r.string_table().unwrap()), ["", "héllo", "x"]);
        assert_eq!(r.u32().unwrap(), 9);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn shared_mode_returns_views_and_matches_owned() {
        let mut w = Writer::new();
        w.put_u32_array(&[10, 20, 30]);
        w.put_u64_array(&[1, 2]);
        w.put_string_table(["a", "bc"].iter());
        let bytes = std::sync::Arc::new(w.into_bytes());
        // The Vec<u8> allocation is not 8-aligned by contract, but arrays
        // in it may still land aligned; read both modes and compare.
        let owner: Owner = bytes.clone();
        let mut shared = Reader::new_shared(&bytes, owner);
        let mut owned = Reader::new(&bytes);
        assert_eq!(&*shared.u32_array().unwrap(), &*owned.u32_array().unwrap());
        assert_eq!(&*shared.u64_array().unwrap(), &*owned.u64_array().unwrap());
        assert_eq!(
            strings(&shared.string_table().unwrap()),
            strings(&owned.string_table().unwrap())
        );
    }

    #[test]
    fn shared_mode_misaligned_base_falls_back_to_owned() {
        let mut w = Writer::new();
        w.put_u64_array(&[3, 5, 7]);
        // An 8-aligned buffer holding the payload at offset 1: every u64
        // section the reader sees is then guaranteed misaligned.
        let mut padded = vec![0u8; 1];
        padded.extend_from_slice(&w.into_bytes());
        let buf = crate::IndexBytes::from_vec(padded);
        assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0);
        let owner: Owner = buf.clone();
        let mut r = Reader::new_shared(&buf.as_slice()[1..], owner);
        let arr = r.u64_array().unwrap();
        assert!(!arr.is_shared(), "misaligned section must decode, not view");
        assert_eq!(&*arr, &[3, 5, 7]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u32_array(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            // Either the array reads short (impossible here) or errors.
            assert!(r.u32_array().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn huge_length_prefix_does_not_allocate() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.u32_array(), Err(FormatError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_string_table_is_an_error_in_both_modes() {
        let mut w = Writer::new();
        w.put_u64(1); // one string
        w.put_u64(0);
        w.put_u64(2); // two bytes long
        w.put_padded_bytes(&[0xFF, 0xFE]);
        let bytes = std::sync::Arc::new(w.into_bytes());
        assert!(Reader::new(&bytes).string_table().is_err());
        let owner: Owner = bytes.clone();
        assert!(Reader::new_shared(&bytes, owner).string_table().is_err());
    }

    #[test]
    fn offset_splitting_a_character_is_an_error_in_both_modes() {
        // The blob "é" is valid UTF-8, but the directory cuts it 1|1.
        let mut w = Writer::new();
        w.put_u64(2); // two strings
        for off in [0, 1, 2] {
            w.put_u64(off);
        }
        w.put_padded_bytes("é".as_bytes());
        let buf = crate::IndexBytes::from_vec(w.into_bytes());
        let bytes = buf.as_slice();
        assert!(Reader::new(bytes).string_table().is_err(), "owned");
        let owner: Owner = buf.clone();
        assert!(
            Reader::new_shared(bytes, owner).string_table().is_err(),
            "shared"
        );
    }

    #[test]
    fn checksum_sensitivity() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let base = checksum(&data);
        let mut flipped = data.clone();
        flipped[500] ^= 1;
        assert_ne!(base, checksum(&flipped));
        assert_ne!(base, checksum(&data[..999]));
        assert_eq!(base, checksum(&data));
    }
}
