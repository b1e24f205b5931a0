//! Owned-or-borrowed backing storage for the succinct structures.
//!
//! The `.xwqi` wire format 8-byte-aligns every numeric section precisely so
//! a memory-mapped reader can serve queries out of the file without
//! materializing `Vec`s. The types here make that possible without
//! spreading lifetimes through every layer:
//!
//! * [`SharedSlice<T>`] — a `'static` view into memory kept alive by an
//!   opaque reference-counted owner (an mmap, an aligned heap buffer, …).
//!   Cloning is an `Arc` bump; access is a plain slice deref.
//! * [`Store<T>`] — the Cow-style enum every array field uses: `Owned`
//!   for built-in-memory structures, `Shared` for zero-copy loaded ones.
//!   Mutation (only the builders mutate) goes through [`Store::make_mut`],
//!   which detaches a shared view into an owned copy first.
//! * [`StrTable`] — a string table that is either a `Vec<String>` or a
//!   borrowed offset-directory + UTF-8 blob pair, validated once at
//!   construction so per-access reads can skip re-validation.
//!
//! Only plain-old-data element types ([`Pod`]) may be viewed zero-copy:
//! every bit pattern must be a valid value, because the bytes come straight
//! from an untrusted file (all *structural* validation stays with the
//! format layer; the type-level guarantee here is merely "no UB").

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The opaque keep-alive handle a [`SharedSlice`] holds.
pub type Owner = Arc<dyn Any + Send + Sync>;

/// Marker for element types where any bit pattern is a valid value, so a
/// byte region may be reinterpreted as `[T]` (given alignment).
///
/// # Safety
/// Implementors must be `Copy`, have no padding, no invalid bit patterns,
/// and no interior mutability.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: a primitive integer is `Copy`, has no padding, no interior
// mutability, and every bit pattern is a valid value.
unsafe impl Pod for u8 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u32 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u64 {}
// SAFETY: as for `u8`.
unsafe impl Pod for i32 {}

/// A `'static`, immutable slice view whose backing memory is kept alive by
/// a reference-counted owner.
pub struct SharedSlice<T: Pod> {
    /// Keeps the mapping / buffer alive; never read through.
    _owner: Owner,
    ptr: *const T,
    len: usize,
}

// SAFETY: the view is immutable, `T: Pod` carries no interior mutability,
// and the owner is itself `Send + Sync`.
unsafe impl<T: Pod> Send for SharedSlice<T> {}
// SAFETY: same argument as `Send` — shared access is read-only throughout.
unsafe impl<T: Pod> Sync for SharedSlice<T> {}

impl<T: Pod> SharedSlice<T> {
    /// Wraps `slice` with the owner that keeps it alive.
    ///
    /// # Safety
    /// `slice` must point into memory owned (transitively) by `owner`, and
    /// that memory must stay valid, immutable and correctly aligned for as
    /// long as any clone of `owner` exists.
    pub unsafe fn new(owner: Owner, slice: &[T]) -> Self {
        // A `&[T]` is aligned by construction; this guards callers that
        // manufacture the slice from a raw byte cast upstream.
        debug_assert!(
            (slice.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()),
            "SharedSlice backing must be aligned for T"
        );
        Self {
            _owner: owner,
            ptr: slice.as_ptr(),
            len: slice.len(),
        }
    }

    /// The viewed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: construction guaranteed validity for the owner's lifetime,
        // and `self` holds a clone of the owner.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        Self {
            _owner: Arc::clone(&self._owner),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T: Pod> Deref for SharedSlice<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSlice(len={})", self.len)
    }
}

/// An array that is either owned (`Vec`) or a zero-copy view into a shared
/// buffer. Dereferences to `[T]` either way.
#[derive(Clone, Debug)]
pub enum Store<T: Pod> {
    /// Heap-owned elements (built in memory, or detached from a view).
    Owned(Vec<T>),
    /// Borrowed view into a reference-counted buffer (e.g. an mmap).
    Shared(SharedSlice<T>),
}

impl<T: Pod> Store<T> {
    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Store::Owned(v) => v,
            Store::Shared(s) => s.as_slice(),
        }
    }

    /// Mutable access, detaching a shared view into an owned copy first
    /// (builders only; the serving path never writes).
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let Store::Shared(s) = self {
            *self = Store::Owned(s.as_slice().to_vec());
        }
        match self {
            Store::Owned(v) => v,
            Store::Shared(_) => unreachable!("detached above"),
        }
    }

    /// Heap bytes owned by this store (0 for shared views — their memory
    /// belongs to the mapping / shared buffer, not this structure).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Store::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Store::Shared(_) => 0,
        }
    }

    /// True if this store borrows from a shared buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self, Store::Shared(_))
    }
}

impl<T: Pod> Default for Store<T> {
    fn default() -> Self {
        Store::Owned(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for Store<T> {
    fn from(v: Vec<T>) -> Self {
        Store::Owned(v)
    }
}

impl<T: Pod> From<SharedSlice<T>> for Store<T> {
    fn from(s: SharedSlice<T>) -> Self {
        Store::Shared(s)
    }
}

impl<T: Pod> Deref for Store<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod, I: std::slice::SliceIndex<[T]>> std::ops::Index<I> for Store<T> {
    type Output = I::Output;
    #[inline]
    fn index(&self, index: I) -> &I::Output {
        &self.as_slice()[index]
    }
}

impl<T: Pod + PartialEq> PartialEq for Store<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Store<T> {}

/// A table of strings that is either owned or a zero-copy
/// (offset directory, UTF-8 blob) view validated once at construction.
#[derive(Clone, Debug)]
pub enum StrTable {
    /// Materialized strings.
    Owned(Vec<String>),
    /// Borrowed directory + blob; every entry was UTF-8-validated when the
    /// view was built, so [`StrTable::get`] can skip re-validation.
    Shared {
        /// `len + 1` ascending byte offsets into `blob`.
        offsets: SharedSlice<u64>,
        /// The concatenated string contents.
        blob: SharedSlice<u8>,
    },
}

impl StrTable {
    /// Builds a zero-copy table after [`Self::check`] accepted it.
    pub fn shared(offsets: SharedSlice<u64>, blob: SharedSlice<u8>) -> Result<Self, String> {
        Self::check(&offsets, &blob)?;
        Ok(StrTable::Shared { offsets, blob })
    }

    /// Checks a string table's directory and blob: the offsets ascend from
    /// 0 to exactly `blob.len()`, and every entry `blob[offsets[i]..
    /// offsets[i + 1]]` is UTF-8. Only a table that passes may be sliced
    /// with `from_utf8_unchecked`.
    ///
    /// One pass over the blob and one over the directory: the blob must be
    /// UTF-8 as a whole and every offset inside it must fall on a character
    /// boundary. That accepts exactly the tables whose entries each pass
    /// `from_utf8` — a concatenation of valid entries is valid and each
    /// entry starts a character; conversely, slicing a valid string at
    /// character boundaries yields valid strings.
    pub fn check(offsets: &[u64], blob: &[u8]) -> Result<(), String> {
        let (Some(&first), Some(&last)) = (offsets.first(), offsets.last()) else {
            return Err("string table: missing offset directory".to_string());
        };
        if first != 0 || last != blob.len() as u64 {
            return Err("string table: offsets do not span the blob".to_string());
        }
        if std::str::from_utf8(blob).is_err() {
            return Err("string table: entry is not UTF-8".to_string());
        }
        let (mut descending, mut split) = (false, false);
        for w in offsets.windows(2) {
            descending |= w[0] > w[1];
            // Continuation bytes are 0b10xx_xxxx, i.e. below -0x40 as `i8`;
            // an offset at or past the end reads none (past the end, the
            // order test above fails).
            split |= blob.get(w[1] as usize).is_some_and(|&b| (b as i8) < -0x40);
        }
        if descending {
            return Err("string table: offsets not ascending".to_string());
        }
        if split {
            return Err("string table: an offset splits a character".to_string());
        }
        Ok(())
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        match self {
            StrTable::Owned(v) => v.len(),
            StrTable::Shared { offsets, .. } => offsets.len() - 1,
        }
    }

    /// True if the table holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th string.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        match self {
            StrTable::Owned(v) => &v[i],
            StrTable::Shared { offsets, blob } => {
                let s = &blob[offsets[i] as usize..offsets[i + 1] as usize];
                // SAFETY: `shared()` accepted the table through `check`.
                unsafe { std::str::from_utf8_unchecked(s) }
            }
        }
    }

    /// Iterates the strings in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Appends a string (owned tables only; detaches a shared view first).
    pub fn push(&mut self, s: String) {
        if let StrTable::Shared { .. } = self {
            *self = StrTable::Owned(self.iter().map(String::from).collect());
        }
        match self {
            StrTable::Owned(v) => v.push(s),
            StrTable::Shared { .. } => unreachable!("detached above"),
        }
    }

    /// Heap bytes owned by this table (0 for shared views).
    pub fn heap_bytes(&self) -> usize {
        match self {
            StrTable::Owned(v) => v.iter().map(|s| s.capacity()).sum(),
            StrTable::Shared { .. } => 0,
        }
    }
}

impl Default for StrTable {
    fn default() -> Self {
        StrTable::Owned(Vec::new())
    }
}

impl From<Vec<String>> for StrTable {
    fn from(v: Vec<String>) -> Self {
        StrTable::Owned(v)
    }
}

impl PartialEq for StrTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for StrTable {}

#[cfg(test)]
mod tests {
    use super::*;

    /// An owner wrapping an aligned buffer, as the store layer would hold.
    fn owned_u64s(vals: &[u64]) -> (Owner, Arc<Vec<u64>>) {
        let buf = Arc::new(vals.to_vec());
        (buf.clone() as Owner, buf)
    }

    #[test]
    fn shared_slice_keeps_owner_alive() {
        let view = {
            let (owner, buf) = owned_u64s(&[1, 2, 3]);
            // SAFETY: slice points into the Arc'd Vec held by `owner`.
            unsafe { SharedSlice::new(owner, buf.as_slice()) }
        };
        // Original Arcs dropped; the view's clone keeps the buffer alive.
        assert_eq!(&*view, &[1, 2, 3]);
        let second = view.clone();
        drop(view);
        assert_eq!(&*second, &[1, 2, 3]);
    }

    #[test]
    fn store_make_mut_detaches_shared() {
        let (owner, buf) = owned_u64s(&[7, 8]);
        // SAFETY: slice points into the Arc'd Vec held by `owner`.
        let mut s: Store<u64> = unsafe { SharedSlice::new(owner, buf.as_slice()) }.into();
        assert!(s.is_shared());
        assert_eq!(s[1], 8);
        s.make_mut().push(9);
        assert!(!s.is_shared());
        assert_eq!(&*s, &[7, 8, 9]);
        assert_eq!(&*buf, &vec![7, 8], "original buffer untouched");
    }

    #[test]
    fn str_table_shared_validation() {
        let blob = Arc::new(b"heywo".to_vec());
        let offs = Arc::new(vec![0u64, 3, 5]);
        let mk = |o: &Arc<Vec<u64>>, b: &Arc<Vec<u8>>| {
            // SAFETY: each slice points into the Arc'd Vec passed as its
            // own owner.
            let ov = unsafe { SharedSlice::new(o.clone() as Owner, o.as_slice()) };
            // SAFETY: as above.
            let bv = unsafe { SharedSlice::new(b.clone() as Owner, b.as_slice()) };
            StrTable::shared(ov, bv)
        };
        let t = mk(&offs, &blob).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), "hey");
        assert_eq!(t.get(1), "wo");
        assert_eq!(t, StrTable::Owned(vec!["hey".into(), "wo".into()]));
        // Descending offsets rejected.
        let bad = Arc::new(vec![0u64, 4, 2]);
        assert!(mk(&bad, &blob).is_err());
        // Offsets not spanning the blob rejected.
        let bad = Arc::new(vec![0u64, 3, 4]);
        assert!(mk(&bad, &blob).is_err());
        // Invalid UTF-8 rejected.
        let bad_blob = Arc::new(vec![0xFFu8, 0xFE]);
        let offs2 = Arc::new(vec![0u64, 2]);
        assert!(mk(&offs2, &bad_blob).is_err());
        // A valid UTF-8 blob cut inside a character ("é" split 1|1).
        let split_blob = Arc::new("é".as_bytes().to_vec());
        let offs3 = Arc::new(vec![0u64, 1, 2]);
        assert!(mk(&offs3, &split_blob).is_err());
        // The same blob cut on its boundaries is accepted.
        let whole = Arc::new(vec![0u64, 0, 2]);
        assert_eq!(mk(&whole, &split_blob).unwrap().get(1), "é");
    }

    #[test]
    fn str_table_check_validates_the_directory_on_its_own() {
        assert!(StrTable::check(&[0, 1, 2], b"ab").is_ok());
        assert!(StrTable::check(&[0], b"").is_ok());
        assert!(StrTable::check(&[], b"").is_err(), "no directory");
        assert!(StrTable::check(&[0, 5], b"ab").is_err(), "past the end");
        assert!(
            StrTable::check(&[0, 3, 2], b"ab").is_err(),
            "past the end, then back"
        );
        assert!(StrTable::check(&[0, 2, 1, 2], b"ab").is_err(), "descending");
        assert!(StrTable::check(&[1, 2], b"ab").is_err(), "not from 0");
        assert!(StrTable::check(&[0, 1], b"ab").is_err(), "short of the end");
        assert!(
            StrTable::check(&[0, 1, 2], "é".as_bytes()).is_err(),
            "split"
        );
    }

    #[test]
    fn str_table_push_detaches() {
        let blob = Arc::new(b"ab".to_vec());
        let offs = Arc::new(vec![0u64, 1, 2]);
        // SAFETY: each slice points into the Arc'd Vec passed as its own
        // owner.
        let ov = unsafe { SharedSlice::new(offs.clone() as Owner, offs.as_slice()) };
        // SAFETY: as above.
        let bv = unsafe { SharedSlice::new(blob.clone() as Owner, blob.as_slice()) };
        let mut t = StrTable::shared(ov, bv).unwrap();
        t.push("c".to_string());
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }
}
