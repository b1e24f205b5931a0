//! Label alphabets and label sets.
//!
//! Labels are interned per document. Text nodes use the reserved name
//! `#text`; attributes use `@name`. Queries are compiled against a concrete
//! [`Alphabet`], so every transition's label set `L ⊆ Σ` is a dense bitset
//! ([`LabelSet`]) and set complements (`Σ∖{a}`) are cheap and exact.

use std::collections::HashMap;
use std::fmt;
use xwq_succinct::StrTable;

/// Dense identifier of an interned label.
pub type LabelId = u32;

/// What kind of tree node a label denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LabelKind {
    /// A regular element label.
    Element,
    /// The text-node pseudo-label `#text`.
    Text,
    /// An attribute pseudo-label `@name`.
    Attribute,
}

/// An interner from label names to dense [`LabelId`]s.
///
/// Names are backed by a [`StrTable`], so an alphabet loaded from a
/// memory-mapped `.xwqi` file keeps them as zero-copy views into the
/// mapping ([`Self::from_table`]) — no per-label `String`. In that frozen
/// mode, lookups go through a name-sorted id permutation (binary search);
/// the building mode used by parsers keeps the usual hash map, and
/// [`Self::intern`] on a frozen alphabet detaches back into it.
#[derive(Clone, Debug)]
pub struct Alphabet {
    names: StrTable,
    kinds: Vec<LabelKind>,
    lookup: LookupIndex,
}

#[derive(Clone, Debug)]
enum LookupIndex {
    /// Building mode: owned-name hash map (O(1) interning while parsing).
    Map(HashMap<String, LabelId>),
    /// Frozen mode: label ids sorted by name, searched by comparison
    /// against the (possibly borrowed) name table — no owned keys.
    Sorted(Vec<LabelId>),
}

impl Default for Alphabet {
    fn default() -> Self {
        Self {
            names: StrTable::default(),
            kinds: Vec::new(),
            lookup: LookupIndex::Map(HashMap::new()),
        }
    }
}

/// Classifies a label name (`#text` → text, `@…` → attribute, otherwise
/// element).
fn kind_of(name: &str) -> LabelKind {
    if name == "#text" {
        LabelKind::Text
    } else if name.starts_with('@') {
        LabelKind::Attribute
    } else {
        LabelKind::Element
    }
}

impl Alphabet {
    /// An empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, classifying it by its first character (`#text` → text,
    /// `@…` → attribute, otherwise element).
    pub fn intern(&mut self, name: &str) -> LabelId {
        let map = match &mut self.lookup {
            LookupIndex::Map(map) => map,
            LookupIndex::Sorted(_) => {
                // Frozen alphabets are immutable in the serving path;
                // interning into one (builder reuse) detaches to a map.
                let map = self
                    .names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.to_string(), i as LabelId))
                    .collect();
                self.lookup = LookupIndex::Map(map);
                match &mut self.lookup {
                    LookupIndex::Map(map) => map,
                    LookupIndex::Sorted(_) => unreachable!("just replaced"),
                }
            }
        };
        if let Some(&id) = map.get(name) {
            return id;
        }
        let id = self.kinds.len() as LabelId;
        self.kinds.push(kind_of(name));
        self.names.push(name.to_string());
        map.insert(name.to_string(), id);
        id
    }

    /// Builds a frozen alphabet directly over a name table — the zero-copy
    /// load path: a table borrowed from an mmap stays borrowed, and no
    /// per-label `String` is materialized (kinds and the name-sorted id
    /// permutation are the only derived allocations). Fails on duplicate
    /// names.
    pub fn from_table(names: StrTable) -> Result<Self, String> {
        let kinds: Vec<LabelKind> = names.iter().map(kind_of).collect();
        let mut sorted: Vec<LabelId> = (0..names.len() as LabelId).collect();
        sorted.sort_unstable_by(|&a, &b| names.get(a as usize).cmp(names.get(b as usize)));
        for w in sorted.windows(2) {
            if names.get(w[0] as usize) == names.get(w[1] as usize) {
                return Err(format!(
                    "alphabet: duplicate label name {:?}",
                    names.get(w[0] as usize)
                ));
            }
        }
        Ok(Self {
            names,
            kinds,
            lookup: LookupIndex::Sorted(sorted),
        })
    }

    /// True if the names are zero-copy views into a shared buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self.names, StrTable::Shared { .. })
    }

    /// Label names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter()
    }

    /// Looks up an existing label.
    pub fn lookup(&self, name: &str) -> Option<LabelId> {
        match &self.lookup {
            LookupIndex::Map(map) => map.get(name).copied(),
            LookupIndex::Sorted(sorted) => sorted
                .binary_search_by(|&id| self.names.get(id as usize).cmp(name))
                .ok()
                .map(|i| sorted[i]),
        }
    }

    /// The name of `id`.
    pub fn name(&self, id: LabelId) -> &str {
        self.names.get(id as usize)
    }

    /// The kind of `id`.
    pub fn kind(&self, id: LabelId) -> LabelKind {
        self.kinds[id as usize]
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all label ids.
    pub fn ids(&self) -> impl Iterator<Item = LabelId> + '_ {
        0..self.names.len() as LabelId
    }

    /// The set of all labels of a given kind.
    pub fn all_of_kind(&self, kind: LabelKind) -> LabelSet {
        let mut s = LabelSet::empty(self.len());
        for id in self.ids() {
            if self.kind(id) == kind {
                s.insert(id);
            }
        }
        s
    }
}

/// A set of labels over a fixed-size alphabet, stored as a bitset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LabelSet {
    words: Vec<u64>,
    universe: usize,
}

impl LabelSet {
    /// The empty set over an alphabet of `universe` labels.
    pub fn empty(universe: usize) -> Self {
        Self {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// A singleton set.
    pub fn singleton(universe: usize, id: LabelId) -> Self {
        let mut s = Self::empty(universe);
        s.insert(id);
        s
    }

    /// Builds a set from label ids.
    pub fn from_ids(universe: usize, ids: impl IntoIterator<Item = LabelId>) -> Self {
        let mut s = Self::empty(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Size of the alphabet this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a label.
    #[inline]
    pub fn insert(&mut self, id: LabelId) {
        debug_assert!((id as usize) < self.universe);
        self.words[id as usize / 64] |= 1u64 << (id % 64);
    }

    /// Removes a label.
    #[inline]
    pub fn remove(&mut self, id: LabelId) {
        self.words[id as usize / 64] &= !(1u64 << (id % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: LabelId) -> bool {
        let w = id as usize / 64;
        w < self.words.len() && (self.words[w] >> (id % 64)) & 1 == 1
    }

    /// Number of labels in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Complement with respect to the alphabet.
    pub fn complement(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        // Clear bits beyond the universe.
        let rem = self.universe % 64;
        if rem != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        out
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference (`self ∖ other`).
    pub fn subtract(&mut self, other: &Self) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if the sets share at least one label.
    pub fn intersects(&self, other: &Self) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterator over member label ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = LabelId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + tz)
                }
            })
        })
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut a = Alphabet::new();
        let x = a.intern("site");
        let y = a.intern("regions");
        assert_eq!(a.intern("site"), x);
        assert_eq!((x, y), (0, 1));
        assert_eq!(a.name(x), "site");
        assert_eq!(a.lookup("regions"), Some(y));
        assert_eq!(a.lookup("nope"), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn label_kinds() {
        let mut a = Alphabet::new();
        let e = a.intern("item");
        let t = a.intern("#text");
        let at = a.intern("@id");
        assert_eq!(a.kind(e), LabelKind::Element);
        assert_eq!(a.kind(t), LabelKind::Text);
        assert_eq!(a.kind(at), LabelKind::Attribute);
        let elems = a.all_of_kind(LabelKind::Element);
        assert!(elems.contains(e) && !elems.contains(t) && !elems.contains(at));
    }

    #[test]
    fn set_operations() {
        let u = 130; // crosses a word boundary
        let mut s = LabelSet::from_ids(u, [0, 64, 129]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        s.remove(64);
        assert!(!s.contains(64));

        let c = s.complement();
        assert_eq!(c.len(), u - 2);
        assert!(!c.contains(0) && c.contains(64));

        let mut t = LabelSet::singleton(u, 0);
        t.union_with(&LabelSet::singleton(u, 5));
        assert!(t.intersects(&s));
        t.subtract(&LabelSet::singleton(u, 0));
        assert!(!t.intersects(&s));
    }

    #[test]
    fn complement_respects_universe_boundary() {
        for u in [1usize, 63, 64, 65, 128] {
            let s = LabelSet::empty(u);
            assert_eq!(s.complement().len(), u, "universe {u}");
            assert_eq!(s.complement().complement().len(), 0);
        }
    }

    #[test]
    fn iter_ascending() {
        let s = LabelSet::from_ids(200, [199, 0, 70, 3]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 70, 199]);
    }
}
