//! Result sets Γ (Def. C.2): mappings from states to selected-node lists.
//!
//! §4.4 "Result Sets": nodes are traversed in document order and each node is
//! inserted at most once per state, so lists with O(1) concatenation suffice.
//! Both kinds of value are `Copy` handles into a [`ResultArena`] that lives
//! for one evaluation run (its capacity is pooled across runs), so building,
//! merging and dropping them never touches the heap once the arena is warm:
//!
//! * a [`NodeList`] is a `u32` rope handle — empty, a single node (encoded in
//!   the handle itself), or a concatenation node in the arena;
//! * a [`ResultSet`] is a domain bitmask plus a slice of `(state, list)`
//!   entries in the arena. For automata with at most [`NARROW_STATES`]
//!   states the mask *is* the domain (the form formula memos key on), and a
//!   set whose lists are all empty stores no entries at all; wider automata
//!   keep the mask as a filter and read the domain from the entries.

use crate::asta::StateId;
use xwq_index::NodeId;

/// Automata with at most this many states keep result-set domains as exact
/// `u64` masks.
pub const NARROW_STATES: u32 = 64;

/// Capacity a [`ResultArena`] buffer keeps across runs (see
/// [`ResultArena::trim`]): enough for full scans of documents of a few
/// hundred thousand nodes.
const RETAINED_BYTES: usize = 16 << 20;

/// Node-list handles with this bit set are single-node lists.
const LEAF: u32 = 1 << 31;

/// An immutable node list with O(1) concatenation: a handle into a
/// [`ResultArena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeList(u32);

impl NodeList {
    /// The empty list.
    pub const EMPTY: NodeList = NodeList(0);

    /// True if no elements.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// A result set Γ: association from accepted states to node lists, as a
/// handle into a [`ResultArena`].
///
/// `q ∈ Dom(Γ)` ⇔ `arena.get(Γ, q).is_some()` — note a state can be
/// accepted with an empty list (recognition without selection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultSet {
    /// Narrow automata: the domain. Wide ones: bit `q % 64` for every
    /// accepted `q` (a membership filter).
    mask: u64,
    /// First entry in [`ResultArena::entries`].
    off: u32,
    /// Entry count; 0 with a non-zero mask means "all lists empty" (narrow
    /// automata only).
    len: u32,
}

impl ResultSet {
    /// The empty result set (`∅` — nothing accepted).
    pub const EMPTY: ResultSet = ResultSet {
        mask: 0,
        off: 0,
        len: 0,
    };

    /// True if no state is accepted.
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// The domain bitmask (exact for narrow automata).
    pub(crate) fn mask(self) -> u64 {
        self.mask
    }
}

/// Storage for the node lists and result sets of one evaluation run.
#[derive(Debug, Default)]
pub struct ResultArena {
    /// More than [`NARROW_STATES`] states: domains live in the entries.
    wide: bool,
    /// Concatenation nodes `(left, right)`; index 0 is a placeholder so
    /// that handle 0 can mean "empty".
    ropes: Vec<(NodeList, NodeList)>,
    /// Result-set entries, each set's slice sorted by state.
    entries: Vec<(StateId, NodeList)>,
    /// Stack of `(state, list)` pairs of result sets under construction
    /// (see [`Self::mark`] / [`Self::finish`]).
    pending: Vec<(StateId, NodeList)>,
    /// Flattening stack.
    stack: Vec<NodeList>,
    /// Flattening output.
    flat: Vec<NodeId>,
}

impl ResultArena {
    /// An empty arena for an automaton of `n_states` states.
    pub fn new(n_states: u32) -> Self {
        let mut a = Self::default();
        a.reset(n_states);
        a
    }

    /// Forgets every list and set (keeping capacity) and re-targets the
    /// arena at an automaton of `n_states` states.
    pub fn reset(&mut self, n_states: u32) {
        self.wide = n_states > NARROW_STATES;
        self.ropes.clear();
        self.ropes.push((NodeList::EMPTY, NodeList::EMPTY));
        self.entries.clear();
        self.pending.clear();
    }

    /// Releases capacity beyond [`RETAINED_BYTES`] per buffer, so a scratch
    /// that once served a full scan of a huge document does not pin that
    /// run's arena for the rest of its life.
    pub(crate) fn trim(&mut self) {
        trim_vec(&mut self.ropes);
        trim_vec(&mut self.entries);
        trim_vec(&mut self.pending);
        trim_vec(&mut self.stack);
        trim_vec(&mut self.flat);
    }

    /// Forces the wide (entry-scanning) representation regardless of the
    /// automaton's size, so tests can exercise it on small queries.
    #[cfg(test)]
    pub(crate) fn force_wide(&mut self) {
        self.wide = true;
    }

    /// True if domains are read from the entries rather than the mask.
    #[inline]
    pub(crate) fn is_wide(&self) -> bool {
        self.wide
    }

    /// A one-element list (no arena storage).
    #[inline]
    pub fn leaf(&self, v: NodeId) -> NodeList {
        assert!(v < LEAF, "node id {v} exceeds the list encoding");
        NodeList(v | LEAF)
    }

    /// O(1) concatenation.
    #[inline]
    pub fn concat(&mut self, a: NodeList, b: NodeList) -> NodeList {
        if a.is_empty() {
            return b;
        }
        if b.is_empty() {
            return a;
        }
        let h = self.ropes.len() as u32;
        assert!(h < LEAF, "node-list arena overflow");
        self.ropes.push((a, b));
        NodeList(h)
    }

    /// Flattens `l` (document order of insertion, duplicates kept) into
    /// the arena's reusable buffer.
    fn flatten(&mut self, l: NodeList) -> &mut Vec<NodeId> {
        self.flat.clear();
        // Iterative flatten: concat chains can be as long as the document.
        self.stack.clear();
        self.stack.push(l);
        while let Some(h) = self.stack.pop() {
            if h.is_empty() {
                continue;
            }
            if h.0 & LEAF != 0 {
                self.flat.push(h.0 & !LEAF);
            } else {
                let (a, b) = self.ropes[h.0 as usize];
                self.stack.push(b);
                self.stack.push(a);
            }
        }
        &mut self.flat
    }

    /// Flattens to a vector (document order of insertion, duplicates kept).
    pub fn to_vec(&mut self, l: NodeList) -> Vec<NodeId> {
        self.flatten(l).clone()
    }

    /// Flattens, sorts and deduplicates — the final answer form. The one
    /// allocation is the exactly-sized output.
    pub fn to_sorted_set(&mut self, l: NodeList) -> Vec<NodeId> {
        let v = self.flatten(l);
        v.sort_unstable();
        v.dedup();
        v.as_slice().to_vec()
    }

    /// The entries of `g`.
    #[inline]
    fn slice(&self, g: ResultSet) -> &[(StateId, NodeList)] {
        &self.entries[g.off as usize..(g.off + g.len) as usize]
    }

    /// Membership in the domain.
    #[inline]
    pub fn contains(&self, g: ResultSet, q: StateId) -> bool {
        if g.mask & (1 << (q % 64)) == 0 {
            return false;
        }
        !self.wide || self.slice(g).binary_search_by_key(&q, |e| e.0).is_ok()
    }

    /// The list bound to `q`, if `q` is accepted.
    #[inline]
    pub fn get(&self, g: ResultSet, q: StateId) -> Option<NodeList> {
        let bit = 1u64 << (q % 64);
        if g.mask & bit == 0 {
            return None;
        }
        if self.wide {
            let s = self.slice(g);
            return s.binary_search_by_key(&q, |e| e.0).ok().map(|i| s[i].1);
        }
        if g.len == 0 {
            return Some(NodeList::EMPTY);
        }
        let rank = (g.mask & (bit - 1)).count_ones();
        Some(self.entries[(g.off + rank) as usize].1)
    }

    /// The accepted states, ascending.
    pub fn domain(&self, g: ResultSet) -> impl Iterator<Item = StateId> + '_ {
        let (mask, slice) = if self.wide {
            (0, self.slice(g))
        } else {
            (g.mask, &[][..])
        };
        MaskIter(mask).chain(slice.iter().map(|e| e.0))
    }

    /// Union of two result sets (lists of shared states concatenate,
    /// `a`'s first).
    pub fn union(&mut self, a: ResultSet, b: ResultSet) -> ResultSet {
        if b.is_empty() {
            return a;
        }
        if a.is_empty() {
            return b;
        }
        if !self.wide && a.len == 0 && b.len == 0 {
            return ResultSet {
                mask: a.mask | b.mask,
                off: 0,
                len: 0,
            };
        }
        let off = self.entries.len();
        if self.wide {
            // Sorted merge of the two entry slices.
            let (mut i, mut j) = (a.off as usize, b.off as usize);
            let (ie, je) = (i + a.len as usize, j + b.len as usize);
            while i < ie || j < je {
                let qa = if i < ie {
                    self.entries[i].0
                } else {
                    StateId::MAX
                };
                let qb = if j < je {
                    self.entries[j].0
                } else {
                    StateId::MAX
                };
                let e = if qa < qb {
                    i += 1;
                    self.entries[i - 1]
                } else if qb < qa {
                    j += 1;
                    self.entries[j - 1]
                } else {
                    let (la, lb) = (self.entries[i].1, self.entries[j].1);
                    i += 1;
                    j += 1;
                    (qa, self.concat(la, lb))
                };
                self.entries.push(e);
            }
        } else {
            // At least one side stores entries, so some list is non-empty.
            for q in MaskIter(a.mask | b.mask) {
                let la = self.get(a, q).unwrap_or_default();
                let lb = self.get(b, q).unwrap_or_default();
                let l = self.concat(la, lb);
                self.entries.push((q, l));
            }
        }
        self.seal(a.mask | b.mask, off, true)
    }

    /// Wraps `entries[off..]` as a set with domain filter `mask`; a narrow
    /// set whose lists are all empty (`any_list` false) stores no entries.
    #[inline]
    fn seal(&mut self, mask: u64, off: usize, any_list: bool) -> ResultSet {
        if !self.wide && !any_list {
            self.entries.truncate(off);
            return ResultSet {
                mask,
                off: 0,
                len: 0,
            };
        }
        ResultSet {
            mask,
            off: off as u32,
            len: (self.entries.len() - off) as u32,
        }
    }

    /// Starts building a result set: returns the mark to pass to
    /// [`Self::finish`]. Builds nest (stack discipline), so a caller may
    /// recurse into further evaluation between its [`Self::accept`]s.
    #[inline]
    pub fn mark(&self) -> usize {
        self.pending.len()
    }

    /// Adds `q ↦ list` to the set under construction (unioning with an
    /// earlier binding of `q`, Def. C.2).
    #[inline]
    pub fn accept(&mut self, q: StateId, list: NodeList) {
        self.pending.push((q, list));
    }

    /// Completes the set begun at `mark`.
    pub fn finish(&mut self, mark: usize) -> ResultSet {
        let n = self.pending.len() - mark;
        if n == 0 {
            return ResultSet::EMPTY;
        }
        if n == 1 {
            let (q, l) = self.pending.pop().expect("one pending entry");
            let mask = 1 << (q % 64);
            if !self.wide && l.is_empty() {
                return ResultSet {
                    mask,
                    off: 0,
                    len: 0,
                };
            }
            self.entries.push((q, l));
            return ResultSet {
                mask,
                off: (self.entries.len() - 1) as u32,
                len: 1,
            };
        }
        // Stable insertion sort by state: the slice is query-sized, and
        // equal states must keep their acceptance order for concatenation.
        for i in mark + 1..self.pending.len() {
            let mut j = i;
            while j > mark && self.pending[j - 1].0 > self.pending[j].0 {
                self.pending.swap(j - 1, j); // lint: allow(atomic-ordering)
                j -= 1;
            }
        }
        let mut mask = 0u64;
        let mut any_list = false;
        let off = self.entries.len();
        for k in mark..self.pending.len() {
            let (q, l) = self.pending[k];
            mask |= 1 << (q % 64);
            any_list |= !l.is_empty();
            let last = self.entries.len().wrapping_sub(1);
            if self.entries.len() > off && self.entries[last].0 == q {
                let merged = self.concat(self.entries[last].1, l);
                self.entries[last].1 = merged;
            } else {
                self.entries.push((q, l));
            }
        }
        self.pending.truncate(mark);
        self.seal(mask, off, any_list)
    }
}

/// Empties `v` and shrinks it to [`RETAINED_BYTES`] if it holds more.
pub(crate) fn trim_vec<T>(v: &mut Vec<T>) {
    let keep = RETAINED_BYTES / std::mem::size_of::<T>().max(1);
    if v.capacity() > keep {
        v.clear();
        v.shrink_to(keep);
    }
}

/// Ascending iterator over the set bits of a mask.
struct MaskIter(u64);

impl Iterator for MaskIter {
    type Item = StateId;

    #[inline]
    fn next(&mut self) -> Option<StateId> {
        if self.0 == 0 {
            return None;
        }
        let q = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arenas() -> [ResultArena; 2] {
        let narrow = ResultArena::new(8);
        let mut wide = ResultArena::new(8);
        wide.force_wide();
        [narrow, wide]
    }

    fn set(a: &mut ResultArena, entries: &[(StateId, &[NodeId])]) -> ResultSet {
        let m = a.mark();
        for &(q, nodes) in entries {
            let mut l = NodeList::EMPTY;
            for &v in nodes {
                let leaf = a.leaf(v);
                l = a.concat(l, leaf);
            }
            a.accept(q, l);
        }
        a.finish(m)
    }

    #[test]
    fn list_concat_preserves_order() {
        let mut a = ResultArena::new(4);
        let (l1, l2, l3) = (a.leaf(1), a.leaf(2), a.leaf(3));
        let x = a.concat(l1, l2);
        let c = a.concat(x, l3);
        assert_eq!(a.to_vec(c), vec![1, 2, 3]);
    }

    #[test]
    fn empty_concat_is_identity() {
        let mut a = ResultArena::new(4);
        let e = NodeList::EMPTY;
        let l = a.leaf(7);
        let x = a.concat(e, l);
        assert_eq!(a.to_vec(x), vec![7]);
        let x = a.concat(l, e);
        assert_eq!(a.to_vec(x), vec![7]);
        assert!(a.concat(e, e).is_empty());
    }

    #[test]
    fn shared_sublists_flatten_with_multiplicity() {
        let mut a = ResultArena::new(4);
        let l = a.leaf(5);
        let twice = a.concat(l, l);
        assert_eq!(a.to_vec(twice), vec![5, 5]);
        assert_eq!(a.to_sorted_set(twice), vec![5]);
    }

    #[test]
    fn long_chain_flatten_does_not_overflow() {
        let mut a = ResultArena::new(4);
        let mut l = NodeList::EMPTY;
        for i in 0..100_000 {
            let leaf = a.leaf(i);
            l = a.concat(l, leaf);
        }
        assert_eq!(a.to_vec(l).len(), 100_000);
    }

    #[test]
    fn result_set_domain_vs_lists() {
        for mut a in arenas() {
            let g = set(&mut a, &[(3, &[]), (1, &[10])]);
            assert!(
                a.contains(g, 3),
                "accepted with empty list is still accepted"
            );
            assert!(a.contains(g, 1));
            assert!(!a.contains(g, 2));
            assert_eq!(a.domain(g).collect::<Vec<_>>(), vec![1, 3]);
            assert_eq!(a.domain(g).count(), 2);
            let l = a.get(g, 1).unwrap();
            assert_eq!(a.to_vec(l), vec![10]);
            assert!(a.get(g, 3).unwrap().is_empty());
        }
    }

    #[test]
    fn accept_unions_lists() {
        for mut a in arenas() {
            let g = set(&mut a, &[(1, &[10]), (1, &[20])]);
            let l = a.get(g, 1).unwrap();
            assert_eq!(a.to_vec(l), vec![10, 20]);
            assert_eq!(a.domain(g).count(), 1);
        }
    }

    #[test]
    fn recognition_only_sets_store_no_narrow_entries() {
        let mut a = ResultArena::new(8);
        let g = set(&mut a, &[(2, &[]), (5, &[])]);
        let h = set(&mut a, &[(0, &[])]);
        let u = a.union(g, h);
        assert_eq!(a.entries.len(), 0);
        assert_eq!(a.domain(u).collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn union_merges_domains() {
        for mut a in arenas() {
            let x = set(&mut a, &[(1, &[1])]);
            let y = set(&mut a, &[(2, &[2]), (1, &[3])]);
            let u = a.union(x, y);
            assert_eq!(a.domain(u).collect::<Vec<_>>(), vec![1, 2]);
            let l = a.get(u, 1).unwrap();
            assert_eq!(a.to_sorted_set(l), vec![1, 3]);
            assert_eq!(a.union(u, ResultSet::EMPTY), u);
            assert_eq!(a.union(ResultSet::EMPTY, u), u);
        }
    }

    #[test]
    fn nested_builds_keep_their_own_entries() {
        for mut a in arenas() {
            let outer = a.mark();
            a.accept(4, NodeList::EMPTY);
            let inner = set(&mut a, &[(1, &[9])]);
            let leaf = a.leaf(8);
            a.accept(0, leaf);
            let g = a.finish(outer);
            assert_eq!(a.domain(g).collect::<Vec<_>>(), vec![0, 4]);
            assert_eq!(a.domain(inner).collect::<Vec<_>>(), vec![1]);
        }
    }

    #[test]
    fn wide_states_beyond_64_are_distinct() {
        let mut a = ResultArena::new(200);
        assert!(a.is_wide());
        let g = set(&mut a, &[(3, &[1]), (67, &[2])]);
        assert!(a.contains(g, 3) && a.contains(g, 67));
        assert!(!a.contains(g, 131), "same mask bit as 3 and 67");
        assert_eq!(a.domain(g).collect::<Vec<_>>(), vec![3, 67]);
    }
}
