//! Hash-consing of state sets.
//!
//! The on-the-fly determinization (Def. 4.2) manipulates sets of ASTA states;
//! interning them to dense ids makes memo-table keys O(1) and avoids the
//! exponential up-front construction the paper warns about.

use crate::asta::StateId;
use xwq_index::FxHashMap;

/// Dense identifier of an interned state set.
pub type SetId = u32;

/// An interner for sorted state sets. Id 0 is always the empty set.
#[derive(Debug, Default)]
pub struct SetInterner {
    ids: FxHashMap<Box<[StateId]>, SetId>,
    sets: Vec<Box<[StateId]>>,
}

impl SetInterner {
    /// Creates an interner with the empty set pre-interned as id 0.
    pub fn new() -> Self {
        let mut s = Self::default();
        s.intern_sorted(Vec::new());
        s
    }

    /// The empty set's id.
    pub const EMPTY: SetId = 0;

    /// Interns a set given as an unsorted, possibly-duplicated vector.
    pub fn intern(&mut self, mut states: Vec<StateId>) -> SetId {
        states.sort_unstable();
        states.dedup();
        self.intern_sorted(states)
    }

    /// Interns the members of a bitset. Bitset iteration is already
    /// ascending and duplicate-free, so this skips the sort/dedup pass of
    /// [`Self::intern`] — the form the evaluation hot loop uses.
    pub fn intern_bits(&mut self, states: &crate::bits::StateBits) -> SetId {
        self.intern_sorted(states.to_sorted_vec())
    }

    /// Interns a sorted, deduplicated vector.
    pub fn intern_sorted(&mut self, states: Vec<StateId>) -> SetId {
        self.intern_slice(&states)
    }

    /// Interns a sorted, deduplicated slice; allocates only when the set is
    /// new.
    pub fn intern_slice(&mut self, states: &[StateId]) -> SetId {
        debug_assert!(states.windows(2).all(|w| w[0] < w[1]));
        if let Some(&id) = self.ids.get(states) {
            return id;
        }
        let key: Box<[StateId]> = states.into();
        let id = self.sets.len() as SetId;
        self.ids.insert(key.clone(), id);
        self.sets.push(key);
        id
    }

    /// The members of set `id`, sorted ascending.
    pub fn get(&self, id: SetId) -> &[StateId] {
        &self.sets[id as usize]
    }

    /// Number of interned sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Never true (the empty set is pre-interned).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_id_zero() {
        let mut s = SetInterner::new();
        assert_eq!(s.intern(vec![]), SetInterner::EMPTY);
        assert_eq!(s.get(0), &[] as &[u32]);
    }

    #[test]
    fn interning_is_canonical() {
        let mut s = SetInterner::new();
        let a = s.intern(vec![3, 1, 2]);
        let b = s.intern(vec![1, 2, 3]);
        let c = s.intern(vec![2, 2, 1, 3, 3]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(s.get(a), &[1, 2, 3]);
        let d = s.intern(vec![1, 2]);
        assert_ne!(a, d);
        assert_eq!(s.len(), 3); // ∅, {1,2,3}, {1,2}
    }
}
