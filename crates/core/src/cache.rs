//! Dense two-tier caches for the determinization hot loop.
//!
//! Every node visit looks up the `(state set, label)`-keyed transition
//! memo (the formula and residual memos hang off the transition it
//! returns). Set ids are interned densely from 0 and real workloads
//! concentrate on the first few dozen sets, so hashing a tuple per visit
//! is pure overhead:
//! [`SetLabelCache`] direct-indexes a `set × label` region for the low
//! set ids that dominate, and only falls back to an `FxHashMap` for the
//! (rare) sets above the dense budget.

use crate::sets::SetId;
use xwq_index::FxHashMap;
use xwq_xml::LabelId;

/// Upper bound on dense-region entries (`sets × labels`); 512 KiB of
/// `Option<u32>` slots at the default. The region itself grows lazily by whole
/// set-rows, so small queries allocate only a few rows.
const DENSE_ENTRY_BUDGET: usize = 1 << 16;

/// Hard cap on how many set ids are direct-indexed even for tiny alphabets.
const DENSE_SET_CAP: usize = 1 << 12;

/// A `(SetId, LabelId) → V` cache with a direct-indexed dense region for
/// low set ids and a hash spill for the rest.
#[derive(Debug)]
pub(crate) struct SetLabelCache<V> {
    sigma: usize,
    /// Set ids below this are direct-indexed.
    dense_sets: usize,
    /// One row of `sigma` slots per touched set id; untouched rows stay
    /// empty `Vec`s (24 bytes), so the per-evaluator footprint scales with
    /// the sets a query actually visits, and touching a new set never
    /// copies existing rows.
    dense: Vec<Vec<V>>,
    spill: FxHashMap<(SetId, LabelId), V>,
}

impl<V: Default> SetLabelCache<V> {
    /// A cache for an alphabet of `sigma` labels.
    pub fn new(sigma: usize) -> Self {
        let sigma = sigma.max(1);
        Self {
            sigma,
            dense_sets: (DENSE_ENTRY_BUDGET / sigma).clamp(1, DENSE_SET_CAP),
            dense: Vec::new(),
            spill: FxHashMap::default(),
        }
    }

    /// The slot for `(set, label)`, created default-empty on first access.
    #[inline]
    pub fn slot_mut(&mut self, set: SetId, label: LabelId) -> &mut V {
        let s = set as usize;
        if s < self.dense_sets {
            if s >= self.dense.len() {
                self.dense.resize_with(s + 1, Vec::new);
            }
            let row = &mut self.dense[s];
            if row.is_empty() {
                row.resize_with(self.sigma, V::default);
            }
            &mut row[label as usize]
        } else {
            self.spill.entry((set, label)).or_default()
        }
    }

    /// Read-only lookup; `None` if the slot was never touched.
    #[inline]
    pub fn slot(&self, set: SetId, label: LabelId) -> Option<&V> {
        let s = set as usize;
        if s < self.dense_sets {
            self.dense.get(s).and_then(|row| row.get(label as usize))
        } else {
            self.spill.get(&(set, label))
        }
    }

    /// Iterates every touched slot (dense rows include untouched defaults,
    /// which report as empty).
    #[cfg(test)]
    pub fn slots(&self) -> impl Iterator<Item = &V> {
        self.dense.iter().flatten().chain(self.spill.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spill_regions_are_distinct_slots() {
        let mut c: SetLabelCache<Vec<u32>> = SetLabelCache::new(3);
        c.slot_mut(0, 2).push(7);
        c.slot_mut(1, 0).push(8);
        let far = (DENSE_SET_CAP + 5) as SetId; // beyond any dense budget
        c.slot_mut(far, 1).push(9);
        assert_eq!(c.slot(0, 2), Some(&vec![7]));
        assert_eq!(c.slot(1, 0), Some(&vec![8]));
        assert_eq!(c.slot(far, 1), Some(&vec![9]));
        assert_eq!(c.slot(far, 2), None);
        let filled: usize = c.slots().filter(|v| !v.is_empty()).count();
        assert_eq!(filled, 3);
    }

    #[test]
    fn dense_budget_scales_with_alphabet() {
        let small: SetLabelCache<u8> = SetLabelCache::new(4);
        let large: SetLabelCache<u8> = SetLabelCache::new(100_000);
        assert_eq!(small.dense_sets, DENSE_SET_CAP);
        assert_eq!(large.dense_sets, 1);
    }
}
