//! The on-the-fly top-down approximation `tda(A)` (Def. 4.2) and the skip
//! classification that drives jumping.
//!
//! A state *set* `S` is what the determinized automaton carries; [`Tda`]
//! interns sets, computes (and optionally memoizes) the transition
//! `(S, σ) ↦ (active transitions, S₁, S₂)`, and classifies each set by how
//! the automaton can move without gaining information:
//!
//! * a label is a **pure loop** when every state's active transitions there
//!   are exactly its own self-recursion (`↓1q ∨ ↓2q`, `↓1q`, or `↓2q`,
//!   non-selecting) — skipping is then sound for arbitrary formulas
//!   elsewhere;
//! * in addition, a label with *monotone* (¬-free) transitions whose
//!   set-level successors satisfy `S₁ = S₂ = S` is treated as non-changing
//!   (this is the paper's set-level approximation of Fig. 1 — it is what
//!   lets `//a//b` skip nested `a`s; soundness for ¬-free compiled queries
//!   is argued in DESIGN.md, and labels under a `¬` never qualify).
//!
//! The classification yields the *jump set* (the set-level essential
//! labels): `dt`/`ft` frontier jumps when all loops go through both
//! children, `rt`/`lt` spine jumps when they go through exactly one.

use crate::asta::{Asta, Formula, StateId};
use crate::bits::StateBits;
use crate::cache::SetLabelCache;
use crate::eval::EvalStats;
use crate::sets::{SetId, SetInterner};
use xwq_xml::{LabelId, LabelSet};

/// One determinized transition: the active ASTA transitions and the state
/// sets sent to the children.
#[derive(Debug)]
pub struct TransEval {
    /// Indices into `asta.delta`.
    pub active: Vec<u32>,
    /// `S₁`.
    pub r1: SetId,
    /// `S₂`.
    pub r2: SetId,
}

/// How a state set can skip (Fig. 1 / Algorithm B.1 case analysis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipKind {
    /// Loops through both children on non-jump labels: `dt`/`ft` frontier.
    Both,
    /// Loops through the first child only: `lt` spine.
    Left,
    /// Loops through the second child only: `rt` spine.
    Right,
    /// No skip possible.
    None,
}

/// Skip classification of one state set.
#[derive(Debug)]
pub struct SkipInfo {
    /// The skip shape.
    pub kind: SkipKind,
    /// Labels that must be visited (set-level essential labels).
    pub jump: LabelSet,
    /// `jump.len()`, compared against the jump-width limit at every visit.
    pub width: usize,
}

/// On-the-fly determinization state for one ASTA. Holds no reference to
/// the automaton — every method takes it as a parameter — so the interner
/// and memo tables can be pooled per `(document, query)` across runs (the
/// tables are pure functions of the `(automaton, index)` pair).
///
/// Memo hits hand out indices into arenas owned here (or borrows), never
/// shared pointers, so a hit costs array reads only.
#[derive(Debug)]
pub struct Tda {
    /// The state-set interner (id 0 = ∅).
    pub sets: SetInterner,
    /// `(S, σ)`-keyed transition memo holding indices into `trans_arena`:
    /// dense direct-indexed region for the low set ids that dominate, hash
    /// spill above (no tuple hashing in the per-node inner loop).
    trans_memo: SetLabelCache<Option<u32>>,
    trans_arena: Vec<TransEval>,
    /// Skip classifications, indexed by [`SetId`].
    skip_memo: Vec<Option<SkipInfo>>,
    /// Reusable per-call scratch for `compute_trans` (collection is an OR;
    /// dedup/sort are free at intern time).
    scratch_r1: StateBits,
    scratch_r2: StateBits,
}

impl Tda {
    /// Creates the context for `asta`.
    pub fn new(asta: &Asta) -> Self {
        let n = asta.n_states as usize;
        Self {
            sets: SetInterner::new(),
            trans_memo: SetLabelCache::new(asta.alphabet_size),
            trans_arena: Vec::new(),
            skip_memo: Vec::new(),
            scratch_r1: StateBits::with_universe(n),
            scratch_r2: StateBits::with_universe(n),
        }
    }

    /// Interns the automaton's top-state set.
    pub fn top_set(&mut self, asta: &Asta) -> SetId {
        self.sets.intern(asta.top.clone())
    }

    /// Number of memoized `(S, σ)` transitions.
    pub fn trans_memo_len(&self) -> usize {
        self.trans_arena.len()
    }

    /// Computes `(S, σ) ↦ (active, S₁, S₂)` without memoization.
    pub fn compute_trans(&mut self, asta: &Asta, set: SetId, label: LabelId) -> TransEval {
        let states = self.sets.get(set);
        let mut active = Vec::new();
        self.scratch_r1.clear();
        self.scratch_r2.clear();
        for &q in states {
            for &ti in &asta.trans_of[q as usize] {
                let t = &asta.delta[ti as usize];
                if t.labels.contains(label) {
                    active.push(ti);
                    t.phi
                        .collect_down_bits(&mut self.scratch_r1, &mut self.scratch_r2);
                }
            }
        }
        let r1 = self.sets.intern_bits(&self.scratch_r1);
        let r2 = self.sets.intern_bits(&self.scratch_r2);
        TransEval { active, r1, r2 }
    }

    /// Memoized variant: the index of the transition for
    /// [`Self::trans_at`]; ticks `stats.memo_hits` / `stats.memo_misses`.
    #[inline]
    pub fn trans(&mut self, asta: &Asta, set: SetId, label: LabelId, stats: &mut EvalStats) -> u32 {
        if let Some(&Some(t)) = self.trans_memo.slot(set, label) {
            stats.memo_hits += 1;
            return t;
        }
        let t = self.compute_trans(asta, set, label);
        let i = self.trans_arena.len() as u32;
        self.trans_arena.push(t);
        *self.trans_memo.slot_mut(set, label) = Some(i);
        stats.memo_misses += 1;
        i
    }

    /// The memoized transition with index `i` (from [`Self::trans`]).
    #[inline]
    pub fn trans_at(&self, i: u32) -> &TransEval {
        &self.trans_arena[i as usize]
    }

    /// Skip classification of `set`, cached.
    #[inline]
    pub fn skip_info(&mut self, asta: &Asta, set: SetId) -> &SkipInfo {
        let i = set as usize;
        if self.skip_memo.get(i).is_none_or(|s| s.is_none()) {
            let info = self.classify(asta, set);
            if i >= self.skip_memo.len() {
                self.skip_memo.resize_with(i + 1, || None);
            }
            self.skip_memo[i] = Some(info);
        }
        self.skip_at(set)
    }

    /// The cached classification of `set`; [`Self::skip_info`] must have
    /// computed it.
    #[inline]
    pub fn skip_at(&self, set: SetId) -> &SkipInfo {
        self.skip_memo[set as usize]
            .as_ref()
            .expect("skip_info computes before skip_at reads")
    }

    fn classify(&mut self, asta: &Asta, set: SetId) -> SkipInfo {
        let sigma = asta.alphabet_size;
        let mut loop_both = LabelSet::empty(sigma);
        let mut loop_left = LabelSet::empty(sigma);
        let mut loop_right = LabelSet::empty(sigma);
        let states: Vec<StateId> = self.sets.get(set).to_vec();
        'labels: for l in 0..sigma as LabelId {
            // Gather per-state shapes.
            let mut all_pure = true;
            let mut kinds: [bool; 3] = [false; 3]; // both, left, right present
            let mut any_select = false;
            let mut any_not = false;
            for &q in &states {
                let mut has_d1 = false;
                let mut has_d2 = false;
                let mut pure = true;
                let mut any = false;
                for t in asta.active(q, l) {
                    any = true;
                    any_select |= t.selecting;
                    if !t.phi.is_monotone() || t.filter.is_some() {
                        // Node filters make firing node-dependent: treat the
                        // label as changing (no aggressive skip either).
                        any_not = true;
                    }
                    if t.filter.is_some() {
                        pure = false;
                    }
                    match &t.phi {
                        Formula::Down1(p) if *p == q => has_d1 = true,
                        Formula::Down2(p) if *p == q => has_d2 = true,
                        Formula::Or(a, b) => match (&**a, &**b) {
                            (Formula::Down1(p1), Formula::Down2(p2)) if *p1 == q && *p2 == q => {
                                has_d1 = true;
                                has_d2 = true;
                            }
                            _ => pure = false,
                        },
                        _ => pure = false,
                    }
                    if t.selecting {
                        pure = false;
                    }
                }
                if !any {
                    // Dead label for q: evaluation yields ∅ here; the node
                    // must be visited (it cuts acceptance).
                    continue 'labels;
                }
                if !pure {
                    all_pure = false;
                } else if has_d1 && has_d2 {
                    kinds[0] = true;
                } else if has_d1 {
                    kinds[1] = true;
                } else {
                    kinds[2] = true;
                }
            }
            if any_select {
                continue;
            }
            if all_pure {
                match kinds {
                    [true, false, false] => loop_both.insert(l),
                    [false, true, false] => loop_left.insert(l),
                    [false, false, true] => loop_right.insert(l),
                    _ => {} // mixed shapes: essential
                }
                continue;
            }
            // Aggressive set-level rule (the Fig. 1 approximation that lets
            // //a//b skip nested a's). Soundness of the union-of-frontier
            // reconstruction needs, at label `l`:
            //   * monotone formulas only (¬ would turn the benign
            //     under-reporting of cross-state acceptance into
            //     over-reporting);
            //   * no acceptance *origination* (a formula true under empty
            //     child domains would be lost by skipping);
            //   * (S₁, S₂) = (S, S) at the set level;
            //   * every state must carry its own `↓1 q ∨ ↓2 q` loop here, so
            //     frontier acceptance genuinely propagates up to the entry —
            //     a right-only chain searcher in the set would otherwise be
            //     teleported across parent edges it cannot cross.
            if !any_not {
                let originates = states
                    .iter()
                    .any(|&q| asta.active(q, l).any(|t| t.phi.eval_bool(&[], &[])));
                let all_self_loop_both = states.iter().all(|&q| {
                    asta.active(q, l).any(|t| {
                        !t.selecting
                            && matches!(
                                &t.phi,
                                Formula::Or(a, b)
                                    if matches!((&**a, &**b),
                                        (Formula::Down1(p1), Formula::Down2(p2))
                                            if *p1 == q && *p2 == q)
                            )
                    })
                });
                if !originates && all_self_loop_both {
                    let te = self.compute_trans(asta, set, l);
                    if te.r1 == set && te.r2 == set {
                        loop_both.insert(l);
                    }
                }
            }
        }
        let full = LabelSet::empty(sigma).complement();
        let (kind, loops) = if !loop_both.is_empty() {
            (SkipKind::Both, loop_both)
        } else if !loop_right.is_empty() {
            (SkipKind::Right, loop_right)
        } else if !loop_left.is_empty() {
            (SkipKind::Left, loop_left)
        } else {
            (SkipKind::None, LabelSet::empty(sigma))
        };
        let mut jump = full;
        jump.subtract(&loops);
        let width = jump.len();
        SkipInfo { kind, jump, width }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_path;
    use xwq_xml::Alphabet;
    use xwq_xpath::parse_xpath;

    fn abc() -> Alphabet {
        let mut al = Alphabet::new();
        for n in ["a", "b", "c"] {
            al.intern(n);
        }
        al
    }

    /// Figure 1: the tda of //a//b[c] and its jump sets.
    #[test]
    fn figure1_jump_sets() {
        let al = abc();
        let asta = compile_path(&parse_xpath("//a//b[c]").unwrap(), &al).unwrap();
        let mut tda = Tda::new(&asta);
        let la = al.lookup("a").unwrap();
        let lb = al.lookup("b").unwrap();
        let lc = al.lookup("c").unwrap();

        // {q0}: jump to top-most a.
        let s0 = tda.top_set(&asta);
        let i0 = tda.skip_info(&asta, s0);
        assert_eq!(i0.kind, SkipKind::Both);
        assert_eq!(i0.jump.iter().collect::<Vec<_>>(), vec![la]);

        // δa({q0}, a) = ({q0,q1}, {q0}).
        let mut h = EvalStats::default();
        let t = tda.trans(&asta, s0, la, &mut h);
        let t = tda.trans_at(t);
        let s01 = t.r1;
        assert_eq!(t.r2, s0);
        assert_eq!(tda.sets.get(s01).len(), 2);

        // {q0,q1}: jump to top-most b (a is set-level non-changing).
        let i01 = tda.skip_info(&asta, s01);
        assert_eq!(i01.kind, SkipKind::Both);
        assert_eq!(i01.jump.iter().collect::<Vec<_>>(), vec![lb]);

        // δa({q0,q1}, b) = ({q0,q1,q2}, {q0,q1}).
        let t = tda.trans(&asta, s01, lb, &mut h);
        let t = tda.trans_at(t);
        let s012 = t.r1;
        assert_eq!(t.r2, s01);
        assert_eq!(tda.sets.get(s012).len(), 3);

        // {q0,q1,q2}: no jump (the paper: "the automaton must perform a
        // firstChild or nextSibling move") — a and c change the set, and b,
        // though set-level non-changing, selects and is therefore relevant.
        let i012 = tda.skip_info(&asta, s012);
        assert_eq!(i012.kind, SkipKind::None);
        assert!(i012.jump.contains(la) && i012.jump.contains(lb) && i012.jump.contains(lc));

        // δa({q0,q1,q2}, c) = ({q0,q1}, {q0,q1}) — Fig. 1's table: the
        // predicate searcher q2 stops at the first c (its recursion guard
        // excludes c), so "the automaton returns in state {q0,q1} and can
        // therefore jump to find new b nodes".
        let t = tda.trans(&asta, s012, lc, &mut h);
        let t = tda.trans_at(t);
        assert_eq!(t.r1, s01);
        assert_eq!(t.r2, s01);
    }

    #[test]
    fn chain_searcher_is_right_spine() {
        // /a/b: the b-searcher walks the sibling chain: Right skip.
        let al = abc();
        let asta = compile_path(&parse_xpath("/a/b").unwrap(), &al).unwrap();
        let mut tda = Tda::new(&asta);
        let s0 = tda.top_set(&asta);
        let mut h = EvalStats::default();
        let t = tda.trans(&asta, s0, al.lookup("a").unwrap(), &mut h);
        let chain = tda.trans_at(t).r1; // the b-chain searcher below a
        let info = tda.skip_info(&asta, chain);
        assert_eq!(info.kind, SkipKind::Right);
        assert_eq!(
            info.jump.iter().collect::<Vec<_>>(),
            vec![al.lookup("b").unwrap()]
        );
    }

    #[test]
    fn negation_disables_aggressive_skip() {
        // //a[not(.//b)]//c: below a matched `a`, the set contains the
        // predicate searcher; `a` must stay essential because the match
        // formula is non-monotone.
        let al = abc();
        let asta = compile_path(&parse_xpath("//a[ not(.//b) ]//c").unwrap(), &al).unwrap();
        let mut tda = Tda::new(&asta);
        let s0 = tda.top_set(&asta);
        let la = al.lookup("a").unwrap();
        let mut h = EvalStats::default();
        let t = tda.trans(&asta, s0, la, &mut h);
        let below = tda.trans_at(t).r1;
        let info = tda.skip_info(&asta, below);
        assert!(
            info.jump.contains(la),
            "nested a must be visited under negation; jump set {:?}",
            info.jump
        );
    }

    #[test]
    fn memoization_counts_hits() {
        let al = abc();
        let asta = compile_path(&parse_xpath("//a").unwrap(), &al).unwrap();
        let mut tda = Tda::new(&asta);
        let s0 = tda.top_set(&asta);
        let mut stats = EvalStats::default();
        let _ = tda.trans(&asta, s0, 0, &mut stats);
        assert_eq!((stats.memo_hits, stats.memo_misses), (0, 1));
        assert_eq!(tda.trans_memo_len(), 1);
        let _ = tda.trans(&asta, s0, 0, &mut stats);
        assert_eq!((stats.memo_hits, stats.memo_misses), (1, 1));
        assert_eq!(tda.trans_memo_len(), 1);
    }

    #[test]
    fn empty_set_never_skips_into_work() {
        let al = abc();
        let asta = compile_path(&parse_xpath("//a").unwrap(), &al).unwrap();
        let mut tda = Tda::new(&asta);
        let mut h = EvalStats::default();
        let t = tda.trans(&asta, SetInterner::EMPTY, 0, &mut h);
        let t = tda.trans_at(t);
        assert!(t.active.is_empty());
        assert_eq!(t.r1, SetInterner::EMPTY);
        assert_eq!(t.r2, SetInterner::EMPTY);
    }
}
