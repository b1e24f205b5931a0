//! Alternating selecting tree automata (Def. 4.1) and formula evaluation
//! (Fig. 7).

use crate::results::{NodeList, ResultArena, ResultSet};
use std::sync::Arc;
use xwq_index::NodeId;
use xwq_xml::{LabelId, LabelSet};

/// ASTA state identifier.
pub type StateId = u32;

/// Boolean transition formulas:
/// `φ ::= ⊤ | ⊥ | φ∨φ | φ∧φ | ¬φ | ↓1 q | ↓2 q`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// `⊤`
    True,
    /// `⊥`
    False,
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// `↓1 q` — `q` accepted at the first binary child.
    Down1(StateId),
    /// `↓2 q` — `q` accepted at the second binary child.
    Down2(StateId),
}

impl Formula {
    /// `a ∨ b`, simplifying units.
    pub fn or(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, x) | (x, Formula::False) => x,
            (a, b) => Formula::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `a ∧ b`, simplifying units.
    pub fn and(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, x) | (x, Formula::True) => x,
            (a, b) => Formula::And(Box::new(a), Box::new(b)),
        }
    }

    /// `¬a`, simplifying constants.
    #[allow(clippy::should_implement_trait)] // matches the paper's ¬, takes by value
    pub fn not(a: Formula) -> Formula {
        match a {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            a => Formula::Not(Box::new(a)),
        }
    }

    /// Collects the `↓i` atoms into `r1` / `r2`.
    pub fn collect_down(&self, r1: &mut Vec<StateId>, r2: &mut Vec<StateId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Or(a, b) | Formula::And(a, b) => {
                a.collect_down(r1, r2);
                b.collect_down(r1, r2);
            }
            Formula::Not(a) => a.collect_down(r1, r2),
            Formula::Down1(q) => r1.push(*q),
            Formula::Down2(q) => r2.push(*q),
        }
    }

    /// Collects the `↓i` atoms into bitsets (the hot-loop variant of
    /// [`Self::collect_down`]: no per-visit sort/dedup).
    pub fn collect_down_bits(
        &self,
        r1: &mut crate::bits::StateBits,
        r2: &mut crate::bits::StateBits,
    ) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Or(a, b) | Formula::And(a, b) => {
                a.collect_down_bits(r1, r2);
                b.collect_down_bits(r1, r2);
            }
            Formula::Not(a) => a.collect_down_bits(r1, r2),
            Formula::Down1(q) => r1.insert(*q),
            Formula::Down2(q) => r2.insert(*q),
        }
    }

    /// True if the formula contains no negation.
    pub fn is_monotone(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Down1(_) | Formula::Down2(_) => true,
            Formula::Or(a, b) | Formula::And(a, b) => a.is_monotone() && b.is_monotone(),
            Formula::Not(_) => false,
        }
    }

    /// Evaluates under result sets of the two children (the inference rules
    /// of Fig. 7), returning the truth value and the collected node list
    /// (built in `arena`, which holds `g1` and `g2`).
    pub fn eval(&self, g1: ResultSet, g2: ResultSet, arena: &mut ResultArena) -> (bool, NodeList) {
        match self {
            Formula::True => (true, NodeList::EMPTY),
            Formula::False => (false, NodeList::EMPTY),
            Formula::Not(a) => {
                let (b, _) = a.eval(g1, g2, arena);
                (!b, NodeList::EMPTY)
            }
            Formula::Or(a, b) => {
                let (b1, r1) = a.eval(g1, g2, arena);
                let (b2, r2) = b.eval(g1, g2, arena);
                match (b1, b2) {
                    (true, true) => (true, arena.concat(r1, r2)),
                    (true, false) => (true, r1),
                    (false, true) => (true, r2),
                    (false, false) => (false, NodeList::EMPTY),
                }
            }
            Formula::And(a, b) => {
                let (b1, r1) = a.eval(g1, g2, arena);
                let (b2, r2) = b.eval(g1, g2, arena);
                if b1 && b2 {
                    (true, arena.concat(r1, r2))
                } else {
                    (false, NodeList::EMPTY)
                }
            }
            Formula::Down1(q) => match arena.get(g1, *q) {
                Some(l) => (true, l),
                None => (false, NodeList::EMPTY),
            },
            Formula::Down2(q) => match arena.get(g2, *q) {
                Some(l) => (true, l),
                None => (false, NodeList::EMPTY),
            },
        }
    }

    /// Evaluates truth only, given the accepted-state domains.
    pub fn eval_bool(&self, dom1: &[StateId], dom2: &[StateId]) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Not(a) => !a.eval_bool(dom1, dom2),
            Formula::Or(a, b) => a.eval_bool(dom1, dom2) || b.eval_bool(dom1, dom2),
            Formula::And(a, b) => a.eval_bool(dom1, dom2) && b.eval_bool(dom1, dom2),
            Formula::Down1(q) => dom1.binary_search(q).is_ok(),
            Formula::Down2(q) => dom2.binary_search(q).is_ok(),
        }
    }

    /// Three-valued evaluation knowing only the second child's accepted
    /// states (`dom2`): `Some(b)` if the truth value is already settled,
    /// `None` if it still depends on the first child.
    pub fn val3_given2(&self, dom2: &[StateId]) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Not(a) => a.val3_given2(dom2).map(|b| !b),
            Formula::Or(a, b) => match (a.val3_given2(dom2), b.val3_given2(dom2)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Formula::And(a, b) => match (a.val3_given2(dom2), b.val3_given2(dom2)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Formula::Down1(_) => None,
            Formula::Down2(q) => Some(dom2.binary_search(q).is_ok()),
        }
    }

    /// The `↓` atoms that *positively contribute* node lists given the
    /// children domains — exactly the atoms whose lists the Fig. 7 rules
    /// union into the result. Atoms under `¬` never contribute; a false
    /// subformula contributes nothing.
    pub fn contributing_atoms(
        &self,
        dom1: &[StateId],
        dom2: &[StateId],
        out: &mut Vec<(u8, StateId)>,
    ) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Not(a) => !a.eval_bool(dom1, dom2),
            Formula::Or(a, b) => {
                // Evaluate both sides; union lists of the true ones.
                let mut tmp_a = Vec::new();
                let mut tmp_b = Vec::new();
                let ba = a.contributing_atoms(dom1, dom2, &mut tmp_a);
                let bb = b.contributing_atoms(dom1, dom2, &mut tmp_b);
                if ba {
                    out.extend(tmp_a);
                }
                if bb {
                    out.extend(tmp_b);
                }
                ba || bb
            }
            Formula::And(a, b) => {
                let mut tmp_a = Vec::new();
                let mut tmp_b = Vec::new();
                let ba = a.contributing_atoms(dom1, dom2, &mut tmp_a);
                let bb = b.contributing_atoms(dom1, dom2, &mut tmp_b);
                if ba && bb {
                    out.extend(tmp_a);
                    out.extend(tmp_b);
                    true
                } else {
                    false
                }
            }
            Formula::Down1(q) => {
                if dom1.binary_search(q).is_ok() {
                    out.push((1, *q));
                    true
                } else {
                    false
                }
            }
            Formula::Down2(q) => {
                if dom2.binary_search(q).is_ok() {
                    out.push((2, *q));
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// A transition `(q, L, τ, φ)` with `τ ∈ {→, ⇒}` (⇒ = selecting).
#[derive(Clone, Debug)]
pub struct AstaTransition {
    /// Source state.
    pub q: StateId,
    /// Label guard.
    pub labels: LabelSet,
    /// True for `⇒` (select the current node when `φ` holds).
    pub selecting: bool,
    /// The transition formula.
    pub phi: Formula,
    /// Optional node filter (index into [`Asta::filters`]): the transition
    /// fires only at nodes in the (sorted) set. This is how text predicates
    /// reach the automaton — the guard becomes "label ∈ L and node carries
    /// the matching content" (SXSI's text-predicate integration).
    pub filter: Option<u32>,
}

impl AstaTransition {
    /// True if the transition may fire at `node` under its filter.
    #[inline]
    pub fn filter_admits(&self, filters: &[Arc<Vec<NodeId>>], node: NodeId) -> bool {
        match self.filter {
            None => true,
            Some(f) => filters[f as usize].binary_search(&node).is_ok(),
        }
    }
}

/// An alternating selecting tree automaton `(Σ, Q, T, δ)`.
#[derive(Clone, Debug)]
pub struct Asta {
    /// Number of states.
    pub n_states: u32,
    /// Alphabet size.
    pub alphabet_size: usize,
    /// Top states `T`.
    pub top: Vec<StateId>,
    /// Transition list; transitions of one state are contiguous (not
    /// required, but the compiler produces them that way).
    pub delta: Vec<AstaTransition>,
    /// `trans_of[q]` = indices into `delta`.
    pub trans_of: Vec<Vec<u32>>,
    /// Sorted node sets referenced by transition filters.
    pub filters: Vec<Arc<Vec<NodeId>>>,
}

impl Asta {
    /// Creates an empty automaton.
    pub fn new(alphabet_size: usize) -> Self {
        Self {
            n_states: 0,
            alphabet_size,
            top: Vec::new(),
            delta: Vec::new(),
            trans_of: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// Allocates a fresh state.
    pub fn fresh_state(&mut self) -> StateId {
        let q = self.n_states;
        self.n_states += 1;
        self.trans_of.push(Vec::new());
        q
    }

    /// Adds a transition.
    pub fn add(&mut self, q: StateId, labels: LabelSet, selecting: bool, phi: Formula) {
        self.add_filtered(q, labels, selecting, phi, None);
    }

    /// Adds a transition with an optional node filter.
    pub fn add_filtered(
        &mut self,
        q: StateId,
        labels: LabelSet,
        selecting: bool,
        phi: Formula,
        filter: Option<u32>,
    ) {
        if labels.is_empty() {
            return; // guards must be non-empty; empty means "never fires"
        }
        let idx = self.delta.len() as u32;
        self.delta.push(AstaTransition {
            q,
            labels,
            selecting,
            phi,
            filter,
        });
        self.trans_of[q as usize].push(idx);
    }

    /// Registers a sorted node set as a filter; returns its id.
    pub fn add_filter(&mut self, nodes: Vec<NodeId>) -> u32 {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        self.filters.push(Arc::new(nodes));
        (self.filters.len() - 1) as u32
    }

    /// Transitions of `q` active on label `l`.
    pub fn active(&self, q: StateId, l: LabelId) -> impl Iterator<Item = &AstaTransition> {
        self.trans_of[q as usize]
            .iter()
            .map(move |&i| &self.delta[i as usize])
            .filter(move |t| t.labels.contains(l))
    }

    /// Downward-reachable state sets ("closures"), one bitset per state.
    /// Two states whose closures are disjoint never share sub-computations,
    /// so a state set can be evaluated per closure-group — which is what
    /// lets predicate branches short-circuit independently of the selecting
    /// main path (§4.4 information propagation).
    pub fn state_closures(&self) -> Vec<crate::bits::StateBits> {
        use crate::bits::StateBits;
        let n = self.n_states as usize;
        let mut clo: Vec<StateBits> = (0..n)
            .map(|q| {
                let mut s = StateBits::with_universe(n);
                s.insert(q as StateId);
                s
            })
            .collect();
        // Transitive closure by iteration (|Q| is query-sized).
        let mut changed = true;
        while changed {
            changed = false;
            for t in &self.delta {
                let mut d1 = StateBits::with_universe(n);
                let mut d2 = StateBits::with_universe(n);
                t.phi.collect_down_bits(&mut d1, &mut d2);
                d1.union_with(&d2);
                for q in d1.iter() {
                    let (src, dst) = (t.q as usize, q as usize);
                    if src == dst {
                        continue;
                    }
                    // clo[src] |= clo[dst] without aliasing.
                    let (a, b) = if src < dst {
                        let (l, r) = clo.split_at_mut(dst);
                        (&mut l[src], &r[0])
                    } else {
                        let (l, r) = clo.split_at_mut(src);
                        (&mut r[0], &l[dst])
                    };
                    let before = a.len();
                    a.union_with(b);
                    if a.len() != before {
                        changed = true;
                    }
                }
            }
        }
        clo
    }

    /// States whose acceptance can (transitively) carry selected nodes:
    /// a state with a `⇒` transition, or one whose formulas reference a
    /// carrier. Used by information propagation — only non-carrier
    /// (pure-recognition) states may be pruned once their truth is known.
    pub fn carrier_states(&self) -> Vec<bool> {
        let mut carrier = vec![false; self.n_states as usize];
        for t in &self.delta {
            if t.selecting {
                carrier[t.q as usize] = true;
            }
        }
        // Propagate backwards along ↓ references until fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for t in &self.delta {
                if carrier[t.q as usize] {
                    continue;
                }
                let mut r1 = Vec::new();
                let mut r2 = Vec::new();
                t.phi.collect_down(&mut r1, &mut r2);
                if r1.iter().chain(&r2).any(|&q| carrier[q as usize]) {
                    carrier[t.q as usize] = true;
                    changed = true;
                }
            }
        }
        carrier
    }

    /// [`Self::carrier_states`] as a [`crate::bits::StateBits`] — the form
    /// the evaluator probes per node visit.
    pub fn carrier_bits(&self) -> crate::bits::StateBits {
        crate::bits::StateBits::from_bools(&self.carrier_states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_index::NodeId;

    fn d1(q: StateId) -> Formula {
        Formula::Down1(q)
    }
    fn d2(q: StateId) -> Formula {
        Formula::Down2(q)
    }

    fn gamma(a: &mut ResultArena, states: &[(StateId, &[NodeId])]) -> ResultSet {
        let m = a.mark();
        for (q, nodes) in states {
            let mut l = NodeList::EMPTY;
            for &n in *nodes {
                let leaf = a.leaf(n);
                l = a.concat(l, leaf);
            }
            a.accept(*q, l);
        }
        a.finish(m)
    }

    const NONE_SET: ResultSet = ResultSet::EMPTY;

    #[test]
    fn figure7_or_unions_both_true_sides() {
        let a = &mut ResultArena::new(8);
        let g1 = gamma(a, &[(0, &[10])]);
        let g2 = gamma(a, &[(0, &[20])]);
        let phi = Formula::or(d1(0), d2(0));
        let (b, l) = phi.eval(g1, g2, a);
        assert!(b);
        assert_eq!(a.to_sorted_set(l), vec![10, 20]);
        // One side false: only the true side's list.
        let (b, l) = phi.eval(g1, NONE_SET, a);
        assert!(b);
        assert_eq!(a.to_vec(l), vec![10]);
    }

    #[test]
    fn figure7_and_requires_both() {
        let a = &mut ResultArena::new(8);
        let g1 = gamma(a, &[(0, &[10])]);
        let phi = Formula::and(d1(0), d2(1));
        let (b, l) = phi.eval(g1, NONE_SET, a);
        assert!(!b);
        assert!(l.is_empty());
        let g2 = gamma(a, &[(1, &[30])]);
        let (b, l) = phi.eval(g1, g2, a);
        assert!(b);
        assert_eq!(a.to_sorted_set(l), vec![10, 30]);
    }

    #[test]
    fn figure7_not_discards_marks() {
        let a = &mut ResultArena::new(8);
        let g1 = gamma(a, &[(0, &[10])]);
        let phi = Formula::not(d1(0));
        let (b, l) = phi.eval(g1, NONE_SET, a);
        assert!(!b);
        assert!(l.is_empty());
        let phi = Formula::not(d1(5));
        let (b, l) = phi.eval(g1, NONE_SET, a);
        assert!(b, "¬ of unaccepted state is true");
        assert!(l.is_empty(), "the (not) rule returns an empty set");
    }

    #[test]
    fn accepted_with_empty_list_is_true() {
        let a = &mut ResultArena::new(8);
        let g1 = gamma(a, &[(2, &[])]);
        let (b, l) = d1(2).eval(g1, NONE_SET, a);
        assert!(b);
        assert!(l.is_empty());
    }

    #[test]
    fn simplifying_constructors() {
        assert_eq!(Formula::or(Formula::True, d1(0)), Formula::True);
        assert_eq!(Formula::or(Formula::False, d1(0)), d1(0));
        assert_eq!(Formula::and(Formula::True, d2(1)), d2(1));
        assert_eq!(Formula::and(Formula::False, d2(1)), Formula::False);
        assert_eq!(Formula::not(Formula::True), Formula::False);
    }

    #[test]
    fn contributing_atoms_match_eval() {
        // φ = (↓1 0 ∨ ↓2 1) ∧ ↓2 2 with dom1 = {0}, dom2 = {1, 2}.
        let phi = Formula::and(Formula::or(d1(0), d2(1)), d2(2));
        let mut atoms = Vec::new();
        let b = phi.contributing_atoms(&[0], &[1, 2], &mut atoms);
        assert!(b);
        atoms.sort_unstable();
        assert_eq!(atoms, vec![(1, 0), (2, 1), (2, 2)]);
        // dom1 empty: or-side 1 false, only ↓2 atoms contribute.
        let mut atoms = Vec::new();
        let b = phi.contributing_atoms(&[], &[1, 2], &mut atoms);
        assert!(b);
        atoms.sort_unstable();
        assert_eq!(atoms, vec![(2, 1), (2, 2)]);
        // And-failure contributes nothing.
        let mut atoms = Vec::new();
        let b = phi.contributing_atoms(&[0], &[1], &mut atoms);
        assert!(!b);
        assert!(atoms.is_empty());
    }

    #[test]
    fn carrier_states_propagate() {
        let mut a = Asta::new(2);
        let q0 = a.fresh_state();
        let q1 = a.fresh_state();
        let q2 = a.fresh_state();
        let full = LabelSet::empty(2).complement();
        // q1 selects; q0 references q1; q2 references nothing selecting.
        a.add(q1, full.clone(), true, Formula::True);
        a.add(q0, full.clone(), false, d1(q1));
        a.add(q2, full, false, Formula::True);
        let c = a.carrier_states();
        assert_eq!(c, vec![true, true, false]);
    }
}
