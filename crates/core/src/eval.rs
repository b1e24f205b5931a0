//! ASTA evaluation (Algorithm 4.1) in all the paper's variants.
//!
//! The traversal is a bottom-up pass with top-down pre-processing: state
//! sets `r` flow down (and left-to-right along sibling chains), result sets
//! Γ flow up (and right-to-left). Sibling chains are iterated, children
//! recursed, so stack depth is bounded by XML depth plus the number of
//! nested frontier jumps (a depth guard degrades to plain stepping beyond
//! that, preserving correctness).
//!
//! Strategy knobs ([`EvalOptions`]):
//!
//! * `pruning` — stop at empty state sets (subtree skipping, Fig. 3 line 3).
//! * `jumping` — relevant-node jumping via [`crate::Tda`] (Def. 4.2, §4.3).
//! * `memo` — memoize transition selection and formula evaluation (§4.4).
//! * `info_prop` — information propagation (§4.4): once one child's result
//!   is known, resolve what it decides and narrow the state set sent to the
//!   other child. (The paper propagates first-child results to the second;
//!   our chain evaluation computes sibling results first, so the mirror
//!   direction — pruning the *first* child's set from Γ₂ — is used.)
//!
//! Cost of a visit. Every chain walk carries `end`, the end of its binary
//! subtree (`bin_subtree_end` of its first node), so one `subtree_end` per
//! visited node yields the first child (`v + 1` if below it), the next
//! sibling (the subtree end itself, if below `end`) and the child chain's
//! bound; `dt` probes search `[v + 1, end)` directly. A memo hit returns an
//! index into an arena of [`EvalMemo`] or [`Tda`], result-set domains are
//! `u64` masks for automata of up to 64 states, and node lists and result
//! sets are `Copy` handles into a [`ResultArena`] kept in the caller's
//! [`EvalScratch`] — so a warm visit reads arrays and never allocates.

use crate::asta::{Asta, Formula, StateId};
use crate::bits::StateBits;
use crate::results::{trim_vec, NodeList, ResultArena, ResultSet};
use crate::sets::{SetId, SetInterner};
use crate::tda::{SkipKind, Tda, TransEval};
use xwq_index::{FxHashMap, LabelId, NodeId, TreeIndex, NONE};
use xwq_xml::LabelSet;

/// Evaluation strategy knobs; see module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Stop at empty state sets.
    pub pruning: bool,
    /// Jump between (approximately) relevant nodes.
    pub jumping: bool,
    /// Memoize transition selection and formula evaluation.
    pub memo: bool,
    /// Information propagation between siblings.
    pub info_prop: bool,
    /// Maximum jump-set width for `dt`/`ft` frontier jumps; wider sets fall
    /// back to stepping (the `{q0,q1,q2}` case of Fig. 1).
    pub jump_width: usize,
}

impl EvalOptions {
    /// Algorithm 4.1 verbatim: visit everything, pay |Q| per node.
    pub fn naive() -> Self {
        Self {
            pruning: false,
            jumping: false,
            memo: false,
            info_prop: false,
            jump_width: 0,
        }
    }

    /// Naive plus empty-set subtree pruning (Fig. 3 line (3)).
    pub fn pruning() -> Self {
        Self {
            pruning: true,
            ..Self::naive()
        }
    }

    /// Jumping evaluation (no memoization) — Fig. 4 "Jumping Eval.".
    pub fn jumping(alphabet: usize) -> Self {
        Self {
            pruning: true,
            jumping: true,
            jump_width: default_jump_width(alphabet),
            ..Self::naive()
        }
    }

    /// Memoized evaluation (no jumping) — Fig. 4 "Memo. Eval.".
    pub fn memoized() -> Self {
        Self {
            pruning: true,
            memo: true,
            ..Self::naive()
        }
    }

    /// Everything on — Fig. 4 "Opt. Eval.".
    pub fn optimized(alphabet: usize) -> Self {
        Self {
            pruning: true,
            jumping: true,
            memo: true,
            info_prop: true,
            jump_width: default_jump_width(alphabet),
        }
    }
}

/// Wider jump sets than this degrade to stepping: each `dt`/`ft` probe costs
/// O(|L| log n), so near-alphabet-wide sets are cheaper to scan.
fn default_jump_width(alphabet: usize) -> usize {
    (alphabet / 2).max(8)
}

/// Counters reported by every run (the raw material of Fig. 3 and Fig. 5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Real nodes whose transitions were evaluated.
    pub visited: u64,
    /// Index jump probes (`dt`/`ft`/`lt`/`rt`).
    pub jumps: u64,
    /// Entries in the transition, formula-recipe and residual memo tables
    /// at the end of the run (the per-set split and skip tables and the
    /// existential answers are not counted).
    pub memo_entries: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Memo lookups that had to compute *during this run*. On a cold run
    /// this equals [`Self::memo_entries`]; when memo tables are pooled per
    /// `(document, query)` (see [`crate::Engine::run_with_scratch`]) a
    /// warm run reports few misses against a large table.
    pub memo_misses: u64,
    /// Number of selected nodes.
    pub selected: u64,
}

impl EvalStats {
    /// Accumulates another run's counters (batch reporting).
    pub fn accumulate(&mut self, other: &EvalStats) {
        self.visited += other.visited;
        self.jumps += other.jumps;
        self.memo_entries += other.memo_entries;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.selected += other.selected;
    }
}

/// Reusable evaluation allocations. A serving thread keeps one of these
/// and passes it to every run ([`crate::Engine::run_with_scratch`]): the
/// visited-node bitset is document-sized, so reusing it turns a per-query
/// allocation into a `memset`; the automaton evaluator's node-list and
/// result-set arena and its chain work stack, and the register VM's memo
/// tables and candidate registers, keep their capacity the same way.
#[derive(Debug, Default)]
pub struct EvalScratch {
    pub(crate) visited: StateBits,
    pub(crate) spine: crate::walk::SpineScratch,
    results: ResultArena,
    items: Vec<Item>,
}

impl EvalScratch {
    /// An empty scratch (grows to document size on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A result-set domain as a memo key: the domain mask itself for automata
/// with at most 64 states, the interned [`SetId`] of the domain otherwise.
type DomKey = u64;

/// The memo state of one evaluation, split from the per-run [`Evaluator`]
/// so it can be pooled per `(document, query)` across runs (the ROADMAP
/// "eval scratch for memo tables" item): every table is a pure function of
/// the `(automaton, index)` pair, so a cache-warm repeated query reuses
/// interned sets, transition/recipe/residual memos and existential
/// answers instead of rebuilding them. Lookups return indices into arenas
/// owned here, so a memo hit reads arrays and touches no heap. `Send`, so
/// the pool can live in an `Arc<CompiledQuery>` served from many threads.
#[derive(Debug)]
pub struct EvalMemo {
    tda: Tda,
    /// The automaton's top-state set.
    top: SetId,
    /// `{q}` for every state `q`.
    singletons: Vec<SetId>,
    /// Formula-evaluation and information-propagation memo keys per
    /// memoized `(S, σ)` transition, indexed like the [`Tda`]'s transition
    /// arena: a visit that has its transition reaches them with one array
    /// index (few keys each, scanned linearly).
    outcomes: Vec<Outcomes>,
    recipes: Vec<Recipe>,
    residuals: Vec<Residual>,
    /// Per-set facts, indexed by [`SetId`].
    set_meta: Vec<Option<SetMeta>>,
    /// Component subsets of the sets in `set_meta`.
    split_arena: Vec<SetId>,
    /// Existential evaluation memo: is state `q` accepted at node `v`?
    exists_memo: FxHashMap<(StateId, NodeId), bool>,
    /// Per label, where the last jump probe landed in its label list (a
    /// search hint only; see [`probe`]).
    cursors: Vec<u32>,
    carrier: StateBits,
    /// Per-state downward closures (see [`Asta::state_closures`]).
    closures: Vec<StateBits>,
}

impl EvalMemo {
    /// Fresh memo state for one automaton.
    pub fn new(asta: &Asta) -> Self {
        let mut tda = Tda::new(asta);
        let top = tda.top_set(asta);
        let singletons = (0..asta.n_states)
            .map(|q| tda.sets.intern(vec![q]))
            .collect();
        Self {
            tda,
            top,
            singletons,
            outcomes: Vec::new(),
            recipes: Vec::new(),
            residuals: Vec::new(),
            set_meta: Vec::new(),
            split_arena: Vec::new(),
            exists_memo: FxHashMap::default(),
            cursors: vec![0; asta.alphabet_size],
            carrier: asta.carrier_bits(),
            closures: asta.state_closures(),
        }
    }
}

/// The memo keys of one determinized transition `(S, σ)`.
#[derive(Debug, Default)]
struct Outcomes {
    /// `dom2 ↦` index into [`EvalMemo::residuals`].
    residuals: Vec<(DomKey, u32)>,
    /// `(dom1, dom2) ↦` index into [`EvalMemo::recipes`].
    recipes: Vec<(DomKey, DomKey, u32)>,
}

impl EvalMemo {
    /// The memo keys of memoized transition `t`.
    fn outcomes(&mut self, t: u32) -> &mut Outcomes {
        let i = t as usize;
        if i >= self.outcomes.len() {
            self.outcomes.resize_with(i + 1, Outcomes::default);
        }
        &mut self.outcomes[i]
    }
}

/// Split and existential facts of one state set.
#[derive(Clone, Copy, Debug)]
struct SetMeta {
    /// Its independent components: `split_arena[comps..comps + n_comps]`.
    comps: u32,
    n_comps: u32,
    /// No state of the set can carry selected nodes.
    existential: bool,
    /// Bit `q % 64` per member (exact for automata of ≤ 64 states).
    mask: u64,
}

/// Recursion ceiling for nested frontier jumps; beyond it the evaluator
/// steps instead of jumping (correct, just less skippy).
const DEPTH_LIMIT: usize = 1500;

/// Tag on transition references into [`Evaluator::fresh`] (transitions
/// computed without memoization) rather than into the memo arena.
const FRESH: u32 = 1 << 31;

/// One node of a sibling chain awaiting the right-to-left fold.
#[derive(Clone, Copy, Debug)]
struct Item {
    node: NodeId,
    label: LabelId,
    /// `subtree_end(node)`: the first child is `node + 1` if below it, and
    /// it bounds the child chain.
    sub_end: NodeId,
    rset: SetId,
    /// Transition reference (see [`Evaluator::trans_eval`]).
    trans: u32,
    /// Joins the fold after (to the right of) this item — produced by
    /// frontier jumps whose members sit in skipped subtrees rather than on
    /// this chain.
    extra: ResultSet,
}

/// Where a node's active transitions come from.
#[derive(Clone, Copy)]
enum Active {
    /// The determinized transition (see [`Evaluator::trans_eval`]).
    Trans(u32),
    /// An information-propagation residual.
    Residual(u32),
}

/// One evaluation run.
pub struct Evaluator<'a> {
    asta: &'a Asta,
    ix: &'a TreeIndex,
    opts: EvalOptions,
    /// The memo tables — fresh, or pooled across runs of the same
    /// `(document, query)` pair (see [`EvalMemo`]).
    m: EvalMemo,
    /// Distinct nodes visited so far (the paper's Fig. 3 counts nodes, and
    /// independent components may touch the same node). A dense bitset over
    /// preorder ids; swapped in from an [`EvalScratch`] when serving.
    visited_seen: StateBits,
    /// Node lists and result sets of this run.
    res: ResultArena,
    /// Work items of the sibling chains being walked, innermost last.
    items: Vec<Item>,
    /// Transitions computed by non-memoizing strategies during this run.
    fresh: Vec<TransEval>,
    /// Domain buffer for interning wide result-set domains.
    dom_buf: Vec<StateId>,
    /// Statistics.
    pub stats: EvalStats,
    depth: usize,
    #[cfg(test)]
    force_wide: bool,
}

/// A memoized information-propagation outcome: the surviving transitions
/// and the narrowed first-child state set.
#[derive(Debug)]
struct Residual {
    active: Box<[u32]>,
    r1: SetId,
}

/// A memoized formula-evaluation outcome: which states fire, whether they
/// select, and which child entries their lists concatenate.
#[derive(Debug)]
struct Recipe {
    rows: Box<[RecipeRow]>,
}

#[derive(Debug)]
struct RecipeRow {
    q: StateId,
    selecting: bool,
    /// Node filter of the originating transition, checked at apply time
    /// (the recipe itself is node-independent).
    filter: Option<u32>,
    /// `(side, state)` sources in formula order.
    srcs: Box<[(u8, StateId)]>,
}

/// `rt` along the sibling chain that ends before `end`: the first
/// following sibling of `v` with label in `jump`, or [`NONE`].
fn next_labeled_sibling(ix: &TreeIndex, v: NodeId, end: NodeId, jump: &LabelSet) -> NodeId {
    let mut cur = ix.subtree_end(v);
    while cur < end {
        if jump.contains(ix.label(cur)) {
            return cur;
        }
        cur = ix.subtree_end(cur);
    }
    NONE
}

/// A `dt`/`ft` probe: the first node in `[lo, hi)` whose label is in
/// `jump` — the answer of [`TreeIndex::first_labeled_in_range`]. Each
/// label's search gallops out from where that label's previous probe
/// landed (`cursors`): the traversal moves through the document mostly
/// forward, so most probes settle within a few entries instead of paying
/// a full binary search over the label list.
fn probe(ix: &TreeIndex, cursors: &mut [u32], lo: NodeId, hi: NodeId, jump: &LabelSet) -> NodeId {
    if lo >= hi {
        return NONE;
    }
    let mut best = NONE;
    for l in jump.iter() {
        let list = ix.label_list(l);
        let i = seek(list, lo, cursors[l as usize] as usize);
        cursors[l as usize] = i as u32;
        if let Some(&v) = list.get(i) {
            if v < hi && v < best {
                best = v;
            }
        }
    }
    best
}

/// The first index `i` with `list[i] >= lo` in the ascending `list`,
/// searched by galloping away from `hint` (any value is correct).
fn seek(list: &[NodeId], lo: NodeId, hint: usize) -> usize {
    let below = |v: &NodeId| *v < lo;
    let n = list.len();
    let h = hint.min(n);
    if h < n && list[h] < lo {
        // The answer lies after `h`: double the step until overshooting.
        let (mut prev, mut step) = (h, 1);
        loop {
            let next = prev + step;
            if next >= n || list[next] >= lo {
                let top = next.min(n);
                return prev + 1 + list[prev + 1..top].partition_point(below);
            }
            prev = next;
            step *= 2;
        }
    }
    // The answer is at or before `h`.
    let (mut top, mut step) = (h, 1);
    while top > 0 {
        let at = top.saturating_sub(step);
        if list[at] < lo {
            return at + 1 + list[at + 1..top].partition_point(below);
        }
        top = at;
        step *= 2;
    }
    0
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for one automaton over one index with fresh
    /// memo tables.
    pub fn new(asta: &'a Asta, ix: &'a TreeIndex, opts: EvalOptions) -> Self {
        Self::with_memo(asta, ix, opts, EvalMemo::new(asta))
    }

    /// Creates an evaluator reusing pooled memo tables. `memo` must have
    /// been produced by [`Self::into_memo`] for exactly this `(asta, ix)`
    /// pair (the tables cache node- and state-keyed answers).
    pub fn with_memo(asta: &'a Asta, ix: &'a TreeIndex, opts: EvalOptions, memo: EvalMemo) -> Self {
        assert_eq!(
            asta.alphabet_size,
            ix.alphabet().len(),
            "automaton compiled against a different alphabet"
        );
        Self {
            asta,
            ix,
            opts,
            m: memo,
            // Starts empty and grows geometrically with the nodes actually
            // visited; run_with_scratch swaps in a pre-grown bitset, arena
            // and work stack, so a warm serving thread pays no per-query
            // allocation here.
            visited_seen: StateBits::new(),
            res: ResultArena::default(),
            items: Vec::new(),
            fresh: Vec::new(),
            dom_buf: Vec::new(),
            stats: EvalStats::default(),
            depth: 0,
            #[cfg(test)]
            force_wide: false,
        }
    }

    /// Releases the memo tables for pooling.
    pub fn into_memo(self) -> EvalMemo {
        self.m
    }

    /// Runs the automaton; returns the selected nodes in document order
    /// (duplicate-free) and fills [`Self::stats`].
    pub fn run(&mut self) -> Vec<NodeId> {
        let asta = self.asta;
        self.res.reset(asta.n_states);
        #[cfg(test)]
        if self.force_wide {
            self.res.force_wide();
        }
        self.items.clear();
        self.fresh.clear();
        let gamma = self.eval_entry(self.ix.root(), self.m.top, self.ix.len() as NodeId);
        let mut list = NodeList::EMPTY;
        for &q in &asta.top {
            if let Some(l) = self.res.get(gamma, q) {
                list = self.res.concat(list, l);
            }
        }
        let out = self.res.to_sorted_set(list);
        self.stats.selected = out.len() as u64;
        self.stats.memo_entries =
            (self.m.tda.trans_memo_len() + self.m.recipes.len() + self.m.residuals.len()) as u64;
        out
    }

    /// [`Self::run`] with the visited bitset, the result arena and the
    /// chain work stack borrowed from (and returned to) a reusable
    /// [`EvalScratch`]: after the scratch's first run they are sized for
    /// the document, so subsequent runs pay a `memset` instead of
    /// allocations. The arena and the stack keep at most a bounded
    /// capacity (see [`ResultArena::trim`]).
    pub fn run_with_scratch(&mut self, scratch: &mut EvalScratch) -> Vec<NodeId> {
        use std::mem::take;
        self.visited_seen = take(&mut scratch.visited);
        self.visited_seen.clear();
        self.res = take(&mut scratch.results);
        self.items = take(&mut scratch.items);
        let out = self.run();
        scratch.visited = take(&mut self.visited_seen);
        scratch.results = take(&mut self.res);
        scratch.results.trim();
        scratch.items = take(&mut self.items);
        trim_vec(&mut scratch.items);
        out
    }

    /// Evaluates the *binary subtree* rooted at `w` under state set `r`:
    /// the chain `w, w·2, w·2·2, …` with recursion into first children.
    /// `end` is the chain's bound, `bin_subtree_end(w)`.
    fn eval_entry(&mut self, w: NodeId, r: SetId, end: NodeId) -> ResultSet {
        if self.opts.jumping && w != NONE && r != SetInterner::EMPTY {
            // Independent state-graph components evaluate separately: a
            // recognition-only (predicate) component can then short-circuit
            // after its first witness instead of riding along with the
            // selecting main path (§4.4).
            let meta = self.set_meta(r);
            if meta.n_comps > 1 {
                let mut out = ResultSet::EMPTY;
                for i in meta.comps..meta.comps + meta.n_comps {
                    let c = self.m.split_arena[i as usize];
                    let g = if self.set_meta(c).existential {
                        self.exists_set(w, c, end)
                    } else {
                        self.eval_chain(w, c, end)
                    };
                    out = self.res.union(out, g);
                }
                return out;
            }
            if meta.existential {
                return self.exists_set(w, r, end);
            }
        }
        self.eval_chain(w, r, end)
    }

    /// The split/existential facts of `set` (cached).
    #[inline]
    fn set_meta(&mut self, set: SetId) -> SetMeta {
        match self.m.set_meta.get(set as usize) {
            Some(Some(meta)) => *meta,
            _ => self.compute_meta(set),
        }
    }

    /// Splits `set` into groups whose state closures are pairwise disjoint.
    /// Disjoint closures share no sub-computation, so the groups evaluate
    /// independently and exactly.
    fn compute_meta(&mut self, set: SetId) -> SetMeta {
        let states = self.m.tda.sets.get(set).to_vec();
        let existential = states.iter().all(|&q| !self.m.carrier.contains(q));
        let mask = states.iter().fold(0u64, |m, &q| m | (1 << (q % 64)));
        // Greedy closure-overlap grouping; |set| is query-sized.
        let mut groups: Vec<(StateBits, Vec<StateId>)> = Vec::new();
        for q in states {
            let qc = &self.m.closures[q as usize];
            let mut target: Option<usize> = None;
            let mut gi = 0;
            while gi < groups.len() {
                if groups[gi].0.intersects(qc) {
                    match target {
                        None => {
                            target = Some(gi);
                            gi += 1;
                        }
                        Some(t) => {
                            // q bridges two groups: merge them.
                            let (clo, members) = groups.remove(gi);
                            groups[t].0.union_with(&clo);
                            groups[t].1.extend(members);
                        }
                    }
                } else {
                    gi += 1;
                }
            }
            match target {
                Some(t) => {
                    groups[t].0.union_with(qc);
                    groups[t].1.push(q);
                }
                None => groups.push((qc.clone(), vec![q])),
            }
        }
        let comps = self.m.split_arena.len() as u32;
        for (_, g) in groups {
            let id = self.m.tda.sets.intern(g);
            self.m.split_arena.push(id);
        }
        let meta = SetMeta {
            comps,
            n_comps: self.m.split_arena.len() as u32 - comps,
            existential,
            mask,
        };
        let i = set as usize;
        if i >= self.m.set_meta.len() {
            self.m.set_meta.resize(i + 1, None);
        }
        self.m.set_meta[i] = Some(meta);
        meta
    }

    /// Accepted states of an existential (recognition-only) set at `w`,
    /// with per-witness short-circuiting and memoization.
    fn exists_set(&mut self, w: NodeId, set: SetId, end: NodeId) -> ResultSet {
        let mark = self.res.mark();
        for i in 0..self.m.tda.sets.get(set).len() {
            let q = self.m.tda.sets.get(set)[i];
            if self.exists(q, w, end, 0) {
                self.res.accept(q, NodeList::EMPTY);
            }
        }
        self.res.finish(mark)
    }

    /// Is `q` accepted at binary node `v` (whose binary subtree ends before
    /// `end`)? Exact (handles ¬), memoized, short-circuiting. Deep
    /// recursions fall back to the chain evaluator.
    fn exists(&mut self, q: StateId, v: NodeId, end: NodeId, depth: usize) -> bool {
        if v == NONE {
            return false;
        }
        debug_assert_eq!(end, self.ix.bin_subtree_end(v));
        if let Some(&b) = self.m.exists_memo.get(&(q, v)) {
            return b;
        }
        let singleton = self.m.singletons[q as usize];
        if depth > 800 {
            // Fall back to the iterative evaluator for pathological chains.
            let g = self.eval_chain(v, singleton, end);
            let b = self.res.contains(g, q);
            self.m.exists_memo.insert((q, v), b);
            return b;
        }
        // Jump like the main evaluator: a state that merely loops at this
        // label moves straight to the next essential node via the index.
        let ix = self.ix;
        let info = self.m.tda.skip_info(self.asta, singleton);
        if info.jump.contains(ix.label(v)) {
            return self.exists_structural(q, v, end, depth);
        }
        let b = match info.kind {
            SkipKind::Both if info.width <= self.opts.jump_width.max(1) => {
                self.stats.jumps += 1;
                let mut f = probe(ix, &mut self.m.cursors, v + 1, end, &info.jump);
                let mut found = false;
                while f != NONE {
                    let f_end = ix.bin_subtree_end(f);
                    if self.exists(q, f, f_end, depth + 1) {
                        found = true;
                        break;
                    }
                    self.stats.jumps += 1;
                    let jump = &self.m.tda.skip_at(singleton).jump;
                    f = probe(ix, &mut self.m.cursors, f_end, end, jump);
                }
                found
            }
            SkipKind::Right => {
                self.stats.jumps += 1;
                let t = next_labeled_sibling(ix, v, end, &info.jump);
                t != NONE && self.exists(q, t, end, depth + 1)
            }
            SkipKind::Left => {
                self.stats.jumps += 1;
                let t = ix.jump_leftmost(v, &info.jump);
                t != NONE && self.exists(q, t, ix.bin_subtree_end(t), depth + 1)
            }
            _ => return self.exists_structural(q, v, end, depth),
        };
        self.m.exists_memo.insert((q, v), b);
        b
    }

    fn exists_structural(&mut self, q: StateId, v: NodeId, end: NodeId, depth: usize) -> bool {
        self.mark_visited(v);
        let asta = self.asta;
        let label = self.ix.label(v);
        // `subtree_end(v)`, computed at the first ↓ the formulas reach.
        let mut sub_end = NONE;
        let mut b = false;
        for &ti in &asta.trans_of[q as usize] {
            let t = &asta.delta[ti as usize];
            if t.labels.contains(label)
                && t.filter_admits(&asta.filters, v)
                && self.exists_formula(&t.phi, v, end, &mut sub_end, depth)
            {
                b = true;
                break;
            }
        }
        self.m.exists_memo.insert((q, v), b);
        b
    }

    fn exists_formula(
        &mut self,
        phi: &Formula,
        v: NodeId,
        end: NodeId,
        sub_end: &mut NodeId,
        depth: usize,
    ) -> bool {
        match phi {
            Formula::True => true,
            Formula::False => false,
            Formula::Not(a) => !self.exists_formula(a, v, end, sub_end, depth),
            Formula::Or(a, b) => {
                self.exists_formula(a, v, end, sub_end, depth)
                    || self.exists_formula(b, v, end, sub_end, depth)
            }
            Formula::And(a, b) => {
                self.exists_formula(a, v, end, sub_end, depth)
                    && self.exists_formula(b, v, end, sub_end, depth)
            }
            Formula::Down1(q) => {
                let se = self.sub_end(v, sub_end);
                let fc = if v + 1 < se { v + 1 } else { NONE };
                self.exists(*q, fc, se, depth + 1)
            }
            Formula::Down2(q) => {
                let se = self.sub_end(v, sub_end);
                let ns = if se < end { se } else { NONE };
                self.exists(*q, ns, end, depth + 1)
            }
        }
    }

    /// `subtree_end(v)`, cached in `slot`.
    #[inline]
    fn sub_end(&self, v: NodeId, slot: &mut NodeId) -> NodeId {
        if *slot == NONE {
            *slot = self.ix.subtree_end(v);
        }
        *slot
    }

    /// Evaluates the chain `w, w·2, w·2·2, …` (ending before `end`) with
    /// recursion into first children (the body of Algorithm 4.1).
    fn eval_chain(&mut self, w: NodeId, r: SetId, end: NodeId) -> ResultSet {
        debug_assert!(w == NONE || end == self.ix.bin_subtree_end(w));
        let ix = self.ix;
        let asta = self.asta;
        // Phase 1: walk the chain left-to-right pushing work items above
        // `base` on the shared stack.
        let base = self.items.len();
        let mut cur = w;
        let mut rcur = r;
        let mut tail = ResultSet::EMPTY;
        while cur != NONE {
            if rcur == SetInterner::EMPTY && self.opts.pruning {
                break;
            }
            let label = ix.label(cur);
            if self.opts.jumping && rcur != SetInterner::EMPTY && self.depth < DEPTH_LIMIT {
                let info = self.m.tda.skip_info(asta, rcur);
                let can_skip = match info.kind {
                    SkipKind::None => false,
                    SkipKind::Both => info.width <= self.opts.jump_width,
                    SkipKind::Left | SkipKind::Right => true,
                };
                if can_skip && !info.jump.contains(label) {
                    match info.kind {
                        SkipKind::Right => {
                            // Inline spine skip along the sibling chain.
                            self.stats.jumps += 1;
                            cur = next_labeled_sibling(ix, cur, end, &info.jump);
                            continue;
                        }
                        SkipKind::Left => {
                            // Spine skip down the first-child chain; the
                            // rest of this chain is ignored by construction
                            // (no ↓2).
                            self.stats.jumps += 1;
                            let t = ix.jump_leftmost(cur, &info.jump);
                            if t != NONE {
                                tail = self.recurse(t, rcur, ix.bin_subtree_end(t));
                            }
                            break;
                        }
                        SkipKind::Both => {
                            // Frontier jump over cur's whole binary subtree
                            // (which includes the rest of this chain).
                            self.stats.jumps += 1;
                            cur = self.frontier(cur, rcur, end, base, &mut tail);
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            let t = if self.opts.memo {
                self.m.tda.trans(asta, rcur, label, &mut self.stats)
            } else {
                let t = self.m.tda.compute_trans(asta, rcur, label);
                self.fresh.push(t);
                FRESH | (self.fresh.len() - 1) as u32
            };
            self.mark_visited(cur);
            let sub_end = ix.subtree_end(cur);
            self.items.push(Item {
                node: cur,
                label,
                sub_end,
                rset: rcur,
                trans: t,
                extra: ResultSet::EMPTY,
            });
            rcur = self.trans_eval(t).r2;
            cur = if sub_end < end { sub_end } else { NONE };
        }
        // Phase 2: fold right-to-left, popping this chain's items.
        let mut g2 = tail;
        while self.items.len() > base {
            let it = self.items.pop().expect("above base");
            if !it.extra.is_empty() {
                g2 = self.res.union(g2, it.extra);
            }
            let (active, r1) = if self.opts.info_prop {
                let dom2 = self.dom_key(g2);
                let i = self.residual(it.rset, it.label, it.trans, dom2);
                (Active::Residual(i), self.m.residuals[i as usize].r1)
            } else {
                (Active::Trans(it.trans), self.trans_eval(it.trans).r1)
            };
            let fc = if it.node + 1 < it.sub_end {
                it.node + 1
            } else {
                NONE
            };
            let g1 = self.recurse(fc, r1, it.sub_end);
            g2 = self.apply_trans(it.trans, active, g1, g2, it.node);
        }
        g2
    }

    /// The `dt`/`ft` frontier loop over `cur`'s binary subtree (which ends
    /// before `end`) under the `Both`-skipping set `rset`. Members' results
    /// join the fold through the chain's last item above `base` (or
    /// `tail`). Returns the frontier member that is a sibling on this very
    /// chain, which the caller continues inline (keeps recursion flat on
    /// long alternating chains), or [`NONE`].
    fn frontier(
        &mut self,
        cur: NodeId,
        rset: SetId,
        end: NodeId,
        base: usize,
        tail: &mut ResultSet,
    ) -> NodeId {
        let ix = self.ix;
        // Every member lies inside the chain's parent, so the siblings of
        // `cur` are exactly the members at its depth.
        let depth = ix.depth(cur);
        let jump = &self.m.tda.skip_at(rset).jump;
        let mut f = probe(ix, &mut self.m.cursors, cur + 1, end, jump);
        let mut acc = ResultSet::EMPTY;
        let mut inline = NONE;
        while f != NONE {
            if ix.depth(f) == depth {
                inline = f;
                break;
            }
            let f_end = ix.bin_subtree_end(f);
            let g = self.recurse(f, rset, f_end);
            acc = self.res.union(acc, g);
            // Existential cut (§4.4): when every state the region tracks is
            // recognition-only (non-carrier) and already accepted, later
            // frontier members can add neither truth nor selected nodes —
            // one witness suffices.
            if self.settled(rset, acc) {
                break;
            }
            self.stats.jumps += 1;
            let jump = &self.m.tda.skip_at(rset).jump;
            f = probe(ix, &mut self.m.cursors, f_end, end, jump);
        }
        if !acc.is_empty() {
            // Deep members' states propagate up through the skipped loops
            // into the ↓2 view of the last collected item (or of the whole
            // entry).
            if self.items.len() > base {
                let last = self.items.len() - 1;
                let extra = self.res.union(self.items[last].extra, acc);
                self.items[last].extra = extra;
            } else {
                *tail = self.res.union(*tail, acc);
            }
        }
        inline
    }

    /// True if `set` is recognition-only and every member is in `g`.
    fn settled(&mut self, set: SetId, g: ResultSet) -> bool {
        let meta = self.set_meta(set);
        if !meta.existential {
            return false;
        }
        if !self.res.is_wide() {
            return meta.mask & !g.mask() == 0;
        }
        let states = self.m.tda.sets.get(set);
        states.iter().all(|&q| self.res.contains(g, q))
    }

    /// The determinized transition a chain item refers to: memoized in the
    /// [`Tda`], or computed for this run only (tagged [`FRESH`]).
    #[inline]
    fn trans_eval(&self, t: u32) -> &TransEval {
        if t & FRESH != 0 {
            &self.fresh[(t & !FRESH) as usize]
        } else {
            self.m.tda.trans_at(t)
        }
    }

    #[inline]
    fn active(&self, a: Active) -> &[u32] {
        match a {
            Active::Trans(t) => &self.trans_eval(t).active,
            Active::Residual(i) => &self.m.residuals[i as usize].active,
        }
    }

    /// Counts distinct visited nodes.
    #[inline]
    fn mark_visited(&mut self, v: NodeId) {
        debug_assert!(v != NONE);
        if self.visited_seen.insert_check(v) {
            self.stats.visited += 1;
        }
    }

    fn recurse(&mut self, w: NodeId, r: SetId, end: NodeId) -> ResultSet {
        if w == NONE {
            return ResultSet::EMPTY;
        }
        self.depth += 1;
        let g = self.eval_entry(w, r, end);
        self.depth -= 1;
        g
    }

    /// The memo key of `g`'s domain: the mask itself for narrow automata,
    /// the interned domain (allocating only when new) for wide ones.
    #[inline]
    fn dom_key(&mut self, g: ResultSet) -> DomKey {
        if !self.res.is_wide() {
            return g.mask();
        }
        self.dom_buf.clear();
        self.dom_buf.extend(self.res.domain(g));
        self.m.tda.sets.intern_slice(&self.dom_buf) as DomKey
    }

    /// The states of a domain key (memo misses only).
    fn key_states(&self, key: DomKey) -> Vec<StateId> {
        if self.res.is_wide() {
            self.m.tda.sets.get(key as SetId).to_vec()
        } else {
            (0..64).filter(|q| (key >> q) & 1 == 1).collect()
        }
    }

    /// Information propagation: given Γ₂'s domain, drop transitions that are
    /// already false and prune non-carrier `↓1` atoms of transitions that
    /// are already true (§4.4, mirrored — see module docs). Returns an
    /// index into the residual arena.
    fn residual(&mut self, set: SetId, label: LabelId, trans: u32, dom2: DomKey) -> u32 {
        // The memo hangs off the memoized transition; a non-memoizing run
        // looks that up without counting it.
        let key = if trans & FRESH == 0 {
            trans
        } else {
            let mut uncounted = EvalStats::default();
            self.m.tda.trans(self.asta, set, label, &mut uncounted)
        };
        if let Some(&(_, i)) = self.m.outcomes(key).residuals.iter().find(|e| e.0 == dom2) {
            self.stats.memo_hits += 1;
            return i;
        }
        let dom2_states = self.key_states(dom2);
        let mut active = Vec::new();
        let mut r1: Vec<StateId> = Vec::new();
        for &ti in &self.trans_eval(trans).active {
            let tr = &self.asta.delta[ti as usize];
            match tr.phi.val3_given2(&dom2_states) {
                Some(false) => continue, // can never fire here
                Some(true) => {
                    active.push(ti);
                    // Truth settled: only carrier lists still matter.
                    let mut d1 = Vec::new();
                    let mut d2 = Vec::new();
                    tr.phi.collect_down(&mut d1, &mut d2);
                    r1.extend(d1.into_iter().filter(|&q| self.m.carrier.contains(q)));
                }
                None => {
                    active.push(ti);
                    let mut d1 = Vec::new();
                    let mut d2 = Vec::new();
                    tr.phi.collect_down(&mut d1, &mut d2);
                    r1.extend(d1);
                }
            }
        }
        let r1 = self.m.tda.sets.intern(r1);
        let i = self.m.residuals.len() as u32;
        self.m.residuals.push(Residual {
            active: active.into(),
            r1,
        });
        self.m.outcomes(key).residuals.push((dom2, i));
        self.stats.memo_misses += 1;
        i
    }

    /// `eval_trans` (Def. C.3): evaluate the active transitions under
    /// (Γ₁, Γ₂) and assemble the node's result set. `trans` is the node's
    /// transition reference (a memo index when memoizing).
    fn apply_trans(
        &mut self,
        trans: u32,
        active: Active,
        g1: ResultSet,
        g2: ResultSet,
        node: NodeId,
    ) -> ResultSet {
        if self.active(active).is_empty() {
            return ResultSet::EMPTY;
        }
        let asta = self.asta;
        if !self.opts.memo {
            let mark = self.res.mark();
            for k in 0..self.active(active).len() {
                let t = &asta.delta[self.active(active)[k] as usize];
                if !t.filter_admits(&asta.filters, node) {
                    continue;
                }
                let (b, list) = t.phi.eval(g1, g2, &mut self.res);
                if b {
                    let list = if t.selecting {
                        let leaf = self.res.leaf(node);
                        self.res.concat(leaf, list)
                    } else {
                        list
                    };
                    self.res.accept(t.q, list);
                }
            }
            return self.res.finish(mark);
        }
        // Memoized: look up (or build) the recipe keyed by the domains.
        let dom1 = self.dom_key(g1);
        let dom2 = self.dom_key(g2);
        let cached = self
            .m
            .outcomes(trans)
            .recipes
            .iter()
            .find(|e| e.0 == dom1 && e.1 == dom2);
        let ri = match cached {
            Some(&(_, _, i)) => {
                self.stats.memo_hits += 1;
                i
            }
            None => self.build_recipe(trans, active, dom1, dom2),
        };
        let recipe = &self.m.recipes[ri as usize];
        let res = &mut self.res;
        let mark = res.mark();
        for row in recipe.rows.iter() {
            if let Some(f) = row.filter {
                if asta.filters[f as usize].binary_search(&node).is_err() {
                    continue;
                }
            }
            let mut list = if row.selecting {
                res.leaf(node)
            } else {
                NodeList::EMPTY
            };
            for &(side, q) in row.srcs.iter() {
                let g = if side == 1 { g1 } else { g2 };
                if let Some(l) = res.get(g, q) {
                    list = res.concat(list, l);
                }
            }
            res.accept(row.q, list);
        }
        res.finish(mark)
    }

    /// Memo miss of [`Self::apply_trans`]: records which states fire under
    /// the two domains and which child lists they concatenate.
    fn build_recipe(&mut self, trans: u32, active: Active, dom1: DomKey, dom2: DomKey) -> u32 {
        let d1 = self.key_states(dom1);
        let d2 = self.key_states(dom2);
        let mut rows = Vec::new();
        for &ti in self.active(active) {
            let t = &self.asta.delta[ti as usize];
            let mut srcs = Vec::new();
            if t.phi.contributing_atoms(&d1, &d2, &mut srcs) {
                rows.push(RecipeRow {
                    q: t.q,
                    selecting: t.selecting,
                    filter: t.filter,
                    srcs: srcs.into(),
                });
            }
        }
        let i = self.m.recipes.len() as u32;
        self.m.recipes.push(Recipe { rows: rows.into() });
        self.m.outcomes(trans).recipes.push((dom1, dom2, i));
        self.stats.memo_misses += 1;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_path;
    use xwq_xml::parse_seeded;
    use xwq_xpath::parse_xpath;

    fn run_mode(
        query: &str,
        xml: &str,
        opts_of: fn(usize) -> EvalOptions,
        wide: bool,
    ) -> (Vec<NodeId>, EvalStats) {
        let doc = parse_seeded(xml, &["a", "b", "c", "d"]).unwrap();
        let ix = TreeIndex::build(&doc);
        let asta = compile_path(&parse_xpath(query).unwrap(), ix.alphabet()).unwrap();
        let mut ev = Evaluator::new(&asta, &ix, opts_of(ix.alphabet().len()));
        ev.force_wide = wide;
        let out = ev.run();
        (out, ev.stats)
    }

    fn run(query: &str, xml: &str, opts_of: fn(usize) -> EvalOptions) -> (Vec<NodeId>, EvalStats) {
        run_mode(query, xml, opts_of, false)
    }

    const STRATS: [fn(usize) -> EvalOptions; 5] = [
        |_| EvalOptions::naive(),
        |_| EvalOptions::pruning(),
        EvalOptions::jumping,
        |_| EvalOptions::memoized(),
        EvalOptions::optimized,
    ];

    /// Every strategy selects `expected`, with result-set domains kept as
    /// masks and as entry slices, and with identical counters either way.
    fn all_agree(query: &str, xml: &str, expected: &[NodeId]) {
        for (i, s) in STRATS.iter().enumerate() {
            let (out, stats) = run_mode(query, xml, *s, false);
            assert_eq!(out, expected, "strategy #{i} on {query} over {xml}");
            let (out_w, stats_w) = run_mode(query, xml, *s, true);
            assert_eq!(out_w, expected, "wide strategy #{i} on {query} over {xml}");
            assert_eq!(stats, stats_w, "wide strategy #{i} on {query} over {xml}");
        }
    }

    #[test]
    fn descendant_chain() {
        // <a>(0) <b>(1) <b/>(2) </b> <c>(3) <b/>(4) </c> </a>
        all_agree("//a//b", "<a><b><b/></b><c><b/></c></a>", &[1, 2, 4]);
        all_agree("//b//b", "<a><b><b/></b><c><b/></c></a>", &[2]);
        all_agree("//c//b", "<a><b><b/></b><c><b/></c></a>", &[4]);
    }

    #[test]
    fn root_matching() {
        all_agree("//a", "<a><a/></a>", &[0, 1]);
        all_agree("/a", "<a><a/></a>", &[0]);
        all_agree("/b", "<a><a/></a>", &[]);
        all_agree("/a/a", "<a><a/></a>", &[1]);
    }

    #[test]
    fn child_steps() {
        // <a>(0) <b/>(1) <c>(2) <b/>(3) </c> <b/>(4) </a>
        all_agree("/a/b", "<a><b/><c><b/></c><b/></a>", &[1, 4]);
        all_agree("/a/c/b", "<a><b/><c><b/></c><b/></a>", &[3]);
        all_agree("/a/b/c", "<a><b/><c><b/></c><b/></a>", &[]);
    }

    #[test]
    fn predicates() {
        // <a>(0) <b>(1) <c/>(2) </b> <b/>(3) </a>
        all_agree("//b[c]", "<a><b><c/></b><b/></a>", &[1]);
        all_agree("//b[not(c)]", "<a><b><c/></b><b/></a>", &[3]);
        all_agree("//a[b and c]", "<a><b><c/></b><b/></a>", &[]);
        all_agree("//a[b or c]", "<a><b><c/></b><b/></a>", &[0]);
        all_agree("//b[.//c]", "<a><b><d><c/></d></b><b/></a>", &[1]);
    }

    #[test]
    fn example_4_1_full() {
        // //a//b[c]: b must be a descendant of an a and have a c child.
        let xml = "<a><b><c/></b><b><d/></b><d><b><c/></b></d></a>";
        // nodes: a0 b1 c2 b3 d4 d5 b6 c7
        all_agree("//a//b[c]", xml, &[1, 6]);
    }

    #[test]
    fn following_sibling() {
        // <a>(0) <b/>(1) <c/>(2) <b/>(3) </a>
        all_agree("/a/c/following-sibling::b", "<a><b/><c/><b/></a>", &[3]);
        all_agree("/a/b/following-sibling::c", "<a><b/><c/><b/></a>", &[2]);
    }

    #[test]
    fn wildcard_and_nested() {
        // <a>(0) <b>(1) <d/>(2) </b> <c>(3) <d/>(4) </c> </a>
        all_agree("/a/*/d", "<a><b><d/></b><c><d/></c></a>", &[2, 4]);
        all_agree("//*[d]", "<a><b><d/></b><c><d/></c></a>", &[1, 3]);
    }

    #[test]
    fn empty_results_and_acceptance() {
        all_agree("//d", "<a><b/></a>", &[]);
        all_agree("//a[b]//c", "<a><d/></a>", &[]);
    }

    #[test]
    fn jumping_visits_fewer_nodes() {
        // A wide flat document: jumping should skip the c-subtrees entirely.
        let mut xml = String::from("<a>");
        for _ in 0..50 {
            xml.push_str("<c><c/><c/></c>");
        }
        xml.push_str("<b/></a>");
        let (out_p, stats_p) = run("//a//b", &xml, |_| EvalOptions::pruning());
        let (out_j, stats_j) = run("//a//b", &xml, EvalOptions::jumping);
        assert_eq!(out_p, out_j);
        assert!(
            stats_j.visited * 10 < stats_p.visited,
            "jumping visited {} vs pruning {}",
            stats_j.visited,
            stats_p.visited
        );
    }

    #[test]
    fn visits_only_relevant_nodes() {
        // The §1 staircase example: for //a//b only the top-most a's (1, 9)
        // and their b descendants (3, 5, 10) are relevant (Thm. 3.1). The
        // nested a4 and the b's outside any a (6, 8) are never touched.
        let xml = "<c><a><c><b/></c><a><b/></a></a><b/><c><b/></c><a><b/></a></c>";
        // ids: c0 a1 c2 b3 a4 b5 b6 c7 b8 a9 b10
        for (name, opts, visited) in [
            ("naive", STRATS[0], 11),
            ("pruning", STRATS[1], 11),
            ("jumping", STRATS[2], 5),
            ("optimized", STRATS[4], 5),
        ] {
            let (out, stats) = run("//a//b", xml, opts);
            assert_eq!(out, [3, 5, 10], "{name}");
            assert_eq!(stats.visited, visited, "{name}");
        }
        // A DTD-style recognizer of the root: only the root is relevant.
        for (name, opts) in [
            ("pruning", STRATS[1]),
            ("jumping", STRATS[2]),
            ("memoized", STRATS[3]),
            ("optimized", STRATS[4]),
        ] {
            let (out, stats) = run("/*", xml, opts);
            assert_eq!(out, [0], "{name}");
            assert_eq!(stats.visited, 1, "{name}");
        }
    }

    #[test]
    fn memo_amortizes() {
        let mut xml = String::from("<a>");
        for _ in 0..100 {
            xml.push_str("<b><c/></b>");
        }
        xml.push_str("</a>");
        let (_, stats) = run("//a//b[c]", &xml, |_| EvalOptions::memoized());
        assert!(stats.memo_hits > 100, "hits {}", stats.memo_hits);
        assert!(stats.memo_entries < 40, "entries {}", stats.memo_entries);
    }

    #[test]
    fn automata_wider_than_a_mask_agree() {
        // 70 chained `//a` steps compile to more than 64 states, so result
        // domains live in entry slices; on a 75-deep chain of `a`s the
        // query selects the nodes at depth ≥ 69.
        let query = "//a".repeat(70);
        let xml = format!("{}{}", "<a>".repeat(75), "</a>".repeat(75));
        let doc = parse_seeded(&xml, &["a", "b", "c", "d"]).unwrap();
        let ix = TreeIndex::build(&doc);
        let asta = compile_path(&parse_xpath(&query).unwrap(), ix.alphabet()).unwrap();
        assert!(asta.n_states > crate::results::NARROW_STATES);
        all_agree(&query, &xml, &(69..75).collect::<Vec<_>>());
    }

    #[test]
    fn galloping_probes_match_the_index() {
        let xml = "<a><b><c/><d><b/></d></b><c><b/><d/></c><b><c/></b><d/></a>";
        let doc = parse_seeded(xml, &["a", "b", "c", "d"]).unwrap();
        let ix = TreeIndex::build(&doc);
        let n = ix.len() as NodeId;
        let sigma = ix.alphabet().len();
        let sets: Vec<LabelSet> = (1u32..1 << sigma.min(4))
            .map(|bits| {
                let mut s = LabelSet::empty(sigma);
                for l in 0..sigma.min(4) as LabelId {
                    if bits >> l & 1 == 1 {
                        s.insert(l);
                    }
                }
                s
            })
            .collect();
        let mut cursors = vec![0u32; sigma];
        let mut hint = 0u32;
        for lo in 0..=n + 1 {
            for hi in 0..=n + 1 {
                for jump in &sets {
                    // Scramble the hints so every galloping direction runs.
                    hint = hint.wrapping_mul(2_654_435_761).wrapping_add(lo ^ hi);
                    cursors.iter_mut().for_each(|c| *c = hint % (n + 3));
                    assert_eq!(
                        probe(&ix, &mut cursors, lo, hi, jump),
                        ix.first_labeled_in_range(lo, hi, jump),
                        "[{lo}, {hi}) over {jump:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn naive_visits_everything() {
        let xml = "<a><b><c/></b><d/></a>";
        let (_, stats) = run("/a", xml, |_| EvalOptions::naive());
        assert_eq!(stats.visited, 4);
        let (_, stats) = run("/a", xml, |_| EvalOptions::pruning());
        assert!(stats.visited < 4);
    }
}
