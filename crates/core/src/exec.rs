//! The unified plan executor.
//!
//! [`run_spine_traced`] executes a [`SpinePlan`] set-at-a-time: LabelJump seeds a
//! sorted candidate list, pivot predicates and the memoized UpwardMatch
//! filter it, then each downstream step transforms the whole list by its
//! planned method (child scan, range scan / Intersect merge, or subtree
//! scan). Compared to the old candidate-at-a-time hybrid walker this fixes
//! its two over-visit sources:
//!
//! * upward-context checks and walked predicates are memoized per
//!   `(step|predicate, node)`, so candidates sharing ancestors never
//!   re-walk them (q8: ancestors of every `parlist` under one `listitem`);
//! * existential predicates that are label chains or exact-text tests run
//!   as **index probes** — label-list range + depth checks that visit no
//!   nodes at all and are counted as jumps, exactly like the automaton's
//!   `dt`/`ft` probes (q8's `.//keyword`/`.//emph` subtree scans, q9's
//!   `mailbox/mail/date` child walks).
//!
//! Visit accounting matches the automaton evaluators: `visited` counts
//! distinct nodes whose label/content/children the executor examined
//! (dense bitset, pooled in [`EvalScratch`]); pure index operations
//! (binary searches, depth compares on list entries) count as `jumps`.

use crate::bits::StateBits;
use crate::eval::{EvalScratch, EvalStats};
use crate::plan::{Descend, PredPlan, Probe, SpinePlan, SpineTest};
use crate::planner::star_kind;
use std::time::Instant;
use xwq_index::{FxHashMap, NodeId, TreeIndex, NONE};
use xwq_obs::TraceNode;
use xwq_xpath::{Axis, NodeTest, Pred, Step};

/// Reusable spine-executor state, pooled inside [`EvalScratch`]: the
/// distinct-visit bitset, the upward/predicate memo tables, and the
/// candidate buffers all keep their capacity across runs.
#[derive(Debug, Default)]
pub(crate) struct SpineScratch {
    pub(crate) seen: StateBits,
    /// `(prefix length, node) → does the spine prefix match above node`.
    pub(crate) up_memo: FxHashMap<(u32, NodeId), bool>,
    /// `(walk-predicate id, node) → does the predicate hold`.
    pub(crate) pred_memo: FxHashMap<(u32, NodeId), bool>,
    cur: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Candidate-set register file for the bytecode VM; the vectors keep
    /// their capacity across runs.
    pub(crate) regs: Vec<Vec<NodeId>>,
}

impl SpineScratch {
    pub(crate) fn reset(&mut self) {
        self.seen.clear();
        self.up_memo.clear();
        self.pred_memo.clear();
        self.cur.clear();
        self.next.clear();
        for r in &mut self.regs {
            r.clear();
        }
    }
}

/// Executes a spine plan; returns selected nodes (document order,
/// duplicate-free) and the run's statistics. When `trace` is given, one
/// child span per pipeline phase (LabelJump seed, each descend step) is
/// appended to it, carrying the phase's stats deltas and candidate counts
/// next to the planner's estimate.
pub(crate) fn run_spine_traced(
    plan: &SpinePlan,
    ix: &TreeIndex,
    scratch: &mut EvalScratch,
    trace: Option<&mut TraceNode>,
) -> (Vec<NodeId>, EvalStats) {
    let mut spine = std::mem::take(&mut scratch.spine);
    spine.reset();
    let mut ex = SpineExec {
        ix,
        plan,
        stats: EvalStats::default(),
        s: &mut spine,
        use_memo: ix.label_count(plan.pivot_label) >= 4,
        trace,
    };
    let out = ex.run();
    let stats = ex.stats;
    scratch.spine = spine;
    (out, stats)
}

struct SpineExec<'a> {
    ix: &'a TreeIndex,
    plan: &'a SpinePlan,
    stats: EvalStats,
    s: &'a mut SpineScratch,
    /// Memo tables only pay off when candidates can share ancestors or
    /// predicate work; for a handful of candidates the hash traffic
    /// costs more than the recomputation it saves.
    use_memo: bool,
    /// When tracing, phase spans are appended here.
    trace: Option<&'a mut TraceNode>,
}

impl<'a> SpineExec<'a> {
    fn run(&mut self) -> Vec<NodeId> {
        let plan = self.plan;
        let ix = self.ix;
        // LabelJump: seed candidates, filter by pivot predicates and the
        // upward context.
        let seed_start = Instant::now();
        let stats_before = self.stats;
        let mut cur = std::mem::take(&mut self.s.cur);
        for &v in ix.label_list(plan.pivot_label) {
            self.mark_visited(v);
            if !self.preds_hold(plan.pivot, v) {
                continue;
            }
            if !self.match_up(plan.pivot as u32, v) {
                continue;
            }
            cur.push(v);
        }
        self.trace_seed(seed_start, stats_before, cur.len());
        // Downstream steps transform the candidate list one at a time.
        let mut next = std::mem::take(&mut self.s.next);
        for si in plan.pivot + 1..plan.steps.len() {
            let step_start = Instant::now();
            let stats_before = self.stats;
            let in_count = cur.len();
            next.clear();
            self.descend_step(si, &cur, &mut next);
            next.sort_unstable();
            next.dedup();
            std::mem::swap(&mut cur, &mut next);
            self.trace_descend(si, step_start, stats_before, in_count, cur.len());
            if cur.is_empty() {
                break;
            }
        }
        self.stats.selected = cur.len() as u64;
        let out = cur.clone();
        self.s.cur = cur;
        self.s.next = next;
        out
    }

    /// Span for the LabelJump seed phase (which interleaves pivot
    /// predicates and the UpwardMatch prefix verification).
    fn trace_seed(&mut self, start: Instant, before: EvalStats, matched: usize) {
        let plan = self.plan;
        let ix = self.ix;
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        let mut detail = ix.alphabet().name(plan.pivot_label).to_string();
        if plan.pivot > 0 {
            detail.push_str(" (+UpwardMatch prefix)");
        }
        let node = t.child(TraceNode::new("LabelJump", detail));
        node.ns = start.elapsed().as_nanos() as u64;
        node.attr("candidates", ix.label_count(plan.pivot_label));
        node.attr("matched", matched);
        node.attr("est_visits", format!("{:.0}", plan.seed_est.visits));
        node.attr("visited", self.stats.visited - before.visited);
        node.attr("jumps", self.stats.jumps - before.jumps);
    }

    /// Span for one descend step, named like the `explain` operator rows.
    fn trace_descend(
        &mut self,
        si: usize,
        start: Instant,
        before: EvalStats,
        in_count: usize,
        out_count: usize,
    ) {
        let step = &self.plan.steps[si];
        let al = self.ix.alphabet();
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        let (op, how): (&'static str, &str) = match (step.descend, step.axis) {
            (Descend::RangeScan, Axis::Descendant) => ("Intersect", "merge label list"),
            (Descend::RangeScan, _) => ("SpineDescend", "range scan + depth filter"),
            (Descend::SubtreeScan, _) => ("SpineDescend", "subtree scan"),
            _ => ("SpineDescend", "child scan"),
        };
        let test = match step.test {
            SpineTest::Label(l) => al.name(l).to_string(),
            SpineTest::Star => "*".to_string(),
            SpineTest::Any => "node()".to_string(),
        };
        let node = t.child(TraceNode::new(
            op,
            format!("{}::{} via {how}", step.axis.name(), test),
        ));
        node.ns = start.elapsed().as_nanos() as u64;
        node.attr("in", in_count);
        node.attr("out", out_count);
        node.attr("est_visits", format!("{:.0}", step.est.visits));
        node.attr("visited", self.stats.visited - before.visited);
        node.attr("jumps", self.stats.jumps - before.jumps);
    }

    /// Counts `v` as visited once.
    #[inline]
    fn mark_visited(&mut self, v: NodeId) {
        if self.s.seen.insert_check(v) {
            self.stats.visited += 1;
        }
    }

    /// Enumerates step `si`'s matches below `cand` into `out`.
    fn descend_step(&mut self, si: usize, cand: &[NodeId], out: &mut Vec<NodeId>) {
        let step = &self.plan.steps[si];
        match step.descend {
            Descend::ChildScan => {
                for &c in cand {
                    let mut u = self.ix.first_child(c);
                    while u != NONE {
                        self.mark_visited(u);
                        if self.test_matches_spine(si, u) && self.preds_hold(si, u) {
                            out.push(u);
                        }
                        u = self.ix.next_sibling(u);
                    }
                }
            }
            Descend::RangeScan => {
                let SpineTest::Label(l) = step.test else {
                    unreachable!("range scan requires a label");
                };
                if step.axis == Axis::Descendant {
                    // Intersect: merge the label list with the candidates'
                    // subtree ranges. Preorder ranges are laminar, so a
                    // candidate inside the running range is covered by the
                    // outer scan and skipped; the list cursor only moves
                    // forward.
                    let list = self.ix.label_list(l);
                    let mut li = 0usize;
                    let mut max_end: NodeId = 0;
                    for &c in cand {
                        if c < max_end {
                            continue; // nested in a scanned candidate
                        }
                        let end = self.ix.subtree_end(c);
                        max_end = end;
                        li += list[li..].partition_point(|&u| u <= c);
                        self.stats.jumps += 1;
                        while li < list.len() && list[li] < end {
                            let u = list[li];
                            li += 1;
                            self.mark_visited(u);
                            if self.preds_hold(si, u) {
                                out.push(u);
                            }
                        }
                    }
                } else {
                    // Child/attribute: per-candidate range, entries must
                    // sit exactly one level below (subtree containment +
                    // depth+1 ⟺ parent == candidate).
                    for &c in cand {
                        let list = self.ix.label_list(l);
                        let end = self.ix.subtree_end(c);
                        let want = self.ix.depth(c) + 1;
                        let from = list.partition_point(|&u| u <= c);
                        self.stats.jumps += 1;
                        for &u in &list[from..] {
                            if u >= end {
                                break;
                            }
                            self.mark_visited(u);
                            if self.ix.depth(u) == want && self.preds_hold(si, u) {
                                out.push(u);
                            }
                        }
                    }
                }
            }
            Descend::SubtreeScan => {
                let mut max_end: NodeId = 0;
                for &c in cand {
                    if c < max_end {
                        continue; // laminar: covered by the outer scan
                    }
                    let end = self.ix.subtree_end(c);
                    max_end = end;
                    for u in c + 1..end {
                        self.mark_visited(u);
                        if self.test_matches_spine(si, u) && self.preds_hold(si, u) {
                            out.push(u);
                        }
                    }
                }
            }
            Descend::Upward => unreachable!("upward steps never descend"),
        }
    }

    /// Does node `u` satisfy step `si`'s node test?
    fn test_matches_spine(&self, si: usize, u: NodeId) -> bool {
        let step = &self.plan.steps[si];
        match step.test {
            SpineTest::Label(l) => self.ix.label(u) == l,
            SpineTest::Star => self.ix.kind(u) == star_kind(step.axis),
            SpineTest::Any => true,
        }
    }

    /// Do all of step `si`'s predicates hold at `u`?
    fn preds_hold(&mut self, si: usize, u: NodeId) -> bool {
        // Indexing instead of iterating: the borrow checker must not hold
        // `self.plan` across the `&mut self` predicate calls.
        let n = self.plan.steps[si].preds.len();
        (0..n).all(|pi| {
            let pred = &self.plan.steps[si].preds[pi];
            match pred {
                PredPlan::Probe(p) => self.probe_holds(p, u),
                PredPlan::Walk { id, pred } => {
                    let key = (*id, u);
                    if self.use_memo {
                        if let Some(&b) = self.s.pred_memo.get(&key) {
                            return b;
                        }
                    }
                    let b = self.walk_ctx().walk_pred(pred, u);
                    if self.use_memo {
                        self.s.pred_memo.insert(key, b);
                    }
                    b
                }
            }
        })
    }

    /// UpwardMatch: does the spine prefix `steps[..k]` match above `v`,
    /// where `v` was matched by `steps[k]`? Memoized on `(k, v)` — the
    /// answer is a pure function of the pair, and candidates share
    /// ancestors heavily.
    fn match_up(&mut self, k: u32, v: NodeId) -> bool {
        let v_axis = self.plan.steps[k as usize].axis;
        if k == 0 {
            // Anchored at the virtual document node.
            return match v_axis {
                Axis::Child | Axis::Attribute => v == self.ix.root(),
                Axis::Descendant => true,
                _ => unreachable!("spine axes only"),
            };
        }
        if self.use_memo {
            if let Some(&b) = self.s.up_memo.get(&(k, v)) {
                return b;
            }
        }
        let prev = (k - 1) as usize;
        let b = match v_axis {
            Axis::Child | Axis::Attribute => {
                let p = self.ix.parent(v);
                p != NONE && {
                    self.mark_visited(p);
                    self.test_matches_spine(prev, p)
                        && self.preds_hold(prev, p)
                        && self.match_up(k - 1, p)
                }
            }
            Axis::Descendant => {
                let min_depth = self.plan.steps[prev].min_depth;
                let mut p = self.ix.parent(v);
                let mut found = false;
                while p != NONE {
                    // Ancestors only get shallower: above the target
                    // label's shallowest occurrence nothing can match.
                    if self.ix.depth(p) < min_depth {
                        break;
                    }
                    self.mark_visited(p);
                    if self.test_matches_spine(prev, p)
                        && self.preds_hold(prev, p)
                        && self.match_up(k - 1, p)
                    {
                        found = true;
                        break;
                    }
                    p = self.ix.parent(p);
                }
                found
            }
            _ => unreachable!("spine axes only"),
        };
        if self.use_memo {
            self.s.up_memo.insert((k, v), b);
        }
        b
    }

    // ------------------------------------------------------------------
    // PredicateProbe: index-only existential checks. A probe performs
    // label-list binary searches and depth compares — the same class of
    // operation as the automaton's dt/ft jumps — so it ticks `jumps`,
    // never `visited`.
    // ------------------------------------------------------------------

    fn probe_holds(&mut self, p: &Probe, c: NodeId) -> bool {
        match p {
            Probe::And(a, b) => self.probe_holds(a, c) && self.probe_holds(b, c),
            Probe::Or(a, b) => self.probe_holds(a, c) || self.probe_holds(b, c),
            Probe::Not(a) => !self.probe_holds(a, c),
            Probe::Const(b) => *b,
            Probe::TextEq(None) => false,
            Probe::TextEq(Some(id)) => self.walk_ctx().probe_text_eq(*id, c),
            // The compiler's self-content special case: a direct text
            // predicate on an attribute-axis or text() step filters the
            // node's own content.
            Probe::SelfTextEq(id) => {
                self.ix.text_id_of(c).is_some() && self.ix.text_id_of(c) == *id
            }
            Probe::SelfTextContains(lit) => {
                self.ix.text_of(c).is_some_and(|t| t.contains(lit.as_str()))
            }
            Probe::Chain(steps) => self.walk_ctx().chain_exists(steps, c),
        }
    }

    /// The shared walk/probe context, borrowing this executor's counters
    /// and visited set. The bytecode VM builds the same context over its
    /// own state, so both execution paths run literally the same
    /// predicate-walk code.
    fn walk_ctx(&mut self) -> WalkCtx<'_> {
        WalkCtx {
            ix: self.ix,
            stats: &mut self.stats,
            seen: &mut self.s.seen,
        }
    }
}

/// The general tree-walking predicate evaluator plus the index-probe
/// helpers whose semantics must match it exactly. Shared between the tree
/// executor (the differential-testing oracle) and the bytecode VM: both
/// borrow their counters and visited set into one of these, so the two
/// paths cannot drift apart.
pub(crate) struct WalkCtx<'a> {
    pub(crate) ix: &'a TreeIndex,
    pub(crate) stats: &'a mut EvalStats,
    pub(crate) seen: &'a mut StateBits,
}

impl WalkCtx<'_> {
    /// Counts `v` as visited once.
    #[inline]
    fn mark_visited(&mut self, v: NodeId) {
        if self.seen.insert_check(v) {
            self.stats.visited += 1;
        }
    }

    /// `Probe::TextEq` semantics: a **text** child of `c` carrying the
    /// interned content `id`. Attribute children also have content ids
    /// but `[text()=…]` never matches them, and a self-content context (a
    /// text or attribute node — no children) simply has no match.
    pub(crate) fn probe_text_eq(&mut self, id: u32, c: NodeId) -> bool {
        let list = self.ix.text_list(id);
        let end = self.ix.subtree_end(c);
        let want = self.ix.depth(c) + 1;
        let from = list.partition_point(|&u| u <= c);
        self.stats.jumps += 1;
        list[from..]
            .iter()
            .take_while(|&&u| u < end)
            .any(|&u| self.ix.depth(u) == want && self.ix.kind(u) == xwq_xml::LabelKind::Text)
    }

    /// `Probe::Chain` semantics: each step searched in the context's
    /// subtree range, child-like steps additionally depth-constrained.
    pub(crate) fn chain_exists(&mut self, steps: &[crate::plan::ProbeStep], c: NodeId) -> bool {
        let ix = self.ix;
        let st = steps[0];
        let rest = &steps[1..];
        let list = ix.label_list(st.label);
        let end = ix.subtree_end(c);
        let from = list.partition_point(|&u| u <= c);
        self.stats.jumps += 1;
        let want = ix.depth(c) + 1;
        for &u in &list[from..] {
            if u >= end {
                return false;
            }
            if st.child_like && ix.depth(u) != want {
                continue;
            }
            if rest.is_empty() || self.chain_exists(rest, u) {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // PredicateWalk: the general tree-walking evaluator (existential
    // semantics over the full predicate fragment). Top-level results are
    // memoized per (predicate, node) by the caller.
    // ------------------------------------------------------------------

    pub(crate) fn walk_pred(&mut self, p: &Pred, u: NodeId) -> bool {
        match p {
            Pred::And(a, b) => self.walk_pred(a, u) && self.walk_pred(b, u),
            Pred::Or(a, b) => self.walk_pred(a, u) || self.walk_pred(b, u),
            Pred::Not(a) => !self.walk_pred(a, u),
            Pred::TextEq(lit) => self.text_child(u, |t| t == lit),
            Pred::TextContains(lit) => self.text_child(u, |t| t.contains(lit.as_str())),
            Pred::Path(path) => !path.absolute && self.path_exists(&path.steps, u),
        }
    }

    /// Does a relative path match starting at context `u`?
    fn path_exists(&mut self, steps: &[Step], u: NodeId) -> bool {
        let step = match steps.first() {
            None => return true,
            Some(s) => s,
        };
        let rest = &steps[1..];
        match step.axis {
            Axis::SelfAxis => {
                self.test_matches_walk(&step.test, u, Axis::SelfAxis)
                    && self.walk_step_preds(step, u)
                    && self.path_exists(rest, u)
            }
            Axis::Child | Axis::Attribute => {
                let mut c = self.ix.first_child(u);
                while c != NONE {
                    self.mark_visited(c);
                    if self.test_matches_walk(&step.test, c, step.axis)
                        && self.walk_step_preds(step, c)
                        && self.path_exists(rest, c)
                    {
                        return true;
                    }
                    c = self.ix.next_sibling(c);
                }
                false
            }
            Axis::Descendant => {
                let end = self.ix.subtree_end(u);
                for d in u + 1..end {
                    self.mark_visited(d);
                    if self.test_matches_walk(&step.test, d, Axis::Descendant)
                        && self.walk_step_preds(step, d)
                        && self.path_exists(rest, d)
                    {
                        return true;
                    }
                }
                false
            }
            Axis::FollowingSibling => {
                let mut s = self.ix.next_sibling(u);
                while s != NONE {
                    self.mark_visited(s);
                    if self.test_matches_walk(&step.test, s, step.axis)
                        && self.walk_step_preds(step, s)
                        && self.path_exists(rest, s)
                    {
                        return true;
                    }
                    s = self.ix.next_sibling(s);
                }
                false
            }
            // Backward axes are rewritten away before evaluation.
            Axis::Parent | Axis::Ancestor => false,
        }
    }

    fn walk_step_preds(&mut self, step: &Step, u: NodeId) -> bool {
        // The compiler's self-content rule applies inside predicate paths
        // too: a *direct* text predicate on an attribute-axis or text()
        // step filters the node's own content.
        let self_content = step.axis == Axis::Attribute || step.test == NodeTest::Text;
        step.preds.iter().all(|p| match p {
            Pred::TextEq(lit) if self_content => self.ix.text_of(u) == Some(lit.as_str()),
            Pred::TextContains(lit) if self_content => {
                self.ix.text_of(u).is_some_and(|t| t.contains(lit.as_str()))
            }
            p => self.walk_pred(p, u),
        })
    }

    /// General text-predicate semantics, matching the compiled automaton's
    /// `text_filter_formula`: the context must have a **text** child whose
    /// content satisfies `f`. Attribute children carry content too but
    /// never match, and self-content contexts (text/attribute nodes — no
    /// children) never match here; the compiler's self-content special
    /// case is a *syntactic* one, handled where direct step predicates are
    /// evaluated ([`Self::walk_step_preds`] and `Probe::SelfTextEq`).
    fn text_child(&mut self, u: NodeId, f: impl Fn(&str) -> bool) -> bool {
        let mut c = self.ix.first_child(u);
        while c != NONE {
            self.mark_visited(c);
            if self.ix.kind(c) == xwq_xml::LabelKind::Text {
                if let Some(t) = self.ix.text_of(c) {
                    if f(t) {
                        return true;
                    }
                }
            }
            c = self.ix.next_sibling(c);
        }
        false
    }

    fn test_matches_walk(&self, test: &NodeTest, u: NodeId, axis: Axis) -> bool {
        let al = self.ix.alphabet();
        let l = self.ix.label(u);
        match test {
            NodeTest::AnyNode => true,
            NodeTest::Text => al.kind(l) == xwq_xml::LabelKind::Text,
            NodeTest::Star => al.kind(l) == star_kind(axis),
            NodeTest::Name(n) => {
                let key = if axis == Axis::Attribute {
                    format!("@{n}")
                } else {
                    n.clone()
                };
                al.lookup(&key) == Some(l)
            }
        }
    }
}
