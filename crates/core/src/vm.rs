//! The bytecode register VM: the one executor of spine plans.
//!
//! Executes a [`SpineProg`] in one dispatch loop over its flat op list:
//! candidate sets live in numbered registers (pooled vectors in
//! [`EvalScratch`]), and each op transforms whole registers at a time —
//! `LabelJump` seeds a register from a label list, `PredFilter` and
//! `UpwardMatch` filter it, `Descend` / `Intersect` enumerate the next
//! step's matches below it. Predicate walks and index probes run through
//! [`WalkCtx`] (`walk.rs`), and visit accounting matches the automaton
//! evaluators. Results are checked against the independent `xwq-baseline`
//! evaluator, and the traversal counters of the fig. 2 suite are pinned by
//! golden tables (`tests/eval_counters.rs`).
//!
//! Enumerate first, filter after: a descend op emits every node at most
//! once before `SortDedup`, and `PredFilter` then checks the candidates in
//! enumeration order. Every per-candidate check is a pure function (memo
//! tables cache pure results), so the evaluated work, the visited set and
//! the jump totals do not depend on the order of the register passes.
//!
//! The ancestor-axis probe: for a descendant-axis upward step whose
//! previous step is a bare label test, `UpwardMatch` asks the index's
//! ancestor-axis probe ([`TreeIndex::label_ancestors`]) instead of walking
//! the parent chain — O(log n) per candidate instead of O(depth), counted
//! as jumps. The chain members it does examine are exactly the
//! test-passing ancestors, so results equal a parent-chain walk's while
//! deep upward contexts stop paying per-level visits.

use crate::bytecode::{BcPred, Op, ProbeNode, SpineProg};
use crate::eval::{EvalScratch, EvalStats};
use crate::plan::{Descend, SpineTest};
use crate::planner::star_kind;
use crate::walk::{SpineScratch, WalkCtx};
use std::time::Instant;
use xwq_index::{NodeId, TreeIndex, NONE};
use xwq_obs::TraceNode;
use xwq_xpath::Axis;

/// The outcome of one VM execution.
pub(crate) struct VmRun {
    /// Selected nodes, document order, duplicate-free.
    pub nodes: Vec<NodeId>,
    /// Traversal statistics (same accounting as the automaton evaluators).
    pub stats: EvalStats,
    /// Wall-clock nanoseconds spent in the dispatch loop.
    pub dispatch_ns: u64,
}

/// Executes a validated spine program. `trace`, when given, receives one
/// child span per materialized op (seed, filters, descends), carrying the
/// op's stats deltas — deterministic without timings.
pub(crate) fn run_program_traced(
    prog: &SpineProg,
    ix: &TreeIndex,
    scratch: &mut EvalScratch,
    mut trace: Option<&mut TraceNode>,
) -> VmRun {
    let mut spine = std::mem::take(&mut scratch.spine);
    spine.reset();
    let mut regs = std::mem::take(&mut spine.regs);
    if regs.len() < prog.regs as usize {
        regs.resize_with(prog.regs as usize, Vec::new);
    }
    let (nodes, stats, dispatch_ns) = dispatch(prog, ix, &mut spine, &mut regs, &mut trace);
    spine.regs = regs;
    scratch.spine = spine;
    VmRun {
        nodes,
        stats,
        dispatch_ns,
    }
}

fn dispatch(
    prog: &SpineProg,
    ix: &TreeIndex,
    spine: &mut SpineScratch,
    regs: &mut [Vec<NodeId>],
    trace: &mut Option<&mut TraceNode>,
) -> (Vec<NodeId>, EvalStats, u64) {
    let mut vm = Vm {
        ix,
        p: prog,
        stats: EvalStats::default(),
        s: spine,
        use_memo: ix.label_count(prog.pivot_label) >= 4,
    };
    let start = Instant::now();
    let mut result = Vec::new();
    for op in &prog.ops {
        let op_start = Instant::now();
        let before = vm.stats;
        match *op {
            Op::LabelJump { dst, label } => {
                let mut r = std::mem::take(&mut regs[dst as usize]);
                r.clear();
                for &v in ix.label_list(label) {
                    vm.mark_visited(v);
                    r.push(v);
                }
                let out = r.len();
                regs[dst as usize] = r;
                if let Some(t) = trace.as_deref_mut() {
                    let node = t.child(TraceNode::new(
                        "LabelJump",
                        format!(
                            "{} ({} candidates)",
                            ix.alphabet().name(label),
                            ix.label_count(label)
                        ),
                    ));
                    node.ns = op_start.elapsed().as_nanos() as u64;
                    node.attr("out", out);
                    node.attr("est_visits", format!("{:.0}", prog.seed_est.visits));
                    vm.span_deltas(node, before);
                }
            }
            Op::PredFilter { reg, step } => {
                let mut r = std::mem::take(&mut regs[reg as usize]);
                let in_count = r.len();
                retain_with(&mut r, |v| vm.preds_hold(step, v));
                let out = r.len();
                regs[reg as usize] = r;
                if let Some(t) = trace.as_deref_mut() {
                    let node = t.child(TraceNode::new(
                        "PredFilter",
                        format!("step {} predicates", step as usize + 1),
                    ));
                    node.ns = op_start.elapsed().as_nanos() as u64;
                    node.attr("in", in_count);
                    node.attr("out", out);
                    vm.span_deltas(node, before);
                }
            }
            Op::UpwardMatch { reg } => {
                let mut r = std::mem::take(&mut regs[reg as usize]);
                let in_count = r.len();
                let pivot = vm.p.pivot;
                retain_with(&mut r, |v| vm.match_up(pivot, v));
                let out = r.len();
                regs[reg as usize] = r;
                if let Some(t) = trace.as_deref_mut() {
                    let node = t.child(TraceNode::new("UpwardMatch", vm.prefix_detail()));
                    node.ns = op_start.elapsed().as_nanos() as u64;
                    node.attr("in", in_count);
                    node.attr("out", out);
                    vm.span_deltas(node, before);
                }
            }
            Op::Descend { dst, src, step } => {
                let mut r = std::mem::take(&mut regs[dst as usize]);
                r.clear();
                let in_count = regs[src as usize].len();
                vm.descend(step, &regs[src as usize], &mut r);
                let out = r.len();
                regs[dst as usize] = r;
                if let Some(t) = trace.as_deref_mut() {
                    let s = &prog.steps[step as usize];
                    let how = match s.descend {
                        Descend::RangeScan => "range scan + depth filter",
                        Descend::SubtreeScan => "subtree scan",
                        _ => "child scan",
                    };
                    let node = t.child(TraceNode::new(
                        "SpineDescend",
                        format!("{} via {how}", vm.step_detail(step)),
                    ));
                    node.ns = op_start.elapsed().as_nanos() as u64;
                    node.attr("in", in_count);
                    node.attr("out", out);
                    node.attr("est_visits", format!("{:.0}", s.est.visits));
                    vm.span_deltas(node, before);
                }
            }
            Op::Intersect { dst, src, step } => {
                let mut r = std::mem::take(&mut regs[dst as usize]);
                r.clear();
                let in_count = regs[src as usize].len();
                vm.intersect(step, &regs[src as usize], &mut r);
                let out = r.len();
                regs[dst as usize] = r;
                if let Some(t) = trace.as_deref_mut() {
                    let node = t.child(TraceNode::new(
                        "Intersect",
                        format!("{} via merge label list", vm.step_detail(step)),
                    ));
                    node.ns = op_start.elapsed().as_nanos() as u64;
                    node.attr("in", in_count);
                    node.attr("out", out);
                    node.attr(
                        "est_visits",
                        format!("{:.0}", prog.steps[step as usize].est.visits),
                    );
                    vm.span_deltas(node, before);
                }
            }
            Op::SortDedup { reg } => {
                let r = &mut regs[reg as usize];
                r.sort_unstable();
                r.dedup();
            }
            Op::Select { src } => {
                result = regs[src as usize].clone();
            }
        }
    }
    vm.stats.selected = result.len() as u64;
    let stats = vm.stats;
    (result, stats, start.elapsed().as_nanos() as u64)
}

/// In-place retain preserving order, allowing a stateful predicate.
fn retain_with(r: &mut Vec<NodeId>, mut f: impl FnMut(NodeId) -> bool) {
    let mut out = 0;
    for i in 0..r.len() {
        let v = r[i];
        if f(v) {
            r[out] = v;
            out += 1;
        }
    }
    r.truncate(out);
}

struct Vm<'a> {
    ix: &'a TreeIndex,
    p: &'a SpineProg,
    stats: EvalStats,
    s: &'a mut SpineScratch,
    /// Memo tables only pay off when candidates can share ancestors or
    /// predicate work; for a handful of candidates the hash traffic costs
    /// more than the recomputation it saves.
    use_memo: bool,
}

impl<'a> Vm<'a> {
    /// Counts `v` as visited once.
    #[inline]
    fn mark_visited(&mut self, v: NodeId) {
        if self.s.seen.insert_check(v) {
            self.stats.visited += 1;
        }
    }

    fn walk_ctx(&mut self) -> WalkCtx<'_> {
        WalkCtx {
            ix: self.ix,
            stats: &mut self.stats,
            seen: &mut self.s.seen,
        }
    }

    fn span_deltas(&self, node: &mut TraceNode, before: EvalStats) {
        node.attr("visited", self.stats.visited - before.visited);
        node.attr("jumps", self.stats.jumps - before.jumps);
    }

    fn step_detail(&self, step: u16) -> String {
        let s = &self.p.steps[step as usize];
        let test = match s.test {
            SpineTest::Label(l) => self.ix.alphabet().name(l).to_string(),
            SpineTest::Star => "*".to_string(),
            SpineTest::Any => "node()".to_string(),
        };
        format!("{}::{}", s.axis.name(), test)
    }

    fn prefix_detail(&self) -> String {
        (0..self.p.pivot as usize)
            .map(|i| self.step_detail(i as u16))
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Does node `u` satisfy step `si`'s node test?
    fn test_matches(&self, si: usize, u: NodeId) -> bool {
        let step = &self.p.steps[si];
        match step.test {
            SpineTest::Label(l) => self.ix.label(u) == l,
            SpineTest::Star => self.ix.kind(u) == star_kind(step.axis),
            SpineTest::Any => true,
        }
    }

    /// Enumerates step `step`'s matches below `cand` into `out` (child,
    /// child/attribute range, or subtree scan; the descendant range scan
    /// is [`Self::intersect`]). Predicates are applied afterwards by a
    /// `PredFilter` op, in this same enumeration order.
    fn descend(&mut self, step: u16, cand: &[NodeId], out: &mut Vec<NodeId>) {
        let si = step as usize;
        let s = &self.p.steps[si];
        match s.descend {
            Descend::ChildScan => {
                for &c in cand {
                    let mut u = self.ix.first_child(c);
                    while u != NONE {
                        self.mark_visited(u);
                        if self.test_matches(si, u) {
                            out.push(u);
                        }
                        u = self.ix.next_sibling(u);
                    }
                }
            }
            Descend::RangeScan => {
                // Child/attribute: per-candidate range, entries must sit
                // exactly one level below (subtree containment + depth+1
                // ⟺ parent == candidate).
                let SpineTest::Label(l) = s.test else {
                    return; // validated out
                };
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
                        if self.ix.depth(u) == want {
                            out.push(u);
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
                        if self.test_matches(si, u) {
                            out.push(u);
                        }
                    }
                }
            }
            Descend::Upward => {}
        }
    }

    /// The descendant-axis range scan: merge the step label's preorder
    /// list with the candidates' subtree ranges. Preorder ranges are
    /// laminar, so nested candidates are covered by the outer scan and
    /// the list cursor only moves forward.
    fn intersect(&mut self, step: u16, cand: &[NodeId], out: &mut Vec<NodeId>) {
        let SpineTest::Label(l) = self.p.steps[step as usize].test else {
            return; // validated out
        };
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
                out.push(u);
            }
        }
    }

    /// Do all of step `step`'s predicates hold at `u`?
    fn preds_hold(&mut self, step: u16, u: NodeId) -> bool {
        let s = &self.p.steps[step as usize];
        let (start, len) = (s.preds_start as usize, s.preds_len as usize);
        (start..start + len).all(|pi| match self.p.preds[pi] {
            BcPred::Probe(root) => self.probe_holds(root, u),
            BcPred::Walk { id, walk } => {
                let key = (id, u);
                if self.use_memo {
                    if let Some(&b) = self.s.pred_memo.get(&key) {
                        return b;
                    }
                }
                let pred = &self.p.walks[walk as usize];
                let b = self.walk_ctx().walk_pred(pred, u);
                if self.use_memo {
                    self.s.pred_memo.insert(key, b);
                }
                b
            }
        })
    }

    /// Evaluates a flattened probe tree (index-only: ticks `jumps`, never
    /// `visited`). Child references point strictly backwards (validated
    /// at decode), so the recursion terminates.
    fn probe_holds(&mut self, idx: u32, c: NodeId) -> bool {
        let p = self.p;
        match p.probes[idx as usize] {
            ProbeNode::And(a, b) => self.probe_holds(a, c) && self.probe_holds(b, c),
            ProbeNode::Or(a, b) => self.probe_holds(a, c) || self.probe_holds(b, c),
            ProbeNode::Not(a) => !self.probe_holds(a, c),
            ProbeNode::Const(b) => b,
            ProbeNode::TextEq(None) => false,
            ProbeNode::TextEq(Some(id)) => self.walk_ctx().probe_text_eq(id, c),
            ProbeNode::SelfTextEq(id) => {
                self.ix.text_id_of(c).is_some() && self.ix.text_id_of(c) == id
            }
            ProbeNode::SelfTextContains(t) => {
                let lit = &p.texts[t as usize];
                self.ix.text_of(c).is_some_and(|s| s.contains(lit.as_str()))
            }
            ProbeNode::Chain { start, len } => {
                let steps = &p.chains[start as usize..(start + len) as usize];
                self.walk_ctx().chain_exists(steps, c)
            }
        }
    }

    /// UpwardMatch: does the spine prefix `steps[..k]` match above `v`?
    /// Memoized on `(k, v)`: the answer is a pure function of the pair,
    /// and candidates share ancestors heavily. Descendant-axis
    /// upward steps whose previous step is a bare label test use the
    /// index's ancestor-axis probe instead of a parent-chain walk.
    fn match_up(&mut self, k: u32, v: NodeId) -> bool {
        let p = self.p;
        let v_axis = p.steps[k as usize].axis;
        if k == 0 {
            // Anchored at the virtual document node.
            return match v_axis {
                Axis::Child | Axis::Attribute => v == self.ix.root(),
                _ => true, // Descendant (spine axes are validated)
            };
        }
        if self.use_memo {
            if let Some(&b) = self.s.up_memo.get(&(k, v)) {
                return b;
            }
        }
        let prev = (k - 1) as usize;
        let ps = &p.steps[prev];
        let b = match v_axis {
            Axis::Child | Axis::Attribute => {
                let par = self.ix.parent(v);
                par != NONE && {
                    self.mark_visited(par);
                    self.test_matches(prev, par)
                        && self.preds_hold(prev as u16, par)
                        && self.match_up(k - 1, par)
                }
            }
            _ => {
                if let (SpineTest::Label(l), 0) = (ps.test, ps.preds_len) {
                    // Ancestor-axis probe: the walk would only accept
                    // label-`l` ancestors anyway (bare label test, no
                    // predicates), and those are exactly what the probe
                    // enumerates — O(log n) instead of O(depth), no
                    // per-level visits.
                    if prev == 0 && ps.axis == Axis::Descendant {
                        // `//l/…`: existence alone decides (the prefix
                        // above `l` is unconstrained).
                        self.stats.jumps += 1;
                        self.ix.has_label_ancestor(l, v)
                    } else {
                        let ix = self.ix;
                        let mut anc = ix.label_ancestors(l, v);
                        let mut found = false;
                        for a in anc.by_ref() {
                            if self.match_up(k - 1, a) {
                                found = true;
                                break;
                            }
                        }
                        self.stats.jumps += anc.probes() as u64;
                        found
                    }
                } else {
                    // General case: the memoized parent-chain walk with
                    // the min-depth cutoff (ancestors only get shallower:
                    // above the step's shallowest label nothing matches).
                    let min_depth = ps.min_depth;
                    let mut par = self.ix.parent(v);
                    let mut found = false;
                    while par != NONE {
                        if self.ix.depth(par) < min_depth {
                            break;
                        }
                        self.mark_visited(par);
                        if self.test_matches(prev, par)
                            && self.preds_hold(prev as u16, par)
                            && self.match_up(k - 1, par)
                        {
                            found = true;
                            break;
                        }
                        par = self.ix.parent(par);
                    }
                    found
                }
            }
        };
        if self.use_memo {
            self.s.up_memo.insert((k, v), b);
        }
        b
    }
}
