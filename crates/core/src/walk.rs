//! Predicate walks and index probes for the register VM ([`crate::vm`]).
//!
//! [`WalkCtx`] evaluates a spine step's predicates at one node: the index
//! probes (`Probe::Chain`, `Probe::TextEq`) do label-list binary searches
//! and depth compares and count as `jumps`, exactly like the automaton's
//! `dt`/`ft` probes; the general walk covers the full predicate fragment
//! and counts every node it examines as `visited`.
//!
//! Visit accounting matches the automaton evaluators: `visited` counts
//! distinct nodes whose label/content/children were examined (dense
//! bitset, pooled in [`EvalScratch`](crate::EvalScratch)); pure index
//! operations (binary searches, depth compares on list entries) count as
//! `jumps`.

use crate::bits::StateBits;
use crate::eval::EvalStats;
use crate::planner::star_kind;
use xwq_index::{FxHashMap, NodeId, TreeIndex, NONE};
use xwq_xpath::{Axis, NodeTest, Pred, Step};

/// Reusable VM state, pooled inside [`EvalScratch`](crate::EvalScratch):
/// the distinct-visit bitset, the upward/predicate memo tables, and the
/// candidate-set registers all keep their capacity across runs.
#[derive(Debug, Default)]
pub(crate) struct SpineScratch {
    pub(crate) seen: StateBits,
    /// `(prefix length, node) → does the spine prefix match above node`.
    pub(crate) up_memo: FxHashMap<(u32, NodeId), bool>,
    /// `(walk-predicate id, node) → does the predicate hold`.
    pub(crate) pred_memo: FxHashMap<(u32, NodeId), bool>,
    /// Candidate-set register file for the bytecode VM; the vectors keep
    /// their capacity across runs.
    pub(crate) regs: Vec<Vec<NodeId>>,
}

impl SpineScratch {
    pub(crate) fn reset(&mut self) {
        self.seen.clear();
        self.up_memo.clear();
        self.pred_memo.clear();
        for r in &mut self.regs {
            r.clear();
        }
    }
}

/// The general tree-walking predicate evaluator plus the index-probe
/// helpers whose semantics must match it exactly. The VM borrows its
/// counters and visited set into one of these for every predicate walk
/// and probe.
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
