//! Property tests: jumping primitives must agree with naive scans over
//! arbitrary random documents, on both topology backends.

use proptest::prelude::*;
use xwq_index::{LabelSet, NodeId, TopologyKind, TreeIndex, NONE};
use xwq_xml::{Document, TreeBuilder};

/// Builds a random document from (pops, label) pairs; labels come from a
/// 5-letter alphabet so jumps have plenty of matches and misses.
fn build_doc(ops: &[(u8, u8)]) -> Document {
    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    let mut b = TreeBuilder::new();
    b.open("root");
    let mut depth = 1usize;
    for &(pops, label) in ops {
        let pops = (pops as usize).min(depth - 1);
        for _ in 0..pops {
            b.close();
            depth -= 1;
        }
        b.open(NAMES[label as usize % NAMES.len()]);
        depth += 1;
    }
    for _ in 0..depth {
        b.close();
    }
    b.finish()
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..4, 0u8..5), 1..200)
}

fn label_set(ix: &TreeIndex, names: &[&str]) -> LabelSet {
    LabelSet::from_ids(
        ix.alphabet().len(),
        names.iter().filter_map(|n| ix.alphabet().lookup(n)),
    )
}

/// Naive first node in `[lo, hi)` with label in `s`.
fn naive_range(ix: &TreeIndex, lo: NodeId, hi: NodeId, s: &LabelSet) -> NodeId {
    (lo..hi.min(ix.len() as NodeId))
        .find(|&v| s.contains(ix.label(v)))
        .unwrap_or(NONE)
}

proptest! {
    #[test]
    fn jumps_agree_with_naive(ops in arb_ops(), subsets in prop::collection::vec(prop::bool::ANY, 5)) {
        let doc = build_doc(&ops);
        let ix = TreeIndex::build(&doc);
        let names: Vec<&str> = ["a", "b", "c", "d", "e"]
            .iter()
            .zip(&subsets)
            .filter(|(_, &keep)| keep)
            .map(|(&n, _)| n)
            .collect();
        let s = label_set(&ix, &names);
        for v in 0..doc.len() as NodeId {
            prop_assert_eq!(
                ix.jump_desc_xml(v, &s),
                naive_range(&ix, v + 1, ix.subtree_end(v), &s),
                "jump_desc_xml({})", v
            );
            // lt against a naive chain walk.
            let mut cur = ix.first_child(v);
            let mut expect = NONE;
            while cur != NONE {
                if s.contains(ix.label(cur)) { expect = cur; break; }
                cur = ix.first_child(cur);
            }
            prop_assert_eq!(ix.jump_leftmost(v, &s), expect, "lt({})", v);
        }
    }

    #[test]
    fn topologies_agree(ops in arb_ops()) {
        let doc = build_doc(&ops);
        let a = TreeIndex::build_with(&doc, TopologyKind::Array);
        let s = TreeIndex::build_with(&doc, TopologyKind::Succinct);
        for v in 0..doc.len() as NodeId {
            prop_assert_eq!(a.first_child(v), s.first_child(v));
            prop_assert_eq!(a.next_sibling(v), s.next_sibling(v));
            prop_assert_eq!(a.parent(v), s.parent(v));
            prop_assert_eq!(a.subtree_end(v), s.subtree_end(v));
            prop_assert_eq!(a.bin_subtree_end(v), s.bin_subtree_end(v));
            prop_assert_eq!(a.depth(v), s.depth(v));
        }
    }

    #[test]
    fn topmost_enumeration_is_topmost(ops in arb_ops()) {
        // The dt/ft chain from the root enumerates exactly the binary-topmost
        // labelled nodes: every labelled node is a (binary-)descendant-or-self
        // of exactly one enumerated node. The probes are the evaluator's:
        // `first_labeled_in_range` over `bin_subtree_end` bounds.
        let doc = build_doc(&ops);
        let ix = TreeIndex::build(&doc);
        let s = label_set(&ix, &["b"]);
        let root = ix.root();
        let scope_end = ix.bin_subtree_end(root);
        let mut frontier = vec![];
        let mut cur = if s.contains(ix.label(root)) {
            root
        } else {
            ix.first_labeled_in_range(root + 1, scope_end, &s)
        };
        while cur != NONE {
            frontier.push(cur);
            cur = ix.first_labeled_in_range(ix.bin_subtree_end(cur), scope_end, &s);
        }
        // Frontier nodes are pairwise non-nested in the binary view...
        for w in frontier.windows(2) {
            prop_assert!(ix.bin_subtree_end(w[0]) <= w[1]);
        }
        // ...and every b-node is inside some frontier node's binary subtree.
        let b = ix.alphabet().lookup("b");
        if let Some(b) = b {
            for &v in ix.label_list(b) {
                prop_assert!(
                    frontier.iter().any(|&f| f <= v && v < ix.bin_subtree_end(f)),
                    "b-node {} not covered", v
                );
            }
        }
    }
}
