//! Ordinal trees over balanced parentheses.
//!
//! Node identifiers are preorder ranks starting at 0 for the root, matching
//! the node numbering used by the index and automata crates. The structure
//! supports exactly the navigation the paper's run functions need:
//! `first_child`, `next_sibling`, `parent`, subtree extents and depth.

use crate::{BitVec, Bp};

/// Incremental builder: emit `open()`/`close()` during a preorder walk.
#[derive(Clone, Debug, Default)]
pub struct SuccinctTreeBuilder {
    bits: BitVec,
    depth: usize,
    nodes: usize,
}

impl SuccinctTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new node (preorder visit).
    pub fn open(&mut self) {
        self.bits.push(true);
        self.depth += 1;
        self.nodes += 1;
    }

    /// Closes the most recently opened node.
    ///
    /// # Panics
    /// Panics if there is no open node.
    pub fn close(&mut self) {
        assert!(self.depth > 0, "close() without matching open()");
        self.bits.push(false);
        self.depth -= 1;
    }

    /// Finishes the tree.
    ///
    /// # Panics
    /// Panics if some nodes are still open or the tree is empty.
    pub fn finish(self) -> SuccinctTree {
        assert_eq!(self.depth, 0, "{} node(s) left open", self.depth);
        assert!(self.nodes > 0, "cannot build an empty tree");
        SuccinctTree {
            bp: Bp::new(self.bits),
            n_nodes: self.nodes,
        }
    }
}

/// A static ordinal tree; nodes are preorder ranks (`u32`).
#[derive(Clone, Debug)]
pub struct SuccinctTree {
    bp: Bp,
    n_nodes: usize,
}

impl SuccinctTree {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_nodes
    }

    /// The underlying balanced-parentheses structure.
    #[inline]
    pub fn bp(&self) -> &Bp {
        &self.bp
    }

    /// Reassembles a tree from a deserialized parentheses structure (the
    /// `.xwqi` persistence layer). The open-parenthesis count must match
    /// the sequence length and be non-zero.
    pub fn from_raw_parts(bp: Bp) -> Result<Self, String> {
        let n_nodes = bp.rank_select().count_ones();
        if n_nodes == 0 {
            return Err("succinct tree: empty parentheses sequence".to_string());
        }
        if bp.len() != 2 * n_nodes {
            return Err(format!(
                "succinct tree: {} parentheses for {} opens (unbalanced)",
                bp.len(),
                n_nodes
            ));
        }
        Ok(Self { bp, n_nodes })
    }

    /// Always false: trees have at least a root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (always 0).
    #[inline]
    pub fn root(&self) -> u32 {
        0
    }

    #[inline]
    fn pos(&self, v: u32) -> usize {
        self.bp
            .select_open(v as usize)
            .expect("node id out of range")
    }

    #[inline]
    fn node_at(&self, pos: usize) -> u32 {
        self.bp.rank_open(pos) as u32
    }

    /// First child of `v` in document order, if any. In preorder the
    /// first child (when the bit after `v`'s open is another open) is
    /// always `v + 1` — no rank query needed.
    #[inline]
    pub fn first_child(&self, v: u32) -> Option<u32> {
        let p = self.pos(v);
        if p + 1 < self.bp.len() && self.bp.is_open(p + 1) {
            Some(v + 1)
        } else {
            None
        }
    }

    /// Next sibling of `v` in document order, if any. The sibling's
    /// preorder id is `v + subtree_size(v)`, and the subtree size falls
    /// out of the matching-parenthesis span — no rank query needed.
    #[inline]
    pub fn next_sibling(&self, v: u32) -> Option<u32> {
        let p = self.pos(v);
        let c = self
            .bp
            .find_close_with_rank(p, v as usize)
            .expect("balanced by construction");
        if c + 1 < self.bp.len() && self.bp.is_open(c + 1) {
            Some(v + ((c + 1 - p) / 2) as u32)
        } else {
            None
        }
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: u32) -> Option<u32> {
        let p = self.pos(v);
        self.bp
            .enclose_with_rank(p, v as usize)
            .map(|q| self.node_at(q))
    }

    /// Number of nodes in the subtree rooted at `v` (including `v`).
    #[inline]
    pub fn subtree_size(&self, v: u32) -> u32 {
        let p = self.pos(v);
        let c = self
            .bp
            .find_close_with_rank(p, v as usize)
            .expect("balanced by construction");
        (c - p).div_ceil(2) as u32
    }

    /// One past the last preorder id in the subtree of `v`'s parent (the
    /// node count for the root): the end of `v`'s subtree in the binary
    /// first-child/next-sibling view. One forward search for the parent's
    /// close parenthesis, then a rank.
    #[inline]
    pub fn parent_subtree_end(&self, v: u32) -> u32 {
        let p = self.pos(v);
        match self.bp.enclosing_close_with_rank(p, v as usize) {
            Some(c) => self.node_at(c),
            None => self.n_nodes as u32,
        }
    }

    /// One past the last preorder id in `v`'s subtree. Descendant-or-self test:
    /// `v <= u && u < subtree_end(v)`.
    #[inline]
    pub fn subtree_end(&self, v: u32) -> u32 {
        v + self.subtree_size(v)
    }

    /// Depth of `v` (root has depth 0). `excess(p+1) = 2·(v+1) − (p+1)`
    /// because `p` is the position of the `v`-th open parenthesis — no
    /// rank query needed at all.
    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        let p = self.pos(v);
        (2 * (v as usize + 1) - (p + 1) - 1) as u32
    }

    /// True if `a` is an ancestor of `d` (strict).
    #[inline]
    pub fn is_ancestor(&self, a: u32, d: u32) -> bool {
        a < d && d < self.subtree_end(a)
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bp.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the tree `a(b(d,e),c(f))` — preorder a=0 b=1 d=2 e=3 c=4 f=5.
    fn sample() -> SuccinctTree {
        let mut b = SuccinctTreeBuilder::new();
        b.open(); // a
        b.open(); // b
        b.open(); // d
        b.close();
        b.open(); // e
        b.close();
        b.close(); // b
        b.open(); // c
        b.open(); // f
        b.close();
        b.close(); // c
        b.close(); // a
        b.finish()
    }

    #[test]
    fn navigation_on_sample() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.first_child(0), Some(1));
        assert_eq!(t.first_child(1), Some(2));
        assert_eq!(t.first_child(2), None);
        assert_eq!(t.next_sibling(1), Some(4));
        assert_eq!(t.next_sibling(2), Some(3));
        assert_eq!(t.next_sibling(3), None);
        assert_eq!(t.next_sibling(4), None);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(5), Some(4));
    }

    #[test]
    fn subtree_extents_and_depth() {
        let t = sample();
        assert_eq!(t.subtree_size(0), 6);
        assert_eq!(t.subtree_size(1), 3);
        assert_eq!(t.subtree_size(4), 2);
        assert_eq!(t.subtree_end(1), 4);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(1), 1);
        assert_eq!(t.depth(2), 2);
        assert!(t.is_ancestor(0, 5));
        assert!(t.is_ancestor(1, 3));
        assert!(!t.is_ancestor(1, 4));
        assert!(!t.is_ancestor(3, 1));
        assert!(!t.is_ancestor(2, 2));
    }

    #[test]
    fn single_node() {
        let mut b = SuccinctTreeBuilder::new();
        b.open();
        b.close();
        let t = b.finish();
        assert_eq!(t.len(), 1);
        assert_eq!(t.first_child(0), None);
        assert_eq!(t.next_sibling(0), None);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.subtree_size(0), 1);
    }

    #[test]
    #[should_panic(expected = "left open")]
    fn unbalanced_builder_panics() {
        let mut b = SuccinctTreeBuilder::new();
        b.open();
        b.open();
        b.close();
        b.finish();
    }

    #[test]
    fn deep_chain() {
        let n = 2000u32;
        let mut b = SuccinctTreeBuilder::new();
        for _ in 0..n {
            b.open();
        }
        for _ in 0..n {
            b.close();
        }
        let t = b.finish();
        for v in 0..n {
            assert_eq!(t.depth(v), v);
            assert_eq!(t.subtree_size(v), n - v);
            assert_eq!(t.parent(v), v.checked_sub(1));
            assert_eq!(t.first_child(v), if v + 1 < n { Some(v + 1) } else { None });
            assert_eq!(t.next_sibling(v), None);
        }
    }
}
