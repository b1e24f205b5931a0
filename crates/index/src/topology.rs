//! Tree topology backends.
//!
//! The paper's §1 problem (1): pointer-based in-memory XML trees cost 5–10×
//! the document size, so SXSI uses succinct trees. Both backends below expose
//! the same operations; [`ArrayTopology`] is the conventional pointer (well,
//! index) structure, [`SuccinctTopology`] stores ~2.2 bits per node plus
//! directories.

use xwq_succinct::{Store, SuccinctTree, SuccinctTreeBuilder};
use xwq_xml::{first_bad, Document, NodeId, NONE};

/// Which backend a [`crate::TreeIndex`] should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// Plain preorder arrays: fastest navigation, ~20 bytes/node.
    #[default]
    Array,
    /// Balanced-parentheses succinct tree: ~2.2 bits/node + rank directory.
    Succinct,
}

/// Tree navigation operations shared by both backends.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Array-backed.
    Array(ArrayTopology),
    /// Succinct (balanced parentheses).
    Succinct(SuccinctTopology),
}

impl Topology {
    /// Builds the chosen backend from a document.
    pub fn build(doc: &Document, kind: TopologyKind) -> Self {
        match kind {
            TopologyKind::Array => Topology::Array(ArrayTopology::build(doc)),
            TopologyKind::Succinct => Topology::Succinct(SuccinctTopology::build(doc)),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Topology::Array(t) => t.parent.len(),
            Topology::Succinct(t) => t.tree.len(),
        }
    }

    /// Always false (trees are non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First child (`π·1`) or [`NONE`].
    #[inline]
    pub fn first_child(&self, v: NodeId) -> NodeId {
        match self {
            Topology::Array(t) => t.first_child[v as usize],
            Topology::Succinct(t) => t.tree.first_child(v).unwrap_or(NONE),
        }
    }

    /// Next sibling (`π·2`) or [`NONE`].
    #[inline]
    pub fn next_sibling(&self, v: NodeId) -> NodeId {
        match self {
            Topology::Array(t) => t.next_sibling[v as usize],
            Topology::Succinct(t) => t.tree.next_sibling(v).unwrap_or(NONE),
        }
    }

    /// Parent or [`NONE`] for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        match self {
            Topology::Array(t) => t.parent[v as usize],
            Topology::Succinct(t) => t.tree.parent(v).unwrap_or(NONE),
        }
    }

    /// One past the last preorder id in `v`'s (XML) subtree.
    #[inline]
    pub fn subtree_end(&self, v: NodeId) -> NodeId {
        match self {
            Topology::Array(t) => t.subtree_end[v as usize],
            Topology::Succinct(t) => t.tree.subtree_end(v),
        }
    }

    /// One past the last preorder id of the parent's subtree (the node
    /// count for the root).
    #[inline]
    pub fn parent_subtree_end(&self, v: NodeId) -> NodeId {
        match self {
            Topology::Array(t) => match t.parent[v as usize] {
                NONE => t.parent.len() as NodeId,
                p => t.subtree_end[p as usize],
            },
            Topology::Succinct(t) => t.tree.parent_subtree_end(v),
        }
    }

    /// Depth (root = 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        match self {
            Topology::Array(t) => t.depth[v as usize],
            Topology::Succinct(t) => t.tree.depth(v),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Topology::Array(t) => t.heap_bytes(),
            Topology::Succinct(t) => t.tree.heap_bytes(),
        }
    }

    /// Which backend this topology uses.
    pub fn kind(&self) -> TopologyKind {
        match self {
            Topology::Array(_) => TopologyKind::Array,
            Topology::Succinct(_) => TopologyKind::Succinct,
        }
    }

    /// The array backend's derived arrays `(subtree_end, depth)`, if this
    /// is an array topology. The three navigation arrays are shared with
    /// the document, so the `.xwqi` persistence layer stores only these two.
    pub fn array_derived(&self) -> Option<(&[NodeId], &[u32])> {
        match self {
            Topology::Array(t) => Some((t.subtree_end.as_slice(), t.depth.as_slice())),
            Topology::Succinct(_) => None,
        }
    }

    /// The succinct backend's tree, if this is a succinct topology.
    pub fn succinct_tree(&self) -> Option<&SuccinctTree> {
        match self {
            Topology::Succinct(t) => Some(&t.tree),
            Topology::Array(_) => None,
        }
    }

    /// Reassembles an array topology from the document's navigation arrays
    /// plus deserialized derived arrays (the `.xwqi` persistence layer).
    /// `subtree_end` / `depth` are validated against the document in one
    /// O(n) pass — they must be exactly what [`ArrayTopology::build`]
    /// would derive.
    pub fn from_array_parts(
        doc: &Document,
        subtree_end: impl Into<Store<NodeId>>,
        depth: impl Into<Store<u32>>,
    ) -> Result<Self, String> {
        let (subtree_end, depth) = (subtree_end.into(), depth.into());
        let n = doc.len();
        if subtree_end.len() != n || depth.len() != n {
            return Err("topology: derived array length mismatch".to_string());
        }
        let (_, parent, _, next_sibling, _) = doc.raw_arrays();
        let (ends, depths, last) = (subtree_end.as_slice(), depth.as_slice(), n - 1);
        // Each node is checked against the values stored for its parent (a
        // wrong stored value fails the parent's own check), so the checks
        // are independent per node and fold without branches: both parent
        // values are read up front and picked by selects. The clamped read
        // only matters for the root, whose parent is NONE.
        let check = |v: usize| {
            let (p, ns) = (parent[v], next_sibling[v]);
            let pi = (p as usize).min(last);
            let (parent_end, parent_depth) = (ends[pi], depths[pi]);
            let inherited = if p != NONE { parent_end } else { n as u32 };
            let end = if ns != NONE { ns } else { inherited };
            // A depth past `n` fails its own node's check, so the wrapping
            // `+ 1` never hides an error.
            let depth = if p != NONE {
                parent_depth.wrapping_add(1)
            } else {
                0
            };
            u32::from(ends[v] != end) | u32::from(depths[v] != depth) << 1
        };
        if let Some((v, what)) = first_bad(n, check) {
            let what = ["subtree_end", "depth"][what];
            return Err(format!("topology: bad {what} at node {v}"));
        }
        // The navigation arrays are shared with the document: cloning the
        // stores is free for borrowed (mmap) views and a plain copy for
        // owned ones — exactly what the collect() did before.
        let (parent, first_child, next_sibling) = doc.nav_stores();
        Ok(Topology::Array(ArrayTopology {
            parent: parent.clone(),
            first_child: first_child.clone(),
            next_sibling: next_sibling.clone(),
            subtree_end,
            depth,
        }))
    }

    /// Wraps a deserialized succinct tree (the `.xwqi` persistence layer).
    /// The tree must have one node per document node.
    pub fn from_succinct_tree(doc: &Document, tree: SuccinctTree) -> Result<Self, String> {
        if tree.len() != doc.len() {
            return Err(format!(
                "topology: succinct tree has {} nodes, document has {}",
                tree.len(),
                doc.len()
            ));
        }
        Ok(Topology::Succinct(SuccinctTopology { tree }))
    }
}

/// Conventional preorder-array topology.
#[derive(Clone, Debug)]
pub struct ArrayTopology {
    pub(crate) parent: Store<NodeId>,
    pub(crate) first_child: Store<NodeId>,
    pub(crate) next_sibling: Store<NodeId>,
    pub(crate) subtree_end: Store<NodeId>,
    pub(crate) depth: Store<u32>,
}

impl ArrayTopology {
    /// Copies the document arrays and derives subtree extents and depths.
    pub fn build(doc: &Document) -> Self {
        let n = doc.len();
        let mut subtree_end = vec![0u32; n];
        let mut depth = vec![0u32; n];
        // A node's subtree ends where its next sibling starts; a last
        // sibling inherits the parent's end. Parents precede children in
        // preorder, so one ascending pass suffices.
        for v in 0..n as u32 {
            let ns = doc.next_sibling(v);
            let p = doc.parent(v);
            subtree_end[v as usize] = if ns != NONE {
                ns
            } else if p != NONE {
                subtree_end[p as usize]
            } else {
                n as u32
            };
        }
        for v in 1..n as u32 {
            depth[v as usize] = depth[doc.parent(v) as usize] + 1;
        }
        let (parent, first_child, next_sibling) = doc.nav_stores();
        Self {
            parent: parent.clone(),
            first_child: first_child.clone(),
            next_sibling: next_sibling.clone(),
            subtree_end: subtree_end.into(),
            depth: depth.into(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.parent.heap_bytes()
            + self.first_child.heap_bytes()
            + self.next_sibling.heap_bytes()
            + self.subtree_end.heap_bytes()
            + self.depth.heap_bytes()
    }
}

/// Succinct balanced-parentheses topology.
#[derive(Clone, Debug)]
pub struct SuccinctTopology {
    pub(crate) tree: SuccinctTree,
}

impl SuccinctTopology {
    /// Builds the parentheses sequence via an iterative preorder walk.
    pub fn build(doc: &Document) -> Self {
        let mut b = SuccinctTreeBuilder::new();
        // Iterative DFS emitting open/close; avoids recursion on deep docs.
        enum Step {
            Open(NodeId),
            Close,
        }
        let mut stack = vec![Step::Open(doc.root())];
        while let Some(step) = stack.pop() {
            match step {
                Step::Open(v) => {
                    b.open();
                    stack.push(Step::Close);
                    // Children pushed in reverse so the first child pops first.
                    let kids: Vec<NodeId> = doc.children(v).collect();
                    for &c in kids.iter().rev() {
                        stack.push(Step::Open(c));
                    }
                }
                Step::Close => b.close(),
            }
        }
        Self { tree: b.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_xml::parse;

    fn doc() -> Document {
        parse("<a><b><d/><e/></b><c><f/></c></a>").unwrap()
    }

    #[test]
    fn backends_agree() {
        let d = doc();
        let a = Topology::build(&d, TopologyKind::Array);
        let s = Topology::build(&d, TopologyKind::Succinct);
        assert_eq!(a.len(), s.len());
        for v in 0..d.len() as u32 {
            assert_eq!(a.first_child(v), s.first_child(v), "fc({v})");
            assert_eq!(a.next_sibling(v), s.next_sibling(v), "ns({v})");
            assert_eq!(a.parent(v), s.parent(v), "parent({v})");
            assert_eq!(a.subtree_end(v), s.subtree_end(v), "end({v})");
            assert_eq!(a.depth(v), s.depth(v), "depth({v})");
        }
    }

    #[test]
    fn subtree_extents() {
        let d = doc();
        let t = Topology::build(&d, TopologyKind::Array);
        // a=0 b=1 d=2 e=3 c=4 f=5
        assert_eq!(t.subtree_end(0), 6);
        assert_eq!(t.subtree_end(1), 4);
        assert_eq!(t.subtree_end(2), 3);
        assert_eq!(t.subtree_end(4), 6);
        assert_eq!(t.subtree_end(5), 6);
    }

    #[test]
    fn succinct_is_smaller_on_large_docs() {
        // Build a 20k-node comb document.
        let mut b = xwq_xml::TreeBuilder::new();
        b.open("r");
        for _ in 0..20_000 {
            b.open("x");
            b.close();
        }
        b.close();
        let d = b.finish();
        let a = Topology::build(&d, TopologyKind::Array);
        let s = Topology::build(&d, TopologyKind::Succinct);
        assert!(
            s.heap_bytes() * 4 < a.heap_bytes(),
            "succinct {} vs array {}",
            s.heap_bytes(),
            a.heap_bytes()
        );
    }
}
