//! The preorder-array document representation.
//!
//! Nodes are numbered in document (pre-)order, root = 0. The arrays
//! `first_child` / `next_sibling` are exactly the binary-tree view of §2:
//! `π·1` is the first child and `π·2` the next sibling; the absent-child
//! leaf `#` corresponds to [`NONE`].

use crate::{Alphabet, LabelId, LabelKind};
use std::fmt::Write as _;
use xwq_succinct::{Store, StrTable};

/// Preorder node identifier.
pub type NodeId = u32;

/// Sentinel for "no node" — the `#` leaf of the paper's binary trees.
pub const NONE: NodeId = u32::MAX;

/// An immutable XML document in preorder arrays.
///
/// Every array is a [`Store`]: owned when built by the parser or
/// [`crate::TreeBuilder`], a zero-copy borrowed view when reassembled from
/// a memory-mapped `.xwqi` file.
#[derive(Clone, Debug)]
pub struct Document {
    pub(crate) alphabet: Alphabet,
    pub(crate) labels: Store<LabelId>,
    pub(crate) parent: Store<NodeId>,
    pub(crate) first_child: Store<NodeId>,
    pub(crate) next_sibling: Store<NodeId>,
    /// Index into `texts` for text/attribute nodes, `u32::MAX` otherwise.
    pub(crate) text_ref: Store<u32>,
    pub(crate) texts: StrTable,
}

impl Document {
    /// Number of nodes (elements + attributes + text nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Documents always have a root element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root element (node 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// The document's label alphabet.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> LabelId {
        self.labels[v as usize]
    }

    /// Label name of `v`.
    #[inline]
    pub fn name(&self, v: NodeId) -> &str {
        self.alphabet.name(self.label(v))
    }

    /// Node kind of `v` (element / text / attribute).
    #[inline]
    pub fn kind(&self, v: NodeId) -> LabelKind {
        self.alphabet.kind(self.label(v))
    }

    /// Parent of `v`, or [`NONE`] for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// First child (`π·1`), or [`NONE`].
    #[inline]
    pub fn first_child(&self, v: NodeId) -> NodeId {
        self.first_child[v as usize]
    }

    /// Next sibling (`π·2`), or [`NONE`].
    #[inline]
    pub fn next_sibling(&self, v: NodeId) -> NodeId {
        self.next_sibling[v as usize]
    }

    /// Text content of a text or attribute node, `None` for elements.
    pub fn text(&self, v: NodeId) -> Option<&str> {
        let r = self.text_ref[v as usize];
        if r == u32::MAX {
            None
        } else {
            Some(self.texts.get(r as usize))
        }
    }

    /// Iterator over the children of `v` in document order.
    pub fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.first_child(v);
        std::iter::from_fn(move || {
            if cur == NONE {
                None
            } else {
                let out = cur;
                cur = self.next_sibling(out);
                Some(out)
            }
        })
    }

    /// Iterator over all nodes in document order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.len() as NodeId
    }

    /// Serializes the document back to XML text.
    ///
    /// Attribute nodes become attributes, text nodes are escaped, everything
    /// else round-trips through [`crate::parse`].
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_node(0, &mut out);
        out
    }

    fn write_node(&self, v: NodeId, out: &mut String) {
        match self.kind(v) {
            LabelKind::Text => escape_text(self.text(v).unwrap_or(""), out),
            LabelKind::Attribute => {
                // Attributes are emitted by their parent element.
            }
            LabelKind::Element => {
                let name = self.name(v);
                let _ = write!(out, "<{name}");
                let mut child = self.first_child(v);
                // Attributes come first by construction.
                while child != NONE && self.kind(child) == LabelKind::Attribute {
                    let aname = &self.name(child)[1..]; // strip '@'
                    let _ = write!(out, " {aname}=\"");
                    escape_attr(self.text(child).unwrap_or(""), out);
                    out.push('"');
                    child = self.next_sibling(child);
                }
                if child == NONE {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                while child != NONE {
                    self.write_node(child, out);
                    child = self.next_sibling(child);
                }
                let _ = write!(out, "</{name}>");
            }
        }
    }

    /// Borrowed views of every internal array, in a fixed order used by the
    /// `.xwqi` persistence layer: `(labels, parent, first_child,
    /// next_sibling, text_ref)` plus the text arena via [`Self::texts`].
    #[allow(clippy::type_complexity)]
    pub fn raw_arrays(&self) -> (&[LabelId], &[NodeId], &[NodeId], &[NodeId], &[u32]) {
        (
            self.labels.as_slice(),
            self.parent.as_slice(),
            self.first_child.as_slice(),
            self.next_sibling.as_slice(),
            self.text_ref.as_slice(),
        )
    }

    /// The distinct-text arena backing [`Self::text`], in id order.
    pub fn texts(&self) -> &StrTable {
        &self.texts
    }

    /// The navigation arrays as cloneable stores `(parent, first_child,
    /// next_sibling)` — a zero-copy loaded topology shares these views
    /// instead of copying them.
    pub fn nav_stores(&self) -> (&Store<NodeId>, &Store<NodeId>, &Store<NodeId>) {
        (&self.parent, &self.first_child, &self.next_sibling)
    }

    /// Reassembles a document from serialized arrays (the `.xwqi`
    /// persistence layer; each array may be an owned `Vec` or a borrowed
    /// [`Store`] view). Validates every structural invariant needed so
    /// that no later navigation or query can index out of bounds: equal
    /// array lengths, label ids inside the alphabet, node references that
    /// are in-range or [`NONE`], a rooted parent structure, and text refs
    /// that land inside `texts` exactly for text/attribute labels.
    pub fn from_raw_parts(
        alphabet: Alphabet,
        labels: impl Into<Store<LabelId>>,
        parent: impl Into<Store<NodeId>>,
        first_child: impl Into<Store<NodeId>>,
        next_sibling: impl Into<Store<NodeId>>,
        text_ref: impl Into<Store<u32>>,
        texts: impl Into<StrTable>,
    ) -> Result<Self, String> {
        let (labels, parent, first_child) = (labels.into(), parent.into(), first_child.into());
        let (next_sibling, text_ref, texts) = (next_sibling.into(), text_ref.into(), texts.into());
        let n = labels.len();
        if n == 0 {
            return Err("document: no nodes".to_string());
        }
        if n > NONE as usize {
            return Err(format!("document: {n} nodes exceeds the u32 id space"));
        }
        if [
            parent.len(),
            first_child.len(),
            next_sibling.len(),
            text_ref.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err("document: array length mismatch".to_string());
        }
        let (labels_s, parent_s, first_child_s, next_sibling_s, text_ref_s) = (
            labels.as_slice(),
            parent.as_slice(),
            first_child.as_slice(),
            next_sibling.as_slice(),
            text_ref.as_slice(),
        );
        // Per-label class: 0 element, 1 text or attribute, 2 (the extra
        // last slot, which every out-of-alphabet label clamps to) invalid.
        let n_labels = alphabet.len();
        let classes: Vec<u32> = (0..n_labels as LabelId)
            .map(|l| {
                u32::from(matches!(
                    alphabet.kind(l),
                    LabelKind::Text | LabelKind::Attribute
                ))
            })
            .chain([2])
            .collect();
        // A text ref must be below this; `u32::MAX` (none) never is.
        let n_texts = texts.len().min(u32::MAX as usize) as u32;
        let last = n - 1;
        // Two branch-free passes check every structural invariant of a
        // node, each returning one failure bit per check (bit `b` is named
        // by `CHECKS[b]`): the first reads only the link arrays (the parent
        // of `v + 1` included), the second does the per-label and
        // next-sibling lookups. One pass doing both measured slower on a
        // 1.2M-node document. Clamped reads only matter where a range test
        // already failed.
        const CHECKS: [&str; 7] = [
            "violates the preorder parent invariant",
            "has an inconsistent first child",
            "has an out-of-range next sibling",
            "has a label outside the alphabet",
            "has an invalid text ref",
            "is an element carrying a text ref",
            "has a next sibling with another parent",
        ];
        let links = |v: usize| {
            let (p, fc, ns) = (parent_s[v], first_child_s[v], next_sibling_s[v]);
            // Preorder parent invariant: the root has none, every other
            // node's parent precedes it (ruling out cycles outright).
            let parent_bad = (p as usize >= v) & ((v != 0) | (p != NONE));
            // A first child is its parent's successor and points back.
            let fc_bad = (fc != NONE)
                & ((fc as usize != v + 1) | (parent_s[(v + 1).min(last)] as usize != v));
            // A next sibling lies in `v + 1..n`.
            let ns_bad = (ns != NONE) & ((ns as usize).wrapping_sub(v + 1) >= n - v - 1);
            u32::from(parent_bad) | u32::from(fc_bad) << 1 | u32::from(ns_bad) << 2
        };
        let kinds = |v: usize| {
            let class = classes[(labels_s[v] as usize).min(n_labels)];
            let (tr, ns) = (text_ref_s[v], next_sibling_s[v]);
            let text_missing = (class == 1) & (tr >= n_texts);
            let element_text = (class == 0) & (tr != u32::MAX);
            let sibling_bad = (ns != NONE) & (parent_s[(ns as usize).min(last)] != parent_s[v]);
            u32::from(class == 2) << 3
                | u32::from(text_missing) << 4
                | u32::from(element_text) << 5
                | u32::from(sibling_bad) << 6
        };
        if let Some((v, check)) = first_bad(n, links).or_else(|| first_bad(n, kinds)) {
            return Err(format!("document: node {v} {}", CHECKS[check]));
        }
        Ok(Self {
            alphabet,
            labels,
            parent,
            first_child,
            next_sibling,
            text_ref,
            texts,
        })
    }

    /// Approximate heap footprint in bytes (for the memory experiment;
    /// borrowed views count 0 — their memory belongs to the mapping).
    pub fn heap_bytes(&self) -> usize {
        self.labels.heap_bytes()
            + self.parent.heap_bytes()
            + self.first_child.heap_bytes()
            + self.next_sibling.heap_bytes()
            + self.text_ref.heap_bytes()
            + self.texts.heap_bytes()
    }
}

/// The first `i < n` whose failure code `check(i)` is nonzero, with the
/// lowest set bit of that code (the first check it failed). Each
/// 64-element chunk is folded without a branch per element (`acc |
/// (check(i) != 0)`); only a chunk that fails is rescanned to find the
/// element. `check` must be a pure function of `i`.
pub fn first_bad(n: usize, check: impl Fn(usize) -> u32) -> Option<(usize, usize)> {
    const CHUNK: usize = 64;
    (0..n).step_by(CHUNK).find_map(|lo| {
        let chunk = lo..(lo + CHUNK).min(n);
        if !chunk.clone().fold(false, |acc, i| acc | (check(i) != 0)) {
            return None;
        }
        chunk
            .map(|i| (i, check(i)))
            .find(|&(_, code)| code != 0)
            .map(|(i, code)| (i, code.trailing_zeros() as usize))
    })
}

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[allow(clippy::type_complexity)]
    fn parts(
        doc: &Document,
    ) -> (
        Alphabet,
        Vec<LabelId>,
        Vec<NodeId>,
        Vec<NodeId>,
        Vec<NodeId>,
        Vec<u32>,
        Vec<String>,
    ) {
        let (labels, parent, first_child, next_sibling, text_ref) = doc.raw_arrays();
        (
            doc.alphabet().clone(),
            labels.to_vec(),
            parent.to_vec(),
            first_child.to_vec(),
            next_sibling.to_vec(),
            text_ref.to_vec(),
            doc.texts().iter().map(String::from).collect(),
        )
    }

    #[test]
    fn raw_parts_roundtrip() {
        let doc = parse(r#"<a x="1"><b>t</b><c/></a>"#).unwrap();
        let (al, l, p, fc, ns, tr, tx) = parts(&doc);
        let re = Document::from_raw_parts(al, l, p, fc, ns, tr, tx).unwrap();
        assert_eq!(doc.to_xml(), re.to_xml());
    }

    #[test]
    fn first_bad_names_the_first_node_and_its_lowest_failed_check() {
        assert_eq!(first_bad(200, |_| 0), None);
        let code = |i: usize| match i {
            130 => 0b110,
            131 | 199 => 0b1,
            _ => 0,
        };
        assert_eq!(first_bad(200, code), Some((130, 1)));
        assert_eq!(first_bad(130, code), None);
        assert_eq!(first_bad(200, |i| u32::from(i == 199) << 4), Some((199, 4)));
    }

    #[test]
    fn parent_cycles_and_orphans_are_rejected() {
        let doc = parse("<a><b/><c/></a>").unwrap();
        // Cycle between unreachable-by-children nodes 1 and 2.
        let (al, l, mut p, _, _, tr, tx) = parts(&doc);
        p[1] = 2;
        p[2] = 1;
        let fc = vec![NONE; 3];
        let ns = vec![NONE; 3];
        let err = Document::from_raw_parts(
            al.clone(),
            l.clone(),
            p,
            fc.clone(),
            ns.clone(),
            tr.clone(),
            tx.clone(),
        )
        .unwrap_err();
        assert!(err.contains("preorder parent invariant"), "{err}");
        // Orphan (non-root node without a parent).
        let (_, _, mut p, _, _, _, _) = parts(&doc);
        p[2] = NONE;
        assert!(Document::from_raw_parts(al, l, p, fc, ns, tr, tx).is_err());
    }

    #[test]
    fn structural_lies_are_rejected() {
        let doc = parse("<a><b>t</b></a>").unwrap();
        let (al, l, p, fc, ns, tr, tx) = parts(&doc);
        // Label outside the alphabet.
        let mut bad = l.clone();
        bad[1] = 99;
        assert!(Document::from_raw_parts(
            al.clone(),
            bad,
            p.clone(),
            fc.clone(),
            ns.clone(),
            tr.clone(),
            tx.clone()
        )
        .is_err());
        // Text ref on an element.
        let mut bad = tr.clone();
        bad[0] = 0;
        assert!(Document::from_raw_parts(
            al.clone(),
            l.clone(),
            p.clone(),
            fc.clone(),
            ns.clone(),
            bad,
            tx.clone()
        )
        .is_err());
        // First child that skips a preorder id.
        let mut bad = fc.clone();
        bad[0] = 2;
        assert!(Document::from_raw_parts(al, l, p, bad, ns, tr, tx).is_err());
    }
}
