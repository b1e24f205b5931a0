//! The jumping tree index (Def. 3.2).

use crate::{Topology, TopologyKind};
use std::sync::{Arc, OnceLock};
use xwq_succinct::{Store, StrTable};
use xwq_xml::{first_bad, Alphabet, Document, LabelId, LabelKind, LabelSet, NodeId, NONE};

/// Per-label statistics the cost-based query planner consumes.
#[derive(Clone, Copy, Debug, Default)]
pub struct LabelStat {
    /// Number of nodes carrying the label (`== label_count`).
    pub count: u32,
    /// Shallowest occurrence (root = 0); `u32::MAX` for absent labels.
    pub min_depth: u32,
    /// Deepest occurrence; 0 for absent labels.
    pub max_depth: u32,
    /// Sum of occurrence depths (`/ count` = mean depth).
    pub total_depth: u64,
    /// Sum of child counts over occurrences (`/ count` = mean fanout).
    pub total_children: u64,
    /// Sum of subtree sizes (self included) over occurrences
    /// (`/ count` = mean subtree extent).
    pub total_subtree: u64,
}

impl LabelStat {
    /// Mean depth of this label's occurrences (0 when absent).
    pub fn avg_depth(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_depth as f64 / self.count as f64
        }
    }

    /// Mean number of children of this label's occurrences.
    pub fn avg_children(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_children as f64 / self.count as f64
        }
    }

    /// Mean subtree size (self included) of this label's occurrences.
    pub fn avg_subtree(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.total_subtree as f64 / self.count as f64
        }
    }
}

/// Whole-document statistics: per-label aggregates plus a depth histogram.
/// Computed lazily on first use (one topology pass) and shared between
/// clones of the same index, so the zero-copy mmap open path never pays
/// for them up front. The planner's cost model consumes the per-label
/// counts, min/mean depths, fanouts and subtree extents; the histogram
/// and max depths ride along for tooling (they fall out of the same pass
/// for free).
#[derive(Clone, Debug, Default)]
pub struct IndexStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Deepest node (root = 0).
    pub max_depth: u32,
    /// One entry per alphabet label.
    pub labels: Vec<LabelStat>,
    /// `depth_histogram[d]` = number of nodes at depth `d` (clamped into
    /// the last bucket beyond [`Self::DEPTH_BUCKETS`]).
    pub depth_histogram: Vec<u32>,
}

impl IndexStats {
    /// Number of exact depth-histogram buckets; deeper nodes share the last.
    pub const DEPTH_BUCKETS: usize = 64;

    fn compute(ix: &TreeIndex) -> Self {
        let n = ix.len();
        let mut labels = vec![LabelStat::default(); ix.alphabet.len()];
        for s in &mut labels {
            s.min_depth = u32::MAX;
        }
        let mut depth_histogram = vec![0u32; Self::DEPTH_BUCKETS + 1];
        let mut max_depth = 0u32;
        for v in 0..n as NodeId {
            let d = ix.depth(v);
            max_depth = max_depth.max(d);
            depth_histogram[(d as usize).min(Self::DEPTH_BUCKETS)] += 1;
            let s = &mut labels[ix.label(v) as usize];
            s.count += 1;
            s.min_depth = s.min_depth.min(d);
            s.max_depth = s.max_depth.max(d);
            s.total_depth += d as u64;
            s.total_subtree += (ix.subtree_end(v) - v) as u64;
            let p = ix.parent(v);
            if p != NONE {
                labels[ix.label(p) as usize].total_children += 1;
            }
        }
        Self {
            nodes: n,
            max_depth,
            labels,
            depth_histogram,
        }
    }
}

/// A static index over one document: topology + per-label preorder arrays.
///
/// All jumping functions run in O(|L| · log n); navigation is O(1) (array
/// topology) or O(polylog) (succinct topology). `label_count` is O(1), which
/// the hybrid evaluation strategy (§4.4) relies on.
#[derive(Clone, Debug)]
pub struct TreeIndex {
    alphabet: Alphabet,
    labels: Store<LabelId>,
    topo: Topology,
    /// For each label, the sorted list of preorder ids carrying it. Each
    /// list is a [`Store`]: owned when built, a zero-copy view when loaded
    /// from a memory-mapped `.xwqi` file.
    label_lists: Vec<Store<NodeId>>,
    /// Distinct text/attribute contents, interned.
    text_values: StrTable,
    /// Content id per node (`u32::MAX` for elements).
    text_ids: Store<u32>,
    /// Per content id, the nodes carrying it in document order, as one
    /// CSR pair: id `i`'s nodes are `text_nodes[text_offsets[i]..
    /// text_offsets[i + 1]]`. Always derived in memory from `text_ids` —
    /// it is not part of the wire format.
    text_offsets: Vec<u32>,
    text_nodes: Vec<NodeId>,
    /// Lazily computed planner statistics, shared across clones.
    stats: Arc<OnceLock<IndexStats>>,
    /// Per-label prefix maxima of subtree ends over the preorder lists
    /// (`pm[l][i] = max(subtree_end(list_l[j]) for j ≤ i)`), built lazily
    /// on the first ancestor probe and shared across clones. One extra
    /// `u32` per node in total.
    anc_ends: Arc<OnceLock<Vec<Vec<NodeId>>>>,
    /// Process-unique identity, shared by clones (see [`Self::identity`]).
    uid: u64,
}

/// Backing counter for [`TreeIndex::identity`]; never reused, so a stale
/// cache tag can never collide with a later document the way a recycled
/// heap address could.
static NEXT_INDEX_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl TreeIndex {
    /// Builds an index with the default (array) topology.
    pub fn build(doc: &Document) -> Self {
        Self::build_with(doc, TopologyKind::Array)
    }

    /// Builds an index with an explicit topology backend.
    pub fn build_with(doc: &Document, kind: TopologyKind) -> Self {
        let alphabet = doc.alphabet().clone();
        let labels: Vec<LabelId> = doc.nodes().map(|v| doc.label(v)).collect();
        let mut label_lists = vec![Vec::new(); alphabet.len()];
        for (v, &l) in labels.iter().enumerate() {
            label_lists[l as usize].push(v as NodeId);
        }
        // Text index: intern distinct contents, invert to node lists
        // (the stand-in for SXSI's compressed text index — the interface
        // is "which nodes carry this content", in document order).
        let mut text_values: Vec<String> = Vec::new();
        let mut text_map: crate::FxHashMap<String, u32> = crate::FxHashMap::default();
        let mut text_ids = vec![u32::MAX; doc.len()];
        for v in doc.nodes() {
            if let Some(t) = doc.text(v) {
                let id = *text_map.entry(t.to_string()).or_insert_with(|| {
                    text_values.push(t.to_string());
                    (text_values.len() - 1) as u32
                });
                text_ids[v as usize] = id;
            }
        }
        let (text_offsets, text_nodes) = text_csr(&text_ids, text_values.len());
        Self {
            alphabet,
            labels: labels.into(),
            topo: Topology::build(doc, kind),
            label_lists: label_lists.into_iter().map(Store::from).collect(),
            text_values: text_values.into(),
            text_ids: text_ids.into(),
            text_offsets,
            text_nodes,
            stats: Arc::new(OnceLock::new()),
            anc_ends: Arc::new(OnceLock::new()),
            uid: NEXT_INDEX_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The indexed document's alphabet.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The topology backend (for persistence).
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The distinct text contents, in id order (for persistence).
    pub fn text_values(&self) -> &StrTable {
        &self.text_values
    }

    /// Per-node content ids, `u32::MAX` for elements (for persistence).
    pub fn text_ids(&self) -> &[u32] {
        &self.text_ids
    }

    /// Reassembles an index from deserialized parts (the `.xwqi`
    /// persistence layer). `label_lists` (the per-label preorder arrays)
    /// are validated to be a partition of `0..n` consistent with `labels`;
    /// the per-content inverted lists are rebuilt from `text_ids` in one
    /// pass (cheaper to derive than to store and validate).
    pub fn from_raw_parts(
        alphabet: Alphabet,
        labels: impl Into<Store<LabelId>>,
        topo: Topology,
        label_lists: Vec<Store<NodeId>>,
        text_values: impl Into<StrTable>,
        text_ids: impl Into<Store<u32>>,
    ) -> Result<Self, String> {
        let (labels, text_values, text_ids) = (labels.into(), text_values.into(), text_ids.into());
        let n = labels.len();
        if topo.len() != n {
            return Err("index: topology / label array length mismatch".to_string());
        }
        if label_lists.len() != alphabet.len() {
            return Err("index: one label list per alphabet entry required".to_string());
        }
        if text_ids.len() != n {
            return Err("index: text id array length mismatch".to_string());
        }
        let labels_s = labels.as_slice();
        let mut seen = 0usize;
        for (l, list) in label_lists.iter().enumerate() {
            let list = list.as_slice();
            // Entry `i` must be a node labelled `l` above its predecessor;
            // the clamped read only matters once the range test failed.
            let check = |i: usize| {
                let v = list[i];
                let wrong = (v as usize >= n) | (labels_s[(v as usize).min(n - 1)] as usize != l);
                let unordered = (i != 0) & (list[i.saturating_sub(1)] >= v);
                u32::from(wrong) | u32::from(unordered) << 1
            };
            if let Some((_, what)) = first_bad(list.len(), check) {
                let what = ["contains a wrong node", "is not strictly ascending"][what];
                return Err(format!("index: label list {l} {what}"));
            }
            seen += list.len();
        }
        if seen != n {
            return Err("index: label lists do not partition the nodes".to_string());
        }
        // A content id is carried exactly by the text and attribute nodes
        // (the partition above put every label inside the alphabet), and it
        // names one of `text_values`.
        let texty: Vec<bool> = alphabet
            .ids()
            .map(|l| matches!(alphabet.kind(l), LabelKind::Text | LabelKind::Attribute))
            .collect();
        let (ids, n_values) = (text_ids.as_slice(), text_values.len());
        let check = |v: usize| {
            let (has, texty) = (ids[v] != u32::MAX, texty[labels_s[v] as usize]);
            u32::from(texty & !has)
                | u32::from(!texty & has) << 1
                | u32::from(has & (ids[v] as usize >= n_values)) << 2
        };
        if let Some((v, what)) = first_bad(n, check) {
            let what = [
                "is a text or attribute node without a content id",
                "is an element carrying a content id",
                "has an out-of-range content id",
            ][what];
            return Err(format!("index: node {v} {what}"));
        }
        let (text_offsets, text_nodes) = text_csr(ids, text_values.len());
        Ok(Self {
            alphabet,
            labels,
            topo,
            label_lists,
            text_values,
            text_ids,
            text_offsets,
            text_nodes,
            stats: Arc::new(OnceLock::new()),
            anc_ends: Arc::new(OnceLock::new()),
            uid: NEXT_INDEX_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        0
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

    /// First child (`π·1`) or [`NONE`].
    #[inline]
    pub fn first_child(&self, v: NodeId) -> NodeId {
        self.topo.first_child(v)
    }

    /// Next sibling (`π·2`) or [`NONE`].
    #[inline]
    pub fn next_sibling(&self, v: NodeId) -> NodeId {
        self.topo.next_sibling(v)
    }

    /// Parent or [`NONE`].
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.topo.parent(v)
    }

    /// One past the last id of `v`'s XML subtree.
    #[inline]
    pub fn subtree_end(&self, v: NodeId) -> NodeId {
        self.topo.subtree_end(v)
    }

    /// Depth of `v` (root = 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.topo.depth(v)
    }

    /// True if `a` is a strict XML ancestor of `d`.
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a < d && d < self.subtree_end(a)
    }

    /// One past the last id of `v`'s subtree *in the binary (FCNS) view*:
    /// `v`'s XML subtree plus all following siblings and their subtrees.
    #[inline]
    pub fn bin_subtree_end(&self, v: NodeId) -> NodeId {
        self.topo.parent_subtree_end(v)
    }

    /// Global number of nodes labelled `l` — O(1), used by hybrid evaluation.
    #[inline]
    pub fn label_count(&self, l: LabelId) -> usize {
        self.label_lists[l as usize].len()
    }

    /// Planner statistics (label list lengths, depth histograms, fanouts),
    /// computed on first call with one topology pass and cached; clones of
    /// this index share the cache.
    pub fn stats(&self) -> &IndexStats {
        self.stats.get_or_init(|| IndexStats::compute(self))
    }

    /// A cheap process-unique identity for this index, shared by clones.
    /// Per-`(document, query)` plan and memo caches tag their entries with
    /// it to detect being handed a different document. Drawn from a
    /// never-reused counter, so — unlike a heap address — a dropped
    /// document's identity can never be recycled by a later one (no ABA).
    pub fn identity(&self) -> u64 {
        self.uid
    }

    /// All nodes labelled `l`, in document order.
    #[inline]
    pub fn label_list(&self, l: LabelId) -> &[NodeId] {
        &self.label_lists[l as usize]
    }

    fn anc_ends(&self) -> &[Vec<NodeId>] {
        self.anc_ends.get_or_init(|| {
            self.label_lists
                .iter()
                .map(|list| {
                    let mut pm = Vec::with_capacity(list.len());
                    let mut m: NodeId = 0;
                    for &v in list.iter() {
                        m = m.max(self.subtree_end(v));
                        pm.push(m);
                    }
                    pm
                })
                .collect()
        })
    }

    /// Does `v` have a strict ancestor labelled `l`? Two binary searches
    /// over `l`'s preorder list and its prefix-max subtree-end array: the
    /// candidates are the entries `u < v`, and since preorder ranges are
    /// laminar, one of them contains `v` iff the running maximum of their
    /// subtree ends exceeds `v`.
    pub fn has_label_ancestor(&self, l: LabelId, v: NodeId) -> bool {
        let list = &self.label_lists[l as usize];
        let k = list.partition_point(|&u| u < v);
        k > 0 && self.anc_ends()[l as usize][k - 1] > v
    }

    /// The ancestors of `v` labelled `l`, outermost first. Each yielded
    /// node is found with O(log n) work: the walk starts at the outermost
    /// containing entry (binary search on the prefix-max array) and skips
    /// every non-containing same-label subtree with one binary search.
    /// This is the index primitive behind the VM's `UpwardMatch` lowering
    /// — deep upward contexts cost O(log n) per candidate instead of a
    /// parent-chain walk.
    pub fn label_ancestors(&self, l: LabelId, v: NodeId) -> LabelAncestors<'_> {
        let list: &[NodeId] = &self.label_lists[l as usize];
        let pm = &self.anc_ends()[l as usize];
        let k = list.partition_point(|&u| u < v);
        // First containing entry: `pm[i] > v ≥ pm[i-1]` means entry `i`
        // itself ends past `v` (it set the new maximum), and no earlier
        // entry contains `v`.
        let pos = pm[..k].partition_point(|&e| e <= v);
        LabelAncestors {
            ix: self,
            list,
            v,
            pos,
            k,
            probes: 2,
        }
    }

    /// The nearest (deepest) strict ancestor of `v` labelled `l`.
    pub fn nearest_label_ancestor(&self, l: LabelId, v: NodeId) -> Option<NodeId> {
        self.label_ancestors(l, v).last()
    }

    /// Smallest node id in `[lo, hi)` whose label is in `L`, or [`NONE`].
    ///
    /// This is the primitive behind `dt` and `ft`: one binary search per
    /// label in `L`.
    pub fn first_labeled_in_range(&self, lo: NodeId, hi: NodeId, l_set: &LabelSet) -> NodeId {
        if lo >= hi {
            return NONE;
        }
        let mut best = NONE;
        for l in l_set.iter() {
            let list = &self.label_lists[l as usize];
            let i = list.partition_point(|&v| v < lo);
            if let Some(&v) = list.get(i) {
                if v < hi && (best == NONE || v < best) {
                    best = v;
                }
            }
        }
        best
    }

    /// `dt` in the *XML* sense: first strict XML descendant of `v` with label
    /// in `L`.
    #[inline]
    pub fn jump_desc_xml(&self, v: NodeId, l_set: &LabelSet) -> NodeId {
        self.first_labeled_in_range(v + 1, self.subtree_end(v), l_set)
    }

    /// `lt(π, L)`: first node on the binary left-most path below `π`
    /// (`π·1`, `π·1·1`, …, i.e. the first-child chain) with label in `L`.
    pub fn jump_leftmost(&self, v: NodeId, l_set: &LabelSet) -> NodeId {
        let mut cur = self.first_child(v);
        while cur != NONE {
            if l_set.contains(self.label(cur)) {
                return cur;
            }
            cur = self.first_child(cur);
        }
        NONE
    }

    /// Node kind shortcut.
    #[inline]
    pub fn kind(&self, v: NodeId) -> LabelKind {
        self.alphabet.kind(self.label(v))
    }

    /// Approximate heap footprint in bytes: every owned array, the text
    /// lists (always owned) and the ancestor-probe arrays once built.
    /// Borrowed views count 0 — their memory belongs to the mapping.
    pub fn heap_bytes(&self) -> usize {
        let word_bytes = std::mem::size_of::<NodeId>();
        self.topo.heap_bytes()
            + self.labels.heap_bytes()
            + self
                .label_lists
                .iter()
                .map(|l| l.heap_bytes())
                .sum::<usize>()
            + self.text_values.heap_bytes()
            + self.text_ids.heap_bytes()
            + (self.text_offsets.capacity() + self.text_nodes.capacity()) * word_bytes
            + self.anc_ends.get().map_or(0, |lists| {
                lists
                    .iter()
                    .map(|pm| pm.capacity() * word_bytes)
                    .sum::<usize>()
            })
    }

    /// Heap footprint of the topology alone (for the memory ablation).
    pub fn topology_heap_bytes(&self) -> usize {
        self.topo.heap_bytes()
    }

    /// Text content of a text/attribute node, `None` for elements.
    pub fn text_of(&self, v: NodeId) -> Option<&str> {
        let id = self.text_ids[v as usize];
        if id == u32::MAX {
            None
        } else {
            Some(self.text_values.get(id as usize))
        }
    }

    /// Content id of a text/attribute node, `None` for elements (the id
    /// form of [`Self::text_of`], for content-id comparisons).
    #[inline]
    pub fn text_id_of(&self, v: NodeId) -> Option<u32> {
        let id = self.text_ids[v as usize];
        if id == u32::MAX {
            None
        } else {
            Some(id)
        }
    }

    /// Id of an exact text content, if it occurs in the document.
    pub fn lookup_text(&self, content: &str) -> Option<u32> {
        // The distinct-content list is scanned; for repeated lookups the
        // engine compiles the answer into the query once.
        self.text_values
            .iter()
            .position(|t| t == content)
            .map(|i| i as u32)
    }

    /// Nodes carrying exactly this content id, in document order.
    pub fn text_list(&self, id: u32) -> &[NodeId] {
        let id = id as usize;
        &self.text_nodes[self.text_offsets[id] as usize..self.text_offsets[id + 1] as usize]
    }

    /// Sorted nodes whose content *contains* `needle` (substring search
    /// over the distinct contents — the stand-in for SXSI's FM-index).
    pub fn text_nodes_containing(&self, needle: &str) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (i, t) in self.text_values.iter().enumerate() {
            if t.contains(needle) {
                out.extend_from_slice(self.text_list(i as u32));
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of distinct text contents.
    pub fn distinct_text_count(&self) -> usize {
        self.text_values.len()
    }
}

/// The per-content node lists of `text_ids` as one CSR pair `(offsets,
/// nodes)`: a counting pass sizes each id's run, a second pass drops every
/// node into its run, so each run is in document order. Every id must be
/// below `distinct` or `u32::MAX` (no content).
fn text_csr(text_ids: &[u32], distinct: usize) -> (Vec<u32>, Vec<NodeId>) {
    // Id `i` is counted at `i + 2`, so after the prefix sums `offsets[i +
    // 1]` is where its run starts; the fill then advances that cursor to
    // where the run ends, which is `i + 1`'s start — the finished offsets,
    // with no second cursor array. Nodes without content clamp to id
    // `distinct`: they all land in one spare entry that is cut off, so
    // neither pass branches on the id.
    let mut offsets = vec![0u32; distinct + 3];
    for &id in text_ids {
        offsets[(id as usize).min(distinct) + 2] += 1;
    }
    for i in 2..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let total = offsets[distinct + 1] as usize;
    let mut nodes = vec![0; total + 1];
    for (v, &id) in text_ids.iter().enumerate() {
        let i = (id as usize).min(distinct);
        let cursor = &mut offsets[i + 1];
        nodes[*cursor as usize] = v as NodeId;
        *cursor += u32::from(i < distinct);
    }
    offsets.truncate(distinct + 1);
    nodes.truncate(total);
    (offsets, nodes)
}

/// Iterator over the ancestors of one node carrying one label, outermost
/// first (see [`TreeIndex::label_ancestors`]). The containing entries of
/// a preorder list form a nested chain; the iterator walks the chain
/// inward, skipping each non-containing same-label subtree with one
/// binary search.
pub struct LabelAncestors<'a> {
    ix: &'a TreeIndex,
    list: &'a [NodeId],
    v: NodeId,
    /// Scan position in `list`.
    pos: usize,
    /// Exclusive bound: entries `≥ k` start at or after `v`.
    k: usize,
    probes: u32,
}

impl LabelAncestors<'_> {
    /// Binary searches performed so far (for `jumps` accounting).
    pub fn probes(&self) -> u32 {
        self.probes
    }
}

impl Iterator for LabelAncestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.pos < self.k {
            let u = self.list[self.pos];
            let end = self.ix.subtree_end(u);
            if end > self.v {
                // `u < v < end`: a containing chain member. The next
                // member, if any, lies strictly inside it.
                self.pos += 1;
                return Some(u);
            }
            // `u`'s subtree ends before `v`: no entry inside it can
            // contain `v` either — skip them all.
            self.pos += self.list[self.pos..self.k].partition_point(|&w| w < end);
            self.probes += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_xml::parse;

    /// `<a><b><c/><b/></b><c><b/></c></a>` — a=0 b=1 c=2 b=3 c=4 b=5.
    fn idx() -> TreeIndex {
        TreeIndex::build(&parse("<a><b><c/><b/></b><c><b/></c></a>").unwrap())
    }

    fn set(ix: &TreeIndex, names: &[&str]) -> LabelSet {
        LabelSet::from_ids(
            ix.alphabet().len(),
            names.iter().map(|n| ix.alphabet().lookup(n).unwrap()),
        )
    }

    #[test]
    fn label_ancestor_probes() {
        let ix = idx();
        let a = ix.alphabet().lookup("a").unwrap();
        let b = ix.alphabet().lookup("b").unwrap();
        let c = ix.alphabet().lookup("c").unwrap();
        assert!(ix.has_label_ancestor(a, 3));
        assert!(ix.has_label_ancestor(b, 3));
        assert!(!ix.has_label_ancestor(c, 3));
        assert!(!ix.has_label_ancestor(b, 1));
        assert_eq!(ix.label_ancestors(b, 3).collect::<Vec<_>>(), vec![1]);
        assert_eq!(ix.nearest_label_ancestor(b, 3), Some(1));
        assert_eq!(ix.nearest_label_ancestor(c, 5), Some(4));
        assert_eq!(ix.nearest_label_ancestor(c, 2), None);
        assert_eq!(ix.label_ancestors(a, 2).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn label_ancestors_match_parent_chain_walk() {
        let ix = TreeIndex::build(
            &parse("<a><b><a><b><a><b/><c/></a></b></a></b><a><c><a/></c></a></a>").unwrap(),
        );
        for v in 0..ix.len() as NodeId {
            for l in 0..ix.alphabet().len() as LabelId {
                let mut expect = Vec::new();
                let mut p = ix.parent(v);
                while p != NONE {
                    if ix.label(p) == l {
                        expect.push(p);
                    }
                    p = ix.parent(p);
                }
                expect.reverse();
                assert_eq!(
                    ix.label_ancestors(l, v).collect::<Vec<_>>(),
                    expect,
                    "label {l} node {v}"
                );
                assert_eq!(ix.has_label_ancestor(l, v), !expect.is_empty());
                assert_eq!(ix.nearest_label_ancestor(l, v), expect.last().copied());
            }
        }
    }

    #[test]
    fn label_lists_and_counts() {
        let ix = idx();
        let b = ix.alphabet().lookup("b").unwrap();
        assert_eq!(ix.label_list(b), &[1, 3, 5]);
        assert_eq!(ix.label_count(b), 3);
        assert_eq!(ix.label_count(ix.alphabet().lookup("a").unwrap()), 1);
    }

    #[test]
    fn xml_descendant_jumps() {
        let ix = idx();
        let bs = set(&ix, &["b"]);
        assert_eq!(ix.jump_desc_xml(0, &bs), 1);
        assert_eq!(ix.jump_desc_xml(1, &bs), 3);
        assert_eq!(ix.jump_desc_xml(4, &bs), 5);
        assert_eq!(ix.jump_desc_xml(5, &bs), NONE);
        let cs = set(&ix, &["c"]);
        assert_eq!(ix.jump_desc_xml(0, &cs), 2);
        // Multi-label jump picks the earliest.
        let bc = set(&ix, &["b", "c"]);
        assert_eq!(ix.jump_desc_xml(0, &bc), 1);
    }

    #[test]
    fn binary_subtree_ends() {
        let ix = idx();
        // Binary subtree of node 1 (b) = 1..6 (its subtree + sibling c's).
        assert_eq!(ix.bin_subtree_end(1), 6);
        assert_eq!(ix.bin_subtree_end(2), 4); // c(2) + sibling b(3)
        assert_eq!(ix.bin_subtree_end(0), 6);
        assert_eq!(ix.bin_subtree_end(5), 6);
    }

    #[test]
    fn following_jumps() {
        let ix = idx();
        let bs = set(&ix, &["b"]);
        // `ft` as the evaluator issues it: the first b after `v`'s binary
        // subtree, inside the scope's binary subtree.
        let ft = |v, scope| {
            ix.first_labeled_in_range(ix.bin_subtree_end(v), ix.bin_subtree_end(scope), &bs)
        };
        // After node 1's *binary* subtree (1..6) there is nothing.
        assert_eq!(ft(1, 0), NONE);
        // After node 2's binary subtree (2..4): b at 5 is inside scope 1.
        assert_eq!(ft(2, 1), 5);
    }

    #[test]
    fn leftmost_paths() {
        let ix = idx();
        let cs = set(&ix, &["c"]);
        // Left-most path below a(0): b(1) then c(2).
        assert_eq!(ix.jump_leftmost(0, &cs), 2);
        let bs = set(&ix, &["b"]);
        assert_eq!(ix.jump_leftmost(0, &bs), 1);
    }

    #[test]
    fn ancestor_tests() {
        let ix = idx();
        assert!(ix.is_ancestor(0, 5));
        assert!(ix.is_ancestor(1, 3));
        assert!(!ix.is_ancestor(1, 4));
        assert!(!ix.is_ancestor(3, 3));
        assert!(!ix.is_ancestor(5, 0));
    }

    #[test]
    fn content_ids_sit_exactly_on_text_and_attribute_nodes() {
        // a=0 @id=1 b=2 text=3 b=4
        let ix = TreeIndex::build(&parse("<a id=\"x\"><b>t</b><b/></a>").unwrap());
        let rebuild = |ids: Vec<u32>| {
            let lists = ix
                .alphabet()
                .ids()
                .map(|l| Store::from(ix.label_list(l).to_vec()))
                .collect();
            let labels: Vec<LabelId> = (0..ix.len() as NodeId).map(|v| ix.label(v)).collect();
            let values: Vec<String> = ix.text_values().iter().map(String::from).collect();
            TreeIndex::from_raw_parts(
                ix.alphabet().clone(),
                labels,
                ix.topology().clone(),
                lists,
                values,
                ids,
            )
        };
        let ids = ix.text_ids().to_vec();
        assert!(rebuild(ids.clone()).is_ok());
        for (v, id, what) in [
            (3, u32::MAX, "without a content id"),
            (4, 0, "element carrying a content id"),
            (1, 2, "out-of-range content id"),
        ] {
            let mut bad = ids.clone();
            bad[v] = id;
            let Err(err) = rebuild(bad) else {
                panic!("node {v}: content id {id} accepted")
            };
            assert!(
                err.contains(&format!("node {v} ")) && err.contains(what),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_label_set_never_jumps() {
        let ix = idx();
        let empty = LabelSet::empty(ix.alphabet().len());
        assert_eq!(ix.jump_desc_xml(0, &empty), NONE);
        assert_eq!(ix.jump_leftmost(0, &empty), NONE);
    }
}
