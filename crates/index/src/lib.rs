//! The tree index: navigation plus the jumping primitives of Def. 3.2.
//!
//! The paper executes automata over an index that can, from any node, jump
//! to the next node with a label in a set `L` — first labelled descendant
//! (`dt`), first labelled following node within a subtree (`ft`), and the
//! labelled left-most path descendant (`lt`) — plus constant-time global
//! label counts (used by the hybrid strategy).
//!
//! [`TreeIndex`] keeps one sorted preorder array per label. `dt` and `ft`
//! are [`TreeIndex::first_labeled_in_range`] over
//! [`TreeIndex::bin_subtree_end`] bounds; `lt` is
//! [`TreeIndex::jump_leftmost`]. Tree *topology* (first-child /
//! next-sibling / parent / subtree extents) is provided either by plain
//! arrays ([`TopologyKind::Array`], fast, pointer-heavy) or by a
//! balanced-parentheses succinct tree ([`TopologyKind::Succinct`],
//! compact) — reproducing the paper's §1 memory argument. Both expose
//! identical semantics; `cargo bench` has an ablation comparing them.
//!
//! Throughout, nodes are preorder ids and [`NONE`] is the `#` leaf of the
//! binary (first-child/next-sibling) view.

mod fxhash;
mod index;
mod topology;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{IndexStats, LabelAncestors, LabelStat, TreeIndex};
pub use topology::{ArrayTopology, SuccinctTopology, Topology, TopologyKind};

pub use xwq_xml::{Alphabet, Document, LabelId, LabelKind, LabelSet, NodeId, NONE};
