//! XML document model for the whole-query-optimization engine.
//!
//! The paper (§2) works over binary trees obtained from XML via the
//! first-child/next-sibling encoding, with node labels drawn from a finite
//! alphabet Σ. This crate provides:
//!
//! * [`Alphabet`] — an interner mapping label names to dense [`LabelId`]s,
//!   distinguishing element, text (`#text`) and attribute (`@name`) labels.
//! * [`LabelSet`] — a bitset over an alphabet, the `L` in transitions
//!   `(q, L, q₁, q₂)` (Def. 2.1). Cofinite sets like Σ∖{a} are materialized
//!   against the document alphabet (see DESIGN.md).
//! * [`Document`] — the parsed tree in preorder arrays: labels, parent,
//!   first-child, next-sibling (the FCNS binary view is exactly the last two).
//! * [`parse`] / [`Document::to_xml`] — a small non-validating parser and
//!   serializer (elements, attributes, text, CDATA, comments, numeric and
//!   named entities).
//! * [`TreeBuilder`] — programmatic document construction, used by the XMark
//!   generator and tests.

mod builder;
mod document;
mod label;
mod parser;

pub use builder::TreeBuilder;
pub use document::{first_bad, Document, NodeId, NONE};
pub use label::{Alphabet, LabelId, LabelKind, LabelSet};
pub use parser::{parse, parse_bytes, parse_bytes_seeded, parse_seeded, ParseError};
