//! Forward Core XPath: AST and parser (Def. C.1 of the paper).
//!
//! The fragment covers the paper's grammar — `descendant`, `child`,
//! `following-sibling` and `attribute` axes, node tests `tag | * | node() |
//! text()`, and predicates built from `and`, `or`, `not(…)` and nested
//! paths — plus the abbreviations the paper's own queries use (`//x`, `@x`,
//! `.//x`, leading `/`), which desugar into the fragment.
//!
//! Semantics convention: an absolute path is evaluated from a *virtual
//! document node* sitting above the root element, so `/site` matches the
//! root element when it is named `site`, and `//x` matches any `x`
//! including the root element. Both the automaton compiler (`xwq-core`) and
//! the step-wise baseline (`xwq-baseline`) follow this convention.

mod ast;
mod parser;
mod rewrite;

pub use ast::{Axis, NodeTest, Path, Pred, Step};
pub use parser::{parse_xpath, XPathError, MAX_PREDICATE_DEPTH};
pub use rewrite::rewrite_forward;
