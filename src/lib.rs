//! Umbrella crate for the XPath whole-query-optimization workspace.
//!
//! Re-exports every sub-crate so examples and integration tests can use a
//! single `xwq::` namespace. See the README for a tour and `xwq_core::Engine`
//! for the main entry point.

pub mod lint;

pub use xwq_baseline as baseline;
pub use xwq_core as core;
pub use xwq_index as index;
pub use xwq_obs as obs;
pub use xwq_serve as serve;
pub use xwq_shard as shard;
pub use xwq_store as store;
pub use xwq_succinct as succinct;
pub use xwq_xmark as xmark;
pub use xwq_xml as xml;
pub use xwq_xpath as xpath;
