//! `xwq-serve` — the network serving tier.
//!
//! A dependency-free (`std::net`) HTTP/1.1 server that exposes a
//! [`xwq_shard::ShardedSession`] — the sharded, admission-controlled
//! corpus — over three routes:
//!
//! * `POST /query`: XPath over the corpus. Structured JSON, exact
//!   CLI-stdout text, or **streaming** NDJSON over chunked transfer,
//!   where each document's row is written as its shard finishes — the
//!   first result reaches the client while the slowest shard is still
//!   evaluating (see `ShardedSession::query_corpus_streaming`).
//! * `GET /metrics`: the [`xwq_obs::Registry`] in Prometheus text
//!   exposition, including this crate's own request/connection metrics.
//! * `GET /healthz`: liveness.
//!
//! The connection model is the engine's own [`xwq_store::pool::Pool`] one
//! layer up: a bounded accept queue feeding a fixed set of handlers, keep-alive
//! pipelining, per-request read/write timeouts, and overload that
//! degrades loudly (`503` + `Retry-After`, `408`, `413`) instead of
//! wedging. [`Server::shutdown`] drains gracefully: stop accepting,
//! finish everything accepted, join.
//!
//! [`loadgen`] is the matching open-loop, closed-socket load generator
//! (`xwq loadgen`), which reports p50/p99 latency and the error rate.

pub mod http;
pub mod json;
pub mod loadgen;
pub mod server;
pub mod signal;

pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use server::{ServeConfig, Server};
