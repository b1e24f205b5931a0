//! The timed phase: closed and open request loops, the rungs of the call
//! ladder, and the check every response goes through.

use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xwq_core::{CompiledQuery, EvalScratch, EvalStats, ProgKind};
use xwq_index::NodeId;
use xwq_shard::ShardedSession;
use xwq_store::{DocumentStore, Session, SessionError, StoredDocument};

use crate::httpc::{self, Conn};
use crate::inputs::{Class, Requests};
use crate::oracle::Answer;
use crate::stats::{ns_u32, windowed, Windowed};
use crate::trace::{Tracer, NO_PARENT, SPAN_REQS_PER_RUNG};

/// What came back for one target document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Got {
    Nodes(Answer),
    /// A count-only response.
    Count(u64),
}

/// True if every target document's result is one of its right answers.
fn verify(class: &Class, got: &[Got]) -> bool {
    got.len() == class.expect.len()
        && got.iter().zip(&class.expect).all(|(g, allowed)| {
            allowed.iter().any(|a| match g {
                Got::Nodes(n) => n == a,
                Got::Count(c) => a.matches_count(*c),
            })
        })
}

/// What a rung brings back, before the benchmark looks at it: turning it
/// into [`Got`] (hashing node ids, parsing a body back) is the benchmark's
/// own work and happens outside the timed call, in [`settle`].
pub enum Raw {
    /// Per target document, the selected nodes or the document's error.
    Nodes(Vec<Result<Vec<NodeId>, String>>),
    Http(httpc::Response),
}

/// A way of sending one request into the system at some layer.
pub trait Rung {
    /// The span name, `<layer>.<call>`.
    fn name(&self) -> &'static str;
    /// The timed part: the call into the system and nothing else.
    fn call(&mut self, class_idx: usize, class: &Class) -> Result<Raw, String>;
    /// For rungs that visit a request's documents in turn: the time of the
    /// last call if the shards had run in parallel, as they do one rung up.
    fn critical_ns(&self) -> Option<u32> {
        None
    }
}

/// Checks what a call brought back against the oracle; `Err` says what
/// was wrong.
pub fn settle(class: &Class, raw: Result<Raw, String>) -> Result<(), String> {
    let got: Vec<Got> = match raw.map_err(|e| format!("{:?} failed: {e}", class.query))? {
        Raw::Nodes(rows) => rows
            .into_iter()
            .map(|row| row.map(|nodes| Got::Nodes(Answer::of(&nodes))))
            .collect::<Result<_, _>>(),
        Raw::Http(response) => httpc::parse_response(class.mode, &response),
    }
    .map_err(|e| format!("{:?} failed: {e}", class.query))?;
    if verify(class, &got) {
        Ok(())
    } else {
        Err(format!("wrong answer to {:?}: {got:?}", class.query))
    }
}

/// One timed request: which class and how long. `crit_ns` is the part of
/// `ns` a parallel fan-out could not go below (see [`Rung::critical_ns`]).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: u32,
    pub ns: u32,
    pub crit_ns: u32,
    /// When the request completed, µs from the start of its loop.
    pub end_us: u32,
}

impl Sample {
    /// A sample of a replay that keeps no completion times.
    pub fn untimed(class: usize, ns: u32, crit_ns: u32) -> Self {
        Self {
            class: class as u32,
            ns,
            crit_ns,
            end_us: 0,
        }
    }
}

#[derive(Debug, Default)]
pub struct LoopOut {
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub elapsed: f64,
    /// Failures that were `503` refusals.
    pub shed: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
}

impl LoopOut {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn latencies(&self) -> Vec<u32> {
        self.samples.iter().map(|s| s.ns).collect()
    }

    /// Throughput and latency percentiles of the loop, as the median of
    /// its consecutive windows (see [`windowed`]).
    pub fn windowed(&self) -> Option<Windowed> {
        let mut pairs: Vec<(u32, u32)> = self.samples.iter().map(|s| (s.end_us, s.ns)).collect();
        windowed(&mut pairs)
    }

    pub fn merge(&mut self, other: LoopOut) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        self.shed += other.shed;
        self.elapsed = self.elapsed.max(other.elapsed);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.shed += u64::from(why.contains("status 503"));
        self.first_error.get_or_insert(why);
    }
}

/// Where a traced loop writes its spans: request `i` of the sequence gets
/// a span named after the rung, whose parent is the span the rung above
/// recorded for the same request.
pub struct SpanSink<'a> {
    pub tracer: &'a mut Tracer,
    /// Span index per request id from the rung above (empty at the top).
    pub parents: &'a [u32],
    /// Filled with this rung's span index per request id.
    pub own: &'a mut Vec<u32>,
}

/// One client sending `reqs.sequence[first], [first + stride], …` (wrapping)
/// back to back until `seconds` have passed: a closed loop.
pub fn closed_loop(
    reqs: &Requests,
    first: usize,
    stride: usize,
    seconds: f64,
    rung: &mut dyn Rung,
    mut sink: Option<SpanSink<'_>>,
) -> LoopOut {
    let mut out = LoopOut::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut pos = first;
    loop {
        let req_id = pos;
        let class_idx = reqs.sequence[pos % reqs.sequence.len()] as usize;
        let class = &reqs.classes[class_idx];
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let result = rung.call(class_idx, class);
        let t1 = Instant::now();
        let ns = ns_u32(t1 - t0);
        out.samples.push(Sample {
            class: class_idx as u32,
            ns,
            crit_ns: rung.critical_ns().unwrap_or(ns),
            end_us: (t1 - start).as_micros() as u32,
        });
        if let Err(why) = settle(class, result) {
            out.fail(why);
        }
        if let Some(s) = sink.as_mut() {
            if (req_id as u32) < SPAN_REQS_PER_RUNG {
                let parent = s.parents.get(req_id).copied().unwrap_or(NO_PARENT);
                let id = s.tracer.record(rung.name(), req_id as u32, parent, t0, t1);
                if s.own.len() <= req_id {
                    s.own.resize(req_id + 1, NO_PARENT);
                }
                s.own[req_id] = id;
            }
        }
        pos += stride;
    }
    out.elapsed = start.elapsed().as_secs_f64();
    out
}

/// Result of one open-loop phase at a fixed rate.
#[derive(Debug, Default)]
pub struct OpenOut {
    pub rate: f64,
    /// Latencies from each request's *due* time.
    pub lat: LoopOut,
    pub scheduled: u64,
    /// Due before the phase ended but never sent: the backlog.
    pub unsent: u64,
    /// Sent more than one period after they were due.
    pub late: u64,
    /// How late the last request of the phase was sent, microseconds.
    pub final_lateness_us: f64,
}

/// An open loop over HTTP: request `k` is due at `k / rate` seconds and is
/// sent by whichever of `conns` connections is free first, never before
/// its due time; latency counts from the due time, so the wait a stall
/// imposes on later requests is measured, not omitted.
pub fn open_loop_http(
    reqs: &Requests,
    wire: &[Vec<u8>],
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    seconds: f64,
    first: usize,
) -> OpenOut {
    let scheduled = (rate * seconds).floor() as usize;
    let period = Duration::from_secs_f64(1.0 / rate);
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let mut out = OpenOut {
        rate,
        scheduled: scheduled as u64,
        ..OpenOut::default()
    };
    let parts: Vec<(LoopOut, u64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::open(addr).expect("loopback connect");
                    let mut lat = LoopOut::default();
                    let mut late = 0u64;
                    let mut last_lateness = 0.0f64;
                    loop {
                        // Relaxed: the counter only hands out distinct
                        // schedule slots; nothing else is published by it.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= scheduled {
                            break;
                        }
                        let due = start + period.mul_f64(k as f64);
                        let now = Instant::now();
                        if now >= end {
                            break; // due but unsent: counted as backlog
                        }
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let lateness = sent.saturating_duration_since(due);
                        if lateness > period {
                            late += 1;
                        }
                        last_lateness = lateness.as_secs_f64() * 1e6;
                        let class_idx = reqs.sequence[(first + k) % reqs.sequence.len()] as usize;
                        let class = &reqs.classes[class_idx];
                        let result = conn
                            .roundtrip(&wire[class_idx])
                            .map(Raw::Http)
                            .map_err(|e| e.to_string());
                        let done = Instant::now();
                        let ns = ns_u32(done.saturating_duration_since(due));
                        lat.samples.push(Sample {
                            class: class_idx as u32,
                            ns,
                            crit_ns: ns,
                            end_us: done.saturating_duration_since(start).as_micros() as u32,
                        });
                        if let Err(why) = settle(class, result) {
                            lat.fail(why);
                        }
                    }
                    (lat, late, last_lateness)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    for (lat, late, last) in parts {
        out.lat.merge(lat);
        out.late += late;
        out.final_lateness_us = out.final_lateness_us.max(last);
    }
    out.lat.elapsed = seconds;
    out.unsent = out.scheduled.saturating_sub(out.lat.attempted());
    out
}

// ── rungs ─────────────────────────────────────────────────────────────

/// Where each workload document lives: its name and the store serving it.
#[derive(Clone)]
pub struct Placed {
    pub name: String,
    pub store: Arc<DocumentStore>,
    /// Which shard's worker serves it (0 for single-document workloads).
    pub shard: usize,
}

/// `serve.roundtrip`: a loopback HTTP request on a keep-alive connection.
pub struct ServeRung {
    pub conn: Conn,
    pub wire: Arc<Vec<Vec<u8>>>,
    /// Response body bytes received, for `serve.resp_bytes_per_req`.
    pub resp_bytes: u64,
}

impl Rung for ServeRung {
    fn name(&self) -> &'static str {
        "serve.roundtrip"
    }

    fn call(&mut self, class_idx: usize, _: &Class) -> Result<Raw, String> {
        let resp = self
            .conn
            .roundtrip(&self.wire[class_idx])
            .map_err(|e| e.to_string())?;
        self.resp_bytes += resp.body.len() as u64;
        Ok(Raw::Http(resp))
    }
}

/// `shard.fanout`: `ShardedSession::query_docs` with the arguments the
/// server would pass.
pub struct FanoutRung {
    pub session: Arc<ShardedSession>,
    pub names: Vec<String>,
    /// Fan-outs sent a second time because a document was reported
    /// unknown: `Corpus::replace` un-registers the old build before it
    /// registers the new one, and a concurrent reader can land in between.
    /// A client would retry; so does this one, once, and counts it.
    pub retried: u64,
}

impl FanoutRung {
    /// One fan-out: the per-document rows, and whether any document was
    /// reported unknown.
    fn fan_out(&mut self, class: &Class) -> Result<(Raw, bool), String> {
        let outcomes = if class.docs.len() == self.names.len() {
            self.session.query_corpus(&class.query, class.strategy)
        } else {
            let docs: Vec<&str> = class.docs.iter().map(|&d| self.names[d].as_str()).collect();
            self.session.query_docs(&class.query, class.strategy, &docs)
        }
        .map_err(|e| e.to_string())?;
        let unknown = outcomes
            .iter()
            .any(|o| matches!(o.result, Err(SessionError::UnknownDocument(_))));
        let rows = outcomes
            .into_iter()
            .map(|o| match o.result {
                Ok(r) => Ok(r.nodes),
                Err(e) => Err(format!("{}: {e}", o.doc)),
            })
            .collect();
        Ok((Raw::Nodes(rows), unknown))
    }
}

impl Rung for FanoutRung {
    fn name(&self) -> &'static str {
        "shard.fanout"
    }

    fn call(&mut self, _: usize, class: &Class) -> Result<Raw, String> {
        let (mut rows, unknown) = self.fan_out(class)?;
        if unknown {
            self.retried += 1;
            rows = self.fan_out(class)?.0;
        }
        Ok(rows)
    }
}

/// The time a fan-out over `(shard, ns)` document visits could not go
/// below: shards run in parallel, the documents of one shard in turn.
fn critical_path_ns(doc_ns: &[(usize, u32)]) -> u32 {
    let shards = doc_ns.iter().map(|&(s, _)| s + 1).max().unwrap_or(0);
    let mut per_shard = vec![0u32; shards];
    for &(shard, ns) in doc_ns {
        per_shard[shard] = per_shard[shard].saturating_add(ns);
    }
    per_shard.into_iter().max().unwrap_or(0)
}

/// `store.session`: `Session::query` per target document, one session per
/// store, each with its own compiled-query LRU.
pub struct SessionRung {
    pub placed: Vec<Placed>,
    /// One session per shard, indexed like `placed[i].shard`.
    pub sessions: Vec<Session>,
    pub stats: EvalStats,
    pub replans: u64,
    last_doc_ns: Vec<(usize, u32)>,
}

impl SessionRung {
    /// Fresh sessions of `capacity` compiled queries over the stores of
    /// `placed`.
    pub fn new(placed: &[Placed], capacity: usize) -> Self {
        let shards = placed.iter().map(|p| p.shard).max().map_or(0, |m| m + 1);
        let sessions = (0..shards)
            .map(|s| {
                let store = &placed
                    .iter()
                    .find(|p| p.shard == s)
                    .expect("every shard serves a document")
                    .store;
                Session::with_cache_capacity(Arc::clone(store), capacity)
            })
            .collect();
        Self::over(placed, sessions)
    }

    /// The rung over sessions that already exist (a bed's own).
    pub fn over(placed: &[Placed], sessions: Vec<Session>) -> Self {
        Self {
            placed: placed.to_vec(),
            sessions,
            stats: EvalStats::default(),
            replans: 0,
            last_doc_ns: Vec::new(),
        }
    }
}

impl Rung for SessionRung {
    fn name(&self) -> &'static str {
        "store.session"
    }

    fn call(&mut self, _: usize, class: &Class) -> Result<Raw, String> {
        self.last_doc_ns.clear();
        let mut rows = Vec::with_capacity(class.docs.len());
        for &d in &class.docs {
            let p = &self.placed[d];
            let t0 = Instant::now();
            let r = self.sessions[p.shard]
                .query(&p.name, &class.query, class.strategy)
                .map_err(|e| format!("{}: {e}", p.name))?;
            self.last_doc_ns.push((p.shard, ns_u32(t0.elapsed())));
            self.stats.accumulate(&r.stats);
            self.replans += u64::from(r.replanned);
            rows.push(Ok(r.nodes));
        }
        Ok(Raw::Nodes(rows))
    }

    fn critical_ns(&self) -> Option<u32> {
        Some(critical_path_ns(&self.last_doc_ns))
    }
}

/// A compiled query held against the document it was compiled for.
struct Held {
    doc: Arc<StoredDocument>,
    compiled: CompiledQuery,
    /// Whether the program the engine runs for it is an automaton run.
    automaton: bool,
}

/// `core.exec`: `Engine::run_with_scratch` on a held `CompiledQuery` — no
/// session, no cache lookup, no compile.
pub struct ExecRung {
    placed: Vec<Placed>,
    held: HashMap<(usize, usize), Held>,
    scratch: EvalScratch,
    pub automaton_runs: u64,
    pub runs: u64,
    last_doc_ns: Vec<(usize, u32)>,
}

impl ExecRung {
    pub fn new(placed: &[Placed]) -> Self {
        Self {
            placed: placed.to_vec(),
            held: HashMap::new(),
            scratch: EvalScratch::new(),
            automaton_runs: 0,
            runs: 0,
            last_doc_ns: Vec::new(),
        }
    }
}

impl Rung for ExecRung {
    fn name(&self) -> &'static str {
        "core.exec"
    }

    fn call(&mut self, class_idx: usize, class: &Class) -> Result<Raw, String> {
        self.last_doc_ns.clear();
        let mut rows = Vec::with_capacity(class.docs.len());
        for &d in &class.docs {
            let held = match self.held.entry((class_idx, d)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let p = &self.placed[d];
                    let doc = p.store.get(&p.name).ok_or("document vanished")?;
                    let compiled = doc
                        .engine()
                        .compile(&class.query)
                        .map_err(|e| e.to_string())?;
                    let program = doc.engine().program(&compiled, class.strategy);
                    let automaton = matches!(program.program.kind, ProgKind::Automaton(_));
                    e.insert(Held {
                        doc,
                        compiled,
                        automaton,
                    })
                }
            };
            let t0 = Instant::now();
            let out = held.doc.engine().run_with_scratch(
                &held.compiled,
                class.strategy,
                &mut self.scratch,
            );
            self.last_doc_ns
                .push((self.placed[d].shard, ns_u32(t0.elapsed())));
            self.runs += 1;
            self.automaton_runs += u64::from(held.automaton);
            rows.push(Ok(out.nodes));
        }
        Ok(Raw::Nodes(rows))
    }

    fn critical_ns(&self) -> Option<u32> {
        Some(critical_path_ns(&self.last_doc_ns))
    }
}
