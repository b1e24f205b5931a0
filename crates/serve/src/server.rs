//! The HTTP server over a [`ShardedSession`]: the acceptor feeds accepted
//! connections into a bounded [`Pool`] of handler threads (the same pool
//! the shards run on, one layer up), with keep-alive pipelining,
//! per-request timeouts, and graceful drain — stop accepting, finish
//! in-flight and queued connections, then join.
//!
//! Routes:
//!
//! * `POST /query` — evaluate an XPath query over the corpus. JSON body;
//!   structured JSON response, exact-CLI-bytes text response, or chunked
//!   streaming NDJSON where each document's row hits the wire as its
//!   shard finishes (the sharded session's incremental merge).
//! * `GET /metrics` — the registry in Prometheus text exposition.
//! * `GET /healthz` — liveness.
//!
//! Overload maps to HTTP: a full accept queue or an admission
//! [`CorpusError::Overloaded`] is `503` + `Retry-After`, read timeouts
//! are `408`, malformed input is `400`/`413` — never a panic and never a
//! wedged connection.

use std::io::{self, BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use xwq_core::{EvalStats, Strategy};
use xwq_obs::{HttpMetrics, Registry, RenderFormat};
use xwq_shard::{Corpus, CorpusError, DocOutcome, ShardedSession};
use xwq_store::pool::Pool;
use xwq_xml::{Document, NodeId, NONE};

use crate::http::{self, ChunkedWriter, ReadError, Request};
use crate::json::{self, Json};

/// Tunables for [`Server::start`]. `Default` is sized for tests and
/// small deployments; the CLI exposes the knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Connection-handler threads (each owns one connection at a time).
    pub http_workers: usize,
    /// Accepted connections allowed to wait for a handler; one more is
    /// shed with `503`.
    pub max_queued: usize,
    /// Socket read timeout (idle keep-alive connections are closed with
    /// `408` after this long; also bounds drain time on shutdown).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Request-line + header cap (`413` beyond it).
    pub max_header_bytes: usize,
    /// Request body cap (`413` beyond it).
    pub max_body_bytes: usize,
    /// Accept the `hold_ms` request field, which stalls the evaluation
    /// while it holds its admission slot. A latency-injection hook for
    /// deterministic overload and drain tests — never enable it on a
    /// server exposed to anything you don't trust.
    pub allow_latency_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            http_workers: 4,
            max_queued: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1 << 20,
            allow_latency_injection: false,
        }
    }
}

struct Inner {
    session: Arc<ShardedSession>,
    registry: Arc<Registry>,
    metrics: HttpMetrics,
    cfg: ServeConfig,
    /// Set once by [`Server::shutdown`]: the acceptor exits, workers
    /// finish what they hold (queued connections included — they were
    /// accepted, so they are in flight) and stop renewing keep-alives.
    stopping: AtomicBool,
}

/// A running server; dropping it (or calling [`Server::shutdown`])
/// drains gracefully.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    /// Connection handlers `xwq-http-{i}`; the queue cap is
    /// [`ServeConfig::max_queued`].
    pool: Arc<Pool<TcpStream>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor + worker threads. HTTP metrics are registered
    /// on `registry`, which is also what `GET /metrics` renders.
    pub fn start(
        session: Arc<ShardedSession>,
        registry: Arc<Registry>,
        addr: &str,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            metrics: HttpMetrics::new(&registry),
            session,
            registry,
            cfg,
            stopping: AtomicBool::new(false),
        });
        let pool = Arc::new(Pool::bounded(inner.cfg.max_queued));
        let handler = Arc::clone(&inner);
        pool.grow(
            inner.cfg.http_workers.max(1),
            |i| format!("xwq-http-{i}"),
            move |_: &mut (), stream: TcpStream| {
                handler.metrics.connections.add(1);
                handle_connection(&handler, stream);
                handler.metrics.connections.add(-1);
            },
        );
        let acceptor = {
            let inner = Arc::clone(&inner);
            let pool = Arc::clone(&pool);
            thread::Builder::new()
                .name("xwq-http-accept".to_string())
                .spawn(move || accept_loop(&inner, &pool, listener))
                .expect("spawn http acceptor")
        };
        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            pool,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting (new connects are refused once the
    /// listener closes), let workers finish every accepted connection,
    /// then join all threads. Idle keep-alive connections are cut after
    /// at most one read timeout.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        // The acceptor is parked in `accept`; a throwaway self-connect
        // wakes it so it can observe `stopping` and drop the listener.
        drop(TcpStream::connect(self.addr));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Only now, with nothing left to enqueue: handlers finish every
        // queued connection, then exit.
        self.pool.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(inner: &Inner, pool: &Pool<TcpStream>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stopping.load(Ordering::SeqCst) {
            break; // listener drops here; further connects are refused
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
        if let Err(stream) = pool.push(stream) {
            shed(inner, stream);
        }
    }
}

/// How long a shed connection may keep sending before it is dropped.
const SHED_LINGER: Duration = Duration::from_millis(100);

/// Queue-full shedding, done on the acceptor thread: one small write,
/// then close. The client sees `503` instead of an opaque hang.
fn shed(inner: &Inner, stream: TcpStream) {
    let body = b"{\"error\":\"server accept queue is full\"}\n";
    let _ = http::write_response(
        &mut BufWriter::new(&stream),
        503,
        "application/json",
        &["Retry-After: 1"],
        body,
        false,
    );
    inner.metrics.record_response(503, 0);
    // Closing a socket with unread request bytes makes the kernel answer
    // with a reset, which can destroy the 503 before the client reads it.
    // Half-close instead, and read what the client sends until it closes
    // too, for at most `SHED_LINGER`.
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + SHED_LINGER;
    let mut sink = [0u8; 1024];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        if !matches!((&stream).read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// Serves one connection: keep-alive request loop until the client
/// closes, errors, asks for `Connection: close`, or the server drains.
fn handle_connection(inner: &Inner, stream: TcpStream) {
    // Without it, Nagle's algorithm holds back the tail segment of a
    // response larger than the write buffer (and each streamed row) until
    // the client's delayed ACK, ≈40 ms on a keep-alive connection.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match http::read_request(
            &mut reader,
            inner.cfg.max_header_bytes,
            inner.cfg.max_body_bytes,
        ) {
            Ok(req) => {
                let started = Instant::now();
                let keep_alive = !req.wants_close() && !inner.stopping.load(Ordering::SeqCst);
                match route(inner, &req, &mut writer, keep_alive, started) {
                    Ok(()) if keep_alive => continue,
                    _ => return,
                }
            }
            Err(e) => {
                if let Some((status, msg)) = e.status() {
                    let body = format!("{{\"error\":{}}}\n", json::escaped(msg));
                    let _ = http::write_response(
                        &mut writer,
                        status,
                        "application/json",
                        &[],
                        body.as_bytes(),
                        false,
                    );
                    inner.metrics.record_response(status, 0);
                } else if matches!(e, ReadError::Io(_)) {
                    // Transport died mid-request; nothing to answer.
                }
                return;
            }
        }
    }
}

fn route(
    inner: &Inner,
    req: &Request,
    w: &mut BufWriter<TcpStream>,
    keep_alive: bool,
    started: Instant,
) -> io::Result<()> {
    let respond = |w: &mut BufWriter<TcpStream>,
                   status: u16,
                   content_type: &str,
                   extra: &[&str],
                   body: &[u8]|
     -> io::Result<()> {
        let r = http::write_response(w, status, content_type, extra, body, keep_alive);
        inner
            .metrics
            .record_response(status, started.elapsed().as_nanos() as u64);
        r
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(w, 200, "text/plain", &[], b"ok\n"),
        ("GET", "/metrics") => {
            let text = inner.registry.render(RenderFormat::Prometheus);
            respond(
                w,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &[],
                text.as_bytes(),
            )
        }
        ("POST", "/query") => handle_query(inner, req, w, keep_alive, started),
        (_, "/healthz" | "/metrics") => respond(
            w,
            405,
            "application/json",
            &["Allow: GET"],
            b"{\"error\":\"method not allowed\"}\n",
        ),
        (_, "/query") => respond(
            w,
            405,
            "application/json",
            &["Allow: POST"],
            b"{\"error\":\"method not allowed\"}\n",
        ),
        _ => respond(
            w,
            404,
            "application/json",
            &[],
            b"{\"error\":\"no such route\"}\n",
        ),
    }
}

/// A validated `POST /query` body.
struct QueryRequest {
    query: String,
    strategy: Strategy,
    docs: Option<Vec<String>>,
    count: bool,
    /// `"format": "text"` reproduces `xwq corpus query` stdout bytes.
    text: bool,
    stream: bool,
    hold_ms: u64,
}

fn parse_query_request(body: &[u8], allow_hold: bool) -> Result<QueryRequest, String> {
    let body = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = json::parse(body).map_err(|e| format!("bad JSON body: {e}"))?;
    let Json::Obj(fields) = &v else {
        return Err("body must be a JSON object".to_string());
    };
    for key in fields.keys() {
        if !matches!(
            key.as_str(),
            "query" | "strategy" | "docs" | "count" | "format" | "stream" | "hold_ms"
        ) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let query = v
        .get("query")
        .and_then(Json::as_str)
        .ok_or("missing string field \"query\"")?
        .to_string();
    // Reject syntactically bad XPath up front with the parser's message,
    // before the query touches the admission queue.
    xwq_xpath::parse_xpath(&query).map_err(|e| format!("bad query: {e}"))?;
    let strategy = match v.get("strategy") {
        None => Strategy::default(),
        Some(s) => s
            .as_str()
            .ok_or("\"strategy\" must be a string")?
            .parse::<Strategy>()
            .map_err(|e| e.to_string())?,
    };
    let docs = match v.get("docs") {
        None => None,
        Some(d) => {
            let arr = d.as_arr().ok_or("\"docs\" must be an array of strings")?;
            let names = arr
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or("\"docs\" must be an array of strings")?;
            if names.is_empty() {
                return Err("\"docs\" must not be empty".to_string());
            }
            Some(names)
        }
    };
    let flag = |name: &str| -> Result<bool, String> {
        match v.get(name) {
            None => Ok(false),
            Some(b) => b.as_bool().ok_or(format!("{name:?} must be a boolean")),
        }
    };
    let text = match v.get("format") {
        None => false,
        Some(f) => match f.as_str() {
            Some("json") => false,
            Some("text") => true,
            _ => return Err("\"format\" must be \"json\" or \"text\"".to_string()),
        },
    };
    let hold_ms = match v.get("hold_ms") {
        None => 0,
        Some(h) => {
            if !allow_hold {
                return Err(
                    "\"hold_ms\" requires the server to run with --allow-latency-injection"
                        .to_string(),
                );
            }
            h.as_u64()
                .ok_or("\"hold_ms\" must be a non-negative integer")?
        }
    };
    let req = QueryRequest {
        query,
        strategy,
        docs,
        count: flag("count")?,
        text,
        stream: flag("stream")?,
        hold_ms,
    };
    if req.stream && req.text {
        return Err(
            "streaming responses are NDJSON; \"format\":\"text\" cannot stream".to_string(),
        );
    }
    Ok(req)
}

fn corpus_error_response(e: &CorpusError) -> (u16, &'static [&'static str], String) {
    match e {
        CorpusError::Overloaded { .. } => (503, &["Retry-After: 1"], format!("{e}")),
        CorpusError::UnknownDocument(_) => (400, &[], format!("{e}")),
        _ => (500, &[], format!("{e}")),
    }
}

fn handle_query(
    inner: &Inner,
    req: &Request,
    w: &mut BufWriter<TcpStream>,
    keep_alive: bool,
    started: Instant,
) -> io::Result<()> {
    let respond = |w: &mut BufWriter<TcpStream>,
                   status: u16,
                   content_type: &str,
                   extra: &[&str],
                   body: &[u8]|
     -> io::Result<()> {
        let r = http::write_response(w, status, content_type, extra, body, keep_alive);
        inner
            .metrics
            .record_response(status, started.elapsed().as_nanos() as u64);
        r
    };
    let q = match parse_query_request(&req.body, inner.cfg.allow_latency_injection) {
        Ok(q) => q,
        Err(msg) => {
            let body = format!("{{\"error\":{}}}\n", json::escaped(&msg));
            return respond(w, 400, "application/json", &[], body.as_bytes());
        }
    };
    let corpus = Arc::clone(inner.session.corpus());
    let hold = Duration::from_millis(q.hold_ms);
    // One evaluation entry point for every response mode: the streaming
    // fan-out with a per-document sink. `hold` sleeps *after* the emit,
    // inside the fan-out — the admission slot stays occupied, which is
    // what the overload and drain tests rely on.
    let run = |sink: &mut dyn FnMut(DocOutcome)| -> Result<EvalStats, CorpusError> {
        let mut wrapped = |o: DocOutcome| {
            sink(o);
            if !hold.is_zero() {
                thread::sleep(hold);
            }
        };
        match &q.docs {
            Some(docs) => {
                inner
                    .session
                    .query_docs_streaming(&q.query, q.strategy, docs, &mut wrapped)
            }
            None => inner
                .session
                .query_corpus_streaming(&q.query, q.strategy, &mut wrapped),
        }
    };

    if q.stream {
        let mut cw = ChunkedWriter::new(w);
        let mut io_err: Option<io::Error> = None;
        let mut failures = 0usize;
        let result = run(&mut |o| {
            if o.result.is_err() {
                failures += 1;
            }
            if io_err.is_some() {
                return;
            }
            if !cw.started() {
                if let Err(e) = cw.begin(200, "application/x-ndjson", keep_alive) {
                    io_err = Some(e);
                    return;
                }
            }
            let mut line = render_outcome_json(&corpus, &o, q.count);
            line.push('\n');
            if let Err(e) = cw.chunk(line.as_bytes()) {
                io_err = Some(e);
            }
        });
        if let Some(e) = io_err {
            inner
                .metrics
                .record_response(200, started.elapsed().as_nanos() as u64);
            return Err(e);
        }
        match result {
            Ok(stats) => {
                if !cw.started() {
                    cw.begin(200, "application/x-ndjson", keep_alive)?;
                }
                let mut tail = String::from("{\"stats\":");
                render_stats_json(&mut tail, &stats);
                tail.push_str(&format!(",\"failures\":{failures}"));
                tail.push_str(&format!(
                    ",\"elapsed_ns\":{}}}\n",
                    started.elapsed().as_nanos()
                ));
                cw.chunk(tail.as_bytes())?;
                let r = cw.finish();
                inner
                    .metrics
                    .record_response(200, started.elapsed().as_nanos() as u64);
                r
            }
            Err(e) => {
                let (status, extra, msg) = corpus_error_response(&e);
                if cw.started() {
                    // Errors surface before the first document under the
                    // current admission design; this arm is defensive.
                    let line = format!("{{\"error\":{}}}\n", json::escaped(&msg));
                    cw.chunk(line.as_bytes())?;
                    let r = cw.finish();
                    inner
                        .metrics
                        .record_response(200, started.elapsed().as_nanos() as u64);
                    r
                } else {
                    let body = format!("{{\"error\":{}}}\n", json::escaped(&msg));
                    respond(w, status, "application/json", extra, body.as_bytes())
                }
            }
        }
    } else {
        let mut outcomes = Vec::new();
        let stats = match run(&mut |o| outcomes.push(o)) {
            Ok(stats) => stats,
            Err(e) => {
                let (status, extra, msg) = corpus_error_response(&e);
                let body = format!("{{\"error\":{}}}\n", json::escaped(&msg));
                return respond(w, status, "application/json", extra, body.as_bytes());
            }
        };
        let failures = outcomes.iter().filter(|o| o.result.is_err()).count();
        if q.text {
            let mut body = String::new();
            for o in &outcomes {
                render_outcome_text(&mut body, &corpus, o, q.count);
            }
            let failures_header = format!("X-Xwq-Failures: {failures}");
            respond(
                w,
                200,
                "text/plain; charset=utf-8",
                &[&failures_header],
                body.as_bytes(),
            )
        } else {
            let mut body = String::from("{\"query\":");
            json::write_escaped(&mut body, &q.query);
            body.push_str(&format!(
                ",\"strategy\":\"{}\",\"results\":[",
                q.strategy.token()
            ));
            for (i, o) in outcomes.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&render_outcome_json(&corpus, o, q.count));
            }
            body.push_str(&format!("],\"failures\":{failures},\"stats\":"));
            render_stats_json(&mut body, &stats);
            body.push_str(&format!(
                ",\"elapsed_ns\":{}}}\n",
                started.elapsed().as_nanos()
            ));
            respond(w, 200, "application/json", &[], body.as_bytes())
        }
    }
}

/// One document's outcome as a JSON object (an NDJSON line in streaming
/// mode, a `results[]` element otherwise).
fn render_outcome_json(corpus: &Corpus, o: &DocOutcome, count_only: bool) -> String {
    let mut out = String::from("{\"doc\":");
    json::write_escaped(&mut out, &o.doc);
    out.push_str(&format!(",\"shard\":{}", o.shard));
    match &o.result {
        Ok(resp) => {
            out.push_str(&format!(
                ",\"count\":{},\"cache_hit\":{}",
                resp.nodes.len(),
                resp.cache_hit
            ));
            if !count_only {
                out.push_str(",\"nodes\":[");
                for (i, v) in resp.nodes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{v}"));
                }
                out.push_str("],\"paths\":[");
                // The document is present whenever its outcome is Ok; a
                // concurrent remove still serves this epoch's snapshot.
                let doc = corpus.get(&o.doc);
                for (i, &v) in resp.nodes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match &doc {
                        Some(d) => json::write_escaped(&mut out, &node_path(d.document(), v)),
                        None => out.push_str("null"),
                    }
                }
                out.push(']');
            }
        }
        Err(e) => {
            out.push_str(",\"error\":");
            json::write_escaped(&mut out, &format!("{e}"));
        }
    }
    out.push('}');
    out
}

/// `xwq corpus query` stdout bytes for one document — the format-string
/// twins of `cmd_corpus_query` (a CLI-parity test pins them together).
/// Failed documents print nothing, as on the CLI (stderr there).
fn render_outcome_text(out: &mut String, corpus: &Corpus, o: &DocOutcome, count_only: bool) {
    let Ok(resp) = &o.result else {
        return;
    };
    if count_only {
        out.push_str(&format!("{:>8}  {}\n", resp.nodes.len(), o.doc));
        return;
    }
    let Some(doc) = corpus.get(&o.doc) else {
        return;
    };
    for &v in &resp.nodes {
        out.push_str(&format!(
            "{:>8}  {}  {}\n",
            v,
            o.doc,
            node_path(doc.document(), v)
        ));
    }
}

fn render_stats_json(out: &mut String, s: &EvalStats) {
    out.push_str(&format!(
        "{{\"visited\":{},\"jumps\":{},\"memo_entries\":{},\"memo_hits\":{},\"memo_misses\":{},\"selected\":{}}}",
        s.visited, s.jumps, s.memo_entries, s.memo_hits, s.memo_misses, s.selected
    ));
}

/// `/site/regions[1]/item[3]`-style path (1-based positions among
/// same-named siblings) — mirrors the CLI's `node_path`.
fn node_path(doc: &Document, v: NodeId) -> String {
    let mut parts = Vec::new();
    let mut cur = v;
    while cur != NONE {
        let name = doc.name(cur);
        let parent = doc.parent(cur);
        let pos = if parent == NONE {
            1
        } else {
            doc.children(parent)
                .filter(|&c| doc.name(c) == name && c <= cur)
                .count()
        };
        parts.push(format!("{name}[{pos}]"));
        cur = parent;
    }
    parts.reverse();
    format!("/{}", parts.join("/"))
}
