//! End-to-end tests for the serving tier over real sockets: protocol
//! correctness, streaming, overload (`503`), malformed-input hardening,
//! and graceful drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xwq_index::TopologyKind;
use xwq_obs::Registry;
use xwq_serve::{ServeConfig, Server};
use xwq_shard::{AdmissionConfig, Corpus, PlacementPolicy, ShardedConfig, ShardedSession};

/// Three small documents over two shards; `//x[y]` selects one node in
/// `alpha` and `beta`, two in `gamma`.
fn sample_session(admission: AdmissionConfig) -> Arc<ShardedSession> {
    let corpus = Corpus::new(2, PlacementPolicy::RoundRobin);
    corpus
        .add_xml("alpha", "<r><x><y/></x><x/></r>", TopologyKind::Array)
        .unwrap();
    corpus
        .add_xml("beta", "<r><y/><x><y/></x></r>", TopologyKind::Succinct)
        .unwrap();
    corpus
        .add_xml(
            "gamma",
            "<r><x><y/></x><x/><x><y/></x></r>",
            TopologyKind::Array,
        )
        .unwrap();
    Arc::new(ShardedSession::with_config(
        Arc::new(corpus),
        ShardedConfig {
            workers_per_shard: 1,
            admission,
            ..ShardedConfig::default()
        },
    ))
}

fn start_server(admission: AdmissionConfig, cfg: ServeConfig) -> Server {
    Server::start(
        sample_session(admission),
        Arc::new(Registry::new()),
        "127.0.0.1:0",
        cfg,
    )
    .unwrap()
}

fn injecting_config() -> ServeConfig {
    ServeConfig {
        allow_latency_injection: true,
        ..ServeConfig::default()
    }
}

/// Sends raw bytes, returns the full response until EOF.
fn raw_round_trip(server: &Server, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// One `POST /query` with `Connection: close`; returns the raw response.
fn post_query(server: &Server, body: &str) -> String {
    raw_round_trip(
        server,
        format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

#[test]
fn healthz_metrics_and_basic_query() {
    let server = start_server(AdmissionConfig::default(), ServeConfig::default());

    let health = raw_round_trip(
        &server,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&health), 200);
    assert_eq!(body_of(&health), "ok\n");

    let resp = post_query(&server, r#"{"query":"//x[y]","count":true}"#);
    assert_eq!(status_of(&resp), 200, "{resp}");
    let body = body_of(&resp);
    for needle in [
        r#""doc":"alpha","shard":0,"count":1"#,
        r#""doc":"beta","shard":1,"count":1"#,
        r#""doc":"gamma","shard":0,"count":2"#,
        r#""failures":0"#,
        r#""strategy":"auto""#,
    ] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }

    // Node lists + CLI-style paths in the non-count response.
    let resp = post_query(&server, r#"{"query":"//x[y]","docs":["gamma"]}"#);
    let body = body_of(&resp);
    assert!(
        body.contains(r#""paths":["/r[1]/x[1]","/r[1]/x[3]"]"#),
        "{body}"
    );

    // The metrics route renders Prometheus text with the HTTP family in
    // it (the three 200s above are already recorded).
    let metrics = raw_round_trip(
        &server,
        b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&metrics), 200);
    let text = body_of(&metrics);
    assert!(
        text.contains("# TYPE xwq_http_requests_total counter"),
        "{text}"
    );
    assert!(
        text.contains("xwq_http_requests_total{status=\"200\"} 3"),
        "{text}"
    );
    assert!(text.contains("xwq_http_request_latency_ns"), "{text}");
    assert!(text.contains("xwq_http_connections_active"), "{text}");
    server.shutdown();
}

#[test]
fn text_format_matches_cli_layout_and_keepalive_pipelines() {
    let server = start_server(AdmissionConfig::default(), ServeConfig::default());

    let resp = post_query(
        &server,
        r#"{"query":"//x[y]","format":"text","count":true}"#,
    );
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("X-Xwq-Failures: 0"), "{resp}");
    assert_eq!(
        body_of(&resp),
        "       1  alpha\n       1  beta\n       2  gamma\n"
    );

    // Two requests on one keep-alive connection.
    let body = r#"{"query":"//y","count":true,"docs":["alpha"]}"#;
    let one = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(one.as_bytes()).unwrap();
    s.write_all(one.replace("alpha", "gamma").as_bytes())
        .unwrap();
    let mut r = BufReader::new(s);
    for expected_doc in ["alpha", "gamma"] {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 200"), "{line}");
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            r.read_line(&mut h).unwrap();
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            if h == "\r\n" {
                break;
            }
        }
        let mut body = vec![0u8; content_length];
        r.read_exact(&mut body).unwrap();
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains(expected_doc), "{body}");
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_and_server_survives() {
    let server = start_server(
        AdmissionConfig::default(),
        ServeConfig {
            max_header_bytes: 512,
            max_body_bytes: 1024,
            read_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        },
    );

    // Garbage instead of HTTP.
    let resp = raw_round_trip(&server, b"\x16\x03\x01garbage\r\n\r\n");
    assert_eq!(status_of(&resp), 400);
    // Oversized headers.
    let flood = format!("GET /healthz HTTP/1.1\r\nA: {}\r\n\r\n", "y".repeat(2048));
    assert_eq!(status_of(&raw_round_trip(&server, flood.as_bytes())), 413);
    // Oversized declared body.
    let resp = raw_round_trip(
        &server,
        b"POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 413);
    // Truncated request: client stops mid-header and closes.
    {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(b"POST /query HTT").unwrap();
    }
    // Idle connection: no bytes at all → 408 after the read timeout.
    let resp = raw_round_trip(&server, b"GET /healthz HTTP/1.1\r\n");
    assert_eq!(status_of(&resp), 408);
    // Bad JSON, bad query, bad strategy, unknown field, unknown doc,
    // hold_ms without the injection flag.
    for (body, want) in [
        (r#"{"query""#, 400),
        (r#"{"query":"///"}"#, 400),
        (r#"{"query":"//x","strategy":"warp"}"#, 400),
        (r#"{"query":"//x","turbo":true}"#, 400),
        (r#"{"query":"//x","docs":["nope"]}"#, 400),
        (r#"{"query":"//x","hold_ms":10}"#, 400),
        (r#"{"query":"//x","stream":true,"format":"text"}"#, 400),
        (r#"[1,2,3]"#, 400),
    ] {
        let resp = post_query(&server, body);
        assert_eq!(status_of(&resp), want, "{body} → {resp}");
    }
    // Wrong method / unknown route.
    let resp = raw_round_trip(&server, b"GET /query HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 405);
    let resp = raw_round_trip(&server, b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 404);

    // After all of that, the server still serves.
    let resp = post_query(&server, r#"{"query":"//x[y]","count":true}"#);
    assert_eq!(status_of(&resp), 200);
    server.shutdown();
}

/// A 30 KB query nesting 10 000 predicates fits the default body cap; it
/// must be refused as a bad query, not overflow a worker's stack and take
/// the process down.
#[test]
fn deeply_nested_query_gets_400_and_server_survives() {
    let server = start_server(AdmissionConfig::default(), ServeConfig::default());
    let query = format!("//a{}{}", "[b".repeat(10_000), "]".repeat(10_000));
    let resp = post_query(&server, &format!(r#"{{"query":"{query}"}}"#));
    assert_eq!(status_of(&resp), 400, "{}", body_of(&resp));
    let health = raw_round_trip(
        &server,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&health), 200);
    server.shutdown();
}

/// Reads one chunked response incrementally off `r`, returning each
/// chunk's payload as it arrives through `on_chunk`.
fn read_chunked(r: &mut BufReader<TcpStream>, mut on_chunk: impl FnMut(String)) {
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "{line}");
    loop {
        let mut h = String::new();
        r.read_line(&mut h).unwrap();
        if h == "\r\n" {
            break;
        }
        assert!(
            !h.to_ascii_lowercase().starts_with("content-length"),
            "streaming response must be chunked, got {h}"
        );
    }
    loop {
        let mut size_line = String::new();
        r.read_line(&mut size_line).unwrap();
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
        let mut payload = vec![0u8; size + 2];
        r.read_exact(&mut payload).unwrap();
        if size == 0 {
            break;
        }
        payload.truncate(size);
        on_chunk(String::from_utf8(payload).unwrap());
    }
}

#[test]
fn streaming_delivers_first_row_while_rest_is_held() {
    let server = start_server(AdmissionConfig::default(), injecting_config());
    let hold = 400u64;
    let body = format!(r#"{{"query":"//x[y]","count":true,"stream":true,"hold_ms":{hold}}}"#);
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!(
            "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    let started = Instant::now();
    let mut arrivals = Vec::new();
    let mut r = BufReader::new(s);
    read_chunked(&mut r, |chunk| arrivals.push((started.elapsed(), chunk)));
    // 3 document rows + 1 stats tail.
    assert_eq!(arrivals.len(), 4, "{arrivals:?}");
    assert!(arrivals[0].1.contains(r#""doc":"alpha""#), "{arrivals:?}");
    assert!(arrivals[3].1.contains(r#""stats""#), "{arrivals:?}");
    // The first row arrived before the post-emit holds of the later
    // documents elapsed: streaming, not buffer-then-send.
    let budget = Duration::from_millis(2 * hold);
    assert!(
        arrivals[0].0 < budget,
        "first row after {:?}, holds not overlapped",
        arrivals[0].0
    );
    assert!(
        arrivals[3].0 >= Duration::from_millis(2 * hold),
        "stats tail arrived before the holds elapsed: {arrivals:?}"
    );
    server.shutdown();
}

#[test]
fn admission_overload_maps_to_503_with_retry_after() {
    // One admission slot, no waiting room: the held streaming request
    // occupies the slot; the next query must bounce with 503.
    let server = start_server(
        AdmissionConfig {
            max_active: 1,
            max_waiting: 0,
            timeout: None,
        },
        injecting_config(),
    );
    let addr = server.local_addr();
    // The holder signals after its first chunk — only then does the
    // probe below run, so the probe cannot race the holder out of the
    // single admission slot (`max_waiting: 0` rejects either side).
    let (first_chunk_tx, first_chunk_rx) = std::sync::mpsc::channel();
    let holder = std::thread::spawn(move || {
        let body = r#"{"query":"//x[y]","count":true,"stream":true,"hold_ms":700}"#;
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(
            format!(
                "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        )
        .unwrap();
        let mut r = BufReader::new(s);
        let mut chunks = Vec::new();
        read_chunked(&mut r, |c| {
            if chunks.is_empty() {
                first_chunk_tx.send(()).unwrap();
            }
            chunks.push(c);
        });
        chunks
    });
    first_chunk_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("holder never produced a first chunk");
    // The holder owns the admission slot (it sleeps 700 ms after each of
    // its 3 documents, and the permit is held through the sink): the
    // probe must bounce.
    let resp = post_query(&server, r#"{"query":"//x[y]","count":true}"#);
    assert_eq!(status_of(&resp), 503, "{resp}");
    assert!(resp.contains("Retry-After: 1"), "{resp}");
    assert!(body_of(&resp).contains("error"), "{resp}");
    let chunks = holder.join().unwrap();
    assert_eq!(
        chunks.len(),
        4,
        "held stream must still complete: {chunks:?}"
    );
    // Slot free again → queries succeed.
    let resp = post_query(&server, r#"{"query":"//x[y]","count":true}"#);
    assert_eq!(status_of(&resp), 200, "{resp}");
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new_connections() {
    let server = start_server(AdmissionConfig::default(), injecting_config());
    let addr = server.local_addr();
    // In-flight request whose evaluation is held well past the shutdown
    // call below.
    let inflight = std::thread::spawn(move || {
        let body = r#"{"query":"//x[y]","count":true,"stream":true,"hold_ms":500}"#;
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(
            format!(
                "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        )
        .unwrap();
        let mut r = BufReader::new(s);
        let mut chunks = Vec::new();
        read_chunked(&mut r, |c| chunks.push(c));
        chunks
    });
    // Wait until the request is actually being served (first chunk out
    // needs the fan-out running), then drain.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();
    // Shutdown returned: the in-flight response must have completed in
    // full…
    let chunks = inflight.join().unwrap();
    assert_eq!(chunks.len(), 4, "drain truncated the response: {chunks:?}");
    assert!(chunks[3].contains("stats"), "{chunks:?}");
    // …and the port no longer accepts work: either connect is refused or
    // the socket is dead (accepted by a backlog then closed unserved).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
            let mut out = String::new();
            let n = s.read_to_string(&mut out).unwrap_or(0);
            assert_eq!(n, 0, "drained server answered a new request: {out}");
        }
    }
}

#[test]
fn accept_queue_overflow_sheds_with_503() {
    // One worker pinned down by a held request, one queue slot filled by
    // an idle connection: the next connection must be shed with 503 on
    // the acceptor thread.
    let server = start_server(
        AdmissionConfig::default(),
        ServeConfig {
            http_workers: 1,
            max_queued: 1,
            allow_latency_injection: true,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let holder = std::thread::spawn(move || {
        let body = r#"{"query":"//x[y]","count":true,"stream":true,"hold_ms":800}"#;
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(
            format!(
                "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        )
        .unwrap();
        let mut r = BufReader::new(s);
        read_chunked(&mut r, |_| {});
    });
    // Give the lone worker time to claim the holder, then park one idle
    // connection in the single queue slot.
    std::thread::sleep(Duration::from_millis(200));
    let filler = TcpStream::connect(addr).unwrap();
    // The acceptor handles connections in order, so by the time this one
    // is accepted the filler already occupies the queue → shed.
    let resp = raw_round_trip(
        &server,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 503, "{resp}");
    assert!(resp.contains("Retry-After: 1"), "{resp}");
    // Close the filler before draining so the worker sees a clean EOF
    // instead of waiting out the read timeout.
    drop(filler);
    holder.join().unwrap();
    server.shutdown();
}
