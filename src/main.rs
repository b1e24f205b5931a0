//! The `xwq` command-line query tool.
//!
//! ```sh
//! xwq index <file.xml> -o <file.xwqi> [--topology array|succinct]
//! xwq query (--index <file.xwqi> | <file.xml>) '<xpath>' [options]
//! xwq explain (--index <file.xwqi> | <file.xml>) '<xpath>' [options]
//! xwq batch (--index <file.xwqi> | --xml <file.xml>) <queries.txt> [options]
//! xwq '<xpath>' <file.xml> [options]     # legacy one-shot form
//! ```
//!
//! `xwq index` persists a fully built document index as a `.xwqi` file
//! (see `xwq_store`); `xwq query --index` answers queries from that file
//! without re-parsing the XML; `xwq batch` serves a whole query workload
//! through a compiled-query-caching `xwq_store::Session`.
//!
//! Query output is one line per selected node: its preorder id, a simple
//! absolute path, and (with `--text`) the concatenated text content.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use xwq::core::{Engine, Strategy};
use xwq::index::TopologyKind;
use xwq::shard::{Corpus, Manifest, PlacementPolicy, ShardedSession};
use xwq::store::{DocumentStore, QueryRequest, Session};
use xwq::xml::{Document, NodeId, NONE};

const USAGE: &str = "\
usage:
  xwq index <file.xml> -o <file.xwqi> [--topology array|succinct] [--mmap]
  xwq query (--index <file.xwqi> | <file.xml>) '<xpath>' [options]
  xwq explain (--index <file.xwqi> | <file.xml>) '<xpath>' [options]
  xwq batch (--index <file.xwqi> | --xml <file.xml>) <queries.txt> [options]
  xwq stats (--index <file.xwqi> | --xml <file.xml>) <queries.txt>
            [--format prometheus|json] [options]
  xwq corpus build <xml-dir> -o <corpus-dir> [--topology array|succinct]
  xwq corpus query <corpus-dir> '<xpath>' [--shards <n>] [--workers <m>]
            [--policy round-robin|size-balanced] [--docs <a,b,…>] [options]
  xwq corpus add <corpus-dir> <file.xml> [--name <doc>] [--topology array|succinct]
  xwq corpus replace <corpus-dir> <file.xml> [--name <doc>] [--topology array|succinct]
  xwq corpus rm <corpus-dir> <doc>
  xwq corpus checkpoint <corpus-dir>
  xwq corpus verify <corpus-dir>
  xwq serve <corpus-dir> [--addr <host:port>] [--shards <n>] [--workers <m>]
            [--policy round-robin|size-balanced] [--http-workers <n>]
            [--max-active <n>] [--max-waiting <n>] [--admission-timeout-ms <n>]
            [--max-queued <n>] [--read-timeout-ms <n>] [--drain-after-ms <n>]
            [--allow-latency-injection]
  xwq loadgen --addr <host:port> --query '<xpath>' [--rate <hz>]
            [--requests <n>] [--senders <n>] [--strategy <s>] [--count]
            [--stream]
  xwq xmark -o <file.xml> [--factor <f>] [--seed <n>]
  xwq lint [--root <dir>]
  xwq '<xpath>' <file.xml> [options]
  xwq --help | --version

options:
  --strategy naive|pruning|jumping|memo|opt|hybrid|auto
                 evaluation strategy [auto: per-query cost-based planner]
  --count        print only the number of selected nodes
  --stats        print traversal / cache statistics to stderr (with
                 `corpus query`, also a Prometheus metrics dump)
  --trace        (query) print the per-operator span tree the evaluation
                 recorded — deterministic, no wall-clock values
  --text         include each node's text content
  --mmap         serve from a memory-mapped .xwqi (zero-copy load; with
                 `index` it verifies the written file by mapping it back)
  --no-save-plans
                 (query --index) do not write the compiled program back to
                 the .xwqp plan sidecar after a cold plan
  --repeat <n>   (batch) run the workload n times, exercising the cache [1]
  --threads <n>  (batch) worker threads for the batch [machine cores]

subcommands:
  index       parse + index an XML file once, persist it as a .xwqi artifact
  query       evaluate one XPath query against an .xwqi index or an XML file;
              with --index, compiled programs are read from / written to a
              .xwqp sidecar so repeat invocations skip planning (warm start)
  explain     print the physical plan a strategy chooses for a query (per-
              operator cost estimates) and the register-VM bytecode it
              lowers to, then run it and report estimated vs actual visit
              counts, re-plan activity, and the cost model in effect
  batch       evaluate a file of queries (one per line, # comments) via a
              Session with a compiled-query LRU cache
  stats       serve a query workload through a telemetry-enabled Session,
              then print the metrics registry (latency histogram with
              p50/p90/p99/p99.9, cache counters) in Prometheus text or
              JSON exposition format
  corpus      multi-document serving: `build` indexes every .xml in a
              directory into per-document .xwqi artifacts plus a manifest;
              `query` memory-maps the corpus across N shards and fans one
              query out on M pinned workers per shard, merging results in
              document-name order; `add`/`replace`/`rm` mutate a corpus
              durably through its write-ahead log (crash-safe: recovery
              replays the WAL on the next open), `checkpoint` folds the
              log into the manifest, and `verify` opens the corpus, runs
              recovery, and checks every artifact against the catalog
  serve       expose a corpus over HTTP/1.1 (std::net, no dependencies):
              POST /query (JSON, exact-CLI text, or chunked streaming NDJSON
              where each document row is written as its shard finishes),
              GET /metrics (Prometheus text exposition), GET /healthz;
              bounded accept queue + fixed worker pool, keep-alive, 503 +
              Retry-After on overload, graceful drain on SIGINT/SIGTERM
              (compiled plans are persisted to .xwqp sidecars on the way
              down so a restarted server re-plans from observed visits)
  loadgen     open-loop (fixed arrival schedule, latency measured from the
              scheduled arrival — no coordinated omission), closed-socket
              load generator against a running `xwq serve`; prints p50/p99/
              error-rate
  xmark       generate an XMark sample document as XML (corpus seed data)
  lint        token-level hygiene pass over the workspace sources: unsafe
              only in whitelisted modules and always under a SAFETY
              comment, no static mut, no wildcard Ordering imports,
              explicit Ordering on every atomic op; exits non-zero with
              file:line diagnostics on any violation (the CI gate)";

fn usage_error(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("xwq: {msg}");
    }
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("xwq: {msg}");
    ExitCode::FAILURE
}

/// Flags shared by `query`, `batch`, and the legacy form.
struct CommonFlags {
    strategy: Strategy,
    count_only: bool,
    show_stats: bool,
    show_text: bool,
    mmap: bool,
    repeat: usize,
    threads: Option<usize>,
}

impl CommonFlags {
    fn new() -> Self {
        Self {
            strategy: Strategy::default(),
            count_only: false,
            show_stats: false,
            show_text: false,
            mmap: false,
            repeat: 1,
            threads: None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage_error(""),
        Some("--help") | Some("-h") | Some("help") => {
            println!(
                "xwq {} — whole-query-optimized XPath engine",
                env!("CARGO_PKG_VERSION")
            );
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("--version") | Some("-V") => {
            println!("xwq {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("index") => cmd_index(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("xmark") => cmd_xmark(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        // Legacy one-shot form: xwq '<xpath>' <file.xml> [options].
        Some(_) => cmd_query(&args),
    }
}

/// `xwq index <file.xml> -o <file.xwqi> [--topology array|succinct]`
fn cmd_index(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut out: Option<&str> = None;
    let mut topology = TopologyKind::Array;
    let mut verify_mmap = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p),
                    None => return usage_error("-o needs a path"),
                }
            }
            "--mmap" => verify_mmap = true,
            "--topology" => {
                i += 1;
                topology = match args.get(i).map(String::as_str) {
                    Some("array") => TopologyKind::Array,
                    Some("succinct") => TopologyKind::Succinct,
                    other => {
                        return usage_error(&format!(
                            "unknown topology {other:?} (expected array|succinct)"
                        ))
                    }
                };
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            p => positional.push(p),
        }
        i += 1;
    }
    let [xml_path] = positional[..] else {
        return usage_error("index needs exactly one XML file");
    };
    let Some(out) = out else {
        return usage_error("index needs -o <file.xwqi>");
    };

    let doc = match load_xml(xml_path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let index = xwq::index::TreeIndex::build_with(&doc, topology);
    match xwq::store::write_index_file(out, &doc, &index) {
        Ok(()) => {
            eprintln!(
                "# indexed {} nodes ({} labels, {:?} topology) -> {}",
                doc.len(),
                doc.alphabet().len(),
                topology,
                out
            );
            if verify_mmap {
                // Map the written artifact straight back: one zero-copy
                // validation pass proving the file serves as-is.
                match xwq::store::read_index_file_mmap(out) {
                    Ok((vdoc, vix)) => {
                        if vdoc.len() != doc.len() || vix.len() != index.len() {
                            return fail(format!("{out}: mmap verify read a different index"));
                        }
                        eprintln!("# mmap verify ok ({} nodes)", vdoc.len());
                    }
                    Err(e) => return fail(format!("{out}: mmap verify failed: {e}")),
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `xwq query (--index <file.xwqi> | <file.xml>) '<xpath>' [options]`
fn cmd_query(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut index_path: Option<&str> = None;
    let mut trace = false;
    let mut save_plans = true;
    let mut flags = CommonFlags::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => {
                i += 1;
                match args.get(i) {
                    Some(p) => index_path = Some(p),
                    None => return usage_error("--index needs a path"),
                }
            }
            "--trace" => trace = true,
            "--no-save-plans" => save_plans = false,
            _ => match parse_common_flag(args, &mut i, &mut flags) {
                FlagParse::Consumed => {}
                FlagParse::Err(code) => return code,
                FlagParse::Positional(p) => positional.push(p),
            },
        }
        i += 1;
    }

    if flags.repeat != 1 {
        return usage_error("--repeat is only valid with the batch subcommand");
    }
    if flags.threads.is_some() {
        return usage_error("--threads is only valid with the batch subcommand");
    }

    let (query, doc, engine) = match (index_path, &positional[..]) {
        (Some(path), [q]) => {
            let loaded = if flags.mmap {
                xwq::store::read_index_file_mmap(path)
            } else {
                xwq::store::read_index_file(path)
            };
            match loaded {
                Ok((doc, index)) => (*q, doc, Engine::from_index(index)),
                Err(e) => return fail(format!("{path}: {e}")),
            }
        }
        (None, [q, file]) => {
            if flags.mmap {
                return usage_error("--mmap needs --index <file.xwqi> (XML is always parsed)");
            }
            match load_xml(file) {
                Ok(doc) => {
                    let engine = Engine::build(&doc);
                    (*q, doc, engine)
                }
                Err(code) => return code,
            }
        }
        _ => return usage_error("query needs '<xpath>' plus --index <file.xwqi> or <file.xml>"),
    };

    // Warm start: a validated `.xwqp` sidecar next to the index supplies
    // compiled programs.
    let warm = index_path.and_then(|p| xwq::store::load_sidecar_plans(Path::new(p)));

    let compiled = match engine.compile(query) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let warm_installed = warm.as_ref().is_some_and(|set| {
        set.entries.iter().any(|e| {
            e.query == query
                && e.strategy == flags.strategy
                && xwq::core::Program::decode(&e.program)
                    .is_ok_and(|p| engine.install_program(&compiled, flags.strategy, p))
        })
    });
    let traced_start = std::time::Instant::now();
    let (out, span_tree) = if trace {
        let mut scratch = xwq::core::EvalScratch::new();
        let (out, root) = engine.run_traced(&compiled, flags.strategy, &mut scratch);
        (out, Some(root))
    } else {
        (engine.run(&compiled, flags.strategy), None)
    };
    let traced_elapsed = traced_start.elapsed();

    if flags.count_only {
        println!("{}", out.nodes.len());
    } else {
        // Buffered + EPIPE-tolerant: `xwq query … | head` must exit
        // cleanly when the reader closes the pipe, not panic.
        let stdout = std::io::stdout();
        let mut w = std::io::BufWriter::new(stdout.lock());
        use std::io::Write as _;
        for &v in &out.nodes {
            let line = if flags.show_text {
                writeln!(w, "{:>8}  {}  {}", v, node_path(&doc, v), text_of(&doc, v))
            } else {
                writeln!(w, "{:>8}  {}", v, node_path(&doc, v))
            };
            if line.is_err() {
                return ExitCode::SUCCESS;
            }
        }
        if w.flush().is_err() {
            return ExitCode::SUCCESS;
        }
    }
    if let Some(root) = &span_tree {
        // Deterministic rendering (no wall-clock values): two runs of the
        // same query against the same index print byte-identical trees.
        // The measured total goes to stderr, out of the comparable stream.
        use std::io::Write as _;
        let text = root.render_text(false);
        if std::io::stdout().lock().write_all(text.as_bytes()).is_err() {
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "# trace: {} spans, {traced_elapsed:.1?} total",
            root.span_count()
        );
    }
    if flags.show_stats {
        let s = &out.stats;
        let hit_rate = if s.memo_hits + s.memo_misses > 0 {
            100.0 * s.memo_hits as f64 / (s.memo_hits + s.memo_misses) as f64
        } else {
            0.0
        };
        eprintln!(
            "# {} results, visited {} of {} nodes, {} jumps, memo: {} hits / {} misses ({:.1}% hit rate, {} entries){}",
            out.nodes.len(),
            s.visited,
            doc.len(),
            s.jumps,
            s.memo_hits,
            s.memo_misses,
            hit_rate,
            s.memo_entries,
            if out.hybrid_fallback {
                ", hybrid fell back to optimized"
            } else {
                ""
            }
        );
        if index_path.is_some() {
            eprintln!(
                "# plan source: {}{}",
                if warm_installed {
                    "warm sidecar"
                } else {
                    "cold planner"
                },
                if out.replanned { ", re-planned" } else { "" }
            );
        }
    }
    // Write the program back next to the index so the next invocation
    // starts warm. Only when this run actually planned something new —
    // warm hits never rewrite the sidecar.
    if let Some(path) = index_path.filter(|_| save_plans && !warm_installed) {
        if let Some(cell) = engine.cached_program(&compiled, flags.strategy) {
            match xwq::store::peek_index_checksum(path) {
                Ok(checksum) => {
                    let mut set = warm
                        .as_deref()
                        .cloned()
                        .unwrap_or_else(|| xwq::store::PlanSet::new(checksum));
                    set.entries
                        .retain(|e| !(e.query == query && e.strategy == flags.strategy));
                    set.entries.push(xwq::store::PlanEntry {
                        query: query.to_string(),
                        strategy: flags.strategy,
                        program: cell.program.encode(),
                        runs: cell.runs(),
                        total_visits: cell.total_visits(),
                    });
                    set.entries.sort_by(|a, b| {
                        (a.query.as_str(), a.strategy.token())
                            .cmp(&(b.query.as_str(), b.strategy.token()))
                    });
                    let sidecar = xwq::store::plans_sidecar_path(Path::new(path));
                    match xwq::store::write_plans_file_durable(&sidecar, &set) {
                        Ok(()) => eprintln!(
                            "# plan: saved {} compiled plan(s) -> {}",
                            set.entries.len(),
                            sidecar.display()
                        ),
                        Err(e) => {
                            eprintln!("xwq: warning: cannot write {}: {e}", sidecar.display())
                        }
                    }
                }
                Err(e) => eprintln!("xwq: warning: cannot fingerprint {path}: {e}"),
            }
        }
    }
    ExitCode::SUCCESS
}

/// `xwq explain (--index <file.xwqi> | <file.xml>) '<xpath>' [options]`
///
/// Prints the physical plan the strategy lowers to — one row per operator
/// (LabelJump / UpwardMatch / PredicateProbe / SpineDescend / Intersect /
/// AutomatonRun) with the planner's cost estimates — then executes it and
/// reports estimated vs actual visits.
fn cmd_explain(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut index_path: Option<&str> = None;
    let mut flags = CommonFlags::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => {
                i += 1;
                match args.get(i) {
                    Some(p) => index_path = Some(p),
                    None => return usage_error("--index needs a path"),
                }
            }
            _ => match parse_common_flag(args, &mut i, &mut flags) {
                FlagParse::Consumed => {}
                FlagParse::Err(code) => return code,
                FlagParse::Positional(p) => positional.push(p),
            },
        }
        i += 1;
    }
    let (query, engine) = match (index_path, &positional[..]) {
        (Some(path), [q]) => {
            let loaded = if flags.mmap {
                xwq::store::read_index_file_mmap(path)
            } else {
                xwq::store::read_index_file(path)
            };
            match loaded {
                Ok((_, index)) => (*q, Engine::from_index(index)),
                Err(e) => return fail(format!("{path}: {e}")),
            }
        }
        (None, [q, file]) => match load_xml(file) {
            Ok(doc) => (*q, Engine::build(&doc)),
            Err(code) => return code,
        },
        _ => return usage_error("explain needs '<xpath>' plus --index <file.xwqi> or <file.xml>"),
    };
    let compiled = match engine.compile(query) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let plan = engine.plan(&compiled, flags.strategy);
    let mut text = format!(
        "plan for {query} [{}]\n  chosen because: {}\n",
        flags.strategy.token(),
        plan.reason
    );
    for (n, line) in plan.describe(engine.index()).iter().enumerate() {
        text.push_str(&format!(
            "  {:>2}. {:<15} {:<52} est cost {:>8.0}  ~{:.0} visits\n",
            n + 1,
            line.op,
            line.detail,
            line.est.cost,
            line.est.visits
        ));
    }
    // The bytecode the register VM actually dispatches: the same plan,
    // lowered to the persistable program form.
    let cell = engine.program(&compiled, flags.strategy);
    let encoded = cell.program.encode();
    text.push_str(&format!(
        "bytecode (v{}, {} bytes encoded):\n",
        xwq::core::BYTECODE_VERSION,
        encoded.len()
    ));
    for (pc, line) in cell.program.listing(engine.index()).iter().enumerate() {
        text.push_str(&format!("  {pc:>3}  {line}\n"));
    }
    let t0 = std::time::Instant::now();
    let out = engine.run(&compiled, flags.strategy);
    let elapsed = t0.elapsed();
    text.push_str(&format!(
        "estimated: cost {:.0}, ~{:.0} visits\n",
        plan.est.cost, plan.est.visits
    ));
    text.push_str(&format!(
        "actual:    visited {}, jumps {}, selected {}, {:.1?} (cold run)\n",
        out.stats.visited, out.stats.jumps, out.stats.selected, elapsed
    ));
    let counters = engine.plan_counters();
    text.push_str(&format!(
        "replans:   {} this engine (re-plan factor {}, this run re-planned: {})\n",
        counters.replans,
        xwq::core::DEFAULT_REPLAN_FACTOR,
        out.replanned
    ));
    text.push_str(&format!(
        "cost model: automaton_visit {:.3}, automaton_setup {:.1}\n",
        xwq::core::planner::AUTOMATON_VISIT,
        xwq::core::planner::AUTOMATON_SETUP,
    ));
    // EPIPE-tolerant: `xwq explain … | head` (or `| grep -q`) must exit
    // cleanly when the reader closes the pipe, not panic.
    use std::io::Write as _;
    let _ = std::io::stdout().lock().write_all(text.as_bytes());
    ExitCode::SUCCESS
}

/// `xwq batch (--index <file.xwqi> | --xml <file.xml>) <queries.txt>`
fn cmd_batch(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut index_path: Option<&str> = None;
    let mut xml_path: Option<&str> = None;
    let mut flags = CommonFlags::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => {
                i += 1;
                match args.get(i) {
                    Some(p) => index_path = Some(p),
                    None => return usage_error("--index needs a path"),
                }
            }
            "--xml" => {
                i += 1;
                match args.get(i) {
                    Some(p) => xml_path = Some(p),
                    None => return usage_error("--xml needs a path"),
                }
            }
            _ => match parse_common_flag(args, &mut i, &mut flags) {
                FlagParse::Consumed => {}
                FlagParse::Err(code) => return code,
                FlagParse::Positional(p) => positional.push(p),
            },
        }
        i += 1;
    }
    let [queries_path] = positional[..] else {
        return usage_error("batch needs exactly one queries file");
    };
    if flags.show_text {
        return usage_error("--text is not supported by batch (it prints per-query counts)");
    }

    let store = DocumentStore::new();
    let doc_name = match (index_path, xml_path) {
        (Some(path), None) => {
            let loaded = if flags.mmap {
                store.open_mmap("doc", path)
            } else {
                store.load_index_file("doc", path)
            };
            match loaded {
                Ok(_) => "doc",
                Err(e) => return fail(format!("{path}: {e}")),
            }
        }
        (None, Some(path)) => {
            if flags.mmap {
                return usage_error("--mmap needs --index (XML is always parsed)");
            }
            match store.load_xml_file("doc", path, TopologyKind::Array) {
                Ok(_) => "doc",
                Err(e) => return fail(format!("{path}: {e}")),
            }
        }
        _ => return usage_error("batch needs exactly one of --index or --xml"),
    };

    let queries: Vec<String> = match std::fs::read_to_string(queries_path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        Err(e) => return fail(format!("cannot read {queries_path}: {e}")),
    };
    if queries.is_empty() {
        return fail(format!("{queries_path}: no queries"));
    }

    let session = Session::new(Arc::new(store));
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::new(doc_name, q).with_strategy(flags.strategy))
        .collect();

    let threads = flags.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let started = std::time::Instant::now();
    let mut failures = 0usize;
    let mut eval_total = xwq::core::EvalStats::default();
    for round in 0..flags.repeat.max(1) {
        let results = session.query_many_with_threads(&requests, threads);
        for r in results.iter().flatten() {
            eval_total.accumulate(&r.stats);
        }
        if round == 0 {
            for (q, r) in queries.iter().zip(&results) {
                match r {
                    Ok(resp) => println!("{:>8}  {q}", resp.nodes.len()),
                    Err(e) => {
                        failures += 1;
                        eprintln!("xwq: {q}: {e}");
                    }
                }
            }
        } else {
            failures += results.iter().filter(|r| r.is_err()).count();
        }
    }
    if flags.show_stats {
        let stats = session.cache_stats();
        eprintln!(
            "# {} queries x {} rounds on {} threads in {:.1?}; cache: {} hits, {} misses, {} evictions, {}/{} entries",
            queries.len(),
            flags.repeat.max(1),
            threads,
            started.elapsed(),
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.entries,
            stats.capacity
        );
        eprintln!(
            "# eval totals: {} nodes visited, {} jumps, memo {} hits / {} misses, {} selected",
            eval_total.visited,
            eval_total.jumps,
            eval_total.memo_hits,
            eval_total.memo_misses,
            eval_total.selected
        );
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `xwq stats (--index <file.xwqi> | --xml <file.xml>) <queries.txt>
/// [--format prometheus|json] [options]`
///
/// Serves the workload through a telemetry-enabled `Session`, then prints
/// the metrics registry — the query latency histogram (with p50/p90/p99/
/// p99.9/max) and the compiled-query cache hit/miss counters — in
/// Prometheus text or JSON exposition format on stdout.
fn cmd_stats(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut index_path: Option<&str> = None;
    let mut xml_path: Option<&str> = None;
    let mut format = xwq::obs::RenderFormat::Prometheus;
    let mut flags = CommonFlags::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => {
                i += 1;
                match args.get(i) {
                    Some(p) => index_path = Some(p),
                    None => return usage_error("--index needs a path"),
                }
            }
            "--xml" => {
                i += 1;
                match args.get(i) {
                    Some(p) => xml_path = Some(p),
                    None => return usage_error("--xml needs a path"),
                }
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("prometheus") => xwq::obs::RenderFormat::Prometheus,
                    Some("json") => xwq::obs::RenderFormat::Json,
                    other => {
                        return usage_error(&format!(
                            "unknown format {other:?} (expected prometheus|json)"
                        ))
                    }
                };
            }
            _ => match parse_common_flag(args, &mut i, &mut flags) {
                FlagParse::Consumed => {}
                FlagParse::Err(code) => return code,
                FlagParse::Positional(p) => positional.push(p),
            },
        }
        i += 1;
    }
    let [queries_path] = positional[..] else {
        return usage_error("stats needs exactly one queries file");
    };
    if flags.show_text || flags.count_only {
        return usage_error("--text/--count make no sense for stats (it prints metrics)");
    }

    let store = DocumentStore::new();
    let doc_name = match (index_path, xml_path) {
        (Some(path), None) => {
            let loaded = if flags.mmap {
                store.open_mmap("doc", path)
            } else {
                store.load_index_file("doc", path)
            };
            match loaded {
                Ok(_) => "doc",
                Err(e) => return fail(format!("{path}: {e}")),
            }
        }
        (None, Some(path)) => {
            if flags.mmap {
                return usage_error("--mmap needs --index (XML is always parsed)");
            }
            match store.load_xml_file("doc", path, TopologyKind::Array) {
                Ok(_) => "doc",
                Err(e) => return fail(format!("{path}: {e}")),
            }
        }
        _ => return usage_error("stats needs exactly one of --index or --xml"),
    };

    let queries: Vec<String> = match std::fs::read_to_string(queries_path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        Err(e) => return fail(format!("cannot read {queries_path}: {e}")),
    };
    if queries.is_empty() {
        return fail(format!("{queries_path}: no queries"));
    }

    let registry = xwq::obs::Registry::new();
    let session = Session::new(Arc::new(store));
    session.enable_telemetry(&registry, &[]);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::new(doc_name, q).with_strategy(flags.strategy))
        .collect();
    let threads = flags.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let mut failures = 0usize;
    for round in 0..flags.repeat.max(1) {
        let results = session.query_many_with_threads(&requests, threads);
        if round == 0 {
            for (q, r) in queries.iter().zip(&results) {
                if let Err(e) = r {
                    failures += 1;
                    eprintln!("xwq: {q}: {e}");
                }
            }
        } else {
            failures += results.iter().filter(|r| r.is_err()).count();
        }
    }
    // EPIPE-tolerant like the other exposition paths.
    use std::io::Write as _;
    let _ = std::io::stdout()
        .lock()
        .write_all(registry.render(format).as_bytes());
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `xwq corpus (build|query|add|replace|rm|checkpoint|verify) …` — the
/// sharded multi-document layer and its durable mutation path.
fn cmd_corpus(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("build") => cmd_corpus_build(&args[1..]),
        Some("query") => cmd_corpus_query(&args[1..]),
        Some("add") => cmd_corpus_mutate(&args[1..], MutateKind::Add),
        Some("replace") => cmd_corpus_mutate(&args[1..], MutateKind::Replace),
        Some("rm") => cmd_corpus_rm(&args[1..]),
        Some("checkpoint") => cmd_corpus_checkpoint(&args[1..]),
        Some("verify") => cmd_corpus_verify(&args[1..]),
        other => usage_error(&format!(
            "corpus needs a subcommand (build|query|add|replace|rm|checkpoint|verify), got {other:?}"
        )),
    }
}

/// Opens a corpus directory for a durable mutation (one shard — mutation
/// commands don't serve queries) and honors the `XWQ_CORPUS_FAIL` fault
/// hook used by the crash-recovery CI matrix: when set to a
/// [`xwq::shard::FailPoint`] token (`write:<n>`, `sync`, `stage-sync`,
/// `dir-sync`), the next commit is killed at that I/O point, simulating a
/// power cut for `xwq corpus verify` to recover from.
fn open_durable(dir: &str, create: bool) -> Result<Corpus, ExitCode> {
    let opened = if create {
        Corpus::open_or_create_dir(dir, 1, PlacementPolicy::RoundRobin)
    } else {
        Corpus::open_dir(dir, 1, PlacementPolicy::RoundRobin)
    };
    let corpus = opened.map_err(|e| fail(format!("{dir}: {e}")))?;
    if let Ok(token) = std::env::var("XWQ_CORPUS_FAIL") {
        let point: xwq::shard::FailPoint = token
            .parse()
            .map_err(|e| fail(format!("XWQ_CORPUS_FAIL={token}: {e}")))?;
        corpus
            .inject_fault(point)
            .map_err(|e| fail(format!("{dir}: {e}")))?;
        eprintln!("# fault injection armed: {token}");
    }
    Ok(corpus)
}

#[derive(Clone, Copy, PartialEq)]
enum MutateKind {
    Add,
    Replace,
}

/// `xwq corpus (add|replace) <corpus-dir> <file.xml> [--name <doc>]
/// [--topology array|succinct]`
///
/// Indexes the XML file and commits it into the corpus through the WAL:
/// the artifact is staged and fsynced, the log record committed, then the
/// artifact atomically renamed into place — a crash at any point leaves
/// the corpus recoverable on the old or the new state, never between.
/// `add` creates the corpus directory if needed; `replace` requires the
/// document to exist (readers mid-query keep the old generation until
/// they finish).
fn cmd_corpus_mutate(args: &[String], kind: MutateKind) -> ExitCode {
    let verb = if kind == MutateKind::Add {
        "add"
    } else {
        "replace"
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut name: Option<&str> = None;
    let mut topology = TopologyKind::Array;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--name" => {
                i += 1;
                match args.get(i) {
                    Some(n) => name = Some(n),
                    None => return usage_error("--name needs a document name"),
                }
            }
            "--topology" => {
                i += 1;
                topology = match args.get(i).map(String::as_str) {
                    Some("array") => TopologyKind::Array,
                    Some("succinct") => TopologyKind::Succinct,
                    other => {
                        return usage_error(&format!(
                            "unknown topology {other:?} (expected array|succinct)"
                        ))
                    }
                };
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            p => positional.push(p),
        }
        i += 1;
    }
    let [dir, xml_path] = positional[..] else {
        return usage_error(&format!("corpus {verb} needs <corpus-dir> and <file.xml>"));
    };
    let name = match name {
        Some(n) => n.to_string(),
        None => match Path::new(xml_path).file_stem().and_then(|s| s.to_str()) {
            Some(stem) => stem.to_string(),
            None => return fail(format!("{xml_path}: unusable file name (pass --name)")),
        },
    };
    let corpus = match open_durable(dir, kind == MutateKind::Add) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let doc = match load_xml(xml_path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let nodes = doc.len();
    let index = xwq::index::TreeIndex::build_with(&doc, topology);
    let committed = match kind {
        MutateKind::Add => corpus.add_durable(&name, doc, index),
        MutateKind::Replace => corpus.replace(&name, doc, index),
    };
    match committed {
        Ok(_shard) => {
            eprintln!(
                "# {verb} {name}: {nodes} nodes committed ({} WAL ops since checkpoint)",
                corpus.wal_ops_since_checkpoint()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("{verb} {name}: {e}")),
    }
}

/// `xwq corpus rm <corpus-dir> <doc>` — durably removes a document. The
/// artifact file stays on disk until the removal is sealed by a
/// checkpoint (crash recovery may still need it).
fn cmd_corpus_rm(args: &[String]) -> ExitCode {
    let [dir, name] = args else {
        return usage_error("corpus rm needs <corpus-dir> and <doc>");
    };
    let corpus = match open_durable(dir, false) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match corpus.remove(name) {
        Ok(()) => {
            eprintln!(
                "# rm {name}: committed ({} WAL ops since checkpoint)",
                corpus.wal_ops_since_checkpoint()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("rm {name}: {e}")),
    }
}

/// `xwq corpus checkpoint <corpus-dir>` — folds the WAL into the
/// manifest (atomic rewrite), resets the log, and reclaims superseded
/// artifacts that no reader or recoverable log prefix can still need.
fn cmd_corpus_checkpoint(args: &[String]) -> ExitCode {
    let [dir] = args else {
        return usage_error("corpus checkpoint needs <corpus-dir>");
    };
    let corpus = match open_durable(dir, false) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let folded = corpus.wal_ops_since_checkpoint();
    match corpus.checkpoint() {
        Ok(()) => {
            eprintln!(
                "# checkpoint: {} docs in manifest, {folded} WAL ops folded, {} artifacts reclaimed",
                corpus.len(),
                corpus.gc().unlinked_total()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("checkpoint: {e}")),
    }
}

/// `xwq corpus verify <corpus-dir>`
///
/// Opens the corpus — which runs crash recovery: WAL replay, torn-tail
/// truncation, staged-rename completion, orphan sweep — reports what
/// recovery did, then checks every catalog entry's artifact opens from
/// disk and agrees with the catalog's node count, and that the corpus
/// answers a fan-out query. Exits non-zero if anything is inconsistent.
fn cmd_corpus_verify(args: &[String]) -> ExitCode {
    let [dir] = args else {
        return usage_error("corpus verify needs <corpus-dir>");
    };
    let corpus = match Corpus::open_dir(dir, 1, PlacementPolicy::RoundRobin) {
        Ok(c) => Arc::new(c),
        Err(e) => return fail(format!("{dir}: {e}")),
    };
    let stats = corpus.recovery_stats();
    eprintln!(
        "# recovery: {} ops replayed, {} bytes dropped{}, {} renames completed, {} files swept",
        stats.replayed_ops,
        stats.dropped_bytes,
        if stats.torn {
            " (torn tail truncated)"
        } else {
            ""
        },
        stats.completed_renames,
        stats.swept_files
    );
    let mut bad = 0usize;
    for (name, entry) in corpus.durable_entries() {
        match xwq::store::read_index_file(Path::new(dir).join(&entry.file)) {
            Ok((doc, _index)) if doc.len() as u64 == entry.nodes => {}
            Ok((doc, _index)) => {
                bad += 1;
                eprintln!(
                    "xwq: {name}: artifact {} has {} nodes, catalog says {}",
                    entry.file,
                    doc.len(),
                    entry.nodes
                );
            }
            Err(e) => {
                bad += 1;
                eprintln!("xwq: {name}: artifact {}: {e}", entry.file);
            }
        }
    }
    if bad == 0 && !corpus.is_empty() {
        let session = ShardedSession::new(Arc::clone(&corpus), 0);
        match session.query_corpus("/*", Strategy::default()) {
            Ok(outcomes) => {
                for o in &outcomes {
                    if let Err(e) = &o.result {
                        bad += 1;
                        eprintln!("xwq: {}: query check failed: {e}", o.doc);
                    }
                }
            }
            Err(e) => {
                bad += 1;
                eprintln!("xwq: query check failed: {e}");
            }
        }
    }
    if bad == 0 {
        eprintln!(
            "# verify: {} documents consistent ({} WAL ops pending checkpoint)",
            corpus.len(),
            corpus.wal_ops_since_checkpoint()
        );
        ExitCode::SUCCESS
    } else {
        fail(format!("verify: {bad} inconsistent documents"))
    }
}

/// `xwq corpus build <xml-dir> -o <corpus-dir> [--topology array|succinct]`
///
/// Indexes every `.xml` file in the source directory (sorted, so builds
/// are reproducible) into one `.xwqi` artifact per document plus a
/// `MANIFEST.xwqc`, ready for `xwq corpus query` to mmap.
fn cmd_corpus_build(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut out: Option<&str> = None;
    let mut topology = TopologyKind::Array;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p),
                    None => return usage_error("-o needs a path"),
                }
            }
            "--topology" => {
                i += 1;
                topology = match args.get(i).map(String::as_str) {
                    Some("array") => TopologyKind::Array,
                    Some("succinct") => TopologyKind::Succinct,
                    other => {
                        return usage_error(&format!(
                            "unknown topology {other:?} (expected array|succinct)"
                        ))
                    }
                };
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            p => positional.push(p),
        }
        i += 1;
    }
    let [src_dir] = positional[..] else {
        return usage_error("corpus build needs exactly one source directory");
    };
    let Some(out_dir) = out else {
        return usage_error("corpus build needs -o <corpus-dir>");
    };

    let mut xml_files: Vec<PathBuf> = match std::fs::read_dir(src_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "xml"))
            .collect(),
        Err(e) => return fail(format!("cannot read {src_dir}: {e}")),
    };
    xml_files.sort();
    if xml_files.is_empty() {
        return fail(format!("{src_dir}: no .xml files"));
    }
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        return fail(format!("cannot create {out_dir}: {e}"));
    }

    let mut manifest = Manifest::new();
    let mut total_nodes = 0usize;
    for xml_path in &xml_files {
        let Some(name) = xml_path.file_stem().and_then(|s| s.to_str()) else {
            return fail(format!("{}: unusable file name", xml_path.display()));
        };
        let doc = match load_xml(&xml_path.display().to_string()) {
            Ok(d) => d,
            Err(code) => return code,
        };
        let index = xwq::index::TreeIndex::build_with(&doc, topology);
        let artifact = format!("{name}.xwqi");
        if let Err(e) =
            xwq::store::write_index_file_durable(Path::new(out_dir).join(&artifact), &doc, &index)
        {
            return fail(format!("{artifact}: {e}"));
        }
        if let Err(e) = manifest.push(name, &artifact, doc.len()) {
            return fail(e);
        }
        total_nodes += doc.len();
        eprintln!("# {name}: {} nodes -> {artifact}", doc.len());
    }
    match manifest.write_dir(out_dir) {
        Ok(()) => {
            eprintln!(
                "# corpus: {} documents, {} nodes total -> {out_dir}",
                manifest.docs().len(),
                total_nodes
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `xwq corpus query <corpus-dir> '<xpath>' [--shards n] [--workers m] …`
///
/// Memory-maps the corpus across `--shards` stores (placement per
/// `--policy`), serves the query through a `ShardedSession` with
/// `--workers` pinned workers per shard, and prints per-document results
/// in document-name order — the output is identical no matter how many
/// shards or workers served it.
fn cmd_corpus_query(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut shards = 2usize;
    let mut workers = 1usize;
    let mut policy = PlacementPolicy::RoundRobin;
    let mut docs: Option<Vec<String>> = None;
    let mut strategy = Strategy::default();
    let mut count_only = false;
    let mut show_stats = false;
    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            ($name:literal) => {{
                i += 1;
                match args.get(i).map(|s| s.parse()) {
                    Some(Ok(v)) => v,
                    _ => return usage_error(concat!($name, " needs a valid value")),
                }
            }};
        }
        match args[i].as_str() {
            "--shards" => {
                shards = value!("--shards");
                if shards == 0 {
                    return usage_error("--shards needs a positive integer");
                }
            }
            "--workers" => workers = value!("--workers"),
            "--policy" => policy = value!("--policy"),
            "--strategy" => strategy = value!("--strategy"),
            "--docs" => {
                i += 1;
                match args.get(i) {
                    Some(list) => {
                        docs = Some(list.split(',').map(|d| d.trim().to_string()).collect())
                    }
                    None => return usage_error("--docs needs a comma-separated list"),
                }
            }
            "--count" => count_only = true,
            "--stats" => show_stats = true,
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            p => positional.push(p),
        }
        i += 1;
    }
    let [corpus_dir, query] = positional[..] else {
        return usage_error("corpus query needs <corpus-dir> and '<xpath>'");
    };

    let corpus = match Corpus::open_dir(corpus_dir, shards, policy) {
        Ok(c) => Arc::new(c),
        Err(e) => return fail(format!("{corpus_dir}: {e}")),
    };
    let session = ShardedSession::new(Arc::clone(&corpus), workers);
    // Wire the serving stack into a registry up front so the fan-out below
    // is recorded; rendered with the rest of the --stats report.
    let registry = show_stats.then(xwq::obs::Registry::new);
    if let Some(registry) = &registry {
        session.enable_telemetry(registry);
    }
    let started = std::time::Instant::now();
    let outcomes = match docs {
        Some(names) => session.query_docs(query, strategy, &names),
        None => session.query_corpus(query, strategy),
    };
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let elapsed = started.elapsed();

    // Buffered + EPIPE-tolerant, like `xwq query`.
    let stdout = std::io::stdout();
    let mut w = std::io::BufWriter::new(stdout.lock());
    use std::io::Write as _;
    let mut failures = 0usize;
    let mut eval_total = xwq::core::EvalStats::default();
    for o in &outcomes {
        match &o.result {
            Ok(resp) => {
                eval_total.accumulate(&resp.stats);
                if count_only {
                    if writeln!(w, "{:>8}  {}", resp.nodes.len(), o.doc).is_err() {
                        return ExitCode::SUCCESS;
                    }
                } else {
                    let doc = corpus.get(&o.doc).expect("served doc is in the corpus");
                    for &v in &resp.nodes {
                        let line =
                            writeln!(w, "{:>8}  {}  {}", v, o.doc, node_path(doc.document(), v));
                        if line.is_err() {
                            return ExitCode::SUCCESS;
                        }
                    }
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("xwq: {}: {e}", o.doc);
            }
        }
    }
    if w.flush().is_err() {
        return ExitCode::SUCCESS;
    }
    if show_stats {
        let loads = corpus.loads();
        let per_shard: Vec<String> = loads
            .iter()
            .enumerate()
            .map(|(s, l)| {
                format!(
                    "shard {s}: {} docs, {} nodes, {} workers",
                    l.docs,
                    l.nodes,
                    session.shard_workers(s)
                )
            })
            .collect();
        eprintln!(
            "# {} documents on {} shards ({} placement, {workers} workers/shard) in {elapsed:.1?}",
            outcomes.len(),
            corpus.shard_count(),
            policy.token()
        );
        eprintln!("# {}", per_shard.join("; "));
        let adm = session.admission_stats();
        eprintln!(
            "# admission: {} admitted, {} waited, {} rejected; eval: {} visited, {} jumps, {} selected",
            adm.admitted, adm.waited, adm.rejected,
            eval_total.visited, eval_total.jumps, eval_total.selected
        );
        if let Some(registry) = &registry {
            eprint!("{}", registry.render(xwq::obs::RenderFormat::Prometheus));
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `xwq serve <corpus-dir> [--addr <host:port>] …`
///
/// Opens the corpus exactly as `corpus query` does, then serves it over
/// HTTP/1.1 until SIGINT/SIGTERM (or `--drain-after-ms`, a test hook),
/// draining in-flight requests before exit and persisting compiled
/// plans — with their observed-visit history — to `.xwqp` sidecars so a
/// restarted server re-plans from what this one actually measured.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut addr = String::from("127.0.0.1:7878");
    let mut shards = 2usize;
    let mut workers = 1usize;
    let mut policy = PlacementPolicy::RoundRobin;
    let mut admission = xwq::shard::AdmissionConfig::default();
    let mut serve_cfg = xwq::serve::ServeConfig::default();
    let mut drain_after_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            ($name:literal) => {{
                i += 1;
                match args.get(i).map(|s| s.parse()) {
                    Some(Ok(v)) => v,
                    _ => return usage_error(concat!($name, " needs a valid value")),
                }
            }};
        }
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => addr = a.clone(),
                    None => return usage_error("--addr needs host:port"),
                }
            }
            "--shards" => {
                shards = value!("--shards");
                if shards == 0 {
                    return usage_error("--shards needs a positive integer");
                }
            }
            "--workers" => workers = value!("--workers"),
            "--policy" => policy = value!("--policy"),
            "--http-workers" => {
                serve_cfg.http_workers = value!("--http-workers");
                if serve_cfg.http_workers == 0 {
                    return usage_error("--http-workers needs a positive integer");
                }
            }
            "--max-active" => admission.max_active = value!("--max-active"),
            "--max-waiting" => admission.max_waiting = value!("--max-waiting"),
            "--admission-timeout-ms" => {
                let ms: u64 = value!("--admission-timeout-ms");
                admission.timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--max-queued" => serve_cfg.max_queued = value!("--max-queued"),
            "--read-timeout-ms" => {
                let ms: u64 = value!("--read-timeout-ms");
                serve_cfg.read_timeout = std::time::Duration::from_millis(ms);
            }
            "--drain-after-ms" => drain_after_ms = Some(value!("--drain-after-ms")),
            "--allow-latency-injection" => serve_cfg.allow_latency_injection = true,
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown serve flag {flag}"))
            }
            p => positional.push(p),
        }
        i += 1;
    }
    let [corpus_dir] = positional[..] else {
        return usage_error("serve needs <corpus-dir>");
    };

    let corpus = match Corpus::open_dir(corpus_dir, shards, policy) {
        Ok(c) => Arc::new(c),
        Err(e) => return fail(format!("{corpus_dir}: {e}")),
    };
    let session = Arc::new(ShardedSession::with_config(
        Arc::clone(&corpus),
        xwq::shard::ShardedConfig {
            workers_per_shard: workers,
            admission,
            ..xwq::shard::ShardedConfig::default()
        },
    ));
    let registry = Arc::new(xwq::obs::Registry::new());
    session.enable_telemetry(&registry);
    if !xwq::serve::signal::install_shutdown_handler() {
        eprintln!("xwq: serve: warning: signal handlers unavailable; rely on --drain-after-ms");
    }
    let server = match xwq::serve::Server::start(
        Arc::clone(&session),
        Arc::clone(&registry),
        &addr,
        serve_cfg,
    ) {
        Ok(s) => s,
        Err(e) => return fail(format!("{addr}: {e}")),
    };
    // Printed to stdout and flushed eagerly: CI backgrounds the server and
    // greps this line for the kernel-chosen port when `--addr` ends in `:0`.
    println!(
        "xwq: serving {corpus_dir} on http://{}",
        server.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let deadline =
        drain_after_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    while !xwq::serve::signal::shutdown_requested() {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("xwq: serve: draining");
    server.shutdown();
    let saved = session.persist_plans();
    eprintln!("xwq: serve: drained; {saved} plan sidecar(s) persisted");
    ExitCode::SUCCESS
}

/// `xwq loadgen --addr <host:port> --query '<xpath>' …`
///
/// Drives a running `xwq serve` with an open-loop schedule (see
/// `xwq_serve::loadgen`) and prints the latency/error report.
fn cmd_loadgen(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut query: Option<String> = None;
    let mut cfg = xwq::serve::LoadgenConfig::default();
    let mut strategy: Option<Strategy> = None;
    let mut count_only = false;
    let mut stream = false;
    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            ($name:literal) => {{
                i += 1;
                match args.get(i).map(|s| s.parse()) {
                    Some(Ok(v)) => v,
                    _ => return usage_error(concat!($name, " needs a valid value")),
                }
            }};
        }
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => addr = Some(a.clone()),
                    None => return usage_error("--addr needs host:port"),
                }
            }
            "--query" => {
                i += 1;
                match args.get(i) {
                    Some(q) => query = Some(q.clone()),
                    None => return usage_error("--query needs an XPath expression"),
                }
            }
            "--rate" => {
                cfg.rate_hz = value!("--rate");
                if !cfg.rate_hz.is_finite() || cfg.rate_hz <= 0.0 {
                    return usage_error("--rate needs a positive number");
                }
            }
            "--requests" => cfg.requests = value!("--requests"),
            "--senders" => {
                cfg.senders = value!("--senders");
                if cfg.senders == 0 {
                    return usage_error("--senders needs a positive integer");
                }
            }
            "--timeout-ms" => {
                let ms: u64 = value!("--timeout-ms");
                cfg.timeout = std::time::Duration::from_millis(ms);
            }
            "--strategy" => strategy = Some(value!("--strategy")),
            "--count" => count_only = true,
            "--stream" => stream = true,
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown loadgen flag {flag}"))
            }
            _ => return usage_error("loadgen takes no positional arguments"),
        }
        i += 1;
    }
    let Some(addr) = addr else {
        return usage_error("loadgen needs --addr");
    };
    let Some(query) = query else {
        return usage_error("loadgen needs --query");
    };
    if let Err(e) = xwq::xpath::parse_xpath(&query) {
        return fail(format!("--query: {e}"));
    }
    cfg.addr = addr;
    let mut body = String::from("{\"query\":");
    body.push_str(&xwq::serve::json::escaped(&query));
    if let Some(s) = strategy {
        body.push_str(",\"strategy\":\"");
        body.push_str(s.token());
        body.push('"');
    }
    if count_only {
        body.push_str(",\"count\":true");
    }
    if stream {
        body.push_str(",\"stream\":true");
    }
    body.push('}');
    cfg.body = body;

    let report = xwq::serve::loadgen::run(&cfg);
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "# loadgen: {} requests offered at {:.1} rps to {} ({} senders)",
        cfg.requests, cfg.rate_hz, cfg.addr, cfg.senders
    );
    println!(
        "  sent {}  ok {}  errors {}  late {}  (error rate {:.2}%)",
        report.sent,
        report.ok,
        report.errors,
        report.late,
        report.error_rate * 100.0
    );
    println!(
        "  latency from scheduled arrival: p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        ms(report.p50_ns),
        ms(report.p99_ns),
        ms(report.max_ns)
    );
    println!(
        "  achieved {:.1} rps over {:.3} s",
        report.achieved_rps,
        report.elapsed_ns as f64 / 1e9
    );

    if report.sent > 0 && report.ok == 0 {
        fail("loadgen: every request failed")
    } else {
        ExitCode::SUCCESS
    }
}

/// `xwq xmark -o <file.xml> [--factor <f>] [--seed <n>]`
///
/// Writes an XMark sample document (the paper's benchmark generator) as
/// XML — the seed data for corpus builds and CI smoke tests.
fn cmd_xmark(args: &[String]) -> ExitCode {
    let mut factor = 0.01f64;
    let mut seed = 42u64;
    let mut out: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            ($name:literal) => {{
                i += 1;
                match args.get(i).map(|s| s.parse()) {
                    Some(Ok(v)) => v,
                    _ => return usage_error(concat!($name, " needs a valid value")),
                }
            }};
        }
        match args[i].as_str() {
            "--factor" => factor = value!("--factor"),
            "--seed" => seed = value!("--seed"),
            "-o" | "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p),
                    None => return usage_error("-o needs a path"),
                }
            }
            flag => return usage_error(&format!("unknown xmark flag {flag}")),
        }
        i += 1;
    }
    let Some(out) = out else {
        return usage_error("xmark needs -o <file.xml>");
    };
    let doc = xwq::xmark::generate(xwq::xmark::GenOptions { factor, seed });
    match std::fs::write(out, doc.to_xml()) {
        Ok(()) => {
            eprintln!(
                "# xmark factor {factor} seed {seed}: {} nodes -> {out}",
                doc.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("cannot write {out}: {e}")),
    }
}

/// `xwq lint [--root <dir>]`
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = PathBuf::from(p),
                    None => return usage_error("--root needs a directory"),
                }
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            p => return usage_error(&format!("lint takes no positional argument ({p})")),
        }
        i += 1;
    }
    let report = match xwq::lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => return fail(format!("{}: {e}", root.display())),
    };
    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.clean() {
        eprintln!("xwq lint: {} files clean", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xwq lint: {} violation(s) across {} files",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

enum FlagParse<'a> {
    Consumed,
    Positional(&'a str),
    Err(ExitCode),
}

/// Parses one argument at `*i` against the shared flag set.
fn parse_common_flag<'a>(
    args: &'a [String],
    i: &mut usize,
    flags: &mut CommonFlags,
) -> FlagParse<'a> {
    match args[*i].as_str() {
        "--strategy" => {
            *i += 1;
            match args.get(*i).map(|s| s.parse::<Strategy>()) {
                Some(Ok(s)) => {
                    flags.strategy = s;
                    FlagParse::Consumed
                }
                Some(Err(e)) => FlagParse::Err(usage_error(&e.to_string())),
                None => FlagParse::Err(usage_error("--strategy needs a value")),
            }
        }
        "--repeat" => {
            *i += 1;
            match args.get(*i).map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => {
                    flags.repeat = n;
                    FlagParse::Consumed
                }
                _ => FlagParse::Err(usage_error("--repeat needs a positive integer")),
            }
        }
        "--threads" => {
            *i += 1;
            match args.get(*i).map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => {
                    flags.threads = Some(n);
                    FlagParse::Consumed
                }
                _ => FlagParse::Err(usage_error("--threads needs a positive integer")),
            }
        }
        "--count" => {
            flags.count_only = true;
            FlagParse::Consumed
        }
        "--mmap" => {
            flags.mmap = true;
            FlagParse::Consumed
        }
        "--stats" => {
            flags.show_stats = true;
            FlagParse::Consumed
        }
        "--text" => {
            flags.show_text = true;
            FlagParse::Consumed
        }
        flag if flag.starts_with("--") => {
            FlagParse::Err(usage_error(&format!("unknown flag {flag}")))
        }
        p => FlagParse::Positional(p),
    }
}

fn load_xml(path: &str) -> Result<Document, ExitCode> {
    // Raw bytes + the strict byte parser: invalid UTF-8 is reported as a
    // parse error at its offset, not an opaque I/O failure (and never a
    // silent U+FFFD substitution).
    let xml = std::fs::read(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    xwq::xml::parse_bytes(&xml).map_err(|e| fail(format!("{path}: {e}")))
}

/// `/site/regions[1]/item[3]`-style path (1-based positions among
/// same-named siblings).
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

/// Concatenated text content of a subtree (first 60 chars).
fn text_of(doc: &Document, v: NodeId) -> String {
    let mut out = String::new();
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        if let Some(t) = doc.text(u) {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t);
        }
        let kids: Vec<NodeId> = doc.children(u).collect();
        for c in kids.into_iter().rev() {
            stack.push(c);
        }
        if out.len() > 60 {
            out.truncate(60);
            out.push('…');
            break;
        }
    }
    out
}
