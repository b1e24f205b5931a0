//! One workload, end to end: prepare inputs and the oracle, set the
//! system up (timed), then either the untraced timed phase (end-to-end
//! metrics) or the traced ladder replay (per-layer metrics).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xwq_index::{TopologyKind, TreeIndex};
use xwq_obs::Registry;
use xwq_serve::{ServeConfig, Server};
use xwq_shard::Corpus;
use xwq_store::CacheStats;

use crate::bed::{self, CorpusBed, Round, SingleBed};
use crate::env::peak_rss_mb;
use crate::httpc::{self, Conn};
use crate::inputs::{element_labels, DocInput, Requests, Workload};
use crate::json::{obj, Json};
use crate::ladder;
use crate::oracle::{self, Answer};
use crate::rng::SplitMix64;
use crate::run::{
    closed_loop, open_loop_http, settle, FanoutRung, LoopOut, OpenOut, Placed, Rung, Sample,
    ServeRung, SessionRung,
};
use crate::stats::{median, percentile, Latency};

pub const CHURN_WRITES_PER_S: f64 = 4.0;
pub const CHECKPOINT_EVERY: usize = 16;
/// `corpus-serve` latency limit on the supported tail percentile.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
const HTTP_CONNECTIONS: usize = 2;

/// The frozen open-loop rates: 25 / 50 / 80 % of the closed-loop capacity
/// measured when the benchmark was defined. Read from the file at build
/// time, never derived at run time.
const CORPUS_SERVE_JSON: &str = include_str!("../workloads/corpus-serve.json");

pub fn frozen_rates() -> [f64; 3] {
    let v = crate::json::parse(CORPUS_SERVE_JSON).expect("workloads/corpus-serve.json is JSON");
    let rates: Vec<f64> = v
        .get("open_loop_rates_rps")
        .and_then(Json::as_arr)
        .expect("open_loop_rates_rps")
        .iter()
        .map(|r| r.as_f64().expect("rate is a number"))
        .collect();
    [rates[0], rates[1], rates[2]]
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The `benchmark/` directory; everything written goes under its
    /// `out/`.
    pub dir: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Fingerprint, sample counts, exact-repeat counters, first error.
    pub notes: BTreeMap<String, Json>,
}

/// Everything set-up produced that the timed phase and the ladder need.
pub struct Ready {
    pub workload: Workload,
    pub docs: Vec<DocInput>,
    pub variants: Vec<DocInput>,
    pub reqs: Requests,
    /// Pre-rendered `POST /query` bytes per class.
    pub wire: Arc<Vec<Vec<u8>>>,
    pub rounds: Vec<Round>,
    pub single: Option<SingleBed>,
    pub corpus: Option<CorpusBed>,
    pub server: Option<Server>,
    pub placed: Vec<Placed>,
    /// The single-document workloads' entry rung, warmed: it owns the
    /// bed's session, so the compiled-query LRU that warm-up filled is the
    /// one requests hit. Taken by whichever phase runs.
    pub warm_session: Option<SessionRung>,
    pub work: PathBuf,
    pub prep_s: f64,
    pub setup_s: f64,
    pub first_query_ms: f64,
    pub plans_installed: f64,
    pub index_bytes: u64,
    pub warm: LoopOut,
}

impl Ready {
    pub fn nodes(&self) -> usize {
        self.docs.iter().map(|d| d.nodes).sum()
    }

    pub fn xml_bytes(&self) -> u64 {
        self.docs.iter().map(|d| d.xml.len() as u64).sum()
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server
            .as_ref()
            .expect("workload has a server")
            .local_addr()
    }

    /// The rung requests enter at. The corpus rungs are handles on the
    /// shared session or a new connection; a connection must not outlive
    /// its use, for an idle one keeps one of the two HTTP workers.
    pub fn take_top(&mut self) -> Top {
        match self.workload {
            Workload::CorpusServe => Top::Serve(self.serve_rung()),
            Workload::CorpusChurn => Top::Fanout(self.fanout_rung()),
            _ => Top::Session(
                self.warm_session
                    .take()
                    .expect("the warm session is taken once"),
            ),
        }
    }

    /// Compiled-query cache counters of the sessions behind `top`.
    pub fn cache_stats(&self, top: &Top) -> CacheStats {
        match (top, &self.corpus) {
            (Top::Session(rung), _) => rung.sessions[0].cache_stats(),
            (_, Some(corpus)) => corpus.session.cache_stats(),
            _ => unreachable!("corpus rungs have a corpus bed"),
        }
    }

    /// `(waited, rejected)` of the admission gate; zeros without one.
    pub fn admission_stats(&self) -> (u64, u64) {
        self.corpus.as_ref().map_or((0, 0), |c| {
            let a = c.session.admission_stats();
            (a.waited, a.rejected + a.timed_out)
        })
    }

    /// The live `.xwqi` files.
    pub fn artifacts(&self) -> Vec<PathBuf> {
        match (&self.single, &self.corpus) {
            (Some(single), _) => vec![single.index_path.clone()],
            (_, Some(corpus)) => bed::corpus_artifacts(&corpus.corpus),
            _ => unreachable!("a workload has one bed"),
        }
    }

    /// `serve.roundtrip` on a new keep-alive connection.
    pub fn serve_rung(&self) -> ServeRung {
        ServeRung {
            conn: Conn::open(self.addr()).expect("loopback connect"),
            wire: Arc::clone(&self.wire),
            resp_bytes: 0,
        }
    }

    pub fn fanout_rung(&self) -> FanoutRung {
        FanoutRung {
            session: Arc::clone(&self.corpus.as_ref().expect("corpus workload").session),
            names: self.docs.iter().map(|d| d.name.clone()).collect(),
            retried: 0,
        }
    }
}

/// A workload's entry rung.
pub enum Top {
    Session(SessionRung),
    Fanout(FanoutRung),
    Serve(ServeRung),
}

impl Top {
    pub fn rung(&mut self) -> &mut dyn Rung {
        match self {
            Top::Session(r) => r,
            Top::Fanout(r) => r,
            Top::Serve(r) => r,
        }
    }
}

/// How many `doc-adhoc` answers each cross-check samples.
const ADHOC_SAMPLE: usize = 200;

/// Fills every class's `expect`. The baseline evaluator answers every
/// distinct request over indexes the oracle builds itself from the XML
/// bytes — except on `doc-adhoc`, whose tens of thousands of texts are
/// answered by [`oracle::Shape::answer`] and then cross-checked on two
/// seeded samples: one against the baseline, one against the engine's
/// `Strategy::Naive`. Returns the cross-checks that disagreed.
fn fill_expectations(
    reqs: &mut Requests,
    docs: &[DocInput],
    variants: &[DocInput],
    seed: u64,
) -> Vec<String> {
    let parse = |d: &DocInput| xwq_xml::parse_bytes(&d.xml).expect("generated XML parses");
    if !reqs.shapes.is_empty() {
        let doc = parse(&docs[0]);
        for (class, shape) in reqs.classes.iter_mut().zip(&reqs.shapes) {
            class.expect = vec![vec![shape.answer(&doc)]];
        }
        let engine = xwq_core::Engine::build(&doc);
        let mut rng = SplitMix64::fork(seed, "adhoc-oracle");
        let mut disagreements = Vec::new();
        for check in 0..2 * ADHOC_SAMPLE.min(reqs.classes.len()) {
            let class = &reqs.classes[rng.below(reqs.classes.len())];
            let (who, other) = if check % 2 == 0 {
                ("baseline", oracle::baseline(engine.index(), &class.query))
            } else {
                let compiled = engine
                    .compile(&class.query)
                    .expect("generated query compiles");
                let out = engine.run(&compiled, xwq_core::Strategy::Naive);
                ("Strategy::Naive", Answer::of(&out.nodes))
            };
            if other != class.expect[0][0] {
                disagreements.push(format!("oracle and {who} disagree on {:?}", class.query));
            }
        }
        return disagreements;
    }
    let indexes: Vec<Vec<TreeIndex>> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            std::iter::once(d)
                .chain(variants.get(i))
                .map(|d| TreeIndex::build_with(&parse(d), TopologyKind::Array))
                .collect()
        })
        .collect();
    let mut memo: HashMap<(String, usize), Vec<Answer>> = HashMap::new();
    for class in &mut reqs.classes {
        class.expect = class
            .docs
            .iter()
            .map(|&d| {
                memo.entry((class.query.clone(), d))
                    .or_insert_with(|| {
                        indexes[d]
                            .iter()
                            .map(|ix| oracle::baseline(ix, &class.query))
                            .collect()
                    })
                    .clone()
            })
            .collect();
    }
    Vec::new()
}

/// Repeats `round` until there are `min` results and either `max` results
/// or `budget` seconds spent: small set-ups are repeated more, so their
/// medians are as steady as the big ones'.
fn repeat<T>(min: usize, max: usize, budget: f64, mut round: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && t0.elapsed().as_secs_f64() < budget) {
        out.push(round());
    }
    out
}

/// The median round's value of `f`.
pub fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn server_config() -> ServeConfig {
    ServeConfig {
        http_workers: bed::HTTP_WORKERS,
        ..ServeConfig::default()
    }
}

/// Prepares inputs, then brings the system up: ingest rounds, open,
/// warm-up, plan sidecars, and the cold-open samples.
pub fn set_up(args: &Args) -> Ready {
    let w = args.workload;
    let work =
        args.dir
            .join("out")
            .join("work")
            .join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("work directory is creatable");

    // The benchmark's own preparation: not the system's set-up time.
    let t = Instant::now();
    let docs = w.documents(args.seed, args.smoke);
    let variants = if w == Workload::CorpusChurn {
        w.variants(args.seed, args.smoke)
    } else {
        Vec::new()
    };
    let labels = element_labels(&docs[0].xml);
    let mut reqs = w.requests(args.seed, args.smoke, &labels, docs.len());
    let oracle_disagreements = fill_expectations(&mut reqs, &docs, &variants, args.seed);
    let wire: Arc<Vec<Vec<u8>>> = Arc::new(
        reqs.classes
            .iter()
            .map(|c| httpc::render_request(c, docs.len()))
            .collect(),
    );
    let prep_s = t.elapsed().as_secs_f64();

    // The query a cold open is timed with is the first *class*, not the
    // first request of the seeded order: fig. 2's queries differ by three
    // orders of magnitude, and the cold-open figures must not depend on
    // which one the shuffle put first.
    let first_class = (reqs.classes[0].query.clone(), reqs.classes[0].strategy);
    let first_query = (first_class.0.as_str(), first_class.1);
    let (min_rounds, min_opens) = if args.smoke { (2, 3) } else { (3, 5) };

    // Ingest rounds; the last round's bed serves the rest of the run.
    let (mut single, mut corpus, mut server, mut warm_session) = (None, None, None, None);
    let rounds;
    let placed: Vec<Placed>;
    if w.is_corpus() {
        let dir = work.join("corpus");
        let mut last = None;
        rounds = repeat(min_rounds, 5, 2.0, || {
            drop(last.take());
            let (round, bed) =
                bed::corpus_round(&docs, &dir, w == Workload::CorpusServe, first_query);
            last = Some(bed);
            round
        });
        let bed = last.expect("at least one round ran");
        placed = docs
            .iter()
            .map(|d| {
                let shard = bed.corpus.shard_of(&d.name).expect("document is placed");
                Placed {
                    name: d.name.clone(),
                    store: Arc::clone(bed.corpus.shard_store(shard)),
                    shard,
                }
            })
            .collect();
        corpus = Some(bed);
    } else {
        let index_path = work.join("doc.xwqi");
        let mut last = None;
        rounds = repeat(min_rounds, 9, 1.0, || {
            // The mapping of the previous round's file goes before the
            // file is rewritten.
            drop(last.take());
            let (round, bed, session) =
                bed::single_round(&docs[0], w.topology(), &index_path, first_query);
            last = Some((bed, session));
            round
        });
        let (bed, session) = last.expect("at least one round ran");
        placed = vec![Placed {
            name: bed::DOC.to_string(),
            store: Arc::clone(&bed.store),
            shard: 0,
        }];
        single = Some(bed);
        warm_session = Some(SessionRung::over(&placed, vec![session]));
    }
    let after_rounds = Instant::now();
    if let (Workload::CorpusServe, Some(bed)) = (w, &corpus) {
        // The registry is always on behind the server, as in `xwq serve`.
        let registry = Arc::new(Registry::new());
        bed.session.enable_telemetry(&registry);
        bed.corpus.enable_telemetry(&registry);
        server = Some(
            Server::start(
                Arc::clone(&bed.session),
                registry,
                "127.0.0.1:0",
                server_config(),
            )
            .expect("loopback server starts"),
        );
    }

    let mut ready = Ready {
        workload: w,
        docs,
        variants,
        reqs,
        wire,
        rounds,
        single,
        corpus,
        server,
        placed,
        warm_session,
        work,
        prep_s,
        setup_s: 0.0,
        first_query_ms: 0.0,
        plans_installed: 0.0,
        index_bytes: 0,
        warm: LoopOut::default(),
    };
    let mut top = ready.take_top();

    // Warm-up through the entry rung: every class once (a 512-request
    // prefix where the classes are never-repeated texts), answers checked
    // like any other.
    let all_classes: Vec<u32> = (0..ready.reqs.classes.len() as u32).collect();
    let which = if all_classes.len() <= 512 {
        &all_classes[..]
    } else {
        &ready.reqs.sequence[..512]
    };
    ready.warm = warm_pass(&ready.reqs, which, top.rung());
    // An oracle that disagrees with its cross-checks cannot vouch for the
    // run: each disagreement counts as a failed operation.
    for d in oracle_disagreements {
        ready.warm.samples.push(Sample::untimed(0, 0, 0));
        ready.warm.fail(d);
    }

    // Persist the compiled plans, as `xwq query --index` and `xwq serve`
    // do on the way out, so a cold open finds its sidecars.
    if let (Top::Session(rung), Some(single)) = (&top, &ready.single) {
        rung.sessions[0]
            .persist_plans(bed::DOC, &single.index_path)
            .expect("plan sidecar is written");
    }
    if let Some(corpus) = &ready.corpus {
        corpus.session.persist_plans();
    }
    if let Top::Session(rung) = top {
        ready.warm_session = Some(rung);
    }
    ready.setup_s = med(&ready.rounds, |r| r.total) + after_rounds.elapsed().as_secs_f64();

    // Cold opens of the finished artifacts: fresh store, fresh session,
    // first query answered.
    let mut installed = 0.0;
    let opens = repeat(min_opens, 20, 1.0, || {
        if let Some(single) = &ready.single {
            let (bed, _session, open, first) = bed::open_single(&single.index_path, first_query);
            let doc = bed.store.get(bed::DOC).expect("document is open");
            installed = doc.engine().plan_counters().installed as f64;
            (open + first) * 1e3
        } else {
            let dir = &ready.corpus.as_ref().expect("corpus workload").dir;
            let (bed, open, first) = bed::open_corpus(dir, first_query);
            installed = bed
                .corpus
                .doc_names()
                .iter()
                .filter_map(|n| bed.corpus.get(n))
                .map(|d| d.engine().plan_counters().installed as f64)
                .sum();
            (open + first) * 1e3
        }
    });
    ready.first_query_ms = median(&opens);
    ready.plans_installed = installed;
    ready.index_bytes = bed::index_bytes(&ready.artifacts());
    ready
}

/// One untimed pass over the classes `which` names, answers checked.
fn warm_pass(reqs: &Requests, which: &[u32], rung: &mut dyn Rung) -> LoopOut {
    let mut out = LoopOut::default();
    for &c in which {
        let class = &reqs.classes[c as usize];
        out.samples.push(Sample::untimed(c as usize, 0, 0));
        if let Err(why) = settle(class, rung.call(c as usize, class)) {
            out.fail(format!("warm-up: {why}"));
        }
    }
    out
}

/// What the writer thread of `corpus-churn` did.
#[derive(Debug, Default)]
pub struct WriterOut {
    pub scheduled: u64,
    pub done: u64,
    pub failed: u64,
    /// Started more than one period after they were due.
    pub late: u64,
    pub update_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub wal_bytes: Vec<f64>,
}

/// The writer: on a fixed schedule, replace a rotating document with its
/// other variant (XML bytes → parse → build → `Corpus::replace`), and
/// checkpoint every 16th op. Open loop: an op that cannot start within
/// one period of its due time is skipped and counted as late.
pub fn churn_writer(
    corpus: &Corpus,
    docs: &[DocInput],
    variants: &[DocInput],
    seconds: f64,
) -> WriterOut {
    let dir = corpus.dir().expect("durable corpus");
    let period = Duration::from_secs_f64(1.0 / CHURN_WRITES_PER_S);
    let start = Instant::now();
    let mut out = WriterOut {
        scheduled: (seconds * CHURN_WRITES_PER_S).floor() as u64,
        ..WriterOut::default()
    };
    let n = docs.len();
    for k in 0..out.scheduled as usize {
        // Half a period in, so the first op does not race the reader's start.
        let due = start + period.mul_f64(k as f64 + 0.5);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if Instant::now().saturating_duration_since(due) > period {
            out.late += 1;
            continue;
        }
        // Document k % n, alternating variant B, A, B, … per document.
        let input = if (k / n).is_multiple_of(2) {
            &variants[k % n]
        } else {
            &docs[k % n]
        };
        let wal_before = bed::wal_len(&dir);
        match bed::replace_op(corpus, input) {
            Ok((parse, build, commit)) => {
                out.done += 1;
                out.update_ms.push((parse + build + commit) * 1e3);
                out.commit_ms.push(commit * 1e3);
                out.wal_bytes
                    .push(bed::wal_len(&dir).saturating_sub(wal_before) as f64);
            }
            Err(_) => out.failed += 1,
        }
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            let t = Instant::now();
            match corpus.checkpoint() {
                Ok(()) => out.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Err(_) => out.failed += 1,
            }
        }
    }
    out
}

/// The closed-loop phase of `corpus-serve`: two keep-alive connections,
/// each sending its share of the sequence back to back.
pub fn serve_closed(ready: &Ready, seconds: f64) -> (LoopOut, u64) {
    let addr = ready.addr();
    let parts: Vec<(LoopOut, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HTTP_CONNECTIONS)
            .map(|j| {
                let wire = Arc::clone(&ready.wire);
                let reqs = &ready.reqs;
                scope.spawn(move || {
                    let mut rung = ServeRung {
                        conn: Conn::open(addr).expect("loopback connect"),
                        wire,
                        resp_bytes: 0,
                    };
                    let out = closed_loop(reqs, j, HTTP_CONNECTIONS, seconds, &mut rung, None);
                    (out, rung.resp_bytes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut all = LoopOut::default();
    let mut bytes = 0;
    for (out, b) in parts {
        all.merge(out);
        bytes += b;
    }
    (all, bytes)
}

/// One open-loop phase of `corpus-serve` per rate.
pub fn serve_open(ready: &Ready, rates: &[f64], seconds_each: f64) -> Vec<OpenOut> {
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            open_loop_http(
                &ready.reqs,
                &ready.wire,
                ready.addr(),
                HTTP_CONNECTIONS,
                rate,
                seconds_each,
                // Each phase starts elsewhere in the sequence.
                1000 * (i + 1),
            )
        })
        .collect()
}

/// A phase meets its rate if nothing failed, nothing was left unsent, the
/// last request was not running behind, and the tail is within the limit.
pub fn rate_ok(open: &OpenOut, lat: &Latency) -> bool {
    open.lat.failed == 0
        && open.unsent == 0
        && open.final_lateness_us < LATENCY_LIMIT_US
        && lat.tail.is_some_and(|(_, v)| v <= LATENCY_LIMIT_US)
}

/// The sample count and the whole-phase percentiles (no windows), for the
/// notes.
fn latency_notes(out: &LoopOut, notes: &mut Vec<(String, Json)>) {
    let mut ns = out.latencies();
    ns.sort_unstable();
    notes.push(("samples".to_string(), Json::Num(ns.len() as f64)));
    for p in [50.0, 90.0, 99.0] {
        let us = f64::from(percentile(&ns, p)) / 1e3;
        notes.push((format!("whole_phase_lat_p{p}_us"), Json::Num(us)));
    }
}

struct Timed {
    attempted: u64,
    failed: u64,
    throughput_qps: f64,
    lat: Latency,
    write_lat_p50_ms: f64,
    notes: Vec<(String, Json)>,
}

/// The untraced timed phase.
fn timed_phase(args: &Args, ready: &mut Ready) -> Timed {
    let seconds = args.seconds;
    let setup_writes: Vec<f64> = ready
        .rounds
        .iter()
        .flat_map(|r| r.update_ms.iter().copied())
        .collect();
    let mut notes: Vec<(String, Json)> = Vec::new();
    let mut writes = None;
    let out = match ready.workload {
        // Two keep-alive connections at saturation for the whole phase.
        // The open-loop rates are the traced run's (`serve.lat_*.r1..r3`,
        // `serve.rate_ok_rps`): from due time, a sandbox stall of a few
        // milliseconds delays every request scheduled during it, and the
        // open-loop tail then counts the machine's stalls, not the
        // program's work — across ten runs it spread by several hundred
        // percent, where the closed loop holds its bound.
        Workload::CorpusServe => serve_closed(ready, seconds).0,
        Workload::CorpusChurn => {
            let mut rung = ready.fanout_rung();
            let corpus = &*ready.corpus.as_ref().expect("corpus workload").corpus;
            let (reqs, docs, variants) = (&ready.reqs, &ready.docs, &ready.variants);
            let (reads, written) = std::thread::scope(|scope| {
                let writer = scope.spawn(move || churn_writer(corpus, docs, variants, seconds));
                let reads = closed_loop(reqs, 0, 1, seconds, &mut rung, None);
                (reads, writer.join().expect("writer panicked"))
            });
            notes.extend([
                (
                    "writes_scheduled".to_string(),
                    Json::Num(written.scheduled as f64),
                ),
                ("writes_done".to_string(), Json::Num(written.done as f64)),
                ("writes_late".to_string(), Json::Num(written.late as f64)),
                ("reads_retried".to_string(), Json::Num(rung.retried as f64)),
            ]);
            writes = Some(written);
            reads
        }
        _ => {
            let Top::Session(mut rung) = ready.take_top() else {
                unreachable!("single-document workloads enter at store.session");
            };
            let before = rung.sessions[0].cache_stats();
            let out = closed_loop(&ready.reqs, 0, 1, seconds, &mut rung, None);
            let after = rung.sessions[0].cache_stats();
            let hits = (after.hits - before.hits) as f64;
            let misses = (after.misses - before.misses) as f64;
            notes.push((
                "cache_hit_ratio".to_string(),
                Json::Num(hits / (hits + misses)),
            ));
            out
        }
    };
    let windowed = out.windowed().expect("the client sent requests");
    notes.push(("windows".to_string(), Json::Num(windowed.windows as f64)));
    latency_notes(&out, &mut notes);
    if let Some(e) = &out.first_error {
        notes.push(("first_error".to_string(), Json::Str(e.clone())));
    }
    // A write that errors is a failed operation. One that could not start
    // within a period of its due time was never attempted; it is counted
    // (`writes_late`, `bench.write_failed_share`) and, the writer being
    // one thread, shows as the slow write before it in `write_lat_p50_ms`.
    let (write_attempts, write_errors) = writes
        .as_ref()
        .map_or((0, 0), |w| (w.done + w.failed, w.failed));
    let write_lat_p50_ms = match &writes {
        Some(w) if w.update_ms.is_empty() => seconds * 1e3, // none finished within the phase
        Some(w) => median(&w.update_ms),
        // No writer of its own: the write path was sampled in set-up.
        None => median(&setup_writes),
    };
    Timed {
        attempted: out.attempted() + write_attempts,
        failed: out.failed + write_errors,
        throughput_qps: windowed.throughput_qps,
        lat: windowed.latency,
        write_lat_p50_ms,
        notes,
    }
}

/// Runs one workload and returns its result. The work directory is
/// removed before returning.
pub fn run(args: &Args) -> Outcome {
    let mut ready = set_up(args);
    let fingerprint = {
        let mut h = ready.reqs.fingerprint();
        for d in ready.docs.iter().chain(&ready.variants) {
            h = (h ^ d.nodes as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    };
    let mut notes: BTreeMap<String, Json> = BTreeMap::new();
    notes.insert("fingerprint".to_string(), Json::Str(fingerprint));
    notes.insert("nodes".to_string(), Json::Num(ready.nodes() as f64));
    notes.insert("xml_bytes".to_string(), Json::Num(ready.xml_bytes() as f64));
    notes.insert(
        "index_bytes".to_string(),
        Json::Num(ready.index_bytes as f64),
    );
    notes.insert(
        "ingest_rounds".to_string(),
        Json::Num(ready.rounds.len() as f64),
    );
    notes.insert(
        "distinct_requests".to_string(),
        Json::Num(ready.reqs.classes.len() as f64),
    );
    notes.insert("prep_s".to_string(), Json::Num(ready.prep_s));

    let mut attempted = ready.warm.attempted();
    let mut failed = ready.warm.failed;
    if let Some(e) = &ready.warm.first_error {
        notes.insert("first_error".to_string(), Json::Str(e.clone()));
    }

    let metrics = if args.trace {
        let out = ladder::run(args, &mut ready);
        attempted += out.attempted;
        failed += out.failed;
        for (k, v) in out.notes {
            notes.entry(k).or_insert(v);
        }
        out.metrics
    } else {
        let timed = timed_phase(args, &mut ready);
        attempted += timed.attempted;
        failed += timed.failed;
        for (k, v) in timed.notes {
            notes.entry(k).or_insert(v);
        }
        let mut m = vec![
            metric("setup_s", ready.setup_s, "s"),
            metric("throughput_qps", timed.throughput_qps, "1/s"),
            metric("lat_p50_us", timed.lat.p50, "us"),
        ];
        // The tail goes under the name of the percentile the sample
        // supports: `lat_p95_us` needs 200 samples a window, which every
        // workload has at full size. Should a slow machine fall short, the
        // run still reports the name `BENCHMARK.json` promises, flagged.
        match timed.lat.tail {
            Some((name, value)) if args.smoke || name == "p95" => {
                m.push(metric(format!("lat_{name}_us"), value, "us"));
            }
            _ => {
                eprintln!(
                    "{}: {} latency samples do not support a p95; lat_p95_us is reported regardless",
                    args.workload.name(),
                    timed.lat.n
                );
                notes.insert("lat_p95_us_supported".to_string(), Json::Bool(false));
                m.push(metric("lat_p95_us", timed.lat.at_cap, "us"));
            }
        }
        m.extend([
            metric("first_query_ms", ready.first_query_ms, "ms"),
            metric(
                "build_nodes_per_s",
                ready.nodes() as f64 / med(&ready.rounds, |r| r.encode),
                "1/s",
            ),
            metric(
                "index_bytes_per_xml_byte",
                ready.index_bytes as f64 / ready.xml_bytes() as f64,
                "ratio",
            ),
            metric("write_lat_p50_ms", timed.write_lat_p50_ms, "ms"),
            // Last, so it sees the whole run.
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]);
        m
    };

    // Stop the server and every pool before the directory goes away.
    let work = ready.work.clone();
    if let Some(server) = ready.server.take() {
        server.shutdown();
    }
    drop(ready);
    remove_work_dir(&work);

    notes.insert("ok".to_string(), Json::Bool(failed == 0));
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn remove_work_dir(work: &Path) {
    std::fs::remove_dir_all(work).ok();
    // `out/work` itself, when this was the last workload using it.
    if let Some(parent) = work.parent() {
        std::fs::remove_dir(parent).ok();
    }
}

/// The result as `out/result-<workload>[-trace].json` holds it.
pub fn outcome_json(args: &Args, outcome: &Outcome) -> Json {
    obj([
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(outcome.notes.clone())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_smoke(workload: Workload, seed: u64) -> Outcome {
        run(&Args {
            workload,
            seed,
            seconds: 0.3,
            trace: true,
            smoke: true,
            dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        })
    }

    /// What must repeat exactly for a seed: the fingerprint, the index
    /// size, and the counters of the fixed replay.
    fn exact(outcome: &Outcome) -> Vec<String> {
        let mut out: Vec<String> = [
            "fingerprint",
            "index_bytes",
            "visited_total",
            "selected_total",
        ]
        .iter()
        .map(|k| format!("{k}={}", outcome.notes[*k].render()))
        .collect();
        for m in &outcome.metrics {
            if [
                "core.visited_per_req",
                "core.jumps_per_req",
                "store.xwqi_bytes_per_node",
            ]
            .contains(&m.name.as_str())
            {
                out.push(format!("{}={}", m.name, m.value));
            }
        }
        out
    }

    #[test]
    fn same_seed_repeats_exactly_and_another_seed_differs() {
        for workload in [Workload::DocAdhoc, Workload::CorpusChurn] {
            let a = traced_smoke(workload, 42);
            let b = traced_smoke(workload, 42);
            let c = traced_smoke(workload, 43);
            assert_eq!(a.failed, 0, "{:?}", a.notes.get("first_error"));
            assert_eq!(exact(&a), exact(&b), "{}", workload.name());
            assert_ne!(exact(&a), exact(&c), "{}", workload.name());
        }
    }

    #[test]
    fn frozen_rates_are_increasing() {
        let [r1, r2, r3] = frozen_rates();
        assert!(0.0 < r1 && r1 < r2 && r2 < r3);
    }
}
