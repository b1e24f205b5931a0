//! The traced run: the same seeded request sequence replayed at each rung
//! of the call ladder, a span around every call, and the per-layer
//! metrics read off the rungs.
//!
//! Rungs, top to bottom: `serve.roundtrip` ⊃ `shard.fanout` ⊃
//! `store.session` ⊃ `core.exec`, with `xpath.parse`, `core.compile` and
//! `core.plan` timed directly beside them. A workload enters at the rung
//! its clients use; a layer's self time is its rung minus the rung below,
//! per request class (median), weighted by how often the class occurs in
//! the sequence. Layers above a workload's entry rung are not on its path
//! and report 0.

use std::time::Instant;

use xwq_core::EvalStats;
use xwq_obs::Registry;

use crate::bed;
use crate::inputs::{Class, Mode, Requests, Workload};
use crate::json::Json;
use crate::probes;
use crate::rng::SplitMix64;
use crate::run::{closed_loop, settle, ExecRung, LoopOut, Rung, Sample, SessionRung, SpanSink};
use crate::stats::{latency_us, median, ns_u32, quartiles};
use crate::trace::{Tracer, NO_PARENT, SPAN_REQS_PER_RUNG};
use crate::workload::{
    churn_writer, frozen_rates, med, metric, rate_ok, serve_closed, serve_open, Args, Metric,
    Ready, Top, WriterOut,
};

pub struct LadderOut {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<(String, Json)>,
}

/// How often each class occurs in the sequence.
fn class_weights(reqs: &Requests) -> Vec<f64> {
    let mut w = vec![0.0; reqs.classes.len()];
    for &c in &reqs.sequence {
        w[c as usize] += 1.0;
    }
    w
}

/// The cost of a typical request at a rung, in nanoseconds: per-class
/// medians, weighted by class frequency (over the classes the rung met).
fn weighted_ns(samples: &[Sample], weights: &[f64], pick: impl Fn(&Sample) -> u32) -> f64 {
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); weights.len()];
    for s in samples {
        per_class[s.class as usize].push(f64::from(pick(s)));
    }
    let (mut sum, mut total) = (0.0, 0.0);
    for (class, values) in per_class.iter().enumerate() {
        if !values.is_empty() {
            sum += weights[class] * median(values);
            total += weights[class];
        }
    }
    if total == 0.0 {
        0.0
    } else {
        sum / total
    }
}

fn whole(s: &Sample) -> u32 {
    s.ns
}

fn critical(s: &Sample) -> u32 {
    s.crit_ns
}

/// Totals a ladder accumulates over its replays.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn add(&mut self, out: &LoopOut) {
        self.attempted += out.attempted();
        self.failed += out.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&out.first_error);
        }
    }
}

/// Samples of the rungs below the top one.
#[derive(Default)]
struct Down {
    fanout: LoopOut,
    session: LoopOut,
    exec: LoopOut,
    hit: LoopOut,
    miss: LoopOut,
    /// `xpath.parse`, `core.compile`, `core.plan`.
    front: [Vec<Sample>; 3],
}

/// `xpath.parse`, `core.compile`, `core.plan` timed directly for one
/// request: one of each per target document, summed.
fn front_end(
    class_idx: usize,
    class: &Class,
    docs: &[std::sync::Arc<xwq_store::StoredDocument>],
    out: &mut [Vec<Sample>; 3],
    (req_id, parent): (usize, u32),
    tracer: &mut Tracer,
) {
    let mut ns = [0u32; 3];
    let t0 = Instant::now();
    for &d in &class.docs {
        let engine = docs[d].engine();
        let a = Instant::now();
        let parsed = xwq_xpath::parse_xpath(&class.query);
        let b = Instant::now();
        let compiled = engine
            .compile(&class.query)
            .expect("generated query compiles");
        let c = Instant::now();
        let program = engine.program(&compiled, class.strategy);
        let e = Instant::now();
        std::hint::black_box((parsed.is_ok(), program.runs()));
        ns[0] = ns[0].saturating_add(ns_u32(b - a));
        ns[1] = ns[1].saturating_add(ns_u32(c - b));
        ns[2] = ns[2].saturating_add(ns_u32(e - c));
    }
    for (samples, &n) in out.iter_mut().zip(&ns) {
        samples.push(Sample::untimed(class_idx, n, n));
    }
    if (req_id as u32) < SPAN_REQS_PER_RUNG {
        // One span per call kind, laid end to end from the request's start.
        let mut at = t0;
        for (name, &n) in ["xpath.parse", "core.compile", "core.plan"].iter().zip(&ns) {
            let end = at + std::time::Duration::from_nanos(u64::from(n));
            tracer.record(name, req_id as u32, parent, at, end);
            at = end;
        }
    }
}

/// Telemetry overhead: the `store.session` rung over the same requests
/// with `Session::enable_telemetry` on and off, in alternating blocks;
/// returns the per-pair overheads in percent.
fn obs_overhead(ready: &Ready, seconds: f64, per_request_ns: f64) -> Vec<f64> {
    const PAIRS: usize = 12;
    let capacity = bed::CACHE_CAPACITY.max(ready.reqs.classes.len() * ready.placed.len());
    let mut off = SessionRung::new(&ready.placed, capacity);
    let mut on = SessionRung::new(&ready.placed, capacity);
    let registry = Registry::new();
    for (s, session) in on.sessions.iter().enumerate() {
        session.enable_telemetry(&registry, &[("shard", &s.to_string())]);
    }
    let block_ns = seconds * 1e9 / (2.0 * PAIRS as f64 + 2.0);
    let block =
        ((block_ns / per_request_ns.max(1.0)) as usize).clamp(16, ready.reqs.sequence.len());
    let run_block = |rung: &mut SessionRung| {
        let t0 = Instant::now();
        for &c in &ready.reqs.sequence[..block] {
            let _ = rung.call(c as usize, &ready.reqs.classes[c as usize]);
        }
        t0.elapsed().as_secs_f64()
    };
    run_block(&mut off);
    run_block(&mut on);
    (0..PAIRS)
        .map(|i| {
            // Alternate which side goes first.
            let (t_on, t_off) = if i % 2 == 0 {
                let a = run_block(&mut on);
                (a, run_block(&mut off))
            } else {
                let b = run_block(&mut off);
                (run_block(&mut on), b)
            };
            (t_on / t_off - 1.0) * 100.0
        })
        .collect()
}

fn med_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// What `corpus-serve` measures beside the ladder; zeros elsewhere.
#[derive(Default)]
struct ServeSide {
    /// `(p50, tail)` microseconds per frozen rate.
    rates: [(f64, f64); 3],
    rate_ok_rps: f64,
    gen_late_share: f64,
    resp_bytes_per_req: f64,
    status_503: u64,
    stream_us: Vec<f64>,
    large_us: Vec<f64>,
}

/// The open loop at the three frozen rates, and the responses kept out of
/// the timed mix — streamed NDJSON and bodies beyond the server's write
/// buffer, five keep-alive round trips per class (see
/// `inputs::Workload::requests`).
fn serve_side(
    ready: &Ready,
    s: f64,
    weights: &[f64],
    tally: &mut Tally,
    notes: &mut Notes,
) -> ServeSide {
    let mut side = ServeSide::default();
    let (closed, bytes) = serve_closed(ready, s * 0.1);
    tally.add(&closed);
    side.status_503 += closed.shed;
    side.resp_bytes_per_req = bytes as f64 / closed.attempted().max(1) as f64;

    let (mut late, mut sent) = (0u64, 0u64);
    for (i, open) in serve_open(ready, &frozen_rates(), s * 0.15)
        .iter()
        .enumerate()
    {
        // A request still unsent when its phase ends was never attempted:
        // it makes the rate "not met", not the run incorrect. Finding the
        // rate the server cannot keep up with is what the rates are for.
        tally.add(&open.lat);
        side.status_503 += open.lat.shed;
        late += open.late;
        sent += open.lat.attempted();
        let lat = latency_us(&mut open.lat.latencies(), 99.0).expect("open loop sent requests");
        // The tail percentile the phase's sample supports: p99 at full
        // size; its name is in the notes.
        side.rates[i] = (lat.p50, lat.tail.map_or(0.0, |t| t.1));
        notes.push((
            format!("serve.r{}", i + 1),
            Json::Str(format!(
                "{} rps, {} samples, tail {}, unsent {}, final lateness {:.0} us",
                open.rate,
                lat.n,
                lat.tail.map_or("none", |t| t.0),
                open.unsent,
                open.final_lateness_us
            )),
        ));
        if rate_ok(open, &lat) {
            side.rate_ok_rps = open.rate;
        }
    }
    side.gen_late_share = late as f64 / sent.max(1) as f64;

    let mut off_mix = LoopOut::default();
    let mut rung = ready.serve_rung();
    for (i, class) in ready.reqs.classes.iter().enumerate() {
        if weights[i] > 0.0 {
            continue;
        }
        for _ in 0..5 {
            let t0 = Instant::now();
            let result = rung.call(i, class);
            let ns = ns_u32(t0.elapsed());
            off_mix.samples.push(Sample::untimed(i, ns, ns));
            if let Err(why) = settle(class, result) {
                off_mix.fail(why);
            }
            let us = f64::from(ns) / 1e3;
            if class.mode == Mode::HttpStream {
                side.stream_us.push(us);
            } else {
                side.large_us.push(us);
            }
        }
    }
    tally.add(&off_mix);
    side
}

/// The entry rung's replays and what was read off around them.
struct Entry {
    untraced: LoopOut,
    traced: LoopOut,
    /// The traced replay's span per request id.
    spans: Vec<u32>,
    writes: WriterOut,
    hit_ratio: f64,
    evictions: u64,
    admission_waited: u64,
    admission_rejected: u64,
    reads_retried: u64,
}

/// Replays the sequence at the entry rung, untraced then traced;
/// `corpus-churn` keeps its writer running beside both.
fn entry_rung(ready: &mut Ready, s: f64, tracer: &mut Tracer) -> Entry {
    let mut top = ready.take_top();
    let cache0 = ready.cache_stats(&top);
    let adm0 = ready.admission_stats();
    let mut spans = Vec::new();
    let mut writes = WriterOut::default();
    let (untraced, traced) = {
        let corpus = ready.corpus.as_ref().map(|c| &*c.corpus);
        let (reqs, docs, variants) = (&ready.reqs, &ready.docs, &ready.variants);
        let churn = ready.workload == Workload::CorpusChurn;
        let rung = top.rung();
        std::thread::scope(|scope| {
            let writer = churn.then(|| {
                let corpus = corpus.expect("corpus workload");
                scope.spawn(move || churn_writer(corpus, docs, variants, s * 0.3))
            });
            let untraced = closed_loop(reqs, 0, 1, s * 0.15, rung, None);
            let sink = SpanSink {
                tracer,
                parents: &[],
                own: &mut spans,
            };
            let traced = closed_loop(reqs, 0, 1, s * 0.15, rung, Some(sink));
            if let Some(h) = writer {
                writes = h.join().expect("writer panicked");
            }
            (untraced, traced)
        })
    };
    let cache1 = ready.cache_stats(&top);
    let adm1 = ready.admission_stats();
    let lookups = (cache1.hits + cache1.misses - cache0.hits - cache0.misses) as f64;
    Entry {
        untraced,
        traced,
        spans,
        writes,
        hit_ratio: if lookups > 0.0 {
            (cache1.hits - cache0.hits) as f64 / lookups
        } else {
            0.0
        },
        evictions: cache1.evictions - cache0.evictions,
        admission_waited: adm1.0 - adm0.0,
        admission_rejected: adm1.1 - adm0.1,
        reads_retried: match &top {
            Top::Fanout(rung) => rung.retried,
            _ => 0,
        },
    }
}

/// The rungs below the entry, in alternating blocks: a block of
/// consecutive requests goes through one rung, then the same block through
/// the next — fan-out, session, exec, forced hit, forced miss, front end —
/// before the next block starts. Blocks are ~30 ms, so a slow second on
/// the machine slows every rung alike and cancels out of the differences
/// between them, while inside a block each rung sees the cache state its
/// own previous request left. Returns the samples and the share of exec
/// calls that ran an automaton program.
fn lower_rungs(
    ready: &Ready,
    s: f64,
    entry_ns: f64,
    entry_spans: &[u32],
    tracer: &mut Tracer,
) -> (Down, f64) {
    let w = ready.workload;
    let reqs = &ready.reqs;
    let mut fanout = (w == Workload::CorpusServe).then(|| ready.fanout_rung());
    // `store.session` is replayed here even where requests enter at it:
    // only rungs of the same blocks can be subtracted from one another.
    let mut session = SessionRung::new(&ready.placed, bed::CACHE_CAPACITY);
    let mut exec = ExecRung::new(&ready.placed);
    // Forced hits (a cache that holds every class) and forced misses (a
    // cache of none): the two ways through `Session::query`.
    let all = reqs.classes.len() * ready.placed.len();
    let mut hit = SessionRung::new(&ready.placed, all.max(bed::CACHE_CAPACITY));
    let mut miss = SessionRung::new(&ready.placed, 0);
    let docs: Vec<_> = ready
        .placed
        .iter()
        .map(|p| p.store.get(&p.name).expect("document is served"))
        .collect();
    // Every class once, untimed, so each rung's caches are as full as they
    // get before it is measured (skipped where classes never repeat).
    let repeating = reqs.classes.len() <= 512;
    if repeating {
        let rungs: [Option<&mut dyn Rung>; 4] = [
            fanout.as_mut().map(|r| r as &mut dyn Rung),
            Some(&mut session),
            Some(&mut exec),
            Some(&mut hit),
        ];
        for rung in rungs.into_iter().flatten() {
            for (i, class) in reqs.classes.iter().enumerate() {
                let _ = rung.call(i, class);
            }
        }
    }
    // A hit is only a hit once the class has been through the cache.
    let mut cached = vec![repeating; reqs.classes.len()];
    let mut down = Down::default();
    let rungs = 5.0 + f64::from(fanout.is_some());
    let block = ((30e6 / entry_ns.max(1.0)) as usize).clamp(4, 1024);
    let start = Instant::now();
    let mut first = 0usize;
    while start.elapsed().as_secs_f64() < s * 0.1 * rungs {
        let positions = first..first + block;
        first += block;
        let class_at = |pos: usize| {
            let idx = reqs.sequence[pos % reqs.sequence.len()] as usize;
            (idx, &reqs.classes[idx])
        };
        // One block through one rung. `parents` gives the span each
        // request's span hangs under (`None`: the rung is not on the path
        // and records none); the spans recorded are returned the same way.
        let mut through = |rung: &mut dyn Rung,
                           out: &mut LoopOut,
                           parents: Option<&[u32]>,
                           mut cached: Option<&mut Vec<bool>>|
         -> Vec<u32> {
            let mut own = Vec::new();
            for pos in positions.clone() {
                let (class_idx, class) = class_at(pos);
                let t0 = Instant::now();
                let result = rung.call(class_idx, class);
                let t1 = Instant::now();
                let ns = ns_u32(t1 - t0);
                let keep = cached
                    .as_mut()
                    .is_none_or(|c| std::mem::replace(&mut c[class_idx], true));
                if keep {
                    let crit_ns = rung.critical_ns().unwrap_or(ns);
                    out.samples.push(Sample::untimed(class_idx, ns, crit_ns));
                }
                if let Err(why) = settle(class, result) {
                    out.fail(why);
                }
                if let Some(parents) = parents.filter(|_| (pos as u32) < SPAN_REQS_PER_RUNG) {
                    let parent = parents[pos - positions.start];
                    own.push(tracer.record(rung.name(), pos as u32, parent, t0, t1));
                }
            }
            own
        };
        let mut parents: Vec<u32> = positions
            .clone()
            .map(|pos| entry_spans.get(pos).copied().unwrap_or(NO_PARENT))
            .collect();
        if let Some(rung) = fanout.as_mut() {
            parents = through(rung, &mut down.fanout, Some(&parents), None);
        }
        // Where requests enter at `store.session` the entry replay already
        // recorded that rung's spans.
        let spans = w.is_corpus().then_some(&parents[..]);
        let own = through(&mut session, &mut down.session, spans, None);
        if w.is_corpus() {
            parents = own;
        }
        through(&mut exec, &mut down.exec, Some(&parents), None);
        through(&mut hit, &mut down.hit, None, Some(&mut cached));
        through(&mut miss, &mut down.miss, None, None);
        for pos in positions.clone() {
            let (class_idx, class) = class_at(pos);
            let parent = parents
                .get(pos - positions.start)
                .copied()
                .unwrap_or(NO_PARENT);
            front_end(
                class_idx,
                class,
                &docs,
                &mut down.front,
                (pos, parent),
                tracer,
            );
        }
    }
    let automaton_share = exec.automaton_runs as f64 / exec.runs.max(1) as f64;
    (down, automaton_share)
}

type Notes = Vec<(String, Json)>;

pub fn run(args: &Args, ready: &mut Ready) -> LadderOut {
    let s = args.seconds;
    let w = ready.workload;
    let weights = class_weights(&ready.reqs);
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let mut notes: Notes = Vec::new();
    let probe_n = if args.smoke { 100_000 } else { 1_000_000 };

    let serve = if w == Workload::CorpusServe {
        serve_side(ready, s, &weights, &mut tally, &mut notes)
    } else {
        ServeSide::default()
    };

    let entry = entry_rung(ready, s, &mut tracer);
    tally.add(&entry.untraced);
    tally.add(&entry.traced);
    let top_ns = weighted_ns(&entry.traced.samples, &weights, whole);
    let miss_ratio = 1.0 - entry.hit_ratio;
    let p50 = |out: &LoopOut| latency_us(&mut out.latencies(), 99.0).map_or(0.0, |l| l.p50);
    let trace_overhead_pct = (p50(&entry.traced) / p50(&entry.untraced) - 1.0) * 100.0;

    let (down, automaton_share) = lower_rungs(ready, s, top_ns, &entry.spans, &mut tracer);
    for out in [
        &down.fanout,
        &down.session,
        &down.exec,
        &down.hit,
        &down.miss,
    ] {
        tally.add(out);
    }
    let weigh = |out: &LoopOut, pick: fn(&Sample) -> u32| weighted_ns(&out.samples, &weights, pick);
    let (serve_ns, fanout_ns) = match w {
        Workload::CorpusServe => (top_ns, weigh(&down.fanout, whole)),
        Workload::CorpusChurn => (0.0, top_ns),
        _ => (0.0, 0.0),
    };
    let session_ns = weigh(&down.session, whole);
    let session_crit_ns = weigh(&down.session, critical);
    // Shares are taken of the entry rung — of its replay among the blocks
    // where there is one (`store.session`), so numerator and denominator
    // saw the same seconds of the machine.
    let entry_ns = if w.is_corpus() { top_ns } else { session_ns };
    let exec_ns = weigh(&down.exec, whole);
    let exec_crit_ns = weigh(&down.exec, critical);
    let hit_ns = weigh(&down.hit, whole);
    let miss_ns = weigh(&down.miss, whole);
    let parse_ns = weighted_ns(&down.front[0], &weights, whole);
    let compile_ns = weighted_ns(&down.front[1], &weights, whole);
    let plan_ns = weighted_ns(&down.front[2], &weights, whole);

    // Counts over a fixed replay: exact for a seed.
    let fixed = ready.reqs.sequence.len().min(2000);
    let mut counter = SessionRung::new(&ready.placed, bed::CACHE_CAPACITY);
    for &c in &ready.reqs.sequence[..fixed] {
        let _ = counter.call(c as usize, &ready.reqs.classes[c as usize]);
    }
    let counts: EvalStats = counter.stats;
    let replans = counter.replans;
    drop(counter);

    // Telemetry overhead and the micro-probes.
    let overheads = obs_overhead(ready, s * 0.1, hit_ns.max(exec_ns));
    let (oq1, oq3) = quartiles(&overheads);
    let mut rng = SplitMix64::fork(args.seed, "probes");
    let first = ready.placed[0]
        .store
        .get(&ready.placed[0].name)
        .expect("first document is served");
    let succinct = probes::succinct(first.document(), first.engine().index(), probe_n, &mut rng);
    let index = probes::index(first.engine().index(), probe_n, &mut rng);
    let wire = probes::wire(&ready.wire, probe_n / 10);
    let timer_ns = probes::timer_overhead_ns(probe_n);
    drop(first);
    // The owned load: what serving without mmap costs to open, and what
    // the index weighs on the heap (a mapped index owns no heap).
    let mut heap_bytes_per_node = 0.0;
    let path = ready.artifacts().swap_remove(0);
    let loads: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let (_, owned) = xwq_store::read_index_file(&path).expect("artifact loads");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            heap_bytes_per_node = owned.heap_bytes() as f64 / owned.len() as f64;
            ms
        })
        .collect();

    // The ladder's arithmetic.
    let front_ns = compile_ns + plan_ns; // compile includes the parse
    let fanout_self_ns = if w.is_corpus() {
        fanout_ns - session_crit_ns
    } else {
        0.0
    };
    let (serve_self_ns, wire_ns) = if w == Workload::CorpusServe {
        (
            serve_ns - fanout_ns,
            wire.http_parse_ns + wire.json_parse_ns,
        )
    } else {
        (0.0, 0.0)
    };
    let explained_ns = exec_crit_ns + miss_ratio * front_ns + wire_ns;
    // `+ 0.0`: no negative zero in the output.
    let share = |ns: f64| {
        if entry_ns > 0.0 {
            ns / entry_ns + 0.0
        } else {
            0.0
        }
    };
    let rounds = &ready.rounds;
    let round_med = |f: fn(&bed::Round) -> f64| med(rounds, f);
    let writes = &entry.writes;
    let (commit_ms, checkpoint_ms, wal_bytes) = if w == Workload::CorpusChurn {
        (
            med_or_zero(&writes.commit_ms),
            med_or_zero(&writes.checkpoint_ms),
            med_or_zero(&writes.wal_bytes),
        )
    } else {
        let commits: Vec<f64> = rounds.iter().flat_map(|r| r.commit_ms.clone()).collect();
        (
            med_or_zero(&commits),
            round_med(|r| r.checkpoint_ms),
            round_med(|r| r.wal_bytes_per_op),
        )
    };
    tally.attempted += writes.done + writes.failed;
    tally.failed += writes.failed;

    let trace_path = args
        .dir
        .join("out")
        .join(format!("trace-{}.json", w.name()));
    tracer
        .write(&trace_path, w.name())
        .expect("trace file is written");
    notes.push(("spans".to_string(), Json::Num(tracer.len() as f64)));
    notes.push((
        "visited_total".to_string(),
        Json::Num(counts.visited as f64),
    ));
    notes.push((
        "selected_total".to_string(),
        Json::Num(counts.selected as f64),
    ));
    notes.push(("counted_requests".to_string(), Json::Num(fixed as f64)));
    notes.push((
        "rungs_ns".to_string(),
        Json::Str(format!(
            "serve {serve_ns:.0} fanout {fanout_ns:.0} session {session_ns:.0} (critical {session_crit_ns:.0}) exec {exec_ns:.0} (critical {exec_crit_ns:.0}) hit {hit_ns:.0} miss {miss_ns:.0}"
        )),
    ));
    if let Some(e) = tally.first_error.clone() {
        notes.push(("first_error".to_string(), Json::Str(e)));
    }

    let per_req = |total: u64| total as f64 / fixed as f64;
    let memo_lookups = counts.memo_hits + counts.memo_misses;
    let mut metrics = vec![
        metric("succinct.rank1_ns", succinct.rank1_ns, "ns"),
        metric("succinct.select1_ns", succinct.select1_ns, "ns"),
        metric("succinct.find_close_ns", succinct.find_close_ns, "ns"),
        metric("succinct.enclose_ns", succinct.enclose_ns, "ns"),
        metric("index.label_list_ns", index.label_list_ns, "ns"),
        metric("index.jump_desc_ns", index.jump_desc_ns, "ns"),
        metric("index.label_ancestor_ns", index.label_ancestor_ns, "ns"),
        metric("index.build_ms", round_med(|r| r.build) * 1e3, "ms"),
        metric("index.heap_bytes_per_node", heap_bytes_per_node, "bytes"),
        metric(
            "xmltree.parse_mb_s",
            ready.xml_bytes() as f64 / 1e6 / round_med(|r| r.parse),
            "MB/s",
        ),
        metric("xpath.parse_ns", parse_ns, "ns"),
        metric("core.compile_ns", compile_ns, "ns"),
        metric("core.plan_ns", plan_ns, "ns"),
        metric("core.exec_ns", exec_ns, "ns"),
        metric("core.visited_per_req", per_req(counts.visited), "count"),
        metric("core.jumps_per_req", per_req(counts.jumps), "count"),
        metric(
            "core.visited_per_selected",
            counts.visited as f64 / counts.selected.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.memo_hit_ratio",
            counts.memo_hits as f64 / memo_lookups.max(1) as f64,
            "ratio",
        ),
        metric("core.automaton_share", automaton_share, "ratio"),
        metric("core.replans", replans as f64, "count"),
        metric("store.session_hit_self_ns", hit_ns - exec_ns, "ns"),
        metric(
            "store.session_miss_self_ns",
            miss_ns - front_ns - exec_ns,
            "ns",
        ),
        metric("store.cache_hit_ratio", entry.hit_ratio, "ratio"),
        metric("store.cache_evictions", entry.evictions as f64, "count"),
        metric("store.open_mmap_ms", round_med(|r| r.open) * 1e3, "ms"),
        metric("store.load_owned_ms", median(&loads), "ms"),
        metric(
            "store.xwqi_bytes_per_node",
            ready.index_bytes as f64 / ready.nodes() as f64,
            "bytes",
        ),
        metric("store.plans_installed", ready.plans_installed, "count"),
        metric("shard.fanout_self_us", fanout_self_ns / 1e3, "us"),
        metric(
            "shard.admission_waited",
            entry.admission_waited as f64,
            "count",
        ),
        metric(
            "shard.admission_rejected",
            entry.admission_rejected as f64,
            "count",
        ),
        metric("shard.replace_commit_ms", commit_ms, "ms"),
        metric("shard.checkpoint_ms", checkpoint_ms, "ms"),
        metric("shard.wal_bytes_per_op", wal_bytes, "bytes"),
        metric("shard.writes_done", writes.done as f64, "count"),
        metric("shard.reads_retried", entry.reads_retried as f64, "count"),
        metric("serve.http_parse_ns", wire.http_parse_ns, "ns"),
        metric("serve.json_parse_ns", wire.json_parse_ns, "ns"),
        metric("serve.self_us", serve_self_ns / 1e3, "us"),
        metric(
            "serve.resp_bytes_per_req",
            serve.resp_bytes_per_req,
            "bytes",
        ),
    ];
    for (i, (p50, tail)) in serve.rates.iter().enumerate() {
        metrics.push(metric(format!("serve.lat_p50_us.r{}", i + 1), *p50, "us"));
        metrics.push(metric(format!("serve.lat_p99_us.r{}", i + 1), *tail, "us"));
    }
    metrics.extend([
        metric("serve.rate_ok_rps", serve.rate_ok_rps, "1/s"),
        metric("serve.gen_late_share", serve.gen_late_share, "ratio"),
        metric("serve.status_503", serve.status_503 as f64, "count"),
        metric(
            "serve.stream_roundtrip_us",
            med_or_zero(&serve.stream_us),
            "us",
        ),
        metric(
            "serve.large_roundtrip_us",
            med_or_zero(&serve.large_us),
            "us",
        ),
        metric("obs.overhead_pct", median(&overheads), "%"),
        metric("obs.overhead_iqr_pct", oq3 - oq1, "%"),
        metric("ladder.top_rung_us", top_ns / 1e3, "us"),
        metric("ladder.exec_share", share(exec_crit_ns), "ratio"),
        // What a miss costs beyond running the query: parse, compile,
        // plan, and the session's cold set-up and cache turnover.
        metric(
            "ladder.front_end_share",
            share(miss_ratio * (session_ns - exec_ns)),
            "ratio",
        ),
        metric(
            "ladder.serve_shard_share",
            share(serve_self_ns + fanout_self_ns),
            "ratio",
        ),
        metric(
            "ladder.unexplained_share",
            1.0 - share(explained_ns),
            "ratio",
        ),
        metric("trace.overhead_pct", trace_overhead_pct, "%"),
        metric("timer.overhead_ns", timer_ns, "ns"),
        metric("bench.prep_s", ready.prep_s, "s"),
        metric(
            "bench.failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        metric(
            "bench.write_failed_share",
            (writes.failed + writes.late) as f64 / writes.scheduled.max(1) as f64,
            "ratio",
        ),
    ]);
    LadderOut {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
