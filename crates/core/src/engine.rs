//! The public engine API.

use crate::bytecode::{compile_plan, ProgKind, Program};
use crate::compile::{compile_path_indexed, CompileError};
use crate::eval::{EvalMemo, EvalScratch, EvalStats, Evaluator};
use crate::plan::Plan;
use crate::planner::Feedback;
use crate::{planner, vm, Asta};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xwq_index::{Document, NodeId, TopologyKind, TreeIndex};
use xwq_obs::TraceNode;
use xwq_xpath::{parse_xpath, rewrite_forward, Path, XPathError};

/// Evaluation strategies (the series of Fig. 4, plus hybrid, plus the
/// cost-based planner).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Algorithm 4.1 verbatim ("Naive Eval.").
    Naive,
    /// Naive plus empty-state-set subtree pruning (Fig. 3 line (3)).
    Pruning,
    /// Relevant-node jumping, no memoization ("Jumping Eval.").
    Jumping,
    /// Memoization, no jumping ("Memo. Eval.").
    Memoized,
    /// Jumping + memoization + information propagation ("Opt. Eval.").
    Optimized,
    /// Start-anywhere evaluation (§4.4); falls back to [`Self::Optimized`]
    /// for query shapes it does not cover.
    Hybrid,
    /// Cost-based planning: per query, the planner composes the spine
    /// pipeline (LabelJump / UpwardMatch / PredicateProbe / SpineDescend /
    /// Intersect) or a full automaton run from the index's label
    /// statistics (see [`crate::planner`]). The chosen plan's compiled
    /// program is cached on the [`CompiledQuery`].
    Auto,
}

impl Default for Strategy {
    /// [`Strategy::Auto`] — let the planner choose per query.
    fn default() -> Self {
        Strategy::Auto
    }
}

impl Strategy {
    /// All strategies, in Fig. 4 order (then hybrid, then auto).
    pub const ALL: [Strategy; 7] = [
        Strategy::Naive,
        Strategy::Pruning,
        Strategy::Jumping,
        Strategy::Memoized,
        Strategy::Optimized,
        Strategy::Hybrid,
        Strategy::Auto,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "Naive Eval.",
            Strategy::Pruning => "Pruning Eval.",
            Strategy::Jumping => "Jumping Eval.",
            Strategy::Memoized => "Memo. Eval.",
            Strategy::Optimized => "Opt. Eval.",
            Strategy::Hybrid => "Hybrid Eval.",
            Strategy::Auto => "Auto (planned) Eval.",
        }
    }

    /// The short CLI token for this strategy (the inverse of
    /// [`Strategy::from_str`]).
    pub fn token(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::Pruning => "pruning",
            Strategy::Jumping => "jumping",
            Strategy::Memoized => "memo",
            Strategy::Optimized => "opt",
            Strategy::Hybrid => "hybrid",
            Strategy::Auto => "auto",
        }
    }

    /// Dense index (for per-strategy caches).
    fn idx(self) -> usize {
        match self {
            Strategy::Naive => 0,
            Strategy::Pruning => 1,
            Strategy::Jumping => 2,
            Strategy::Memoized => 3,
            Strategy::Optimized => 4,
            Strategy::Hybrid => 5,
            Strategy::Auto => 6,
        }
    }
}

/// Error for an unrecognized strategy name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseStrategyError(String);

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown strategy {:?} (expected naive|pruning|jumping|memo|opt|hybrid|auto)",
            self.0
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses the CLI strategy tokens, case-insensitively; `memoized` and
    /// `optimized` are accepted as aliases of their short forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(Strategy::Naive),
            "pruning" => Ok(Strategy::Pruning),
            "jumping" => Ok(Strategy::Jumping),
            "memo" | "memoized" => Ok(Strategy::Memoized),
            "opt" | "optimized" => Ok(Strategy::Optimized),
            "hybrid" => Ok(Strategy::Hybrid),
            "auto" => Ok(Strategy::Auto),
            _ => Err(ParseStrategyError(s.to_string())),
        }
    }
}

/// Anything that can go wrong between a query string and an automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Syntax error.
    Parse(XPathError),
    /// The query parsed but lies outside the compilable fragment.
    Compile(CompileError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A parsed and compiled query, reusable across runs. Besides the parsed
/// path and the automaton it carries two caches keyed by the document it
/// was compiled against: the per-strategy compiled programs, and a pool
/// of [`EvalMemo`] tables reused across automaton runs (both tagged with
/// [`TreeIndex::identity`], so running the query against a different
/// document of the same alphabet silently skips the caches instead of
/// serving wrong answers).
#[derive(Debug)]
pub struct CompiledQuery {
    /// The parsed path.
    pub path: Path,
    /// The ASTA compiled against the engine's alphabet.
    pub asta: Asta,
    cache: QueryCache,
}

impl Clone for CompiledQuery {
    /// Clones the query itself; the program/memo caches start empty (they
    /// refill on first run).
    fn clone(&self) -> Self {
        Self {
            path: self.path.clone(),
            asta: self.asta.clone(),
            cache: QueryCache::default(),
        }
    }
}

impl CompiledQuery {
    /// Wraps a compiled automaton (used by [`Engine::compile`]).
    pub(crate) fn new(path: Path, asta: Asta) -> Self {
        Self {
            path,
            asta,
            cache: QueryCache::default(),
        }
    }
}

/// At most this many [`EvalMemo`]s are pooled per compiled query — enough
/// for a couple of threads running the same query concurrently without
/// letting a wide pool hold document-sized tables forever. Kept small
/// deliberately: a serving layer caching many compiled queries holds up
/// to `cache entries × this × O(visited document)` of memo state, so the
/// cap — not the cache — bounds the per-query memory amplification
/// (threads beyond it simply build and drop a fresh memo).
const MEMO_POOL_CAP: usize = 2;

/// A compiled-program slot, tagged with the owning document's identity.
type ProgSlot = Mutex<Option<(u64, Arc<ProgramCell>)>>;

/// The per-`(document, query)` caches living inside a [`CompiledQuery`].
#[derive(Debug, Default)]
struct QueryCache {
    /// One compiled-program slot per strategy, tagged with the document
    /// identity. A `Mutex`, not a `OnceLock`: the slot is *replaced* when
    /// feedback triggers a re-plan or a warm `.xwqp` program is installed.
    progs: [ProgSlot; 7],
    /// Pooled automaton memo tables, tagged with the document identity.
    pool: Mutex<Vec<(u64, EvalMemo)>>,
}

/// A cached compiled program plus its execution feedback: cumulative
/// actual visits and run count, compared against the program's estimate to
/// decide whether the planner should take another look (see
/// [`DEFAULT_REPLAN_FACTOR`]).
#[derive(Debug)]
pub struct ProgramCell {
    /// The compiled, validated program.
    pub program: Program,
    actual_visits: AtomicU64,
    runs: AtomicU64,
    replan_attempted: AtomicBool,
}

impl ProgramCell {
    fn new(program: Program) -> Self {
        Self {
            program,
            actual_visits: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            replan_attempted: AtomicBool::new(false),
        }
    }

    /// How many times this program has executed.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Cumulative visits observed across every run; with [`Self::runs`]
    /// this is the execution history a `.xwqp` sidecar persists.
    pub fn total_visits(&self) -> u64 {
        self.actual_visits.load(Ordering::Relaxed)
    }
}

/// Plan-provenance counters for one [`Engine`] (how programs came to be:
/// planned cold, installed warm from a `.xwqp` sidecar, or re-planned
/// after visit-estimate feedback).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Programs derived by running the planner in this process.
    pub planned: u64,
    /// Programs installed from a persisted sidecar, skipping the planner.
    pub installed: u64,
    /// Programs replaced after actual-vs-estimated visit feedback.
    pub replans: u64,
}

impl QueryCache {
    fn take_memo(&self, identity: u64, asta: &Asta) -> EvalMemo {
        let mut pool = self.pool.lock().expect("memo pool poisoned");
        if let Some(i) = pool.iter().position(|(tag, _)| *tag == identity) {
            return pool.swap_remove(i).1;
        }
        drop(pool);
        EvalMemo::new(asta)
    }

    fn put_memo(&self, identity: u64, memo: EvalMemo) {
        let mut pool = self.pool.lock().expect("memo pool poisoned");
        if pool.len() >= MEMO_POOL_CAP {
            // Prefer evicting a memo for some *other* document, so a
            // query served against several documents in turn keeps warm
            // tables for the current one instead of pinning dead ones.
            match pool.iter().position(|(tag, _)| *tag != identity) {
                Some(i) => {
                    pool.swap_remove(i);
                }
                None => return, // full of same-document memos: drop this one
            }
        }
        pool.push((identity, memo));
    }
}

/// The outcome of one evaluation.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Selected nodes, document order, duplicate-free.
    pub nodes: Vec<NodeId>,
    /// Traversal statistics.
    pub stats: EvalStats,
    /// True if [`Strategy::Hybrid`] was requested but the query shape made
    /// the engine fall back to the optimized automaton run.
    pub hybrid_fallback: bool,
    /// Nanoseconds spent in the VM dispatch loop (0 for automaton and
    /// empty programs).
    pub vm_dispatch_ns: u64,
    /// True if this run's visit feedback just triggered a re-plan (the
    /// *next* run uses the replacement program).
    pub replanned: bool,
}

/// The re-plan trigger: an `Auto` program is re-planned when its observed
/// visits exceed its estimate by more than this factor.
pub const DEFAULT_REPLAN_FACTOR: f64 = 4.0;

/// Programs observing fewer visits than this never trigger a re-plan —
/// on tiny inputs the constant terms dominate and ratios are noise.
const REPLAN_MIN_VISITS: f64 = 16.0;

/// The XPath engine over one indexed document.
pub struct Engine {
    ix: TreeIndex,
    planned: AtomicU64,
    installed: AtomicU64,
    replans: AtomicU64,
}

impl Engine {
    fn with_index(ix: TreeIndex) -> Self {
        Self {
            ix,
            planned: AtomicU64::new(0),
            installed: AtomicU64::new(0),
            replans: AtomicU64::new(0),
        }
    }

    /// Indexes `doc` with the default (array) topology.
    pub fn build(doc: &Document) -> Self {
        Self::with_index(TreeIndex::build(doc))
    }

    /// Indexes `doc` with an explicit topology backend.
    pub fn build_with(doc: &Document, kind: TopologyKind) -> Self {
        Self::with_index(TreeIndex::build_with(doc, kind))
    }

    /// Wraps an existing index.
    pub fn from_index(ix: TreeIndex) -> Self {
        Self::with_index(ix)
    }

    /// The underlying index.
    pub fn index(&self) -> &TreeIndex {
        &self.ix
    }

    /// Plan-provenance counters: how many programs this engine planned
    /// cold, installed warm, and re-planned on feedback.
    pub fn plan_counters(&self) -> PlanCounters {
        PlanCounters {
            planned: self.planned.load(Ordering::Relaxed),
            installed: self.installed.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
        }
    }

    /// Parses and compiles a query against this document's alphabet.
    ///
    /// Backward axes (`parent::`, `ancestor::`, `..`) are rewritten into
    /// the forward fragment first (see [`rewrite_forward`]); queries whose
    /// backward steps cannot be rewritten are rejected.
    pub fn compile(&self, query: &str) -> Result<CompiledQuery, QueryError> {
        let parsed = parse_xpath(query).map_err(QueryError::Parse)?;
        let path =
            rewrite_forward(&parsed).ok_or(QueryError::Compile(CompileError::BackwardAxis))?;
        let asta = compile_path_indexed(&path, &self.ix).map_err(QueryError::Compile)?;
        Ok(CompiledQuery::new(path, asta))
    }

    /// The physical plan `strategy` chooses for `q` on this document,
    /// planned afresh on every call (cold, without execution feedback).
    /// The five automaton strategies and `hybrid` are fixed templates;
    /// [`Strategy::Auto`] is the cost-based choice.
    pub fn plan(&self, q: &CompiledQuery, strategy: Strategy) -> Plan {
        planner::plan_strategy(strategy, &q.path, &self.ix)
    }

    /// The compiled bytecode program `strategy` uses for `q` on this
    /// document, cached on the compiled query (planning and lowering on
    /// first use). This is what [`Self::run`] executes.
    pub fn program(&self, q: &CompiledQuery, strategy: Strategy) -> Arc<ProgramCell> {
        let identity = self.ix.identity();
        let slot = &q.cache.progs[strategy.idx()];
        {
            let guard = slot.lock().expect("program slot poisoned");
            if let Some((tag, cell)) = guard.as_ref() {
                if *tag == identity {
                    return Arc::clone(cell);
                }
                // Compiled against one document, run against another:
                // compile fresh without caching (the slot stays owned by
                // the first).
                drop(guard);
                let plan = planner::plan_strategy(strategy, &q.path, &self.ix);
                self.planned.fetch_add(1, Ordering::Relaxed);
                return Arc::new(ProgramCell::new(compile_plan(&plan)));
            }
        }
        // Plan and lower outside the lock.
        let plan = planner::plan_strategy(strategy, &q.path, &self.ix);
        let cell = Arc::new(ProgramCell::new(compile_plan(&plan)));
        self.planned.fetch_add(1, Ordering::Relaxed);
        let mut guard = slot.lock().expect("program slot poisoned");
        match guard.as_ref() {
            Some((tag, existing)) if *tag == identity => Arc::clone(existing),
            _ => {
                *guard = Some((identity, Arc::clone(&cell)));
                cell
            }
        }
    }

    /// The cached program for `(q, strategy)` on this document, if one
    /// exists — without planning.
    pub fn cached_program(
        &self,
        q: &CompiledQuery,
        strategy: Strategy,
    ) -> Option<Arc<ProgramCell>> {
        let identity = self.ix.identity();
        let guard = q.cache.progs[strategy.idx()]
            .lock()
            .expect("program slot poisoned");
        guard
            .as_ref()
            .filter(|(tag, _)| *tag == identity)
            .map(|(_, cell)| Arc::clone(cell))
    }

    /// Installs a deserialized program (e.g. from a `.xwqp` sidecar) as
    /// the cached program for `(q, strategy)`, skipping the planner.
    /// Returns `false` — leaving the cache untouched — if the program does
    /// not validate against this index or a program is already cached; a
    /// rejected install silently falls back to cold planning on first run.
    pub fn install_program(&self, q: &CompiledQuery, strategy: Strategy, program: Program) -> bool {
        self.install_program_with_history(q, strategy, program, 0, 0)
    }

    /// [`Self::install_program`] carrying the program's recorded execution
    /// history (cumulative `runs` / `total_visits` observed before it was
    /// persisted). The history seeds the installed cell's feedback
    /// counters, and for [`Strategy::Auto`] it is consulted *at install
    /// time*: if the persisted mean observed visits already exceeds the
    /// program's estimate by more than the re-plan factor, the engine
    /// re-plans immediately with that feedback and installs the corrected
    /// program instead — a restarted server re-plans from observed visits
    /// rather than re-learning them from cold estimates.
    pub fn install_program_with_history(
        &self,
        q: &CompiledQuery,
        strategy: Strategy,
        program: Program,
        runs: u64,
        total_visits: u64,
    ) -> bool {
        if program.validate(&self.ix).is_err() {
            return false;
        }
        // Decide on a history-driven correction *outside* the slot lock
        // (planning can be slow). The persisted history describes the
        // persisted program, so a corrected replacement starts with fresh
        // counters and never re-plans itself — the same settling rule as
        // live feedback (`maybe_replan`).
        let mut cell = ProgramCell::new(program);
        cell.actual_visits = AtomicU64::new(total_visits);
        cell.runs = AtomicU64::new(runs);
        let mut replanned = false;
        if strategy == Strategy::Auto && runs > 0 {
            let avg = total_visits as f64 / runs as f64;
            let factor = avg / cell.program.est.visits.max(1.0);
            if avg >= REPLAN_MIN_VISITS && factor > DEFAULT_REPLAN_FACTOR {
                let prev_pivot = match &cell.program.kind {
                    ProgKind::Spine(sp) => Some(sp.pivot as usize),
                    _ => None,
                };
                let plan =
                    planner::plan_auto(&q.path, &self.ix, Some(Feedback { prev_pivot, factor }));
                cell = ProgramCell::new(compile_plan(&plan));
                cell.replan_attempted.store(true, Ordering::Relaxed);
                replanned = true;
            }
        }
        let identity = self.ix.identity();
        let mut guard = q.cache.progs[strategy.idx()]
            .lock()
            .expect("program slot poisoned");
        if guard.as_ref().is_some_and(|(tag, _)| *tag == identity) {
            return false;
        }
        *guard = Some((identity, Arc::new(cell)));
        self.installed.fetch_add(1, Ordering::Relaxed);
        if replanned {
            self.replans.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Evaluates a compiled query under a strategy: the cached bytecode
    /// program runs in the register VM or, for automaton programs, the
    /// automaton evaluator.
    pub fn run(&self, q: &CompiledQuery, strategy: Strategy) -> QueryOutput {
        self.run_with_scratch(q, strategy, &mut EvalScratch::new())
    }

    /// Evaluates a compiled query, reusing allocations from `scratch`.
    /// A thread serving many queries over the same (or similar) documents
    /// keeps one scratch and avoids re-allocating the document-sized
    /// visited set per query.
    ///
    /// This is the default execution path: the cached bytecode program
    /// runs in the register VM, actual-vs-estimated visits are recorded,
    /// and (for [`Strategy::Auto`]) a large enough miss re-plans the query
    /// for subsequent runs.
    pub fn run_with_scratch(
        &self,
        q: &CompiledQuery,
        strategy: Strategy,
        scratch: &mut EvalScratch,
    ) -> QueryOutput {
        self.run_program_traced(q, strategy, scratch, None)
    }

    /// Evaluates a compiled query and records a per-operator span tree:
    /// one child span per program op (the same names `explain` prints),
    /// each carrying estimated-vs-actual counters and wall-clock
    /// nanoseconds.
    ///
    /// The trace's *text rendering without timings* is deterministic for a
    /// warm run — see [`TraceNode::render_text`].
    pub fn run_traced(
        &self,
        q: &CompiledQuery,
        strategy: Strategy,
        scratch: &mut EvalScratch,
    ) -> (QueryOutput, TraceNode) {
        let mut root = TraceNode::new("Query", format!("strategy={}", strategy.token()));
        let start = Instant::now();
        let (out, est) = self.run_program_inner(q, strategy, scratch, Some(&mut root));
        root.ns = start.elapsed().as_nanos() as u64;
        root.attr("est_cost", format!("{:.0}", est.0));
        root.attr("est_visits", format!("{:.0}", est.1));
        root.attr("visited", out.stats.visited);
        root.attr("jumps", out.stats.jumps);
        root.attr("memo_hits", out.stats.memo_hits);
        root.attr("memo_misses", out.stats.memo_misses);
        root.attr("selected", out.stats.selected);
        (out, root)
    }

    fn run_program_traced(
        &self,
        q: &CompiledQuery,
        strategy: Strategy,
        scratch: &mut EvalScratch,
        trace: Option<&mut TraceNode>,
    ) -> QueryOutput {
        self.run_program_inner(q, strategy, scratch, trace).0
    }

    /// The program execution path. Also returns the program's
    /// `(est_cost, est_visits)` so tracing can annotate the root span.
    fn run_program_inner(
        &self,
        q: &CompiledQuery,
        strategy: Strategy,
        scratch: &mut EvalScratch,
        mut trace: Option<&mut TraceNode>,
    ) -> (QueryOutput, (f64, f64)) {
        let cell = self.program(q, strategy);
        let est = (cell.program.est.cost, cell.program.est.visits);
        let mut out = match &cell.program.kind {
            ProgKind::Empty => {
                if let Some(t) = trace.as_deref_mut() {
                    t.child(TraceNode::new(
                        "Empty",
                        "a queried label does not occur in this document",
                    ));
                }
                QueryOutput {
                    nodes: Vec::new(),
                    stats: EvalStats::default(),
                    hybrid_fallback: false,
                    vm_dispatch_ns: 0,
                    replanned: false,
                }
            }
            ProgKind::Automaton(opts) => {
                let stats_out =
                    self.run_automaton(q, *opts, cell.program.est.visits, scratch, trace);
                QueryOutput {
                    hybrid_fallback: strategy == Strategy::Hybrid,
                    ..stats_out
                }
            }
            ProgKind::Spine(sp) => {
                let run = vm::run_program_traced(sp, &self.ix, scratch, trace);
                QueryOutput {
                    nodes: run.nodes,
                    stats: run.stats,
                    hybrid_fallback: false,
                    vm_dispatch_ns: run.dispatch_ns,
                    replanned: false,
                }
            }
        };
        if !matches!(cell.program.kind, ProgKind::Empty) {
            cell.actual_visits
                .fetch_add(out.stats.visited, Ordering::Relaxed);
            cell.runs.fetch_add(1, Ordering::Relaxed);
            if strategy == Strategy::Auto {
                out.replanned = self.maybe_replan(q, &cell, &out);
            }
        }
        (out, est)
    }

    /// Re-plans an `Auto` program whose observed visits exceeded its
    /// estimate by more than [`DEFAULT_REPLAN_FACTOR`]. At most one re-plan
    /// per cached program (the replacement never re-plans itself), so a
    /// query settles after a single correction instead of oscillating.
    fn maybe_replan(&self, q: &CompiledQuery, cell: &Arc<ProgramCell>, out: &QueryOutput) -> bool {
        let actual = out.stats.visited as f64;
        if actual < REPLAN_MIN_VISITS {
            return false;
        }
        let factor = actual / cell.program.est.visits.max(1.0);
        if factor <= DEFAULT_REPLAN_FACTOR {
            return false;
        }
        if cell.replan_attempted.swap(true, Ordering::Relaxed) {
            return false;
        }
        let prev_pivot = match &cell.program.kind {
            ProgKind::Spine(sp) => Some(sp.pivot as usize),
            _ => None,
        };
        let plan = planner::plan_auto(&q.path, &self.ix, Some(Feedback { prev_pivot, factor }));
        let replacement = ProgramCell::new(compile_plan(&plan));
        replacement.replan_attempted.store(true, Ordering::Relaxed);
        let identity = self.ix.identity();
        let mut guard = q.cache.progs[Strategy::Auto.idx()]
            .lock()
            .expect("program slot poisoned");
        match guard.as_ref() {
            // Only swap the slot we actually ran from (a concurrent
            // install/re-plan wins, and foreign-document cells stay put).
            Some((tag, current)) if *tag == identity && Arc::ptr_eq(current, cell) => {
                *guard = Some((identity, Arc::new(replacement)));
                self.replans.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// One automaton run with the pooled memo tables.
    fn run_automaton(
        &self,
        q: &CompiledQuery,
        opts: crate::eval::EvalOptions,
        est_visits: f64,
        scratch: &mut EvalScratch,
        trace: Option<&mut TraceNode>,
    ) -> QueryOutput {
        let start = Instant::now();
        let identity = self.ix.identity();
        let memo = q.cache.take_memo(identity, &q.asta);
        let mut ev = Evaluator::with_memo(&q.asta, &self.ix, opts, memo);
        let nodes = ev.run_with_scratch(scratch);
        let stats = ev.stats;
        q.cache.put_memo(identity, ev.into_memo());
        if let Some(t) = trace {
            let node = t.child(TraceNode::new(
                "AutomatonRun",
                format!(
                    "pruning={} jumping={} memo={} info_prop={}",
                    opts.pruning, opts.jumping, opts.memo, opts.info_prop
                ),
            ));
            node.ns = start.elapsed().as_nanos() as u64;
            node.attr("est_visits", format!("{est_visits:.0}"));
            node.attr("visited", stats.visited);
            node.attr("jumps", stats.jumps);
        }
        QueryOutput {
            nodes,
            stats,
            hybrid_fallback: false,
            vm_dispatch_ns: 0,
            replanned: false,
        }
    }

    /// One-shot convenience: compile and run with the default strategy.
    pub fn query(&self, query: &str) -> Result<Vec<NodeId>, QueryError> {
        let q = self.compile(query)?;
        Ok(self.run(&q, Strategy::default()).nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_xml::parse;

    #[test]
    fn end_to_end_query() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        let e = Engine::build(&doc);
        assert_eq!(e.query("//b[c]").unwrap(), vec![1]);
        assert_eq!(e.query("//b").unwrap(), vec![1, 3]);
        assert_eq!(e.query("/a/b/c").unwrap(), vec![2]);
    }

    #[test]
    fn all_strategies_agree_end_to_end() {
        let doc = parse("<a><b><c/><b><c/></b></b><d><b/></d></a>").unwrap();
        let e = Engine::build(&doc);
        let q = e.compile("//b[c]").unwrap();
        let expected = e.run(&q, Strategy::Naive).nodes;
        for s in Strategy::ALL {
            assert_eq!(e.run(&q, s).nodes, expected, "{}", s.name());
        }
    }

    #[test]
    fn hybrid_runs_without_fallback_on_spine_queries() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        let e = Engine::build(&doc);
        let q = e.compile("//a//b[c]").unwrap();
        let out = e.run(&q, Strategy::Hybrid);
        assert!(!out.hybrid_fallback);
        assert_eq!(out.nodes, vec![1]);
    }

    #[test]
    fn hybrid_falls_back_on_star() {
        let doc = parse("<a><b/></a>").unwrap();
        let e = Engine::build(&doc);
        let q = e.compile("//*").unwrap();
        let out = e.run(&q, Strategy::Hybrid);
        assert!(out.hybrid_fallback);
        assert_eq!(out.nodes, vec![0, 1]);
    }

    #[test]
    fn parse_and_compile_errors_surface() {
        let doc = parse("<a/>").unwrap();
        let e = Engine::build(&doc);
        assert!(matches!(e.compile("//["), Err(QueryError::Parse(_))));
        assert!(matches!(
            e.compile("//a[ /b ]"),
            Err(QueryError::Compile(_))
        ));
    }

    #[test]
    fn traced_run_agrees_and_renders_deterministically() {
        let doc = parse("<a><b><c/><b><c/></b></b><d><b/></d></a>").unwrap();
        let e = Engine::build(&doc);
        let mut scratch = EvalScratch::new();
        for strategy in [Strategy::Auto, Strategy::Optimized, Strategy::Hybrid] {
            let q = e.compile("//b[c]").unwrap();
            let untraced = e.run(&q, strategy);
            let (out, trace) = e.run_traced(&q, strategy, &mut scratch);
            assert_eq!(out.nodes, untraced.nodes, "{}", strategy.name());
            assert!(trace.span_count() >= 2, "{}", strategy.name());
            // Warm runs must render byte-identically (without timings).
            let (_, t2) = e.run_traced(&q, strategy, &mut scratch);
            let (_, t3) = e.run_traced(&q, strategy, &mut scratch);
            assert_eq!(t2.render_text(false), t3.render_text(false));
            assert!(t2
                .render_text(false)
                .starts_with(&format!("Query strategy={}", strategy.token())));
            assert!(!t2.render_text(false).contains("ns="));
        }
    }

    #[test]
    fn attribute_queries() {
        let doc = parse(r#"<a><b id="1"/><b/></a>"#).unwrap();
        let e = Engine::build(&doc);
        assert_eq!(e.query("//b[@id]").unwrap(), vec![1]);
        assert_eq!(e.query("//b/@id").unwrap(), vec![2]);
    }

    #[test]
    fn text_queries() {
        let doc = parse("<a><b>hello</b><b/></a>").unwrap();
        let e = Engine::build(&doc);
        assert_eq!(e.query("//b[text()]").unwrap(), vec![1]);
        assert_eq!(e.query("//b/text()").unwrap(), vec![2]);
    }
}
