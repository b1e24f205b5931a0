//! The cost-based query planner.
//!
//! [`plan_auto`] lowers a compiled query to the cheapest [`Plan`] it can
//! prove equivalent: it normalizes the main path into the spine fragment
//! (child / descendant / attribute axes), then costs every possible
//! LabelJump pivot against a full automaton run using the index's label
//! statistics ([`xwq_index::IndexStats`]: list lengths, depth histograms,
//! fanouts). [`plan_strategy`] lowers the six legacy [`Strategy`] variants
//! to fixed templates over the same IR — the five automaton strategies
//! keep their exact [`EvalOptions`], and `hybrid` keeps its historical
//! rarest-label pivot rule.
//!
//! The cost model is deliberately small and documented: unit 1.0 is one
//! spine node visit; an automaton visit is weighted [`AUTOMATON_VISIT`]×
//! and an automaton run pays [`AUTOMATON_SETUP`] once. The estimates do
//! not need to be exact; they need to rank pivots sensibly and to keep the
//! automaton in play for shapes traversal handles badly.

use crate::engine::Strategy;
use crate::eval::EvalOptions;
use crate::plan::{
    CostEstimate, Descend, Plan, PlanKind, PredPlan, Probe, ProbeStep, SpinePlan, SpineStep,
    SpineTest,
};
use xwq_index::{IndexStats, TreeIndex};
use xwq_xml::LabelKind;
use xwq_xpath::{Axis, NodeTest, Path, Pred};

/// Cost weight of one automaton node visit relative to one spine visit.
pub const AUTOMATON_VISIT: f64 = 8.0;

/// Fixed overhead charged to an automaton run (setup of the tda tables).
pub const AUTOMATON_SETUP: f64 = 32.0;

/// Observed-visits feedback from a previous execution of the same query,
/// used to re-plan when the estimate was off: the previously chosen
/// alternative's estimate is scaled by the observed factor before
/// re-ranking, which can genuinely flip the spine/automaton (or pivot)
/// choice instead of re-deriving the identical plan.
#[derive(Clone, Copy, Debug)]
pub struct Feedback {
    /// The pivot step of the previously chosen spine plan, or `None` if
    /// the automaton was chosen.
    pub prev_pivot: Option<usize>,
    /// `observed visits / estimated visits` of the previous run (> 1 when
    /// the plan under-estimated).
    pub factor: f64,
}

/// Cost of one label-list binary search.
fn probe_cost(list_len: usize) -> f64 {
    ((list_len + 2) as f64).log2()
}

/// Lowers `strategy` over `path` to a plan. The automaton strategies are
/// fixed templates; `Hybrid` is the spine template with the legacy pivot
/// rule; `Auto` is the cost-based choice.
pub fn plan_strategy(strategy: Strategy, path: &Path, ix: &TreeIndex) -> Plan {
    let sigma = ix.alphabet().len();
    match strategy {
        Strategy::Naive => automaton(EvalOptions::naive(), ix, "strategy template: naive"),
        Strategy::Pruning => automaton(EvalOptions::pruning(), ix, "strategy template: pruning"),
        Strategy::Jumping => automaton(
            EvalOptions::jumping(sigma),
            ix,
            "strategy template: jumping",
        ),
        Strategy::Memoized => automaton(EvalOptions::memoized(), ix, "strategy template: memo"),
        Strategy::Optimized => {
            automaton(EvalOptions::optimized(sigma), ix, "strategy template: opt")
        }
        Strategy::Hybrid => plan_hybrid(path, ix),
        Strategy::Auto => plan_auto(path, ix, None),
    }
}

fn automaton(opts: EvalOptions, ix: &TreeIndex, reason: &str) -> Plan {
    Plan {
        est: CostEstimate {
            cost: ix.len() as f64 * AUTOMATON_VISIT,
            visits: ix.len() as f64,
        },
        kind: PlanKind::Automaton(opts),
        reason: reason.to_string(),
    }
}

/// The legacy hybrid template: spine pipeline pivoting on the globally
/// rarest named spine label (§4.4), falling back to the optimized
/// automaton when the shape is outside the spine fragment.
pub fn plan_hybrid(path: &Path, ix: &TreeIndex) -> Plan {
    let stats = ix.stats();
    match normalize(path, ix) {
        Normalized::Empty => empty_plan("a spine label does not occur in the document"),
        Normalized::Outside(why) => Plan {
            reason: format!("outside the spine fragment ({why}); optimized automaton"),
            ..automaton(EvalOptions::optimized(ix.alphabet().len()), ix, "")
        },
        Normalized::Spine(steps) => {
            let pivot = (0..steps.len())
                .filter(|&i| matches!(steps[i].test, SpineTest::Label(_)))
                .min_by_key(|&i| match steps[i].test {
                    SpineTest::Label(l) => ix.label_count(l),
                    _ => usize::MAX,
                });
            match pivot {
                None => Plan {
                    reason: "no named spine step to pivot on; optimized automaton".to_string(),
                    ..automaton(EvalOptions::optimized(ix.alphabet().len()), ix, "")
                },
                Some(pivot) => {
                    let est = estimate_pipeline(&steps, pivot, ix, stats);
                    let mut plan = build_spine(steps, pivot, ix, stats, est);
                    plan.reason = "hybrid template: rarest spine label pivot".to_string();
                    plan
                }
            }
        }
    }
}

/// The cost-based plan: the cheapest pivot (if the spine fragment applies)
/// against the estimated automaton run, optionally corrected by observed
/// feedback from a previous execution (see [`Feedback`]).
pub fn plan_auto(path: &Path, ix: &TreeIndex, feedback: Option<Feedback>) -> Plan {
    let stats = ix.stats();
    let mut auto_est = estimate_automaton(path, ix, stats);
    if let Some(f) = feedback {
        if f.prev_pivot.is_none() {
            auto_est.cost *= f.factor;
            auto_est.visits *= f.factor;
        }
    }
    let note = match feedback {
        Some(f) => format!(
            "; re-planned after observed/estimated visits x{:.1}",
            f.factor
        ),
        None => String::new(),
    };
    let fallback = |why: String| Plan {
        est: auto_est,
        kind: PlanKind::Automaton(EvalOptions::optimized(ix.alphabet().len())),
        reason: format!("{why}{note}"),
    };
    match normalize(path, ix) {
        Normalized::Empty => empty_plan("a spine label does not occur in the document"),
        Normalized::Outside(why) => fallback(format!("outside the spine fragment ({why})")),
        Normalized::Spine(steps) => {
            let best = (0..steps.len())
                .filter(|&i| matches!(steps[i].test, SpineTest::Label(_)))
                .map(|i| {
                    let mut est = estimate_pipeline(&steps, i, ix, stats);
                    if let Some(f) = feedback {
                        if f.prev_pivot == Some(i) {
                            est.cost *= f.factor;
                            est.visits *= f.factor;
                        }
                    }
                    (i, est)
                })
                .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost));
            match best {
                None => fallback("no named spine step to pivot on".to_string()),
                Some((_, est)) if est.cost > auto_est.cost => fallback(format!(
                    "spine estimate {:.0} exceeds automaton estimate {:.0}",
                    est.cost, auto_est.cost
                )),
                Some((pivot, est)) => {
                    let reason = format!(
                        "cost-based pivot on step {} (spine {:.0} vs automaton {:.0}){note}",
                        pivot + 1,
                        est.cost,
                        auto_est.cost
                    );
                    let mut plan = build_spine(steps, pivot, ix, stats, est);
                    plan.reason = reason;
                    plan
                }
            }
        }
    }
}

fn empty_plan(why: &str) -> Plan {
    Plan {
        kind: PlanKind::Empty,
        est: CostEstimate::default(),
        reason: why.to_string(),
    }
}

/// A normalization outcome.
enum Normalized {
    /// Every step fits the spine fragment.
    Spine(Vec<RawStep>),
    /// A named step's label is absent: the result is provably empty.
    Empty,
    /// The shape is outside the fragment (reason for `explain`).
    Outside(&'static str),
}

/// A normalized step before methods are chosen.
struct RawStep {
    axis: Axis,
    test: SpineTest,
    preds: Vec<Pred>,
    /// Attribute-axis or `text()` step: the matched nodes carry content
    /// themselves, and the compiler evaluates *direct* text predicates
    /// against it (`compile_steps`' `self_content` special case).
    self_content: bool,
}

/// Normalizes the main path into the spine fragment: child / descendant /
/// attribute axes with name, `*`, `text()` or `node()` tests.
fn normalize(path: &Path, ix: &TreeIndex) -> Normalized {
    let mut steps = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        if !matches!(step.axis, Axis::Child | Axis::Descendant | Axis::Attribute) {
            return Normalized::Outside("non-downward axis on the main path");
        }
        let test = match &step.test {
            NodeTest::Name(n) => {
                let name = if step.axis == Axis::Attribute {
                    format!("@{n}")
                } else {
                    n.clone()
                };
                match ix.alphabet().lookup(&name) {
                    Some(l) => SpineTest::Label(l),
                    None => return Normalized::Empty,
                }
            }
            NodeTest::Text => match ix.alphabet().lookup("#text") {
                Some(l) => SpineTest::Label(l),
                None => return Normalized::Empty,
            },
            NodeTest::Star => SpineTest::Star,
            NodeTest::AnyNode => SpineTest::Any,
        };
        steps.push(RawStep {
            axis: step.axis,
            test,
            preds: step.preds.clone(),
            self_content: step.axis == Axis::Attribute || step.test == NodeTest::Text,
        });
    }
    if steps.is_empty() {
        Normalized::Outside("empty path")
    } else {
        Normalized::Spine(steps)
    }
}

/// Plans one predicate: an index-only probe when the whole predicate is an
/// and/or/not combination of label chains and exact-text tests, otherwise
/// the memoized tree walk. `self_content` marks the compiler's special
/// syntactic position — a *direct* text predicate on an attribute-axis or
/// `text()` step compares the node's own content; everywhere else (nested
/// under not/and/or, or on element/wildcard steps) text predicates search
/// text children. `next_walk_id` numbers walk predicates for the
/// executor's `(predicate, node)` memo table.
fn plan_pred(p: &Pred, self_content: bool, ix: &TreeIndex, next_walk_id: &mut u32) -> PredPlan {
    if self_content {
        match p {
            Pred::TextEq(lit) => {
                return PredPlan::Probe(Probe::SelfTextEq(ix.lookup_text(lit)));
            }
            Pred::TextContains(lit) => {
                return PredPlan::Probe(Probe::SelfTextContains(lit.clone()));
            }
            _ => {}
        }
    }
    match try_probe(p, ix) {
        Some(probe) => PredPlan::Probe(probe),
        None => {
            let id = *next_walk_id;
            *next_walk_id += 1;
            PredPlan::Walk {
                id,
                pred: p.clone(),
            }
        }
    }
}

fn try_probe(p: &Pred, ix: &TreeIndex) -> Option<Probe> {
    match p {
        Pred::And(a, b) => Some(Probe::And(
            Box::new(try_probe(a, ix)?),
            Box::new(try_probe(b, ix)?),
        )),
        Pred::Or(a, b) => Some(Probe::Or(
            Box::new(try_probe(a, ix)?),
            Box::new(try_probe(b, ix)?),
        )),
        Pred::Not(a) => Some(Probe::Not(Box::new(try_probe(a, ix)?))),
        Pred::TextEq(lit) => Some(Probe::TextEq(ix.lookup_text(lit))),
        Pred::TextContains(_) => None,
        Pred::Path(path) => {
            if path.absolute {
                return None;
            }
            let mut chain = Vec::with_capacity(path.steps.len());
            for step in &path.steps {
                if !step.preds.is_empty() {
                    return None;
                }
                // `.//x` desugars to `self::node()/descendant::x`; a bare
                // self-any step never constrains anything — skip it.
                if step.axis == Axis::SelfAxis && step.test == NodeTest::AnyNode {
                    continue;
                }
                let child_like = match step.axis {
                    Axis::Child | Axis::Attribute => true,
                    Axis::Descendant => false,
                    _ => return None,
                };
                let name = match &step.test {
                    NodeTest::Name(n) if step.axis == Axis::Attribute => format!("@{n}"),
                    NodeTest::Name(n) => n.clone(),
                    NodeTest::Text => "#text".to_string(),
                    _ => return None,
                };
                match ix.alphabet().lookup(&name) {
                    Some(l) => chain.push(ProbeStep {
                        child_like,
                        label: l,
                    }),
                    // An absent label can never be matched: the whole
                    // chain is constant false (exact under negation too).
                    None => return Some(Probe::Const(false)),
                }
            }
            if chain.is_empty() {
                // Only no-op self steps: `[.]` — the context node exists.
                return Some(Probe::Const(true));
            }
            Some(Probe::Chain(chain))
        }
    }
}

fn probe_chain_cost(p: &Probe, ix: &TreeIndex) -> f64 {
    match p {
        Probe::And(a, b) | Probe::Or(a, b) => probe_chain_cost(a, ix) + probe_chain_cost(b, ix),
        Probe::Not(a) => probe_chain_cost(a, ix),
        Probe::Chain(steps) => steps
            .iter()
            .map(|s| probe_cost(ix.label_count(s.label)) + 2.0)
            .sum(),
        Probe::TextEq(_) | Probe::SelfTextEq(_) | Probe::SelfTextContains(_) | Probe::Const(_) => {
            2.0
        }
    }
}

/// Per-candidate cost of one planned predicate.
fn pred_cost(p: &PredPlan, ctx_subtree: f64, ix: &TreeIndex) -> f64 {
    match p {
        PredPlan::Probe(probe) => probe_chain_cost(probe, ix),
        // A walk is existential and short-circuits on its first witness;
        // the whole-subtree bound is the rare worst case, so charge a
        // sub-linear expected cost (memoization across candidates
        // discounts repeats further).
        PredPlan::Walk { .. } => ctx_subtree.sqrt().max(4.0),
    }
}

/// Estimates a full automaton run: jumping visits roughly the occurrences
/// of the query's named labels; wildcard-only queries cannot jump and
/// visit everything.
fn estimate_automaton(path: &Path, ix: &TreeIndex, stats: &IndexStats) -> CostEstimate {
    let n = stats.nodes as f64;
    let mut labels: Vec<u32> = Vec::new();
    collect_path_labels(path, ix, &mut labels);
    labels.sort_unstable();
    labels.dedup();
    let visits = if labels.is_empty() {
        n
    } else {
        let sum: f64 = labels
            .iter()
            .map(|&l| ix.label_count(l as xwq_xml::LabelId) as f64)
            .sum();
        (sum + 32.0).min(n)
    };
    CostEstimate {
        cost: visits * AUTOMATON_VISIT + AUTOMATON_SETUP,
        visits,
    }
}

fn collect_path_labels(path: &Path, ix: &TreeIndex, out: &mut Vec<u32>) {
    fn pred_labels(p: &Pred, ix: &TreeIndex, out: &mut Vec<u32>) {
        match p {
            Pred::And(a, b) | Pred::Or(a, b) => {
                pred_labels(a, ix, out);
                pred_labels(b, ix, out);
            }
            Pred::Not(a) => pred_labels(a, ix, out),
            Pred::Path(p) => collect_path_labels(p, ix, out),
            Pred::TextEq(_) | Pred::TextContains(_) => {}
        }
    }
    for step in &path.steps {
        if let NodeTest::Name(n) = &step.test {
            let name = if step.axis == Axis::Attribute {
                format!("@{n}")
            } else {
                n.clone()
            };
            if let Some(l) = ix.alphabet().lookup(&name) {
                out.push(l);
            }
        }
        for p in &step.preds {
            pred_labels(p, ix, out);
        }
    }
}

/// Label statistics helpers with neutral defaults for wildcard contexts.
struct Ctx {
    subtree: f64,
    children: f64,
}

fn ctx_of(test: SpineTest, stats: &IndexStats) -> Ctx {
    match test {
        SpineTest::Label(l) => {
            let s = &stats.labels[l as usize];
            Ctx {
                subtree: s.avg_subtree(),
                children: s.avg_children().max(1.0),
            }
        }
        _ => Ctx {
            subtree: (stats.nodes as f64).sqrt().max(4.0),
            children: 4.0,
        },
    }
}

/// Estimates the spine pipeline with `pivot` as the LabelJump step, making
/// the same per-step method choices [`build_spine`] will make.
fn estimate_pipeline(
    steps: &[RawStep],
    pivot: usize,
    ix: &TreeIndex,
    stats: &IndexStats,
) -> CostEstimate {
    let n = stats.nodes as f64;
    let SpineTest::Label(pl) = steps[pivot].test else {
        return CostEstimate {
            cost: f64::INFINITY,
            visits: f64::INFINITY,
        };
    };
    let pstat = &stats.labels[pl as usize];
    let cand = pstat.count as f64;
    let mut est = CostEstimate {
        cost: probe_cost(pstat.count as usize) + cand,
        visits: cand,
    };
    let mut walk_ids = 0u32;
    // Pivot predicates.
    let pivot_ctx = ctx_of(steps[pivot].test, stats);
    for p in &steps[pivot].preds {
        let planned = plan_pred(p, steps[pivot].self_content, ix, &mut walk_ids);
        est.cost += cand * pred_cost(&planned, pivot_ctx.subtree, ix);
    }
    // Upward: per candidate, one memoized ancestor walk. Child-only
    // prefixes touch at most `pivot` ancestors; a descendant step anywhere
    // in the prefix can force scanning the whole ancestor line.
    if pivot > 0 {
        let anc = if steps[..pivot].iter().any(|s| s.axis == Axis::Descendant) {
            pstat.avg_depth().max(1.0)
        } else {
            pivot as f64
        };
        // Each level costs ~2 units (parent move + test + memo traffic);
        // memoized sharing bounds the distinct work by the document.
        est.cost += (cand * anc * 2.0).min(2.0 * n) + cand;
        est.visits += (cand * anc).min(n);
        for s in &steps[..pivot] {
            let c = ctx_of(s.test, stats);
            for p in &s.preds {
                let planned = plan_pred(p, s.self_content, ix, &mut walk_ids);
                // Memoized per ancestor: charge once per candidate line.
                est.cost += cand * 0.5 * pred_cost(&planned, c.subtree, ix);
            }
        }
    }
    // Downward narrowing.
    let mut m = cand;
    let mut ctx = pivot_ctx;
    for s in &steps[pivot + 1..] {
        let (method, step_est, m_next) = choose_descend(s, m, &ctx, ix, stats);
        est.add(step_est);
        let _ = method;
        let c = ctx_of(s.test, stats);
        for p in &s.preds {
            let planned = plan_pred(p, s.self_content, ix, &mut walk_ids);
            est.cost += m_next * pred_cost(&planned, c.subtree, ix);
        }
        m = m_next.max(1.0);
        ctx = c;
        let _ = n;
    }
    let _ = m;
    est
}

/// Chooses the enumeration method for one downstream step and estimates
/// it. Returns `(method, estimate, expected matches)`.
fn choose_descend(
    s: &RawStep,
    m: f64,
    ctx: &Ctx,
    ix: &TreeIndex,
    stats: &IndexStats,
) -> (Descend, CostEstimate, f64) {
    let n = stats.nodes as f64;
    match (s.axis, s.test) {
        (Axis::Descendant, SpineTest::Label(l)) => {
            let count = ix.label_count(l) as f64;
            // Expected list entries inside the candidates' subtree ranges.
            let entries = count * (m * ctx.subtree / n).min(1.0);
            (
                Descend::RangeScan,
                CostEstimate {
                    cost: m * probe_cost(ix.label_count(l)) + entries,
                    visits: entries,
                },
                entries.max(1.0),
            )
        }
        (Axis::Descendant, _) => {
            let scanned = m * ctx.subtree;
            (
                Descend::SubtreeScan,
                CostEstimate {
                    cost: scanned,
                    visits: scanned,
                },
                (scanned * 0.5).max(1.0),
            )
        }
        (_, SpineTest::Label(l)) => {
            let count = ix.label_count(l) as f64;
            let entries = count * (m * ctx.subtree / n).min(1.0);
            let range_cost = m * probe_cost(ix.label_count(l)) + entries;
            let scan_cost = m * ctx.children;
            if range_cost < scan_cost {
                (
                    Descend::RangeScan,
                    CostEstimate {
                        cost: range_cost,
                        visits: entries,
                    },
                    entries.max(1.0),
                )
            } else {
                (
                    Descend::ChildScan,
                    CostEstimate {
                        cost: scan_cost,
                        visits: scan_cost,
                    },
                    entries.min(scan_cost).max(1.0),
                )
            }
        }
        (_, _) => {
            let scanned = m * ctx.children;
            (
                Descend::ChildScan,
                CostEstimate {
                    cost: scanned,
                    visits: scanned,
                },
                scanned.max(1.0),
            )
        }
    }
}

/// Materializes the spine plan for a chosen pivot, fixing every step's
/// method and predicate plans. `total` is the full pipeline estimate that
/// ranked this pivot ([`estimate_pipeline`]) — the plan reports it
/// verbatim, so `explain`'s total always matches its decision line.
fn build_spine(
    raw: Vec<RawStep>,
    pivot: usize,
    ix: &TreeIndex,
    stats: &IndexStats,
    total: CostEstimate,
) -> Plan {
    let SpineTest::Label(pivot_label) = raw[pivot].test else {
        unreachable!("pivot is a named step");
    };
    let mut walk_ids = 0u32;
    let pstat = &stats.labels[pivot_label as usize];
    let cand = pstat.count as f64;
    let seed_est = CostEstimate {
        cost: probe_cost(pstat.count as usize) + cand,
        visits: cand,
    };
    let mut m = cand;
    let mut ctx = ctx_of(raw[pivot].test, stats);
    let mut steps = Vec::with_capacity(raw.len());
    for (i, s) in raw.into_iter().enumerate() {
        let (descend, est) = if i <= pivot {
            (Descend::Upward, CostEstimate::default())
        } else {
            let (d, e, m_next) = choose_descend(&s, m, &ctx, ix, stats);
            m = m_next;
            ctx = ctx_of(s.test, stats);
            (d, e)
        };
        let preds = s
            .preds
            .iter()
            .map(|p| plan_pred(p, s.self_content, ix, &mut walk_ids))
            .collect();
        let min_depth = match s.test {
            SpineTest::Label(l) => {
                let st = &stats.labels[l as usize];
                if st.count == 0 {
                    0
                } else {
                    st.min_depth
                }
            }
            _ => 0,
        };
        steps.push(SpineStep {
            axis: s.axis,
            test: s.test,
            preds,
            descend,
            min_depth,
            est,
        });
    }
    Plan {
        kind: PlanKind::Spine(SpinePlan {
            steps,
            pivot,
            pivot_label,
            seed_est,
        }),
        est: total,
        reason: String::new(),
    }
}

/// The spine fragment accepts attribute labels on attribute-axis steps
/// only; keep the helper public within the crate for the executor's
/// star-kind checks.
pub(crate) fn star_kind(axis: Axis) -> LabelKind {
    if axis == Axis::Attribute {
        LabelKind::Attribute
    } else {
        LabelKind::Element
    }
}
