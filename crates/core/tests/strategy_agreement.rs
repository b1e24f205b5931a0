//! The central correctness property of the whole system: every evaluation
//! strategy — naive, pruning, jumping, memoized, optimized, hybrid — and the
//! independently implemented step-wise baseline must select exactly the same
//! nodes, on arbitrary random documents and random queries of the fragment.

use proptest::prelude::*;
use xwq_core::{Engine, Strategy as EvalStrategy};
use xwq_xml::TreeBuilder;
use xwq_xpath::parse_xpath;

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

fn build_doc(ops: &[(u8, u8)], root: u8) -> xwq_xml::Document {
    let mut b = TreeBuilder::new();
    for n in NAMES {
        b.reserve(n);
    }
    b.open(NAMES[root as usize % NAMES.len()]);
    let mut depth = 1usize;
    for &(pops, label) in ops {
        let pops = (pops as usize).min(depth - 1);
        for _ in 0..pops {
            b.close();
            depth -= 1;
        }
        b.open(NAMES[label as usize % NAMES.len()]);
        depth += 1;
    }
    for _ in 0..depth {
        b.close();
    }
    b.finish()
}

fn arb_doc() -> impl Strategy<Value = xwq_xml::Document> {
    (prop::collection::vec((0u8..4, 0u8..5), 0..150), 0u8..5)
        .prop_map(|(ops, root)| build_doc(&ops, root))
}

/// Random queries from the compilable fragment, as strings.
fn arb_query() -> impl Strategy<Value = String> {
    let name = prop::sample::select(vec!["a", "b", "c", "d", "e", "*"]);
    let axis = prop::sample::select(vec!["/", "//"]);
    let leaf_pred = (prop::sample::select(vec!["", ".//"]), name.clone())
        .prop_map(|(pfx, n)| format!("{pfx}{n}"));
    let pred = leaf_pred.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} and {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} or {b})")),
            inner.prop_map(|a| format!("not({a})")),
        ]
    });
    let step = (name, prop::option::of(pred)).prop_map(|(n, p)| match p {
        Some(p) => format!("{n}[ {p} ]"),
        None => n.to_string(),
    });
    prop::collection::vec((axis, step), 1..4).prop_map(|parts| {
        let mut q = String::new();
        for (sep, st) in parts {
            q.push_str(sep);
            q.push_str(&st);
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn all_strategies_match_the_baseline(doc in arb_doc(), query in arb_query()) {
        let engine = Engine::build(&doc);
        let compiled = match engine.compile(&query) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("compile {query}: {e}"))),
        };
        let path = parse_xpath(&query).unwrap();
        let (expected, _) = xwq_baseline::evaluate_path(engine.index(), &path);
        for strat in EvalStrategy::ALL {
            let out = engine.run(&compiled, strat);
            prop_assert_eq!(
                &out.nodes,
                &expected,
                "{} disagrees with baseline on `{}` over {}",
                strat.name(),
                &query,
                doc.to_xml()
            );
        }
    }

    #[test]
    fn optimized_never_visits_more_than_pruning(doc in arb_doc(), query in arb_query()) {
        let engine = Engine::build(&doc);
        let compiled = match engine.compile(&query) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let p = engine.run(&compiled, EvalStrategy::Pruning);
        let o = engine.run(&compiled, EvalStrategy::Optimized);
        prop_assert!(
            o.stats.visited <= p.stats.visited,
            "optimized visited {} > pruning {} on `{}`",
            o.stats.visited,
            p.stats.visited,
            &query
        );
    }

    /// The topology changes how navigation is computed, never where the
    /// evaluator goes: every automaton strategy selects the same nodes
    /// with the same visit, jump and selection counts on both.
    #[test]
    fn succinct_topology_gives_identical_results(doc in arb_doc(), query in arb_query()) {
        let a = Engine::build(&doc);
        let s = Engine::build_with(&doc, xwq_index::TopologyKind::Succinct);
        if let (Ok(qa), Ok(qs)) = (a.compile(&query), s.compile(&query)) {
            for strategy in [
                EvalStrategy::Naive,
                EvalStrategy::Pruning,
                EvalStrategy::Jumping,
                EvalStrategy::Memoized,
                EvalStrategy::Optimized,
            ] {
                let (ra, rs) = (a.run(&qa, strategy), s.run(&qs, strategy));
                prop_assert_eq!(&ra.nodes, &rs.nodes, "{} on {}", strategy.name(), &query);
                prop_assert_eq!(
                    (ra.stats.visited, ra.stats.jumps, ra.stats.selected),
                    (rs.stats.visited, rs.stats.jumps, rs.stats.selected),
                    "{} on {}",
                    strategy.name(),
                    &query
                );
            }
        }
    }
}

/// Attribute values share the content-id table with text nodes, but
/// `[text()='…']` must only ever match *text* children — the spine
/// executor's probe and walk paths both have to agree with the compiled
/// automaton here (a node whose attribute value equals the literal, with
/// no matching text child, is NOT selected; under `not(…)` it IS).
#[test]
fn text_predicates_never_match_attribute_content() {
    let doc = xwq_xml::parse(
        r#"<r><item id="gold"><name>x</name></item><item id="y">gold</item><item id="gold">gold</item></r>"#,
    )
    .unwrap();
    let engine = Engine::build(&doc);
    for query in [
        "//item[ text() = 'gold' ]",
        "//item[ not(text() = 'gold') ]",
        "//item[ contains(text(), 'gol') ]",
        "//item[ name and text() = 'gold' ]",
    ] {
        let q = engine.compile(query).unwrap();
        let expected = engine.run(&q, EvalStrategy::Optimized).nodes;
        for s in EvalStrategy::ALL {
            assert_eq!(engine.run(&q, s).nodes, expected, "{} on {query}", s.name());
        }
    }
}

/// Text predicates on *self-content* contexts follow the compiler's
/// syntactic rule: only a *direct* `text()=…`/`contains(text(),…)` on an
/// attribute-axis or `text()` step compares the node's own content —
/// nested (under `not`/`and`/`or`) or `node()`-step text predicates use
/// text-child search even when the context node carries content itself.
/// The spine executor's probes and walks must mirror this exactly.
#[test]
fn self_content_text_predicates_match_the_automaton() {
    let doc = xwq_xml::parse(r#"<r><x id="gold"><a>t1</a><b>gold</b></x><x><a>gold</a></x></r>"#)
        .unwrap();
    let engine = Engine::build(&doc);
    for query in [
        // Direct self-content positions.
        "//x/@id[ text() = 'gold' ]",
        "//a/text()[ text() = 'gold' ]",
        "//x/@id[ contains(text(), 'ol') ]",
        // Nested: child-search semantics even at self-content contexts.
        "//text()[ not(text() = 't1') ]",
        "//a/text()[ not(text() = 'gold') ]",
        // node() steps are never self-content, whatever they match.
        "//x//node()[ text() = 'gold' ]",
        "//node()[ contains(text(), 'gol') ]",
        // Inside predicate paths the same rule applies to walked steps.
        "//x[ .//text()[ not(text() = 'gold') ] ]",
        "//x[ .//text()[ text() = 'gold' ] ]",
        "//x[ @id[ text() = 'gold' ] ]",
    ] {
        let q = engine.compile(query).unwrap();
        let expected = engine.run(&q, EvalStrategy::Naive).nodes;
        for s in EvalStrategy::ALL {
            assert_eq!(engine.run(&q, s).nodes, expected, "{} on {query}", s.name());
        }
    }
}

/// The planner's `Auto` strategy must select exactly the optimized
/// automaton's result set on the full XMark Fig. 2 suite (its plans range
/// from spine pipelines with index probes to automaton fallbacks, so this
/// exercises every operator against the realistic workload).
#[test]
fn auto_agrees_with_opt_on_the_full_fig2_suite() {
    let doc = xwq_xmark::generate(xwq_xmark::GenOptions {
        factor: 0.05,
        seed: 42,
    });
    let engine = Engine::build(&doc);
    for (n, query) in xwq_xmark::queries() {
        let q = match engine.compile(query) {
            Ok(q) => q,
            Err(e) => panic!("Q{n:02} must compile: {e}"),
        };
        let opt = engine.run(&q, EvalStrategy::Optimized);
        let auto = engine.run(&q, EvalStrategy::Auto);
        assert_eq!(auto.nodes, opt.nodes, "Q{n:02}: {query}");
        assert!(!auto.hybrid_fallback, "auto never reports hybrid fallback");
    }
}

/// The over-visit regression the planner was built to fix: on Q8 and Q9
/// the legacy hybrid walker re-scanned predicate subtrees and ancestor
/// chains per candidate (2500 / 2729 distinct visits vs opt's 913 / 808
/// at XMark factor 0.1). The planned pipeline — predicate probes, the
/// memoized upward match with its min-depth cutoff — must not pick a plan
/// that visits more nodes than the optimized automaton run.
#[test]
fn planner_q8_q9_not_worse_than_opt_visits() {
    let doc = xwq_xmark::generate(xwq_xmark::GenOptions {
        factor: 0.1,
        seed: 42,
    });
    let engine = Engine::build(&doc);
    for n in [8usize, 9] {
        let query = xwq_xmark::query(n);
        let q = engine.compile(query).unwrap();
        let opt = engine.run(&q, EvalStrategy::Optimized);
        let auto = engine.run(&q, EvalStrategy::Auto);
        assert_eq!(auto.nodes, opt.nodes, "Q{n:02}");
        assert!(
            auto.stats.visited <= opt.stats.visited,
            "Q{n:02}: auto visited {} > opt {} — planner picked a worse plan",
            auto.stats.visited,
            opt.stats.visited
        );
        // And the chosen plan is the spine pipeline, not an automaton
        // fallback that would trivially tie the bound.
        let plan = engine.plan(&q, EvalStrategy::Auto);
        assert!(!plan.is_automaton(), "Q{n:02} should plan a spine pipeline");
    }
}

/// Q7-style regression: the hybrid walker used to count
/// raw node *examinations* (re-counting shared ancestors and re-scanned
/// predicate children once per candidate), reporting more "visited" nodes
/// than plain pruning on predicate queries. `visited` now means distinct
/// nodes for every strategy, so hybrid — which skips straight to the
/// rarest spine label — must not exceed pruning on its home turf.
#[test]
fn hybrid_visited_is_distinct_and_not_above_pruning() {
    // A /site/people/person[address and (phone or homepage)] lookalike:
    // many persons, each with several children, so per-candidate predicate
    // scans and upward context walks revisit plenty of nodes.
    let mut xml = String::from("<site><people>");
    for i in 0..40 {
        xml.push_str("<person>");
        xml.push_str("<address/>");
        if i % 2 == 0 {
            xml.push_str("<phone/>");
        }
        if i % 3 == 0 {
            xml.push_str("<homepage/>");
        }
        xml.push_str("<name/><watch/><watch/>");
        xml.push_str("</person>");
    }
    xml.push_str("</people></site>");
    let doc = xwq_xml::parse(&xml).unwrap();
    let engine = Engine::build(&doc);
    let q = "/site/people/person[ address and (phone or homepage) ]";
    let compiled = engine.compile(q).unwrap();
    let h = engine.run(&compiled, EvalStrategy::Hybrid);
    assert!(
        !h.hybrid_fallback,
        "query shape must stay on the hybrid path"
    );
    let p = engine.run(&compiled, EvalStrategy::Pruning);
    assert_eq!(h.nodes, p.nodes);
    assert!(
        h.stats.visited <= p.stats.visited,
        "hybrid visited {} > pruning {}",
        h.stats.visited,
        p.stats.visited
    );
    // Distinctness: the counter can never exceed the document size.
    assert!(h.stats.visited <= doc.len() as u64);
}
