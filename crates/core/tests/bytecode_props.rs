//! Properties of compiled programs and the register VM that runs them:
//! bytecode survives an encode → decode round-trip with its results
//! intact, corrupt bytes never panic the decoder, an installed program
//! satisfies a run without planning, and the ancestor-axis probe keeps
//! deep upward matches cheap.
//!
//! Result sets are checked against the independent `xwq-baseline`
//! evaluator elsewhere (`strategy_agreement`, `tests/xmark_end_to_end.rs`),
//! and the fig. 2 traversal counters are pinned in `eval_counters`.

use proptest::prelude::*;
use xwq_core::{compile_plan, Engine, Program, Strategy as EvalStrategy};
use xwq_xml::TreeBuilder;

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
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Encode → decode round-trips preserve execution: a program run after
    /// a byte round-trip selects the same nodes as the original.
    #[test]
    fn bytecode_roundtrip_preserves_results(doc in arb_doc(), query in arb_query()) {
        let engine = Engine::build(&doc);
        let compiled = match engine.compile(&query) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let direct = engine.run(&compiled, EvalStrategy::Auto);
        let plan = engine.plan(&compiled, EvalStrategy::Auto);
        let bytes = compile_plan(&plan).encode();
        let decoded = Program::decode(&bytes).expect("round-trip decode");
        decoded.validate(engine.index()).expect("round-trip validate");
        // Install into a fresh compiled query (the slot must be cold for
        // the install to take) and run through the normal entry point.
        let fresh = engine.compile(&query).unwrap();
        assert!(engine.install_program(&fresh, EvalStrategy::Auto, decoded));
        let planned_before = engine.plan_counters().planned;
        let warm = engine.run(&fresh, EvalStrategy::Auto);
        prop_assert_eq!(&warm.nodes, &direct.nodes, "`{}`", &query);
        // The installed program satisfied the run: nothing newly planned.
        prop_assert_eq!(engine.plan_counters().planned, planned_before);
    }

    /// Corrupt program bytes never panic: decode rejects them or the
    /// decoded program still validates/executes safely.
    #[test]
    fn corrupt_bytecode_never_panics(doc in arb_doc(), query in arb_query(), pos_seed in 0u32..u32::MAX, flip in 1u8..=255) {
        let engine = Engine::build(&doc);
        let compiled = match engine.compile(&query) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let plan = engine.plan(&compiled, EvalStrategy::Auto);
        let mut bytes = compile_plan(&plan).encode();
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = pos_seed as usize % bytes.len();
        bytes[pos] ^= flip;
        if let Ok(p) = Program::decode(&bytes) {
            // A surviving decode may still be installable only if it
            // validates; either way nothing panics and results stay
            // governed by validation.
            let _ = p.validate(engine.index());
        }
        // Truncations at every length must also be handled.
        for cut in 0..bytes.len().min(64) {
            let _ = Program::decode(&bytes[..cut]);
        }
    }
}

/// The ancestor-axis probe regression: on a deep document, the upward
/// match of every `b` candidate is answered by one per-label ancestor
/// probe (a jump) instead of a parent-chain walk. The counters are exact:
/// a parent-chain walk makes no jumps and visits the ancestors it
/// examines (52 visits, 0 jumps here), so a probe that stops engaging
/// fails the test.
#[test]
fn ancestor_probe_pins_deep_upward_match_counters() {
    // A deep spine of `a` wrappers with `b` targets hanging off the
    // bottom: //a//b forces every b candidate to prove an `a` ancestor.
    let mut xml = String::new();
    for _ in 0..200 {
        xml.push_str("<a><c>");
    }
    for _ in 0..50 {
        xml.push_str("<b/>");
    }
    for _ in 0..200 {
        xml.push_str("</c></a>");
    }
    let xml = format!("<r>{xml}</r>");
    let doc = xwq_xml::parse(&xml).unwrap();
    let engine = Engine::build(&doc);
    let compiled = engine.compile("//a//b").unwrap();
    let vm = engine.run(&compiled, EvalStrategy::Auto);
    assert_eq!(vm.nodes.len(), 50);
    assert_eq!(vm.stats.selected, 50);
    assert_eq!(vm.stats.visited, 50, "one visit per b candidate");
    assert_eq!(vm.stats.jumps, 50, "one ancestor probe per b candidate");
}

/// Warm-start provenance: installing a persisted program means the engine
/// never plans for that query; a cold run of a second query does plan.
#[test]
fn installed_programs_skip_planning() {
    let doc = xwq_xml::parse("<r><x><y/></x><x/></r>").unwrap();
    let donor = Engine::build(&doc);
    let q = donor.compile("//x[y]").unwrap();
    donor.run(&q, EvalStrategy::Auto);
    let program = donor
        .cached_program(&q, EvalStrategy::Auto)
        .expect("donor cached a program")
        .program
        .clone();

    let engine = Engine::build(&doc);
    let fresh = engine.compile("//x[y]").unwrap();
    assert!(engine.install_program(&fresh, EvalStrategy::Auto, program));
    let out = engine.run(&fresh, EvalStrategy::Auto);
    assert_eq!(out.nodes, vec![1]);
    let counters = engine.plan_counters();
    assert_eq!(counters.installed, 1);
    assert_eq!(counters.planned, 0, "warm program must satisfy the run");

    // A query with no installed program plans cold as usual.
    let cold = engine.compile("//y").unwrap();
    engine.run(&cold, EvalStrategy::Auto);
    assert!(engine.plan_counters().planned > 0);
}
