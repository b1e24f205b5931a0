//! Stress and edge cases for the evaluator: pathological document shapes
//! (deep chains, wide fan-outs, alternating labels that defeat inline
//! jumping), selection-order invariants, and strategy-specific behaviors.

use xwq_core::{Engine, Strategy};
use xwq_xml::TreeBuilder;

fn deep_chain(n: usize, label: &str) -> xwq_xml::Document {
    let mut b = TreeBuilder::new();
    for l in ["a", "b", "c"] {
        b.reserve(l);
    }
    b.open("a");
    for _ in 0..n {
        b.open(label);
    }
    b.open("b");
    b.close();
    for _ in 0..n + 1 {
        b.close();
    }
    b.finish()
}

fn wide_fanout(n: usize) -> xwq_xml::Document {
    let mut b = TreeBuilder::new();
    for l in ["a", "b", "c"] {
        b.reserve(l);
    }
    b.open("a");
    for i in 0..n {
        b.open(if i % 2 == 0 { "c" } else { "b" });
        b.close();
    }
    b.close();
    b.finish()
}

#[test]
fn very_deep_documents_do_not_overflow() {
    // Evaluator recursion is bounded by XML depth (sibling chains are
    // iterated). A 20k-deep first-child chain works given a proportionate
    // stack; run in a dedicated thread since test threads default to 2 MiB.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let doc = deep_chain(20_000, "c");
            let e = Engine::build(&doc);
            for s in Strategy::ALL {
                let q = e.compile("//b").unwrap();
                let out = e.run(&q, s);
                assert_eq!(out.nodes.len(), 1, "{}", s.name());
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn deepest_accepted_predicate_nesting_runs_on_a_default_stack() {
    let nested = |depth: usize| format!("//a{}{}", "[b".repeat(depth), "]".repeat(depth));
    let cap = xwq_xpath::MAX_PREDICATE_DEPTH;
    // 2 MiB is the std default for spawned threads (and the serve workers').
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(move || {
            let doc = deep_chain(cap - 1, "b");
            let e = Engine::build(&doc);
            let q = e.compile(&nested(cap)).unwrap();
            for s in Strategy::ALL {
                assert_eq!(e.run(&q, s).nodes, vec![0], "{}", s.name());
            }
            // A 30 KB query that used to abort the process with a stack
            // overflow is a parse error.
            assert!(e.compile(&nested(10_000)).is_err());
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn very_wide_documents_do_not_overflow() {
    // 200k siblings alternating b/c: sibling chains are iterated, and the
    // b-frontier is continued inline, so no recursion depth accumulates.
    let doc = wide_fanout(200_000);
    let e = Engine::build(&doc);
    for s in [Strategy::Pruning, Strategy::Jumping, Strategy::Optimized] {
        let q = e.compile("//a/b").unwrap();
        let out = e.run(&q, s);
        assert_eq!(out.nodes.len(), 100_000, "{}", s.name());
    }
}

#[test]
fn alternating_frontier_labels_stay_flat() {
    // //a//b over c/b alternation exercises the inline-sibling frontier
    // continuation (the union fold would otherwise nest once per b).
    let doc = wide_fanout(100_000);
    let e = Engine::build(&doc);
    let q = e.compile("//a//b").unwrap();
    let out = e.run(&q, Strategy::Optimized);
    assert_eq!(out.nodes.len(), 50_000);
}

#[test]
fn results_are_sorted_and_duplicate_free() {
    // A query whose formula unions the same subtree through several states.
    let doc = xwq_xml::parse("<a><b><b><c/></b><c/></b><b><c/></b></a>").unwrap();
    let e = Engine::build(&doc);
    for query in ["//b//c", "//a//b[c]//c", "//b[c or c]"] {
        let q = e.compile(query).unwrap();
        for s in Strategy::ALL {
            let out = e.run(&q, s);
            let mut sorted = out.nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(out.nodes, sorted, "{} on {}", s.name(), query);
        }
    }
}

#[test]
fn single_node_document() {
    let doc = xwq_xml::parse("<a/>").unwrap();
    let e = Engine::build(&doc);
    assert_eq!(e.query("//a").unwrap(), vec![0]);
    assert_eq!(e.query("/a").unwrap(), vec![0]);
    assert_eq!(e.query("//a[b]").unwrap(), vec![] as Vec<u32>);
    assert_eq!(e.query("//a[not(b)]").unwrap(), vec![0]);
}

#[test]
fn query_for_label_absent_from_document() {
    let doc = xwq_xml::parse("<a><b/></a>").unwrap();
    let e = Engine::build(&doc);
    for s in Strategy::ALL {
        let q = e.compile("//nosuchlabel").unwrap();
        assert!(e.run(&q, s).nodes.is_empty(), "{}", s.name());
        let q = e.compile("//a[nosuchlabel]").unwrap();
        assert!(e.run(&q, s).nodes.is_empty(), "{}", s.name());
        let q = e.compile("//a[not(nosuchlabel)]").unwrap();
        assert_eq!(e.run(&q, s).nodes, vec![0], "{}", s.name());
    }
}

#[test]
fn nested_negation_with_jumping() {
    // ¬ disables the aggressive skip; the results must still match.
    let doc =
        xwq_xml::parse("<a><a><c><b/></c></a><a><c/></a><b><a><c><d/></c></a></b></a>").unwrap();
    let e = Engine::build(&doc);
    for query in [
        "//a[not(.//b)]//c",
        "//a[not(c)]",
        "//a[not(not(c))]",
        "//c[not(b) and not(d)]",
    ] {
        let q = e.compile(query).unwrap();
        let expected = e.run(&q, Strategy::Naive).nodes;
        for s in Strategy::ALL {
            assert_eq!(e.run(&q, s).nodes, expected, "{} on {}", s.name(), query);
        }
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let doc = xwq_xml::parse("<a><b><c/></b><b/><c><b><c/></b></c></a>").unwrap();
    let e = Engine::build(&doc);
    let q = e.compile("//b[c]").unwrap();
    let first = e.run(&q, Strategy::Optimized);
    for _ in 0..5 {
        let again = e.run(&q, Strategy::Optimized);
        assert_eq!(again.nodes, first.nodes);
        // Traversal work is reproducible; memo tables are pooled per
        // compiled query, so a warm run computes nothing new.
        assert_eq!(again.stats.visited, first.stats.visited);
        assert_eq!(again.stats.jumps, first.stats.jumps);
        assert_eq!(again.stats.selected, first.stats.selected);
        assert_eq!(again.stats.memo_misses, 0, "warm run must hit the pool");
    }
    // A fresh compile starts cold again.
    let fresh = e.compile("//b[c]").unwrap();
    let cold = e.run(&fresh, Strategy::Optimized);
    assert_eq!(cold.nodes, first.nodes);
    assert!(cold.stats.memo_misses > 0);
}

#[test]
fn compiled_query_reusable_across_equal_alphabet_documents() {
    // Two documents built with the same reserved alphabet share label ids,
    // so one compiled query can serve both indexes.
    let mk = |with_c: bool| {
        let mut b = TreeBuilder::new();
        for l in ["a", "b", "c"] {
            b.reserve(l);
        }
        b.open("a");
        b.open("b");
        if with_c {
            b.open("c");
            b.close();
        }
        b.close();
        b.close();
        b.finish()
    };
    let d1 = mk(true);
    let d2 = mk(false);
    let e1 = Engine::build(&d1);
    let e2 = Engine::build(&d2);
    let q = e1.compile("//b[c]").unwrap();
    assert_eq!(e1.run(&q, Strategy::Optimized).nodes, vec![1]);
    assert_eq!(e2.run(&q, Strategy::Optimized).nodes, vec![] as Vec<u32>);
}

#[test]
fn predicates_on_multiple_steps_simultaneously() {
    let doc =
        xwq_xml::parse("<a><b><c><d/></c></b><b><c/></b><e><b><c><d/></c></b></e></a>").unwrap();
    let e = Engine::build(&doc);
    let q = e.compile("//b[c]/c[d]").unwrap();
    let expected = e.run(&q, Strategy::Naive).nodes;
    assert_eq!(expected, vec![2, 8]);
    for s in Strategy::ALL {
        assert_eq!(e.run(&q, s).nodes, expected, "{}", s.name());
    }
}
