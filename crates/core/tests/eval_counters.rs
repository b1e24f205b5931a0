//! The evaluators' traversal is pinned. Over one XMark document, the
//! answer and the `visited` / `jumps` / `selected` counters must equal
//! golden tables — on both topologies, for a cold run and for a warm run:
//!
//! * the automaton evaluator on the 14 queries of the benchmark's
//!   `automaton` mix (warm = pooled memo tables);
//! * the planner-chosen programs on the register VM for fig. 2 Q01–Q15
//!   under `auto`, the benchmark's `doc-hot` mix (warm = after visit
//!   feedback had its chance to re-plan).
//!
//! Any change to how a query walks the tree shows up here as a counter
//! diff, even when the answers stay right.

use xwq_core::{Engine, Strategy};
use xwq_index::TopologyKind;
use xwq_xmark::GenOptions;

/// XMark Q05–Q15 plus the mix's three full-scan / predicate shapes.
fn mix() -> Vec<&'static str> {
    (5..=15)
        .map(xwq_xmark::query)
        .chain([
            "//*[ .//keyword ]",
            "//*[ not(.//mail) ]/name",
            "/site/*/*[ .//emph ]",
        ])
        .collect()
}

/// FNV-1a over the selected node ids.
fn checksum(nodes: &[u32]) -> u64 {
    nodes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(answer checksum, visited, jumps, selected)` per query of [`mix`] on a
/// fresh memo, captured from the evaluator before its per-visit path was
/// rewritten.
const COLD: [(u64, u64, u64, u64); 14] = [
    (0xcb45242f404e299, 307, 520, 112),
    (0x7f6f92735929226f, 258, 426, 150),
    (0xeb42809a21d0c66c, 128, 182, 17),
    (0x9fe6b625b07d1004, 432, 650, 21),
    (0xfc1c12aef629c039, 406, 276, 128),
    (0xaf63bd4c8601b7df, 2, 1, 1),
    (0x21f59545e2f24118, 237, 515, 236),
    (0x21f59545e2f24118, 237, 516, 236),
    (0x21f59545e2f24118, 238, 518, 236),
    (0x21f59545e2f24118, 238, 517, 236),
    (0x21f59545e2f24118, 239, 515, 236),
    (0x87867f1ef2d4081a, 7305, 0, 721),
    (0x83cdcbb559711e95, 7305, 0, 96),
    (0x87935ff464dddf0, 176, 131, 38),
];

/// The same on the second run, whose pooled memo already holds the
/// existential answers of the first: queries with recognition-only
/// predicates (Q07, Q09, Q10, Q15) visit and jump less.
const WARM: [(u64, u64, u64, u64); 14] = [
    (0xcb45242f404e299, 307, 520, 112),
    (0x7f6f92735929226f, 258, 426, 150),
    (0xeb42809a21d0c66c, 62, 2, 17),
    (0x9fe6b625b07d1004, 432, 650, 21),
    (0xfc1c12aef629c039, 342, 101, 128),
    (0xaf63bd4c8601b7df, 1, 0, 1),
    (0x21f59545e2f24118, 237, 515, 236),
    (0x21f59545e2f24118, 237, 515, 236),
    (0x21f59545e2f24118, 237, 515, 236),
    (0x21f59545e2f24118, 237, 515, 236),
    (0x21f59545e2f24118, 237, 515, 236),
    (0x87867f1ef2d4081a, 7305, 0, 721),
    (0x83cdcbb559711e95, 7305, 0, 96),
    (0x87935ff464dddf0, 138, 0, 38),
];

#[test]
fn automaton_counters_match_the_golden_table() {
    let doc = xwq_xmark::generate(GenOptions {
        factor: 0.05,
        seed: 42,
    });
    for topology in [TopologyKind::Array, TopologyKind::Succinct] {
        let engine = Engine::build_with(&doc, topology);
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for query in mix() {
            let q = engine.compile(query).unwrap();
            for table in [&mut cold, &mut warm] {
                let out = engine.run(&q, Strategy::Optimized);
                assert_eq!(out.stats.selected, out.nodes.len() as u64);
                table.push((
                    checksum(&out.nodes),
                    out.stats.visited,
                    out.stats.jumps,
                    out.stats.selected,
                ));
            }
            let warm_run = engine.run(&q, Strategy::Optimized);
            assert_eq!(
                warm_run.stats.memo_misses, 0,
                "{query}: pooled memo is warm"
            );
        }
        assert_eq!(cold, COLD, "cold runs on {topology:?}");
        assert_eq!(warm, WARM, "warm runs on {topology:?}");
    }
}

/// `(answer checksum, visited, jumps, selected)` per fig. 2 query (Q01–Q15)
/// under `auto` on a fresh compiled query, captured while the tree-walking
/// plan executor still ran beside the VM (the two agreed on every row).
const AUTO_COLD: [(u64, u64, u64, u64); 15] = [
    (0xaf63bc4c8601b62c, 2, 1, 1),
    (0xb94da3a276a80c4a, 339, 36, 18),
    (0x30b9eed6ede922fc, 194, 27, 42),
    (0xcad8516662644a00, 108, 1, 100),
    (0xcb45242f404e299, 548, 195, 112),
    (0x7f6f92735929226f, 258, 101, 150),
    (0xeb42809a21d0c66c, 62, 117, 17),
    (0x9fe6b625b07d1004, 264, 151, 21),
    (0xfc1c12aef629c039, 300, 340, 128),
    (0xaf63bd4c8601b7df, 1, 1, 1),
    (0x21f59545e2f24118, 237, 1, 236),
    (0x21f59545e2f24118, 237, 2, 236),
    (0x21f59545e2f24118, 237, 2, 236),
    (0x21f59545e2f24118, 237, 3, 236),
    (0x21f59545e2f24118, 239, 1, 236),
];

/// The same on the second run. Q02, Q03, Q06, Q07 and Q09 overshoot their
/// visit estimate on the first run and re-plan; the replacement program
/// makes one or two fewer jumps.
const AUTO_WARM: [(u64, u64, u64, u64); 15] = [
    (0xaf63bc4c8601b62c, 2, 1, 1),
    (0xb94da3a276a80c4a, 339, 34, 18),
    (0x30b9eed6ede922fc, 194, 26, 42),
    (0xcad8516662644a00, 108, 1, 100),
    (0xcb45242f404e299, 548, 195, 112),
    (0x7f6f92735929226f, 258, 100, 150),
    (0xeb42809a21d0c66c, 62, 116, 17),
    (0x9fe6b625b07d1004, 264, 151, 21),
    (0xfc1c12aef629c039, 300, 339, 128),
    (0xaf63bd4c8601b7df, 1, 1, 1),
    (0x21f59545e2f24118, 237, 1, 236),
    (0x21f59545e2f24118, 237, 2, 236),
    (0x21f59545e2f24118, 237, 2, 236),
    (0x21f59545e2f24118, 237, 3, 236),
    (0x21f59545e2f24118, 239, 1, 236),
];

#[test]
fn auto_counters_match_the_golden_table() {
    let doc = xwq_xmark::generate(GenOptions {
        factor: 0.05,
        seed: 42,
    });
    for topology in [TopologyKind::Array, TopologyKind::Succinct] {
        let engine = Engine::build_with(&doc, topology);
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for (_, query) in xwq_xmark::queries() {
            let q = engine.compile(query).unwrap();
            for table in [&mut cold, &mut warm] {
                let out = engine.run(&q, Strategy::Auto);
                assert_eq!(out.stats.selected, out.nodes.len() as u64);
                table.push((
                    checksum(&out.nodes),
                    out.stats.visited,
                    out.stats.jumps,
                    out.stats.selected,
                ));
            }
        }
        assert_eq!(cold, AUTO_COLD, "cold auto runs on {topology:?}");
        assert_eq!(warm, AUTO_WARM, "warm auto runs on {topology:?}");
    }
}
