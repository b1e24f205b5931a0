//! Micro-probes of the lower layers on the workload's own first document:
//! seeded positions, one public call per probe, nanoseconds per call.
//! These are the floor of the ladder — what a query is made of — and run
//! only in the traced run.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use xwq_index::{LabelSet, Topology, TopologyKind, TreeIndex};
use xwq_xml::Document;

use crate::rng::SplitMix64;

/// Nanoseconds per call of `f` over `inputs`, after one untimed pass.
fn per_call<T: Copy, R>(inputs: &[T], mut f: impl FnMut(T) -> R) -> f64 {
    for &x in inputs.iter().take(inputs.len() / 10) {
        black_box(f(black_box(x)));
    }
    let t0 = Instant::now();
    for &x in inputs {
        black_box(f(black_box(x)));
    }
    t0.elapsed().as_nanos() as f64 / inputs.len() as f64
}

pub struct SuccinctProbes {
    pub rank1_ns: f64,
    pub select1_ns: f64,
    pub find_close_ns: f64,
    pub enclose_ns: f64,
}

/// Rank/select and balanced-parentheses probes on the document's BP
/// sequence (built here when the workload serves the array topology).
pub fn succinct(
    doc: &Document,
    index: &TreeIndex,
    n: usize,
    rng: &mut SplitMix64,
) -> SuccinctProbes {
    let built;
    let tree = match index.topology().succinct_tree() {
        Some(t) => t,
        None => {
            built = Topology::build(doc, TopologyKind::Succinct);
            built.succinct_tree().expect("succinct topology has a tree")
        }
    };
    let bp = tree.bp();
    let rs = bp.rank_select();
    let nodes = tree.len();
    let positions: Vec<usize> = (0..n).map(|_| rng.below(bp.len())).collect();
    let ranks: Vec<usize> = (0..n).map(|_| rng.below(nodes)).collect();
    // Open parentheses of seeded nodes (node 0 has no enclosing one).
    let opens: Vec<usize> = (0..n)
        .map(|_| {
            bp.select_open(1 + rng.below(nodes - 1))
                .expect("node exists")
        })
        .collect();
    SuccinctProbes {
        rank1_ns: per_call(&positions, |p| rs.rank1(p)),
        select1_ns: per_call(&ranks, |k| rs.select1(k)),
        find_close_ns: per_call(&opens, |p| bp.find_close(p)),
        enclose_ns: per_call(&opens, |p| bp.enclose(p)),
    }
}

pub struct IndexProbes {
    pub label_list_ns: f64,
    pub jump_desc_ns: f64,
    pub label_ancestor_ns: f64,
}

/// Label-list search, first-labelled-descendant jump and labelled
/// ancestor probes, over the document's most frequent element label.
pub fn index(index: &TreeIndex, n: usize, rng: &mut SplitMix64) -> IndexProbes {
    let alphabet = index.alphabet();
    let label = alphabet
        .ids()
        .filter(|&l| alphabet.kind(l) == xwq_xml::LabelKind::Element)
        .max_by_key(|&l| index.label_count(l))
        .expect("document has elements");
    let set = LabelSet::singleton(alphabet.len(), label);
    let nodes: Vec<u32> = (0..n).map(|_| rng.below(index.len()) as u32).collect();
    // Touch the lazily built ancestor arrays before timing them.
    black_box(index.nearest_label_ancestor(label, nodes[0]));
    IndexProbes {
        label_list_ns: per_call(&nodes, |v| {
            index.label_list(label).partition_point(|&u| u < v)
        }),
        jump_desc_ns: per_call(&nodes, |v| index.jump_desc_xml(v, &set)),
        label_ancestor_ns: per_call(&nodes, |v| index.nearest_label_ancestor(label, v)),
    }
}

pub struct WireProbes {
    pub http_parse_ns: f64,
    pub json_parse_ns: f64,
}

/// The server's request decoding over recorded request bytes: one
/// `http::read_request` from a `Cursor`, one `json::parse` of the body.
pub fn wire(requests: &[Vec<u8>], n: usize) -> WireProbes {
    let picks: Vec<usize> = (0..n).map(|i| i % requests.len()).collect();
    let bodies: Vec<&str> = requests
        .iter()
        .map(|r| {
            let text = std::str::from_utf8(r).expect("requests are ASCII");
            text.split_once("\r\n\r\n").expect("request has a body").1
        })
        .collect();
    WireProbes {
        http_parse_ns: per_call(&picks, |i| {
            xwq_serve::http::read_request(&mut Cursor::new(requests[i].as_slice()), 8192, 1 << 20)
                .expect("recorded request parses")
        }),
        json_parse_ns: per_call(&picks, |i| {
            xwq_serve::json::parse(bodies[i]).expect("recorded body parses")
        }),
    }
}

/// Cost of one `Instant::now()` pair: what timing a call adds to it.
pub fn timer_overhead_ns(n: usize) -> f64 {
    let picks = vec![(); n];
    per_call(&picks, |()| Instant::now().elapsed())
}
