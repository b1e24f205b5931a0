//! Seeded inputs: the documents each workload serves and the requests it
//! sends. Everything here is a pure function of `(workload, seed, smoke)`.

use std::collections::HashSet;

use xwq_core::Strategy;
use xwq_index::TopologyKind;
use xwq_xml::LabelKind;

use crate::oracle::{fnv1a, Answer, Shape};
use crate::rng::SplitMix64;

/// One document as the system first sees it: XML bytes.
pub struct DocInput {
    pub name: String,
    pub xml: Vec<u8>,
    pub nodes: usize,
}

/// An XMark document rendered to XML.
pub fn xmark(name: &str, factor: f64, seed: u64) -> DocInput {
    let doc = xwq_xmark::generate(xwq_xmark::GenOptions { factor, seed });
    DocInput {
        name: name.to_string(),
        nodes: doc.len(),
        xml: doc.to_xml().into_bytes(),
    }
}

/// The element names that occur in `xml` (the document's own label
/// alphabet, in first-occurrence order).
pub fn element_labels(xml: &[u8]) -> Vec<String> {
    let doc = xwq_xml::parse_bytes(xml).expect("generated XML parses");
    let alphabet = doc.alphabet();
    alphabet
        .ids()
        .filter(|&id| alphabet.kind(id) == LabelKind::Element)
        .map(|id| alphabet.name(id).to_string())
        .collect()
}

/// How a request reaches the system and what comes back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// In-process call; the full node list comes back.
    Direct,
    /// HTTP `{"count": true}`: one count per document.
    HttpCount,
    /// HTTP JSON body with node lists.
    HttpNodes,
    /// HTTP `{"stream": true}`: chunked NDJSON, one row per document.
    HttpStream,
}

/// One distinct request. A workload's request sequence is a list of
/// indices into its classes.
pub struct Class {
    pub query: String,
    pub strategy: Strategy,
    /// Target documents (indices into the workload's documents, in name
    /// order — the order every layer returns outcomes in).
    pub docs: Vec<usize>,
    pub mode: Mode,
    /// Per target document, the answers that count as right: one, or one
    /// per variant while `corpus-churn` is swapping variants.
    pub expect: Vec<Vec<Answer>>,
}

pub struct Requests {
    pub classes: Vec<Class>,
    pub sequence: Vec<u32>,
    /// `doc-adhoc` only: the shape each class's text was rendered from.
    pub shapes: Vec<Shape>,
}

impl Requests {
    /// Classes drawn uniformly, `len` requests, seeded order.
    pub fn shuffled(classes: Vec<Class>, len: usize, rng: &mut SplitMix64) -> Self {
        // Whole passes over the classes, each shuffled: uniform, and every
        // class appears early enough for warm-up to meet it.
        let mut sequence = Vec::with_capacity(len);
        let mut pass: Vec<u32> = (0..classes.len() as u32).collect();
        while sequence.len() < len {
            rng.shuffle(&mut pass);
            sequence.extend_from_slice(&pass);
        }
        sequence.truncate(len);
        Self {
            classes,
            sequence,
            shapes: Vec::new(),
        }
    }

    /// Hash of the request sequence (texts, targets, modes, order).
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        for c in &self.classes {
            text.push_str(&format!(
                "{}|{}|{:?}|{:?}\n",
                c.query,
                c.strategy.token(),
                c.docs,
                c.mode
            ));
        }
        let mut h = fnv1a(text.as_bytes());
        for &i in &self.sequence {
            h = (h ^ u64::from(i)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn class(query: &str, strategy: Strategy, docs: Vec<usize>, mode: Mode) -> Class {
    Class {
        query: query.to_string(),
        strategy,
        docs,
        mode,
        expect: Vec::new(),
    }
}

/// The five workloads. Names are fixed; later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DocHot,
    DocAdhoc,
    Automaton,
    CorpusServe,
    CorpusChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DocHot,
        Workload::DocAdhoc,
        Workload::Automaton,
        Workload::CorpusServe,
        Workload::CorpusChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DocHot => "doc-hot",
            Workload::DocAdhoc => "doc-adhoc",
            Workload::Automaton => "automaton",
            Workload::CorpusServe => "corpus-serve",
            Workload::CorpusChurn => "corpus-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_corpus(self) -> bool {
        matches!(self, Workload::CorpusServe | Workload::CorpusChurn)
    }

    pub fn topology(self) -> TopologyKind {
        match self {
            Workload::Automaton => TopologyKind::Succinct,
            _ => TopologyKind::Array,
        }
    }

    /// XMark factors of the workload's documents. Single-document
    /// workloads have one; the corpora have seven equal documents and a
    /// 4x straggler, so fan-out tail latency follows the slowest shard.
    pub fn factors(self, smoke: bool) -> Vec<f64> {
        let corpus = |small: f64| {
            let mut f = vec![small; 7];
            f.push(small * 4.0);
            f
        };
        match (self, smoke) {
            (Workload::DocHot, false) => vec![8.0],
            (Workload::DocAdhoc, false) => vec![0.1],
            (Workload::Automaton, false) => vec![1.0],
            (Workload::CorpusServe, false) => corpus(0.5),
            (Workload::CorpusChurn, false) => corpus(0.25),
            (w, true) if w.is_corpus() => corpus(0.0125),
            (_, true) => vec![0.05],
        }
    }

    /// The workload's documents: seeds `seed..seed+n`.
    pub fn documents(self, seed: u64, smoke: bool) -> Vec<DocInput> {
        let factors = self.factors(smoke);
        let single = factors.len() == 1;
        factors
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let name = if single {
                    "doc".to_string()
                } else {
                    format!("d{i}")
                };
                xmark(&name, f, seed.wrapping_add(i as u64))
            })
            .collect()
    }

    /// The second variant of each corpus document, which `corpus-churn`'s
    /// writer swaps in and out.
    pub fn variants(self, seed: u64, smoke: bool) -> Vec<DocInput> {
        self.factors(smoke)
            .iter()
            .enumerate()
            .map(|(i, &f)| xmark(&format!("d{i}"), f, seed.wrapping_add(1000 + i as u64)))
            .collect()
    }

    /// The workload's request classes and seeded sequence; `expect` is
    /// left for the oracle to fill. `labels` is the first document's
    /// element alphabet.
    pub fn requests(self, seed: u64, smoke: bool, labels: &[String], n_docs: usize) -> Requests {
        let mut rng = SplitMix64::fork(seed, self.name());
        let all: Vec<usize> = (0..n_docs).collect();
        match self {
            Workload::DocHot => {
                let classes = xwq_xmark::queries()
                    .map(|(_, q)| class(q, Strategy::Auto, vec![0], Mode::Direct))
                    .collect();
                Requests::shuffled(classes, 1500, &mut rng)
            }
            Workload::Automaton => {
                let extra = [
                    "//*[ .//keyword ]",
                    "//*[ not(.//mail) ]/name",
                    "/site/*/*[ .//emph ]",
                ];
                let classes = (5..=15)
                    .map(xwq_xmark::query)
                    .chain(extra)
                    .map(|q| class(q, Strategy::Optimized, vec![0], Mode::Direct))
                    .collect();
                Requests::shuffled(classes, 1400, &mut rng)
            }
            Workload::DocAdhoc => {
                let distinct = if smoke { 2048 } else { 20480 };
                let shapes = adhoc_shapes(labels, distinct, &mut rng);
                let classes: Vec<Class> = shapes
                    .iter()
                    .map(|s| class(&s.text(), Strategy::Auto, vec![0], Mode::Direct))
                    .collect();
                // One pass in generation order: the list is far longer
                // than the 256-entry LRU, so wrapping around it never
                // turns a miss into a hit.
                let sequence = (0..classes.len() as u32).collect();
                Requests {
                    classes,
                    sequence,
                    shapes,
                }
            }
            Workload::CorpusServe => {
                // Counts on one document over selective paths and
                // whole-corpus node lists, 7 : 2. Cheap queries with small
                // answers, so the serving and fan-out layers own a large
                // share of each request.
                //
                // Two kinds of response are checked in warm-up and timed on
                // their own in the traced run, but kept out of the timed
                // mix: streamed NDJSON (`serve.stream_roundtrip_us`) and
                // bodies larger than the server's 8 KiB write buffer
                // (`serve.large_roundtrip_us`). The server writes both in
                // several pieces on a socket without TCP_NODELAY, so on a
                // keep-alive connection each waits ~40 ms for the client
                // kernel's delayed ACK. With either in the mix that timer,
                // not the program, set every metric of the workload, and
                // none held its bound (see README, "Findings").
                let selective = [
                    xwq_xmark::query(1),
                    xwq_xmark::query(2),
                    xwq_xmark::query(3),
                    xwq_xmark::query(4),
                    xwq_xmark::query(7),
                    "/site/people/person[ homepage ]/name",
                    "/site/open_auctions/open_auction/bidder/date",
                ];
                let small = ["/site/regions/*", "/site/*", "/site/regions/*[ item ]"];
                let large = "/site/regions/africa/item/name";
                let mut classes = Vec::new();
                for q in selective {
                    for d in 0..n_docs {
                        classes.push(class(q, Strategy::Auto, vec![d], Mode::HttpCount));
                    }
                }
                let count_classes = classes.len();
                for q in small {
                    classes.push(class(q, Strategy::Auto, all.clone(), Mode::HttpNodes));
                }
                let node_classes = classes.len() - count_classes;
                for q in small {
                    classes.push(class(q, Strategy::Auto, all.clone(), Mode::HttpStream));
                }
                classes.push(class(large, Strategy::Auto, all.clone(), Mode::HttpNodes));
                let sequence = (0..4000)
                    .map(|_| {
                        (if rng.below(9) < 7 {
                            rng.below(count_classes)
                        } else {
                            count_classes + rng.below(node_classes)
                        }) as u32
                    })
                    .collect();
                Requests {
                    classes,
                    sequence,
                    shapes: Vec::new(),
                }
            }
            Workload::CorpusChurn => {
                let classes = [2, 4, 6, 9]
                    .map(xwq_xmark::query)
                    .into_iter()
                    .map(|q| class(q, Strategy::Auto, all.clone(), Mode::Direct))
                    .collect();
                Requests::shuffled(classes, 400, &mut rng)
            }
        }
    }
}

/// `n` distinct queries of the four `doc-adhoc` shapes over `labels`.
fn adhoc_shapes(labels: &[String], n: usize, rng: &mut SplitMix64) -> Vec<Shape> {
    assert!(
        labels.len() >= 8,
        "alphabet too small for {n} distinct texts"
    );
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Drawn, not dealt in turn: the two-label shapes have only
        // |labels|^2 texts each and must not be asked for more.
        let pick = rng.below(4);
        let mut l = || labels[rng.below(labels.len())].clone();
        let shape = match pick {
            0 => Shape::Child { a: l(), b: l() },
            1 => Shape::HasChild { a: l(), b: l() },
            2 => Shape::SiteDescendant {
                a: l(),
                b: l(),
                c: l(),
                d: l(),
            },
            _ => Shape::DescendantWithout {
                a: l(),
                b: l(),
                c: l(),
            },
        };
        if seen.insert(shape.text()) {
            out.push(shape);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let fp = |seed: u64| {
                let docs = w.documents(seed, true);
                let labels = element_labels(&docs[0].xml);
                let reqs = w.requests(seed, true, &labels, docs.len());
                let nodes: Vec<usize> = docs.iter().map(|d| d.nodes).collect();
                (nodes, reqs.fingerprint())
            };
            assert_eq!(fp(42), fp(42), "{}", w.name());
            assert_ne!(fp(42), fp(43), "{}", w.name());
        }
    }

    #[test]
    fn adhoc_texts_are_distinct_and_parse() {
        let docs = Workload::DocAdhoc.documents(42, true);
        let labels = element_labels(&docs[0].xml);
        let reqs = Workload::DocAdhoc.requests(42, true, &labels, 1);
        let texts: HashSet<&str> = reqs.classes.iter().map(|c| c.query.as_str()).collect();
        assert_eq!(texts.len(), reqs.classes.len());
        assert_eq!(texts.len(), 2048);
        for c in &reqs.classes {
            assert!(xwq_xpath::parse_xpath(&c.query).is_ok(), "{}", c.query);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
