//! The answer oracle: expected `(count, FNV-1a of node ids)` per request,
//! computed in set-up with `xwq-baseline` (the independent step-wise
//! evaluator), and the comparison every timed response goes through.

use xwq_index::{NodeId, TreeIndex, NONE};
use xwq_xml::Document;

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a response must match: how many nodes, and which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    pub fnv: u64,
}

impl Answer {
    pub fn of(nodes: &[NodeId]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &v in nodes {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Self {
            count: nodes.len() as u64,
            fnv: h,
        }
    }

    /// A count-only response (`"count": true`) can only be held to the
    /// count.
    pub fn matches_count(&self, count: u64) -> bool {
        self.count == count
    }
}

/// The baseline's answer to `query` on `ix`.
///
/// # Panics
/// If the query does not parse: the benchmark generates only queries that
/// do, so that is a bug in the generator.
pub fn baseline(ix: &TreeIndex, query: &str) -> Answer {
    let nodes = xwq_baseline::evaluate_query(ix, query)
        .unwrap_or_else(|e| panic!("generated query {query:?} does not parse: {e}"));
    Answer::of(&nodes)
}

/// The four `doc-adhoc` query shapes, by element name. `doc-adhoc` sends
/// tens of thousands of distinct texts, too many for the step-wise
/// baseline in set-up, so every one of them is answered here by a direct
/// scan written for these shapes alone; the baseline then checks a seeded
/// sample of these answers (see `workload::fill_expectations`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `//a/b`
    Child { a: String, b: String },
    /// `//a[ b ]`
    HasChild { a: String, b: String },
    /// `/site//a[ b or c ]/d`
    SiteDescendant {
        a: String,
        b: String,
        c: String,
        d: String,
    },
    /// `//a//b[ not(c) ]`
    DescendantWithout { a: String, b: String, c: String },
}

impl Shape {
    pub fn text(&self) -> String {
        match self {
            Shape::Child { a, b } => format!("//{a}/{b}"),
            Shape::HasChild { a, b } => format!("//{a}[ {b} ]"),
            Shape::SiteDescendant { a, b, c, d } => format!("/site//{a}[ {b} or {c} ]/{d}"),
            Shape::DescendantWithout { a, b, c } => format!("//{a}//{b}[ not({c}) ]"),
        }
    }

    /// The answer by one scan over the document's nodes (preorder ids are
    /// document order, so the scan yields the result in order).
    pub fn answer(&self, doc: &Document) -> Answer {
        let alphabet = doc.alphabet();
        // A name the document does not have matches no node.
        let id = |name: &str| alphabet.lookup(name).unwrap_or(u32::MAX);
        let is = |v: NodeId, label: u32| v != NONE && doc.label(v) == label;
        let has_child = |v: NodeId, label: u32| doc.children(v).any(|c| doc.label(c) == label);
        let has_ancestor = |v: NodeId, label: u32| {
            let mut up = doc.parent(v);
            while up != NONE {
                if doc.label(up) == label {
                    return true;
                }
                up = doc.parent(up);
            }
            false
        };
        let nodes: Vec<NodeId> = match self {
            Shape::Child { a, b } => {
                let (a, b) = (id(a), id(b));
                doc.nodes()
                    .filter(|&v| is(v, b) && is(doc.parent(v), a))
                    .collect()
            }
            Shape::HasChild { a, b } => {
                let (a, b) = (id(a), id(b));
                doc.nodes()
                    .filter(|&v| is(v, a) && has_child(v, b))
                    .collect()
            }
            Shape::SiteDescendant { a, b, c, d } => {
                let (a, b, c, d) = (id(a), id(b), id(c), id(d));
                let site = id("site");
                doc.nodes()
                    .filter(|&v| {
                        let p = doc.parent(v);
                        // `a` must lie strictly below the root, which must
                        // be `site`.
                        is(v, d)
                            && is(p, a)
                            && p != doc.root()
                            && is(doc.root(), site)
                            && (has_child(p, b) || has_child(p, c))
                    })
                    .collect()
            }
            Shape::DescendantWithout { a, b, c } => {
                let (a, b, c) = (id(a), id(b), id(c));
                doc.nodes()
                    .filter(|&v| is(v, b) && !has_child(v, c) && has_ancestor(v, a))
                    .collect()
            }
        };
        Answer::of(&nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_agree_with_the_baseline() {
        let xml =
            "<site><a><b/><c/><d/></a><x><a><b><a><d/><b/></a></b><d/></a></x><b><c/></b></site>";
        let doc = xwq_xml::parse(xml).expect("parses");
        let ix = TreeIndex::build(&doc);
        let n = |s: &str| s.to_string();
        for shape in [
            Shape::Child {
                a: n("a"),
                b: n("b"),
            },
            Shape::Child {
                a: n("site"),
                b: n("a"),
            },
            Shape::Child {
                a: n("a"),
                b: n("zzz"),
            },
            Shape::HasChild {
                a: n("a"),
                b: n("d"),
            },
            Shape::HasChild {
                a: n("site"),
                b: n("b"),
            },
            Shape::SiteDescendant {
                a: n("a"),
                b: n("c"),
                c: n("b"),
                d: n("d"),
            },
            Shape::SiteDescendant {
                a: n("site"),
                b: n("a"),
                c: n("b"),
                d: n("x"),
            },
            Shape::DescendantWithout {
                a: n("a"),
                b: n("b"),
                c: n("a"),
            },
            Shape::DescendantWithout {
                a: n("site"),
                b: n("b"),
                c: n("c"),
            },
            Shape::DescendantWithout {
                a: n("b"),
                b: n("b"),
                c: n("c"),
            },
        ] {
            assert_eq!(
                shape.answer(&doc),
                baseline(&ix, &shape.text()),
                "{}",
                shape.text()
            );
        }
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn answers_distinguish_order_and_content() {
        assert_eq!(Answer::of(&[1, 2, 3]), Answer::of(&[1, 2, 3]));
        assert_ne!(Answer::of(&[1, 2, 3]), Answer::of(&[1, 3, 2]));
        assert_ne!(Answer::of(&[1, 2, 3]), Answer::of(&[1, 2, 4]));
        assert_eq!(Answer::of(&[]).count, 0);
    }
}
