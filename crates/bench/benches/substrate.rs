//! Micro-benchmarks of the index substrate: rank/select, balanced
//! parentheses navigation, and the Def. 3.2 jumping primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use xwq_index::{TopologyKind, TreeIndex};
use xwq_succinct::{BitVec, Bp, RankSelect};
use xwq_xmark::GenOptions;
use xwq_xml::LabelSet;

fn pseudorandom_bits(n: usize) -> BitVec {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        })
        .collect()
}

fn bench_rank_select(c: &mut Criterion) {
    let n = 1 << 20;
    let rs = RankSelect::new(pseudorandom_bits(n));
    let ones = rs.count_ones();
    let mut group = c.benchmark_group("rank_select");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(800));
    group.bench_function("rank1", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 7 + 13) % n;
            rs.rank1(i)
        })
    });
    group.bench_function("select1", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k * 7 + 13) % ones;
            rs.select1(k)
        })
    });
    group.bench_function("select0", |b| {
        let zeros = rs.count_zeros();
        let mut k = 0usize;
        b.iter(|| {
            k = (k * 7 + 13) % zeros;
            rs.select0(k)
        })
    });
    // The sampled directory is most stressed on sparse vectors (many
    // superblocks between consecutive ones).
    let sparse = RankSelect::new((0..n).map(|i| i % 701 == 0).collect());
    let sparse_ones = sparse.count_ones();
    group.bench_function("select1_sparse", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k * 7 + 13) % sparse_ones;
            sparse.select1(k)
        })
    });
    group.finish();
}

fn bench_bp(c: &mut Criterion) {
    // Balanced random walk.
    let n = 1 << 18;
    let mut bits = BitVec::new();
    let mut depth = 0usize;
    let mut x = 777u64;
    let mut remaining = n;
    while remaining > 0 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let open = depth == 0 || (depth < remaining && x & 1 == 1);
        bits.push(open);
        depth = if open { depth + 1 } else { depth - 1 };
        remaining -= 1;
    }
    for _ in 0..depth {
        bits.push(false);
    }
    let bp = Bp::new(bits);
    let mut group = c.benchmark_group("bp");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(800));
    group.bench_function("find_close", |b| {
        let mut i = 0usize;
        b.iter(|| loop {
            i = (i * 31 + 7) % bp.len();
            if bp.is_open(i) {
                return bp.find_close(i);
            }
        })
    });
    group.bench_function("enclose", |b| {
        let mut i = 1usize;
        b.iter(|| loop {
            i = (i * 31 + 7) % bp.len();
            if i > 0 && bp.is_open(i) {
                return bp.enclose(i);
            }
        })
    });
    group.finish();
}

fn bench_jumps(c: &mut Criterion) {
    let doc = xwq_xmark::generate(GenOptions {
        factor: 0.3,
        seed: 42,
    });
    let mut group = c.benchmark_group("jumps");
    for kind in [TopologyKind::Array, TopologyKind::Succinct] {
        let ix = TreeIndex::build_with(&doc, kind);
        let kw = ix.alphabet().lookup("keyword").unwrap();
        let set = LabelSet::singleton(ix.alphabet().len(), kw);
        group.bench_with_input(
            BenchmarkId::new("jump_desc_xml", format!("{kind:?}")),
            &set,
            |b, set| {
                let mut v = 0u32;
                b.iter(|| {
                    v = (v * 17 + 3) % (ix.len() as u32 / 2);
                    ix.jump_desc_xml(v, set)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("first_child_walk", format!("{kind:?}")),
            &(),
            |b, _| {
                b.iter(|| {
                    // Walk a root-to-leaf path.
                    let mut v = ix.root();
                    let mut steps = 0u32;
                    loop {
                        let c = ix.first_child(v);
                        if c == xwq_index::NONE {
                            return steps;
                        }
                        v = c;
                        steps += 1;
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rank_select, bench_bp, bench_jumps);
criterion_main!(benches);
