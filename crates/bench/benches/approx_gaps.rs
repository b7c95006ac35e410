//! E10–E16: deciding the Section 4 gap families with exact oracles —
//! the MaxIS code gadget (Figure 4), the k-MDS covering gadget
//! (Figure 5), and the Steiner variants (Figure 6).

use congest_codes::CoveringCollection;
use congest_comm::BitString;
use congest_core::approx_maxis::{LinearMaxIsGapFamily, WeightedMaxIsGapFamily};
use congest_core::kmds::KmdsFamily;
use congest_core::steiner_variants::{DirectedSteinerFamily, NodeWeightedSteinerFamily};
use congest_core::{disjoint_pair, intersecting_pair, LowerBoundFamily};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn collection_large() -> CoveringCollection {
    let mut rng = StdRng::seed_from_u64(2024);
    CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
        .expect("2-covering collection")
}

fn collection_small() -> CoveringCollection {
    let mut rng = StdRng::seed_from_u64(77);
    CoveringCollection::random_verified(5, 6, 2, 0.5, 500_000, &mut rng)
        .expect("2-covering collection")
}

fn bench_maxis_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxis_code_gadget");
    group.sample_size(10);
    // (2, 5) is the report's largest E10–E12 instance, n = 176.
    for (k, ell) in [(2usize, 2usize), (2, 3), (2, 5), (4, 2)] {
        let fam = WeightedMaxIsGapFamily::new(k, ell);
        let (x, y) = intersecting_pair(k);
        let g = fam.build(&x, &y);
        group.bench_with_input(
            BenchmarkId::new("weighted_yes", format!("k{k}_l{ell}")),
            &k,
            |b, _| b.iter(|| black_box(fam.predicate(&g))),
        );
        let (x0, y0) = disjoint_pair(k);
        let g0 = fam.build(&x0, &y0);
        group.bench_with_input(
            BenchmarkId::new("weighted_no", format!("k{k}_l{ell}")),
            &k,
            |b, _| b.iter(|| black_box(fam.predicate(&g0))),
        );
    }
    // The 5/6 near-linear variant (Theorem 4.2).
    let fam = LinearMaxIsGapFamily::new(2, 3);
    let hit = BitString::from_indices(2, &[0]);
    let g = fam.build(&hit, &hit);
    group.bench_function("linear_5_6_yes", |b| {
        b.iter(|| black_box(fam.predicate(&g)))
    });
    group.finish();
}

fn bench_kmds_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmds_covering_gadget");
    group.sample_size(10);
    for k in [2usize, 3] {
        let fam = KmdsFamily::new(collection_large(), k);
        let t = fam.input_len();
        let hit = BitString::from_indices(t, &[0]);
        let g = fam.build(&hit, &hit);
        group.bench_with_input(BenchmarkId::new("yes", k), &k, |b, _| {
            b.iter(|| black_box(fam.predicate(&g)))
        });
        let x = BitString::from_indices(t, &[0, 2]);
        let y = BitString::from_indices(t, &[1, 3]);
        let g0 = fam.build(&x, &y);
        group.bench_with_input(BenchmarkId::new("no", k), &k, |b, _| {
            b.iter(|| black_box(fam.predicate(&g0)))
        });
    }
    group.finish();
}

fn bench_steiner_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_variant_gadgets");
    group.sample_size(10);
    let nw = NodeWeightedSteinerFamily::new(collection_small());
    let t = nw.input_len();
    let hit = BitString::from_indices(t, &[1]);
    let g = nw.build(&hit, &hit);
    group.bench_function("node_weighted_yes", |b| {
        b.iter(|| black_box(nw.predicate(&g)))
    });

    let dir = DirectedSteinerFamily::new(collection_small());
    let g = dir.build(&hit, &hit);
    group.bench_function("directed_yes", |b| b.iter(|| black_box(dir.predicate(&g))));
    group.finish();
}

criterion_group!(
    benches,
    bench_maxis_gap,
    bench_kmds_gap,
    bench_steiner_variants
);
criterion_main!(benches);
