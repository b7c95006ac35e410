//! E1–E6: building and deciding the Section 2 lower-bound families.
//!
//! For each family: the construction cost of `G_{x,y}` and the cost of
//! deciding the paper's predicate with the exact oracle, on intersecting
//! (YES) and disjoint (NO) inputs.

use congest_core::hamiltonian::HamPathFamily;
use congest_core::maxcut::MaxCutFamily;
use congest_core::mds::MdsFamily;
use congest_core::mvc_ckp::MvcMaxIsFamily;
use congest_core::steiner::SteinerFamily;
use congest_core::{disjoint_pair, intersecting_pair, LowerBoundFamily};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("family_build");
    for k in [2usize, 4, 8] {
        let (x, y) = intersecting_pair(k);
        group.bench_with_input(BenchmarkId::new("mds", k), &k, |b, &k| {
            let fam = MdsFamily::new(k);
            b.iter(|| black_box(fam.build(&x, &y)));
        });
        group.bench_with_input(BenchmarkId::new("mvc_maxis", k), &k, |b, &k| {
            let fam = MvcMaxIsFamily::new(k);
            b.iter(|| black_box(fam.build(&x, &y)));
        });
        group.bench_with_input(BenchmarkId::new("maxcut", k), &k, |b, &k| {
            let fam = MaxCutFamily::new(k);
            b.iter(|| black_box(fam.build(&x, &y)));
        });
        group.bench_with_input(BenchmarkId::new("hamiltonian", k), &k, |b, &k| {
            let fam = HamPathFamily::new(k);
            b.iter(|| black_box(fam.build(&x, &y)));
        });
        group.bench_with_input(BenchmarkId::new("steiner", k), &k, |b, &k| {
            let fam = SteinerFamily::new(k);
            b.iter(|| black_box(fam.build(&x, &y)));
        });
    }
    group.finish();
}

fn bench_predicates(c: &mut Criterion) {
    let mut group = c.benchmark_group("family_predicate");
    group.sample_size(10);

    // E1: MDS, k = 2 and 4.
    for k in [2usize, 4] {
        let fam = MdsFamily::new(k);
        for (tag, (x, y)) in [("yes", intersecting_pair(k)), ("no", disjoint_pair(k))] {
            let g = fam.build(&x, &y);
            group.bench_function(BenchmarkId::new(format!("mds_{tag}"), k), |b| {
                b.iter(|| black_box(fam.predicate(&g)))
            });
        }
    }

    // E2: directed Hamiltonian path, k = 2 (both directions of DISJ).
    let fam = HamPathFamily::new(2);
    for (tag, (x, y)) in [("yes", intersecting_pair(2)), ("no", disjoint_pair(2))] {
        let g = fam.build(&x, &y);
        group.bench_function(BenchmarkId::new(format!("hamiltonian_{tag}"), 2), |b| {
            b.iter(|| black_box(fam.predicate(&g)))
        });
    }

    // E5: Steiner, k = 2.
    let fam = SteinerFamily::new(2);
    for (tag, (x, y)) in [("yes", intersecting_pair(2)), ("no", disjoint_pair(2))] {
        let g = fam.build(&x, &y);
        group.bench_function(BenchmarkId::new(format!("steiner_{tag}"), 2), |b| {
            b.iter(|| black_box(fam.predicate(&g)))
        });
    }

    // E6: weighted max-cut, k = 2.
    let fam = MaxCutFamily::new(2);
    for (tag, (x, y)) in [("yes", intersecting_pair(2)), ("no", disjoint_pair(2))] {
        let g = fam.build(&x, &y);
        group.bench_function(BenchmarkId::new(format!("maxcut_{tag}"), 2), |b| {
            b.iter(|| black_box(fam.predicate(&g)))
        });
    }

    // E1b (via [10]): MaxIS/MVC, k = 4.
    let fam = MvcMaxIsFamily::new(4);
    for (tag, (x, y)) in [("yes", intersecting_pair(4)), ("no", disjoint_pair(4))] {
        let g = fam.build(&x, &y);
        group.bench_function(BenchmarkId::new(format!("mvc_maxis_{tag}"), 4), |b| {
            b.iter(|| black_box(fam.predicate(&g)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_predicates);
criterion_main!(benches);
