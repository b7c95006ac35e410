//! Oracle baselines: the exact solvers that decide every family
//! predicate. These are the "substrate" costs the experiment benches
//! compose, measured on random instances so regressions are visible.

use congest_graph::generators;
use congest_solvers::{hamilton, matching, maxcut, mds, mis, steiner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_set_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_set_solvers");
    group.sample_size(10);
    for n in [16usize, 24, 32] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::connected_gnp(n, 0.3, &mut rng);
        group.bench_with_input(BenchmarkId::new("mds_bnb", n), &n, |b, _| {
            b.iter(|| black_box(mds::min_dominating_set_size(&g)))
        });
        group.bench_with_input(BenchmarkId::new("mwis_bnb", n), &n, |b, _| {
            b.iter(|| black_box(mis::independence_number(&g)))
        });
        group.bench_with_input(BenchmarkId::new("matching_dp", n), &n, |b, _| {
            b.iter(|| black_box(matching::max_matching(&g).len()))
        });
    }
    group.finish();
}

fn bench_maxcut(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_maxcut");
    group.sample_size(10);
    for n in [16usize, 20, 22] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::gnp(n, 0.4, &mut rng);
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &n, |b, _| {
            b.iter(|| black_box(maxcut::max_cut(&g)))
        });
    }
    group.finish();
}

fn bench_hamiltonicity(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamiltonicity");
    group.sample_size(10);
    for n in [30usize, 60, 90] {
        // Structured instances: a Hamiltonian cycle plus chords — the
        // regime the gadget graphs live in.
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut g = generators::cycle(n);
        for _ in 0..n {
            use rand::Rng;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        }
        group.bench_with_input(BenchmarkId::new("ham_cycle_yes", n), &n, |b, _| {
            b.iter(|| black_box(hamilton::has_ham_cycle(&g)))
        });
    }
    group.finish();
}

fn bench_steiner(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_solvers");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(31);
    let mut g = generators::connected_gnp(14, 0.3, &mut rng);
    for v in 0..14 {
        use rand::Rng;
        g.set_node_weight(v, rng.gen_range(0..6));
    }
    let terms = vec![0usize, 5, 9, 13];
    group.bench_function("cardinality_subset_search", |b| {
        b.iter(|| black_box(steiner::min_steiner_tree_edges(&g, &terms)))
    });
    group.bench_function("node_weighted_dreyfus_wagner", |b| {
        b.iter(|| black_box(steiner::min_node_weight_steiner(&g, &terms)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_set_solvers,
    bench_maxcut,
    bench_hamiltonicity,
    bench_steiner
);
criterion_main!(benches);
