//! Ablation benches for the design choices called out in DESIGN.md:
//! each pits a production solver against a naive reference
//! implementation, so the benefit of the pruning/incrementality is
//! measurable rather than assumed.
//!
//! * MDS: branch-and-bound with neighborhood-packing lower bound
//!   vs. subset enumeration;
//! * max-cut: the branch and bound vs. the gray-code walk (its reference
//!   and the simplest exhaustive alternative) vs. full recomputation per
//!   assignment;
//! * MWIS: clique-cover-bounded search vs. 2^n scan;
//! * Hamiltonicity: pruned backtracking vs. Held–Karp DP.

use congest_graph::{generators, DiGraph, Graph, Weight};
use congest_solvers::{hamilton, maxcut, mds, mis};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Naive MDS: scan all 2^n subsets.
fn naive_mds(g: &Graph) -> usize {
    let n = g.num_nodes();
    let mut best = n;
    for mask in 0u64..(1u64 << n) {
        let set: Vec<usize> = (0..n).filter(|&v| (mask >> v) & 1 == 1).collect();
        if set.len() < best && g.is_dominating_set(&set) {
            best = set.len();
        }
    }
    best
}

/// Naive max-cut: recompute the full cut weight per assignment.
fn naive_maxcut(g: &Graph) -> Weight {
    let n = g.num_nodes();
    let mut best = 0;
    for mask in 0u64..(1u64 << n) {
        let side: Vec<bool> = (0..n).map(|v| (mask >> v) & 1 == 1).collect();
        best = best.max(g.cut_weight(&side));
    }
    best
}

fn bench_mds_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mds");
    group.sample_size(10);
    for n in [12usize, 16] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::gnp(n, 0.25, &mut rng);
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &n, |b, _| {
            b.iter(|| black_box(mds::min_dominating_set_size(&g)))
        });
        group.bench_with_input(BenchmarkId::new("naive_subsets", n), &n, |b, _| {
            b.iter(|| black_box(naive_mds(&g)))
        });
        // Sanity: both agree.
        assert_eq!(mds::min_dominating_set_size(&g), naive_mds(&g));
    }
    group.finish();
}

fn bench_maxcut_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_maxcut");
    group.sample_size(10);
    for n in [14usize, 18, 22] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::gnp(n, 0.4, &mut rng);
        // The search returns the walk's cut, ties included.
        let (walk, _) = maxcut::gray_code_max_cut_with_stats(&g);
        assert_eq!(maxcut::max_cut(&g), walk);
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &n, |b, _| {
            b.iter(|| black_box(maxcut::max_cut(&g).weight))
        });
        group.bench_with_input(BenchmarkId::new("graycode_walk", n), &n, |b, _| {
            b.iter(|| black_box(maxcut::gray_code_max_cut_with_stats(&g).0.weight))
        });
        if n <= 18 {
            group.bench_with_input(BenchmarkId::new("naive_recompute", n), &n, |b, _| {
                b.iter(|| black_box(naive_maxcut(&g)))
            });
            assert_eq!(walk.weight, naive_maxcut(&g));
        }
    }
    group.finish();
}

fn bench_mwis_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mwis");
    group.sample_size(10);
    for n in [18usize, 22] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::gnp(n, 0.3, &mut rng);
        group.bench_with_input(BenchmarkId::new("clique_cover_bound", n), &n, |b, _| {
            b.iter(|| black_box(mis::independence_number(&g)))
        });
        group.bench_with_input(BenchmarkId::new("naive_scan", n), &n, |b, _| {
            b.iter(|| black_box(mis::max_weight_independent_set_brute(&g)))
        });
    }
    group.finish();
}

fn bench_hamiltonicity_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hamiltonicity");
    group.sample_size(10);
    // Random digraphs at the Held–Karp limit.
    for n in [14usize, 18] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut g = DiGraph::new(n);
        for u in 0..n {
            for v in 0..n {
                use rand::Rng;
                if u != v && rng.gen_bool(0.3) {
                    g.add_edge(u, v);
                }
            }
        }
        group.bench_with_input(BenchmarkId::new("pruned_backtracking", n), &n, |b, _| {
            b.iter(|| black_box(hamilton::has_directed_ham_path(&g)))
        });
        group.bench_with_input(BenchmarkId::new("held_karp_dp", n), &n, |b, _| {
            b.iter(|| black_box(hamilton::held_karp_directed_ham_path(&g)))
        });
        assert_eq!(
            hamilton::has_directed_ham_path(&g),
            hamilton::held_karp_directed_ham_path(&g)
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mds_ablation,
    bench_maxcut_ablation,
    bench_mwis_ablation,
    bench_hamiltonicity_ablation
);
criterion_main!(benches);
