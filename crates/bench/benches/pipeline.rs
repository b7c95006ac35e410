//! E22: the Theorem 1.1 pipeline — simulating the generic exact CONGEST
//! algorithm under Alice/Bob partitioning and metering the cut traffic.

use congest_core::intersecting_pair;
use congest_core::maxcut::MaxCutFamily;
use congest_core::mds::MdsFamily;
use congest_core::mvc_ckp::MvcMaxIsFamily;
use congest_core::simulate::generic_exact_attack;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem_1_1_pipeline");
    group.sample_size(10);
    for k in [2usize, 4, 8] {
        let (x, y) = intersecting_pair(k);
        group.bench_with_input(BenchmarkId::new("mds", k), &k, |b, &k| {
            let fam = MdsFamily::new(k);
            b.iter(|| black_box(generic_exact_attack(&fam, &x, &y)));
        });
        group.bench_with_input(BenchmarkId::new("mvc_maxis", k), &k, |b, &k| {
            let fam = MvcMaxIsFamily::new(k);
            b.iter(|| black_box(generic_exact_attack(&fam, &x, &y)));
        });
        if k <= 4 {
            group.bench_with_input(BenchmarkId::new("maxcut", k), &k, |b, &k| {
                let fam = MaxCutFamily::new(k);
                b.iter(|| black_box(generic_exact_attack(&fam, &x, &y)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_attack);
criterion_main!(benches);
