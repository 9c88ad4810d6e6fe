//! Experiment P3: Gamma interpreter scaling on classic workloads.
//!
//! Sequential vs parallel (1/2/4 workers) on the prime sieve and pairwise
//! sum. Expectation per the cited parallel Gamma implementations: the
//! associative sum scales with workers; the sieve's single shared bucket
//! limits speedup (matching is the bottleneck, not firing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gammaflow_bench::fixtures::par_config;
use gammaflow_gamma::{Selection, Session};
use gammaflow_workloads::{primes, sum};

fn bench_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma_sum_512");
    group.sample_size(20);
    let w = sum(&(1..=512).collect::<Vec<_>>());
    group.bench_function("seq", |b| {
        b.iter(|| {
            Session::build(&w.program)
                .selection(Selection::Seeded(1))
                .run(w.initial.clone())
                .unwrap()
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("par", workers), &workers, |b, &workers| {
            b.iter(|| {
                Session::build(&w.program)
                    .config(par_config(workers))
                    .run(w.initial.clone())
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_primes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma_primes_128");
    group.sample_size(10);
    let w = primes(128);
    group.bench_function("seq", |b| {
        b.iter(|| {
            Session::build(&w.program)
                .selection(Selection::Seeded(1))
                .run(w.initial.clone())
                .unwrap()
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("par", workers), &workers, |b, &workers| {
            b.iter(|| {
                Session::build(&w.program)
                    .config(par_config(workers))
                    .run(w.initial.clone())
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_selection_modes(c: &mut Criterion) {
    // Deterministic vs seeded selection overhead on the same workload.
    let mut group = c.benchmark_group("gamma_selection_mode_sum_256");
    group.sample_size(20);
    let w = sum(&(1..=256).collect::<Vec<_>>());
    for (name, selection) in [
        ("deterministic", Selection::Deterministic),
        ("seeded", Selection::Seeded(1)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                Session::build(&w.program)
                    .selection(selection)
                    .run(w.initial.clone())
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sum, bench_primes, bench_selection_modes);
criterion_main!(benches);
