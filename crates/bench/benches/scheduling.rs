//! Rescan vs delta scheduling on the primes-sieve and loop-heavy
//! workloads (`crates/workloads`): the criterion view of the comparison
//! recorded by `harness -- S1` in `BENCH_scheduling.json`.
//!
//! The loop family is the scheduling showcase — hundreds of reactions,
//! a handful enabled at any instant, so rescanning pays for the whole
//! program after every firing while the delta worklist re-searches only
//! the fired reaction's successors. The single-reaction sieve bounds the
//! scheduler's overhead from below (there is nothing to skip).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gammaflow_core::dataflow_to_gamma;
use gammaflow_gamma::{GammaProgram, Scheduling, Selection, Session, Status};
use gammaflow_multiset::ElementBag;
use gammaflow_workloads::{parallel_loops, primes};

fn run(
    program: &GammaProgram,
    initial: &ElementBag,
    selection: Selection,
    scheduling: Scheduling,
) -> ElementBag {
    let result = Session::build(program)
        .selection(selection)
        .scheduling(scheduling)
        .run(initial.clone())
        .expect("run succeeds");
    assert_eq!(result.status, Status::Stable);
    result.multiset
}

fn bench_modes(
    c: &mut Criterion,
    group_name: &str,
    program: &GammaProgram,
    initial: &ElementBag,
    selection: Selection,
) {
    // Sanity outside the timing loop: both engines reach the same stable
    // multiset on every benchmarked workload.
    let rescan_final = run(program, initial, selection, Scheduling::Rescan);
    let delta_final = run(program, initial, selection, Scheduling::Delta);
    assert_eq!(
        rescan_final, delta_final,
        "{group_name}: engines must agree byte-for-byte"
    );

    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for (mode, scheduling) in [("rescan", Scheduling::Rescan), ("delta", Scheduling::Delta)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode),
            &scheduling,
            |b, &scheduling| b.iter(|| run(program, initial, selection, scheduling)),
        );
    }
    group.finish();
}

fn bench_loop_heavy(c: &mut Criterion) {
    let w = parallel_loops(6, 3, 60, 5);
    let conv = dataflow_to_gamma(&w.graph).expect("loop graph converts");
    bench_modes(
        c,
        "sched_loops_6x60",
        &conv.program,
        &conv.initial,
        Selection::Deterministic,
    );
}

fn bench_primes_sieve(c: &mut Criterion) {
    let w = primes(600);
    bench_modes(
        c,
        "sched_primes_600",
        &w.program,
        &w.initial,
        Selection::Seeded(1),
    );
}

criterion_group!(benches, bench_loop_heavy, bench_primes_sieve);
criterion_main!(benches);
