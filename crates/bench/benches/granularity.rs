//! Experiment P1: the §III-A3 granularity trade-off, measured.
//!
//! The paper predicts that fusing reactions "decreases the opportunity to
//! explore the parallelism" while reducing matching work. We run the
//! Example-1 family (w independent `(a+b)-(c*d)` groups) at several widths,
//! fused and unfused, on the sequential and parallel engines.
//! Expected shape: fused wins sequentially (3× fewer matches); unfused
//! exposes 2w-way parallelism (vs w-way fused) in maximal-step terms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gammaflow_bench::fixtures::{example1_family, example1_family_protected, par_config};
use gammaflow_core::{dataflow_to_gamma, fuse_all};
use gammaflow_gamma::{Selection, Session};

fn bench_granularity(c: &mut Criterion) {
    for groups in [4usize, 16, 64] {
        let mut group = c.benchmark_group(format!("granularity_w{groups}"));
        group.sample_size(20);
        let g = example1_family(groups);
        let conv = dataflow_to_gamma(&g).unwrap();
        let (fused, report) = fuse_all(&conv.program, &example1_family_protected(groups));
        assert_eq!(report.after, groups, "each group fuses to one reaction");

        group.bench_function("unfused_seq", |b| {
            b.iter(|| {
                Session::build(&conv.program)
                    .selection(Selection::Seeded(1))
                    .run(conv.initial.clone())
                    .unwrap()
            })
        });
        group.bench_function("fused_seq", |b| {
            b.iter(|| {
                Session::build(&fused)
                    .selection(Selection::Seeded(1))
                    .run(conv.initial.clone())
                    .unwrap()
            })
        });
        for (name, prog) in [("unfused", &conv.program), ("fused", &fused)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_par"), 4),
                prog,
                |b, prog| {
                    b.iter(|| {
                        Session::build(prog)
                            .config(par_config(4))
                            .run(conv.initial.clone())
                            .unwrap()
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_granularity);
criterion_main!(benches);
