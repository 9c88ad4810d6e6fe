//! E6: randomized differential equivalence — the §III-C sketch of proof as
//! a property.
//!
//! For arbitrary expression DAGs and loop programs, converting with
//! Algorithm 1 and executing under multiple nondeterministic Gamma
//! schedules must observe exactly the dataflow engine's outputs (values,
//! labels, *and* tags). Any divergence is a conversion or engine bug.

use gammaflow::core::{check_equivalence, dataflow_to_gamma, CheckConfig};
use gammaflow::dataflow::engine::SeqEngine;
use gammaflow::dataflow::engine_par::{run_parallel as df_parallel, ParEngineConfig};
use gammaflow::gamma::{Engine, EngineConfig, ParEngine, Scheduling, Selection, Session};
use gammaflow::multiset::FxHashSet;
use gammaflow::workloads::{accumulator_loop, parallel_loops, random_dag, wide_pairs, DagParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DAGs: dataflow result == converted-Gamma result under three
    /// schedules.
    #[test]
    fn prop_random_dags_are_equivalent(
        seed in 0u64..10_000,
        roots in 2usize..6,
        layers in 1usize..4,
        width in 1usize..6,
    ) {
        let dag = random_dag(seed, &DagParams { roots, layers, width, range: 1000 });
        let report = check_equivalence(&dag.graph, &CheckConfig::default())
            .expect("conversion and execution succeed");
        prop_assert!(report.equivalent, "{:?}", report.mismatch);
        // And both match the structural reference.
        prop_assert_eq!(report.dataflow_outputs, dag.expected);
    }

    /// Random loop parameters: the Fig. 2 family stays equivalent,
    /// including exit tags.
    #[test]
    fn prop_loops_are_equivalent(
        y in -20i64..20,
        z in 0i64..12,
        x in -100i64..100,
    ) {
        let w = accumulator_loop(y, z, x);
        let report = check_equivalence(&w.graph, &CheckConfig::default()).unwrap();
        prop_assert!(report.equivalent, "{:?}", report.mismatch);
        prop_assert_eq!(report.dataflow_outputs, w.expected);
    }

    /// The parallel dataflow engine agrees with the sequential one.
    #[test]
    fn prop_df_engines_agree(seed in 0u64..10_000, pes in 1usize..5) {
        let dag = random_dag(seed, &DagParams::default());
        let seq = SeqEngine::new(&dag.graph).run().unwrap();
        let par = df_parallel(&dag.graph, &ParEngineConfig::with_pes(pes)).unwrap();
        prop_assert_eq!(&par.run.outputs, &seq.outputs);
        prop_assert_eq!(par.run.stats.fired_total(), seq.stats.fired_total());
    }

    /// The parallel Gamma interpreter agrees with the sequential one on
    /// converted programs.
    #[test]
    fn prop_gamma_engines_agree(seed in 0u64..10_000, workers in 1usize..5) {
        let dag = random_dag(seed, &DagParams { roots: 3, layers: 2, width: 3, range: 100 });
        let conv = dataflow_to_gamma(&dag.graph).unwrap();
        let seq = Session::build(&conv.program).selection(Selection::Seeded(seed)).run(conv.initial.clone())
            .unwrap();
        let par = Session::build(&conv.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(workers)
            .run(conv.initial.clone())
            .unwrap();
        let labels: FxHashSet<_> = conv.output_labels.iter().copied().collect();
        prop_assert_eq!(
            seq.multiset.project(|l| labels.contains(&l)),
            par.multiset.project(|l| labels.contains(&l))
        );
    }
}

#[test]
fn wide_graphs_check_equivalent_with_parallel_gamma() {
    let dag = wide_pairs(3, 24);
    let config = CheckConfig {
        seeds: vec![0, 1],
        parallel_workers: 4,
        ..CheckConfig::default()
    };
    let report = check_equivalence(&dag.graph, &config).unwrap();
    assert!(report.equivalent, "{:?}", report.mismatch);
    assert_eq!(report.dataflow_outputs, dag.expected);
}

#[test]
fn multi_loop_graphs_check_equivalent() {
    let w = parallel_loops(3, 2, 5, 10);
    let report = check_equivalence(&w.graph, &CheckConfig::default()).unwrap();
    assert!(report.equivalent, "{:?}", report.mismatch);
    assert_eq!(report.dataflow_outputs, w.expected);
}

#[test]
fn frontend_programs_check_equivalent() {
    let sources = [
        "int a = 7; int b = 9; int c; c = a * b - a; output c;",
        "int s = 0; int n = 6; for (i = 0; i < n; i++) { s = s + i; } output s;",
        "int x = 1; for (i = 4; i > 0; i--) { x = x * 2; } int y; y = x + 100; output y;",
    ];
    for src in sources {
        let g = gammaflow::frontend::compile(src).unwrap();
        let report = check_equivalence(&g, &CheckConfig::default()).unwrap();
        assert!(report.equivalent, "{src}: {:?}", report.mismatch);
    }
}

/// Loop images under the tag-keyed plan: the sharded engine's slices
/// keep no beta tokens at any worker count and land on the sequential
/// engine's byte-identical final, and deterministic Rete replays the
/// rescanning trace.
#[test]
fn loop_images_keyed_in_sequential_and_sliced_networks() {
    let graphs = [
        accumulator_loop(2, 3, 10).graph,
        accumulator_loop(-7, 5, 100).graph,
        accumulator_loop(4, 0, 1).graph,
        parallel_loops(3, 2, 5, 10).graph,
    ];
    for graph in &graphs {
        let conv = dataflow_to_gamma(graph).unwrap();
        let seq = |scheduling| {
            Session::build(&conv.program)
                .scheduling(scheduling)
                .selection(Selection::Deterministic)
                .record_trace(true)
                .run(conv.initial.clone())
                .unwrap()
        };
        let (rescan, rete) = (seq(Scheduling::Rescan), seq(Scheduling::Rete));
        assert_eq!(rescan.trace, rete.trace);
        assert_eq!(rete.rete.expect("rete stats").tokens_created, 0);
        for workers in [1usize, 2, 8] {
            let mut session = Session::build(&conv.program)
                .config(EngineConfig {
                    engine: Engine::Parallel(ParEngine::ShardedRete),
                    workers,
                    seed: 7,
                    ..EngineConfig::default()
                })
                .start(conv.initial.clone())
                .unwrap();
            session.run_to_stable().unwrap();
            let par = session.finish_parallel();
            assert_eq!(par.exec.multiset, rescan.multiset, "x{workers}");
            assert!(
                par.par.shard_peak_tokens.iter().all(|&t| t == 0),
                "x{workers}: slices built tokens: {:?}",
                par.par.shard_peak_tokens
            );
        }
    }
}
