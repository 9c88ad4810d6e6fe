//! Cross-engine integration: classic Gamma workloads and the application
//! scenarios on every interpreter, plus language/pipeline plumbing.

use gammaflow::gamma::{run_pipeline, Engine, EngineConfig, ParEngine, Selection, Session, Status};
use gammaflow::lang::{parse_program, pretty_program};
use gammaflow::workloads::{
    exchange_sort, fusion_scenario, gcd, image_scenario, maximum, minimum, primes, sum,
};

#[test]
fn classic_workloads_on_both_gamma_engines() {
    let workloads = vec![
        minimum(&[9, 2, 7, 2, 5]),
        maximum(&(1..=40).collect::<Vec<_>>()),
        sum(&(1..=25).collect::<Vec<_>>()),
        primes(40),
        gcd(&[24, 36, 60]),
        exchange_sort(&[5, 3, 8, 1, 9, 2, 7], 4),
    ];
    for w in &workloads {
        // Three sequential schedules.
        for seed in [0, 1, 2] {
            let r = Session::build(&w.program)
                .selection(Selection::Seeded(seed))
                .run(w.initial.clone())
                .unwrap();
            assert_eq!(r.status, Status::Stable, "{} seed {seed}", w.name);
            assert_eq!(r.multiset, w.expected, "{} seed {seed}", w.name);
        }
        // Parallel engine.
        let r = Session::build(&w.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(4)
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(r.status, Status::Stable, "{} parallel", w.name);
        assert_eq!(r.multiset, w.expected, "{} parallel", w.name);
    }
}

#[test]
fn deterministic_selection_agrees_on_confluent_programs() {
    let w = sum(&(1..=20).collect::<Vec<_>>());
    let det = Session::build(&w.program)
        .selection(Selection::Deterministic)
        .run(w.initial.clone())
        .unwrap();
    assert_eq!(det.multiset, w.expected);
}

#[test]
fn fusion_scenario_runs_on_pipeline() {
    let s = fusion_scenario(11, 8, 16);
    let result = run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
    assert_eq!(result.status, Status::Stable);
    assert_eq!(result.multiset, s.expected);
}

#[test]
fn image_scenario_runs_on_pipeline() {
    let s = image_scenario(2, 128);
    let result = run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
    assert_eq!(result.status, Status::Stable);
    assert_eq!(result.multiset, s.expected);
}

#[test]
fn workload_programs_survive_pretty_parse_round_trip() {
    // Every workload program can be printed as paper-style Gamma code and
    // parsed back unchanged — the textual pipeline is lossless.
    for prog in [
        minimum(&[1, 2]).program,
        primes(10).program,
        gcd(&[4, 6]).program,
        exchange_sort(&[2, 1], 0).program,
    ] {
        let printed = pretty_program(&prog);
        let reparsed =
            parse_program(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(reparsed, prog, "\n{printed}");
    }
}

#[test]
fn parallel_engine_scales_down_to_one_worker() {
    let w = primes(30);
    let r1 = Session::build(&w.program)
        .engine(Engine::Parallel(ParEngine::ShardedRete))
        .workers(1)
        .run(w.initial.clone())
        .unwrap();
    assert_eq!(r1.multiset, w.expected);
}

#[test]
fn budget_exhaustion_reported_from_sequential_runs() {
    // The sum workload needs n-1 firings; a budget below that must report
    // BudgetExhausted, not hang or lie.
    let w = sum(&(1..=50).collect::<Vec<_>>());
    let r = Session::build(&w.program)
        .budget(10)
        .selection(Selection::Seeded(0))
        .run(w.initial.clone())
        .unwrap();
    assert_eq!(r.status, Status::BudgetExhausted);
    assert_eq!(r.stats.firings_total(), 10);
}

#[test]
fn trace_lengths_match_firing_counts() {
    let w = gcd(&[12, 8]);
    let r = Session::build(&w.program)
        .record_trace(true)
        .run(w.initial.clone())
        .unwrap();
    let trace = r.trace.unwrap();
    assert_eq!(trace.len() as u64, r.stats.firings_total());
    // Every consumed element of step k+1 exists either initially or was
    // produced by some earlier step — spot-check the chain is causally
    // plausible by verifying consumed ⊆ initial ∪ produced-so-far.
    let mut available = w.initial.clone();
    for record in &trace {
        for e in &record.consumed {
            assert!(
                available.remove(e),
                "step {} consumed missing {e}",
                record.step
            );
        }
        for e in &record.produced {
            available.insert(e.clone());
        }
    }
    assert_eq!(available, r.multiset);
}
