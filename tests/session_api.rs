//! The unified `Session` API: build-once engines, incremental input
//! waves over persistent matcher state.
//!
//! The load-bearing property is **resume equivalence**: because a Gamma
//! reaction's enabledness depends only on its consumed tuple, a session
//! that reaches steady state, injects a wave, and resumes executes a
//! legal firing order of the one-shot run on the merged bag — so on
//! confluent programs the finals must be **byte-identical**, for every
//! scheduling, selection policy, engine, and wave split. Deterministic
//! single-wave sessions must additionally replay the one-shot run's exact
//! firing trace (they are the same loop), and a deterministic session's
//! per-wave traces must equal what a freshly rebuilt session would
//! fire on the same evolving bag — resume is a pure matcher-state
//! optimisation, never a semantics change.

use gammaflow::core::dataflow_to_gamma;
use gammaflow::gamma::{
    run_pipeline, Engine, EngineConfig, GammaProgram, ParEngine, Scheduling, Selection, Session,
    Status,
};
use gammaflow::multiset::{Element, ElementBag};
use gammaflow::workloads::{
    cross_sum, divisor_sieve, interval_merge, random_dag, triangles, windowed_sum, DagParams,
};

/// Deterministic round-robin split of a bag into `k` injection waves.
fn split_waves(bag: &ElementBag, k: usize) -> Vec<Vec<Element>> {
    let mut waves: Vec<Vec<Element>> = vec![Vec::new(); k];
    for (i, e) in bag.sorted_elements().into_iter().enumerate() {
        waves[i % k].push(e);
    }
    waves
}

/// The confluent workload matrix shared by the resume-equivalence tests:
/// random converted-dataflow programs plus the guard-heavy join family.
fn confluent_workloads() -> Vec<(String, GammaProgram, ElementBag)> {
    let mut workloads: Vec<(String, GammaProgram, ElementBag)> = Vec::new();
    for seed in [3u64, 11] {
        let dag = random_dag(
            seed,
            &DagParams {
                roots: 3,
                layers: 3,
                width: 4,
                range: 1000,
            },
        );
        let conv = dataflow_to_gamma(&dag.graph).expect("conversion succeeds");
        workloads.push((format!("random_dag_{seed}"), conv.program, conv.initial));
    }
    for w in [
        cross_sum(48),
        divisor_sieve(80),
        triangles(4, 6),
        interval_merge(&[(1, 3), (2, 6), (8, 10), (10, 12), (20, 25)]),
    ] {
        workloads.push((w.name.to_string(), w.program, w.initial));
    }
    workloads
}

/// Sequential engines: a session fed the same elements in `k` waves must
/// land on the byte-identical final the one-shot run computes on
/// the merged bag — for every scheduling and both selection policies.
#[test]
fn seq_session_waves_match_one_shot_finals() {
    for (name, program, initial) in &confluent_workloads() {
        for scheduling in [Scheduling::Rescan, Scheduling::Rete] {
            for selection in [Selection::Deterministic, Selection::Seeded(5)] {
                let one_shot = Session::build(program)
                    .config(EngineConfig {
                        selection,
                        scheduling,
                        ..EngineConfig::default()
                    })
                    .run(initial.clone())
                    .expect("one-shot runs");
                assert_eq!(one_shot.status, Status::Stable, "{name}");
                for k in [1usize, 3] {
                    let mut session = Session::build(program)
                        .scheduling(scheduling)
                        .selection(selection)
                        .start(ElementBag::new())
                        .expect("program compiles");
                    for wave in split_waves(initial, k) {
                        assert!(session.inject(wave).is_accepted());
                        let wv = session.run_to_stable().expect("wave runs");
                        assert_eq!(wv.status, Status::Stable, "{name}");
                    }
                    let result = session.finish();
                    assert_eq!(
                        result.multiset, one_shot.multiset,
                        "{name} {scheduling:?} {selection:?} k={k}: \
                         session waves diverged from the merged one-shot run"
                    );
                }
            }
        }
    }
}

/// Sharded engines: `k`-wave parallel sessions across worker counts land
/// on the sequential reference final.
#[test]
fn parallel_session_waves_match_one_shot_finals() {
    for (name, program, initial) in &confluent_workloads() {
        let reference = Session::build(program)
            .selection(Selection::Deterministic)
            .run(initial.clone())
            .expect("reference runs");
        assert_eq!(reference.status, Status::Stable, "{name}");
        for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
            for workers in [1usize, 2, 8] {
                let mut session = Session::build(program)
                    .engine(Engine::Parallel(engine))
                    .workers(workers)
                    .start(ElementBag::new())
                    .expect("program compiles");
                for wave in split_waves(initial, 3) {
                    assert!(session.inject(wave).is_accepted());
                    let wv = session.run_to_stable().expect("wave runs");
                    assert_eq!(wv.status, Status::Stable, "{name} {engine:?} x{workers}");
                }
                let result = session.finish_parallel();
                assert_eq!(
                    result.exec.multiset, reference.multiset,
                    "{name} {engine:?} x{workers}: parallel session waves \
                     diverged from the sequential reference"
                );
            }
        }
    }
}

/// A deterministic one-wave session *is* the one-shot run: byte-identical
/// trace, stats, and final for every scheduling (`SessionBuilder::run`
/// delegates, so this pins the delegation down independently).
#[test]
fn deterministic_one_wave_session_replays_interpreter_trace() {
    for (name, program, initial) in &confluent_workloads() {
        for scheduling in [Scheduling::Rescan, Scheduling::Rete] {
            let reference = Session::build(program)
                .config(EngineConfig {
                    selection: Selection::Deterministic,
                    scheduling,
                    record_trace: true,
                    ..EngineConfig::default()
                })
                .run(initial.clone())
                .expect("reference runs");
            let mut session = Session::build(program)
                .scheduling(scheduling)
                .selection(Selection::Deterministic)
                .record_trace(true)
                .start(initial.clone())
                .expect("program compiles");
            session.run_to_stable().expect("wave runs");
            let result = session.finish();
            assert_eq!(result.status, reference.status, "{name} {scheduling:?}");
            assert_eq!(result.multiset, reference.multiset, "{name} {scheduling:?}");
            assert_eq!(
                result.stats.firings_per_reaction, reference.stats.firings_per_reaction,
                "{name} {scheduling:?}"
            );
            assert_eq!(
                result.trace, reference.trace,
                "{name} {scheduling:?}: one-wave session trace diverged"
            );
        }
    }
}

/// Resume is trace-equal to rebuild: a deterministic session's per-wave
/// firing sequences equal those of a fresh deterministic interpreter
/// rebuilt on the accumulated bag each wave (records compared modulo the
/// session's continuous step numbering).
#[test]
fn deterministic_session_waves_replay_rebuild_traces() {
    let w = windowed_sum(3, 4, 3, 9);
    let mut session = Session::build(&w.program)
        .selection(Selection::Deterministic)
        .record_trace(true)
        .start(w.initial.clone())
        .expect("program compiles");
    let mut session_segments: Vec<usize> = Vec::new();
    for wave in &w.waves {
        assert!(session.inject(wave.iter().cloned()).is_accepted());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable);
        session_segments.push(wv.fired as usize);
    }
    let result = session.finish();
    assert_eq!(result.multiset, w.expected);
    let session_trace = result.trace.expect("trace recorded");
    assert_eq!(
        session_trace.len(),
        session_segments.iter().sum::<usize>(),
        "trace covers every wave"
    );
    // Steps number continuously across waves.
    for (i, rec) in session_trace.iter().enumerate() {
        assert_eq!(rec.step, i as u64);
    }

    let key = |r: &gammaflow::gamma::FiringRecord| {
        (
            r.reaction.clone(),
            r.consumed.clone(),
            r.produced.clone(),
            r.clause,
        )
    };
    let mut offset = 0usize;
    let mut bag = w.initial.clone();
    for (wave, &fired) in w.waves.iter().zip(&session_segments) {
        for e in wave {
            bag.insert(e.clone());
        }
        let rebuild = Session::build(&w.program)
            .config(EngineConfig {
                selection: Selection::Deterministic,
                record_trace: true,
                ..EngineConfig::default()
            })
            .run(bag)
            .expect("rebuild runs");
        let rebuild_trace = rebuild.trace.expect("trace recorded");
        assert_eq!(rebuild_trace.len(), fired, "per-wave firing counts agree");
        let session_keys: Vec<_> = session_trace[offset..offset + fired]
            .iter()
            .map(key)
            .collect();
        let rebuild_keys: Vec<_> = rebuild_trace.iter().map(key).collect();
        assert_eq!(
            session_keys, rebuild_keys,
            "resumed wave fired a different deterministic sequence than a rebuild"
        );
        offset += fired;
        bag = rebuild.multiset;
    }
}

/// Pipeline stats plumbing: the chained sessions' network counters and
/// traces must reach the cumulative result (they used to be dropped as
/// `rete: None, trace: None`).
#[test]
fn pipeline_absorbs_scheduler_stats_across_stages() {
    use gammaflow::gamma::{ElementSpec, Expr, Pattern, Pipeline, ReactionSpec};
    use gammaflow::multiset::value::BinOp;
    let stage1 = GammaProgram::new(vec![ReactionSpec::new("relabel")
        .replace(Pattern::pair("x", "n"))
        .by(vec![ElementSpec::pair(Expr::var("x"), "m")])]);
    let stage2 = GammaProgram::new(vec![ReactionSpec::new("sum")
        .replace(Pattern::pair("x", "m"))
        .replace(Pattern::pair("y", "m"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
            "m",
        )])]);
    let pipeline = Pipeline::new(vec![stage1, stage2]);
    let initial: ElementBag = (1..=6).map(|v| Element::pair(v, "n")).collect();

    // Rete scheduling (the default): the merged network counters arrive,
    // and so do both stages' firings (6 relabels + 5 sums).
    let rete =
        run_pipeline(&pipeline, initial.clone(), &EngineConfig::default()).expect("pipeline runs");
    assert_eq!(rete.status, Status::Stable);
    assert_eq!(rete.stats.firings_total(), 11);
    assert!(rete.trace.is_none(), "no trace unless asked for");
    let rete_stats = rete
        .rete
        .expect("pipeline must surface cumulative network stats");
    // Both stages prune nowhere, so both are searched: one search per
    // firing plus each stage's final miss — 6 + 1 and 5 + 1, summed.
    assert_eq!(rete_stats.spill_probes, 13, "{rete_stats:?}");
    assert_eq!(
        rete.multiset.sorted_elements(),
        vec![Element::pair(21, "m")]
    );

    // Trace recording: the stages' traces arrive in stage order under
    // one continuous step numbering.
    let traced = run_pipeline(
        &pipeline,
        initial,
        &EngineConfig {
            record_trace: true,
            ..EngineConfig::default()
        },
    )
    .expect("pipeline runs");
    let trace = traced
        .trace
        .expect("pipeline must surface the stages' traces");
    let steps: Vec<u64> = trace.iter().map(|r| r.step).collect();
    assert_eq!(steps, (0..11).collect::<Vec<u64>>());
    assert!(trace[..6].iter().all(|r| r.reaction == "relabel"));
    assert!(trace[6..].iter().all(|r| r.reaction == "sum"));
}

/// `drain_stable` chains sessions the way `run_pipeline` does, and the
/// drained session keeps accepting waves.
#[test]
fn drain_stable_chains_sessions_across_programs() {
    use gammaflow::gamma::{ElementSpec, Expr, Pattern, ReactionSpec};
    use gammaflow::multiset::value::BinOp;
    let relabel = GammaProgram::new(vec![ReactionSpec::new("relabel")
        .replace(Pattern::pair("x", "n"))
        .by(vec![ElementSpec::pair(Expr::var("x"), "m")])]);
    let sum = GammaProgram::new(vec![ReactionSpec::new("sum")
        .replace(Pattern::pair("x", "m"))
        .replace(Pattern::pair("y", "m"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
            "m",
        )])]);
    let initial: ElementBag = (1..=4).map(|v| Element::pair(v, "n")).collect();

    let mut stage1 = Session::build(&relabel).start(initial).expect("compiles");
    stage1.run_to_stable().expect("stage 1 runs");
    let intermediate = stage1.drain_stable();
    assert_eq!(intermediate.count_label("m".into()), 4);

    let mut stage2 = Session::build(&sum).start(intermediate).expect("compiles");
    stage2.run_to_stable().expect("stage 2 runs");
    assert_eq!(
        stage2.snapshot().sorted_elements(),
        vec![Element::pair(10, "m")]
    );

    // The drained first stage is empty but alive.
    assert!(stage1.inject([Element::pair(9, "n")]).is_accepted());
    stage1.run_to_stable().expect("post-drain wave runs");
    assert_eq!(
        stage1.finish().multiset.sorted_elements(),
        vec![Element::pair(9, "m")]
    );
}

/// Cumulative session counters equal the sum of the per-wave records the
/// observer saw, and `Wave::fired` sums to the finish total.
#[test]
fn wave_records_sum_to_cumulative_stats() {
    let w = windowed_sum(4, 3, 4, 21);
    let mut session = Session::build(&w.program)
        .start(w.initial.clone())
        .expect("compiles");
    let mut per_wave_fired: Vec<u64> = Vec::new();
    for wave in &w.waves {
        assert!(session.inject(wave.iter().cloned()).is_accepted());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.fired, wv.stats.firings_total());
        per_wave_fired.push(wv.fired);
    }
    assert_eq!(session.waves_run(), w.waves.len() as u64);
    let result = session.finish();
    assert_eq!(
        result.stats.firings_total(),
        per_wave_fired.iter().sum::<u64>()
    );
    assert_eq!(result.multiset, w.expected);
}

/// Maximal-parallel stepping is a sequential execution mode: asking a
/// parallel session for it is an error the caller can handle (it used to
/// panic), and the session stays usable for ordinary waves.
#[test]
fn max_parallel_steps_on_a_parallel_session_is_an_error() {
    use gammaflow::gamma::ExecError;
    let w = windowed_sum(1, 2, 4, 3);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(engine))
            .workers(2)
            .start(w.merged())
            .expect("compiles");
        let err = session
            .run_to_stable_max_parallel()
            .expect_err("parallel engines have no maximal-step mode");
        assert!(matches!(err, ExecError::Unsupported(_)), "{err}");
        assert_eq!(session.waves_run(), 0, "a refused wave is not a wave");
        let wave = session.run_to_stable().expect("ordinary waves still run");
        assert_eq!(wave.status, Status::Stable);
        assert_eq!(session.finish().multiset, w.expected);
    }
}
