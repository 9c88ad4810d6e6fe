//! Durable sessions: snapshot/restore equivalence, budget-exhaustion
//! resume, and injection backpressure.
//!
//! The oracle throughout is the same confluence argument the session
//! suite leans on: a reaction's enabledness depends only on its consumed
//! tuple, so any legal continuation of a run lands on the byte-identical
//! stable multiset. A snapshot captures the multiset (plus counters and
//! the selection-RNG position); the matcher state is a pure function of
//! the multiset and is rebuilt on restore — so a
//! snapshot → serialize → deserialize → restore → run cycle must be
//! indistinguishable from the uninterrupted session, for every
//! scheduler × engine combination. Deterministic sequential sessions
//! must additionally replay the exact firing trace across the
//! interruption.

use gammaflow::core::dataflow_to_gamma;
use gammaflow::gamma::{
    Engine, ExecError, ExecResult, GammaProgram, InjectOutcome, ParEngine, Scheduling, Selection,
    Session, SessionSnapshot, Status,
};
use gammaflow::multiset::{Element, ElementBag};
use gammaflow::workloads::{
    burst_drain, cross_sum, divisor_sieve, interval_merge, random_dag, triangles, windowed_sum,
    DagParams,
};

/// Deterministic round-robin split of a bag into `k` injection waves.
fn split_waves(bag: &ElementBag, k: usize) -> Vec<Vec<Element>> {
    let mut waves: Vec<Vec<Element>> = vec![Vec::new(); k];
    for (i, e) in bag.sorted_elements().into_iter().enumerate() {
        waves[i % k].push(e);
    }
    waves
}

/// The confluent workload matrix shared with the session suite: random
/// converted-dataflow programs plus the guard-heavy join family.
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

/// Serialize the snapshot to JSON and parse it back — every restore in
/// this suite crosses a real wire format, not just a clone.
fn roundtrip(snapshot: SessionSnapshot) -> SessionSnapshot {
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    serde_json::from_str(&json).expect("snapshot deserializes")
}

/// Run a sequential session over `waves`; when `interrupt_after` is set,
/// snapshot after that wave, round-trip through JSON, and continue in a
/// restored session.
fn run_seq_session(
    program: &GammaProgram,
    waves: &[Vec<Element>],
    scheduling: Scheduling,
    selection: Selection,
    interrupt_after: Option<usize>,
) -> ExecResult {
    let mut session = Session::build(program)
        .scheduling(scheduling)
        .selection(selection)
        .record_trace(true)
        .start(ElementBag::new())
        .expect("program compiles");
    for (i, wave) in waves.iter().enumerate() {
        assert!(session.inject(wave.clone()).is_accepted());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable);
        if interrupt_after == Some(i) {
            let snap = roundtrip(session.snapshot_state());
            session = Session::restore(program, snap).expect("restore succeeds");
        }
    }
    session.finish()
}

/// Parallel analogue of [`run_seq_session`], returning the final bag.
fn run_parallel_session(
    program: &GammaProgram,
    waves: &[Vec<Element>],
    engine: ParEngine,
    workers: usize,
    interrupt_after: Option<usize>,
) -> ElementBag {
    let mut session = Session::build(program)
        .engine(Engine::Parallel(engine))
        .workers(workers)
        .start(ElementBag::new())
        .expect("program compiles");
    for (i, wave) in waves.iter().enumerate() {
        assert!(session.inject(wave.clone()).is_accepted());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable, "{engine:?} x{workers}");
        if interrupt_after == Some(i) {
            let snap = roundtrip(session.snapshot_state());
            session = Session::restore(program, snap).expect("restore succeeds");
        }
    }
    session.finish_parallel().exec.multiset
}

/// Sequential engines: a session snapshotted after its first wave,
/// serialized, restored, and driven through the remaining waves lands on
/// the byte-identical final of the uninterrupted session — for every
/// scheduling and both selection policies. Deterministic runs must also
/// replay the exact firing trace across the interruption (seeded runs
/// only promise final equality: the rescan permutation is rebuilt as the
/// identity on restore, so the shuffle stream may diverge).
#[test]
fn restored_seq_sessions_match_uninterrupted_finals() {
    for (name, program, initial) in &confluent_workloads() {
        let waves = split_waves(initial, 3);
        for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
            for selection in [Selection::Deterministic, Selection::Seeded(5)] {
                let uninterrupted = run_seq_session(program, &waves, scheduling, selection, None);
                assert_eq!(uninterrupted.status, Status::Stable, "{name}");
                let restored = run_seq_session(program, &waves, scheduling, selection, Some(0));
                assert_eq!(
                    restored.multiset, uninterrupted.multiset,
                    "{name} {scheduling:?} {selection:?}: restored session final \
                     diverged from the uninterrupted run"
                );
                assert_eq!(
                    restored.stats.firings_per_reaction, uninterrupted.stats.firings_per_reaction,
                    "{name} {scheduling:?} {selection:?}"
                );
                if selection == Selection::Deterministic {
                    assert_eq!(
                        restored.trace, uninterrupted.trace,
                        "{name} {scheduling:?}: restore must preserve the \
                         deterministic firing trace"
                    );
                }
            }
        }
    }
}

/// Parallel engines: snapshot after the first wave, restore (which
/// rebuilds every worker slice and preloads the key directory), finish
/// the remaining waves — the final must match the sequential reference
/// for both engines across worker counts.
#[test]
fn restored_parallel_sessions_match_uninterrupted_finals() {
    for (name, program, initial) in &confluent_workloads() {
        let reference = Session::build(program)
            .selection(Selection::Deterministic)
            .run(initial.clone())
            .expect("reference runs");
        assert_eq!(reference.status, Status::Stable, "{name}");
        let waves = split_waves(initial, 3);
        for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
            for workers in [1usize, 2, 8] {
                let restored = run_parallel_session(program, &waves, engine, workers, Some(0));
                assert_eq!(
                    restored, reference.multiset,
                    "{name} {engine:?} x{workers}: restored parallel session \
                     diverged from the sequential reference"
                );
            }
        }
    }
}

/// A snapshot round-trip is lossless and idempotent for sequential
/// sessions: the restored session reports the same counters, the same
/// bag, and re-snapshotting it reproduces the identical JSON bytes
/// (counters, scheduler stats, trace, and the RNG position included).
#[test]
fn seq_snapshot_roundtrip_preserves_counters_and_bytes() {
    let w = windowed_sum(3, 2, 4, 7);
    let mut session = Session::build(&w.program)
        .selection(Selection::Seeded(9))
        .record_trace(true)
        .start(w.initial.clone())
        .expect("program compiles");
    for wave in &w.waves[..2] {
        assert!(session.inject(wave.iter().cloned()).is_accepted());
        session.run_to_stable().expect("wave runs");
    }
    let snap = session.snapshot_state();
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let restored = Session::restore(&w.program, roundtrip(snap)).expect("restore succeeds");
    assert_eq!(restored.waves_run(), session.waves_run());
    assert_eq!(restored.fired_total(), session.fired_total());
    assert_eq!(restored.budget_left(), session.budget_left());
    assert_eq!(restored.status(), session.status());
    assert_eq!(restored.bag_len(), session.bag_len());
    assert_eq!(restored.snapshot(), session.snapshot());
    assert_eq!(
        serde_json::to_string(&restored.snapshot_state()).expect("snapshot serializes"),
        json,
        "re-snapshotting the restored session must reproduce the same bytes"
    );
}

/// The parallel snapshot carries the sharded bag and the key directory;
/// a restored session preserves both plus the cumulative counters.
#[test]
fn parallel_snapshot_roundtrip_preserves_bag_and_directory() {
    let w = windowed_sum(3, 2, 4, 7);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(engine))
            .workers(2)
            .start(w.initial.clone())
            .expect("program compiles");
        for wave in &w.waves[..2] {
            assert!(session.inject(wave.iter().cloned()).is_accepted());
            session.run_to_stable().expect("wave runs");
        }
        let snap = roundtrip(session.snapshot_state());
        assert!(
            !snap.directory.is_empty(),
            "{engine:?}: a parallel snapshot must carry the key directory"
        );
        let restored = Session::restore(&w.program, snap.clone()).expect("restore succeeds");
        let again = restored.snapshot_state();
        assert_eq!(again.bag, snap.bag, "{engine:?}");
        assert_eq!(again.directory, snap.directory, "{engine:?}");
        assert_eq!(again.waves_run, snap.waves_run, "{engine:?}");
        assert_eq!(
            again.stats.firings_per_reaction, snap.stats.firings_per_reaction,
            "{engine:?}"
        );
    }
}

/// Restore validates what it is given: a bumped format version or a
/// program whose shape differs from the captured one is refused with
/// [`ExecError::Snapshot`] instead of silently rebuilding wrong state.
#[test]
fn restore_rejects_version_and_program_mismatches() {
    use gammaflow::gamma::{ElementSpec, Expr, Pattern, ReactionSpec};
    use gammaflow::multiset::value::BinOp;
    let one = GammaProgram::new(vec![ReactionSpec::new("relabel")
        .replace(Pattern::pair("x", "n"))
        .by(vec![ElementSpec::pair(Expr::var("x"), "m")])]);
    let two = GammaProgram::new(vec![
        ReactionSpec::new("relabel")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(Expr::var("x"), "m")]),
        ReactionSpec::new("sum")
            .replace(Pattern::pair("x", "m"))
            .replace(Pattern::pair("y", "m"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "m",
            )]),
    ]);
    let mut session = Session::build(&one)
        .start((1..=4).map(|v| Element::pair(v, "n")).collect())
        .expect("program compiles");
    session.run_to_stable().expect("wave runs");
    let snap = session.snapshot_state();

    let mut bad_version = snap.clone();
    bad_version.version += 1;
    let Err(err) = Session::restore(&one, bad_version) else {
        panic!("future version must be refused");
    };
    assert!(matches!(err, ExecError::Snapshot(_)), "{err:?}");

    let Err(err) = Session::restore(&two, snap) else {
        panic!("shape mismatch must be refused");
    };
    assert!(matches!(err, ExecError::Snapshot(_)), "{err:?}");
}

/// The interned-arena storage era bumped the snapshot format to v3.
/// Pre-arena (v2) captures are refused outright — their bag rows were
/// written before hash-consing and re-interning them silently could mask
/// a divergent layout — while a v3 capture round-trips to byte-identical
/// finals: the bag still serialises portable `(element, count)` rows, so
/// nothing arena-specific (no `ElemId`) ever reaches the wire.
#[test]
fn restore_refuses_pre_arena_v2_and_accepts_v3() {
    for (name, program, initial) in &confluent_workloads() {
        let mut session = Session::build(program)
            .start(initial.clone())
            .expect("program compiles");
        session.run_to_stable().expect("wave runs");
        let reference = session.snapshot();
        let snap = session.snapshot_state();
        assert_eq!(snap.version, 3, "{name}: interned-arena snapshots are v3");

        let mut pre_arena = snap.clone();
        pre_arena.version = 2;
        let Err(err) = Session::restore(program, pre_arena) else {
            panic!("{name}: pre-arena v2 snapshot must be refused");
        };
        assert!(matches!(err, ExecError::Snapshot(_)), "{name}: {err:?}");

        let mut restored =
            Session::restore(program, snap).expect("v3 snapshot re-interns and restores");
        restored.run_to_stable().expect("restored wave runs");
        assert_eq!(restored.snapshot(), reference, "{name}");
    }
}

/// `Status::BudgetExhausted` is a pause, not a failure: granting more
/// budget mid-stream and re-running converges to the same final the
/// unconstrained run computes (sequential engines, every scheduling).
#[test]
fn seq_budget_exhaustion_resumes_after_grant() {
    for (name, program, initial) in &confluent_workloads() {
        let reference = Session::build(program)
            .selection(Selection::Deterministic)
            .run(initial.clone())
            .expect("reference runs");
        if reference.stats.firings_total() <= 5 {
            continue;
        }
        for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
            let mut session = Session::build(program)
                .scheduling(scheduling)
                .budget(5)
                .start(initial.clone())
                .expect("program compiles");
            let mut grants = 0u64;
            loop {
                let wv = session.run_to_stable().expect("wave runs");
                match wv.status {
                    Status::Stable => break,
                    Status::BudgetExhausted => {
                        grants += 1;
                        assert!(grants < 10_000, "{name} {scheduling:?}: no progress");
                        session.grant_budget(5);
                    }
                }
            }
            assert!(grants > 0, "{name} {scheduling:?}: budget never exhausted");
            assert_eq!(
                session.finish().multiset,
                reference.multiset,
                "{name} {scheduling:?}: resumed run diverged from the \
                 unconstrained reference"
            );
        }
    }
}

/// The same budget-pause/grant/resume cycle on the parallel engines: the
/// wave stops at the cap with every worker's partial state committed
/// coherently, and the resumed waves finish to the sequential reference.
#[test]
fn parallel_budget_exhaustion_resumes_after_grant() {
    for (name, program, initial) in &confluent_workloads() {
        let reference = Session::build(program)
            .selection(Selection::Deterministic)
            .run(initial.clone())
            .expect("reference runs");
        if reference.stats.firings_total() <= 5 {
            continue;
        }
        for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
            let mut session = Session::build(program)
                .engine(Engine::Parallel(engine))
                .workers(2)
                .budget(5)
                .start(initial.clone())
                .expect("program compiles");
            let mut grants = 0u64;
            loop {
                let wv = session.run_to_stable().expect("wave runs");
                match wv.status {
                    Status::Stable => break,
                    Status::BudgetExhausted => {
                        grants += 1;
                        assert!(grants < 10_000, "{name} {engine:?}: no progress");
                        session.grant_budget(5);
                    }
                }
            }
            assert!(grants > 0, "{name} {engine:?}: budget never exhausted");
            assert_eq!(
                session.finish_parallel().exec.multiset,
                reference.multiset,
                "{name} {engine:?}: resumed parallel run diverged from the \
                 sequential reference"
            );
        }
    }
}

/// Mid-stream durability: pause via budget exhaustion, snapshot the
/// half-done session, cross the wire, restore in a "new process", grant
/// budget, and finish — same final as a never-interrupted run, for every
/// engine. The pre-pause trace prefix is preserved verbatim and the
/// resumed firings keep numbering continuously; the *continuation* order
/// is only confluence-equivalent, not byte-equal (serialization
/// canonicalizes the bag's insertion order, which is what a mid-wave
/// deterministic pick keys on — wave-boundary snapshots, covered above,
/// do replay byte-identical traces).
#[test]
fn restore_after_budget_exhaustion_finishes_to_the_same_final() {
    for (name, program, initial) in &confluent_workloads() {
        for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
            let reference = {
                let mut s = Session::build(program)
                    .scheduling(scheduling)
                    .selection(Selection::Deterministic)
                    .record_trace(true)
                    .start(initial.clone())
                    .expect("program compiles");
                let wv = s.run_to_stable().expect("reference runs");
                assert_eq!(wv.status, Status::Stable, "{name}");
                s.finish()
            };
            if reference.stats.firings_total() <= 7 {
                continue;
            }
            let mut session = Session::build(program)
                .scheduling(scheduling)
                .selection(Selection::Deterministic)
                .record_trace(true)
                .budget(7)
                .start(initial.clone())
                .expect("program compiles");
            let wv = session.run_to_stable().expect("wave runs");
            assert_eq!(wv.status, Status::BudgetExhausted, "{name} {scheduling:?}");
            assert_eq!(wv.fired, 7, "{name} {scheduling:?}");
            let snap = roundtrip(session.snapshot_state());
            let mut restored = Session::restore(program, snap).expect("restore succeeds");
            assert_eq!(restored.budget_left(), 0, "{name} {scheduling:?}");
            restored.grant_budget(u64::MAX);
            let wv = restored.run_to_stable().expect("resumed wave runs");
            assert_eq!(wv.status, Status::Stable, "{name} {scheduling:?}");
            let result = restored.finish();
            assert_eq!(
                result.multiset, reference.multiset,
                "{name} {scheduling:?}: mid-stream restore diverged"
            );
            let trace = result.trace.as_ref().expect("trace recorded");
            let reference_trace = reference.trace.as_ref().expect("trace recorded");
            assert_eq!(
                &trace[..7],
                &reference_trace[..7],
                "{name} {scheduling:?}: the pre-pause prefix must survive the wire"
            );
            for (i, rec) in trace.iter().enumerate() {
                assert_eq!(
                    rec.step, i as u64,
                    "{name} {scheduling:?}: resumed firings must number continuously"
                );
            }
        }
        let seq_reference = Session::build(program)
            .selection(Selection::Deterministic)
            .run(initial.clone())
            .expect("reference runs");
        if seq_reference.stats.firings_total() <= 7 {
            continue;
        }
        for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
            let mut session = Session::build(program)
                .engine(Engine::Parallel(engine))
                .workers(2)
                .budget(7)
                .start(initial.clone())
                .expect("program compiles");
            let wv = session.run_to_stable().expect("wave runs");
            assert_eq!(wv.status, Status::BudgetExhausted, "{name} {engine:?}");
            let snap = roundtrip(session.snapshot_state());
            let mut restored = Session::restore(program, snap).expect("restore succeeds");
            restored.grant_budget(u64::MAX);
            let wv = restored.run_to_stable().expect("resumed wave runs");
            assert_eq!(wv.status, Status::Stable, "{name} {engine:?}");
            assert_eq!(
                restored.finish_parallel().exec.multiset,
                seq_reference.multiset,
                "{name} {engine:?}: mid-stream parallel restore diverged"
            );
        }
    }
}

/// [`InjectOutcome::Spilled`] returns exactly the overflow: admitted
/// plus spilled reassemble the injected multiset, admission never
/// overruns the bag budget, and a full bag admits nothing.
#[test]
fn spilled_outcome_returns_the_exact_overflow() {
    let w = burst_drain(1, 2, 1);
    let mut session = Session::build(&w.program)
        .bag_budget(3)
        .start(ElementBag::new())
        .expect("program compiles");
    let elems: Vec<Element> = (0..5i64).map(|i| Element::new(i, "x", 9u64)).collect();
    let InjectOutcome::Spilled(rest) = session.inject(elems.clone()) else {
        panic!("five elements against budget 3 must spill");
    };
    assert_eq!(
        session.bag_len(),
        3,
        "admission fills exactly to the budget"
    );
    assert_eq!(rest.len(), 2);
    let mut reassembled = session.snapshot();
    for e in &rest {
        reassembled.insert(e.clone());
    }
    assert_eq!(
        reassembled,
        elems.into_iter().collect::<ElementBag>(),
        "admitted + spilled must be exactly what was injected"
    );
    let InjectOutcome::Spilled(rest) = session.inject([Element::new(99i64, "x", 9u64)]) else {
        panic!("a full bag must spill everything");
    };
    assert_eq!(rest.len(), 1);
    assert_eq!(session.bag_len(), 3);
}

/// End-to-end backpressure: bursty arrivals against a bag budget smaller
/// than the burst force spills; re-injecting the spilled overflow after
/// each draining wave converges to the same stable multiset unbounded
/// injection reaches — on the sequential and both parallel engines.
#[test]
fn backpressure_spill_and_reinject_converges() {
    let w = burst_drain(4, 6, 13);
    for engine in [
        Engine::Seq,
        Engine::Parallel(ParEngine::ShardedRete),
        Engine::Parallel(ParEngine::ProbeRetry),
    ] {
        let mut session = Session::build(&w.program)
            .engine(engine)
            .workers(2)
            .bag_budget(5)
            .start(ElementBag::new())
            .expect("program compiles");
        let mut spills = 0u64;
        for wave in &w.waves {
            let mut pending = wave.clone();
            let mut rounds = 0;
            while !pending.is_empty() {
                rounds += 1;
                assert!(
                    rounds <= 64,
                    "{engine:?}: backpressure loop made no progress"
                );
                match session.inject(std::mem::take(&mut pending)) {
                    InjectOutcome::Accepted => {}
                    InjectOutcome::Spilled(rest) => {
                        spills += 1;
                        pending = rest;
                    }
                }
                assert!(
                    session.bag_len() <= 5,
                    "{engine:?}: admission overran the bag budget"
                );
                let wv = session.run_to_stable().expect("wave runs");
                assert_eq!(wv.status, Status::Stable, "{engine:?}");
            }
        }
        assert!(
            spills > 0,
            "{engine:?}: a 6-element burst against budget 5 must spill"
        );
        assert_eq!(
            session.finish_parallel().exec.multiset,
            w.expected,
            "{engine:?}: deferred arrivals must land on the unbounded final"
        );
    }
}
