//! Observability invariants of the telemetry layer.
//!
//! Three load-bearing properties:
//!
//! 1. **Determinism** — a deterministic sequential session's JSONL trace
//!    is a pure function of the input history: two identically-driven
//!    runs produce byte-identical files (no timestamps, no pointers, no
//!    ambient state in the stream).
//! 2. **Conservation** — trace events are the counters, itemised. The
//!    per-reaction `firing` event counts must equal
//!    [`ExecStats::firings_per_reaction`] exactly, for every scheduler ×
//!    engine × worker-count cell, and the sharded engine's
//!    `delta_published` events must equal `ParStats::deltas_published`.
//! 3. **Profile survival** — the per-reaction profile table rides inside
//!    [`SessionSnapshot`], so a snapshot/serde/restore cycle loses no
//!    observations and keeps accumulating afterwards.

use gammaflow::gamma::{
    Engine, GuardEvalMode, JsonlSink, ParEngine, ProfileTable, RingSink, Scheduling, Selection,
    Session, Status, Tier, TraceEvent, TraceRecord, MAIN_WORKER,
};
use gammaflow::workloads::{cross_sum, divisor_sieve, windowed_sum};
use std::sync::Arc;

/// A fresh ring sink big enough that nothing is ever dropped by the
/// workloads in this suite (dropping would invalidate conservation).
fn big_ring() -> Arc<RingSink> {
    Arc::new(RingSink::new(1 << 20))
}

fn firing_counts(records: &[TraceRecord], nreactions: usize) -> Vec<u64> {
    let mut counts = vec![0u64; nreactions];
    for r in records {
        if let TraceEvent::Firing { reaction, .. } = &r.event {
            counts[*reaction] += 1;
        }
    }
    counts
}

fn count_kind(records: &[TraceRecord], kind: &str) -> u64 {
    records.iter().filter(|r| r.kind() == kind).count() as u64
}

// ----------------------------------------------------------- determinism ----

/// Two identically-driven deterministic sequential sessions write
/// byte-identical JSONL traces, for every sequential scheduler.
#[test]
fn deterministic_seq_traces_are_byte_identical() {
    let w = divisor_sieve(40);
    for scheduling in [Scheduling::Rescan, Scheduling::Rete] {
        let run = |path: &str| {
            let sink = JsonlSink::create(path).expect("trace file creates");
            let mut session = Session::build(&w.program)
                .scheduling(scheduling)
                .selection(Selection::Deterministic)
                .trace_sink(Arc::new(sink))
                .start(w.initial.clone())
                .expect("program compiles");
            let wave = session.run_to_stable().expect("wave runs");
            assert_eq!(wave.status, Status::Stable);
            let _ = session.inject(w.initial.sorted_elements());
            session.run_to_stable().expect("second wave runs");
            drop(session); // flush on drop
            std::fs::read(path).expect("trace file reads")
        };
        let dir = std::env::temp_dir();
        let a_path = dir
            .join(format!("gammaflow_det_a_{scheduling:?}.jsonl"))
            .to_string_lossy()
            .into_owned();
        let b_path = dir
            .join(format!("gammaflow_det_b_{scheduling:?}.jsonl"))
            .to_string_lossy()
            .into_owned();
        let a = run(&a_path);
        let b = run(&b_path);
        assert!(!a.is_empty(), "{scheduling:?}: trace must not be empty");
        assert_eq!(
            a, b,
            "{scheduling:?}: deterministic traces must be byte-identical"
        );
        let _ = std::fs::remove_file(a_path);
        let _ = std::fs::remove_file(b_path);
    }
}

/// Main-thread records carry a strictly increasing per-worker sequence,
/// and every record's global `seq` is unique and dense.
#[test]
fn trace_sequence_numbers_are_coherent() {
    let w = cross_sum(24);
    let ring = big_ring();
    let mut session = Session::build(&w.program)
        .scheduling(Scheduling::Rete)
        .selection(Selection::Deterministic)
        .trace_sink(ring.clone())
        .start(w.initial.clone())
        .expect("program compiles");
    session.run_to_stable().expect("wave runs");
    let records = ring.records();
    assert_eq!(ring.dropped(), 0);
    let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    let dense: Vec<u64> = (0..records.len() as u64).collect();
    assert_eq!(seqs, dense, "global seq must be dense and unique");
    let main_wseq: Vec<u64> = records
        .iter()
        .filter(|r| r.worker == MAIN_WORKER)
        .map(|r| r.wseq)
        .collect();
    assert!(
        main_wseq.windows(2).all(|w| w[0] < w[1]),
        "main-thread wseq must be strictly increasing"
    );
}

// ---------------------------------------------------------- conservation ----

/// Per-reaction `firing` events reconcile exactly with the execution
/// counters across the full scheduler × engine × worker matrix, and the
/// sharded engine's `delta_published` events with its parallel counters.
#[test]
fn firing_events_conserve_exec_stats_across_engines() {
    let w = cross_sum(32);
    let nreactions = w.program.reactions.len();
    let mut cells: Vec<(String, Engine, Scheduling)> = Vec::new();
    for scheduling in [Scheduling::Rescan, Scheduling::Rete] {
        cells.push((format!("seq/{scheduling:?}"), Engine::Seq, scheduling));
    }
    let mut parallel: Vec<(String, Engine, usize)> = Vec::new();
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        for workers in [1usize, 2, 8] {
            parallel.push((
                format!("{engine:?}/w{workers}"),
                Engine::Parallel(engine),
                workers,
            ));
        }
    }

    for (name, engine, scheduling) in cells {
        let ring = big_ring();
        let mut session = Session::build(&w.program)
            .engine(engine)
            .scheduling(scheduling)
            .trace_sink(ring.clone())
            .start(w.initial.clone())
            .expect("program compiles");
        session.run_to_stable().expect("wave runs");
        let profile_fired: Vec<u64> = session.profile().rows.iter().map(|r| r.fired).collect();
        let result = session.finish();
        assert_eq!(result.multiset, w.expected, "{name}: wrong final");
        assert_eq!(ring.dropped(), 0, "{name}: ring must not drop");
        let records = ring.records();
        assert_eq!(
            firing_counts(&records, nreactions),
            result.stats.firings_per_reaction,
            "{name}: firing events must reconcile with ExecStats"
        );
        assert_eq!(
            profile_fired, result.stats.firings_per_reaction,
            "{name}: profile fired counts must reconcile with ExecStats"
        );
    }

    for (name, engine, workers) in parallel {
        let ring = big_ring();
        let mut session = Session::build(&w.program)
            .engine(engine)
            .workers(workers)
            .trace_sink(ring.clone())
            .start(w.initial.clone())
            .expect("program compiles");
        session.run_to_stable().expect("wave runs");
        let profile_fired: Vec<u64> = session.profile().rows.iter().map(|r| r.fired).collect();
        let result = session.finish_parallel();
        assert_eq!(result.exec.multiset, w.expected, "{name}: wrong final");
        assert_eq!(ring.dropped(), 0, "{name}: ring must not drop");
        let records = ring.records();
        assert_eq!(
            firing_counts(&records, nreactions),
            result.exec.stats.firings_per_reaction,
            "{name}: firing events must reconcile with ExecStats"
        );
        assert_eq!(
            profile_fired, result.exec.stats.firings_per_reaction,
            "{name}: profile fired counts must reconcile with ExecStats"
        );
        assert_eq!(
            count_kind(&records, "delta_published"),
            result.par.deltas_published,
            "{name}: delta_published events must reconcile with ParStats"
        );
        assert_eq!(
            count_kind(&records, "delta_processed"),
            result.par.deltas_processed,
            "{name}: delta_processed events must reconcile with ParStats"
        );
    }
}

/// Every wave is bracketed: as many `wave_start` as `wave_end` records,
/// and the `wave_end` fired figures sum to the cumulative total.
#[test]
fn wave_events_bracket_and_sum() {
    let stream = windowed_sum(4, 8, 2, 42);
    let ring = big_ring();
    let mut session = Session::build(&stream.program)
        .trace_sink(ring.clone())
        .start(stream.initial.clone())
        .expect("program compiles");
    for wave in &stream.waves {
        let _ = session.inject(wave.iter().cloned());
        session.run_to_stable().expect("wave runs");
    }
    let fired_total = session.fired_total();
    let records = ring.records();
    assert_eq!(count_kind(&records, "wave_start"), 4);
    assert_eq!(count_kind(&records, "wave_end"), 4);
    assert_eq!(count_kind(&records, "injected"), 4);
    let wave_end_sum: u64 = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::WaveEnd { fired, .. } => Some(*fired),
            _ => None,
        })
        .sum();
    assert_eq!(wave_end_sum, fired_total);
    // Build events precede everything: one plan per reaction.
    assert_eq!(
        count_kind(&records, "plan_explained"),
        stream.program.reactions.len() as u64
    );
}

// -------------------------------------------------------------- profiles ----

/// Profiles accumulate across waves, survive a snapshot/serde/restore
/// cycle, and keep accumulating in the restored session.
#[test]
fn profiles_survive_snapshot_restore() {
    let stream = windowed_sum(4, 8, 2, 42);
    let mut session = Session::build(&stream.program)
        .scheduling(Scheduling::Rete)
        .profile(true)
        .start(stream.initial.clone())
        .expect("program compiles");
    for wave in &stream.waves[..2] {
        let _ = session.inject(wave.iter().cloned());
        session.run_to_stable().expect("wave runs");
    }
    let fired_before = session.profile().fired_total();
    assert!(fired_before > 0, "waves must fire");
    assert_eq!(fired_before, session.fired_total());

    let json = serde_json::to_string(&session.snapshot_state()).expect("snapshot serialises");
    let snap = serde_json::from_str(&json).expect("snapshot parses");
    let mut restored = Session::restore(&stream.program, snap).expect("restore succeeds");
    assert_eq!(
        restored.profile().fired_total(),
        fired_before,
        "profile must ride the snapshot"
    );
    for wave in &stream.waves[2..] {
        let _ = restored.inject(wave.iter().cloned());
        restored.run_to_stable().expect("wave runs");
    }
    assert_eq!(restored.profile().fired_total(), restored.fired_total());
    assert!(restored.profile().fired_total() > fired_before);

    // The table itself serialises standalone too.
    let table_json = serde_json::to_string(restored.profile()).expect("table serialises");
    let back: ProfileTable = serde_json::from_str(&table_json).expect("table parses");
    assert_eq!(back.fired_total(), restored.profile().fired_total());
}

/// With profiling on, the sequential engines accumulate wall-clock
/// match/action time; with it off (the default), both stay zero even
/// while tracing.
#[test]
fn profiling_times_sequential_waves_only_when_asked() {
    let w = cross_sum(32);
    let mut profiled = Session::build(&w.program)
        .scheduling(Scheduling::Rete)
        .profile(true)
        .start(w.initial.clone())
        .expect("program compiles");
    profiled.run_to_stable().expect("wave runs");
    let timed: u64 = profiled
        .profile()
        .rows
        .iter()
        .map(|r| r.match_ns + r.action_ns)
        .sum();
    assert!(timed > 0, "profiling must accumulate wall-clock time");

    // The sieve is guarded, so the Rete matcher's guard counters flow
    // even without the profile flag.
    let sieve = divisor_sieve(60);
    let mut plain = Session::build(&sieve.program)
        .scheduling(Scheduling::Rete)
        .trace_sink(big_ring())
        .start(sieve.initial.clone())
        .expect("program compiles");
    plain.run_to_stable().expect("wave runs");
    let timed: u64 = plain
        .profile()
        .rows
        .iter()
        .map(|r| r.match_ns + r.action_ns)
        .sum();
    assert_eq!(timed, 0, "timing is opt-in, independent of tracing");
    // Guard counters flow regardless: the Rete matcher counts evals.
    let evals: u64 = plain.profile().rows.iter().map(|r| r.guard_evals).sum();
    assert!(evals > 0, "guard counters flow without the profile flag");
}

/// Switching guard evaluation from the tree walk to the bytecode VM
/// must not change what the guard counters *mean*: the same
/// deterministic Rete run observes identical per-reaction
/// `guard_evals` and `guard_rejects` in either mode.
#[test]
fn guard_counters_conserve_across_vm_and_tree_walk() {
    let w = divisor_sieve(60);
    let observe = |mode: GuardEvalMode| {
        let mut session = Session::build(&w.program)
            .scheduling(Scheduling::Rete)
            .selection(Selection::Deterministic)
            .guard_eval(mode)
            .start(w.initial.clone())
            .expect("program compiles");
        session.run_to_stable().expect("wave runs");
        let counters: Vec<(u64, u64)> = session
            .profile()
            .rows
            .iter()
            .map(|r| (r.guard_evals, r.guard_rejects))
            .collect();
        let result = session.finish();
        assert_eq!(result.multiset, w.expected, "{mode:?}: wrong final");
        counters
    };
    let tree = observe(GuardEvalMode::Tree);
    let vm = observe(GuardEvalMode::Vm);
    assert!(
        tree.iter().any(|(evals, _)| *evals > 0),
        "the sieve must exercise guards"
    );
    assert_eq!(
        vm, tree,
        "VM dispatch must bump exactly the counters the tree walk bumps"
    );
}

/// Tier-up trace events are the itemised form of the session's tier-up
/// counter: one `tier_up` record per re-compiled reaction, reconciling
/// with `vm_tier_ups()`, the per-reaction tier table, and the exported
/// metrics — and a session that never crosses the threshold emits none.
#[test]
fn tier_up_events_reconcile_with_recompile_count() {
    let w = divisor_sieve(60);
    let run = |threshold: u64| {
        let ring = big_ring();
        let mut session = Session::build(&w.program)
            .scheduling(Scheduling::Rete)
            .selection(Selection::Deterministic)
            .vm_tier_threshold(threshold)
            .trace_sink(ring.clone())
            .start(w.initial.clone())
            .expect("program compiles");
        session.run_to_stable().expect("first wave runs");
        let _ = session.inject(w.initial.sorted_elements());
        session.run_to_stable().expect("second wave runs");
        (session, ring)
    };

    // Threshold 1: every reaction that observed work tiers up after the
    // first wave.
    let (session, ring) = run(1);
    assert_eq!(ring.dropped(), 0);
    let records = ring.records();
    let tier_ups = session.vm_tier_ups();
    assert!(tier_ups > 0, "threshold 1 must tier up");
    assert_eq!(
        count_kind(&records, "tier_up"),
        tier_ups,
        "one tier_up event per re-compile"
    );
    let optimized = session
        .vm_tiers()
        .iter()
        .filter(|t| **t == Tier::Optimized)
        .count() as u64;
    assert_eq!(
        optimized, tier_ups,
        "tier table must agree with the tier-up count"
    );
    let prom = session.metrics().to_prometheus();
    assert!(prom.contains(&format!("gamma_vm_tier_ups_total {tier_ups}")));
    assert!(prom.contains("gamma_reaction_vm_tier"));

    // Threshold MAX: tiering disabled, no events, all baseline.
    let (session, ring) = run(u64::MAX);
    assert_eq!(session.vm_tier_ups(), 0);
    assert_eq!(count_kind(&ring.records(), "tier_up"), 0);
    assert!(session.vm_tiers().iter().all(|t| *t == Tier::Baseline));
}

// --------------------------------------------------------------- metrics ----

/// The metrics registry renders both formats and carries the headline
/// counters.
#[test]
fn metrics_render_json_and_prometheus() {
    let w = cross_sum(24);
    let mut session = Session::build(&w.program)
        .engine(Engine::Parallel(ParEngine::ShardedRete))
        .workers(2)
        .start(w.initial.clone())
        .expect("program compiles");
    session.run_to_stable().expect("wave runs");
    let fired = session.fired_total();
    let metrics = session.metrics();

    let json = serde_json::to_string(&metrics.to_json()).expect("metrics serialise");
    assert!(json.contains("gamma_firings_total"));
    assert!(json.contains("gamma_reaction_fired_total"));
    assert!(json.contains(&format!("{fired}")));

    let prom = metrics.to_prometheus();
    assert!(prom.contains("# TYPE gamma_firings_total counter"));
    assert!(prom.contains(&format!("gamma_firings_total {fired}")));
    assert!(prom.contains("gamma_par_deltas_published_total"));
    assert!(prom.contains("reaction="));
}
