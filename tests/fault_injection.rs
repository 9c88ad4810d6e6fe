//! The deterministic fault-injection matrix (requires `--features
//! fault-inject`).
//!
//! Every test here runs a real wave — one worker inline on the calling
//! thread, more on their own threads — with a seeded [`FaultPlan`] armed: workers genuinely panic mid-firing, mailboxes
//! genuinely lose deltas. The engines must catch the unwind, quarantine
//! the poisoned wave, and replay it from the wave-entry multiset — and
//! because the stable multiset is a function of the input history alone
//! (the Kahn-style determinacy argument), every recovered run must land
//! on the byte-identical final of the fault-free sequential reference.
//! Persistent plans keep faulting on every replay attempt and drive the
//! [`RecoveryPolicy::on_exhausted`] terminal actions instead: a clean
//! [`ParError::WorkerLost`] (never a process abort) or a sequential
//! degrade that still finishes exactly.

#![cfg(feature = "fault-inject")]

use gammaflow::gamma::{
    Engine, ExecError, Fault, FaultPlan, OnExhausted, ParEngine, ParError, RecoveryPolicy,
    RingSink, Selection, Session, SessionSnapshot, Status, TraceEvent,
};
use gammaflow::multiset::{Element, ElementBag, Symbol};
use gammaflow::workloads::cross_sum;
use std::sync::Arc;

/// The fault-free sequential reference final for `cross_sum(n)`.
fn reference_final(n: i64) -> ElementBag {
    let w = cross_sum(n);
    let result = Session::build(&w.program)
        .selection(Selection::Deterministic)
        .run(w.initial.clone())
        .expect("reference runs");
    assert_eq!(result.status, Status::Stable);
    result.multiset
}

/// Seeded single-fault plans (worker panics, mailbox drops, mailbox
/// delays at pseudo-random trip points) across both parallel engines and
/// worker counts: every run must recover to the byte-identical reference
/// final, and across the matrix at least one worker must genuinely die
/// and be replayed (the faults are not decorative).
#[test]
fn seeded_fault_matrix_recovers_byte_identical_finals() {
    let w = cross_sum(48);
    let reference = reference_final(48);
    let mut lost = 0u64;
    let mut replayed = 0u64;
    for seed in 0..8u64 {
        for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
            for workers in [1usize, 2, 8] {
                let plan = FaultPlan::seeded(seed, workers);
                let mut session = Session::build(&w.program)
                    .engine(Engine::Parallel(engine))
                    .workers(workers)
                    .faults(plan.clone())
                    .start(w.initial.clone())
                    .expect("program compiles");
                let wv = session.run_to_stable().expect("wave recovers");
                assert_eq!(
                    wv.status,
                    Status::Stable,
                    "seed {seed} {engine:?} x{workers}"
                );
                let result = session.finish_parallel();
                assert_eq!(
                    result.exec.multiset, reference,
                    "seed {seed} {engine:?} x{workers} ({plan:?}): recovered \
                     final diverged from the fault-free reference"
                );
                lost += result.par.workers_lost;
                replayed += result.par.waves_replayed;
            }
        }
    }
    assert!(lost > 0, "the seeded matrix must actually lose workers");
    assert!(
        replayed > 0,
        "lost workers must be recovered by wave replay"
    );
}

/// A targeted worker panic at a guaranteed trip point: the wave replays,
/// reaches the exact reference final, and the session stays usable for
/// further waves afterwards. With a single worker the panic provably
/// trips, so the recovery counters must show it.
#[test]
fn injected_worker_panic_is_recovered_by_wave_replay() {
    let w = cross_sum(48);
    let reference = reference_final(48);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        for workers in [1usize, 2, 8] {
            let plan = FaultPlan::single(
                0,
                Fault::WorkerPanic {
                    worker: 0,
                    at_firing: 1,
                },
            );
            let mut session = Session::build(&w.program)
                .engine(Engine::Parallel(engine))
                .workers(workers)
                .faults(plan)
                .start(w.initial.clone())
                .expect("program compiles");
            let wv = session.run_to_stable().expect("wave replay recovers");
            assert_eq!(wv.status, Status::Stable, "{engine:?} x{workers}");
            // The recovered session is not spent: an (empty) follow-up
            // wave runs cleanly on the rebuilt worker slices.
            let wv = session.run_to_stable().expect("post-recovery wave runs");
            assert_eq!(wv.status, Status::Stable, "{engine:?} x{workers}");
            let result = session.finish_parallel();
            assert_eq!(
                result.exec.multiset, reference,
                "{engine:?} x{workers}: recovered final diverged"
            );
            if workers == 1 {
                assert!(
                    result.par.workers_lost >= 1,
                    "{engine:?}: the sole worker fires first, so the panic must trip"
                );
                assert!(result.par.waves_replayed >= 1, "{engine:?}");
            }
        }
    }
}

/// A dropped mailbox delta desynchronises a worker's Rete slice from the
/// shared bag; the engine treats it as a crashed worker and replays the
/// wave, landing on the reference final (sharded engine — the only one
/// with delta mailboxes).
#[test]
fn mailbox_drop_is_quarantined_and_replayed() {
    let w = cross_sum(48);
    let reference = reference_final(48);
    let mut lost = 0u64;
    for workers in [2usize, 4, 8] {
        let plan = FaultPlan::single(
            0,
            Fault::MailboxDrop {
                worker: 0,
                at_msg: 1,
            },
        );
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(workers)
            .faults(plan)
            .start(w.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("wave replay recovers");
        assert_eq!(wv.status, Status::Stable, "x{workers}");
        let result = session.finish_parallel();
        assert_eq!(result.exec.multiset, reference, "x{workers}");
        lost += result.par.workers_lost;
    }
    assert!(lost > 0, "at least one drop must trip across worker counts");
}

/// A mailbox *delay* harms nothing: the termination consensus keeps the
/// wave alive until the stalled delta lands, no worker is lost, no
/// replay happens, and the final is exact.
#[test]
fn mailbox_delay_only_stalls_the_wave() {
    let w = cross_sum(48);
    let reference = reference_final(48);
    for workers in [2usize, 8] {
        let plan = FaultPlan::single(
            0,
            Fault::MailboxDelay {
                worker: 0,
                at_msg: 1,
                spins: 64,
            },
        );
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(workers)
            .faults(plan)
            .start(w.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("delayed wave completes");
        assert_eq!(wv.status, Status::Stable, "x{workers}");
        let result = session.finish_parallel();
        assert_eq!(result.exec.multiset, reference, "x{workers}");
        assert_eq!(result.par.workers_lost, 0, "a delay is not a crash");
        assert_eq!(result.par.waves_replayed, 0, "x{workers}");
    }
}

/// A fault that recurs on every replay attempt exhausts the recovery
/// budget and surfaces as a clean [`ParError::WorkerLost`] carrying the
/// dead worker and the replay count — the process never aborts.
#[test]
fn persistent_fault_exhausts_replays_into_worker_lost() {
    let w = cross_sum(32);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        let plan = FaultPlan {
            persistent: true,
            ..FaultPlan::single(
                0,
                Fault::WorkerPanic {
                    worker: 0,
                    at_firing: 1,
                },
            )
        };
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(engine))
            .workers(1)
            .faults(plan)
            .recovery(RecoveryPolicy {
                max_replays: 2,
                on_exhausted: OnExhausted::Error,
            })
            .start(w.initial.clone())
            .expect("program compiles");
        let Err(err) = session.run_to_stable() else {
            panic!("{engine:?}: a persistent panic must exhaust recovery");
        };
        let ExecError::Par(ParError::WorkerLost { workers, replays }) = err else {
            panic!("{engine:?}: expected WorkerLost, got {err:?}");
        };
        assert_eq!(workers, vec![0], "{engine:?}");
        assert_eq!(replays, 2, "{engine:?}: both replays must be attempted");
    }
}

/// With `OnExhausted::DegradeToSeq` the same persistent fault ends in a
/// single-threaded completion of the wave instead of an error: exact
/// final, degraded-wave counter bumped, session alive.
#[test]
fn persistent_fault_degrades_to_sequential_completion() {
    let w = cross_sum(32);
    let reference = reference_final(32);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        let plan = FaultPlan {
            persistent: true,
            ..FaultPlan::single(
                0,
                Fault::WorkerPanic {
                    worker: 0,
                    at_firing: 1,
                },
            )
        };
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(engine))
            .workers(1)
            .faults(plan)
            .recovery(RecoveryPolicy {
                max_replays: 1,
                on_exhausted: OnExhausted::DegradeToSeq,
            })
            .start(w.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("degraded wave completes");
        assert_eq!(wv.status, Status::Stable, "{engine:?}");
        // The degraded session keeps taking waves.
        let wv = session.run_to_stable().expect("post-degrade wave runs");
        assert_eq!(wv.status, Status::Stable, "{engine:?}");
        let result = session.finish_parallel();
        assert_eq!(result.exec.multiset, reference, "{engine:?}");
        assert!(result.par.degraded_waves >= 1, "{engine:?}");
        assert!(result.par.waves_replayed >= 1, "{engine:?}");
    }
}

/// The snapshot-mid-wave fault point: `PauseMidWave` stops wave 0 at a
/// deterministic firing count, the paused session crosses the wire via
/// JSON, and the restored session finishes to the fault-free reference —
/// on the sequential engine and both parallel engines.
#[test]
fn pause_mid_wave_snapshot_restore_finishes_exactly() {
    let w = cross_sum(32);
    let reference = reference_final(32);
    for engine in [
        Engine::Seq,
        Engine::Parallel(ParEngine::ShardedRete),
        Engine::Parallel(ParEngine::ProbeRetry),
    ] {
        let plan = FaultPlan::single(0, Fault::PauseMidWave { at_firing: 5 });
        let mut session = Session::build(&w.program)
            .engine(engine)
            .workers(2)
            .faults(plan)
            .start(w.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("paused wave runs");
        assert_eq!(wv.status, Status::BudgetExhausted, "{engine:?}");
        assert!(
            wv.fired >= 5,
            "{engine:?}: the pause must trip at the cap, not before"
        );
        if engine == Engine::Seq {
            assert_eq!(wv.fired, 5, "sequential pause is exact");
        }
        let json = serde_json::to_string(&session.snapshot_state()).expect("snapshot serializes");
        let snap: SessionSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        let mut restored = Session::restore(&w.program, snap).expect("restore succeeds");
        let wv = restored.run_to_stable().expect("resumed wave runs");
        assert_eq!(wv.status, Status::Stable, "{engine:?}");
        assert_eq!(
            restored.finish_parallel().exec.multiset,
            reference,
            "{engine:?}: restore after a mid-wave pause diverged"
        );
    }
}

/// Recovery is observable: with a trace sink attached, the quarantine /
/// replay / degrade events in the stream reconcile exactly with the
/// [`ParStats`](gammaflow::gamma::ParStats) recovery counters, and the
/// armed fault announces itself with a `fault_tripped` record before the
/// panic unwinds.
#[test]
fn recovery_events_reconcile_with_par_stats() {
    let w = cross_sum(32);
    let reference = reference_final(32);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        let ring = Arc::new(RingSink::new(1 << 20));
        let plan = FaultPlan {
            persistent: true,
            ..FaultPlan::single(
                0,
                Fault::WorkerPanic {
                    worker: 0,
                    at_firing: 1,
                },
            )
        };
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(engine))
            .workers(1)
            .faults(plan)
            .recovery(RecoveryPolicy {
                max_replays: 2,
                on_exhausted: OnExhausted::DegradeToSeq,
            })
            .trace_sink(ring.clone())
            .start(w.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("degraded wave completes");
        assert_eq!(wv.status, Status::Stable, "{engine:?}");
        let result = session.finish_parallel();
        assert_eq!(result.exec.multiset, reference, "{engine:?}");
        assert_eq!(ring.dropped(), 0, "{engine:?}: ring must not drop");

        let records = ring.records();
        let mut tripped = 0u64;
        let mut lost = 0u64;
        let mut replayed = 0u64;
        let mut degraded = 0u64;
        for r in &records {
            match &r.event {
                TraceEvent::FaultTripped { .. } => tripped += 1,
                TraceEvent::WaveQuarantined { workers_lost, .. } => lost += workers_lost,
                TraceEvent::WaveReplayed { .. } => replayed += 1,
                TraceEvent::DegradedToSeq { .. } => degraded += 1,
                _ => {}
            }
        }
        assert!(tripped >= 1, "{engine:?}: the armed fault must announce");
        assert_eq!(
            lost, result.par.workers_lost,
            "{engine:?}: quarantine events must carry every lost worker"
        );
        assert_eq!(
            replayed, result.par.waves_replayed,
            "{engine:?}: one replay event per counted replay"
        );
        assert_eq!(
            degraded, result.par.degraded_waves,
            "{engine:?}: one degrade event per degraded wave"
        );
        // The persistent single-worker panic makes the exact shape known:
        // initial attempt + 2 replays all die, then the degrade.
        assert_eq!(lost, 3, "{engine:?}");
        assert_eq!(replayed, 2, "{engine:?}");
        assert_eq!(degraded, 1, "{engine:?}");
    }
}

/// Worker loss with no replay point (`RecoveryPolicy::disabled()`): the
/// wave surfaces `WorkerLost { replays: 0 }` at once, and the bag keeps
/// the partial wave's committed claims. Each claim is one Γ step of the
/// fold, so the values still sum to the initial total.
#[test]
fn worker_loss_without_replay_point_keeps_committed_claims() {
    let n = 32i64;
    let w = cross_sum(n);
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        let plan = FaultPlan::single(
            0,
            Fault::WorkerPanic {
                worker: 0,
                at_firing: 1,
            },
        );
        let mut session = Session::build(&w.program)
            .engine(Engine::Parallel(engine))
            .workers(1)
            .faults(plan)
            .recovery(RecoveryPolicy::disabled())
            .start(w.initial.clone())
            .expect("program compiles");
        let Err(err) = session.run_to_stable() else {
            panic!("{engine:?}: the sole worker fires first, so the panic must trip");
        };
        let ExecError::Par(ParError::WorkerLost { workers, replays }) = err else {
            panic!("{engine:?}: expected WorkerLost, got {err:?}");
        };
        assert_eq!((workers, replays), (vec![0], 0), "{engine:?}");
        let snapshot = session.snapshot();
        let sum: i64 = snapshot
            .iter()
            .map(|e| e.value.as_int().expect("integer fold"))
            .sum();
        assert_eq!(sum, n * (n + 1) / 2, "{engine:?}");
        assert_eq!(snapshot.len(), n as usize - 1, "{engine:?}: one claim");
        assert_eq!(session.bag_len(), snapshot.len(), "{engine:?}");
    }
}

/// A worker lost deep into a wave, with the wave's claims journaled
/// among 10⁴ bystander elements on a label no reaction reads: the
/// rollback undoes every committed claim, the replay lands on the
/// fault-free reference, the bystanders come through untouched and the
/// live count is exact. One worker runs inline on the calling thread,
/// two run on their own threads; a panic at each worker's fifth firing
/// trips in either case, since ≥ 9 firings give one worker ≥ 5.
#[test]
fn worker_lost_after_several_claims_rolls_back_exactly() {
    let w = cross_sum(48);
    let bystanders: Vec<Element> = (0..10_000).map(|v| Element::pair(v, "bystander")).collect();
    let mut initial = w.initial.clone();
    initial.extend(bystanders.iter().cloned());
    let reference = Session::build(&w.program)
        .selection(Selection::Deterministic)
        .run(initial.clone())
        .expect("reference runs")
        .multiset;
    assert_eq!(reference.len(), 1 + bystanders.len());
    for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
        for workers in [1usize, 2] {
            let plan = FaultPlan {
                faults: (0..workers)
                    .map(|worker| Fault::WorkerPanic {
                        worker,
                        at_firing: 5,
                    })
                    .collect(),
                ..FaultPlan::default()
            };
            let mut session = Session::build(&w.program)
                .engine(Engine::Parallel(engine))
                .workers(workers)
                .faults(plan)
                .start(initial.clone())
                .expect("program compiles");
            let wv = session.run_to_stable().expect("wave replay recovers");
            assert_eq!(wv.status, Status::Stable, "{engine:?} x{workers}");
            // The replay starts from the whole entry multiset: it fires
            // every one of the fold's 47 steps, none left done by the
            // lost attempt.
            assert_eq!(wv.fired, 47, "{engine:?} x{workers}");
            assert_eq!(session.bag_len(), reference.len(), "{engine:?} x{workers}");
            let result = session.finish_parallel();
            assert!(
                result.par.workers_lost >= 1 && result.par.waves_replayed >= 1,
                "{engine:?} x{workers}: the panic must trip and be replayed"
            );
            assert_eq!(
                result.exec.multiset, reference,
                "{engine:?} x{workers}: replayed final diverged"
            );
            let label = Symbol::intern("bystander");
            let kept = result.exec.multiset.project(|l| l == label);
            assert_eq!(kept, bystanders.iter().cloned().collect::<ElementBag>());
        }
    }
}
