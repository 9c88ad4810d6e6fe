//! `gammad` service semantics: multiplexing many tenants over shared
//! process resources must be invisible to every individual stream.
//!
//! The load-bearing property is a service-level restatement of the
//! Generalized Kahn Principle the session layer already proves:
//! stream-connected engines that progress independently interleave
//! without changing any one stream's semantics. Concretely, a tenant's
//! final multiset must be **byte-identical** to a standalone session
//! fed the same waves — regardless of how many other tenants share the
//! service, how many threads inject and drive waves, whether its waves
//! leased parked pool workers or spawned fresh threads, and whether it
//! was evicted to a snapshot and restored mid-stream.
//!
//! The second half pins the exact `InjectOutcome` contract the service
//! builds its backpressure on: admission is measured against the *live
//! bag* only (a budget-paused or fully-drained session admits like any
//! other), `Spilled` returns exactly the overflow, and `drain_stable`
//! mid-backpressure frees budget without touching matcher state.

use gammaflow::gamma::{
    Engine, EngineConfig, InjectOutcome, ParEngine, Scheduling, Selection, Session, Status,
};
use gammaflow::multiset::{Element, ElementBag};
use gammaflow::service::{ServiceConfig, ServiceRuntime};
use gammaflow::workloads::windowed_sum;

/// The engine matrix every service-transparency test runs over:
/// deterministic and seeded sequential engines plus the sharded
/// parallel engine (whose waves exercise the parked pool).
fn engine_matrix() -> Vec<(&'static str, EngineConfig)> {
    vec![
        (
            "seq/rete/det",
            EngineConfig {
                engine: Engine::Seq,
                scheduling: Scheduling::Rete,
                selection: Selection::Deterministic,
                ..EngineConfig::default()
            },
        ),
        (
            "seq/rescan/seeded",
            EngineConfig {
                engine: Engine::Seq,
                scheduling: Scheduling::Rescan,
                selection: Selection::Seeded(11),
                ..EngineConfig::default()
            },
        ),
        (
            "par/sharded",
            EngineConfig {
                engine: Engine::Parallel(ParEngine::ShardedRete),
                workers: 2,
                ..EngineConfig::default()
            },
        ),
    ]
}

/// Run `tenant_waves[i]` through a standalone session under `config`
/// and return the final multiset — the anchor every service-side
/// execution must reproduce byte-for-byte.
fn standalone_final(
    program: &gammaflow::gamma::GammaProgram,
    config: &EngineConfig,
    initial: &ElementBag,
    waves: &[Vec<Element>],
) -> ElementBag {
    let mut session = Session::build(program)
        .config(config.clone())
        .start(initial.clone())
        .expect("program compiles");
    for wave in waves {
        let _ = session.inject(wave.iter().cloned());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable);
    }
    session.finish().multiset
}

/// N tenants injected and driven from M threads concurrently: every
/// tenant's final is byte-identical to its standalone run, for the
/// whole engine matrix (deterministic, seeded, parallel). Each tenant
/// carries a distinct windowed-sum stream so a cross-tenant mixup can
/// not cancel out.
#[test]
fn n_tenants_from_m_threads_match_standalone_finals() {
    const TENANTS: usize = 12;
    const THREADS: usize = 4;
    for (name, config) in &engine_matrix() {
        let streams: Vec<_> = (0..TENANTS)
            .map(|i| windowed_sum(3, 4, 3, 100 + i as u64))
            .collect();
        let expected: Vec<ElementBag> = streams
            .iter()
            .map(|w| standalone_final(&w.program, config, &w.initial, &w.waves))
            .collect();

        let svc = ServiceRuntime::with_defaults();
        for (i, w) in streams.iter().enumerate() {
            svc.register(
                &format!("t{i}"),
                &w.program,
                config.clone(),
                w.initial.clone(),
            )
            .expect("tenant registers");
        }
        // Each thread owns a tenant partition for *injection* but
        // drives *anyone's* waves off the shared ready queue — the
        // multiplexing under test.
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let svc = &svc;
                let streams = &streams;
                scope.spawn(move || {
                    let wave_count = streams[0].waves.len();
                    for w in 0..wave_count {
                        for i in (t..TENANTS).step_by(THREADS) {
                            let outcome = svc
                                .inject(&format!("t{i}"), streams[i].waves[w].iter().cloned())
                                .expect("tenant known");
                            assert!(outcome.is_accepted(), "unbudgeted inject admits");
                        }
                        while let Some(report) = svc.run_next_wave().expect("wave runs") {
                            assert_eq!(report.wave.status, Status::Stable, "{name}");
                        }
                    }
                });
            }
        });
        // Catch waves injected after another thread saw an empty queue.
        svc.drive_until_quiet().expect("residual waves run");

        for (i, expect) in expected.iter().enumerate() {
            let result = svc.finish(&format!("t{i}")).expect("tenant finishes");
            assert_eq!(
                &result.multiset, expect,
                "{name}: tenant {i} diverged from its standalone run"
            );
            assert_eq!(
                result.multiset, streams[i].expected,
                "{name}: tenant {i} diverged from the workload self-check"
            );
        }
    }
}

/// Eviction to a snapshot and transparent restore-on-inject mid-stream
/// leave the final byte-identical to a never-evicted service tenant and
/// to the standalone session — across the engine matrix.
#[test]
fn eviction_and_restore_mid_stream_are_transparent() {
    for (name, config) in &engine_matrix() {
        let w = windowed_sum(4, 3, 3, 77);
        let expected = standalone_final(&w.program, config, &w.initial, &w.waves);

        let svc = ServiceRuntime::with_defaults();
        svc.register("ev", &w.program, config.clone(), w.initial.clone())
            .expect("tenant registers");
        svc.register("ctl", &w.program, config.clone(), w.initial.clone())
            .expect("control registers");
        for (i, wave) in w.waves.iter().enumerate() {
            let _ = svc.inject("ev", wave.iter().cloned()).expect("known");
            let _ = svc.inject("ctl", wave.iter().cloned()).expect("known");
            svc.drive_until_quiet().expect("waves run");
            // Evict mid-stream (not after the last wave, so the restore
            // provably happens with waves still to come).
            if i == 1 {
                assert!(svc.evict("ev").expect("known"), "{name}: evicts");
                assert_eq!(svc.census(), (1, 1), "{name}");
            }
        }
        let evicted = svc.finish("ev").expect("finishes").multiset;
        let control = svc.finish("ctl").expect("finishes").multiset;
        assert_eq!(evicted, control, "{name}: eviction changed the stream");
        assert_eq!(evicted, expected, "{name}: diverged from standalone");
    }
}

/// Service-level backpressure convergence: a tenant whose bag budget
/// spills on every batch still computes the unbudgeted standalone
/// result once the caller drains stable output downstream and
/// re-injects the overflow — across the engine matrix.
#[test]
fn spill_drain_reinject_converges_to_the_unbudgeted_final() {
    use gammaflow::gamma::{ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec};
    use gammaflow::multiset::value::BinOp;
    // An element-independent map program, so draining stable outputs
    // between batches never splits a pending match.
    let program = GammaProgram::new(vec![ReactionSpec::new("double")
        .replace(Pattern::pair("x", "in"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(2)),
            "out",
        )])]);
    let input: Vec<Element> = (0..30).map(|v| Element::pair(v, "in")).collect();

    for (name, config) in &engine_matrix() {
        let unbudgeted = standalone_final(
            &program,
            config,
            &ElementBag::new(),
            std::slice::from_ref(&input),
        );

        let svc = ServiceRuntime::new(ServiceConfig {
            default_bag_budget: 8,
            ..ServiceConfig::default()
        })
        .expect("no trace file configured");
        svc.register("bp", &program, config.clone(), ElementBag::new())
            .expect("tenant registers");
        let mut pending = input.clone();
        let mut outputs = ElementBag::new();
        let mut spilled_batches = 0;
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 20, "{name}: backpressure loop did not converge");
            let before = pending.len();
            pending = svc.inject("bp", pending).expect("known").spilled();
            assert!(pending.len() < before, "{name}: every round admits");
            if !pending.is_empty() {
                spilled_batches += 1;
            }
            svc.drive_until_quiet().expect("waves run");
            outputs.absorb(svc.drain("bp").expect("known"));
        }
        svc.drive_until_quiet().expect("waves run");
        outputs.absorb(svc.drain("bp").expect("known"));
        assert!(spilled_batches > 0, "{name}: budget never bit");
        assert_eq!(outputs, unbudgeted, "{name}: converged final diverged");
    }
}

// ---------------------------------------------------------------------
// Exact InjectOutcome semantics at the session layer — the contract the
// service's backpressure and eviction paths are built on.
// ---------------------------------------------------------------------

/// A firing-hungry countdown program: `x@n, x > 0  ->  (x-1)@n`, one
/// firing per unit, so small step budgets pause it mid-stream.
fn countdown() -> gammaflow::gamma::GammaProgram {
    use gammaflow::gamma::{ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec};
    use gammaflow::multiset::value::{BinOp, CmpOp};
    GammaProgram::new(vec![ReactionSpec::new("dec")
        .replace(Pattern::pair("x", "n"))
        .where_(Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::int(0)))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Sub, Expr::var("x"), Expr::int(1)),
            "n",
        )])])
}

/// Injecting into a `Status::BudgetExhausted` session admits against
/// the live bag exactly as into a stable one: the pause freezes firing,
/// not admission. With room the outcome is `Accepted`; past the bag
/// budget it is `Spilled` with exactly the overflow in iteration order;
/// and after a grant the merged stream finishes to the same final as a
/// never-paused run.
#[test]
fn inject_on_budget_exhausted_admits_against_live_bag_only() {
    let program = countdown();
    let initial: ElementBag = [Element::pair(10, "n")].into_iter().collect();

    let mut session = Session::build(&program)
        .budget(3)
        .bag_budget(4)
        .start(initial.clone())
        .expect("program compiles");
    let wv = session.run_to_stable().expect("wave runs");
    assert_eq!(wv.status, Status::BudgetExhausted);
    assert_eq!(session.bag_len(), 1, "countdown keeps one element");

    // Room for 3 more under the bag budget of 4: a 5-element batch
    // admits 3 and spills exactly the last 2, order preserved.
    let batch: Vec<Element> = (1..=5).map(|v| Element::pair(v, "n")).collect();
    let InjectOutcome::Spilled(rest) = session.inject(batch.clone()) else {
        panic!("overflow past the bag budget must spill");
    };
    assert_eq!(rest, batch[3..].to_vec(), "exactly the overflow, in order");
    assert_eq!(session.bag_len(), 4);
    assert_eq!(session.status(), Status::BudgetExhausted, "still paused");

    // The admitted prefix plus grants converges to the unconstrained
    // final on the same merged input.
    session.grant_budget(u64::MAX / 2);
    let wv = session.run_to_stable().expect("wave runs");
    assert_eq!(wv.status, Status::Stable);
    let reference: ElementBag = {
        let mut s = Session::build(&program)
            .start(initial)
            .expect("program compiles");
        let _ = s.inject(batch[..3].iter().cloned());
        s.run_to_stable().expect("wave runs");
        s.finish().multiset
    };
    assert_eq!(session.finish().multiset, reference);
}

/// `drain_stable` mid-backpressure: the drain returns the whole stable
/// bag, frees the bag budget immediately (a previously-spilled batch
/// re-injects as `Accepted` in full), and keeps matcher state live —
/// the post-drain wave fires on the re-injected elements without a
/// rebuild, and injecting into the drained-empty session is `Accepted`.
#[test]
fn drain_stable_mid_backpressure_frees_budget_and_keeps_matcher_state() {
    let program = countdown();
    let mut session = Session::build(&program)
        .bag_budget(3)
        .start(ElementBag::new())
        .expect("program compiles");

    let batch: Vec<Element> = vec![
        Element::pair(2, "n"),
        Element::pair(1, "n"),
        Element::pair(3, "n"),
        Element::pair(2, "n"),
        Element::pair(4, "n"),
    ];
    let InjectOutcome::Spilled(rest) = session.inject(batch.clone()) else {
        panic!("5 elements against a budget of 3 must spill");
    };
    assert_eq!(rest, batch[3..].to_vec());
    session.run_to_stable().expect("wave runs");
    assert_eq!(session.status(), Status::Stable);

    // Mid-backpressure drain: whole stable bag out, budget freed.
    let drained = session.drain_stable();
    assert_eq!(drained.len(), 3, "all three zeroes drained");
    assert_eq!(drained.count(&Element::pair(0, "n")), 3);
    assert_eq!(session.bag_len(), 0);

    // The spilled overflow now admits in full...
    assert!(session.inject(rest).is_accepted(), "drain freed the budget");
    // ...and the persistent matcher fires on it immediately.
    let wv = session.run_to_stable().expect("wave runs");
    assert_eq!(wv.status, Status::Stable);
    assert_eq!(wv.fired, 2 + 4, "countdown of the re-injected 2 and 4");
    assert_eq!(session.snapshot().count(&Element::pair(0, "n")), 2);

    // Injecting into the drained-then-stable session stays `Accepted`.
    let _ = session.drain_stable();
    assert!(session.inject([Element::pair(1, "n")]).is_accepted());
    let wv = session.run_to_stable().expect("wave runs");
    assert_eq!(wv.fired, 1, "drained session keeps reacting");
}
