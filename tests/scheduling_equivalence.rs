//! Scheduling regression: the incremental engines (delta worklist and
//! rete join network) must be observationally indistinguishable from the
//! rescanning reference.
//!
//! On random converted-dataflow programs, the classic Gamma repertoire,
//! and the guard-heavy join workloads:
//!
//! * under any selection policy, all engines reach the same stable
//!   multiset (byte-identical, not just projected);
//! * under `Selection::Deterministic`, both incremental engines replay the
//!   rescanning reference's *exact firing trace* — the delta scheduler
//!   only skips provably-disabled reactions, and the rete network only
//!   answers "which reaction is enabled" from memory; neither changes a
//!   choice.

use gammaflow::core::dataflow_to_gamma;
use gammaflow::gamma::{
    CompiledProgram, Engine, EngineConfig, ExecError, ExecResult, GammaProgram, MatchError,
    ParEngine, Scheduling, Selection, Session, SessionBuilder, Status, DEFAULT_SPILL_WATERMARK,
};
use gammaflow::multiset::ElementBag;
use gammaflow::workloads::{
    accumulator_loop, cross_sum, divisor_sieve, exchange_sort, gcd, interval_merge, maximum,
    minimum, primes, random_dag, sum, triangles, windowed_sum, DagParams,
};
use proptest::prelude::*;

fn run_with(
    program: &GammaProgram,
    initial: &ElementBag,
    selection: Selection,
    scheduling: Scheduling,
) -> ExecResult {
    Session::build(program)
        .config(EngineConfig {
            selection,
            scheduling,
            record_trace: true,
            ..EngineConfig::default()
        })
        .run(initial.clone())
        .expect("run succeeds")
}

/// Deterministic selection: trace-identical replay for every incremental
/// engine against the rescanning reference.
fn assert_trace_identical(program: &GammaProgram, initial: &ElementBag) {
    let rescan = run_with(
        program,
        initial,
        Selection::Deterministic,
        Scheduling::Rescan,
    );
    for scheduling in [Scheduling::Delta, Scheduling::Rete] {
        let engine = run_with(program, initial, Selection::Deterministic, scheduling);
        assert_eq!(rescan.status, engine.status, "{scheduling:?} status");
        assert_eq!(rescan.multiset, engine.multiset, "{scheduling:?} multiset");
        assert_eq!(
            rescan.stats.firings_per_reaction, engine.stats.firings_per_reaction,
            "{scheduling:?}: per-reaction firing counts diverged"
        );
        assert_eq!(
            rescan.trace, engine.trace,
            "{scheduling:?}: deterministic traces diverged — the engine changed a selection"
        );
    }
}

/// Seeded selection: same stable multiset on confluent programs, across
/// every engine.
fn assert_confluent_outcome(program: &GammaProgram, initial: &ElementBag, seed: u64) {
    let rescan = run_with(
        program,
        initial,
        Selection::Seeded(seed),
        Scheduling::Rescan,
    );
    assert_eq!(rescan.status, Status::Stable);
    for scheduling in [Scheduling::Delta, Scheduling::Rete] {
        let engine = run_with(program, initial, Selection::Seeded(seed), scheduling);
        assert_eq!(engine.status, Status::Stable);
        assert_eq!(
            rescan.multiset, engine.multiset,
            "{scheduling:?}: stable multisets diverged under seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random converted-dataflow programs: deterministic delta scheduling
    /// replays the rescanning trace exactly.
    #[test]
    fn prop_delta_replays_rescan_trace(
        seed in 0u64..10_000,
        roots in 2usize..6,
        layers in 1usize..4,
        width in 1usize..6,
    ) {
        let dag = random_dag(seed, &DagParams { roots, layers, width, range: 1000 });
        let conv = dataflow_to_gamma(&dag.graph).expect("conversion succeeds");
        assert_trace_identical(&conv.program, &conv.initial);
    }

    /// Random converted-dataflow programs under seeded nondeterminism:
    /// both engines stabilise on the same multiset (the programs are
    /// confluent by construction — they compute the DAG's outputs).
    #[test]
    fn prop_delta_matches_rescan_seeded(
        seed in 0u64..10_000,
        run_seed in 0u64..64,
    ) {
        let dag = random_dag(seed, &DagParams::default());
        let conv = dataflow_to_gamma(&dag.graph).expect("conversion succeeds");
        assert_confluent_outcome(&conv.program, &conv.initial, run_seed);
    }
}

#[test]
fn classic_workloads_trace_identical_deterministic() {
    let workloads = [
        minimum(&[9, 4, 7, 1, 8, 4]),
        maximum(&[3, 99, 7, 42]),
        sum(&(1..=40).collect::<Vec<i64>>()),
        gcd(&[12, 18, 30]),
        primes(120),
        exchange_sort(&[9, 1, 8, 2, 7, 3], 11),
    ];
    for w in &workloads {
        assert_trace_identical(&w.program, &w.initial);
    }
}

#[test]
fn join_workloads_trace_identical_deterministic() {
    let workloads = [
        divisor_sieve(120),
        triangles(5, 8),
        interval_merge(&[(1, 3), (2, 6), (8, 10), (10, 12), (20, 25)]),
    ];
    for w in &workloads {
        assert_trace_identical(&w.program, &w.initial);
    }
}

#[test]
fn classic_workloads_agree_seeded() {
    let workloads = [
        minimum(&[5, 2, 8, 2]),
        sum(&(1..=30).collect::<Vec<i64>>()),
        primes(80),
    ];
    for w in &workloads {
        for seed in 0..4 {
            assert_confluent_outcome(&w.program, &w.initial, seed);
        }
    }
}

#[test]
fn join_workloads_agree_seeded() {
    let workloads = [
        divisor_sieve(80),
        triangles(4, 6),
        interval_merge(&[(0, 5), (4, 9), (9, 9), (11, 12), (12, 14)]),
    ];
    for w in &workloads {
        for seed in 0..4 {
            assert_confluent_outcome(&w.program, &w.initial, seed);
        }
    }
}

#[test]
fn rete_is_the_default_scheduler() {
    // End-to-end: the default configuration runs on the rete join
    // network (with automatic spill) and computes the workloads'
    // self-check references.
    assert_eq!(Scheduling::default(), Scheduling::Rete);
    for w in [minimum(&[6, 1, 9]), sum(&[1, 2, 3, 4]), primes(60)] {
        let result = Session::build(&w.program)
            .selection(Selection::Seeded(3))
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected, "workload {}", w.name);
        let rete = result.rete.expect("rete scheduling is the default");
        assert!(rete.tokens_created > 0);
    }
}

#[test]
fn delta_engine_reaches_expected_results() {
    // End-to-end: the delta worklist engine computes the workloads'
    // self-check references.
    for w in [minimum(&[6, 1, 9]), sum(&[1, 2, 3, 4]), primes(60)] {
        let result = Session::build(&w.program)
            .config(EngineConfig {
                selection: Selection::Seeded(3),
                scheduling: Scheduling::Delta,
                ..EngineConfig::default()
            })
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected, "workload {}", w.name);
        let sched = result.sched.expect("delta scheduling reports its stats");
        assert!(sched.full_searches > 0);
        assert!(sched.authoritative_confirms >= 1);
    }
}

/// One wave in maximal parallel steps: the result plus the per-step
/// firing counts.
fn run_max_parallel(builder: SessionBuilder<'_>, initial: ElementBag) -> (ExecResult, Vec<usize>) {
    let mut session = builder.start(initial).expect("program compiles");
    let (_, profile) = session.run_to_stable_max_parallel().expect("run succeeds");
    (session.finish(), profile)
}

#[test]
fn max_parallel_budget_counts_each_firing_once() {
    // 64 pairable elements: the first maximal step has 32 enabled
    // firings. A budget of 20 must allow exactly 20 firings (the old
    // check double-counted the in-step firings and stopped at 10).
    let w = sum(&(1..=64).collect::<Vec<i64>>());
    for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
        let (result, _profile) = run_max_parallel(
            Session::build(&w.program)
                .budget(20)
                .selection(Selection::Deterministic)
                .scheduling(scheduling),
            w.initial.clone(),
        );
        assert_eq!(result.status, Status::BudgetExhausted);
        assert_eq!(
            result.stats.firings_total(),
            20,
            "{scheduling:?} must consume the budget exactly"
        );
    }
}

#[test]
fn max_parallel_steps_agree_across_schedulers() {
    let w = sum(&(1..=16).collect::<Vec<i64>>());
    let run = |scheduling| {
        run_max_parallel(
            Session::build(&w.program)
                .selection(Selection::Deterministic)
                .scheduling(scheduling),
            w.initial.clone(),
        )
    };
    let (rescan, rescan_profile) = run(Scheduling::Rescan);
    let (delta, delta_profile) = run(Scheduling::Delta);
    let (rete, rete_profile) = run(Scheduling::Rete);
    assert_eq!(rescan.multiset, delta.multiset);
    assert_eq!(rescan.multiset, rete.multiset);
    assert_eq!(rescan_profile, delta_profile);
    assert_eq!(rescan_profile, rete_profile);
    assert_eq!(rescan_profile, vec![8, 4, 2, 1]);
}

#[test]
fn rete_engine_reaches_expected_results_with_stats() {
    // End-to-end: the rete engine computes the workloads' self-check
    // references and reports join-network counters.
    for w in [
        minimum(&[6, 1, 9]),
        divisor_sieve(60),
        triangles(3, 4),
        primes(60),
    ] {
        let result = Session::build(&w.program)
            .config(EngineConfig {
                selection: Selection::Seeded(3),
                scheduling: Scheduling::Rete,
                ..EngineConfig::default()
            })
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected, "workload {}", w.name);
        let rete = result.rete.expect("rete scheduling reports its stats");
        assert!(rete.tokens_created > 0, "{}: no tokens built", w.name);
        assert!(
            rete.tokens_created >= rete.tokens_retired,
            "{}: retired more than created",
            w.name
        );
    }
}

/// A program whose rete memory *grows* mid-run: stage-0 `expand`
/// reactions turn each seed into two `n` elements, and the unguarded
/// `sum` fold's pair memory grows quadratically as they appear — sized so
/// a small watermark is crossed well after the first firing.
fn expanding_sum(seeds: i64) -> (GammaProgram, ElementBag) {
    use gammaflow::gamma::{ElementSpec, Pattern, ReactionSpec};
    use gammaflow::multiset::value::BinOp;
    use gammaflow::multiset::Element;
    let program = GammaProgram::new(vec![
        ReactionSpec::new("expand")
            .replace(Pattern::pair("x", "seed"))
            .by(vec![
                ElementSpec::pair(gammaflow::gamma::Expr::var("x"), "n"),
                ElementSpec::pair(
                    gammaflow::gamma::Expr::bin(
                        BinOp::Add,
                        gammaflow::gamma::Expr::var("x"),
                        gammaflow::gamma::Expr::int(100),
                    ),
                    "n",
                ),
            ]),
        ReactionSpec::new("sum")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .by(vec![ElementSpec::pair(
                gammaflow::gamma::Expr::bin(
                    BinOp::Add,
                    gammaflow::gamma::Expr::var("x"),
                    gammaflow::gamma::Expr::var("y"),
                ),
                "n",
            )]),
    ]);
    let initial: ElementBag = (1..=seeds).map(|v| Element::pair(v, "seed")).collect();
    (program, initial)
}

#[test]
fn watermark_crossing_mid_run_stays_trace_equal() {
    // The spill threshold is crossed while the run is in flight (the
    // deterministic schedule fires all expands first, growing the sum
    // fold's pair memory past 200 tokens around seed 8 of 20): the
    // spilled engine must keep replaying the rescanning reference's
    // exact trace, because frontier-completion enabledness is exact.
    let (program, initial) = expanding_sum(20);
    let config = EngineConfig {
        selection: Selection::Deterministic,
        scheduling: Scheduling::Rete,
        record_trace: true,
        rete_watermark: 200,
        ..EngineConfig::default()
    };
    let rete = Session::build(&program)
        .config(config.clone())
        .run(initial.clone())
        .unwrap();
    let rete_stats = rete.rete.clone().unwrap();
    assert!(
        rete_stats.spill_demotions > 0,
        "the workload must actually cross the watermark: {rete_stats:?}"
    );
    assert!(
        rete_stats.tokens_created > 40,
        "memory grew before the spill: {rete_stats:?}"
    );
    let rescan = run_with(
        &program,
        &initial,
        Selection::Deterministic,
        Scheduling::Rescan,
    );
    assert_eq!(rescan.status, rete.status);
    assert_eq!(rescan.multiset, rete.multiset);
    assert_eq!(
        rescan.trace, rete.trace,
        "spill-to-search changed a deterministic selection"
    );
}

#[test]
fn watermark_crossing_mid_run_agrees_seeded() {
    // Same workload under seeded selection: finals must stay
    // byte-identical to the rescanning reference (the program is
    // confluent — expansion commutes with the associative fold).
    let (program, initial) = expanding_sum(20);
    for seed in 0..4 {
        let run = |scheduling, watermark| {
            Session::build(&program)
                .config(EngineConfig {
                    selection: Selection::Seeded(seed),
                    scheduling,
                    rete_watermark: watermark,
                    ..EngineConfig::default()
                })
                .run(initial.clone())
                .unwrap()
        };
        let rescan = run(Scheduling::Rescan, 200);
        let rete = run(Scheduling::Rete, 200);
        assert_eq!(rescan.status, Status::Stable);
        assert_eq!(rete.status, Status::Stable);
        assert_eq!(
            rescan.multiset, rete.multiset,
            "seed {seed}: spilled rete diverged from rescan"
        );
        assert!(rete.rete.unwrap().spill_demotions > 0, "seed {seed}");
    }
}

#[test]
fn adversarial_cross_sum_peak_tokens_bounded_by_watermark() {
    // The unguarded n² fold: an unbounded network would memorise
    // n·(n-1) = 35,532 tokens at n = 189; the watermark must bound the
    // peak to watermark + one insert event's burst (≤ 2n tokens) while
    // the fold still reaches its self-check total.
    let w = cross_sum(189);
    let n = 189u64;
    let watermark = 2_000usize;
    let result = Session::build(&w.program)
        .config(EngineConfig {
            selection: Selection::Seeded(1),
            scheduling: Scheduling::Rete,
            rete_watermark: watermark,
            ..EngineConfig::default()
        })
        .run(w.initial.clone())
        .unwrap();
    assert_eq!(result.status, Status::Stable);
    assert_eq!(result.multiset, w.expected);
    let rete = result.rete.unwrap();
    assert!(rete.spill_demotions > 0, "{rete:?}");
    assert!(
        rete.peak_live_tokens <= watermark as u64 + 2 * n,
        "peak {} tokens exceeds watermark {} + event burst {}",
        rete.peak_live_tokens,
        watermark,
        2 * n
    );
}

/// The parallel-engine matrix: both worker loops (sampled probe-retry
/// and delta-driven sharded rete), across worker counts, must land on
/// the byte-identical stable multiset the sequential reference computes
/// — these workloads are confluent, so the final state is
/// schedule-independent even though parallel interleavings are not.
#[test]
fn parallel_matrix_byte_identical_finals() {
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
        cross_sum(40),
        divisor_sieve(80),
        triangles(4, 6),
        interval_merge(&[(1, 3), (2, 6), (8, 10), (10, 12), (20, 25)]),
    ] {
        workloads.push((w.name.to_string(), w.program, w.initial));
    }
    for (name, program, initial) in &workloads {
        let reference = run_with(program, initial, Selection::Deterministic, Scheduling::Rete);
        assert_eq!(reference.status, Status::Stable, "{name}");
        for workers in [1usize, 2, 8] {
            for engine in [ParEngine::ProbeRetry, ParEngine::ShardedRete] {
                let config = EngineConfig {
                    workers,
                    engine: Engine::Parallel(engine),
                    seed: 7,
                    ..EngineConfig::default()
                };
                let result = Session::build(program)
                    .config(config)
                    .run(initial.clone())
                    .unwrap_or_else(|e| panic!("{name} {engine:?} x{workers}: {e}"));
                assert_eq!(
                    result.status,
                    Status::Stable,
                    "{name} {engine:?} x{workers}"
                );
                assert_eq!(
                    result.multiset, reference.multiset,
                    "{name} {engine:?} x{workers}: finals diverged from the sequential reference"
                );
            }
        }
    }
}

/// The sharded engine's per-worker slices honour the spill watermark:
/// the adversarial n² fold must keep every slice's peak beta tokens
/// within the watermark plus one delta burst, and the spill counters
/// (including the ones the old aggregation dropped) must be visible.
#[test]
fn parallel_sharded_per_shard_tokens_bounded_by_watermark() {
    let n = 150i64;
    let w = cross_sum(n);
    let watermark = 1_000usize;
    let config = EngineConfig {
        engine: Engine::Parallel(ParEngine::ShardedRete),
        workers: 4,
        rete_watermark: watermark,
        seed: 1,
        ..EngineConfig::default()
    };
    let mut session = Session::build(&w.program)
        .config(config)
        .start(w.initial.clone())
        .unwrap();
    session.run_to_stable().unwrap();
    let result = session.finish_parallel();
    assert_eq!(result.exec.status, Status::Stable);
    assert_eq!(result.exec.multiset, w.expected, "cross_sum self-check");
    let par = &result.par;
    assert!(par.spill_demotions > 0, "{par:?}");
    assert!(par.spill_probes > 0, "{par:?}");
    assert_eq!(par.shard_peak_tokens.len(), 4);
    for (i, &peak) in par.shard_peak_tokens.iter().enumerate() {
        assert!(
            peak <= (watermark as u64) + 2 * n as u64,
            "shard {i} peak {peak} exceeds watermark {watermark} + delta burst: {par:?}"
        );
    }
}

#[test]
fn rete_guard_pushdown_is_observable_on_triangles() {
    // The 3-ary triangle reaction's b-consistency conjunct is bound at
    // join level 1; the network must reject star-edge pairs there instead
    // of enumerating the full edge³ product.
    let w = triangles(2, 10);
    let result = Session::build(&w.program)
        .config(EngineConfig {
            selection: Selection::Seeded(0),
            scheduling: Scheduling::Rete,
            ..EngineConfig::default()
        })
        .run(w.initial.clone())
        .unwrap();
    assert_eq!(result.multiset, w.expected);
    let rete = result.rete.unwrap();
    assert!(
        rete.guard_rejects > 0,
        "pushdown conjuncts should prune star-edge joins: {rete:?}"
    );
}

/// A 10^5-element guard-heavy stream through the interned-arena storage
/// path: the rete engine and the sharded parallel engine must land on
/// byte-identical finals. The workload is confluent (every element
/// fires independently, at most once), so seeded sessions are the right
/// vehicle at this size — deterministic-selection enumeration re-sorts
/// the full candidate set per firing and is quadratic at 10^5; smaller
/// suites pin trace equality. The delta scheduler is cross-checked at
/// the full 10^5: its post-firing re-search resumes from a per-bucket
/// frontier cursor (single-position reactions skip rows already proven
/// dead or permanently guard-rejected), which removed the old
/// restart-from-bucket-head quadratic. The stabilised bag also
/// round-trips through a snapshot, re-interning on restore to the
/// identical bytes.
#[test]
fn large_stream_100k_elements_byte_identical() {
    use gammaflow::gamma::{ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec};
    use gammaflow::multiset::value::{BinOp, CmpOp};
    use gammaflow::multiset::Element;

    let div6 = ReactionSpec::new("div6")
        .replace(Pattern::pair("x", "n"))
        .where_(Expr::and(
            Expr::cmp(
                CmpOp::Eq,
                Expr::bin(BinOp::Rem, Expr::var("x"), Expr::int(2)),
                Expr::int(0),
            ),
            Expr::and(
                Expr::cmp(
                    CmpOp::Eq,
                    Expr::bin(BinOp::Rem, Expr::var("x"), Expr::int(3)),
                    Expr::int(0),
                ),
                Expr::cmp(CmpOp::Ge, Expr::var("x"), Expr::int(0)),
            ),
        ))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Div, Expr::var("x"), Expr::int(6)),
            "m",
        )]);
    let program = GammaProgram::new(vec![div6]);
    let initial: ElementBag = (0i64..100_000).map(|v| Element::pair(v, "n")).collect();

    let run_session = |scheduling: Scheduling, initial: &ElementBag, n: u64| -> ElementBag {
        let mut session = Session::build(&program)
            .scheduling(scheduling)
            .selection(Selection::Seeded(1))
            .start(initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable, "{scheduling:?}");
        let result = session.finish();
        assert_eq!(
            result.stats.firings_total(),
            n / 6 + 1,
            "{scheduling:?}: one firing per multiple of 6"
        );
        result.multiset
    };
    let rete = run_session(Scheduling::Rete, &initial, 100_000);

    let config = EngineConfig {
        workers: 4,
        engine: Engine::Parallel(ParEngine::ShardedRete),
        seed: 7,
        ..EngineConfig::default()
    };
    let par = Session::build(&program)
        .config(config)
        .run(initial.clone())
        .expect("parallel run succeeds");
    assert_eq!(par.status, Status::Stable);
    assert_eq!(
        par.multiset, rete,
        "parallel finals diverged from the sequential reference"
    );

    // Delta cross-check at the full size: linear thanks to the
    // frontier-cursor re-search (see the doc comment).
    let delta = run_session(Scheduling::Delta, &initial, 100_000);
    assert_eq!(delta, rete, "sequential finals diverged");

    // The same stream through a snapshot at scale: capture after
    // stabilising, restore, and the restored bag re-interns to the
    // byte-identical multiset.
    let mut session = Session::build(&program)
        .start(initial.clone())
        .expect("program compiles");
    session.run_to_stable().expect("wave runs");
    let snap = session.snapshot_state();
    let restored = Session::restore(&program, snap).expect("restore succeeds");
    assert_eq!(restored.snapshot(), session.snapshot());
    assert_eq!(session.snapshot(), rete);
}

/// The observable outcome of one run — status, final multiset, firing
/// count — or its error. With `inject` the session starts empty and
/// receives `initial` as a delta, so matchers take their incremental
/// paths instead of the bulk build.
fn outcome(
    program: &GammaProgram,
    initial: &ElementBag,
    config: EngineConfig,
    inject: bool,
) -> Result<(Status, ElementBag, u64), ExecError> {
    let start = if inject {
        ElementBag::new()
    } else {
        initial.clone()
    };
    let mut session = Session::build(program).config(config).start(start)?;
    if inject {
        assert!(session.inject(initial.iter()).is_accepted());
    }
    session.run_to_stable()?;
    let r = session.finish();
    Ok((r.status, r.multiset, r.stats.firings_total()))
}

/// `outcome` under every sequential matcher, both selections, the
/// watermarks {0, 1, 2, default}, built or injected; all must agree.
fn assert_outcome_everywhere(
    name: &str,
    program: &GammaProgram,
    initial: &ElementBag,
) -> Result<(Status, ElementBag, u64), ExecError> {
    let mut reference = None;
    for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
        for selection in [Selection::Deterministic, Selection::Seeded(7)] {
            for rete_watermark in [0, 1, 2, DEFAULT_SPILL_WATERMARK] {
                for inject in [false, true] {
                    let config = EngineConfig {
                        scheduling,
                        selection,
                        rete_watermark,
                        ..EngineConfig::default()
                    };
                    let got = outcome(program, initial, config, inject);
                    let want = reference.get_or_insert_with(|| got.clone());
                    assert_eq!(
                        &got, want,
                        "{name}: {scheduling:?}/{selection:?}/watermark {rete_watermark}/inject {inject}"
                    );
                }
            }
        }
    }
    reference.expect("at least one configuration")
}

/// The one tag rule: a tag variable bound to a tag ≥ 2⁶³ holds a
/// negative `Int`, which names no tag, so no later position joins on it —
/// under every matcher, selection and watermark alike (the token join's
/// tag index once admitted any `Int`, its rightward completion only
/// non-negative ones).
#[test]
fn boundary_tags_follow_one_tag_rule_under_every_matcher() {
    use gammaflow::multiset::Element;
    let high = (1u64 << 63) + 1;
    let ws = windowed_sum(1, 1, 2, 0);
    let pair: ElementBag = [Element::new(3, "x", high), Element::new(4, "x", high)]
        .into_iter()
        .collect();
    assert_eq!(
        assert_outcome_everywhere("windowed_sum", &ws.program, &pair),
        Ok((Status::Stable, pair.clone(), 0))
    );

    // An Algorithm-1 loop image plus steer operand pairs at the boundary
    // tags: only the pair at i64::MAX can join (it takes the steer's
    // unconnected false side and vanishes); `inctag` carries a `y` at
    // u64::MAX (binding −1) to tag 0, where it waits forever.
    let image = dataflow_to_gamma(&accumulator_loop(2, 3, 10).graph).unwrap();
    let mut initial = image.initial.clone();
    initial.insert(Element::new(2, "A1", u64::MAX));
    for tag in [i64::MAX as u64, 1 << 63, u64::MAX] {
        initial.insert(Element::new(5, "A12", tag));
        initial.insert(Element::new(0, "B14", tag));
    }
    let (status, last, _) = assert_outcome_everywhere("loop image", &image.program, &initial)
        .expect("the boundary image runs to stability");
    assert_eq!(status, Status::Stable);
    let mut want: ElementBag = [Element::new(16, "xout", 4u64), Element::new(2, "A12", 0u64)]
        .into_iter()
        .collect();
    for tag in [1 << 63, u64::MAX] {
        want.insert(Element::new(5, "A12", tag));
        want.insert(Element::new(0, "B14", tag));
    }
    assert_eq!(last, want);

    // `inctag` on a `y` at 2⁶³ binds i64::MIN and emits tag −2⁶³ + 1:
    // the same output-tag error everywhere.
    let mut initial = image.initial.clone();
    initial.insert(Element::new(2, "A1", 1u64 << 63));
    let err = assert_outcome_everywhere("loop image", &image.program, &initial);
    assert!(
        matches!(&err, Err(ExecError::Match(MatchError::BadTag { reaction, .. })) if reaction == "R11"),
        "{err:?}"
    );
}

/// A confluent tag-keyed reaction whose buckets hold several values and
/// a multiplicity-2 element: at each tag it fires min(|A@t|, |B@t|)
/// times under every matcher and selection, landing on the rescanning
/// reference's final.
#[test]
fn keyed_buckets_with_several_values_reach_rescan_final() {
    use gammaflow::gamma::{ElementSpec, Expr, Pattern, ReactionSpec};
    use gammaflow::multiset::value::BinOp;
    use gammaflow::multiset::Element;
    let program = GammaProgram::new(vec![ReactionSpec::new("add")
        .replace(Pattern::tagged("a", "A", "v"))
        .replace(Pattern::tagged("b", "B", "v"))
        .by(vec![ElementSpec::tagged(
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
            "C",
            "v",
        )])]);
    let plan = CompiledProgram::compile(&program).unwrap().reactions[0].explain_plan();
    assert!(plan.contains("plan: tag-keyed on v"), "{plan}");
    let mut initial = ElementBag::new();
    // Tag 0: two A values, one B value twice; tag 1: one A value three
    // times, two B values; tag 2: no B at all.
    for (v, l, t, n) in [
        (1, "A", 0u64, 1),
        (2, "A", 0, 1),
        (5, "B", 0, 2),
        (3, "A", 1, 3),
        (4, "B", 1, 1),
        (5, "B", 1, 1),
        (9, "A", 2, 1),
    ] {
        initial.insert_n(Element::new(v, l, t), n);
    }
    let want: ElementBag = [
        Element::new(6, "C", 0u64),
        Element::new(7, "C", 0u64),
        Element::new(7, "C", 1u64),
        Element::new(8, "C", 1u64),
        Element::new(3, "A", 1u64),
        Element::new(9, "A", 2u64),
    ]
    .into_iter()
    .collect();
    for seed in 0..4 {
        for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
            for selection in [Selection::Deterministic, Selection::Seeded(seed)] {
                for inject in [false, true] {
                    let config = EngineConfig {
                        scheduling,
                        selection,
                        ..EngineConfig::default()
                    };
                    assert_eq!(
                        outcome(&program, &initial, config, inject),
                        Ok((Status::Stable, want.clone(), 4)),
                        "{scheduling:?}/{selection:?}/inject {inject}"
                    );
                }
            }
        }
    }
}

/// `explain_plan` names the matching store the Rete network builds:
/// every node image of Algorithm 1 is tag-keyed; a `where` clause
/// (`primes`), an untagged pattern (`sum`) or one label at two positions
/// (`windowed_sum`) keeps a reaction on join tokens.
#[test]
fn explain_plan_names_the_matching_store() {
    let image = dataflow_to_gamma(&accumulator_loop(2, 3, 10).graph).unwrap();
    let plans = |program: &GammaProgram| -> Vec<String> {
        CompiledProgram::compile(program)
            .unwrap()
            .reactions
            .iter()
            .map(|cr| cr.explain_plan())
            .collect()
    };
    for plan in plans(&image.program) {
        assert!(plan.contains("  plan: tag-keyed on v\n"), "{plan}");
    }
    for program in [
        primes(30).program,
        sum(&[1, 2, 3]).program,
        windowed_sum(1, 1, 2, 0).program,
    ] {
        for plan in plans(&program) {
            assert!(plan.contains("  plan: join tokens\n"), "{plan}");
        }
    }
}
