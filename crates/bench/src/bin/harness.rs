//! Experiment harness: regenerates every table/figure row from DESIGN.md's
//! per-experiment index (E1–E6, P1–P5) plus the scheduler benchmarks
//! (S2/S3 → `BENCH_matching.json`,
//! S4 → `BENCH_parallel.json`, S5 → `BENCH_streaming.json`,
//! S6 → `BENCH_recovery.json`, S7 → `BENCH_observability.json`,
//! S8 → `BENCH_vm.json`, S9 → `BENCH_storage.json`,
//! S10 → `BENCH_streaming_service.json`) and prints them in one run.
//!
//! ```sh
//! cargo run --release -p gammaflow-bench --bin harness          # all
//! cargo run --release -p gammaflow-bench --bin harness -- E1 P3 # subset
//! cargo run --release -p gammaflow-bench --bin harness -- S2 S3 # matching
//! cargo run --release -p gammaflow-bench --bin harness -- S4    # parallel
//! ```
//!
//! S6 measures crash-replay overhead only when built with
//! `--features fault-inject` (otherwise it records the fault-free
//! figures and marks the recovered series absent).
//!
//! The output of a release-mode run is recorded in EXPERIMENTS.md.

use gammaflow_bench::baseline::{read_baseline, warn_fps_regressions};
use gammaflow_bench::fixtures::{
    example1_family, example1_family_protected, fig1, fig2, par_config,
};
use gammaflow_core::{
    canonicalize_vars, check_equivalence, dataflow_to_gamma, fuse_all, gamma_to_dataflow,
    granularity, map_multiset, recover_shape, CheckConfig,
};
use gammaflow_dataflow::engine::SeqEngine;
use gammaflow_dataflow::engine_par::{run_parallel as df_parallel, ParEngineConfig};
use gammaflow_gamma::{Engine, EngineConfig, ParEngine, Selection, Session};
use gammaflow_lang::{parse_program, parse_reaction, pretty_program, pretty_reaction};
use gammaflow_multiset::{Element, ElementBag};
use gammaflow_workloads::{
    parallel_loops, primes, random_dag, sum, wide_chains, wide_pairs, DagParams,
};
use std::time::Instant;

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("[{id}] {title}");
    println!("================================================================");
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `f` over `n` runs, in milliseconds.
fn time_median<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            let r = f();
            let e = ms(t.elapsed());
            drop(r);
            e
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn e1() {
    banner(
        "E1",
        "Fig. 1 / Example 1 — Algorithm 1 output and execution",
    );
    let g = fig1();
    let conv = dataflow_to_gamma(&g).unwrap();
    println!("{}", pretty_program(&conv.program));
    println!("\ninitial multiset M = {}", conv.initial);
    let report = check_equivalence(&g, &CheckConfig::default()).unwrap();
    println!(
        "equivalent = {}   dataflow outputs = {}   gamma firings = {}",
        report.equivalent, report.dataflow_outputs, report.gamma_firings
    );
}

fn e2() {
    banner("E2", "Fig. 2 / Example 2 — nine reactions, loop execution");
    let g = fig2(5, 3, 10);
    let conv = dataflow_to_gamma(&g).unwrap();
    println!("{}", pretty_program(&conv.program));
    let gm = Session::build(&conv.program)
        .selection(Selection::Seeded(7))
        .run(conv.initial.clone())
        .unwrap();
    println!(
        "\nstatus {:?}, total firings {}, per reaction:",
        gm.status,
        gm.stats.firings_total()
    );
    for (r, n) in conv
        .program
        .reactions
        .iter()
        .zip(gm.stats.firings_per_reaction.iter())
    {
        println!("  {:6} fired {n} times", r.name);
    }
    let report = check_equivalence(&g, &CheckConfig::default()).unwrap();
    println!(
        "equivalent = {}   observable = {}",
        report.equivalent, report.dataflow_outputs
    );
}

fn e3() {
    banner(
        "E3",
        "§III-A3 reductions — fusion to Rd1; reduced Example 2",
    );
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let protected: Vec<_> = ["A1", "B1", "C1", "D1", "m"]
        .iter()
        .map(|l| gammaflow_multiset::Symbol::intern(l))
        .collect();
    let (fused, report) = fuse_all(&conv.program, &protected);
    println!(
        "Example 1: {} reactions -> {} (paper: 3 -> 1); fused chain: {:?}",
        report.before, report.after, report.fused
    );
    println!(
        "{}",
        pretty_reaction(&canonicalize_vars(&fused.reactions[0]))
    );
    let g_before = granularity(&conv.program);
    let g_after = granularity(&fused);
    println!(
        "granularity: reactions {} -> {}, mean arity {:.1} -> {:.1}",
        g_before.reactions,
        g_after.reactions,
        g_before.mean_arity_milli as f64 / 1000.0,
        g_after.mean_arity_milli as f64 / 1000.0
    );

    // The paper's hand-reduced Example 2 (9 -> 6) and its residue.
    let full = parse_program(include_str!("example2_full.gamma")).unwrap();
    let reduced = parse_program(include_str!("example2_reduced.gamma")).unwrap();
    let initial: ElementBag = [
        Element::new(5, "A1", 0u64),
        Element::new(3, "B1", 0u64),
        Element::new(10, "C1", 0u64),
    ]
    .into_iter()
    .collect();
    let a = Session::build(&full)
        .selection(Selection::Seeded(1))
        .run(initial.clone())
        .unwrap();
    let b = Session::build(&reduced)
        .selection(Selection::Seeded(1))
        .run(initial)
        .unwrap();
    println!(
        "Example 2: full 9 reactions, {} firings, final = {}",
        a.stats.firings_total(),
        a.multiset
    );
    println!(
        "           reduced 6 reactions, {} firings, final = {}  <- stranded residue",
        b.stats.firings_total(),
        b.multiset
    );
}

fn e4() {
    banner(
        "E4",
        "Algorithm 2 — node recovery, round trips, Fig. 4 mapping",
    );
    let g = fig2(5, 3, 10);
    let conv = dataflow_to_gamma(&g).unwrap();
    print!("recovered shapes:");
    for r in &conv.program.reactions {
        print!("  {}:{:?}", r.name, recover_shape(r));
    }
    println!();
    let back = gamma_to_dataflow(&conv.program, &conv.initial).unwrap();
    println!(
        "round trip Fig.2 -> Gamma -> dataflow: isomorphic = {}",
        gammaflow_dataflow::iso::isomorphic(&g, &back)
    );

    let r = parse_reaction("R = replace [x,'n'], [y,'n'] by [x+y,'s']").unwrap();
    println!("\nFig. 4 replication (2-ary reaction):");
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "|M|", "instances", "leftover", "map time ms"
    );
    for size in [6usize, 60, 600, 6000] {
        let m: ElementBag = (1..=size as i64).map(|v| Element::pair(v, "n")).collect();
        let t = time_median(5, || map_multiset(&r, &m, usize::MAX).unwrap());
        let mapping = map_multiset(&r, &m, usize::MAX).unwrap();
        println!(
            "{:>8} {:>10} {:>10} {:>12.3}",
            size,
            mapping.instances,
            mapping.leftover.len(),
            t
        );
    }
}

fn e5() {
    banner(
        "E5",
        "Fig. 3 grammar — parser/pretty round trip on all outputs",
    );
    let mut count = 0;
    for conv in [
        dataflow_to_gamma(&fig1()).unwrap(),
        dataflow_to_gamma(&fig2(5, 3, 10)).unwrap(),
        dataflow_to_gamma(&example1_family(8)).unwrap(),
    ] {
        let printed = pretty_program(&conv.program);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(reparsed, conv.program);
        count += conv.program.len();
    }
    println!("parse(pretty(·)) = id on {count} generated reactions  [full property suite in `cargo test`]");
}

fn e6() {
    banner("E6", "§III-C — differential equivalence on random programs");
    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>12}",
        "seed", "nodes", "equal", "df firings", "gm firings"
    );
    for seed in 0..8u64 {
        let dag = random_dag(
            seed,
            &DagParams {
                roots: 4,
                layers: 4,
                width: 5,
                range: 1000,
            },
        );
        let report = check_equivalence(&dag.graph, &CheckConfig::default()).unwrap();
        println!(
            "{:>6} {:>8} {:>8} {:>12} {:>12}",
            seed,
            dag.graph.node_count(),
            report.equivalent,
            report.dataflow_firings,
            report.gamma_firings
        );
        assert!(report.equivalent);
    }
}

fn m1() {
    banner(
        "M1",
        "Trace reuse (the paper's motivating application, ref. [3])",
    );
    use gammaflow_gamma::analyze_reuse;
    // The Fig. 2 loop re-fires several nodes with identical values every
    // iteration (y's steer, the control distribution): measure how much a
    // DF-DTM-style memo table would save, per reaction, for growing z.
    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "z", "firings", "redundant", "memoizable"
    );
    for z in [4i64, 16, 64] {
        let g = fig2(5, z, 10);
        let conv = dataflow_to_gamma(&g).unwrap();
        let result = Session::build(&conv.program)
            .record_trace(true)
            .selection(Selection::Seeded(1))
            .run(conv.initial.clone())
            .unwrap();
        let report = analyze_reuse(result.trace.as_deref().unwrap_or(&[]));
        println!(
            "{:>6} {:>10} {:>12} {:>11.1}%",
            z,
            report.total,
            report.redundant,
            report.ratio() * 100.0
        );
    }
    println!("top reusable reactions at z = 64:");
    let g = fig2(5, 64, 10);
    let conv = dataflow_to_gamma(&g).unwrap();
    let result = Session::build(&conv.program)
        .record_trace(true)
        .selection(Selection::Seeded(1))
        .run(conv.initial.clone())
        .unwrap();
    let report = analyze_reuse(result.trace.as_deref().unwrap_or(&[]));
    for row in report.per_reaction.iter().take(4) {
        println!(
            "  {:6} {:>5} firings, {:>4} distinct -> {:>4} reusable",
            row.name,
            row.firings,
            row.distinct,
            row.redundant()
        );
    }
}

fn p1() {
    banner(
        "P1",
        "Granularity vs parallelism (fused vs unfused, Example-1 family)",
    );
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "width", "reactions", "fused", "seq ms", "fused seq ms", "par(4) ms", "fused par ms"
    );
    for groups in [4usize, 16, 64] {
        let g = example1_family(groups);
        let conv = dataflow_to_gamma(&g).unwrap();
        let (fused, _) = fuse_all(&conv.program, &example1_family_protected(groups));
        let t_seq = time_median(5, || {
            Session::build(&conv.program)
                .selection(Selection::Seeded(1))
                .run(conv.initial.clone())
                .unwrap()
        });
        let t_fused = time_median(5, || {
            Session::build(&fused)
                .selection(Selection::Seeded(1))
                .run(conv.initial.clone())
                .unwrap()
        });
        let par = |prog: &gammaflow_gamma::GammaProgram| {
            let prog = prog.clone();
            let init = conv.initial.clone();
            time_median(5, move || {
                Session::build(&prog)
                    .config(par_config(4))
                    .run(init.clone())
                    .unwrap()
            })
        };
        let t_par = par(&conv.program);
        let t_fused_par = par(&fused);
        println!(
            "{:>6} {:>10} {:>10} {:>12.3} {:>12.3} {:>14.3} {:>14.3}",
            groups,
            conv.program.len(),
            fused.len(),
            t_seq,
            t_fused,
            t_par,
            t_fused_par
        );
    }
    println!("(expected shape: fused needs 1/3 the firings; unfused exposes more parallel steps)");
}

fn p2() {
    banner("P2", "Dataflow engine PE scaling");
    use gammaflow_dataflow::engine_par::Partition;
    let wide = wide_pairs(7, 1024);
    let chains = wide_chains(7, 16, 2000);
    let loops = parallel_loops(8, 3, 100, 1);
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload/partition", "seq ms", "1 PE", "2 PE", "4 PE", "8 PE"
    );
    let cases = [
        ("wide_1024_pairs/hash", &wide.graph, Partition::Hash),
        ("chains_16x2000/hash", &chains.graph, Partition::Hash),
        ("chains_16x2000/block", &chains.graph, Partition::Block),
        ("loops_8x100/hash", &loops.graph, Partition::Hash),
    ];
    for (name, graph, partition) in cases {
        let t_seq = time_median(5, || SeqEngine::new(graph).run().unwrap());
        let mut row = format!("{name:<28} {t_seq:>10.3}");
        for pes in [1usize, 2, 4, 8] {
            let config = ParEngineConfig {
                pes,
                partition,
                ..ParEngineConfig::default()
            };
            let t = time_median(5, || df_parallel(graph, &config).unwrap());
            row.push_str(&format!(" {t:>10.3}"));
        }
        println!("{row}");
    }
    println!("(expected shape: block-partitioned chains scale; hash partitioning pays a");
    println!(" cross-PE hop per token; fine-grain loops do not amortise communication —");
    println!(" the classic dataflow-machine result that motivated TALM's coarse tasks)");
}

fn p3() {
    banner("P3", "Gamma interpreter scaling (classic workloads)");
    let sum_w = sum(&(1..=512).collect::<Vec<_>>());
    let primes_w = primes(128);
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "workload", "seq ms", "par x1", "par x2", "par x4"
    );
    for (name, w) in [("sum_512", &sum_w), ("primes_128", &primes_w)] {
        let t_seq = time_median(3, || {
            Session::build(&w.program)
                .selection(Selection::Seeded(1))
                .run(w.initial.clone())
                .unwrap()
        });
        let mut row = format!("{name:<14} {t_seq:>10.3}");
        for workers in [1usize, 2, 4] {
            let t = time_median(3, || {
                Session::build(&w.program)
                    .config(par_config(workers))
                    .run(w.initial.clone())
                    .unwrap()
            });
            row.push_str(&format!(" {t:>10.3}"));
        }
        println!("{row}");
    }
    println!("(expected shape: associative sum scales; single-bucket sieve is match-bound)");

    // Matching-strategy ablation: the same programs on an unindexed bag.
    println!("\nmatching ablation (deterministic schedule):");
    println!(
        "{:<14} {:>14} {:>14} {:>8}",
        "workload", "indexed ms", "naive ms", "ratio"
    );
    use gammaflow_bench::run_naive;
    let sum_small = sum(&(1..=192).collect::<Vec<_>>());
    let primes_small = primes(96);
    for (name, w) in [("sum_192", &sum_small), ("primes_96", &primes_small)] {
        let t_indexed = time_median(3, || {
            Session::build(&w.program)
                .selection(Selection::Deterministic)
                .run(w.initial.clone())
                .unwrap()
        });
        let t_naive = time_median(3, || {
            run_naive(&w.program, w.initial.clone(), u64::MAX).unwrap()
        });
        println!(
            "{:<14} {:>14.3} {:>14.3} {:>8.1}x",
            name,
            t_indexed,
            t_naive,
            t_naive / t_indexed.max(1e-9)
        );
    }
    println!("(expected shape: the (label,tag) index wins on labelled programs; on the");
    println!(" single-label sieve both degrade to bucket scans)");
}

fn p4() {
    banner("P4", "Conversion throughput");
    println!(
        "{:>8} {:>8} {:>14} {:>14}",
        "nodes", "edges", "alg1 ms", "alg2 ms"
    );
    for nodes in [100usize, 1000, 10000] {
        let width = (nodes / 20).max(1);
        let dag = random_dag(
            42,
            &DagParams {
                roots: width.max(2),
                layers: 18,
                width,
                range: 1000,
            },
        );
        let t1 = time_median(5, || dataflow_to_gamma(&dag.graph).unwrap());
        let conv = dataflow_to_gamma(&dag.graph).unwrap();
        let t2 = time_median(5, || {
            gamma_to_dataflow(&conv.program, &conv.initial).unwrap()
        });
        println!(
            "{:>8} {:>8} {:>14.3} {:>14.3}",
            dag.graph.node_count(),
            dag.graph.edge_count(),
            t1,
            t2
        );
    }
}

fn p5() {
    banner("P5", "Fig. 4 replication cost sweep");
    let r = parse_reaction("R = replace [x,'n'], [y,'n'] by [x+y,'s']").unwrap();
    let rc = parse_reaction("R = replace [x,'n'], [y,'n'] by [x-y,'d'] where x > y").unwrap();
    println!(
        "{:>8} {:>14} {:>18}",
        "|M|", "plain map ms", "where-cond map ms"
    );
    for size in [64usize, 256, 1024] {
        let m: ElementBag = (1..=size as i64).map(|v| Element::pair(v, "n")).collect();
        let t_plain = time_median(5, || map_multiset(&r, &m, usize::MAX).unwrap());
        let t_cond = time_median(5, || map_multiset(&rc, &m, usize::MAX).unwrap());
        println!("{size:>8} {t_plain:>14.3} {t_cond:>18.3}");
    }
}

// ------------------------------------------------------------------ S2 ----

/// One engine's timing on one workload, in the committed BENCH json files.
#[derive(serde::Serialize, serde::Deserialize)]
struct EngineRow {
    seconds: f64,
    firings: u64,
    firings_per_sec: f64,
}

/// One workload's two-engine comparison in BENCH_matching.json. Rows
/// committed while a third (delta) engine existed carry extra keys that
/// reading ignores.
#[derive(serde::Serialize, serde::Deserialize)]
struct MatchingRow {
    workload: String,
    selection: String,
    firings: u64,
    rescan: EngineRow,
    rete: EngineRow,
    rete_speedup_vs_rescan: f64,
    rete_tokens_created: u64,
    rete_peak_live_tokens: u64,
    rete_guard_rejects: u64,
    identical_final_multiset: bool,
}

/// The BENCH_matching.json schema: S2 writes the file, S3 upserts its
/// adversarial row into the same `rows` array.
#[derive(serde::Serialize, serde::Deserialize)]
struct MatchingReport {
    bench: String,
    rows: Vec<MatchingRow>,
}

/// Workload rows owned by the S3 step inside BENCH_matching.json: S2
/// preserves exactly these when rewriting the file, and S3 upserts them.
const S3_WORKLOADS: &[&str] = &["cross_sum"];

/// The series keys ({workload}/rete) the matching steps compare against
/// the committed baseline.
fn matching_fps_series(rows: &[MatchingRow]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| (format!("{}/rete", r.workload), r.rete.firings_per_sec))
        .collect()
}

/// Time one workload under both engines (asserting stability and
/// the self-check multiset for each), print the comparison line, and
/// produce its BENCH_matching.json row. Shared by S2 and S3.
fn matching_row(
    w: &gammaflow_workloads::Workload,
    selection: gammaflow_gamma::Selection,
) -> MatchingRow {
    use gammaflow_gamma::{ExecResult, Scheduling, Status};

    let time_engine = |scheduling: Scheduling| -> (f64, ExecResult) {
        let t = Instant::now();
        let result = Session::build(&w.program)
            .config(EngineConfig {
                selection,
                scheduling,
                ..EngineConfig::default()
            })
            .run(w.initial.clone())
            .expect("run succeeds");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(result.status, Status::Stable, "{} must stabilise", w.name);
        assert_eq!(
            result.multiset, w.expected,
            "{} must land on its self-check multiset under {scheduling:?}",
            w.name
        );
        (secs, result)
    };

    let (rescan_s, rescan) = time_engine(Scheduling::Rescan);
    let (rete_s, rete) = time_engine(Scheduling::Rete);
    let firings = rete.stats.firings_total();
    assert_eq!(rescan.stats.firings_total(), firings, "{}", w.name);
    let rescan_fps = firings as f64 / rescan_s;
    let rete_fps = firings as f64 / rete_s;
    let rete_stats = rete.rete.expect("rete run reports stats");
    println!(
        "{:<18} {:>8} {:>12.0} {:>12.0} {:>8.2}x {:>8}",
        w.name,
        firings,
        rescan_fps,
        rete_fps,
        rete_fps / rescan_fps,
        rete_stats.tokens_created,
    );
    MatchingRow {
        workload: w.name.to_string(),
        selection: match selection {
            Selection::Deterministic => "deterministic".into(),
            Selection::Seeded(s) => format!("seeded({s})"),
        },
        firings,
        rescan: EngineRow {
            seconds: rescan_s,
            firings,
            firings_per_sec: rescan_fps,
        },
        rete: EngineRow {
            seconds: rete_s,
            firings,
            firings_per_sec: rete_fps,
        },
        rete_speedup_vs_rescan: rete_fps / rescan_fps,
        rete_tokens_created: rete_stats.tokens_created,
        rete_peak_live_tokens: rete_stats.peak_live_tokens,
        rete_guard_rejects: rete_stats.guard_rejects,
        identical_final_multiset: true,
    }
}

/// S2: the rete join-network matcher vs the rescanning baseline, on the
/// single-reaction sieve (bound by per-firing search, not by reaction
/// selection) and the guard-heavy join workloads. Every
/// run must land on the workload's self-check multiset; results are
/// recorded in `BENCH_matching.json` for cross-PR tracking.
fn s2() {
    use gammaflow_workloads::{divisor_sieve, interval_merge, triangles, Workload};
    banner("S2", "Rete partial-match memory vs rescan");

    // Chained-overlap interval soup: dense enough that merges cascade.
    let intervals: Vec<(i64, i64)> = (0..600i64)
        .map(|i| {
            let lo = (i * 137) % 9_000;
            (lo, lo + (i * 29) % 60)
        })
        .collect();
    let workloads: Vec<(Workload, Selection)> = vec![
        (primes(2_000), Selection::Seeded(1)),
        (divisor_sieve(2_000), Selection::Seeded(1)),
        (triangles(60, 39), Selection::Seeded(1)),
        (interval_merge(&intervals), Selection::Seeded(1)),
    ];

    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>9} {:>8}",
        "workload", "firings", "rescan f/s", "rete f/s", "vs resc", "tokens"
    );
    let rows: Vec<MatchingRow> = workloads
        .iter()
        .map(|(w, selection)| matching_row(w, *selection))
        .collect();

    // Baseline comparison against the committed file, before overwriting;
    // S3's rows (if committed) are preserved so a standalone S2 run does
    // not drop them. Only S3-owned workloads carry over — anything else
    // absent from the fresh run is a renamed/removed S2 row and must not
    // accrete in the file.
    let old = read_baseline::<MatchingReport>("BENCH_matching.json");
    let baseline: Vec<(String, f64)> = old
        .as_ref()
        .map(|old| matching_fps_series(&old.rows))
        .unwrap_or_default();
    warn_fps_regressions(
        "BENCH_matching.json",
        &baseline,
        &matching_fps_series(&rows),
    );

    let mut report = MatchingReport {
        bench: "matching".into(),
        rows,
    };
    if let Some(old) = old {
        for r in old.rows {
            if S3_WORKLOADS.contains(&r.workload.as_str())
                && !report.rows.iter().any(|n| n.workload == r.workload)
            {
                report.rows.push(r);
            }
        }
    }
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_matching.json", &json).expect("write BENCH_matching.json");
    println!("wrote BENCH_matching.json");
}

// ------------------------------------------------------------------ S3 ----

/// S3: the adversarial unguarded n² cross product. Before spill-to-search
/// eviction landed, this workload is why `Scheduling::Rete` was opt-in —
/// an unbounded network memorises all `n·(n-1)` pairs before the first
/// firing. The default watermark demotes the terminal level instead; this
/// step records both engines' throughput *and* the bounded peak
/// beta-token count, upserting its row into `BENCH_matching.json`
/// alongside S2's.
fn s3() {
    use gammaflow_workloads::cross_sum;
    banner(
        "S3",
        "Adversarial n² cross product under the spill watermark",
    );

    let n = 400i64;
    let w = cross_sum(n);
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>9} {:>8}",
        "workload", "firings", "rescan f/s", "rete f/s", "vs resc", "tokens"
    );
    let row = matching_row(&w, Selection::Seeded(1));
    let unbounded = (n * (n - 1)) as u64;
    assert!(
        row.rete_peak_live_tokens < unbounded,
        "watermark failed to bound the cross product: peak {} of {} pairs",
        row.rete_peak_live_tokens,
        unbounded
    );
    println!(
        "peak beta tokens: {} (unbounded cross product: {}; default watermark {})",
        row.rete_peak_live_tokens,
        unbounded,
        gammaflow_gamma::DEFAULT_SPILL_WATERMARK
    );

    // Upsert into the committed report: S2 owns the file layout, S3 only
    // replaces (or appends) its own row, so the steps compose in any
    // order and a standalone S3 run keeps S2's committed figures.
    let mut report =
        read_baseline::<MatchingReport>("BENCH_matching.json").unwrap_or(MatchingReport {
            bench: "matching".into(),
            rows: Vec::new(),
        });
    let baseline = matching_fps_series(&report.rows);
    warn_fps_regressions(
        "BENCH_matching.json",
        &baseline,
        &matching_fps_series(std::slice::from_ref(&row)),
    );
    report.rows.retain(|r| r.workload != row.workload);
    report.rows.push(row);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_matching.json", &json).expect("write BENCH_matching.json");
    println!("wrote BENCH_matching.json");
}

// ------------------------------------------------------------------ S4 ----

/// One (workload, worker-count) comparison between the parallel engines
/// in BENCH_parallel.json.
#[derive(serde::Serialize, serde::Deserialize)]
struct ParallelRow {
    workload: String,
    workers: usize,
    firings: u64,
    probe_retry: EngineRow,
    sharded_rete: EngineRow,
    sharded_speedup_vs_probe: f64,
    /// Maximum per-worker peak live beta tokens across the sharded run's
    /// slices — the recorded evidence that the per-shard watermark held.
    max_shard_peak_tokens: u64,
    identical_final_multiset: bool,
}

/// The BENCH_parallel.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct ParallelReport {
    bench: String,
    rows: Vec<ParallelRow>,
}

fn parallel_fps_series(rows: &[ParallelRow]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            [
                (
                    format!("{}/w{}/probe_retry", r.workload, r.workers),
                    r.probe_retry.firings_per_sec,
                ),
                (
                    format!("{}/w{}/sharded_rete", r.workload, r.workers),
                    r.sharded_rete.firings_per_sec,
                ),
            ]
        })
        .collect()
}

/// S4: the delta-driven sharded-rete parallel engine vs the sampled
/// probe-retry baseline, swept over worker counts. Every run's final
/// multiset is asserted byte-identical to the sequential reference (the
/// workloads are confluent), and the sharded runs' per-worker peak beta
/// token counts are recorded so the per-shard watermark bound is part of
/// the committed evidence. Results go to `BENCH_parallel.json`.
fn s4() {
    use gammaflow_gamma::Status;
    banner("S4", "Sharded-rete parallel engine vs probe-retry baseline");

    // The headline workload: 16 independent Fig. 2 loops (tags advance
    // every iteration, so alpha-shard ownership rotates across workers)
    // plus the single-bucket associative fold (maximal shard skew: one
    // worker owns every key and fires every step, while probe-retry's
    // workers all search the one bucket).
    let loops = parallel_loops(16, 3, 200, 5);
    let conv = dataflow_to_gamma(&loops.graph).expect("loop graph converts");
    let sum_w = sum(&(1..=2048).collect::<Vec<_>>());
    let workloads: Vec<(String, gammaflow_gamma::GammaProgram, ElementBag)> = vec![
        ("parallel_loops_16x200".into(), conv.program, conv.initial),
        ("sum_2048".into(), sum_w.program, sum_w.initial),
    ];

    println!(
        "{:<24} {:>3} {:>9} {:>14} {:>14} {:>9} {:>10}",
        "workload", "w", "firings", "probe f/s", "sharded f/s", "speedup", "peak tok"
    );
    let mut rows = Vec::new();
    for (name, program, initial) in &workloads {
        // Sequential reference final (deterministic rete): the byte-
        // identical target for every parallel run.
        let reference = Session::build(program)
            .selection(Selection::Deterministic)
            .run(initial.clone())
            .expect("reference run succeeds");
        assert_eq!(reference.status, Status::Stable);

        for workers in [1usize, 2, 4, 8] {
            let mut engine_rows: Vec<(EngineRow, u64)> = Vec::new();
            for engine in [ParEngine::ProbeRetry, ParEngine::ShardedRete] {
                let config = EngineConfig {
                    engine: Engine::Parallel(engine),
                    ..par_config(workers)
                };
                let mut firings = 0u64;
                let mut peak = 0u64;
                let secs = time_median(3, || {
                    let mut session = Session::build(program)
                        .config(config.clone())
                        .start(initial.clone())
                        .expect("program compiles");
                    session.run_to_stable().expect("parallel run succeeds");
                    let result = session.finish_parallel();
                    assert_eq!(result.exec.status, Status::Stable, "{name}");
                    assert_eq!(
                        result.exec.multiset, reference.multiset,
                        "{name} x{workers} {engine:?}: finals diverged"
                    );
                    firings = result.exec.stats.firings_total();
                    peak = result
                        .par
                        .shard_peak_tokens
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(0);
                }) / 1e3;
                engine_rows.push((
                    EngineRow {
                        seconds: secs,
                        firings,
                        firings_per_sec: firings as f64 / secs,
                    },
                    peak,
                ));
            }
            let (probe, _) = engine_rows.remove(0);
            let (sharded, peak) = engine_rows.remove(0);
            let speedup = sharded.firings_per_sec / probe.firings_per_sec;
            println!(
                "{name:<24} {workers:>3} {:>9} {:>14.0} {:>14.0} {:>8.2}x {:>10}",
                sharded.firings, probe.firings_per_sec, sharded.firings_per_sec, speedup, peak
            );
            rows.push(ParallelRow {
                workload: name.clone(),
                workers,
                firings: sharded.firings,
                probe_retry: probe,
                sharded_rete: sharded,
                sharded_speedup_vs_probe: speedup,
                max_shard_peak_tokens: peak,
                identical_final_multiset: true,
            });
        }
    }

    let baseline: Vec<(String, f64)> = read_baseline::<ParallelReport>("BENCH_parallel.json")
        .map(|old| parallel_fps_series(&old.rows))
        .unwrap_or_default();
    warn_fps_regressions(
        "BENCH_parallel.json",
        &baseline,
        &parallel_fps_series(&rows),
    );

    let report = ParallelReport {
        bench: "parallel".into(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}

// ------------------------------------------------------------------ S5 ----

/// One streaming comparison in BENCH_streaming.json: the same wave
/// schedule executed by a persistent `Session` (matcher state resumed
/// across waves) vs a fresh interpreter rebuilt on the accumulated bag
/// every wave.
#[derive(serde::Serialize, serde::Deserialize)]
struct StreamingRow {
    workload: String,
    waves: usize,
    elements_per_wave: usize,
    firings: u64,
    rebuild_per_wave: EngineRow,
    session_resume: EngineRow,
    session_speedup_vs_rebuild: f64,
    identical_final_multiset: bool,
}

/// The BENCH_streaming.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct StreamingReport {
    bench: String,
    rows: Vec<StreamingRow>,
}

fn streaming_fps_series(rows: &[StreamingRow]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            [
                (
                    format!("{}/session", r.workload),
                    r.session_resume.firings_per_sec,
                ),
                (
                    format!("{}/rebuild", r.workload),
                    r.rebuild_per_wave.firings_per_sec,
                ),
            ]
        })
        .collect()
}

/// S5: the unified `Session` API on a streaming workload — wave-resume
/// over a persistent Rete network vs rebuilding the interpreter on the
/// accumulated bag every wave. The windowed-sum stream collapses each
/// window to a total that stays in the bag forever under a consumed
/// label, so a fresh matcher build pays O(history) token
/// materialisation per wave while the resumed session absorbs only the
/// wave's insertion delta. The workload's firing count and final
/// multiset are schedule-independent (pairwise integer folds per tag),
/// so the seeded engines are compared firing-for-firing and the finals
/// are asserted byte-identical in-run (to each other and to the
/// workload's self-check multiset). Results go to
/// `BENCH_streaming.json`.
fn s5() {
    use gammaflow_gamma::Status;
    use gammaflow_workloads::windowed_sum;
    banner("S5", "Streaming sessions: wave-resume vs rebuild-per-wave");

    let (waves, windows_per_wave, per_window) = (64usize, 128usize, 2usize);
    let w = windowed_sum(waves, windows_per_wave, per_window, 42);
    let per_wave = windows_per_wave * per_window;

    // Session-resume: build matcher state once, inject + resume per wave.
    let t = Instant::now();
    let mut session = Session::build(&w.program)
        .selection(Selection::Seeded(1))
        .start(w.initial.clone())
        .expect("program compiles");
    for wave in &w.waves {
        let _ = session.inject(wave.iter().cloned());
        let wv = session.run_to_stable().expect("wave runs");
        assert_eq!(wv.status, Status::Stable);
    }
    let session_result = session.finish();
    let session_secs = t.elapsed().as_secs_f64();
    let session_firings = session_result.stats.firings_total();
    assert_eq!(
        session_result.multiset, w.expected,
        "session final must match the workload self-check"
    );

    // Rebuild-per-wave: a fresh interpreter (fresh compile, fresh Rete
    // build over the whole accumulated bag) every wave.
    let t = Instant::now();
    let mut bag = w.initial.clone();
    let mut rebuild_firings = 0u64;
    for wave in &w.waves {
        for e in wave {
            bag.insert(e.clone());
        }
        let result = Session::build(&w.program)
            .config(EngineConfig {
                selection: Selection::Seeded(1),
                ..EngineConfig::default()
            })
            .run(bag)
            .expect("rebuild run succeeds");
        assert_eq!(result.status, Status::Stable);
        rebuild_firings += result.stats.firings_total();
        bag = result.multiset;
    }
    let rebuild_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        bag, session_result.multiset,
        "wave-resume and rebuild-per-wave finals must be byte-identical"
    );
    assert_eq!(
        session_firings, rebuild_firings,
        "windowed folds fire a schedule-independent count"
    );

    let session_fps = session_firings as f64 / session_secs;
    let rebuild_fps = rebuild_firings as f64 / rebuild_secs;
    let speedup = session_fps / rebuild_fps;
    println!(
        "{:<26} {:>3} waves x {:<4} {:>8} firings  rebuild {:>10.0} f/s  session {:>10.0} f/s  {:>6.2}x",
        w.name, waves, per_wave, session_firings, rebuild_fps, session_fps, speedup
    );

    let rows = vec![StreamingRow {
        workload: w.name.clone(),
        waves,
        elements_per_wave: per_wave,
        firings: session_firings,
        rebuild_per_wave: EngineRow {
            seconds: rebuild_secs,
            firings: rebuild_firings,
            firings_per_sec: rebuild_fps,
        },
        session_resume: EngineRow {
            seconds: session_secs,
            firings: session_firings,
            firings_per_sec: session_fps,
        },
        session_speedup_vs_rebuild: speedup,
        identical_final_multiset: true,
    }];

    let baseline: Vec<(String, f64)> = read_baseline::<StreamingReport>("BENCH_streaming.json")
        .map(|old| streaming_fps_series(&old.rows))
        .unwrap_or_default();
    warn_fps_regressions(
        "BENCH_streaming.json",
        &baseline,
        &streaming_fps_series(&rows),
    );

    let report = StreamingReport {
        bench: "streaming".into(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json");
}

// ------------------------------------------------------------------ S6 ----

/// Snapshot/restore micro-costs for one engine in BENCH_recovery.json:
/// what serialising a live session costs, what rebuilding one from the
/// wire costs, and the cold matcher build on the same bag for scale.
#[derive(serde::Serialize, serde::Deserialize)]
struct SnapshotRow {
    workload: String,
    engine: String,
    bag_elements: usize,
    snapshot_bytes: usize,
    snapshot_ms: f64,
    restore_ms: f64,
    cold_build_ms: f64,
    restored_final_identical: bool,
}

/// Fault-free vs crash-recovered throughput for one parallel config in
/// BENCH_recovery.json. `recovered` is absent when the harness was built
/// without `--features fault-inject`.
#[derive(serde::Serialize, serde::Deserialize)]
struct RecoveryRow {
    workload: String,
    engine: String,
    workers: usize,
    firings: u64,
    fault_free: EngineRow,
    recovered: Option<EngineRow>,
    replay_overhead: Option<f64>,
    workers_lost: u64,
    waves_replayed: u64,
    identical_final_multiset: bool,
}

/// The BENCH_recovery.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct RecoveryReport {
    bench: String,
    snapshots: Vec<SnapshotRow>,
    rows: Vec<RecoveryRow>,
}

fn recovery_fps_series(rows: &[RecoveryRow]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            let mut series = vec![(
                format!("{}/{}/w{}/fault_free", r.workload, r.engine, r.workers),
                r.fault_free.firings_per_sec,
            )];
            if let Some(rec) = &r.recovered {
                series.push((
                    format!("{}/{}/w{}/recovered", r.workload, r.engine, r.workers),
                    rec.firings_per_sec,
                ));
            }
            series
        })
        .collect()
}

/// S6: durability costs. The snapshot figures stream the full
/// windowed-sum workload into a session (so the bag holds the whole
/// consumed history, not a toy payload), then time `snapshot_state` +
/// serde_json against `Session::restore` from the wire and a cold
/// matcher build over the same bag, asserting the restored bag is
/// byte-identical. The replay figures run a single dense fold wave
/// fault-free and — when built with `--features fault-inject` — again
/// with an injected worker panic recovered by the wave-entry replay,
/// asserting both runs land on the workload's self-check final. Results
/// go to `BENCH_recovery.json`.
fn s6() {
    use gammaflow_gamma::fault::ENABLED as FAULT_INJECT;
    use gammaflow_gamma::{Fault, FaultPlan, Status};
    use gammaflow_workloads::windowed_sum;
    banner(
        "S6",
        "Durability: snapshot/restore cost and crash-replay overhead",
    );

    // Snapshot/restore micro-costs over a session with real history.
    let stream = windowed_sum(32, 64, 2, 42);
    let mut snapshots = Vec::new();
    for (engine_name, engine) in [
        ("seq_rete", Engine::Seq),
        ("sharded_rete", Engine::Parallel(ParEngine::ShardedRete)),
    ] {
        let mut session = Session::build(&stream.program)
            .engine(engine)
            .workers(4)
            .start(stream.initial.clone())
            .expect("program compiles");
        for wave in &stream.waves {
            let _ = session.inject(wave.iter().cloned());
            let wv = session.run_to_stable().expect("wave runs");
            assert_eq!(wv.status, Status::Stable);
        }
        let bag = session.snapshot();
        let json = serde_json::to_string(&session.snapshot_state()).expect("snapshot serialises");
        let snapshot_ms = time_median(5, || {
            serde_json::to_string(&session.snapshot_state()).expect("snapshot serialises")
        });
        let restore_ms = time_median(5, || {
            let snap = serde_json::from_str(&json).expect("snapshot parses");
            Session::restore(&stream.program, snap).expect("restore succeeds")
        });
        let cold_build_ms = time_median(5, || {
            Session::build(&stream.program)
                .engine(engine)
                .workers(4)
                .start(bag.clone())
                .expect("program compiles")
        });
        let restored = Session::restore(
            &stream.program,
            serde_json::from_str(&json).expect("snapshot parses"),
        )
        .expect("restore succeeds");
        let identical = restored.snapshot() == bag;
        assert!(
            identical,
            "{engine_name}: the restored bag must be byte-identical"
        );
        println!(
            "snapshot {:<13} |M| {:>5}  {:>8} bytes  snap {:>7.3} ms  restore {:>7.3} ms  cold build {:>7.3} ms",
            engine_name,
            bag.len(),
            json.len(),
            snapshot_ms,
            restore_ms,
            cold_build_ms
        );
        snapshots.push(SnapshotRow {
            workload: stream.name.clone(),
            engine: engine_name.into(),
            bag_elements: bag.len(),
            snapshot_bytes: json.len(),
            snapshot_ms,
            restore_ms,
            cold_build_ms,
            restored_final_identical: identical,
        });
    }

    // Crash-replay overhead on a single dense fold wave.
    let values: Vec<i64> = (1..=2048).collect();
    let fold = sum(&values);
    let mut rows = Vec::new();
    for (engine_name, engine) in [
        ("sharded_rete", ParEngine::ShardedRete),
        ("probe_retry", ParEngine::ProbeRetry),
    ] {
        for workers in [2usize, 4] {
            let run = |faults: Option<FaultPlan>| {
                let mut builder = Session::build(&fold.program)
                    .engine(Engine::Parallel(engine))
                    .workers(workers);
                if let Some(plan) = faults {
                    builder = builder.faults(plan);
                }
                let t = Instant::now();
                let mut session = builder
                    .start(fold.initial.clone())
                    .expect("program compiles");
                let wv = session.run_to_stable().expect("wave runs");
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(wv.status, Status::Stable);
                let result = session.finish_parallel();
                assert_eq!(
                    result.exec.multiset, fold.expected,
                    "{engine_name} x{workers}: final must match the self-check"
                );
                (secs, result.exec.stats.firings_total(), result.par)
            };
            let median = |samples: &mut Vec<f64>| -> f64 {
                samples.sort_by(f64::total_cmp);
                samples[samples.len() / 2]
            };
            let mut base_secs = Vec::new();
            let mut firings = 0u64;
            for _ in 0..3 {
                let (secs, fired, _) = run(None);
                base_secs.push(secs);
                firings = fired;
            }
            let base = median(&mut base_secs);
            let fault_free = EngineRow {
                seconds: base,
                firings,
                firings_per_sec: firings as f64 / base,
            };
            let (recovered, replay_overhead, workers_lost, waves_replayed) = if FAULT_INJECT {
                let plan = FaultPlan::single(
                    0,
                    Fault::WorkerPanic {
                        worker: 0,
                        at_firing: 8,
                    },
                );
                let mut rec_secs = Vec::new();
                let mut lost = 0u64;
                let mut replayed = 0u64;
                for _ in 0..3 {
                    let (secs, _, par) = run(Some(plan.clone()));
                    rec_secs.push(secs);
                    lost += par.workers_lost;
                    replayed += par.waves_replayed;
                }
                let rec = median(&mut rec_secs);
                let row = EngineRow {
                    seconds: rec,
                    firings,
                    firings_per_sec: firings as f64 / rec,
                };
                (Some(row), Some(rec / base), lost, replayed)
            } else {
                (None, None, 0, 0)
            };
            match (&recovered, replay_overhead) {
                (Some(rec), Some(overhead)) => println!(
                    "replay   {:<13} x{:<2} {:>8} firings  fault-free {:>10.0} f/s  recovered {:>10.0} f/s  {:>5.2}x  (lost {} replayed {})",
                    engine_name,
                    workers,
                    firings,
                    fault_free.firings_per_sec,
                    rec.firings_per_sec,
                    overhead,
                    workers_lost,
                    waves_replayed
                ),
                _ => println!(
                    "replay   {:<13} x{:<2} {:>8} firings  fault-free {:>10.0} f/s  (fault-inject off: no recovered series)",
                    engine_name, workers, firings, fault_free.firings_per_sec
                ),
            }
            rows.push(RecoveryRow {
                workload: fold.name.to_string(),
                engine: engine_name.into(),
                workers,
                firings,
                fault_free,
                recovered,
                replay_overhead,
                workers_lost,
                waves_replayed,
                identical_final_multiset: true,
            });
        }
    }

    let baseline: Vec<(String, f64)> = read_baseline::<RecoveryReport>("BENCH_recovery.json")
        .map(|old| recovery_fps_series(&old.rows))
        .unwrap_or_default();
    warn_fps_regressions(
        "BENCH_recovery.json",
        &baseline,
        &recovery_fps_series(&rows),
    );

    let report = RecoveryReport {
        bench: "recovery".into(),
        snapshots,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");
}

// ------------------------------------------------------------------ S7 ----

/// One workload × engine cell of BENCH_observability.json: the same run
/// timed with tracing off, into an in-memory ring, and onto a JSONL
/// file. Overheads are wall-time ratios against the off series (1.0 =
/// free).
#[derive(serde::Serialize, serde::Deserialize)]
struct ObservabilityRow {
    workload: String,
    engine: String,
    firings: u64,
    off: EngineRow,
    ring: EngineRow,
    jsonl: EngineRow,
    ring_overhead: f64,
    jsonl_overhead: f64,
    trace_records: u64,
}

/// The BENCH_observability.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct ObservabilityReport {
    bench: String,
    rows: Vec<ObservabilityRow>,
}

fn observability_fps_series(rows: &[ObservabilityRow]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            [
                (
                    format!("{}/{}/off", r.workload, r.engine),
                    r.off.firings_per_sec,
                ),
                (
                    format!("{}/{}/ring", r.workload, r.engine),
                    r.ring.firings_per_sec,
                ),
                (
                    format!("{}/{}/jsonl", r.workload, r.engine),
                    r.jsonl.firings_per_sec,
                ),
            ]
        })
        .collect()
}

/// Drive one workload config three times per mode (off / ring / jsonl)
/// and fold the median timings into a row. `drive` owns the whole
/// session lifecycle and returns (seconds, firings) after asserting the
/// final against the workload self-check.
fn observe_modes(
    workload: &str,
    engine: &str,
    jsonl_path: &str,
    drive: &dyn Fn(Option<std::sync::Arc<dyn gammaflow_gamma::TraceSink>>) -> (f64, u64),
) -> ObservabilityRow {
    use gammaflow_gamma::{JsonlSink, RingSink};
    use std::sync::Arc;
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    const RUNS: usize = 3;

    let mut firings = 0u64;
    let mut off_secs = Vec::new();
    for _ in 0..RUNS {
        let (secs, fired) = drive(None);
        off_secs.push(secs);
        firings = fired;
    }
    let off = median(off_secs);

    let mut trace_records = 0u64;
    let mut ring_secs = Vec::new();
    for _ in 0..RUNS {
        let ring = Arc::new(RingSink::new(1 << 22));
        let (secs, _) = drive(Some(ring.clone()));
        assert_eq!(ring.dropped(), 0, "{workload}/{engine}: ring must not drop");
        trace_records = ring.records().len() as u64;
        ring_secs.push(secs);
    }
    let ring = median(ring_secs);

    let mut jsonl_secs = Vec::new();
    for _ in 0..RUNS {
        let sink = Arc::new(JsonlSink::create(jsonl_path).expect("trace file creates"));
        let (secs, _) = drive(Some(sink));
        jsonl_secs.push(secs);
    }
    let jsonl = median(jsonl_secs);
    let jsonl_records = std::fs::read_to_string(jsonl_path)
        .map(|s| s.lines().count() as u64)
        .unwrap_or(0);
    assert!(
        jsonl_records > 0,
        "{workload}/{engine}: the jsonl runs must leave records behind"
    );
    let _ = std::fs::remove_file(jsonl_path);

    let row = |secs: f64| EngineRow {
        seconds: secs,
        firings,
        firings_per_sec: firings as f64 / secs,
    };
    println!(
        "{:<22} {:<15} {:>8} firings {:>8} records  off {:>10.0} f/s  ring {:>5.2}x  jsonl {:>5.2}x",
        workload,
        engine,
        firings,
        trace_records,
        firings as f64 / off,
        ring / off,
        jsonl / off
    );
    ObservabilityRow {
        workload: workload.into(),
        engine: engine.into(),
        firings,
        off: row(off),
        ring: row(ring),
        jsonl: row(jsonl),
        ring_overhead: ring / off,
        jsonl_overhead: jsonl / off,
        trace_records,
    }
}

/// S7: what the telemetry layer costs when you actually turn it on. The
/// same sessions run three times — tracing disabled (the default,
/// near-zero by construction), into a large in-memory [`gammaflow_gamma::RingSink`], and
/// serialised onto a JSONL file — over a dense sequential fold, a
/// 4-worker sharded wave, and a streaming windowed-sum session. Every
/// run asserts the workload self-check final, so the overhead figures
/// are for *correct* traced runs. Results go to
/// `BENCH_observability.json`.
fn s7() {
    use gammaflow_gamma::{Scheduling, Status, TraceSink};
    use gammaflow_workloads::windowed_sum;
    use std::sync::Arc;
    banner("S7", "Observability: tracing overhead (off / ring / jsonl)");

    let jsonl_path = std::env::temp_dir()
        .join("gammaflow_s7_trace.jsonl")
        .to_string_lossy()
        .into_owned();
    let mut rows = Vec::new();

    // Dense sequential fold on the Rete matcher.
    let values: Vec<i64> = (1..=2048).collect();
    let fold = sum(&values);
    let drive = |sink: Option<Arc<dyn TraceSink>>| {
        let mut builder = Session::build(&fold.program).scheduling(Scheduling::Rete);
        if let Some(sink) = sink {
            builder = builder.trace_sink(sink);
        }
        let t = Instant::now();
        let mut session = builder
            .start(fold.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("wave runs");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(wv.status, Status::Stable);
        let result = session.finish();
        assert_eq!(result.multiset, fold.expected, "seq_rete final diverged");
        (secs, result.stats.firings_total())
    };
    rows.push(observe_modes(fold.name, "seq_rete", &jsonl_path, &drive));

    // The same fold on the 4-worker sharded engine: tracing crosses
    // worker threads here.
    let drive = |sink: Option<Arc<dyn TraceSink>>| {
        let mut builder = Session::build(&fold.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(4);
        if let Some(sink) = sink {
            builder = builder.trace_sink(sink);
        }
        let t = Instant::now();
        let mut session = builder
            .start(fold.initial.clone())
            .expect("program compiles");
        let wv = session.run_to_stable().expect("wave runs");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(wv.status, Status::Stable);
        let result = session.finish_parallel();
        assert_eq!(
            result.exec.multiset, fold.expected,
            "sharded_rete final diverged"
        );
        (secs, result.exec.stats.firings_total())
    };
    rows.push(observe_modes(
        fold.name,
        "sharded_rete_w4",
        &jsonl_path,
        &drive,
    ));

    // A streaming session: many small waves, so per-wave bracketing
    // events (wave_start/injected/wave_end) weigh in too.
    let stream = windowed_sum(16, 64, 2, 42);
    let drive = |sink: Option<Arc<dyn TraceSink>>| {
        let mut builder = Session::build(&stream.program);
        if let Some(sink) = sink {
            builder = builder.trace_sink(sink);
        }
        let t = Instant::now();
        let mut session = builder
            .start(stream.initial.clone())
            .expect("program compiles");
        for wave in &stream.waves {
            let _ = session.inject(wave.iter().cloned());
            let wv = session.run_to_stable().expect("wave runs");
            assert_eq!(wv.status, Status::Stable);
        }
        let secs = t.elapsed().as_secs_f64();
        let result = session.finish();
        assert_eq!(result.multiset, stream.expected, "streaming final diverged");
        (secs, result.stats.firings_total())
    };
    rows.push(observe_modes(&stream.name, "seq_rete", &jsonl_path, &drive));

    let baseline: Vec<(String, f64)> =
        read_baseline::<ObservabilityReport>("BENCH_observability.json")
            .map(|old| observability_fps_series(&old.rows))
            .unwrap_or_default();
    warn_fps_regressions(
        "BENCH_observability.json",
        &baseline,
        &observability_fps_series(&rows),
    );

    let report = ObservabilityReport {
        bench: "observability".into(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_observability.json", &json).expect("write BENCH_observability.json");
    println!("wrote BENCH_observability.json");
}

// ------------------------------------------------------------------ S8 ----

/// One workload's three-way guard-dispatch comparison in BENCH_vm.json:
/// the same two-wave session driven with tree-walk guards, baseline
/// bytecode (tiering disabled), and profile-driven tiering (threshold 1,
/// so every profiled reaction re-compiles at the first wave boundary and
/// the bulk wave runs at the optimised tier).
#[derive(serde::Serialize, serde::Deserialize)]
struct VmRow {
    workload: String,
    firings: u64,
    guard_evals: u64,
    tree: EngineRow,
    vm: EngineRow,
    tiered: EngineRow,
    vm_speedup_vs_tree: f64,
    tiered_speedup_vs_tree: f64,
    tree_guard_evals_per_sec: f64,
    vm_guard_evals_per_sec: f64,
    tiered_guard_evals_per_sec: f64,
    tier_ups: u64,
    identical_final_multiset: bool,
}

/// The BENCH_vm.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct VmReport {
    bench: String,
    rows: Vec<VmRow>,
}

fn vm_fps_series(rows: &[VmRow]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            [
                (format!("{}/tree", r.workload), r.tree.firings_per_sec),
                (format!("{}/vm", r.workload), r.vm.firings_per_sec),
                (format!("{}/tiered", r.workload), r.tiered.firings_per_sec),
            ]
        })
        .collect()
}

/// S8: guard-dispatch cost — the `Expr` tree walk vs the baseline
/// bytecode VM vs profile-driven tiered re-compilation, on the
/// guard-heavy workloads (the sieves spend most of their matcher time
/// in guard conjuncts; the n² cross product stresses the Rete pushdown
/// chunks). Each series drives the identical two-wave schedule — an
/// eighth of the bag first, then the rest — so the tiered run crosses
/// its threshold at the first wave boundary and executes the bulk wave
/// at the optimised tier. Every run must land on the workload's
/// self-check multiset with a mode-independent firing count. Results go
/// to `BENCH_vm.json`.
fn s8() {
    use gammaflow_gamma::{GuardEvalMode, Scheduling, Status};
    use gammaflow_workloads::{cross_sum, divisor_sieve, Workload};
    banner("S8", "Guard VM: tree-walk vs bytecode vs tiered re-compile");

    let workloads: Vec<Workload> = vec![primes(2_000), divisor_sieve(2_000), cross_sum(400)];
    println!(
        "{:<20} {:>9} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8}",
        "workload", "firings", "guards", "tree f/s", "vm f/s", "tiered f/s", "vm x", "tier x"
    );

    let mut rows = Vec::new();
    for w in &workloads {
        // The identical two-wave schedule for every series: enough work
        // in wave 1 to cross the threshold, the bulk in wave 2.
        let elements = w.initial.sorted_elements();
        let (head, tail) = elements.split_at((elements.len() / 8).max(1));

        let drive = |mode: GuardEvalMode, threshold: u64| -> (f64, u64, u64, u64) {
            let t = Instant::now();
            let mut session = Session::build(&w.program)
                .scheduling(Scheduling::Rete)
                .selection(Selection::Seeded(1))
                .guard_eval(mode)
                .vm_tier_threshold(threshold)
                .start(ElementBag::new())
                .expect("program compiles");
            for wave in [head, tail] {
                let _ = session.inject(wave.iter().cloned());
                let wv = session.run_to_stable().expect("wave runs");
                assert_eq!(wv.status, Status::Stable, "{}", w.name);
            }
            let secs = t.elapsed().as_secs_f64();
            let guard_evals: u64 = session.profile().rows.iter().map(|r| r.guard_evals).sum();
            let tier_ups = session.vm_tier_ups();
            let result = session.finish();
            assert_eq!(
                result.multiset, w.expected,
                "{}: final must match the self-check",
                w.name
            );
            (secs, result.stats.firings_total(), guard_evals, tier_ups)
        };

        // Median of three drives per series; the counters are identical
        // across repeats (same seed, same schedule), so keep the last.
        let series = |mode: GuardEvalMode, threshold: u64| -> (f64, u64, u64, u64) {
            let mut secs = Vec::new();
            let mut counts = (0u64, 0u64, 0u64);
            for _ in 0..3 {
                let (s, firings, guards, tier_ups) = drive(mode, threshold);
                secs.push(s);
                counts = (firings, guards, tier_ups);
            }
            secs.sort_by(f64::total_cmp);
            (secs[secs.len() / 2], counts.0, counts.1, counts.2)
        };

        let (tree_s, firings, guard_evals, tree_tier_ups) = series(GuardEvalMode::Tree, 1);
        let (vm_s, vm_firings, vm_guards, vm_tier_ups) = series(GuardEvalMode::Vm, u64::MAX);
        let (tiered_s, tiered_firings, tiered_guards, tier_ups) = series(GuardEvalMode::Vm, 1);
        assert_eq!(tree_tier_ups, 0, "{}: tree mode must never tier", w.name);
        assert_eq!(vm_tier_ups, 0, "{}: threshold MAX must never tier", w.name);
        assert!(tier_ups > 0, "{}: threshold 1 must tier up", w.name);
        assert_eq!(
            vm_firings, firings,
            "{}: firings are mode-independent",
            w.name
        );
        assert_eq!(tiered_firings, firings, "{}", w.name);
        assert_eq!(
            vm_guards, guard_evals,
            "{}: guard counters conserve",
            w.name
        );
        assert_eq!(tiered_guards, guard_evals, "{}", w.name);

        let row = |secs: f64| EngineRow {
            seconds: secs,
            firings,
            firings_per_sec: firings as f64 / secs,
        };
        let (tree, vm, tiered) = (row(tree_s), row(vm_s), row(tiered_s));
        println!(
            "{:<20} {:>9} {:>11} {:>11.0} {:>11.0} {:>11.0} {:>7.2}x {:>7.2}x",
            w.name,
            firings,
            guard_evals,
            tree.firings_per_sec,
            vm.firings_per_sec,
            tiered.firings_per_sec,
            vm.firings_per_sec / tree.firings_per_sec,
            tiered.firings_per_sec / tree.firings_per_sec,
        );
        rows.push(VmRow {
            workload: w.name.to_string(),
            firings,
            guard_evals,
            vm_speedup_vs_tree: vm.firings_per_sec / tree.firings_per_sec,
            tiered_speedup_vs_tree: tiered.firings_per_sec / tree.firings_per_sec,
            tree_guard_evals_per_sec: guard_evals as f64 / tree_s,
            vm_guard_evals_per_sec: guard_evals as f64 / vm_s,
            tiered_guard_evals_per_sec: guard_evals as f64 / tiered_s,
            tree,
            vm,
            tiered,
            tier_ups,
            identical_final_multiset: true,
        });
    }

    let baseline: Vec<(String, f64)> = read_baseline::<VmReport>("BENCH_vm.json")
        .map(|old| vm_fps_series(&old.rows))
        .unwrap_or_default();
    warn_fps_regressions("BENCH_vm.json", &baseline, &vm_fps_series(&rows));

    let report = VmReport {
        bench: "vm".into(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_vm.json", &json).expect("write BENCH_vm.json");
    println!("wrote BENCH_vm.json");
}

// ------------------------------------------------------------------ S9 ----

/// One storage-operation in the replayed trace; indices point into the
/// trace's element table. `Token`/`Untoken` are the matcher-side ops:
/// admitting a candidate materialises an arity-2 beta-token key into the
/// dedup map (rete's `by_key`), consuming it removes the key.
#[derive(Clone, Copy)]
enum StorageOp {
    Insert(u32),
    Probe(u32),
    Remove(u32),
    Token(u32, u32),
    Untoken(u32, u32),
}

/// A workload-shaped storage-operation trace: the element table plus the
/// exact insert/probe/remove sequence the engine would issue against the
/// bag while running it.
struct StorageTrace {
    elems: Vec<Element>,
    ops: Vec<StorageOp>,
}

/// The guard-heavy stream's bag traffic: every arriving element is
/// inserted and count-probed (the matcher's enabledness check), then
/// joined against its `FANOUT` nearest predecessors — one beta-token
/// key materialised and dedup-probed per candidate pair, the 2-ary join
/// traffic `rete`'s `by_key` sees on the sieve workloads. The
/// one-in-six that passes the guard conjunction is consumed (its
/// candidate keys retract) and its product inserted.
fn sieve_storage_trace(n: usize) -> StorageTrace {
    const FANOUT: usize = 8;
    let mut elems: Vec<Element> = (0..n as i64).map(|v| Element::pair(v, "s9n")).collect();
    let mut ops = Vec::with_capacity(n * (FANOUT + 4));
    for i in 0..n {
        ops.push(StorageOp::Insert(i as u32));
        ops.push(StorageOp::Probe(i as u32));
        for f in 1..=FANOUT.min(i) {
            ops.push(StorageOp::Token((i - f) as u32, i as u32));
        }
        if i % 6 == 0 {
            ops.push(StorageOp::Remove(i as u32));
            for f in 1..=FANOUT.min(i) {
                ops.push(StorageOp::Untoken((i - f) as u32, i as u32));
            }
            let j = elems.len() as u32;
            elems.push(Element::pair((i / 6) as i64, "s9m"));
            ops.push(StorageOp::Insert(j));
        }
    }
    StorageTrace { elems, ops }
}

/// The streaming window's bag traffic: string-keyed readings arrive,
/// are probed, and fall out of a 1024-element sliding window. Values
/// cycle through 4096 distinct keys (hash-consing territory) while the
/// per-window tag advances, so buckets churn like a rolling stream.
fn window_storage_trace(n: usize) -> StorageTrace {
    const W: usize = 1024;
    use gammaflow_multiset::value::Value;
    use gammaflow_multiset::Tag;
    let elems: Vec<Element> = (0..n)
        .map(|i| {
            Element::new(
                Value::str(format!("reading-{:04}", i % 4096).as_str()),
                "s9w",
                Tag((i / W) as u64),
            )
        })
        .collect();
    const FANOUT: usize = 4;
    let mut ops = Vec::with_capacity(n * (FANOUT + 3));
    for i in 0..n {
        ops.push(StorageOp::Insert(i as u32));
        ops.push(StorageOp::Probe(i as u32));
        // Window joins: each reading pairs with a few spread-out
        // neighbours still inside the window.
        for f in 1..=FANOUT {
            let stride = f * (W / FANOUT);
            if i >= stride {
                ops.push(StorageOp::Token((i - stride) as u32, i as u32));
            }
        }
        if i >= W {
            ops.push(StorageOp::Remove((i - W) as u32));
            for f in 1..=FANOUT {
                let stride = f * (W / FANOUT);
                ops.push(StorageOp::Untoken((i - W) as u32, (i - W + stride) as u32));
            }
        }
    }
    StorageTrace { elems, ops }
}

/// Replay a trace under the pre-arena discipline: the bag owns full
/// elements, every operation hashes the complete `(value, label, tag)`
/// payload, every insert clones it, and beta-token keys carry cloned
/// elements into the dedup map — the storage model the interned arena
/// replaced. Returns (seconds, probe checksum).
fn replay_prearena(trace: &StorageTrace) -> (f64, u64) {
    use gammaflow_multiset::{FxHashMap, HashBag};
    let t = Instant::now();
    let mut bag: HashBag<Element> = HashBag::new();
    let mut tokens: FxHashMap<Box<[Element]>, u32> = FxHashMap::default();
    let mut sum = 0u64;
    for &op in &trace.ops {
        match op {
            StorageOp::Insert(i) => bag.insert(trace.elems[i as usize].clone()),
            StorageOp::Probe(i) => sum += bag.count(&trace.elems[i as usize]) as u64,
            StorageOp::Remove(i) => {
                bag.remove(&trace.elems[i as usize]);
            }
            StorageOp::Token(a, b) => {
                let key: Box<[Element]> = Box::new([
                    trace.elems[a as usize].clone(),
                    trace.elems[b as usize].clone(),
                ]);
                *tokens.entry(key).or_insert(0) += 1;
            }
            StorageOp::Untoken(a, b) => {
                let key = [
                    trace.elems[a as usize].clone(),
                    trace.elems[b as usize].clone(),
                ];
                tokens.remove(&key[..]);
            }
        }
    }
    sum += tokens.len() as u64;
    (t.elapsed().as_secs_f64(), std::hint::black_box(sum))
}

/// Replay the same trace under the arena discipline: one intern when an
/// element first enters (ingress); after that every operation — bag
/// update, count probe, beta-token key — moves `ElemId`s, so the hot
/// loop is integer copies, `u64` hashes, and a `u32` slot probe, with
/// the tag carried alongside the id exactly as rete tokens carry it.
/// Returns (seconds, probe checksum); the checksum must match the
/// pre-arena replay's, byte for byte.
fn replay_arena(trace: &StorageTrace) -> (f64, u64) {
    use gammaflow_multiset::{ElemId, FxHashMap, Tag};
    let t = Instant::now();
    let mut bag = ElementBag::new();
    let mut tokens: FxHashMap<Box<[ElemId]>, u32> = FxHashMap::default();
    let mut ids: Vec<Option<(ElemId, Tag)>> = vec![None; trace.elems.len()];
    let mut sum = 0u64;
    for &op in &trace.ops {
        match op {
            StorageOp::Insert(i) => {
                let e = &trace.elems[i as usize];
                let (id, _) = *ids[i as usize].get_or_insert_with(|| (ElemId::intern(e), e.tag));
                bag.insert_id(id, 1);
            }
            StorageOp::Probe(i) => {
                let (id, tag) = ids[i as usize].expect("probe follows insert");
                sum += bag.count_id(id, tag) as u64;
            }
            StorageOp::Remove(i) => {
                let (id, tag) = ids[i as usize].expect("remove follows insert");
                bag.remove_id(id, tag);
            }
            StorageOp::Token(a, b) => {
                let key: Box<[ElemId]> =
                    Box::new([ids[a as usize].unwrap().0, ids[b as usize].unwrap().0]);
                *tokens.entry(key).or_insert(0) += 1;
            }
            StorageOp::Untoken(a, b) => {
                let key = [ids[a as usize].unwrap().0, ids[b as usize].unwrap().0];
                tokens.remove(&key[..]);
            }
        }
    }
    sum += tokens.len() as u64;
    (t.elapsed().as_secs_f64(), std::hint::black_box(sum))
}

/// One (workload, element-count) cell in BENCH_storage.json: the two
/// storage disciplines replayed over the identical operation trace, plus
/// (guard-heavy stream only) full-engine throughput at that scale.
#[derive(serde::Serialize, serde::Deserialize)]
struct StorageRow {
    workload: String,
    elements: u64,
    ops: u64,
    prearena_ops_per_sec: f64,
    arena_ops_per_sec: f64,
    /// Pre-arena seconds / arena seconds on the same trace: the in-run
    /// measure of what interned columnar storage buys.
    arena_speedup: f64,
    /// Full Rete session over the guard-heavy stream at this scale
    /// (absent for the storage-only streaming rows).
    engine: Option<EngineRow>,
    arena_slots: u64,
    arena_bytes: u64,
}

/// The BENCH_storage.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct StorageReport {
    bench: String,
    rows: Vec<StorageRow>,
}

fn storage_fps_series(rows: &[StorageRow]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            let mut series = vec![(
                format!("{}/{}/arena_ops", r.workload, r.elements),
                r.arena_ops_per_sec,
            )];
            if let Some(engine) = &r.engine {
                series.push((
                    format!("{}/{}/engine", r.workload, r.elements),
                    engine.firings_per_sec,
                ));
            }
            series
        })
        .collect()
}

/// S9: interned columnar storage — the arena discipline (one intern at
/// ingress, ID-keyed integer operations after) against the pre-arena
/// discipline (owned elements, full-payload hash and clone per
/// operation, preserved in-tree as `HashBag<Element>`), replayed over
/// the byte-identical workload-shaped operation trace at 10^4/10^5/10^6
/// elements. The guard-heavy stream also runs end-to-end through a Rete
/// session at each scale for the throughput curve. Both replays must
/// produce the same probe checksum — same trace, same answers, only the
/// storage discipline differs. Results go to `BENCH_storage.json`.
fn s9() {
    use gammaflow_gamma::{
        ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec, Scheduling, Status,
    };
    use gammaflow_multiset::value::{BinOp, CmpOp};
    banner(
        "S9",
        "Interned columnar storage: arena vs pre-arena on identical traces",
    );

    // The guard-heavy stream as a real program: a three-conjunct filter
    // that consumes one-in-six elements, linear in the input size.
    let div6 = ReactionSpec::new("div6")
        .replace(Pattern::pair("x", "s9n"))
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
            "s9m",
        )]);
    let program = GammaProgram::new(vec![div6]);

    println!(
        "{:<14} {:>9} {:>9} {:>13} {:>13} {:>8} {:>12}",
        "workload", "elements", "ops", "prearena o/s", "arena o/s", "ratio", "engine f/s"
    );

    let sizes = [10_000usize, 100_000, 1_000_000];
    let mut rows = Vec::new();
    for &n in &sizes {
        // Fewer repeats at the top size keeps the CI smoke run bounded.
        let repeats = if n >= 1_000_000 { 1 } else { 3 };
        for guard_heavy in [true, false] {
            let trace = if guard_heavy {
                sieve_storage_trace(n)
            } else {
                window_storage_trace(n)
            };
            let median = |f: &dyn Fn(&StorageTrace) -> (f64, u64)| -> (f64, u64) {
                let mut secs = Vec::new();
                let mut sum = 0u64;
                for _ in 0..repeats {
                    let (s, c) = f(&trace);
                    secs.push(s);
                    sum = c;
                }
                secs.sort_by(f64::total_cmp);
                (secs[secs.len() / 2], sum)
            };
            let (pre_s, pre_sum) = median(&replay_prearena);
            let (arena_s, arena_sum) = median(&replay_arena);
            assert_eq!(
                pre_sum, arena_sum,
                "disciplines must answer the same trace identically"
            );

            let engine = if guard_heavy {
                let initial: ElementBag = (0..n as i64).map(|v| Element::pair(v, "s9n")).collect();
                let mut secs = Vec::new();
                let mut firings = 0u64;
                for _ in 0..repeats {
                    let t = Instant::now();
                    let mut session = Session::build(&program)
                        .scheduling(Scheduling::Rete)
                        .selection(Selection::Seeded(1))
                        .start(initial.clone())
                        .expect("program compiles");
                    let wv = session.run_to_stable().expect("wave runs");
                    assert_eq!(wv.status, Status::Stable);
                    secs.push(t.elapsed().as_secs_f64());
                    firings = session.finish().stats.firings_total();
                }
                secs.sort_by(f64::total_cmp);
                let s = secs[secs.len() / 2];
                assert_eq!(firings, n as u64 / 6 + 1, "one firing per multiple of 6");
                Some(EngineRow {
                    seconds: s,
                    firings,
                    firings_per_sec: firings as f64 / s,
                })
            } else {
                None
            };

            let arena = gammaflow_multiset::arena_stats();
            let ops = trace.ops.len() as u64;
            let row = StorageRow {
                workload: if guard_heavy {
                    "sieve_stream"
                } else {
                    "window_stream"
                }
                .into(),
                elements: n as u64,
                ops,
                prearena_ops_per_sec: ops as f64 / pre_s,
                arena_ops_per_sec: ops as f64 / arena_s,
                arena_speedup: pre_s / arena_s,
                engine,
                arena_slots: arena.slots as u64,
                arena_bytes: arena.bytes as u64,
            };
            println!(
                "{:<14} {:>9} {:>9} {:>13.0} {:>13.0} {:>7.2}x {:>12}",
                row.workload,
                row.elements,
                row.ops,
                row.prearena_ops_per_sec,
                row.arena_ops_per_sec,
                row.arena_speedup,
                row.engine
                    .as_ref()
                    .map_or("-".into(), |e| format!("{:.0}", e.firings_per_sec)),
            );
            rows.push(row);
        }
    }

    let baseline: Vec<(String, f64)> = read_baseline::<StorageReport>("BENCH_storage.json")
        .map(|old| storage_fps_series(&old.rows))
        .unwrap_or_default();
    warn_fps_regressions("BENCH_storage.json", &baseline, &storage_fps_series(&rows));

    let report = StorageReport {
        bench: "storage".into(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_storage.json", &json).expect("write BENCH_storage.json");
    println!("wrote BENCH_storage.json");
}

// ----------------------------------------------------------------- S10 ----

/// One dispatch strategy in BENCH_streaming_service.json.
#[derive(serde::Serialize, serde::Deserialize)]
struct ServiceRow {
    strategy: String,
    sessions: usize,
    waves_per_session: usize,
    elements_per_wave: usize,
    driver_threads: usize,
    total_waves: u64,
    seconds: f64,
    sessions_per_sec: f64,
    waves_per_sec: f64,
    p50_wave_us: f64,
    p99_wave_us: f64,
    pool_leases: u64,
    pool_refusals: u64,
    identical_finals: bool,
}

/// The BENCH_streaming_service.json schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct ServiceReport {
    bench: String,
    /// Sessions/sec of the parked-pool strategy over the spawn-per-wave
    /// strategy (the S10 acceptance figure: must stay >= 1.5).
    parked_speedup_vs_spawn: f64,
    rows: Vec<ServiceRow>,
}

fn service_fps_series(rows: &[ServiceRow]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| (r.strategy.clone(), r.sessions_per_sec))
        .collect()
}

fn percentile_us(latencies: &mut [f64], p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
    latencies[idx]
}

/// S10: serving thousands of concurrent small-wave sessions. The same
/// N-tenant stream (each tenant: W waves of E elements through a
/// one-reaction map program on the sharded parallel engine, 2 workers
/// per wave) is driven three ways:
///
/// * `parked_pool`    — `gammad` service, waves lease workers from the
///   process-wide parked pool (the default dispatch);
/// * `spawn_per_wave` — the same service, every wave spawns fresh
///   scoped threads (the historical behaviour);
/// * `thread_per_session` — no service: one OS thread per session for
///   its whole life, spawn-per-wave inside (the classic
///   architecture the service replaces).
///
/// Sessions/sec counts fully-finished sessions over wall time; wave
/// latency is measured per `run_next_wave` call (per inject+wave for
/// the threaded baseline). Every tenant's final multiset is checked
/// byte-identical to a standalone sequential session over the same
/// stream before any figure is recorded. Results go to
/// `BENCH_streaming_service.json`.
fn s10() {
    use gammaflow_gamma::{
        ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec, Status, WaveDispatch, WorkerPool,
    };
    use gammaflow_multiset::value::BinOp;
    use gammaflow_service::{ServiceConfig, ServiceRuntime};
    use std::sync::Mutex;
    banner(
        "S10",
        "gammad: thousands of sessions on one parked-worker pool",
    );

    let sessions: usize = 2048;
    let waves_per_session: usize = 4;
    let elements_per_wave: usize = 4;
    let drivers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));

    let program = GammaProgram::new(vec![ReactionSpec::new("double")
        .replace(Pattern::pair("x", "s10in"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(2)),
            "s10out",
        )])]);
    // Tenant `i`'s wave `w`: a disjoint value range, so every final is
    // tenant-unique and a cross-tenant mixup cannot cancel out.
    let wave_elems = |i: usize, w: usize| -> Vec<Element> {
        (0..elements_per_wave)
            .map(|j| Element::pair((i * 1_000 + w * 100 + j) as i64, "s10in"))
            .collect()
    };
    // Two engine workers per wave: a one-worker wave runs inline on the
    // driver thread under every dispatch, so only a multi-worker wave
    // acquires threads, and the dispatch mechanism — lease parked
    // workers vs spawn fresh threads — is exactly what the strategies
    // vary.
    let par_config = || EngineConfig {
        engine: Engine::Parallel(ParEngine::ShardedRete),
        workers: 2,
        ..EngineConfig::default()
    };

    // The standalone sequential reference finals (engine matrix anchor:
    // every strategy must reproduce these byte-for-byte).
    let reference: Vec<ElementBag> = (0..sessions)
        .map(|i| {
            let mut session = Session::build(&program)
                .start(ElementBag::new())
                .expect("program compiles");
            for w in 0..waves_per_session {
                let _ = session.inject(wave_elems(i, w));
                let wv = session.run_to_stable().expect("wave runs");
                assert_eq!(wv.status, Status::Stable);
            }
            session.finish().multiset
        })
        .collect();

    let total_waves = (sessions * waves_per_session) as u64;
    let mut rows: Vec<ServiceRow> = Vec::new();

    // The two service-driven strategies differ only in wave dispatch.
    for (strategy, dispatch) in [
        ("parked_pool", WaveDispatch::default()),
        ("spawn_per_wave", WaveDispatch::SpawnPerWave),
    ] {
        let svc = ServiceRuntime::new(ServiceConfig {
            dispatch,
            ..ServiceConfig::default()
        })
        .expect("no trace file configured");
        for i in 0..sessions {
            svc.register(&format!("t{i}"), &program, par_config(), ElementBag::new())
                .expect("tenant registers");
        }
        let (leases0, refusals0) = WorkerPool::global().lease_stats();
        let latencies = Mutex::new(Vec::with_capacity(total_waves as usize));
        let t0 = Instant::now();
        for w in 0..waves_per_session {
            for i in 0..sessions {
                let _ = svc.inject(&format!("t{i}"), wave_elems(i, w)).unwrap();
            }
            std::thread::scope(|scope| {
                for _ in 0..drivers {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let t = Instant::now();
                            match svc.run_next_wave().expect("wave runs") {
                                Some(report) => {
                                    assert_eq!(report.wave.status, Status::Stable);
                                    local.push(t.elapsed().as_secs_f64() * 1e6);
                                }
                                None => break,
                            }
                        }
                        latencies.lock().unwrap().extend(local);
                    });
                }
            });
        }
        let seconds = t0.elapsed().as_secs_f64();
        let (leases1, refusals1) = WorkerPool::global().lease_stats();

        let mut identical = true;
        for (i, expect) in reference.iter().enumerate() {
            let finals = svc.finish(&format!("t{i}")).expect("tenant finishes");
            identical &= finals.multiset == *expect;
        }
        assert!(identical, "{strategy}: finals must match standalone");

        let mut lat = latencies.into_inner().unwrap();
        assert_eq!(lat.len() as u64, total_waves, "every wave measured");
        rows.push(ServiceRow {
            strategy: strategy.into(),
            sessions,
            waves_per_session,
            elements_per_wave,
            driver_threads: drivers,
            total_waves,
            seconds,
            sessions_per_sec: sessions as f64 / seconds,
            waves_per_sec: total_waves as f64 / seconds,
            p50_wave_us: percentile_us(&mut lat, 0.50),
            p99_wave_us: percentile_us(&mut lat, 0.99),
            pool_leases: leases1 - leases0,
            pool_refusals: refusals1 - refusals0,
            identical_finals: identical,
        });
    }

    // The classic architecture: one OS thread owns each session for its
    // whole life; no multiplexing, spawn-per-wave inside.
    {
        let latencies = Mutex::new(Vec::with_capacity(total_waves as usize));
        let identical = std::sync::atomic::AtomicBool::new(true);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for i in 0..sessions {
                let latencies = &latencies;
                let identical = &identical;
                let program = &program;
                let reference = &reference;
                scope.spawn(move || {
                    let mut session = Session::build(program)
                        .config(par_config())
                        .wave_dispatch(WaveDispatch::SpawnPerWave)
                        .start(ElementBag::new())
                        .expect("program compiles");
                    let mut local = Vec::with_capacity(waves_per_session);
                    for w in 0..waves_per_session {
                        let t = Instant::now();
                        let _ = session.inject(wave_elems(i, w));
                        let wv = session.run_to_stable().expect("wave runs");
                        assert_eq!(wv.status, Status::Stable);
                        local.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    if session.finish().multiset != reference[i] {
                        identical.store(false, std::sync::atomic::Ordering::Relaxed);
                    }
                    latencies.lock().unwrap().extend(local);
                });
            }
        });
        let seconds = t0.elapsed().as_secs_f64();
        let ok = identical.load(std::sync::atomic::Ordering::Relaxed);
        assert!(ok, "thread_per_session: finals must match standalone");
        let mut lat = latencies.into_inner().unwrap();
        rows.push(ServiceRow {
            strategy: "thread_per_session".into(),
            sessions,
            waves_per_session,
            elements_per_wave,
            driver_threads: sessions,
            total_waves,
            seconds,
            sessions_per_sec: sessions as f64 / seconds,
            waves_per_sec: total_waves as f64 / seconds,
            p50_wave_us: percentile_us(&mut lat, 0.50),
            p99_wave_us: percentile_us(&mut lat, 0.99),
            pool_leases: 0,
            pool_refusals: 0,
            identical_finals: ok,
        });
    }

    println!(
        "{:<20} {:>8} {:>7} {:>10} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "strategy",
        "sessions",
        "drivers",
        "sess/s",
        "waves/s",
        "p50 us",
        "p99 us",
        "leases",
        "refused"
    );
    for r in &rows {
        println!(
            "{:<20} {:>8} {:>7} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>8} {:>8}",
            r.strategy,
            r.sessions,
            r.driver_threads,
            r.sessions_per_sec,
            r.waves_per_sec,
            r.p50_wave_us,
            r.p99_wave_us,
            r.pool_leases,
            r.pool_refusals
        );
    }

    let parked = rows[0].sessions_per_sec;
    let spawn = rows[1].sessions_per_sec;
    let speedup = parked / spawn;
    println!("parked pool vs spawn-per-wave: {speedup:.2}x sessions/sec");
    if speedup < 1.5 {
        println!("WARNING: parked-pool speedup below the 1.5x acceptance bar");
    }

    let baseline: Vec<(String, f64)> =
        read_baseline::<ServiceReport>("BENCH_streaming_service.json")
            .map(|old| service_fps_series(&old.rows))
            .unwrap_or_default();
    warn_fps_regressions(
        "BENCH_streaming_service.json",
        &baseline,
        &service_fps_series(&rows),
    );

    let report = ServiceReport {
        bench: "streaming_service".into(),
        parked_speedup_vs_spawn: speedup,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_streaming_service.json", &json)
        .expect("write BENCH_streaming_service.json");
    println!("wrote BENCH_streaming_service.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let t0 = Instant::now();
    if want("E1") {
        e1();
    }
    if want("E2") {
        e2();
    }
    if want("E3") {
        e3();
    }
    if want("E4") {
        e4();
    }
    if want("E5") {
        e5();
    }
    if want("E6") {
        e6();
    }
    if want("M1") {
        m1();
    }
    if want("P1") {
        p1();
    }
    if want("P2") {
        p2();
    }
    if want("P3") {
        p3();
    }
    if want("P4") {
        p4();
    }
    if want("P5") {
        p5();
    }
    if want("S2") {
        s2();
    }
    if want("S3") {
        s3();
    }
    if want("S4") {
        s4();
    }
    if want("S5") {
        s5();
    }
    if want("S6") {
        s6();
    }
    if want("S7") {
        s7();
    }
    if want("S8") {
        s8();
    }
    if want("S9") {
        s9();
    }
    if want("S10") {
        s10();
    }
    println!(
        "\nharness complete in {:.1?} — record release-mode output in EXPERIMENTS.md",
        t0.elapsed()
    );
}
