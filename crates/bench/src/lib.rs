//! Shared fixtures for the gammaflow benchmark suite and the experiment
//! harness (`cargo run -p gammaflow-bench --bin harness`).

#![warn(missing_docs)]

pub mod naive;

pub use naive::{run_naive, NaiveBag};

/// Paper-figure builders and engine configurations used across benches.
pub mod fixtures {
    use gammaflow_dataflow::graph::{DataflowGraph, GraphBuilder, OutPort};
    use gammaflow_dataflow::node::{Imm, NodeKind};
    use gammaflow_gamma::{Engine, EngineConfig, ParEngine};
    use gammaflow_multiset::value::{BinOp, CmpOp};

    /// The default parallel engine on `workers` threads, worker streams
    /// seeded with 1 (the benches' one parallel configuration).
    pub fn par_config(workers: usize) -> EngineConfig {
        EngineConfig {
            engine: Engine::Parallel(ParEngine::ShardedRete),
            workers,
            seed: 1,
            ..EngineConfig::default()
        }
    }

    /// The paper's Fig. 1 with observable `m`.
    pub fn fig1() -> DataflowGraph {
        let mut b = GraphBuilder::new();
        let x = b.constant_named(1, "x");
        let y = b.constant_named(5, "y");
        let k = b.constant_named(3, "k");
        let j = b.constant_named(2, "j");
        let r1 = b.add_named(NodeKind::Arith(BinOp::Add, None), "R1");
        let r2 = b.add_named(NodeKind::Arith(BinOp::Mul, None), "R2");
        let r3 = b.add_named(NodeKind::Arith(BinOp::Sub, None), "R3");
        let m = b.output("m_sink");
        b.connect_labelled(x, r1, 0, "A1");
        b.connect_labelled(y, r1, 1, "B1");
        b.connect_labelled(k, r2, 0, "C1");
        b.connect_labelled(j, r2, 1, "D1");
        b.connect_labelled(r1, r3, 0, "B2");
        b.connect_labelled(r2, r3, 1, "C2");
        b.connect_labelled(r3, m, 0, "m");
        b.build().unwrap()
    }

    /// The paper's Fig. 2, result observable on `xout`.
    pub fn fig2(y0: i64, z0: i64, x0: i64) -> DataflowGraph {
        let mut b = GraphBuilder::new();
        let y = b.constant_named(y0, "y");
        let z = b.constant_named(z0, "z");
        let x = b.constant_named(x0, "x");
        let r11 = b.add_named(NodeKind::IncTag, "R11");
        let r12 = b.add_named(NodeKind::IncTag, "R12");
        let r13 = b.add_named(NodeKind::IncTag, "R13");
        let r14 = b.add_named(NodeKind::Cmp(CmpOp::Gt, Some(Imm::right(0))), "R14");
        let r15 = b.add_named(NodeKind::Steer, "R15");
        let r16 = b.add_named(NodeKind::Steer, "R16");
        let r17 = b.add_named(NodeKind::Steer, "R17");
        let r18 = b.add_named(NodeKind::Arith(BinOp::Sub, Some(Imm::right(1))), "R18");
        let r19 = b.add_named(NodeKind::Arith(BinOp::Add, None), "R19");
        let out = b.output("result");
        b.connect_labelled(y, r11, 0, "A1");
        b.connect_labelled(z, r12, 0, "B1");
        b.connect_labelled(x, r13, 0, "C1");
        b.connect_labelled(r11, r15, 0, "A12");
        b.connect_labelled(r12, r14, 0, "B12");
        b.connect_labelled(r12, r16, 0, "B13");
        b.connect_labelled(r13, r17, 0, "C12");
        b.connect_labelled(r14, r15, 1, "B14");
        b.connect_labelled(r14, r16, 1, "B15");
        b.connect_labelled(r14, r17, 1, "B16");
        b.connect_full(r15, OutPort::True, r11, 0, Some("A11"));
        b.connect_full(r15, OutPort::True, r19, 0, Some("A13"));
        b.connect_full(r16, OutPort::True, r18, 0, Some("B17"));
        b.connect_full(r17, OutPort::True, r19, 1, Some("C13"));
        b.connect_labelled(r18, r12, 0, "B11");
        b.connect_labelled(r19, r13, 0, "C11");
        b.connect_full(r17, OutPort::False, out, 0, Some("xout"));
        b.build().unwrap()
    }

    /// `groups` independent copies of Example 1's expression
    /// `(a+b) - (c*d)`, one output each — the granularity-experiment
    /// family (wide Example 1).
    pub fn example1_family(groups: usize) -> DataflowGraph {
        let mut b = GraphBuilder::new();
        for g in 0..groups {
            let base = (g as i64) * 4;
            let a = b.constant(base + 1);
            let c = b.constant(base + 5);
            let k = b.constant(base + 3);
            let j = b.constant(base + 2);
            let add = b.add_named(NodeKind::Arith(BinOp::Add, None), format!("add{g}"));
            let mul = b.add_named(NodeKind::Arith(BinOp::Mul, None), format!("mul{g}"));
            let sub = b.add_named(NodeKind::Arith(BinOp::Sub, None), format!("sub{g}"));
            let out = b.output(&format!("m{g}_sink"));
            b.connect_labelled(a, add, 0, &format!("A{g}"));
            b.connect_labelled(c, add, 1, &format!("B{g}"));
            b.connect_labelled(k, mul, 0, &format!("C{g}"));
            b.connect_labelled(j, mul, 1, &format!("D{g}"));
            b.connect_labelled(add, sub, 0, &format!("S{g}"));
            b.connect_labelled(mul, sub, 1, &format!("P{g}"));
            b.connect_labelled(sub, out, 0, &format!("m{g}"));
        }
        b.build().unwrap()
    }

    /// Labels that must survive fusion for [`example1_family`]: the root
    /// and output labels of every group.
    pub fn example1_family_protected(groups: usize) -> Vec<gammaflow_multiset::Symbol> {
        let mut out = Vec::new();
        for g in 0..groups {
            for p in ["A", "B", "C", "D", "m"] {
                out.push(gammaflow_multiset::Symbol::intern(&format!("{p}{g}")));
            }
        }
        out
    }
}

/// Committed-baseline regression detection shared by the harness's
/// `S1`/`S2`/`S3`/`S4` steps: compare freshly measured `firings_per_sec`
/// series against the figures committed in a `BENCH_*.json` file and
/// report every series that dropped below the noise tolerance.
pub mod baseline {
    /// Run-to-run timing jitter allowance before a drop counts as a
    /// regression: warnings below ~10% would mostly report noise and
    /// train readers to ignore them.
    pub const FPS_REGRESSION_TOLERANCE: f64 = 0.90;

    /// One detected regression: the `workload/engine` series key, the
    /// fresh figure, and the committed figure it fell short of.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// Series key, conventionally `workload/engine`.
        pub key: String,
        /// Freshly measured firings/sec.
        pub current: f64,
        /// Committed baseline firings/sec.
        pub baseline: f64,
    }

    /// Pure comparison core: every series present in both lists whose
    /// fresh figure dropped below `baseline * tolerance`. Series missing
    /// from either side are ignored (new workloads, renamed rows).
    pub fn fps_regressions(
        baseline: &[(String, f64)],
        current: &[(String, f64)],
        tolerance: f64,
    ) -> Vec<Regression> {
        current
            .iter()
            .filter_map(|(key, new_fps)| {
                let (_, old_fps) = baseline.iter().find(|(k, _)| k == key)?;
                (*new_fps < old_fps * tolerance).then(|| Regression {
                    key: key.clone(),
                    current: *new_fps,
                    baseline: *old_fps,
                })
            })
            .collect()
    }

    /// Read a committed baseline report, tolerating a missing or
    /// unparseable file (first run, format change).
    pub fn read_baseline<T: for<'de> serde::Deserialize<'de>>(path: &str) -> Option<T> {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| serde_json::from_str::<T>(&s).ok())
    }

    /// Compare fresh `firings_per_sec` figures against the committed
    /// baseline (read *before* it is overwritten) and print a warning per
    /// regressed series. Skipped on CI: the committed baselines were
    /// measured on a developer machine, and shared CI runners are slower
    /// and noisier than any tolerance band, so the comparison would cry
    /// wolf there — CI still exercises the harness and its
    /// byte-identical-finals assertions.
    pub fn warn_fps_regressions(path: &str, baseline: &[(String, f64)], current: &[(String, f64)]) {
        if std::env::var_os("CI").is_some() {
            println!("(CI run: skipping firings/sec baseline comparison against {path})");
            return;
        }
        let regressions = fps_regressions(baseline, current, FPS_REGRESSION_TOLERANCE);
        for r in &regressions {
            println!(
                "WARNING: {} regressed to {:.0} firings/sec \
                 (committed baseline in {path}: {:.0})",
                r.key, r.current, r.baseline
            );
        }
        if regressions.is_empty() && !baseline.is_empty() {
            println!("no firings/sec regressions against committed {path}");
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn series(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        }

        #[test]
        fn detects_only_drops_past_tolerance() {
            let committed = series(&[
                ("sieve/rete", 10_000.0),
                ("sieve/delta", 5_000.0),
                ("triangles/rete", 100.0),
            ]);
            let fresh = series(&[
                ("sieve/rete", 8_000.0),     // 20% drop: regression
                ("sieve/delta", 4_700.0),    // 6% drop: within tolerance
                ("triangles/rete", 120.0),   // improvement
                ("cross_sum/rete", 9_999.0), // new series: ignored
            ]);
            let found = fps_regressions(&committed, &fresh, FPS_REGRESSION_TOLERANCE);
            assert_eq!(found.len(), 1);
            assert_eq!(found[0].key, "sieve/rete");
            assert_eq!(found[0].current, 8_000.0);
            assert_eq!(found[0].baseline, 10_000.0);
        }

        #[test]
        fn empty_baseline_reports_nothing() {
            let fresh = series(&[("sieve/rete", 1.0)]);
            assert!(fps_regressions(&[], &fresh, FPS_REGRESSION_TOLERANCE).is_empty());
        }

        #[test]
        fn multi_row_parallel_series_reports_every_regressed_cell() {
            // BENCH_parallel.json-style keys: workload × worker count ×
            // engine. Every regressed cell must be reported, across rows.
            let committed = series(&[
                ("loops/w1/probe_retry", 80_000.0),
                ("loops/w1/sharded_rete", 400_000.0),
                ("loops/w8/probe_retry", 75_000.0),
                ("loops/w8/sharded_rete", 380_000.0),
                ("sum/w8/probe_retry", 30_000.0),
                ("sum/w8/sharded_rete", 10_000.0),
            ]);
            let fresh = series(&[
                ("loops/w1/probe_retry", 79_000.0),   // within tolerance
                ("loops/w1/sharded_rete", 200_000.0), // regression
                ("loops/w8/probe_retry", 76_000.0),   // improvement
                ("loops/w8/sharded_rete", 100_000.0), // regression
                ("sum/w8/probe_retry", 31_000.0),
                ("sum/w8/sharded_rete", 9_500.0), // within tolerance
                ("sum/w16/sharded_rete", 1.0),    // new cell: ignored
            ]);
            let found = fps_regressions(&committed, &fresh, FPS_REGRESSION_TOLERANCE);
            let keys: Vec<&str> = found.iter().map(|r| r.key.as_str()).collect();
            assert_eq!(keys, vec!["loops/w1/sharded_rete", "loops/w8/sharded_rete"]);
        }
    }
}
