//! Target-tracking data fusion on the parallel Gamma engine — the
//! application domain of the paper's reference [1], synthesised per
//! DESIGN.md's substitution rule.
//!
//! Sensor measurements of many targets are fused per-target (tag-grouped
//! reactions), then classified against an alert threshold. Stage 1 runs on
//! the shared-memory parallel engine to show worker scaling.
//!
//! ```sh
//! cargo run --release --example target_tracking
//! ```

use gammaflow::gamma::{run_pipeline, Engine, EngineConfig, ParEngine, Session};
use gammaflow::workloads::fusion_scenario;
use std::time::Instant;

fn main() {
    let targets = 64;
    let per_target = 256;
    let s = fusion_scenario(2024, targets, per_target);
    println!(
        "scenario: {targets} targets x {per_target} measurements = {} elements",
        s.initial.len()
    );

    // Reference: the whole pipeline sequentially.
    let t0 = Instant::now();
    let seq = run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
    let seq_time = t0.elapsed();
    println!(
        "sequential pipeline: {} firings in {seq_time:?}",
        seq.stats.firings_total()
    );
    assert_eq!(seq.multiset, s.expected);

    // Parallel fusion stage with increasing worker counts.
    let fuse_stage = &s.pipeline.stages[0];
    for workers in [1, 2, 4, 8] {
        let t0 = Instant::now();
        let mut session = Session::build(fuse_stage)
            .config(EngineConfig {
                engine: Engine::Parallel(ParEngine::ShardedRete),
                workers,
                seed: 7,
                ..EngineConfig::default()
            })
            .start(s.initial.clone())
            .unwrap();
        session.run_to_stable().unwrap();
        let par = session.finish_parallel();
        let elapsed = t0.elapsed();
        println!(
            "fusion stage, {workers} worker(s): {} firings, {} claim races, {} snapshot checks, {elapsed:?}",
            par.exec.stats.firings_total(),
            par.par.claim_failures,
            par.par.snapshot_checks,
        );
        // Finish classification sequentially and verify.
        let classify = &s.pipeline.stages[1];
        let done = Session::build(classify).run(par.exec.multiset).unwrap();
        assert_eq!(done.multiset, s.expected, "{workers} workers");
    }

    let alerts = s
        .expected
        .iter()
        .filter(|e| e.label.as_str() == "alert")
        .count();
    println!("\ntracks: {targets}, alerts raised: {alerts}  — all engines agree");
}
