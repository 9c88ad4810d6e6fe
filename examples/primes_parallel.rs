//! The classic Gamma prime sieve (`replace x, y by y where x % y == 0`)
//! on the sequential and parallel engines.
//!
//! This is the stress test for *matching*: every element shares one label,
//! so the `(label, tag)` index degenerates and the backtracking matcher
//! with its `where` condition does the real work.
//!
//! ```sh
//! cargo run --release --example primes_parallel [n]
//! ```

use gammaflow::gamma::{Engine, EngineConfig, ParEngine, Selection, Session, Status};
use gammaflow::lang::pretty_program;
use gammaflow::workloads::primes;
use std::time::Instant;

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let w = primes(n);
    println!(
        "sieving 2..={n} — program:\n{}\n",
        pretty_program(&w.program)
    );

    let t0 = Instant::now();
    let seq = Session::build(&w.program)
        .selection(Selection::Seeded(1))
        .run(w.initial.clone())
        .unwrap();
    let seq_time = t0.elapsed();
    assert_eq!(seq.status, Status::Stable);
    assert_eq!(seq.multiset, w.expected);
    println!(
        "sequential: {} firings, {} primes, {seq_time:?}",
        seq.stats.firings_total(),
        seq.multiset.len()
    );

    for workers in [1, 2, 4, 8] {
        let t0 = Instant::now();
        let mut session = Session::build(&w.program)
            .config(EngineConfig {
                engine: Engine::Parallel(ParEngine::ShardedRete),
                workers,
                seed: 1,
                ..EngineConfig::default()
            })
            .start(w.initial.clone())
            .unwrap();
        session.run_to_stable().unwrap();
        let par = session.finish_parallel();
        let elapsed = t0.elapsed();
        assert_eq!(par.exec.multiset, w.expected, "{workers} workers");
        println!(
            "parallel x{workers}: {} firings, {} claim races, {} dry probes, {elapsed:?}",
            par.exec.stats.firings_total(),
            par.par.claim_failures,
            par.par.dry_probes,
        );
    }

    let primes_found: Vec<i64> = w
        .expected
        .sorted_elements()
        .iter()
        .map(|e| e.value.as_int().unwrap())
        .collect();
    println!(
        "\nfirst primes: {:?}{}",
        &primes_found[..primes_found.len().min(12)],
        if primes_found.len() > 12 { " …" } else { "" }
    );
}
