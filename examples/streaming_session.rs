//! Streaming sessions: one persistent engine, many input waves.
//!
//! A `gamma::Session` compiles the program once, builds the Rete matcher
//! state once, and then alternates `inject` / `run_to_stable` — the
//! production shape for continuous traffic, where the one-shot entry
//! points would rebuild matcher state from scratch per batch. This
//! example streams sensor windows into the windowed-sum workload and
//! contrasts the session against rebuild-per-wave, then shows the same
//! session API driving the sharded parallel engine.
//!
//! ```sh
//! cargo run --release --example streaming_session
//! ```

use gammaflow::gamma::{Engine, ParEngine, Selection, Session, Status};
use gammaflow::workloads::windowed_sum;
use std::time::Instant;

fn main() {
    // 32 waves, each delivering 64 windows of 2 readings. Every window
    // collapses to a total that stays in the bag forever — exactly the
    // regime where per-wave rebuilds pay O(history).
    let stream = windowed_sum(32, 64, 2, 42);
    println!(
        "workload: {} — {} waves × {} elements",
        stream.name,
        stream.waves.len(),
        stream.waves[0].len()
    );

    // One persistent session, resumed across waves.
    let t = Instant::now();
    let mut session = Session::build(&stream.program)
        .selection(Selection::Seeded(1))
        .observer(Box::new(|wave| {
            debug_assert_eq!(wave.status, Status::Stable);
        }))
        .start(stream.initial.clone())
        .expect("program compiles");
    for wave in &stream.waves {
        let _ = session.inject(wave.iter().cloned());
        session.run_to_stable().expect("wave runs");
    }
    let result = session.finish();
    let session_time = t.elapsed();
    assert_eq!(result.multiset, stream.expected);
    println!(
        "session-resume:    {} firings in {:>8.2?}  (matcher state persisted)",
        result.stats.firings_total(),
        session_time
    );

    // The same waves, rebuilding a session on the accumulated bag.
    let t = Instant::now();
    let mut bag = stream.initial.clone();
    let mut firings = 0u64;
    for wave in &stream.waves {
        for e in wave {
            bag.insert(e.clone());
        }
        let r = Session::build(&stream.program)
            .selection(Selection::Seeded(1))
            .run(bag)
            .expect("rebuild runs");
        firings += r.stats.firings_total();
        bag = r.multiset;
    }
    let rebuild_time = t.elapsed();
    assert_eq!(bag, stream.expected);
    println!(
        "rebuild-per-wave:  {firings} firings in {rebuild_time:>8.2?}  (fresh matcher every wave)",
    );
    println!(
        "speedup: {:.1}x  (finals byte-identical — resume is exact)",
        rebuild_time.as_secs_f64() / session_time.as_secs_f64()
    );

    // The same lifecycle drives the sharded parallel engine: slices,
    // bag, and directory persist; worker threads are scoped per wave.
    let mut par = Session::build(&stream.program)
        .engine(Engine::Parallel(ParEngine::ShardedRete))
        .workers(4)
        .start(stream.initial.clone())
        .expect("program compiles");
    for wave in &stream.waves {
        let _ = par.inject(wave.iter().cloned());
        par.run_to_stable().expect("wave runs");
    }
    let par_result = par.finish_parallel();
    assert_eq!(par_result.exec.multiset, stream.expected);
    println!(
        "parallel session:  {} firings over {} published deltas on 4 workers — same final",
        par_result.exec.stats.firings_total(),
        par_result.par.deltas_published
    );
}
