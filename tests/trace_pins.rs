//! Pinned firing traces: FNV-1a digests of the full trace (and, in
//! maximal-parallel mode, the per-step profile) for three small programs
//! under every sequential scheduler, both selection policies, and both
//! stepping modes.
//!
//! The other suites compare schedulers *to each other* and resumed runs
//! *to uninterrupted ones*, so a change common to every wave loop — say,
//! moving Rescan's per-step `order.shuffle`, or drawing one more RNG word
//! before a pick — is invisible to them. These constants are not: they
//! were captured once and any refactor of the execution core must
//! reproduce them bit for bit.

use gammaflow::core::dataflow_to_gamma;
use gammaflow::gamma::{FiringRecord, GammaProgram, Scheduling, Selection, Session, Status};
use gammaflow::multiset::ElementBag;
use gammaflow::workloads::{accumulator_loop, primes, sum};

const SCHEDULINGS: [Scheduling; 2] = [Scheduling::Rescan, Scheduling::Rete];
const SELECTIONS: [Selection; 2] = [Selection::Deterministic, Selection::Seeded(7)];

/// Digests in loop order: program × scheduling × selection × {plain,
/// max-parallel}.
const PINS: [u64; 24] = [
    // primes(30)
    // Rescan: Deterministic plain, max-parallel; Seeded(7) plain, max-parallel
    0x80fa_9eb0_5bfc_3dd5,
    0xfe4f_8301_b422_329f,
    0x3ae2_3198_b8d7_a70f,
    0x387b_7371_21b7_bc6a,
    // Rete: Deterministic plain, max-parallel; Seeded(7) plain, max-parallel
    0x80fa_9eb0_5bfc_3dd5,
    0xfe4f_8301_b422_329f,
    0x05da_0fa8_504f_3671,
    0x0cd3_3831_5389_e9e9,
    // sum(1..=12)
    // Rescan: Deterministic plain, max-parallel; Seeded(7) plain, max-parallel
    0x0a8e_2c13_9e91_f552,
    0x670f_d765_010c_bc61,
    0x9138_7c2a_0a76_2a1e,
    0x220f_3547_56cb_0ea1,
    // Rete: Deterministic plain, max-parallel; Seeded(7) plain, max-parallel
    0x0a8e_2c13_9e91_f552,
    0x670f_d765_010c_bc61,
    0x2ae8_b4f4_8ee2_e290,
    0x70f3_7bad_570a_c289,
    // Algorithm-1 image of one Fig. 2 loop
    // Rescan: Deterministic plain, max-parallel; Seeded(7) plain, max-parallel
    0x4419_deee_e256_a3bd,
    0xb044_9927_e0a1_5a0f,
    0x4ddf_28fa_9ce3_0c67,
    0x2e71_a471_7f0b_699d,
    // Rete: Deterministic plain, max-parallel; Seeded(7) plain, max-parallel
    0x4419_deee_e256_a3bd,
    0xb044_9927_e0a1_5a0f,
    0x9fae_91fd_1005_250b,
    0xdaf7_bdb7_be5f_e209,
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(trace: &[FiringRecord], steps: &[usize]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for r in trace {
        let consumed: Vec<String> = r.consumed.iter().map(|e| e.to_string()).collect();
        let produced: Vec<String> = r.produced.iter().map(|e| e.to_string()).collect();
        let line = format!(
            "{} {} #{} {} -> {}\n",
            r.step,
            r.reaction,
            r.clause,
            consumed.join(" "),
            produced.join(" ")
        );
        fnv1a(&mut hash, line.as_bytes());
    }
    fnv1a(&mut hash, format!("{steps:?}").as_bytes());
    hash
}

fn programs() -> Vec<(&'static str, GammaProgram, ElementBag)> {
    let p = primes(30);
    let s = sum(&(1..=12).collect::<Vec<_>>());
    let image = dataflow_to_gamma(&accumulator_loop(2, 3, 10).graph).expect("Fig. 2 converts");
    vec![
        ("primes", p.program, p.initial),
        ("sum", s.program, s.initial),
        ("loop_image", image.program, image.initial),
    ]
}

#[test]
fn firing_traces_match_their_pinned_digests() {
    let mut actual = Vec::new();
    let mut labels = Vec::new();
    for (name, program, initial) in programs() {
        for scheduling in SCHEDULINGS {
            for selection in SELECTIONS {
                for max_parallel in [false, true] {
                    let mut session = Session::build(&program)
                        .scheduling(scheduling)
                        .selection(selection)
                        .record_trace(true)
                        .start(initial.clone())
                        .unwrap();
                    let (wave, steps) = if max_parallel {
                        session.run_to_stable_max_parallel().unwrap()
                    } else {
                        (session.run_to_stable().unwrap(), Vec::new())
                    };
                    assert_eq!(wave.status, Status::Stable);
                    let trace = session.finish().trace.expect("trace recording is on");
                    assert_eq!(trace.len() as u64, wave.fired);
                    actual.push(digest(&trace, &steps));
                    labels.push(format!(
                        "{name}/{scheduling:?}/{selection:?}/{}",
                        if max_parallel {
                            "max-parallel"
                        } else {
                            "plain"
                        }
                    ));
                }
            }
        }
    }
    let moved: Vec<&String> = labels
        .iter()
        .zip(actual.iter().zip(PINS))
        .filter(|(_, (a, p))| **a != *p)
        .map(|(l, _)| l)
        .collect();
    assert!(
        moved.is_empty(),
        "firing order changed for {moved:?}; digests now:\n{}",
        actual
            .iter()
            .map(|d| format!("    {d:#018x},\n"))
            .collect::<String>()
    );
}
