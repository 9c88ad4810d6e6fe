//! Streaming workloads: input arrives in **waves**, not as one fixed
//! initial multiset.
//!
//! The paper states the Gamma/dataflow equivalence over a fixed multiset,
//! but the production target serves continuous traffic; these workloads
//! exercise the [`Session`](gammaflow_gamma::Session) lifecycle — reach
//! steady state, inject a wave, resume — and are the basis of harness
//! step `S5` (`BENCH_streaming.json`), which measures session-resume
//! against rebuild-per-wave.
//!
//! The headline family is [`rolling_topk`]: a fixed-size `top` set
//! maintained against an ever-growing `cand` history. It is built so the
//! *stable* multiset keeps growing (every retired candidate stays in the
//! bag under a consumed label), which is exactly the regime where
//! rebuilding matcher state per wave costs O(history) while a resumed
//! session pays only O(wave).

use crate::classic::Workload;
use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
use gammaflow_multiset::value::CmpOp;
use gammaflow_multiset::{Element, ElementBag};
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A self-checking streaming workload: the program, the seed multiset,
/// the injection waves, and the expected stable multiset after **all**
/// waves have been absorbed.
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    /// Descriptive name.
    pub name: String,
    /// The program.
    pub program: GammaProgram,
    /// The multiset the session starts from (wave 0 runs on it alone).
    pub initial: ElementBag,
    /// The injection waves, in arrival order.
    pub waves: Vec<Vec<Element>>,
    /// The expected stable multiset once every wave has been injected
    /// and run to stability — byte-identical for any engine and any
    /// wave/one-shot split, because the program is confluent and a
    /// reaction's enabledness depends only on its consumed tuple.
    pub expected: ElementBag,
}

impl StreamingWorkload {
    /// The merged bag: `initial` plus every wave — the one-shot
    /// reference input ([`expected`](StreamingWorkload::expected) is its
    /// stable state too).
    pub fn merged(&self) -> ElementBag {
        let mut bag = self.initial.clone();
        for wave in &self.waves {
            for e in wave {
                bag.insert(e.clone());
            }
        }
        bag
    }

    /// View as a one-shot [`Workload`] over the merged bag (for engines
    /// and harness helpers that expect one).
    pub fn as_one_shot(&self) -> Workload {
        Workload {
            name: "streaming_merged",
            program: self.program.clone(),
            initial: self.merged(),
            expected: self.expected.clone(),
        }
    }
}

/// Rolling top-k over a candidate stream:
///
/// ```text
/// swap = replace [x,'top'], [y,'cand'] where y > x
///        by [y,'top'], [x,'cand']
/// ```
///
/// The bag holds exactly `k` elements labelled `top` (seeded with `k`
/// zeros) and an ever-growing history labelled `cand`. Every swap
/// strictly increases the sum of the `top` values, so the program
/// terminates; at stability no candidate exceeds any top element, so
/// the `top` multiset is exactly the `k` largest values seen — a unique
/// stable state even under value ties (the split of a boundary value
/// between labels is forced by the count of strictly larger values).
///
/// `waves` waves of `per_wave` pseudo-random candidate values (strictly
/// positive, so the zero seeds always wash out of `top` once `k` real
/// candidates arrived) are drawn from a seeded ChaCha8 stream.
///
/// Why this shape stresses rebuild-per-wave: retired candidates stay in
/// the bag under the *consumed* `cand` label, so a fresh matcher build
/// re-enumerates the `top × cand` join against the whole history every
/// wave — O(k · history) — while a resumed session's network only
/// processes the wave's insertion delta — O(k · per_wave).
pub fn rolling_topk(k: usize, waves: usize, per_wave: usize, seed: u64) -> StreamingWorkload {
    assert!(k > 0 && waves > 0 && per_wave > 0);
    assert!(
        waves * per_wave >= k,
        "need at least k candidates so the zero seeds wash out"
    );
    let program = GammaProgram::new(vec![ReactionSpec::new("swap")
        .replace(Pattern::pair("x", "top"))
        .replace(Pattern::pair("y", "cand"))
        .where_(Expr::cmp(CmpOp::Gt, Expr::var("y"), Expr::var("x")))
        .by(vec![
            ElementSpec::pair(Expr::var("y"), "top"),
            ElementSpec::pair(Expr::var("x"), "cand"),
        ])]);

    let mut initial = ElementBag::new();
    initial.insert_n(Element::pair(0, "top"), k);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let wave_elems: Vec<Vec<Element>> = (0..waves)
        .map(|_| {
            (0..per_wave)
                .map(|_| Element::pair((rng.next_u64() % 1_000_000) as i64 + 1, "cand"))
                .collect()
        })
        .collect();

    // Reference final: sort every value ever present (candidates plus the
    // k zero seeds) descending; the k largest carry 'top', the rest 'cand'.
    let mut values: Vec<i64> = wave_elems
        .iter()
        .flatten()
        .map(|e| e.value.as_int().expect("integer candidates"))
        .collect();
    values.extend(std::iter::repeat_n(0i64, k));
    values.sort_unstable_by(|a, b| b.cmp(a));
    let mut expected = ElementBag::new();
    for (i, v) in values.iter().enumerate() {
        if i < k {
            expected.insert(Element::pair(*v, "top"));
        } else {
            expected.insert(Element::pair(*v, "cand"));
        }
    }

    StreamingWorkload {
        name: format!("rolling_topk_k{k}_{waves}x{per_wave}"),
        program,
        initial,
        waves: wave_elems,
        expected,
    }
}

/// Windowed sums over a tag-partitioned stream:
///
/// ```text
/// wsum = replace [a,'x',t], [b,'x',t] by [a+b,'x',t]
/// ```
///
/// Each wave delivers `windows_per_wave` fresh windows (distinct tags) of
/// `per_window` readings each; within a window the pairwise fold
/// collapses them to one total, which **stays in the bag forever** under
/// the consumed label `x`. Collapsing a window of `m` readings takes
/// exactly `m − 1` firings under *any* schedule, and integer addition is
/// associative-commutative, so both the firing count and the final
/// multiset are schedule-independent — which is what lets harness `S5`
/// compare a seeded resumed session against seeded rebuilt interpreters
/// firing-for-firing.
///
/// Why this shape stresses rebuild-per-wave: after `w` waves the stable
/// bag holds `w · windows_per_wave` window totals, every one of them
/// matching the reaction's patterns, so a fresh matcher build
/// materialises O(history) alpha/beta tokens before the first new firing
/// — while a resumed session's network only absorbs the wave's
/// `windows_per_wave · per_window` insertions.
pub fn windowed_sum(
    waves: usize,
    windows_per_wave: usize,
    per_window: usize,
    seed: u64,
) -> StreamingWorkload {
    assert!(waves > 0 && windows_per_wave > 0 && per_window >= 2);
    let program = GammaProgram::new(vec![ReactionSpec::new("wsum")
        .replace(Pattern::tagged("a", "x", "t"))
        .replace(Pattern::tagged("b", "x", "t"))
        .by(vec![ElementSpec::tagged(
            Expr::bin(
                gammaflow_multiset::value::BinOp::Add,
                Expr::var("a"),
                Expr::var("b"),
            ),
            "x",
            "t",
        )])]);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut expected = ElementBag::new();
    let wave_elems: Vec<Vec<Element>> = (0..waves)
        .map(|w| {
            let mut wave = Vec::with_capacity(windows_per_wave * per_window);
            for i in 0..windows_per_wave {
                let tag = (w * windows_per_wave + i) as u64;
                let mut total = 0i64;
                for _ in 0..per_window {
                    let v = (rng.next_u64() % 10_000) as i64;
                    total += v;
                    wave.push(Element::new(v, "x", tag));
                }
                expected.insert(Element::new(total, "x", tag));
            }
            wave
        })
        .collect();

    StreamingWorkload {
        name: format!("windowed_sum_{waves}x{windows_per_wave}w{per_window}"),
        program,
        initial: ElementBag::new(),
        waves: wave_elems,
        expected,
    }
}

/// Bursty arrivals over a draining fold — the backpressure workload:
///
/// ```text
/// wsum = replace [a,'x',t], [b,'x',t] by [a+b,'x',t]
/// ```
///
/// Each wave is one **burst**: `burst_size` readings under a single
/// fresh tag. A wave's burst collapses to a single window total
/// (`burst_size − 1` firings, any schedule), so the live bag swings from
/// `burst_size + history` down to `history + 1` every cycle — the shape
/// that exercises [`EngineConfig::bag_budget`](gammaflow_gamma::EngineConfig::bag_budget)
/// admission: a budget smaller than `burst_size` forces
/// [`InjectOutcome::Spilled`](gammaflow_gamma::InjectOutcome) overflow
/// that the driver must re-inject after a draining wave, and because a
/// reaction's enabledness depends only on its consumed tuple, the
/// deferred arrivals land on the same stable multiset (the `expected`
/// field) as unbounded injection.
pub fn burst_drain(bursts: usize, burst_size: usize, seed: u64) -> StreamingWorkload {
    assert!(bursts > 0 && burst_size >= 2);
    let program = GammaProgram::new(vec![ReactionSpec::new("wsum")
        .replace(Pattern::tagged("a", "x", "t"))
        .replace(Pattern::tagged("b", "x", "t"))
        .by(vec![ElementSpec::tagged(
            Expr::bin(
                gammaflow_multiset::value::BinOp::Add,
                Expr::var("a"),
                Expr::var("b"),
            ),
            "x",
            "t",
        )])]);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut expected = ElementBag::new();
    let wave_elems: Vec<Vec<Element>> = (0..bursts)
        .map(|w| {
            let tag = w as u64;
            let mut total = 0i64;
            let wave: Vec<Element> = (0..burst_size)
                .map(|_| {
                    let v = (rng.next_u64() % 10_000) as i64;
                    total += v;
                    Element::new(v, "x", tag)
                })
                .collect();
            expected.insert(Element::new(total, "x", tag));
            wave
        })
        .collect();

    StreamingWorkload {
        name: format!("burst_drain_{bursts}x{burst_size}"),
        program,
        initial: ElementBag::new(),
        waves: wave_elems,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{Selection, Session, Status};

    #[test]
    fn one_shot_merged_reaches_expected() {
        let w = rolling_topk(8, 3, 16, 7);
        let result = Session::build(&w.program)
            .selection(Selection::Seeded(3))
            .run(w.merged())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected);
    }

    #[test]
    fn session_waves_reach_expected() {
        let w = rolling_topk(8, 4, 16, 11);
        let mut session = Session::build(&w.program)
            .selection(Selection::Deterministic)
            .start(w.initial.clone())
            .unwrap();
        session.run_to_stable().unwrap();
        for wave in &w.waves {
            let _ = session.inject(wave.iter().cloned());
            let wv = session.run_to_stable().unwrap();
            assert_eq!(wv.status, Status::Stable);
        }
        assert_eq!(session.finish().multiset, w.expected);
    }

    #[test]
    fn windowed_sum_firings_are_schedule_independent() {
        let w = windowed_sum(3, 4, 5, 13);
        let expected_firings = (3 * 4 * (5 - 1)) as u64;
        // One-shot merged, several seeds: same firing count, same final.
        for seed in 0..3 {
            let result = Session::build(&w.program)
                .selection(Selection::Seeded(seed))
                .run(w.merged())
                .unwrap();
            assert_eq!(result.status, Status::Stable);
            assert_eq!(result.stats.firings_total(), expected_firings);
            assert_eq!(result.multiset, w.expected);
        }
        // Session waves: same totals.
        let mut session = Session::build(&w.program).start(w.initial.clone()).unwrap();
        for wave in &w.waves {
            let _ = session.inject(wave.iter().cloned());
            session.run_to_stable().unwrap();
        }
        let result = session.finish();
        assert_eq!(result.stats.firings_total(), expected_firings);
        assert_eq!(result.multiset, w.expected);
    }

    #[test]
    fn burst_drain_collapses_each_burst_to_its_total() {
        let w = burst_drain(4, 8, 17);
        assert_eq!(w.waves.len(), 4);
        let result = Session::build(&w.program)
            .selection(Selection::Seeded(5))
            .run(w.merged())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected);
        assert_eq!(result.stats.firings_total(), (4 * (8 - 1)) as u64);
    }

    #[test]
    fn boundary_ties_have_a_unique_final() {
        // Hand-built tie at the k-boundary: k = 2, values {5, 5, 5, 1}.
        // Exactly two 5s end in 'top'; one 5 and the 1 (and the zero
        // seeds) end in 'cand', whichever copies swapped.
        let program = rolling_topk(2, 1, 2, 0).program;
        let mut initial = ElementBag::new();
        initial.insert_n(Element::pair(0, "top"), 2);
        for v in [5i64, 5, 5, 1] {
            initial.insert(Element::pair(v, "cand"));
        }
        let mut expected = ElementBag::new();
        expected.insert_n(Element::pair(5, "top"), 2);
        expected.insert(Element::pair(5, "cand"));
        expected.insert(Element::pair(1, "cand"));
        expected.insert_n(Element::pair(0, "cand"), 2);
        for seed in 0..4 {
            let result = Session::build(&program)
                .selection(Selection::Seeded(seed))
                .run(initial.clone())
                .unwrap();
            assert_eq!(result.multiset, expected, "seed {seed}");
        }
    }
}
