//! Sensor data-fusion workload (the paper's application reference \[1\]:
//! "a parallel implementation of data fusion algorithm using Gamma",
//! target tracking on naval sensor data).
//!
//! The original uses classified radar traces; per DESIGN.md's substitution
//! rule we synthesise the same *shape* of computation: each target `t`
//! yields many position measurements tagged `t`; a fusion stage combines
//! same-target measurements; a classification stage flags fused tracks
//! beyond a threshold.
//!
//! Fusion is **sum-then-divide** rather than pairwise averaging: summation
//! is associative-commutative, so the stable result is independent of the
//! nondeterministic reduction tree (pairwise midpoints are not — an
//! unbalanced tree weights early measurements differently). Confluence
//! under nondeterminism is exactly the property the differential tests
//! lean on.
//!
//! The workload exercises what the paper's equivalence needs from Gamma:
//! tag-grouped matching (same-target pairing is the multiset twin of
//! dataflow's same-tag firing rule) and a two-stage pipeline (`;`).

use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{ElementSpec, GammaProgram, Pattern, Pipeline, ReactionSpec};
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{Element, ElementBag};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generated data-fusion scenario.
#[derive(Debug, Clone)]
pub struct FusionScenario {
    /// Stage 1 (same-target summation) then stage 2 (mean + threshold
    /// classification).
    pub pipeline: Pipeline,
    /// The raw measurement multiset.
    pub initial: ElementBag,
    /// Expected stable multiset after both stages: one `track` element per
    /// target (the mean position, integer division) plus one `alert`
    /// element per target whose mean exceeds the threshold.
    pub expected: ElementBag,
    /// The alert threshold used.
    pub threshold: i64,
}

/// Build a scenario: `targets` targets × `measurements_per_target` readings
/// (positions in `0..1000`), alert threshold fixed at 700.
pub fn scenario(seed: u64, targets: usize, measurements_per_target: usize) -> FusionScenario {
    assert!(measurements_per_target > 0);
    let threshold = 700i64;
    let m = measurements_per_target as i64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut initial = ElementBag::new();
    let mut expected = ElementBag::new();

    for t in 0..targets {
        // Per-target bias spreads the fused means across 100..900 so both
        // sides of the alert threshold actually occur.
        let base = 100 + (t as i64 * 600) / targets.max(1) as i64;
        let mut sum = 0i64;
        for _ in 0..measurements_per_target {
            let reading = base + rng.gen_range(0..200);
            sum += reading;
            initial.insert(Element::new(reading, "meas", t as u64));
        }
        let mean = sum / m;
        expected.insert(Element::new(mean, "track", t as u64));
        if mean > threshold {
            expected.insert(Element::new(1, "alert", t as u64));
        }
    }

    // Stage 1: same-target summation — associative/commutative, hence
    // confluent under any firing order.
    let fuse = GammaProgram::new(vec![ReactionSpec::new("fuse")
        .replace(Pattern::tagged("a", "meas", "t"))
        .replace(Pattern::tagged("b", "meas", "t"))
        .by(vec![ElementSpec::tagged(
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
            "meas",
            "t",
        )])]);

    // Stage 2: divide by the (static) measurement count to get the mean,
    // alerting when past the threshold.
    let mean_expr = Expr::bin(BinOp::Div, Expr::var("p"), Expr::int(m));
    let classify = GammaProgram::new(vec![ReactionSpec::new("promote")
        .replace(Pattern::tagged("p", "meas", "t"))
        .by_if(
            vec![
                ElementSpec::tagged(mean_expr.clone(), "track", "t"),
                ElementSpec::tagged(Expr::int(1), "alert", "t"),
            ],
            Expr::cmp(CmpOp::Gt, mean_expr.clone(), Expr::int(threshold)),
        )
        .by_else(vec![ElementSpec::tagged(mean_expr, "track", "t")])]);

    FusionScenario {
        pipeline: Pipeline::new(vec![fuse, classify]),
        initial,
        expected,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{run_pipeline, EngineConfig, Selection, Status};

    #[test]
    fn fusion_reaches_exact_means() {
        for seed in 0..5 {
            let s = scenario(seed, 6, 8);
            let result =
                run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
            assert_eq!(result.status, Status::Stable);
            assert_eq!(
                result.multiset, s.expected,
                "seed {seed}: got {} want {}",
                result.multiset, s.expected
            );
        }
    }

    #[test]
    fn result_is_schedule_independent() {
        let s = scenario(3, 4, 7);
        let mut results = Vec::new();
        for exec_seed in [0u64, 9, 1234] {
            let config = EngineConfig {
                selection: Selection::Seeded(exec_seed),
                ..EngineConfig::default()
            };
            let r = run_pipeline(&s.pipeline, s.initial.clone(), &config).unwrap();
            results.push(r.multiset);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0], s.expected);
    }

    #[test]
    fn targets_never_mix() {
        let s = scenario(42, 2, 4);
        let result =
            run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
        let tracks: Vec<_> = result
            .multiset
            .iter()
            .filter(|e| e.label.as_str() == "track")
            .collect();
        assert_eq!(tracks.len(), 2);
        assert_eq!(result.multiset, s.expected);
    }

    #[test]
    fn alerts_fire_only_above_threshold() {
        let s = scenario(7, 10, 4);
        let result =
            run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
        for e in result.multiset.iter() {
            if e.label.as_str() == "alert" {
                let track = result
                    .multiset
                    .iter()
                    .find(|x| x.label.as_str() == "track" && x.tag == e.tag)
                    .expect("alert without track");
                assert!(track.value.as_int().unwrap() > s.threshold);
            }
        }
    }

    #[test]
    fn single_measurement_targets_skip_fusion() {
        let s = scenario(1, 3, 1);
        let result =
            run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
        assert_eq!(result.multiset, s.expected);
    }
}
