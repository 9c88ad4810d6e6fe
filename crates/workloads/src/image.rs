//! Image-processing workload (the paper cites Gamma's application to image
//! processing via ref. \[21\], "Gamma and the chemical reaction model").
//!
//! Classic chemical-model image examples operate on pixel multisets. We
//! synthesise a greyscale image (no proprietary data needed) and run two
//! stages:
//!
//! 1. **Threshold segmentation** — each pixel `[p, 'px', idx]` becomes a
//!    binary `[0|1, 'seg', idx]`; a unary, embarrassingly parallel reaction
//!    (the parallel interpreter's best case).
//! 2. **Histogram reduction** — foreground pixels contribute to a count
//!    via an associative merge, yielding `[count, 'fg']`.
//!
//! Pixel indices live in the tag field, exactly how Algorithm 1 encodes
//! per-datum identity.

use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{ElementSpec, GammaProgram, Pattern, Pipeline, ReactionSpec, TagSpec};
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{Element, ElementBag};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generated segmentation scenario.
#[derive(Debug, Clone)]
pub struct ImageScenario {
    /// Stage 1: per-pixel segmentation; stage 2: foreground count.
    pub pipeline: Pipeline,
    /// Pixel multiset `[value, 'px', index]`.
    pub initial: ElementBag,
    /// Expected: per-pixel `seg` elements plus one `[count, 'fg']`.
    pub expected: ElementBag,
    /// Width × height used by the generator.
    pub pixels: usize,
}

/// Build a scenario with `pixels` pixels of synthetic greyscale (0..256)
/// and threshold 128.
pub fn scenario(seed: u64, pixels: usize) -> ImageScenario {
    let threshold = 128i64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut initial = ElementBag::new();
    let mut expected = ElementBag::new();
    let mut fg = 0i64;
    for idx in 0..pixels {
        // Mix of a gradient and noise so both classes appear.
        let base = (idx as i64 * 256 / pixels.max(1) as i64) % 256;
        let noise = rng.gen_range(-32i64..=32);
        let p = (base + noise).clamp(0, 255);
        initial.insert(Element::new(p, "px", idx as u64));
        let bit = i64::from(p > threshold);
        fg += bit;
        expected.insert(Element::new(bit, "seg", idx as u64));
    }
    // Count elements start as copies of the segmentation bits and reduce
    // to a single total (label 'fgpart' → 'fg').
    expected.insert(Element::pair(fg, "fg"));

    let segment = GammaProgram::new(vec![ReactionSpec::new("segment")
        .replace(Pattern::tagged("p", "px", "i"))
        .by_if(
            vec![
                ElementSpec::tagged(Expr::int(1), "seg", "i"),
                ElementSpec {
                    value: Expr::int(1),
                    label: gammaflow_gamma::spec::LabelSpec::Lit(
                        gammaflow_multiset::Symbol::intern("fgpart"),
                    ),
                    tag: TagSpec::Zero,
                },
            ],
            Expr::cmp(CmpOp::Gt, Expr::var("p"), Expr::int(threshold)),
        )
        .by_else(vec![
            ElementSpec::tagged(Expr::int(0), "seg", "i"),
            ElementSpec {
                value: Expr::int(0),
                label: gammaflow_gamma::spec::LabelSpec::Lit(gammaflow_multiset::Symbol::intern(
                    "fgpart",
                )),
                tag: TagSpec::Zero,
            },
        ])]);

    // Merge must finish before finalize may run — were they in one stage,
    // `finalize` could race ahead and promote a *partial* sum. Sequential
    // composition (`;`) is the Gamma idiom for that barrier.
    let merge = GammaProgram::new(vec![ReactionSpec::new("merge")
        .replace(Pattern::pair("a", "fgpart"))
        .replace(Pattern::pair("b", "fgpart"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
            "fgpart",
        )])]);
    let finalize = GammaProgram::new(vec![ReactionSpec::new("finalize")
        .replace(Pattern::pair("a", "fgpart"))
        .by(vec![ElementSpec::pair(Expr::var("a"), "fg")])]);

    ImageScenario {
        pipeline: Pipeline::new(vec![segment, merge, finalize]),
        initial,
        expected,
        pixels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{run_pipeline, EngineConfig, Status};

    #[test]
    fn segmentation_and_count_are_exact() {
        for seed in [0, 5] {
            let s = scenario(seed, 64);
            let result =
                run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
            assert_eq!(result.status, Status::Stable);
            assert_eq!(result.multiset, s.expected, "seed {seed}");
        }
    }

    #[test]
    fn all_pixels_segmented() {
        let s = scenario(1, 100);
        let result =
            run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
        let segs = result
            .multiset
            .iter()
            .filter(|e| e.label.as_str() == "seg")
            .count();
        assert_eq!(segs, 100);
    }

    #[test]
    fn empty_image_yields_no_foreground() {
        // 1 pixel below threshold: fg = 0 but the merge stage still needs
        // its single fgpart promoted.
        let s = ImageScenario {
            pixels: 1,
            ..scenario(0, 1)
        };
        let result =
            run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
        assert!(result.multiset.iter().any(|e| e.label.as_str() == "fg"));
    }
}
