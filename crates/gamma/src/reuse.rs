//! Trace-reuse analysis — the paper's motivating application, made
//! concrete.
//!
//! §I of the paper motivates the equivalence with "performing
//! instructions trace reuse" (its ref. \[3\], DF-DTM: dynamic task
//! memoization in dataflow): once a Gamma program is seen as a dataflow
//! execution, every firing is a *pure function* of its consumed values,
//! so repeated firings with identical inputs are redundant and could be
//! served from a memo table.
//!
//! [`analyze`] post-processes a firing trace (from either model — the
//! equivalence means the analysis is shared) into the memoization
//! statistics the DF-DTM literature reports: per-reaction distinct input
//! signatures vs total firings, and the overall redundancy ratio — the
//! fraction of firings a memoizing runtime could skip.

use crate::trace::FiringRecord;
use gammaflow_multiset::{FxHashMap, Value};

/// Reuse statistics for one reaction/instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactionReuse {
    /// Reaction (or dataflow node) name.
    pub name: String,
    /// Total firings observed.
    pub firings: u64,
    /// Distinct input-value signatures.
    pub distinct: u64,
}

impl ReactionReuse {
    /// Firings that a memo table would have served (`firings − distinct`).
    pub fn redundant(&self) -> u64 {
        self.firings - self.distinct
    }
}

/// Whole-trace reuse report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseReport {
    /// Per-reaction rows, sorted by redundancy (highest first).
    pub per_reaction: Vec<ReactionReuse>,
    /// Total firings.
    pub total: u64,
    /// Total redundant firings.
    pub redundant: u64,
}

impl ReuseReport {
    /// Redundancy ratio in [0, 1]: the memoizable fraction of the trace.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.redundant as f64 / self.total as f64
        }
    }
}

/// Analyse a firing trace for memoization potential.
///
/// The input signature of a firing is the *vector of consumed values* —
/// labels are fixed per reaction and tags only distinguish iterations, so
/// two firings with equal values are genuinely redundant computation (the
/// produced values are a pure function of the consumed ones; tags are
/// reproduced by re-tagging, as DF-DTM does).
pub fn analyze(trace: &[FiringRecord]) -> ReuseReport {
    // reaction name → (signature → count)
    let mut per: FxHashMap<&str, FxHashMap<Vec<&Value>, u64>> = FxHashMap::default();
    for rec in trace {
        let sig: Vec<&Value> = rec.consumed.iter().map(|e| &e.value).collect();
        *per.entry(rec.reaction.as_str())
            .or_default()
            .entry(sig)
            .or_insert(0) += 1;
    }
    let mut per_reaction: Vec<ReactionReuse> = per
        .into_iter()
        .map(|(name, sigs)| {
            let firings: u64 = sigs.values().sum();
            ReactionReuse {
                name: name.to_string(),
                firings,
                distinct: sigs.len() as u64,
            }
        })
        .collect();
    per_reaction.sort_by(|a, b| {
        b.redundant()
            .cmp(&a.redundant())
            .then_with(|| a.name.cmp(&b.name))
    });
    let total = per_reaction.iter().map(|r| r.firings).sum();
    let redundant = per_reaction.iter().map(|r| r.redundant()).sum();
    ReuseReport {
        per_reaction,
        total,
        redundant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Selection;
    use crate::session::Session;
    use crate::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
    use crate::Expr;
    use gammaflow_multiset::value::BinOp;
    use gammaflow_multiset::{Element, ElementBag};

    fn traced(program: &GammaProgram, initial: ElementBag, seed: u64) -> Vec<FiringRecord> {
        Session::build(program)
            .record_trace(true)
            .selection(Selection::Seeded(seed))
            .run(initial)
            .unwrap()
            .trace
            .unwrap()
    }

    #[test]
    fn identical_inputs_are_redundant() {
        // Double every 'in' element; feed many copies of the same value:
        // all but one firing are memoizable.
        let double = GammaProgram::new(vec![ReactionSpec::new("double")
            .replace(Pattern::pair("x", "in"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(2)),
                "out",
            )])]);
        let initial: ElementBag = (0..10).map(|_| Element::pair(7, "in")).collect();
        let report = analyze(&traced(&double, initial, 0));
        assert_eq!(report.total, 10);
        assert_eq!(report.per_reaction[0].distinct, 1);
        assert_eq!(report.redundant, 9);
        assert!((report.ratio() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn distinct_inputs_are_not_redundant() {
        let double = GammaProgram::new(vec![ReactionSpec::new("double")
            .replace(Pattern::pair("x", "in"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(2)),
                "out",
            )])]);
        let initial: ElementBag = (0..10).map(|v| Element::pair(v, "in")).collect();
        let report = analyze(&traced(&double, initial, 0));
        assert_eq!(report.total, 10);
        assert_eq!(report.redundant, 0);
        assert_eq!(report.ratio(), 0.0);
    }

    #[test]
    fn loop_iterations_with_same_values_reuse() {
        // The Fig. 2 y-steer consumes (y, 1) every iteration — identical
        // values each time, so a memo table would serve all but the first.
        // Model the effect with an inctag-style reaction fed by constant
        // values across tags.
        let relabel = GammaProgram::new(vec![ReactionSpec::new("inc")
            .replace(Pattern::tagged("x", "a", "v"))
            .by(vec![ElementSpec::inc_tagged(Expr::var("x"), "a", "v")])]);
        let initial: ElementBag = [Element::new(5, "a", 0u64)].into_iter().collect();
        let result = Session::build(&relabel)
            .record_trace(true)
            .budget(20)
            .run(initial)
            .unwrap();
        let report = analyze(&result.trace.unwrap());
        // 20 firings, all consuming the value 5: 19 redundant.
        assert_eq!(report.total, 20);
        assert_eq!(report.per_reaction[0].distinct, 1);
        assert_eq!(report.redundant, 19);
    }

    #[test]
    fn empty_trace_is_zero() {
        let report = analyze(&[]);
        assert_eq!(report.total, 0);
        assert_eq!(report.ratio(), 0.0);
        assert!(report.per_reaction.is_empty());
    }

    #[test]
    fn rows_sorted_by_redundancy() {
        let prog = GammaProgram::new(vec![
            ReactionSpec::new("hot")
                .replace(Pattern::pair("x", "h"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "ho")]),
            ReactionSpec::new("cold")
                .replace(Pattern::pair("x", "c"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "co")]),
        ]);
        let mut initial = ElementBag::new();
        for _ in 0..5 {
            initial.insert(Element::pair(1, "h")); // same value: redundant
        }
        for v in 0..5 {
            initial.insert(Element::pair(v, "c")); // distinct: no reuse
        }
        let report = analyze(&traced(&prog, initial, 3));
        assert_eq!(report.per_reaction[0].name, "hot");
        assert_eq!(report.per_reaction[0].redundant(), 4);
        assert_eq!(report.per_reaction[1].redundant(), 0);
    }
}
