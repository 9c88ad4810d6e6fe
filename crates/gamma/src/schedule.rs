//! Reaction dependencies — which reactions an inserted element can wake.
//!
//! The paper's equivalence rests on the observation that Gamma's "some
//! reaction is enabled" check and the tagged-token dataflow machine's
//! waiting–matching store are the same mechanism viewed from two sides:
//! a dataflow PE does not rescan its whole token store after every
//! firing — each *produced* token is delivered to exactly the
//! instructions waiting on its edge label, and only those instructions
//! re-attempt a match.
//!
//! [`DependencyIndex`] is the static half of that store, the *edge
//! table*: for every label (and for the wildcard class) the reactions
//! with a consuming pattern that could match an element carrying it.
//! This is Algorithm 1's vertex/edge correspondence read backwards:
//! label → waiting instructions. Matching is *monotone* in the
//! multiset — removing elements can only disable tuples, never enable
//! them — so only inserted elements need routing to wake anyone.
//!
//! The dynamic half is the Rete network ([`crate::rete`]), which routes
//! every insert/remove delta through this index into the alpha memories
//! of the reactions it names; the probe-and-retry parallel engine
//! ([`crate::parallel`]) uses it to re-arm the dirty flags of the
//! reactions an insertion may have enabled.

use crate::compiled::CompiledProgram;
use gammaflow_multiset::{FxHashMap, Symbol};

/// Static reaction-dependency index: label class → reactions with a
/// consuming pattern that could match an element of that class.
#[derive(Debug, Clone)]
pub struct DependencyIndex {
    by_label: FxHashMap<Symbol, Vec<u32>>,
    /// Reactions with a label-wildcard pattern: woken by every insertion.
    wildcard: Vec<u32>,
    nreactions: usize,
}

impl DependencyIndex {
    /// Build the index from a compiled program.
    pub fn new(compiled: &CompiledProgram) -> DependencyIndex {
        let mut by_label: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        let mut wildcard = Vec::new();
        for (i, reaction) in compiled.reactions.iter().enumerate() {
            let (labels, has_wildcard) = reaction.consumed_label_classes();
            if has_wildcard {
                wildcard.push(i as u32);
            }
            for label in labels {
                by_label.entry(label).or_default().push(i as u32);
            }
        }
        DependencyIndex {
            by_label,
            wildcard,
            nreactions: compiled.reactions.len(),
        }
    }

    /// Number of reactions in the indexed program.
    pub fn reaction_count(&self) -> usize {
        self.nreactions
    }

    /// Visit every reaction that might newly match after an element with
    /// `label` is inserted.
    pub fn for_each_dependent(&self, label: Symbol, mut f: impl FnMut(usize)) {
        if let Some(deps) = self.by_label.get(&label) {
            for &r in deps {
                f(r as usize);
            }
        }
        for &r in &self.wildcard {
            f(r as usize);
        }
    }

    /// True when some reaction consumes `label` (directly, through a
    /// label class, or via a wildcard pattern). The parallel engine's
    /// targeted delta delivery skips labels nobody consumes.
    pub fn has_dependents(&self, label: Symbol) -> bool {
        !self.wildcard.is_empty() || self.by_label.contains_key(&label)
    }

    /// The dependents of `label` as a collected vector (tests/diagnostics).
    pub fn dependents(&self, label: Symbol) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_dependent(label, |r| out.push(r));
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};

    /// a -> b -> c relabel chain plus an unrelated d -> d' reaction.
    fn chain_program() -> GammaProgram {
        GammaProgram::new(vec![
            ReactionSpec::new("ab")
                .replace(Pattern::pair("x", "a"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "b")]),
            ReactionSpec::new("bc")
                .replace(Pattern::pair("x", "b"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "c")]),
            ReactionSpec::new("dd")
                .replace(Pattern::pair("x", "d"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "d2")]),
        ])
    }

    #[test]
    fn dependency_index_maps_labels_to_consumers() {
        let compiled = CompiledProgram::compile(&chain_program()).unwrap();
        let idx = DependencyIndex::new(&compiled);
        assert_eq!(idx.reaction_count(), 3);
        assert_eq!(idx.dependents(Symbol::intern("a")), vec![0]);
        assert_eq!(idx.dependents(Symbol::intern("b")), vec![1]);
        assert_eq!(idx.dependents(Symbol::intern("d")), vec![2]);
        assert_eq!(
            idx.dependents(Symbol::intern("nobody")),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn wildcard_patterns_depend_on_every_label() {
        use crate::spec::{LabelPat, TagPat, ValuePat};
        let any_label = Pattern {
            value: ValuePat::Var(Symbol::intern("x")),
            label: LabelPat::Var(Symbol::intern("l")),
            tag: TagPat::Var(Symbol::intern("v")),
        };
        let prog = GammaProgram::new(vec![ReactionSpec::new("anylabel")
            .replace(any_label)
            .by(vec![])]);
        let compiled = CompiledProgram::compile(&prog).unwrap();
        let idx = DependencyIndex::new(&compiled);
        // Wildcard consumers are woken by any label, including ones never
        // seen at compile time.
        assert_eq!(idx.dependents(Symbol::intern("whatever")), vec![0]);
        assert_eq!(idx.dependents(Symbol::intern("other")), vec![0]);
    }
}
