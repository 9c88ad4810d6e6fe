//! A deliberately index-free multiset view — the matching-strategy
//! ablation baseline.
//!
//! Early Gamma implementations (and the model's definition, Eq. (1))
//! treat the multiset as an unstructured bag: finding a tuple means
//! scanning candidate combinations. [`NaiveBag`] reproduces that cost
//! model behind the same [`MatchSource`] interface the indexed
//! [`ElementBag`] implements, so the experiment-P3 ablation ("naive vs
//! label-indexed matching") compares *only* the data-structure choice,
//! with matcher, interpreter, and programs held fixed.
//!
//! The trick: report a single wildcard "bucket universe" to the matcher —
//! `all_labels`/`tags_for_label` enumerate everything and `values_at`
//! filters the flat element vector linearly, exactly what a naive
//! implementation would do.

use gammaflow_gamma::{CompiledProgram, ExecError, GammaProgram, MatchSource};
use gammaflow_multiset::{Element, ElementBag, Symbol, Tag, Value};

/// An unindexed multiset: a flat vector of elements.
#[derive(Debug, Clone, Default)]
pub struct NaiveBag {
    elems: Vec<Element>,
}

impl FromIterator<Element> for NaiveBag {
    fn from_iter<I: IntoIterator<Item = Element>>(iter: I) -> NaiveBag {
        NaiveBag {
            elems: iter.into_iter().collect(),
        }
    }
}

impl NaiveBag {
    /// Build from an indexed bag (flattening it).
    pub fn from_bag(bag: &ElementBag) -> NaiveBag {
        Self::from_iter(bag.iter())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Remove one occurrence of each of `items`; all-or-nothing, linear
    /// scans throughout (that is the point).
    pub fn remove_all(&mut self, items: &[Element]) -> bool {
        let mut indices: Vec<usize> = Vec::with_capacity(items.len());
        for item in items {
            let found = self
                .elems
                .iter()
                .enumerate()
                .position(|(i, e)| e == item && !indices.contains(&i));
            match found {
                Some(i) => indices.push(i),
                None => return false,
            }
        }
        indices.sort_unstable_by(|a, b| b.cmp(a));
        for i in indices {
            self.elems.swap_remove(i);
        }
        true
    }

    /// Insert an element.
    pub fn insert(&mut self, e: Element) {
        self.elems.push(e);
    }

    /// Convert back to an indexed bag (for result comparison).
    pub fn to_element_bag(&self) -> ElementBag {
        self.elems.iter().cloned().collect()
    }
}

impl MatchSource for NaiveBag {
    fn all_labels(&self) -> Vec<Symbol> {
        // Full scan with linear dedup — no index to consult.
        let mut out: Vec<Symbol> = Vec::new();
        for e in &self.elems {
            if !out.contains(&e.label) {
                out.push(e.label);
            }
        }
        out
    }

    fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
        let mut out: Vec<Tag> = Vec::new();
        for e in &self.elems {
            if e.label == label && !out.contains(&e.tag) {
                out.push(e.tag);
            }
        }
        out
    }

    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
        let mut out: Vec<(Value, usize)> = Vec::new();
        for e in &self.elems {
            if e.label == label && e.tag == tag {
                match out.iter_mut().find(|(v, _)| *v == e.value) {
                    Some((_, c)) => *c += 1,
                    None => out.push((e.value.clone(), 1)),
                }
            }
        }
        out
    }

    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
        self.elems
            .iter()
            .filter(|e| e.label == label && e.tag == tag && &e.value == value)
            .count()
    }
}

/// Run a compiled program on a [`NaiveBag`] to steady state — the
/// unindexed counterpart of a deterministic rescanning session, for
/// ablation benchmarks. Deterministic selection only (the comparison holds the
/// schedule fixed).
pub fn run_naive(
    program: &GammaProgram,
    initial: ElementBag,
    max_steps: u64,
) -> Result<(ElementBag, u64), ExecError> {
    let compiled = CompiledProgram::compile(program)?;
    let mut bag = NaiveBag::from_bag(&initial);
    let order: Vec<usize> = (0..compiled.reactions.len()).collect();
    let mut firings = 0u64;
    while firings < max_steps {
        match compiled.find_any(&order, &bag, None)? {
            None => break,
            Some(firing) => {
                let ok = bag.remove_all(&firing.consumed);
                debug_assert!(ok);
                for e in firing.produced {
                    bag.insert(e);
                }
                firings += 1;
            }
        }
    }
    Ok((bag.to_element_bag(), firings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{ElementSpec, Expr, Pattern, ReactionSpec, Selection, Session};
    use gammaflow_multiset::value::{BinOp, CmpOp};

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    #[test]
    fn naive_remove_all_respects_multiplicity() {
        let mut bag = NaiveBag::from_iter([e(1, "n", 0), e(1, "n", 0), e(2, "n", 0)]);
        assert!(!bag.remove_all(&[e(1, "n", 0), e(1, "n", 0), e(1, "n", 0)]));
        assert_eq!(bag.len(), 3);
        assert!(bag.remove_all(&[e(1, "n", 0), e(1, "n", 0)]));
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn naive_match_source_agrees_with_indexed() {
        let elems = vec![e(1, "a", 0), e(2, "a", 1), e(2, "a", 1), e(3, "b", 0)];
        let naive = NaiveBag::from_iter(elems.clone());
        let indexed: ElementBag = elems.into_iter().collect();
        let mut nl = naive.all_labels();
        let mut il = indexed.all_labels();
        nl.sort();
        il.sort();
        assert_eq!(nl, il);
        for l in nl {
            let mut nt = naive.tags_for_label(l);
            let mut it = indexed.tags_for_label(l);
            nt.sort();
            it.sort();
            assert_eq!(nt, it);
            for t in nt {
                let mut nv = naive.values_at(l, t);
                let mut iv = indexed.values_at(l, t);
                nv.sort();
                iv.sort();
                assert_eq!(nv, iv);
            }
        }
    }

    #[test]
    fn naive_run_matches_indexed_run() {
        let min = GammaProgram::new(vec![ReactionSpec::new("min")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::var("y")))
            .by(vec![ElementSpec::pair(Expr::var("x"), "n")])]);
        let initial: ElementBag = [9, 4, 7, 1, 8].iter().map(|&v| e(v, "n", 0)).collect();
        let (naive_final, naive_firings) = run_naive(&min, initial.clone(), 1_000).unwrap();
        let seq = Session::build(&min)
            .selection(Selection::Deterministic)
            .run(initial)
            .unwrap();
        assert_eq!(naive_final, seq.multiset);
        assert_eq!(naive_firings, seq.stats.firings_total());
    }

    #[test]
    fn naive_run_respects_budget() {
        let diverge = GammaProgram::new(vec![ReactionSpec::new("inc")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
                "n",
            )])]);
        let initial: ElementBag = [e(0, "n", 0)].into_iter().collect();
        let (_, firings) = run_naive(&diverge, initial, 25).unwrap();
        assert_eq!(firings, 25);
    }
}
