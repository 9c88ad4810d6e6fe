//! §III-A3 reductions: fusing reactions to coarser granularity.
//!
//! The paper observes that converted reaction sets can be *reduced* —
//! Example 1's three reactions collapse into the single `Rd1`, Example 2's
//! nine into six — trading match probability for exposed parallelism.
//! [`fuse_all`] automates the transformation the paper performs by hand:
//!
//! A producer `P` and consumer `C` fuse over label `L` when
//! * `P` has a single unconditional clause producing exactly one element,
//!   labelled `L` with a same-tag form (fusing across an inctag would need
//!   tag-shifted patterns, which the grammar cannot express);
//! * `L` is consumed by exactly one pattern in the whole program (in `C`)
//!   and produced only by `P`;
//! * `L` is not protected (an initial-multiset or observable-output label).
//!
//! The fused reaction replaces `C`'s `L`-pattern with `P`'s replace-list
//! (variables renamed apart), substitutes `P`'s action expression for the
//! consumed variable throughout `C`'s conditions and outputs, and conjoins
//! `where` conditions. Running to a fixpoint on Example 1 yields exactly
//! the paper's `Rd1` (verified textually in the test suite via
//! [`canonicalize_vars`]).

use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{
    ElementSpec, GammaProgram, Guard, LabelPat, LabelSpec, Pattern, ReactionSpec, TagPat, TagSpec,
    ValuePat,
};
use gammaflow_multiset::{FxHashMap, Symbol};

/// Report of a fusion pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionReport {
    /// `(producer, consumer, label)` triples fused, in order.
    pub fused: Vec<(String, String, String)>,
    /// Reaction count before.
    pub before: usize,
    /// Reaction count after.
    pub after: usize,
}

/// Is this output's tag the plain same-tag form (`v` or elided)?
fn same_tag(spec: &ElementSpec, tag_var: Option<Symbol>) -> bool {
    match (&spec.tag, tag_var) {
        (TagSpec::Zero, _) => true,
        (TagSpec::Expr(Expr::Var(v)), Some(tv)) => *v == tv,
        _ => false,
    }
}

fn pattern_tag_var(p: &Pattern) -> Option<Symbol> {
    match &p.tag {
        TagPat::Var(v) => Some(*v),
        _ => None,
    }
}

/// Rename every variable of `spec` with a prefix, returning the renamed
/// spec and the mapping.
fn rename_apart(spec: &ReactionSpec, prefix: &str) -> (ReactionSpec, FxHashMap<Symbol, Symbol>) {
    let mut map: FxHashMap<Symbol, Symbol> = FxHashMap::default();
    let rn = |s: Symbol, map: &mut FxHashMap<Symbol, Symbol>| -> Symbol {
        *map.entry(s)
            .or_insert_with(|| Symbol::intern(&format!("{prefix}{s}")))
    };
    let rename_expr = |e: &Expr, map: &mut FxHashMap<Symbol, Symbol>| -> Expr {
        let mut subst: FxHashMap<Symbol, Expr> = FxHashMap::default();
        for v in e.vars() {
            let nv = *map
                .entry(v)
                .or_insert_with(|| Symbol::intern(&format!("{prefix}{v}")));
            subst.insert(v, Expr::Var(nv));
        }
        e.substitute(&subst)
    };
    let mut out = spec.clone();
    for p in &mut out.patterns {
        if let ValuePat::Var(v) = &mut p.value {
            *v = rn(*v, &mut map);
        }
        match &mut p.label {
            LabelPat::Var(v) => *v = rn(*v, &mut map),
            LabelPat::OneOf(_, Some(v)) => *v = rn(*v, &mut map),
            _ => {}
        }
        if let TagPat::Var(v) = &mut p.tag {
            *v = rn(*v, &mut map);
        }
    }
    if let Some(w) = &mut out.where_cond {
        *w = rename_expr(w, &mut map);
    }
    for c in &mut out.clauses {
        if let Guard::If(e) = &mut c.guard {
            *e = rename_expr(e, &mut map);
        }
        for o in &mut c.outputs {
            o.value = rename_expr(&o.value, &mut map);
            if let LabelSpec::Var(v) = &mut o.label {
                *v = rn(*v, &mut map);
            }
            if let TagSpec::Expr(e) = &mut o.tag {
                *e = rename_expr(e, &mut map);
            }
        }
    }
    (out, map)
}

/// Substitute `var := replacement` through a reaction's expressions.
fn substitute_var(spec: &mut ReactionSpec, var: Symbol, replacement: &Expr) {
    let mut subst: FxHashMap<Symbol, Expr> = FxHashMap::default();
    subst.insert(var, replacement.clone());
    if let Some(w) = &mut spec.where_cond {
        *w = w.substitute(&subst);
    }
    for c in &mut spec.clauses {
        if let Guard::If(e) = &mut c.guard {
            *e = e.substitute(&subst);
        }
        for o in &mut c.outputs {
            o.value = o.value.substitute(&subst);
            if let TagSpec::Expr(e) = &mut o.tag {
                *e = e.substitute(&subst);
            }
        }
    }
}

/// Labels a reaction can produce (literal ones).
fn produced_labels(r: &ReactionSpec) -> Vec<Symbol> {
    let mut out = Vec::new();
    for c in &r.clauses {
        for o in &c.outputs {
            if let LabelSpec::Lit(l) = &o.label {
                out.push(*l);
            }
        }
    }
    out
}

/// Attempt to fuse one eligible producer/consumer pair. Returns the new
/// program and the fused triple, or `None` if nothing is eligible.
pub fn fuse_once(
    prog: &GammaProgram,
    protected: &[Symbol],
) -> Option<(GammaProgram, (String, String, String))> {
    // Count producers/consumers per label.
    let mut producers: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
    let mut consumers: FxHashMap<Symbol, Vec<(usize, usize)>> = FxHashMap::default();
    for (i, r) in prog.reactions.iter().enumerate() {
        for l in produced_labels(r) {
            producers.entry(l).or_default().push(i);
        }
        for (pi, p) in r.patterns.iter().enumerate() {
            match &p.label {
                LabelPat::Lit(l) => consumers.entry(*l).or_default().push((i, pi)),
                LabelPat::OneOf(ls, _) => {
                    for l in ls {
                        consumers.entry(*l).or_default().push((i, pi));
                    }
                }
                LabelPat::Var(_) => return None, // wildcard: give up globally
            }
        }
    }

    for (pi_idx, p) in prog.reactions.iter().enumerate() {
        // Producer eligibility: one Always clause, exactly one output.
        if p.clauses.len() != 1
            || !matches!(p.clauses[0].guard, Guard::Always)
            || p.clauses[0].outputs.len() != 1
        {
            continue;
        }
        let out = &p.clauses[0].outputs[0];
        let LabelSpec::Lit(label) = out.label else {
            continue;
        };
        if protected.contains(&label) {
            continue;
        }
        let p_tag = p.patterns.first().and_then(pattern_tag_var);
        if !same_tag(out, p_tag) {
            continue;
        }
        if producers.get(&label).map(Vec::len) != Some(1) {
            continue;
        }
        let Some(cons) = consumers.get(&label) else {
            continue;
        };
        if cons.len() != 1 {
            continue;
        }
        let (ci_idx, cpat_idx) = cons[0];
        if ci_idx == pi_idx {
            continue; // self-loop label; fusing would change semantics
        }
        let c = &prog.reactions[ci_idx];
        // Consumer's pattern must be a plain literal-label pattern binding
        // a value variable (OneOf merges keep their other sources).
        let cp = &c.patterns[cpat_idx];
        if !matches!(cp.label, LabelPat::Lit(_)) {
            continue;
        }
        let Some(cv) = (match &cp.value {
            ValuePat::Var(v) => Some(*v),
            _ => None,
        }) else {
            continue;
        };

        // Rename producer apart, then unify tags: the producer's tag var
        // becomes the consumer pattern's tag var (both sides are same-tag).
        let (mut p_ren, _map) = rename_apart(p, &format!("{}__", p.name));
        let c_tagvar = pattern_tag_var(cp);
        let p_tagvar = p_ren.patterns.first().and_then(pattern_tag_var);
        if let (Some(ct), Some(pt)) = (c_tagvar, p_tagvar) {
            // Substitute pt := ct in the renamed producer.
            let mut subst: FxHashMap<Symbol, Expr> = FxHashMap::default();
            subst.insert(pt, Expr::Var(ct));
            for pat in &mut p_ren.patterns {
                if pattern_tag_var(pat) == Some(pt) {
                    pat.tag = TagPat::Var(ct);
                }
            }
            if let Some(w) = &mut p_ren.where_cond {
                *w = w.substitute(&subst);
            }
            for cl in &mut p_ren.clauses {
                for o in &mut cl.outputs {
                    o.value = o.value.substitute(&subst);
                    if let TagSpec::Expr(e) = &mut o.tag {
                        *e = e.substitute(&subst);
                    }
                }
                if let Guard::If(e) = &mut cl.guard {
                    *e = e.substitute(&subst);
                }
            }
        } else if c_tagvar.is_some() != p_tagvar.is_some() {
            continue; // pair-style and tagged styles don't mix
        }

        // Build the fused reaction.
        let mut fused = ReactionSpec {
            name: format!("{}+{}", c.name, p.name),
            patterns: Vec::new(),
            where_cond: None,
            clauses: c.clauses.clone(),
        };
        for (k, pat) in c.patterns.iter().enumerate() {
            if k == cpat_idx {
                fused.patterns.extend(p_ren.patterns.iter().cloned());
            } else {
                fused.patterns.push(pat.clone());
            }
        }
        let replacement = p_ren.clauses[0].outputs[0].value.clone();
        substitute_var(&mut fused, cv, &replacement);
        fused.where_cond = match (c.where_cond.clone(), p_ren.where_cond.clone()) {
            (None, None) => None,
            (Some(a), None) => {
                let mut subst: FxHashMap<Symbol, Expr> = FxHashMap::default();
                subst.insert(cv, replacement.clone());
                Some(a.substitute(&subst))
            }
            (None, Some(b)) => Some(b),
            (Some(a), Some(b)) => {
                let mut subst: FxHashMap<Symbol, Expr> = FxHashMap::default();
                subst.insert(cv, replacement.clone());
                Some(Expr::and(a.substitute(&subst), b))
            }
        };

        let mut reactions = Vec::with_capacity(prog.reactions.len() - 1);
        for (i, r) in prog.reactions.iter().enumerate() {
            if i == pi_idx {
                continue;
            }
            if i == ci_idx {
                reactions.push(fused.clone());
            } else {
                reactions.push(r.clone());
            }
        }
        return Some((
            GammaProgram::new(reactions),
            (p.name.clone(), c.name.clone(), label.as_str().to_string()),
        ));
    }
    None
}

/// Fuse to a fixpoint. `protected` labels (initial multiset, observable
/// outputs) are never eliminated.
pub fn fuse_all(prog: &GammaProgram, protected: &[Symbol]) -> (GammaProgram, FusionReport) {
    let mut report = FusionReport {
        before: prog.len(),
        ..FusionReport::default()
    };
    let mut current = prog.clone();
    while let Some((next, triple)) = fuse_once(&current, protected) {
        report.fused.push(triple);
        current = next;
    }
    report.after = current.len();
    (current, report)
}

/// Rename all variables to a canonical scheme (`id1, id2, …` for values in
/// pattern order, `x1, …` for label vars, `v` for the first tag var) so
/// structurally identical reactions compare equal regardless of the
/// variable names fusion invented.
pub fn canonicalize_vars(spec: &ReactionSpec) -> ReactionSpec {
    let mut map: FxHashMap<Symbol, Symbol> = FxHashMap::default();
    let mut value_n = 0usize;
    let mut label_n = 0usize;
    let mut tag_n = 0usize;
    for p in &spec.patterns {
        if let ValuePat::Var(v) = &p.value {
            map.entry(*v).or_insert_with(|| {
                value_n += 1;
                Symbol::intern(&format!("id{value_n}"))
            });
        }
        match &p.label {
            LabelPat::Var(v) | LabelPat::OneOf(_, Some(v)) => {
                map.entry(*v).or_insert_with(|| {
                    label_n += 1;
                    Symbol::intern(&format!("x{label_n}"))
                });
            }
            _ => {}
        }
        if let TagPat::Var(v) = &p.tag {
            map.entry(*v).or_insert_with(|| {
                tag_n += 1;
                if tag_n == 1 {
                    Symbol::intern("v")
                } else {
                    Symbol::intern(&format!("v{tag_n}"))
                }
            });
        }
    }
    let subst: FxHashMap<Symbol, Expr> = map.iter().map(|(k, v)| (*k, Expr::Var(*v))).collect();
    let ren = |e: &Expr| e.substitute(&subst);

    let mut out = spec.clone();
    for p in &mut out.patterns {
        if let ValuePat::Var(v) = &mut p.value {
            *v = map[v];
        }
        match &mut p.label {
            LabelPat::Var(v) => *v = map[v],
            LabelPat::OneOf(_, Some(v)) => *v = map[v],
            _ => {}
        }
        if let TagPat::Var(v) = &mut p.tag {
            *v = map[v];
        }
    }
    if let Some(w) = &mut out.where_cond {
        *w = ren(w);
    }
    for c in &mut out.clauses {
        if let Guard::If(e) = &mut c.guard {
            *e = ren(e);
        }
        for o in &mut c.outputs {
            o.value = ren(&o.value);
            if let LabelSpec::Var(v) = &mut o.label {
                *v = map.get(v).copied().unwrap_or(*v);
            }
            if let TagSpec::Expr(e) = &mut o.tag {
                *e = ren(e);
            }
        }
    }
    out
}

/// Granularity metrics for a program (used by experiment P1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Granularity {
    /// Number of reactions.
    pub reactions: usize,
    /// Mean replace-list arity ×1000 (fixed point to stay `Eq`).
    pub mean_arity_milli: usize,
    /// Total expression nodes across all actions.
    pub action_size: usize,
}

/// Compute granularity metrics.
pub fn granularity(prog: &GammaProgram) -> Granularity {
    let reactions = prog.len();
    let total_arity: usize = prog.reactions.iter().map(|r| r.arity()).sum();
    let action_size = prog
        .reactions
        .iter()
        .flat_map(|r| r.clauses.iter())
        .flat_map(|c| c.outputs.iter())
        .map(|o| o.value.size())
        .sum();
    Granularity {
        reactions,
        mean_arity_milli: (total_arity * 1000).checked_div(reactions).unwrap_or(0),
        action_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{Selection, Session, Status};
    use gammaflow_lang::{parse_program, parse_reaction, pretty_reaction};
    use gammaflow_multiset::{Element, ElementBag};

    fn example1() -> GammaProgram {
        parse_program(
            "R1 = replace [id1,'A1'], [id2,'B1'] by [id1+id2,'B2']
             R2 = replace [id1,'C1'], [id2,'D1'] by [id1*id2,'C2']
             R3 = replace [id1,'B2'], [id2,'C2'] by [id1-id2,'m']",
        )
        .unwrap()
    }

    fn protected() -> Vec<Symbol> {
        ["A1", "B1", "C1", "D1", "m"]
            .iter()
            .map(|l| Symbol::intern(l))
            .collect()
    }

    #[test]
    fn example1_fuses_to_single_reaction() {
        let (fused, report) = fuse_all(&example1(), &protected());
        assert_eq!(report.before, 3);
        assert_eq!(report.after, 1);
        assert_eq!(fused.len(), 1);
        assert_eq!(report.fused.len(), 2);
    }

    #[test]
    fn fused_example1_matches_paper_rd1() {
        let (fused, _) = fuse_all(&example1(), &protected());
        let canonical = canonicalize_vars(&fused.reactions[0]);
        // The paper's Rd1, canonicalised the same way.
        let mut rd1 = parse_reaction(
            "Rd1 = replace [id1,'A1'], [id2,'B1'], [id3,'C1'], [id4,'D1']
                   by [(id1+id2)-(id3*id4),'m']",
        )
        .unwrap();
        rd1 = canonicalize_vars(&rd1);
        assert_eq!(canonical.patterns, rd1.patterns);
        assert_eq!(canonical.clauses, rd1.clauses);
        assert_eq!(
            pretty_reaction(&canonical).lines().last().unwrap().trim(),
            "by [id1 + id2 - id3 * id4,'m']"
        );
    }

    #[test]
    fn fused_program_computes_same_result() {
        let initial: ElementBag = [
            Element::pair(1, "A1"),
            Element::pair(5, "B1"),
            Element::pair(3, "C1"),
            Element::pair(2, "D1"),
        ]
        .into_iter()
        .collect();
        let (fused, _) = fuse_all(&example1(), &protected());
        let a = Session::build(&example1())
            .selection(Selection::Seeded(5))
            .run(initial.clone())
            .unwrap();
        let b = Session::build(&fused)
            .selection(Selection::Seeded(5))
            .run(initial)
            .unwrap();
        assert_eq!(a.status, Status::Stable);
        assert_eq!(b.status, Status::Stable);
        assert_eq!(a.multiset, b.multiset);
        // But the fused program fires fewer, bigger reactions.
        assert_eq!(a.stats.firings_total(), 3);
        assert_eq!(b.stats.firings_total(), 1);
    }

    #[test]
    fn protected_labels_stop_fusion() {
        // Protecting the intermediate B2 blocks the R1→R3 fusion.
        let prot: Vec<Symbol> = ["A1", "B1", "C1", "D1", "m", "B2"]
            .iter()
            .map(|l| Symbol::intern(l))
            .collect();
        let (fused, report) = fuse_all(&example1(), &prot);
        assert_eq!(fused.len(), 2);
        assert_eq!(report.fused.len(), 1);
        assert_eq!(report.fused[0].2, "C2");
    }

    #[test]
    fn steer_producers_do_not_fuse() {
        // A producer with if/else clauses is not fusable.
        let prog = parse_program(
            "S = replace [d,'in'], [c,'ctl'] by [d,'mid'] if c == 1 by 0 else
             C = replace [x,'mid'] by [x+1,'out']",
        )
        .unwrap();
        let (fused, report) = fuse_all(
            &prog,
            &[
                Symbol::intern("in"),
                Symbol::intern("ctl"),
                Symbol::intern("out"),
            ],
        );
        assert_eq!(fused.len(), 2);
        assert!(report.fused.is_empty());
    }

    #[test]
    fn tagged_chain_fuses_with_tag_unification() {
        let prog = parse_program(
            "P = replace [a,'x',v] by [a*2,'mid',v]
             C = replace [b,'mid',w], [c,'y',w] by [b+c,'out',w]",
        )
        .unwrap();
        let prot: Vec<Symbol> = ["x", "y", "out"]
            .iter()
            .map(|l| Symbol::intern(l))
            .collect();
        let (fused, report) = fuse_all(&prog, &prot);
        assert_eq!(fused.len(), 1);
        assert_eq!(report.fused.len(), 1);
        // Execute: x=3@t2, y=4@t2 → out = 3*2+4 = 10 at tag 2.
        let initial: ElementBag = [Element::new(3, "x", 2u64), Element::new(4, "y", 2u64)]
            .into_iter()
            .collect();
        let r = Session::build(&fused).run(initial).unwrap();
        assert_eq!(
            r.multiset.sorted_elements(),
            vec![Element::new(10, "out", 2u64)]
        );
    }

    #[test]
    fn inctag_producer_does_not_fuse() {
        // Producer emits tag v+1: fusing would need tag-shifted patterns.
        let prog = parse_program(
            "P = replace [a,'x',v] by [a,'mid',v+1]
             C = replace [b,'mid',w] by [b,'out',w]",
        )
        .unwrap();
        let prot: Vec<Symbol> = ["x", "out"].iter().map(|l| Symbol::intern(l)).collect();
        let (fused, report) = fuse_all(&prog, &prot);
        assert_eq!(fused.len(), 2);
        assert!(report.fused.is_empty());
    }

    #[test]
    fn granularity_metrics() {
        let g3 = granularity(&example1());
        assert_eq!(g3.reactions, 3);
        assert_eq!(g3.mean_arity_milli, 2000);
        let (fused, _) = fuse_all(&example1(), &protected());
        let g1 = granularity(&fused);
        assert_eq!(g1.reactions, 1);
        assert_eq!(g1.mean_arity_milli, 4000);
        assert!(g1.action_size >= g3.action_size / 2);
    }

    #[test]
    fn fusion_handles_variable_collisions() {
        // Both reactions use `id1`; renaming must keep them apart.
        let prog = parse_program(
            "P = replace [id1,'a'] by [id1+1,'mid']
             C = replace [id1,'mid'] by [id1*10,'out']",
        )
        .unwrap();
        let prot: Vec<Symbol> = ["a", "out"].iter().map(|l| Symbol::intern(l)).collect();
        let (fused, _) = fuse_all(&prog, &prot);
        assert_eq!(fused.len(), 1);
        let initial: ElementBag = [Element::pair(4, "a")].into_iter().collect();
        let r = Session::build(&fused).run(initial).unwrap();
        assert_eq!(r.multiset.sorted_elements(), vec![Element::pair(50, "out")]);
    }
}
