//! Guard-heavy join workloads exercising the rete matcher's partial-match
//! memory and guard pushdown.
//!
//! The classic repertoire ([`crate::classic`]) is dominated by 2-ary
//! reactions whose conditions involve both variables at once, so a join
//! network can only filter at the terminal level. The families here are
//! chosen to stress what the classics do not:
//!
//! * [`divisor_sieve`] — the primes sieve with a *conjunctive* guard
//!   (`x % y == 0 and x > y`), the decomposition smoke test;
//! * [`triangles`] — 3-ary triangle counting over encoded edge elements,
//!   where the `b`-consistency conjunct binds after two positions and is
//!   pushed below the third join: without pushdown the matcher enumerates
//!   the full |E|³ cross product, with it only path prefixes survive;
//! * [`interval_merge`] — interval union by repeated pairwise merging,
//!   a confluent reaction whose overlap condition splits into two
//!   comparisons;
//! * [`cross_sum`] — the adversarial *unguarded* n² fold whose full
//!   cross product would blow the beta memory: the spill-watermark
//!   regression workload (harness `S3`).
//!
//! Every workload is self-checking (a [`Workload`] with its expected
//! stable multiset) and confluent by construction — [`triangles`] keeps
//! its triangles vertex-disjoint so greedy removal is order-independent —
//! which is what lets the `S2` harness assert byte-identical finals
//! across the `Rescan`/`Delta`/`Rete` engines under any selection policy.

use crate::classic::Workload;
use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{Element, ElementBag};

/// The primes sieve with a conjunctive guard: `replace x, y by y where
/// x % y == 0 and x > y` over `{2..=n}`. Same fixpoint as
/// [`crate::classic::primes`] (the primes), but the condition decomposes
/// into two conjuncts for the guard-analysis pass.
pub fn divisor_sieve(n: i64) -> Workload {
    let program = GammaProgram::new(vec![ReactionSpec::new("divsieve")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .where_(Expr::and(
            Expr::cmp(
                CmpOp::Eq,
                Expr::bin(BinOp::Rem, Expr::var("x"), Expr::var("y")),
                Expr::int(0),
            ),
            Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::var("y")),
        ))
        .by(vec![ElementSpec::pair(Expr::var("y"), "n")])]);
    let initial: ElementBag = (2..=n).map(|v| Element::pair(v, "n")).collect();
    let expected: ElementBag = (2..=n)
        .filter(|&v| (2..v).all(|d| v % d != 0))
        .map(|v| Element::pair(v, "n"))
        .collect();
    Workload {
        name: "divisor_sieve",
        program,
        initial,
        expected,
    }
}

/// Adversarial cross-product workload for the rete spill watermark: an
/// *unguarded* 2-ary sum fold over `n` distinct elements.
///
/// Every ordered pair is enabled, so an unbounded join network memorises
/// all `n·(n-1)` terminal tokens before the first firing — the worst
/// case that kept `Scheduling::Rete` opt-in before beta-memory eviction
/// landed. Past the watermark the terminal level demotes to virtual and
/// the network keeps only the `n`-token level-0 frontier, completing
/// matches by index search on demand; the harness `S3` step records the
/// peak token count alongside the three engines' throughput.
pub fn cross_sum(n: i64) -> Workload {
    let program = GammaProgram::new(vec![ReactionSpec::new("xsum")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
            "n",
        )])]);
    let initial: ElementBag = (1..=n).map(|v| Element::pair(v, "n")).collect();
    let expected: ElementBag = [Element::pair(n * (n + 1) / 2, "n")].into_iter().collect();
    Workload {
        name: "cross_sum",
        program,
        initial,
        expected,
    }
}

/// Node-id base for edge encoding: edge `(u, v)` with `u < v < ENC`
/// becomes the value `u * ENC + v` on label `e`.
const ENC: i64 = 1000;

fn edge(u: i64, v: i64) -> Element {
    debug_assert!(u < v && v < ENC);
    Element::pair(u * ENC + v, "e")
}

/// Triangle counting by greedy removal: a 3-ary reaction consumes the
/// canonically encoded edges `(a,b)`, `(b,c)`, `(a,c)` of a triangle
/// (`a < b < c`) and produces one `tri` marker carrying
/// `a·ENC² + b·ENC + c`.
///
/// The instance has `k` vertex-disjoint triangles plus `noise` star edges
/// around a hub (stars contain no triangle), so exactly the `k` triangles
/// fire — in any order, under any engine — and the stars survive.
///
/// The vertex-consistency condition decomposes into three conjuncts; the
/// first (`ab % ENC == bc / ENC`) is fully bound after two join levels and
/// is pushed below the third, which is the pushdown case the 2-ary
/// classics cannot exercise.
pub fn triangles(k: usize, noise: usize) -> Workload {
    assert!(k <= 100, "triangle nodes are allocated below the hub range");
    assert!(noise < 99, "noise leaves live in 901..ENC");
    let var = Expr::var;
    let div = |a: Expr, b: i64| Expr::bin(BinOp::Div, a, Expr::int(b));
    let rem = |a: Expr, b: i64| Expr::bin(BinOp::Rem, a, Expr::int(b));
    let eq = |a: Expr, b: Expr| Expr::cmp(CmpOp::Eq, a, b);

    let program = GammaProgram::new(vec![ReactionSpec::new("tri")
        .replace(Pattern::pair("ab", "e"))
        .replace(Pattern::pair("bc", "e"))
        .replace(Pattern::pair("ac", "e"))
        .where_(Expr::and(
            Expr::and(
                // b-consistency: bound after (ab, bc) — pushed to level 1.
                eq(rem(var("ab"), ENC), div(var("bc"), ENC)),
                // a-consistency: needs ac — level 2.
                eq(div(var("ab"), ENC), div(var("ac"), ENC)),
            ),
            // c-consistency: needs bc and ac — level 2.
            eq(rem(var("bc"), ENC), rem(var("ac"), ENC)),
        ))
        .by(vec![ElementSpec::pair(
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, div(var("ab"), ENC), Expr::int(ENC * ENC)),
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, rem(var("ab"), ENC), Expr::int(ENC)),
                    rem(var("bc"), ENC),
                ),
            ),
            "tri",
        )])]);

    let mut initial = ElementBag::new();
    let mut expected = ElementBag::new();
    for i in 0..k as i64 {
        let (a, b, c) = (3 * i, 3 * i + 1, 3 * i + 2);
        initial.insert(edge(a, b));
        initial.insert(edge(b, c));
        initial.insert(edge(a, c));
        expected.insert(Element::pair(a * ENC * ENC + b * ENC + c, "tri"));
    }
    // Star noise: hub 900 fanning out to 901.. — plenty of shared-vertex
    // pairs for the join to chew on, but no closing edges.
    let hub = 900;
    for j in 0..noise as i64 {
        let leaf = edge(hub, hub + 1 + j);
        initial.insert(leaf.clone());
        expected.insert(leaf);
    }
    Workload {
        name: "triangles",
        program,
        initial,
        expected,
    }
}

/// Endpoint base for interval encoding: `[lo, hi]` with
/// `0 <= lo <= hi < IVB` becomes the value `lo * IVB + hi` on label `iv`.
const IVB: i64 = 10_000;

/// Interval union: two overlapping (or touching, endpoints inclusive)
/// intervals merge into their hull until only maximal disjoint intervals
/// remain. Confluent: merging contiguous overlaps is order-independent.
/// The overlap test `lo_a <= hi_b and lo_b <= hi_a` decomposes into two
/// conjuncts over the packed encoding.
pub fn interval_merge(intervals: &[(i64, i64)]) -> Workload {
    assert!(intervals
        .iter()
        .all(|&(lo, hi)| 0 <= lo && lo <= hi && hi < IVB));
    let lo = |v: &str| Expr::bin(BinOp::Div, Expr::var(v), Expr::int(IVB));
    let hi = |v: &str| Expr::bin(BinOp::Rem, Expr::var(v), Expr::int(IVB));

    let program = GammaProgram::new(vec![ReactionSpec::new("merge")
        .replace(Pattern::pair("a", "iv"))
        .replace(Pattern::pair("b", "iv"))
        .where_(Expr::and(
            Expr::cmp(CmpOp::Le, lo("a"), hi("b")),
            Expr::cmp(CmpOp::Le, lo("b"), hi("a")),
        ))
        .by(vec![ElementSpec::pair(
            Expr::bin(
                BinOp::Add,
                Expr::bin(
                    BinOp::Mul,
                    Expr::bin(BinOp::Min, lo("a"), lo("b")),
                    Expr::int(IVB),
                ),
                Expr::bin(BinOp::Max, hi("a"), hi("b")),
            ),
            "iv",
        )])]);

    let initial: ElementBag = intervals
        .iter()
        .map(|&(lo, hi)| Element::pair(lo * IVB + hi, "iv"))
        .collect();

    // Host-side reference: classic sweep-line merge (touching counts).
    let mut sorted: Vec<(i64, i64)> = intervals.to_vec();
    sorted.sort_unstable();
    let mut merged: Vec<(i64, i64)> = Vec::new();
    for (lo, hi) in sorted {
        match merged.last_mut() {
            Some((_, mhi)) if lo <= *mhi => *mhi = (*mhi).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    let expected: ElementBag = merged
        .iter()
        .map(|&(lo, hi)| Element::pair(lo * IVB + hi, "iv"))
        .collect();
    Workload {
        name: "interval_merge",
        program,
        initial,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{Engine, ParEngine, Scheduling, Selection, Session, Status};

    fn run_scheduling(w: &Workload, scheduling: Scheduling, selection: Selection) {
        let result = Session::build(&w.program)
            .selection(selection)
            .scheduling(scheduling)
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable, "{} diverged", w.name);
        assert_eq!(
            result.multiset, w.expected,
            "{} wrong under {scheduling:?}/{selection:?}",
            w.name
        );
    }

    fn run_all_engines(w: &Workload) {
        for scheduling in [Scheduling::Rescan, Scheduling::Delta, Scheduling::Rete] {
            run_scheduling(w, scheduling, Selection::Deterministic);
            run_scheduling(w, scheduling, Selection::Seeded(7));
        }
    }

    #[test]
    fn divisor_sieve_finds_primes_under_every_engine() {
        run_all_engines(&divisor_sieve(60));
    }

    #[test]
    fn cross_sum_collapses_to_total_under_every_engine() {
        run_all_engines(&cross_sum(48));
    }

    #[test]
    fn triangles_fire_exactly_once_each() {
        run_all_engines(&triangles(5, 8));
    }

    #[test]
    fn intervals_merge_to_maximal_spans() {
        run_all_engines(&interval_merge(&[
            (1, 3),
            (2, 6),
            (8, 10),
            (10, 12),
            (20, 25),
            (24, 24),
            (30, 30),
        ]));
    }

    #[test]
    fn duplicate_intervals_collapse() {
        run_all_engines(&interval_merge(&[(5, 9), (5, 9), (9, 11)]));
    }

    #[test]
    fn triangle_workload_runs_in_parallel_engine() {
        let w = triangles(4, 6);
        let result = Session::build(&w.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(4)
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected);
    }

    #[test]
    fn divisor_sieve_matches_classic_primes() {
        let a = divisor_sieve(80);
        let b = crate::classic::primes(80);
        assert_eq!(a.expected, b.expected);
    }
}
