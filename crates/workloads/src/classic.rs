//! Classic Gamma programs from the literature.
//!
//! The paper's §II-B cites the standard Gamma repertoire (Banâtre &
//! Le Métayer's examples): minimum/maximum via Eq. (2), reductions, the
//! prime sieve, GCD, and exchange sort. These exercise features the
//! Algorithm-1 images do not — `where` conditions, wildcard-free matching
//! over big single-label buckets, and cross-tag patterns — and are the
//! workloads for experiments P3 (matching strategies / parallel scaling).

use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec, TagPat, ValuePat};
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{Element, ElementBag, Symbol};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A self-checking Gamma workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Descriptive name.
    pub name: &'static str,
    /// The program.
    pub program: GammaProgram,
    /// The initial multiset.
    pub initial: ElementBag,
    /// The expected stable multiset.
    pub expected: ElementBag,
}

/// Eq. (2) of the paper: keep the smaller of any two elements; stabilises
/// at the minimum.
pub fn minimum(values: &[i64]) -> Workload {
    let program = GammaProgram::new(vec![ReactionSpec::new("min")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::var("y")))
        .by(vec![ElementSpec::pair(Expr::var("x"), "n")])]);
    let initial: ElementBag = values.iter().map(|&v| Element::pair(v, "n")).collect();
    // Strict `<` keeps duplicates of the minimum.
    let min = values.iter().copied().min().expect("non-empty");
    let k = values.iter().filter(|&&v| v == min).count();
    let mut expected = ElementBag::new();
    expected.insert_n(Element::pair(min, "n"), k);
    Workload {
        name: "minimum",
        program,
        initial,
        expected,
    }
}

/// The dual: stabilises at the maximum.
pub fn maximum(values: &[i64]) -> Workload {
    let program = GammaProgram::new(vec![ReactionSpec::new("max")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .where_(Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::var("y")))
        .by(vec![ElementSpec::pair(Expr::var("x"), "n")])]);
    let initial: ElementBag = values.iter().map(|&v| Element::pair(v, "n")).collect();
    let max = values.iter().copied().max().expect("non-empty");
    let k = values.iter().filter(|&&v| v == max).count();
    let mut expected = ElementBag::new();
    expected.insert_n(Element::pair(max, "n"), k);
    Workload {
        name: "maximum",
        program,
        initial,
        expected,
    }
}

/// Pairwise sum: stabilises at one element holding the total.
pub fn sum(values: &[i64]) -> Workload {
    let program = GammaProgram::new(vec![ReactionSpec::new("sum")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
            "n",
        )])]);
    let initial: ElementBag = values.iter().map(|&v| Element::pair(v, "n")).collect();
    let total: i64 = values.iter().fold(0i64, |a, &b| a.wrapping_add(b));
    let expected: ElementBag = [Element::pair(total, "n")].into_iter().collect();
    Workload {
        name: "sum",
        program,
        initial,
        expected,
    }
}

/// The sieve: `replace x, y by y where x % y == 0` over `{2..=n}` leaves
/// exactly the primes.
pub fn primes(n: i64) -> Workload {
    let program = GammaProgram::new(vec![ReactionSpec::new("sieve")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .where_(Expr::cmp(
            CmpOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var("x"), Expr::var("y")),
            Expr::int(0),
        ))
        .by(vec![ElementSpec::pair(Expr::var("y"), "n")])]);
    let initial: ElementBag = (2..=n).map(|v| Element::pair(v, "n")).collect();
    let expected: ElementBag = (2..=n)
        .filter(|&v| (2..v).all(|d| v % d != 0))
        .map(|v| Element::pair(v, "n"))
        .collect();
    Workload {
        name: "primes",
        program,
        initial,
        expected,
    }
}

/// Set-wide GCD by repeated subtraction: `{x, y} → {x − y, y}` while
/// `x > y`; stabilises with every element equal to the gcd.
pub fn gcd(values: &[i64]) -> Workload {
    assert!(values.iter().all(|&v| v > 0), "gcd needs positive inputs");
    let program = GammaProgram::new(vec![ReactionSpec::new("gcd")
        .replace(Pattern::pair("x", "n"))
        .replace(Pattern::pair("y", "n"))
        .where_(Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::var("y")))
        .by(vec![
            ElementSpec::pair(Expr::bin(BinOp::Sub, Expr::var("x"), Expr::var("y")), "n"),
            ElementSpec::pair(Expr::var("y"), "n"),
        ])]);
    let initial: ElementBag = values.iter().map(|&v| Element::pair(v, "n")).collect();
    let g = values.iter().copied().fold(0, gcd2);
    let mut expected = ElementBag::new();
    expected.insert_n(Element::pair(g, "n"), values.len());
    Workload {
        name: "gcd",
        program,
        initial,
        expected,
    }
}

fn gcd2(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd2(b, a % b)
    }
}

/// Exchange sort: elements `[value, 'arr', index]` (the index lives in the
/// tag field); out-of-order pairs swap values. Stabilises at the sorted
/// permutation. Exercises *cross-tag* matching — patterns with distinct
/// tag variables and conditions over them.
pub fn exchange_sort(values: &[i64], seed: u64) -> Workload {
    let i = Symbol::intern("i");
    let j = Symbol::intern("j");
    let program = GammaProgram::new(vec![ReactionSpec::new("swap")
        .replace(Pattern {
            value: ValuePat::Var(Symbol::intern("a")),
            label: gammaflow_gamma::spec::LabelPat::Lit(Symbol::intern("arr")),
            tag: TagPat::Var(i),
        })
        .replace(Pattern {
            value: ValuePat::Var(Symbol::intern("b")),
            label: gammaflow_gamma::spec::LabelPat::Lit(Symbol::intern("arr")),
            tag: TagPat::Var(j),
        })
        .where_(Expr::and(
            Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Var(j)),
            Expr::cmp(CmpOp::Gt, Expr::var("a"), Expr::var("b")),
        ))
        .by(vec![
            ElementSpec::tagged(Expr::var("b"), "arr", "i"),
            ElementSpec::tagged(Expr::var("a"), "arr", "j"),
        ])]);
    // Shuffle the input so the initial permutation is seed-controlled.
    let mut shuffled: Vec<i64> = values.to_vec();
    shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let initial: ElementBag = shuffled
        .iter()
        .enumerate()
        .map(|(idx, &v)| Element::new(v, "arr", idx as u64))
        .collect();
    let mut sorted = values.to_vec();
    sorted.sort();
    let expected: ElementBag = sorted
        .iter()
        .enumerate()
        .map(|(idx, &v)| Element::new(v, "arr", idx as u64))
        .collect();
    Workload {
        name: "exchange_sort",
        program,
        initial,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{Engine, ParEngine, Selection, Session, Status};

    fn run_and_check(w: &Workload, seed: u64) {
        let result = Session::build(&w.program)
            .selection(Selection::Seeded(seed))
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable, "{} diverged", w.name);
        assert_eq!(
            result.multiset, w.expected,
            "{} wrong result: got {} want {}",
            w.name, result.multiset, w.expected
        );
    }

    #[test]
    fn minimum_works() {
        run_and_check(&minimum(&[5, 3, 9, 3, 7]), 0);
        run_and_check(&minimum(&[42]), 1);
        run_and_check(&minimum(&[2, 2, 2]), 2);
    }

    #[test]
    fn maximum_works() {
        run_and_check(&maximum(&[5, 3, 9, 3, 7]), 0);
        run_and_check(&maximum(&[-5, -9]), 3);
    }

    #[test]
    fn sum_works() {
        run_and_check(&sum(&(1..=30).collect::<Vec<_>>()), 0);
        run_and_check(&sum(&[-5]), 0);
    }

    #[test]
    fn primes_works() {
        let w = primes(30);
        run_and_check(&w, 0);
        let got: Vec<i64> = w
            .expected
            .sorted_elements()
            .iter()
            .map(|e| e.value.as_int().unwrap())
            .collect();
        assert_eq!(got, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }

    #[test]
    fn gcd_works() {
        run_and_check(&gcd(&[12, 18, 30]), 0);
        run_and_check(&gcd(&[7, 13]), 1);
    }

    #[test]
    fn exchange_sort_works() {
        run_and_check(&exchange_sort(&[9, 1, 8, 2, 7, 3], 11), 0);
        run_and_check(&exchange_sort(&[1, 1, 0, 0], 5), 1);
    }

    #[test]
    fn sort_runs_in_parallel_engine() {
        let w = exchange_sort(&(0..20).rev().collect::<Vec<_>>(), 3);
        let result = Session::build(&w.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(4)
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected);
    }

    #[test]
    fn primes_runs_in_parallel_engine() {
        let w = primes(60);
        let result = Session::build(&w.program)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(4)
            .run(w.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, w.expected);
    }
}
