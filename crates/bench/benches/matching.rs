//! Matching-engine microbenchmarks: the cost of one `find_match` probe
//! under different multiset shapes — the quantity that dominates any Gamma
//! implementation (and the reason the `(label, tag)` index exists).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gammaflow_gamma::compiled::CompiledReaction;
use gammaflow_gamma::spec::{ElementSpec, Pattern, ReactionSpec};
use gammaflow_gamma::Expr;
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{Element, ElementBag};

/// Distinct labels: the indexed best case — every probe is O(1) bucket hits.
fn bench_distinct_labels(c: &mut Criterion) {
    let r = CompiledReaction::compile(
        &ReactionSpec::new("r")
            .replace(Pattern::pair("a", "x"))
            .replace(Pattern::pair("b", "y"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "z",
            )]),
    )
    .unwrap();
    let mut group = c.benchmark_group("match_distinct_labels");
    for size in [100usize, 10_000] {
        let mut bag = ElementBag::new();
        for i in 0..size as i64 {
            bag.insert(Element::pair(i, "x"));
            bag.insert(Element::pair(i, "y"));
        }
        group.bench_with_input(BenchmarkId::from_parameter(size), &bag, |b, bag| {
            b.iter(|| r.find_match(0, bag, None).unwrap().unwrap())
        });
    }
    group.finish();
}

/// One shared label (sieve-shaped): the index degenerates and candidate
/// enumeration dominates.
fn bench_single_bucket(c: &mut Criterion) {
    let r = CompiledReaction::compile(
        &ReactionSpec::new("r")
            .replace(Pattern::pair("a", "n"))
            .replace(Pattern::pair("b", "n"))
            .where_(Expr::cmp(
                CmpOp::Eq,
                Expr::bin(BinOp::Rem, Expr::var("a"), Expr::var("b")),
                Expr::int(0),
            ))
            .by(vec![ElementSpec::pair(Expr::var("b"), "n")]),
    )
    .unwrap();
    let mut group = c.benchmark_group("match_single_bucket_where");
    group.sample_size(20);
    for size in [100usize, 1000] {
        // Consecutive odd numbers: few divisibility pairs, so the matcher
        // really searches.
        let bag: ElementBag = (0..size as i64)
            .map(|i| Element::pair(2 * i + 3, "n"))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &bag, |b, bag| {
            b.iter(|| r.find_match(0, bag, None).unwrap())
        });
    }
    group.finish();
}

/// Tag-spread matching: one label, many tags, shared tag variable — the
/// waiting–matching-store shape.
fn bench_tag_spread(c: &mut Criterion) {
    let r = CompiledReaction::compile(
        &ReactionSpec::new("r")
            .replace(Pattern::tagged("a", "l", "v"))
            .replace(Pattern::tagged("b", "r", "v"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "o",
                "v",
            )]),
    )
    .unwrap();
    let mut group = c.benchmark_group("match_tag_spread");
    for tags in [16usize, 1024] {
        let mut bag = ElementBag::new();
        for t in 0..tags as u64 {
            bag.insert(Element::new(1, "l", t));
            // Only the last tag has a right-hand partner: worst case scan.
        }
        bag.insert(Element::new(2, "r", tags as u64 - 1));
        group.bench_with_input(BenchmarkId::from_parameter(tags), &bag, |b, bag| {
            b.iter(|| r.find_match(0, bag, None).unwrap().unwrap())
        });
    }
    group.finish();
}

/// Arity sweep on indexed labels.
fn bench_arity(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_arity");
    for arity in [1usize, 2, 4] {
        let mut spec = ReactionSpec::new("r");
        for i in 0..arity {
            spec = spec.replace(Pattern::pair(&format!("v{i}"), format!("l{i}").as_str()));
        }
        let r = CompiledReaction::compile(&spec.by(vec![])).unwrap();
        let mut bag = ElementBag::new();
        for i in 0..arity {
            for v in 0..1000i64 {
                bag.insert(Element::pair(v, format!("l{i}").as_str()));
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(arity), &bag, |b, bag| {
            b.iter(|| r.find_match(0, bag, None).unwrap().unwrap())
        });
    }
    group.finish();
}

/// Indexed vs naive (flat-scan) matching on the same reaction and
/// multiset — the data-structure ablation behind harness table P3.
fn bench_naive_vs_indexed(c: &mut Criterion) {
    use gammaflow_bench::NaiveBag;
    let r = CompiledReaction::compile(
        &ReactionSpec::new("r")
            .replace(Pattern::pair("a", "x"))
            .replace(Pattern::pair("b", "y"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "z",
            )]),
    )
    .unwrap();
    let mut group = c.benchmark_group("match_naive_vs_indexed");
    for size in [100usize, 2_000] {
        let elems: Vec<Element> = (0..size as i64)
            .flat_map(|i| [Element::pair(i, "x"), Element::pair(i, "y")])
            .collect();
        let indexed: ElementBag = elems.iter().cloned().collect();
        let naive = NaiveBag::from_iter(elems);
        group.bench_with_input(BenchmarkId::new("indexed", size), &indexed, |b, bag| {
            b.iter(|| r.find_match(0, bag, None).unwrap().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", size), &naive, |b, bag| {
            b.iter(|| r.find_match(0, bag, None).unwrap().unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distinct_labels,
    bench_single_bucket,
    bench_tag_spread,
    bench_arity,
    bench_naive_vs_indexed
);
criterion_main!(benches);
