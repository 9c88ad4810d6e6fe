//! Closed-form reference results. Nothing here calls the engine: each
//! oracle computes the stable multiset and the firing count a workload
//! must reach straight from the workload's inputs.

use gammaflow_multiset::{Element, ElementBag, Tag};
use std::collections::BTreeMap;

/// What a run must end with.
#[derive(Debug, Clone)]
pub struct Expected {
    pub multiset: ElementBag,
    pub firings: u64,
}

/// `sieve_guard`: the primes of `2..=n` by trial division; every
/// composite is removed by exactly one firing.
pub fn primes(n: i64) -> Expected {
    let is_prime = |v: i64| (2..).take_while(|d| d * d <= v).all(|d| v % d != 0);
    let primes: Vec<i64> = (2..=n).filter(|&v| is_prime(v)).collect();
    Expected {
        firings: (n - 1).max(0) as u64 - primes.len() as u64,
        multiset: primes.into_iter().map(|v| Element::pair(v, "n")).collect(),
    }
}

/// `fold_*`: one element holding Σ values; a fold of `m` elements takes
/// `m − 1` firings under any schedule.
pub fn sum(values: &[i64]) -> Expected {
    let total = values.iter().fold(0i64, |a, &b| a.wrapping_add(b));
    Expected {
        firings: values.len().saturating_sub(1) as u64,
        multiset: [Element::pair(total, "n")].into_iter().collect(),
    }
}

/// `loops_tagged`: loop `k` of `parallel_loops(count, y, z, x)` runs
/// `for (i = z; i > 0; i--) x += y` from `(y + k, x + k)` and leaves
/// `x0 + y·z` at tag `z + 1` on `L{k}_xout`. Each of the `z` passing
/// iterations fires all nine nodes; the failing test fires the three
/// inctags, the compare and the three steers.
pub fn loops(count: usize, y: i64, z: i64, x: i64) -> Expected {
    let multiset = (0..count as i64)
        .map(|k| {
            let value = (x + k) + (y + k) * z;
            Element::new(value, format!("L{k}_xout").as_str(), Tag(z as u64 + 1))
        })
        .collect();
    Expected {
        multiset,
        firings: count as u64 * (9 * z as u64 + 7),
    }
}

/// Label of `filter_1m`'s input elements and of its quotients.
pub const DIV6_IN: &str = "s9n";
pub const DIV6_OUT: &str = "s9m";

/// `filter_1m`: every non-negative multiple of 6 is replaced by its
/// quotient on the output label; everything else stays.
pub fn div6(values: impl Iterator<Item = i64>) -> Expected {
    let mut firings = 0;
    let multiset = values
        .map(|v| {
            if v >= 0 && v % 6 == 0 {
                firings += 1;
                Element::pair(v / 6, DIV6_OUT)
            } else {
                Element::pair(v, DIV6_IN)
            }
        })
        .collect();
    Expected { multiset, firings }
}

/// `stream_*`: the windowed sum folds every tag's readings into one
/// total; a window of `m` readings takes `m − 1` firings. Works over any
/// mix of already-folded history and fresh waves.
pub fn window_totals<'a>(elements: impl Iterator<Item = &'a Element>) -> Expected {
    let mut windows: BTreeMap<u64, (i64, u64)> = BTreeMap::new();
    let mut label = None;
    for e in elements {
        let w = windows.entry(e.tag.0).or_insert((0, 0));
        w.0 += e.value.as_int().expect("integer readings");
        w.1 += 1;
        label.get_or_insert(e.label);
    }
    let firings = windows.values().map(|&(_, m)| m - 1).sum();
    let multiset = windows
        .into_iter()
        .map(|(tag, (total, _))| Element {
            value: total.into(),
            label: label.expect("a window implies an element"),
            tag: Tag(tag),
        })
        .collect();
    Expected { multiset, firings }
}

/// Labels of `service_small_waves`' inputs and outputs.
pub const DOUBLE_IN: &str = "s10in";
pub const DOUBLE_OUT: &str = "s10out";

/// `service_small_waves`: every injected `v` ends as `2·v`, one firing
/// each.
pub fn doubled(values: impl Iterator<Item = i64>) -> Expected {
    let mut firings = 0;
    let multiset = values
        .map(|v| {
            firings += 1;
            Element::pair(2 * v, DOUBLE_OUT)
        })
        .collect();
    Expected { multiset, firings }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(elems: impl IntoIterator<Item = Element>) -> ElementBag {
        elems.into_iter().collect()
    }

    #[test]
    fn primes_up_to_ten() {
        let e = primes(10);
        assert_eq!(e.multiset, bag([2, 3, 5, 7].map(|v| Element::pair(v, "n"))));
        // 4, 6, 8, 9, 10.
        assert_eq!(e.firings, 5);
    }

    #[test]
    fn sum_of_four() {
        let e = sum(&[1, 2, 3, 4]);
        assert_eq!(e.multiset, bag([Element::pair(10, "n")]));
        assert_eq!(e.firings, 3);
    }

    #[test]
    fn two_loops_of_three_iterations() {
        // Loop 0: x = 10 + 5·3 = 25; loop 1: x = 11 + 6·3 = 29; exit tag 4.
        let e = loops(2, 5, 3, 10);
        assert_eq!(
            e.multiset,
            bag([
                Element::new(25, "L0_xout", 4u64),
                Element::new(29, "L1_xout", 4u64)
            ])
        );
        assert_eq!(e.firings, 2 * (27 + 7));
    }

    #[test]
    fn div6_over_zero_to_twelve() {
        let e = div6(0..13);
        let mut want = bag([0, 1, 2].map(|v| Element::pair(v, DIV6_OUT)));
        for v in [1, 2, 3, 4, 5, 7, 8, 9, 10, 11] {
            want.insert(Element::pair(v, DIV6_IN));
        }
        assert_eq!(e.multiset, want);
        assert_eq!(e.firings, 3);
    }

    #[test]
    fn window_totals_fold_per_tag_and_keep_history() {
        // Tag 0 is already-folded history; tags 1 and 2 are fresh.
        let elems = [
            Element::new(100, "x", 0u64),
            Element::new(1, "x", 1u64),
            Element::new(2, "x", 1u64),
            Element::new(3, "x", 1u64),
            Element::new(7, "x", 2u64),
            Element::new(8, "x", 2u64),
        ];
        let e = window_totals(elems.iter());
        assert_eq!(
            e.multiset,
            bag([
                Element::new(100, "x", 0u64),
                Element::new(6, "x", 1u64),
                Element::new(15, "x", 2u64)
            ])
        );
        assert_eq!(e.firings, 3);
    }

    #[test]
    fn doubled_three() {
        let e = doubled([1, 5, 5].into_iter());
        let mut want = bag([Element::pair(2, DOUBLE_OUT)]);
        want.insert_n(Element::pair(10, DOUBLE_OUT), 2);
        assert_eq!(e.multiset, want);
        assert_eq!(e.firings, 3);
    }
}
