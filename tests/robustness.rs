//! Robustness and failure-injection tests: parsers must reject garbage
//! with errors (never panic), engines must contain faults, and the
//! concurrent multiset must agree with the sequential one under random
//! operation sequences.

use gammaflow::gamma::{Engine, ParEngine, Session};
use gammaflow::lang::{parse_multiset, parse_program, parse_reaction};
use gammaflow::multiset::{Element, ElementBag, ShardedBag};
use proptest::prelude::*;

// ---------------------------------------------------------- parsers ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Gamma parser returns Ok or Err on arbitrary ASCII soup — it
    /// never panics and never loops.
    #[test]
    fn gamma_parser_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = parse_program(&src);
        let _ = parse_reaction(&src);
        let _ = parse_multiset(&src);
    }

    /// Same for the mini-C frontend.
    #[test]
    fn frontend_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = gammaflow::frontend::compile(&src);
    }

    /// Near-miss Gamma programs (valid tokens, shuffled structure).
    #[test]
    fn gamma_parser_survives_token_soup(
        toks in proptest::collection::vec(
            prop::sample::select(vec![
                "replace", "by", "if", "else", "where", "[", "]", "(", ")",
                ",", "=", "==", "+", "-", "*", "id1", "'A1'", "0", "42", "|", ";",
            ]),
            0..40
        )
    ) {
        let src = toks.join(" ");
        let _ = parse_program(&src);
    }
}

#[test]
fn deeply_nested_expression_parses_or_errors_gracefully() {
    // 512 nested parens: recursive-descent depth check. Either parse or
    // error, but no stack overflow at this depth.
    let mut src = String::from("R = replace [x,'n'] by [");
    src.push_str(&"(".repeat(512));
    src.push('x');
    src.push_str(&")".repeat(512));
    src.push_str(",'m']");
    let _ = parse_reaction(&src);
}

// --------------------------------------------------- fault injection ----

#[test]
fn action_fault_mid_run_stops_cleanly() {
    // The divisor reaches 0 after a few firings: the error must surface,
    // not panic, and must identify the reaction.
    let prog = parse_program("R = replace [x,'n'] by [100 / x, 'n']").unwrap();
    let initial: ElementBag = [Element::pair(3, "n")].into_iter().collect();
    // 100/3=33, /33=3, /3=33... never zero; use a decrementing divisor:
    let prog2 = parse_program("R = replace [x,'n'] by [100 / (x - 1), 'n'] if x > 0").unwrap();
    let initial2: ElementBag = [Element::pair(2, "n")].into_iter().collect();
    // x=2: 100/1 = 100; x=100: 100/99 = 1; x=1: 100/0 -> fault.
    let err = Session::build(&prog2).run(initial2).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("division by zero"), "{msg}");
    assert!(msg.contains('R'), "{msg}");
    drop((prog, initial));
}

#[test]
fn engine_fault_in_parallel_interpreter_is_contained() {
    let prog = parse_program("R = replace [x,'n'] by [1 / x, 'out']").unwrap();
    let initial: ElementBag = (0..50).map(|v| Element::pair(v % 5, "n")).collect();
    // Some elements are 0: division fault must propagate as Err from every
    // worker configuration without deadlock.
    for workers in [1, 4] {
        let r = Session::build(&prog)
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(workers)
            .run(initial.clone());
        assert!(r.is_err(), "{workers} workers should surface the fault");
    }
}

// ------------------------------------------------ concurrent multiset ----

/// A random operation against both bags; contents must stay identical.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u8, u8),
    Claim(Vec<(i64, u8, u8)>, Vec<(i64, u8, u8)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let elem = || (0i64..5, 0u8..3, 0u8..2);
    prop_oneof![
        elem().prop_map(|(v, l, t)| Op::Insert(v, l, t)),
        (
            proptest::collection::vec(elem(), 1..3),
            proptest::collection::vec(elem(), 0..3)
        )
            .prop_map(|(c, p)| Op::Claim(c, p)),
    ]
}

fn mk(v: i64, l: u8, t: u8) -> Element {
    Element::new(v, format!("L{l}").as_str(), t as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ShardedBag and ElementBag stay in lockstep over random insert/claim
    /// sequences (single-threaded here; races are covered by unit tests).
    #[test]
    fn prop_sharded_matches_reference(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let sharded = ShardedBag::new(4);
        let mut reference = ElementBag::new();
        for op in ops {
            match op {
                Op::Insert(v, l, t) => {
                    sharded.insert(mk(v, l, t));
                    reference.insert(mk(v, l, t));
                }
                Op::Claim(consume, produce) => {
                    let consumed: Vec<Element> =
                        consume.iter().map(|&(v, l, t)| mk(v, l, t)).collect();
                    let produced: Vec<Element> =
                        produce.iter().map(|&(v, l, t)| mk(v, l, t)).collect();
                    let ok_sharded = sharded.claim_and_replace(&consumed, &produced);
                    let ok_reference = if reference.remove_all(&consumed) {
                        for e in &produced {
                            reference.insert(e.clone());
                        }
                        true
                    } else {
                        false
                    };
                    prop_assert_eq!(ok_sharded, ok_reference);
                }
            }
        }
        prop_assert_eq!(sharded.len(), reference.len());
        prop_assert_eq!(sharded.snapshot(), reference);
    }
}

// ------------------------------------------------- budget edge cases ----

#[test]
fn zero_budget_fires_nothing() {
    let prog = parse_program("R = replace [x,'n'] by [x,'m']").unwrap();
    let initial: ElementBag = [Element::pair(1, "n")].into_iter().collect();
    let r = Session::build(&prog)
        .budget(0)
        .run(initial.clone())
        .unwrap();
    assert_eq!(r.stats.firings_total(), 0);
    assert_eq!(r.multiset, initial);
}

#[test]
fn empty_multiset_is_immediately_stable() {
    let prog = parse_program("R = replace [x,'n'] by [x,'m']").unwrap();
    let r = Session::build(&prog).run(ElementBag::new()).unwrap();
    assert_eq!(r.status, gammaflow::gamma::Status::Stable);
    assert!(r.multiset.is_empty());
}
