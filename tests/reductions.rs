//! E3: the paper's §III-A3 reductions.
//!
//! * The automated fusion pass collapses Example 1's three reactions into
//!   one, textually equal (after canonical renaming) to the paper's `Rd1`.
//! * The paper's hand-reduced six-reaction Example 2 executes the same
//!   loop trajectory as the nine-reaction version — with one finding the
//!   paper does not report: the reduced program strands two elements
//!   (`B16`, `C12` at the exit tag) because `Rd16` needs an `A13` that the
//!   final iteration never produces. EXPERIMENTS.md discusses this.

mod common;

use common::{fig1, fig2, EXAMPLE2_GAMMA, EXAMPLE2_REDUCED_GAMMA};
use gammaflow::core::{canonicalize_vars, dataflow_to_gamma, fuse_all, granularity};
use gammaflow::gamma::{Selection, Session, Status};
use gammaflow::lang::{parse_program, parse_reaction};
use gammaflow::multiset::{Element, ElementBag, Symbol};

fn protected_example1() -> Vec<Symbol> {
    ["A1", "B1", "C1", "D1", "m"]
        .iter()
        .map(|l| Symbol::intern(l))
        .collect()
}

#[test]
fn e3_example1_fuses_three_to_one() {
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let (fused, report) = fuse_all(&conv.program, &protected_example1());
    assert_eq!(report.before, 3);
    assert_eq!(report.after, 1);
    assert_eq!(fused.len(), 1);
}

#[test]
fn e3_fused_reaction_is_papers_rd1() {
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let (fused, _) = fuse_all(&conv.program, &protected_example1());
    let ours = canonicalize_vars(&fused.reactions[0]);
    let mut rd1 = parse_reaction(
        "Rd1 = replace [id1,'A1'], [id2,'B1'], [id3,'C1'], [id4,'D1']
               by [(id1+id2)-(id3*id4),'m']",
    )
    .unwrap();
    rd1 = canonicalize_vars(&rd1);
    assert_eq!(ours.patterns, rd1.patterns);
    assert_eq!(ours.clauses, rd1.clauses);
    assert_eq!(ours.where_cond, rd1.where_cond);
}

#[test]
fn e3_fused_and_unfused_agree_on_result() {
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let (fused, _) = fuse_all(&conv.program, &protected_example1());
    for seed in [0, 3, 8] {
        let a = Session::build(&conv.program)
            .selection(Selection::Seeded(seed))
            .run(conv.initial.clone())
            .unwrap();
        let b = Session::build(&fused)
            .selection(Selection::Seeded(seed))
            .run(conv.initial.clone())
            .unwrap();
        assert_eq!(a.multiset, b.multiset);
        assert_eq!(a.stats.firings_total(), 3);
        assert_eq!(b.stats.firings_total(), 1);
    }
}

#[test]
fn e3_granularity_shifts_as_paper_describes() {
    // "with this reduced code, the opportunity of explore the parallelism
    // of reactions decrease" — fewer, wider reactions.
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let (fused, _) = fuse_all(&conv.program, &protected_example1());
    let before = granularity(&conv.program);
    let after = granularity(&fused);
    assert!(after.reactions < before.reactions);
    assert!(after.mean_arity_milli > before.mean_arity_milli);
}

#[test]
fn e3_max_parallel_steps_show_parallelism_loss() {
    // The unfused program can fire R1 and R2 simultaneously (2 steps
    // total as maximal parallel rounds: {R1,R2} then {R3}); the fused
    // version needs 1 round but exposes no intra-round parallelism.
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let mut session = Session::build(&conv.program)
        .start(conv.initial.clone())
        .unwrap();
    let (wave, profile) = session.run_to_stable_max_parallel().unwrap();
    assert_eq!(wave.status, Status::Stable);
    assert_eq!(profile, vec![2, 1], "R1|R2 in parallel, then R3");
}

#[test]
fn e3_papers_reduced_example2_runs_the_same_loop() {
    let full = parse_program(EXAMPLE2_GAMMA).unwrap();
    let reduced = parse_program(EXAMPLE2_REDUCED_GAMMA).unwrap();
    assert_eq!(full.len(), 9);
    assert_eq!(reduced.len(), 6, "paper reduces nine reactions to six");

    let z = 3i64;
    let initial: ElementBag = [
        Element::new(5, "A1", 0u64),
        Element::new(z, "B1", 0u64),
        Element::new(10, "C1", 0u64),
    ]
    .into_iter()
    .collect();

    let a = Session::build(&full)
        .selection(Selection::Seeded(1))
        .run(initial.clone())
        .unwrap();
    let b = Session::build(&reduced)
        .selection(Selection::Seeded(1))
        .run(initial)
        .unwrap();
    assert_eq!(a.status, Status::Stable);
    assert_eq!(b.status, Status::Stable);

    // Both run the loop body exactly z times.
    let body_full = full.reactions.iter().position(|r| r.name == "R19").unwrap();
    let body_red = reduced
        .reactions
        .iter()
        .position(|r| r.name == "Rd16")
        .unwrap();
    assert_eq!(a.stats.firings_per_reaction[body_full], z as u64);
    assert_eq!(b.stats.firings_per_reaction[body_red], z as u64);

    // Finding: the nine-reaction version drains the multiset; the paper's
    // hand-reduced version strands B16 and C12 at the exit tag (Rd16
    // cannot fire on the last round because Rd14 drops A13's source).
    assert!(a.multiset.is_empty());
    assert_eq!(b.multiset.len(), 2);
    let leftovers: Vec<&str> = b
        .multiset
        .sorted_elements()
        .iter()
        .map(|e| e.label.as_str())
        .collect();
    assert_eq!(leftovers, vec!["B16", "C12"]);
    // The stranded x value is the correct final accumulator: the loop DID
    // compute x + y*z before discarding it.
    let c12 = b
        .multiset
        .sorted_elements()
        .into_iter()
        .find(|e| e.label.as_str() == "C12")
        .unwrap();
    assert_eq!(c12.value, gammaflow::multiset::Value::int(10 + 5 * z));
}

#[test]
fn e3_reduced_example2_fires_fewer_reactions_per_iteration() {
    // 9-reaction version: 9 firings per full iteration (R11..R19); the
    // 6-reaction version: 6. Measured over z=5 iterations.
    let full = parse_program(EXAMPLE2_GAMMA).unwrap();
    let reduced = parse_program(EXAMPLE2_REDUCED_GAMMA).unwrap();
    let initial = |z: i64| -> ElementBag {
        [
            Element::new(2, "A1", 0u64),
            Element::new(z, "B1", 0u64),
            Element::new(0, "C1", 0u64),
        ]
        .into_iter()
        .collect()
    };
    let a = Session::build(&full).run(initial(5)).unwrap();
    let b = Session::build(&reduced).run(initial(5)).unwrap();
    assert!(
        b.stats.firings_total() < a.stats.firings_total(),
        "reduced {} vs full {}",
        b.stats.firings_total(),
        a.stats.firings_total()
    );
}

#[test]
fn e3_fusion_never_fuses_example2_loop() {
    // Example 2's reactions are all steers, inctags, or consumers of
    // steer outputs — none meet the producer eligibility rule, so fusion
    // must leave the program alone rather than corrupt the loop.
    let conv = dataflow_to_gamma(&fig2(5, 3, 10, false)).unwrap();
    let protected: Vec<Symbol> = ["A1", "B1", "C1"]
        .iter()
        .map(|l| Symbol::intern(l))
        .collect();
    let (fused, report) = fuse_all(&conv.program, &protected);
    assert_eq!(fused.len(), conv.program.len());
    assert!(report.fused.is_empty());
}
