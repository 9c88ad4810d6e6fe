//! E1 + E2: the paper's worked examples, end to end.
//!
//! Checks that Algorithm 1 on the paper's Fig. 1 / Fig. 2 graphs emits the
//! paper's reaction listings *textually*, that the initial multisets match
//! §III-A1, and that executing either model produces identical observable
//! results.

mod common;

use common::{fig1, fig2, EXAMPLE1_SOURCE, EXAMPLE2_GAMMA};
use gammaflow::core::{check_equivalence, dataflow_to_gamma, CheckConfig};
use gammaflow::dataflow::engine::SeqEngine;
use gammaflow::gamma::{Selection, Session, Status};
use gammaflow::lang::{parse_program, pretty_program};
use gammaflow::multiset::{Element, ElementBag, Symbol, Value};

// ---------------------------------------------------------------- E1 ----

#[test]
fn e1_algorithm1_emits_papers_reactions_verbatim() {
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let printed = pretty_program(&conv.program);
    // §III-A1: "This way, we can produce the follow Gamma code equivalent
    // to the graph expressed in the Figure 1" — R1, R2, R3.
    let expected = "\
R1 = replace [id1,'A1'], [id2,'B1']
     by [id1 + id2,'B2']

R2 = replace [id1,'C1'], [id2,'D1']
     by [id1 * id2,'C2']

R3 = replace [id1,'B2'], [id2,'C2']
     by [id1 - id2,'m']";
    assert_eq!(printed, expected);
}

#[test]
fn e1_initial_multiset_matches_paper() {
    // "{[1, A1], [5, B1], [3, C1], [2, D1]}"
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let expected: ElementBag = [
        Element::pair(1, "A1"),
        Element::pair(5, "B1"),
        Element::pair(3, "C1"),
        Element::pair(2, "D1"),
    ]
    .into_iter()
    .collect();
    assert_eq!(conv.initial, expected);
}

#[test]
fn e1_both_models_compute_m_equals_zero() {
    let report = check_equivalence(&fig1(), &CheckConfig::default()).unwrap();
    assert!(report.equivalent, "{:?}", report.mismatch);
    assert_eq!(
        report.dataflow_outputs.sorted_elements(),
        vec![Element::pair(0, "m")]
    );
}

#[test]
fn e1_generated_code_round_trips_through_parser() {
    // pretty → parse → pretty is stable, so the emitted text is valid
    // Gamma syntax per the Fig. 3 grammar.
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let printed = pretty_program(&conv.program);
    let reparsed = parse_program(&printed).unwrap();
    assert_eq!(reparsed, conv.program);
}

#[test]
fn e1_frontend_source_compiles_to_fig1() {
    let g = gammaflow::frontend::compile(EXAMPLE1_SOURCE).unwrap();
    assert!(gammaflow::dataflow::iso::isomorphic(&g, &fig1()));
}

// ---------------------------------------------------------------- E2 ----

#[test]
fn e2_algorithm1_emits_papers_nine_reactions() {
    // Fig. 2 exactly as the paper draws it: no observable output.
    let conv = dataflow_to_gamma(&fig2(5, 3, 10, false)).unwrap();
    assert!(conv.tagged);
    assert_eq!(conv.program.len(), 9);
    let printed = pretty_program(&conv.program);
    let expected = "\
R11 = replace [id1,x,v]
     by [id1,'A12',v + 1] if x == 'A1' or x == 'A11'

R12 = replace [id1,x,v]
     by [id1,'B12',v + 1], [id1,'B13',v + 1] if x == 'B1' or x == 'B11'

R13 = replace [id1,x,v]
     by [id1,'C12',v + 1] if x == 'C1' or x == 'C11'

R14 = replace [id1,'B12',v]
     by [1,'B14',v], [1,'B15',v], [1,'B16',v] if id1 > 0
     by [0,'B14',v], [0,'B15',v], [0,'B16',v] else

R15 = replace [id1,'A12',v], [id2,'B14',v]
     by [id1,'A11',v], [id1,'A13',v] if id2 == 1
     by 0 else

R16 = replace [id1,'B13',v], [id2,'B15',v]
     by [id1,'B17',v] if id2 == 1
     by 0 else

R17 = replace [id1,'C12',v], [id2,'B16',v]
     by [id1,'C13',v] if id2 == 1
     by 0 else

R18 = replace [id1,'B17',v]
     by [id1 - 1,'B11',v]

R19 = replace [id1,'A13',v], [id2,'C13',v]
     by [id1 + id2,'C11',v]";
    assert_eq!(printed, expected);
}

#[test]
fn e2_generated_equals_papers_transcription() {
    // Our Algorithm-1 output and the paper's printed program, parsed, are
    // the same reaction set (the parser normalises label disjunctions).
    let conv = dataflow_to_gamma(&fig2(5, 3, 10, false)).unwrap();
    let paper = parse_program(EXAMPLE2_GAMMA).unwrap();
    assert_eq!(conv.program, paper);
}

#[test]
fn e2_initial_multiset_matches_paper() {
    // "{{y, A1, 0}, {z, B1, 0}, {x, C1, 0}}" with y=5, z=3, x=10.
    let conv = dataflow_to_gamma(&fig2(5, 3, 10, false)).unwrap();
    let expected: ElementBag = [
        Element::new(5, "A1", 0u64),
        Element::new(3, "B1", 0u64),
        Element::new(10, "C1", 0u64),
    ]
    .into_iter()
    .collect();
    assert_eq!(conv.initial, expected);
}

#[test]
fn e2_gamma_execution_drains_multiset_and_loops_z_times() {
    let z = 3;
    let conv = dataflow_to_gamma(&fig2(5, z, 10, false)).unwrap();
    for seed in [0, 7, 99] {
        let result = Session::build(&conv.program)
            .selection(Selection::Seeded(seed))
            .run(conv.initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        // As written in the paper, every value is eventually discarded by
        // a steer else-branch: the steady state is empty.
        assert!(
            result.multiset.is_empty(),
            "seed {seed}: {}",
            result.multiset
        );
        // The loop body (R19) fired exactly z times.
        let r19 = conv
            .program
            .reactions
            .iter()
            .position(|r| r.name == "R19")
            .unwrap();
        assert_eq!(
            result.stats.firings_per_reaction[r19], z as u64,
            "seed {seed}"
        );
        // The iteration-tag machinery ran z+1 times (one extra test round).
        let r12 = conv
            .program
            .reactions
            .iter()
            .position(|r| r.name == "R12")
            .unwrap();
        assert_eq!(
            result.stats.firings_per_reaction[r12],
            z as u64 + 1,
            "seed {seed}"
        );
    }
}

#[test]
fn e2_observable_variant_checks_equivalent() {
    for (y, z, x) in [(5, 3, 10), (1, 0, 0), (-2, 6, 50)] {
        let g = fig2(y, z, x, true);
        let config = CheckConfig {
            seeds: vec![0, 1],
            parallel_workers: 2,
            ..CheckConfig::default()
        };
        let report = check_equivalence(&g, &config).unwrap();
        assert!(
            report.equivalent,
            "(y={y},z={z},x={x}): {:?}",
            report.mismatch
        );
        let expected = x + y * z.max(0);
        let out = report.dataflow_outputs.sorted_elements();
        assert_eq!(out[0].value, Value::int(expected));
        assert_eq!(out[0].label, Symbol::intern("xout"));
    }
}

#[test]
fn e2_frontend_loop_is_isomorphic_to_fig2() {
    let src = "int y = 5; int z = 3; int x = 10; for (i = z; i > 0; i--) { x = x + y; } output x;";
    let g = gammaflow::frontend::compile(src).unwrap();
    assert!(gammaflow::dataflow::iso::isomorphic_commutative(
        &g,
        &fig2(5, 3, 10, true)
    ));
}

#[test]
fn e2_dataflow_and_gamma_firing_counts_correspond() {
    // Per the sketch of proof, every non-root node firing corresponds to
    // one reaction firing: counts must match node-for-reaction.
    let g = fig2(5, 3, 10, false);
    let df = SeqEngine::new(&g).run().unwrap();
    let conv = dataflow_to_gamma(&g).unwrap();
    let gm = Session::build(&conv.program)
        .selection(Selection::Seeded(4))
        .run(conv.initial.clone())
        .unwrap();
    for (i, reaction) in conv.program.reactions.iter().enumerate() {
        let node = g.node_by_name(&reaction.name).unwrap();
        assert_eq!(
            gm.stats.firings_per_reaction[i],
            df.stats.fired_per_node[node.id.index()],
            "firing count mismatch for {}",
            reaction.name
        );
    }
}
