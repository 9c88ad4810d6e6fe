//! Serde round-trips for the persistable artefacts: Gamma programs,
//! dataflow graphs, multisets, and traces. Snapshots of converted programs
//! must survive a process boundary — symbols serialise as strings and
//! re-intern on load.

mod common;

use common::{fig1, fig2};
use gammaflow::core::dataflow_to_gamma;
use gammaflow::dataflow::graph::DataflowGraph;
use gammaflow::gamma::{GammaProgram, Session};
use gammaflow::multiset::{Element, ElementBag};

#[test]
fn gamma_program_round_trips_through_json() {
    let conv = dataflow_to_gamma(&fig2(5, 3, 10, false)).unwrap();
    let json = serde_json::to_string_pretty(&conv.program).unwrap();
    let back: GammaProgram = serde_json::from_str(&json).unwrap();
    assert_eq!(back, conv.program);
}

#[test]
fn dataflow_graph_round_trips_through_json() {
    let g = fig1();
    let json = serde_json::to_string(&g).unwrap();
    let back: DataflowGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(back, g);
    // The deserialised graph still runs.
    let result = gammaflow::dataflow::SeqEngine::new(&back).run().unwrap();
    assert_eq!(
        result.outputs.sorted_elements(),
        vec![Element::pair(0, "m")]
    );
}

#[test]
fn element_bag_round_trips_through_json() {
    let bag: ElementBag = [
        Element::pair(1, "A1"),
        Element::pair(1, "A1"),
        Element::new(7, "B", 3u64),
        Element::new(Element::pair(0, "x").value, "neg", 0u64),
    ]
    .into_iter()
    .collect();
    let json = serde_json::to_string(&bag).unwrap();
    let back: ElementBag = serde_json::from_str(&json).unwrap();
    assert_eq!(back, bag);
    assert_eq!(back.count(&Element::pair(1, "A1")), 2);
}

#[test]
fn symbols_serialise_as_strings() {
    let e = Element::new(5, "mylabel", 2u64);
    let json = serde_json::to_string(&e).unwrap();
    assert!(json.contains("\"mylabel\""), "{json}");
}

#[test]
fn trace_round_trips_and_replays() {
    // A serialised firing trace equals the in-memory one and the final
    // multiset can be re-derived from it (the trace is complete).
    let conv = dataflow_to_gamma(&fig1()).unwrap();
    let result = Session::build(&conv.program)
        .record_trace(true)
        .run(conv.initial.clone())
        .unwrap();
    let trace = result.trace.unwrap();
    let json = serde_json::to_string(&trace).unwrap();
    let back: Vec<gammaflow::gamma::FiringRecord> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, trace);

    // Replay: initial − consumed + produced per step = final.
    let mut bag = conv.initial.clone();
    for rec in &back {
        assert!(
            bag.remove_all(&rec.consumed),
            "step {} replay failed",
            rec.step
        );
        for e in &rec.produced {
            bag.insert(e.clone());
        }
    }
    assert_eq!(bag, result.multiset);
}

#[test]
fn values_with_floats_and_strings_round_trip() {
    use gammaflow::multiset::Value;
    let values = vec![
        Value::int(-5),
        Value::bool(true),
        Value::float(2.5),
        Value::float(f64::NAN),
        Value::str("hello"),
    ];
    let json = serde_json::to_string(&values).unwrap();
    let back: Vec<Value> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, values, "NaN normalises to a self-equal value");
}
