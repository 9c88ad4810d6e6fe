//! Quickstart: compile the paper's Example 1 from C-like source, run it on
//! the dataflow engine, convert it with Algorithm 1, run the Gamma program,
//! and confirm both models agree.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gammaflow::core::dataflow_to_gamma;
use gammaflow::dataflow::SeqEngine;
use gammaflow::gamma::{Selection, Session};
use gammaflow::lang::pretty_program;
use gammaflow::multiset::Symbol;

fn main() {
    // The paper's Example-1 source (§III-A1), plus an output statement so
    // the result is observable.
    let source =
        "int x = 1; int y = 5; int k = 3; int j = 2; int m; m = (x + y) - (k * j); output m;";
    println!("source:\n  {source}\n");

    // 1. Compile to a dynamic dataflow graph.
    let graph = gammaflow::frontend::compile(source).expect("compiles");
    println!(
        "dataflow graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // 2. Execute on the dataflow engine.
    let df = SeqEngine::new(&graph).run().expect("runs");
    println!("dataflow outputs: {}", df.outputs);
    println!("parallelism profile (firings per wave): {:?}\n", df.profile);

    // 3. Convert with Algorithm 1 and print the generated Gamma program.
    let conv = dataflow_to_gamma(&graph).expect("converts");
    println!("Algorithm 1 output:\n{}\n", pretty_program(&conv.program));
    println!("initial multiset M = {}", conv.initial);

    // 4. Execute the Gamma program (seeded nondeterminism).
    let gm = Session::build(&conv.program)
        .selection(Selection::Seeded(42))
        .run(conv.initial.clone())
        .expect("stabilises");
    println!("gamma steady state: {}", gm.multiset);

    // 5. The equivalence: projected onto output labels, both agree.
    let m = Symbol::intern("m");
    let projected = gm.multiset.project(|l| l == m);
    assert_eq!(projected, df.outputs);
    println!("\nequivalent: both models computed m = (1+5) - (3*2) = 0");
}
