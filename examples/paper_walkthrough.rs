//! The whole paper as one executable walkthrough: Figs. 1–4, both
//! conversion algorithms, the reductions, and the equivalence checks.
//!
//! ```sh
//! cargo run --example paper_walkthrough
//! ```

use gammaflow::core::{
    canonicalize_vars, check_equivalence, dataflow_to_gamma, fuse_all, gamma_to_dataflow,
    map_multiset, recover_shape, CheckConfig,
};
use gammaflow::dataflow::engine::SeqEngine;
use gammaflow::dataflow::graph::{GraphBuilder, OutPort};
use gammaflow::dataflow::node::{Imm, NodeKind};
use gammaflow::gamma::{Selection, Session, Status};
use gammaflow::lang::{parse_reaction, pretty_program, pretty_reaction};
use gammaflow::multiset::value::{BinOp, CmpOp};
use gammaflow::multiset::{Element, ElementBag, Symbol};

fn section(title: &str) {
    println!("\n======================================================================");
    println!("{title}");
    println!("======================================================================");
}

fn main() {
    // ---------------------------------------------------------- Fig. 1 --
    section("Fig. 1 — Example 1: m = (x + y) - (k * j)");
    let mut b = GraphBuilder::new();
    let x = b.constant_named(1, "x");
    let y = b.constant_named(5, "y");
    let k = b.constant_named(3, "k");
    let j = b.constant_named(2, "j");
    let r1 = b.add_named(NodeKind::Arith(BinOp::Add, None), "R1");
    let r2 = b.add_named(NodeKind::Arith(BinOp::Mul, None), "R2");
    let r3 = b.add_named(NodeKind::Arith(BinOp::Sub, None), "R3");
    let m = b.output("m_sink");
    b.connect_labelled(x, r1, 0, "A1");
    b.connect_labelled(y, r1, 1, "B1");
    b.connect_labelled(k, r2, 0, "C1");
    b.connect_labelled(j, r2, 1, "D1");
    b.connect_labelled(r1, r3, 0, "B2");
    b.connect_labelled(r2, r3, 1, "C2");
    b.connect_labelled(r3, m, 0, "m");
    let fig1 = b.build().unwrap();
    println!("{}", fig1.to_dot());

    section("Algorithm 1 on Fig. 1 (matches the paper's R1–R3)");
    let conv1 = dataflow_to_gamma(&fig1).unwrap();
    println!("{}", pretty_program(&conv1.program));
    println!("\ninitial multiset M = {}", conv1.initial);

    let report = check_equivalence(&fig1, &CheckConfig::default()).unwrap();
    println!(
        "\ndifferential check: equivalent = {}, outputs = {}",
        report.equivalent, report.dataflow_outputs
    );

    // ------------------------------------------------------ §III-A3 -----
    section("§III-A3 — reduction: fusing R1,R2,R3 into the paper's Rd1");
    let protected: Vec<Symbol> = ["A1", "B1", "C1", "D1", "m"]
        .iter()
        .map(|l| Symbol::intern(l))
        .collect();
    let (fused, freport) = fuse_all(&conv1.program, &protected);
    println!(
        "fused {} → {} reactions via {:?}",
        freport.before, freport.after, freport.fused
    );
    println!(
        "{}",
        pretty_reaction(&canonicalize_vars(&fused.reactions[0]))
    );

    // ---------------------------------------------------------- Fig. 2 --
    section("Fig. 2 — Example 2: for (i = z; i > 0; i--) x = x + y");
    let mut b = GraphBuilder::new();
    let yk = b.constant_named(5, "y");
    let zk = b.constant_named(3, "z");
    let xk = b.constant_named(10, "x");
    let r11 = b.add_named(NodeKind::IncTag, "R11");
    let r12 = b.add_named(NodeKind::IncTag, "R12");
    let r13 = b.add_named(NodeKind::IncTag, "R13");
    let r14 = b.add_named(NodeKind::Cmp(CmpOp::Gt, Some(Imm::right(0))), "R14");
    let r15 = b.add_named(NodeKind::Steer, "R15");
    let r16 = b.add_named(NodeKind::Steer, "R16");
    let r17 = b.add_named(NodeKind::Steer, "R17");
    let r18 = b.add_named(NodeKind::Arith(BinOp::Sub, Some(Imm::right(1))), "R18");
    let r19 = b.add_named(NodeKind::Arith(BinOp::Add, None), "R19");
    b.connect_labelled(yk, r11, 0, "A1");
    b.connect_labelled(zk, r12, 0, "B1");
    b.connect_labelled(xk, r13, 0, "C1");
    b.connect_labelled(r11, r15, 0, "A12");
    b.connect_labelled(r12, r14, 0, "B12");
    b.connect_labelled(r12, r16, 0, "B13");
    b.connect_labelled(r13, r17, 0, "C12");
    b.connect_labelled(r14, r15, 1, "B14");
    b.connect_labelled(r14, r16, 1, "B15");
    b.connect_labelled(r14, r17, 1, "B16");
    b.connect_full(r15, OutPort::True, r11, 0, Some("A11"));
    b.connect_full(r15, OutPort::True, r19, 0, Some("A13"));
    b.connect_full(r16, OutPort::True, r18, 0, Some("B17"));
    b.connect_full(r17, OutPort::True, r19, 1, Some("C13"));
    b.connect_labelled(r18, r12, 0, "B11");
    b.connect_labelled(r19, r13, 0, "C11");
    let fig2 = b.build().unwrap();

    section("Algorithm 1 on Fig. 2 (matches the paper's R11–R19)");
    let conv2 = dataflow_to_gamma(&fig2).unwrap();
    println!("{}", pretty_program(&conv2.program));
    println!("\ninitial multiset M = {}", conv2.initial);

    let gm = Session::build(&conv2.program)
        .selection(Selection::Seeded(7))
        .run(conv2.initial.clone())
        .unwrap();
    println!(
        "\ngamma execution: status {:?}, {} firings, final multiset {}",
        gm.status,
        gm.stats.firings_total(),
        gm.multiset
    );
    assert_eq!(gm.status, Status::Stable);

    // ------------------------------------------------------ Algorithm 2 --
    section("Algorithm 2 — node-kind recovery and Gamma → dataflow");
    for r in &conv2.program.reactions {
        println!("{:10} recovered as {:?}", r.name, recover_shape(r));
    }
    let back = gamma_to_dataflow(&conv2.program, &conv2.initial).unwrap();
    println!(
        "\nstitched graph: {} nodes, {} edges; isomorphic to Fig. 2: {}",
        back.node_count(),
        back.edge_count(),
        gammaflow::dataflow::iso::isomorphic(&back, &fig2)
    );

    // ---------------------------------------------------------- Fig. 4 --
    section("Fig. 4 — mapping a multiset onto replicated reaction graphs");
    let r = parse_reaction("R = replace [x,'n'], [y,'n'] by [x+y,'s']").unwrap();
    let m6: ElementBag = (1..=6).map(|v| Element::pair(v, "n")).collect();
    let mapping = map_multiset(&r, &m6, usize::MAX).unwrap();
    println!(
        "|M| = 6, arity 2 → {} instances (the figure shows 3), leftover {}",
        mapping.instances, mapping.leftover
    );
    let run = SeqEngine::new(&mapping.graph).run().unwrap();
    println!("one chemical round produces: {}", run.outputs);

    println!("\nwalkthrough complete ✓");
}
