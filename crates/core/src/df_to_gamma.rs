//! Algorithm 1: converting a dynamic dataflow graph into a Gamma program.
//!
//! Following §III-B of the paper (as corrected by its worked examples —
//! see DESIGN.md §3 on edge vs node labels):
//!
//! * every **edge** label becomes a multiset-element label;
//! * **root (constant) nodes** seed the initial multiset with one element
//!   per out-edge, `[value, label, 0]` (line 9 of Algorithm 1);
//! * **arithmetic / unary** nodes become single-clause reactions
//!   `replace inputs by [id1 op id2, out-label, v]` with one output element
//!   per out-edge (lines 29–33);
//! * **comparison** nodes produce the integer control encoding through an
//!   `if/else` clause pair emitting `1`/`0` on every out-edge (lines
//!   23–28, the paper's R14);
//! * **steer** nodes become `by true-outs if ctl == 1 / by false-outs else`
//!   reactions (lines 13–19, the paper's R15–R17);
//! * **inctag** nodes become label-merging reactions that re-emit their
//!   input with `tag + 1` (lines 20–22, the paper's R11–R13); a
//!   multi-in-edge merge port becomes a `OneOf` label pattern — the paper's
//!   `if (x=='A1') or (x=='A11')` condition;
//! * **output sinks** generate no reaction: their in-edge labels are where
//!   results accumulate in the final multiset.
//!
//! Acyclic graphs (no inctag) use the paper's Example-1 pair style
//! (tag elided); graphs with inctags use full `[value, label, tag]`
//! triples.

use gammaflow_dataflow::graph::{DataflowGraph, NodeId, OutPort};
use gammaflow_dataflow::node::{ImmSide, NodeKind};
use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{
    ElementSpec, GammaProgram, LabelPat, Pattern, ReactionSpec, TagPat, TagSpec, ValuePat,
};
use gammaflow_multiset::value::CmpOp;
use gammaflow_multiset::{Element, ElementBag, Symbol, Tag};
use std::fmt;

/// Result of Algorithm 1.
#[derive(Debug, Clone)]
pub struct Conversion {
    /// The generated reactions (one per non-root, non-output node).
    pub program: GammaProgram,
    /// The initial multiset `M` (from root nodes).
    pub initial: ElementBag,
    /// Labels on which results accumulate (edges into output sinks).
    pub output_labels: Vec<Symbol>,
    /// Whether elements carry meaningful tags (graph contains inctags).
    pub tagged: bool,
}

/// Conversion failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// An input port of a non-inctag node has several in-edges whose merge
    /// cannot be expressed (reserved for future node kinds; the current
    /// node set always converts).
    UnsupportedMerge {
        /// Node name.
        node: String,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::UnsupportedMerge { node } => {
                write!(f, "node {node}: unsupported merge")
            }
        }
    }
}
impl std::error::Error for ConvertError {}

/// The shared tag variable name used in generated reactions (the paper
/// writes `v`).
const TAG_VAR: &str = "v";
/// The label variable used for merge patterns (the paper writes `x`).
const LABEL_VAR: &str = "x";

/// Build the pattern for one input port. Single in-edge ports bind a
/// literal label; merge ports get a `OneOf` with a bound label variable.
fn port_pattern(
    g: &DataflowGraph,
    node: NodeId,
    port: usize,
    value_var: &str,
    tagged: bool,
) -> Pattern {
    let edges = g.in_edges(node, port);
    let tag = if tagged {
        TagPat::Var(Symbol::intern(TAG_VAR))
    } else {
        TagPat::Any
    };
    let label = if edges.len() == 1 {
        LabelPat::Lit(g.edge(edges[0]).label)
    } else {
        LabelPat::OneOf(
            edges.iter().map(|&e| g.edge(e).label).collect(),
            Some(Symbol::intern(LABEL_VAR)),
        )
    };
    Pattern {
        value: ValuePat::Var(Symbol::intern(value_var)),
        label,
        tag,
    }
}

/// Output element `[expr, label, v]` (or pair form when untagged).
fn out_element(value: Expr, label: Symbol, tagged: bool) -> ElementSpec {
    ElementSpec {
        value,
        label: gammaflow_gamma::spec::LabelSpec::Lit(label),
        tag: if tagged {
            TagSpec::Expr(Expr::var(TAG_VAR))
        } else {
            TagSpec::Zero
        },
    }
}

/// Output element with incremented tag (inctag nodes).
fn out_element_inc(value: Expr, label: Symbol, tagged: bool) -> ElementSpec {
    ElementSpec {
        value,
        label: gammaflow_gamma::spec::LabelSpec::Lit(label),
        tag: if tagged {
            TagSpec::Expr(Expr::bin(
                gammaflow_multiset::value::BinOp::Add,
                Expr::var(TAG_VAR),
                Expr::int(1),
            ))
        } else {
            TagSpec::Zero
        },
    }
}

/// The operand expressions of a binary node with optional immediate:
/// `(lhs, rhs)` over the bound input variables.
fn binary_operands(imm: &Option<gammaflow_dataflow::node::Imm>) -> (Expr, Expr) {
    match imm {
        None => (Expr::var("id1"), Expr::var("id2")),
        Some(i) => match i.side {
            ImmSide::Left => (Expr::Lit(i.value.clone()), Expr::var("id1")),
            ImmSide::Right => (Expr::var("id1"), Expr::Lit(i.value.clone())),
        },
    }
}

/// Run Algorithm 1 on `g`.
pub fn dataflow_to_gamma(g: &DataflowGraph) -> Result<Conversion, ConvertError> {
    let tagged = g.nodes().iter().any(|n| matches!(n.kind, NodeKind::IncTag));

    let mut initial = ElementBag::new();
    let mut reactions = Vec::new();

    for node in g.nodes() {
        match &node.kind {
            NodeKind::Const(value) => {
                // Line 9: root nodes seed M with [value, label, 0].
                for edge in g.all_out_edges(node.id) {
                    initial.insert(Element {
                        value: value.clone(),
                        label: edge.label,
                        tag: Tag::ZERO,
                    });
                }
            }
            NodeKind::Output => {}
            NodeKind::Arith(op, imm) => {
                let mut r = ReactionSpec::new(&node.name);
                r = r.replace(port_pattern(g, node.id, 0, "id1", tagged));
                if imm.is_none() {
                    r = r.replace(port_pattern(g, node.id, 1, "id2", tagged));
                }
                let (lhs, rhs) = binary_operands(imm);
                let value = Expr::bin(*op, lhs, rhs);
                let outs: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::True)
                    .iter()
                    .map(|&e| out_element(value.clone(), g.edge(e).label, tagged))
                    .collect();
                reactions.push(r.by(outs));
            }
            NodeKind::Un(op) => {
                let r = ReactionSpec::new(&node.name)
                    .replace(port_pattern(g, node.id, 0, "id1", tagged));
                let value = Expr::un(*op, Expr::var("id1"));
                let outs: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::True)
                    .iter()
                    .map(|&e| out_element(value.clone(), g.edge(e).label, tagged))
                    .collect();
                reactions.push(r.by(outs));
            }
            NodeKind::Cmp(op, imm) => {
                // Lines 23–28 / the paper's R14: emit 1 on every out-edge
                // when the comparison holds, 0 otherwise.
                let mut r = ReactionSpec::new(&node.name);
                r = r.replace(port_pattern(g, node.id, 0, "id1", tagged));
                if imm.is_none() {
                    r = r.replace(port_pattern(g, node.id, 1, "id2", tagged));
                }
                let (lhs, rhs) = binary_operands(imm);
                let cond = Expr::cmp(*op, lhs, rhs);
                let ones: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::True)
                    .iter()
                    .map(|&e| out_element(Expr::int(1), g.edge(e).label, tagged))
                    .collect();
                let zeros: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::True)
                    .iter()
                    .map(|&e| out_element(Expr::int(0), g.edge(e).label, tagged))
                    .collect();
                reactions.push(r.by_if(ones, cond).by_else(zeros));
            }
            NodeKind::Steer => {
                // Lines 13–19 / the paper's R15–R17.
                let r = ReactionSpec::new(&node.name)
                    .replace(port_pattern(g, node.id, 0, "id1", tagged))
                    .replace(port_pattern(g, node.id, 1, "id2", tagged));
                let trues: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::True)
                    .iter()
                    .map(|&e| out_element(Expr::var("id1"), g.edge(e).label, tagged))
                    .collect();
                let falses: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::False)
                    .iter()
                    .map(|&e| out_element(Expr::var("id1"), g.edge(e).label, tagged))
                    .collect();
                let cond = Expr::cmp(CmpOp::Eq, Expr::var("id2"), Expr::int(1));
                reactions.push(r.by_if(trues, cond).by_else(falses));
            }
            NodeKind::IncTag => {
                // Lines 20–22 / the paper's R11–R13.
                let r = ReactionSpec::new(&node.name)
                    .replace(port_pattern(g, node.id, 0, "id1", tagged));
                let outs: Vec<ElementSpec> = g
                    .out_edges(node.id, OutPort::True)
                    .iter()
                    .map(|&e| out_element_inc(Expr::var("id1"), g.edge(e).label, tagged))
                    .collect();
                reactions.push(r.by(outs));
            }
        }
    }

    Ok(Conversion {
        program: GammaProgram::new(reactions),
        initial,
        output_labels: g.output_labels(),
        tagged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_dataflow::graph::GraphBuilder;
    use gammaflow_dataflow::node::Imm;
    use gammaflow_gamma::{Selection, Session, Status};
    use gammaflow_lang::pretty_program;
    use gammaflow_multiset::value::BinOp;

    fn fig1() -> DataflowGraph {
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
        b.build().unwrap()
    }

    #[test]
    fn example1_reactions_match_paper_text() {
        let conv = dataflow_to_gamma(&fig1()).unwrap();
        assert!(!conv.tagged);
        let printed = pretty_program(&conv.program);
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
    fn example1_initial_multiset_matches_paper() {
        let conv = dataflow_to_gamma(&fig1()).unwrap();
        assert_eq!(
            conv.initial.to_string(),
            "{[1,'A1'], [2,'D1'], [3,'C1'], [5,'B1']}"
        );
        let labels: Vec<&str> = conv.output_labels.iter().map(|s| s.as_str()).collect();
        assert_eq!(labels, vec!["m"]);
    }

    #[test]
    fn example1_gamma_execution_matches_dataflow() {
        let g = fig1();
        let conv = dataflow_to_gamma(&g).unwrap();
        let df = gammaflow_dataflow::engine::SeqEngine::new(&g)
            .run()
            .unwrap();
        let gm = Session::build(&conv.program)
            .selection(Selection::Seeded(11))
            .run(conv.initial.clone())
            .unwrap();
        assert_eq!(gm.status, Status::Stable);
        let out = Symbol::intern("m");
        assert_eq!(
            gm.multiset.project(|l| l == out),
            df.outputs.project(|l| l == out)
        );
    }

    #[test]
    fn steer_conversion_shape() {
        let mut b = GraphBuilder::new();
        let d = b.constant(7);
        let c = b.constant(1);
        let st = b.add_named(NodeKind::Steer, "S");
        let o1 = b.output("t");
        let o2 = b.output("f");
        b.connect_labelled(d, st, 0, "data");
        b.connect_labelled(c, st, 1, "ctl");
        b.connect_full(st, OutPort::True, o1, 0, Some("tout"));
        b.connect_full(st, OutPort::False, o2, 0, Some("fout"));
        let g = b.build().unwrap();
        let conv = dataflow_to_gamma(&g).unwrap();
        let printed = pretty_program(&conv.program);
        assert_eq!(
            printed,
            "S = replace [id1,'data'], [id2,'ctl']\n     by [id1,'tout'] if id2 == 1\n     by [id1,'fout'] else"
        );
    }

    #[test]
    fn inctag_merge_conversion_shape() {
        // inctag with initial + loop-back in-edges must produce the paper's
        // OneOf/disjunction form. A valid graph needs the loop-back to come
        // from a steer, so build the minimal loop.
        let mut b = GraphBuilder::new();
        let init = b.constant_named(3, "z");
        let it = b.add_named(NodeKind::IncTag, "R11");
        let cmp = b.add_named(NodeKind::Cmp(CmpOp::Gt, Some(Imm::right(0))), "R14");
        let st = b.add_named(NodeKind::Steer, "R16");
        let dec = b.add_named(NodeKind::Arith(BinOp::Sub, Some(Imm::right(1))), "R18");
        b.connect_labelled(init, it, 0, "A1");
        b.connect_labelled(it, cmp, 0, "B12");
        b.connect_labelled(it, st, 0, "B13");
        b.connect_labelled(cmp, st, 1, "B15");
        b.connect_full(st, OutPort::True, dec, 0, Some("B17"));
        b.connect_labelled(dec, it, 0, "A11");
        let g = b.build().unwrap();
        let conv = dataflow_to_gamma(&g).unwrap();
        assert!(conv.tagged);
        let r11 = conv.program.reaction("R11").unwrap();
        assert_eq!(
            gammaflow_lang::pretty_reaction(r11),
            "R11 = replace [id1,x,v]\n     by [id1,'B12',v + 1], [id1,'B13',v + 1] if x == 'A1' or x == 'A11'"
        );
        // And the whole converted loop runs to a stable, empty multiset
        // (the steer's false side is unconnected, like the paper's Fig. 2).
        let gm = Session::build(&conv.program)
            .selection(Selection::Seeded(3))
            .run(conv.initial.clone())
            .unwrap();
        assert_eq!(gm.status, Status::Stable);
        assert!(gm.multiset.is_empty(), "got {}", gm.multiset);
    }

    #[test]
    fn cmp_with_immediate_matches_r14_shape() {
        let mut b = GraphBuilder::new();
        let z = b.constant_named(3, "z");
        let cmp = b.add_named(NodeKind::Cmp(CmpOp::Gt, Some(Imm::right(0))), "R14");
        let o = b.output("o");
        b.connect_labelled(z, cmp, 0, "B12");
        b.connect_labelled(cmp, o, 0, "B14");
        let g = b.build().unwrap();
        let conv = dataflow_to_gamma(&g).unwrap();
        let printed = pretty_program(&conv.program);
        assert_eq!(
            printed,
            "R14 = replace [id1,'B12']\n     by [1,'B14'] if id1 > 0\n     by [0,'B14'] else"
        );
    }

    #[test]
    fn fanout_produces_one_element_per_edge() {
        let mut b = GraphBuilder::new();
        let x = b.constant(2);
        let y = b.constant(3);
        let add = b.add_named(NodeKind::Arith(BinOp::Add, None), "A");
        let o1 = b.output("o1");
        let o2 = b.output("o2");
        b.connect_labelled(x, add, 0, "in1");
        b.connect_labelled(y, add, 1, "in2");
        b.connect_labelled(add, o1, 0, "out1");
        b.connect_labelled(add, o2, 0, "out2");
        let g = b.build().unwrap();
        let conv = dataflow_to_gamma(&g).unwrap();
        let a = conv.program.reaction("A").unwrap();
        assert_eq!(a.clauses[0].outputs.len(), 2);
        let gm = Session::build(&conv.program)
            .run(conv.initial.clone())
            .unwrap();
        assert!(gm.multiset.contains(&Element::pair(5, "out1")));
        assert!(gm.multiset.contains(&Element::pair(5, "out2")));
    }
}
