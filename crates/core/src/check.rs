//! Differential equivalence checking — the executable form of the paper's
//! §III-C "sketch of proof".
//!
//! The paper argues Algorithm 1 preserves the dataflow firing rule, tags,
//! and steer semantics. This module *tests* that claim mechanically on any
//! graph: run the graph on the dataflow engine, convert it with
//! Algorithm 1, run the Gamma program under several nondeterministic
//! schedules (and optionally the parallel interpreter), and compare the
//! observable results — the multiset projected onto output-edge labels
//! must equal the bag of elements collected at output sinks, tags
//! included.
//!
//! Confluence note: an Algorithm-1 image is deterministic in its
//! *observable* outputs even though execution order is not — every
//! reaction consumes edge-private labels, so firings commute. Seeds only
//! shuffle the interleaving; disagreement on any seed is a conversion bug
//! (this is exactly what the property tests hunt for).

use crate::df_to_gamma::{dataflow_to_gamma, ConvertError};
use gammaflow_dataflow::engine::{EngineConfig, EngineError, SeqEngine};
use gammaflow_dataflow::graph::DataflowGraph;
use gammaflow_gamma::{Engine, ExecError, ParEngine, Selection, Session, Status};
use gammaflow_multiset::{ElementBag, FxHashSet, Symbol};
use std::fmt;

/// Outcome of one differential run.
#[derive(Debug, Clone)]
pub struct EquivReport {
    /// Whether every compared execution agreed.
    pub equivalent: bool,
    /// Output bag from the dataflow engine.
    pub dataflow_outputs: ElementBag,
    /// Projected final multisets per Gamma seed (seed, projection).
    pub gamma_outputs: Vec<(u64, ElementBag)>,
    /// Firings executed by the dataflow engine (non-root nodes).
    pub dataflow_firings: u64,
    /// Gamma firings for the first seed.
    pub gamma_firings: u64,
    /// Human-readable mismatch description, if any.
    pub mismatch: Option<String>,
}

/// Errors from the checker.
#[derive(Debug)]
pub enum CheckError {
    /// Conversion failed.
    Convert(ConvertError),
    /// The dataflow engine faulted.
    Dataflow(EngineError),
    /// The Gamma interpreter faulted.
    Gamma(ExecError),
    /// An execution hit its budget before stabilising.
    Budget(&'static str),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Convert(e) => write!(f, "conversion failed: {e}"),
            CheckError::Dataflow(e) => write!(f, "dataflow engine fault: {e}"),
            CheckError::Gamma(e) => write!(f, "gamma interpreter fault: {e}"),
            CheckError::Budget(which) => write!(f, "{which} execution exhausted its budget"),
        }
    }
}
impl std::error::Error for CheckError {}

impl From<ConvertError> for CheckError {
    fn from(e: ConvertError) -> Self {
        CheckError::Convert(e)
    }
}
impl From<EngineError> for CheckError {
    fn from(e: EngineError) -> Self {
        CheckError::Dataflow(e)
    }
}
impl From<ExecError> for CheckError {
    fn from(e: ExecError) -> Self {
        CheckError::Gamma(e)
    }
}

/// Options for [`check_equivalence`].
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Gamma seeds to try (each is an independent nondeterministic
    /// schedule).
    pub seeds: Vec<u64>,
    /// Also run the parallel Gamma interpreter with this many workers
    /// (0 = skip).
    pub parallel_workers: usize,
    /// Firing budget for both sides.
    pub max_firings: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seeds: vec![0, 1, 2],
            parallel_workers: 0,
            max_firings: 2_000_000,
        }
    }
}

/// Run the differential check on `graph`.
pub fn check_equivalence(
    graph: &DataflowGraph,
    config: &CheckConfig,
) -> Result<EquivReport, CheckError> {
    let df = SeqEngine::with_config(
        graph,
        EngineConfig {
            max_firings: config.max_firings,
            record_trace: false,
        },
    )
    .run()?;
    if df.status != gammaflow_dataflow::engine::DfStatus::Quiescent {
        return Err(CheckError::Budget("dataflow"));
    }

    let conv = dataflow_to_gamma(graph)?;
    let out_labels: FxHashSet<Symbol> = conv.output_labels.iter().copied().collect();

    let mut gamma_outputs = Vec::new();
    let mut mismatch = None;
    let mut gamma_firings = 0;
    for &seed in &config.seeds {
        let result = Session::build(&conv.program)
            .budget(config.max_firings)
            .selection(Selection::Seeded(seed))
            .run(conv.initial.clone())?;
        if result.status != Status::Stable {
            return Err(CheckError::Budget("gamma"));
        }
        if seed == config.seeds[0] {
            gamma_firings = result.stats.firings_total();
        }
        let projected = result.multiset.project(|l| out_labels.contains(&l));
        if projected != df.outputs && mismatch.is_none() {
            mismatch = Some(format!(
                "seed {seed}: gamma {projected} != dataflow {}",
                df.outputs
            ));
        }
        gamma_outputs.push((seed, projected));
    }

    if config.parallel_workers > 0 {
        let par = Session::build(&conv.program)
            .engine(Engine::Parallel(ParEngine::default()))
            .workers(config.parallel_workers)
            .budget(config.max_firings)
            .run(conv.initial.clone())?;
        if par.status != Status::Stable {
            return Err(CheckError::Budget("parallel gamma"));
        }
        let projected = par.multiset.project(|l| out_labels.contains(&l));
        if projected != df.outputs && mismatch.is_none() {
            mismatch = Some(format!(
                "parallel: gamma {projected} != dataflow {}",
                df.outputs
            ));
        }
        gamma_outputs.push((u64::MAX, projected));
    }

    Ok(EquivReport {
        equivalent: mismatch.is_none(),
        dataflow_outputs: df.outputs,
        gamma_outputs,
        dataflow_firings: df.stats.fired_total(),
        gamma_firings,
        mismatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_dataflow::graph::GraphBuilder;
    use gammaflow_dataflow::node::{Imm, NodeKind};
    use gammaflow_dataflow::OutPort;
    use gammaflow_multiset::value::{BinOp, CmpOp};

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

    fn fig2(y0: i64, z0: i64, x0: i64) -> DataflowGraph {
        let mut b = GraphBuilder::new();
        let y = b.constant_named(y0, "y");
        let z = b.constant_named(z0, "z");
        let x = b.constant_named(x0, "x");
        let r11 = b.add_named(NodeKind::IncTag, "R11");
        let r12 = b.add_named(NodeKind::IncTag, "R12");
        let r13 = b.add_named(NodeKind::IncTag, "R13");
        let r14 = b.add_named(NodeKind::Cmp(CmpOp::Gt, Some(Imm::right(0))), "R14");
        let r15 = b.add_named(NodeKind::Steer, "R15");
        let r16 = b.add_named(NodeKind::Steer, "R16");
        let r17 = b.add_named(NodeKind::Steer, "R17");
        let r18 = b.add_named(NodeKind::Arith(BinOp::Sub, Some(Imm::right(1))), "R18");
        let r19 = b.add_named(NodeKind::Arith(BinOp::Add, None), "R19");
        let out = b.output("result");
        b.connect_labelled(y, r11, 0, "A1");
        b.connect_labelled(z, r12, 0, "B1");
        b.connect_labelled(x, r13, 0, "C1");
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
        b.connect_full(r17, OutPort::False, out, 0, Some("xout"));
        b.build().unwrap()
    }

    #[test]
    fn fig1_checks_equivalent() {
        let report = check_equivalence(&fig1(), &CheckConfig::default()).unwrap();
        assert!(report.equivalent, "{:?}", report.mismatch);
        // Both models perform the same number of operator firings: 3
        // reactions vs R1,R2,R3 (the dataflow count also includes the 4
        // roots).
        assert_eq!(report.gamma_firings, 3);
        assert_eq!(report.dataflow_firings, 7);
    }

    #[test]
    fn fig2_checks_equivalent_with_parallel() {
        let config = CheckConfig {
            seeds: vec![0, 1],
            parallel_workers: 3,
            ..CheckConfig::default()
        };
        let report = check_equivalence(&fig2(5, 4, 100), &config).unwrap();
        assert!(report.equivalent, "{:?}", report.mismatch);
        // All runs observed x = 100 + 5*4 = 120 at tag 5.
        for (_, out) in &report.gamma_outputs {
            assert_eq!(out.len(), 1);
            let e = &out.sorted_elements()[0];
            assert_eq!(e.value, gammaflow_multiset::Value::int(120));
            assert_eq!(e.tag.0, 5);
        }
    }

    #[test]
    fn zero_iteration_loop_checks() {
        let report = check_equivalence(&fig2(7, 0, 42), &CheckConfig::default()).unwrap();
        assert!(report.equivalent, "{:?}", report.mismatch);
    }

    #[test]
    fn divergent_graph_reports_budget() {
        // while(true) loop.
        let mut b = GraphBuilder::new();
        let i0 = b.constant_named(0, "i0");
        let inc = b.add_named(NodeKind::IncTag, "inctag");
        let steer = b.add_named(NodeKind::Steer, "steer");
        let bump = b.add_named(NodeKind::Arith(BinOp::Add, Some(Imm::right(1))), "bump");
        let cmp = b.add_named(NodeKind::Cmp(CmpOp::Ge, Some(Imm::right(i64::MIN))), "true");
        b.connect(i0, inc, 0);
        b.connect(inc, cmp, 0);
        b.connect(inc, steer, 0);
        b.connect(cmp, steer, 1);
        b.connect_full(steer, OutPort::True, bump, 0, None);
        b.connect(bump, inc, 0);
        let g = b.build().unwrap();
        let config = CheckConfig {
            max_firings: 1000,
            ..CheckConfig::default()
        };
        assert!(matches!(
            check_equivalence(&g, &config),
            Err(CheckError::Budget("dataflow"))
        ));
    }
}
