//! The Gamma execution model — *General Abstract Model for Multiset
//! mAnipulation* (Banâtre & Le Métayer, 1986), as described in §II-B of the
//! reproduced paper.
//!
//! A Gamma program is a set of `(condition, action)` reaction pairs applied
//! to a single multiset until no condition holds (Eq. (1) of the paper):
//!
//! ```text
//! Γ((R₁,A₁),…,(Rₘ,Aₘ))(M) =
//!   if ∀i ∀x⃗∈M. ¬Rᵢ(x⃗) then M
//!   else pick i, x⃗ with Rᵢ(x⃗) and recurse on (M − x⃗) + Aᵢ(x⃗)
//! ```
//!
//! This crate provides:
//!
//! * [`spec`] — declarative reactions ([`ReactionSpec`]) following the
//!   paper's Fig. 3 grammar: replace-list patterns, `where` conditions, and
//!   `by … if … / by … else` clause chains; [`GammaProgram`] (parallel `|`
//!   composition) and [`Pipeline`] (sequential `;` composition).
//! * [`expr`] — the expression AST used in conditions and actions, kept as
//!   analysable data because Algorithm 2 of the paper reconstructs dataflow
//!   graphs from reaction syntax.
//! * [`compiled`] — a selectivity-ordered backtracking matcher exploiting
//!   the `(label, tag)` index, plus the guard-analysis pass
//!   ([`compiled::GuardPlan`]) that decomposes conditions into pushdown
//!   conjuncts.
//! * [`rete`] — an incremental join-network matcher (alpha/beta partial-
//!   match memories, guard pushdown) that remembers matches across
//!   firings instead of re-searching; [`seq::Scheduling::Rete`] runs on it.
//! * [`schedule`] — the label → consuming-reactions dependency index
//!   the incremental matchers route deltas through.
//! * [`session`] — the one execution API: a [`Session`] compiles once,
//!   builds matcher state once, and then runs **incremental input
//!   waves** over it ([`Session::run_to_stable`] / [`Session::inject`]),
//!   so steady-state resumption pays O(delta) instead of a rebuild.
//!   One sequential wave loop serves both [`Scheduling`]
//!   strategies, with maximal-parallel stepping as a mode of it;
//!   [`SessionBuilder::run`] is the one-shot form.
//! * [`seq`] — the vocabulary of a run ([`Selection`], [`Scheduling`],
//!   [`Status`], [`ExecResult`], [`ExecError`]) and [`run_pipeline`].
//! * [`parallel`] — the shared-memory parallel engines over a sharded
//!   multiset ([`Engine::Parallel`]): delta-driven workers each owning a
//!   slice of the rete network (the default), with the optimistic
//!   probe-and-retry loop kept as the measurable baseline.
//! * [`pool`] — the parked worker pool parallel waves lease threads from.
//! * [`vm`] — the guard/action bytecode VM (the hot-path evaluator;
//!   [`Expr::eval`] is the reference it is tested against).
//! * [`fault`] — seeded, deterministic fault injection ([`FaultPlan`])
//!   for exercising the crash-recovery paths; compiled out unless the
//!   `fault-inject` cargo feature is enabled.
//! * [`telemetry`] — structured event tracing ([`TraceSink`], JSONL and
//!   ring-buffer sinks), per-reaction execution profiles
//!   ([`ProfileTable`]), and metrics export ([`MetricsRegistry`]),
//!   threaded through every engine with near-zero disabled-path cost.
//! * [`trace`] / [`reuse`] — firing traces and the trace-reuse analysis
//!   built on them.
//!
//! # Example
//!
//! The paper's Eq. (2) minimum program — `replace x, y by x where x < y`
//! — compiled and run to stability on the default (rete-scheduled)
//! engine:
//!
//! ```
//! use gammaflow_gamma::{
//!     ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec, Session, Status,
//! };
//! use gammaflow_multiset::value::CmpOp;
//! use gammaflow_multiset::{Element, ElementBag};
//!
//! let program = GammaProgram::new(vec![ReactionSpec::new("min")
//!     .replace(Pattern::pair("x", "n"))
//!     .replace(Pattern::pair("y", "n"))
//!     .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::var("y")))
//!     .by(vec![ElementSpec::pair(Expr::var("x"), "n")])]);
//! let initial: ElementBag = [9, 4, 7, 1].into_iter()
//!     .map(|v| Element::pair(v, "n"))
//!     .collect();
//!
//! let result = Session::build(&program).run(initial).unwrap();
//! assert_eq!(result.status, Status::Stable);
//! assert_eq!(result.multiset.sorted_elements(), vec![Element::pair(1, "n")]);
//! ```

#![warn(missing_docs)]

pub mod compiled;
pub mod expr;
pub mod fault;
pub mod parallel;
pub mod pool;
pub mod rete;
pub mod reuse;
pub mod schedule;
pub mod seq;
pub mod session;
pub mod spec;
pub mod telemetry;
pub mod trace;
pub mod vm;

pub use compiled::{
    CompiledProgram, CompiledReaction, Firing, GuardPlan, MatchError, MatchSource, SearchScratch,
};
pub use expr::{EvalError, Expr};
pub use fault::{Fault, FaultPlan};
pub use parallel::{OnExhausted, ParEngine, ParResult, ParStats, RecoveryPolicy};
pub use pool::{WaveDispatch, WorkerPool};
pub use rete::{
    AlphaSlice, ReteNetwork, ReteReactionCounters, ReteStats, SlicePlan, DEFAULT_SPILL_WATERMARK,
};
pub use reuse::{analyze as analyze_reuse, ReactionReuse, ReuseReport};
pub use schedule::DependencyIndex;
pub use seq::{run_pipeline, ExecError, ExecResult, ParError, Scheduling, Selection, Status};
pub use session::{
    Engine, EngineConfig, InjectOutcome, Session, SessionBuilder, SessionSnapshot, Wave,
    WaveObserver,
};
pub use spec::{
    ByClause, ElementSpec, GammaProgram, Guard, LabelPat, LabelSpec, Pattern, Pipeline,
    ReactionSpec, SpecError, TagPat, TagSpec, ValuePat,
};
pub use telemetry::{
    JsonlSink, Metric, MetricKind, MetricsRegistry, ProfileTable, ReactionProfile, RingSink,
    Telemetry, TraceEvent, TraceRecord, TraceSink, MAIN_WORKER,
};
pub use trace::{ExecStats, FiringRecord};
pub use vm::{Chunk, GuardEvalMode, Opcode, ReactionVm, Tier};
