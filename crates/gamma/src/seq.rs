//! The vocabulary of a Γ run — a direct reading of Eq. (1).
//!
//! The Γ operator repeatedly selects *any* enabled `(reaction, tuple)` pair
//! and rewrites the multiset, terminating at the steady state where no
//! reaction condition holds. This module names the choices and outcomes
//! of that loop (the loop itself lives in [`crate::session`]):
//!
//! * [`Selection`] is seeded-random by default (honest nondeterminism,
//!   reproducible per seed) or deterministic (first enabled reaction in
//!   program order) for throughput measurements.
//! * [`Scheduling`] picks how enabled reactions are found per step.
//! * [`Status`]: termination is exact — a step that finds no enabled
//!   reaction anywhere is the paper's "global termination state" — and a
//!   **step budget** guards non-terminating programs (Gamma programs may
//!   legitimately diverge), reported as [`Status::BudgetExhausted`].
//! * [`run_pipeline`] is sequential composition `P1 ; P2 ; …`.

use crate::compiled::MatchError;
use crate::rete::ReteStats;
use crate::schedule::SchedStats;
use crate::session::{Engine, EngineConfig, Session};
use crate::spec::{Pipeline, SpecError};
use crate::trace::{ExecStats, FiringRecord};
use gammaflow_multiset::ElementBag;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Status {
    /// Steady state: no reaction is enabled anywhere in the multiset.
    Stable,
    /// The step budget ran out first.
    BudgetExhausted,
}

/// How a sequential session decides which reactions to (re-)search per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Scheduling {
    /// The reference strategy: after every firing, search every reaction
    /// against the whole multiset from scratch (`find_any`). O(F ×
    /// full-search) for F firings; kept as the baseline for differential
    /// testing and benchmarking.
    Rescan,
    /// Delta-driven scheduling: a [`DeltaScheduler`](crate::schedule::DeltaScheduler) worklist re-searches
    /// only reactions reachable from elements produced since they last
    /// failed to match — see [`crate::schedule`] for the
    /// waiting–matching-store correspondence. Observable behaviour is
    /// identical to `Rescan`: same stable states, and under
    /// [`Selection::Deterministic`] the same firing trace.
    Delta,
    /// Rete join-network scheduling (the default): a [`ReteNetwork`](crate::rete::ReteNetwork) of
    /// partial-match memories is kept incrementally consistent with the
    /// multiset, so enabled matches are *read* rather than searched,
    /// per-firing cost is proportional to the delta's token traffic, and
    /// stability is proven by drained memories (no authoritative
    /// rescan). Observable behaviour is identical to `Rescan`: same
    /// stable states, and under [`Selection::Deterministic`] the same
    /// firing trace. A static level plan keeps a join level in memory
    /// only while it prunes, so an unguarded n² reaction is answered by
    /// on-demand search instead of memorising the cross product, and
    /// [`EngineConfig::rete_watermark`] caps the rest — see
    /// [`crate::rete`].
    #[default]
    Rete,
}

/// Selection policy for the nondeterministic choice in Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Selection {
    /// First enabled reaction in program order, first tuple in index order.
    /// Fast and deterministic, but biased.
    Deterministic,
    /// Seeded uniform-ish choice: per step, reaction order is shuffled
    /// and candidates are drawn in random order from a ChaCha8 stream.
    Seeded(u64),
}

/// Errors from building or running a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A reaction failed validation/compilation.
    Spec(SpecError),
    /// An action failed at runtime (division by zero, bad tag, …).
    Match(MatchError),
    /// A parallel wave failed structurally (worker crash past the
    /// recovery budget). Never a process abort: worker panics are caught
    /// and surfaced here.
    Par(ParError),
    /// A [`SessionSnapshot`](crate::session::SessionSnapshot) could not
    /// be restored (version mismatch, incompatible program shape).
    Snapshot(String),
    /// The session's engine does not offer the requested operation.
    Unsupported(&'static str),
}

/// Structural failures of the parallel engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// One or more worker threads died mid-wave (panicked) and the
    /// configured [`RecoveryPolicy`](crate::parallel::RecoveryPolicy) could
    /// not (or was not allowed to) replay the wave to completion. With
    /// replay enabled the bag is restored to the wave-entry state; with
    /// `max_replays == 0` it keeps the failed wave's atomically committed
    /// claims — a legal reachable multiset either way, so the session
    /// stays structurally coherent even though the error marks it spent.
    WorkerLost {
        /// Indices of the workers lost in the final failed attempt.
        workers: Vec<usize>,
        /// Wave replays attempted before giving up.
        replays: u32,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerLost { workers, replays } => write!(
                f,
                "worker(s) {workers:?} lost mid-wave after {replays} replay attempt(s)"
            ),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Spec(e) => write!(f, "{e}"),
            ExecError::Match(e) => write!(f, "{e}"),
            ExecError::Par(e) => write!(f, "{e}"),
            ExecError::Snapshot(msg) => write!(f, "snapshot restore failed: {msg}"),
            ExecError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}
impl std::error::Error for ExecError {}

impl From<SpecError> for ExecError {
    fn from(e: SpecError) -> Self {
        ExecError::Spec(e)
    }
}
impl From<MatchError> for ExecError {
    fn from(e: MatchError) -> Self {
        ExecError::Match(e)
    }
}
impl From<ParError> for ExecError {
    fn from(e: ParError) -> Self {
        ExecError::Par(e)
    }
}

/// The result of running a Gamma program to completion (or budget).
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// The final multiset.
    pub multiset: ElementBag,
    /// Why execution stopped.
    pub status: Status,
    /// Execution counters.
    pub stats: ExecStats,
    /// The firing trace, if [`EngineConfig::record_trace`] was set
    /// (sequential engines).
    pub trace: Option<Vec<FiringRecord>>,
    /// Delta-scheduler counters, when [`Scheduling::Delta`] ran.
    pub sched: Option<SchedStats>,
    /// Join-network counters, when [`Scheduling::Rete`] ran.
    pub rete: Option<ReteStats>,
}

/// Run a [`Pipeline`] (sequential composition `P1 ; P2 ; …`): each stage
/// runs a [`Session`] to steady state and the stage's
/// [`Session::drain_stable`] output seeds the next stage's session.
///
/// The cumulative result absorbs every stage's execution counters, its
/// scheduler/network counters (`sched` sums the stages' [`SchedStats`]
/// under [`Scheduling::Delta`], `rete` their [`ReteStats`] under
/// [`Scheduling::Rete`]), and — when [`EngineConfig::record_trace`] is
/// set — the stages' traces in stage order, numbered continuously.
pub fn run_pipeline(
    pipeline: &Pipeline,
    initial: ElementBag,
    config: &EngineConfig,
) -> Result<ExecResult, ExecError> {
    let mut multiset = initial;
    let mut stats = ExecStats::new(0);
    let mut trace = (config.record_trace && matches!(config.engine, Engine::Seq)).then(Vec::new);
    let mut sched: Option<SchedStats> = None;
    let mut rete: Option<ReteStats> = None;
    let mut last_status = Status::Stable;
    for stage in &pipeline.stages {
        let mut session = Session::build(stage)
            .config(config.clone())
            .start(multiset)?;
        let wave = session.run_to_stable()?;
        last_status = wave.status;
        multiset = session.drain_stable();
        let result = session.finish();
        if let (Some(all), Some(stage_trace)) = (trace.as_mut(), result.trace) {
            let base = stats.firings_total();
            all.extend(stage_trace.into_iter().map(|mut record| {
                record.step += base;
                record
            }));
        }
        stats.absorb(&result.stats);
        if let Some(s) = &result.sched {
            sched.get_or_insert_with(SchedStats::default).absorb(s);
        }
        if let Some(r) = &result.rete {
            rete.get_or_insert_with(ReteStats::default).absorb(r);
        }
        if last_status == Status::BudgetExhausted {
            break;
        }
    }
    Ok(ExecResult {
        multiset,
        status: last_status,
        stats,
        trace,
        sched,
        rete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
    use gammaflow_multiset::value::{BinOp, CmpOp};
    use gammaflow_multiset::Element;

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    /// The paper's Eq. (2) minimum program: one reaction keeps the smaller
    /// of any two elements.
    fn min_program() -> GammaProgram {
        GammaProgram::new(vec![ReactionSpec::new("R")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::var("y")))
            .by(vec![ElementSpec::pair(Expr::var("x"), "n")])])
    }

    #[test]
    fn min_program_reaches_minimum() {
        let initial: ElementBag = [9, 4, 7, 1, 8].into_iter().map(|v| e(v, "n", 0)).collect();
        let result = Session::build(&min_program())
            .selection(Selection::Seeded(1))
            .run(initial)
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset.len(), 1);
        assert!(result.multiset.contains(&e(1, "n", 0)));
        assert_eq!(result.stats.firings_total(), 4);
    }

    #[test]
    fn min_with_duplicates_stabilises_with_ties() {
        // x < y is strict: two equal minima both survive.
        let initial: ElementBag = [3, 3, 9].into_iter().map(|v| e(v, "n", 0)).collect();
        let result = Session::build(&min_program())
            .selection(Selection::Seeded(3))
            .run(initial)
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset.len(), 2);
        assert_eq!(result.multiset.count(&e(3, "n", 0)), 2);
    }

    #[test]
    fn all_seeds_agree_on_confluent_result() {
        let initial: ElementBag = (1..=20).map(|v| e(v, "n", 0)).collect();
        for seed in 0..5 {
            let result = Session::build(&min_program())
                .selection(Selection::Seeded(seed))
                .run(initial.clone())
                .unwrap();
            assert_eq!(result.multiset.sorted_elements(), vec![e(1, "n", 0)]);
        }
    }

    #[test]
    fn deterministic_mode_matches_seeded_outcome() {
        let initial: ElementBag = (1..=10).map(|v| e(v, "n", 0)).collect();
        let result = Session::build(&min_program())
            .selection(Selection::Deterministic)
            .run(initial)
            .unwrap();
        assert_eq!(result.multiset.sorted_elements(), vec![e(1, "n", 0)]);
    }

    #[test]
    fn empty_program_is_immediately_stable() {
        let initial: ElementBag = [e(1, "n", 0)].into_iter().collect();
        let result = Session::build(&GammaProgram::default())
            .run(initial.clone())
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset, initial);
        assert_eq!(result.stats.firings_total(), 0);
    }

    #[test]
    fn budget_stops_divergent_program() {
        // x -> x + 1 forever.
        let diverge = GammaProgram::new(vec![ReactionSpec::new("inc")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
                "n",
            )])]);
        let initial: ElementBag = [e(0, "n", 0)].into_iter().collect();
        let result = Session::build(&diverge).budget(100).run(initial).unwrap();
        assert_eq!(result.status, Status::BudgetExhausted);
        assert_eq!(result.stats.firings_total(), 100);
        assert!(result.multiset.contains(&e(100, "n", 0)));
    }

    #[test]
    fn trace_records_every_firing() {
        let initial: ElementBag = [4, 2, 9].into_iter().map(|v| e(v, "n", 0)).collect();
        let result = Session::build(&min_program())
            .record_trace(true)
            .run(initial)
            .unwrap();
        let trace = result.trace.unwrap();
        assert_eq!(trace.len() as u64, result.stats.firings_total());
        assert!(trace.iter().all(|r| r.reaction == "R"));
        // Each firing consumes 2 and produces 1.
        for r in &trace {
            assert_eq!(r.consumed.len(), 2);
            assert_eq!(r.produced.len(), 1);
        }
    }

    #[test]
    fn max_parallel_steps_profile() {
        // Pairwise sum tree: 8 leaves halve each step: profile 4,2,1.
        let sum = GammaProgram::new(vec![ReactionSpec::new("sum")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "n",
            )])]);
        let initial: ElementBag = (1..=8).map(|v| e(v, "n", 0)).collect();
        let mut session = Session::build(&sum).start(initial).unwrap();
        let (_, profile) = session.run_to_stable_max_parallel().unwrap();
        let result = session.finish();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset.len(), 1);
        assert!(result.multiset.contains(&e(36, "n", 0)));
        assert_eq!(profile, vec![4, 2, 1]);
    }

    #[test]
    fn pipeline_stages_run_in_sequence() {
        // Stage 1: double everything once is impossible in Gamma (no
        // once-only), so: stage 1 relabels n -> m; stage 2 sums all m.
        let stage1 = GammaProgram::new(vec![ReactionSpec::new("relabel")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(Expr::var("x"), "m")])]);
        let stage2 = GammaProgram::new(vec![ReactionSpec::new("sum")
            .replace(Pattern::pair("x", "m"))
            .replace(Pattern::pair("y", "m"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "m",
            )])]);
        let initial: ElementBag = (1..=4).map(|v| e(v, "n", 0)).collect();
        let result = run_pipeline(
            &Pipeline::new(vec![stage1, stage2]),
            initial,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(result.status, Status::Stable);
        assert_eq!(result.multiset.sorted_elements(), vec![e(10, "m", 0)]);
    }
}
