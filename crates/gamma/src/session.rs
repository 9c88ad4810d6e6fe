//! The unified `Session` execution API — build-once engines, incremental
//! input waves.
//!
//! The paper states the Gamma/dataflow equivalence over a *fixed* initial
//! multiset, but a production system serves continuous traffic: reach
//! steady state, **inject new elements, and resume**. The Rete join
//! network ([`crate::rete`]) already maintains exact match memory across
//! firings — the same insight as classic incremental production systems
//! and differential dataflow — so rebuilding it per batch would throw
//! the O(delta) away.
//!
//! A [`Session`] is the one way to run Γ. It owns the compiled program
//! **and the live matcher state** (the [`ReteNetwork`], or the parallel
//! engine's sharded slices + bag + key directory) across any number of
//! **waves**:
//!
//! ```text
//! Session::build(&program)           // compile once
//!     .scheduling(..)/.selection(..)/.engine(..)/.workers(..)
//!     .watermark(..)/.budget(..)/.observer(..)
//!     .start(initial)?               // build matcher state once
//!
//! loop {
//!     session.run_to_stable()?  -> Wave { fired, status, stats }
//!     session.inject(new_elements)   // O(delta): feeds the live matcher
//! }
//! session.finish()              -> ExecResult (cumulative)
//! ```
//!
//! Because a Gamma reaction's enabledness depends only on the consumed
//! tuple (guards range over bound variables), any wave-by-wave execution
//! is a legal firing order of the merged run — injection merely makes
//! elements available later. A confluent program therefore lands on the
//! **byte-identical** final multiset a fresh one-shot run on the merged
//! bag computes, while repeated waves pay only O(delta): injection feeds
//! the existing join network / shard mailboxes instead of a full
//! rebuild (harness step `S5` records the margin in
//! `BENCH_streaming.json`).
//!
//! One-shot callers use [`SessionBuilder::run`] (`start` +
//! `run_to_stable` + `finish`); [`run_pipeline`](crate::seq::run_pipeline)
//! chains one session per stage through [`Session::drain_stable`].
//!
//! # Which state survives a wave
//!
//! | engine | survives across waves | rebuilt per wave |
//! |---|---|---|
//! | `Seq` + `Rescan` | multiset, RNG stream | (nothing to keep) |
//! | `Seq` + `Rete` | alpha/beta memories, demoted (virtual) levels | — |
//! | `Parallel(_)` | one parallel state: sharded bag, key directory, and per-worker network slices (`ShardedRete`) or dirty flags (`ProbeRetry`) | worker threads; delta mailboxes (`ShardedRete`) |
//!
//! Both parallel engines share one reset, used by
//! [`Session::drain_stable`] and by every exit of a wave that lost a
//! worker: the bag is replaced, then the slices are rebuilt with their
//! lifetime counters kept, or every dirty flag is re-armed.

use crate::compiled::{CompiledProgram, Firing, SearchScratch};
use crate::fault::{FaultPlan, WaveFaults};
use crate::parallel::{ParEngine, ParResult, ParState, ParStats, RecoveryPolicy, WaveCtl};
use crate::pool::WaveDispatch;
use crate::rete::{ReteNetwork, ReteStats};
use crate::seq::{ExecError, ExecResult, Scheduling, Selection, Status};
use crate::spec::GammaProgram;
use crate::telemetry::{
    firing_event, MetricsRegistry, ProfTimes, ProfileTable, Telemetry, TraceEvent, TraceSink,
    MAIN_WORKER,
};
use crate::trace::{ExecStats, FiringRecord};
use crate::vm::GuardEvalMode;
use gammaflow_multiset::{Element, ElementBag, Symbol, Tag};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::Arc;

/// Which execution engine a [`Session`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Engine {
    /// The single-threaded interpreter; per-step strategy selected by
    /// [`EngineConfig::scheduling`].
    #[default]
    Seq,
    /// The shared-memory parallel interpreter over a sharded multiset;
    /// worker loop selected by the [`ParEngine`] payload,
    /// [`EngineConfig::workers`] threads.
    Parallel(ParEngine),
}

/// The engine configuration consumed by the [`Session`] builder: one
/// struct for the sequential and the parallel engines alike.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Which engine runs the waves.
    pub engine: Engine,
    /// Sequential per-step strategy (ignored by parallel engines, which
    /// are delta-driven by construction).
    pub scheduling: Scheduling,
    /// Reaction/tuple selection policy (sequential engines; parallel
    /// workers draw from per-worker streams seeded by
    /// [`EngineConfig::seed`]).
    pub selection: Selection,
    /// Cumulative firing budget across all waves of the session.
    pub max_steps: u64,
    /// Record a full firing trace, numbered continuously across waves
    /// (sequential engines only).
    pub record_trace: bool,
    /// Per-reaction cap on Rete tokens above join level 0 (sequential
    /// network and per-worker slices alike): past it, the deepest
    /// materialised levels demote to on-demand search for good (see
    /// [`crate::rete`]). Exactness does not depend on the value; it only
    /// trades memory for recomputation.
    pub rete_watermark: usize,
    /// Worker threads (parallel engines).
    pub workers: usize,
    /// Multiset shards, rounded up to a power of two (parallel engines).
    pub shards: usize,
    /// Bucket sampling cap for probe-retry's optimistic searches: a
    /// bucket longer than this shows each probe only a salted window of
    /// this many rows. The sharded engine reads its slices exactly and
    /// ignores it.
    pub sample_cap: usize,
    /// Seed for parallel per-worker RNG streams.
    pub seed: u64,
    /// Injection backpressure: the bag-size budget [`Session::inject`]
    /// admits elements against. An injection that would push the live
    /// multiset past this many elements is truncated and the overflow
    /// handed back as [`InjectOutcome::Spilled`] for the caller to queue,
    /// shed, or retry after a draining wave. Unlimited by default.
    pub bag_budget: u64,
    /// Wave-level crash recovery for the parallel engines: how many
    /// times a wave that lost a worker is replayed from its entry
    /// snapshot, and what happens when replays run out.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault schedule for durability testing. Inert (and
    /// compiled out) unless the `fault-inject` cargo feature is on; see
    /// [`crate::fault`].
    pub faults: FaultPlan,
    /// Structured-event telemetry handle (see [`crate::telemetry`]).
    /// Disabled by default; install a sink with
    /// [`SessionBuilder::trace_sink`], or set `GAMMAFLOW_TRACE=path` in
    /// the environment to get a JSONL sink at session build. Serializes
    /// as `null` (sinks are process-local) and deserializes disabled.
    pub telemetry: Telemetry,
    /// Collect wall-clock match/action latency into the per-reaction
    /// profile table. Sequential wave loops only — parallel workers
    /// skip timing (see
    /// [`ReactionProfile`](crate::telemetry::ReactionProfile)). Off by
    /// default: each firing costs two extra `Instant::now` calls.
    pub profile: bool,
    /// How guard and action expressions are evaluated: bytecode VM
    /// dispatch (the default) or the reference tree walk. Observable
    /// behaviour is identical either way (see [`crate::vm`]).
    pub guard_eval: GuardEvalMode,
    /// Profile-driven tiering threshold: once a reaction's cumulative
    /// `fired + guard_evals` (from the session's [`ProfileTable`])
    /// crosses it, the reaction re-compiles its bytecode with the
    /// optimising pass at the next wave boundary — never mid-wave, so
    /// determinism is untouched. `u64::MAX` disables tiering; only
    /// meaningful under [`GuardEvalMode::Vm`].
    pub vm_tier_threshold: u64,
}

/// Default [`EngineConfig::vm_tier_threshold`]: low enough that
/// guard-heavy workloads tier up within their first waves, high enough
/// that short-lived programs never pay a re-compile.
pub const DEFAULT_VM_TIER_THRESHOLD: u64 = 65_536;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            engine: Engine::default(),
            scheduling: Scheduling::default(),
            selection: Selection::Seeded(0),
            max_steps: 10_000_000,
            record_trace: false,
            rete_watermark: crate::rete::DEFAULT_SPILL_WATERMARK,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            shards: 64,
            sample_cap: 64,
            seed: 0,
            bag_budget: u64::MAX,
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::default(),
            telemetry: Telemetry::disabled(),
            profile: false,
            guard_eval: GuardEvalMode::default(),
            vm_tier_threshold: DEFAULT_VM_TIER_THRESHOLD,
        }
    }
}

/// What happened to a [`Session::inject`] call under the configured
/// [`EngineConfig::bag_budget`]. Marked `#[must_use]`: dropping a
/// `Spilled` overflow silently loses input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a Spilled outcome carries rejected elements that must be queued or shed"]
pub enum InjectOutcome {
    /// Every element was admitted into the live multiset.
    Accepted,
    /// The bag budget filled mid-injection: elements up to the budget
    /// were admitted (in iteration order), and these are the overflow —
    /// re-inject them after a wave drains the bag, or shed them.
    Spilled(Vec<Element>),
}

impl InjectOutcome {
    /// True when nothing spilled.
    pub fn is_accepted(&self) -> bool {
        matches!(self, InjectOutcome::Accepted)
    }

    /// The rejected overflow, if any (empty for [`InjectOutcome::Accepted`]).
    pub fn spilled(self) -> Vec<Element> {
        match self {
            InjectOutcome::Accepted => Vec::new(),
            InjectOutcome::Spilled(v) => v,
        }
    }
}

/// The record of one wave: a [`Session::run_to_stable`] call.
#[derive(Debug, Clone)]
pub struct Wave {
    /// Firings this wave.
    pub fired: u64,
    /// Why the wave stopped ([`Status::Stable`], or the session's
    /// cumulative budget ran out).
    pub status: Status,
    /// Per-wave execution counters (cumulative totals live in
    /// [`Session::finish`]).
    pub stats: ExecStats,
}

/// Per-wave callback installed with
/// [`SessionBuilder::observer`]: invoked after every completed wave.
pub type WaveObserver = Box<dyn FnMut(&Wave) + Send>;

/// Builder returned by [`Session::build`].
pub struct SessionBuilder<'a> {
    program: &'a GammaProgram,
    config: EngineConfig,
    observer: Option<WaveObserver>,
    dispatch: WaveDispatch,
}

impl<'a> SessionBuilder<'a> {
    /// Replace the whole configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sequential per-step strategy (see [`Scheduling`]).
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.config.scheduling = scheduling;
        self
    }

    /// Reaction/tuple selection policy (see [`Selection`]).
    pub fn selection(mut self, selection: Selection) -> Self {
        self.config.selection = selection;
        self
    }

    /// Which engine runs the waves (see [`Engine`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Worker threads for [`Engine::Parallel`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Rete spill watermark (see [`EngineConfig::rete_watermark`]).
    pub fn watermark(mut self, watermark: usize) -> Self {
        self.config.rete_watermark = watermark;
        self
    }

    /// Cumulative firing budget across all waves.
    pub fn budget(mut self, max_steps: u64) -> Self {
        self.config.max_steps = max_steps;
        self
    }

    /// Record the firing trace (sequential engines).
    pub fn record_trace(mut self, record: bool) -> Self {
        self.config.record_trace = record;
        self
    }

    /// Injection backpressure budget (see [`EngineConfig::bag_budget`]).
    pub fn bag_budget(mut self, budget: u64) -> Self {
        self.config.bag_budget = budget;
        self
    }

    /// Wave-level crash recovery policy (parallel engines; see
    /// [`RecoveryPolicy`]).
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Deterministic fault schedule (see [`crate::fault`]; inert unless
    /// the `fault-inject` feature is on).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Install a telemetry sink that receives every [`TraceEvent`] the
    /// session emits (see [`crate::telemetry`] for the taxonomy).
    /// Without one, `GAMMAFLOW_TRACE=path` in the environment installs
    /// a JSONL file sink at [`SessionBuilder::start`]; otherwise
    /// tracing stays off and emission sites cost one branch.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.config.telemetry = Telemetry::to_sink(sink);
        self
    }

    /// Collect per-reaction match/action wall-clock timing (sequential
    /// wave loops; see [`EngineConfig::profile`]).
    pub fn profile(mut self, profile: bool) -> Self {
        self.config.profile = profile;
        self
    }

    /// Guard/action evaluation mode: bytecode VM dispatch (the default)
    /// or the reference tree walk (see [`EngineConfig::guard_eval`]).
    pub fn guard_eval(mut self, mode: GuardEvalMode) -> Self {
        self.config.guard_eval = mode;
        self
    }

    /// Profile-driven tiering threshold (see
    /// [`EngineConfig::vm_tier_threshold`]); `u64::MAX` disables tiering.
    pub fn vm_tier_threshold(mut self, threshold: u64) -> Self {
        self.config.vm_tier_threshold = threshold;
        self
    }

    /// Install a per-wave observer callback.
    pub fn observer(mut self, observer: WaveObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// How parallel waves of two or more workers acquire their threads
    /// (see [`WaveDispatch`]; a one-worker wave runs on the calling
    /// thread). Defaults to leasing from the process-wide parked pool.
    /// Not part of [`EngineConfig`] or the snapshot: dispatch is a
    /// process-local execution concern and never changes results, only
    /// latency.
    pub fn wave_dispatch(mut self, dispatch: WaveDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Compile the program, build the matcher state over `initial`, and
    /// return the live session.
    pub fn start(self, initial: ElementBag) -> Result<Session, ExecError> {
        let compiled = CompiledProgram::compile(self.program)?;
        let mut session = Session::assemble(compiled, self.config, initial);
        session.observer = self.observer;
        session.dispatch = self.dispatch;
        session.emit_build_events();
        Ok(session)
    }

    /// One-shot execution: [`start`](Self::start), one
    /// [`Session::run_to_stable`] wave, [`Session::finish`].
    pub fn run(self, initial: ElementBag) -> Result<ExecResult, ExecError> {
        let mut session = self.start(initial)?;
        session.run_to_stable()?;
        Ok(session.finish())
    }
}

/// Live sequential matcher state, persistent across waves.
enum SeqMatcher {
    /// The rescanning reference keeps no memory; only the shuffled probe
    /// order persists (scratch, not state).
    Rescan { order: Vec<usize> },
    /// The Rete join network: alpha/beta memories and which levels are
    /// virtual.
    Rete(Box<ReteNetwork>),
}

impl SeqMatcher {
    fn build(compiled: &CompiledProgram, bag: &ElementBag, config: &EngineConfig) -> SeqMatcher {
        match config.scheduling {
            Scheduling::Rescan => SeqMatcher::Rescan {
                order: (0..compiled.reactions.len()).collect(),
            },
            Scheduling::Rete => SeqMatcher::Rete(Box::new(ReteNetwork::with_watermark(
                compiled,
                bag,
                config.rete_watermark,
            ))),
        }
    }

    /// Eq. (1)'s *pick*: an enabled `(reaction, tuple)` of the visible
    /// multiset under the selection policy (`rng == None` is
    /// deterministic first-match), or `None` when nothing is enabled.
    ///
    /// * Rescan searches every reaction from scratch — the reference.
    /// * Rete asks [`ReteNetwork::next_firing`] for the reaction and its
    ///   tuple in one call; a drained network *is* the stability proof.
    ///   A searched reaction is decided by the very search that supplies
    ///   its tuple. Under deterministic selection every tuple comes from
    ///   the index search the reference runs, tried in program order, so
    ///   the trace is identical by construction; under seeded selection
    ///   the reaction is drawn uniformly among the enabled ones and the
    ///   tuple read off a random terminal token or drawn by seeded search.
    fn next_firing(
        &mut self,
        compiled: &CompiledProgram,
        multiset: &ElementBag,
        mut rng: Option<&mut ChaCha8Rng>,
        scratch: &mut SearchScratch,
    ) -> Result<Option<Firing>, ExecError> {
        match self {
            SeqMatcher::Rescan { order } => {
                if let Some(r) = rng.as_deref_mut() {
                    order.shuffle(r);
                }
                Ok(compiled.find_any_fast(order, multiset, rng, scratch)?)
            }
            SeqMatcher::Rete(network) => {
                let Some((reaction, found)) =
                    network.next_firing(compiled, multiset, rng.as_deref_mut())?
                else {
                    return Ok(None);
                };
                if found.is_some() {
                    return Ok(found);
                }
                // The network over-approximated: a maintenance bug, not a
                // semantics hazard, because the exact whole-program search
                // has the last word on stability.
                debug_assert!(
                    false,
                    "rete memory disagrees with search for reaction {reaction}"
                );
                let order: Vec<usize> = (0..compiled.reactions.len()).collect();
                Ok(compiled.find_any_fast(&order, multiset, rng, scratch)?)
            }
        }
    }

    /// `firing` has been applied to `multiset` in full.
    fn on_fired(&mut self, compiled: &CompiledProgram, multiset: &ElementBag, firing: &Firing) {
        match self {
            SeqMatcher::Rescan { .. } => {}
            SeqMatcher::Rete(network) => network.on_firing_applied(compiled, multiset, firing),
        }
    }

    /// `firing`'s consumed tuple has left `multiset` while its products
    /// are withheld (maximal-parallel stepping); they arrive through
    /// [`SeqMatcher::on_inserted`] at the step barrier.
    fn on_removed(&mut self, compiled: &CompiledProgram, multiset: &ElementBag, firing: &Firing) {
        match self {
            SeqMatcher::Rescan { .. } => {}
            SeqMatcher::Rete(network) => network.on_removed(compiled, multiset, &firing.consumed),
        }
    }

    /// `elements` have been added to `multiset` (injection, step barrier).
    fn on_inserted(
        &mut self,
        compiled: &CompiledProgram,
        multiset: &ElementBag,
        elements: &[Element],
    ) {
        match self {
            SeqMatcher::Rescan { .. } => {}
            SeqMatcher::Rete(network) => network.on_inserted(compiled, multiset, elements),
        }
    }
}

/// Engine state, persistent across waves.
enum State {
    Seq {
        multiset: ElementBag,
        matcher: SeqMatcher,
    },
    Par(Box<ParState>),
}

/// A live execution session: compiled reactions plus persistent matcher
/// state, driven wave by wave. See the [module docs](self).
pub struct Session {
    compiled: CompiledProgram,
    config: EngineConfig,
    state: State,
    /// Selection stream for the sequential engines, persistent so wave
    /// boundaries do not reset the nondeterminism.
    rng: Option<ChaCha8Rng>,
    scratch: SearchScratch,
    /// Cumulative counters across waves.
    stats: ExecStats,
    trace: Option<Vec<FiringRecord>>,
    /// Cumulative wave-level parallel counters (slice-lifetime counters
    /// are folded in at [`Session::finish_parallel`] time).
    par: ParStats,
    last_status: Status,
    waves_run: u64,
    observer: Option<WaveObserver>,
    /// Main-thread telemetry event counter: the `wseq` coordinate of
    /// [`MAIN_WORKER`] trace records. A `Cell` so `&self` accessors
    /// (snapshot) can emit too.
    ev: Cell<u64>,
    /// Cumulative per-reaction execution profiles across waves.
    profiles: ProfileTable,
    /// Lifetime level demotions of the sequential Rete network already
    /// reported in earlier `SpillActivity` events.
    seen_spill: u64,
    /// Lifetime baseline → optimised VM re-compiles (see
    /// [`Session::maybe_tier_up`]).
    tier_ups: u64,
    /// Worker acquisition policy for multi-worker parallel waves (parked
    /// pool lease with spawn fallback, or per-wave spawn). Process-local
    /// — never serialized; a restored session defaults back to the pool.
    dispatch: WaveDispatch,
}

impl Session {
    /// Start configuring a session for `program`. Finish with
    /// [`SessionBuilder::start`].
    pub fn build(program: &GammaProgram) -> SessionBuilder<'_> {
        SessionBuilder {
            program,
            config: EngineConfig::default(),
            observer: None,
            dispatch: WaveDispatch::default(),
        }
    }

    /// A fresh session over `bag`: matcher state built, counters zero,
    /// no observer, default dispatch. Shared by [`SessionBuilder::start`]
    /// and [`Session::restore`], which layers the snapshot's counters on
    /// top.
    fn assemble(
        mut compiled: CompiledProgram,
        mut config: EngineConfig,
        bag: ElementBag,
    ) -> Session {
        if !config.telemetry.enabled() {
            // No sink installed explicitly (or the config crossed serde,
            // where telemetry serializes as null): honour GAMMAFLOW_TRACE.
            config.telemetry = Telemetry::from_env();
        }
        // Stamp the evaluation mode before any matcher state is built, so
        // every guard dispatched anywhere in the session's life uses it.
        compiled.set_guard_eval_mode(config.guard_eval);
        let nreactions = compiled.reactions.len();
        // The selection stream exists only for the sequential engines;
        // parallel workers derive per-worker streams from `config.seed`.
        let rng = match (config.engine, config.selection) {
            (Engine::Seq, Selection::Seeded(seed)) => Some(ChaCha8Rng::seed_from_u64(seed)),
            _ => None,
        };
        let state = match config.engine {
            Engine::Seq => State::Seq {
                matcher: SeqMatcher::build(&compiled, &bag, &config),
                multiset: bag,
            },
            Engine::Parallel(engine) => {
                State::Par(Box::new(ParState::build(&compiled, engine, bag, &config)))
            }
        };
        let trace = (config.record_trace && matches!(config.engine, Engine::Seq)).then(Vec::new);
        let profiles = ProfileTable::new(compiled.reactions.iter().map(|r| r.name.as_str()));
        let mut session = Session {
            compiled,
            config,
            state,
            rng,
            scratch: SearchScratch::new(),
            stats: ExecStats::new(nreactions),
            trace,
            par: ParStats::default(),
            last_status: Status::Stable,
            waves_run: 0,
            observer: None,
            ev: Cell::new(0),
            profiles,
            seen_spill: 0,
            tier_ups: 0,
            dispatch: WaveDispatch::default(),
        };
        session.rebase_wave_aggregates();
        session
    }

    /// Re-base the wave-aggregate deltas on the matcher's lifetime
    /// counters: building the matcher may already demote memories to
    /// spill, and a restored matcher resumes from the snapshot's figures;
    /// only activity past these values is reported per wave.
    fn rebase_wave_aggregates(&mut self) {
        if let State::Seq { matcher, .. } = &self.state {
            match matcher {
                SeqMatcher::Rescan { .. } => {}
                SeqMatcher::Rete(n) => self.seen_spill = n.stats.spill_demotions,
            }
        }
    }

    /// Emit a main-thread trace event under the session's `wseq`
    /// counter, stamped with the current wave index. Callers guard with
    /// `self.config.telemetry.enabled()` so the disabled path stays a
    /// single branch.
    fn emit(&self, event: TraceEvent) {
        let wseq = self.ev.get();
        self.ev.set(wseq + 1);
        self.config
            .telemetry
            .emit(MAIN_WORKER, wseq, self.waves_run, event);
    }

    /// Emit the session-build events: one [`TraceEvent::PlanExplained`]
    /// per reaction, then a [`TraceEvent::ReteBuilt`] describing the
    /// live join network (if the engine keeps one). Called at build and
    /// again after [`Session::restore`], since both construct matcher
    /// state from scratch.
    fn emit_build_events(&self) {
        if !self.config.telemetry.enabled() {
            return;
        }
        for (i, r) in self.compiled.reactions.iter().enumerate() {
            self.emit(TraceEvent::PlanExplained {
                reaction: i,
                name: r.name.clone(),
                plan: r.explain_plan(),
            });
        }
        let built = match &self.state {
            State::Seq {
                matcher: SeqMatcher::Rete(n),
                ..
            } => Some((1, n.stats.tokens_created)),
            State::Par(st) => st.slices_info(),
            State::Seq { .. } => None,
        };
        if let Some((slices, tokens)) = built {
            self.emit(TraceEvent::ReteBuilt {
                reactions: self.compiled.reactions.len(),
                slices,
                tokens,
            });
        }
        self.config.telemetry.flush();
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Status of the most recent wave ([`Status::Stable`] before any wave
    /// has run).
    pub fn status(&self) -> Status {
        self.last_status
    }

    /// Total firings across all waves so far.
    pub fn fired_total(&self) -> u64 {
        self.stats.firings_total()
    }

    /// Number of completed waves.
    pub fn waves_run(&self) -> u64 {
        self.waves_run
    }

    /// Firing budget remaining before [`Status::BudgetExhausted`].
    pub fn budget_left(&self) -> u64 {
        self.config.max_steps.saturating_sub(self.fired_total())
    }

    /// Grant `extra` firings on top of the cumulative budget — the
    /// resume path after [`Status::BudgetExhausted`]: grant, then call
    /// [`Session::run_to_stable`] again and the wave continues from the
    /// live matcher state.
    pub fn grant_budget(&mut self, extra: u64) {
        self.config.max_steps = self.config.max_steps.saturating_add(extra);
    }

    /// Replace the wave-dispatch strategy on a live session. A
    /// process-local execution concern, never serialized: a restored
    /// session defaults back to the shared parked pool, and a service
    /// that evicts/restores sessions re-applies its per-tenant choice
    /// through this. Dispatch never changes results, only latency.
    pub fn set_wave_dispatch(&mut self, dispatch: WaveDispatch) {
        self.dispatch = dispatch;
    }

    /// Elements currently in the live multiset.
    pub fn bag_len(&self) -> usize {
        match &self.state {
            State::Seq { multiset, .. } => multiset.len(),
            State::Par(st) => st.len(),
        }
    }

    /// Inject new elements into the live multiset, feeding the existing
    /// matcher state its insertion delta — O(delta), no rebuild. The
    /// next [`Session::run_to_stable`] wave picks the work up.
    ///
    /// Admission is bounded by [`EngineConfig::bag_budget`]: elements
    /// beyond the remaining room are *not* inserted and come back as
    /// [`InjectOutcome::Spilled`] (in iteration order), giving the
    /// caller explicit backpressure instead of an unbounded bag.
    pub fn inject(&mut self, elements: impl IntoIterator<Item = Element>) -> InjectOutcome {
        let mut elements: Vec<Element> = elements.into_iter().collect();
        if elements.is_empty() {
            return InjectOutcome::Accepted;
        }
        let room = self.config.bag_budget.saturating_sub(self.bag_len() as u64);
        let spilled = if (elements.len() as u64) > room {
            elements.split_off(room as usize)
        } else {
            Vec::new()
        };
        if elements.is_empty() {
            if self.config.telemetry.enabled() {
                self.emit(TraceEvent::Injected {
                    admitted: 0,
                    spilled: spilled.len() as u64,
                });
            }
            return InjectOutcome::Spilled(spilled);
        }
        match &mut self.state {
            State::Seq { multiset, matcher } => {
                for e in &elements {
                    multiset.insert(e.clone());
                }
                matcher.on_inserted(&self.compiled, multiset, &elements);
            }
            State::Par(st) => st.inject(&self.compiled, &elements),
        }
        if self.config.telemetry.enabled() {
            self.emit(TraceEvent::Injected {
                admitted: elements.len() as u64,
                spilled: spilled.len() as u64,
            });
        }
        if spilled.is_empty() {
            InjectOutcome::Accepted
        } else {
            InjectOutcome::Spilled(spilled)
        }
    }

    /// A copy of the current multiset (for the parallel engines this
    /// locks each shard once).
    pub fn snapshot(&self) -> ElementBag {
        match &self.state {
            State::Seq { multiset, .. } => multiset.clone(),
            State::Par(st) => st.snapshot(),
        }
    }

    /// Move the multiset out of the session, leaving it empty with its
    /// matcher state reset (memories over an empty bag) and cumulative
    /// counters intact. Intended at stability — this is how pipeline
    /// stages chain: the drained bag seeds the next stage's session.
    pub fn drain_stable(&mut self) -> ElementBag {
        let drained = match &mut self.state {
            State::Seq { multiset, matcher } => {
                // Only the Rete memories need resetting; Rescan keeps
                // nothing.
                if let SeqMatcher::Rete(n) = matcher {
                    let stats = std::mem::take(&mut n.stats);
                    **n = ReteNetwork::with_watermark(
                        &self.compiled,
                        &ElementBag::new(),
                        self.config.rete_watermark,
                    );
                    n.stats = stats;
                }
                std::mem::take(multiset)
            }
            State::Par(st) => st.drain(&self.compiled),
        };
        if self.config.telemetry.enabled() {
            self.emit(TraceEvent::Drained {
                bag_len: drained.len() as u64,
            });
        }
        drained
    }

    /// Run until no reaction is enabled anywhere (or the cumulative
    /// budget runs out), returning this wave's record.
    ///
    /// An `Err` (a runtime action failure, e.g. division by zero) marks
    /// the session unusable: the failed wave's firings are not recorded
    /// and the matcher state may be out of step with the multiset.
    /// Discard the session.
    pub fn run_to_stable(&mut self) -> Result<Wave, ExecError> {
        self.run_wave(None)
    }

    /// Run one wave in *maximal parallel steps*: each step fires a
    /// maximal set of disjoint enabled tuples "simultaneously" (products
    /// stay invisible until the step ends) — one "chemical tick" of the
    /// idealised machine with unbounded processors. Returns the wave plus
    /// the per-step firing counts, the parallelism profile. A sequential
    /// execution mode: [`ExecError::Unsupported`] on an
    /// [`Engine::Parallel`] session.
    pub fn run_to_stable_max_parallel(&mut self) -> Result<(Wave, Vec<usize>), ExecError> {
        if !matches!(self.state, State::Seq { .. }) {
            return Err(ExecError::Unsupported(
                "maximal parallel steps are a sequential execution mode (Engine::Seq)",
            ));
        }
        let mut steps = Vec::new();
        let wave = self.run_wave(Some(&mut steps))?;
        Ok((wave, steps))
    }

    /// One wave. `steps`, when given, selects maximal-parallel stepping
    /// (sequential engines only) and receives the per-step firing counts.
    fn run_wave(&mut self, steps: Option<&mut Vec<usize>>) -> Result<Wave, ExecError> {
        let mut budget = self.budget_left();
        // The snapshot-mid-wave fault point: an armed `PauseMidWave` caps
        // this wave so it returns `BudgetExhausted` at a deterministic
        // firing count, letting tests snapshot inside a wave. Folds away
        // without the `fault-inject` feature.
        if let Some(cap) = WaveFaults::new(
            &self.config.faults,
            self.waves_run,
            0,
            &self.config.telemetry,
        )
        .pause_at()
        {
            budget = budget.min(cap);
        }
        if self.config.telemetry.enabled() {
            let mut engine = engine_desc(&self.config);
            if steps.is_some() {
                engine.push_str("/max-parallel");
            }
            self.emit(TraceEvent::WaveStart {
                wave: self.waves_run,
                engine,
            });
        }
        let mut prof = ProfTimes::new(
            self.config.profile && matches!(self.config.engine, Engine::Seq),
            self.compiled.reactions.len(),
        );
        let ctl = WaveCtl {
            recovery: &self.config.recovery,
            faults: &self.config.faults,
            tel: &self.config.telemetry,
            ev: &self.ev,
            dispatch: &self.dispatch,
        };
        let (wave_stats, status) = match &mut self.state {
            State::Seq { multiset, matcher } => SeqWave {
                compiled: &self.compiled,
                multiset,
                matcher,
                rng: self.rng.as_mut(),
                scratch: &mut self.scratch,
                budget,
                step_base: self.stats.firings_total(),
                trace: self.trace.as_mut(),
                prof: &mut prof,
                ctl: &ctl,
                wave: self.waves_run,
                steps,
            }
            .run()?,
            State::Par(st) => {
                st.wave(&self.compiled, budget, self.waves_run, &mut self.par, &ctl)?
            }
        };
        self.finish_wave(wave_stats, status, prof)
    }

    /// Common wave epilogue: absorb the wave's per-reaction profile
    /// observations, emit the wave-aggregate events, fold counters,
    /// notify the observer.
    fn finish_wave(
        &mut self,
        wave_stats: ExecStats,
        status: Status,
        prof: ProfTimes,
    ) -> Result<Wave, ExecError> {
        self.absorb_profiles(&wave_stats, &prof);
        self.maybe_tier_up();
        if self.config.telemetry.enabled() {
            self.emit_wave_aggregates();
            self.emit(TraceEvent::WaveEnd {
                wave: self.waves_run,
                fired: wave_stats.firings_total(),
                status: format!("{status:?}"),
            });
            self.config.telemetry.flush();
        }
        self.stats.absorb(&wave_stats);
        self.last_status = status;
        self.waves_run += 1;
        let wave = Wave {
            fired: wave_stats.firings_total(),
            status,
            stats: wave_stats,
        };
        if let Some(observer) = self.observer.as_mut() {
            observer(&wave);
        }
        Ok(wave)
    }

    /// Fold one wave's per-reaction observations into the cumulative
    /// profile table: fired counts from the wave's stats, guard/token
    /// counters drained from the live join network (sequential Rete or
    /// sharded slices), timing from the wave's accumulator.
    fn absorb_profiles(&mut self, wave_stats: &ExecStats, prof: &ProfTimes) {
        for (r, &fired) in wave_stats.firings_per_reaction.iter().enumerate() {
            if let Some(row) = self.profiles.rows.get_mut(r) {
                row.fired += fired;
            }
        }
        let counters = match &mut self.state {
            State::Seq {
                matcher: SeqMatcher::Rete(n),
                ..
            } => Some(n.take_reaction_counters()),
            State::Par(st) => st.take_reaction_counters(),
            State::Seq { .. } => None,
        };
        if let Some(counters) = counters {
            for (r, c) in counters.into_iter().enumerate() {
                if let Some(row) = self.profiles.rows.get_mut(r) {
                    row.guard_evals += c.guard_evals;
                    row.guard_rejects += c.guard_rejects;
                    row.peak_beta_tokens = row.peak_beta_tokens.max(c.peak_tokens);
                }
            }
        }
        for (r, (m, a)) in prof.match_ns.iter().zip(&prof.action_ns).enumerate() {
            if let Some(row) = self.profiles.rows.get_mut(r) {
                row.match_ns += m;
                row.action_ns += a;
            }
        }
    }

    /// Profile-driven tiering, at wave boundaries only: every reaction
    /// still on the baseline compile whose cumulative `fired +
    /// guard_evals` crossed [`EngineConfig::vm_tier_threshold`]
    /// re-compiles with the optimising pass. Because no wave is in
    /// flight and both tiers evaluate identically (see [`crate::vm`]),
    /// determinism, traces, and final multisets are untouched.
    fn maybe_tier_up(&mut self) {
        if self.config.guard_eval != GuardEvalMode::Vm || self.config.vm_tier_threshold == u64::MAX
        {
            return;
        }
        let threshold = self.config.vm_tier_threshold;
        let mut upgraded: Vec<(usize, String, u64, u64)> = Vec::new();
        for (r, cr) in self.compiled.reactions.iter_mut().enumerate() {
            let Some(row) = self.profiles.rows.get(r) else {
                continue;
            };
            if cr.vm_tier() == crate::vm::Tier::Baseline
                && row.fired + row.guard_evals >= threshold
                && cr.vm_tier_up()
            {
                upgraded.push((r, cr.name.clone(), row.fired, row.guard_evals));
            }
        }
        self.tier_ups += upgraded.len() as u64;
        if self.config.telemetry.enabled() {
            for (reaction, name, fired, guard_evals) in upgraded {
                self.emit(TraceEvent::TierUp {
                    reaction,
                    name,
                    fired,
                    guard_evals,
                });
            }
        }
    }

    /// Lifetime count of baseline → optimised VM re-compiles across the
    /// session (each [`TraceEvent::TierUp`] event corresponds to one).
    pub fn vm_tier_ups(&self) -> u64 {
        self.tier_ups
    }

    /// Per-reaction VM tiers, in reaction order (for tests and tools;
    /// the metrics export carries the same as a gauge).
    pub fn vm_tiers(&self) -> Vec<crate::vm::Tier> {
        self.compiled
            .reactions
            .iter()
            .map(|r| r.vm_tier())
            .collect()
    }

    /// Emit the wave-aggregate matcher event — sequential-Rete spill
    /// activity — as a delta against the lifetime counter already
    /// reported.
    fn emit_wave_aggregates(&mut self) {
        let spill = self.seen_spill;
        self.rebase_wave_aggregates();
        let demotions = self.seen_spill - spill;
        if demotions > 0 {
            self.emit(TraceEvent::SpillActivity { demotions });
        }
    }

    /// Consume the session: the final multiset, the last wave's status,
    /// and the cumulative counters across all waves (including the
    /// network totals under `rete`).
    pub fn finish(self) -> ExecResult {
        let rete = self.rete_stats();
        ExecResult {
            multiset: match self.state {
                State::Seq { multiset, .. } => multiset,
                State::Par(st) => st.into_bag(),
            },
            status: self.last_status,
            stats: self.stats,
            trace: self.trace,
            rete,
        }
    }

    /// Like [`Session::finish`], additionally reporting the parallel
    /// engine counters. For a sequential session they are all zero.
    pub fn finish_parallel(self) -> ParResult {
        let par = self.par_stats();
        let exec = self.finish();
        ParResult { exec, par }
    }

    /// The cumulative parallel-engine counters so far: wave-level
    /// counters plus the persistent slices' lifetime spill/peak figures.
    pub fn par_stats(&self) -> ParStats {
        let mut par = self.par.clone();
        if let State::Par(st) = &self.state {
            st.fold_lifetime_stats(&mut par);
        }
        par
    }

    /// The cumulative Rete network counters, when a Rete-backed engine is
    /// live (sequential Rete scheduling only; the parallel slices fold
    /// into [`Session::par_stats`]).
    pub fn rete_stats(&self) -> Option<ReteStats> {
        match &self.state {
            State::Seq {
                matcher: SeqMatcher::Rete(n),
                ..
            } => Some(n.stats.clone()),
            _ => None,
        }
    }

    /// The cumulative per-reaction execution profiles (see
    /// [`crate::telemetry`]): firings, guard evaluations/rejects, peak
    /// beta tokens, and — when [`SessionBuilder::profile`] is on —
    /// match/action wall-clock totals.
    pub fn profile(&self) -> &ProfileTable {
        &self.profiles
    }

    /// Export the session's cumulative counters — execution totals,
    /// per-reaction profiles, and the live engine's scheduler/network/
    /// parallel figures — as a [`MetricsRegistry`], renderable as JSON
    /// ([`MetricsRegistry::to_json`]) or Prometheus text exposition
    /// ([`MetricsRegistry::to_prometheus`]).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("gamma_waves_total", &[], self.waves_run);
        reg.counter("gamma_firings_total", &[], self.stats.firings_total());
        reg.counter("gamma_elements_consumed_total", &[], self.stats.consumed);
        reg.counter("gamma_elements_produced_total", &[], self.stats.produced);
        reg.gauge("gamma_bag_len", &[], self.bag_len() as f64);
        reg.counter("gamma_vm_tier_ups_total", &[], self.tier_ups);
        // Element-arena census. The arena is process-global (ids must be
        // meaningful across every engine and worker), so these gauges
        // describe the process, not this session alone.
        let arena = gammaflow_multiset::arena_stats();
        reg.gauge("gamma_arena_slots", &[], arena.slots as f64);
        reg.gauge("gamma_arena_bytes", &[], arena.bytes as f64);
        reg.counter("gamma_arena_hits_total", &[], arena.hits);
        for (r, row) in self.profiles.rows.iter().enumerate() {
            let labels: &[(&str, &str)] = &[("reaction", row.name.as_str())];
            if let Some(cr) = self.compiled.reactions.get(r) {
                // 0 = baseline, 1 = optimised — a step gauge so a scrape
                // series shows exactly when each reaction tiered up.
                let tier = match cr.vm_tier() {
                    crate::vm::Tier::Baseline => 0.0,
                    crate::vm::Tier::Optimized => 1.0,
                };
                reg.gauge("gamma_reaction_vm_tier", labels, tier);
            }
            reg.counter("gamma_reaction_fired_total", labels, row.fired);
            reg.counter("gamma_reaction_guard_evals_total", labels, row.guard_evals);
            reg.counter(
                "gamma_reaction_guard_rejects_total",
                labels,
                row.guard_rejects,
            );
            reg.counter("gamma_reaction_match_ns_total", labels, row.match_ns);
            reg.counter("gamma_reaction_action_ns_total", labels, row.action_ns);
            reg.gauge(
                "gamma_reaction_peak_beta_tokens",
                labels,
                row.peak_beta_tokens as f64,
            );
        }
        if matches!(self.config.engine, Engine::Parallel(_)) {
            let par = self.par_stats();
            reg.counter("gamma_par_claim_failures_total", &[], par.claim_failures);
            reg.counter(
                "gamma_par_deltas_published_total",
                &[],
                par.deltas_published,
            );
            reg.counter(
                "gamma_par_deltas_processed_total",
                &[],
                par.deltas_processed,
            );
            reg.counter("gamma_par_workers_lost_total", &[], par.workers_lost);
            reg.counter("gamma_par_waves_replayed_total", &[], par.waves_replayed);
            reg.counter("gamma_par_degraded_waves_total", &[], par.degraded_waves);
        }
        if let Some(r) = self.rete_stats() {
            reg.counter("gamma_rete_tokens_created_total", &[], r.tokens_created);
            reg.counter("gamma_rete_guard_rejects_total", &[], r.guard_rejects);
            reg.counter("gamma_rete_spill_demotions_total", &[], r.spill_demotions);
            reg.gauge(
                "gamma_rete_peak_live_tokens",
                &[],
                r.peak_live_tokens as f64,
            );
        }
        reg
    }

    /// Capture everything needed to resurrect this session in another
    /// process: configuration, the live multiset, the key directory,
    /// wave/trace counters, cumulative stats, and the selection-RNG
    /// position. Serialize the result with serde, persist it, and hand
    /// it to [`Session::restore`] later.
    ///
    /// The matcher state itself (Rete memories, shard slices) is *not*
    /// serialized — it is a pure function of the multiset and is rebuilt
    /// exactly on restore, which is both smaller on the wire and immune
    /// to pointer-shaped state going stale.
    /// Subsequent waves of a restored session reach finals
    /// byte-identical to the uninterrupted run's (the durability test
    /// matrix asserts this for every scheduler × engine combination),
    /// and a deterministic session's firing trace is identical too; a
    /// seeded one's order may differ ([`SessionSnapshot::rng`]). A
    /// snapshot taken *mid* wave — after a budget pause — still resumes
    /// to the same stable final, but the remaining firings may come in
    /// a different confluence-equivalent order: serialization
    /// canonicalizes the bag's insertion order, which is what a mid-wave
    /// deterministic pick keys on.
    pub fn snapshot_state(&self) -> SessionSnapshot {
        let (bag, directory) = match &self.state {
            State::Seq { multiset, .. } => (multiset.clone(), Vec::new()),
            State::Par(st) => (st.snapshot(), st.directory_export()),
        };
        if self.config.telemetry.enabled() {
            self.emit(TraceEvent::SnapshotTaken {
                waves_run: self.waves_run,
                bag_len: bag.len() as u64,
            });
        }
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            reactions: self.compiled.reactions.len(),
            config: self.config.clone(),
            bag,
            directory,
            waves_run: self.waves_run,
            last_status: self.last_status,
            stats: self.stats.clone(),
            par: self.par_stats(),
            trace: self.trace.clone(),
            rng: self.rng.as_ref().map(|r| r.state()),
            rete: self.rete_stats(),
            profiles: self.profiles.clone(),
        }
    }

    /// Resurrect a session from a [`SessionSnapshot`] of `program`: the
    /// matcher state (Rete network / per-worker slices and sharded bag)
    /// is rebuilt from the snapshot's multiset, the key directory is
    /// preloaded, counters and the selection-RNG
    /// position are restored, and the cumulative budget picks up where
    /// it left off. Fails with [`ExecError::Snapshot`] when the snapshot
    /// version or the program's reaction count does not match.
    pub fn restore(
        program: &GammaProgram,
        snapshot: SessionSnapshot,
    ) -> Result<Session, ExecError> {
        let compiled = CompiledProgram::compile(program)?;
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(ExecError::Snapshot(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            )));
        }
        let nreactions = compiled.reactions.len();
        if snapshot.reactions != nreactions {
            return Err(ExecError::Snapshot(format!(
                "snapshot was taken of a {}-reaction program, this program has {nreactions}",
                snapshot.reactions
            )));
        }
        // Matcher state is a pure function of the bag, so a fresh build
        // over the snapshot's multiset reproduces it exactly. VM tiers
        // restart at baseline and re-tier at the next wave boundary off
        // the restored profile counts: tier is a pure performance state,
        // never behaviour, so the resumed run stays byte-identical to the
        // uninterrupted one.
        let mut session = Session::assemble(compiled, snapshot.config, snapshot.bag);
        if let (Some(rng), Some(state)) = (session.rng.as_mut(), snapshot.rng) {
            *rng = ChaCha8Rng::from_state(state);
        }
        match &mut session.state {
            State::Seq { matcher, .. } => match matcher {
                SeqMatcher::Rescan { .. } => {}
                SeqMatcher::Rete(n) => {
                    if let Some(stats) = snapshot.rete {
                        n.stats = stats;
                    }
                }
            },
            State::Par(st) => st.directory_preload(&snapshot.directory),
        }
        session.rebase_wave_aggregates();
        session.stats = snapshot.stats;
        session.trace = snapshot.trace;
        session.par = snapshot.par;
        session.last_status = snapshot.last_status;
        session.waves_run = snapshot.waves_run;
        session.profiles = snapshot.profiles;
        if session.config.telemetry.enabled() {
            session.emit(TraceEvent::SessionRestored {
                waves_run: session.waves_run,
                bag_len: session.bag_len() as u64,
            });
        }
        session.emit_build_events();
        Ok(session)
    }
}

/// One-line engine descriptor for `WaveStart` events, e.g.
/// `seq/rete` or `parallel/sharded-rete/4`.
fn engine_desc(config: &EngineConfig) -> String {
    match config.engine {
        Engine::Seq => match config.scheduling {
            Scheduling::Rescan => "seq/rescan".to_string(),
            Scheduling::Rete => "seq/rete".to_string(),
        },
        Engine::Parallel(ParEngine::ShardedRete) => {
            format!("parallel/sharded-rete/{}", config.workers)
        }
        Engine::Parallel(ParEngine::ProbeRetry) => {
            format!("parallel/probe-retry/{}", config.workers)
        }
    }
}

/// Current [`SessionSnapshot`] format version; bumped whenever the
/// snapshot shape changes incompatibly.
///
/// History: v1 had no `profiles` field; v2 added the per-reaction
/// profile table; v3 marks the interned-arena storage era — the bag
/// still serializes as portable `(element, count)` rows (arena ids
/// never reach the wire; payloads are re-interned on restore), but a
/// v3 bag's row order is the live-content insertion order the
/// columnar buckets maintain, which restored deterministic waves key
/// on. Pre-arena snapshots are rejected rather than silently replayed
/// with a potentially different firing order. The shape has since only
/// lost parts, within v3: a `sched` key (the counters of the deleted
/// `Delta` scheduler) is ignored on load, and a config naming `Delta`
/// fails to deserialise.
pub const SNAPSHOT_VERSION: u32 = 3;

/// A serializable point-in-time capture of a [`Session`], produced by
/// [`Session::snapshot_state`] and consumed by [`Session::restore`]. See
/// `snapshot_state` for what is (and deliberately is not) included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// Reaction count of the captured program (restore-time validation).
    pub reactions: usize,
    /// The full engine configuration, including the remaining-budget
    /// arithmetic inputs (`max_steps` is cumulative; subtract
    /// [`ExecStats::firings_total`] of `stats` for the remainder).
    pub config: EngineConfig,
    /// The live multiset at capture time.
    pub bag: ElementBag,
    /// The parallel engines' key directory (every `(label, tag)` pair
    /// ever seen), empty for sequential sessions.
    pub directory: Vec<(Symbol, Vec<Tag>)>,
    /// Completed waves (also the seed input for parallel wave seeds, so
    /// restored waves draw the same per-worker streams).
    pub waves_run: u64,
    /// Status of the most recent wave.
    pub last_status: Status,
    /// Cumulative execution counters across all captured waves.
    pub stats: ExecStats,
    /// Cumulative parallel-engine counters (zero for sequential runs).
    pub par: ParStats,
    /// The firing trace so far, when trace recording is on.
    pub trace: Option<Vec<FiringRecord>>,
    /// Selection-RNG position (sequential seeded sessions): restored
    /// waves continue the same stream. Seeded candidate draws index the
    /// bag's physical bucket rows, dead rows included, and restore
    /// compacts them away, so a restored seeded session continues
    /// confluence-equivalently — the same stable final through a
    /// possibly different order — as Rete's rebuilt lanes already do.
    pub rng: Option<[u64; 4]>,
    /// Cumulative join-network counters, when Rete scheduling ran.
    pub rete: Option<ReteStats>,
    /// Cumulative per-reaction execution profiles (see
    /// [`crate::telemetry`]).
    pub profiles: ProfileTable,
}

/// One sequential wave — the executable reading of Eq. (1): *if no
/// reaction is enabled return M, else pick, apply, recurse*. The two
/// schedulers differ only in how [`SeqMatcher::next_firing`] finds the
/// pick; the loop around them exists once.
///
/// Maximal-parallel stepping (`steps` is `Some`) is a mode of the same
/// loop: consumed tuples leave the multiset at once, products are
/// withheld until no further disjoint tuple is enabled, and that barrier
/// ends the step.
struct SeqWave<'a> {
    compiled: &'a CompiledProgram,
    multiset: &'a mut ElementBag,
    matcher: &'a mut SeqMatcher,
    rng: Option<&'a mut ChaCha8Rng>,
    scratch: &'a mut SearchScratch,
    /// Firings allowed this wave (the session's cumulative budget minus
    /// what previous waves spent).
    budget: u64,
    /// Global step offset for trace records (the trace numbers firings
    /// continuously across waves).
    step_base: u64,
    trace: Option<&'a mut Vec<FiringRecord>>,
    prof: &'a mut ProfTimes,
    /// The session's main-thread event stream, for `Firing` events.
    ctl: &'a WaveCtl<'a>,
    /// Wave index stamped on emitted records.
    wave: u64,
    /// Per-step firing counts out; `Some` selects maximal-parallel mode.
    steps: Option<&'a mut Vec<usize>>,
}

impl SeqWave<'_> {
    fn run(mut self) -> Result<(ExecStats, Status), ExecError> {
        let mut stats = ExecStats::new(self.compiled.reactions.len());
        let mut fired = 0u64;
        // Maximal-parallel mode only: this step's withheld products and
        // firing count.
        let mut withheld: Vec<Element> = Vec::new();
        let mut fired_this_step = 0usize;
        let status = loop {
            let exhausted = fired >= self.budget;
            let m0 = self.prof.begin();
            let next = if exhausted {
                None
            } else {
                self.matcher.next_firing(
                    self.compiled,
                    self.multiset,
                    self.rng.as_deref_mut(),
                    self.scratch,
                )?
            };
            let Some(firing) = next else {
                // Step barrier: products become visible and reach the
                // matcher; a step that fired nothing is the fixpoint.
                if fired_this_step > 0 {
                    if let Some(steps) = self.steps.as_deref_mut() {
                        steps.push(fired_this_step);
                    }
                    fired_this_step = 0;
                    for e in &withheld {
                        self.multiset.insert(e.clone());
                    }
                    self.matcher
                        .on_inserted(self.compiled, self.multiset, &withheld);
                    withheld.clear();
                    if !exhausted {
                        continue;
                    }
                }
                break if exhausted {
                    Status::BudgetExhausted
                } else {
                    Status::Stable
                };
            };
            let a0 = self.prof.begin();
            let ok = self.multiset.remove_all(&firing.consumed);
            debug_assert!(ok, "matched elements must be present");
            if self.steps.is_some() {
                self.matcher
                    .on_removed(self.compiled, self.multiset, &firing);
                withheld.extend(firing.produced.iter().cloned());
                fired_this_step += 1;
            } else {
                for e in &firing.produced {
                    self.multiset.insert(e.clone());
                }
                self.matcher.on_fired(self.compiled, self.multiset, &firing);
            }
            let match_ns = self.prof.note(firing.reaction, m0, a0);
            stats.record_firing(firing.reaction, &firing);
            self.record(&firing, fired, match_ns);
            fired += 1;
        };

        // A drained Rete network replaced the drain-time rescan as the
        // stability proof; debug builds still cross-check it against the
        // exact search.
        #[cfg(debug_assertions)]
        if status == Status::Stable && matches!(self.matcher, SeqMatcher::Rete(_)) {
            let order: Vec<usize> = (0..self.compiled.reactions.len()).collect();
            let confirm = self
                .compiled
                .find_any_fast(&order, self.multiset, None, self.scratch)?;
            debug_assert!(
                confirm.is_none(),
                "rete network drained while a reaction was enabled"
            );
        }
        Ok((stats, status))
    }

    /// Append `firing` to the trace and the telemetry stream.
    fn record(&mut self, firing: &Firing, fired: u64, match_ns: u64) {
        let name = &self.compiled.reactions[firing.reaction].name;
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(FiringRecord::from_firing(
                self.step_base + fired,
                name,
                firing,
            ));
        }
        if self.ctl.tel.enabled() {
            self.ctl
                .emit(self.wave, firing_event(name, firing, match_ns));
        }
    }
}

/// One sequential, exact wave over a plain bag — the parallel engines'
/// [`OnExhausted::DegradeToSeq`](crate::parallel::OnExhausted) fallback,
/// run on the same loop as every sequential session (deterministic
/// rescanning). The confluence of terminating Gamma programs (the same
/// argument the cross-engine equivalence suite leans on) is what makes
/// the degraded wave land on the same stable multiset. Its firings are
/// emitted on the session thread, which keeps per-reaction conservation
/// in the trace across recovery.
pub(crate) fn seq_fallback_wave(
    compiled: &CompiledProgram,
    bag: &mut ElementBag,
    budget: u64,
    wave: u64,
    ctl: &WaveCtl<'_>,
) -> Result<(ExecStats, Status), ExecError> {
    let nreactions = compiled.reactions.len();
    SeqWave {
        compiled,
        multiset: bag,
        matcher: &mut SeqMatcher::Rescan {
            order: (0..nreactions).collect(),
        },
        rng: None,
        scratch: &mut SearchScratch::new(),
        budget,
        step_base: 0,
        trace: None,
        prof: &mut ProfTimes::new(false, nreactions),
        ctl,
        wave,
        steps: None,
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::spec::{ElementSpec, Pattern, ReactionSpec};
    use gammaflow_multiset::value::{BinOp, CmpOp};
    use gammaflow_multiset::Element;

    fn e(v: i64, l: &str) -> Element {
        Element::pair(v, l)
    }

    fn min_program() -> GammaProgram {
        GammaProgram::new(vec![ReactionSpec::new("min")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::var("y")))
            .by(vec![ElementSpec::pair(Expr::var("x"), "n")])])
    }

    fn sum_program() -> GammaProgram {
        GammaProgram::new(vec![ReactionSpec::new("sum")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "n",
            )])])
    }

    #[test]
    fn waves_keep_reducing_to_the_running_minimum() {
        let initial: ElementBag = [9, 4, 7].into_iter().map(|v| e(v, "n")).collect();
        let mut session = Session::build(&min_program()).start(initial).unwrap();
        let w1 = session.run_to_stable().unwrap();
        assert_eq!(w1.status, Status::Stable);
        assert_eq!(session.snapshot().sorted_elements(), vec![e(4, "n")]);

        assert!(session.inject([e(2, "n"), e(11, "n")]).is_accepted());
        let w2 = session.run_to_stable().unwrap();
        assert_eq!(w2.status, Status::Stable);
        assert_eq!(session.snapshot().sorted_elements(), vec![e(2, "n")]);

        // Injecting only larger values: one more comparison removes them.
        assert!(session.inject([e(5, "n")]).is_accepted());
        let w3 = session.run_to_stable().unwrap();
        assert_eq!(w3.fired, 1);
        let result = session.finish();
        assert_eq!(result.multiset.sorted_elements(), vec![e(2, "n")]);
        assert_eq!(result.stats.firings_total(), w1.fired + w2.fired + w3.fired);
    }

    #[test]
    fn budget_spans_waves() {
        let diverge = GammaProgram::new(vec![ReactionSpec::new("inc")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
                "n",
            )])]);
        let initial: ElementBag = [e(0, "n")].into_iter().collect();
        let mut session = Session::build(&diverge).budget(10).start(initial).unwrap();
        let w1 = session.run_to_stable().unwrap();
        assert_eq!(w1.status, Status::BudgetExhausted);
        assert_eq!(w1.fired, 10);
        // The budget is cumulative: a later wave gets nothing.
        assert!(session.inject([e(100, "n")]).is_accepted());
        let w2 = session.run_to_stable().unwrap();
        assert_eq!(w2.status, Status::BudgetExhausted);
        assert_eq!(w2.fired, 0);
    }

    #[test]
    fn drain_stable_resets_the_matcher() {
        for (engine, scheduling) in [
            (Engine::Seq, Scheduling::Rescan),
            (Engine::Seq, Scheduling::Rete),
            (Engine::Parallel(ParEngine::ShardedRete), Scheduling::Rete),
            (Engine::Parallel(ParEngine::ProbeRetry), Scheduling::Rete),
        ] {
            let initial: ElementBag = (1..=6).map(|v| e(v, "n")).collect();
            let mut session = Session::build(&sum_program())
                .engine(engine)
                .workers(2)
                .scheduling(scheduling)
                .start(initial)
                .unwrap();
            session.run_to_stable().unwrap();
            let drained = session.drain_stable();
            assert_eq!(drained.sorted_elements(), vec![e(21, "n")]);
            assert!(session.snapshot().is_empty());
            assert_eq!(session.bag_len(), 0, "{engine:?}");
            // The emptied session accepts fresh input.
            assert!(session.inject([e(1, "n"), e(2, "n")]).is_accepted());
            let wave = session.run_to_stable().unwrap();
            assert_eq!(wave.status, Status::Stable, "{engine:?} {scheduling:?}");
            assert_eq!(wave.fired, 1, "{engine:?} {scheduling:?}");
            assert_eq!(
                session.finish().multiset.sorted_elements(),
                vec![e(3, "n")],
                "{engine:?} {scheduling:?}"
            );
        }
    }

    #[test]
    fn observer_sees_every_wave() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let fired = Arc::new(AtomicU64::new(0));
        let waves = Arc::new(AtomicU64::new(0));
        let (f2, w2) = (fired.clone(), waves.clone());
        let initial: ElementBag = (1..=4).map(|v| e(v, "n")).collect();
        let mut session = Session::build(&sum_program())
            .observer(Box::new(move |wave| {
                f2.fetch_add(wave.fired, Ordering::Relaxed);
                w2.fetch_add(1, Ordering::Relaxed);
            }))
            .start(initial)
            .unwrap();
        session.run_to_stable().unwrap();
        assert!(session.inject([e(5, "n")]).is_accepted());
        session.run_to_stable().unwrap();
        let total = session.finish().stats.firings_total();
        assert_eq!(waves.load(Ordering::Relaxed), 2);
        assert_eq!(fired.load(Ordering::Relaxed), total);
    }

    #[test]
    fn parallel_session_runs_waves() {
        let initial: ElementBag = (1..=40).map(|v| e(v, "n")).collect();
        let mut session = Session::build(&sum_program())
            .engine(Engine::Parallel(ParEngine::ShardedRete))
            .workers(3)
            .start(initial)
            .unwrap();
        let w1 = session.run_to_stable().unwrap();
        assert_eq!(w1.status, Status::Stable);
        assert_eq!(session.snapshot().sorted_elements(), vec![e(820, "n")]);
        assert!(session.inject((41..=50).map(|v| e(v, "n"))).is_accepted());
        let w2 = session.run_to_stable().unwrap();
        assert_eq!(w2.status, Status::Stable);
        let result = session.finish_parallel();
        assert_eq!(result.exec.multiset.sorted_elements(), vec![e(1275, "n")]);
        assert_eq!(result.exec.stats.firings_total(), 49);
        assert_eq!(result.par.deltas_published, 49);
    }

    #[test]
    fn empty_injection_is_a_noop_wave() {
        let initial: ElementBag = [e(3, "n"), e(1, "n")].into_iter().collect();
        let mut session = Session::build(&min_program()).start(initial).unwrap();
        session.run_to_stable().unwrap();
        assert!(session.inject(std::iter::empty()).is_accepted());
        let wave = session.run_to_stable().unwrap();
        assert_eq!(wave.fired, 0);
        assert_eq!(wave.status, Status::Stable);
    }
}
