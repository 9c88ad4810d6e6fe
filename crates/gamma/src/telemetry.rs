//! Structured tracing, per-reaction profiles, and metrics export.
//!
//! The paper's Gamma↔dataflow equivalence is an argument about *where
//! work happens* — which reactions fire, which tokens match, which
//! workers carry which dependency components — yet the coarse counter
//! structs ([`ExecStats`](crate::trace::ExecStats), [`ParStats`](crate::parallel::ParStats),
//! [`ReteStats`](crate::rete::ReteStats))
//! only report totals. This module makes the execution observable at the
//! granularity the equivalence is stated at, in three layers:
//!
//! 1. **Structured event tracing** — a [`TraceSink`] threaded through
//!    [`EngineConfig`](crate::session::EngineConfig) receives typed
//!    [`TraceEvent`]s wrapped in a [`TraceRecord`] envelope: wave
//!    start/end, every firing (reaction, consumed/produced labels, match
//!    latency), matcher phases (network build, spill activity),
//!    parallel-engine events (per-worker delta publish/process,
//!    quarantine/replay, degrade-to-seq), and session lifecycle
//!    (inject, snapshot, restore, plan explanation). Each record carries a
//!    worker tag and a worker-local monotonic sequence number, so parallel
//!    timelines interleave deterministically enough to diff: sort by
//!    `(worker, wseq)` and each worker's subsequence is reproducible.
//!    Ships with a JSONL file sink (installed automatically when
//!    `GAMMAFLOW_TRACE=path` is set) and an in-memory [`RingSink`] for
//!    tests. When no sink is installed, every emission site folds to a
//!    single branch on a cached bool — no formatting, no allocation.
//!
//! 2. **Per-reaction profiles** — a [`ProfileTable`] of
//!    [`ReactionProfile`] rows (fired count, guard evaluations/rejects,
//!    cumulative match/action nanoseconds, peak beta tokens), accumulated
//!    per wave, absorbed across waves and
//!    [`Session::snapshot_state`](crate::session::Session::snapshot_state)/
//!    [`Session::restore`](crate::session::Session::restore) cycles. This
//!    is the input shape the ROADMAP's VM tiering and shard-rebalancing
//!    cost models consume. Wall-clock timing is opt-in
//!    ([`SessionBuilder::profile`](crate::session::SessionBuilder::profile));
//!    counter columns are always maintained.
//!
//! 3. **Metrics export** — a [`MetricsRegistry`] rendering the profile
//!    table and the engine counter structs as JSON or Prometheus-style
//!    text ([`Session::metrics`](crate::session::Session::metrics)), plus
//!    the `gamma-inspect` binary in `crates/bench` that pretty-prints a
//!    JSONL trace into a per-worker timeline and a top-N reactions table.
//!
//! Events deliberately carry **no wall-clock timestamps**: a
//! deterministic-selection sequential run emits a byte-identical JSONL
//! trace on every run (the observability test suite asserts this), which
//! makes traces diffable artifacts rather than one-off logs. The only
//! wall-clock field, `Firing::match_ns`, stays zero unless profiling is
//! switched on.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Worker tag for events emitted by the driving (sequential) thread
/// rather than a parallel worker.
pub const MAIN_WORKER: i64 = -1;

/// One typed telemetry event. Variants map one-to-one onto the engine
/// layers that emit them (the event-taxonomy table in `ARCHITECTURE.md`
/// lists the mapping).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A wave began ([`Session::run_to_stable`](crate::session::Session::run_to_stable)).
    WaveStart {
        /// Wave index (`Session::waves_run` at entry).
        wave: u64,
        /// Engine description, e.g. `"seq/rete"` or `"parallel/sharded-rete"`.
        engine: String,
    },
    /// A wave completed.
    WaveEnd {
        /// Wave index.
        wave: u64,
        /// Firings this wave.
        fired: u64,
        /// Terminal status (`"Stable"` or `"BudgetExhausted"`).
        status: String,
    },
    /// One committed firing. Emitted by the sequential wave loops, both
    /// parallel worker loops, and the degraded-wave sequential fallback.
    Firing {
        /// Reaction index.
        reaction: usize,
        /// Reaction name.
        name: String,
        /// Labels of the consumed elements.
        consumed: Vec<String>,
        /// Labels of the produced elements.
        produced: Vec<String>,
        /// Match latency in nanoseconds; zero unless profiling is on.
        match_ns: u64,
    },
    /// A reaction's compiled join-order plan, emitted once per reaction
    /// at session build — the event-stream form of the
    /// `GAMMAFLOW_EXPLAIN_PLAN` debug print.
    PlanExplained {
        /// Reaction index.
        reaction: usize,
        /// Reaction name.
        name: String,
        /// The rendered plan (join order, pushed guards, disjunction).
        plan: String,
    },
    /// The Rete join network (or the per-worker slices) finished
    /// building, at session start or snapshot restore.
    ReteBuilt {
        /// Reactions compiled into the network.
        reactions: usize,
        /// Network slices built (1 for the sequential network).
        slices: usize,
        /// Beta tokens materialised by the initial build, summed over
        /// slices.
        tokens: u64,
    },
    /// Wave-aggregate spill activity of the sequential Rete network
    /// (emitted only when nonzero; sharded slice spills are reported
    /// through [`ParStats`](crate::parallel::ParStats)).
    SpillActivity {
        /// Join levels demoted to virtual this wave.
        demotions: u64,
    },
    /// A sharded worker published a just-claimed firing's net delta to
    /// the addressed mailboxes.
    DeltaPublished {
        /// Reaction whose firing produced the delta.
        reaction: usize,
        /// Worker mailboxes the delta was addressed to.
        addressed: u64,
    },
    /// A sharded worker drained one delta message into its slice.
    DeltaProcessed {
        /// 1-based worker-local count of received deltas.
        nth: u64,
    },
    /// A parallel wave attempt lost workers and was quarantined: the
    /// entry multiset restored, slices rebuilt, dirty flags re-armed.
    WaveQuarantined {
        /// Wave index.
        wave: u64,
        /// The failed attempt number (0 = first attempt).
        attempt: u32,
        /// Workers lost in the attempt.
        workers_lost: u64,
    },
    /// A quarantined wave is being replayed from its entry multiset.
    WaveReplayed {
        /// Wave index.
        wave: u64,
        /// The replay attempt number about to run (1-based).
        attempt: u32,
    },
    /// The replay budget ran out and the wave was completed by the
    /// sequential fallback
    /// ([`OnExhausted::DegradeToSeq`](crate::parallel::OnExhausted::DegradeToSeq)).
    DegradedToSeq {
        /// Wave index.
        wave: u64,
    },
    /// [`Session::inject`](crate::session::Session::inject) admitted (and
    /// possibly spilled) elements against the bag budget.
    Injected {
        /// Elements admitted into the live multiset.
        admitted: u64,
        /// Elements rejected by backpressure (the
        /// [`InjectOutcome::Spilled`](crate::session::InjectOutcome::Spilled)
        /// overflow).
        spilled: u64,
    },
    /// [`Session::snapshot_state`](crate::session::Session::snapshot_state)
    /// captured the session.
    SnapshotTaken {
        /// Completed waves at capture time.
        waves_run: u64,
        /// Live multiset size at capture time.
        bag_len: u64,
    },
    /// [`Session::restore`](crate::session::Session::restore) resurrected
    /// a session from a snapshot.
    SessionRestored {
        /// Completed waves carried over from the snapshot.
        waves_run: u64,
        /// Live multiset size after restore.
        bag_len: u64,
    },
    /// [`Session::drain_stable`](crate::session::Session::drain_stable)
    /// moved the multiset out (pipeline chaining).
    Drained {
        /// Elements drained.
        bag_len: u64,
    },
    /// A reaction crossed the profile-driven tiering threshold and
    /// re-compiled its guard/action bytecode with the optimising pass,
    /// at a wave boundary (see [`crate::vm`]). Purely a performance
    /// transition: traces and finals are identical at every tier.
    TierUp {
        /// Reaction index.
        reaction: usize,
        /// Reaction name.
        name: String,
        /// Cumulative fired count at the transition.
        fired: u64,
        /// Cumulative guard evaluations at the transition.
        guard_evals: u64,
    },
    /// An armed fault point tripped (`fault-inject` feature; see
    /// [`crate::fault`]).
    FaultTripped {
        /// Fault kind: `"worker_panic"`, `"mailbox_drop"`,
        /// `"mailbox_delay"`, or `"pause_mid_wave"`.
        kind: String,
        /// Worker the fault targeted ([`MAIN_WORKER`] for wave-level
        /// faults).
        worker: i64,
        /// The worker-local event count the fault tripped at.
        at: u64,
    },
}

/// The envelope every emitted [`TraceEvent`] is wrapped in: a global
/// emission sequence number, the emitting worker, the worker-local
/// monotonic sequence number, and the wave index. Global `seq` orders a
/// single-threaded run totally; `(worker, wseq)` orders each parallel
/// worker's timeline reproducibly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global emission sequence (allocation order at the sink).
    pub seq: u64,
    /// Emitting worker, or [`MAIN_WORKER`] for the driving thread.
    pub worker: i64,
    /// Worker-local monotonic sequence number.
    pub wseq: u64,
    /// Wave index the event belongs to.
    pub wave: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Short lowercase kind tag of the payload (for timeline rendering
    /// and event-count summaries).
    pub fn kind(&self) -> &'static str {
        match &self.event {
            TraceEvent::WaveStart { .. } => "wave_start",
            TraceEvent::WaveEnd { .. } => "wave_end",
            TraceEvent::Firing { .. } => "firing",
            TraceEvent::PlanExplained { .. } => "plan_explained",
            TraceEvent::ReteBuilt { .. } => "rete_built",
            TraceEvent::SpillActivity { .. } => "spill_activity",
            TraceEvent::DeltaPublished { .. } => "delta_published",
            TraceEvent::DeltaProcessed { .. } => "delta_processed",
            TraceEvent::WaveQuarantined { .. } => "wave_quarantined",
            TraceEvent::WaveReplayed { .. } => "wave_replayed",
            TraceEvent::DegradedToSeq { .. } => "degraded_to_seq",
            TraceEvent::Injected { .. } => "injected",
            TraceEvent::SnapshotTaken { .. } => "snapshot_taken",
            TraceEvent::SessionRestored { .. } => "session_restored",
            TraceEvent::Drained { .. } => "drained",
            TraceEvent::TierUp { .. } => "tier_up",
            TraceEvent::FaultTripped { .. } => "fault_tripped",
        }
    }
}

/// Build a [`TraceEvent::Firing`] payload from a committed firing —
/// factored out because four engine loops (both sequential schedulers,
/// both parallel workers, and the degraded-wave fallback) emit it.
pub(crate) fn firing_event(
    name: &str,
    firing: &crate::compiled::Firing,
    match_ns: u64,
) -> TraceEvent {
    TraceEvent::Firing {
        reaction: firing.reaction,
        name: name.to_string(),
        consumed: firing
            .consumed
            .iter()
            .map(|e| e.label.as_str().to_string())
            .collect(),
        produced: firing
            .produced
            .iter()
            .map(|e| e.label.as_str().to_string())
            .collect(),
        match_ns,
    }
}

/// A telemetry event consumer. Implementations must be cheap and
/// thread-safe: parallel workers call [`TraceSink::record`] concurrently
/// from inside their firing loops.
pub trait TraceSink: Send + Sync {
    /// Consume one record. Called only when tracing is enabled, so the
    /// implementation may lock/allocate freely.
    fn record(&self, record: &TraceRecord);

    /// Flush buffered output (no-op by default).
    fn flush(&self) {}
}

/// Shared emission state behind an enabled [`Telemetry`] handle.
struct TelemetryShared {
    sink: Arc<dyn TraceSink>,
    seq: AtomicU64,
}

/// The cloneable telemetry handle threaded through
/// [`EngineConfig`](crate::session::EngineConfig). Disabled by default;
/// every instrumentation site guards on [`Telemetry::enabled`] — a cached
/// bool — before constructing an event, so the disabled path costs one
/// predictable branch and nothing else.
///
/// The handle serializes as `null` (a sink is a live I/O resource, not
/// state) and deserializes as disabled, so snapshots of traced sessions
/// restore cleanly; [`Session::restore`](crate::session::Session::restore)
/// re-installs a sink from `GAMMAFLOW_TRACE` when the variable is set in
/// the restoring process.
#[derive(Clone)]
pub struct Telemetry {
    enabled: bool,
    shared: Option<Arc<TelemetryShared>>,
}

impl Telemetry {
    /// The inert handle: every [`Telemetry::enabled`] check is `false`
    /// and [`Telemetry::emit`] is unreachable behind it.
    pub fn disabled() -> Telemetry {
        Telemetry {
            enabled: false,
            shared: None,
        }
    }

    /// A handle emitting to `sink`.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> Telemetry {
        Telemetry {
            enabled: true,
            shared: Some(Arc::new(TelemetryShared {
                sink,
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// A handle writing JSONL to the path in the `GAMMAFLOW_TRACE`
    /// environment variable, or disabled when the variable is unset or
    /// the file cannot be created (tracing must never take the engine
    /// down).
    ///
    /// All sessions of the process share one sink per path: the file is
    /// truncated on its first open only, so a program building several
    /// sessions appends their streams instead of each build wiping the
    /// last. (Each handle still numbers its own `seq` from zero.)
    pub fn from_env() -> Telemetry {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static SINKS: OnceLock<Mutex<HashMap<String, Arc<JsonlSink>>>> = OnceLock::new();
        match std::env::var("GAMMAFLOW_TRACE") {
            Ok(path) if !path.is_empty() => {
                let mut sinks = SINKS
                    .get_or_init(|| Mutex::new(HashMap::new()))
                    .lock()
                    .expect("trace sink registry poisoned");
                if let Some(sink) = sinks.get(&path) {
                    return Telemetry::to_sink(sink.clone());
                }
                match JsonlSink::create(&path) {
                    Ok(sink) => {
                        let sink = Arc::new(sink);
                        sinks.insert(path, sink.clone());
                        Telemetry::to_sink(sink)
                    }
                    Err(e) => {
                        eprintln!("GAMMAFLOW_TRACE: cannot create {path}: {e}");
                        Telemetry::disabled()
                    }
                }
            }
            _ => Telemetry::disabled(),
        }
    }

    /// Whether a sink is installed. Instrumentation sites branch on this
    /// before building an event, so the disabled path allocates and
    /// formats nothing.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emit `event` as worker `worker`'s `wseq`-th event of `wave`.
    /// Callers guard with [`Telemetry::enabled`]; emitting through a
    /// disabled handle is a no-op.
    pub fn emit(&self, worker: i64, wseq: u64, wave: u64, event: TraceEvent) {
        if let Some(shared) = &self.shared {
            let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
            shared.sink.record(&TraceRecord {
                seq,
                worker,
                wseq,
                wave,
                event,
            });
        }
    }

    /// Flush the underlying sink, if any.
    pub fn flush(&self) {
        if let Some(shared) = &self.shared {
            shared.sink.flush();
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

// A sink is a live I/O resource: serialize as null, deserialize as
// disabled. This keeps `EngineConfig` (and therefore `SessionSnapshot`)
// fully serde-round-trippable whether or not tracing was on.
impl Serialize for Telemetry {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for Telemetry {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let _ = deserializer.take_content()?;
        Ok(Telemetry::disabled())
    }
}

/// A bounded in-memory sink for tests: keeps the most recent `capacity`
/// records behind a mutex. Hold an `Arc<RingSink>` next to the handle
/// passed to the session and read the records back afterwards.
pub struct RingSink {
    capacity: usize,
    dropped: AtomicU64,
    buf: parking_lot::Mutex<VecDeque<TraceRecord>>,
}

impl RingSink {
    /// A ring holding at most `capacity` records (older records are
    /// dropped first).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            buf: parking_lot::Mutex::new(VecDeque::new()),
        }
    }

    /// A copy of the retained records, in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drop every retained record (and reset the eviction counter).
    pub fn clear(&self) {
        self.buf.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl TraceSink for RingSink {
    fn record(&self, record: &TraceRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record.clone());
    }
}

/// A JSONL file sink: one [`TraceRecord`] per line, buffered, flushed on
/// drop. Installed automatically by the session when `GAMMAFLOW_TRACE`
/// names a path; `gamma-inspect` (in `crates/bench`) renders the file.
pub struct JsonlSink {
    out: parking_lot::Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: parking_lot::Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, record: &TraceRecord) {
        if let Ok(line) = serde_json::to_string(record) {
            let mut out = self.out.lock();
            let _ = writeln!(out, "{line}");
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

/// One reaction's cumulative execution profile — the row shape the
/// ROADMAP's VM-tiering and shard-rebalancing cost models consume.
/// Guard and token columns are maintained by the Rete-backed matchers
/// (the rescanning scheduler evaluates guards inside the search core
/// and reports zeros); timing columns fill only under
/// [`SessionBuilder::profile`](crate::session::SessionBuilder::profile).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactionProfile {
    /// Reaction name.
    pub name: String,
    /// Committed firings.
    pub fired: u64,
    /// Guard conjunct evaluations during join-network token building.
    pub guard_evals: u64,
    /// Guard evaluations that rejected the candidate token.
    pub guard_rejects: u64,
    /// Cumulative nanoseconds spent finding this reaction's matches.
    /// Zero unless profiling is on; collected by the sequential wave
    /// loops only (parallel workers skip wall-clock timing to keep their
    /// firing hot path free of `Instant` calls).
    pub match_ns: u64,
    /// Cumulative nanoseconds spent applying this reaction's firings
    /// (zero unless profiling is on; sequential wave loops only, like
    /// [`ReactionProfile::match_ns`]).
    pub action_ns: u64,
    /// Peak live beta tokens attributable to this reaction (summed
    /// across worker slices for the sharded engine).
    pub peak_beta_tokens: u64,
}

/// The per-reaction profile table, indexed by reaction. Accumulated per
/// wave, absorbed across waves, serialized inside
/// [`SessionSnapshot`](crate::session::SessionSnapshot) so profiles
/// survive process restarts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileTable {
    /// One row per reaction, in reaction-index order.
    pub rows: Vec<ReactionProfile>,
}

impl ProfileTable {
    /// An all-zero table naming `names` in order.
    pub fn new<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> ProfileTable {
        ProfileTable {
            rows: names
                .into_iter()
                .map(|n| ReactionProfile {
                    name: n.as_ref().to_string(),
                    ..ReactionProfile::default()
                })
                .collect(),
        }
    }

    /// Total committed firings across all rows.
    pub fn fired_total(&self) -> u64 {
        self.rows.iter().map(|r| r.fired).sum()
    }

    /// Merge `other` into `self` row by row: counters and timing add,
    /// peaks take the maximum, names fill in when missing. Used when
    /// aggregating tables across sessions; within one session the wave
    /// loop accumulates column-wise.
    pub fn absorb(&mut self, other: &ProfileTable) {
        if self.rows.len() < other.rows.len() {
            self.rows
                .resize(other.rows.len(), ReactionProfile::default());
        }
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            // Exhaustive destructuring: adding a profile column without
            // deciding its merge rule is a compile error here.
            let ReactionProfile {
                name,
                fired,
                guard_evals,
                guard_rejects,
                match_ns,
                action_ns,
                peak_beta_tokens,
            } = theirs;
            if mine.name.is_empty() {
                mine.name = name.clone();
            }
            mine.fired += fired;
            mine.guard_evals += guard_evals;
            mine.guard_rejects += guard_rejects;
            mine.match_ns += match_ns;
            mine.action_ns += action_ns;
            mine.peak_beta_tokens = mine.peak_beta_tokens.max(*peak_beta_tokens);
        }
    }

    /// Row indices sorted by fired count, descending, truncated to `n`
    /// (ties broken by reaction index for determinism).
    pub fn top_by_fired(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.rows.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(self.rows[i].fired), i));
        idx.truncate(n);
        idx
    }
}

/// Per-wave match/action timing accumulator, threaded through the wave
/// loops. Inert (no `Instant::now` calls, no per-firing arithmetic)
/// unless profiling was requested.
#[derive(Debug, Default)]
pub(crate) struct ProfTimes {
    enabled: bool,
    /// Cumulative match nanoseconds per reaction.
    pub match_ns: Vec<u64>,
    /// Cumulative action nanoseconds per reaction.
    pub action_ns: Vec<u64>,
}

impl ProfTimes {
    pub(crate) fn new(enabled: bool, nreactions: usize) -> ProfTimes {
        ProfTimes {
            enabled,
            match_ns: vec![0; if enabled { nreactions } else { 0 }],
            action_ns: vec![0; if enabled { nreactions } else { 0 }],
        }
    }

    /// A timestamp, or `None` when profiling is off.
    #[inline]
    pub(crate) fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Record a firing of `reaction` whose match started at `t_match`
    /// and whose apply started at `t_apply`; returns the match
    /// nanoseconds (for the [`TraceEvent::Firing`] payload).
    #[inline]
    pub(crate) fn note(
        &mut self,
        reaction: usize,
        t_match: Option<Instant>,
        t_apply: Option<Instant>,
    ) -> u64 {
        let (Some(m), Some(a)) = (t_match, t_apply) else {
            return 0;
        };
        let match_ns = a.duration_since(m).as_nanos() as u64;
        self.match_ns[reaction] += match_ns;
        self.action_ns[reaction] += a.elapsed().as_nanos() as u64;
        match_ns
    }
}

/// Metric kind, for the Prometheus `# TYPE` comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
}

/// One exported metric sample: a name, optional `(key, value)` labels,
/// and a numeric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (already namespaced, e.g. `gamma_reaction_fired_total`).
    pub name: String,
    /// Label pairs, rendered `{key="value"}`.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// Counter or gauge.
    pub kind: MetricKind,
}

/// A flat registry of metric samples, rendered as JSON or
/// Prometheus-style text. Built by
/// [`Session::metrics`](crate::session::Session::metrics) from the
/// profile table and the engine counter structs; usable standalone for
/// custom exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// The samples, in insertion order.
    pub metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Append a counter sample.
    pub fn counter(
        &mut self,
        name: impl Into<String>,
        labels: &[(&str, &str)],
        value: u64,
    ) -> &mut Self {
        self.push(name, labels, value as f64, MetricKind::Counter)
    }

    /// Append a gauge sample.
    pub fn gauge(
        &mut self,
        name: impl Into<String>,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        self.push(name, labels, value, MetricKind::Gauge)
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        labels: &[(&str, &str)],
        value: f64,
        kind: MetricKind,
    ) -> &mut Self {
        self.metrics.push(Metric {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
            kind,
        });
        self
    }

    /// Absorb every sample of `other`, appending `extra` label pairs to
    /// each — the aggregation primitive a multi-session service uses to
    /// merge per-session registries into one scrape page keyed by
    /// tenant: `service.absorb_labeled(&session.metrics(), &[("tenant",
    /// id)])`.
    pub fn absorb_labeled(&mut self, other: &MetricsRegistry, extra: &[(&str, &str)]) {
        for m in &other.metrics {
            let mut labels = m.labels.clone();
            labels.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
            self.metrics.push(Metric {
                name: m.name.clone(),
                labels,
                value: m.value,
                kind: m.kind,
            });
        }
    }

    /// Render as a JSON array of `{name, labels, value, kind}` objects.
    pub fn to_json(&self) -> String {
        use serde::Content;
        let items: Vec<Content> = self
            .metrics
            .iter()
            .map(|m| {
                Content::Map(vec![
                    ("name".to_string(), Content::Str(m.name.clone())),
                    (
                        "labels".to_string(),
                        Content::Map(
                            m.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Content::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                    ("value".to_string(), Content::F64(m.value)),
                    (
                        "kind".to_string(),
                        Content::Str(
                            match m.kind {
                                MetricKind::Counter => "counter",
                                MetricKind::Gauge => "gauge",
                            }
                            .to_string(),
                        ),
                    ),
                ])
            })
            .collect();
        serde_json::to_string_pretty(&Content::Seq(items)).unwrap_or_else(|_| "[]".to_string())
    }

    /// Render as Prometheus-style exposition text: one `# TYPE` comment
    /// per metric name (first occurrence), then `name{labels} value`
    /// lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !typed.contains(&m.name.as_str()) {
                typed.push(&m.name);
                let kind = match m.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", m.name));
            }
            out.push_str(&m.name);
            if !m.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in m.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{k}={:?}", v));
                }
                out.push('}');
            }
            out.push_str(&format!(" {}\n", m.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_emits_nothing_and_costs_one_branch() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        // Emitting through a disabled handle is a no-op, not a panic.
        tel.emit(MAIN_WORKER, 0, 0, TraceEvent::Drained { bag_len: 0 });
        tel.flush();
    }

    #[test]
    fn ring_sink_keeps_the_newest_records() {
        let ring = Arc::new(RingSink::new(3));
        let tel = Telemetry::to_sink(ring.clone());
        assert!(tel.enabled());
        for i in 0..5 {
            tel.emit(MAIN_WORKER, i, 0, TraceEvent::Drained { bag_len: i });
        }
        let records = ring.records();
        assert_eq!(records.len(), 3);
        assert_eq!(ring.dropped(), 2);
        // Newest three survive, with globally increasing seq.
        assert_eq!(records[0].wseq, 2);
        assert_eq!(records[2].wseq, 4);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        ring.clear();
        assert!(ring.records().is_empty());
    }

    #[test]
    fn trace_records_roundtrip_through_json() {
        let original = TraceRecord {
            seq: 7,
            worker: 2,
            wseq: 3,
            wave: 1,
            event: TraceEvent::Firing {
                reaction: 0,
                name: "sum".to_string(),
                consumed: vec!["n".to_string(), "n".to_string()],
                produced: vec!["n".to_string()],
                match_ns: 0,
            },
        };
        let line = serde_json::to_string(&original).unwrap();
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, original);
        assert_eq!(back.kind(), "firing");
        // Older traces carry a `stolen` flag on every firing; unknown
        // keys are ignored, so those lines still read.
        let old = line.replace("\"match_ns\":0", "\"match_ns\":0,\"stolen\":true");
        assert_ne!(old, line);
        let back: TraceRecord = serde_json::from_str(&old).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn telemetry_serializes_as_null_and_restores_disabled() {
        let ring = Arc::new(RingSink::new(8));
        let tel = Telemetry::to_sink(ring);
        let json = serde_json::to_string(&tel).unwrap();
        assert_eq!(json, "null");
        let back: Telemetry = serde_json::from_str(&json).unwrap();
        assert!(!back.enabled());
    }

    #[test]
    fn profile_table_absorb_adds_counts_and_maxes_peaks() {
        let mut a = ProfileTable::new(["r0", "r1"]);
        a.rows[0].fired = 3;
        a.rows[0].peak_beta_tokens = 10;
        let mut b = ProfileTable::new(["r0", "r1"]);
        b.rows[0] = ReactionProfile {
            name: "r0".to_string(),
            fired: 2,
            guard_evals: 5,
            guard_rejects: 1,
            match_ns: 100,
            action_ns: 50,
            peak_beta_tokens: 7,
        };
        b.rows[1].fired = 9;
        a.absorb(&b);
        assert_eq!(a.rows[0].fired, 5);
        assert_eq!(a.rows[0].guard_evals, 5);
        assert_eq!(a.rows[0].guard_rejects, 1);
        assert_eq!(a.rows[0].match_ns, 100);
        assert_eq!(a.rows[0].action_ns, 50);
        assert_eq!(a.rows[0].peak_beta_tokens, 10);
        assert_eq!(a.rows[1].fired, 9);
        assert_eq!(a.fired_total(), 14);
        assert_eq!(a.top_by_fired(1), vec![1]);
    }

    #[test]
    fn profile_table_serde_roundtrips() {
        let mut t = ProfileTable::new(["a"]);
        t.rows[0].fired = 42;
        t.rows[0].guard_rejects = 7;
        let json = serde_json::to_string(&t).unwrap();
        let back: ProfileTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn metrics_render_prometheus_and_json() {
        let mut reg = MetricsRegistry::new();
        reg.counter("gamma_firings_total", &[], 99)
            .counter("gamma_reaction_fired_total", &[("reaction", "sum")], 42)
            .gauge("gamma_bag_len", &[], 3.0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE gamma_firings_total counter"));
        assert!(text.contains("gamma_firings_total 99"));
        assert!(text.contains("gamma_reaction_fired_total{reaction=\"sum\"} 42"));
        assert!(text.contains("# TYPE gamma_bag_len gauge"));
        let json = reg.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        match parsed {
            serde::Content::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn prof_times_disabled_is_inert() {
        let mut p = ProfTimes::new(false, 4);
        assert!(p.begin().is_none());
        assert_eq!(p.note(0, None, None), 0);
        assert!(p.match_ns.is_empty());
    }

    #[test]
    fn prof_times_enabled_accumulates() {
        let mut p = ProfTimes::new(true, 2);
        let m = p.begin();
        let a = p.begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.note(1, m, a);
        assert!(p.action_ns[1] > 0);
    }
}
