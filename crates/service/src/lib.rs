//! `gammad` — a multi-tenant session service.
//!
//! [`gammaflow_gamma::Session`] is the per-stream unit of execution:
//! build-once matcher state, incremental input waves, snapshot/restore,
//! and injection backpressure. This crate multiplexes *thousands* of
//! them — one per tenant/stream — over shared process resources:
//!
//! * **One parked-worker pool.** A parallel-engine wave of two or more
//!   workers leases them from the process-wide [`WorkerPool`] instead of
//!   spawning threads per wave, which is what makes thousands of
//!   concurrent small-wave sessions viable (see harness step S10). A
//!   one-worker wave leases nothing: it runs on the driver thread that
//!   called [`ServiceRuntime::run_next_wave`].
//! * **A tenant registry with fair wave scheduling.** Injects enqueue
//!   their tenant on a FIFO ready queue; any number of driver threads
//!   call [`ServiceRuntime::run_next_wave`] and each runs exactly one
//!   tenant's wave to stability. FIFO ordering means a chatty tenant
//!   cannot starve a quiet one — each ready tenant gets one wave per
//!   pass.
//! * **Per-tenant bag budgets as backpressure.** Injection beyond a
//!   tenant's budget comes back as [`InjectOutcome::Spilled`]; the
//!   caller queues, sheds, or retries after a draining wave. The
//!   semantics callers rely on are pinned by the session layer:
//!   admission is measured against the *live bag* only, regardless of
//!   the session's last wave status.
//! * **Idle eviction with transparent restore.** An idle session can be
//!   evicted to a [`SessionSnapshot`] (configuration, multiset, RNG
//!   position, counters); the next inject restores it in place and the
//!   stream continues byte-identically — the composition soundness is
//!   the Generalized Kahn Principle: independently progressing
//!   stream-connected engines interleave without changing any one
//!   stream's semantics.
//! * **Aggregated observability.** [`ServiceRuntime::metrics`] merges
//!   every session's registry into one scrape page keyed by `tenant`,
//!   and a shared JSONL trace file tags each record with its tenant so
//!   interleaved traces stay diffable per stream (`gamma-inspect
//!   --tenant`).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use gammaflow_gamma::spec::GammaProgram;
use gammaflow_gamma::{
    EngineConfig, ExecError, ExecResult, InjectOutcome, MetricsRegistry, Session, SessionSnapshot,
    Status, Telemetry, TraceRecord, TraceSink, Wave, WaveDispatch, WorkerPool,
};
use gammaflow_multiset::{Element, ElementBag, FxHashMap};

/// Service-level configuration.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Default per-tenant bag budget applied when a tenant's
    /// [`EngineConfig::bag_budget`] is unlimited. Unlimited by default.
    pub default_bag_budget: u64,
    /// Path of the multiplexed tenant-tagged JSONL trace file. `None`
    /// (default) disables service-side tracing; tenants may still carry
    /// their own sinks.
    pub trace_path: Option<String>,
    /// Wave dispatch applied to every tenant session's multi-worker
    /// waves: [`WaveDispatch::default`] leases from the process-wide
    /// parked pool.
    pub dispatch: WaveDispatch,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            default_bag_budget: u64::MAX,
            trace_path: None,
            dispatch: WaveDispatch::default(),
        }
    }
}

/// Errors surfaced by [`ServiceRuntime`] operations.
#[derive(Debug)]
pub enum ServiceError {
    /// The tenant id is not registered.
    UnknownTenant(String),
    /// The tenant id is already registered.
    DuplicateTenant(String),
    /// A session operation failed (compile error, runtime action
    /// failure, snapshot mismatch). The tenant's session is unusable;
    /// deregister it.
    Exec(ExecError),
    /// The service trace file could not be created.
    Trace(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServiceError::DuplicateTenant(t) => write!(f, "tenant {t:?} already registered"),
            ServiceError::Exec(e) => write!(f, "session error: {e}"),
            ServiceError::Trace(e) => write!(f, "service trace sink: {e}"),
        }
    }
}
impl std::error::Error for ServiceError {}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

/// The record returned by [`ServiceRuntime::run_next_wave`].
#[derive(Debug)]
pub struct WaveReport {
    /// Which tenant's wave ran.
    pub tenant: String,
    /// The wave record ([`Wave::status`] is
    /// [`Status::BudgetExhausted`] when the tenant needs a budget grant
    /// to continue; the tenant is *not* requeued in that case).
    pub wave: Wave,
}

/// A tenant session, resident or evicted.
enum SlotState {
    Resident(Box<Session>),
    /// Evicted to a snapshot; restored transparently on the next
    /// inject (or on [`ServiceRuntime::finish`]).
    Evicted(Box<SessionSnapshot>),
    /// Transient marker while ownership moves between states.
    Poisoned,
}

struct TenantSlot {
    program: GammaProgram,
    state: SlotState,
    /// Guards against double-queueing on the ready list.
    queued: bool,
    /// Service tick of the last inject/wave touching this tenant.
    last_active: u64,
    evictions: u64,
    restores: u64,
    /// Elements bounced by the bag budget across all injects.
    spilled_total: u64,
}

impl TenantSlot {
    /// Make the slot resident, restoring from its snapshot if needed,
    /// and return the live session.
    fn session(&mut self, dispatch: &WaveDispatch) -> Result<&mut Session, ServiceError> {
        if let SlotState::Evicted(_) = self.state {
            let SlotState::Evicted(snap) = std::mem::replace(&mut self.state, SlotState::Poisoned)
            else {
                unreachable!()
            };
            let mut session = Session::restore(&self.program, *snap)?;
            // Dispatch is process-local and never snapshotted; re-apply
            // the service's choice.
            session.set_wave_dispatch(dispatch.clone());
            self.state = SlotState::Resident(Box::new(session));
            self.restores += 1;
        }
        match &mut self.state {
            SlotState::Resident(s) => Ok(s),
            SlotState::Evicted(_) | SlotState::Poisoned => {
                unreachable!("slot made resident above")
            }
        }
    }
}

/// A shared line-oriented JSONL writer for the multiplexed trace file.
struct SharedJsonl {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl SharedJsonl {
    fn create(path: &str) -> Result<SharedJsonl, ServiceError> {
        let file = std::fs::File::create(path)
            .map_err(|e| ServiceError::Trace(format!("cannot create {path}: {e}")))?;
        Ok(SharedJsonl {
            out: Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    fn line(&self, s: &str) {
        let mut out = self.out.lock().expect("trace writer poisoned");
        let _ = writeln!(out, "{s}");
    }

    fn flush(&self) {
        let mut out = self.out.lock().expect("trace writer poisoned");
        let _ = out.flush();
    }
}

/// A [`TraceSink`] that prefixes every record with its tenant id and
/// appends it to the shared service trace file. The splice keeps each
/// line parseable as a plain [`TraceRecord`] (unknown keys are ignored
/// on deserialize), so existing tooling reads a multiplexed file
/// unchanged and `gamma-inspect --tenant` filters it per stream.
struct TenantSink {
    /// The tenant id pre-serialized as a JSON string literal.
    tenant_json: String,
    out: Arc<SharedJsonl>,
}

impl TraceSink for TenantSink {
    fn record(&self, record: &TraceRecord) {
        let Ok(line) = serde_json::to_string(record) else {
            return;
        };
        debug_assert!(line.starts_with('{'));
        let body = &line[1..];
        let mut s = String::with_capacity(line.len() + self.tenant_json.len() + 12);
        s.push_str("{\"tenant\":");
        s.push_str(&self.tenant_json);
        if body != "}" {
            s.push(',');
        }
        s.push_str(body);
        self.out.line(&s);
    }

    fn flush(&self) {
        self.out.flush();
    }
}

/// The multi-tenant session service: tenant registry, inject API, fair
/// wave scheduling, eviction, and aggregated observability. All methods
/// take `&self`; the runtime is `Sync` and any number of threads may
/// inject and drive waves concurrently (distinct tenants proceed in
/// parallel; one tenant's operations serialize on its slot).
pub struct ServiceRuntime {
    config: ServiceConfig,
    tenants: RwLock<FxHashMap<String, Arc<Mutex<TenantSlot>>>>,
    /// FIFO of tenants with admitted-but-unprocessed input.
    ready: Mutex<VecDeque<String>>,
    /// Monotonic operation counter; idle-ness is measured in ticks.
    tick: AtomicU64,
    /// Cumulative waves run across all tenants.
    waves_total: AtomicU64,
    /// Cumulative injects across all tenants.
    injects_total: AtomicU64,
    trace: Option<Arc<SharedJsonl>>,
}

impl ServiceRuntime {
    /// A service with the given configuration. Fails only when the
    /// configured trace file cannot be created.
    pub fn new(config: ServiceConfig) -> Result<ServiceRuntime, ServiceError> {
        let trace = match &config.trace_path {
            Some(path) => Some(Arc::new(SharedJsonl::create(path)?)),
            None => None,
        };
        Ok(ServiceRuntime {
            config,
            tenants: RwLock::new(FxHashMap::default()),
            ready: Mutex::new(VecDeque::new()),
            tick: AtomicU64::new(0),
            waves_total: AtomicU64::new(0),
            injects_total: AtomicU64::new(0),
            trace,
        })
    }

    /// A service with default configuration.
    pub fn with_defaults() -> ServiceRuntime {
        ServiceRuntime::new(ServiceConfig::default()).expect("no trace file to fail on")
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    fn slot(&self, tenant: &str) -> Result<Arc<Mutex<TenantSlot>>, ServiceError> {
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }

    /// Register `tenant` running `program` over `initial`, with
    /// `config` shaping its engine. The service applies its default bag
    /// budget (when the config leaves it unlimited), the shared wave
    /// dispatch, and — when a trace path is configured — a
    /// tenant-tagging sink.
    ///
    /// A tenant with initial work is immediately ready.
    pub fn register(
        &self,
        tenant: &str,
        program: &GammaProgram,
        mut config: EngineConfig,
        initial: ElementBag,
    ) -> Result<(), ServiceError> {
        if config.bag_budget == u64::MAX {
            config.bag_budget = self.config.default_bag_budget;
        }
        if let Some(out) = &self.trace {
            config.telemetry = Telemetry::to_sink(Arc::new(TenantSink {
                tenant_json: serde_json::to_string(&tenant.to_string())
                    .unwrap_or_else(|_| "\"?\"".to_string()),
                out: out.clone(),
            }));
        }
        let has_work = !initial.is_empty();
        let session = Session::build(program)
            .config(config)
            .wave_dispatch(self.config.dispatch.clone())
            .start(initial)?;
        let slot = TenantSlot {
            program: program.clone(),
            state: SlotState::Resident(Box::new(session)),
            queued: false,
            last_active: self.next_tick(),
            evictions: 0,
            restores: 0,
            spilled_total: 0,
        };
        {
            let mut tenants = self.tenants.write().expect("tenant registry poisoned");
            if tenants.contains_key(tenant) {
                return Err(ServiceError::DuplicateTenant(tenant.to_string()));
            }
            tenants.insert(tenant.to_string(), Arc::new(Mutex::new(slot)));
        }
        if has_work {
            self.enqueue_locked_slot(tenant, &self.slot(tenant)?);
        }
        Ok(())
    }

    /// Mark a tenant ready, coalescing duplicates via its `queued` flag.
    fn enqueue_locked_slot(&self, tenant: &str, slot: &Arc<Mutex<TenantSlot>>) {
        let mut guard = slot.lock().expect("tenant slot poisoned");
        if !guard.queued {
            guard.queued = true;
            drop(guard);
            self.ready
                .lock()
                .expect("ready queue poisoned")
                .push_back(tenant.to_string());
        }
    }

    /// Inject elements into `tenant`'s stream. An evicted tenant is
    /// restored transparently first. Admission is bounded by the
    /// tenant's bag budget; the overflow comes back as
    /// [`InjectOutcome::Spilled`] — backpressure the caller must queue,
    /// shed, or retry after [`ServiceRuntime::run_next_wave`] drains the
    /// tenant's bag.
    pub fn inject(
        &self,
        tenant: &str,
        elements: impl IntoIterator<Item = Element>,
    ) -> Result<InjectOutcome, ServiceError> {
        let slot = self.slot(tenant)?;
        let tick = self.next_tick();
        self.injects_total.fetch_add(1, Ordering::Relaxed);
        let (outcome, admitted_work) = {
            let mut guard = slot.lock().expect("tenant slot poisoned");
            guard.last_active = tick;
            let session = guard.session(&self.config.dispatch)?;
            let outcome = session.inject(elements);
            let has_bag = session.bag_len() > 0;
            if let InjectOutcome::Spilled(sp) = &outcome {
                guard.spilled_total += sp.len() as u64;
            }
            (outcome, has_bag)
        };
        if admitted_work {
            self.enqueue_locked_slot(tenant, &slot);
        }
        Ok(outcome)
    }

    /// Grant extra firing budget to a tenant whose wave returned
    /// [`Status::BudgetExhausted`], and requeue it for another wave.
    pub fn grant_budget(&self, tenant: &str, extra: u64) -> Result<(), ServiceError> {
        let slot = self.slot(tenant)?;
        {
            let mut guard = slot.lock().expect("tenant slot poisoned");
            let session = guard.session(&self.config.dispatch)?;
            session.grant_budget(extra);
        }
        self.enqueue_locked_slot(tenant, &slot);
        Ok(())
    }

    /// Run one wave for the tenant at the head of the ready queue, or
    /// return `None` when no tenant is ready. FIFO order is the
    /// fairness policy: a tenant re-injected during its own wave goes to
    /// the back of the queue.
    ///
    /// Any number of threads may call this concurrently; each wave runs
    /// under its tenant's slot lock, so one tenant's waves serialize
    /// while distinct tenants' waves overlap.
    pub fn run_next_wave(&self) -> Result<Option<WaveReport>, ServiceError> {
        let tenant = {
            let mut ready = self.ready.lock().expect("ready queue poisoned");
            match ready.pop_front() {
                Some(t) => t,
                None => return Ok(None),
            }
        };
        // Deregistered while queued: skip to the next ready tenant.
        let slot = match self.slot(&tenant) {
            Ok(s) => s,
            Err(ServiceError::UnknownTenant(_)) => return self.run_next_wave(),
            Err(e) => return Err(e),
        };
        let tick = self.next_tick();
        let mut guard = slot.lock().expect("tenant slot poisoned");
        // Clear before running: an inject landing mid-wave requeues the
        // tenant rather than being lost.
        guard.queued = false;
        guard.last_active = tick;
        let session = guard.session(&self.config.dispatch)?;
        let wave = session.run_to_stable()?;
        self.waves_total.fetch_add(1, Ordering::Relaxed);
        Ok(Some(WaveReport { tenant, wave }))
    }

    /// Drive waves until the ready queue drains, returning how many
    /// waves ran. Budget-exhausted tenants are left unqueued (grant and
    /// requeue via [`ServiceRuntime::grant_budget`]).
    pub fn drive_until_quiet(&self) -> Result<u64, ServiceError> {
        let mut waves = 0;
        while self.run_next_wave()?.is_some() {
            waves += 1;
        }
        Ok(waves)
    }

    /// Evict `tenant` to a snapshot, dropping its live matcher state.
    /// Returns `false` (and does nothing) when the tenant is already
    /// evicted or has queued work — evicting a ready session would only
    /// force an immediate restore.
    pub fn evict(&self, tenant: &str) -> Result<bool, ServiceError> {
        let slot = self.slot(tenant)?;
        let mut guard = slot.lock().expect("tenant slot poisoned");
        if guard.queued {
            return Ok(false);
        }
        match &guard.state {
            SlotState::Resident(session) => {
                let snap = session.snapshot_state();
                guard.state = SlotState::Evicted(Box::new(snap));
                guard.evictions += 1;
                Ok(true)
            }
            SlotState::Evicted(_) => Ok(false),
            SlotState::Poisoned => unreachable!("poisoned only transiently under the slot lock"),
        }
    }

    /// Evict every resident tenant idle for at least `min_idle_ticks`
    /// service operations. Returns how many were evicted.
    pub fn evict_idle(&self, min_idle_ticks: u64) -> Result<usize, ServiceError> {
        let now = self.tick.load(Ordering::Relaxed);
        let ids: Vec<String> = {
            let tenants = self.tenants.read().expect("tenant registry poisoned");
            tenants.keys().cloned().collect()
        };
        let mut evicted = 0;
        for id in ids {
            let Ok(slot) = self.slot(&id) else { continue };
            let idle = {
                let guard = slot.lock().expect("tenant slot poisoned");
                !guard.queued && now.saturating_sub(guard.last_active) >= min_idle_ticks
            };
            if idle && self.evict(&id)? {
                evicted += 1;
            }
        }
        Ok(evicted)
    }

    /// Take `tenant`'s entire stable multiset, leaving its bag empty —
    /// the downstream hand-off that frees bag budget mid-backpressure.
    /// The tenant stays registered with its matcher state intact, so a
    /// spilled batch re-injected after a drain is admitted in full.
    pub fn drain(&self, tenant: &str) -> Result<ElementBag, ServiceError> {
        let slot = self.slot(tenant)?;
        let tick = self.next_tick();
        let mut guard = slot.lock().expect("tenant slot poisoned");
        guard.last_active = tick;
        Ok(guard.session(&self.config.dispatch)?.drain_stable())
    }

    /// A copy of `tenant`'s current multiset (restoring it first if
    /// evicted).
    pub fn snapshot(&self, tenant: &str) -> Result<ElementBag, ServiceError> {
        let slot = self.slot(tenant)?;
        let mut guard = slot.lock().expect("tenant slot poisoned");
        Ok(guard.session(&self.config.dispatch)?.snapshot())
    }

    /// `tenant`'s last wave status.
    pub fn status(&self, tenant: &str) -> Result<Status, ServiceError> {
        let slot = self.slot(tenant)?;
        let mut guard = slot.lock().expect("tenant slot poisoned");
        Ok(guard.session(&self.config.dispatch)?.status())
    }

    /// Deregister `tenant` and return its final execution result
    /// (restoring first when evicted).
    pub fn finish(&self, tenant: &str) -> Result<ExecResult, ServiceError> {
        let slot = {
            let mut tenants = self.tenants.write().expect("tenant registry poisoned");
            tenants
                .remove(tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?
        };
        let mut guard = slot.lock().expect("tenant slot poisoned");
        guard.session(&self.config.dispatch)?;
        let state = std::mem::replace(&mut guard.state, SlotState::Poisoned);
        match state {
            SlotState::Resident(session) => Ok(session.finish()),
            SlotState::Evicted(_) | SlotState::Poisoned => {
                unreachable!("made resident above")
            }
        }
    }

    /// Registered tenant count `(resident, evicted)`.
    pub fn census(&self) -> (usize, usize) {
        let tenants = self.tenants.read().expect("tenant registry poisoned");
        let mut resident = 0;
        let mut evicted = 0;
        for slot in tenants.values() {
            match slot.lock().expect("tenant slot poisoned").state {
                SlotState::Resident(_) => resident += 1,
                SlotState::Evicted(_) => evicted += 1,
                SlotState::Poisoned => {}
            }
        }
        (resident, evicted)
    }

    /// The service-level metrics page: service gauges (tenant census,
    /// ready-queue depth, pool lease counters) plus every *resident*
    /// session's full registry with a `tenant` label — one scrape
    /// endpoint for the whole process. Evicted tenants contribute only
    /// their slot counters (their session registries are parked in the
    /// snapshot's counter fields until restore).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let (resident, evicted) = self.census();
        reg.gauge("gammad_tenants_resident", &[], resident as f64);
        reg.gauge("gammad_tenants_evicted", &[], evicted as f64);
        reg.gauge(
            "gammad_ready_queue_depth",
            &[],
            self.ready.lock().expect("ready queue poisoned").len() as f64,
        );
        reg.counter(
            "gammad_waves_total",
            &[],
            self.waves_total.load(Ordering::Relaxed),
        );
        reg.counter(
            "gammad_injects_total",
            &[],
            self.injects_total.load(Ordering::Relaxed),
        );
        let (leases, spawns) = WorkerPool::global().lease_stats();
        reg.counter("gammad_pool_leases_total", &[], leases);
        reg.counter("gammad_pool_lease_refusals_total", &[], spawns);
        reg.gauge(
            "gammad_pool_workers",
            &[],
            WorkerPool::global().size() as f64,
        );
        let tenants = self.tenants.read().expect("tenant registry poisoned");
        for (id, slot) in tenants.iter() {
            let guard = slot.lock().expect("tenant slot poisoned");
            let labels: &[(&str, &str)] = &[("tenant", id.as_str())];
            reg.counter("gammad_tenant_evictions_total", labels, guard.evictions);
            reg.counter("gammad_tenant_restores_total", labels, guard.restores);
            reg.counter(
                "gammad_tenant_spilled_elements_total",
                labels,
                guard.spilled_total,
            );
            if let SlotState::Resident(session) = &guard.state {
                reg.absorb_labeled(&session.metrics(), labels);
            }
        }
        reg
    }

    /// Flush the multiplexed trace file, if one is configured.
    pub fn flush_trace(&self) {
        if let Some(t) = &self.trace {
            t.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{ElementSpec, Expr, Pattern, ReactionSpec, Scheduling, Selection};

    fn doubler() -> GammaProgram {
        GammaProgram::new(vec![ReactionSpec::new("double")
            .replace(Pattern::pair("x", "in"))
            .by(vec![ElementSpec::pair(
                Expr::bin(
                    gammaflow_multiset::value::BinOp::Mul,
                    Expr::var("x"),
                    Expr::int(2),
                ),
                "out",
            )])])
    }

    fn elems(range: std::ops::Range<i64>) -> Vec<Element> {
        range.map(|v| Element::pair(v, "in")).collect()
    }

    #[test]
    fn register_inject_wave_finish_roundtrip() {
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        svc.register("t0", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        let outcome = svc.inject("t0", elems(0..10)).unwrap();
        assert!(outcome.is_accepted());
        let report = svc.run_next_wave().unwrap().expect("t0 is ready");
        assert_eq!(report.tenant, "t0");
        assert_eq!(report.wave.fired, 10);
        assert!(svc.run_next_wave().unwrap().is_none(), "queue drained");
        let result = svc.finish("t0").unwrap();
        assert_eq!(result.multiset.len(), 10);
        assert!(matches!(
            svc.inject("t0", elems(0..1)),
            Err(ServiceError::UnknownTenant(_))
        ));
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        svc.register("dup", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        assert!(matches!(
            svc.register("dup", &program, EngineConfig::default(), ElementBag::new()),
            Err(ServiceError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn budget_spill_backpressure_and_reinject_converge() {
        let svc = ServiceRuntime::new(ServiceConfig {
            default_bag_budget: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        let program = doubler();
        svc.register("bp", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        // 20 elements against a budget of 8: spill, run a wave, drain
        // the stable outputs downstream to free budget, retry the
        // spilled batch until everything is through.
        let mut pending = elems(0..20);
        let mut outputs = ElementBag::new();
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 10, "backpressure loop did not converge");
            pending = svc.inject("bp", pending).unwrap().spilled();
            svc.drive_until_quiet().unwrap();
            outputs.absorb(svc.drain("bp").unwrap());
        }
        svc.finish("bp").unwrap();
        assert_eq!(outputs.len(), 20);
        assert_eq!(outputs.count(&Element::pair(38, "out")), 1);
    }

    #[test]
    fn eviction_restores_transparently_mid_stream() {
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        let config = EngineConfig {
            scheduling: Scheduling::Delta,
            selection: Selection::Seeded(3),
            ..EngineConfig::default()
        };
        svc.register("ev", &program, config.clone(), ElementBag::new())
            .unwrap();
        let _ = svc.inject("ev", elems(0..5)).unwrap();
        svc.drive_until_quiet().unwrap();
        assert!(svc.evict("ev").unwrap());
        assert_eq!(svc.census(), (0, 1));
        assert!(!svc.evict("ev").unwrap(), "double-evict is a no-op");
        // The next inject restores in place; the stream continues.
        let _ = svc.inject("ev", elems(5..10)).unwrap();
        assert_eq!(svc.census(), (1, 0));
        svc.drive_until_quiet().unwrap();
        let evicted_final = svc.finish("ev").unwrap().multiset;

        // Reference: the same stream without the eviction.
        let svc2 = ServiceRuntime::with_defaults();
        svc2.register("ref", &program, config, ElementBag::new())
            .unwrap();
        let _ = svc2.inject("ref", elems(0..5)).unwrap();
        svc2.drive_until_quiet().unwrap();
        let _ = svc2.inject("ref", elems(5..10)).unwrap();
        svc2.drive_until_quiet().unwrap();
        assert_eq!(evicted_final, svc2.finish("ref").unwrap().multiset);
    }

    #[test]
    fn evict_idle_skips_ready_tenants() {
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        svc.register("idle", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        svc.register("busy", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        let _ = svc.inject("idle", elems(0..2)).unwrap();
        svc.drive_until_quiet().unwrap();
        // "busy" has queued work and must not be evicted.
        let _ = svc.inject("busy", elems(0..2)).unwrap();
        let evicted = svc.evict_idle(0).unwrap();
        assert_eq!(evicted, 1);
        assert_eq!(svc.census(), (1, 1));
        svc.drive_until_quiet().unwrap();
    }

    #[test]
    fn fifo_scheduling_is_fair_across_tenants() {
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        for i in 0..4 {
            svc.register(
                &format!("t{i}"),
                &program,
                EngineConfig::default(),
                ElementBag::new(),
            )
            .unwrap();
        }
        for i in 0..4 {
            let _ = svc.inject(&format!("t{i}"), elems(0..1)).unwrap();
        }
        let mut order = Vec::new();
        while let Some(report) = svc.run_next_wave().unwrap() {
            order.push(report.tenant);
        }
        assert_eq!(order, vec!["t0", "t1", "t2", "t3"]);
    }

    #[test]
    fn metrics_are_keyed_by_tenant() {
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        svc.register("m0", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        let _ = svc.inject("m0", elems(0..3)).unwrap();
        svc.drive_until_quiet().unwrap();
        let page = svc.metrics();
        let tenant_firings = page
            .metrics
            .iter()
            .find(|m| {
                m.name == "gamma_firings_total"
                    && m.labels.iter().any(|(k, v)| k == "tenant" && v == "m0")
            })
            .expect("per-tenant firings metric present");
        assert_eq!(tenant_firings.value, 3.0);
        assert!(page
            .metrics
            .iter()
            .any(|m| m.name == "gammad_waves_total" && m.value == 1.0));
        // Renders without panicking.
        assert!(page.to_prometheus().contains("gamma_firings_total"));
    }

    #[test]
    fn tenant_tagged_trace_lines_stay_parseable() {
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!("gammad_trace_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let svc = ServiceRuntime::new(ServiceConfig {
            trace_path: Some(path.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let program = doubler();
        svc.register("tr", &program, EngineConfig::default(), ElementBag::new())
            .unwrap();
        let _ = svc.inject("tr", elems(0..2)).unwrap();
        svc.drive_until_quiet().unwrap();
        svc.flush_trace();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(!text.trim().is_empty(), "trace file has lines");
        for line in text.lines() {
            assert!(line.starts_with("{\"tenant\":\"tr\","), "line: {line}");
            // Still a valid TraceRecord for tenant-unaware tooling.
            let rec: TraceRecord = serde_json::from_str(line).expect("line parses");
            let _ = rec;
        }
    }

    /// A tenant's one-worker wave runs inline on the driver thread, so a
    /// worker panic there unwinds on that thread. It must be caught and
    /// surface as that tenant's `WorkerLost`, after the replays have
    /// rolled back; the next tenant's wave on the same thread then runs
    /// normally. Needs the engines' fault points (`--features
    /// fault-inject`); without them the panic never trips.
    #[test]
    fn inline_worker_panic_fails_only_its_tenant() {
        use gammaflow_gamma::{Engine, Fault, FaultPlan, ParEngine, ParError};
        if !gammaflow_gamma::fault::ENABLED {
            return;
        }
        let svc = ServiceRuntime::with_defaults();
        let program = doubler();
        let one_worker = EngineConfig {
            engine: Engine::Parallel(ParEngine::ShardedRete),
            workers: 1,
            ..EngineConfig::default()
        };
        let panics = EngineConfig {
            faults: FaultPlan {
                persistent: true,
                ..FaultPlan::single(
                    0,
                    Fault::WorkerPanic {
                        worker: 0,
                        at_firing: 2,
                    },
                )
            },
            ..one_worker.clone()
        };
        svc.register("bad", &program, panics, ElementBag::new())
            .unwrap();
        svc.register("good", &program, one_worker, ElementBag::new())
            .unwrap();
        let _ = svc.inject("bad", elems(0..4)).unwrap();
        let _ = svc.inject("good", elems(10..14)).unwrap();
        let Err(err) = svc.run_next_wave() else {
            panic!("bad's wave must lose its worker");
        };
        assert!(
            matches!(
                err,
                ServiceError::Exec(ExecError::Par(ParError::WorkerLost { ref workers, replays: 2 }))
                    if *workers == vec![0]
            ),
            "got {err:?}"
        );
        let report = svc.run_next_wave().unwrap().expect("good is ready");
        assert_eq!(report.tenant, "good");
        assert_eq!(report.wave.status, Status::Stable);
        assert_eq!(report.wave.fired, 4);
        let result = svc.finish("good").unwrap();
        assert_eq!(
            result.multiset,
            (10..14).map(|v| Element::pair(2 * v, "out")).collect()
        );
    }
}
