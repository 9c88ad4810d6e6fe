//! The traced pass: where the time goes, layer by layer, measured from
//! outside the engine three ways —
//!
//! * spans around the `Session` / `ServiceRuntime` calls the end-to-end
//!   path makes ([`session_path`], [`service_path`]);
//! * the layer replay ([`crate::replay`]);
//! * counters read back through public accessors, small timed loops
//!   over single layer calls ([`crate::micro`]), and side runs of the
//!   same input on another configuration ([`side_run`]).
//!
//! Work here is fixed-size (no clock decides how much runs), so for one
//! seed the sequential engine's counters repeat exactly.

use crate::e2e::{self, RunArgs};
use crate::env::EnvBlock;
use crate::metrics::WorkloadDef;
use crate::micro;
use crate::replay::{self, Replay};
use crate::report::{self, RunReport, Sheet};
use crate::session_ops::{self as ops, EngineCounters, How, Names};
use crate::spans::Tracer;
use crate::stats::{median, percentile_sorted, sorted};
use crate::workloads::{self, Job, ServiceShape};
use gammaflow_gamma::{Engine, EngineConfig, RingSink, Scheduling, Status};
use gammaflow_multiset::{arena_stats, ArenaStats, ElementBag};
use std::sync::Arc;
use std::time::Instant;

/// Spans written verbatim to the trace file (totals cover all of them).
const TRACE_FILE_SPANS: usize = 50_000;

/// How much fixed work each stage of the traced pass does.
struct Plan {
    /// The end-to-end job (the standalone tenant job on the service).
    job: Job,
    /// What the replay runs when not `job` itself: a fresh stream
    /// (payloads no session has interned) on the streaming workloads.
    fresh_stream: Option<Job>,
    /// Ops on the session path — repeats for batch jobs, waves for
    /// streaming ones: `cold` of them first (arena deltas), then `pairs`
    /// pairs of one untraced and one traced op.
    cold: usize,
    pairs: usize,
    /// Ops per side comparison (Rescan, sharded w1, telemetry ring).
    side: usize,
    /// Whether the Rescan comparison runs (quadratic on `filter_1m`).
    rescan: bool,
}

fn plan(name: &str, args: RunArgs) -> Plan {
    let (seed, scale) = (args.seed, args.scale);
    let batch = |pairs, side, rescan| Plan {
        job: workloads::batch_job(name, seed, scale)
            .expect("every workload not streaming is a batch"),
        fresh_stream: None,
        cold: 1,
        pairs,
        side,
        rescan,
    };
    match name {
        // A repeat is ~2 s and Rescan is quadratic there.
        "filter_1m" => batch(2, 1, false),
        "stream_window" => Plan {
            job: workloads::stream_window(seed, scale, 0),
            fresh_stream: Some(truncated(workloads::stream_window(seed, scale, 1), 512)),
            cold: 256,
            pairs: 1024,
            side: 512,
            rescan: true,
        },
        "stream_longlived" => Plan {
            job: workloads::stream_longlived(seed, scale, 136),
            fresh_stream: Some(workloads::stream_longlived(
                seed.wrapping_add(1 << 32),
                scale,
                8,
            )),
            cold: 8,
            pairs: 64,
            side: 8,
            rescan: true,
        },
        "service_small_waves" => {
            let shape = ServiceShape::new(seed, scale);
            // Epochs past the ones the service path itself injects.
            Plan {
                job: shape.tenant_job(8, 0),
                fresh_stream: Some(shape.tenant_job(9, 0)),
                cold: 4,
                pairs: 14,
                side: 32,
                rescan: true,
            }
        }
        _ => batch(3, 3, true),
    }
}

impl Plan {
    fn replay_job(&self) -> &Job {
        self.fresh_stream.as_ref().unwrap_or(&self.job)
    }
}

fn truncated(mut job: Job, waves: usize) -> Job {
    job.waves.truncate(waves);
    job
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Median duration in microseconds of the spans called `name`.
fn span_median_us(t: &Tracer, name: &str) -> (f64, u64) {
    let d = t.durations_ns(name);
    (median_or_zero(&d) / 1e3, d.len() as u64)
}

// ---------------------------------------------------------------------
// (a) spans around the end-to-end path
// ---------------------------------------------------------------------

/// What the session path measured.
struct SessionPath {
    ok: bool,
    untraced_secs: Vec<f64>,
    traced_secs: Vec<f64>,
    counters: EngineCounters,
    /// Arena traffic of the cold ops: (hits, misses, bytes, firings).
    cold_arena: (u64, u64, u64, u64),
}

fn arena_delta(before: ArenaStats) -> (u64, u64, u64) {
    let after = arena_stats();
    (
        after.hits - before.hits,
        (after.slots - before.slots) as u64,
        (after.bytes - before.bytes) as u64,
    )
}

/// Run the plan's ops through `Session`: the cold ones first (their
/// arena traffic is the workload's first-intern share), then untraced
/// and traced ops alternating, so both sides see the same history and
/// their ratio is the cost of the spans alone.
fn session_path(plan: &Plan, on: &mut Tracer) -> SessionPath {
    let job = &plan.job;
    let how = How::plain(job);
    let mut off = Tracer::new(false);
    let (n_off, n_on) = (Names::new(&mut off), Names::new(on));
    let mut out = SessionPath {
        ok: true,
        untraced_secs: Vec::new(),
        traced_secs: Vec::new(),
        counters: EngineCounters::default(),
        cold_arena: (0, 0, 0, 0),
    };
    // Past the cold ops, every odd op is traced.
    let is_traced = |i: usize| i % 2 == 1;
    if job.waves.is_empty() {
        let before = arena_stats();
        let mut cold_fired = 0;
        for _ in 0..plan.cold {
            let (op, c) = ops::batch_op(job, &how, &mut off, &n_off);
            out.ok &= op.ok;
            cold_fired += c.fired;
        }
        let (hits, misses, bytes) = arena_delta(before);
        out.cold_arena = (hits, misses, bytes, cold_fired);
        for i in 0..2 * plan.pairs {
            if is_traced(i) {
                on.op = i as u32;
                let (op, c) = ops::batch_op(job, &how, on, &n_on);
                out.ok &= op.ok;
                out.traced_secs.push(op.secs);
                out.counters = c;
            } else {
                let (op, _) = ops::batch_op(job, &how, &mut off, &n_off);
                out.ok &= op.ok;
                out.untraced_secs.push(op.secs);
            }
        }
        return out;
    }

    // Streaming: one session, its waves split cold / alternating.
    let Ok((mut session, _)) = ops::start(job, &how, on, &n_on) else {
        out.ok = false;
        return out;
    };
    out.ok &= ops::run_wave(&mut session, job.initial_firings, on, &n_on).ok;
    let before = arena_stats();
    let total = (plan.cold + 2 * plan.pairs).min(job.waves.len());
    for (i, wave) in job.waves[..total].iter().enumerate() {
        if i < plan.cold {
            out.ok &= ops::inject_wave(&mut session, wave, job.wave_firings, &mut off, &n_off).ok;
            continue;
        }
        if i == plan.cold {
            let (hits, misses, bytes) = arena_delta(before);
            out.cold_arena = (hits, misses, bytes, i as u64 * job.wave_firings);
        }
        if is_traced(i - plan.cold) {
            on.op = i as u32;
            let op = ops::inject_wave(&mut session, wave, job.wave_firings, on, &n_on);
            out.ok &= op.ok;
            out.traced_secs.push(op.secs);
        } else {
            let op = ops::inject_wave(&mut session, wave, job.wave_firings, &mut off, &n_off);
            out.ok &= op.ok;
            out.untraced_secs.push(op.secs);
        }
    }
    let (_, final_ok, counters) = ops::finish(session, job, total, on, &n_on);
    out.ok &= final_ok;
    out.counters = counters;
    out
}

/// A fixed number of ops on `how`, untraced: the side comparisons.
struct Side {
    ok: bool,
    secs: Vec<f64>,
    counters: EngineCounters,
}

fn side_run(job: &Job, how: &How, ops_wanted: usize) -> Side {
    let mut t = Tracer::new(false);
    let n = Names::new(&mut t);
    let mut side = Side {
        ok: true,
        secs: Vec::new(),
        counters: EngineCounters::default(),
    };
    if job.waves.is_empty() {
        for _ in 0..ops_wanted {
            let (op, c) = ops::batch_op(job, how, &mut t, &n);
            side.ok &= op.ok;
            side.secs.push(op.secs);
            side.counters = c;
        }
        return side;
    }
    let Ok((mut session, _)) = ops::start(job, how, &mut t, &n) else {
        side.ok = false;
        return side;
    };
    side.ok &= ops::run_wave(&mut session, job.initial_firings, &mut t, &n).ok;
    let total = ops_wanted.min(job.waves.len());
    for wave in &job.waves[..total] {
        let op = ops::inject_wave(&mut session, wave, job.wave_firings, &mut t, &n);
        side.ok &= op.ok;
        side.secs.push(op.secs);
    }
    let (_, final_ok, counters) = ops::finish(session, job, total, &mut t, &n);
    side.ok &= final_ok;
    side.counters = counters;
    side
}

// ---------------------------------------------------------------------
// workload-specific layers
// ---------------------------------------------------------------------

/// `crates/service`: every `ServiceRuntime` call of the end-to-end path
/// as a span, on the workload's own tenants, plus the calls an operator
/// makes (evict, restore-on-inject, scrape). Returns the span overhead:
/// traced over untraced wave medians.
fn service_path(args: RunArgs, t: &mut Tracer, sheet: &mut Sheet) -> f64 {
    const ROUNDS: usize = 4;
    let shape = ServiceShape::new(args.seed, args.scale);
    let names = e2e::tenant_names(&shape);
    let (register, inject, wave, idle) = (
        t.name("service.register"),
        t.name("service.inject"),
        t.name("service.run_next_wave"),
        t.name("service.idle_poll"),
    );
    let (evict, restore, finish, scrape) = (
        t.name("service.evict"),
        t.name("service.restore_inject"),
        t.name("service.finish"),
        t.name("service.metrics_scrape"),
    );
    let Ok(svc) = gammaflow_service::ServiceRuntime::new(Default::default()) else {
        sheet.require(false, "the service path");
        return 0.0;
    };
    let program = workloads::double_program();
    let mut ok = true;
    for name in &names {
        ok &= t
            .span(register, || {
                svc.register(name, &program, shape.tenant_config(), ElementBag::new())
            })
            .is_ok();
    }
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for round in 0..ROUNDS {
        t.op = round as u32;
        for (i, name) in names.iter().enumerate() {
            let elems = shape.wave(0, round, i);
            let outcome = t.span(inject, || svc.inject(name, elems));
            ok &= matches!(outcome, Ok(o) if o.is_accepted());
        }
        // Every other wave runs under a span, so traced and untraced
        // waves see the same tenants' bags at the same sizes.
        let mut spans_on = false;
        loop {
            spans_on = !spans_on;
            let t0 = Instant::now();
            let span = spans_on.then(|| t.enter(wave));
            let report = svc.run_next_wave();
            if let Some(id) = span {
                t.exit(id);
            }
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match report {
                Ok(Some(r)) => {
                    ok &= r.wave.status == Status::Stable && r.wave.fired == shape.per_wave as u64;
                    if spans_on { &mut traced } else { &mut untraced }.push(us);
                }
                Ok(None) => break,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
    }
    for _ in 0..1_000 {
        ok &= matches!(t.span(idle, || svc.run_next_wave()), Ok(None));
    }
    let rounds = ROUNDS;
    let operated = names.len().min(256);
    for name in &names[..operated] {
        ok &= matches!(t.span(evict, || svc.evict(name)), Ok(true));
    }
    for (i, name) in names[..operated].iter().enumerate() {
        let elems = shape.wave(0, rounds, i);
        ok &= t.span(restore, || svc.inject(name, elems)).is_ok();
    }
    ok &= svc.drive_until_quiet().is_ok();
    let scrape_ms = micro::median_us(3, || t.span(scrape, || svc.metrics().to_json().len())) / 1e3;
    for (i, name) in names.iter().enumerate() {
        let waves = rounds + usize::from(i < operated);
        let want = crate::oracle::doubled((0..waves).flat_map(|r| shape.wave_values(0, r, i)));
        ok &= matches!(t.span(finish, || svc.finish(name)), Ok(r)
            if r.stats.firings_total() == want.firings && r.multiset == want.multiset);
    }
    for (metric, span) in [
        ("service.register_us", "service.register"),
        ("service.inject_us", "service.inject"),
        ("service.evict_us", "service.evict"),
        ("service.restore_inject_us", "service.restore_inject"),
        ("service.finish_us", "service.finish"),
    ] {
        let (us, n) = span_median_us(t, span);
        sheet.put(metric, us, n);
    }
    let (idle_us, n) = span_median_us(t, "service.idle_poll");
    sheet.put("service.idle_poll_ns", idle_us * 1e3, n);
    sheet.put("service.metrics_scrape_ms", scrape_ms, 3);
    sheet.require(ok, "the service path");
    ratio(median_or_zero(&traced), median_or_zero(&untraced))
}

/// The paper's conversion path on `loops_tagged`'s graph: mini-C source
/// → graph → Gamma (Algorithm 1) → graph (Algorithm 2), the textual
/// round trip, and the native dataflow run the Gamma image is priced
/// against.
fn conversion_path(args: RunArgs, gamma_op_secs: f64, sheet: &mut Sheet) -> Result<(), String> {
    let job = workloads::loops_tagged(args.seed, args.scale);
    let graph = job
        .graph
        .as_ref()
        .expect("loops_tagged starts from a graph");
    let (count, y, z, x) = workloads::loop_constants(args.seed, args.scale);
    // One source per loop: the frontend rejects a redeclared variable.
    let sources: Vec<String> = (0..count as i64)
        .map(|k| gammaflow_workloads::source_for(y + k, z, x + k))
        .collect();
    let compile_all = || {
        sources
            .iter()
            .all(|s| gammaflow_frontend::compile(s).is_ok())
    };
    if !compile_all() {
        return Err("the loops' mini-C source does not compile".into());
    }
    sheet.put("frontend.compile_us", micro::median_us(5, compile_all), 5);
    sheet.put(
        "core.df_to_gamma_us",
        micro::median_us(5, || gammaflow_core::dataflow_to_gamma(graph).is_ok()),
        5,
    );
    let back = || gammaflow_core::gamma_to_dataflow(&job.program, &job.initial);
    back().map_err(|e| format!("Algorithm 2: {e:?}"))?;
    sheet.put("core.gamma_to_df_us", micro::median_us(5, back), 5);
    let round_trip = || {
        let text = gammaflow_lang::pretty::pretty_program(&job.program);
        gammaflow_lang::parse_program(&text).map(|p| p.len())
    };
    if round_trip().ok() != Some(job.program.len()) {
        return Err("pretty → parse lost a reaction".into());
    }
    sheet.put("lang.pretty_parse_us", micro::median_us(5, round_trip), 5);
    let native = || gammaflow_dataflow::engine::SeqEngine::new(graph).run();
    let outputs = native()
        .map_err(|e| format!("dataflow run: {e:?}"))?
        .outputs;
    if outputs != *job.expected_after(0) {
        return Err("the native dataflow run missed the oracle".into());
    }
    let run_ms = micro::median_us(3, native) / 1e3;
    sheet.put("dataflow.run_ms", run_ms, 3);
    sheet.put("core.gamma_over_dataflow", gamma_op_secs * 1e3 / run_ms, 3);
    Ok(())
}

// ---------------------------------------------------------------------
// the pass
// ---------------------------------------------------------------------

/// `a / b`, or 0 where `b` was not measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn is_sequential(config: &EngineConfig) -> bool {
    matches!(config.engine, Engine::Seq)
}

/// Rows read off the session path: `session.*` span medians, the cold
/// ops' arena traffic, and the counters the session hands back.
fn session_rows(job: &Job, path: &SessionPath, t: &Tracer, sheet: &mut Sheet) {
    for (metric, span) in [
        ("session.start_us", "session.start"),
        ("session.inject_us", "session.inject"),
        ("session.run_to_stable_us", "session.run_to_stable"),
        ("session.finish_us", "session.finish"),
    ] {
        let (us, n) = span_median_us(t, span);
        sheet.put(metric, us, n);
    }
    let all_ops: Vec<f64> = path
        .untraced_secs
        .iter()
        .chain(&path.traced_secs)
        .map(|s| s * 1e6)
        .collect();
    if !all_ops.is_empty() {
        let p90 = percentile_sorted(&sorted(&all_ops), 90);
        sheet.put("session.wave_p90_us", p90, all_ops.len() as u64);
    }
    sheet.put("firings", job.op_firings() as f64, 1);
    let (hits, misses, bytes, cold_fired) = path.cold_arena;
    let interns = hits + misses;
    sheet.put(
        "arena.hit_ratio",
        ratio(hits as f64, interns as f64),
        interns,
    );
    sheet.put(
        "arena.bytes_per_firing",
        ratio(bytes as f64, cold_fired as f64),
        cold_fired,
    );
    let c = &path.counters;
    sheet.put("vm.tier_ups", c.tier_ups as f64, 1);
    sheet.put(
        "rete.guard_evals_per_firing",
        ratio(c.guard_evals as f64, c.fired as f64),
        c.fired,
    );
    sheet.put(
        "rete.guard_reject_ratio",
        ratio(c.guard_rejects as f64, c.guard_evals as f64),
        c.guard_evals,
    );
}

/// Rows read off the replay: per-call means of its spans, the
/// network's work and waste counters, and how much of its wall time the
/// layer spans explain.
fn replay_rows(job: &Job, path: &SessionPath, r: &Replay, t: &Tracer, sheet: &mut Sheet) {
    sheet.require(r.ok, "the layer replay");
    let totals = t.totals(Some(r.root));
    let fired = r.fired as f64;
    let layer_ns: f64 = totals
        .0
        .iter()
        .filter(|x| !replay::GLUE.contains(&x.name.as_str()))
        .map(|x| x.self_ns as f64)
        .sum();
    sheet.put(
        "trace.layer_sum_over_wall",
        ratio(layer_ns, totals.total_ns("replay")),
        t.spans().len() as u64,
    );
    sheet.put("rete.build_us", totals.total_ns("rete.build") / 1e3, 1);
    for (metric, span) in [
        ("rete.pick_ready_ns", "rete.pick_ready"),
        ("rete.pick_firing_ns", "rete.pick_firing"),
        ("rete.maintain_ns", "rete.maintain"),
    ] {
        sheet.put(metric, totals.mean_ns(span), totals.count(span));
    }
    sheet.put("rete.inject_ns_per_elem", r.inject_ns_per_elem, 1);
    // Guard evals per firing come from the session (the replay fires
    // the same sequence on a batch job); the time is the replay's build
    // and maintenance spans, where the matcher evaluates guards.
    let c = &path.counters;
    let guard_evals = ratio(c.guard_evals as f64, c.fired as f64) * fired;
    let guard_ns = totals.total_ns("rete.build") + totals.total_ns("rete.maintain");
    sheet.put(
        "rete.ns_per_guard_eval",
        ratio(guard_ns, guard_evals),
        guard_evals as u64,
    );
    sheet.put(
        "rete.tokens_created_per_firing",
        ratio(r.stats.tokens_created as f64, fired),
        r.fired,
    );
    sheet.put(
        "rete.spill_probes_per_firing",
        ratio(r.stats.spill_probes as f64, fired),
        r.fired,
    );
    for (metric, value) in [
        ("rete.peak_live_tokens", r.stats.peak_live_tokens),
        ("rete.dedup_hits", r.stats.dedup_hits),
        ("rete.spill_demotions", r.stats.spill_demotions),
        ("rete.spill_repromotions", r.stats.spill_repromotions),
    ] {
        sheet.put(metric, value as f64, 1);
    }
    if let Some(session_rete) = c.rete.as_ref().filter(|_| job.waves.is_empty()) {
        if session_rete.tokens_created != r.stats.tokens_created {
            sheet.notes.push(format!(
                "replay created {} tokens, the session {}: the replay no longer mirrors the session's loop",
                r.stats.tokens_created, session_rete.tokens_created
            ));
        }
    }
    sheet.put(
        "session.overhead_share",
        1.0 - ratio(
            median_or_zero(&r.op_secs),
            median_or_zero(&path.untraced_secs),
        ),
        r.op_secs.len() as u64,
    );
}

/// Side runs of the same ops on other configurations, all judged by
/// the oracle: the job's own (the baseline every ratio divides by),
/// sequential default, Rescan, one sharded worker, and a telemetry ring.
fn side_rows(plan: &Plan, path: &SessionPath, seed: u64, sheet: &mut Sheet) {
    let job = &plan.job;
    let mut run = |how: &How, what: &str| {
        let side = side_run(job, how, plan.side);
        sheet.require(side.ok, what);
        (
            median_or_zero(&side.secs),
            side.secs.len() as u64,
            side.counters,
        )
    };
    let (own_op, _, _) = run(
        &How::plain(job),
        "the side run on the workload's own engine",
    );
    let seq = workloads::seq_config(seed);
    let seq_op = match is_sequential(&job.config) {
        true => own_op,
        false => run(&How::with(&seq), "the sequential side run").0,
    };
    let rescan = plan.rescan.then(|| {
        let config = EngineConfig {
            scheduling: Scheduling::Rescan,
            ..seq.clone()
        };
        run(&How::with(&config), "the Rescan side run")
    });
    let w1 = workloads::sharded_config(seed, 1);
    let (w1_op, w1_n, w1_counters) = run(&How::with(&w1), "the one-worker side run");
    let ring = Arc::new(RingSink::new(1024));
    let ringed = How {
        config: &job.config,
        ring: Some(ring.clone()),
    };
    let (ring_op, ring_n, _) = run(&ringed, "the telemetry side run");

    if let Some((rescan_op, n, _)) = rescan {
        sheet.put("sched.rescan_run_ms", rescan_op * 1e3, n);
        sheet.put("sched.default_over_rescan", ratio(seq_op, rescan_op), n);
    }
    sheet.put("parallel.w1_over_seq", ratio(w1_op, seq_op), w1_n);
    // The parallel counters of the workload's own engine where it is
    // parallel, of the one-worker run otherwise.
    let c = match is_sequential(&job.config) {
        true => &w1_counters,
        false => &path.counters,
    };
    let claims = c.fired + c.par.claim_failures;
    let claim_failures = ratio(c.par.claim_failures as f64, claims as f64);
    let steals = c.par.stolen_firings + c.par.steal_misses;
    sheet.put("sharded.claim_failure_ratio", claim_failures, claims);
    sheet.put("parallel.claim_failure_ratio", claim_failures, claims);
    sheet.put(
        "parallel.deltas_processed_per_firing",
        ratio(c.par.deltas_processed as f64, c.fired as f64),
        c.fired,
    );
    sheet.put(
        "parallel.steal_miss_ratio",
        ratio(c.par.steal_misses as f64, steals as f64),
        steals,
    );
    sheet.put(
        "parallel.shard_peak_tokens_max",
        c.par.shard_peak_tokens.iter().copied().max().unwrap_or(0) as f64,
        1,
    );
    sheet.put("pool.leases", c.par.pool_leases as f64, 1);
    sheet.put("pool.refusals", c.par.pool_spawns as f64, 1);

    let records = ring.records().len() as u64 + ring.dropped();
    let ring_fired = ring_n * job.op_firings();
    sheet.put(
        "telemetry.ring_overhead_ratio",
        ratio(ring_op, own_op),
        ring_n,
    );
    sheet.put(
        "telemetry.records_per_firing",
        ratio(records as f64, ring_fired as f64),
        ring_fired,
    );
}

/// Run the traced pass of one workload.
pub fn trace(def: &WorkloadDef, args: RunArgs, env: &mut EnvBlock) -> Result<RunReport, String> {
    let plan = plan(def.name, args);
    let job = &plan.job;
    let mut t = Tracer::new(true);
    let mut sheet = Sheet::default();

    let path = session_path(&plan, &mut t);
    sheet.require(path.ok, "the session path");
    session_rows(job, &path, &t, &mut sheet);
    let mut overhead = ratio(
        median_or_zero(&path.traced_secs),
        median_or_zero(&path.untraced_secs),
    );

    let r = replay::replay(plan.replay_job(), args.seed, &mut t)?;
    // The census after the fixed work above, before the scratch interns
    // of the single-call loops.
    let arena = arena_stats();
    sheet.put("arena.slots", arena.slots as f64, 1);
    sheet.put("arena.bytes", arena.bytes as f64, 1);
    replay_rows(job, &path, &r, &t, &mut sheet);

    let sample = micro::sample_elements(plan.replay_job(), &r.log);
    micro::arena(&sample, &mut sheet);
    // What a repeat clones on a batch job; the retained history on a
    // streaming one.
    let clone_of = match job.waves.is_empty() {
        true => &job.initial,
        false => &r.final_bag,
    };
    micro::bag(&sample, clone_of, &mut sheet);
    micro::sharded(plan.replay_job(), &r.log, &mut sheet);
    micro::compiled(job, &mut sheet)?;
    micro::vm(&job.program, &r, &mut sheet);
    micro::pool(&mut sheet);
    micro::session_extras(job, plan.cold, &mut sheet)?;
    side_rows(&plan, &path, args.seed, &mut sheet);

    match def.name {
        // On this workload the end-to-end path is the service's.
        "service_small_waves" => overhead = service_path(args, &mut t, &mut sheet),
        "loops_tagged" => conversion_path(args, median_or_zero(&path.untraced_secs), &mut sheet)?,
        _ => {}
    }
    sheet.put(
        "trace.overhead_ratio",
        overhead,
        path.traced_secs.len() as u64,
    );

    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| format!("{}: {e}", crate::OUT_DIR))?;
    let trace_file = format!("{}/trace-{}.json", crate::OUT_DIR, def.name);
    let body = serde_json::to_string(&t.to_json(TRACE_FILE_SPANS)).map_err(|e| e.to_string())?;
    std::fs::write(&trace_file, body).map_err(|e| format!("{trace_file}: {e}"))?;
    sheet.notes.push(format!("spans written to {trace_file}"));
    sheet.notes.push(interaction_note(def.name).into());
    env.finish();
    let mut report = report::per_layer(def, args, env.clone(), sheet);
    report.units = (plan.cold + 2 * plan.pairs) as u64;
    report.samples = t.spans().len() as u64;
    Ok(report)
}

/// What to keep in mind when reading a workload's layer numbers.
fn interaction_note(workload: &str) -> &'static str {
    match workload {
        "service_small_waves" => "the driver and one pool worker hand off through a condvar: pool.lease_roundtrip_us is a floor under wave_p50_us no matcher change can cross",
        "fold_sharded_w2" => "the wave ends when the slower worker drains: parallel.steal_miss_ratio matters more than mean per-firing cost",
        _ => "nothing contends on a sequential workload: a layer's gain is capped by its self-time share in the replay",
    }
}
