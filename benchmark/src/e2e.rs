//! The untraced pass: set up three times (median is `setup_s`), then
//! run whole units of work until the run's seconds are used, one closed
//! loop on one driver thread. Ops have a fixed size, so a faster engine
//! completes more of them in a run but each sample measures the same
//! work.

use crate::env::peak_rss_mib;
use crate::session_ops::{self as ops, EngineCounters, How, Names, Op};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{self, Job, ServiceShape};
use gammaflow_gamma::{Session, Status};
use gammaflow_multiset::{arena_stats, ElementBag};
use gammaflow_service::{ServiceConfig, ServiceRuntime};
use std::time::Instant;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;
/// `filter_1m` sets up once: one set-up there is ~4 s of deterministic
/// work (10^6 interns, the oracle's bag, a 2 s warm-up), already
/// steadier than the other workloads' medians of three.
const FILTER_SETUP_ROUNDS: usize = 1;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Divisor on every workload size (1 = the sizes in the table; the
    /// smoke run uses 16).
    pub scale: usize,
}

/// What the untraced pass measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_secs: Vec<f64>,
    /// One sample per timed op, in microseconds.
    pub op_us: Vec<f64>,
    pub firings_per_s: f64,
    /// Closed-form firings of one op.
    pub firings_per_op: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Whole units run (repeats, sessions, or service epochs).
    pub units: u64,
    /// `VmHWM` when the fixed prefix of units was done.
    pub rss_mib: f64,
    /// Arena census and engine counters at the same point: exact on the
    /// sequential engine, because the prefix is fixed work.
    pub arena_slots: usize,
    pub counters: EngineCounters,
}

impl Measured {
    fn note(&mut self, op: Op) {
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
    }

    /// Count something judged but not timed (a set-up op, a tenant's
    /// final multiset, a session that would not start).
    fn judge(&mut self, ok: bool) {
        self.note(Op { secs: 0.0, ok });
    }

    fn note_timed(&mut self, op: Op) {
        self.note(op);
        self.op_us.push(op.secs * 1e6);
    }

    fn mark_prefix_done(&mut self, counters: EngineCounters) {
        self.rss_mib = peak_rss_mib();
        self.arena_slots = arena_stats().slots;
        self.counters = counters;
    }
}

/// Units every run completes whatever its seconds: the prefix after
/// which memory is read, and the floor under the sample count.
#[derive(Clone, Copy)]
struct Prefix {
    setup_rounds: usize,
    warmups: usize,
    units: u64,
}

/// Set up `rounds` times, timing each into `setup_secs`; the run then
/// uses what the last round made.
fn set_up<T>(rounds: usize, m: &mut Measured, mut make: impl FnMut(&mut Measured) -> T) -> T {
    let mut kept = None;
    for _ in 0..rounds {
        // Drop the previous round's input first so set-up never holds two.
        drop(kept.take());
        let t0 = Instant::now();
        let fresh = make(m);
        m.setup_secs.push(t0.elapsed().as_secs_f64());
        kept = Some(fresh);
    }
    kept.expect("at least one set-up round")
}

/// Batch workloads: op = one build-run-finish repeat.
fn batch(args: RunArgs, make: impl Fn() -> Job, prefix: Prefix) -> Measured {
    let mut m = Measured::default();
    let mut t = Tracer::new(false);
    let n = Names::new(&mut t);
    let job = set_up(prefix.setup_rounds, &mut m, |m| {
        let fresh = make();
        for _ in 0..prefix.warmups {
            let (op, _) = ops::batch_op(&fresh, &How::plain(&fresh), &mut t, &n);
            m.note(op);
        }
        fresh
    });
    m.firings_per_op = job.initial_firings;

    let t0 = Instant::now();
    while m.units < prefix.units || t0.elapsed().as_secs_f64() < args.seconds {
        let (op, counters) = ops::batch_op(&job, &How::plain(&job), &mut t, &n);
        m.note_timed(op);
        m.units += 1;
        if m.units == prefix.units {
            m.mark_prefix_done(counters);
        }
    }
    m.firings_per_s = m.firings_per_op as f64 / (median(&m.op_us) / 1e6);
    m
}

/// Firings per second of each block of `block` consecutive ops.
fn block_rates(op_us: &[f64], firings_per_op: u64, block: usize) -> Vec<f64> {
    op_us
        .chunks_exact(block)
        .map(|c| (firings_per_op * block as u64) as f64 / (c.iter().sum::<f64>() / 1e6))
        .collect()
}

fn start_streaming(job: &Job, m: &mut Measured, t: &mut Tracer, n: &Names) -> Option<Session> {
    let (mut session, _) = ops::start(job, &How::plain(job), t, n).ok()?;
    let first = ops::run_wave(&mut session, job.initial_firings, t, n);
    m.note(first);
    Some(session)
}

/// Drive `job`'s waves through `session` until they run out or — once
/// `min_waves` are done — `deadline` passes; then finish and judge the
/// final multiset. Returns how many waves ran and the session's
/// counters at finish.
fn drive(
    mut session: Session,
    job: &Job,
    min_waves: usize,
    deadline: Option<(Instant, f64)>,
    m: &mut Measured,
    t: &mut Tracer,
    n: &Names,
) -> (usize, EngineCounters) {
    let mut done = 0;
    for wave in &job.waves {
        let out_of_time = deadline.is_some_and(|(t0, secs)| t0.elapsed().as_secs_f64() >= secs);
        if done >= min_waves && out_of_time {
            break;
        }
        m.note_timed(ops::inject_wave(&mut session, wave, job.wave_firings, t, n));
        done += 1;
        if deadline.is_some() && done == min_waves {
            m.mark_prefix_done(ops::read_counters(&session));
        }
    }
    // A wrong final multiset fails the run even when every wave looked
    // right on its own.
    let (_, final_ok, counters) = ops::finish(session, job, done, t, n);
    m.judge(final_ok);
    (done, counters)
}

/// Session `k` of `stream_window`, started and stable on its empty bag.
fn start_window_session(
    args: RunArgs,
    k: u64,
    m: &mut Measured,
    t: &mut Tracer,
    n: &Names,
) -> (Job, Option<Session>) {
    let job = workloads::stream_window(args.seed, args.scale, k);
    let session = start_streaming(&job, m, t, n);
    (job, session)
}

/// `stream_window`: unit = one whole session of 3072 waves; sessions
/// `k = 0, 1, 2, …` run back to back, each on a fresh stream.
fn stream_window(args: RunArgs) -> Measured {
    const PREFIX_SESSIONS: u64 = 3;
    const BLOCK: usize = 256;
    let mut m = Measured::default();
    let mut t = Tracer::new(false);
    let n = Names::new(&mut t);
    let mut next = Some(set_up(SETUP_ROUNDS, &mut m, |m| {
        start_window_session(args, 0, m, &mut t, &n)
    }));
    let t0 = Instant::now();
    while m.units < PREFIX_SESSIONS || t0.elapsed().as_secs_f64() < args.seconds {
        let (job, session) = match next.take() {
            Some(first) => first,
            None => start_window_session(args, m.units, &mut m, &mut t, &n),
        };
        m.firings_per_op = job.wave_firings;
        let counters = match session {
            Some(session) => drive(session, &job, job.waves.len(), None, &mut m, &mut t, &n).1,
            None => {
                m.judge(false);
                EngineCounters::default()
            }
        };
        m.units += 1;
        if m.units == PREFIX_SESSIONS {
            m.mark_prefix_done(counters);
        }
    }
    let block = BLOCK.min(m.op_us.len().max(1));
    m.firings_per_s = median(&block_rates(&m.op_us, m.firings_per_op, block));
    m
}

/// `stream_longlived`: one session for the whole run; unit = one wave.
fn stream_longlived(args: RunArgs) -> Measured {
    const PREFIX_WAVES: usize = 32;
    const MAX_WAVES: usize = 2048;
    const BLOCK: usize = 8;
    let mut m = Measured::default();
    let mut t = Tracer::new(false);
    let n = Names::new(&mut t);
    let (job, session) = set_up(SETUP_ROUNDS, &mut m, |m| {
        let job = workloads::stream_longlived(args.seed, args.scale, MAX_WAVES);
        let session = start_streaming(&job, m, &mut t, &n);
        (job, session)
    });
    m.firings_per_op = job.wave_firings;
    match session {
        Some(session) => {
            let deadline = Some((Instant::now(), args.seconds));
            let (done, _) = drive(session, &job, PREFIX_WAVES, deadline, &mut m, &mut t, &n);
            m.units = done as u64;
        }
        None => m.judge(false),
    }
    m.firings_per_s = median(&block_rates(&m.op_us, m.firings_per_op, BLOCK));
    m
}

/// A runtime with every tenant of `shape` registered on an empty bag.
pub fn register_tenants(shape: &ServiceShape, names: &[String]) -> Option<ServiceRuntime> {
    let svc = ServiceRuntime::new(ServiceConfig::default()).ok()?;
    let program = workloads::double_program();
    for name in names {
        svc.register(name, &program, shape.tenant_config(), ElementBag::new())
            .ok()?;
    }
    Some(svc)
}

pub fn tenant_names(shape: &ServiceShape) -> Vec<String> {
    (0..shape.tenants).map(|i| format!("t{i}")).collect()
}

/// `service_small_waves`: unit = one epoch of 32 rounds over 2048 fresh
/// tenants; op = one `run_next_wave` that ran a wave. Injects are timed
/// into the throughput but are not ops.
fn service(args: RunArgs) -> Measured {
    const PREFIX_EPOCHS: u64 = 2;
    let shape = ServiceShape::new(args.seed, args.scale);
    let names = tenant_names(&shape);
    let mut m = Measured {
        firings_per_op: shape.per_wave as u64,
        ..Measured::default()
    };
    let mut next = set_up(SETUP_ROUNDS, &mut m, |_| register_tenants(&shape, &names));
    let mut round_rates = Vec::new();
    let t0 = Instant::now();
    while m.units < PREFIX_EPOCHS || t0.elapsed().as_secs_f64() < args.seconds {
        let epoch = m.units as usize;
        let Some(svc) = next.take().or_else(|| register_tenants(&shape, &names)) else {
            m.judge(false);
            break;
        };
        for round in 0..shape.rounds {
            let mut round_secs = 0.0;
            let mut round_waves = 0u64;
            for (i, name) in names.iter().enumerate() {
                let wave = shape.wave(epoch, round, i);
                let t = Instant::now();
                let outcome = svc.inject(name, wave);
                round_secs += t.elapsed().as_secs_f64();
                if !matches!(outcome, Ok(o) if o.is_accepted()) {
                    m.judge(false);
                }
            }
            loop {
                let t = Instant::now();
                let report = svc.run_next_wave();
                let secs = t.elapsed().as_secs_f64();
                round_secs += secs;
                match report {
                    Ok(None) => break,
                    Ok(Some(r)) => {
                        let ok = r.wave.status == Status::Stable
                            && r.wave.fired == shape.per_wave as u64;
                        m.note_timed(Op { secs, ok });
                        round_waves += 1;
                    }
                    Err(_) => m.note_timed(Op { secs, ok: false }),
                }
            }
            round_rates.push((round_waves * shape.per_wave as u64) as f64 / round_secs);
        }
        for (i, name) in names.iter().enumerate() {
            let want = shape.expected(epoch, i);
            m.judge(
                matches!(svc.finish(name), Ok(r) if r.status == Status::Stable
                && r.stats.firings_total() == want.firings
                && r.multiset == want.multiset),
            );
        }
        m.units += 1;
        if m.units == PREFIX_EPOCHS {
            // Tenant sessions are behind the runtime: no counters here.
            m.mark_prefix_done(EngineCounters::default());
        }
    }
    m.firings_per_s = median(&round_rates);
    m
}

/// Run the untraced pass of the workload called `name`, which must be
/// one of the table's.
pub fn measure(name: &str, args: RunArgs) -> Measured {
    let (seed, scale) = (args.seed, args.scale);
    let two = Prefix {
        setup_rounds: SETUP_ROUNDS,
        warmups: 2,
        units: 24,
    };
    let filter = Prefix {
        setup_rounds: FILTER_SETUP_ROUNDS,
        warmups: 1,
        units: 3,
    };
    let make = || {
        workloads::batch_job(name, seed, scale).expect("every workload not streaming is a batch")
    };
    match name {
        "stream_window" => stream_window(args),
        "stream_longlived" => stream_longlived(args),
        "service_small_waves" => service(args),
        "filter_1m" => batch(args, make, filter),
        _ => batch(args, make, two),
    }
}
