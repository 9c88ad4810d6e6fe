//! The calls the end-to-end path makes into `Session`, each timed as one
//! span, with every op judged against the job's oracle. Both passes run
//! exactly this code; the untraced pass hands in a disabled tracer.

use crate::spans::Tracer;
use crate::workloads::Job;
use gammaflow_gamma::{EngineConfig, ParStats, ReteStats, RingSink, Session, Status};
use gammaflow_multiset::Element;
use std::sync::Arc;

/// Span names of the session path (`session.*` metrics are medians of
/// these spans' durations).
pub struct Names {
    pub op: u16,
    pub convert: u16,
    pub clone: u16,
    pub start: u16,
    pub run: u16,
    pub inject: u16,
    pub finish: u16,
}

impl Names {
    pub fn new(t: &mut Tracer) -> Names {
        Names {
            op: t.name("op"),
            convert: t.name("core.df_to_gamma"),
            clone: t.name("bag.clone"),
            start: t.name("session.start"),
            run: t.name("session.run_to_stable"),
            inject: t.name("session.inject"),
            finish: t.name("session.finish"),
        }
    }
}

/// Counters read back through the public accessors when a session ends.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    pub fired: u64,
    pub guard_evals: u64,
    pub guard_rejects: u64,
    pub tier_ups: u64,
    pub rete: Option<ReteStats>,
    pub par: ParStats,
}

/// One timed op: how long the timed calls took and whether it passed.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub secs: f64,
    pub ok: bool,
}

/// Which engine configuration a session runs, and whether it reports
/// into a telemetry ring with per-reaction profiling on.
#[derive(Clone)]
pub struct How<'a> {
    pub config: &'a EngineConfig,
    pub ring: Option<Arc<RingSink>>,
}

impl<'a> How<'a> {
    /// The job's own configuration, telemetry off: the end-to-end path.
    pub fn plain(job: &'a Job) -> How<'a> {
        How::with(&job.config)
    }

    /// Another configuration, telemetry off.
    pub fn with(config: &'a EngineConfig) -> How<'a> {
        How { config, ring: None }
    }
}

/// Start a session on `job` (Algorithm 1 first when the job starts from
/// a graph). Returns the session and the seconds the timed calls took.
pub fn start(job: &Job, how: &How, t: &mut Tracer, n: &Names) -> Result<(Session, f64), String> {
    let converted;
    let (program, initial, prep_secs) = match &job.graph {
        Some(graph) => {
            let (conv, secs) = t.timed(n.convert, || gammaflow_core::dataflow_to_gamma(graph));
            let conv = conv.map_err(|e| format!("{e:?}"))?;
            converted = conv.program;
            (&converted, conv.initial, secs)
        }
        None => {
            let (initial, secs) = t.timed(n.clone, || job.initial.clone());
            (&job.program, initial, secs)
        }
    };
    let (session, start_secs) = t.timed(n.start, || {
        let builder = Session::build(program).config(how.config.clone());
        match &how.ring {
            Some(ring) => builder.trace_sink(ring.clone()).profile(true),
            None => builder,
        }
        .start(initial)
    });
    let session = session.map_err(|e| format!("{e:?}"))?;
    Ok((session, prep_secs + start_secs))
}

/// One `run_to_stable`, passing only if it ends `Stable` after exactly
/// `want_fired` firings.
pub fn run_wave(session: &mut Session, want_fired: u64, t: &mut Tracer, n: &Names) -> Op {
    let (wave, secs) = t.timed(n.run, || session.run_to_stable());
    let ok = matches!(&wave, Ok(w) if w.status == Status::Stable && w.fired == want_fired);
    Op { secs, ok }
}

/// One streaming op: inject a wave, run it to stability.
pub fn inject_wave(
    session: &mut Session,
    elems: &[Element],
    want_fired: u64,
    t: &mut Tracer,
    n: &Names,
) -> Op {
    let op = t.open(n.op);
    let (outcome, inject_secs) = t.timed(n.inject, || session.inject(elems.iter().cloned()));
    let run = run_wave(session, want_fired, t, n);
    t.close(op);
    Op {
        secs: inject_secs + run.secs,
        ok: run.ok && outcome.is_accepted(),
    }
}

/// The counters a live session hands back through its accessors.
pub fn read_counters(session: &Session) -> EngineCounters {
    let profile = session.profile();
    EngineCounters {
        fired: session.fired_total(),
        guard_evals: profile.rows.iter().map(|r| r.guard_evals).sum(),
        guard_rejects: profile.rows.iter().map(|r| r.guard_rejects).sum(),
        tier_ups: session.vm_tier_ups(),
        rete: session.rete_stats(),
        par: session.par_stats(),
    }
}

/// Finish a session after `waves_done` injected waves: read the
/// counters, consume it, and compare the final multiset with the oracle.
/// Returns the seconds `finish` took, whether the final is right, and
/// the counters.
pub fn finish(
    session: Session,
    job: &Job,
    waves_done: usize,
    t: &mut Tracer,
    n: &Names,
) -> (f64, bool, EngineCounters) {
    let counters = read_counters(&session);
    let (result, secs) = t.timed(n.finish, || session.finish());
    let want_fired = job.initial_firings + waves_done as u64 * job.wave_firings;
    let ok = result.status == Status::Stable
        && result.stats.firings_total() == want_fired
        && result.multiset == *job.expected_after(waves_done);
    (secs, ok, counters)
}

/// One batch op: (convert or clone) + start + run_to_stable + finish,
/// timed as the sum of those calls; passes only if the run ends
/// `Stable`, fires the closed-form count and leaves the oracle's
/// multiset.
pub fn batch_op(job: &Job, how: &How, t: &mut Tracer, n: &Names) -> (Op, EngineCounters) {
    let op = t.open(n.op);
    let out = match start(job, how, t, n) {
        Err(_) => (
            Op {
                secs: 0.0,
                ok: false,
            },
            EngineCounters::default(),
        ),
        Ok((mut session, start_secs)) => {
            let run = run_wave(&mut session, job.initial_firings, t, n);
            let (finish_secs, final_ok, counters) = finish(session, job, 0, t, n);
            (
                Op {
                    secs: start_secs + run.secs + finish_secs,
                    ok: run.ok && final_ok,
                },
                counters,
            )
        }
    };
    t.close(op);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Expect};
    use gammaflow_gamma::{ElementSpec, Expr, GammaProgram, Pattern, ReactionSpec};

    fn untraced() -> (Tracer, Names) {
        let mut t = Tracer::new(false);
        let n = Names::new(&mut t);
        (t, n)
    }

    #[test]
    fn batch_op_passes_on_the_oracle_and_fails_on_a_flipped_element() {
        let (mut t, n) = untraced();
        let mut job = workloads::fold(1, 128, 0);
        let (op, counters) = batch_op(&job, &How::plain(&job), &mut t, &n);
        assert!(op.ok && op.secs > 0.0);
        assert_eq!(counters.fired, 15);

        // One expected element off by one: the same run now fails.
        let total: i64 = (1..=16).sum();
        job.expect = Expect::Fixed([Element::pair(total + 1, "n")].into_iter().collect());
        assert!(!batch_op(&job, &How::plain(&job), &mut t, &n).0.ok);
    }

    #[test]
    fn batch_op_fails_on_a_wrong_firing_count() {
        let (mut t, n) = untraced();
        let mut job = workloads::sieve_guard(1, 64);
        assert!(batch_op(&job, &How::plain(&job), &mut t, &n).0.ok);
        job.initial_firings += 1;
        assert!(!batch_op(&job, &How::plain(&job), &mut t, &n).0.ok);
    }

    #[test]
    fn streaming_final_is_judged_after_the_waves_actually_injected() {
        let (mut t, n) = untraced();
        let job = workloads::stream_window(1, 512, 0);
        let (mut session, _) = start(&job, &How::plain(&job), &mut t, &n).unwrap();
        assert!(run_wave(&mut session, 0, &mut t, &n).ok);
        for wave in &job.waves[..3] {
            assert!(inject_wave(&mut session, wave, job.wave_firings, &mut t, &n).ok);
        }
        // A wave that must fire 56 times does not pass as firing 55.
        assert!(!inject_wave(&mut session, &job.waves[3], 55, &mut t, &n).ok);
        // Four waves went in: the oracle over three rejects the final.
        let (_, ok, counters) = finish(session, &job, 3, &mut t, &n);
        assert!(!ok);
        assert_eq!(counters.fired, 4 * job.wave_firings);
    }

    #[test]
    fn a_session_that_cannot_start_is_a_failed_op() {
        let (mut t, n) = untraced();
        let mut job = workloads::fold(1, 128, 0);
        // An action over a variable no pattern binds: compile fails.
        job.program = GammaProgram::new(vec![ReactionSpec::new("bad")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(Expr::var("y"), "n")])]);
        assert!(start(&job, &How::plain(&job), &mut t, &n).is_err());
        assert!(!batch_op(&job, &How::plain(&job), &mut t, &n).0.ok);
    }
}
