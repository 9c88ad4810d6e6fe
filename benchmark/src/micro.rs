//! Small timed loops over single layer calls, on the workload's own
//! data: what one `intern`, one bag edit, one claim, one guard
//! evaluation, one pool lease, one snapshot costs in isolation.

use crate::replay::Replay;
use crate::report::Sheet;
use crate::session_ops::{self as ops, How, Names};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::Job;
use gammaflow_gamma::{
    Chunk, CompiledProgram, Expr, Firing, GammaProgram, Guard, LabelPat, ReactionSpec, Session,
    ValuePat, WorkerPool,
};
use gammaflow_multiset::{
    ElemId, Element, ElementBag, FxHashMap, FxHashSet, ShardedBag, Symbol, Tag, Value,
};
use std::hint::black_box;
use std::time::Instant;

/// Elements the single-call loops run over, at most.
const SAMPLE: usize = 65_536;

/// Nanoseconds per item of running `f` over every item once.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Microseconds one call of `run` on `input` takes; the result is
/// dropped after the clock stops.
fn once_us<P, R>(input: P, run: impl FnOnce(P) -> R) -> f64 {
    let t0 = Instant::now();
    let out = black_box(run(input));
    let us = t0.elapsed().as_secs_f64() * 1e6;
    drop(out);
    us
}

/// Median microseconds of `reps` calls of `f`.
pub fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| once_us((), |()| f())).collect();
    median(&samples)
}

/// Median microseconds of three calls of `run`, each on a fresh input
/// from the untimed `prepare` — or the first call alone where that takes
/// over 50 ms (a `filter_1m` restore is ~1 s). Returns the value and how
/// many calls are behind it.
fn few_median_us<P, R>(mut prepare: impl FnMut() -> P, mut run: impl FnMut(P) -> R) -> (f64, u64) {
    let mut samples = vec![once_us(prepare(), &mut run)];
    if samples[0] <= 50_000.0 {
        samples.extend([(); 2].map(|()| once_us(prepare(), &mut run)));
    }
    (median(&samples), samples.len() as u64)
}

/// Distinct elements the replay handled — input, injected waves, then
/// what its first firings produced — at most [`SAMPLE`].
pub fn sample_elements(job: &Job, log: &[Firing]) -> Vec<Element> {
    let mut seen = FxHashSet::default();
    job.initial
        .iter_counts()
        .map(|(e, _)| e)
        .chain(job.waves.iter().flatten().cloned())
        .chain(log.iter().flat_map(|f| f.produced.iter().cloned()))
        .filter(|e| seen.insert(e.clone()))
        .take(SAMPLE)
        .collect()
}

pub fn arena(sample: &[Element], sheet: &mut Sheet) {
    // The same payloads under a label nothing else uses: first interns.
    let scratch = Symbol::intern("gbench.scratch");
    let fresh: Vec<Element> = sample
        .iter()
        .map(|e| Element {
            label: scratch,
            ..e.clone()
        })
        .collect();
    let n = fresh.len() as u64;
    let mut ids = Vec::with_capacity(fresh.len());
    sheet.put(
        "arena.intern_miss_ns",
        ns_per_item(&fresh, |e| ids.push(ElemId::intern(e))),
        n,
    );
    sheet.put(
        "arena.intern_hit_ns",
        ns_per_item(&fresh, |e| {
            black_box(ElemId::intern(e));
        }),
        n,
    );
    sheet.put(
        "arena.resolve_ns",
        ns_per_item(&ids, |id| {
            black_box(id.resolve());
        }),
        n,
    );
}

pub fn bag(sample: &[Element], clone_of: &ElementBag, sheet: &mut Sheet) {
    let keyed: Vec<(ElemId, Symbol, Tag)> = sample
        .iter()
        .map(|e| (ElemId::intern(e), e.label, e.tag))
        .collect();
    let n = keyed.len() as u64;
    let mut bag = ElementBag::new();
    let insert = ns_per_item(&keyed, |&(id, _, _)| bag.insert_id(id, 1));
    let count = ns_per_item(&keyed, |&(id, _, tag)| {
        black_box(bag.count_id(id, tag));
    });
    let probe = ns_per_item(&keyed, |&(_, label, tag)| {
        black_box(bag.bucket(label, tag).map(|b| b.len()));
    });
    let remove = ns_per_item(&keyed, |&(id, _, tag)| {
        black_box(bag.remove_id(id, tag));
    });
    sheet.put("bag.insert_id_ns", insert, n);
    sheet.put("bag.remove_id_ns", remove, n);
    sheet.put("bag.count_id_ns", count, n);
    sheet.put("bag.bucket_probe_ns", probe, n);
    sheet.put("bag.clone_us", median_us(3, || clone_of.clone()), 3);
}

/// Uncontended `claim_and_replace`: the replay's own firings, in order,
/// against a sharded bag holding the replay's input.
pub fn sharded(job: &Job, log: &[Firing], sheet: &mut Sheet) {
    let bag = ShardedBag::new(job.config.shards);
    for (e, count) in job.initial.iter_counts() {
        bag.insert_all(std::iter::repeat_n(e, count));
    }
    bag.insert_all(job.waves.iter().flatten().cloned());
    let mut refused = 0u64;
    let ns = ns_per_item(log, |f| {
        refused += u64::from(!bag.claim_and_replace(&f.consumed, &f.produced));
    });
    sheet.put("sharded.claim_and_replace_ns", ns, log.len() as u64);
    debug_assert_eq!(refused, 0, "an in-order replay never loses a claim");
}

pub fn compiled(job: &Job, sheet: &mut Sheet) -> Result<(), String> {
    sheet.put(
        "compiled.compile_us",
        median_us(5, || CompiledProgram::compile(&job.program)),
        5,
    );
    let compiled = CompiledProgram::compile(&job.program).map_err(|e| format!("{e:?}"))?;
    let order: Vec<usize> = (0..compiled.reactions.len()).collect();
    sheet.put(
        "compiled.find_any_us",
        median_us(5, || compiled.find_any(&order, &job.initial, None).is_ok()),
        5,
    );
    Ok(())
}

/// A pattern's value variable with the values the replay saw under the
/// pattern's label.
type Column<'a> = (Symbol, &'a [Value]);
/// One candidate binding: base slots, and the overlay that extends them.
type Candidate = (Vec<Option<Value>>, Vec<(u16, Value)>);

/// The first reaction `pick` yields an expression for whose variables
/// are all pattern value variables the replay saw values for.
fn timed_expr<'a>(
    program: &'a GammaProgram,
    values: &'a FxHashMap<Symbol, Vec<Value>>,
    pick: impl Fn(&'a ReactionSpec) -> Option<&'a Expr>,
) -> Option<(&'a Expr, Vec<Column<'a>>)> {
    program.reactions.iter().find_map(|r| {
        let expr = pick(r)?;
        let bindings = value_bindings(r, values)?;
        expr.vars()
            .iter()
            .all(|v| bindings.iter().any(|(var, _)| var == v))
            .then_some((expr, bindings))
    })
}

/// Each pattern's value variable with the values seen under its label.
fn value_bindings<'a>(
    r: &'a ReactionSpec,
    values: &'a FxHashMap<Symbol, Vec<Value>>,
) -> Option<Vec<Column<'a>>> {
    r.patterns
        .iter()
        .map(|p| match (&p.value, &p.label) {
            (ValuePat::Var(var), LabelPat::Lit(label)) => {
                let seen = values.get(label)?;
                (!seen.is_empty()).then_some((*var, seen.as_slice()))
            }
            _ => None,
        })
        .collect()
}

/// Time `chunk` over `count` candidate bindings drawn from `bindings`:
/// all variables but the last sit in the base slots, the last arrives
/// as the overlay, as when the matcher extends a token by a candidate.
fn time_chunk(
    expr: &Expr,
    bindings: &[Column],
    count: usize,
    mut eval: impl FnMut(&Chunk, &[Option<Value>], &[(u16, Value)]),
) -> f64 {
    let vars = expr.vars();
    let slots: FxHashMap<Symbol, u16> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as u16))
        .collect();
    let chunk = Chunk::compile(expr, &slots);
    let column = |v: &Symbol| {
        bindings
            .iter()
            .find(|(var, _)| var == v)
            .map(|(_, seen)| *seen)
            .expect("timed_expr checked every variable is bound")
    };
    // Candidate i pairs value i of one column with value 7i+1 of the
    // next, so accepted and rejected pairs both occur.
    let candidates: Vec<Candidate> = (0..count)
        .map(|i| {
            let mut base = vec![None; vars.len()];
            let mut extra = Vec::new();
            for (k, v) in vars.iter().enumerate() {
                let col = column(v);
                let value = col[(i * (6 * k + 1) + k) % col.len()].clone();
                if k + 1 == vars.len() {
                    extra.push((k as u16, value));
                } else {
                    base[k] = Some(value);
                }
            }
            (base, extra)
        })
        .collect();
    ns_per_item(&candidates, |(base, extra)| eval(&chunk, base, extra))
}

/// A reaction's guard: its `where`, else its first `if` clause.
fn guard_of(r: &ReactionSpec) -> Option<&Expr> {
    r.where_cond.as_ref().or_else(|| {
        r.clauses.iter().find_map(|c| match &c.guard {
            Guard::If(e) => Some(e),
            _ => None,
        })
    })
}

/// A reaction's first produced value that computes something.
fn action_of(r: &ReactionSpec) -> Option<&Expr> {
    let outputs = r.clauses.iter().flat_map(|c| &c.outputs);
    outputs.map(|o| &o.value).find(|e| !e.vars().is_empty())
}

/// `Chunk::eval_guard` of the workload's own guard and `Chunk::eval` of
/// its action, over values the replay saw under the patterns' labels.
pub fn vm(program: &GammaProgram, replay: &Replay, sheet: &mut Sheet) {
    const CANDIDATES: usize = 16_384;
    if let Some((expr, bindings)) = timed_expr(program, &replay.values, guard_of) {
        let ns = time_chunk(expr, &bindings, CANDIDATES, |c, base, extra| {
            black_box(c.eval_guard(base, extra));
        });
        sheet.put("vm.guard_eval_ns", ns, CANDIDATES as u64);
    }
    if let Some((expr, bindings)) = timed_expr(program, &replay.values, action_of) {
        let ns = time_chunk(expr, &bindings, CANDIDATES, |c, base, extra| {
            black_box(c.eval(base, extra).is_ok());
        });
        sheet.put("vm.action_eval_ns", ns, CANDIDATES as u64);
    }
}

/// Lease round-trip on a pool of one parked worker: the floor under any
/// parallel wave's latency.
pub fn pool(sheet: &mut Sheet) {
    const LEASES: usize = 2_000;
    let pool = WorkerPool::new(1);
    let lease = || pool.try_run_scoped(1, &|_| {});
    for _ in 0..100 {
        lease();
    }
    sheet.put(
        "pool.lease_roundtrip_us",
        median_us(LEASES, lease),
        LEASES as u64,
    );
}

/// `run_to_stable` on a stable session, snapshot and restore.
pub fn session_extras(job: &Job, waves: usize, sheet: &mut Sheet) -> Result<(), String> {
    let mut t = Tracer::new(false);
    let n = Names::new(&mut t);
    let (mut session, _) = ops::start(job, &How::plain(job), &mut t, &n)?;
    let mut ok = ops::run_wave(&mut session, job.initial_firings, &mut t, &n).ok;
    for wave in job.waves.iter().take(waves) {
        ok &= ops::inject_wave(&mut session, wave, job.wave_firings, &mut t, &n).ok;
    }
    if !ok {
        return Err("the session under snapshot did not reach its oracle".into());
    }
    sheet.put(
        "session.wave_fixed_us",
        median_us(32, || session.run_to_stable().is_ok()),
        32,
    );
    let (snapshot_us, reps) = few_median_us(|| (), |()| session.snapshot_state());
    sheet.put("session.snapshot_us", snapshot_us, reps);
    let snapshot = session.snapshot_state();
    let bytes = serde_json::to_string(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    sheet.put("session.snapshot_bytes", bytes as f64, 1);
    let mut restored = true;
    let (restore_us, reps) = few_median_us(
        || snapshot.clone(),
        |copy| {
            let session = Session::restore(&job.program, copy);
            restored &= session.is_ok();
            session
        },
    );
    sheet.put("session.restore_us", restore_us, reps);
    match restored {
        true => Ok(()),
        false => Err("a snapshot did not restore".into()),
    }
}
