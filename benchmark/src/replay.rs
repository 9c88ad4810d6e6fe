//! The layer replay: the Γ loop hand-rolled over the public layer API
//! on a workload's own data — `ElemId::intern` → `ElementBag::insert_id`
//! → `CompiledProgram::compile` → `ReteNetwork::new` → loop
//! {`pick_ready`, `pick_firing`, bag `remove_all` / `insert`,
//! `on_firing_applied`}, and `on_inserted_ids` per injected wave — one
//! span per call. It follows `Session`'s own Rete wave loop call for
//! call (same seed, same rng discipline), and its final multiset is
//! judged by the same oracle.

use crate::spans::{SpanId, Tracer};
use crate::workloads::Job;
use gammaflow_gamma::{CompiledProgram, Firing, ReteNetwork, ReteStats};
use gammaflow_multiset::{ElemId, Element, ElementBag, FxHashMap, Symbol, Value};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Firings kept from the replay for the claim and VM loops, and values
/// kept per label.
const KEPT: usize = 4_096;

/// What the replay produced besides its spans.
pub struct Replay {
    pub root: SpanId,
    pub ok: bool,
    pub fired: u64,
    pub stats: ReteStats,
    /// Wall seconds per op: the whole replay for a batch job, each wave
    /// for a streaming one.
    pub op_secs: Vec<f64>,
    /// Nanoseconds per element of `on_inserted_ids`.
    pub inject_ns_per_elem: f64,
    /// The first firings, in order, for the claim loop.
    pub log: Vec<Firing>,
    /// Every value seen under each label (input and produced), for the
    /// VM loops.
    pub values: FxHashMap<Symbol, Vec<Value>>,
    /// The stable multiset the replay ended with.
    pub final_bag: ElementBag,
}

struct ReplayNames {
    root: u16,
    wave: u16,
    intern: u16,
    insert_id: u16,
    compile: u16,
    build: u16,
    inject: u16,
    pick_ready: u16,
    pick_firing: u16,
    find_any: u16,
    remove: u16,
    insert: u16,
    maintain: u16,
}

/// Span names that are glue, not layers, when the replay's time is
/// attributed.
pub const GLUE: [&str; 2] = ["replay", "replay.wave"];

struct ReplayState<'a> {
    compiled: &'a CompiledProgram,
    bag: ElementBag,
    net: ReteNetwork,
    rng: ChaCha8Rng,
    fired: u64,
    ok: bool,
    log: Vec<Firing>,
    values: FxHashMap<Symbol, Vec<Value>>,
}

impl ReplayState<'_> {
    fn see(&mut self, e: &Element) {
        let seen = self.values.entry(e.label).or_default();
        if seen.len() < KEPT {
            seen.push(e.value.clone());
        }
    }

    /// The session's Rete wave loop, call for call: pick a ready
    /// reaction, read a firing off its memory, edit the bag, feed the
    /// network the delta — until nothing is ready.
    fn run_to_stable(&mut self, t: &mut Tracer, n: &ReplayNames) {
        let order: Vec<usize> = (0..self.compiled.reactions.len()).collect();
        loop {
            let (compiled, bag) = (self.compiled, &self.bag);
            let (net, rng) = (&mut self.net, &mut self.rng);
            let Some(r) = t.span(n.pick_ready, || net.pick_ready(compiled, bag, rng)) else {
                return;
            };
            let picked = t.span(n.pick_firing, || net.pick_firing(compiled, bag, r, rng));
            let firing = match picked {
                Ok(Some(f)) => f,
                // The exact search has the last word, as in the session.
                Ok(None) => {
                    match t.span(n.find_any, || compiled.find_any(&order, bag, Some(rng))) {
                        Ok(Some(f)) => f,
                        Ok(None) => return,
                        Err(_) => {
                            self.ok = false;
                            return;
                        }
                    }
                }
                Err(_) => {
                    self.ok = false;
                    return;
                }
            };
            let bag = &mut self.bag;
            self.ok &= t.span(n.remove, || bag.remove_all(&firing.consumed));
            t.span(n.insert, || {
                for e in &firing.produced {
                    bag.insert(e.clone());
                }
            });
            let (net, bag) = (&mut self.net, &self.bag);
            t.span(n.maintain, || net.on_firing_applied(compiled, bag, &firing));
            self.fired += 1;
            for e in &firing.produced {
                self.see(e);
            }
            if self.log.len() < KEPT {
                self.log.push(firing);
            }
        }
    }
}

/// Intern `elems` and insert the ids, one span per layer; returns the
/// ids in order.
fn load(
    bag: &mut ElementBag,
    elems: &[(Element, usize)],
    t: &mut Tracer,
    n: &ReplayNames,
) -> Vec<ElemId> {
    let ids: Vec<ElemId> = t.span(n.intern, || {
        elems.iter().map(|(e, _)| ElemId::intern(e)).collect()
    });
    t.span(n.insert_id, || {
        for (&id, (_, count)) in ids.iter().zip(elems) {
            bag.insert_id(id, *count);
        }
    });
    ids
}

/// Replay `job` under spans rooted at the returned [`Replay::root`].
pub fn replay(job: &Job, seed: u64, t: &mut Tracer) -> Result<Replay, String> {
    let n = ReplayNames {
        root: t.name("replay"),
        wave: t.name("replay.wave"),
        intern: t.name("arena.intern"),
        insert_id: t.name("bag.insert_id"),
        compile: t.name("compiled.compile"),
        build: t.name("rete.build"),
        inject: t.name("rete.inject"),
        pick_ready: t.name("rete.pick_ready"),
        pick_firing: t.name("rete.pick_firing"),
        find_any: t.name("compiled.find_any"),
        remove: t.name("bag.remove"),
        insert: t.name("bag.insert"),
        maintain: t.name("rete.maintain"),
    };
    let initial: Vec<(Element, usize)> = job.initial.iter_counts().collect();
    let root = t.enter(n.root);
    let t0 = Instant::now();
    let mut bag = ElementBag::new();
    load(&mut bag, &initial, t, &n);
    let compiled = t
        .span(n.compile, || CompiledProgram::compile(&job.program))
        .map_err(|e| format!("{e:?}"))?;
    let net = t.span(n.build, || ReteNetwork::new(&compiled, &bag));
    let mut state = ReplayState {
        compiled: &compiled,
        bag,
        net,
        rng: ChaCha8Rng::seed_from_u64(seed),
        fired: 0,
        ok: true,
        log: Vec::new(),
        values: FxHashMap::default(),
    };
    for (e, _) in &initial {
        state.see(e);
    }
    state.run_to_stable(t, &n);
    let mut op_secs = vec![t0.elapsed().as_secs_f64()];
    let mut injected = 0u64;
    for (i, wave) in job.waves.iter().enumerate() {
        t.op = i as u32;
        let span = t.enter(n.wave);
        let t0 = Instant::now();
        let elems: Vec<(Element, usize)> = wave.iter().map(|e| (e.clone(), 1)).collect();
        let ids = load(&mut state.bag, &elems, t, &n);
        let (net, bag) = (&mut state.net, &state.bag);
        t.span(n.inject, || net.on_inserted_ids(&compiled, bag, &ids));
        injected += ids.len() as u64;
        state.run_to_stable(t, &n);
        op_secs.push(t0.elapsed().as_secs_f64());
        t.exit(span);
        for e in wave {
            state.see(e);
        }
    }
    t.exit(root);
    if !job.waves.is_empty() {
        // Streaming ops are the waves; the empty-start build is set-up.
        op_secs.remove(0);
    }
    let stats = state.net.stats.clone();

    // Injection cost on a batch job: feed a slice of the input back into
    // the stable network (after the counters were read).
    let mut inject_ns_per_elem = match injected {
        0 => 0.0,
        k => t.totals(Some(root)).total_ns("rete.inject") / k as f64,
    };
    let want_fired = job.initial_firings + job.waves.len() as u64 * job.wave_firings;
    let ok =
        state.ok && state.fired == want_fired && state.bag == *job.expected_after(job.waves.len());
    let final_bag = state.bag.clone();
    if injected == 0 {
        let again: Vec<(Element, usize)> = initial.iter().take(64).cloned().collect();
        let ids: Vec<ElemId> = again.iter().map(|(e, _)| ElemId::intern(e)).collect();
        for (&id, (_, count)) in ids.iter().zip(&again) {
            state.bag.insert_id(id, *count);
        }
        let t0 = Instant::now();
        state.net.on_inserted_ids(&compiled, &state.bag, &ids);
        inject_ns_per_elem = t0.elapsed().as_nanos() as f64 / ids.len().max(1) as f64;
    }
    Ok(Replay {
        root,
        ok,
        fired: state.fired,
        stats,
        op_secs,
        inject_ns_per_elem,
        log: state.log,
        values: state.values,
        final_bag,
    })
}
