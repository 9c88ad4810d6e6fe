//! Shared-memory parallel Gamma interpreter.
//!
//! The paper (§II-B) surveys Gamma implementations on the Connection
//! Machine, MasPar, MPI clusters and GPUs; this module is the workspace's
//! substitute — a shared-memory engine whose workers realise the model's
//! "reactions occur freely and in parallel".
//!
//! # One state, one recovery loop
//!
//! A parallel session keeps one state across its waves: the multiset in a
//! [`ShardedBag`], a **key directory** (an append-only `(label → tags)`
//! map giving workers a lock-light view of which buckets exist) and the
//! dependency index, plus what the chosen [`ParEngine`] keeps on top —
//! per-worker network slices, or dirty flags. One wave driver serves both
//! engines. It opens an undo journal on the bag, runs each worker body
//! under `catch_unwind` — a one-worker wave on the calling thread, a wider
//! one on leased workers — and drops the journal when the wave ends. A
//! wave therefore pays for its recovery point in proportion to the claims
//! it commits, not to the bag. When a worker is lost the driver
//! quarantines the attempt: it rolls the journal back, which restores the
//! exact entry multiset, and then replays the wave, degrades to a
//! sequential wave, or surfaces [`ParError::WorkerLost`], as the
//! [`RecoveryPolicy`] says. Every exit goes through one reset: the
//! engine's matcher state is re-derived over the bag — slices rebuilt
//! with their lifetime counters kept, or every dirty flag re-armed.
//! Replay is sound because a wave starts from a quiescent bag that fully
//! describes its input, and by the Generalized Kahn Principle (PAPERS.md)
//! the stable multiset is a function of that input, not of the attempt
//! that computed it; any exact copy of it is as good a start as another.
//!
//! # The sharded-rete engine ([`ParEngine::ShardedRete`], the default)
//!
//! The Rete network of [`crate::rete`] is partitioned across the
//! workers by a static [`SlicePlan`]: reactions
//! are grouped into *dependency components* (union–find over consumed ∪
//! produced label classes) and each component — with every label it
//! touches — is assigned to one worker; labels outside every component
//! fall back to the bag's own shard map
//! ([`gammaflow_multiset::shard_index`]). Each worker maintains a
//! **slice** of the network ([`AlphaSlice`]) that materialises exactly
//! the tokens whose join-order *position-0* element carries a label the
//! worker owns. Deeper join levels complete **cross-shard** by reading
//! candidates from the live bag through the shared [`MatchSource`]
//! search core, so the union of the slices is the full network — every
//! enabled match memorised by exactly one worker. (Component ownership
//! is the Gamma image of the dataflow machines the paper surveys: a
//! label is an instruction edge, the tag its loop iteration, and
//! instructions are assigned to PEs statically, so a loop's firing
//! chain never migrates between workers.)
//!
//! * **Delta mailboxes** — a successful claim publishes the firing's
//!   *net* delta over per-worker crossbeam channels, addressed to the
//!   workers whose slices can be affected (tokens involving a label
//!   live only in its owner's slice, so most firings address a single
//!   mailbox; a wildcard consumer forces full broadcast). Each worker
//!   drains its mailbox before matching, keeping its slice
//!   incrementally consistent. Discovery of enabled reactions is
//!   O(delta): a drained slice answers enabledness by memory read (or a
//!   cached spill probe), never by search. This replaces the
//!   probe-retry engine's heuristic dirty-flag broadcast.
//! * **Claims** — firings are still validated by the atomic
//!   [`ShardedBag::claim_and_replace`]; a slice that raced a concurrent
//!   claimant simply loses the claim and retires the stale token when
//!   the winner's delta arrives.
//! * **Local firing** — a worker fires only what its own slice memorises
//!   or searches, as a dataflow PE fires only on operands that reached
//!   its own store. Exactness and load both live in the slices: their
//!   union is the full network, and a component's firings all run on
//!   its owner, so a fold over one label keeps one worker busy while the
//!   others wait in the termination scan.
//! * **Termination** — exact, from *empty sharded memories*: when every
//!   addressed delta has been processed (`processed[v] == sent[v]` for
//!   all workers `v`), no worker is active, and no slice holds an
//!   enabled match, the union of the slices is the full (exact) network
//!   and proves the paper's global termination state. No lock-all
//!   snapshot search runs; debug builds still cross-check against the
//!   locked-shard exact matcher.
//!
//! # The probe-retry engine ([`ParEngine::ProbeRetry`])
//!
//! * Each worker runs an **optimistic match–claim loop**: search a sampled
//!   [`MatchSource`] view of the bag (stale reads allowed), then claim. A
//!   lost race shows up as a failed claim and the worker retries.
//! * **Termination** uses an authoritative check: a worker whose sampled
//!   search comes up dry locks every shard and runs the exact matcher
//!   over the locked shards.
//! * **Startup pruning**: a level-0-only [`ReteNetwork`] occupancy
//!   probe pre-clears the dirty flags of reactions with no enabled match.
//!
//! Probe-retry is kept to measure one thing: the single-bucket fold,
//! where one worker owns every key and fires every step, while every
//! probe-retry worker searches the one bucket. In-run harness `S4` on a
//! 2-vCPU machine (three runs) put sharded `sum_2048` at 0.66–0.74×
//! probe-retry with one worker, and at 1.09–1.45×, 0.57–1.48× and
//! 1.26–1.38× with 2, 4 and 8, while sharded ran `parallel_loops_16x200`
//! 4.3–7.7× faster. Probe-retry can go once the sharded engine wins that
//! fold at every width.

use crate::compiled::{CompiledProgram, Firing, MatchError, MatchSource, SearchScratch};
use crate::fault::{FaultPlan, WaveFaults};
use crate::pool::WaveDispatch;
use crate::rete::{AlphaSlice, ReteNetwork, ReteReactionCounters, ReteStats, SlicePlan};
use crate::schedule::DependencyIndex;
use crate::seq::{ExecError, ExecResult, ParError, Status};
use crate::session::{seq_fallback_wave, EngineConfig};
use crate::telemetry::{firing_event, Telemetry, TraceEvent, MAIN_WORKER};
use crate::trace::ExecStats;
use crossbeam_channel::{Receiver, Sender};
use gammaflow_multiset::{
    ElemId, Element, ElementBag, FxHashMap, FxHashSet, ShardGuard, ShardedBag, Symbol, Tag, Value,
    ValueBucket,
};
use parking_lot::{Mutex, RwLock};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-reaction dirty flags shared by all workers: a cleared flag means
/// "some worker's sampled probe found nothing for this reaction and no
/// potentially-enabling element has been produced since". Workers skip
/// clean reactions when probing — the parallel image of the sequential
/// delta worklist. The flags are *heuristic* (sampled probes under-read
/// and clearing races with concurrent producers); termination never
/// depends on them because the snapshot check stays exact over every
/// reaction.
struct DirtyFlags {
    flags: Vec<AtomicBool>,
}

impl DirtyFlags {
    fn new(n: usize) -> DirtyFlags {
        DirtyFlags {
            flags: (0..n).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    fn set(&self, r: usize) {
        self.flags[r].store(true, Ordering::Release);
    }

    fn clear(&self, r: usize) {
        self.flags[r].store(false, Ordering::Release);
    }

    fn collect_dirty(&self, out: &mut Vec<usize>) {
        out.clear();
        for (r, f) in self.flags.iter().enumerate() {
            if f.load(Ordering::Acquire) {
                out.push(r);
            }
        }
    }
}

/// Which parallel engine drives the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum ParEngine {
    /// Delta-driven sharded Rete matching (the default): each worker owns
    /// a slice of the `(label, tag)` alpha space and reads enabled
    /// matches from its incrementally maintained network slice. See the
    /// module docs.
    #[default]
    ShardedRete,
    /// The sampled optimistic probe-and-retry loop with heuristic dirty
    /// flags — the pre-sharding engine, kept because it still beats
    /// sharded Rete on the single-bucket fold (see the module docs).
    ProbeRetry,
}

/// What a parallel wave does when a worker thread dies mid-wave. Worker
/// bodies run under `catch_unwind`, so a panic never aborts the host
/// process; this policy decides what happens next. The drained-memories
/// termination proof is what makes replay sound: a wave begins from a
/// provably quiescent state (every prior delta processed), so the
/// wave-entry bag is a complete description of the wave's input and
/// replaying from it recomputes the same stable multiset (the Kahn-style
/// input-determinacy argument from PAPERS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryPolicy {
    /// How many times a poisoned wave is replayed from its entry multiset
    /// before `on_exhausted` applies. While it is above `0`, every wave
    /// keeps an undo journal of its committed claims (as arena ids, in the
    /// shards they edit), and a lost worker's attempt is rolled back
    /// through it. `0` keeps no journal: a lost worker then surfaces as
    /// [`ParError::WorkerLost`] immediately, with the bag keeping the
    /// partial wave's atomically committed claims (a legal reachable
    /// multiset — each claim is one Γ step).
    pub max_replays: u32,
    /// The action once replays are exhausted.
    pub on_exhausted: OnExhausted,
}

/// Terminal action of a [`RecoveryPolicy`] whose replays are exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum OnExhausted {
    /// Surface [`ParError::WorkerLost`]; the engine state is restored to
    /// the wave entry, so the session stays usable.
    #[default]
    Error,
    /// Run the wave to completion sequentially (single-threaded, exact)
    /// on the restored wave-entry bag — availability over parallelism
    /// when the fault keeps recurring.
    DegradeToSeq,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_replays: 2,
            on_exhausted: OnExhausted::Error,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that keeps no undo journal and never replays: a lost
    /// worker is an immediate [`ParError::WorkerLost`], and claims record
    /// nothing beyond their edit.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_replays: 0,
            on_exhausted: OnExhausted::Error,
        }
    }
}

/// Extra counters reported by a parallel run.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ParStats {
    /// Claims that lost a race and were retried.
    pub claim_failures: u64,
    /// Sampled searches that found nothing (probe-retry engine).
    pub dry_probes: u64,
    /// Authoritative locked-shard checks performed (probe-retry engine;
    /// for the sharded engine this counts only the debug-build
    /// cross-check of the memory-emptiness termination proof).
    pub snapshot_checks: u64,
    /// Reactions whose dirty flag was pre-cleared at startup because the
    /// level-0-only rete occupancy probe found no enabled match for
    /// them (probe-retry engine).
    pub rete_precleared: u64,
    /// Firings whose net delta was broadcast to the worker mailboxes
    /// (sharded engine; equals the total firings).
    pub deltas_published: u64,
    /// Delta messages drained from mailboxes, summed over workers
    /// (sharded engine). When the run ends drained this equals the sum
    /// of per-firing *addressed* workers — `deltas_published` itself for
    /// a single-component program, up to `deltas_published × workers`
    /// when a wildcard consumer forces broadcast.
    pub deltas_processed: u64,
    /// Always zero: a sharded worker fires only from its own slice and
    /// never searches another's. Kept so that readers of the counter
    /// still compile.
    pub stolen_firings: u64,
    /// Always zero, like [`ParStats::stolen_firings`].
    pub steal_misses: u64,
    /// Join levels demoted to virtual by the token watermark, summed over
    /// the startup occupancy probe (probe-retry) and every worker slice
    /// (sharded).
    pub spill_demotions: u64,
    /// Frontier-completion enabledness probes for spilled reactions,
    /// summed like [`ParStats::spill_demotions`].
    pub spill_probes: u64,
    /// Per-worker peak live beta tokens across that worker's rete slice
    /// (sharded engine) — the committed `BENCH_parallel.json` records the
    /// maximum, and the equivalence suite asserts each entry stays within
    /// the watermark plus the slice's level 0 plus one delta burst.
    pub shard_peak_tokens: Vec<u64>,
    /// Worker threads lost to a caught panic, summed over all waves and
    /// replay attempts.
    pub workers_lost: u64,
    /// Poisoned-wave replays performed under the [`RecoveryPolicy`].
    pub waves_replayed: u64,
    /// Waves completed by the sequential fallback after the replay budget
    /// ran out ([`OnExhausted::DegradeToSeq`]).
    pub degraded_waves: u64,
    /// Wave attempts of two or more workers that ran on workers leased
    /// from a parked [`crate::pool::WorkerPool`]. A one-worker attempt
    /// runs inline on the calling thread and counts here no more than in
    /// `pool_spawns`.
    pub pool_leases: u64,
    /// Wave attempts of two or more workers that fell back to per-wave
    /// scoped thread spawn (pool full, or dispatch configured as
    /// [`crate::pool::WaveDispatch::SpawnPerWave`]).
    pub pool_spawns: u64,
}

impl ParStats {
    /// Merge another block's **wave-level** scalar counters (worker
    /// folds, session waves). The slice-lifetime fields
    /// (`rete_precleared`, `spill_*`, `shard_peak_tokens`) are
    /// deliberately excluded — they are folded once, at finish time, by
    /// `ParState::fold_lifetime_stats` — and the recovery
    /// counters (`workers_lost`, `waves_replayed`, `degraded_waves`) are
    /// incremented directly by the recovery loop, never carried by a
    /// worker's per-wave block.
    fn absorb_wave_counters(&mut self, other: &ParStats) {
        // Exhaustive destructuring so a new counter must be placed here
        // deliberately — either merged or explicitly discarded with a
        // reason — instead of being silently dropped.
        let ParStats {
            claim_failures,
            dry_probes,
            snapshot_checks,
            rete_precleared: _, // lifetime: folded by fold_lifetime_stats
            deltas_published,
            deltas_processed,
            stolen_firings,
            steal_misses,
            spill_demotions: _,   // lifetime: folded by fold_lifetime_stats
            spill_probes: _,      // lifetime: folded by fold_lifetime_stats
            shard_peak_tokens: _, // lifetime: folded by fold_lifetime_stats
            workers_lost: _,      // recovery: incremented by the wave loop
            waves_replayed: _,    // recovery: incremented by the wave loop
            degraded_waves: _,    // recovery: incremented by the wave loop
            pool_leases: _,       // dispatch: incremented by run_workers
            pool_spawns: _,       // dispatch: incremented by run_workers
        } = other;
        self.claim_failures += claim_failures;
        self.dry_probes += dry_probes;
        self.snapshot_checks += snapshot_checks;
        self.deltas_published += deltas_published;
        self.deltas_processed += deltas_processed;
        self.stolen_firings += stolen_firings;
        self.steal_misses += steal_misses;
    }

    /// Full merge of two completed runs' counters (cross-session
    /// aggregation, e.g. summing several benchmark repetitions). Scalar
    /// counters — including the lifetime and recovery fields the
    /// wave-level merge (`absorb_wave_counters`) excludes — add; the per-worker
    /// [`ParStats::shard_peak_tokens`] lists concatenate, preserving "one
    /// entry per worker slice lifetime".
    pub fn absorb(&mut self, other: &ParStats) {
        let ParStats {
            claim_failures,
            dry_probes,
            snapshot_checks,
            rete_precleared,
            deltas_published,
            deltas_processed,
            stolen_firings,
            steal_misses,
            spill_demotions,
            spill_probes,
            shard_peak_tokens,
            workers_lost,
            waves_replayed,
            degraded_waves,
            pool_leases,
            pool_spawns,
        } = other;
        self.claim_failures += claim_failures;
        self.dry_probes += dry_probes;
        self.snapshot_checks += snapshot_checks;
        self.rete_precleared += rete_precleared;
        self.deltas_published += deltas_published;
        self.deltas_processed += deltas_processed;
        self.stolen_firings += stolen_firings;
        self.steal_misses += steal_misses;
        self.spill_demotions += spill_demotions;
        self.spill_probes += spill_probes;
        self.shard_peak_tokens.extend_from_slice(shard_peak_tokens);
        self.workers_lost += workers_lost;
        self.waves_replayed += waves_replayed;
        self.degraded_waves += degraded_waves;
        self.pool_leases += pool_leases;
        self.pool_spawns += pool_spawns;
    }
}

/// Per-wave RNG stream base, shared by both parallel engines so their
/// seed derivation can never silently diverge: wave 0 uses
/// [`EngineConfig::seed`] itself.
fn wave_seed(seed: u64, wave_index: u64) -> u64 {
    seed.wrapping_add(wave_index.wrapping_mul(0x517c_c1b7_2722_0a95))
}

/// Result of a parallel session ([`Session::finish_parallel`](crate::session::Session::finish_parallel)):
/// the usual [`ExecResult`] plus engine counters.
#[derive(Debug, Clone)]
pub struct ParResult {
    /// Final multiset, status, and firing statistics.
    pub exec: ExecResult,
    /// Parallel-engine counters.
    pub par: ParStats,
}

/// Label → tag directory. Append-only superset of keys ever present; empty
/// buckets are skipped naturally when probed.
struct Directory {
    map: RwLock<FxHashMap<Symbol, FxHashSet<Tag>>>,
}

impl Directory {
    fn new(initial: &ElementBag) -> Directory {
        let mut map: FxHashMap<Symbol, FxHashSet<Tag>> = FxHashMap::default();
        for (e, _) in initial.iter_counts() {
            map.entry(e.label).or_default().insert(e.tag);
        }
        Directory {
            map: RwLock::new(map),
        }
    }

    fn note(&self, label: Symbol, tag: Tag) {
        {
            let g = self.map.read();
            if g.get(&label).is_some_and(|tags| tags.contains(&tag)) {
                return;
            }
        }
        self.map.write().entry(label).or_default().insert(tag);
    }

    fn labels(&self) -> Vec<Symbol> {
        self.map.read().keys().copied().collect()
    }

    fn tags(&self, label: Symbol) -> Vec<Tag> {
        self.map
            .read()
            .get(&label)
            .map(|tags| tags.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Dump every `(label, tags)` entry, sorted for a canonical snapshot
    /// encoding. The directory is an append-only *superset* of live keys,
    /// so persisting it verbatim (rather than re-deriving it from the
    /// bag) keeps a restored session's probe surface identical.
    fn export(&self) -> Vec<(Symbol, Vec<Tag>)> {
        let mut out: Vec<(Symbol, Vec<Tag>)> = self
            .map
            .read()
            .iter()
            .map(|(label, tags)| {
                let mut tags: Vec<Tag> = tags.iter().copied().collect();
                tags.sort_unstable_by_key(|t| t.0);
                (*label, tags)
            })
            .collect();
        out.sort_unstable_by_key(|(label, _)| label.index());
        out
    }

    /// Re-note exported entries (restore path).
    fn preload(&self, entries: &[(Symbol, Vec<Tag>)]) {
        let mut g = self.map.write();
        for (label, tags) in entries {
            g.entry(*label).or_default().extend(tags.iter().copied());
        }
    }
}

/// Count `n` keys or rows read by a sharded source; tests read the
/// per-thread total.
#[inline(always)]
fn note_rows_read(n: usize) {
    #[cfg(test)]
    tests::ROWS_READ.with(|c| c.set(c.get() + n));
    #[cfg(not(test))]
    let _ = n;
}

/// A sampled, lock-per-probe view of the sharded bag for worker search.
///
/// A bucket longer than `sample_cap` rows shows only a salted window:
/// `sample_cap` consecutive physical rows (wrapping) from a per-probe
/// pseudo-random offset. Missed candidates are recovered by retries or
/// the terminal locked-shard check. Rows are read one at a time under a
/// transient shard lock, so a probe reads the rows it tries and never
/// copies the bucket.
///
/// The window counts dead rows, so it can hold no live row at all when
/// it falls inside a run of consumed rows. Compaction keeps dead rows at
/// most `max(live, 8)`, so once the window is wider than 8 rows fewer
/// than half of the offsets land wholly on dead rows. Each retry draws
/// a fresh salt, so fewer than one empty window is expected before one
/// that shows a live row.
struct ShardedView<'a> {
    bag: &'a ShardedBag,
    directory: &'a Directory,
    sample_cap: usize,
    salt: u64,
}

impl ShardedView<'_> {
    /// Row `i` of the window over `bucket`, or `None` past its end.
    fn window_row<'b>(&self, bucket: &'b ValueBucket, i: usize) -> Option<(&'b Value, usize)> {
        let rows = bucket.row_count();
        if i >= rows.min(self.sample_cap) {
            return None;
        }
        let start = if rows > self.sample_cap {
            (self.salt % rows as u64) as usize
        } else {
            0
        };
        bucket.row((start + i) % rows)
    }
}

impl MatchSource for ShardedView<'_> {
    fn all_labels(&self) -> Vec<Symbol> {
        let out = self.directory.labels();
        note_rows_read(out.len());
        out
    }

    fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
        let out = self.directory.tags(label);
        note_rows_read(out.len());
        out
    }

    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
        let shard = self.bag.shard_of(label, tag);
        let out = self.bag.with_shard(shard, |b| {
            let Some(bucket) = b.bucket(label, tag) else {
                return Vec::new();
            };
            (0..)
                .map_while(|i| self.window_row(bucket, i))
                .filter(|&(_, c)| c > 0)
                .map(|(v, c)| (v.clone(), c))
                .collect()
        });
        note_rows_read(out.len());
        out
    }

    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
        note_rows_read(1);
        let shard = self.bag.shard_of(label, tag);
        self.bag.with_shard(shard, |b| {
            b.bucket(label, tag).map_or(0, |x| x.count(value))
        })
    }

    fn row_count(&self, label: Symbol, tag: Tag) -> usize {
        let shard = self.bag.shard_of(label, tag);
        let rows = self
            .bag
            .with_shard(shard, |b| b.bucket(label, tag).map_or(0, |x| x.row_count()));
        rows.min(self.sample_cap)
    }

    fn row(&self, label: Symbol, tag: Tag, i: usize) -> Option<(Value, usize)> {
        // The window is re-derived from the live bucket: one edited since
        // `row_count` shifts it, which only hides candidates or offers
        // ones the claim re-validates.
        note_rows_read(1);
        let shard = self.bag.shard_of(label, tag);
        self.bag.with_shard(shard, |b| {
            let (value, count) = self.window_row(b.bucket(label, tag)?, i)?;
            Some((value.clone(), count))
        })
    }
}

/// An exact, allocation-free [`MatchSource`] over a fully locked
/// [`ShardedBag`]: the terminal stability check searches the live shards
/// in place instead of cloning the whole bag into a snapshot (every
/// `(label, tag)` bucket lives in exactly one shard, so per-bucket
/// accessors are single-guard lookups). Lock order matches
/// `claim_and_replace`, so concurrent claimants block but never deadlock.
struct LockedShards<'a> {
    bag: &'a ShardedBag,
    guards: Vec<ShardGuard<'a>>,
}

impl<'a> LockedShards<'a> {
    fn lock(bag: &'a ShardedBag) -> LockedShards<'a> {
        LockedShards {
            bag,
            guards: bag.lock_all(),
        }
    }

    fn shard(&self, label: Symbol, tag: Tag) -> &ElementBag {
        &self.guards[self.bag.shard_of(label, tag)]
    }
}

impl MatchSource for LockedShards<'_> {
    fn all_labels(&self) -> Vec<Symbol> {
        let mut seen: FxHashSet<Symbol> = FxHashSet::default();
        for g in &self.guards {
            seen.extend(g.labels());
        }
        seen.into_iter().collect()
    }

    fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
        // A (label, tag) key is co-located in one shard, so the per-shard
        // tag sets are disjoint and concatenation needs no dedup.
        self.guards.iter().flat_map(|g| g.tags_for(label)).collect()
    }

    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
        self.shard(label, tag).values_at(label, tag)
    }

    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
        self.shard(label, tag).count_at(label, tag, value)
    }

    fn visit_tags(&self, label: Symbol, f: &mut dyn FnMut(Tag) -> bool) {
        for g in &self.guards {
            for tag in g.tags_for(label) {
                if !f(tag) {
                    return;
                }
            }
        }
    }

    fn visit_values(&self, label: Symbol, tag: Tag, f: &mut dyn FnMut(&Value, usize) -> bool) {
        self.shard(label, tag).visit_values(label, tag, f);
    }

    fn row_count(&self, label: Symbol, tag: Tag) -> usize {
        self.shard(label, tag).row_count(label, tag)
    }

    fn row(&self, label: Symbol, tag: Tag, i: usize) -> Option<(Value, usize)> {
        self.shard(label, tag).row(label, tag, i)
    }
}

/// Persistent state of a parallel session across its waves, for both
/// engines: the sharded bag, the key directory and the dependency index
/// once, plus what the engine keeps on top of them ([`ParMatcher`]).
/// Worker threads — and, for the sharded engine, the delta mailboxes —
/// are scoped per wave; everything here survives.
pub(crate) struct ParState {
    deps: DependencyIndex,
    bag: ShardedBag,
    directory: Directory,
    workers: usize,
    nreactions: usize,
    sample_cap: usize,
    seed: u64,
    matcher: ParMatcher,
}

/// What each parallel engine keeps beyond the shared multiset.
enum ParMatcher {
    /// The per-worker [`ReteNetwork`] slices of the static [`SlicePlan`].
    /// Their alpha/beta memories and demoted levels carry over from wave
    /// to wave: a wave ends with every mailbox provably drained, so the
    /// surviving slices are exact and the next wave resumes from them.
    Sharded {
        plan: Arc<SlicePlan>,
        slices: Vec<ReteNetwork>,
        watermark: usize,
    },
    /// The heuristic dirty flags (injection re-arms exactly the
    /// dependents of injected labels — the delta discipline of the
    /// sequential worklist) and the startup occupancy probe's accounting,
    /// folded into [`ParStats`] at finish time.
    Probe {
        dirty: DirtyFlags,
        rete_precleared: u64,
        probe_stats: ReteStats,
    },
}

/// Worker `w`'s slice of the network over `bag`.
fn build_slice(
    compiled: &CompiledProgram,
    bag: &ElementBag,
    watermark: usize,
    plan: &Arc<SlicePlan>,
    w: usize,
) -> ReteNetwork {
    ReteNetwork::with_slice(
        compiled,
        bag,
        watermark,
        AlphaSlice {
            plan: plan.clone(),
            worker: w,
        },
    )
}

impl ParState {
    /// Build `engine`'s state over `initial` (see the module docs).
    pub(crate) fn build(
        compiled: &CompiledProgram,
        engine: ParEngine,
        initial: ElementBag,
        config: &EngineConfig,
    ) -> ParState {
        let nreactions = compiled.reactions.len();
        let workers = config.workers.max(1);
        let bag = ShardedBag::new(config.shards);
        let matcher = match engine {
            ParEngine::ShardedRete => {
                let plan = Arc::new(SlicePlan::build(compiled, workers, bag.num_shards()));
                // Each slice is built over the plain initial bag (a
                // coherent pre-sharding view); the live engine reads the
                // sharded bag through the same MatchSource core.
                let slices = (0..workers)
                    .map(|w| build_slice(compiled, &initial, config.rete_watermark, &plan, w))
                    .collect();
                ParMatcher::Sharded {
                    plan,
                    slices,
                    watermark: config.rete_watermark,
                }
            }
            ParEngine::ProbeRetry => {
                // Startup pruning: a rete probe over the initial multiset
                // answers exact per-reaction enabledness; at watermark 0 it
                // demotes every level above the level-0 frontier on first
                // use, so it keeps at most one token per element (none for
                // a searched reaction) and answers deeper levels by
                // on-demand search. Reactions with no enabled match start
                // clean, and workers skip probing them until
                // something they consume is produced. The locked-shard
                // terminal check stays the exactness backstop either way.
                let dirty = DirtyFlags::new(nreactions);
                let mut rete_precleared = 0u64;
                let mut probe_stats = ReteStats::default();
                if nreactions > 0 {
                    let mut probe = ReteNetwork::with_watermark(compiled, &initial, 0);
                    for r in 0..nreactions {
                        if !probe.has_match(compiled, &initial, r) {
                            dirty.clear(r);
                            rete_precleared += 1;
                        }
                    }
                    probe_stats = probe.stats.clone();
                }
                ParMatcher::Probe {
                    dirty,
                    rete_precleared,
                    probe_stats,
                }
            }
        };
        let directory = Directory::new(&initial);
        bag.insert_all(initial.iter());
        ParState {
            deps: DependencyIndex::new(compiled),
            bag,
            directory,
            workers,
            nreactions,
            sample_cap: config.sample_cap,
            seed: config.seed,
            matcher,
        }
    }

    /// Inject new elements between waves: insert into the sharded bag,
    /// note directory keys, and hand the engine its insertion delta. The
    /// probe-retry engine re-arms the dirty flags of reactions consuming
    /// an injected label. The sharded engine feeds the slices by the
    /// mailbox addressing rule ([`SharedRun::publish`]): every token
    /// involving a label lives in its component owner's slice, so each
    /// element routes to exactly `plan.owner_of(label)` — skipping labels
    /// no reaction consumes — and only a wildcard consumer forces delivery
    /// to every slice.
    pub(crate) fn inject(&mut self, compiled: &CompiledProgram, elements: &[Element]) {
        let ParState {
            deps,
            bag,
            directory,
            matcher,
            ..
        } = self;
        for e in elements {
            directory.note(e.label, e.tag);
        }
        bag.insert_all(elements.iter().cloned());
        match matcher {
            ParMatcher::Probe { dirty, .. } => {
                for e in elements {
                    deps.for_each_dependent(e.label, |r| dirty.set(r));
                }
            }
            ParMatcher::Sharded { plan, slices, .. } => {
                let src = ShardedSource { bag, directory };
                if plan.wildcard_consumer() {
                    for slice in slices.iter_mut() {
                        slice.on_inserted(compiled, &src, elements);
                    }
                    return;
                }
                let mut per_worker: Vec<Vec<Element>> = vec![Vec::new(); slices.len()];
                for e in elements {
                    if deps.has_dependents(e.label) {
                        per_worker[plan.owner_of(e.label)].push(e.clone());
                    }
                }
                for (slice, batch) in slices.iter_mut().zip(&per_worker) {
                    if !batch.is_empty() {
                        slice.on_inserted(compiled, &src, batch);
                    }
                }
            }
        }
    }

    /// A consistent copy of the live multiset.
    pub(crate) fn snapshot(&self) -> ElementBag {
        self.bag.snapshot()
    }

    /// Move the multiset out and [`reset`](Self::reset) the matcher state
    /// over the empty bag — the pipeline chaining primitive.
    pub(crate) fn drain(&mut self, compiled: &CompiledProgram) -> ElementBag {
        let out = self.bag.drain();
        let kept = self.slice_stats();
        self.reset(compiled, &ElementBag::new(), &kept);
        out
    }

    /// Consume the state, returning the final multiset.
    pub(crate) fn into_bag(self) -> ElementBag {
        self.bag.drain()
    }

    /// Fold the lifetime counters — the slices' spill/peak figures, or the
    /// occupancy probe's accounting — into `par`. Wave-level counters are
    /// aggregated per wave; these would double-count if folded then.
    pub(crate) fn fold_lifetime_stats(&self, par: &mut ParStats) {
        match &self.matcher {
            ParMatcher::Sharded { slices, .. } => {
                for slice in slices {
                    par.spill_demotions += slice.stats.spill_demotions;
                    par.spill_probes += slice.stats.spill_probes;
                    par.shard_peak_tokens.push(slice.stats.peak_live_tokens);
                }
            }
            ParMatcher::Probe {
                rete_precleared,
                probe_stats,
                ..
            } => {
                par.rete_precleared += rete_precleared;
                par.spill_demotions += probe_stats.spill_demotions;
                par.spill_probes += probe_stats.spill_probes;
            }
        }
    }

    /// Export the key directory for a session snapshot.
    pub(crate) fn directory_export(&self) -> Vec<(Symbol, Vec<Tag>)> {
        self.directory.export()
    }

    /// Re-note exported directory entries (session restore).
    pub(crate) fn directory_preload(&self, entries: &[(Symbol, Vec<Tag>)]) {
        self.directory.preload(entries);
    }

    /// Elements currently in the live multiset.
    pub(crate) fn len(&self) -> usize {
        self.bag.len()
    }

    /// Drain the per-reaction Rete counters of every slice, summed per
    /// reaction (`None` for probe-retry, which keeps no network). Peaks
    /// are summed too — across slices they measure the reaction's total
    /// materialised capacity, matching the
    /// [`ReactionProfile::peak_beta_tokens`](crate::telemetry::ReactionProfile)
    /// doc.
    pub(crate) fn take_reaction_counters(&mut self) -> Option<Vec<ReteReactionCounters>> {
        let ParMatcher::Sharded { slices, .. } = &mut self.matcher else {
            return None;
        };
        let mut out = vec![ReteReactionCounters::default(); self.nreactions];
        for slice in slices {
            for (r, c) in slice.take_reaction_counters().into_iter().enumerate() {
                out[r].guard_evals += c.guard_evals;
                out[r].guard_rejects += c.guard_rejects;
                out[r].peak_tokens += c.peak_tokens;
            }
        }
        Some(out)
    }

    /// `(slice count, beta tokens created across all slices)` — the
    /// [`TraceEvent::ReteBuilt`] payload; `None` for probe-retry.
    pub(crate) fn slices_info(&self) -> Option<(usize, u64)> {
        let ParMatcher::Sharded { slices, .. } = &self.matcher else {
            return None;
        };
        let tokens = slices.iter().map(|s| s.stats.tokens_created).sum();
        Some((slices.len(), tokens))
    }

    /// Each slice's lifetime counters, in worker order (empty for
    /// probe-retry).
    fn slice_stats(&self) -> Vec<ReteStats> {
        match &self.matcher {
            ParMatcher::Sharded { slices, .. } => slices.iter().map(|s| s.stats.clone()).collect(),
            ParMatcher::Probe { .. } => Vec::new(),
        }
    }

    /// The one reset, shared by every recovery exit and by
    /// [`ParState::drain`]: make `bag` the live multiset and re-derive the
    /// matcher state over it. Probe-retry re-arms every dirty flag, since a
    /// failed attempt may have cleared flags against a multiset that is
    /// gone. The sharded engine rebuilds every slice, since a panicked
    /// worker's slice unwound with its thread and the survivors describe a
    /// multiset that is gone. One counter rule: slice `w` starts from
    /// `kept[w]`, its predecessor's lifetime counters, with the
    /// predecessor's live tokens counted as retired and the rebuild's own
    /// work added.
    fn reset(&mut self, compiled: &CompiledProgram, bag: &ElementBag, kept: &[ReteStats]) {
        self.bag.drain();
        self.bag.insert_all(bag.iter());
        for (e, _) in bag.iter_counts() {
            self.directory.note(e.label, e.tag);
        }
        match &mut self.matcher {
            ParMatcher::Probe { dirty, .. } => *dirty = DirtyFlags::new(self.nreactions),
            ParMatcher::Sharded {
                plan,
                slices,
                watermark,
            } => {
                *slices = (0..self.workers)
                    .map(|w| {
                        let mut slice = build_slice(compiled, bag, *watermark, plan, w);
                        let mut stats = kept[w].clone();
                        stats.tokens_retired = stats.tokens_created;
                        stats.absorb(&slice.stats);
                        slice.stats = stats;
                        slice
                    })
                    .collect();
            }
        }
    }

    /// One wave (see the module docs), replayed from its entry multiset
    /// under `ctl.recovery` if a worker is lost. This is the one place a
    /// lost worker is handled: quarantine, replay, degrade to the
    /// sequential fallback, or surface [`ParError::WorkerLost`] — each
    /// exit through [`ParState::reset`]. Wave-level counters are added to
    /// `par`; the wave's firing stats and status are returned.
    pub(crate) fn wave(
        &mut self,
        compiled: &CompiledProgram,
        budget: u64,
        wave_index: u64,
        par: &mut ParStats,
        ctl: &WaveCtl<'_>,
    ) -> Result<(ExecStats, Status), ExecError> {
        if self.nreactions == 0 {
            return Ok((ExecStats::new(0), Status::Stable));
        }
        if budget == 0 {
            return Ok((ExecStats::new(self.nreactions), Status::BudgetExhausted));
        }

        // Recovery point: the bag between waves is quiescent (either
        // engine's termination check certified it), so it is the valid
        // replay point, and undoing the attempt's own claims gets back to
        // it. The bag journals those claims as ids, O(claims) rather than
        // a copy of the bag; no journal when replay is disabled. `kept`
        // holds the slices' counters at the same point.
        let journal = ctl.recovery.max_replays > 0;
        let kept = self.slice_stats();
        let mut attempt: u32 = 0;
        loop {
            if journal {
                self.bag.open_journal();
            }
            let wf = WaveFaults::new(ctl.faults, wave_index, attempt, ctl.tel);
            let workers = match self.attempt(compiled, budget, wave_index, par, wf, ctl) {
                Ok(out) => {
                    self.bag.close_journal();
                    par.waves_replayed += u64::from(attempt);
                    return Ok(out);
                }
                Err(WaveFailure::Exec(e)) => {
                    self.bag.close_journal();
                    return Err(e);
                }
                Err(WaveFailure::Lost(workers)) => workers,
            };
            par.workers_lost += workers.len() as u64;
            if ctl.tel.enabled() {
                ctl.emit(
                    wave_index,
                    TraceEvent::WaveQuarantined {
                        wave: wave_index,
                        attempt,
                        workers_lost: workers.len() as u64,
                    },
                );
            }
            // Quarantine the poisoned attempt. Every worker has been
            // joined, so rolling the journal back restores the exact entry
            // multiset. With no journal the bag keeps the partial wave's
            // atomically committed claims — a legal reachable multiset.
            // Either way the matcher state is reset over the bag, so the
            // session stays structurally usable.
            self.bag.rollback_journal();
            let entry = self.bag.snapshot();
            self.reset(compiled, &entry, &kept);
            if attempt < ctl.recovery.max_replays {
                attempt += 1;
                if ctl.tel.enabled() {
                    ctl.emit(
                        wave_index,
                        TraceEvent::WaveReplayed {
                            wave: wave_index,
                            attempt,
                        },
                    );
                }
                continue;
            }
            // Without a journal there is no entry multiset to degrade from.
            if !journal || ctl.recovery.on_exhausted == OnExhausted::Error {
                return Err(ParError::WorkerLost {
                    workers,
                    replays: attempt,
                }
                .into());
            }
            par.waves_replayed += u64::from(attempt);
            par.degraded_waves += 1;
            if ctl.tel.enabled() {
                ctl.emit(wave_index, TraceEvent::DegradedToSeq { wave: wave_index });
            }
            let mut bag = entry;
            let out = seq_fallback_wave(compiled, &mut bag, budget, wave_index, ctl)?;
            let kept = self.slice_stats();
            self.reset(compiled, &bag, &kept);
            return Ok(out);
        }
    }

    /// A single attempt at a wave: the engine's worker bodies run under
    /// [`run_workers`]. The sharded workers take their persistent slices
    /// from per-worker slots and hand them back with their results. Only
    /// a successful attempt adds its wave counters to `par`; the dispatch
    /// counters are added either way.
    fn attempt(
        &mut self,
        compiled: &CompiledProgram,
        budget: u64,
        wave: u64,
        par: &mut ParStats,
        wf: WaveFaults<'_>,
        ctl: &WaveCtl<'_>,
    ) -> Result<(ExecStats, Status), WaveFailure> {
        let ParState {
            ref deps,
            ref bag,
            ref directory,
            workers,
            nreactions,
            sample_cap,
            seed,
            ref mut matcher,
        } = *self;
        let tel = ctl.tel;
        let wave_seed = wave_seed(seed, wave);
        let done = AtomicBool::new(false);
        let budget_exhausted = AtomicBool::new(false);
        let error: Mutex<Option<MatchError>> = Mutex::new(None);
        let mut stats = ExecStats::new(nreactions);
        let mut wave_par = ParStats::default();

        match matcher {
            ParMatcher::Probe { dirty, .. } => {
                let firings_global = AtomicU64::new(0);
                let checker = Mutex::new(());
                let outs = run_workers(workers, &done, par, ctl, |w| {
                    probe_worker_loop(ProbeWorkerCtx {
                        compiled,
                        bag,
                        directory,
                        deps,
                        dirty,
                        done: &done,
                        budget_exhausted: &budget_exhausted,
                        firings_global: &firings_global,
                        checker: &checker,
                        error: &error,
                        budget,
                        sample_cap,
                        wave_seed,
                        nreactions,
                        w,
                        wf,
                        tel,
                        wave,
                    })
                })?;
                for (s, p) in &outs {
                    stats.absorb(s);
                    wave_par.absorb_wave_counters(p);
                }
            }
            ParMatcher::Sharded { plan, slices, .. } => {
                // The receivers stay owned out here so leftover deltas can
                // be drained into the slices after the wave.
                let (senders, receivers): (Vec<_>, Vec<_>) = (0..workers)
                    .map(|_| -> DeltaChannel { crossbeam_channel::unbounded() })
                    .unzip();
                let published = AtomicU64::new(0);
                let sent: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
                let processed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
                let active: Vec<AtomicBool> = (0..workers).map(|_| AtomicBool::new(true)).collect();
                let shared = SharedRun {
                    compiled,
                    deps,
                    plan,
                    bag,
                    directory,
                    senders: &senders,
                    published: &published,
                    sent: &sent,
                    processed: &processed,
                    active: &active,
                    done: &done,
                    budget_exhausted: &budget_exhausted,
                    error: &error,
                    max_firings: budget,
                    tel,
                    wave,
                };
                let slots: Vec<Mutex<Option<ReteNetwork>>> = std::mem::take(slices)
                    .into_iter()
                    .map(|s| Mutex::new(Some(s)))
                    .collect();
                let outs = run_workers(workers, &done, par, ctl, |w| {
                    let slice = slots[w]
                        .lock()
                        .take()
                        .expect("each worker index runs once per wave");
                    sharded_worker(&shared, w, slice, &receivers[w], wave_seed, nreactions, wf)
                })?;
                // Hand the slices back for the next wave. A wave that
                // stopped on budget exits workers the moment `done` flips,
                // which can strand published deltas in their mailboxes —
                // drain them into the slices now, or a resumed wave would
                // fire from memories that disagree with the bag. (Sound: a
                // claim's publish completes before the claimant re-checks
                // `stopped`, so every message is already in its mailbox by
                // the time the workers are joined.)
                let src = ShardedSource { bag, directory };
                // Exactly one slot per worker: a session keeps this Vec
                // between waves, so spare capacity would stay resident.
                slices.reserve_exact(workers);
                for ((s, p, mut slice), rx) in outs.into_iter().zip(&receivers) {
                    while let Ok(msg) = rx.try_recv() {
                        slice.on_removed_ids(compiled, &src, &msg.removed);
                        slice.on_inserted_ids(compiled, &src, &msg.inserted);
                    }
                    stats.absorb(&s);
                    wave_par.absorb_wave_counters(&p);
                    slices.push(slice);
                }
                wave_par.deltas_published = published.load(Ordering::Acquire);
            }
        }

        // Error before aggregation: a failed wave contributes nothing to
        // the session's cumulative counters, and the error propagating out
        // of `run_to_stable` marks the session unusable either way.
        if let Some(e) = error.lock().take() {
            return Err(WaveFailure::Exec(ExecError::Match(e)));
        }
        par.absorb_wave_counters(&wave_par);
        let status = if budget_exhausted.load(Ordering::Acquire) {
            Status::BudgetExhausted
        } else {
            Status::Stable
        };

        // Debug cross-check of the sharded engine's memory-emptiness
        // termination proof: the locked-shard exact matcher must agree
        // that nothing is enabled.
        #[cfg(debug_assertions)]
        if status == Status::Stable && matches!(matcher, ParMatcher::Sharded { .. }) {
            let locked = LockedShards::lock(bag);
            let order: Vec<usize> = (0..nreactions).collect();
            let mut scratch = SearchScratch::new();
            let confirm = compiled
                .find_any_fast(&order, &locked, None, &mut scratch)
                .map_err(|e| WaveFailure::Exec(ExecError::Match(e)))?;
            debug_assert!(
                confirm.is_none(),
                "sharded slices drained while reaction {:?} was enabled",
                confirm.map(|f| f.reaction)
            );
            par.snapshot_checks += 1;
        }

        Ok((stats, status))
    }
}

/// Run `body(w)` for each of `workers` workers under `catch_unwind`, so a
/// worker panic becomes a lost-worker report instead of a process abort;
/// `done` wakes the peers so the failed attempt winds down promptly. One
/// worker runs inline on the calling thread; more are leased through
/// `ctl.dispatch`. Returns the bodies' results in worker order, or
/// [`WaveFailure::Lost`] naming every worker whose body did not return.
fn run_workers<T: Send>(
    workers: usize,
    done: &AtomicBool,
    par: &mut ParStats,
    ctl: &WaveCtl<'_>,
    body: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, WaveFailure> {
    let outs: Vec<Mutex<Option<T>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let run = |w: usize| match catch_unwind(AssertUnwindSafe(|| body(w))) {
        Ok(out) => *outs[w].lock() = Some(out),
        Err(_) => done.store(true, Ordering::Release),
    };
    if workers == 1 {
        // Nothing to overlap with: run the one body here, with no
        // hand-off to another thread.
        run(0);
    } else if ctl.dispatch.run(workers, &run) {
        par.pool_leases += 1;
    } else {
        par.pool_spawns += 1;
    }
    let mut got = Vec::with_capacity(workers);
    let mut lost = Vec::new();
    for (w, slot) in outs.into_iter().enumerate() {
        match slot.into_inner() {
            Some(out) => got.push(out),
            None => lost.push(w),
        }
    }
    if lost.is_empty() {
        Ok(got)
    } else {
        Err(WaveFailure::Lost(lost))
    }
}

/// Borrowed context of one probe-retry worker (bundled to keep the spawn
/// site readable).
struct ProbeWorkerCtx<'a> {
    compiled: &'a CompiledProgram,
    bag: &'a ShardedBag,
    directory: &'a Directory,
    deps: &'a DependencyIndex,
    dirty: &'a DirtyFlags,
    done: &'a AtomicBool,
    budget_exhausted: &'a AtomicBool,
    firings_global: &'a AtomicU64,
    checker: &'a Mutex<()>,
    error: &'a Mutex<Option<MatchError>>,
    budget: u64,
    sample_cap: usize,
    wave_seed: u64,
    nreactions: usize,
    w: usize,
    wf: WaveFaults<'a>,
    tel: &'a Telemetry,
    wave: u64,
}

/// The probe-retry worker body (see the module docs): sampled probes over
/// the dirty set, atomic claims, and the authoritative locked-shard
/// termination check.
fn probe_worker_loop(ctx: ProbeWorkerCtx<'_>) -> (ExecStats, ParStats) {
    let ProbeWorkerCtx {
        compiled,
        bag,
        directory,
        deps,
        dirty,
        done,
        budget_exhausted,
        firings_global,
        checker,
        error,
        budget,
        sample_cap,
        wave_seed,
        nreactions,
        w,
        wf,
        tel,
        wave,
    } = ctx;
    let mut rng = ChaCha8Rng::seed_from_u64(wave_seed.wrapping_add(w as u64 * 0x9e37));
    let mut stats = ExecStats::new(nreactions);
    let mut par = ParStats::default();
    let mut fired_local = 0u64;
    // Worker-local telemetry sequence: orders this worker's trace
    // timeline independently of the fault coordinates above.
    let mut wev = 0u64;
    // Probe order: only reactions whose dirty flag is set (the
    // delta-scheduling prune); refreshed every iteration.
    let mut order: Vec<usize> = Vec::with_capacity(nreactions);
    let mut all: Vec<usize> = (0..nreactions).collect();
    let mut scratch = SearchScratch::new();

    'main: while !done.load(Ordering::Acquire) {
        dirty.collect_dirty(&mut order);
        let found = if order.is_empty() {
            None
        } else {
            order.shuffle(&mut rng);
            let view = ShardedView {
                bag,
                directory,
                sample_cap,
                salt: rng.gen(),
            };
            match compiled.find_any_fast(&order, &view, Some(&mut rng), &mut scratch) {
                Ok(f) => f,
                Err(e) => {
                    *error.lock() = Some(e);
                    done.store(true, Ordering::Release);
                    break 'main;
                }
            }
        };
        match found {
            Some(firing) => {
                if try_fire(
                    bag,
                    directory,
                    deps,
                    dirty,
                    firings_global,
                    budget,
                    done,
                    budget_exhausted,
                    &firing,
                    &mut stats,
                ) {
                    if tel.enabled() {
                        let name = &compiled.reactions[firing.reaction].name;
                        tel.emit(w as i64, wev, wave, firing_event(name, &firing, 0));
                        wev += 1;
                    }
                    fired_local += 1;
                    wf.on_firing(w, fired_local);
                } else {
                    par.claim_failures += 1;
                }
            }
            None => {
                // A sampled pass over the dirty set found
                // nothing: clear those flags (any concurrent
                // producer re-sets them) and fall through to
                // the authoritative check.
                for &r in &order {
                    dirty.clear(r);
                }
                par.dry_probes += 1;
                // Authoritative termination check under the
                // checker mutex: exact search over the live
                // shards with every shard lock held — a
                // consistent view with no whole-bag clone.
                // Exactness lives here, so the dirty flags can
                // stay heuristic. The guards must drop before
                // try_fire, which re-locks shards to claim.
                let _guard = checker.lock();
                if done.load(Ordering::Acquire) {
                    break 'main;
                }
                par.snapshot_checks += 1;
                all.shuffle(&mut rng);
                let exact = {
                    let locked = LockedShards::lock(bag);
                    match compiled.find_any_fast(&all, &locked, Some(&mut rng), &mut scratch) {
                        Ok(f) => f,
                        Err(e) => {
                            *error.lock() = Some(e);
                            done.store(true, Ordering::Release);
                            break 'main;
                        }
                    }
                };
                match exact {
                    None => {
                        // Steady state reached.
                        done.store(true, Ordering::Release);
                        break 'main;
                    }
                    Some(firing) => {
                        // The snapshot is consistent and we
                        // still hold the checker lock, but
                        // other workers may race us; claim
                        // normally.
                        if try_fire(
                            bag,
                            directory,
                            deps,
                            dirty,
                            firings_global,
                            budget,
                            done,
                            budget_exhausted,
                            &firing,
                            &mut stats,
                        ) {
                            if tel.enabled() {
                                let name = &compiled.reactions[firing.reaction].name;
                                tel.emit(w as i64, wev, wave, firing_event(name, &firing, 0));
                                wev += 1;
                            }
                            fired_local += 1;
                            wf.on_firing(w, fired_local);
                        } else {
                            par.claim_failures += 1;
                        }
                    }
                }
            }
        }
    }
    (stats, par)
}

/// Per-wave control handles threaded from the session into the parallel
/// engines: the recovery policy, the fault plan, and the telemetry
/// handle paired with the session's main-thread event counter. The
/// parallel wave loop (recovery, replay, degraded fallback) runs on
/// the session thread — only the worker bodies run elsewhere, with
/// their own worker-local counters — so main-thread events keep one
/// monotonic `wseq` stream across engines.
pub(crate) struct WaveCtl<'a> {
    /// Replay policy for quarantined waves.
    pub(crate) recovery: &'a RecoveryPolicy,
    /// Armed fault points (inert without the `fault-inject` feature).
    pub(crate) faults: &'a FaultPlan,
    /// The session's telemetry handle.
    pub(crate) tel: &'a Telemetry,
    /// The session's main-thread event counter.
    pub(crate) ev: &'a Cell<u64>,
    /// Worker acquisition policy (parked pool lease or per-wave spawn).
    pub(crate) dispatch: &'a WaveDispatch,
}

impl WaveCtl<'_> {
    /// Emit a main-thread event under the session's event counter.
    /// Callers guard with `ctl.tel.enabled()`.
    pub(crate) fn emit(&self, wave: u64, event: TraceEvent) {
        let wseq = self.ev.get();
        self.ev.set(wseq + 1);
        self.tel.emit(MAIN_WORKER, wseq, wave, event);
    }
}

/// How a single wave attempt failed (internal to the recovery loop).
enum WaveFailure {
    /// A worker surfaced a matching/action error: not recoverable by
    /// replay (the same inputs recompute the same error).
    Exec(ExecError),
    /// These workers' threads died (caught panics): the attempt's state
    /// is poisoned and the caller decides between replay, degrade, and
    /// surfacing [`ParError::WorkerLost`].
    Lost(Vec<usize>),
}

/// Attempt to claim and apply `firing`. Returns `false` on a lost race.
#[allow(clippy::too_many_arguments)]
fn try_fire(
    bag: &ShardedBag,
    directory: &Directory,
    deps: &DependencyIndex,
    dirty: &DirtyFlags,
    firings_global: &AtomicU64,
    max_firings: u64,
    done: &AtomicBool,
    budget_exhausted: &AtomicBool,
    firing: &Firing,
    stats: &mut ExecStats,
) -> bool {
    if !bag.claim_and_replace(&firing.consumed, &firing.produced) {
        return false;
    }
    // Wake the fired reaction (it may match again) and every reaction
    // with a consuming pattern reachable from a produced label.
    dirty.set(firing.reaction);
    for e in &firing.produced {
        directory.note(e.label, e.tag);
        deps.for_each_dependent(e.label, |r| dirty.set(r));
    }
    stats.record_firing(firing.reaction, firing);
    let n = firings_global.fetch_add(1, Ordering::AcqRel) + 1;
    if n >= max_firings {
        budget_exhausted.store(true, Ordering::Release);
        done.store(true, Ordering::Release);
    }
    true
}

// ------------------------------------------------------------------------
// The sharded-rete engine
// ------------------------------------------------------------------------

/// An exact, per-probe-locking [`MatchSource`] over the live sharded bag:
/// label/tag enumeration comes from the (append-only, superset) key
/// directory, bucket contents from a single transient shard lock. This is
/// the cross-shard **join frontier**: worker slices complete deep join
/// levels through it, and every read is unsampled — stale only in the
/// benign claim-validated sense.
struct ShardedSource<'a> {
    bag: &'a ShardedBag,
    directory: &'a Directory,
}

impl MatchSource for ShardedSource<'_> {
    fn all_labels(&self) -> Vec<Symbol> {
        let out = self.directory.labels();
        note_rows_read(out.len());
        out
    }

    fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
        let out = self.directory.tags(label);
        note_rows_read(out.len());
        out
    }

    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
        let shard = self.bag.shard_of(label, tag);
        let out = self
            .bag
            .with_shard(shard, |b| MatchSource::values_at(b, label, tag));
        note_rows_read(out.len());
        out
    }

    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
        note_rows_read(1);
        let shard = self.bag.shard_of(label, tag);
        self.bag
            .with_shard(shard, |b| MatchSource::count_at(b, label, tag, value))
    }

    fn row_count(&self, label: Symbol, tag: Tag) -> usize {
        let shard = self.bag.shard_of(label, tag);
        self.bag
            .with_shard(shard, |b| MatchSource::row_count(b, label, tag))
    }

    fn row(&self, label: Symbol, tag: Tag, i: usize) -> Option<(Value, usize)> {
        note_rows_read(1);
        let shard = self.bag.shard_of(label, tag);
        self.bag
            .with_shard(shard, |b| MatchSource::row(b, label, tag, i))
    }

    // Note: every read takes and releases its own shard lock, and there
    // are no visitor overrides (the defaults copy a bucket out of
    // `values_at` before visiting it). No lock is held across search
    // levels — a recursive level probing another shard under a held lock
    // could deadlock against the sorted multi-shard claim path.
}

/// One firing's net delta (distinct removed / inserted elements, with
/// consumed-and-reproduced elements cancelled), delivered to the
/// addressed workers' mailboxes after the claim commits as a shared
/// [`Arc`] payload: one allocation per firing, one reference-count bump
/// per addressed mailbox. The payload carries arena [`ElemId`]s, not
/// owned elements — the claimant interns each net-delta element once and
/// every addressed worker routes, feeds, and retires by integer id, so a
/// broadcast delta costs zero hashes and zero value clones downstream.
#[derive(Debug, Clone)]
struct DeltaMsg {
    removed: Vec<ElemId>,
    inserted: Vec<ElemId>,
}

/// A delta mailbox endpoint pair (one per worker).
type DeltaChannel = (Sender<Arc<DeltaMsg>>, Receiver<Arc<DeltaMsg>>);

/// Compute a firing's net delta — the exact cancellation rule of
/// [`ReteNetwork::on_firing_applied`], shared via
/// [`crate::rete::firing_net_delta_ids`] so the slices and the
/// sequential network can never disagree on what a firing changes.
fn net_delta(firing: &Firing) -> DeltaMsg {
    let (removed, inserted) = crate::rete::firing_net_delta_ids(firing);
    DeltaMsg { removed, inserted }
}

/// Shared state of a sharded-rete run (borrowed by every worker).
struct SharedRun<'a> {
    compiled: &'a CompiledProgram,
    deps: &'a DependencyIndex,
    plan: &'a crate::rete::SlicePlan,
    bag: &'a ShardedBag,
    directory: &'a Directory,
    senders: &'a [Sender<Arc<DeltaMsg>>],
    /// Firings published. Doubles as the global firing counter:
    /// incremented (before sending) once per claim.
    published: &'a AtomicU64,
    /// Per-worker count of delta messages *addressed* to that worker
    /// (incremented before the send, so `processed == sent` implies a
    /// truly drained mailbox).
    sent: &'a [AtomicU64],
    /// Per-worker count of delta messages drained from the mailbox.
    processed: &'a [AtomicU64],
    /// Per-worker activity flags: a worker is *inactive* only while
    /// spinning in the idle loop with a drained mailbox and a dry slice —
    /// never between a claim and its publish.
    active: &'a [AtomicBool],
    done: &'a AtomicBool,
    budget_exhausted: &'a AtomicBool,
    error: &'a Mutex<Option<MatchError>>,
    max_firings: u64,
    /// The session's telemetry handle (workers tag their own events).
    tel: &'a Telemetry,
    /// Wave index, for the trace-record envelope.
    wave: u64,
}

impl SharedRun<'_> {
    /// Publish a just-claimed firing: bump the global counter, note new
    /// directory keys, enforce the budget, and deliver the net delta to
    /// the workers whose slices can be affected — the owner of every
    /// delta label's component (tokens involving a label live only in
    /// its owner's slice), or everyone when a wildcard consumer exists.
    /// The claimant's own slice learns about the firing from its mailbox
    /// like everyone else's. Returns the number of mailboxes addressed
    /// (the [`TraceEvent::DeltaPublished`] payload).
    fn publish(&self, firing: &Firing) -> u64 {
        for e in &firing.produced {
            self.directory.note(e.label, e.tag);
        }
        let n = self.published.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= self.max_firings {
            self.budget_exhausted.store(true, Ordering::Release);
            self.done.store(true, Ordering::Release);
        }
        let msg = Arc::new(net_delta(firing));
        let workers = self.senders.len();
        let broadcast = self.plan.wildcard_consumer() || workers > 128;
        let mut mask: u128 = 0;
        if !broadcast {
            for &id in msg.removed.iter().chain(msg.inserted.iter()) {
                // Unconsumed labels never appear in any token; skip them.
                // `ElemId::label` is a bit shift — routing never touches
                // the arena payload.
                let label = id.label();
                if self.deps.has_dependents(label) {
                    mask |= 1u128 << self.plan.owner_of(label);
                }
            }
        }
        let mut addressed = 0u64;
        for (v, tx) in self.senders.iter().enumerate() {
            if !broadcast && mask & (1u128 << v) == 0 {
                continue;
            }
            // Count the delivery before sending so the termination scan
            // can never observe a drained mailbox with a message still in
            // flight. A send only fails if the receiver is gone, which
            // means the run is tearing down anyway.
            self.sent[v].fetch_add(1, Ordering::AcqRel);
            let _ = tx.send(msg.clone());
            addressed += 1;
        }
        addressed
    }

    /// True when the run has globally stopped (stable, budget, or error).
    fn stopped(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// Per-worker readiness bookkeeping: a `ready` bitmap plus a lazily
/// purged candidate list (stale entries are dropped at pick time), so
/// maintenance is O(1) per enabledness flip instead of O(reactions) per
/// delta batch.
struct ReadySet {
    ready: Vec<bool>,
    list: Vec<usize>,
}

impl ReadySet {
    fn new(n: usize) -> ReadySet {
        ReadySet {
            ready: vec![false; n],
            list: Vec::new(),
        }
    }

    fn set(&mut self, r: usize, enabled: bool) {
        if enabled && !self.ready[r] {
            self.list.push(r);
        }
        self.ready[r] = enabled;
    }

    /// A uniformly random ready reaction, purging stale entries as they
    /// are drawn.
    fn pick(&mut self, rng: &mut ChaCha8Rng) -> Option<usize> {
        use rand::RngCore;
        while !self.list.is_empty() {
            let i = (rng.next_u64() % self.list.len() as u64) as usize;
            let r = self.list[i];
            if self.ready[r] {
                return Some(r);
            }
            self.list.swap_remove(i);
        }
        None
    }
}

/// One sharded-rete worker: drain the delta mailbox into the local slice,
/// fire what the slice memorises or searches, and, once the mailbox is
/// drained and the slice dry, join the drained-memories termination
/// consensus. A worker never searches outside its slice.
fn sharded_worker(
    shared: &SharedRun<'_>,
    w: usize,
    mut slice: ReteNetwork,
    rx: &Receiver<Arc<DeltaMsg>>,
    seed: u64,
    nreactions: usize,
    wf: WaveFaults<'_>,
) -> (ExecStats, ParStats, ReteNetwork) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(w as u64 * 0x9e37).wrapping_add(1));
    let mut stats = ExecStats::new(nreactions);
    let mut par = ParStats::default();
    let src = ShardedSource {
        bag: shared.bag,
        directory: shared.directory,
    };
    let mut ready = ReadySet::new(nreactions);
    let mut routed: Vec<usize> = Vec::new();
    let workers = shared.processed.len();
    // Worker-local event counters: the deterministic coordinates fault
    // points are expressed in.
    let mut fired_local = 0u64;
    let mut msgs = 0u64;
    // Worker-local telemetry sequence, separate from the fault
    // coordinates above (one counter across all event kinds keeps the
    // worker's trace timeline totally ordered).
    let mut wev = 0u64;

    // Initial readiness from the freshly built slice.
    for r in 0..nreactions {
        let en = slice.may_match(shared.compiled, &src, r);
        ready.set(r, en);
    }

    // Drain one delta message into the slice and refresh the readiness of
    // the reactions it routed to.
    let absorb = |msg: Arc<DeltaMsg>,
                  slice: &mut ReteNetwork,
                  ready: &mut ReadySet,
                  routed: &mut Vec<usize>,
                  par: &mut ParStats,
                  nth: u64,
                  wev: &mut u64| {
        // Fault point: a `MailboxDrop` here models the delta never
        // reaching this slice (it panics — the honest rendering, since
        // silently skipping the message would desynchronise the slice
        // from the bag); a `MailboxDelay` stalls before absorbing.
        wf.on_delta(w, nth);
        routed.clear();
        for &id in msg.removed.iter().chain(msg.inserted.iter()) {
            shared
                .deps
                .for_each_dependent(id.label(), |r| routed.push(r));
        }
        slice.on_removed_ids(shared.compiled, &src, &msg.removed);
        slice.on_inserted_ids(shared.compiled, &src, &msg.inserted);
        shared.processed[w].fetch_add(1, Ordering::AcqRel);
        par.deltas_processed += 1;
        if shared.tel.enabled() {
            shared.tel.emit(
                w as i64,
                *wev,
                shared.wave,
                TraceEvent::DeltaProcessed { nth },
            );
            *wev += 1;
        }
        routed.sort_unstable();
        routed.dedup();
        for &r in routed.iter() {
            let en = slice.may_match(shared.compiled, &src, r);
            ready.set(r, en);
        }
    };

    'main: while !shared.stopped() {
        // 1. Drain the mailbox: keep the slice delta-consistent before
        //    reading matches off it.
        let mut drained_any = false;
        while let Ok(msg) = rx.try_recv() {
            msgs += 1;
            absorb(
                msg,
                &mut slice,
                &mut ready,
                &mut routed,
                &mut par,
                msgs,
                &mut wev,
            );
            drained_any = true;
        }

        // 2. Fire from the slice: an O(1) read of a memorised match (or a
        //    cached spill completion, or a searched reaction's seeded
        //    search), then an atomic claim.
        if let Some(r) = ready.pick(&mut rng) {
            match slice.pick_firing(shared.compiled, &src, r, &mut rng) {
                Err(e) => {
                    *shared.error.lock() = Some(e);
                    shared.done.store(true, Ordering::Release);
                    break 'main;
                }
                Ok(None) => {
                    // A searched reaction's search missed, or a stale
                    // cached spill answer raced a concurrent claim; any
                    // claim that changes the answer sends its delta here.
                    ready.set(r, false);
                }
                Ok(Some(firing)) => {
                    if shared
                        .bag
                        .claim_and_replace(&firing.consumed, &firing.produced)
                    {
                        stats.record_firing(firing.reaction, &firing);
                        let addressed = shared.publish(&firing);
                        if shared.tel.enabled() {
                            let name = &shared.compiled.reactions[firing.reaction].name;
                            shared.tel.emit(
                                w as i64,
                                wev,
                                shared.wave,
                                firing_event(name, &firing, 0),
                            );
                            shared.tel.emit(
                                w as i64,
                                wev + 1,
                                shared.wave,
                                TraceEvent::DeltaPublished {
                                    reaction: firing.reaction,
                                    addressed,
                                },
                            );
                            wev += 2;
                        }
                        fired_local += 1;
                        wf.on_firing(w, fired_local);
                    } else {
                        par.claim_failures += 1;
                        if !drained_any {
                            // The winner has not published yet; give it a
                            // beat instead of burning the lock.
                            std::thread::yield_now();
                        }
                    }
                }
            }
            continue;
        }

        // 3. Idle: drained mailbox, dry slice. Join the termination
        //    consensus; leave on the first delta.
        shared.active[w].store(false, Ordering::Release);
        loop {
            if shared.stopped() {
                break 'main;
            }
            // The drained-memories termination proof: every addressed
            // delta processed by its worker, nobody active, and the
            // firing count unchanged across the scan — then every slice
            // is exact, no slice holds a match, and their union is the
            // full network, so no reaction is enabled anywhere (Eq. (1)'s
            // global termination state).
            let p1 = shared.published.load(Ordering::Acquire);
            let all_drained = shared
                .processed
                .iter()
                .zip(shared.sent.iter())
                .all(|(p, s)| p.load(Ordering::Acquire) == s.load(Ordering::Acquire));
            let all_idle = (0..workers).all(|v| !shared.active[v].load(Ordering::Acquire));
            if all_drained && all_idle && shared.published.load(Ordering::Acquire) == p1 {
                shared.done.store(true, Ordering::Release);
                break 'main;
            }
            match rx.recv_timeout(Duration::from_micros(200)) {
                Ok(msg) => {
                    shared.active[w].store(true, Ordering::Release);
                    msgs += 1;
                    absorb(
                        msg,
                        &mut slice,
                        &mut ready,
                        &mut routed,
                        &mut par,
                        msgs,
                        &mut wev,
                    );
                    continue 'main;
                }
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break 'main,
            }
        }
    }

    (stats, par, slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CountingSource;
    use crate::expr::Expr;
    use crate::seq::Selection;
    use crate::session::{Engine, Session};
    use crate::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
    use gammaflow_multiset::value::{BinOp, CmpOp};
    use gammaflow_multiset::Element;

    thread_local! {
        /// Keys and bucket rows read through [`ShardedSource`] and
        /// [`ShardedView`] on this thread.
        pub(super) static ROWS_READ: Cell<usize> = const { Cell::new(0) };
    }

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    /// The default parallel engine on `workers` threads.
    fn sharded(workers: usize) -> EngineConfig {
        EngineConfig {
            engine: Engine::Parallel(ParEngine::default()),
            workers,
            ..EngineConfig::default()
        }
    }

    /// One wave to stability, reporting the parallel counters.
    fn run_par(
        program: &GammaProgram,
        initial: ElementBag,
        config: &EngineConfig,
    ) -> Result<ParResult, ExecError> {
        let mut session = Session::build(program)
            .config(config.clone())
            .start(initial)?;
        session.run_to_stable()?;
        Ok(session.finish_parallel())
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

    /// `sum` over ordered pairs `x <= y`: the pushed conjunct never
    /// blocks the fold, but keeps level 1 materialised until the token
    /// watermark demotes it.
    fn guarded_sum_program() -> GammaProgram {
        GammaProgram::new(vec![ReactionSpec::new("osum")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(CmpOp::Le, Expr::var("x"), Expr::var("y")))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "n",
            )])])
    }

    fn max_program() -> GammaProgram {
        GammaProgram::new(vec![ReactionSpec::new("max")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(CmpOp::Ge, Expr::var("x"), Expr::var("y")))
            .by(vec![ElementSpec::pair(Expr::var("x"), "n")])])
    }

    #[test]
    fn sampled_view_reads_at_most_sample_cap_rows() {
        // Every candidate is rejected, so a seeded search tries the whole
        // salted window of a 10^4-row bucket — and reads nothing past it.
        let initial: ElementBag = (0..10_000).map(|v| e(v, "n", 0)).collect();
        let bag = ShardedBag::new(2);
        bag.insert_all(initial.iter());
        let directory = Directory::new(&initial);
        let never = ReactionSpec::new("never")
            .replace(Pattern::pair("x", "n"))
            .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::int(0)))
            .by(vec![]);
        let compiled = CompiledProgram::compile(&GammaProgram::new(vec![never])).unwrap();
        let sample_cap = 64;
        // The pattern's tag is a wildcard: one tag read, then value rows.
        let tag_reads = 1;
        for salt in [0, 1, 9_990, u64::MAX] {
            let view = CountingSource::new(ShardedView {
                bag: &bag,
                directory: &directory,
                sample_cap,
                salt,
            });
            let mut rng = ChaCha8Rng::seed_from_u64(salt);
            let found = compiled.reactions[0].find_match(0, &view, Some(&mut rng));
            assert_eq!(found, Ok(None));
            assert_eq!(view.reads.get(), tag_reads + sample_cap, "salt {salt}");
            let window = view.inner.values_at(Symbol::intern("n"), Tag::ZERO);
            assert_eq!(window.len(), sample_cap, "salt {salt}");
        }
    }

    #[test]
    fn sampled_view_window_over_a_dead_run() {
        // 200 rows with the first 100 consumed: dead rows equal live ones,
        // so the bucket stays uncompacted, and a 64-row window shows
        // every row of [start, start + 64) that lies in the live half.
        let initial: ElementBag = (0..200).map(|v| e(v, "n", 0)).collect();
        let bag = ShardedBag::new(2);
        bag.insert_all(initial.iter());
        let consumed: Vec<Element> = (0..100).map(|v| e(v, "n", 0)).collect();
        assert!(bag.claim_and_replace(&consumed, &[]));
        let directory = Directory::new(&initial);
        let (label, tag) = (Symbol::intern("n"), Tag::ZERO);
        let sample_cap = 64;
        let mut empty = 0;
        for start in 0..200u64 {
            let view = ShardedView {
                bag: &bag,
                directory: &directory,
                sample_cap,
                salt: start,
            };
            assert_eq!(view.row_count(label, tag), sample_cap);
            let live = view.values_at(label, tag).len();
            let expected = (start..start + 64).filter(|r| r % 200 >= 100).count();
            assert_eq!(live, expected, "start {start}");
            empty += usize::from(live == 0);
        }
        // Starts 0..=36 see only consumed rows: under half of the offsets.
        assert_eq!(empty, 37);
    }

    #[test]
    fn parallel_sum_reduces_to_total() {
        let initial: ElementBag = (1..=100).map(|v| e(v, "n", 0)).collect();
        let result = run_par(&sum_program(), initial, &sharded(4)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert_eq!(result.exec.multiset.len(), 1);
        assert!(result.exec.multiset.contains(&e(5050, "n", 0)));
        assert_eq!(result.exec.stats.firings_total(), 99);
    }

    #[test]
    fn parallel_max_agrees_with_semantics() {
        let initial: ElementBag = [3, 99, 7, 42, 56, 11]
            .iter()
            .map(|&v| e(v, "n", 0))
            .collect();
        let result = run_par(&max_program(), initial, &sharded(3)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert_eq!(result.exec.multiset.sorted_elements(), vec![e(99, "n", 0)]);
    }

    /// A one-worker wave runs on the calling thread, so it neither
    /// leases nor spawns; two workers under spawn-per-wave dispatch spawn
    /// once per wave.
    #[test]
    fn one_worker_wave_neither_leases_nor_spawns() {
        for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
            for (workers, spawns) in [(1usize, 0u64), (2, 3)] {
                let mut session = Session::build(&sum_program())
                    .engine(Engine::Parallel(engine))
                    .workers(workers)
                    .wave_dispatch(WaveDispatch::SpawnPerWave)
                    .start(ElementBag::new())
                    .unwrap();
                for wave in 0..3 {
                    let _ = session.inject((1..=8).map(|v| e(v + 8 * wave, "n", 0)));
                    assert_eq!(session.run_to_stable().unwrap().status, Status::Stable);
                }
                let par = session.finish_parallel().par;
                assert_eq!(
                    (par.pool_leases, par.pool_spawns),
                    (0, spawns),
                    "{engine:?} x{workers}"
                );
            }
        }
    }

    #[test]
    fn single_worker_matches_sequential_result() {
        let initial: ElementBag = (1..=30).map(|v| e(v, "n", 0)).collect();
        let par = run_par(&sum_program(), initial.clone(), &sharded(1)).unwrap();
        let seq = Session::build(&sum_program())
            .selection(Selection::Seeded(9))
            .run(initial)
            .unwrap();
        assert_eq!(par.exec.multiset, seq.multiset);
    }

    #[test]
    fn budget_is_respected() {
        let diverge = GammaProgram::new(vec![ReactionSpec::new("inc")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
                "n",
            )])]);
        let initial: ElementBag = [e(0, "n", 0)].into_iter().collect();
        let config = EngineConfig {
            max_steps: 50,
            ..sharded(2)
        };
        let result = run_par(&diverge, initial, &config).unwrap();
        assert_eq!(result.exec.status, Status::BudgetExhausted);
        // Workers can slightly overshoot only by in-flight firings; with the
        // check inside try_fire the count is bounded by max + workers.
        assert!(result.exec.stats.firings_total() >= 50);
        assert!(result.exec.stats.firings_total() <= 52);
    }

    #[test]
    fn empty_program_terminates_immediately() {
        let initial: ElementBag = [e(1, "n", 0)].into_iter().collect();
        let result = run_par(&GammaProgram::default(), initial.clone(), &sharded(4)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert_eq!(result.exec.multiset, initial);
    }

    #[test]
    fn action_error_propagates() {
        let bad = GammaProgram::new(vec![ReactionSpec::new("div")
            .replace(Pattern::pair("x", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Div, Expr::int(1), Expr::var("x")),
                "out",
            )])]);
        let initial: ElementBag = [e(0, "n", 0)].into_iter().collect();
        let result = run_par(&bad, initial, &sharded(2));
        assert!(matches!(result, Err(ExecError::Match(_))));
    }

    #[test]
    fn tagged_iterations_do_not_mix() {
        // Reaction pairs A and B with equal tags; mismatched tags must
        // survive untouched.
        let pair = GammaProgram::new(vec![ReactionSpec::new("pair")
            .replace(Pattern::tagged("a", "A", "v"))
            .replace(Pattern::tagged("b", "B", "v"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "C",
                "v",
            )])]);
        let initial: ElementBag = [e(1, "A", 0), e(2, "B", 1), e(10, "A", 1)]
            .into_iter()
            .collect();
        let result = run_par(&pair, initial, &sharded(4)).unwrap();
        let sorted = result.exec.multiset.sorted_elements();
        assert_eq!(sorted, vec![e(1, "A", 0), e(12, "C", 1)]);
    }

    #[test]
    fn occupancy_probe_preclears_unfireable_reactions() {
        // Probe-retry engine: a two-stage chain where `later` cannot fire
        // until `first` produces, so the startup occupancy probe must
        // pre-clear it.
        let chain = GammaProgram::new(vec![
            ReactionSpec::new("first")
                .replace(Pattern::pair("x", "a"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "b")]),
            ReactionSpec::new("later")
                .replace(Pattern::pair("x", "b"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "c")]),
        ]);
        let initial: ElementBag = (1..=4).map(|v| e(v, "a", 0)).collect();
        let config = EngineConfig {
            engine: Engine::Parallel(ParEngine::ProbeRetry),
            ..sharded(2)
        };
        let result = run_par(&chain, initial, &config).unwrap();
        assert_eq!(result.par.rete_precleared, 1);
        assert_eq!(result.exec.status, Status::Stable);
        assert_eq!(result.exec.multiset.count_label("c".into()), 4);
    }

    #[test]
    fn probe_retry_matches_sharded_finals() {
        // Both engines on the same confluent workloads land on identical
        // final multisets.
        for (program, initial) in [
            (
                sum_program(),
                (1..=60).map(|v| e(v, "n", 0)).collect::<ElementBag>(),
            ),
            (
                max_program(),
                [4, 9, 2, 9, 1].iter().map(|&v| e(v, "n", 0)).collect(),
            ),
        ] {
            let mut finals = Vec::new();
            for engine in [ParEngine::ShardedRete, ParEngine::ProbeRetry] {
                let config = EngineConfig {
                    engine: Engine::Parallel(engine),
                    ..sharded(4)
                };
                let result = run_par(&program, initial.clone(), &config).unwrap();
                assert_eq!(result.exec.status, Status::Stable);
                finals.push(result.exec.multiset);
            }
            assert_eq!(finals[0], finals[1]);
        }
    }

    #[test]
    fn sharded_engine_publishes_and_drains_deltas() {
        let initial: ElementBag = (1..=50).map(|v| e(v, "n", 0)).collect();
        let config = sharded(3);
        assert_eq!(config.engine, Engine::Parallel(ParEngine::ShardedRete));
        let result = run_par(&sum_program(), initial, &config).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert!(result.exec.multiset.contains(&e(1275, "n", 0)));
        let par = &result.par;
        assert_eq!(par.deltas_published, 49, "one delta per firing");
        // Targeted delivery: the single-component sum program routes
        // every delta to exactly its owning worker's mailbox.
        assert_eq!(
            par.deltas_processed, 49,
            "one worker owns the single component: {par:?}"
        );
        assert_eq!(par.shard_peak_tokens.len(), 3);
    }

    #[test]
    fn sharded_skewed_ownership_is_exact() {
        // Every element lives in one (label, tag) bucket, so one worker
        // owns the whole slice and fires every step while the others
        // wait in the termination scan.
        let initial: ElementBag = (1..=200).map(|v| e(v, "n", 0)).collect();
        let result = run_par(&sum_program(), initial, &sharded(4)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert!(result.exec.multiset.contains(&e(20100, "n", 0)));
        assert_eq!(result.exec.stats.firings_total(), 199);
    }

    /// A one-worker sharded wave reads what its delta touches, not the
    /// retained bag. Over `h` singleton windows of the windowed-sum
    /// reaction, injecting 4 fresh windows and running the wave that
    /// completes them reads as many keys and rows at h = 10^3 as at
    /// h = 10^5. A one-worker wave runs on the calling thread, so the
    /// thread-local counter sees all of it.
    #[test]
    fn one_worker_wave_reads_do_not_grow_with_the_retained_bag() {
        let wsum = GammaProgram::new(vec![ReactionSpec::new("wsum")
            .replace(Pattern::tagged("a", "x", "t"))
            .replace(Pattern::tagged("b", "x", "t"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "x",
                "t",
            )])]);
        let wave_reads = |h: u64| {
            let retained: ElementBag = (0..h).map(|t| e(1, "x", t)).collect();
            let mut session = Session::build(&wsum)
                .config(sharded(1))
                .start(retained)
                .unwrap();
            ROWS_READ.with(|c| c.set(0));
            let _ = session.inject((h..h + 4).flat_map(|t| [e(2, "x", t), e(3, "x", t)]));
            let wave = session.run_to_stable().unwrap();
            assert_eq!((wave.status, wave.fired), (Status::Stable, 4));
            ROWS_READ.with(Cell::get)
        };
        let small = wave_reads(1_000);
        assert!(small > 0, "the wave reads its own windows");
        assert_eq!(small, wave_reads(100_000));
    }

    #[test]
    fn sharded_slices_respect_watermark_and_record_spills() {
        // A guarded n² fold with a tiny per-slice watermark: the owning
        // slice must demote, probe through the spill, and record a peak
        // within cap + level 0 (n) + one delta burst (n).
        let n = 120i64;
        let initial: ElementBag = (1..=n).map(|v| e(v, "n", 0)).collect();
        let config = EngineConfig {
            rete_watermark: 500,
            ..sharded(2)
        };
        let result = run_par(&guarded_sum_program(), initial, &config).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        let expected: i64 = (1..=n).sum();
        assert!(result.exec.multiset.contains(&e(expected, "n", 0)));
        let par = &result.par;
        assert!(par.spill_demotions > 0, "{par:?}");
        assert!(par.spill_probes > 0, "{par:?}");
        for (w, &peak) in par.shard_peak_tokens.iter().enumerate() {
            assert!(
                peak <= 500 + n as u64 + n as u64,
                "worker {w} peak {peak} exceeds watermark + level 0 + delta burst: {par:?}"
            );
        }
    }

    /// The one counter rule: a replayed wave rebuilds every slice, and
    /// the slices' lifetime counters survive the rebuild. Wave 0 demotes
    /// the guarded fold's pair level; wave 1 loses a worker and replays.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn replayed_wave_keeps_slice_lifetime_counters() {
        use crate::fault::{Fault, FaultPlan};
        let n = 120i64;
        let initial: ElementBag = (1..=n).map(|v| e(v, "n", 0)).collect();
        let config = EngineConfig {
            rete_watermark: 500,
            ..sharded(2)
        };
        let mut twin = Session::build(&guarded_sum_program())
            .config(config.clone())
            .start(initial.clone())
            .unwrap();
        twin.run_to_stable().unwrap();
        let wave0 = twin.par_stats().spill_demotions;
        assert!(wave0 > 0, "wave 0 must demote: {:?}", twin.par_stats());

        // Whichever worker fires first in wave 1 panics.
        let faults = FaultPlan {
            wave: 1,
            persistent: false,
            faults: (0..2)
                .map(|worker| Fault::WorkerPanic {
                    worker,
                    at_firing: 1,
                })
                .collect(),
        };
        let mut session = Session::build(&guarded_sum_program())
            .config(EngineConfig { faults, ..config })
            .start(initial)
            .unwrap();
        session.run_to_stable().unwrap();
        assert!(session.inject([e(1, "n", 0), e(2, "n", 0)]).is_accepted());
        assert_eq!(session.run_to_stable().unwrap().status, Status::Stable);
        let result = session.finish_parallel();
        let expected = (1..=n).sum::<i64>() + 3;
        assert_eq!(
            result.exec.multiset.sorted_elements(),
            vec![e(expected, "n", 0)]
        );
        let par = &result.par;
        assert!(par.waves_replayed >= 1, "{par:?}");
        assert!(
            par.spill_demotions >= wave0,
            "replay dropped counters: {par:?}"
        );
    }

    #[test]
    fn probe_retry_startup_probe_spills_are_accounted() {
        // The startup occupancy probe runs at watermark 0; a guarded
        // 2-ary fold over 300 elements forces it to demote its
        // materialised level and probe through the spill — those counters
        // must reach ParStats (the aggregation used to drop them).
        let initial: ElementBag = (1..=300).map(|v| e(v, "n", 0)).collect();
        let config = EngineConfig {
            engine: Engine::Parallel(ParEngine::ProbeRetry),
            ..sharded(2)
        };
        let result = run_par(&guarded_sum_program(), initial, &config).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert!(result.par.spill_demotions > 0, "{:?}", result.par);
        assert!(result.par.spill_probes > 0, "{:?}", result.par);
    }

    #[test]
    fn sharded_engine_tagged_join_workload() {
        // Tag-joined pairs spread ownership across workers; the sharded
        // engine must fuse every tag pair exactly once.
        let pair = GammaProgram::new(vec![ReactionSpec::new("pair")
            .replace(Pattern::tagged("a", "A", "v"))
            .replace(Pattern::tagged("b", "B", "v"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "C",
                "v",
            )])]);
        let mut initial = ElementBag::new();
        for t in 0..64u64 {
            initial.insert(e(t as i64, "A", t));
            initial.insert(e(1000 + t as i64, "B", t));
        }
        let result = run_par(&pair, initial, &sharded(4)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert_eq!(result.exec.multiset.len(), 64);
        assert_eq!(result.exec.multiset.count_label("C".into()), 64);
        for t in 0..64u64 {
            assert!(result
                .exec
                .multiset
                .contains(&e(1000 + 2 * t as i64, "C", t)));
        }
    }

    #[test]
    fn wildcard_broadcast_delta_semantics_unchanged() {
        // A label-wildcard consumer forces every delta to broadcast to
        // all mailboxes. The `Arc<DeltaMsg>` payload shares one
        // allocation per firing; the *semantics* must be unchanged:
        // exactly one publish per firing, and (the run ending drained)
        // one processed message per (firing, worker) pair.
        use crate::spec::{LabelPat, LabelSpec, TagPat, TagSpec, ValuePat};
        use gammaflow_multiset::Symbol;
        let countdown = GammaProgram::new(vec![ReactionSpec::new("dec")
            .replace(Pattern {
                value: ValuePat::Var(Symbol::intern("x")),
                label: LabelPat::Var(Symbol::intern("l")),
                tag: TagPat::Any,
            })
            .where_(Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::int(0)))
            .by(vec![crate::spec::ElementSpec {
                value: Expr::bin(BinOp::Sub, Expr::var("x"), Expr::int(1)),
                label: LabelSpec::Var(Symbol::intern("l")),
                tag: TagSpec::Zero,
            }])]);
        let initial: ElementBag = [e(3, "a", 0), e(2, "b", 0), e(4, "c", 0)]
            .into_iter()
            .collect();
        let workers = 4usize;
        let result = run_par(&countdown, initial, &sharded(workers)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        // Every label counted down to zero: 3 + 2 + 4 firings.
        assert_eq!(result.exec.stats.firings_total(), 9);
        let sorted = result.exec.multiset.sorted_elements();
        assert_eq!(sorted, vec![e(0, "a", 0), e(0, "b", 0), e(0, "c", 0)]);
        let par = &result.par;
        assert_eq!(par.deltas_published, 9, "one publish per firing: {par:?}");
        assert_eq!(
            par.deltas_processed,
            9 * workers as u64,
            "wildcard consumers broadcast to every mailbox and the run ends drained: {par:?}"
        );
    }

    #[test]
    fn targeted_delivery_delta_semantics_unchanged() {
        // Dual of the broadcast test (the ROADMAP follow-up asked for the
        // `deltas_published` semantics to be pinned): without a wildcard
        // consumer the single-component sum routes every delta to exactly
        // its owner's mailbox — Arc sharing must not change the counts.
        let initial: ElementBag = (1..=50).map(|v| e(v, "n", 0)).collect();
        let result = run_par(&sum_program(), initial, &sharded(3)).unwrap();
        assert_eq!(result.exec.status, Status::Stable);
        assert_eq!(result.par.deltas_published, 49);
        assert_eq!(result.par.deltas_processed, 49);
    }

    #[test]
    fn stress_many_workers_many_elements() {
        let initial: ElementBag = (1..=500).map(|v| e(v, "n", 0)).collect();
        let result = run_par(&sum_program(), initial, &sharded(8)).unwrap();
        assert_eq!(result.exec.multiset.len(), 1);
        assert!(result.exec.multiset.contains(&e(125250, "n", 0)));
    }

    /// A ParStats block with every field set to a distinct value, so the
    /// absorb tests below catch any field merged into the wrong place.
    fn distinct_par_stats() -> ParStats {
        ParStats {
            claim_failures: 1,
            dry_probes: 2,
            snapshot_checks: 3,
            rete_precleared: 4,
            deltas_published: 5,
            deltas_processed: 6,
            stolen_firings: 7,
            steal_misses: 8,
            spill_demotions: 9,
            spill_probes: 10,
            shard_peak_tokens: vec![12, 13],
            workers_lost: 14,
            waves_replayed: 15,
            degraded_waves: 16,
            pool_leases: 17,
            pool_spawns: 18,
        }
    }

    #[test]
    fn par_stats_absorb_wave_counters_pins_every_field() {
        let mut a = distinct_par_stats();
        let b = distinct_par_stats();
        a.absorb_wave_counters(&b);
        // Wave-level scalars add…
        assert_eq!(a.claim_failures, 2);
        assert_eq!(a.dry_probes, 4);
        assert_eq!(a.snapshot_checks, 6);
        assert_eq!(a.deltas_published, 10);
        assert_eq!(a.deltas_processed, 12);
        assert_eq!(a.stolen_firings, 14);
        assert_eq!(a.steal_misses, 16);
        // …lifetime fields are deliberately untouched (folded once by
        // `fold_lifetime_stats`)…
        assert_eq!(a.rete_precleared, 4);
        assert_eq!(a.spill_demotions, 9);
        assert_eq!(a.spill_probes, 10);
        assert_eq!(a.shard_peak_tokens, vec![12, 13]);
        // …and so are the recovery counters (incremented by the wave
        // loop itself) and the dispatch counters (incremented by
        // `run_workers`).
        assert_eq!(a.workers_lost, 14);
        assert_eq!(a.waves_replayed, 15);
        assert_eq!(a.degraded_waves, 16);
        assert_eq!(a.pool_leases, 17);
        assert_eq!(a.pool_spawns, 18);
    }

    #[test]
    fn par_stats_absorb_pins_every_field() {
        let mut a = distinct_par_stats();
        let b = distinct_par_stats();
        a.absorb(&b);
        assert_eq!(a.claim_failures, 2);
        assert_eq!(a.dry_probes, 4);
        assert_eq!(a.snapshot_checks, 6);
        assert_eq!(a.rete_precleared, 8);
        assert_eq!(a.deltas_published, 10);
        assert_eq!(a.deltas_processed, 12);
        assert_eq!(a.stolen_firings, 14);
        assert_eq!(a.steal_misses, 16);
        assert_eq!(a.spill_demotions, 18);
        assert_eq!(a.spill_probes, 20);
        // Per-slice-lifetime peaks concatenate instead of summing.
        assert_eq!(a.shard_peak_tokens, vec![12, 13, 12, 13]);
        assert_eq!(a.workers_lost, 28);
        assert_eq!(a.waves_replayed, 30);
        assert_eq!(a.degraded_waves, 32);
        assert_eq!(a.pool_leases, 34);
        assert_eq!(a.pool_spawns, 36);
    }
}
