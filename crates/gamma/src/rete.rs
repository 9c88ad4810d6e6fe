//! Rete-style partial-match memory with guard pushdown — the join-network
//! matcher behind [`Scheduling::Rete`](crate::seq::Scheduling).
//!
//! # The network *is* the waiting–matching store, remembered
//!
//! The paper's equivalence rests on the tagged-token waiting–matching
//! store: a dataflow PE never re-derives a match — it *remembers* partial
//! ones and completes them the instant the missing operand token arrives.
//! The delta scheduler ([`crate::schedule`]) brought that discipline to
//! *which reaction* gets probed; this module brings it to *the probe
//! itself*. Each reaction is compiled into a join network in the style of
//! Forgy's Rete:
//!
//! * **Alpha memories** — one per pattern position, holding the elements
//!   passing the position's static filters (label class, literal tag,
//!   literal value). They are *virtual*: the `(label, tag)`-indexed
//!   [`ElementBag`](gammaflow_multiset::ElementBag) already is that
//!   memory, discriminated by the
//!   [`DependencyIndex`]'s label-class routing, so insert/remove deltas
//!   reach exactly the positions whose filters admit them. This is the
//!   store half of the waiting–matching unit: every token is filed under
//!   the key the consumers wait on.
//! * **Beta memories** — one per join level, holding *partial tuples*
//!   (tokens): assignments of elements to the first `k` positions of the
//!   reaction's selectivity-ordered search plan, with their variable
//!   bindings. A token at the terminal level is a complete, enabled match.
//!   This is the matching half: a partial tuple is precisely an
//!   instruction "waiting" on its remaining operands.
//! * **Guard pushdown** — the `where` condition is decomposed into
//!   conjuncts ([`crate::expr::Expr::conjuncts`]) and each is evaluated at the
//!   *earliest* join level binding all of its variables
//!   ([`CompiledReaction::guard_plan`]). A constraint like `x % y == 0`
//!   filters *during* the join that binds `y`, so the beta memories hold
//!   only constraint-satisfying prefixes instead of a cross product.
//!
//! # Incremental maintenance
//!
//! The engine feeds the network the **net delta** of every firing
//! (consumed minus produced, so an element consumed and re-produced is a
//! no-op). An inserted element enters at every admitting position: it
//! joins with the existing tokens of the previous level, and each new
//! token is completed rightward by querying the bag index. A removed
//! occurrence retires every token using the element more often than its
//! remaining multiplicity — descendants of a retired token necessarily
//! use the same element at least as often, so element-indexed retirement
//! needs no parent/child links. Token identity is the element sequence
//! itself, deduplicated in a hash map, which makes multiset multiplicity
//! (`{3, 3}` matching a 2-ary pattern once per *pair*, not per value)
//! fall out of membership checks against the live bag counts.
//!
//! # Bounded memory: a static plan and a one-way cap
//!
//! A dataflow operand waits only until a partner arrives under its key;
//! a join level that joins on no bound variable and prunes with no guard
//! would instead memorise a cross product (`sum`'s n² pairs) the
//! `(label, tag)` bag index already enumerates. So
//! `CompiledReaction::match_plan` fixes each reaction's levels once:
//! level 0 and each following level that *prunes* (a pushed conjunct, a
//! variable an earlier level binds, the terminal clause disjunction) are
//! materialised; from the first that does not, levels are *virtual* and
//! the net is *spilled*. Virtual matches are recomputed on demand by
//! resuming the index search from the deepest materialised frontier
//! tokens (`CompiledReaction::prefix_completes` / `complete_prefix`).
//! Exactness is preserved: every full match's join-order prefix survives
//! at the frontier, because pushed guards only reject prefixes that no
//! match extends. Spilled enabledness answers are cached and invalidated
//! monotonically — an insert can only enable (a cached "no match" is
//! dropped), a removal can only disable — so per-firing cost stays
//! proportional to the delta. A probe stops at the first completing
//! prefix: O(1) bag reads on every committed workload. Its hazard, every
//! virtual bucket non-empty yet no prefix completing, costs frontier ×
//! bucket reads; no committed workload has that shape.
//!
//! The **token watermark** is a one-way cap on tokens *above* level 0:
//! past it the deepest materialised level demotes to virtual for good.
//! Level 0 (one token per admitted element) is never counted or demoted,
//! so a long-lived stream never trips the cap on its history alone.
//!
//! # Tag-keyed reactions
//!
//! An Algorithm-1 reaction (the plan's tag-keyed answer: one tag
//! variable everywhere, disjoint literal labels, fresh value variables,
//! no `where`, a total clause) is enabled exactly when every operand
//! label holds *some* element under one tag — the dataflow firing rule
//! of `crates/dataflow/src/token.rs`'s waiting–matching store. Its net
//! keeps that store instead of tokens: per tag a mask of present
//! positions (a removal clears a bit only when the live bag holds no
//! admitted element there), and a lane of full tags.
//!
//! * **The lane mirrors the token lane.** With at most one element per
//!   `(label, tag)` — every well-behaved image — full tags and terminal
//!   tokens are in bijection, pushed by the same insert and swap-removed
//!   by the same removal (the bulk build queues a tag at its join-order
//!   position-0 element, where the token build completes it), and a pick
//!   draws again only from a bucket with several values, so seeded picks
//!   draw and select exactly as the token plan would.
//! * **Slices.** A keyed reaction's literal labels form one [`SlicePlan`]
//!   component; other slices skip its deltas, the owner re-derives an
//!   insert's bit from the shared bag (a concurrent claim may have taken
//!   it), and a pick from a bucket a claim emptied is `Ok(None)`.
//!
//! Beside the nets, `ready` and `spilled` bitsets over reactions are
//! re-derived after every routed update, so a pick walks only reactions
//! that can be enabled (probing the spilled ones), in ascending order.
//!
//! # Exactness and stability
//!
//! The network is *exact* under any plan and watermark: for fully
//! materialised reactions the terminal beta tokens are in bijection with
//! the enabled `(tuple, reaction)` instances of Eq. (1), and for spilled
//! reactions the frontier-completion probe decides enabledness against
//! the live bag. A drained network — no terminal token anywhere, no spilled
//! reaction whose frontier completes — therefore **proves** the paper's
//! global termination state; the engine needs no authoritative rescan
//! (debug builds still cross-check).

use crate::compiled::{
    tag_of, CompiledProgram, CompiledReaction, Firing, GuardPlan, LabelFilter, MatchError,
    MatchPlan, MatchSource, SearchScratch,
};
use crate::expr::{Env, Expr};
use crate::schedule::DependencyIndex;
use crate::vm::{Chunk, GuardEvalMode};
use gammaflow_multiset::{shard_index, ElemId, Element, FxHashMap, FxHashSet, Symbol, Tag, Value};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// The static label-ownership plan the parallel engine's worker slices
/// share: which worker materialises tokens anchored at each label.
///
/// Ownership is by **dependency component**: reactions are grouped by a
/// union–find over the label classes they consume and (literally)
/// produce, and each component — with every label it touches — is
/// assigned to one worker, largest components first onto the least
/// loaded worker. This is the Gamma image of the dataflow machines the
/// paper surveys (and of `engine_par.rs` on the dataflow side): a label
/// is a dataflow edge/instruction and the tag its loop iteration, and
/// those machines assign *instructions* to PEs statically — all
/// iterations of a node fire on the same PE, so a loop's firing chain
/// never migrates between workers. Labels outside every component
/// (runtime-synthesised, or consumed by nobody) fall back to the same
/// shard map as the [`ShardedBag`](gammaflow_multiset::ShardedBag)
/// ([`shard_index`] on the label), so every worker agrees on ownership
/// without coordination.
#[derive(Debug)]
pub struct SlicePlan {
    workers: usize,
    /// Power-of-two shard count of the live bag, reused for the hash
    /// fallback.
    hash_shards: usize,
    /// Component-assigned labels → owning worker.
    label_owner: FxHashMap<Symbol, u32>,
    /// True when some reaction consumes a label wildcard: its slice may
    /// hold tokens anchored at *any* label, so deltas must reach every
    /// worker.
    wildcard_consumer: bool,
}

impl SlicePlan {
    /// Build the ownership plan for `workers` workers over a bag with
    /// `hash_shards` shards.
    pub fn build(compiled: &CompiledProgram, workers: usize, hash_shards: usize) -> SlicePlan {
        let workers = workers.max(1);
        let n = compiled.reactions.len();
        // Union–find over reaction indices; labels attach to the first
        // reaction that mentions them.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                parent[i as usize] = parent[parent[i as usize] as usize];
                i = parent[i as usize];
            }
            i
        }
        let mut label_rep: FxHashMap<Symbol, u32> = FxHashMap::default();
        let mut wildcard_consumer = false;
        for (i, cr) in compiled.reactions.iter().enumerate() {
            let (consumed, wildcard) = cr.consumed_label_classes();
            wildcard_consumer |= wildcard;
            let mut labels = consumed;
            labels.extend(cr.produced_label_literals());
            for label in labels {
                match label_rep.entry(label) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(i as u32);
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        let a = find(&mut parent, *o.get());
                        let b = find(&mut parent, i as u32);
                        if a != b {
                            parent[a as usize] = b;
                        }
                    }
                }
            }
        }
        // Component sizes (reactions per root), then greedy assignment:
        // largest component onto the least-loaded worker.
        let mut size: FxHashMap<u32, usize> = FxHashMap::default();
        for i in 0..n as u32 {
            *size.entry(find(&mut parent, i)).or_insert(0) += 1;
        }
        let mut components: Vec<(u32, usize)> = size.into_iter().collect();
        components.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut load = vec![0usize; workers];
        let mut owner_of_root: FxHashMap<u32, u32> = FxHashMap::default();
        for (root, weight) in components {
            let w = (0..workers).min_by_key(|&w| (load[w], w)).unwrap_or(0);
            load[w] += weight;
            owner_of_root.insert(root, w as u32);
        }
        let label_owner = label_rep
            .iter()
            .map(|(&label, &rep)| {
                let root = find(&mut parent, rep);
                (label, owner_of_root[&root])
            })
            .collect();
        SlicePlan {
            workers,
            hash_shards: hash_shards.max(1).next_power_of_two(),
            label_owner,
            wildcard_consumer,
        }
    }

    /// Number of workers the plan stripes over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker owning `label`: its component's assignee, or the
    /// shard-map hash for labels outside every component.
    #[inline]
    pub fn owner_of(&self, label: Symbol) -> usize {
        match self.label_owner.get(&label) {
            Some(&w) => w as usize,
            None => shard_index(label, Tag::ZERO, self.hash_shards) % self.workers,
        }
    }

    /// True when a wildcard-consuming reaction forces deltas to reach
    /// every worker.
    pub fn wildcard_consumer(&self) -> bool {
        self.wildcard_consumer
    }
}

/// One worker's slice of the alpha space under a shared [`SlicePlan`].
///
/// A sliced [`ReteNetwork`] materialises exactly the tokens whose
/// *join-order position-0 element* carries a label this worker owns:
/// every complete match is generated by its position-0 element entering
/// at level 0 and completing rightward through the (whole) bag — the
/// bulk-build rule — so label ownership partitions the full network's
/// token set across workers with no overlap and no gaps. Deeper join
/// levels still read candidates from the *entire* bag (the cross-shard
/// join frontier), which is what lets a slice complete matches whose
/// other operands live in foreign shards.
#[derive(Debug, Clone)]
pub struct AlphaSlice {
    /// The shared ownership plan.
    pub plan: std::sync::Arc<SlicePlan>,
    /// This worker's index in `0..plan.workers()`.
    pub worker: usize,
}

impl AlphaSlice {
    /// Does this slice own `label` — i.e. is this worker the one that
    /// materialises tokens anchored at it?
    #[inline]
    pub fn owns(&self, label: Symbol, _tag: Tag) -> bool {
        self.plan.owner_of(label) == self.worker
    }
}

/// Observability counters for a network's lifetime. Serialisable so
/// session snapshots can carry lifetime counters across a restore.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReteStats {
    /// Insert deltas processed, counted per routed `(element, reaction)`
    /// pair: one inserted element consumed by two reactions counts twice.
    pub inserts: u64,
    /// Remove deltas processed, counted per routed `(element, reaction)`
    /// pair, like [`ReteStats::inserts`].
    pub removals: u64,
    /// Tokens created across all levels.
    pub tokens_created: u64,
    /// Tokens retired by element removal.
    pub tokens_retired: u64,
    /// Candidate extensions rejected by a pushed-down guard conjunct —
    /// work the network *didn't* have to re-do downstream.
    pub guard_rejects: u64,
    /// Candidate tokens that already existed (multiplicity-overlap paths).
    pub dedup_hits: u64,
    /// Join levels demoted to virtual by the token watermark (levels the
    /// static plan leaves virtual are not counted).
    pub spill_demotions: u64,
    /// On-demand frontier-completion enabledness probes run for spilled
    /// reactions (cache misses; cached answers are free).
    pub spill_probes: u64,
    /// Always zero: a demoted level is never re-materialised. Kept so
    /// readers of this counter keep compiling.
    pub spill_repromotions: u64,
    /// Peak number of live tokens across the network.
    pub peak_live_tokens: u64,
}

impl ReteStats {
    /// Merge another network's counters (pipeline stages, session waves,
    /// parallel slices). Additive everywhere except
    /// [`ReteStats::peak_live_tokens`], which takes the maximum — the
    /// merged figure stays "the largest memory any one network held".
    pub fn absorb(&mut self, other: &ReteStats) {
        // Exhaustive destructuring: adding a counter without deciding its
        // merge rule is a compile error here, not a silently dropped field.
        let ReteStats {
            inserts,
            removals,
            tokens_created,
            tokens_retired,
            guard_rejects,
            dedup_hits,
            spill_demotions,
            spill_probes,
            spill_repromotions: _, // always zero
            peak_live_tokens,
        } = other;
        self.inserts += inserts;
        self.removals += removals;
        self.tokens_created += tokens_created;
        self.tokens_retired += tokens_retired;
        self.guard_rejects += guard_rejects;
        self.dedup_hits += dedup_hits;
        self.spill_demotions += spill_demotions;
        self.spill_probes += spill_probes;
        self.peak_live_tokens = self.peak_live_tokens.max(*peak_live_tokens);
    }
}

/// Per-reaction observability counters maintained inside each reaction's
/// join net and drained into the session's profile table at wave
/// boundaries ([`ReteNetwork::take_reaction_counters`]). The rescanning
/// and delta schedulers evaluate guards inside the search core and have
/// no per-reaction equivalent, so these columns are Rete-matcher-only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReteReactionCounters {
    /// Guard conjunct evaluations during token building.
    pub guard_evals: u64,
    /// Guard evaluations that rejected the candidate token.
    pub guard_rejects: u64,
    /// Peak live tokens this reaction's net held since the last drain.
    pub peak_tokens: u64,
}

/// A candidate token's bindings as an [`Env`]: the prefix token's slots
/// overlaid with the candidate element's fresh bindings. This is what
/// lets [`GuardEvalMode::Tree`] run the reference [`Expr::eval_bool`]
/// itself — the evaluator the bytecode VM (the default dispatch,
/// [`crate::vm`]) is differentially tested against — instead of a
/// slot-resolved copy of it.
struct SlotEnv<'a> {
    index: &'a FxHashMap<Symbol, u16>,
    base: &'a [Option<Value>],
    extra: &'a [(u16, Value)],
}

impl Env for SlotEnv<'_> {
    fn lookup(&self, var: Symbol) -> Option<Value> {
        let slot = *self.index.get(&var)?;
        self.extra
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| v.clone())
            .or_else(|| self.base[slot as usize].clone())
    }
}

/// A beta-memory token: a partial tuple over join levels `0..=k` with its
/// variable bindings.
///
/// Matched elements are stored as arena ids ([`ElemId`]): token identity
/// checks, the dedup key, and the element→token removal index all work on
/// packed `u64`s — one hash at delta-intern time, integer compares
/// everywhere after. Guard evaluation reads bindings from `slots`;
/// elements are only resolved back to owned [`Element`]s when a firing is
/// materialised or a spilled prefix is handed to the completion search.
#[derive(Debug)]
struct Token {
    /// Matched element ids in *join order* (`elems.len() == level + 1`).
    elems: Box<[ElemId]>,
    /// Variable binding slots (full width; unbound slots are `None`).
    slots: Box<[Option<Value>]>,
    /// Position inside `levels[level]`, maintained under swap-removal.
    pos: usize,
}

/// One reaction's join network: pushed-down guards plus beta memories.
#[derive(Debug)]
struct ReactionNet {
    arity: usize,
    /// Pushed-down `where` conjuncts per join level and the terminal
    /// clause-guard disjunction, as source expressions for
    /// [`GuardEvalMode::Tree`] (VM mode reads the same shapes as chunks
    /// off the reaction's [`crate::vm::ReactionVm`]).
    guards: GuardPlan,
    /// Token arena; `None` slots are free-listed.
    tokens: Vec<Option<Token>>,
    free: Vec<u32>,
    /// Live token ids per join level; the last level holds full matches.
    levels: Vec<Vec<u32>>,
    /// Token identity index for deduplication (key = join-order element
    /// id sequence; lengths differ per level, so one map serves all
    /// levels). Hashing a key is hashing a few `u64`s.
    by_key: FxHashMap<Box<[ElemId]>, u32>,
    /// Element id → tokens using it, for removal-driven retirement.
    uses: FxHashMap<ElemId, FxHashSet<u32>>,
    /// Budget for the live tokens above level 0; crossing it demotes the
    /// deepest materialised join level for good.
    watermark: usize,
    /// Join levels `0..materialized` are maintained exactly; deeper
    /// levels are virtual, recomputed by frontier-completion search.
    /// Starts at the static plan's depth (`materialized == arity` means
    /// the terminal memory is live) and only shrinks, never below 1 (the
    /// level-0/alpha frontier stays materialised).
    materialized: usize,
    /// Cached spilled-enabledness answer; `None` forces a re-probe.
    /// Invalidated monotonically: inserts drop a cached `false`,
    /// removals drop a cached `true`.
    cached_enabled: Option<bool>,
    /// For each join level `k ≥ 1` whose pattern's tag is a variable
    /// slot already bound by every prefix token (decided statically from
    /// the join order), that slot — the static half of the tag join
    /// index. `None` entries fall back to the full prior-level scan.
    next_tag_slot: Vec<Option<u16>>,
    /// The dynamic half: `tag_joins[k]` maps a tag to the live
    /// level-`k−1` tokens an element carrying it could extend, so a
    /// runtime insertion delta joins against the *compatible* prefixes
    /// instead of scanning the whole prior level — O(bucket) instead of
    /// O(history) per delta, the difference between a streaming
    /// session's wave cost and a rebuild (tokens whose slot holds a
    /// non-integer can never equal a tag and are indexed nowhere).
    tag_joins: Vec<Option<FxHashMap<Tag, FxHashSet<u32>>>>,
    /// Scratch for retirement scans.
    doomed: Vec<u32>,
    /// All-`None` binding row, the prefix of every level-0 entry.
    empty_slots: Box<[Option<Value>]>,
    /// Per-reaction profile counters, drained at wave boundaries (see
    /// [`ReteNetwork::take_reaction_counters`]).
    prof: ReteReactionCounters,
    /// The matching store of a tag-keyed reaction, which then keeps no
    /// tokens at all (see the module docs).
    keyed: Option<KeyedStore>,
}

/// Lane position of a tag that is not queued as ready.
const UNQUEUED: u32 = u32::MAX;

/// A tag-keyed reaction's matching store (see the module docs).
#[derive(Debug)]
struct KeyedStore {
    /// Slot of the shared tag variable.
    tag_slot: u16,
    /// The mask with every position's bit set.
    full: u32,
    /// Tag → (present-position mask, index into `lane` or [`UNQUEUED`]).
    tags: FxHashMap<Tag, (u32, u32)>,
    /// The full (ready) tags.
    lane: Vec<Tag>,
}

impl KeyedStore {
    /// Set or clear `bit` at `tag`. A tag that stops being full leaves
    /// the lane by swap-removal; a full one joins it when `queue`.
    fn set(&mut self, tag: Tag, bit: u32, present: bool, queue: bool) {
        let entry = self.tags.entry(tag).or_insert((0, UNQUEUED));
        if present {
            entry.0 |= bit;
        } else {
            entry.0 &= !bit;
        }
        let (mask, pos) = *entry;
        if mask == self.full && pos == UNQUEUED && queue {
            entry.1 = self.lane.len() as u32;
            self.lane.push(tag);
        } else if mask != self.full && pos != UNQUEUED {
            entry.1 = UNQUEUED;
            self.lane.swap_remove(pos as usize);
            if let Some(&moved) = self.lane.get(pos as usize) {
                self.tags
                    .get_mut(&moved)
                    .expect("queued tags have entries")
                    .1 = pos;
            }
        }
        if mask == 0 {
            self.tags.remove(&tag);
        }
    }
}

impl ReactionNet {
    fn new(cr: &CompiledReaction, watermark: usize) -> ReactionNet {
        // Which join levels can be answered from the tag index: level k's
        // pattern carries a tag variable whose slot every level-(k−1)
        // token has already bound (tag-partitioned joins — the dynamic
        // dataflow iteration-matching rule — hit this on every level).
        let positions = cr.positions();
        let order = cr.join_order();
        let mut bound: FxHashSet<u16> = FxHashSet::default();
        let mut next_tag_slot: Vec<Option<u16>> = Vec::with_capacity(cr.arity());
        for (k, &p) in order.iter().enumerate() {
            let pat = &positions[p];
            let slot = if k > 0 {
                pat.tag_var.filter(|s| bound.contains(s))
            } else {
                None
            };
            next_tag_slot.push(slot);
            for v in [pat.value_var, pat.label_var, pat.tag_var]
                .into_iter()
                .flatten()
            {
                bound.insert(v);
            }
        }
        let tag_joins = next_tag_slot
            .iter()
            .map(|s| s.map(|_| FxHashMap::default()))
            .collect();
        let (materialized, keyed) = match cr.match_plan() {
            MatchPlan::TagKeyed(tag_slot) => (
                cr.arity(),
                Some(KeyedStore {
                    tag_slot,
                    full: u32::MAX >> (32 - cr.arity()),
                    tags: FxHashMap::default(),
                    lane: Vec::new(),
                }),
            ),
            MatchPlan::Tokens(prunes) => (1 + prunes.len(), None),
        };
        ReactionNet {
            arity: cr.arity(),
            guards: cr.guard_plan(),
            tokens: Vec::new(),
            free: Vec::new(),
            levels: vec![Vec::new(); cr.arity()],
            by_key: FxHashMap::default(),
            uses: FxHashMap::default(),
            watermark,
            materialized,
            cached_enabled: None,
            next_tag_slot,
            tag_joins,
            doomed: Vec::new(),
            empty_slots: vec![None; cr.nvars()].into_boxed_slice(),
            prof: ReteReactionCounters::default(),
            keyed,
        }
    }

    /// The tag an element must carry to extend the token with `slots`
    /// into join level `k` (when that level is tag-indexed), by the one
    /// tag rule ([`tag_of`]). A binding naming no tag is joinable at that
    /// level by nothing, so such tokens live in no index bucket.
    fn required_tag(slots: &[Option<Value>], slot: u16) -> Option<Tag> {
        slots[slot as usize].as_ref().and_then(tag_of)
    }

    /// Complete matches in the terminal memory, or ready tags. Only the
    /// enabled-match count when the net is fully materialised; a spilled
    /// net keeps no terminal lane (see [`ReteNetwork::has_match`]).
    fn match_count(&self) -> usize {
        match &self.keyed {
            Some(store) => store.lane.len(),
            None => self.levels[self.arity - 1].len(),
        }
    }

    /// Route a delta at `(label, tag)` to a tag-keyed net: re-derive its
    /// position's bit from the live bag, unless `known_present`. The
    /// `bulk` build reads every bit off the (complete) bag and queues a
    /// full tag only at its join-order position-0 element.
    fn keyed_delta<S: MatchSource>(
        &mut self,
        cr: &CompiledReaction,
        bag: &S,
        label: Symbol,
        tag: Tag,
        known_present: bool,
        bulk: bool,
    ) {
        let store = self.keyed.as_mut().expect("keyed net");
        // The one tag rule: the binding of a tag ≥ 2⁶³ names no tag, so
        // no second position can join on it.
        if cr.arity() > 1 && tag_of(&Value::Int(tag.0 as i64)).is_none() {
            return;
        }
        let positions = cr.positions();
        // Does any label position `q` admits hold an element at `tag`?
        let occupied = |q: usize| {
            positions[q].label.literals().iter().any(|&l| {
                let mut hit = false;
                bag.visit_values(l, tag, &mut |_, count| {
                    hit = count > 0;
                    !hit
                });
                hit
            })
        };
        let Some(p) = positions.iter().position(|pat| pat.label.admits(label)) else {
            return;
        };
        if bulk {
            let at_p0 = p == cr.join_order()[0];
            for q in 0..positions.len() {
                store.set(tag, 1 << q, occupied(q), at_p0);
            }
        } else {
            store.set(tag, 1 << p, known_present || occupied(p), true);
        }
    }

    fn live_tokens(&self) -> usize {
        self.tokens.len() - self.free.len()
    }

    /// True when the net has virtual join levels, by plan or by demotion.
    fn is_spilled(&self) -> bool {
        self.materialized < self.arity
    }

    /// Demote the deepest materialised level: drop its tokens and leave
    /// its matches to on-demand recomputation.
    fn demote_deepest(&mut self, stats: &mut ReteStats) {
        self.materialized -= 1;
        while let Some(&id) = self.levels[self.materialized].last() {
            self.retire(id, stats);
        }
        self.cached_enabled = None;
        stats.spill_demotions += 1;
    }

    /// The one-way cap: while the tokens above level 0 exceed the
    /// watermark, demote the deepest materialised level. Level 0 is
    /// neither counted nor demoted.
    fn enforce_watermark(&mut self, stats: &mut ReteStats) {
        while self.live_tokens() - self.levels[0].len() > self.watermark && self.materialized > 1 {
            self.demote_deepest(stats);
        }
    }

    /// Process one inserted element: enter it at every admitting position,
    /// joining leftward with existing tokens and completing rightward from
    /// the bag index.
    ///
    /// With `first_position_only` the element enters at join level 0
    /// exclusively — the *bulk build* rule: when every element of the bag
    /// receives its own insert event and extensions query the full bag,
    /// any tuple is generated by its position-0 element's event, so the
    /// leftward joins at deeper levels produce only duplicates. Runtime
    /// deltas must keep all entries (existing prefixes wait on the new
    /// element at deeper positions).
    ///
    /// With `enter_level0 == false` (a sliced network processing an
    /// element another worker's slice owns) the element joins existing
    /// prefixes at levels ≥ 1 but creates no level-0 token: tokens
    /// anchored at a foreign `(label, tag)` key belong to the foreign
    /// slice.
    #[allow(clippy::too_many_arguments)]
    fn on_insert<S: MatchSource>(
        &mut self,
        cr: &CompiledReaction,
        bag: &S,
        id: ElemId,
        value: &Value,
        label: Symbol,
        tag: Tag,
        first_position_only: bool,
        enter_level0: bool,
        stats: &mut ReteStats,
    ) {
        stats.inserts += 1;
        // Insertion is monotone: it can enable a spilled reaction but
        // never disable one, so only a cached "no match" goes stale.
        if self.cached_enabled == Some(false) {
            self.cached_enabled = None;
        }
        let entry_levels = if first_position_only {
            1
        } else {
            self.materialized
        };
        // The bag count is shared by every entry level; read it lazily so
        // a delta that enters nowhere (foreign slice, no waiting
        // prefixes) costs no bag probe at all — on the sharded engine a
        // probe is a shard lock, paid per worker per delta otherwise.
        let mut avail_cache: Option<usize> = None;
        for k in 0..entry_levels {
            if k == 0 && !enter_level0 {
                continue;
            }
            if k > 0 && self.levels[k - 1].is_empty() {
                continue;
            }
            let p = cr.join_order()[k];
            if !cr.position_admits_parts(p, label, tag, value) {
                continue;
            }
            let pat = &cr.positions()[p];
            let avail = match avail_cache {
                Some(a) => a,
                None => {
                    let a = bag.count_at(label, tag, value);
                    avail_cache = Some(a);
                    a
                }
            };
            if k == 0 {
                let empty = std::mem::take(&mut self.empty_slots);
                let made =
                    self.try_child(cr, pat, &[], &empty, 0, id, label, tag, value, avail, stats);
                self.empty_slots = empty;
                if let Some(id) = made {
                    self.extend_all(cr, bag, id, stats);
                }
            } else {
                // Join the new element against the previous level — via
                // the tag join index when this level is tag-discriminated
                // (only prefixes bound to `e.tag` can extend), the full
                // prior-level scan otherwise. The snapshot excludes tokens
                // created by this very event; tuples using the element at
                // several positions are still produced, by rightward
                // completion from its earliest admitting position (the bag
                // already holds the element).
                let prior: Vec<u32> = match &self.tag_joins[k] {
                    Some(map) => map
                        .get(&tag)
                        .map(|ids| ids.iter().copied().collect())
                        .unwrap_or_default(),
                    None => self.levels[k - 1].clone(),
                };
                for tid in prior {
                    let t = self.tokens[tid as usize].take().expect("live token");
                    let made = self.try_child(
                        cr, pat, &t.elems, &t.slots, k, id, label, tag, value, avail, stats,
                    );
                    self.tokens[tid as usize] = Some(t);
                    if let Some(id) = made {
                        self.extend_all(cr, bag, id, stats);
                    }
                }
            }
        }
        self.enforce_watermark(stats);
    }

    /// Process one removed occurrence: retire every token using the
    /// element more often than its remaining multiplicity.
    fn on_remove(&mut self, id: ElemId, remaining: usize, stats: &mut ReteStats) {
        stats.removals += 1;
        // Removal is anti-monotone: a cached "match" may now be gone, a
        // cached "no match" cannot come back.
        if self.cached_enabled == Some(true) {
            self.cached_enabled = None;
        }
        let Some(ids) = self.uses.get(&id) else {
            return;
        };
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        doomed.extend(ids.iter().copied().filter(|&tid| {
            let t = self.tokens[tid as usize].as_ref().expect("indexed token");
            t.elems.iter().filter(|&&x| x == id).count() > remaining
        }));
        for id in &doomed {
            self.retire(*id, stats);
        }
        self.doomed = doomed;
    }

    /// Complete token `id` rightward through every remaining join level,
    /// enumerating candidates from the bag index.
    fn extend_all<S: MatchSource>(
        &mut self,
        cr: &CompiledReaction,
        bag: &S,
        id: u32,
        stats: &mut ReteStats,
    ) {
        let level = {
            let t = self.tokens[id as usize].as_ref().expect("live token");
            t.elems.len()
        };
        // The materialised horizon: a token at `materialized - 1` is
        // either a complete match (fully materialised net) or a frontier
        // prefix whose deeper joins are recomputed on demand.
        if level == self.materialized {
            return;
        }
        let t = self.tokens[id as usize].take().expect("live token");
        self.extend_from(cr, bag, &t.elems, &t.slots, level, stats);
        self.tokens[id as usize] = Some(t);
    }

    /// Enumerate candidates for join level `k` compatible with the prefix
    /// `(elems, slots)`, creating (and recursively completing) children.
    fn extend_from<S: MatchSource>(
        &mut self,
        cr: &CompiledReaction,
        bag: &S,
        elems: &[ElemId],
        slots: &[Option<Value>],
        k: usize,
        stats: &mut ReteStats,
    ) {
        let p = cr.join_order()[k];
        let pat = &cr.positions()[p];

        // Label candidates: pinned by a bound label variable when present,
        // otherwise the position's static filter.
        if let Some(v) = pat.label_var {
            if let Some(bound) = &slots[v as usize] {
                let Value::Str(s) = bound else { return };
                let label = Symbol::intern(s);
                if pat.label.admits(label) {
                    self.extend_label(cr, bag, elems, slots, k, label, stats);
                }
                return;
            }
        }
        if let LabelFilter::Any = pat.label {
            bag.visit_labels(&mut |l| {
                self.extend_label(cr, bag, elems, slots, k, l, stats);
                true
            });
        } else {
            for &l in pat.label.literals() {
                self.extend_label(cr, bag, elems, slots, k, l, stats);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_label<S: MatchSource>(
        &mut self,
        cr: &CompiledReaction,
        bag: &S,
        elems: &[ElemId],
        slots: &[Option<Value>],
        k: usize,
        label: Symbol,
        stats: &mut ReteStats,
    ) {
        let pat = &cr.positions()[cr.join_order()[k]];
        match pat.tag_pin(slots) {
            Some(Some(t)) => self.extend_tag(cr, bag, elems, slots, k, label, t, stats),
            Some(None) => {}
            None => {
                bag.visit_tags(label, &mut |t| {
                    self.extend_tag(cr, bag, elems, slots, k, label, t, stats);
                    true
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_tag<S: MatchSource>(
        &mut self,
        cr: &CompiledReaction,
        bag: &S,
        elems: &[ElemId],
        slots: &[Option<Value>],
        k: usize,
        label: Symbol,
        tag: Tag,
        stats: &mut ReteStats,
    ) {
        let pat = &cr.positions()[cr.join_order()[k]];
        let pinned: Option<Value> = match (&pat.value_lit, pat.value_var) {
            (Some(lit), _) => Some(lit.clone()),
            (None, Some(v)) => slots[v as usize].clone(),
            _ => None,
        };
        let mut made: Vec<u32> = Vec::new();
        match pinned {
            Some(value) => {
                let (avail, cand) = bag.probe_at(label, tag, &value);
                if let Some(cand) = cand {
                    if let Some(id) = self.try_child(
                        cr, pat, elems, slots, k, cand, label, tag, &value, avail, stats,
                    ) {
                        made.push(id);
                    }
                }
            }
            None => {
                bag.visit_value_ids(label, tag, &mut |cand, value, avail| {
                    if let Some(id) = self.try_child(
                        cr, pat, elems, slots, k, cand, label, tag, value, avail, stats,
                    ) {
                        made.push(id);
                    }
                    true
                });
            }
        }
        for id in made {
            self.extend_all(cr, bag, id, stats);
        }
    }

    /// The guard-dispatch loop of [`ReactionNet::try_child`]: level `k`'s
    /// pushed conjuncts, then (at the terminal level) the clause-guard
    /// disjunction; `false` rejects the candidate. `holds(chunks, exprs,
    /// i)` evaluates guard `i` of the given group with whichever evaluator
    /// the mode selects. Both modes run this one loop over the same
    /// groups in the same order — the shared
    /// [`ReactionVm::dispatch_order`](crate::vm::ReactionVm), identity on
    /// the baseline tier, re-sorted most-rejecting-first at tier-up — so
    /// `guard_evals`/`guard_rejects` are identical whichever evaluator
    /// runs (the conservation property `tests/observability.rs` pins).
    fn guards_hold(
        &mut self,
        cr: &CompiledReaction,
        k: usize,
        stats: &mut ReteStats,
        holds: impl Fn(&[Chunk], &[Expr], usize) -> bool,
    ) -> bool {
        let vm = cr.vm();
        let chunks = vm.active();
        let mut passed = true;
        for &ci in vm.dispatch_order(k) {
            self.prof.guard_evals += 1;
            if !holds(
                &chunks.level_conjuncts[k],
                &self.guards.level_conjuncts[k],
                ci as usize,
            ) {
                vm.note_conjunct_reject(k, ci);
                passed = false;
                break;
            }
        }
        if passed && k + 1 == self.arity {
            if let (Some(chunks), Some(exprs)) =
                (&chunks.clause_disjunction, &self.guards.clause_disjunction)
            {
                passed = false;
                for i in 0..exprs.len() {
                    self.prof.guard_evals += 1;
                    if holds(chunks, exprs, i) {
                        passed = true;
                        break;
                    }
                }
            }
        }
        if !passed {
            self.prof.guard_rejects += 1;
            stats.guard_rejects += 1;
        }
        passed
    }

    /// Try to create the child token `prefix + element@level k`. Performs,
    /// in cost order: multiplicity check, binding compatibility, pushed
    /// guard conjuncts, terminal clause disjunction, and deduplication.
    /// Rejections allocate nothing.
    #[allow(clippy::too_many_arguments)]
    fn try_child(
        &mut self,
        cr: &CompiledReaction,
        pat: &crate::compiled::CompiledPattern,
        elems: &[ElemId],
        slots: &[Option<Value>],
        k: usize,
        cand: ElemId,
        label: Symbol,
        tag: Tag,
        value: &Value,
        avail: usize,
        stats: &mut ReteStats,
    ) -> Option<u32> {
        if avail == 0 {
            return None;
        }
        // Multiplicity check: how many prefix positions already consume
        // this element. Interned ids make it an integer scan.
        let used = elems.iter().filter(|&&x| x == cand).count();
        if used + 1 > avail {
            return None;
        }

        // Binding compatibility without allocating: bound slots must agree
        // with the candidate's fields; unbound slots become overlay extras.
        let mut extras: [(u16, Value); 3] = [
            (u16::MAX, Value::Bool(false)),
            (u16::MAX, Value::Bool(false)),
            (u16::MAX, Value::Bool(false)),
        ];
        let mut nextra = 0usize;
        {
            let mut bind = |slot: u16, candidate: Value| -> bool {
                if let Some(existing) = &slots[slot as usize] {
                    return *existing == candidate;
                }
                if let Some((_, prev)) = extras[..nextra].iter().find(|(s, _)| *s == slot) {
                    return *prev == candidate;
                }
                extras[nextra] = (slot, candidate);
                nextra += 1;
                true
            };
            if let Some(v) = pat.value_var {
                if !bind(v, value.clone()) {
                    return None;
                }
            }
            if let Some(v) = pat.label_var {
                if !bind(v, Value::str(label.as_str())) {
                    return None;
                }
            }
            if let Some(v) = pat.tag_var {
                if !bind(v, Value::Int(tag.0 as i64)) {
                    return None;
                }
            }
        }
        let extras = &extras[..nextra];

        // Guard dispatch: one loop, two evaluators — an evaluation error
        // means "does not hold" in both.
        let passed = match cr.guard_eval_mode() {
            GuardEvalMode::Vm => self.guards_hold(cr, k, stats, |chunks, _, i| {
                chunks[i].eval_guard(slots, extras)
            }),
            GuardEvalMode::Tree => {
                let env = SlotEnv {
                    index: cr.var_index(),
                    base: slots,
                    extra: extras,
                };
                self.guards_hold(cr, k, stats, |_, exprs, i| {
                    exprs[i].eval_bool(&env).unwrap_or(false)
                })
            }
        };
        if !passed {
            return None;
        }

        // Materialise the key and deduplicate: a `u64` copy per position
        // and an integer-sequence hash, no `Value` clones.
        let mut child_elems = Vec::with_capacity(k + 1);
        child_elems.extend_from_slice(elems);
        child_elems.push(cand);
        let child_elems: Box<[ElemId]> = child_elems.into_boxed_slice();
        if self.by_key.contains_key(&*child_elems) {
            stats.dedup_hits += 1;
            return None;
        }

        let mut child_slots: Box<[Option<Value>]> = slots.to_vec().into_boxed_slice();
        for (slot, v) in extras {
            child_slots[*slot as usize] = Some(v.clone());
        }

        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.tokens.push(None);
                (self.tokens.len() - 1) as u32
            }
        };
        let pos = self.levels[k].len();
        self.levels[k].push(id);
        self.by_key.insert(child_elems.clone(), id);
        for (i, &eid) in child_elems.iter().enumerate() {
            if child_elems[..i].contains(&eid) {
                continue;
            }
            self.uses.entry(eid).or_default().insert(id);
        }
        // Maintain the next level's tag join index (see `tag_joins`).
        if let Some(&Some(slot)) = self.next_tag_slot.get(k + 1) {
            if let Some(required) = Self::required_tag(&child_slots, slot) {
                self.tag_joins[k + 1]
                    .as_mut()
                    .expect("slot implies index")
                    .entry(required)
                    .or_default()
                    .insert(id);
            }
        }
        self.tokens[id as usize] = Some(Token {
            elems: child_elems,
            slots: child_slots,
            pos,
        });
        stats.tokens_created += 1;
        // Network-wide live count: the stats are shared by every reaction
        // net, so derive liveness from the global counters rather than
        // this net's arena.
        stats.peak_live_tokens = stats
            .peak_live_tokens
            .max(stats.tokens_created - stats.tokens_retired);
        self.prof.peak_tokens = self.prof.peak_tokens.max(self.live_tokens() as u64);
        Some(id)
    }

    fn retire(&mut self, id: u32, stats: &mut ReteStats) {
        let t = self.tokens[id as usize].take().expect("live token");
        let level = t.elems.len() - 1;
        // Unindex from the next level's tag join index (see `tag_joins`).
        if let Some(&Some(slot)) = self.next_tag_slot.get(level + 1) {
            if let Some(required) = Self::required_tag(&t.slots, slot) {
                let map = self.tag_joins[level + 1]
                    .as_mut()
                    .expect("slot implies index");
                if let Some(set) = map.get_mut(&required) {
                    set.remove(&id);
                    if set.is_empty() {
                        map.remove(&required);
                    }
                }
            }
        }
        let lane = &mut self.levels[level];
        lane.swap_remove(t.pos);
        if t.pos < lane.len() {
            let moved = lane[t.pos];
            self.tokens[moved as usize]
                .as_mut()
                .expect("moved token is live")
                .pos = t.pos;
        }
        self.by_key.remove(&*t.elems);
        for (i, &eid) in t.elems.iter().enumerate() {
            if t.elems[..i].contains(&eid) {
                continue;
            }
            if let Some(set) = self.uses.get_mut(&eid) {
                set.remove(&id);
                if set.is_empty() {
                    self.uses.remove(&eid);
                }
            }
        }
        self.free.push(id);
        stats.tokens_retired += 1;
    }
}

/// A firing's **net** delta: the distinct removed and inserted elements
/// after cancelling every element both consumed and produced (a dataflow
/// token passing through unchanged is a no-op). The single source of the
/// cancellation rule, shared by [`ReteNetwork::on_firing_applied`] and
/// the parallel engine's delta-mailbox publisher — the two must agree or
/// worker slices would silently diverge from the sequential reference.
///
/// Elements are interned once here and everything downstream — the
/// cancellation check, dedup, mailbox routing, slice feeds — works on
/// arena ids: interning is injective, so id equality *is* element
/// equality and the cancellation rule is unchanged.
pub(crate) fn firing_net_delta_ids(firing: &Firing) -> (Vec<ElemId>, Vec<ElemId>) {
    let consumed: Vec<ElemId> = firing.consumed.iter().map(ElemId::intern).collect();
    let produced: Vec<ElemId> = firing.produced.iter().map(ElemId::intern).collect();
    let mut produced_cancelled = vec![false; produced.len()];
    let mut removed: Vec<ElemId> = Vec::new();
    'consumed: for &c in &consumed {
        for (i, &p) in produced.iter().enumerate() {
            if !produced_cancelled[i] && p == c {
                produced_cancelled[i] = true;
                continue 'consumed;
            }
        }
        if !removed.contains(&c) {
            removed.push(c);
        }
    }
    let mut inserted: Vec<ElemId> = Vec::new();
    for (i, &p) in produced.iter().enumerate() {
        if !produced_cancelled[i] && !inserted.contains(&p) {
            inserted.push(p);
        }
    }
    (removed, inserted)
}

/// The firing of reaction `r` consuming `consumed` (replace-list order)
/// under the tuple's bindings `slots`.
fn firing_for(
    cr: &CompiledReaction,
    r: usize,
    consumed: Vec<Element>,
    slots: Vec<Option<Value>>,
) -> Result<Option<Firing>, MatchError> {
    let (clause, produced) = cr
        .eval_outputs_for_slots(slots)?
        .expect("a memorised match has an enabled clause");
    Ok(Some(Firing {
        reaction: r,
        consumed,
        produced,
        clause,
    }))
}

/// Default per-reaction token watermark for [`ReteNetwork::new`]: the cap
/// on live tokens above join level 0.
///
/// Sized so the committed workloads' exact memories fit comfortably (the
/// `primes(2000)` sieve peaks around 14k live tokens) while a guarded
/// join that rejects too little is demoted long before it can memorise
/// its n² pairs.
pub const DEFAULT_SPILL_WATERMARK: usize = 32 * 1024;

/// The program-wide join network: one per-reaction net of beta memories,
/// deltas routed through the scheduler's [`DependencyIndex`].
#[derive(Debug)]
pub struct ReteNetwork {
    nets: Vec<ReactionNet>,
    deps: DependencyIndex,
    /// When set, this network is one worker's slice: only tokens whose
    /// join-order position-0 element's `(label, tag)` key the slice owns
    /// are materialised (see [`AlphaSlice`]).
    slice: Option<AlphaSlice>,
    /// Scratch for delta routing (dependents, deduplicated).
    route: Vec<usize>,
    /// Bitset over reactions: a non-empty terminal or keyed lane.
    ready: Vec<u64>,
    /// Bitset over reactions: spilled, so enabledness needs a probe.
    spilled: Vec<u64>,
    /// Scratch for ready-reaction picks.
    picks: Vec<usize>,
    /// Scratch for a keyed pick's bucket candidates.
    cands: Vec<ElemId>,
    /// Scratch for spilled-prefix completion searches.
    probe_scratch: SearchScratch,
    /// Scratch for resolving token ids back to elements on spill paths
    /// (the completion search works over owned elements).
    elem_scratch: Vec<Element>,
    /// Lifetime counters.
    pub stats: ReteStats,
}

impl ReteNetwork {
    /// Build a network over `initial` with the
    /// [default watermark](DEFAULT_SPILL_WATERMARK). The network is exact
    /// at any watermark (see the module docs); the watermark only trades
    /// memorisation against on-demand recomputation.
    pub fn new<S: MatchSource>(compiled: &CompiledProgram, initial: &S) -> ReteNetwork {
        Self::with_watermark(compiled, initial, DEFAULT_SPILL_WATERMARK)
    }

    /// Build a network whose per-reaction beta memories above level 0
    /// are capped at `watermark` live tokens: past it, the deepest
    /// materialised levels demote to virtual for good and their matches
    /// are recomputed by search on demand.
    pub fn with_watermark<S: MatchSource>(
        compiled: &CompiledProgram,
        initial: &S,
        watermark: usize,
    ) -> ReteNetwork {
        Self::build(compiled, initial, watermark, None)
    }

    /// Build one worker's *slice* of the network: only matches anchored
    /// (at join-order position 0) in the slice's alpha shards are
    /// memorised. The union of the `slice.workers` slices is exactly the
    /// full network, with every token owned by one worker.
    pub fn with_slice<S: MatchSource>(
        compiled: &CompiledProgram,
        initial: &S,
        watermark: usize,
        slice: AlphaSlice,
    ) -> ReteNetwork {
        Self::build(compiled, initial, watermark, Some(slice))
    }

    fn build<S: MatchSource>(
        compiled: &CompiledProgram,
        initial: &S,
        watermark: usize,
        slice: Option<AlphaSlice>,
    ) -> ReteNetwork {
        let words = compiled.reactions.len().div_ceil(64);
        let mut net = ReteNetwork {
            nets: compiled
                .reactions
                .iter()
                .map(|cr| ReactionNet::new(cr, watermark))
                .collect(),
            deps: DependencyIndex::new(compiled),
            slice,
            route: Vec::new(),
            ready: vec![0; words],
            spilled: vec![0; words],
            picks: Vec::new(),
            cands: Vec::new(),
            probe_scratch: SearchScratch::new(),
            elem_scratch: Vec::new(),
            stats: ReteStats::default(),
        };
        // Bulk build: one event per distinct element (joins read live bag
        // multiplicities), entering at position 0 only — every tuple is
        // generated by its position-0 element's event completing rightward
        // through the full bag, so deeper entries would only duplicate.
        // A slice additionally skips elements it does not own: their
        // tuples are anchored in (and built by) another worker's slice.
        let mut distinct: Vec<Element> = Vec::new();
        for label in initial.all_labels() {
            for tag in initial.tags_for_label(label) {
                for (value, _) in initial.values_at(label, tag) {
                    distinct.push(Element { value, label, tag });
                }
            }
        }
        for e in &distinct {
            if net.slice.as_ref().is_some_and(|s| !s.owns(e.label, e.tag)) {
                continue;
            }
            net.feed_insert(compiled, initial, e, true);
        }
        net
    }

    /// Re-derive reaction `r`'s bits in the `ready` and `spilled` sets
    /// after its net changed.
    fn resync(&mut self, r: usize) {
        let (w, bit, net) = (r / 64, 1u64 << (r % 64), &self.nets[r]);
        let (ready, spilled) = (net.match_count() > 0, net.is_spilled());
        self.ready[w] = (self.ready[w] & !bit) | if ready { bit } else { 0 };
        self.spilled[w] = (self.spilled[w] & !bit) | if spilled { bit } else { 0 };
    }

    /// Collect into `picks` the enabled reactions (only the first with
    /// `first_only`), ascending: the ready set read off directly, spilled
    /// reactions probed.
    fn collect_enabled<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        first_only: bool,
    ) {
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        'words: for w in 0..self.ready.len() {
            let mut bits = self.ready[w] | self.spilled[w];
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.spilled[w] & (1 << (r % 64)) == 0 || self.has_match(compiled, bag, r) {
                    picks.push(r);
                    if first_only {
                        break 'words;
                    }
                }
            }
        }
        self.picks = picks;
    }

    /// The slice filter this network was built with, if any.
    pub fn slice(&self) -> Option<&AlphaSlice> {
        self.slice.as_ref()
    }

    /// Number of complete (enabled) matches memorised for reaction `r`.
    /// Only meaningful while `r` is fully materialised — a spilled
    /// reaction keeps no terminal lane; use [`Self::has_match`] for the
    /// exact enabledness answer under any plan and watermark.
    pub fn match_count(&self, r: usize) -> usize {
        self.nets[r].match_count()
    }

    /// True when reaction `r` has virtual join levels: left virtual by
    /// its static plan or demoted by the watermark.
    pub fn is_spilled(&self, r: usize) -> bool {
        self.nets[r].is_spilled()
    }

    /// Total live tokens across all reactions and levels.
    pub fn total_tokens(&self) -> usize {
        self.nets.iter().map(|n| n.live_tokens()).sum()
    }

    /// Drain the per-reaction profile counters: each reaction's counters
    /// accumulated since the last call, reset afterwards (the peak resets
    /// to the *current* live-token count, so a standing population is
    /// still visible to the next drain). Take-and-reset semantics keep
    /// profile accumulation across waves, snapshots, and restores free of
    /// double counting: the session folds each drain into its cumulative
    /// [`ProfileTable`](crate::telemetry::ProfileTable) and a rebuilt
    /// matcher starts from zero.
    pub fn take_reaction_counters(&mut self) -> Vec<ReteReactionCounters> {
        self.nets
            .iter_mut()
            .map(|n| {
                let out = n.prof;
                n.prof = ReteReactionCounters {
                    peak_tokens: n.live_tokens() as u64,
                    ..ReteReactionCounters::default()
                };
                out
            })
            .collect()
    }

    /// Exact enabledness of reaction `r`: read off the terminal memory
    /// when fully materialised; decided by completing frontier prefixes
    /// against the live bag (then cached until the next routed delta)
    /// when spilled. For a sliced network the answer covers the matches
    /// this slice owns.
    pub fn has_match<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        r: usize,
    ) -> bool {
        let ReteNetwork {
            nets,
            probe_scratch,
            elem_scratch,
            stats,
            ..
        } = self;
        let net = &mut nets[r];
        if !net.is_spilled() {
            return net.match_count() > 0;
        }
        if let Some(cached) = net.cached_enabled {
            return cached;
        }
        stats.spill_probes += 1;
        let cr = &compiled.reactions[r];
        let enabled = net.levels[net.materialized - 1].iter().any(|&id| {
            let t = net.tokens[id as usize].as_ref().expect("live token");
            elem_scratch.clear();
            elem_scratch.extend(t.elems.iter().map(|eid| eid.to_element()));
            cr.prefix_completes(bag, elem_scratch, &t.slots, probe_scratch)
        });
        net.cached_enabled = Some(enabled);
        enabled
    }

    /// Lowest-indexed enabled reaction — the deterministic engine's
    /// selection rule ("first enabled reaction in program order"),
    /// answered from memory (or the cached/on-demand spill probe)
    /// instead of by whole-program search.
    pub fn first_ready<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
    ) -> Option<usize> {
        self.collect_enabled(compiled, bag, true);
        self.picks.first().copied()
    }

    /// A uniformly random reaction among the enabled ones.
    pub fn pick_ready<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        self.collect_enabled(compiled, bag, false);
        if self.picks.is_empty() {
            return None;
        }
        Some(self.picks[(rng.next_u64() % self.picks.len() as u64) as usize])
    }

    /// Materialise a [`Firing`] for reaction `r`: from a random terminal
    /// token (a random ready tag, for a keyed net) when fully
    /// materialised, by seeded completion of a random frontier prefix
    /// when spilled. Output evaluation errors propagate exactly as in the
    /// searching engines. `Ok(None)` when `r` has no match; for an
    /// unsliced network asked about an enabled reaction it is only
    /// possible on a maintenance bug (debug builds assert) and tells the
    /// engine to fall back to the exact search. A *sliced* network racing
    /// concurrent claimants may legitimately return `Ok(None)` from a
    /// stale answer — the caller retries after draining its deltas.
    pub fn pick_firing<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        r: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<Option<Firing>, MatchError> {
        let cr = &compiled.reactions[r];
        let net = &self.nets[r];
        if let Some(store) = &net.keyed {
            if store.lane.is_empty() {
                return Ok(None);
            }
            let tag = store.lane[(rng.next_u64() % store.lane.len() as u64) as usize];
            let mut slots = net.empty_slots.to_vec();
            slots[store.tag_slot as usize] = Some(Value::Int(tag.0 as i64));
            let mut consumed = Vec::with_capacity(net.arity);
            for pat in cr.positions() {
                let cands = &mut self.cands;
                cands.clear();
                for &label in pat.label.literals() {
                    bag.visit_value_ids(label, tag, &mut |id, _, count| {
                        if count > 0 {
                            cands.push(id);
                        }
                        true
                    });
                }
                let id = match cands.len() {
                    0 => {
                        debug_assert!(self.slice.is_some(), "tag {tag} of {r}: empty bucket");
                        return Ok(None);
                    }
                    1 => cands[0],
                    n => cands[(rng.next_u64() % n as u64) as usize],
                };
                let e = id.to_element();
                slots[pat.value_var.expect("keyed positions bind values") as usize] =
                    Some(e.value.clone());
                if let Some(v) = pat.label_var {
                    slots[v as usize] = Some(Value::str(e.label.as_str()));
                }
                consumed.push(e);
            }
            return firing_for(cr, r, consumed, slots);
        }
        // The terminal lane, or a spilled net's frontier.
        let lane = &net.levels[net.materialized - 1];
        if lane.is_empty() {
            return Ok(None);
        }
        let start = (rng.next_u64() % lane.len() as u64) as usize;
        if !net.is_spilled() {
            let token = net.tokens[lane[start] as usize]
                .as_ref()
                .expect("live token");
            let mut consumed: Vec<Option<Element>> = vec![None; net.arity];
            for (k, &p) in cr.join_order().iter().enumerate() {
                consumed[p] = Some(token.elems[k].to_element());
            }
            let consumed = consumed.into_iter().map(|e| e.expect("permutation"));
            return firing_for(cr, r, consumed.collect(), token.slots.to_vec());
        }
        // Spilled: complete a frontier prefix, starting from the random
        // offset so tuple selection stays seeded-nondeterministic.
        for i in 0..lane.len() {
            let id = lane[(start + i) % lane.len()];
            let t = net.tokens[id as usize].as_ref().expect("live token");
            self.elem_scratch.clear();
            self.elem_scratch
                .extend(t.elems.iter().map(|eid| eid.to_element()));
            if let Some(f) = cr.complete_prefix(
                r,
                bag,
                &self.elem_scratch,
                &t.slots,
                Some(rng),
                &mut self.probe_scratch,
            )? {
                return Ok(Some(f));
            }
        }
        debug_assert!(
            self.slice.is_some(),
            "reaction {r} reported enabled but no frontier prefix completes"
        );
        Ok(None)
    }

    /// Account a firing already applied to `bag`: feed the network the
    /// firing's **net** delta, so an element both consumed and produced
    /// (a dataflow token passing through unchanged) costs nothing.
    pub fn on_firing_applied<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        firing: &Firing,
    ) {
        let (removed, inserted) = firing_net_delta_ids(firing);
        for &id in &removed {
            self.feed_remove_id(compiled, bag, id);
        }
        for &id in &inserted {
            self.feed_insert_id(compiled, bag, id);
        }
    }

    /// Account externally removed occurrences (maximal-parallel stepping
    /// removes consumed tuples mid-step while withholding products; the
    /// sharded parallel engine feeds foreign workers' removal deltas).
    pub fn on_removed<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        elems: &[Element],
    ) {
        for (i, e) in elems.iter().enumerate() {
            if elems[..i].contains(e) {
                continue;
            }
            self.feed_remove(compiled, bag, e);
        }
    }

    /// Id-level twin of [`ReteNetwork::on_removed`] for callers already
    /// holding arena ids (the sharded engine's delta mailboxes): no
    /// element materialisation, no arena lookup.
    pub fn on_removed_ids<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        ids: &[ElemId],
    ) {
        for (i, &id) in ids.iter().enumerate() {
            if ids[..i].contains(&id) {
                continue;
            }
            self.feed_remove_id(compiled, bag, id);
        }
    }

    /// Account externally inserted elements (pipeline seeding, parallel
    /// step barriers, sharded delta mailboxes).
    pub fn on_inserted<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        elems: &[Element],
    ) {
        for (i, e) in elems.iter().enumerate() {
            if elems[..i].contains(e) {
                continue;
            }
            self.feed_insert(compiled, bag, e, false);
        }
    }

    /// Id-level twin of [`ReteNetwork::on_inserted`]: ids are already
    /// canonical, so the insert feed pays zero hashes.
    pub fn on_inserted_ids<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        ids: &[ElemId],
    ) {
        for (i, &id) in ids.iter().enumerate() {
            if ids[..i].contains(&id) {
                continue;
            }
            self.feed_insert_id(compiled, bag, id);
        }
    }

    fn collect_route(&mut self, label: Symbol) {
        // A reaction can be reachable both via the label class and the
        // wildcard list; deduplicate so it processes each delta once.
        self.route.clear();
        let route = &mut self.route;
        self.deps.for_each_dependent(label, |r| route.push(r));
        route.sort_unstable();
        route.dedup();
    }

    fn feed_insert<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        e: &Element,
        first_position_only: bool,
    ) {
        self.collect_route(e.label);
        if self.route.is_empty() {
            return;
        }
        // One intern per routed delta; every net works on the id after.
        let id = ElemId::intern(e);
        self.feed_insert_routed(
            compiled,
            bag,
            id,
            &e.value,
            e.label,
            e.tag,
            first_position_only,
        );
    }

    /// Feed an already-interned insert delta: the id *is* the message, so
    /// the feed pays zero hashes — one arena resolve recovers the payload
    /// borrow the join levels compare against.
    fn feed_insert_id<S: MatchSource>(&mut self, compiled: &CompiledProgram, bag: &S, id: ElemId) {
        let label = id.label();
        self.collect_route(label);
        if self.route.is_empty() {
            return;
        }
        let (value, tag) = id.resolve();
        self.feed_insert_routed(compiled, bag, id, value, label, *tag, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn feed_insert_routed<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        id: ElemId,
        value: &Value,
        label: Symbol,
        tag: Tag,
        first_position_only: bool,
    ) {
        // A sliced network only anchors tokens it owns at level 0; the
        // element still joins existing prefixes at deeper levels. Keyed
        // deltas are skipped outright when not owned: every label of a
        // keyed reaction has one owner.
        let owned = self.slice.as_ref().is_none_or(|s| s.owns(label, tag));
        let route = std::mem::take(&mut self.route);
        for &r in &route {
            let (cr, net) = (&compiled.reactions[r], &mut self.nets[r]);
            if net.keyed.is_none() {
                net.on_insert(
                    cr,
                    bag,
                    id,
                    value,
                    label,
                    tag,
                    first_position_only,
                    owned,
                    &mut self.stats,
                );
            } else {
                self.stats.inserts += 1;
                if owned {
                    // A slice's insert may already have been consumed
                    // by a concurrent claim: re-derive from the bag.
                    let known_present = self.slice.is_none();
                    net.keyed_delta(cr, bag, label, tag, known_present, first_position_only);
                }
            }
            self.resync(r);
        }
        self.route = route;
    }

    fn feed_remove<S: MatchSource>(&mut self, compiled: &CompiledProgram, bag: &S, e: &Element) {
        // A removed occurrence was necessarily interned at insert time;
        // one lookup serves every routed net. `None` can only happen for
        // an element that never entered any bag — no token can use it,
        // but a spilled reaction's cached answer may still go stale.
        self.collect_route(e.label);
        let id = ElemId::lookup(e);
        self.feed_remove_routed(compiled, bag, id, &e.value, e.label, e.tag);
    }

    /// Feed an already-interned remove delta (id-level twin of
    /// [`ReteNetwork::feed_remove`], minus the arena lookup).
    fn feed_remove_id<S: MatchSource>(&mut self, compiled: &CompiledProgram, bag: &S, id: ElemId) {
        let label = id.label();
        self.collect_route(label);
        let (value, tag) = id.resolve();
        self.feed_remove_routed(compiled, bag, Some(id), value, label, *tag);
    }

    fn feed_remove_routed<S: MatchSource>(
        &mut self,
        compiled: &CompiledProgram,
        bag: &S,
        id: Option<ElemId>,
        value: &Value,
        label: Symbol,
        tag: Tag,
    ) {
        let route = std::mem::take(&mut self.route);
        let owned = self.slice.as_ref().is_none_or(|s| s.owns(label, tag));
        // The remaining-count probe is a shard lock on the sharded
        // engine; read it lazily and only for nets that actually hold a
        // token using the element.
        let mut remaining: Option<usize> = None;
        for &r in &route {
            if self.nets[r].keyed.is_some() {
                self.stats.removals += 1;
                if owned {
                    self.nets[r].keyed_delta(&compiled.reactions[r], bag, label, tag, false, false);
                }
            } else if let Some(id) = id.filter(|id| self.nets[r].uses.contains_key(id)) {
                let rem = match remaining {
                    Some(x) => x,
                    None => {
                        let x = bag.count_at(label, tag, value);
                        remaining = Some(x);
                        x
                    }
                };
                self.nets[r].on_remove(id, rem, &mut self.stats);
            } else {
                // No token to retire, but a spilled reaction's cached
                // "enabled" may have rested on a virtual completion
                // through this element.
                self.stats.removals += 1;
                if self.nets[r].cached_enabled == Some(true) {
                    self.nets[r].cached_enabled = None;
                }
            }
            self.resync(r);
        }
        self.route = route;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CountingSource;
    use crate::expr::Expr;
    use crate::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
    use gammaflow_multiset::value::{BinOp, CmpOp};
    use gammaflow_multiset::ElementBag;
    use rand::SeedableRng;

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    fn compile(reactions: Vec<ReactionSpec>) -> CompiledProgram {
        CompiledProgram::compile(&GammaProgram::new(reactions)).unwrap()
    }

    fn sieve_program() -> CompiledProgram {
        compile(vec![ReactionSpec::new("sieve")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(
                CmpOp::Eq,
                Expr::bin(BinOp::Rem, Expr::var("x"), Expr::var("y")),
                Expr::int(0),
            ))
            .by(vec![ElementSpec::pair(Expr::var("y"), "n")])])
    }

    #[test]
    fn terminal_tokens_enumerate_enabled_pairs() {
        let compiled = sieve_program();
        let bag: ElementBag = [2, 3, 4, 6].iter().map(|&v| e(v, "n", 0)).collect();
        let net = ReteNetwork::new(&compiled, &bag);
        // Ordered pairs (x, y), x % y == 0, x != y occurrence-wise:
        // (4,2), (6,2), (6,3) — each value has multiplicity 1, so (x,x)
        // pairs are excluded by the multiplicity check.
        assert_eq!(net.match_count(0), 3);
        assert!(!net.is_spilled(0));
    }

    #[test]
    fn absorb_pins_every_field() {
        // Distinct nonzero values per field so a miscopied assignment
        // cannot cancel out; exhaustive literals so a new field breaks
        // this test at compile time.
        let mut a = ReteStats {
            inserts: 1,
            removals: 2,
            tokens_created: 3,
            tokens_retired: 4,
            guard_rejects: 5,
            dedup_hits: 6,
            spill_demotions: 7,
            spill_probes: 8,
            spill_repromotions: 0,
            peak_live_tokens: 10,
        };
        let b = ReteStats {
            inserts: 100,
            removals: 200,
            tokens_created: 300,
            tokens_retired: 400,
            guard_rejects: 500,
            dedup_hits: 600,
            spill_demotions: 700,
            spill_probes: 800,
            spill_repromotions: 0,
            peak_live_tokens: 5,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            ReteStats {
                inserts: 101,
                removals: 202,
                tokens_created: 303,
                tokens_retired: 404,
                guard_rejects: 505,
                dedup_hits: 606,
                spill_demotions: 707,
                spill_probes: 808,
                spill_repromotions: 0, // always zero
                peak_live_tokens: 10,  // max, not sum
            }
        );
    }

    #[test]
    fn reaction_counters_drain_and_reset() {
        let compiled = sieve_program();
        let bag: ElementBag = [2, 3, 4, 6].iter().map(|&v| e(v, "n", 0)).collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        let first = net.take_reaction_counters();
        assert_eq!(first.len(), 1);
        // The build evaluated the sieve guard for every ordered pair and
        // rejected the non-dividing ones.
        assert!(first[0].guard_evals > 0);
        assert!(first[0].guard_rejects > 0);
        assert!(first[0].peak_tokens > 0);
        // Drained: counters reset, but the standing token population is
        // carried into the fresh peak.
        let second = net.take_reaction_counters();
        assert_eq!(second[0].guard_evals, 0);
        assert_eq!(second[0].guard_rejects, 0);
        assert_eq!(second[0].peak_tokens, net.total_tokens() as u64);
    }

    #[test]
    fn multiplicity_two_enables_self_pair() {
        let compiled = sieve_program();
        let mut bag = ElementBag::new();
        bag.insert_n(e(5, "n", 0), 2);
        let net = ReteNetwork::new(&compiled, &bag);
        // (5,5) divides itself; needs both occurrences.
        assert_eq!(net.match_count(0), 1);
        let mut one = ElementBag::new();
        one.insert(e(5, "n", 0));
        let net = ReteNetwork::new(&compiled, &one);
        assert_eq!(net.match_count(0), 0);
    }

    #[test]
    fn firing_delta_updates_memory() {
        let compiled = sieve_program();
        let mut bag: ElementBag = [2, 3, 4].iter().map(|&v| e(v, "n", 0)).collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        assert_eq!(net.match_count(0), 1); // (4,2)
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let firing = net
            .pick_firing(&compiled, &bag, 0, &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(firing.consumed, vec![e(4, "n", 0), e(2, "n", 0)]);
        assert_eq!(firing.produced, vec![e(2, "n", 0)]);
        assert!(bag.remove_all(&firing.consumed));
        for p in &firing.produced {
            bag.insert(p.clone());
        }
        net.on_firing_applied(&compiled, &bag, &firing);
        // 2 was consumed and re-produced (net no-op); 4 left: no matches.
        assert_eq!(net.match_count(0), 0);
        assert!(net.stats.removals >= 1);
        // The re-produced divisor must not have been processed as a delta.
        assert_eq!(
            net.stats.inserts as usize, 3,
            "only the initial build inserts"
        );
    }

    #[test]
    fn guard_pushdown_prunes_before_terminal_join() {
        // 3-ary chain a < b < c over distinct labels: the level-1 conjunct
        // must reject (a, b) prefixes eagerly.
        let compiled = compile(vec![ReactionSpec::new("chain")
            .replace(Pattern::pair("a", "A"))
            .replace(Pattern::pair("b", "B"))
            .replace(Pattern::pair("c", "C"))
            .where_(Expr::and(
                Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("b")),
                Expr::cmp(CmpOp::Lt, Expr::var("b"), Expr::var("c")),
            ))
            .by(vec![ElementSpec::pair(Expr::var("a"), "out")])]);
        let mut bag = ElementBag::new();
        for v in [1, 9] {
            bag.insert(e(v, "A", 0));
        }
        for v in [5, 7] {
            bag.insert(e(v, "B", 0));
        }
        bag.insert(e(6, "C", 0));
        let net = ReteNetwork::new(&compiled, &bag);
        // Enabled: (1,5,6). Prefix (9,*) dies at level 1; (1,7,6) at 2.
        assert_eq!(net.match_count(0), 1);
        assert!(net.stats.guard_rejects > 0);
    }

    #[test]
    fn tag_join_completes_through_bound_tag() {
        // Waiting–matching shape: two labels joined on a shared tag var.
        let compiled = compile(vec![ReactionSpec::new("pair")
            .replace(Pattern::tagged("a", "A", "v"))
            .replace(Pattern::tagged("b", "B", "v"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "C",
                "v",
            )])]);
        let bag: ElementBag = [e(1, "A", 0), e(2, "B", 1), e(10, "A", 1)]
            .into_iter()
            .collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        assert_eq!(net.match_count(0), 1); // only tag 1 pairs up
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let f = net
            .pick_firing(&compiled, &bag, 0, &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(f.consumed, vec![e(10, "A", 1), e(2, "B", 1)]);
        assert_eq!(f.produced, vec![e(12, "C", 1)]);
    }

    #[test]
    fn clause_disjunction_gates_terminal_tokens() {
        // All clauses if-guarded: tuples failing every guard are disabled.
        let compiled = compile(vec![ReactionSpec::new("gate")
            .replace(Pattern::pair("x", "in"))
            .by_if(
                vec![ElementSpec::pair(Expr::var("x"), "out")],
                Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::int(0)),
            )]);
        let bag: ElementBag = [e(-3, "in", 0), e(4, "in", 0)].into_iter().collect();
        let net = ReteNetwork::new(&compiled, &bag);
        assert_eq!(net.match_count(0), 1);
    }

    #[test]
    fn insertion_wakes_waiting_partial_match() {
        // Guarded, so the plan materialises the terminal level.
        let compiled = compile(vec![ReactionSpec::new("join")
            .replace(Pattern::pair("a", "A"))
            .replace(Pattern::pair("b", "B"))
            .where_(Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("b")))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "C",
            )])]);
        let mut bag: ElementBag = [e(1, "A", 0)].into_iter().collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        assert_eq!(net.match_count(0), 0);
        assert_eq!(net.total_tokens(), 1); // the waiting partial match
        let b = e(2, "B", 0);
        bag.insert(b.clone());
        net.on_inserted(&compiled, &bag, std::slice::from_ref(&b));
        assert_eq!(net.match_count(0), 1);
        assert_eq!(net.first_ready(&compiled, &bag), Some(0));
    }

    fn sum_program() -> CompiledProgram {
        compile(vec![ReactionSpec::new("sum")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "n",
            )])])
    }

    /// The `sum` fold over ordered pairs `x <= y`: a pushed conjunct that
    /// never blocks the fold keeps level 1 materialised until the cap
    /// demotes it.
    fn guarded_sum_program() -> CompiledProgram {
        compile(vec![ReactionSpec::new("osum")
            .replace(Pattern::pair("x", "n"))
            .replace(Pattern::pair("y", "n"))
            .where_(Expr::cmp(CmpOp::Le, Expr::var("x"), Expr::var("y")))
            .by(vec![ElementSpec::pair(
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                "n",
            )])])
    }

    /// Fire `net` to stability, seeded; returns the firing count.
    fn fire_to_stable(
        compiled: &CompiledProgram,
        bag: &mut ElementBag,
        net: &mut ReteNetwork,
        seed: u64,
    ) -> usize {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut firings = 0;
        while let Some(r) = net.pick_ready(compiled, bag, &mut rng) {
            let f = net
                .pick_firing(compiled, bag, r, &mut rng)
                .unwrap()
                .unwrap();
            assert!(bag.remove_all(&f.consumed));
            for p in &f.produced {
                bag.insert(p.clone());
            }
            net.on_firing_applied(compiled, bag, &f);
            firings += 1;
        }
        firings
    }

    #[test]
    fn watermark_spills_deep_levels_and_stays_exact() {
        let compiled = guarded_sum_program();
        let n = 100u64;
        let bag: ElementBag = (1..=n as i64).map(|v| e(v, "n", 0)).collect();
        // The exact (high-watermark) network memorises all ordered pairs.
        let exact = ReteNetwork::new(&compiled, &bag);
        assert_eq!(exact.match_count(0), (n * (n - 1) / 2) as usize);
        // A tight watermark demotes the terminal level: only the level-0
        // frontier (one token per element) survives, and enabledness is
        // answered by frontier completion — still exactly.
        let mut spilled = ReteNetwork::with_watermark(&compiled, &bag, 50);
        assert!(spilled.is_spilled(0));
        assert_eq!(spilled.total_tokens(), n as usize);
        assert!(spilled.stats.spill_demotions > 0);
        assert!(spilled.has_match(&compiled, &bag, 0));
        assert!(spilled.stats.spill_probes > 0);
        // Cap + |level 0| + one insert event's burst (≤ n level-1 tokens).
        assert!(
            spilled.stats.peak_live_tokens <= 50 + n + n,
            "peak {} exceeds watermark + level 0 + one event burst",
            spilled.stats.peak_live_tokens
        );
    }

    #[test]
    fn cap_ignores_level_zero() {
        // `windowed_sum`'s shape: one label twice, joined on the tag. A
        // long history of one-element windows fills level 0 far past the
        // cap without a level-1 token, so nothing is demoted.
        let compiled = compile(vec![ReactionSpec::new("wsum")
            .replace(Pattern::tagged("a", "x", "t"))
            .replace(Pattern::tagged("b", "x", "t"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "x",
                "t",
            )])]);
        let mut bag: ElementBag = (0..100).map(|t| e(t as i64, "x", t)).collect();
        let mut net = ReteNetwork::with_watermark(&compiled, &bag, 10);
        let b = e(7, "x", 3);
        bag.insert(b.clone());
        net.on_inserted(&compiled, &bag, std::slice::from_ref(&b));
        assert!(!net.is_spilled(0));
        assert_eq!((net.match_count(0), net.stats.spill_demotions), (2, 0));
    }

    #[test]
    fn virtual_level_probe_reads_o1_rows() {
        // `sum`'s level 1 joins on nothing and prunes nothing, so it is
        // virtual; `has_match` completes the first frontier prefix it
        // tries, and a seeded `pick_firing` draws the completing row from
        // a lazy random order: a handful of bag reads, not one per
        // element.
        let compiled = sum_program();
        let bag = CountingSource::new((1..=1000).map(|v| e(v, "n", 0)).collect::<ElementBag>());
        // The plan keeps only the level-0 frontier; nothing was demoted.
        let mut net = ReteNetwork::new(&compiled, &bag);
        assert!(net.is_spilled(0));
        assert_eq!(net.total_tokens(), 1000);
        assert_eq!(net.stats.spill_demotions, 0);
        let before = bag.reads.get();
        assert!(net.has_match(&compiled, &bag, 0));
        let reads = bag.reads.get() - before;
        assert!(reads <= 4, "one probe read {reads} rows of 1000");
        for seed in 0..32 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let before = bag.reads.get();
            let firing = net.pick_firing(&compiled, &bag, 0, &mut rng).unwrap();
            let reads = bag.reads.get() - before;
            assert_eq!(firing.map(|f| f.consumed.len()), Some(2));
            assert!(
                reads <= 8,
                "seed {seed}: one pick read {reads} rows of 1000"
            );
        }
    }

    #[test]
    fn spilled_network_tracks_enabledness_through_deltas() {
        let compiled = sum_program();
        let mut bag: ElementBag = (1..=40).map(|v| e(v, "n", 0)).collect();
        let mut net = ReteNetwork::with_watermark(&compiled, &bag, 16);
        assert!(net.is_spilled(0));
        // Drive the spilled net to stability by firing through it.
        let firings = fire_to_stable(&compiled, &mut bag, &mut net, 9);
        assert_eq!(firings, 39, "sum fold fires n-1 times");
        assert_eq!(bag.sorted_elements(), vec![e(820, "n", 0)]);
        assert!(
            !net.has_match(&compiled, &bag, 0),
            "stable: nothing enabled"
        );
    }

    #[test]
    fn spilled_cache_invalidates_monotonically() {
        let compiled = sum_program();
        let mut bag = ElementBag::new();
        bag.insert(e(1, "n", 0));
        // Watermark 0 forces an immediate spill to the level-0 frontier.
        let mut net = ReteNetwork::with_watermark(&compiled, &bag, 0);
        assert!(net.is_spilled(0));
        assert!(
            !net.has_match(&compiled, &bag, 0),
            "one element cannot pair"
        );
        let probes = net.stats.spill_probes;
        // Cached negative answer: asking again costs nothing.
        assert!(!net.has_match(&compiled, &bag, 0));
        assert_eq!(net.stats.spill_probes, probes);
        // An insert drops the cached "no match".
        let b = e(2, "n", 0);
        bag.insert(b.clone());
        net.on_inserted(&compiled, &bag, std::slice::from_ref(&b));
        assert!(net.has_match(&compiled, &bag, 0));
        assert_eq!(net.stats.spill_probes, probes + 1);
        // A removal drops the cached "match".
        assert!(bag.remove(&b));
        net.on_removed(&compiled, &bag, std::slice::from_ref(&b));
        assert!(!net.has_match(&compiled, &bag, 0));
    }

    fn tag_pair_program() -> CompiledProgram {
        compile(vec![ReactionSpec::new("pair")
            .replace(Pattern::tagged("a", "A", "v"))
            .replace(Pattern::tagged("b", "B", "v"))
            .by(vec![ElementSpec::tagged(
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                "C",
                "v",
            )])])
    }

    fn slices_for(
        compiled: &CompiledProgram,
        workers: usize,
        bag: &ElementBag,
    ) -> Vec<ReteNetwork> {
        let plan = std::sync::Arc::new(SlicePlan::build(compiled, workers, 64));
        (0..workers)
            .map(|w| {
                ReteNetwork::with_slice(
                    compiled,
                    bag,
                    DEFAULT_SPILL_WATERMARK,
                    AlphaSlice {
                        plan: plan.clone(),
                        worker: w,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn slice_union_equals_full_network() {
        // Four independent guarded pair reactions = four dependency
        // components: the planner spreads them over the workers, and the
        // slices' terminal tokens partition the full network's matches —
        // no overlap, no gaps.
        let reactions: Vec<ReactionSpec> = (0..4)
            .map(|g| {
                ReactionSpec::new(format!("pair{g}"))
                    .replace(Pattern::pair("a", format!("A{g}").as_str()))
                    .replace(Pattern::pair("b", format!("B{g}").as_str()))
                    .where_(Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("b")))
                    .by(vec![ElementSpec::pair(
                        Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                        format!("C{g}").as_str(),
                    )])
            })
            .collect();
        let compiled = compile(reactions);
        let mut bag = ElementBag::new();
        for g in 0..4i64 {
            for v in 0..3 {
                bag.insert(e(v, &format!("A{g}"), 0));
                bag.insert(e(10 + v, &format!("B{g}"), 0));
            }
        }
        let full = ReteNetwork::new(&compiled, &bag);
        let workers = 3;
        let slices = slices_for(&compiled, workers, &bag);
        let mut spread = 0;
        for r in 0..4 {
            assert_eq!(full.match_count(r), 9);
            let per_slice: Vec<usize> = slices.iter().map(|s| s.match_count(r)).collect();
            assert_eq!(
                per_slice.iter().sum::<usize>(),
                9,
                "reaction {r}: no overlap, no gaps ({per_slice:?})"
            );
            // Component ownership: each reaction's matches live in
            // exactly one slice.
            assert_eq!(per_slice.iter().filter(|&&c| c > 0).count(), 1);
            spread |= 1 << per_slice.iter().position(|&c| c > 0).unwrap();
        }
        assert!(
            (spread as u32).count_ones() > 1,
            "four components should spread over three workers: {spread:b}"
        );
    }

    #[test]
    fn sliced_deltas_route_to_the_owning_slice() {
        let compiled = tag_pair_program();
        let mut bag = ElementBag::new();
        for t in 0..8u64 {
            bag.insert(e(t as i64, "A", t));
            bag.insert(e(10 + t as i64, "B", t));
        }
        let workers = 3;
        let mut slices = slices_for(&compiled, workers, &bag);
        let total = |ss: &[ReteNetwork]| ss.iter().map(|s| s.match_count(0)).sum::<usize>();
        assert_eq!(total(&slices), 8);
        // A fresh tagged pair becomes exactly one new match, in exactly
        // one slice, after every slice sees both insert deltas.
        let a = e(40, "A", 77);
        let b = e(41, "B", 77);
        bag.insert(a.clone());
        for s in slices.iter_mut() {
            s.on_inserted(&compiled, &bag, std::slice::from_ref(&a));
        }
        bag.insert(b.clone());
        for s in slices.iter_mut() {
            s.on_inserted(&compiled, &bag, std::slice::from_ref(&b));
        }
        assert_eq!(total(&slices), 9);
        // Removing one operand retires it from the owning slice only.
        assert!(bag.remove(&a));
        for s in slices.iter_mut() {
            s.on_removed(&compiled, &bag, std::slice::from_ref(&a));
        }
        assert_eq!(total(&slices), 8);
    }

    #[test]
    fn spill_is_one_way() {
        // A guarded fold demoted past the cap stays demoted while the bag
        // shrinks to one element, and still reaches the closed-form total.
        let compiled = guarded_sum_program();
        let mut bag: ElementBag = (1..=100).map(|v| e(v, "n", 0)).collect();
        let mut net = ReteNetwork::with_watermark(&compiled, &bag, 50);
        assert!(net.is_spilled(0));
        let demotions = net.stats.spill_demotions;
        assert_eq!(demotions, 1, "{:?}", net.stats);
        let firings = fire_to_stable(&compiled, &mut bag, &mut net, 4);
        assert_eq!(firings, 99);
        assert_eq!(bag.sorted_elements(), vec![e(5050, "n", 0)]);
        assert!(net.is_spilled(0), "a demoted level stays virtual");
        assert_eq!(net.stats.spill_demotions, demotions);
    }

    #[test]
    fn one_of_label_variable_binds_and_joins() {
        // R11 shape: OneOf label pattern binding the label variable.
        let compiled = compile(vec![ReactionSpec::new("R11")
            .replace(Pattern::one_of("id1", "x", &["A1", "A11"], "v"))
            .by(vec![ElementSpec::inc_tagged(Expr::var("id1"), "A12", "v")])]);
        let bag: ElementBag = [e(5, "A11", 3), e(9, "B1", 3)].into_iter().collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        assert_eq!(net.match_count(0), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let f = net
            .pick_firing(&compiled, &bag, 0, &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(f.produced, vec![e(5, "A12", 4)]);
    }

    #[test]
    fn pick_firing_on_a_drained_reaction_is_none() {
        // A token-lane net (the sieve) and a keyed net (the tagged pair),
        // each drained by firing its only match: asking again is
        // `Ok(None)`, not a `% 0`.
        for (compiled, mut bag) in [
            (
                sieve_program(),
                [e(4, "n", 0), e(2, "n", 0)].into_iter().collect(),
            ),
            (
                tag_pair_program(),
                [e(1, "A", 5), e(2, "B", 5)]
                    .into_iter()
                    .collect::<ElementBag>(),
            ),
        ] {
            let mut net = ReteNetwork::new(&compiled, &bag);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let f = net
                .pick_firing(&compiled, &bag, 0, &mut rng)
                .unwrap()
                .unwrap();
            assert!(bag.remove_all(&f.consumed));
            net.on_removed(&compiled, &bag, &f.consumed);
            assert_eq!(net.match_count(0), 0);
            assert_eq!(net.pick_ready(&compiled, &bag, &mut rng), None);
            assert_eq!(net.pick_firing(&compiled, &bag, 0, &mut rng), Ok(None));
        }
    }

    #[test]
    fn keyed_store_tracks_tags_without_tokens() {
        let compiled = tag_pair_program();
        assert!(matches!(
            compiled.reactions[0].match_plan(),
            MatchPlan::TagKeyed(_)
        ));
        let mut bag: ElementBag = [e(1, "A", 0), e(2, "B", 0), e(3, "A", 1)]
            .into_iter()
            .collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        assert_eq!((net.match_count(0), net.total_tokens()), (1, 0));
        // A second value in a ready tag's bucket keeps it ready once.
        let extra = e(9, "A", 0);
        bag.insert(extra.clone());
        net.on_inserted(&compiled, &bag, std::slice::from_ref(&extra));
        assert_eq!(net.match_count(0), 1);
        // Completing tag 1 readies it; removing one of tag 0's two `A`
        // values leaves tag 0 ready, removing its only `B` does not.
        let b1 = e(4, "B", 1);
        bag.insert(b1.clone());
        net.on_inserted(&compiled, &bag, std::slice::from_ref(&b1));
        assert_eq!(net.match_count(0), 2);
        assert!(bag.remove(&extra));
        net.on_removed(&compiled, &bag, std::slice::from_ref(&extra));
        assert_eq!(net.match_count(0), 2);
        let b0 = e(2, "B", 0);
        assert!(bag.remove(&b0));
        net.on_removed(&compiled, &bag, std::slice::from_ref(&b0));
        assert_eq!(net.match_count(0), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let f = net
            .pick_firing(&compiled, &bag, 0, &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(f.consumed, vec![e(3, "A", 1), e(4, "B", 1)]);
        assert_eq!(f.produced, vec![e(7, "C", 1)]);
        assert_eq!(net.stats.tokens_created, 0);
    }

    #[test]
    fn removal_retires_descendant_tokens() {
        let compiled = sieve_program();
        let mut bag: ElementBag = [2, 4, 8].iter().map(|&v| e(v, "n", 0)).collect();
        let mut net = ReteNetwork::new(&compiled, &bag);
        // Pairs: (4,2), (8,2), (8,4).
        assert_eq!(net.match_count(0), 3);
        let victim = e(8, "n", 0);
        assert!(bag.remove(&victim));
        net.on_removed(&compiled, &bag, std::slice::from_ref(&victim));
        assert_eq!(net.match_count(0), 1); // only (4,2) survives
        assert!(net.stats.tokens_retired >= 2);
    }
}
