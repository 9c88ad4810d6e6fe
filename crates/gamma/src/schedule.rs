//! Delta-driven reaction scheduling — stop rescanning the multiset after
//! every firing.
//!
//! # The scheduler *is* the waiting–matching store
//!
//! The paper's equivalence rests on the observation that Gamma's "some
//! reaction is enabled" check and the tagged-token dataflow machine's
//! waiting–matching store are the same mechanism viewed from two sides: a
//! dataflow PE does not rescan its whole token store after every firing —
//! each *produced* token is delivered to exactly the instructions waiting
//! on its edge label, and only those instructions re-attempt a match.
//! The rescanning reference ([`Scheduling::Rescan`](crate::seq::Scheduling))
//! pays for the check as if no firing history existed: it calls
//! `find_any` from scratch over the entire [`ElementBag`] after every
//! firing, making a run of F firings cost O(F × full-search) instead of
//! amortized O(Δ).
//!
//! This module brings the dataflow-side discipline to Gamma:
//!
//! * [`DependencyIndex`] — the static *edge table*: for every label (and
//!   for the wildcard class) the set of reactions with a consuming
//!   pattern that could match an element carrying it. This is Algorithm
//!   1's vertex/edge correspondence read backwards: label → waiting
//!   instructions.
//! * [`DeltaScheduler`] — the dynamic *store*: a worklist of dirty
//!   reactions. A reaction is **clean** only when a full search has
//!   proven it has no match in the current multiset; it re-enters the
//!   worklist only when an element with a label it consumes is inserted.
//!   Because matching is *monotone* in the multiset — removing elements
//!   can only disable tuples, never enable them — a firing's consumed
//!   elements never need to wake anyone; only its produced elements do.
//!   This is exactly semi-naive evaluation (and the Rete trick): work is
//!   proportional to the delta, not the database.
//! * **Anchored probes** — under seeded selection, a reaction dirtied by
//!   inserted elements is probed with
//!   [`crate::compiled::CompiledReaction::find_match_anchored`], which pins one search-plan
//!   position to the delta element and completes the tuple from the
//!   index: the literal Gamma image of delivering one token to the
//!   matching store. Completeness again follows from monotonicity: if the
//!   reaction had no match before the insertions, any new match consumes
//!   at least one inserted element.
//!
//! # Exactness
//!
//! Stable state is still decided authoritatively: when the worklist
//! drains, one final [`CompiledProgram::find_any_fast`] over every
//! reaction confirms that nothing is enabled. The monotonicity invariant
//! makes this confirmation a no-op in practice (counted in
//! [`SchedStats::authoritative_confirms`]), but it means a scheduler bug
//! could cost performance, never correctness — and under
//! [`Selection::Deterministic`](crate::seq::Selection) the scheduler
//! provably selects the *same firing sequence* as the rescanning
//! reference: the lowest-indexed enabled reaction is always dirty (clean
//! reactions have no match), and per-reaction tuple selection is
//! unchanged. The equivalence regression suite asserts trace equality on
//! random programs.

use crate::compiled::{CompiledProgram, Firing, FrontierCursors, MatchError, SearchScratch};
use gammaflow_multiset::{ElemId, Element, ElementBag, FxHashMap, Symbol};
use rand::seq::SliceRandom;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// Static reaction-dependency index: label class → reactions with a
/// consuming pattern that could match an element of that class.
#[derive(Debug, Clone)]
pub struct DependencyIndex {
    by_label: FxHashMap<Symbol, Vec<u32>>,
    /// Reactions with a label-wildcard pattern: woken by every insertion.
    wildcard: Vec<u32>,
    nreactions: usize,
}

impl DependencyIndex {
    /// Build the index from a compiled program.
    pub fn new(compiled: &CompiledProgram) -> DependencyIndex {
        let mut by_label: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        let mut wildcard = Vec::new();
        for (i, reaction) in compiled.reactions.iter().enumerate() {
            let (labels, has_wildcard) = reaction.consumed_label_classes();
            if has_wildcard {
                wildcard.push(i as u32);
            }
            for label in labels {
                by_label.entry(label).or_default().push(i as u32);
            }
        }
        DependencyIndex {
            by_label,
            wildcard,
            nreactions: compiled.reactions.len(),
        }
    }

    /// Number of reactions in the indexed program.
    pub fn reaction_count(&self) -> usize {
        self.nreactions
    }

    /// Visit every reaction that might newly match after an element with
    /// `label` is inserted.
    pub fn for_each_dependent(&self, label: Symbol, mut f: impl FnMut(usize)) {
        if let Some(deps) = self.by_label.get(&label) {
            for &r in deps {
                f(r as usize);
            }
        }
        for &r in &self.wildcard {
            f(r as usize);
        }
    }

    /// True when some reaction consumes `label` (directly, through a
    /// label class, or via a wildcard pattern). The parallel engine's
    /// targeted delta delivery skips labels nobody consumes.
    pub fn has_dependents(&self, label: Symbol) -> bool {
        !self.wildcard.is_empty() || self.by_label.contains_key(&label)
    }

    /// The dependents of `label` as a collected vector (tests/diagnostics).
    pub fn dependents(&self, label: Symbol) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_dependent(label, |r| out.push(r));
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Why a reaction is on the worklist.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirtyState {
    /// Proven matchless in the current multiset; off the worklist.
    Clean,
    /// Needs an unrestricted search (initial state, or it just fired, so
    /// pre-existing tuples not involving any delta may match).
    Full,
    /// Was clean, then these elements were inserted: matches, if any, must
    /// involve one of them, so anchored probes suffice. Anchors are held
    /// as arena ids — a worklist entry is a `u64`, not an owned element —
    /// and resolved back to an [`Element`] only when a probe actually
    /// runs.
    Anchored(Vec<ElemId>),
}

/// Scheduler observability counters. Serialisable so session snapshots
/// can carry lifetime counters across a restore.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SchedStats {
    /// Unrestricted per-reaction searches executed.
    pub full_searches: u64,
    /// Anchored (delta-element) probes executed.
    pub anchored_probes: u64,
    /// Deterministic-mode re-selections: an anchored probe proved the
    /// reaction enabled and the firing was then re-found with the
    /// trace-preserving index-order search.
    pub anchored_confirm_searches: u64,
    /// Reaction wake-ups that were deduplicated into an existing dirty
    /// entry.
    pub coalesced_wakeups: u64,
    /// Final whole-program confirmations after the worklist drained.
    pub authoritative_confirms: u64,
}

impl SchedStats {
    /// Merge another scheduler's counters (pipeline stages, session
    /// waves). All counters are additive.
    pub fn absorb(&mut self, other: &SchedStats) {
        // Exhaustive destructuring: a new counter without a merge rule is
        // a compile error, not a silently dropped field.
        let SchedStats {
            full_searches,
            anchored_probes,
            anchored_confirm_searches,
            coalesced_wakeups,
            authoritative_confirms,
        } = other;
        self.full_searches += full_searches;
        self.anchored_probes += anchored_probes;
        self.anchored_confirm_searches += anchored_confirm_searches;
        self.coalesced_wakeups += coalesced_wakeups;
        self.authoritative_confirms += authoritative_confirms;
    }
}

/// How many anchors a reaction accumulates before escalating to a full
/// search: beyond this, one unrestricted search is cheaper than many
/// anchored probes over overlapping completions.
const MAX_ANCHORS: usize = 16;

/// The delta worklist scheduler behind [`Scheduling::Delta`](crate::seq::Scheduling).
#[derive(Debug)]
pub struct DeltaScheduler {
    deps: DependencyIndex,
    state: Vec<DirtyState>,
    /// Indices of reactions whose state is not `Clean`. No duplicates.
    worklist: Vec<usize>,
    scratch: SearchScratch,
    /// Per-bucket resume points for single-position reactions, so a
    /// post-firing full re-search does not restart from the bucket head
    /// (which is quadratic over a long run). Pure acceleration state —
    /// never snapshotted; see
    /// [`CompiledReaction::find_match_frontier`](crate::compiled::CompiledReaction).
    frontier: FrontierCursors,
    /// Counters for observability and tests.
    pub stats: SchedStats,
}

impl DeltaScheduler {
    /// New scheduler with every reaction initially dirty (nothing is
    /// proven about the initial multiset).
    pub fn new(compiled: &CompiledProgram) -> DeltaScheduler {
        let n = compiled.reactions.len();
        DeltaScheduler {
            deps: DependencyIndex::new(compiled),
            state: vec![DirtyState::Full; n],
            worklist: (0..n).collect(),
            scratch: SearchScratch::new(),
            frontier: FrontierCursors::default(),
            stats: SchedStats::default(),
        }
    }

    /// The static dependency index.
    pub fn dependency_index(&self) -> &DependencyIndex {
        &self.deps
    }

    /// Mark reaction `r` dirty for a full search.
    fn mark_full(&mut self, r: usize) {
        if self.state[r] == DirtyState::Clean {
            self.worklist.push(r);
        } else {
            self.stats.coalesced_wakeups += 1;
        }
        self.state[r] = DirtyState::Full;
    }

    /// Record that `element` was inserted: wake its dependent reactions.
    /// `use_anchors` selects anchored probing (seeded mode) over full
    /// re-search (deterministic mode, where anchored tuple selection would
    /// diverge from the rescanning reference trace).
    ///
    /// Allocation-free on the hot path: `self` is destructured so the
    /// index walk and the dirty-state mutation borrow disjoint fields.
    fn note_insertion(&mut self, element: &Element, use_anchors: bool) {
        let DeltaScheduler {
            deps,
            state,
            worklist,
            stats,
            ..
        } = self;
        // One intern per inserted element, shared by every dependent's
        // anchor list (the element is already in the bag, so this is a
        // hash-cons hit). Skipped entirely in full-search mode.
        let mut anchor_id: Option<ElemId> = None;
        deps.for_each_dependent(element.label, |r| {
            if !use_anchors {
                if state[r] == DirtyState::Clean {
                    worklist.push(r);
                } else {
                    stats.coalesced_wakeups += 1;
                }
                state[r] = DirtyState::Full;
                return;
            }
            let id = *anchor_id.get_or_insert_with(|| ElemId::intern(element));
            match &mut state[r] {
                DirtyState::Clean => {
                    state[r] = DirtyState::Anchored(vec![id]);
                    worklist.push(r);
                }
                DirtyState::Full => {
                    stats.coalesced_wakeups += 1;
                }
                DirtyState::Anchored(anchors) => {
                    stats.coalesced_wakeups += 1;
                    if anchors.len() >= MAX_ANCHORS {
                        state[r] = DirtyState::Full;
                    } else {
                        anchors.push(id);
                    }
                }
            }
        });
    }

    /// Account a firing that has been applied to the multiset: the fired
    /// reaction must be fully re-searched (tuples not involving the delta
    /// may exist — it was never proven matchless), and every producer
    /// wake-up is delivered through the dependency index.
    pub fn on_fired(&mut self, firing: &Firing, use_anchors: bool) {
        self.mark_full(firing.reaction);
        for e in &firing.produced {
            self.note_insertion(e, use_anchors);
        }
    }

    /// Account externally inserted elements (pipeline seeding, parallel
    /// step barriers).
    pub fn on_inserted(&mut self, elements: &[Element], use_anchors: bool) {
        for e in elements {
            self.note_insertion(e, use_anchors);
        }
    }

    /// Account a firing whose products are *withheld* (maximal-parallel
    /// stepping: products become visible only at the step barrier). Only
    /// the fired reaction is re-dirtied; call [`Self::on_inserted`] with
    /// the products once they are actually added to the multiset.
    pub fn on_fired_consumed_only(&mut self, firing: &Firing) {
        self.mark_full(firing.reaction);
    }

    /// True when no reaction is dirty.
    pub fn drained(&self) -> bool {
        self.worklist.is_empty()
    }

    /// Find the next firing, or `None` at stable state.
    ///
    /// Deterministic mode (`rng == None`) processes the worklist in
    /// ascending reaction order, which makes the selected firing identical
    /// to the rescanning reference's "first enabled reaction in program
    /// order". Seeded mode picks a uniformly random dirty reaction and
    /// draws its candidates in seeded random order, preserving the
    /// engine's honest nondeterminism.
    ///
    /// At drain time one authoritative whole-program search double-checks
    /// stability; if it unexpectedly finds a firing (scheduler bug), the
    /// firing is returned and every reaction is re-marked dirty, so
    /// correctness never depends on the index.
    pub fn next_firing(
        &mut self,
        compiled: &CompiledProgram,
        bag: &ElementBag,
        mut rng: Option<&mut ChaCha8Rng>,
    ) -> Result<Option<Firing>, MatchError> {
        loop {
            if self.worklist.is_empty() {
                return self.confirm_stable(compiled, bag, rng);
            }
            // Pick a dirty reaction per the selection policy.
            let slot = match rng.as_deref_mut() {
                None => {
                    // Lowest reaction index first (small worklist: linear
                    // scan beats heap bookkeeping).
                    let mut best = 0;
                    for i in 1..self.worklist.len() {
                        if self.worklist[i] < self.worklist[best] {
                            best = i;
                        }
                    }
                    best
                }
                Some(r) => (r.next_u64() % self.worklist.len() as u64) as usize,
            };
            let reaction = self.worklist[slot];

            let found = match std::mem::replace(&mut self.state[reaction], DirtyState::Full) {
                DirtyState::Clean => unreachable!("clean reactions are not on the worklist"),
                DirtyState::Full => {
                    self.stats.full_searches += 1;
                    let rx = &compiled.reactions[reaction];
                    if rx.frontier_eligible() {
                        // Single-position reactions resume from the
                        // per-bucket frontier cursor instead of
                        // re-walking tombstoned/rejected prefixes — same
                        // first-in-index-order tuple, linear amortised.
                        // No RNG in seeded mode either: with one
                        // position, shuffling only reorders which of the
                        // enabled rows is drawn, and confluence makes
                        // the final multiset independent of that draw.
                        rx.find_match_frontier(reaction, bag, &mut self.frontier)?
                    } else {
                        rx.find_match_fast(reaction, bag, rng.as_deref_mut(), &mut self.scratch)?
                    }
                }
                DirtyState::Anchored(anchors) => {
                    // Anchors are probed in insertion (index) order, so the
                    // deterministic path stays reproducible.
                    let mut found = None;
                    for &anchor_id in &anchors {
                        self.stats.anchored_probes += 1;
                        let anchor = anchor_id.to_element();
                        found = compiled.reactions[reaction].find_match_anchored(
                            reaction,
                            bag,
                            &anchor,
                            rng.as_deref_mut(),
                            &mut self.scratch,
                        )?;
                        if found.is_some() {
                            break;
                        }
                    }
                    if found.is_some() {
                        // Not yet proven matchless: keep the remaining
                        // anchors live for the next visit. (The consumed
                        // anchor re-probes as a cheap no-op.)
                        self.state[reaction] = DirtyState::Anchored(anchors);
                        if rng.is_none() {
                            // Deterministic mode: the anchored probe only
                            // decided *enabledness* (complete, because any
                            // new match consumes an anchor). The firing
                            // itself is re-selected by the same index-order
                            // search as the rescanning reference, so the
                            // trace is preserved by construction.
                            self.stats.anchored_confirm_searches += 1;
                            found = compiled.reactions[reaction].find_match_fast(
                                reaction,
                                bag,
                                None,
                                &mut self.scratch,
                            )?;
                            debug_assert!(
                                found.is_some(),
                                "anchored probe proved reaction {reaction} enabled"
                            );
                        }
                    }
                    found
                }
            };

            match found {
                Some(firing) => {
                    // Reaction stays dirty (state set above); the engine
                    // applies the firing and calls `on_fired`.
                    return Ok(Some(firing));
                }
                None => {
                    // Proven matchless under the current multiset.
                    self.state[reaction] = DirtyState::Clean;
                    self.worklist.swap_remove(slot);
                }
            }
        }
    }

    /// The drain-time authoritative stability check.
    fn confirm_stable(
        &mut self,
        compiled: &CompiledProgram,
        bag: &ElementBag,
        mut rng: Option<&mut ChaCha8Rng>,
    ) -> Result<Option<Firing>, MatchError> {
        self.stats.authoritative_confirms += 1;
        let mut order: Vec<usize> = (0..compiled.reactions.len()).collect();
        if let Some(r) = rng.as_deref_mut() {
            order.shuffle(r);
        }
        match compiled.find_any_fast(&order, bag, rng, &mut self.scratch)? {
            None => Ok(None),
            Some(firing) => {
                // Defensive: the index missed a wake-up. Re-dirty the world
                // so the run continues exactly; only performance was lost.
                debug_assert!(
                    false,
                    "delta scheduler drained while reaction {} was enabled",
                    firing.reaction
                );
                for r in 0..self.state.len() {
                    self.mark_full(r);
                }
                Ok(Some(firing))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::spec::{ElementSpec, GammaProgram, Pattern, ReactionSpec};
    use gammaflow_multiset::value::BinOp;
    use gammaflow_multiset::Tag;

    #[test]
    fn absorb_pins_every_field() {
        // Exhaustive literals with distinct values: a new SchedStats field
        // breaks this test at compile time instead of being dropped.
        let mut a = SchedStats {
            full_searches: 1,
            anchored_probes: 2,
            anchored_confirm_searches: 3,
            coalesced_wakeups: 4,
            authoritative_confirms: 5,
        };
        let b = SchedStats {
            full_searches: 10,
            anchored_probes: 20,
            anchored_confirm_searches: 30,
            coalesced_wakeups: 40,
            authoritative_confirms: 50,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            SchedStats {
                full_searches: 11,
                anchored_probes: 22,
                anchored_confirm_searches: 33,
                coalesced_wakeups: 44,
                authoritative_confirms: 55,
            }
        );
    }

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    /// a -> b -> c relabel chain plus an unrelated d -> d' reaction.
    fn chain_program() -> GammaProgram {
        GammaProgram::new(vec![
            ReactionSpec::new("ab")
                .replace(Pattern::pair("x", "a"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "b")]),
            ReactionSpec::new("bc")
                .replace(Pattern::pair("x", "b"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "c")]),
            ReactionSpec::new("dd")
                .replace(Pattern::pair("x", "d"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "d2")]),
        ])
    }

    #[test]
    fn dependency_index_maps_labels_to_consumers() {
        let compiled = CompiledProgram::compile(&chain_program()).unwrap();
        let idx = DependencyIndex::new(&compiled);
        assert_eq!(idx.reaction_count(), 3);
        assert_eq!(idx.dependents(Symbol::intern("a")), vec![0]);
        assert_eq!(idx.dependents(Symbol::intern("b")), vec![1]);
        assert_eq!(idx.dependents(Symbol::intern("d")), vec![2]);
        assert_eq!(
            idx.dependents(Symbol::intern("nobody")),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn wildcard_patterns_depend_on_every_label() {
        use crate::spec::{LabelPat, TagPat, ValuePat};
        let any_label = Pattern {
            value: ValuePat::Var(Symbol::intern("x")),
            label: LabelPat::Var(Symbol::intern("l")),
            tag: TagPat::Var(Symbol::intern("v")),
        };
        let prog = GammaProgram::new(vec![ReactionSpec::new("anylabel")
            .replace(any_label)
            .by(vec![])]);
        let compiled = CompiledProgram::compile(&prog).unwrap();
        let idx = DependencyIndex::new(&compiled);
        // Wildcard consumers are woken by any label, including ones never
        // seen at compile time.
        assert_eq!(idx.dependents(Symbol::intern("whatever")), vec![0]);
        assert_eq!(idx.dependents(Symbol::intern("other")), vec![0]);
    }

    #[test]
    fn scheduler_fires_chain_and_skips_unrelated() {
        let compiled = CompiledProgram::compile(&chain_program()).unwrap();
        let mut bag: ElementBag = [e(1, "a", 0)].into_iter().collect();
        let mut sched = DeltaScheduler::new(&compiled);
        let mut firings = Vec::new();
        while let Some(f) = sched.next_firing(&compiled, &bag, None).unwrap() {
            let ok = bag.remove_all(&f.consumed);
            assert!(ok);
            for p in &f.produced {
                bag.insert(p.clone());
            }
            sched.on_fired(&f, false);
            firings.push(f.reaction);
        }
        assert_eq!(firings, vec![0, 1]);
        assert!(bag.contains(&e(1, "c", 0)));
        // The unrelated reaction was searched exactly once (initial Full
        // state); the chain reactions were re-searched only when woken.
        assert!(sched.stats.full_searches <= 6);
        assert_eq!(sched.stats.authoritative_confirms, 1);
    }

    #[test]
    fn frontier_cursor_survives_bucket_prune_and_refill() {
        fn drive(
            compiled: &CompiledProgram,
            sched: &mut DeltaScheduler,
            bag: &mut ElementBag,
        ) -> u64 {
            let mut fired = 0u64;
            while let Some(f) = sched.next_firing(compiled, bag, None).unwrap() {
                assert!(bag.remove_all(&f.consumed));
                for p in &f.produced {
                    bag.insert(p.clone());
                }
                sched.on_fired(&f, false);
                fired += 1;
            }
            fired
        }
        let compiled = CompiledProgram::compile(&chain_program()).unwrap();
        let mut bag: ElementBag = (0..20).map(|v| e(v, "a", 0)).collect();
        let mut sched = DeltaScheduler::new(&compiled);
        assert_eq!(drive(&compiled, &mut sched, &mut bag), 40);
        assert_eq!(bag.count_label(Symbol::intern("c")), 20);
        // The "a" bucket fully drained, so the bag pruned it from the
        // index while the reaction's frontier cursor stayed parked past
        // its last row. Refilling recreates the bucket; the cursor must
        // see a fresh epoch and rescan from row 0 instead of skipping
        // the new rows (which would wrongly prove the reaction clean).
        let refill: Vec<Element> = (100..110).map(|v| e(v, "a", 0)).collect();
        for el in &refill {
            bag.insert(el.clone());
        }
        sched.on_inserted(&refill, false);
        assert_eq!(drive(&compiled, &mut sched, &mut bag), 20);
        assert_eq!(bag.count_label(Symbol::intern("c")), 30);
    }

    #[test]
    fn anchored_mode_probes_deltas() {
        use rand::SeedableRng;
        let compiled = CompiledProgram::compile(&chain_program()).unwrap();
        let mut bag: ElementBag = [e(1, "a", 0), e(2, "a", 0)].into_iter().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut sched = DeltaScheduler::new(&compiled);
        loop {
            let f = match sched.next_firing(&compiled, &bag, Some(&mut rng)).unwrap() {
                None => break,
                Some(f) => f,
            };
            assert!(bag.remove_all(&f.consumed));
            for p in &f.produced {
                bag.insert(p.clone());
            }
            sched.on_fired(&f, true);
        }
        assert_eq!(bag.count(&e(1, "c", 0)), 1);
        assert_eq!(bag.count(&e(2, "c", 0)), 1);
        assert!(sched.stats.anchored_probes > 0, "{:?}", sched.stats);
    }

    #[test]
    fn two_ary_reaction_completes_through_anchor() {
        use rand::SeedableRng;
        // sum: two same-label elements combine; anchored probe must
        // complete the pair through the index.
        let prog = GammaProgram::new(vec![
            ReactionSpec::new("mk")
                .replace(Pattern::pair("x", "seed"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "n")]),
            ReactionSpec::new("sum")
                .replace(Pattern::pair("x", "n"))
                .replace(Pattern::pair("y", "n"))
                .by(vec![ElementSpec::pair(
                    Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                    "n",
                )]),
        ]);
        let compiled = CompiledProgram::compile(&prog).unwrap();
        let mut bag: ElementBag = (1..=4).map(|v| e(v, "seed", 0)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut sched = DeltaScheduler::new(&compiled);
        loop {
            let f = match sched.next_firing(&compiled, &bag, Some(&mut rng)).unwrap() {
                None => break,
                Some(f) => f,
            };
            assert!(bag.remove_all(&f.consumed));
            for p in &f.produced {
                bag.insert(p.clone());
            }
            sched.on_fired(&f, true);
        }
        assert_eq!(bag.len(), 1);
        assert!(bag.contains(&e(10, "n", 0)));
    }

    #[test]
    fn deterministic_anchored_mode_replays_full_search_selection() {
        // With anchors on in deterministic mode, each firing must be the
        // exact tuple the unanchored search would select (the anchored
        // probe only decides enabledness). The consumer reaction comes
        // *first* in program order, so it is proven clean before the
        // producer wakes it — the wake-up lands as an anchor.
        let reversed = GammaProgram::new(vec![
            ReactionSpec::new("bc")
                .replace(Pattern::pair("x", "b"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "c")]),
            ReactionSpec::new("ab")
                .replace(Pattern::pair("x", "a"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "b")]),
        ]);
        let compiled = CompiledProgram::compile(&reversed).unwrap();
        let run = |use_anchors: bool| {
            let mut bag: ElementBag = [e(1, "a", 0), e(2, "a", 0)].into_iter().collect();
            let mut sched = DeltaScheduler::new(&compiled);
            let mut firings = Vec::new();
            while let Some(f) = sched.next_firing(&compiled, &bag, None).unwrap() {
                assert!(bag.remove_all(&f.consumed));
                for p in &f.produced {
                    bag.insert(p.clone());
                }
                sched.on_fired(&f, use_anchors);
                firings.push(f);
            }
            (firings, sched.stats)
        };
        let (plain, _) = run(false);
        let (anchored, stats) = run(true);
        assert_eq!(plain, anchored, "anchored det mode changed a selection");
        assert!(stats.anchored_probes > 0, "{stats:?}");
        assert!(stats.anchored_confirm_searches > 0, "{stats:?}");
    }

    #[test]
    fn anchored_probe_ignores_consumed_anchor() {
        let prog = GammaProgram::new(vec![ReactionSpec::new("ab")
            .replace(Pattern::pair("x", "a"))
            .by(vec![ElementSpec::pair(Expr::var("x"), "b")])]);
        let compiled = CompiledProgram::compile(&prog).unwrap();
        let bag = ElementBag::new(); // anchor not present
        let mut scratch = SearchScratch::new();
        let firing = compiled.reactions[0]
            .find_match_anchored(0, &bag, &e(1, "a", 0), None, &mut scratch)
            .unwrap();
        assert_eq!(firing, None);
        let _ = Tag(0);
    }
}
