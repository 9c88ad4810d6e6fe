//! Compilation of [`ReactionSpec`]s into an executable matching form.
//!
//! The Γ operator's implicit work is *matching*: finding a tuple
//! `(x₁, …, xₙ)` of multiset elements satisfying a reaction's patterns and
//! condition. A naive scan is O(|M|ⁿ); this module compiles each reaction
//! into a backtracking search that exploits the [`ElementBag`] index:
//!
//! * positions with literal labels probe single buckets;
//! * a shared tag variable propagates: once the first position fixes the
//!   tag, later positions probe exactly one `(label, tag)` bucket — this is
//!   the Gamma-side image of the dataflow waiting–matching store;
//! * repeated value variables become equality constraints checked during
//!   binding rather than after enumeration.
//!
//! Search order is chosen by static selectivity (literal labels before
//! `OneOf` before wildcards), a micro query-planner. Nondeterminism is
//! honest: given an RNG, label and tag candidates are shuffled and a
//! bucket's values are drawn one at a time from a lazily generated
//! uniform permutation of its rows, so any fireable tuple can be
//! selected — the paper's "reactions occur freely" — while a probe costs
//! only the candidates it tries and stays reproducible from the seed.

use crate::expr::{Env, EvalError, Expr};
use crate::spec::{
    ByClause, ElementSpec, GammaProgram, Guard, LabelPat, LabelSpec, Pattern, ReactionSpec,
    SpecError, TagPat, TagSpec, ValuePat,
};
use crate::vm::{ClauseGuardChunk, GuardEvalMode, OutputChunks, ReactionVm, Tier};
use gammaflow_multiset::{ElemId, Element, ElementBag, FxHashMap, Symbol, Tag, Value};
use rand::seq::SliceRandom;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// Variable bindings as value slots; implements [`Env`] for expression
/// evaluation. Label variables bind as strings, tag variables as integers —
/// exactly the observable fields the paper's conditions inspect.
#[derive(Debug, Clone)]
pub struct Bindings<'a> {
    slots: Vec<Option<Value>>,
    index: &'a FxHashMap<Symbol, u16>,
}

impl Env for Bindings<'_> {
    fn lookup(&self, var: Symbol) -> Option<Value> {
        self.index
            .get(&var)
            .and_then(|&i| self.slots[i as usize].clone())
    }
}

impl<'a> Bindings<'a> {
    fn new(nvars: usize, index: &'a FxHashMap<Symbol, u16>) -> Self {
        Bindings {
            slots: vec![None; nvars],
            index,
        }
    }

    /// Bind slot `i` to `v`; if already bound, succeed only on equality.
    /// Returns whether a fresh binding was made (for backtracking).
    fn bind(&mut self, i: u16, v: Value) -> Option<bool> {
        match &self.slots[i as usize] {
            None => {
                self.slots[i as usize] = Some(v);
                Some(true)
            }
            Some(existing) => (*existing == v).then_some(false),
        }
    }

    fn unbind(&mut self, i: u16) {
        self.slots[i as usize] = None;
    }
}

/// The one tag rule: a value names a tag only when it is a non-negative
/// `Int`. Output tags obey it, and so does every matcher reading a bound
/// tag variable — a tag ≥ 2⁶³ binds as a negative `Int`, which names no
/// tag, so no later position can join on it.
pub(crate) fn tag_of(value: &Value) -> Option<Tag> {
    match value {
        Value::Int(t) if *t >= 0 => Some(Tag(*t as u64)),
        _ => None,
    }
}

/// Compiled form of one pattern position. Crate-visible so the rete
/// join-network matcher ([`crate::rete`]) can drive its alpha filters and
/// join enumeration off the same compiled filter data as the backtracking
/// search.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPattern {
    pub(crate) label: LabelFilter,
    pub(crate) value_var: Option<u16>,
    pub(crate) value_lit: Option<Value>,
    pub(crate) label_var: Option<u16>,
    pub(crate) tag_var: Option<u16>,
    pub(crate) tag_lit: Option<Tag>,
}

impl CompiledPattern {
    /// The tag this position's candidates must carry under `slots`:
    /// `None` when any tag will do, else the literal or the bound
    /// variable's tag by [`tag_of`] — itself `None` when the binding
    /// names no tag, so nothing matches.
    pub(crate) fn tag_pin(&self, slots: &[Option<Value>]) -> Option<Option<Tag>> {
        match (
            self.tag_lit,
            self.tag_var.and_then(|v| slots[v as usize].as_ref()),
        ) {
            (Some(t), _) => Some(Some(t)),
            (None, bound) => bound.map(tag_of),
        }
    }
}

/// Which element field a pattern variable binds (see `bind_position`).
#[derive(Clone, Copy)]
enum BindField {
    Value,
    Label,
    Tag,
}

#[derive(Debug, Clone)]
pub(crate) enum LabelFilter {
    Exact(Symbol),
    OneOf(Box<[Symbol]>),
    Any,
}

impl LabelFilter {
    /// Static selectivity rank: lower probes fewer buckets.
    fn rank(&self) -> u8 {
        match self {
            LabelFilter::Exact(_) => 0,
            LabelFilter::OneOf(_) => 1,
            LabelFilter::Any => 2,
        }
    }

    /// The literal labels this filter names (empty for a wildcard).
    pub(crate) fn literals(&self) -> &[Symbol] {
        match self {
            LabelFilter::Exact(l) => std::slice::from_ref(l),
            LabelFilter::OneOf(ls) => ls,
            LabelFilter::Any => &[],
        }
    }

    /// Does the filter admit `label`?
    pub(crate) fn admits(&self, label: Symbol) -> bool {
        matches!(self, LabelFilter::Any) || self.literals().contains(&label)
    }
}

/// Read access to a multiset for match search.
///
/// The sequential interpreter searches an [`ElementBag`] directly; the
/// parallel interpreter searches a sharded bag through a sampled view
/// (stale reads are fine — claims re-validate atomically). Making the
/// search generic keeps one matching implementation for both engines.
///
/// Seeded search reads a bucket's values by physical row:
/// [`MatchSource::row_count`] sizes a random permutation and
/// [`MatchSource::row`] fetches the rows it draws, so over an indexed
/// source a probe that accepts its first candidate reads one row, not
/// the bucket.
pub trait MatchSource {
    /// Distinct labels currently (or recently) present.
    fn all_labels(&self) -> Vec<Symbol>;
    /// Distinct tags present for `label`.
    fn tags_for_label(&self, label: Symbol) -> Vec<Tag>;
    /// `(value, multiplicity)` pairs in the `(label, tag)` bucket.
    /// Implementations may truncate for sampling; multiplicities of the
    /// returned values must be exact.
    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)>;
    /// Exact multiplicity of one element.
    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize;

    /// Visit distinct labels until `f` returns `false`. Implementations
    /// backed by an in-process index override this to iterate without
    /// materialising a `Vec` — the deterministic search path is built on
    /// these visitors and allocates nothing per probe.
    fn visit_labels(&self, f: &mut dyn FnMut(Symbol) -> bool) {
        for label in self.all_labels() {
            if !f(label) {
                return;
            }
        }
    }

    /// Visit distinct tags for `label` until `f` returns `false`.
    fn visit_tags(&self, label: Symbol, f: &mut dyn FnMut(Tag) -> bool) {
        for tag in self.tags_for_label(label) {
            if !f(tag) {
                return;
            }
        }
    }

    /// Visit `(value, multiplicity)` pairs in the `(label, tag)` bucket
    /// until `f` returns `false`.
    fn visit_values(&self, label: Symbol, tag: Tag, f: &mut dyn FnMut(&Value, usize) -> bool) {
        for (value, count) in self.values_at(label, tag) {
            if !f(&value, count) {
                return;
            }
        }
    }

    /// Visit `(id, value, multiplicity)` rows in the `(label, tag)`
    /// bucket until `f` returns `false` — the id-carrying twin of
    /// [`MatchSource::visit_values`] the join matcher builds tokens from.
    /// The default derives ids by interning (idempotent: everything a bag
    /// holds is already interned, so this is a hash-cons hit); the
    /// [`ElementBag`] override reads ids straight off its bucket rows for
    /// free.
    fn visit_value_ids(
        &self,
        label: Symbol,
        tag: Tag,
        f: &mut dyn FnMut(ElemId, &Value, usize) -> bool,
    ) {
        self.visit_values(label, tag, &mut |value, count| {
            f(ElemId::intern_parts(label, value, tag), value, count)
        });
    }

    /// Multiplicity *and* id of one element: `(count, id)`, with the id
    /// present whenever the payload has ever been interned. One probe
    /// where the matcher would otherwise pay a count hash plus an id
    /// hash.
    fn probe_at(&self, label: Symbol, tag: Tag, value: &Value) -> (usize, Option<ElemId>) {
        let id = ElemId::lookup_parts(label, value, tag);
        let count = match id {
            // Never interned → never inserted into any bag.
            None => 0,
            Some(_) => self.count_at(label, tag, value),
        };
        (count, id)
    }

    /// Physical row count of the `(label, tag)` bucket, dead rows
    /// included: the index space of [`MatchSource::row`]. The default
    /// counts [`MatchSource::values_at`], whose pairs are then the rows.
    fn row_count(&self, label: Symbol, tag: Tag) -> usize {
        self.values_at(label, tag).len()
    }

    /// `(value, multiplicity)` at physical row `i` of the `(label, tag)`
    /// bucket; a dead row reads with multiplicity 0. `None` past the end.
    /// A concurrently edited bucket may answer for an index drawn against
    /// an older [`MatchSource::row_count`]: `None` hides that candidate,
    /// and a row that changed under it is offered for the claim to
    /// reject. The default reads pair `i` of [`MatchSource::values_at`],
    /// so it is linear in the bucket; indexed sources override it.
    fn row(&self, label: Symbol, tag: Tag, i: usize) -> Option<(Value, usize)> {
        self.values_at(label, tag).into_iter().nth(i)
    }
}

impl MatchSource for ElementBag {
    fn all_labels(&self) -> Vec<Symbol> {
        self.labels().collect()
    }

    fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
        self.tags_for(label).collect()
    }

    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
        self.bucket(label, tag)
            .map(|b| b.iter_counts().map(|(v, c)| (v.clone(), c)).collect())
            .unwrap_or_default()
    }

    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
        self.bucket(label, tag).map_or(0, |b| b.count(value))
    }

    fn visit_labels(&self, f: &mut dyn FnMut(Symbol) -> bool) {
        for label in self.labels() {
            if !f(label) {
                return;
            }
        }
    }

    fn visit_tags(&self, label: Symbol, f: &mut dyn FnMut(Tag) -> bool) {
        for tag in self.tags_for(label) {
            if !f(tag) {
                return;
            }
        }
    }

    fn visit_values(&self, label: Symbol, tag: Tag, f: &mut dyn FnMut(&Value, usize) -> bool) {
        for (value, count) in self.values_with_counts(label, tag) {
            if !f(value, count) {
                return;
            }
        }
    }

    fn visit_value_ids(
        &self,
        label: Symbol,
        tag: Tag,
        f: &mut dyn FnMut(ElemId, &Value, usize) -> bool,
    ) {
        if let Some(bucket) = self.bucket(label, tag) {
            for (id, value, count) in bucket.iter_ids() {
                if !f(id, value, count) {
                    return;
                }
            }
        }
    }

    fn probe_at(&self, label: Symbol, tag: Tag, value: &Value) -> (usize, Option<ElemId>) {
        let id = ElemId::lookup_parts(label, value, tag);
        let count = match (id, self.bucket(label, tag)) {
            (Some(id), Some(bucket)) => bucket.count_slot(id.slot()),
            _ => 0,
        };
        (count, id)
    }

    fn row_count(&self, label: Symbol, tag: Tag) -> usize {
        self.bucket(label, tag).map_or(0, |b| b.row_count())
    }

    fn row(&self, label: Symbol, tag: Tag, i: usize) -> Option<(Value, usize)> {
        let (value, count) = self.bucket(label, tag)?.row(i)?;
        Some((value.clone(), count))
    }
}

/// Reusable per-depth state for the seeded search: shuffled label and
/// tag candidates, and the swap map of the lazy value permutation. One
/// `SearchScratch` lives for a whole engine run, so the steady state of
/// the matcher allocates nothing per probe.
#[derive(Debug, Default)]
pub struct SearchScratch {
    levels: Vec<ScratchLevel>,
    /// Scratch for anchored-search orders (`[anchor] ++ rest`).
    order: Vec<usize>,
    /// Scratch binding row for spilled-prefix completions.
    slots: Vec<Option<Value>>,
    /// Scratch consumed row for spilled-prefix completions.
    consumed: Vec<Option<Element>>,
}

#[derive(Debug, Default)]
struct ScratchLevel {
    labels: Vec<Symbol>,
    tags: Vec<Tag>,
    /// Lazy Fisher–Yates state: position → row for every position of the
    /// current permutation that a swap has displaced.
    swaps: FxHashMap<usize, usize>,
}

impl ScratchLevel {
    /// Step `i` of a Fisher–Yates shuffle of `0..n` run lazily: the
    /// `i`-th element of a uniformly random permutation, for `i` counting
    /// up from 0 since the last `swaps.clear()`. One RNG draw (none for
    /// the last position) and a few swap-map probes, whatever `n` is.
    fn draw(&mut self, i: usize, n: usize, rng: &mut ChaCha8Rng) -> usize {
        let at_i = self.swaps.remove(&i).unwrap_or(i);
        if i + 1 == n {
            return at_i;
        }
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        if j == i {
            return at_i;
        }
        self.swaps.insert(j, at_i).unwrap_or(j)
    }
}

impl SearchScratch {
    /// Fresh scratch; grows on demand to the deepest reaction arity.
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    fn ensure_depth(&mut self, depth: usize) {
        if self.levels.len() < depth {
            self.levels.resize_with(depth, ScratchLevel::default);
        }
    }
}

/// Per-bucket frontier cursors for
/// `CompiledReaction::find_match_frontier`, keyed by
/// `(reaction, label, tag)`.
///
/// A cursor records the physical bucket row at which the last scan
/// parked, together with the bucket compaction epoch that made the
/// index meaningful; every row before it is a tombstone or was
/// guard-rejected, and for frontier-eligible reactions a rejection is
/// permanent. Never serialised: cursors are a pure acceleration — they
/// skip rows, never change which row is selected — so a restored
/// session simply rescans from row 0 once and re-parks.
#[derive(Debug, Default)]
pub struct FrontierCursors {
    map: FxHashMap<(u32, Symbol, Tag), FrontierCursor>,
}

#[derive(Debug, Clone, Copy)]
struct FrontierCursor {
    /// First row not yet proven dead-or-rejected.
    row: u32,
    /// Bucket compaction epoch at which `row` was recorded.
    epoch: u64,
}

/// A matched, ready-to-fire reaction instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// Index of the reaction in the compiled program.
    pub reaction: usize,
    /// Elements to consume, in replace-list order.
    pub consumed: Vec<Element>,
    /// Elements to produce.
    pub produced: Vec<Element>,
    /// Which by-clause was selected.
    pub clause: usize,
}

/// Errors surfaced during matching/firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// Evaluating a selected clause's *outputs* failed (e.g. division by
    /// zero in an action). Condition errors are not errors — a condition
    /// that cannot be evaluated simply does not hold.
    Action {
        /// Reaction name.
        reaction: String,
        /// Underlying evaluation error.
        error: EvalError,
    },
    /// An output tag expression evaluated to a non-integer or negative.
    BadTag {
        /// Reaction name.
        reaction: String,
        /// Rendered offending value.
        value: String,
    },
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::Action { reaction, error } => {
                write!(f, "reaction {reaction}: action evaluation failed: {error}")
            }
            MatchError::BadTag { reaction, value } => {
                write!(
                    f,
                    "reaction {reaction}: output tag is not a valid tag: {value}"
                )
            }
        }
    }
}
impl std::error::Error for MatchError {}

/// Result of the guard-analysis pass: a reaction's enabledness condition
/// decomposed into conjuncts and assigned to join levels.
///
/// The `where` condition is split with [`Expr::conjuncts`] and each
/// conjunct is *pushed down* to the earliest position in the search/join
/// order at which all of its variables are bound. A backtracking search or
/// a rete join network can then reject a partial tuple the moment a pushed
/// conjunct fails, instead of enumerating full tuples first — the
/// query-compilation view of condition-aware multiset matching.
#[derive(Debug, Clone)]
pub struct GuardPlan {
    /// `level_conjuncts[k]` holds the `where` conjuncts that become fully
    /// bound when join level `k` (search-plan step `k`) binds its
    /// position. Conjuncts with no variables land on level 0.
    pub level_conjuncts: Vec<Vec<Expr>>,
    /// The clause-guard disjunction a full tuple must additionally satisfy
    /// when every by-clause is `if`-guarded; `None` when an `Always`/`Else`
    /// clause makes the chain total (any tuple passing `where` is enabled).
    pub clause_disjunction: Option<Vec<Expr>>,
}

/// What the Rete network memorises for one reaction
/// ([`CompiledReaction::match_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MatchPlan {
    /// The waiting–matching store keyed on this tag-variable slot.
    TagKeyed(u16),
    /// Tokens for level 0 and each level `k ≤ prunes.len()`, kept
    /// because of `prunes[k - 1]`; deeper levels are virtual.
    Tokens(Vec<Prune>),
}

/// Why a join level `k ≥ 1` prunes, and so is materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prune {
    /// `where` conjuncts are pushed to it.
    Pushes,
    /// Its pattern names this slot, which an earlier level binds.
    JoinsOn(u16),
    /// It is the terminal level under a clause-guard disjunction.
    ClauseGuard,
}

/// A compiled reaction: spec + var table + selectivity-ordered search plan.
#[derive(Debug, Clone)]
pub struct CompiledReaction {
    /// Reaction name, for traces and errors.
    pub name: String,
    spec: ReactionSpec,
    var_index: FxHashMap<Symbol, u16>,
    nvars: usize,
    positions: Vec<CompiledPattern>,
    /// Search order: indices into `positions` (== replace-list order).
    order: Vec<usize>,
    /// Compiled bytecode for guards and actions, with tier state
    /// (see [`crate::vm`]).
    vm: ReactionVm,
}

/// Greedy guard-coverage join-order planner.
///
/// Picks positions one level at a time, preferring (in lexicographic
/// order) the position that
///
/// 1. lets the most not-yet-satisfied `where` conjuncts become fully
///    bound at this level — a pushed conjunct then filters the beta
///    memory *during* this join instead of levels later (the triangle
///    reaction's `b`-consistency binding after `(ab, bc)` is the
///    canonical payoff);
/// 2. has the most selective static label filter (literal before `OneOf`
///    before wildcard), the old planner's only criterion;
/// 3. shares a variable with the already-bound prefix (a repeated
///    variable turns the join into an index lookup instead of a cross
///    product);
/// 4. comes first in replace-list order (stability tiebreak).
///
/// Conjuncts with no variables trivially hold everywhere and are ignored
/// for scoring (the guard plan still evaluates them at level 0).
fn plan_join_order(positions: &[CompiledPattern], conjunct_slots: &[Vec<u16>]) -> Vec<usize> {
    let pos_slots: Vec<Vec<u16>> = positions
        .iter()
        .map(|p| {
            [p.value_var, p.label_var, p.tag_var]
                .into_iter()
                .flatten()
                .collect()
        })
        .collect();
    let nslots = pos_slots
        .iter()
        .flatten()
        .map(|&v| v as usize + 1)
        .max()
        .unwrap_or(0);
    let mut bound = vec![false; nslots];
    let mut satisfied: Vec<bool> = conjunct_slots.iter().map(|cs| cs.is_empty()).collect();
    let mut remaining: Vec<usize> = (0..positions.len()).collect();
    let mut order = Vec::with_capacity(positions.len());
    while !remaining.is_empty() {
        let mut best: Option<(usize, (usize, u8, bool))> = None;
        for (slot, &p) in remaining.iter().enumerate() {
            let newly_bound = conjunct_slots
                .iter()
                .zip(&satisfied)
                .filter(|(cs, sat)| {
                    !**sat
                        && cs
                            .iter()
                            .all(|v| bound[*v as usize] || pos_slots[p].contains(v))
                })
                .count();
            let connected = pos_slots[p].iter().any(|v| bound[*v as usize]);
            let key = (newly_bound, 2 - positions[p].label.rank(), connected);
            // Strict `>` keeps the lowest position index on ties
            // (`remaining` stays in ascending order).
            if best.is_none_or(|(_, k)| key > k) {
                best = Some((slot, key));
            }
        }
        let p = remaining.remove(best.expect("remaining is non-empty").0);
        for &v in &pos_slots[p] {
            bound[v as usize] = true;
        }
        for (cs, sat) in conjunct_slots.iter().zip(satisfied.iter_mut()) {
            if !*sat && cs.iter().all(|v| bound[*v as usize]) {
                *sat = true;
            }
        }
        order.push(p);
    }
    order
}

impl CompiledReaction {
    /// Compile and validate a single reaction.
    pub fn compile(spec: &ReactionSpec) -> Result<CompiledReaction, SpecError> {
        spec.validate()?;
        let mut var_index: FxHashMap<Symbol, u16> = FxHashMap::default();
        let intern = |s: Symbol, var_index: &mut FxHashMap<Symbol, u16>| -> u16 {
            let next = var_index.len() as u16;
            *var_index.entry(s).or_insert(next)
        };

        let mut positions = Vec::with_capacity(spec.patterns.len());
        for p in &spec.patterns {
            let (label, label_var) = match &p.label {
                LabelPat::Lit(l) => (LabelFilter::Exact(*l), None),
                LabelPat::OneOf(ls, var) => (
                    LabelFilter::OneOf(ls.clone().into_boxed_slice()),
                    var.map(|v| intern(v, &mut var_index)),
                ),
                LabelPat::Var(v) => (LabelFilter::Any, Some(intern(*v, &mut var_index))),
            };
            let (value_var, value_lit) = match &p.value {
                ValuePat::Var(v) => (Some(intern(*v, &mut var_index)), None),
                ValuePat::Lit(v) => (None, Some(v.clone())),
            };
            let (tag_var, tag_lit) = match &p.tag {
                TagPat::Var(v) => (Some(intern(*v, &mut var_index)), None),
                TagPat::Lit(t) => (None, Some(*t)),
                TagPat::Any => (None, None),
            };
            positions.push(CompiledPattern {
                label,
                value_var,
                value_lit,
                label_var,
                tag_var,
                tag_lit,
            });
        }

        // Join order: guard-coverage planning. Earlier revisions ordered
        // purely by static label selectivity; the planner below also
        // weighs which position lets pushed `where` conjuncts bind at the
        // earliest possible join level (ties fall back to selectivity,
        // then join connectivity, then replace-list order).
        let conjunct_slots: Vec<Vec<u16>> = spec
            .where_cond
            .as_ref()
            .map(|w| {
                w.conjuncts()
                    .iter()
                    .map(|c| c.vars().iter().map(|v| var_index[v]).collect())
                    .collect()
            })
            .unwrap_or_default();
        let order = plan_join_order(&positions, &conjunct_slots);

        let nvars = var_index.len();
        let mut cr = CompiledReaction {
            name: spec.name.clone(),
            spec: spec.clone(),
            var_index,
            nvars,
            positions,
            order,
            vm: ReactionVm::placeholder(),
        };
        // The VM compiles per-level conjunct chunks off the guard plan, so
        // build the plan first (it needs the join order computed above).
        let plan = cr.guard_plan();
        cr.vm = ReactionVm::new(&cr.spec, &plan, &cr.var_index);
        Ok(cr)
    }

    /// The guard/action evaluation mode this reaction dispatches under.
    pub fn guard_eval_mode(&self) -> GuardEvalMode {
        self.vm.mode()
    }

    /// Set the evaluation mode (the session stamps its configured mode
    /// onto every reaction before building matcher state).
    pub fn set_guard_eval_mode(&mut self, mode: GuardEvalMode) {
        self.vm.set_mode(mode);
    }

    /// The reaction's current VM tier.
    pub fn vm_tier(&self) -> Tier {
        self.vm.tier()
    }

    /// Re-compile this reaction's chunks at the optimising tier. Returns
    /// `true` on the baseline → optimised transition. Sessions call this
    /// at wave boundaries only, so in-flight waves never change tier.
    pub fn vm_tier_up(&mut self) -> bool {
        let plan = self.guard_plan();
        self.vm.tier_up(&self.spec, &plan, &self.var_index)
    }

    /// The compiled VM state (rete guard dispatch reads chunks off this).
    pub(crate) fn vm(&self) -> &ReactionVm {
        &self.vm
    }

    /// The source spec.
    pub fn spec(&self) -> &ReactionSpec {
        &self.spec
    }

    /// Replace-list arity.
    pub fn arity(&self) -> usize {
        self.positions.len()
    }

    /// The compiled pattern positions, in replace-list order.
    pub(crate) fn positions(&self) -> &[CompiledPattern] {
        &self.positions
    }

    /// The selectivity-ordered search plan (indices into
    /// [`Self::positions`]); the rete network joins in this order.
    pub(crate) fn join_order(&self) -> &[usize] {
        &self.order
    }

    /// The variable table mapping symbols to binding slots.
    pub(crate) fn var_index(&self) -> &FxHashMap<Symbol, u16> {
        &self.var_index
    }

    /// Number of binding slots.
    pub(crate) fn nvars(&self) -> usize {
        self.nvars
    }

    /// Run the guard-analysis pass: decompose the `where` condition into
    /// conjuncts, push each down to the earliest join level binding all of
    /// its variables, and extract the clause-guard disjunction (see
    /// [`GuardPlan`]).
    pub fn guard_plan(&self) -> GuardPlan {
        // First join level at which each binding slot is bound.
        let mut first_bound = vec![usize::MAX; self.nvars];
        for (k, &p) in self.order.iter().enumerate() {
            let pat = &self.positions[p];
            for v in [pat.value_var, pat.label_var, pat.tag_var]
                .into_iter()
                .flatten()
            {
                if first_bound[v as usize] == usize::MAX {
                    first_bound[v as usize] = k;
                }
            }
        }
        let mut level_conjuncts = vec![Vec::new(); self.order.len()];
        if let Some(w) = &self.spec.where_cond {
            for c in w.conjuncts() {
                let level = c
                    .vars()
                    .iter()
                    .map(|v| first_bound[self.var_index[v] as usize])
                    .max()
                    .unwrap_or(0);
                debug_assert!(level < self.order.len(), "where vars are bound");
                level_conjuncts[level].push(c.clone());
            }
        }
        let clause_disjunction = if self
            .spec
            .clauses
            .iter()
            .any(|c| matches!(c.guard, Guard::Always | Guard::Else))
        {
            None
        } else {
            Some(
                self.spec
                    .clauses
                    .iter()
                    .filter_map(|c| match &c.guard {
                        Guard::If(e) => Some(e.clone()),
                        _ => None,
                    })
                    .collect(),
            )
        };
        GuardPlan {
            level_conjuncts,
            clause_disjunction,
        }
    }

    /// What the Rete network memorises for this reaction: the one static
    /// plan both the network and [`Self::explain_plan`] read. Past level
    /// 0, levels are materialised while they prune (see [`Prune`]); from
    /// the first that does not, their tokens would be a cross product the
    /// `(label, tag)` bag index already enumerates, so they are virtual.
    pub(crate) fn match_plan(&self) -> MatchPlan {
        let guards = self.guard_plan();
        if let Some(slot) = self.tag_key(&guards) {
            return MatchPlan::TagKeyed(slot);
        }
        let mut bound = vec![false; self.nvars];
        let mut prunes = Vec::new();
        for (k, &p) in self.order.iter().enumerate() {
            let pat = &self.positions[p];
            let vars = [pat.value_var, pat.label_var, pat.tag_var];
            if k > 0 {
                let joined = vars.into_iter().flatten().find(|&v| bound[v as usize]);
                let prune = if !guards.level_conjuncts[k].is_empty() {
                    Prune::Pushes
                } else if let Some(v) = joined {
                    Prune::JoinsOn(v)
                } else if k + 1 == self.arity() && guards.clause_disjunction.is_some() {
                    Prune::ClauseGuard
                } else {
                    break;
                };
                prunes.push(prune);
            }
            for v in vars.into_iter().flatten() {
                bound[v as usize] = true;
            }
        }
        MatchPlan::Tokens(prunes)
    }

    /// The tag-keyed answer of [`Self::match_plan`]: the slot of the
    /// shared tag variable `v` when this reaction is enabled exactly when
    /// every position holds some element under one tag, as every
    /// Algorithm-1 node image is. That needs `v` at every position,
    /// `Exact`/`OneOf` labels disjoint across positions, a value variable
    /// per position and no variable but `v` twice, no `where`, no clause
    /// disjunction, and ≤ 32 positions (one mask bit each).
    fn tag_key(&self, guards: &GuardPlan) -> Option<u16> {
        let v = self.positions.first()?.tag_var?;
        let total = guards.clause_disjunction.is_none();
        if self.arity() > 32 || self.spec.where_cond.is_some() || !total {
            return None;
        }
        let mut vars = vec![v];
        let mut labels: Vec<Symbol> = Vec::new();
        for pat in &self.positions {
            let literals = pat.label.literals();
            if pat.tag_var != Some(v)
                || literals.is_empty()
                || literals.iter().any(|l| labels.contains(l))
            {
                return None;
            }
            labels.extend_from_slice(literals);
            for var in std::iter::once(pat.value_var?).chain(pat.label_var) {
                if vars.contains(&var) {
                    return None;
                }
                vars.push(var);
            }
        }
        Some(v)
    }

    /// Render the compiled join plan for debugging: the planner-chosen
    /// join order with each level's label filter and `match_plan`
    /// answer (`materialised (pushes a < b)`, `virtual`, …), plus the
    /// terminal clause disjunction. Set
    /// `GAMMAFLOW_EXPLAIN_PLAN=1` to print every reaction's plan to
    /// stderr as programs compile.
    pub fn explain_plan(&self) -> String {
        use std::fmt::Write;
        let plan = self.guard_plan();
        let mut out = String::new();
        let _ = writeln!(out, "reaction {} (arity {}):", self.name, self.arity());
        let var_name = |slot: u16| {
            let found = self.var_index.iter().find(|(_, &s)| s == slot);
            *found.expect("every slot names a variable").0
        };
        let prunes = match self.match_plan() {
            MatchPlan::TagKeyed(slot) => {
                let _ = writeln!(out, "  plan: tag-keyed on {}", var_name(slot));
                None
            }
            MatchPlan::Tokens(prunes) => {
                let _ = writeln!(out, "  plan: join tokens");
                Some(prunes)
            }
        };
        for (k, &p) in self.order.iter().enumerate() {
            let pat = &self.positions[p];
            let label = match &pat.label {
                LabelFilter::Exact(l) => format!("'{l}'"),
                LabelFilter::OneOf(ls) => {
                    let names: Vec<&str> = ls.iter().map(|l| l.as_str()).collect();
                    format!("one of {names:?}")
                }
                LabelFilter::Any => "any label".to_string(),
            };
            let _ = write!(out, "  level {k}: position {p} ({label})");
            if let Some(prunes) = &prunes {
                let pushed: Vec<String> = plan.level_conjuncts[k]
                    .iter()
                    .map(|c| c.to_string())
                    .collect();
                let _ = match k.checked_sub(1).map(|i| prunes.get(i)) {
                    Some(None) => write!(out, "  virtual"),
                    Some(Some(Prune::JoinsOn(v))) => {
                        write!(out, "  materialised (joins on {})", var_name(*v))
                    }
                    Some(Some(Prune::ClauseGuard)) => write!(out, "  materialised (clause guard)"),
                    _ if pushed.is_empty() => write!(out, "  materialised"),
                    _ => write!(out, "  materialised (pushes {})", pushed.join(" and ")),
                };
            }
            let _ = writeln!(out);
        }
        if let Some(disj) = &plan.clause_disjunction {
            let guards: Vec<String> = disj.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(out, "  terminal: some of [{}]", guards.join(", "));
        }
        // Disassembly of the active tier's guard chunks — what actually
        // dispatches when the VM mode is on.
        let cs = self.vm.active();
        let _ = writeln!(out, "  bytecode ({:?} tier):", self.vm.tier());
        let mut section = |title: String, chunk: &crate::vm::Chunk| {
            let _ = writeln!(out, "    {title}:");
            for line in chunk.disassemble().lines() {
                let _ = writeln!(out, "      {line}");
            }
        };
        for (k, gs) in cs.level_conjuncts.iter().enumerate() {
            for (i, c) in gs.iter().enumerate() {
                section(format!("level {k} conjunct {i}"), c);
            }
        }
        if let Some(w) = &cs.where_full {
            section("where (terminal)".to_string(), w);
        }
        for (ci, g) in cs.clause_guards.iter().enumerate() {
            if let ClauseGuardChunk::If(c) = g {
                section(format!("clause {ci} guard"), c);
            }
        }
        for (ci, outs) in cs.clause_outputs.iter().enumerate() {
            for (oi, oc) in outs.iter().enumerate() {
                section(format!("clause {ci} output {oi} value"), &oc.value);
                if let Some(t) = &oc.tag {
                    section(format!("clause {ci} output {oi} tag"), t);
                }
            }
        }
        out
    }

    /// Evaluate the enabled clause's outputs for an externally produced
    /// binding (the rete matcher's tokens carry their slots directly).
    /// Returns the selected clause index and produced elements, or `None`
    /// when no clause guard holds.
    pub(crate) fn eval_outputs_for_slots(
        &self,
        slots: Vec<Option<Value>>,
    ) -> Result<Option<(usize, Vec<Element>)>, MatchError> {
        let bindings = Bindings {
            slots,
            index: &self.var_index,
        };
        self.outputs_for(&bindings)
    }

    /// Find one enabled match in `bag`, or `None` if the reaction is not
    /// enabled anywhere: [`Self::find_match_fast`] with fresh scratch.
    /// With an RNG, candidates are tried in a seeded random order, so any
    /// enabled tuple can be selected; without, the search is
    /// deterministic (first match in index order).
    ///
    /// `reaction_index` is recorded into the returned [`Firing`].
    pub fn find_match<S: MatchSource>(
        &self,
        reaction_index: usize,
        bag: &S,
        rng: Option<&mut ChaCha8Rng>,
    ) -> Result<Option<Firing>, MatchError> {
        self.find_match_fast(reaction_index, bag, rng, &mut SearchScratch::new())
    }

    // --- delta-scheduling fast paths ------------------------------------
    //
    // The methods below are the matcher half of the incremental scheduler
    // in [`crate::schedule`]: an allocation-free search (lazy index
    // iteration when deterministic, reusable scratch buffers when seeded)
    // and an *anchored* search that pins one search-plan position to a
    // specific freshly-inserted element and completes the tuple from the
    // index — the Gamma image of delivering one token to the dataflow
    // waiting–matching store and joining it against waiting operands.

    /// The label classes this reaction consumes: every literal label
    /// (including all `OneOf` members), plus whether any position is a
    /// label wildcard. The scheduler's dependency index is built from
    /// this.
    pub fn consumed_label_classes(&self) -> (Vec<Symbol>, bool) {
        let mut labels = Vec::new();
        let mut wildcard = false;
        for pat in &self.positions {
            labels.extend_from_slice(pat.label.literals());
            wildcard |= matches!(pat.label, LabelFilter::Any);
        }
        labels.sort_unstable();
        labels.dedup();
        (labels, wildcard)
    }

    /// The literal labels this reaction can produce across all of its
    /// clauses (label-variable outputs are runtime-determined and
    /// excluded). The parallel engine's slice planner links producers to
    /// consumers through this.
    pub fn produced_label_literals(&self) -> Vec<Symbol> {
        let mut labels = Vec::new();
        for c in &self.spec.clauses {
            for out in &c.outputs {
                if let LabelSpec::Lit(l) = &out.label {
                    labels.push(*l);
                }
            }
        }
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Whether position `p`'s static filters (label, literal tag, literal
    /// value) admit `anchor`. This is the alpha-memory membership test of
    /// the rete network (label class + literal tag + literal value).
    pub(crate) fn position_admits(&self, p: usize, anchor: &Element) -> bool {
        self.position_admits_parts(p, anchor.label, anchor.tag, &anchor.value)
    }

    /// [`Self::position_admits`] over borrowed parts — the id-carrying
    /// rete feed resolves an [`ElemId`] to `(value, tag)` borrows and
    /// never materialises an `Element`.
    pub(crate) fn position_admits_parts(
        &self,
        p: usize,
        label: Symbol,
        tag: Tag,
        value: &Value,
    ) -> bool {
        let pat = &self.positions[p];
        pat.label.admits(label)
            && pat.tag_lit.is_none_or(|t| t == tag)
            && pat.value_lit.as_ref().is_none_or(|v| *v == *value)
    }

    /// Full-tuple acceptance: `where` condition plus some enabled clause.
    /// Condition evaluation errors mean "not enabled".
    fn accept(&self, bindings: &Bindings<'_>) -> bool {
        match self.vm.mode() {
            GuardEvalMode::Vm => {
                let cs = self.vm.active();
                if let Some(w) = &cs.where_full {
                    if !w.eval_guard(&bindings.slots, &[]) {
                        return false;
                    }
                }
            }
            GuardEvalMode::Tree => {
                if let Some(w) = &self.spec.where_cond {
                    if !w.eval_bool(bindings).unwrap_or(false) {
                        return false;
                    }
                }
            }
        }
        self.enabled_clause(bindings).is_some()
    }

    /// Bind one matched position's variables. Returns the freshly bound
    /// slots (for backtracking) or `None` on a repeated-variable conflict,
    /// in which case everything bound here is already unbound again.
    fn bind_position(
        &self,
        pat: &CompiledPattern,
        label: Symbol,
        tag: Tag,
        value: &Value,
        bindings: &mut Bindings<'_>,
    ) -> Option<([u16; 3], usize)> {
        let mut fresh = [0u16; 3];
        let mut nfresh = 0;
        let slots = [
            (pat.value_var, BindField::Value),
            (pat.label_var, BindField::Label),
            (pat.tag_var, BindField::Tag),
        ];
        for (var, field) in slots {
            let Some(v) = var else { continue };
            let bound = match field {
                BindField::Value => value.clone(),
                BindField::Label => Value::str(label.as_str()),
                BindField::Tag => Value::Int(tag.0 as i64),
            };
            match bindings.bind(v, bound) {
                Some(true) => {
                    fresh[nfresh] = v;
                    nfresh += 1;
                }
                Some(false) => {}
                None => {
                    for &u in &fresh[..nfresh] {
                        bindings.unbind(u);
                    }
                    return None;
                }
            }
        }
        Some((fresh, nfresh))
    }

    /// Deterministic allocation-free search: the first tuple in index
    /// order, by lazy iteration over the bag index — no candidate vectors
    /// are built, so a probe costs exactly the candidates it inspects.
    fn det_search<S: MatchSource>(
        &self,
        depth: usize,
        order: &[usize],
        bag: &S,
        bindings: &mut Bindings<'_>,
        consumed: &mut [Option<Element>],
    ) -> bool {
        if depth == order.len() {
            return self.accept(bindings);
        }
        match &self.positions[order[depth]].label {
            LabelFilter::Exact(l) => self.det_label(depth, order, *l, bag, bindings, consumed),
            LabelFilter::OneOf(ls) => {
                for &label in ls.iter() {
                    if self.det_label(depth, order, label, bag, bindings, consumed) {
                        return true;
                    }
                }
                false
            }
            LabelFilter::Any => {
                let mut found = false;
                bag.visit_labels(&mut |label| {
                    found = self.det_label(depth, order, label, bag, bindings, consumed);
                    !found
                });
                found
            }
        }
    }

    fn det_label<S: MatchSource>(
        &self,
        depth: usize,
        order: &[usize],
        label: Symbol,
        bag: &S,
        bindings: &mut Bindings<'_>,
        consumed: &mut [Option<Element>],
    ) -> bool {
        let pat = &self.positions[order[depth]];
        match pat.tag_pin(&bindings.slots) {
            Some(Some(t)) => self.det_tag(depth, order, label, t, bag, bindings, consumed),
            Some(None) => false,
            None => {
                let mut found = false;
                bag.visit_tags(label, &mut |tag| {
                    found = self.det_tag(depth, order, label, tag, bag, bindings, consumed);
                    !found
                });
                found
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn det_tag<S: MatchSource>(
        &self,
        depth: usize,
        order: &[usize],
        label: Symbol,
        tag: Tag,
        bag: &S,
        bindings: &mut Bindings<'_>,
        consumed: &mut [Option<Element>],
    ) -> bool {
        let pat = &self.positions[order[depth]];
        let bound_value = pat
            .value_var
            .and_then(|v| bindings.slots[v as usize].clone());
        let pinned = match (&pat.value_lit, bound_value) {
            (Some(lit), _) => Some(lit.clone()),
            (None, Some(b)) => Some(b),
            _ => None,
        };
        match pinned {
            Some(value) => {
                let available = bag.count_at(label, tag, &value);
                self.try_candidate(
                    order[depth],
                    label,
                    tag,
                    &value,
                    available,
                    bindings,
                    consumed,
                    |b, c| self.det_search(depth + 1, order, bag, b, c),
                )
            }
            None => {
                let mut found = false;
                bag.visit_values(label, tag, &mut |value, available| {
                    found = self.try_candidate(
                        order[depth],
                        label,
                        tag,
                        value,
                        available,
                        bindings,
                        consumed,
                        |b, c| self.det_search(depth + 1, order, bag, b, c),
                    );
                    !found
                });
                found
            }
        }
    }

    /// Try one candidate for the plan position `pos_idx`, of which the
    /// bucket holds `available` occurrences: check that against what
    /// earlier positions consumed, bind it, and hand the rest of the plan
    /// to `next`; undo the binding when `next` fails.
    #[allow(clippy::too_many_arguments)]
    fn try_candidate(
        &self,
        pos_idx: usize,
        label: Symbol,
        tag: Tag,
        value: &Value,
        available: usize,
        bindings: &mut Bindings<'_>,
        consumed: &mut [Option<Element>],
        next: impl FnOnce(&mut Bindings<'_>, &mut [Option<Element>]) -> bool,
    ) -> bool {
        if available == 0 {
            return false;
        }
        let candidate = Element {
            value: value.clone(),
            label,
            tag,
        };
        let already_used = consumed
            .iter()
            .flatten()
            .filter(|e| **e == candidate)
            .count();
        if already_used >= available {
            return false;
        }
        let pat = &self.positions[pos_idx];
        let Some((fresh, nfresh)) = self.bind_position(pat, label, tag, value, bindings) else {
            return false;
        };
        consumed[pos_idx] = Some(candidate);
        if next(bindings, consumed) {
            return true;
        }
        consumed[pos_idx] = None;
        for &v in &fresh[..nfresh] {
            bindings.unbind(v);
        }
        false
    }

    /// Seeded search over reusable `scratch`: labels and tags are
    /// shuffled, and a bucket's values are drawn one at a time from a
    /// lazily generated uniform permutation of its physical rows
    /// ([`ScratchLevel::draw`]), so a level costs the candidates it
    /// tries, not the bucket size. A dead row, or one a stale read no
    /// longer finds, is skipped like a rejected candidate; live rows
    /// still come in uniformly random order and every one is reachable.
    #[allow(clippy::too_many_arguments)]
    fn scratch_search<S: MatchSource>(
        &self,
        depth: usize,
        order: &[usize],
        bag: &S,
        bindings: &mut Bindings<'_>,
        consumed: &mut [Option<Element>],
        rng: &mut ChaCha8Rng,
        scratch: &mut [ScratchLevel],
    ) -> bool {
        if depth == order.len() {
            return self.accept(bindings);
        }
        let (level, rest) = scratch.split_first_mut().expect("scratch sized to arity");
        let pos_idx = order[depth];
        let pat = &self.positions[pos_idx];

        level.labels.clear();
        match &pat.label {
            LabelFilter::Exact(l) => level.labels.push(*l),
            LabelFilter::OneOf(ls) => level.labels.extend_from_slice(ls),
            LabelFilter::Any => bag.visit_labels(&mut |l| {
                level.labels.push(l);
                true
            }),
        }
        level.labels.shuffle(rng);

        for li in 0..level.labels.len() {
            let label = level.labels[li];
            level.tags.clear();
            match pat.tag_pin(&bindings.slots) {
                Some(pinned) => level.tags.extend(pinned),
                None => bag.visit_tags(label, &mut |t| {
                    level.tags.push(t);
                    true
                }),
            }
            if level.tags.len() > 1 {
                level.tags.shuffle(rng);
            }

            for ti in 0..level.tags.len() {
                let tag = level.tags[ti];
                // A pinned value (literal, or a repeated variable already
                // bound) needs only its exact multiplicity.
                let bound = pat
                    .value_var
                    .and_then(|v| bindings.slots[v as usize].clone());
                if let Some(value) = pat.value_lit.clone().or(bound) {
                    let available = bag.count_at(label, tag, &value);
                    if self.try_candidate(
                        pos_idx,
                        label,
                        tag,
                        &value,
                        available,
                        bindings,
                        consumed,
                        |b, c| self.scratch_search(depth + 1, order, bag, b, c, rng, rest),
                    ) {
                        return true;
                    }
                    continue;
                }
                let rows = bag.row_count(label, tag);
                level.swaps.clear();
                for i in 0..rows {
                    let r = level.draw(i, rows, rng);
                    let Some((value, available)) = bag.row(label, tag, r) else {
                        continue;
                    };
                    if self.try_candidate(
                        pos_idx,
                        label,
                        tag,
                        &value,
                        available,
                        bindings,
                        consumed,
                        |b, c| self.scratch_search(depth + 1, order, bag, b, c, rng, rest),
                    ) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Build the [`Firing`] for a successful search.
    fn finish(
        &self,
        reaction_index: usize,
        consumed: Vec<Option<Element>>,
        bindings: &Bindings<'_>,
    ) -> Result<Option<Firing>, MatchError> {
        let consumed: Vec<Element> = consumed.into_iter().map(|e| e.unwrap()).collect();
        let (clause, produced) = self
            .outputs_for(bindings)?
            .expect("search only succeeds with an enabled clause");
        Ok(Some(Firing {
            reaction: reaction_index,
            consumed,
            produced,
            clause,
        }))
    }

    /// [`Self::find_match`] over reusable `scratch`, allocation-free on
    /// the steady state: deterministic mode iterates the index lazily,
    /// seeded mode draws candidates through the scratch levels.
    pub fn find_match_fast<S: MatchSource>(
        &self,
        reaction_index: usize,
        bag: &S,
        rng: Option<&mut ChaCha8Rng>,
        scratch: &mut SearchScratch,
    ) -> Result<Option<Firing>, MatchError> {
        let mut bindings = Bindings::new(self.nvars, &self.var_index);
        let mut consumed: Vec<Option<Element>> = vec![None; self.positions.len()];
        let found = match rng {
            None => self.det_search(0, &self.order, bag, &mut bindings, &mut consumed),
            Some(r) => {
                scratch.ensure_depth(self.order.len());
                self.scratch_search(
                    0,
                    &self.order,
                    bag,
                    &mut bindings,
                    &mut consumed,
                    r,
                    &mut scratch.levels,
                )
            }
        };
        if !found {
            return Ok(None);
        }
        self.finish(reaction_index, consumed, &bindings)
    }

    /// True when this reaction's enabledness over a candidate element is
    /// a pure function of the element alone: exactly one consumed
    /// position, with no literal value pin (a pinned value probes the
    /// index in O(1) and needs no scan at all). For such reactions a
    /// bucket row that fails the guard once can never match later — no
    /// other multiset content enters the decision — which is what makes
    /// the per-bucket frontier cursor of [`Self::find_match_frontier`]
    /// sound.
    pub(crate) fn frontier_eligible(&self) -> bool {
        self.positions.len() == 1 && self.positions[0].value_lit.is_none()
    }

    /// Linear-amortised first-match search for
    /// [`Self::frontier_eligible`] reactions.
    ///
    /// Each candidate bucket is scanned from its parked cursor instead
    /// of the bucket head, skipping every row already proven dead or
    /// permanently guard-rejected, and the cursor re-parks where the
    /// scan stops (at the matching row on a hit, past the end on a
    /// miss). Each row is therefore guard-evaluated O(1) amortised
    /// times over a whole run — the fix for the quadratic post-firing
    /// re-search that restarting from the bucket head costs.
    ///
    /// Selects exactly the tuple [`Self::find_match_fast`] selects with
    /// no RNG — the first live accepting row in label/tag/insertion
    /// order; cursor state changes how fast that row is found, never
    /// which row — and consumes no randomness. Delta scheduling
    /// therefore stays trace-identical to the rescanning reference in
    /// deterministic mode, and cursors need no place in snapshots.
    pub(crate) fn find_match_frontier(
        &self,
        reaction_index: usize,
        bag: &ElementBag,
        cursors: &mut FrontierCursors,
    ) -> Result<Option<Firing>, MatchError> {
        debug_assert!(self.frontier_eligible());
        match &self.positions[0].label {
            LabelFilter::Exact(l) => self.frontier_label(reaction_index, *l, bag, cursors),
            LabelFilter::OneOf(ls) => {
                for &label in ls.iter() {
                    if let Some(f) = self.frontier_label(reaction_index, label, bag, cursors)? {
                        return Ok(Some(f));
                    }
                }
                Ok(None)
            }
            LabelFilter::Any => {
                // Same label enumeration order as `det_search`'s
                // `visit_labels`, so the selected row is identical.
                for label in bag.labels() {
                    if let Some(f) = self.frontier_label(reaction_index, label, bag, cursors)? {
                        return Ok(Some(f));
                    }
                }
                Ok(None)
            }
        }
    }

    fn frontier_label(
        &self,
        reaction_index: usize,
        label: Symbol,
        bag: &ElementBag,
        cursors: &mut FrontierCursors,
    ) -> Result<Option<Firing>, MatchError> {
        // A tag variable is necessarily unbound here (single position),
        // so the bucket set is the literal tag or every tag under the
        // label — in `visit_tags` order, matching `det_label`.
        if let Some(tag) = self.positions[0].tag_lit {
            return self.frontier_bucket(reaction_index, label, tag, bag, cursors);
        }
        for tag in bag.tags_for(label) {
            if let Some(f) = self.frontier_bucket(reaction_index, label, tag, bag, cursors)? {
                return Ok(Some(f));
            }
        }
        Ok(None)
    }

    fn frontier_bucket(
        &self,
        reaction_index: usize,
        label: Symbol,
        tag: Tag,
        bag: &ElementBag,
        cursors: &mut FrontierCursors,
    ) -> Result<Option<Firing>, MatchError> {
        let Some(bucket) = bag.bucket(label, tag) else {
            return Ok(None);
        };
        let pat = &self.positions[0];
        let cursor = cursors
            .map
            .entry((reaction_index as u32, label, tag))
            .or_insert(FrontierCursor {
                row: 0,
                epoch: bucket.epoch(),
            });
        if cursor.epoch != bucket.epoch() {
            // Compaction renumbered the rows; restart. Amortised away:
            // a compaction only runs after at least as many removals as
            // the live rows this rescan revisits.
            cursor.row = 0;
            cursor.epoch = bucket.epoch();
        }
        let mut parked = cursor.row as usize;
        let mut hit = None;
        let mut bindings = Bindings::new(self.nvars, &self.var_index);
        for (i, _id, value, _count) in bucket.iter_ids_from(parked) {
            match self.bind_position(pat, label, tag, value, &mut bindings) {
                None => {
                    // Repeated-variable conflict between the row's own
                    // fields — a property of the row alone; rejected
                    // forever.
                    parked = i + 1;
                }
                Some((fresh, nfresh)) => {
                    if self.accept(&bindings) {
                        hit = Some((
                            i,
                            Element {
                                value: value.clone(),
                                label,
                                tag,
                            },
                        ));
                        break;
                    }
                    for &v in &fresh[..nfresh] {
                        bindings.unbind(v);
                    }
                    // Guard-rejected: permanent for frontier-eligible
                    // reactions.
                    parked = i + 1;
                }
            }
        }
        match hit {
            Some((i, element)) => {
                // Park AT the matched row: it may still hold
                // occurrences after the firing consumes one.
                cursor.row = i as u32;
                self.finish(reaction_index, vec![Some(element)], &bindings)
            }
            None => {
                cursor.row = parked as u32;
                Ok(None)
            }
        }
    }

    /// Semi-naive anchored probe: find a match whose tuple *includes*
    /// `anchor`, one specific element inserted since this reaction last
    /// failed to match. If the reaction provably had no match before the
    /// insertion, anchored probing is complete: matching is monotone in
    /// the multiset, so any new match must consume at least one inserted
    /// element. Every position whose static filters admit the anchor is
    /// tried; the remaining positions are completed from the index.
    pub fn find_match_anchored<S: MatchSource>(
        &self,
        reaction_index: usize,
        bag: &S,
        anchor: &Element,
        mut rng: Option<&mut ChaCha8Rng>,
        scratch: &mut SearchScratch,
    ) -> Result<Option<Firing>, MatchError> {
        if bag.count_at(anchor.label, anchor.tag, &anchor.value) == 0 {
            // The anchor has already been consumed again; any match through
            // it is gone with it.
            return Ok(None);
        }
        scratch.ensure_depth(self.order.len());
        for p in 0..self.positions.len() {
            if !self.position_admits(p, anchor) {
                continue;
            }
            let mut bindings = Bindings::new(self.nvars, &self.var_index);
            let mut consumed: Vec<Option<Element>> = vec![None; self.positions.len()];
            let pat = &self.positions[p];
            if self
                .bind_position(pat, anchor.label, anchor.tag, &anchor.value, &mut bindings)
                .is_none()
            {
                continue;
            }
            consumed[p] = Some(anchor.clone());
            // Complete the rest of the plan in selectivity order.
            let mut rest = std::mem::take(&mut scratch.order);
            rest.clear();
            rest.extend(self.order.iter().copied().filter(|&i| i != p));
            let found = match rng.as_deref_mut() {
                None => self.det_search(0, &rest, bag, &mut bindings, &mut consumed),
                Some(r) => self.scratch_search(
                    0,
                    &rest,
                    bag,
                    &mut bindings,
                    &mut consumed,
                    r,
                    &mut scratch.levels,
                ),
            };
            scratch.order = rest;
            if found {
                return self.finish(reaction_index, consumed, &bindings);
            }
        }
        Ok(None)
    }

    // --- virtual-level completions ---------------------------------------
    //
    // The rete network ([`crate::rete`]) materialises only the join levels
    // `match_plan` says prune, and fewer once its token cap demotes some;
    // the virtual deep levels are recomputed on demand by the two methods
    // below, which resume the index search from a frontier token's
    // already-joined, already-guard-filtered prefix.

    /// True when the partial match binding the first `prefix.len()`
    /// join-order positions extends to a full enabled match in `bag`.
    /// `prefix` holds the matched elements in join order and `slots` the
    /// variable bindings they produced. Deterministic; the binding and
    /// consumed rows live in `scratch`, so a warmed-up probe only clones
    /// the prefix's values, never fresh vectors — this runs once per
    /// frontier token on every spill-cache miss.
    pub(crate) fn prefix_completes<S: MatchSource>(
        &self,
        bag: &S,
        prefix: &[Element],
        slots: &[Option<Value>],
        scratch: &mut SearchScratch,
    ) -> bool {
        scratch.slots.clear();
        scratch.slots.extend_from_slice(slots);
        scratch.consumed.clear();
        scratch.consumed.resize(self.positions.len(), None);
        for (k, e) in prefix.iter().enumerate() {
            scratch.consumed[self.order[k]] = Some(e.clone());
        }
        let mut bindings = Bindings {
            slots: std::mem::take(&mut scratch.slots),
            index: &self.var_index,
        };
        let mut consumed = std::mem::take(&mut scratch.consumed);
        let found = self.det_search(
            0,
            &self.order[prefix.len()..],
            bag,
            &mut bindings,
            &mut consumed,
        );
        scratch.slots = bindings.slots;
        scratch.consumed = consumed;
        found
    }

    /// Complete a spilled prefix into a full [`Firing`], or `None` when no
    /// completion exists. With an RNG the remaining levels draw their
    /// candidates in seeded random order, as [`Self::find_match`] does;
    /// without, the first completion in index order is taken.
    pub(crate) fn complete_prefix<S: MatchSource>(
        &self,
        reaction_index: usize,
        bag: &S,
        prefix: &[Element],
        slots: &[Option<Value>],
        rng: Option<&mut ChaCha8Rng>,
        scratch: &mut SearchScratch,
    ) -> Result<Option<Firing>, MatchError> {
        let mut bindings = Bindings {
            slots: slots.to_vec(),
            index: &self.var_index,
        };
        let mut consumed: Vec<Option<Element>> = vec![None; self.positions.len()];
        for (k, e) in prefix.iter().enumerate() {
            consumed[self.order[k]] = Some(e.clone());
        }
        let rest = &self.order[prefix.len()..];
        let found = match rng {
            None => self.det_search(0, rest, bag, &mut bindings, &mut consumed),
            Some(r) => {
                scratch.ensure_depth(self.order.len());
                self.scratch_search(
                    0,
                    rest,
                    bag,
                    &mut bindings,
                    &mut consumed,
                    r,
                    &mut scratch.levels,
                )
            }
        };
        if !found {
            return Ok(None);
        }
        self.finish(reaction_index, consumed, &bindings)
    }

    /// Index of the first clause whose guard holds under `bindings`, if any.
    fn enabled_clause(&self, bindings: &Bindings<'_>) -> Option<usize> {
        if self.vm.mode() == GuardEvalMode::Vm {
            let cs = self.vm.active();
            for (i, g) in cs.clause_guards.iter().enumerate() {
                match g {
                    ClauseGuardChunk::Total => return Some(i),
                    ClauseGuardChunk::If(cond) => {
                        if cond.eval_guard(&bindings.slots, &[]) {
                            return Some(i);
                        }
                    }
                }
            }
            return None;
        }
        for (i, c) in self.spec.clauses.iter().enumerate() {
            match &c.guard {
                Guard::Always | Guard::Else => return Some(i),
                Guard::If(cond) => {
                    if cond.eval_bool(bindings).unwrap_or(false) {
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    /// Evaluate the selected clause's outputs.
    fn outputs_for(
        &self,
        bindings: &Bindings<'_>,
    ) -> Result<Option<(usize, Vec<Element>)>, MatchError> {
        let Some(clause_idx) = self.enabled_clause(bindings) else {
            return Ok(None);
        };
        let clause: &ByClause = &self.spec.clauses[clause_idx];
        let vm_outputs = match self.vm.mode() {
            GuardEvalMode::Vm => Some(&self.vm.active().clause_outputs[clause_idx]),
            GuardEvalMode::Tree => None,
        };
        let mut produced = Vec::with_capacity(clause.outputs.len());
        for (oi, out) in clause.outputs.iter().enumerate() {
            produced.push(self.eval_output(out, vm_outputs.map(|os| &os[oi]), bindings)?);
        }
        Ok(Some((clause_idx, produced)))
    }

    /// Evaluate one output element. With `vm_out`, the value/label/tag
    /// expressions dispatch as bytecode; the surrounding conversions (and
    /// so every error payload) are shared with the tree path.
    fn eval_output(
        &self,
        out: &ElementSpec,
        vm_out: Option<&OutputChunks>,
        bindings: &Bindings<'_>,
    ) -> Result<Element, MatchError> {
        let value = match vm_out {
            Some(oc) => oc.value.eval(&bindings.slots, &[]),
            None => out.value.eval(bindings),
        }
        .map_err(|error| MatchError::Action {
            reaction: self.name.clone(),
            error,
        })?;
        let label = match &out.label {
            LabelSpec::Lit(l) => *l,
            LabelSpec::Var(v) => {
                let lv = match vm_out.and_then(|oc| oc.label_var.as_ref()) {
                    Some(c) => c.eval(&bindings.slots, &[]),
                    None => Expr::Var(*v).eval(bindings),
                }
                .map_err(|error| MatchError::Action {
                    reaction: self.name.clone(),
                    error,
                })?;
                match lv {
                    Value::Str(s) => Symbol::intern(&s),
                    other => {
                        return Err(MatchError::BadTag {
                            reaction: self.name.clone(),
                            value: format!("label variable bound to {other}"),
                        })
                    }
                }
            }
        };
        let tag = match &out.tag {
            TagSpec::Zero => Tag::ZERO,
            TagSpec::Expr(e) => {
                let tv = match vm_out.and_then(|oc| oc.tag.as_ref()) {
                    Some(c) => c.eval(&bindings.slots, &[]),
                    None => e.eval(bindings),
                }
                .map_err(|error| MatchError::Action {
                    reaction: self.name.clone(),
                    error,
                })?;
                match tag_of(&tv) {
                    Some(t) => t,
                    None => {
                        return Err(MatchError::BadTag {
                            reaction: self.name.clone(),
                            value: tv.to_string(),
                        })
                    }
                }
            }
        };
        Ok(Element { value, label, tag })
    }
}

/// A compiled Gamma program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Compiled reactions, in spec order.
    pub reactions: Vec<CompiledReaction>,
}

impl CompiledProgram {
    /// Compile and validate every reaction of `program`. With
    /// `GAMMAFLOW_EXPLAIN_PLAN=1` in the environment, each reaction's
    /// join plan ([`CompiledReaction::explain_plan`]) is printed to
    /// stderr — the quickest way to see where the planner put a guard.
    pub fn compile(program: &GammaProgram) -> Result<CompiledProgram, SpecError> {
        let reactions = program
            .reactions
            .iter()
            .map(CompiledReaction::compile)
            .collect::<Result<Vec<_>, _>>()?;
        if std::env::var_os("GAMMAFLOW_EXPLAIN_PLAN").is_some() {
            for r in &reactions {
                eprint!("{}", r.explain_plan());
            }
        }
        Ok(CompiledProgram { reactions })
    }

    /// Stamp every reaction's guard/action evaluation mode (sessions call
    /// this once before building matcher state).
    pub fn set_guard_eval_mode(&mut self, mode: GuardEvalMode) {
        for r in &mut self.reactions {
            r.set_guard_eval_mode(mode);
        }
    }

    /// Find any enabled firing in `bag`, trying reactions in `order`
    /// (indices into `reactions`): [`Self::find_any_fast`] with fresh
    /// scratch.
    pub fn find_any<S: MatchSource>(
        &self,
        order: &[usize],
        bag: &S,
        rng: Option<&mut ChaCha8Rng>,
    ) -> Result<Option<Firing>, MatchError> {
        self.find_any_fast(order, bag, rng, &mut SearchScratch::new())
    }

    /// Find any enabled firing in `bag`, trying reactions in `order`,
    /// with reusable `scratch` so a long run allocates nothing per probe.
    pub fn find_any_fast<S: MatchSource>(
        &self,
        order: &[usize],
        bag: &S,
        mut rng: Option<&mut ChaCha8Rng>,
        scratch: &mut SearchScratch,
    ) -> Result<Option<Firing>, MatchError> {
        for &i in order {
            if let Some(f) =
                self.reactions[i].find_match_fast(i, bag, rng.as_deref_mut(), scratch)?
            {
                return Ok(Some(f));
            }
        }
        Ok(None)
    }
}

/// Helper: build a pattern like the paper writes them. See [`Pattern`] for
/// the underlying constructors.
pub fn pat(value_var: &str, label: &str, tag_var: &str) -> Pattern {
    Pattern::tagged(value_var, label, tag_var)
}

/// A [`MatchSource`] that counts the rows a search reads through it:
/// one per label, tag or `(value, count)` row yielded, one per
/// `count_at` and one per `row`. `row_count` reads a length, not a row.
/// The physical indices passed to `row` are logged in call order.
#[cfg(test)]
pub(crate) struct CountingSource<S> {
    pub(crate) inner: S,
    pub(crate) reads: std::cell::Cell<usize>,
    pub(crate) rows_read: std::cell::RefCell<Vec<usize>>,
}

#[cfg(test)]
impl<S: MatchSource> CountingSource<S> {
    pub(crate) fn new(inner: S) -> CountingSource<S> {
        CountingSource {
            inner,
            reads: std::cell::Cell::new(0),
            rows_read: std::cell::RefCell::new(Vec::new()),
        }
    }

    fn read(&self, rows: usize) {
        self.reads.set(self.reads.get() + rows);
    }
}

#[cfg(test)]
impl<S: MatchSource> MatchSource for CountingSource<S> {
    fn all_labels(&self) -> Vec<Symbol> {
        let out = self.inner.all_labels();
        self.read(out.len());
        out
    }
    fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
        let out = self.inner.tags_for_label(label);
        self.read(out.len());
        out
    }
    fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
        let out = self.inner.values_at(label, tag);
        self.read(out.len());
        out
    }
    fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
        self.read(1);
        self.inner.count_at(label, tag, value)
    }
    fn visit_labels(&self, f: &mut dyn FnMut(Symbol) -> bool) {
        self.inner.visit_labels(&mut |l| {
            self.read(1);
            f(l)
        });
    }
    fn visit_tags(&self, label: Symbol, f: &mut dyn FnMut(Tag) -> bool) {
        self.inner.visit_tags(label, &mut |t| {
            self.read(1);
            f(t)
        });
    }
    fn visit_values(&self, label: Symbol, tag: Tag, f: &mut dyn FnMut(&Value, usize) -> bool) {
        self.inner.visit_values(label, tag, &mut |v, c| {
            self.read(1);
            f(v, c)
        });
    }
    fn visit_value_ids(
        &self,
        label: Symbol,
        tag: Tag,
        f: &mut dyn FnMut(ElemId, &Value, usize) -> bool,
    ) {
        self.inner.visit_value_ids(label, tag, &mut |id, v, c| {
            self.read(1);
            f(id, v, c)
        });
    }
    fn row_count(&self, label: Symbol, tag: Tag) -> usize {
        self.inner.row_count(label, tag)
    }
    fn row(&self, label: Symbol, tag: Tag, i: usize) -> Option<(Value, usize)> {
        self.read(1);
        self.rows_read.borrow_mut().push(i);
        self.inner.row(label, tag, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::spec::{ElementSpec, Pattern, ReactionSpec};
    use gammaflow_multiset::value::{BinOp, CmpOp};
    use rand::SeedableRng;

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    fn compile(r: ReactionSpec) -> CompiledReaction {
        CompiledReaction::compile(&r).unwrap()
    }

    #[test]
    fn matches_paper_r1() {
        let r1 = compile(
            ReactionSpec::new("R1")
                .replace(Pattern::pair("id1", "A1"))
                .replace(Pattern::pair("id2", "B1"))
                .by(vec![ElementSpec::pair(
                    Expr::bin(BinOp::Add, Expr::var("id1"), Expr::var("id2")),
                    "B2",
                )]),
        );
        let bag: ElementBag = [e(1, "A1", 0), e(5, "B1", 0)].into_iter().collect();
        let firing = r1.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(firing.consumed, vec![e(1, "A1", 0), e(5, "B1", 0)]);
        assert_eq!(firing.produced, vec![e(6, "B2", 0)]);
    }

    #[test]
    fn no_match_when_operand_missing() {
        let r1 = compile(
            ReactionSpec::new("R1")
                .replace(Pattern::pair("id1", "A1"))
                .replace(Pattern::pair("id2", "B1"))
                .by(vec![ElementSpec::pair(Expr::var("id1"), "B2")]),
        );
        let bag: ElementBag = [e(1, "A1", 0)].into_iter().collect();
        assert_eq!(r1.find_match(0, &bag, None).unwrap(), None);
    }

    #[test]
    fn shared_tag_variable_requires_equal_tags() {
        let r = compile(
            ReactionSpec::new("R")
                .replace(Pattern::tagged("a", "X", "v"))
                .replace(Pattern::tagged("b", "Y", "v"))
                .by(vec![ElementSpec::tagged(Expr::var("a"), "Z", "v")]),
        );
        // Different tags: no match.
        let bag: ElementBag = [e(1, "X", 0), e(2, "Y", 1)].into_iter().collect();
        assert_eq!(r.find_match(0, &bag, None).unwrap(), None);
        // Matching tags on iteration 1 only.
        let bag: ElementBag = [e(1, "X", 0), e(2, "Y", 1), e(3, "X", 1)]
            .into_iter()
            .collect();
        let f = r.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(f.consumed, vec![e(3, "X", 1), e(2, "Y", 1)]);
        assert_eq!(f.produced, vec![e(3, "Z", 1)]);
    }

    #[test]
    fn where_condition_gates_firing() {
        // Eq. (2): replace x, y by x where x < y — the paper's min program.
        let r = compile(
            ReactionSpec::new("min")
                .replace(Pattern::pair("x", "n"))
                .replace(Pattern::pair("y", "n"))
                .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::var("y")))
                .by(vec![ElementSpec::pair(Expr::var("x"), "n")]),
        );
        let bag: ElementBag = [e(4, "n", 0), e(7, "n", 0)].into_iter().collect();
        let f = r.find_match(0, &bag, None).unwrap().unwrap();
        // Must have selected x=4, y=7 (the only orientation where x < y).
        assert_eq!(f.produced, vec![e(4, "n", 0)]);
        // Equal elements never satisfy x < y.
        let bag: ElementBag = [e(4, "n", 0), e(4, "n", 0)].into_iter().collect();
        assert_eq!(r.find_match(0, &bag, None).unwrap(), None);
    }

    #[test]
    fn same_element_not_consumed_twice_beyond_multiplicity() {
        let r = compile(
            ReactionSpec::new("pairup")
                .replace(Pattern::pair("x", "n"))
                .replace(Pattern::pair("y", "n"))
                .by(vec![ElementSpec::pair(
                    Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("y")),
                    "s",
                )]),
        );
        // Only one occurrence of [3,'n']: the 2-ary reaction must not match.
        let bag: ElementBag = [e(3, "n", 0)].into_iter().collect();
        assert_eq!(r.find_match(0, &bag, None).unwrap(), None);
        // Two occurrences: fires, consuming both.
        let bag: ElementBag = [e(3, "n", 0), e(3, "n", 0)].into_iter().collect();
        let f = r.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(f.produced, vec![e(6, "s", 0)]);
    }

    #[test]
    fn steer_if_else_selects_clause() {
        // Paper's R16 shape.
        let r16 = compile(
            ReactionSpec::new("R16")
                .replace(Pattern::tagged("id1", "B13", "v"))
                .replace(Pattern::tagged("id2", "B15", "v"))
                .by_if(
                    vec![ElementSpec::tagged(Expr::var("id1"), "B17", "v")],
                    Expr::cmp(CmpOp::Eq, Expr::var("id2"), Expr::int(1)),
                )
                .by_else(vec![]),
        );
        // True control signal: produce B17.
        let bag: ElementBag = [e(10, "B13", 2), e(1, "B15", 2)].into_iter().collect();
        let f = r16.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(f.clause, 0);
        assert_eq!(f.produced, vec![e(10, "B17", 2)]);
        // False: fires but produces nothing (`by 0 else`).
        let bag: ElementBag = [e(10, "B13", 2), e(0, "B15", 2)].into_iter().collect();
        let f = r16.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(f.clause, 1);
        assert!(f.produced.is_empty());
    }

    #[test]
    fn inctag_one_of_and_label_var() {
        // Paper's R11: replace [id1,x,v] by [id1,'A12',v+1]
        //              if (x=='A1') or (x=='A11')
        let r11 = compile(
            ReactionSpec::new("R11")
                .replace(Pattern::one_of("id1", "x", &["A1", "A11"], "v"))
                .by(vec![ElementSpec::inc_tagged(Expr::var("id1"), "A12", "v")]),
        );
        let bag: ElementBag = [e(5, "A11", 3)].into_iter().collect();
        let f = r11.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(f.consumed, vec![e(5, "A11", 3)]);
        assert_eq!(f.produced, vec![e(5, "A12", 4)]);
        // Non-member label never matches.
        let bag: ElementBag = [e(5, "B1", 3)].into_iter().collect();
        assert_eq!(r11.find_match(0, &bag, None).unwrap(), None);
    }

    #[test]
    fn if_without_else_disables_when_false() {
        let r = compile(
            ReactionSpec::new("gate")
                .replace(Pattern::pair("x", "in"))
                .by_if(
                    vec![ElementSpec::pair(Expr::var("x"), "out")],
                    Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::int(0)),
                ),
        );
        let bag: ElementBag = [e(-3, "in", 0)].into_iter().collect();
        assert_eq!(r.find_match(0, &bag, None).unwrap(), None);
        let bag: ElementBag = [e(3, "in", 0)].into_iter().collect();
        assert!(r.find_match(0, &bag, None).unwrap().is_some());
    }

    #[test]
    fn action_division_by_zero_is_error() {
        let r = compile(
            ReactionSpec::new("div")
                .replace(Pattern::pair("x", "in"))
                .by(vec![ElementSpec::pair(
                    Expr::bin(BinOp::Div, Expr::int(1), Expr::var("x")),
                    "out",
                )]),
        );
        let bag: ElementBag = [e(0, "in", 0)].into_iter().collect();
        assert!(matches!(
            r.find_match(0, &bag, None),
            Err(MatchError::Action { .. })
        ));
    }

    #[test]
    fn condition_type_error_means_not_enabled() {
        // Condition compares an int to a string: unevaluable, so the
        // reaction is simply never enabled (no panic, no error).
        let r = compile(
            ReactionSpec::new("odd")
                .replace(Pattern::pair("x", "in"))
                .where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::str("zzz")))
                .by(vec![ElementSpec::pair(Expr::var("x"), "out")]),
        );
        let bag: ElementBag = [e(1, "in", 0)].into_iter().collect();
        assert_eq!(r.find_match(0, &bag, None).unwrap(), None);
    }

    #[test]
    fn seeded_matching_is_reproducible() {
        let r = compile(
            ReactionSpec::new("pick")
                .replace(Pattern::pair("x", "n"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "out")]),
        );
        let bag: ElementBag = (0..50).map(|i| e(i, "n", 0)).collect();
        let pick = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            r.find_match(0, &bag, Some(&mut rng))
                .unwrap()
                .unwrap()
                .consumed[0]
                .clone()
        };
        assert_eq!(pick(7), pick(7));
        // Different seeds eventually pick different elements.
        let distinct = (0..10).map(pick).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "shuffling should vary selection");
    }

    /// A `'v'` bucket of `dead.len()` rows, the flagged ones emptied
    /// again. Emptied rows stay in place as dead rows until they
    /// outnumber both the live rows and 8 (bucket compaction).
    fn bucket_with_dead_rows(dead: &[bool]) -> ElementBag {
        let mut bag: ElementBag = (0..dead.len() as i64).map(|v| e(v, "v", 0)).collect();
        for (v, _) in dead.iter().enumerate().filter(|(_, &d)| d) {
            bag.remove(&e(v as i64, "v", 0));
        }
        bag
    }

    /// Unary reaction over `'v'`, accepting every value or none.
    fn take_v(accept: bool) -> CompiledReaction {
        let r = ReactionSpec::new("take").replace(Pattern::pair("x", "v"));
        let r = if accept {
            r
        } else {
            r.where_(Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::int(0)))
        };
        compile(r.by(vec![]))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The lazy order reads every physical row exactly once when all
        /// candidates are rejected, so every live row is reachable; with
        /// every candidate accepted, the selection is the first live row
        /// in that order — dead rows are skipped, never selected.
        #[test]
        fn lazy_order_visits_each_live_row_once(
            dead in proptest::collection::vec(proptest::any::<bool>(), 1..40),
            seed in 0u64..1_000_000,
        ) {
            let bag = bucket_with_dead_rows(&dead);
            let (label, tag) = (Symbol::intern("v"), Tag::ZERO);
            let rows = bag.row_count(label, tag);
            let live: Vec<usize> = (0..rows)
                .filter(|&i| bag.row(label, tag, i).unwrap().1 > 0)
                .collect();

            let src = CountingSource::new(bag.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_eq!(take_v(false).find_match(0, &src, Some(&mut rng)), Ok(None));
            let mut order = src.rows_read.borrow().clone();
            order.sort_unstable();
            assert_eq!(order, (0..rows).collect::<Vec<_>>());

            let src = CountingSource::new(bag.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let firing = take_v(true).find_match(0, &src, Some(&mut rng)).unwrap();
            let first_live = src.rows_read.borrow().iter().copied().find(|i| live.contains(i));
            let picked = firing.map(|f| f.consumed[0].value.clone());
            assert_eq!(picked, first_live.map(|i| bag.row(label, tag, i).unwrap().0));
        }
    }

    /// A source with only the required methods: rows come from the
    /// `row_count`/`row` defaults over `values_at`.
    struct ValuesOnly(ElementBag);

    impl MatchSource for ValuesOnly {
        fn all_labels(&self) -> Vec<Symbol> {
            self.0.all_labels()
        }
        fn tags_for_label(&self, label: Symbol) -> Vec<Tag> {
            self.0.tags_for_label(label)
        }
        fn values_at(&self, label: Symbol, tag: Tag) -> Vec<(Value, usize)> {
            self.0.values_at(label, tag)
        }
        fn count_at(&self, label: Symbol, tag: Tag, value: &Value) -> usize {
            self.0.count_at(label, tag, value)
        }
    }

    #[test]
    fn default_row_access_reads_live_pairs() {
        let dead = [true, false, true, false, false];
        let src = ValuesOnly(bucket_with_dead_rows(&dead));
        let (label, tag) = (Symbol::intern("v"), Tag::ZERO);
        assert_eq!(src.row_count(label, tag), 3);
        assert_eq!(src.row(label, tag, 0), Some((Value::Int(1), 1)));
        assert_eq!(src.row(label, tag, 3), None);
        let mut picked = Vec::new();
        for seed in 0..64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_eq!(take_v(false).find_match(0, &src, Some(&mut rng)), Ok(None));
            let f = take_v(true).find_match(0, &src, Some(&mut rng)).unwrap();
            picked.push(f.unwrap().consumed[0].value.as_int().unwrap());
        }
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked, vec![1, 3, 4]);
    }

    #[test]
    fn lazy_order_first_candidate_is_uniform_over_live_rows() {
        // 10 physical rows, 4 of them dead.
        let dead = [
            false, true, false, false, true, true, false, false, true, false,
        ];
        let bag = bucket_with_dead_rows(&dead);
        assert_eq!(bag.row_count(Symbol::intern("v"), Tag::ZERO), 10);
        let r = take_v(true);
        let mut hits = [0usize; 10];
        let seeds = 4000;
        for seed in 0..seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let f = r.find_match(0, &bag, Some(&mut rng)).unwrap().unwrap();
            hits[f.consumed[0].value.as_int().unwrap() as usize] += 1;
        }
        let p = 1.0 / 6.0;
        let mean = seeds as f64 * p;
        let sigma = (seeds as f64 * p * (1.0 - p)).sqrt();
        for (row, &n) in hits.iter().enumerate() {
            if dead[row] {
                assert_eq!(n, 0, "dead row {row} selected");
            } else {
                let dev = (n as f64 - mean).abs();
                assert!(
                    dev <= 4.0 * sigma,
                    "row {row}: {n} of {seeds}, mean {mean:.0}"
                );
            }
        }
    }

    #[test]
    fn guard_plan_pushes_conjuncts_to_earliest_level() {
        // 3-ary reaction, literal labels so join order == replace order.
        // where a > 0 and a < b and b < c
        let r = compile(
            ReactionSpec::new("chain")
                .replace(Pattern::pair("a", "e1"))
                .replace(Pattern::pair("b", "e2"))
                .replace(Pattern::pair("c", "e3"))
                .where_(Expr::and(
                    Expr::and(
                        Expr::cmp(CmpOp::Gt, Expr::var("a"), Expr::int(0)),
                        Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("b")),
                    ),
                    Expr::cmp(CmpOp::Lt, Expr::var("b"), Expr::var("c")),
                ))
                .by(vec![ElementSpec::pair(Expr::var("a"), "out")]),
        );
        let plan = r.guard_plan();
        let sizes: Vec<usize> = plan.level_conjuncts.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1], "one conjunct per join level");
        assert_eq!(plan.level_conjuncts[0][0].to_string(), "a > 0");
        assert_eq!(plan.level_conjuncts[1][0].to_string(), "a < b");
        assert_eq!(plan.level_conjuncts[2][0].to_string(), "b < c");
        assert!(plan.clause_disjunction.is_none());
    }

    #[test]
    fn planner_orders_positions_by_guard_coverage() {
        // where f(a, c) only: the old selectivity-only planner kept
        // replace order (a, b, c) and the conjunct bound at the terminal
        // level; the guard-coverage planner joins c second so the
        // conjunct filters the beta memory before b's cross product.
        let r = compile(
            ReactionSpec::new("skip")
                .replace(Pattern::pair("a", "e1"))
                .replace(Pattern::pair("b", "e2"))
                .replace(Pattern::pair("c", "e3"))
                .where_(Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("c")))
                .by(vec![ElementSpec::pair(Expr::var("a"), "out")]),
        );
        assert_eq!(r.join_order(), &[0, 2, 1]);
        let plan = r.guard_plan();
        let sizes: Vec<usize> = plan.level_conjuncts.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![0, 1, 0], "conjunct bound at level 1, not 2");
        // Search results are unchanged in content, only found via the
        // planned order.
        let bag: ElementBag = [e(1, "e1", 0), e(7, "e2", 0), e(5, "e3", 0)]
            .into_iter()
            .collect();
        let f = r.find_match(0, &bag, None).unwrap().unwrap();
        assert_eq!(
            f.consumed,
            vec![e(1, "e1", 0), e(7, "e2", 0), e(5, "e3", 0)],
            "consumed stays in replace-list order"
        );
    }

    #[test]
    fn planner_prefers_selective_labels_on_guard_ties() {
        // No guard distinctions: the wildcard position joins last, as the
        // selectivity-only planner would have ordered it.
        use crate::spec::{LabelPat, TagPat, ValuePat};
        let any = Pattern {
            value: ValuePat::Var(Symbol::intern("w")),
            label: LabelPat::Var(Symbol::intern("l")),
            tag: TagPat::Any,
        };
        let r = compile(
            ReactionSpec::new("mix")
                .replace(any)
                .replace(Pattern::pair("x", "e1"))
                .by(vec![]),
        );
        assert_eq!(r.join_order(), &[1, 0]);
    }

    #[test]
    fn explain_plan_shows_levels_and_pushed_guards() {
        let r = compile(
            ReactionSpec::new("chain")
                .replace(Pattern::pair("a", "e1"))
                .replace(Pattern::pair("b", "e2"))
                .where_(Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("b")))
                .by(vec![ElementSpec::pair(Expr::var("a"), "out")]),
        );
        let plan = r.explain_plan();
        assert!(plan.contains("reaction chain (arity 2):"), "{plan}");
        assert!(
            plan.contains("level 0: position 0 ('e1')  materialised\n"),
            "{plan}"
        );
        assert!(plan.contains("materialised (pushes a < b)\n"), "{plan}");
    }

    #[test]
    fn guard_plan_keeps_unsafe_and_whole() {
        // `x and (x < 5)`: integer left operand — must stay one terminal
        // conjunct (bitwise `and` + truthiness, not logical conjunction).
        let r = compile(
            ReactionSpec::new("bitand")
                .replace(Pattern::pair("x", "n"))
                .where_(Expr::and(
                    Expr::var("x"),
                    Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::int(5)),
                ))
                .by(vec![]),
        );
        let plan = r.guard_plan();
        assert_eq!(plan.level_conjuncts[0].len(), 1);
    }

    #[test]
    fn guard_plan_extracts_clause_disjunction() {
        // All clauses if-guarded: enabledness needs the disjunction.
        let gated = compile(
            ReactionSpec::new("gate")
                .replace(Pattern::pair("x", "in"))
                .by_if(
                    vec![ElementSpec::pair(Expr::var("x"), "out")],
                    Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::int(0)),
                ),
        );
        let plan = gated.guard_plan();
        assert_eq!(plan.clause_disjunction.as_ref().map(Vec::len), Some(1));
        // An else clause makes the chain total: no disjunction filter.
        let total = compile(
            ReactionSpec::new("total")
                .replace(Pattern::pair("x", "in"))
                .by_if(
                    vec![ElementSpec::pair(Expr::var("x"), "out")],
                    Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::int(0)),
                )
                .by_else(vec![]),
        );
        assert!(total.guard_plan().clause_disjunction.is_none());
    }

    #[test]
    fn find_any_respects_order() {
        let prog = GammaProgram::new(vec![
            ReactionSpec::new("first")
                .replace(Pattern::pair("x", "n"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "a")]),
            ReactionSpec::new("second")
                .replace(Pattern::pair("x", "n"))
                .by(vec![ElementSpec::pair(Expr::var("x"), "b")]),
        ]);
        let compiled = CompiledProgram::compile(&prog).unwrap();
        let bag: ElementBag = [e(1, "n", 0)].into_iter().collect();
        let f = compiled.find_any(&[1, 0], &bag, None).unwrap().unwrap();
        assert_eq!(f.reaction, 1);
        let f = compiled.find_any(&[0, 1], &bag, None).unwrap().unwrap();
        assert_eq!(f.reaction, 0);
    }
}
