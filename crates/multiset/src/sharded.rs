//! Concurrent sharded multiset for the parallel Gamma interpreter.
//!
//! The Γ operator lets reactions fire "freely and in parallel" over disjoint
//! sub-multisets. A shared-memory realisation needs two things, and its
//! wave recovery a third:
//!
//! 1. **Atomic claims** — a worker must consume its matched tuple and insert
//!    the products without another worker consuming the same occurrences.
//!    [`ShardedBag::claim_and_replace`] locks the affected shards in index
//!    order (deadlock-free) and performs the Γ step `(M − x⃗) + A(x⃗)` as one
//!    critical section.
//! 2. **Quiescence detection** — execution ends at the paper's "global
//!    termination state": no reaction condition holds anywhere. A monotonic
//!    [`version`](ShardedBag::version) counter, bumped on every successful
//!    claim, lets workers detect "I scanned everything and nothing changed
//!    meanwhile", the classic scan-version protocol.
//! 3. **An undo journal** — while a journal is open, every committed claim
//!    records its edits as arena ids in the shards it locked, under the
//!    same locks. [`ShardedBag::rollback_journal`] undoes them, restoring
//!    the multiset the journal was opened on; the cost is O(claims), not
//!    O(|M|). The parallel engine opens one per wave as its replay point.
//!
//! Shards are `CachePadded` to avoid false sharing between worker threads
//! (Rust Atomics & Locks, ch. 7).

use crate::arena::ElemId;
use crate::element::{Element, Tag};
use crate::fxhash;
use crate::indexed::ElementBag;
use crate::symbol::Symbol;
use crossbeam_utils_shim::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// `crossbeam_utils::CachePadded` without forcing the dependency on every
// consumer of this crate: a minimal local re-implementation. 128-byte
// alignment covers the spatial-prefetcher pairing on modern x86 and the
// cache line of aarch64 big cores.
mod crossbeam_utils_shim {
    /// Pads and aligns a value to 128 bytes to defeat false sharing.
    #[repr(align(128))]
    #[derive(Debug, Default)]
    pub struct CachePadded<T>(pub T);

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }
    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}

/// Which of `num_shards` shards (a power of two) the `(label, tag)` key
/// lives in. Exposed as a free function so consumers that partition the
/// same alpha space — the parallel Gamma engine assigns each worker a
/// slice of `(label, tag)` keys — agree with [`ShardedBag::shard_of`]
/// without holding a bag.
#[inline]
pub fn shard_index(label: Symbol, tag: Tag, num_shards: usize) -> usize {
    debug_assert!(num_shards.is_power_of_two());
    let key = ((label.index() as u64) << 32) ^ tag.0;
    (fxhash::hash_u64(key) & (num_shards as u64 - 1)) as usize
}

/// One shard: its part of the multiset and its part of the undo journal,
/// guarded by one lock.
#[derive(Default)]
struct Shard {
    bag: ElementBag,
    journal: Journal,
}

/// A shard's undo records: the ids its claims removed and inserted while
/// the journal `epoch` was open. Records of an older epoch belong to a
/// closed journal; the next record in the shard discards them.
#[derive(Default)]
struct Journal {
    epoch: u64,
    removed: Vec<ElemId>,
    inserted: Vec<ElemId>,
}

impl Journal {
    /// The records of journal `epoch`, dropping a closed journal's.
    fn at(&mut self, epoch: u64) -> &mut Journal {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.removed.clear();
            self.inserted.clear();
        }
        self
    }
}

/// A locked shard, read as its [`ElementBag`] (see
/// [`ShardedBag::lock_all`]).
pub struct ShardGuard<'a>(MutexGuard<'a, Shard>);

impl std::ops::Deref for ShardGuard<'_> {
    type Target = ElementBag;
    fn deref(&self) -> &ElementBag {
        &self.0.bag
    }
}

/// A sharded, internally synchronised multiset of [`Element`]s.
pub struct ShardedBag {
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    version: AtomicU64,
    len: AtomicUsize,
    /// The epoch of the open undo journal, if one is open.
    journal: Option<u64>,
    /// Journals opened so far; the next one gets epoch `epochs + 1`.
    epochs: u64,
}

impl ShardedBag {
    /// Create a bag with at least `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| CachePadded(Mutex::new(Shard::default())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedBag {
            shards,
            version: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            journal: None,
            epochs: 0,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `(label, tag)` lives in. All occurrences of a given
    /// `(label, tag)` key are co-located, so single-bucket scans touch one
    /// lock.
    #[inline]
    pub fn shard_of(&self, label: Symbol, tag: Tag) -> usize {
        shard_index(label, tag, self.shards.len())
    }

    /// Monotonic mutation counter. Bumped after every successful
    /// [`claim_and_replace`](Self::claim_and_replace) and every insert.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Total element count. Exact when quiescent; momentarily stale while
    /// claims are in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if no elements are present (subject to the same staleness as
    /// [`len`](Self::len)).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a single element. Not journaled.
    pub fn insert(&self, e: Element) {
        let s = self.shard_of(e.label, e.tag);
        self.shards[s].lock().bag.insert(e);
        self.len.fetch_add(1, Ordering::AcqRel);
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Insert many elements (one version bump). Not journaled.
    pub fn insert_all(&self, elems: impl IntoIterator<Item = Element>) {
        let mut n = 0usize;
        for e in elems {
            let s = self.shard_of(e.label, e.tag);
            self.shards[s].lock().bag.insert(e);
            n += 1;
        }
        if n > 0 {
            self.len.fetch_add(n, Ordering::AcqRel);
            self.version.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Atomically perform one Γ step: consume every element of `consumed`
    /// (with multiplicity) and insert every element of `produced`. Returns
    /// `false` — leaving the bag untouched — if any consumed element is
    /// unavailable, which is how optimistic matches lose races. While a
    /// journal is open, each edit is recorded in its shard under the lock
    /// that makes the edit.
    pub fn claim_and_replace(&self, consumed: &[Element], produced: &[Element]) -> bool {
        // Collect the set of shards we must hold, sorted ascending so all
        // claimants acquire locks in the same global order.
        let mut shard_ids: Vec<usize> = consumed
            .iter()
            .chain(produced.iter())
            .map(|e| self.shard_of(e.label, e.tag))
            .collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();

        let mut guards: Vec<MutexGuard<'_, Shard>> = Vec::with_capacity(shard_ids.len());
        for &s in &shard_ids {
            guards.push(self.shards[s].lock());
        }
        let guard_pos = |s: usize| shard_ids.binary_search(&s).expect("shard locked");

        // Availability check with duplicate demand, across shards.
        {
            let mut demand: crate::FxHashMap<&Element, usize> = crate::FxHashMap::default();
            for e in consumed {
                *demand.entry(e).or_insert(0) += 1;
            }
            for (e, need) in demand {
                let g = &guards[guard_pos(self.shard_of(e.label, e.tag))];
                if g.bag.count(e) < need {
                    return false;
                }
            }
        }

        for e in consumed {
            let g = &mut guards[guard_pos(self.shard_of(e.label, e.tag))];
            let id = ElemId::lookup(e).expect("an available element is interned");
            let removed = g.bag.remove_id(id, e.tag);
            debug_assert!(removed, "availability was just checked");
            if let Some(epoch) = self.journal {
                g.journal.at(epoch).removed.push(id);
            }
        }
        for e in produced {
            let g = &mut guards[guard_pos(self.shard_of(e.label, e.tag))];
            let id = ElemId::intern(e);
            g.bag.insert_id(id, 1);
            if let Some(epoch) = self.journal {
                g.journal.at(epoch).inserted.push(id);
            }
        }
        drop(guards);

        if produced.len() >= consumed.len() {
            self.len
                .fetch_add(produced.len() - consumed.len(), Ordering::AcqRel);
        } else {
            self.len
                .fetch_sub(consumed.len() - produced.len(), Ordering::AcqRel);
        }
        self.version.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Open an undo journal, closing any open one: from now on every
    /// committed [`claim_and_replace`](Self::claim_and_replace) is
    /// recorded, as ids, until [`close_journal`](Self::close_journal) or
    /// [`rollback_journal`](Self::rollback_journal). Inserts and drains
    /// are not recorded, so a rollback restores the opening multiset only
    /// if claims were its sole edits. O(1): a closed journal's records are
    /// dropped lazily, by the next record in their shard.
    pub fn open_journal(&mut self) {
        self.epochs += 1;
        self.journal = Some(self.epochs);
    }

    /// Stop recording and drop the open journal's records.
    pub fn close_journal(&mut self) {
        self.journal = None;
    }

    /// Undo every claim the open journal recorded, then close it. Multiset
    /// edits commute, so each shard re-inserts what its claims removed and
    /// then removes what they inserted — an element produced by one claim
    /// and consumed by a later one is re-inserted before it is removed —
    /// and the bag is again the multiset the journal was opened on, with
    /// multiplicities. O(shards + records). Does nothing if no journal is
    /// open.
    pub fn rollback_journal(&mut self) {
        let Some(epoch) = self.journal.take() else {
            return;
        };
        let mut len = 0;
        for shard in self.shards.iter_mut() {
            let Shard { bag, journal } = shard.get_mut();
            if journal.epoch == epoch {
                for &id in &journal.removed {
                    bag.insert_id(id, 1);
                }
                for &id in &journal.inserted {
                    let undone = bag.remove_id(id, id.tag());
                    debug_assert!(undone, "a recorded insert is present until undone");
                }
                journal.removed.clear();
                journal.inserted.clear();
            }
            len += bag.len();
        }
        *self.len.get_mut() = len;
        *self.version.get_mut() += 1;
    }

    /// Run `f` with the shard `i` locked. The workhorse of parallel match
    /// scans: workers iterate shards (starting from different offsets) and
    /// search each local [`ElementBag`] index.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&ElementBag) -> R) -> R {
        f(&self.shards[i].lock().bag)
    }

    /// Lock every shard in index order and return the guards. While the
    /// guards are held the bag is a consistent frozen multiset; searching
    /// through them (see the parallel engine's terminal check) avoids the
    /// O(|M|) clone that [`Self::snapshot`] pays. Lock order matches
    /// [`Self::claim_and_replace`], so holders and claimants cannot
    /// deadlock.
    pub fn lock_all(&self) -> Vec<ShardGuard<'_>> {
        self.shards.iter().map(|s| ShardGuard(s.lock())).collect()
    }

    /// Lock every shard (in order) and produce a consistent snapshot.
    pub fn snapshot(&self) -> ElementBag {
        let guards = self.lock_all();
        let mut out = ElementBag::new();
        for g in &guards {
            for (e, c) in g.iter_counts() {
                out.insert_n(e, c);
            }
        }
        out
    }

    /// Move all contents out, leaving the bag empty. Not journaled.
    pub fn drain(&self) -> ElementBag {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut out = ElementBag::new();
        for g in guards.iter_mut() {
            for (e, c) in g.bag.iter_counts() {
                out.insert_n(e, c);
            }
            g.bag.clear();
        }
        self.len.store(0, Ordering::Release);
        self.version.fetch_add(1, Ordering::AcqRel);
        out
    }
}

impl From<ElementBag> for ShardedBag {
    fn from(bag: ElementBag) -> Self {
        let sharded = ShardedBag::new(16);
        sharded.insert_all(bag.iter());
        sharded
    }
}

// Serialised as `(num_shards, contents)`: the shard layout is a hash
// partition rebuilt on load, so only the shard count and the flattened
// multiset need to survive the process boundary. The version counter
// restarts at the insert bumps of the reload — it is a process-local
// quiescence clock, not persistent state.
impl serde::Serialize for ShardedBag {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.num_shards() as u64, self.snapshot()).serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for ShardedBag {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (shards, contents): (u64, ElementBag) = serde::Deserialize::deserialize(deserializer)?;
        let bag = ShardedBag::new(shards as usize);
        bag.insert_all(contents.iter());
        Ok(bag)
    }
}

impl std::fmt::Debug for ShardedBag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBag")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    #[test]
    fn insert_and_snapshot() {
        let bag = ShardedBag::new(4);
        bag.insert(e(1, "A", 0));
        bag.insert(e(2, "B", 1));
        assert_eq!(bag.len(), 2);
        let snap = bag.snapshot();
        assert!(snap.contains(&e(1, "A", 0)));
        assert!(snap.contains(&e(2, "B", 1)));
    }

    #[test]
    fn claim_success_and_failure() {
        let bag = ShardedBag::new(4);
        bag.insert_all([e(1, "A", 0), e(2, "B", 0)]);
        let v0 = bag.version();
        assert!(bag.claim_and_replace(&[e(1, "A", 0), e(2, "B", 0)], &[e(3, "C", 0)]));
        assert!(bag.version() > v0);
        assert_eq!(bag.len(), 1);
        // Elements are gone now.
        assert!(!bag.claim_and_replace(&[e(1, "A", 0)], &[]));
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn claim_checks_duplicate_demand() {
        let bag = ShardedBag::new(4);
        bag.insert(e(7, "X", 0));
        assert!(!bag.claim_and_replace(&[e(7, "X", 0), e(7, "X", 0)], &[]));
        bag.insert(e(7, "X", 0));
        assert!(bag.claim_and_replace(&[e(7, "X", 0), e(7, "X", 0)], &[]));
        assert_eq!(bag.len(), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedBag::new(0).num_shards(), 1);
        assert_eq!(ShardedBag::new(3).num_shards(), 4);
        assert_eq!(ShardedBag::new(16).num_shards(), 16);
    }

    #[test]
    fn same_key_same_shard() {
        let bag = ShardedBag::new(8);
        let a = bag.shard_of(Symbol::intern("L"), Tag(5));
        let b = bag.shard_of(Symbol::intern("L"), Tag(5));
        assert_eq!(a, b);
    }

    #[test]
    fn free_shard_index_agrees_with_bag() {
        let bag = ShardedBag::new(16);
        for (l, t) in [("L", 0u64), ("M", 7), ("worker", 123), ("n", 42)] {
            let label = Symbol::intern(l);
            assert_eq!(
                shard_index(label, Tag(t), bag.num_shards()),
                bag.shard_of(label, Tag(t))
            );
        }
    }

    #[test]
    fn lock_all_freezes_a_consistent_view() {
        let bag = ShardedBag::new(4);
        bag.insert_all([e(1, "A", 0), e(2, "B", 1), e(2, "B", 1)]);
        let guards = bag.lock_all();
        assert_eq!(guards.len(), bag.num_shards());
        let total: usize = guards.iter().map(|g| g.len()).sum();
        assert_eq!(total, 3);
        drop(guards);
        // Locks released: claims proceed again.
        assert!(bag.claim_and_replace(&[e(1, "A", 0)], &[]));
    }

    #[test]
    fn drain_empties() {
        let bag = ShardedBag::new(4);
        bag.insert_all([e(1, "A", 0), e(2, "A", 0), e(3, "B", 0)]);
        let contents = bag.drain();
        assert_eq!(contents.len(), 3);
        assert_eq!(bag.len(), 0);
        assert!(bag.snapshot().is_empty());
    }

    #[test]
    fn concurrent_claims_never_double_spend() {
        // N tokens, 2N workers each trying to claim one token and produce
        // one receipt; exactly N must succeed.
        let bag = Arc::new(ShardedBag::new(8));
        const N: usize = 100;
        for _ in 0..N {
            bag.insert(e(1, "token", 0));
        }
        let mut handles = Vec::new();
        for i in 0..2 * N {
            let bag = Arc::clone(&bag);
            handles.push(std::thread::spawn(move || {
                bag.claim_and_replace(&[e(1, "token", 0)], &[e(i as i64, "receipt", 0)])
            }));
        }
        let successes = handles
            .into_iter()
            .filter(|_| true)
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(successes, N);
        let snap = bag.snapshot();
        assert_eq!(snap.count_label(Symbol::intern("receipt")), N);
        assert_eq!(snap.count_label(Symbol::intern("token")), 0);
    }

    #[test]
    fn serde_round_trip_preserves_contents_and_layout() {
        let bag = ShardedBag::new(8);
        bag.insert_all([e(1, "A", 0), e(1, "A", 0), e(2, "B", 7)]);
        let json = serde_json::to_string(&bag).unwrap();
        let back: ShardedBag = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_shards(), 8);
        assert_eq!(back.len(), 3);
        assert_eq!(back.snapshot(), bag.snapshot());
    }

    /// Records held by the open journal: one per element a recorded
    /// claim consumed or produced (0 when no journal is open).
    fn journal_len(bag: &ShardedBag) -> usize {
        let Some(epoch) = bag.journal else {
            return 0;
        };
        bag.shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                if shard.journal.epoch == epoch {
                    shard.journal.removed.len() + shard.journal.inserted.len()
                } else {
                    0
                }
            })
            .sum()
    }

    /// Every element of the journal tests' small domain, so per-element
    /// counts can be compared exhaustively.
    fn domain() -> Vec<Element> {
        let mut out = Vec::new();
        for v in 0..4 {
            for l in ["L0", "L1", "L2"] {
                for t in 0..3 {
                    out.push(e(v, l, t));
                }
            }
        }
        out
    }

    fn arb_elem() -> impl Strategy<Value = Element> {
        (0i64..4, 0usize..3, 0u64..3).prop_map(|(v, l, t)| e(v, ["L0", "L1", "L2"][l], t))
    }

    proptest! {
        /// Random claims over a journaled bag — each step consumes up to
        /// two live elements, the first of them a product of the step
        /// before when it made one, and some steps try a claim that must
        /// fail — then a rollback restores the entry multiset exactly.
        #[test]
        fn rollback_restores_the_entry_multiset(
            entry in proptest::collection::vec(arb_elem(), 0..30),
            steps in proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..3, proptest::collection::vec(arb_elem(), 0..3)),
                0..24,
            ),
        ) {
            let mut bag = ShardedBag::new(4);
            bag.insert_all(entry.iter().cloned());
            let before = bag.snapshot();
            bag.open_journal();
            let mut live = entry.clone();
            let mut last_products: Vec<Element> = Vec::new();
            let mut records = 0;
            for (a, b, want, produced) in steps {
                if a % 7 == 0 {
                    prop_assert!(!bag.claim_and_replace(&[e(99, "L0", 0)], &produced));
                }
                let mut consumed = Vec::new();
                if want > 0 {
                    if let Some(p) = last_products.first() {
                        let at = live.iter().position(|x| x == p).expect("a product is live");
                        consumed.push(live.swap_remove(at));
                    }
                }
                for pick in [a, b].into_iter().take(want) {
                    if consumed.len() == want || live.is_empty() {
                        break;
                    }
                    consumed.push(live.swap_remove(pick % live.len()));
                }
                prop_assert!(bag.claim_and_replace(&consumed, &produced));
                records += consumed.len() + produced.len();
                live.extend(produced.iter().cloned());
                last_products = produced;
            }
            prop_assert_eq!(journal_len(&bag), records);
            prop_assert_eq!(bag.len(), live.len());
            bag.rollback_journal();
            prop_assert_eq!(journal_len(&bag), 0);
            let after = bag.snapshot();
            prop_assert_eq!(after.sorted_elements(), before.sorted_elements());
            prop_assert_eq!(bag.len(), entry.len());
            prop_assert_eq!(after.len(), entry.len());
            for x in domain() {
                prop_assert_eq!(after.count(&x), before.count(&x), "{}", x);
            }
        }
    }

    /// One wave's claims — a four-element fold to one sum — journal
    /// exactly Σ(|consumed| + |produced|) records, whether the bag around
    /// them holds 10² or 10⁵ elements: the recovery point costs what the
    /// wave touches, not what the bag holds.
    #[test]
    fn journal_size_is_the_claims_not_the_bag() {
        let claims: Vec<(Vec<Element>, Vec<Element>)> = vec![
            (vec![e(1, "x", 0), e(2, "x", 0)], vec![e(3, "x", 0)]),
            (vec![e(3, "x", 0), e(3, "x", 0)], vec![e(6, "x", 0)]),
            (vec![e(6, "x", 0), e(4, "x", 0)], vec![e(10, "x", 0)]),
        ];
        let expected: usize = claims.iter().map(|(c, p)| c.len() + p.len()).sum();
        assert_eq!(expected, 9);
        for n in [100usize, 100_000] {
            let mut bag = ShardedBag::new(64);
            bag.insert_all((0..n).map(|i| e(i as i64, "bystander", (i % 16) as u64)));
            bag.insert_all([e(1, "x", 0), e(2, "x", 0), e(3, "x", 0), e(4, "x", 0)]);
            bag.open_journal();
            for (consumed, produced) in &claims {
                assert!(bag.claim_and_replace(consumed, produced));
            }
            assert_eq!(journal_len(&bag), expected, "n = {n}");
            assert_eq!(bag.len(), n + 1);
            bag.rollback_journal();
            assert_eq!(bag.len(), n + 4, "n = {n}");
            let x = bag.snapshot();
            for v in 1..=4 {
                assert_eq!(x.count(&e(v, "x", 0)), 1, "n = {n}, value {v}");
            }
            assert_eq!(x.count_label(Symbol::intern("bystander")), n);
        }
    }

    /// A closed journal stops recording, its records never reach the next
    /// journal, and a rollback returns to the state the *open* journal
    /// started from. With no journal open, a rollback does nothing.
    #[test]
    fn journals_are_scoped_to_their_opening() {
        let mut bag = ShardedBag::new(8);
        bag.insert_all([e(1, "A", 0), e(2, "A", 0), e(3, "B", 1)]);
        bag.rollback_journal();
        assert_eq!(bag.len(), 3);
        bag.open_journal();
        assert!(bag.claim_and_replace(&[e(1, "A", 0)], &[e(10, "C", 0)]));
        assert_eq!(journal_len(&bag), 2);
        bag.close_journal();
        assert_eq!(journal_len(&bag), 0);
        assert!(bag.claim_and_replace(&[e(2, "A", 0)], &[e(20, "C", 0)]));
        let reopened = bag.snapshot();
        bag.open_journal();
        assert_eq!(journal_len(&bag), 0, "stale records stay closed");
        assert!(bag.claim_and_replace(&[e(10, "C", 0), e(3, "B", 1)], &[]));
        assert_eq!(journal_len(&bag), 2);
        bag.rollback_journal();
        assert_eq!(bag.snapshot(), reopened);
        assert_eq!(bag.len(), 3);
        bag.rollback_journal();
        assert_eq!(bag.snapshot(), reopened);
    }

    #[test]
    fn version_quiescence_protocol() {
        let bag = ShardedBag::new(2);
        bag.insert(e(1, "A", 0));
        let v = bag.version();
        // Failed claim must not bump the version.
        assert!(!bag.claim_and_replace(&[e(9, "missing", 0)], &[]));
        assert_eq!(bag.version(), v);
        // Successful claim must.
        assert!(bag.claim_and_replace(&[e(1, "A", 0)], &[]));
        assert!(bag.version() > v);
    }
}
