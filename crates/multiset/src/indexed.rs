//! `(label, tag)`-indexed multiset of [`Element`]s over interned payloads.
//!
//! Reaction matching is the performance heart of any Gamma implementation:
//! a k-ary reaction naively scans O(|M|^k) tuples. Algorithm 1's image has a
//! decisive structural property — every consumed position carries a *literal
//! label* and all positions share one tag — so indexing the multiset by
//! `(label, tag)` turns matching into bucket lookups. This mirrors how the
//! waiting–matching store of a tagged-token dataflow machine is keyed, which
//! is itself one facet of the paper's equivalence.
//!
//! Storage is **columnar over the element arena**
//! ([`crate::arena`]): a bucket row is `(payload slot, count, cached
//! payload reference)`, so the bag never owns a `Value` — payloads live
//! once in the per-label arena and every insert beyond the first is a
//! counter bump found by one hash. Bucket rows keep *insertion
//! order*, which makes deterministic-mode match enumeration independent of
//! arena slot numbering (and therefore of what other sessions in the
//! process have interned).

use crate::arena::ElemId;
use crate::bag::HashBag;
use crate::element::{Element, Tag};
use crate::symbol::Symbol;
use crate::value::Value;
use crate::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One `(label, tag)` bucket: counted payload rows in insertion order,
/// keyed by arena slot.
///
/// Iteration order is the order in which payloads last *became present*
/// (a row whose count drops to zero leaves the order entirely; a later
/// re-insert appends like a fresh payload). That makes the order a pure
/// function of the live-content operation sequence — independent of
/// arena slot numbering (so unrelated sessions sharing the process
/// arena can't perturb deterministic traces) and reproduced exactly by
/// a snapshot restore, which re-inserts rows in serialisation order
/// (= this iteration order). Dead rows are compacted away once they
/// dominate, preserving live-row order.
#[derive(Clone)]
pub struct ValueBucket {
    label: Symbol,
    tag: Tag,
    rows: Vec<BucketRow>,
    /// Arena slot → index of the slot's *live* row, if any. Unlinked the
    /// moment a count reaches zero.
    by_slot: FxHashMap<u32, u32>,
    /// Total occurrences (counting multiplicity).
    len: usize,
    /// Rows with a nonzero count.
    live_rows: usize,
    /// Changed every time compaction renumbers rows. Cursors that cache a
    /// physical row index ([`ValueBucket::iter_ids_from`]) compare epochs
    /// to detect that their index went stale and must restart from 0.
    ///
    /// Drawn from a process-global counter (at construction and at every
    /// compaction) rather than counting up from zero: empty buckets are
    /// pruned from the bag index, so a `(label, tag)` bucket can be
    /// dropped and later recreated, and a recreated bucket must never
    /// present an epoch a cursor might have cached from its predecessor.
    epoch: u64,
}

/// Allocator for [`ValueBucket::epoch`] values: every bucket instance and
/// every compaction generation gets a value no other has ever had.
fn next_bucket_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone)]
struct BucketRow {
    slot: u32,
    count: usize,
    /// Cached arena payload — reads are pure pointer derefs, no arena
    /// lock, no shared mutable cache line between workers.
    value: &'static Value,
}

impl ValueBucket {
    fn new(label: Symbol, tag: Tag) -> ValueBucket {
        ValueBucket {
            label,
            tag,
            rows: Vec::new(),
            by_slot: FxHashMap::default(),
            len: 0,
            live_rows: 0,
            epoch: next_bucket_epoch(),
        }
    }

    /// Total occurrences in this bucket, counting multiplicity.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bucket holds no occurrences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct values present.
    #[inline]
    pub fn distinct_len(&self) -> usize {
        self.live_rows
    }

    /// Multiplicity of `value` in this bucket.
    pub fn count(&self, value: &Value) -> usize {
        ElemId::lookup_parts(self.label, value, self.tag).map_or(0, |id| self.count_slot(id.slot()))
    }

    /// Multiplicity of the payload at arena `slot`.
    #[inline]
    pub fn count_slot(&self, slot: u32) -> usize {
        self.by_slot
            .get(&slot)
            .map_or(0, |&r| self.rows[r as usize].count)
    }

    fn insert_slot(&mut self, slot: u32, value: &'static Value, n: usize) {
        match self.by_slot.get(&slot) {
            Some(&r) => self.rows[r as usize].count += n,
            None => {
                self.by_slot.insert(slot, self.rows.len() as u32);
                self.rows.push(BucketRow {
                    slot,
                    count: n,
                    value,
                });
                self.live_rows += 1;
            }
        }
        self.len += n;
    }

    /// Remove one occurrence of the payload at `slot`. Returns `true` if
    /// it was present.
    fn remove_slot(&mut self, slot: u32) -> bool {
        let Some(&r) = self.by_slot.get(&slot) else {
            return false;
        };
        let row = &mut self.rows[r as usize];
        row.count -= 1;
        self.len -= 1;
        if row.count == 0 {
            // The row leaves the enumeration order; a future re-insert
            // appends a fresh row. Snapshots carry only live rows, so
            // this keeps restored enumeration identical to an
            // uninterrupted run's.
            self.by_slot.remove(&slot);
            self.live_rows -= 1;
            self.maybe_compact();
        }
        true
    }

    /// Compact away tombstones once they dominate, preserving relative
    /// row order (so enumeration order stays a function of the op
    /// history, not of when compaction ran — it runs deterministically).
    fn maybe_compact(&mut self) {
        let dead = self.rows.len() - self.live_rows;
        if dead <= 8 || dead <= self.live_rows {
            return;
        }
        self.epoch = next_bucket_epoch();
        self.rows.retain(|row| row.count > 0);
        self.by_slot.clear();
        for (i, row) in self.rows.iter().enumerate() {
            self.by_slot.insert(row.slot, i as u32);
        }
    }

    /// Iterate distinct live values with their multiplicities, in
    /// insertion order. This is the non-allocating accessor the
    /// reaction-match inner loop runs on.
    pub fn iter_counts(&self) -> impl Iterator<Item = (&Value, usize)> + '_ {
        self.rows
            .iter()
            .filter(|row| row.count > 0)
            .map(|row| (row.value, row.count))
    }

    /// Iterate live rows carrying their [`ElemId`]s — the id-first twin
    /// of [`ValueBucket::iter_counts`] the join matcher builds tokens
    /// from (the id is free here; no hashing, no arena access).
    pub fn iter_ids(&self) -> impl Iterator<Item = (ElemId, &Value, usize)> + '_ {
        let label_index = self.label.index();
        self.rows
            .iter()
            .filter(|row| row.count > 0)
            .map(move |row| {
                (
                    ElemId::from_parts(label_index, row.slot),
                    row.value,
                    row.count,
                )
            })
    }

    /// Iterate every occurrence (values with multiplicity `k` appear `k`
    /// times).
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        self.iter_counts()
            .flat_map(|(v, c)| std::iter::repeat_n(v, c))
    }

    /// Compaction generation for this bucket. A physical row index cached
    /// at epoch `e` is valid only while `epoch() == e`; compaction bumps
    /// the epoch and invalidates every outstanding index.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Physical row count, dead rows included: the index space of
    /// [`Self::row`], meaningful only at the current [`Self::epoch`].
    #[inline]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// `(value, count)` at physical row `i`, or `None` past the end. A
    /// dead row reads with count 0. The random-access twin of
    /// [`Self::iter_counts`] that seeded match search draws candidates
    /// through, so a probe costs the rows it tries.
    #[inline]
    pub fn row(&self, i: usize) -> Option<(&Value, usize)> {
        self.rows.get(i).map(|row| (row.value, row.count))
    }

    /// Iterate live rows starting at physical row `start`, yielding the
    /// row index alongside the id/value/count triple.
    ///
    /// This is the resumable twin of [`ValueBucket::iter_ids`] that
    /// frontier cursors use: a scheduler that has already established
    /// that every row before `start` is dead or permanently rejected can
    /// re-enter the scan in O(1) instead of re-walking the prefix. The
    /// yielded index is only meaningful at the current [`Self::epoch`].
    pub fn iter_ids_from(
        &self,
        start: usize,
    ) -> impl Iterator<Item = (usize, ElemId, &Value, usize)> + '_ {
        let label_index = self.label.index();
        self.rows
            .iter()
            .enumerate()
            .skip(start)
            .filter(|(_, row)| row.count > 0)
            .map(move |(i, row)| {
                (
                    i,
                    ElemId::from_parts(label_index, row.slot),
                    row.value,
                    row.count,
                )
            })
    }
}

/// A multiset of `[value, label, tag]` elements with a two-level
/// label → tag → values index over arena-interned payloads.
///
/// Serialised as a `(element, count)` pair list; the index is rebuilt on
/// load (it is derived data, and JSON map keys must be strings) and
/// payloads re-intern into the local process's arena, which is what keeps
/// snapshots portable across processes.
#[derive(Clone, Default)]
pub struct ElementBag {
    index: FxHashMap<Symbol, FxHashMap<Tag, ValueBucket>>,
    len: usize,
}

impl Serialize for ElementBag {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter_counts())
    }
}

impl<'de> Deserialize<'de> for ElementBag {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(Element, usize)> = Vec::deserialize(deserializer)?;
        let mut bag = ElementBag::new();
        for (e, c) in pairs {
            bag.insert_n(e, c);
        }
        Ok(bag)
    }
}

impl ElementBag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of elements, counting multiplicity.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert one occurrence of `e`.
    pub fn insert(&mut self, e: Element) {
        self.insert_ref_n(&e, 1);
    }

    /// Insert `n` occurrences of `e`.
    pub fn insert_n(&mut self, e: Element, n: usize) {
        self.insert_ref_n(&e, n);
    }

    /// Insert one occurrence by reference — no `Value` clone at all when
    /// the payload is already interned (the steady state of every hot
    /// loop).
    pub fn insert_ref(&mut self, e: &Element) {
        self.insert_ref_n(e, 1);
    }

    /// Insert `n` occurrences by reference.
    pub fn insert_ref_n(&mut self, e: &Element, n: usize) {
        if n == 0 {
            return;
        }
        let id = ElemId::intern(e);
        self.insert_id_resolved(id, n);
    }

    /// Insert `n` occurrences of an already-interned payload.
    pub fn insert_id(&mut self, id: ElemId, n: usize) {
        if n == 0 {
            return;
        }
        self.insert_id_resolved(id, n);
    }

    fn insert_id_resolved(&mut self, id: ElemId, n: usize) {
        let (value, tag) = id.resolve();
        let label = id.label();
        self.index
            .entry(label)
            .or_default()
            .entry(*tag)
            .or_insert_with(|| ValueBucket::new(label, *tag))
            .insert_slot(id.slot(), value, n);
        self.len += n;
    }

    /// Multiplicity of `e`.
    pub fn count(&self, e: &Element) -> usize {
        let Some(id) = ElemId::lookup(e) else {
            return 0;
        };
        self.count_id(id, e.tag)
    }

    /// Multiplicity of an interned payload (`tag` avoids an arena
    /// resolve; it must be the id's payload tag).
    #[inline]
    pub fn count_id(&self, id: ElemId, tag: Tag) -> usize {
        self.index
            .get(&id.label())
            .and_then(|tags| tags.get(&tag))
            .map_or(0, |bucket| bucket.count_slot(id.slot()))
    }

    /// True if `e` occurs at least once.
    pub fn contains(&self, e: &Element) -> bool {
        self.count(e) > 0
    }

    /// Remove one occurrence of `e`. Returns `true` if present.
    pub fn remove(&mut self, e: &Element) -> bool {
        let Some(id) = ElemId::lookup(e) else {
            return false;
        };
        self.remove_id(id, e.tag)
    }

    /// Remove one occurrence of an interned payload. Returns `true` if
    /// present (`tag` must be the id's payload tag).
    pub fn remove_id(&mut self, id: ElemId, tag: Tag) -> bool {
        let label = id.label();
        let Some(tags) = self.index.get_mut(&label) else {
            return false;
        };
        let Some(bucket) = tags.get_mut(&tag) else {
            return false;
        };
        if !bucket.remove_slot(id.slot()) {
            return false;
        }
        if bucket.is_empty() {
            tags.remove(&tag);
            if tags.is_empty() {
                self.index.remove(&label);
            }
        }
        self.len -= 1;
        true
    }

    /// Remove one occurrence of each element in `items`, atomically: if any
    /// is unavailable (with multiplicity) nothing is removed and `false` is
    /// returned. The consume half of a Γ step.
    pub fn remove_all(&mut self, items: &[Element]) -> bool {
        // Availability check with duplicate demand, on ids (one payload
        // hash per distinct item, integer keys after).
        let mut ids: Vec<(ElemId, Tag)> = Vec::with_capacity(items.len());
        for e in items {
            let Some(id) = ElemId::lookup(e) else {
                return false;
            };
            ids.push((id, e.tag));
        }
        let mut demand: FxHashMap<ElemId, usize> = FxHashMap::default();
        for &(id, _) in &ids {
            *demand.entry(id).or_insert(0) += 1;
        }
        for (&(id, tag), _) in ids.iter().zip(items) {
            if let Some(&need) = demand.get(&id) {
                if self.count_id(id, tag) < need {
                    return false;
                }
            }
        }
        for (id, tag) in ids {
            let removed = self.remove_id(id, tag);
            debug_assert!(removed);
        }
        true
    }

    /// The value bucket for `(label, tag)`, if any elements are present.
    #[inline]
    pub fn bucket(&self, label: Symbol, tag: Tag) -> Option<&ValueBucket> {
        self.index.get(&label).and_then(|tags| tags.get(&tag))
    }

    /// Number of elements carrying `label` (any tag).
    pub fn count_label(&self, label: Symbol) -> usize {
        self.index
            .get(&label)
            .map_or(0, |tags| tags.values().map(|b| b.len()).sum())
    }

    /// Iterate over the distinct labels currently present.
    pub fn labels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.index.keys().copied()
    }

    /// Iterate over the distinct tags present for `label`.
    pub fn tags_for(&self, label: Symbol) -> impl Iterator<Item = Tag> + '_ {
        self.index
            .get(&label)
            .into_iter()
            .flat_map(|tags| tags.keys().copied())
    }

    /// Iterate over the distinct values in the `(label, tag)` bucket with
    /// their multiplicities, without materialising anything. This is the
    /// non-allocating accessor the reaction-match inner loop runs on: a
    /// probe walks the bucket in insertion order and stops at the
    /// first hit, instead of cloning the whole bucket into a `Vec` first.
    pub fn values_with_counts(
        &self,
        label: Symbol,
        tag: Tag,
    ) -> impl Iterator<Item = (&Value, usize)> + '_ {
        self.bucket(label, tag)
            .into_iter()
            .flat_map(|bucket| bucket.iter_counts())
    }

    /// Iterate over every element occurrence.
    pub fn iter(&self) -> impl Iterator<Item = Element> + '_ {
        self.index.iter().flat_map(|(&label, tags)| {
            tags.iter().flat_map(move |(&tag, bucket)| {
                bucket.iter().map(move |value| Element {
                    value: value.clone(),
                    label,
                    tag,
                })
            })
        })
    }

    /// Iterate over `(element, multiplicity)` pairs.
    pub fn iter_counts(&self) -> impl Iterator<Item = (Element, usize)> + '_ {
        self.index.iter().flat_map(|(&label, tags)| {
            tags.iter().flat_map(move |(&tag, bucket)| {
                bucket.iter_counts().map(move |(value, c)| {
                    (
                        Element {
                            value: value.clone(),
                            label,
                            tag,
                        },
                        c,
                    )
                })
            })
        })
    }

    /// The sub-multiset of elements whose label passes `keep`, as a new bag.
    /// Used to project final multisets onto output labels for equivalence
    /// comparison.
    pub fn project(&self, mut keep: impl FnMut(Symbol) -> bool) -> ElementBag {
        let mut out = ElementBag::new();
        for (e, c) in self.iter_counts() {
            if keep(e.label) {
                out.insert_n(e, c);
            }
        }
        out
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.index.clear();
        self.len = 0;
    }

    /// Merge another bag into this one.
    pub fn absorb(&mut self, other: ElementBag) {
        for (e, c) in other.iter_counts() {
            self.insert_n(e, c);
        }
    }

    /// Convert to a plain [`HashBag`] of elements (loses the index).
    pub fn to_hash_bag(&self) -> HashBag<Element> {
        let mut bag = HashBag::with_capacity(self.len);
        for (e, c) in self.iter_counts() {
            bag.insert_n(e, c);
        }
        bag
    }

    /// Deterministic sorted listing, for snapshot tests and display.
    pub fn sorted_elements(&self) -> Vec<Element> {
        let mut v: Vec<Element> = self.iter().collect();
        v.sort();
        v
    }
}

impl PartialEq for ElementBag {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        self.iter_counts().all(|(e, c)| other.count(&e) == c)
    }
}
impl Eq for ElementBag {}

impl FromIterator<Element> for ElementBag {
    fn from_iter<I: IntoIterator<Item = Element>>(iter: I) -> Self {
        let mut bag = ElementBag::new();
        for e in iter {
            bag.insert(e);
        }
        bag
    }
}

impl Extend<Element> for ElementBag {
    fn extend<I: IntoIterator<Item = Element>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl fmt::Debug for ElementBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ElementBag{}", self)
    }
}

impl fmt::Display for ElementBag {
    /// Paper-style `{[1,'A1'], [5,'B1']}` rendering, sorted for determinism.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.sorted_elements().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    #[test]
    fn insert_and_bucket_lookup() {
        let mut bag = ElementBag::new();
        bag.insert(e(1, "A1", 0));
        bag.insert(e(5, "B1", 0));
        bag.insert(e(5, "B1", 0));
        bag.insert(e(7, "B1", 3));
        assert_eq!(bag.len(), 4);
        let b = bag.bucket(Symbol::intern("B1"), Tag(0)).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.count(&Value::int(5)), 2);
        assert_eq!(bag.count_label(Symbol::intern("B1")), 3);
    }

    #[test]
    fn remove_cleans_empty_buckets() {
        let mut bag = ElementBag::new();
        bag.insert(e(1, "X", 0));
        assert!(bag.remove(&e(1, "X", 0)));
        assert!(bag.is_empty());
        assert!(bag.bucket(Symbol::intern("X"), Tag(0)).is_none());
        assert_eq!(bag.labels().count(), 0);
    }

    #[test]
    fn remove_all_atomicity() {
        let mut bag: ElementBag = [e(1, "A", 0), e(2, "B", 0)].into_iter().collect();
        assert!(!bag.remove_all(&[e(1, "A", 0), e(9, "C", 0)]));
        assert_eq!(bag.len(), 2);
        assert!(bag.remove_all(&[e(1, "A", 0), e(2, "B", 0)]));
        assert!(bag.is_empty());
    }

    #[test]
    fn remove_all_duplicate_demand() {
        let mut bag: ElementBag = [e(1, "A", 0)].into_iter().collect();
        assert!(!bag.remove_all(&[e(1, "A", 0), e(1, "A", 0)]));
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn remove_all_of_never_interned_element_is_clean() {
        let mut bag: ElementBag = [e(1, "A", 0)].into_iter().collect();
        // An element nobody ever interned: lookup misses, nothing removed,
        // and the failed probe must not grow the arena.
        let absent = e(987_654_321, "never-interned-indexed", 3);
        assert!(!bag.remove_all(&[e(1, "A", 0), absent.clone()]));
        assert_eq!(bag.len(), 1);
        assert_eq!(bag.count(&absent), 0);
        assert!(!bag.remove(&absent));
    }

    #[test]
    fn tags_are_isolated() {
        let mut bag = ElementBag::new();
        bag.insert(e(1, "A", 0));
        bag.insert(e(1, "A", 1));
        assert_eq!(bag.bucket(Symbol::intern("A"), Tag(0)).unwrap().len(), 1);
        assert_eq!(bag.bucket(Symbol::intern("A"), Tag(1)).unwrap().len(), 1);
        let mut tags: Vec<Tag> = bag.tags_for(Symbol::intern("A")).collect();
        tags.sort();
        assert_eq!(tags, vec![Tag(0), Tag(1)]);
    }

    #[test]
    fn projection_filters_labels() {
        let bag: ElementBag = [e(1, "keep", 0), e(2, "drop", 0), e(3, "keep", 1)]
            .into_iter()
            .collect();
        let keep = Symbol::intern("keep");
        let p = bag.project(|l| l == keep);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&e(1, "keep", 0)));
        assert!(p.contains(&e(3, "keep", 1)));
    }

    #[test]
    fn display_matches_paper_style() {
        let bag: ElementBag = [e(1, "A1", 0), e(5, "B1", 0)].into_iter().collect();
        assert_eq!(bag.to_string(), "{[1,'A1'], [5,'B1']}");
    }

    #[test]
    fn equality_is_content_based() {
        let a: ElementBag = [e(1, "A", 0), e(1, "A", 0), e(2, "B", 1)]
            .into_iter()
            .collect();
        let b: ElementBag = [e(2, "B", 1), e(1, "A", 0), e(1, "A", 0)]
            .into_iter()
            .collect();
        assert_eq!(a, b);
        let c: ElementBag = [e(1, "A", 0), e(2, "B", 1)].into_iter().collect();
        assert_ne!(a, c);
    }

    fn bucket_order(bag: &ElementBag, label: &str, tag: u64) -> Vec<i64> {
        bag.values_with_counts(Symbol::intern(label), Tag(tag))
            .map(|(v, _)| match v {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn bucket_iteration_is_insertion_ordered() {
        let mut bag = ElementBag::new();
        for v in [5, 3, 9, 3, 1] {
            bag.insert(e(v, "ord", 0));
        }
        assert_eq!(bucket_order(&bag, "ord", 0), vec![5, 3, 9, 1]);
        // A payload whose count reaches zero leaves the order; a later
        // re-insert appends like a fresh payload.
        assert!(bag.remove(&e(3, "ord", 0)));
        assert!(bag.remove(&e(3, "ord", 0)));
        assert_eq!(bucket_order(&bag, "ord", 0), vec![5, 9, 1]);
        bag.insert(e(3, "ord", 0));
        assert_eq!(bucket_order(&bag, "ord", 0), vec![5, 9, 1, 3]);
    }

    #[test]
    fn rebuild_from_rows_preserves_enumeration_order() {
        // A snapshot restore re-inserts `iter_counts()` rows in order; the
        // restored bucket must enumerate identically even when the source
        // had churn (removed-then-reinserted payloads).
        let mut bag = ElementBag::new();
        for v in [4, 8, 2, 6] {
            bag.insert(e(v, "snap", 1));
        }
        assert!(bag.remove(&e(8, "snap", 1)));
        bag.insert(e(8, "snap", 1)); // now last in enumeration order
        let mut restored = ElementBag::new();
        for (elem, c) in bag.iter_counts() {
            restored.insert_n(elem, c);
        }
        assert_eq!(
            bucket_order(&restored, "snap", 1),
            bucket_order(&bag, "snap", 1)
        );
        assert_eq!(restored, bag);
    }

    #[test]
    fn iter_ids_agrees_with_iter_counts() {
        let mut bag = ElementBag::new();
        bag.insert_n(e(4, "ids", 2), 3);
        bag.insert(e(8, "ids", 2));
        let bucket = bag.bucket(Symbol::intern("ids"), Tag(2)).unwrap();
        let via_ids: Vec<(Element, usize)> = bucket
            .iter_ids()
            .map(|(id, v, c)| {
                assert_eq!(id.to_element().value, *v);
                (id.to_element(), c)
            })
            .collect();
        let via_counts: Vec<(Element, usize)> = bucket
            .iter_counts()
            .map(|(v, c)| (Element::new(v.clone(), "ids", Tag(2)), c))
            .collect();
        assert_eq!(via_ids, via_counts);
    }

    #[test]
    fn tombstone_compaction_preserves_counts() {
        let mut bag = ElementBag::new();
        // Churn one bucket hard enough to trigger compaction.
        for round in 0..6 {
            for v in 0..24 {
                bag.insert(e(v + round * 100, "churn", 0));
            }
            for v in 0..24 {
                assert!(bag.remove(&e(v + round * 100, "churn", 0)));
            }
        }
        bag.insert(e(7, "churn", 0));
        assert_eq!(bag.len(), 1);
        assert_eq!(bag.count(&e(7, "churn", 0)), 1);
        let bucket = bag.bucket(Symbol::intern("churn"), Tag(0)).unwrap();
        assert_eq!(bucket.distinct_len(), 1);
        assert_eq!(bucket.iter_counts().count(), 1);
    }

    #[test]
    fn iter_ids_from_resumes_and_epoch_tracks_compaction() {
        let mut bag = ElementBag::new();
        for v in 0..8 {
            bag.insert(e(v, "cur", 0));
        }
        let sym = Symbol::intern("cur");
        let epoch0 = bag.bucket(sym, Tag(0)).unwrap().epoch();

        // Tombstone rows 1 and 2: a resumed scan from row 1 must skip
        // them and report physical indices, not live ordinals.
        assert!(bag.remove(&e(1, "cur", 0)));
        assert!(bag.remove(&e(2, "cur", 0)));
        let bucket = bag.bucket(sym, Tag(0)).unwrap();
        assert_eq!(bucket.epoch(), epoch0, "2 tombstones never compact");
        let resumed: Vec<(usize, i64)> = bucket
            .iter_ids_from(1)
            .map(|(i, _, v, _)| (i, v.as_int().unwrap()))
            .collect();
        assert_eq!(resumed, vec![(3, 3), (4, 4), (5, 5), (6, 6), (7, 7)]);
        // A full scan from 0 agrees with `iter_ids` row-for-row.
        let all: Vec<i64> = bucket
            .iter_ids_from(0)
            .map(|(_, _, v, _)| v.as_int().unwrap())
            .collect();
        let via_ids: Vec<i64> = bucket
            .iter_ids()
            .map(|(_, v, _)| v.as_int().unwrap())
            .collect();
        assert_eq!(all, via_ids);

        // Drive the bucket past the compaction threshold: the epoch must
        // advance so cached row indices are detectably stale.
        for v in 100..130 {
            bag.insert(e(v, "cur", 0));
        }
        for v in 100..130 {
            assert!(bag.remove(&e(v, "cur", 0)));
        }
        let bucket = bag.bucket(sym, Tag(0)).unwrap();
        assert!(bucket.epoch() > epoch0, "compaction bumps the epoch");
        let live: Vec<i64> = bucket
            .iter_ids_from(0)
            .map(|(_, _, v, _)| v.as_int().unwrap())
            .collect();
        assert_eq!(live, vec![0, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn recreated_bucket_never_reuses_an_epoch() {
        // Empty buckets are pruned from the index; a successor bucket at
        // the same (label, tag) must be distinguishable from every epoch
        // its predecessor ever had, or a cached row cursor could skip
        // fresh rows.
        let mut bag = ElementBag::new();
        let sym = Symbol::intern("reborn");
        bag.insert(e(1, "reborn", 0));
        let first = bag.bucket(sym, Tag(0)).unwrap().epoch();
        assert!(bag.remove(&e(1, "reborn", 0)));
        assert!(bag.bucket(sym, Tag(0)).is_none(), "empty buckets prune");
        bag.insert(e(2, "reborn", 0));
        let second = bag.bucket(sym, Tag(0)).unwrap().epoch();
        assert_ne!(first, second);
    }

    fn arb_elem() -> impl Strategy<Value = Element> {
        (0i64..4, 0usize..3, 0u64..3).prop_map(|(v, l, t)| {
            let labels = ["L0", "L1", "L2"];
            Element::new(v, labels[l], t)
        })
    }

    proptest! {
        #[test]
        fn prop_len_is_iter_count(elems in proptest::collection::vec(arb_elem(), 0..40)) {
            let bag: ElementBag = elems.iter().cloned().collect();
            prop_assert_eq!(bag.len(), bag.iter().count());
            prop_assert_eq!(bag.len(), elems.len());
        }

        #[test]
        fn prop_roundtrip_through_hashbag(elems in proptest::collection::vec(arb_elem(), 0..40)) {
            let bag: ElementBag = elems.iter().cloned().collect();
            let hb = bag.to_hash_bag();
            let back: ElementBag = hb.iter().cloned().collect();
            prop_assert_eq!(bag, back);
        }

        #[test]
        fn prop_insert_then_remove_is_identity(
            elems in proptest::collection::vec(arb_elem(), 0..40),
            extra in arb_elem()
        ) {
            let bag: ElementBag = elems.iter().cloned().collect();
            let mut bag2 = bag.clone();
            bag2.insert(extra.clone());
            prop_assert!(bag2.remove(&extra));
            prop_assert_eq!(bag, bag2);
        }

        #[test]
        fn prop_count_label_sums_buckets(elems in proptest::collection::vec(arb_elem(), 0..40)) {
            let bag: ElementBag = elems.iter().cloned().collect();
            for label in ["L0", "L1", "L2"] {
                let sym = Symbol::intern(label);
                let expected = elems.iter().filter(|e| e.label == sym).count();
                prop_assert_eq!(bag.count_label(sym), expected);
            }
        }
    }
}
