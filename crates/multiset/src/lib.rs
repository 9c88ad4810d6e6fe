//! Multiset substrate for the gammaflow workspace.
//!
//! The Gamma model (Banâtre & Le Métayer, 1986) operates on a single shared
//! *multiset* whose elements are consumed and produced by reactions; the
//! dynamic dataflow model moves *tagged tokens* along graph edges. The paper
//! reproduced by this workspace shows the two are inter-convertible when
//! multiset elements are triples `[value, label, tag]` — exactly the shape of
//! a dataflow token annotated with the edge it travels on.
//!
//! This crate provides the shared substrate both execution models are built
//! on:
//!
//! * [`Value`] — the scalar value domain (integers, booleans, floats,
//!   strings) with total arithmetic/comparison semantics shared by both
//!   interpreters, so differential testing compares like with like.
//! * [`Symbol`] — interned edge/element labels (`'A1'`, `'B2'`, …).
//! * [`Element`] and [`Tag`] — the `[value, label, tag]` triples of the
//!   paper's §III-A1.
//! * [`HashBag`] — a generic counted multiset with full multiset algebra.
//! * [`ElementBag`] — a `(label, tag)`-indexed multiset of [`Element`]s; the
//!   index is what makes Gamma reaction matching tractable.
//! * [`ShardedBag`] — a concurrent, sharded multiset used by the parallel
//!   Gamma interpreter, supporting atomic multi-element claims.
//!
//! Hashing throughout uses a from-scratch implementation of the Fx hash
//! algorithm ([`fxhash`]) because label/tag keys are tiny and hot, following
//! the Rust Performance Book's guidance on alternative hashers.
//!
//! # Example
//!
//! The multiset both models share: `[value, label, tag]` elements counted
//! with multiplicity and indexed by `(label, tag)` — the shape of a
//! dataflow token filed under the edge it travels on:
//!
//! ```
//! use gammaflow_multiset::{Element, ElementBag, Symbol, Tag};
//!
//! let mut bag = ElementBag::new();
//! bag.insert(Element::new(1, "A1", 0u64)); // token on edge A1, iteration 0
//! bag.insert(Element::new(5, "B1", 0u64));
//! bag.insert_n(Element::new(5, "B1", 0u64), 2); // multiplicity 3 total
//!
//! assert_eq!(bag.len(), 4);
//! assert_eq!(bag.count(&Element::new(5, "B1", 0u64)), 3);
//! // The (label, tag) index answers "which operands wait on edge B1?".
//! assert_eq!(bag.count_label(Symbol::intern("B1")), 3);
//! assert!(bag.tags_for(Symbol::intern("A1")).any(|t| t == Tag(0)));
//! assert!(bag.remove(&Element::new(1, "A1", 0u64)));
//! assert!(!bag.contains(&Element::new(1, "A1", 0u64)));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod bag;
pub mod element;
pub mod fxhash;
pub mod indexed;
pub mod sharded;
pub mod symbol;
pub mod value;

pub use arena::{arena_stats, ArenaStats, ElemId};
pub use bag::HashBag;
pub use element::{Element, Tag};
pub use indexed::{ElementBag, ValueBucket};
pub use sharded::{shard_index, ShardGuard, ShardedBag};
pub use symbol::Symbol;
pub use value::{Value, ValueError};

/// Convenience alias: a `HashMap` keyed with the crate's fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, fxhash::FxBuildHasher>;
/// Convenience alias: a `HashSet` keyed with the crate's fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, fxhash::FxBuildHasher>;
