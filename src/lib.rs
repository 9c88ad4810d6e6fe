//! # gammaflow
//!
//! A faithful, executable reproduction of *"Exploring the Equivalence
//! between Dynamic Dataflow Model and Gamma — General Abstract Model for
//! Multiset mAnipulation"* (Mello Jr. et al., 2019).
//!
//! The workspace builds **both** computational models from scratch and the
//! conversion algorithms between them:
//!
//! * [`multiset`] — tagged elements `[value, label, tag]`, counted bags,
//!   indexed and concurrent multisets.
//! * [`gamma`] — the Gamma model: reactions and the Γ operator, run through
//!   one `Session` API on sequential and parallel engines with steady-state
//!   termination.
//! * [`dataflow`] — the dynamic (tagged-token) dataflow model: graphs,
//!   steer/inctag nodes, waiting–matching store, sequential and multi-PE
//!   engines.
//! * [`lang`] — the paper's Fig. 3 Gamma syntax: parser, pretty-printer, and
//!   a compiler to executable reactions.
//! * [`frontend`] — a mini imperative language that regenerates the paper's
//!   example graphs (Figs. 1–2) from C-like source.
//! * [`core`] — the paper's contribution: Algorithm 1 (dataflow → Gamma),
//!   Algorithm 2 (Gamma → dataflow, incl. the Fig. 4 multiset mapping),
//!   §III-A3 reductions, and differential equivalence checking.
//! * [`workloads`] — generators and classic Gamma/dataflow programs used by
//!   tests and benchmarks.
//! * [`service`] — `gammad`: a multi-tenant session service multiplexing
//!   thousands of Gamma sessions over one shared parked-worker pool, with
//!   fair wave scheduling, per-tenant budgets, and idle eviction.
//!
//! ## Quickstart
//!
//! ```
//! use gammaflow::prelude::*;
//!
//! // The paper's Example 1: m = (x + y) - (k * j).
//! let src = "int x = 1; int y = 5; int k = 3; int j = 2; int m; m = (x + y) - (k * j);";
//! let graph = gammaflow::frontend::compile(src).unwrap();
//!
//! // Run it on the dataflow engine...
//! let df = gammaflow::dataflow::SeqEngine::new(&graph).run().unwrap();
//!
//! // ...convert it with Algorithm 1 and run the Gamma program instead.
//! let conv = gammaflow::core::dataflow_to_gamma(&graph).unwrap();
//! let gm = Session::build(&conv.program)
//!     .selection(Selection::Seeded(42))
//!     .run(conv.initial.clone())
//!     .unwrap();
//!
//! // Both models agree on the output edge `m`.
//! let m = Symbol::intern("m");
//! assert_eq!(
//!     df.outputs.project(|l| l == m),
//!     gm.multiset.project(|l| l == m),
//! );
//! ```
//!
//! ## Streaming: sessions and incremental input
//!
//! For continuous traffic, hold a [`gamma::Session`] across batches
//! instead of a one-shot `run` per batch: the compiled program and the live
//! matcher state persist, so each wave costs O(delta) instead of a
//! rebuild (see `ARCHITECTURE.md` § "Sessions & incremental input").
//!
//! ```
//! use gammaflow::prelude::*;
//! use gammaflow::workloads::windowed_sum;
//!
//! let stream = windowed_sum(3, 2, 4, 7); // 3 waves × 2 windows × 4 readings
//! let mut session = Session::build(&stream.program)
//!     .start(stream.initial.clone())
//!     .unwrap();
//! for wave in &stream.waves {
//!     session.inject(wave.iter().cloned());
//!     session.run_to_stable().unwrap(); // resumes the persistent network
//! }
//! assert_eq!(session.finish().multiset, stream.expected);
//! ```

pub use gammaflow_core as core;
pub use gammaflow_dataflow as dataflow;
pub use gammaflow_frontend as frontend;
pub use gammaflow_gamma as gamma;
pub use gammaflow_lang as lang;
pub use gammaflow_multiset as multiset;
pub use gammaflow_service as service;
pub use gammaflow_workloads as workloads;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use gammaflow_core::{dataflow_to_gamma, gamma_to_dataflow};
    pub use gammaflow_dataflow::{GraphBuilder, SeqEngine};
    pub use gammaflow_gamma::{
        Engine, EngineConfig, GammaProgram, Scheduling, Selection, Session, Status, Wave,
    };
    pub use gammaflow_multiset::{Element, ElementBag, Symbol, Tag, Value};
}
