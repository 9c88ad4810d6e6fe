//! Workload generators and classic programs for the gammaflow test and
//! benchmark suites.
//!
//! * [`expr_dags`] — random layered expression DAGs with structurally
//!   computed reference outputs (experiments E6, P4), plus wide/deep
//!   extremes for scaling studies.
//! * [`loops`] — parameterised families of the paper's Fig. 2 loop,
//!   including multi-loop graphs with known inter-loop parallelism (P2)
//!   and the mini-C sources they correspond to.
//! * [`classic`] — the standard Gamma repertoire (minimum per the paper's
//!   Eq. (2), maximum, sum, primes sieve, GCD, exchange sort), each
//!   self-checking (P3).
//! * [`joins`] — guard-heavy join workloads (conjunctive sieve, triangle
//!   counting over edge elements, interval union) exercising the rete
//!   matcher's partial-match memory and guard pushdown (harness `S2`).
//! * [`fusion`] — synthetic sensor data-fusion / target-tracking scenario
//!   standing in for the paper's application reference \[1\].
//! * [`image`] — synthetic image segmentation + histogram scenario
//!   standing in for the chemical-model image-processing applications
//!   (paper ref. \[21\]).
//! * [`streaming`] — wave-structured input for the `Session` lifecycle
//!   (rolling top-k over a growing candidate history; harness `S5`).
//!
//! # Example
//!
//! Every workload is self-checking: it carries the program, the initial
//! multiset, and the expected stable multiset, so any engine can be
//! asserted against it. The primes sieve, run to stability:
//!
//! ```
//! use gammaflow_gamma::{Selection, Session, Status};
//! use gammaflow_workloads::primes;
//!
//! let w = primes(30);
//! let result = Session::build(&w.program)
//!     .selection(Selection::Seeded(7))
//!     .run(w.initial.clone())
//!     .unwrap();
//! assert_eq!(result.status, Status::Stable);
//! assert_eq!(result.multiset, w.expected); // {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
//! ```

#![warn(missing_docs)]

pub mod classic;
pub mod expr_dags;
pub mod fusion;
pub mod image;
pub mod joins;
pub mod loops;
pub mod streaming;

pub use classic::{exchange_sort, gcd, maximum, minimum, primes, sum, Workload};
pub use expr_dags::{deep_chain, random_dag, wide_chains, wide_pairs, DagParams, GeneratedDag};
pub use fusion::{scenario as fusion_scenario, FusionScenario};
pub use image::{scenario as image_scenario, ImageScenario};
pub use joins::{cross_sum, divisor_sieve, interval_merge, triangles};
pub use loops::{accumulator_loop, build_fig2_into, parallel_loops, source_for, LoopWorkload};
pub use streaming::{burst_drain, rolling_topk, windowed_sum, StreamingWorkload};
