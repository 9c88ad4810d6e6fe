//! Input generation: every workload's program, multiset, waves and
//! closed-form expectation, made from the seed alone. The engine sees
//! only what is generated here.

use crate::oracle::{self, Expected};
use gammaflow_dataflow::graph::DataflowGraph;
use gammaflow_gamma::{
    ElementSpec, Engine, EngineConfig, Expr, GammaProgram, ParEngine, Pattern, ReactionSpec,
    Selection,
};
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{Element, ElementBag};
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// One unit of session work: a program, the multiset it starts from,
/// the waves injected afterwards (none for batch workloads), and what
/// the run must end with.
pub struct Job {
    /// When set, the op starts from this graph: Algorithm 1 runs inside
    /// the timed repeat and supplies the program and multiset.
    pub graph: Option<DataflowGraph>,
    pub program: GammaProgram,
    pub initial: ElementBag,
    pub waves: Vec<Vec<Element>>,
    pub config: EngineConfig,
    /// Firings the first `run_to_stable` (over `initial`) must make.
    pub initial_firings: u64,
    /// Firings every injected wave must make.
    pub wave_firings: u64,
    pub expect: Expect,
}

/// Which oracle judges a job's final multiset.
pub enum Expect {
    /// Batch: the stable multiset, computed up front.
    Fixed(ElementBag),
    /// Windowed sum: per-tag totals of whatever was injected.
    WindowTotals,
    /// Service tenant: every injected value doubled.
    Doubled,
}

impl Job {
    /// Closed-form firings of one op: the whole run on a batch job, one
    /// wave on a streaming one.
    pub fn op_firings(&self) -> u64 {
        match self.waves.is_empty() {
            true => self.initial_firings,
            false => self.wave_firings,
        }
    }

    /// The stable multiset after `initial` and the first `waves_done`
    /// waves.
    pub fn expected_after(&self, waves_done: usize) -> Cow<'_, ElementBag> {
        let injected = self.waves[..waves_done].iter().flatten();
        match &self.expect {
            Expect::Fixed(multiset) => Cow::Borrowed(multiset),
            Expect::WindowTotals => {
                let history: Vec<Element> = self.initial.iter().collect();
                Cow::Owned(oracle::window_totals(history.iter().chain(injected)).multiset)
            }
            Expect::Doubled => {
                let values = injected.map(|e| e.value.as_int().expect("integer inputs"));
                Cow::Owned(oracle::doubled(values).multiset)
            }
        }
    }
}

/// `EngineConfig::default()` with the run's seed driving selection.
pub fn seq_config(seed: u64) -> EngineConfig {
    EngineConfig {
        selection: Selection::Seeded(seed),
        seed,
        ..EngineConfig::default()
    }
}

/// The sharded engine with `workers` threads.
pub fn sharded_config(seed: u64, workers: usize) -> EngineConfig {
    EngineConfig {
        engine: Engine::Parallel(ParEngine::ShardedRete),
        workers,
        ..seq_config(seed)
    }
}

fn shuffled(mut values: Vec<i64>, seed: u64) -> Vec<i64> {
    values.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    values
}

fn batch(program: GammaProgram, initial: ElementBag, config: EngineConfig, e: Expected) -> Job {
    Job {
        graph: None,
        program,
        initial,
        waves: Vec::new(),
        config,
        initial_firings: e.firings,
        wave_firings: 0,
        expect: Expect::Fixed(e.multiset),
    }
}

/// `sieve_guard`: `primes(2000)`, inserted in seeded order.
pub fn sieve_guard(seed: u64, scale: usize) -> Job {
    let n = (2000 / scale as i64).max(30);
    let program = gammaflow_workloads::primes(n).program;
    let initial = shuffled((2..=n).collect(), seed)
        .into_iter()
        .map(|v| Element::pair(v, "n"))
        .collect();
    batch(program, initial, seq_config(seed), oracle::primes(n))
}

/// `fold_unguarded` (`workers == 0`) and `fold_sharded_w2`
/// (`workers == 2`): the sum of `1..=2048`, inserted in seeded order.
pub fn fold(seed: u64, scale: usize, workers: usize) -> Job {
    let values = shuffled((1..=(2048 / scale as i64).max(16)).collect(), seed);
    let program = gammaflow_workloads::sum(&values).program;
    let initial = values.iter().map(|&v| Element::pair(v, "n")).collect();
    let config = match workers {
        0 => seq_config(seed),
        w => sharded_config(seed, w),
    };
    batch(program, initial, config, oracle::sum(&values))
}

/// `loops_tagged`'s `parallel_loops(count, y, z, x)` arguments: 16 loops
/// of 200 iterations; the seed picks the increment and start value.
pub fn loop_constants(seed: u64, scale: usize) -> (usize, i64, i64, i64) {
    let z = (200 / scale as i64).max(4);
    (16, 3 + (seed % 3) as i64, z, 5 + (seed % 5) as i64)
}

/// `loops_tagged`: the Algorithm-1 image of the Fig.-2 loops.
pub fn loops_tagged(seed: u64, scale: usize) -> Job {
    let (count, y, z, x) = loop_constants(seed, scale);
    let graph = gammaflow_workloads::parallel_loops(count, y, z, x).graph;
    let expected = oracle::loops(count, y, z, x);
    let conv = gammaflow_core::dataflow_to_gamma(&graph).expect("Fig. 2 converts");
    let mut job = batch(conv.program, conv.initial, seq_config(seed), expected);
    job.graph = Some(graph);
    job
}

/// Harness S9's three-conjunct filter: consumes every non-negative
/// multiple of 6 and emits its quotient.
pub fn div6_program() -> GammaProgram {
    let rem_is_zero = |m: i64| {
        Expr::cmp(
            CmpOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var("x"), Expr::int(m)),
            Expr::int(0),
        )
    };
    GammaProgram::new(vec![ReactionSpec::new("div6")
        .replace(Pattern::pair("x", oracle::DIV6_IN))
        .where_(Expr::and(
            rem_is_zero(2),
            Expr::and(
                rem_is_zero(3),
                Expr::cmp(CmpOp::Ge, Expr::var("x"), Expr::int(0)),
            ),
        ))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Div, Expr::var("x"), Expr::int(6)),
            oracle::DIV6_OUT,
        )])])
}

/// `filter_1m`: 10^6 consecutive integers from a seeded base.
pub fn filter_1m(seed: u64, scale: usize) -> Job {
    let n = 1_000_000 / scale as i64;
    let base = 6 * (seed % 1000) as i64;
    let initial = (base..base + n)
        .map(|v| Element::pair(v, oracle::DIV6_IN))
        .collect();
    let expected = oracle::div6(base..base + n);
    batch(div6_program(), initial, seq_config(seed), expected)
}

/// The job of the batch workload called `name`.
pub fn batch_job(name: &str, seed: u64, scale: usize) -> Option<Job> {
    Some(match name {
        "sieve_guard" => sieve_guard(seed, scale),
        "fold_unguarded" => fold(seed, scale, 0),
        "fold_sharded_w2" => fold(seed, scale, 2),
        "loops_tagged" => loops_tagged(seed, scale),
        "filter_1m" => filter_1m(seed, scale),
        _ => return None,
    })
}

/// Waves and windows of one `stream_window` session.
pub const WINDOW_WAVES: usize = 3072;
const WINDOWS_PER_WAVE: usize = 8;
const READINGS_PER_WINDOW: usize = 8;

/// `stream_window`, session `k`: `windowed_sum(3072, 8, 8, ..)` on an
/// empty start, from a stream seed no other (seed, k) pair shares.
pub fn stream_window(seed: u64, scale: usize, k: u64) -> Job {
    let waves = (WINDOW_WAVES / scale).max(8);
    let w = gammaflow_workloads::windowed_sum(
        waves,
        WINDOWS_PER_WAVE,
        READINGS_PER_WINDOW,
        seed.wrapping_mul(4096).wrapping_add(k),
    );
    Job {
        graph: None,
        program: w.program,
        initial: w.initial,
        waves: w.waves,
        config: seq_config(seed),
        initial_firings: 0,
        wave_firings: (WINDOWS_PER_WAVE * (READINGS_PER_WINDOW - 1)) as u64,
        expect: Expect::WindowTotals,
    }
}

/// Retained singleton windows `stream_longlived` starts from: past
/// `DEFAULT_SPILL_WATERMARK` (32 768).
pub const LONGLIVED_HISTORY: usize = 40_000;

/// `stream_longlived`: one already-stable reading per distinct tag, then
/// `max_waves` waves of 4 fresh windows x 2 readings.
pub fn stream_longlived(seed: u64, scale: usize, max_waves: usize) -> Job {
    let history = (LONGLIVED_HISTORY / scale) as u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut reading = |tag: u64| Element::new((rng.next_u64() % 10_000) as i64, "x", tag);
    let initial = (0..history).map(&mut reading).collect();
    let waves = (0..max_waves as u64)
        .map(|w| {
            (0..4)
                .flat_map(|i| {
                    let tag = history + 4 * w + i;
                    [reading(tag), reading(tag)]
                })
                .collect()
        })
        .collect();
    Job {
        graph: None,
        program: gammaflow_workloads::windowed_sum(1, 1, 2, 0).program,
        initial,
        waves,
        config: seq_config(seed),
        initial_firings: 0,
        wave_firings: 4,
        expect: Expect::WindowTotals,
    }
}

/// Harness S10's tenant program: every input is doubled onto the output
/// label.
pub fn double_program() -> GammaProgram {
    GammaProgram::new(vec![ReactionSpec::new("double")
        .replace(Pattern::pair("x", oracle::DOUBLE_IN))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(2)),
            oracle::DOUBLE_OUT,
        )])])
}

/// Shape of `service_small_waves`.
pub struct ServiceShape {
    pub tenants: usize,
    /// Rounds of {inject into every tenant; drain the ready queue} in
    /// one epoch; tenants are finished and checked after each epoch.
    pub rounds: usize,
    pub per_wave: usize,
    seed: u64,
}

impl ServiceShape {
    pub fn new(seed: u64, scale: usize) -> ServiceShape {
        ServiceShape {
            tenants: (2048 / scale).max(4),
            rounds: (32 / scale).max(2),
            per_wave: 4,
            seed,
        }
    }

    /// What tenant `i` is sent in round `r` of epoch `e`: values unique
    /// across tenants, rounds and epochs, so a cross-tenant mix-up
    /// cannot cancel out.
    pub fn wave_values(&self, epoch: usize, round: usize, tenant: usize) -> Vec<i64> {
        let base = ((self.seed % 1024) as i64) << 40;
        let wave = ((epoch * self.rounds + round) * self.tenants + tenant) * self.per_wave;
        (0..self.per_wave)
            .map(|j| base + (wave + j) as i64)
            .collect()
    }

    pub fn wave(&self, epoch: usize, round: usize, tenant: usize) -> Vec<Element> {
        self.wave_values(epoch, round, tenant)
            .into_iter()
            .map(|v| Element::pair(v, oracle::DOUBLE_IN))
            .collect()
    }

    /// Tenant `i`'s stable multiset after a whole epoch.
    pub fn expected(&self, epoch: usize, tenant: usize) -> Expected {
        oracle::doubled((0..self.rounds).flat_map(|r| self.wave_values(epoch, r, tenant)))
    }

    /// One tenant's epoch as a standalone session job (what the layer
    /// passes run), on the tenants' engine configuration.
    pub fn tenant_job(&self, epoch: usize, tenant: usize) -> Job {
        Job {
            graph: None,
            program: double_program(),
            initial: ElementBag::new(),
            waves: (0..self.rounds)
                .map(|r| self.wave(epoch, r, tenant))
                .collect(),
            config: self.tenant_config(),
            initial_firings: 0,
            wave_firings: self.per_wave as u64,
            expect: Expect::Doubled,
        }
    }

    /// S10's small-wave serving regime: one engine worker per wave.
    pub fn tenant_config(&self) -> EngineConfig {
        sharded_config(self.seed, 1)
    }
}
