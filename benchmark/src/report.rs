//! What one run writes: the full report file under `benchmark/out/`,
//! the metric table on stdout, and — last line — the one JSON object the
//! driver reads.

use crate::e2e::{Measured, RunArgs};
use crate::env::EnvBlock;
use crate::metrics::{WorkloadDef, END_TO_END, EXACT_COUNTERS, PER_LAYER};
use crate::stats;
use serde::{Content, Deserialize, Serialize};

/// One reported number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricRow {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: String,
    /// Samples behind the value.
    pub n: u64,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Quartiles of the samples, where the value is their median.
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    /// A count that repeats exactly for one seed on the sequential
    /// engine, so a later change may claim on it as a count.
    pub exact: bool,
    /// Per-layer metrics only: the end-to-end metric and workload a
    /// change to the layer is predicted to move, and where none is.
    pub moves: Option<String>,
    pub flat: Option<String>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    pub workload: String,
    pub why: String,
    pub op: String,
    pub trace: bool,
    pub scale: u64,
    pub seconds: f64,
    pub env: EnvBlock,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// failed / attempted; any value above 0 fails the run.
    pub failed_share: f64,
    /// Whole units of work run (repeats, sessions, epochs).
    pub units: u64,
    /// Timed op samples behind the latency metrics.
    pub samples: u64,
    /// The percentile `wave_p99_us` reports on this workload, and the
    /// highest one this run's sample count supports.
    pub tail_percentile: String,
    pub supported_percentile: String,
    pub metrics: Vec<MetricRow>,
    pub notes: Vec<String>,
}

fn row(name: &str, value: f64, n: u64) -> MetricRow {
    let blank = |unit: &str, better: &str| MetricRow {
        name: name.into(),
        value,
        unit: unit.into(),
        better: better.into(),
        n,
        bound: None,
        q1: None,
        q3: None,
        exact: false,
        moves: None,
        flat: None,
    };
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return MetricRow {
            bound: Some(m.bound),
            ..blank(m.unit, m.better)
        };
    }
    let m = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the metric tables"));
    MetricRow {
        moves: Some(m.moves.into()),
        flat: Some(m.flat.into()),
        ..blank(m.unit, m.better)
    }
}

fn with_quartiles(mut r: MetricRow, samples: &[f64]) -> MetricRow {
    if samples.len() >= 2 {
        let (q1, q3) = stats::quartiles(samples);
        (r.q1, r.q3) = (Some(q1), Some(q3));
    }
    r
}

/// The tail percentile of an ascending sample; p50 is the interpolated
/// median so it reads the same as `wave_p50_us`.
fn tail(sorted: &[f64], pct: u32) -> f64 {
    match pct {
        50 => stats::median(sorted),
        _ => stats::percentile_sorted(sorted, pct),
    }
}

/// What a traced pass accumulates: per-layer rows, notes, and whether
/// every oracle it consulted was met.
pub struct Sheet {
    pub rows: Vec<MetricRow>,
    pub notes: Vec<String>,
    pub correct: bool,
}

impl Default for Sheet {
    fn default() -> Sheet {
        Sheet {
            rows: Vec::new(),
            notes: Vec::new(),
            correct: true,
        }
    }
}

impl Sheet {
    /// Record a per-layer value measured over `n` samples.
    pub fn put(&mut self, name: &str, value: f64, n: u64) {
        self.rows.push(row(name, value, n));
    }

    /// Fail the pass, saying which stage missed its oracle.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("{what} did not reach its oracle"));
        }
    }
}

/// Mark the frozen counters exact where the engine is sequential.
fn mark_exact(def: &WorkloadDef, rows: &mut [MetricRow]) {
    for r in rows {
        r.exact = def.sequential && EXACT_COUNTERS.contains(&r.name.as_str());
    }
}

fn shell(def: &WorkloadDef, args: RunArgs, trace: bool, env: EnvBlock) -> RunReport {
    RunReport {
        workload: def.name.into(),
        why: def.why.into(),
        op: def.op.into(),
        trace,
        scale: args.scale as u64,
        seconds: args.seconds,
        env,
        correct: true,
        attempted: 0,
        failed: 0,
        failed_share: 0.0,
        units: 0,
        samples: 0,
        tail_percentile: format!("p{}", def.tail_pct),
        supported_percentile: String::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    }
}

/// The untraced pass's report: the five end-to-end metrics, plus the
/// exact counters the engine hands back for free.
pub fn end_to_end(def: &WorkloadDef, args: RunArgs, env: EnvBlock, m: &Measured) -> RunReport {
    let mut r = shell(def, args, false, env);
    r.attempted = m.attempted.max(1);
    r.failed = m.failed;
    r.failed_share = r.failed as f64 / r.attempted as f64;
    r.correct = m.failed == 0 && !m.op_us.is_empty();
    r.units = m.units;
    r.samples = m.op_us.len() as u64;
    r.supported_percentile = stats::supported_percentile_label(m.op_us.len());
    let n = r.samples;
    if !m.op_us.is_empty() {
        let sorted = stats::sorted(&m.op_us);
        r.metrics = vec![
            row("firings_per_s", m.firings_per_s, n),
            with_quartiles(row("wave_p50_us", stats::median(&m.op_us), n), &m.op_us),
            row("wave_p99_us", tail(&sorted, def.tail_pct), n),
            row("peak_rss_mb", m.rss_mib, 1),
            with_quartiles(
                row(
                    "setup_s",
                    stats::median(&m.setup_secs),
                    m.setup_secs.len() as u64,
                ),
                &m.setup_secs,
            ),
        ];
    }
    r.metrics.extend(exact_counters(m));
    mark_exact(def, &mut r.metrics);
    r
}

/// Counts the sequential engine repeats exactly, from the last unit.
fn exact_counters(m: &Measured) -> Vec<MetricRow> {
    let fired = m.counters.fired.max(1) as f64;
    let mut rows = vec![
        row("firings", m.firings_per_op as f64, 1),
        row("arena.slots", m.arena_slots as f64, 1),
        row(
            "rete.guard_evals_per_firing",
            m.counters.guard_evals as f64 / fired,
            1,
        ),
    ];
    if let Some(rete) = &m.counters.rete {
        rows.push(row(
            "rete.tokens_created_per_firing",
            rete.tokens_created as f64 / fired,
            1,
        ));
    }
    rows
}

/// The traced pass's report: every per-layer metric, in table order;
/// layers that do no work on this workload read 0.
pub fn per_layer(def: &WorkloadDef, args: RunArgs, env: EnvBlock, sheet: Sheet) -> RunReport {
    let mut r = shell(def, args, true, env);
    r.correct = sheet.correct;
    r.attempted = 1;
    r.failed = u64::from(!sheet.correct);
    r.failed_share = r.failed as f64;
    r.metrics = PER_LAYER
        .iter()
        .map(|d| {
            sheet
                .rows
                .iter()
                .find(|m| m.name == d.name)
                .cloned()
                .unwrap_or_else(|| row(d.name, 0.0, 0))
        })
        .collect();
    mark_exact(def, &mut r.metrics);
    r.notes = sheet.notes;
    r
}

impl RunReport {
    pub fn metric(&self, name: &str) -> Option<&MetricRow> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The table a person reads.
    pub fn print_table(&self) {
        let sizes = match self.trace {
            true => format!(
                "{} ops on the end-to-end path, {} spans",
                self.units, self.samples
            ),
            false => format!(
                "{} units, {} samples, tail {} / supported {}",
                self.units, self.samples, self.tail_percentile, self.supported_percentile
            ),
        };
        println!(
            "== {} ({}, seed {}, scale 1/{}, {sizes})",
            self.workload,
            if self.trace { "traced" } else { "untraced" },
            self.env.seed,
            self.scale,
        );
        for m in &self.metrics {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            let quartiles = match (m.q1, m.q3) {
                (Some(a), Some(b)) => format!("  q1 {a:.4} q3 {b:.4}"),
                _ => String::new(),
            };
            let exact = if m.exact { "  exact" } else { "" };
            println!(
                "{:<38} {:>16.4} {:<14} {:<6} n={}{bound}{quartiles}{exact}",
                m.name, m.value, m.unit, m.better, m.n
            );
        }
        println!(
            "{:<38} {:>16.4} {:<14} lower  n={}  bound any increase",
            "failed_share", self.failed_share, "ratio", self.attempted
        );
        for note in &self.notes {
            println!("note: {note}");
        }
    }

    /// The last line of stdout: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding the pass's own metric set.
    pub fn driver_line(&self) -> String {
        let wanted: Vec<&str> = if self.trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = wanted
            .iter()
            .filter_map(|name| self.metric(name))
            .map(|m| {
                let value = Content::Map(vec![
                    ("value".into(), Content::F64(m.value)),
                    ("unit".into(), Content::Str(m.unit.clone())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        let line = Content::Map(vec![
            ("correct".into(), Content::Bool(self.correct)),
            ("attempted".into(), Content::I64(self.attempted as i64)),
            ("failed".into(), Content::I64(self.failed as i64)),
            ("metrics".into(), Content::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("plain JSON tree")
    }
}
