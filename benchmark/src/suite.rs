//! Whole-suite modes: every workload in a process of its own (so
//! `VmHWM` and the process-global arena census are per workload), the
//! repeatability self-check, and the smoke run.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::report::RunReport;
use crate::stats;
use crate::{Cli, OUT_DIR};
use serde::Serialize;
use std::process::Command;

/// Where a run's full report lands.
pub fn report_path(workload: &str, trace: bool) -> String {
    let kind = if trace { "layers" } else { "report" };
    format!("{OUT_DIR}/{kind}-{workload}.json")
}

/// How the children of one suite pass are sized.
#[derive(Clone, Copy)]
struct Pass {
    seed: u64,
    seconds: f64,
    scale: usize,
    trace: bool,
}

/// Run one workload in a child process, echo its table, and read its
/// report back.
fn run_child(workload: &str, pass: Pass) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &pass.seed.to_string()])
        .args(["--seconds", &pass.seconds.to_string()])
        .args(["--scale", &pass.scale.to_string()])
        .args(["--trace", if pass.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the driver's JSON line.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let path = report_path(workload, pass.trace);
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload} exited {} leaving no {path}: {e}", output.status))?;
    let report: RunReport = serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))?;
    if report.correct != output.status.success() {
        return Err(format!(
            "{workload}: exit status {} disagrees with its report",
            output.status
        ));
    }
    Ok(report)
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| cli.workload.as_deref().is_none_or(|only| only == *name))
        .collect()
}

fn run_pass(cli: &Cli, pass: Pass) -> Result<Vec<RunReport>, String> {
    selected(cli)
        .into_iter()
        .map(|name| run_child(name, pass))
        .collect()
}

fn write_json<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    let body = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn all_correct(reports: &[RunReport]) -> bool {
    for r in reports.iter().filter(|r| !r.correct) {
        println!(
            "FAILED {}: {} of {} ops failed",
            r.workload, r.failed, r.attempted
        );
    }
    reports.iter().all(|r| r.correct)
}

/// `run.sh [SEED] [--trace]`: one pass over every workload.
pub fn run_all(cli: &Cli) -> Result<bool, String> {
    let pass = Pass {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        trace: cli.trace,
    };
    let reports = run_pass(cli, pass)?;
    write_json(
        if cli.trace {
            "suite-layers.json"
        } else {
            "suite.json"
        },
        &reports,
    )?;
    Ok(all_correct(&reports))
}

/// `run.sh --smoke`: both passes at 1/16 size, oracles on, nothing gated
/// but correctness.
pub fn smoke(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for trace in [false, true] {
        let pass = Pass {
            seed: cli.seed,
            seconds: 0.2,
            scale: 16,
            trace,
        };
        ok &= all_correct(&run_pass(cli, pass)?);
    }
    Ok(ok)
}

/// One (workload, metric) pair of the self-check.
#[derive(Debug, Serialize)]
struct Pair {
    workload: String,
    metric: String,
    first: f64,
    second: f64,
    /// |first − second| / min(first, second).
    difference: f64,
    /// The most the pair may differ: the metric's own bound, or 0 for a
    /// counter that must repeat exactly.
    allowed: f64,
    exact: bool,
    ok: bool,
}

fn pair(workload: &str, metric: &str, first: f64, second: f64, allowed: f64, exact: bool) -> Pair {
    let least = first.abs().min(second.abs());
    let difference = match first == second {
        true => 0.0,
        false => (first - second).abs() / least.max(f64::MIN_POSITIVE),
    };
    Pair {
        workload: workload.into(),
        metric: metric.into(),
        first,
        second,
        difference,
        allowed,
        exact,
        ok: difference <= allowed,
    }
}

/// What a `setup_s` pair may differ by whatever its bound says: a
/// 40 ms set-up moves by a quarter from one run to the next.
const SETUP_FLOOR_S: f64 = 0.05;

/// Compare two reports of one workload: every end-to-end metric within
/// its bound (`setup_s`: or within [`SETUP_FLOOR_S`]), every exact
/// counter identical.
fn compare(a: &RunReport, b: &RunReport) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for m in &END_TO_END {
        if let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) {
            let mut p = pair(&a.workload, m.name, x.value, y.value, m.bound, false);
            p.ok |= m.name == "setup_s" && (x.value - y.value).abs() <= SETUP_FLOOR_S;
            pairs.push(p);
        }
    }
    for x in a.metrics.iter().filter(|m| m.exact) {
        if let Some(y) = b.metric(&x.name) {
            pairs.push(pair(&a.workload, &x.name, x.value, y.value, 0.0, true));
        }
    }
    pairs
}

/// `run.sh --selfcheck`: the untraced suite twice on one seed. The two
/// runs of a workload are made back to back, so the pair sees as little
/// of the machine's drift as two runs can.
pub fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let pass = Pass {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        trace: false,
    };
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for name in selected(cli) {
        first.push(run_child(name, pass)?);
        second.push(run_child(name, pass)?);
    }
    let pairs: Vec<Pair> = first
        .iter()
        .zip(&second)
        .flat_map(|(a, b)| compare(a, b))
        .collect();
    println!(
        "{:<20} {:<32} {:>16} {:>16} {:>8} {:>8}",
        "workload", "metric", "first", "second", "diff", "allowed"
    );
    for p in &pairs {
        println!(
            "{:<20} {:<32} {:>16.4} {:>16.4} {:>7.2}% {:>7.2}%{}{}",
            p.workload,
            p.metric,
            p.first,
            p.second,
            p.difference * 100.0,
            p.allowed * 100.0,
            if p.exact { "  exact" } else { "" },
            if p.ok { "" } else { "  <-- FAILED" },
        );
    }
    write_json("selfcheck.json", &pairs)?;
    Ok(all_correct(&first) && all_correct(&second) && pairs.iter().all(|p| p.ok))
}

/// Run-to-run spread of one (workload, metric) over the seeds.
#[derive(Debug, Serialize)]
struct Spread {
    workload: String,
    metric: String,
    values: Vec<f64>,
    median: f64,
    /// (q3 − q1) / median, quartiles as Python's
    /// `statistics.quantiles(values, n=4)` gives them.
    spread: f64,
    bound: f64,
    /// Within the bound (what the driver requires of every metric but
    /// `setup_s`).
    ok: bool,
    /// Within a third of the bound (what the benchmark aims for).
    steady: bool,
}

/// Seeds per workload in the spread check.
const SPREAD_SEEDS: u64 = 10;

/// `run.sh --spread`: ten seeds per workload, and for each end-to-end
/// metric the distance between the quartiles of its ten values as a
/// share of their median — the acceptance test the driver applies to
/// the benchmark itself.
pub fn spread(cli: &Cli) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut correct = true;
    for name in selected(cli) {
        let mut reports = Vec::new();
        for seed in cli.seed..cli.seed + SPREAD_SEEDS {
            let pass = Pass {
                seed,
                seconds: cli.seconds,
                scale: cli.scale,
                trace: false,
            };
            reports.push(run_child(name, pass)?);
        }
        correct &= all_correct(&reports);
        for m in &END_TO_END {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.metric(m.name).map(|x| x.value))
                .collect();
            let spread = stats::spread(&values);
            rows.push(Spread {
                workload: name.into(),
                metric: m.name.into(),
                median: stats::median(&values),
                values,
                spread,
                bound: m.bound,
                ok: spread <= m.bound || m.name == "setup_s",
                steady: spread <= m.bound / 3.0,
            });
        }
    }
    println!(
        "{:<20} {:<16} {:>16} {:>8} {:>8}",
        "workload", "metric", "median", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<20} {:<16} {:>16.4} {:>7.2}% {:>7.2}%{}",
            r.workload,
            r.metric,
            r.median,
            r.spread * 100.0,
            r.bound * 100.0,
            match (r.ok, r.steady) {
                (false, _) => "  <-- wider than the bound",
                (true, false) => "  (wider than a third of the bound)",
                (true, true) => "",
            },
        );
    }
    write_json("spread.json", &rows)?;
    Ok(correct && rows.iter().all(|r| r.ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_judged_against_their_allowance() {
        assert!(pair("w", "m", 100.0, 109.0, 0.10, false).ok);
        assert!(!pair("w", "m", 100.0, 111.0, 0.10, false).ok);
        assert!(!pair("w", "m", 111.0, 100.0, 0.10, false).ok);
        assert!(pair("w", "c", 1696.0, 1696.0, 0.0, true).ok);
        assert!(!pair("w", "c", 1696.0, 1697.0, 0.0, true).ok);
        assert!(pair("w", "c", 0.0, 0.0, 0.0, true).ok);
    }
}
