//! `gbench`: the repo's single cross-commit benchmark.
//!
//! ```text
//! gbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one workload, in this process
//! gbench [SEED] [--trace]                                         every workload, one process each
//! gbench --selfcheck [SEED]                                       untraced suite twice, compared
//! gbench --smoke                                                  every workload at 1/16 size
//! gbench --spread [SEED]                                          ten seeds per workload, spreads vs bounds
//! gbench --manifest                                               print BENCHMARK.json
//! gbench --glossary                                               print the README's tables
//! ```
//!
//! See `benchmark/README.md` for the workloads, metrics and layer sheet.

mod e2e;
mod env;
mod layers;
mod metrics;
mod micro;
mod oracle;
mod replay;
mod report;
mod session_ops;
mod spans;
mod stats;
mod suite;
mod workloads;

use e2e::RunArgs;
use std::process::ExitCode;

/// Where reports and traces are written, relative to the repo root
/// (`run.sh` changes into it first).
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: usize,
    pub mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Run,
    SelfCheck,
    Smoke,
    Spread,
    Manifest,
    Glossary,
}

pub fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        scale: 1,
        mode: Mode::Run,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = parse(&value("a number")?)?,
            "--seconds" => cli.seconds = parse(&value("a number of seconds")?)?,
            "--scale" => cli.scale = parse(&value("a divisor")?)?,
            // `--trace 0|1` (the driver's form) or bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--selfcheck" => cli.mode = Mode::SelfCheck,
            "--smoke" => cli.mode = Mode::Smoke,
            "--spread" => cli.mode = Mode::Spread,
            "--manifest" => cli.mode = Mode::Manifest,
            "--glossary" => cli.mode = Mode::Glossary,
            seed if seed.parse::<u64>().is_ok() => cli.seed = parse(seed)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.scale == 0 || cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--scale and --seconds must be positive".into());
    }
    Ok(cli)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("`{s}` is not a valid number"))
}

/// Run one workload in this process and print its report; the exit code
/// is non-zero when any op failed.
fn run_one(name: &str, cli: &Cli) -> Result<bool, String> {
    let def = metrics::workload(name)?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
    };
    let mut env = env::EnvBlock::start(cli.seed);
    let report = if cli.trace {
        layers::trace(def, args, &mut env)?
    } else {
        let measured = e2e::measure(def.name, args);
        env.finish();
        report::end_to_end(def, args, env, &measured)
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = suite::report_path(def.name, cli.trace);
    let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    report.print_table();
    println!("{}", report.driver_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    // A stray GAMMAFLOW_TRACE would attach a JSONL sink to every session.
    std::env::remove_var("GAMMAFLOW_TRACE");
    std::env::remove_var("GAMMAFLOW_EXPLAIN_PLAN");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match (cli.mode, &cli.workload) {
        (Mode::Manifest, _) => {
            let text = serde_json::to_string_pretty(&metrics::manifest());
            println!("{}", text.map_err(|e| e.to_string())?);
            Ok(true)
        }
        (Mode::Glossary, _) => {
            print!("{}", metrics::glossary());
            Ok(true)
        }
        (Mode::Run, Some(name)) => run_one(name, &cli),
        (Mode::Run, None) => suite::run_all(&cli),
        (Mode::SelfCheck, _) => suite::selfcheck(&cli),
        (Mode::Smoke, _) => suite::smoke(&cli),
        (Mode::Spread, _) => suite::spread(&cli),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("gbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let c = cli(&[
            "--workload",
            "sieve_guard",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("sieve_guard"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 8.0, true));
        assert!(!cli(&["--workload", "x", "--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn human_forms_parse() {
        let c = cli(&["5", "--trace"]).unwrap();
        assert_eq!((c.seed, c.trace, c.mode), (5, true, Mode::Run));
        assert_eq!(cli(&["--selfcheck"]).unwrap().mode, Mode::SelfCheck);
        assert_eq!(cli(&[]).unwrap().seed, 1);
        assert!(cli(&["--bogus"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }
}
