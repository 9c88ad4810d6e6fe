//! `gfc` — the gammaflow command line.
//!
//! A downstream-user tool over the library: compile mini-C to dataflow
//! graphs, convert in both directions (Algorithms 1 and 2), execute either
//! model, check equivalence, fuse reactions, and analyse traces for reuse.
//!
//! ```text
//! gfc compile  <file.mc> [--dot]            mini-C -> dataflow graph
//! gfc run-df   <file.mc>                    compile and run the dataflow engine
//! gfc convert  <file.mc>                    Algorithm 1: print Gamma code + M
//! gfc run-gamma <file.gamma> -m '<elems>' [--seed N] [--trace]
//!                                           run a Gamma program on multiset M
//! gfc reverse  <file.gamma> -m '<elems>' [--dot]
//!                                           Algorithm 2: stitch to a dataflow graph
//! gfc check    <file.mc>                    differential equivalence report
//! gfc fuse     <file.gamma> [--protect L1,L2,...]
//!                                           §III-A3 reduction pass
//! gfc reuse    <file.gamma> -m '<elems>'    DF-DTM-style trace-reuse analysis
//! ```
//!
//! Multiset literals use the paper's syntax: `{[1,'A1'], [5,'B1'], [3,'C1',2]}`
//! (braces optional, third field = tag, default 0).

use gammaflow::core::{
    canonicalize_vars, check_equivalence, dataflow_to_gamma, fuse_all, gamma_to_dataflow,
    CheckConfig,
};
use gammaflow::dataflow::engine::{EngineConfig, SeqEngine};
use gammaflow::gamma::{analyze_reuse, Selection, Session};
use gammaflow::lang::{parse_multiset, parse_program, pretty_program};
use gammaflow::multiset::{ElementBag, Symbol};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "gfc — gammaflow CLI

USAGE:
  gfc compile   <file.mc> [--dot]
  gfc run-df    <file.mc>
  gfc convert   <file.mc>
  gfc run-gamma <file.gamma> -m '<multiset>' [--seed N] [--trace]
  gfc reverse   <file.gamma> -m '<multiset>' [--dot]
  gfc check     <file.mc>
  gfc fuse      <file.gamma> [--protect L1,L2,...]
  gfc reuse     <file.gamma> -m '<multiset>'

Multisets use the paper's literal syntax: {{[1,'A1'], [5,'B1',2]}}."
    );
    ExitCode::from(2)
}

/// Minimal flag extraction: returns (positional args, flag values).
struct Args {
    positional: Vec<String>,
    multiset: Option<String>,
    seed: u64,
    dot: bool,
    trace: bool,
    protect: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        multiset: None,
        seed: 0,
        dot: false,
        trace: false,
        protect: Vec::new(),
    };
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "-m" | "--multiset" => {
                i += 1;
                args.multiset = Some(
                    raw.get(i)
                        .ok_or("missing value after -m/--multiset")?
                        .clone(),
                );
            }
            "--seed" => {
                i += 1;
                args.seed = raw
                    .get(i)
                    .ok_or("missing value after --seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value".to_string())?;
            }
            "--dot" => args.dot = true,
            "--trace" => args.trace = true,
            "--protect" => {
                i += 1;
                args.protect = raw
                    .get(i)
                    .ok_or("missing value after --protect")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            other => args.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(args)
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn need_multiset(args: &Args) -> Result<ElementBag, String> {
    let text = args
        .multiset
        .as_deref()
        .ok_or("this command needs -m '<multiset>'")?;
    parse_multiset(text).map_err(|e| format!("bad multiset literal: {e}"))
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.mc>")?)?;
    let g = gammaflow::frontend::compile(&src).map_err(|e| e.to_string())?;
    if args.dot {
        print!("{}", g.to_dot());
    } else {
        println!(
            "compiled: {} nodes ({} roots, {} outputs), {} edges",
            g.node_count(),
            g.roots().count(),
            g.outputs().count(),
            g.edge_count()
        );
        for n in g.nodes() {
            println!("  {:12} {}", n.name, n.kind);
        }
    }
    Ok(())
}

fn cmd_run_df(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.mc>")?)?;
    let g = gammaflow::frontend::compile(&src).map_err(|e| e.to_string())?;
    let result = SeqEngine::with_config(&g, EngineConfig::default())
        .run()
        .map_err(|e| e.to_string())?;
    println!("status:  {:?}", result.status);
    println!("outputs: {}", result.outputs);
    println!("firings: {}", result.stats.fired_total());
    println!("profile: {:?}", result.profile);
    if !result.residue.is_empty() {
        println!(
            "residue: {} stuck tokens (tag mismatch?)",
            result.residue.len()
        );
    }
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.mc>")?)?;
    let g = gammaflow::frontend::compile(&src).map_err(|e| e.to_string())?;
    let conv = dataflow_to_gamma(&g).map_err(|e| e.to_string())?;
    println!("{}", pretty_program(&conv.program));
    println!("\n# initial multiset");
    println!("# M = {}", conv.initial);
    println!(
        "# output labels: {}",
        conv.output_labels
            .iter()
            .map(|l| l.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn cmd_run_gamma(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.gamma>")?)?;
    let prog = parse_program(&src).map_err(|e| e.to_string())?;
    let initial = need_multiset(args)?;
    let result = Session::build(&prog)
        .record_trace(args.trace)
        .selection(Selection::Seeded(args.seed))
        .run(initial)
        .map_err(|e| e.to_string())?;
    println!("status:       {:?}", result.status);
    println!("steady state: {}", result.multiset);
    println!("firings:      {}", result.stats.firings_total());
    for (r, n) in prog
        .reactions
        .iter()
        .zip(&result.stats.firings_per_reaction)
    {
        println!("  {:12} {n}", r.name);
    }
    if let Some(trace) = result.trace {
        println!("trace:");
        for rec in trace.iter().take(50) {
            println!(
                "  #{:<4} {:8} consumed {:?} produced {:?}",
                rec.step,
                rec.reaction,
                rec.consumed
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>(),
                rec.produced
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
            );
        }
        if trace.len() > 50 {
            println!("  … {} more", trace.len() - 50);
        }
    }
    Ok(())
}

fn cmd_reverse(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.gamma>")?)?;
    let prog = parse_program(&src).map_err(|e| e.to_string())?;
    let initial = need_multiset(args)?;
    let g = gamma_to_dataflow(&prog, &initial).map_err(|e| e.to_string())?;
    if args.dot {
        print!("{}", g.to_dot());
    } else {
        println!(
            "stitched: {} nodes, {} edges, outputs on {:?}",
            g.node_count(),
            g.edge_count(),
            g.output_labels()
                .iter()
                .map(|l| l.as_str())
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.mc>")?)?;
    let g = gammaflow::frontend::compile(&src).map_err(|e| e.to_string())?;
    let report = check_equivalence(
        &g,
        &CheckConfig {
            seeds: vec![args.seed, args.seed + 1, args.seed + 2],
            parallel_workers: 2,
            ..CheckConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    println!("equivalent:        {}", report.equivalent);
    println!("dataflow outputs:  {}", report.dataflow_outputs);
    for (seed, out) in &report.gamma_outputs {
        if *seed == u64::MAX {
            println!("gamma (parallel):  {out}");
        } else {
            println!("gamma (seed {seed}):    {out}");
        }
    }
    if let Some(m) = &report.mismatch {
        println!("MISMATCH: {m}");
        return Err("models disagree".into());
    }
    Ok(())
}

fn cmd_fuse(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.gamma>")?)?;
    let prog = parse_program(&src).map_err(|e| e.to_string())?;
    let protected: Vec<Symbol> = args.protect.iter().map(|l| Symbol::intern(l)).collect();
    let (mut fused, report) = fuse_all(&prog, &protected);
    // Canonical variable names (id1, id2, …) keep fused output readable.
    for r in &mut fused.reactions {
        *r = canonicalize_vars(r);
    }
    println!(
        "# fused {} -> {} reactions; steps: {:?}",
        report.before, report.after, report.fused
    );
    println!("{}", pretty_program(&fused));
    Ok(())
}

fn cmd_reuse(args: &Args) -> Result<(), String> {
    let src = read_file(args.positional.first().ok_or("missing <file.gamma>")?)?;
    let prog = parse_program(&src).map_err(|e| e.to_string())?;
    let initial = need_multiset(args)?;
    let result = Session::build(&prog)
        .record_trace(true)
        .selection(Selection::Seeded(args.seed))
        .run(initial)
        .map_err(|e| e.to_string())?;
    let report = analyze_reuse(result.trace.as_deref().unwrap_or(&[]));
    println!(
        "trace: {} firings, {} redundant ({:.1}% memoizable)",
        report.total,
        report.redundant,
        report.ratio() * 100.0
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10}",
        "reaction", "firings", "distinct", "reuse"
    );
    for row in &report.per_reaction {
        println!(
            "{:<16} {:>10} {:>10} {:>10}",
            row.name,
            row.firings,
            row.distinct,
            row.redundant()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage();
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "compile" => cmd_compile(&args),
        "run-df" => cmd_run_df(&args),
        "convert" => cmd_convert(&args),
        "run-gamma" => cmd_run_gamma(&args),
        "reverse" => cmd_reverse(&args),
        "check" => cmd_check(&args),
        "fuse" => cmd_fuse(&args),
        "reuse" => cmd_reuse(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
