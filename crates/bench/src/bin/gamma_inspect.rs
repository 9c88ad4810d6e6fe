//! `gamma-inspect`: pretty-print a JSONL trace produced by the gamma
//! telemetry layer (`GAMMAFLOW_TRACE=path` or a
//! [`JsonlSink`](gammaflow_gamma::JsonlSink)).
//!
//! ```sh
//! GAMMAFLOW_TRACE=/tmp/trace.jsonl cargo run --example streaming_session
//! cargo run -p gammaflow-bench --bin gamma-inspect -- /tmp/trace.jsonl
//! cargo run -p gammaflow-bench --bin gamma-inspect -- /tmp/trace.jsonl --top 5
//! cargo run -p gammaflow-bench --bin gamma-inspect -- /tmp/gammad.jsonl --tenant t7
//! ```
//!
//! Prints four views of the stream: an event-kind census, a one-line
//! arena census (per-label element traffic — the id-resolution pressure
//! on each label's payload arena), a per-worker timeline (one row per
//! worker per wave, in global-sequence order), and a top-N per-reaction
//! table aggregated from the `firing` events.
//!
//! A multi-tenant `gammad` trace interleaves every tenant's records in
//! one file, each line carrying a `tenant` key ahead of the plain
//! record. `--tenant <id>` restricts every view to that stream;
//! without it, a tenant census is printed above the event census.

use gammaflow_gamma::{TraceEvent, TraceRecord, MAIN_WORKER};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The service-side tenant tag spliced ahead of each record by
/// `gammad`'s trace sink; absent on single-session traces.
#[derive(serde::Deserialize)]
struct TenantTag {
    tenant: Option<String>,
}

/// Aggregated per-reaction figures from the stream's `firing` events.
#[derive(Default)]
struct ReactionAgg {
    fired: u64,
    consumed: u64,
    produced: u64,
    match_ns: u64,
}

/// One worker's per-wave activity row.
#[derive(Default)]
struct WorkerWave {
    events: u64,
    firings: u64,
    published: u64,
    processed: u64,
    first_seq: u64,
    last_seq: u64,
}

fn worker_name(w: i64) -> String {
    if w == MAIN_WORKER {
        "main".to_string()
    } else {
        format!("w{w}")
    }
}

fn run(path: &str, top: usize, tenant: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut tenants: BTreeMap<String, u64> = BTreeMap::new();
    let mut skipped = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let tag: Option<String> = serde_json::from_str::<TenantTag>(line)
            .ok()
            .and_then(|t| t.tenant);
        if let Some(t) = &tag {
            *tenants.entry(t.clone()).or_default() += 1;
        }
        if let Some(want) = tenant {
            if tag.as_deref() != Some(want) {
                skipped += 1;
                continue;
            }
        }
        let rec: TraceRecord = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not a trace record: {e}", i + 1))?;
        records.push(rec);
    }
    if records.is_empty() {
        if let Some(want) = tenant {
            let known: Vec<&str> = tenants.keys().map(String::as_str).collect();
            return Err(format!(
                "{path}: no records for tenant {want:?} (tenants in file: {})",
                if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(", ")
                }
            ));
        }
        return Err(format!("{path}: no trace records"));
    }
    match tenant {
        Some(want) => println!("tenant filter {want:?}: {skipped} other-stream records skipped"),
        None if !tenants.is_empty() => {
            println!("tenant census ({} streams):", tenants.len());
            for (t, n) in &tenants {
                println!("  {t:<20} {n:>8}");
            }
        }
        None => {}
    }

    // Census: event kinds in first-seen order.
    let mut census: Vec<(&'static str, u64)> = Vec::new();
    for r in &records {
        match census.iter_mut().find(|(k, _)| *k == r.kind()) {
            Some((_, n)) => *n += 1,
            None => census.push((r.kind(), 1)),
        }
    }
    println!("{path}: {} records", records.len());
    for (kind, n) in &census {
        println!("  {kind:<20} {n:>8}");
    }

    // Arena census: per-label element traffic in the firing stream.
    // Every consumed/produced reference is an id resolution against that
    // label's payload arena, so this is the stream's arena pressure.
    let mut label_refs: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut consumed_total, mut produced_total) = (0u64, 0u64);
    for r in &records {
        if let TraceEvent::Firing {
            consumed, produced, ..
        } = &r.event
        {
            consumed_total += consumed.len() as u64;
            produced_total += produced.len() as u64;
            for l in consumed.iter().chain(produced) {
                *label_refs.entry(l.as_str()).or_default() += 1;
            }
        }
    }
    let mut busiest: Vec<(&str, u64)> = label_refs.iter().map(|(l, n)| (*l, *n)).collect();
    busiest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    busiest.truncate(3);
    let busiest: Vec<String> = busiest.iter().map(|(l, n)| format!("{l} {n}")).collect();
    println!(
        "arena census: {} labels, {} element refs (consumed {}, produced {}); busiest: {}",
        label_refs.len(),
        consumed_total + produced_total,
        consumed_total,
        produced_total,
        if busiest.is_empty() {
            "-".to_string()
        } else {
            busiest.join(", ")
        }
    );

    // Per-worker timeline: one row per (wave, worker), ordered by the
    // first global sequence number seen in that cell.
    let mut timeline: BTreeMap<(u64, i64), WorkerWave> = BTreeMap::new();
    for r in &records {
        let cell = timeline.entry((r.wave, r.worker)).or_default();
        if cell.events == 0 {
            cell.first_seq = r.seq;
        }
        cell.events += 1;
        cell.last_seq = r.seq;
        match &r.event {
            TraceEvent::Firing { .. } => cell.firings += 1,
            TraceEvent::DeltaPublished { .. } => cell.published += 1,
            TraceEvent::DeltaProcessed { .. } => cell.processed += 1,
            _ => {}
        }
    }
    println!("\nper-worker timeline (wave, worker, seq span):");
    println!(
        "  {:>5} {:>6} {:>13} {:>8} {:>8} {:>10} {:>10}",
        "wave", "worker", "seq", "events", "firings", "published", "processed"
    );
    for ((wave, worker), cell) in &timeline {
        println!(
            "  {:>5} {:>6} {:>6}..{:<5} {:>8} {:>8} {:>10} {:>10}",
            wave,
            worker_name(*worker),
            cell.first_seq,
            cell.last_seq,
            cell.events,
            cell.firings,
            cell.published,
            cell.processed
        );
    }

    // Top-N reactions by fired count.
    let mut reactions: BTreeMap<String, ReactionAgg> = BTreeMap::new();
    for r in &records {
        if let TraceEvent::Firing {
            name,
            consumed,
            produced,
            match_ns,
            ..
        } = &r.event
        {
            let agg = reactions.entry(name.clone()).or_default();
            agg.fired += 1;
            agg.consumed += consumed.len() as u64;
            agg.produced += produced.len() as u64;
            agg.match_ns += match_ns;
        }
    }
    let mut ranked: Vec<(String, ReactionAgg)> = reactions.into_iter().collect();
    ranked.sort_by(|a, b| b.1.fired.cmp(&a.1.fired).then(a.0.cmp(&b.0)));
    ranked.truncate(top);
    println!("\ntop {} reactions by firings:", ranked.len());
    println!(
        "  {:<16} {:>8} {:>9} {:>9} {:>12}",
        "reaction", "fired", "consumed", "produced", "match_ns"
    );
    for (name, agg) in &ranked {
        println!(
            "  {:<16} {:>8} {:>9} {:>9} {:>12}",
            name, agg.fired, agg.consumed, agg.produced, agg.match_ns
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut top = 10usize;
    let mut tenant: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                top = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--top needs a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--tenant" => {
                tenant = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--tenant needs a tenant id");
                    std::process::exit(2);
                }));
                i += 2;
            }
            a if path.is_none() => {
                path = Some(a.to_string());
                i += 1;
            }
            a => {
                eprintln!("unexpected argument: {a}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: gamma-inspect <trace.jsonl> [--top N] [--tenant ID]");
        return ExitCode::from(2);
    };
    match run(&path, top, tenant.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gamma-inspect: {e}");
            ExitCode::FAILURE
        }
    }
}
