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
//!
//! A trace written by an older build may hold events of a kind that has
//! since been removed (`StealMiss`, `AnchoredConfirms`). Such a record is
//! skipped and counted, as long as its envelope parses; any other line
//! that is not a trace record is an error.

use gammaflow_gamma::{TraceEvent, TraceRecord, MAIN_WORKER};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The service-side tenant tag spliced ahead of each record by
/// `gammad`'s trace sink; absent on single-session traces.
#[derive(serde::Deserialize)]
struct TenantTag {
    tenant: Option<String>,
}

/// Event kinds that earlier builds emitted and this one no longer has.
const RETIRED_KINDS: &[&str] = &["StealMiss", "AnchoredConfirms"];

/// A trace record with its event left unparsed, so that a line of a
/// retired event kind can be told apart from a malformed one. The
/// envelope fields are parsed only to check that they are there.
#[allow(dead_code)]
#[derive(serde::Deserialize)]
struct Envelope {
    seq: u64,
    worker: i64,
    wseq: u64,
    wave: u64,
    event: serde_json::Value,
}

/// The retired event kind `line` carries, if it is a well-formed record
/// envelope around one.
fn retired_kind(line: &str) -> Option<&'static str> {
    let envelope: Envelope = serde_json::from_str(line).ok()?;
    let serde_json::Value::Map(fields) = &envelope.event else {
        return None;
    };
    let [(kind, _)] = fields.as_slice() else {
        return None;
    };
    RETIRED_KINDS.iter().copied().find(|k| k == kind)
}

/// The records of one trace file, filtered to a tenant if one is given.
struct Parsed {
    records: Vec<TraceRecord>,
    /// Records per tenant tag, over the whole file.
    tenants: BTreeMap<String, u64>,
    /// Records of other tenants dropped by the filter.
    other_tenants: u64,
    /// Records of retired event kinds, per kind, in first-seen order.
    retired: Vec<(&'static str, u64)>,
}

fn parse(path: &str, text: &str, tenant: Option<&str>) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        records: Vec::new(),
        tenants: BTreeMap::new(),
        other_tenants: 0,
        retired: Vec::new(),
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let tag: Option<String> = serde_json::from_str::<TenantTag>(line)
            .ok()
            .and_then(|t| t.tenant);
        if let Some(t) = &tag {
            *parsed.tenants.entry(t.clone()).or_default() += 1;
        }
        if let Some(want) = tenant {
            if tag.as_deref() != Some(want) {
                parsed.other_tenants += 1;
                continue;
            }
        }
        match serde_json::from_str::<TraceRecord>(line) {
            Ok(rec) => parsed.records.push(rec),
            Err(e) => {
                let kind = retired_kind(line)
                    .ok_or_else(|| format!("{path}:{}: not a trace record: {e}", i + 1))?;
                match parsed.retired.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => parsed.retired.push((kind, 1)),
                }
            }
        }
    }
    Ok(parsed)
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
    let Parsed {
        records,
        tenants,
        other_tenants,
        retired,
    } = parse(path, &text, tenant)?;
    if !retired.is_empty() {
        let counts: Vec<String> = retired.iter().map(|(k, n)| format!("{k} {n}")).collect();
        println!(
            "skipped records of retired event kinds: {}",
            counts.join(", ")
        );
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
        Some(want) => {
            println!("tenant filter {want:?}: {other_tenants} other-stream records skipped")
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    const WAVE_START: &str = r#"{"seq":0,"worker":-1,"wseq":0,"wave":0,"event":{"WaveStart":{"wave":0,"engine":"seq/rete"}}}"#;

    #[test]
    fn records_of_retired_kinds_are_skipped_and_counted() {
        let text = [
            WAVE_START,
            r#"{"seq":1,"worker":0,"wseq":4,"wave":0,"event":{"StealMiss":{"reaction":2}}}"#,
            r#"{"seq":2,"worker":-1,"wseq":1,"wave":0,"event":{"AnchoredConfirms":{"searches":3}}}"#,
        ]
        .join("\n");
        let parsed = parse("old.jsonl", &text, None).expect("old traces stay readable");
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.records[0].kind(), "wave_start");
        assert_eq!(
            parsed.retired,
            vec![("StealMiss", 1), ("AnchoredConfirms", 1)]
        );
    }

    #[test]
    fn other_malformed_lines_still_fail() {
        for bad in [
            // An event kind that never existed.
            r#"{"seq":1,"worker":-1,"wseq":1,"wave":0,"event":{"NoSuchKind":{}}}"#,
            // A retired kind without a complete envelope.
            r#"{"seq":1,"worker":-1,"wave":0,"event":{"StealMiss":{"reaction":2}}}"#,
            // A current kind with a malformed payload.
            r#"{"seq":1,"worker":-1,"wseq":1,"wave":0,"event":{"Drained":{"bag_len":"many"}}}"#,
            "not json",
        ] {
            let text = format!("{WAVE_START}\n{bad}");
            let err = parse("bad.jsonl", &text, None).err();
            assert!(
                err.as_deref()
                    .is_some_and(|e| e.starts_with("bad.jsonl:2:")),
                "{bad}: {err:?}"
            );
        }
    }
}
