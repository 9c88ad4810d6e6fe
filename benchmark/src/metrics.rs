//! The frozen vocabulary: workload names, end-to-end metrics with their
//! regression bounds, and the per-layer sheet with — for every layer
//! metric — the end-to-end metric and workload it is predicted to move
//! and a workload predicted flat. `BENCHMARK.json` is generated from
//! these tables (`gbench manifest`) and a unit test keeps the committed
//! file equal to them.

use serde::Content;

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 8;

/// A workload's name, why it exists, and which tail percentile its op
/// count supports (the value reported as `wave_p99_us`).
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// What one timed op is.
    pub op: &'static str,
    /// Tail percentile reported under `wave_p99_us`: p99 only where a run
    /// yields >= 1000 ops, else the highest percentile that keeps >= 10
    /// samples beyond it at this workload's op count. Fixed per workload
    /// so a faster engine cannot change what the name measures.
    pub tail_pct: u32,
    /// Runs on the sequential engine, so its counters repeat exactly for
    /// one seed.
    pub sequential: bool,
}

pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "sieve_guard",
        why: "primes(2000): guarded 2-ary join; time is guard VM + alpha-bucket enumeration in Rete maintenance, spill idle",
        op: "repeat: clone input + Session start + run_to_stable + finish",
        tail_pct: 50,
        sequential: true,
    },
    WorkloadDef {
        name: "fold_unguarded",
        why: "sum of 2048: unguarded fold, zero guard evals, n^2 terminal tokens, watermark trips; spill/re-promote does the work",
        op: "repeat: clone input + Session start + run_to_stable + finish",
        tail_pct: 50,
        sequential: true,
    },
    WorkloadDef {
        name: "fold_sharded_w2",
        why: "same fold on ShardedRete with 2 workers: slice maintenance, delta mailboxes, claim_and_replace, stealing on the path",
        op: "repeat: clone input + Session start + run_to_stable + finish",
        tail_pct: 50,
        sequential: false,
    },
    WorkloadDef {
        name: "loops_tagged",
        why: "Algorithm-1 image of 16 Fig.-2 loops: 144 reactions, tag-partitioned tiny joins, inctag; bypasses guard and spill work",
        op: "repeat: dataflow_to_gamma + Session start + run_to_stable + finish",
        tail_pct: 50,
        sequential: true,
    },
    WorkloadDef {
        name: "filter_1m",
        why: "div6 filter over 10^6 elements in one bucket: working set >> cache; bag edit, arena resolve, bucket iteration dominate",
        op: "repeat: clone input + Session start + run_to_stable + finish",
        tail_pct: 50,
        sequential: true,
    },
    WorkloadDef {
        name: "stream_window",
        why: "windowed sum, 64-element waves, history below the spill watermark: steady O(delta) streaming, all payloads distinct",
        op: "wave: inject 8 windows x 8 readings + run_to_stable (56 firings)",
        tail_pct: 99,
        sequential: true,
    },
    WorkloadDef {
        name: "stream_longlived",
        why: "same program on 40000 retained windows, past the watermark: the long-lived tenant regime where small waves cost ms",
        op: "wave: inject 4 windows x 2 readings + run_to_stable (4 firings)",
        tail_pct: 90,
        sequential: true,
    },
    WorkloadDef {
        name: "service_small_waves",
        why: "2048 ServiceRuntime tenants, 4-element waves: ready queue, slot lock, pool lease round-trip, wave start/finish cost",
        op: "wave: one run_next_wave returning Some (4 firings)",
        tail_pct: 99,
        sequential: false,
    },
];

/// The workload called `name`, or the error the command line prints.
pub fn workload(name: &str) -> Result<&'static WorkloadDef, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of: {}", names.join(", "))
    })
}

/// An end-to-end metric: what a user of `Session` / `ServiceRuntime`
/// sees. `bound` is the share of the parent's median by which it may
/// get worse before a change counts as a regression.
///
/// The time bounds sit at the manifest's maximum because this 2-vCPU
/// box drifts by more than the 10–15 % the issue asked for: identical
/// code measured `stream_longlived` waves at 52 ms and at 90 ms, and
/// `service_small_waves` waves at 49 µs and at 104 µs, minutes apart.
/// A bound is there to catch what drift cannot explain; a claimed gain
/// rests on paired alternating runs and on the exact counters.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndDef; 5] = [
    EndToEndDef {
        name: "firings_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "batch: closed-form firings / median repeat time; streaming and service: median over blocks of waves of (block firings / block wall)",
    },
    EndToEndDef {
        name: "wave_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "median op time (op = repeat on batch workloads, wave on streaming and service)",
    },
    EndToEndDef {
        name: "wave_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "tail op time: p99 where a run has >= 1000 ops (stream_window, service_small_waves), p90 on stream_longlived, p50 on batch workloads",
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM once set-up and the workload's fixed prefix of ops are done (later ops only fill the run's seconds)",
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median of 5 complete set-ups (filter_1m: one): input + oracle generation, compile, Session start / tenant registration, warm-up repeats",
    },
];

/// A per-layer metric (layer = module). `moves` names the end-to-end
/// metric and workload a change to the layer is predicted to move;
/// `flat` names a workload predicted not to move.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub flat: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    flat: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
        flat,
    }
}

const ARENA_MOVES: &str =
    "firings_per_s on loops_tagged, stream_window, filter_1m; peak_rss_mb on stream_window, filter_1m";
const BAG_MOVES: &str = "firings_per_s on filter_1m (one huge bucket), loops_tagged (tiny buckets)";
const SHARDED_MOVES: &str = "firings_per_s on fold_sharded_w2; wave_p50_us on service_small_waves";
const VM_MOVES: &str = "firings_per_s on sieve_guard (most), filter_1m (some)";
const VM_FLAT: &str = "fold_unguarded (0 guard evals), loops_tagged, service_small_waves";
const RETE_MOVES: &str =
    "firings_per_s on fold_unguarded (tokens, spill), sieve_guard (ns_per_guard_eval); wave_p50_us on stream_longlived";
const SCHED_MOVES: &str = "firings_per_s on sieve_guard, fold_unguarded, loops_tagged";
const SESSION_MOVES: &str =
    "wave_p50_us on service_small_waves, stream_window; firings_per_s on loops_tagged";
const PAR_MOVES: &str = "firings_per_s on fold_sharded_w2; wave_p50_us on service_small_waves";
const SEQ_FLAT: &str = "sieve_guard, fold_unguarded, loops_tagged (sequential engine)";
const SERVICE_MOVES: &str = "firings_per_s, wave_p50_us, setup_s on service_small_waves";
const NOT_SERVICE: &str = "every workload but service_small_waves";
const CORE_MOVES: &str = "firings_per_s, setup_s on loops_tagged";
const NOT_LOOPS: &str = "every workload but loops_tagged";

pub const PER_LAYER: [LayerDef; 71] = [
    // Counted once per op; exact on the sequential engine.
    layer(
        "firings",
        "count",
        "lower",
        "none: the closed-form firing count of one op",
        "all",
    ),
    // multiset::arena
    layer(
        "arena.intern_miss_ns",
        "ns",
        "lower",
        ARENA_MOVES,
        "sieve_guard (payloads repeat)",
    ),
    layer(
        "arena.intern_hit_ns",
        "ns",
        "lower",
        ARENA_MOVES,
        "sieve_guard",
    ),
    layer(
        "arena.resolve_ns",
        "ns",
        "lower",
        ARENA_MOVES,
        "sieve_guard",
    ),
    layer(
        "arena.hit_ratio",
        "ratio",
        "higher",
        ARENA_MOVES,
        "sieve_guard",
    ),
    layer(
        "arena.slots",
        "count",
        "lower",
        "peak_rss_mb on stream_window, filter_1m",
        "sieve_guard",
    ),
    layer(
        "arena.bytes",
        "bytes",
        "lower",
        "peak_rss_mb on stream_window, filter_1m",
        "sieve_guard",
    ),
    layer(
        "arena.bytes_per_firing",
        "bytes/firing",
        "lower",
        "peak_rss_mb on stream_window",
        "sieve_guard",
    ),
    // multiset::indexed
    layer(
        "bag.insert_id_ns",
        "ns",
        "lower",
        BAG_MOVES,
        "service_small_waves; setup_s everywhere",
    ),
    layer(
        "bag.remove_id_ns",
        "ns",
        "lower",
        BAG_MOVES,
        "service_small_waves",
    ),
    layer(
        "bag.count_id_ns",
        "ns",
        "lower",
        BAG_MOVES,
        "service_small_waves",
    ),
    layer(
        "bag.bucket_probe_ns",
        "ns",
        "lower",
        BAG_MOVES,
        "service_small_waves",
    ),
    layer(
        "bag.clone_us",
        "us",
        "lower",
        "firings_per_s on filter_1m (clone is in the repeat)",
        "stream_window",
    ),
    // multiset::sharded
    layer(
        "sharded.claim_and_replace_ns",
        "ns",
        "lower",
        SHARDED_MOVES,
        SEQ_FLAT,
    ),
    layer(
        "sharded.claim_failure_ratio",
        "ratio",
        "lower",
        SHARDED_MOVES,
        SEQ_FLAT,
    ),
    // gamma::compiled
    layer(
        "compiled.compile_us",
        "us",
        "lower",
        "setup_s on service_small_waves; firings_per_s on loops_tagged (compile is in the repeat)",
        "filter_1m",
    ),
    layer(
        "compiled.find_any_us",
        "us",
        "lower",
        "reference point for sched.*",
        "all (default config never rescans)",
    ),
    // gamma::vm
    layer("vm.guard_eval_ns", "ns", "lower", VM_MOVES, VM_FLAT),
    layer("vm.action_eval_ns", "ns", "lower", VM_MOVES, VM_FLAT),
    layer("vm.tier_ups", "count", "higher", VM_MOVES, VM_FLAT),
    // gamma::rete — time
    layer(
        "rete.build_us",
        "us",
        "lower",
        RETE_MOVES,
        "service_small_waves",
    ),
    layer(
        "rete.pick_ready_ns",
        "ns",
        "lower",
        "wave_p50_us on stream_longlived",
        "service_small_waves",
    ),
    layer(
        "rete.pick_firing_ns",
        "ns",
        "lower",
        RETE_MOVES,
        "service_small_waves",
    ),
    layer(
        "rete.maintain_ns",
        "ns",
        "lower",
        RETE_MOVES,
        "service_small_waves",
    ),
    layer(
        "rete.inject_ns_per_elem",
        "ns/elem",
        "lower",
        "wave_p50_us on stream_window, stream_longlived",
        "service_small_waves",
    ),
    layer(
        "rete.ns_per_guard_eval",
        "ns/eval",
        "lower",
        "firings_per_s on sieve_guard",
        "fold_unguarded (0 guard evals)",
    ),
    // gamma::rete — work and waste
    layer(
        "rete.tokens_created_per_firing",
        "tokens/firing",
        "lower",
        "firings_per_s on fold_unguarded",
        "service_small_waves",
    ),
    layer(
        "rete.peak_live_tokens",
        "count",
        "lower",
        "firings_per_s, peak_rss_mb on fold_unguarded",
        "service_small_waves",
    ),
    layer(
        "rete.guard_evals_per_firing",
        "evals/firing",
        "lower",
        "firings_per_s on sieve_guard",
        "fold_unguarded",
    ),
    layer(
        "rete.guard_reject_ratio",
        "ratio",
        "lower",
        "firings_per_s on sieve_guard",
        "fold_unguarded",
    ),
    layer(
        "rete.dedup_hits",
        "count",
        "lower",
        "firings_per_s on fold_unguarded",
        "service_small_waves",
    ),
    layer(
        "rete.spill_demotions",
        "count",
        "lower",
        "firings_per_s on fold_unguarded",
        "sieve_guard, loops_tagged",
    ),
    layer(
        "rete.spill_probes_per_firing",
        "probes/firing",
        "lower",
        "wave_p50_us on stream_longlived; firings_per_s on fold_unguarded",
        "sieve_guard, loops_tagged",
    ),
    layer(
        "rete.spill_repromotions",
        "count",
        "lower",
        "firings_per_s on fold_unguarded",
        "sieve_guard, loops_tagged",
    ),
    // gamma::schedule / planner
    layer(
        "sched.rescan_run_ms",
        "ms",
        "lower",
        SCHED_MOVES,
        "filter_1m (not run: Rescan is quadratic there)",
    ),
    layer(
        "sched.default_over_rescan",
        "ratio",
        "lower",
        SCHED_MOVES,
        "filter_1m (not run)",
    ),
    // gamma::session
    layer(
        "session.start_us",
        "us",
        "lower",
        SESSION_MOVES,
        "sieve_guard",
    ),
    layer(
        "session.inject_us",
        "us",
        "lower",
        SESSION_MOVES,
        "sieve_guard",
    ),
    layer(
        "session.run_to_stable_us",
        "us",
        "lower",
        SESSION_MOVES,
        "none: carries every matcher change",
    ),
    layer(
        "session.finish_us",
        "us",
        "lower",
        SESSION_MOVES,
        "sieve_guard",
    ),
    layer(
        "session.wave_fixed_us",
        "us",
        "lower",
        SESSION_MOVES,
        "sieve_guard",
    ),
    layer(
        "session.snapshot_us",
        "us",
        "lower",
        "service.evict_us on service_small_waves",
        "all end-to-end metrics",
    ),
    layer(
        "session.snapshot_bytes",
        "bytes",
        "lower",
        "service.evict_us on service_small_waves",
        "all end-to-end metrics",
    ),
    layer(
        "session.restore_us",
        "us",
        "lower",
        "service.restore_inject_us on service_small_waves",
        "all end-to-end metrics",
    ),
    layer(
        "session.wave_p90_us",
        "us",
        "lower",
        "wave_p99_us on stream_longlived",
        "sieve_guard",
    ),
    layer(
        "session.overhead_share",
        "ratio",
        "lower",
        SESSION_MOVES,
        "sieve_guard",
    ),
    // gamma::parallel
    layer(
        "parallel.deltas_processed_per_firing",
        "deltas/firing",
        "lower",
        PAR_MOVES,
        SEQ_FLAT,
    ),
    layer(
        "parallel.steal_miss_ratio",
        "ratio",
        "lower",
        PAR_MOVES,
        SEQ_FLAT,
    ),
    layer(
        "parallel.claim_failure_ratio",
        "ratio",
        "lower",
        PAR_MOVES,
        SEQ_FLAT,
    ),
    layer(
        "parallel.shard_peak_tokens_max",
        "count",
        "lower",
        PAR_MOVES,
        SEQ_FLAT,
    ),
    layer(
        "parallel.w1_over_seq",
        "ratio",
        "lower",
        PAR_MOVES,
        SEQ_FLAT,
    ),
    // gamma::pool
    layer(
        "pool.lease_roundtrip_us",
        "us",
        "lower",
        "wave_p50_us on service_small_waves (a floor under it)",
        SEQ_FLAT,
    ),
    layer(
        "pool.leases",
        "count",
        "higher",
        "wave_p50_us on service_small_waves",
        SEQ_FLAT,
    ),
    layer(
        "pool.refusals",
        "count",
        "lower",
        "wave_p50_us on service_small_waves",
        SEQ_FLAT,
    ),
    // gamma::telemetry
    layer(
        "telemetry.ring_overhead_ratio",
        "ratio",
        "lower",
        "none should move (guards the tracing budget)",
        "all",
    ),
    layer(
        "telemetry.records_per_firing",
        "records/firing",
        "lower",
        "none should move",
        "all",
    ),
    // crates/service
    layer(
        "service.register_us",
        "us",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    layer(
        "service.inject_us",
        "us",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    layer(
        "service.idle_poll_ns",
        "ns",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    layer(
        "service.evict_us",
        "us",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    layer(
        "service.restore_inject_us",
        "us",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    layer(
        "service.finish_us",
        "us",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    layer(
        "service.metrics_scrape_ms",
        "ms",
        "lower",
        SERVICE_MOVES,
        NOT_SERVICE,
    ),
    // core / dataflow / frontend / lang: the paper's conversion path
    layer("frontend.compile_us", "us", "lower", CORE_MOVES, NOT_LOOPS),
    layer("core.df_to_gamma_us", "us", "lower", CORE_MOVES, NOT_LOOPS),
    layer("core.gamma_to_df_us", "us", "lower", CORE_MOVES, NOT_LOOPS),
    layer("lang.pretty_parse_us", "us", "lower", CORE_MOVES, NOT_LOOPS),
    layer(
        "dataflow.run_ms",
        "ms",
        "lower",
        "reference point for core.gamma_over_dataflow",
        NOT_LOOPS,
    ),
    layer(
        "core.gamma_over_dataflow",
        "ratio",
        "lower",
        "firings_per_s on loops_tagged",
        NOT_LOOPS,
    ),
    // the trace itself
    layer(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "none: cost of the benchmark's own spans",
        "all",
    ),
    layer(
        "trace.layer_sum_over_wall",
        "ratio",
        "higher",
        "none: share of replay wall the layer spans explain",
        "all",
    ),
];

/// Counters the sequential engine must repeat exactly for one seed, so
/// later changes may claim on them as counts.
pub const EXACT_COUNTERS: [&str; 4] = [
    "firings",
    "rete.tokens_created_per_firing",
    "rete.guard_evals_per_firing",
    "arena.slots",
];

/// The tables as markdown, embedded verbatim in `benchmark/README.md`
/// (a unit test keeps the two equal).
pub fn glossary() -> String {
    let mut out = String::from("### Workloads\n\n| name | op | tail | why it exists / which layer does the work |\n|---|---|---|---|\n");
    for w in &WORKLOADS {
        out += &format!(
            "| `{}` | {} | p{} | {} |\n",
            w.name, w.op, w.tail_pct, w.why
        );
    }
    out += "\n### End-to-end metrics\n\n| name | unit | better | bound | defined as |\n|---|---|---|---|---|\n";
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    out += "\n### Per-layer metrics\n\n| name | unit | better | predicted to move | predicted flat on |\n|---|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves, m.flat
        );
    }
    out
}

fn text(s: &str) -> Content {
    Content::Str(s.to_string())
}

fn object(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `BENCHMARK.json` these tables imply.
pub fn manifest() -> Content {
    let command = ["bash", "benchmark/run.sh"];
    object(vec![
        ("command", Content::Seq(command.map(text).to_vec())),
        ("paths", Content::Seq(vec![text("benchmark")])),
        ("run_seconds", Content::I64(RUN_SECONDS as i64)),
        (
            "workloads",
            Content::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Content::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", Content::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Content::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| legal_name(n)), "illegal name");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| legal_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| legal_unit(m.unit)));
        let better = |b: &str| b == "higher" || b == "lower";
        assert!(END_TO_END.iter().all(|m| better(m.better)));
        assert!(PER_LAYER.iter().all(|m| better(m.better)));

        // setup_s is there, in seconds, lower-is-better, with the
        // largest bound; no bound exceeds a quarter.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25));
        assert!(EXACT_COUNTERS
            .iter()
            .all(|c| PER_LAYER.iter().any(|m| m.name == *c)));
    }

    #[test]
    fn every_layer_metric_predicts_a_mover_and_a_flat_workload() {
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty() && !m.flat.is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn readme_embeds_the_glossary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        assert!(
            readme.contains(&glossary()),
            "paste `run.sh --glossary` into README.md"
        );
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Content = serde_json::from_str(&committed).expect("valid JSON");
        assert_eq!(committed, manifest(), "regenerate with `run.sh --manifest`");
    }
}
