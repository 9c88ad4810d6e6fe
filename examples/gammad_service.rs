//! `gammad` in miniature: three tenants multiplexed over one service —
//! shared parked-worker pool, fair wave scheduling, per-tenant budgets,
//! idle eviction, and a tenant-tagged trace you can slice with
//! `gamma-inspect --tenant`.
//!
//! ```sh
//! cargo run --example gammad_service
//! cargo run -p gammaflow-bench --bin gamma-inspect -- /tmp/gammad_example.jsonl --tenant alice
//! ```

use gammaflow::gamma::{
    ElementSpec, EngineConfig, Expr, GammaProgram, Pattern, ReactionSpec, Scheduling, Selection,
};
use gammaflow::multiset::value::BinOp;
use gammaflow::multiset::{Element, ElementBag};
use gammaflow::service::{ServiceConfig, ServiceRuntime};

fn main() {
    // One shared program: double every `in` element into `out`.
    let program = GammaProgram::new(vec![ReactionSpec::new("double")
        .replace(Pattern::pair("x", "in"))
        .by(vec![ElementSpec::pair(
            Expr::bin(BinOp::Mul, Expr::var("x"), Expr::int(2)),
            "out",
        )])]);

    let trace_path = std::env::temp_dir().join("gammad_example.jsonl");
    let svc = ServiceRuntime::new(ServiceConfig {
        default_bag_budget: 64,
        trace_path: Some(trace_path.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
    .expect("trace file creates");

    // Three tenants; each may shape its own engine.
    for (tenant, scheduling, selection) in [
        ("alice", Scheduling::Rete, Selection::Seeded(0)),
        ("bob", Scheduling::Rescan, Selection::Seeded(7)),
        ("carol", Scheduling::Rescan, Selection::Deterministic),
    ] {
        svc.register(
            tenant,
            &program,
            EngineConfig {
                scheduling,
                selection,
                ..EngineConfig::default()
            },
            ElementBag::new(),
        )
        .expect("tenant registers");
    }

    // Interleaved traffic: inject a wave per tenant, let the FIFO
    // scheduler round-robin them, repeat.
    for round in 0..3i64 {
        for (t, tenant) in ["alice", "bob", "carol"].iter().enumerate() {
            let elems = (0..8).map(|j| Element::pair(round * 100 + t as i64 * 10 + j, "in"));
            let outcome = svc.inject(tenant, elems).expect("tenant known");
            assert!(outcome.is_accepted(), "well under the budget");
        }
        while let Some(report) = svc.run_next_wave().expect("wave runs") {
            println!(
                "round {round}: tenant {:<6} fired {:>3} in one wave",
                report.tenant, report.wave.fired
            );
        }
    }

    // Idle eviction: everyone is quiet now, so all three park as
    // snapshots; the next inject would restore transparently.
    let parked = svc.evict_idle(0).expect("census walks");
    println!("evicted {parked} idle tenants -> census {:?}", svc.census());

    // One scrape page for the whole process, keyed by tenant.
    let page = svc.metrics();
    for m in page
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("gammad_"))
    {
        println!("{:<36} {}", m.name, m.value);
    }

    svc.flush_trace();
    println!(
        "tenant-tagged trace at {} — try: gamma-inspect {} --tenant bob",
        trace_path.display(),
        trace_path.display()
    );
}
