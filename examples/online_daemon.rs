//! Online deployment: the Fig. 1 topology running live — per-host slave
//! daemons ingest samples tick by tick, models stay warm, and when the SLO
//! fires the master collects findings and pinpoints without retraining
//! anything.
//!
//! ```text
//! cargo run --release --example online_daemon
//! ```

use fchain::core::master::FleetMaster;
use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::FChainConfig;
use fchain::deps::{discover, DiscoveryConfig};
use fchain::metrics::{ComponentId, MetricKind};
use fchain::sim::{AppKind, FaultKind, RunConfig, Simulator};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Generate the "real world": a RUBiS run with a database memory leak.
    let run = Simulator::new(RunConfig::new(AppKind::Rubis, FaultKind::MemLeak, 9)).run();
    let t_v = run.violation_at.expect("leak violates the SLO");
    println!(
        "monitoring {} components; fault {} at db injected t={}, SLO fires t={t_v}",
        run.component_count(),
        run.fault.kind,
        run.fault.start
    );

    // One slave daemon per host: web+app1 on host A, app2+db on host B.
    let host_a = Arc::new(SlaveDaemon::new(FChainConfig::default()));
    let host_b = Arc::new(SlaveDaemon::new(FChainConfig::default()));
    let placement = |c: u32| -> &Arc<SlaveDaemon> {
        if c < 2 {
            &host_a
        } else {
            &host_b
        }
    };

    // Live ingestion: one 6-attribute sample per component per tick, up to
    // the violation.
    let start = Instant::now();
    for t in 0..=t_v {
        for c in 0..run.component_count() as u32 {
            let id = ComponentId(c);
            for kind in MetricKind::ALL {
                placement(c).ingest(MetricSample {
                    tick: t,
                    component: id,
                    kind,
                    value: run.metric(id, kind).at(t).expect("covered"),
                });
            }
        }
    }
    let ingest = start.elapsed();
    println!(
        "ingested {} samples in {:.1?} ({:.2} µs per 6-metric component-tick)",
        (t_v + 1) * run.component_count() as u64 * 6,
        ingest,
        ingest.as_micros() as f64 / ((t_v + 1) * run.component_count() as u64) as f64
    );

    // The master holds the offline-discovered dependency graph.
    let normal: Vec<_> = run
        .packets
        .iter()
        .filter(|p| p.tick < run.fault.start)
        .copied()
        .collect();
    let mut master = FleetMaster::new(FChainConfig::default());
    let app = master.add_tenant("default");
    master.register_slave(app, host_a.clone());
    master.register_slave(app, host_b.clone());
    master.set_dependencies(app, discover(&normal, &DiscoveryConfig::default()));

    // SLO violation: diagnose from the warm daemons — no retraining.
    let start = Instant::now();
    let report = master.diagnose(app, t_v);
    println!(
        "\ndiagnosis in {:.1?} (models were already warm):",
        start.elapsed()
    );
    for (c, onset) in report.propagation_chain() {
        let name = &run.model.components[c.index()].name;
        let mark = if run.fault.targets.contains(&c) {
            "  <- truly faulty"
        } else {
            ""
        };
        println!("  t={onset:>5}  {name}{mark}");
    }
    println!("pinpointed: {:?}", report.pinpointed);
    assert_eq!(report.pinpointed, run.fault.targets);
    println!("matches ground truth.");
}
