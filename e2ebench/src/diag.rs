//! `diag-short` and `diag-long`: a closed loop of diagnoses over the wire.
//!
//! Two pool daemons are served by `WireServer` over Unix-domain sockets
//! and reached through `RemoteSlave`. Every tenant's samples are ingested
//! up to its `t_v` during set-up, so the loop re-diagnoses frozen daemon
//! state: one client, one diagnosis in flight.

use crate::fleet::{
    bench_config, build_fleet, in_process_fleet, ingest_services, new_pool, reference_reports,
    replay, report_ok, score, ReplayRecord,
};
use crate::gen::{generate, ms, Inputs, Workload};
use crate::layers::{self, median, percentile, Layers};
use crate::trace::{Recorder, Tracer};
use crate::{sys, Run};
use fchain_core::slave::SlaveDaemon;
use fchain_core::{
    DiagnosisReport, FChainConfig, FleetMaster, IngestService, IngestStats, SlaveEndpoint,
};
use fchain_metrics::{AppId, Tick};
use fchain_wire::{RemoteSlave, WireAddr, WireServer};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Socket and connect deadline handed to servers and remote endpoints.
const SOCKET_DEADLINE: Duration = Duration::from_secs(60);

/// Diagnoses per fleet run before timing starts.
const WARM_UP: usize = 4;

/// Ingest replays after the measured loop, for `ingest_visible_p50_ms`.
/// One replay's median differs from the next by up to a fifth, for the
/// same seed too, so the metric pools many.
const INGEST_REPLAYS: usize = 16;

/// Ticks each of those replays covers. A tick's cost grows with the
/// history already stored and shrinks as tenants stop at their `t_v`, so
/// a median over each tenant's whole stream moves with the seed's spread
/// of `t_v`. No tenant of seeds 0–29 violated before tick 535, so on
/// these ticks every tenant streams and every seed offers the same load.
const INGEST_TICKS: Tick = 500;

/// Distinguishes the sockets of repeated set-ups in one process.
static SOCKET_NONCE: AtomicU64 = AtomicU64::new(0);

/// A staged closed-loop workload.
pub struct Fixture {
    /// The generated inputs.
    pub inputs: Inputs,
    seed: u64,
    config: FChainConfig,
    capacity: usize,
    pool: Vec<Arc<SlaveDaemon>>,
    /// Kept alive for the loop: dropping a server closes its listener.
    _servers: Vec<WireServer>,
    fleet: FleetMaster,
    traced: Option<FleetMaster>,
    apps: Vec<AppId>,
    /// One in-process sequential reference report per tenant.
    pub references: Vec<DiagnosisReport>,
    ingest: ReplayRecord,
    ingest_stats: Vec<IngestStats>,
}

impl Fixture {
    /// Tears the fixture down, keeping its set-up ingest measurements.
    ///
    /// Returns once the pool daemons are freed. Server connection
    /// handlers hold the daemons until they see their client hang up, so
    /// without the wait the next set-up would overlap this one's memory.
    pub fn into_ingest(self) -> (ReplayRecord, Vec<IngestStats>) {
        let Fixture {
            pool,
            _servers,
            fleet,
            traced,
            ingest,
            ingest_stats,
            ..
        } = self;
        let weak: Vec<Weak<SlaveDaemon>> = pool.iter().map(Arc::downgrade).collect();
        drop((pool, _servers, fleet, traced));
        let deadline = Instant::now() + SOCKET_DEADLINE;
        while weak.iter().any(|d| d.strong_count() > 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        (ingest, ingest_stats)
    }

    /// Pools an earlier set-up's ingest measurements into this one's, so
    /// the ingest metrics cover every set-up of the run.
    pub fn absorb_ingest(&mut self, (ingest, stats): (ReplayRecord, Vec<IngestStats>)) {
        self.ingest.merge(ingest);
        self.ingest_stats.extend(stats);
    }
}

/// Builds the workload: simulate, discover dependencies, build the pool,
/// ingest through the ingest service, serve and connect, compute the
/// reference reports, warm up. `tracer` adds a recording fleet.
pub fn setup(
    workload: Workload,
    seed: u64,
    run_dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Fixture, String> {
    let inputs = generate(workload, seed);
    let config = bench_config();
    let capacity = workload.capacity();
    let pool = new_pool(&config, capacity);
    let (reference_fleet, apps) = in_process_fleet(&config, &inputs, &pool);

    let services = ingest_services(&pool, seed);
    let ingest = replay(
        &inputs,
        &apps,
        &services,
        None,
        |t| t.violation_at,
        |_, _| {},
    );
    let ingest_stats: Vec<IngestStats> =
        services.into_iter().map(IngestService::shutdown).collect();
    if ingest_stats.iter().any(|s| s.lost() > 0) || ingest.refused > 0 {
        return Err("set-up ingest lost samples".to_string());
    }

    let servers = pool
        .iter()
        .map(|daemon| {
            let nonce = SOCKET_NONCE.fetch_add(1, Ordering::Relaxed);
            let path = run_dir.join(format!("{}-{nonce}.sock", std::process::id()));
            WireServer::serve(
                &WireAddr::Uds(path),
                Arc::clone(daemon),
                Some(SOCKET_DEADLINE),
            )
            .map_err(|e| format!("serve pool daemon: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Traced and untraced fleets each get their own connections.
    let connect = || -> Result<BTreeMap<(usize, AppId), Arc<RemoteSlave>>, String> {
        let mut remotes = BTreeMap::new();
        for &app in &apps {
            for (host, server) in servers.iter().enumerate() {
                let slave =
                    RemoteSlave::connect(server.addr().clone(), Some(app), Some(SOCKET_DEADLINE))
                        .map_err(|e| format!("connect to pool daemon {host}: {e}"))?;
                remotes.insert((host, app), Arc::new(slave));
            }
        }
        Ok(remotes)
    };
    let remotes = connect()?;
    let (fleet, _) = build_fleet(&config, &inputs, |host, app| {
        Arc::clone(&remotes[&(host, app)]) as Arc<dyn SlaveEndpoint>
    });
    let traced = match tracer {
        Some(tracer) => {
            let remotes = connect()?;
            Some(
                build_fleet(&config, &inputs, |host, app| {
                    let inner = Arc::clone(&remotes[&(host, app)]) as Arc<dyn SlaveEndpoint>;
                    Arc::new(Recorder::new(inner, Arc::clone(tracer), host, app))
                })
                .0,
            )
        }
        None => None,
    };

    let references = reference_reports(&reference_fleet, &apps, &inputs);
    // Warm-up over the wire. Connections were dialed by `connect` and the
    // reference pass already allocated every shard's analysis scratch.
    for (tenant, &app) in inputs.tenants.iter().zip(&apps).take(WARM_UP) {
        for fleet in std::iter::once(&fleet).chain(traced.as_ref()) {
            std::hint::black_box(fleet.diagnose(app, tenant.violation_at));
        }
    }
    if let Some(tracer) = tracer {
        // Warm-up collects are not part of any traced diagnosis.
        tracer.take_calls(0);
    }
    Ok(Fixture {
        inputs,
        seed,
        config,
        capacity,
        pool,
        _servers: servers,
        fleet,
        traced,
        apps,
        references,
        ingest,
        ingest_stats,
    })
}

/// Runs the closed loop for `seconds` and reports the workload's metrics.
///
/// With a tracer the loop alternates passes over every tenant between
/// the plain fleet with obs off and the recording fleet with obs on;
/// the traced passes feed the per-layer metrics and the latency ratio of
/// the two kinds of pass is the tracing overhead.
pub fn run(fx: &Fixture, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Run {
    let n = fx.inputs.tenants.len();
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut lag_ms = Vec::new();
    let mut first: Vec<Option<DiagnosisReport>> = vec![None; n];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut layers = Layers::default();

    let cpu_before = sys::cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut previous_done = started;
    let mut pass = 0usize;
    'outer: loop {
        let traced = match (tracer, &fx.traced) {
            (Some(tracer), Some(fleet)) if pass % 2 == 1 => Some((tracer, fleet)),
            _ => None,
        };
        fchain_obs::set_enabled(traced.is_some());
        for (k, first_report) in first.iter_mut().enumerate() {
            let issued = Instant::now();
            // A traced run needs one untraced and one traced pass.
            if issued >= deadline && (tracer.is_none() || pass >= 2) {
                break 'outer;
            }
            lag_ms.push(issued.duration_since(previous_done).as_secs_f64() * 1e3);
            let (app, t_v) = (fx.apps[k], fx.inputs.tenants[k].violation_at);
            let report = match traced {
                None => {
                    let report = fx.fleet.diagnose(app, t_v);
                    latencies.push(ms(issued));
                    report
                }
                Some((tracer, fleet)) => {
                    let (report, wall_ms) = layers.diagnose(tracer, fleet, app, t_v);
                    traced_latencies.push(wall_ms);
                    report
                }
            };
            previous_done = Instant::now();
            attempted += 1;
            if !report_ok(&report, &fx.references[k]) {
                failed += 1;
            }
            first_report.get_or_insert(report);
        }
        pass += 1;
    }
    fchain_obs::set_enabled(false);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_before;

    // Scored over one report per tenant; a tenant the loop never reached
    // scores its reference, which every timed report must equal anyway.
    let counts = score(
        &fx.inputs,
        first
            .iter()
            .zip(&fx.references)
            .map(|(f, r)| f.as_ref().unwrap_or(r)),
    );
    let mut run = Run::new(attempted, failed);
    run.metric(
        "diagnose_p50_ms",
        percentile(&latencies, 50.0),
        "ms",
        latencies.len(),
    );
    run.metric(
        "diagnose_p90_ms",
        percentile(&latencies, 90.0),
        "ms",
        latencies.len(),
    );
    run.metric(
        "diagnoses_per_s",
        latencies.len() as f64 / wall_s,
        "1/s",
        latencies.len(),
    );
    run.metric("replay_cpu_cores", cpu_s / wall_s, "cores", 1);
    run.counts = counts;

    if tracer.is_some() {
        layers.finish(&fx.pool, &fx.config);
        run.layers.extend(layers.metrics());
        run.layers
            .extend(layers::ingest_metrics(&fx.ingest, &fx.ingest_stats));
        run.layers.extend(layers::daemon_metrics(
            &fx.inputs,
            &fx.config,
            fx.capacity,
            |t| t.violation_at,
            &fx.pool,
        ));
        run.layers.extend(layers::setup_metrics(&fx.inputs));
        run.layers
            .push(("gen.lag_p99_ms", percentile(&lag_ms, 99.0), "ms"));
        run.layers.push((
            "trace.overhead_frac",
            median(&traced_latencies) / median(&latencies) - 1.0,
            "ratio",
        ));
        run.ledger_errors = layers.ledger_errors + layers.replay_mismatches;
    }
    run
}

/// Replays the first [`INGEST_TICKS`] ticks of the set-up ingest
/// [`INGEST_REPLAYS`] times, each into a fresh twin pool through fresh
/// ingest services as a set-up does, and adds `ingest_visible_p50_ms`
/// over those ticks (the p99 goes on an `info` line). Each replay is one
/// attempted operation, and a failed one if any sample was refused or
/// lost.
pub fn ingest_visibility(fx: &Fixture, run: &mut Run) {
    let mut record = ReplayRecord::default();
    for _ in 0..INGEST_REPLAYS {
        sys::release_freed_memory();
        let pool = new_pool(&fx.config, fx.capacity);
        let services = ingest_services(&pool, fx.seed);
        let replayed = replay(
            &fx.inputs,
            &fx.apps,
            &services,
            None,
            |t| t.violation_at.min(INGEST_TICKS - 1),
            |_, _| {},
        );
        let lost: u64 = services
            .into_iter()
            .map(|service| service.shutdown().lost())
            .sum();
        run.attempted += 1;
        if replayed.refused + lost > 0 {
            run.failed += 1;
        }
        record.merge(replayed);
    }
    let ticks = record.visible_ms.len();
    run.metric(
        "ingest_visible_p50_ms",
        percentile(&record.visible_ms, 50.0),
        "ms",
        ticks,
    );
    run.info.push((
        "ingest_visible_p99_ms",
        percentile(&record.visible_ms, 99.0),
        "ms",
        ticks,
    ));
}
