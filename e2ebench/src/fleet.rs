//! Pool, fleet and reference construction shared by every workload, and
//! the tick-major replay through the ingest service.

use crate::gen::{generate, Inputs, Tenant, Workload, HOSTS, SHORT_WINDOW};
use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{
    DiagnosisReport, FChainConfig, FleetMaster, IngestConfig, IngestService, PushOutcome,
    SlaveEndpoint, TenantSlave,
};
use fchain_eval::Counts;
use fchain_metrics::{AppId, Tick};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The master and daemon configuration every workload runs: the default
/// pipeline with the ensemble on, and a fan-out deadline far above any
/// diagnosis here so a slow answer is never abandoned on a busy host.
pub fn bench_config() -> FChainConfig {
    let mut config = FChainConfig {
        lookback: SHORT_WINDOW,
        slave_deadline_ms: 60_000,
        ..FChainConfig::default()
    };
    config.ensemble.enabled = true;
    config
}

/// `HOSTS` fresh pool daemons retaining `capacity` samples per metric.
pub fn new_pool(config: &FChainConfig, capacity: usize) -> Vec<Arc<SlaveDaemon>> {
    (0..HOSTS)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone()).with_capacity(capacity)))
        .collect()
}

/// A fleet master with every tenant registered, its window and
/// dependency evidence installed, and one endpoint per pool host from
/// `endpoint(host, app)`. Returns the master and the tenants' ids in
/// input order.
pub fn build_fleet(
    config: &FChainConfig,
    inputs: &Inputs,
    mut endpoint: impl FnMut(usize, AppId) -> Arc<dyn SlaveEndpoint>,
) -> (FleetMaster, Vec<AppId>) {
    let mut fleet = FleetMaster::new(config.clone());
    let mut apps = Vec::with_capacity(inputs.tenants.len());
    for tenant in &inputs.tenants {
        let app = fleet.add_tenant(&tenant.name);
        if tenant.lookback != config.lookback {
            fleet.set_tenant_lookback(app, tenant.lookback);
        }
        for host in 0..HOSTS {
            fleet.register_slave(app, endpoint(host, app));
        }
        if let Some(deps) = &tenant.deps {
            fleet.set_dependencies(app, deps.clone());
        }
        apps.push(app);
    }
    (fleet, apps)
}

/// A fleet master reaching `pool` through in-process `TenantSlave`
/// views.
pub fn in_process_fleet(
    config: &FChainConfig,
    inputs: &Inputs,
    pool: &[Arc<SlaveDaemon>],
) -> (FleetMaster, Vec<AppId>) {
    build_fleet(config, inputs, |host, app| {
        Arc::new(TenantSlave::new(Arc::clone(&pool[host]), app))
    })
}

/// The reference reports: the sequential path
/// (`FleetMaster::diagnose_sequential`) of an in-process fleet, one per
/// tenant at its `t_v`.
pub fn reference_reports(
    fleet: &FleetMaster,
    apps: &[AppId],
    inputs: &Inputs,
) -> Vec<DiagnosisReport> {
    inputs
        .tenants
        .iter()
        .zip(apps)
        .map(|(t, &app)| fleet.diagnose_sequential(app, t.violation_at))
        .collect()
}

/// Whether a timed report is correct: identical verdict, pinpointed set,
/// findings and coverage to the reference, every slave answered and no
/// component left blind.
pub fn report_ok(report: &DiagnosisReport, reference: &DiagnosisReport) -> bool {
    report == reference
        && report.coverage.coverage == 1.0
        && report.coverage.unreachable_components.is_empty()
}

/// Set-semantics precision/recall counts of one report per tenant.
pub fn score<'a>(
    inputs: &Inputs,
    reports: impl IntoIterator<Item = &'a DiagnosisReport>,
) -> Counts {
    let mut counts = Counts::default();
    for (tenant, report) in inputs.tenants.iter().zip(reports) {
        counts.add_case(&report.pinpointed, &tenant.truth);
    }
    counts
}

/// The seed of the accuracy panel: `precision`/`recall` are scored on
/// the workload's tenants at this seed, whatever seed the run times.
pub const PANEL_SEED: u64 = 0;

/// Precision/recall counts (and tenant count) of the reference reports
/// over the workload's accuracy panel (its tenants at [`PANEL_SEED`], fed exactly to `t_v`).
///
/// Accuracy varies by a third or more between draws of a few dozen
/// tenants, far beyond any regression bound a run could hold, so the
/// accuracy gate scores one fixed draw: it moves only when the program's
/// answers move. The timed reports of every run must equal their own
/// references, so the program's accuracy on the timed draw is printed
/// alongside but not gated.
pub fn panel_counts(workload: Workload) -> (Counts, usize) {
    let inputs = generate(workload, PANEL_SEED);
    let config = bench_config();
    let pool = new_pool(&config, workload.capacity());
    let (fleet, apps) = in_process_fleet(&config, &inputs, &pool);
    feed_until_violation(&inputs, &pool, &apps);
    let counts = score(&inputs, &reference_reports(&fleet, &apps, &inputs));
    (counts, inputs.tenants.len())
}

/// Feeds every tenant directly (no ingest service) up to its `t_v` —
/// the state a daemon has when ingest stopped exactly at the violation.
pub fn feed_until_violation(inputs: &Inputs, pool: &[Arc<SlaveDaemon>], apps: &[AppId]) {
    let mut batch = Vec::new();
    for (i, (tenant, &app)) in inputs.tenants.iter().zip(apps).enumerate() {
        for (host, daemon) in pool.iter().enumerate() {
            batch.clear();
            // Component-major batches lock each shard once.
            for component in tenant.components() {
                if Tenant::host_of(i, component) != host {
                    continue;
                }
                for tick in 0..=tenant.violation_at {
                    for kind in fchain_metrics::MetricKind::ALL {
                        if let Some(value) =
                            tenant.series[component.0 as usize][kind.index()].at(tick)
                        {
                            batch.push(MetricSample {
                                tick,
                                component,
                                kind,
                                value,
                            });
                        }
                    }
                }
            }
            daemon.ingest_batch_for(app, &batch);
        }
    }
}

/// One ingest service (block policy, four rings, one drainer) per pool
/// daemon.
pub fn ingest_services(pool: &[Arc<SlaveDaemon>], seed: u64) -> Vec<IngestService> {
    pool.iter()
        .map(|daemon| {
            IngestService::spawn(
                Arc::clone(daemon),
                IngestConfig {
                    shards: 4,
                    drain_threads: 1,
                    seed,
                    ..IngestConfig::default()
                },
            )
        })
        .collect()
}

/// What one tick-major replay measured.
#[derive(Debug, Default, Clone)]
pub struct ReplayRecord {
    /// Samples pushed.
    pub samples: u64,
    /// Pushes the service did not enqueue (rejected or closed).
    pub refused: u64,
    /// Wall time spent inside `push_for` calls (ns).
    pub push_ns: u64,
    /// Per tick: time spent in the hosts' `flush()` calls (ms).
    pub flush_ms: Vec<f64>,
    /// Per tick: due instant to the last host's flush return (ms).
    pub visible_ms: Vec<f64>,
    /// Per tick: how late the generator started pushing (ms).
    pub lag_ms: Vec<f64>,
    /// Wall time of the whole replay (s).
    pub wall_s: f64,
}

impl ReplayRecord {
    /// Pools another replay's measurements into this one.
    pub fn merge(&mut self, other: ReplayRecord) {
        self.samples += other.samples;
        self.refused += other.refused;
        self.push_ns += other.push_ns;
        self.flush_ms.extend(other.flush_ms);
        self.visible_ms.extend(other.visible_ms);
        self.lag_ms.extend(other.lag_ms);
        self.wall_s += other.wall_s;
    }
}

/// Replays every tenant tick by tick through `services` (one per pool
/// host): for each host in turn, the tick's samples for that host are
/// pushed and its service is flushed. A tick is visible once the last
/// host's flush returned.
///
/// Hosts take turns so that one drainer applies at a time. With both
/// hosts' drainers applying at once, a tick becomes visible in either
/// about half or all of the single-drainer time, depending on whether the
/// scheduler keeps the two drainers on separate cores. That holds for a
/// whole replay and changes from one replay to the next, which makes the
/// visible latency a coin toss per replay rather than a property of the
/// code.
///
/// With `rate = Some(r)` tick `t` is due `t / r` seconds after the start
/// (an open loop); with `None` each tick is due when the previous one
/// became visible. `last_tick(tenant)` bounds each tenant's stream.
/// `on_visible(tick, at)` runs after each tick's flush returned.
pub fn replay(
    inputs: &Inputs,
    apps: &[AppId],
    services: &[IngestService],
    rate: Option<f64>,
    last_tick: impl Fn(&Tenant) -> Tick,
    mut on_visible: impl FnMut(Tick, Instant),
) -> ReplayRecord {
    let handles: Vec<_> = services.iter().map(IngestService::handle).collect();
    let end = inputs.tenants.iter().map(&last_tick).max().unwrap_or(0);
    let mut record = ReplayRecord::default();
    let mut buffers: Vec<Vec<(AppId, MetricSample)>> = vec![Vec::new(); HOSTS];
    let mut scratch = Vec::new();
    let started = Instant::now();
    for tick in 0..=end {
        for buffer in &mut buffers {
            buffer.clear();
        }
        for (i, (tenant, &app)) in inputs.tenants.iter().zip(apps).enumerate() {
            if tick > last_tick(tenant) {
                continue;
            }
            for (host, buffer) in buffers.iter_mut().enumerate() {
                scratch.clear();
                tenant.samples_at(i, host, tick, &mut scratch);
                buffer.extend(scratch.iter().map(|&s| (app, s)));
            }
        }
        let due = match rate {
            Some(r) => started + Duration::from_secs_f64(tick as f64 / r),
            None => Instant::now(),
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let push_started = Instant::now();
        record
            .lag_ms
            .push(push_started.saturating_duration_since(due).as_secs_f64() * 1e3);
        let mut flush_ns = 0u64;
        for ((handle, buffer), service) in handles.iter().zip(&buffers).zip(services) {
            let pushing = Instant::now();
            for &(app, sample) in buffer {
                if handle.push_for(app, sample) != PushOutcome::Enqueued {
                    record.refused += 1;
                }
            }
            record.samples += buffer.len() as u64;
            let flush_started = Instant::now();
            record.push_ns += flush_started.duration_since(pushing).as_nanos() as u64;
            service.flush();
            flush_ns += flush_started.elapsed().as_nanos() as u64;
        }
        let visible = Instant::now();
        record.flush_ms.push(flush_ns as f64 / 1e6);
        record
            .visible_ms
            .push(visible.saturating_duration_since(due).as_secs_f64() * 1e3);
        on_visible(tick, visible);
    }
    record.wall_s = started.elapsed().as_secs_f64();
    record
}
