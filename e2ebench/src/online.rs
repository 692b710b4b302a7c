//! `online`: an open-loop replay with diagnoses racing the ingest.
//!
//! Each round builds a fresh pool sized for the whole run horizon, then
//! one replay thread pushes every tenant's per-tick samples through an
//! `IngestService` per pool daemon at [`TICK_RATE`] ticks per second,
//! flushing after each tick, until shortly after the last violation. A second thread diagnoses each tenant as
//! soon as its `t_v` is visible while the replay goes on. Endpoints are
//! in-process `TenantSlave` views, so thread counts stay small; the wire
//! is measured by the `diag-*` workloads.

use crate::fleet::{
    bench_config, build_fleet, feed_until_violation, in_process_fleet, ingest_services, new_pool,
    reference_reports, replay, report_ok, score, ReplayRecord,
};
use crate::gen::{generate, Inputs, Workload, DURATION};
use crate::layers::{self, median, percentile, Layers};
use crate::trace::{Recorder, Tracer};
use crate::{sys, Run};
use fchain_core::slave::SlaveDaemon;
use fchain_core::{
    DiagnosisReport, FChainConfig, FleetMaster, IngestService, IngestStats, SlaveEndpoint,
    TenantSlave,
};
use fchain_metrics::{AppId, Tick};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Offered load in ticks per second. Every tick carries one sample per
/// metric of every tenant (about 2,200 samples at 60 tenants), so this
/// fixes the offered load at about 0.22 M samples/s, a fifth of what an
/// unpaced replay sustained on the 2-core host the bounds were set on.
/// At two and three times this rate the replay fell behind whenever a
/// diagnosis took both cores, and the run-to-run spread of the ingest
/// and diagnosis latencies outgrew any usable regression bound.
pub const TICK_RATE: f64 = 100.0;

/// Ticks replayed after the last violation: the diagnoses of the last
/// tenants still race ingest running past their `t_v`.
const TAIL_TICKS: Tick = 60;

/// A staged open-loop workload: inputs and reference reports.
pub struct Fixture {
    /// The generated inputs.
    pub inputs: Inputs,
    config: FChainConfig,
    capacity: usize,
    /// Per tenant, the report at `t_v` of a daemon fed exactly to `t_v`.
    pub references: Vec<DiagnosisReport>,
}

/// Simulates the fleet and computes the reference reports on a pool fed
/// directly to each tenant's `t_v`.
pub fn setup(seed: u64) -> Fixture {
    let inputs = generate(Workload::Online, seed);
    let config = bench_config();
    let capacity = Workload::Online.capacity();
    let pool = new_pool(&config, capacity);
    let (fleet, apps) = in_process_fleet(&config, &inputs, &pool);
    feed_until_violation(&inputs, &pool, &apps);
    let references = reference_reports(&fleet, &apps, &inputs);
    Fixture {
        inputs,
        config,
        capacity,
        references,
    }
}

/// What one replay round measured.
struct Round {
    latencies: Vec<f64>,
    reports: Vec<Option<DiagnosisReport>>,
    replay: ReplayRecord,
    stats: Vec<IngestStats>,
    cpu_s: f64,
    pool: Vec<Arc<SlaveDaemon>>,
}

/// The instants ticks became visible, shared between the replay and the
/// diagnosis thread.
struct Visibility {
    at: Mutex<Vec<Option<Instant>>>,
    changed: Condvar,
}

impl Visibility {
    fn wait_for(&self, tick: Tick) -> Instant {
        let mut at = self.at.lock().expect("visibility lock poisoned");
        loop {
            if let Some(instant) = at[tick as usize] {
                return instant;
            }
            at = self.changed.wait(at).expect("visibility lock poisoned");
        }
    }
}

/// The last tick a round replays.
fn last_replayed(fx: &Fixture) -> Tick {
    let last_violation = fx.inputs.tenants.iter().map(|t| t.violation_at).max();
    last_violation.unwrap_or(0) + TAIL_TICKS
}

fn round(fx: &Fixture, seed: u64, trace: Option<(&Arc<Tracer>, &mut Layers)>) -> Round {
    let pool = new_pool(&fx.config, fx.capacity);
    let (fleet, apps): (FleetMaster, Vec<AppId>) = match &trace {
        None => in_process_fleet(&fx.config, &fx.inputs, &pool),
        Some((tracer, _)) => build_fleet(&fx.config, &fx.inputs, |host, app| {
            let inner = Arc::new(TenantSlave::new(Arc::clone(&pool[host]), app));
            Arc::new(Recorder::new(inner, Arc::clone(tracer), host, app)) as Arc<dyn SlaveEndpoint>
        }),
    };
    let services = ingest_services(&pool, seed);
    let visible = Visibility {
        at: Mutex::new(vec![None; DURATION as usize]),
        changed: Condvar::new(),
    };
    let mut order: Vec<usize> = (0..fx.inputs.tenants.len()).collect();
    order.sort_by_key(|&i| (fx.inputs.tenants[i].violation_at, i));
    fchain_obs::set_enabled(trace.is_some());

    let (replay_record, cpu_s, (latencies, reports)) = std::thread::scope(|scope| {
        let diagnoser = scope.spawn(|| {
            let mut latencies = Vec::with_capacity(order.len());
            let mut reports: Vec<Option<DiagnosisReport>> = vec![None; order.len()];
            let mut trace = trace;
            for &i in &order {
                let t_v = fx.inputs.tenants[i].violation_at;
                let due = visible.wait_for(t_v);
                let report = match trace.as_mut() {
                    None => fleet.diagnose(apps[i], t_v),
                    Some((tracer, layers)) => layers.diagnose(tracer, &fleet, apps[i], t_v).0,
                };
                latencies.push(due.elapsed().as_secs_f64() * 1e3);
                reports[i] = Some(report);
            }
            (latencies, reports)
        });
        let cpu_before = sys::cpu_seconds();
        let record = replay(
            &fx.inputs,
            &apps,
            &services,
            Some(TICK_RATE),
            |t| t.last_tick().min(last_replayed(fx)),
            |tick, at| {
                visible.at.lock().expect("visibility lock poisoned")[tick as usize] = Some(at);
                visible.changed.notify_all();
            },
        );
        let cpu_s = sys::cpu_seconds() - cpu_before;
        let diagnosed = diagnoser.join().expect("diagnosis thread panicked");
        (record, cpu_s, diagnosed)
    });
    fchain_obs::set_enabled(false);
    let stats = services.into_iter().map(IngestService::shutdown).collect();
    Round {
        latencies,
        reports,
        replay: replay_record,
        stats,
        cpu_s,
        pool,
    }
}

/// Replays as many paced rounds as fit in `seconds` (at least one; two
/// with a tracer, which alternates untraced and traced rounds) and
/// reports the workload's metrics.
pub fn run(fx: &Fixture, seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Run {
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut visible_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let mut first: Option<Vec<Option<DiagnosisReport>>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut cpu_s, mut replay_s, mut diagnosed) = (0.0, 0.0, 0usize);
    let mut layers = Layers::default();
    let mut layer_metrics = Vec::new();

    // Rounds are paced, so their count fixes how long the run measures.
    let min_rounds = if tracer.is_some() { 2 } else { 1 };
    let round_s = (last_replayed(fx) + 1) as f64 / TICK_RATE;
    let rounds = ((seconds / round_s).round() as usize).max(min_rounds);
    for k in 0..rounds {
        let traced = tracer.filter(|_| k % 2 == 1);
        sys::release_freed_memory();
        let r = round(fx, seed, traced.map(|t| (t, &mut layers)));
        attempted += r.replay.samples + r.latencies.len() as u64;
        failed += r.replay.refused + r.stats.iter().map(IngestStats::lost).sum::<u64>();
        for (report, reference) in r.reports.iter().zip(&fx.references) {
            if !report.as_ref().is_some_and(|rep| report_ok(rep, reference)) {
                failed += 1;
            }
        }
        if traced.is_some() {
            traced_latencies.extend(&r.latencies);
            layers.finish(&r.pool, &fx.config);
        } else {
            diagnosed += r.latencies.len();
            latencies.extend(&r.latencies);
            visible_ms.extend(&r.replay.visible_ms);
            lag_ms.extend(&r.replay.lag_ms);
            cpu_s += r.cpu_s;
            replay_s += r.replay.wall_s;
            if tracer.is_some() {
                layer_metrics = layers::ingest_metrics(&r.replay, &r.stats);
                layer_metrics.extend(layers::daemon_metrics(
                    &fx.inputs,
                    &fx.config,
                    fx.capacity,
                    |t| t.last_tick().min(last_replayed(fx)),
                    &r.pool,
                ));
            }
        }
        first.get_or_insert(r.reports);
    }

    let first = first.expect("at least one round ran");
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
        diagnosed as f64 / replay_s,
        "1/s",
        diagnosed,
    );
    run.metric(
        "ingest_visible_p50_ms",
        percentile(&visible_ms, 50.0),
        "ms",
        visible_ms.len(),
    );
    run.info.push((
        "ingest_visible_p99_ms",
        percentile(&visible_ms, 99.0),
        "ms",
        visible_ms.len(),
    ));
    run.metric("replay_cpu_cores", cpu_s / replay_s, "cores", rounds);
    run.counts = counts;
    if tracer.is_some() {
        run.layers.extend(layers.metrics());
        run.layers.extend(layer_metrics);
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
