//! Per-layer metrics of the traced run and the per-diagnosis ledger.
//!
//! Each traced diagnosis yields the wall clock of `FleetMaster::diagnose`,
//! the collect spans its fan-out made (from [`crate::trace::Recorder`])
//! and the `fchain_obs` snapshot delta taken around it. Only the exact
//! `total_ns` sums and counter values of those deltas are used. After the
//! measured loop every collect is replayed against the daemon
//! (`analyze_all_for_windowed`) and the codec (`encode_frame` /
//! `decode_frame` of the same `CollectResponse`).
//!
//! The ledger splits each diagnosis's wall clock into self times that sum
//! to it exactly: the time any collect was in flight (the union of the
//! collect spans; `wire.socket_ms` and `analyze.ms` split each call), the
//! master's `merge` and `pinpoint` obs stages, and
//! `master.unattributed_ms`, everything the spans do not cover (fan-out
//! thread spawns, channel waits, coverage assembly).

use crate::fleet::ReplayRecord;
use crate::gen::{ms, Inputs, Tenant, HOSTS};
use crate::trace::{union_ns, Call, Span, Tracer};
use fchain_core::slave::SlaveDaemon;
use fchain_core::{
    ComponentFinding, DiagnosisReport, FChainConfig, FleetMaster, IngestStats, PipelineSnapshot,
};
use fchain_metrics::stats::percentile_sorted;
use fchain_metrics::{AppId, Tick};
use fchain_model::OnlineLearner;
use fchain_obs::{Counter, Stage};
use fchain_wire::frame::{decode_frame, encode_frame};
use fchain_wire::{Frame, ResponseStatus};
use std::sync::Arc;
use std::time::Instant;

/// A clock read at or below this many ms below zero is a ledger error,
/// not timer granularity.
const LEDGER_TOLERANCE_MS: f64 = 0.05;

/// One traced diagnosis awaiting post-processing.
#[derive(Debug)]
struct Pending {
    wall_ns: u64,
    calls: Vec<Call>,
    delta: PipelineSnapshot,
}

/// Median of raw samples (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `p`-th percentile of raw samples, linearly interpolated (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p).unwrap_or(0.0)
}

/// Accumulated per-layer samples of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pending: Vec<Pending>,
    diagnose_ms: Vec<f64>,
    fanout_ms: Vec<f64>,
    merge_us: Vec<f64>,
    pinpoint_us: Vec<f64>,
    unattributed_ms: Vec<f64>,
    selection_ms: Vec<f64>,
    cusum_ms: Vec<f64>,
    fft_ms: Vec<f64>,
    rollback_ms: Vec<f64>,
    candidates: u64,
    accepted: u64,
    screened: u64,
    analyzed: u64,
    rpc_ms: Vec<f64>,
    socket_ms: Vec<f64>,
    analyze_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    response_bytes: Vec<f64>,
    /// Diagnoses whose ledger did not close (a negative remainder).
    pub ledger_errors: u64,
    /// Replayed collects whose findings differ from what the master got.
    pub replay_mismatches: u64,
}

impl Layers {
    /// Runs one traced diagnosis: records a `diagnose` span (the
    /// fleet's recording endpoints add its `collect` children) and the obs
    /// delta around it, and queues both for [`Layers::finish`]. Returns
    /// the report and its wall clock (ms).
    pub fn diagnose(
        &mut self,
        tracer: &Tracer,
        fleet: &FleetMaster,
        app: AppId,
        violation_at: Tick,
    ) -> (DiagnosisReport, f64) {
        let before = fchain_obs::snapshot();
        let request = tracer.next_id();
        let span = tracer.next_id();
        tracer.begin(request, span);
        let t0 = Instant::now();
        let report = fleet.diagnose(app, violation_at);
        let t1 = Instant::now();
        tracer.end();
        let delta = fchain_obs::snapshot().delta_since(&before);
        tracer.record(Span {
            id: span,
            name: "diagnose",
            start_ns: tracer.ns_at(t0),
            end_ns: tracer.ns_at(t1),
            parent: None,
            request,
        });
        let wall = t1.duration_since(t0);
        self.pending.push(Pending {
            wall_ns: wall.as_nanos() as u64,
            calls: tracer.take_calls(request),
            delta,
        });
        (report, wall.as_secs_f64() * 1e3)
    }

    /// Post-processes every queued diagnosis against `pool`, whose
    /// daemons must still hold at least the history the diagnoses read.
    pub fn finish(&mut self, pool: &[Arc<SlaveDaemon>], config: &FChainConfig) {
        for p in std::mem::take(&mut self.pending) {
            self.ledger(p, pool, config);
        }
    }

    fn ledger(&mut self, p: Pending, pool: &[Arc<SlaveDaemon>], config: &FChainConfig) {
        let stage_ns = |s: Stage| p.delta.stage(s).map_or(0, |s| s.total_ns) as f64;
        let wall_ms = p.wall_ns as f64 / 1e6;
        let merge_ms = stage_ns(Stage::MasterMerge) / 1e6;
        let pinpoint_ms = stage_ns(Stage::MasterPinpoint) / 1e6;
        self.diagnose_ms.push(wall_ms);
        self.fanout_ms.push(stage_ns(Stage::MasterFanOut) / 1e6);
        self.merge_us.push(merge_ms * 1e3);
        self.pinpoint_us.push(pinpoint_ms * 1e3);
        self.selection_ms
            .push(stage_ns(Stage::SlaveSelection) / 1e6);
        self.cusum_ms.push(stage_ns(Stage::SlaveCusum) / 1e6);
        self.fft_ms.push(stage_ns(Stage::SlaveFft) / 1e6);
        self.rollback_ms.push(stage_ns(Stage::SlaveRollback) / 1e6);
        self.candidates += p.delta.counter(Counter::ChangePointCandidates);
        self.accepted += p.delta.counter(Counter::ChangePointsAccepted);
        self.screened += p.delta.counter(Counter::StreamingScreened);
        self.analyzed += p.delta.counter(Counter::MetricsAnalyzed);

        let in_flight_ms =
            union_ns(p.calls.iter().map(|c| (c.start_ns, c.end_ns)).collect()) as f64 / 1e6;
        for call in &p.calls {
            self.replay_call(call, pool, config);
        }
        // The self times (in flight, merge, pinpoint, unattributed) sum to
        // the wall clock by construction. A remainder below zero means the
        // spans claim more time than the diagnosis took.
        let unattributed = wall_ms - in_flight_ms - merge_ms - pinpoint_ms;
        if unattributed < -LEDGER_TOLERANCE_MS {
            self.ledger_errors += 1;
        }
        self.unattributed_ms.push(unattributed);
    }

    /// Replays one collect against the daemon and the codec.
    fn replay_call(&mut self, call: &Call, pool: &[Arc<SlaveDaemon>], config: &FChainConfig) {
        let rpc_ms = (call.end_ns - call.start_ns) as f64 / 1e6;
        let lookback = call.lookback.unwrap_or(config.lookback);
        let started = Instant::now();
        let findings =
            pool[call.host].analyze_all_for_windowed(call.app, call.violation_at, lookback);
        let analyze_ms = ms(started);
        if call.findings.as_ref() != Ok(&findings) {
            self.replay_mismatches += 1;
        }
        self.rpc_ms.push(rpc_ms);
        self.analyze_ms.push(analyze_ms);
        // In-process collects have no socket: the difference is then the
        // endpoint's own dispatch plus replay noise.
        self.socket_ms.push(rpc_ms - analyze_ms);
        let (encode_us, decode_us, bytes) = codec_cost(call.request, findings);
        self.encode_us.push(encode_us);
        self.decode_us.push(decode_us);
        self.response_bytes.push(bytes as f64);
    }

    /// The per-layer metrics this run measured, `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_diag = |n: u64| n as f64 / self.diagnose_ms.len().max(1) as f64;
        vec![
            ("master.diagnose_ms", median(&self.diagnose_ms), "ms"),
            ("master.fanout_ms", median(&self.fanout_ms), "ms"),
            ("master.merge_us", median(&self.merge_us), "us"),
            ("master.pinpoint_us", median(&self.pinpoint_us), "us"),
            (
                "master.unattributed_ms",
                median(&self.unattributed_ms),
                "ms",
            ),
            ("wire.rpc_ms", median(&self.rpc_ms), "ms"),
            ("wire.socket_ms", median(&self.socket_ms), "ms"),
            ("wire.encode_us", median(&self.encode_us), "us"),
            ("wire.decode_us", median(&self.decode_us), "us"),
            ("wire.response_bytes", median(&self.response_bytes), "bytes"),
            ("analyze.ms", median(&self.analyze_ms), "ms"),
            (
                "analyze.screened_frac",
                self.screened as f64 / self.analyzed.max(1) as f64,
                "ratio",
            ),
            ("slave.selection_ms", median(&self.selection_ms), "ms"),
            ("slave.cusum_ms", median(&self.cusum_ms), "ms"),
            ("slave.fft_ms", median(&self.fft_ms), "ms"),
            ("slave.rollback_ms", median(&self.rollback_ms), "ms"),
            ("detect.candidates", per_diag(self.candidates), "count"),
            ("detect.accepted", per_diag(self.accepted), "count"),
        ]
    }
}

/// Encode and decode cost (µs) and encoded size of the `CollectResponse`
/// carrying `findings`.
fn codec_cost(request: u64, findings: Vec<ComponentFinding>) -> (f64, f64, usize) {
    let frame = Frame::CollectResponse {
        status: ResponseStatus::Ok,
        findings,
    };
    let started = Instant::now();
    let bytes = std::hint::black_box(encode_frame(&frame, request));
    let encode_us = ms(started) * 1e3;
    let started = Instant::now();
    let decoded = std::hint::black_box(decode_frame(&bytes));
    let decode_us = ms(started) * 1e3;
    debug_assert!(matches!(decoded, Ok((_, ref f)) if *f == frame));
    (encode_us, decode_us, bytes.len())
}

/// Set-up layer metrics: simulation and case construction per tenant.
pub fn setup_metrics(inputs: &Inputs) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("sim.run_ms", median(&inputs.sim_ms), "ms"),
        ("deps.case_ms", median(&inputs.case_ms), "ms"),
    ]
}

/// Ingest-layer metrics of one replay through the ingest services.
pub fn ingest_metrics(
    replay: &ReplayRecord,
    stats: &[IngestStats],
) -> Vec<(&'static str, f64, &'static str)> {
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let applied: u64 = stats.iter().map(|s| s.applied).sum();
    vec![
        (
            "ingest.push_ns",
            replay.push_ns as f64 / replay.samples.max(1) as f64,
            "ns",
        ),
        ("ingest.flush_ms", median(&replay.flush_ms), "ms"),
        (
            "ingest.block_waits",
            stats.iter().map(|s| s.block_waits).sum::<u64>() as f64,
            "count",
        ),
        ("ingest.batches", batches as f64, "count"),
        (
            "ingest.samples_per_batch",
            applied as f64 / batches.max(1) as f64,
            "count",
        ),
    ]
}

/// Daemon-layer metrics: single-threaded apply cost on a twin daemon,
/// the model's per-sample feed cost, and the storage tiers of `pool`.
///
/// The twin daemon gets `capacity` samples per metric, like the measured
/// pool, and every sample of the first tenants up to `last_tick`.
pub fn daemon_metrics(
    inputs: &Inputs,
    config: &FChainConfig,
    capacity: usize,
    last_tick: impl Fn(&Tenant) -> Tick,
    pool: &[Arc<SlaveDaemon>],
) -> Vec<(&'static str, f64, &'static str)> {
    const TWIN_TENANTS: usize = 8;
    let twin = SlaveDaemon::new(config.clone()).with_capacity(capacity);
    let mut apply_ns = 0u64;
    let mut applied = 0u64;
    let mut batch = Vec::new();
    for (i, tenant) in inputs.tenants.iter().take(TWIN_TENANTS).enumerate() {
        for host in 0..HOSTS {
            batch.clear();
            for tick in 0..=last_tick(tenant) {
                tenant.samples_at(i, host, tick, &mut batch);
            }
            let started = Instant::now();
            twin.ingest_batch_for(AppId(i as u32 + 1), &batch);
            apply_ns += started.elapsed().as_nanos() as u64;
            applied += batch.len() as u64;
        }
    }

    let mut feed_ns = 0u64;
    let mut fed = 0u64;
    if let Some(tenant) = inputs.tenants.first() {
        for series in tenant.series.iter().flatten() {
            let mut learner = OnlineLearner::new(config.learner.clone());
            let values = series.window(0, last_tick(tenant));
            let started = Instant::now();
            for &v in values {
                std::hint::black_box(learner.feed(v));
            }
            feed_ns += started.elapsed().as_nanos() as u64;
            fed += values.len() as u64;
        }
    }

    let (hot, cold) = pool.iter().fold((0, 0), |(h, c), d| {
        let (dh, dc, _) = d.storage_tier_bytes();
        (h + dh, c + dc)
    });
    vec![
        (
            "daemon.apply_ns_per_sample",
            apply_ns as f64 / applied.max(1) as f64,
            "ns",
        ),
        ("model.feed_ns", feed_ns as f64 / fed.max(1) as f64, "ns"),
        ("daemon.hot_bytes", hot as f64, "bytes"),
        ("daemon.cold_bytes", cold as f64, "bytes"),
    ]
}
