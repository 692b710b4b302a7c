//! Diagnosis hot-path latency: violation → per-component abnormal-change
//! findings on a seeded 4-component RUBiS case, plus the batch and
//! streaming analysis engines on two daemon scenarios.
//!
//! The RUBiS case times the deployed selection pipeline
//! ([`fchain_core::slave::select_abnormal_changes`]) over identical
//! precomputed state, once on one thread (`optimized_sequential`) and once
//! fanned out across components with scoped threads
//! (`optimized_parallel`), exactly as `SlaveDaemon::analyze_all` does.
//!
//! Before timing, the sequential and parallel paths, and the two engines
//! on each scenario, are asserted to produce identical findings (the
//! CUSUM kernel's own bit-identity reference lives in
//! `fchain-detect`'s tests). Results are written to `BENCH_diagnosis.json`
//! at the repository root with a host descriptor (core count, CPU model),
//! and each median is compared with the median of the same id in the
//! `BENCH_diagnosis.json` found on disk before the run — the committed
//! baseline — whose host is recorded beside it.

use criterion::{black_box, Criterion};
use fchain_core::slave::{select_abnormal_changes, MetricSample, SlaveDaemon};
use fchain_core::{AbnormalChange, AnalysisEngine, CollectRequest, FChainConfig};
use fchain_eval::case_from_run;
use fchain_metrics::{MetricKind, Tick};
use fchain_model::OnlineLearner;
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Workload construction and drivers.
// ---------------------------------------------------------------------------

/// One metric's precomputed state: the sanitized history up to the
/// violation and the causal prediction-error series the daemon maintains
/// continuously (training is *not* part of the on-violation cost).
struct MetricTask {
    kind: MetricKind,
    hist: Vec<f64>,
    errors: Vec<f64>,
}

/// All monitored metrics of one component.
struct ComponentTasks {
    metrics: Vec<MetricTask>,
}

fn build_tasks(violation_at: Tick, lookback: u64, config: &FChainConfig) -> Vec<ComponentTasks> {
    let run = Simulator::new(RunConfig::new(AppKind::Rubis, FaultKind::CpuHog, 900)).run();
    let case = case_from_run(&run, lookback).expect("seeded RUBiS run must produce a violation");
    assert_eq!(case.violation_at, violation_at, "seed drifted");
    case.components
        .iter()
        .map(|component| {
            let metrics = MetricKind::ALL
                .into_iter()
                .filter_map(|kind| {
                    let history = component.metric(kind);
                    let hist = history.window(history.start(), violation_at).to_vec();
                    if hist.len() < (lookback as usize).min(40) {
                        return None;
                    }
                    let mut learner = OnlineLearner::new(config.learner.clone());
                    let errors = learner.train_errors(&hist);
                    Some(MetricTask { kind, hist, errors })
                })
                .collect();
            ComponentTasks { metrics }
        })
        .collect()
}

fn analyze_component_tasks<F>(tasks: &ComponentTasks, select: &F) -> Vec<AbnormalChange>
where
    F: Fn(&MetricTask) -> Option<AbnormalChange>,
{
    tasks.metrics.iter().filter_map(select).collect()
}

fn run_sequential<F>(tasks: &[ComponentTasks], select: &F) -> Vec<Vec<AbnormalChange>>
where
    F: Fn(&MetricTask) -> Option<AbnormalChange>,
{
    tasks
        .iter()
        .map(|t| analyze_component_tasks(t, select))
        .collect()
}

/// Component-level fan-out with the same deterministic work-queue shape as
/// `SlaveDaemon::analyze_all`: scoped workers pull component indices from
/// an atomic counter and write into index-ordered slots.
fn run_parallel<F>(tasks: &[ComponentTasks], select: &F) -> Vec<Vec<AbnormalChange>>
where
    F: Fn(&MetricTask) -> Option<AbnormalChange> + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(tasks.len());
    if workers <= 1 {
        return run_sequential(tasks, select);
    }
    let slots: Vec<Mutex<Vec<AbnormalChange>>> = tasks.iter().map(|_| Default::default()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                *slots[i].lock().expect("bench slot") = analyze_component_tasks(&tasks[i], select);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("bench slot"))
        .collect()
}

// ---------------------------------------------------------------------------
// Engine comparison: batch vs streaming daemons on the on-violation path.
// ---------------------------------------------------------------------------

/// One engine-comparison scenario: two identically-fed daemons (batch and
/// streaming engines) plus the violation tick to analyze at.
struct EngineScenario {
    label: &'static str,
    app: AppKind,
    fault: FaultKind,
    seed: u64,
    lookback: u64,
    violation_at: Tick,
    components: usize,
    batch: SlaveDaemon,
    streaming: SlaveDaemon,
}

/// Builds the scenario from the first seed (starting at `seed_from`)
/// whose simulated run produces an SLO violation at the given look-back —
/// deterministic, since the search order is fixed.
fn build_engine_scenario(
    label: &'static str,
    app: AppKind,
    fault: FaultKind,
    seed_from: u64,
    lookback: u64,
) -> EngineScenario {
    let (seed, case) = (seed_from..seed_from + 50)
        .find_map(|seed| {
            let run = Simulator::new(RunConfig::new(app, fault, seed)).run();
            case_from_run(&run, lookback).map(|case| (seed, case))
        })
        .expect("no seed in range produced a violation");
    let mut batch_config = FChainConfig::with_lookback(lookback);
    batch_config.engine = AnalysisEngine::Batch;
    let mut streaming_config = FChainConfig::with_lookback(lookback);
    streaming_config.engine = AnalysisEngine::Streaming;
    let batch = SlaveDaemon::new(batch_config);
    let streaming = SlaveDaemon::new(streaming_config);
    for daemon in [&batch, &streaming] {
        for component in &case.components {
            for kind in MetricKind::ALL {
                for (tick, value) in component.metric(kind).iter() {
                    daemon.ingest(MetricSample {
                        tick,
                        component: component.id,
                        kind,
                        value,
                    });
                }
            }
        }
    }
    EngineScenario {
        label,
        app,
        fault,
        seed,
        lookback,
        violation_at: case.violation_at,
        components: case.components.len(),
        batch,
        streaming,
    }
}

/// The value under `key` when `v` is a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    let entries = v.as_map()?;
    entries
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, value)| value)
}

fn main() {
    // The committed results, read before this run overwrites them: each
    // new median is reported against the committed median of its id.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_diagnosis.json");
    let committed: Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or(Value::Null);
    let config = FChainConfig::default();
    let lookback = 100u64;
    let run = Simulator::new(RunConfig::new(AppKind::Rubis, FaultKind::CpuHog, 900)).run();
    let case = case_from_run(&run, lookback).expect("seeded RUBiS run must produce a violation");
    let violation_at = case.violation_at;
    let n_components = case.components.len();
    assert_eq!(n_components, 4, "the RUBiS topology has 4 components");
    drop(case);
    let tasks = build_tasks(violation_at, lookback, &config);

    let select = |t: &MetricTask| {
        select_abnormal_changes(&t.hist, &t.errors, t.kind, violation_at, lookback, &config)
    };

    // Parallel fan-out must be a pure speedup: both paths agree on every
    // finding before either is timed.
    let optimized_findings = run_sequential(&tasks, &select);
    let parallel_findings = run_parallel(&tasks, &select);
    assert_eq!(
        optimized_findings, parallel_findings,
        "parallel pipeline diverged from the sequential one"
    );
    let abnormal_components = optimized_findings.iter().filter(|f| !f.is_empty()).count();
    assert!(
        abnormal_components >= 1,
        "the fault case must produce findings"
    );

    // Engine comparison scenarios: the paper's default window (W=100) on
    // the System S CPU hog (7 components / 42 metrics, so the healthy
    // majority the streaming screen skips is representative), and the
    // slow-manifesting disk-hog window (W=500) on Hadoop. Both daemons
    // are asserted to produce bit-identical findings before either is
    // timed.
    let scenarios = [
        build_engine_scenario(
            "systems_cpuhog_w100",
            AppKind::SystemS,
            FaultKind::CpuHog,
            900,
            100,
        ),
        build_engine_scenario(
            "hadoop_diskhog_w500",
            AppKind::Hadoop,
            FaultKind::ConcurrentDiskHog,
            40,
            500,
        ),
    ];
    for s in &scenarios {
        let reference = CollectRequest {
            violation_at: s.violation_at,
            sequential: true,
            ..CollectRequest::default()
        };
        let batch_findings = s.batch.analyze_all(&reference);
        let streaming_findings = s.streaming.analyze_all(&reference);
        assert_eq!(
            batch_findings, streaming_findings,
            "{}: engines diverge before timing",
            s.label
        );
        assert!(
            batch_findings.iter().any(|f| f.onset().is_some()),
            "{}: the fault case must produce findings",
            s.label
        );
    }

    let mut criterion = Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_secs(2))
        .measurement_time(Duration::from_secs(6))
        .configure_from_args();
    criterion.bench_function("diagnosis_latency/rubis_4c/optimized_sequential", |b| {
        b.iter(|| black_box(run_sequential(black_box(&tasks), &select)))
    });
    criterion.bench_function("diagnosis_latency/rubis_4c/optimized_parallel", |b| {
        b.iter(|| black_box(run_parallel(black_box(&tasks), &select)))
    });
    for s in &scenarios {
        let request = CollectRequest {
            violation_at: s.violation_at,
            ..CollectRequest::default()
        };
        criterion.bench_function(
            &format!("diagnosis_latency/engines/{}/batch", s.label),
            |b| b.iter(|| black_box(s.batch.analyze_all(black_box(&request)))),
        );
        criterion.bench_function(
            &format!("diagnosis_latency/engines/{}/streaming", s.label),
            |b| b.iter(|| black_box(s.streaming.analyze_all(black_box(&request)))),
        );
    }
    criterion.final_summary();

    let summaries = criterion.summaries();
    let median = |suffix: &str| {
        summaries
            .iter()
            .find(|s| s.id.ends_with(suffix))
            .map(|s| s.median_ns)
            .unwrap_or(f64::NAN)
    };
    let seq = median("optimized_sequential");
    let par = median("optimized_parallel");
    let committed_median = |id: &str| {
        let results = field(&committed, "results")?.as_seq()?;
        let result = results
            .iter()
            .find(|r| field(r, "id").and_then(Value::as_str) == Some(id))?;
        serde_json::from_value::<f64>(field(result, "median_ns")?.clone()).ok()
    };
    let baseline: Vec<_> = summaries
        .iter()
        .filter_map(|s| {
            let committed_ns = committed_median(&s.id)?;
            Some(json!({
                "id": s.id,
                "committed_median_ns": committed_ns,
                "speedup": committed_ns / s.median_ns,
            }))
        })
        .collect();

    let engines: Vec<_> = scenarios
        .iter()
        .map(|s| {
            let batch_ns = median(&format!("{}/batch", s.label));
            let streaming_ns = median(&format!("{}/streaming", s.label));
            json!({
                "scenario": s.label,
                "app": format!("{:?}", s.app),
                "fault": format!("{:?}", s.fault),
                "seed": s.seed,
                "lookback": s.lookback,
                "violation_at": s.violation_at,
                "components": s.components,
                "batch_median_ns": batch_ns,
                "streaming_median_ns": streaming_ns,
                "streaming_speedup": batch_ns / streaming_ns,
            })
        })
        .collect();
    // Regression guard: the streaming engine moving work to ingest time
    // must never be slower at violation time than the batch reference on
    // the default-window scenario. A regression fails the bench (and the
    // CI job running it) outright.
    {
        let w100_batch = median("systems_cpuhog_w100/batch");
        let w100_streaming = median("systems_cpuhog_w100/streaming");
        assert!(
            w100_streaming <= w100_batch,
            "streaming on-violation median ({w100_streaming:.0} ns) regressed above \
             the batch median ({w100_batch:.0} ns) at W=100"
        );
    }

    let payload = json!({
        "bench": "diagnosis_latency",
        "case": {
            "app": "Rubis",
            "fault": "CpuHog",
            "seed": 900,
            "components": n_components,
            "lookback": lookback,
            "violation_at": violation_at,
            "abnormal_components": abnormal_components,
        },
        "host": fchain_bench::host_descriptor(),
        "note": "parallel fan-out is across components; with nproc = 1 the parallel \
                 path degrades to the sequential loop, so the parallel-vs-sequential \
                 ratio only shows >1 on multi-core hosts. Speedups against the \
                 committed baseline compare with the BENCH_diagnosis.json that was \
                 on disk before this run; they only mean something when \
                 baseline.host matches host",
        "results": summaries.iter().map(|s| json!({
            "id": s.id,
            "min_ns": s.min_ns,
            "median_ns": s.median_ns,
            "mean_ns": s.mean_ns,
            "max_ns": s.max_ns,
            "samples": s.samples,
            "iters_per_sample": s.iters_per_sample,
        })).collect::<Vec<_>>(),
        "speedup": {
            "optimized_sequential_vs_baseline":
                committed_median("diagnosis_latency/rubis_4c/optimized_sequential").map(|c| c / seq),
            "optimized_parallel_vs_baseline":
                committed_median("diagnosis_latency/rubis_4c/optimized_parallel").map(|c| c / par),
            "parallel_vs_sequential": seq / par,
        },
        "baseline": {
            "host": field(&committed, "host").cloned().unwrap_or(Value::Null),
            "results": baseline,
        },
        "engines": engines,
    });
    let rendered = serde_json::to_string_pretty(&payload).expect("serializable payload");
    std::fs::write(path, rendered + "\n").expect("write BENCH_diagnosis.json");
    println!("wrote {path}");
    println!("medians: sequential {seq:.0} ns, parallel {par:.0} ns");
}
