//! Seeded workload inputs: which tenants a run simulates, and the metric
//! samples and violation ticks the program under test receives.
//!
//! The program sees only `Tenant::series`, `Tenant::violation_at`, the
//! installed dependency graph and the look-back window. Ground truth
//! (`Tenant::truth`) stays on the benchmark side and is used for scoring
//! only.

use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_deps::DependencyGraph;
use fchain_eval::case_from_run;
use fchain_metrics::{ComponentId, MetricKind, Tick, TimeSeries};
use fchain_sim::{AppKind, FaultKind, RunConfig, Simulator};
use std::time::Instant;

/// Simulated run length in ticks for every tenant.
pub const DURATION: Tick = 1500;

/// Pool daemons (hosts) every workload spreads its tenants over.
pub const HOSTS: usize = 2;

/// Evidence window of the fast-manifesting families.
pub const SHORT_WINDOW: u64 = 100;

/// The paper's hand-picked window for slow-manifesting (disk hog) faults.
pub const LONG_WINDOW: u64 = 500;

/// The W = 100 families of `fchain_sim::tenant_mix`.
const SHORT_FAMILIES: [(AppKind, FaultKind); 5] = [
    (AppKind::Rubis, FaultKind::CpuHog),
    (AppKind::Rubis, FaultKind::MemLeak),
    (AppKind::SystemS, FaultKind::Bottleneck),
    (AppKind::SystemS, FaultKind::CpuHog),
    (AppKind::Hadoop, FaultKind::ConcurrentCpuHog),
];

/// The Hadoop disk-hog family (the simulator defines the disk hog on
/// Hadoop only as the concurrent one), analyzed at W = 500.
const LONG_FAMILIES: [(AppKind, FaultKind); 1] = [(AppKind::Hadoop, FaultKind::ConcurrentDiskHog)];

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over W = 100 tenants, reached over UDS.
    DiagShort,
    /// Closed loop over W = 500 disk-hog tenants, reached over UDS.
    DiagLong,
    /// Open-loop replay of W = 100 tenants through the ingest service,
    /// with diagnoses racing the replay.
    Online,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DiagShort, Workload::DiagLong, Workload::Online];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiagShort => "diag-short",
            Workload::DiagLong => "diag-long",
            Workload::Online => "online",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Candidate tenants drawn per run (non-violating ones are skipped).
    pub fn candidates(self) -> usize {
        match self {
            Workload::DiagShort => 40,
            Workload::DiagLong => 16,
            Workload::Online => 60,
        }
    }

    /// Per-metric history the workload's pool daemons retain: enough
    /// for its window in the closed loops, the whole run horizon online
    /// (where ingest runs past `t_v` and no pre-window history may be
    /// evicted before the diagnosis reads it).
    pub fn capacity(self) -> usize {
        match self {
            Workload::DiagShort => SlaveDaemon::capacity_for_lookback(SHORT_WINDOW),
            Workload::DiagLong => SlaveDaemon::capacity_for_lookback(LONG_WINDOW),
            Workload::Online => SlaveDaemon::capacity_for_horizon(DURATION),
        }
    }

    /// The (application, fault) family of candidate `i`. Families are
    /// dealt round-robin so every seed runs the same family mix; the seed
    /// picks the simulated runs within each family.
    fn family(self, i: usize) -> (AppKind, FaultKind) {
        match self {
            Workload::DiagLong => LONG_FAMILIES[i % LONG_FAMILIES.len()],
            Workload::DiagShort | Workload::Online => SHORT_FAMILIES[i % SHORT_FAMILIES.len()],
        }
    }
}

/// One simulated tenant application, as handed to the program.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Registered tenant name, e.g. `rubis-3`.
    pub name: String,
    /// Evidence window the tenant is diagnosed at.
    pub lookback: u64,
    /// The SLO violation tick `t_v`.
    pub violation_at: Tick,
    /// Full-run metric series, `series[component][MetricKind::index()]`.
    pub series: Vec<Vec<TimeSeries>>,
    /// Dependency evidence installed on the master: discovered request
    /// dependencies, or the declared topology where discovery found none.
    pub deps: Option<DependencyGraph>,
    /// Ground-truth faulty components (scoring only).
    pub truth: Vec<ComponentId>,
}

impl Tenant {
    /// Components of the tenant, in id order.
    pub fn components(&self) -> impl Iterator<Item = ComponentId> {
        (0..self.series.len() as u32).map(ComponentId)
    }

    /// The last tick the simulated run covers.
    pub fn last_tick(&self) -> Tick {
        self.series.first().map_or(0, |metrics| metrics[0].end())
    }

    /// The pool host that monitors `component` of tenant number `index`
    /// (round-robin placement, the fleet campaign's layout).
    pub fn host_of(index: usize, component: ComponentId) -> usize {
        (index + component.0 as usize) % HOSTS
    }

    /// Appends the tenant's samples at `tick` that live on `host`.
    pub fn samples_at(&self, index: usize, host: usize, tick: Tick, out: &mut Vec<MetricSample>) {
        for component in self.components() {
            if Self::host_of(index, component) != host {
                continue;
            }
            for kind in MetricKind::ALL {
                if let Some(value) = self.series[component.0 as usize][kind.index()].at(tick) {
                    out.push(MetricSample {
                        tick,
                        component,
                        kind,
                        value,
                    });
                }
            }
        }
    }
}

/// A workload's generated inputs plus what generating them cost.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Tenants whose run violated its SLO, in draw order.
    pub tenants: Vec<Tenant>,
    /// Candidates skipped because their run never violated its SLO.
    pub skipped: usize,
    /// Per-candidate `Simulator::run` wall time (ms).
    pub sim_ms: Vec<f64>,
    /// Per-tenant case construction and dependency discovery (ms).
    pub case_ms: Vec<f64>,
}

/// splitmix64, the seed mixer for per-tenant simulation seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Simulates every candidate tenant of `workload` from `seed`.
///
/// The family mix is fixed per workload; the seed picks each tenant's
/// simulation seed. Tenants are never chosen by diagnosis outcome: a
/// candidate is skipped only when its simulated SLO never fires.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut inputs = Inputs {
        tenants: Vec::new(),
        skipped: 0,
        sim_ms: Vec::new(),
        case_ms: Vec::new(),
    };
    for i in 0..workload.candidates() {
        let (app, fault) = workload.family(i);
        let sim_seed = splitmix64(seed ^ splitmix64(workload as u64 * 1_000_003 + i as u64));
        let started = Instant::now();
        let run =
            Simulator::new(RunConfig::new(app, fault, sim_seed).with_duration(DURATION)).run();
        inputs.sim_ms.push(ms(started));
        let started = Instant::now();
        let Some(case) = case_from_run(&run, SHORT_WINDOW) else {
            inputs.skipped += 1;
            continue;
        };
        // The ensemble weighs weaker evidence, so where black-box
        // discovery found no request dependencies (stream pipelines) the
        // declared dataflow topology is installed instead.
        let deps = case
            .discovered_deps
            .clone()
            .filter(|g| !g.is_empty())
            .or_else(|| case.known_topology.clone());
        inputs.case_ms.push(ms(started));
        inputs.tenants.push(Tenant {
            name: format!("{}-{i}", app.name()),
            lookback: if fault.is_slow_manifesting() {
                LONG_WINDOW
            } else {
                SHORT_WINDOW
            },
            violation_at: case.violation_at,
            truth: run.ground_truth(),
            series: run.series,
            deps,
        });
    }
    inputs
}

impl Inputs {
    /// Canonical byte encoding of everything the program receives: per
    /// tenant its name, window, `t_v`, dependency edges and every sample
    /// (f64 as raw bits). Equal encodings mean byte-identical inputs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for t in &self.tenants {
            out.extend_from_slice(t.name.as_bytes());
            out.extend_from_slice(&t.lookback.to_le_bytes());
            out.extend_from_slice(&t.violation_at.to_le_bytes());
            for (from, to) in t.deps.iter().flat_map(|g| g.edges()) {
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&to.0.to_le_bytes());
            }
            for metrics in &t.series {
                for series in metrics {
                    out.extend_from_slice(&series.start().to_le_bytes());
                    for v in series.values() {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        out
    }
}

/// Milliseconds since `started`.
pub fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}
