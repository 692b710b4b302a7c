//! End-to-end and per-layer benchmark of the FChain fleet.
//!
//! Three workloads drive the public APIs (`FleetMaster`, `SlaveDaemon`,
//! `IngestService`, `WireServer`/`RemoteSlave`, `SlaveEndpoint`) from
//! seeded simulated inputs and check every report against a reference
//! computed during set-up. See `README.md` in this directory for why each
//! workload exists and how to read the output.

pub mod diag;
pub mod fleet;
pub mod gen;
pub mod layers;
pub mod online;
pub mod sys;
pub mod trace;

/// What one measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (diagnoses; in `diag-*` also ingest replays,
    /// in `online` also samples pushed).
    pub attempted: u64,
    /// Operations that failed (a report differing from its reference,
    /// incomplete coverage, a lost sample or a replay that lost one).
    pub failed: u64,
    /// End-to-end metrics: `(name, value, unit, samples behind it)`.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// End-to-end metrics printed but not gated by `BENCHMARK.json`,
    /// as `(name, value, unit, samples behind it)`.
    pub info: Vec<(&'static str, f64, &'static str, usize)>,
    /// Per-layer metrics of a traced run: `(name, value, unit)`.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Precision/recall counts of the timed reports, one per tenant.
    pub counts: fchain_eval::Counts,
    /// Traced diagnoses whose ledger did not close, plus replayed
    /// collects that disagreed with what the master received.
    pub ledger_errors: u64,
}

impl Run {
    /// An empty result with the given operation counts.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Run {
            attempted,
            failed,
            ..Run::default()
        }
    }

    /// Adds one end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push((name, value, unit, n));
    }
}
