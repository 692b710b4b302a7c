//! The paper's headline claims as executable assertions, at reduced scale
//! (5–6 runs per campaign) so the suite stays fast. The full-scale
//! versions live in the bench targets.

use fchain::baselines::FixedFiltering;
use fchain::core::{FChain, FChainConfig};
use fchain::eval::{Campaign, Counts, OracleProbe};
use fchain::sim::{AppKind, FaultKind};

fn campaign(app: AppKind, fault: FaultKind, seed: u64, lookback: u64) -> Campaign {
    Campaign {
        app,
        fault,
        runs: 6,
        base_seed: seed,
        duration: 3600,
        lookback,
    }
}

fn f1(c: &Counts) -> f64 {
    let (p, r) = (c.precision(), c.recall());
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// §III.D / Fig. 11: online validation removes false alarms on the
/// hardest fault and never manufactures recall.
#[test]
fn validation_raises_bottleneck_precision() {
    let c = campaign(AppKind::SystemS, FaultKind::Bottleneck, 8800, 100);
    let fchain = FChain::default();
    let plain = c.evaluate(&[&fchain]);
    let validated = c.evaluate_with(&[&fchain], |_s, case, run| {
        let mut probe = OracleProbe::new(&run.oracle);
        FChain::default()
            .diagnose_validated(case, &mut probe)
            .pinpointed
    });
    let (p, v) = (plain[0].counts, validated[0].counts);
    assert!(
        v.precision() > p.precision(),
        "validation must raise precision: {p} -> {v}"
    );
    assert!(v.fp < p.fp, "validation must remove false positives");
    assert!(
        v.recall() <= p.recall() + 1e-9,
        "validation cannot invent recall"
    );
}

/// Fig. 12: FChain's burst-adaptive threshold beats every fixed threshold
/// on the LBBug case.
#[test]
fn burst_adaptive_threshold_beats_fixed_thresholds() {
    let c = campaign(AppKind::Rubis, FaultKind::LbBug, 8900, 100);
    let fchain = FChain::default();
    let f02 = FixedFiltering::new(0.2);
    let f1s = FixedFiltering::new(1.0);
    let f4 = FixedFiltering::new(4.0);
    let results = c.evaluate(&[&fchain, &f02, &f1s, &f4]);
    let fchain_f1 = f1(&results[0].counts);
    for r in &results[1..] {
        assert!(
            fchain_f1 >= f1(&r.counts),
            "FChain ({}) must dominate {} ({})",
            results[0].counts,
            r.scheme,
            r.counts
        );
    }
}

/// Table I: W = 100 is the right default for fast faults, and DiskHog
/// needs the long window.
#[test]
fn lookback_window_optimum_matches_the_paper() {
    let fchain = FChain::default();
    // NetHog: W=100 at least as good as W=500.
    let short = campaign(AppKind::Rubis, FaultKind::NetHog, 9000, 100).evaluate(&[&fchain]);
    let long = campaign(AppKind::Rubis, FaultKind::NetHog, 9000, 500).evaluate(&[&fchain]);
    assert!(
        f1(&short[0].counts) >= f1(&long[0].counts),
        "nethog: W=100 {} should beat W=500 {}",
        short[0].counts,
        long[0].counts
    );
    // DiskHog: W=500 recall strictly better than W=100.
    let short =
        campaign(AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 9100, 100).evaluate(&[&fchain]);
    let long =
        campaign(AppKind::Hadoop, FaultKind::ConcurrentDiskHog, 9100, 500).evaluate(&[&fchain]);
    assert!(
        long[0].counts.recall() >= short[0].counts.recall(),
        "diskhog: W=500 {} should not lose recall to W=100 {}",
        long[0].counts,
        short[0].counts
    );
}

/// §II.C: on a workload surge FChain mostly blames nobody, and strictly
/// fewer components than PAL does.
#[test]
fn workload_surges_are_not_blamed_on_components() {
    let c = campaign(AppKind::Rubis, FaultKind::WorkloadSurge, 9200, 100);
    let fchain = FChain::default();
    let pal = fchain::baselines::Pal::default();
    let results = c.evaluate(&[&fchain, &pal]);
    assert!(
        results[0].counts.fp < results[1].counts.fp,
        "FChain {} must blame fewer components than PAL {}",
        results[0].counts,
        results[1].counts
    );
}

/// §III.B / Fig. 5–7, as golden data: FChain against all six baseline
/// schemes on the standard campaign seeds, with the exact expected counts
/// checked into `tests/golden/paper_claims.json`.
///
/// Two layers of protection:
/// - [`golden::fchain_beats_all_six_baselines`] asserts the paper's
///   *ordering* claim from live results — FChain strictly beats every
///   baseline on both precision and recall aggregated over the table.
///   (A specialist baseline may win an individual case, exactly as in
///   Fig. 5–7: e.g. NetMedic on single-anomaly MemLeak runs.)
/// - [`golden::metrics_match_the_golden_fixture`] pins the *exact* values
///   so a refactor that shifts any tp/fp/fn anywhere fails loudly.
///
/// Regenerate the fixture after an intentional behaviour change with
/// `FCHAIN_REGEN_GOLDEN=1 cargo test -p fchain --test paper_claims`.
mod golden {
    use super::*;
    use fchain::baselines::{DependencyScheme, HistogramScheme, NetMedic, Pal, TopologyScheme};
    use fchain::core::Localizer;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    const GOLDEN_PATH: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/paper_claims.json"
    );
    const REGEN_VAR: &str = "FCHAIN_REGEN_GOLDEN";

    /// The standard campaign seeds: the CLI's default base seed (1000),
    /// one representative fault per application class plus the
    /// cross-application MemLeak, at suite scale (6 runs).
    const CASES: &[(&str, AppKind, FaultKind, u64, u64)] = &[
        (
            "rubis_memleak",
            AppKind::Rubis,
            FaultKind::MemLeak,
            1000,
            100,
        ),
        ("rubis_cpuhog", AppKind::Rubis, FaultKind::CpuHog, 1000, 100),
        ("rubis_nethog", AppKind::Rubis, FaultKind::NetHog, 1000, 100),
        ("rubis_lbbug", AppKind::Rubis, FaultKind::LbBug, 1000, 100),
        (
            "rubis_offloadbug",
            AppKind::Rubis,
            FaultKind::OffloadBug,
            1000,
            100,
        ),
        (
            "systems_memleak",
            AppKind::SystemS,
            FaultKind::MemLeak,
            1000,
            100,
        ),
        (
            "systems_cpuhog",
            AppKind::SystemS,
            FaultKind::CpuHog,
            1000,
            100,
        ),
        (
            "systems_bottleneck",
            AppKind::SystemS,
            FaultKind::Bottleneck,
            1000,
            100,
        ),
        (
            "hadoop_conc_memleak",
            AppKind::Hadoop,
            FaultKind::ConcurrentMemLeak,
            1000,
            100,
        ),
        (
            "hadoop_conc_cpuhog",
            AppKind::Hadoop,
            FaultKind::ConcurrentCpuHog,
            1000,
            100,
        ),
    ];

    /// One scheme's expected score on one case. `precision`/`recall` are
    /// redundant with the counts — they are kept in the fixture for human
    /// reviewers; equality is asserted on the integer counts only.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct GoldenMetrics {
        tp: u64,
        fp: u64,
        fn_: u64,
        precision: f64,
        recall: f64,
    }

    impl From<Counts> for GoldenMetrics {
        fn from(c: Counts) -> Self {
            GoldenMetrics {
                tp: c.tp,
                fp: c.fp,
                fn_: c.fn_,
                precision: c.precision(),
                recall: c.recall(),
            }
        }
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct GoldenCase {
        app: String,
        fault: String,
        seed: u64,
        runs: usize,
        lookback: u64,
        schemes: BTreeMap<String, GoldenMetrics>,
    }

    /// Evaluates every case against FChain and all six baselines, with
    /// the `fchain compare` parameterization (histogram threshold 0.2,
    /// NetMedic delta 0.1, the paper's middle fixed threshold 1.0σ).
    /// Computed once per test binary — both golden tests read it.
    fn evaluate_cases() -> &'static BTreeMap<String, GoldenCase> {
        static CACHE: std::sync::OnceLock<BTreeMap<String, GoldenCase>> =
            std::sync::OnceLock::new();
        CACHE.get_or_init(evaluate_cases_uncached)
    }

    fn evaluate_cases_uncached() -> BTreeMap<String, GoldenCase> {
        let fchain = FChain::default();
        let histogram = HistogramScheme::new(0.2);
        let netmedic = NetMedic::new(0.1);
        let topology = TopologyScheme::default();
        let dependency = DependencyScheme::default();
        let pal = Pal::default();
        let fixed = FixedFiltering::new(1.0);
        let schemes: Vec<&(dyn Localizer + Sync)> = vec![
            &fchain,
            &histogram,
            &netmedic,
            &topology,
            &dependency,
            &pal,
            &fixed,
        ];
        CASES
            .iter()
            .map(|&(name, app, fault, seed, lookback)| {
                let c = campaign(app, fault, seed, lookback);
                let results = c.evaluate(&schemes);
                let golden = GoldenCase {
                    app: format!("{app:?}"),
                    fault: format!("{fault:?}"),
                    seed,
                    runs: c.runs,
                    lookback,
                    schemes: results
                        .into_iter()
                        .map(|r| (r.scheme, GoldenMetrics::from(r.counts)))
                        .collect(),
                };
                (name.to_string(), golden)
            })
            .collect()
    }

    const BASELINES: [&str; 6] = [
        "Histogram",
        "NetMedic",
        "Topology",
        "Dependency",
        "PAL",
        "Fixed-Filtering",
    ];

    #[test]
    fn fchain_beats_all_six_baselines() {
        let cases = evaluate_cases();
        let mut totals: BTreeMap<&str, Counts> = BTreeMap::new();
        for case in cases.values() {
            for (scheme, m) in &case.schemes {
                let slot = totals.entry(scheme_key(scheme)).or_default();
                slot.tp += m.tp;
                slot.fp += m.fp;
                slot.fn_ += m.fn_;
            }
        }
        // Aggregate: strict dominance on both axes, the paper's Fig. 5–7
        // claim ("FChain achieves significantly higher precision ... and
        // recall than the other schemes").
        let f = totals["FChain"];
        for b in BASELINES {
            let m = totals[b];
            assert!(
                f.precision() > m.precision(),
                "aggregate precision: FChain {f} must strictly beat {b} {m}"
            );
            assert!(
                f.recall() > m.recall(),
                "aggregate recall: FChain {f} must strictly beat {b} {m}"
            );
        }
    }

    /// Maps an owned scheme name onto the static key used in `totals`.
    fn scheme_key(name: &str) -> &'static str {
        [
            "FChain",
            "Histogram",
            "NetMedic",
            "Topology",
            "Dependency",
            "PAL",
            "Fixed-Filtering",
        ]
        .into_iter()
        .find(|k| *k == name)
        .unwrap_or_else(|| panic!("unknown scheme {name:?}"))
    }

    #[test]
    fn metrics_match_the_golden_fixture() {
        let actual = evaluate_cases();
        if std::env::var_os(REGEN_VAR).is_some() {
            let rendered = serde_json::to_string_pretty(&actual).expect("golden data serializes");
            std::fs::write(GOLDEN_PATH, rendered + "\n").expect("write golden fixture");
            eprintln!("regenerated {GOLDEN_PATH}");
            return;
        }
        let raw = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
            panic!("cannot read {GOLDEN_PATH}: {e}; run with {REGEN_VAR}=1 to create it")
        });
        let expected: BTreeMap<String, GoldenCase> =
            serde_json::from_str(&raw).expect("golden fixture parses");
        assert_eq!(
            expected.keys().collect::<Vec<_>>(),
            actual.keys().collect::<Vec<_>>(),
            "case set changed; rerun with {REGEN_VAR}=1 if intended"
        );
        for (name, exp) in &expected {
            let act = &actual[name];
            for (scheme, e) in &exp.schemes {
                let a = act
                    .schemes
                    .get(scheme)
                    .unwrap_or_else(|| panic!("{name}: scheme {scheme} missing from live results"));
                assert_eq!(
                    (a.tp, a.fp, a.fn_),
                    (e.tp, e.fp, e.fn_),
                    "{name}/{scheme}: counts drifted from the golden fixture \
                     (tp, fp, fn); rerun with {REGEN_VAR}=1 if the change is \
                     intentional"
                );
            }
        }
    }
}

/// The overhead claim (§III.G): diagnosing from warm daemons is orders of
/// magnitude cheaper than one second of wall clock per component, i.e.
/// cheap enough for online use.
#[test]
fn warm_diagnosis_is_fast() {
    use fchain::core::master::FleetMaster;
    use fchain::core::slave::{MetricSample, SlaveDaemon};
    use fchain::metrics::{ComponentId, MetricKind};
    use std::sync::Arc;

    let slave = Arc::new(SlaveDaemon::new(FChainConfig::default()));
    for t in 0..1200u64 {
        for c in 0..8u32 {
            for kind in MetricKind::ALL {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2 + c as u64)) % 5) as f64;
                let value = if c == 3 && kind == MetricKind::Cpu && t >= 1100 {
                    normal + 50.0
                } else {
                    normal
                };
                slave.ingest(MetricSample {
                    tick: t,
                    component: ComponentId(c),
                    kind,
                    value,
                });
            }
        }
    }
    let mut master = FleetMaster::new(FChainConfig::default());
    let app = master.add_tenant("default");
    master.register_slave(app, slave);
    let start = std::time::Instant::now();
    let report = master.diagnose(app, 1190);
    let elapsed = start.elapsed();
    assert_eq!(report.pinpointed, vec![ComponentId(3)]);
    assert!(
        elapsed.as_millis() < 2000,
        "warm 8-component diagnosis took {elapsed:?}"
    );
}
