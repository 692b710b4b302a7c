//! The workload seed fully determines what the program receives.

use fchain_e2ebench::fleet::{
    bench_config, feed_until_violation, in_process_fleet, new_pool, reference_reports,
};
use fchain_e2ebench::gen::{generate, Workload};

/// The reference reports of `workload` at `seed`, serialized.
fn references(workload: Workload, seed: u64) -> String {
    let inputs = generate(workload, seed);
    let config = bench_config();
    let pool = new_pool(&config, workload.capacity());
    let (fleet, apps) = in_process_fleet(&config, &inputs, &pool);
    feed_until_violation(&inputs, &pool, &apps);
    serde_json::to_string(&reference_reports(&fleet, &apps, &inputs)).expect("reports serialize")
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for workload in Workload::ALL {
        let a = generate(workload, 7);
        let b = generate(workload, 7);
        assert!(!a.tenants.is_empty(), "{} drew no tenants", workload.name());
        assert_eq!(a.encode(), b.encode(), "{}", workload.name());
        assert_eq!(a.skipped, b.skipped, "{}", workload.name());
    }
}

#[test]
fn different_seed_gives_different_inputs() {
    for workload in Workload::ALL {
        assert_ne!(
            generate(workload, 7).encode(),
            generate(workload, 8).encode(),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn same_seed_gives_byte_identical_reference_reports() {
    let a = references(Workload::DiagShort, 7);
    assert_eq!(a, references(Workload::DiagShort, 7));
    assert_ne!(a, references(Workload::DiagShort, 8));
}
