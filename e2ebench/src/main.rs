//! `fchain-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (reporting the median set-up
//! time), runs it for the given seconds, and prints one JSON object as
//! the last line of standard output: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). Earlier lines carry the host descriptor and each
//! metric with its sample count.

use fchain_e2ebench::gen::Workload;
use fchain_e2ebench::layers::median;
use fchain_e2ebench::trace::Tracer;
use fchain_e2ebench::{diag, online, sys, Run};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where sockets and the span dump go, relative to the working directory.
const RUN_DIR: &str = ".e2ebench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds.max(1) as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Sets up [`SETUPS`] times, checking that every set-up generated
/// byte-identical inputs and reference reports, and runs `measure` on the
/// first fixture before the other set-ups. Returns what `measure`
/// returned, the last fixture, the set-up times and whether they agreed.
///
/// The measured run comes first so that its peak RSS is that of one
/// set-up and the run. After a set-up is freed, the heap stays larger
/// by a varying amount (10–30 MiB per set-up on `diag-long`).
///
/// Set-ups never overlap: `take` consumes the previous fixture, keeping
/// only what `give` hands to the next one, before the next set-up starts.
fn staged<F, C, R>(
    mut setup: impl FnMut() -> Result<F, String>,
    fingerprint: impl Fn(&F) -> Vec<u8>,
    measure: impl FnOnce(&F) -> R,
    mut take: impl FnMut(F) -> C,
    mut give: impl FnMut(&mut F, C),
) -> Result<(R, F, Vec<f64>, bool), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut first: Option<Vec<u8>> = None;
    let mut agreed = true;
    let mut measure = Some(measure);
    let mut measured: Option<R> = None;
    let mut last: Option<F> = None;
    for _ in 0..SETUPS {
        let carried = last.take().map(&mut take);
        sys::release_freed_memory();
        let started = Instant::now();
        let mut fixture = setup()?;
        times.push(started.elapsed().as_secs_f64());
        let print = fingerprint(&fixture);
        agreed &= first.get_or_insert_with(|| print.clone()) == &print;
        if let Some(carried) = carried {
            give(&mut fixture, carried);
        }
        if let Some(measure) = measure.take() {
            measured = Some(measure(&fixture));
        }
        last = Some(fixture);
    }
    Ok((
        measured.expect("SETUPS > 0"),
        last.expect("SETUPS > 0"),
        times,
        agreed,
    ))
}

fn fingerprint(
    inputs: &fchain_e2ebench::gen::Inputs,
    references: &[fchain_core::DiagnosisReport],
) -> Vec<u8> {
    let mut bytes = inputs.encode();
    bytes.extend(
        serde_json::to_string(references)
            .expect("reports serialize")
            .into_bytes(),
    );
    bytes
}

/// What set-up and measurement produced: the run, the set-up times,
/// whether the set-ups agreed, the peak RSS at the end of the measured
/// run, and the inputs' tenant and skip counts.
struct Executed {
    run: Run,
    setup_times: Vec<f64>,
    rss_peak_mb: f64,
    agreed: bool,
    tenants: usize,
    skipped: usize,
}

fn execute(args: &Args, run_dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Executed, String> {
    Ok(match args.workload {
        Workload::DiagShort | Workload::DiagLong => {
            let ((mut run, rss_peak_mb), fx, setup_times, agreed) = staged(
                || diag::setup(args.workload, args.seed, run_dir, tracer),
                |fx| fingerprint(&fx.inputs, &fx.references),
                |fx| {
                    let run = diag::run(fx, args.seconds, tracer);
                    (run, sys::peak_rss_mib().unwrap_or(0.0))
                },
                diag::Fixture::into_ingest,
                diag::Fixture::absorb_ingest,
            )?;
            if tracer.is_none() {
                diag::ingest_visibility(&fx, &mut run);
            }
            Executed {
                run,
                setup_times,
                rss_peak_mb,
                agreed,
                tenants: fx.inputs.tenants.len(),
                skipped: fx.inputs.skipped,
            }
        }
        Workload::Online => {
            let ((run, rss_peak_mb), fx, setup_times, agreed) = staged(
                || Ok(online::setup(args.seed)),
                |fx| fingerprint(&fx.inputs, &fx.references),
                |fx| {
                    let run = online::run(fx, args.seed, args.seconds, tracer);
                    (run, sys::peak_rss_mib().unwrap_or(0.0))
                },
                drop,
                |_, ()| {},
            )?;
            Executed {
                run,
                rss_peak_mb,
                setup_times,
                agreed,
                tenants: fx.inputs.tenants.len(),
                skipped: fx.inputs.skipped,
            }
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: fchain-e2ebench --workload <diag-short|diag-long|online> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    fchain_obs::set_enabled(false);
    let host = sys::host_descriptor();
    println!(
        "host {}",
        serde_json::to_string(&host).expect("host descriptor serializes")
    );
    let run_dir = Path::new(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(run_dir) {
        eprintln!("error: create {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));

    let Executed {
        mut run,
        setup_times,
        rss_peak_mb,
        agreed,
        tenants,
        skipped,
    } = match execute(&args, run_dir, tracer.as_ref()) {
        Ok(executed) => executed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        sys::release_freed_memory();
        let (panel, panel_tenants) = fchain_e2ebench::fleet::panel_counts(args.workload);
        run.metric("precision", panel.precision(), "ratio", panel_tenants);
        run.metric("recall", panel.recall(), "ratio", panel_tenants);
        run.metric(
            "success_rate",
            1.0 - run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
            run.attempted as usize,
        );
        run.metric("setup_s", median(&setup_times), "s", setup_times.len());
        run.metric("rss_peak_mb", rss_peak_mb, "MiB", 1);
    }

    println!(
        "workload {} seed {} tenants {tenants} skipped_non_violating {skipped} attempted {} failed {} error_rate {:.6} setups_agree {agreed} ledger_errors {} seed_precision {:.6} seed_recall {:.6}",
        args.workload.name(),
        args.seed,
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
        run.ledger_errors,
        run.counts.precision(),
        run.counts.recall(),
    );
    let mut metrics = Vec::new();
    if args.trace {
        for &(name, value, unit) in &run.layers {
            println!("layer {name} {value:.6} {unit}");
            metrics.push((
                serde_json::Value::Str(name.to_string()),
                serde_json::json!({"value": value, "unit": unit}),
            ));
        }
    } else {
        for &(name, value, unit, n) in &run.info {
            println!("info {name} {value:.6} {unit} n={n}");
        }
        for &(name, value, unit, n) in &run.metrics {
            println!("metric {name} {value:.6} {unit} n={n}");
            metrics.push((
                serde_json::Value::Str(name.to_string()),
                serde_json::json!({"value": value, "unit": unit}),
            ));
        }
    }
    if let Some(tracer) = &tracer {
        let path = run_dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => {
                eprintln!("error: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = run.failed == 0 && agreed && run.ledger_errors == 0 && run.attempted > 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": serde_json::Value::Map(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}
