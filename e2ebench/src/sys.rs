//! Process resource readings and the host descriptor.

use std::process::Command;

/// `struct timeval` of the 64-bit Linux ABI.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI: two timevals followed by
/// fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: TimeVal,
    ru_stime: TimeVal,
    ru_rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `RUSAGE_SELF`: every thread of the calling process.
const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by this process so far.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
/// valid buffer.
pub fn cpu_seconds() -> f64 {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` laid out as the
    // C ABI defines it, and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &TimeVal| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// Returns freed heap memory to the OS (glibc `malloc_trim`).
///
/// Called between the benchmark's repeated phases (set-ups, replay
/// rounds), so memory one phase freed but the allocator kept in a
/// per-thread arena does not add to the next phase's peak: `VmHWM` then
/// reflects the largest single phase.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` only releases free pages; any `pad` is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where a result was measured: core count, CPU model, compiler, commit
/// and whether obs recording is compiled in.
pub fn host_descriptor() -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    serde_json::json!({
        "nproc": nproc,
        "cpu_model": cpu_model,
        "rustc": rustc,
        "git_commit": git_commit().unwrap_or_else(|| "unknown".to_string()),
        "obs_compiled_in": obs_compiled_in(),
    })
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Whether `fchain-obs` recording is compiled in: the runtime switch can
/// only turn it on when it is.
pub fn obs_compiled_in() -> bool {
    let was = fchain_obs::enabled();
    fchain_obs::set_enabled(true);
    let compiled = fchain_obs::enabled();
    fchain_obs::set_enabled(was);
    compiled
}
