//! Host facts the report header records, and CPU confinement for the
//! simulator workloads (via the `taskset` tool, applied to every thread of
//! this process).

use std::process::Command;

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
/// Child processes — the proc path's workers — are not included.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Restart the `VmHWM` high-water mark from the current RSS, so the next
/// [`peak_rss_mb`] is the peak of what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// CPUs this process may run on, as the kernel lists them (`0-1`, `1`).
pub fn affinity() -> String {
    status_field("Cpus_allowed_list:").unwrap_or_else(|| "unknown".into())
}

/// CPUs the process may use now (respects affinity).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restrict every thread of this process (and the threads it spawns later)
/// to `cpus`, a `taskset` CPU list.
pub fn set_affinity(cpus: &str) -> Result<(), String> {
    let pid = std::process::id().to_string();
    let out = Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &pid])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset -a -p -c {cpus} {pid}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let now = affinity();
    if now != cpus {
        return Err(format!("asked for CPUs {cpus}, got {now}"));
    }
    Ok(())
}

/// The last CPU this process may run on: where the simulator workloads are
/// confined, one process at a time.
pub fn last_cpu() -> String {
    let list = affinity();
    let last = list.rsplit(',').next().unwrap_or("0");
    last.rsplit('-').next().unwrap_or("0").to_string()
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// time the hypervisor ran someone else on this machine's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Git revision of the source tree, as passed in by the runner script
/// (the benchmark's checkout need not be a git repository).
pub fn revision() -> String {
    std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into())
}
