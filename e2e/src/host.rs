//! What the host was doing while we measured: a fixed calibration spin,
//! `/proc/stat` steal, and the static facts a ledger should carry.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The CPU [`pin_to_one_cpu`] chose, once it has.
static PINNED_CPU: OnceLock<usize> = OnceLock::new();

/// Restrict this process — and every thread it starts later — to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` where
/// the platform has no such call or refuses it (the run then proceeds
/// unpinned and says so).
///
/// Why: on the 2-vCPU sandbox the hypervisor takes 20–40 % of the CPU
/// time away whenever both vCPUs are busy, in bursts of many seconds.
/// A cached read is three thread hand-offs, so with client, reactor and
/// worker spread over two vCPUs its p50 moved between 41 and 95 µs and
/// its p90 between 120 and 2300 µs from one run to the next. On one CPU
/// the hand-offs are context switches, nothing is stolen, and the same
/// numbers repeat within 5 %.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the kernel's default cpu_set_t.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 means the calling thread. The call writes at most
    // `cpusetsize` bytes into it.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is
    // only read. Called before any other thread exists, so every thread
    // started later inherits the mask.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    let _ = PINNED_CPU.set(cpu);
    Some(cpu)
}

/// No affinity call on this platform: run unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// A fixed amount of integer work (xorshift rounds), timed in
/// milliseconds. It touches no memory and calls nothing, so its time
/// moves only when the host itself is slower — which is what it is for.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Jiffies of the CPU the harness is pinned to — of all CPUs together
/// when it is not — from `/proc/stat`: (total, steal). `None` off Linux
/// or when the line does not parse.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let label = PINNED_CPU.get().map_or_else(|| "cpu".to_string(), |n| format!("cpu{n}"));
    let fields: Vec<u64> = text
        .lines()
        .find(|l| l.split_ascii_whitespace().next() == Some(label.as_str()))?
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice
    (fields.len() >= 8).then(|| (fields.iter().take(8).sum(), fields[7]))
}

/// Steal time between two `/proc/stat` readings, as a percentage of all
/// jiffies that passed; `0.0` when either reading is missing.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            100.0 * (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Relative difference between the two calibration spins of a workload;
/// above a tenth the workload is reported as disturbed.
pub fn calib_drift(before_ms: f64, after_ms: f64) -> f64 {
    let lo = before_ms.min(after_ms);
    if lo > 0.0 {
        (before_ms - after_ms).abs() / lo
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); `0.0` when
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start a fresh `VmHWM` high-water mark, so a workload's peak is its
/// own when several run in one process. Best effort: where the kernel
/// refuses, later workloads report the process's peak so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Static host facts for the ledger, as `(key, JSON value)` pairs.
pub fn describe() -> Vec<(&'static str, String)> {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("commit", quote(&command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", quote(&command_line("rustc", &["-V"]))),
        ("cpu_model", quote(&cpu_model)),
        ("loadavg", quote(&loadavg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_and_steal_arithmetic() {
        assert_eq!(calib_drift(100.0, 100.0), 0.0);
        assert!((calib_drift(100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((calib_drift(112.0, 100.0) - 0.12).abs() < 1e-12);
        assert_eq!(steal_pct(Some((1000, 10)), Some((2000, 40))), 3.0);
        assert_eq!(steal_pct(None, Some((2000, 40))), 0.0);
    }
}
