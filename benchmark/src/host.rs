//! What the benchmark reads from the host, its own peak memory and the
//! speed of the calibrated busy loop, and the one thing it asks of it: a
//! CPU to stay on.

use fuzzy_sched::executor::busy;
use std::time::Instant;

/// Peak resident set of this process in MB (`VmHWM`). Each workload runs
/// in a process of its own, so this is the workload's peak.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_owned())
}

extern "C" {
    /// glibc's; std links it already.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// one CPU: the first of the host's first 64 it is allowed on. Returns
/// that CPU, or `None` where the host lets it pin to none.
pub fn pin_to_one_cpu() -> Option<usize> {
    (0..64usize).find(|cpu| {
        let mask = 1u64 << cpu;
        // SAFETY: `mask` is 8 readable bytes, the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    })
}

/// `units` of the calibrated busy loop, the work of every real-thread
/// episode. Never inlined: inlined copies of the loop were compiled
/// differently (one vectorised, its neighbour not, 6x apart), so every
/// caller and the calibration share this one.
#[inline(never)]
pub fn work(units: u64) {
    busy(units);
}

/// Busy units timed by one calibration.
const CALIBRATION_UNITS: u64 = 20_000_000;

/// Wall-clock ns per unit of [`work`]. It drifts with host speed: when
/// every `episode_ns` moves the same way between two runs, this moved too.
pub fn calibrate_busy() -> f64 {
    let start = Instant::now();
    for _ in 0..CALIBRATION_UNITS / 1000 {
        work(1000);
    }
    start.elapsed().as_nanos() as f64 / CALIBRATION_UNITS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_readings_are_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn a_thread_can_be_pinned() {
        // On a thread of its own, so the test runner's stays unpinned.
        let cpu = std::thread::spawn(pin_to_one_cpu).join().unwrap();
        assert!(cpu.is_some());
    }
}
