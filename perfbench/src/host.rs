//! Host calibration recorded beside every result set, and the process
//! memory high-water mark.
//!
//! `spin_speedup` times a pure CPU spin serially and across the engines'
//! default worker count. A host whose vCPUs deliver less than one core
//! each then reads as low fan-out *efficiency* (speed-up ÷ spin
//! speed-up), not as a code regression.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Iterations of the spin kernel per worker: tens of milliseconds on a
/// current core.
const SPIN_ITERATIONS: u64 = 40_000_000;

/// What the benchmark ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`, which also honours cgroup
    /// quotas.
    pub available_parallelism: usize,
    /// Workers the engines fan out to by default.
    pub workers: usize,
    pub cpu_model: String,
    /// Milliseconds of one worker's spin run alone: a fixed amount of
    /// work, so it shows how fast the host ran beside the results.
    pub spin_ms: f64,
    /// Serial spin time over the same spin split across `workers`.
    pub spin_speedup: f64,
}

impl Host {
    /// Measures the host.
    #[must_use]
    pub fn calibrate() -> Self {
        let available_parallelism = thread::available_parallelism().map_or(1, |n| n.get());
        let workers = available_parallelism;
        let (serial, parallel) = spin_seconds(workers);
        Self {
            nproc: allowed_cpus().unwrap_or(available_parallelism),
            available_parallelism,
            workers,
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            spin_ms: serial * 1e3 / workers as f64,
            spin_speedup: serial / parallel,
        }
    }

    /// One `key=value` line for the human-readable output.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "host: nproc={} available_parallelism={} workers={} spin_ms={:.3} spin_speedup={:.3} cpu=\"{}\"",
            self.nproc,
            self.available_parallelism,
            self.workers,
            self.spin_ms,
            self.spin_speedup,
            self.cpu_model
        )
    }

    /// The calibration as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"workers\":{},\"cpu_model\":\"{}\",\"spin_ms\":{},\"spin_speedup\":{}}}",
            self.nproc,
            self.available_parallelism,
            self.workers,
            self.cpu_model.replace(['"', '\\'], ""),
            self.spin_ms,
            self.spin_speedup
        )
    }
}

/// A dependency-free integer spin that the optimiser cannot fold.
fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Seconds for `workers` spins run back to back on one thread, and for
/// the same spins run on `workers` scoped threads at once.
fn spin_seconds(workers: usize) -> (f64, f64) {
    let start = Instant::now();
    for _ in 0..workers {
        spin(SPIN_ITERATIONS);
    }
    let serial = start.elapsed().as_secs_f64();

    let start = Instant::now();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| spin(SPIN_ITERATIONS));
        }
    });
    (serial, start.elapsed().as_secs_f64())
}

/// Counts the CPUs in `Cpus_allowed_list` of `/proc/self/status`
/// (ranges like `0-3,6`).
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0;
    for part in list.split(',') {
        count += match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(count)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_owned())
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_depends_on_its_iteration_count() {
        assert_ne!(spin(1), spin(2));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        if let Some(cpus) = allowed_cpus() {
            assert!(cpus >= 1);
        }
        if let Some(rss) = peak_rss_mb() {
            assert!(rss > 0.0);
        }
    }
}
