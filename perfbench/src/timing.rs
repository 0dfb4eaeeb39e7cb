//! Busy-time accumulation for the traced runs: each layer's time is the
//! sum of the benchmark's own timed calls into that layer's public API.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time and call count per layer, plus plain event counts.
#[derive(Debug, Default)]
pub struct Busy {
    layers: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, u64>,
}

impl Busy {
    /// Time `f` as one call of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Book `d` as one call of `layer`.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        let slot = self.layers.entry(layer).or_default();
        slot.0 += d;
        slot.1 += 1;
    }

    /// Add `n` to the event count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The event count `name` (0 if never counted).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |&n| n as f64)
    }

    /// Busy milliseconds of `layer` (0 if never timed).
    pub fn ms(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    /// Timed calls of `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |(_, n)| *n)
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), read at the
/// end of the workload's own process.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of a non-empty series.
pub fn median(values: &[f64]) -> f64 {
    let sorted = crate::stats::sorted(values.to_vec());
    crate::stats::percentile(&sorted, 50.0).unwrap_or(0.0)
}

/// CPU time this process has used so far: every thread, including
/// threads that have already exited (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Unlike wall time it does not grow while the process waits for a core
/// another tenant of a shared host holds, or for the disk.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` in the 64-bit
    // Linux layout, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_counts_work_on_exited_threads() {
        let before = process_cpu();
        let want = Duration::from_millis(20);
        // Spin on a thread until the clock has moved by `want` (or give
        // up after 5 s of wall time), then let the thread exit.
        std::thread::spawn(move || {
            let t = Instant::now();
            while process_cpu() - before < want && t.elapsed() < Duration::from_secs(5) {
                std::hint::black_box(0u64);
            }
        })
        .join()
        .unwrap();
        let used = process_cpu() - before;
        assert!(used >= want, "{used:?}");
    }
}
