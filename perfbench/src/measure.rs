//! Timing statistics and process readings (CPU time, resident memory).

use std::collections::BTreeMap;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Quartile spread as a share of the median: `(q3 - q1) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads, including
/// exited ones), in milliseconds, to the nanosecond.
pub fn process_cpu_ms() -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // every 64-bit Linux ABI).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts[0] as f64 * 1e3 + ts[1] as f64 / 1e6
}

/// A `/proc/self/status` size field (`VmRSS:`, `VmHWM:` …) in MiB.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size since the process started, in MiB.
pub fn hwm_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Named running sums, for per-layer samples taken beside the operations.
#[derive(Debug, Default)]
pub struct Samples {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |e| e.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.sums.get(name).map_or(0, |e| e.1)
    }

    pub fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name), self.count(name) as f64)
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
