//! Sample statistics, process memory and the metric records a run
//! reports.

use std::time::Duration;

/// One reported number: name, value and unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Append-only list of metrics in report order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (lower middle for even counts, so the value is a measured one).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Per-item median over repetitions: element `i` is the median of
/// `reps[r][i]` over `r`. Every repetition runs the same operations on
/// the same state, so a slowdown of the shared machine during a
/// minority of the repetitions does not move the result.
pub fn per_item_median(reps: &[Vec<f64>]) -> Vec<f64> {
    let n = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Seconds other guests ran on this virtual machine's vCPUs while they
/// wanted to run ours (`steal` of `/proc/stat`, summed over the vCPUs;
/// 0 where the kernel does not report it).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// `wall` seconds less the stolen time that fell on each of the `busy`
/// vCPUs the measured work kept running. On a shared virtual machine the
/// stolen time is other tenants' load, and it moves a parallel burst's
/// wall time by 10-25 % from run to run. The steal counter ticks every
/// 10 ms, so the interval measured should be far longer; the result is
/// never put below half the wall time.
pub fn less_steal(wall: f64, steal: f64, busy: usize) -> f64 {
    (wall - steal / busy as f64).max(wall / 2.0)
}

/// Worker threads the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn per_item_median_ignores_one_slow_repetition() {
        let reps = vec![vec![1.0, 10.0], vec![9.0, 90.0], vec![2.0, 11.0]];
        assert_eq!(per_item_median(&reps), vec![2.0, 11.0]);
    }
}
