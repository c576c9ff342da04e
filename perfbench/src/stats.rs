//! The clock, order statistics and process measurements.

use std::time::Instant;

/// The current instant: the benchmark's only clock read.
#[must_use]
pub fn now() -> Instant {
    Instant::now() // detlint: allow(wall-clock, the benchmark owns the clock; the library crates never read one)
}

/// Nanoseconds from `a` to `b`.
#[must_use]
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

/// Latencies as a histogram of 10 ns buckets up to 1 ms, the last
/// bucket holding everything slower: quantiles exact to 10 ns in
/// constant memory, so `peak_rss_mb` does not grow with the sample
/// count.
#[derive(Clone, Debug)]
pub struct Latencies {
    buckets: Vec<u32>,
    count: u64,
}

impl Latencies {
    const BUCKET_NS: u64 = 10;
    const BUCKETS: usize = 100_000;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
        }
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        let bucket = usize::try_from(ns / Self::BUCKET_NS).unwrap_or(usize::MAX);
        self.buckets[bucket.min(Self::BUCKETS - 1)] += 1;
        self.count += 1;
    }

    /// The number of latencies recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile in ns by the nearest-rank rule, at the midpoint
    /// of its bucket; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return (b as f64 + 0.5) * Self::BUCKET_NS as f64;
            }
        }
        unreachable!("the buckets hold every recorded latency")
    }
}

impl Default for Latencies {
    fn default() -> Self {
        Self::new()
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count); 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The peak resident set size of this process (`VmHWM`) in MiB, or 0
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_to_the_bucket() {
        let mut lat = Latencies::new();
        for i in 1..=100 {
            lat.record(i * 1_000);
        }
        assert_eq!(lat.len(), 100);
        assert_eq!(lat.quantile(0.5), 50_005.0);
        assert_eq!(lat.quantile(0.99), 99_005.0);
        assert_eq!(lat.quantile(1.0), 100_005.0);
        lat.record(u64::MAX);
        assert_eq!(
            lat.quantile(1.0),
            999_995.0,
            "slower than 1 ms lands in the last bucket"
        );
        assert_eq!(Latencies::new().quantile(0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
