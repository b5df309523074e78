//! Percentiles and the windowed helper every timing metric goes through: a
//! phase is cut into equal windows, the statistic is taken per window, and
//! the metric is the **quiet quartile** over the windows — the value a
//! quarter of the windows are at least as good as. This box's neighbours
//! slow it down in bursts of seconds and never speed it up, so the median
//! over windows still moves with how many windows a burst hit (measured:
//! closed-loop throughput under a bursty CPU hog spread 10 % run to run by
//! the median and 5 % by the quiet quartile); a stall that costs even half
//! the windows leaves the quiet quartile where it was.

/// Windows per measured phase.
pub const WINDOWS: usize = 20;

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle values averaged for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The quiet quartile of per-window values: with `higher_is_better` the
/// value a quarter of the windows reach or exceed, otherwise the value a
/// quarter of the windows reach or stay below.
pub fn quiet_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of an empty sample");
    values.sort_by(f64::total_cmp);
    let quarter = values.len().div_ceil(4);
    if higher_is_better {
        values[values.len() - quarter]
    } else {
        values[quarter - 1]
    }
}

/// Distance between the first and the third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values, n=4)`
/// gives — the run-to-run spread the driver computes over ten runs.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&mut sorted)
}

/// Samples of one measured phase, bucketed into [`WINDOWS`] equal windows by
/// the time (ns since the measured part began) each sample belongs to.
#[derive(Debug, Clone)]
pub struct Windowed {
    window_ns: u64,
    buckets: Vec<Vec<f64>>,
}

impl Windowed {
    pub fn new(measure_ns: u64) -> Self {
        Windowed {
            window_ns: (measure_ns / WINDOWS as u64).max(1),
            buckets: vec![Vec::new(); WINDOWS],
        }
    }

    /// Record `value` at `at_ns`; samples past the last window are dropped
    /// (they belong to the drain, not to the measured part).
    pub fn push(&mut self, at_ns: u64, value: f64) {
        if let Some(bucket) = self.buckets.get_mut((at_ns / self.window_ns) as usize) {
            bucket.push(value);
        }
    }

    pub fn samples(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Each non-empty window's `p`-th percentile.
    pub fn window_percentiles(&self, p: f64) -> Vec<f64> {
        self.buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| {
                let mut sorted = b.clone();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, p)
            })
            .collect()
    }

    /// Quiet quartile over the non-empty windows of each window's `p`-th
    /// percentile (lower is better); `None` when no window has a sample.
    pub fn quiet_percentile(&self, p: f64) -> Option<f64> {
        let mut per_window = self.window_percentiles(p);
        (!per_window.is_empty()).then(|| quiet_quartile(&mut per_window, false))
    }

    /// `p`-th percentile over all samples of the phase.
    #[cfg(test)]
    pub fn overall_percentile(&self, p: f64) -> Option<f64> {
        let mut all: Vec<f64> = self.buckets.iter().flatten().copied().collect();
        if all.is_empty() {
            return None;
        }
        all.sort_by(f64::total_cmp);
        Some(percentile(&all, p))
    }

    pub fn mean(&self) -> Option<f64> {
        let n = self.samples();
        (n > 0).then(|| self.buckets.iter().flatten().sum::<f64>() / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quiet_quartile_takes_the_better_side() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_quartile(&mut v, false), 5.0);
        assert_eq!(quiet_quartile(&mut v, true), 16.0);
        assert_eq!(quiet_quartile(&mut [7.0], true), 7.0);
        assert_eq!(quiet_quartile(&mut [2.0, 1.0, 3.0], false), 1.0);
    }

    #[test]
    fn stalled_windows_do_not_move_the_quiet_quartile() {
        // Twenty 1 s windows of 100 samples at 1.0; half of them stall at 50.
        let mut w = Windowed::new(20_000_000_000);
        for win in 0..20u64 {
            for i in 0..100u64 {
                let value = if win % 2 == 0 { 50.0 } else { 1.0 };
                w.push(win * 1_000_000_000 + i * 1_000_000, value);
            }
        }
        assert_eq!(w.samples(), 2_000);
        assert_eq!(w.quiet_percentile(50.0), Some(1.0));
        assert_eq!(w.quiet_percentile(95.0), Some(1.0));
        // ... while the whole-phase p95 does see them.
        assert_eq!(w.overall_percentile(95.0), Some(50.0));
    }

    #[test]
    fn samples_after_the_last_window_are_dropped_and_empty_is_none() {
        let mut w = Windowed::new(1_000);
        assert_eq!(w.quiet_percentile(50.0), None);
        w.push(1_000, 1.0);
        w.push(5_000, 1.0);
        assert_eq!(w.samples(), 0);
        w.push(999, 2.0);
        assert_eq!(w.quiet_percentile(50.0), Some(2.0));
    }
}
