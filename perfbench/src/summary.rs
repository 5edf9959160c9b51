//! The one summary every timing in the benchmark goes through: median, p99
//! tail, and the sample count behind both.

/// Fewest samples that must lie beyond the tail quantile before the tail is
/// reported; below this the "tail" is a handful of outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The tail every timing reports: p99.
pub const TAIL_Q: f64 = 0.99;

/// Median and p99 of one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub count: usize,
    /// Median, `None` when there are no samples.
    pub median: Option<f64>,
    /// The p99, `None` unless at least [`MIN_BEYOND_TAIL`] samples lie
    /// beyond it.
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarize `samples` (reordered in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_unstable_by(f64::total_cmp);
        let count = samples.len();
        let beyond = (count as f64 * (1.0 - TAIL_Q)).floor() as usize;
        Summary {
            count,
            median: quantile_sorted(samples, 0.5),
            tail: if beyond >= MIN_BEYOND_TAIL {
                quantile_sorted(samples, TAIL_Q)
            } else {
                None
            },
        }
    }

    /// Median, or 0 when there were no samples (for counters that report
    /// "not exercised" as zero).
    pub fn median_or_zero(&self) -> f64 {
        self.median.unwrap_or(0.0)
    }

    /// Tail, or 0 when the sample does not support it.
    pub fn tail_or_zero(&self) -> f64 {
        self.tail.unwrap_or(0.0)
    }

    /// `p50=… p99=… n=…` with values scaled by `scale` (e.g. 1e3 for ms).
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let fmt = |x: Option<f64>| match x {
            Some(x) => format!("{:.4}{unit}", x * scale),
            None => "n/a".to_string(),
        };
        format!(
            "p50={} p99={} n={}",
            fmt(self.median),
            fmt(self.tail),
            self.count
        )
    }
}

/// Linearly interpolated quantile of sorted samples (the "type 7" rule).
fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() < 1e-9)
    }

    #[test]
    fn uniform_ramp() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).rev().collect();
        let s = Summary::of(&mut xs);
        assert_eq!(s.count, 1000);
        assert!(close(s.median, 500.5));
        assert!(close(s.tail, 990.01));
    }

    #[test]
    fn tail_refused_below_ten_beyond() {
        let mut xs: Vec<f64> = (0..999).map(f64::from).collect();
        let s = Summary::of(&mut xs);
        assert!(close(s.median, 499.0));
        assert_eq!(s.tail, None, "999 samples leave only 9 beyond p99");
        let mut xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(Summary::of(&mut xs).tail.is_some(), "1000 samples leave 10");
    }

    #[test]
    fn two_point_distribution() {
        // 95% fast, 5% slow: the median sits on the fast mode, p99 on the
        // slow one.
        let mut xs: Vec<f64> = (0..2000)
            .map(|i| if i % 20 == 0 { 10.0 } else { 1.0 })
            .collect();
        let s = Summary::of(&mut xs);
        assert!(close(s.median, 1.0));
        assert!(close(s.tail, 10.0));
    }

    #[test]
    fn exponential_quantiles() {
        // Inverse-CDF samples of Exp(1) on an even grid: median ln 2,
        // p99 ln 100.
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        let s = Summary::of(&mut xs);
        assert!((s.median.unwrap() - 2f64.ln()).abs() < 1e-3);
        assert!((s.tail.unwrap() - 100f64.ln()).abs() < 1e-2);
    }

    #[test]
    fn empty_and_single() {
        let s = Summary::of(&mut []);
        assert_eq!((s.count, s.median, s.tail), (0, None, None));
        assert_eq!(s.median_or_zero(), 0.0);
        let s = Summary::of(&mut [3.5]);
        assert!(close(s.median, 3.5));
        assert_eq!(s.tail, None);
    }
}
