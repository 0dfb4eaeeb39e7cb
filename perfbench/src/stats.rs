//! Sample statistics with the benchmark's own rules: nearest-rank
//! percentiles, the "at least ten samples beyond" tail, and ratios that
//! carry their base.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// A tail latency: the highest nearest-rank percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 · rank / n`.
    pub percentile: f64,
    /// Samples in the series.
    pub n: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The tail of an ascending series. With `n ≤ TAIL_BEYOND` no rank has
/// ten samples beyond it; the maximum is reported instead, with
/// `beyond == 0` so the printout shows the tail is not backed.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
        beyond: n - rank,
    })
}

/// Sort a series ascending (NaN-free by construction: latencies and
/// durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// A ratio printed with its base, so `0.5` from `1/2` and from
/// `5000/10000` read differently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `num/den` for the report.
    pub fn base(&self) -> String {
        format!("{}/{}", trim(self.num), trim(self.den))
    }
}

fn trim(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// Whether a metric name uses only `[A-Za-z0-9_.-]`, starts with a letter
/// or digit and fits in 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_small_and_odd_counts() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        let three = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&three, 50.0), Some(2.0));
        assert_eq!(percentile(&three, 0.0), Some(1.0));
        assert_eq!(percentile(&three, 100.0), Some(3.0));
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&four, 50.0), Some(2.0));
        assert_eq!(percentile(&four, 51.0), Some(3.0));
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&sorted(five.to_vec()), 50.0), Some(3.0));
        assert_eq!(percentile(&sorted(five.to_vec()), 90.0), Some(5.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[]), None);
        // Too few samples: the maximum, flagged as unbacked.
        let t = tail(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (3.0, 0, 3));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten).unwrap().beyond, 0);
        // Eleven samples: the smallest has exactly ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        // 1000 samples: rank 990, i.e. p99.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        // Odd count: 37 samples -> rank 27.
        let odd: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&odd).unwrap();
        assert_eq!((t.value, t.beyond), (27.0, 10));
    }

    #[test]
    fn ratio_carries_its_base() {
        let r = Ratio { num: 3.0, den: 4.0 };
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.base(), "3/4");
        assert_eq!(Ratio { num: 0.0, den: 0.0 }.value(), 0.0);
    }

    #[test]
    fn metric_names_are_restricted() {
        assert!(valid_metric_name("flow.p50_ms"));
        assert!(valid_metric_name("setup_s"));
        assert!(valid_metric_name("1-a.b_c"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".flow"));
        assert!(!valid_metric_name("flow p50"));
        assert!(!valid_metric_name("flow/p50"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
