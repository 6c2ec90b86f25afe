//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two nearest ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and p99 of one timing, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises `values` (sorted in place). No samples summarise to
    /// zeros: a layer that did not run took no time.
    pub fn of(values: &mut [f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                p99: 0.0,
            };
        }
        values.sort_by(f64::total_cmp);
        Summary {
            n: values.len(),
            median: percentile(values, 0.5),
            q1: percentile(values, 0.25),
            q3: percentile(values, 0.75),
            p99: percentile(values, 0.99),
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            p99: self.p99 * factor,
        }
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Sample count and inter-quartile range, printed beside a timing.
    pub fn note(&self) -> String {
        format!(
            "n={} iqr={:.4} ({:.1}% of median)",
            self.n,
            self.iqr(),
            100.0 * self.iqr() / self.median.abs().max(f64::MIN_POSITIVE)
        )
    }
}

/// Median of `values` (0 for none).
pub fn median(mut values: Vec<f64>) -> f64 {
    Summary::of(&mut values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_vectors() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn summary_reports_quartiles_and_iqr() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!(s.iqr(), 2.0);
        assert_eq!(s.scaled(10.0).q3, 40.0);
        assert!((s.p99 - 4.96).abs() < 1e-12);
    }
}
