//! Sample statistics and the metric record every workload reports.

/// One reported number: a median over `n` samples with its quartiles,
/// or a single count/ratio (`n == 1`, quartiles equal to the value).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A number that is not a sample statistic (a count, a ratio of
    /// counts, a single wall-clock reading).
    pub fn single(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, n: 1, q1: value, q3: value }
    }

    /// The median of `samples` with quartiles and sample count.
    pub fn median_of(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        let sorted = sorted(samples);
        Metric {
            name: name.to_string(),
            value: quantile(&sorted, 0.5),
            unit,
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
        }
    }

    /// Percentile `p` (0–100) of `samples`; quartiles are the sample
    /// quartiles, so the spread of the underlying data stays visible.
    pub fn percentile_of(name: &str, samples: &[f64], p: f64, unit: &'static str) -> Metric {
        if tail_percentile(samples.len()).is_none_or(|supported| f64::from(supported) < p) {
            eprintln!("{name}: {} samples leave fewer than ten beyond p{p}", samples.len());
        }
        let sorted = sorted(samples);
        Metric {
            name: name.to_string(),
            value: quantile(&sorted, p / 100.0),
            unit,
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
        }
    }

    /// The same sample statistic with every number passed through `f`
    /// (a monotone unit conversion such as wall seconds → reads/s;
    /// quartiles are re-ordered if `f` is decreasing).
    pub fn map(&self, name: &str, unit: &'static str, f: impl Fn(f64) -> f64) -> Metric {
        let (a, b) = (f(self.q1), f(self.q3));
        Metric {
            name: name.to_string(),
            value: f(self.value),
            unit,
            n: self.n,
            q1: a.min(b),
            q3: a.max(b),
        }
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly
/// interpolated between order statistics; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a layer that
/// moved no bytes has no cost per byte).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The reporting rule for a timing: besides the median, the highest of
/// p99 / p95 / p90 / p75 that still has at least ten samples beyond
/// it. `None` when even p75 is not supported (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75].into_iter().find(|p| n * (100 - *p as usize) / 100 >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(240), Some(95)); // 12 samples beyond p95
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let m = Metric::median_of("x", &[4.0, 1.0, 3.0, 2.0], "s");
        assert_eq!((m.value, m.q1, m.q3, m.n), (2.5, 1.75, 3.25, 4));
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        let p = Metric::percentile_of("x", &[0.0, 10.0], 90.0, "s");
        assert_eq!(p.value, 9.0);
    }

    #[test]
    fn map_keeps_quartiles_ordered_under_a_decreasing_conversion() {
        let wall = Metric::median_of("w", &[1.0, 2.0, 4.0], "s");
        let rate = wall.map("r", "1/s", |s| 8.0 / s);
        assert_eq!(rate.value, 4.0);
        assert!(rate.q1 <= rate.value && rate.value <= rate.q3);
    }
}
