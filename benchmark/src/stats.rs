//! Order statistics over the samples a run collects.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, by linear interpolation
/// between closest ranks — the same rule as the median of an even count.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `samples`; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_sorted(&sorted_copy(samples), 0.5))
}

/// The quiet-window estimate of a higher-is-better metric: the value one
/// window in ten beats. Other tenants of a shared host only ever slow a
/// window down, for seconds at a time, so the upper windows repeat from
/// run to run where the median window does not (README, "Quiet windows").
pub fn quiet_high(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_sorted(&sorted_copy(samples), 0.9))
}

/// The quiet-window estimate of a lower-is-better metric.
pub fn quiet_low(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_sorted(&sorted_copy(samples), 0.1))
}

/// Median with the noise band (min, max) reported beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn band(samples: &[f64]) -> Option<Band> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted_copy(samples);
    Some(Band {
        median: quantile_sorted(&s, 0.5),
        min: s[0],
        max: s[s.len() - 1],
        n: s.len(),
    })
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, and which percentile that was. With fewer than 100
/// samples no tail qualifies and the maximum is reported as "p100".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted_copy(samples);
    let n = s.len();
    for p in [99.9, 99.0, 95.0, 90.0] {
        let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
        if beyond >= 10 {
            return Some(Tail {
                percentile: p,
                value: quantile_sorted(&s, p / 100.0),
                n,
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: s[n - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quiet_estimates_sit_in_the_undisturbed_tail() {
        // Nine quiet windows at 100 and eleven slowed ones: the median is
        // a slowed window, the quiet estimate is not.
        let mut w = vec![100.0; 9];
        w.extend([
            60.0, 65.0, 70.0, 72.0, 75.0, 80.0, 81.0, 82.0, 83.0, 84.0, 85.0,
        ]);
        assert_eq!(median(&w), Some(84.5));
        assert_eq!(quiet_high(&w), Some(100.0));
        let lat: Vec<f64> = w.iter().map(|v| 1e4 / v).collect();
        assert_eq!(quiet_low(&lat), Some(100.0));
        assert_eq!(quiet_high(&[]), None);
    }

    #[test]
    fn band_reports_min_and_max() {
        let b = band(&[3.0, 9.0, 1.0, 4.0, 5.0]).unwrap();
        assert_eq!((b.median, b.min, b.max, b.n), (4.0, 1.0, 9.0, 5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&few).unwrap().percentile, 100.0);
        let some: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&some).unwrap().percentile, 95.0);
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        let t = tail(&many).unwrap();
        assert_eq!(t.percentile, 99.9);
        assert!(t.value > 19_970.0 && t.value < 19_990.0);
    }
}
