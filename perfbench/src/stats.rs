//! Sample statistics: medians, quantiles, and the reported tail.

/// Linear-interpolation quantile of `sorted` at `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile levels the tail is chosen from, highest first.
const TAIL_LEVELS: [f64; 4] = [0.99, 0.95, 0.9, 0.75];

/// A latency distribution as reported: median plus the highest percentile
/// that has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Level of the reported tail (`1.0` means the maximum: fewer than
    /// forty samples back any listed percentile).
    pub tail_level: f64,
    /// Value at `tail_level`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let n = s.len();
        let tail_level = TAIL_LEVELS
            .iter()
            .copied()
            .find(|&q| ((1.0 - q) * n as f64 + 1e-9).floor() >= 10.0)
            .unwrap_or(1.0);
        Summary {
            n,
            p50: quantile(&s, 0.5),
            tail_level,
            tail: quantile(&s, tail_level),
        }
    }

    /// `p99`, `p75`, `max`: the tail's name for the detail report.
    pub fn tail_name(&self) -> String {
        if self.tail_level >= 1.0 {
            "max".to_owned()
        } else {
            let pct = self.tail_level * 100.0;
            if pct.fract() == 0.0 {
                format!("p{pct:.0}")
            } else {
                format!("p{pct}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail_level, 0.99);
        assert_eq!(s.tail_name(), "p99");
        let s = Summary::of(&samples[..100]);
        assert_eq!(s.tail_level, 0.9);
        let s = Summary::of(&samples[..20]);
        assert_eq!((s.tail_level, s.tail), (1.0, 19.0));
    }
}
