//! Order statistics over a metric's samples and the verdict rules
//! `--compare` applies to them.

/// Percentiles tried, highest first, when reporting a metric's tail.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method). A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the standard percentiles (99.9, 99, 95, 90, 75, 50)
/// that has at least ten samples strictly above it, as
/// `(percentile, value)`; `None` when even the median has fewer.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let v = percentile(xs, p);
        let beyond = xs.iter().filter(|&&x| x > v).count();
        (beyond >= TAIL_MIN_BEYOND).then_some((p, v))
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Self::Higher),
            "lower" => Some(Self::Lower),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }

    fn sign(self) -> f64 {
        match self {
            Self::Higher => 1.0,
            Self::Lower => -1.0,
        }
    }
}

/// How far a metric may move before it counts: a share of the baseline
/// median, but never less than an absolute floor (a 10% bound on a
/// 3 ms set-up time would otherwise sit inside timer noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub share: f64,
    pub floor: f64,
}

impl Bound {
    /// The tolerated change around a baseline median `base`.
    pub fn tolerance(self, base: f64) -> f64 {
        (self.share * base.abs()).max(self.floor)
    }

    /// Whether `value` is worse than `base` by more than the tolerance.
    pub fn exceeded(self, base: f64, value: f64, better: Better) -> bool {
        better.sign() * (value - base) < -self.tolerance(base)
    }
}

/// Outcome of comparing one metric between a baseline run set `a` and
/// a candidate run set `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Compares samples `b` against baseline samples `a`.
///
/// When either side's quartile spread is wider than the tolerance, a
/// difference cannot be told from noise: the result is `Unresolved`
/// unless every run of `b` reads better than every run of `a`.
/// Otherwise `b`'s median is `Worse` or `Better` when it moved by more
/// than the tolerance, and `Same` when it did not.
///
/// # Panics
/// Panics when either side has no samples.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let s = better.sign();
    let base = median(a);
    let gain = s * (median(b) - base);
    let tol = bound.tolerance(base);
    let iqr = |xs: &[f64]| {
        let (q1, _, q3) = quartiles(xs);
        q3 - q1
    };
    let all_better = a.iter().all(|&x| b.iter().all(|&y| s * (y - x) > 0.0));
    if iqr(a).max(iqr(b)) > tol {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if bound.exceeded(base, median(b), better) {
        Verdict::Worse
    } else if gain > tol {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // too few samples: not even the median has ten above it
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: the median (10) has exactly ten above it
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 1000 samples: p99 = 990 has ten above it, p99.9 only one
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 990.0)));
        // samples tied with the percentile do not count as beyond it
        let mut tied = vec![1.0; 40];
        tied.extend(vec![2.0; 60]);
        assert_eq!(tail(&tied), None);
        let mut low_heavy = vec![1.0; 60];
        low_heavy.extend(vec![2.0; 40]);
        assert_eq!(tail(&low_heavy), Some((50.0, 1.0)));
    }

    #[test]
    fn bounds_respect_direction_and_floor() {
        let b = Bound {
            share: 0.1,
            floor: 0.0,
        };
        // higher is better: dropping 10% is allowed, 11% is not
        assert!(!b.exceeded(100.0, 90.0, Better::Higher));
        assert!(b.exceeded(100.0, 89.0, Better::Higher));
        assert!(!b.exceeded(100.0, 500.0, Better::Higher));
        // lower is better: rising 10% is allowed, 11% is not
        assert!(!b.exceeded(100.0, 110.0, Better::Lower));
        assert!(b.exceeded(100.0, 111.0, Better::Lower));
        assert!(!b.exceeded(100.0, 1.0, Better::Lower));
        // the floor widens a bound on a tiny baseline
        let floored = Bound {
            share: 0.15,
            floor: 0.010,
        };
        assert_eq!(floored.tolerance(0.002), 0.010);
        assert!(!floored.exceeded(0.002, 0.011, Better::Lower));
        assert!(floored.exceeded(0.002, 0.0121, Better::Lower));
        assert_eq!(floored.tolerance(1.0), 0.15);
    }

    #[test]
    fn verdicts_follow_spread_and_bound() {
        let bound = Bound {
            share: 0.08,
            floor: 0.0,
        };
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // inside the bound
        let same = [98.0, 99.0, 97.5, 98.5, 98.0];
        assert_eq!(verdict(&base, &same, Better::Higher, bound), Verdict::Same);
        // a clear drop beyond the bound
        let worse = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&base, &worse, Better::Higher, bound),
            Verdict::Worse
        );
        // the same numbers are an improvement when lower is better
        assert_eq!(
            verdict(&base, &worse, Better::Lower, bound),
            Verdict::Better
        );
        // a clear gain beyond the bound
        let better = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&base, &better, Better::Higher, bound),
            Verdict::Better
        );
        // spread wider than the bound: unresolved, even for a median drop
        let noisy = [60.0, 140.0, 70.0, 130.0, 90.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, bound),
            Verdict::Unresolved
        );
        // ... unless every candidate run beats every baseline run
        let noisy_but_above = [102.0, 160.0, 110.0, 150.0, 130.0];
        assert_eq!(
            verdict(&base, &noisy_but_above, Better::Higher, bound),
            Verdict::Better
        );
        // a zero bound (error_rate) flags any increase
        let zero = Bound {
            share: 0.0,
            floor: 0.0,
        };
        assert_eq!(verdict(&[0.0], &[0.0], Better::Lower, zero), Verdict::Same);
        assert_eq!(
            verdict(&[0.0], &[0.25], Better::Lower, zero),
            Verdict::Worse
        );
    }
}
