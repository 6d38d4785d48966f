//! Pure helpers: the seeded generator, arrival schedules, percentiles and
//! span self-time arithmetic. Nothing here touches the system under test,
//! so every function is unit-tested below.

/// SplitMix64: a small, dependency-free generator whose stream depends
/// only on the seed, so a seed reproduces the same inputs and schedules on
/// every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }
}

/// Due times (seconds from phase start) of `n` Poisson arrivals at `rate`
/// requests per second.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(1.0 / rate);
            t
        })
        .collect()
}

/// Due times of `n` evenly spaced arrivals at `rate` requests per second.
pub fn uniform_schedule(rate: f64, n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64 / rate).collect()
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which [`percentile`] supports `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(p, n) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Nearest-rank rank (1-based) of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of ascending-sorted samples:
/// the smallest sample at or above a share `p` of the set. `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond it, so a reported tail always
/// rests on ten observations.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || beyond(p, n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(p, n) - 1])
}

/// Latency percentiles of one stretch of consecutive samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    /// Index of the stretch's first sample.
    pub start: usize,
    pub p50: f64,
    pub p99: f64,
}

/// The calmest stretch of `window` consecutive samples (in arrival order):
/// of the windows starting every `step` samples, plus the one ending at
/// the last sample, the one with the lowest p99. `None` when `window` is
/// too short for p99 or longer than the samples.
pub fn calmest_stretch(samples: &[f64], window: usize, step: usize) -> Option<Stretch> {
    let n = samples.len();
    if window < min_samples(0.99) || window > n || step == 0 {
        return None;
    }
    let mut starts: Vec<usize> = (0..=n - window).step_by(step).collect();
    if starts.last() != Some(&(n - window)) {
        starts.push(n - window);
    }
    starts
        .into_iter()
        .map(|start| {
            let mut v = samples[start..start + window].to_vec();
            v.sort_by(f64::total_cmp);
            Stretch {
                start,
                p50: v[rank(0.5, window) - 1],
                p99: percentile(&v, 0.99).expect("window holds enough samples for p99"),
            }
        })
        .min_by(|a, b| a.p99.total_cmp(&b.p99))
}

/// Median (nearest-rank p50) of unsorted samples; 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(0.5, v.len()) - 1]
}

/// Length of the union of half-open intervals `(start, end)`.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of it that child spans
/// cover (children are clipped to the parent; overlapping children count
/// once).
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (ps, pe) = parent;
    let clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .collect();
    ((pe - ps) - union_len(&clipped)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(20.0));
        assert_eq!(percentile(&v, 0.75), Some(30.0));
        assert_eq!(percentile(&v, 0.76), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calmest_stretch_avoids_a_stall() {
        // 3000 samples of 1..=1000 ms with a stall of 20 slow samples at
        // 500..520: the calmest 1000-sample stretch starts after it.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000 + 1)).collect();
        for x in &mut v[500..520] {
            *x = 5000.0;
        }
        let calm = calmest_stretch(&v, 1000, 100).unwrap();
        assert!(calm.start >= 520, "{calm:?}");
        assert_eq!(calm.p99, 990.0);
        assert_eq!(calm.p50, 500.0);
        // The window ending at the last sample is always considered.
        let mut v: Vec<f64> = vec![5000.0; 1050];
        for x in &mut v[50..] {
            *x = 1.0;
        }
        assert_eq!(calmest_stretch(&v, 1000, 100).unwrap().start, 50);
        // Too short a window for p99, or too few samples.
        assert_eq!(calmest_stretch(&v, 999, 100), None);
        assert_eq!(calmest_stretch(&v[..999], 1000, 100), None);
    }

    #[test]
    fn schedules_reproduce_per_seed() {
        let a = poisson_schedule(&mut Rng::new(7), 100.0, 500);
        let b = poisson_schedule(&mut Rng::new(7), 100.0, 500);
        let c = poisson_schedule(&mut Rng::new(8), 100.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 100.0).abs() < 15.0, "mean rate {rate}");

        assert_eq!(uniform_schedule(4.0, 3), vec![0.25, 0.5, 0.75]);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children (two lanes) count their union once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Children are clipped to the parent.
        assert_eq!(self_time((2.0, 8.0), &[(0.0, 3.0), (7.0, 12.0)]), 4.0);
        // Fully covered parent has no self time.
        assert_eq!(self_time((2.0, 4.0), &[(0.0, 10.0)]), 0.0);
        assert_eq!(union_len(&[(0.0, 1.0), (1.0, 2.0), (3.0, 3.0)]), 2.0);
    }
}
