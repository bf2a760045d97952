//! Random distributions used by the evaluation workloads.
//!
//! The paper's experiments draw from three families: exponential
//! inter-arrivals (Poisson flow arrivals, Fig. 11/12), bounded Pareto flow
//! sizes (Fig. 11), and a zipf key popularity distribution for the key-value
//! store workload (§5.3, s = 0.9).

use crate::rng::Rng;

/// Exponential distribution with the given mean.
///
/// # Examples
///
/// ```
/// use tas_sim::{dist::Exponential, Rng};
/// let exp = Exponential::new(10.0);
/// let mut rng = Rng::new(1);
/// assert!(exp.sample(&mut rng) >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Exponential { mean }
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0).
        -self.mean * (1.0 - rng.f64()).ln()
    }
}

/// Bounded Pareto distribution over `[min, max]` with shape `alpha`.
///
/// Used for the heavy-tailed flow sizes in the congestion-control
/// experiments (Fig. 11).
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    min: f64,
    max: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `min <= 0`, `max <= min`, or `alpha <= 0`.
    pub fn new(min: f64, max: f64, alpha: f64) -> Self {
        assert!(min > 0.0, "min must be positive");
        assert!(max > min, "max must exceed min");
        assert!(alpha > 0.0, "alpha must be positive");
        BoundedPareto { min, max, alpha }
    }

    /// Draws a sample in `[min, max]`.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF of the bounded Pareto.
        let u = rng.f64();
        let la = self.min.powf(self.alpha);
        let ha = self.max.powf(self.alpha);
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.min, self.max)
    }

    /// Analytic mean of the distribution (used to size offered load).
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (self.min, self.max, self.alpha);
        if (a - 1.0).abs() < 1e-9 {
            // alpha == 1 special case.
            let c = h * l / (h - l);
            c * (h / l).ln()
        } else {
            (l.powf(a) / (1.0 - (l / h).powf(a)))
                * (a / (a - 1.0))
                * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
        }
    }
}

/// Zipf distribution over `{0, .., n-1}` with skew `s`.
///
/// Sampling inverts a precomputed cumulative table. A guide table of
/// ⌈n/8⌉ entries (Chen and Asau's indexed search) starts each draw at
/// most two guide intervals below its answer, so a draw scans about 12
/// table entries on average instead of binary-searching all n, and
/// returns exactly the rank the binary search would. Building both
/// tables is O(n). The key-value store workload uses n = 100,000 and
/// s = 0.9 as in the paper.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[k]` = #{i : cdf[i] <= k / guide.len()}: the first rank a
    /// draw of `u` >= k / guide.len() can return.
    guide: Vec<u32>,
}

impl Zipf {
    /// Creates a zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one element");
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit in u32");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let m = n.div_ceil(8);
        let mut guide = Vec::with_capacity(m);
        let mut i = 0;
        for k in 0..m {
            let edge = k as f64 / m as f64;
            while i < n && cdf[i] <= edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank(rng.f64())
    }

    /// The rank of `u` in `[0, 1)`: the first index with `cdf > u`, capped
    /// at `n - 1`.
    fn rank(&self, u: f64) -> usize {
        let m = self.guide.len();
        // Start one guide interval lower than `u * m` names: that absorbs
        // the rounding of the product, and every rank below the start has
        // `cdf <= (k - 1) / m <= u`.
        let k = ((u * m as f64) as usize).min(m);
        let mut i = match k.checked_sub(1) {
            Some(k) => self.guide[k] as usize,
            None => 0,
        };
        while i < self.cdf.len() && self.cdf[i] <= u {
            i += 1;
        }
        i.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::new(5.0);
        let mut rng = Rng::new(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_bounds_hold() {
        let p = BoundedPareto::new(1.0, 100.0, 1.2);
        let mut rng = Rng::new(12);
        for _ in 0..10_000 {
            let v = p.sample(&mut rng);
            assert!((1.0..=100.0).contains(&v), "sample {v} out of bounds");
        }
    }

    #[test]
    fn pareto_empirical_mean_matches_analytic() {
        let p = BoundedPareto::new(2.0, 1000.0, 1.5);
        let mut rng = Rng::new(13);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| p.sample(&mut rng)).sum::<f64>() / n as f64;
        let want = p.mean();
        assert!(
            (mean - want).abs() / want < 0.05,
            "empirical {mean} vs analytic {want}"
        );
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::new(14);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn zipf_single_element() {
        let z = Zipf::new(1, 0.9);
        let mut rng = Rng::new(15);
        assert_eq!(z.sample(&mut rng), 0);
    }

    /// The binary search the guide table replaced: the first index with
    /// `cdf > u`, capped at `n - 1`.
    fn reference_rank(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c <= u).min(z.cdf.len() - 1)
    }

    #[test]
    fn zipf_guide_rank_equals_binary_search() {
        let mut rng = Rng::new(17);
        for n in [1, 2, 7, 1000, 100_000] {
            // s = 0 is uniform: with n a multiple of 8, cdf[8k - 1] lands
            // exactly on guide edge k / m, where `u * m` rounding up to k
            // for `u` just below the edge would skip a rank.
            for s in [0.0, 0.5, 0.9, 1.0, 1.5] {
                let z = Zipf::new(n, s);
                let m = z.guide.len() as f64;
                // Random draws, every table value and every guide edge,
                // each with its neighbours one ulp away, and the ends of
                // the range `Rng::f64` draws from.
                let random = (0..20_000).map(|_| rng.f64());
                let cdf = z.cdf.iter().copied();
                let edges = (0..z.guide.len()).map(|k| k as f64 / m);
                let ends = [0.0, 1.0f64.next_down()];
                for x in random.chain(cdf).chain(edges).chain(ends) {
                    for u in [x.next_down(), x, x.next_up()] {
                        assert_eq!(z.rank(u), reference_rank(&z, u), "n {n} s {s} u {u:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_skew_ratio_approximates_power_law() {
        // P(rank 0) / P(rank 1) should be close to 2^s.
        let s = 0.9;
        let z = Zipf::new(100, s);
        let mut rng = Rng::new(16);
        let mut c = [0u32; 2];
        for _ in 0..500_000 {
            let r = z.sample(&mut rng);
            if r < 2 {
                c[r] += 1;
            }
        }
        let ratio = c[0] as f64 / c[1] as f64;
        let want = 2f64.powf(s);
        assert!(
            (ratio - want).abs() / want < 0.05,
            "ratio {ratio} vs {want}"
        );
    }
}
