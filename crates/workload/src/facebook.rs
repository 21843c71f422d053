//! Facebook memcached workload profiles (Atikoglu et al., SIGMETRICS'12 —
//! the paper's reference for "read-heavy workloads are the norm").
//!
//! Two of the published pools are modeled:
//!
//! * **USR** — user-account status: 99.8% GETs, fixed tiny values (2 bytes)
//!   under 16/21-byte keys, strongly skewed popularity. This is the
//!   workload the paper cites to justify its read-heavy focus.
//! * **ETC** — the general-purpose pool: ~97% GETs, wildly mixed value
//!   sizes (a few bytes to hundreds of KB, roughly Pareto-tailed), the
//!   stress case for slab-class capacity planning.

use rand::Rng;

use crate::ycsb::Request;
use crate::zipf::ScrambledZipfian;

/// Which published pool to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacebookPool {
    /// User-account status pool (99.8% reads, 2-byte values).
    Usr,
    /// General-purpose pool (~97% reads, heavy-tailed values).
    Etc,
}

/// A Facebook-profile request generator.
#[derive(Debug, Clone)]
pub struct FacebookWorkload {
    pool: FacebookPool,
    keys: ScrambledZipfian,
}

impl FacebookWorkload {
    /// Published read fraction of the USR pool.
    pub(crate) const USR_READ_FRACTION: f64 = 0.998;
    /// Approximate read fraction of the ETC pool.
    pub(crate) const ETC_READ_FRACTION: f64 = 0.97;

    /// Creates a generator over `n` keys.
    pub fn new(pool: FacebookPool, n: u64) -> Self {
        // Atikoglu et al. report strong skew in both pools; USR's is the
        // stronger of the two.
        let theta = match pool {
            FacebookPool::Usr => 1.5,
            FacebookPool::Etc => 1.05,
        };
        Self {
            pool,
            keys: ScrambledZipfian::new(n, theta),
        }
    }

    /// Read fraction of this pool.
    pub(crate) fn read_fraction(&self) -> f64 {
        match self.pool {
            FacebookPool::Usr => Self::USR_READ_FRACTION,
            FacebookPool::Etc => Self::ETC_READ_FRACTION,
        }
    }

    /// Draws the next request.
    pub fn next_request<R: Rng + ?Sized>(&self, rng: &mut R) -> Request {
        let key = self.keys.sample(rng);
        let is_read = rng.gen::<f64>() < self.read_fraction();
        let value_size = match self.pool {
            FacebookPool::Usr => 2,
            FacebookPool::Etc => sample_etc_value_size(rng),
        };
        Request {
            key,
            is_read,
            value_size,
        }
    }
}

/// ETC value-size mixture: `(probability, lo, hi)` byte ranges
/// approximating the published CDF (most values tiny, a heavy tail).
const ETC_SIZE_TABLE: &[(f64, usize, usize)] = &[
    (0.40, 2, 10),
    (0.30, 11, 100),
    (0.20, 101, 1_000),
    (0.07, 1_001, 10_000),
    (0.025, 10_001, 100_000),
    (0.005, 100_001, 500_000),
];

fn sample_etc_value_size<R: Rng + ?Sized>(rng: &mut R) -> usize {
    let mut u: f64 = rng.gen();
    for &(p, lo, hi) in ETC_SIZE_TABLE {
        if u < p {
            return rng.gen_range(lo..=hi);
        }
        u -= p;
    }
    8 // numerically unreachable fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn usr_is_998_permille_reads_with_tiny_values() {
        let w = FacebookWorkload::new(FacebookPool::Usr, 100_000);
        let mut rng = StdRng::seed_from_u64(1);
        let mut reads = 0;
        for _ in 0..50_000 {
            let r = w.next_request(&mut rng);
            assert_eq!(r.value_size, 2);
            if r.is_read {
                reads += 1;
            }
        }
        let frac = reads as f64 / 50_000.0;
        assert!((frac - 0.998).abs() < 0.003, "{frac}");
    }

    #[test]
    fn etc_value_sizes_are_heavy_tailed() {
        let w = FacebookWorkload::new(FacebookPool::Etc, 100_000);
        let mut rng = StdRng::seed_from_u64(2);
        let sizes: Vec<usize> = (0..50_000)
            .map(|_| w.next_request(&mut rng).value_size)
            .collect();
        let small = sizes.iter().filter(|&&s| s <= 100).count() as f64 / sizes.len() as f64;
        let huge = sizes.iter().filter(|&&s| s > 10_000).count() as f64 / sizes.len() as f64;
        assert!((small - 0.70).abs() < 0.03, "small frac {small}");
        assert!((0.005..0.08).contains(&huge), "huge frac {huge}");
        // The mean is pulled far above the median by the tail.
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        assert!(mean > 10.0 * median, "mean {mean} vs median {median}");
    }

    #[test]
    fn etc_table_probabilities_sum_to_one() {
        let total: f64 = ETC_SIZE_TABLE.iter().map(|&(p, _, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pools_report_their_parameters() {
        let usr = FacebookWorkload::new(FacebookPool::Usr, 10);
        let etc = FacebookWorkload::new(FacebookPool::Etc, 10);
        assert!(usr.read_fraction() > etc.read_fraction());
    }
}
