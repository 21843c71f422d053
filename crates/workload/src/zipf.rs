//! Zipfian key generation and the analytic popularity model.
//!
//! [`Zipfian`] is the YCSB generator (Gray et al.'s "Quickly generating
//! billion-record synthetic databases" algorithm): rank `k` is drawn with
//! probability proportional to `1/k^θ` in O(1) time per sample.
//! [`ScrambledZipfian`] hashes the rank so popular keys are spread over the
//! key space (YCSB's `scrambled_zipfian`), which is what keeps a consistent
//! hash ring load-balanced under skew.
//!
//! [`PopularityModel`] is the closed-form counterpart the optimizer needs:
//! `F(x)` = fraction of accesses hitting the most popular `x` fraction of
//! items (the paper's popularity CDF), and its inverse for "which fraction
//! of the working set receives 90% of accesses" (the paper's hot-data
//! definition).

use rand::Rng;

/// YCSB Zipfian rank generator over `{0, .., n-1}` (0 = most popular).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotcache_workload::zipf::Zipfian;
///
/// let z = Zipfian::new(1_000, 0.99);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let rank = z.sample(&mut rng);
/// assert!(rank < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `n` items with skew `theta` in `(0, 1) ∪ (1, ∞)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta <= 0` or `theta == 1` (use 0.99 or 1.01;
    /// the YCSB formulation is singular exactly at 1, and the paper's
    /// "Zipf = 1.0" is conventionally run as 0.99).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian over zero items");
        assert!(
            theta > 0.0 && (theta - 1.0).abs() > 1e-9,
            "theta must be > 0 and != 1"
        );
        let zetan = generalized_harmonic(n, theta);
        let zeta2 = generalized_harmonic(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draws a rank (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) && self.n >= 2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// A Zipfian generator whose ranks are scrambled over the key space.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled generator (see [`Zipfian::new`] for panics).
    pub fn new(n: u64, theta: f64) -> Self {
        Self {
            inner: Zipfian::new(n, theta),
        }
    }

    /// Draws a key in `{0, .., n-1}`; popular keys are spread uniformly
    /// over the range rather than clustered at 0.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.inner.sample(rng);
        fnv_mix(rank) % self.inner.n
    }

    /// The key a given popularity rank maps to.
    pub fn key_for_rank(&self, rank: u64) -> u64 {
        fnv_mix(rank) % self.inner.n
    }

    /// The underlying rank generator.
    pub fn inner(&self) -> &Zipfian {
        &self.inner
    }
}

/// FNV-style 64-bit mix used by YCSB's scrambled generator.
fn fnv_mix(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_be_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Terms of a generalized harmonic number that are summed exactly; the
/// rest is an integral tail.
const HARMONIC_CUTOFF: u64 = 100_000;

/// Generalized harmonic number `H_{n,θ} = Σ_{k=1..n} k^{-θ}`.
///
/// Exact summation up to a cutoff, then an Euler–Maclaurin integral tail —
/// accurate to ~1e-9 relative error, fast for `n` in the billions.
pub(crate) fn generalized_harmonic(n: u64, theta: f64) -> f64 {
    harmonic_with_tail(harmonic_head(n.min(HARMONIC_CUTOFF), theta), n, theta)
}

/// `Σ_{k=1..m} k^{-θ}`, term by term in ascending `k`.
fn harmonic_head(m: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for k in 1..=m {
        sum += 1.0 / (k as f64).powf(theta);
    }
    sum
}

/// `H_{n,θ}` given `head`, the exact sum of its first
/// `min(n, HARMONIC_CUTOFF)` terms.
fn harmonic_with_tail(head: f64, n: u64, theta: f64) -> f64 {
    let m = HARMONIC_CUTOFF;
    if n <= m {
        return head;
    }
    // ∫ x^{-θ} dx from m+1/2 to n+1/2 (midpoint-corrected tail).
    let (a, b) = (m as f64 + 0.5, n as f64 + 0.5);
    head + if (theta - 1.0).abs() < 1e-12 {
        (b / a).ln()
    } else {
        (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

/// The exact sum `Σ_{k=1..HARMONIC_CUTOFF} k^{-θ}` every [`PopularityModel`]
/// over at least that many items at skew `θ` is built from — nearly all of
/// the work of building one. A caller that builds many such models at one
/// skew sums it once here and passes it to [`PopularityModel::with_head`].
#[derive(Debug, Clone, Copy)]
pub struct ZipfHead {
    theta: f64,
    sum: f64,
}

impl ZipfHead {
    /// Sums the head at skew `theta`.
    pub fn new(theta: f64) -> Self {
        Self {
            theta,
            sum: harmonic_head(HARMONIC_CUTOFF, theta),
        }
    }
}

/// Closed-form popularity CDF over a Zipfian working set — the paper's
/// `F(·)` and the source of its hot-data definition.
#[derive(Debug, Clone, Copy)]
pub struct PopularityModel {
    /// Number of distinct items in the working set.
    pub(crate) n: u64,
    /// Zipf skew.
    pub(crate) theta: f64,
    /// Exact sum of the first `min(n, HARMONIC_CUTOFF)` terms, shared by
    /// every `H_{k,θ}` with `k` at or past the cutoff.
    head: f64,
    h_n: f64,
}

impl PopularityModel {
    /// Creates a model over `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        Self::from_head_sum(n, theta, harmonic_head(n.min(HARMONIC_CUTOFF), theta))
    }

    /// `Self::new(n, θ)` at `head`'s skew `θ`, to the bit, without summing
    /// the head again when `n` reaches the cutoff.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn with_head(n: u64, head: &ZipfHead) -> Self {
        if n >= HARMONIC_CUTOFF {
            Self::from_head_sum(n, head.theta, head.sum)
        } else {
            Self::new(n, head.theta)
        }
    }

    /// The model whose first `min(n, HARMONIC_CUTOFF)` terms sum to `head`.
    fn from_head_sum(n: u64, theta: f64, head: f64) -> Self {
        assert!(n > 0, "empty working set");
        assert!(theta >= 0.0, "negative skew");
        Self {
            n,
            theta,
            head,
            h_n: harmonic_with_tail(head, n, theta),
        }
    }

    /// `generalized_harmonic(k, θ)` for `k ≤ n`, to the bit.
    fn harmonic(&self, k: u64) -> f64 {
        if k >= HARMONIC_CUTOFF {
            harmonic_with_tail(self.head, k, self.theta)
        } else {
            harmonic_head(k, self.theta)
        }
    }

    /// `F(x)`: fraction of accesses hitting the most popular `x ∈ [0, 1]`
    /// fraction of items.
    pub fn access_mass(&self, top_frac: f64) -> f64 {
        let x = top_frac.clamp(0.0, 1.0);
        // The epsilon absorbs the float round-trip through
        // `hot_fraction` (which returns `k / n`): `(k / n) * n` can land
        // just below `k`.
        let k = (x * self.n as f64 + 1e-9).floor() as u64;
        if k == 0 {
            return 0.0;
        }
        (self.harmonic(k) / self.h_n).min(1.0)
    }

    /// Inverse of [`Self::access_mass`]: the smallest item fraction whose
    /// accesses account for at least `mass` of all accesses (the paper's
    /// hot set is `hot_fraction(0.9)`).
    pub fn hot_fraction(&self, mass: f64) -> f64 {
        let target = mass.clamp(0.0, 1.0);
        let (mut lo, mut hi) = (0u64, self.n);
        // Above the cutoff each probe is the head plus a closed-form tail.
        // A midpoint below it probes the cutoff instead, whose sum is the
        // head itself: the predicate never falls as `k` grows, so any probe
        // in `[lo, hi)` narrows to the same first `k`. Either the search
        // stays above the cutoff, or `[lo, cutoff]` is left to the pass
        // below.
        while lo < hi && hi > HARMONIC_CUTOFF {
            let mid = (lo + (hi - lo) / 2).max(HARMONIC_CUTOFF);
            if self.harmonic(mid) / self.h_n >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // Below the cutoff `harmonic(k)` is the head's partial sum (0 at
        // `k = 0`), which never falls as `k` grows, so the first `k` in
        // `[lo, hi)` that reaches the target is what bisecting would find.
        // Summing up to it once, in `harmonic_head`'s order, gives the same
        // sums without summing a prefix again for every midpoint.
        if lo < hi {
            let mut sum = harmonic_head(lo, self.theta);
            while lo < hi && sum / self.h_n < target {
                lo += 1;
                sum += 1.0 / (lo as f64).powf(self.theta);
            }
        }
        lo as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability of drawing rank `k` (0-based).
    fn pmf(z: &Zipfian, k: u64) -> f64 {
        if k >= z.n {
            return 0.0;
        }
        1.0 / ((k + 1) as f64).powf(z.theta) / z.zetan
    }

    #[test]
    fn harmonic_matches_brute_force() {
        for theta in [0.5, 0.99, 1.0, 1.5, 2.0] {
            let exact: f64 = (1..=1000u64).map(|k| 1.0 / (k as f64).powf(theta)).sum();
            let got = generalized_harmonic(1000, theta);
            assert!(
                (got - exact).abs() < 1e-9,
                "theta {theta}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn harmonic_tail_approximation_is_tight() {
        // Compare hybrid vs brute force past the cutoff.
        let theta = 1.2;
        let n = 300_000u64;
        let exact: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).sum();
        let got = generalized_harmonic(n, theta);
        assert!((got - exact).abs() / exact < 1e-6, "{got} vs {exact}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipfian::new(1000, 0.99);
        let total: f64 = (0..1000).map(|k| pmf(&z, k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        assert_eq!(pmf(&z, 1000), 0.0);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0u64; 100];
        let samples = 200_000;
        for _ in 0..samples {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // The Gray et al. algorithm is exact for ranks 0-1 and approximate
        // beyond; check the head accordingly and the tail in aggregate.
        for k in 0..5 {
            let want = pmf(&z, k) * samples as f64;
            let got = counts[k as usize] as f64;
            let tol = if k < 2 { 0.1 } else { 0.25 };
            assert!(
                (got - want).abs() / want < tol,
                "rank {k}: got {got}, want {want}"
            );
        }
        // Counts must be (noisily) non-increasing in rank overall.
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[90..].iter().sum();
        assert!(head > 5 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mild = PopularityModel::new(1_000_000, 0.99);
        let heavy = PopularityModel::new(1_000_000, 2.0);
        assert!(heavy.access_mass(0.01) > mild.access_mass(0.01));
        assert!(heavy.hot_fraction(0.9) < mild.hot_fraction(0.9));
    }

    #[test]
    fn access_mass_is_monotone_and_bounded() {
        let m = PopularityModel::new(100_000, 1.2);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let f = m.access_mass(x);
            assert!(f >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert_eq!(m.access_mass(0.0), 0.0);
        assert!((m.access_mass(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_fraction_inverts_access_mass() {
        let m = PopularityModel::new(1_000_000, 1.5);
        let h = m.hot_fraction(0.9);
        let mass = m.access_mass(h);
        assert!(mass >= 0.9 - 1e-6, "mass at hot fraction: {mass}");
        // One item fewer must be below the target.
        let h_minus = (h * m.n as f64 - 1.0).max(0.0) / m.n as f64;
        assert!(m.access_mass(h_minus) < 0.9 + 1e-9);
    }

    /// The bisection of `hot_fraction` with every harmonic number summed
    /// from scratch — what the model did before it kept its head sum and
    /// summed the partial sums below the cutoff once.
    fn from_scratch_hot_fraction(n: u64, theta: f64, mass: f64) -> f64 {
        let h_n = generalized_harmonic(n, theta);
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let m = if mid == 0 {
                0.0
            } else {
                generalized_harmonic(mid, theta) / h_n
            };
            if m >= mass {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as f64 / n as f64
    }

    #[test]
    fn shared_head_sum_matches_from_scratch_harmonics_bit_for_bit() {
        const C: u64 = HARMONIC_CUTOFF;
        // θ = 1 takes the logarithmic tail; n below, at and above the cutoff.
        for theta in [0.5, 0.99, 1.0, 2.0] {
            for n in [C - 1, C, C + 1, 3 * C] {
                let model = PopularityModel::new(n, theta);
                let h_n = generalized_harmonic(n, theta);
                for k in [1, C - 1, C, C + 1, 2 * C, n - 1, n] {
                    if k > n {
                        continue;
                    }
                    let want = (generalized_harmonic(k, theta) / h_n).min(1.0);
                    let got = model.access_mass(k as f64 / n as f64);
                    assert_eq!(got.to_bits(), want.to_bits(), "θ {theta} n {n} k {k}");
                }
                for mass in [0.5, 0.9, 1.0] {
                    assert_eq!(
                        model.hot_fraction(mass).to_bits(),
                        from_scratch_hot_fraction(n, theta, mass).to_bits(),
                        "θ {theta} n {n} mass {mass}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// `hot_fraction`, which sums the head's partial sums once below
        /// the cutoff, finds what bisecting over from-scratch harmonic
        /// numbers finds, to the bit: `n` up to four cutoffs (1 and around
        /// the cutoff drawn exactly), `θ` over [0, 3] with 1 and 2 drawn
        /// exactly, any mass with 0, 0.9 and 1 drawn exactly.
        #[test]
        fn hot_fraction_is_the_from_scratch_bisection(
            (n_kind, any_n) in (0u8..5, 1u64..=4 * HARMONIC_CUTOFF),
            (theta_kind, any_theta) in (0u8..4, 0.0f64..=3.0),
            (mass_kind, any_mass) in (0u8..5, 0.0f64..=1.0),
        ) {
            const C: u64 = HARMONIC_CUTOFF;
            let n = [1, C - 1, C, C + 1, any_n][n_kind as usize];
            let theta = [1.0, 2.0, any_theta, any_theta][theta_kind as usize];
            let mass = [0.0, 0.9, 1.0, any_mass, any_mass][mass_kind as usize];
            proptest::prop_assert_eq!(
                PopularityModel::new(n, theta).hot_fraction(mass).to_bits(),
                from_scratch_hot_fraction(n, theta, mass).to_bits(),
                "n {} θ {} mass {}", n, theta, mass
            );
        }

        /// A model built from a shared [`ZipfHead`] is the model
        /// [`PopularityModel::new`] builds, to the bit: `n` at 1, around
        /// the cutoff and up to 1e9, `θ` over [0, 3] with 1 (the
        /// logarithmic tail) and 2 drawn exactly.
        #[test]
        fn a_shared_head_builds_the_same_model(
            (n_kind, any_n) in (0u8..6, 1u64..=1_000_000_000),
            (theta_kind, any_theta) in (0u8..4, 0.0f64..=3.0),
        ) {
            const C: u64 = HARMONIC_CUTOFF;
            let n = [1, C - 1, C, C + 1, 1_000_000_000, any_n][n_kind as usize];
            let theta = [1.0, 2.0, any_theta, any_theta][theta_kind as usize];
            let (shared, own) = (
                PopularityModel::with_head(n, &ZipfHead::new(theta)),
                PopularityModel::new(n, theta),
            );
            for x in [0.0, 1e-9, 1e-6, 0.001, 0.1, 0.5, 0.9, 1.0] {
                proptest::prop_assert_eq!(
                    shared.access_mass(x).to_bits(),
                    own.access_mass(x).to_bits(),
                    "n {} θ {} x {}", n, theta, x
                );
            }
            for mass in [0.5, 0.9, 0.99] {
                proptest::prop_assert_eq!(
                    shared.hot_fraction(mass).to_bits(),
                    own.hot_fraction(mass).to_bits(),
                    "n {} θ {} mass {}", n, theta, mass
                );
            }
        }
    }

    #[test]
    fn zipf2_hot_set_is_tiny() {
        // The paper's Zipf=2.0 workloads: a very small subset is "very hot"
        // (Section 5.5's explanation of why OD+Spot_Sep wastes resources).
        let m = PopularityModel::new(15_000_000, 2.0); // ~60GB / 4KB items
        assert!(m.hot_fraction(0.9) < 0.001);
    }

    #[test]
    fn scrambled_spreads_popular_keys() {
        let z = ScrambledZipfian::new(10_000, 0.99);
        let k0 = z.key_for_rank(0);
        let k1 = z.key_for_rank(1);
        assert_ne!(k0, k1);
        assert!(k0 > 100 || k1 > 100, "hot keys should not cluster at 0");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 10_000);
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn theta_one_panics() {
        Zipfian::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zero_items_panics() {
        Zipfian::new(0, 0.5);
    }
}
