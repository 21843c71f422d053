//! Deterministic token-bucket capacity model for burstable (t2) instances
//! (paper Section 3.3 and Figure 5).
//!
//! The paper's key observation is that t2 capacity variation is *not*
//! random: CPU credits and network allowance follow documented/measured
//! token buckets the tenant can steer by shaping its own usage. The backup
//! controller exploits this by keeping burstables idle (banking tokens) and
//! bursting exactly during failure recovery.

use crate::catalog::{BurstSpec, InstanceType};
use spotcache_obs::{Counter, Gauge, Obs};

/// A generic token bucket with a guaranteed base rate and a burst rate.
///
/// Tokens accrue at `earn_rate` per second up to `capacity`. Consumption at
/// up to `peak_rate` is possible while tokens remain; once the bucket is
/// empty the achievable rate collapses to `base_rate` (which equals the earn
/// rate for EC2's CPU credits).
///
/// # Examples
///
/// ```
/// use spotcache_cloud::burstable::TokenBucket;
///
/// // 100 banked tokens, earning 1/s, bursting at 10/s.
/// let mut bucket = TokenBucket::new(100.0, 100.0, 1.0, 1.0, 10.0);
/// assert_eq!(bucket.consume(10.0, 5.0), 10.0); // burst holds
/// assert!((bucket.burst_endurance(10.0) - 55.0 / 9.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    /// Current token level.
    pub level: f64,
    /// Maximum banked tokens.
    pub(crate) capacity: f64,
    /// Tokens earned per second.
    pub(crate) earn_rate: f64,
    /// Rate sustainable with an empty bucket (units/second).
    pub(crate) base_rate: f64,
    /// Rate achievable while tokens remain (units/second).
    pub(crate) peak_rate: f64,
}

impl TokenBucket {
    /// Creates a bucket with an initial token level (clamped to capacity).
    pub fn new(
        initial: f64,
        capacity: f64,
        earn_rate: f64,
        base_rate: f64,
        peak_rate: f64,
    ) -> Self {
        Self {
            level: initial.clamp(0.0, capacity),
            capacity,
            earn_rate,
            base_rate,
            peak_rate,
        }
    }

    /// Lets the bucket idle for `dt` seconds, banking tokens.
    pub(crate) fn idle(&mut self, dt: f64) {
        self.level = (self.level + self.earn_rate * dt).min(self.capacity);
    }

    /// Consumes at `demand` units/second for `dt` seconds.
    ///
    /// Returns the *average achieved rate* over the interval. The bucket
    /// drains at `achieved - earn_rate` while bursting; if it empties
    /// mid-interval, the remainder of the interval runs at `base_rate`.
    pub fn consume(&mut self, demand: f64, dt: f64) -> f64 {
        if dt <= 0.0 {
            return 0.0;
        }
        let d = demand.max(0.0).min(self.peak_rate);
        if d <= self.earn_rate {
            // Earning faster than spending: bank the surplus.
            self.level = (self.level + (self.earn_rate - d) * dt).min(self.capacity);
            return d;
        }
        let drain = d - self.earn_rate;
        let t_exhaust = self.level / drain;
        if t_exhaust >= dt {
            self.level -= drain * dt;
            return d;
        }
        // Bucket empties at t_exhaust; rest of the interval runs at base.
        self.level = 0.0;
        let after = d.min(self.base_rate);
        (d * t_exhaust + after * (dt - t_exhaust)) / dt
    }

    /// Instantaneously achievable rate.
    pub fn current_rate(&self) -> f64 {
        if self.level > 0.0 {
            self.peak_rate
        } else {
            self.base_rate
        }
    }

    /// Seconds of idling required to bank `tokens` more tokens (capped at
    /// the time to fill the bucket). `None` when the earn rate is zero and
    /// the target is unreachable.
    pub fn time_to_earn(&self, tokens: f64) -> Option<f64> {
        let needed = (tokens.min(self.capacity - self.level)).max(0.0);
        if needed == 0.0 {
            return Some(0.0);
        }
        (self.earn_rate > 0.0).then(|| needed / self.earn_rate)
    }

    /// How long the bucket can sustain `demand` units/second before
    /// collapsing to base rate. `f64::INFINITY` if `demand <= earn_rate`.
    pub fn burst_endurance(&self, demand: f64) -> f64 {
        let d = demand.max(0.0).min(self.peak_rate);
        if d <= self.earn_rate {
            f64::INFINITY
        } else {
            self.level / (d - self.earn_rate)
        }
    }
}

/// Recording handles for one named bucket's observability series
/// (`bucket_<name>_level`, `bucket_<name>_achieved_rate`,
/// `bucket_<name>_throttles_total`).
///
/// The bucket itself stays `Copy` and obs-free; a caller that wants
/// telemetry samples the bucket after each step:
/// [`sample_consume`](Self::sample_consume) after a
/// [`TokenBucket::consume`], [`sample_level`](Self::sample_level) after a
/// `TokenBucket::idle`.
pub struct BucketObserver {
    level: Gauge,
    achieved: Gauge,
    throttles: Counter,
}

impl BucketObserver {
    /// Creates the observer for bucket `name` (e.g. `"cpu"`, `"net"`) in
    /// `obs`.
    pub fn new(obs: &Obs, name: &str) -> Self {
        Self {
            level: obs.gauge(&format!("bucket_{name}_level")),
            achieved: obs.gauge(&format!("bucket_{name}_achieved_rate")),
            throttles: obs.counter(&format!("bucket_{name}_throttles_total")),
        }
    }

    /// Records a consume outcome; counts a throttle, and returns `true`,
    /// when the achieved rate fell short of the (peak-clamped) demand.
    pub fn sample_consume(&self, bucket: &TokenBucket, demand: f64, achieved: f64) -> bool {
        self.level.set(bucket.level);
        self.achieved.set(achieved);
        let throttled = achieved + 1e-12 < demand.max(0.0).min(bucket.peak_rate);
        if throttled {
            self.throttles.inc();
        }
        throttled
    }

    /// Records the current token level.
    pub fn sample_level(&self, bucket: &TokenBucket) {
        self.level.set(bucket.level);
    }
}

/// The CPU-credit bucket of a burstable instance.
///
/// Internally tokens are vCPU-seconds; EC2 documentation speaks in credits
/// (vCPU-minutes), so conversion helpers are provided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstableCpu {
    bucket: TokenBucket,
}

impl BurstableCpu {
    /// Builds the CPU model from a catalog [`BurstSpec`].
    pub fn new(spec: &BurstSpec) -> Self {
        let to_secs = 60.0; // one credit = one vCPU-minute
        Self {
            bucket: TokenBucket::new(
                spec.initial_credits * to_secs,
                spec.max_credits * to_secs,
                // Earning `credits_per_hour` vCPU-minutes per hour equals a
                // steady `base_vcpus` earn rate in vCPU-seconds per second.
                spec.credits_per_hour * to_secs / 3_600.0,
                spec.base_vcpus,
                spec.peak_vcpus,
            ),
        }
    }

    /// Current credit balance, in EC2 credits (vCPU-minutes).
    pub fn credits(&self) -> f64 {
        self.bucket.level / 60.0
    }

    /// Runs the CPU at `demand_vcpus` for `dt` seconds; returns the average
    /// achieved vCPUs.
    pub fn run(&mut self, demand_vcpus: f64, dt: f64) -> f64 {
        self.bucket.consume(demand_vcpus, dt)
    }

    /// Banks credits for `dt` idle seconds.
    pub fn idle(&mut self, dt: f64) {
        self.bucket.idle(dt);
    }

    /// Seconds the instance can sustain `demand_vcpus` before throttling.
    pub fn endurance(&self, demand_vcpus: f64) -> f64 {
        self.bucket.burst_endurance(demand_vcpus)
    }

    /// Access to the underlying bucket (for metrics/plots).
    pub fn bucket(&self) -> &TokenBucket {
        &self.bucket
    }
}

/// The network-allowance bucket of a burstable instance (tokens are
/// megabits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstableNet {
    bucket: TokenBucket,
}

impl BurstableNet {
    /// Builds the network model from a catalog [`BurstSpec`].
    pub fn new(spec: &BurstSpec) -> Self {
        Self {
            bucket: TokenBucket::new(
                spec.net_bucket_mbits,
                spec.net_bucket_mbits,
                spec.base_net_mbps,
                spec.base_net_mbps,
                spec.peak_net_mbps,
            ),
        }
    }

    /// Transmits at `demand_mbps` for `dt` seconds; returns the average
    /// achieved Mbps.
    pub fn transmit(&mut self, demand_mbps: f64, dt: f64) -> f64 {
        self.bucket.consume(demand_mbps, dt)
    }

    /// Banks allowance for `dt` idle seconds.
    pub(crate) fn idle(&mut self, dt: f64) {
        self.bucket.idle(dt);
    }

    /// Seconds of peak-rate transmission available right now.
    pub fn endurance(&self, demand_mbps: f64) -> f64 {
        self.bucket.burst_endurance(demand_mbps)
    }

    /// Access to the underlying bucket (for metrics/plots).
    pub fn bucket(&self) -> &TokenBucket {
        &self.bucket
    }
}

/// Bundles both buckets for one burstable instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstableState {
    /// CPU-credit bucket.
    pub cpu: BurstableCpu,
    /// Network-allowance bucket.
    pub net: BurstableNet,
}

impl BurstableState {
    /// Builds the full burstable state for an instance type.
    ///
    /// Returns `None` for non-burstable types.
    pub fn for_type(t: &InstanceType) -> Option<Self> {
        t.burst.as_ref().map(|s| Self {
            cpu: BurstableCpu::new(s),
            net: BurstableNet::new(s),
        })
    }

    /// Banks tokens in both buckets for `dt` idle seconds.
    pub fn idle(&mut self, dt: f64) {
        self.cpu.idle(dt);
        self.net.idle(dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::find_type;

    fn micro_cpu() -> BurstableCpu {
        BurstableCpu::new(&find_type("t2.micro").unwrap().burst.unwrap())
    }

    #[test]
    fn initial_credits_match_spec() {
        let cpu = micro_cpu();
        assert!((cpu.credits() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn burst_duration_matches_credit_arithmetic() {
        // t2.micro: 30 credits = 30 vCPU-minutes; bursting at 1.0 vCPU while
        // earning 0.1 vCPU sustains 30*60/(1-0.1) = 2000 s.
        let cpu = micro_cpu();
        let endure = cpu.endurance(1.0);
        assert!((endure - 2_000.0).abs() < 1.0, "{endure}");
    }

    #[test]
    fn throttles_to_base_after_exhaustion() {
        let mut cpu = micro_cpu();
        // Burn everything.
        cpu.run(1.0, 10_000.0);
        assert!(cpu.credits() < 1e-9);
        let achieved = cpu.run(1.0, 100.0);
        assert!((achieved - 0.1).abs() < 1e-9, "{achieved}");
    }

    #[test]
    fn partial_exhaustion_averages_rates() {
        let mut cpu = micro_cpu();
        // 2000 s of burst available; ask for 4000 s → half at 1.0, half 0.1.
        let achieved = cpu.run(1.0, 4_000.0);
        assert!((achieved - 0.55).abs() < 1e-3, "{achieved}");
    }

    #[test]
    fn idling_banks_credits_up_to_cap() {
        let mut cpu = micro_cpu();
        cpu.run(1.0, 10_000.0); // drain
        cpu.idle(3_600.0); // one hour earns 6 credits on t2.micro
        assert!((cpu.credits() - 6.0).abs() < 1e-6);
        cpu.idle(10_000.0 * 3_600.0);
        assert!((cpu.credits() - 144.0).abs() < 1e-6); // 24 h cap
    }

    #[test]
    fn below_base_demand_never_drains() {
        let mut cpu = micro_cpu();
        let before = cpu.credits();
        let achieved = cpu.run(0.05, 1_000.0);
        assert!((achieved - 0.05).abs() < 1e-12);
        assert!(cpu.credits() >= before);
    }

    #[test]
    fn net_bucket_bursts_then_collapses() {
        let spec = find_type("t2.micro").unwrap().burst.unwrap();
        let mut net = BurstableNet::new(&spec);
        // Full bucket: peak for net_bucket_mbits/(peak-base) seconds.
        let endure = net.endurance(spec.peak_net_mbps);
        let expect = spec.net_bucket_mbits / (spec.peak_net_mbps - spec.base_net_mbps);
        assert!((endure - expect).abs() < 1e-6);
        let achieved = net.transmit(spec.peak_net_mbps, endure + 1.0);
        assert!(achieved < spec.peak_net_mbps);
        assert!(achieved > spec.base_net_mbps);
    }

    #[test]
    fn time_to_earn_full_recovery() {
        let mut cpu = micro_cpu();
        cpu.run(1.0, 10_000.0); // drain
                                // 30 credits back at 6/hour = 5 hours.
        let t = cpu.bucket().time_to_earn(30.0 * 60.0).unwrap();
        assert!((t - 5.0 * 3_600.0).abs() < 1.0);
        assert_eq!(cpu.bucket().time_to_earn(0.0), Some(0.0));
    }

    #[test]
    fn demand_clamped_to_peak() {
        let mut cpu = micro_cpu();
        let achieved = cpu.run(50.0, 1.0);
        assert!(achieved <= 1.0 + 1e-12);
    }

    #[test]
    fn zero_dt_is_a_noop() {
        let mut cpu = micro_cpu();
        let before = cpu.credits();
        assert_eq!(cpu.run(1.0, 0.0), 0.0);
        assert_eq!(cpu.credits(), before);
    }

    #[test]
    fn for_type_rejects_regular_instances() {
        assert!(BurstableState::for_type(&find_type("m4.large").unwrap()).is_none());
        assert!(BurstableState::for_type(&find_type("t2.large").unwrap()).is_some());
    }

    #[test]
    fn observer_counts_throttles_and_tracks_level() {
        let obs = spotcache_obs::Obs::new();
        let observer = BucketObserver::new(&obs, "cpu");
        let mut b = TokenBucket::new(10.0, 10.0, 0.1, 0.1, 1.0);
        // Plenty of tokens: no throttle.
        let a = b.consume(1.0, 1.0);
        assert!(!observer.sample_consume(&b, 1.0, a));
        assert_eq!(a, 1.0);
        assert_eq!(obs.counter("bucket_cpu_throttles_total").get(), 0);
        assert_eq!(obs.gauge("bucket_cpu_level").get(), b.level);
        assert_eq!(obs.gauge("bucket_cpu_achieved_rate").get(), 1.0);
        // Drain past exhaustion: throttled.
        let a = b.consume(1.0, 1_000.0);
        assert!(observer.sample_consume(&b, 1.0, a));
        assert_eq!(obs.counter("bucket_cpu_throttles_total").get(), 1);
        assert_eq!(obs.gauge("bucket_cpu_level").get(), 0.0);
        assert_eq!(obs.gauge("bucket_cpu_achieved_rate").get(), a);
        // Idling refills and re-samples the level gauge.
        b.idle(10.0);
        observer.sample_level(&b);
        assert!((obs.gauge("bucket_cpu_level").get() - 1.0).abs() < 1e-9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// `consume` never over-delivers, and the token level stays within
        /// `[0, capacity]` under arbitrary consume/idle interleavings.
        #[test]
        fn consume_respects_demand_and_level_bounds(
            initial in 0.0f64..200.0,
            capacity in 1.0f64..200.0,
            earn in 0.0f64..2.0,
            base in 0.0f64..2.0,
            peak_extra in 0.0f64..10.0,
            steps in proptest::collection::vec((0u8..2, 0.0f64..12.0, 0.1f64..500.0), 1..40),
        ) {
            use proptest::prelude::*;
            let peak = base.max(earn) + peak_extra;
            let mut b = TokenBucket::new(initial, capacity, earn, base, peak);
            prop_assert!((0.0..=capacity).contains(&b.level));
            for (kind, demand, dt) in steps {
                if kind == 0 {
                    let achieved = b.consume(demand, dt);
                    let clamped = demand.max(0.0).min(peak);
                    prop_assert!(
                        achieved <= clamped + 1e-9,
                        "achieved {achieved} > demand {clamped}"
                    );
                    prop_assert!(achieved >= -1e-12);
                } else {
                    b.idle(dt);
                }
                prop_assert!(
                    (-1e-9..=capacity + 1e-9).contains(&b.level),
                    "level {} outside [0, {capacity}]",
                    b.level
                );
            }
        }

        /// `burst_endurance` is consistent with actually consuming: demand
        /// is fully met for any interval shorter than the endurance and
        /// falls short once the interval exceeds it (when the base rate
        /// cannot cover the demand).
        #[test]
        fn endurance_matches_consume_until_throttle(
            initial in 1.0f64..500.0,
            capacity in 500.0f64..1000.0,
            earn in 0.0f64..1.0,
            demand_extra in 0.1f64..5.0,
        ) {
            use proptest::prelude::*;
            // base = earn (the EC2 CPU-credit shape) so post-exhaustion
            // throughput genuinely drops below demand.
            let base = earn;
            let demand = earn + demand_extra;
            let peak = demand + 1.0;
            let b = TokenBucket::new(initial, capacity, earn, base, peak);
            let endure = b.burst_endurance(demand);
            prop_assert!(endure.is_finite() && endure > 0.0);

            let mut within = b;
            let achieved = within.consume(demand, endure * 0.9);
            prop_assert!(
                (achieved - demand).abs() < 1e-9,
                "within endurance: achieved {achieved} != demand {demand}"
            );

            let mut beyond = b;
            let achieved = beyond.consume(demand, endure * 1.5);
            prop_assert!(
                achieved < demand - 1e-12,
                "beyond endurance: achieved {achieved} not < demand {demand}"
            );
            prop_assert!(beyond.level.abs() < 1e-9, "bucket must be exhausted");

            // Sub-earn demand is sustainable forever.
            prop_assert!(b.burst_endurance(earn * 0.5).is_infinite());
        }
    }
}
