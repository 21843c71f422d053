//! The performance profile `φ(λ, vCPU, RAM)` and its inverse (paper
//! Section 4.1).
//!
//! The paper obtains `λ^{sb}` — the maximum per-instance request rate that
//! keeps hit latency within `l^HIT` — from offline profiling and uses it as
//! a lookup table. Our profile models a memcached instance as an
//! M/M/1-style server: `l(ρ) = l₀ + s·ρ/(1−ρ)` against a capacity that is
//! the minimum of a CPU bound (memcached does not scale past four cores)
//! and a network bound (4 KB items make egress bandwidth the binding
//! resource on small instances — which is exactly why hot data "needs
//! CPU/network, not RAM" in the paper's wastage argument).

use spotcache_cloud::catalog::InstanceType;

/// Latency/throughput profile of a memcached deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Hit latency at negligible load, microseconds (network RTT within an
    /// AZ plus service time).
    pub base_latency_us: f64,
    /// Queueing scale `s` in `l = l₀ + s·ρ/(1−ρ)`, microseconds.
    pub(crate) service_scale_us: f64,
    /// Peak sustainable ops/sec per vCPU (profiled).
    pub ops_per_vcpu: f64,
    /// Cores beyond this count contribute nothing (memcached scaling wall).
    pub max_effective_cores: f64,
    /// Extra latency of a miss served from the back-end, microseconds
    /// (`l^MISS`).
    pub miss_penalty_us: f64,
    /// Item size in bytes (drives the network bound).
    pub item_bytes: f64,
}

impl LatencyProfile {
    /// The profile used throughout the reproduction, calibrated to the
    /// paper's setup (4 KB items, 800 µs average / 1 ms p95 targets,
    /// memcached's four-core scaling wall).
    pub const fn paper_default() -> Self {
        Self {
            base_latency_us: 200.0,
            service_scale_us: 150.0,
            ops_per_vcpu: 50_000.0,
            max_effective_cores: 4.0,
            miss_penalty_us: 10_000.0,
            item_bytes: 4_096.0,
        }
    }

    /// Peak throughput (ops/sec) of one instance of `itype`: the minimum of
    /// its CPU and network bounds.
    ///
    /// For burstables, `peak` selects burst vs baseline capacity.
    pub fn capacity_ops(&self, itype: &InstanceType, peak: bool) -> f64 {
        let (vcpus, net_mbps) = match (&itype.burst, peak) {
            (Some(b), true) => (b.peak_vcpus, b.peak_net_mbps),
            (Some(b), false) => (b.base_vcpus, b.base_net_mbps),
            (None, _) => (itype.vcpus, itype.net_mbps),
        };
        let cpu_bound = vcpus.min(self.max_effective_cores) * self.ops_per_vcpu;
        let net_bound = net_mbps * 1e6 / 8.0 / self.item_bytes;
        cpu_bound.min(net_bound)
    }

    /// Hit latency (µs) at offered load `rate` against capacity
    /// `capacity` ops/sec. Saturated servers report a large but finite
    /// latency (10× the miss penalty) so comparisons stay ordered.
    pub fn hit_latency_us(&self, rate: f64, capacity: f64) -> f64 {
        if capacity <= 0.0 {
            return 10.0 * self.miss_penalty_us;
        }
        let rho = (rate / capacity).max(0.0);
        if rho >= 0.999 {
            return 10.0 * self.miss_penalty_us;
        }
        self.base_latency_us + self.service_scale_us * rho / (1.0 - rho)
    }

    /// The largest per-instance rate keeping hit latency at or below
    /// `l_hit_us` — the paper's `λ^{sb}` lookup. Zero when the bound is
    /// below the base latency.
    pub fn max_rate_for_latency(&self, itype: &InstanceType, l_hit_us: f64, peak: bool) -> f64 {
        let headroom = l_hit_us - self.base_latency_us;
        if headroom <= 0.0 {
            return 0.0;
        }
        // Invert l = l0 + s·ρ/(1−ρ):  ρ = h/(h+s).
        let rho_max = headroom / (headroom + self.service_scale_us);
        self.capacity_ops(itype, peak) * rho_max
    }

    /// The p95 hit latency (µs) at offered load, under the
    /// shifted-exponential queueing model the simulator samples from:
    /// `p95 = l₀ + ln(20)·(mean − l₀)`.
    pub fn p95_latency_us(&self, rate: f64, capacity: f64) -> f64 {
        let mean = self.hit_latency_us(rate, capacity);
        self.base_latency_us + (mean - self.base_latency_us) * 20f64.ln()
    }

    /// The largest per-instance rate keeping the p95 hit latency at or
    /// below `p95_us` (the paper's 1 ms tail target, enforced alongside the
    /// mean target).
    pub(crate) fn max_rate_for_p95(&self, itype: &InstanceType, p95_us: f64, peak: bool) -> f64 {
        // p95 <= target  ⇔  mean <= l0 + (target − l0)/ln 20.
        let mean_budget = self.base_latency_us + (p95_us - self.base_latency_us) / 20f64.ln();
        self.max_rate_for_latency(itype, mean_budget, peak)
    }

    /// The largest per-instance rate satisfying *both* a mean and a p95
    /// target — what the paper's dual 800 µs / 1 ms spec implies.
    pub fn max_rate_for_targets(
        &self,
        itype: &InstanceType,
        mean_us: f64,
        p95_us: f64,
        peak: bool,
    ) -> f64 {
        self.max_rate_for_latency(itype, mean_us, peak)
            .min(self.max_rate_for_p95(itype, p95_us, peak))
    }

    /// The hit-latency budget `l^HIT` implied by an overall mean-latency
    /// target and a hit rate (the paper's derivation of `l^HIT` from
    /// `l^TGT` and `F(α)`). `None` when the target is unattainable even
    /// with zero hit latency.
    pub fn hit_budget_us(&self, target_us: f64, hit_rate: f64) -> Option<f64> {
        let miss_part = (1.0 - hit_rate.clamp(0.0, 1.0)) * self.miss_penalty_us;
        let budget = target_us - miss_part;
        (budget > 0.0).then_some(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::catalog::find_type;

    fn p() -> LatencyProfile {
        LatencyProfile::paper_default()
    }

    #[test]
    fn network_binds_small_instances_on_4k_items() {
        let m4l = find_type("m4.large").unwrap();
        let cap = p().capacity_ops(&m4l, false);
        let net_bound = 450.0 * 1e6 / 8.0 / 4096.0;
        assert!((cap - net_bound).abs() < 1.0, "cap {cap}, net {net_bound}");
    }

    #[test]
    fn cpu_wall_limits_big_instances() {
        // c3.8xlarge: 32 cores but memcached stops scaling at 4; 10 Gbps
        // network no longer binds.
        let big = find_type("c3.8xlarge").unwrap();
        let cap = p().capacity_ops(&big, false);
        assert!((cap - 4.0 * 50_000.0).abs() < 1.0, "{cap}");
    }

    #[test]
    fn latency_curve_is_monotone_in_load() {
        let prof = p();
        let mut prev = 0.0;
        for i in 0..10 {
            let l = prof.hit_latency_us(i as f64 * 10_000.0, 100_000.0);
            assert!(l >= prev);
            prev = l;
        }
        assert_eq!(prof.hit_latency_us(0.0, 100_000.0), 200.0);
    }

    #[test]
    fn saturation_reports_large_latency() {
        let prof = p();
        assert_eq!(prof.hit_latency_us(100_000.0, 100_000.0), 100_000.0);
        assert_eq!(prof.hit_latency_us(1.0, 0.0), 100_000.0);
    }

    #[test]
    fn max_rate_inverts_the_curve() {
        let prof = p();
        let itype = find_type("m4.large").unwrap();
        let rate = prof.max_rate_for_latency(&itype, 800.0, false);
        assert!(rate > 0.0);
        let l = prof.hit_latency_us(rate, prof.capacity_ops(&itype, false));
        assert!((l - 800.0).abs() < 1.0, "round trip {l}");
        // Unattainable bound → zero.
        assert_eq!(prof.max_rate_for_latency(&itype, 100.0, false), 0.0);
    }

    #[test]
    fn p95_model_round_trips() {
        let prof = p();
        let itype = find_type("m4.large").unwrap();
        let rate = prof.max_rate_for_p95(&itype, 1_000.0, false);
        assert!(rate > 0.0);
        let cap = prof.capacity_ops(&itype, false);
        let p95 = prof.p95_latency_us(rate, cap);
        assert!((p95 - 1_000.0).abs() < 2.0, "round trip {p95}");
    }

    #[test]
    fn dual_targets_take_the_binding_one() {
        let prof = p();
        let itype = find_type("m4.large").unwrap();
        // A loose mean with a tight p95: the p95 binds.
        let both = prof.max_rate_for_targets(&itype, 5_000.0, 1_000.0, false);
        assert_eq!(both, prof.max_rate_for_p95(&itype, 1_000.0, false));
        // The paper's 800 us mean / 1 ms p95 pair: p95 binds (1 ms tail is
        // stricter than 800 us mean under an exponential tail).
        let paper = prof.max_rate_for_targets(&itype, 800.0, 1_000.0, false);
        assert!(paper <= prof.max_rate_for_latency(&itype, 800.0, false));
    }

    #[test]
    fn burstable_peak_vs_base_capacity() {
        let prof = p();
        let t2 = find_type("t2.medium").unwrap();
        let peak = prof.capacity_ops(&t2, true);
        let base = prof.capacity_ops(&t2, false);
        assert!(peak > 3.0 * base, "peak {peak}, base {base}");
    }

    #[test]
    fn hit_budget_subtracts_expected_miss_cost() {
        let prof = p();
        // 99% hit rate: miss contributes 100 µs to the mean.
        let b = prof.hit_budget_us(800.0, 0.99).unwrap();
        assert!((b - 700.0).abs() < 1e-9);
        assert!(prof.hit_budget_us(800.0, 0.9).is_none()); // 1000 > 800
    }
}
