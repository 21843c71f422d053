//! Queueing-theoretic performance models (paper Section 4.1: `φ(.)` can be
//! "theoretically modeled, e.g., via queuing analysis").
//!
//! The default [`crate::latency::LatencyProfile`] uses a profiled
//! M/M/1-style curve. This module provides the analytic alternative: an
//! **M/M/c** model of a memcached instance as `c` worker threads sharing
//! one listen queue, with the Erlang-C formula giving the probability of
//! queueing and the standard expressions for waiting time. It slots into
//! the same "max rate under a latency bound" interface the optimizer uses,
//! so the two models can be swapped and compared (`compare` in the tests).

/// An M/M/c queueing model of one cache instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcModel {
    /// Number of servers (worker threads; memcached defaults to 4).
    pub(crate) servers: u32,
    /// Mean service time per request, microseconds.
    pub(crate) service_us: f64,
    /// Network/stack latency added to every request, microseconds.
    pub(crate) base_us: f64,
}

impl MmcModel {
    /// A model matching the paper-default profile's throughput: 4 workers,
    /// 20 µs of service each (≈50 kops/vCPU), 200 µs base.
    pub fn paper_default() -> Self {
        Self {
            servers: 4,
            service_us: 20.0,
            base_us: 200.0,
        }
    }

    /// Total service capacity, ops/sec.
    pub(crate) fn capacity_ops(&self) -> f64 {
        self.servers as f64 * 1e6 / self.service_us
    }

    /// The Erlang-C probability that an arrival has to wait, at offered
    /// load `rate` ops/sec. Returns 1.0 at or beyond saturation.
    pub(crate) fn erlang_c(&self, rate: f64) -> f64 {
        let c = self.servers as f64;
        let lambda = rate.max(0.0) / 1e6; // per µs
        let mu = 1.0 / self.service_us;
        let a = lambda / mu; // offered load in Erlangs
        let rho = a / c;
        if rho >= 1.0 {
            return 1.0;
        }
        // Erlang C = (a^c / c!) / ((1-ρ) Σ_{k<c} a^k/k! + a^c/c!),
        // computed with a numerically stable running term.
        let mut term = 1.0; // a^k / k! at k = 0
        let mut sum = 0.0;
        for k in 0..self.servers {
            sum += term;
            term *= a / (k as f64 + 1.0);
        }
        // term now holds a^c / c!.
        let pc = term / (1.0 - rho);
        pc / (sum + pc)
    }

    /// Mean response time (µs) at offered load `rate` ops/sec:
    /// `base + 1/µ + C(c, a) / (cµ − λ)`.
    pub fn mean_latency_us(&self, rate: f64) -> f64 {
        let c = self.servers as f64;
        let lambda = rate.max(0.0) / 1e6;
        let mu = 1.0 / self.service_us;
        if lambda >= c * mu {
            return f64::INFINITY;
        }
        let wait = self.erlang_c(rate) / (c * mu - lambda);
        self.base_us + self.service_us + wait
    }

    /// The largest rate whose mean response time stays at or below
    /// `target_us` (bisection; the curve is monotone).
    pub fn max_rate_for_latency(&self, target_us: f64) -> f64 {
        if target_us <= self.base_us + self.service_us {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0f64, self.capacity_ops());
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.mean_latency_us(mid) <= target_us {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyProfile;
    use spotcache_cloud::catalog::find_type;

    fn m() -> MmcModel {
        MmcModel::paper_default()
    }

    #[test]
    fn capacity_matches_parameters() {
        // 4 workers × 50 kops each.
        assert!((m().capacity_ops() - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn erlang_c_limits() {
        let model = m();
        assert!(model.erlang_c(0.0) < 1e-9, "empty system never queues");
        assert_eq!(
            model.erlang_c(250_000.0),
            1.0,
            "oversaturated always queues"
        );
        // Single server degenerates to M/M/1: C(1, a) = ρ.
        let mm1 = MmcModel {
            servers: 1,
            service_us: 20.0,
            base_us: 0.0,
        };
        let rate = 25_000.0; // ρ = 0.5
        assert!((mm1.erlang_c(rate) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mm1_mean_latency_closed_form() {
        // M/M/1: W = 1/(µ − λ).
        let mm1 = MmcModel {
            servers: 1,
            service_us: 20.0,
            base_us: 0.0,
        };
        let rate = 25_000.0; // λ = 0.025/µs, µ = 0.05/µs
        let want = 1.0 / (0.05 - 0.025);
        assert!((mm1.mean_latency_us(rate) - want).abs() < 1e-6);
        assert!(mm1.mean_latency_us(60_000.0).is_infinite());
    }

    #[test]
    fn latency_is_monotone_and_pooling_helps() {
        let model = m();
        let mut prev = 0.0;
        for i in 0..10 {
            let l = model.mean_latency_us(i as f64 * 20_000.0);
            assert!(l >= prev);
            prev = l;
        }
        // Pooling: 4 servers sharing a queue beat 4 separate M/M/1 queues
        // at the same per-server load.
        let mm1 = MmcModel {
            servers: 1,
            service_us: 20.0,
            base_us: 200.0,
        };
        let pooled = model.mean_latency_us(160_000.0);
        let split = mm1.mean_latency_us(40_000.0);
        assert!(pooled < split, "pooled {pooled} vs split {split}");
    }

    #[test]
    fn max_rate_inverts_the_curve() {
        let model = m();
        let rate = model.max_rate_for_latency(800.0);
        assert!(rate > 0.0);
        let l = model.mean_latency_us(rate);
        assert!((l - 800.0).abs() < 1.0, "{l}");
        assert_eq!(model.max_rate_for_latency(100.0), 0.0);
    }

    #[test]
    fn compare_with_profiled_model() {
        // The analytic M/M/c and the profiled curve must agree on the
        // shape: same capacity scale, rate caps within a factor of two at
        // the paper's 800 µs target (the paper treats either as acceptable
        // sources for λ^{sb}).
        let analytic = m();
        let profile = LatencyProfile::paper_default();
        let itype = find_type("c3.8xlarge").unwrap(); // CPU-bound: 4 cores used
        let profiled_cap = profile.capacity_ops(&itype, false);
        assert!((analytic.capacity_ops() - profiled_cap).abs() / profiled_cap < 0.01);
        let a = analytic.max_rate_for_latency(800.0);
        let p = profile.max_rate_for_latency(&itype, 800.0, false);
        let ratio = a / p;
        assert!((0.5..2.0).contains(&ratio), "analytic {a} vs profiled {p}");
        // The M/M/c is the more optimistic of the two near saturation
        // (pooling), which is why the paper profiles rather than trusts
        // theory alone.
        assert!(a >= p * 0.99);
    }
}
