//! Cluster-level latency sampling.
//!
//! Converts a set of per-node offered loads into request-level latency
//! observations: each request picks a node (weighted by its load), pays the
//! node's queueing-model hit latency (shifted-exponential around the M/M/1
//! mean, matching measured memcached tail behaviour) and, on a miss, the
//! back-end penalty.

use rand::Rng;

use spotcache_optimizer::latency::LatencyProfile;

use crate::metrics::LatencyHistogram;

/// One node's offered load and capacity for a simulation step.
#[derive(Debug, Clone, Copy)]
pub struct NodeLoad {
    /// Offered request rate, ops/sec.
    pub rate: f64,
    /// Peak service capacity, ops/sec.
    pub capacity: f64,
}

/// Samples `samples` request latencies from the cluster into `hist`.
///
/// `hit_rate` is the cluster-wide cache hit probability; misses pay the
/// profile's back-end penalty on top of the (cheap) lookup.
pub fn sample_cluster_latency<R: Rng + ?Sized>(
    nodes: &[NodeLoad],
    hit_rate: f64,
    profile: &LatencyProfile,
    rng: &mut R,
    samples: usize,
    hist: &mut LatencyHistogram,
) {
    if nodes.is_empty() || samples == 0 {
        return;
    }
    // Cumulative load weights for node selection.
    let total: f64 = nodes.iter().map(|n| n.rate.max(0.0)).sum();
    if total <= 0.0 {
        return;
    }
    let mut cum = Vec::with_capacity(nodes.len());
    let mut acc = 0.0;
    for n in nodes {
        acc += n.rate.max(0.0);
        cum.push(acc);
    }
    for _ in 0..samples {
        let u = rng.gen::<f64>() * total;
        let idx = cum.partition_point(|&c| c < u).min(nodes.len() - 1);
        let us = sample_node_latency(&nodes[idx], profile, rng);
        let us = if rng.gen::<f64>() < hit_rate.clamp(0.0, 1.0) {
            us
        } else {
            us + profile.miss_penalty_us
        };
        hist.record(us);
    }
}

/// Samples one hit latency from a node's queueing model.
pub(crate) fn sample_node_latency<R: Rng + ?Sized>(
    node: &NodeLoad,
    profile: &LatencyProfile,
    rng: &mut R,
) -> f64 {
    let mean = profile.hit_latency_us(node.rate, node.capacity);
    let queueing = (mean - profile.base_latency_us).max(0.0);
    // Shifted exponential: mean equals the model's, p95 ≈ base + 3·queueing.
    let u: f64 = rng.gen::<f64>().max(1e-12);
    profile.base_latency_us + queueing * (-u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> LatencyProfile {
        LatencyProfile::paper_default()
    }

    #[test]
    fn mean_matches_queueing_model() {
        let node = NodeLoad {
            rate: 50_000.0,
            capacity: 100_000.0,
        };
        let p = profile();
        let mut rng = StdRng::seed_from_u64(1);
        let mut hist = LatencyHistogram::new();
        sample_cluster_latency(&[node], 1.0, &p, &mut rng, 50_000, &mut hist);
        let want = p.hit_latency_us(node.rate, node.capacity);
        assert!(
            (hist.mean() - want).abs() / want < 0.05,
            "{} vs {want}",
            hist.mean()
        );
    }

    #[test]
    fn tail_exceeds_mean() {
        let node = NodeLoad {
            rate: 80_000.0,
            capacity: 100_000.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut hist = LatencyHistogram::new();
        sample_cluster_latency(&[node], 1.0, &profile(), &mut rng, 20_000, &mut hist);
        assert!(hist.quantile(0.95) > 1.5 * hist.mean());
    }

    #[test]
    fn misses_raise_latency() {
        let node = NodeLoad {
            rate: 10_000.0,
            capacity: 100_000.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut hit = LatencyHistogram::new();
        let mut miss = LatencyHistogram::new();
        sample_cluster_latency(&[node], 1.0, &profile(), &mut rng, 5_000, &mut hit);
        sample_cluster_latency(&[node], 0.5, &profile(), &mut rng, 5_000, &mut miss);
        assert!(miss.mean() > hit.mean() + 4_000.0);
    }

    #[test]
    fn hot_node_receives_more_samples() {
        // Indirect: a saturated node with most of the load should push the
        // p95 way up versus balanced nodes at the same total load.
        let p = profile();
        let balanced = [
            NodeLoad {
                rate: 45_000.0,
                capacity: 100_000.0,
            },
            NodeLoad {
                rate: 45_000.0,
                capacity: 100_000.0,
            },
        ];
        let skewed = [
            NodeLoad {
                rate: 89_000.0,
                capacity: 100_000.0,
            },
            NodeLoad {
                rate: 1_000.0,
                capacity: 100_000.0,
            },
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let mut hb = LatencyHistogram::new();
        let mut hs = LatencyHistogram::new();
        sample_cluster_latency(&balanced, 1.0, &p, &mut rng, 20_000, &mut hb);
        sample_cluster_latency(&skewed, 1.0, &p, &mut rng, 20_000, &mut hs);
        assert!(hs.quantile(0.95) > 2.0 * hb.quantile(0.95));
    }

    #[test]
    fn degenerate_inputs_are_noops() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut hist = LatencyHistogram::new();
        sample_cluster_latency(&[], 1.0, &profile(), &mut rng, 100, &mut hist);
        assert_eq!(hist.count(), 0);
        let idle = [NodeLoad {
            rate: 0.0,
            capacity: 100.0,
        }];
        sample_cluster_latency(&idle, 1.0, &profile(), &mut rng, 100, &mut hist);
        assert_eq!(hist.count(), 0);
    }
}
