//! The load balancer: weighted key ownership over hot and cold virtual
//! pools (paper Sections 3.3 and 4.2).
//!
//! Reads and writes go to the node the hot/cold virtual pool's weighted
//! consistent hash selects. The two pools live on the same physical nodes
//! but carry independent weights — hot/cold segregation without instance
//! separation, which mcrouter gets from prefix routing on an `h`/`c` key
//! prefix.
//!
//! Failover is not decided here: a revoked node keeps its arcs until the
//! next weight table, and its reads go through that node's
//! [`DegradedRouter`](crate::degraded::DegradedRouter) (stale from the
//! backup, then the restored replacement).

use crate::hashring::{HashRing, NodeId};

/// The two popularity pools, as the key partitioner assigns them.
///
/// The paper notes the scheme "can be easily generalized to additional
/// popularity levels"; two levels are what the evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pool {
    /// The popular subset (accounts for ~90% of accesses).
    Hot,
    /// Everything else.
    Cold,
}

/// Per-node pool weights, published by the global controller each control
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeWeights {
    /// Node identifier.
    pub node: NodeId,
    /// Share of the hot pool placed on this node (`x` in the paper).
    pub hot: f64,
    /// Share of the cold pool placed on this node (`y` in the paper).
    pub cold: f64,
}

/// The load balancer state: the newest weight table and its two rings.
#[derive(Debug, Clone, Default)]
pub struct LoadBalancer {
    weights: Vec<NodeWeights>,
    hot: HashRing,
    cold: HashRing,
}

impl LoadBalancer {
    /// Creates a balancer with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a new weight assignment (rebuilds both virtual pools).
    pub fn set_weights(&mut self, weights: &[NodeWeights]) {
        let hot: Vec<(NodeId, f64)> = weights.iter().map(|w| (w.node, w.hot)).collect();
        let cold: Vec<(NodeId, f64)> = weights.iter().map(|w| (w.node, w.cold)).collect();
        self.hot = HashRing::build(&hot);
        self.cold = HashRing::build(&cold);
        self.weights = weights.to_vec();
    }

    /// The current weight table.
    pub fn weights(&self) -> &[NodeWeights] {
        &self.weights
    }

    /// The hot pool's ring (what correlated revocation arcs are drawn on).
    pub fn hot_ring(&self) -> &HashRing {
        &self.hot
    }

    /// The node that owns `raw_key` in `pool`, or `None` when no node
    /// carries weight in that pool.
    pub fn owner(&self, pool: Pool, raw_key: &[u8]) -> Option<NodeId> {
        match pool {
            Pool::Hot => self.hot.lookup(raw_key),
            Pool::Cold => self.cold.lookup(raw_key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weight table row: `(node, hot, cold)`.
    type Row = (NodeId, f64, f64);

    fn balancer(rows: &[Row]) -> LoadBalancer {
        let table: Vec<NodeWeights> = rows
            .iter()
            .map(|&(node, hot, cold)| NodeWeights { node, hot, cold })
            .collect();
        let mut lb = LoadBalancer::new();
        lb.set_weights(&table);
        lb
    }

    #[test]
    fn empty_balancer_owns_nothing() {
        let lb = LoadBalancer::new();
        assert_eq!(lb.owner(Pool::Hot, b"k"), None);
        assert_eq!(lb.owner(Pool::Cold, b"k"), None);
    }

    #[test]
    fn pools_route_independently() {
        // Hot pool lives only on node 1, cold only on node 2 — the
        // OD+Spot_Sep configuration.
        let lb = balancer(&[(1, 1.0, 0.0), (2, 0.0, 1.0)]);
        assert_eq!(lb.owner(Pool::Hot, b"k"), Some(1));
        assert_eq!(lb.owner(Pool::Cold, b"k"), Some(2));
        assert_eq!(lb.hot_ring().node_count(), 1);
    }

    #[test]
    fn mixing_weights_share_nodes() {
        // Hot-cold mixing: both pools span both nodes with different
        // weights.
        let lb = balancer(&[(1, 0.7, 0.2), (2, 0.3, 0.8)]);
        let on_node1 = |pool| {
            (0..10_000u64)
                .filter(|i| lb.owner(pool, &i.to_be_bytes()) == Some(1))
                .count()
        };
        let (hot1, cold1) = (on_node1(Pool::Hot), on_node1(Pool::Cold));
        assert!((hot1 as f64 / 10_000.0 - 0.7).abs() < 0.08, "{hot1}");
        assert!((cold1 as f64 / 10_000.0 - 0.2).abs() < 0.08, "{cold1}");
    }

    const WEIGHTS_A: &[Row] = &[(1, 0.5, 0.2), (2, 0.5, 0.8)];
    const WEIGHTS_B: &[Row] = &[(1, 0.3, 0.3), (3, 0.7, 0.7)];

    /// The weight-commit property of replicated balancers (paper
    /// footnote 5): routing is a function of the newest table alone.
    #[test]
    fn routing_depends_only_on_the_newest_table() {
        // One balancer applies table a, then table b; the other skips
        // straight to b.
        let mut applied = balancer(WEIGHTS_A);
        let b = balancer(WEIGHTS_B);
        applied.set_weights(b.weights());
        let skipped = balancer(WEIGHTS_B);
        for i in 0..20_000u64 {
            let k = i.to_be_bytes();
            for pool in [Pool::Hot, Pool::Cold] {
                let owner = skipped.owner(pool, &k);
                assert_eq!(applied.owner(pool, &k), owner);
                // Node 2 was dropped by table b: nobody routes to it.
                assert_ne!(owner, Some(2), "dropped node must not own keys");
            }
        }
        assert_eq!(applied.weights(), skipped.weights());
    }
}
