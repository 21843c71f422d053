//! The load balancer: weighted dispatch, failover, and backup fan-out
//! (paper Sections 3.3 and 4.2).
//!
//! Normal operation: reads and writes go to the node the hot/cold virtual
//! pool's weighted consistent hash selects. The two pools live on the same
//! physical nodes but carry independent weights — hot/cold segregation
//! without instance separation, which mcrouter gets from prefix routing on
//! an `h`/`c` key prefix. Writes of *hot keys living on
//! spot nodes* additionally fan out to the passive backup so it stays
//! consistent. Reads are **never** served by burstable backups in normal
//! operation — that is what lets them bank CPU/network tokens for recovery.
//!
//! Failure handling: when a spot node is revoked the balancer either
//! redirects its key range to a replacement node ([`LoadBalancer::redirect`],
//! the reconfiguration step of Figure 4), serves hot keys from the backup,
//! or falls through to the back-end database.

use std::collections::{HashMap, HashSet};

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

/// Per-node weights and procurement class, published by the global
/// controller each control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeWeights {
    /// Node identifier.
    pub node: NodeId,
    /// Share of the hot pool placed on this node (`x` in the paper).
    pub hot: f64,
    /// Share of the cold pool placed on this node (`y` in the paper).
    pub cold: f64,
    /// Whether the node is a revocable spot instance.
    pub is_spot: bool,
}

/// Where a read should be served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A live cache node.
    Node(NodeId),
    /// A passive backup node (only during failure recovery, hot keys only).
    Backup(NodeId),
    /// The back-end database (cache cannot serve this key right now).
    Backend,
}

/// The load balancer state.
#[derive(Debug, Clone, Default)]
pub struct LoadBalancer {
    weights: Vec<NodeWeights>,
    hot: HashRing,
    cold: HashRing,
    backup_ring: HashRing,
    spot_nodes: HashSet<NodeId>,
    failed: HashSet<NodeId>,
    redirects: HashMap<NodeId, NodeId>,
}

impl LoadBalancer {
    /// Creates a balancer with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a new weight assignment (rebuilds both virtual pools).
    ///
    /// Failure marks and redirects are kept only if their node still
    /// exists — in the new table, or (for failure marks) among the backups;
    /// a fresh assignment normally supersedes them.
    pub fn set_weights(&mut self, weights: &[NodeWeights]) {
        let hot: Vec<(NodeId, f64)> = weights.iter().map(|w| (w.node, w.hot)).collect();
        let cold: Vec<(NodeId, f64)> = weights.iter().map(|w| (w.node, w.cold)).collect();
        self.hot = HashRing::build(&hot);
        self.cold = HashRing::build(&cold);
        self.spot_nodes = weights
            .iter()
            .filter(|w| w.is_spot)
            .map(|w| w.node)
            .collect();
        let nodes: HashSet<NodeId> = weights.iter().map(|w| w.node).collect();
        self.redirects.retain(|from, _| nodes.contains(from));
        let backups = self.backup_ring.weights();
        self.failed
            .retain(|n| nodes.contains(n) || backups.iter().any(|&(b, _)| b == *n));
        self.weights = weights.to_vec();
    }

    /// Publishes the backup node set (burstable or regular instances).
    pub fn set_backups(&mut self, backups: &[NodeId]) {
        let w: Vec<(NodeId, f64)> = backups.iter().map(|&n| (n, 1.0)).collect();
        self.backup_ring = HashRing::build(&w);
    }

    /// Marks a node failed (revocation warning received or node gone).
    pub fn mark_failed(&mut self, node: NodeId) {
        self.failed.insert(node);
    }

    /// Clears a node's failure mark.
    pub fn mark_restored(&mut self, node: NodeId) {
        self.failed.remove(&node);
    }

    /// Redirects a (typically revoked) node's key range to a replacement —
    /// the load-balancer reconfiguration of Figure 4.
    pub fn redirect(&mut self, from: NodeId, to: NodeId) {
        self.redirects.insert(from, to);
    }

    /// Removes a redirect.
    pub fn clear_redirect(&mut self, from: NodeId) {
        self.redirects.remove(&from);
    }

    /// The current weight table.
    pub fn weights(&self) -> &[NodeWeights] {
        &self.weights
    }

    /// Whether a node is currently marked failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// The backup node responsible for a raw key, if backups exist.
    pub fn backup_for(&self, raw_key: &[u8]) -> Option<NodeId> {
        self.backup_ring.lookup(raw_key)
    }

    /// The ring serving a pool.
    fn ring(&self, pool: Pool) -> &HashRing {
        match pool {
            Pool::Hot => &self.hot,
            Pool::Cold => &self.cold,
        }
    }

    /// Resolves the hash-selected owner through (one hop of) redirects.
    fn resolve(&self, node: NodeId) -> NodeId {
        self.redirects.get(&node).copied().unwrap_or(node)
    }

    /// Routes a read of `raw_key` in `pool`.
    pub fn route_read(&self, pool: Pool, raw_key: &[u8]) -> Route {
        let Some(owner) = self.ring(pool).lookup(raw_key) else {
            return Route::Backend;
        };
        let target = self.resolve(owner);
        if !self.failed.contains(&target) {
            return Route::Node(target);
        }
        // Target down: hot keys that were on spot nodes have a live copy on
        // the passive backup.
        if pool == Pool::Hot && self.spot_nodes.contains(&owner) {
            if let Some(b) = self.backup_for(raw_key) {
                if !self.failed.contains(&b) {
                    return Route::Backup(b);
                }
            }
        }
        Route::Backend
    }

    /// Routes a write of `raw_key` in `pool`: every target that must be
    /// kept consistent (primary first, then backup fan-out for spot-hosted
    /// hot keys).
    pub fn route_write(&self, pool: Pool, raw_key: &[u8]) -> Vec<Route> {
        let mut out = Vec::with_capacity(2);
        if let Some(owner) = self.ring(pool).lookup(raw_key) {
            let target = self.resolve(owner);
            if !self.failed.contains(&target) {
                out.push(Route::Node(target));
            }
            if pool == Pool::Hot && self.spot_nodes.contains(&owner) {
                if let Some(b) = self.backup_for(raw_key) {
                    if !self.failed.contains(&b) {
                        out.push(Route::Backup(b));
                    }
                }
            }
        }
        out
    }

    /// The hash-selected owner of a key, ignoring failures and redirects
    /// (placement ground truth, used by warm-up logic).
    pub fn owner(&self, pool: Pool, raw_key: &[u8]) -> Option<NodeId> {
        self.ring(pool).lookup(raw_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weight table row: `(node, hot, cold, is_spot)`.
    type Row = (NodeId, f64, f64, bool);

    fn table(rows: &[Row]) -> Vec<NodeWeights> {
        rows.iter()
            .map(|&(node, hot, cold, is_spot)| NodeWeights {
                node,
                hot,
                cold,
                is_spot,
            })
            .collect()
    }

    fn balancer(rows: &[Row], backups: &[NodeId]) -> LoadBalancer {
        let mut lb = LoadBalancer::new();
        lb.set_weights(&table(rows));
        lb.set_backups(backups);
        lb
    }

    /// Node 1: on-demand; node 2: spot. Hot pool split across both (the
    /// paper's mixing); cold pool entirely on the spot node.
    fn mixed_lb() -> LoadBalancer {
        balancer(&[(1, 0.5, 0.0, false), (2, 0.5, 1.0, true)], &[100])
    }

    fn keys_owned_by(lb: &LoadBalancer, pool: Pool, node: NodeId, n: usize) -> Vec<Vec<u8>> {
        (0..50_000u64)
            .map(|i| i.to_be_bytes().to_vec())
            .filter(|k| lb.owner(pool, k) == Some(node))
            .take(n)
            .collect()
    }

    #[test]
    fn healthy_routing_follows_the_rings() {
        let lb = mixed_lb();
        let k = keys_owned_by(&lb, Pool::Cold, 2, 1).remove(0);
        assert_eq!(lb.route_read(Pool::Cold, &k), Route::Node(2));
    }

    #[test]
    fn hot_writes_on_spot_fan_out_to_backup() {
        let lb = mixed_lb();
        let k = keys_owned_by(&lb, Pool::Hot, 2, 1).remove(0);
        let targets = lb.route_write(Pool::Hot, &k);
        assert_eq!(targets, vec![Route::Node(2), Route::Backup(100)]);
    }

    #[test]
    fn hot_writes_on_od_do_not_fan_out() {
        let lb = mixed_lb();
        let k = keys_owned_by(&lb, Pool::Hot, 1, 1).remove(0);
        assert_eq!(lb.route_write(Pool::Hot, &k), vec![Route::Node(1)]);
    }

    #[test]
    fn reads_never_hit_backup_while_healthy() {
        let lb = mixed_lb();
        for i in 0..1000u64 {
            let k = i.to_be_bytes();
            for pool in [Pool::Hot, Pool::Cold] {
                assert!(!matches!(lb.route_read(pool, &k), Route::Backup(_)));
            }
        }
    }

    #[test]
    fn failed_spot_hot_keys_go_to_backup_cold_to_backend() {
        let mut lb = mixed_lb();
        lb.mark_failed(2);
        let hot_k = keys_owned_by(&lb, Pool::Hot, 2, 1).remove(0);
        let cold_k = keys_owned_by(&lb, Pool::Cold, 2, 1).remove(0);
        assert_eq!(lb.route_read(Pool::Hot, &hot_k), Route::Backup(100));
        assert_eq!(lb.route_read(Pool::Cold, &cold_k), Route::Backend);
        // Writes skip the dead primary but still reach the backup.
        assert_eq!(lb.route_write(Pool::Hot, &hot_k), vec![Route::Backup(100)]);
    }

    #[test]
    fn failed_od_goes_to_backend_even_for_hot() {
        // Backups only replicate spot-hosted hot content.
        let mut lb = mixed_lb();
        lb.mark_failed(1);
        let k = keys_owned_by(&lb, Pool::Hot, 1, 1).remove(0);
        assert_eq!(lb.route_read(Pool::Hot, &k), Route::Backend);
    }

    #[test]
    fn redirect_sends_range_to_replacement() {
        let mut lb = mixed_lb();
        lb.mark_failed(2);
        lb.redirect(2, 3); // replacement node 3 takes over node 2's range
        let k = keys_owned_by(&lb, Pool::Cold, 2, 1).remove(0);
        assert_eq!(lb.route_read(Pool::Cold, &k), Route::Node(3));
        lb.clear_redirect(2);
        assert_eq!(lb.route_read(Pool::Cold, &k), Route::Backend);
    }

    #[test]
    fn restored_node_serves_again() {
        let mut lb = mixed_lb();
        lb.mark_failed(2);
        lb.mark_restored(2);
        let k = keys_owned_by(&lb, Pool::Cold, 2, 1).remove(0);
        assert_eq!(lb.route_read(Pool::Cold, &k), Route::Node(2));
        assert!(!lb.is_failed(2));
    }

    #[test]
    fn failed_backup_falls_through_to_backend() {
        let mut lb = mixed_lb();
        lb.mark_failed(2);
        lb.mark_failed(100);
        let k = keys_owned_by(&lb, Pool::Hot, 2, 1).remove(0);
        assert_eq!(lb.route_read(Pool::Hot, &k), Route::Backend);
    }

    #[test]
    fn empty_balancer_routes_to_backend() {
        let lb = LoadBalancer::new();
        assert_eq!(lb.route_read(Pool::Hot, b"k"), Route::Backend);
        assert!(lb.route_write(Pool::Hot, b"k").is_empty());
    }

    #[test]
    fn set_weights_prunes_state_of_departed_nodes() {
        let mut lb = mixed_lb();
        lb.mark_failed(2);
        lb.mark_failed(100);
        lb.redirect(2, 3);
        // New assignment drops node 2 entirely.
        lb.set_weights(&table(&[(1, 1.0, 1.0, false)]));
        assert!(lb.redirects.is_empty());
        assert!(!lb.is_failed(2), "a departed node's failure mark goes");
        assert!(lb.is_failed(100), "a backup's failure mark stays");
    }

    #[test]
    fn pools_route_independently() {
        // Hot pool lives only on node 1, cold only on node 2 — the
        // OD+Spot_Sep configuration.
        let lb = balancer(&[(1, 1.0, 0.0, false), (2, 0.0, 1.0, false)], &[]);
        assert_eq!(lb.route_read(Pool::Hot, b"k"), Route::Node(1));
        assert_eq!(lb.route_read(Pool::Cold, b"k"), Route::Node(2));
    }

    #[test]
    fn mixing_weights_share_nodes() {
        // Hot-cold mixing: both pools span both nodes with different
        // weights.
        let lb = balancer(&[(1, 0.7, 0.2, false), (2, 0.3, 0.8, false)], &[]);
        let on_node1 = |pool| {
            (0..10_000u64)
                .filter(|i| lb.route_read(pool, &i.to_be_bytes()) == Route::Node(1))
                .count()
        };
        let (hot1, cold1) = (on_node1(Pool::Hot), on_node1(Pool::Cold));
        assert!((hot1 as f64 / 10_000.0 - 0.7).abs() < 0.08, "{hot1}");
        assert!((cold1 as f64 / 10_000.0 - 0.2).abs() < 0.08, "{cold1}");
    }

    const WEIGHTS_A: &[Row] = &[(1, 0.5, 0.2, false), (2, 0.5, 0.8, true)];
    const WEIGHTS_B: &[Row] = &[(1, 0.3, 0.3, false), (3, 0.7, 0.7, true)];

    /// The weight-commit property of replicated balancers (paper
    /// footnote 5): routing is a function of the newest table alone.
    #[test]
    fn routing_depends_only_on_the_newest_table() {
        // One balancer applies table a (and fails node 2 over under it),
        // then table b; the other skips straight to b.
        let mut applied = balancer(WEIGHTS_A, &[100]);
        applied.mark_failed(2);
        applied.redirect(2, 1);
        applied.set_weights(&table(WEIGHTS_B));
        applied.set_backups(&[100, 101]);
        let skipped = balancer(WEIGHTS_B, &[100, 101]);
        let twin = balancer(WEIGHTS_B, &[100, 101]);
        for i in 0..20_000u64 {
            let k = i.to_be_bytes();
            for pool in [Pool::Hot, Pool::Cold] {
                let read = skipped.route_read(pool, &k);
                let write = skipped.route_write(pool, &k);
                assert_eq!(twin.route_read(pool, &k), read);
                assert_eq!(twin.route_write(pool, &k), write);
                assert_eq!(applied.route_read(pool, &k), read);
                assert_eq!(applied.route_write(pool, &k), write);
                // Node 2 was dropped by table b: nobody routes to it.
                assert_ne!(read, Route::Node(2), "dropped node must not serve");
                assert!(!write.contains(&Route::Node(2)));
            }
        }
    }
}
