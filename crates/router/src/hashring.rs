//! Weighted consistent hashing (the placement mechanism of memcached /
//! mcrouter pools).
//!
//! Each node contributes virtual points on a 64-bit ring in proportion to
//! its weight; a key maps to the first point clockwise from its hash.
//! Consistent hashing gives the two properties the paper's auto-scaling
//! relies on (Section 2.1): adding or removing a node only moves the keys
//! adjacent to its points, and weight changes shift load smoothly.

use crate::hash64;

/// Node identifier (the cloud instance id in the full system).
pub type NodeId = u64;

/// Virtual points contributed per unit of weight.
const VNODES_PER_UNIT: f64 = 64.0;

/// A weighted consistent-hash ring.
///
/// # Examples
///
/// ```
/// use spotcache_router::hashring::HashRing;
///
/// let ring = HashRing::build(&[(1, 2.0), (2, 1.0)]); // node 1 gets ~2/3
/// let owner = ring.lookup(b"some-key").unwrap();
/// assert!(owner == 1 || owner == 2);
/// // Lookups are stable.
/// assert_eq!(ring.lookup(b"some-key"), Some(owner));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Sorted `(point, node)` pairs.
    points: Vec<(u64, NodeId)>,
    nodes: Vec<(NodeId, f64)>,
}

impl HashRing {
    /// Builds a ring from `(node, weight)` pairs.
    ///
    /// Nodes with non-positive weight contribute no points. An empty or
    /// all-zero-weight input yields an empty ring (lookups return `None`).
    pub fn build(weights: &[(NodeId, f64)]) -> Self {
        let mut points = Vec::new();
        for &(node, w) in weights {
            if w <= 0.0 {
                continue;
            }
            let n = (w * VNODES_PER_UNIT).ceil() as u64;
            for replica in 0..n {
                let mut buf = [0u8; 16];
                buf[..8].copy_from_slice(&node.to_be_bytes());
                buf[8..].copy_from_slice(&replica.to_be_bytes());
                points.push((hash64(RING_SEED, &buf), node));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        Self {
            points,
            nodes: weights.to_vec(),
        }
    }

    /// Number of nodes with positive weight.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|&&(_, w)| w > 0.0).count()
    }

    /// Whether the ring has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The node owning `key`, or `None` on an empty ring.
    pub fn lookup(&self, key: &[u8]) -> Option<NodeId> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash64(KEY_SEED, key);
        let idx = match self.points.binary_search_by_key(&h, |p| p.0) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        };
        Some(self.points[idx].1)
    }

    /// The first `n` *distinct* nodes clockwise from the raw ring point
    /// `from_point` — a contiguous arc of the ring.
    ///
    /// It starts from a position in point space, not from a key's hash,
    /// because that is how a correlated failure presents itself: a
    /// spot-market price spike clears instances whose placement is
    /// adjacent, so a storm drill draws its kill-set as an arc rather
    /// than as independent uniform picks. Sampling `from_point`
    /// uniformly from `u64` gives every arc equal probability while
    /// keeping the set contiguous.
    pub fn arc_nodes(&self, from_point: u64, n: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(n);
        if self.points.is_empty() || n == 0 {
            return out;
        }
        let start = match self.points.binary_search_by_key(&from_point, |p| p.0) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        };
        for off in 0..self.points.len() {
            let node = self.points[(start + off) % self.points.len()].1;
            if !out.contains(&node) {
                out.push(node);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// The `(node, weight)` pairs this ring was built from.
    pub fn weights(&self) -> &[(NodeId, f64)] {
        &self.nodes
    }
}

// Independent hash domains for ring points vs keys.
const RING_SEED: u64 = 0x4e6f_6465_5269_6e67; // "NodeRing"
const KEY_SEED: u64 = 0x4b65_7948_6173_6821; // "KeyHash!"

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn spread(ring: &HashRing, keys: usize) -> HashMap<NodeId, usize> {
        let mut m = HashMap::new();
        for i in 0..keys as u64 {
            let node = ring.lookup(&i.to_be_bytes()).unwrap();
            *m.entry(node).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn empty_ring_returns_none() {
        let ring = HashRing::build(&[]);
        assert!(ring.is_empty());
        assert_eq!(ring.lookup(b"k"), None);
    }

    #[test]
    fn zero_weight_nodes_get_no_keys() {
        let ring = HashRing::build(&[(1, 1.0), (2, 0.0)]);
        let m = spread(&ring, 1000);
        assert_eq!(m.get(&2), None);
        assert_eq!(m[&1], 1000);
        assert_eq!(ring.node_count(), 1);
    }

    #[test]
    fn equal_weights_balance_keys() {
        let ring = HashRing::build(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]);
        let m = spread(&ring, 40_000);
        for (&node, &count) in &m {
            let frac = count as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.08, "node {node}: {frac}");
        }
    }

    #[test]
    fn weights_shift_load_proportionally() {
        let ring = HashRing::build(&[(1, 3.0), (2, 1.0)]);
        let m = spread(&ring, 40_000);
        let frac1 = m[&1] as f64 / 40_000.0;
        assert!((frac1 - 0.75).abs() < 0.08, "node 1 share {frac1}");
    }

    #[test]
    fn lookup_is_stable() {
        let ring = HashRing::build(&[(1, 1.0), (2, 1.0)]);
        for i in 0..100u64 {
            assert_eq!(ring.lookup(&i.to_be_bytes()), ring.lookup(&i.to_be_bytes()));
        }
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        // The consistent-hashing guarantee the paper's scaling relies on.
        let before = HashRing::build(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]);
        let after = HashRing::build(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        let mut moved_from_survivor = 0;
        for i in 0..20_000u64 {
            let k = i.to_be_bytes();
            let b = before.lookup(&k).unwrap();
            let a = after.lookup(&k).unwrap();
            if b != 4 && a != b {
                moved_from_survivor += 1;
            }
        }
        assert_eq!(
            moved_from_survivor, 0,
            "keys on surviving nodes must not move"
        );
    }

    #[test]
    fn arc_nodes_are_contiguous_and_distinct() {
        let ring = HashRing::build(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]);
        for p in [0u64, 1 << 20, u64::MAX / 2, u64::MAX] {
            let arc = ring.arc_nodes(p, 3);
            assert_eq!(arc.len(), 3);
            let mut sorted = arc.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "distinct nodes: {arc:?}");
            // A longer arc from the same point extends the shorter one.
            let longer = ring.arc_nodes(p, 4);
            assert_eq!(&longer[..3], &arc[..], "arcs nest");
        }
        // Asking for more nodes than exist returns all of them.
        assert_eq!(ring.arc_nodes(7, 10).len(), 4);
        assert!(HashRing::build(&[]).arc_nodes(7, 2).is_empty());
    }

    proptest! {
        /// Adding a node never moves a key between two pre-existing nodes.
        #[test]
        fn adding_node_is_minimally_disruptive(
            nodes in proptest::collection::hash_set(0u64..50, 2..8),
            new_node in 100u64..200,
            keys in proptest::collection::vec(any::<u64>(), 50),
        ) {
            let w: Vec<(NodeId, f64)> = nodes.iter().map(|&n| (n, 1.0)).collect();
            let before = HashRing::build(&w);
            let mut w2 = w.clone();
            w2.push((new_node, 1.0));
            let after = HashRing::build(&w2);
            for k in keys {
                let kb = k.to_be_bytes();
                let b = before.lookup(&kb).unwrap();
                let a = after.lookup(&kb).unwrap();
                prop_assert!(a == b || a == new_node, "key moved {b} -> {a}");
            }
        }
    }
}
