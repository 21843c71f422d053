//! Bounded structured event journal.
//!
//! The journal is a fixed-capacity ring of [`Event`]s: when full, the
//! oldest event is dropped and a drop counter is bumped, so a long run
//! cannot grow memory without bound while the tail of the story is always
//! retained. Timestamps are **logical** (supplied by the caller from its
//! substrate clock, seconds since run start or Unix epoch depending on
//! the layer) — never wall clock — so journals from deterministic replays
//! compare byte-for-byte.

use std::collections::VecDeque;

use parking_lot::Mutex;

/// Default journal capacity (events retained before drop-oldest).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// What happened, structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A spot bid was submitted for `count` nodes of market `label`.
    BidPlaced {
        /// Market / instance-type label.
        label: String,
        /// Bid price in $/hour.
        bid: f64,
        /// Nodes requested.
        count: u64,
    },
    /// Spot capacity was revoked. `warned` distinguishes the two-minute
    /// warning from the actual termination.
    Revocation {
        /// Market / instance-type label.
        label: String,
        /// Nodes affected.
        count: u64,
        /// True for the advance warning, false for the termination itself.
        warned: bool,
    },
    /// Nodes joined the fleet.
    NodeLaunched {
        /// Market / instance-type label.
        label: String,
        /// Nodes added.
        count: u64,
    },
    /// Nodes were deliberately released.
    NodeDeallocated {
        /// Market / instance-type label.
        label: String,
        /// Nodes released.
        count: u64,
    },
    /// Periodic progress of a backup node re-warming a lost shard.
    BackupWarmupProgress {
        /// Fraction of the lost shard's access mass already warmed.
        warmed_mass: f64,
        /// Items/s currently being pumped from the backing store.
        pump_items_per_sec: f64,
    },
    /// A token bucket could not satisfy demand this step.
    BucketThrottled {
        /// Bucket name (e.g. `"cpu"`, `"net"`).
        bucket: String,
        /// Demanded rate.
        demand: f64,
        /// Rate actually achieved.
        achieved: f64,
    },
}

impl EventKind {
    /// Short stable tag used in exports.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::BidPlaced { .. } => "bid_placed",
            EventKind::Revocation { .. } => "revocation",
            EventKind::NodeLaunched { .. } => "node_launched",
            EventKind::NodeDeallocated { .. } => "node_deallocated",
            EventKind::BackupWarmupProgress { .. } => "backup_warmup_progress",
            EventKind::BucketThrottled { .. } => "bucket_throttled",
        }
    }
}

/// One journal entry: logical timestamp + what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical time supplied by the recording layer (substrate clock).
    pub t: u64,
    /// The event payload.
    pub kind: EventKind,
}

struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

/// The bounded journal.
pub struct Journal {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a journal retaining at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                dropped: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, dropping the oldest if the ring is full.
    /// Returns `true` when an old event was evicted to make room, so
    /// callers holding a metrics registry can surface drops as a counter
    /// (see `Obs::event`) instead of leaving them silent.
    pub fn record(&self, t: u64, kind: EventKind) -> bool {
        let mut r = self.ring.lock();
        let mut evicted = false;
        if r.events.len() == self.capacity {
            r.events.pop_front();
            r.dropped += 1;
            evicted = true;
        }
        r.events.push_back(Event { t, kind });
        evicted
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// How many events have been dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().events.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let j = Journal::new();
        j.record(
            10,
            EventKind::NodeLaunched {
                label: "m4.large".into(),
                count: 3,
            },
        );
        j.record(
            20,
            EventKind::Revocation {
                label: "m4.large".into(),
                count: 1,
                warned: true,
            },
        );
        let ev = j.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].t, 10);
        assert_eq!(ev[1].t, 20);
        assert_eq!(ev[0].kind.tag(), "node_launched");
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn drops_oldest_when_full() {
        let j = Journal::with_capacity(3);
        for t in 0..5u64 {
            j.record(
                t,
                EventKind::NodeLaunched {
                    label: "m4.large".into(),
                    count: 1,
                },
            );
        }
        let ev = j.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].t, 2, "oldest two dropped");
        assert_eq!(ev[2].t, 4);
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let j = Journal::with_capacity(0);
        assert_eq!(j.capacity(), 1);
        j.record(
            1,
            EventKind::BucketThrottled {
                bucket: "cpu".into(),
                demand: 2.0,
                achieved: 0.2,
            },
        );
        j.record(
            2,
            EventKind::BucketThrottled {
                bucket: "net".into(),
                demand: 2.0,
                achieved: 0.2,
            },
        );
        assert_eq!(j.len(), 1);
        assert_eq!(j.events()[0].t, 2);
    }
}
