//! The per-shard recency log of the store's shared-lock read path.
//!
//! A GET ([`crate::store`]) never moves its entry in the LRU list — that
//! would need the shard's write lock. Instead a key's first hit in a
//! clock tick appends a fixed-size **touch record** (`(slot, gen)` packed
//! into one `u64`) to the shard's [`TouchLog`], and whoever next holds the
//! shard's write lock applies the pending records in order. Repeat hits
//! within the tick append nothing.
//!
//! # Why this is a log and not a queue
//!
//! The shard's `RwLock` already keeps the two sides apart, so the log
//! carries no consumer-side protocol of its own:
//!
//! * [`TouchLog::push`] is called only **under the shard's read guard**
//!   (`Shard::get_shared`). Pushers run beside each other, never beside a
//!   drain. A push is one `fetch_add` that claims a position and one
//!   `store` that fills it.
//! * [`TouchLog::drain`] is called only **under the shard's write guard**
//!   (`Shard::flush_locked`, `Store::clear`). Every push that claimed a
//!   position has also filled it — its read guard was released before the
//!   write guard was granted, and that release / acquire pair is what
//!   orders the pushers' `Relaxed` stores before the drain's `Relaxed`
//!   loads. The drain therefore reads the array like a plain slice and
//!   needs no atomic read-modify-write.
//!
//! # Overflow
//!
//! The array is a fixed power of two. A full lap **overwrites the oldest
//! record** — drop-oldest with no pop — and the drain, which knows how
//! many positions were claimed since it last ran, hands over the newest
//! `capacity` and reports the rest as dropped (`store_touch_dropped_total`).
//! A dropped touch means a hot key looks slightly colder than it is:
//! strictly a recency approximation, never a correctness issue.
//!
//! One race remains, and it is inside that contract. A pusher stalled for
//! a whole lap between its `fetch_add` and its `store` writes its record
//! over the one that lapped it, so the drain finds an *older real* record
//! where a newer one was dropped. That is still drop-oldest to within one
//! record per stalled pusher, the counts stay exact (they come from the
//! positions, not the array), and the record is generation-checked when it
//! is applied like any other. Below capacity no position is shared and
//! the race cannot occur.

use std::sync::atomic::{AtomicU64, Ordering};

/// One recency record: arena slot index and the slot generation at read
/// time, packed so a log position is a single `AtomicU64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TouchRec {
    /// Arena slot within the shard.
    pub idx: u32,
    /// Slot generation observed by the reader; the flush validates it so a
    /// record can never touch a slot that was freed, reused or overwritten
    /// since.
    pub gen: u32,
}

impl TouchRec {
    #[inline]
    fn pack(self) -> u64 {
        ((self.idx as u64) << 32) | self.gen as u64
    }

    #[inline]
    fn unpack(v: u64) -> Self {
        Self {
            idx: (v >> 32) as u32,
            gen: v as u32,
        }
    }
}

/// A bounded, overwrite-on-overflow log of [`TouchRec`]s: many pushers
/// under a shared lock, one drain under the exclusive one. See the module
/// docs for the locking contract that makes `Relaxed` sufficient.
pub(crate) struct TouchLog {
    recs: Box<[AtomicU64]>,
    mask: u64,
    /// Positions claimed so far; position `p` lives at `recs[p & mask]`.
    pushed: AtomicU64,
    /// Positions below this were handed over (or counted dropped) by an
    /// earlier drain. Written only under the write guard.
    drained: AtomicU64,
}

impl TouchLog {
    /// Creates a log holding `capacity` records, rounded up to a power of
    /// two (minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Self {
            recs: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as u64 - 1,
            pushed: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Whether no record is pending. Readable without any lock (the
    /// flush's skip test); exact when no pusher is running.
    pub fn is_empty(&self) -> bool {
        self.pushed.load(Ordering::Relaxed) == self.drained.load(Ordering::Relaxed)
    }

    /// The first half of a push: claims the next position.
    #[inline]
    fn claim(&self) -> u64 {
        self.pushed.fetch_add(1, Ordering::Relaxed)
    }

    /// The second half of a push: fills a claimed position.
    #[inline]
    fn fill(&self, pos: u64, rec: TouchRec) {
        self.recs[(pos & self.mask) as usize].store(rec.pack(), Ordering::Relaxed);
    }

    /// Appends one record, overwriting the oldest when the log is full.
    /// Call only under the shard's **read** guard.
    #[inline]
    pub fn push(&self, rec: TouchRec) {
        self.fill(self.claim(), rec);
    }

    /// Hands `f` the newest `min(pending, capacity)` records, oldest
    /// first, and empties the log. Returns `(seen, dropped)`: how many
    /// records `f` saw and how many older ones were overwritten before
    /// this drain got to them. Stores nothing when nothing is pending.
    /// Call only under the shard's **write** guard.
    pub fn drain(&self, mut f: impl FnMut(TouchRec)) -> (u64, u64) {
        let end = self.pushed.load(Ordering::Relaxed);
        let pending = end - self.drained.load(Ordering::Relaxed);
        if pending == 0 {
            return (0, 0);
        }
        let seen = pending.min(self.capacity());
        for pos in end - seen..end {
            let packed = self.recs[(pos & self.mask) as usize].load(Ordering::Relaxed);
            f(TouchRec::unpack(packed));
        }
        self.drained.store(end, Ordering::Relaxed);
        (seen, pending - seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

    fn rec(pusher: u32, i: u32) -> TouchRec {
        TouchRec {
            idx: (pusher << 24) | i,
            gen: pusher,
        }
    }

    fn drain_all(log: &TouchLog) -> (Vec<TouchRec>, u64) {
        let mut got = Vec::new();
        let (seen, dropped) = log.drain(|t| got.push(t));
        assert_eq!(seen, got.len() as u64);
        (got, dropped)
    }

    #[test]
    fn fifo_roundtrip() {
        let log = TouchLog::new(8);
        assert!(log.is_empty());
        for i in 0..5u32 {
            log.push(TouchRec { idx: i, gen: i * 7 });
        }
        assert!(!log.is_empty());
        let (got, dropped) = drain_all(&log);
        let want: Vec<_> = (0..5u32).map(|i| TouchRec { idx: i, gen: i * 7 }).collect();
        assert_eq!((got, dropped), (want, 0));
        assert!(log.is_empty());
        assert_eq!(drain_all(&log), (vec![], 0), "an idle drain sees nothing");
        // The positions keep counting up across drains.
        log.push(TouchRec { idx: 9, gen: 1 });
        assert_eq!(drain_all(&log), (vec![TouchRec { idx: 9, gen: 1 }], 0));
    }

    #[test]
    fn overflow_keeps_the_newest_capacity_and_counts_the_rest() {
        let log = TouchLog::new(4);
        for i in 0..11u32 {
            log.push(TouchRec { idx: i, gen: 1 });
        }
        let (got, dropped) = drain_all(&log);
        let idx: Vec<u32> = got.iter().map(|t| t.idx).collect();
        assert_eq!(idx, vec![7, 8, 9, 10], "newest four, oldest first");
        assert_eq!(dropped, 7);
        // Exactly full is not an overflow.
        for i in 0..4u32 {
            log.push(TouchRec { idx: i, gen: 1 });
        }
        let (got, dropped) = drain_all(&log);
        assert_eq!((got.len(), dropped), (4, 0));
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(TouchLog::new(0).capacity(), 2);
        assert_eq!(TouchLog::new(3).capacity(), 4);
        assert_eq!(TouchLog::new(4096).capacity(), 4096);
    }

    #[test]
    fn pack_roundtrip_extremes() {
        for rec in [
            TouchRec { idx: 0, gen: 0 },
            TouchRec {
                idx: u32::MAX,
                gen: u32::MAX,
            },
            TouchRec {
                idx: 123,
                gen: u32::MAX - 1,
            },
            TouchRec {
                idx: u32::MAX,
                gen: 0,
            },
        ] {
            assert_eq!(TouchRec::unpack(rec.pack()), rec);
        }
    }

    /// Every order in which `pushers` threads, each running `steps` steps
    /// in sequence, can be interleaved (as sequences of pusher indices).
    fn interleavings(pushers: usize, steps: usize) -> Vec<Vec<usize>> {
        fn go(left: &mut [usize], cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if left.iter().all(|&n| n == 0) {
                out.push(cur.clone());
                return;
            }
            for p in 0..left.len() {
                if left[p] > 0 {
                    left[p] -= 1;
                    cur.push(p);
                    go(left, cur, out);
                    cur.pop();
                    left[p] += 1;
                }
            }
        }
        let mut out = Vec::new();
        go(&mut vec![steps; pushers], &mut Vec::new(), &mut out);
        out
    }

    /// Runs one schedule: each pusher's pushes are split into claim and
    /// fill, and `schedule` names which pusher takes its next step. The
    /// drain runs after every step has — the write guard's guarantee.
    fn run_schedule(pushers: usize, pushes: u32, schedule: &[usize]) {
        let log = TouchLog::new(8);
        let mut step = vec![0u32; pushers];
        let mut claimed = vec![0u64; pushers];
        for &p in schedule {
            let i = step[p] / 2;
            if step[p].is_multiple_of(2) {
                claimed[p] = log.claim();
            } else {
                log.fill(claimed[p], rec(p as u32, i));
            }
            step[p] += 1;
        }
        let (got, dropped) = drain_all(&log);
        assert_eq!(dropped, 0, "{schedule:?}");
        assert_eq!(got.len(), pushers * pushes as usize, "{schedule:?}");
        for p in 0..pushers as u32 {
            let mine: Vec<TouchRec> = got.iter().copied().filter(|t| t.gen == p).collect();
            let want: Vec<TouchRec> = (0..pushes).map(|i| rec(p, i)).collect();
            assert_eq!(mine, want, "pusher {p} under {schedule:?}");
        }
    }

    #[test]
    fn every_interleaving_of_two_pushers_twice_and_three_once() {
        let two_by_two = interleavings(2, 4);
        assert_eq!(two_by_two.len(), 70); // C(8, 4)
        for schedule in &two_by_two {
            run_schedule(2, 2, schedule);
        }
        let three_by_one = interleavings(3, 2);
        assert_eq!(three_by_one.len(), 90); // 6! / (2! 2! 2!)
        for schedule in &three_by_one {
            run_schedule(3, 1, schedule);
        }
    }

    #[test]
    fn pushers_under_the_read_guard_and_a_sweeper_under_the_write_guard_lose_nothing() {
        // The store's discipline with a std lock standing in for the
        // shard's: 4 pushers append under the read guard while a sweeper
        // drains under the write guard. The log is larger than anything a
        // pusher can add between two drains (each pusher waits for the
        // sweeper every 512 records), so nothing may be dropped and each
        // pusher's records come out once, in its own order.
        const PER: u32 = 10_000;
        let lock = RwLock::new(());
        let log = TouchLog::new(4096);
        let mut got: Vec<TouchRec> = Vec::new();
        let mut dropped = 0;
        std::thread::scope(|s| {
            let pushers: Vec<_> = (0..4u32)
                .map(|p| {
                    let (lock, log) = (&lock, &log);
                    s.spawn(move || {
                        for i in 0..PER {
                            {
                                let _read = lock.read().expect("no pusher panics");
                                log.push(rec(p, i));
                            }
                            if i % 512 == 511 {
                                while !log.is_empty() {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    })
                })
                .collect();
            while !pushers.iter().all(|h| h.is_finished()) {
                {
                    let _write = lock.write().expect("no pusher panics");
                    dropped += log.drain(|t| got.push(t)).1;
                }
                std::thread::yield_now();
            }
            for h in pushers {
                h.join().expect("pusher panicked");
            }
        });
        dropped += log.drain(|t| got.push(t)).1;
        assert_eq!(dropped, 0);
        assert_eq!(got.len(), 4 * PER as usize);
        let mut next = [0u32; 4];
        for t in &got {
            let p = t.gen as usize;
            assert_eq!(*t, rec(t.gen, next[p]), "pusher {p} out of order");
            next[p] += 1;
        }
        assert_eq!(next, [PER; 4]);
    }
}
