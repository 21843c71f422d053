//! Lock-free bounded recency-touch rings for the store's deferred read
//! path.
//!
//! Under the shared-lock read plane ([`crate::store`] with
//! `ReadPath::Deferred`), a GET never moves its entry in the LRU list —
//! that would need the shard's write lock. Instead a key's first hit in a
//! clock tick pushes a fixed-size **touch record** (`(slot, gen)` packed
//! into one `u64`) into a per-worker ring, and the records are drained in
//! batches by whoever next holds the shard's write lock. Repeat hits
//! within the tick push nothing, so the ring's two CASes (enqueue here,
//! dequeue at the flush) are the only locked instructions recency costs,
//! and only cold reads pay them.
//!
//! The ring is a bounded Vyukov-style queue with per-slot sequence
//! numbers. Each data-plane worker thread is assigned its own lane, so in
//! steady state every ring has a single producer (the worker) and a single
//! consumer (the flusher, serialized by the shard write lock) and both
//! sides proceed with one uncontended CAS. The sequence-number protocol
//! additionally keeps the ring safe when lanes are oversubscribed (more
//! threads than lanes hash onto one ring) — records are then interleaved
//! across the colliding producers, which only weakens recency ordering
//! *between* those threads, never within one (the approximation contract).
//!
//! Overflow policy is **drop-oldest**: a full ring discards its oldest
//! pending record to make room for the newest. A dropped touch means a hot
//! key looks slightly colder than it is — strictly a recency approximation,
//! never a correctness issue, and counted in `store_touch_dropped_total`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One recency record: arena slot index and the slot generation at read
/// time, packed so a ring slot is a single `AtomicU64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchRec {
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

struct Slot {
    seq: AtomicUsize,
    rec: AtomicU64,
}

/// A bounded multi-producer multi-consumer ring of [`TouchRec`]s.
///
/// Sized to a power of two; see the module docs for the producer/consumer
/// roles and the drop-oldest overflow policy.
pub struct TouchRing {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

impl TouchRing {
    /// Creates a ring holding at least `capacity` records (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                rec: AtomicU64::new(0),
            })
            .collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate number of queued records (racy; exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.load(Ordering::Relaxed);
        let head = self.dequeue_pos.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes one record without dropping; `false` when full.
    fn try_push(&self, rec: TouchRec) -> bool {
        let packed = rec.pack();
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.rec.store(packed, Ordering::Relaxed);
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return false; // full
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pushes one record, discarding the oldest pending record when the
    /// ring is full. Returns `true` when an old record was dropped to make
    /// room (for the `store_touch_dropped_total` counter).
    pub fn push_drop_oldest(&self, rec: TouchRec) -> bool {
        if self.try_push(rec) {
            return false;
        }
        let mut dropped = false;
        // Keep stealing the oldest slot until the push lands. Bounded: each
        // failed push frees one slot or observes another thread doing so.
        loop {
            if self.pop().is_some() {
                dropped = true;
            }
            if self.try_push(rec) {
                return dropped;
            }
        }
    }

    /// Pops the oldest record; `None` when empty.
    pub fn pop(&self) -> Option<TouchRec> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let packed = slot.rec.load(Ordering::Relaxed);
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(TouchRec::unpack(packed));
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

/// Returns this thread's lane index in `0..lanes`.
///
/// Every thread gets a stable id from a process-wide counter on first use;
/// data-plane workers therefore land on distinct lanes whenever
/// `lanes >= worker count`, and extra threads (tests, benches, sidecar
/// pools) wrap around and share.
pub fn lane_for_thread(lanes: usize) -> usize {
    use std::cell::Cell;
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static THREAD_LANE_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    let id = THREAD_LANE_ID.with(|c| {
        let mut id = c.get();
        if id == usize::MAX {
            id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    });
    id % lanes.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_roundtrip() {
        let r = TouchRing::new(8);
        for i in 0..5u32 {
            assert!(!r.push_drop_oldest(TouchRec { idx: i, gen: i * 7 }));
        }
        assert_eq!(r.len(), 5);
        for i in 0..5u32 {
            assert_eq!(r.pop(), Some(TouchRec { idx: i, gen: i * 7 }));
        }
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let r = TouchRing::new(4); // exact power of two
        for i in 0..4u32 {
            assert!(!r.push_drop_oldest(TouchRec { idx: i, gen: 0 }));
        }
        assert!(r.push_drop_oldest(TouchRec { idx: 99, gen: 0 }));
        // Record 0 (oldest) was sacrificed; order of the rest preserved.
        let drained: Vec<u32> = std::iter::from_fn(|| r.pop()).map(|t| t.idx).collect();
        assert_eq!(drained, vec![1, 2, 3, 99]);
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(TouchRing::new(0).capacity(), 2);
        assert_eq!(TouchRing::new(3).capacity(), 4);
        assert_eq!(TouchRing::new(1024).capacity(), 1024);
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
        ] {
            assert_eq!(TouchRec::unpack(rec.pack()), rec);
        }
    }

    #[test]
    fn lanes_are_stable_per_thread() {
        let a = lane_for_thread(8);
        assert_eq!(a, lane_for_thread(8), "lane must be stable per thread");
        assert_eq!(lane_for_thread(1), 0);
        assert_eq!(
            lane_for_thread(0),
            0,
            "zero lanes clamps instead of div-by-zero"
        );
    }

    #[test]
    fn concurrent_producers_and_consumer_lose_nothing_but_drops() {
        // 4 producers hammer one ring while a consumer drains. Every
        // record that is not dropped must come out exactly once, and
        // per-producer order must be preserved among surviving records.
        let r = Arc::new(TouchRing::new(64));
        let n_per = 20_000u32;
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..n_per {
                        r.push_drop_oldest(TouchRec {
                            idx: (p << 24) | i,
                            gen: p,
                        });
                    }
                })
            })
            .collect();
        let consumer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut got: Vec<TouchRec> = Vec::new();
                loop {
                    match r.pop() {
                        Some(t) => got.push(t),
                        None => {
                            if got.len() as u32 >= 4 * n_per {
                                break;
                            }
                            std::thread::yield_now();
                            // Producers may be done with the ring empty.
                            if Arc::strong_count(&r) == 1 && r.is_empty() {
                                break;
                            }
                        }
                    }
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        drop(r);
        let got = consumer.join().unwrap();
        // Surviving records are unique and in order within each producer.
        let mut last = [None::<u32>; 4];
        for t in &got {
            let p = (t.idx >> 24) as usize;
            let i = t.idx & 0x00ff_ffff;
            assert_eq!(t.gen, p as u32);
            if let Some(prev) = last[p] {
                assert!(i > prev, "per-producer order violated: {i} after {prev}");
            }
            last[p] = Some(i);
        }
    }
}
