//! A per-shard hierarchical timer wheel for proactive TTL expiry.
//!
//! Before this wheel, TTLs were enforced **lazily**: an expired entry kept
//! its LRU slot and its bytes until the next unlucky GET (or an eviction)
//! happened to collide with it. The wheel turns expiry into a batched
//! background sweep on the store's flush cadence: every write (and every
//! explicit `flush_touches`) advances the wheel to the current logical
//! time under the shard write lock and reaps everything due.
//!
//! # Tick math
//!
//! The wheel is a radix-64 hierarchy over the store's logical clock (one
//! tick = one clock unit, seconds in production): [`LEVELS`] levels of 64
//! slots, level `l` covering `64^l` ticks per slot. A deadline `e` is
//! filed at the *highest* level where `e` differs from the wheel's current
//! time `last_tick` — i.e. the highest set 6-bit group of
//! `e ^ last_tick` — in slot `(e >> 6l) & 63`. With 11 levels the whole
//! `u64` range is covered, so absolute Unix-epoch deadlines work without
//! an overflow list.
//!
//! Each level keeps a 64-bit occupancy bitmap, so advancing jumps straight
//! from one occupied slot to the next (`O(levels)` per jump) rather than
//! iterating empty ticks — crucial the first time a wheel whose
//! `last_tick` is 0 meets a Unix-scale deadline of ~1.7e9.
//!
//! Records are `(deadline, slot, gen)` triples and are **lazy**:
//! deletes, overwrites, and evictions never search the wheel. A reaped
//! record whose generation no longer matches the arena slot is dropped
//! (counted as stale by the store); a live match is removed from the shard
//! exactly like a lazy-expiry hit.

/// Number of radix levels; `64^11 > 2^64`, so every `u64` deadline fits.
pub(crate) const LEVELS: usize = 11;

/// Slots per level.
pub(crate) const SLOTS: usize = 64;

/// One pending expiry: the deadline plus the arena slot coordinates used to
/// validate the record at reap time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WheelRec {
    /// Absolute logical time at which the entry expires (`expires_at`).
    pub(crate) expires_at: u64,
    /// Arena slot within the shard.
    pub(crate) idx: u32,
    /// Slot generation when the deadline was filed.
    pub(crate) gen: u32,
}

struct Level {
    occupied: u64,
    slots: Vec<Vec<WheelRec>>,
}

impl Level {
    fn new() -> Self {
        Self {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// The hierarchical timer wheel. See the module docs for the tick math.
pub(crate) struct TimerWheel {
    levels: Vec<Level>,
    /// Logical time the wheel has been advanced to; all records with
    /// `expires_at <= last_tick` have been delivered.
    last_tick: u64,
    pending: usize,
}

/// Start-of-rotation base for `level` at time `t`: `t` with the low
/// `6*(level+1)` bits cleared.
#[inline]
fn rotation_base(t: u64, level: usize) -> u64 {
    let bits = 6 * (level + 1);
    if bits >= 64 {
        0
    } else {
        t & !((1u64 << bits) - 1)
    }
}

impl TimerWheel {
    /// Creates an empty wheel positioned at logical time 0.
    pub(crate) fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            last_tick: 0,
            pending: 0,
        }
    }

    /// Number of pending (not yet delivered) records, stale ones included.
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// Schedules a record. A deadline at or before `last_tick` is clamped
    /// to `last_tick + 1` so it fires on the next advance.
    pub(crate) fn insert(&mut self, rec: WheelRec) {
        let e = rec.expires_at.max(self.last_tick.saturating_add(1));
        let level = Self::level_for(e ^ self.last_tick);
        let slot = ((e >> (6 * level)) & 63) as usize;
        self.levels[level].slots[slot].push(WheelRec {
            expires_at: e,
            ..rec
        });
        self.levels[level].occupied |= 1 << slot;
        self.pending += 1;
    }

    /// Level of the highest set 6-bit group of `diff` (`diff != 0`).
    #[inline]
    fn level_for(diff: u64) -> usize {
        debug_assert!(diff != 0);
        ((63 - diff.leading_zeros() as usize) / 6).min(LEVELS - 1)
    }

    /// The earliest occupied slot across all levels, as
    /// `(level, slot, slot_start_tick)`. `slot_start_tick` lower-bounds
    /// every deadline filed in that slot.
    fn next_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for (level, l) in self.levels.iter().enumerate() {
            if l.occupied == 0 {
                continue;
            }
            let cur = ((self.last_tick >> (6 * level)) & 63) as u32;
            // Invariant: within a level every occupied slot belongs to the
            // current rotation and sits strictly after the current index
            // (insert files at the highest *differing* group), so a plain
            // rotate-right + trailing_zeros finds the nearest one.
            let dist = l.occupied.rotate_right(cur).trailing_zeros() as u64;
            let slot = (cur as u64 + dist) % 64;
            let start = rotation_base(self.last_tick, level) + (slot << (6 * level));
            if best.is_none_or(|(_, _, s)| start < s) {
                best = Some((level, slot as usize, start));
            }
        }
        best
    }

    /// Lower bound on the earliest pending deadline (`None` when empty).
    /// The store mirrors this into a per-shard atomic so readers can skip
    /// flushes that would have nothing to reap.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.next_slot().map(|(_, _, start)| start)
    }

    /// Advances the wheel to `now`, appending every due `(idx, gen)` pair
    /// to `due`. Records not yet due that lived in a processed coarse slot
    /// cascade down to finer levels. Returns the number delivered.
    pub(crate) fn advance(&mut self, now: u64, due: &mut Vec<(u32, u32)>) -> usize {
        let mut delivered = 0usize;
        while self.pending > 0 {
            let Some((level, slot, start)) = self.next_slot() else {
                break;
            };
            if start > now {
                break;
            }
            // Position the wheel at the slot boundary *before* re-filing,
            // so cascaded records land at levels relative to it.
            self.last_tick = start;
            let mut recs = std::mem::take(&mut self.levels[level].slots[slot]);
            self.levels[level].occupied &= !(1u64 << slot);
            self.pending -= recs.len();
            for rec in recs.drain(..) {
                if rec.expires_at <= now {
                    due.push((rec.idx, rec.gen));
                    delivered += 1;
                } else {
                    self.insert(rec);
                }
            }
            // Recycle the drained vector's capacity into the emptied slot
            // so repeated advancing through a hot slot stays allocation-free.
            if self.levels[level].slots[slot].is_empty() {
                self.levels[level].slots[slot] = recs;
            }
        }
        if self.last_tick < now {
            self.last_tick = now;
        }
        delivered
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("last_tick", &self.last_tick)
            .field("pending", &self.pending)
            .field("next_deadline", &self.next_deadline())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(e: u64, id: u32) -> WheelRec {
        WheelRec {
            expires_at: e,
            idx: id,
            gen: id,
        }
    }

    fn drain(w: &mut TimerWheel, now: u64) -> Vec<u32> {
        let mut due = Vec::new();
        w.advance(now, &mut due);
        let mut ids: Vec<u32> = due.into_iter().map(|(i, _)| i).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn fires_at_exact_deadline_not_before() {
        let mut w = TimerWheel::new();
        w.insert(rec(10, 1));
        assert_eq!(drain(&mut w, 9), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 10), vec![1]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn unix_scale_jump_is_cheap_and_correct() {
        // last_tick 0 meeting absolute Unix deadlines: the bitmap jump
        // must cross ~1.7e9 empty ticks without iterating them.
        let mut w = TimerWheel::new();
        let base = 1_700_000_000u64;
        w.insert(rec(base + 5, 1));
        w.insert(rec(base + 70, 2));
        w.insert(rec(base + 5000, 3));
        assert_eq!(drain(&mut w, base), Vec::<u32>::new());
        assert_eq!(drain(&mut w, base + 5), vec![1]);
        assert_eq!(drain(&mut w, base + 100), vec![2]);
        assert_eq!(drain(&mut w, base + 10_000), vec![3]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut w = TimerWheel::new();
        drain(&mut w, 100);
        w.insert(rec(50, 7)); // already past
        assert_eq!(drain(&mut w, 101), vec![7]);
    }

    #[test]
    fn next_deadline_lower_bounds() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.insert(rec(1000, 1));
        let nd = w.next_deadline().unwrap();
        assert!(nd <= 1000, "lower bound, got {nd}");
        assert!(nd > 0);
    }

    proptest! {
        /// The wheel delivers exactly the due set a sorted model would, for
        /// arbitrary interleavings of inserts and advances over Unix-scale
        /// and small timestamps.
        #[test]
        fn matches_sorted_model(
            ops in proptest::collection::vec(
                (0u8..2, 0u64..5000, any::<bool>()), 1..120)
        ) {
            let mut w = TimerWheel::new();
            let mut model: Vec<(u64, u32)> = Vec::new(); // (deadline, id)
            let mut now = 0u64;
            let mut next_id = 0u32;
            for (op, arg, unix_scale) in ops {
                let base = if unix_scale { 1_700_000_000 } else { 0 };
                match op {
                    0 => {
                        let e = base + arg;
                        w.insert(rec(e, next_id));
                        // The wheel clamps already-due deadlines forward.
                        model.push((e.max(now + 1), next_id));
                        next_id += 1;
                    }
                    _ => {
                        now = now.max(base + arg);
                        let mut due = Vec::new();
                        w.advance(now, &mut due);
                        let mut got: Vec<u32> =
                            due.into_iter().map(|(i, _)| i).collect();
                        got.sort_unstable();
                        let mut want: Vec<u32> = model
                            .iter()
                            .filter(|&&(e, _)| e <= now)
                            .map(|&(_, id)| id)
                            .collect();
                        want.sort_unstable();
                        model.retain(|&(e, _)| e > now);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(w.len(), model.len());
                    }
                }
            }
            // Final drain far in the future delivers everything left.
            let mut due = Vec::new();
            w.advance(u64::MAX, &mut due);
            prop_assert_eq!(due.len(), model.len());
        }
    }
}
