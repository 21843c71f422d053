//! The per-shard item arena: key index, recency links and entries share
//! one `u32` **slot**, which also names the item in the store's touch and
//! TTL-wheel records. Four arrays are indexed by it:
//!
//! * `meta[slot] = {prev, next, gen, tag}` — 16 bytes, **hot**. Touch
//!   application, unlink / relink (front = most recently used), tail pop
//!   and stale-record checks read nothing else.
//! * `items[slot] = {key, value, expires_at}` — one 64-byte, line-aligned
//!   **cold** entry holding the only copy of the key.
//! * `stamps[slot]` — 4 bytes: the clock tick of the slot's last
//!   read-bump (see [`Arena::first_read_in`]). Kept apart from `meta`
//!   because it is the one word written under the *shared* lock, and
//!   because sixteen stamps to a line is all a repeat hit reads beyond
//!   the bucket and the entry.
//! * `index` — open addressing over 8-byte `{slot, tag}` buckets (hot):
//!   home `tag & mask`, linear probing, backward-shift deletion (no
//!   tombstones: nothing sits past an empty bucket on its probe path),
//!   doubled when the load would pass 0.7. A probe reads an entry's key
//!   only on a tag match; removal finds its bucket by slot and stored tag,
//!   with no re-hash and no key compare.
//!
//! The caller supplies the tag (the store passes the finalised key hash),
//! which is what lets the model tests below force collisions.
//!
//! Slots are reused, so a bare slot can dangle. `gen` is bumped by every
//! insert, overwrite and removal, and its low bit is the **live bit** (odd
//! while the slot holds an item). A `(slot, gen)` pair taken from a live
//! item therefore matches ([`Arena::is_live_gen`], [`Arena::touch_if`])
//! only while that exact insertion is in place — an overwrite invalidates
//! it just as a remove and re-insert would.
//!
//! # Tick-granular recency
//!
//! A read bumps an item at most once per clock tick — memcached's rule
//! (`ITEM_UPDATE_INTERVAL`), with the interval fixed at one tick.
//! [`Arena::first_read_in`] answers whether a read at `tick` is the
//! slot's first in that tick and stamps it if so; only then does the
//! caller move the item (or queue the move). The stamp belongs to the
//! key: an insert clears it, so a new key's first read bumps whatever the
//! tick, and an overwrite — which moves the item to the front itself —
//! leaves it. Recency order is therefore exact **across** ticks and
//! first-event order **within** one, and where no key is read twice in a
//! tick it is the exact-LRU order bit for bit.

use std::sync::atomic::{AtomicU32, Ordering};

use bytes::Bytes;

/// "No slot": the ends of the recency list and of the free list, and an
/// empty index bucket.
const NIL: u32 = u32::MAX;

/// The stamp of a slot whose key no read has bumped yet. A tick
/// whose low 32 bits equal it (one second in 136 years of them) skips the
/// first bump of such slots — colder for a tick, like a dropped touch.
const NEVER: u32 = u32::MAX;

/// Index buckets of a fresh arena (a power of two).
const MIN_INDEX: usize = 8;

/// One stored item. Dead slots hold the empty default.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Item {
    pub(crate) key: Bytes,
    pub(crate) value: Bytes,
    pub(crate) expires_at: Option<u64>,
}

const _: () = assert!(std::mem::size_of::<Item>() == 64);

impl Item {
    pub(crate) fn expired(&self, now: u64) -> bool {
        self.expires_at.is_some_and(|t| t <= now)
    }
}

#[derive(Clone, Copy)]
struct Meta {
    /// Towards the front; `NIL` at the head.
    prev: u32,
    /// Towards the back; for a free slot, the next free slot.
    next: u32,
    gen: u32,
    tag: u32,
}

#[derive(Clone, Copy)]
struct Bucket {
    slot: u32,
    tag: u32,
}

const EMPTY: Bucket = Bucket { slot: NIL, tag: 0 };

pub(crate) struct Arena {
    meta: Vec<Meta>,
    items: Vec<Item>,
    /// Atomic because readers stamp under the shard's shared lock;
    /// `Relaxed` because a stamp publishes nothing but itself.
    stamps: Vec<AtomicU32>,
    index: Vec<Bucket>,
    mask: usize,
    len: usize,
    head: u32,
    tail: u32,
    free: u32,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Self {
            meta: Vec::new(),
            items: Vec::new(),
            stamps: Vec::new(),
            index: vec![EMPTY; MIN_INDEX],
            mask: MIN_INDEX - 1,
            len: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Number of live items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot holding `key`, whose tag is `tag`.
    #[inline]
    pub(crate) fn find(&self, tag: u32, key: &[u8]) -> Option<u32> {
        let mut i = tag as usize & self.mask;
        loop {
            let b = self.index[i];
            if b.slot == NIL {
                return None;
            }
            if b.tag == tag && *self.items[b.slot as usize].key == *key {
                return Some(b.slot);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The item in a live slot.
    #[inline]
    pub(crate) fn item(&self, slot: u32) -> &Item {
        &self.items[slot as usize]
    }

    /// The slot's current generation (odd while live).
    #[inline]
    pub(crate) fn gen(&self, slot: u32) -> u32 {
        self.meta[slot as usize].gen
    }

    /// Whether a read of `slot` at `tick` is its first in that tick and
    /// so owes the item a bump; stamps the slot if it is. Callable under
    /// the shared lock: a plain load and store, no read-modify-write, so
    /// two readers racing into a fresh tick may both be told "first" —
    /// one duplicate touch record, which the flush dedupes.
    #[inline]
    pub(crate) fn first_read_in(&self, slot: u32, tick: u32) -> bool {
        let stamp = &self.stamps[slot as usize];
        let first = stamp.load(Ordering::Relaxed) != tick;
        if first {
            stamp.store(tick, Ordering::Relaxed);
        }
        first
    }

    fn is_live(&self, slot: u32) -> bool {
        self.meta.get(slot as usize).is_some_and(|m| m.gen & 1 == 1)
    }

    /// Whether `slot` still holds the insertion that had generation `gen`
    /// (taken from a live item, so odd).
    #[inline]
    pub(crate) fn is_live_gen(&self, slot: u32, gen: u32) -> bool {
        gen & 1 == 1 && self.meta.get(slot as usize).is_some_and(|m| m.gen == gen)
    }

    /// The least-recently-used slot.
    pub(crate) fn tail(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Live items from most- to least-recently used.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Item> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let slot = (cur != NIL).then_some(cur as usize)?;
            cur = self.meta[slot].next;
            Some(&self.items[slot])
        })
    }

    /// Stores an item whose key is **absent** at the most-recently-used
    /// end and returns its slot, stable until the item is removed. Panics
    /// if the arena already holds `u32::MAX` slots.
    pub(crate) fn insert_front(&mut self, tag: u32, item: Item) -> u32 {
        debug_assert!(self.find(tag, &item.key).is_none(), "key already stored");
        if (self.len + 1) * 10 > self.index.len() * 7 {
            self.grow_index();
        }
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.meta[slot as usize].next;
            slot
        } else {
            let slot = u32::try_from(self.meta.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("an arena names its items with u32 slots");
            self.meta.push(Meta {
                prev: NIL,
                next: NIL,
                gen: 0,
                tag: 0,
            });
            self.items.push(Item::default());
            self.stamps.push(AtomicU32::new(NEVER));
            slot
        };
        Self::place(&mut self.index, self.mask, Bucket { slot, tag });
        self.items[slot as usize] = item;
        *self.stamps[slot as usize].get_mut() = NEVER;
        let m = &mut self.meta[slot as usize];
        m.gen = m.gen.wrapping_add(1);
        m.tag = tag;
        self.link_front(slot);
        self.len += 1;
        slot
    }

    /// Replaces a live item's value and deadline in place: the index entry
    /// and the key stay, the slot moves to the front and its generation
    /// advances, so records filed for the old value go stale. The stamp
    /// stays: it is the key's, and the key has not changed.
    pub(crate) fn overwrite_front(&mut self, slot: u32, value: Bytes, expires_at: Option<u64>) {
        self.touch(slot);
        let m = &mut self.meta[slot as usize];
        m.gen = m.gen.wrapping_add(2);
        let item = &mut self.items[slot as usize];
        item.value = value;
        item.expires_at = expires_at;
    }

    /// Moves a slot to the front (most recently used); panics if it is
    /// not live.
    pub(crate) fn touch(&mut self, slot: u32) {
        assert!(self.is_live(slot), "touch of dead slot {slot}");
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// [`touch`](Self::touch) only if the slot still holds the insertion
    /// with generation `gen`; returns whether it was applied.
    pub(crate) fn touch_if(&mut self, slot: u32, gen: u32) -> bool {
        let live = self.is_live_gen(slot, gen);
        if live {
            self.touch(slot);
        }
        live
    }

    /// Removes a slot — from the index by slot and stored tag — and
    /// returns its item; panics if it is not live.
    pub(crate) fn remove(&mut self, slot: u32) -> Item {
        assert!(self.is_live(slot), "remove of dead slot {slot}");
        let mut hole = self.meta[slot as usize].tag as usize & self.mask;
        while self.index[hole].slot != slot {
            assert!(self.index[hole].slot != NIL, "live slot {slot} not indexed");
            hole = (hole + 1) & self.mask;
        }
        // Backward shift: pull each follower whose home is at or before
        // the hole into it, until an empty bucket ends the cluster.
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let b = self.index[j];
            if b.slot == NIL {
                break;
            }
            let home = b.tag as usize & self.mask;
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.index[hole] = b;
                hole = j;
            }
        }
        self.index[hole] = EMPTY;
        self.unlink(slot);
        self.release(slot)
    }

    /// Drops every item, keeping the allocations. Every emptied slot's
    /// generation advances, so outstanding `(slot, gen)` records can never
    /// match an item stored after the clear.
    pub(crate) fn clear(&mut self) {
        let mut cur = self.head;
        while cur != NIL {
            let next = self.meta[cur as usize].next;
            self.release(cur);
            cur = next;
        }
        self.index.fill(EMPTY);
        self.head = NIL;
        self.tail = NIL;
    }

    /// Marks an unlinked, unindexed live slot free and takes its item.
    fn release(&mut self, slot: u32) -> Item {
        let m = &mut self.meta[slot as usize];
        m.gen = m.gen.wrapping_add(1);
        m.prev = NIL;
        m.next = self.free;
        self.free = slot;
        self.len -= 1;
        std::mem::take(&mut self.items[slot as usize])
    }

    fn unlink(&mut self, slot: u32) {
        let Meta { prev, next, .. } = self.meta[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.meta[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.meta[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, slot: u32) {
        let m = &mut self.meta[slot as usize];
        m.prev = NIL;
        m.next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.meta[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Files a bucket at the first empty position of its probe path.
    fn place(index: &mut [Bucket], mask: usize, b: Bucket) {
        let mut i = b.tag as usize & mask;
        while index[i].slot != NIL {
            i = (i + 1) & mask;
        }
        index[i] = b;
    }

    fn grow_index(&mut self) {
        let mut index = vec![EMPTY; self.index.len() * 2];
        self.mask = index.len() - 1;
        for &b in self.index.iter().filter(|b| b.slot != NIL) {
            Self::place(&mut index, self.mask, b);
        }
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    fn item(key: &[u8], value: &[u8]) -> Item {
        Item {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            expires_at: None,
        }
    }

    fn keys(a: &Arena) -> Vec<Vec<u8>> {
        a.iter().map(|i| i.key.to_vec()).collect()
    }

    #[test]
    fn insert_touch_evict_order() {
        let mut a = Arena::new();
        let sa = a.insert_front(1, item(b"a", b""));
        a.insert_front(2, item(b"b", b""));
        a.insert_front(3, item(b"c", b""));
        a.touch(sa); // c b a -> a c b
        assert_eq!(keys(&a), [b"a", b"c", b"b"]);
        for want in [b"b", b"c", b"a"] {
            let tail = a.tail().unwrap();
            assert_eq!(*a.remove(tail).key, *want);
        }
        assert!(a.tail().is_none() && a.len() == 0);
    }

    #[test]
    fn slots_are_reused_under_a_fresh_generation() {
        let mut a = Arena::new();
        let s = a.insert_front(7, item(b"old", b"1"));
        let gen = a.gen(s);
        assert!(a.is_live_gen(s, gen));
        a.remove(s);
        assert!(!a.is_live_gen(s, gen), "removal invalidates the generation");
        assert!(!a.is_live_gen(s, a.gen(s)), "a free slot matches nothing");
        let t = a.insert_front(9, item(b"new", b"2"));
        assert_eq!(s, t, "the freed slot is reused");
        assert_ne!(a.gen(t), gen);
        assert!(!a.touch_if(t, gen), "a stale touch is dropped");
        assert!(a.touch_if(t, a.gen(t)));
        assert!(a.find(7, b"old").is_none());
        assert_eq!(a.find(9, b"new"), Some(t));
    }

    #[test]
    fn overwrite_keeps_the_slot_and_invalidates_its_records() {
        let mut a = Arena::new();
        let s = a.insert_front(1, item(b"k", b"v1"));
        a.insert_front(2, item(b"other", b""));
        let gen = a.gen(s);
        a.overwrite_front(s, Bytes::from("v2"), Some(9));
        assert_eq!(a.find(1, b"k"), Some(s));
        assert_eq!(a.item(s).value, Bytes::from("v2"));
        assert_eq!(a.item(s).expires_at, Some(9));
        assert!(!a.is_live_gen(s, gen) && a.is_live_gen(s, a.gen(s)));
        assert_eq!(keys(&a), [b"k".to_vec(), b"other".to_vec()]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn clear_bumps_generations_and_keeps_the_slots() {
        let mut a = Arena::new();
        let s = a.insert_front(1, item(b"a", b""));
        let t = a.insert_front(2, item(b"b", b""));
        let (gs, gt) = (a.gen(s), a.gen(t));
        a.clear();
        assert!(a.len() == 0 && a.tail().is_none());
        assert!(!a.is_live_gen(s, gs) && !a.is_live_gen(t, gt));
        assert!(a.find(1, b"a").is_none());
        let u = a.insert_front(3, item(b"c", b""));
        assert!(u == s || u == t, "slots are reused after a clear");
        assert_eq!(a.meta.len(), 2);
        assert_eq!(keys(&a), [b"c"]);
    }

    #[test]
    #[should_panic(expected = "dead slot")]
    fn touch_of_a_dead_slot_panics() {
        let mut a = Arena::new();
        let s = a.insert_front(1, item(b"a", b""));
        a.remove(s);
        a.touch(s);
    }

    /// Everything the arena promises, checked against the model.
    fn check(
        a: &Arena,
        model: &HashMap<Vec<u8>, (u32, Vec<u8>)>,
        order: &VecDeque<Vec<u8>>,
        tag_of: impl Fn(&[u8]) -> u32,
    ) {
        prop_assert_eq!(a.len(), model.len());
        prop_assert_eq!(&keys(a), &Vec::from(order.clone()));
        // Every live slot is reachable by its key, with its value.
        for (key, (slot, value)) in model {
            prop_assert_eq!(a.find(tag_of(key), key), Some(*slot));
            prop_assert!(a.is_live(*slot));
            prop_assert_eq!(&a.item(*slot).value.to_vec(), value);
        }
        // The index holds the live slots and nothing else, and nothing
        // sits past an empty bucket on its probe path.
        let mut indexed = HashSet::new();
        for (j, b) in a.index.iter().enumerate().filter(|(_, b)| b.slot != NIL) {
            prop_assert!(a.is_live(b.slot) && indexed.insert(b.slot));
            prop_assert_eq!(b.tag, a.meta[b.slot as usize].tag);
            let mut i = b.tag as usize & a.mask;
            while i != j {
                prop_assert!(a.index[i].slot != NIL, "bucket {j} lies past a hole at {i}");
                i = (i + 1) & a.mask;
            }
        }
        prop_assert_eq!(indexed.len(), model.len());
        prop_assert!(a.index.len() * 7 >= a.len() * 10);
        // The free list holds exactly the dead slots.
        let mut free = 0;
        let mut cur = a.free;
        while cur != NIL {
            prop_assert!(!a.is_live(cur));
            free += 1;
            cur = a.meta[cur as usize].next;
        }
        prop_assert_eq!(free + a.len(), a.meta.len());
    }

    /// Random insert / overwrite / touch / stale `touch_if` / remove /
    /// pop-tail / clear / tick-stamped read against `HashMap` + `VecDeque`,
    /// from the 8-bucket index up, with tags as the caller's `tag_of`
    /// deals them. The model keeps each key's last-bump tick: a read bumps
    /// iff the tick differs, an insert forgets it, an overwrite keeps it.
    fn run_model(ops: &[(u8, u8)], tag_of: impl Fn(&[u8]) -> u32 + Copy) {
        let mut a = Arena::new();
        prop_assert!(a.index.len() <= 8);
        let mut model: HashMap<Vec<u8>, (u32, Vec<u8>)> = HashMap::new();
        let mut order: VecDeque<Vec<u8>> = VecDeque::new(); // front = MRU
        let mut held: HashSet<(u32, u32)> = HashSet::new();
        let mut stale: Vec<(u32, u32)> = Vec::new();
        let mut bumped_in: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut tick = 0u32;
        let to_front = |order: &mut VecDeque<Vec<u8>>, key: &Vec<u8>| {
            order.retain(|k| k != key);
            order.push_front(key.clone());
        };
        for (step, &(op, k)) in ops.iter().enumerate() {
            let key = format!("key-{k}").into_bytes();
            let value = vec![step as u8; step % 40];
            let known = model.get(&key).map(|(slot, _)| *slot);
            match (op % 10, known) {
                (0..=2, None) => {
                    let slot = a.insert_front(tag_of(&key), item(&key, &value));
                    prop_assert!(held.insert((slot, a.gen(slot))), "generation reused");
                    bumped_in.remove(&key);
                    model.insert(key.clone(), (slot, value));
                    order.push_front(key);
                }
                (0..=2, Some(slot)) => {
                    stale.push((slot, a.gen(slot)));
                    a.overwrite_front(slot, Bytes::from(value.clone()), None);
                    prop_assert!(held.insert((slot, a.gen(slot))), "generation reused");
                    model.insert(key.clone(), (slot, value));
                    to_front(&mut order, &key);
                }
                (3, Some(slot)) => {
                    a.touch(slot);
                    to_front(&mut order, &key);
                }
                (4, Some(slot)) => {
                    prop_assert!(a.touch_if(slot, a.gen(slot)));
                    to_front(&mut order, &key);
                }
                (5, Some(slot)) => {
                    stale.push((slot, a.gen(slot)));
                    prop_assert_eq!(a.remove(slot).key.to_vec(), key.clone());
                    model.remove(&key);
                    order.retain(|x| x != &key);
                }
                (6, _) => {
                    let want = order.pop_back();
                    let got = a.tail().map(|slot| {
                        stale.push((slot, a.gen(slot)));
                        a.remove(slot).key.to_vec()
                    });
                    prop_assert_eq!(&got, &want);
                    if let Some(key) = want {
                        model.remove(&key);
                    }
                }
                (8..=9, Some(slot)) => {
                    // Half the reads come after the clock moved on.
                    tick += (op as u32 % 10 - 8) * (k as u32 % 3);
                    let first = a.first_read_in(slot, tick);
                    prop_assert_eq!(first, bumped_in.insert(key.clone(), tick) != Some(tick));
                    if first {
                        a.touch(slot);
                        to_front(&mut order, &key);
                    }
                }
                (7, _) if k % 16 == 0 => {
                    stale.extend(model.values().map(|(slot, _)| (*slot, a.gen(*slot))));
                    a.clear();
                    model.clear();
                    order.clear();
                }
                _ => {
                    prop_assert_eq!(a.find(tag_of(&key), &key), known);
                }
            }
            // A record from before an overwrite, removal or clear of its
            // slot never applies again, whatever the slot holds now.
            for &(slot, gen) in &stale {
                prop_assert!(!a.is_live_gen(slot, gen) && !a.touch_if(slot, gen));
            }
            check(&a, &model, &order, tag_of);
        }
    }

    fn mixed_tag(key: &[u8]) -> u32 {
        key.iter().fold(0x811c_9dc5u32, |h, &b| {
            (h ^ b as u32).wrapping_mul(0x0100_0193)
        })
    }

    proptest! {
        /// `lru.rs`'s list model, on the arena: recency order under
        /// random push / touch / remove / pop-tail equals a `VecDeque`.
        #[test]
        fn matches_vecdeque_model(ops in proptest::collection::vec(0u8..4, 1..200)) {
            let mut a = Arena::new();
            let mut model: VecDeque<u64> = VecDeque::new(); // front = MRU
            let mut live: Vec<(u32, u64)> = Vec::new();
            let mut next_val = 0u64;
            let id = |i: &Item| u64::from_le_bytes((*i.key).try_into().unwrap());
            for op in ops {
                let pick = (next_val as usize) % live.len().max(1);
                match op {
                    0 => {
                        let slot = a.insert_front(next_val as u32, item(&next_val.to_le_bytes(), b""));
                        model.push_front(next_val);
                        live.push((slot, next_val));
                        next_val += 1;
                    }
                    1 if !live.is_empty() => {
                        let (slot, v) = live[pick];
                        a.touch(slot);
                        model.retain(|&x| x != v);
                        model.push_front(v);
                    }
                    2 if !live.is_empty() => {
                        let (slot, v) = live.remove(pick);
                        prop_assert_eq!(id(&a.remove(slot)), v);
                        model.retain(|&x| x != v);
                    }
                    3 => {
                        let got = a.tail().map(|slot| id(&a.remove(slot)));
                        let want = model.pop_back();
                        prop_assert_eq!(got, want);
                        live.retain(|&(_, x)| Some(x) != want);
                    }
                    _ => {}
                }
                prop_assert_eq!(a.len(), model.len());
                let order: Vec<u64> = a.iter().map(id).collect();
                prop_assert_eq!(order, Vec::from(model.clone()));
            }
        }

        #[test]
        fn matches_map_and_deque_model(
            ops in proptest::collection::vec((0u8..10, 0u8..48), 1..300)
        ) {
            run_model(&ops, mixed_tag);
        }

        /// Every key shares one of three tags whose homes are adjacent
        /// and wrap the 8-bucket index: the longest probe paths and the
        /// most backward shifts linear probing can produce.
        #[test]
        fn matches_the_model_with_colliding_tags(
            ops in proptest::collection::vec((0u8..10, 0u8..48), 1..300)
        ) {
            run_model(&ops, |key| [7, 8, 0x107][key.len() % 2 + (key[4] as usize & 1)]);
        }
    }
}
