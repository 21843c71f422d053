//! Inputs: keys, self-describing values, and the request bytes of every
//! workload, all generated before the timed phase from the run's seed.
//!
//! A value encodes the key it belongs to, the version of the `set` that
//! wrote it and its own length, followed by filler derived from those, so
//! the load generator can tell a correct reply from a corrupt, mis-framed
//! or misrouted one by looking at the bytes alone, and can tell *which*
//! write a `get` observed.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spotcache_cache::protocol::encode_value;
use spotcache_cache::store::Store;
use spotcache_workload::facebook::{FacebookPool, FacebookWorkload};
use spotcache_workload::zipf::{ScrambledZipfian, Zipfian};

/// Bytes in every key: one prefix letter and seven digits.
pub const KEY_LEN: usize = 8;
/// Bytes of value header (key, version, length) before the filler.
pub const VALUE_HEADER: usize = 16;

/// How key indexes map to key names. Indexes below `hot` carry
/// `hot_prefix`, the rest `cold_prefix`; the replication tap of the
/// `revocation` workload ships only the `h` keys.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    /// Number of key indexes.
    pub n: u32,
    /// Indexes `< hot` are named with `hot_prefix`.
    pub hot: u32,
    /// Prefix of the first `hot` keys.
    pub hot_prefix: u8,
    /// Prefix of the remaining keys.
    pub cold_prefix: u8,
}

impl KeySpace {
    /// `n` keys all named `k…`.
    pub fn uniform(n: u32) -> Self {
        Self {
            n,
            hot: n,
            hot_prefix: b'k',
            cold_prefix: b'k',
        }
    }

    /// `hot` keys named `h…` followed by `cold` keys named `c…`.
    pub fn hot_cold(hot: u32, cold: u32) -> Self {
        Self {
            n: hot + cold,
            hot,
            hot_prefix: b'h',
            cold_prefix: b'c',
        }
    }

    /// Whether `idx` is one of the replicated (hot) keys.
    pub fn is_hot(&self, idx: u32) -> bool {
        idx < self.hot
    }

    /// The name of key `idx`.
    pub fn key(&self, idx: u32) -> [u8; KEY_LEN] {
        let (prefix, mut id) = if idx < self.hot {
            (self.hot_prefix, idx)
        } else {
            (self.cold_prefix, idx - self.hot)
        };
        let mut k = [b'0'; KEY_LEN];
        k[0] = prefix;
        for slot in k[1..].iter_mut().rev() {
            *slot = b'0' + (id % 10) as u8;
            id /= 10;
        }
        k
    }

    /// The index a key name denotes, if it is one of this space's names.
    pub fn index(&self, key: &[u8]) -> Option<u32> {
        if key.len() != KEY_LEN {
            return None;
        }
        let mut id = 0u32;
        for &b in &key[1..] {
            if !b.is_ascii_digit() {
                return None;
            }
            id = id * 10 + u32::from(b - b'0');
        }
        let idx = if key[0] == self.hot_prefix && id < self.hot {
            id
        } else if key[0] == self.cold_prefix {
            id.checked_add(self.hot)?
        } else {
            return None;
        };
        (idx < self.n).then_some(idx)
    }
}

fn filler_word(key: u32, version: u32) -> [u8; 8] {
    // splitmix64 finaliser over (key, version).
    let mut z = (u64::from(version) << 32 | u64::from(key)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).to_le_bytes()
}

/// Appends the `len`-byte value of `(key, version)` (`len >= VALUE_HEADER`).
pub fn fill_value(out: &mut Vec<u8>, key: u32, version: u32, len: usize) {
    debug_assert!(len >= VALUE_HEADER);
    out.extend_from_slice(&u64::from(key).to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let word = filler_word(key, version);
    let body = len - VALUE_HEADER;
    for _ in 0..body / 8 {
        out.extend_from_slice(&word);
    }
    out.extend_from_slice(&word[..body % 8]);
}

/// Checks that `data` is a whole, uncorrupted value of `key` and returns
/// the version of the write that produced it.
pub fn check_value(data: &[u8], key: u32) -> Option<u32> {
    if data.len() < VALUE_HEADER {
        return None;
    }
    let k = u64::from_le_bytes(data[0..8].try_into().ok()?);
    let version = u32::from_le_bytes(data[8..12].try_into().ok()?);
    let len = u32::from_le_bytes(data[12..16].try_into().ok()?);
    if k != u64::from(key) || len as usize != data.len() {
        return None;
    }
    let word = filler_word(key, version);
    let mut chunks = data[VALUE_HEADER..].chunks_exact(8);
    if !chunks.by_ref().all(|c| c == word) {
        return None;
    }
    let rest = chunks.remainder();
    (rest == &word[..rest.len()]).then_some(version)
}

/// Value sizes of a workload.
#[derive(Debug, Clone, Copy)]
pub enum ValueSizes {
    /// Every value has this many bytes.
    Fixed(usize),
    /// Sizes drawn from the Facebook ETC pool of `spotcache_workload`,
    /// clamped to `[min, max]`.
    Etc {
        /// Smallest value.
        min: usize,
        /// Largest value.
        max: usize,
    },
}

/// Draws value sizes for one workload.
pub struct SizeSampler {
    sizes: ValueSizes,
    etc: FacebookWorkload,
}

impl SizeSampler {
    /// A sampler for `sizes`.
    pub fn new(sizes: ValueSizes) -> Self {
        Self {
            sizes,
            etc: FacebookWorkload::new(FacebookPool::Etc, 1_000),
        }
    }

    /// The next value size.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match self.sizes {
            ValueSizes::Fixed(n) => n,
            ValueSizes::Etc { min, max } => self.etc.next_request(rng).value_size.clamp(min, max),
        }
    }
}

/// Key popularity of a workload.
pub enum KeySampler {
    /// YCSB scrambled Zipfian: popular keys spread over the index range.
    Scrambled(ScrambledZipfian),
    /// Plain Zipfian: index = popularity rank, so the low indexes (the
    /// `h` keys of a hot/cold space) are the popular ones.
    Ranked(Zipfian),
}

impl KeySampler {
    /// Draws a key index.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        match self {
            KeySampler::Scrambled(z) => z.sample(rng) as u32,
            KeySampler::Ranked(z) => z.sample(rng) as u32,
        }
    }

    /// The key at popularity rank `rank` (0 = hottest).
    pub fn key_for_rank(&self, rank: u32) -> u32 {
        match self {
            KeySampler::Scrambled(z) => z.key_for_rank(u64::from(rank)) as u32,
            KeySampler::Ranked(_) => rank,
        }
    }
}

/// The traffic mix of one workload.
pub struct MixSpec {
    /// Key names.
    pub keys: KeySpace,
    /// Key popularity.
    pub sampler: KeySampler,
    /// Share of commands that are `get`.
    pub get_frac: f64,
    /// Commands per write.
    pub per_batch: usize,
    /// Value sizes of `set`s (and of the prefill).
    pub sizes: ValueSizes,
    /// Share of `set`s that carry a TTL.
    pub ttl_frac: f64,
    /// Inclusive TTL range, logical seconds.
    pub ttl_secs: (u16, u16),
}

/// One generated command.
#[derive(Debug, Clone, Copy)]
pub struct Cmd {
    /// Key index.
    pub key: u32,
    /// Version written (`set`) — unused for `get`.
    pub version: u32,
    /// Offset of the command's bytes in [`Pool::bytes`].
    pub off: u32,
    /// Length of the command's bytes.
    pub len: u32,
    /// Relative TTL of a `set`, 0 = none.
    pub ttl: u16,
    /// `set` (true) or `get` (false).
    pub is_set: bool,
}

/// One write's worth of commands.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// First command (index into [`Pool::cmds`]).
    pub cmd_start: u32,
    /// One past the last command.
    pub cmd_end: u32,
    /// Offset of the batch's bytes.
    pub off: u32,
    /// Length of the batch's bytes.
    pub len: u32,
}

/// The pre-generated request stream of one connection. The load generator
/// walks the batches in order and wraps around.
#[derive(Debug, Default)]
pub struct Pool {
    /// Wire bytes of every batch, back to back.
    pub bytes: Vec<u8>,
    /// Every command, in stream order.
    pub cmds: Vec<Cmd>,
    /// Batch boundaries.
    pub batches: Vec<Batch>,
}

impl Pool {
    /// Wire bytes of batch `i`.
    pub fn batch_bytes(&self, i: usize) -> &[u8] {
        let b = &self.batches[i];
        &self.bytes[b.off as usize..(b.off + b.len) as usize]
    }

    /// Commands of batch `i`.
    pub fn batch_cmds(&self, i: usize) -> &[Cmd] {
        let b = &self.batches[i];
        &self.cmds[b.cmd_start as usize..b.cmd_end as usize]
    }

    /// Wire bytes of one command.
    pub fn cmd_bytes(&self, c: &Cmd) -> &[u8] {
        &self.bytes[c.off as usize..(c.off + c.len) as usize]
    }
}

fn push_decimal(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(v.to_string().as_bytes());
}

/// Appends `get <key>\r\n`.
pub fn push_get(out: &mut Vec<u8>, key: &[u8]) {
    out.extend_from_slice(b"get ");
    out.extend_from_slice(key);
    out.extend_from_slice(b"\r\n");
}

/// Appends `set <key> 0 <ttl> <len>\r\n<value>\r\n`.
pub fn push_set(out: &mut Vec<u8>, keys: &KeySpace, key: u32, version: u32, ttl: u16, len: usize) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(&keys.key(key));
    out.extend_from_slice(b" 0 ");
    push_decimal(out, usize::from(ttl));
    out.push(b' ');
    push_decimal(out, len);
    out.extend_from_slice(b"\r\n");
    fill_value(out, key, version, len);
    out.extend_from_slice(b"\r\n");
}

/// Generates the request streams of `conns` connections, `batches` batches
/// each. Keys are partitioned between connections by index, so every key
/// is read and written on one connection only and each `get` can be
/// checked against exactly the last `set` acknowledged before it.
pub fn build_pools(spec: &MixSpec, seed: u64, conns: usize, batches: usize) -> Vec<Pool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = SizeSampler::new(spec.sizes);
    let mut pools: Vec<Pool> = (0..conns).map(|_| Pool::default()).collect();
    let mut open: Vec<(u32, u32)> = vec![(0, 0); conns]; // (cmd_start, byte_off) of the open batch
    let mut versions = vec![0u32; spec.keys.n as usize];
    let mut unfinished = conns;
    while unfinished > 0 {
        let key = spec.sampler.sample(&mut rng);
        let is_get = rng.gen::<f64>() < spec.get_frac;
        let conn = key as usize % conns;
        let pool = &mut pools[conn];
        // Draw before the fullness check so the stream consumed from the
        // generator does not depend on which connection filled up first.
        let (len, ttl) = if is_get {
            (0, 0)
        } else {
            let len = sizes.sample(&mut rng).max(VALUE_HEADER);
            let ttl = if rng.gen::<f64>() < spec.ttl_frac {
                rng.gen_range(spec.ttl_secs.0..=spec.ttl_secs.1)
            } else {
                0
            };
            (len, ttl)
        };
        if pool.batches.len() == batches {
            continue;
        }
        let off = pool.bytes.len() as u32;
        let version = if is_get {
            push_get(&mut pool.bytes, &spec.keys.key(key));
            0
        } else {
            versions[key as usize] += 1;
            let v = versions[key as usize];
            push_set(&mut pool.bytes, &spec.keys, key, v, ttl, len);
            v
        };
        pool.cmds.push(Cmd {
            key,
            version,
            off,
            len: pool.bytes.len() as u32 - off,
            ttl,
            is_set: !is_get,
        });
        let (cmd_start, byte_off) = open[conn];
        if pool.cmds.len() as u32 - cmd_start == spec.per_batch as u32 {
            pool.batches.push(Batch {
                cmd_start,
                cmd_end: pool.cmds.len() as u32,
                off: byte_off,
                len: pool.bytes.len() as u32 - byte_off,
            });
            open[conn] = (pool.cmds.len() as u32, pool.bytes.len() as u32);
            if pool.batches.len() == batches {
                unfinished -= 1;
            }
        }
    }
    pools
}

/// What a prefill stored, for the space-amplification figure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prefill {
    /// Distinct keys written.
    pub keys: u64,
    /// Key plus value bytes handed to the store (flag prefix included).
    pub payload_bytes: u64,
}

/// Writes version 0 of every key the sampler can produce straight into
/// `store`, coldest rank first, so that when the key space exceeds the
/// store the popular keys are the ones left resident and the LRU order
/// already resembles steady state. Returns what was written and, per key,
/// the length of its value.
pub fn prefill(store: &Store, spec: &MixSpec, seed: u64, now: u64) -> Prefill {
    prefill_where(store, spec, seed, now, |_| true)
}

/// [`prefill`] restricted to the keys `keep` accepts (the backup of the
/// `revocation` workload holds the hot keys only). The value of a key does
/// not depend on the filter.
pub fn prefill_where(
    store: &Store,
    spec: &MixSpec,
    seed: u64,
    now: u64,
    keep: impl Fn(u32) -> bool,
) -> Prefill {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_7265_6669_6c6c);
    let sizes = SizeSampler::new(spec.sizes);
    let mut seen = vec![false; spec.keys.n as usize];
    let mut done = Prefill::default();
    let mut chunk: Vec<(Bytes, Bytes, Option<u64>)> = Vec::with_capacity(512);
    let mut value = Vec::new();
    for rank in (0..spec.keys.n).rev() {
        let key = spec.sampler.key_for_rank(rank);
        let len = sizes.sample(&mut rng).max(VALUE_HEADER);
        if !keep(key) {
            continue;
        }
        value.clear();
        fill_value(&mut value, key, 0, len);
        let raw = encode_value(0, &value);
        if !std::mem::replace(&mut seen[key as usize], true) {
            done.keys += 1;
        }
        done.payload_bytes += (KEY_LEN + raw.len()) as u64;
        chunk.push((
            Bytes::copy_from_slice(&spec.keys.key(key)),
            Bytes::from(raw),
            None,
        ));
        if chunk.len() == 512 {
            store.set_many_at(std::mem::take(&mut chunk), now);
            chunk.reserve(512);
        }
    }
    if !chunk.is_empty() {
        store.set_many_at(chunk, now);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_in_both_halves() {
        let ks = KeySpace::hot_cold(500, 300);
        assert_eq!(&ks.key(0), b"h0000000");
        assert_eq!(&ks.key(499), b"h0000499");
        assert_eq!(&ks.key(500), b"c0000000");
        for idx in [0, 1, 499, 500, 799] {
            assert_eq!(ks.index(&ks.key(idx)), Some(idx));
        }
        assert_eq!(ks.index(b"h0000500"), None);
        assert_eq!(ks.index(b"c0000300"), None);
        assert_eq!(ks.index(b"x0000001"), None);
        assert_eq!(ks.index(b"h00001"), None);
        let u = KeySpace::uniform(10);
        assert_eq!(u.index(&u.key(9)), Some(9));
        assert_eq!(u.index(b"k0000010"), None);
    }

    #[test]
    fn values_verify_and_reject_corruption() {
        for len in [16, 17, 23, 24, 100, 8192] {
            let mut v = Vec::new();
            fill_value(&mut v, 77, 9, len);
            assert_eq!(v.len(), len);
            assert_eq!(check_value(&v, 77), Some(9));
            assert_eq!(check_value(&v, 78), None, "wrong key");
            assert_eq!(check_value(&v[..len - 1], 77), None, "truncated");
            if len > VALUE_HEADER {
                let mut bad = v.clone();
                *bad.last_mut().unwrap() ^= 1;
                assert_eq!(check_value(&bad, 77), None, "flipped filler bit");
            }
        }
    }

    fn spec() -> MixSpec {
        MixSpec {
            keys: KeySpace::uniform(1_000),
            sampler: KeySampler::Scrambled(ScrambledZipfian::new(1_000, 0.99)),
            get_frac: 0.9,
            per_batch: 8,
            sizes: ValueSizes::Fixed(100),
            ttl_frac: 0.0,
            ttl_secs: (1, 1),
        }
    }

    #[test]
    fn pools_are_seed_deterministic_and_key_partitioned() {
        let a = build_pools(&spec(), 42, 2, 50);
        let b = build_pools(&spec(), 42, 2, 50);
        let c = build_pools(&spec(), 43, 2, 50);
        assert_eq!(a[0].bytes, b[0].bytes);
        assert_eq!(a[1].bytes, b[1].bytes);
        assert_ne!(a[0].bytes, c[0].bytes);
        for (conn, pool) in a.iter().enumerate() {
            assert_eq!(pool.batches.len(), 50);
            assert_eq!(pool.cmds.len(), 400);
            assert!(pool.cmds.iter().all(|c| c.key as usize % 2 == conn));
            let total: usize = (0..50).map(|i| pool.batch_bytes(i).len()).sum();
            assert_eq!(total, pool.bytes.len());
        }
    }

    #[test]
    fn generated_bytes_parse_as_the_described_commands() {
        use spotcache_cache::protocol::{parse_request, Request};
        let s = spec();
        let pools = build_pools(&s, 7, 1, 20);
        let pool = &pools[0];
        for c in &pool.cmds {
            let (req, used) = parse_request(pool.cmd_bytes(c)).expect("parses");
            assert_eq!(used, c.len as usize);
            match req {
                Request::Get { keys } => {
                    assert!(!c.is_set);
                    assert_eq!(s.keys.index(keys.trim_ascii()), Some(c.key));
                }
                Request::Store { key, data, .. } => {
                    assert!(c.is_set);
                    assert_eq!(s.keys.index(key), Some(c.key));
                    assert_eq!(check_value(data, c.key), Some(c.version));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn prefill_leaves_every_reachable_key_readable() {
        let s = spec();
        let store = Store::with_capacity(8 << 20);
        let done = prefill(&store, &s, 1, 0);
        assert_eq!(done.keys as usize, store.len());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let k = s.sampler.sample(&mut rng);
            let raw = store.get(&s.keys.key(k)).expect("prefilled");
            assert_eq!(check_value(&raw[4..], k), Some(0));
        }
    }
}
