//! Offline stand-in for the `bytes` crate (API subset).
//!
//! [`Bytes`] here is an immutable byte buffer with a small-buffer
//! optimization: payloads up to [`INLINE_CAP`] bytes live inline in the
//! struct (clone = a 24-byte memcpy, no allocation, no refcount), larger
//! ones are backed by `Arc<[u8]>`. Cheap clones, usable as a `HashMap`
//! key, `Deref`s to `[u8]`. The real crate's zero-copy slicing/vtable
//! machinery is not reproduced — no call site in the workspace needs it.
//!
//! The inline representation is a measured hot-path win, not a
//! micro-nicety: an `Arc` clone/drop pair is two *locked* RMWs on the
//! allocation's refcount word — on x86 each is a full memory barrier, and
//! the word sits on a cold cache line when values are scattered across a
//! big cache. A GET that clones the stored value out of the map paid that
//! serialization on every hit; short keys paid a dependent heap hop on
//! every map-probe equality check. Both vanish for small payloads.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Largest payload stored inline. Chosen so the enum stays 24 bytes
/// (16-byte `Arc<[u8]>` fat pointer + tag, rounded to alignment): typical
/// cache keys and small values fit, big values keep shared-refcount
/// clones.
pub const INLINE_CAP: usize = 22;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<[u8]>),
}

/// A cheaply clonable, immutable chunk of bytes.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self(Repr::Inline {
            len: 0,
            buf: [0; INLINE_CAP],
        })
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..data.len()].copy_from_slice(data);
            Self(Repr::Inline {
                len: data.len() as u8,
                buf,
            })
        } else {
            Self(Repr::Shared(Arc::from(data)))
        }
    }

    /// Copies `head` followed by `tail` into a fresh buffer: inline when
    /// the two fit [`INLINE_CAP`], otherwise **one** allocation filled by
    /// one copy of each part, each byte written once (not in the real
    /// crate, which would build this through a `BytesMut`).
    pub fn from_parts(head: &[u8], tail: &[u8]) -> Self {
        let len = head.len() + tail.len();
        if len <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..head.len()].copy_from_slice(head);
            buf[head.len()..len].copy_from_slice(tail);
            Self(Repr::Inline {
                len: len as u8,
                buf,
            })
        } else {
            // `get_mut` cannot fail on an `Arc` nobody else has seen.
            let mut shared = Arc::<[u8]>::new_uninit_slice(len);
            let buf = Arc::get_mut(&mut shared).expect("fresh Arc is unique");
            buf[..head.len()].write_copy_of_slice(head);
            buf[head.len()..].write_copy_of_slice(tail);
            // SAFETY: the two copies above wrote all `len` bytes.
            Self(Repr::Shared(unsafe { shared.assume_init() }))
        }
    }

    /// Wraps a static byte slice (copied here, unlike the real crate —
    /// semantics are identical, only the allocation differs).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(a) => a,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with <[u8] as Hash> for Borrow-based HashMap lookups.
        <[u8] as Hash>::hash(self.as_slice(), state)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        &self[..] == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.len() <= INLINE_CAP {
            Self::copy_from_slice(&v)
        } else {
            Self(Repr::Shared(Arc::from(v.into_boxed_slice())))
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Self::from(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hashmap_borrow_lookup() {
        let mut m: HashMap<Bytes, u32> = HashMap::new();
        m.insert(Bytes::from("alpha"), 1);
        assert_eq!(m.get(b"alpha".as_ref()), Some(&1));
        assert_eq!(m.get(b"beta".as_ref()), None);
    }

    #[test]
    fn conversions_and_eq() {
        let b = Bytes::copy_from_slice(b"xyz");
        assert_eq!(b, Bytes::from("xyz"));
        assert_eq!(b.to_vec(), b"xyz".to_vec());
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(format!("{:?}", Bytes::from("a\n")), "b\"a\\n\"");
    }

    #[test]
    fn from_parts_concatenates_on_both_sides_of_the_inline_cap() {
        let bytes: Vec<u8> = (1..=80).collect();
        for h in 0..=40 {
            for t in 0..=40 {
                let (head, tail) = (&bytes[..h], &bytes[40..40 + t]);
                let want = [head, tail].concat();
                let got = Bytes::from_parts(head, tail);
                assert_eq!(got, want, "{h}+{t}");
                assert_eq!(got, Bytes::copy_from_slice(&want));
            }
        }
    }
}
