//! The request record every generator draws.
//!
//! The paper's reference workload, Facebook USR, is 99.8% reads; the
//! prototype experiments use 100% reads with 4 KB items.

/// One cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Key, as a stable 64-bit identifier.
    pub(crate) key: u64,
    /// Whether this is a read (`get`) as opposed to a write (`set`).
    pub(crate) is_read: bool,
    /// Value size in bytes (relevant for writes and for warm-up volume).
    pub value_size: usize,
}
