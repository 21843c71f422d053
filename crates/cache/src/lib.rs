#![warn(missing_docs)]

//! The memcached substrate: a sharded, LRU-evicting, byte-accounted
//! in-memory key-value cache.
//!
//! The paper's system stores its cache contents in stock memcached; this
//! crate provides the equivalent building block in Rust:
//!
//! * `arena` (private) — the per-shard item arena: key index, LRU links
//!   and entries addressed by one `u32` slot with a per-slot generation
//!   (one `unsafe` block: the prefetch hint of the batched lookup), and
//! * `touch` (private) — the per-shard recency log of the shared-lock
//!   read path: pushed to under the shard's read lock, drained under its write
//!   lock, drop-oldest by overwrite, and
//! * `wheel` — a hierarchical timer wheel for proactive TTL expiry,
//!   advanced on the touch-flush cadence, and
//! * [`store`] — a sharded store whose steady-state GETs take only a
//!   **shared** lock (recency is recorded into a touch log and applied in
//!   batches under the write lock), with least-recently-used eviction
//!   under a byte budget, optional TTLs against a logical clock, and
//!   hit/miss/eviction statistics, and
//! * [`protocol`] — the memcached text protocol (parse / execute / encode)
//!   so a node can be driven with real wire traffic, and
//! * `reactor` — a raw-syscall epoll/eventfd readiness layer:
//!   `Poller` + `WakeFd`, no external deps (Linux system calls; the
//!   constructors return `Unsupported` elsewhere), and
//! * [`server`] — a TCP server multiplexing nonblocking connections over
//!   the protocol codec on a readiness-driven reactor (idle connections
//!   cost zero CPU); Linux-only, and
//! * [`replication`] — a hot-key mutation tap + bounded queue + TCP
//!   shipper keeping a passive backup warm (paper §3.3; see
//!   DESIGN.md §"Revocation drills").
//!
//! The data plane is built for pipelined batches: [`protocol::parse_request`]
//! borrows keys and data from the input buffer, [`protocol::serve_into`]
//! appends responses to a reusable output buffer, and runs of pipelined
//! `get`s execute through [`store::Store::get_many_with`]: one in-order
//! pass under the read locks of every shard the batch names, its lookups
//! prefetched in groups, each hit serialised straight into the reply (see
//! DESIGN.md §"data plane").

mod arena;
pub mod protocol;
mod reactor;
pub mod replication;
pub mod server;
pub mod slab;
pub mod store;
mod touch;
mod wheel;

pub use protocol::serve;
pub use store::{Store, StoreConfig};
