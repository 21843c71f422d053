#![warn(missing_docs)]

//! Umbrella crate for the `spotcache` workspace.
//!
//! `spotcache` is a from-scratch Rust reproduction of *"Exploiting Spot and
//! Burstable Instances for Improving the Cost-efficacy of In-Memory Caches
//! on the Public Cloud"* (EuroSys 2017). It re-exports every subsystem crate
//! so examples and downstream users can depend on a single package:
//!
//! * [`cloud`] — EC2 substrate: catalog, pricing, spot markets, burstable
//!   token buckets, VM lifecycle, billing.
//! * [`spotmodel`] — spot lifetime/price predictors and their CDF baseline.
//! * [`cache`] — the memcached substrate (sharded LRU store).
//! * [`router`] — the mcrouter substrate (consistent hashing, hot/cold
//!   pools, the revocation-time degraded read plan); its `sketch` and
//!   `partitioner` have no request-path caller (ROADMAP item 9).
//! * [`workload`] — YCSB-style Zipfian and Wikipedia-shaped workloads.
//! * [`optimizer`] — the paper's online cost-minimizing procurement problem.
//! * [`sim`] — cluster simulation and recovery timelines.
//! * [`core`] — the global controller and the six procurement approaches.
//! * [`recovery`] — a replacement node's restore path: replication,
//!   checkpoints, and the Replay and Hybrid strategies.
//! * [`obs`] — metrics registry, structured event journal, and exporters.
//!
//! # Examples
//!
//! ```
//! use spotcache::cloud::{tracegen, Bid};
//! use spotcache::spotmodel::lifetime::LifetimeModel;
//!
//! let trace = &tracegen::paper_traces(30)[0];
//! let model = LifetimeModel::new(7 * spotcache::cloud::DAY, 0.05);
//! let pred = model.predict(trace, 10 * spotcache::cloud::DAY, Bid(trace.od_price));
//! assert!(pred.is_some());
//! ```

pub use spotcache_cache as cache;
pub use spotcache_cloud as cloud;
pub use spotcache_core as core;
pub use spotcache_obs as obs;
pub use spotcache_optimizer as optimizer;
pub use spotcache_recovery as recovery;
pub use spotcache_router as router;
pub use spotcache_sim as sim;
pub use spotcache_spotmodel as spotmodel;
pub use spotcache_workload as workload;
