//! Criterion micro-benchmarks over the core data structures: the routing
//! fabric (consistent hashing, sketches), the cache substrate (LRU store),
//! workload generation (Zipfian sampling), the spot models, the planner's
//! kernels and the metrics path — the per-request-scale and per-slot-scale
//! building blocks of the system.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use spotcache_bench::controller_problem;
use spotcache_cache::protocol::serve;
use spotcache_cache::slab::SlabAllocator;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_cloud::burstable::BurstableCpu;
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::spot::Bid;
use spotcache_cloud::tracegen::{paper_markets, paper_traces, TraceGenerator};
use spotcache_cloud::SpotTrace;
use spotcache_recovery::checkpoint::{
    crc32, restore_checkpoint, write_checkpoint, CheckpointConfig,
};
use spotcache_router::hashring::HashRing;
use spotcache_router::levels::MultiLevelPartitioner;
use spotcache_router::partitioner::KeyPartitioner;
use spotcache_router::sketch::{BloomFilter, CountMinSketch};
use spotcache_sim::LatencyHistogram;
use spotcache_spotmodel::{LifetimeModel, SpotPredictor, TemporalPredictor};
use spotcache_workload::zipf::{PopularityModel, ScrambledZipfian};

fn bench_hashring(c: &mut Criterion) {
    let mut g = c.benchmark_group("hashring");
    let weights: Vec<(u64, f64)> = (0..64).map(|n| (n, 1.0 + (n % 4) as f64)).collect();
    g.bench_function("build_64_nodes", |b| {
        b.iter(|| HashRing::build(black_box(&weights)))
    });
    let ring = HashRing::build(&weights);
    g.throughput(Throughput::Elements(1));
    g.bench_function("lookup", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            ring.lookup(black_box(&i.to_be_bytes()))
        })
    });
    g.bench_function("lookup_n3", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            ring.lookup_n(black_box(&i.to_be_bytes()), 3)
        })
    });
    g.finish();
}

fn bench_sketches(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.throughput(Throughput::Elements(1));
    let mut cms = CountMinSketch::for_keys(100_000);
    g.bench_function("count_min_observe", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cms.observe(black_box(&i.to_be_bytes()));
        })
    });
    g.bench_function("count_min_estimate", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cms.estimate(black_box(&i.to_be_bytes()))
        })
    });
    let mut bloom = BloomFilter::for_keys(100_000);
    g.bench_function("bloom_insert", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bloom.insert(black_box(&i.to_be_bytes()));
        })
    });
    g.bench_function("bloom_contains", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bloom.contains(black_box(&i.to_be_bytes()))
        })
    });
    let mut part = KeyPartitioner::new(100_000, 16);
    g.bench_function("partitioner_observe_and_classify", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let k = (i % 1000).to_be_bytes();
            part.observe(black_box(&k));
            part.pool(&k)
        })
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.throughput(Throughput::Elements(1));
    let store = Store::new(StoreConfig {
        capacity_bytes: 256 << 20,
        shards: 8,
    });
    for i in 0..100_000u64 {
        store.set(i.to_be_bytes().to_vec(), vec![0u8; 100]);
    }
    g.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            store.get(black_box(&i.to_be_bytes()))
        })
    });
    g.bench_function("get_miss", |b| {
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            store.get(black_box(&i.to_be_bytes()))
        })
    });
    g.bench_function("set_overwrite", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            store.set(i.to_be_bytes().to_vec(), vec![0u8; 100]);
        })
    });
    // Eviction-heavy path: a store that is always full.
    let small = Store::new(StoreConfig {
        capacity_bytes: 1 << 20,
        shards: 4,
    });
    g.bench_function("set_with_eviction", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            small.set(i.to_be_bytes().to_vec(), vec![0u8; 1000]);
        })
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.throughput(Throughput::Elements(1));
    let zipf = ScrambledZipfian::new(10_000_000, 0.99);
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("scrambled_zipfian_sample", |b| {
        b.iter(|| zipf.sample(black_box(&mut rng)))
    });
    g.bench_function("popularity_model_build_15m_items", |b| {
        b.iter(|| PopularityModel::new(black_box(15_000_000), 1.2))
    });
    let model = PopularityModel::new(15_000_000, 1.2);
    g.bench_function("hot_fraction_query", |b| {
        b.iter(|| model.hot_fraction(black_box(0.9)))
    });
    g.finish();
}

fn bench_spotmodel(c: &mut Criterion) {
    let mut g = c.benchmark_group("spotmodel");
    let trace = TraceGenerator::generate(&paper_markets()[0], 90);
    let bid = Bid(trace.od_price);
    let model = LifetimeModel::new(7 * spotcache_cloud::DAY, 0.05);
    g.bench_function("lifetime_predict_7day_window", |b| {
        b.iter(|| model.predict(black_box(&trace), 60 * spotcache_cloud::DAY, bid))
    });
    let full = TemporalPredictor::paper_default();
    g.bench_function("temporal_predict_full", |b| {
        b.iter(|| full.predict(black_box(&trace), 60 * spotcache_cloud::DAY, bid))
    });
    g.bench_function("trace_generate_90_days", |b| {
        b.iter(|| TraceGenerator::generate(black_box(&paper_markets()[0]), 90))
    });
    g.finish();
}

/// The kernels one `GlobalController::plan` spends its time in, on the
/// benchmark's `plan_90d` demand (500 k ops/s, 100 GiB, Zipf 0.99) and the
/// controller's own 15 offers. The fourth kernel, `TemporalPredictor::
/// predict` over its 7-day window, is `spotmodel/temporal_predict_full`.
fn bench_optimizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer");
    let traces = paper_traces(30);
    let refs: Vec<&SpotTrace> = traces.iter().collect();
    let problem = controller_problem(&refs, 10 * spotcache_cloud::DAY, 500_000.0, 100.0, 0.99);
    assert_eq!(problem.offers.len(), 15);
    let relaxation = problem.relaxation();
    g.bench_function("lp_solve_15_offer_relaxation", |b| {
        b.iter(|| black_box(&relaxation).solve())
    });
    g.bench_function("procurement_solve_15_offers", |b| {
        b.iter(|| black_box(&problem).solve())
    });
    let model = PopularityModel::new(26_000_000, 0.99);
    g.bench_function("hot_fraction_26m_items", |b| {
        b.iter(|| model.hot_fraction(black_box(0.9)))
    });
    g.finish();
}

fn bench_protocol_and_slab(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.throughput(Throughput::Elements(1));
    let store = Store::new(StoreConfig {
        capacity_bytes: 64 << 20,
        shards: 4,
    });
    let set_req = b"set benchkey 0 0 100\r\n";
    let mut full_set = set_req.to_vec();
    full_set.extend_from_slice(&[b'x'; 100]);
    full_set.extend_from_slice(b"\r\n");
    g.bench_function("serve_set", |b| {
        b.iter(|| serve(&store, black_box(&full_set), 0))
    });
    g.bench_function("serve_get_hit", |b| {
        b.iter(|| serve(&store, black_box(b"get benchkey\r\n"), 0))
    });
    let mut slab = SlabAllocator::new(256 << 20);
    g.bench_function("slab_allocate", |b| {
        b.iter(|| {
            if slab.allocate(black_box(4_152)).is_err() {
                slab = SlabAllocator::new(256 << 20);
            }
        })
    });
    let mut ml = MultiLevelPartitioner::new(100_000, vec![1_000, 50]);
    g.bench_function("multilevel_observe_classify", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let k = (i % 2_000).to_be_bytes();
            ml.observe(black_box(&k));
            ml.level(&k)
        })
    });
    g.finish();
}

fn bench_metrics_and_buckets(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(1));
    let mut hist = LatencyHistogram::new();
    g.bench_function("histogram_record", |b| {
        let mut x = 100.0f64;
        b.iter(|| {
            x = (x * 1.01).min(1e6);
            hist.record(black_box(x));
        })
    });
    for i in 0..100_000 {
        hist.record((i % 10_000) as f64);
    }
    g.bench_function("histogram_p95", |b| {
        b.iter(|| hist.quantile(black_box(0.95)))
    });
    let spec = find_type("t2.medium").unwrap().burst.unwrap();
    let mut cpu = BurstableCpu::new(&spec);
    g.bench_function("token_bucket_consume", |b| {
        b.iter(|| cpu.run(black_box(1.5), 1.0))
    });
    g.finish();
}

/// The checkpoint data path at the `revocation` workload's size: 300 k
/// items of an 8-byte key and a 104-byte value (100 B and the protocol's
/// flag prefix) over 8 shards, a 39 MB stream.
fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    let mib = vec![0xA5u8; 1 << 20];
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("crc32_1mib", |b| b.iter(|| crc32(black_box(&mib))));

    let config = StoreConfig {
        capacity_bytes: 256 << 20,
        shards: 8,
    };
    let source = Store::new(config);
    for i in 0..300_000u64 {
        source.set(i.to_be_bytes().to_vec(), vec![i as u8; 104]);
    }
    let mut stream = Vec::new();
    write_checkpoint(&source, 0, &mut stream, None, None).expect("cut");
    g.throughput(Throughput::Bytes(stream.len() as u64));
    g.bench_function("ckpt_cut_300k", |b| {
        b.iter(|| {
            stream.clear();
            write_checkpoint(&source, 0, &mut stream, None, None).expect("cut")
        })
    });
    g.throughput(Throughput::Elements(300_000));
    g.bench_function("ckpt_load_300k", |b| {
        // A load takes far longer than the harness's 5 ms sample floor, so
        // every sample is one iteration into this empty target; building
        // and dropping the target stay outside the timed region.
        let target = Store::new(config);
        b.iter(|| {
            restore_checkpoint(
                &mut stream.as_slice(),
                &target,
                0,
                &CheckpointConfig::default(),
                None,
                None,
            )
            .expect("load")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hashring,
    bench_sketches,
    bench_store,
    bench_workload,
    bench_spotmodel,
    bench_optimizer,
    bench_protocol_and_slab,
    bench_metrics_and_buckets,
    bench_recovery
);
criterion_main!(benches);
