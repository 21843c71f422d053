//! Replicated-balancer consistency: multiple load-balancer replicas fed
//! through the epoch ledger (paper footnote 5) must converge to identical
//! routing, and stale replicas must never route to nodes the newest plan
//! dropped once they catch up.

use spotcache::router::balancer::{LoadBalancer, NodeWeights};
use spotcache::router::epoch::WeightLedger;
use spotcache::router::prefix::Pool;

fn weights_a() -> Vec<NodeWeights> {
    vec![
        NodeWeights {
            node: 1,
            hot: 0.5,
            cold: 0.2,
            is_spot: false,
        },
        NodeWeights {
            node: 2,
            hot: 0.5,
            cold: 0.8,
            is_spot: true,
        },
    ]
}

fn weights_b() -> Vec<NodeWeights> {
    vec![
        NodeWeights {
            node: 1,
            hot: 0.3,
            cold: 0.3,
            is_spot: false,
        },
        NodeWeights {
            node: 3,
            hot: 0.7,
            cold: 0.7,
            is_spot: true,
        },
    ]
}

#[test]
fn replicas_converge_to_identical_routing() {
    let ledger = WeightLedger::new();
    let mut sub1 = ledger.subscribe();
    let mut sub2 = ledger.subscribe();
    let mut lb1 = LoadBalancer::new();
    let mut lb2 = LoadBalancer::new();

    ledger.publish(weights_a(), vec![100]);
    // Replica 1 applies immediately; replica 2 lags through another epoch.
    let e = sub1.poll().unwrap();
    lb1.set_weights(&e.weights);
    lb1.set_backups(&e.backups);

    ledger.publish(weights_b(), vec![100, 101]);
    let e1 = sub1.poll().unwrap();
    lb1.set_weights(&e1.weights);
    lb1.set_backups(&e1.backups);
    let e2 = sub2.poll().unwrap();
    assert_eq!(e1.epoch, e2.epoch, "laggard jumps to the newest epoch");
    lb2.set_weights(&e2.weights);
    lb2.set_backups(&e2.backups);

    // Identical epochs → identical routing decisions for every key.
    for i in 0..20_000u64 {
        let k = i.to_be_bytes();
        for pool in [Pool::Hot, Pool::Cold] {
            assert_eq!(lb1.route_read(pool, &k), lb2.route_read(pool, &k));
            assert_eq!(lb1.route_write(pool, &k), lb2.route_write(pool, &k));
        }
    }

    // Node 2 was dropped by epoch 2: nobody routes to it.
    for i in 0..20_000u64 {
        let k = i.to_be_bytes();
        for pool in [Pool::Hot, Pool::Cold] {
            use spotcache::router::balancer::Route;
            if let Route::Node(n) = lb1.route_read(pool, &k) {
                assert_ne!(n, 2, "dropped node must not serve");
            }
        }
    }
}

#[test]
fn concurrent_controller_and_replicas() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let ledger = WeightLedger::new();
    let done = Arc::new(AtomicBool::new(false));
    let publisher = {
        let ledger = Arc::clone(&ledger);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for i in 0..500u64 {
                let w = if i % 2 == 0 { weights_a() } else { weights_b() };
                ledger.publish(w, vec![100]);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let replicas: Vec<_> = (0..3)
        .map(|_| {
            let mut sub = ledger.subscribe();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut lb = LoadBalancer::new();
                let mut last = 0u64;
                // Poll for as long as the publisher runs — a poll budget can
                // run out before the first epoch on a busy host — and once
                // more after it has finished, for the final table.
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    if let Some(e) = sub.poll() {
                        lb.set_weights(&e.weights);
                        lb.set_backups(&e.backups);
                        last = e.epoch;
                        // The balancer is always in a coherent state: any
                        // routed node is one of this epoch's nodes.
                        use spotcache::router::balancer::Route;
                        let nodes: Vec<u64> = e.weights.iter().map(|w| w.node).collect();
                        for i in 0..50u64 {
                            if let Route::Node(n) = lb.route_read(Pool::Cold, &i.to_be_bytes()) {
                                assert!(nodes.contains(&n));
                            }
                        }
                    }
                    if finished {
                        return last;
                    }
                }
            })
        })
        .collect();
    publisher.join().unwrap();
    for r in replicas {
        assert_eq!(
            r.join().unwrap(),
            500,
            "every replica ends on the final table"
        );
    }
    assert_eq!(ledger.latest_epoch(), 500);
}
