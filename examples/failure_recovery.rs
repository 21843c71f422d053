//! Failure recovery with a burstable passive backup.
//!
//! Simulates the revocation of a spot node holding 3 GB of hot content and
//! compares recovery with a t2.medium burstable backup (banked tokens,
//! hottest-first copy) against no backup at all — printing the latency
//! timeline and the token-bucket state that makes the burstable work.
//!
//! Run with: `cargo run --release --example failure_recovery`

use spotcache::cloud::burstable::BurstableState;
use spotcache::cloud::catalog::find_type;
use spotcache::sim::{simulate_recovery, RecoveryConfig};

fn main() {
    let t2 = find_type("t2.medium").expect("catalog");

    // Show why the burstable can do this: its banked tokens.
    let state = BurstableState::for_type(&t2).unwrap();
    println!("t2.medium at rest:");
    println!(
        "  CPU credits: {:.0} (can burst {:.0} vCPUs for {:.0} s)",
        state.cpu.credits(),
        t2.burst.unwrap().peak_vcpus,
        state.cpu.endurance(t2.burst.unwrap().peak_vcpus)
    );
    println!(
        "  network bucket: {:.0} Mbit (can burst {:.0} Mbps for {:.0} s)\n",
        state.net.bucket().level,
        t2.burst.unwrap().peak_net_mbps,
        state.net.endurance(t2.burst.unwrap().peak_net_mbps)
    );

    for (name, backup) in [
        ("t2.medium passive backup", Some(t2)),
        ("no backup (Prop_NoBackup)", None),
    ] {
        let cfg = RecoveryConfig::figure11(backup);
        let tl = simulate_recovery(&cfg, None, None);
        println!("== {name}");
        println!("   healthy average latency: {:.0} us", tl.healthy_avg_us);
        println!(
            "   {:>6} {:>10} {:>10} {:>8}",
            "t (s)", "avg (us)", "p95 (us)", "warm"
        );
        for &t in &[0usize, 30, 60, 120, 180, 300, 600] {
            let p = tl.points[t];
            println!(
                "   {:>6} {:>10.0} {:>10.0} {:>7.0}%",
                p.t,
                p.avg_us,
                p.p95_us,
                100.0 * p.warmed_mass / (cfg.hot_mass_lost + cfg.cold_mass_lost)
            );
        }
        match tl.recovered_at {
            Some(r) => println!("   recovered (within 1.05x of healthy) at t = {r} s"),
            None => println!("   NOT recovered within the {} s horizon", cfg.horizon_secs),
        }
        println!();
    }
    println!("the backup pumps the hot set hottest-first at its burst capacity, so the");
    println!("latency settles in minutes; without it, every key waits to be re-requested.");
}
