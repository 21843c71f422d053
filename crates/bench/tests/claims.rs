//! The drills' claim path: a drill decides its claims, then writes its
//! artifact, and a broken claim fails the run (exit 1) without losing
//! the evidence.

use spotcache_bench::live::write_artifact;
use spotcache_bench::{claim, claims_hold};

#[test]
fn a_broken_claim_still_leaves_the_artifact_written() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("broken-claim.json");
    let _ = std::fs::remove_file(&path);
    let held = claims_hold(|| {
        claim("test:breaks", false, "2 < 1");
        write_artifact(path.to_str().expect("utf-8 path"), "{\"measured\":2}");
    });
    assert!(!held, "the broken claim must fail the run");
    assert_eq!(
        std::fs::read_to_string(&path).expect("artifact written"),
        "{\"measured\":2}"
    );
}
