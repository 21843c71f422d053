//! Background poller for a live telemetry endpoint.
//!
//! `cluster_loadgen --scrape-interval` attaches one of these to the
//! server's admin endpoint: a thread polls `/metrics` on the given
//! cadence *while the load runs*, validates every exposition against
//! the in-tree Prometheus validator, samples a handful of named series,
//! and hands the time-stamped snapshots back for embedding in the BENCH
//! artifact — proving the endpoint answers under load, not just at
//! rest.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spotcache_obs::export::validate_prometheus_text;
use spotcache_obs::http::http_get;

/// One `/metrics` poll: when it happened (seconds since the scraper
/// started) and the sampled series values (`NaN` = series absent).
pub struct Scrape {
    /// Seconds since the scraper started.
    pub t_s: f64,
    /// `(metric name, value)` for every requested series.
    pub samples: Vec<(String, f64)>,
}

/// A background `/metrics` poller; see the module docs.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Scrape>>,
}

impl Scraper {
    /// Starts polling `addr`'s `/metrics` every `interval`, sampling the
    /// named series. The first scrape happens immediately, so even a run
    /// shorter than one interval records at least one snapshot. A scrape
    /// that fails, returns non-200, or fails exposition validation
    /// panics — a flaky endpoint is a finding, not noise.
    pub fn start(addr: SocketAddr, interval: Duration, metrics: &[&str]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let names: Vec<String> = metrics.iter().map(|m| m.to_string()).collect();
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut out = Vec::new();
            loop {
                let body = match http_get(addr, "/metrics", Duration::from_secs(2)) {
                    Ok((200, body)) => body,
                    Ok((code, _)) => panic!("/metrics scrape returned HTTP {code}"),
                    Err(e) => panic!("/metrics scrape failed: {e}"),
                };
                validate_prometheus_text(&body)
                    .unwrap_or_else(|at| panic!("scraped /metrics invalid at line {at}:\n{body}"));
                let samples = names
                    .iter()
                    .map(|n| {
                        let v = body
                            .lines()
                            .find_map(|l| {
                                let rest = l.strip_prefix(n.as_str())?;
                                rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
                            })
                            .unwrap_or(f64::NAN);
                        (n.clone(), v)
                    })
                    .collect();
                out.push(Scrape {
                    t_s: t0.elapsed().as_secs_f64(),
                    samples,
                });
                // Sleep in short steps so stop() is honored promptly.
                let until = Instant::now() + interval;
                while Instant::now() < until {
                    if flag.load(Ordering::Relaxed) {
                        return out;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                if flag.load(Ordering::Relaxed) {
                    return out;
                }
            }
        });
        Self { stop, handle }
    }

    /// Stops the poller and returns everything it scraped (at least one
    /// snapshot — the first scrape happens at start).
    pub fn stop(self) -> Vec<Scrape> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("scraper thread")
    }
}

/// Renders scrapes as a JSON array of `{"t_s":…,"<metric>":…}` objects
/// for embedding in a BENCH artifact (absent series render as `null`).
pub fn scrapes_json(scrapes: &[Scrape]) -> String {
    let cells: Vec<String> = scrapes
        .iter()
        .map(|s| {
            let mut obj = format!("{{\"t_s\":{:.3}", s.t_s);
            for (name, v) in &s.samples {
                if v.is_finite() {
                    obj.push_str(&format!(",\"{name}\":{v}"));
                } else {
                    obj.push_str(&format!(",\"{name}\":null"));
                }
            }
            obj.push('}');
            obj
        })
        .collect();
    format!("[{}]", cells.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_obs::export::validate_json;
    use spotcache_obs::http::standard_routes;
    use spotcache_obs::{AdminServer, Obs};

    #[test]
    fn scraper_polls_a_live_endpoint() {
        let obs = Arc::new(Obs::new());
        obs.counter("demo_total").add(7);
        let mut admin =
            AdminServer::start("127.0.0.1:0", standard_routes(Arc::clone(&obs), None, None))
                .expect("admin");
        let scraper = Scraper::start(
            admin.addr(),
            Duration::from_millis(20),
            &["demo_total", "no_such_metric"],
        );
        std::thread::sleep(Duration::from_millis(70));
        let scrapes = scraper.stop();
        admin.stop();
        assert!(
            scrapes.len() >= 2,
            "expected several scrapes, got {}",
            scrapes.len()
        );
        assert_eq!(scrapes[0].samples[0], ("demo_total".to_string(), 7.0));
        assert!(scrapes[0].samples[1].1.is_nan(), "absent series is NaN");
        let json = scrapes_json(&scrapes);
        validate_json(&json).expect("scrapes JSON must validate");
        assert!(json.contains("\"demo_total\":7"));
        assert!(json.contains("\"no_such_metric\":null"));
    }
}
