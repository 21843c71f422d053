//! Regenerates paper **Figure 2**: the 90-day spot price traces of the four
//! evaluation markets, printed as summary statistics plus a daily-resolution
//! series. With `--lifetimes`, also demonstrates the Figure 1 definitions by
//! extracting below-bid runs from one trace.

use spotcache_bench::live::Flags;
use spotcache_bench::{heading, print_table};
use spotcache_cloud::spot::Bid;
use spotcache_cloud::tracegen::paper_traces;
use spotcache_cloud::DAY;
use spotcache_spotmodel::below_bid_runs;

fn main() {
    let [show_lifetimes] = Flags::switches(["--lifetimes"]);
    let traces = paper_traces(90);

    heading("Figure 2: 90-day spot price traces (summary)");
    let rows: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            let mut sorted = t.prices.clone();
            sorted.sort_by(f64::total_cmp);
            let med = sorted[sorted.len() / 2];
            let mean = t.prices.iter().sum::<f64>() / t.prices.len() as f64;
            let above =
                t.prices.iter().filter(|&&p| p > t.od_price).count() as f64 / t.prices.len() as f64;
            vec![
                t.market.short_label(),
                format!("{:.4}", t.od_price),
                format!("{:.4}", sorted[0]),
                format!("{med:.4}"),
                format!("{mean:.4}"),
                format!("{:.4}", sorted[sorted.len() - 1]),
                format!("{:.1}%", 100.0 * above),
                format!("{:.2}", med / t.od_price),
            ]
        })
        .collect();
    print_table(
        &[
            "market",
            "OD $/h",
            "min",
            "median",
            "mean",
            "max",
            "% above OD",
            "median/OD",
        ],
        &rows,
    );

    heading("Daily mean price (series, $/h)");
    for t in &traces {
        let mut line = format!("{:>8}:", t.market.short_label());
        for day in 0..90 {
            let mean = t.mean_price(day * DAY, (day + 1) * DAY).unwrap_or(0.0);
            if day % 5 == 0 {
                line.push_str(&format!(" {mean:.3}"));
            }
        }
        println!("{line}  (every 5th day)");
    }

    if show_lifetimes {
        heading("Figure 1 demo: below-bid runs (lifetime L(b), avg price p(b))");
        let t = &traces[2]; // m4.XL-c
        let bid = Bid(t.od_price);
        let runs = below_bid_runs(t, 30 * DAY, 37 * DAY, bid);
        let rows: Vec<Vec<String>> = runs
            .iter()
            .take(15)
            .map(|r| {
                vec![
                    format!("day {:.2}", r.start as f64 / DAY as f64),
                    format!("{:.2} h", r.len as f64 / 3_600.0),
                    format!("{:.4}", r.avg_price),
                    if r.censored { "censored" } else { "complete" }.into(),
                ]
            })
            .collect();
        print_table(&["run start", "L(b)", "p(b)", ""], &rows);
        println!();
        println!(
            "market {} at bid 1d = {:.4} $/h",
            t.market.short_label(),
            bid.dollars()
        );
    }
}
