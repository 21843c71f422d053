//! The 2016-era EC2 instance catalog used throughout the reproduction.
//!
//! Prices are the October-2016 Linux on-demand prices the paper's Table 1
//! regression was fit over (US-West region). Burstable (t2) entries carry a
//! [`BurstSpec`] describing their token-bucket-governed CPU and network
//! capacities (paper Table 3 and Figure 5).

/// First-order instance classification used by the paper (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceClass {
    /// Conventional on-demand / reserved instances: high availability,
    /// near-fixed capacity. Also the class spot instances are drawn from.
    Regular,
    /// Credit-governed t2 instances: guaranteed base capacity plus burst
    /// capacity paid for with banked tokens.
    Burstable,
}

/// Burst capacity specification for a t2 instance.
///
/// EC2 documents CPU credits as deterministic token buckets: one credit is
/// one vCPU-minute of full utilization, credits accrue at a fixed rate and
/// cap at 24 hours' worth of accrual. Network bandwidth follows an analogous
/// (undocumented but measured — paper Figure 5) token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Sustainable baseline CPU, in fractional vCPUs (e.g. 0.1 for
    /// t2.micro's 10% of one core).
    pub base_vcpus: f64,
    /// CPU capacity while bursting, in vCPUs.
    pub peak_vcpus: f64,
    /// CPU credits earned per hour (credits are vCPU-minutes).
    pub credits_per_hour: f64,
    /// Maximum banked CPU credits (24 h of accrual on EC2).
    pub max_credits: f64,
    /// Credits granted at launch.
    pub initial_credits: f64,
    /// Sustainable baseline network bandwidth, Mbps.
    pub base_net_mbps: f64,
    /// Network bandwidth while bursting, Mbps.
    pub peak_net_mbps: f64,
    /// Network token bucket depth, in megabits.
    pub net_bucket_mbits: f64,
}

/// A single EC2 instance type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceType {
    /// EC2 API name, e.g. `"m4.large"`.
    pub name: &'static str,
    /// Instance class (regular vs burstable).
    pub class: InstanceClass,
    /// Advertised vCPU count. For burstables this is the *peak* count; the
    /// sustainable share lives in [`BurstSpec::base_vcpus`].
    pub vcpus: f64,
    /// RAM capacity in GiB.
    pub ram_gb: f64,
    /// Network bandwidth in Mbps (peak for burstables).
    pub net_mbps: f64,
    /// Hourly Linux on-demand price, US dollars.
    pub od_price: f64,
    /// Token-bucket specification; `Some` iff `class == Burstable`.
    pub burst: Option<BurstSpec>,
}

impl InstanceType {
    /// CPU capacity per GiB of RAM (`vCPU/GB` column of paper Table 1).
    ///
    /// For burstables, pass `peak = true` for the peak-capacity ratio.
    pub fn cpu_per_ram(&self, peak: bool) -> f64 {
        match (&self.burst, peak) {
            (Some(b), true) => b.peak_vcpus / self.ram_gb,
            (Some(b), false) => b.base_vcpus / self.ram_gb,
            (None, _) => self.vcpus / self.ram_gb,
        }
    }

    /// Network bandwidth per GiB of RAM (`Mbps/GB` column of paper Table 1).
    pub fn net_per_ram(&self, peak: bool) -> f64 {
        match (&self.burst, peak) {
            (Some(b), true) => b.peak_net_mbps / self.ram_gb,
            (Some(b), false) => b.base_net_mbps / self.ram_gb,
            (None, _) => self.net_mbps / self.ram_gb,
        }
    }

    /// Hourly price of this type's capacity if bought as regular on-demand
    /// resources at the regressed unit prices (paper Table 3, "OD price").
    pub fn od_equivalent_price(&self, vcpu_unit: f64, ram_unit: f64) -> f64 {
        let cpus = self.burst.map_or(self.vcpus, |b| b.peak_vcpus);
        vcpu_unit * cpus + ram_unit * self.ram_gb
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the catalog table columns
const fn t2(
    name: &'static str,
    peak_vcpus: f64,
    ram_gb: f64,
    base_vcpus: f64,
    credits_per_hour: f64,
    initial_credits: f64,
    peak_net_mbps: f64,
    od_price: f64,
) -> InstanceType {
    InstanceType {
        name,
        class: InstanceClass::Burstable,
        vcpus: peak_vcpus,
        ram_gb,
        net_mbps: peak_net_mbps,
        od_price,
        burst: Some(BurstSpec {
            base_vcpus,
            peak_vcpus,
            credits_per_hour,
            max_credits: credits_per_hour * 24.0,
            initial_credits,
            // Paper Table 1: burstable base network bandwidth is ~70 Mbps/GB.
            base_net_mbps: 70.0 * ram_gb,
            peak_net_mbps,
            // Measured bucket depth (Figure 5): roughly 6 minutes of peak
            // bandwidth can be sustained from a full bucket.
            net_bucket_mbits: peak_net_mbps * 360.0,
        }),
    }
}

const fn reg(
    name: &'static str,
    vcpus: f64,
    ram_gb: f64,
    net_mbps: f64,
    od_price: f64,
) -> InstanceType {
    InstanceType {
        name,
        class: InstanceClass::Regular,
        vcpus,
        ram_gb,
        net_mbps,
        od_price,
        burst: None,
    }
}

/// The 25 regular on-demand types the Table 1 regression is fit over.
///
/// Prices are October-2016 US-West Linux on-demand prices.
pub const REGULAR_TYPES: &[InstanceType] = &[
    // m3: general purpose (previous generation).
    reg("m3.medium", 1.0, 3.75, 300.0, 0.067),
    reg("m3.large", 2.0, 7.5, 550.0, 0.133),
    reg("m3.xlarge", 4.0, 15.0, 1000.0, 0.266),
    reg("m3.2xlarge", 8.0, 30.0, 1000.0, 0.532),
    // m4: general purpose.
    reg("m4.large", 2.0, 8.0, 450.0, 0.12),
    reg("m4.xlarge", 4.0, 16.0, 750.0, 0.239),
    reg("m4.2xlarge", 8.0, 32.0, 1000.0, 0.479),
    reg("m4.4xlarge", 16.0, 64.0, 2000.0, 0.958),
    reg("m4.10xlarge", 40.0, 160.0, 10000.0, 2.394),
    // c3: compute optimized (previous generation).
    reg("c3.large", 2.0, 3.75, 500.0, 0.105),
    reg("c3.xlarge", 4.0, 7.5, 700.0, 0.21),
    reg("c3.2xlarge", 8.0, 15.0, 1000.0, 0.42),
    reg("c3.4xlarge", 16.0, 30.0, 2000.0, 0.84),
    reg("c3.8xlarge", 32.0, 60.0, 10000.0, 1.68),
    // c4: compute optimized.
    reg("c4.large", 2.0, 3.75, 500.0, 0.105),
    reg("c4.xlarge", 4.0, 7.5, 750.0, 0.209),
    reg("c4.2xlarge", 8.0, 15.0, 1000.0, 0.419),
    reg("c4.4xlarge", 16.0, 30.0, 2000.0, 0.838),
    reg("c4.8xlarge", 36.0, 60.0, 10000.0, 1.675),
    // r3: memory optimized.
    reg("r3.large", 2.0, 15.25, 500.0, 0.166),
    reg("r3.xlarge", 4.0, 30.5, 700.0, 0.333),
    reg("r3.2xlarge", 8.0, 61.0, 1000.0, 0.665),
    reg("r3.4xlarge", 16.0, 122.0, 2000.0, 1.33),
    reg("r3.8xlarge", 32.0, 244.0, 10000.0, 2.66),
    // m1: legacy general purpose, rounds the set out to 25 types.
    reg("m1.small", 1.0, 1.7, 125.0, 0.044),
];

/// The t2 burstable family (paper Table 3).
///
/// Baseline CPU shares and credit accrual rates follow the EC2
/// documentation: nano 5%, micro 10%, small 20%, medium 2×20%, large 2×30%
/// of a core; one credit = one vCPU-minute; accrual caps at 24 h.
pub const BURSTABLE_TYPES: &[InstanceType] = &[
    t2("t2.nano", 1.0, 0.5, 0.05, 3.0, 30.0, 500.0, 0.0065),
    t2("t2.micro", 1.0, 1.0, 0.10, 6.0, 30.0, 1000.0, 0.013),
    t2("t2.small", 1.0, 2.0, 0.20, 12.0, 30.0, 1000.0, 0.026),
    t2("t2.medium", 2.0, 4.0, 0.40, 24.0, 60.0, 1000.0, 0.052),
    t2("t2.large", 2.0, 8.0, 0.60, 36.0, 60.0, 1000.0, 0.104),
];

/// The full catalog: regular types followed by burstable types.
pub fn catalog() -> Vec<InstanceType> {
    REGULAR_TYPES
        .iter()
        .chain(BURSTABLE_TYPES.iter())
        .copied()
        .collect()
}

/// Looks up an instance type by its EC2 API name.
pub fn find_type(name: &str) -> Option<InstanceType> {
    REGULAR_TYPES
        .iter()
        .chain(BURSTABLE_TYPES.iter())
        .find(|t| t.name == name)
        .copied()
}

/// The on-demand candidate set used in the paper's evaluation: m3/c3/r3
/// types with at most four vCPUs (memcached does not scale past four cores).
pub fn memcached_od_candidates() -> Vec<InstanceType> {
    REGULAR_TYPES
        .iter()
        .filter(|t| {
            t.vcpus <= 4.0
                && (t.name.starts_with("m3.")
                    || t.name.starts_with("c3.")
                    || t.name.starts_with("r3."))
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_type_hits_and_misses() {
        assert_eq!(find_type("m4.large").unwrap().ram_gb, 8.0);
        assert_eq!(find_type("t2.micro").unwrap().od_price, 0.013);
        assert!(find_type("z9.mega").is_none());
    }

    #[test]
    fn regression_set_has_25_regular_types() {
        assert_eq!(REGULAR_TYPES.len(), 25);
        assert!(REGULAR_TYPES.iter().all(|t| t.burst.is_none()));
    }

    #[test]
    fn memcached_candidates_match_paper_setup() {
        // The paper: m3.*, c3.*, r3.* with <= 4 vCPUs — "a total of 6
        // instance types".
        let c = memcached_od_candidates();
        assert_eq!(c.len(), 7); // m3.medium/large/xlarge, c3.large/xlarge, r3.large/xlarge
        assert!(c.iter().all(|t| t.vcpus <= 4.0));
    }

    #[test]
    fn burstable_prices_match_table3() {
        let expect = [
            ("t2.nano", 0.0065),
            ("t2.micro", 0.013),
            ("t2.small", 0.026),
            ("t2.medium", 0.052),
            ("t2.large", 0.104),
        ];
        for (name, price) in expect {
            assert_eq!(find_type(name).unwrap().od_price, price, "{name}");
        }
    }

    #[test]
    fn burstable_price_is_proportional_to_ram() {
        // Paper Table 1: burstable price is perfectly proportional to RAM
        // at $0.013/GB*hour.
        for t in BURSTABLE_TYPES {
            let per_gb = t.od_price / t.ram_gb;
            assert!((per_gb - 0.013).abs() < 1e-9, "{}: {per_gb}", t.name);
        }
    }

    #[test]
    fn peak_ratios_dominate_regular_ratios() {
        // Paper Section 2.2: at peak, burstables offer much higher CPU and
        // network per RAM-dollar than regular instances.
        let t2m = find_type("t2.medium").unwrap();
        let m3m = find_type("m3.medium").unwrap();
        let t2_cpu_per_dollar = t2m.cpu_per_ram(true) * t2m.ram_gb / t2m.od_price;
        let m3_cpu_per_dollar = m3m.cpu_per_ram(true) * m3m.ram_gb / m3m.od_price;
        assert!(t2_cpu_per_dollar > 2.0 * m3_cpu_per_dollar);
    }

    #[test]
    fn od_equivalent_prices_match_table3() {
        // Table 3's "OD price" column: peak capacity priced at the Table 1
        // unit prices 0.0397 $/vCPU·h and 0.0057 $/GB·h.
        let expect = [
            ("t2.nano", 0.0425),
            ("t2.micro", 0.0454),
            ("t2.small", 0.0511),
            ("t2.medium", 0.1022),
            ("t2.large", 0.125),
        ];
        for (name, price) in expect {
            let t = find_type(name).unwrap();
            let got = t.od_equivalent_price(0.0397, 0.0057);
            assert!(
                (got - price).abs() < 0.005,
                "{name}: got {got}, want {price}"
            );
        }
    }

    #[test]
    fn burst_specs_are_consistent() {
        for t in BURSTABLE_TYPES {
            let b = t.burst.unwrap();
            assert!(b.base_vcpus < b.peak_vcpus, "{}", t.name);
            assert!(b.base_net_mbps <= b.peak_net_mbps, "{}", t.name);
            assert!((b.max_credits - b.credits_per_hour * 24.0).abs() < 1e-9);
            // Credit accrual rate equals the baseline share: earning
            // credits_per_hour vCPU-minutes per hour sustains base_vcpus.
            assert!(
                (b.credits_per_hour / 60.0 - b.base_vcpus).abs() < 1e-9,
                "{}",
                t.name
            );
        }
    }
}
