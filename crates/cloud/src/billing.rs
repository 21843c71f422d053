//! Cost accounting (paper Figure 12's per-class cost breakdown).

use std::collections::BTreeMap;

/// Cost categories used in the paper's breakdown plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostCategory {
    /// Regular on-demand instances serving cache traffic.
    OnDemand,
    /// Spot instances serving cache traffic.
    Spot,
    /// Passive-backup instances (burstable or regular).
    Backup,
    /// Anything else (e.g. the mcrouter front-end, the global controller).
    Infrastructure,
}

impl CostCategory {
    /// All categories in display order.
    pub const ALL: [CostCategory; 4] = [
        CostCategory::OnDemand,
        CostCategory::Spot,
        CostCategory::Backup,
        CostCategory::Infrastructure,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            CostCategory::OnDemand => "on-demand",
            CostCategory::Spot => "spot",
            CostCategory::Backup => "backup",
            CostCategory::Infrastructure => "infrastructure",
        }
    }
}

/// An append-only cost ledger with per-category totals.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    totals: BTreeMap<CostCategory, f64>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `dollars` of cost in `category`.
    pub fn record(&mut self, category: CostCategory, dollars: f64) {
        if dollars == 0.0 {
            return;
        }
        *self.totals.entry(category).or_insert(0.0) += dollars;
    }

    /// Total cost in one category.
    pub fn total(&self, category: CostCategory) -> f64 {
        self.totals.get(&category).copied().unwrap_or(0.0)
    }

    /// Grand total across all categories.
    pub fn grand_total(&self) -> f64 {
        self.totals.values().sum()
    }

    /// Per-category breakdown as `(category, dollars)` in display order.
    pub fn breakdown(&self) -> Vec<(CostCategory, f64)> {
        CostCategory::ALL
            .iter()
            .map(|&c| (c, self.total(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_by_category() {
        let mut l = Ledger::new();
        l.record(CostCategory::OnDemand, 1.5);
        l.record(CostCategory::OnDemand, 0.5);
        l.record(CostCategory::Spot, 0.25);
        assert!((l.total(CostCategory::OnDemand) - 2.0).abs() < 1e-12);
        assert!((l.total(CostCategory::Spot) - 0.25).abs() < 1e-12);
        assert!((l.grand_total() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_grand_total() {
        let mut l = Ledger::new();
        l.record(CostCategory::OnDemand, 3.0);
        l.record(CostCategory::Backup, 1.0);
        l.record(CostCategory::Infrastructure, 0.5);
        let sum: f64 = l.breakdown().iter().map(|(_, v)| v).sum();
        assert!((sum - l.grand_total()).abs() < 1e-12);
    }

    #[test]
    fn zero_records_are_ignored() {
        let mut l = Ledger::new();
        l.record(CostCategory::Spot, 0.0);
        assert!(l.totals.is_empty());
        assert_eq!(l.grand_total(), 0.0);
    }
}
