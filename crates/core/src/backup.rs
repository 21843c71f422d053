//! Passive-backup sizing (paper Section 3.3).
//!
//! The backup must hold exactly the hot content living on spot instances.
//! Because burstable prices are proportional to RAM (Table 1) the dollar
//! cost of any t2 mix holding a given volume is nearly identical, so the
//! interesting choice is per-node burst capacity: larger t2 types bring
//! more peak vCPUs and network per node, shortening recovery. The paper's
//! prototype uses t2.medium.

use spotcache_cloud::catalog::{find_type, InstanceType};

use crate::controller::USABLE_RAM_FRACTION;

/// A sized backup fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct BackupPlan {
    /// Chosen instance type.
    pub itype: InstanceType,
    /// Number of backup nodes.
    pub count: u32,
    /// Hourly cost of the fleet, dollars.
    pub hourly_cost: f64,
}

impl BackupPlan {
    /// An empty plan (nothing to back up).
    pub(crate) fn empty() -> Self {
        Self {
            itype: find_type("t2.medium").expect("catalog type"),
            count: 0,
            hourly_cost: 0.0,
        }
    }
}

/// Sizes a backup fleet of `itype` for `hot_gb` of replicated content.
pub(crate) fn size_backup_with(itype: &InstanceType, hot_gb: f64) -> BackupPlan {
    if hot_gb <= 0.0 {
        return BackupPlan {
            itype: *itype,
            count: 0,
            hourly_cost: 0.0,
        };
    }
    let per_node = itype.ram_gb * USABLE_RAM_FRACTION;
    let count = (hot_gb / per_node).ceil().max(1.0) as u32;
    BackupPlan {
        itype: *itype,
        count,
        hourly_cost: count as f64 * itype.od_price,
    }
}

/// Sizes a backup fleet using the paper's default type (t2.medium).
pub(crate) fn size_backup(hot_gb: f64) -> BackupPlan {
    size_backup_with(&find_type("t2.medium").expect("catalog type"), hot_gb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hot_data_needs_no_backup() {
        let p = size_backup(0.0);
        assert_eq!(p.count, 0);
        assert_eq!(p.hourly_cost, 0.0);
        assert_eq!(BackupPlan::empty().count, 0);
    }

    #[test]
    fn sizing_covers_the_volume() {
        // 3 GB hot on t2.medium (4 GB × 0.85 = 3.4 GB usable) → 1 node.
        let p = size_backup(3.0);
        assert_eq!(p.count, 1);
        assert!((p.hourly_cost - 0.052).abs() < 1e-9);
        // 10 GB → ceil(10/3.4) = 3 nodes.
        assert_eq!(size_backup(10.0).count, 3);
    }

    #[test]
    fn fleet_capacity_always_sufficient() {
        for gb in [0.1, 1.0, 3.3, 3.5, 17.0, 100.0] {
            let p = size_backup(gb);
            let cap = p.count as f64 * p.itype.ram_gb * USABLE_RAM_FRACTION;
            assert!(cap >= gb, "{gb} GB in {cap} GB of backup");
        }
    }

    #[test]
    fn backup_cost_scales_with_hot_volume() {
        let small = size_backup(2.0).hourly_cost;
        let large = size_backup(20.0).hourly_cost;
        assert!(large > 5.0 * small);
    }
}
