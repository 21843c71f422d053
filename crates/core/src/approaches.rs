//! The six procurement approaches of the paper's evaluation (Table 4 plus
//! the `ODPeak` strawman), and the active geo-replication of its closest
//! related work.

use std::fmt;

/// A procurement approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Provision on-demand instances for the peak workload at all times.
    OdPeak,
    /// On-demand only, scaled hourly to the actual workload (the
    /// state-of-the-art autoscaling baseline).
    OdOnly,
    /// Hot data on on-demand, cold data on spot (hot-cold *separation*),
    /// with our spot feature modeling.
    OdSpotSep,
    /// Hot-cold mixing, but spot features predicted with the CDF baseline.
    OdSpotCdf,
    /// The paper's system without a passive backup: our spot modeling plus
    /// hot-cold mixing.
    PropNoBackup,
    /// The full system: spot modeling, mixing, and the burstable passive
    /// backup.
    Prop,
    /// Active geo-replication in the style of the paper's closest related
    /// work (Xu et al., INFOCOM'16, the paper's \[50\]), with k replicas:
    /// one full replica — the whole working set, sized for the whole rate —
    /// in each of the k spot markets with the lowest predicted price at a
    /// 1× bid, plus one on-demand write tier. Every replica carries the
    /// full rate, so the fleet serves through any k − 1 replica losses.
    /// Not one of the paper's six: [`Approach::ALL`] leaves it out.
    Replicated(usize),
}

impl Approach {
    /// All approaches, in the paper's presentation order.
    pub const ALL: [Approach; 6] = [
        Approach::OdPeak,
        Approach::OdOnly,
        Approach::OdSpotSep,
        Approach::OdSpotCdf,
        Approach::PropNoBackup,
        Approach::Prop,
    ];

    /// Paper name of the approach.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::OdPeak => "ODPeak",
            Approach::OdOnly => "ODOnly",
            Approach::OdSpotSep => "OD+Spot_Sep",
            Approach::OdSpotCdf => "OD+Spot_CDF",
            Approach::PropNoBackup => "Prop_NoBackup",
            Approach::Prop => "Prop",
            Approach::Replicated(_) => "Replication",
        }
    }

    /// Whether spot instances are used at all.
    pub fn uses_spot(&self) -> bool {
        !matches!(self, Approach::OdPeak | Approach::OdOnly)
    }

    /// Table 4, column "Uses our spot modeling?"; the replicated approach
    /// ranks its markets by the same predictor.
    pub fn uses_our_spot_modeling(&self) -> bool {
        matches!(
            self,
            Approach::OdSpotSep | Approach::PropNoBackup | Approach::Prop | Approach::Replicated(_)
        )
    }

    /// Table 4, column "Uses our hot-cold mixing?".
    pub fn uses_mixing(&self) -> bool {
        matches!(
            self,
            Approach::OdSpotCdf | Approach::PropNoBackup | Approach::Prop
        )
    }

    /// Table 4, column "Passive backup?".
    pub fn has_backup(&self) -> bool {
        matches!(self, Approach::Prop)
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn od_baselines_avoid_spot() {
        assert!(!Approach::OdPeak.uses_spot());
        assert!(!Approach::OdOnly.uses_spot());
        assert!(Approach::Prop.uses_spot());
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Approach::PropNoBackup.to_string(), "Prop_NoBackup");
        assert_eq!(Approach::OdSpotSep.to_string(), "OD+Spot_Sep");
        assert_eq!(Approach::ALL.len(), 6);
    }
}
