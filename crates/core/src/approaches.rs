//! The six procurement approaches of the paper's evaluation (Table 4 plus
//! the `ODPeak` strawman).

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
        }
    }

    /// Whether spot instances are used at all.
    pub fn uses_spot(&self) -> bool {
        !matches!(self, Approach::OdPeak | Approach::OdOnly)
    }

    /// Table 4, column "Uses our spot modeling?".
    pub fn uses_our_spot_modeling(&self) -> bool {
        matches!(
            self,
            Approach::OdSpotSep | Approach::PropNoBackup | Approach::Prop
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
