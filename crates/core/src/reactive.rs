//! The reactive control element (paper Section 4.2).
//!
//! The predictive optimizer plans once per slot from AR(2) forecasts; a
//! flash crowd that arrives mid-slot is invisible to it until the next
//! boundary. The paper therefore pairs the predictive controller with a
//! *reactive* element "to take corrective resource allocation decisions in
//! case of unexpected events such as flash crowds" — the classic
//! hierarchical predictive+reactive design (Gandhi et al., Urgaonkar et
//! al.).
//!
//! The reactive element watches the observed arrival rate against the
//! planned capacity and, when the overload ratio crosses a trigger, orders
//! an immediate on-demand scale-out (spot procurement is too slow and too
//! risky for an emergency). A cooldown prevents oscillation while the
//! emergency instances launch and the next predictive plan absorbs the new
//! level.

/// Observed-rate / planned-capacity ratio that triggers a reaction: react
/// once the plan is 10% under water.
const TRIGGER_RATIO: f64 = 1.1;

/// Capacity headroom provisioned over the observed rate when reacting.
const HEADROOM: f64 = 1.25;

/// Minimum seconds between reactions (covers instance launch time plus
/// ramp).
const COOLDOWN_SECS: u64 = 300;

/// Hard cap on emergency instances per reaction (safety valve against a
/// corrupt rate signal).
const MAX_BURST_INSTANCES: u32 = 64;

/// An emergency scale-out order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReactiveAction {
    /// Additional on-demand instances to launch right now.
    pub(crate) extra_instances: u32,
    /// When the reaction fired.
    pub(crate) at: u64,
}

/// The reactive controller.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReactiveController {
    last_fired: Option<u64>,
    reactions: u32,
}

impl ReactiveController {
    /// Creates a controller that has not fired yet.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of reactions fired so far.
    pub(crate) fn reactions(&self) -> u32 {
        self.reactions
    }

    /// Observes one monitoring sample.
    ///
    /// * `observed_rate` — measured arrival rate right now, ops/sec;
    /// * `planned_capacity` — the predictive plan's aggregate serving
    ///   capacity, ops/sec;
    /// * `per_instance_rate` — capacity one emergency on-demand instance
    ///   adds (the λ^{sb} of the chosen emergency type).
    ///
    /// Returns an action when the overload trigger fires and the cooldown
    /// has elapsed.
    pub(crate) fn observe(
        &mut self,
        now: u64,
        observed_rate: f64,
        planned_capacity: f64,
        per_instance_rate: f64,
    ) -> Option<ReactiveAction> {
        if per_instance_rate <= 0.0 || observed_rate <= 0.0 {
            return None;
        }
        if planned_capacity > 0.0 && observed_rate <= TRIGGER_RATIO * planned_capacity {
            return None;
        }
        if let Some(last) = self.last_fired {
            if now.saturating_sub(last) < COOLDOWN_SECS {
                return None;
            }
        }
        let deficit = (observed_rate * HEADROOM - planned_capacity).max(0.0);
        let extra = (deficit / per_instance_rate).ceil() as u32;
        let extra = extra.clamp(1, MAX_BURST_INSTANCES);
        self.last_fired = Some(now);
        self.reactions += 1;
        Some(ReactiveAction {
            extra_instances: extra,
            at: now,
        })
    }

    /// Resets the cooldown (a new predictive plan has absorbed the level).
    pub(crate) fn absorb(&mut self) {
        self.last_fired = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> ReactiveController {
        ReactiveController::new()
    }

    #[test]
    fn no_reaction_within_plan() {
        let mut c = ctl();
        assert!(c.observe(0, 90_000.0, 100_000.0, 10_000.0).is_none());
        // Right at the trigger boundary: still no reaction.
        assert!(c.observe(1, 110_000.0, 100_000.0, 10_000.0).is_none());
        assert_eq!(c.reactions(), 0);
    }

    #[test]
    fn flash_crowd_triggers_sized_reaction() {
        let mut c = ctl();
        // 3x flash crowd against 100k capacity.
        let a = c
            .observe(10, 300_000.0, 100_000.0, 10_000.0)
            .expect("reaction");
        // Deficit = 300k*1.25 - 100k = 275k → 28 instances.
        assert_eq!(a.extra_instances, 28);
        assert_eq!(a.at, 10);
        assert_eq!(c.reactions(), 1);
    }

    #[test]
    fn cooldown_suppresses_repeat_fire() {
        let mut c = ctl();
        assert!(c.observe(10, 300_000.0, 100_000.0, 10_000.0).is_some());
        assert!(c.observe(60, 300_000.0, 100_000.0, 10_000.0).is_none());
        assert!(c
            .observe(10 + 300, 300_000.0, 100_000.0, 10_000.0)
            .is_some());
        assert_eq!(c.reactions(), 2);
    }

    #[test]
    fn absorb_clears_cooldown() {
        let mut c = ctl();
        assert!(c.observe(10, 300_000.0, 100_000.0, 10_000.0).is_some());
        c.absorb();
        assert!(c.observe(11, 300_000.0, 100_000.0, 10_000.0).is_some());
    }

    #[test]
    fn burst_cap_limits_reaction() {
        let mut c = ctl();
        let a = c.observe(0, 10_000_000.0, 100_000.0, 10_000.0).unwrap();
        assert_eq!(a.extra_instances, 64);
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        let mut c = ctl();
        assert!(c.observe(0, 0.0, 100_000.0, 10_000.0).is_none());
        assert!(c.observe(0, 300_000.0, 100_000.0, 0.0).is_none());
    }

    #[test]
    fn zero_capacity_always_triggers() {
        let mut c = ctl();
        let a = c.observe(0, 50_000.0, 0.0, 10_000.0).unwrap();
        assert_eq!(a.extra_instances, 7); // ceil(62.5k / 10k)
    }
}
