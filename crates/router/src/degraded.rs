//! Degraded-mode routing through a revocation (paper §3.3).
//!
//! When a spot node is revoked the router cannot simply fail over to an
//! empty replacement — every read would miss until the cache refills
//! organically. The paper's answer is the passive backup: during the
//! outage the router serves *stale-from-backup* for hot keys while the
//! warm-up pump copies the backup's hot set into the replacement, then
//! cuts over once warmed. [`DegradedRouter`] is that state machine:
//!
//! ```text
//! Healthy --on_warning()--> Warning --on_revoked()--> Degraded
//!    ^                         |                          |
//!    |                         +-----on_revoked()---------+
//!    +------reset()----- Warmed <-------on_warmed()-------+
//! ```
//!
//! * **Healthy / Warning** — reads and writes go to the primary. The
//!   `Warning` phase is entered on the 2-minute revocation notice; it
//!   changes nothing for clients but tells the drill harness the drain +
//!   pre-warm window is open.
//! * **Degraded** — the primary is gone. Reads try the replacement
//!   first and fall back to the stale backup: both recovery strategies
//!   fill the replacement while it serves (the pump hottest-first, the
//!   checkpoint load frame by frame, an unwarned one the hottest slice
//!   of every shard first), so it is worth querying from the moment it
//!   listens. Writes go to the replacement so fresh data lands where it
//!   will live.
//! * **Warmed** — the replacement holds the hot set; the backup drops out
//!   of the read path.
//!
//! The router is a decision point, not a proxy: callers ask for a
//! [`ReadPlan`] and perform the fetches themselves, reporting what was
//! served via [`DegradedRouter::note_served`] so the drill can separate
//! *fresh* hits (replacement) from *stale* ones (backup) — the two
//! curves BENCH_drill.json reports. Counters are plain atomics because
//! this crate stays dependency-free; the drill harness mirrors them into
//! `spotcache-obs` gauges.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Lifecycle phase of a node undergoing (or past) a revocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillPhase {
    /// Primary alive, no revocation in sight.
    Healthy,
    /// Revocation notice received; primary still serving.
    Warning,
    /// Primary dead; serving stale-from-backup while warming.
    Degraded,
    /// Replacement warmed; backup out of the read path.
    Warmed,
}

impl DrillPhase {
    /// Stable lower-case name, suitable for `/healthz` payloads and
    /// metric label values.
    pub fn as_str(self) -> &'static str {
        match self {
            DrillPhase::Healthy => "healthy",
            DrillPhase::Warning => "warning",
            DrillPhase::Degraded => "degraded",
            DrillPhase::Warmed => "warmed",
        }
    }
}

/// Which recovery strategy is restoring the replacement, as selected by
/// the recovery layer (`spotcache_recovery::RecoveryStrategy::mode`).
///
/// A label only: `/healthz` reports it, and the read plan does not
/// depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Paced hot-set replay. The default (the paper's §3.3 path).
    #[default]
    Replay,
    /// Checkpoint restore plus replication-tail top-up.
    Hybrid,
}

impl RecoveryMode {
    /// Stable lower-case name, suitable for `/healthz` payloads and
    /// metric label values.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryMode::Replay => "replay",
            RecoveryMode::Hybrid => "hybrid",
        }
    }
}

/// Where a request should be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTarget {
    /// The live primary node.
    Primary,
    /// The passive backup — data may be stale.
    BackupStale,
    /// The replacement node being (or done being) warmed.
    Replacement,
}

/// A read decision: the first place to try, and an optional fallback on
/// miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPlan {
    /// Try here first.
    pub first: ServeTarget,
    /// On miss, try here before declaring a client miss.
    pub fallback: Option<ServeTarget>,
}

/// Per-target served counts, snapshot by [`DegradedRouter::counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounts {
    /// Requests answered by the primary.
    pub primary: u64,
    /// Requests answered stale from the backup.
    pub backup_stale: u64,
    /// Requests answered fresh by the replacement.
    pub replacement: u64,
    /// Requests no target could answer.
    pub missed: u64,
}

impl ServeCounts {
    /// Total requests accounted for.
    pub fn total(&self) -> u64 {
        self.primary + self.backup_stale + self.replacement + self.missed
    }
}

const P_HEALTHY: u8 = 0;
const P_WARNING: u8 = 1;
const P_DEGRADED: u8 = 2;
const P_WARMED: u8 = 3;

const M_REPLAY: u8 = 0;
const M_HYBRID: u8 = 1;

/// The degraded-mode routing state machine; see the module docs.
///
/// All methods take `&self` — the router is shared freely across client
/// threads while the drill harness drives phase transitions.
#[derive(Debug, Default)]
pub struct DegradedRouter {
    phase: AtomicU8,
    mode: AtomicU8,
    transitions: AtomicU64,
    primary: AtomicU64,
    backup_stale: AtomicU64,
    replacement: AtomicU64,
    missed: AtomicU64,
}

impl DegradedRouter {
    /// A router in the `Healthy` phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current phase.
    pub fn phase(&self) -> DrillPhase {
        match self.phase.load(Ordering::Acquire) {
            P_HEALTHY => DrillPhase::Healthy,
            P_WARNING => DrillPhase::Warning,
            P_DEGRADED => DrillPhase::Degraded,
            _ => DrillPhase::Warmed,
        }
    }

    fn advance(&self, to: u8) {
        self.phase.store(to, Ordering::Release);
        self.transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Revocation notice arrived (the 2-minute warning).
    pub fn on_warning(&self) {
        self.advance(P_WARNING);
    }

    /// The primary is gone (warned or not).
    pub fn on_revoked(&self) {
        self.advance(P_DEGRADED);
    }

    /// The replacement's hot set is warm; cut the backup out.
    pub fn on_warmed(&self) {
        self.advance(P_WARMED);
    }

    /// Phase transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Labels the node with the recovery strategy restoring it, normally
    /// from `RecoveryStrategy::mode()`. The label is what `/healthz`
    /// reports; it does not change the read plan.
    pub fn set_mode(&self, mode: RecoveryMode) {
        let m = match mode {
            RecoveryMode::Replay => M_REPLAY,
            RecoveryMode::Hybrid => M_HYBRID,
        };
        self.mode.store(m, Ordering::Release);
    }

    /// The recovery-strategy label last set by [`Self::set_mode`].
    pub fn mode(&self) -> RecoveryMode {
        match self.mode.load(Ordering::Acquire) {
            M_HYBRID => RecoveryMode::Hybrid,
            _ => RecoveryMode::Replay,
        }
    }

    /// Where to send a read right now; a function of the phase alone.
    pub fn read_plan(&self) -> ReadPlan {
        match self.phase() {
            DrillPhase::Healthy | DrillPhase::Warning => ReadPlan {
                first: ServeTarget::Primary,
                fallback: None,
            },
            // The replacement lands the hottest keys first: query it
            // first, fall back to the stale backup.
            DrillPhase::Degraded => ReadPlan {
                first: ServeTarget::Replacement,
                fallback: Some(ServeTarget::BackupStale),
            },
            DrillPhase::Warmed => ReadPlan {
                first: ServeTarget::Replacement,
                fallback: None,
            },
        }
    }

    /// Where to send a write right now: the primary while it lives, the
    /// replacement after — never the backup, which only mirrors the
    /// primary's replication stream.
    pub fn write_target(&self) -> ServeTarget {
        match self.phase() {
            DrillPhase::Healthy | DrillPhase::Warning => ServeTarget::Primary,
            DrillPhase::Degraded | DrillPhase::Warmed => ServeTarget::Replacement,
        }
    }

    /// Records which target answered a read (`None` = nobody did).
    pub fn note_served(&self, target: Option<ServeTarget>) {
        let c = match target {
            Some(ServeTarget::Primary) => &self.primary,
            Some(ServeTarget::BackupStale) => &self.backup_stale,
            Some(ServeTarget::Replacement) => &self.replacement,
            None => &self.missed,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the served counters.
    pub fn counts(&self) -> ServeCounts {
        ServeCounts {
            primary: self.primary.load(Ordering::Relaxed),
            backup_stale: self.backup_stale.load(Ordering::Relaxed),
            replacement: self.replacement.load(Ordering::Relaxed),
            missed: self.missed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_with_warning() {
        let r = DegradedRouter::new();
        assert_eq!(r.phase(), DrillPhase::Healthy);
        assert_eq!(r.read_plan().first, ServeTarget::Primary);
        assert_eq!(r.write_target(), ServeTarget::Primary);

        r.on_warning();
        assert_eq!(r.phase(), DrillPhase::Warning);
        // The warning changes nothing for clients yet.
        assert_eq!(r.read_plan().first, ServeTarget::Primary);
        assert_eq!(r.write_target(), ServeTarget::Primary);

        r.on_revoked();
        let plan = r.read_plan();
        assert_eq!(plan.first, ServeTarget::Replacement);
        assert_eq!(plan.fallback, Some(ServeTarget::BackupStale));
        assert_eq!(r.write_target(), ServeTarget::Replacement);

        r.on_warmed();
        assert_eq!(r.read_plan().fallback, None);
        assert_eq!(r.write_target(), ServeTarget::Replacement);

        assert_eq!(r.transitions(), 3);
    }

    #[test]
    fn hybrid_mode_routes_like_replay() {
        let r = DegradedRouter::new();
        assert_eq!(r.mode(), RecoveryMode::Replay, "replay is the default");
        r.set_mode(RecoveryMode::Hybrid);
        assert_eq!(r.mode(), RecoveryMode::Hybrid);
        r.on_revoked();
        let plan = r.read_plan();
        assert_eq!(plan.first, ServeTarget::Replacement);
        assert_eq!(plan.fallback, Some(ServeTarget::BackupStale));
    }

    #[test]
    fn no_warning_revocation_skips_straight_to_degraded() {
        let r = DegradedRouter::new();
        r.on_revoked();
        assert_eq!(r.phase(), DrillPhase::Degraded);
        assert_eq!(r.read_plan().fallback, Some(ServeTarget::BackupStale));
    }

    #[test]
    fn phase_and_mode_names_are_stable() {
        // `/healthz` payloads and dashboards key on these strings; a
        // rename is a breaking change and must show up here.
        assert_eq!(DrillPhase::Healthy.as_str(), "healthy");
        assert_eq!(DrillPhase::Warning.as_str(), "warning");
        assert_eq!(DrillPhase::Degraded.as_str(), "degraded");
        assert_eq!(DrillPhase::Warmed.as_str(), "warmed");
        assert_eq!(RecoveryMode::Replay.as_str(), "replay");
        assert_eq!(RecoveryMode::Hybrid.as_str(), "hybrid");
    }

    #[test]
    fn served_counters_accumulate() {
        let r = DegradedRouter::new();
        r.note_served(Some(ServeTarget::Primary));
        r.note_served(Some(ServeTarget::BackupStale));
        r.note_served(Some(ServeTarget::BackupStale));
        r.note_served(Some(ServeTarget::Replacement));
        r.note_served(None);
        let c = r.counts();
        assert_eq!(c.primary, 1);
        assert_eq!(c.backup_stale, 2);
        assert_eq!(c.replacement, 1);
        assert_eq!(c.missed, 1);
        assert_eq!(c.total(), 5);
    }
}
