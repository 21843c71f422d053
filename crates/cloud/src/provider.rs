//! VM lifecycle: launch delay, spot revocation warnings, termination,
//! continuous billing.
//!
//! The provider is a discrete-event model driven by [`CloudProvider::advance_to`].
//! Spot instances follow the one EC2 spot rule, [`SpotTrace::lease`]: a
//! [`ProviderEvent::RevocationWarning`] fires at the first price sample
//! above the bid, [`crate::REVOCATION_WARNING`] seconds before the actual
//! [`ProviderEvent::Revoked`], and spot time is billed per price step.

use std::collections::{BTreeMap, HashMap};

use crate::billing::{CostCategory, Ledger};
use crate::burstable::BurstableState;
use crate::catalog::InstanceType;
use crate::spot::{Bid, MarketId, SpotLease, SpotTrace};
use crate::{LAUNCH_DELAY, REVOCATION_WARNING};

/// Opaque instance identifier.
pub type InstanceId = u64;

/// How an instance is procured and billed.
#[derive(Debug, Clone, PartialEq)]
pub enum Lease {
    /// Regular on-demand: billed at the fixed hourly price, never revoked.
    OnDemand,
    /// Spot: billed at the market price, revoked when price exceeds bid.
    Spot {
        /// The spot market the instance runs in.
        market: MarketId,
        /// The bid placed for it.
        bid: Bid,
    },
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Launch requested; becomes `Running` at the contained time.
    Pending {
        /// Time the instance becomes usable.
        ready_at: u64,
    },
    /// Serving (and being billed).
    Running,
    /// Revocation warning issued; will be revoked at the contained time.
    Warned {
        /// Time the instance disappears.
        revoke_at: u64,
    },
    /// Gone (terminated by the tenant or revoked by the provider).
    Terminated,
}

impl InstanceState {
    /// Whether the instance is usable for serving requests.
    pub fn is_usable(&self) -> bool {
        matches!(self, InstanceState::Running | InstanceState::Warned { .. })
    }
}

/// One provisioned instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Identifier.
    pub id: InstanceId,
    /// Catalog type.
    pub itype: InstanceType,
    /// Procurement lease.
    pub lease: Lease,
    /// Lifecycle state.
    pub state: InstanceState,
    /// Launch request time.
    pub launched_at: u64,
    /// Billing category.
    pub category: CostCategory,
    /// Token-bucket state for burstable types.
    pub burst: Option<BurstableState>,
    /// When a spot instance's revocation warning fires, decided at launch.
    warn_at: Option<u64>,
}

/// Events surfaced by [`CloudProvider::advance_to`], in time order.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderEvent {
    /// The instance finished launching at the given time.
    Ready {
        /// Instance.
        id: InstanceId,
        /// Event time.
        at: u64,
    },
    /// The provider announced a forthcoming revocation.
    RevocationWarning {
        /// Instance.
        id: InstanceId,
        /// Warning time.
        at: u64,
        /// Time the instance will disappear.
        revoke_at: u64,
    },
    /// The instance was revoked (spot price exceeded the bid).
    Revoked {
        /// Instance.
        id: InstanceId,
        /// Event time.
        at: u64,
    },
}

impl ProviderEvent {
    /// The event's timestamp.
    pub fn at(&self) -> u64 {
        match self {
            ProviderEvent::Ready { at, .. }
            | ProviderEvent::RevocationWarning { at, .. }
            | ProviderEvent::Revoked { at, .. } => *at,
        }
    }
}

/// The simulated cloud: spot markets, instances, clock, ledger.
#[derive(Debug)]
pub struct CloudProvider {
    now: u64,
    traces: HashMap<MarketId, SpotTrace>,
    instances: BTreeMap<InstanceId, Instance>,
    next_id: InstanceId,
    ledger: Ledger,
    launch_delay: u64,
}

impl CloudProvider {
    /// Creates a provider over the given spot price traces, starting at t=0.
    pub fn new(traces: Vec<SpotTrace>) -> Self {
        Self {
            now: 0,
            traces: traces.into_iter().map(|t| (t.market.clone(), t)).collect(),
            instances: BTreeMap::new(),
            next_id: 1,
            ledger: Ledger::new(),
            launch_delay: LAUNCH_DELAY,
        }
    }

    /// Overrides the launch delay (e.g. 0 for instant-launch unit tests).
    pub fn with_launch_delay(mut self, delay: u64) -> Self {
        self.launch_delay = delay;
        self
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configured launch delay.
    pub fn launch_delay(&self) -> u64 {
        self.launch_delay
    }

    /// The cost ledger so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The price trace of a market.
    pub fn trace(&self, market: &MarketId) -> Option<&SpotTrace> {
        self.traces.get(market)
    }

    /// All known markets.
    pub fn markets(&self) -> impl Iterator<Item = &MarketId> {
        self.traces.keys()
    }

    /// Requests an instance.
    ///
    /// For spot leases, returns `Err` if the market is unknown or the bid is
    /// currently below the market price (an immediate *bid failure*, exactly
    /// as EC2 rejects under-priced spot requests). When a granted spot
    /// instance will be warned is decided here, by [`SpotTrace::lease`]
    /// over the rest of its market's trace.
    pub fn launch(
        &mut self,
        itype: InstanceType,
        lease: Lease,
        category: CostCategory,
    ) -> Result<InstanceId, LaunchError> {
        let mut warn_at = None;
        if let Lease::Spot { market, bid } = &lease {
            let unknown = || LaunchError::UnknownMarket(market.clone());
            let trace = self.traces.get(market).ok_or_else(unknown)?;
            let price = trace.price_at(self.now).ok_or_else(unknown)?;
            match trace.lease(*bid, self.now, trace.end().max(self.now)) {
                SpotLease::Refused => {
                    return Err(LaunchError::BidTooLow {
                        market: market.clone(),
                        price,
                    })
                }
                SpotLease::Granted { warning, .. } => warn_at = warning,
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let burst = BurstableState::for_type(&itype);
        let state = if self.launch_delay == 0 {
            InstanceState::Running
        } else {
            InstanceState::Pending {
                ready_at: self.now + self.launch_delay,
            }
        };
        self.instances.insert(
            id,
            Instance {
                id,
                itype,
                lease,
                state,
                launched_at: self.now,
                category,
                burst,
                warn_at,
            },
        );
        Ok(id)
    }

    /// Terminates an instance (idempotent). It stays listed, as
    /// `Terminated`, until the next [`advance_to`](Self::advance_to).
    pub fn terminate(&mut self, id: InstanceId) {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.state = InstanceState::Terminated;
        }
    }

    /// Looks up an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    /// Advances simulated time to `t`, billing usage and emitting lifecycle
    /// events in time order. Instances terminated or revoked before the
    /// call are forgotten.
    pub fn advance_to(&mut self, t: u64) -> Vec<ProviderEvent> {
        self.instances
            .retain(|_, i| i.state != InstanceState::Terminated);
        let mut events = Vec::new();
        while self.now < t {
            let bp = self.next_breakpoint(t);
            self.bill_interval(self.now, bp);
            self.now = bp;
            self.process_transitions(&mut events);
        }
        events
    }

    /// The earliest pending `ready_at`, warning or revocation, or `t`.
    fn next_breakpoint(&self, t: u64) -> u64 {
        let mut bp = t;
        for inst in self.instances.values() {
            if inst.state == InstanceState::Terminated {
                continue;
            }
            let ready_at = match inst.state {
                InstanceState::Pending { ready_at } => Some(ready_at),
                _ => None,
            };
            let revoke_at = inst.warn_at.map(|w| w + REVOCATION_WARNING);
            for at in [ready_at, inst.warn_at, revoke_at].into_iter().flatten() {
                if at > self.now {
                    bp = bp.min(at);
                }
            }
        }
        bp
    }

    /// Bills all usable instances for `[from, to)`: on-demand ones at their
    /// fixed price, spot ones by [`SpotTrace::dollars`].
    fn bill_interval(&mut self, from: u64, to: u64) {
        for inst in self.instances.values() {
            if !inst.state.is_usable() {
                continue;
            }
            let dollars = match &inst.lease {
                Lease::OnDemand => inst.itype.od_price * (to - from) as f64 / 3_600.0,
                Lease::Spot { market, .. } => self.traces[market].dollars(from, to),
            };
            self.ledger.record(inst.category, dollars);
        }
    }

    /// Applies state transitions due at `self.now`. A spot instance warned
    /// while still pending becomes ready warned, unless its revocation
    /// comes first: then it never runs.
    fn process_transitions(&mut self, events: &mut Vec<ProviderEvent>) {
        let now = self.now;
        for inst in self.instances.values_mut() {
            if inst.state == InstanceState::Terminated {
                continue;
            }
            let id = inst.id;
            let warned = inst.warn_at.filter(|&w| w <= now);
            let revoke_at = warned.map(|w| w + REVOCATION_WARNING);
            if warned == Some(now) {
                events.push(ProviderEvent::RevocationWarning {
                    id,
                    at: now,
                    revoke_at: now + REVOCATION_WARNING,
                });
            }
            let running = revoke_at.map_or(InstanceState::Running, |revoke_at| {
                InstanceState::Warned { revoke_at }
            });
            inst.state = match inst.state {
                _ if revoke_at.is_some_and(|r| r <= now) => {
                    events.push(ProviderEvent::Revoked { id, at: now });
                    InstanceState::Terminated
                }
                InstanceState::Pending { ready_at } if ready_at > now => continue,
                InstanceState::Pending { .. } => {
                    events.push(ProviderEvent::Ready { id, at: now });
                    running
                }
                _ => running,
            };
        }
    }
}

/// Errors from [`CloudProvider::launch`].
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The requested spot market has no price trace.
    UnknownMarket(MarketId),
    /// The bid is below the current market price.
    BidTooLow {
        /// The market in question.
        market: MarketId,
        /// Its current price.
        price: f64,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::UnknownMarket(m) => write!(f, "unknown spot market: {m}"),
            LaunchError::BidTooLow { market, price } => {
                write!(f, "bid below current price {price} in {market}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::find_type;
    use crate::spot::SpotTrace;
    use crate::TRACE_STEP;

    fn market() -> MarketId {
        MarketId::new("m4.large", "us-east-1d")
    }

    /// A trace that is cheap (0.03) for the first 10 steps, then spikes to
    /// 0.5 for 5 steps, then returns to cheap.
    fn spiky_provider() -> CloudProvider {
        let mut prices = vec![0.03; 10];
        prices.extend(vec![0.5; 5]);
        prices.extend(vec![0.03; 100]);
        CloudProvider::new(vec![SpotTrace::new(market(), 0.12, prices)])
    }

    #[test]
    fn od_instance_becomes_ready_after_launch_delay() {
        let mut p = spiky_provider();
        let id = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::OnDemand,
                CostCategory::OnDemand,
            )
            .unwrap();
        let events = p.advance_to(LAUNCH_DELAY + 1);
        assert!(events.iter().any(
            |e| matches!(e, ProviderEvent::Ready { id: i, at } if *i == id && *at == LAUNCH_DELAY)
        ));
        assert_eq!(p.instance(id).unwrap().state, InstanceState::Running);
    }

    #[test]
    fn spot_revocation_fires_warning_then_revoke() {
        let mut p = spiky_provider().with_launch_delay(0);
        let id = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::Spot {
                    market: market(),
                    bid: Bid(0.12),
                },
                CostCategory::Spot,
            )
            .unwrap();
        // Price exceeds the bid at step 10 (t = 3000 s).
        let events = p.advance_to(10 * TRACE_STEP + REVOCATION_WARNING + 1);
        let warn = events
            .iter()
            .find_map(|e| match e {
                ProviderEvent::RevocationWarning {
                    id: i,
                    at,
                    revoke_at,
                } if *i == id => Some((*at, *revoke_at)),
                _ => None,
            })
            .expect("warning");
        assert_eq!(warn.0, 10 * TRACE_STEP);
        assert_eq!(warn.1, 10 * TRACE_STEP + REVOCATION_WARNING);
        assert!(events.iter().any(
            |e| matches!(e, ProviderEvent::Revoked { id: i, at } if *i == id && *at == warn.1)
        ));
        assert_eq!(p.instance(id).unwrap().state, InstanceState::Terminated);
    }

    #[test]
    fn high_bid_survives_the_spike() {
        let mut p = spiky_provider().with_launch_delay(0);
        let id = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::Spot {
                    market: market(),
                    bid: Bid(0.6),
                },
                CostCategory::Spot,
            )
            .unwrap();
        let events = p.advance_to(30 * TRACE_STEP);
        assert!(events
            .iter()
            .all(|e| !matches!(e, ProviderEvent::Revoked { id: i, .. } if *i == id)));
        assert_eq!(p.instance(id).unwrap().state, InstanceState::Running);
    }

    #[test]
    fn launch_rejects_underpriced_bid() {
        let mut p = spiky_provider();
        p.advance_to(11 * TRACE_STEP); // inside the spike
        let err = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::Spot {
                    market: market(),
                    bid: Bid(0.12),
                },
                CostCategory::Spot,
            )
            .unwrap_err();
        assert!(matches!(err, LaunchError::BidTooLow { .. }));
    }

    #[test]
    fn launch_rejects_unknown_market() {
        let mut p = spiky_provider();
        let err = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::Spot {
                    market: MarketId::new("m4.large", "mars-1a"),
                    bid: Bid(1.0),
                },
                CostCategory::Spot,
            )
            .unwrap_err();
        assert!(matches!(err, LaunchError::UnknownMarket(_)));
    }

    #[test]
    fn billing_integrates_spot_price() {
        let mut p = spiky_provider().with_launch_delay(0);
        p.launch(
            find_type("m4.large").unwrap(),
            Lease::Spot {
                market: market(),
                bid: Bid(10.0),
            },
            CostCategory::Spot,
        )
        .unwrap();
        // 10 cheap steps (0.03) + 5 spike steps (0.5): each step is 1/12 h.
        p.advance_to(15 * TRACE_STEP);
        let expect = (10.0 * 0.03 + 5.0 * 0.5) / 12.0;
        let got = p.ledger().total(CostCategory::Spot);
        assert!((got - expect).abs() < 1e-9, "got {got}, want {expect}");
    }

    #[test]
    fn od_billing_is_linear_and_pending_is_free() {
        let mut p = spiky_provider(); // default 100 s launch delay
        p.launch(
            find_type("m4.large").unwrap(),
            Lease::OnDemand,
            CostCategory::OnDemand,
        )
        .unwrap();
        p.advance_to(LAUNCH_DELAY + 3_600);
        let got = p.ledger().total(CostCategory::OnDemand);
        assert!((got - 0.12).abs() < 1e-9, "got {got}"); // exactly 1 h billed
    }

    #[test]
    fn terminated_instances_stop_billing() {
        let mut p = spiky_provider().with_launch_delay(0);
        let id = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::OnDemand,
                CostCategory::OnDemand,
            )
            .unwrap();
        p.advance_to(3_600);
        p.terminate(id);
        let before = p.ledger().grand_total();
        p.advance_to(7_200);
        assert_eq!(p.ledger().grand_total(), before);
    }

    #[test]
    fn warned_instance_is_still_usable_until_revoked() {
        let mut p = spiky_provider().with_launch_delay(0);
        let id = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::Spot {
                    market: market(),
                    bid: Bid(0.12),
                },
                CostCategory::Spot,
            )
            .unwrap();
        p.advance_to(10 * TRACE_STEP + 1);
        assert!(p.instance(id).unwrap().state.is_usable());
        p.advance_to(10 * TRACE_STEP + REVOCATION_WARNING);
        assert!(!p.instance(id).unwrap().state.is_usable());
    }

    /// A spot instance warned while still launching becomes ready at its
    /// `ready_at`, warned, and is billed only while it runs.
    #[test]
    fn spot_instance_warned_while_pending_runs_until_revoked() {
        let mut p = spiky_provider(); // default 100 s launch delay
        let spike = 10 * TRACE_STEP;
        p.advance_to(spike - 50);
        let id = p
            .launch(
                find_type("m4.large").unwrap(),
                Lease::Spot {
                    market: market(),
                    bid: Bid(0.12),
                },
                CostCategory::Spot,
            )
            .unwrap();
        let ready_at = spike - 50 + LAUNCH_DELAY;
        let revoke_at = spike + REVOCATION_WARNING;
        let events = p.advance_to(revoke_at + 1);
        assert_eq!(
            events,
            [
                ProviderEvent::RevocationWarning {
                    id,
                    at: spike,
                    revoke_at
                },
                ProviderEvent::Ready { id, at: ready_at },
                ProviderEvent::Revoked { id, at: revoke_at },
            ]
        );
        // The spike's 0.5 $/h over [ready_at, revoke_at) only.
        let want = 0.5 * (revoke_at - ready_at) as f64 / 3_600.0;
        let got = p.ledger().total(CostCategory::Spot);
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
    }

    #[test]
    fn burstable_instances_carry_token_state() {
        let mut p = spiky_provider().with_launch_delay(0);
        let id = p
            .launch(
                find_type("t2.medium").unwrap(),
                Lease::OnDemand,
                CostCategory::Backup,
            )
            .unwrap();
        assert!(p.instance(id).unwrap().burst.is_some());
        let od = p
            .launch(
                find_type("m3.medium").unwrap(),
                Lease::OnDemand,
                CostCategory::Backup,
            )
            .unwrap();
        assert!(p.instance(od).unwrap().burst.is_none());
    }
}
