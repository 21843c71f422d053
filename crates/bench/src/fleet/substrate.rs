//! The live control loop's substrate: a [`Fleet`] whose membership
//! follows each plan, on instances leased from a [`CloudProvider`].

use super::{Fleet, FleetConfig};
use spotcache_cloud::billing::CostCategory;
use spotcache_cloud::provider::{CloudProvider, InstanceId, Lease, ProviderEvent};
use spotcache_cloud::spot::SpotTrace;
use spotcache_cloud::{HOUR, TRACE_STEP};
use spotcache_core::backup::BackupPlan;
use spotcache_core::controller::SlotPlan;
use spotcache_core::controlplane::{Demand, Observation, Schedule, Substrate, SubstrateEvent};
use spotcache_obs::Obs;
use spotcache_optimizer::problem::OfferKind;
use spotcache_recovery::strategy::RecoveryStrategy;
use spotcache_router::balancer::NodeWeights;
use spotcache_router::hashring::NodeId;
use spotcache_sim::metrics::{ControlMetrics, ServeCounters, SlotRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A planned member: the offer it was procured under and, once revoked,
/// its on-demand replacement.
struct Member {
    label: String,
    /// Whether the provider's revocation warning has arrived.
    warned: bool,
    replacement: Option<InstanceId>,
}

/// The [`Substrate`] `ControlLoop` drives live: a [`Fleet`] whose members
/// are instances leased from a [`CloudProvider`] (node id = instance id).
///
/// Each hourly slot, [`apply_plan`](Self::apply_plan) reconciles the plan
/// against the provider: per offer label it launches and terminates
/// members, the plan's per-instance hot and cold weights become the
/// fleet's rings, and the backup tier `plan.backup` sizes is leased and
/// billed. A spot member gets its own backup server when the plan has a
/// backup tier; on-demand members never do. Each spot-price step is one
/// fleet window, after which provider time advances: a
/// `RevocationWarning` becomes the fleet's warn, a `Revoked` its kill,
/// and the on-demand replacement launched then its restart, so the
/// fleet's [`RecoveryStrategy`] restores the member from its backup. A
/// revoked member keeps its keys, served through its router, until the
/// next plan drops it. Cost is the provider's ledger.
pub struct FleetSubstrate {
    fleet: Fleet,
    provider: CloudProvider,
    markets: Vec<SpotTrace>,
    schedule: Schedule,
    demand: Box<dyn FnMut(u64) -> Demand>,
    members: BTreeMap<NodeId, Member>,
    /// The billed backup tier.
    backups: Vec<InstanceId>,
    /// Every revoked member and the provider time it went.
    revocations: Vec<(NodeId, u64)>,
    slots: Vec<SlotRecord>,
    serve: ServeCounters,
}

impl FleetSubstrate {
    /// A fleet with no members over `markets`, for `slots` hourly control
    /// slots from `start`; `demand` reports each slot's workload. Servers
    /// record into `obs`.
    pub fn new(
        cfg: &FleetConfig,
        strategy: RecoveryStrategy,
        obs: &Arc<Obs>,
        markets: Vec<SpotTrace>,
        start: u64,
        slots: u64,
        demand: impl FnMut(u64) -> Demand + 'static,
    ) -> Self {
        let mut provider = CloudProvider::new(markets.clone()).with_launch_delay(0);
        provider.advance_to(start);
        Self {
            fleet: Fleet::new(cfg, strategy, obs, None, None),
            provider,
            markets,
            schedule: Schedule {
                start,
                slots,
                slot_secs: HOUR,
                steps_per_slot: HOUR / TRACE_STEP,
            },
            demand: Box::new(demand),
            members: BTreeMap::new(),
            backups: Vec::new(),
            revocations: Vec::new(),
            slots: Vec::new(),
            serve: ServeCounters::default(),
        }
    }

    /// The live fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The provider the members are leased from (clock, instances,
    /// ledger).
    pub fn provider(&self) -> &CloudProvider {
        &self.provider
    }

    /// Every revoked member and the provider time it went.
    pub fn revocations(&self) -> &[(NodeId, u64)] {
        &self.revocations
    }

    /// Reads served so far.
    pub fn serve(&self) -> &ServeCounters {
        &self.serve
    }

    fn usable(&self, id: InstanceId) -> bool {
        self.provider
            .instance(id)
            .is_some_and(|i| i.state.is_usable())
    }

    /// Terminates member `id` and its replacement, and stops its servers.
    fn remove(&mut self, id: NodeId) {
        let member = self.members.remove(&id).expect("a member");
        self.provider.terminate(id);
        if let Some(replacement) = member.replacement {
            self.provider.terminate(replacement);
        }
        self.fleet.leave(id);
    }

    /// Reconciles the fleet against a solved plan: revoked members leave,
    /// each offer's members are launched or terminated to its count, the
    /// plan's weights and hot fraction become the fleet's rings, and the
    /// backup tier is resized.
    pub fn apply_plan(&mut self, plan: &SlotPlan) {
        let revoked: Vec<NodeId> = self
            .members
            .keys()
            .copied()
            .filter(|&id| !self.usable(id))
            .collect();
        for id in revoked {
            self.remove(id);
        }
        let mut running: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (&id, member) in &self.members {
            running.entry(member.label.clone()).or_default().push(id);
        }
        let mut weights = Vec::new();
        for entry in &plan.alloc.entries {
            let label = &entry.offer.label;
            let mut ids = running.remove(label).unwrap_or_default();
            let want = entry.count as usize;
            while ids.len() > want {
                let id = ids.pop().expect("non-empty");
                self.remove(id);
            }
            while ids.len() < want {
                let (lease, category) = match &entry.offer.kind {
                    OfferKind::OnDemand => (Lease::OnDemand, CostCategory::OnDemand),
                    OfferKind::Spot { market, bid } => (
                        Lease::Spot {
                            market: market.clone(),
                            bid: *bid,
                        },
                        CostCategory::Spot,
                    ),
                };
                // A market under water right now launches nothing.
                let Ok(id) = self.provider.launch(entry.offer.itype, lease, category) else {
                    break;
                };
                let backed = entry.offer.kind.is_spot() && plan.backup.count > 0;
                self.fleet.join(id, backed);
                self.members.insert(
                    id,
                    Member {
                        label: label.clone(),
                        warned: false,
                        replacement: None,
                    },
                );
                ids.push(id);
            }
            weights.extend(ids.into_iter().map(|node| NodeWeights {
                node,
                hot: entry.hot_weight_per_instance(),
                cold: entry.cold_weight_per_instance(),
            }));
        }
        // Anything still in `running` belongs to offers no longer planned.
        for id in running.into_values().flatten() {
            self.remove(id);
        }
        self.fleet.set_weights(&weights, plan.forecast.hot_frac);
        self.lease_backups(&plan.backup);
    }

    /// Keeps `plan.count` backup instances of `plan.itype` leased.
    /// Reconciled rather than rebuilt: tearing healthy backups down would
    /// discard (for burstables) their banked tokens.
    fn lease_backups(&mut self, plan: &BackupPlan) {
        let same_type = self
            .backups
            .first()
            .and_then(|&id| self.provider.instance(id))
            .is_none_or(|i| i.itype.name == plan.itype.name);
        if !same_type {
            for id in self.backups.drain(..) {
                self.provider.terminate(id);
            }
        }
        while self.backups.len() > plan.count as usize {
            let id = self.backups.pop().expect("non-empty");
            self.provider.terminate(id);
        }
        while self.backups.len() < plan.count as usize {
            let id = self
                .provider
                .launch(plan.itype, Lease::OnDemand, CostCategory::Backup)
                .expect("on-demand launches never fail");
            self.backups.push(id);
        }
    }

    /// Runs one fleet window, then advances provider time to `until`:
    /// leases are billed, and each warning or revocation of a member is
    /// applied to the fleet and reported.
    pub fn window(&mut self, until: u64) -> Vec<SubstrateEvent> {
        let tally = self.fleet.step();
        self.serve.hits += tally.fresh as u64;
        self.serve.backup_hits += tally.stale as u64;
        self.serve.miss_filled += tally.missed as u64;
        let mut revoked = Vec::new();
        for event in self.provider.advance_to(until) {
            match event {
                ProviderEvent::RevocationWarning { id, .. } => {
                    if let Some(member) = self.members.get_mut(&id) {
                        member.warned = true;
                        self.fleet.warn(id);
                    }
                }
                ProviderEvent::Revoked { id, at } => {
                    let Some(member) = self.members.get_mut(&id) else {
                        continue;
                    };
                    self.fleet.kill(id);
                    let itype = self.provider.instance(id).expect("still listed").itype;
                    let replacement = self
                        .provider
                        .launch(itype, Lease::OnDemand, CostCategory::OnDemand)
                        .expect("on-demand launches never fail");
                    member.replacement = Some(replacement);
                    self.fleet.restart(id);
                    self.revocations.push((id, at));
                    if let Some(slot) = self.slots.last_mut() {
                        slot.revoked += 1;
                    }
                    revoked.push(SubstrateEvent::Revoked {
                        label: member.label.clone(),
                        count: 1,
                        warned: member.warned,
                    });
                }
                ProviderEvent::Ready { .. } => {}
            }
        }
        revoked
    }
}

impl Substrate for &mut FleetSubstrate {
    fn schedule(&self) -> Schedule {
        self.schedule
    }

    fn markets(&self) -> Vec<SpotTrace> {
        self.markets.clone()
    }

    fn observe(&mut self, t: u64) -> Observation {
        let demand = (self.demand)(t);
        Observation {
            actual: demand,
            basis: demand,
        }
    }

    fn act(
        &mut self,
        _t: u64,
        slot: u64,
        plan: &SlotPlan,
        _obs: &Observation,
    ) -> Vec<SubstrateEvent> {
        self.apply_plan(plan);
        self.slots.push(SlotRecord::planned(slot, &plan.alloc));
        Vec::new()
    }

    fn step(&mut self, t: u64, _step: u64) -> Vec<SubstrateEvent> {
        let until = t + TRACE_STEP;
        self.window(until)
    }

    fn finish(self: Box<Self>) -> ControlMetrics {
        self.fleet.close();
        let mut metrics = ControlMetrics::new();
        metrics.ledger = self.provider.ledger().clone();
        metrics.revocations = self.revocations.len() as u32;
        metrics.serve = ServeCounters {
            revocations: metrics.revocations,
            items_copied: self
                .fleet
                .restores()
                .values()
                .map(|r| r.items_restored)
                .sum(),
            ..self.serve
        };
        metrics.slots = std::mem::take(&mut self.slots);
        metrics
    }
}
