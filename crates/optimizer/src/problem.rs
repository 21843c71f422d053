//! The procurement problem (paper Section 4.1, Eq. 1–2 and the cost
//! objective).
//!
//! Decision space: for every *offer* — an on-demand instance type, or a
//! (spot market, bid) pair — choose the hot fraction `x`, the cold
//! fraction `y` of the working set to place there and the integer number of
//! instances `n`. The objective charges predicted resource cost, a bid-
//! failure penalty proportional to `(β₁x + β₂y)·M̂ / L̂` (risk-weighted data
//! exposure over predicted lifetime) and a deallocation damping term
//! `η·max(0, N − n)`.
//!
//! [`ProcurementProblem::solve`] relaxes the integer counts to an LP
//! (solved exactly by [`crate::simplex`]), rounds counts up, re-optimizes
//! the placement with counts fixed, then walks counts downward while the
//! fixed-count LP stays feasible and cheaper — without solving the LPs
//! whose counts already lack the RAM or rate the LP's rows demand.

use spotcache_cloud::catalog::InstanceType;
use spotcache_cloud::spot::{Bid, MarketId};

use crate::plan::{AllocationPlan, PlanEntry};
use crate::simplex::{Constraint, LinearProgram, LpError};

/// The phase-1 objective a capacity shortfall must force before the count
/// walk skips its LP (see [`ProcurementProblem::capacity_short`]).
const PHASE1_MARGIN: f64 = 1e-6;

/// A solved fixed-count LP (see [`ProcurementProblem::solve_fixed_counts`]).
struct FixedCounts {
    /// Hot fraction per offer.
    x: Vec<f64>,
    /// Cold fraction per offer.
    y: Vec<f64>,
    /// Placement (penalty) cost.
    cost: f64,
    /// Simplex pivots the solve took.
    pivots: u32,
}

/// How an offer procures capacity.
#[derive(Debug, Clone, PartialEq)]
pub enum OfferKind {
    /// Regular on-demand capacity (infinite predicted lifetime).
    OnDemand,
    /// A (spot market, bid) pair.
    Spot {
        /// The market.
        market: MarketId,
        /// The bid to place.
        bid: Bid,
    },
}

impl OfferKind {
    /// Whether the offer is spot capacity.
    pub fn is_spot(&self) -> bool {
        matches!(self, OfferKind::Spot { .. })
    }
}

/// One procurement option with its predicted features.
#[derive(Debug, Clone)]
pub struct Offer {
    /// Display label (e.g. `"od:r3.large"` or `"m4.XL-c@1d"`).
    pub label: String,
    /// The underlying instance type.
    pub itype: InstanceType,
    /// Procurement kind.
    pub kind: OfferKind,
    /// Predicted hourly price `p̂` ($/h). On-demand: the list price.
    pub price: f64,
    /// Predicted residual lifetime `L̂`, hours. On-demand: `f64::INFINITY`.
    pub lifetime_hours: f64,
    /// Instances already running under this offer (`N_t`).
    pub existing: u32,
    /// Max per-instance rate under the latency bound (`λ^{sb}`), ops/sec.
    pub max_rate: f64,
    /// Usable cache RAM per instance, GiB.
    pub usable_ram_gb: f64,
}

/// Predicted workload for the upcoming slot.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadForecast {
    /// Arrival rate `λ̂`, ops/sec.
    pub rate: f64,
    /// Working-set size `M̂`, GiB.
    pub wss_gb: f64,
    /// Fraction of the working set that must be memory-resident (`α`).
    pub alpha: f64,
    /// Hot fraction of the working set (`H`, with `0 < H ≤ α`).
    pub hot_frac: f64,
    /// Access mass of the hot set (`F(H)`).
    pub f_hot: f64,
    /// Access mass of the resident set (`F(α)`).
    pub f_alpha: f64,
}

/// Cost-model coefficients.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Penalty coefficient for hot data exposed to bid failure (`β₁`),
    /// $/GiB per slot per predicted-lifetime-hour.
    pub beta_hot: f64,
    /// Penalty coefficient for cold data (`β₂ < β₁`).
    pub beta_cold: f64,
    /// Deallocation damping (`η`), $ per instance released.
    pub dealloc: f64,
    /// Minimum fraction of the resident set kept on on-demand (`ζ`,
    /// relative to `α`).
    pub zeta: f64,
    /// Slot length `Δ`, hours.
    pub(crate) slot_hours: f64,
}

impl CostModel {
    /// The coefficients used throughout the evaluation, chosen (as in the
    /// paper) so every objective term is non-negligible.
    ///
    /// These are the *raw* per-data-fraction coefficients of the paper's
    /// objective. The global controller rescales them by the hot/cold
    /// access-mass ratios each slot (see `spotcache-core`), so that losing
    /// the hot set hurts in proportion to the traffic it carries rather
    /// than the bytes it occupies.
    pub fn paper_default() -> Self {
        Self {
            beta_hot: 0.1,
            beta_cold: 0.05,
            dealloc: 0.01,
            zeta: 0.1,
            slot_hours: 1.0,
        }
    }
}

/// Errors from [`ProcurementProblem::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible allocation exists (e.g. `ζ` demands on-demand capacity
    /// but no on-demand offer was supplied).
    Infeasible,
    /// The inputs are malformed (detail in the message).
    BadInput(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "no feasible allocation"),
            SolveError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The full problem instance.
#[derive(Debug, Clone)]
pub struct ProcurementProblem {
    /// Available offers.
    pub offers: Vec<Offer>,
    /// Workload forecast.
    pub workload: WorkloadForecast,
    /// Cost coefficients.
    pub cost: CostModel,
    /// When true, hot data may only be placed on on-demand offers — the
    /// `OD+Spot_Sep` baseline. When false, hot-cold mixing is allowed.
    pub force_hot_on_od: bool,
    /// When true, cold data may only be placed on spot offers (the other
    /// half of strict hot-cold separation). Ignored when the offer set
    /// contains no spot offers, so an OD-only market never turns
    /// infeasible.
    pub force_cold_on_spot: bool,
}

impl ProcurementProblem {
    /// Validates inputs, returning a message for the first problem found.
    fn validate(&self) -> Result<(), SolveError> {
        let w = &self.workload;
        if self.offers.is_empty() {
            return Err(SolveError::BadInput("no offers".into()));
        }
        if !(w.alpha > 0.0 && w.alpha <= 1.0) {
            return Err(SolveError::BadInput(format!(
                "alpha {} outside (0,1]",
                w.alpha
            )));
        }
        if !(w.hot_frac > 0.0 && w.hot_frac <= w.alpha) {
            return Err(SolveError::BadInput(format!(
                "hot fraction {} outside (0, alpha]",
                w.hot_frac
            )));
        }
        if w.rate < 0.0 || w.wss_gb <= 0.0 {
            return Err(SolveError::BadInput("non-positive workload".into()));
        }
        if w.f_hot > w.f_alpha + 1e-12 {
            return Err(SolveError::BadInput("F(H) > F(alpha)".into()));
        }
        for o in &self.offers {
            if o.usable_ram_gb <= 0.0 || o.max_rate < 0.0 || o.price < 0.0 {
                return Err(SolveError::BadInput(format!("offer {} malformed", o.label)));
            }
        }
        Ok(())
    }

    /// Hot/cold per-unit rate coefficients `r_h`, `r_c` (ops/sec per unit
    /// of x or y): the paper's `λ_t^{sb}` split.
    fn rate_coefficients(&self) -> (f64, f64) {
        let w = &self.workload;
        let r_h = w.rate * w.f_hot / w.hot_frac;
        let cold_span = w.alpha - w.hot_frac;
        let r_c = if cold_span > 1e-12 {
            w.rate * (w.f_alpha - w.f_hot) / cold_span
        } else {
            0.0
        };
        (r_h, r_c)
    }

    /// Per-offer placement-cost coefficients for the x and y variables
    /// (risk penalty, $/unit-fraction/slot).
    fn penalty_coefficients(&self, o: &Offer) -> (f64, f64) {
        if o.lifetime_hours.is_finite() && o.lifetime_hours > 0.0 {
            let f = self.cost.slot_hours * self.workload.wss_gb / o.lifetime_hours;
            (self.cost.beta_hot * f, self.cost.beta_cold * f)
        } else {
            (0.0, 0.0)
        }
    }

    /// Builds the LP relaxation (integer counts relaxed to reals) that
    /// [`Self::solve`] starts from.
    ///
    /// For numerical conditioning the placement variables are *normalized*:
    /// `X = x/H` and `Y = y/(α−H)` live in `[0, 1]` regardless of how tiny
    /// the hot set is (at Zipf 2.0 `H` can be ~1e-7, which would otherwise
    /// put eleven orders of magnitude between LP coefficients).
    ///
    /// Variable layout (k = offers): `[X_0..X_k, Y_0..Y_k, n_0..n_k,
    /// d_0..d_k]`.
    pub(crate) fn relaxation(&self) -> LinearProgram {
        let k = self.offers.len();
        let w = &self.workload;
        let (r_h, r_c) = self.rate_coefficients();
        let h_scale = w.hot_frac;
        let cold_span = (w.alpha - w.hot_frac).max(0.0);
        let c_scale = if cold_span > 1e-12 { cold_span } else { 1.0 };
        let nv = 4 * k;
        let xi = |o: usize| o;
        let yi = |o: usize| k + o;
        let ni = |o: usize| 2 * k + o;
        let di = |o: usize| 3 * k + o;

        let mut obj = vec![0.0; nv];
        for (o, offer) in self.offers.iter().enumerate() {
            let (ph, pc) = self.penalty_coefficients(offer);
            obj[xi(o)] = ph * h_scale;
            obj[yi(o)] = pc * c_scale;
            obj[ni(o)] = offer.price * self.cost.slot_hours;
            obj[di(o)] = self.cost.dealloc;
        }
        let mut lp = LinearProgram::minimize(obj);

        // Eq. 1: the hot and cold masses are fully placed.
        let mut hot_row = vec![0.0; nv];
        let mut cold_row = vec![0.0; nv];
        for o in 0..k {
            hot_row[xi(o)] = 1.0;
            cold_row[yi(o)] = 1.0;
        }
        lp = lp.subject_to(Constraint::eq(hot_row, 1.0));
        lp = lp.subject_to(Constraint::eq(
            cold_row,
            if cold_span > 1e-12 { 1.0 } else { 0.0 },
        ));

        for (o, offer) in self.offers.iter().enumerate() {
            // RAM: n·m ≥ (x + y)·M̂ = (X·H + Y·(α−H))·M̂.
            let mut ram = vec![0.0; nv];
            ram[ni(o)] = offer.usable_ram_gb;
            ram[xi(o)] = -w.wss_gb * h_scale;
            ram[yi(o)] = -w.wss_gb * c_scale;
            lp = lp.subject_to(Constraint::ge(ram, 0.0));
            // Throughput (Eq. 2): n·λ^{sb} ≥ X·(λ̂F(H)) + Y·(λ̂(F(α)−F(H))).
            let mut rate = vec![0.0; nv];
            rate[ni(o)] = offer.max_rate;
            rate[xi(o)] = -r_h * h_scale;
            rate[yi(o)] = -r_c * c_scale;
            lp = lp.subject_to(Constraint::ge(rate, 0.0));
            // Deallocation damping: d ≥ N − n.
            let mut dealloc = vec![0.0; nv];
            dealloc[di(o)] = 1.0;
            dealloc[ni(o)] = 1.0;
            lp = lp.subject_to(Constraint::ge(dealloc, offer.existing as f64));
        }

        // Availability floor: Σ_{OD}(x + y) ≥ ζ·α.
        if self.cost.zeta > 0.0 {
            let mut avail = vec![0.0; nv];
            for (o, offer) in self.offers.iter().enumerate() {
                if !offer.kind.is_spot() {
                    avail[xi(o)] = h_scale;
                    avail[yi(o)] = c_scale;
                }
            }
            lp = lp.subject_to(Constraint::ge(avail, self.cost.zeta * w.alpha));
        }

        // OD+Spot_Sep baseline: no hot data on spot offers.
        let any_spot = self.offers.iter().any(|o| o.kind.is_spot());
        if self.force_hot_on_od && any_spot {
            let mut sep = vec![0.0; nv];
            for (o, offer) in self.offers.iter().enumerate() {
                if offer.kind.is_spot() {
                    sep[xi(o)] = 1.0;
                }
            }
            lp = lp.subject_to(Constraint::le(sep, 0.0));
        }
        // Strict separation: no cold data on on-demand offers.
        if self.force_cold_on_spot && any_spot {
            let mut sep = vec![0.0; nv];
            for (o, offer) in self.offers.iter().enumerate() {
                if !offer.kind.is_spot() {
                    sep[yi(o)] = 1.0;
                }
            }
            lp = lp.subject_to(Constraint::le(sep, 0.0));
        }
        lp
    }

    /// Solves [`Self::relaxation`], converting the normalized placement
    /// variables back to `x`, `y`; also returns its optimum `z_LP` and the
    /// pivots it took.
    fn solve_relaxation(&self) -> Result<(Vec<f64>, f64, u32), SolveError> {
        let k = self.offers.len();
        let w = &self.workload;
        let cold_span = (w.alpha - w.hot_frac).max(0.0);
        match self.relaxation().solve() {
            Ok(s) => {
                let mut out = s.x;
                for o in 0..k {
                    out[o] *= w.hot_frac;
                    out[k + o] *= if cold_span > 1e-12 { cold_span } else { 0.0 };
                }
                Ok((out, s.objective, s.pivots))
            }
            Err(LpError::Infeasible) => Err(SolveError::Infeasible),
            Err(e) => Err(SolveError::BadInput(format!("LP failed: {e}"))),
        }
    }

    /// Re-optimizes placement `(x, y)` with instance counts fixed.
    ///
    /// Returns `None` if infeasible under these counts.
    ///
    /// The LP holds only the offers with `counts[o] > 0`; `x` and `y` are
    /// exactly 0 at the others. That is exact: a zero-count offer's RAM
    /// row `M̂H·X + M̂(α−H)·Y ≤ 0` has both coefficients positive
    /// ([`Self::validate`]), so it already forces `X = Y = 0` there.
    fn solve_fixed_counts(&self, counts: &[u32]) -> Option<FixedCounts> {
        let used: Vec<usize> = (0..self.offers.len()).filter(|&o| counts[o] > 0).collect();
        self.solve_fixed_counts_over(counts, &used)
    }

    /// The fixed-count LP over the offers in `used` (ascending indices).
    fn solve_fixed_counts_over(&self, counts: &[u32], used: &[usize]) -> Option<FixedCounts> {
        let k = used.len();
        let w = &self.workload;
        let (r_h, r_c) = self.rate_coefficients();
        let nv = 2 * k;

        let h_scale = w.hot_frac;
        let cold_span = (w.alpha - w.hot_frac).max(0.0);
        let c_scale = if cold_span > 1e-12 { cold_span } else { 1.0 };
        let offers = || used.iter().map(|&o| &self.offers[o]).enumerate();

        let mut obj = vec![0.0; nv];
        for (v, offer) in offers() {
            let (ph, pc) = self.penalty_coefficients(offer);
            obj[v] = ph * h_scale;
            obj[k + v] = pc * c_scale;
        }
        let mut lp = LinearProgram::minimize(obj);

        let mut hot_row = vec![0.0; nv];
        let mut cold_row = vec![0.0; nv];
        for v in 0..k {
            hot_row[v] = 1.0;
            cold_row[k + v] = 1.0;
        }
        lp = lp.subject_to(Constraint::eq(hot_row, 1.0));
        lp = lp.subject_to(Constraint::eq(
            cold_row,
            if cold_span > 1e-12 { 1.0 } else { 0.0 },
        ));

        for (v, offer) in offers() {
            let n = counts[used[v]] as f64;
            let mut ram = vec![0.0; nv];
            ram[v] = w.wss_gb * h_scale;
            ram[k + v] = w.wss_gb * c_scale;
            lp = lp.subject_to(Constraint::le(ram, n * offer.usable_ram_gb));
            let mut rate = vec![0.0; nv];
            rate[v] = r_h * h_scale;
            rate[k + v] = r_c * c_scale;
            lp = lp.subject_to(Constraint::le(rate, n * offer.max_rate));
        }
        if self.cost.zeta > 0.0 {
            let mut avail = vec![0.0; nv];
            for (v, offer) in offers() {
                if !offer.kind.is_spot() {
                    avail[v] = h_scale;
                    avail[k + v] = c_scale;
                }
            }
            lp = lp.subject_to(Constraint::ge(avail, self.cost.zeta * w.alpha));
        }
        let any_spot = self.offers.iter().any(|o| o.kind.is_spot());
        if self.force_hot_on_od && any_spot {
            let mut sep = vec![0.0; nv];
            for (v, offer) in offers() {
                if offer.kind.is_spot() {
                    sep[v] = 1.0;
                }
            }
            lp = lp.subject_to(Constraint::le(sep, 0.0));
        }
        if self.force_cold_on_spot && any_spot {
            let mut sep = vec![0.0; nv];
            for (v, offer) in offers() {
                if !offer.kind.is_spot() {
                    sep[k + v] = 1.0;
                }
            }
            lp = lp.subject_to(Constraint::le(sep, 0.0));
        }

        let s = lp.solve().ok()?;
        let y_scale = if cold_span > 1e-12 { c_scale } else { 0.0 };
        let (mut x, mut y) = (vec![0.0; counts.len()], vec![0.0; counts.len()]);
        for (v, &o) in used.iter().enumerate() {
            x[o] = s.x[v] * h_scale;
            y[o] = s.x[k + v] * y_scale;
        }
        Some(FixedCounts {
            x,
            y,
            cost: s.objective,
            pivots: s.pivots,
        })
    }

    /// Whether `counts` fall short of the workload by more than the
    /// fixed-count LP could absorb, so [`Self::solve_fixed_counts`] can
    /// only return `None`. The necessary conditions are sums of that LP's
    /// RAM and rate rows over a group of offers:
    ///
    /// * all offers hold the hot and cold mass: Σ n·m ≥ M̂·(H + (α−H)) and
    ///   Σ n·λ^{sb} ≥ r_h·H + r_c·(α−H);
    /// * on-demand offers hold the ζ floor, Σ_{OD} n·m ≥ M̂·ζ·α, and, when
    ///   hot data is kept off spot, the hot mass (RAM and rate);
    /// * when cold data is kept off on-demand, spot offers hold the cold
    ///   mass (RAM and rate),
    ///
    /// with α−H read as 0 when the LP drops the cold mass (≤ 1e-12). A
    /// shortfall leaves the hot or cold equality or the floor to phase 1's
    /// artificials, which must then sum to at least the shortfall over the
    /// largest coefficient of the rows summed — the factor
    /// [`crate::simplex`] equilibrates each of those rows by, so the bound
    /// is in the solver's own units. A check fails only when that bound
    /// exceeds 1e-6, ten times the 1e-7 phase-1 objective above which the
    /// solver reports infeasible. At the controller's α = 1 the row scales
    /// are within a factor of two of the total needs; for the ζ = 0.1 floor
    /// a margin relative to the need would bound the artificial by exactly
    /// 1e-7, no margin at all.
    fn capacity_short(&self, counts: &[u32]) -> bool {
        let w = &self.workload;
        let (r_h, r_c) = self.rate_coefficients();
        let cold_span = (w.alpha - w.hot_frac).max(0.0);
        let (cold, c_scale) = if cold_span > 1e-12 {
            (cold_span, cold_span)
        } else {
            (0.0, 1.0)
        };
        // (RAM, rate) the counts provide on on-demand and on spot offers.
        let (mut od, mut spot) = ((0.0, 0.0), (0.0, 0.0));
        for (offer, &n) in self.offers.iter().zip(counts) {
            let group = if offer.kind.is_spot() {
                &mut spot
            } else {
                &mut od
            };
            group.0 += n as f64 * offer.usable_ram_gb;
            group.1 += n as f64 * offer.max_rate;
        }
        let any_spot = self.offers.iter().any(|o| o.kind.is_spot());
        let (ram_scale, rate_scale) = (
            w.wss_gb * w.hot_frac.max(c_scale),
            (r_h * w.hot_frac).max(r_c * c_scale),
        );
        // Whether `(ram, rate)` cannot hold `hot` and `cold` fractions of
        // the working set, or a `floor` fraction of it in RAM.
        let short = |(ram, rate): (f64, f64), hot: f64, cold: f64, floor: f64| {
            w.wss_gb * (hot + cold).max(floor) - ram > PHASE1_MARGIN * ram_scale
                || r_h * hot + r_c * cold - rate > PHASE1_MARGIN * rate_scale
        };
        let only_if = |forced: bool, frac: f64| if forced && any_spot { frac } else { 0.0 };
        // A ζ ≤ 0 floor is below any need, as its missing row is.
        let zeta_floor = self.cost.zeta * w.alpha;
        short((od.0 + spot.0, od.1 + spot.1), w.hot_frac, cold, 0.0)
            || short(
                od,
                only_if(self.force_hot_on_od, w.hot_frac),
                0.0,
                zeta_floor,
            )
            || short(spot, 0.0, only_if(self.force_cold_on_spot, cold), 0.0)
    }

    /// Total cost of a candidate `(counts, placement_cost)` solution.
    fn total_cost(&self, counts: &[u32], placement_cost: f64) -> f64 {
        let mut c = placement_cost;
        for (o, offer) in self.offers.iter().enumerate() {
            c += offer.price * self.cost.slot_hours * counts[o] as f64;
            c += self.cost.dealloc * (offer.existing.saturating_sub(counts[o])) as f64;
        }
        c
    }

    /// A plan of `entries` chosen without the LP: priced at its resource
    /// cost over this problem's slot, with no relaxation behind it.
    pub fn priced(&self, entries: Vec<PlanEntry>) -> AllocationPlan {
        let plan = AllocationPlan::new(entries, 0.0, self.cost.slot_hours);
        AllocationPlan {
            cost: plan.resource_cost(),
            ..plan
        }
    }

    /// Solves the procurement problem; the plan's entries take its offers.
    pub fn solve(self) -> Result<AllocationPlan, SolveError> {
        self.validate()?;
        let k = self.offers.len();
        let (relaxed, relaxed_cost, mut lp_pivots) = self.solve_relaxation()?;
        let mut counts: Vec<u32> = (0..k)
            .map(|o| (relaxed[2 * k + o] - 1e-9).ceil().max(0.0) as u32)
            .collect();

        let rounded = self
            .solve_fixed_counts(&counts)
            .ok_or(SolveError::Infeasible)?;
        lp_pivots += rounded.pivots;
        let mut best = self.total_cost(&counts, rounded.cost);
        let FixedCounts { mut x, mut y, .. } = rounded;
        let (mut lps_solved, mut lps_skipped) = (2, 0);

        // Walk counts downward while it helps (the rounding-up step can
        // leave slack, especially with many small offers). A step whose
        // counts are too short to carry the workload is skipped unsolved,
        // exactly as if its LP had come back infeasible.
        let mut improved = true;
        let mut guard = 0;
        while improved && guard < 10 * k + 20 {
            improved = false;
            guard += 1;
            for o in 0..k {
                if counts[o] == 0 {
                    continue;
                }
                counts[o] -= 1;
                let fixed = if self.capacity_short(&counts) {
                    debug_assert!(
                        self.solve_fixed_counts(&counts).is_none(),
                        "skipped a feasible fixed-count LP at {counts:?}"
                    );
                    lps_skipped += 1;
                    None
                } else {
                    lps_solved += 1;
                    self.solve_fixed_counts(&counts)
                };
                if let Some(f) = fixed {
                    lp_pivots += f.pivots;
                    let cost = self.total_cost(&counts, f.cost);
                    if cost < best - 1e-9 {
                        best = cost;
                        x = f.x;
                        y = f.y;
                        improved = true;
                        continue;
                    }
                }
                counts[o] += 1;
            }
        }

        let entries = self
            .offers
            .into_iter()
            .enumerate()
            .map(|(o, offer)| PlanEntry {
                offer,
                count: counts[o],
                hot_frac: x[o].max(0.0),
                cold_frac: y[o].max(0.0),
            })
            .collect();
        Ok(AllocationPlan {
            relaxed_cost,
            lps_solved,
            lps_skipped,
            lp_pivots,
            ..AllocationPlan::new(entries, best, self.cost.slot_hours)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::catalog::find_type;

    fn od_offer(name: &str, price_mult: f64) -> Offer {
        let itype = find_type(name).unwrap();
        Offer {
            label: format!("od:{name}"),
            itype,
            kind: OfferKind::OnDemand,
            price: itype.od_price * price_mult,
            lifetime_hours: f64::INFINITY,
            existing: 0,
            max_rate: 12_000.0,
            usable_ram_gb: itype.ram_gb * 0.85,
        }
    }

    fn spot_offer(name: &str, price: f64, lifetime_hours: f64) -> Offer {
        let itype = find_type(name).unwrap();
        Offer {
            label: format!("spot:{name}"),
            itype,
            kind: OfferKind::Spot {
                market: MarketId::new(name, "us-east-1d"),
                bid: Bid(itype.od_price),
            },
            price,
            lifetime_hours,
            existing: 0,
            max_rate: 12_000.0,
            usable_ram_gb: itype.ram_gb * 0.85,
        }
    }

    fn workload() -> WorkloadForecast {
        WorkloadForecast {
            rate: 50_000.0,
            wss_gb: 60.0,
            alpha: 1.0,
            hot_frac: 0.1,
            f_hot: 0.9,
            f_alpha: 1.0,
        }
    }

    #[test]
    fn od_only_problem_provisions_for_ram_and_rate() {
        let p = ProcurementProblem {
            offers: vec![od_offer("m4.large", 1.0)],
            workload: workload(),
            cost: CostModel::paper_default(),
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        let plan = p.solve().unwrap();
        let e = &plan.entries[0];
        // RAM: 60 GB / 6.8 GB = 8.8 → ≥ 9; rate: 50k/12k = 4.2 → RAM binds.
        assert_eq!(e.count, 9);
        assert!((e.hot_frac - 0.1).abs() < 1e-6);
        assert!((e.cold_frac - 0.9).abs() < 1e-6);
    }

    #[test]
    fn cheap_spot_attracts_most_data_under_mixing() {
        let p = ProcurementProblem {
            offers: vec![
                od_offer("m4.large", 1.0),
                spot_offer("m4.large", 0.03, 48.0),
            ],
            workload: workload(),
            cost: CostModel::paper_default(),
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        let plan = p.solve().unwrap();
        let spot = plan
            .entries
            .iter()
            .find(|e| e.offer.kind.is_spot())
            .unwrap();
        let od = plan
            .entries
            .iter()
            .find(|e| !e.offer.kind.is_spot())
            .unwrap();
        assert!(
            spot.count > od.count,
            "spot {} vs od {}",
            spot.count,
            od.count
        );
        // ζ floor keeps some data on OD.
        assert!(od.hot_frac + od.cold_frac >= 0.1 - 1e-6);
        // Mixing: the spot offer carries hot data too.
        assert!(spot.hot_frac > 0.0);
    }

    #[test]
    fn separation_keeps_hot_off_spot() {
        let p = ProcurementProblem {
            offers: vec![
                od_offer("m4.large", 1.0),
                spot_offer("m4.large", 0.03, 48.0),
            ],
            workload: workload(),
            cost: CostModel::paper_default(),
            force_hot_on_od: true,
            force_cold_on_spot: false,
        };
        let plan = p.solve().unwrap();
        let spot = plan
            .entries
            .iter()
            .find(|e| e.offer.kind.is_spot())
            .unwrap();
        assert!(spot.hot_frac < 1e-9, "hot on spot: {}", spot.hot_frac);
        let od = plan
            .entries
            .iter()
            .find(|e| !e.offer.kind.is_spot())
            .unwrap();
        assert!((od.hot_frac - 0.1).abs() < 1e-6);
    }

    #[test]
    fn mixing_is_never_costlier_than_separation() {
        for lifetime in [2.0, 12.0, 72.0] {
            let offers = vec![
                od_offer("m4.large", 1.0),
                spot_offer("m4.large", 0.03, lifetime),
            ];
            let mix = ProcurementProblem {
                offers: offers.clone(),
                workload: workload(),
                cost: CostModel::paper_default(),
                force_hot_on_od: false,
                force_cold_on_spot: false,
            }
            .solve()
            .unwrap();
            let sep = ProcurementProblem {
                offers,
                workload: workload(),
                cost: CostModel::paper_default(),
                force_hot_on_od: true,
                force_cold_on_spot: false,
            }
            .solve()
            .unwrap();
            assert!(
                mix.cost <= sep.cost + 1e-6,
                "lifetime {lifetime}: mix {} vs sep {}",
                mix.cost,
                sep.cost
            );
        }
    }

    #[test]
    fn short_lifetime_repels_hot_data() {
        // With a flapping spot market the penalty pushes hot data to OD
        // even under mixing.
        let p = ProcurementProblem {
            offers: vec![
                od_offer("m4.large", 1.0),
                spot_offer("m4.large", 0.03, 0.05),
            ],
            workload: workload(),
            cost: CostModel::paper_default(),
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        let plan = p.solve().unwrap();
        let spot = plan
            .entries
            .iter()
            .find(|e| e.offer.kind.is_spot())
            .unwrap();
        let od = plan
            .entries
            .iter()
            .find(|e| !e.offer.kind.is_spot())
            .unwrap();
        assert!(
            od.hot_frac > spot.hot_frac,
            "od {} vs spot {}",
            od.hot_frac,
            spot.hot_frac
        );
    }

    #[test]
    fn zeta_floor_is_respected() {
        let mut cost = CostModel::paper_default();
        cost.zeta = 0.5;
        let p = ProcurementProblem {
            offers: vec![
                od_offer("m4.large", 1.0),
                spot_offer("m4.large", 0.01, 100.0),
            ],
            workload: workload(),
            cost,
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        let plan = p.solve().unwrap();
        let od_share: f64 = plan
            .entries
            .iter()
            .filter(|e| !e.offer.kind.is_spot())
            .map(|e| e.hot_frac + e.cold_frac)
            .sum();
        assert!(od_share >= 0.5 - 1e-6, "od share {od_share}");
    }

    #[test]
    fn dealloc_damping_retains_instances() {
        let mut with_existing = od_offer("m4.large", 1.0);
        with_existing.existing = 12; // more than needed
        let mut cost = CostModel::paper_default();
        cost.dealloc = 1.0; // releasing costs more than keeping ($0.12/h)
        let p = ProcurementProblem {
            offers: vec![with_existing],
            workload: workload(),
            cost,
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        let plan = p.solve().unwrap();
        assert_eq!(plan.entries[0].count, 12, "damping should retain all 12");
        // With cheap dealloc it scales down to the 9 actually needed.
        let mut cheap = CostModel::paper_default();
        cheap.dealloc = 0.0;
        let mut offer = od_offer("m4.large", 1.0);
        offer.existing = 12;
        let p2 = ProcurementProblem {
            offers: vec![offer],
            workload: workload(),
            cost: cheap,
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        assert_eq!(p2.solve().unwrap().entries[0].count, 9);
    }

    #[test]
    fn infeasible_without_od_when_zeta_positive() {
        let p = ProcurementProblem {
            offers: vec![spot_offer("m4.large", 0.03, 48.0)],
            workload: workload(),
            cost: CostModel::paper_default(),
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let mut w = workload();
        w.alpha = 0.0;
        let p = ProcurementProblem {
            offers: vec![od_offer("m4.large", 1.0)],
            workload: w,
            cost: CostModel::paper_default(),
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        assert!(matches!(p.solve().unwrap_err(), SolveError::BadInput(_)));
        let empty = ProcurementProblem {
            offers: vec![],
            workload: workload(),
            cost: CostModel::paper_default(),
            force_hot_on_od: false,
            force_cold_on_spot: false,
        };
        assert!(matches!(
            empty.solve().unwrap_err(),
            SolveError::BadInput(_)
        ));
    }

    /// Offer tuple drawn by the capacity-edge proptests: (spot, RAM GiB,
    /// max rate, price, existing, count).
    type OfferDraw = (bool, f64, f64, f64, u32, u32);

    /// The problem and counts of one capacity-edge case (see
    /// `a_skipped_count_walk_step_is_an_infeasible_lp`), and the relative
    /// offset its need was moved to.
    fn capacity_edge(
        offers: &[OfferDraw],
        (hot_kind, half_alpha, f_hot, f_cold): (u8, bool, f64, f64),
        (rate, wss_gb): (f64, f64),
        (zeta_kind, force_hot_on_od, force_cold_on_spot): (u8, bool, bool),
        (bound, rel_kind): (u8, u8),
    ) -> (ProcurementProblem, Vec<u32>, f64) {
        let itype = find_type("m4.large").unwrap();
        let counts: Vec<u32> = offers.iter().map(|o| o.5).collect();
        let offers: Vec<Offer> = offers
            .iter()
            .enumerate()
            .map(|(i, &(spot, ram, max_rate, price, existing, _))| Offer {
                label: format!("o{i}"),
                itype,
                kind: if spot {
                    OfferKind::Spot {
                        market: MarketId::new("m4.large", format!("z{i}")),
                        bid: Bid(price),
                    }
                } else {
                    OfferKind::OnDemand
                },
                price,
                lifetime_hours: if spot {
                    0.05 + 40.0 * price
                } else {
                    f64::INFINITY
                },
                existing,
                max_rate,
                usable_ram_gb: ram,
            })
            .collect();
        let alpha = if half_alpha { 0.6 } else { 1.0 };
        let hot_frac = [1e-7, 1e-4, 0.1, 0.5, alpha, alpha - 1e-13][hot_kind as usize];
        let mut p = ProcurementProblem {
            offers,
            workload: WorkloadForecast {
                rate,
                wss_gb,
                alpha,
                hot_frac,
                f_hot,
                f_alpha: f_hot + (1.0 - f_hot) * f_cold,
            },
            cost: CostModel {
                zeta: [0.0, 0.1, 0.5][zeta_kind as usize],
                ..CostModel::paper_default()
            },
            force_hot_on_od,
            force_cold_on_spot,
        };

        // Move one need to its group's capacity times `1 + rel`: all
        // offers' RAM or rate, the on-demand offers' ζ floor, hot RAM or
        // hot rate, the spot offers' cold RAM or cold rate.
        let rel = [-1e-9, 0.0, 1e-9, 1e-5, 1e-3, -1e-5][rel_kind as usize];
        let capacity = |spot: Option<bool>, ram: bool| -> f64 {
            p.offers
                .iter()
                .zip(&counts)
                .filter(|(o, _)| spot.is_none_or(|s| o.kind.is_spot() == s))
                .map(|(o, &n)| n as f64 * if ram { o.usable_ram_gb } else { o.max_rate })
                .sum()
        };
        let cold = if alpha - hot_frac > 1e-12 {
            alpha - hot_frac
        } else {
            0.0
        };
        // `rate_coefficients` per unit of λ̂.
        let r_h = f_hot / hot_frac;
        let r_c = if cold > 0.0 {
            (p.workload.f_alpha - f_hot) / cold
        } else {
            0.0
        };
        // (capacity, need per unit of M̂ or λ̂, whether it is a rate)
        let (have, per_unit, is_rate) = match bound {
            1 => (capacity(None, true), hot_frac + cold, false),
            2 => (capacity(None, false), r_h * hot_frac + r_c * cold, true),
            3 => (capacity(Some(false), true), p.cost.zeta * alpha, false),
            4 => (capacity(Some(false), true), hot_frac, false),
            5 => (capacity(Some(false), false), r_h * hot_frac, true),
            6 => (capacity(Some(true), true), cold, false),
            7 => (capacity(Some(true), false), r_c * cold, true),
            _ => (0.0, 0.0, false),
        };
        if have > 0.0 && per_unit > 0.0 {
            let need = have * (1.0 + rel) / per_unit;
            if is_rate {
                p.workload.rate = need;
            } else {
                p.workload.wss_gb = need;
            }
        }
        (p, counts, rel)
    }

    proptest::proptest! {
        /// The count walk's skip is sound: whenever `capacity_short` says
        /// the counts cannot carry the workload, the fixed-count LP is
        /// infeasible. 1–15 on-demand and spot offers, α ∈ {1, 0.6}, H from
        /// 1e-7 to α (cold span 0 and ≤ 1e-12 included), ζ ∈ {0, 0.1, 0.5},
        /// both separation flags; seven eighths of the cases move one RAM
        /// or rate need to the counts' capacity — within 1e-9 relative,
        /// where a margin on the wrong side of the solver's tolerance would
        /// skip a feasible LP, or 1e-5 and 1e-3 short, where the skip must
        /// fire. Then the whole walk, whose debug assertion re-solves every
        /// skipped LP. (α itself near 1e-7 with the cold mass dropped is left
        /// out: the LP then keeps `Y` coefficients of M̂ beside `X`'s M̂·H,
        /// and the solver accepts counts 0.4 % short of the rate; the
        /// controller's α is 1.)
        #[test]
        fn a_skipped_count_walk_step_is_an_infeasible_lp(
            offers in proptest::collection::vec(
                (proptest::arbitrary::any::<bool>(), 0.5f64..250.0, 0.0f64..60_000.0, 0.0f64..5.0, 0u32..20, 0u32..12),
                1..=15,
            ),
            (hot_kind, half_alpha, f_hot, f_cold) in (0u8..6, proptest::arbitrary::any::<bool>(), 0.01f64..=1.0, 0.0f64..=1.0),
            (rate, wss_gb) in (0.0f64..500_000.0, 1.0f64..500.0),
            (zeta_kind, force_hot_on_od, force_cold_on_spot) in (0u8..3, proptest::arbitrary::any::<bool>(), proptest::arbitrary::any::<bool>()),
            (bound, rel_kind) in (0u8..8, 0u8..6),
        ) {
            use proptest::prelude::*;
            let (p, counts, rel) = capacity_edge(
                &offers,
                (hot_kind, half_alpha, f_hot, f_cold),
                (rate, wss_gb),
                (zeta_kind, force_hot_on_od, force_cold_on_spot),
                (bound, rel_kind),
            );
            prop_assert!(p.validate().is_ok());
            if p.capacity_short(&counts) {
                prop_assert!(
                    p.solve_fixed_counts(&counts).is_none(),
                    "skipped a feasible LP: bound {} rel {} counts {:?}",
                    bound,
                    rel,
                    counts
                );
            }
            // The whole walk, with its debug assertion at every skip.
            let _ = p.solve();
        }

        /// Dropping the zero-count offers from the fixed-count LP is exact:
        /// on the problems above (zero counts included) the LP over every
        /// offer agrees on `Some`/`None` and on the objective's bits, and
        /// the placement is exactly 0 at each zero-count offer.
        #[test]
        fn zero_count_offers_leave_the_fixed_count_lp_unchanged(
            offers in proptest::collection::vec(
                (proptest::arbitrary::any::<bool>(), 0.5f64..250.0, 0.0f64..60_000.0, 0.0f64..5.0, 0u32..20, 0u32..12),
                1..=15,
            ),
            (hot_kind, half_alpha, f_hot, f_cold) in (0u8..6, proptest::arbitrary::any::<bool>(), 0.01f64..=1.0, 0.0f64..=1.0),
            (rate, wss_gb) in (0.0f64..500_000.0, 1.0f64..500.0),
            (zeta_kind, force_hot_on_od, force_cold_on_spot) in (0u8..3, proptest::arbitrary::any::<bool>(), proptest::arbitrary::any::<bool>()),
            (bound, rel_kind) in (0u8..8, 0u8..6),
        ) {
            use proptest::prelude::*;
            let (p, counts, _) = capacity_edge(
                &offers,
                (hot_kind, half_alpha, f_hot, f_cold),
                (rate, wss_gb),
                (zeta_kind, force_hot_on_od, force_cold_on_spot),
                (bound, rel_kind),
            );
            let every: Vec<usize> = (0..counts.len()).collect();
            let dropped = p.solve_fixed_counts(&counts);
            let reference = p.solve_fixed_counts_over(&counts, &every);
            prop_assert_eq!(dropped.is_some(), reference.is_some(), "counts {:?}", counts);
            if let (Some(d), Some(r)) = (dropped, reference) {
                prop_assert_eq!(
                    d.cost.to_bits(),
                    r.cost.to_bits(),
                    "{:e} vs {:e} at counts {:?}",
                    d.cost,
                    r.cost,
                    counts
                );
                for (o, _) in counts.iter().enumerate().filter(|(_, &n)| n == 0) {
                    prop_assert!(d.x[o].to_bits() == 0 && d.y[o].to_bits() == 0);
                }
            }
        }
    }

    #[test]
    fn plan_is_always_feasible() {
        // Feasibility audit across a parameter sweep.
        for rate in [10_000.0, 100_000.0, 300_000.0] {
            for wss in [10.0, 60.0] {
                let mut w = workload();
                w.rate = rate;
                w.wss_gb = wss;
                let p = ProcurementProblem {
                    offers: vec![
                        od_offer("m4.large", 1.0),
                        od_offer("r3.large", 1.0),
                        spot_offer("m4.large", 0.03, 24.0),
                        spot_offer("m4.xlarge", 0.06, 10.0),
                    ],
                    workload: w,
                    cost: CostModel::paper_default(),
                    force_hot_on_od: false,
                    force_cold_on_spot: false,
                };
                let plan = p.solve().unwrap();
                plan.assert_feasible(&w);
            }
        }
    }
}
