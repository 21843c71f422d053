//! A dense two-phase primal simplex solver for small linear programs.
//!
//! Solves `min c·x` subject to `A x {≤,=,≥} b`, `x ≥ 0`. The paper's
//! procurement problem has a few dozen variables and constraints, far below
//! anything that needs a sparse or revised implementation; a dense tableau
//! with Bland's anti-cycling rule is simple, exact, and easy to audit.
//!
//! # Start basis
//!
//! Each row is divided by its largest coefficient and multiplied by −1
//! when its rhs is negative or when it is a `≥` row with zero rhs
//! (`a·x ≥ 0` becomes `−a·x ≤ 0`). A row that is then `≤` starts on its
//! own slack, basic at its rhs (≥ 0). Only the rows left over — `≥` rows
//! with a positive rhs and every `=` row — start on an artificial, and
//! phase 1 runs only when one exists. Multiplying a row by −1 leaves the
//! feasible set, and so the optimal value, unchanged; which optimal vertex
//! the pivots end on may differ. In the procurement relaxation every RAM
//! and rate row, and every deallocation row of an offer with nothing
//! running, is such a zero-rhs `≥` row.
//!
//! # Tableau layout
//!
//! The tableau is one flat row-major `Vec<f64>`; a row is `[structural(n) |
//! slack/surplus(m) | rhs]`. Artificial variables have *indices*
//! (`n + m + i` for row `i`) — a row's basic variable can be its artificial,
//! phase 1 prices it at 1, Bland's tie-break compares it — but no stored
//! column. Dropping those `m` columns is exact: artificials are barred from
//! entering in both phases, so after initialisation a stored artificial
//! column would only ever be written (scaled and eliminated with the rest
//! of its row), never read. Reduced costs cover enterable columns, the ratio
//! test reads the entering column and the rhs, driving a degenerate
//! artificial out searches the real columns, and the solution is read from
//! the rhs. Every retained cell sees the operations it would see in the
//! `n + 2m + 1`-wide layout, in the same order, so pivots and results are
//! bit-identical to it.

/// Relation of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `coeffs · x ≤ rhs`.
    Le,
    /// `coeffs · x = rhs`.
    Eq,
    /// `coeffs · x ≥ rhs`.
    Ge,
}

/// One linear constraint.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients over the structural variables.
    pub coeffs: Vec<f64>,
    /// Relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Builds a `≤` constraint.
    pub fn le(coeffs: Vec<f64>, rhs: f64) -> Self {
        Self {
            coeffs,
            rel: Rel::Le,
            rhs,
        }
    }

    /// Builds an `=` constraint.
    pub fn eq(coeffs: Vec<f64>, rhs: f64) -> Self {
        Self {
            coeffs,
            rel: Rel::Eq,
            rhs,
        }
    }

    /// Builds a `≥` constraint.
    pub fn ge(coeffs: Vec<f64>, rhs: f64) -> Self {
        Self {
            coeffs,
            rel: Rel::Ge,
            rhs,
        }
    }
}

/// A linear program: `min objective · x` s.t. constraints, `x ≥ 0`.
///
/// # Examples
///
/// ```
/// use spotcache_optimizer::simplex::{Constraint, LinearProgram};
///
/// // min x + 2y  s.t.  x + y >= 4,  x <= 3.
/// let lp = LinearProgram::minimize(vec![1.0, 2.0])
///     .subject_to(Constraint::ge(vec![1.0, 1.0], 4.0))
///     .subject_to(Constraint::le(vec![1.0, 0.0], 3.0));
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 5.0).abs() < 1e-6); // x = 3, y = 1
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Objective coefficients (minimization).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// A solved program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal structural variable values.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
    /// Pivots the solve took: both phases, and driving degenerate
    /// artificials out between them.
    pub pivots: u32,
}

/// Solver failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// A constraint row's width does not match the objective's.
    DimensionMismatch,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible linear program"),
            LpError::Unbounded => write!(f, "unbounded linear program"),
            LpError::DimensionMismatch => write!(f, "constraint width mismatch"),
        }
    }
}

impl std::error::Error for LpError {}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Creates a program minimizing `objective · x`.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Self {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (builder style).
    pub fn subject_to(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Solves the program with the two-phase simplex method.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_from(|c| c.rhs < 0.0 || (c.rhs == 0.0 && c.rel == Rel::Ge))
    }

    /// [`Self::solve`] with the start it replaced, the reference its
    /// optimum is proven equal to: only a negative rhs flips a row, so a
    /// `≥` row with zero rhs starts on an artificial that phase 1 pivots
    /// out.
    #[cfg(test)]
    fn solve_with_zero_ge_artificials(&self) -> Result<LpSolution, LpError> {
        self.solve_from(|c| c.rhs < 0.0)
    }

    /// The two-phase simplex, multiplying by −1 each row `flip` names
    /// before the start basis is chosen (see the module docs).
    fn solve_from(&self, flip: impl Fn(&Constraint) -> bool) -> Result<LpSolution, LpError> {
        let n = self.objective.len();
        for c in &self.constraints {
            if c.coeffs.len() != n {
                return Err(LpError::DimensionMismatch);
            }
        }
        let m = self.constraints.len();

        // Column indices: [structural(n) | slack/surplus(m, some unused) |
        // artificial(m, some unused)]. The tableau stores the first two
        // groups and the rhs; artificial indices exist only in `basis` and
        // `cost` (see the module docs).
        let slack0 = n;
        let art0 = n + m;
        let mut t = Tableau {
            cells: vec![0.0f64; m * (art0 + 1)],
            width: art0 + 1,
            basis: vec![usize::MAX; m],
            basic: vec![false; art0],
            pivot_row: vec![0.0f64; art0 + 1],
            pivots: 0,
        };
        let rhs_col = t.rhs_col();

        for (i, c) in self.constraints.iter().enumerate() {
            // Row equilibration: divide each row by its largest structural
            // coefficient so rows with ops/sec-scale numbers (1e5) and
            // fraction-scale numbers (1e-1) pivot against comparable
            // magnitudes. The feasible set is unchanged.
            let row_scale = c
                .coeffs
                .iter()
                .fold(0.0f64, |m, &a| m.max(a.abs()))
                .max(1e-12);
            let flip = flip(c);
            let sign = if flip { -1.0 } else { 1.0 } / row_scale;
            let row = t.row_mut(i);
            for (cell, &a) in row.iter_mut().zip(&c.coeffs) {
                *cell = sign * a;
            }
            row[rhs_col] = sign * c.rhs;
            let rel = match (c.rel, flip) {
                (Rel::Le, false) | (Rel::Ge, true) => Rel::Le,
                (Rel::Ge, false) | (Rel::Le, true) => Rel::Ge,
                (Rel::Eq, _) => Rel::Eq,
            };
            let b = match rel {
                Rel::Le => {
                    row[slack0 + i] = 1.0;
                    slack0 + i
                }
                Rel::Ge => {
                    row[slack0 + i] = -1.0; // surplus
                    art0 + i
                }
                Rel::Eq => art0 + i,
            };
            t.basis[i] = b;
            if b < art0 {
                t.basic[b] = true;
            }
        }

        // Phase 1: minimize the sum of artificials. Artificial columns are
        // barred from entering (they start basic and only ever leave).
        if t.basis.iter().any(|&b| b >= art0) {
            let mut cost = vec![0.0f64; n + 2 * m];
            for &b in &t.basis {
                if b >= art0 {
                    cost[b] = 1.0;
                }
            }
            let obj = t.run_simplex(&cost)?;
            if obj > 1e-7 {
                return Err(LpError::Infeasible);
            }
            // Drive degenerately-basic artificials out; a row whose
            // artificial cannot leave (all real coefficients zero) is a
            // redundant constraint and is deleted outright. Leaving such a
            // row in with a big-M cost would contaminate phase-2 reduced
            // costs with `1e30 × (numerical noise)` and corrupt the
            // solution.
            let mut i = 0;
            while i < t.rows() {
                if t.basis[i] >= art0 {
                    if let Some(j) = t.row(i)[..art0].iter().position(|v| v.abs() > 1e-7) {
                        t.pivot(i, j);
                        i += 1;
                    } else {
                        t.remove_row(i);
                    }
                } else {
                    i += 1;
                }
            }
        }

        // Phase 2: original objective; artificial columns are all non-basic
        // now and remain barred from entering.
        let mut cost = vec![0.0f64; n + 2 * m];
        cost[..n].copy_from_slice(&self.objective);
        let objective = t.run_simplex(&cost)?;

        let mut x = vec![0.0f64; n];
        for (i, &b) in t.basis.iter().enumerate() {
            if b < n {
                x[b] = t.row(i)[rhs_col];
            }
        }
        Ok(LpSolution {
            x,
            objective,
            pivots: t.pivots,
        })
    }
}

/// The simplex tableau `B⁻¹[A | b]` over the real (structural and
/// slack/surplus) columns, one flat row-major allocation.
struct Tableau {
    /// `rows × width` cells; the last cell of each row is the rhs.
    cells: Vec<f64>,
    /// Real columns + 1.
    width: usize,
    /// Basic column index per row; `≥ width - 1` denotes that row's
    /// artificial, which has an index but no stored column.
    basis: Vec<usize>,
    /// Whether each real column is currently basic.
    basic: Vec<bool>,
    /// Scratch copy of the normalized pivot row.
    pivot_row: Vec<f64>,
    /// Pivots taken so far.
    pivots: u32,
}

impl Tableau {
    fn rows(&self) -> usize {
        self.basis.len()
    }

    fn rhs_col(&self) -> usize {
        self.width - 1
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Deletes row `i`, whose basic variable must be an artificial.
    fn remove_row(&mut self, i: usize) {
        self.cells.drain(i * self.width..(i + 1) * self.width);
        self.basis.remove(i);
    }

    /// Runs primal simplex, returning the optimal objective.
    ///
    /// Only real columns may enter the basis (artificials are barred in
    /// both phases). `cost` is indexed by column index, artificials
    /// included.
    fn run_simplex(&mut self, cost: &[f64]) -> Result<f64, LpError> {
        let ncols = self.rhs_col();
        let rhs_col = ncols;
        // The budget counts every column index, the unstored artificials
        // too: `cost.len()`, not the stored width.
        let max_iters = 50 * (self.rows() + cost.len()).max(100);
        // Dantzig's rule (most negative reduced cost) with a stability-first
        // leaving rule gives well-conditioned pivots; after a generous budget
        // we switch to Bland's rule, which provably terminates.
        let bland_after = max_iters / 2;
        let mut reduced = vec![0.0f64; ncols];
        for iter in 0..max_iters {
            let bland = iter >= bland_after;
            // Reduced costs: r_j = c_j - c_B · B^{-1} A_j (tableau is already
            // B^{-1}A, so r_j = c_j - Σ_i c_{basis_i} tab[i][j]), accumulated
            // row by row in ascending `i`. A row whose basic cost is zero
            // would subtract zeros and is skipped.
            reduced.copy_from_slice(&cost[..ncols]);
            for (i, &b) in self.basis.iter().enumerate() {
                let cb = cost[b];
                if cb != 0.0 {
                    for (r, &a) in reduced.iter_mut().zip(self.row(i)) {
                        *r -= cb * a;
                    }
                }
            }
            let mut entering = None;
            let mut best_r = -1e-7;
            for (j, &r) in reduced.iter().enumerate() {
                if !self.basic[j] && r < best_r {
                    entering = Some(j);
                    if bland {
                        break; // first eligible column (Bland)
                    }
                    best_r = r; // most negative (Dantzig)
                }
            }
            let Some(j) = entering else {
                let mut obj = 0.0;
                for (i, &b) in self.basis.iter().enumerate() {
                    obj += cost[b] * self.row(i)[rhs_col];
                }
                return Ok(obj);
            };
            // Ratio test. Every strictly positive coefficient participates:
            // excluding "tiny" ones from the test while still updating their
            // rows would let a large step drive those rows' right-hand sides
            // negative — a silent feasibility corruption. Among (near-)tied
            // ratios, prefer the largest pivot element for numerical stability
            // (or the smallest basis index under Bland's rule).
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for i in 0..self.rows() {
                let row = self.row(i);
                if row[j] > 1e-12 {
                    let ratio = (row[rhs_col] / row[j]).max(0.0);
                    let better = match leave {
                        None => true,
                        Some(l) => {
                            if ratio < best - EPS {
                                true
                            } else if ratio < best + EPS {
                                if bland {
                                    self.basis[i] < self.basis[l]
                                } else {
                                    row[j] > self.row(l)[j]
                                }
                            } else {
                                false
                            }
                        }
                    };
                    if better {
                        best = ratio.min(best);
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(i, j);
        }
        // Bland's rule guarantees termination; reaching here means numerics
        // broke down badly enough to cycle, which we surface as unboundedness
        // of effort rather than looping forever.
        Err(LpError::Unbounded)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let p = self.cells[row * width + col];
        for v in self.row_mut(row) {
            *v /= p;
        }
        let Self {
            cells, pivot_row, ..
        } = self;
        pivot_row.copy_from_slice(&cells[row * width..(row + 1) * width]);
        for (i, r) in cells.chunks_exact_mut(width).enumerate() {
            if i == row {
                continue;
            }
            let f = r[col];
            if f.abs() < EPS {
                continue;
            }
            for (v, &pv) in r.iter_mut().zip(pivot_row.iter()) {
                *v -= f * pv;
            }
        }
        let leaving = self.basis[row];
        if leaving < self.basic.len() {
            self.basic[leaving] = false;
        }
        self.basic[col] = true;
        self.basis[row] = col;
        self.pivots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), 36.
        let lp = LinearProgram::minimize(vec![-3.0, -5.0])
            .subject_to(Constraint::le(vec![1.0, 0.0], 4.0))
            .subject_to(Constraint::le(vec![0.0, 2.0], 12.0))
            .subject_to(Constraint::le(vec![3.0, 2.0], 18.0));
        let s = lp.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min x + 2y s.t. x + y = 10, x >= 3 → (10, 0)? x=10,y=0 satisfies
        // x>=3, cost 10. Optimum.
        let lp = LinearProgram::minimize(vec![1.0, 2.0])
            .subject_to(Constraint::eq(vec![1.0, 1.0], 10.0))
            .subject_to(Constraint::ge(vec![1.0, 0.0], 3.0));
        let s = lp.solve().unwrap();
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 10.0);
    }

    #[test]
    fn diet_style_problem() {
        // min 0.5a + 0.8b s.t. a + 2b >= 8, 3a + b >= 9 → intersection
        // a=2, b=3, cost 3.4.
        let lp = LinearProgram::minimize(vec![0.5, 0.8])
            .subject_to(Constraint::ge(vec![1.0, 2.0], 8.0))
            .subject_to(Constraint::ge(vec![3.0, 1.0], 9.0));
        let s = lp.solve().unwrap();
        assert_close(s.objective, 3.4);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let lp = LinearProgram::minimize(vec![1.0])
            .subject_to(Constraint::le(vec![1.0], 1.0))
            .subject_to(Constraint::ge(vec![1.0], 2.0));
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let lp = LinearProgram::minimize(vec![-1.0]).subject_to(Constraint::ge(vec![1.0], 0.0));
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -2 with x,y >= 0 → y >= x + 2. min y → x=0, y=2.
        let lp = LinearProgram::minimize(vec![0.0, 1.0])
            .subject_to(Constraint::le(vec![1.0, -1.0], -2.0));
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let lp = LinearProgram::minimize(vec![1.0, 1.0]).subject_to(Constraint::le(vec![1.0], 1.0));
        assert_eq!(lp.solve().unwrap_err(), LpError::DimensionMismatch);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let lp = LinearProgram::minimize(vec![-1.0, -1.0])
            .subject_to(Constraint::le(vec![1.0, 0.0], 1.0))
            .subject_to(Constraint::le(vec![0.0, 1.0], 1.0))
            .subject_to(Constraint::le(vec![1.0, 1.0], 2.0))
            .subject_to(Constraint::le(vec![2.0, 2.0], 4.0));
        let s = lp.solve().unwrap();
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn equality_only_system() {
        // min x+y+z s.t. x+y=4, y+z=3, x,z free-ish → y=3? x+y=4,y+z=3:
        // cost = x+y+z = (4-y)+y+(3-y) = 7-y, maximize y; y<=3 (z>=0),
        // y<=4 (x>=0) → y=3, cost 4.
        let lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0])
            .subject_to(Constraint::eq(vec![1.0, 1.0, 0.0], 4.0))
            .subject_to(Constraint::eq(vec![0.0, 1.0, 1.0], 3.0));
        let s = lp.solve().unwrap();
        assert_close(s.objective, 4.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn redundant_equality_rows_do_not_corrupt_phase2() {
        // Two identical equalities leave one artificial basic at zero with
        // an all-zero row after phase 1. The old big-M treatment let its
        // huge cost contaminate phase-2 reduced costs; the row must instead
        // be dropped and the optimum still found.
        let lp = LinearProgram::minimize(vec![1.0, 2.0, 3.0])
            .subject_to(Constraint::eq(vec![1.0, 1.0, 0.0], 4.0))
            .subject_to(Constraint::eq(vec![2.0, 2.0, 0.0], 8.0)) // redundant
            .subject_to(Constraint::ge(vec![0.0, 1.0, 1.0], 1.0));
        let s = lp.solve().unwrap();
        // Optimum: x = 3, y = 1, z = 0 → objective 5.
        assert_close(s.x[0] + s.x[1], 4.0);
        assert!(s.x[1] + s.x[2] >= 1.0 - 1e-9);
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn zero_rhs_equality() {
        // min x s.t. x - y = 0, y >= 5 → x = 5.
        let lp = LinearProgram::minimize(vec![1.0, 0.0])
            .subject_to(Constraint::eq(vec![1.0, -1.0], 0.0))
            .subject_to(Constraint::ge(vec![0.0, 1.0], 5.0));
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 5.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// On random bounded-feasible LPs the solver (a) returns a point
        /// satisfying every constraint and (b) is at least as good as a
        /// cloud of random feasible points.
        #[test]
        fn random_lps_are_solved_optimally(
            n in 2usize..5,
            costs in proptest::collection::vec(-5.0f64..5.0, 5),
            rows in proptest::collection::vec(
                (proptest::collection::vec(0.1f64..3.0, 5), 1.0f64..20.0), 1..5),
            seeds in proptest::collection::vec(0.0f64..1.0, 32),
        ) {
            use proptest::prelude::*;
            let obj: Vec<f64> = costs[..n].to_vec();
            // Box constraints keep it bounded: x_i <= 10.
            let mut lp = LinearProgram::minimize(obj.clone());
            for i in 0..n {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                lp = lp.subject_to(Constraint::le(row, 10.0));
            }
            // Positive-coefficient <= rows are always feasible at x = 0.
            for (coeffs, rhs) in &rows {
                lp = lp.subject_to(Constraint::le(coeffs[..n].to_vec(), *rhs));
            }
            let sol = lp.solve().expect("bounded feasible LP");
            // (a) feasibility
            for c in &lp.constraints {
                let lhs: f64 = c.coeffs.iter().zip(&sol.x).map(|(a, x)| a * x).sum();
                prop_assert!(lhs <= c.rhs + 1e-6, "violated: {lhs} > {}", c.rhs);
            }
            prop_assert!(sol.x.iter().all(|&x| x >= -1e-9));
            // (b) no random feasible point beats it
            for chunk in seeds.chunks(n) {
                if chunk.len() < n { break; }
                let mut x: Vec<f64> = chunk.iter().map(|&u| u * 10.0).collect();
                // Scale down until feasible for every extra row.
                for (coeffs, rhs) in &rows {
                    let lhs: f64 = coeffs[..n].iter().zip(&x).map(|(a, v)| a * v).sum();
                    if lhs > *rhs {
                        let scale = rhs / lhs;
                        for v in &mut x {
                            *v *= scale;
                        }
                    }
                }
                let val: f64 = obj.iter().zip(&x).map(|(c, v)| c * v).sum();
                prop_assert!(sol.objective <= val + 1e-6,
                    "random point {val} beats simplex {}", sol.objective);
            }
        }
    }

    /// Whether `x` satisfies `lp` within 1e-6, each row measured in units
    /// of its largest coefficient (the solver's own units).
    fn feasible(lp: &LinearProgram, x: &[f64]) -> bool {
        x.iter().all(|&v| v >= -1e-6)
            && lp.constraints.iter().all(|c| {
                let scale = c.coeffs.iter().fold(1e-12f64, |m, a| m.max(a.abs()));
                let lhs: f64 = c.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
                let d = (lhs - c.rhs) / scale;
                match c.rel {
                    Rel::Le => d <= 1e-6,
                    Rel::Ge => d >= -1e-6,
                    Rel::Eq => d.abs() <= 1e-6,
                }
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 4_000, ..Default::default() })]

        /// The slack start for zero-rhs `≥` rows finds the optimum of the
        /// all-artificial start it replaced: the same `Ok`/`Infeasible`/
        /// `Unbounded`, objectives within 1e-9 relative, and a feasible
        /// `x`. 1–8 variables; 1–9 random rows mixing `≤`/`=`/`≥` with rhs
        /// negative, `0.0`, `-0.0` or positive, small integer coefficients
        /// (ties and degenerate vertices) at row scales from 1e-2 to 1e4,
        /// each row a copy of the one before it (times two) one time in
        /// four; half the cases add `Σx ≤ 25` so they cannot be unbounded.
        #[test]
        fn zero_rhs_ge_rows_on_their_slack_keep_every_optimum(
            (n, costs, boxed) in (1usize..=8, proptest::collection::vec(-3i32..=3, 8), proptest::arbitrary::any::<bool>()),
            rows in proptest::collection::vec(
                (proptest::collection::vec(-3i32..=3, 8), 0u8..3, 0u8..4, 1.0f64..20.0, 0u8..4, -2.0f64..4.0),
                1..=9,
            ),
        ) {
            use proptest::prelude::*;
            let mut lp = LinearProgram::minimize(costs[..n].iter().map(|&c| f64::from(c)).collect());
            for (coeffs, rel, rhs_kind, magnitude, dup, log_scale) in rows {
                let prev = lp.constraints.last().cloned();
                let row = match prev {
                    Some(p) if dup == 0 => Constraint {
                        coeffs: p.coeffs.iter().map(|a| 2.0 * a).collect(),
                        rel: p.rel,
                        rhs: 2.0 * p.rhs,
                    },
                    _ => {
                        let scale = 10f64.powf(log_scale);
                        Constraint {
                            coeffs: coeffs[..n].iter().map(|&a| scale * f64::from(a)).collect(),
                            rel: [Rel::Le, Rel::Eq, Rel::Ge][rel as usize],
                            rhs: scale * [-magnitude, 0.0, -0.0, magnitude][rhs_kind as usize],
                        }
                    }
                };
                lp = lp.subject_to(row);
            }
            if boxed {
                lp = lp.subject_to(Constraint::le(vec![1.0; n], 25.0));
            }
            let (new, old) = (lp.solve(), lp.solve_with_zero_ge_artificials());
            match (&new, &old) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(
                        (a.objective - b.objective).abs() <= 1e-9 * b.objective.abs().max(1.0),
                        "objective {} vs {} on {:?}", a.objective, b.objective, lp
                    );
                    prop_assert!(feasible(&lp, &a.x), "infeasible x {:?} on {:?}", a.x, lp);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?}", lp),
                _ => prop_assert!(false, "{:?} vs {:?} on {:?}", new, old, lp),
            }
        }
    }

    /// Fifteen offers shaped like the controller's: five on-demand types
    /// (no failure penalty) and ten (market, bid) pairs, three instance
    /// sizes, some already running.
    struct Shape {
        ram_gb: f64,
        max_rate: f64,
        price: f64,
        penalty: f64,
        existing: f64,
        spot: bool,
    }

    const K: usize = 15;
    const WSS_GB: f64 = 100.0;
    const HOT: f64 = 0.07;
    const COLD: f64 = 1.0 - HOT;
    const R_HOT: f64 = 500_000.0 * 0.9 / HOT;
    const R_COLD: f64 = 500_000.0 * 0.1 / COLD;

    fn shapes() -> Vec<Shape> {
        (0..K)
            .map(|o| {
                let size = f64::from(1u32 << (o % 3));
                let tier = (o / 3) as f64;
                let spot = o >= 5;
                Shape {
                    ram_gb: 6.5 * size * 0.85,
                    max_rate: 38_000.0 * size * (1.0 - 0.03 * tier),
                    price: if spot {
                        0.03 * size * (1.0 + 0.1 * (o % 5) as f64)
                    } else {
                        0.12 * size * (1.0 + 0.05 * tier)
                    },
                    penalty: if spot {
                        WSS_GB / (2.0 + 1.7 * o as f64)
                    } else {
                        0.0
                    },
                    existing: (o % 4) as f64,
                    spot,
                }
            })
            .collect()
    }

    fn placement_rows(nv: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (mut hot, mut cold, mut avail) = (vec![0.0; nv], vec![0.0; nv], vec![0.0; nv]);
        for (o, s) in shapes().iter().enumerate() {
            hot[o] = 1.0;
            cold[K + o] = 1.0;
            if !s.spot {
                avail[o] = HOT;
                avail[K + o] = COLD;
            }
        }
        (hot, cold, avail)
    }

    /// The LP relaxation `ProcurementProblem::solve` starts from: variables
    /// `[X | Y | n | d]`, two placement equalities, three `≥` rows per
    /// offer (RAM, throughput, deallocation damping) and the on-demand
    /// floor. The equalities, the floor and the deallocation rows of the
    /// eleven offers with instances running start on artificials, so phase
    /// 1 runs; the other 34 rows start on their slacks.
    fn procurement_relaxation() -> LinearProgram {
        let nv = 4 * K;
        let shapes = shapes();
        let mut obj = vec![0.0; nv];
        for (o, s) in shapes.iter().enumerate() {
            obj[o] = 0.1 * s.penalty * HOT;
            obj[K + o] = 0.05 * s.penalty * COLD;
            obj[2 * K + o] = s.price;
            obj[3 * K + o] = 0.01;
        }
        let (hot, cold, avail) = placement_rows(nv);
        let mut lp = LinearProgram::minimize(obj)
            .subject_to(Constraint::eq(hot, 1.0))
            .subject_to(Constraint::eq(cold, 1.0));
        for (o, s) in shapes.iter().enumerate() {
            let mut ram = vec![0.0; nv];
            ram[2 * K + o] = s.ram_gb;
            ram[o] = -WSS_GB * HOT;
            ram[K + o] = -WSS_GB * COLD;
            lp = lp.subject_to(Constraint::ge(ram, 0.0));
            let mut rate = vec![0.0; nv];
            rate[2 * K + o] = s.max_rate;
            rate[o] = -R_HOT * HOT;
            rate[K + o] = -R_COLD * COLD;
            lp = lp.subject_to(Constraint::ge(rate, 0.0));
            let mut dealloc = vec![0.0; nv];
            dealloc[3 * K + o] = 1.0;
            dealloc[2 * K + o] = 1.0;
            lp = lp.subject_to(Constraint::ge(dealloc, s.existing));
        }
        lp.subject_to(Constraint::ge(avail, 0.1))
    }

    /// The placement LP with instance counts fixed (`[X | Y]`, `≤` capacity
    /// rows): one instance of every third offer cannot hold the working set.
    fn fixed_counts_short_of_ram() -> LinearProgram {
        let nv = 2 * K;
        let shapes = shapes();
        let mut obj = vec![0.0; nv];
        for (o, s) in shapes.iter().enumerate() {
            obj[o] = 0.1 * s.penalty * HOT;
            obj[K + o] = 0.05 * s.penalty * COLD;
        }
        let (hot, cold, avail) = placement_rows(nv);
        let mut lp = LinearProgram::minimize(obj)
            .subject_to(Constraint::eq(hot, 1.0))
            .subject_to(Constraint::eq(cold, 1.0));
        for (o, s) in shapes.iter().enumerate() {
            let n = if o % 3 == 0 { 1.0 } else { 0.0 };
            let mut ram = vec![0.0; nv];
            ram[o] = WSS_GB * HOT;
            ram[K + o] = WSS_GB * COLD;
            lp = lp.subject_to(Constraint::le(ram, n * s.ram_gb));
            let mut rate = vec![0.0; nv];
            rate[o] = R_HOT * HOT;
            rate[K + o] = R_COLD * COLD;
            lp = lp.subject_to(Constraint::le(rate, n * s.max_rate));
        }
        lp.subject_to(Constraint::ge(avail, 0.1))
    }

    /// `x` and `objective` of [`procurement_relaxation`], as `to_bits()`
    /// (68 pivots). The noise-level entries (`0xbc…`, `0x3c…`, `0x8000…`)
    /// are part of the pin: a different pivot path or rounding moves them
    /// first.
    const RELAXATION_OBJECTIVE: u64 = 0x3ff213ebfd8a8398;
    #[rustfmt::skip]
    const RELAXATION_X: [u64; 4 * K] = [
        0x0000000000000000, 0x3fc22fb9922fb994, 0xbcb0228b697bfd89, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3f80276e55f93c50, 0x3feb3373e21c2cb6,
        0x0000000000000000, 0xbc98000000000000, 0x0000000000000000, 0x8000000000000000,
        0x3fb8ca0518ca0519, 0xbc9b24652a9058d4, 0x3c88000000000000, 0x8000000000000000,
        0x3c9c000000000000, 0x3c70000000000000, 0x3cb0000000000000, 0x0000000000000000,
        0x0000000000000000, 0x3fd0458cde0afdf7, 0x3fe4c3f8ede1405c, 0x8000000000000000,
        0xbc70000000000000, 0x3c90000000000000, 0x0000000000000000, 0x3fecf5931cf5931c,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x4001288b01288af3, 0x4008000000000001, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3fb8536718536720, 0x4000000000000000,
        0x4008000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x4000000000000000,
        0x4008000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x4000000000000000,
    ];

    /// The same from the start the solver had before, with every zero-rhs
    /// `≥` row on an artificial (93 pivots): first captured from the
    /// `Vec<Vec<f64>>` tableau with stored artificial columns, held by the
    /// flat tableau that replaced it, and reproduced by
    /// [`LinearProgram::solve_with_zero_ge_artificials`]. The same vertex
    /// as [`RELAXATION_X`]; the rounding differs.
    const REFERENCE_OBJECTIVE: u64 = 0x3ff213ebfd8a8397;
    #[rustfmt::skip]
    const REFERENCE_X: [u64; 4 * K] = [
        0x0000000000000000, 0x3fc22fb9922fb986, 0xbc8583648ca55217, 0x3c90000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3f80276e55f94038, 0x3feb3373e21c2ca7,
        0xbc70228b697bfd89, 0xbc80000000000000, 0xbca6350cf4478e80, 0x0000000000000000,
        0x3fb8ca0518ca050a, 0x3cb833d11e39fc4a, 0x3c70000000000000, 0x0000000000000000,
        0x3c81dd9765d9765e, 0xbc74000000000000, 0x3c88000000000000, 0x0000000000000000,
        0x0000000000000000, 0x3fd0458cde0afe05, 0x3fe4c3f8ede14053, 0x3c336e6b55be9cb3,
        0xbc70000000000000, 0xbca0228b697bfd88, 0x0000000000000000, 0x3fecf5931cf5930b,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x4001288b01288b05, 0x4007fffffffffffe, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3fb85367185367a8, 0x4000000000000000,
        0x4008000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x4000000000000000,
        0x4008000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x4000000000000000,
    ];

    fn assert_pinned(s: &LpSolution, objective: u64, x: &[u64]) {
        assert_eq!(s.objective.to_bits(), objective, "{:e}", s.objective);
        let got: Vec<u64> = s.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, x);
    }

    /// The hot-placement equality again, doubled, as row 2: its artificial
    /// stays basic at zero over an all-zero row after phase 1, so the
    /// row-drop path runs.
    fn with_redundant_equality() -> LinearProgram {
        let mut lp = procurement_relaxation();
        let twice: Vec<f64> = lp.constraints[0].coeffs.iter().map(|a| 2.0 * a).collect();
        lp.constraints.insert(2, Constraint::eq(twice, 2.0));
        lp
    }

    #[test]
    fn procurement_relaxation_is_bit_pinned() {
        let s = procurement_relaxation().solve().unwrap();
        assert_pinned(&s, RELAXATION_OBJECTIVE, &RELAXATION_X);
        assert_eq!(s.pivots, 68);
    }

    #[test]
    fn the_reference_start_is_the_solver_it_replaced() {
        // Bit for bit, with and without the redundant row: under this start
        // the row-drop path moved no other row's pivots.
        let s = procurement_relaxation()
            .solve_with_zero_ge_artificials()
            .unwrap();
        assert_pinned(&s, REFERENCE_OBJECTIVE, &REFERENCE_X);
        assert_eq!(s.pivots, 93);
        let s = with_redundant_equality()
            .solve_with_zero_ge_artificials()
            .unwrap();
        assert_pinned(&s, REFERENCE_OBJECTIVE, &REFERENCE_X);
    }

    #[test]
    fn redundant_equality_is_dropped_at_the_same_vertex() {
        // With the equalities as the only zero-rhs rows left on
        // artificials, the duplicate doubles the hot row's weight in phase
        // 1's pricing, so the pivots differ (81) and the rounding with them:
        // the objective lands 2 ulps above the pin, every entry of `x`
        // within 1e-14 of it.
        let s = with_redundant_equality().solve().unwrap();
        assert_eq!(s.objective.to_bits(), RELAXATION_OBJECTIVE + 2);
        for (v, &pinned) in s.x.iter().zip(&RELAXATION_X) {
            assert!((v - f64::from_bits(pinned)).abs() < 1e-14, "{v:e}");
        }
        assert_eq!(s.pivots, 81);
    }

    #[test]
    fn fixed_counts_short_of_ram_are_infeasible() {
        // Phase 1 pivots (31 times, from either start: no row here is a
        // zero-rhs `≥` row) to a positive artificial sum.
        assert_eq!(
            fixed_counts_short_of_ram().solve().unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        // A slightly bigger random-ish LP; verify feasibility of the result.
        let lp = LinearProgram::minimize(vec![2.0, 3.0, 1.5, 4.0])
            .subject_to(Constraint::ge(vec![1.0, 1.0, 0.0, 0.0], 5.0))
            .subject_to(Constraint::ge(vec![0.0, 1.0, 1.0, 1.0], 7.0))
            .subject_to(Constraint::le(vec![1.0, 0.0, 0.0, 1.0], 9.0))
            .subject_to(Constraint::eq(vec![1.0, 0.0, 1.0, 0.0], 6.0));
        let s = lp.solve().unwrap();
        let x = &s.x;
        assert!(x.iter().all(|&v| v >= -1e-9));
        assert!(x[0] + x[1] >= 5.0 - 1e-6);
        assert!(x[1] + x[2] + x[3] >= 7.0 - 1e-6);
        assert!(x[0] + x[3] <= 9.0 + 1e-6);
        assert!((x[0] + x[2] - 6.0).abs() < 1e-6);
    }
}
