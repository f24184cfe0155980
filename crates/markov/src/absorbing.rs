use std::collections::HashMap;
use std::sync::OnceLock;

use nsr_linalg::{AnyLu, Matrix};

use crate::batch::BatchSolver;
use crate::builder::StateId;
use crate::ctmc::Ctmc;
use crate::{Error, Result};

/// Exact analysis of a CTMC with absorbing states.
///
/// This is the numerical realization of the paper appendix's
///
/// ```text
/// MTTDL = ⟨1, 0, …, 0⟩ · R⁻¹ · ⟨1, …, 1⟩ᵗ
/// ```
///
/// generalized to arbitrary initial states and to absorption probabilities.
///
/// # Numerical method
///
/// Reliability chains are *stiff*: repair rates exceed failure rates by
/// 3–6 orders of magnitude, so the absorption matrix `R = −Q_B` of a
/// fault-tolerance-`k` model has condition number growing like
/// `(μ/λ)^k` — far beyond what a plain `f64` LU solve survives (`κ ≈ 10¹⁶`
/// already at `k ≈ 4`). `AbsorbingAnalysis` therefore computes mean times
/// to absorption and absorption probabilities with **GTH-style
/// subtraction-free state elimination** (Grassmann–Taksar–Heyman): states
/// are eliminated one at a time, every update is a product or a sum of
/// non-negative quantities, and exit rates are *recomputed* as sums rather
/// than updated by differences. The result carries componentwise relative
/// accuracy `O(n·ε)` independent of the chain's stiffness.
///
/// # Solver
///
/// The elimination runs as a compiled [`BatchSolver`] program: the
/// chain's structure and its fill are resolved once, then each
/// right-hand side (all ones for the mean times, the inflow rates of
/// one absorbing state for its absorption probabilities) is one
/// allocation-free numeric pass that visits only structural nonzeros.
/// The recursive appendix chains eliminate fill-free in BFS order, so a
/// pass costs `O(edges)`. The arithmetic is bit-for-bit that of the
/// textbook dense GTH loop, which the test suite keeps as its oracle.
///
/// The matrix-land quantities ([`AbsorbingAnalysis::det`],
/// [`AbsorbingAnalysis::expected_time_in`],
/// [`AbsorbingAnalysis::condition_estimate`],
/// [`AbsorbingAnalysis::absorption_matrix`]) need the dense absorption
/// matrix and its LU factorization; that route is built lazily on first
/// use, so sweep-style workloads that only read GTH-computed quantities
/// never pay the `O(m²)` materialization or `O(m³)` factorization.
///
/// # LU → GTH fallback
///
/// For chains so stiff that the floating-point absorption matrix is
/// singular to working precision (rates differing by more than ~16 orders
/// of magnitude can cancel exactly), the LU factorization fails. The
/// analysis still **succeeds**: every quantity falls back to a
/// subtraction-free GTH computation, [`AbsorbingAnalysis::det`] uses the
/// product of the GTH elimination pivots, and
/// [`AbsorbingAnalysis::condition_estimate`] reports `f64::INFINITY` so
/// callers can see that the matrix route was abandoned
/// ([`AbsorbingAnalysis::uses_gth_fallback`]). No input reachable through
/// [`crate::CtmcBuilder`] panics this type.
///
/// # Example
///
/// ```
/// use nsr_markov::{CtmcBuilder, AbsorbingAnalysis};
///
/// # fn main() -> Result<(), nsr_markov::Error> {
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 0.1)?;
/// let ctmc = b.build()?;
/// let a = AbsorbingAnalysis::new(&ctmc)?;
/// assert!((a.mean_time_to_absorption(up)? - 10.0).abs() < 1e-12);
/// assert!((a.absorption_probability(up, down)? - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AbsorbingAnalysis {
    /// Owned copy of the chain, kept so the dense matrix route
    /// ([`DenseRoute`]) can be built lazily, only when a matrix-land
    /// query actually asks for it.
    ctmc: Ctmc,
    /// The chain's rates in [`Ctmc::transitions`] order (the compiled
    /// program's rate vector).
    rates: Vec<f64>,
    /// Transient states in row/column order.
    transient: Vec<StateId>,
    /// Map from global state index to transient row index
    /// (`usize::MAX` for absorbing states).
    pos: Vec<usize>,
    /// All absorbing states.
    absorbing: Vec<StateId>,
    /// The compiled GTH elimination program for this chain. Its pivots
    /// are mathematically the diagonal of `U` in an unpivoted `R = LU`,
    /// so their product is `det(R)` — but each pivot is computed as a
    /// sum, never a difference.
    solver: BatchSolver,
    /// `mtta[i]` = expected time to absorption from transient row `i`,
    /// computed by GTH elimination.
    mtta: Vec<f64>,
    /// `absorb_prob[a][i]` = P(absorbed in `a` | start in transient row
    /// `i`), computed per absorbing state by GTH elimination.
    absorb_prob: HashMap<usize, Vec<f64>>,
    /// Lazily-built dense absorption matrix and its factorization.
    dense: OnceLock<DenseRoute>,
}

/// The dense matrix route: absorption matrix plus its (bandwidth-tiered)
/// LU factorization, built on first demand by [`AbsorbingAnalysis::det`],
/// [`AbsorbingAnalysis::condition_estimate`],
/// [`AbsorbingAnalysis::expected_time_in`] or
/// [`AbsorbingAnalysis::absorption_matrix`]. Sweep-style workloads that
/// only read GTH-computed quantities never pay for it.
#[derive(Debug)]
struct DenseRoute {
    r: Matrix,
    /// `None` when `r` is singular to working precision; every
    /// matrix-land query then falls back to GTH elimination.
    lu: Option<AnyLu>,
}

impl AbsorbingAnalysis {
    /// Builds the analysis for a chain.
    ///
    /// # Errors
    ///
    /// * [`Error::NoAbsorbingState`] / [`Error::NoTransientState`] if the
    ///   chain is not a proper absorbing chain.
    /// * [`Error::Linalg`] if some transient state cannot reach any
    ///   absorbing state (the absorption matrix is singular).
    pub fn new(ctmc: &Ctmc) -> Result<Self> {
        let t0 = nsr_obs::metrics_timer();
        let mut span = nsr_obs::trace::Span::enter("markov.absorbing.solve");
        let absorbing = ctmc.absorbing_states();
        if absorbing.is_empty() {
            return Err(Error::NoAbsorbingState);
        }
        let transient = ctmc.transient_states();
        if transient.is_empty() {
            return Err(Error::NoTransientState);
        }
        let mut pos = vec![usize::MAX; ctmc.len()];
        for (i, s) in transient.iter().enumerate() {
            pos[s.0] = i;
        }
        let m = transient.len();
        let rates: Vec<f64> = ctmc.transitions().iter().map(|t| t.rate).collect();
        let mut solver = BatchSolver::new(ctmc, transient[0])?;
        let mtta = solver.solve(&rates, &vec![1.0; m])?.to_vec();

        // Absorption probabilities into each absorbing state: same
        // elimination with the per-target inflow rates as RHS.
        let mut absorb_prob = HashMap::new();
        let mut inflow = vec![0.0; m];
        for &a in &absorbing {
            inflow.fill(0.0);
            for t in ctmc.transitions().iter().filter(|t| t.to == a) {
                inflow[pos[t.from.0]] += t.rate;
            }
            absorb_prob.insert(a.0, solver.solve(&rates, &inflow)?.to_vec());
        }

        let analysis = AbsorbingAnalysis {
            ctmc: ctmc.clone(),
            rates,
            transient,
            pos,
            absorbing,
            solver,
            mtta,
            absorb_prob,
            dense: OnceLock::new(),
        };
        crate::obs::SOLVES.inc();
        if let Some(t0) = t0 {
            crate::obs::SOLVE_SECONDS.observe(t0.elapsed().as_secs_f64());
            crate::obs::FILL.observe(analysis.solver.fill() as f64);
            // The κ∞ estimate needs the matrix route (materializes and
            // factors `R`), so it is only paid when someone turned
            // metrics on.
            crate::obs::CONDITION.observe(analysis.condition_estimate());
        }
        span.field("transient", || {
            nsr_obs::Json::Num(analysis.transient.len() as f64)
        });
        span.field("absorbing", || {
            nsr_obs::Json::Num(analysis.absorbing.len() as f64)
        });
        span.field("fill", || nsr_obs::Json::Num(analysis.solver.fill() as f64));
        drop(span);
        Ok(analysis)
    }

    /// The dense matrix route, built on first use: the absorption matrix
    /// `R` and its bandwidth-tiered LU factorization (or `None` when `R`
    /// is singular to working precision — the GTH fallback).
    fn dense_route(&self) -> &DenseRoute {
        self.dense.get_or_init(|| {
            // Stiff chains can make `r` singular *in floating point* even
            // though the exact absorption matrix never is; GTH still
            // succeeds there, so an LU failure downgrades to a fallback
            // rather than an error.
            let (r, _) = self.ctmc.absorption_matrix();
            let lu = AnyLu::factor_auto(&r).ok();
            if lu.is_none() {
                crate::obs::GTH_FALLBACKS.inc();
            }
            DenseRoute { r, lu }
        })
    }

    /// The transient row of `s`.
    fn row(&self, s: StateId) -> Result<usize> {
        match self.pos.get(s.0) {
            Some(&i) if i != usize::MAX => Ok(i),
            _ => Err(Error::StateNotTransient { state: s.0 }),
        }
    }

    /// The transient states, in the internal row order.
    pub fn transient_states(&self) -> &[StateId] {
        &self.transient
    }

    /// The absorbing states.
    pub fn absorbing_states(&self) -> &[StateId] {
        &self.absorbing
    }

    /// The compiled GTH elimination program behind this analysis: its
    /// dimension, structural nonzeros and fill describe the solve.
    pub fn solver(&self) -> &BatchSolver {
        &self.solver
    }

    /// The absorption matrix `R = −Q_B` (row order = [`Self::transient_states`]).
    ///
    /// Materialized lazily on first call (the GTH-computed quantities
    /// never need it).
    pub fn absorption_matrix(&self) -> &Matrix {
        &self.dense_route().r
    }

    /// Determinant of the absorption matrix (the `det(R)` of the paper's
    /// appendix formula `M(R) = Num(R)/det(R)`).
    ///
    /// Computed from the LU factorization when available, otherwise as
    /// the product of the GTH elimination pivots (which is the same
    /// quantity, evaluated subtraction-free — for stiff chains it is the
    /// *more* accurate of the two).
    pub fn det(&self) -> f64 {
        match &self.dense_route().lu {
            Some(lu) => lu.det(),
            None => self.solver.pivots().iter().product(),
        }
    }

    /// `true` when the LU factorization of the absorption matrix failed
    /// (singular to working precision) and every matrix-land query is
    /// answered by GTH elimination instead.
    ///
    /// Forces the lazy matrix route to be built.
    pub fn uses_gth_fallback(&self) -> bool {
        self.dense_route().lu.is_none()
    }

    /// Which LU factorization backs the matrix route: `Some("banded-lu")`
    /// or `Some("dense-lu")`, or `None` when the factorization failed and
    /// the GTH fallback is in effect.
    ///
    /// Forces the lazy matrix route to be built.
    pub fn lu_kind(&self) -> Option<&'static str> {
        self.dense_route().lu.as_ref().map(|lu| {
            if lu.is_banded() {
                "banded-lu"
            } else {
                "dense-lu"
            }
        })
    }

    /// Estimate of the ∞-norm condition number `κ∞(R)` of the absorption
    /// matrix — how much of the 16 decimal digits a naive linear solve
    /// against `R` would lose. Returns `f64::INFINITY` when `R` is
    /// singular to working precision (the GTH fallback is in effect).
    ///
    /// This diagnoses the *matrix* route only: the GTH-computed
    /// quantities ([`Self::mean_time_to_absorption`],
    /// [`Self::absorption_probability`]) keep componentwise relative
    /// accuracy regardless of this value.
    pub fn condition_estimate(&self) -> f64 {
        let route = self.dense_route();
        match &route.lu {
            Some(lu) => lu.cond_inf(&route.r).unwrap_or(f64::INFINITY),
            None => f64::INFINITY,
        }
    }

    /// Mean time to absorption starting from transient state `from`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StateNotTransient`] if `from` is absorbing.
    pub fn mean_time_to_absorption(&self, from: StateId) -> Result<f64> {
        Ok(self.mtta[self.row(from)?])
    }

    /// Expected total time spent in transient state `in_state` before
    /// absorption, starting from `from` — the `(from, in_state)` entry of
    /// the fundamental matrix `R⁻¹` (the `τᵢ` of equation (A.1)).
    ///
    /// Computed from the LU factorization when available; when the
    /// absorption matrix is singular to working precision the entry is
    /// recovered by a GTH elimination with `e_j` as the right-hand side,
    /// so stiff chains still get an answer instead of an error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StateNotTransient`] if either state is absorbing.
    pub fn expected_time_in(&self, from: StateId, in_state: StateId) -> Result<f64> {
        let i = self.row(from)?;
        let j = self.row(in_state)?;
        // (R⁻¹)_{ij} = e_iᵗ R⁻¹ e_j: solve R y = e_j, answer y_i.
        let mut e = vec![0.0; self.transient.len()];
        e[j] = 1.0;
        Ok(match &self.dense_route().lu {
            Some(lu) => lu.solve(&e)?[i],
            // The GTH solve computes x with D_i x_i = r_i + Σ_j q_ij x_j,
            // which is exactly R x = r, so e_j as RHS yields column j of
            // the fundamental matrix R⁻¹.
            None => self.solver.clone().solve(&self.rates, &e)?[i],
        })
    }

    /// Probability that the chain, started in transient state `from`, is
    /// eventually absorbed in `into` (GTH-computed at construction).
    ///
    /// # Errors
    ///
    /// * [`Error::StateNotTransient`] if `from` is absorbing.
    /// * [`Error::StateNotAbsorbing`] if `into` is transient.
    pub fn absorption_probability(&self, from: StateId, into: StateId) -> Result<f64> {
        let i = self.row(from)?;
        let col = self
            .absorb_prob
            .get(&into.0)
            .ok_or(Error::StateNotAbsorbing { state: into.0 })?;
        Ok(col[i].clamp(0.0, 1.0))
    }

    /// The *pre-absorption occupancy distribution*: the fraction of its
    /// lifetime the chain spends in each transient state before
    /// absorption, starting from `from` (`τᵢ / MTTA` — a normalized view
    /// of the appendix's equation A.1 occupancies).
    ///
    /// # Errors
    ///
    /// Returns [`Error::StateNotTransient`] if `from` is absorbing.
    pub fn occupancy_distribution(&self, from: StateId) -> Result<Vec<(StateId, f64)>> {
        let mtta = self.mean_time_to_absorption(from)?;
        let mut out = Vec::with_capacity(self.transient.len());
        for &s in &self.transient {
            let t = self.expected_time_in(from, s)?;
            out.push((s, (t / mtta).max(0.0)));
        }
        Ok(out)
    }

    /// Mean time to absorption from an initial *distribution* over transient
    /// states (`π₀` in the appendix; entries for absorbing states must be
    /// absent/zero).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] if the weights don't sum to ~1 or are
    ///   negative.
    /// * [`Error::StateNotTransient`] if a weighted state is absorbing.
    pub fn mean_time_to_absorption_from(&self, pi0: &[(StateId, f64)]) -> Result<f64> {
        let mut total_w = 0.0;
        let mut acc = 0.0;
        for &(s, w) in pi0 {
            if !(w.is_finite() && w >= 0.0) {
                return Err(Error::InvalidArgument {
                    what: "initial weights must be >= 0",
                });
            }
            acc += w * self.mtta[self.row(s)?];
            total_w += w;
        }
        if (total_w - 1.0).abs() > 1e-9 {
            return Err(Error::InvalidArgument {
                what: "initial weights must sum to 1",
            });
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_oracle::dense_gth;
    use crate::CtmcBuilder;

    fn chain(a: f64, mu: f64, b2: f64) -> (Ctmc, StateId, StateId, StateId) {
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("0");
        let s1 = b.add_state("1");
        let s2 = b.add_state("2");
        b.add_transition(s0, s1, a).unwrap();
        b.add_transition(s1, s0, mu).unwrap();
        b.add_transition(s1, s2, b2).unwrap();
        (b.build().unwrap(), s0, s1, s2)
    }

    #[test]
    fn mtta_matches_closed_form() {
        let (lam_a, mu, lam_b) = (2e-3, 0.5, 1e-3);
        let (c, s0, _, _) = chain(lam_a, mu, lam_b);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let got = an.mean_time_to_absorption(s0).unwrap();
        let exact = (lam_a + lam_b + mu) / (lam_a * lam_b);
        assert!((got - exact).abs() / exact < 1e-12, "{got} vs {exact}");
    }

    #[test]
    fn gth_survives_extreme_stiffness() {
        // A 6-deep repairable chain with μ/λ = 10⁶: condition number ~1e36,
        // hopeless for LU, trivial for GTH. Compare against the analytic
        // leading term μ⁵/(λ⁶·∏1) — more precisely, build the chain and
        // compare with the exact product-form birth–death formula.
        let lam = 1e-6;
        let mu = 1.0;
        let depth = 6;
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..depth {
            b.add_transition(states[i], states[i + 1], lam).unwrap();
            b.add_transition(states[i + 1], states[i], mu).unwrap();
        }
        b.add_transition(states[depth], dead, lam).unwrap();
        let c = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let got = an.mean_time_to_absorption(states[0]).unwrap();

        // Exact birth-death first-passage: T_i = 1/a_i + (b_i/a_i)·T_{i-1},
        // MTTA = Σ T_i (all-positive recurrence, exact to machine eps).
        let mut t_prev = 0.0;
        let mut total = 0.0;
        for i in 0..=depth {
            let b_i = if i == 0 { 0.0 } else { mu };
            let t_i = 1.0 / lam + (b_i / lam) * t_prev;
            total += t_i;
            t_prev = t_i;
        }
        assert!(
            (got - total).abs() / total < 1e-10,
            "GTH {got:.6e} vs product-form {total:.6e}"
        );
    }

    #[test]
    fn mtta_from_degraded_state_is_smaller() {
        let (c, s0, s1, _) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let from0 = an.mean_time_to_absorption(s0).unwrap();
        let from1 = an.mean_time_to_absorption(s1).unwrap();
        assert!(from1 < from0);
    }

    #[test]
    fn absorption_probability_single_sink_is_one() {
        let (c, s0, _, s2) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let p = an.absorption_probability(s0, s2).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn competing_sinks_split_by_rate() {
        let mut b = CtmcBuilder::new();
        let s = b.add_state("s");
        let a1 = b.add_state("a1");
        let a2 = b.add_state("a2");
        b.add_transition(s, a1, 3.0).unwrap();
        b.add_transition(s, a2, 1.0).unwrap();
        let c = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!((an.absorption_probability(s, a1).unwrap() - 0.75).abs() < 1e-12);
        assert!((an.absorption_probability(s, a2).unwrap() - 0.25).abs() < 1e-12);
        assert!((an.mean_time_to_absorption(s).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn competing_sink_probabilities_sum_to_one_when_stiff() {
        // Stiff chain with two sinks: probabilities must still sum to 1 to
        // high relative accuracy.
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("0");
        let s1 = b.add_state("1");
        let sink1 = b.add_state("sink1");
        let sink2 = b.add_state("sink2");
        b.add_transition(s0, s1, 1e-9).unwrap();
        b.add_transition(s1, s0, 1.0).unwrap();
        b.add_transition(s1, sink1, 3e-9).unwrap();
        b.add_transition(s1, sink2, 1e-9).unwrap();
        let c = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let p1 = an.absorption_probability(s0, sink1).unwrap();
        let p2 = an.absorption_probability(s0, sink2).unwrap();
        assert!((p1 + p2 - 1.0).abs() < 1e-12, "{p1} + {p2}");
        assert!((p1 / p2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn expected_time_decomposes_mtta() {
        let (c, s0, s1, _) = chain(2e-3, 0.7, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let t00 = an.expected_time_in(s0, s0).unwrap();
        let t01 = an.expected_time_in(s0, s1).unwrap();
        let mtta = an.mean_time_to_absorption(s0).unwrap();
        assert!((t00 + t01 - mtta).abs() / mtta < 1e-10);
    }

    #[test]
    fn occupancy_distribution_sums_to_one_and_orders() {
        let (c, s0, s1, _) = chain(2e-3, 0.7, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let occ = an.occupancy_distribution(s0).unwrap();
        let total: f64 = occ.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // The healthy state dominates a repairable system's lifetime.
        let f0 = occ.iter().find(|(s, _)| *s == s0).unwrap().1;
        let f1 = occ.iter().find(|(s, _)| *s == s1).unwrap().1;
        assert!(f0 > 0.99 && f1 < 0.01, "{f0} vs {f1}");
    }

    #[test]
    fn initial_distribution_mixes() {
        let (c, s0, s1, _) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let m0 = an.mean_time_to_absorption(s0).unwrap();
        let m1 = an.mean_time_to_absorption(s1).unwrap();
        let mixed = an
            .mean_time_to_absorption_from(&[(s0, 0.25), (s1, 0.75)])
            .unwrap();
        assert!((mixed - (0.25 * m0 + 0.75 * m1)).abs() < 1e-9);
        assert!(an.mean_time_to_absorption_from(&[(s0, 0.5)]).is_err());
        assert!(an
            .mean_time_to_absorption_from(&[(s0, 0.5), (s1, -0.5)])
            .is_err());
    }

    #[test]
    fn errors_for_wrong_state_kinds() {
        let (c, s0, _, s2) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!(matches!(
            an.mean_time_to_absorption(s2).unwrap_err(),
            Error::StateNotTransient { state: 2 }
        ));
        assert!(matches!(
            an.absorption_probability(s0, s0).unwrap_err(),
            Error::StateNotAbsorbing { state: 0 }
        ));
    }

    #[test]
    fn no_absorbing_state_rejected() {
        let mut b = CtmcBuilder::new();
        let x = b.add_state("x");
        let y = b.add_state("y");
        b.add_transition(x, y, 1.0).unwrap();
        b.add_transition(y, x, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c).unwrap_err(),
            Error::NoAbsorbingState
        ));
    }

    #[test]
    fn all_absorbing_rejected() {
        let mut b = CtmcBuilder::new();
        b.add_state("only");
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c).unwrap_err(),
            Error::NoTransientState
        ));
    }

    #[test]
    fn unreachable_sink_detected() {
        // x <-> y cycle plus an unrelated absorbing state z: the transient
        // block cannot reach absorption.
        let mut b = CtmcBuilder::new();
        let x = b.add_state("x");
        let y = b.add_state("y");
        b.add_state("z");
        b.add_transition(x, y, 1.0).unwrap();
        b.add_transition(y, x, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c).unwrap_err(),
            Error::Linalg(_)
        ));
    }

    #[test]
    fn determinant_positive_for_absorbing_chain() {
        let (c, ..) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!(an.det() > 0.0);
        assert_eq!(an.transient_states().len(), 2);
        assert_eq!(an.absorbing_states().len(), 1);
        assert_eq!(an.absorption_matrix().shape(), (2, 2));
    }

    #[test]
    fn benign_chain_keeps_the_lu_route() {
        let (c, ..) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!(!an.uses_gth_fallback());
        let kappa = an.condition_estimate();
        assert!(kappa.is_finite() && kappa >= 1.0, "{kappa}");
        // The LU determinant and the GTH pivot product are the same
        // quantity computed two ways; for a well-conditioned chain they
        // must agree to near machine precision.
        let pivot_det: f64 = an.solver().pivots().iter().product();
        assert!((an.det() - pivot_det).abs() / pivot_det < 1e-12);
    }

    fn deep_chain(depth: usize) -> (Ctmc, Vec<StateId>) {
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..depth {
            b.add_transition(states[i], states[i + 1], 1e-3).unwrap();
            b.add_transition(states[i + 1], states[i], 1.0).unwrap();
        }
        b.add_transition(states[depth], dead, 1e-3).unwrap();
        (b.build().unwrap(), states)
    }

    #[test]
    fn tier_selection_follows_structure() {
        // There is one compiled program for every size; its shape follows
        // the chain's structure. Small chain: two states, no fill.
        let (c, ..) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert_eq!((an.solver().dim(), an.solver().fill()), (2, 0));

        // 25 transient states, ~2 nonzeros per row: the birth–death
        // structure folds each state into its one remaining neighbour,
        // so only the structural nonzeros are held.
        let (c, _) = deep_chain(24);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert_eq!(an.solver().dim(), 25);
        assert_eq!(an.solver().structural_nnz(), 48);
        assert_eq!(an.solver().fill(), 0);
    }

    #[test]
    fn sparse_tier_is_bit_identical_to_dense_oracle() {
        // The compiled program (which replaced the sparse tier) uses the
        // dense oracle's elimination and accumulation order, so every
        // GTH-computed quantity matches it to the last bit.
        let depth = 24;
        let (c, states) = deep_chain(depth);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let m = depth + 1;
        let mut q = vec![vec![0.0; m]; m];
        let mut qa = vec![0.0; m];
        for i in 0..depth {
            q[i][i + 1] = 1e-3;
            q[i + 1][i] = 1.0;
        }
        qa[depth] = 1e-3;
        let de = dense_gth(q.clone(), qa.clone(), vec![1.0; m]).unwrap();
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(
                an.mean_time_to_absorption(s).unwrap().to_bits(),
                de.x[i].to_bits()
            );
        }
        let pivots: Vec<u64> = an.solver().pivots().iter().map(|p| p.to_bits()).collect();
        let want: Vec<u64> = de.pivots.iter().map(|p| p.to_bits()).collect();
        assert_eq!(pivots, want);
        // One absorbing state: its inflow is `qa` itself.
        let p = dense_gth(q, qa.clone(), qa).unwrap();
        for &a in an.absorbing_states() {
            for (i, &s) in states.iter().enumerate() {
                assert_eq!(
                    an.absorption_probability(s, a).unwrap().to_bits(),
                    p.x[i].clamp(0.0, 1.0).to_bits()
                );
            }
        }
    }

    #[test]
    fn birth_death_chains_eliminate_fill_free() {
        let lam = 1e-6;
        let mu = 1.0;
        let depth = 6;
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..depth {
            b.add_transition(states[i], states[i + 1], lam).unwrap();
            b.add_transition(states[i + 1], states[i], mu).unwrap();
        }
        b.add_transition(states[depth], dead, lam).unwrap();
        let an = AbsorbingAnalysis::new(&b.build().unwrap()).unwrap();
        assert_eq!(an.solver().dim(), depth + 1);
        assert_eq!(an.solver().structural_nnz(), 2 * depth);
        assert_eq!(
            an.solver().fill(),
            0,
            "birth–death elimination must be fill-free"
        );

        // Exact product-form first-passage recurrence.
        let mut t_prev = 0.0;
        let mut total = 0.0;
        for i in 0..=depth {
            let b_i = if i == 0 { 0.0 } else { mu };
            let t_i = 1.0 / lam + (b_i / lam) * t_prev;
            total += t_i;
            t_prev = t_i;
        }
        let got = an.mean_time_to_absorption(states[0]).unwrap();
        assert!((got - total).abs() / total < 1e-10, "{got} vs {total}");
    }

    #[test]
    fn overflowing_mtta_is_returned_not_rejected() {
        // Twenty states in a line, each left at 1e-308 per hour: every
        // pivot is positive, so the elimination succeeds, but the mean
        // time to absorption overflows. The non-finite value comes back
        // as `Ok`, as it always has; only an unreachable absorbing
        // state is an error.
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..20).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for w in states.windows(2) {
            b.add_transition(w[0], w[1], 1e-308).unwrap();
        }
        b.add_transition(states[19], dead, 1e-308).unwrap();
        let an = AbsorbingAnalysis::new(&b.build().unwrap()).unwrap();
        assert_eq!(
            an.mean_time_to_absorption(states[0]).unwrap(),
            f64::INFINITY
        );
        assert_eq!(an.absorption_probability(states[0], dead).unwrap(), 1.0);
    }

    #[test]
    fn singular_to_working_precision_falls_back_to_gth() {
        // s0 <-> s1 at rate 1, s1 -> dead at 1e-20. The exact absorption
        // matrix [[1, -1], [-1, 1 + 1e-20]] rounds to the singular
        // [[1, -1], [-1, 1]] in f64, so LU fails — but GTH recomputes
        // every pivot as a sum (1e-20 survives as qa) and the analysis
        // must still deliver the whole API.
        let lam_abs = 1e-20;
        let (c, s0, s1, s2) = chain(1.0, 1.0, lam_abs);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!(an.uses_gth_fallback());
        assert_eq!(an.condition_estimate(), f64::INFINITY);

        // Closed form: MTTA = (λa + λb + μ)/(λa·λb) = (2 + 1e-20)/1e-20.
        let exact = (1.0 + lam_abs + 1.0) / lam_abs;
        let got = an.mean_time_to_absorption(s0).unwrap();
        assert!((got - exact).abs() / exact < 1e-12, "{got} vs {exact}");

        // det(R) = 1·(1 + 1e-20) − 1 = 1e-20 exactly in the reals; the
        // pivot product recovers it even though LU saw a zero pivot.
        let det = an.det();
        assert!((det - lam_abs).abs() / lam_abs < 1e-12, "{det}");

        // Fundamental-matrix entries via the GTH route still decompose
        // the mean time to absorption.
        let t00 = an.expected_time_in(s0, s0).unwrap();
        let t01 = an.expected_time_in(s0, s1).unwrap();
        assert!((t00 + t01 - got).abs() / got < 1e-10);
        assert!((an.absorption_probability(s0, s2).unwrap() - 1.0).abs() < 1e-12);
    }
}
