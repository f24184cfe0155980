//! The compiled GTH elimination: the crate's one runtime solver for
//! absorbing chains.
//!
//! GTH elimination (see [`crate::AbsorbingAnalysis`]) folds transient
//! states into each other from the highest index down. Which entries it
//! touches, and where fill appears, depends only on the chain's
//! structure, never on its rates. [`BatchSolver`] does that symbolic
//! work once per structure:
//!
//! 1. **Symbolic elimination** over the skeleton's structure finds every
//!    fill position the numeric elimination could ever create, producing
//!    a static CSR layout (structural nonzeros + predicted fill). A
//!    sorted column index lists each pivot's feeder rows, so the compile
//!    costs `O(nnz + fill)` updates rather than a scan of every row per
//!    pivot.
//! 2. A flat **elimination program** is precompiled: per pivot, the
//!    feeder rows and the destination slot of every update, resolved to
//!    CSR indices so the numeric pass is straight-line array arithmetic
//!    with no searches and no insertions.
//! 3. A **scatter map** routes each skeleton transition's rate to its
//!    CSR slot (or to the absorption vector), so loading a new rate
//!    vector is one pass over the transitions.
//!
//! All buffers are allocated at construction; [`BatchSolver::solve_mtta`]
//! and [`BatchSolver::solve`] perform **zero allocations** (pinned by an
//! alloc-counting test in `tests/batch_alloc.rs`).
//!
//! # Bit-identical results
//!
//! The numeric pass is the textbook dense GTH loop with the structural
//! zeros left out: descending elimination order, ascending-column
//! accumulation, and the same `f == 0` / `add > 0` skip guards. A zero
//! the dense loop would add is an exact `+0.0` identity in a sum of
//! non-negative terms, so skipping it changes no bit. Slots that exist
//! structurally but hold a zero rate (the builder would have dropped the
//! transition; [`Ctmc::with_rates`] does the same) are skipped by the
//! same guards. The result is therefore bit-for-bit what the dense loop
//! computes on `skeleton.with_rates(rates)`; the test suite pins this
//! with `to_bits` against a dense oracle that lives only in the tests.
//!
//! One structural caveat: the solver fixes the transient/absorbing
//! partition at construction. A rate vector that silences *every*
//! outgoing transition of some transient state (making it absorbing in
//! the re-rated chain) fails the elimination with a
//! [`nsr_linalg::Error::Singular`] pivot rather than silently diverging
//! from the rebuild-from-scratch semantics.

use crate::builder::StateId;
use crate::ctmc::Ctmc;
use crate::{Error, Result};

/// Where one skeleton transition's rate lands when a rate vector is
/// loaded.
#[derive(Debug, Clone, Copy)]
enum Scatter {
    /// CSR value slot (transient → transient).
    Slot(u32),
    /// Absorption-rate row (transient → absorbing).
    Absorb(u32),
}

/// One feeder entry of the elimination program: row `row` holds a
/// structural-or-fill entry at column `t` (the pivot being eliminated)
/// in CSR slot `slot_it`, and its per-update destination slots start at
/// `dest_start` in the flattened destination table.
#[derive(Debug, Clone, Copy)]
struct Feeder {
    row: u32,
    slot_it: u32,
    dest_start: u32,
}

/// Destination-slot sentinel for updates that the dense loop skips
/// because the fill would land on the feeder's own diagonal (`j == i`).
const SKIP: u32 = u32::MAX;

/// A reusable solver for many rate vectors over one chain skeleton.
///
/// Construct once per topology with [`BatchSolver::new`], then call
/// [`BatchSolver::solve_mtta`] per rate point, or [`BatchSolver::solve`]
/// for an arbitrary right-hand side. See the module docs for the
/// equality and allocation contracts.
#[derive(Debug, Clone)]
pub struct BatchSolver {
    /// Transient-state count.
    m: usize,
    /// Transient row of the root state MTTA is reported from.
    root: usize,
    /// Skeleton transition endpoints, for rate-validation errors.
    endpoints: Vec<(u32, u32)>,
    /// Rate scatter map, one entry per skeleton transition.
    scatter: Vec<Scatter>,
    /// Static CSR structure: sorted columns per row, including predicted
    /// fill.
    col: Vec<u32>,
    row_start: Vec<u32>,
    /// Per row, the CSR index of the first entry with `col >= row` — the
    /// end of the "prefix" (columns below the diagonal) the elimination
    /// folds.
    split: Vec<u32>,
    /// Per pivot `t`, its feeders occupy
    /// `feeders[feeder_start[t]..feeder_start[t + 1]]`.
    feeder_start: Vec<u32>,
    feeders: Vec<Feeder>,
    /// Flattened destination slots: each feeder of pivot `t` owns
    /// `prefix_len(t)` consecutive entries.
    dest: Vec<u32>,
    /// Structural (pre-fill) nonzero count, for diagnostics.
    structural_nnz: usize,
    /// Per-solve scratch, allocated once.
    val: Vec<f64>,
    qa: Vec<f64>,
    rhs: Vec<f64>,
    exit: Vec<f64>,
    x: Vec<f64>,
    /// Solves performed by this instance.
    solves: u64,
}

/// Inserts `v` into the sorted vector `row` unless present; returns
/// whether it was inserted.
fn insert_sorted(row: &mut Vec<u32>, v: u32) -> bool {
    match row.binary_search(&v) {
        Ok(_) => false,
        Err(k) => {
            row.insert(k, v);
            true
        }
    }
}

impl BatchSolver {
    /// Compiles the elimination program for `skeleton`, reporting MTTA
    /// from `root`.
    ///
    /// The skeleton's rates are placeholders (the sweep convention:
    /// structure only); they are ignored except to define which
    /// `(from, to)` pairs exist.
    ///
    /// # Errors
    ///
    /// * [`Error::NoTransientState`] / [`Error::NoAbsorbingState`] if the
    ///   chain is not absorbing.
    /// * [`Error::UnknownState`] / [`Error::StateNotTransient`] for a bad
    ///   root.
    pub fn new(skeleton: &Ctmc, root: StateId) -> Result<BatchSolver> {
        if root.index() >= skeleton.len() {
            return Err(Error::UnknownState {
                state: root.index(),
                len: skeleton.len(),
            });
        }
        let mut pos = vec![u32::MAX; skeleton.len()];
        let mut m = 0;
        for s in skeleton.states() {
            if !skeleton.is_absorbing(s) {
                pos[s.index()] = m as u32;
                m += 1;
            }
        }
        if m == 0 {
            return Err(Error::NoTransientState);
        }
        if m == skeleton.len() {
            return Err(Error::NoAbsorbingState);
        }
        if pos[root.index()] == u32::MAX {
            return Err(Error::StateNotTransient {
                state: root.index(),
            });
        }

        // Structural pattern, kept twice: `rows[i]` lists the columns of
        // row `i` and `cols[j]` the rows of column `j`, both sorted.
        // Duplicate transitions between the same pair share a slot
        // (their rates accumulate, as the dense loop's `q[i][j] += rate`
        // does).
        let transitions = skeleton.transitions();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut endpoints = Vec::with_capacity(transitions.len());
        for tr in transitions {
            endpoints.push((tr.from.index() as u32, tr.to.index() as u32));
            let (i, j) = (pos[tr.from.index()], pos[tr.to.index()]);
            debug_assert_ne!(i, u32::MAX, "absorbing states have no transitions");
            if j != u32::MAX && insert_sorted(&mut rows[i as usize], j) {
                insert_sorted(&mut cols[j as usize], i);
            }
        }
        let structural_nnz = rows.iter().map(Vec::len).sum();

        // Symbolic elimination: replay the pivot loop on the pattern
        // alone, inserting every position the numeric pass could fill.
        // The numeric guards (`f == 0`, `add > 0`) can only *skip*
        // positions predicted here, never add new ones, so the final
        // pattern is a static superset holding exact zeros where the
        // dense loop would add nothing. Eliminating `t` fills only rows
        // and columns below `t`, so row `t` and column `t` are final
        // when pivot `t` is reached.
        for t in (0..m).rev() {
            let row_t = std::mem::take(&mut rows[t]);
            let prefix = &row_t[..row_t.partition_point(|&j| (j as usize) < t)];
            let col_t = std::mem::take(&mut cols[t]);
            for &i in col_t.iter().take_while(|&&i| (i as usize) < t) {
                for &j in prefix {
                    if j != i && insert_sorted(&mut rows[i as usize], j) {
                        insert_sorted(&mut cols[j as usize], i);
                    }
                }
            }
            rows[t] = row_t;
            cols[t] = col_t;
        }

        // Freeze the filled pattern as CSR.
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut col = Vec::with_capacity(nnz);
        let mut row_start = Vec::with_capacity(m + 1);
        let mut split = Vec::with_capacity(m);
        for (i, row) in rows.iter().enumerate() {
            row_start.push(col.len() as u32);
            split.push((col.len() + row.partition_point(|&j| (j as usize) < i)) as u32);
            col.extend_from_slice(row);
        }
        row_start.push(col.len() as u32);
        let slot_of = |i: u32, j: u32| -> u32 {
            let lo = row_start[i as usize] as usize;
            let hi = row_start[i as usize + 1] as usize;
            let k = col[lo..hi]
                .binary_search(&j)
                .expect("pattern contains slot");
            (lo + k) as u32
        };

        let scatter = transitions
            .iter()
            .map(|tr| {
                let (i, j) = (pos[tr.from.index()], pos[tr.to.index()]);
                if j == u32::MAX {
                    Scatter::Absorb(i)
                } else {
                    Scatter::Slot(slot_of(i, j))
                }
            })
            .collect();

        // Compile the per-pivot feeder program against the frozen
        // pattern: pivot `t`'s feeders are column `t`'s rows above the
        // diagonal, ascending (the dense loop's `i` order).
        let mut feeder_start = Vec::with_capacity(m + 1);
        let mut feeders = Vec::new();
        let mut dest = Vec::new();
        for (t, col_t) in cols.iter().enumerate() {
            feeder_start.push(feeders.len() as u32);
            let prefix = &col[row_start[t] as usize..split[t] as usize];
            for &i in col_t.iter().take_while(|&&i| (i as usize) < t) {
                let dest_start = dest.len() as u32;
                dest.extend(
                    prefix
                        .iter()
                        .map(|&j| if j == i { SKIP } else { slot_of(i, j) }),
                );
                feeders.push(Feeder {
                    row: i,
                    slot_it: slot_of(i, t as u32),
                    dest_start,
                });
            }
        }
        feeder_start.push(feeders.len() as u32);

        crate::obs::BATCH_BUILDS.inc();
        Ok(BatchSolver {
            m,
            root: pos[root.index()] as usize,
            endpoints,
            scatter,
            col,
            row_start,
            split,
            feeder_start,
            feeders,
            dest,
            structural_nnz,
            val: vec![0.0; nnz],
            qa: vec![0.0; m],
            rhs: vec![0.0; m],
            exit: vec![0.0; m],
            x: vec![0.0; m],
            solves: 0,
        })
    }

    /// Builds a solver with the root looked up by label.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if no state carries the label, plus the
    /// conditions of [`BatchSolver::new`].
    pub fn from_label(skeleton: &Ctmc, root_label: &str) -> Result<BatchSolver> {
        let root = skeleton
            .state_by_label(root_label)
            .ok_or(Error::InvalidArgument {
                what: "root label not found in skeleton",
            })?;
        BatchSolver::new(skeleton, root)
    }

    /// Number of transient states.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Number of skeleton transitions (the expected rate-vector length).
    pub fn transitions(&self) -> usize {
        self.scatter.len()
    }

    /// Structural transient-to-transient nonzeros, before fill.
    pub fn structural_nnz(&self) -> usize {
        self.structural_nnz
    }

    /// Fill slots the symbolic pass added beyond the structural nonzeros.
    pub fn fill(&self) -> usize {
        self.col.len() - self.structural_nnz
    }

    /// Solves performed by this instance since construction.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// The elimination pivots (exit rates `D_t`, in transient-row order)
    /// written by the last solve; after a successful one their product
    /// is `det(R)`. They depend on the rates only, not on the
    /// right-hand side.
    pub fn pivots(&self) -> &[f64] {
        &self.exit
    }

    /// Mean time to absorption from the root under `rates` (one rate per
    /// skeleton transition, in [`Ctmc::transitions`] order).
    ///
    /// Allocation-free; bit-identical to the dense GTH loop on
    /// `skeleton.with_rates(rates)` (see module docs).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] on a rate-vector length mismatch.
    /// * [`Error::InvalidRate`] for negative, NaN or infinite rates.
    /// * [`Error::Linalg`] ([`nsr_linalg::Error::Singular`]) if some state
    ///   cannot reach absorption under these rates.
    pub fn solve_mtta(&mut self, rates: &[f64]) -> Result<f64> {
        self.rhs.fill(1.0);
        self.eliminate(rates)?;
        Ok(self.x[self.root])
    }

    /// Solves `R·x = rhs` over the transient states (in
    /// [`Ctmc::transient_states`] order) under `rates`, where `R = −Q_B`
    /// is the absorption matrix. `rhs = 1` gives the mean times to
    /// absorption, the rates into one absorbing state give the
    /// absorption probabilities into it, and `e_j` gives column `j` of
    /// the fundamental matrix `R⁻¹`.
    ///
    /// Allocation-free, with the arithmetic of
    /// [`BatchSolver::solve_mtta`]. A non-negative `rhs` keeps every
    /// operation subtraction-free.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if `rhs` does not have one entry per
    /// transient state, plus the conditions of
    /// [`BatchSolver::solve_mtta`].
    pub fn solve(&mut self, rates: &[f64], rhs: &[f64]) -> Result<&[f64]> {
        if rhs.len() != self.m {
            return Err(Error::InvalidArgument {
                what: "right-hand side length must match the transient-state count",
            });
        }
        self.rhs.copy_from_slice(rhs);
        self.eliminate(rates)?;
        Ok(&self.x)
    }

    /// Loads `rates` and runs the compiled elimination against the
    /// right-hand side already in `self.rhs`, leaving the solution in
    /// `self.x` and the pivots in `self.exit`.
    fn eliminate(&mut self, rates: &[f64]) -> Result<()> {
        if rates.len() != self.scatter.len() {
            return Err(Error::InvalidArgument {
                what: "rate vector length must match the transition count",
            });
        }
        for (idx, &rate) in rates.iter().enumerate() {
            if !(rate.is_finite() && rate >= 0.0) {
                let (from, to) = self.endpoints[idx];
                return Err(Error::InvalidRate {
                    from: from as usize,
                    to: to as usize,
                    rate,
                });
            }
        }
        self.val.fill(0.0);
        self.qa.fill(0.0);
        for (&s, &rate) in self.scatter.iter().zip(rates) {
            match s {
                Scatter::Slot(k) => self.val[k as usize] += rate,
                Scatter::Absorb(i) => self.qa[i as usize] += rate,
            }
        }

        // Forward elimination, pivots descending: fold state t into the
        // remaining states that feed it. The exit rate over the remaining
        // targets is recomputed as a sum (never a difference) — the GTH
        // trick.
        for t in (0..self.m).rev() {
            let prefix_lo = self.row_start[t] as usize;
            let prefix_hi = self.split[t] as usize;
            let mut d = self.qa[t];
            for p in prefix_lo..prefix_hi {
                d += self.val[p];
            }
            if d <= 0.0 {
                // State t cannot reach absorption once higher states are
                // eliminated: the chain is reducible w.r.t. absorption.
                return Err(Error::Linalg(nsr_linalg::Error::Singular { pivot: t }));
            }
            self.exit[t] = d;
            let (r_t, qa_t) = (self.rhs[t], self.qa[t]);
            let f_lo = self.feeder_start[t] as usize;
            let f_hi = self.feeder_start[t + 1] as usize;
            for fi in f_lo..f_hi {
                let Feeder {
                    row,
                    slot_it,
                    dest_start,
                } = self.feeders[fi];
                let i = row as usize;
                let f = self.val[slot_it as usize] / d;
                if f == 0.0 {
                    continue;
                }
                self.rhs[i] += f * r_t;
                self.qa[i] += f * qa_t;
                for (p, dk) in (prefix_lo..prefix_hi).zip(dest_start as usize..) {
                    let slot = self.dest[dk];
                    if slot == SKIP {
                        continue;
                    }
                    let add = f * self.val[p];
                    if add > 0.0 {
                        self.val[slot as usize] += add;
                    }
                }
            }
        }

        // Back-substitution, ascending pivots and columns:
        // x_t = (rhs_t + Σ_{j<t} q_tj·x_j) / D_t — again all non-negative.
        for t in 0..self.m {
            let mut acc = self.rhs[t];
            let lo = self.row_start[t] as usize;
            let hi = self.split[t] as usize;
            for p in lo..hi {
                acc += self.val[p] * self.x[self.col[p] as usize];
            }
            self.x[t] = acc / self.exit[t];
        }
        self.solves += 1;
        crate::obs::BATCH_SOLVES.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbsorbingAnalysis, CtmcBuilder};

    /// Reference answer through the rebuild-from-scratch path (which
    /// compiles the re-rated chain's own structure, zero-rate
    /// transitions dropped).
    fn oracle(skeleton: &Ctmc, root: StateId, rates: &[f64]) -> f64 {
        let chain = skeleton.with_rates(rates).unwrap();
        AbsorbingAnalysis::new(&chain)
            .unwrap()
            .mean_time_to_absorption(root)
            .unwrap()
    }

    fn birth_death(depth: usize) -> (Ctmc, StateId) {
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..depth {
            b.add_transition(states[i], states[i + 1], 1.0).unwrap();
            b.add_transition(states[i + 1], states[i], 1.0).unwrap();
        }
        b.add_transition(states[depth], dead, 1.0).unwrap();
        (b.build().unwrap(), states[0])
    }

    #[test]
    fn birth_death_bit_identical_to_analysis() {
        let (skel, root) = birth_death(6);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        assert_eq!(solver.fill(), 0, "birth–death elimination is fill-free");
        let n = solver.transitions();
        for variant in 0..8u32 {
            let rates: Vec<f64> = (0..n)
                .map(|k| 1e-6 * (1.0 + (k as f64) * 0.37) * (1.0 + f64::from(variant)))
                .collect();
            let got = solver.solve_mtta(&rates).unwrap();
            let want = oracle(&skel, root, &rates);
            assert_eq!(got.to_bits(), want.to_bits(), "variant {variant}");
        }
        assert_eq!(solver.solves(), 8);
    }

    #[test]
    fn cyclic_fill_matches_hand_solution() {
        // A 4-cycle 0→1→2→3→0 plus absorption from state 2 eliminates
        // with fill. From state 2 the exit rate is 3 (1 to s3, 2 to
        // dead); first-step analysis gives x2 = 1/3 + (1/3)·x3,
        // x3 = 1 + x0, x0 = 1 + x1, x1 = 1 + x2, so x2 = 2 and x0 = 4.
        let mut b = CtmcBuilder::new();
        let s: Vec<StateId> = (0..4).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..4 {
            b.add_transition(s[i], s[(i + 1) % 4], 1.0).unwrap();
        }
        b.add_transition(s[2], dead, 2.0).unwrap();
        let skel = b.build().unwrap();
        let mut solver = BatchSolver::new(&skel, s[0]).unwrap();
        assert!(solver.fill() > 0);
        assert_eq!(solver.structural_nnz(), 4);
        let rates: Vec<f64> = skel.transitions().iter().map(|t| t.rate).collect();
        let x = solver.solve(&rates, &[1.0; 4]).unwrap().to_vec();
        assert!((x[2] - 2.0).abs() < 1e-12, "{}", x[2]);
        assert!((x[0] - 4.0).abs() < 1e-12, "{}", x[0]);
        // The MTTA entry point is the `rhs = 1` solve, read at the root.
        assert_eq!(solver.solve_mtta(&rates).unwrap().to_bits(), x[0].to_bits());
        // The pivots multiply to det(R) = 3 − 1 = 2 (one cycle through
        // the absorbing exit).
        let det: f64 = solver.pivots().iter().product();
        assert!((det - 2.0).abs() < 1e-12, "{det}");
        assert!(matches!(
            solver.solve(&rates, &[1.0; 3]),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn cyclic_fill_bit_identical_to_analysis() {
        // Elimination of a 4-cycle creates fill.
        let mut b = CtmcBuilder::new();
        let s: Vec<StateId> = (0..4).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..4 {
            b.add_transition(s[i], s[(i + 1) % 4], 1.0).unwrap();
        }
        b.add_transition(s[2], dead, 2.0).unwrap();
        let skel = b.build().unwrap();
        let mut solver = BatchSolver::new(&skel, s[0]).unwrap();
        assert!(solver.fill() > 0);
        let rates = [0.9, 1.7, 0.3, 2.2, 5.0];
        let got = solver.solve_mtta(&rates).unwrap();
        let want = oracle(&skel, s[0], &rates);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn zero_rates_match_dropped_transitions() {
        // `with_rates` drops zero-rate transitions entirely; the batch
        // solver keeps the slot with an exact 0.0. Both must agree as
        // long as every transient state keeps a live exit path.
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("c");
        let dead = b.add_state("dead");
        b.add_transition(a, c, 1.0).unwrap();
        b.add_transition(c, a, 1.0).unwrap();
        b.add_transition(a, dead, 1.0).unwrap();
        b.add_transition(c, dead, 1.0).unwrap();
        let skel = b.build().unwrap();
        let mut solver = BatchSolver::new(&skel, a).unwrap();
        let rates = [0.0, 0.5, 0.25, 1.5];
        let got = solver.solve_mtta(&rates).unwrap();
        let want = oracle(&skel, a, &rates);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn silenced_state_reports_singular() {
        let (skel, root) = birth_death(2);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        let zero = vec![0.0; solver.transitions()];
        match solver.solve_mtta(&zero) {
            Err(Error::Linalg(nsr_linalg::Error::Singular { .. })) => {}
            other => panic!("expected singular pivot, got {other:?}"),
        }
    }

    #[test]
    fn rate_validation_mirrors_with_rates() {
        let (skel, root) = birth_death(2);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        let mut rates = vec![1.0; solver.transitions()];
        rates[1] = -1.0;
        assert!(matches!(
            solver.solve_mtta(&rates),
            Err(Error::InvalidRate { .. })
        ));
        let short = vec![1.0; solver.transitions() - 1];
        assert!(matches!(
            solver.solve_mtta(&short),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn root_must_be_transient() {
        let (skel, _) = birth_death(2);
        let dead = skel.state_by_label("dead").unwrap();
        assert!(matches!(
            BatchSolver::new(&skel, dead),
            Err(Error::StateNotTransient { .. })
        ));
        assert!(BatchSolver::from_label(&skel, "nope").is_err());
    }
}
