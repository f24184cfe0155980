//! Property-based tests for the CTMC toolkit: generator identities, the
//! GTH absorbing analysis against independent oracles, and simulation
//! consistency. Random chains come from the in-repo seeded PRNG.

use nsr_markov::{
    birth_death_mtta, simulate, AbsorbingAnalysis, BatchSolver, Ctmc, CtmcBuilder, StateId,
};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

#[path = "common/dense_oracle.rs"]
mod dense_oracle;
use dense_oracle::dense_gth;

/// A random absorbing chain over `n` transient states plus one absorbing
/// state. Every transient state gets a path toward absorption through the
/// "dead" state, so the chain is proper.
fn random_absorbing_chain<R: Rng + ?Sized>(rng: &mut R, n: usize) -> (Ctmc, StateId) {
    let mut b = CtmcBuilder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("{i}"))).collect();
    let dead = b.add_state("dead");
    for i in 0..n {
        for j in 0..n {
            let r = rng.random_range_f64(0.01, 10.0);
            if i != j && r > 5.0 {
                // Sparse-ish random structure.
                b.add_transition(states[i], states[j], r - 5.0).unwrap();
            }
        }
    }
    for &s in &states {
        // Guaranteed absorption path.
        b.add_transition(s, dead, rng.random_range_f64(0.01, 10.0))
            .unwrap();
    }
    (b.build().unwrap(), states[0])
}

#[test]
fn generator_rows_sum_to_zero() {
    let mut rng = StdRng::seed_from_u64(0xabc_0001);
    for _ in 0..48 {
        let (ctmc, _) = random_absorbing_chain(&mut rng, 5);
        let q = ctmc.generator();
        for r in 0..ctmc.len() {
            let sum: f64 = q.row(r).iter().sum();
            assert!(sum.abs() < 1e-9, "row {r}: {sum}");
        }
    }
}

#[test]
fn mtta_positive_and_bounded_by_slowest_exit() {
    let mut rng = StdRng::seed_from_u64(0xabc_0002);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 5);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let mtta = an.mean_time_to_absorption(root).unwrap();
        assert!(mtta > 0.0 && mtta.is_finite());
        // Lower bound: expected holding time of the root alone.
        assert!(mtta >= 1.0 / ctmc.total_rate(root) - 1e-12);
    }
}

#[test]
fn absorption_probabilities_sum_to_one() {
    let mut rng = StdRng::seed_from_u64(0xabc_0003);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 4);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let total: f64 = an
            .absorbing_states()
            .iter()
            .map(|&a| an.absorption_probability(root, a).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }
}

#[test]
fn occupancies_decompose_mtta() {
    let mut rng = StdRng::seed_from_u64(0xabc_0004);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 4);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let mtta = an.mean_time_to_absorption(root).unwrap();
        let sum: f64 = an
            .transient_states()
            .iter()
            .map(|&s| an.expected_time_in(root, s).unwrap())
            .sum();
        assert!((sum - mtta).abs() / mtta < 1e-6, "{sum} vs {mtta}");
    }
}

#[test]
fn rate_scaling_scales_time() {
    // Scaling every rate by c divides every expected time by c.
    let mut rng = StdRng::seed_from_u64(0xabc_0005);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 4);
        let scale = rng.random_range_f64(0.1, 10.0);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let base = an.mean_time_to_absorption(root).unwrap();

        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = ctmc.states().map(|s| b.add_state(ctmc.label(s))).collect();
        for t in ctmc.transitions() {
            b.add_transition(states[t.from.index()], states[t.to.index()], t.rate * scale)
                .unwrap();
        }
        let scaled = b.build().unwrap();
        let an2 = AbsorbingAnalysis::new(&scaled).unwrap();
        let fast = an2.mean_time_to_absorption(states[root.index()]).unwrap();
        assert!((fast * scale - base).abs() / base < 1e-9);
    }
}

#[test]
fn birth_death_oracle_agrees_with_gth() {
    let mut rng = StdRng::seed_from_u64(0xabc_0006);
    for _ in 0..48 {
        let depth = rng.random_range_usize(1, 6);
        // Log-uniform λ over [1e-6, 1e-2); uniform μ over [0.01, 10).
        let lam = 10f64.powf(rng.random_range_f64(-6.0, -2.0));
        let mu = rng.random_range_f64(0.01, 10.0);
        let forward: Vec<f64> = (0..=depth).map(|i| lam * (depth + 1 - i) as f64).collect();
        let backward = vec![mu; depth];
        let oracle = birth_death_mtta(&forward, &backward).unwrap();

        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..=depth {
            let to = if i < depth { states[i + 1] } else { dead };
            b.add_transition(states[i], to, forward[i]).unwrap();
            if i > 0 {
                b.add_transition(states[i], states[i - 1], mu).unwrap();
            }
        }
        let ctmc = b.build().unwrap();
        let gth = AbsorbingAnalysis::new(&ctmc)
            .unwrap()
            .mean_time_to_absorption(states[0])
            .unwrap();
        assert!(
            (oracle - gth).abs() / gth < 1e-9,
            "{oracle:.6e} vs {gth:.6e}"
        );
    }
}

/// A random chain where only *some* transient states can reach absorption
/// directly, some states are isolated feeders, and singular structures
/// (no path to absorption at all) are possible.
fn random_maybe_improper_chain<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("{i}"))).collect();
    let dead = b.add_state("dead");
    // Per-chain densities drawn so that both regimes occur: low p_abs
    // chains frequently have no path to absorption at all (singular),
    // while higher ones are proper.
    let p_edge = rng.random_range_f64(0.05, 0.3);
    let p_abs = rng.random_range_f64(0.0, 0.3);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.random_range_f64(0.0, 1.0) < p_edge {
                b.add_transition(states[i], states[j], rng.random_range_f64(0.01, 10.0))
                    .unwrap();
            }
        }
        // Only some states get a direct absorption edge; the rest must
        // route through them (or cannot absorb at all — singular).
        if rng.random_range_f64(0.0, 1.0) < p_abs {
            b.add_transition(states[i], dead, rng.random_range_f64(0.01, 10.0))
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// The dense oracle's inputs for `ctmc`: transient-to-transient rates,
/// rates into the absorbing class, and per absorbing state its inflow
/// rates (the absorption-probability right-hand side).
struct DenseTables {
    q: Vec<Vec<f64>>,
    qa: Vec<f64>,
    inflow: Vec<(StateId, Vec<f64>)>,
}

fn dense_tables(ctmc: &Ctmc) -> DenseTables {
    let transient = ctmc.transient_states();
    let m = transient.len();
    let row = |s: StateId| transient.iter().position(|&t| t == s);
    let mut q = vec![vec![0.0; m]; m];
    let mut qa = vec![0.0; m];
    let mut inflow: Vec<(StateId, Vec<f64>)> = ctmc
        .absorbing_states()
        .into_iter()
        .map(|a| (a, vec![0.0; m]))
        .collect();
    for (i, &s) in transient.iter().enumerate() {
        for &(to, rate) in ctmc.transitions_from(s) {
            match row(to) {
                Some(j) => q[i][j] += rate,
                None => {
                    qa[i] += rate;
                    let (_, r) = inflow.iter_mut().find(|(a, _)| *a == to).unwrap();
                    r[i] += rate;
                }
            }
        }
    }
    DenseTables { q, qa, inflow }
}

/// Asserts every GTH-computed quantity of `an`, and the elimination
/// pivots, equal the dense oracle's to the last bit.
fn assert_matches_dense_oracle(ctmc: &Ctmc, an: &AbsorbingAnalysis) {
    let DenseTables { q, qa, inflow } = dense_tables(ctmc);
    let m = qa.len();
    let mtta = dense_gth(q.clone(), qa.clone(), vec![1.0; m]).expect("oracle solvable");
    for (i, &s) in an.transient_states().iter().enumerate() {
        assert_eq!(
            an.mean_time_to_absorption(s).unwrap().to_bits(),
            mtta.x[i].to_bits(),
            "mtta diverged on a {m}-state chain"
        );
    }
    let pivots: Vec<u64> = an.solver().pivots().iter().map(|p| p.to_bits()).collect();
    let want: Vec<u64> = mtta.pivots.iter().map(|p| p.to_bits()).collect();
    assert_eq!(pivots, want, "pivots diverged on a {m}-state chain");
    for (a, r) in inflow {
        let p = dense_gth(q.clone(), qa.clone(), r).expect("oracle solvable");
        for (i, &s) in an.transient_states().iter().enumerate() {
            assert_eq!(
                an.absorption_probability(s, a).unwrap().to_bits(),
                p.x[i].clamp(0.0, 1.0).to_bits(),
                "absorption probability diverged on a {m}-state chain"
            );
        }
    }
}

#[test]
fn sparse_and_dense_gth_tiers_are_bit_identical() {
    // The runtime GTH (the compiled program that replaced the sparse
    // tier) claims bit-for-bit agreement with the dense oracle: same
    // elimination order, same accumulation order. Pin that with exact
    // comparisons across random chains, including chains with isolated
    // states and absorbing-only corners, where both must also agree on
    // singularity.
    let mut rng = StdRng::seed_from_u64(0xabc_0007);
    let mut proper = 0;
    let mut singular = 0;
    for _ in 0..160 {
        let n = rng.random_range_usize(2, 20);
        let ctmc = random_maybe_improper_chain(&mut rng, n);
        let DenseTables { q, qa, .. } = dense_tables(&ctmc);
        let m = qa.len();
        // A chain with no transient state has nothing to solve.
        let oracle = (m > 0).then(|| dense_gth(q, qa, vec![1.0; m])).flatten();
        match (AbsorbingAnalysis::new(&ctmc), oracle) {
            (Ok(an), Some(_)) => {
                proper += 1;
                assert_matches_dense_oracle(&ctmc, &an);
            }
            (Err(_), None) => singular += 1,
            (an, oracle) => panic!(
                "solvability disagreed: compiled {:?} vs dense {:?}",
                an.map(|_| ()),
                oracle.map(|_| ())
            ),
        }
    }
    // The generator must actually exercise both regimes.
    assert!(
        proper > 10 && singular > 10,
        "{proper} proper / {singular} singular"
    );
}

#[test]
fn auto_tier_agrees_with_forced_dense_on_proper_chains() {
    // `AbsorbingAnalysis::new`, which no longer picks a tier, must match
    // the dense oracle on proper chains of up to 24 states.
    let mut rng = StdRng::seed_from_u64(0xabc_0008);
    for _ in 0..32 {
        let n = rng.random_range_usize(2, 24);
        let (ctmc, _) = random_absorbing_chain(&mut rng, n);
        assert_matches_dense_oracle(&ctmc, &AbsorbingAnalysis::new(&ctmc).unwrap());
    }
}

#[test]
fn expected_time_in_gth_fallback_matches_dense_oracle() {
    // Unit internal rates with a 1e-20 exit to absorption: the exit is
    // lost when `R`'s diagonal is rounded, so LU meets a zero pivot and
    // every fundamental-matrix entry comes from the GTH solve with `e_j`
    // as the right-hand side.
    let mut rng = StdRng::seed_from_u64(0xabc_000a);
    let mut engaged = 0;
    for _ in 0..64 {
        let n = rng.random_range_usize(2, 12);
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..n {
            // A ring keeps every state connected; chords add fill.
            b.add_transition(states[i], states[(i + 1) % n], 1.0)
                .unwrap();
            let j = rng.random_range_usize(0, n);
            if j != i {
                b.add_transition(states[i], states[j], 1.0).unwrap();
            }
        }
        b.add_transition(states[n - 1], dead, 1e-20).unwrap();
        let ctmc = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        if !an.uses_gth_fallback() {
            continue;
        }
        engaged += 1;
        assert_matches_dense_oracle(&ctmc, &an);
        let DenseTables { q, qa, .. } = dense_tables(&ctmc);
        for (j, &sj) in an.transient_states().iter().enumerate() {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = dense_gth(q.clone(), qa.clone(), e).unwrap().x;
            for (i, &si) in an.transient_states().iter().enumerate() {
                assert_eq!(
                    an.expected_time_in(si, sj).unwrap().to_bits(),
                    col[i].to_bits(),
                    "R⁻¹[{i}][{j}] diverged on a {n}-state chain"
                );
            }
        }
    }
    assert!(
        engaged > 16,
        "GTH fallback engaged on only {engaged} chains"
    );
}

#[test]
fn batch_rerating_with_zero_rates_matches_dense_oracle() {
    // A compiled program keeps a slot for every skeleton transition;
    // re-rating with zeros leaves exact-zero slots where `with_rates`
    // drops the transition. As long as every state keeps its exit, both
    // must agree with the dense oracle to the last bit.
    let mut rng = StdRng::seed_from_u64(0xabc_0009);
    let mut zeros = 0;
    for _ in 0..48 {
        let n = rng.random_range_usize(2, 24);
        let (skeleton, root) = random_absorbing_chain(&mut rng, n);
        let mut solver = BatchSolver::new(&skeleton, root).unwrap();
        for _ in 0..4 {
            let rates: Vec<f64> = skeleton
                .transitions()
                .iter()
                .map(|t| {
                    let into_dead = skeleton.is_absorbing(t.to);
                    if !into_dead && rng.random_range_f64(0.0, 1.0) < 0.3 {
                        zeros += 1;
                        0.0
                    } else {
                        rng.random_range_f64(1e-6, 10.0)
                    }
                })
                .collect();
            let chain = skeleton.with_rates(&rates).unwrap();
            let DenseTables { q, qa, .. } = dense_tables(&chain);
            let want = dense_gth(q, qa, vec![1.0; n]).unwrap().x;
            let got = solver.solve_mtta(&rates).unwrap();
            assert_eq!(got.to_bits(), want[root.index()].to_bits());
            let all = solver.solve(&rates, &vec![1.0; n]).unwrap();
            for (a, b) in all.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
    assert!(zeros > 100, "only {zeros} zero-rate slots exercised");
}

#[test]
fn simulation_matches_analysis_on_random_chain() {
    // One deterministic random chain, simulated heavily.
    let mut b = CtmcBuilder::new();
    let s0 = b.add_state("0");
    let s1 = b.add_state("1");
    let s2 = b.add_state("2");
    let dead = b.add_state("dead");
    b.add_transition(s0, s1, 0.8).unwrap();
    b.add_transition(s1, s0, 1.5).unwrap();
    b.add_transition(s1, s2, 0.7).unwrap();
    b.add_transition(s2, s1, 0.9).unwrap();
    b.add_transition(s2, dead, 0.4).unwrap();
    b.add_transition(s0, dead, 0.05).unwrap();
    let ctmc = b.build().unwrap();
    let analytic = AbsorbingAnalysis::new(&ctmc)
        .unwrap()
        .mean_time_to_absorption(s0)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(2718);
    let est = simulate::estimate_mtta(&ctmc, s0, 20_000, &mut rng).unwrap();
    assert!(
        est.contains(analytic, 4.0),
        "simulated {est} vs analytic {analytic}"
    );
}
