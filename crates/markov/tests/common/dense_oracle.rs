//! The textbook dense GTH elimination, kept only as the test oracle the
//! compiled program (`BatchSolver`) must match bit for bit. Shared by the
//! crate's unit tests and its property tests.

/// A dense GTH solution: the solve and the elimination pivots (exit
/// rates `D_t`, in transient-row order).
pub struct DenseGth {
    pub x: Vec<f64>,
    pub pivots: Vec<f64>,
}

/// Solves `D_i·x_i = r_i + Σ_j q_ij·x_j` over the transient states, where
/// `q` holds the transient-to-transient rates, `qa` the rates into the
/// absorbing class and `r` a non-negative right-hand side, folding states
/// from the highest index down with every exit rate recomputed as a sum.
/// Returns `None` when some state cannot reach absorption.
pub fn dense_gth(mut q: Vec<Vec<f64>>, mut qa: Vec<f64>, mut r: Vec<f64>) -> Option<DenseGth> {
    let m = qa.len();
    let mut exit = vec![0.0; m];
    for t in (0..m).rev() {
        let mut d = qa[t];
        for &qtj in &q[t][..t] {
            d += qtj;
        }
        if d <= 0.0 {
            return None;
        }
        exit[t] = d;
        let row_t: Vec<f64> = q[t][..t].to_vec();
        for i in 0..t {
            let f = q[i][t] / d;
            if f == 0.0 {
                continue;
            }
            r[i] += f * r[t];
            qa[i] += f * qa[t];
            for (j, &qtj) in row_t.iter().enumerate() {
                if j != i {
                    let add = f * qtj;
                    if add > 0.0 {
                        q[i][j] += add;
                    }
                }
            }
        }
    }
    let mut x = vec![0.0; m];
    for t in 0..m {
        let mut acc = r[t];
        for (&qtj, &xj) in q[t].iter().zip(x.iter()).take(t) {
            acc += qtj * xj;
        }
        x[t] = acc / exit[t];
    }
    Some(DenseGth { x, pivots: exit })
}
