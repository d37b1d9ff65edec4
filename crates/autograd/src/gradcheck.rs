//! Central-difference gradient checking.
//!
//! Every backward formula in [`crate::tape`] is validated here against a
//! numerical gradient. The checker takes a closure that rebuilds the forward
//! graph from scratch for perturbed inputs — exactly how the define-by-run
//! tape is used in training.

use gcnp_tensor::Matrix;

/// Compute the numerical gradient of `f` w.r.t. `input` by central
/// differences with step `eps`.
pub fn numeric_grad(input: &Matrix, eps: f32, mut f: impl FnMut(&Matrix) -> f32) -> Matrix {
    let mut grad = Matrix::zeros(input.rows(), input.cols());
    let mut probe = input.clone();
    for i in 0..input.len() {
        let orig = probe.as_slice()[i];
        probe.as_mut_slice()[i] = orig + eps;
        let up = f(&probe);
        probe.as_mut_slice()[i] = orig - eps;
        let down = f(&probe);
        probe.as_mut_slice()[i] = orig;
        grad.as_mut_slice()[i] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Assert that `analytic` matches the numerical gradient of `f` at `input`
/// within a mixed absolute/relative tolerance.
pub fn assert_grad_close(
    input: &Matrix,
    analytic: &Matrix,
    eps: f32,
    tol: f32,
    f: impl FnMut(&Matrix) -> f32,
) {
    let numeric = numeric_grad(input, eps, f);
    for i in 0..input.len() {
        let a = analytic.as_slice()[i];
        let n = numeric.as_slice()[i];
        let denom = 1.0f32.max(a.abs()).max(n.abs());
        assert!(
            (a - n).abs() / denom <= tol,
            "grad mismatch at flat index {i}: analytic={a}, numeric={n}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{SharedAdj, Tape};
    use gcnp_sparse::CsrMatrix;
    use gcnp_tensor::init::seeded_rng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn rngm(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::rand_uniform(r, c, -1.0, 1.0, &mut seeded_rng(seed))
    }

    /// Check ∂loss/∂input for a scalar-loss graph built by `build`.
    fn check(input: Matrix, build: impl Fn(&mut Tape, crate::tape::Var) -> crate::tape::Var) {
        let mut t = Tape::new();
        let x = t.param(input.clone());
        let loss = build(&mut t, x);
        t.backward(loss);
        let analytic = t.grad(x).expect("input must receive a gradient").clone();
        assert_grad_close(&input, &analytic, EPS, TOL, |probe| {
            let mut t = Tape::new();
            let x = t.param(probe.clone());
            let loss = build(&mut t, x);
            t.scalar(loss)
        });
    }

    #[test]
    fn matmul_left_grad() {
        let b = rngm(4, 3, 2);
        let y = rngm(5, 3, 3);
        check(rngm(5, 4, 1), move |t, x| {
            let bv = t.constant(b.clone());
            let p = t.matmul(x, bv);
            t.mse(p, y.clone())
        });
    }

    #[test]
    fn matmul_right_grad() {
        let a = rngm(5, 4, 4);
        let y = rngm(5, 3, 5);
        check(rngm(4, 3, 6), move |t, x| {
            let av = t.constant(a.clone());
            let p = t.matmul(av, x);
            t.mse(p, y.clone())
        });
    }

    #[test]
    fn spmm_grad() {
        let adj = SharedAdj::new(
            CsrMatrix::adjacency(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
                .normalized(gcnp_sparse::Normalization::Row),
        );
        let y = rngm(4, 3, 7);
        check(rngm(4, 3, 8), move |t, x| {
            let p = t.spmm(&adj, x);
            t.mse(p, y.clone())
        });
    }

    #[test]
    fn add_sub_hadamard_grads() {
        let b = rngm(3, 3, 9);
        let y = rngm(3, 3, 10);
        check(rngm(3, 3, 11), move |t, x| {
            let bv = t.constant(b.clone());
            let s = t.add(x, bv);
            let d = t.sub(s, x);
            let h = t.hadamard(d, x);
            t.mse(h, y.clone())
        });
    }

    #[test]
    fn bias_grad() {
        let xc = rngm(6, 3, 12);
        let y = rngm(6, 3, 13);
        check(rngm(1, 3, 14), move |t, bias| {
            let xv = t.constant(xc.clone());
            let p = t.add_bias(xv, bias);
            t.mse(p, y.clone())
        });
    }

    #[test]
    fn concat_grad() {
        let y = rngm(3, 6, 15);
        check(rngm(3, 3, 16), move |t, x| {
            let two = t.scale(x, 2.0);
            let c = t.concat_cols(&[x, two]);
            t.mse(c, y.clone())
        });
    }

    #[test]
    fn relu_grad() {
        // Shift inputs away from the kink at 0 for a clean finite difference.
        let input = rngm(4, 4, 17).map(|v| if v.abs() < 0.15 { v + 0.3 } else { v });
        let y = rngm(4, 4, 18);
        check(input, move |t, x| {
            let r = t.relu(x);
            t.mse(r, y.clone())
        });
    }

    #[test]
    fn leaky_relu_grad() {
        let input = rngm(4, 4, 19).map(|v| if v.abs() < 0.15 { v + 0.3 } else { v });
        let y = rngm(4, 4, 20);
        check(input, move |t, x| {
            let r = t.leaky_relu(x, 0.2);
            t.mse(r, y.clone())
        });
    }

    #[test]
    fn scale_cols_grad_wrt_x() {
        let beta = rngm(1, 4, 21);
        let y = rngm(5, 4, 22);
        check(rngm(5, 4, 23), move |t, x| {
            let bv = t.constant(beta.clone());
            let m = t.scale_cols(x, bv);
            t.mse(m, y.clone())
        });
    }

    #[test]
    fn scale_cols_grad_wrt_beta() {
        // The LASSO β-step gradient — the core of the paper's Eq. 6.
        let xc = rngm(5, 4, 24);
        let y = rngm(5, 4, 25);
        check(rngm(1, 4, 26), move |t, beta| {
            let xv = t.constant(xc.clone());
            let m = t.scale_cols(xv, beta);
            t.mse(m, y.clone())
        });
    }

    #[test]
    fn lasso_objective_grad_wrt_beta() {
        // Full Eq. 6 objective: ||Y - (X ⊙ β) W||^2 + λ|β|_1.
        let xc = rngm(6, 4, 27);
        let w = rngm(4, 3, 28);
        let y = rngm(6, 3, 29);
        check(rngm(1, 4, 30).map(|v| v + 1.5), move |t, beta| {
            let xv = t.constant(xc.clone());
            let wv = t.constant(w.clone());
            let masked = t.scale_cols(xv, beta);
            let pred = t.matmul(masked, wv);
            let data = t.mse(pred, y.clone());
            let pen = t.l1(beta);
            let pen = t.scale(pen, 0.05);
            t.add(data, pen)
        });
    }

    #[test]
    fn scale_grad() {
        let y = rngm(3, 3, 50);
        check(rngm(3, 3, 51), move |t, x| {
            let s = t.scale(x, -1.7);
            t.mse(s, y.clone())
        });
    }

    #[test]
    fn mse_grad_wrt_pred() {
        let target = rngm(4, 3, 52);
        check(rngm(4, 3, 53), move |t, x| t.mse(x, target.clone()));
    }

    #[test]
    fn l1_grad() {
        // Shift inputs off the |x| kink at 0 for a clean central difference.
        let input = rngm(2, 5, 54).map(|v| if v >= 0.0 { v + 0.5 } else { v - 0.5 });
        check(input, move |t, x| t.l1(x));
    }

    #[test]
    fn dropout_grad() {
        // The mask is drawn from the tape's RNG; reseed identically on every
        // rebuild so all perturbed forwards share one mask.
        let y = rngm(6, 4, 55);
        check(rngm(6, 4, 56), move |t, x| {
            let mut rng = seeded_rng(57);
            let d = t.dropout(x, 0.4, &mut rng);
            t.mse(d, y.clone())
        });
    }

    #[test]
    fn gather_rows_grad() {
        let y = rngm(3, 2, 31);
        check(rngm(5, 2, 32), move |t, x| {
            let g = t.gather_rows(x, &[4, 0, 4]);
            t.mse(g, y.clone())
        });
    }

    #[test]
    fn softmax_xent_grad() {
        check(rngm(6, 4, 33), move |t, x| {
            t.softmax_xent(x, &[0, 1, 2, 3, 0, 1])
        });
    }

    #[test]
    fn bce_logits_grad() {
        let targets = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        check(rngm(3, 2, 34), move |t, x| t.bce_logits(x, targets.clone()));
    }

    #[test]
    fn attn_aggregate_grads() {
        let adj = SharedAdj::new(CsrMatrix::adjacency(
            4,
            &[(0, 1), (0, 2), (1, 0), (2, 3), (3, 0), (3, 2)],
        ));
        let y = rngm(4, 3, 35);
        // grad w.r.t. h
        {
            let adj = adj.clone();
            let s = rngm(4, 1, 36);
            let d = rngm(4, 1, 37);
            let y = y.clone();
            check(rngm(4, 3, 38), move |t, h| {
                let sv = t.constant(s.clone());
                let dv = t.constant(d.clone());
                let out = t.attn_aggregate(&adj, h, sv, dv, 0.2);
                t.mse(out, y.clone())
            });
        }
        // grad w.r.t. s
        {
            let adj = adj.clone();
            let h = rngm(4, 3, 39);
            let d = rngm(4, 1, 40);
            let y = y.clone();
            check(rngm(4, 1, 41), move |t, s| {
                let hv = t.constant(h.clone());
                let dv = t.constant(d.clone());
                let out = t.attn_aggregate(&adj, hv, s, dv, 0.2);
                t.mse(out, y.clone())
            });
        }
        // grad w.r.t. d
        {
            let h = rngm(4, 3, 42);
            let s = rngm(4, 1, 43);
            check(rngm(4, 1, 44), move |t, d| {
                let hv = t.constant(h.clone());
                let sv = t.constant(s.clone());
                let out = t.attn_aggregate(&adj, hv, sv, d, 0.2);
                t.mse(out, y.clone())
            });
        }
    }

    #[test]
    fn deep_composite_graph_grad() {
        // A 2-layer GraphSAGE-shaped graph: concat(x, Ãx)W1 -> relu -> ...
        let adj = SharedAdj::new(
            CsrMatrix::adjacency(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 0)])
                .normalized(gcnp_sparse::Normalization::Row),
        );
        let w1 = rngm(6, 4, 45);
        let w2 = rngm(8, 2, 46);
        check(rngm(5, 3, 47), move |t, x| {
            let agg = t.spmm(&adj, x);
            let cat = t.concat_cols(&[x, agg]);
            let w1v = t.constant(w1.clone());
            let h = t.matmul(cat, w1v);
            let h = t.relu(h);
            let agg2 = t.spmm(&adj, h);
            let cat2 = t.concat_cols(&[h, agg2]);
            let w2v = t.constant(w2.clone());
            let logits = t.matmul(cat2, w2v);
            t.softmax_xent(logits, &[0, 1, 0, 1, 0])
        });
    }
}
