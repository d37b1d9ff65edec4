//! First-order optimizers.
//!
//! The paper uses ADAM for both the training of reference models and the two
//! LASSO sub-problems (§4, §3.3.3). Optimizer state is keyed by the position
//! of each parameter in the `params` slice, which callers must keep stable
//! across steps.

use gcnp_tensor::Matrix;

/// Configuration for [`Adam`].
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled L2 weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The ADAM optimizer (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u32,
}

impl Adam {
    /// Create an optimizer with the given config; state is allocated lazily
    /// on the first step.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Convenience constructor with only the learning rate set.
    pub fn with_lr(lr: f32) -> Self {
        Self::new(AdamConfig {
            lr,
            ..Default::default()
        })
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Apply one update. `params[i]` is updated with `grads[i]`; a `None`
    /// gradient skips that parameter (it may not appear in every graph).
    ///
    /// # Panics
    /// Panics if the number of parameters changes between steps.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[Option<&Matrix>]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "step: params/grads length mismatch"
        );
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }
        assert_eq!(self.m.len(), params.len(), "step: parameter count changed");
        self.t += 1;
        let c = self.cfg;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let Some(g) = g else { continue };
            assert_eq!(p.shape(), g.shape(), "step: grad shape mismatch");
            for ((pv, &gv), (mv, vv)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                let gv = gv + c.weight_decay * *pv;
                *mv = c.beta1 * *mv + (1.0 - c.beta1) * gv;
                *vv = c.beta2 * *vv + (1.0 - c.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= c.lr * mhat / (vhat.sqrt() + c.eps);
            }
        }
    }

    /// Reset optimizer state (fresh moments, step counter to zero).
    pub fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

/// Plain SGD with optional momentum.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Create an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Apply one update (same contract as [`Adam::step`]).
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[Option<&Matrix>]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "step: params/grads length mismatch"
        );
        if self.velocity.is_empty() && self.momentum != 0.0 {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }
        for (i, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            let Some(g) = g else { continue };
            if self.momentum == 0.0 {
                p.add_scaled_assign(g, -self.lr);
            } else {
                let vel = &mut self.velocity[i];
                vel.scale_assign(self.momentum);
                vel.add_scaled_assign(g, 1.0);
                p.add_scaled_assign(&vel.clone(), -self.lr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use gcnp_tensor::init::seeded_rng;

    fn quadratic_loss(w: &Matrix) -> (f32, Matrix) {
        // f(w) = ||w - 3||^2 elementwise; grad = 2(w-3)
        let target = Matrix::filled(w.rows(), w.cols(), 3.0);
        let diff = w.sub(&target);
        (diff.frobenius_sq(), diff.scale(2.0))
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut w = Matrix::zeros(2, 2);
        let mut opt = Adam::with_lr(0.1);
        for _ in 0..300 {
            let (_, g) = quadratic_loss(&w);
            opt.step(&mut [&mut w], &[Some(&g)]);
        }
        let (loss, _) = quadratic_loss(&w);
        assert!(loss < 1e-3, "Adam failed to converge: {loss}");
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut w = Matrix::zeros(2, 2);
        let mut opt = Sgd::new(0.05, 0.9);
        for _ in 0..200 {
            let (_, g) = quadratic_loss(&w);
            opt.step(&mut [&mut w], &[Some(&g)]);
        }
        let (loss, _) = quadratic_loss(&w);
        assert!(loss < 1e-3, "SGD failed to converge: {loss}");
    }

    #[test]
    fn none_grads_are_skipped() {
        let mut w = Matrix::filled(1, 1, 5.0);
        let mut opt = Adam::with_lr(0.1);
        opt.step(&mut [&mut w], &[None]);
        assert_eq!(w.get(0, 0), 5.0);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut w = Matrix::filled(1, 1, 1.0);
        let zero_grad = Matrix::zeros(1, 1);
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        });
        for _ in 0..50 {
            opt.step(&mut [&mut w], &[Some(&zero_grad)]);
        }
        assert!(w.get(0, 0) < 1.0);
    }

    #[test]
    fn adam_trains_tape_model() {
        // End-to-end: logistic regression via tape + Adam reaches low loss.
        let mut rng = seeded_rng(5);
        let x = Matrix::rand_uniform(64, 3, -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = x
            .rows_iter()
            .map(|r| if r[0] + r[1] > 0.0 { 1 } else { 0 })
            .collect();
        let mut w = Matrix::glorot(3, 2, &mut rng);
        let mut opt = Adam::with_lr(0.05);
        let mut final_loss = f32::INFINITY;
        for _ in 0..150 {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let wv = t.param(w.clone());
            let logits = t.matmul(xv, wv);
            let loss = t.softmax_xent(logits, &labels);
            final_loss = t.scalar(loss);
            t.backward(loss);
            opt.step(&mut [&mut w], &[t.grad(wv)]);
        }
        assert!(final_loss < 0.2, "loss {final_loss}");
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(1, 1);
        let g = Matrix::zeros(1, 1);
        let mut opt = Adam::with_lr(0.1);
        opt.step(&mut [&mut a], &[Some(&g)]);
        opt.step(&mut [&mut a, &mut b], &[Some(&g), Some(&g)]);
    }
}
