//! Layers and multilayer perceptrons with explicit (manual) backprop.
//!
//! The architectures in the paper are fixed little MLPs, so instead of a
//! general autodiff tape we implement forward/backward per layer and verify
//! every gradient against central finite differences (see the tests and
//! `tests/gradcheck.rs`). Gradients accumulate into each layer's `grad_*`
//! buffers until an optimizer consumes them.
//!
//! The backward pass never builds a transpose: `dL/dW` is summed straight
//! from the layer input and `dL/dy`, and `dL/dx` dots rows of `dL/dy` with
//! rows of `W`. Both keep every floating-point sum in the order of the
//! textbook `xᵀ·g` / `g·Wᵀ` matmuls, so the gradients are bitwise those of
//! the transpose formulation (pinned by `tests/backward_oracle.rs`).

use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (the SpinningUp MLP default).
    Tanh,
    /// No-op (linear output layers).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        x.map(|v| self.apply(v))
    }

    /// Element-wise derivative given the *pre-activation* input.
    pub fn derivative(&self, pre: &Matrix) -> Matrix {
        pre.map(|v| self.slope(v))
    }

    fn apply(&self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
            Activation::Identity => v,
        }
    }

    fn slope(&self, pre: f64) -> f64 {
        match self {
            Activation::Relu => {
                if pre > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - pre.tanh() * pre.tanh(),
            Activation::Identity => 1.0,
        }
    }
}

/// A fully connected layer `y = x·W + b` with gradient accumulators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `in × out`.
    pub w: Matrix,
    /// Bias, `1 × out`.
    pub b: Matrix,
    /// Accumulated weight gradient.
    pub grad_w: Matrix,
    /// Accumulated bias gradient.
    pub grad_b: Matrix,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(input, output, rng),
            b: Matrix::zeros(1, output),
            grad_w: Matrix::zeros(input, output),
            grad_b: Matrix::zeros(1, output),
        }
    }

    /// Forward pass for a batch `x` (`batch × in`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast_assign(&self.b);
        y
    }

    /// Backward pass: given the layer input `x` and `dL/dy`, accumulates
    /// `dL/dW`, `dL/db` and returns `dL/dx`.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.accumulate_param_grads(x, grad_out);
        self.input_grad(grad_out)
    }

    /// Accumulates `dL/dW += xᵀ·g` and `dL/db += Σ_rows g`.
    ///
    /// Each gradient row is summed over the batch, in row order, into a
    /// scratch row that is then added: the order of
    /// `grad_w += x.transpose().matmul(g)`. Zero inputs are skipped as
    /// `matmul` skips them, so an input that is zero in every row adds
    /// nothing; the transpose form would add `+0`, which changes no bits
    /// because accumulated gradients are never `−0`.
    fn accumulate_param_grads(&mut self, x: &Matrix, g: &Matrix) {
        assert_eq!(x.rows(), g.rows(), "backward batch mismatch");
        assert_eq!(x.cols(), self.w.rows(), "backward input width mismatch");
        assert_eq!(g.cols(), self.w.cols(), "backward output width mismatch");
        let mut row = vec![0.0; g.cols()];
        for i in 0..x.cols() {
            let mut touched = false;
            for k in 0..x.rows() {
                let a = x.get(k, i);
                if a == 0.0 {
                    continue;
                }
                if !touched {
                    row.fill(0.0);
                    touched = true;
                }
                for (r, &b) in row.iter_mut().zip(g.row_slice(k)) {
                    *r += a * b;
                }
            }
            if touched {
                for (w, &r) in self.grad_w.row_slice_mut(i).iter_mut().zip(&row) {
                    *w += r;
                }
            }
        }
        self.grad_b.add_scaled_assign(&g.col_sums(), 1.0);
    }

    /// `dL/dx = g·Wᵀ` without building `Wᵀ`: each entry dots a row of `g`
    /// with a row of `W`, over the output index in order and skipping zero
    /// entries of `g` — the sum `g.matmul(&w.transpose())` computes.
    fn input_grad(&self, g: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(g.rows(), self.w.rows());
        for k in 0..g.rows() {
            let g_row = g.row_slice(k);
            for (i, o) in out.row_slice_mut(k).iter_mut().enumerate() {
                for (&a, &w) in g_row.iter().zip(self.w.row_slice(i)) {
                    if a != 0.0 {
                        *o += a * w;
                    }
                }
            }
        }
        out
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
    }
}

/// Intermediate state of one MLP forward pass, consumed by `backward`.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Input and every post-activation output (length = layers + 1).
    activations: Vec<Matrix>,
    /// Pre-activation values per layer.
    pre_activations: Vec<Matrix>,
}

/// A multilayer perceptron: `Linear → act → … → Linear → out_act`.
///
/// Both of the paper's networks are 3-layer MLPs (§3.3); the kernel policy
/// network applies the same MLP to every job vector, the value network to
/// the flattened observation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[8, 32, 16, 1]`.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden_act,
            out_act,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().w.cols()
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(h.as_ref().unwrap_or(x));
            let act = self.activation_at(i);
            y.data_mut().iter_mut().for_each(|v| *v = act.apply(*v));
            h = Some(y);
        }
        h.expect("an MLP has at least one layer")
    }

    /// Forward pass retaining the cache needed for [`Self::backward`].
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.clone());
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(&activations[i]);
            activations.push(self.activation_at(i).forward(&pre));
            pre_activations.push(pre);
        }
        let out = activations[self.layers.len()].clone();
        (
            out,
            MlpCache {
                activations,
                pre_activations,
            },
        )
    }

    /// Backward pass from `dL/doutput`; accumulates parameter gradients and
    /// returns `dL/dinput`.
    pub fn backward(&mut self, cache: &MlpCache, grad_out: &Matrix) -> Matrix {
        self.backprop(cache, grad_out, true)
            .expect("backprop returns the input gradient when asked")
    }

    /// [`Self::backward`] for training: accumulates the same parameter
    /// gradients but skips `dL/dinput`, which no optimizer reads. For a wide
    /// first layer (the value network's is 1548 × 32) that product is most
    /// of the backward pass.
    pub fn accumulate_grads(&mut self, cache: &MlpCache, grad_out: &Matrix) {
        self.backprop(cache, grad_out, false);
    }

    fn backprop(
        &mut self,
        cache: &MlpCache,
        grad_out: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            let act = self.activation_at(i);
            for (g, &pre) in grad
                .data_mut()
                .iter_mut()
                .zip(cache.pre_activations[i].data())
            {
                *g *= act.slope(pre);
            }
            let layer = &mut self.layers[i];
            layer.accumulate_param_grads(&cache.activations[i], &grad);
            if i == 0 && !input_grad {
                return None;
            }
            grad = layer.input_grad(&grad);
        }
        Some(grad)
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// All parameter/gradient pairs, outermost layer first — the interface
    /// optimizers consume.
    pub fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        self.layers
            .iter_mut()
            .flat_map(|l| [(&mut l.w, &mut l.grad_w), (&mut l.b, &mut l.grad_b)])
            .collect()
    }

    /// Read-only views of the accumulated gradients, in the same order as
    /// [`Self::params_and_grads_mut`] — used to merge worker gradients in
    /// parallel updates.
    pub fn grads(&self) -> Vec<&Matrix> {
        self.layers
            .iter()
            .flat_map(|l| [&l.grad_w, &l.grad_b])
            .collect()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.cols())
            .sum()
    }

    fn activation_at(&self, layer_idx: usize) -> Activation {
        if layer_idx + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn activations_behave() {
        let x = Matrix::row(vec![-2.0, 0.0, 3.0]);
        assert_eq!(Activation::Relu.forward(&x).data(), &[0.0, 0.0, 3.0]);
        assert_eq!(Activation::Identity.forward(&x).data(), x.data());
        let t = Activation::Tanh.forward(&x);
        assert!((t.data()[2] - 3.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn linear_forward_matches_hand_computation() {
        let mut l = Linear::new(2, 1, &mut rng());
        l.w = Matrix::from_vec(2, 1, vec![2.0, 3.0]);
        l.b = Matrix::row(vec![1.0]);
        let y = l.forward(&Matrix::row(vec![4.0, 5.0]));
        assert_eq!(y.data(), &[2.0 * 4.0 + 3.0 * 5.0 + 1.0]);
    }

    #[test]
    fn mlp_shapes_are_consistent() {
        let mlp = Mlp::new(
            &[8, 32, 16, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        assert_eq!(mlp.input_dim(), 8);
        assert_eq!(mlp.output_dim(), 1);
        let y = mlp.forward(&Matrix::zeros(5, 8));
        assert_eq!(y.shape(), (5, 1));
        assert_eq!(mlp.param_count(), 8 * 32 + 32 + 32 * 16 + 16 + 16 + 1);
    }

    #[test]
    fn zero_input_with_zero_bias_gives_zero_relu_output() {
        let mlp = Mlp::new(
            &[4, 8, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let y = mlp.forward(&Matrix::zeros(1, 4));
        // biases start at zero, so a zero input must map to zero
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    /// Central finite-difference check of dL/dparam for L = sum(output).
    fn grad_check(hidden: Activation, out: Activation) {
        let mut mlp = Mlp::new(&[3, 5, 2], hidden, out, &mut rng());
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64) * 0.1 - 0.5).collect());

        // Analytic gradients for L = sum of outputs.
        let (y, cache) = mlp.forward_cached(&x);
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        mlp.zero_grad();
        mlp.backward(&cache, &ones);

        let eps = 1e-6;
        for li in 0..2 {
            let analytic = mlp.layers[li].grad_w.clone();
            for idx in 0..analytic.data().len() {
                let orig = mlp.layers[li].w.data()[idx];
                mlp.layers[li].w.data_mut()[idx] = orig + eps;
                let lp = mlp.forward(&x).sum();
                mlp.layers[li].w.data_mut()[idx] = orig - eps;
                let lm = mlp.forward(&x).sum();
                mlp.layers[li].w.data_mut()[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.data()[idx];
                assert!(
                    (a - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {li} w[{idx}]: analytic {a} vs numeric {numeric}"
                );
            }
            let analytic_b = mlp.layers[li].grad_b.clone();
            for idx in 0..analytic_b.data().len() {
                let orig = mlp.layers[li].b.data()[idx];
                mlp.layers[li].b.data_mut()[idx] = orig + eps;
                let lp = mlp.forward(&x).sum();
                mlp.layers[li].b.data_mut()[idx] = orig - eps;
                let lm = mlp.forward(&x).sum();
                mlp.layers[li].b.data_mut()[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic_b.data()[idx];
                assert!(
                    (a - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {li} b[{idx}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        grad_check(Activation::Tanh, Activation::Identity);
    }

    #[test]
    fn gradients_match_finite_differences_relu() {
        grad_check(Activation::Relu, Activation::Identity);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut mlp = Mlp::new(
            &[3, 4, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]);
        let (y, cache) = mlp.forward_cached(&x);
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let grad_in = mlp.backward(&cache, &ones);

        let eps = 1e-6;
        for idx in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (mlp.forward(&xp).sum() - mlp.forward(&xm).sum()) / (2.0 * eps);
            let a = grad_in.data()[idx];
            assert!(
                (a - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                "x[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut mlp = Mlp::new(
            &[2, 2],
            Activation::Identity,
            Activation::Identity,
            &mut rng(),
        );
        let x = Matrix::row(vec![1.0, 2.0]);
        let g = Matrix::row(vec![1.0, 1.0]);
        let (_, cache) = mlp.forward_cached(&x);
        mlp.backward(&cache, &g);
        let once = mlp.layers[0].grad_w.clone();
        mlp.backward(&cache, &g);
        let twice = mlp.layers[0].grad_w.clone();
        assert_eq!(twice, once.scale(2.0));
        mlp.zero_grad();
        assert!(mlp.layers[0].grad_w.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn serde_round_trip_preserves_outputs() {
        let mlp = Mlp::new(
            &[4, 8, 3],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_vec(2, 4, vec![0.5; 8]);
        // JSON text round-trips f64 to within an ulp, not exactly.
        for (a, b) in mlp.forward(&x).data().iter().zip(back.forward(&x).data()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
