//! Bitwise oracle for the transpose-free backward pass: `Linear` and `Mlp`
//! gradients must equal, bit for bit, the textbook formulation
//! `dL/dW += xᵀ·g`, `dL/db += Σ_rows g`, `dL/dx = g·Wᵀ` evaluated with
//! `Matrix::transpose` and `Matrix::matmul` — the formulation the layer
//! used before, kept here as the reference.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tinynn::{Activation, Linear, Matrix, Mlp};

/// The reference backward of one layer.
fn oracle_linear_backward(layer: &mut Linear, x: &Matrix, g: &Matrix) -> Matrix {
    layer
        .grad_w
        .add_scaled_assign(&x.transpose().matmul(g), 1.0);
    layer.grad_b.add_scaled_assign(&g.col_sums(), 1.0);
    g.matmul(&layer.w.transpose())
}

/// The reference MLP: the same weights as `mlp`, run forward and backward
/// layer by layer with the reference backward.
struct OracleMlp {
    layers: Vec<Linear>,
    hidden: Activation,
    out: Activation,
}

impl OracleMlp {
    fn of(mlp: &Mlp, hidden: Activation, out: Activation) -> Self {
        let mut copy = mlp.clone();
        let params: Vec<Matrix> = copy
            .params_and_grads_mut()
            .into_iter()
            .map(|(p, _)| p.clone())
            .collect();
        let layers = params
            .chunks(2)
            .map(|wb| Linear {
                grad_w: Matrix::zeros(wb[0].rows(), wb[0].cols()),
                grad_b: Matrix::zeros(1, wb[1].cols()),
                w: wb[0].clone(),
                b: wb[1].clone(),
            })
            .collect();
        Self {
            layers,
            hidden,
            out,
        }
    }

    fn act(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.out
        } else {
            self.hidden
        }
    }

    fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut inputs = vec![x.clone()];
        let mut pres = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = x_times_w_plus_b(layer, &inputs[i]);
            inputs.push(self.act(i).forward(&pre));
            pres.push(pre);
        }
        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            grad = grad.hadamard(&self.act(i).derivative(&pres[i]));
            grad = oracle_linear_backward(&mut self.layers[i], &inputs[i], &grad);
        }
        grad
    }

    fn grads(&self) -> Vec<&Matrix> {
        self.layers
            .iter()
            .flat_map(|l| [&l.grad_w, &l.grad_b])
            .collect()
    }
}

fn x_times_w_plus_b(layer: &Linear, x: &Matrix) -> Matrix {
    let mut y = x.matmul(&layer.w);
    y.add_row_broadcast_assign(&layer.b);
    y
}

fn assert_bitwise(what: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}[{i}]: {p:e} vs {q:e}");
    }
}

/// A `rows × cols` input with mixed signs and scattered zeros, plus an
/// all-zero row and an all-zero column where the other rows and columns
/// keep it from being all zero.
fn input(rows: usize, cols: usize, salt: f64) -> Matrix {
    let mut x = Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = ((i as f64) * 0.731 + salt).sin();
                if i % 5 == 3 {
                    0.0
                } else {
                    v
                }
            })
            .collect(),
    );
    if cols > 1 {
        for r in 0..rows {
            x.set(r, cols / 2, 0.0);
        }
    }
    if rows > 1 {
        for c in 0..cols {
            x.set(rows / 2, c, 0.0);
        }
    }
    x
}

const ACTIVATIONS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];

#[test]
fn linear_backward_equals_the_transpose_formulation() {
    let mut rng = SmallRng::seed_from_u64(11);
    for batch in [1, 3, 129] {
        let mut layer = Linear::new(12, 7, &mut rng);
        let mut oracle = layer.clone();
        // Two accumulations: the second adds onto nonzero gradients.
        for salt in [0.0, 1.3] {
            let x = input(batch, 12, salt);
            let g = input(batch, 7, salt + 0.4);
            let dx = layer.backward(&x, &g);
            let dx_oracle = oracle_linear_backward(&mut oracle, &x, &g);
            assert_bitwise("dL/dx", &dx, &dx_oracle);
            assert_bitwise("dL/dW", &layer.grad_w, &oracle.grad_w);
            assert_bitwise("dL/db", &layer.grad_b, &oracle.grad_b);
        }
    }
}

#[test]
fn mlp_backward_equals_the_transpose_formulation() {
    for (seed, (&hidden, &out)) in ACTIVATIONS
        .iter()
        .flat_map(|h| ACTIVATIONS.iter().map(move |o| (h, o)))
        .enumerate()
    {
        // The kernel policy's shape over a whole observation, and the value
        // network's: one flattened 129 × 12 observation.
        for (batch, dims) in [
            (1, [12, 32, 16, 1]),
            (129, [12, 32, 16, 1]),
            (1, [1548, 32, 16, 1]),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed as u64);
            let mut mlp = Mlp::new(&dims, hidden, out, &mut rng);
            let mut trainer = mlp.clone();
            let mut oracle = OracleMlp::of(&mlp, hidden, out);
            for salt in [0.0, 2.1] {
                let x = input(batch, dims[0], salt);
                let g = input(batch, 1, salt + 0.9);
                let (_, cache) = mlp.forward_cached(&x);
                let dx = mlp.backward(&cache, &g);
                trainer.accumulate_grads(&cache, &g);
                let dx_oracle = oracle.backward(&x, &g);
                let what = format!("{hidden:?}/{out:?} batch {batch}");
                assert_bitwise(&format!("{what} dL/dx"), &dx, &dx_oracle);
                let grads = mlp.grads();
                for (p, (a, b)) in grads.iter().zip(oracle.grads()).enumerate() {
                    assert_bitwise(&format!("{what} param {p}"), a, b);
                }
                for (p, (a, b)) in trainer.grads().iter().zip(&grads).enumerate() {
                    assert_bitwise(&format!("{what} accumulate_grads param {p}"), a, b);
                }
            }
        }
    }
}

#[test]
fn forward_equals_the_matmul_formulation() {
    for &hidden in &ACTIVATIONS {
        let mut rng = SmallRng::seed_from_u64(5);
        let mlp = Mlp::new(&[12, 8, 3], hidden, Activation::Identity, &mut rng);
        let oracle = OracleMlp::of(&mlp, hidden, Activation::Identity);
        let x = input(129, 12, 0.2);
        let mut h = x.clone();
        for (i, layer) in oracle.layers.iter().enumerate() {
            h = oracle.act(i).forward(&x_times_w_plus_b(layer, &h));
        }
        assert_bitwise("forward", &mlp.forward(&x), &h);
        assert_bitwise("forward_cached", &mlp.forward_cached(&x).0, &h);
    }
}
