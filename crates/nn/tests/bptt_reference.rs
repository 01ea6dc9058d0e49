//! Bit identity of backpropagation through time at odd shapes.
//!
//! `RefLstm` below is the per-step matrix form of BPTT: every step's weight
//! gradients go through `Matrix::add_outer` and its input and recurrent
//! gradients through `Matrix::matvec_transpose`, in the order the
//! trace is walked. The LSTM kernel in `lgo-nn` must return exactly these
//! bits on both of its paths — the parameter gradients of the accumulating
//! one (`backward*`) and the input gradients of the pure one
//! (`input_grad*`) — for a bare [`LstmCell`], an [`LstmDiscriminator`] and
//! an [`LstmSeq2Seq`]. The reference calls the library's own
//! [`lgo_nn::sigmoid`] and [`lgo_nn::tanh`], so what it pins is the trace
//! layout and the summation order, not the activation kernels.
//!
//! The golden digests of `bptt_golden.rs` pin only X = 4, H = 8, so the
//! shapes here sweep widths that leave remainders in any column blocking
//! of the kernel: X ∈ 1..=5, H ∈ {1, 3, 5, 6, 8, 10, 16}, T ∈ {1, 2, 12}.
//! Each case runs two passes without zeroing the gradients, feeds
//! exact-zero `dh` rows and entries, and (second pass) saturates the gates
//! so that some gate deltas are exactly zero while their neighbours are
//! not.

use lgo_nn::{
    sigmoid, tanh, Activation, Dense, LstmCell, LstmDiscriminator, LstmSeq2Seq, Trainable,
};
use lgo_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const INPUTS: [usize; 5] = [1, 2, 3, 4, 5];
const HIDDEN: [usize; 7] = [1, 3, 5, 6, 8, 10, 16];
const LENGTHS: [usize; 3] = [1, 2, 12];

/// One reference step: `[x, h_prev, c_prev, i, f, g, o, c, tanh c, h]`.
type RefStep = [Vec<f64>; 10];

/// The per-step LSTM, with its parameters copied out of a model.
struct RefLstm {
    w_x: Matrix,
    w_h: Matrix,
    b: Matrix,
    gw_x: Matrix,
    gw_h: Matrix,
    gb: Matrix,
    /// Steps whose gate deltas mix exact zeros with nonzero values.
    mixed_zero_steps: usize,
}

impl RefLstm {
    /// Takes `params[0..3]` (W_x, W_h, b) and the matching gradients.
    fn new(params: &[Matrix], grads: &[Matrix]) -> Self {
        Self {
            w_x: params[0].clone(),
            w_h: params[1].clone(),
            b: params[2].clone(),
            gw_x: grads[0].clone(),
            gw_h: grads[1].clone(),
            gb: grads[2].clone(),
            mixed_zero_steps: 0,
        }
    }

    fn grads(&self) -> [&Matrix; 3] {
        [&self.gw_x, &self.gw_h, &self.gb]
    }

    fn forward(&self, xs: &[Vec<f64>]) -> Vec<RefStep> {
        let h = self.w_h.cols();
        let (mut h_prev, mut c_prev) = (vec![0.0; h], vec![0.0; h]);
        let mut steps = Vec::with_capacity(xs.len());
        for x in xs {
            let mut z = self.w_x.matvec(x);
            let zh = self.w_h.matvec(&h_prev);
            for ((zi, &zhi), &bi) in z.iter_mut().zip(&zh).zip(self.b.as_slice()) {
                *zi += zhi + bi;
            }
            let gate = |k: usize| -> Vec<f64> { z[k * h..(k + 1) * h].to_vec() };
            let i: Vec<f64> = gate(0).into_iter().map(sigmoid).collect();
            let f: Vec<f64> = gate(1).into_iter().map(sigmoid).collect();
            let g: Vec<f64> = gate(2).into_iter().map(tanh).collect();
            let o: Vec<f64> = gate(3).into_iter().map(sigmoid).collect();
            let c: Vec<f64> = (0..h).map(|j| f[j] * c_prev[j] + i[j] * g[j]).collect();
            let tanh_c: Vec<f64> = c.iter().map(|&v| tanh(v)).collect();
            let hh: Vec<f64> = (0..h).map(|j| o[j] * tanh_c[j]).collect();
            steps.push([
                x.clone(),
                h_prev,
                c_prev,
                i,
                f,
                g,
                o,
                c.clone(),
                tanh_c,
                hh.clone(),
            ]);
            (h_prev, c_prev) = (hh, c);
        }
        steps
    }

    /// Accumulating BPTT over the flat `T × H` hidden gradients; returns
    /// the flat `T × X` input gradients.
    fn backward(&mut self, steps: &[RefStep], dh: &[f64]) -> Vec<f64> {
        let (xw, h) = (self.w_x.cols(), self.w_h.cols());
        let mut dx = vec![0.0; steps.len() * xw];
        let (mut dh_next, mut dc_next) = (vec![0.0; h], vec![0.0; h]);
        let mut dz = vec![0.0; 4 * h];
        for t in (0..steps.len()).rev() {
            let [x, h_prev, c_prev, i, f, g, o, _, tanh_c, _] = &steps[t];
            for j in 0..h {
                let dht = dh[t * h + j] + dh_next[j];
                let do_ = dht * tanh_c[j];
                let dct = dc_next[j] + dht * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
                let di = dct * g[j];
                let df = dct * c_prev[j];
                let dg = dct * i[j];
                dc_next[j] = dct * f[j];
                dz[j] = di * i[j] * (1.0 - i[j]);
                dz[h + j] = df * f[j] * (1.0 - f[j]);
                dz[2 * h + j] = dg * (1.0 - g[j] * g[j]);
                dz[3 * h + j] = do_ * o[j] * (1.0 - o[j]);
            }
            let zeros = dz.iter().filter(|&&d| d == 0.0).count();
            if zeros > 0 && zeros < dz.len() {
                self.mixed_zero_steps += 1;
            }
            self.gw_x.add_outer(&dz, x, 1.0);
            self.gw_h.add_outer(&dz, h_prev, 1.0);
            for (gb, &d) in self.gb.as_mut_slice().iter_mut().zip(&dz) {
                *gb += d;
            }
            dx[t * xw..(t + 1) * xw].copy_from_slice(&self.w_x.matvec_transpose(&dz));
            dh_next = self.w_h.matvec_transpose(&dz);
        }
        dx
    }
}

/// Every parameter and gradient of `model`, in `visit_params` order.
fn snapshot<T: Trainable + Clone>(model: &T) -> (Vec<Matrix>, Vec<Matrix>) {
    let (mut params, mut grads) = (Vec::new(), Vec::new());
    model.clone().visit_params(&mut |p, g| {
        params.push(p.clone());
        grads.push(g.clone());
    });
    (params, grads)
}

/// A dense head with the weights `params` (weight, bias) and zero
/// gradients.
fn head_copy(params: &[Matrix], activation: Activation) -> Dense {
    let mut rng = StdRng::seed_from_u64(0);
    let (rows, cols) = params[0].shape();
    let mut head = Dense::new(cols, rows, activation, &mut rng);
    let mut k = 0;
    head.visit_params(&mut |p, _| {
        *p = params[k].clone();
        k += 1;
    });
    head
}

/// Asserts two slices agree bit for bit.
fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{k}]: {a:e} vs {b:e}");
    }
}

/// Asserts the gradients of `model` equal `want`, matrix by matrix.
fn assert_grads<T: Trainable + Clone>(model: &T, want: &[&Matrix], what: &str) {
    let (_, grads) = snapshot(model);
    assert_eq!(grads.len(), want.len(), "{what}: parameter count");
    for (k, (g, w)) in grads.iter().zip(want).enumerate() {
        assert_bits(g.as_slice(), w.as_slice(), &format!("{what} grad {k}"));
    }
}

/// A `len × width` sequence; `amplitude` 40 saturates sigmoid and tanh
/// gates to exactly 0 or 1.
fn rows(len: usize, width: usize, salt: usize, amplitude: f64) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..width)
                .map(|j| ((t * 7 + j * 3 + salt) as f64 * 0.29).sin() * amplitude)
                .collect()
        })
        .collect()
}

/// Flat `len × width` output gradients with exact-zero rows (every third
/// step) and scattered exact-zero entries.
fn sparse_grads(len: usize, width: usize, salt: usize) -> Vec<f64> {
    let mut g: Vec<f64> = rows(len, width, salt, 1.0).into_iter().flatten().collect();
    for (k, v) in g.iter_mut().enumerate() {
        let (t, j) = (k / width, k % width);
        if t % 3 == 1 || (t + j + salt).is_multiple_of(5) {
            *v = 0.0;
        }
    }
    g
}

/// Pass `pass` of a case: ordinary inputs first, then saturating ones.
fn amplitude(pass: usize) -> f64 {
    [0.8, 40.0][pass]
}

fn seed(x: usize, h: usize, t: usize) -> u64 {
    (x * 1000 + h * 10 + t) as u64
}

#[test]
fn lstm_cell_matches_per_step_reference() {
    let mut mixed_zero_steps = 0;
    for x in INPUTS {
        for h in HIDDEN {
            for len in LENGTHS {
                let case = format!("cell X={x} H={h} T={len}");
                let mut cell = LstmCell::new(x, h, &mut StdRng::seed_from_u64(seed(x, h, len)));
                let (params, grads) = snapshot(&cell);
                let mut reference = RefLstm::new(&params, &grads);
                for pass in 0..2 {
                    let xs = rows(len, x, pass * 5, amplitude(pass));
                    let dh = sparse_grads(len, h, 40 + pass);
                    let steps = reference.forward(&xs);
                    let trace = cell.forward_seq(&xs);
                    for (t, s) in steps.iter().enumerate() {
                        assert_bits(trace.hidden(t), &s[9], &format!("{case} h_{t}"));
                    }
                    let want = reference.backward(&steps, &dh);
                    let pure = cell.input_grad_seq(&trace, &dh);
                    assert_bits(&pure, &want, &format!("{case} pass {pass} pure dx"));
                    cell.backward_seq(&trace, &dh);
                }
                assert_grads(&cell, &reference.grads(), &case);
                mixed_zero_steps += reference.mixed_zero_steps;
            }
        }
    }
    assert!(
        mixed_zero_steps > 0,
        "no step mixed exact-zero and nonzero gate deltas"
    );
}

#[test]
fn discriminator_matches_per_step_reference() {
    for x in INPUTS {
        for h in HIDDEN {
            for len in LENGTHS {
                let case = format!("discriminator X={x} H={h} T={len}");
                let mut d =
                    LstmDiscriminator::new(x, h, &mut StdRng::seed_from_u64(seed(x, h, len)));
                let (params, grads) = snapshot(&d);
                let mut reference = RefLstm::new(&params, &grads);
                let mut head = head_copy(&params[3..], Activation::Sigmoid);
                for (pass, dprob) in [0.37, -1.25].into_iter().enumerate() {
                    let w = rows(len, x, 11 + pass, amplitude(pass));
                    let steps = reference.forward(&w);
                    let h_last = &steps[len - 1][9];
                    let (mut pre, mut post) = ([0.0], [0.0]);
                    head.forward_into(h_last, &mut pre, &mut post);
                    let trace = d.forward(&w);
                    assert_eq!(
                        trace.probability().to_bits(),
                        post[0].to_bits(),
                        "{case} probability"
                    );
                    let mut dh = vec![0.0; len * h];
                    head.backward_into(h_last, &pre, &post, &[dprob], &mut dh[(len - 1) * h..]);
                    let want = reference.backward(&steps, &dh);
                    assert_bits(
                        &d.input_grad(&trace, dprob),
                        &want,
                        &format!("{case} pass {pass} pure dx"),
                    );
                    d.backward(&trace, dprob);
                }
                let (_, head_grads) = snapshot(&head);
                let mut want = reference.grads().to_vec();
                want.extend(&head_grads);
                assert_grads(&d, &want, &case);
            }
        }
    }
}

#[test]
fn seq2seq_matches_per_step_reference() {
    const OUT: usize = 3;
    for x in INPUTS {
        for h in HIDDEN {
            for len in LENGTHS {
                let case = format!("seq2seq X={x} H={h} T={len}");
                let mut rng = StdRng::seed_from_u64(seed(x, h, len));
                let mut g = LstmSeq2Seq::new(x, h, OUT, Activation::Sigmoid, &mut rng);
                let (params, grads) = snapshot(&g);
                let mut reference = RefLstm::new(&params, &grads);
                let mut head = head_copy(&params[3..], Activation::Sigmoid);
                for pass in 0..2 {
                    let z = rows(len, x, 23 + pass, amplitude(pass));
                    let dys = sparse_grads(len, OUT, 31 + pass);
                    let steps = reference.forward(&z);
                    let (mut pre, mut post) = (vec![0.0; len * OUT], vec![0.0; len * OUT]);
                    for (t, s) in steps.iter().enumerate() {
                        let span = t * OUT..(t + 1) * OUT;
                        head.forward_into(&s[9], &mut pre[span.clone()], &mut post[span]);
                    }
                    let trace = g.forward(&z);
                    assert_bits(trace.outputs(), &post, &format!("{case} outputs"));
                    let mut dh = vec![0.0; len * h];
                    for (t, (s, dh_t)) in steps.iter().zip(dh.chunks_exact_mut(h)).enumerate() {
                        let span = t * OUT..(t + 1) * OUT;
                        head.backward_into(
                            &s[9],
                            &pre[span.clone()],
                            &post[span.clone()],
                            &dys[span],
                            dh_t,
                        );
                    }
                    let want = reference.backward(&steps, &dh);
                    assert_bits(
                        &g.input_grad(&trace, &dys),
                        &want,
                        &format!("{case} pass {pass} pure dx"),
                    );
                    g.backward(&trace, &dys);
                }
                let (_, head_grads) = snapshot(&head);
                let mut want = reference.grads().to_vec();
                want.extend(&head_grads);
                assert_grads(&g, &want, &case);
            }
        }
    }
}
