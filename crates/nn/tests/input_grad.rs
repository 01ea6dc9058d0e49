//! Finite-difference correctness of the pure `input_gradients` APIs.
//!
//! The attack zoo (`lgo-zoo`) climbs these gradients from parallel
//! campaigns, so they must (a) agree with central differences of the pure
//! inference path and (b) never touch the parameter-gradient accumulators
//! — a shared `&self` model must stay bit-identical after the pass. The
//! suite also runs under `strict-numerics`, where the tensor sanitizers
//! abort on any non-finite intermediate.

use lgo_nn::{Activation, BiLstmRegressor, LstmSeq2Seq, Trainable};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 1e-6;
const TOL: f64 = 1e-5;

fn window(len: usize, width: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..width)
                .map(|j| ((t * 11 + j * 5) as f64 * 0.17).sin() * 0.7)
                .collect()
        })
        .collect()
}

#[test]
fn bilstm_input_gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    let model = BiLstmRegressor::new(3, 5, &mut rng);
    let w = window(6, 3);
    let grads = model.input_gradients(&w);
    assert_eq!(grads.len(), 6);
    assert_eq!(grads[0].len(), 3);
    for t in 0..w.len() {
        for j in 0..3 {
            let mut wp = w.clone();
            wp[t][j] += EPS;
            let mut wm = w.clone();
            wm[t][j] -= EPS;
            let numeric = (model.predict(&wp) - model.predict(&wm)) / (2.0 * EPS);
            assert!(
                (numeric - grads[t][j]).abs() < TOL,
                "BiLSTM d/dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                grads[t][j]
            );
        }
    }
}

#[test]
fn bilstm_input_gradients_leave_param_grads_untouched() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    let mut model = BiLstmRegressor::new(2, 4, &mut rng);
    model.zero_grads();
    let w = window(5, 2);
    let _ = model.input_gradients(&w);
    let mut total = 0.0;
    model.visit_params(&mut |_, g| total += g.as_slice().iter().map(|v| v.abs()).sum::<f64>());
    assert_eq!(total, 0.0, "pure pass accumulated parameter gradients");
}

#[test]
fn bilstm_gradient_direction_raises_prediction() {
    // One ascent step along the gradient must increase the prediction —
    // the property every gradient attacker in lgo-zoo relies on.
    let mut rng = StdRng::seed_from_u64(0xB3);
    let model = BiLstmRegressor::new(2, 6, &mut rng);
    let w = window(8, 2);
    let grads = model.input_gradients(&w);
    let before = model.predict(&w);
    let step = 1e-3;
    let up: Vec<Vec<f64>> = w
        .iter()
        .zip(&grads)
        .map(|(row, g)| row.iter().zip(g).map(|(&x, &d)| x + step * d).collect())
        .collect();
    assert!(
        model.predict(&up) > before,
        "ascent step did not raise the prediction"
    );
}

#[test]
fn seq2seq_input_gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0x52);
    let model = LstmSeq2Seq::new(2, 5, 3, Activation::Sigmoid, &mut rng);
    let xs = window(4, 2);
    // Loss = sum of all outputs, i.e. dys = ones.
    let dys = vec![vec![1.0; 3]; 4];
    let grads = model.input_gradients(&xs, &dys);
    let loss = |xs: &[Vec<f64>]| -> f64 { model.generate(xs).iter().flatten().sum() };
    for t in 0..xs.len() {
        for j in 0..2 {
            let mut xp = xs.clone();
            xp[t][j] += EPS;
            let mut xm = xs.clone();
            xm[t][j] -= EPS;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * EPS);
            assert!(
                (numeric - grads[t][j]).abs() < TOL,
                "Seq2Seq d/dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                grads[t][j]
            );
        }
    }
}

#[test]
fn seq2seq_input_gradients_leave_param_grads_untouched() {
    let mut rng = StdRng::seed_from_u64(0x53);
    let mut model = LstmSeq2Seq::new(2, 4, 2, Activation::Tanh, &mut rng);
    model.zero_grads();
    let xs = window(3, 2);
    let _ = model.input_gradients(&xs, &vec![vec![1.0; 2]; 3]);
    let mut total = 0.0;
    model.visit_params(&mut |_, g| total += g.as_slice().iter().map(|v| v.abs()).sum::<f64>());
    assert_eq!(total, 0.0, "pure pass accumulated parameter gradients");
}

#[test]
fn pure_bptt_leaves_gradients_for_the_accumulating_pass() {
    // The pure path (`input_grad_seq`) is the only source of input
    // gradients; the accumulating path writes parameter gradients only.
    // A pure call between them must leave the gradients untouched, so
    // accumulating after it gives the bits a twin that never ran it gives.
    use lgo_nn::LstmCell;
    let mut rng = StdRng::seed_from_u64(0x54);
    let mut cell = LstmCell::new(3, 4, &mut rng);
    cell.zero_grads();
    let mut twin = cell.clone();
    let xs = window(5, 3);
    let trace = cell.forward_seq(&xs);
    let dh = vec![0.3; 4 * 5];
    let pure = cell.input_grad_seq(&trace, &dh);
    assert_eq!(pure, cell.input_grad_seq(&trace, &dh));
    let grads = |c: &mut LstmCell| {
        let mut all = Vec::new();
        c.visit_params(&mut |_, g| all.extend(g.as_slice().iter().map(|v| v.to_bits())));
        all
    };
    assert!(grads(&mut cell).iter().all(|&b| b == 0), "pure pass accumulated gradients");
    cell.backward_seq(&trace, &dh);
    twin.backward_seq(&trace, &dh);
    assert_eq!(grads(&mut cell), grads(&mut twin));
}
