//! Golden bits of backpropagation through time.
//!
//! Each test runs forward + backward on a fixed fixture and pins, bit for
//! bit, the accumulated parameter gradients (`gw_x`, `gw_h`, `gb` of the
//! LSTM cell plus any dense head) and the input gradients, which come from
//! the pure path (`input_grad*`) for the same trace and gradient. The
//! values were recorded from the original per-step-vector implementation
//! and re-recorded once when `lgo_nn::{sigmoid, tanh}` replaced the host
//! libm; any change to summation order, exact-zero skipping, gate algebra
//! or the activation kernels shows up here as a digest mismatch. Two passes run per
//! test, so the accumulation into already-nonzero gradients is covered too.

use lgo_nn::{Activation, LstmCell, LstmDiscriminator, LstmSeq2Seq, Trainable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns of `values`, in order.
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of every parameter gradient, in `visit_params` order.
fn grad_digest<T: Trainable>(model: &mut T) -> u64 {
    let mut all = Vec::new();
    model.visit_params(&mut |_, g| all.extend_from_slice(g.as_slice()));
    digest(&all)
}

fn rows(len: usize, width: usize, salt: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..width)
                .map(|j| ((t * 7 + j * 3 + salt) as f64 * 0.29).sin() * 0.8)
                .collect()
        })
        .collect()
}

#[test]
fn lstm_cell_bptt_golden_bits() {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut cell = LstmCell::new(4, 8, &mut rng);
    cell.zero_grads();
    let mut dx_digests = Vec::new();
    for pass in 0..2 {
        let xs = rows(12, 4, pass * 5);
        let trace = cell.forward_seq(&xs);
        // External gradient only up to step 8: the trailing steps carry
        // exactly zero gate deltas, exercising the exact-zero skips.
        let mut dh = rows(12, 8, 40 + pass);
        for row in dh.iter_mut().skip(9) {
            row.iter_mut().for_each(|v| *v = 0.0);
        }
        let dh: Vec<f64> = dh.into_iter().flatten().collect();
        dx_digests.push(digest(&cell.input_grad_seq(&trace, &dh)));
        cell.backward_seq(&trace, &dh);
    }
    assert_eq!(grad_digest(&mut cell), 0x1977_b456_7146_82b7);
    assert_eq!(dx_digests, [0xc528_cd93_2e6a_6522, 0xd23d_36af_1886_0015]);
}

#[test]
fn discriminator_bptt_golden_bits() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let mut d = LstmDiscriminator::new(4, 8, &mut rng);
    d.zero_grads();
    let mut dx_digests = Vec::new();
    for (pass, dprob) in [0.37, -1.25].into_iter().enumerate() {
        let w = rows(12, 4, 11 + pass);
        let trace = d.forward(&w);
        dx_digests.push(digest(&d.input_grad(&trace, dprob)));
        d.backward(&trace, dprob);
    }
    assert_eq!(grad_digest(&mut d), 0x9883_f924_1eea_a2e5);
    assert_eq!(dx_digests, [0x4271_4458_4427_a0d1, 0x77f1_5647_292d_2e11]);
}

#[test]
fn seq2seq_bptt_golden_bits() {
    let mut rng = StdRng::seed_from_u64(0x5E02);
    let mut g = LstmSeq2Seq::new(4, 8, 4, Activation::Sigmoid, &mut rng);
    g.zero_grads();
    let mut dx_digests = Vec::new();
    for pass in 0..2 {
        let z = rows(12, 4, 23 + pass);
        let trace = g.forward(&z);
        let dys: Vec<f64> = rows(12, 4, 31 + pass).into_iter().flatten().collect();
        dx_digests.push(digest(&g.input_grad(&trace, &dys)));
        g.backward(&trace, &dys);
    }
    assert_eq!(grad_digest(&mut g), 0x8508_8785_2c55_d6f2);
    assert_eq!(dx_digests, [0xc1f5_4a14_624e_a8bf, 0x9fdf_a195_86a6_9dae]);
}

/// The pure trace-based input gradients (`&self`) leave every parameter
/// gradient at zero, and the accumulating pass after them yields the
/// gradients of a twin that never ran the pure pass.
#[test]
fn pure_input_gradients_leave_parameter_gradients_untouched() {
    fn untouched<T: Trainable>(model: &mut T) -> bool {
        let mut total = 0.0;
        model.visit_params(&mut |_, g| total += g.as_slice().iter().map(|v| v.abs()).sum::<f64>());
        total == 0.0
    }

    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut cell = LstmCell::new(4, 8, &mut rng);
    cell.zero_grads();
    let mut twin = cell.clone();
    let trace = cell.forward_seq(&rows(12, 4, 3));
    let dh: Vec<f64> = rows(12, 8, 9).into_iter().flatten().collect();
    let _ = cell.input_grad_seq(&trace, &dh);
    assert!(untouched(&mut cell));
    cell.backward_seq(&trace, &dh);
    twin.backward_seq(&trace, &dh);
    assert_eq!(grad_digest(&mut cell), grad_digest(&mut twin));

    let mut rng = StdRng::seed_from_u64(0xD15C);
    let mut d = LstmDiscriminator::new(4, 8, &mut rng);
    d.zero_grads();
    let mut twin = d.clone();
    let trace = d.forward(&rows(12, 4, 17));
    let _ = d.input_grad(&trace, -0.8);
    assert!(untouched(&mut d));
    d.backward(&trace, -0.8);
    twin.backward(&trace, -0.8);
    assert_eq!(grad_digest(&mut d), grad_digest(&mut twin));

    let mut rng = StdRng::seed_from_u64(0x5E02);
    let mut g = LstmSeq2Seq::new(4, 8, 4, Activation::Sigmoid, &mut rng);
    g.zero_grads();
    let mut twin = g.clone();
    let z: Vec<f64> = rows(12, 4, 29).into_iter().flatten().collect();
    let trace = g.forward_flat(&z);
    let dys: Vec<f64> = rows(12, 4, 37).into_iter().flatten().collect();
    let _ = g.input_grad(&trace, &dys);
    assert!(untouched(&mut g));
    g.backward(&trace, &dys);
    twin.backward(&trace, &dys);
    assert_eq!(grad_digest(&mut g), grad_digest(&mut twin));
}
