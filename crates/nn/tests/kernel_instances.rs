//! Bit identity of the two compiled instances of the LSTM kernels.
//!
//! [`KernelInstance::Portable`] and [`KernelInstance::Avx2`] are one source
//! body compiled twice, the second time with AVX2 enabled and without FMA.
//! Every case here runs the same cell through both and compares, bit for
//! bit, every hidden state of the forward trace, the input gradients of
//! pure BPTT, and the parameter gradients accumulating BPTT adds up.
//! Shapes sweep X ∈ 1..=5, H ∈ {1, 3, 5, 8, 16} and T ∈ {1, 2, 12}, so
//! every column blocking of the kernels leaves a remainder somewhere: once
//! each on a fixed cell, then at random shapes, cells and inputs. Each
//! case runs two passes without `zero_grads`; the second saturates the
//! gates, so some gate deltas are exactly zero next to non-zero ones, and
//! `dh` carries exact-zero rows and entries throughout.
//!
//! On a host without AVX2 the `Avx2` instance runs the portable body, so
//! there this test compares the portable instance with itself. Only an
//! optimized build vectorizes the instances, so run it with `--release`
//! as well as in the default test profile.

use lgo_nn::{KernelInstance, LstmCell, LstmTrace, Trainable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const INPUTS: [usize; 5] = [1, 2, 3, 4, 5];
const HIDDEN: [usize; 5] = [1, 3, 5, 8, 16];
const LENGTHS: [usize; 3] = [1, 2, 12];

/// A `len × width` sequence; amplitude 40 saturates sigmoid and tanh.
fn rows(len: usize, width: usize, salt: u64, amplitude: f64) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..width)
                .map(|j| ((t * 7 + j * 3) as f64 * 0.29 + salt as f64 * 0.013).sin() * amplitude)
                .collect()
        })
        .collect()
}

/// A flat `len × hidden` gradient with every third row and every fifth
/// entry exactly zero.
fn sparse_dh(len: usize, hidden: usize, salt: u64) -> Vec<f64> {
    (0..len * hidden)
        .map(|k| {
            if (k / hidden) % 3 == 2 || k % 5 == 1 {
                0.0
            } else {
                ((k as f64 + salt as f64) * 0.37).cos()
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn hidden_bits(trace: &LstmTrace) -> Vec<u64> {
    (0..trace.len())
        .flat_map(|t| bits(trace.hidden(t)))
        .collect()
}

fn grad_bits(cell: &mut LstmCell) -> Vec<u64> {
    let mut all = Vec::new();
    cell.visit_params(&mut |_, g| all.extend(bits(g.as_slice())));
    all
}

/// One shape on one instance: two forward + pure + accumulating BPTT
/// passes; returns every output's bits (hidden states, input gradients
/// from the pure pass, and the accumulated parameter gradients).
fn run(kernels: KernelInstance, mut cell: LstmCell, len: usize, salt: u64) -> Vec<u64> {
    let (x, h) = (cell.input_size(), cell.hidden_size());
    cell.zero_grads();
    let mut out = Vec::new();
    for (pass, amplitude) in [(0, 0.8), (1, 40.0)] {
        let xs = rows(len, x, salt + pass, amplitude);
        let dh = sparse_dh(len, h, salt + pass);
        let trace = cell.forward_seq_on(kernels, &xs);
        out.extend(hidden_bits(&trace));
        out.extend(bits(&cell.input_grad_seq_on(kernels, &trace, &dh)));
        cell.backward_seq_on(kernels, &trace, &dh);
    }
    out.extend(grad_bits(&mut cell));
    out
}

/// Both instances on one shape; panics on the first differing bit.
fn assert_instances_agree(x: usize, h: usize, len: usize, seed: u64, salt: u64) {
    let cell = LstmCell::new(x, h, &mut StdRng::seed_from_u64(seed));
    let portable = run(KernelInstance::Portable, cell.clone(), len, salt);
    let avx2 = run(KernelInstance::Avx2, cell, len, salt);
    assert!(
        portable == avx2,
        "instances differ at X {x}, H {h}, T {len} (seed {seed}, salt {salt})"
    );
}

#[test]
fn avx2_instance_matches_portable_bits_on_every_shape() {
    for x in INPUTS {
        for h in HIDDEN {
            for len in LENGTHS {
                assert_instances_agree(x, h, len, 0x1A57, 3);
            }
        }
    }
}

proptest! {
    #[test]
    fn avx2_instance_matches_portable_bits(
        shape in 0usize..INPUTS.len() * HIDDEN.len() * LENGTHS.len(),
        seed in 0u64..1_000_000,
        salt in 0u64..1000,
    ) {
        let x = INPUTS[shape % INPUTS.len()];
        let h = HIDDEN[shape / INPUTS.len() % HIDDEN.len()];
        let len = LENGTHS[shape / (INPUTS.len() * HIDDEN.len())];
        assert_instances_agree(x, h, len, seed, salt);
    }
}

#[test]
fn default_methods_run_the_host_instance() {
    let mut cell = LstmCell::new(3, 5, &mut StdRng::seed_from_u64(9));
    let xs = rows(12, 3, 1, 0.8);
    let dh = sparse_dh(12, 5, 1);
    let trace = cell.forward_seq(&xs);
    let host = cell.forward_seq_on(KernelInstance::host(), &xs);
    assert_eq!(hidden_bits(&trace), hidden_bits(&host));
    assert_eq!(
        bits(&cell.input_grad_seq(&trace, &dh)),
        bits(&cell.input_grad_seq_on(KernelInstance::host(), &trace, &dh))
    );
    let mut twin = cell.clone();
    cell.backward_seq(&trace, &dh);
    twin.backward_seq_on(KernelInstance::host(), &trace, &dh);
    assert_eq!(grad_bits(&mut cell), grad_bits(&mut twin));
}
