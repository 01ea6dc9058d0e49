//! Bit identity of the two compiled instances of the LSTM kernels.
//!
//! [`KernelInstance::Portable`] and [`KernelInstance::Avx2`] are one source
//! body compiled twice, the second time with AVX2 enabled and without FMA.
//! Every case here runs the same cell through both and compares, bit for
//! bit, every hidden state of the forward trace, the input gradients of
//! pure BPTT, and the parameter gradients accumulating BPTT adds up.
//! Shapes sweep X ∈ 1..=5, H ∈ {1, 3, 5, 8, 16} and T ∈ {1, 2, 12, 48}, so
//! every column blocking of the kernels leaves a remainder somewhere: once
//! each on a fixed cell, then at random shapes, cells and inputs. Each
//! case runs two passes without `zero_grads`; the second saturates the
//! gates, so some gate deltas are exactly zero next to non-zero ones.
//! Inputs carry −0.0 entries, and `dh` carries exact-zero rows and entries
//! throughout and ends in exact-zero rows, so the last steps' gate deltas
//! are exact-zero rows.
//!
//! The AVX2 instance runs the shapes (4, 8) and (4, 16) at literal loop
//! bounds, and the portable instance never does, so the same sweep pins
//! those instances against the general body. At those shapes the
//! host-instance-only entry points — `forward_rows` over a reversed
//! window and `resume_rows` from a mid-sequence prefix — also run against
//! the portable instance's full forward pass.
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
const LENGTHS: [usize; 4] = [1, 2, 12, 48];
/// The shapes the AVX2 instance compiles with literal loop bounds.
const LITERAL_SHAPES: [(usize, usize); 2] = [(4, 8), (4, 16)];

/// A `len × width` sequence with every seventh entry −0.0; amplitude 40
/// saturates sigmoid and tanh.
fn rows(len: usize, width: usize, salt: u64, amplitude: f64) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..width)
                .map(|j| {
                    if (t * width + j) % 7 == 3 {
                        -0.0
                    } else {
                        ((t * 7 + j * 3) as f64 * 0.29 + salt as f64 * 0.013).sin() * amplitude
                    }
                })
                .collect()
        })
        .collect()
}

/// A flat `len × hidden` gradient with every third row, every fifth entry
/// and the last `len / 4` rows exactly zero.
fn sparse_dh(len: usize, hidden: usize, salt: u64) -> Vec<f64> {
    (0..len * hidden)
        .map(|k| {
            let t = k / hidden;
            if t % 3 == 2 || k % 5 == 1 || t >= len - len / 4 {
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

/// The host instance's `forward_rows` over a reversed window, against the
/// portable instance over the reversed copy: hidden states, and the input
/// gradients of BPTT through each trace.
#[test]
fn reversed_rows_on_literal_shapes_match_portable_bits() {
    for (x, h) in LITERAL_SHAPES {
        for len in LENGTHS {
            let cell = LstmCell::new(x, h, &mut StdRng::seed_from_u64(0xBAC4));
            for amplitude in [0.8, 40.0] {
                let xs = rows(len, x, 5, amplitude);
                let reversed: Vec<Vec<f64>> = xs.iter().rev().cloned().collect();
                let dh = sparse_dh(len, h, 5);
                let host = cell.forward_rows(xs.iter().rev().map(Vec::as_slice));
                let portable = cell.forward_seq_on(KernelInstance::Portable, &reversed);
                assert_eq!(hidden_bits(&host), hidden_bits(&portable), "({x}, {h}), T {len}");
                assert_eq!(
                    bits(&cell.input_grad_seq(&host, &dh)),
                    bits(&cell.input_grad_seq_on(KernelInstance::Portable, &portable, &dh)),
                    "({x}, {h}), T {len}"
                );
            }
        }
    }
}

/// `resume_rows` (host instance) from every kind of prefix cut — none,
/// one step, mid-sequence, all but one, all — against the portable
/// instance's full pass: each resumed step's hidden state, and the input
/// gradients of BPTT through the resumed trace against the full trace's
/// rows from the cut on when `dh` is zero before it. The resumed trace's
/// BPTT also runs on both instances, both sinks.
#[test]
fn resumed_rows_on_literal_shapes_match_portable_bits() {
    for (x, h) in LITERAL_SHAPES {
        for len in LENGTHS {
            let mut cell = LstmCell::new(x, h, &mut StdRng::seed_from_u64(0x5E5));
            let xs = rows(len, x, 7, 40.0);
            let full = cell.forward_seq_on(KernelInstance::Portable, &xs);
            let full_hidden = hidden_bits(&full);
            for keep in [0, 1, len / 2, len - 1, len] {
                let what = format!("({x}, {h}), T {len}, keep {keep}");
                let resumed = cell.resume_rows(&full, keep, xs[keep..].iter().map(Vec::as_slice));
                assert_eq!(hidden_bits(&resumed), full_hidden[keep * h..], "{what}");
                let tail_dh = sparse_dh(len - keep, h, 7);
                let mut full_dh = vec![0.0; keep * h];
                full_dh.extend(&tail_dh);
                let pure = cell.input_grad_seq(&resumed, &tail_dh);
                let reference = cell.input_grad_seq_on(KernelInstance::Portable, &full, &full_dh);
                assert_eq!(bits(&pure), bits(&reference[keep * x..]), "{what}");
                let mut grads = Vec::new();
                for kernels in [KernelInstance::Portable, KernelInstance::Avx2] {
                    cell.zero_grads();
                    cell.backward_seq_on(kernels, &resumed, &tail_dh);
                    grads.push(grad_bits(&mut cell));
                }
                assert!(grads[0] == grads[1], "{what}: accumulated gradients differ");
            }
        }
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
