//! Golden bits of the bidirectional GRU.
//!
//! A fixed fixture is trained for two epochs through `BiGruRegressor::fit`
//! (GRU forward + BPTT, the dense head's forward/backward, Adam, global-norm
//! clipping), then the parameter bits, the `predict` bits on held-out
//! windows and the pure `GruCell::input_grad_seq` bits are pinned. Any
//! change to the GRU gate algebra, the activation kernels, the head's
//! summation order or the exact-zero skips shows up here as a digest
//! mismatch.

use lgo_nn::{BiGruRegressor, GruCell, SeqSample, Trainable};
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

fn rows(len: usize, width: usize, salt: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..width)
                .map(|j| ((t * 7 + j * 3 + salt) as f64 * 0.29).sin() * 0.8)
                .collect()
        })
        .collect()
}

fn fixture() -> Vec<SeqSample> {
    (0..20)
        .map(|k| {
            let w = rows(12, 4, k * 3);
            let y = w.iter().map(|r| r[0] - 0.5 * r[3]).sum::<f64>() / 12.0;
            (w, y)
        })
        .collect()
}

#[test]
fn bigru_fit_and_predict_golden_bits() {
    let mut rng = StdRng::seed_from_u64(0x6E0);
    let mut model = BiGruRegressor::new(4, 8, &mut rng);
    let history = model.fit(&fixture(), 2, 6, 0.01);
    assert_eq!(digest(&history), 0x8a18_447b_b156_0b2a);

    let mut params = Vec::new();
    model.visit_params(&mut |p, _| params.extend_from_slice(p.as_slice()));
    assert_eq!(digest(&params), 0x4173_59cd_b2de_2eb1);

    let preds: Vec<f64> = (0..5)
        .map(|k| model.predict(&rows(12, 4, 100 + k)))
        .collect();
    assert_eq!(digest(&preds), 0xe676_97e0_79dc_14a3);
}

#[test]
fn gru_cell_input_grad_golden_bits() {
    let mut rng = StdRng::seed_from_u64(0x6E1);
    let cell = GruCell::new(4, 8, &mut rng);
    let mut digests = Vec::new();
    for pass in 0..2 {
        let trace = cell.forward_seq(&rows(12, 4, 50 + pass));
        // External gradient only up to step 8, so the trailing steps
        // backpropagate only the recurrent carry.
        let mut dh = rows(12, 8, 60 + pass);
        for row in dh.iter_mut().skip(9) {
            row.iter_mut().for_each(|v| *v = 0.0);
        }
        let dxs = cell.input_grad_seq(&trace, &dh);
        digests.push(digest(dxs.iter().flatten()));
        let hs = trace.hiddens();
        digests.push(digest(hs.iter().flatten()));
    }
    assert_eq!(
        digests,
        [
            0x66d5_7cdd_5137_88cd,
            0x3583_0c24_9655_6921,
            0x42e8_40a3_9ee8_6476,
            0xe21b_165c_0d1f_54de,
        ]
    );
}
