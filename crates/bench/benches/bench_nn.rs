//! Criterion benchmarks for the neural-network substrate: the LSTM cell,
//! the BiLSTM forecaster architecture and the training step — the inner
//! loops of both the target model and MAD-GAN.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lgo_nn::{BiLstmRegressor, Loss, LstmCell, Trainable};
use rand::{rngs::StdRng, SeedableRng};

fn sequence(len: usize, width: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| (0..width).map(|j| ((t * 3 + j) as f64 * 0.17).sin()).collect())
        .collect()
}

fn bench_lstm_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let cell = LstmCell::new(4, 16, &mut rng);
    let xs = sequence(12, 4);
    c.bench_function("lstm_forward_seq12_h16", |b| {
        b.iter(|| cell.forward_seq(black_box(&xs)))
    });
}

fn bench_lstm_bptt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut cell = LstmCell::new(4, 16, &mut rng);
    let xs = sequence(12, 4);
    let dh = vec![1.0; 16 * 12];
    c.bench_function("lstm_bptt_seq12_h16", |b| {
        b.iter(|| {
            cell.zero_grads();
            let trace = cell.forward_seq(black_box(&xs));
            cell.backward_seq(&trace, black_box(&dh))
        })
    });
}

fn bench_bilstm_predict(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let model = BiLstmRegressor::new(4, 16, &mut rng);
    let xs = sequence(12, 4);
    c.bench_function("bilstm_predict_seq12_h16", |b| {
        b.iter(|| model.predict(black_box(&xs)))
    });
}

fn bench_bilstm_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut model = BiLstmRegressor::new(4, 16, &mut rng);
    let xs = sequence(12, 4);
    c.bench_function("bilstm_accumulate_seq12_h16", |b| {
        b.iter(|| {
            model.zero_grads();
            model.accumulate(black_box(&xs), 0.5, Loss::Mse)
        })
    });
}

criterion_group!(
    benches,
    bench_lstm_forward,
    bench_lstm_bptt,
    bench_bilstm_predict,
    bench_bilstm_train_step
);
criterion_main!(benches);
