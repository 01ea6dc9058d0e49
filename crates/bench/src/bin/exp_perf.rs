//! Perf trajectory — before/after timings of the algorithmic hot paths.
//!
//! Times each stage's "before" against its "after" in one process,
//! single-threaded (`LGO_THREADS` is overridden to 1 so the numbers
//! measure algorithms, not pool scheduling), and asserts the two outputs
//! are **bit-identical** before any timing is trusted:
//!
//! - `detector_grid` — the (strategy × detector) selective-training grid
//!   with a cold [`lgo_detect::KernelCache`] (cleared before every pass,
//!   so each distinct roster computes its Gram) vs warm passes (every
//!   Gram is a cache hit), showing the cache amortizing repeated rosters;
//! - `lstm_forward` — a bench-local per-step-vector LSTM (the form the
//!   flat-trace kernels replaced) vs [`lgo_nn::LstmCell::forward_seq`];
//! - `lstm_bptt` — the same reference's forward + accumulating BPTT vs
//!   `forward_seq` + [`lgo_nn::LstmCell::backward_seq`]: parameter
//!   gradients compared bit for bit, and the reference's input gradients
//!   against the pure [`lgo_nn::LstmCell::input_grad_seq`];
//! - `uret_campaign` — a maximizing and an early-exit URET campaign per
//!   patient against the forecaster behind [`lgo_attack::FnModel`] (every
//!   query a full forward pass), vs one maximizing campaign against
//!   [`lgo_core::profile::ForecastModel`] (candidates resume the extended
//!   window's forward pass) with the early-exit campaign read off it;
//!   every outcome of both campaigns compared bit for bit;
//! - `lstm_avx2` — the portable instance of the LSTM kernels vs the AVX2
//!   instance ([`lgo_nn::KernelInstance`]), each running forward,
//!   accumulating BPTT and pure BPTT at X = 4, H = 8, T = 12 (the
//!   forecaster's and the MAD-GAN's shape); hidden states, pure input
//!   gradients and accumulated parameter gradients compared bit for bit.
//!   On a host without AVX2 both sides run the portable instance and the
//!   row says so;
//! - `pgd_campaign` — a bench-local two-pass PGD / BIM / FGSM and CW
//!   (every candidate forecast with `predict`, every gradient from
//!   `try_input_gradients`, which runs the window forward again) vs the
//!   library attackers, which read each step's gradient off the candidate's
//!   kept evaluation; every outcome field compared, queries and steps
//!   included;
//! - `activations` — the host libm's `exp`-based sigmoid and `tanh` vs the
//!   owned [`lgo_nn::sigmoid`] / [`lgo_nn::tanh`] over 8-wide gate blocks,
//!   in ns per element. The kernels are *meant* to differ from libm in the
//!   last bits, so this stage carries no `identical` key: it reports the
//!   largest ULP distance instead (the property tests in `lgo-nn` bound
//!   it at 2 for sigmoid and 3 for tanh);
//! - `seq2seq_head` — the MAD-GAN generator (latent X = 4, H = 8, 4
//!   outputs, T = 12): forward, pure input gradient and accumulating
//!   backward through the library LSTM with a bench-local per-row head vs
//!   [`lgo_nn::LstmSeq2Seq`], whose head runs as one block over the hidden
//!   states; outputs, input gradients and parameter gradients compared bit
//!   for bit.
//!
//! Knob: `LGO_PERF_SCALE` — `fast` (default) / `mid` / `paper` workload
//! sizes.
//!
//! Results go to stdout and `results/BENCH_perf.json`.
//!
//! ```text
//! cargo run -p lgo-bench --release --bin exp_perf
//! ```

use std::time::Instant;

use lgo_attack::cgm::{run_campaign, CampaignReport, CgmAttackConfig, CgmCase};
use lgo_attack::{FnModel, GreedyExplorer};
use lgo_core::profile::{attack_cases, ForecastModel};
use lgo_core::selective::{
    try_evaluate_strategy, DetectorKind, PatientData, StrategyEvaluation, TrainingStrategy,
};
use lgo_detect::Window;
use lgo_forecast::{ForecastConfig, GlucoseForecaster};
use lgo_glucosim::{generate_cohort_sized, PatientId, Subset};
use lgo_nn::{sigmoid, tanh, Activation, Dense, KernelInstance, LstmCell, LstmSeq2Seq, Trainable};
use lgo_tensor::Matrix;
use lgo_zoo::gradient::{CwMargin, Pgd};
use lgo_zoo::{apply_boost, case_seed, finish_outcome, Attack, AttackContext, ZooConfig};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Workload sizes per `LGO_PERF_SCALE`.
struct PerfScale {
    name: &'static str,
    /// Detector grid: windows per patient (benign train; the other splits
    /// are derived fractions).
    grid_windows: usize,
    /// LSTM: batch size and sequence length.
    lstm_batch: usize,
    lstm_seq: usize,
    /// URET campaigns: patients attacked (one trained forecaster each).
    uret_patients: usize,
    /// Timed repetitions per stage (summed): small workloads on a busy
    /// container need several passes for a stable ratio.
    reps: usize,
}

fn perf_scale() -> PerfScale {
    match std::env::var("LGO_PERF_SCALE").as_deref() {
        Ok("fast") | Err(_) => PerfScale {
            name: "fast",
            grid_windows: 160,
            lstm_batch: 64,
            lstm_seq: 32,
            uret_patients: 2,
            reps: 5,
        },
        Ok("mid") => PerfScale {
            name: "mid",
            grid_windows: 180,
            lstm_batch: 96,
            lstm_seq: 36,
            uret_patients: 4,
            reps: 3,
        },
        Ok("paper") => PerfScale {
            name: "paper",
            grid_windows: 360,
            lstm_batch: 192,
            lstm_seq: 48,
            uret_patients: 12,
            reps: 2,
        },
        Ok(other) => panic!("LGO_PERF_SCALE = {other:?}; expected fast, mid or paper"),
    }
}

/// One synthetic patient: benign windows cluster near a per-patient
/// baseline, malicious windows spike high. Deterministic via split seeds.
fn synth_patient(idx: usize, windows: usize) -> PatientData {
    let subset = if idx.is_multiple_of(2) { Subset::A } else { Subset::B };
    let patient = PatientId::new(subset, idx / 2 + 1);
    let mk = |seed: u64, base: f64, spread: f64, n: usize| -> Vec<Window> {
        (0..n)
            .map(|w| {
                let s = lgo_runtime::split_seed(seed, w as u64);
                (0..12)
                    .map(|t| {
                        let v = base
                            + spread
                                * (((s >> (t % 7)) & 0x3FF) as f64 / 1023.0 - 0.5)
                            + 8.0 * ((w + t) as f64 * 0.31).sin();
                        vec![v, 0.4, 0.1, 70.0]
                    })
                    .collect()
            })
            .collect()
    };
    let seed = 0xBEE5_0000 + idx as u64;
    // Messy patients (odd idx) have wider benign spread — gives the
    // strategies genuinely different rosters to learn from.
    let spread = if idx.is_multiple_of(2) { 14.0 } else { 40.0 };
    PatientData {
        patient,
        train_benign: mk(seed, 120.0, spread, windows),
        train_malicious: mk(seed ^ 0xFF, 260.0, 20.0, windows / 3),
        test_benign: mk(seed ^ 0xF0F0, 120.0, spread, windows),
        test_malicious: mk(seed ^ 0xAAAA, 260.0, 20.0, windows / 3),
    }
}

/// Stage 2: the (strategy × detector) selective-training grid, cold
/// kernel cache (cleared before every pass) vs warm kernel cache.
fn stage_grid(scale: &PerfScale) -> StageResult {
    let cohort: Vec<PatientData> = (0..6).map(|i| synth_patient(i, scale.grid_windows)).collect();
    let ids: Vec<PatientId> = cohort.iter().map(|d| d.patient).collect();
    let less: Vec<PatientId> = ids[..3].to_vec();
    let more: Vec<PatientId> = ids[3..].to_vec();
    let strategies = [
        TrainingStrategy::LessVulnerable,
        TrainingStrategy::MoreVulnerable,
        TrainingStrategy::RandomSamples { k: 3, runs: 2, seed: 0xABCD },
        TrainingStrategy::AllPatients,
    ];
    let kinds = [DetectorKind::OcSvm, DetectorKind::Knn];
    let mut configs = lgo_bench::detector_configs(lgo_bench::Scale::Fast);
    // ν bounds the outlier fraction of the (clean, benign) training rosters;
    // the library default of 0.5 makes half the roster support vectors,
    // which is operationally silly and buries the Gram stage under SMO and
    // scoring work that no optimization is allowed to touch (both are
    // bit-pinned). 0.15 is a realistic deployment value.
    configs.ocsvm.nu = 0.15;

    let run_grid = || -> Vec<StrategyEvaluation> {
        let mut evals = Vec::new();
        for &kind in &kinds {
            for &strategy in &strategies {
                evals.push(
                    try_evaluate_strategy(strategy, kind, &cohort, &less, &more, &configs)
                        .expect("grid cell"),
                );
            }
        }
        evals
    };
    let clear_cache = || {
        lgo_detect::kernel_cache_global()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    };

    // Cold passes: every distinct roster computes its Gram matrix (repeats
    // within one pass, e.g. the same roster under two strategies, still
    // hit), which is what a one-off grid run pays.
    let mut before_s = 0.0;
    let mut cold_misses = 0;
    let mut cold = Vec::new();
    for _ in 0..scale.reps {
        clear_cache();
        let stats = cache_stats();
        let t = Instant::now();
        cold = run_grid();
        before_s += t.elapsed().as_secs_f64();
        cold_misses = cache_stats().misses - stats.misses;
    }

    // Warm passes: the last cold pass left every roster's Gram cached,
    // which is what repeated grid passes (scaling runs, figure binaries
    // sharing one strategy-grid workload) actually see.
    let stats_warm = cache_stats();
    let t = Instant::now();
    let mut warm = run_grid();
    for _ in 1..scale.reps {
        warm = run_grid();
    }
    let after_s = t.elapsed().as_secs_f64();
    let warm_hits = (cache_stats().hits - stats_warm.hits) / scale.reps as u64;

    let mut identical = true;
    for (a, b) in cold.iter().zip(&warm) {
        for ((pa, ma), (pb, mb)) in a.per_patient.iter().zip(&b.per_patient) {
            identical &= pa == pb;
            identical &= ma.recall.to_bits() == mb.recall.to_bits();
            identical &= ma.precision.to_bits() == mb.precision.to_bits();
            identical &= ma.f1.to_bits() == mb.f1.to_bits();
        }
    }
    assert!(identical, "warm-cache detector grid diverged from cold-cache grid");

    StageResult {
        stage: "detector_grid",
        before_s,
        after_s,
        identical: Some(identical),
        extra: format!(
            "\"cells\": {}, \"cache_misses_cold\": {cold_misses}, \"cache_hits_warm\": {warm_hits}",
            kinds.len() * strategies.len(),
        ),
    }
}

fn cache_stats() -> lgo_detect::KernelCacheStats {
    lgo_detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats()
}

/// The per-step-vector LSTM the flat-trace kernels replaced, kept here as
/// the reference they are timed and bit-checked against: every step
/// allocates its `z`, gate, cell and hidden vectors and keeps ten of them
/// (x, h_prev, c_prev, i, f, g, o, c, tanh c, h) for backpropagation, and
/// BPTT goes through `Matrix::matvec_transpose` / `Matrix::add_outer`.
/// It calls the library's [`sigmoid`] and [`tanh`], so the bit check pins
/// trace layout and summation order, not the activation kernels.
struct RefLstm {
    w_x: Matrix,
    w_h: Matrix,
    b: Matrix,
    gw_x: Matrix,
    gw_h: Matrix,
    gb: Matrix,
}

/// One reference step: `[x, h_prev, c_prev, i, f, g, o, c, tanh c, h]`.
type RefStep = [Vec<f64>; 10];

impl RefLstm {
    /// Copies the parameters out of `cell` (order: W_x, W_h, b).
    fn of(cell: &LstmCell) -> Self {
        let mut params = Vec::new();
        cell.clone().visit_params(&mut |p, _| params.push(p.clone()));
        let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        Self {
            gw_x: zeros(&params[0]),
            gw_h: zeros(&params[1]),
            gb: zeros(&params[2]),
            b: params.pop().expect("bias"),
            w_h: params.pop().expect("recurrent weights"),
            w_x: params.pop().expect("input weights"),
        }
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
            let (mut i, mut f, mut g, mut o) = (vec![0.0; h], vec![0.0; h], vec![0.0; h], vec![0.0; h]);
            for j in 0..h {
                i[j] = sigmoid(z[j]);
                f[j] = sigmoid(z[h + j]);
                g[j] = tanh(z[2 * h + j]);
                o[j] = sigmoid(z[3 * h + j]);
            }
            let (mut c, mut tanh_c, mut hh) = (vec![0.0; h], vec![0.0; h], vec![0.0; h]);
            for j in 0..h {
                c[j] = f[j] * c_prev[j] + i[j] * g[j];
                tanh_c[j] = tanh(c[j]);
                hh[j] = o[j] * tanh_c[j];
            }
            steps.push([x.clone(), h_prev, c_prev, i, f, g, o, c.clone(), tanh_c, hh.clone()]);
            (h_prev, c_prev) = (hh, c);
        }
        steps
    }

    /// Accumulating BPTT over per-step `dh` rows; returns per-step input
    /// gradients.
    fn backward(&mut self, steps: &[RefStep], dh: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let h = self.w_h.cols();
        let mut dxs = vec![Vec::new(); steps.len()];
        let (mut dh_next, mut dc_next) = (vec![0.0; h], vec![0.0; h]);
        for t in (0..steps.len()).rev() {
            let [x, h_prev, c_prev, i, f, g, o, _, tanh_c, _] = &steps[t];
            let dht: Vec<f64> = dh[t].iter().zip(&dh_next).map(|(&a, &b)| a + b).collect();
            let mut dz = vec![0.0; 4 * h];
            let mut dc_prev = vec![0.0; h];
            for j in 0..h {
                let do_ = dht[j] * tanh_c[j];
                let dct = dc_next[j] + dht[j] * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
                let di = dct * g[j];
                let df = dct * c_prev[j];
                let dg = dct * i[j];
                dc_prev[j] = dct * f[j];
                dz[j] = di * i[j] * (1.0 - i[j]);
                dz[h + j] = df * f[j] * (1.0 - f[j]);
                dz[2 * h + j] = dg * (1.0 - g[j] * g[j]);
                dz[3 * h + j] = do_ * o[j] * (1.0 - o[j]);
            }
            self.gw_x.add_outer(&dz, x, 1.0);
            self.gw_h.add_outer(&dz, h_prev, 1.0);
            for (gb, &d) in self.gb.as_mut_slice().iter_mut().zip(&dz) {
                *gb += d;
            }
            dxs[t] = self.w_x.matvec_transpose(&dz);
            dh_next = self.w_h.matvec_transpose(&dz);
            dc_next = dc_prev;
        }
        dxs
    }
}

/// Deterministic LSTM workload: `lstm_batch` sequences of `lstm_seq` rows,
/// 8 features each, for a 64-unit cell.
fn lstm_workload(scale: &PerfScale) -> (LstmCell, Vec<Vec<Vec<f64>>>) {
    let mut rng = StdRng::seed_from_u64(0x6C67_6F70);
    let cell = LstmCell::new(8, 64, &mut rng);
    let seqs = (0..scale.lstm_batch)
        .map(|b| {
            (0..scale.lstm_seq)
                .map(|t| {
                    (0..8)
                        .map(|j| ((b * 31 + t * 7 + j * 3) as f64 * 0.17).sin() * 0.8)
                        .collect()
                })
                .collect()
        })
        .collect();
    (cell, seqs)
}

fn same_bits<'a>(a: impl IntoIterator<Item = &'a f64>, b: impl IntoIterator<Item = &'a f64>) -> bool {
    a.into_iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Stage 3: LSTM forward over a batch of sequences — the per-step-vector
/// reference vs the flat-trace `forward_seq`.
fn stage_lstm(scale: &PerfScale) -> StageResult {
    let (cell, seqs) = lstm_workload(scale);
    let reference = RefLstm::of(&cell);
    let t0 = Instant::now();
    let mut before = Vec::new();
    for _ in 0..scale.reps {
        before = seqs.iter().map(|xs| reference.forward(xs)).collect::<Vec<_>>();
    }
    let before_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut traces = Vec::new();
    for _ in 0..scale.reps {
        traces = seqs.iter().map(|xs| cell.forward_seq(xs)).collect::<Vec<_>>();
    }
    let after_s = t1.elapsed().as_secs_f64();

    let identical = before.iter().zip(&traces).all(|(steps, trace)| {
        steps.iter().enumerate().all(|(t, s)| same_bits(&s[9], trace.hidden(t)))
    });
    assert!(identical, "flat LSTM forward diverged from the reference loop");
    StageResult {
        stage: "lstm_forward",
        before_s,
        after_s,
        identical: Some(identical),
        extra: format!(
            "\"sequences\": {}, \"seq_len\": {}",
            scale.lstm_batch, scale.lstm_seq
        ),
    }
}

/// Stage 4: LSTM forward + accumulating BPTT over a batch of sequences —
/// the per-step-vector reference (which also returns input gradients) vs
/// `forward_seq` + `backward_seq`, which accumulates parameter gradients
/// only. Identity covers the accumulated `gw_x`, `gw_h`, `gb`, and every
/// reference input gradient against the pure `input_grad_seq` (run after
/// the timing).
fn stage_lstm_bptt(scale: &PerfScale) -> StageResult {
    let (mut cell, seqs) = lstm_workload(scale);
    let mut reference = RefLstm::of(&cell);
    // External gradients on every other step; the rest are exact zeros.
    let dh: Vec<Vec<f64>> = (0..scale.lstm_seq)
        .map(|t| {
            (0..64)
                .map(|j| if t % 2 == 0 { ((t * 5 + j) as f64 * 0.11).cos() } else { 0.0 })
                .collect()
        })
        .collect();
    let dh_flat: Vec<f64> = dh.iter().flatten().copied().collect();

    let t0 = Instant::now();
    let mut ref_dx = Vec::new();
    for _ in 0..scale.reps {
        ref_dx = seqs
            .iter()
            .map(|xs| {
                let steps = reference.forward(xs);
                reference.backward(&steps, &dh)
            })
            .collect::<Vec<_>>();
    }
    let before_s = t0.elapsed().as_secs_f64();

    cell.zero_grads();
    let t1 = Instant::now();
    for _ in 0..scale.reps {
        for xs in &seqs {
            let trace = cell.forward_seq(xs);
            cell.backward_seq(&trace, &dh_flat);
        }
    }
    let after_s = t1.elapsed().as_secs_f64();
    let dx: Vec<Vec<f64>> = seqs
        .iter()
        .map(|xs| cell.input_grad_seq(&cell.forward_seq(xs), &dh_flat))
        .collect();

    let mut grads = Vec::new();
    cell.visit_params(&mut |_, g| grads.push(g.clone()));
    let identical = ref_dx
        .iter()
        .zip(&dx)
        .all(|(r, d)| same_bits(r.iter().flatten(), d))
        && [&reference.gw_x, &reference.gw_h, &reference.gb]
            .iter()
            .zip(&grads)
            .all(|(r, g)| same_bits(r.as_slice(), g.as_slice()));
    assert!(identical, "flat LSTM BPTT diverged from the reference loop");
    StageResult {
        stage: "lstm_bptt",
        before_s,
        after_s,
        identical: Some(identical),
        extra: format!(
            "\"sequences\": {}, \"seq_len\": {}",
            scale.lstm_batch, scale.lstm_seq
        ),
    }
}

/// One instance's pass over the stage's workload: per sequence, forward,
/// then pure BPTT (input gradients) and accumulating BPTT (parameter
/// gradients) through its trace. Returns every output's bits and the
/// seconds spent in the forward and BPTT halves.
/// Each trace is dropped before the next sequence runs, as in training,
/// so the timing sees no page faults from a batch of live traces.
fn lstm_instance_pass(
    kernels: KernelInstance,
    cell: &mut LstmCell,
    seqs: &[Vec<Vec<f64>>],
    dh: &[f64],
) -> (Vec<u64>, f64, f64) {
    let (mut forward_s, mut bptt_s, mut out) = (0.0, 0.0, Vec::new());
    for xs in seqs {
        let t0 = Instant::now();
        let trace = cell.forward_seq_on(kernels, xs);
        let t1 = Instant::now();
        let pure = cell.input_grad_seq_on(kernels, &trace, dh);
        cell.backward_seq_on(kernels, &trace, dh);
        let t2 = Instant::now();
        forward_s += (t1 - t0).as_secs_f64();
        bptt_s += (t2 - t1).as_secs_f64();
        out.extend((0..trace.len()).flat_map(|t| trace.hidden(t)).map(|v| v.to_bits()));
        out.extend(pure.iter().map(|v| v.to_bits()));
    }
    cell.visit_params(&mut |_, g| out.extend(g.as_slice().iter().map(|v| v.to_bits())));
    (out, forward_s, bptt_s)
}

/// Stage 5: the two compiled instances of the LSTM kernels at the
/// forecaster's shape (X = 4, H = 8, T = 12): every sequence forward, then
/// pure and accumulating BPTT through each trace, gradients accumulating
/// across the batch. Identity covers every hidden state, the pure input
/// gradients and the accumulated parameter gradients. `before_s` /
/// `after_s` are one pass, each half (forward, BPTT) timed best of the
/// rounds; the row also reports the halves.
fn stage_lstm_avx2(scale: &PerfScale) -> StageResult {
    let (x, h, len) = (4, 8, 12);
    let mut rng = StdRng::seed_from_u64(0x6C67_6F76);
    let cell = LstmCell::new(x, h, &mut rng);
    // Many short sequences: the instance is chosen once per call, so this
    // is the regime where dispatch could cost the most.
    let seqs: Vec<Vec<Vec<f64>>> = (0..scale.lstm_batch * 32)
        .map(|b| {
            (0..len)
                .map(|t| {
                    (0..x)
                        .map(|j| ((b * 31 + t * 7 + j * 3) as f64 * 0.17).sin() * 0.8)
                        .collect()
                })
                .collect()
        })
        .collect();
    // An external gradient on the last step, as the regressor head feeds
    // it, and on every third step, as the per-step heads do.
    let dh: Vec<f64> = (0..len * h)
        .map(|k| if k / h == len - 1 || (k / h) % 3 == 0 { (k as f64 * 0.11).cos() } else { 0.0 })
        .collect();
    // Best of interleaved rounds, the order alternating per round: the
    // container's load drifts on the scale of one pass.
    let instances = [KernelInstance::Portable, KernelInstance::Avx2];
    let mut best = [(f64::INFINITY, f64::INFINITY); 2];
    let mut bits: [Vec<u64>; 2] = Default::default();
    for round in 0..4 * scale.reps {
        for k in [round % 2, 1 - round % 2] {
            let mut cell = cell.clone();
            let (b, forward_s, bptt_s) = lstm_instance_pass(instances[k], &mut cell, &seqs, &dh);
            best[k] = (best[k].0.min(forward_s), best[k].1.min(bptt_s));
            bits[k] = b;
        }
    }
    let [(forward_before, bptt_before), (forward_after, bptt_after)] = best;
    let identical = bits[0] == bits[1];
    assert!(identical, "the AVX2 instance of the LSTM kernels diverged from the portable one");
    StageResult {
        stage: "lstm_avx2",
        before_s: forward_before + bptt_before,
        after_s: forward_after + bptt_after,
        identical: Some(identical),
        extra: format!(
            "\"sequences\": {}, \"input\": {x}, \"hidden\": {h}, \"seq_len\": {len}, \"host_instance\": \"{:?}\", \"forward_before_s\": {forward_before:.6}, \"forward_after_s\": {forward_after:.6}, \"bptt_before_s\": {bptt_before:.6}, \"bptt_after_s\": {bptt_after:.6}",
            seqs.len(),
            KernelInstance::host(),
        ),
    }
}

/// The per-row dense head the generator's head block replaced, kept here
/// as its reference: each row's outputs are dots summed by
/// `Iterator::sum` plus the bias, then the sigmoid one element at a time;
/// backward runs one row at a time, each output's `dz` skipping the weight
/// gradient and the input gradient when exactly zero.
#[derive(Clone)]
struct RefHead {
    w: Matrix,
    b: Vec<f64>,
    gw: Matrix,
    gb: Vec<f64>,
}

impl RefHead {
    fn forward(&self, h: &[f64], pre: &mut [f64], post: &mut [f64]) {
        for (r, (p, y)) in pre.iter_mut().zip(post.iter_mut()).enumerate() {
            *p = self.w.row(r).iter().zip(h).map(|(&a, &v)| a * v).sum::<f64>() + self.b[r];
            *y = Activation::Sigmoid.apply(*p);
        }
    }

    /// One row's input gradient; parameter gradients accumulate when
    /// `accumulate` holds.
    fn backward(&mut self, h: &[f64], pre: &[f64], post: &[f64], dy: &[f64], accumulate: bool) -> Vec<f64> {
        let mut dx = vec![0.0; h.len()];
        for (r, ((&d, &z), &y)) in dy.iter().zip(pre).zip(post).enumerate() {
            let dz = d * Activation::Sigmoid.derivative(z, y);
            if accumulate {
                // lint: allow(L4): the exact-zero skip of add_outer
                if dz != 0.0 {
                    for (g, &v) in self.gw.row_mut(r).iter_mut().zip(h) {
                        *g += dz * v;
                    }
                }
                self.gb[r] += dz;
            }
            // lint: allow(L4): the exact-zero skip of matvec_transpose
            if dz != 0.0 {
                for (o, &a) in dx.iter_mut().zip(self.w.row(r)) {
                    *o += a * dz;
                }
            }
        }
        dx
    }

    /// The generator's forward, pure input gradient and accumulating
    /// backward over `cell` and this head: the outputs and the input
    /// gradient.
    fn generator_pass(&mut self, cell: &mut LstmCell, z: &[f64], dys: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (h, out) = (cell.hidden_size(), self.b.len());
        let trace = cell.forward_flat(z);
        let n = trace.len() * out;
        let (mut pre, mut post) = (vec![0.0; n], vec![0.0; n]);
        for t in 0..trace.len() {
            let span = t * out..(t + 1) * out;
            self.forward(trace.hidden(t), &mut pre[span.clone()], &mut post[span]);
        }
        let mut dh = vec![0.0; trace.len() * h];
        for accumulate in [false, true] {
            for (t, dh_t) in dh.chunks_exact_mut(h).enumerate() {
                let span = t * out..(t + 1) * out;
                let (p, y, d) = (&pre[span.clone()], &post[span.clone()], &dys[span]);
                dh_t.copy_from_slice(&self.backward(trace.hidden(t), p, y, d, accumulate));
            }
        }
        let dz = cell.input_grad_seq(&trace, &dh);
        cell.backward_seq(&trace, &dh);
        (post, dz)
    }
}

/// One generator pass over a latent sequence and its output gradients:
/// the outputs and the input gradient.
type HeadPass<'a> = dyn FnMut(&[f64], &[f64]) -> (Vec<f64>, Vec<f64>) + 'a;

/// One side of the `seq2seq_head` stage over every latent sequence.
/// Returns the bits of every output and input gradient, and the seconds
/// spent.
fn timed_head_pass(zs: &[Vec<f64>], dys: &[f64], pass: &mut HeadPass<'_>) -> (Vec<u64>, f64) {
    let mut bits = Vec::new();
    let t = Instant::now();
    for z in zs {
        let (outputs, dz) = pass(z, dys);
        bits.extend(outputs.iter().chain(&dz).map(|v| v.to_bits()));
    }
    (bits, t.elapsed().as_secs_f64())
}

/// Stage 9: the MAD-GAN generator at its bench shape (latent X = 4,
/// H = 8, 4 outputs, T = 12): per latent sequence, forward, the pure input
/// gradient and accumulating backward. Before: the library LSTM with the
/// bench-local per-row head ([`RefHead`]). After: [`LstmSeq2Seq`], whose
/// head runs over the whole hidden block in the LSTM call's kernel
/// instance. Outputs, input gradients and every accumulated parameter
/// gradient are compared bit for bit; timings are best of interleaved
/// rounds.
fn stage_seq2seq_head(scale: &PerfScale) -> StageResult {
    let (x, h, out, len) = (4, 8, 4, 12);
    let seed = 0x6C67_6F68;
    let generator = LstmSeq2Seq::new(x, h, out, Activation::Sigmoid, &mut StdRng::seed_from_u64(seed));
    // `LstmSeq2Seq::new` draws the cell, then the head, from one stream.
    let mut rng = StdRng::seed_from_u64(seed);
    let cell = LstmCell::new(x, h, &mut rng);
    let mut head_params = Vec::new();
    Dense::new(h, out, Activation::Sigmoid, &mut rng).visit_params(&mut |p, _| head_params.push(p.clone()));
    let head = RefHead {
        gw: Matrix::zeros(out, h),
        gb: vec![0.0; out],
        b: head_params[1].as_slice().to_vec(),
        w: head_params[0].clone(),
    };
    let zs: Vec<Vec<f64>> = (0..scale.lstm_batch * 32)
        .map(|b| (0..len * x).map(|k| ((b * 29 + k * 5) as f64 * 0.23).sin()).collect())
        .collect();
    // Every third row of output gradients exactly zero.
    let dys: Vec<f64> = (0..len * out)
        .map(|k| if (k / out) % 3 == 2 { 0.0 } else { (k as f64 * 0.37).cos() * 0.1 })
        .collect();

    let (mut best, mut bits) = ([f64::INFINITY; 2], [Vec::new(), Vec::new()]);
    for round in 0..4 * scale.reps {
        for k in [round % 2, 1 - round % 2] {
            let (b, secs) = if k == 0 {
                let (mut cell, mut head) = (cell.clone(), head.clone());
                cell.zero_grads();
                let (mut b, secs) =
                    timed_head_pass(&zs, &dys, &mut |z, d| head.generator_pass(&mut cell, z, d));
                cell.visit_params(&mut |_, g| b.extend(g.as_slice().iter().map(|v| v.to_bits())));
                b.extend(head.gw.as_slice().iter().chain(&head.gb).map(|v| v.to_bits()));
                (b, secs)
            } else {
                let mut g = generator.clone();
                g.zero_grads();
                let (mut b, secs) = timed_head_pass(&zs, &dys, &mut |z, d| {
                    let trace = g.forward_flat(z);
                    let dz = g.input_grad(&trace, d);
                    g.backward(&trace, d);
                    (trace.outputs().to_vec(), dz)
                });
                g.visit_params(&mut |_, g| b.extend(g.as_slice().iter().map(|v| v.to_bits())));
                (b, secs)
            };
            best[k] = best[k].min(secs);
            bits[k] = b;
        }
    }
    let identical = bits[0] == bits[1];
    assert!(identical, "the generator's head block diverged from the per-row reference");
    StageResult {
        stage: "seq2seq_head",
        before_s: best[0],
        after_s: best[1],
        identical: Some(identical),
        extra: format!(
            "\"sequences\": {}, \"input\": {x}, \"hidden\": {h}, \"output\": {out}, \"seq_len\": {len}, \"host_instance\": \"{:?}\"",
            zs.len(),
            KernelInstance::host(),
        ),
    }
}

/// The ±1/0 step direction of the signed-gradient attackers.
fn direction(g: f64) -> f64 {
    if g > 0.0 {
        1.0
    } else if g < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// The two-pass gradient attackers the library's fused ones replaced:
/// every candidate is forecast with `predict`, and every step's gradient
/// comes from `try_input_gradients`, which runs the window forward again.
/// A value is one signed-gradient preset; [`TwoPass::cw`] is the CW margin
/// attack.
struct TwoPass {
    steps: usize,
    restarts: usize,
}

type Found = Option<(Vec<Vec<f64>>, f64, usize)>;

impl TwoPass {
    fn keep_better(best: &mut Found, goal: lgo_attack::Goal, found: (Vec<Vec<f64>>, f64, usize)) {
        if best.as_ref().is_none_or(|&(_, b, _)| goal.score(found.1) > goal.score(b)) {
            *best = Some(found);
        }
    }

    fn gradient(ctx: &AttackContext<'_>, w: &Window) -> Option<Vec<f64>> {
        let col = ctx.zoo.attack.cgm_column;
        let g = ctx.forecaster.try_input_gradients(w).ok()?;
        Some(g.iter().map(|row| row[col]).collect())
    }

    fn ascent(&self, ctx: &AttackContext<'_>, case: &CgmCase, mut delta: Vec<f64>, queries: &mut usize) -> Found {
        let (lo, hi) = ctx.zoo.attack.manipulation_range(case.fasting);
        let col = ctx.zoo.attack.cgm_column;
        let goal = ctx.goal(case.fasting);
        let alpha = ctx.zoo.eps / self.steps.max(1) as f64;
        let mut best = None;
        if delta.iter().any(|&d| d > 0.0) {
            let cand = apply_boost(&case.window, &delta, col, lo, hi);
            let out = ctx.forecaster.predict(&cand);
            *queries += 1;
            best = Some((cand, out, 1));
            if goal.achieved(out) {
                return best;
            }
        }
        for step in 1..=self.steps {
            let at = apply_boost(&case.window, &delta, col, lo, hi);
            let Some(g) = Self::gradient(ctx, &at) else { break };
            *queries += 1;
            let mut moved = false;
            for (d, &gt) in delta.iter_mut().zip(&g) {
                let nd = (*d + alpha * direction(gt)).clamp(0.0, ctx.zoo.eps);
                moved |= nd != *d;
                *d = nd;
            }
            if !moved {
                break;
            }
            let cand = apply_boost(&case.window, &delta, col, lo, hi);
            let out = ctx.forecaster.predict(&cand);
            *queries += 1;
            Self::keep_better(&mut best, goal, (cand, out, step));
            if goal.achieved(out) {
                break;
            }
        }
        best
    }

    fn pgd(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> lgo_attack::cgm::WindowOutcome {
        let benign = ctx.forecaster.predict(&case.window);
        let mut queries = 1;
        let goal = ctx.goal(case.fasting);
        if goal.achieved(benign) {
            return finish_outcome(ctx, case, benign, None, queries);
        }
        let base = case_seed(ctx, case);
        let mut best = None;
        for restart in 0..self.restarts.max(1) {
            let mut rng = StdRng::seed_from_u64(lgo_runtime::split_seed(base, restart as u64));
            let init: Vec<f64> = (0..case.window.len())
                .map(|_| {
                    if restart == 0 || ctx.zoo.eps <= 0.0 {
                        0.0
                    } else {
                        rng.random_range(0.0..ctx.zoo.eps)
                    }
                })
                .collect();
            if let Some(found) = self.ascent(ctx, case, init, &mut queries) {
                Self::keep_better(&mut best, goal, found);
                if best.as_ref().is_some_and(|&(_, b, _)| goal.achieved(b)) {
                    break;
                }
            }
        }
        finish_outcome(ctx, case, benign, best, queries)
    }

    fn cw(ctx: &AttackContext<'_>, case: &CgmCase) -> lgo_attack::cgm::WindowOutcome {
        let (lo, hi) = ctx.zoo.attack.manipulation_range(case.fasting);
        let col = ctx.zoo.attack.cgm_column;
        let goal = ctx.goal(case.fasting);
        let threshold = ctx.zoo.attack.threshold(case.fasting);
        let benign = ctx.forecaster.predict(&case.window);
        let mut queries = 1;
        if goal.achieved(benign) {
            return finish_outcome(ctx, case, benign, None, queries);
        }
        let lr = ctx.zoo.eps / ctx.zoo.steps.max(1) as f64;
        let mut delta = vec![0.0; case.window.len()];
        let mut best = None;
        for step in 1..=ctx.zoo.steps {
            let at = apply_boost(&case.window, &delta, col, lo, hi);
            let Some(g) = Self::gradient(ctx, &at) else { break };
            queries += 1;
            let m = g.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            // lint: allow(L4): exactly-zero gradient norm means a flat model, as in the library's CW
            if m == 0.0 {
                break;
            }
            for (d, &gt) in delta.iter_mut().zip(&g) {
                *d = (*d + lr * gt / m).clamp(0.0, ctx.zoo.eps);
            }
            let cand = apply_boost(&case.window, &delta, col, lo, hi);
            let out = ctx.forecaster.predict(&cand);
            queries += 1;
            Self::keep_better(&mut best, goal, (cand, out, step));
            if out > threshold + ctx.zoo.kappa {
                for _ in 0..4 {
                    let half: Vec<f64> = delta.iter().map(|d| d * 0.5).collect();
                    let cand = apply_boost(&case.window, &half, col, lo, hi);
                    let out = ctx.forecaster.predict(&cand);
                    queries += 1;
                    if out > threshold {
                        delta = half;
                        best = Some((cand, out, step));
                    } else {
                        break;
                    }
                }
                break;
            }
        }
        finish_outcome(ctx, case, benign, best, queries)
    }
}

/// Every bit of a campaign's outcomes: case fields, benign prediction,
/// the result's input, output, success flag, queries, steps and first hit.
fn campaign_bits(report: &CampaignReport) -> Vec<u64> {
    let mut bits = Vec::new();
    for o in &report.outcomes {
        let r = &o.result;
        bits.extend([o.index as u64, o.fasting as u64, o.origin as u64]);
        bits.extend([o.benign_prediction.to_bits(), r.best_output.to_bits()]);
        bits.extend([r.achieved as u64, r.queries as u64, r.steps as u64]);
        bits.extend(r.best_input.iter().flatten().map(|v| v.to_bits()));
        if let Some(hit) = &r.first_hit {
            bits.extend([hit.output.to_bits(), hit.queries as u64, hit.steps as u64]);
            bits.extend(hit.input.iter().flatten().map(|v| v.to_bits()));
        }
    }
    bits
}

/// Small trained forecasters with their test-period attack cases: the
/// campaign stages' shared set-up.
fn campaign_patients(scale: &PerfScale) -> Vec<(GlucoseForecaster, Vec<CgmCase>)> {
    let forecast = ForecastConfig {
        hidden: 8,
        epochs: 2,
        ..ForecastConfig::default()
    };
    generate_cohort_sized(3, 1)
        .into_iter()
        .take(scale.uret_patients)
        .map(|d| {
            let forecaster = GlucoseForecaster::train_personalized(&d.train, &forecast);
            let cases = attack_cases(&d.test, forecast.seq_len, 6);
            (forecaster, cases)
        })
        .collect()
}

/// Stage 7: the white-box campaigns the defense grid's crafter runs —
/// PGD and its BIM and FGSM presets, and CW — on every attack case of the
/// campaign patients. Before: the bench-local two-pass attackers. After:
/// the library's, whose steps read the gradient off the forward pass that
/// forecast the candidate. Every outcome field is compared bit for bit.
fn stage_pgd(scale: &PerfScale) -> StageResult {
    let patients = campaign_patients(scale);
    let zoo = ZooConfig::default();
    let (pgd, bim, fgsm) = (Pgd::standard(), Pgd::bim(), Pgd::fgsm());
    let library: [&dyn Attack; 4] = [&pgd, &bim, &fgsm, &CwMargin];
    let references = [
        TwoPass { steps: zoo.steps, restarts: zoo.restarts },
        TwoPass { steps: zoo.steps, restarts: 1 },
        TwoPass { steps: 1, restarts: 1 },
    ];
    let contexts: Vec<(AttackContext<'_>, &[CgmCase])> = patients
        .iter()
        .map(|(f, cases)| {
            let ctx = AttackContext {
                forecaster: f,
                zoo: &zoo,
                seed: zoo.seed,
                detector: None,
            };
            (ctx, cases.as_slice())
        })
        .collect();
    let outcome_bits = |o: &lgo_attack::cgm::WindowOutcome| -> Vec<u64> {
        campaign_bits(&CampaignReport {
            outcomes: vec![o.clone()],
        })
    };

    let t0 = Instant::now();
    let mut before = Vec::new();
    for _ in 0..scale.reps {
        before.clear();
        for (ctx, cases) in &contexts {
            for case in *cases {
                for r in &references {
                    before.push(outcome_bits(&r.pgd(ctx, case)));
                }
                before.push(outcome_bits(&TwoPass::cw(ctx, case)));
            }
        }
    }
    let before_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut after = Vec::new();
    let mut queries = 0;
    for _ in 0..scale.reps {
        after.clear();
        queries = 0;
        for (ctx, cases) in &contexts {
            for case in *cases {
                for attack in library {
                    let o = attack.run(ctx, case);
                    queries += o.result.queries;
                    after.push(outcome_bits(&o));
                }
            }
        }
    }
    let after_s = t1.elapsed().as_secs_f64();

    let identical = before == after;
    assert!(identical, "fused gradient attackers diverged from the two-pass reference");
    StageResult {
        stage: "pgd_campaign",
        before_s,
        after_s,
        identical: Some(identical),
        extra: format!(
            "\"patients\": {}, \"attackers\": [\"pgd\", \"bim\", \"fgsm\", \"cw\"], \"windows\": {}, \"queries\": {queries}",
            patients.len(),
            contexts.iter().map(|(_, cases)| cases.len()).sum::<usize>(),
        ),
    }
}

/// Stage 6: step 1's test-period campaigns on small trained forecasters.
/// Before: every query a full forward pass (the forecaster behind
/// `FnModel`, whose `near` is the default) and the early-exit campaign
/// walked separately. After: `ForecastModel`, whose queries resume the
/// extended window's forward pass, and the early-exit campaign read off
/// the maximizing walks. Forecaster training and case building are set-up.
fn stage_uret(scale: &PerfScale) -> StageResult {
    let attack = CgmAttackConfig::default();
    let (maximizing, early) = (GreedyExplorer::maximizing(3), GreedyExplorer::new(3));
    let patients = campaign_patients(scale);

    let t0 = Instant::now();
    let mut before = Vec::new();
    for _ in 0..scale.reps {
        before = patients
            .iter()
            .map(|(f, cases)| {
                let model = FnModel::new(|w: &Window| f.predict(w));
                (
                    run_campaign(&model, cases, &maximizing, &attack),
                    run_campaign(&model, cases, &early, &attack),
                )
            })
            .collect::<Vec<_>>();
    }
    let before_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut after = Vec::new();
    for _ in 0..scale.reps {
        after = patients
            .iter()
            .map(|(f, cases)| {
                let report = run_campaign(&ForecastModel(f), cases, &maximizing, &attack);
                let minimal = report.early_exit();
                (report, minimal)
            })
            .collect::<Vec<_>>();
    }
    let after_s = t1.elapsed().as_secs_f64();

    let identical = before.iter().zip(&after).all(|((bm, be), (am, ae))| {
        campaign_bits(bm) == campaign_bits(am) && campaign_bits(be) == campaign_bits(ae)
    });
    assert!(
        identical,
        "shared-prefix URET campaigns diverged from full-pass queries"
    );
    let count = |f: fn(&CampaignReport) -> usize| -> usize {
        before.iter().map(|(m, e)| f(m) + f(e)).sum()
    };
    StageResult {
        stage: "uret_campaign",
        before_s,
        after_s,
        identical: Some(identical),
        extra: format!(
            "\"patients\": {}, \"windows\": {}, \"queries\": {}",
            patients.len(),
            count(|r| r.outcomes.len()),
            count(CampaignReport::total_queries),
        ),
    }
}

/// The sigmoid `lgo_nn::sigmoid` replaced: branchy, on the host's `exp`.
fn libm_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Distance in units in the last place, counted across zero.
fn ulps(a: f64, b: f64) -> u64 {
    let key = |v: f64| {
        let bits = v.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    key(a).abs_diff(key(b))
}

/// Best-of-`reps` seconds per element of `f` over `src`, applied block by
/// block as `LstmCell` applies it to each 8-wide gate block. The width
/// arrives at run time, as the hidden size does.
fn time_blocks(f: impl Fn(f64) -> f64, src: &[f64], reps: usize) -> (f64, Vec<f64>) {
    let width = std::hint::black_box(8);
    let mut dst = vec![0.0; src.len()];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..16 {
            let blocks = std::hint::black_box(src).chunks_exact(width);
            for (d, s) in dst.chunks_exact_mut(width).zip(blocks) {
                for (o, &x) in d.iter_mut().zip(s) {
                    *o = f(x);
                }
            }
            std::hint::black_box(&dst);
        }
        best = best.min(t.elapsed().as_secs_f64() / (16 * src.len()) as f64);
    }
    (best, dst)
}

/// Stage 8: sigmoid and tanh on the host libm vs the owned kernels, over
/// gate pre-activations in [−8, 8] (where trained LSTM gates live) in
/// 8-wide blocks. `before_s` / `after_s` are one pass of both functions
/// over the workload, each timed best of reps; the outputs differ by
/// design, so the row reports the largest ULP distance rather than an
/// identity.
fn stage_activations(scale: &PerfScale) -> StageResult {
    let n = scale.lstm_batch * scale.lstm_seq * 64;
    let src: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618).sin() * 8.0).collect();
    let reps = 4 * scale.reps;
    let (sig_libm, sl) = time_blocks(libm_sigmoid, &src, reps);
    let (sig_owned, so) = time_blocks(sigmoid, &src, reps);
    let (tanh_libm, tl) = time_blocks(f64::tanh, &src, reps);
    let (tanh_owned, to) = time_blocks(tanh, &src, reps);
    let max_ulp = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| ulps(x, y))
            .max()
            .unwrap_or(0)
    };
    let ns = |s: f64| s * 1e9;
    StageResult {
        stage: "activations",
        before_s: (sig_libm + tanh_libm) * n as f64,
        after_s: (sig_owned + tanh_owned) * n as f64,
        identical: None,
        extra: format!(
            "\"elements\": {n}, \"block\": 8, \"sigmoid_libm_ns\": {:.3}, \"sigmoid_owned_ns\": {:.3}, \"sigmoid_max_ulp\": {}, \"tanh_libm_ns\": {:.3}, \"tanh_owned_ns\": {:.3}, \"tanh_max_ulp\": {}",
            ns(sig_libm),
            ns(sig_owned),
            max_ulp(&sl, &so),
            ns(tanh_libm),
            ns(tanh_owned),
            max_ulp(&tl, &to),
        ),
    }
}

struct StageResult {
    stage: &'static str,
    before_s: f64,
    after_s: f64,
    /// Whether the after path reproduced the before path's bits; `None`
    /// for a stage whose two paths differ by design.
    identical: Option<bool>,
    extra: String,
}

fn main() {
    let scale = perf_scale();
    // Single-threaded timing: the perf trajectory tracks algorithmic cost,
    // not pool scheduling (exp_scaling owns the thread-count story).
    lgo_runtime::set_threads(Some(1));
    eprintln!("Perf trajectory (scale: {}, threads: 1)", scale.name);

    let stages = [
        stage_grid(&scale),
        stage_lstm(&scale),
        stage_lstm_bptt(&scale),
        stage_lstm_avx2(&scale),
        stage_uret(&scale),
        stage_pgd(&scale),
        stage_activations(&scale),
        stage_seq2seq_head(&scale),
    ];
    lgo_runtime::set_threads(None);

    let rows: Vec<String> = stages
        .iter()
        .map(|s| {
            let speedup = s.before_s / s.after_s;
            eprintln!(
                "{:>14}: before {:.4} s, after {:.4} s ({speedup:.2}x)",
                s.stage, s.before_s, s.after_s,
            );
            let identical = s
                .identical
                .map_or(String::new(), |same| format!("\"identical\": {same}, "));
            format!(
                "    {{\"stage\": \"{}\", \"before_s\": {:.6}, \"after_s\": {:.6}, \"speedup\": {speedup:.3}, {identical}{}}}",
                s.stage, s.before_s, s.after_s, s.extra
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"threads\": 1,\n  \"stages\": [\n{}\n  ]\n}}\n",
        scale.name,
        rows.join(",\n")
    );
    print!("{json}");
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/BENCH_perf.json", &json)
        .unwrap_or_else(|e| eprintln!("could not write results/BENCH_perf.json: {e}"));
}
