//! Per-patient sliding-window state machines with bounded memory.

use std::collections::VecDeque;

use lgo_detect::Window;

/// The streaming counterpart of `lgo_core::pipeline::benign_windows`: a
/// ring buffer that turns an unbounded sample stream into overlapping
/// fixed-length windows, holding at most `seq_len` rows at any time.
///
/// Window emission matches the batch windower exactly — the window ending
/// at sample `t` (0-based) is emitted when `t + 1 >= seq_len` and
/// `(t + 1 - seq_len) % stride == 0` — so a stream fed one row at a time
/// produces the same windows the batch pipeline would cut from the full
/// series.
#[derive(Debug, Clone)]
pub struct PatientState {
    rows: VecDeque<Vec<f64>>,
    seq_len: usize,
    stride: usize,
    seen: u64,
}

impl PatientState {
    /// A fresh stream; `seq_len` and `stride` must be positive.
    ///
    /// # Panics
    ///
    /// Panics when `seq_len == 0` or `stride == 0`.
    #[must_use]
    pub fn new(seq_len: usize, stride: usize) -> Self {
        assert!(seq_len > 0, "PatientState: seq_len must be positive");
        assert!(stride > 0, "PatientState: stride must be positive");
        Self {
            rows: VecDeque::with_capacity(seq_len),
            seq_len,
            stride,
            seen: 0,
        }
    }

    /// Total samples ever pushed (not the buffered count).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Pushes one sample row; returns the completed window when this row
    /// lands on a window boundary.
    pub fn push(&mut self, row: Vec<f64>) -> Option<Window> {
        if self.rows.len() == self.seq_len {
            self.rows.pop_front();
        }
        self.rows.push_back(row);
        self.seen += 1;
        let len = self.seq_len as u64;
        if self.seen >= len && (self.seen - len).is_multiple_of(self.stride as u64) {
            Some(self.rows.iter().cloned().collect())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f64) -> Vec<f64> {
        vec![v, v + 0.5]
    }

    #[test]
    fn emits_windows_on_stride_boundaries() {
        let mut p = PatientState::new(3, 2);
        let mut emitted = Vec::new();
        for t in 0..9 {
            if let Some(w) = p.push(row(t as f64)) {
                emitted.push((t, w));
            }
        }
        // Windows end at samples 2, 4, 6, 8 (seen = 3, 5, 7, 9).
        assert_eq!(
            emitted.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![2, 4, 6, 8]
        );
        assert_eq!(emitted[1].1, vec![row(2.0), row(3.0), row(4.0)]);
    }

    #[test]
    fn matches_batch_windower() {
        // Feed a stream one row at a time and compare against slicing the
        // full series directly — the batch semantics.
        let series: Vec<Vec<f64>> = (0..40).map(|t| row(t as f64)).collect();
        for (seq_len, stride) in [(4, 1), (4, 4), (12, 6), (5, 3)] {
            let mut p = PatientState::new(seq_len, stride);
            let streamed: Vec<Window> =
                series.iter().filter_map(|r| p.push(r.clone())).collect();
            let batch: Vec<Window> = (0..)
                .map(|k| k * stride)
                .take_while(|s| s + seq_len <= series.len())
                .map(|s| series[s..s + seq_len].to_vec())
                .collect();
            assert_eq!(streamed, batch, "seq_len={seq_len} stride={stride}");
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let mut p = PatientState::new(12, 6);
        for t in 0..100_000 {
            let _ = p.push(row(t as f64));
            assert!(p.rows.len() <= 12);
        }
        assert_eq!(p.seen(), 100_000);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let _ = PatientState::new(3, 0);
    }
}
