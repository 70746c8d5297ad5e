//! Per-PC stride backend with two-delta confirmation.

use crate::index::{table_mask, word_index};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Last value seen by this slot.
    last: u64,
    /// The confirmed stride, used for predictions.
    stride: i64,
    /// The most recent observed delta, awaiting confirmation.
    pending: i64,
    /// 2-bit confidence in the confirmed stride.
    confidence: u8,
    valid: bool,
}

/// A per-PC stride predictor with *two-delta* confirmation: a newly
/// observed delta only replaces the confirmed stride after it has been
/// seen twice in a row. One wild value (a pointer re-seated, a loop
/// restarting) therefore never destroys a learned stride — the classic
/// two-delta filter of stride prediction literature.
///
/// A constant load is the `stride == 0` special case, so this backend
/// subsumes last-value prediction on stable values (and the CVU can
/// still certify those: a zero-stride prediction does not change when
/// trained with the same value).
#[derive(Debug, Clone)]
pub struct TwoDeltaStrideBackend {
    entries: Vec<Entry>,
    mask: usize,
}

impl TwoDeltaStrideBackend {
    /// Creates a backend with `entries` direct-mapped, untagged slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> TwoDeltaStrideBackend {
        TwoDeltaStrideBackend {
            entries: vec![Entry::default(); entries],
            mask: table_mask(entries),
        }
    }

    /// The table index for a load at `pc`.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        word_index(pc, self.mask)
    }

    /// The predicted value for a load at `pc`, if confident.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        let e = &self.entries[self.index(pc)];
        (e.valid && e.confidence >= 1).then(|| e.last.wrapping_add(e.stride as u64))
    }

    /// Trains with the verified value. Returns `true` when the value
    /// this slot would predict changed (the CVU invalidation trigger).
    pub fn train(&mut self, pc: u64, actual: u64) -> bool {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        let before = (e.valid && e.confidence >= 1).then(|| e.last.wrapping_add(e.stride as u64));
        if !e.valid {
            *e = Entry {
                last: actual,
                stride: 0,
                pending: 0,
                confidence: 0,
                valid: true,
            };
        } else {
            let observed = actual.wrapping_sub(e.last) as i64;
            if observed == e.stride {
                e.confidence = (e.confidence + 1).min(3);
            } else if observed == e.pending {
                // Second sighting in a row: the delta is confirmed.
                e.stride = observed;
                e.confidence = 1;
            } else {
                e.pending = observed;
                e.confidence = e.confidence.saturating_sub(1);
            }
            e.last = actual;
        }
        let after = (e.valid && e.confidence >= 1).then(|| e.last.wrapping_add(e.stride as u64));
        before != after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x1000;

    fn run(p: &mut TwoDeltaStrideBackend, values: &[u64]) -> (u64, u64) {
        let (mut predicted, mut correct) = (0, 0);
        for &v in values {
            if let Some(pred) = p.predict(PC) {
                predicted += 1;
                if pred == v {
                    correct += 1;
                }
            }
            p.train(PC, v);
        }
        (predicted, correct)
    }

    #[test]
    fn learns_arithmetic_sequence() {
        let values: Vec<u64> = (0..100).map(|i| 1000 + 8 * i).collect();
        let mut p = TwoDeltaStrideBackend::new(64);
        let (_, correct) = run(&mut p, &values);
        assert!(correct > 90, "correct {correct}");
    }

    #[test]
    fn zero_stride_handles_constants() {
        let mut p = TwoDeltaStrideBackend::new(64);
        let (_, correct) = run(&mut p, &vec![7u64; 100]);
        assert!(correct > 90, "correct {correct}");
    }

    #[test]
    fn one_wild_value_does_not_destroy_the_stride() {
        // 0, 8, 16, ..., one outlier, then the sequence resumes. With
        // two-delta confirmation the outlier's delta is never confirmed,
        // so the stride survives and only the outlier's neighborhood
        // mispredicts.
        let mut values: Vec<u64> = (0..20).map(|i| 8 * i).collect();
        values.push(0xdead_beef);
        values.extend((21..60).map(|i| 8 * i));
        let mut p = TwoDeltaStrideBackend::new(64);
        let (predicted, correct) = run(&mut p, &values);
        assert!(
            predicted - correct <= 3,
            "mispredicts {}",
            predicted - correct
        );
    }

    #[test]
    fn confirmed_change_relearns_the_new_stride() {
        let mut values: Vec<u64> = (0..30).map(|i| 8 * i).collect();
        values.extend((0..30).map(|i| 1_000_000 + 16 * i));
        let mut p = TwoDeltaStrideBackend::new(64);
        let (_, correct) = run(&mut p, &values);
        assert!(correct > 50, "correct {correct}");
    }

    #[test]
    fn train_reports_prediction_changes() {
        let mut p = TwoDeltaStrideBackend::new(64);
        // Cold slot: no prediction before or after the first training.
        assert!(!p.train(PC, 7));
        // Delta 0 observed == initial stride 0: confidence 1, slot now
        // predicts 7 where it predicted nothing.
        assert!(p.train(PC, 7));
        // Stable constant: prediction stays 7.
        assert!(!p.train(PC, 7));
        // New value changes `last`, hence the predicted value.
        assert!(p.train(PC, 15));
    }
}
