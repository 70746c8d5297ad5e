//! Order-4 finite-context-method backend.

use crate::index::{fnv1a, table_mask, word_index};

/// Values hashed into the level-1 context.
const ORDER: usize = 4;

#[derive(Debug, Clone, Default)]
struct Level1 {
    /// Last [`ORDER`] values seen, newest first.
    recent: [u64; ORDER],
    seen: u8,
}

impl Level1 {
    #[inline]
    fn context_hash(&self) -> Option<u64> {
        ((self.seen as usize) >= ORDER).then(|| fnv1a(&self.recent))
    }

    #[inline]
    fn push(&mut self, value: u64) {
        self.recent.rotate_right(1);
        self.recent[0] = value;
        self.seen = (self.seen + 1).min(ORDER as u8);
    }
}

/// A two-level order-4 finite-context-method backend: level 1 (per load
/// PC, direct-mapped) keeps the last four values; level 2 (shared,
/// hash-indexed) maps that value context to the value that followed it
/// last time. Catches arbitrary repeating value sequences — a pointer
/// walking a cyclic structure, a state machine's output — that neither
/// last-value nor stride prediction can express.
///
/// Both levels index through the shared [`crate::index`] helpers so a
/// table-geometry sweep means the same thing here as in the LVPT.
#[derive(Debug, Clone)]
pub struct ContextBackend {
    level1: Vec<Level1>,
    l1_mask: usize,
    level2: Vec<Option<u64>>,
    l2_mask: usize,
}

impl ContextBackend {
    /// Level-2 slots per level-1 slot: the shared value table is larger
    /// than the per-PC context table so distinct contexts rarely clash.
    const L2_FACTOR: usize = 16;

    /// The [`ContextBackend::index`] of a load whose context is still
    /// cold (never a level-2 slot).
    pub const COLD: usize = usize::MAX;

    /// Creates a backend with `entries` level-1 slots (and
    /// `entries * 16` shared level-2 slots).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> ContextBackend {
        let l2_entries = entries * Self::L2_FACTOR;
        ContextBackend {
            level1: vec![Level1::default(); entries],
            l1_mask: table_mask(entries),
            level2: vec![None; l2_entries],
            l2_mask: table_mask(l2_entries),
        }
    }

    /// The level-1 (per-PC context) slot of a load at `pc`.
    #[inline]
    fn slot(&self, pc: u64) -> usize {
        word_index(pc, self.l1_mask)
    }

    /// The level-2 slot the current context of `pc` selects, once the
    /// context is warm.
    #[inline]
    fn value_slot(&self, pc: u64) -> Option<usize> {
        let ctx = self.level1[self.slot(pc)].context_hash()?;
        Some((ctx as usize) & self.l2_mask)
    }

    /// The CVU certification key for a load at `pc`: the shared level-2
    /// slot that supplies its prediction. Level 2 is written by every
    /// pc whose context hashes there, so only the supplying slot can
    /// tell when a certified prediction changed. A cold context
    /// predicts nothing and is never certified; it maps to
    /// [`ContextBackend::COLD`].
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        self.value_slot(pc).unwrap_or(Self::COLD)
    }

    /// The predicted value for a load at `pc`: the value that followed
    /// the current context last time, if the context is warm.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.level2[self.value_slot(pc)?]
    }

    /// Trains with the verified value. Returns the level-2 slot whose
    /// value changed, if any — the [`ContextBackend::index`] of every
    /// load whose certified prediction is now stale.
    pub fn train(&mut self, pc: u64, actual: u64) -> Option<usize> {
        let written = self.value_slot(pc);
        let changed = written.filter(|&h| self.level2[h] != Some(actual));
        if let Some(h) = written {
            self.level2[h] = Some(actual);
        }
        let i = self.slot(pc);
        self.level1[i].push(actual);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x1000;

    fn run(p: &mut ContextBackend, values: &[u64]) -> (u64, u64) {
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
    fn learns_periodic_pointer_chase() {
        // A pointer walking a 5-element cyclic list: strides are
        // irregular, but the sequence repeats exactly.
        let ring = [0x8000u64, 0x8040, 0x9000, 0x8020, 0xa000];
        let values: Vec<u64> = (0..200).map(|i| ring[i % ring.len()]).collect();
        let mut p = ContextBackend::new(64);
        let (_, correct) = run(&mut p, &values);
        assert!(correct > 180, "correct {correct}");
    }

    #[test]
    fn handles_constants() {
        let mut p = ContextBackend::new(64);
        let (_, correct) = run(&mut p, &vec![7u64; 100]);
        assert!(correct > 90, "correct {correct}");
    }

    #[test]
    fn cold_start_predicts_nothing() {
        let p = ContextBackend::new(64);
        assert_eq!(p.predict(PC), None);
    }

    #[test]
    fn needs_order_4_warmup() {
        let mut p = ContextBackend::new(64);
        for v in [1u64, 2, 3] {
            p.train(PC, v);
        }
        assert_eq!(p.predict(PC), None, "only 3 values seen");
        p.train(PC, 4);
        // Context warm but never seen before: still no level-2 value.
        assert_eq!(p.predict(PC), None);
    }

    #[test]
    fn train_reports_prediction_changes() {
        let mut p = ContextBackend::new(64);
        for v in [7u64, 7, 7] {
            assert_eq!(p.train(PC, v), None, "cold context writes no slot");
        }
        assert_eq!(p.index(PC), ContextBackend::COLD);
        p.train(PC, 7);
        // Warm context, cold level 2: the supplying slot gains a value.
        let slot = p.index(PC);
        assert_ne!(slot, ContextBackend::COLD);
        assert_eq!(p.train(PC, 7), Some(slot));
        // Stable constant: context and level-2 value both fixed.
        assert_eq!(p.train(PC, 7), None);
        assert_eq!(p.index(PC), slot);
        // A new value rewrites the supplying slot; the context moves on.
        assert_eq!(p.train(PC, 9), Some(slot));
        assert_ne!(p.index(PC), slot);
    }

    #[test]
    fn another_pc_sharing_a_context_changes_the_supplying_slot() {
        // Two pcs with the same value history share a level-2 slot, so
        // training one changes the other's prediction. The change is
        // reported against the shared slot — the other pc's index.
        const OTHER: u64 = PC + 4;
        let mut p = ContextBackend::new(64);
        for v in [1u64, 2, 3, 4, 5] {
            p.train(PC, v);
        }
        for v in [1u64, 2, 3, 4] {
            p.train(OTHER, v);
        }
        assert_eq!(p.predict(OTHER), Some(5));
        let shared = p.index(OTHER);
        assert_eq!(p.train(OTHER, 6), Some(shared));
        // PC's context moved on; retrain it on the same history so it
        // lands on the shared slot again.
        for v in [1u64, 2, 3, 4] {
            p.train(PC, v);
        }
        assert_eq!(p.index(PC), shared);
        assert_eq!(p.predict(PC), Some(6), "OTHER's training is visible");
    }
}
