//! Confidence-arbitrated hybrid backend.

use crate::backends::{ContextBackend, TwoDeltaStrideBackend};
use crate::config::LvptConfig;
use crate::index::{table_mask, word_index};
use crate::lvpt::Lvpt;
use crate::predictor::PredictorKind;

/// Saturation ceiling of the per-component confidence counters.
const SAT: u8 = 15;

/// Component order doubles as the tie-break priority: on equal
/// confidence the earlier component wins. Stride first (it subsumes
/// constants), then last-value, then context (slowest to warm).
const STRIDE: usize = 0;
const LAST_VALUE: usize = 1;
const CONTEXT: usize = 2;

/// A hybrid that runs a last-value table, a two-delta stride table and
/// an order-4 context table side by side and arbitrates per static load
/// with 4-bit confidence counters, in the style of the Pin
/// `hybrid_lvp.cpp` tool: every component trains on every load, each
/// load's prediction comes from the component with the highest
/// confidence for that PC, and a component's counter rises when it
/// *would have* predicted the verified value and decays otherwise.
#[derive(Debug, Clone)]
pub struct HybridBackend {
    stride: TwoDeltaStrideBackend,
    last_value: Lvpt,
    context: ContextBackend,
    /// Per-PC confidence, indexed like the component tables.
    sel: Vec<[u8; 3]>,
    mask: usize,
}

impl HybridBackend {
    /// Creates a backend whose three component tables all have
    /// `entries` slots (the selector too).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> HybridBackend {
        HybridBackend {
            stride: TwoDeltaStrideBackend::new(entries),
            last_value: Lvpt::new(LvptConfig {
                entries,
                history_depth: 1,
                perfect_selection: false,
            }),
            context: ContextBackend::new(entries),
            sel: vec![[0; 3]; entries],
            mask: table_mask(entries),
        }
    }

    /// The selector slot of a load at `pc` (the per-PC component tables
    /// index the same way).
    #[inline]
    fn slot(&self, pc: u64) -> usize {
        word_index(pc, self.mask)
    }

    /// The CVU certification key for a load at `pc`. While a per-PC
    /// component (stride or last-value) wins the arbitration, it is the
    /// selector slot. While the context component wins, it is that
    /// component's shared level-2 slot ([`ContextBackend::index`]),
    /// offset past the selector slots so the two key spaces never meet.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        let i = self.slot(pc);
        if self.choose(i) != CONTEXT {
            return i;
        }
        match self.context.index(pc) {
            ContextBackend::COLD => ContextBackend::COLD,
            h => self.sel.len() + h,
        }
    }

    /// The prediction certified under the selector-slot key: the
    /// winner's value while a per-PC component wins, `None` while the
    /// context component does.
    #[inline]
    fn slot_predict(&self, pc: u64) -> Option<u64> {
        match self.choose(self.slot(pc)) {
            CONTEXT => None,
            c => self.component_predict(c, pc),
        }
    }

    /// The winning component for `pc` (highest confidence, earlier
    /// component on ties).
    #[inline]
    fn choose(&self, idx: usize) -> usize {
        let c = &self.sel[idx];
        let mut best = STRIDE;
        for i in [LAST_VALUE, CONTEXT] {
            if c[i] > c[best] {
                best = i;
            }
        }
        best
    }

    /// The component confidences for `pc`, in `[stride, last-value,
    /// context]` order — diagnostic accessor for the arbitration tests.
    pub fn confidences(&self, pc: u64) -> [u8; 3] {
        self.sel[self.slot(pc)]
    }

    #[inline]
    fn component_predict(&self, component: usize, pc: u64) -> Option<u64> {
        match component {
            STRIDE => self.stride.predict(pc),
            LAST_VALUE => self.last_value.predict(pc),
            _ => self.context.predict(pc),
        }
    }

    /// The arbitrated prediction for a load at `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.component_predict(self.choose(self.slot(pc)), pc)
    }

    /// Seeds the arbiter from a static hint: raise the nominated
    /// component's confidence so it wins the first arbitrations for this
    /// pc. The boost is a third of the hint confidence (at least 1), so
    /// a wrong hint unlearns within a few verified loads; kinds without
    /// a component here (store-to-load, hybrid itself) are ignored, and
    /// confidences already above the boost are left alone.
    pub fn seed_hint(&mut self, pc: u64, kind: PredictorKind, confidence: u8) {
        let component = match kind {
            PredictorKind::Stride => STRIDE,
            PredictorKind::LastValue => LAST_VALUE,
            PredictorKind::Context => CONTEXT,
            PredictorKind::StoreToLoad | PredictorKind::Hybrid => return,
        };
        let idx = self.slot(pc);
        let boost = (confidence.min(SAT) / 3).max(1);
        self.sel[idx][component] = self.sel[idx][component].max(boost);
    }

    /// Trains every component with the verified value and updates the
    /// arbitration counters. Returns the CVU keys ([`HybridBackend::index`])
    /// whose certified prediction changed: the selector slot when its
    /// per-PC prediction changed (a component retraining *or* an
    /// arbitration flip), and the context component's level-2 slot when
    /// its value changed.
    pub fn train(&mut self, pc: u64, actual: u64) -> [Option<usize>; 2] {
        let idx = self.slot(pc);
        let before = self.slot_predict(pc);
        for i in 0..3 {
            let was_right = self.component_predict(i, pc) == Some(actual);
            let conf = &mut self.sel[idx][i];
            *conf = if was_right {
                (*conf + 1).min(SAT)
            } else {
                conf.saturating_sub(1)
            };
        }
        self.stride.train(pc, actual);
        self.last_value.update(pc, actual);
        let shared = self.context.train(pc, actual).map(|h| self.sel.len() + h);
        [(before != self.slot_predict(pc)).then_some(idx), shared]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x1000;

    fn run(p: &mut HybridBackend, values: &[u64]) -> (u64, u64) {
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
    fn stride_component_wins_on_strided_values() {
        let values: Vec<u64> = (0..100).map(|i| 8 * i).collect();
        let mut p = HybridBackend::new(64);
        let (_, correct) = run(&mut p, &values);
        assert!(correct > 90, "correct {correct}");
        let conf = p.confidences(PC);
        assert_eq!(conf[STRIDE], SAT);
        assert_eq!(conf[LAST_VALUE], 0, "last-value never right on strides");
    }

    #[test]
    fn context_component_wins_on_pointer_chase() {
        let ring = [0x8000u64, 0x8040, 0x9000, 0x8020, 0xa000];
        let values: Vec<u64> = (0..300).map(|i| ring[i % ring.len()]).collect();
        let mut p = HybridBackend::new(64);
        let (_, correct) = run(&mut p, &values);
        assert!(correct > 250, "correct {correct}");
        let conf = p.confidences(PC);
        assert_eq!(conf[CONTEXT], SAT);
        assert!(conf[CONTEXT] > conf[STRIDE]);
    }

    #[test]
    fn constants_saturate_everyone_and_still_predict() {
        let mut p = HybridBackend::new(64);
        let (_, correct) = run(&mut p, &vec![7u64; 100]);
        assert!(correct > 90, "correct {correct}");
        let conf = p.confidences(PC);
        assert_eq!(conf, [SAT, SAT, SAT]);
        assert_eq!(p.predict(PC), Some(7));
    }

    #[test]
    fn seed_hint_pins_the_starting_component() {
        let mut p = HybridBackend::new(64);
        p.seed_hint(PC, PredictorKind::Context, 15);
        let conf = p.confidences(PC);
        assert!(conf[CONTEXT] > conf[STRIDE]);
        assert!(conf[CONTEXT] > conf[LAST_VALUE]);
        assert!(
            conf[CONTEXT] <= SAT / 3 + 1,
            "boost stays moderate so wrong hints unlearn fast: {conf:?}"
        );
        // Unmappable kinds are no-ops.
        let mut q = HybridBackend::new(64);
        q.seed_hint(PC, PredictorKind::StoreToLoad, 15);
        assert_eq!(q.confidences(PC), [0, 0, 0]);
    }

    #[test]
    fn wrong_seed_unlearns_within_a_few_loads() {
        // Hint says context, the stream is strided: stride must win the
        // arbitration anyway, quickly.
        let mut p = HybridBackend::new(64);
        p.seed_hint(PC, PredictorKind::Context, 15);
        let values: Vec<u64> = (0..40).map(|i| 8 * i).collect();
        let (_, correct) = run(&mut p, &values);
        let conf = p.confidences(PC);
        assert_eq!(conf[STRIDE], SAT);
        assert!(conf[STRIDE] > conf[CONTEXT]);
        assert!(correct > 30, "correct {correct}");
    }

    #[test]
    fn train_reports_arbitration_flips() {
        let mut p = HybridBackend::new(64);
        // Saturate on a constant, then feed a strided run; somewhere the
        // winner flips from the (stale) shared maximum to stride alone,
        // and every prediction change is reported.
        for _ in 0..20 {
            p.train(PC, 7);
        }
        let mut reported = 0;
        for v in (1..20u64).map(|i| 7 + 8 * i) {
            let before = p.predict(PC);
            let changed = p.train(PC, v)[0].is_some();
            assert_eq!(changed, before != p.predict(PC));
            reported += changed as u32;
        }
        assert!(reported > 0);
        assert_eq!(p.confidences(PC)[STRIDE], SAT);
    }
}
