//! The `Predictor` abstraction: which value-prediction backend fills
//! the LVPT's slot in the LVP unit.
//!
//! Dispatch is a plain `enum` ([`Backend`]), not a trait object: the
//! per-load hot path ([`crate::LvpUnit::run_entries`]) stays
//! monomorphic, allocation-free and branch-predictable, and adding a
//! backend is a compile-error-guided edit rather than a vtable hookup.
//!
//! Every backend answers the same four questions the unit asks:
//!
//! 1. [`Backend::index`] — which table slot does this access use? The
//!    CVU certifies `(slot, address)` pairs, so the slot must be stable
//!    between the lookup and the training of one load.
//! 2. [`Backend::would_predict_correctly`] — would the issued
//!    prediction have verified against the actual value? This is the
//!    ground truth the LCT trains on.
//! 3. [`Backend::train`] — learn the verified value; report the slots
//!    whose prediction *changed*, because any CVU entry certifying the
//!    old value is then stale.
//! 4. [`Backend::on_store`] — observe a store (address, width, value);
//!    report a slot whose prediction changed, if any.

use crate::backends::{ContextBackend, HybridBackend, StoreToLoadBackend, TwoDeltaStrideBackend};
use crate::config::LvpConfig;
use crate::lvpt::Lvpt;
use std::fmt;
use std::str::FromStr;

/// Which value-prediction backend an [`LvpConfig`] selects.
///
/// The default, [`PredictorKind::LastValue`], is the paper's LVPT and
/// is bit-for-bit compatible with the pre-zoo unit; the others are the
/// future-work extensions (paper Section 6) the ablation harness
/// compares against it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredictorKind {
    /// The paper's history-based LVPT (Section 3.1).
    #[default]
    LastValue,
    /// Per-PC stride with two-delta confirmation.
    Stride,
    /// Order-4 finite-context-method (value-history) prediction.
    Context,
    /// Store-to-load forwarding: predict the last value stored at the
    /// load's address.
    StoreToLoad,
    /// Confidence-arbitrated hybrid of last-value, stride and context.
    Hybrid,
}

impl PredictorKind {
    /// All kinds, in display/sweep order.
    pub const ALL: [PredictorKind; 5] = [
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::Context,
        PredictorKind::StoreToLoad,
        PredictorKind::Hybrid,
    ];

    /// The stable CLI/CSV/JSON name of this kind.
    pub const fn as_str(self) -> &'static str {
        match self {
            PredictorKind::LastValue => "last-value",
            PredictorKind::Stride => "stride",
            PredictorKind::Context => "context",
            PredictorKind::StoreToLoad => "store-to-load",
            PredictorKind::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for an unrecognized predictor-kind name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPredictorKind(pub String);

impl fmt::Display for UnknownPredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown predictor kind '{}' (expected one of: last-value, stride, context, store-to-load, hybrid)",
            self.0
        )
    }
}

impl std::error::Error for UnknownPredictorKind {}

impl FromStr for PredictorKind {
    type Err = UnknownPredictorKind;

    fn from_str(s: &str) -> Result<PredictorKind, UnknownPredictorKind> {
        match s {
            "last-value" | "lastvalue" | "lvpt" => Ok(PredictorKind::LastValue),
            "stride" => Ok(PredictorKind::Stride),
            "context" | "fcm" => Ok(PredictorKind::Context),
            "store-to-load" | "s2l" => Ok(PredictorKind::StoreToLoad),
            "hybrid" => Ok(PredictorKind::Hybrid),
            other => Err(UnknownPredictorKind(other.to_string())),
        }
    }
}

/// The value-prediction backend of one [`crate::LvpUnit`] — enum
/// dispatch over the predictor zoo.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The paper's LVPT.
    LastValue(Lvpt),
    /// Two-delta stride table.
    Stride(TwoDeltaStrideBackend),
    /// Order-4 FCM table pair.
    Context(ContextBackend),
    /// Address-keyed store-value table.
    StoreToLoad(StoreToLoadBackend),
    /// Arbitrated last-value + stride + context.
    Hybrid(HybridBackend),
}

impl Backend {
    /// Builds the backend `config` selects, sized by `config.lvpt`
    /// (every backend's main table gets `config.lvpt.entries` slots, so
    /// geometry sweeps compare like with like; history depth and
    /// perfect selection only have meaning for
    /// [`PredictorKind::LastValue`]).
    pub fn new(config: &LvpConfig) -> Backend {
        let entries = config.lvpt.entries;
        match config.kind {
            PredictorKind::LastValue => Backend::LastValue(Lvpt::new(config.lvpt)),
            PredictorKind::Stride => Backend::Stride(TwoDeltaStrideBackend::new(entries)),
            PredictorKind::Context => Backend::Context(ContextBackend::new(entries)),
            PredictorKind::StoreToLoad => Backend::StoreToLoad(StoreToLoadBackend::new(entries)),
            PredictorKind::Hybrid => Backend::Hybrid(HybridBackend::new(entries)),
        }
    }

    /// Which kind this backend is.
    pub fn kind(&self) -> PredictorKind {
        match self {
            Backend::LastValue(_) => PredictorKind::LastValue,
            Backend::Stride(_) => PredictorKind::Stride,
            Backend::Context(_) => PredictorKind::Context,
            Backend::StoreToLoad(_) => PredictorKind::StoreToLoad,
            Backend::Hybrid(_) => PredictorKind::Hybrid,
        }
    }

    /// The table index a load at `(pc, addr)` uses — the slot half of
    /// the CVU's `(slot, address)` certification key: the slot that
    /// supplies the prediction. PC-keyed for last-value and stride,
    /// address-keyed for store-to-load, and keyed by the shared
    /// level-2 slot for context (and for the hybrid while its context
    /// component wins), because other pcs write that slot too.
    #[inline]
    pub fn index(&self, pc: u64, addr: u64) -> usize {
        match self {
            Backend::LastValue(b) => b.index(pc),
            Backend::Stride(b) => b.index(pc),
            Backend::Context(b) => b.index(pc),
            Backend::StoreToLoad(b) => b.index(addr),
            Backend::Hybrid(b) => b.index(pc),
        }
    }

    /// The value this backend would predict for a load at `(pc, addr)`,
    /// if it is confident enough to predict at all.
    #[inline]
    pub fn predict(&self, pc: u64, addr: u64) -> Option<u64> {
        match self {
            Backend::LastValue(b) => b.predict(pc),
            Backend::Stride(b) => b.predict(pc),
            Backend::Context(b) => b.predict(pc),
            Backend::StoreToLoad(b) => b.predict(addr),
            Backend::Hybrid(b) => b.predict(pc),
        }
    }

    /// Whether a prediction issued for this load would verify against
    /// `value` — the ground truth the LCT trains on. For the last-value
    /// backend this honors the Limit configuration's hypothetical
    /// perfect history selection; for every other backend it is simply
    /// `predict == Some(value)`.
    #[inline]
    pub fn would_predict_correctly(&self, pc: u64, addr: u64, value: u64) -> bool {
        match self {
            Backend::LastValue(b) => b.would_predict_correctly(pc, value),
            _ => self.predict(pc, addr) == Some(value),
        }
    }

    /// Trains the backend with the verified value of a load. Returns
    /// the slots ([`Backend::index`] keys) whose prediction changed —
    /// the caller must invalidate CVU entries certifying them. That is
    /// at most the load's own slot plus, for the hybrid, the context
    /// component's shared level-2 slot.
    #[inline]
    pub fn train(&mut self, pc: u64, addr: u64, value: u64) -> [Option<usize>; 2] {
        match self {
            Backend::LastValue(b) => [b.update(pc, value).then(|| b.index(pc)), None],
            Backend::Stride(b) => [b.train(pc, value).then(|| b.index(pc)), None],
            Backend::Context(b) => [b.train(pc, value), None],
            // Loads do not train the store-to-load table.
            Backend::StoreToLoad(_) => {
                let _ = addr;
                [None, None]
            }
            Backend::Hybrid(b) => b.train(pc, value),
        }
    }

    /// Applies a static predictor hint to this backend. Only the hybrid
    /// arbiter has seedable per-pc state (its selector counters); every
    /// other backend's tables hold *values*, which a static hint cannot
    /// invent, so this is a no-op for them.
    pub fn seed_hint(&mut self, pc: u64, kind: PredictorKind, confidence: u8) {
        if let Backend::Hybrid(b) = self {
            b.seed_hint(pc, kind, confidence);
        }
    }

    /// Observes a dynamic store. Returns a slot index whose prediction
    /// changed (only the store-to-load backend learns from stores).
    #[inline]
    pub fn on_store(&mut self, addr: u64, width: u8, value: u64) -> Option<usize> {
        let _ = width;
        match self {
            Backend::StoreToLoad(b) => b.on_store(addr, value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn kind_names_round_trip() {
        for kind in PredictorKind::ALL {
            assert_eq!(kind.as_str().parse::<PredictorKind>().unwrap(), kind);
        }
        assert!("nonesuch".parse::<PredictorKind>().is_err());
    }

    #[test]
    fn kind_aliases_parse() {
        assert_eq!("lvpt".parse(), Ok(PredictorKind::LastValue));
        assert_eq!("fcm".parse(), Ok(PredictorKind::Context));
        assert_eq!("s2l".parse(), Ok(PredictorKind::StoreToLoad));
    }

    #[test]
    fn backend_new_matches_config_kind() {
        for kind in PredictorKind::ALL {
            let cfg = presets::simple().builder().kind(kind).build();
            assert_eq!(Backend::new(&cfg).kind(), kind);
        }
    }

    #[test]
    fn last_value_backend_is_the_lvpt() {
        let cfg = presets::simple();
        let mut b = Backend::new(&cfg);
        let mut t = Lvpt::new(cfg.lvpt);
        for (i, v) in [3u64, 3, 9, 9, 9, 3].iter().enumerate() {
            let pc = 0x1000 + 4 * (i as u64 % 3);
            assert_eq!(b.index(pc, 0x8000), t.index(pc));
            assert_eq!(b.predict(pc, 0x8000), t.predict(pc));
            assert_eq!(
                b.would_predict_correctly(pc, 0x8000, *v),
                t.would_predict_correctly(pc, *v)
            );
            assert_eq!(b.train(pc, 0x8000, *v)[0].is_some(), t.update(pc, *v));
        }
    }

    #[test]
    fn store_to_load_predicts_only_store_fed_addresses() {
        let cfg = presets::simple()
            .builder()
            .kind(PredictorKind::StoreToLoad)
            .build();
        let mut b = Backend::new(&cfg);
        assert!(!b.would_predict_correctly(0x1000, 0x8000, 42));
        assert_eq!(b.on_store(0x8000, 8, 42), Some(b.index(0, 0x8000)));
        assert!(b.would_predict_correctly(0x1000, 0x8000, 42));
        assert_eq!(
            b.train(0x1000, 0x8000, 42),
            [None, None],
            "loads never retrain the s2l table"
        );
        // A different pc loading the same address still hits.
        assert!(b.would_predict_correctly(0x2000, 0x8000, 42));
    }
}
