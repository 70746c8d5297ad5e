//! The complete Load Value Prediction unit (paper Section 3.4, Figure 3).

use crate::config::LvpConfig;
use crate::cvu::Cvu;
use crate::hints::HintTable;
use crate::lct::{Lct, LoadClass};
use crate::predictor::Backend;
use lvp_trace::{PredOutcome, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// One CVU certification destroyed by a store, as recorded by the
/// [`CvuEventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvuInvalidation {
    /// Pc of the offending store (`0` when driven via
    /// [`LvpUnit::on_store`], which has no pc).
    pub store_pc: u64,
    /// The store's data address.
    pub store_addr: u64,
    /// The store's width in bytes.
    pub store_width: u8,
    /// The certified data address the store destroyed.
    pub entry_addr: u64,
    /// The certified access width in bytes.
    pub entry_width: u8,
    /// The LVPT index the entry certified.
    pub lvpt_index: usize,
}

/// A constant-classified load whose issued prediction verified wrong, as
/// recorded by the [`CvuEventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantMispredict {
    /// Pc of the mispredicted load.
    pub load_pc: u64,
    /// The load's data address.
    pub addr: u64,
    /// The actual loaded value (the prediction differed).
    pub value: u64,
}

/// An opt-in event log for the CVU: which stores destroyed which
/// certifications, which constant-classified loads mispredicted, and how
/// often each pc was CVU-verified.
///
/// The static/dynamic cross-check in `lvp-harness` uses this to assert
/// that statically *must-constant* loads are never invalidated and never
/// mispredict. To bound memory on long traces, the log can be restricted
/// to a watch set of `(addr, width)` data intervals; verification counts
/// are aggregated per pc either way.
#[derive(Debug, Clone, Default)]
pub struct CvuEventLog {
    /// Watched `(addr, width)` intervals, sorted by address; `None`
    /// records everything.
    watch: Option<Vec<(u64, u8)>>,
    /// Certifications destroyed by stores, in trace order.
    pub invalidations: Vec<CvuInvalidation>,
    /// Constant-classified loads that verified wrong, in trace order.
    pub constant_mispredicts: Vec<ConstantMispredict>,
    /// Per-pc count of CVU-verified (memory-bypassing) loads.
    pub verifications: BTreeMap<u64, u64>,
}

impl CvuEventLog {
    /// A log recording every event.
    pub fn all() -> CvuEventLog {
        CvuEventLog::default()
    }

    /// A log recording only events that touch one of the given
    /// `(addr, width)` data intervals.
    pub fn watching(mut slots: Vec<(u64, u8)>) -> CvuEventLog {
        slots.sort_unstable();
        slots.dedup();
        CvuEventLog {
            watch: Some(slots),
            ..CvuEventLog::default()
        }
    }

    /// Whether `[addr, addr + width)` intersects the watch set.
    fn watched(&self, addr: u64, width: u8) -> bool {
        let Some(watch) = &self.watch else {
            return true;
        };
        // Intervals are sorted by start and at most 8 bytes wide, so only
        // those starting in `(addr - 8, end)` can overlap.
        let end = addr.saturating_add(width as u64);
        let lo = watch.partition_point(|&(a, _)| a.saturating_add(8) <= addr);
        watch[lo..]
            .iter()
            .take_while(|&&(a, _)| a < end)
            .any(|&(a, w)| a < end && addr < a.saturating_add(w as u64))
    }
}

/// Counters gathered while simulating the LVP unit over a trace; these
/// feed the paper's Tables 3 (LCT hit rates) and 4 (constant
/// identification rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LvpStats {
    /// Total dynamic loads observed.
    pub loads: u64,
    /// Dynamic stores observed.
    pub stores: u64,
    /// Loads whose LVPT value would have verified correct (ground truth
    /// "predictable" in Table 3's sense).
    pub predictable: u64,
    /// Ground-truth predictable loads the LCT classified as predictable
    /// or constant (Table 3 "predictable hits").
    pub predictable_identified: u64,
    /// Ground-truth unpredictable loads the LCT classified as
    /// don't-predict (Table 3 "unpredictable hits").
    pub unpredictable_identified: u64,
    /// Loads for which a prediction was issued (classified predict or
    /// constant).
    pub predictions: u64,
    /// Issued predictions that verified correct (including CVU constants).
    pub correct: u64,
    /// Issued predictions that were wrong.
    pub incorrect: u64,
    /// Loads verified by the CVU, skipping the memory hierarchy
    /// (Table 4: "percentage decrease in required bandwidth to the L1").
    pub constants_verified: u64,
}

impl LvpStats {
    /// Ground-truth unpredictable loads.
    pub fn unpredictable(&self) -> u64 {
        self.loads - self.predictable
    }

    /// Fraction of unpredictable loads the LCT correctly flagged
    /// (Table 3, "unpredictable" columns).
    pub fn unpredictable_hit_rate(&self) -> f64 {
        ratio(self.unpredictable_identified, self.unpredictable())
    }

    /// Fraction of predictable loads the LCT correctly flagged
    /// (Table 3, "predictable" columns).
    pub fn predictable_hit_rate(&self) -> f64 {
        ratio(self.predictable_identified, self.predictable)
    }

    /// Fraction of all dynamic loads verified as constants by the CVU
    /// (Table 4).
    pub fn constant_rate(&self) -> f64 {
        ratio(self.constants_verified, self.loads)
    }

    /// Fraction of issued predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.predictions)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The LVP unit: a value-prediction [`Backend`] (the paper's [`crate::Lvpt`]
/// by default, or any other member of the predictor zoo selected by
/// [`LvpConfig::kind`]), an [`Lct`] to decide which loads to predict, and
/// a [`Cvu`] to verify constant loads without accessing the memory
/// hierarchy.
///
/// Drive it with [`LvpUnit::on_load`] / [`LvpUnit::on_store`] in program
/// order, or annotate a whole trace at once with
/// [`LvpUnit::annotate`]. This is phase 2 of the paper's framework: each
/// load is labelled with one of the four [`PredOutcome`] states that the
/// timing models then charge for.
///
/// # Examples
///
/// ```
/// use lvp_predictor::{presets, LvpUnit};
/// use lvp_trace::PredOutcome;
///
/// let mut unit = LvpUnit::new(presets::simple());
/// let pc = 0x10000;
/// let addr = 0x10_0000;
/// // A load that always sees 7 warms up from not-predicted to constant.
/// let mut last = PredOutcome::NotPredicted;
/// for _ in 0..8 {
///     last = unit.on_load(pc, addr, 8, 7);
/// }
/// assert_eq!(last, PredOutcome::Constant);
/// // A store to the same address forces the next one back to the memory
/// // hierarchy (CVU miss), though the prediction is still correct.
/// unit.on_store(addr, 8, 7);
/// assert_eq!(unit.on_load(pc, addr, 8, 7), PredOutcome::Correct);
/// ```
#[derive(Debug, Clone)]
pub struct LvpUnit {
    config: LvpConfig,
    backend: Backend,
    lct: Lct,
    cvu: Cvu,
    stats: LvpStats,
    events: Option<CvuEventLog>,
    /// Hinted pcs whose first execution has not happened yet: the one
    /// cold verification that would otherwise erase the LCT seed is
    /// treated as neutral for these.
    pending_hints: BTreeSet<u64>,
}

impl LvpUnit {
    /// Creates an LVP unit in its cold state.
    pub fn new(config: LvpConfig) -> LvpUnit {
        LvpUnit {
            backend: Backend::new(&config),
            lct: Lct::new(config.lct),
            cvu: Cvu::new(config.cvu),
            stats: LvpStats::default(),
            events: None,
            pending_hints: BTreeSet::new(),
            config,
        }
    }

    /// Applies a static hint table before simulation: for every hinted
    /// pc, seed the LCT toward (never into) the predicting band, pin the
    /// hybrid arbiter's starting component, and arm the pc so its first
    /// cold verification does not erase the seed. Perfect (oracle)
    /// configurations ignore hints.
    pub fn apply_hints(&mut self, hints: &HintTable) {
        if self.config.perfect {
            return;
        }
        for h in hints.iter() {
            self.lct.seed(h.pc, h.confidence);
            self.backend.seed_hint(h.pc, h.kind, h.confidence);
            self.pending_hints.insert(h.pc);
        }
    }

    /// Attaches a [`CvuEventLog`]; subsequent loads and stores record
    /// their CVU events into it.
    pub fn with_event_log(mut self, log: CvuEventLog) -> LvpUnit {
        self.events = Some(log);
        self
    }

    /// The attached event log, if any.
    pub fn events(&self) -> Option<&CvuEventLog> {
        self.events.as_ref()
    }

    /// Detaches and returns the event log.
    pub fn take_events(&mut self) -> Option<CvuEventLog> {
        self.events.take()
    }

    /// The configuration of this unit.
    pub fn config(&self) -> &LvpConfig {
        &self.config
    }

    /// The value-prediction backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The classification table.
    pub fn lct(&self) -> &Lct {
        &self.lct
    }

    /// The constant verification unit.
    pub fn cvu(&self) -> &Cvu {
        &self.cvu
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &LvpStats {
        &self.stats
    }

    /// Processes one dynamic load: produce the prediction outcome, then
    /// train the tables with the actual value.
    ///
    /// `value` must be the load's *register result* (sign/zero extended,
    /// raw bits for FP), because that is what the LVPT forwards to
    /// dependent instructions.
    pub fn on_load(&mut self, pc: u64, addr: u64, width: u8, value: u64) -> PredOutcome {
        self.stats.loads += 1;
        if self.config.perfect {
            // Oracle: all values predicted correctly, none constant.
            self.stats.predictable += 1;
            self.stats.predictable_identified += 1;
            self.stats.predictions += 1;
            self.stats.correct += 1;
            return PredOutcome::Correct;
        }

        let idx = self.backend.index(pc, addr);
        let would_be_correct = self.backend.would_predict_correctly(pc, addr, value);
        let class = self.lct.classify(pc);

        // Table 3 bookkeeping: how well does the LCT track ground truth?
        if would_be_correct {
            self.stats.predictable += 1;
            if class != LoadClass::DontPredict {
                self.stats.predictable_identified += 1;
            }
        } else if class == LoadClass::DontPredict {
            self.stats.unpredictable_identified += 1;
        }

        let outcome = match class {
            LoadClass::DontPredict => PredOutcome::NotPredicted,
            LoadClass::Predict => {
                self.stats.predictions += 1;
                if would_be_correct {
                    self.stats.correct += 1;
                    PredOutcome::Correct
                } else {
                    self.stats.incorrect += 1;
                    PredOutcome::Incorrect
                }
            }
            LoadClass::Constant => {
                self.stats.predictions += 1;
                if self.cvu.lookup(idx, addr) {
                    // The CVU guarantees coherence: a hit certifies the
                    // LVPT value matches memory.
                    debug_assert!(
                        would_be_correct,
                        "CVU coherence violated: certified value mismatch"
                    );
                    self.stats.correct += 1;
                    self.stats.constants_verified += 1;
                    if let Some(log) = &mut self.events {
                        if log.watched(addr, width) {
                            *log.verifications.entry(pc).or_insert(0) += 1;
                        }
                    }
                    PredOutcome::Constant
                } else if would_be_correct {
                    // Demoted to plain predictable: verified via memory;
                    // certify the (address, index) pair for next time.
                    self.cvu.insert(idx, addr, width);
                    self.stats.correct += 1;
                    PredOutcome::Correct
                } else {
                    self.stats.incorrect += 1;
                    if let Some(log) = &mut self.events {
                        if log.watched(addr, width) {
                            log.constant_mispredicts.push(ConstantMispredict {
                                load_pc: pc,
                                addr,
                                value,
                            });
                        }
                    }
                    PredOutcome::Incorrect
                }
            }
        };

        // Train: the LCT learns from this verification; the backend
        // records the actual value. Any CVU entries certifying a slot
        // whose prediction this displaced are stale. A hinted pc's first-ever (necessarily cold) incorrect
        // verification is neutral, so the static seed survives to its
        // first real chance.
        let first_hinted = !self.pending_hints.is_empty() && self.pending_hints.remove(&pc);
        if would_be_correct || !first_hinted {
            self.lct.update(pc, would_be_correct);
        }
        for slot in self.backend.train(pc, addr, value).into_iter().flatten() {
            self.cvu.invalidate_index(slot);
        }
        outcome
    }

    /// Processes one dynamic store: invalidate all matching CVU entries
    /// (the fully-associative store lookup of the paper's Figure 3) and
    /// feed the store to the backend (only the store-to-load backend
    /// learns from it).
    pub fn on_store(&mut self, addr: u64, width: u8, value: u64) {
        self.on_store_at(0, addr, width, value);
    }

    /// Like [`LvpUnit::on_store`], with the store's pc for event
    /// attribution (used by [`LvpUnit::annotate`] and the cross-check).
    pub fn on_store_at(&mut self, store_pc: u64, addr: u64, width: u8, value: u64) {
        self.stats.stores += 1;
        match &mut self.events {
            Some(log) => {
                for v in self.cvu.invalidate_store_victims(addr, width) {
                    if log.watched(v.addr, v.width) || log.watched(addr, width) {
                        log.invalidations.push(CvuInvalidation {
                            store_pc,
                            store_addr: addr,
                            store_width: width,
                            entry_addr: v.addr,
                            entry_width: v.width,
                            lvpt_index: v.lvpt_index,
                        });
                    }
                }
            }
            None => {
                self.cvu.invalidate_store(addr, width);
            }
        }
        // An aliasing store can change a slot's prediction without its
        // byte range overlapping the certified address; drop any
        // certifications for that slot too.
        if let Some(idx) = self.backend.on_store(addr, width, value) {
            self.cvu.invalidate_index(idx);
        }
    }

    /// Runs the unit over a whole trace in program order, returning one
    /// outcome per dynamic load — the annotated trace the timing models
    /// consume.
    pub fn annotate(&mut self, trace: &Trace) -> Vec<PredOutcome> {
        let mut outcomes = Vec::with_capacity(trace.stats().loads as usize);
        self.run_entries(trace.entries(), &mut outcomes);
        outcomes
    }

    /// Runs the unit over a block of entries in program order, the
    /// batch-dispatch hot path under [`LvpUnit::annotate`]: callers
    /// streaming a trace block-by-block feed each decoded
    /// `&[TraceEntry]` slice here and reuse one outcome vector, so
    /// the per-entry loop never allocates.
    pub fn run_trace(&mut self, entries: &[lvp_trace::TraceEntry]) -> Vec<PredOutcome> {
        let loads = entries.iter().filter(|e| e.is_load()).count();
        let mut outcomes = Vec::with_capacity(loads);
        self.run_entries(entries, &mut outcomes);
        outcomes
    }

    /// Appends one outcome per load in `entries` to `outcomes`.
    pub fn run_entries(
        &mut self,
        entries: &[lvp_trace::TraceEntry],
        outcomes: &mut Vec<PredOutcome>,
    ) {
        for entry in entries {
            if let Some(mem) = entry.mem {
                if entry.is_load() {
                    outcomes.push(self.on_load(entry.pc, mem.addr, mem.width, mem.value));
                } else {
                    self.on_store_at(entry.pc, mem.addr, mem.width, mem.value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use lvp_trace::{MemAccess, OpKind, TraceEntry};

    const PC: u64 = 0x10000;
    const ADDR: u64 = 0x10_0000;

    #[test]
    fn warmup_sequence_simple_config() {
        let mut u = LvpUnit::new(presets::simple());
        // Cold: no history, wrong "prediction", counter stays 0.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        // History now correct; counter walks 0 -> 1 -> 2.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        // Counter 2: predict, verified via memory; counter -> 3.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        // Counter 3: constant; first time misses the CVU (verified via
        // memory, inserted), after that CVU hits.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
        assert_eq!(u.stats().constants_verified, 1);
    }

    #[test]
    fn store_breaks_constant_certification() {
        let mut u = LvpUnit::new(presets::simple());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
        u.on_store(ADDR, 8, 7);
        // CVU entry gone: falls back to memory verification.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        // Certification re-established.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
    }

    #[test]
    fn shared_context_write_revokes_certification() {
        // Two pcs with the same value history share the context
        // backend's level-2 slot. Once `p` is certified constant, `q`
        // rewriting that slot changes `p`'s prediction, so the CVU must
        // drop the certification rather than vouch for the new value.
        let (p, q) = (PC, PC + 4);
        let mut u = LvpUnit::new(
            presets::simple()
                .builder()
                .kind(crate::PredictorKind::Context)
                .build(),
        );
        for _ in 0..16 {
            u.on_load(p, ADDR, 8, 7);
        }
        assert_eq!(u.on_load(p, ADDR, 8, 7), PredOutcome::Constant);
        for _ in 0..4 {
            u.on_load(q, ADDR + 8, 8, 7);
        }
        u.on_load(q, ADDR + 16, 8, 9);
        assert_eq!(u.backend().predict(p, ADDR), Some(9));
        assert_eq!(u.on_load(p, ADDR, 8, 7), PredOutcome::Incorrect);
    }

    #[test]
    fn constant_outcomes_always_match_the_prediction() {
        // A coherent random stream over a few pcs, addresses and values
        // (so contexts and table slots collide often): whatever the
        // backend, a CVU-verified load must carry exactly the value the
        // backend predicted for it.
        for kind in crate::PredictorKind::ALL {
            let mut rng = lvp_trace::rng::Lcg::new(0x5eed ^ kind as u64);
            let mut u = LvpUnit::new(
                presets::simple()
                    .builder()
                    .kind(kind)
                    .lvpt_entries(16)
                    .build(),
            );
            let mut memory = [0u64; 8];
            let mut constants = 0;
            for _ in 0..20_000 {
                let slot = rng.below(8) as usize;
                let addr = ADDR + 8 * slot as u64;
                if rng.chance(1, 16) {
                    memory[slot] = rng.below(3);
                    u.on_store(addr, 8, memory[slot]);
                    continue;
                }
                let pc = PC + 4 * rng.below(6);
                let predicted = u.backend().predict(pc, addr);
                if u.on_load(pc, addr, 8, memory[slot]) == PredOutcome::Constant {
                    assert_eq!(predicted, Some(memory[slot]), "{kind} pc {pc:#x}");
                    constants += 1;
                }
            }
            assert!(constants > 0, "{kind}: stream never certified a constant");
        }
    }

    #[test]
    fn store_changing_value_causes_misprediction() {
        let mut u = LvpUnit::new(presets::simple());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        u.on_store(ADDR, 8, 99);
        // The stored value actually changed: the stale prediction is wrong,
        // and the CVU must NOT have certified it.
        assert_eq!(u.on_load(PC, ADDR, 8, 99), PredOutcome::Incorrect);
    }

    #[test]
    fn alternating_values_stay_unpredicted() {
        let mut u = LvpUnit::new(presets::simple());
        let mut outcomes = Vec::new();
        for i in 0..20 {
            outcomes.push(u.on_load(PC, ADDR, 8, i % 2));
        }
        // With depth-1 history every prediction would be wrong, so the LCT
        // must keep the load at don't-predict after the cold start.
        assert!(
            outcomes[2..]
                .iter()
                .all(|&o| o == PredOutcome::NotPredicted),
            "LCT failed to suppress an unpredictable load: {outcomes:?}"
        );
        assert!(u.stats().unpredictable_hit_rate() > 0.9);
    }

    #[test]
    fn limit_config_catches_alternating_values() {
        let mut u = LvpUnit::new(presets::limit());
        let mut last = PredOutcome::NotPredicted;
        for i in 0..20 {
            last = u.on_load(PC, ADDR, 8, i % 2);
        }
        // Both values live in the 16-deep history and perfect selection
        // picks the right one.
        assert!(
            last.usable(),
            "limit config should predict alternating values"
        );
    }

    #[test]
    fn perfect_config_is_oracle() {
        let mut u = LvpUnit::new(presets::perfect());
        for i in 0..50 {
            assert_eq!(u.on_load(PC, ADDR, 8, i * 1234567), PredOutcome::Correct);
        }
        assert_eq!(u.stats().accuracy(), 1.0);
        assert_eq!(u.stats().constants_verified, 0);
    }

    #[test]
    fn cvu_respects_partial_overlap_stores() {
        let mut u = LvpUnit::new(presets::simple());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        // A byte store into the middle of the certified doubleword.
        u.on_store(ADDR + 3, 1, 0);
        assert_eq!(
            u.on_load(PC, ADDR, 8, 7),
            PredOutcome::Correct,
            "overlapping store must demote the constant to memory-verified"
        );
    }

    #[test]
    fn annotate_matches_manual_stepping() {
        // Loads of a value that a store changes halfway through: the trace
        // stays physically consistent (values only change via stores).
        let mut t = Trace::new();
        let value_at = |i: u64| 7 + (i / 5);
        for i in 0..10u64 {
            if i == 5 {
                let mut s = TraceEntry::simple(PC + 4, OpKind::Store);
                s.mem = Some(MemAccess {
                    addr: ADDR,
                    width: 8,
                    value: value_at(i),
                    fp: false,
                });
                t.push(s);
            }
            let mut e = TraceEntry::simple(PC, OpKind::Load);
            e.mem = Some(MemAccess {
                addr: ADDR,
                width: 8,
                value: value_at(i),
                fp: false,
            });
            t.push(e);
        }
        let mut u1 = LvpUnit::new(presets::simple());
        let annotated = u1.annotate(&t);
        let mut u2 = LvpUnit::new(presets::simple());
        let manual: Vec<_> = (0..10u64)
            .map(|i| {
                if i == 5 {
                    u2.on_store(ADDR, 8, value_at(i));
                }
                u2.on_load(PC, ADDR, 8, value_at(i))
            })
            .collect();
        assert_eq!(annotated, manual);
        assert_eq!(annotated.len(), 10);
    }

    #[test]
    fn stats_count_loads_and_stores() {
        let mut u = LvpUnit::new(presets::simple());
        u.on_load(PC, ADDR, 8, 1);
        u.on_store(ADDR, 8, 1);
        u.on_store(ADDR + 8, 8, 2);
        assert_eq!(u.stats().loads, 1);
        assert_eq!(u.stats().stores, 2);
    }

    #[test]
    fn event_log_records_invalidations_and_verifications() {
        let mut u = LvpUnit::new(presets::simple()).with_event_log(CvuEventLog::all());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
        u.on_store_at(0x20000, ADDR + 4, 4, 0);
        let log = u.events().unwrap();
        assert_eq!(log.invalidations.len(), 1);
        let inv = log.invalidations[0];
        assert_eq!(inv.store_pc, 0x20000);
        assert_eq!(inv.store_addr, ADDR + 4);
        assert_eq!(inv.entry_addr, ADDR);
        assert_eq!(inv.entry_width, 8);
        // Loads 6 and 7 were both CVU-verified.
        assert_eq!(log.verifications.get(&PC), Some(&2));
        // Behavior with the log attached matches the plain unit.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
    }

    #[test]
    fn event_log_records_constant_mispredicts() {
        let mut u = LvpUnit::new(presets::simple()).with_event_log(CvuEventLog::all());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        u.on_store(ADDR, 8, 99);
        assert_eq!(u.on_load(PC, ADDR, 8, 99), PredOutcome::Incorrect);
        let log = u.take_events().unwrap();
        assert_eq!(log.constant_mispredicts.len(), 1);
        assert_eq!(log.constant_mispredicts[0].load_pc, PC);
        assert_eq!(log.constant_mispredicts[0].value, 99);
        assert!(u.events().is_none());
    }

    #[test]
    fn watched_log_filters_unrelated_addresses() {
        let other = ADDR + 0x100;
        let mut u =
            LvpUnit::new(presets::simple()).with_event_log(CvuEventLog::watching(vec![(ADDR, 8)]));
        for _ in 0..7 {
            u.on_load(PC, ADDR, 8, 7);
            u.on_load(PC + 4, other, 8, 9);
        }
        // Both pcs reach Constant/CVU-verified; only the watched one logs.
        u.on_store_at(0x20000, ADDR, 8, 7);
        u.on_store_at(0x20004, other, 8, 9);
        let log = u.events().unwrap();
        assert!(log.verifications.contains_key(&PC));
        assert!(!log.verifications.contains_key(&(PC + 4)));
        assert_eq!(log.invalidations.len(), 1);
        assert_eq!(log.invalidations[0].entry_addr, ADDR);
        // Stats still count every store.
        assert_eq!(u.stats().stores, 2);
    }

    #[test]
    fn watch_interval_overlap_detection() {
        let log = CvuEventLog::watching(vec![(0x1000, 8), (0x1020, 4)]);
        assert!(log.watched(0x1000, 8));
        assert!(log.watched(0x1004, 1), "inside the first interval");
        assert!(log.watched(0xffc, 8), "straddles the interval start");
        assert!(!log.watched(0x1008, 8), "between the intervals");
        assert!(log.watched(0x1022, 2));
        assert!(!log.watched(0x1024, 4), "past the last interval");
    }

    fn hint(pc: u64, kind: crate::PredictorKind, confidence: u8) -> crate::HintTable {
        crate::HintTable::new(vec![crate::StaticHint {
            pc,
            kind,
            confidence,
        }])
    }

    #[test]
    fn hints_shorten_warmup_without_cold_mispredictions() {
        // A constant load under the paper's Simple config: the hinted
        // unit reaches its first correct prediction strictly earlier,
        // and neither unit ever mispredicts.
        let run = |hinted: bool| {
            let mut u = LvpUnit::new(presets::simple());
            if hinted {
                u.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
            }
            let mut first_correct = None;
            for i in 0..8 {
                if u.on_load(PC, ADDR, 8, 7) == PredOutcome::Correct && first_correct.is_none() {
                    first_correct = Some(i);
                }
            }
            assert_eq!(u.stats().incorrect, 0, "hinted={hinted}");
            first_correct.expect("constant load must eventually predict")
        };
        assert!(run(true) < run(false), "hint must shorten warm-up");
    }

    #[test]
    fn hints_never_predict_on_the_first_execution() {
        // Even a full-confidence hint must not issue a prediction from a
        // cold backend: the first outcome stays NotPredicted.
        let mut u = LvpUnit::new(presets::simple());
        u.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        assert_eq!(u.stats().predictions, 0);
    }

    #[test]
    fn hint_seed_survives_the_first_cold_miss() {
        // With the seed armed, the cold first execution is neutral, so
        // the second (first verifiable) execution already promotes; an
        // unhinted unit needs one more.
        let mut hinted = LvpUnit::new(presets::simple());
        hinted.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
        let mut cold = LvpUnit::new(presets::simple());
        hinted.on_load(PC, ADDR, 8, 7);
        cold.on_load(PC, ADDR, 8, 7);
        assert!(hinted.lct().counter(PC) > cold.lct().counter(PC));
        // Only the *first* execution is shielded: later wrong
        // verifications demote the hinted unit like any other.
        hinted.on_load(PC, ADDR, 8, 9);
        hinted.on_load(PC, ADDR, 8, 7);
        assert_eq!(hinted.lct().counter(PC), 0);
    }

    #[test]
    fn perfect_config_ignores_hints() {
        let mut u = LvpUnit::new(presets::perfect());
        u.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        assert_eq!(u.lct().counter(PC), 0, "perfect units skip the tables");
    }
}
