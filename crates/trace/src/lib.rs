//! # lvp-trace — trace records shared by all simulation phases
//!
//! The paper's experimental framework has three phases: *trace generation*
//! (TRIP6000/ATOM in the paper, `lvp-sim` here), *LVP unit simulation*
//! (`lvp-predictor`), and *microarchitectural simulation* (`lvp-uarch`).
//! This crate defines the data that flows between them:
//!
//! * [`TraceEntry`] — one retired instruction with its register operands,
//!   memory access, and branch outcome;
//! * [`Trace`] — an owned instruction trace with summary statistics;
//! * [`PredOutcome`] — the per-load annotation produced by the LVP unit
//!   simulation ("no prediction, incorrect prediction, correct prediction,
//!   or constant load" — two bits of state per load, exactly as the paper
//!   passes to its timing models);
//! * [`AnnotatedTrace`] — a trace plus its per-load annotations;
//! * a compact binary serialization ([`write_trace`]/[`read_trace`]) for
//!   storing traces on disk — **LVPT v2**, a block format with per-block
//!   CRC-32 checksums and a declared payload length, plus [`TraceReader`],
//!   a streaming iterator that yields entries without materializing the
//!   whole trace (legacy v1 streams remain readable).

mod crc32;
mod entry;
mod io;
mod reader;
pub mod rng;
mod text;
mod window;

pub use crc32::crc32;
pub use entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
pub use io::{read_trace, write_trace, write_trace_v1, TraceIoError, FORMAT_VERSION};
pub use reader::TraceReader;
pub use text::{dump_text, parse_text, ParseTraceError};
pub use window::{TraceWindow, Windows};

use std::fmt;

/// Per-load prediction outcome annotated onto a trace by the LVP unit
/// simulation (phase 2). The timing models charge a different cost for
/// each variant.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredOutcome {
    /// The LCT said "don't predict" (or the config predicts nothing).
    NotPredicted,
    /// A prediction was made and was wrong: dependents that issued early
    /// must reissue.
    Incorrect,
    /// A prediction was made and verified correct against the memory value.
    Correct,
    /// The load was classified constant and verified by the CVU without
    /// accessing the memory hierarchy.
    Constant,
}

impl PredOutcome {
    /// Whether a prediction was made at all.
    #[inline]
    pub fn predicted(self) -> bool {
        !matches!(self, PredOutcome::NotPredicted)
    }

    /// Whether the predicted value was usable (correct or constant).
    #[inline]
    pub fn usable(self) -> bool {
        matches!(self, PredOutcome::Correct | PredOutcome::Constant)
    }
}

impl fmt::Display for PredOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredOutcome::NotPredicted => "no-prediction",
            PredOutcome::Incorrect => "incorrect",
            PredOutcome::Correct => "correct",
            PredOutcome::Constant => "constant",
        };
        f.write_str(s)
    }
}

/// Summary statistics over a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic loads (integer + FP).
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Unconditional jumps, direct and indirect.
    pub jumps: u64,
    /// FP arithmetic operations (simple + complex).
    pub fp_ops: u64,
}

impl TraceStats {
    /// Accumulates one entry into the statistics.
    #[inline]
    pub fn record(&mut self, entry: &TraceEntry) {
        self.instructions += 1;
        match entry.kind() {
            OpKind::Load => self.loads += 1,
            OpKind::Store => self.stores += 1,
            OpKind::CondBranch => self.cond_branches += 1,
            OpKind::Jump | OpKind::IndirectJump => self.jumps += 1,
            OpKind::FpSimple | OpKind::FpComplex => self.fp_ops += 1,
            _ => {}
        }
    }
}

/// An owned dynamic instruction trace.
///
/// # Examples
///
/// ```
/// use lvp_trace::{Trace, TraceEntry, OpKind};
/// let mut trace = Trace::new();
/// trace.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
/// assert_eq!(trace.stats().instructions, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    stats: TraceStats,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty trace with reserved capacity.
    pub fn with_capacity(n: usize) -> Trace {
        Trace {
            entries: Vec::with_capacity(n),
            stats: TraceStats::default(),
        }
    }

    /// Builds a trace from already-collected entries, computing the
    /// statistics in one pass. Equivalent to pushing every entry in
    /// order, but lets bulk producers (e.g. `lvp-sim`'s fastsim engine)
    /// fill a plain `Vec<TraceEntry>` at memory speed and pay for the
    /// statistics once at the end.
    pub fn from_entries(entries: Vec<TraceEntry>) -> Trace {
        let mut stats = TraceStats::default();
        for e in &entries {
            stats.record(e);
        }
        Trace { entries, stats }
    }

    /// Appends one entry, updating statistics.
    #[inline]
    pub fn push(&mut self, entry: TraceEntry) {
        self.stats.record(&entry);
        self.entries.push(entry);
    }

    /// The recorded entries in program order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Summary statistics.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries.iter()
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Trace {
        let mut t = Trace::new();
        for e in iter {
            t.push(e);
        }
        t
    }
}

impl Extend<TraceEntry> for Trace {
    fn extend<I: IntoIterator<Item = TraceEntry>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// A trace paired with the per-load prediction outcomes produced by an LVP
/// unit simulation. `outcomes[i]` annotates the `i`-th dynamic load of the
/// trace.
#[derive(Debug, Clone)]
pub struct AnnotatedTrace<'a> {
    trace: &'a Trace,
    outcomes: Vec<PredOutcome>,
}

impl<'a> AnnotatedTrace<'a> {
    /// Pairs a trace with its per-load outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len()` does not equal the trace's load count.
    pub fn new(trace: &'a Trace, outcomes: Vec<PredOutcome>) -> AnnotatedTrace<'a> {
        assert_eq!(
            outcomes.len() as u64,
            trace.stats().loads,
            "annotation count must match the trace's dynamic load count"
        );
        AnnotatedTrace { trace, outcomes }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        self.trace
    }

    /// Outcome of the `i`-th dynamic load.
    pub fn outcome(&self, load_index: usize) -> PredOutcome {
        self.outcomes[load_index]
    }

    /// All per-load outcomes in dynamic order.
    pub fn outcomes(&self) -> &[PredOutcome] {
        &self.outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_entry(pc: u64) -> TraceEntry {
        TraceEntry::mem_op(
            pc,
            OpKind::Load,
            None,
            [None, None],
            MemAccess {
                addr: 0x10_0000,
                width: 8,
                value: 5,
                fp: false,
            },
        )
    }

    #[test]
    fn stats_accumulate() {
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
        t.push(load_entry(0x10004));
        t.push(TraceEntry::simple(0x10008, OpKind::Store));
        t.push(TraceEntry::simple(0x1000c, OpKind::CondBranch));
        t.push(TraceEntry::simple(0x10010, OpKind::FpComplex));
        let s = t.stats();
        assert_eq!(s.instructions, 5);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.cond_branches, 1);
        assert_eq!(s.fp_ops, 1);
    }

    #[test]
    fn annotated_trace_checks_length() {
        let mut t = Trace::new();
        t.push(load_entry(0x10000));
        let a = AnnotatedTrace::new(&t, vec![PredOutcome::Correct]);
        assert_eq!(a.outcome(0), PredOutcome::Correct);
    }

    #[test]
    #[should_panic(expected = "annotation count")]
    fn annotated_trace_rejects_mismatch() {
        let t = Trace::new();
        let _ = AnnotatedTrace::new(&t, vec![PredOutcome::Correct]);
    }

    #[test]
    fn outcome_predicates() {
        assert!(!PredOutcome::NotPredicted.predicted());
        assert!(PredOutcome::Incorrect.predicted());
        assert!(!PredOutcome::Incorrect.usable());
        assert!(PredOutcome::Correct.usable());
        assert!(PredOutcome::Constant.usable());
    }

    #[test]
    fn from_entries_matches_push() {
        let entries = vec![
            TraceEntry::simple(0x10000, OpKind::IntSimple),
            load_entry(0x10004),
            TraceEntry::simple(0x10008, OpKind::Store),
            TraceEntry::simple(0x1000c, OpKind::Jump),
        ];
        let mut pushed = Trace::new();
        for e in &entries {
            pushed.push(*e);
        }
        let bulk = Trace::from_entries(entries);
        assert_eq!(bulk.entries(), pushed.entries());
        assert_eq!(bulk.stats(), pushed.stats());
    }

    #[test]
    fn trace_from_iterator() {
        let t: Trace = (0..10)
            .map(|i| TraceEntry::simple(0x10000 + 4 * i, OpKind::IntSimple))
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.stats().instructions, 10);
    }
}
