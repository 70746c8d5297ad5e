//! Result metrics shared by the timing models — everything needed to
//! regenerate the paper's Figures 6–9 and Table 6.

use lvp_trace::OpKind;
use std::fmt;

/// Histogram of load verification latencies (cycles from dispatch to
/// verification of a correctly-predicted load), bucketed exactly like the
/// paper's Figure 7: `<4, 4, 5, 6, 7, >7`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyLatencyHistogram {
    /// Counts for buckets `<4`, `4`, `5`, `6`, `7`, `>7`.
    pub buckets: [u64; 6],
}

impl VerifyLatencyHistogram {
    /// Bucket labels in order.
    pub const LABELS: [&'static str; 6] = ["<4", "4", "5", "6", "7", ">7"];

    /// Records one verification latency.
    pub fn record(&mut self, cycles: u64) {
        let idx = match cycles {
            0..=3 => 0,
            4 => 1,
            5 => 2,
            6 => 3,
            7 => 4,
            _ => 5,
        };
        self.buckets[idx] += 1;
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Percentage distribution over the buckets (zeros when empty).
    pub fn percentages(&self) -> [f64; 6] {
        let total = self.total();
        if total == 0 {
            return [0.0; 6];
        }
        self.buckets.map(|b| 100.0 * b as f64 / total as f64)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &VerifyLatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
    }
}

/// Per-functional-unit operand-wait accounting for the paper's Figure 8:
/// the time instructions spend in reservation stations waiting for their
/// true dependencies to resolve.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperandWaitStats {
    /// `(total wait cycles, count)` per kind, indexed in [`OpKind::ALL`]
    /// order.
    waits: [(u64, u64); OpKind::ALL.len()],
}

impl OperandWaitStats {
    /// Records that an instruction of `kind` waited `cycles` for its
    /// operands.
    #[inline]
    pub fn record(&mut self, kind: OpKind, cycles: u64) {
        let e = &mut self.waits[kind as usize];
        e.0 += cycles;
        e.1 += 1;
    }

    /// Average wait of one kind, in cycles.
    pub fn average(&self, kind: OpKind) -> f64 {
        self.average_of(&[kind])
    }

    /// Average over a group of kinds (e.g. the 620's two SCFX units).
    pub fn average_of(&self, kinds: &[OpKind]) -> f64 {
        let (mut total, mut count) = (0u64, 0u64);
        for &k in kinds {
            let (t, c) = self.waits[k as usize];
            total += t;
            count += c;
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Merges another accounting into this one.
    pub fn merge(&mut self, other: &OperandWaitStats) {
        for (a, b) in self.waits.iter_mut().zip(other.waits) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// The complete result of one timing simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Retired loads.
    pub loads: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L1 data-cache accesses (constant-verified loads never access it).
    pub l1_accesses: u64,
    /// Accesses that reached L2.
    pub l2_accesses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted conditional branches (plus BTB-missed indirect jumps).
    pub mispredicts: u64,
    /// Loads whose value was predicted usable (correct or constant).
    pub predicted_loads: u64,
    /// Loads annotated as value-mispredicted.
    pub mispredicted_loads: u64,
    /// Loads verified by the CVU (no cache access).
    pub constant_loads: u64,
    /// Distinct cycles with at least one L1 bank conflict (Figure 9).
    pub bank_conflict_cycles: u64,
    /// Verification-latency histogram (Figure 7).
    pub verify_latency: VerifyLatencyHistogram,
    /// Per-FU operand wait accounting (Figure 8).
    pub operand_wait: OperandWaitStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to `baseline` (same instruction
    /// count assumed).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// L1 miss rate per access.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// Fraction of cycles with a bank conflict (Figure 9).
    pub fn bank_conflict_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bank_conflict_cycles as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs in {} cycles (IPC {:.3}), L1 miss {:.2}%, {} bank-conflict cycles",
            self.instructions,
            self.cycles,
            self.ipc(),
            100.0 * self.l1_miss_rate(),
            self.bank_conflict_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = VerifyLatencyHistogram::default();
        for (lat, expect_bucket) in [
            (0u64, 0usize),
            (3, 0),
            (4, 1),
            (5, 2),
            (6, 3),
            (7, 4),
            (8, 5),
            (100, 5),
        ] {
            let before = h.buckets[expect_bucket];
            h.record(lat);
            assert_eq!(h.buckets[expect_bucket], before + 1, "latency {lat}");
        }
        assert_eq!(h.total(), 8);
        let pct = h.percentages();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn operand_wait_averages() {
        let mut w = OperandWaitStats::default();
        w.record(OpKind::Load, 4);
        w.record(OpKind::Load, 6);
        w.record(OpKind::FpSimple, 10);
        assert!((w.average(OpKind::Load) - 5.0).abs() < 1e-12);
        assert!((w.average_of(&[OpKind::Load, OpKind::FpSimple]) - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.average(OpKind::IntComplex), 0.0);
    }

    #[test]
    fn operand_wait_slots_follow_opkind_order() {
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?}");
        }
    }

    #[test]
    fn operand_wait_merge_matches_recording_everything_once() {
        let mut a = OperandWaitStats::default();
        let mut b = OperandWaitStats::default();
        let mut all = OperandWaitStats::default();
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            a.record(k, i as u64);
            all.record(k, i as u64);
            if i % 2 == 0 {
                b.record(k, 3);
                all.record(k, 3);
            }
        }
        assert_ne!(a, all);
        a.merge(&b);
        assert_eq!(a, all);
        assert!((a.average(OpKind::FpSimple) - 2.5).abs() < 1e-12);
        assert_eq!(a.average(OpKind::Store), 5.0);
    }

    #[test]
    fn speedup_and_rates() {
        let base = SimResult {
            cycles: 1000,
            instructions: 800,
            ..SimResult::default()
        };
        let fast = SimResult {
            cycles: 800,
            instructions: 800,
            ..SimResult::default()
        };
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
        assert!((base.ipc() - 0.8).abs() < 1e-12);
    }
}
