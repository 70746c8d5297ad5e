//! Trace-driven cycle model of an Alpha 21164-class in-order core (paper
//! Section 4.2, Figure 5).
//!
//! The 21164 is the paper's "speed demon": 4-wide strictly in-order issue
//! (two integer pipes that also slot loads/stores and branches, two FP
//! pipes), a small direct-mapped write-through L1, and — following the
//! paper's model — **no miss address file**: an L1 data-cache miss blocks
//! all further issue until the fill returns, in both the baseline and the
//! LVP configurations.
//!
//! LVP interaction (Section 4.2):
//!
//! * a predicted load is a *zero-cycle load*: consumers may issue in the
//!   same group instead of waiting the 2-cycle load-use latency;
//! * prediction is dropped for loads that miss L1 (the pipeline cannot
//!   stall past dispatch), with no penalty — **except** CVU-verified
//!   constants, which proceed despite the miss and skip the cache
//!   entirely (the CVU's main benefit on this machine);
//! * a value misprediction squashes all in-flight instructions, which
//!   redispatch from the reissue buffer one cycle after the comparison
//!   stage.

use crate::branch::BranchPredictor;
use crate::cache::{CacheConfig, MemHierarchy, MemLatency};
use crate::latency::LatencyTable;
use crate::metrics::SimResult;
use lvp_trace::{OpKind, PredOutcome, Trace};

/// Configuration of the 21164-class model.
#[derive(Debug, Clone)]
pub struct Alpha21164Config {
    /// Display name.
    pub name: &'static str,
    /// Issue width (4 on the 21164).
    pub width: usize,
    /// Integer-pipe slots per cycle (E0/E1; loads, stores and branches
    /// also use these).
    pub int_slots: usize,
    /// FP-pipe slots per cycle.
    pub fp_slots: usize,
    /// Data-cache ports (the 21164 L1 is dual-ported).
    pub mem_slots: usize,
    /// Instruction latencies.
    pub latency: LatencyTable,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// On-chip L2 geometry.
    pub l2: CacheConfig,
    /// Miss latencies.
    pub mem_latency: MemLatency,
}

impl Alpha21164Config {
    /// The paper's 21164 model: 4-wide, dual integer and FP pipes,
    /// dual-ported 8 KB direct-mapped L1, 96 KB on-chip L2, no MAF.
    pub fn base() -> Alpha21164Config {
        Alpha21164Config {
            name: "21164",
            width: 4,
            int_slots: 2,
            fp_slots: 2,
            mem_slots: 2,
            latency: LatencyTable::alpha21164(),
            l1: CacheConfig::alpha_l1d(),
            l2: CacheConfig::alpha_l2(),
            mem_latency: MemLatency::alpha21164(),
        }
    }
}

impl Default for Alpha21164Config {
    fn default() -> Alpha21164Config {
        Alpha21164Config::base()
    }
}

/// Runs the 21164-class model over a trace.
///
/// `outcomes` carries one [`PredOutcome`] per dynamic load (under any
/// `lvp_predictor::PredictorKind` — the model reads only the verdicts,
/// never the predictor's tables); pass `None`
/// for the no-LVP baseline.
///
/// # Panics
///
/// Panics if `outcomes` is `Some` but shorter than the trace's load count.
pub fn simulate_21164(
    trace: &Trace,
    outcomes: Option<&[PredOutcome]>,
    config: &Alpha21164Config,
) -> SimResult {
    let mut result = SimResult::default();
    let mut bp = BranchPredictor::new(2048, 256);
    let mut mem = MemHierarchy::new(config.l1, config.l2, config.mem_latency);

    // Cycle each architectural register's value becomes available.
    let mut reg_ready = [0u64; 64];
    // Current issue-group cycle and its slot usage.
    let mut t: u64 = 0;
    let (mut used_total, mut used_int, mut used_fp, mut used_mem) =
        (0usize, 0usize, 0usize, 0usize);
    // No instruction may issue before this cycle (miss stalls, squashes,
    // branch redirects).
    let mut stall_until: u64 = 0;
    // Unpipelined units.
    let mut imul_busy: u64 = 0;
    let mut fdiv_busy: u64 = 0;
    // Latest finish, for the drain at the end.
    let mut last_finish: u64 = 0;
    let mut last_issue: u64 = 0;

    let mut load_index = 0usize;

    for e in trace.iter() {
        // Operand readiness.
        let mut ready: u64 = 0;
        for src in e.sources() {
            ready = ready.max(reg_ready[src.flat_index()]);
        }
        let mut earliest = ready.max(stall_until);
        match e.kind() {
            OpKind::IntComplex => earliest = earliest.max(imul_busy),
            OpKind::FpComplex => earliest = earliest.max(fdiv_busy),
            _ => {}
        }

        // Advance to a cycle with a free slot of the right kind.
        loop {
            if earliest > t {
                t = earliest;
                used_total = 0;
                used_int = 0;
                used_fp = 0;
                used_mem = 0;
            }
            let (need_int, need_fp, need_mem) = match e.kind() {
                OpKind::FpSimple | OpKind::FpComplex => (0usize, 1usize, 0usize),
                OpKind::Load | OpKind::Store => (1, 0, 1),
                _ => (1, 0, 0),
            };
            if used_total < config.width
                && used_int + need_int <= config.int_slots
                && used_fp + need_fp <= config.fp_slots
                && used_mem + need_mem <= config.mem_slots
            {
                used_total += 1;
                used_int += need_int;
                used_fp += need_fp;
                used_mem += need_mem;
                break;
            }
            earliest = t + 1;
        }

        // Execute, in trace order: issue cycles never go backwards.
        debug_assert!(t >= last_issue, "out-of-order issue on an in-order core");
        last_issue = t;
        result.instructions += 1;
        let mut finish = t + config.latency.result_latency(e.kind());
        match e.kind() {
            OpKind::Load => {
                result.loads += 1;
                let m = e.mem().expect("load entry must carry a memory access");
                let pred = outcomes.map(|o| {
                    let p = o[load_index];
                    load_index += 1;
                    p
                });
                let would_hit = mem.probe_l1(m.addr);
                match pred {
                    Some(PredOutcome::Constant) => {
                        // CVU-verified: no cache access at all; proceeds
                        // even where it would have missed.
                        result.constant_loads += 1;
                        result.predicted_loads += 1;
                        finish = t; // zero-cycle load
                        result.verify_latency.record(2);
                    }
                    Some(PredOutcome::Correct) if would_hit => {
                        result.predicted_loads += 1;
                        result.l1_accesses += 1;
                        mem.access(m.addr);
                        finish = t; // zero-cycle load, verified at t+3
                        result.verify_latency.record(3);
                    }
                    Some(PredOutcome::Incorrect) if would_hit => {
                        // Verified wrong at t + load + 1 (the compare stage
                        // added before writeback); everything in flight
                        // squashes and redispatches from the reissue
                        // buffer, overlapping the redispatch with the
                        // compare — a single-cycle penalty relative to not
                        // predicting (Section 4.2).
                        result.mispredicted_loads += 1;
                        result.l1_accesses += 1;
                        mem.access(m.addr);
                        let verify = t + config.latency.load + 1;
                        finish = verify;
                        stall_until = stall_until.max(verify);
                    }
                    _ => {
                        // Not predicted, or prediction dropped because the
                        // load misses L1 (no penalty).
                        result.l1_accesses += 1;
                        let extra = mem.access(m.addr);
                        if extra > 0 {
                            result.l1_misses += 1;
                            // No MAF: the miss blocks all further issue.
                            finish = t + config.latency.load + extra;
                            stall_until = stall_until.max(finish);
                        }
                    }
                }
            }
            OpKind::Store => {
                let m = e.mem().expect("store entry must carry a memory access");
                result.l1_accesses += 1;
                let extra = mem.access(m.addr);
                if extra > 0 {
                    result.l1_misses += 1;
                }
                // Write buffer absorbs store misses.
                finish = t + 1;
            }
            OpKind::CondBranch => {
                result.branches += 1;
                let ev = e.branch().expect("branch entry must carry outcome");
                let predicted = bp.predict_taken(e.pc());
                bp.update_taken(e.pc(), ev.taken);
                if predicted != ev.taken {
                    result.mispredicts += 1;
                    stall_until = stall_until.max(t + 1 + config.latency.mispredict_penalty);
                }
            }
            OpKind::IndirectJump => {
                let ev = e.branch().expect("jump entry must carry target");
                let hit = bp.predict_target(e.pc()) == Some(ev.target);
                bp.update_target(e.pc(), ev.target);
                if !hit {
                    result.mispredicts += 1;
                    stall_until = stall_until.max(t + 1 + config.latency.mispredict_penalty);
                }
            }
            OpKind::IntComplex => {
                imul_busy = finish;
            }
            OpKind::FpComplex => {
                fdiv_busy = finish;
            }
            _ => {}
        }

        if let Some(d) = e.dst() {
            reg_ready[d.flat_index()] = finish;
        }
        last_finish = last_finish.max(finish);
    }

    result.cycles = last_finish.max(t) + 1;
    result.l2_accesses = mem.l2_accesses();
    // Issue is in trace order, one group per cycle of at most `width`.
    debug_assert_eq!(result.instructions, trace.len() as u64);
    debug_assert!(result.cycles * config.width as u64 >= result.instructions);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::{MemAccess, RegRef, TraceEntry};

    fn alu(dst: u8, src: Option<u8>) -> TraceEntry {
        TraceEntry::op(
            0x10000,
            OpKind::IntSimple,
            Some(RegRef::int(dst)),
            [src.map(RegRef::int), None],
        )
    }

    fn load(dst: u8, addr: u64) -> TraceEntry {
        TraceEntry::mem_op(
            0x10010,
            OpKind::Load,
            Some(RegRef::int(dst)),
            [Some(RegRef::int(2)), None],
            MemAccess {
                addr,
                width: 8,
                value: 1,
                fp: false,
            },
        )
    }

    #[test]
    fn dual_issue_of_independent_ints() {
        let trace: Trace = (0..1000).map(|i| alu((i % 8) as u8 + 10, None)).collect();
        let r = simulate_21164(&trace, None, &Alpha21164Config::base());
        // Two integer pipes: 2 IPC ceiling.
        assert!(r.ipc() > 1.8, "IPC {:.2}", r.ipc());
        assert!(r.ipc() <= 2.05);
    }

    #[test]
    fn serial_chain_is_one_ipc() {
        let trace: Trace = (0..1000).map(|_| alu(10, Some(10))).collect();
        let r = simulate_21164(&trace, None, &Alpha21164Config::base());
        assert!(r.ipc() < 1.05, "IPC {:.2}", r.ipc());
    }

    #[test]
    fn blocking_miss_stalls_everything() {
        // Strided misses with independent ALU work behind them: the
        // missing MAF forbids overlap, so the ALU work cannot hide misses.
        let mut entries = Vec::new();
        for i in 0..500u64 {
            entries.push(load(10, 0x10_0000 + i * 4096));
            entries.push(alu(11, None)); // independent!
        }
        let trace: Trace = entries.into_iter().collect();
        let r = simulate_21164(&trace, None, &Alpha21164Config::base());
        // Every load misses to memory (~46+ cycles each).
        assert!(r.l1_misses >= 499, "misses {}", r.l1_misses);
        assert!(
            r.cycles > 500 * 40,
            "blocking misses must dominate: {} cycles",
            r.cycles
        );
    }

    #[test]
    fn lvp_gives_zero_cycle_loads() {
        let mut entries = Vec::new();
        for i in 0..1000u64 {
            entries.push(load(10, 0x10_0000 + (i % 4) * 8));
            entries.push(alu(11, Some(10)));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_21164(&trace, None, &Alpha21164Config::base());
        let correct = vec![PredOutcome::Correct; trace.stats().loads as usize];
        let lvp = simulate_21164(&trace, Some(&correct), &Alpha21164Config::base());
        assert!(
            lvp.cycles < base.cycles,
            "zero-cycle loads must help: {} vs {}",
            lvp.cycles,
            base.cycles
        );
    }

    #[test]
    fn constants_bypass_blocking_misses() {
        // All loads would miss; constants never touch the cache, so the
        // LVP run avoids every blocking stall.
        let trace: Trace = (0..500u64)
            .map(|i| load(10, 0x10_0000 + i * 4096))
            .collect();
        let base = simulate_21164(&trace, None, &Alpha21164Config::base());
        let consts = vec![PredOutcome::Constant; 500];
        let lvp = simulate_21164(&trace, Some(&consts), &Alpha21164Config::base());
        assert_eq!(lvp.l1_accesses, 0);
        assert!(
            lvp.speedup_over(&base) > 5.0,
            "speedup {:.2}",
            lvp.speedup_over(&base)
        );
    }

    #[test]
    fn prediction_dropped_on_miss_without_penalty() {
        // Loads that always miss, annotated Correct: behaves exactly like
        // the unannotated baseline (prediction dropped, no penalty).
        let trace: Trace = (0..300u64)
            .map(|i| load(10, 0x10_0000 + i * 4096))
            .collect();
        let base = simulate_21164(&trace, None, &Alpha21164Config::base());
        let correct = vec![PredOutcome::Correct; 300];
        let lvp = simulate_21164(&trace, Some(&correct), &Alpha21164Config::base());
        assert_eq!(lvp.cycles, base.cycles);
    }

    #[test]
    fn value_mispredictions_squash_in_flight() {
        let mut entries = Vec::new();
        for i in 0..500u64 {
            entries.push(load(10, 0x10_0000 + (i % 4) * 8));
            entries.push(alu(11, None));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_21164(&trace, None, &Alpha21164Config::base());
        let wrong = vec![PredOutcome::Incorrect; trace.stats().loads as usize];
        let lvp = simulate_21164(&trace, Some(&wrong), &Alpha21164Config::base());
        assert!(lvp.cycles > base.cycles, "squashes must cost cycles");
        // The first load misses the cold L1, so its prediction is dropped.
        assert_eq!(lvp.mispredicted_loads, 499);
    }

    #[test]
    fn fp_pipes_are_separate() {
        // 2 int + 2 fp per cycle -> 4-wide mixed code can reach close to 4.
        let mut entries = Vec::new();
        for i in 0..1000u64 {
            entries.push(alu((i % 4) as u8 + 10, None));
            entries.push(TraceEntry::op(
                0x10020,
                OpKind::FpSimple,
                Some(RegRef::fp((i % 4) as u8)),
                [None, None],
            ));
        }
        let trace: Trace = entries.into_iter().collect();
        let r = simulate_21164(&trace, None, &Alpha21164Config::base());
        assert!(r.ipc() > 3.0, "IPC {:.2}", r.ipc());
    }
}
