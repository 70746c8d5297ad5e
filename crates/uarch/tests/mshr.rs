//! MSHR (non-blocking cache) behavior of the 620 model.

use lvp_trace::{MemAccess, OpKind, RegRef, Trace, TraceEntry};
use lvp_uarch::{simulate_620, Ppc620Config};

fn missing_load(pc: u64, dst: u8, i: u64) -> TraceEntry {
    // Every load misses: stride far beyond the L1.
    let access = MemAccess {
        addr: 0x10_0000 + i * 8192,
        width: 8,
        value: 0,
        fp: false,
    };
    TraceEntry::mem_op(
        pc,
        OpKind::Load,
        Some(RegRef::int(dst)),
        [Some(RegRef::int(2)), None],
        access,
    )
}

#[test]
fn more_mshrs_overlap_more_misses() {
    // Independent missing loads: with 1 MSHR the misses serialize, with 8
    // they overlap up to the completion-buffer depth.
    let trace: Trace = (0..300u64)
        .map(|i| missing_load(0x10000 + 4 * (i % 8), (10 + i % 4) as u8, i))
        .collect();
    let one = Ppc620Config {
        mshrs: 1,
        ..Ppc620Config::base()
    };
    let many = Ppc620Config {
        mshrs: 8,
        ..Ppc620Config::base()
    };
    let r1 = simulate_620(&trace, None, &one);
    let r8 = simulate_620(&trace, None, &many);
    assert_eq!(r1.instructions, r8.instructions);
    assert!(
        r8.cycles * 2 < r1.cycles,
        "8 MSHRs should overlap misses at least 2x better: {} vs {}",
        r8.cycles,
        r1.cycles
    );
    // A single blocking-ish MSHR serializes: >= miss latency per load.
    assert!(
        r1.cycles >= 300 * 40,
        "one MSHR must serialize memory latency"
    );
}

#[test]
fn hits_are_unaffected_by_mshr_count() {
    let trace: Trace = (0..300u64)
        .map(|i| missing_load(0x10000 + 4 * (i % 8), (10 + i % 4) as u8, i % 2))
        .collect();
    let one = Ppc620Config {
        mshrs: 1,
        ..Ppc620Config::base()
    };
    let many = Ppc620Config {
        mshrs: 8,
        ..Ppc620Config::base()
    };
    let r1 = simulate_620(&trace, None, &one);
    let r8 = simulate_620(&trace, None, &many);
    // Two lines: everything hits after the cold misses, so the MSHR count
    // only affects whether the two cold misses overlap (≤ one memory
    // round-trip of difference), not the steady-state hit traffic.
    assert!(r1.l1_misses <= 2);
    assert!(
        r1.cycles - r8.cycles <= 50,
        "hit traffic must not depend on MSHRs beyond the cold misses: {} vs {}",
        r1.cycles,
        r8.cycles
    );
}

#[test]
fn constant_loads_do_not_consume_mshrs() {
    use lvp_trace::PredOutcome;
    let trace: Trace = (0..200u64).map(|i| missing_load(0x10000, 10, i)).collect();
    let cfg = Ppc620Config {
        mshrs: 1,
        ..Ppc620Config::base()
    };
    let base = simulate_620(&trace, None, &cfg);
    let consts = vec![PredOutcome::Constant; 200];
    let lvp = simulate_620(&trace, Some(&consts), &cfg);
    assert_eq!(lvp.l1_misses, 0);
    assert!(
        lvp.cycles * 10 < base.cycles,
        "CVU-verified constants bypass the miss path entirely: {} vs {}",
        lvp.cycles,
        base.cycles
    );
}
