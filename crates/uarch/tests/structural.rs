//! Structural-hazard and resource-limit tests for the 620 model: each
//! test constructs a trace that saturates exactly one resource and
//! checks the expected throughput ceiling.

use lvp_trace::{BranchEvent, MemAccess, OpKind, Trace, TraceEntry};
use lvp_trace::{PredOutcome, RegRef};
use lvp_uarch::{simulate_620, Ppc620Config};

fn alu(pc: u64, dst: u8) -> TraceEntry {
    TraceEntry::op(pc, OpKind::IntSimple, Some(RegRef::int(dst)), [None, None])
}

fn fp(pc: u64, dst: u8, complex: bool) -> TraceEntry {
    TraceEntry::op(
        pc,
        if complex {
            OpKind::FpComplex
        } else {
            OpKind::FpSimple
        },
        Some(RegRef::fp(dst)),
        [None, None],
    )
}

fn mul(pc: u64, dst: u8) -> TraceEntry {
    TraceEntry::op(pc, OpKind::IntComplex, Some(RegRef::int(dst)), [None, None])
}

fn load(pc: u64, dst: u8, addr: u64) -> TraceEntry {
    TraceEntry::mem_op(
        pc,
        OpKind::Load,
        Some(RegRef::int(dst)),
        [Some(RegRef::int(2)), None],
        MemAccess {
            addr,
            width: 8,
            value: 0,
            fp: false,
        },
    )
}

#[test]
fn mcfx_is_unpipelined() {
    // Independent multiplies: the single unpipelined MCFX serializes them
    // at one per `int_complex` latency.
    let trace: Trace = (0..100u64)
        .map(|i| mul(0x10000 + 4 * (i % 8), (10 + i % 4) as u8))
        .collect();
    let cfg = Ppc620Config::base();
    let r = simulate_620(&trace, None, &cfg);
    assert!(
        r.cycles >= 100 * cfg.latency.int_complex,
        "unpipelined MCFX must serialize: {} cycles",
        r.cycles
    );
}

#[test]
fn fpu_pipelines_simple_but_not_complex() {
    let simple: Trace = (0..200u64)
        .map(|i| fp(0x10000 + 4 * (i % 8), (i % 4) as u8, false))
        .collect();
    let complex: Trace = (0..200u64)
        .map(|i| fp(0x10000 + 4 * (i % 8), (i % 4) as u8, true))
        .collect();
    let cfg = Ppc620Config::base();
    let rs = simulate_620(&simple, None, &cfg);
    let rc = simulate_620(&complex, None, &cfg);
    // Pipelined simple FP approaches 1 IPC; unpipelined divides crawl.
    assert!(rs.ipc() > 0.8, "simple FP IPC {:.2}", rs.ipc());
    assert!(
        rc.cycles >= 200 * cfg.latency.fp_complex,
        "complex FP must be unpipelined: {} cycles",
        rc.cycles
    );
}

#[test]
fn single_lsu_binds_load_throughput() {
    // Independent hitting loads: 1 LSU -> at most 1 load per cycle.
    let trace: Trace = (0..500u64)
        .map(|i| {
            load(
                0x10000 + 4 * (i % 8),
                (10 + i % 4) as u8,
                0x10_0000 + (i % 8) * 8,
            )
        })
        .collect();
    let base = simulate_620(&trace, None, &Ppc620Config::base());
    assert!(
        base.cycles >= 500,
        "one load per cycle max: {}",
        base.cycles
    );
    // The 620+ has two LSUs and dispatches two mem ops per cycle.
    let plus = simulate_620(&trace, None, &Ppc620Config::plus());
    assert!(
        plus.cycles < base.cycles,
        "two LSUs must beat one: {} vs {}",
        plus.cycles,
        base.cycles
    );
}

#[test]
fn rename_buffers_throttle_long_latency_shadows() {
    // A divide (16 cycles) followed by many independent ALU writers: the
    // base 620 has 8 GPR renames, so dispatch stalls once they're taken.
    let mut entries = vec![mul(0x10000, 10)];
    for i in 0..24u64 {
        entries.push(alu(0x10010 + 4 * i, (11 + (i % 20)) as u8));
    }
    let trace: Trace = entries.into_iter().collect();
    let narrow = simulate_620(&trace, None, &Ppc620Config::base());
    let wide = simulate_620(&trace, None, &Ppc620Config::plus());
    assert!(
        wide.cycles <= narrow.cycles,
        "doubled rename buffers must not hurt: {} vs {}",
        wide.cycles,
        narrow.cycles
    );
}

#[test]
fn indirect_jumps_pay_btb_misses() {
    // An indirect jump alternating between two targets defeats the BTB.
    let mut alternating = Vec::new();
    let mut stable = Vec::new();
    for i in 0..300u64 {
        let e = |target: u64| {
            TraceEntry::control(
                0x10004,
                OpKind::IndirectJump,
                None,
                [Some(RegRef::int(1)), None],
                BranchEvent {
                    taken: true,
                    target,
                },
            )
        };
        alternating.push(alu(0x10000, 10));
        alternating.push(e(if i % 2 == 0 { 0x20000 } else { 0x30000 }));
        stable.push(alu(0x10000, 10));
        stable.push(e(0x20000));
    }
    let cfg = Ppc620Config::base();
    let ra = simulate_620(&alternating.into_iter().collect(), None, &cfg);
    let rs = simulate_620(&stable.into_iter().collect(), None, &cfg);
    assert!(ra.mispredicts > rs.mispredicts + 200);
    assert!(ra.cycles > rs.cycles);
}

#[test]
fn lvp_collapses_load_to_mul_chains() {
    // load feeds a multiply feeds the next load's address: long serial
    // chain mixing LSU and MCFX, ideal for LVP.
    let mut entries = Vec::new();
    for i in 0..200u64 {
        entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 64));
        entries.push(TraceEntry::op(
            0x10004,
            OpKind::IntComplex,
            Some(RegRef::int(2)),
            [Some(RegRef::int(10)), None],
        ));
    }
    let trace: Trace = entries.into_iter().collect();
    let cfg = Ppc620Config::base();
    let base = simulate_620(&trace, None, &cfg);
    let outcomes = vec![PredOutcome::Correct; trace.stats().loads as usize];
    let lvp = simulate_620(&trace, Some(&outcomes), &cfg);
    // The chain shortens by the load latency per iteration.
    assert!(
        base.cycles.saturating_sub(lvp.cycles) >= 200,
        "expected ≥1 cycle per iteration saved: {} vs {}",
        base.cycles,
        lvp.cycles
    );
}

#[test]
fn store_heavy_code_contends_for_banks() {
    // Loads and stores to the same bank: stores drain from the store
    // queue at completion and collide with issuing loads.
    let mut entries = Vec::new();
    for i in 0..400u64 {
        entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 256)); // bank 0
        entries.push(TraceEntry::mem_op(
            0x10004,
            OpKind::Store,
            None,
            [Some(RegRef::int(2)), Some(RegRef::int(10))],
            MemAccess {
                addr: 0x10_0100 + (i % 4) * 256,
                width: 8,
                value: 0,
                fp: false,
            },
        ));
    }
    let trace: Trace = entries.into_iter().collect();
    let r = simulate_620(&trace, None, &Ppc620Config::base());
    assert!(
        r.bank_conflict_cycles > 0,
        "same-bank load/store traffic must conflict"
    );
}
