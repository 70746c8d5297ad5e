//! Property tests for the timing models and the cache, on a seeded
//! runner over the workspace [`Lcg`]: model-based cache checking and
//! whole-simulator sanity invariants on random traces.
//!
//! A failing case is shrunk (greedy element removal to a fixpoint) and
//! reported with its seed, so the message is directly actionable.
//! `LVP_FUZZ_CASES` scales the number of random cases; the pinned
//! regression case below always runs.

use lvp_trace::rng::Lcg;
use lvp_trace::{BranchEvent, MemAccess, OpKind, PredOutcome, RegRef, Trace, TraceEntry};
use lvp_uarch::{simulate_21164, simulate_620, Alpha21164Config, Cache, CacheConfig, Ppc620Config};
use std::collections::VecDeque;

/// Random cases per property: `LVP_FUZZ_CASES` when set, else `default`.
fn cases(default: u64) -> u64 {
    std::env::var("LVP_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `property` on the case generated from each seed; on failure,
/// greedily removes elements while the property still fails and panics
/// with the seed and the minimal case.
fn check<T: Clone + std::fmt::Debug>(
    name: &str,
    seeds: impl IntoIterator<Item = u64>,
    generate: impl Fn(u64) -> Vec<T>,
    property: impl Fn(&[T]) -> Result<(), String>,
) {
    for seed in seeds {
        let mut case = generate(seed);
        let Err(first) = property(&case) else {
            continue;
        };
        let mut why = first;
        let mut i = 0;
        while i < case.len() {
            let mut smaller = case.clone();
            smaller.remove(i);
            match property(&smaller) {
                Err(e) => {
                    case = smaller;
                    why = e;
                }
                Ok(()) => i += 1,
            }
        }
        panic!(
            "{name}: seed {seed} fails: {why}\nminimal case ({} elements): {case:?}",
            case.len()
        );
    }
}

fn random_seeds(base: u64, default: u64) -> impl Iterator<Item = u64> {
    (0..cases(default)).map(move |i| base + i)
}

/// One cache access: an address and the way count of the cache under
/// test (every element carries it, so shrinking keeps it).
#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    ways: usize,
}

/// The set-associative cache agrees with a straightforward LRU-lists
/// reference model.
#[test]
fn cache_matches_lru_reference() {
    check(
        "cache_matches_lru_reference",
        random_seeds(0xCAC4_E000, 256),
        |seed| {
            let mut r = Lcg::new(seed);
            let ways = r.range(1, 4) as usize;
            let n = r.range(1, 400);
            (0..n)
                .map(|_| Access {
                    addr: r.below(4096),
                    ways,
                })
                .collect()
        },
        |accesses| {
            let Some(&Access { ways, .. }) = accesses.first() else {
                return Ok(());
            };
            let line = 64usize;
            let size = 256 * ways; // 4 sets
            let mut cache = Cache::new(CacheConfig { size, ways, line });
            let n_sets = size / (line * ways);
            let mut sets: Vec<VecDeque<u64>> = vec![VecDeque::new(); n_sets];
            for a in accesses {
                let line_addr = a.addr / line as u64;
                let set = (line_addr as usize) % n_sets;
                let expected_hit = sets[set].contains(&line_addr);
                if cache.access(a.addr) != expected_hit {
                    return Err(format!(
                        "address {:#x}: expected hit = {expected_hit}",
                        a.addr
                    ));
                }
                if let Some(pos) = sets[set].iter().position(|&t| t == line_addr) {
                    sets[set].remove(pos);
                } else if sets[set].len() == ways {
                    sets[set].pop_back();
                }
                sets[set].push_front(line_addr);
            }
            Ok(())
        },
    );
}

/// A generated instruction over a small register/address space.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `Alu(pc, rd, rs)`: simple integer op.
    Alu(u64, u8, u8),
    /// `Mul(pc, rd)`: complex integer op with no sources.
    Mul(u64, u8),
    /// `Load(pc, rd, slot)`: 8-byte load from slot `slot`.
    Load(u64, u8, u64),
    /// `Store(pc, rs, slot)`: 8-byte store to slot `slot`.
    Store(u64, u8, u64),
    /// `Branch(pc, taken)`: conditional branch.
    Branch(u64, bool),
    /// `FpDiv(pc, fd)`: complex FP op.
    FpDiv(u64, u8),
}

use Op::{Alu, Branch, FpDiv, Load, Mul, Store};

impl Op {
    /// Draws one op: weights 4 ALU, 1 multiply, 3 load, 2 store,
    /// 1 branch, 1 FP divide.
    fn random(r: &mut Lcg) -> Op {
        let pc = r.below(64);
        match r.below(12) {
            0..=3 => Alu(pc, r.range(1, 16) as u8, r.range(1, 16) as u8),
            4 => Mul(pc, r.range(1, 16) as u8),
            5..=7 => Load(pc, r.range(1, 16) as u8, r.below(256)),
            8..=9 => Store(pc, r.range(1, 16) as u8, r.below(256)),
            10 => Branch(pc, r.chance(1, 2)),
            _ => FpDiv(pc, r.range(1, 4) as u8),
        }
    }

    fn entry(self) -> TraceEntry {
        let pc = |i: u64| 0x10000 + i * 4;
        let mem = |slot: u64, value: u64| MemAccess {
            addr: 0x10_0000 + slot * 8,
            width: 8,
            value,
            fp: false,
        };
        match self {
            Alu(i, rd, rs) => TraceEntry::op(
                pc(i),
                OpKind::IntSimple,
                Some(RegRef::int(rd)),
                [Some(RegRef::int(rs)), None],
            ),
            Mul(i, rd) => TraceEntry::op(
                pc(i),
                OpKind::IntComplex,
                Some(RegRef::int(rd)),
                [None, None],
            ),
            Load(i, rd, slot) => TraceEntry::mem_op(
                pc(i),
                OpKind::Load,
                Some(RegRef::int(rd)),
                [Some(RegRef::int(2)), None],
                mem(slot, slot),
            ),
            Store(i, rs, slot) => TraceEntry::mem_op(
                pc(i),
                OpKind::Store,
                None,
                [Some(RegRef::int(2)), Some(RegRef::int(rs))],
                mem(slot, 1),
            ),
            Branch(i, taken) => TraceEntry::control(
                pc(i),
                OpKind::CondBranch,
                None,
                [Some(RegRef::int(5)), None],
                BranchEvent {
                    taken,
                    target: 0x10000,
                },
            ),
            FpDiv(i, fd) => TraceEntry::op(
                pc(i),
                OpKind::FpComplex,
                Some(RegRef::fp(fd)),
                [Some(RegRef::fp(0)), None],
            ),
        }
    }
}

/// One trace element: an op and, for loads, its LVP verdict.
type Annotated = (Op, PredOutcome);

/// A random trace of up to 399 ops, each load with a random verdict.
fn random_annotated(seed: u64) -> Vec<Annotated> {
    let mut r = Lcg::new(seed);
    let n = r.below(400);
    (0..n)
        .map(|_| {
            let op = Op::random(&mut r);
            let outcome = *r.pick(&[
                PredOutcome::NotPredicted,
                PredOutcome::Incorrect,
                PredOutcome::Correct,
                PredOutcome::Constant,
            ]);
            (op, outcome)
        })
        .collect()
}

/// The trace and the per-load outcome list of an annotated case.
fn split(case: &[Annotated]) -> (Trace, Vec<PredOutcome>) {
    let trace: Trace = case.iter().map(|(op, _)| op.entry()).collect();
    let outcomes = case
        .iter()
        .filter(|(op, _)| matches!(op, Load(..)))
        .map(|&(_, o)| o)
        .collect();
    (trace, outcomes)
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Both timing models terminate, retire every instruction exactly once,
/// and respect the physical IPC ceiling, for any trace and any
/// annotation.
#[test]
fn models_terminate_and_conserve_instructions() {
    check(
        "models_terminate_and_conserve_instructions",
        random_seeds(0x7E2A_0000, 64),
        random_annotated,
        |case| {
            let (trace, outcomes) = split(case);
            let n = trace.stats().instructions;
            for cfg in [Ppc620Config::base(), Ppc620Config::plus()] {
                let base = simulate_620(&trace, None, &cfg);
                ensure(base.instructions == n, || {
                    format!("{}: retired {}", cfg.name, base.instructions)
                })?;
                ensure(base.cycles >= n / cfg.width as u64, || {
                    format!("{}: {} cycles", cfg.name, base.cycles)
                })?;
                let lvp = simulate_620(&trace, Some(&outcomes), &cfg);
                ensure(lvp.instructions == n, || {
                    format!("{} + LVP: retired {}", cfg.name, lvp.instructions)
                })?;
                ensure(lvp.loads == trace.stats().loads, || {
                    format!("{} + LVP: {} loads", cfg.name, lvp.loads)
                })?;
            }
            let acfg = Alpha21164Config::base();
            let base = simulate_21164(&trace, None, &acfg);
            ensure(base.instructions == n, || {
                format!("21164: retired {}", base.instructions)
            })?;
            ensure(base.cycles >= n / acfg.width as u64, || {
                format!("21164: {} cycles", base.cycles)
            })?;
            let lvp = simulate_21164(&trace, Some(&outcomes), &acfg);
            ensure(lvp.instructions == n, || {
                format!("21164 + LVP: retired {}", lvp.instructions)
            })
        },
    );
}

/// An all-Correct annotation never slows the 620 down by more than the
/// verification slack, and an all-Constant annotation never touches the
/// 620 banks.
fn usable_predictions_never_hurt_much(ops: &[Op]) -> Result<(), String> {
    let trace: Trace = ops.iter().map(|op| op.entry()).collect();
    let loads = trace.stats().loads as usize;
    let cfg = Ppc620Config::base();
    let base = simulate_620(&trace, None, &cfg);
    let correct = vec![PredOutcome::Correct; loads];
    let lvp = simulate_620(&trace, Some(&correct), &cfg);
    // Section 4.1: a correct prediction can still cost structurally —
    // the dependent "may end up occupying [its] reservation station for
    // one cycle longer", and the load itself retires one cycle later
    // (verification lag). Bound: one cycle per load plus slack.
    ensure(lvp.cycles <= base.cycles + loads as u64 + 8, || {
        format!(
            "correct predictions slowed the 620 beyond the verification bound: {} vs {}",
            lvp.cycles, base.cycles
        )
    })?;
    let constant = vec![PredOutcome::Constant; loads];
    let c = simulate_620(&trace, Some(&constant), &cfg);
    ensure(c.l1_accesses == trace.stats().stores, || {
        format!(
            "constants must leave only stores in the banks: {} accesses, {} stores",
            c.l1_accesses,
            trace.stats().stores
        )
    })
}

#[test]
fn usable_predictions_never_hurt_much_on_random_traces() {
    check(
        "usable_predictions_never_hurt_much",
        random_seeds(0x05AB_0000, 64),
        |seed| {
            random_annotated(seed)
                .into_iter()
                .map(|(op, _)| op)
                .collect()
        },
        usable_predictions_never_hurt_much,
    );
}

/// The one case the property suite's earlier proptest runner recorded in
/// its regression file, kept as a fixed regression input.
#[test]
fn usable_predictions_never_hurt_much_on_pinned_trace() {
    usable_predictions_never_hurt_much(PINNED).unwrap();
}

const PINNED: &[Op] = &[
    Load(55, 10, 68),
    Alu(59, 14, 15),
    Alu(7, 4, 14),
    Alu(49, 1, 7),
    Mul(2, 7),
    Load(36, 1, 127),
    Alu(36, 11, 3),
    Load(26, 6, 79),
    Load(57, 10, 93),
    Alu(0, 3, 3),
    Load(31, 4, 18),
    Alu(29, 13, 8),
    Alu(19, 5, 3),
    Alu(52, 15, 8),
    Load(60, 15, 25),
    Load(24, 8, 125),
    Alu(63, 10, 7),
    FpDiv(26, 1),
    Store(47, 15, 36),
    Branch(42, false),
    Alu(1, 14, 10),
    Store(22, 10, 117),
    Store(17, 9, 174),
    Alu(35, 1, 5),
    Alu(15, 8, 4),
    Load(60, 11, 79),
    Store(44, 1, 63),
    Store(54, 1, 210),
    Branch(10, false),
    Load(0, 7, 234),
    Branch(32, false),
    Store(31, 7, 94),
    FpDiv(48, 2),
    Load(44, 12, 144),
    Alu(33, 1, 10),
    Mul(28, 15),
    Alu(60, 15, 10),
    Alu(25, 1, 12),
    Alu(41, 4, 14),
    Load(7, 3, 233),
    Load(33, 15, 219),
    Load(60, 13, 143),
    Mul(0, 8),
    Mul(15, 10),
    Load(6, 6, 90),
    Load(16, 6, 37),
    Load(39, 6, 209),
    Alu(16, 8, 4),
    Load(35, 13, 139),
    Load(47, 8, 108),
    Mul(63, 3),
    Alu(2, 11, 10),
    Alu(47, 8, 5),
    Load(37, 6, 55),
    Mul(51, 1),
    Alu(62, 3, 15),
    Load(1, 3, 211),
    Load(50, 14, 80),
    Load(17, 7, 59),
    FpDiv(52, 2),
    Alu(57, 8, 9),
    Alu(10, 7, 7),
    Store(25, 1, 138),
    Branch(15, false),
    FpDiv(50, 1),
    Load(27, 7, 42),
    Alu(52, 15, 8),
    Store(56, 6, 230),
    Store(4, 8, 149),
    Load(44, 9, 252),
    Alu(5, 3, 12),
    Mul(54, 6),
    FpDiv(37, 2),
    Mul(56, 9),
    Load(37, 3, 242),
    Branch(9, true),
    Alu(20, 9, 13),
    Alu(50, 13, 13),
    Load(24, 14, 254),
    Alu(40, 4, 11),
    Alu(24, 1, 10),
    Alu(47, 1, 1),
    Alu(43, 8, 8),
    Alu(10, 12, 11),
    Load(8, 1, 197),
    Mul(35, 15),
    Store(42, 5, 228),
    Alu(30, 3, 14),
    Store(8, 10, 171),
    Branch(39, true),
    Store(1, 8, 109),
    Load(17, 1, 71),
    FpDiv(11, 3),
    Load(8, 6, 114),
    Load(41, 12, 62),
    Alu(30, 11, 5),
    Mul(46, 8),
    FpDiv(10, 1),
    Load(11, 6, 119),
    Alu(46, 5, 11),
    Alu(39, 1, 1),
    Load(19, 11, 180),
    Branch(7, true),
    Alu(49, 11, 7),
    FpDiv(61, 3),
    Alu(33, 11, 13),
    Branch(6, true),
    Load(10, 13, 6),
    Load(52, 10, 46),
    Store(34, 1, 100),
    Mul(40, 8),
    Branch(40, true),
    Store(10, 14, 92),
    Store(34, 15, 127),
    Store(13, 2, 96),
    Store(52, 8, 27),
    Store(17, 10, 11),
    Store(20, 10, 10),
    Mul(29, 3),
    FpDiv(21, 3),
    Alu(16, 11, 6),
    Load(19, 3, 99),
    Mul(0, 13),
    Store(62, 11, 84),
    Alu(47, 4, 11),
    Branch(48, false),
    Alu(56, 13, 3),
    Branch(16, false),
    Store(20, 4, 103),
    Alu(25, 3, 8),
    Load(57, 5, 4),
    Alu(22, 9, 10),
    Alu(53, 3, 15),
    FpDiv(45, 1),
    Branch(2, false),
    Alu(53, 12, 14),
    Alu(12, 10, 13),
    Load(42, 3, 106),
    Alu(51, 10, 1),
    Branch(46, false),
    Alu(6, 15, 10),
    Alu(21, 2, 14),
    Store(2, 3, 6),
    Store(21, 11, 196),
    Mul(34, 2),
    Alu(17, 12, 10),
    FpDiv(3, 1),
    FpDiv(35, 2),
    Load(9, 3, 253),
    Store(61, 15, 19),
    Alu(35, 8, 1),
    Mul(49, 1),
    Store(10, 1, 39),
    Alu(0, 7, 10),
    Store(15, 5, 214),
    Mul(26, 1),
    Alu(49, 14, 1),
    Alu(57, 13, 8),
    Alu(11, 6, 13),
    Store(40, 15, 217),
    Alu(32, 15, 15),
    Alu(26, 11, 3),
    FpDiv(58, 3),
    Store(28, 9, 94),
    Alu(53, 14, 9),
    Alu(37, 1, 14),
    Branch(5, false),
];
