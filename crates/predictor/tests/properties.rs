//! Property tests for the predictor structures, checked against simple
//! reference models, on a seeded runner over the workspace [`Lcg`].
//!
//! A failing case is shrunk (greedy element removal to a fixpoint) and
//! reported with its seed, so the message is directly actionable.
//! `LVP_FUZZ_CASES` scales the number of random cases; the pinned
//! regression case below always runs.

use lvp_predictor::{presets, Cvu, CvuConfig, Lct, LctConfig, LvpUnit, Lvpt, LvptConfig};
use lvp_trace::rng::Lcg;
use lvp_trace::{MemAccess, OpKind, RegRef, Trace, TraceEntry};
use std::collections::HashMap;

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

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Operations of a randomized LVP workload over a small address space —
/// physically consistent: values only change through stores.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load { pc: u64, addr: u64 },
    Store { addr: u64, value: u64 },
}
use Op::{Load, Store};

/// 1–299 ops, three loads (32 pcs × 16 slots) to every store.
fn random_ops(seed: u64) -> Vec<Op> {
    let mut r = Lcg::new(seed);
    let n = r.range(1, 300);
    (0..n)
        .map(|_| {
            if r.chance(3, 4) {
                Load {
                    pc: 0x10000 + r.below(32) * 4,
                    addr: 0x10_0000 + r.below(16) * 8,
                }
            } else {
                Store {
                    addr: 0x10_0000 + r.below(16) * 8,
                    value: r.next_full(),
                }
            }
        })
        .collect()
}

/// The ops as a trace: each load carries the value memory holds at its
/// address (0 until a store writes it).
fn trace_of(ops: &[Op]) -> Trace {
    let mut memory: HashMap<u64, u64> = HashMap::new();
    ops.iter()
        .enumerate()
        .map(|(i, op)| match *op {
            Load { pc, addr } => {
                let access = MemAccess {
                    addr,
                    width: 8,
                    value: *memory.entry(addr).or_insert(0),
                    fp: false,
                };
                let dst = Some(RegRef::int(10));
                TraceEntry::mem_op(pc, OpKind::Load, dst, [Some(RegRef::int(2)), None], access)
            }
            Store { addr, value } => {
                memory.insert(addr, value);
                let access = MemAccess {
                    addr,
                    width: 8,
                    value,
                    fp: false,
                };
                let srcs = [Some(RegRef::int(2)), Some(RegRef::int(11))];
                TraceEntry::mem_op(0x20000 + 4 * i as u64, OpKind::Store, None, srcs, access)
            }
        })
        .collect()
}

/// The LVP unit never violates CVU coherence (the debug_assert in
/// on_load) and its statistics stay consistent, for any physically
/// consistent load/store interleaving.
fn unit_statistics(ops: &[Op]) -> Result<(), String> {
    let trace = trace_of(ops);
    for config in [presets::simple(), presets::constant(), presets::limit()] {
        let mut unit = LvpUnit::new(config);
        let _ = unit.annotate(&trace);
        let s = *unit.stats();
        ensure(s.correct + s.incorrect == s.predictions, || {
            format!("correct + incorrect != predictions: {s:?}")
        })?;
        ensure(s.predictions <= s.loads, || {
            format!("predictions > loads: {s:?}")
        })?;
        ensure(s.predictable <= s.loads, || {
            format!("predictable > loads: {s:?}")
        })?;
        ensure(s.predictable_identified <= s.predictable, || {
            format!("predictable_identified > predictable: {s:?}")
        })?;
        ensure(s.unpredictable_identified <= s.unpredictable(), || {
            format!("unpredictable_identified > unpredictable: {s:?}")
        })?;
        ensure(s.constants_verified <= s.correct, || {
            format!("constants_verified > correct: {s:?}")
        })?;
    }
    Ok(())
}

#[test]
fn unit_statistics_are_consistent() {
    check(
        "unit_statistics_are_consistent",
        random_seeds(0x57A7_0000, 128),
        random_ops,
        unit_statistics,
    );
}

/// One LVPT update; every element carries the history depth under test,
/// so shrinking keeps it.
#[derive(Debug, Clone, Copy)]
struct Update {
    value: u64,
    depth: usize,
}

/// LVPT history equals a reference LRU-of-unique-values model.
#[test]
fn lvpt_matches_lru_reference() {
    check(
        "lvpt_matches_lru_reference",
        random_seeds(0x1F97_0000, 256),
        |seed| {
            let mut r = Lcg::new(seed);
            let depth = r.range(1, 6) as usize;
            let n = r.range(1, 100);
            (0..n)
                .map(|_| Update {
                    value: r.below(8),
                    depth,
                })
                .collect()
        },
        |updates| {
            let Some(depth) = updates.first().map(|u| u.depth) else {
                return Ok(());
            };
            let mut lvpt = Lvpt::new(LvptConfig {
                entries: 16,
                history_depth: depth,
                perfect_selection: true,
            });
            let mut reference: Vec<u64> = Vec::new();
            let pc = 0x10000;
            for &Update { value, .. } in updates {
                lvpt.update(pc, value);
                if let Some(pos) = reference.iter().position(|&x| x == value) {
                    reference.remove(pos);
                }
                reference.insert(0, value);
                reference.truncate(depth);
                ensure(lvpt.history(pc) == reference.as_slice(), || {
                    format!("history {:?} != reference {reference:?}", lvpt.history(pc))
                })?;
            }
            Ok(())
        },
    );
}

/// One LCT update; every element carries the counter width under test.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    correct: bool,
    bits: u8,
}

/// LCT counters stay within their bit width.
#[test]
fn lct_counter_bounds() {
    check(
        "lct_counter_bounds",
        random_seeds(0x1C7B_0000, 256),
        |seed| {
            let mut r = Lcg::new(seed);
            let bits = r.range(1, 5) as u8;
            let n = r.range(1, 200);
            (0..n)
                .map(|_| Verdict {
                    correct: r.chance(1, 2),
                    bits,
                })
                .collect()
        },
        |verdicts| {
            let Some(bits) = verdicts.first().map(|v| v.bits) else {
                return Ok(());
            };
            let mut lct = Lct::new(LctConfig {
                entries: 8,
                counter_bits: bits,
            });
            let pc = 0x10000;
            let max = (1u16 << bits) - 1;
            for v in verdicts {
                lct.update(pc, v.correct);
                ensure(u16::from(lct.counter(pc)) <= max, || {
                    format!("{bits}-bit counter reached {}", lct.counter(pc))
                })?;
            }
            Ok(())
        },
    );
}

/// CVU: after a store to an address, no lookup for an overlapping
/// range can hit until reinserted (checked against a reference set).
/// The space is kept to 8 PCs x 8 addresses = 64 pairs, matching the
/// CVU capacity, so eviction never fires and the set model is exact.
fn cvu_reference_set(ops: &[Op]) -> Result<(), String> {
    let mut cvu = Cvu::new(CvuConfig { entries: 64 });
    let mut reference: HashMap<(usize, u64), bool> = HashMap::new();
    for op in ops {
        match *op {
            Load { pc, addr } => {
                let idx = (pc as usize >> 2) % 8;
                let addr = 0x10_0000 + (addr % 64) / 8 * 8;
                let hit = cvu.lookup(idx, addr);
                let expected = reference.get(&(idx, addr)).copied().unwrap_or(false);
                ensure(hit == expected, || {
                    format!("CVU/reference divergence at ({idx}, {addr:#x}): hit {hit}")
                })?;
                cvu.insert(idx, addr, 8);
                reference.insert((idx, addr), true);
            }
            Store { addr, .. } => {
                let addr = 0x10_0000 + (addr % 64) / 8 * 8;
                cvu.invalidate_store(addr, 8);
                reference.retain(|&(_, a), _| a != addr);
            }
        }
    }
    Ok(())
}

#[test]
fn cvu_matches_reference_set() {
    check(
        "cvu_matches_reference_set",
        random_seeds(0xC7B5_0000, 128),
        random_ops,
        cvu_reference_set,
    );
}

/// One overlap probe: a load entry, then a store.
#[derive(Debug, Clone, Copy)]
struct Overlap {
    load_addr: u64,
    load_width: u8,
    store_addr: u64,
    store_width: u8,
}

/// A store wipes every overlapping CVU entry regardless of widths.
#[test]
fn cvu_store_overlap() {
    check(
        "cvu_store_overlap",
        random_seeds(0x0E1A_0000, 64),
        |seed| {
            let mut r = Lcg::new(seed);
            (0..64)
                .map(|_| Overlap {
                    load_addr: r.below(64),
                    load_width: *r.pick(&[1u8, 2, 4, 8]),
                    store_addr: r.below(64),
                    store_width: *r.pick(&[1u8, 2, 4, 8]),
                })
                .collect()
        },
        |probes| {
            for p in probes {
                let mut cvu = Cvu::new(CvuConfig { entries: 8 });
                cvu.insert(3, p.load_addr, p.load_width);
                cvu.invalidate_store(p.store_addr, p.store_width);
                let overlaps = p.store_addr < p.load_addr + p.load_width as u64
                    && p.load_addr < p.store_addr + p.store_width as u64;
                let survived = cvu.lookup(3, p.load_addr);
                ensure(survived != overlaps, || {
                    format!("{p:?}: overlap {overlaps}, entry survived {survived}")
                })?;
            }
            Ok(())
        },
    );
}

/// The one case the suite's earlier proptest runner recorded in its
/// regression file, kept as a fixed input for both op-driven properties.
#[test]
fn pinned_ops_hold_both_op_properties() {
    unit_statistics(PINNED).unwrap();
    cvu_reference_set(PINNED).unwrap();
}

const PINNED: &[Op] = &[
    Load {
        pc: 0x1000c,
        addr: 0x100060,
    },
    Load {
        pc: 0x10014,
        addr: 0x100000,
    },
    Load {
        pc: 0x10000,
        addr: 0x100010,
    },
    Load {
        pc: 0x10018,
        addr: 0x100000,
    },
    Load {
        pc: 0x10000,
        addr: 0x100000,
    },
    Load {
        pc: 0x10000,
        addr: 0x100018,
    },
    Load {
        pc: 0x10000,
        addr: 0x100020,
    },
    Load {
        pc: 0x10010,
        addr: 0x100000,
    },
    Load {
        pc: 0x10000,
        addr: 0x100028,
    },
    Load {
        pc: 0x1001c,
        addr: 0x100008,
    },
    Load {
        pc: 0x10004,
        addr: 0x100000,
    },
    Load {
        pc: 0x10000,
        addr: 0x100040,
    },
    Load {
        pc: 0x10014,
        addr: 0x100008,
    },
    Load {
        pc: 0x10000,
        addr: 0x100048,
    },
    Load {
        pc: 0x10000,
        addr: 0x100050,
    },
    Load {
        pc: 0x10018,
        addr: 0x100008,
    },
    Load {
        pc: 0x10000,
        addr: 0x100030,
    },
    Load {
        pc: 0x10004,
        addr: 0x100008,
    },
    Load {
        pc: 0x10004,
        addr: 0x100010,
    },
    Load {
        pc: 0x1005c,
        addr: 0x100020,
    },
    Load {
        pc: 0x10004,
        addr: 0x100018,
    },
    Load {
        pc: 0x10000,
        addr: 0x100058,
    },
    Load {
        pc: 0x10000,
        addr: 0x100038,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100000,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100008,
    },
    Load {
        pc: 0x10004,
        addr: 0x100020,
    },
    Load {
        pc: 0x10004,
        addr: 0x100028,
    },
    Load {
        pc: 0x10004,
        addr: 0x100030,
    },
    Load {
        pc: 0x10004,
        addr: 0x100038,
    },
    Load {
        pc: 0x1003c,
        addr: 0x100000,
    },
    Load {
        pc: 0x10008,
        addr: 0x100000,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100010,
    },
    Load {
        pc: 0x10000,
        addr: 0x100060,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100018,
    },
    Load {
        pc: 0x10004,
        addr: 0x100040,
    },
    Load {
        pc: 0x10008,
        addr: 0x100008,
    },
    Load {
        pc: 0x10030,
        addr: 0x100000,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100020,
    },
    Load {
        pc: 0x10004,
        addr: 0x100048,
    },
    Load {
        pc: 0x10014,
        addr: 0x100010,
    },
    Load {
        pc: 0x10010,
        addr: 0x100008,
    },
    Load {
        pc: 0x10004,
        addr: 0x100050,
    },
    Load {
        pc: 0x10008,
        addr: 0x100010,
    },
    Load {
        pc: 0x10014,
        addr: 0x100018,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100028,
    },
    Load {
        pc: 0x10000,
        addr: 0x100068,
    },
    Load {
        pc: 0x10008,
        addr: 0x100018,
    },
    Load {
        pc: 0x10020,
        addr: 0x100000,
    },
    Load {
        pc: 0x10018,
        addr: 0x100010,
    },
    Load {
        pc: 0x10000,
        addr: 0x100070,
    },
    Load {
        pc: 0x10004,
        addr: 0x100058,
    },
    Load {
        pc: 0x10008,
        addr: 0x100020,
    },
    Load {
        pc: 0x10004,
        addr: 0x100060,
    },
    Load {
        pc: 0x10008,
        addr: 0x100028,
    },
    Load {
        pc: 0x10008,
        addr: 0x100030,
    },
    Load {
        pc: 0x10010,
        addr: 0x100010,
    },
    Load {
        pc: 0x1001c,
        addr: 0x100000,
    },
    Load {
        pc: 0x10010,
        addr: 0x100018,
    },
    Load {
        pc: 0x10000,
        addr: 0x100008,
    },
    Load {
        pc: 0x10008,
        addr: 0x100038,
    },
    Load {
        pc: 0x10008,
        addr: 0x100040,
    },
    Load {
        pc: 0x10020,
        addr: 0x100008,
    },
    Load {
        pc: 0x10010,
        addr: 0x100020,
    },
    Load {
        pc: 0x10008,
        addr: 0x100048,
    },
    Load {
        pc: 0x1001c,
        addr: 0x100010,
    },
    Load {
        pc: 0x1000c,
        addr: 0x100060,
    },
];
