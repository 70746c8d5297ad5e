//! Property tests: the streaming characterizer against brute-force
//! O(n²) references.
//!
//! The characterizer computes everything in one pass with per-PC
//! incremental state. Each reference here recomputes a metric the
//! slow, obviously-correct way — full backward scans over the whole
//! trace — and the two must agree to float precision on randomized
//! traces (values kept under [`HISTOGRAM_CAP`] distinct per PC so the
//! capped histogram is exact).
//!
//! [`HISTOGRAM_CAP`]: lvp_predictor::characterize::HISTOGRAM_CAP

use lvp_predictor::characterize::Characterizer;
use lvp_trace::rng::Lcg;
use lvp_trace::{MemAccess, OpKind, TraceEntry};
use std::collections::{HashMap, HashSet};

fn load(pc: u64, addr: u64, value: u64) -> TraceEntry {
    TraceEntry::mem_op(
        pc,
        OpKind::Load,
        None,
        [None, None],
        MemAccess {
            addr,
            width: 8,
            value,
            fp: false,
        },
    )
}

fn store(pc: u64, addr: u64, value: u64) -> TraceEntry {
    TraceEntry::mem_op(
        pc,
        OpKind::Store,
        None,
        [None, None],
        MemAccess {
            addr,
            width: 8,
            value,
            fp: false,
        },
    )
}

/// A randomized trace: a handful of load PCs with values drawn from a
/// small pool (entropy in an interesting middle range), stores feeding
/// some of the load addresses, and filler ops between.
fn random_trace(seed: u64, len: usize) -> Vec<TraceEntry> {
    let mut r = Lcg::new(seed);
    let pcs: Vec<u64> = (0..4 + r.below(4)).map(|i| 0x1000 + 16 * i).collect();
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        match r.below(10) {
            0..=5 => {
                let pc = *r.pick(&pcs);
                let addr = 0x10_0000 + 8 * r.below(64);
                entries.push(load(pc, addr, r.below(50)));
            }
            6..=7 => {
                let addr = 0x10_0000 + 8 * r.below(64);
                entries.push(store(0x2000, addr, r.below(50)));
            }
            _ => entries.push(TraceEntry::simple(0x3000, OpKind::IntSimple)),
        }
    }
    entries
}

fn characterize(entries: &[TraceEntry]) -> lvp_predictor::characterize::Characterization {
    let mut c = Characterizer::new(entries.len() as u64);
    for e in entries {
        c.observe(e);
    }
    c.finish()
}

/// All dynamic loads of one PC, in order, as (trace index, value, addr).
fn loads_of(entries: &[TraceEntry], pc: u64) -> Vec<(usize, u64, u64)> {
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind() == OpKind::Load && e.pc() == pc)
        .map(|(i, e)| {
            let m = e.mem().unwrap();
            (i, m.value, m.addr)
        })
        .collect()
}

#[test]
fn entropy_and_working_set_match_brute_force() {
    for seed in [11u64, 12, 13, 14] {
        let entries = random_trace(seed, 4000);
        let r = characterize(&entries);
        for p in &r.pcs {
            let vals = loads_of(&entries, p.pc);
            let n = vals.len() as f64;
            let mut hist: HashMap<u64, u64> = HashMap::new();
            for &(_, v, _) in &vals {
                *hist.entry(v).or_default() += 1;
            }
            let entropy: f64 = hist
                .values()
                .map(|&c| {
                    let q = c as f64 / n;
                    -q * q.log2()
                })
                .sum();
            let simpson: f64 = hist
                .values()
                .map(|&c| {
                    let q = c as f64 / n;
                    q * q
                })
                .sum();
            assert_eq!(p.count as usize, vals.len(), "pc {:#x} count", p.pc);
            assert_eq!(p.distinct as usize, hist.len(), "pc {:#x} distinct", p.pc);
            assert!(
                (p.entropy_bits - entropy).abs() < 1e-9,
                "pc {:#x}: streaming entropy {} != reference {entropy}",
                p.pc,
                p.entropy_bits
            );
            assert!(
                (p.simpson - simpson).abs() < 1e-9,
                "pc {:#x}: streaming simpson {} != reference {simpson}",
                p.pc,
                p.simpson
            );
        }
    }
}

#[test]
fn repeat_and_stride_coverage_match_brute_force() {
    for seed in [21u64, 22, 23, 24] {
        let entries = random_trace(seed, 4000);
        let r = characterize(&entries);
        for p in &r.pcs {
            let vals = loads_of(&entries, p.pc);
            // Reference: for load k, walk the PC's full history and
            // replay the two-delta rule from scratch.
            let mut repeat_hits = 0u64;
            let mut stride_hits = 0u64;
            for k in 1..vals.len() {
                if vals[k].1 == vals[k - 1].1 {
                    repeat_hits += 1;
                }
                // Committed stride before load k: the latest delta seen
                // twice in a row among loads 0..k.
                let mut committed: Option<i64> = None;
                for j in 2..k {
                    let d1 = vals[j - 1].1.wrapping_sub(vals[j - 2].1) as i64;
                    let d2 = vals[j].1.wrapping_sub(vals[j - 1].1) as i64;
                    if d1 == d2 {
                        committed = Some(d2);
                    }
                }
                if let Some(s) = committed {
                    if vals[k - 1].1.wrapping_add(s as u64) == vals[k].1 {
                        stride_hits += 1;
                    }
                }
            }
            let n = vals.len() as f64;
            assert!(
                (p.repeat_rate - repeat_hits as f64 / n).abs() < 1e-9,
                "pc {:#x} repeat",
                p.pc
            );
            assert!(
                (p.stride_coverage - stride_hits as f64 / n).abs() < 1e-9,
                "pc {:#x} stride: streaming {} != reference {}",
                p.pc,
                p.stride_coverage,
                stride_hits as f64 / n
            );
        }
    }
}

#[test]
fn feed_metrics_match_brute_force() {
    for seed in [31u64, 32, 33, 34] {
        let entries = random_trace(seed, 4000);
        let r = characterize(&entries);
        for p in &r.pcs {
            let mut fed = 0u64;
            let mut dist_sum = 0u64;
            for (i, e) in entries.iter().enumerate() {
                if e.kind() != OpKind::Load || e.pc() != p.pc {
                    continue;
                }
                let addr = e.mem().unwrap().addr & !7;
                // Backward scan for the latest earlier store to the
                // same word.
                if let Some(si) = (0..i).rev().find(|&j| {
                    entries[j].kind() == OpKind::Store
                        && entries[j].mem().is_some_and(|m| m.addr & !7 == addr)
                }) {
                    fed += 1;
                    dist_sum += (i - si) as u64;
                }
            }
            let n = p.count as f64;
            assert!(
                (p.fed_fraction - fed as f64 / n).abs() < 1e-9,
                "pc {:#x} fed",
                p.pc
            );
            let want = dist_sum as f64 / fed.max(1) as f64;
            assert!(
                (p.mean_feed_distance - want).abs() < 1e-9,
                "pc {:#x} feed distance: streaming {} != reference {want}",
                p.pc,
                p.mean_feed_distance
            );
        }
    }
}

/// Injecting value noise into a stride-clean trace can only lower
/// stride coverage, never raise it. Noise sets are nested (each level
/// corrupts a superset of the previous level's positions), and
/// corrupted values are 64-bit randoms — an accidental two-delta hit
/// through one would need a colliding delta pair, which the value
/// width makes vanishingly unlikely.
#[test]
fn noise_never_raises_stride_coverage() {
    for seed in [41u64, 42] {
        // Stride-clean base: each PC ramps with its own delta.
        let pcs: [(u64, u64); 3] = [(0x1000, 8), (0x1010, 24), (0x1020, 1)];
        let base: Vec<TraceEntry> = (0..3000u64)
            .map(|i| {
                let (pc, delta) = pcs[(i % 3) as usize];
                load(pc, 0x10_0000 + 8 * (i % 64), 1000 + (i / 3) * delta)
            })
            .collect();
        let mut r = Lcg::new(seed);
        let mut corrupted: HashSet<usize> = HashSet::new();
        let mut prev_coverage = f64::INFINITY;
        // Noise levels 0%, 5%, 10%, ..., 50% of positions.
        for level in 0..=10u64 {
            let target = (base.len() as u64 * level * 5 / 100) as usize;
            while corrupted.len() < target {
                corrupted.insert(r.below(base.len() as u64) as usize);
            }
            let noisy: Vec<TraceEntry> = base
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    if corrupted.contains(&i) {
                        let m = e.mem().unwrap();
                        load(e.pc(), m.addr, r.next_full())
                    } else {
                        *e
                    }
                })
                .collect();
            let cov = characterize(&noisy).summary.stride_coverage;
            assert!(
                cov <= prev_coverage + 1e-9,
                "seed {seed} level {level}: stride coverage rose from {prev_coverage} to {cov}"
            );
            prev_coverage = cov;
        }
        // Sanity: the clean trace was near-fully covered, the noisiest
        // one was not.
        assert!(characterize(&base).summary.stride_coverage > 0.99);
        assert!(prev_coverage < 0.6);
    }
}
