//! Property tests for both trace serializations, on a seeded runner over
//! the workspace [`Lcg`]: binary and text round trips of arbitrary
//! well-formed traces, garbage input that must never panic either
//! parser, and in-record corruption behind a *valid* block checksum,
//! which reaches the v2 record decoder's own bounds and field checks.
//!
//! A failing case is shrunk (greedy element removal to a fixpoint) and
//! reported with its seed, so the message is directly actionable.
//! `LVP_FUZZ_CASES` scales the number of random cases.

use lvp_trace::rng::Lcg;
use lvp_trace::{
    crc32, dump_text, parse_text, read_trace, write_trace, BranchEvent, MemAccess, OpKind, RegRef,
    Trace, TraceEntry, TraceIoError, TraceReader,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    base: u64,
    generate: impl Fn(u64) -> Vec<T>,
    property: impl Fn(&[T]) -> Result<(), String>,
) {
    for seed in (0..cases(128)).map(|i| base + i) {
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

/// Runs `f`, turning a panic into a property failure.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{what} panicked"))
}

fn random_reg(r: &mut Lcg) -> Option<RegRef> {
    match r.below(4) {
        0 => None,
        1 => Some(RegRef::fp(r.below(32) as u8)),
        _ => Some(RegRef::int(r.below(32) as u8)),
    }
}

/// An arbitrary well-formed entry: any pc, kind, operand set, and the
/// payload its kind carries — a memory access (full-width address and
/// value, every legal width) for loads and stores, a branch event for
/// control transfers.
fn random_entry(r: &mut Lcg) -> TraceEntry {
    let pc = r.next_full();
    let kind = *r.pick(&OpKind::ALL);
    let dst = random_reg(r);
    let srcs = [random_reg(r), random_reg(r)];
    if kind.is_mem() {
        let access = MemAccess {
            addr: r.next_full(),
            width: *r.pick(&[1u8, 2, 4, 8]),
            value: r.next_full(),
            fp: r.chance(1, 2),
        };
        TraceEntry::mem_op(pc, kind, dst, srcs, access)
    } else if kind.is_control() {
        let event = BranchEvent {
            taken: r.chance(1, 2),
            target: r.next_full(),
        };
        TraceEntry::control(pc, kind, dst, srcs, event)
    } else {
        TraceEntry::op(pc, kind, dst, srcs)
    }
}

fn random_entries(seed: u64, max: u64) -> Vec<TraceEntry> {
    let mut r = Lcg::new(seed);
    let n = r.below(max);
    (0..n).map(|_| random_entry(&mut r)).collect()
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, trace).expect("in-memory encode cannot fail");
    buf
}

#[test]
fn binary_round_trip() {
    check(
        "binary_round_trip",
        0xB1_0000,
        |seed| random_entries(seed, 200),
        |entries| {
            let trace: Trace = entries.iter().copied().collect();
            let back = read_trace(encode(&trace).as_slice()).map_err(|e| e.to_string())?;
            if back.entries() != trace.entries() {
                return Err("decoded entries differ".into());
            }
            if back.stats() != trace.stats() {
                return Err("decoded stats differ".into());
            }
            Ok(())
        },
    );
}

#[test]
fn text_round_trip() {
    check(
        "text_round_trip",
        0x7E_0000,
        |seed| random_entries(seed, 200),
        |entries| {
            let trace: Trace = entries.iter().copied().collect();
            let back = parse_text(&dump_text(&trace)).map_err(|e| e.to_string())?;
            if back.entries() != trace.entries() {
                return Err("parsed entries differ".into());
            }
            Ok(())
        },
    );
}

/// Both binary read paths — the materializing block decoder and the
/// per-record iterator — on arbitrary bytes: no panic, and the same
/// verdict.
fn binary_readers_agree(bytes: &[u8]) -> Result<(), String> {
    let materialized = no_panic("read_trace", || read_trace(bytes))?;
    let streamed = no_panic("TraceReader", || {
        TraceReader::new(bytes)?.collect::<Result<Vec<TraceEntry>, TraceIoError>>()
    })?;
    match (materialized, streamed) {
        (Ok(t), Ok(s)) if t.entries() == s.as_slice() => Ok(()),
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
        (a, b) => Err(format!(
            "read paths disagree: read_trace {:?} vs iterator {:?}",
            a.map(|t| t.len()),
            b.map(|s| s.len())
        )),
    }
}

#[test]
fn binary_reader_never_panics_on_garbage() {
    check(
        "binary_reader_never_panics_on_garbage",
        0x6A_0000,
        |seed| {
            let mut r = Lcg::new(seed);
            let n = r.below(400) as usize;
            let mut bytes: Vec<u8> = (0..n).map(|_| r.next() as u8).collect();
            // Half the cases get a valid magic and version so the
            // garbage reaches the block layer.
            if r.chance(1, 2) {
                let head = [b'L', b'V', b'P', b'T', *r.pick(&[1u8, 2]), 0];
                let k = head.len().min(bytes.len());
                bytes[..k].copy_from_slice(&head[..k]);
            }
            bytes
        },
        binary_readers_agree,
    );
}

#[test]
fn text_parser_never_panics_on_garbage() {
    check(
        "text_parser_never_panics_on_garbage",
        0x7A_0000,
        |seed| {
            let mut r = Lcg::new(seed);
            if r.chance(1, 2) {
                let n = r.below(400);
                return (0..n)
                    .map(|_| match r.below(16) {
                        0 => '\n',
                        _ => char::from(b' ' + r.below(95) as u8),
                    })
                    .collect();
            }
            // A real dump with printable bytes overwritten, so the
            // garbage reaches the field parsers.
            let trace: Trace = random_entries(seed, 8).into_iter().collect();
            let mut chars: Vec<char> = dump_text(&trace).chars().collect();
            for _ in 0..=r.below(4) {
                if !chars.is_empty() {
                    let at = r.below(chars.len() as u64) as usize;
                    chars[at] = char::from(b' ' + r.below(95) as u8);
                }
            }
            chars
        },
        |chars| {
            let text: String = chars.iter().collect();
            no_panic("parse_text", || parse_text(&text)).map(|_| ())
        },
    );
}

/// One record of a generated stream, with an optional corruption:
/// `(offset, xor)` flips bits of the record's byte `offset % len`.
#[derive(Debug, Clone, Copy)]
struct Rec {
    entry: TraceEntry,
    flip: Option<(u8, u8)>,
}

/// Records per v2 block, as the writer emits them.
const BLOCK_ENTRIES: usize = 4096;

fn record_len(e: &TraceEntry) -> usize {
    13 + if e.mem().is_some() { 17 } else { 0 } + if e.branch().is_some() { 8 } else { 0 }
}

/// Corrupting any byte inside a record and then re-sealing its block
/// with a matching CRC gets past the checksum, so the record decoder's
/// own checks are all that stand between the bytes and a panic: the
/// reader must return a trace or a typed error, identically on both
/// read paths.
#[test]
fn in_record_corruption_behind_a_valid_checksum_never_panics() {
    check(
        "in_record_corruption_behind_a_valid_checksum_never_panics",
        0xC0_0000,
        |seed| {
            let mut r = Lcg::new(seed);
            // One case in four spans several blocks.
            let n = if r.chance(1, 4) {
                r.range(1, 3 * BLOCK_ENTRIES as u64)
            } else {
                r.range(1, 200)
            };
            let mut recs: Vec<Rec> = (0..n)
                .map(|_| Rec {
                    entry: random_entry(&mut r),
                    flip: None,
                })
                .collect();
            let blocks = n.div_ceil(BLOCK_ENTRIES as u64);
            for _ in 0..=r.below(3) {
                // Half the flips hit a block's last record, where a
                // record that grows overruns the block; half hit the
                // kind, flags or width byte, which the decoder checks
                // or branches on.
                let at = if r.chance(1, 2) {
                    (BLOCK_ENTRIES as u64 * (r.below(blocks) + 1)).min(n) - 1
                } else {
                    r.below(n)
                };
                let offset = if r.chance(1, 2) {
                    *r.pick(&[8u8, 9, 21])
                } else {
                    r.next() as u8
                };
                recs[at as usize].flip = Some((offset, r.range(1, 256) as u8));
            }
            recs
        },
        |recs| {
            let trace: Trace = recs.iter().map(|rec| rec.entry).collect();
            let mut bytes = encode(&trace);
            let mut block_start = 24;
            for block in recs.chunks(BLOCK_ENTRIES) {
                let payload = block_start + 12;
                let mut at = payload;
                for rec in block {
                    let len = record_len(&rec.entry);
                    if let Some((offset, xor)) = rec.flip {
                        bytes[at + offset as usize % len] ^= xor;
                    }
                    at += len;
                }
                let crc = crc32(&bytes[payload..at]);
                bytes[block_start + 8..payload].copy_from_slice(&crc.to_le_bytes());
                block_start = at;
            }
            binary_readers_agree(&bytes)
        },
    );
}
