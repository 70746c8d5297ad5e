//! Seeded, hand-rolled randomized roundtrip tests for the binary trace
//! format (no external property-testing dependency, per the offline
//! build rule), plus the v1 → v2 compatibility test against a committed
//! fixture.
//!
//! The generator enumerates *every* combination of `OpKind` × operand
//! presence × memory variant (none / int / fp) × branch variant (none /
//! not-taken / taken). The kind decides the payload, so the consistent
//! combinations (a memory access exactly on loads and stores, a branch
//! event exactly on control transfers) form the round-trip trace, padded
//! to ~1k entries with LCG-generated random records, so all encoder flag
//! paths are covered deterministically on every run. Every inconsistent
//! combination is hand-encoded on the wire and must decode to a typed
//! error in both format versions.

use lvp_trace::rng::Lcg;
use lvp_trace::{
    crc32, read_trace, write_trace, write_trace_v1, BranchEvent, MemAccess, OpKind, RegClass,
    RegRef, Trace, TraceEntry, TraceIoError, TraceReader,
};
use std::path::PathBuf;

const SEED: u64 = 0x5eed_1996_a5b1_05f6;

fn reg(kind: u64, num: u8) -> Option<RegRef> {
    match kind {
        0 => None,
        1 => Some(RegRef::int(num & 0x1f)),
        _ => Some(RegRef::fp(num & 0x1f)),
    }
}

fn mem(variant: u64, addr: u64, value: u64, width_sel: u64) -> Option<MemAccess> {
    let width = [1u8, 2, 4, 8][(width_sel % 4) as usize];
    match variant {
        0 => None,
        1 => Some(MemAccess {
            addr,
            width,
            value,
            fp: false,
        }),
        _ => Some(MemAccess {
            addr,
            width,
            value,
            fp: true,
        }),
    }
}

fn branch(variant: u64, target: u64) -> Option<BranchEvent> {
    match variant {
        0 => None,
        1 => Some(BranchEvent {
            taken: false,
            target,
        }),
        _ => Some(BranchEvent {
            taken: true,
            target,
        }),
    }
}

/// One combination of the exhaustive matrix, in raw parts.
struct Parts {
    pc: u64,
    kind: OpKind,
    dst: Option<RegRef>,
    srcs: [Option<RegRef>; 2],
    mem: Option<MemAccess>,
    branch: Option<BranchEvent>,
}

impl Parts {
    /// Whether the payload matches the kind.
    fn consistent(&self) -> bool {
        self.mem.is_some() == self.kind.is_mem() && self.branch.is_some() == self.kind.is_control()
    }

    /// The entry these parts describe; `None` if they are inconsistent.
    fn entry(&self) -> Option<TraceEntry> {
        let Parts {
            pc,
            kind,
            dst,
            srcs,
            mem,
            branch,
        } = *self;
        match (mem, branch) {
            _ if !self.consistent() => None,
            (Some(m), _) => Some(TraceEntry::mem_op(pc, kind, dst, srcs, m)),
            (_, Some(b)) => Some(TraceEntry::control(pc, kind, dst, srcs, b)),
            (None, None) => Some(TraceEntry::op(pc, kind, dst, srcs)),
        }
    }

    /// The record's wire bytes, hand-encoded from the layout documented
    /// in `io.rs`, so inconsistent parts can be written too.
    fn wire(&self) -> Vec<u8> {
        let reg =
            |r: Option<RegRef>| r.map_or(0, |r| u8::from(r.class == RegClass::Fp) << 5 | r.num);
        let flags = u8::from(self.dst.is_some())
            | u8::from(self.srcs[0].is_some()) << 1
            | u8::from(self.srcs[1].is_some()) << 2
            | u8::from(self.mem.is_some()) << 3
            | u8::from(self.branch.is_some()) << 4
            | u8::from(self.mem.is_some_and(|m| m.fp)) << 5
            | u8::from(self.branch.is_some_and(|b| b.taken)) << 6;
        let kind = OpKind::ALL.iter().position(|&k| k == self.kind).unwrap() as u8;
        let mut rec = self.pc.to_le_bytes().to_vec();
        rec.extend([
            kind,
            flags,
            reg(self.dst),
            reg(self.srcs[0]),
            reg(self.srcs[1]),
        ]);
        if let Some(m) = self.mem {
            rec.extend(m.addr.to_le_bytes());
            rec.push(m.width);
            rec.extend(m.value.to_le_bytes());
        }
        if let Some(b) = self.branch {
            rec.extend(b.target.to_le_bytes());
        }
        rec
    }
}

/// Every (kind, dst, src0, src1, mem-variant, branch-variant)
/// combination once.
fn combinations() -> Vec<Parts> {
    let mut all = Vec::new();
    let mut pc = 0x1_0000u64;
    for (ki, &kind) in OpKind::ALL.iter().enumerate() {
        for dst in 0..2 {
            for src0 in 0..2 {
                for src1 in 0..2 {
                    for mv in 0..3 {
                        for bv in 0..3 {
                            all.push(Parts {
                                pc,
                                kind,
                                dst: reg(dst * (1 + (ki as u64 % 2)), ki as u8),
                                srcs: [
                                    reg(src0 * (1 + ((ki as u64 + 1) % 2)), 31),
                                    reg(src1 * 2, 0),
                                ],
                                mem: mem(mv, 0x20_0000 + pc, pc.wrapping_mul(0x9e37), pc),
                                branch: branch(bv, 0x1_0000),
                            });
                            pc += 4;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(all.len(), 10 * 2 * 2 * 2 * 3 * 3, "combination count");
    all
}

/// Every consistent combination once, then random entries up to ~1k
/// total.
fn generated_trace() -> Trace {
    let mut t: Trace = combinations().iter().filter_map(Parts::entry).collect();
    // Loads and stores (2 kinds) pair with two memory variants, control
    // transfers (3 kinds) with two branch variants, the other five kinds
    // with neither; each × 8 operand sets.
    assert_eq!(
        t.len(),
        (2 * 2 + 3 * 2 + 5) * 8,
        "consistent combination count"
    );

    let mut rng = Lcg::new(SEED);
    while t.len() < 1024 {
        let kind = OpKind::ALL[rng.below(OpKind::ALL.len() as u64) as usize];
        let parts = Parts {
            pc: rng.next_full(),
            kind,
            dst: reg(rng.below(3), rng.next_full() as u8),
            srcs: [
                reg(rng.below(3), rng.next_full() as u8),
                reg(rng.below(3), rng.next_full() as u8),
            ],
            mem: mem(
                if kind.is_mem() { 1 + rng.below(2) } else { 0 },
                rng.next_full(),
                rng.next_full(),
                rng.next_full(),
            ),
            branch: branch(
                if kind.is_control() {
                    1 + rng.below(2)
                } else {
                    0
                },
                rng.next_full(),
            ),
        };
        t.push(parts.entry().expect("payload chosen by kind"));
    }
    t
}

/// The hand encoder agrees with the writer on every consistent
/// combination, so the bytes the next test feeds the decoders are the
/// ones the format defines.
#[test]
fn hand_encoding_matches_the_writer() {
    for parts in combinations().iter().filter(|p| p.consistent()) {
        let mut buf = Vec::new();
        write_trace_v1(&mut buf, &std::iter::once(parts.entry().unwrap()).collect()).unwrap();
        assert_eq!(buf[16..], parts.wire()[..], "{:?}", parts.entry());
    }
}

/// A record whose memory or branch payload disagrees with its kind is a
/// typed `Corrupt` error from both readers, in both format versions —
/// the v2 block resealed with a valid CRC, so the record decoder itself
/// must catch it.
#[test]
fn inconsistent_combinations_are_typed_errors() {
    let mut checked = 0;
    for parts in combinations().iter().filter(|p| !p.consistent()) {
        let rec = parts.wire();
        let mut v1 = b"LVPT".to_vec();
        v1.extend(1u16.to_le_bytes());
        v1.extend(0u16.to_le_bytes());
        v1.extend(1u64.to_le_bytes());
        v1.extend(&rec);

        let mut v2 = b"LVPT".to_vec();
        v2.extend(2u16.to_le_bytes());
        v2.extend(0u16.to_le_bytes());
        v2.extend(1u64.to_le_bytes());
        v2.extend((12 + rec.len() as u64).to_le_bytes());
        v2.extend(1u32.to_le_bytes());
        v2.extend((rec.len() as u32).to_le_bytes());
        v2.extend(crc32(&rec).to_le_bytes());
        v2.extend(&rec);

        for bytes in [v1, v2] {
            let materialized = read_trace(bytes.as_slice()).unwrap_err();
            let streamed = TraceReader::new(bytes.as_slice())
                .unwrap()
                .collect::<Result<Trace, _>>()
                .unwrap_err();
            for err in [materialized, streamed] {
                assert!(
                    matches!(err, TraceIoError::Corrupt(_)),
                    "{:?} with mem {:?}, branch {:?}: {err:?}",
                    parts.kind,
                    parts.mem,
                    parts.branch
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 10 * 2 * 2 * 2 * 3 * 3 - (2 * 2 + 3 * 2 + 5) * 8);
}

#[test]
fn write_stream_write_is_byte_identical() {
    let original = generated_trace();
    let mut first = Vec::new();
    write_trace(&mut first, &original).unwrap();

    // Stream-read (never materializing through read_trace) and rebuild.
    let rebuilt: Trace = TraceReader::new(first.as_slice())
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(rebuilt.entries(), original.entries());
    assert_eq!(rebuilt.stats(), original.stats());

    let mut second = Vec::new();
    write_trace(&mut second, &rebuilt).unwrap();
    assert_eq!(first, second, "write→stream-read→write must be stable");
}

#[test]
fn v1_write_read_preserves_every_combination() {
    let original = generated_trace();
    let mut buf = Vec::new();
    write_trace_v1(&mut buf, &original).unwrap();
    let back = read_trace(buf.as_slice()).unwrap();
    assert_eq!(back.entries(), original.entries());

    // v1 re-encoding is stable too.
    let mut again = Vec::new();
    write_trace_v1(&mut again, &back).unwrap();
    assert_eq!(buf, again);
}

#[test]
fn random_truncations_of_random_traces_never_panic() {
    let original = generated_trace();
    let mut buf = Vec::new();
    write_trace(&mut buf, &original).unwrap();
    let mut rng = Lcg::new(SEED ^ 0xdead_beef);
    for _ in 0..256 {
        let len = rng.below(buf.len() as u64) as usize;
        assert!(
            read_trace(&buf[..len]).is_err(),
            "truncation to {len} bytes accepted"
        );
    }
}

// ---------------------------------------------------------------------
// v1 → v2 compatibility fixture
// ---------------------------------------------------------------------

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("sample_v1.lvpt")
}

/// The exact trace committed in `tests/fixtures/sample_v1.lvpt`.
fn fixture_trace() -> Trace {
    let mut t = Trace::new();
    t.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
    t.push(TraceEntry::mem_op(
        0x10004,
        OpKind::Load,
        Some(RegRef::int(10)),
        [Some(RegRef::int(2)), None],
        MemAccess {
            addr: 0x10_0008,
            width: 8,
            value: u64::MAX,
            fp: false,
        },
    ));
    t.push(TraceEntry::mem_op(
        0x10008,
        OpKind::Store,
        None,
        [Some(RegRef::int(2)), Some(RegRef::fp(4))],
        MemAccess {
            addr: 0x10_0010,
            width: 4,
            value: 42,
            fp: true,
        },
    ));
    t.push(TraceEntry::op(
        0x1000c,
        OpKind::FpComplex,
        Some(RegRef::fp(1)),
        [Some(RegRef::fp(2)), Some(RegRef::fp(3))],
    ));
    t.push(TraceEntry::control(
        0x10010,
        OpKind::CondBranch,
        None,
        [Some(RegRef::int(5)), Some(RegRef::int(6))],
        BranchEvent {
            taken: true,
            target: 0x10000,
        },
    ));
    t.push(TraceEntry::op(0x10014, OpKind::System, None, [None, None]));
    t
}

/// A v2 reader must consume a committed, pre-v2 artifact byte-for-byte.
#[test]
fn committed_v1_fixture_reads_under_v2_reader() {
    let bytes = std::fs::read(fixture_path())
        .unwrap_or_else(|e| panic!("missing fixture {:?}: {e}", fixture_path()));

    // The committed bytes are exactly what the v1 writer produces for
    // the reference trace — the fixture can always be regenerated.
    let mut expected_bytes = Vec::new();
    write_trace_v1(&mut expected_bytes, &fixture_trace()).unwrap();
    assert_eq!(bytes, expected_bytes, "fixture drifted from v1 writer");

    // Streaming read.
    let reader = TraceReader::new(bytes.as_slice()).unwrap();
    assert_eq!(reader.version(), 1);
    let streamed: Trace = reader.collect::<Result<_, _>>().unwrap();
    assert_eq!(streamed.entries(), fixture_trace().entries());

    // Materializing read, then re-encode as v2 and read back.
    let materialized = read_trace(bytes.as_slice()).unwrap();
    let mut v2 = Vec::new();
    write_trace(&mut v2, &materialized).unwrap();
    let upgraded = read_trace(v2.as_slice()).unwrap();
    assert_eq!(upgraded.entries(), fixture_trace().entries());
}

/// Regenerates the committed fixture. Run manually after an intentional
/// v1-layout change (which should never happen — v1 is frozen):
/// `cargo test -p lvp-trace --test randomized_roundtrip regenerate -- --ignored`
#[test]
#[ignore = "writes tests/fixtures/sample_v1.lvpt"]
fn regenerate_v1_fixture() {
    let mut buf = Vec::new();
    write_trace_v1(&mut buf, &fixture_trace()).unwrap();
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), buf).unwrap();
}
