//! Compact binary serialization of traces (the **LVPT** format).
//!
//! Two on-disk versions exist. [`write_trace`] emits the current
//! **version 2**, a checksummed, streamable block format; version 1
//! files (the original flat format) remain readable through the same
//! [`read_trace`]/[`TraceReader`](crate::TraceReader) entry points.
//!
//! ```text
//! v2 header: magic "LVPT", version u16 = 2, reserved u16,
//!            entry count u64, payload length u64 (bytes after header)
//! v2 block:  entry count u32, byte length u32, crc32 u32,
//!            then `byte length` bytes of consecutive records
//! v1 header: magic "LVPT", version u16 = 1, reserved u16, entry count u64
//!            (records follow immediately, unframed and unchecksummed)
//!
//! record:  pc u64
//!          kind u8
//!          flags u8       bit0 dst, bit1 src0, bit2 src1, bit3 mem, bit4 branch,
//!                         bit5 mem.fp, bit6 branch.taken
//!          dst u8         (class<<5 | num) if present
//!          src0 u8, src1 u8 (same encoding)
//!          mem: addr u64, width u8, value u64    if present
//!          branch: target u64                    if present
//! ```
//!
//! The kind decides the payload: the mem flag is set exactly on loads
//! and stores and the branch flag exactly on control transfers. A record
//! that breaks this rule is [`TraceIoError::Corrupt`] in either version,
//! since no [`TraceEntry`] can hold it.
//!
//! Every v2 block's CRC-32 covers its record bytes, so a flipped bit
//! anywhere in the payload surfaces as
//! [`TraceIoError::ChecksumMismatch`] instead of silently corrupting an
//! experiment. All malformed inputs produce a typed [`TraceIoError`] —
//! never a panic.

use crate::crc32::crc32;
use crate::entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
use crate::reader::TraceReader;
use crate::Trace;
use std::fmt;
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"LVPT";
/// The trace format version [`write_trace`] produces. Cache keys that
/// embed serialized traces should include this so format bumps
/// invalidate stale artifacts.
pub const FORMAT_VERSION: u16 = 2;
pub(crate) const VERSION_V1: u16 = 1;
/// Records per v2 block; bounds both the writer's buffer and the
/// reader's resident window.
pub(crate) const BLOCK_ENTRIES: usize = 4096;
/// v2 block header bytes: entry count u32 + byte length u32 + crc32 u32.
pub(crate) const BLOCK_HEADER_BYTES: u64 = 12;
/// Smallest possible record: pc + kind + flags + three operand bytes.
pub(crate) const MIN_ENTRY_BYTES: u64 = 13;
/// Largest possible record: minimum plus memory (17) and branch (8).
pub(crate) const MAX_ENTRY_BYTES: u64 = MIN_ENTRY_BYTES + 17 + 8;

/// Error produced while reading or writing a binary trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// The stream has an unsupported format version.
    BadVersion(u16),
    /// The stream ended before the named structure was complete.
    Truncated(&'static str),
    /// The declared entry count cannot match the stream's contents.
    BadCount {
        /// The count the header (or block structure) promised.
        declared: u64,
        /// The most entries the stream could actually hold or deliver.
        limit: u64,
    },
    /// A v2 block's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Zero-based index of the failing block.
        block: u64,
    },
    /// A record field holds an invalid value.
    Corrupt(&'static str),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::BadMagic => f.write_str("not a trace stream (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated(what) => write!(f, "truncated trace stream (reading {what})"),
            TraceIoError::BadCount { declared, limit } => write!(
                f,
                "declared entry count {declared} exceeds what the stream holds (limit {limit})"
            ),
            TraceIoError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in trace block {block}")
            }
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace record: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// `read_exact` that reports end-of-stream as [`TraceIoError::Truncated`]
/// naming the structure being read, instead of a bare I/O error.
pub(crate) fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceIoError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated(what)
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Maps an [`OpKind`] to its wire byte. The discriminants mirror the
/// order of [`OpKind::ALL`], which [`kind_from_u8`] indexes.
fn kind_to_u8(k: OpKind) -> u8 {
    match k {
        OpKind::IntSimple => 0,
        OpKind::IntComplex => 1,
        OpKind::FpSimple => 2,
        OpKind::FpComplex => 3,
        OpKind::Load => 4,
        OpKind::Store => 5,
        OpKind::CondBranch => 6,
        OpKind::Jump => 7,
        OpKind::IndirectJump => 8,
        OpKind::System => 9,
    }
}

fn kind_from_u8(b: u8) -> Option<OpKind> {
    OpKind::ALL.get(b as usize).copied()
}

fn reg_to_u8(r: RegRef) -> u8 {
    let class = match r.class {
        RegClass::Int => 0u8,
        RegClass::Fp => 1,
    };
    (class << 5) | (r.num & 0x1f)
}

fn reg_from_u8(b: u8) -> RegRef {
    let class = if b & 0x20 != 0 {
        RegClass::Fp
    } else {
        RegClass::Int
    };
    RegRef {
        class,
        num: b & 0x1f,
    }
}

/// Exact encoded byte length of one record.
pub(crate) fn encoded_len(e: &TraceEntry) -> u64 {
    MIN_ENTRY_BYTES
        + if e.kind().is_mem() { 17 } else { 0 }
        + if e.kind().is_control() { 8 } else { 0 }
}

/// Encodes one record into the front of `rec` and returns its length
/// ([`encoded_len`]); bytes of `rec` past that length are left as they
/// were.
///
/// The fixed-size window lets the compiler drop every bounds check, so
/// a record costs a handful of stores rather than one `Vec` push per
/// field.
#[inline]
fn encode_record(rec: &mut [u8; MAX_ENTRY_BYTES as usize], e: &TraceEntry) -> usize {
    let [src0, src1] = e.srcs();
    let (mem, branch) = (e.mem(), e.branch());
    let mut flags = 0u8;
    if e.dst().is_some() {
        flags |= 1;
    }
    if src0.is_some() {
        flags |= 2;
    }
    if src1.is_some() {
        flags |= 4;
    }
    if mem.is_some() {
        flags |= 8;
    }
    if branch.is_some() {
        flags |= 16;
    }
    if mem.is_some_and(|m| m.fp) {
        flags |= 32;
    }
    if branch.is_some_and(|b| b.taken) {
        flags |= 64;
    }
    rec[0..8].copy_from_slice(&e.pc().to_le_bytes());
    rec[8] = kind_to_u8(e.kind());
    rec[9] = flags;
    rec[10] = e.dst().map_or(0, reg_to_u8);
    rec[11] = src0.map_or(0, reg_to_u8);
    rec[12] = src1.map_or(0, reg_to_u8);
    let mut len = MIN_ENTRY_BYTES as usize;
    if let Some(m) = mem {
        rec[len..len + 8].copy_from_slice(&m.addr.to_le_bytes());
        rec[len + 8] = m.width;
        rec[len + 9..len + 17].copy_from_slice(&m.value.to_le_bytes());
        len += 17;
    }
    if let Some(b) = branch {
        rec[len..len + 8].copy_from_slice(&b.target.to_le_bytes());
        len += 8;
    }
    len
}

/// Appends one encoded record to `out`: the record is built in a fixed
/// stack buffer and appended with a single `extend_from_slice`.
pub(crate) fn encode_entry(out: &mut Vec<u8>, e: &TraceEntry) {
    let mut rec = [0u8; MAX_ENTRY_BYTES as usize];
    let len = encode_record(&mut rec, e);
    out.extend_from_slice(&rec[..len]);
}

/// Encodes `entries` back to back into `buf`, which must hold
/// `entries.len() * MAX_ENTRY_BYTES` bytes, and returns the encoded
/// length. Each record is written in place through a full-size window,
/// so no byte is copied twice; the window's tail past a record is
/// overwritten by the next one, and `buf[..len]` is exactly the records.
fn encode_block(buf: &mut [u8], entries: &[TraceEntry]) -> usize {
    const MAX: usize = MAX_ENTRY_BYTES as usize;
    let mut len = 0;
    for e in entries {
        let rec: &mut [u8; MAX] = (&mut buf[len..len + MAX])
            .try_into()
            .expect("window is MAX_ENTRY_BYTES long");
        len += encode_record(rec, e);
    }
    len
}

/// Little-endian `u64` at `bytes[at..at + 8]`; callers check the length.
#[inline]
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Decodes one v2 record from the front of `bytes` (the unread tail of a
/// checksum-verified block) and returns it with its encoded length.
///
/// Errors surface in stream order, exactly as a field-by-field read
/// would meet them: an invalid op kind, then an invalid memory width
/// (checked before the value that follows it), and otherwise a record
/// that needs more bytes than the block has left, which is
/// `Corrupt("record overruns block")` — the block passed its CRC, so a
/// short record is structural corruption, not truncation. A record
/// whose memory or branch flag disagrees with its kind is
/// `Corrupt` too: the kind decides the payload.
pub(crate) fn decode_record(bytes: &[u8]) -> Result<(TraceEntry, usize), TraceIoError> {
    const OVERRUN: TraceIoError = TraceIoError::Corrupt("record overruns block");
    let head = MIN_ENTRY_BYTES as usize;
    if bytes.len() < head {
        return Err(OVERRUN);
    }
    let kind = kind_from_u8(bytes[8]).ok_or(TraceIoError::Corrupt("op kind"))?;
    let flags = bytes[9];
    let mut len = head;
    let mem = if flags & 8 != 0 {
        if bytes.len() < len + 9 {
            return Err(OVERRUN);
        }
        let width = bytes[len + 8];
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(TraceIoError::Corrupt("mem width"));
        }
        if bytes.len() < len + 17 {
            return Err(OVERRUN);
        }
        let mem = MemAccess {
            addr: le_u64(bytes, len),
            width,
            value: le_u64(bytes, len + 9),
            fp: flags & 32 != 0,
        };
        len += 17;
        Some(mem)
    } else {
        None
    };
    let branch = if flags & 16 != 0 {
        if bytes.len() < len + 8 {
            return Err(OVERRUN);
        }
        let branch = BranchEvent {
            taken: flags & 64 != 0,
            target: le_u64(bytes, len),
        };
        len += 8;
        Some(branch)
    } else {
        None
    };
    let entry = TraceEntry::from_parts(
        le_u64(bytes, 0),
        kind,
        (flags & 1 != 0).then(|| reg_from_u8(bytes[10])),
        [
            (flags & 2 != 0).then(|| reg_from_u8(bytes[11])),
            (flags & 4 != 0).then(|| reg_from_u8(bytes[12])),
        ],
        mem,
        branch,
    )
    .map_err(TraceIoError::Corrupt)?;
    Ok((entry, len))
}

/// Decodes one v1 record from `reader`; end-of-stream mid-record is
/// reported as `Truncated("record")`.
pub(crate) fn decode_entry<R: Read>(reader: &mut R) -> Result<TraceEntry, TraceIoError> {
    let mut u64buf = [0u8; 8];
    read_exact_or_truncated(reader, &mut u64buf, "record")?;
    let pc = u64::from_le_bytes(u64buf);
    let mut head = [0u8; 5];
    read_exact_or_truncated(reader, &mut head, "record")?;
    let kind = kind_from_u8(head[0]).ok_or(TraceIoError::Corrupt("op kind"))?;
    let flags = head[1];
    let dst = (flags & 1 != 0).then(|| reg_from_u8(head[2]));
    let src0 = (flags & 2 != 0).then(|| reg_from_u8(head[3]));
    let src1 = (flags & 4 != 0).then(|| reg_from_u8(head[4]));
    let mem = if flags & 8 != 0 {
        read_exact_or_truncated(reader, &mut u64buf, "record")?;
        let addr = u64::from_le_bytes(u64buf);
        let mut w = [0u8; 1];
        read_exact_or_truncated(reader, &mut w, "record")?;
        if !matches!(w[0], 1 | 2 | 4 | 8) {
            return Err(TraceIoError::Corrupt("mem width"));
        }
        read_exact_or_truncated(reader, &mut u64buf, "record")?;
        let value = u64::from_le_bytes(u64buf);
        Some(MemAccess {
            addr,
            width: w[0],
            value,
            fp: flags & 32 != 0,
        })
    } else {
        None
    };
    let branch = if flags & 16 != 0 {
        read_exact_or_truncated(reader, &mut u64buf, "record")?;
        Some(BranchEvent {
            taken: flags & 64 != 0,
            target: u64::from_le_bytes(u64buf),
        })
    } else {
        None
    };
    TraceEntry::from_parts(pc, kind, dst, [src0, src1], mem, branch).map_err(TraceIoError::Corrupt)
}

/// Writes a trace in the current **LVPT v2** block format. A `&mut`
/// reference works as a writer too.
///
/// Records are grouped into blocks of up to [`BLOCK_ENTRIES`] entries;
/// each block carries its byte length and a CRC-32 over its record
/// bytes, and the header carries the total payload length, so readers
/// can both stream and integrity-check without buffering the file.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    let entries = trace.entries();
    // The encoded size of every record is determined by its flags, so
    // the payload length is computable up front without buffering the
    // whole stream.
    let record_bytes: u64 = entries.iter().map(encoded_len).sum();
    let blocks = entries.len().div_ceil(BLOCK_ENTRIES) as u64;
    let payload_len = record_bytes + blocks * BLOCK_HEADER_BYTES;

    writer.write_all(MAGIC)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(entries.len() as u64).to_le_bytes())?;
    writer.write_all(&payload_len.to_le_bytes())?;

    let mut buf = vec![0u8; entries.len().min(BLOCK_ENTRIES) * MAX_ENTRY_BYTES as usize];
    for chunk in entries.chunks(BLOCK_ENTRIES) {
        let len = encode_block(&mut buf, chunk);
        let block = &buf[..len];
        let mut hdr = [0u8; BLOCK_HEADER_BYTES as usize];
        hdr[0..4].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        hdr[4..8].copy_from_slice(&(block.len() as u32).to_le_bytes());
        hdr[8..12].copy_from_slice(&crc32(block).to_le_bytes());
        writer.write_all(&hdr)?;
        writer.write_all(block)?;
    }
    Ok(())
}

/// Writes a trace in the legacy **LVPT v1** flat format (no blocks, no
/// checksums). Kept for compatibility fixtures and for tooling that must
/// interoperate with pre-v2 artifacts; new code should use
/// [`write_trace`].
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace_v1<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION_V1.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(MAX_ENTRY_BYTES as usize);
    for e in trace.iter() {
        buf.clear();
        encode_entry(&mut buf, e);
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a complete trace previously written with [`write_trace`] (v2)
/// or [`write_trace_v1`]. A `&mut` reference works as a reader too.
///
/// This materializes the whole trace; use
/// [`TraceReader`](crate::TraceReader) to stream entries instead.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed input — bad
/// magic, unsupported version, truncation, checksum mismatch, or invalid
/// record fields. Never panics on malformed input.
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let mut reader = TraceReader::new(reader)?;
    let mut trace = Trace::with_capacity(reader.declared_entries().min(1 << 24) as usize);
    // Batch-decode a block at a time instead of paying the iterator
    // protocol per record.
    let mut block = Vec::new();
    while reader.next_entries(&mut block)? > 0 {
        for &entry in &block {
            trace.push(entry);
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_trace() -> Trace {
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
                width: 8,
                value: 42,
                fp: true,
            },
        ));
        t.push(TraceEntry::control(
            0x1000c,
            OpKind::CondBranch,
            None,
            [Some(RegRef::int(5)), Some(RegRef::int(6))],
            BranchEvent {
                taken: true,
                target: 0x10000,
            },
        ));
        t
    }

    #[test]
    fn round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.entries(), t.entries());
        assert_eq!(back.stats(), t.stats());
    }

    #[test]
    fn v1_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_v1(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.entries(), t.entries());
    }

    #[test]
    fn multi_block_round_trip() {
        let t: Trace = (0..3 * BLOCK_ENTRIES as u64 + 7)
            .map(|i| TraceEntry::simple(0x10000 + 4 * i, OpKind::IntSimple))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.entries(), t.entries());
    }

    #[test]
    fn kind_bytes_round_trip_for_all_kinds() {
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind_to_u8(k) as usize, i, "{k:?} wire byte drifted");
            assert_eq!(kind_from_u8(kind_to_u8(k)), Some(k));
        }
        assert_eq!(kind_from_u8(OpKind::ALL.len() as u8), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        buf[4] = 99;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncated() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Truncated(_)), "{err:?}");
    }

    #[test]
    fn rejects_corrupt_kind() {
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0, OpKind::IntSimple));
        let mut buf = Vec::new();
        write_trace_v1(&mut buf, &t).unwrap();
        // v1 kind byte of first entry: header(16) + pc(8). (In v2 the
        // same flip surfaces as a checksum mismatch first — see the
        // corruption-matrix integration tests.)
        buf[24] = 200;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt("op kind")));
    }

    #[test]
    fn decode_record_matches_encoder_and_reports_errors_in_stream_order() {
        for e in sample_trace().iter() {
            let mut rec = Vec::new();
            encode_entry(&mut rec, e);
            assert_eq!(rec.len() as u64, encoded_len(e));
            assert_eq!(decode_record(&rec).unwrap(), (*e, rec.len()));
            // Every strict prefix overruns the block.
            for cut in 0..rec.len() {
                assert!(
                    matches!(
                        decode_record(&rec[..cut]),
                        Err(TraceIoError::Corrupt("record overruns block"))
                    ),
                    "{e:?} cut at {cut}"
                );
            }
        }
        let load = sample_trace().entries()[1];
        let mut rec = Vec::new();
        encode_entry(&mut rec, &load);
        // A bad kind wins over a bad width; a bad width wins over the
        // missing value bytes after it.
        let mut bad = rec.clone();
        bad[8] = 200;
        bad[21] = 3;
        assert!(matches!(
            decode_record(&bad[..22]),
            Err(TraceIoError::Corrupt("op kind"))
        ));
        bad[8] = rec[8];
        assert!(matches!(
            decode_record(&bad[..22]),
            Err(TraceIoError::Corrupt("mem width"))
        ));
    }

    #[test]
    fn rejects_flipped_payload_byte_via_checksum() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::ChecksumMismatch { block: 0 }),
            "{err:?}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let cases: Vec<(TraceIoError, &str)> = vec![
            (TraceIoError::BadMagic, "magic"),
            (TraceIoError::BadVersion(7), "version 7"),
            (TraceIoError::Truncated("header"), "header"),
            (
                TraceIoError::BadCount {
                    declared: 10,
                    limit: 2,
                },
                "10",
            ),
            (TraceIoError::ChecksumMismatch { block: 3 }, "block 3"),
            (TraceIoError::Corrupt("mem width"), "mem width"),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
    }
}
