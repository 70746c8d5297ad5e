//! Corruption-matrix tests for the LVPT v2 binary format.
//!
//! Every row of the matrix takes a valid serialized trace, applies one
//! specific corruption, and asserts that reading it back produces the
//! *matching* [`TraceIoError`] variant — and, via `catch_unwind`, that
//! no corruption can panic the reader. Both the materializing
//! [`read_trace`] path and the streaming [`TraceReader`] path are
//! exercised for every case.

use lvp_trace::{
    read_trace, write_trace, write_trace_v1, BranchEvent, MemAccess, OpKind, RegRef, Trace,
    TraceEntry, TraceIoError, TraceReader,
};
use std::panic::catch_unwind;

fn sample_trace() -> Trace {
    let mut t = Trace::new();
    for i in 0..32u64 {
        t.push(TraceEntry::simple(0x10000 + 4 * i, OpKind::IntSimple));
        t.push(TraceEntry::mem_op(
            0x20000 + 4 * i,
            OpKind::Load,
            Some(RegRef::int(10)),
            [Some(RegRef::int(2)), None],
            MemAccess {
                addr: 0x10_0000 + 8 * i,
                width: 8,
                value: i.wrapping_mul(0x9e3779b9),
                fp: false,
            },
        ));
        t.push(TraceEntry::control(
            0x30000 + 4 * i,
            OpKind::CondBranch,
            None,
            [Some(RegRef::int(5)), Some(RegRef::int(6))],
            BranchEvent {
                taken: i % 2 == 0,
                target: 0x10000,
            },
        ));
    }
    t
}

fn valid_v2_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, &sample_trace()).unwrap();
    buf
}

/// Reads `bytes` through both entry points, asserting that neither
/// panics and both fail, and returns the error from each path.
fn read_both(bytes: &[u8]) -> (TraceIoError, TraceIoError) {
    let owned = bytes.to_vec();
    let materialized = catch_unwind(move || read_trace(owned.as_slice()).map(|_| ()))
        .expect("read_trace panicked on corrupt input");
    let owned = bytes.to_vec();
    let streamed = catch_unwind(move || match TraceReader::new(owned.as_slice()) {
        Ok(reader) => {
            for entry in reader {
                entry?;
            }
            Ok(())
        }
        Err(e) => Err(e),
    })
    .expect("TraceReader panicked on corrupt input");
    (
        materialized.expect_err("read_trace accepted corrupt input"),
        streamed.expect_err("TraceReader accepted corrupt input"),
    )
}

#[test]
fn bad_magic_is_typed() {
    let mut buf = valid_v2_bytes();
    buf[0] = b'X';
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::BadMagic), "{a:?}");
    assert!(matches!(b, TraceIoError::BadMagic), "{b:?}");
}

#[test]
fn unsupported_version_is_typed() {
    let mut buf = valid_v2_bytes();
    buf[4] = 9;
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::BadVersion(9)), "{a:?}");
    assert!(matches!(b, TraceIoError::BadVersion(9)), "{b:?}");
}

#[test]
fn truncated_header_is_typed() {
    // The v2 header is 24 bytes; cut it mid-count.
    let mut buf = valid_v2_bytes();
    buf.truncate(10);
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Truncated("header")), "{a:?}");
    assert!(matches!(b, TraceIoError::Truncated("header")), "{b:?}");
}

#[test]
fn truncation_mid_record_is_typed() {
    // Cut inside the first block's record bytes (header 24 + block
    // header 12 + a few record bytes).
    let mut buf = valid_v2_bytes();
    buf.truncate(24 + 12 + 5);
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Truncated(_)), "{a:?}");
    assert!(matches!(b, TraceIoError::Truncated(_)), "{b:?}");
}

#[test]
fn truncation_mid_record_v1_is_typed() {
    let mut buf = Vec::new();
    write_trace_v1(&mut buf, &sample_trace()).unwrap();
    buf.truncate(buf.len() - 3);
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Truncated("record")), "{a:?}");
    assert!(matches!(b, TraceIoError::Truncated("record")), "{b:?}");
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    // Flip one bit in every single payload byte in turn; every flip
    // must surface as ChecksumMismatch on block 0 (the first block
    // covers all 96 sample entries), and none may panic.
    let buf = valid_v2_bytes();
    let payload_start = 24 + 12;
    for pos in [payload_start, payload_start + 13, buf.len() - 1] {
        let mut corrupted = buf.clone();
        corrupted[pos] ^= 0x10;
        let (a, b) = read_both(&corrupted);
        assert!(
            matches!(a, TraceIoError::ChecksumMismatch { block: 0 }),
            "flip at {pos}: {a:?}"
        );
        assert!(
            matches!(b, TraceIoError::ChecksumMismatch { block: 0 }),
            "flip at {pos}: {b:?}"
        );
    }
}

#[test]
fn oversize_declared_count_is_typed() {
    // Patch the header's entry-count field (bytes 8..16) far beyond
    // what the declared payload can hold.
    let mut buf = valid_v2_bytes();
    buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let (a, b) = read_both(&buf);
    assert!(
        matches!(a, TraceIoError::BadCount { declared, .. } if declared == 1 << 40),
        "{a:?}"
    );
    assert!(matches!(b, TraceIoError::BadCount { .. }), "{b:?}");
}

#[test]
fn undersize_declared_count_is_rejected() {
    // A count *smaller* than the payload means trailing blocks would be
    // silently ignored; the reader flags it instead.
    let mut buf = valid_v2_bytes();
    buf[8..16].copy_from_slice(&1u64.to_le_bytes());
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Corrupt(_)), "{a:?}");
    assert!(matches!(b, TraceIoError::Corrupt(_)), "{b:?}");
}

/// Meta-assertion: sweep a corruption over *every* byte position
/// (bit-flip) and every truncation length of a valid stream. Whatever
/// the outcome — some single-byte flips in a u64 value field are
/// legitimately undetectable without a mismatch elsewhere — the reader
/// must never panic, and any failure must be a typed [`TraceIoError`].
#[test]
fn no_corruption_panics() {
    let buf = valid_v2_bytes();
    for pos in 0..buf.len() {
        let mut corrupted = buf.clone();
        corrupted[pos] ^= 0x80;
        let owned = corrupted.clone();
        catch_unwind(move || {
            let _ = read_trace(owned.as_slice());
        })
        .unwrap_or_else(|_| panic!("read_trace panicked with byte {pos} flipped"));
    }
    for len in 0..buf.len() {
        let owned = buf[..len].to_vec();
        catch_unwind(move || {
            let _ = read_trace(owned.as_slice());
        })
        .unwrap_or_else(|_| panic!("read_trace panicked at truncation length {len}"));
        // Truncation strictly inside the stream must never be accepted.
        assert!(
            read_trace(&buf[..len]).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
}
