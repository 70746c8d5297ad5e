//! Streaming trace reader.
//!
//! [`TraceReader`] parses an LVPT header eagerly and then yields
//! [`TraceEntry`] items on demand, holding at most one v2 block
//! (≤ [`BLOCK_ENTRIES`](crate::io) records) in memory — a multi-gigabyte
//! trace file can be scanned, verified, or filtered without ever
//! materializing a [`Trace`](crate::Trace). Both format versions are
//! supported: v2 blocks are CRC-checked before any record in them is
//! decoded, and v1 records stream straight off the reader.

use crate::crc32::crc32;
use crate::io::{
    decode_entry, decode_record, read_exact_or_truncated, TraceIoError, BLOCK_ENTRIES,
    BLOCK_HEADER_BYTES, FORMAT_VERSION, MAGIC, MAX_ENTRY_BYTES, MIN_ENTRY_BYTES, VERSION_V1,
};
use crate::TraceEntry;
use std::io::Read;

/// A streaming iterator over the records of a binary trace.
///
/// Yields `Result<TraceEntry, TraceIoError>`; after the first error the
/// iterator is fused (returns `None` forever). Construction parses and
/// validates the header, so a reader you successfully build always has
/// meaningful [`version`](TraceReader::version) /
/// [`declared_entries`](TraceReader::declared_entries) values.
///
/// # Examples
///
/// ```
/// use lvp_trace::{write_trace, Trace, TraceEntry, TraceReader, OpKind};
///
/// let trace: Trace =
///     (0..5).map(|i| TraceEntry::simple(0x1000 + 4 * i, OpKind::IntSimple)).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace)?;
///
/// let reader = TraceReader::new(buf.as_slice())?;
/// assert_eq!(reader.declared_entries(), 5);
/// let pcs: Vec<u64> = reader.map(|e| Ok::<_, lvp_trace::TraceIoError>(e?.pc))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(pcs, [0x1000, 0x1004, 0x1008, 0x100c, 0x1010]);
/// # Ok::<(), lvp_trace::TraceIoError>(())
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    reader: R,
    version: u16,
    declared: u64,
    yielded: u64,
    /// v2 only: declared payload bytes after the header.
    payload_len: u64,
    /// v2 only: payload bytes not yet consumed.
    payload_left: u64,
    blocks_read: u64,
    /// Current v2 block's record bytes (reused across blocks).
    block: Vec<u8>,
    block_pos: usize,
    block_entries_left: u32,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parses the stream header and positions the reader at the first
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] for a bad magic, an unsupported version,
    /// a truncated header, or a declared entry count the declared
    /// payload cannot possibly hold.
    pub fn new(mut reader: R) -> Result<TraceReader<R>, TraceIoError> {
        let mut magic = [0u8; 4];
        read_exact_or_truncated(&mut reader, &mut magic, "header")?;
        if &magic != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        let mut hdr = [0u8; 4];
        read_exact_or_truncated(&mut reader, &mut hdr, "header")?;
        let version = u16::from_le_bytes([hdr[0], hdr[1]]);
        if version != VERSION_V1 && version != FORMAT_VERSION {
            return Err(TraceIoError::BadVersion(version));
        }
        let mut count_bytes = [0u8; 8];
        read_exact_or_truncated(&mut reader, &mut count_bytes, "header")?;
        let declared = u64::from_le_bytes(count_bytes);
        let payload_len = if version == FORMAT_VERSION {
            let mut len_bytes = [0u8; 8];
            read_exact_or_truncated(&mut reader, &mut len_bytes, "header")?;
            let payload_len = u64::from_le_bytes(len_bytes);
            // Up-front plausibility check: every record is at least
            // MIN_ENTRY_BYTES and every block adds a fixed header, so a
            // wildly oversized declared count is rejected before any
            // block is even read.
            let blocks = declared.div_ceil(BLOCK_ENTRIES as u64);
            if declared
                .saturating_mul(MIN_ENTRY_BYTES)
                .saturating_add(blocks.saturating_mul(BLOCK_HEADER_BYTES))
                > payload_len
            {
                return Err(TraceIoError::BadCount {
                    declared,
                    limit: payload_len / MIN_ENTRY_BYTES,
                });
            }
            payload_len
        } else {
            0
        };
        Ok(TraceReader {
            reader,
            version,
            declared,
            yielded: 0,
            payload_len,
            payload_left: payload_len,
            blocks_read: 0,
            block: Vec::new(),
            block_pos: 0,
            block_entries_left: 0,
            done: false,
        })
    }

    /// The stream's format version (1 or 2).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The entry count the header declares.
    pub fn declared_entries(&self) -> u64 {
        self.declared
    }

    /// Entries successfully yielded so far.
    pub fn entries_read(&self) -> u64 {
        self.yielded
    }

    /// The payload length the v2 header declares (0 for v1 streams,
    /// which carry no length field).
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// Number of v2 blocks consumed (and checksum-verified) so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Loads and checksum-verifies the next v2 block.
    fn next_block(&mut self) -> Result<(), TraceIoError> {
        if self.payload_left == 0 {
            // The declared payload is exhausted but the declared entry
            // count has not been reached.
            return Err(TraceIoError::BadCount {
                declared: self.declared,
                limit: self.yielded,
            });
        }
        if self.payload_left < BLOCK_HEADER_BYTES {
            return Err(TraceIoError::Truncated("block header"));
        }
        let mut hdr = [0u8; 12];
        read_exact_or_truncated(&mut self.reader, &mut hdr, "block header")?;
        let entries = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let byte_len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
        let checksum = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
        if entries == 0 {
            return Err(TraceIoError::Corrupt("empty block"));
        }
        let (lo, hi) = (
            entries as u64 * MIN_ENTRY_BYTES,
            entries as u64 * MAX_ENTRY_BYTES,
        );
        if (byte_len as u64) < lo || (byte_len as u64) > hi {
            return Err(TraceIoError::Corrupt("block length"));
        }
        if byte_len as u64 > self.payload_left - BLOCK_HEADER_BYTES {
            return Err(TraceIoError::Truncated("block payload"));
        }
        self.block.resize(byte_len as usize, 0);
        read_exact_or_truncated(&mut self.reader, &mut self.block, "block payload")?;
        let got = crc32(&self.block);
        if got != checksum {
            return Err(TraceIoError::ChecksumMismatch {
                block: self.blocks_read,
            });
        }
        self.payload_left -= BLOCK_HEADER_BYTES + byte_len as u64;
        self.blocks_read += 1;
        self.block_pos = 0;
        self.block_entries_left = entries;
        Ok(())
    }

    /// The end-of-stream check once the declared entry count has been
    /// yielded: a v2 payload must end exactly there.
    fn finish(&self) -> Result<(), TraceIoError> {
        if self.version == FORMAT_VERSION
            && (self.payload_left != 0 || self.block_entries_left != 0)
        {
            return Err(TraceIoError::Corrupt("payload continues past entry count"));
        }
        Ok(())
    }

    fn next_entry(&mut self) -> Result<Option<TraceEntry>, TraceIoError> {
        if self.yielded == self.declared {
            return self.finish().map(|()| None);
        }
        if self.version == VERSION_V1 {
            let entry = decode_entry(&mut self.reader)?;
            self.yielded += 1;
            return Ok(Some(entry));
        }
        if self.block_entries_left == 0 {
            self.next_block()?;
        }
        let (entry, len) = decode_record(&self.block[self.block_pos..])?;
        self.block_pos += len;
        self.block_entries_left -= 1;
        if self.block_entries_left == 0 && self.block_pos != self.block.len() {
            return Err(TraceIoError::Corrupt("trailing bytes in block"));
        }
        self.yielded += 1;
        Ok(Some(entry))
    }

    /// Appends the rest of the current v2 block (loading the next one
    /// first if it is exhausted) to `out`, decoding straight from the
    /// verified block bytes in one loop. Stops early at the declared
    /// entry count; the next call then reports any payload beyond it.
    fn next_block_entries(&mut self, out: &mut Vec<TraceEntry>) -> Result<(), TraceIoError> {
        if self.yielded == self.declared {
            return self.finish();
        }
        if self.block_entries_left == 0 {
            self.next_block()?;
        }
        let n = u64::from(self.block_entries_left).min(self.declared - self.yielded) as usize;
        out.reserve(n);
        // The cursor lives in a local and progress is published once per
        // block: updating the fields per record measured ~20% slower.
        let start = out.len();
        let mut pos = self.block_pos;
        let mut result = Ok(());
        for _ in 0..n {
            match decode_record(&self.block[pos..]) {
                Ok((entry, len)) => {
                    pos += len;
                    out.push(entry);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let decoded = out.len() - start;
        self.block_pos = pos;
        self.block_entries_left -= decoded as u32;
        self.yielded += decoded as u64;
        result?;
        if self.block_entries_left == 0 && self.block_pos != self.block.len() {
            // As when iterating, the block's last record carries the
            // error instead of being yielded.
            out.pop();
            self.yielded -= 1;
            return Err(TraceIoError::Corrupt("trailing bytes in block"));
        }
        Ok(())
    }

    /// Decodes the next block of records into `out` (cleared first) and
    /// returns how many were appended; `Ok(0)` means the stream is
    /// cleanly exhausted.
    ///
    /// This is the batch hot path under [`read_trace`](crate::read_trace)
    /// and the harness disk cache: one call per v2 block (or per
    /// [`BLOCK_ENTRIES`] records of a v1 stream) lets consumers process
    /// `&[TraceEntry]` slices while reusing a single buffer, instead of
    /// paying the iterator protocol per record. Error semantics are
    /// identical to iterating: the same [`TraceIoError`]s surface at the
    /// same records, and the reader fuses after the first error.
    ///
    /// # Errors
    ///
    /// Any [`TraceIoError`] the per-record iterator would produce within
    /// the block. Records decoded before the error are left in `out`.
    pub fn next_entries(&mut self, out: &mut Vec<TraceEntry>) -> Result<usize, TraceIoError> {
        out.clear();
        if self.done {
            return Ok(0);
        }
        if self.version == FORMAT_VERSION {
            if let Err(e) = self.next_block_entries(out) {
                self.done = true;
                return Err(e);
            }
            if out.is_empty() {
                self.done = true;
            }
            return Ok(out.len());
        }
        // v1: an equally-sized batch of records streamed off the reader.
        out.reserve(BLOCK_ENTRIES);
        while out.len() < BLOCK_ENTRIES {
            match self.next_entry() {
                Ok(Some(entry)) => out.push(entry),
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        Ok(out.len())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEntry, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_entry() {
            Ok(Some(entry)) => Some(Ok(entry)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.declared - self.yielded) as usize;
        if self.done {
            (0, Some(0))
        } else {
            (0, Some(left))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_trace;
    use crate::{OpKind, Trace};

    fn big_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| {
                let mut e = TraceEntry::simple(0x10000 + 4 * i, OpKind::Load);
                e.mem = Some(crate::MemAccess {
                    addr: 0x20_0000 + 8 * i,
                    width: 8,
                    value: i.wrapping_mul(0x9e37),
                    fp: false,
                });
                e
            })
            .collect()
    }

    #[test]
    fn streams_across_block_boundaries() {
        let n = 2 * BLOCK_ENTRIES as u64 + 17;
        let t = big_trace(n);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.version(), FORMAT_VERSION);
        assert_eq!(reader.declared_entries(), n);
        let mut count = 0u64;
        for (i, e) in reader.by_ref().enumerate() {
            let e = e.unwrap();
            assert_eq!(e.pc, 0x10000 + 4 * i as u64);
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(reader.entries_read(), n);
        assert_eq!(reader.blocks_read(), 3);
    }

    #[test]
    fn fuses_after_error() {
        let t = big_trace(8);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let first = reader.next().unwrap();
        assert!(first.is_err());
        assert!(reader.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn header_errors_surface_at_construction() {
        assert!(matches!(
            TraceReader::new(&b"LVP"[..]).unwrap_err(),
            TraceIoError::Truncated("header")
        ));
        assert!(matches!(
            TraceReader::new(&b"XXXX\x02\x00\x00\x00"[..]).unwrap_err(),
            TraceIoError::BadMagic
        ));
    }

    #[test]
    fn rejects_oversize_declared_count_before_reading_blocks() {
        let t = big_trace(4);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        // Patch the count field (bytes 8..16) to something enormous.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::BadCount { declared, .. } if declared == u64::MAX),
            "{err:?}"
        );
    }

    #[test]
    fn next_entries_matches_per_record_iteration() {
        let n = 2 * BLOCK_ENTRIES as u64 + 17;
        let t = big_trace(n);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let iterated: Vec<TraceEntry> = TraceReader::new(buf.as_slice())
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut batched = Vec::new();
        let mut block = Vec::new();
        let mut calls = 0;
        while reader.next_entries(&mut block).unwrap() > 0 {
            batched.extend_from_slice(&block);
            calls += 1;
        }
        assert_eq!(batched, iterated);
        assert_eq!(calls, 3, "one call per block");
        assert_eq!(reader.entries_read(), n);
    }

    #[test]
    fn next_entries_surfaces_errors_and_fuses() {
        let t = big_trace(8);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut block = Vec::new();
        assert!(matches!(
            reader.next_entries(&mut block),
            Err(TraceIoError::ChecksumMismatch { block: 0 })
        ));
        assert_eq!(
            reader.next_entries(&mut block).unwrap(),
            0,
            "reader must fuse after an error"
        );
    }

    #[test]
    fn empty_trace_streams_zero_entries() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.declared_entries(), 0);
        assert!(reader.next().is_none());
    }
}
