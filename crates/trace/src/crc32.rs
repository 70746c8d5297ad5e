//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//!
//! Hand-rolled so the trace format stays dependency-free. The checksum
//! is computed *slice-by-16*: sixteen compile-time tables let one step
//! fold sixteen input bytes into the running CRC with sixteen
//! independent lookups, instead of a serial chain of sixteen one-byte
//! steps. Table `k` maps a byte to its CRC contribution when followed by
//! `k` zero bytes, so `TABLES[0]` is the classic bytewise table and the
//! result is bit-identical to the bytewise loop (kept as the test
//! oracle below).

/// Number of input bytes folded per slice step.
const SLICE: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// CRC-32 of `bytes` (standard IEEE variant, as produced by zlib's
/// `crc32()` or Python's `zlib.crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(SLICE);
    for chunk in &mut chunks {
        let c: &[u8; SLICE] = chunk.try_into().expect("chunks_exact yields SLICE bytes");
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xff) as usize]
            ^ t[14][((head >> 8) & 0xff) as usize]
            ^ t[13][((head >> 16) & 0xff) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Lcg;

    /// The bytewise reference: one `TABLES[0]` lookup per input byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"LVPT"), crc32(b"LVPT"));
        assert_ne!(crc32(b"LVPT"), crc32(b"LVPX"));
    }

    #[test]
    fn slice_by_16_matches_bytewise_at_every_length_and_offset() {
        let mut rng = Lcg::new(0xC4C3_2016);
        let data: Vec<u8> = (0..300 + SLICE).map(|_| rng.next() as u8).collect();
        for start in 0..SLICE {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(
                    crc32(s),
                    crc32_bytewise(s),
                    "length {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }
}
