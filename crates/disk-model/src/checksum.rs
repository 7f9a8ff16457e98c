//! Per-block CRC32 checksums.
//!
//! EEVFS verifies every block it reads (and every block a scrub pass
//! touches) against a stored CRC32 so silent corruption — bit rot on a
//! platter, a latent sector error surfacing — is *detected* rather than
//! served. CRC32 (the IEEE 802.3 polynomial, reflected form) is the
//! classic storage-integrity choice: it catches every single-bit error,
//! every odd number of bit errors, and all burst errors up to 32 bits,
//! which covers the corruption model the fault layer injects.
//!
//! Hand-rolled, no external crate, and byte-for-byte compatible with the
//! ubiquitous `crc32` (zlib/PNG) checksum so stored values are
//! recognisable in hexdumps. The update loop is slicing-by-16: sixteen
//! 256-entry tables, all built at compile time, fold 16 input bytes per
//! step instead of one, and a bytewise loop over the first table
//! finishes the tail.

/// Fixed logical block size used for checksum and scrub accounting, 64 KiB.
///
/// The paper's files are 1–50 MB, so a file spans tens to hundreds of
/// blocks; per-block (rather than per-file) checksums are what let a
/// repair fetch only the damaged fraction from a replica.
pub const BLOCK_SIZE: u64 = 64 * 1024;

/// Number of `BLOCK_SIZE` blocks needed to hold `bytes` (at least 1, so
/// even an empty file owns a checksummed block).
pub fn blocks_of(bytes: u64) -> u64 {
    bytes.div_ceil(BLOCK_SIZE).max(1)
}

/// The reflected CRC32 (IEEE 802.3 / zlib) lookup table.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing tables: `TABLES[k][b]` is the CRC state contribution of byte
/// `b` followed by `k` zero bytes, so `TABLES[0]` is the classic table.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = build_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC32 (IEEE/zlib) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed `state` (start from `0xFFFF_FFFF`) through
/// successive chunks, then XOR with `0xFFFF_FFFF` to finish.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The state folds into the first four bytes; byte `j` of the
        // block is then followed by `15 - j` more bytes.
        let s = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(s & 0xFF) as usize]
            ^ t[14][((s >> 8) & 0xFF) as usize]
            ^ t[13][((s >> 16) & 0xFF) as usize]
            ^ t[12][(s >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table, one-byte-per-step loop the sliced update replaced:
    /// the reference every sliced output must equal.
    fn reference(state: u32, data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = build_table();
        let mut crc = state;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    fn reference_crc32(data: &[u8]) -> u32 {
        reference(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    proptest! {
        /// One-shot CRC equals the reference at every start offset of a
        /// larger buffer, so the 16-byte blocks meet every alignment.
        #[test]
        fn sliced_matches_reference_at_every_offset(
            data in collection::vec(any::<u8>(), 0..4097),
        ) {
            let want = reference_crc32(&data);
            prop_assert_eq!(crc32(&data), want);
            for off in 0..16 {
                let mut buf = vec![0xA5u8; off];
                buf.extend_from_slice(&data);
                prop_assert_eq!(crc32(&buf[off..]), want, "offset {}", off);
            }
        }

        /// Streaming through arbitrary split points equals the reference:
        /// a chunk boundary may fall anywhere inside a 16-byte block.
        #[test]
        fn sliced_streaming_matches_reference_at_any_split(
            data in collection::vec(any::<u8>(), 0..4097),
            cuts in collection::vec(0..4097usize, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut state = 0xFFFF_FFFFu32;
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                state = crc32_update(state, &data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(state, reference(0xFFFF_FFFF, &data));
        }
    }

    #[test]
    fn matches_known_vectors() {
        // Classic zlib/PNG test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"energy efficient prefetching with buffer disks";
        let mut state = 0xFFFF_FFFFu32;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn block_math() {
        assert_eq!(blocks_of(0), 1);
        assert_eq!(blocks_of(1), 1);
        assert_eq!(blocks_of(BLOCK_SIZE), 1);
        assert_eq!(blocks_of(BLOCK_SIZE + 1), 2);
        assert_eq!(blocks_of(50 * 1_000_000), 763);
    }
}
