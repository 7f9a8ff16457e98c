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
//! recognisable in hexdumps. Two kernels compute the same value:
//!
//! * **Carry-less folding** (x86_64 only), taken by [`crc32_update`] for
//!   inputs of at least 64 bytes when the CPU reports both `pclmulqdq`
//!   and `sse4.1` at run time. It is the method of Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction" (Intel, 2009), with the reflected IEEE constants zlib's
//!   `crc32_simd` uses: four 16-byte lanes fold across each 64 bytes,
//!   then into one 128-bit lane, then to 64 bits, and a Barrett
//!   reduction yields the 32-bit state. The final fewer than 16 bytes go
//!   through the sliced loop below.
//! * **Slicing-by-16**, everywhere else (other targets, CPUs without
//!   the two features, inputs under 64 bytes): sixteen 256-entry
//!   tables, all built at compile time, fold 16 input bytes per step
//!   instead of one, and a bytewise loop over the first table finishes
//!   the tail.
//!
//! Both give zlib's values for every input and every start state, so a
//! sidecar or journal record written on one machine verifies on any
//! other.

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
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: both features the kernel enables were detected on this
        // CPU just above, and the input is at least 64 bytes long.
        return unsafe { crc32_folded(state, data) };
    }
    crc32_sliced(state, data)
}

/// The portable kernel: slicing-by-16, then one byte per step.
fn crc32_sliced(state: u32, data: &[u8]) -> u32 {
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

/// One 16-byte lane, loaded unaligned.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane(bytes: &[u8]) -> std::arch::x86_64::__m128i {
    let bytes: &[u8; 16] = bytes.try_into().expect("a lane is 16 bytes");
    // SAFETY: `bytes` is 16 readable bytes, `_mm_loadu_si128` has no
    // alignment requirement, and SSE2 is part of the x86_64 baseline.
    unsafe { std::arch::x86_64::_mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// [`crc32_update`] by carry-less multiplication: folds every whole
/// 16-byte block of `data`, then finishes the tail with the sliced loop.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` and `sse4.1`. `data` must hold at
/// least 64 bytes; a shorter input panics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc32_folded(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    // Folding constants for the reflected IEEE polynomial (Gopal et al.
    // 2009, as in zlib's `crc32_simd`): K1/K2 fold a lane across 64
    // bytes, K3/K4 across 16, K5 folds 96 bits to 64, and P (P′) with
    // MU (μ) drive the Barrett reduction.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    // x·k folded onto y: the lane's low half times the key's low half,
    // its high half times the key's high half, both added to `y`.
    let fold = |x: __m128i, k: __m128i, y: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    };

    // Four lanes, the state folded into the first.
    let (head, rest) = data.split_at(64);
    let mut x1 = _mm_xor_si128(lane(&head[..16]), _mm_cvtsi32_si128(state as i32));
    let mut x2 = lane(&head[16..32]);
    let mut x3 = lane(&head[32..48]);
    let mut x4 = lane(&head[48..]);

    // Each lane folds 64 bytes ahead onto the next block's lane.
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut blocks = rest.chunks_exact(64);
    for b in &mut blocks {
        x1 = fold(x1, k1k2, lane(&b[..16]));
        x2 = fold(x2, k1k2, lane(&b[16..32]));
        x3 = fold(x3, k1k2, lane(&b[32..48]));
        x4 = fold(x4, k1k2, lane(&b[48..]));
    }

    // The four lanes into one, then one lane per remaining 16 bytes.
    let k3k4 = _mm_set_epi64x(K4, K3);
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    let mut singles = blocks.remainder().chunks_exact(16);
    for b in &mut singles {
        x1 = fold(x1, k3k4, lane(b));
    }

    // 128 bits to 64.
    let low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x1 = _mm_xor_si128(
        _mm_srli_si128::<8>(x1),
        _mm_clmulepi64_si128::<0x10>(x1, k3k4),
    );
    let k5 = _mm_set_epi64x(0, K5);
    x1 = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5),
        _mm_srli_si128::<4>(x1),
    );

    // Barrett reduction to 32 bits.
    let poly = _mm_set_epi64x(MU, P);
    let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly);
    t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
    x1 = _mm_xor_si128(x1, t);

    crc32_sliced(_mm_extract_epi32::<1>(x1) as u32, singles.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table, one-byte-per-step loop: the reference both
    /// kernels must equal.
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

    /// `len` bytes of an xorshift stream: no period the folds could hide
    /// behind.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Lengths on either side of every boundary the folding kernel has:
    /// the 16-byte lane, the 64-byte entry minimum and block, a 16-byte
    /// single fold after the blocks, a short tail, and large inputs.
    const EDGE_LENGTHS: [usize; 14] = [
        15,
        16,
        63,
        64,
        65,
        79,
        80,
        127,
        128,
        129,
        65_535,
        65_536,
        65_537,
        (1 << 20) + 5,
    ];

    const STATES: [u32; 3] = [0xFFFF_FFFF, 0, 0x1234_5678];

    /// The dispatch and each kernel directly: on a CPU with PCLMUL the
    /// dispatch never sends 64 bytes or more to the portable kernel,
    /// which other targets run, and a dispatch that stopped taking the
    /// folding kernel would still leave it tested.
    #[test]
    fn every_kernel_matches_reference_at_edge_lengths() {
        let data = noise((1 << 20) + 5);
        #[cfg(target_arch = "x86_64")]
        let folds = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        for len in (0..=130).chain(EDGE_LENGTHS) {
            let data = &data[..len];
            for state in STATES {
                let want = reference(state, data);
                assert_eq!(crc32_update(state, data), want, "len {len}");
                assert_eq!(crc32_sliced(state, data), want, "sliced, len {len}");
                #[cfg(target_arch = "x86_64")]
                if folds && len >= 64 {
                    // SAFETY: both features were detected above, and the
                    // input is at least 64 bytes long.
                    let got = unsafe { crc32_folded(state, data) };
                    assert_eq!(got, want, "folded, len {len}");
                }
            }
        }
    }

    proptest! {
        /// One-shot CRC equals the reference at every start offset of a
        /// larger buffer, so the 16-byte lanes meet every alignment and
        /// both kernels meet every length up to 4 KiB.
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
        /// a chunk boundary may fall anywhere inside a 16-byte block, and
        /// one chain mixes chunks above and below the folding minimum.
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
