//! CRC-32C (Castagnoli) checksums for block framing.
//!
//! The iSCSI/ext4 polynomial (reflected 0x82F63B78). The storage layer
//! uses it to detect payload corruption on store reads and in the v2
//! persist format, and the checksum sits on the segment framing path, so
//! the public entry points ([`crc32c`], [`crc32c_append`]) dispatch
//! through [`crate::simd::active`]: hosts with hardware CRC instructions
//! (SSE4.2 `crc32`, aarch64 FEAT_CRC32) run a 3-stream interleaved
//! hardware kernel, and everything else takes the portable slicing-by-8
//! kernel (`append_swar`) — eight input bytes folded per iteration
//! through eight precomputed tables, turning the classic one-table byte
//! loop's serial dependency chain into eight independent lookups per
//! load. `append_scalar` keeps the table-driven byte-at-a-time kernel
//! as the reference implementation. All tiers produce identical digests;
//! they are equivalence-tested here and property-tested per backend in
//! `tests/kernel_equivalence.rs`.

/// The reflected CRC-32C polynomial; also feeds the compile-time
/// zero-block combine operators in `simd::crc_shift`.
pub(crate) const POLY: u32 = 0x82F6_3B78;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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

/// `TABLES[k][b]` is the CRC contribution of byte `b` positioned `k` bytes
/// before the end of an 8-byte group: `TABLES[0]` is the classic table and
/// `TABLES[k+1][b] = TABLES[0][TABLES[k][b] & 0xFF] ^ (TABLES[k][b] >> 8)`
/// (one extra zero byte folded through).
const fn make_tables() -> [[u32; 256]; 8] {
    let t0 = make_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = t0;
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = t0[(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32C of `bytes` (the standard check value: `crc32c(b"123456789")`
/// is `0xE306_9283`).
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Extend a previously computed CRC-32C with more bytes, as if the two
/// byte runs had been hashed in one call. Start from `0`.
///
/// Dispatches to the best kernel the host supports (see
/// [`crate::simd`]); every tier produces identical digests.
#[inline]
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    crate::simd::active().crc32c_append(crc, bytes)
}

/// Portable slicing-by-8 kernel ([`crc32c_append`] semantics): each
/// iteration XORs the running CRC into the low half of an unaligned
/// little-endian `u64` load and folds all eight bytes through the eight
/// tables at once. The universal fallback tier.
pub(crate) fn append_swar(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunk of 8")) ^ c as u64;
        c = TABLES[7][(w & 0xFF) as usize]
            ^ TABLES[6][((w >> 8) & 0xFF) as usize]
            ^ TABLES[5][((w >> 16) & 0xFF) as usize]
            ^ TABLES[4][((w >> 24) & 0xFF) as usize]
            ^ TABLES[3][((w >> 32) & 0xFF) as usize]
            ^ TABLES[2][((w >> 40) & 0xFF) as usize]
            ^ TABLES[1][((w >> 48) & 0xFF) as usize]
            ^ TABLES[0][(w >> 56) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Reference byte-at-a-time kernel ([`crc32c_append`] semantics). The
/// `Backend::Scalar` tier: differential baseline for tests and benches,
/// never selected by detection.
pub(crate) fn append_scalar(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd;

    #[test]
    fn known_vectors() {
        // Check values from RFC 3720 / the iSCSI test suite, for the
        // dispatched entry point and every tier the host supports.
        for &b in simd::supported() {
            assert_eq!(b.crc32c_append(0, b""), 0, "{}", b.name());
            assert_eq!(
                b.crc32c_append(0, b"123456789"),
                0xE306_9283,
                "{}",
                b.name()
            );
            assert_eq!(b.crc32c_append(0, &[0u8; 32]), 0x8A91_36AA, "{}", b.name());
            assert_eq!(
                b.crc32c_append(0, &[0xFFu8; 32]),
                0x62A8_AB43,
                "{}",
                b.name()
            );
        }
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn all_tiers_match_scalar_all_lengths() {
        // Every length 0..=400 crosses a different chunk/remainder split
        // (and, for the hardware tiers, different word-tail mixes).
        let data: Vec<u8> = (0..400u32)
            .map(|i| (i.wrapping_mul(151) >> 2) as u8)
            .collect();
        for len in 0..=data.len() {
            let want = append_scalar(0, &data[..len]);
            for &b in simd::supported() {
                assert_eq!(
                    b.crc32c_append(0, &data[..len]),
                    want,
                    "{} len {len}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn append_composes() {
        let whole = crc32c(b"hello, world");
        let split = crc32c_append(crc32c(b"hello,"), b" world");
        assert_eq!(whole, split);
        // Composition also holds across a mid-word split and between tiers.
        let data = b"0123456789abcdef0123";
        for cut in 0..data.len() {
            let scalar = append_scalar(append_scalar(0, &data[..cut]), &data[cut..]);
            assert_eq!(scalar, crc32c(data), "cut {cut}");
            for &b in simd::supported() {
                let tier = b.crc32c_append(b.crc32c_append(0, &data[..cut]), &data[cut..]);
                assert_eq!(tier, scalar, "{} cut {cut}", b.name());
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"adaedge segment payload".to_vec();
        let crc = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), crc, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn multi_stream_blocks_match_scalar() {
        // Lengths that exercise the 3-stream long/short block paths of the
        // hardware kernels: around 3*64, 3*1024, and mixed tails.
        let data: Vec<u8> = (0..4000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        for len in [
            191, 192, 193, 200, 383, 384, 576, 1000, 3071, 3072, 3073, 3264, 3999, 4000,
        ] {
            let want = append_scalar(0, &data[..len]);
            for &b in simd::supported() {
                assert_eq!(
                    b.crc32c_append(0, &data[..len]),
                    want,
                    "{} len {len}",
                    b.name()
                );
            }
        }
    }
}
