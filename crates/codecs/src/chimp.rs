//! CHIMP: the optimized Gorilla variant (Liakos et al., VLDB 2022).
//!
//! Like Gorilla, CHIMP XORs each value with its predecessor, but it uses a
//! 2-bit flag per value and a rounded 3-bit leading-zero representation,
//! which shortens the common cases considerably:
//!
//! * `00` — XOR is zero (identical value).
//! * `01` — XOR has more than 6 trailing zeros: store 3-bit rounded leading
//!   count + 6-bit center length + the center bits.
//! * `10` — leading count equal to the previous one: store the low
//!   `64 − lead` bits of the XOR directly.
//! * `11` — new leading count: store 3-bit rounded leading count + the low
//!   `64 − lead` bits.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::bitio::{BitReader, BitWriter};
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};

/// Rounded leading-zero buckets used by CHIMP (3-bit representation).
// Const table build: the `while i < 65` loop bounds every write.
#[allow(clippy::indexing_slicing)]
const LEADING_ROUND: [u32; 65] = {
    let mut t = [0u32; 65];
    let mut i = 0;
    while i < 65 {
        t[i] = match i {
            0..=7 => 0,
            8..=11 => 8,
            12..=15 => 12,
            16..=17 => 16,
            18..=19 => 18,
            20..=21 => 20,
            22..=23 => 22,
            _ => 24,
        };
        i += 1;
    }
    t
};

/// Map a rounded leading count to its 3-bit code.
#[inline]
fn leading_code(rounded: u32) -> u64 {
    match rounded {
        0 => 0,
        8 => 1,
        12 => 2,
        16 => 3,
        18 => 4,
        20 => 5,
        22 => 6,
        _ => 7, // 24
    }
}

/// Inverse of [`leading_code`].
#[inline]
// `code` comes from a 3-bit read, so it is always in 0..=7.
#[allow(clippy::indexing_slicing)]
fn leading_from_code(code: u64) -> u32 {
    [0, 8, 12, 16, 18, 20, 22, 24][code as usize]
}

/// CHIMP codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Chimp;

impl Codec for Chimp {
    fn id(&self) -> CodecId {
        CodecId::Chimp
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossless
    }

    // Encode path over caller-validated input: `data` is checked non-empty
    // below, and `LEADING_ROUND` has 65 entries for leading_zeros() in 0..=64.
    #[allow(clippy::indexing_slicing)]
    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        let mut w = BitWriter::over(std::mem::take(&mut scratch.out));
        w.reserve(data.len() * 8);
        let mut prev = data[0].to_bits();
        w.write_bits(prev, 64);
        let mut prev_lead: u32 = u32::MAX;
        for &v in &data[1..] {
            let bits = v.to_bits();
            let xor = bits ^ prev;
            prev = bits;
            if xor == 0 {
                w.write_bits(0b00, 2);
                prev_lead = u32::MAX; // paper resets the stored leading count
                continue;
            }
            let lead = LEADING_ROUND[xor.leading_zeros() as usize];
            let trail = xor.trailing_zeros();
            if trail > 6 {
                // Center-bits case.
                let center = 64 - lead - trail;
                w.write_bits(0b01, 2);
                w.write_bits(leading_code(lead), 3);
                w.write_bits(center as u64, 6);
                w.write_bits(xor >> trail, center);
                prev_lead = u32::MAX;
            } else if lead == prev_lead {
                w.write_bits(0b10, 2);
                w.write_bits(xor, 64 - lead);
            } else {
                w.write_bits(0b11, 2);
                w.write_bits(leading_code(lead), 3);
                w.write_bits(xor, 64 - lead);
                prev_lead = lead;
            }
        }
        scratch.out = w.finish();
        Ok(CompressedBlockRef::new(self.id(), data.len(), &scratch.out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        out.clear();
        if n == 0 {
            return Ok(());
        }
        out.reserve(n);
        let mut r = BitReader::new(&block.payload);
        let mut prev = r.read_bits(64)?;
        out.push(f64::from_bits(prev));
        let mut prev_lead: u32 = u32::MAX;
        for _ in 1..n {
            let flag = r.read_bits(2)?;
            let xor = match flag {
                0b00 => {
                    prev_lead = u32::MAX;
                    0
                }
                0b01 => {
                    let lead = leading_from_code(r.read_bits(3)?);
                    let center = r.read_bits(6)? as u32;
                    // The encoder never writes center = 0 here, but corrupt
                    // input can; a zero center would shift by 64 below.
                    if center == 0 || lead + center > 64 {
                        return Err(CodecError::Corrupt("chimp center out of range"));
                    }
                    let trail = 64 - lead - center;
                    let bits = r.read_bits(center)?;
                    prev_lead = u32::MAX;
                    bits << trail
                }
                0b10 => {
                    if prev_lead == u32::MAX {
                        return Err(CodecError::Corrupt("chimp lead reuse before set"));
                    }
                    r.read_bits(64 - prev_lead)?
                }
                _ => {
                    let lead = leading_from_code(r.read_bits(3)?);
                    prev_lead = lead;
                    r.read_bits(64 - lead)?
                }
            };
            prev ^= xor;
            out.push(f64::from_bits(prev));
        }
        Ok(())
    }
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) {
        let c = Chimp;
        let block = c.compress(data).unwrap();
        let back = c.decompress(&block).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_constant() {
        roundtrip(&[7.25; 257]);
    }

    #[test]
    fn roundtrip_smooth_signal() {
        let data: Vec<f64> = (0..1000).map(|i| 100.0 + (i as f64 * 0.02).cos()).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_noisy_signal() {
        // Pseudorandom but deterministic values.
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<f64> = (0..300)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_specials() {
        roundtrip(&[0.0, -0.0, 1e-308, -1e308, 1.0, -1.0]);
    }

    #[test]
    fn beats_gorilla_on_smooth_data() {
        // CHIMP's claim: shorter codes on typical time series.
        let data: Vec<f64> = (0..2000).map(|i| 55.0 + (i as f64 * 0.005).sin()).collect();
        let chimp = Chimp.compress(&data).unwrap();
        let gorilla = crate::gorilla::Gorilla.compress(&data).unwrap();
        // Allow a little slack; on most smooth inputs CHIMP is at least close.
        assert!(
            chimp.compressed_bytes() as f64 <= gorilla.compressed_bytes() as f64 * 1.10,
            "chimp {} vs gorilla {}",
            chimp.compressed_bytes(),
            gorilla.compressed_bytes()
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Chimp.compress(&[]), Err(CodecError::EmptyInput));
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let block = Chimp.compress(&data).unwrap();
        let mut bad = block.clone();
        bad.payload.truncate(4);
        assert!(Chimp.decompress(&bad).is_err());
    }
}
