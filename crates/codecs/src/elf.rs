//! Elf: erasing-based lossless floating-point compression (Li et al.,
//! VLDB 2023) — the BUFF-follow-up the paper cites (§III-A1).
//!
//! Elf observes that a double carrying `p` significant decimal digits does
//! not need its full 52-bit mantissa: the low-order bits can be *erased*
//! (zeroed) without changing the value at the declared precision, and a
//! mantissa full of trailing zeros makes the XOR of consecutive values
//! dramatically more compressible. We erase each value to the shortest
//! mantissa that still round-trips at the dataset precision, then encode
//! the erased stream with the Gorilla XOR coder.
//!
//! Payload: `precision: u8`, then the Gorilla payload of the erased values.
//! Decompression re-rounds to the declared precision, the same lossless
//! convention as Sprintz/BUFF.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::bitio::{BitReader, BitWriter};
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::gorilla::{gorilla_decode_into, gorilla_encode};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};
use crate::util::{pow10, round_to_precision};

/// Elf codec at a fixed decimal precision.
#[derive(Debug, Clone, Copy)]
pub struct Elf {
    precision: u8,
}

impl Elf {
    /// Create an Elf codec for data with `precision` decimal digits.
    pub fn new(precision: u8) -> Self {
        Self { precision }
    }

    /// The precision this codec erases to.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Zero the most trailing mantissa bits possible while preserving the
    /// value at `precision` decimal digits.
    fn erase(v: f64, precision: u8) -> f64 {
        if !v.is_finite() {
            return v;
        }
        let target = round_to_precision(v, precision);
        let bits = v.to_bits();
        // Keeping more mantissa bits only moves the candidate closer to v,
        // so the round-trip property is monotone in `keep`: binary search
        // the smallest number of kept bits.
        let erased_ok = |keep: u32| -> Option<f64> {
            let mask = if keep >= 52 {
                u64::MAX
            } else {
                !((1u64 << (52 - keep)) - 1)
            };
            let candidate = f64::from_bits(bits & mask);
            (round_to_precision(candidate, precision) == target).then_some(candidate)
        };
        let (mut lo, mut hi) = (0u32, 52u32);
        let mut best = v;
        if let Some(c) = erased_ok(0) {
            return c;
        }
        while lo < hi {
            let mid = (lo + hi) / 2;
            match erased_ok(mid) {
                Some(c) => {
                    best = c;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        // Monotonicity can be violated in rare rounding corner cases; the
        // final verification falls back to the exact value.
        match erased_ok(lo) {
            Some(c) => c,
            None => best,
        }
    }
}

impl Codec for Elf {
    fn id(&self) -> CodecId {
        CodecId::Elf
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossless
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        pow10(self.precision)?;
        for v in data {
            if !v.is_finite() {
                return Err(CodecError::UnsupportedValue("non-finite float"));
            }
        }
        let CodecScratch { out, f64s, .. } = scratch;
        f64s.clear();
        f64s.reserve(data.len());
        f64s.extend(data.iter().map(|&v| Self::erase(v, self.precision)));
        // Precision byte, then the Gorilla stream: writing the byte through
        // the same writer leaves it byte-aligned, so the payload is
        // identical to a prepended header.
        let mut w = BitWriter::over(std::mem::take(out));
        w.reserve(1 + data.len() * 8);
        w.write_bits(self.precision as u64, 8);
        gorilla_encode(f64s, &mut w);
        *out = w.finish();
        Ok(CompressedBlockRef::new(self.id(), data.len(), out))
    }

    // `payload[0]` / `payload[1..]` are guarded by the emptiness check above them.
    #[allow(clippy::indexing_slicing)]
    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        if block.payload.is_empty() {
            return Err(CodecError::Corrupt("elf payload empty"));
        }
        let precision = block.payload[0];
        let mut r = BitReader::new(&block.payload[1..]);
        gorilla_decode_into(&mut r, block.n_points as usize, out)?;
        for v in out.iter_mut() {
            *v = round_to_precision(*v, precision);
        }
        Ok(())
    }
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::gorilla::Gorilla;

    fn sample(n: usize, precision: u8) -> Vec<f64> {
        (0..n)
            .map(|i| round_to_precision((i as f64 * 0.0173).sin() * 42.5, precision))
            .collect()
    }

    #[test]
    fn roundtrip_at_precision() {
        for p in [2u8, 4, 6] {
            let data = sample(500, p);
            let elf = Elf::new(p);
            let block = elf.compress(&data).unwrap();
            let back = elf.decompress(&block).unwrap();
            assert_eq!(back.len(), data.len());
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "p={p}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn erasing_preserves_rounded_value() {
        for &v in &[0.0, 1.0, -1.5, 123.456789, 1e-6, -9.87654e4] {
            for p in 0u8..=8 {
                let erased = Elf::erase(v, p);
                assert_eq!(
                    round_to_precision(erased, p),
                    round_to_precision(v, p),
                    "v={v} p={p}"
                );
            }
        }
    }

    #[test]
    fn erased_values_have_more_trailing_zeros() {
        let v = round_to_precision(3.7241, 4);
        let erased = Elf::erase(v, 4);
        assert!(erased.to_bits().trailing_zeros() >= v.to_bits().trailing_zeros());
        assert!(erased.to_bits().trailing_zeros() >= 20, "erasing too weak");
    }

    #[test]
    fn beats_plain_gorilla_on_rounded_data() {
        // The whole point of Elf: erased mantissas XOR to short windows.
        let data = sample(2000, 4);
        let elf_block = Elf::new(4).compress(&data).unwrap();
        let gorilla_block = Gorilla.compress(&data).unwrap();
        assert!(
            elf_block.compressed_bytes() < gorilla_block.compressed_bytes(),
            "elf {} vs gorilla {}",
            elf_block.compressed_bytes(),
            gorilla_block.compressed_bytes()
        );
    }

    #[test]
    fn zero_and_negative_zero() {
        let data = vec![0.0, -0.0, 0.0];
        let elf = Elf::new(4);
        let back = elf.decompress(&elf.compress(&data).unwrap()).unwrap();
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_non_finite() {
        assert!(Elf::new(4).compress(&[f64::NAN]).is_err());
        assert!(Elf::new(4).compress(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn corrupt_payload_detected() {
        let data = sample(100, 4);
        let block = Elf::new(4).compress(&data).unwrap();
        let mut bad = block.clone();
        bad.payload.truncate(3);
        assert!(Elf::new(4).decompress(&bad).is_err());
        let mut empty = block;
        empty.payload.clear();
        assert!(Elf::new(4).decompress(&empty).is_err());
    }
}
