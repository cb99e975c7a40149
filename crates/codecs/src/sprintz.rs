//! Sprintz-style compression (Blalock et al., IMWUT 2018) for quantized
//! time series: delta prediction + zigzag + per-block bit-packing.
//!
//! The codec quantizes doubles to fixed-point integers at the dataset's
//! declared decimal precision (the paper tailors precision per dataset:
//! 4 digits for CBF, 5 for UCR, 6 for UCI), then encodes the first value
//! raw and the rest as zigzagged deltas packed in blocks of 128 with an
//! 8-bit width header each. Decompression restores the quantized values
//! exactly, which is the paper's definition of lossless for these codecs.
//!
//! Encoding makes one fused pass per block: the backend's
//! [`quantize_deltas`](crate::simd::Backend::quantize_deltas) quantizes the
//! block's points, takes their wrapping deltas, zigzags them and ORs them
//! together (the OR's bit length is the block's width) into a 128-entry
//! lane, which [`pack_run`](crate::simd::Backend::pack_run) then packs.
//! The header and every full block are whole bytes, so every block is
//! packed from a byte boundary. The pass flags exactly the inputs
//! [`quantize_into`] rejects; such an input is run through it again, so
//! the error is the one its 64-point chunks report first.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::bitio::{bits_needed, zigzag_encode, BitReader};
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};
use crate::util::{dequantize_into, pow10, quantize_into, quantize_point, QUANT_LIMIT};

/// Deltas per bit-packed block.
const BLOCK: usize = 128;

/// Sprintz codec at a fixed decimal precision.
#[derive(Debug, Clone, Copy)]
pub struct Sprintz {
    precision: u8,
}

impl Sprintz {
    /// Create a Sprintz codec for data with `precision` significant decimal
    /// digits after the point (must be ≤ 12).
    pub fn new(precision: u8) -> Self {
        Self { precision }
    }

    /// The precision this codec quantizes to.
    pub fn precision(&self) -> u8 {
        self.precision
    }
}

impl Codec for Sprintz {
    fn id(&self) -> CodecId {
        CodecId::Sprintz
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossless
    }

    // `data[..1]` is in bounds: `data` is checked non-empty below, and each
    // chunk of at most `BLOCK` points cuts `lane` to its own length.
    #[allow(clippy::indexing_slicing)]
    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        let scale = pow10(self.precision)?;
        let CodecScratch { out, i64s, .. } = scratch;
        let backend = crate::simd::active();
        // Worst case: the header, a width byte per block, and every delta
        // at 64 bits. The buffer's capacity persists across calls.
        out.clear();
        out.reserve(9 + data.len().div_ceil(BLOCK) + data.len() * 8);
        let mut lane = [0u64; BLOCK];
        // Header: precision byte, then the first value raw.
        let (first, _, mut ok) = backend.quantize_deltas(&data[..1], scale, 0, &mut lane[..1]);
        out.push(self.precision);
        out.extend_from_slice(&(first as u64).to_be_bytes());
        let mut prev = first;
        for chunk in data[1..].chunks(BLOCK) {
            if !ok {
                break;
            }
            let lane = &mut lane[..chunk.len()];
            let (last, folded, block_ok) = backend.quantize_deltas(chunk, scale, prev, lane);
            ok = block_ok;
            prev = last;
            // The header and every full block are whole bytes, so each
            // block starts on a byte boundary: its width byte, then the
            // deltas packed MSB-first and zero-padded to a byte.
            let width = bits_needed(folded);
            out.push(width as u8);
            if width > 0 {
                let (acc, nacc) = backend.pack_run(out, 0, 0, lane, width);
                out.extend_from_slice(&acc.to_be_bytes()[..nacc.div_ceil(8) as usize]);
            }
        }
        if !ok {
            // A rejected point (see the module docs): the chunked quantize
            // names the error.
            quantize_into(data, self.precision, i64s)?;
        }
        Ok(CompressedBlockRef::new(self.id(), data.len(), out))
    }

    // `take = (n - filled).min(BLOCK)` caps the `lane` slice at the array
    // length and `filled + take <= n == q.len()` bounds the output window.
    #[allow(clippy::indexing_slicing)]
    fn decompress_into(
        &self,
        block: &CompressedBlock,
        scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        out.clear();
        if n == 0 {
            return Ok(());
        }
        let mut r = BitReader::new(&block.payload);
        let precision = r.read_bits(8)? as u8;
        let first = r.read_bits(64)? as i64;
        let q = &mut scratch.i64s;
        q.clear();
        q.resize(n, 0);
        q[0] = first;
        let mut filled = 1usize;
        let mut prev = first;
        let mut lane = [0u64; BLOCK];
        let backend = crate::simd::active();
        while filled < n {
            let width = r.read_bits(8)? as u32;
            if width > 64 {
                return Err(CodecError::Corrupt("sprintz width > 64"));
            }
            let take = (n - filled).min(BLOCK);
            r.read_run(&mut lane[..take], width)?;
            // Bulk inverse transform: the backend unzigzags the lane and
            // accumulates it onto `prev` in one pass (AVX2 hosts break the
            // serial carry with a 4-lane prefix sum).
            prev = backend.unzigzag_undelta(prev, &lane[..take], &mut q[filled..filled + take]);
            filled += take;
        }
        dequantize_into(q, precision, out)
    }
}

/// Portable Sprintz block front end (the `Backend::Swar` tier of
/// [`crate::simd::Backend::quantize_deltas`]): the branch-free quantize of
/// one point, its wrapping delta and zigzag fold, and the running OR, in
/// one loop. Also the ragged-tail kernel of the AVX2 tier.
#[inline]
pub(crate) fn quantize_deltas_swar(
    points: &[f64],
    scale: f64,
    prev: i64,
    lane: &mut [u64],
) -> (i64, u64, bool) {
    let (mut prev, mut folded, mut ok) = (prev, 0u64, true);
    for (z, &v) in lane.iter_mut().zip(points) {
        // A NaN or an infinity scales to a magnitude out of range.
        let (q, _, in_range) = quantize_point(v, scale);
        ok &= in_range;
        *z = zigzag_encode(q.wrapping_sub(prev));
        folded |= *z;
        prev = q;
    }
    (prev, folded, ok)
}

/// Reference Sprintz block front end (the `Backend::Scalar` tier): check
/// and `f64::round` each point, then its wrapping delta and zigzag fold.
pub(crate) fn quantize_deltas_scalar(
    points: &[f64],
    scale: f64,
    prev: i64,
    lane: &mut [u64],
) -> (i64, u64, bool) {
    let (mut prev, mut folded, mut ok) = (prev, 0u64, true);
    for (z, &v) in lane.iter_mut().zip(points) {
        let x = v * scale;
        ok &= v.is_finite() && x.abs() < QUANT_LIMIT;
        let q = x.round() as i64;
        *z = zigzag_encode(q.wrapping_sub(prev));
        folded |= *z;
        prev = q;
    }
    (prev, folded, ok)
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::round_to_precision;

    fn roundtrip(data: &[f64], precision: u8) {
        let s = Sprintz::new(precision);
        let block = s.compress(data).unwrap();
        let back = s.decompress(&block).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            let expected = round_to_precision(*a, precision);
            assert!(
                (expected - b).abs() < 1e-9,
                "expected {expected}, got {b} (orig {a})"
            );
        }
    }

    #[test]
    fn roundtrip_smooth() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.013).sin() * 3.0).collect();
        roundtrip(&data, 4);
    }

    #[test]
    fn roundtrip_various_precisions() {
        let data: Vec<f64> = (0..300).map(|i| i as f64 * 0.111 - 15.0).collect();
        for p in [0, 2, 4, 5, 6] {
            roundtrip(&data, p);
        }
    }

    #[test]
    fn roundtrip_single_and_pair() {
        roundtrip(&[42.4242], 4);
        roundtrip(&[1.0, -1.0], 4);
    }

    #[test]
    fn roundtrip_exact_block_boundaries() {
        // n-1 deltas exactly at 128 and around it.
        for n in [128, 129, 130, 256, 257] {
            let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            roundtrip(&data, 5);
        }
    }

    #[test]
    fn constant_series_compresses_hard() {
        let data = vec![41.25; 1024];
        let block = Sprintz::new(4).compress(&data).unwrap();
        // First value + per-block zero widths only: tiny.
        assert!(block.ratio() < 0.01, "ratio {}", block.ratio());
    }

    #[test]
    fn smooth_series_beats_raw() {
        let data: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.002).sin()).collect();
        let block = Sprintz::new(4).compress(&data).unwrap();
        assert!(block.ratio() < 0.30, "ratio {}", block.ratio());
    }

    #[test]
    fn rejects_nan_and_huge() {
        assert!(Sprintz::new(4).compress(&[f64::NAN]).is_err());
        assert!(Sprintz::new(6).compress(&[1e18]).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Sprintz::new(4).compress(&[]), Err(CodecError::EmptyInput));
    }

    #[test]
    fn negative_jumps_roundtrip() {
        let data = vec![1000.0, -1000.0, 999.9999, -999.9999, 0.0001, -0.0001];
        roundtrip(&data, 4);
    }

    #[test]
    fn truncated_payload_detected() {
        let data: Vec<f64> = (0..200).map(|i| i as f64 * 1.5).collect();
        let block = Sprintz::new(4).compress(&data).unwrap();
        let mut bad = block.clone();
        bad.payload.truncate(10);
        assert!(Sprintz::new(4).decompress(&bad).is_err());
    }
}
