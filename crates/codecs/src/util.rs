//! Small shared helpers: float/byte conversion, fixed-point quantization
//! and the inverse delta/zigzag transform of the quantizing codecs.
//!
//! The `_into` variants write into caller-owned buffers (cleared, capacity
//! kept); the allocating forms wrap them. The per-point loops are published
//! as tiers of [`crate::simd::Backend`], whose portable (`Swar`) and
//! reference (`Scalar`) forms live here.

use crate::bitio::zigzag_decode;
use crate::error::{CodecError, Result};

/// Points per validation chunk of [`quantize_into`]: a chunk is checked
/// as a whole, and an error leaves exactly the chunks before it in the
/// output.
pub(crate) const QUANT_CHUNK: usize = 64;

/// Exclusive bound on a scaled magnitude `|v * 10^p|`. It sits below
/// 2^52, so every accepted value rounds and converts exactly.
pub(crate) const QUANT_LIMIT: f64 = 4.5e15;

/// 2^52: adding it to a magnitude below 2^52 rounds to an integer (the
/// ulp there is 1), and the sum's bit pattern minus its own is that
/// integer.
pub(crate) const TWO52: f64 = 4_503_599_627_370_496.0;

/// Largest decimal precision the quantizing codecs accept.
const MAX_PRECISION: u8 = 12;

/// Serialize a segment of doubles to little-endian bytes.
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    f64s_to_bytes_into(data, &mut out);
    out
}

/// [`f64s_to_bytes`] into a reused buffer (cleared, capacity kept).
///
/// The buffer is sized up front and filled through fixed-size
/// `copy_from_slice` stores, so the loop compiles to straight bulk copies
/// instead of per-value `extend` growth checks.
pub fn f64s_to_bytes_into(data: &[f64], out: &mut Vec<u8>) {
    out.clear();
    out.resize(data.len() * 8, 0);
    for (dst, v) in out.chunks_exact_mut(8).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Deserialize little-endian bytes back to doubles.
pub fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    bytes_to_f64s_into(bytes, &mut out)?;
    Ok(out)
}

/// [`bytes_to_f64s`] into a reused buffer (cleared, capacity kept).
///
/// Mirror of [`f64s_to_bytes_into`]: pre-sized output, fixed-size loads,
/// no per-value growth checks.
pub fn bytes_to_f64s_into(bytes: &[u8], out: &mut Vec<f64>) -> Result<()> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt("byte length not a multiple of 8"));
    }
    out.clear();
    out.resize(bytes.len() / 8, 0.0);
    for (dst, src) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *dst = f64::from_le_bytes(src.try_into().expect("chunk of 8"));
    }
    Ok(())
}

/// Powers of ten for decimal precision 0..=[`MAX_PRECISION`].
const POW10: [f64; MAX_PRECISION as usize + 1] = [
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
    100_000_000.0,
    1_000_000_000.0,
    10_000_000_000.0,
    100_000_000_000.0,
    1_000_000_000_000.0,
];

/// Scale factor for `precision` decimal digits.
pub fn pow10(precision: u8) -> Result<f64> {
    POW10
        .get(precision as usize)
        .copied()
        .ok_or(CodecError::InvalidParameter("precision must be <= 12"))
}

/// Quantize a segment of doubles to fixed-point integers at `precision`
/// decimal digits: `q = round(v * 10^p)`.
///
/// Rejects non-finite values and magnitudes that would overflow the 52-bit
/// safe range (the paper's datasets use 4-6 digits on small-magnitude
/// signals, far inside this range).
pub fn quantize(data: &[f64], precision: u8) -> Result<Vec<i64>> {
    let mut out = Vec::new();
    quantize_into(data, precision, &mut out)?;
    Ok(out)
}

/// [`quantize`] into a reused buffer (cleared, capacity kept).
///
/// Dispatches through [`crate::simd`]: each tier scales, validates,
/// rounds half away from zero and converts in one pass, and every tier
/// returns the same values and errors (see
/// [`crate::simd::Backend::quantize`] for the chunked error contract).
pub fn quantize_into(data: &[f64], precision: u8, out: &mut Vec<i64>) -> Result<()> {
    let scale = pow10(precision)?;
    crate::simd::active().quantize(data, scale, out)
}

/// The two quantization errors in their reporting order: a non-finite
/// input wins over an out-of-range magnitude in the same chunk.
#[inline]
pub(crate) fn quantize_status(finite: bool, in_range: bool) -> Result<()> {
    if !finite {
        Err(CodecError::UnsupportedValue("non-finite float"))
    } else if !in_range {
        Err(CodecError::UnsupportedValue(
            "magnitude overflows fixed-point range at this precision",
        ))
    } else {
        Ok(())
    }
}

/// Reference quantize of one chunk (the `Backend::Scalar` tier): a
/// validation pass, then `round` per point. Requires
/// `chunk.len() == out.len()`.
pub(crate) fn quantize_scalar(chunk: &[f64], scale: f64, out: &mut [i64]) -> Result<()> {
    let mut finite = true;
    let mut max_abs = 0.0f64;
    for &v in chunk {
        finite &= v.is_finite();
        let a = (v * scale).abs();
        max_abs = if a > max_abs { a } else { max_abs };
    }
    quantize_status(finite, max_abs < QUANT_LIMIT)?;
    for (dst, &v) in out.iter_mut().zip(chunk) {
        *dst = (v * scale).round() as i64;
    }
    Ok(())
}

/// Portable fused quantize of one chunk (the `Backend::Swar` tier).
/// Requires `chunk.len() == out.len()`.
pub(crate) fn quantize_swar(chunk: &[f64], scale: f64, out: &mut [i64]) -> Result<()> {
    let (finite, in_range) = quantize_lanes(chunk, scale, out);
    quantize_status(finite, in_range)
}

/// Branch-free scale, check, round and convert; returns whether every
/// input was finite and every scaled magnitude below [`QUANT_LIMIT`].
/// Outputs are exact for accepted points and unspecified for the rest.
/// Also the ragged-tail kernel of the AVX2 tier.
#[inline]
pub(crate) fn quantize_lanes(chunk: &[f64], scale: f64, out: &mut [i64]) -> (bool, bool) {
    let mut finite = true;
    let mut in_range = true;
    for (dst, &v) in out.iter_mut().zip(chunk) {
        let (q, f, r) = quantize_point(v, scale);
        finite &= f;
        in_range &= r;
        *dst = q;
    }
    (finite, in_range)
}

/// One point of [`quantize_lanes`]: `round(v * scale)` half away from
/// zero, whether `v` is finite, and whether the scaled magnitude is below
/// [`QUANT_LIMIT`]. Exact when both hold, unspecified otherwise.
#[inline(always)]
pub(crate) fn quantize_point(v: f64, scale: f64) -> (i64, bool, bool) {
    let x = v * scale;
    let a = x.abs();
    // Below 2^52 the sum rounds `a` to the nearest integer, ties to even,
    // and the subtraction is exact.
    let r = (a + TWO52) - TWO52;
    // A tie that went down to the even neighbour goes up instead: half
    // away from zero, as `f64::round`.
    let r = if a - r == 0.5 { r + 1.0 } else { r };
    let mag = (r + TWO52).to_bits().wrapping_sub(TWO52.to_bits()) as i64;
    let q = if x < 0.0 { mag.wrapping_neg() } else { mag };
    (q, v.is_finite(), a < QUANT_LIMIT)
}

/// Inverse of [`quantize`].
pub fn dequantize(q: &[i64], precision: u8) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    dequantize_into(q, precision, &mut out)?;
    Ok(out)
}

/// [`dequantize`] into a reused buffer (cleared, capacity kept).
///
/// Dispatches through [`crate::simd`]: AVX2 hosts convert and divide four
/// lanes per step (full-range exact `i64 → f64` conversion; the division
/// keeps the exact rounding of the scalar reference — a reciprocal
/// multiply would not be bit-identical), everything else takes the
/// autovectorizable `dequantize_swar` loop.
pub fn dequantize_into(q: &[i64], precision: u8, out: &mut Vec<f64>) -> Result<()> {
    let scale = pow10(precision)?;
    out.clear();
    out.resize(q.len(), 0.0);
    crate::simd::active().dequantize(q, scale, out);
    Ok(())
}

/// Portable convert-and-divide loop (the `Backend::Swar` tier of
/// [`crate::simd::Backend::dequantize`]): pre-sized output, branch-free,
/// liftable by the autovectorizer.
pub(crate) fn dequantize_swar(q: &[i64], scale: f64, out: &mut [f64]) {
    for (dst, &x) in out.iter_mut().zip(q) {
        *dst = x as f64 / scale;
    }
}

/// Reference per-element dequantize (the `Backend::Scalar` tier). Also
/// the tail kernel for the AVX2 tier; identical rounding by construction.
pub(crate) fn dequantize_scalar(q: &[i64], scale: f64, out: &mut [f64]) {
    for (dst, &x) in out.iter_mut().zip(q) {
        *dst = x as f64 / scale;
    }
}

/// Portable inverse transform (the `Backend::Swar` tier of
/// [`crate::simd::Backend::unzigzag_undelta`]): starting from `prev`,
/// accumulate zigzag-decoded deltas into `out` and return the final
/// value. The accumulation is inherently serial in scalar code; the AVX2
/// tier breaks the chain with a 4-lane prefix sum. Requires
/// `zs.len() == out.len()`.
pub(crate) fn unzigzag_undelta_swar(prev: i64, zs: &[u64], out: &mut [i64]) -> i64 {
    unzigzag_undelta_scalar(prev, zs, out)
}

/// Reference inverse transform (the `Backend::Scalar` tier). Also the
/// ragged-tail kernel for the SIMD tiers.
#[inline]
pub(crate) fn unzigzag_undelta_scalar(prev: i64, zs: &[u64], out: &mut [i64]) -> i64 {
    let mut prev = prev;
    for (dst, &z) in out.iter_mut().zip(zs) {
        prev = prev.wrapping_add(zigzag_decode(z));
        *dst = prev;
    }
    prev
}

/// Minimum and maximum of a non-empty quantized segment in one pass.
pub fn min_max_i64(q: &[i64]) -> (i64, i64) {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for &v in q {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Round a float to `precision` decimal digits (the value a quantizing codec
/// will reproduce). Precisions above 12, the finest [`pow10`] supports,
/// round at 12.
pub fn round_to_precision(v: f64, precision: u8) -> f64 {
    let scale = pow10(precision.min(MAX_PRECISION)).expect("precision clamped to the table");
    (v * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let data = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        let bytes = f64s_to_bytes(&data);
        assert_eq!(bytes.len(), data.len() * 8);
        assert_eq!(bytes_to_f64s(&bytes).unwrap(), data);
    }

    #[test]
    fn bad_byte_length_rejected() {
        assert!(bytes_to_f64s(&[0u8; 7]).is_err());
    }

    #[test]
    fn quantize_roundtrip_at_precision() {
        let data = vec![1.2345, -0.0021, 99.9999, 0.0];
        let q = quantize(&data, 4).unwrap();
        assert_eq!(q, vec![12345, -21, 999_999, 0]);
        let back = dequantize(&q, 4).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_rejects_nan_and_overflow() {
        assert!(quantize(&[f64::NAN], 4).is_err());
        assert!(quantize(&[f64::INFINITY], 2).is_err());
        assert!(quantize(&[1e20], 6).is_err());
    }

    #[test]
    fn precision_limits() {
        assert!(pow10(12).is_ok());
        assert!(pow10(13).is_err());
    }

    #[test]
    fn rounding_matches_quantization() {
        let v = 1.23456789;
        assert_eq!(round_to_precision(v, 4), 1.2346);
        assert_eq!(round_to_precision(v, 0), 1.0);
        // Past the table, rounding clamps instead of indexing out of it.
        assert_eq!(round_to_precision(v, 13), round_to_precision(v, 12));
        assert_eq!(round_to_precision(v, u8::MAX), round_to_precision(v, 12));
    }
}
