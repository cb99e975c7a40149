//! BUFF: bounded-precision fixed-point float compression (Liu et al.,
//! VLDB 2021), plus the lossy variant AdaEdge uses for aggressive targets.
//!
//! The segment is quantized at the dataset's decimal precision, rebased on
//! its minimum, and each offset is stored with just enough bits for the
//! segment's range. `Buff` keeps all bits (lossless at the declared
//! precision). `BuffLossy` discards `D` low-order bits — the paper's
//! "discarding insignificant bits" — which barely perturbs values, making it
//! the best choice for tree-based ML tasks at moderate ratios, but imposes a
//! hard floor: at most `W − MIN_KEPT_BITS` bits can be dropped, which is why
//! BUFF-lossy cannot reach ratios below ≈0.125 (§V-A, Figure 7).
//!
//! Recoding is a pure integer shift on the packed payload ("virtual
//! decompression", §IV-E): no floats are reconstructed.

use crate::bitio::{bits_needed, BitReader, BitWriter};
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{budget_bytes, check_lossy_args, Codec, CodecKind, LossyCodec};
use crate::util::{min_max_i64, pow10, quantize_into};

/// Header bytes: precision (1) + width (1) + dropped (1) + min_q (8).
const HDR_BYTES: usize = 11;

/// The smallest number of bits BUFF-lossy will keep per value.
///
/// 8 bits of a 64-bit double gives the documented ≈0.125 ratio floor.
pub const MIN_KEPT_BITS: u32 = 8;

#[derive(Debug, Clone, Copy)]
struct Header {
    precision: u8,
    width: u32,
    dropped: u32,
    min_q: i64,
}

fn write_payload(hdr: Header, stored: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_payload_into(hdr, stored, &mut out);
    out
}

fn write_payload_into(hdr: Header, stored: &[u64], out: &mut Vec<u8>) {
    let kept = hdr.width - hdr.dropped;
    let mut w = BitWriter::over(std::mem::take(out));
    w.reserve(HDR_BYTES + (stored.len() * kept as usize).div_ceil(8));
    w.write_bits(hdr.precision as u64, 8);
    w.write_bits(hdr.width as u64, 8);
    w.write_bits(hdr.dropped as u64, 8);
    w.write_bits(hdr.min_q as u64, 64);
    w.write_run(stored, kept);
    *out = w.finish();
}

fn read_header(r: &mut BitReader<'_>) -> Result<Header> {
    let precision = r.read_bits(8)? as u8;
    let width = r.read_bits(8)? as u32;
    let dropped = r.read_bits(8)? as u32;
    let min_q = r.read_bits(64)? as i64;
    if width > 63 || dropped > width {
        return Err(CodecError::Corrupt("buff header widths invalid"));
    }
    Ok(Header {
        precision,
        width,
        dropped,
        min_q,
    })
}

/// How aggressively [`encode`] truncates low-order bits.
#[derive(Debug, Clone, Copy)]
enum Truncation {
    /// Keep everything (lossless BUFF).
    None,
    /// Keep at most this many bits per value (ratio-driven).
    Keep(u32),
    /// Drop this many low-order bits, capped at the natural width
    /// (error-bound-driven).
    Drop(u32),
}

/// Compress `data`, truncating per `truncation`.
fn encode(data: &[f64], precision: u8, truncation: Truncation) -> Result<CompressedBlock> {
    let mut scratch = CodecScratch::new();
    let (codec, n) = {
        let r = encode_into(data, precision, truncation, &mut scratch)?;
        (r.codec, r.n_points)
    };
    Ok(CompressedBlock {
        codec,
        n_points: n,
        payload: scratch.take_out(),
    })
}

/// [`encode`] into the scratch arena: quantized values, rebased offsets and
/// the packed payload all land in reused buffers.
fn encode_into<'a>(
    data: &[f64],
    precision: u8,
    truncation: Truncation,
    scratch: &'a mut CodecScratch,
) -> Result<CompressedBlockRef<'a>> {
    if data.is_empty() {
        return Err(CodecError::EmptyInput);
    }
    let CodecScratch {
        out, u64s, i64s, ..
    } = scratch;
    quantize_into(data, precision, i64s)?;
    let q = &*i64s;
    let (min_q, max_q) = min_max_i64(q);
    let range = (max_q as i128 - min_q as i128) as u128;
    if range > u64::MAX as u128 {
        return Err(CodecError::UnsupportedValue("range overflows 64 bits"));
    }
    let width = bits_needed(range as u64);
    let dropped = match truncation {
        Truncation::None => 0,
        Truncation::Keep(kept) => width.saturating_sub(kept),
        Truncation::Drop(d) => d.min(width),
    };
    let hdr = Header {
        precision,
        width,
        dropped,
        min_q,
    };
    let stored = u64s;
    stored.clear();
    stored.reserve(q.len());
    stored.extend(q.iter().map(|&v| ((v - min_q) as u64) >> dropped));
    write_payload_into(hdr, stored, out);
    let codec = if matches!(truncation, Truncation::None) {
        CodecId::Buff
    } else {
        CodecId::BuffLossy
    };
    Ok(CompressedBlockRef::new(codec, data.len(), out))
}

/// Values per chunk of a packed run read by [`for_each_q_chunk`]: its
/// buffers live on the stack, so a decode allocates only its output.
const RUN_CHUNK: usize = 256;

/// Read the header and hand the block's reconstructed fixed-point values
/// to `f` in order, [`RUN_CHUNK`] at a time, with the offset of each chunk
/// and the dequantization scale. A dropped-bits block reconstructs each
/// value at the midpoint of its truncation interval, which halves the
/// expected truncation error.
fn for_each_q_chunk(block: &CompressedBlock, mut f: impl FnMut(usize, &[i64], f64)) -> Result<()> {
    let n = block.n_points as usize;
    let mut r = BitReader::new(&block.payload);
    let hdr = read_header(&mut r)?;
    let scale = pow10(hdr.precision)?;
    let kept = hdr.width - hdr.dropped;
    let half = if hdr.dropped > 0 {
        1u64 << (hdr.dropped - 1)
    } else {
        0
    };
    // Validate the payload's bit budget up front, so a corrupt header
    // cannot size an output the payload doesn't back.
    if (r.remaining() as u64) < n as u64 * kept as u64 {
        return Err(CodecError::Corrupt(
            "buff payload shorter than header claims",
        ));
    }
    let (mut stored, mut q) = ([0u64; RUN_CHUNK], [0i64; RUN_CHUNK]);
    let mut at = 0;
    while at < n {
        let len = RUN_CHUNK.min(n - at);
        r.read_run(&mut stored[..len], kept)?;
        for (q, &s) in q.iter_mut().zip(&stored[..len]) {
            *q = hdr.min_q.wrapping_add(((s << hdr.dropped) | half) as i64);
        }
        f(at, &q[..len], scale);
        at += len;
    }
    Ok(())
}

/// Decode into `out` through the SIMD `dequantize` kernel
/// (`q as f64 / scale`, bit-identical in every tier).
fn decode_into(block: &CompressedBlock, out: &mut Vec<f64>) -> Result<()> {
    out.clear();
    let n = block.n_points as usize;
    let backend = crate::simd::active();
    for_each_q_chunk(block, |at, q, scale| {
        if at == 0 {
            // Sized once the header has been checked against the payload.
            out.resize(n, 0.0);
        }
        backend.dequantize(q, scale, &mut out[at..at + q.len()]);
    })
}

/// Scan a BUFF/BUFF-lossy payload's packed integers without materializing
/// floats: returns `(min, max, sum)` of the reconstruction. Backs the
/// compressed-domain aggregation operators.
pub(crate) fn scan_stats(block: &CompressedBlock) -> Result<(f64, f64, f64)> {
    let mut min_q = i64::MAX;
    let mut max_q = i64::MIN;
    let mut sum_q: i128 = 0;
    let mut scale = 1.0;
    for_each_q_chunk(block, |_, q, s| {
        scale = s;
        for &q in q {
            min_q = min_q.min(q);
            max_q = max_q.max(q);
            sum_q += q as i128;
        }
    })?;
    if block.n_points == 0 {
        return Ok((0.0, 0.0, 0.0));
    }
    Ok((
        min_q as f64 / scale,
        max_q as f64 / scale,
        sum_q as f64 / scale,
    ))
}

/// Lossless BUFF at a fixed decimal precision.
#[derive(Debug, Clone, Copy)]
pub struct Buff {
    precision: u8,
}

impl Buff {
    /// BUFF codec for data with `precision` decimal digits.
    pub fn new(precision: u8) -> Self {
        Self { precision }
    }

    /// The precision this codec quantizes to.
    pub fn precision(&self) -> u8 {
        self.precision
    }
}

impl Codec for Buff {
    fn id(&self) -> CodecId {
        CodecId::Buff
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossless
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        encode_into(data, self.precision, Truncation::None, scratch)
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        decode_into(block, out)
    }
}

/// Lossy BUFF: truncates low-order bits to hit a target ratio.
#[derive(Debug, Clone, Copy)]
pub struct BuffLossy {
    precision: u8,
}

impl BuffLossy {
    /// Lossy BUFF codec for data with `precision` decimal digits.
    pub fn new(precision: u8) -> Self {
        Self { precision }
    }

    fn kept_bits_for(&self, n: usize, ratio: f64) -> i64 {
        let budget = budget_bytes(n, ratio);
        if budget <= HDR_BYTES {
            return -1;
        }
        (((budget - HDR_BYTES) * 8) / n) as i64
    }
}

impl Codec for BuffLossy {
    fn id(&self) -> CodecId {
        CodecId::BuffLossy
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossy
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        encode_into(
            data,
            self.precision,
            Truncation::Keep(MIN_KEPT_BITS.max(16)),
            scratch,
        )
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        decode_into(block, out)
    }
}

impl LossyCodec for BuffLossy {
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock> {
        check_lossy_args(data.len(), ratio)?;
        let kept = self.kept_bits_for(data.len(), ratio);
        if kept < MIN_KEPT_BITS as i64 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(data.len()),
            });
        }
        // The data's natural width may be below the budget; encode() caps
        // `dropped` at zero in that case and the block lands under target.
        encode(data, self.precision, Truncation::Keep(kept as u32))
    }

    fn min_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let min_bytes = HDR_BYTES + (n * MIN_KEPT_BITS as usize).div_ceil(8);
        min_bytes as f64 / (n * POINT_BYTES) as f64
    }

    fn compress_with_error_bound(
        &self,
        data: &[f64],
        max_abs_error: f64,
    ) -> Result<CompressedBlock> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        if !max_abs_error.is_finite() || max_abs_error <= 0.0 {
            return Err(CodecError::InvalidParameter("error bound must be positive"));
        }
        let scale = pow10(self.precision)?;
        // Midpoint reconstruction bounds the truncation error by
        // 2^(d−1)/scale; quantization itself adds ≤ 0.5/scale.
        let budget = (max_abs_error * scale - 0.5).max(0.0);
        // Dropping d bits costs at most 2^(d−1) quanta; take the largest d
        // whose cost fits (the loop guard is the cost of d+1).
        let mut dropped = 0u32;
        while dropped < 52 && (1u64 << dropped) as f64 <= budget {
            dropped += 1;
        }
        // `encode` caps dropping at the natural width.
        encode(data, self.precision, Truncation::Drop(dropped)).map(|mut b| {
            b.codec = CodecId::BuffLossy;
            b
        })
    }

    fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock> {
        if block.codec != CodecId::BuffLossy && block.codec != CodecId::Buff {
            return Err(CodecError::WrongCodec {
                expected: CodecId::BuffLossy,
                found: block.codec,
            });
        }
        check_lossy_args(block.n_points as usize, ratio)?;
        if block.ratio() <= ratio {
            return Err(CodecError::RecodeUnsupported(
                "block already at or below target ratio",
            ));
        }
        let n = block.n_points as usize;
        let mut r = BitReader::new(&block.payload);
        let hdr = read_header(&mut r)?;
        let cur_kept = hdr.width - hdr.dropped;
        let new_kept = self.kept_bits_for(n, ratio);
        if new_kept < MIN_KEPT_BITS as i64 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        let new_kept = (new_kept as u32).min(cur_kept);
        if new_kept == cur_kept {
            return Err(CodecError::RecodeUnsupported(
                "cannot shrink further at this granularity",
            ));
        }
        let shift = cur_kept - new_kept;
        let new_hdr = Header {
            dropped: hdr.dropped + shift,
            ..hdr
        };
        // Pure integer pass over the packed payload: virtual decompression.
        // Validate before allocating (same containment as `decode_into`).
        if (r.remaining() as u64) < n as u64 * cur_kept as u64 {
            return Err(CodecError::Corrupt(
                "buff payload shorter than header claims",
            ));
        }
        let mut stored = vec![0u64; n];
        r.read_run(&mut stored, cur_kept)?;
        for s in &mut stored {
            *s >>= shift;
        }
        let payload = write_payload(new_hdr, &stored);
        Ok(CompressedBlock::new(CodecId::BuffLossy, n, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::round_to_precision;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.017).sin() * 2.5 + 0.3)
            .collect()
    }

    #[test]
    fn lossless_roundtrip_at_precision() {
        let data = sample(500);
        let b = Buff::new(4);
        let block = b.compress(&data).unwrap();
        assert_eq!(block.codec, CodecId::Buff);
        let back = b.decompress(&block).unwrap();
        for (a, r) in data.iter().zip(&back) {
            assert!((round_to_precision(*a, 4) - r).abs() < 1e-9, "{a} -> {r}");
        }
    }

    #[test]
    fn lossless_ratio_reflects_range_and_precision() {
        // ~5 units of range at 4 digits → width ≈ 16-17 bits → ratio ≈ 0.27.
        let block = Buff::new(4).compress(&sample(1000)).unwrap();
        assert!(
            block.ratio() > 0.20 && block.ratio() < 0.35,
            "{}",
            block.ratio()
        );
    }

    #[test]
    fn lossy_hits_target_ratio() {
        let data = sample(1000);
        let bl = BuffLossy::new(4);
        for target in [0.5, 0.3, 0.2, 0.15] {
            let block = bl.compress_to_ratio(&data, target).unwrap();
            assert!(
                block.ratio() <= target + 1e-9,
                "{} > {target}",
                block.ratio()
            );
            assert_eq!(block.codec, CodecId::BuffLossy);
            let back = bl.decompress(&block).unwrap();
            assert_eq!(back.len(), data.len());
        }
    }

    #[test]
    fn lossy_error_shrinks_with_ratio() {
        let data = sample(1000);
        let bl = BuffLossy::new(4);
        let coarse = bl.compress_to_ratio(&data, 0.15).unwrap();
        let fine = bl.compress_to_ratio(&data, 0.3).unwrap();
        let err = |block: &CompressedBlock| -> f64 {
            let back = bl.decompress(block).unwrap();
            data.iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(err(&fine) <= err(&coarse));
        // Even coarse truncation keeps values close (minimal distortion).
        assert!(err(&coarse) < 0.05, "coarse err {}", err(&coarse));
    }

    #[test]
    fn ratio_floor_enforced() {
        let data = sample(1000);
        let bl = BuffLossy::new(4);
        let err = bl.compress_to_ratio(&data, 0.05).unwrap_err();
        match err {
            CodecError::RatioUnreachable { minimum, .. } => {
                assert!(minimum > 0.12 && minimum < 0.14, "floor {minimum}");
            }
            other => panic!("expected RatioUnreachable, got {other:?}"),
        }
    }

    #[test]
    fn min_ratio_matches_paper_floor() {
        let bl = BuffLossy::new(4);
        let floor = bl.min_ratio(1000);
        assert!(floor > 0.125 && floor < 0.13, "{floor}");
    }

    #[test]
    fn recode_shrinks_without_floats() {
        let data = sample(800);
        let bl = BuffLossy::new(4);
        let block = bl.compress_to_ratio(&data, 0.3).unwrap();
        let smaller = bl.recode(&block, 0.18).unwrap();
        assert!(smaller.ratio() <= 0.18 + 1e-9);
        assert!(smaller.compressed_bytes() < block.compressed_bytes());
        let back = bl.decompress(&smaller).unwrap();
        assert_eq!(back.len(), data.len());
        // Recoded output equals direct compression at the same kept bits.
        let direct = bl.compress_to_ratio(&data, 0.18).unwrap();
        assert_eq!(bl.decompress(&direct).unwrap(), back);
    }

    #[test]
    fn recode_respects_floor_and_direction() {
        let data = sample(800);
        let bl = BuffLossy::new(4);
        let block = bl.compress_to_ratio(&data, 0.3).unwrap();
        assert!(matches!(
            bl.recode(&block, 0.05),
            Err(CodecError::RatioUnreachable { .. })
        ));
        assert!(matches!(
            bl.recode(&block, 0.9),
            Err(CodecError::RecodeUnsupported(_))
        ));
    }

    #[test]
    fn recode_accepts_lossless_buff_input() {
        let data = sample(500);
        let lossless = Buff::new(4).compress(&data).unwrap();
        let bl = BuffLossy::new(4);
        let recoded = bl.recode(&lossless, 0.15).unwrap();
        assert_eq!(recoded.codec, CodecId::BuffLossy);
        assert!(recoded.ratio() <= 0.15 + 1e-9);
    }

    /// The per-value decode the chunked one replaced, and its stats.
    fn reference_decode(block: &CompressedBlock) -> (Vec<f64>, (f64, f64, f64)) {
        let mut r = BitReader::new(&block.payload);
        let hdr = read_header(&mut r).unwrap();
        let scale = pow10(hdr.precision).unwrap();
        let half = if hdr.dropped > 0 {
            1u64 << (hdr.dropped - 1)
        } else {
            0
        };
        let q: Vec<i64> = (0..block.n_points)
            .map(|_| {
                let s = r.read_bits(hdr.width - hdr.dropped).unwrap();
                hdr.min_q.wrapping_add(((s << hdr.dropped) | half) as i64)
            })
            .collect();
        let (min, max) = (q.iter().min().unwrap(), q.iter().max().unwrap());
        let sum: i128 = q.iter().map(|&q| q as i128).sum();
        let values = q.iter().map(|&q| q as f64 / scale).collect();
        let stats = (*min as f64 / scale, *max as f64 / scale, sum as f64 / scale);
        (values, stats)
    }

    #[test]
    fn chunked_decode_matches_the_per_value_decode_across_chunk_edges() {
        let lossy = BuffLossy::new(4);
        for n in [
            1,
            7,
            RUN_CHUNK - 1,
            RUN_CHUNK,
            RUN_CHUNK + 1,
            3 * RUN_CHUNK + 5,
        ] {
            let data = sample(n);
            let mut blocks = vec![Buff::new(4).compress(&data).unwrap()];
            blocks.extend(lossy.compress_to_ratio(&data, 0.2));
            for block in blocks {
                let (want, stats) = reference_decode(&block);
                let got = block_decode(&block);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} n={n}", block.codec);
                assert_eq!(scan_stats(&block).unwrap(), stats, "{} n={n}", block.codec);
            }
        }
    }

    fn block_decode(block: &CompressedBlock) -> Vec<f64> {
        let mut out = vec![f64::NAN; 3];
        decode_into(block, &mut out).unwrap();
        out
    }

    #[test]
    fn constant_segment_is_tiny() {
        let data = vec![1.5; 512];
        let block = Buff::new(4).compress(&data).unwrap();
        assert!(block.compressed_bytes() <= HDR_BYTES + 1);
        let back = Buff::new(4).decompress(&block).unwrap();
        assert!(back.iter().all(|&v| (v - 1.5).abs() < 1e-9));
    }

    #[test]
    fn negative_values_roundtrip() {
        let data: Vec<f64> = (0..200).map(|i| -50.0 + i as f64 * 0.25).collect();
        let b = Buff::new(2);
        let back = b.decompress(&b.compress(&data).unwrap()).unwrap();
        for (a, r) in data.iter().zip(&back) {
            assert!((a - r).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_rejected() {
        assert!(Buff::new(4).compress(&[]).is_err());
        assert!(BuffLossy::new(4).compress_to_ratio(&[], 0.5).is_err());
    }
}
