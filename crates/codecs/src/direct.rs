//! Compressed-domain aggregation: evaluate SUM/MAX/MIN/AVG directly on an
//! encoded block, without materializing the reconstruction.
//!
//! This is the "execute queries over the compressed data" capability of
//! §IV-C (and the in-situ execution lineage the paper cites from Abadi's
//! decision tree and CodecDB). Every operator returns *exactly* the value
//! the aggregate would produce on the decompressed block (up to float
//! summation order), so callers can use it as a drop-in fast path;
//! codecs without a direct path return `Ok(None)` and the caller falls
//! back to decompress-then-aggregate.

use crate::block::{CodecId, CompressedBlock};
use crate::buff::scan_stats;
use crate::error::Result;
use crate::lttb::Lttb;
use crate::paa::Paa;
use crate::pla::decode_knots;
use crate::registry::CodecRegistry;
use crate::rrd::RrdSample;
use crate::scratch::CodecScratch;

/// The aggregation operators supported in the compressed domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of all reconstructed points.
    Sum,
    /// Maximum reconstructed point.
    Max,
    /// Minimum reconstructed point.
    Min,
    /// Arithmetic mean of the reconstruction.
    Avg,
}

/// Sum of the piecewise-linear reconstruction described by `(index, value)`
/// knots over `n` integer positions (the PLA/LTTB decode semantics:
/// flat extension outside the knot range, linear interpolation inside).
fn linear_knots_sum(n: usize, knots: &[(u32, f32)]) -> f64 {
    if knots.is_empty() {
        return 0.0;
    }
    let first = knots[0];
    let last = knots[knots.len() - 1];
    // Points strictly before the first knot, at the first knot's value.
    let mut sum = first.0 as f64 * first.1 as f64;
    // Each linear piece contributes an arithmetic series including both
    // endpoints; interior knots are shared, so subtract them once.
    for w in knots.windows(2) {
        let (a_idx, a_val) = (w[0].0 as f64, w[0].1 as f64);
        let (b_idx, b_val) = (w[1].0 as f64, w[1].1 as f64);
        let len = b_idx - a_idx;
        sum += (len + 1.0) * (a_val + b_val) / 2.0;
    }
    for k in &knots[1..knots.len().saturating_sub(1)] {
        sum -= k.1 as f64;
    }
    // Points strictly after the last knot, at the last knot's value.
    sum += (n as f64 - 1.0 - last.0 as f64) * last.1 as f64;
    sum
}

fn extremum_of_knots(knots: &[(u32, f32)], max: bool) -> f64 {
    // Linear interpolation attains its extrema at knots.
    let it = knots.iter().map(|&(_, v)| v as f64);
    if max {
        it.fold(f64::NEG_INFINITY, f64::max)
    } else {
        it.fold(f64::INFINITY, f64::min)
    }
}

/// Evaluate `op` directly on a compressed block.
///
/// Returns `Ok(Some(value))` when the codec supports the operator in the
/// compressed domain, `Ok(None)` when it does not (fall back to
/// decompressing), and `Err` on corrupt payloads.
pub fn direct_agg(block: &CompressedBlock, op: AggOp) -> Result<Option<f64>> {
    let n = block.n_points as usize;
    if n == 0 {
        return Ok(Some(0.0));
    }
    let value = match block.codec {
        CodecId::Paa => {
            let (window, means) = Paa::means(block)?;
            match op {
                AggOp::Sum | AggOp::Avg => {
                    let mut sum = 0.0;
                    for (w_idx, mean) in means.enumerate() {
                        let count = window.min(n - w_idx * window);
                        sum += mean * count as f64;
                    }
                    if op == AggOp::Avg {
                        sum / n as f64
                    } else {
                        sum
                    }
                }
                AggOp::Max => means.fold(f64::NEG_INFINITY, f64::max),
                AggOp::Min => means.fold(f64::INFINITY, f64::min),
            }
        }
        CodecId::RrdSample => {
            let (bucket, samples) = RrdSample::parse(block)?;
            match op {
                AggOp::Sum | AggOp::Avg => {
                    let mut sum = 0.0;
                    for (b_idx, s) in samples.enumerate() {
                        let count = bucket.min(n - b_idx * bucket);
                        sum += s * count as f64;
                    }
                    if op == AggOp::Avg {
                        sum / n as f64
                    } else {
                        sum
                    }
                }
                AggOp::Max => samples.fold(f64::NEG_INFINITY, f64::max),
                AggOp::Min => samples.fold(f64::INFINITY, f64::min),
            }
        }
        CodecId::Fft => {
            // The f64 DC bin carries the exact sum of the reconstruction.
            if block.payload.len() < 8 {
                return Err(crate::error::CodecError::Corrupt("fft payload size"));
            }
            let dc = f64::from_le_bytes(block.payload[..8].try_into().expect("8 bytes"));
            match op {
                AggOp::Sum => dc,
                AggOp::Avg => dc / n as f64,
                // Extrema need the full inverse transform.
                AggOp::Max | AggOp::Min => return Ok(None),
            }
        }
        CodecId::Pla => {
            let knots = decode_knots(block)?;
            match op {
                AggOp::Sum => linear_knots_sum(n, &knots),
                AggOp::Avg => linear_knots_sum(n, &knots) / n as f64,
                AggOp::Max => extremum_of_knots(&knots, true),
                AggOp::Min => extremum_of_knots(&knots, false),
            }
        }
        CodecId::Lttb => {
            let pairs = Lttb::parse(block)?;
            match op {
                AggOp::Sum => linear_knots_sum(n, &pairs),
                AggOp::Avg => linear_knots_sum(n, &pairs) / n as f64,
                AggOp::Max => extremum_of_knots(&pairs, true),
                AggOp::Min => extremum_of_knots(&pairs, false),
            }
        }
        CodecId::Buff | CodecId::BuffLossy => {
            let (min, max, sum) = scan_stats(block)?;
            match op {
                AggOp::Sum => sum,
                AggOp::Avg => sum / n as f64,
                AggOp::Max => max,
                AggOp::Min => min,
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(value))
}

/// Convenience wrapper that falls back to decompress-then-aggregate for
/// codecs without a direct path.
pub fn agg_with_fallback(reg: &CodecRegistry, block: &CompressedBlock, op: AggOp) -> Result<f64> {
    agg_with_scratch(reg, block, op, &mut CodecScratch::new(), &mut Vec::new())
}

/// [`agg_with_fallback`] with caller-owned buffers: when the codec has no
/// direct path the decompression runs through [`CodecRegistry::decompress_into`]
/// so repeated queries reuse `scratch`/`buf` instead of allocating.
pub fn agg_with_scratch(
    reg: &CodecRegistry,
    block: &CompressedBlock,
    op: AggOp,
    scratch: &mut CodecScratch,
    buf: &mut Vec<f64>,
) -> Result<f64> {
    if let Some(v) = direct_agg(block, op)? {
        return Ok(v);
    }
    reg.decompress_into(block, scratch, buf)?;
    Ok(match op {
        AggOp::Sum => buf.iter().sum(),
        AggOp::Avg => buf.iter().sum::<f64>() / buf.len().max(1) as f64,
        AggOp::Max => buf.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        AggOp::Min => buf.iter().cloned().fold(f64::INFINITY, f64::min),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::round_to_precision;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| round_to_precision((i as f64 * 0.0137).sin() * 5.0 - 0.4, 4))
            .collect()
    }

    fn reference(data: &[f64], op: AggOp) -> f64 {
        match op {
            AggOp::Sum => data.iter().sum(),
            AggOp::Avg => data.iter().sum::<f64>() / data.len() as f64,
            AggOp::Max => data.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            AggOp::Min => data.iter().cloned().fold(f64::INFINITY, f64::min),
        }
    }

    const OPS: [AggOp; 4] = [AggOp::Sum, AggOp::Max, AggOp::Min, AggOp::Avg];

    #[test]
    fn direct_matches_decompressed_for_every_codec() {
        let reg = CodecRegistry::new(4);
        let data = sample(777);
        let mut checked = 0;
        for id in CodecId::ALL {
            let block = match reg.get_lossy(id) {
                Some(l) => l.compress_to_ratio(&data, 0.3).unwrap(),
                None => match reg.get(id).compress(&data) {
                    Ok(b) => b,
                    Err(_) => continue,
                },
            };
            let reconstructed = reg.decompress(&block).unwrap();
            for op in OPS {
                if let Some(direct) = direct_agg(&block, op).unwrap() {
                    let expected = reference(&reconstructed, op);
                    let tol = expected.abs().max(1.0) * 1e-9;
                    assert!(
                        (direct - expected).abs() <= tol,
                        "{id} {op:?}: direct {direct} vs decompressed {expected}"
                    );
                    checked += 1;
                }
            }
        }
        // PAA, RRD, PLA, LTTB, BUFF, BUFF-lossy support all 4; FFT 2.
        assert!(checked >= 22, "only {checked} direct paths exercised");
    }

    #[test]
    fn fft_extrema_fall_back() {
        let reg = CodecRegistry::new(4);
        let data = sample(256);
        let block = reg
            .get_lossy(CodecId::Fft)
            .unwrap()
            .compress_to_ratio(&data, 0.2)
            .unwrap();
        assert!(direct_agg(&block, AggOp::Max).unwrap().is_none());
        assert!(direct_agg(&block, AggOp::Sum).unwrap().is_some());
        // The fallback wrapper still answers.
        let v = agg_with_fallback(&reg, &block, AggOp::Max).unwrap();
        assert!(v.is_finite());
    }

    #[test]
    fn byte_codecs_have_no_direct_path() {
        let reg = CodecRegistry::new(4);
        let data = sample(64);
        let block = reg.get(CodecId::Gzip).compress(&data).unwrap();
        assert_eq!(direct_agg(&block, AggOp::Sum).unwrap(), None);
        let via_fallback = agg_with_fallback(&reg, &block, AggOp::Sum).unwrap();
        assert!((via_fallback - reference(&data, AggOp::Sum)).abs() < 1e-9);
    }

    #[test]
    fn empty_block_sums_to_zero() {
        let block = CompressedBlock::new(CodecId::Paa, 0, vec![]);
        assert_eq!(direct_agg(&block, AggOp::Sum).unwrap(), Some(0.0));
    }

    #[test]
    fn linear_sum_handles_partial_coverage() {
        // Knots covering only the middle: flat extensions on both sides.
        let knots = vec![(2u32, 1.0f32), (4, 3.0)];
        // Reconstruction: [1,1,1,2,3,3,3] for n=7.
        assert!((linear_knots_sum(7, &knots) - 14.0).abs() < 1e-9);
    }
}
