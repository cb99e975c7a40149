//! Largest-Triangle-Three-Buckets downsampling (Steinarsson 2013), the
//! Visvalingam–Whyatt-derived line generalization used by TVStore and
//! TimescaleDB dashboards. Excels at keeping the *visual* shape of a
//! signal: each bucket contributes the point forming the largest triangle
//! with the previously selected point and the next bucket's centroid.
//!
//! Payload: `(index: u32, value: f32)` pairs, ascending; reconstruction is
//! linear interpolation, like PLA. Recoding re-runs LTTB over the stored
//! points themselves.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
use crate::error::{CodecError, Result};
use crate::pla::{interpolate_into, read_knots};
use crate::scratch::CodecScratch;
use crate::traits::{budget_bytes, check_lossy_args, Codec, CodecKind, LossyCodec};

const POINT_PAIR_BYTES: usize = 8;

/// LTTB codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lttb;

/// Run LTTB over `(x, y)` points, selecting `m >= 2` of them.
/// Returns indices into `points`.
fn lttb_select(points: &[(f64, f64)], m: usize) -> Vec<usize> {
    let n = points.len();
    if m >= n {
        return (0..n).collect();
    }
    if m <= 2 {
        return vec![0, n - 1];
    }
    let mut selected = Vec::with_capacity(m);
    selected.push(0usize);
    // m-2 interior buckets over points[1..n-1].
    let buckets = m - 2;
    let span = (n - 2) as f64 / buckets as f64;
    let mut prev = 0usize;
    for b in 0..buckets {
        let start = (1.0 + b as f64 * span).floor() as usize;
        let end = ((1.0 + (b + 1) as f64 * span).floor() as usize).min(n - 1);
        let end = end.max(start + 1);
        // Centroid of the NEXT bucket (or the last point for the final one).
        let (nx, ny) = if b + 1 < buckets {
            let ns = (1.0 + (b + 1) as f64 * span).floor() as usize;
            let ne = ((1.0 + (b + 2) as f64 * span).floor() as usize).min(n - 1);
            let ne = ne.max(ns + 1);
            let count = (ne - ns) as f64;
            let sx: f64 = points[ns..ne].iter().map(|p| p.0).sum();
            let sy: f64 = points[ns..ne].iter().map(|p| p.1).sum();
            (sx / count, sy / count)
        } else {
            points[n - 1]
        };
        let (px, py) = points[prev];
        let mut best_idx = start;
        let mut best_area = -1.0f64;
        for (i, &(x, y)) in points.iter().enumerate().take(end).skip(start) {
            let area = ((px - nx) * (y - py) - (px - x) * (ny - py)).abs();
            if area > best_area {
                best_area = area;
                best_idx = i;
            }
        }
        selected.push(best_idx);
        prev = best_idx;
    }
    selected.push(n - 1);
    selected
}

impl Lttb {
    fn points_for(n: usize, ratio: f64) -> usize {
        (budget_bytes(n, ratio) / POINT_PAIR_BYTES).min(n)
    }

    fn encode(n: usize, pairs: &[(u32, f32)]) -> CompressedBlock {
        let mut payload = Vec::with_capacity(pairs.len() * POINT_PAIR_BYTES);
        for &(idx, val) in pairs {
            payload.extend_from_slice(&idx.to_le_bytes());
            payload.extend_from_slice(&val.to_le_bytes());
        }
        CompressedBlock::new(CodecId::Lttb, n, payload)
    }

    /// The stored `(index, value)` pairs (PLA's payload layout).
    fn pairs(block: &CompressedBlock) -> Result<impl ExactSizeIterator<Item = (u32, f32)> + '_> {
        read_knots(block, "lttb payload size", "lttb index out of order")
    }

    pub(crate) fn parse(block: &CompressedBlock) -> Result<Vec<(u32, f32)>> {
        Ok(Self::pairs(block)?.collect())
    }
}

impl Codec for Lttb {
    fn id(&self) -> CodecId {
        CodecId::Lttb
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossy
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        scratch.out = self.compress_to_ratio(data, 0.5)?.payload;
        Ok(CompressedBlockRef::new(self.id(), data.len(), &scratch.out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        interpolate_into(block.n_points as usize, Self::pairs(block)?, out);
        Ok(())
    }
}

impl LossyCodec for Lttb {
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock> {
        check_lossy_args(data.len(), ratio)?;
        let n = data.len();
        let m = Self::points_for(n, ratio);
        let needed = if n == 1 { 1 } else { 2 };
        if m < needed {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        if n == 1 {
            return Ok(Self::encode(1, &[(0, data[0] as f32)]));
        }
        let points: Vec<(f64, f64)> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        let idxs = lttb_select(&points, m);
        let pairs: Vec<(u32, f32)> = idxs
            .into_iter()
            .map(|i| (i as u32, data[i] as f32))
            .collect();
        Ok(Self::encode(n, &pairs))
    }

    fn min_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let needed = if n == 1 { 1 } else { 2 };
        (needed * POINT_PAIR_BYTES) as f64 / (n * POINT_BYTES) as f64
    }

    fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        check_lossy_args(n, ratio)?;
        if block.ratio() <= ratio {
            return Err(CodecError::RecodeUnsupported(
                "block already at or below target ratio",
            ));
        }
        let m = Self::points_for(n, ratio);
        if m < 2 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        // Re-run LTTB over the stored points (virtual decompression).
        let pairs = Self::parse(block)?;
        let points: Vec<(f64, f64)> = pairs.iter().map(|&(i, v)| (i as f64, v as f64)).collect();
        let idxs = lttb_select(&points, m);
        let thinned: Vec<(u32, f32)> = idxs.into_iter().map(|i| pairs[i]).collect();
        Ok(Self::encode(n, &thinned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.07).sin() * 5.0).collect()
    }

    #[test]
    fn keeps_endpoints() {
        let data = sample(500);
        let block = Lttb.compress_to_ratio(&data, 0.1).unwrap();
        let pairs = Lttb::parse(&block).unwrap();
        assert_eq!(pairs.first().unwrap().0, 0);
        assert_eq!(pairs.last().unwrap().0, 499);
    }

    #[test]
    fn hits_target_ratio() {
        let data = sample(1000);
        for target in [0.5, 0.2, 0.05] {
            let block = Lttb.compress_to_ratio(&data, target).unwrap();
            assert!(block.ratio() <= target + 1e-9);
        }
    }

    #[test]
    fn captures_visual_extremes() {
        let mut data = vec![0.0; 300];
        data[50] = 40.0;
        data[200] = -35.0;
        let block = Lttb.compress_to_ratio(&data, 0.1).unwrap();
        let back = Lttb.decompress(&block).unwrap();
        let max_back = back.iter().cloned().fold(f64::MIN, f64::max);
        let min_back = back.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max_back > 39.0, "spike lost: {max_back}");
        assert!(min_back < -34.0, "dip lost: {min_back}");
    }

    #[test]
    fn exact_when_budget_covers_all() {
        let data = sample(10);
        let block = Lttb.compress_to_ratio(&data, 1.0).unwrap();
        let back = Lttb.decompress(&block).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn recode_shrinks() {
        let data = sample(1000);
        let block = Lttb.compress_to_ratio(&data, 0.2).unwrap();
        let recoded = Lttb.recode(&block, 0.05).unwrap();
        assert!(recoded.ratio() <= 0.05 + 1e-9);
        assert_eq!(Lttb.decompress(&recoded).unwrap().len(), 1000);
    }

    #[test]
    fn floor_and_errors() {
        let data = sample(100);
        assert!(Lttb.compress_to_ratio(&data, 0.005).is_err());
        assert!(Lttb.compress_to_ratio(&[], 0.5).is_err());
    }

    #[test]
    fn single_point_roundtrip() {
        let block = Lttb.compress_to_ratio(&[9.0], 1.0).unwrap();
        let back = Lttb.decompress(&block).unwrap();
        assert!((back[0] - 9.0).abs() < 1e-6);
    }
}
