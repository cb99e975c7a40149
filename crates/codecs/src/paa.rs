//! Piecewise Aggregate Approximation (Keogh et al., KAIS 2001).
//!
//! The segment is cut into fixed windows and each window is replaced by its
//! mean. Sums and averages over the reconstruction are nearly exact (window
//! means preserve window sums), which is why the paper's SUM-query
//! experiment (Figure 8) has PAA as a ground-truth winner. Ratio is
//! controlled by the window size; recoding merges adjacent windows using
//! count-weighted means — no access to the original data required.
//!
//! Payload: `window: u32` then one `f64` mean per window.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{budget_bytes, check_lossy_args, Codec, CodecKind, LossyCodec};

const HDR_BYTES: usize = 4;
const MEAN_BYTES: usize = 8;

/// PAA codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Paa;

impl Paa {
    /// Number of windows a byte budget allows.
    fn windows_for(n: usize, ratio: f64) -> usize {
        let budget = budget_bytes(n, ratio);
        if budget <= HDR_BYTES {
            return 0;
        }
        ((budget - HDR_BYTES) / MEAN_BYTES).min(n)
    }

    /// Compress with an explicit window size (`window >= 1`).
    pub fn compress_with_window(&self, data: &[f64], window: usize) -> Result<CompressedBlock> {
        let mut payload = Vec::new();
        self.window_payload_into(data, window, &mut payload)?;
        Ok(CompressedBlock::new(self.id(), data.len(), payload))
    }

    fn window_payload_into(
        &self,
        data: &[f64],
        window: usize,
        payload: &mut Vec<u8>,
    ) -> Result<()> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        if window == 0 {
            return Err(CodecError::InvalidParameter("window must be >= 1"));
        }
        payload.clear();
        payload.reserve(HDR_BYTES + data.len().div_ceil(window) * MEAN_BYTES);
        payload.extend_from_slice(&(window as u32).to_le_bytes());
        for chunk in data.chunks(window) {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            payload.extend_from_slice(&mean.to_le_bytes());
        }
        Ok(())
    }

    /// The window and the window means of `block`, read straight off the
    /// payload, after checking the payload against the block's length.
    pub(crate) fn means(
        block: &CompressedBlock,
    ) -> Result<(usize, impl ExactSizeIterator<Item = f64> + '_)> {
        if block.payload.len() < HDR_BYTES
            || !(block.payload.len() - HDR_BYTES).is_multiple_of(MEAN_BYTES)
        {
            return Err(CodecError::Corrupt("paa payload size"));
        }
        let window =
            u32::from_le_bytes(block.payload[..HDR_BYTES].try_into().expect("4 bytes")) as usize;
        if window == 0 {
            return Err(CodecError::Corrupt("paa zero window"));
        }
        let means = block.payload[HDR_BYTES..]
            .chunks_exact(MEAN_BYTES)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));
        if means.len() != (block.n_points as usize).div_ceil(window) {
            return Err(CodecError::Corrupt("paa mean count mismatch"));
        }
        Ok((window, means))
    }
}

impl Codec for Paa {
    fn id(&self) -> CodecId {
        CodecId::Paa
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossy
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        self.window_payload_into(data, 2, &mut scratch.out)?;
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
        let (window, means) = Self::means(block)?;
        out.clear();
        out.reserve(n);
        for (w_idx, mean) in means.enumerate() {
            let count = window.min(n - w_idx * window);
            out.extend(std::iter::repeat_n(mean, count));
        }
        Ok(())
    }
}

impl LossyCodec for Paa {
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock> {
        check_lossy_args(data.len(), ratio)?;
        let n = data.len();
        let m = Self::windows_for(n, ratio);
        if m == 0 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        let window = n.div_ceil(m);
        self.compress_with_window(data, window)
    }

    fn min_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        (HDR_BYTES + MEAN_BYTES) as f64 / (n * POINT_BYTES) as f64
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
        // Largest window whose in-window deviation from the mean stays
        // within the bound. Deviation is not strictly monotone in the
        // window size, so exponential-search a candidate and then walk
        // down until the bound verifies.
        let fits = |w: usize| -> bool {
            data.chunks(w).all(|chunk| {
                let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
                chunk.iter().all(|v| (v - mean).abs() <= max_abs_error)
            })
        };
        let mut w = 1usize;
        while w < data.len() && fits(w * 2) {
            w *= 2;
        }
        while w > 1 && !fits(w) {
            w -= 1;
        }
        self.compress_with_window(data, w)
    }

    fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock> {
        self.check_block(block)?;
        check_lossy_args(block.n_points as usize, ratio)?;
        if block.ratio() <= ratio {
            return Err(CodecError::RecodeUnsupported(
                "block already at or below target ratio",
            ));
        }
        let n = block.n_points as usize;
        let (window, means) = Self::means(block)?;
        let means: Vec<f64> = means.collect();
        let m_new = Self::windows_for(n, ratio);
        if m_new == 0 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        // Merge k adjacent old windows into each new one, weighting each old
        // mean by the number of original points it covers.
        let new_window = n.div_ceil(m_new).div_ceil(window) * window;
        let k = new_window / window;
        let mut payload = Vec::with_capacity(HDR_BYTES + means.len().div_ceil(k) * MEAN_BYTES);
        payload.extend_from_slice(&(new_window as u32).to_le_bytes());
        for (g_idx, group) in means.chunks(k).enumerate() {
            let mut total = 0.0;
            let mut count = 0usize;
            for (j, &mean) in group.iter().enumerate() {
                let w_idx = g_idx * k + j;
                let c = window.min(n - w_idx * window);
                total += mean * c as f64;
                count += c;
            }
            payload.extend_from_slice(&(total / count as f64).to_le_bytes());
        }
        Ok(CompressedBlock::new(self.id(), n, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.02).sin() * 4.0 + 1.0)
            .collect()
    }

    #[test]
    fn window_one_is_exact() {
        let data = sample(100);
        let block = Paa.compress_with_window(&data, 1).unwrap();
        assert_eq!(Paa.decompress(&block).unwrap(), data);
    }

    #[test]
    fn hits_target_ratio() {
        let data = sample(1000);
        for target in [0.5, 0.25, 0.1, 0.05, 0.01] {
            let block = Paa.compress_to_ratio(&data, target).unwrap();
            assert!(
                block.ratio() <= target + 1e-9,
                "{} > {target}",
                block.ratio()
            );
        }
    }

    #[test]
    fn preserves_sum_nearly_exactly() {
        let data = sample(1000);
        let block = Paa.compress_to_ratio(&data, 0.1).unwrap();
        let back = Paa.decompress(&block).unwrap();
        let s1: f64 = data.iter().sum();
        let s2: f64 = back.iter().sum();
        assert!((s1 - s2).abs() / s1.abs() < 1e-10, "{s1} vs {s2}");
    }

    #[test]
    fn partial_last_window_roundtrips() {
        // n not a multiple of window.
        let data = sample(103);
        let block = Paa.compress_with_window(&data, 10).unwrap();
        let back = Paa.decompress(&block).unwrap();
        assert_eq!(back.len(), 103);
        // Last window covers exactly 3 points and stores their mean.
        let tail_mean = data[100..].iter().sum::<f64>() / 3.0;
        assert!((back[102] - tail_mean).abs() < 1e-12);
    }

    #[test]
    fn recode_matches_weighted_merge_and_sum() {
        let data = sample(1000);
        let block = Paa.compress_to_ratio(&data, 0.2).unwrap();
        let recoded = Paa.recode(&block, 0.05).unwrap();
        assert!(recoded.ratio() <= 0.05 + 1e-9);
        let back = Paa.decompress(&recoded).unwrap();
        let s1: f64 = data.iter().sum();
        let s2: f64 = back.iter().sum();
        // Count-weighted merging keeps the global sum intact.
        assert!((s1 - s2).abs() / s1.abs() < 1e-9, "{s1} vs {s2}");
    }

    #[test]
    fn recode_rejects_growth() {
        let data = sample(500);
        let block = Paa.compress_to_ratio(&data, 0.1).unwrap();
        assert!(matches!(
            Paa.recode(&block, 0.5),
            Err(CodecError::RecodeUnsupported(_))
        ));
    }

    #[test]
    fn floor_is_single_window() {
        let data = sample(64);
        let floor = Paa.min_ratio(64);
        let block = Paa.compress_to_ratio(&data, floor * 1.01).unwrap();
        let back = Paa.decompress(&block).unwrap();
        let mean = data.iter().sum::<f64>() / 64.0;
        assert!(back.iter().all(|&v| (v - mean).abs() < 1e-12));
        assert!(Paa.compress_to_ratio(&data, floor * 0.5).is_err());
    }

    #[test]
    fn error_shrinks_with_ratio() {
        let data = sample(1000);
        let rmse = |r: f64| {
            let b = Paa.compress_to_ratio(&data, r).unwrap();
            let back = Paa.decompress(&b).unwrap();
            (data
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / data.len() as f64)
                .sqrt()
        };
        assert!(rmse(0.5) <= rmse(0.1));
        assert!(rmse(0.1) <= rmse(0.02));
    }

    #[test]
    fn empty_and_bad_args_rejected() {
        assert!(Paa.compress_to_ratio(&[], 0.5).is_err());
        assert!(Paa.compress_to_ratio(&[1.0], 0.0).is_err());
        assert!(Paa.compress_with_window(&[1.0], 0).is_err());
    }
}
