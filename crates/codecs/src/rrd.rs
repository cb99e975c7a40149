//! RRD-sample: one random value kept per bucket, replicated across the
//! bucket on reconstruction.
//!
//! This simulates RRDTool's storage-bounding behaviour (which simply drops
//! old data) but, as the paper notes, AdaEdge keeps a random representative
//! per bucket instead of deleting outright. It is the fallback arm when
//! even BUFF-lossy cannot shrink further (Figure 12's late phase).
//!
//! The "random" pick is a deterministic hash of the segment length and
//! bucket index, so compression is reproducible and recoding needs no RNG
//! state. Payload: `bucket: u32`, then one `f64` sample per bucket.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{budget_bytes, check_lossy_args, Codec, CodecKind, LossyCodec};

const HDR_BYTES: usize = 4;
const SAMPLE_BYTES: usize = 8;

/// RRD-sample codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct RrdSample;

/// Deterministic in-bucket offset: splitmix64 of (n, bucket index).
fn pick_offset(n: usize, bucket_idx: usize, bucket_len: usize) -> usize {
    let mut z = (n as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(bucket_idx as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % bucket_len as u64) as usize
}

impl RrdSample {
    fn buckets_for(n: usize, ratio: f64) -> usize {
        let budget = budget_bytes(n, ratio);
        if budget <= HDR_BYTES {
            return 0;
        }
        ((budget - HDR_BYTES) / SAMPLE_BYTES).min(n)
    }

    /// The bucket length and the samples of `block`, read straight off the
    /// payload, after checking the payload against the block's length.
    pub(crate) fn parse(
        block: &CompressedBlock,
    ) -> Result<(usize, impl ExactSizeIterator<Item = f64> + '_)> {
        if block.payload.len() < HDR_BYTES + SAMPLE_BYTES
            || !(block.payload.len() - HDR_BYTES).is_multiple_of(SAMPLE_BYTES)
        {
            return Err(CodecError::Corrupt("rrd payload size"));
        }
        let bucket =
            u32::from_le_bytes(block.payload[..HDR_BYTES].try_into().expect("4 bytes")) as usize;
        if bucket == 0 {
            return Err(CodecError::Corrupt("rrd zero bucket"));
        }
        let samples = block.payload[HDR_BYTES..]
            .chunks_exact(SAMPLE_BYTES)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));
        if samples.len() != (block.n_points as usize).div_ceil(bucket) {
            return Err(CodecError::Corrupt("rrd sample count mismatch"));
        }
        Ok((bucket, samples))
    }

    /// Write the payload: the bucket length, then one sample per bucket.
    fn write_payload(
        payload: &mut Vec<u8>,
        bucket: usize,
        samples: impl ExactSizeIterator<Item = f64>,
    ) {
        payload.clear();
        payload.reserve(HDR_BYTES + samples.len() * SAMPLE_BYTES);
        payload.extend_from_slice(&(bucket as u32).to_le_bytes());
        for s in samples {
            payload.extend_from_slice(&s.to_le_bytes());
        }
    }

    /// Sample `data` down to `ratio` into `payload`.
    fn sample_into(&self, data: &[f64], ratio: f64, payload: &mut Vec<u8>) -> Result<()> {
        check_lossy_args(data.len(), ratio)?;
        let n = data.len();
        let m = Self::buckets_for(n, ratio);
        if m == 0 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        let bucket = n.div_ceil(m);
        let samples = data
            .chunks(bucket)
            .enumerate()
            .map(|(b_idx, chunk)| chunk[pick_offset(n, b_idx, chunk.len())]);
        Self::write_payload(payload, bucket, samples);
        Ok(())
    }
}

impl Codec for RrdSample {
    fn id(&self) -> CodecId {
        CodecId::RrdSample
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossy
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        self.sample_into(data, 0.5, &mut scratch.out)?;
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
        let (bucket, samples) = Self::parse(block)?;
        out.clear();
        out.reserve(n);
        for (b_idx, s) in samples.enumerate() {
            let count = bucket.min(n - b_idx * bucket);
            out.extend(std::iter::repeat_n(s, count));
        }
        Ok(())
    }
}

impl LossyCodec for RrdSample {
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock> {
        let mut payload = Vec::new();
        self.sample_into(data, ratio, &mut payload)?;
        Ok(CompressedBlock::new(self.id(), data.len(), payload))
    }

    fn min_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        (HDR_BYTES + SAMPLE_BYTES) as f64 / (n * POINT_BYTES) as f64
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
        let (bucket, samples) = Self::parse(block)?;
        let samples: Vec<f64> = samples.collect();
        let m_new = Self::buckets_for(n, ratio);
        if m_new == 0 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        // Merge k old buckets per new bucket, keeping one of the old samples
        // (deterministically chosen) as the survivor.
        let new_bucket = n.div_ceil(m_new).div_ceil(bucket) * bucket;
        let k = new_bucket / bucket;
        let merged = samples
            .chunks(k)
            .enumerate()
            .map(|(g_idx, group)| group[pick_offset(n, g_idx, group.len())]);
        let mut payload = Vec::new();
        Self::write_payload(&mut payload, new_bucket, merged);
        Ok(CompressedBlock::new(self.id(), n, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.31).sin() * 9.0).collect()
    }

    #[test]
    fn samples_come_from_their_bucket() {
        let data = sample(100);
        let block = RrdSample.compress_to_ratio(&data, 0.2).unwrap();
        let back = RrdSample.decompress(&block).unwrap();
        assert_eq!(back.len(), 100);
        let (bucket, _) = RrdSample::parse(&block).unwrap();
        for (i, &v) in back.iter().enumerate() {
            let b = i / bucket;
            let lo = b * bucket;
            let hi = (lo + bucket).min(100);
            assert!(
                data[lo..hi].contains(&v),
                "value {v} at {i} not from bucket {b}"
            );
        }
    }

    #[test]
    fn hits_target_ratio() {
        let data = sample(1000);
        for target in [0.5, 0.1, 0.03, 0.01] {
            let block = RrdSample.compress_to_ratio(&data, target).unwrap();
            assert!(block.ratio() <= target + 1e-9);
        }
    }

    #[test]
    fn deterministic() {
        let data = sample(500);
        let a = RrdSample.compress_to_ratio(&data, 0.1).unwrap();
        let b = RrdSample.compress_to_ratio(&data, 0.1).unwrap();
        assert_eq!(a.payload, b.payload);
    }

    #[test]
    fn recode_keeps_original_samples() {
        let data = sample(1000);
        let block = RrdSample.compress_to_ratio(&data, 0.2).unwrap();
        let recoded = RrdSample.recode(&block, 0.05).unwrap();
        assert!(recoded.ratio() <= 0.05 + 1e-9);
        let old_samples: Vec<f64> = RrdSample::parse(&block).unwrap().1.collect();
        for s in RrdSample::parse(&recoded).unwrap().1 {
            assert!(old_samples.contains(&s));
        }
    }

    #[test]
    fn floor_enforced() {
        let data = sample(50);
        assert!(RrdSample.compress_to_ratio(&data, 0.001).is_err());
        let floor = RrdSample.min_ratio(50);
        assert!(RrdSample.compress_to_ratio(&data, floor * 1.05).is_ok());
    }

    #[test]
    fn single_point() {
        let block = RrdSample.compress_to_ratio(&[2.5], 1.0).unwrap_err();
        // 1 point: header+sample = 12 bytes > 8 bytes original — unreachable.
        assert!(matches!(block, CodecError::RatioUnreachable { .. }));
    }

    #[test]
    fn corrupt_rejected() {
        let data = sample(100);
        let block = RrdSample.compress_to_ratio(&data, 0.2).unwrap();
        let mut bad = block.clone();
        bad.payload[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(RrdSample.decompress(&bad).is_err());
    }
}
