//! Codec traits: the common interface every compression scheme implements.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;

/// Whether a codec restores the input exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Decompression restores the input exactly (up to declared precision
    /// for the quantizing codecs, which is the paper's convention).
    Lossless,
    /// Decompression returns an approximation; size is tunable.
    Lossy,
}

/// Common interface for all codecs.
///
/// Compression operates on one *segment*: a fixed-length run of consecutive
/// `f64` data points (§III-B of the paper). Codecs are stateless and
/// shareable across threads; all tuning lives in constructor parameters.
pub trait Codec: Send + Sync {
    /// Identifier of this codec (one MAB arm).
    fn id(&self) -> CodecId;

    /// Lossless or lossy.
    fn kind(&self) -> CodecKind;

    /// Compress a segment at the codec's natural setting into the scratch
    /// arena's output buffer, reusing its work buffers instead of
    /// allocating.
    ///
    /// For lossless codecs this is the only mode. For lossy codecs this uses
    /// a mild default; use [`LossyCodec::compress_to_ratio`] to hit a budget.
    /// The returned block borrows `scratch.out`, which stays valid only
    /// until the arena's next use. A worker thread that keeps one
    /// `CodecScratch` alive across segments compresses with zero
    /// steady-state heap allocations.
    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>>;

    /// Decompress a block back to `n_points` values into a caller-provided
    /// vector, reusing the scratch arena for intermediate state.
    ///
    /// `out` is overwritten with the decoded values; every codec but PLA and
    /// LTTB refills it in place, reusing its capacity across calls.
    fn decompress_into(
        &self,
        block: &CompressedBlock,
        scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()>;

    /// Compress a segment into an owned block: [`Codec::compress_into`] on
    /// a fresh arena, whose payload buffer becomes the block's.
    fn compress(&self, data: &[f64]) -> Result<CompressedBlock> {
        let mut scratch = CodecScratch::new();
        let block = self.compress_into(data, &mut scratch)?;
        let (codec, n_points) = (block.codec, block.n_points);
        Ok(CompressedBlock {
            codec,
            n_points,
            payload: scratch.take_out(),
        })
    }

    /// Decompress a block into a new vector: [`Codec::decompress_into`] on
    /// a fresh arena.
    fn decompress(&self, block: &CompressedBlock) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.decompress_into(block, &mut CodecScratch::new(), &mut out)?;
        Ok(out)
    }

    /// Convenience: short display name.
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Guard helper: verify the block belongs to this codec.
    fn check_block(&self, block: &CompressedBlock) -> Result<()> {
        if block.codec != self.id() {
            return Err(CodecError::WrongCodec {
                expected: self.id(),
                found: block.codec,
            });
        }
        Ok(())
    }
}

/// Extra interface for lossy codecs: ratio targeting and in-place recoding.
///
/// All AdaEdge lossy codecs are customizable to reach a desired compression
/// ratio (§III-A2) and support "virtual decompression" recoding — applying a
/// more aggressive setting directly to an already-compressed block without a
/// full decompress/re-compress round trip (§IV-E).
pub trait LossyCodec: Codec {
    /// Compress `data` so that the resulting block's ratio is `<= ratio`
    /// (as close to it as the codec's granularity allows).
    ///
    /// Returns [`CodecError::RatioUnreachable`] when the codec cannot go that
    /// low on this segment (e.g. BUFF-lossy below ~0.125).
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock>;

    /// The smallest ratio this codec can reach on a segment of `n` points.
    fn min_ratio(&self, n: usize) -> f64;

    /// Re-compress an existing block of this codec to a more aggressive
    /// target ratio without reconstructing the original floats.
    ///
    /// The result must again be a block of this codec with ratio `<= ratio`.
    /// Returns [`CodecError::RecodeUnsupported`] if `ratio` is larger than
    /// the block's current ratio (recoding only ever shrinks) or
    /// [`CodecError::RatioUnreachable`] below the codec's floor.
    fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock>;

    /// Compress `data` so that every reconstructed point deviates from its
    /// original by at most `max_abs_error`, using as little space as the
    /// codec's granularity allows.
    ///
    /// This is the ModelarDB-style error-bounded interface (§II: systems
    /// that trade accuracy for space under a user-defined error bound).
    /// The default implementation reports the capability as unsupported;
    /// PAA, PLA and BUFF-lossy override it.
    fn compress_with_error_bound(
        &self,
        _data: &[f64],
        _max_abs_error: f64,
    ) -> Result<CompressedBlock> {
        Err(CodecError::RecodeUnsupported(
            "codec has no error-bounded mode",
        ))
    }
}

/// Compute how many payload bytes a target ratio allows for `n` points.
pub(crate) fn budget_bytes(n: usize, ratio: f64) -> usize {
    (ratio * (n * crate::block::POINT_BYTES) as f64).floor() as usize
}

/// Validate segment and ratio arguments shared by every lossy codec.
pub(crate) fn check_lossy_args(data_len: usize, ratio: f64) -> Result<()> {
    if data_len == 0 {
        return Err(CodecError::EmptyInput);
    }
    if !(ratio > 0.0 && ratio <= 1.0) {
        return Err(CodecError::InvalidParameter("ratio must be in (0, 1]"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_math() {
        assert_eq!(budget_bytes(1000, 0.5), 4000);
        assert_eq!(budget_bytes(1000, 0.1), 800);
        assert_eq!(budget_bytes(10, 0.01), 0);
    }

    #[test]
    fn lossy_arg_validation() {
        assert!(check_lossy_args(0, 0.5).is_err());
        assert!(check_lossy_args(10, 0.0).is_err());
        assert!(check_lossy_args(10, 1.5).is_err());
        assert!(check_lossy_args(10, 1.0).is_ok());
        assert!(check_lossy_args(10, 0.001).is_ok());
    }
}
