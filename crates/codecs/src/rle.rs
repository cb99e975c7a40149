//! Run-length encoding for doubles: `(count, value)` pairs.
//!
//! The classic lightweight encoding from the column-store lineage the
//! paper builds on (Abadi et al., SIGMOD 2006). Devastatingly effective on
//! step/plateau signals (status flags, setpoints), useless on noisy ones —
//! a textbook arm for the MAB to learn *when* to use.
//!
//! Payload: repeated `(count: u32 LE, value: f64 LE)`.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};

/// RLE codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rle;

const PAIR_BYTES: usize = 12;

impl Codec for Rle {
    fn id(&self) -> CodecId {
        CodecId::Rle
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossless
    }

    // `data[0]` / `data[1..]` are guarded by the emptiness check below.
    #[allow(clippy::indexing_slicing)]
    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        let payload = &mut scratch.out;
        payload.clear();
        let mut run_value = data[0];
        let mut run_len: u32 = 1;
        for &v in &data[1..] {
            // Bit-pattern equality so NaN payloads and -0.0 are preserved.
            if v.to_bits() == run_value.to_bits() && run_len < u32::MAX {
                run_len += 1;
            } else {
                payload.extend_from_slice(&run_len.to_le_bytes());
                payload.extend_from_slice(&run_value.to_le_bytes());
                run_value = v;
                run_len = 1;
            }
        }
        payload.extend_from_slice(&run_len.to_le_bytes());
        payload.extend_from_slice(&run_value.to_le_bytes());
        Ok(CompressedBlockRef::new(self.id(), data.len(), payload))
    }

    // `chunks_exact(PAIR_BYTES)` guarantees each `pair` is exactly 12 bytes,
    // so the 4/8-byte splits cannot be out of bounds.
    #[allow(clippy::indexing_slicing)]
    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        if !block.payload.len().is_multiple_of(PAIR_BYTES) {
            return Err(CodecError::Corrupt("rle payload size"));
        }
        out.clear();
        out.reserve(n);
        for pair in block.payload.chunks_exact(PAIR_BYTES) {
            let count = u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")) as usize;
            let value = f64::from_le_bytes(pair[4..].try_into().expect("8 bytes"));
            if out.len() + count > n {
                return Err(CodecError::Corrupt("rle runs exceed point count"));
            }
            out.extend(std::iter::repeat_n(value, count));
        }
        if out.len() != n {
            return Err(CodecError::Corrupt("rle runs short of point count"));
        }
        Ok(())
    }
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) {
        let block = Rle.compress(data).unwrap();
        let back = Rle.decompress(&block).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn constant_collapses_to_one_pair() {
        let data = vec![5.5; 10_000];
        let block = Rle.compress(&data).unwrap();
        assert_eq!(block.compressed_bytes(), PAIR_BYTES);
        roundtrip(&data);
    }

    #[test]
    fn step_signal_compresses() {
        let data: Vec<f64> = (0..1000).map(|i| (i / 100) as f64).collect();
        let block = Rle.compress(&data).unwrap();
        assert_eq!(block.compressed_bytes(), 10 * PAIR_BYTES);
        roundtrip(&data);
    }

    #[test]
    fn distinct_values_expand() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 1.5).collect();
        let block = Rle.compress(&data).unwrap();
        assert!(block.ratio() > 1.0, "all-distinct should exceed 1.0");
        roundtrip(&data);
    }

    #[test]
    fn single_value_and_specials() {
        roundtrip(&[42.0]);
        roundtrip(&[0.0, -0.0, 0.0, -0.0]);
        roundtrip(&[f64::NAN, f64::NAN, 1.0]);
    }

    #[test]
    fn corrupt_counts_detected() {
        let block = Rle.compress(&[1.0, 1.0, 2.0]).unwrap();
        let mut overrun = block.clone();
        overrun.payload[..4].copy_from_slice(&100u32.to_le_bytes());
        assert!(Rle.decompress(&overrun).is_err());
        let mut short = block.clone();
        short.payload[..4].copy_from_slice(&1u32.to_le_bytes());
        assert!(Rle.decompress(&short).is_err());
        let mut ragged = block;
        ragged.payload.push(0);
        assert!(Rle.decompress(&ragged).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Rle.compress(&[]).is_err());
    }
}
