//! Dictionary encoding for doubles: distinct bit patterns are collected in
//! a per-segment dictionary and each point stores a bit-packed code.
//!
//! Highly effective on low-entropy signals (few distinct values), which is
//! exactly the regime where it wins arms in the data-shift experiment
//! (Figure 15). On high-entropy data the dictionary approaches the segment
//! size and the ratio exceeds 1.0 — the MAB learns to avoid it.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::bitio::{bits_needed, BitReader, BitWriter};
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};

/// Dictionary codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dict;

impl Codec for Dict {
    fn id(&self) -> CodecId {
        CodecId::Dict
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
        let CodecScratch {
            out,
            u64s,
            u64s_b,
            map,
            ..
        } = scratch;
        // First pass: collect distinct bit patterns in first-seen order.
        let index = map;
        index.clear();
        let entries = u64s;
        entries.clear();
        let codes = u64s_b;
        codes.clear();
        codes.reserve(data.len());
        for &v in data {
            let bits = v.to_bits();
            let code = *index.entry(bits).or_insert_with(|| {
                entries.push(bits);
                (entries.len() - 1) as u32
            });
            codes.push(code as u64);
        }
        let code_width = bits_needed(entries.len() as u64 - 1).max(1);
        let mut w = BitWriter::over(std::mem::take(out));
        w.reserve(4 + entries.len() * 8 + (data.len() * code_width as usize).div_ceil(8));
        w.write_bits(entries.len() as u64, 32);
        w.write_run(entries, 64);
        w.write_run(codes, code_width);
        *out = w.finish();
        Ok(CompressedBlockRef::new(self.id(), data.len(), out))
    }

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
        let CodecScratch { u64s, u64s_b, .. } = scratch;
        let mut r = BitReader::new(&block.payload);
        let dict_len = r.read_bits(32)? as usize;
        if dict_len == 0 || dict_len > n {
            return Err(CodecError::Corrupt("dictionary size out of range"));
        }
        let entry_bits = u64s;
        entry_bits.clear();
        entry_bits.resize(dict_len, 0);
        r.read_run(entry_bits, 64)?;
        let code_width = bits_needed(dict_len as u64 - 1).max(1);
        let codes = u64s_b;
        codes.clear();
        codes.resize(n, 0);
        r.read_run(codes, code_width)?;
        out.reserve(n);
        for &code in codes.iter() {
            let v = entry_bits
                .get(code as usize)
                .copied()
                .map(f64::from_bits)
                .ok_or(CodecError::Corrupt("code beyond dictionary"))?;
            out.push(v);
        }
        Ok(())
    }
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) {
        let block = Dict.compress(data).unwrap();
        let back = Dict.decompress(&block).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn roundtrip_low_entropy() {
        let data: Vec<f64> = (0..1000).map(|i| [1.0, 2.5, -3.0][i % 3]).collect();
        roundtrip(&data);
        let block = Dict.compress(&data).unwrap();
        // 3 entries → 2-bit codes → ratio ≈ 2/64 + dict overhead.
        assert!(block.ratio() < 0.05, "ratio {}", block.ratio());
    }

    #[test]
    fn roundtrip_all_distinct() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 1.0001).collect();
        roundtrip(&data);
        let block = Dict.compress(&data).unwrap();
        // All distinct: dictionary alone equals the input — ratio above 1.
        assert!(block.ratio() > 1.0);
    }

    #[test]
    fn roundtrip_single_value() {
        roundtrip(&[std::f64::consts::PI]);
        roundtrip(&[0.0; 17]);
    }

    #[test]
    fn nan_patterns_preserved() {
        // Dict operates on bit patterns, so NaN payloads roundtrip exactly.
        let data = vec![f64::NAN, 1.0, f64::NAN, 1.0];
        let block = Dict.compress(&data).unwrap();
        let back = Dict.decompress(&block).unwrap();
        assert!(back[0].is_nan() && back[2].is_nan());
        assert_eq!(back[1], 1.0);
    }

    #[test]
    fn corrupt_dict_len_detected() {
        let block = Dict.compress(&[1.0, 2.0, 1.0]).unwrap();
        let mut bad = block.clone();
        // Overwrite dict length with a huge value.
        bad.payload[0..4].copy_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
        assert!(Dict.decompress(&bad).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Dict.compress(&[]).is_err());
    }
}
