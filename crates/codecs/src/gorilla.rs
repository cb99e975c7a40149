//! Gorilla XOR compression for doubles (Pelkonen et al., VLDB 2015).
//!
//! Each value is XORed with its predecessor. A zero XOR is encoded as a
//! single `0` bit. Otherwise the meaningful (non-zero) bit window is encoded,
//! reusing the previous window when it still covers the new one:
//!
//! * `10` — the previous leading/trailing window covers this XOR; write the
//!   meaningful bits inside that window.
//! * `11` — new window: 6 bits of leading-zero count, 6 bits of
//!   (meaningful-length − 1), then the meaningful bits.
//!
//! Works best on slowly-varying signals where consecutive doubles share
//! exponent and high mantissa bits.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::bitio::{BitReader, BitWriter};
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};

/// Encode a non-empty segment into an existing bit stream. Shared with the
/// Elf codec, which prepends a precision byte to the same stream.
// Callers uphold the documented non-empty precondition, so `data[0]`
// and `data[1..]` are in bounds.
#[allow(clippy::indexing_slicing)]
pub(crate) fn gorilla_encode(data: &[f64], w: &mut BitWriter) {
    let mut prev = data[0].to_bits();
    w.write_bits(prev, 64);
    // Window state: previous leading-zero count and meaningful length.
    let mut prev_lead: u32 = u32::MAX; // "no window yet"
    let mut prev_len: u32 = 0;
    for &v in &data[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        prev = bits;
        if xor == 0 {
            w.write_bit(false);
            continue;
        }
        w.write_bit(true);
        let lead = xor.leading_zeros().min(63);
        let trail = xor.trailing_zeros();
        let len = 64 - lead - trail;
        if prev_lead != u32::MAX && lead >= prev_lead && trail >= 64 - prev_lead - prev_len {
            // Previous window still covers the meaningful bits.
            w.write_bit(false);
            let prev_trail = 64 - prev_lead - prev_len;
            w.write_bits(xor >> prev_trail, prev_len);
        } else {
            w.write_bit(true);
            w.write_bits(lead as u64, 6);
            w.write_bits((len - 1) as u64, 6);
            w.write_bits(xor >> trail, len);
            prev_lead = lead;
            prev_len = len;
        }
    }
}

/// Decode `n` values from a bit stream into a reused output vector
/// (cleared, capacity kept). Shared with the Elf codec.
pub(crate) fn gorilla_decode_into(
    r: &mut BitReader<'_>,
    n: usize,
    out: &mut Vec<f64>,
) -> Result<()> {
    out.clear();
    if n == 0 {
        return Ok(());
    }
    out.reserve(n);
    let mut prev = r.read_bits(64)?;
    out.push(f64::from_bits(prev));
    let mut prev_lead: u32 = 0;
    let mut prev_len: u32 = 0;
    for _ in 1..n {
        if !r.read_bit()? {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit()? {
            prev_lead = r.read_bits(6)? as u32;
            prev_len = r.read_bits(6)? as u32 + 1;
            if prev_lead + prev_len > 64 {
                return Err(CodecError::Corrupt("gorilla window exceeds 64 bits"));
            }
        } else if prev_len == 0 {
            return Err(CodecError::Corrupt("window reuse before any window"));
        }
        let meaningful = r.read_bits(prev_len)?;
        let trail = 64 - prev_lead - prev_len;
        let xor = meaningful << trail;
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    Ok(())
}

/// Gorilla codec. Stateless; construct freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gorilla;

impl Codec for Gorilla {
    fn id(&self) -> CodecId {
        CodecId::Gorilla
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
        let mut w = BitWriter::over(std::mem::take(&mut scratch.out));
        w.reserve(data.len() * 8);
        gorilla_encode(data, &mut w);
        scratch.out = w.finish();
        Ok(CompressedBlockRef::new(self.id(), data.len(), &scratch.out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let mut r = BitReader::new(&block.payload);
        gorilla_decode_into(&mut r, block.n_points as usize, out)
    }
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) {
        let g = Gorilla;
        let block = g.compress(data).unwrap();
        let back = g.decompress(&block).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_constant() {
        roundtrip(&[42.0; 100]);
        // Constant series should compress to roughly 64 bits + n-1 zero bits.
        let block = Gorilla.compress(&[42.0; 1000]).unwrap();
        assert!(block.compressed_bytes() < 8 + 1000 / 8 + 2);
    }

    #[test]
    fn roundtrip_slowly_varying() {
        let data: Vec<f64> = (0..500).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect();
        roundtrip(&data);
        let block = Gorilla.compress(&data).unwrap();
        assert!(block.ratio() < 1.0, "smooth signal should compress");
    }

    #[test]
    fn roundtrip_single_value() {
        roundtrip(&[std::f64::consts::E]);
    }

    #[test]
    fn roundtrip_special_values() {
        roundtrip(&[0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, -1e-300, 1e300]);
    }

    #[test]
    fn roundtrip_alternating_extremes() {
        let data: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1e9 } else { -1e-9 })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(Gorilla.compress(&[]), Err(CodecError::EmptyInput));
    }

    #[test]
    fn wrong_codec_rejected() {
        let block = Gorilla.compress(&[1.0, 2.0]).unwrap();
        let mut bad = block;
        bad.codec = CodecId::Sprintz;
        assert!(matches!(
            Gorilla.decompress(&bad),
            Err(CodecError::WrongCodec { .. })
        ));
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let block = Gorilla
            .compress(&(0..100).map(|i| i as f64 * 0.37).collect::<Vec<_>>())
            .unwrap();
        let mut bad = block.clone();
        bad.payload.truncate(block.payload.len() / 2);
        assert!(Gorilla.decompress(&bad).is_err());
    }
}
