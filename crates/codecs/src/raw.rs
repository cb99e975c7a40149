//! The identity "codec": raw little-endian doubles. Used as the control arm
//! and as the representation of not-yet-compressed segments on disk.

// Decode paths must survive arbitrary corrupted payloads; surface any
// unchecked indexing so new sites get an explicit justification.
#![warn(clippy::indexing_slicing)]

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};
use crate::util::{bytes_to_f64s_into, f64s_to_bytes_into};

/// Raw pass-through codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct Raw;

impl Codec for Raw {
    fn id(&self) -> CodecId {
        CodecId::Raw
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
        f64s_to_bytes_into(data, &mut scratch.out);
        Ok(CompressedBlockRef::new(self.id(), data.len(), &scratch.out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        bytes_to_f64s_into(&block.payload, out)?;
        if out.len() != block.n_points as usize {
            return Err(CodecError::Corrupt("raw length mismatch"));
        }
        Ok(())
    }
}

#[allow(clippy::indexing_slicing)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let data = vec![1.0, -2.0, 3.5];
        let block = Raw.compress(&data).unwrap();
        assert_eq!(block.ratio(), 1.0);
        assert_eq!(Raw.decompress(&block).unwrap(), data);
    }

    #[test]
    fn length_mismatch_detected() {
        let mut block = Raw.compress(&[1.0, 2.0]).unwrap();
        block.n_points = 3;
        assert!(Raw.decompress(&block).is_err());
    }
}
