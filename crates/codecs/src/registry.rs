//! Codec registry: builds every codec at a dataset precision and exposes
//! the candidate sets the selection framework draws its MAB arms from.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::buff::{Buff, BuffLossy};
use crate::chimp::Chimp;
use crate::deflate::Deflate;
use crate::dict::Dict;
use crate::elf::Elf;
use crate::error::{CodecError, Result};
use crate::fft::Fft;
use crate::gorilla::Gorilla;
use crate::lttb::Lttb;
use crate::paa::Paa;
use crate::pla::Pla;
use crate::raw::Raw;
use crate::rle::Rle;
use crate::rrd::RrdSample;
use crate::scratch::CodecScratch;
use crate::snappy::Snappy;
use crate::sprintz::Sprintz;
use crate::traits::{Codec, LossyCodec};

/// Owns one instance of every codec, parameterized by the dataset's decimal
/// precision (4 digits for CBF, 5 for UCR, 6 for UCI in the paper).
pub struct CodecRegistry {
    precision: u8,
    /// Fault-injection hook: compressing with this codec panics. See
    /// [`CodecRegistry::inject_compress_panic`].
    panic_on: Option<CodecId>,
    gzip: Deflate,
    snappy: Snappy,
    zlib1: Deflate,
    zlib6: Deflate,
    zlib9: Deflate,
    dict: Dict,
    rle: Rle,
    gorilla: Gorilla,
    chimp: Chimp,
    sprintz: Sprintz,
    elf: Elf,
    buff: Buff,
    buff_lossy: BuffLossy,
    paa: Paa,
    pla: Pla,
    fft: Fft,
    rrd: RrdSample,
    lttb: Lttb,
    raw: Raw,
}

impl std::fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodecRegistry")
            .field("precision", &self.precision)
            .finish()
    }
}

impl CodecRegistry {
    /// Build a registry for data with `precision` decimal digits.
    pub fn new(precision: u8) -> Self {
        Self {
            precision,
            panic_on: None,
            gzip: Deflate::gzip(),
            snappy: Snappy,
            zlib1: Deflate::zlib1(),
            zlib6: Deflate::zlib6(),
            zlib9: Deflate::zlib9(),
            dict: Dict,
            rle: Rle,
            gorilla: Gorilla,
            chimp: Chimp,
            sprintz: Sprintz::new(precision),
            elf: Elf::new(precision),
            buff: Buff::new(precision),
            buff_lossy: BuffLossy::new(precision),
            paa: Paa,
            pla: Pla,
            fft: Fft,
            rrd: RrdSample,
            lttb: Lttb,
            raw: Raw,
        }
    }

    /// The decimal precision the quantizing codecs use.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Deterministic fault injection: every subsequent
    /// [`CodecRegistry::compress_into`] call for `id` panics.
    ///
    /// This is the seam the fault-containment tests (and chaos
    /// experiments) use to prove the engine survives a misbehaving codec;
    /// production configurations never set it.
    pub fn inject_compress_panic(&mut self, id: CodecId) {
        self.panic_on = Some(id);
    }

    /// Look up a codec by id.
    pub fn get(&self, id: CodecId) -> &dyn Codec {
        match id {
            CodecId::Gzip => &self.gzip,
            CodecId::Snappy => &self.snappy,
            CodecId::Zlib1 => &self.zlib1,
            CodecId::Zlib6 => &self.zlib6,
            CodecId::Zlib9 => &self.zlib9,
            CodecId::Dict => &self.dict,
            CodecId::Rle => &self.rle,
            CodecId::Gorilla => &self.gorilla,
            CodecId::Chimp => &self.chimp,
            CodecId::Sprintz => &self.sprintz,
            CodecId::Elf => &self.elf,
            CodecId::Buff => &self.buff,
            CodecId::BuffLossy => &self.buff_lossy,
            CodecId::Paa => &self.paa,
            CodecId::Pla => &self.pla,
            CodecId::Fft => &self.fft,
            CodecId::RrdSample => &self.rrd,
            CodecId::Lttb => &self.lttb,
            CodecId::Raw => &self.raw,
        }
    }

    /// Look up a lossy codec by id, or `None` for lossless ids.
    pub fn get_lossy(&self, id: CodecId) -> Option<&dyn LossyCodec> {
        Some(match id {
            CodecId::BuffLossy => &self.buff_lossy,
            CodecId::Paa => &self.paa,
            CodecId::Pla => &self.pla,
            CodecId::Fft => &self.fft,
            CodecId::RrdSample => &self.rrd,
            CodecId::Lttb => &self.lttb,
            _ => return None,
        })
    }

    /// Decompress any block by dispatching on its codec id.
    pub fn decompress(&self, block: &CompressedBlock) -> Result<Vec<f64>> {
        self.get(block.codec).decompress(block)
    }

    /// Compress with a caller-owned scratch arena (no per-call allocation
    /// in steady state). See [`Codec::compress_into`].
    pub fn compress_into<'a>(
        &self,
        id: CodecId,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        if self.panic_on == Some(id) {
            panic!("injected codec fault: {id} compress");
        }
        self.get(id).compress_into(data, scratch)
    }

    /// Decompress any block into a caller-owned buffer, dispatching on its
    /// codec id. See [`Codec::decompress_into`].
    pub fn decompress_into(
        &self,
        block: &CompressedBlock,
        scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.get(block.codec).decompress_into(block, scratch, out)
    }

    /// Recode a block of a lossy (or BUFF) codec to a tighter ratio.
    pub fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock> {
        // BUFF (lossless) blocks recode through the BUFF-lossy path.
        let id = if block.codec == CodecId::Buff {
            CodecId::BuffLossy
        } else {
            block.codec
        };
        let lossy = self
            .get_lossy(id)
            .ok_or(CodecError::RecodeUnsupported("codec has no lossy recode"))?;
        lossy.recode(block, ratio)
    }

    /// The default lossless candidate set (§V: Gzip, Snappy, Gorilla, Zlib,
    /// BUFF, Sprintz — we expose zlib-6 as "the" zlib arm by default).
    pub fn lossless_candidates() -> Vec<CodecId> {
        vec![
            CodecId::Gzip,
            CodecId::Snappy,
            CodecId::Gorilla,
            CodecId::Zlib6,
            CodecId::Buff,
            CodecId::Sprintz,
        ]
    }

    /// The default lossy candidate set (§V: PAA, PLA, FFT, BUFF-lossy,
    /// RRD-sample).
    pub fn lossy_candidates() -> Vec<CodecId> {
        vec![
            CodecId::Paa,
            CodecId::Pla,
            CodecId::Fft,
            CodecId::BuffLossy,
            CodecId::RrdSample,
        ]
    }

    /// The enlarged decision space of the data-shift experiment
    /// (Figure 15a): the full zlib ladder plus dictionary, Chimp and the
    /// rest of the lossless arms.
    pub fn extended_lossless_candidates() -> Vec<CodecId> {
        vec![
            CodecId::Gzip,
            CodecId::Snappy,
            CodecId::Zlib1,
            CodecId::Zlib6,
            CodecId::Zlib9,
            CodecId::Dict,
            CodecId::Rle,
            CodecId::Gorilla,
            CodecId::Chimp,
            CodecId::Elf,
            CodecId::Buff,
            CodecId::Sprintz,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::CodecKind;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.021).sin() * 2.0).collect()
    }

    #[test]
    fn every_id_resolves_and_matches() {
        let reg = CodecRegistry::new(4);
        for id in CodecId::ALL {
            assert_eq!(reg.get(id).id(), id);
        }
    }

    #[test]
    fn precision_past_the_table_is_an_error_not_a_panic() {
        // Every codec that reads the precision rejects 13 with the same
        // error; the others ignore it. None may panic.
        let reg = CodecRegistry::new(13);
        let data = sample(300);
        let quantizing = [
            CodecId::Sprintz,
            CodecId::Elf,
            CodecId::Buff,
            CodecId::BuffLossy,
        ];
        for id in CodecId::ALL {
            let got = std::panic::catch_unwind(|| match reg.get_lossy(id) {
                Some(lossy) => lossy.compress_to_ratio(&data, 0.5).map(drop),
                None => reg.get(id).compress(&data).map(drop),
            })
            .unwrap_or_else(|_| panic!("{id} panicked at precision 13"));
            if quantizing.contains(&id) {
                let want = Err(CodecError::InvalidParameter("precision must be <= 12"));
                assert_eq!(got, want, "{id}");
            } else {
                assert_eq!(got, Ok(()), "{id}");
            }
        }
    }

    #[test]
    fn lossless_arms_roundtrip_exactly_at_precision() {
        let reg = CodecRegistry::new(4);
        let data: Vec<f64> = sample(400)
            .iter()
            .map(|v| crate::util::round_to_precision(*v, 4))
            .collect();
        for id in CodecRegistry::extended_lossless_candidates() {
            let codec = reg.get(id);
            assert_eq!(codec.kind(), CodecKind::Lossless, "{id}");
            let block = codec.compress(&data).unwrap();
            let back = reg.decompress(&block).unwrap();
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "{id}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn lossy_arms_hit_targets() {
        let reg = CodecRegistry::new(4);
        let data = sample(1000);
        for id in CodecRegistry::lossy_candidates() {
            let lossy = reg.get_lossy(id).unwrap();
            let block = lossy.compress_to_ratio(&data, 0.2).unwrap();
            assert!(block.ratio() <= 0.2 + 1e-9, "{id}: {}", block.ratio());
            assert_eq!(reg.decompress(&block).unwrap().len(), 1000);
        }
    }

    #[test]
    fn lossy_lookup_excludes_lossless() {
        let reg = CodecRegistry::new(4);
        assert!(reg.get_lossy(CodecId::Gzip).is_none());
        assert!(reg.get_lossy(CodecId::Sprintz).is_none());
        assert!(reg.get_lossy(CodecId::Paa).is_some());
    }

    #[test]
    fn recode_dispatch_works_per_codec() {
        let reg = CodecRegistry::new(4);
        let data = sample(1000);
        for id in CodecRegistry::lossy_candidates() {
            let lossy = reg.get_lossy(id).unwrap();
            let block = lossy.compress_to_ratio(&data, 0.4).unwrap();
            // 0.2 is above every codec's floor (BUFF-lossy's is ≈0.126).
            let recoded = reg.recode(&block, 0.2).unwrap();
            assert!(recoded.ratio() <= 0.2 + 1e-9, "{id}");
        }
    }

    #[test]
    fn recode_buff_block_goes_lossy() {
        let reg = CodecRegistry::new(4);
        let data = sample(500);
        let block = reg.get(CodecId::Buff).compress(&data).unwrap();
        let recoded = reg.recode(&block, 0.15).unwrap();
        assert_eq!(recoded.codec, CodecId::BuffLossy);
    }

    #[test]
    fn recode_lossless_rejected() {
        let reg = CodecRegistry::new(4);
        let data = sample(100);
        let block = reg.get(CodecId::Gorilla).compress(&data).unwrap();
        assert!(reg.recode(&block, 0.1).is_err());
    }
}
