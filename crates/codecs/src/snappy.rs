//! Snappy-class byte compression: greedy LZ77 with byte-oriented output and
//! no entropy coding. Optimized for speed over ratio, exactly the role the
//! snappy arm plays in the paper's throughput experiments (Figure 2).
//!
//! Wire format (per token):
//! * control byte `c < 128` — a literal run of `c + 1` bytes follows.
//! * control byte `c >= 128` — a match of length `c - 128 + MIN_MATCH`
//!   (3..=130), followed by a little-endian `u16` distance.

// Decode paths handle untrusted payload bytes; surface every raw index so
// each one carries an explicit bounds argument.
#![warn(clippy::indexing_slicing)]

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::lz::{append_match, LzConfig, LzScratch, TokenSink, MIN_MATCH};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};
use crate::util::{bytes_to_f64s_into, f64s_to_bytes_into};

const MAX_LITERAL_RUN: usize = 128;
const MAX_COPY_LEN: usize = 127 + MIN_MATCH; // 130

/// Compress raw bytes with the snappy-class format.
pub fn snappy_compress_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    snappy_compress_bytes_into(data, &mut LzScratch::default(), &mut out);
    out
}

/// [`snappy_compress_bytes`] into a reused output buffer, recycling the
/// LZ77 matcher state. The greedy depth-1 matcher drives the emitter
/// directly: literal runs are flushed straight from input ranges when a
/// copy (or the end of input) closes them, so no token buffer is filled.
///
/// The output is sized up front to the format's worst case plus slack,
/// written by index, and cut to length at the end, so a short literal run
/// is one fixed 16-byte copy rather than a call sized to the run. A copy
/// costs at most a byte per input byte, and a literal run one control
/// byte per 128 bytes plus one; runs are separated by copies, so there are
/// at most `n / 4 + 1` of them.
pub fn snappy_compress_bytes_into(data: &[u8], lz: &mut LzScratch, out: &mut Vec<u8>) {
    out.clear();
    let n = data.len();
    out.resize(n + n / 4 + n.div_ceil(MAX_LITERAL_RUN) + SLACK, 0);
    let mut sink = Emitter {
        data,
        buf: out,
        pos: 0,
        lit_start: 0,
    };
    lz.chains.tokenize(data, LzConfig::fast(), &mut sink);
    sink.flush_literals(data.len());
    let len = sink.pos;
    out.truncate(len);
}

/// Room past the worst-case output for a fixed-size copy's overhang.
const SLACK: usize = 32;
/// Literal runs up to this long are copied as one fixed-size block.
const SHORT_RUN: usize = 16;

/// Writes the snappy wire format as the matcher emits tokens. Literals
/// cost nothing; the pending run `data[lit_start..at]` is written when the
/// next copy (at `at`) or the end of input closes it.
struct Emitter<'a> {
    data: &'a [u8],
    /// The output, sized to the worst case plus [`SLACK`].
    buf: &'a mut [u8],
    /// Bytes written.
    pos: usize,
    lit_start: usize,
}

// The token stream covers `data` exactly once in order, so `lit_start <=
// end <= data.len()` and every literal range is in bounds; `buf` holds the
// worst-case output plus `SLACK`, so every write (a short run's overhang
// included) is in bounds too.
#[allow(clippy::indexing_slicing)]
impl Emitter<'_> {
    #[inline(always)]
    fn flush_literals(&mut self, end: usize) {
        let mut start = self.lit_start;
        while start < end {
            let run = (end - start).min(MAX_LITERAL_RUN);
            let at = self.pos + 1;
            self.buf[self.pos] = (run - 1) as u8;
            // The bytes past the run are overwritten by what follows, or
            // cut off at the end.
            if run <= SHORT_RUN && start + SHORT_RUN <= self.data.len() {
                self.buf[at..at + SHORT_RUN].copy_from_slice(&self.data[start..start + SHORT_RUN]);
            } else {
                self.buf[at..at + run].copy_from_slice(&self.data[start..start + run]);
            }
            self.pos = at + run;
            start += run;
        }
    }
}

// Indices as above.
#[allow(clippy::indexing_slicing)]
impl TokenSink for Emitter<'_> {
    #[inline(always)]
    fn literal(&mut self, _byte: u8) {}

    #[inline(always)]
    fn copy(&mut self, at: usize, len: usize, dist: usize) {
        self.flush_literals(at);
        // Split long matches into <=130-byte chunks.
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(MAX_COPY_LEN);
            // A trailing stub shorter than MIN_MATCH cannot be encoded as a
            // copy; emitting it as part of the previous chunk is guaranteed
            // possible because MAX_COPY_LEN > 2*MIN_MATCH.
            let take = if remaining - take > 0 && remaining - take < MIN_MATCH {
                take - (MIN_MATCH - (remaining - take))
            } else {
                take
            };
            let [lo, hi] = (dist as u16).to_le_bytes();
            self.buf[self.pos..self.pos + 3].copy_from_slice(&[
                128 + (take - MIN_MATCH) as u8,
                lo,
                hi,
            ]);
            self.pos += 3;
            remaining -= take;
        }
        self.lit_start = at + len;
    }
}

/// Decompress the snappy-class format, expecting `expected_len` bytes.
pub fn snappy_decompress_bytes(payload: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    snappy_decompress_bytes_into(payload, expected_len, &mut out)?;
    Ok(out)
}

/// [`snappy_decompress_bytes`] into a reused buffer (cleared, capacity kept).
///
/// Corruption containment: every literal run and match copy is checked
/// against both the remaining payload and `expected_len` *before* it is
/// applied, so a corrupt stream can neither read out of bounds nor grow
/// `out` past the caller's declared segment size.
// Every index below is guarded: `i` is re-checked against `payload.len()`
// before each read, and match copies check `dist`/`len` against the decoded
// prefix and the expected-length cap first.
#[allow(clippy::indexing_slicing)]
pub fn snappy_decompress_bytes_into(
    payload: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.clear();
    out.reserve(expected_len);
    let mut i = 0usize;
    while i < payload.len() {
        let c = payload[i];
        i += 1;
        if c < 128 {
            let run = c as usize + 1;
            if i + run > payload.len() {
                return Err(CodecError::Corrupt("literal run past end"));
            }
            if out.len() + run > expected_len {
                return Err(CodecError::Corrupt("literal run overruns output"));
            }
            out.extend_from_slice(&payload[i..i + run]);
            i += run;
        } else {
            let len = (c - 128) as usize + MIN_MATCH;
            if i + 2 > payload.len() {
                return Err(CodecError::Corrupt("truncated copy distance"));
            }
            let dist = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("copy distance out of range"));
            }
            if out.len() + len > expected_len {
                return Err(CodecError::Corrupt("match copy overruns output"));
            }
            // `dist`/`len` validated above; the word-at-a-time copy kernel
            // handles overlap with doubling `extend_from_within` rounds.
            append_match(out, dist, len);
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::Corrupt("snappy length mismatch"));
    }
    Ok(())
}

/// Snappy-class codec over doubles.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snappy;

impl Codec for Snappy {
    fn id(&self) -> CodecId {
        CodecId::Snappy
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
        let CodecScratch { out, bytes, lz, .. } = scratch;
        f64s_to_bytes_into(data, bytes);
        snappy_compress_bytes_into(bytes, lz, out);
        Ok(CompressedBlockRef::new(self.id(), data.len(), out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let bytes = &mut scratch.bytes;
        snappy_decompress_bytes_into(&block.payload, block.n_points as usize * 8, bytes)?;
        bytes_to_f64s_into(bytes, out)
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn roundtrip_bytes(data: &[u8]) {
        let c = snappy_compress_bytes(data);
        assert_eq!(snappy_decompress_bytes(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_and_small() {
        roundtrip_bytes(b"");
        roundtrip_bytes(b"x");
        roundtrip_bytes(b"ab");
    }

    #[test]
    fn repetitive_compresses() {
        let data = b"hellohellohellohellohellohello".repeat(50);
        let c = snappy_compress_bytes(&data);
        assert!(c.len() < data.len() / 3);
        roundtrip_bytes(&data);
    }

    #[test]
    fn long_run_splits_correctly() {
        // Forces match splitting across the 130-byte copy limit, including
        // remainders near MIN_MATCH.
        for n in [131, 132, 133, 260, 261, 1000, 1003] {
            roundtrip_bytes(&vec![9u8; n]);
        }
    }

    #[test]
    fn long_literal_run_splits() {
        let data: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        roundtrip_bytes(&data);
    }

    #[test]
    fn worst_case_output_fits_the_presized_buffer() {
        // A three-byte copy, then one literal never seen before, over and
        // over: five output bytes per four input bytes, the format's worst
        // case.
        let data: Vec<u8> = (0..200u8).flat_map(|k| [1, 2, 3, k + 50]).collect();
        let c = snappy_compress_bytes(&data);
        assert!(
            c.len() >= data.len() * 5 / 4 - 4,
            "{} of {}",
            c.len(),
            data.len()
        );
        roundtrip_bytes(&data);
    }

    #[test]
    fn float_codec_roundtrip() {
        let data: Vec<f64> = (0..800).map(|i| ((i / 8) as f64) * 1.25).collect();
        let block = Snappy.compress(&data).unwrap();
        assert_eq!(Snappy.decompress(&block).unwrap(), data);
    }

    #[test]
    fn corrupt_distance_detected() {
        let payload = vec![128 + 10, 0xFF, 0x7F]; // copy before any output
        assert!(snappy_decompress_bytes(&payload, 13).is_err());
    }

    #[test]
    fn truncated_literal_detected() {
        let payload = vec![50u8, 1, 2, 3]; // claims 51 literals, has 3
        assert!(snappy_decompress_bytes(&payload, 51).is_err());
    }
}
