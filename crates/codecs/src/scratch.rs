//! Reusable scratch arenas backing the buffer-reuse codec API.
//!
//! A [`CodecScratch`] owns every buffer a codec needs while compressing or
//! decompressing one segment: the output payload, the integer/float work
//! vectors of the quantizing codecs, the dictionary hash map, and the
//! LZ77/Huffman state of the DEFLATE family. A long-lived worker thread
//! keeps one arena and passes it to `compress_into`/`decompress_into`; after
//! the first few segments every buffer has grown to the working-set size and
//! the steady-state loop performs no heap allocations at all.
//!
//! Ownership contract: buffers are *cleared* (length reset) at the start of
//! each use but never shrunk, so capacity persists across segments. The
//! payload written by `compress_into` lives in `CodecScratch::out` and is
//! only valid until the next call that uses the arena; callers that need to
//! keep it copy it out (`CompressedBlockRef::to_block`).

use crate::huffman::HuffScratch;
use crate::lz::LzScratch;
use std::collections::HashMap;

/// Per-thread reusable buffers for [`Codec::compress_into`] /
/// [`Codec::decompress_into`].
///
/// [`Codec::compress_into`]: crate::traits::Codec::compress_into
/// [`Codec::decompress_into`]: crate::traits::Codec::decompress_into
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// The compressed payload produced by the most recent `compress_into`.
    pub(crate) out: Vec<u8>,
    /// Byte staging for codecs that operate on the LE byte image
    /// (snappy/deflate family).
    pub(crate) bytes: Vec<u8>,
    /// Unsigned work vector (zigzagged deltas, dictionary entries,
    /// BUFF subcolumn values).
    pub(crate) u64s: Vec<u64>,
    /// Second unsigned work vector (dictionary codes).
    pub(crate) u64s_b: Vec<u64>,
    /// Quantized fixed-point values.
    pub(crate) i64s: Vec<i64>,
    /// Float work vector (Elf erased values, decode intermediates).
    pub(crate) f64s: Vec<f64>,
    /// Distinct-value index for the dictionary codec.
    pub(crate) map: HashMap<u64, u32>,
    /// LZ77 matcher state and token buffer.
    pub(crate) lz: LzScratch,
    /// Huffman frequency tables, encoders/decoders and tree workspace.
    pub(crate) huff: HuffScratch,
}

impl CodecScratch {
    /// Create an empty arena. No allocation happens until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take ownership of the most recent payload, leaving an empty buffer
    /// behind (used to turn a borrowed block into an owned one without a
    /// copy when the arena is about to be dropped anyway).
    pub fn take_out(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }
}
