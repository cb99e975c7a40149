//! The compressed-block container and codec identifiers.

use serde::{Deserialize, Serialize};

/// Bytes a single uncompressed `f64` data point occupies.
pub const POINT_BYTES: usize = 8;

/// Identifier for every compression scheme AdaEdge knows about.
///
/// Each identifier is one MAB arm. The zlib levels are separate arms (the
/// paper's Figure 15 candidate set includes `zlib-9` explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CodecId {
    // --- lossless byte compression (our DEFLATE-style engine) ---
    /// Deepest-search LZ77 + Huffman configuration (gzip-class); same
    /// payload as zlib-6/9 on float segments.
    Gzip,
    /// Fast greedy LZ with byte-oriented output (snappy-class).
    Snappy,
    /// LZ77 + Huffman at effort level 1 (fastest zlib setting).
    Zlib1,
    /// LZ77 + Huffman at effort level 6 (default zlib setting).
    Zlib6,
    /// LZ77 + Huffman at effort level 9 (strongest zlib setting).
    Zlib9,
    // --- lossless lightweight encodings ---
    /// Distinct-value dictionary with bit-packed codes.
    Dict,
    /// Run-length encoding of repeated values.
    Rle,
    /// Facebook Gorilla XOR float compression.
    Gorilla,
    /// CHIMP, the optimized Gorilla variant.
    Chimp,
    /// Sprintz: quantize + delta + zigzag + block bit-packing.
    Sprintz,
    /// Elf: mantissa erasing + XOR coding (lossless at declared precision).
    Elf,
    /// BUFF: bounded-precision fixed-point byte-sliced floats.
    Buff,
    // --- lossy representations ---
    /// BUFF with low-order bits discarded.
    BuffLossy,
    /// Piecewise Aggregate Approximation (window means).
    Paa,
    /// Piecewise Linear Approximation (selected knots, linear interpolation).
    Pla,
    /// Truncated Fourier transform (low-frequency coefficients kept).
    Fft,
    /// RRDTool-style random sample per bucket.
    RrdSample,
    /// Largest-Triangle-Three-Buckets downsampling.
    Lttb,
    /// No compression: raw little-endian doubles (control arm).
    Raw,
}

impl CodecId {
    /// Stable short name used in experiment output and figure legends.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Gzip => "gzip",
            CodecId::Snappy => "snappy",
            CodecId::Zlib1 => "zlib-1",
            CodecId::Zlib6 => "zlib-6",
            CodecId::Zlib9 => "zlib-9",
            CodecId::Dict => "dict",
            CodecId::Rle => "rle",
            CodecId::Gorilla => "gorilla",
            CodecId::Chimp => "chimp",
            CodecId::Sprintz => "sprintz",
            CodecId::Elf => "elf",
            CodecId::Buff => "buff",
            CodecId::BuffLossy => "buff-lossy",
            CodecId::Paa => "paa",
            CodecId::Pla => "pla",
            CodecId::Fft => "fft",
            CodecId::RrdSample => "rrd-sample",
            CodecId::Lttb => "lttb",
            CodecId::Raw => "raw",
        }
    }

    /// Parse the short name produced by [`CodecId::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "gzip" => CodecId::Gzip,
            "snappy" => CodecId::Snappy,
            "zlib-1" => CodecId::Zlib1,
            "zlib-6" => CodecId::Zlib6,
            "zlib-9" => CodecId::Zlib9,
            "dict" => CodecId::Dict,
            "rle" => CodecId::Rle,
            "gorilla" => CodecId::Gorilla,
            "chimp" => CodecId::Chimp,
            "sprintz" => CodecId::Sprintz,
            "elf" => CodecId::Elf,
            "buff" => CodecId::Buff,
            "buff-lossy" => CodecId::BuffLossy,
            "paa" => CodecId::Paa,
            "pla" => CodecId::Pla,
            "fft" => CodecId::Fft,
            "rrd-sample" => CodecId::RrdSample,
            "lttb" => CodecId::Lttb,
            "raw" => CodecId::Raw,
            _ => return None,
        })
    }

    /// Whether decompression restores the input exactly (up to the declared
    /// dataset precision for the quantizing codecs).
    pub fn is_lossless(self) -> bool {
        !matches!(
            self,
            CodecId::BuffLossy
                | CodecId::Paa
                | CodecId::Pla
                | CodecId::Fft
                | CodecId::RrdSample
                | CodecId::Lttb
        )
    }

    /// Whether decompression returns the compressed points bit for bit
    /// (`f64::to_bits` equal) for every finite input: the byte compressors,
    /// the dictionary and run-length encodings, the XOR float codecs and
    /// raw. Sprintz, BUFF and Elf are lossless only at the declared
    /// precision (they quantize), so they are not.
    ///
    /// A caller that still holds a block's input can use it in place of
    /// the block's decode (offline recoding does).
    pub fn is_bit_exact(self) -> bool {
        matches!(
            self,
            CodecId::Gzip
                | CodecId::Snappy
                | CodecId::Zlib1
                | CodecId::Zlib6
                | CodecId::Zlib9
                | CodecId::Dict
                | CodecId::Rle
                | CodecId::Gorilla
                | CodecId::Chimp
                | CodecId::Raw
        )
    }

    /// All identifiers, in registry order.
    pub const ALL: [CodecId; 19] = [
        CodecId::Gzip,
        CodecId::Snappy,
        CodecId::Zlib1,
        CodecId::Zlib6,
        CodecId::Zlib9,
        CodecId::Dict,
        CodecId::Rle,
        CodecId::Gorilla,
        CodecId::Chimp,
        CodecId::Sprintz,
        CodecId::Elf,
        CodecId::Buff,
        CodecId::BuffLossy,
        CodecId::Paa,
        CodecId::Pla,
        CodecId::Fft,
        CodecId::RrdSample,
        CodecId::Lttb,
        CodecId::Raw,
    ];
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A compressed segment: the unit AdaEdge stores, ships and recodes.
///
/// The payload layout is codec-specific; `codec` identifies the decoder. The
/// block also remembers how many points the original segment held so the
/// compression ratio can be computed without the original data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressedBlock {
    /// Which codec produced the payload.
    pub codec: CodecId,
    /// Number of `f64` points in the original segment.
    pub n_points: u32,
    /// Codec-specific encoded bytes.
    pub payload: Vec<u8>,
}

impl CompressedBlock {
    /// Construct a block.
    pub fn new(codec: CodecId, n_points: usize, payload: Vec<u8>) -> Self {
        Self {
            codec,
            n_points: n_points as u32,
            payload,
        }
    }

    /// Borrow this block as a [`CompressedBlockRef`].
    pub fn as_ref(&self) -> CompressedBlockRef<'_> {
        CompressedBlockRef {
            codec: self.codec,
            n_points: self.n_points,
            payload: &self.payload,
        }
    }

    /// Size of the stored payload in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Size of the original segment in bytes.
    pub fn original_bytes(&self) -> usize {
        self.n_points as usize * POINT_BYTES
    }

    /// Compression ratio = compressed / original (smaller is better; 1.0
    /// means no reduction). Matches the paper's convention.
    pub fn ratio(&self) -> f64 {
        if self.n_points == 0 {
            return 1.0;
        }
        self.compressed_bytes() as f64 / self.original_bytes() as f64
    }

    /// CRC-32C over the block's framing and payload (codec name, point
    /// count, payload bytes). The storage layer records this at put time
    /// and re-verifies on reads, so bit rot in any of the three fields is
    /// detected before a corrupted block reaches a decoder.
    pub fn checksum(&self) -> u32 {
        let crc = crate::crc32c::crc32c(self.codec.name().as_bytes());
        let crc = crate::crc32c::crc32c_append(crc, &self.n_points.to_le_bytes());
        crate::crc32c::crc32c_append(crc, &self.payload)
    }
}

/// A compressed segment whose payload borrows a scratch arena.
///
/// Returned by [`Codec::compress_into`]: the payload lives in the arena's
/// output buffer and is valid until the arena's next use. Callers that only
/// need the size/ratio (the steady-state online ingest loop) never touch the
/// heap; callers that must keep the block call [`CompressedBlockRef::to_block`].
///
/// [`Codec::compress_into`]: crate::traits::Codec::compress_into
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressedBlockRef<'a> {
    /// Which codec produced the payload.
    pub codec: CodecId,
    /// Number of `f64` points in the original segment.
    pub n_points: u32,
    /// Codec-specific encoded bytes, borrowed from a [`CodecScratch`].
    ///
    /// [`CodecScratch`]: crate::scratch::CodecScratch
    pub payload: &'a [u8],
}

impl<'a> CompressedBlockRef<'a> {
    /// Construct a borrowed block.
    pub fn new(codec: CodecId, n_points: usize, payload: &'a [u8]) -> Self {
        Self {
            codec,
            n_points: n_points as u32,
            payload,
        }
    }

    /// Size of the payload in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Size of the original segment in bytes.
    pub fn original_bytes(&self) -> usize {
        self.n_points as usize * POINT_BYTES
    }

    /// Compression ratio = compressed / original (smaller is better).
    pub fn ratio(&self) -> f64 {
        if self.n_points == 0 {
            return 1.0;
        }
        self.compressed_bytes() as f64 / self.original_bytes() as f64
    }

    /// Copy into an owned [`CompressedBlock`].
    pub fn to_block(&self) -> CompressedBlock {
        CompressedBlock {
            codec: self.codec,
            n_points: self.n_points,
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_name(id.name()), Some(id));
        }
        assert_eq!(CodecId::from_name("nope"), None);
    }

    #[test]
    fn lossless_classification() {
        assert!(CodecId::Gzip.is_lossless());
        assert!(CodecId::Sprintz.is_lossless());
        assert!(CodecId::Buff.is_lossless());
        assert!(!CodecId::BuffLossy.is_lossless());
        assert!(!CodecId::Paa.is_lossless());
        assert!(!CodecId::Fft.is_lossless());
    }

    #[test]
    fn ratio_math() {
        let b = CompressedBlock::new(CodecId::Raw, 100, vec![0; 200]);
        assert!((b.ratio() - 0.25).abs() < 1e-12);
        assert_eq!(b.original_bytes(), 800);
        let empty = CompressedBlock::new(CodecId::Raw, 0, vec![]);
        assert_eq!(empty.ratio(), 1.0);
    }

    #[test]
    fn all_ids_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for id in CodecId::ALL {
            assert!(seen.insert(id.name()));
        }
    }
}
