//! # adaedge-codecs
//!
//! Every compression scheme AdaEdge selects between, implemented from
//! scratch: lossless byte compression (a DEFLATE-style LZ77+Huffman engine
//! backing the gzip/zlib/snappy arms), lightweight float encodings
//! (Gorilla, CHIMP, Sprintz, BUFF, dictionary) and tunable lossy
//! representations (PAA, PLA, FFT, BUFF-lossy, RRD-sample, LTTB).
//!
//! All codecs implement [`Codec`] through one data path each:
//! `compress_into`/`decompress_into` over a reusable [`CodecScratch`]
//! arena, which the allocating `compress`/`decompress` (written once, in
//! the trait) call on a fresh arena. The lossy ones additionally implement
//! [`LossyCodec`], which adds ratio targeting and "virtual decompression"
//! recoding (shrinking an already-compressed block without reconstructing
//! the original floats — §IV-E of the paper).
//!
//! ```
//! use adaedge_codecs::{CodecRegistry, CodecId, LossyCodec};
//!
//! let reg = CodecRegistry::new(4); // 4 decimal digits (CBF dataset)
//! let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
//!
//! // Lossless arm:
//! let block = reg.get(CodecId::Sprintz).compress(&data).unwrap();
//! assert!(block.ratio() < 1.0);
//!
//! // Lossy arm tuned to a 10% budget, then recoded to 5%:
//! let paa = reg.get_lossy(CodecId::Paa).unwrap();
//! let block = paa.compress_to_ratio(&data, 0.10).unwrap();
//! let tighter = reg.recode(&block, 0.05).unwrap();
//! assert!(tighter.ratio() <= 0.05);
//! ```

#![warn(missing_docs)]
// The SIMD dispatch layer is the only source of `unsafe` in the crate;
// make every operation inside an unsafe fn carry its own unsafe block +
// SAFETY comment instead of inheriting the fn-level contract.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitio;
pub mod block;
pub mod buff;
pub mod chimp;
pub mod crc32c;
pub mod deflate;
pub mod dict;
pub mod direct;
pub mod elf;
pub mod error;
pub mod faultkit;
pub mod fft;
pub mod gorilla;
pub mod huffman;
pub mod lttb;
pub mod lz;
pub mod paa;
pub mod pla;
pub mod raw;
pub mod registry;
pub mod rle;
pub mod rrd;
pub mod scratch;
pub mod simd;
pub mod snappy;
pub mod sprintz;
pub mod traits;
pub mod util;

pub use block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
pub use crc32c::crc32c;
pub use direct::{agg_with_fallback, direct_agg, AggOp};
pub use error::{CodecError, Result};
pub use registry::CodecRegistry;
pub use scratch::CodecScratch;
pub use simd::Backend;
pub use traits::{Codec, CodecKind, LossyCodec};
