//! A fresh scratch arena against a reused, dirty one.
//!
//! The allocating `compress`/`decompress` run `compress_into` /
//! `decompress_into` on a fresh `CodecScratch`. For every codec and a
//! spread of data profiles, a call on an arena already used by other
//! codecs and calls must be byte-for-byte (payloads) and bit-for-bit
//! (decoded values) identical to the fresh one, including for blocks
//! produced by the lossy `compress_to_ratio` path, so no buffer state
//! leaks from one call into the next.

use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch, CompressedBlock};
use proptest::prelude::*;

const PRECISION: u8 = 4;

/// Deterministic pseudo-random stream for data generation.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn round(v: f64) -> f64 {
    let p = 10f64.powi(PRECISION as i32);
    (v * p).round() / p
}

/// One of several data profiles chosen by `profile % 5`.
fn generate(profile: u8, seed: u64, len: usize) -> Vec<f64> {
    let mut next = lcg(seed);
    match profile % 5 {
        // Smooth rounded signal (the quantizing codecs' home turf).
        0 => (0..len)
            .map(|i| round((i as f64 * 0.013).sin() * 3.0))
            .collect(),
        // Step/plateau signal (RLE/dict territory).
        1 => (0..len).map(|i| (i / 17) as f64).collect(),
        // Small value alphabet, shuffled.
        2 => {
            let alphabet: Vec<f64> = (0..4).map(|_| round(next() * 10.0)).collect();
            (0..len)
                .map(|_| alphabet[(next() * 4.0) as usize % 4])
                .collect()
        }
        // Rounded noise.
        3 => (0..len).map(|_| round(next() * 7.0 - 3.5)).collect(),
        // Constant.
        _ => vec![round(seed as f64 * 1e-3); len],
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert both API paths agree for one codec on one input, reusing the
/// caller's arena (so cross-call contamination would be caught too).
fn check_codec(
    reg: &CodecRegistry,
    id: CodecId,
    data: &[f64],
    scratch: &mut CodecScratch,
    out: &mut Vec<f64>,
) {
    let alloc = reg.get(id).compress(data);
    let reused = reg.compress_into(id, data, scratch);
    match (alloc, reused) {
        (Ok(block), Ok(blk_ref)) => {
            assert_eq!(blk_ref.codec, block.codec, "{id}: codec id");
            assert_eq!(blk_ref.n_points, block.n_points, "{id}: n_points");
            assert_eq!(blk_ref.payload, &block.payload[..], "{id}: payload bytes");
            check_decompress(reg, &block, scratch, out);
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{id}: paths disagree on success: alloc {a:?} vs into {b:?}"),
    }
}

/// Assert both decompression paths reconstruct the same values.
fn check_decompress(
    reg: &CodecRegistry,
    block: &CompressedBlock,
    scratch: &mut CodecScratch,
    out: &mut Vec<f64>,
) {
    let alloc = reg.decompress(block).expect("allocating decompress");
    reg.decompress_into(block, scratch, out)
        .expect("buffer-reuse decompress");
    assert_eq!(
        bits(out),
        bits(&alloc),
        "{}: reconstruction mismatch",
        block.codec
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every codec, every profile: the two compression paths emit identical
    /// bytes and the two decompression paths identical values, through one
    /// shared arena.
    #[test]
    fn all_codecs_agree(profile in 0u8..5, seed in any::<u64>(), len in 1usize..400) {
        let reg = CodecRegistry::new(PRECISION);
        let data = generate(profile, seed, len);
        let mut scratch = CodecScratch::new();
        let mut out = Vec::new();
        for id in CodecId::ALL {
            check_codec(&reg, id, &data, &mut scratch, &mut out);
        }
    }

    /// Blocks produced by the lossy `compress_to_ratio` path decompress
    /// identically through both APIs.
    #[test]
    fn lossy_ratio_blocks_agree(profile in 0u8..5, seed in any::<u64>(), len in 64usize..512) {
        let reg = CodecRegistry::new(PRECISION);
        let data = generate(profile, seed, len);
        let mut scratch = CodecScratch::new();
        let mut out = Vec::new();
        for id in CodecRegistry::lossy_candidates() {
            let lossy = reg.get_lossy(id).expect("lossy candidate");
            for ratio in [0.5, 0.3] {
                if let Ok(block) = lossy.compress_to_ratio(&data, ratio) {
                    check_decompress(&reg, &block, &mut scratch, &mut out);
                }
            }
        }
    }
}

/// A dirty arena (left over from a different codec on different data) must
/// not leak into the next compression.
#[test]
fn scratch_reuse_across_codecs_is_clean() {
    let reg = CodecRegistry::new(PRECISION);
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    let long = generate(3, 99, 900);
    let short = generate(1, 7, 33);
    // Interleave codecs and inputs of very different sizes.
    for round in 0..3 {
        for id in CodecId::ALL {
            let data = if (round + id as usize).is_multiple_of(2) {
                &long
            } else {
                &short
            };
            check_codec(&reg, id, data, &mut scratch, &mut out);
        }
    }
}

/// Special values (NaN payloads, signed zero, infinities) roundtrip
/// bit-exactly through both paths on the bit-pattern codecs.
#[test]
fn special_values_agree() {
    let reg = CodecRegistry::new(PRECISION);
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    let data = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        f64::NAN,
        1.5,
    ];
    for id in [
        CodecId::Raw,
        CodecId::Rle,
        CodecId::Dict,
        CodecId::Gorilla,
        CodecId::Chimp,
        CodecId::Snappy,
        CodecId::Gzip,
        CodecId::Zlib6,
    ] {
        check_codec(&reg, id, &data, &mut scratch, &mut out);
    }
    // Codecs that reject non-finite input must do so on both paths.
    for id in [CodecId::Elf, CodecId::Sprintz, CodecId::Buff] {
        assert!(reg.get(id).compress(&data).is_err(), "{id}");
        assert!(reg.compress_into(id, &data, &mut scratch).is_err(), "{id}");
    }
}

/// Empty input errors on both paths for every codec.
#[test]
fn empty_input_agrees() {
    let reg = CodecRegistry::new(PRECISION);
    let mut scratch = CodecScratch::new();
    for id in CodecId::ALL {
        assert!(reg.get(id).compress(&[]).is_err(), "{id}: alloc path");
        assert!(
            reg.compress_into(id, &[], &mut scratch).is_err(),
            "{id}: into path"
        );
    }
}

/// FFT at segment lengths past the proptests' range, Bluestein (999, 1000,
/// 1001) and radix-2 (1024): both API paths agree through one arena that
/// other codecs dirty in between, for ratio-targeted and recoded blocks.
#[test]
fn fft_segment_lengths_agree() {
    let reg = CodecRegistry::new(PRECISION);
    let fft = reg.get_lossy(CodecId::Fft).expect("fft is lossy");
    let mut scratch = CodecScratch::new();
    let mut out = vec![f64::NAN; 7];
    for n in [999, 1000, 1001, 1024] {
        for profile in 0..5 {
            let data = generate(profile, n as u64, n);
            check_codec(&reg, CodecId::Fft, &data, &mut scratch, &mut out);
            check_codec(&reg, CodecId::Gzip, &data, &mut scratch, &mut out);
            for ratio in [0.2, 0.05] {
                let block = fft.compress_to_ratio(&data, ratio).expect("fft ratio");
                check_decompress(&reg, &block, &mut scratch, &mut out);
                let recoded = fft.recode(&block, ratio / 4.0).expect("fft recode");
                check_decompress(&reg, &recoded, &mut scratch, &mut out);
            }
        }
    }
}
