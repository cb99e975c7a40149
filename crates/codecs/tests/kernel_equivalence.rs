//! Property tests pinning every hot-loop kernel tier to the naive scalar
//! reference, across the whole backend ladder the host supports.
//!
//! `adaedge_codecs::simd::supported()` lists every runnable tier
//! (`[Scalar, Swar, ..]` plus whichever of SSE4.2/AVX2/NEON the CPU has),
//! and each property compares every tier against `Backend::Scalar` — so
//! on an AVX2 box one `cargo test` differentially validates scalar vs
//! SWAR vs SSE4.2 vs AVX2 in-process, over random lengths, alignments
//! (sub-slicing at random offsets), staging states, and ragged tails.
//! Quantize is pinned the same way on arbitrary bit-pattern floats,
//! constructed `k + 0.5` ties at every precision, subnormals and the
//! fixed-point range edge, and on its error contract (which error, and
//! which chunks are left in the output); Sprintz's fused block front end
//! (`Backend::quantize_deltas`) on the same points, and the bit pack from
//! a byte boundary (the AVX2 group-of-eight path) on its own. The FFT
//! butterfly stages are
//! pinned through whole forward and inverse transforms at every power of
//! two from 4 to 65536 and at the Bluestein lengths around 1000, and
//! directly through `Backend::fft_stages` on random twiddles at every
//! power of two from 2 to 65536 (odd and even stage counts), as are
//! Bluestein's pointwise products at odd and even lengths, on signed
//! zeros, subnormals and ±1e300, compared by `to_bits` (NaN results, whose
//! sign Rust leaves unspecified, by NaN-ness). The float-serialization
//! loops (no SIMD tier) keep their naive per-element references written
//! out here in the most obvious way.

use adaedge_codecs::bitio::zigzag_encode;
use adaedge_codecs::crc32c::crc32c;
use adaedge_codecs::fft::{dft_on, idft_inplace_on, Complex, Pointwise};
use adaedge_codecs::simd::{self, Backend};
use adaedge_codecs::util::{bytes_to_f64s, dequantize, f64s_to_bytes, pow10, quantize};
use adaedge_codecs::CodecError;
use proptest::prelude::*;

/// Exclusive bound on a scaled magnitude that quantize accepts.
const LIMIT: f64 = 4.5e15;
/// Points per quantize validation chunk.
const CHUNK: usize = 64;

/// Naive per-element quantization: the pre-optimization formulation.
fn quantize_naive(data: &[f64], precision: u8) -> Option<Vec<i64>> {
    let scale = pow10(precision).ok()?;
    let mut out = Vec::with_capacity(data.len());
    for &v in data {
        if !v.is_finite() {
            return None;
        }
        let x = v * scale;
        if x.abs() >= 4.5e15 {
            return None;
        }
        out.push(x.round() as i64);
    }
    Some(out)
}

/// The ladder above `Scalar`; every tier must agree with the reference.
fn tiers() -> impl Iterator<Item = Backend> {
    simd::supported().iter().copied().skip(1)
}

/// The input nearest `target / scale` (a few ulps either side) whose
/// product with `scale` is exactly `target`, if there is one.
fn scaled_to(target: f64, scale: f64) -> Option<f64> {
    let mut lo = target / scale;
    let mut hi = lo;
    for _ in 0..8 {
        for v in [lo, hi] {
            if v * scale == target {
                return Some(v);
            }
        }
        lo = lo.next_down();
        hi = hi.next_up();
    }
    None
}

/// One quantize input drawn by `kind`: arbitrary bits, a random point
/// near `k`, a `k + 0.5` tie, a subnormal, a magnitude a few ulps either
/// side of the range edge, or a tie just under the edge (where one unit
/// is two ulps).
fn quant_point(kind: u8, bits: u64, k: i64, scale: f64) -> f64 {
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    match kind % 6 {
        0 => f64::from_bits(bits),
        1 => (k as f64 + (bits >> 11) as f64 / (1u64 << 53) as f64) / scale,
        2 => scaled_to(k as f64 + 0.5, scale).unwrap_or(k as f64 / scale),
        3 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        4 => {
            let mut v = LIMIT / scale;
            for _ in 0..(bits >> 1) % 4 {
                v = if bits & 0x100 == 0 {
                    v.next_down()
                } else {
                    v.next_up()
                };
            }
            sign * v
        }
        _ => {
            let tie = LIMIT - (k.unsigned_abs() % 1_000_000) as f64 - 0.5;
            sign * scaled_to(tie, scale).unwrap_or(tie / scale)
        }
    }
}

/// Quantize through `backend`, returning the result and what is left in
/// the output buffer (which starts dirty, as a reused scratch would).
fn quantize_on(backend: Backend, data: &[f64], scale: f64) -> (Result<(), CodecError>, Vec<i64>) {
    let mut out = vec![7i64; 5];
    let r = backend.quantize(data, scale, &mut out);
    (r, out)
}

/// One FFT input value drawn by `kind` from the SplitMix64 stream
/// `state`: a signed zero, a subnormal, ±1e300, a unit-scale value or
/// arbitrary finite bits.
fn fft_value(kind: u64, state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let bits = z ^ (z >> 31);
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    match kind % 5 {
        0 => sign * 0.0,
        1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        2 => sign * 1e300,
        3 => sign * (bits >> 11) as f64 / (1u64 << 53) as f64,
        _ => {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }
    }
}

/// `n` complex inputs; `mix` 0..5 repeats one value class, 5 mixes them.
fn fft_input(n: usize, mix: u64, seed: u64) -> Vec<Complex> {
    let mut state = seed;
    (0..n as u64)
        .map(|i| {
            let kind = if mix < 5 {
                mix
            } else {
                i.wrapping_mul(seed | 1) >> 7
            };
            let re = fft_value(kind, &mut state);
            let im = fft_value(kind.wrapping_add(i), &mut state);
            Complex::new(re, im)
        })
        .collect()
}

/// `(re, im)` bit patterns of a complex vector.
type ComplexBits = Vec<(u64, u64)>;

/// `to_bits` of every part, except that every NaN maps to one pattern.
///
/// Rust leaves the sign and payload of a NaN result unspecified, and
/// LLVM commutes the operands of the scalar loop's adds at will, so a
/// transform that overflows to `inf - inf` yields NaNs whose sign bit no
/// tier can promise (the scalar loop's own depends on how it was
/// vectorized). Every other value, signed zeros and subnormals included,
/// must match bit for bit.
fn complex_bits(v: &[Complex]) -> ComplexBits {
    let bits = |x: f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    v.iter().map(|c| (bits(c.re), bits(c.im))).collect()
}

/// Forward and inverse transforms of `input` with the butterflies on
/// `backend`, as bits.
fn fft_both_on(backend: Backend, input: &[Complex]) -> (ComplexBits, ComplexBits) {
    let forward = complex_bits(&dft_on(backend, input));
    let mut inverse = input.to_vec();
    idft_inplace_on(backend, &mut inverse);
    (forward, complex_bits(&inverse))
}

/// Power-of-two sizes 4..=65536 and the Bluestein sizes around 1000.
fn fft_sizes() -> Vec<usize> {
    let mut sizes: Vec<usize> = (2..=16).map(|b| 1usize << b).collect();
    sizes.extend(990..=1010);
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn crc_tiers_match_scalar_at_every_length_and_offset(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        offset in 0usize..32,
    ) {
        // Sub-slicing at a random offset exercises every alignment of the
        // unaligned 8-byte loads.
        let s = &bytes[offset.min(bytes.len())..];
        let want = Backend::Scalar.crc32c_append(0, s);
        prop_assert_eq!(crc32c(s), want);
        for b in tiers() {
            prop_assert_eq!(b.crc32c_append(0, s), want, "{}", b.name());
        }
    }

    #[test]
    fn crc_tiers_compose_across_random_splits(
        bytes in prop::collection::vec(any::<u8>(), 0..4000),
        split in any::<usize>(),
        seed in any::<u32>(),
    ) {
        // Lengths up to 4000 cross the hardware kernels' 3-stream short
        // (3*64) and long (3*1024) block thresholds mid-stream.
        let mid = if bytes.is_empty() { 0 } else { split % bytes.len() };
        let (head, tail) = bytes.split_at(mid);
        // Streaming from an arbitrary prior state must agree between the
        // tiers, and composing append over a split must equal one shot.
        let want_head = Backend::Scalar.crc32c_append(seed, head);
        let want_all = Backend::Scalar.crc32c_append(want_head, tail);
        for b in tiers() {
            let h = b.crc32c_append(seed, head);
            prop_assert_eq!(h, want_head, "head {}", b.name());
            prop_assert_eq!(b.crc32c_append(h, tail), want_all, "tail {}", b.name());
        }
    }

    #[test]
    fn match_extension_tiers_match_byte_loop(
        mut data in prop::collection::vec(any::<u8>(), 2..512),
        a_idx in any::<usize>(),
        b_idx in any::<usize>(),
        max_idx in any::<usize>(),
        copy_back in any::<bool>(),
    ) {
        let len = data.len();
        let (mut a, mut b) = (a_idx % len, b_idx % len);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if copy_back && a < b {
            // Plant a genuine match so long extensions are exercised, not
            // just immediate mismatches of random bytes.
            let n = (len - b).min(b - a);
            let (head, tail) = data.split_at_mut(b);
            tail[..n].copy_from_slice(&head[a..a + n]);
        }
        let max = max_idx % (len - b + 1);
        let want = Backend::Scalar.match_len(&data, a, b, max);
        for t in tiers() {
            prop_assert_eq!(t.match_len(&data, a, b, max), want, "{}", t.name());
        }
    }

    #[test]
    fn pack_run_tiers_match_bit_by_bit_reference(
        values in prop::collection::vec(any::<u64>(), 0..200),
        offset in 0usize..8,
        width in 1u32..=64,
        nacc in 0u32..64,
        stage in any::<u64>(),
    ) {
        // Random staging state: `nacc` bits already latched in the high end
        // of the accumulator (as after any partial write), random `values`
        // sub-slice alignment via `offset`.
        let acc = if nacc == 0 { 0 } else { stage & !((1u64 << (64 - nacc)) - 1) };
        let vals = &values[offset.min(values.len())..];
        let mut want_buf = Vec::new();
        let want = Backend::Scalar.pack_run(&mut want_buf, acc, nacc, vals, width);
        for b in tiers() {
            let mut buf = Vec::new();
            let got = b.pack_run(&mut buf, acc, nacc, vals, width);
            prop_assert_eq!(got, want, "state {}", b.name());
            prop_assert_eq!(&buf, &want_buf, "bytes {}", b.name());
        }
    }

    #[test]
    fn unpack_run_tiers_match_bit_by_bit_reference(
        buf in prop::collection::vec(any::<u8>(), 1..400),
        pos_idx in any::<usize>(),
        width in 1u32..=64,
        take_idx in any::<usize>(),
    ) {
        // Random bit cursor (any intra-byte phase) and the largest-minus-
        // random run that still fits, so ragged tails of every residue
        // against the 4-lane step are produced.
        let total_bits = buf.len() * 8;
        let pos = pos_idx % total_bits;
        let fit = (total_bits - pos) / width as usize;
        let take = if fit == 0 { 0 } else { take_idx % (fit + 1) };
        let mut want = vec![0u64; take];
        let want_pos = Backend::Scalar.unpack_run(&buf, pos, &mut want, width);
        for b in tiers() {
            let mut out = vec![0u64; take];
            let got_pos = b.unpack_run(&buf, pos, &mut out, width);
            prop_assert_eq!(got_pos, want_pos, "cursor {}", b.name());
            prop_assert_eq!(&out, &want, "fields {}", b.name());
        }
    }

    #[test]
    fn pack_then_unpack_roundtrips_across_tiers(
        values in prop::collection::vec(any::<u64>(), 1..150),
        width in 1u32..=64,
    ) {
        // Cross-tier wire compatibility: bytes packed by any tier must
        // unpack identically on any other tier.
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        for packer in simd::supported() {
            let mut buf = Vec::new();
            let (acc, nacc) = packer.pack_run(&mut buf, 0, 0, &values, width);
            if nacc > 0 {
                buf.extend_from_slice(&acc.to_be_bytes()[..(nacc as usize).div_ceil(8)]);
            }
            for unpacker in simd::supported() {
                let mut out = vec![0u64; values.len()];
                unpacker.unpack_run(&buf, 0, &mut out, width);
                prop_assert_eq!(&out, &masked, "{} -> {}", packer.name(), unpacker.name());
            }
        }
    }

    #[test]
    fn unzigzag_undelta_tiers_invert_delta_zigzag(
        q in prop::collection::vec(any::<i64>(), 2..300),
    ) {
        // Zigzag the wrapping deltas, invert with every tier: must
        // reproduce the original series and final value exactly (wrapping
        // arithmetic end to end).
        let zs: Vec<u64> = q
            .windows(2)
            .map(|w| zigzag_encode(w[1].wrapping_sub(w[0])))
            .collect();
        for b in simd::supported() {
            let mut out = vec![0i64; zs.len()];
            let last = b.unzigzag_undelta(q[0], &zs, &mut out);
            prop_assert_eq!(&out, &q[1..], "series {}", b.name());
            prop_assert_eq!(last, *q.last().unwrap(), "final {}", b.name());
        }
    }

    #[test]
    fn dequantize_tiers_are_bit_exact(
        q in prop::collection::vec(any::<i64>(), 0..300),
        precision in 0u8..=6,
    ) {
        // Bit-exact, not approximately equal: every tier must keep the
        // correctly-rounded IEEE division (a reciprocal multiply would
        // round differently), including the extreme-magnitude quadrants of
        // the full i64 range that the AVX2 conversion trick must cover.
        let scale = pow10(precision).unwrap();
        let naive: Vec<u64> = q.iter().map(|&x| (x as f64 / scale).to_bits()).collect();
        let fused = dequantize(&q, precision).unwrap();
        prop_assert_eq!(fused.len(), naive.len());
        for (f, n) in fused.iter().zip(&naive) {
            prop_assert_eq!(f.to_bits(), *n);
        }
        for b in tiers() {
            let mut out = vec![0.0f64; q.len()];
            b.dequantize(&q, scale, &mut out);
            for (f, n) in out.iter().zip(&naive) {
                prop_assert_eq!(f.to_bits(), *n, "{}", b.name());
            }
        }
    }

    #[test]
    fn fused_quantize_matches_naive_reference(
        data in prop::collection::vec(-1.0e8f64..1.0e8, 0..300),
        precision in 0u8..=6,
    ) {
        prop_assert_eq!(quantize(&data, precision).ok(), quantize_naive(&data, precision));
    }

    #[test]
    fn fused_quantize_rejects_what_the_naive_loop_rejects(
        mut data in prop::collection::vec(any::<f64>(), 1..130),
        poison in any::<usize>(),
        kind in 0u8..3,
    ) {
        // Guarantee at least one rejecting value at a random position (the
        // rest of the vector is arbitrary bit-pattern floats).
        let i = poison % data.len();
        data[i] = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => 1.0e18,
        };
        prop_assert!(quantize(&data, 4).is_err());
        prop_assert!(quantize_naive(&data, 4).is_none());
    }

    #[test]
    fn quantize_tiers_match_scalar_on_mixed_inputs(
        points in prop::collection::vec(
            (0u8..6, any::<u64>(), -2_000_000i64..2_000_000),
            0..300,
        ),
        finite_only in any::<bool>(),
        precision in 0u8..=12,
        offset in 0usize..4,
    ) {
        // Arbitrary bits and the range-edge kind fail most chunks, so half
        // the cases draw only the in-range kinds and whole chunks reach
        // the rounding.
        let scale = pow10(precision).unwrap();
        let data: Vec<f64> = points
            .iter()
            .map(|&(kind, bits, k)| {
                let kind = if finite_only { [1, 2, 3, 5][kind as usize % 4] } else { kind };
                quant_point(kind, bits, k, scale)
            })
            .collect();
        let data = &data[offset.min(data.len())..];
        let want = quantize_on(Backend::Scalar, data, scale);
        for b in tiers() {
            prop_assert_eq!(&quantize_on(b, data, scale), &want, "{}", b.name());
        }
    }

    #[test]
    fn quantize_deltas_tiers_match_scalar(
        points in prop::collection::vec(
            (0u8..6, any::<u64>(), -2_000_000i64..2_000_000),
            0..300,
        ),
        finite_only in any::<bool>(),
        precision in 0u8..=12,
        prev in any::<i64>(),
    ) {
        // Sprintz's fused block front end: when every point is accepted,
        // each tier must give the reference's deltas, OR-fold and last
        // value; every tier must agree with it on whether they were.
        let scale = pow10(precision).unwrap();
        let data: Vec<f64> = points
            .iter()
            .map(|&(kind, bits, k)| {
                let kind = if finite_only { [1, 2, 3, 5][kind as usize % 4] } else { kind };
                quant_point(kind, bits, k, scale)
            })
            .collect();
        let mut want_lane = vec![0u64; data.len()];
        let want = Backend::Scalar.quantize_deltas(&data, scale, prev, &mut want_lane);
        prop_assert_eq!(want.2, quantize_on(Backend::Scalar, &data, scale).0.is_ok());
        for b in tiers() {
            let mut lane = vec![7u64; data.len()];
            let got = b.quantize_deltas(&data, scale, prev, &mut lane);
            prop_assert_eq!(got.2, want.2, "{} accepts", b.name());
            if want.2 {
                prop_assert_eq!(got, want, "{}", b.name());
                prop_assert_eq!(&lane, &want_lane, "{} lane", b.name());
            }
        }
    }

    #[test]
    fn pack_run_tiers_match_reference_from_a_byte_boundary(
        values in prop::collection::vec(any::<u64>(), 0..300),
        width in 1u32..=20,
        staged_bytes in 0u32..8,
        stage in any::<u64>(),
        prefix in 0usize..9,
    ) {
        // Byte-aligned starts (as every Sprintz block has) take the AVX2
        // group-of-eight path: same bytes and staging state as the
        // bit-by-bit reference, after any bytes already in the buffer.
        let nacc = 8 * staged_bytes;
        let acc = if nacc == 0 { 0 } else { stage & !((1u64 << (64 - nacc)) - 1) };
        let mut want_buf = vec![0xA5u8; prefix];
        let want = Backend::Scalar.pack_run(&mut want_buf, acc, nacc, &values, width);
        for b in tiers() {
            let mut buf = vec![0xA5u8; prefix];
            let got = b.pack_run(&mut buf, acc, nacc, &values, width);
            prop_assert_eq!(got, want, "state {}", b.name());
            prop_assert_eq!(&buf, &want_buf, "bytes {}", b.name());
        }
    }

    #[test]
    fn quantize_errors_match_scalar_in_any_chunk(
        len in 1usize..400,
        poisons in prop::collection::vec((any::<usize>(), 0u8..5), 1..4),
        precision in 0u8..=12,
    ) {
        // In-range points with a few rejecting ones planted anywhere:
        // every tier must name the same error and keep the same chunks.
        let scale = pow10(precision).unwrap();
        let mut data: Vec<f64> = (0..len)
            .map(|i| ((i as f64 * 0.37).sin() * 1e3).trunc() / 8.0)
            .collect();
        let mut first_bad = len;
        for &(at, kind) in &poisons {
            let i = at % len;
            data[i] = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => LIMIT / scale * 1.5,
                _ => -f64::MAX,
            };
            first_bad = first_bad.min(i);
        }
        let want = quantize_on(Backend::Scalar, &data, scale);
        prop_assert!(want.0.is_err());
        prop_assert_eq!(want.1.len(), first_bad / CHUNK * CHUNK);
        for b in tiers() {
            prop_assert_eq!(&quantize_on(b, &data, scale), &want, "{}", b.name());
        }
    }

    #[test]
    fn bulk_float_serialization_matches_per_element(
        data in prop::collection::vec(any::<f64>(), 0..200),
    ) {
        let mut naive = Vec::new();
        for v in &data {
            naive.extend_from_slice(&v.to_le_bytes());
        }
        let bulk = f64s_to_bytes(&data);
        prop_assert_eq!(&bulk, &naive);
        let back = bytes_to_f64s(&bulk).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (b, d) in back.iter().zip(&data) {
            prop_assert_eq!(b.to_bits(), d.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fft_butterfly_tiers_match_scalar(
        size in 0usize..36,
        mix in 0u64..6,
        seed in any::<u64>(),
    ) {
        let n = fft_sizes()[size];
        let input = fft_input(n, mix, seed);
        let want = fft_both_on(Backend::Scalar, &input);
        for b in tiers() {
            prop_assert!(fft_both_on(b, &input) == want, "{} at n = {}", b.name(), n);
        }
    }

    #[test]
    fn fft_butterfly_stage_tiers_match_scalar(
        log2 in 1u32..17,
        mix in 0u64..6,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log2;
        let (want, got) = stages_on_every_tier(n, mix, seed);
        for (b, got) in got {
            prop_assert_eq!(&got, &want, "{} at n = {}", b.name(), n);
        }
    }

    #[test]
    fn fft_pointwise_tiers_match_scalar(
        len in 0usize..40,
        op in 0u8..3,
        scale_kind in 0u64..5,
        mix in 0u64..6,
        seed in any::<u64>(),
    ) {
        // Odd lengths reach the kernels' scalar tail.
        let mut state = !seed;
        let op = match op {
            0 => Pointwise::Mul,
            1 => Pointwise::MulConj,
            _ => Pointwise::ConjScaleMul(fft_value(scale_kind, &mut state)),
        };
        let buf = fft_input(len, mix, seed);
        let f = fft_input(len, mix, !seed);
        let mut want = buf.clone();
        Backend::Scalar.fft_pointwise(op, &mut want, &f);
        for b in tiers() {
            let mut got = buf.clone();
            b.fft_pointwise(op, &mut got, &f);
            prop_assert_eq!(complex_bits(&got), complex_bits(&want), "{} {:?}", b.name(), op);
        }
    }

    #[test]
    fn fft_pointwise_tiers_keep_nan_bits(
        len in 0usize..40,
        op in 0u8..3,
        nan_mask in any::<u64>(),
        payload_seed in any::<u64>(),
        mix in 0u64..6,
        seed in any::<u64>(),
    ) {
        // A NaN of any sign and payload in one part of an entry (as a
        // crafted decode spectrum feeds them in), against finite factors:
        // every NaN result then has one NaN source, so its bits follow
        // from where the conjugations are, and each tier must conjugate
        // where the reference does. (Two NaN sources in one add may meet
        // in either order: LLVM commutes the reference's adds at will.)
        let nan = |bits: u64| f64::from_bits(bits | 0x7FF0_0000_0000_0001);
        let mut buf = fft_input(len, mix, seed);
        for (k, c) in buf.iter_mut().enumerate() {
            let payload = payload_seed.wrapping_mul(2 * k as u64 + 1).rotate_left(k as u32);
            match (nan_mask >> (k % 32 * 2)) & 3 {
                1 => c.re = nan(payload),
                2 => c.im = nan(payload),
                _ => {}
            }
        }
        let f = fft_input(len, mix, !seed);
        let op = match op {
            0 => Pointwise::Mul,
            1 => Pointwise::MulConj,
            _ => Pointwise::ConjScaleMul(1.0 / (len.max(1) as f64)),
        };
        let exact = |v: &[Complex]| -> ComplexBits {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let mut want = buf.clone();
        Backend::Scalar.fft_pointwise(op, &mut want, &f);
        for b in tiers() {
            let mut got = buf.clone();
            b.fft_pointwise(op, &mut got, &f);
            prop_assert_eq!(exact(&got), exact(&want), "{} {:?}", b.name(), op);
        }
    }
}

/// All butterfly stages of a random `n`-entry buffer with random
/// twiddles through `Backend::fft_stages`: the `Scalar` result and each
/// other tier's, as bits.
fn stages_on_every_tier(
    n: usize,
    mix: u64,
    seed: u64,
) -> (ComplexBits, Vec<(Backend, ComplexBits)>) {
    let buf = fft_input(n, mix, seed);
    let tw = fft_input(n - 1, mix, !seed);
    let run = |b: Backend| {
        let mut out = buf.clone();
        b.fft_stages(&mut out, &tw);
        complex_bits(&out)
    };
    (run(Backend::Scalar), tiers().map(|b| (b, run(b))).collect())
}

/// The stage entry at every power of two from 2 to 65536, so odd and even
/// stage counts both run (a leftover stage after the fused pairs or
/// none), on each value class alone and mixed.
#[test]
fn fft_butterfly_stage_tiers_match_scalar_at_every_size() {
    for log2 in 1..=16 {
        let n = 1usize << log2;
        for mix in 0..6 {
            let (want, got) = stages_on_every_tier(n, mix, n as u64 * 17 + mix);
            for (b, got) in got {
                assert!(got == want, "{} at n = {n}, mix {mix}", b.name());
            }
        }
    }
}

/// Every FFT size class once, on each value class alone and mixed.
#[test]
fn fft_butterfly_tiers_match_scalar_at_every_size() {
    for n in fft_sizes() {
        for mix in 0..6 {
            let input = fft_input(n, mix, n as u64 * 31 + mix);
            let want = fft_both_on(Backend::Scalar, &input);
            for b in tiers() {
                assert!(
                    fft_both_on(b, &input) == want,
                    "{} at n = {n}, mix {mix}",
                    b.name()
                );
            }
        }
    }
}

/// The boundary tails proptest sampling can miss: exact 4-lane multiples,
/// one-off residues, and the width limits of the AVX2 pack (16) and
/// unpack (14) fast paths.
#[test]
fn run_kernels_cover_width_and_tail_boundaries() {
    let values: Vec<u64> = (0..70u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for width in [1u32, 7, 8, 13, 14, 15, 16, 17, 63, 64] {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 12, 16, 64, 65, 70] {
            let vals = &values[..n];
            let mut want_buf = Vec::new();
            let want = Backend::Scalar.pack_run(&mut want_buf, 0, 0, vals, width);
            for b in simd::supported().iter().skip(1) {
                let mut buf = Vec::new();
                let got = b.pack_run(&mut buf, 0, 0, vals, width);
                assert_eq!((got, &buf), (want, &want_buf), "{} w{width} n{n}", b.name());
            }
            // Unpack the scalar bytes (flushed) back on every tier.
            let mut flushed = want_buf.clone();
            if want.1 > 0 {
                flushed.extend_from_slice(&want.0.to_be_bytes()[..(want.1 as usize).div_ceil(8)]);
            }
            let mut expect = vec![0u64; n];
            Backend::Scalar.unpack_run(&flushed, 0, &mut expect, width);
            for b in simd::supported().iter().skip(1) {
                let mut out = vec![0u64; n];
                b.unpack_run(&flushed, 0, &mut out, width);
                assert_eq!(out, expect, "unpack {} w{width} n{n}", b.name());
            }
        }
    }
}

/// Exact `k + 0.5` ties at every precision, both signs, with their
/// one-ulp neighbours, at every offset against the 4-lane step: ties
/// round away from zero on every tier.
#[test]
fn quantize_ties_round_half_away_at_every_precision() {
    for precision in 0u8..=12 {
        let scale = pow10(precision).unwrap();
        let mut data = Vec::new();
        let mut ties = 0;
        for k in -200i64..200 {
            if let Some(v) = scaled_to(k as f64 + 0.5, scale) {
                data.extend([v, v.next_up(), v.next_down()]);
                ties += 1;
            }
        }
        assert!(ties >= 300, "precision {precision}: {ties} ties");
        for offset in 0..4 {
            let d = &data[offset..];
            let (r, want) = quantize_on(Backend::Scalar, d, scale);
            r.unwrap();
            for (&v, &q) in d.iter().zip(&want) {
                let x = v * scale;
                if x.abs().fract() == 0.5 {
                    assert_eq!(q, (x.abs() + 0.5) as i64 * x.signum() as i64, "{x}");
                }
            }
            for b in tiers() {
                let got = quantize_on(b, d, scale);
                assert_eq!(got, (Ok(()), want.clone()), "{} p{precision}", b.name());
            }
        }
    }
}

/// Hand-placed edges the samplers can miss: signed zeros, the largest
/// double below one half, subnormals, the last accepted magnitudes and
/// the first rejected one, and the within-chunk error order.
#[test]
fn quantize_edges_match_scalar() {
    let below_half = 0.5f64.next_down();
    let edge = LIMIT.next_down();
    let cases: Vec<Vec<f64>> = vec![
        vec![
            0.0,
            -0.0,
            below_half,
            -below_half,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
        ],
        vec![
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e-310,
        ],
        vec![edge, -edge, edge - 0.5, -(edge - 0.5), 2f64.powi(51) + 0.5],
        vec![LIMIT],
        vec![-LIMIT],
        // NaN after an overflow in the same chunk: non-finite wins.
        vec![1.0, LIMIT, 2.0, f64::NAN, 3.0],
        // Overflow in an earlier chunk than the NaN: the overflow wins.
        (0..130)
            .map(|i| match i {
                10 => 1e300,
                100 => f64::NAN,
                _ => i as f64,
            })
            .collect(),
    ];
    for data in &cases {
        for n in 0..=data.len() {
            let d = &data[..n];
            let want = quantize_on(Backend::Scalar, d, 1.0);
            for b in tiers() {
                assert_eq!(quantize_on(b, d, 1.0), want, "{} {d:?}", b.name());
            }
        }
    }
    let (r, out) = quantize_on(Backend::Scalar, &cases[5], 1.0);
    assert_eq!(r, Err(CodecError::UnsupportedValue("non-finite float")));
    assert!(out.is_empty());
    let (r, out) = quantize_on(Backend::Scalar, &cases[6], 1.0);
    assert!(matches!(r, Err(CodecError::UnsupportedValue(m)) if m.starts_with("magnitude")));
    assert!(out.is_empty());
}

/// The forced-backend seam: `ADAEDGE_SIMD` is read once per process, so
/// this test (run with and without the env var by CI) just pins that the
/// resolved backend is executable and listed.
#[test]
fn active_backend_is_always_supported() {
    let active = simd::active();
    assert!(active.is_supported(), "{}", active.name());
    assert!(simd::supported().contains(&active));
    if let Ok(name) = std::env::var("ADAEDGE_SIMD") {
        if let Some(requested) = Backend::from_name(name.trim()) {
            if requested.is_supported() {
                assert_eq!(
                    active, requested,
                    "supported forced backend must be honored"
                );
            }
        }
    }
}
