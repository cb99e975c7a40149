//! x86-64 kernels for the SIMD dispatch layer: hardware CRC-32C (SSE4.2)
//! and 256-bit (AVX2) match extension, bit pack/unpack, fused transforms,
//! quantize, Sprintz's block front end, dequantize, FFT butterflies and
//! Bluestein products.
//!
//! Every function is `#[target_feature]`-gated and reached only through
//! the guarded arms in [`super::Backend`], which verify the feature at
//! runtime before the (unsafe) call. All kernels are bit-identical to
//! their scalar twins; the per-backend proptests in
//! `tests/kernel_equivalence.rs` pin that over lengths, alignments and
//! ragged tails.

use super::crc_shift::{self, LONG, SHORT};
use crate::bitio;
use crate::error::Result;
use crate::fft::{self, Complex, Pointwise};
use crate::lz;
use crate::util::{self, QUANT_LIMIT, TWO52};
use core::arch::x86_64::*;

#[inline]
fn le_u64(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunk of 8"))
}

/// Hardware CRC-32C over `bytes` extending `crc`
/// ([`crate::crc32c::crc32c_append`] semantics).
///
/// The `crc32` instruction has a 3-cycle latency but single-cycle
/// throughput, so one serial chain leaves two thirds of the unit idle.
/// Large inputs are therefore split into three interleaved streams whose
/// per-block results are folded back together with the compile-time
/// zero-block operators in [`crc_shift`]: `crc(A‖B‖C) =
/// shift(shift(crc_A) ^ crc_B) ^ crc_C`.
#[target_feature(enable = "sse4.2")]
pub(super) fn crc32c_sse42(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut rest = bytes;
    // 3-stream long blocks, then 3-stream short blocks for mid-size
    // tails. Each inner loop carries three independent dependency chains.
    for (block_len, table) in [
        (LONG, &crc_shift::LONG_SHIFT),
        (SHORT, &crc_shift::SHORT_SHIFT),
    ] {
        while rest.len() >= 3 * block_len {
            let (s0, tail) = rest.split_at(block_len);
            let (s1, tail) = tail.split_at(block_len);
            let (s2, tail) = tail.split_at(block_len);
            let (mut c0, mut c1, mut c2) = (c as u64, 0u64, 0u64);
            for ((w0, w1), w2) in s0
                .chunks_exact(8)
                .zip(s1.chunks_exact(8))
                .zip(s2.chunks_exact(8))
            {
                c0 = _mm_crc32_u64(c0, le_u64(w0));
                c1 = _mm_crc32_u64(c1, le_u64(w1));
                c2 = _mm_crc32_u64(c2, le_u64(w2));
            }
            let folded = crc_shift::shift(table, c0 as u32) ^ c1 as u32;
            c = crc_shift::shift(table, folded) ^ c2 as u32;
            rest = tail;
        }
    }
    // Single-stream words, then bytes.
    let mut chunks = rest.chunks_exact(8);
    let mut c64 = c as u64;
    for w in &mut chunks {
        c64 = _mm_crc32_u64(c64, le_u64(w));
    }
    c = c64 as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// 32-bytes-per-step match extension ([`crate::lz::match_len`]
/// semantics): compare/movemask locates the first mismatching byte with
/// one trailing-zeros count; the sub-32-byte tail rides the SWAR kernel.
#[target_feature(enable = "avx2")]
pub(super) fn match_len_avx2(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    debug_assert!(a + max <= data.len() && b + max <= data.len());
    let base = data.as_ptr();
    let mut len = 0;
    while len + 32 <= max {
        // SAFETY: `len + 32 <= max` and the caller-asserted contract
        // `a + max <= data.len()` (checked in the dispatching arm, and
        // re-debug_asserted above) keep both 32-byte loads inside `data`.
        let (va, vb) = unsafe {
            (
                _mm256_loadu_si256(base.add(a + len).cast::<__m256i>()),
                _mm256_loadu_si256(base.add(b + len).cast::<__m256i>()),
            )
        };
        let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32;
        if eq != u32::MAX {
            return len + (!eq).trailing_zeros() as usize;
        }
        len += 32;
    }
    len + lz::match_len_swar(data, a + len, b + len, max - len)
}

/// AVX2 bulk bit-pack for widths 1..=16 ([`super::Backend::pack_run`]
/// semantics): four values are masked, shifted to their in-chunk bit
/// positions with a per-lane variable shift and OR-folded into one
/// `4*width`-bit chunk, so the serial accumulator is touched once per
/// four values instead of once per value.
///
/// From a byte boundary (`nacc % 8 == 0`, as at the start of every Sprintz
/// block) eight values are exactly `width` bytes: the staged bytes are
/// spilled, each group of eight becomes two chunks stored big-endian as
/// one 16-byte write, of which the next group overwrites all but the
/// first `width` bytes, and the bytes past the last whole word go back
/// into the accumulator. The ragged tail rides the SWAR kernel.
#[target_feature(enable = "avx2")]
pub(super) fn pack_run_avx2(
    buf: &mut Vec<u8>,
    acc: u64,
    nacc: u32,
    values: &[u64],
    width: u32,
) -> (u64, u32) {
    debug_assert!((1..=16).contains(&width) && nacc < 64);
    let gw = 4 * width; // chunk bits, <= 64
    let mask = (1u64 << width) - 1;
    let vmask = _mm256_set1_epi64x(mask as i64);
    // Lane i holds values[i]; the first value lands highest in the chunk.
    let shifts = _mm256_set_epi64x(0, width as i64, 2 * width as i64, 3 * width as i64);
    let (mut acc, mut nacc) = (acc, nacc);
    let mut rest = values;
    if nacc.is_multiple_of(8) && values.len() >= 8 {
        let start = buf.len();
        buf.extend_from_slice(&acc.to_be_bytes()[..(nacc / 8) as usize]);
        let mut groups = values.chunks_exact(8);
        // Room for every group's bytes plus the last store's overhang.
        buf.reserve(groups.len() * width as usize + 16);
        let mut len = buf.len();
        // The two chunks `A` (first four values) and `B` hold
        // `A·2^(128 - 4w) + B·2^(128 - 8w)` as 64-bit halves `[hi, lo]`:
        // `hi = A << (64 - 4w) | B << (64 - 8w) | B >> (8w - 64)` and
        // `lo = B << (128 - 8w)`. Variable shifts by 64 or more (a
        // negative count wraps there) give zero, so one formula covers
        // every width.
        let w = width as i64;
        let to_hi_lo = _mm_set_epi64x(128 - 8 * w, 64 - 4 * w);
        let b_up = _mm_set_epi64x(64 - 8 * w, 64);
        let b_down = _mm_set_epi64x(8 * w - 64, 64);
        // Byte-reverse each 64-bit half: big-endian bytes in memory order.
        let bswap = _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
        for group in &mut groups {
            // SAFETY: `group` is exactly eight u64s from `chunks_exact(8)`.
            let (a, b) = unsafe {
                (
                    _mm256_loadu_si256(group.as_ptr().cast::<__m256i>()),
                    _mm256_loadu_si256(group.as_ptr().add(4).cast::<__m256i>()),
                )
            };
            let pa = _mm256_sllv_epi64(_mm256_and_si256(a, vmask), shifts);
            let pb = _mm256_sllv_epi64(_mm256_and_si256(b, vmask), shifts);
            // `[a0|a1, b0|b1 | a2|a3, b2|b3]`, then the halves OR-ed: the
            // two chunks side by side, `[A, B]`.
            let t = _mm256_or_si256(_mm256_unpacklo_epi64(pa, pb), _mm256_unpackhi_epi64(pa, pb));
            let ab = _mm_or_si128(_mm256_castsi256_si128(t), _mm256_extracti128_si256::<1>(t));
            let b_part = _mm_or_si128(_mm_sllv_epi64(ab, b_up), _mm_srlv_epi64(ab, b_down));
            let hi_lo = _mm_or_si128(_mm_sllv_epi64(ab, to_hi_lo), _mm_bsrli_si128::<8>(b_part));
            // SAFETY: `len + 16 <= buf.capacity()`: the reserve above left
            // room for every group's `width` bytes plus 16, and `len` has
            // advanced by `width` per group.
            unsafe {
                _mm_storeu_si128(
                    buf.as_mut_ptr().add(len).cast::<__m128i>(),
                    _mm_shuffle_epi8(hi_lo, bswap),
                );
            }
            len += width as usize;
        }
        // SAFETY: every byte below `len` was written above (or was already
        // initialised), and `len <= buf.capacity()`.
        unsafe { buf.set_len(len) };
        // Only whole words leave the accumulator: stage the bytes past the
        // last whole word from `start` again.
        let staged = (len - start) % 8;
        let mut word = [0u8; 8];
        word[..staged].copy_from_slice(&buf[len - staged..]);
        buf.truncate(len - staged);
        (acc, nacc) = (u64::from_be_bytes(word), 8 * staged as u32);
        rest = groups.remainder();
    }
    let mut quads = rest.chunks_exact(4);
    for group in &mut quads {
        // SAFETY: `group` is exactly four u64s from `chunks_exact(4)`.
        let v = unsafe { _mm256_loadu_si256(group.as_ptr().cast::<__m256i>()) };
        let placed = _mm256_sllv_epi64(_mm256_and_si256(v, vmask), shifts);
        // Horizontal OR of the four lanes down to one u64.
        let folded = _mm_or_si128(
            _mm256_castsi256_si128(placed),
            _mm256_extracti128_si256::<1>(placed),
        );
        let folded = _mm_or_si128(folded, _mm_unpackhi_epi64(folded, folded));
        let chunk = _mm_cvtsi128_si64(folded) as u64;
        // Insert the right-aligned `gw`-bit chunk, exactly as
        // `BitWriter::write_bits(chunk, gw)` would.
        if nacc + gw <= 64 {
            acc |= chunk << (64 - nacc - gw);
            nacc += gw;
            if nacc == 64 {
                buf.extend_from_slice(&acc.to_be_bytes());
                acc = 0;
                nacc = 0;
            }
        } else {
            let rem = nacc + gw - 64;
            buf.extend_from_slice(&(acc | (chunk >> rem)).to_be_bytes());
            acc = chunk << (64 - rem);
            nacc = rem;
        }
    }
    bitio::pack_run_swar(buf, acc, nacc, quads.remainder(), width)
}

/// AVX2 bulk bit-unpack for widths 1..=14 ([`super::Backend::unpack_run`]
/// semantics): one 8-byte big-endian window covers four fields plus any
/// intra-byte cursor offset (`7 + 4*14 <= 64`), so each step is a
/// broadcast, a per-lane variable left shift and a uniform right shift.
/// Windows that would read past the buffer, and the ragged tail, ride the
/// SWAR kernel.
#[target_feature(enable = "avx2")]
pub(super) fn unpack_run_avx2(buf: &[u8], pos: usize, out: &mut [u64], width: u32) -> usize {
    debug_assert!((1..=14).contains(&width));
    debug_assert!(pos + out.len() * width as usize <= buf.len() * 8);
    // Lane i extracts the field at bit `offset + i*width` of the window.
    let lane_bits = _mm256_set_epi64x(3 * width as i64, 2 * width as i64, width as i64, 0);
    let rshift = _mm_cvtsi32_si128((64 - width) as i32);
    let mut pos = pos;
    let mut filled = 0;
    while filled + 4 <= out.len() {
        let byte = pos >> 3;
        if byte + 8 > buf.len() {
            break; // window would overrun; finish on the SWAR path
        }
        let window = u64::from_be_bytes(buf[byte..byte + 8].try_into().expect("window of 8"));
        let offsets = _mm256_add_epi64(lane_bits, _mm256_set1_epi64x((pos & 7) as i64));
        let v = _mm256_srl_epi64(
            _mm256_sllv_epi64(_mm256_set1_epi64x(window as i64), offsets),
            rshift,
        );
        // SAFETY: `filled + 4 <= out.len()` leaves room for a 4-lane store.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(filled).cast::<__m256i>(), v) };
        filled += 4;
        pos += 4 * width as usize;
    }
    bitio::unpack_run_swar(buf, pos, &mut out[filled..], width)
}

/// AVX2 inverse transform ([`super::Backend::unzigzag_undelta`]
/// semantics): zigzag-decode four deltas at once, prefix-sum them across
/// the lanes (shift-and-add within 128-bit halves, then a broadcast of
/// the low-half total), and add the running carry. The carry stays in a
/// vector register (lane-3 broadcast via `vpermq`) so the only
/// loop-carried dependency is one add + one permute — no vector→scalar
/// round trip per iteration.
#[target_feature(enable = "avx2")]
pub(super) fn unzigzag_undelta_avx2(prev: i64, zs: &[u64], out: &mut [i64]) -> i64 {
    debug_assert_eq!(zs.len(), out.len());
    let zero = _mm256_setzero_si256();
    let one = _mm256_set1_epi64x(1);
    let mut vprev = _mm256_set1_epi64x(prev);
    let mut i = 0;
    while i + 4 <= zs.len() {
        // SAFETY: `i + 4 <= zs.len() == out.len()` keeps the load and
        // store in bounds.
        unsafe {
            let z = _mm256_loadu_si256(zs.as_ptr().add(i).cast::<__m256i>());
            // zigzag_decode: (z >> 1) ^ -(z & 1)
            let d = _mm256_xor_si256(
                _mm256_srli_epi64::<1>(z),
                _mm256_sub_epi64(zero, _mm256_and_si256(z, one)),
            );
            // Inclusive prefix sum over the four lanes.
            let p = _mm256_add_epi64(d, _mm256_slli_si256::<8>(d));
            let low_total = _mm256_permute4x64_epi64::<0b01_01_01_01>(p);
            let carry_hi = _mm256_blend_epi32::<0b1111_0000>(zero, low_total);
            let p = _mm256_add_epi64(p, carry_hi);
            let p = _mm256_add_epi64(p, vprev);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast::<__m256i>(), p);
            vprev = _mm256_permute4x64_epi64::<0b11_11_11_11>(p);
        }
        i += 4;
    }
    let prev = _mm256_extract_epi64::<0>(vprev);
    crate::util::unzigzag_undelta_scalar(prev, &zs[i..], &mut out[i..])
}

/// AVX2 dequantize ([`super::Backend::dequantize`] semantics): full-range
/// `i64 → f64` conversion via the split high/low magic-constant trick
/// (exact — the only rounding is the final add, which matches the
/// correctly-rounded scalar `as f64`), then an IEEE divide, which rounds
/// identically to the scalar loop.
#[target_feature(enable = "avx2")]
pub(super) fn dequantize_avx2(q: &[i64], scale: f64, out: &mut [f64]) {
    debug_assert_eq!(q.len(), out.len());
    // 2^52, 2^84 + 2^63, and 2^84 + 2^63 + 2^52 as raw f64 bit patterns.
    let magic_lo = _mm256_set1_epi64x(0x4330_0000_0000_0000);
    let magic_hi = _mm256_set1_epi64x(0x4530_0000_8000_0000_u64 as i64);
    let magic_all = _mm256_castsi256_pd(_mm256_set1_epi64x(0x4530_0000_8010_0000_u64 as i64));
    let vscale = _mm256_set1_pd(scale);
    let mut i = 0;
    while i + 4 <= q.len() {
        // SAFETY: `i + 4 <= q.len() == out.len()` keeps the load and
        // store in bounds.
        unsafe {
            let v = _mm256_loadu_si256(q.as_ptr().add(i).cast::<__m256i>());
            // Low 32 bits as an exact double offset by 2^52; high 32 bits
            // sign-flipped and placed at 2^32 with the 2^84 offset.
            let v_lo = _mm256_blend_epi32::<0b0101_0101>(magic_lo, v);
            let v_hi = _mm256_xor_si256(_mm256_srli_epi64::<32>(v), magic_hi);
            let hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), magic_all);
            let d = _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_div_pd(d, vscale));
        }
        i += 4;
    }
    crate::util::dequantize_scalar(&q[i..], scale, &mut out[i..]);
}

/// The broadcast constants of [`quantize4`].
struct QuantConsts {
    sign_bit: __m256d,
    limit: __m256d,
    half: __m256d,
    two52: __m256d,
    scale: __m256d,
}

impl QuantConsts {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(scale: f64) -> Self {
        Self {
            sign_bit: _mm256_set1_pd(-0.0),
            limit: _mm256_set1_pd(QUANT_LIMIT),
            half: _mm256_set1_pd(0.5),
            two52: _mm256_set1_pd(TWO52),
            scale: _mm256_set1_pd(scale),
        }
    }
}

/// Quantize four points: scale, clear the lanes of `in_range` whose
/// `|x|` is not below `QUANT_LIMIT` (a NaN or an infinity included), round
/// `|x|` to the nearest integer (ties to even) by adding 2^52, whose bits
/// less those of 2^52 are that integer, add one where the tie went down
/// (half away from zero, as the SWAR lanes do) and restore the sign.
#[inline]
#[target_feature(enable = "avx2")]
fn quantize4(v: __m256d, k: &QuantConsts, in_range: &mut __m256d) -> __m256i {
    let x = _mm256_mul_pd(v, k.scale);
    let a = _mm256_andnot_pd(k.sign_bit, x);
    *in_range = _mm256_and_pd(*in_range, _mm256_cmp_pd::<_CMP_LT_OQ>(a, k.limit));
    // Below 2^52 the sum rounds `a`, and `a - r` is exact.
    let s = _mm256_add_pd(a, k.two52);
    let r = _mm256_sub_pd(s, k.two52);
    let tie = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_sub_pd(a, r), k.half);
    // `tie` is all-ones (-1) where the magnitude rounds up: subtract it.
    let mag = _mm256_sub_epi64(
        _mm256_sub_epi64(_mm256_castpd_si256(s), _mm256_castpd_si256(k.two52)),
        _mm256_castpd_si256(tie),
    );
    // All-ones in lanes whose sign bit is set: `(m ^ s) - s` negates.
    let neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), _mm256_castpd_si256(x));
    _mm256_sub_epi64(_mm256_xor_si256(mag, neg), neg)
}

/// AVX2 fused quantize of one chunk ([`super::Backend::quantize`]
/// semantics), four lanes per [`quantize4`]. The ragged tail rides the
/// SWAR lanes.
#[target_feature(enable = "avx2")]
pub(super) fn quantize_avx2(chunk: &[f64], scale: f64, out: &mut [i64]) -> Result<()> {
    debug_assert_eq!(chunk.len(), out.len());
    let k = QuantConsts::new(scale);
    let inf = _mm256_set1_pd(f64::INFINITY);
    let all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    let (mut finite, mut in_range) = (all, all);
    let mut i = 0;
    while i + 4 <= chunk.len() {
        // SAFETY: `i + 4 <= chunk.len()` keeps the load in bounds.
        let v = unsafe { _mm256_loadu_pd(chunk.as_ptr().add(i)) };
        let abs_v = _mm256_andnot_pd(k.sign_bit, v);
        finite = _mm256_and_pd(finite, _mm256_cmp_pd::<_CMP_LT_OQ>(abs_v, inf));
        let q = quantize4(v, &k, &mut in_range);
        // SAFETY: `i + 4 <= chunk.len() == out.len()` keeps the store in
        // bounds.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i).cast::<__m256i>(), q) };
        i += 4;
    }
    let (tail_finite, tail_in_range) = util::quantize_lanes(&chunk[i..], scale, &mut out[i..]);
    util::quantize_status(
        tail_finite && _mm256_movemask_pd(finite) == 0b1111,
        tail_in_range && _mm256_movemask_pd(in_range) == 0b1111,
    )
}

/// AVX2 Sprintz block front end ([`super::Backend::quantize_deltas`]
/// semantics): four points per step through [`quantize4`], the previous
/// step's last value rotated in as lane 0's predecessor, then the wrapping
/// difference, the zigzag fold and the running OR. The ragged tail rides
/// the SWAR loop.
#[target_feature(enable = "avx2")]
pub(super) fn quantize_deltas_avx2(
    points: &[f64],
    scale: f64,
    prev: i64,
    lane: &mut [u64],
) -> (i64, u64, bool) {
    debug_assert_eq!(points.len(), lane.len());
    let k = QuantConsts::new(scale);
    let zero = _mm256_setzero_si256();
    // A NaN or an infinity scales to a magnitude out of range, so one
    // mask covers both checks.
    let mut in_range = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    // Lane 0 holds the predecessor of the next step's first point.
    let mut carry = _mm256_set1_epi64x(prev);
    let mut fold = zero;
    let mut i = 0;
    while i + 4 <= points.len() {
        // SAFETY: `i + 4 <= points.len()` keeps the load in bounds.
        let v = unsafe { _mm256_loadu_pd(points.as_ptr().add(i)) };
        let q = quantize4(v, &k, &mut in_range);
        // `[q3, q0, q1, q2]`, then lane 0 from the carry: each lane's
        // predecessor.
        let rot = _mm256_permute4x64_epi64::<0b10_01_00_11>(q);
        let before = _mm256_blend_epi32::<0b0000_0011>(rot, carry);
        let d = _mm256_sub_epi64(q, before);
        let z = _mm256_xor_si256(_mm256_add_epi64(d, d), _mm256_cmpgt_epi64(zero, d));
        fold = _mm256_or_si256(fold, z);
        // SAFETY: `i + 4 <= points.len() == lane.len()` keeps the store
        // in bounds.
        unsafe { _mm256_storeu_si256(lane.as_mut_ptr().add(i).cast::<__m256i>(), z) };
        carry = rot;
        i += 4;
    }
    let prev = _mm256_extract_epi64::<0>(carry);
    let (last, tail_fold, tail_ok) =
        crate::sprintz::quantize_deltas_swar(&points[i..], scale, prev, &mut lane[i..]);
    let halves = _mm_or_si128(
        _mm256_castsi256_si128(fold),
        _mm256_extracti128_si256::<1>(fold),
    );
    let folded = _mm_or_si128(halves, _mm_unpackhi_epi64(halves, halves));
    let ok = _mm256_movemask_pd(in_range) == 0b1111;
    (
        last,
        _mm_cvtsi128_si64(folded) as u64 | tail_fold,
        ok && tail_ok,
    )
}

/// AVX2 butterfly stages ([`super::Backend::fft_stages`] semantics), two
/// butterflies per 256-bit operation. The half-width-1 stage runs alone;
/// the stages after it run in fused pairs, each pass taking stages `h`
/// and `2h` on one `4h`-entry block in registers, and a leftover odd
/// stage runs alone. Every entry meets the same butterflies as in the
/// per-stage loop, with the same operations, so the output is
/// bit-identical: at 2048 entries that is 6 passes over the buffer
/// instead of 11.
///
/// Fusing three stages would save one more pass at 2048 entries, but it
/// changed the payload bits of NaN outputs that `tests/fft_equivalence.rs`
/// pins (crafted decode payloads at 8192 entries): under that register
/// pressure LLVM commutes the operands of some adds.
#[target_feature(enable = "avx2")]
pub(super) fn fft_stages_avx2(buf: &mut [Complex], twiddles: &[Complex]) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two() && twiddles.len() + 1 == n);
    if n < 2 {
        return;
    }
    butterflies_half_one(buf, &twiddles[..1]);
    let mut half = 2;
    while half < n {
        let tw = &twiddles[half - 1..2 * half - 1];
        if 4 * half <= n {
            butterflies_two_stages(buf, tw, &twiddles[2 * half - 1..4 * half - 1]);
            half <<= 2;
        } else {
            butterflies_one_stage(buf, tw);
            half <<= 1;
        }
    }
}

/// The half-width-1 stage: its two butterflies per operation come from
/// adjacent blocks; a buffer of two entries rides the scalar loop.
#[inline]
#[target_feature(enable = "avx2")]
fn butterflies_half_one(buf: &mut [Complex], tw: &[Complex]) {
    // SAFETY: `tw` holds one `#[repr(C)]` `{ re, im }` entry: two
    // contiguous doubles.
    let w = unsafe { _mm256_broadcast_pd(&*tw.as_ptr().cast::<__m128d>()) };
    let mut pairs = buf.chunks_exact_mut(4);
    for quad in &mut pairs {
        let p = quad.as_mut_ptr().cast::<f64>();
        // SAFETY: `quad` is four entries, eight contiguous doubles:
        // blocks `[a0, b0]` and `[a1, b1]`.
        unsafe {
            let x = _mm256_loadu_pd(p);
            let y = _mm256_loadu_pd(p.add(4));
            let a = _mm256_permute2f128_pd::<0x20>(x, y);
            let b = _mm256_permute2f128_pd::<0x31>(x, y);
            let (a, b) = butterfly_pair(a, b, w);
            _mm256_storeu_pd(p, _mm256_permute2f128_pd::<0x20>(a, b));
            _mm256_storeu_pd(p.add(4), _mm256_permute2f128_pd::<0x31>(a, b));
        }
    }
    fft::butterflies_scalar(pairs.into_remainder(), tw);
}

/// One stage of even half-width `tw.len()`.
#[inline]
#[target_feature(enable = "avx2")]
fn butterflies_one_stage(buf: &mut [Complex], tw: &[Complex]) {
    let half = tw.len();
    debug_assert!(half.is_multiple_of(2));
    for block in buf.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        let mut k = 0;
        while k + 2 <= half {
            // SAFETY: `k + 2 <= half == lo.len() == hi.len() == tw.len()`
            // keeps the two-entry loads and stores in bounds, and
            // `Complex` is `#[repr(C)]` `{ re, im }`, so two entries are
            // four contiguous doubles.
            unsafe {
                let w = load2(tw, k);
                let (a, b) = butterfly_pair(load2(lo, k), load2(hi, k), w);
                store2(lo, k, a);
                store2(hi, k, b);
            }
            k += 2;
        }
    }
}

/// Stages of even half-widths `h = tw1.len()` and `2h = tw2.len()` in
/// one pass: each block of `4h` entries is four quarters `q0..q3`; stage
/// `h` pairs `(q0, q1)` and `(q2, q3)` with `tw1`, then stage `2h` pairs
/// `(q0, q2)` with `tw2[..h]` and `(q1, q3)` with `tw2[h..]`.
#[inline]
#[target_feature(enable = "avx2")]
fn butterflies_two_stages(buf: &mut [Complex], tw1: &[Complex], tw2: &[Complex]) {
    let half = tw1.len();
    debug_assert!(half.is_multiple_of(2) && tw2.len() == 2 * half);
    let (tw2_lo, tw2_hi) = tw2.split_at(half);
    for block in buf.chunks_exact_mut(4 * half) {
        let (lo, hi) = block.split_at_mut(2 * half);
        let (q0, q1) = lo.split_at_mut(half);
        let (q2, q3) = hi.split_at_mut(half);
        let mut k = 0;
        while k + 2 <= half {
            // SAFETY: every quarter and `tw1`, `tw2_lo`, `tw2_hi` hold
            // `half` entries, so `k + 2 <= half` keeps the two-entry
            // loads and stores in bounds (`Complex` is `#[repr(C)]`
            // `{ re, im }`: two entries are four contiguous doubles).
            unsafe {
                let w1 = load2(tw1, k);
                let (a0, a1) = butterfly_pair(load2(q0, k), load2(q1, k), w1);
                let (a2, a3) = butterfly_pair(load2(q2, k), load2(q3, k), w1);
                let (a0, a2) = butterfly_pair(a0, a2, load2(tw2_lo, k));
                let (a1, a3) = butterfly_pair(a1, a3, load2(tw2_hi, k));
                store2(q0, k, a0);
                store2(q1, k, a1);
                store2(q2, k, a2);
                store2(q3, k, a3);
            }
            k += 2;
        }
    }
}

/// Entries `k` and `k + 1` of `v` as `[re, im, re, im]`.
///
/// # Safety
///
/// `k + 2 <= v.len()`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load2(v: &[Complex], k: usize) -> __m256d {
    debug_assert!(k + 2 <= v.len());
    // SAFETY: the caller keeps `k + 2 <= v.len()`; two `#[repr(C)]`
    // entries are four contiguous doubles.
    unsafe { _mm256_loadu_pd(v.as_ptr().add(k).cast::<f64>()) }
}

/// Store `x` as entries `k` and `k + 1` of `v`.
///
/// # Safety
///
/// `k + 2 <= v.len()`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store2(v: &mut [Complex], k: usize, x: __m256d) {
    debug_assert!(k + 2 <= v.len());
    // SAFETY: as in `load2`.
    unsafe { _mm256_storeu_pd(v.as_mut_ptr().add(k).cast::<f64>(), x) }
}

/// Two butterflies: `(a + b·w, a − b·w)` per 128-bit lane.
#[inline]
#[target_feature(enable = "avx2")]
fn butterfly_pair(a: __m256d, b: __m256d, w: __m256d) -> (__m256d, __m256d) {
    let v = complex_mul(b, w);
    (_mm256_add_pd(a, v), _mm256_sub_pd(a, v))
}

/// Two complex products `b·w`, one per 128-bit lane. With
/// `b = [b0.re, b0.im, b1.re, b1.im]` and `w` alike, `b·w` is
/// `addsub([b.re·w.re, b.re·w.im], [b.im·w.im, b.im·w.re])`: the scalar
/// products in the scalar operand order, then one subtract and one add,
/// so every lane is bit-identical to `Complex::mul`.
#[inline]
#[target_feature(enable = "avx2")]
fn complex_mul(b: __m256d, w: __m256d) -> __m256d {
    let b_re = _mm256_movedup_pd(b);
    let b_im = _mm256_permute_pd::<0b1111>(b);
    let w_swapped = _mm256_permute_pd::<0b0101>(w);
    _mm256_addsub_pd(_mm256_mul_pd(b_re, w), _mm256_mul_pd(b_im, w_swapped))
}

/// AVX2 Bluestein product pass ([`super::Backend::fft_pointwise`]
/// semantics), two entries per 256-bit operation. A conjugate flips the
/// sign bits of the imaginary lanes where the scalar code calls
/// `conj()`, so a NaN keeps the sign the reference gives it; folding the
/// sign into the scale instead (`im·(−s)` for `(−im)·s`) would flip it.
/// An odd tail entry rides the scalar loop.
#[target_feature(enable = "avx2")]
pub(super) fn fft_pointwise_avx2(op: Pointwise, buf: &mut [Complex], f: &[Complex]) {
    debug_assert_eq!(buf.len(), f.len());
    let conj = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    let scale = _mm256_set1_pd(match op {
        Pointwise::ConjScaleMul(s) => s,
        Pointwise::Mul | Pointwise::MulConj => 1.0,
    });
    let len = buf.len();
    let mut k = 0;
    while k + 2 <= len {
        // SAFETY: `k + 2 <= len == buf.len() == f.len()`.
        unsafe {
            let a = load2(buf, k);
            let c = load2(f, k);
            let v = match op {
                Pointwise::Mul => complex_mul(a, c),
                Pointwise::MulConj => _mm256_xor_pd(complex_mul(a, c), conj),
                Pointwise::ConjScaleMul(_) => {
                    complex_mul(_mm256_mul_pd(_mm256_xor_pd(a, conj), scale), c)
                }
            };
            store2(buf, k, v);
        }
        k += 2;
    }
    fft::pointwise_scalar(op, &mut buf[k..], &f[k..]);
}
