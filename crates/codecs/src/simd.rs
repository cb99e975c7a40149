//! Runtime-dispatched SIMD kernel layer for the codec hot loops.
//!
//! Every byte-crunching kernel under `bitio`, `crc32c`, `lz`, `snappy`,
//! `sprintz` and `util`, and the FFT butterfly stages and Bluestein products of `fft`, is
//! published here as a method on [`Backend`], a ladder of implementations
//! of the same bit-identical contract:
//!
//! | tier       | what it is                                              |
//! |------------|---------------------------------------------------------|
//! | `Scalar`   | naive per-element reference (byte/bit loops)            |
//! | `Swar`     | portable word-at-a-time kernels (the PR 1–4 hot loops)  |
//! | `Sse42`    | x86-64 hardware CRC-32C (3-stream `crc32` interleave)   |
//! | `Avx2`     | x86-64 256-bit kernels (match, pack/unpack, transforms, |
//! |            | quantize, Sprintz's fused quantize-delta-zigzag pass,   |
//! |            | dequantize, FFT butterflies: two per op with            |
//! |            | `mul` and `addsub`, no FMA, stages fused in pairs;      |
//! |            | Bluestein's pointwise products)                         |
//! | `Neon`     | aarch64 hardware CRC-32C + 128-bit match extension      |
//!
//! # Dispatch
//!
//! CPU feature detection runs **once**: [`active`] caches the chosen
//! backend in a `OnceLock` on first use, so steady-state dispatch is one
//! atomic load plus a predictable jump. The hot wrappers
//! (`crc32c::crc32c_append`, `lz::match_len`, `BitWriter::write_run`,
//! `BitReader::read_run`, `util::quantize_into`, `util::dequantize_into`,
//! `fft::dft`, …) all route through it; no call site does its own
//! detection.
//!
//! Tiers degrade, never fail: a backend that lacks a kernel for the
//! current ISA, width or length falls down the ladder (`Avx2 → Sse42 →
//! Swar`, `Neon → Swar`), and `Swar` — plain portable Rust — is the
//! universal fallback on every architecture. `Scalar` is the frozen
//! reference formulation used by differential tests and benchmark
//! baselines; detection never selects it.
//!
//! # Forcing a backend
//!
//! Set `ADAEDGE_SIMD` to `scalar`, `swar`, `sse42`, `avx2`, `neon` or
//! `auto` (the default) before the process first touches a codec. A
//! request above what the host supports clamps down the ladder, so
//! `ADAEDGE_SIMD=avx2` on a NEON box degrades to `swar` instead of
//! crashing; CI uses `ADAEDGE_SIMD=scalar` to run the whole test suite
//! through the reference kernels on any machine. [`active`] reports the
//! resolved choice and [`supported`] lists every tier the host can run,
//! which is how the differential proptests in
//! `tests/kernel_equivalence.rs` iterate the whole ladder in-process.
//!
//! # Wire-format safety
//!
//! Every kernel here is a drop-in for its scalar twin: CRC-32C digests,
//! packed bit streams, quantized integers (values and errors) and decoded
//! floats are **bit-identical** across backends (the wire polynomial is
//! already CRC-32C, so hardware CRC changes nothing on the wire), except
//! the sign and payload of a NaN that an overflowing FFT produces, which
//! Rust leaves unspecified even for the scalar loop. This is
//! pinned three ways: per-backend proptests over lengths/alignments/ragged
//! tails, the golden wire-format fixtures, and forced-`scalar` vs
//! detected-backend runs of the full suite in CI and `scripts/verify.sh`.
//!
//! # Adding a kernel
//!
//! 1. Land the `Swar` (portable) form in its home module as a
//!    `pub(crate)` free function, plus a naive `Scalar` reference.
//! 2. Add a `Backend` method here that matches the tier ladder, with the
//!    SIMD arms guarded on `caps` so an out-of-ladder `Backend` value
//!    degrades instead of hitting undefined behaviour.
//! 3. Put the intrinsics in `simd::x86_64` / `simd::aarch64` behind
//!    `#[target_feature]`, with a `debug_assert!` precondition at entry
//!    and a `SAFETY:` comment on every unsafe block.
//! 4. Extend the per-backend proptests in `tests/kernel_equivalence.rs`
//!    and the per-backend rows in the `kernels` bench.

use std::sync::OnceLock;

#[cfg(target_arch = "aarch64")]
mod aarch64;
#[cfg(target_arch = "x86_64")]
mod x86_64;

use crate::error::Result;
use crate::fft::{self, Complex, Pointwise};
use crate::{bitio, crc32c, lz, sprintz, util};

/// One tier of the kernel ladder. See the [module docs](self) for the
/// table; obtain values from [`active`], [`supported`] or
/// [`Backend::from_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Naive per-element reference kernels (byte/bit loops).
    Scalar,
    /// Portable word-at-a-time kernels; the universal fallback.
    Swar,
    /// x86-64 SSE4.2: hardware CRC-32C with 3-stream interleaving.
    Sse42,
    /// x86-64 AVX2: 256-bit match extension, bit pack/unpack, fused
    /// transforms, quantize, dequantize, FFT butterflies and Bluestein
    /// products (CRC rides the SSE4.2 kernel).
    Avx2,
    /// aarch64: hardware CRC-32C and NEON match extension.
    Neon,
}

/// Host capability flags, detected once.
#[derive(Debug, Default, Clone, Copy)]
struct Caps {
    sse42: bool,
    avx2: bool,
    neon: bool,
    /// aarch64 CRC extension (FEAT_CRC32); independent of NEON.
    crc: bool,
}

fn caps() -> Caps {
    static CAPS: OnceLock<Caps> = OnceLock::new();
    *CAPS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            Caps {
                sse42: is_x86_feature_detected!("sse4.2"),
                avx2: is_x86_feature_detected!("avx2"),
                ..Caps::default()
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            Caps {
                neon: std::arch::is_aarch64_feature_detected!("neon"),
                crc: std::arch::is_aarch64_feature_detected!("crc"),
                ..Caps::default()
            }
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Caps::default()
        }
    })
}

fn detect_best() -> Backend {
    let c = caps();
    if c.avx2 {
        Backend::Avx2
    } else if c.sse42 {
        Backend::Sse42
    } else if c.neon || c.crc {
        Backend::Neon
    } else {
        Backend::Swar
    }
}

/// The backend every hot-path wrapper dispatches to: the best tier the
/// host supports, or the `ADAEDGE_SIMD` override clamped to what the
/// host supports. Detection and the environment read happen once; the
/// result is cached for the life of the process.
#[inline]
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var("ADAEDGE_SIMD") {
        Ok(name) => match Backend::from_name(name.trim()) {
            Some(requested) => requested.clamp_supported(),
            // Unknown names (and "auto") defer to detection.
            None => detect_best(),
        },
        Err(_) => detect_best(),
    })
}

/// Every backend this host can execute, in ladder order (always starts
/// `[Scalar, Swar, ..]`). Differential tests iterate this to compare
/// tiers in-process.
pub fn supported() -> &'static [Backend] {
    static SUPPORTED: OnceLock<Vec<Backend>> = OnceLock::new();
    SUPPORTED.get_or_init(|| {
        let mut tiers = vec![Backend::Scalar, Backend::Swar];
        for t in [Backend::Sse42, Backend::Avx2, Backend::Neon] {
            if t.is_supported() {
                tiers.push(t);
            }
        }
        tiers
    })
}

impl Backend {
    /// The backend's lower-case name (`"scalar"`, `"swar"`, `"sse42"`,
    /// `"avx2"`, `"neon"`), as accepted by `ADAEDGE_SIMD`.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Swar => "swar",
            Backend::Sse42 => "sse42",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Parse a backend name (case-sensitive, as documented for
    /// `ADAEDGE_SIMD`). `"auto"` and unknown strings return `None`.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "swar" => Some(Backend::Swar),
            "sse42" => Some(Backend::Sse42),
            "avx2" => Some(Backend::Avx2),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether this host can execute the tier. `Scalar` and `Swar` are
    /// portable Rust and always supported.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar | Backend::Swar => true,
            Backend::Sse42 => caps().sse42,
            Backend::Avx2 => caps().avx2,
            Backend::Neon => caps().neon || caps().crc,
        }
    }

    /// One step down the ladder.
    fn fallback(self) -> Backend {
        match self {
            Backend::Scalar | Backend::Swar => Backend::Swar,
            Backend::Sse42 | Backend::Neon => Backend::Swar,
            Backend::Avx2 => Backend::Sse42,
        }
    }

    /// Clamp to the nearest supported tier at or below `self`.
    fn clamp_supported(self) -> Backend {
        let mut b = self;
        while !b.is_supported() {
            b = b.fallback();
        }
        b
    }

    // ---- kernels --------------------------------------------------------
    //
    // Every method is safe and total: SIMD arms are guarded on `caps()`,
    // so calling a tier the host cannot execute degrades down the ladder
    // instead of reaching an intrinsic the CPU lacks.

    /// Extend a CRC-32C with `bytes` ([`crate::crc32c::crc32c_append`]
    /// semantics). All tiers produce identical digests.
    #[inline]
    pub fn crc32c_append(self, crc: u32, bytes: &[u8]) -> u32 {
        match self {
            Backend::Scalar => crc32c::append_scalar(crc, bytes),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse42 | Backend::Avx2 if caps().sse42 => {
                // SAFETY: `caps().sse42` was detected at runtime, so the
                // CPU executes the SSE4.2 `crc32` instructions the kernel
                // is compiled with.
                unsafe { x86_64::crc32c_sse42(crc, bytes) }
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if caps().crc => {
                // SAFETY: `caps().crc` was detected at runtime, so the
                // CPU executes the FEAT_CRC32 instructions.
                unsafe { aarch64::crc32c_hw(crc, bytes) }
            }
            _ => crc32c::append_swar(crc, bytes),
        }
    }

    /// Length of the common prefix of `data[a..]` and `data[b..]`, capped
    /// at `max` (the LZ/snappy match-extension kernel).
    ///
    /// # Panics
    ///
    /// If `a + max` or `b + max` runs past `data.len()` (the same
    /// contract [`crate::lz::match_len`] documents; the SIMD tiers check
    /// it eagerly because they read through raw pointers).
    #[inline]
    pub fn match_len(self, data: &[u8], a: usize, b: usize, max: usize) -> usize {
        match self {
            Backend::Scalar => lz::match_len_scalar(data, a, b, max),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 => {
                // The bounds assert makes the kernel's unaligned loads
                // sound even if a caller violates the documented contract.
                assert!(
                    a + max <= data.len() && b + max <= data.len(),
                    "match_len: max runs past data"
                );
                // SAFETY: AVX2 detected at runtime; bounds asserted above.
                unsafe { x86_64::match_len_avx2(data, a, b, max) }
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if caps().neon => {
                assert!(
                    a + max <= data.len() && b + max <= data.len(),
                    "match_len: max runs past data"
                );
                // SAFETY: NEON detected at runtime; bounds asserted above.
                unsafe { aarch64::match_len_neon(data, a, b, max) }
            }
            _ => lz::match_len_swar(data, a, b, max),
        }
    }

    /// Append `values` at fixed `width` (1..=64) to a bit stream staged
    /// as `(acc, nacc)` over `buf`, MSB-first; returns the new staging
    /// state. Bit-identical to one [`crate::bitio::BitWriter::write_bits`]
    /// call per value. `nacc` must be `< 64`.
    #[inline]
    pub fn pack_run(
        self,
        buf: &mut Vec<u8>,
        acc: u64,
        nacc: u32,
        values: &[u64],
        width: u32,
    ) -> (u64, u32) {
        debug_assert!((1..=64).contains(&width) && nacc < 64);
        match self {
            Backend::Scalar => bitio::pack_run_scalar(buf, acc, nacc, values, width),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 && (1..=16).contains(&width) && values.len() >= 8 => {
                // SAFETY: AVX2 detected at runtime.
                unsafe { x86_64::pack_run_avx2(buf, acc, nacc, values, width) }
            }
            _ => bitio::pack_run_swar(buf, acc, nacc, values, width),
        }
    }

    /// Fill `out` with consecutive `width`-bit (1..=64) fields read from
    /// absolute bit `pos` of `buf`, MSB-first; returns the new bit
    /// cursor. The caller guarantees
    /// `pos + out.len() * width <= buf.len() * 8` (asserted).
    #[inline]
    pub fn unpack_run(self, buf: &[u8], pos: usize, out: &mut [u64], width: u32) -> usize {
        debug_assert!((1..=64).contains(&width));
        // This bound is what makes the SIMD tiers' reads sound; enforce it
        // for every tier so the contract cannot drift.
        assert!(
            pos + out.len() * width as usize <= buf.len() * 8,
            "unpack_run: run exceeds buffer"
        );
        match self {
            Backend::Scalar => bitio::unpack_run_scalar(buf, pos, out, width),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 && (1..=14).contains(&width) && out.len() >= 8 => {
                // SAFETY: AVX2 detected at runtime; run bounds asserted
                // above.
                unsafe { x86_64::unpack_run_avx2(buf, pos, out, width) }
            }
            _ => bitio::unpack_run_swar(buf, pos, out, width),
        }
    }

    /// Inverse of the deltas [`quantize_deltas`](Self::quantize_deltas)
    /// writes: starting from `prev`, accumulate zigzag-decoded deltas into
    /// `out` (`out[i]` is the running value after applying `zs[i]`,
    /// wrapping) and return the final value. Requires
    /// `zs.len() == out.len()` (asserted).
    #[inline]
    pub fn unzigzag_undelta(self, prev: i64, zs: &[u64], out: &mut [i64]) -> i64 {
        assert_eq!(zs.len(), out.len(), "unzigzag_undelta: length mismatch");
        match self {
            Backend::Scalar => util::unzigzag_undelta_scalar(prev, zs, out),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 && zs.len() >= 8 => {
                // SAFETY: AVX2 detected at runtime; lengths asserted above.
                unsafe { x86_64::unzigzag_undelta_avx2(prev, zs, out) }
            }
            _ => util::unzigzag_undelta_swar(prev, zs, out),
        }
    }

    /// Float to fixed-point: `out[i] = round(data[i] * scale)`, rounding
    /// half away from zero exactly as [`f64::round`] (the `Scalar`
    /// reference), with `out` cleared and refilled. The other tiers fuse
    /// the scale, the checks, the rounding and the conversion into one
    /// pass with no call to a software `round`.
    ///
    /// Points are checked in chunks of 64. Within a chunk a non-finite
    /// input is reported before a scaled magnitude at or above `4.5e15`;
    /// the earliest failing chunk is reported, and on `Err` `out` holds
    /// exactly the chunks before it. Every tier returns the same values
    /// and the same errors.
    pub fn quantize(self, data: &[f64], scale: f64, out: &mut Vec<i64>) -> Result<()> {
        out.clear();
        out.resize(data.len(), 0);
        let mut done = 0;
        for chunk in data.chunks(util::QUANT_CHUNK) {
            let dst = &mut out[done..done + chunk.len()];
            let status = match self {
                Backend::Scalar => util::quantize_scalar(chunk, scale, dst),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 if caps().avx2 => {
                    // SAFETY: AVX2 detected at runtime; `dst` was cut to
                    // `chunk.len()` above.
                    unsafe { x86_64::quantize_avx2(chunk, scale, dst) }
                }
                _ => util::quantize_swar(chunk, scale, dst),
            };
            if let Err(e) = status {
                out.truncate(done);
                return Err(e);
            }
            done += chunk.len();
        }
        Ok(())
    }

    /// The front end of one Sprintz block in one pass: quantize `points`
    /// at `scale` as [`quantize`](Self::quantize) does, and write
    /// `lane[k] = zigzag(q[k] - q[k - 1])` (wrapping, with
    /// `q[-1] = prev`). Returns the last point's `q`, the OR of the lane
    /// (whose bit length is the block's width), and whether every point
    /// was finite with a scaled magnitude below `4.5e15`; when it was not,
    /// the other outputs are unspecified and the caller reports the error
    /// through [`quantize`](Self::quantize). Requires
    /// `points.len() == lane.len()` (asserted).
    #[inline]
    pub fn quantize_deltas(
        self,
        points: &[f64],
        scale: f64,
        prev: i64,
        lane: &mut [u64],
    ) -> (i64, u64, bool) {
        assert_eq!(points.len(), lane.len(), "quantize_deltas: length mismatch");
        match self {
            Backend::Scalar => sprintz::quantize_deltas_scalar(points, scale, prev, lane),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 => {
                // SAFETY: AVX2 detected at runtime; lengths asserted above.
                unsafe { x86_64::quantize_deltas_avx2(points, scale, prev, lane) }
            }
            _ => sprintz::quantize_deltas_swar(points, scale, prev, lane),
        }
    }

    /// Fixed-point to float: `out[i] = q[i] as f64 / scale`, bit-exact
    /// against the scalar loop (the division is kept; SIMD tiers use the
    /// same correctly-rounded IEEE divide). Requires
    /// `q.len() == out.len()` (asserted).
    #[inline]
    pub fn dequantize(self, q: &[i64], scale: f64, out: &mut [f64]) {
        assert_eq!(q.len(), out.len(), "dequantize: length mismatch");
        match self {
            Backend::Scalar => util::dequantize_scalar(q, scale, out),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 && q.len() >= 8 => {
                // SAFETY: AVX2 detected at runtime; lengths asserted above.
                unsafe { x86_64::dequantize_avx2(q, scale, out) }
            }
            _ => util::dequantize_swar(q, scale, out),
        }
    }

    /// Every radix-2 FFT butterfly stage of a bit-reversed `buf`, in
    /// order of half-width `h = 1, 2, 4, …, buf.len() / 2`. The stage with
    /// half-width `h` splits every block of `2h` entries into halves `lo`
    /// and `hi`, and each pair becomes `(a + b·w, a − b·w)` with
    /// `a = lo[k]`, `b = hi[k]`, `w = twiddles[h - 1 + k]`. Requires
    /// `buf.len()` a power of two and `twiddles.len() == buf.len() - 1`
    /// (asserted).
    ///
    /// Every tier computes `b·w` as `(b.re·w.re − b.im·w.im,
    /// b.re·w.im + b.im·w.re)` with separate multiplies and adds (no FMA)
    /// in that operand order, so outputs are bit-identical. AVX2 takes
    /// two butterflies per 256-bit operation and, after the half-width-1
    /// pass, runs the stages in fused pairs (stages `h` and `2h` on one
    /// `4h`-entry block in registers); every other tier runs the scalar
    /// per-stage loop.
    #[inline]
    pub fn fft_stages(self, buf: &mut [Complex], twiddles: &[Complex]) {
        assert!(
            buf.len().is_power_of_two() && twiddles.len() + 1 == buf.len(),
            "fft_stages: buffer length is not a power of two or twiddles are not one shorter"
        );
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 => {
                // SAFETY: AVX2 detected at runtime; buffer and twiddle
                // shapes asserted above.
                unsafe { x86_64::fft_stages_avx2(buf, twiddles) }
            }
            _ => fft::stages_scalar(buf, twiddles),
        }
    }

    /// One of Bluestein's pointwise passes, `buf[k] = op(buf[k], f[k])`
    /// (see [`Pointwise`]). Requires `buf.len() == f.len()` (asserted).
    ///
    /// Every tier takes the complex product, the conjugations and the
    /// scale in the scalar operand order, negating by a sign-bit flip
    /// where the reference conjugates, so outputs are bit-identical, a
    /// NaN grown from one NaN input included (where two NaNs meet in one
    /// add, the payload is unspecified, as for the butterflies). AVX2
    /// takes two entries per 256-bit operation; every other tier runs the
    /// scalar loop.
    #[inline]
    pub fn fft_pointwise(self, op: Pointwise, buf: &mut [Complex], f: &[Complex]) {
        assert_eq!(buf.len(), f.len(), "fft_pointwise: length mismatch");
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if caps().avx2 => {
                // SAFETY: AVX2 detected at runtime; lengths asserted above.
                unsafe { x86_64::fft_pointwise_avx2(op, buf, f) }
            }
            _ => fft::pointwise_scalar(op, buf, f),
        }
    }
}

/// CRC-32C zero-block combine operators for the multi-stream hardware
/// kernels: advancing a (reflected, non-inverted) CRC register by a fixed
/// count of zero bytes is linear over GF(2), so it is a 32×32 bit-matrix
/// apply, tabulated as four 256-entry lookups. Built at compile time from
/// the wire polynomial; shared by the x86-64 and aarch64 tiers.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64", test))]
pub(crate) mod crc_shift {
    use crate::crc32c::POLY;

    /// Bytes per stream in the long 3-way interleaved CRC blocks.
    pub(crate) const LONG: usize = 1024;
    /// Bytes per stream in the short 3-way interleaved CRC blocks.
    pub(crate) const SHORT: usize = 64;

    const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0u32;
        let mut i = 0;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sum
    }

    const fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
        let mut out = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            out[i] = gf2_times(mat, mat[i]);
            i += 1;
        }
        out
    }

    /// Operator advancing the reflected CRC register by `2^log2_bits`
    /// zero bits: the one-zero-bit operator (`crc' = (crc >> 1) ^ (POLY
    /// if crc & 1)`) squared `log2_bits` times.
    const fn zeros_operator(log2_bits: u32) -> [u32; 32] {
        let mut m = [0u32; 32];
        m[0] = POLY;
        let mut i = 1;
        while i < 32 {
            m[i] = 1 << (i - 1);
            i += 1;
        }
        let mut k = 0;
        while k < log2_bits {
            m = gf2_square(&m);
            k += 1;
        }
        m
    }

    /// Tabulate a matrix as four byte-indexed lookup tables
    /// (`t[k][b] = M · (b << 8k)`), so an apply is four loads and xors.
    const fn shift_table(mat: &[u32; 32]) -> [[u32; 256]; 4] {
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = gf2_times(mat, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Advance-by-`LONG`-zero-bytes tables (8192 bits = 2^13).
    pub(crate) static LONG_SHIFT: [[u32; 256]; 4] = shift_table(&zeros_operator(13));
    /// Advance-by-`SHORT`-zero-bytes tables (512 bits = 2^9).
    pub(crate) static SHORT_SHIFT: [[u32; 256]; 4] = shift_table(&zeros_operator(9));

    /// Apply a tabulated zero-block operator to a CRC register.
    #[inline]
    pub(crate) fn shift(t: &[[u32; 256]; 4], crc: u32) -> u32 {
        t[0][(crc & 0xFF) as usize]
            ^ t[1][((crc >> 8) & 0xFF) as usize]
            ^ t[2][((crc >> 16) & 0xFF) as usize]
            ^ t[3][(crc >> 24) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in [
            Backend::Scalar,
            Backend::Swar,
            Backend::Sse42,
            Backend::Avx2,
            Backend::Neon,
        ] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("auto"), None);
        assert_eq!(Backend::from_name("AVX2"), None);
    }

    #[test]
    fn ladder_always_reaches_portable_ground() {
        for b in [
            Backend::Scalar,
            Backend::Swar,
            Backend::Sse42,
            Backend::Avx2,
            Backend::Neon,
        ] {
            assert!(b.clamp_supported().is_supported());
        }
    }

    #[test]
    fn active_is_supported_and_listed() {
        let a = active();
        assert!(a.is_supported());
        assert!(supported().contains(&a));
        assert_eq!(supported()[0], Backend::Scalar);
        assert_eq!(supported()[1], Backend::Swar);
    }

    #[test]
    fn unsupported_tier_degrades_to_identical_results() {
        // Even a tier the host lacks must produce correct results through
        // its guarded fallback (soundness of the public enum).
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37) as u8).collect();
        let want = Backend::Scalar.crc32c_append(0, &data);
        for b in [Backend::Sse42, Backend::Avx2, Backend::Neon] {
            assert_eq!(b.crc32c_append(0, &data), want, "{}", b.name());
        }
    }

    #[test]
    fn zero_shift_tables_match_streamed_zeros() {
        // Folding N zero bytes through the byte-at-a-time kernel must
        // equal the tabulated matrix apply, for arbitrary start states.
        // The tables act on the working (inverted) register, so unwrap
        // the API's pre/post inversion.
        for seed in [0u32, 1, 0xDEAD_BEEF, u32::MAX, 0x1234_5678] {
            let working = !seed;
            let long_zeros = vec![0u8; crc_shift::LONG];
            let short_zeros = vec![0u8; crc_shift::SHORT];
            let streamed_long = !Backend::Scalar.crc32c_append(seed, &long_zeros);
            let streamed_short = !Backend::Scalar.crc32c_append(seed, &short_zeros);
            assert_eq!(
                crc_shift::shift(&crc_shift::LONG_SHIFT, working),
                streamed_long,
                "long shift, seed {seed:#x}"
            );
            assert_eq!(
                crc_shift::shift(&crc_shift::SHORT_SHIFT, working),
                streamed_short,
                "short shift, seed {seed:#x}"
            );
        }
    }
}
