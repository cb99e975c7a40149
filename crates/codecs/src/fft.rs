//! Truncated Fourier representation (Faloutsos et al., SIGMOD 1994).
//!
//! The segment is transformed with a full complex FFT (radix-2 for
//! power-of-two lengths, Bluestein's chirp-z otherwise — both implemented
//! here) and only the lowest `k` frequency bins are kept, discarding the
//! high-frequency components as the paper describes. The DC bin is stored
//! at full `f64` precision so SUM/AVG queries stay nearly exact (Figure 8);
//! the remaining bins are stored as `f32` pairs.
//!
//! Payload: `dc: f64`, then `(re: f32, im: f32)` for bins `1..k`.
//! Recoding truncates trailing bins — pure payload surgery (§IV-E).
//!
//! Transforms run through a per-thread plan for the last length used: the
//! radix-2 bit-reversal swaps and stage twiddles and, for Bluestein, the
//! chirp, the filter's spectrum and a work buffer. A Bluestein transform
//! is then two radix-2 FFTs of size `m = (2n - 1).next_power_of_two()` and
//! no allocation; at n = 1000 (m = 2048) the plan holds ~120 KB. A plan
//! whose work buffer holds more than 65536 entries (every Bluestein length
//! above 32768, every power of two above 65536) is freed after use
//! instead. Plans reproduce the unplanned arithmetic operation for
//! operation, so every output is bit-identical to it
//! (`tests/fft_equivalence.rs`).
//!
//! The butterfly stages and Bluestein's three pointwise products run on
//! the SIMD ladder ([`Backend::fft_stages`], [`Backend::fft_pointwise`]):
//! the loops here are the `Scalar` reference. The AVX2 tier does two
//! butterflies per 256-bit operation with the same multiplies, adds and
//! subtracts in the same order. After its half-width-1 pass it runs the
//! stages in fused pairs, each pass loading a `4h`-entry block once for
//! stages `h` and `2h`, so a 2048-point FFT makes 6 passes over the work
//! buffer instead of 11. Every tier's output is bit-identical too
//! (`tests/kernel_equivalence.rs`), up to the sign and payload of a NaN
//! where two NaNs meet in one add, which Rust leaves unspecified: the
//! crafted NaN decode payloads of `tests/fft_equivalence.rs` keep their
//! exact bits on every tier, but fusing three stages changed them.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::simd::{self, Backend};
use crate::traits::{budget_bytes, check_lossy_args, Codec, CodecKind, LossyCodec};
use std::cell::RefCell;

const BIN_BYTES: usize = 8;

/// Minimal complex number for the FFT kernels. `#[repr(C)]`: a slice of
/// them is interleaved `re, im` doubles, which the SIMD kernels load
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// e^{iθ}.
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    fn mul(self, o: Self) -> Self {
        Self {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    fn add(self, o: Self) -> Self {
        Self {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    fn sub(self, o: Self) -> Self {
        Self {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

/// Every butterfly stage of a bit-reversed `buf`, one pass per stage: the
/// `Scalar` reference of [`Backend::fft_stages`]. `twiddles` holds the
/// stage with half-width `h` at `h - 1..2h - 1`.
pub(crate) fn stages_scalar(buf: &mut [Complex], twiddles: &[Complex]) {
    let mut half = 1;
    while half < buf.len() {
        butterflies_scalar(buf, &twiddles[half - 1..2 * half - 1]);
        half <<= 1;
    }
}

/// One radix-2 butterfly stage: every block of `2 * tw.len()` entries is
/// split into halves `lo` and `hi`, and each `(a, b)` pair becomes
/// `(a + b·w, a − b·w)` with its twiddle `w`.
pub(crate) fn butterflies_scalar(buf: &mut [Complex], tw: &[Complex]) {
    for block in buf.chunks_exact_mut(2 * tw.len()) {
        let (lo, hi) = block.split_at_mut(tw.len());
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let u = *a;
            let v = b.mul(w);
            *a = u.add(v);
            *b = u.sub(v);
        }
    }
}

/// A pointwise pass of Bluestein's algorithm, `buf[k] = op(buf[k], f[k])`
/// ([`Backend::fft_pointwise`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pointwise {
    /// `buf[k]·f[k]`: the chirp premultiply.
    Mul,
    /// `conj(buf[k]·f[k])`: the product with the filter spectrum,
    /// conjugated so the next forward FFT computes the inverse one.
    MulConj,
    /// `(conj(buf[k])·s)·f[k]`: the conjugate, the `1/m` scale and the
    /// post-chirp.
    ConjScaleMul(f64),
}

/// The `Scalar` reference of [`Backend::fft_pointwise`].
pub(crate) fn pointwise_scalar(op: Pointwise, buf: &mut [Complex], f: &[Complex]) {
    let pairs = buf.iter_mut().zip(f);
    match op {
        Pointwise::Mul => pairs.for_each(|(a, &c)| *a = a.mul(c)),
        Pointwise::MulConj => pairs.for_each(|(a, &c)| *a = a.mul(c).conj()),
        Pointwise::ConjScaleMul(s) => pairs.for_each(|(a, &c)| *a = a.conj().scale(s).mul(c)),
    }
}

/// Radix-2 plan for one power-of-two size: the bit-reversal swap pairs and
/// one twiddle table per butterfly stage.
#[derive(Debug, Default)]
struct Pow2Plan {
    n: usize,
    /// Index pairs `(i, j)`, `i < j`, of the bit-reversal permutation.
    swaps: Vec<(u32, u32)>,
    /// Stage twiddles, concatenated: the stage with half-width `h` holds
    /// its `h` factors at `h - 1..2h - 1`.
    twiddles: Vec<Complex>,
}

impl Pow2Plan {
    fn rebuild(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two());
        self.swaps.clear();
        self.twiddles.clear();
        let bits = n.trailing_zeros();
        for i in 1..n {
            let j = (i as u32).reverse_bits() >> (32 - bits);
            if (i as u32) < j {
                self.swaps.push((i as u32, j));
            }
        }
        // The factors come from the running product `w *= wlen`, not from
        // `cis(k * ang)`: the two differ in the last bits, and the
        // transform's output is pinned bit for bit.
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                self.twiddles.push(w);
                w = w.mul(wlen);
            }
            len <<= 1;
        }
        self.n = n;
    }

    /// In-place iterative radix-2 Cooley–Tukey FFT of `buf` (length
    /// `self.n`), butterfly stages on `backend`. Forward transform, no
    /// normalization.
    fn run(&self, backend: Backend, buf: &mut [Complex]) {
        debug_assert_eq!(buf.len(), self.n);
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
        backend.fft_stages(buf, &self.twiddles);
    }
}

/// Everything a DFT of one length `n` needs besides its input. A power of
/// two runs the radix-2 plan directly; any other length runs Bluestein's
/// chirp-z algorithm as a convolution of size `m = (2n - 1)` rounded up to
/// a power of two, with the chirp and the filter's spectrum precomputed.
#[derive(Debug, Default)]
struct Plan {
    n: usize,
    /// Radix-2 plan of size `n` (power of two) or `m` (Bluestein).
    fft: Pow2Plan,
    /// `chirp[k] = e^{-iπk²/n}`; empty for powers of two.
    chirp: Vec<Complex>,
    /// Forward FFT of the conjugate-chirp filter `b`; empty for powers of
    /// two.
    filter: Vec<Complex>,
    /// Work buffer of `fft.n` entries. The transform's input is written to
    /// and its output read from the first `n`.
    work: Vec<Complex>,
}

impl Plan {
    fn rebuild(&mut self, backend: Backend, n: usize) {
        let m = if n.is_power_of_two() {
            n
        } else {
            (2 * n - 1).next_power_of_two()
        };
        if self.fft.n != m {
            self.fft.rebuild(m);
        }
        self.chirp.clear();
        self.filter.clear();
        self.work.clear();
        self.work.resize(m, Complex::default());
        if m != n {
            // k² taken mod 2n to stay accurate for large k.
            self.chirp.extend((0..n).map(|k| {
                let kk = (k as u64 * k as u64) % (2 * n as u64);
                Complex::cis(-std::f64::consts::PI * kk as f64 / n as f64)
            }));
            self.filter.resize(m, Complex::default());
            self.filter[0] = self.chirp[0].conj();
            for k in 1..n {
                let c = self.chirp[k].conj();
                self.filter[k] = c;
                self.filter[m - k] = c;
            }
            self.fft.run(backend, &mut self.filter);
        }
        // Set last: a plan is used only once it is complete.
        self.n = n;
    }

    /// Forward DFT (no normalization) of `work[..n]`, in place.
    fn forward(&mut self, backend: Backend) {
        let n = self.n;
        let work = &mut self.work[..];
        if self.chirp.is_empty() {
            self.fft.run(backend, work);
            return;
        }
        backend.fft_pointwise(Pointwise::Mul, &mut work[..n], &self.chirp);
        work[n..].fill(Complex::default());
        self.fft.run(backend, work);
        backend.fft_pointwise(Pointwise::MulConj, work, &self.filter);
        self.fft.run(backend, work);
        let scale = 1.0 / work.len() as f64;
        backend.fft_pointwise(Pointwise::ConjScaleMul(scale), &mut work[..n], &self.chirp);
    }

    /// Inverse DFT with 1/n normalization of `work[..n]`, in place:
    /// conjugate, forward-transform, conjugate-and-scale.
    fn inverse(&mut self, backend: Backend) {
        let n = self.n;
        for c in &mut self.work[..n] {
            *c = c.conj();
        }
        self.forward(backend);
        let scale = 1.0 / n as f64;
        for c in &mut self.work[..n] {
            *c = c.conj().scale(scale);
        }
    }
}

/// Largest work buffer (in entries, 1 MiB) whose plan stays cached after
/// use; a bigger plan (a Bluestein length above 32768 or a power of two
/// above 65536) is freed so one long transform does not pin its memory to
/// the thread.
const MAX_CACHED_WORK: usize = 1 << 16;

thread_local! {
    /// The plan for the last length transformed on this thread.
    static PLAN: RefCell<Plan> = RefCell::new(Plan::default());
}

/// Run `f` on this thread's plan for length `n` (`n > 0`), rebuilding it
/// on `backend` first if the last transform had another length.
fn with_plan<R>(backend: Backend, n: usize, f: impl FnOnce(&mut Plan) -> R) -> R {
    debug_assert!(n > 0);
    PLAN.with(|plan| {
        let mut plan = plan.borrow_mut();
        if plan.n != n {
            plan.rebuild(backend, n);
        }
        let out = f(&mut plan);
        if plan.work.len() > MAX_CACHED_WORK {
            *plan = Plan::default();
        }
        out
    })
}

/// Forward DFT (no normalization) of arbitrary length.
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    dft_on(simd::active(), input)
}

/// [`dft`] with its butterflies on `backend` instead of the active tier;
/// every tier returns the same bits (see the module docs for NaNs). For
/// differential tests and per-tier benchmarks.
pub fn dft_on(backend: Backend, input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    with_plan(backend, n, |plan| {
        plan.work[..n].copy_from_slice(input);
        plan.forward(backend);
        plan.work[..n].to_vec()
    })
}

/// Inverse DFT with 1/n normalization.
pub fn idft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    idft_inplace(&mut buf);
    buf
}

/// [`idft`] in place. The transform runs in this thread's plan and the
/// result is copied back into `buf`: no allocation once the plan for
/// `buf.len()` exists.
pub fn idft_inplace(buf: &mut [Complex]) {
    idft_inplace_on(simd::active(), buf);
}

/// [`idft_inplace`] with its butterflies on `backend` instead of the
/// active tier; every tier returns the same bits (see the module docs for
/// NaNs).
pub fn idft_inplace_on(backend: Backend, buf: &mut [Complex]) {
    let n = buf.len();
    if n == 0 {
        return;
    }
    with_plan(backend, n, |plan| {
        plan.work[..n].copy_from_slice(buf);
        plan.inverse(backend);
        buf.copy_from_slice(&plan.work[..n]);
    });
}

/// FFT codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fft;

impl Fft {
    fn bins_for(n: usize, ratio: f64) -> usize {
        let max_bins = (n / 2).max(1);
        (budget_bytes(n, ratio) / BIN_BYTES).min(max_bins)
    }

    /// Transform `data` and write the lowest bins that `ratio` allows into
    /// `payload` (cleared first).
    fn encode_into(&self, data: &[f64], ratio: f64, payload: &mut Vec<u8>) -> Result<()> {
        check_lossy_args(data.len(), ratio)?;
        let n = data.len();
        let k = Self::bins_for(n, ratio);
        if k == 0 || budget_bytes(n, ratio) < BIN_BYTES {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        if data.iter().any(|v| !v.is_finite()) {
            return Err(CodecError::UnsupportedValue("non-finite float"));
        }
        let backend = simd::active();
        with_plan(backend, n, |plan| {
            for (c, &v) in plan.work.iter_mut().zip(data) {
                *c = Complex::new(v, 0.0);
            }
            plan.forward(backend);
            let spectrum = &plan.work[..k];
            payload.clear();
            payload.reserve(k * BIN_BYTES);
            payload.extend_from_slice(&spectrum[0].re.to_le_bytes());
            for bin in &spectrum[1..] {
                payload.extend_from_slice(&(bin.re as f32).to_le_bytes());
                payload.extend_from_slice(&(bin.im as f32).to_le_bytes());
            }
        });
        Ok(())
    }
}

impl Codec for Fft {
    fn id(&self) -> CodecId {
        CodecId::Fft
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossy
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        self.encode_into(data, 0.25, &mut scratch.out)?;
        Ok(CompressedBlockRef::new(self.id(), data.len(), &scratch.out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        let payload = &block.payload;
        if n == 0 {
            return Err(CodecError::Corrupt("fft empty block with payload"));
        }
        if payload.len() < 8 || !payload.len().is_multiple_of(BIN_BYTES) {
            return Err(CodecError::Corrupt("fft payload size"));
        }
        let k = payload.len() / BIN_BYTES;
        if k > n / 2 + 1 {
            return Err(CodecError::Corrupt("fft too many bins"));
        }
        let backend = simd::active();
        with_plan(backend, n, |plan| {
            // Lay the Hermitian spectrum out in the plan's work buffer, in
            // the order that decides the one shared slot (bin n/2 when
            // k = n/2 + 1): the mirrored write lands last.
            let spectrum = &mut plan.work[..n];
            spectrum.fill(Complex::default());
            spectrum[0] = Complex::new(
                f64::from_le_bytes(payload[..8].try_into().expect("8 bytes")),
                0.0,
            );
            for (j, c) in payload[8..].chunks_exact(8).enumerate() {
                let bin = j + 1;
                let re = f32::from_le_bytes(c[..4].try_into().expect("4 bytes")) as f64;
                let im = f32::from_le_bytes(c[4..].try_into().expect("4 bytes")) as f64;
                spectrum[bin] = Complex::new(re, im);
                spectrum[n - bin] = Complex::new(re, -im);
            }
            plan.inverse(backend);
            out.clear();
            out.extend(plan.work[..n].iter().map(|c| c.re));
        });
        Ok(())
    }
}

impl LossyCodec for Fft {
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock> {
        let mut payload = Vec::new();
        self.encode_into(data, ratio, &mut payload)?;
        Ok(CompressedBlock::new(CodecId::Fft, data.len(), payload))
    }

    fn min_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        BIN_BYTES as f64 / (n * POINT_BYTES) as f64
    }

    fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        check_lossy_args(n, ratio)?;
        if block.ratio() <= ratio {
            return Err(CodecError::RecodeUnsupported(
                "block already at or below target ratio",
            ));
        }
        let k_new = Self::bins_for(n, ratio);
        if k_new == 0 {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        let k_cur = block.payload.len() / BIN_BYTES;
        if k_new >= k_cur {
            return Err(CodecError::RecodeUnsupported(
                "cannot shrink further at this granularity",
            ));
        }
        // Drop the highest kept frequencies: truncate the payload.
        let mut payload = block.payload.clone();
        payload.truncate(k_new * BIN_BYTES);
        Ok(CompressedBlock::new(CodecId::Fft, n, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn dft_matches_naive_small() {
        for n in [1usize, 2, 3, 5, 8, 12, 16, 17] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let fast = dft(&input);
            for (k, f) in fast.iter().enumerate() {
                let mut acc = Complex::default();
                for (j, x) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc = acc.add(x.mul(Complex::cis(ang)));
                }
                assert!(
                    (f.re - acc.re).abs() < 1e-8 && (f.im - acc.im).abs() < 1e-8,
                    "n={n} k={k}: {f:?} vs {acc:?}"
                );
            }
        }
    }

    #[test]
    fn dft_idft_roundtrip() {
        for n in [4usize, 7, 64, 100, 1000] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sqrt(), -(i as f64) * 0.01))
                .collect();
            let back = idft(&dft(&input));
            for (a, b) in input.iter().zip(&back) {
                assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn idft_inplace_matches_allocating_form() {
        idft_inplace(&mut []);
        assert!(dft(&[]).is_empty());
        for n in [1usize, 2, 3, 8, 12, 64, 100, 127] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            // Reference: the pre-change three-vector formulation.
            let conj: Vec<Complex> = input.iter().map(|c| c.conj()).collect();
            let fwd = dft(&conj);
            let reference: Vec<Complex> = fwd
                .iter()
                .map(|c| c.conj().scale(1.0 / (n.max(1)) as f64))
                .collect();
            let mut buf = input.clone();
            idft_inplace(&mut buf);
            for (a, b) in buf.iter().zip(&reference) {
                assert!(
                    (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                    "n={n}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn smooth_signal_reconstructs_well() {
        let data: Vec<f64> = (0..512)
            .map(|i| (i as f64 * 2.0 * std::f64::consts::PI / 512.0).sin() * 3.0 + 5.0)
            .collect();
        let block = Fft.compress_to_ratio(&data, 0.1).unwrap();
        let back = Fft.decompress(&block).unwrap();
        assert!(rmse(&data, &back) < 1e-3, "rmse {}", rmse(&data, &back));
    }

    #[test]
    fn non_power_of_two_segment() {
        let data: Vec<f64> = (0..777)
            .map(|i| (i as f64 * 0.01).sin() + 0.5 * (i as f64 * 0.002).cos())
            .collect();
        let block = Fft.compress_to_ratio(&data, 0.2).unwrap();
        let back = Fft.decompress(&block).unwrap();
        assert_eq!(back.len(), 777);
        assert!(rmse(&data, &back) < 0.05, "rmse {}", rmse(&data, &back));
    }

    #[test]
    fn sum_preserved_via_f64_dc() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.013).sin() * 2.0 + 10.0)
            .collect();
        let block = Fft.compress_to_ratio(&data, 0.05).unwrap();
        let back = Fft.decompress(&block).unwrap();
        let s1: f64 = data.iter().sum();
        let s2: f64 = back.iter().sum();
        assert!((s1 - s2).abs() / s1.abs() < 1e-9, "{s1} vs {s2}");
    }

    #[test]
    fn hits_target_ratio() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.1).sin()).collect();
        for target in [0.5, 0.2, 0.05, 0.01] {
            let block = Fft.compress_to_ratio(&data, target).unwrap();
            assert!(
                block.ratio() <= target + 1e-9,
                "{} > {target}",
                block.ratio()
            );
        }
    }

    #[test]
    fn error_grows_as_bins_drop() {
        let data: Vec<f64> = (0..512)
            .map(|i| (i as f64 * 0.05).sin() + 0.3 * (i as f64 * 0.4).sin())
            .collect();
        let fine = Fft.compress_to_ratio(&data, 0.3).unwrap();
        let coarse = Fft.compress_to_ratio(&data, 0.02).unwrap();
        let e_fine = rmse(&data, &Fft.decompress(&fine).unwrap());
        let e_coarse = rmse(&data, &Fft.decompress(&coarse).unwrap());
        assert!(e_fine <= e_coarse + 1e-12);
    }

    #[test]
    fn recode_equals_direct_truncation() {
        let data: Vec<f64> = (0..600).map(|i| (i as f64 * 0.02).sin() * 4.0).collect();
        let block = Fft.compress_to_ratio(&data, 0.2).unwrap();
        let recoded = Fft.recode(&block, 0.05).unwrap();
        let direct = Fft.compress_to_ratio(&data, 0.05).unwrap();
        assert_eq!(recoded.payload, direct.payload);
        assert!(recoded.ratio() <= 0.05 + 1e-9);
    }

    #[test]
    fn recode_direction_and_floor() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let block = Fft.compress_to_ratio(&data, 0.2).unwrap();
        assert!(matches!(
            Fft.recode(&block, 0.9),
            Err(CodecError::RecodeUnsupported(_))
        ));
        assert!(matches!(
            Fft.recode(&block, 0.0001),
            Err(CodecError::RatioUnreachable { .. })
        ));
    }

    #[test]
    fn tiny_segments() {
        let block = Fft.compress_to_ratio(&[3.0, 4.0], 1.0).unwrap();
        let back = Fft.decompress(&block).unwrap();
        // Only DC fits: both points become the mean.
        assert!((back[0] - 3.5).abs() < 1e-9 && (back[1] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_finite() {
        assert!(Fft.compress_to_ratio(&[1.0, f64::NAN], 0.5).is_err());
    }
}
