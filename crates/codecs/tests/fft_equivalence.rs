//! Bit-identity of the planned FFT against a frozen copy of the unplanned
//! one.
//!
//! `reference` below is the FFT as it stood before plans existed: a radix-2
//! loop that rebuilds its twiddles by recurrence on every call, Bluestein's
//! algorithm with three size-`m` FFTs and a fresh chirp per call, and the
//! FFT codec's encoder and decoder on top. Every public entry point of the
//! planned code (`dft`, `idft_inplace`, `Fft::compress_to_ratio`,
//! `decompress`, `decompress_into`, `recode`) must return the same
//! `f64::to_bits` / payload bytes as the reference, on every length class
//! (tiny, prime, around 1000, powers of two, random up to 4096), on
//! adversarial values (signed zeros, subnormals, ±1e300, sparse decode
//! spectra), and however the per-thread plan cache is driven: alternating
//! lengths on one thread and several threads at once.

use adaedge_codecs::fft::{dft, idft_inplace, Complex, Fft};
use adaedge_codecs::{Codec, CodecError, CodecId, CodecScratch, CompressedBlock, LossyCodec};

/// The unplanned FFT and FFT codec, frozen.
mod reference {
    use super::Complex;

    fn mul(a: Complex, o: Complex) -> Complex {
        Complex::new(a.re * o.re - a.im * o.im, a.re * o.im + a.im * o.re)
    }

    fn add(a: Complex, o: Complex) -> Complex {
        Complex::new(a.re + o.re, a.im + o.im)
    }

    fn sub(a: Complex, o: Complex) -> Complex {
        Complex::new(a.re - o.re, a.im - o.im)
    }

    fn scale(a: Complex, s: f64) -> Complex {
        Complex::new(a.re * s, a.im * s)
    }

    fn fft_pow2(buf: &mut [Complex]) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() >> (32 - bits);
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::new(1.0, 0.0);
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = mul(buf[start + k + len / 2], w);
                    buf[start + k] = add(u, v);
                    buf[start + k + len / 2] = sub(u, v);
                    w = mul(w, wlen);
                }
            }
            len <<= 1;
        }
    }

    fn fft_bluestein(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        let m = (2 * n - 1).next_power_of_two();
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let kk = (k as u64 * k as u64) % (2 * n as u64);
                Complex::cis(-std::f64::consts::PI * kk as f64 / n as f64)
            })
            .collect();
        let mut a = vec![Complex::default(); m];
        for k in 0..n {
            a[k] = mul(input[k], chirp[k]);
        }
        let mut b = vec![Complex::default(); m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b[k] = c;
            b[m - k] = c;
        }
        fft_pow2(&mut a);
        fft_pow2(&mut b);
        for k in 0..m {
            a[k] = mul(a[k], b[k]);
        }
        for v in a.iter_mut() {
            *v = v.conj();
        }
        fft_pow2(&mut a);
        let s = 1.0 / m as f64;
        (0..n)
            .map(|k| mul(scale(a[k].conj(), s), chirp[k]))
            .collect()
    }

    pub fn dft(input: &[Complex]) -> Vec<Complex> {
        if input.len().is_power_of_two() {
            let mut buf = input.to_vec();
            fft_pow2(&mut buf);
            buf
        } else {
            fft_bluestein(input)
        }
    }

    pub fn idft_inplace(buf: &mut [Complex]) {
        let n = buf.len();
        if n == 0 {
            return;
        }
        for c in buf.iter_mut() {
            *c = c.conj();
        }
        if n.is_power_of_two() {
            fft_pow2(buf);
        } else {
            let fwd = fft_bluestein(buf);
            buf.copy_from_slice(&fwd);
        }
        let s = 1.0 / n as f64;
        for c in buf.iter_mut() {
            *c = scale(c.conj(), s);
        }
    }

    /// The codec's payload for finite `data` whose ratio leaves `k` bins.
    pub fn encode(data: &[f64], k: usize) -> Vec<u8> {
        let input: Vec<Complex> = data.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let spectrum = dft(&input);
        let mut payload = Vec::with_capacity(k * 8);
        payload.extend_from_slice(&spectrum[0].re.to_le_bytes());
        for bin in spectrum.iter().take(k).skip(1) {
            payload.extend_from_slice(&(bin.re as f32).to_le_bytes());
            payload.extend_from_slice(&(bin.im as f32).to_le_bytes());
        }
        payload
    }

    /// The codec's decode of a well-formed payload.
    pub fn decode(n: usize, payload: &[u8]) -> Vec<f64> {
        let mut spectrum = vec![Complex::default(); n];
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
        idft_inplace(&mut spectrum);
        spectrum.into_iter().map(|c| c.re).collect()
    }
}

/// Deterministic pseudo-random stream in [0, 1).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn complex_bits(v: &[Complex]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn real_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every length class the plans distinguish: 0–8, primes, the 1000-point
/// segment and its neighbours, and powers of two up to 4096.
fn fixed_lengths() -> Vec<usize> {
    let mut lengths: Vec<usize> = (0..=8).collect();
    lengths.extend([11, 13, 31, 97, 127, 257, 509, 997, 1009, 2003, 4093]);
    lengths.extend([999, 1000, 1001]);
    lengths.extend((4..=12).map(|b| 1usize << b));
    lengths
}

/// Random lengths in 1..=4096 (fewer in unoptimized builds, where the
/// reference transform at these sizes is slow).
fn random_lengths(seed: u64) -> Vec<usize> {
    let count = if cfg!(debug_assertions) { 3 } else { 12 };
    let mut rng = Lcg(seed);
    (0..count)
        .map(|_| 1 + (rng.next_u64() >> 33) as usize % 4096)
        .collect()
}

/// Named real inputs of length `n`: smooth, noisy, zeros, signed zeros,
/// subnormals and ±1e300.
fn real_inputs(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = Lcg(seed ^ n as u64);
    vec![
        (
            "smooth",
            (0..n)
                .map(|i| (i as f64 * 0.013).sin() * 3.0 + 1.0)
                .collect(),
        ),
        ("noise", (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect()),
        ("zeros", vec![0.0; n]),
        (
            "signed_zeros",
            (0..n)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect(),
        ),
        (
            "subnormal",
            (0..n)
                .map(|i| f64::from_bits(1 + i as u64 * 7919) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        ),
        (
            "huge",
            (0..n)
                .map(|i| if i % 5 < 2 { 1e300 } else { -1e300 })
                .collect(),
        ),
    ]
}

/// Complex inputs: the real ones lifted, a noisy complex one, and
/// decode-shaped sparse spectra (DC plus a few low bins and their
/// mirrors, the rest zero).
fn complex_inputs(n: usize, seed: u64) -> Vec<(&'static str, Vec<Complex>)> {
    let mut rng = Lcg(seed.rotate_left(17) ^ n as u64);
    let mut out: Vec<(&'static str, Vec<Complex>)> = real_inputs(n, seed)
        .into_iter()
        .map(|(name, v)| (name, v.into_iter().map(|x| Complex::new(x, 0.0)).collect()))
        .collect();
    out.push((
        "complex_noise",
        (0..n)
            .map(|_| Complex::new(rng.unit() - 0.5, rng.unit() - 0.5))
            .collect(),
    ));
    out.push((
        "signed_zero_pairs",
        (0..n)
            .map(|i| Complex::new(if i % 2 == 0 { -0.0 } else { 0.0 }, -0.0))
            .collect(),
    ));
    if n > 0 {
        let mut sparse = vec![Complex::default(); n];
        sparse[0] = Complex::new(rng.unit() * 1e3, 0.0);
        for bin in 1..(n / 2 + 1).min(9) {
            let c = Complex::new(
                (rng.unit() - 0.5) as f32 as f64,
                (rng.unit() - 0.5) as f32 as f64,
            );
            sparse[bin] = c;
            sparse[n - bin] = c.conj();
        }
        out.push(("sparse_spectrum", sparse.clone()));
        out.push((
            "sparse_spectrum_huge",
            sparse
                .iter()
                .map(|c| Complex::new(c.re * 1e300, c.im * 1e300))
                .collect(),
        ));
    }
    out
}

fn check_transforms(n: usize, seed: u64) {
    for (name, input) in complex_inputs(n, seed) {
        if n > 0 {
            assert_eq!(
                complex_bits(&dft(&input)),
                complex_bits(&reference::dft(&input)),
                "dft n={n} input={name}"
            );
        } else {
            assert!(dft(&input).is_empty());
        }
        let mut planned = input.clone();
        idft_inplace(&mut planned);
        let mut frozen = input;
        reference::idft_inplace(&mut frozen);
        assert_eq!(
            complex_bits(&planned),
            complex_bits(&frozen),
            "idft_inplace n={n} input={name}"
        );
    }
}

/// Decode `block` through both decoder entry points and compare with the
/// reference decode of its payload.
fn check_decode(block: &CompressedBlock, scratch: &mut CodecScratch, what: &str) {
    let n = block.n_points as usize;
    let frozen = real_bits(&reference::decode(n, &block.payload));
    let alloc = Fft.decompress(block).expect("decompress");
    assert_eq!(real_bits(&alloc), frozen, "decompress {what}");
    let mut out = vec![f64::NAN; 3];
    Fft.decompress_into(block, scratch, &mut out)
        .expect("decompress_into");
    assert_eq!(real_bits(&out), frozen, "decompress_into {what}");
}

fn check_codec(n: usize, seed: u64) {
    let mut scratch = CodecScratch::new();
    for (name, data) in real_inputs(n, seed) {
        for ratio in [1.0, 0.2, 0.01] {
            let what = format!("n={n} input={name} ratio={ratio}");
            let block = match Fft.compress_to_ratio(&data, ratio) {
                Ok(block) => block,
                Err(CodecError::EmptyInput) if n == 0 => continue,
                Err(CodecError::RatioUnreachable { .. }) if ratio < 1.0 => continue,
                Err(e) => panic!("compress_to_ratio {what}: {e}"),
            };
            let k = block.payload.len() / 8;
            assert_eq!(
                block.payload,
                reference::encode(&data, k),
                "compress_to_ratio {what}"
            );
            check_decode(&block, &mut scratch, &what);
            for target in [ratio * 0.5, ratio * 0.1] {
                if let Ok(recoded) = Fft.recode(&block, target) {
                    assert_eq!(recoded.codec, CodecId::Fft);
                    assert_eq!(
                        recoded.payload,
                        reference::encode(&data, recoded.payload.len() / 8),
                        "recode {what} target={target}"
                    );
                    check_decode(&recoded, &mut scratch, &format!("{what} recoded"));
                }
            }
        }
    }
}

/// Payloads the encoder never emits but the decoder accepts: every bin
/// count up to `n/2 + 1` (where bin `n/2` is written twice for even `n`)
/// with arbitrary f32 bit patterns, NaN and infinity included.
fn check_crafted_payloads(n: usize, seed: u64) {
    if n == 0 {
        return;
    }
    let mut rng = Lcg(seed ^ (n as u64).rotate_left(32));
    let mut scratch = CodecScratch::new();
    let max_k = n / 2 + 1;
    let ks: Vec<usize> = if max_k <= 6 {
        (1..=max_k).collect()
    } else {
        vec![1, 2, max_k / 2, max_k - 1, max_k]
    };
    for k in ks {
        let mut payload = (rng.unit() * 100.0).to_le_bytes().to_vec();
        for _ in 1..k {
            payload.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
            payload.extend_from_slice(&((rng.unit() - 0.5) as f32).to_le_bytes());
        }
        let block = CompressedBlock::new(CodecId::Fft, n, payload);
        check_decode(&block, &mut scratch, &format!("crafted n={n} k={k}"));
    }
}

fn check_length(n: usize, seed: u64) {
    check_transforms(n, seed);
    check_codec(n, seed);
    check_crafted_payloads(n, seed);
}

#[test]
fn fixed_lengths_match_reference() {
    for n in fixed_lengths() {
        check_length(n, 0x5EED);
    }
}

#[test]
fn random_lengths_match_reference() {
    for n in random_lengths(0xADA_ED6E) {
        check_length(n, n as u64);
    }
}

/// Alternating lengths on one thread rebuild the plan on every call,
/// including between two Bluestein lengths that share one radix-2 size.
#[test]
fn alternating_lengths_rebuild_the_plan() {
    let data = |n: usize| -> Vec<f64> { (0..n).map(|i| (i as f64 * 0.7).sin()).collect() };
    let mut scratch = CodecScratch::new();
    for _ in 0..3 {
        for n in [1000, 1024, 1000, 7, 1001, 1000, 1, 2048, 999] {
            let input = data(n);
            let ratio = if n < 8 { 1.0 } else { 0.2 };
            let block = Fft.compress_to_ratio(&input, ratio).expect("compress");
            assert_eq!(
                block.payload,
                reference::encode(&input, block.payload.len() / 8),
                "n={n}"
            );
            check_decode(&block, &mut scratch, &format!("alternating n={n}"));
        }
    }
}

/// Four threads, each with its own plan, transform interleaved lengths at
/// once.
#[test]
fn concurrent_threads_match_reference() {
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let lengths = [1000, 1024, 333 + t as usize, 1000, 64, 1000];
                for (i, &n) in lengths.iter().cycle().take(18).enumerate() {
                    check_transforms(n, t * 100 + i as u64);
                    let data: Vec<f64> = (0..n)
                        .map(|j| ((j as u64 + t) as f64 * 0.013).sin() * 3.0)
                        .collect();
                    let block = Fft.compress_to_ratio(&data, 0.1).expect("compress");
                    assert_eq!(
                        block.payload,
                        reference::encode(&data, block.payload.len() / 8),
                        "thread {t} n={n}"
                    );
                    check_decode(
                        &block,
                        &mut CodecScratch::new(),
                        &format!("thread {t} n={n}"),
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread panicked");
    }
}

/// A length past the cached-plan cap runs through a plan that is freed
/// after use; the next call rebuilds from nothing.
#[test]
fn uncached_large_plan_matches_reference() {
    for n in [40_000, 1000, 40_000] {
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.01).sin(), 0.0))
            .collect();
        assert_eq!(
            complex_bits(&dft(&input)),
            complex_bits(&reference::dft(&input)),
            "dft n={n}"
        );
        let mut planned = input.clone();
        idft_inplace(&mut planned);
        let mut frozen = input;
        reference::idft_inplace(&mut frozen);
        assert_eq!(complex_bits(&planned), complex_bits(&frozen), "idft n={n}");
    }
}
