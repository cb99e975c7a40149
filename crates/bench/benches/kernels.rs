//! Hot-loop kernel micro-benchmarks, one row per backend tier: every
//! kernel is timed through `adaedge_codecs::simd::Backend` for each tier
//! the host supports (scalar reference, portable SWAR, and whichever of
//! SSE4.2/AVX2/NEON detection finds), in the same binary and the same
//! run, so per-tier rows divide directly into speedups. Buffer sizes are
//! what the engine actually moves (segment payloads of a few KB).
//! `pack_run`/`unpack_run` are benched at widths 7 and 12 — inside the
//! AVX2 fast-path range and typical of Sprintz delta lanes; `quantize`
//! and Sprintz's fused `quantize_deltas` pass are timed on the same
//! precision-4 segment the transforms use. The FFT
//! rows time whole forward and inverse transforms with their butterflies
//! and Bluestein products on each tier, at n = 1000 (Bluestein, the
//! offline segment) and 1024, and the two kernels alone at the 2048
//! entries of the n = 1000 work buffer: every butterfly stage
//! (`fft_stages`) and the filter product (`fft_pointwise`). The encoder
//! rows time gzip, snappy and Sprintz `compress_into` on one segment of
//! the `online` workload's shape (1000 sine points at precision 4) on the
//! detected backend, and the DEFLATE code-length build
//! (`huffman::code_lengths_into`) on that segment's two symbol tables.

use adaedge_codecs::bitio::zigzag_encode;
use adaedge_codecs::deflate::Deflate;
use adaedge_codecs::fft::{self, Complex, Pointwise};
use adaedge_codecs::huffman::{code_lengths_into, HuffWork};
use adaedge_codecs::lz::{lz77_tokens_into, LzConfig, LzScratch, Token};
use adaedge_codecs::simd;
use adaedge_codecs::snappy::Snappy;
use adaedge_codecs::sprintz::Sprintz;
use adaedge_codecs::util::{f64s_to_bytes, quantize_into};
use adaedge_codecs::{Codec, CodecScratch};
use adaedge_datasets::{SegmentSource, SineStream};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

/// Segment-sized payload: 1000 points × 8 bytes, like the engine streams.
const N_BYTES: usize = 8000;
const N_POINTS: usize = 1000;

fn pseudo_bytes(n: usize) -> Vec<u8> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect()
}

fn smooth_points(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 * 0.01).sin() * 3.0 * 1e4).round() / 1e4)
        .collect()
}

fn quantized(n: usize) -> Vec<i64> {
    let mut q = Vec::new();
    quantize_into(&smooth_points(n), 4, &mut q).unwrap();
    q
}

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group("kernels");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400));
    group
}

fn bench_crc32c(c: &mut Criterion) {
    let mut group = quick(c);
    group.throughput(Throughput::Bytes(N_BYTES as u64));
    let data = pseudo_bytes(N_BYTES);
    for &backend in simd::supported() {
        group.bench_with_input(
            BenchmarkId::new("crc32c", backend.name()),
            &data,
            |b, data| b.iter(|| black_box(backend.crc32c_append(0, data))),
        );
    }
    group.finish();
}

fn bench_match_extend(c: &mut Criterion) {
    let mut group = quick(c);
    // A long planted match so the kernels measure extension, not the
    // first-mismatch exit: the second half repeats the first half.
    let mut data = pseudo_bytes(N_BYTES / 2);
    data.extend_from_within(..);
    let max = N_BYTES / 2;
    group.throughput(Throughput::Bytes(max as u64));
    for &backend in simd::supported() {
        group.bench_with_input(
            BenchmarkId::new("match_extend", backend.name()),
            &data,
            |b, data| b.iter(|| black_box(backend.match_len(data, 0, N_BYTES / 2, max))),
        );
    }
    group.finish();
}

fn bench_pack_unpack(c: &mut Criterion) {
    let mut group = quick(c);
    // Throughput over the unpacked side: N_POINTS u64 fields per call.
    group.throughput(Throughput::Bytes((N_POINTS * 8) as u64));
    for width in [7u32, 12] {
        let mask = (1u64 << width) - 1;
        let values: Vec<u64> = (0..N_POINTS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect();
        let packed = {
            let mut buf = Vec::new();
            let (acc, nacc) = simd::Backend::Swar.pack_run(&mut buf, 0, 0, &values, width);
            buf.extend_from_slice(&acc.to_be_bytes()[..(nacc as usize).div_ceil(8)]);
            buf
        };
        for &backend in simd::supported() {
            group.bench_with_input(
                BenchmarkId::new(format!("pack_run_w{width}"), backend.name()),
                &values,
                |b, values| {
                    let mut buf = Vec::with_capacity(N_POINTS * 2);
                    b.iter(|| {
                        buf.clear();
                        black_box(backend.pack_run(&mut buf, 0, 0, values, width))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("unpack_run_w{width}"), backend.name()),
                &packed,
                |b, packed| {
                    let mut out = vec![0u64; N_POINTS];
                    b.iter(|| black_box(backend.unpack_run(packed, 0, &mut out, width)))
                },
            );
        }
    }
    group.finish();
}

fn bench_transforms(c: &mut Criterion) {
    let mut group = quick(c);
    group.throughput(Throughput::Bytes((N_POINTS * 8) as u64));
    let q = quantized(N_POINTS);
    let zs: Vec<u64> = q
        .windows(2)
        .map(|w| zigzag_encode(w[1].wrapping_sub(w[0])))
        .collect();
    let points = smooth_points(N_POINTS);
    for &backend in simd::supported() {
        group.bench_with_input(
            BenchmarkId::new("quantize_deltas", backend.name()),
            &points,
            |b, points| {
                let mut lane = vec![0u64; points.len()];
                b.iter(|| black_box(backend.quantize_deltas(points, 1e4, 0, &mut lane)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("unzigzag_undelta", backend.name()),
            &zs,
            |b, zs| {
                let mut out = vec![0i64; zs.len()];
                b.iter(|| black_box(backend.unzigzag_undelta(q[0], zs, &mut out)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dequantize", backend.name()),
            &q,
            |b, q| {
                let mut out = vec![0.0f64; q.len()];
                b.iter(|| {
                    backend.dequantize(q, 1e4, &mut out);
                    black_box(out.last().copied())
                })
            },
        );
    }
    group.finish();
}

fn bench_quantize(c: &mut Criterion) {
    let mut group = quick(c);
    group.throughput(Throughput::Bytes((N_POINTS * 8) as u64));
    let data = smooth_points(N_POINTS);
    for &backend in simd::supported() {
        group.bench_with_input(
            BenchmarkId::new("quantize", backend.name()),
            &data,
            |b, data| {
                let mut out = Vec::with_capacity(N_POINTS);
                b.iter(|| {
                    backend.quantize(data, 1e4, &mut out).unwrap();
                    black_box(out.last().copied())
                })
            },
        );
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut group = quick(c);
    for n in [1000usize, 1024] {
        let input: Vec<Complex> = smooth_points(n)
            .into_iter()
            .map(|v| Complex::new(v, 0.0))
            .collect();
        for &backend in simd::supported() {
            group.bench_with_input(
                BenchmarkId::new(format!("fft_forward_{n}"), backend.name()),
                &input,
                |b, input| b.iter(|| black_box(fft::dft_on(backend, input))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("fft_inverse_{n}"), backend.name()),
                &input,
                |b, input| {
                    let mut buf = input.clone();
                    b.iter(|| {
                        buf.copy_from_slice(input);
                        fft::idft_inplace_on(backend, &mut buf);
                        black_box(buf[0])
                    })
                },
            );
        }
    }
    // The n = 1000 work buffer: 2048 entries, 11 stages, and the stage
    // twiddles concatenated as the plan holds them.
    let m = 2048;
    let buf: Vec<Complex> = smooth_points(m)
        .into_iter()
        .map(|v| Complex::new(v, -v))
        .collect();
    let twiddles: Vec<Complex> = (0..m.trailing_zeros())
        .flat_map(|s| {
            let len = 2usize << s;
            (0..len / 2)
                .map(move |k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / len as f64))
        })
        .collect();
    let factors: Vec<Complex> = (0..m)
        .map(|k| Complex::cis(-std::f64::consts::PI * (k * k % (2 * m)) as f64 / m as f64))
        .collect();
    for &backend in simd::supported() {
        let mut work = buf.clone();
        group.bench_function(
            BenchmarkId::new(format!("fft_stages_{m}"), backend.name()),
            |b| {
                b.iter(|| {
                    work.copy_from_slice(&buf);
                    backend.fft_stages(&mut work, &twiddles);
                    black_box(work[0])
                })
            },
        );
        group.bench_function(
            BenchmarkId::new(format!("fft_pointwise_{m}"), backend.name()),
            |b| {
                b.iter(|| {
                    work.copy_from_slice(&buf);
                    backend.fft_pointwise(Pointwise::MulConj, &mut work, &factors);
                    black_box(work[0])
                })
            },
        );
    }
    group.finish();
}

/// One segment of the `online` workload's shape: 1000 `SineStream` points
/// at precision 4 with noise 0.1.
fn online_segment() -> Vec<f64> {
    SineStream::new(N_POINTS, 0.1, 4, 1).next_segment()
}

/// The DEFLATE literal/length and distance symbol counts of one online
/// segment at zlib-6 (the tables its Huffman code lengths are built from).
fn online_symbol_tables() -> (Vec<u64>, Vec<u64>) {
    // DEFLATE's length and distance code bases.
    const LEN_BASE: [usize; 29] = [
        3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
        131, 163, 195, 227, 258,
    ];
    const DIST_BASE: [usize; 30] = [
        1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
        2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
    ];
    let code = |bases: &[usize], v: usize| bases.partition_point(|&b| b <= v) - 1;
    let mut lz = LzScratch::default();
    lz77_tokens_into(
        &f64s_to_bytes(&online_segment()),
        LzConfig::level(6),
        &mut lz,
    );
    let (mut lit, mut dist) = (vec![0u64; 286], vec![0u64; 30]);
    for t in &lz.tokens {
        match *t {
            Token::Literal(b) => lit[b as usize] += 1,
            Token::Match { len, dist: d } => {
                lit[257 + code(&LEN_BASE, len as usize)] += 1;
                dist[code(&DIST_BASE, d as usize)] += 1;
            }
        }
    }
    lit[256] += 1;
    (lit, dist)
}

/// The byte codecs' encoders on the online segment shape, as the engine
/// calls them (`Codec::compress_into` with one reused scratch), and the
/// DEFLATE code-length build on that segment's tables. These encoders run
/// on the detected backend only.
fn bench_encoders(c: &mut Criterion) {
    let mut group = quick(c);
    group.throughput(Throughput::Bytes((N_POINTS * 8) as u64));
    let data = online_segment();
    let codecs: [(&str, Box<dyn Codec>); 3] = [
        ("gzip", Box::new(Deflate::gzip())),
        ("snappy", Box::new(Snappy)),
        ("sprintz", Box::new(Sprintz::new(4))),
    ];
    for (name, codec) in &codecs {
        group.bench_with_input(
            BenchmarkId::new("compress_into_online", *name),
            &data,
            |b, data| {
                let mut scratch = CodecScratch::new();
                b.iter(|| {
                    black_box(
                        codec
                            .compress_into(data, &mut scratch)
                            .unwrap()
                            .payload
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
    let mut group = quick(c);
    let (lit, dist) = online_symbol_tables();
    group.bench_function("huffman_code_lengths_online", |b| {
        let (mut lens, mut work) = (Vec::new(), HuffWork::default());
        b.iter(|| {
            code_lengths_into(&lit, &mut lens, &mut work);
            let n = lens.len();
            code_lengths_into(&dist, &mut lens, &mut work);
            black_box(n + lens.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crc32c,
    bench_match_extend,
    bench_pack_unpack,
    bench_transforms,
    bench_quantize,
    bench_fft,
    bench_encoders
);
criterion_main!(benches);
