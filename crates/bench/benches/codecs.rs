//! Criterion microbenchmarks: per-codec compression / decompression
//! throughput (the measurements behind Figures 2–3), MAB selection
//! overhead, and the virtual-decompression recoding ablation (§IV-E).
//!
//! Lossless compression is measured the way the engine runs it:
//! `compress_into` with one `CodecScratch` reused across iterations, on a
//! CBF segment and on the 1000-point precision-4 `SineStream` segment the
//! online workload compresses. Lossy arms are timed both ways: compress to
//! a ratio, and `decompress_into` as the recoding cascade scores each
//! attempt; the bare FFT is timed at a Bluestein (1000) and a radix-2
//! (1024) length.

use adaedge_bandit::{EpsilonGreedy, Policy};
use adaedge_codecs::fft::{dft, idft_inplace, Complex};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource, SineStream};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

const SEGMENT: usize = 1024;

fn segment() -> Vec<f64> {
    let mut s = CbfStream::new(CbfConfig::default(), SEGMENT);
    s.next_segment()
}

/// The online workload's segment: 1000 points of a noisy sine at
/// precision 4.
fn online_segment() -> Vec<f64> {
    SineStream::new(1000, 0.1, 4, 1).next_segment()
}

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group("codecs");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group
}

fn bench_lossless_compress(c: &mut Criterion) {
    let reg = CodecRegistry::new(4);
    let mut scratch = CodecScratch::new();
    let mut group = quick(c);
    for (input, data) in [("cbf", segment()), ("online", online_segment())] {
        group.throughput(Throughput::Bytes((data.len() * 8) as u64));
        for id in CodecRegistry::extended_lossless_candidates() {
            let codec = reg.get(id);
            group.bench_with_input(
                BenchmarkId::new(format!("compress_into/{input}"), id.name()),
                &data,
                |b, d| {
                    b.iter(|| {
                        black_box(codec.compress_into(black_box(d), &mut scratch).unwrap());
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_lossless_decompress(c: &mut Criterion) {
    let reg = CodecRegistry::new(4);
    let data = segment();
    let mut group = quick(c);
    group.throughput(Throughput::Bytes((SEGMENT * 8) as u64));
    for id in CodecRegistry::extended_lossless_candidates() {
        let block = reg.get(id).compress(&data).unwrap();
        group.bench_with_input(
            BenchmarkId::new("decompress", id.name()),
            &block,
            |b, blk| b.iter(|| black_box(reg.decompress(black_box(blk)).unwrap())),
        );
    }
    group.finish();
}

fn bench_lossy_compress(c: &mut Criterion) {
    let reg = CodecRegistry::new(4);
    let data = segment();
    let mut group = quick(c);
    group.throughput(Throughput::Bytes((SEGMENT * 8) as u64));
    for id in CodecRegistry::lossy_candidates() {
        let lossy = reg.get_lossy(id).unwrap();
        group.bench_with_input(
            BenchmarkId::new("compress_r0.2", id.name()),
            &data,
            |b, d| b.iter(|| black_box(lossy.compress_to_ratio(black_box(d), 0.2).unwrap())),
        );
    }
    group.finish();
}

fn bench_lossy_decompress(c: &mut Criterion) {
    // Reconstructions, queries and the reward fallback (ML targets, FFT
    // MAX/MIN) decode lossy blocks through one reused scratch and output
    // buffer.
    let reg = CodecRegistry::new(4);
    let data = segment();
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    let mut group = quick(c);
    group.throughput(Throughput::Bytes((SEGMENT * 8) as u64));
    for id in CodecRegistry::lossy_candidates() {
        let block = reg
            .get_lossy(id)
            .unwrap()
            .compress_to_ratio(&data, 0.2)
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("decompress_into_r0.2", id.name()),
            &block,
            |b, blk| {
                b.iter(|| {
                    reg.decompress_into(black_box(blk), &mut scratch, &mut out)
                        .unwrap();
                    black_box(&out);
                })
            },
        );
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    // The bare transforms at the offline segment length (n = 1000, a
    // Bluestein length) and the nearest power of two (radix-2).
    let mut group = quick(c);
    for n in [1000, 1024] {
        let input: Vec<Complex> = segment()
            .iter()
            .cycle()
            .take(n)
            .map(|&v| Complex::new(v, 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::new("fft/forward", n), &input, |b, x| {
            b.iter(|| black_box(dft(black_box(x))))
        });
        let mut buf = input.clone();
        group.bench_with_input(BenchmarkId::new("fft/inverse", n), &input, |b, x| {
            b.iter(|| {
                buf.copy_from_slice(x);
                idft_inplace(black_box(&mut buf));
                black_box(&buf);
            })
        });
    }
    group.finish();
}

fn bench_recode_virtual_vs_full(c: &mut Criterion) {
    // The §IV-E ablation: recoding PAA→PAA via virtual decompression vs a
    // full decompress + re-compress round trip.
    let reg = CodecRegistry::new(4);
    let data = segment();
    let paa = reg.get_lossy(CodecId::Paa).unwrap();
    let block = paa.compress_to_ratio(&data, 0.4).unwrap();
    let mut group = quick(c);
    group.bench_function("recode/paa_virtual", |b| {
        b.iter(|| black_box(paa.recode(black_box(&block), 0.1).unwrap()))
    });
    group.bench_function("recode/paa_full_roundtrip", |b| {
        b.iter(|| {
            let decoded = reg.decompress(black_box(&block)).unwrap();
            black_box(paa.compress_to_ratio(&decoded, 0.1).unwrap())
        })
    });
    let buff = reg.get_lossy(CodecId::BuffLossy).unwrap();
    let bblock = buff.compress_to_ratio(&data, 0.4).unwrap();
    group.bench_function("recode/buff_virtual", |b| {
        b.iter(|| black_box(buff.recode(black_box(&bblock), 0.2).unwrap()))
    });
    group.bench_function("recode/buff_full_roundtrip", |b| {
        b.iter(|| {
            let decoded = reg.decompress(black_box(&bblock)).unwrap();
            black_box(buff.compress_to_ratio(&decoded, 0.2).unwrap())
        })
    });
    group.finish();
}

fn bench_mab_overhead(c: &mut Criterion) {
    // The selection step must be negligible next to compression (§III-C:
    // O(K) time and space).
    let mut mab = EpsilonGreedy::optimistic(10, 0.1, 1.0);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut group = quick(c);
    group.bench_function("mab/select_update", |b| {
        b.iter(|| {
            let arm = mab.select(None, &mut rng);
            mab.update(arm, 0.5);
            black_box(arm)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lossless_compress,
    bench_lossless_decompress,
    bench_lossy_compress,
    bench_lossy_decompress,
    bench_fft,
    bench_recode_virtual_vs_full,
    bench_mab_overhead
);
criterion_main!(benches);
