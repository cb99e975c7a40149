//! End-to-end online-engine throughput: segments/s through the full
//! ingest → work queue → replica-MAB select → compress pipeline at
//! 1/2/4/8 shards (worker threads — the §V-C scalability axis, measured at
//! the segment granularity the allocation work targets), at batch size
//! K = 1 (exact per-segment bandit) and K = 8 (sticky-arm batching).
//!
//! The signal pool is pre-generated (`CycleSource`) so the measurement
//! isolates the pipeline itself; the MAB runs with its default online
//! hyper-parameters and converges to the lightweight arms, which is the
//! steady state the zero-allocation path optimizes.
//!
//! Each configuration reports the **median of N timed runs** with the
//! sample standard deviation alongside — not best-of-N, which on a noisy
//! shared host systematically flatters whichever run got lucky. A
//! scaling-efficiency column normalizes each shard count against the
//! 1-shard median at the same K (`seg/s ÷ shards ÷ 1-shard seg/s`), and
//! the host's core count is recorded so oversubscribed rows — more shards
//! than cores, where "scaling" is really time-slicing — are flagged
//! rather than misread.
//!
//! Run: `cargo run --release -p adaedge-bench --bin engine_throughput`
//! (`-- --quick` for the CI smoke configuration). Prints a table and a
//! JSON object suitable for `BENCH_engine.json`.

use adaedge_bench::harness::{median, stddev};
use adaedge_core::engine::{run_pipeline, EngineConfig, EngineReport};
use adaedge_datasets::{CycleSource, SineStream};

const SEGMENT_LEN: usize = 1000;
const POOL: usize = 64;
const BATCH_SIZES: [usize; 2] = [1, 8];

fn run_once(threads: usize, batch: usize, segments: usize) -> EngineReport {
    let mut sine = SineStream::new(SEGMENT_LEN, 0.1, 4, 7);
    let mut source = CycleSource::pregenerate(&mut sine, POOL);
    let config = EngineConfig {
        n_compression_threads: threads,
        batch_segments: batch,
        ..Default::default()
    };
    run_pipeline(&mut source, segments, &config).expect("pipeline")
}

struct Row {
    threads: usize,
    batch: usize,
    median_seg_per_sec: f64,
    stddev_seg_per_sec: f64,
    egress_ratio: f64,
    /// Per-thread throughput relative to the 1-shard median at the same K:
    /// `(seg/s ÷ threads) ÷ seg/s(1 shard)`. 1.0 = perfect linear scaling.
    efficiency_vs_1t: f64,
    oversubscribed: bool,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let segments = if quick { 300 } else { 6000 };
    let repeats = if quick { 1 } else { 5 };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "Engine throughput: {segments} segments x {SEGMENT_LEN} points, median of {repeats} (+/- sample stddev), host cores: {host_parallelism}"
    );
    println!(
        "{:>8} {:>6} {:>16} {:>12} {:>12} {:>10} {:>6}",
        "shards", "K", "segments/s", "stddev", "egress", "eff/1T", "over?"
    );

    let mut rows: Vec<Row> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for batch in BATCH_SIZES {
            // One untimed warm-up run per configuration.
            run_once(threads, batch, segments / 4);
            let mut samples = Vec::with_capacity(repeats);
            let mut egress = 0.0;
            for _ in 0..repeats {
                let report = run_once(threads, batch, segments);
                samples.push(report.points_per_sec / SEGMENT_LEN as f64);
                egress = report.bytes_out as f64 / report.bytes_in as f64;
            }
            let sd = stddev(&samples);
            let med = median(&mut samples);
            let base = rows
                .iter()
                .find(|r| r.threads == 1 && r.batch == batch)
                .map(|r| r.median_seg_per_sec)
                .unwrap_or(med);
            let eff = if base > 0.0 {
                med / threads as f64 / base
            } else {
                0.0
            };
            let oversubscribed = threads > host_parallelism;
            println!(
                "{threads:>8} {batch:>6} {med:>16.0} {sd:>12.0} {egress:>12.4} {eff:>10.2} {:>6}",
                if oversubscribed { "yes" } else { "" }
            );
            rows.push(Row {
                threads,
                batch,
                median_seg_per_sec: med,
                stddev_seg_per_sec: sd,
                egress_ratio: egress,
                efficiency_vs_1t: eff,
                oversubscribed,
            });
        }
    }

    let oversubscribed_counts: Vec<usize> = rows
        .iter()
        .filter(|r| r.oversubscribed)
        .map(|r| r.threads)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    println!("\nJSON:");
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"segment_len\": {SEGMENT_LEN},\n  \"segments\": {segments},\n  \"repeats\": {repeats},\n  \"statistic\": \"median\",\n  \"host_parallelism\": {host_parallelism},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"shards\": {}, \"batch_segments\": {}, \"segments_per_sec\": {:.0}, \"stddev\": {:.0}, \"egress_ratio\": {:.4}, \"efficiency_vs_1t\": {:.2}, \"oversubscribed\": {} }}{}\n",
            row.threads,
            row.batch,
            row.median_seg_per_sec,
            row.stddev_seg_per_sec,
            row.egress_ratio,
            row.efficiency_vs_1t,
            row.oversubscribed,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"notes\": [\n    \
         \"Each figure is the median of N timed runs after one untimed warm-up; the sample standard deviation (n-1) is reported alongside. Median-of-N replaced best-of-N: on a noisy single-core host best-of-N converges to the luckiest scheduling interleave and overstates steady-state throughput.\",\n    \
         \"Every shard (worker thread) takes batches from one bounded work queue, returns buffers to one recycle pool and runs its own replica selector; arm decisions are lock-free and replicas delta-sync through an atomic outcome table. efficiency_vs_1t is (seg/s / shards) / seg/s(1 shard) at the same K: 1.0 is perfect linear scaling.\",\n    \
         \"batch_segments=1 is the exact per-segment bandit (one lock-free replica decision per segment); batch_segments=8 holds one arm sticky across each batch and publishes rewards as one atomic delta per batch.\",\n    \
         \"Egress ratio is taken from the last run of each configuration; arm selection is seeded, so run-to-run egress drift is epsilon-greedy exploration noise only.\"",
    );
    if oversubscribed_counts.is_empty() {
        json.push_str("\n  ]\n");
    } else {
        json.push_str(&format!(
            ",\n    \"WARNING: shard counts {oversubscribed_counts:?} exceed the host's {host_parallelism} core(s); those rows measure time-slicing overhead, not parallel scaling, and per-thread efficiency there is expected to fall below 1/shards.\"\n  ]\n"
        ));
    }
    json.push('}');
    println!("{json}");
}
