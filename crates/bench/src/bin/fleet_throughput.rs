//! Multi-tenant fleet throughput: aggregate segments/s through the
//! fleet layer (admission → per-stream selectors → workers sharing one
//! work queue → priority frame packing) at 1 / 100 / 1k / 10k concurrent
//! streams on one worker, plus 10k streams on two workers (the one
//! multi-shard fleet row), against a same-run single-stream engine
//! baseline.
//!
//! Total work is held constant across stream counts (~20k segments split
//! evenly), so the sweep isolates the *multiplexing overhead*: per-stream
//! selector decisions, the one-batch-in-flight scheduler, admission and
//! eviction, and egress packing. The scale target is that 10k streams
//! sustain at least 80 % of the single-stream engine's aggregate seg/s.
//!
//! All streams cycle one shared pre-generated segment pool
//! (`SharedCycleSource`) at different phases, so signal generation cost
//! and memory stay flat no matter the stream count; per-stream *resident
//! fleet state* (stream + selector posterior) is reported from the run.
//!
//! Each configuration reports the **median of N timed runs** with the
//! sample standard deviation alongside (the repo-wide bench convention —
//! not best-of-N).
//!
//! Run: `cargo run --release -p adaedge-bench --bin fleet_throughput`
//! (`-- --quick` for the CI smoke configuration: 1k streams on one and on
//! two workers, one run each).
//! Prints a table and a JSON object suitable for `BENCH_fleet.json`.

use adaedge_bench::harness::{median, stddev};
use adaedge_core::engine::{run_pipeline, EngineConfig};
use adaedge_core::fleet::{run_fleet, FleetConfig, FleetReport, StreamSpec};
use adaedge_core::frame::Priority;
use adaedge_datasets::{SharedCycleSource, SineStream};
use adaedge_storage::{save_posteriors, StreamPosterior};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEGMENT_LEN: usize = 1000;
const POOL: usize = 64;
const BATCH: usize = 8;

fn fleet_specs(
    pool: &Arc<Vec<Vec<f64>>>,
    streams: usize,
    segs_per_stream: usize,
) -> Vec<StreamSpec> {
    (0..streams as u64)
        .map(|id| {
            StreamSpec::new(
                id,
                Priority::ALL[id as usize % 4],
                segs_per_stream,
                Box::new(SharedCycleSource::new(pool.clone(), id as usize)),
            )
        })
        .collect()
}

fn run_fleet_once(
    pool: &Arc<Vec<Vec<f64>>>,
    streams: usize,
    workers: usize,
    segs_per_stream: usize,
    posterior_path: Option<PathBuf>,
) -> FleetReport {
    let config = FleetConfig {
        n_compression_threads: workers,
        batch_segments: BATCH,
        // A gateway-sized buffer: a deeper work queue amortizes the
        // producer/worker hand-off when tenants contribute only a
        // batch or two each, instead of futex-bouncing every few
        // batches through a device-sized 64-segment buffer.
        buffer_segments: 1024,
        posterior_path,
        ..Default::default()
    };
    run_fleet(fleet_specs(pool, streams, segs_per_stream), &config).expect("fleet")
}

/// Build a warm-start posterior archive: train one stream to steady state
/// over the shared pool, then stamp its converged posterior onto every
/// stream id. Measured runs restore it through the fleet's own
/// evict/restore path, so every tenant starts where a resumed gateway
/// stream would — on the learned arm, not in optimistic-init exploration.
/// Without this, high stream counts measure bandit cold-start (each
/// stream burns its few segments exploring expensive codecs), not the
/// multiplexing machinery the sweep is after.
fn build_warm_archive(pool: &Arc<Vec<Vec<f64>>>, max_streams: usize, path: &Path) {
    let train = run_fleet_once(pool, 1, 1, 512, None);
    let proto = &train.stream_reports[0];
    let posteriors: Vec<StreamPosterior> = (0..max_streams as u64)
        .map(|id| StreamPosterior {
            stream_id: id,
            arms: train.arms.clone(),
            pulls: proto.pulls.clone(),
            estimates: proto.estimates.clone(),
            failure_totals: proto.failure_totals.clone(),
            quarantine_bits: proto.quarantine_bits,
        })
        .collect();
    save_posteriors(path, posteriors.iter()).expect("archive");
}

fn run_engine_once(segments: usize) -> f64 {
    let mut sine = SineStream::new(SEGMENT_LEN, 0.1, 4, 7);
    let mut source =
        SharedCycleSource::new(SharedCycleSource::pregenerate_pool(&mut sine, POOL), 0);
    let config = EngineConfig {
        n_compression_threads: 1,
        batch_segments: BATCH,
        ..Default::default()
    };
    let report = run_pipeline(&mut source, segments, &config).expect("engine");
    report.points_per_sec / SEGMENT_LEN as f64
}

struct Row {
    streams: usize,
    workers: usize,
    segs_per_stream: usize,
    median_seg_per_sec: f64,
    stddev_seg_per_sec: f64,
    vs_engine: f64,
    per_stream_state_bytes: usize,
    frames: u64,
    max_frame_used: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Equal total work per row; stream counts divide it evenly.
    let total_segments = if quick { 2000 } else { 20_000 };
    let repeats = if quick { 1 } else { 5 };
    // (streams, workers) per row.
    let configs: &[(usize, usize)] = if quick {
        &[(1000, 1), (1000, 2)]
    } else {
        &[(1, 1), (100, 1), (1000, 1), (10_000, 1), (10_000, 2)]
    };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut sine = SineStream::new(SEGMENT_LEN, 0.1, 4, 7);
    let pool = SharedCycleSource::pregenerate_pool(&mut sine, POOL);

    let archive_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "adaedge-fleet-bench-{}.posteriors",
            std::process::id()
        ));
        p
    };
    let max_streams = configs.iter().map(|&(s, _)| s).max().expect("non-empty");
    build_warm_archive(&pool, max_streams, &archive_path);
    let pristine_archive = std::fs::read(&archive_path).expect("archive bytes");

    // Same-run single-stream engine baseline: the denominator of the
    // "within 20 % of the engine" scale target, measured on this host
    // today, same codec roster, same K, same segment pool.
    run_engine_once(total_segments / 4);
    let mut engine_samples: Vec<f64> = (0..repeats)
        .map(|_| run_engine_once(total_segments))
        .collect();
    let engine_sd = stddev(&engine_samples);
    let engine_med = median(&mut engine_samples);

    println!(
        "Fleet throughput: {total_segments} segments x {SEGMENT_LEN} points total, K={BATCH}, median of {repeats} (+/- sample stddev), host cores: {host_parallelism}"
    );
    println!("Single-stream engine baseline: {engine_med:.0} seg/s (stddev {engine_sd:.0})");
    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>10} {:>10} {:>12} {:>8} {:>10}",
        "streams",
        "workers",
        "segs/strm",
        "segments/s",
        "stddev",
        "vs engine",
        "state B/strm",
        "frames",
        "max frame"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &(streams, workers) in configs {
        let segs_per_stream = (total_segments / streams).max(1);
        run_fleet_once(
            &pool,
            streams,
            workers,
            segs_per_stream.div_ceil(4).max(1),
            Some(archive_path.clone()),
        );
        let mut samples = Vec::with_capacity(repeats);
        let mut last: Option<FleetReport> = None;
        for _ in 0..repeats {
            // Restore the pristine converged archive before every run so
            // repeats measure identical posterior state.
            std::fs::write(&archive_path, &pristine_archive).expect("archive reset");
            let report = run_fleet_once(
                &pool,
                streams,
                workers,
                segs_per_stream,
                Some(archive_path.clone()),
            );
            assert_eq!(report.restores, streams as u64, "every stream warm-starts");
            samples.push(report.segments_per_sec);
            last = Some(report);
        }
        let report = last.expect("at least one run");
        assert!(
            report.frames.max_frame_used <= report.frames.payload_cap,
            "frame cap violated"
        );
        let sd = stddev(&samples);
        let med = median(&mut samples);
        let vs = med / engine_med;
        println!(
            "{streams:>8} {workers:>8} {segs_per_stream:>10} {med:>14.0} {sd:>10.0} {vs:>10.2} {:>12} {:>8} {:>10}",
            report.per_stream_state_bytes,
            report.frames.frames,
            report.frames.max_frame_used,
        );
        rows.push(Row {
            streams,
            workers,
            segs_per_stream,
            median_seg_per_sec: med,
            stddev_seg_per_sec: sd,
            vs_engine: vs,
            per_stream_state_bytes: report.per_stream_state_bytes,
            frames: report.frames.frames,
            max_frame_used: report.frames.max_frame_used,
        });
    }

    println!("\nJSON:");
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"segment_len\": {SEGMENT_LEN},\n  \"total_segments\": {total_segments},\n  \"batch_segments\": {BATCH},\n  \"repeats\": {repeats},\n  \"statistic\": \"median\",\n  \"host_parallelism\": {host_parallelism},\n"
    ));
    json.push_str(&format!(
        "  \"engine_baseline_seg_per_sec\": {engine_med:.0},\n  \"engine_baseline_stddev\": {engine_sd:.0},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"streams\": {}, \"workers\": {}, \"segments_per_stream\": {}, \"segments_per_sec\": {:.0}, \"stddev\": {:.0}, \"vs_engine\": {:.3}, \"per_stream_state_bytes\": {}, \"frames\": {}, \"max_frame_used\": {} }}{}\n",
            row.streams,
            row.workers,
            row.segs_per_stream,
            row.median_seg_per_sec,
            row.stddev_seg_per_sec,
            row.vs_engine,
            row.per_stream_state_bytes,
            row.frames,
            row.max_frame_used,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"notes\": [\n    \
         \"Total work is constant across rows (~total_segments split evenly), so rows isolate multiplexing overhead: per-stream selector decisions, one-batch-in-flight scheduling, admission and eviction, frame packing. vs_engine is the row's median over the same-run single-stream engine baseline; the scale target is >= 0.80 at 10k streams on one worker. The 10k-stream row at two workers is the only multi-shard fleet measurement; its vs_engine still divides by the one-worker engine.\",\n    \
         \"All streams cycle one shared pre-generated segment pool at distinct phases (SharedCycleSource), so generation cost and pool memory are flat in the stream count; per_stream_state_bytes is the fleet's own resident cost per admitted stream (stream + selector posterior).\",\n    \
         \"Every stream warm-starts from a converged posterior through the fleet's evict/restore path (restores == streams is asserted), modelling a gateway whose tenants resume learned state. Without warm-start, rows with few segments per stream measure bandit cold-start - thousands of fresh selectors burning their only segments exploring expensive codecs - which is inherent to the bandit, not to the multiplexing machinery. The engine baseline self-converges within ~50 of its segments, which is negligible at this scale.\",\n    \
         \"At high stream counts segments_per_stream falls below K, so the effective batch shrinks and the fleet pays more selector decisions per segment than the engine row - that, plus frame packing, is the overhead being measured.\",\n    \
         \"Each figure is the median of N timed runs after one untimed warm-up; the sample standard deviation (n-1) is reported alongside.\"\n  ]\n",
    );
    json.push('}');
    println!("{json}");
    std::fs::remove_file(&archive_path).ok();
}
