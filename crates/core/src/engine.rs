//! The multithreaded ingest → compress pipeline (§IV-C workflow, §V
//! scalability experiment), sharded per core.
//!
//! The engine runs on the shard runtime of [`crate::shard`]: S shards
//! (S = worker threads) that receive batches from one bounded work queue
//! and return their buffers to one recycle pool (`ShardQueues`), and one
//! contained compress step per batch (`compress_batch`). What the engine
//! adds is the decision: each shard owns a local [`ReplicaSelector`] that
//! picks arms lock-free from its own copy of the bandit state for every
//! batch its worker takes, publishes per-batch outcome deltas into a
//! [`SharedOutcomeTable`] with plain `fetch_add`s and folds foreign deltas
//! back every [`EngineConfig::sync_interval`] decisions.
//!
//! Segments move in batches of [`EngineConfig::batch_segments`] (K): one
//! arm decision held sticky per batch, outcomes accumulated locally and
//! reported through [`ReplicaSelector::report_batch`]. S = 1 reproduces
//! the centralized selector bit for bit (single replica, same seed, no
//! foreign deltas), and K = 1 on top of that reproduces per-segment
//! scheduling exactly — the bandit-exact mode the equivalence tests pin.
//!
//! The offline mode (§IV-C2) is single-threaded:
//! [`OfflineAdaEdge`](crate::offline::OfflineAdaEdge).

use crate::error::Result;
use crate::selector::{check_lossless_arms, SelectorConfig};
use crate::shard::{
    compress_batch, ReplicaSelector, ShardBatch, ShardQueues, ShardWorker, SharedOutcomeTable,
};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_datasets::SegmentSource;
use std::collections::HashMap;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of compression worker threads — one pipeline shard each.
    /// `0` means one per core (`std::thread::available_parallelism`).
    pub n_compression_threads: usize,
    /// Uncompressed-buffer capacity in segments: the work queue holds this
    /// many segments in batches, and at least two batches per shard.
    /// Ingestion that finds the queue full counts a spill.
    pub buffer_segments: usize,
    /// Lossless candidate arms, replicated into every shard's selector.
    pub lossless_arms: Vec<CodecId>,
    /// MAB hyper-parameters (each shard's replica derives its RNG stream
    /// from `selector.seed` and its shard id; shard 0 uses the seed
    /// unchanged).
    pub selector: SelectorConfig,
    /// Dataset decimal precision.
    pub precision: u8,
    /// Segments per scheduling batch (K). Workers pull K segments per
    /// queue op, keep the selected arm sticky across the batch, and
    /// report the K accumulated rewards in one replica update. `1`
    /// (the default) is the bandit-exact mode: selection, reward order and
    /// queue traffic are identical to per-segment scheduling.
    pub batch_segments: usize,
    /// Arm decisions between delta-sync folds: how often each shard's
    /// replica pulls the other shards' published outcomes into its local
    /// estimates. Lower = fresher cross-shard state, more fold work;
    /// `1` folds after every decision. With a single shard the value is
    /// irrelevant (there are never foreign deltas).
    pub sync_interval: usize,
    /// Deterministic fault injection for containment tests: every compress
    /// call for this codec panics inside the workers (see
    /// [`CodecRegistry::inject_compress_panic`]). Production configurations
    /// leave this `None`.
    pub fault_injection: Option<CodecId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            n_compression_threads: 1,
            buffer_segments: 64,
            lossless_arms: CodecRegistry::lossless_candidates(),
            selector: SelectorConfig::default(),
            precision: 4,
            batch_segments: 1,
            sync_interval: DEFAULT_SYNC_INTERVAL,
            fault_injection: None,
        }
    }
}

/// Default decisions-between-folds: frequent enough that quarantine and
/// posterior drift propagate within a few hundred segments at typical K,
/// rare enough that the O(arms) fold stays invisible in profiles.
pub const DEFAULT_SYNC_INTERVAL: usize = 32;

/// Aggregate pipeline results.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Segments compressed.
    pub segments: u64,
    /// Data points processed.
    pub points: u64,
    /// Raw bytes in.
    pub bytes_in: u64,
    /// Compressed bytes out.
    pub bytes_out: u64,
    /// Wall-clock runtime.
    pub elapsed_seconds: f64,
    /// Achieved throughput in points per second.
    pub points_per_sec: f64,
    /// Times the ingestion stage found the work queue full.
    pub spills: u64,
    /// How often each codec was selected.
    pub codec_counts: HashMap<CodecId, u64>,
    /// Contained codec failures (errors or panics caught inside workers).
    /// Each failed segment was degraded to Raw rather than lost.
    pub codec_failures: u64,
    /// Arms quarantined (on any shard) after repeated consecutive
    /// failures; verdicts propagate to every shard at its next sync.
    pub quarantined: Vec<CodecId>,
    /// Pipeline shards (= worker threads) the run used.
    pub shards: usize,
    /// Delta-sync folds performed across all shard replicas.
    pub selector_syncs: u64,
}

/// Run `n_segments` from `source` through the sharded pipeline and report
/// aggregate throughput.
///
/// Codec errors and panics are contained per segment (the segment is
/// stored Raw and the arm penalized); `Err(AdaEdgeError::WorkerFailed)`
/// is returned only if a worker thread dies outside that contained
/// region. A bad `lossless_arms` roster is an
/// [`AdaEdgeError::Config`](crate::AdaEdgeError::Config) error.
pub fn run_pipeline(
    source: &mut dyn SegmentSource,
    n_segments: usize,
    config: &EngineConfig,
) -> Result<EngineReport> {
    check_lossless_arms(&config.lossless_arms)?;
    let mut reg = CodecRegistry::new(config.precision);
    if let Some(id) = config.fault_injection {
        reg.inject_compress_panic(id);
    }
    let reg = reg;
    let k = config.batch_segments.max(1);
    let queues = ShardQueues::new(
        config.n_compression_threads,
        config.buffer_segments,
        k,
        source.segment_len(),
    );
    let table = SharedOutcomeTable::new(config.lossless_arms.len());
    let mut spills = 0u64;

    let start = Instant::now();
    let locals = queues.run(
        |worker: &ShardWorker<()>| {
            let mut replica = ReplicaSelector::new(
                config.lossless_arms.clone(),
                config.selector,
                worker.shard(),
                &table,
                config.sync_interval,
            );
            let mut scratch = CodecScratch::new();
            let mut outcomes = Vec::with_capacity(k);
            let mut counts: HashMap<CodecId, u64> = HashMap::new();
            let mut bytes_out = 0u64;
            while let Some(ShardBatch { segs, .. }) = worker.recv() {
                // One lock-free decision per batch, arm held sticky;
                // outcomes publish as one atomic delta.
                let (arm, codec) = replica.select_arm();
                compress_batch(&reg, codec, &segs, &mut scratch, &mut outcomes, |_, b| {
                    bytes_out += b.compressed_bytes() as u64;
                    *counts.entry(b.codec).or_insert(0) += 1;
                });
                replica.report_batch(arm, &outcomes);
                worker.recycle(segs);
            }
            // Final fold so the replica's view is complete at exit.
            replica.sync();
            (counts, bytes_out)
        },
        // Ingestion (caller thread): refill recycled buffers from the pool
        // and enqueue each batch; a batch that finds the queue full spills.
        |producer| {
            let mut remaining = n_segments;
            while remaining > 0 {
                let take = k.min(remaining);
                let Some(segs) = producer.acquire(take, source) else {
                    break;
                };
                remaining -= take;
                match producer.enqueue((), segs) {
                    Some(spilled) => spills += spilled as u64,
                    None => break,
                }
            }
        },
    )?;
    let elapsed = start.elapsed().as_secs_f64();
    let mut codec_counts: HashMap<CodecId, u64> = HashMap::new();
    let mut bytes_out = 0u64;
    for (counts, bytes) in locals {
        for (codec, count) in counts {
            *codec_counts.entry(codec).or_insert(0) += count;
        }
        bytes_out += bytes;
    }
    let points = n_segments as u64 * source.segment_len() as u64;
    Ok(EngineReport {
        segments: n_segments as u64,
        points,
        bytes_in: points * 8,
        bytes_out,
        elapsed_seconds: elapsed,
        points_per_sec: points as f64 / elapsed.max(1e-9),
        spills,
        codec_counts,
        codec_failures: table.failure_total(),
        quarantined: table.quarantined_arms(&config.lossless_arms),
        shards: queues.shards(),
        selector_syncs: table.syncs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_datasets::SineStream;

    fn run(threads: usize, segments: usize) -> EngineReport {
        let mut source = SineStream::new(1000, 0.1, 4, 7);
        let config = EngineConfig {
            n_compression_threads: threads,
            ..Default::default()
        };
        run_pipeline(&mut source, segments, &config).expect("pipeline")
    }

    #[test]
    fn processes_all_segments() {
        let report = run(2, 50);
        assert_eq!(report.segments, 50);
        assert_eq!(report.points, 50_000);
        assert_eq!(report.bytes_in, 400_000);
        assert!(report.bytes_out > 0);
        assert!(report.bytes_out < report.bytes_in);
        let total: u64 = report.codec_counts.values().sum();
        assert_eq!(total, 50);
        assert_eq!(report.codec_failures, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.shards, 2);
    }

    #[test]
    fn injected_codec_panic_is_contained() {
        let mut source = SineStream::new(1000, 0.1, 4, 7);
        let config = EngineConfig {
            n_compression_threads: 2,
            lossless_arms: vec![CodecId::Gzip, CodecId::Snappy],
            fault_injection: Some(CodecId::Gzip),
            ..Default::default()
        };
        let report = run_pipeline(&mut source, 60, &config).expect("faulty arm must be contained");
        // Every segment still lands somewhere: the healthy arm or Raw.
        let total: u64 = report.codec_counts.values().sum();
        assert_eq!(total, 60);
        assert_eq!(report.codec_counts.get(&CodecId::Gzip), None);
        // The failures were observed, routed to Raw, and the arm ended up
        // quarantined on at least one shard (optimistic init keeps
        // re-picking it until then); the verdict lands in the report via
        // the shared table.
        assert!(report.codec_failures >= 3, "{}", report.codec_failures);
        assert_eq!(
            report.codec_counts.get(&CodecId::Raw).copied().unwrap_or(0),
            report.codec_failures
        );
        assert_eq!(report.quarantined, vec![CodecId::Gzip]);
    }

    #[test]
    fn throughput_is_positive_and_reported() {
        let report = run(1, 20);
        assert!(report.points_per_sec > 0.0);
        assert!(report.elapsed_seconds > 0.0);
        assert_eq!(report.shards, 1);
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let mut source = SineStream::new(500, 0.1, 4, 7);
        let config = EngineConfig {
            n_compression_threads: 0,
            ..Default::default()
        };
        let report = run_pipeline(&mut source, 10, &config).expect("pipeline");
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(report.shards, cores);
        assert_eq!(report.segments, 10);
    }

    #[test]
    fn multiple_threads_do_not_lose_segments() {
        for threads in [1, 2, 4, 8] {
            let report = run(threads, 40);
            let total: u64 = report.codec_counts.values().sum();
            assert_eq!(total, 40, "{threads} threads");
            assert_eq!(report.shards, threads);
        }
    }
}
