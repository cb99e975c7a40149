//! The multithreaded ingest → compress pipeline (§IV-C workflow, §V
//! scalability experiment), sharded per core.
//!
//! Both engines run on the shard runtime of [`crate::shard`]: S shards
//! (S = worker threads), each with a bounded queue and a recycle pool
//! (`ShardQueues`), workers that steal from foreign queues when their
//! own runs dry, and one contained compress step per batch
//! (`compress_batch`). What the engines add is the decision: each shard
//! owns a local [`ReplicaSelector`] that picks arms lock-free from its own
//! copy of the bandit state, publishes per-batch outcome deltas into a
//! [`SharedOutcomeTable`] with plain `fetch_add`s and folds foreign deltas
//! back every [`EngineConfig::sync_interval`] decisions. A stolen batch is
//! decided by the *stealing* worker's replica.
//!
//! Segments move in batches of [`EngineConfig::batch_segments`] (K): one
//! arm decision held sticky per batch, outcomes accumulated locally and
//! reported through [`ReplicaSelector::report_batch`]. S = 1 reproduces
//! the centralized selector bit for bit (single replica, same seed, no
//! foreign deltas), and K = 1 on top of that reproduces per-segment
//! scheduling exactly — the bandit-exact mode the equivalence tests pin.

use crate::error::{AdaEdgeError, Result};
use crate::selector::{check_lossless_arms, SelectorConfig};
use crate::shard::{
    compress_batch, ReplicaSelector, ShardBatch, ShardProducer, ShardQueues, ShardWorker,
    SharedOutcomeTable,
};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_datasets::SegmentSource;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of compression worker threads — one pipeline shard each.
    /// `0` means one per core (`std::thread::available_parallelism`).
    pub n_compression_threads: usize,
    /// Uncompressed-buffer capacity in segments, split evenly across the
    /// shard queues; ingestion that finds a shard's queue full counts a
    /// spill.
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

/// The engines' ingestion stage (caller thread): refill recycled buffers
/// from the round-robin cursor's pool onward and enqueue them on their
/// home shard. Returns the segments that found their queue full (spills).
fn ingest(
    producer: &ShardProducer<'_, ()>,
    source: &mut dyn SegmentSource,
    n_segments: usize,
    k: usize,
) -> u64 {
    let mut spills = 0u64;
    let mut next = 0usize;
    let mut remaining = n_segments;
    while remaining > 0 {
        let take = k.min(remaining);
        let Some((home, segs)) = producer.acquire(next, take, source) else {
            break;
        };
        next = home + 1;
        remaining -= take;
        match producer.enqueue(home, (), segs) {
            Some(spilled) => spills += spilled as u64,
            None => break,
        }
    }
    spills
}

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
    /// Times the ingestion stage found a shard queue full.
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
    /// Batches a worker took from a foreign shard's queue.
    pub stolen_batches: u64,
    /// Delta-sync folds performed across all shard replicas.
    pub selector_syncs: u64,
}

/// Run `n_segments` from `source` through the sharded pipeline and report
/// aggregate throughput.
///
/// Codec errors and panics are contained per segment (the segment is
/// stored Raw and the arm penalized); `Err(AdaEdgeError::WorkerFailed)`
/// is returned only if a worker thread dies outside that contained
/// region. A bad `lossless_arms` roster is an [`AdaEdgeError::Config`]
/// error.
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
        |worker: &mut ShardWorker<()>| {
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
            while let Some(ShardBatch { home, segs, .. }) = worker.recv() {
                // One lock-free decision per batch, arm held sticky;
                // outcomes publish as one atomic delta.
                let (arm, codec) = replica.select_arm();
                compress_batch(&reg, codec, &segs, &mut scratch, &mut outcomes, |_, b| {
                    bytes_out += b.compressed_bytes() as u64;
                    *counts.entry(b.codec).or_insert(0) += 1;
                });
                replica.report_batch(arm, &outcomes);
                worker.recycle(home, segs);
            }
            // Final fold so the replica's view is complete at exit.
            replica.sync();
            (counts, bytes_out)
        },
        |producer| spills = ingest(producer, source, n_segments, k),
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
        stolen_batches: queues.stolen_batches(),
        selector_syncs: table.syncs(),
    })
}

/// Offline-mode engine configuration: the paper's thread layout
/// (ingestion, compression, recoding, evaluation; reward evaluation runs
/// inside the recoding step here), sharded like [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct OfflineEngineConfig {
    /// Compression worker threads — one pipeline shard each; `0` means one
    /// per core.
    pub n_compression_threads: usize,
    /// Uncompressed-buffer capacity in segments, split across shards.
    pub buffer_segments: usize,
    /// Hard storage budget in bytes.
    pub storage_budget_bytes: usize,
    /// Recoding trigger fraction (paper: 0.8).
    pub recode_threshold: f64,
    /// Lossless candidate arms.
    pub lossless_arms: Vec<CodecId>,
    /// Lossy candidate arms.
    pub lossy_arms: Vec<CodecId>,
    /// MAB hyper-parameters.
    pub selector: SelectorConfig,
    /// Workload target for the recoding MABs.
    pub target: crate::targets::OptimizationTarget,
    /// Dataset decimal precision.
    pub precision: u8,
    /// Segments per scheduling batch (K), as in
    /// [`EngineConfig::batch_segments`]. Also bounds how many recode
    /// victims the recoding thread drains per pass.
    pub batch_segments: usize,
    /// Arm decisions between delta-sync folds, as in
    /// [`EngineConfig::sync_interval`].
    pub sync_interval: usize,
}

impl OfflineEngineConfig {
    /// Defaults for a given budget and target.
    pub fn new(storage_budget_bytes: usize, target: crate::targets::OptimizationTarget) -> Self {
        Self {
            n_compression_threads: 1,
            buffer_segments: 64,
            storage_budget_bytes,
            recode_threshold: 0.8,
            lossless_arms: CodecRegistry::lossless_candidates(),
            lossy_arms: CodecRegistry::lossy_candidates(),
            selector: SelectorConfig::offline(),
            target,
            precision: 4,
            batch_segments: 1,
            sync_interval: DEFAULT_SYNC_INTERVAL,
        }
    }
}

/// Results of an offline engine run.
#[derive(Debug, Clone)]
pub struct OfflineEngineReport {
    /// Segments stored.
    pub segments: u64,
    /// Data points ingested.
    pub points: u64,
    /// Final stored bytes.
    pub stored_bytes: usize,
    /// Final utilization of the budget.
    pub utilization: f64,
    /// Total recoding passes performed by the recoding thread.
    pub recodes: u64,
    /// Segments dropped because the budget could not be met in time.
    pub drops: u64,
    /// Wall-clock runtime.
    pub elapsed_seconds: f64,
    /// Achieved throughput in points/s.
    pub points_per_sec: f64,
    /// Contained codec failures (errors or panics caught inside workers).
    pub codec_failures: u64,
    /// Lossless arms quarantined (on any shard) after repeated failures.
    pub quarantined: Vec<CodecId>,
    /// Pipeline shards (= worker threads) the run used.
    pub shards: usize,
    /// Batches a worker took from a foreign shard's queue.
    pub stolen_batches: u64,
    /// Delta-sync folds performed across all shard replicas.
    pub selector_syncs: u64,
}

/// Run the multithreaded offline pipeline: ingestion (caller thread) →
/// sharded queues → compression workers → shared budgeted store, with a
/// dedicated recoding thread draining space via the banded lossy MAB it
/// owns outright (no selector mutex anywhere).
///
/// Codec failures are contained per segment exactly as in
/// [`run_pipeline`]; `Err(AdaEdgeError::WorkerFailed)` means a worker or
/// the recoding thread died outside the contained region. A bad
/// `lossless_arms` roster is an [`AdaEdgeError::Config`] error.
pub fn run_offline_pipeline(
    source: &mut dyn SegmentSource,
    n_segments: usize,
    config: &OfflineEngineConfig,
) -> Result<OfflineEngineReport> {
    use crate::selector::BandedLossySelector;
    use crate::targets::RewardEvaluator;
    use adaedge_storage::SegmentStore;

    check_lossless_arms(&config.lossless_arms)?;
    let reg = CodecRegistry::new(config.precision);
    let store = Mutex::new(SegmentStore::with_budget(config.storage_budget_bytes));
    let evaluator = RewardEvaluator::new(config.target.clone(), None, 0);
    // The recoding thread is the banded lossy selector's only user, so it
    // owns the selector outright — no mutex, no contention.
    let mut lossy = BandedLossySelector::new(config.lossy_arms.clone(), config.selector, evaluator);
    let workers_done = std::sync::atomic::AtomicBool::new(false);
    // Signals any change to the store's occupancy: workers wake the recoder
    // after a put, the recoder wakes blocked workers after freeing space, and
    // the ingestion thread wakes everyone at shutdown. Waits pair with the
    // store mutex; short timeouts guard the flag-set/notify window.
    let store_cv = Condvar::new();
    let recodes = AtomicU64::new(0);
    let drops = AtomicU64::new(0);
    let k = config.batch_segments.max(1);
    let queues = ShardQueues::new(
        config.n_compression_threads,
        config.buffer_segments,
        k,
        source.segment_len(),
    );
    let table = SharedOutcomeTable::new(config.lossless_arms.len());
    let segment_points = source.segment_len() as u64;
    let threshold = config.recode_threshold;
    let budget = config.storage_budget_bytes;

    let start = Instant::now();
    std::thread::scope(|scope| -> Result<()> {
        // Recoding thread: frees space whenever occupancy crosses θ·budget.
        // Victims are drained in batches of up to K per pass: one store
        // lock to snapshot them, recodes through the thread-owned selector,
        // one store lock to commit the winners.
        let recoder = {
            let store = &store;
            let reg = &reg;
            let workers_done = &workers_done;
            let recodes = &recodes;
            let store_cv = &store_cv;
            scope.spawn(move || loop {
                // Sleep until occupancy crosses θ·budget or the pipeline
                // drains; puts notify the condvar, so no busy-wait.
                {
                    let mut guard = store.lock();
                    while !guard.over_threshold(threshold) {
                        if workers_done.load(Ordering::Acquire) {
                            return;
                        }
                        store_cv.wait_for(&mut guard, Duration::from_millis(50));
                    }
                }
                // Snapshot up to K victims under one lock; recode outside.
                let victims = {
                    let guard = store.lock();
                    let raw_bytes: usize = guard.iter().map(|s| s.n_points() * 8).sum();
                    let r_req = if raw_bytes == 0 {
                        0.0
                    } else {
                        (threshold * budget as f64 / raw_bytes as f64).min(1.0)
                    };
                    let mut picks = Vec::new();
                    let mut fallback = None;
                    for id in guard.victim_order() {
                        if picks.len() >= k {
                            break;
                        }
                        if let Some(seg) = guard.peek(id) {
                            if let Some(block) = seg.block() {
                                if seg.ratio() > r_req {
                                    picks.push((id, block.clone(), seg.ratio() * 0.5));
                                } else if fallback.is_none() {
                                    fallback = Some((id, block.clone(), seg.ratio() * 0.5));
                                }
                            }
                        }
                    }
                    if picks.is_empty() {
                        // No victim clears the required ratio: recode the
                        // best-effort fallback alone, as the per-segment
                        // scheduler did.
                        picks.extend(fallback);
                    }
                    picks
                };
                if victims.is_empty() {
                    // Nothing recodable yet; wait for the store to change.
                    let mut guard = store.lock();
                    store_cv.wait_for(&mut guard, Duration::from_millis(5));
                    continue;
                }
                // The selector is thread-owned: recodes report their
                // rewards directly, no lock to acquire or batch around.
                let results: Vec<_> = victims
                    .iter()
                    .map(|(_, block, target_ratio)| lossy.recode(reg, block, None, *target_ratio))
                    .collect();
                let mut committed = false;
                {
                    let mut guard = store.lock();
                    for ((id, block, _), result) in victims.iter().zip(results) {
                        let old_bytes = block.compressed_bytes();
                        let Ok(sel) = result else { continue };
                        if sel.block.compressed_bytes() >= old_bytes {
                            continue;
                        }
                        // The segment may have been touched meanwhile; only
                        // commit if it still holds the block we recoded.
                        let unchanged = guard
                            .peek(*id)
                            .and_then(|s| s.block())
                            .map(|b| b.compressed_bytes() == old_bytes)
                            .unwrap_or(false);
                        if unchanged && guard.replace(*id, sel.block).is_ok() {
                            recodes.fetch_add(1, Ordering::Relaxed);
                            committed = true;
                        }
                    }
                }
                if committed {
                    // Space was freed; wake any worker blocked on put.
                    store_cv.notify_all();
                } else {
                    // No victim made progress this pass; back off briefly
                    // instead of spinning.
                    let mut guard = store.lock();
                    store_cv.wait_for(&mut guard, Duration::from_millis(1));
                }
            })
        };

        let workers = queues.run(
            |worker: &mut ShardWorker<()>| {
                let mut replica = ReplicaSelector::new(
                    config.lossless_arms.clone(),
                    config.selector,
                    worker.shard(),
                    &table,
                    config.sync_interval,
                );
                let mut scratch = CodecScratch::new();
                let mut outcomes = Vec::with_capacity(k);
                let mut blocks = Vec::with_capacity(k);
                while let Some(ShardBatch { home, segs, .. }) = worker.recv() {
                    // One lock-free decision per batch (arm held sticky),
                    // one replica report, then the store puts. The store
                    // takes ownership, so each block is materialized.
                    let (arm, codec) = replica.select_arm();
                    compress_batch(&reg, codec, &segs, &mut scratch, &mut outcomes, |_, b| {
                        blocks.push(b.to_block())
                    });
                    // A segment even Raw rejected is lost.
                    drops.fetch_add((segs.len() - blocks.len()) as u64, Ordering::Relaxed);
                    replica.report_batch(arm, &outcomes);
                    worker.recycle(home, segs);
                    for block in blocks.drain(..) {
                        // Wait (bounded) for the recoder to clear space,
                        // sleeping on the condvar between attempts instead
                        // of spinning.
                        let mut stored = false;
                        let deadline = Instant::now() + Duration::from_secs(2);
                        {
                            let mut guard = store.lock();
                            loop {
                                if guard.put_compressed(block.clone()).is_ok() {
                                    stored = true;
                                    break;
                                }
                                if Instant::now() >= deadline {
                                    break;
                                }
                                store_cv.wait_for(&mut guard, Duration::from_millis(10));
                            }
                        }
                        if stored {
                            // The store grew; the recoder may now be over θ.
                            store_cv.notify_all();
                        } else {
                            drops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                replica.sync();
            },
            |producer| {
                ingest(producer, source, n_segments, k);
            },
        );
        // Workers are joined: stop the recoder, and join it too before
        // deciding the outcome so the scope never exits with an unjoined
        // panicked thread.
        workers_done.store(true, Ordering::Release);
        store_cv.notify_all();
        let lost_recoder = recoder.join().is_err();
        workers?;
        if lost_recoder {
            return Err(AdaEdgeError::WorkerFailed {
                stage: "recoding thread",
            });
        }
        Ok(())
    })?;

    let elapsed = start.elapsed().as_secs_f64();
    let guard = store.lock();
    let points = n_segments as u64 * segment_points;
    Ok(OfflineEngineReport {
        segments: guard.len() as u64,
        points,
        stored_bytes: guard.used_bytes(),
        utilization: guard.utilization(),
        recodes: recodes.load(Ordering::Relaxed),
        drops: drops.load(Ordering::Relaxed),
        elapsed_seconds: elapsed,
        points_per_sec: points as f64 / elapsed.max(1e-9),
        codec_failures: table.failure_total(),
        quarantined: table.quarantined_arms(&config.lossless_arms),
        shards: queues.shards(),
        stolen_batches: queues.stolen_batches(),
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
        // A single shard can never steal from itself.
        assert_eq!(report.stolen_batches, 0);
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
    fn offline_engine_bounds_space_under_pressure() {
        use crate::query::AggKind;
        use crate::targets::OptimizationTarget;
        let mut source = SineStream::new(1000, 0.3, 4, 3);
        let config = OfflineEngineConfig {
            storage_budget_bytes: 60_000,
            ..OfflineEngineConfig::new(60_000, OptimizationTarget::agg(AggKind::Sum))
        };
        let report = run_offline_pipeline(&mut source, 100, &config).expect("pipeline");
        assert_eq!(report.segments + report.drops, 100);
        assert!(report.drops <= 2, "drops {}", report.drops);
        assert!(report.utilization <= 1.0 + 1e-9);
        assert!(report.recodes > 0, "recoder never ran");
        assert!(report.stored_bytes <= 60_000);
    }

    #[test]
    fn offline_engine_without_pressure_keeps_everything_lossless() {
        use crate::query::AggKind;
        use crate::targets::OptimizationTarget;
        let mut source = SineStream::new(500, 0.1, 4, 5);
        let config = OfflineEngineConfig::new(10 << 20, OptimizationTarget::agg(AggKind::Sum));
        let report = run_offline_pipeline(&mut source, 30, &config).expect("pipeline");
        assert_eq!(report.segments, 30);
        assert_eq!(report.drops, 0);
        assert_eq!(report.recodes, 0);
        assert_eq!(report.codec_failures, 0);
        assert!(report.quarantined.is_empty());
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
