//! The shard runtime shared by every multithreaded pipeline, and sharded
//! selector replication with delta-sync (the CStream-style
//! parallel-scaling layer).
//!
//! [`crate::engine::run_pipeline`] and [`crate::fleet::run_fleet`] both
//! run on the same two pieces:
//! `compress_batch`, the one contained compress step (codec errors and
//! panics degrade a segment to Raw), and `ShardQueues`, one bounded work
//! queue that every worker receives from and one recycle pool of segment
//! buffers that every worker returns to. Each entry point supplies only
//! its per-batch decision and what it does with the compressed blocks;
//! the fleet's batches carry their stream's state.
//!
//! A *shard* is one worker thread. The engine makes every arm decision
//! lock-free from a **local selector replica**: each shard's own copy of
//! the bandit state, which decides whichever batch its worker takes next.
//! Replicas stay coherent through a [`SharedOutcomeTable`]: per-batch
//! outcome deltas are published with plain `fetch_add`s (no mutex
//! anywhere on the segment hot path), and every
//! [`ReplicaSelector::sync_interval`] decisions a replica folds the
//! *foreign* deltas — everything other shards published since its last
//! sync — back into its local policy via [`adaedge_bandit::Policy::fold`].
//!
//! Staleness semantics: between syncs a replica's estimates lag the global
//! posterior by at most `(S − 1) · sync_interval` decisions' worth of
//! foreign outcomes. For sample-average policies the fold itself is exact
//! (posteriors depend only on per-arm sums and counts), so a replica that
//! has just synced holds, up to the table's ~2⁻³² fixed-point quantization,
//! exactly the centralized posterior. With a single shard there are no
//! foreign deltas at all and the replica *is* the centralized selector,
//! bit for bit — that is the bandit-exact mode the equivalence suites pin.
//!
//! Fault containment composes the same way: quarantine verdicts
//! ([`crate::selector::QUARANTINE_AFTER`] consecutive local failures) are
//! published as bits in the table and imposed on every other replica at
//! its next sync, while consecutive-failure *streaks* stay shard-local so
//! one shard's pathological data cannot quarantine a codec that works
//! elsewhere.

use crate::error::{AdaEdgeError, Result};
use crate::selector::{ArmOutcome, LosslessSelector, SelectorConfig};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch, CompressedBlockRef};
use adaedge_datasets::SegmentSource;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-point scale for reward sums in the shared table: rewards lie in
/// `[0, 1]`, so 2³² units per unit reward keeps published sums exact to
/// ~2⁻³³ while a `u64` accumulator lasts ~4 billion pulls before overflow.
const REWARD_UNIT: f64 = (1u64 << 32) as f64;

/// Quantize a reward into table units (round-to-nearest).
#[inline]
fn to_units(reward: f64) -> u64 {
    (reward * REWARD_UNIT).round() as u64
}

/// The RNG seed of shard replica or fleet stream `id`: `seed ^ id·φ`, with
/// φ Knuth's multiplicative hash constant. Id 0 keeps `seed` unchanged,
/// which makes shard 0 the centralized selector and a 1-stream fleet the
/// engine's shard 0, bit for bit.
pub(crate) fn derive_seed(seed: u64, id: u64) -> u64 {
    seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Resolve a configured thread/shard count: `0` means "one per core"
/// (`std::thread::available_parallelism`), anything else is taken as is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Recycle-pool size for a work queue of `queue_cap` batches drained by
/// `n_shards` workers.
///
/// Derivation (the pigeonhole no-deadlock argument): a batch can sit in
/// (a) the work queue — at most `queue_cap`; (b) a worker's hands — at
/// most one per worker, `n_shards` in all; (c) the producer's hand — at
/// most 1. With `queue_cap + n_shards + 1` batches in the pool, at least
/// one is therefore always in (or headed to) the recycle channel and the
/// producer's blocking `recv` cannot deadlock. A worker that dies loses
/// at most the one batch in its hands, and takes its hand out of (b) with
/// it, so the argument holds for the workers that are left.
pub fn shard_pool_size(queue_cap: usize, n_shards: usize) -> usize {
    queue_cap + n_shards + 1
}

/// Compress every segment of one batch with the batch's sticky `codec`.
///
/// `outcomes` is cleared and gets one [`ArmOutcome`] per segment, in
/// order, ready for a `report_batch`. Each block goes to `emit` with its
/// segment index while it still borrows `scratch`. A codec error or panic
/// is contained to its segment: the arm gets [`ArmOutcome::Failure`] and
/// the segment is compressed again with [`CodecId::Raw`], so no data is
/// lost. (A panicked compress may leave the arena mid-write; Raw rebuilds
/// its output from scratch.) A segment that even Raw rejects emits
/// nothing. With `outcomes` at capacity and a warm `scratch`, this step
/// does not allocate.
pub(crate) fn compress_batch(
    reg: &CodecRegistry,
    codec: CodecId,
    segs: &[Vec<f64>],
    scratch: &mut CodecScratch,
    outcomes: &mut Vec<ArmOutcome>,
    mut emit: impl FnMut(usize, CompressedBlockRef<'_>),
) {
    outcomes.clear();
    for (i, data) in segs.iter().enumerate() {
        let arena = &mut *scratch;
        let block = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let arena = arena;
            reg.compress_into(codec, data, arena)
        }))
        .ok()
        .and_then(|r| r.ok());
        match block {
            Some(block) => {
                outcomes.push(ArmOutcome::Ratio(block.ratio()));
                emit(i, block);
            }
            None => {
                outcomes.push(ArmOutcome::Failure);
                if let Ok(block) = reg.compress_into(CodecId::Raw, data, scratch) {
                    emit(i, block);
                }
            }
        }
    }
}

/// A batch of segment buffers on its way through the work queue.
pub(crate) struct ShardBatch<T> {
    /// What the worker needs besides the data: `()` for the engine; the
    /// stream itself and the ingest sequence for the fleet.
    pub(crate) tag: T,
    /// The segments.
    pub(crate) segs: Vec<Vec<f64>>,
}

/// The queue pair every multithreaded pipeline runs on: one bounded work
/// queue that every worker receives from, and one recycle pool of segment
/// buffers that every worker returns to.
///
/// The queue holds `buffer_segments` segments in K-batches, with a floor
/// of two batches per worker so a worker can drain one batch while the
/// producer fills the next (a single-slot queue serializes the two
/// stages). The pool holds [`shard_pool_size`] batches. The channels live
/// only for one [`ShardQueues::run`].
pub(crate) struct ShardQueues {
    n_shards: usize,
    k: usize,
    segment_len: usize,
    queue_cap: usize,
}

impl ShardQueues {
    /// Size a queue pair: `threads` workers (`0` = one per core, see
    /// [`resolve_threads`]), `buffer_segments` of in-flight buffer,
    /// `k` segments per batch of `segment_len` points.
    pub(crate) fn new(
        threads: usize,
        buffer_segments: usize,
        k: usize,
        segment_len: usize,
    ) -> Self {
        let n_shards = resolve_threads(threads);
        let k = k.max(1);
        Self {
            n_shards,
            k,
            segment_len,
            queue_cap: buffer_segments.max(1).div_ceil(k).max(2 * n_shards),
        }
    }

    /// Number of shards (= worker threads).
    pub(crate) fn shards(&self) -> usize {
        self.n_shards
    }

    /// Batches in the recycle pool: an upper bound on the batches a run
    /// can have in flight at once.
    pub(crate) fn pool_batches(&self) -> usize {
        shard_pool_size(self.queue_cap, self.n_shards)
    }

    /// Run one pipeline: spawn a worker thread per shard running `worker`,
    /// drive `producer` on the calling thread, then close the work queue
    /// and join every worker. Returns each worker's result in shard order.
    /// Every worker is joined before the outcome is decided, so one that
    /// panicked yields `Err(AdaEdgeError::WorkerFailed)` rather than an
    /// unjoined panic.
    pub(crate) fn run<T, R, W, P>(&self, worker: W, producer: P) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        W: Fn(&ShardWorker<T>) -> R + Sync,
        P: FnOnce(&ShardProducer<T>),
    {
        let pool = self.pool_batches();
        let (work_tx, work_rx) = channel::bounded(self.queue_cap);
        let (recycle_tx, recycle_rx) = channel::bounded(pool);
        for _ in 0..pool {
            let segs = (0..self.k).map(|_| Vec::with_capacity(self.segment_len));
            recycle_tx
                .try_send(segs.collect())
                .expect("a fresh recycle channel holds its whole pool");
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.n_shards)
                .map(|me| {
                    let state = ShardWorker {
                        me,
                        rx: work_rx.clone(),
                        recycle_tx: recycle_tx.clone(),
                    };
                    let worker = &worker;
                    scope.spawn(move || worker(&state))
                })
                .collect();
            drop((work_rx, recycle_tx));
            // Dropping the producer's end closes the work queue: the
            // workers drain it and their `recv` then returns `None`.
            producer(&ShardProducer {
                work_tx,
                recycle_rx,
                segment_len: self.segment_len,
            });
            let mut results = Vec::with_capacity(self.n_shards);
            let mut lost_worker = false;
            for handle in handles {
                match handle.join() {
                    Ok(r) => results.push(r),
                    Err(_) => lost_worker = true,
                }
            }
            if lost_worker {
                return Err(AdaEdgeError::WorkerFailed {
                    stage: "compression worker",
                });
            }
            Ok(results)
        })
    }
}

/// One worker's end of a [`ShardQueues`] run.
pub(crate) struct ShardWorker<T> {
    me: usize,
    rx: Receiver<ShardBatch<T>>,
    recycle_tx: Sender<Vec<Vec<f64>>>,
}

impl<T> ShardWorker<T> {
    /// This worker's shard.
    pub(crate) fn shard(&self) -> usize {
        self.me
    }

    /// Receive the next batch, blocking while the queue is empty. Returns
    /// `None` once the producer is done and the queue is drained.
    pub(crate) fn recv(&self) -> Option<ShardBatch<T>> {
        self.rx.recv().ok()
    }

    /// Hand a drained batch's buffers back to the pool (a no-op once the
    /// producer is done).
    pub(crate) fn recycle(&self, segs: Vec<Vec<f64>>) {
        let _ = self.recycle_tx.send(segs);
    }
}

/// The producer's end of a [`ShardQueues`] run.
pub(crate) struct ShardProducer<T> {
    work_tx: Sender<ShardBatch<T>>,
    recycle_rx: Receiver<Vec<Vec<f64>>>,
    segment_len: usize,
}

impl<T> ShardProducer<T> {
    /// Take recycled buffers, blocking while the pool is drained (the pool
    /// bound guarantees a batch comes back), and fill `take` of them from
    /// `source`. The buffers are truncated on a final partial batch and
    /// regrown after one, so the pool never sheds buffers. Returns `None`
    /// once the workers are gone.
    pub(crate) fn acquire(
        &self,
        take: usize,
        source: &mut dyn SegmentSource,
    ) -> Option<Vec<Vec<f64>>> {
        let mut segs = self.recycle_rx.recv().ok()?;
        segs.truncate(take);
        segs.resize_with(take, || Vec::with_capacity(self.segment_len));
        for seg in segs.iter_mut() {
            source.next_segment_into(seg);
        }
        Some(segs)
    }

    /// Enqueue a batch of `segs` tagged `tag`. A full queue blocks until
    /// there is room, and the batch's segments count as spilled. Returns
    /// the spilled segments (0 when the queue had room), or `None` once
    /// the workers are gone.
    pub(crate) fn enqueue(&self, tag: T, segs: Vec<Vec<f64>>) -> Option<usize> {
        match self.work_tx.try_send(ShardBatch { tag, segs }) {
            Ok(()) => Some(0),
            Err(TrySendError::Full(batch)) => {
                let len = batch.segs.len();
                self.work_tx.send(batch).ok()?;
                Some(len)
            }
            Err(TrySendError::Disconnected(_)) => None,
        }
    }
}

/// One arm's shared accumulators.
#[derive(Debug, Default)]
struct ArmCell {
    /// Successful pulls published for this arm, across all shards.
    pulls: AtomicU64,
    /// Fixed-point reward sum ([`REWARD_UNIT`] units) for those pulls.
    reward_units: AtomicU64,
    /// Cumulative contained failures (codec errors / caught panics).
    failures: AtomicU64,
}

/// The shared, mutex-free outcome table replicas publish to and fold from.
///
/// Every field is an atomic counter: the segment hot path touches it only
/// through `fetch_add` / `fetch_or`, never a lock.
#[derive(Debug)]
pub struct SharedOutcomeTable {
    arms: Vec<ArmCell>,
    /// Quarantine verdict bitmask (bit `i` = arm `i`); `fetch_or` to set.
    quarantined_bits: AtomicU64,
    /// Delta-sync folds performed across all replicas.
    syncs: AtomicU64,
}

impl SharedOutcomeTable {
    /// Create a table for `n_arms` arms (at most 64, for the quarantine
    /// bitmask — the codec roster is an order of magnitude smaller).
    pub fn new(n_arms: usize) -> Self {
        assert!(n_arms <= 64, "quarantine bitmask holds at most 64 arms");
        Self {
            arms: (0..n_arms).map(|_| ArmCell::default()).collect(),
            quarantined_bits: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// Number of arms tracked.
    pub fn n_arms(&self) -> usize {
        self.arms.len()
    }

    /// Publish a batch's outcome delta for `arm`: `pulls` successful
    /// compressions totalling `reward_units` fixed-point reward.
    ///
    /// The reward sum is added *before* the pull count with a `Release`
    /// increment, so a reader that observes the pulls (`Acquire`) is
    /// guaranteed to observe at least the matching reward units; any
    /// excess units from a concurrently publishing shard are clamped at
    /// fold time and picked up by the next sync.
    fn publish(&self, arm: usize, pulls: u64, reward_units: u64) {
        if pulls == 0 {
            return;
        }
        self.arms[arm]
            .reward_units
            .fetch_add(reward_units, Ordering::Relaxed);
        self.arms[arm].pulls.fetch_add(pulls, Ordering::Release);
    }

    /// Record one contained failure for `arm`.
    fn record_failure(&self, arm: usize) {
        self.arms[arm].failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish a quarantine verdict for `arm`.
    fn quarantine(&self, arm: usize) {
        self.quarantined_bits
            .fetch_or(1u64 << arm, Ordering::Release);
    }

    /// Current quarantine bitmask.
    pub fn quarantine_bits(&self) -> u64 {
        self.quarantined_bits.load(Ordering::Acquire)
    }

    /// Globally quarantined arms, mapped through the engine's arm roster.
    pub fn quarantined_arms(&self, roster: &[CodecId]) -> Vec<CodecId> {
        let bits = self.quarantine_bits();
        roster
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (bits & (1u64 << i) != 0).then_some(c))
            .collect()
    }

    /// Total contained failures across all arms and shards.
    pub fn failure_total(&self) -> u64 {
        self.arms
            .iter()
            .map(|c| c.failures.load(Ordering::Relaxed))
            .sum()
    }

    /// Delta-sync folds performed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

/// A shard-local selector replica: a full [`LosslessSelector`] plus the
/// delta-sync bookkeeping that keeps it coherent with the other shards.
///
/// All decision-making ([`Self::select_arm`]) and reward accounting
/// ([`Self::report_batch`]) run on the owning shard's thread with no
/// locking; the only cross-shard traffic is `fetch_add` publication and
/// the periodic fold.
pub struct ReplicaSelector<'t> {
    inner: LosslessSelector,
    table: &'t SharedOutcomeTable,
    sync_interval: usize,
    decisions_since_sync: usize,
    /// Per-arm table reward units already reflected in `inner`. The
    /// matching pull counts need no copy: every policy counts one pull per
    /// `update` and `pulls` per `fold`, and a replica never restores, so
    /// the local policy's [`LosslessSelector::pulls`] are exactly the
    /// global pulls reflected so far (own published plus folded foreign).
    accounted_units: Vec<u64>,
}

impl std::fmt::Debug for ReplicaSelector<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSelector")
            .field("inner", &self.inner)
            .field("sync_interval", &self.sync_interval)
            .finish()
    }
}

impl<'t> ReplicaSelector<'t> {
    /// Create the replica for `shard_id`.
    ///
    /// Shard 0 keeps the configured RNG seed unchanged — with a single
    /// shard the replica reproduces the centralized selector bit for bit.
    /// Other shards decorrelate their exploration streams by folding the
    /// shard id into the seed (identical streams would explore the same
    /// arms in lock-step, wasting the fleet's exploration budget).
    pub fn new(
        arms: Vec<CodecId>,
        config: SelectorConfig,
        shard_id: usize,
        table: &'t SharedOutcomeTable,
        sync_interval: usize,
    ) -> Self {
        assert_eq!(arms.len(), table.n_arms(), "table/roster arm mismatch");
        let mut config = config;
        config.seed = derive_seed(config.seed, shard_id as u64);
        let n = arms.len();
        Self {
            inner: LosslessSelector::new(arms, config),
            table,
            sync_interval: sync_interval.max(1),
            decisions_since_sync: 0,
            accounted_units: vec![0; n],
        }
    }

    /// The configured decisions-per-fold interval.
    pub fn sync_interval(&self) -> usize {
        self.sync_interval
    }

    /// The local selector state (estimates, pulls, quarantine — for
    /// reports and the equivalence tests).
    pub fn local(&self) -> &LosslessSelector {
        &self.inner
    }

    /// Pick an arm from the local replica. Lock-free: no shared state is
    /// touched at all.
    pub fn select_arm(&mut self) -> (usize, CodecId) {
        self.inner.select_arm()
    }

    /// Report one batch of outcomes for `arm`: apply them to the local
    /// replica with exactly the centralized arithmetic, publish the delta
    /// to the shared table (two `fetch_add`s per batch plus one per
    /// failure), and fold foreign deltas if the sync interval elapsed.
    ///
    /// Counts as **one decision** toward the sync interval, matching the
    /// one `select_arm` call that produced the batch.
    pub fn report_batch(&mut self, arm: usize, outcomes: &[ArmOutcome]) {
        let mut batch_pulls = 0u64;
        let mut batch_units = 0u64;
        for &outcome in outcomes {
            match outcome {
                ArmOutcome::Ratio(ratio) => {
                    let reward = self.inner.report_ratio(arm, ratio);
                    batch_pulls += 1;
                    batch_units += to_units(reward);
                }
                ArmOutcome::Failure => {
                    let was = self.inner.is_quarantined(arm);
                    let now = self.inner.record_failure(arm);
                    self.table.record_failure(arm);
                    if now && !was {
                        self.table.quarantine(arm);
                    }
                }
            }
        }
        self.accounted_units[arm] += batch_units;
        self.table.publish(arm, batch_pulls, batch_units);
        self.decisions_since_sync += 1;
        if self.decisions_since_sync >= self.sync_interval {
            self.sync();
        }
    }

    /// Fold all foreign deltas (outcomes other shards published since the
    /// last sync) into the local replica, and impose any quarantine
    /// verdicts from the table. Allocation-free; O(arms).
    pub fn sync(&mut self) {
        self.decisions_since_sync = 0;
        for arm in 0..self.accounted_units.len() {
            let g_pulls = self.table.arms[arm].pulls.load(Ordering::Acquire);
            let g_units = self.table.arms[arm].reward_units.load(Ordering::Relaxed);
            let dp = g_pulls - self.inner.pulls()[arm];
            if dp == 0 {
                continue;
            }
            // Clamp the unit delta to `dp` whole rewards: a concurrently
            // publishing shard may have its reward units visible before
            // the matching pull count (units are added first). The excess
            // stays unaccounted and is folded by the next sync, once its
            // pull is visible too.
            let du = g_units.saturating_sub(self.accounted_units[arm]);
            let cap = ((dp as u128) << 32).min(u64::MAX as u128) as u64;
            let du = du.min(cap);
            self.inner.fold_foreign(arm, dp, du as f64 / REWARD_UNIT);
            self.accounted_units[arm] += du;
        }
        let bits = self.table.quarantine_bits();
        if bits != 0 {
            for arm in 0..self.accounted_units.len() {
                if bits & (1u64 << arm) != 0 {
                    self.inner.quarantine_arm(arm);
                }
            }
        }
        self.table.syncs.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_codecs::CodecRegistry;
    use std::time::Duration;

    fn arms() -> Vec<CodecId> {
        CodecRegistry::lossless_candidates()
    }

    fn config(seed: u64) -> SelectorConfig {
        SelectorConfig {
            epsilon: 0.1,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn single_shard_replica_is_bit_identical_to_centralized() {
        let table = SharedOutcomeTable::new(arms().len());
        let mut replica = ReplicaSelector::new(arms(), config(9), 0, &table, 1);
        let mut central = LosslessSelector::new(arms(), config(9));
        for step in 0..200u64 {
            let (arm_r, codec_r) = replica.select_arm();
            let (arm_c, codec_c) = central.select_arm();
            assert_eq!((arm_r, codec_r), (arm_c, codec_c), "step {step}");
            let outcomes = [
                ArmOutcome::Ratio((step % 7) as f64 / 10.0),
                ArmOutcome::Ratio((step % 3) as f64 / 5.0),
            ];
            replica.report_batch(arm_r, &outcomes);
            central.report_batch(arm_c, &outcomes);
        }
        // No foreign deltas exist, so the fold must not have perturbed
        // anything: estimates are bit-identical, not merely close.
        assert_eq!(replica.local().estimates(), central.estimates());
        assert_eq!(replica.local().pulls(), central.pulls());
        assert!(table.syncs() >= 200);
    }

    #[test]
    fn quarantine_propagates_between_replicas_at_sync() {
        let table = SharedOutcomeTable::new(arms().len());
        let mut a = ReplicaSelector::new(arms(), config(1), 0, &table, 1);
        let mut b = ReplicaSelector::new(arms(), config(1), 1, &table, 1);
        let victim = 2usize;
        // Shard A burns out the arm locally.
        a.report_batch(
            victim,
            &[
                ArmOutcome::Failure,
                ArmOutcome::Failure,
                ArmOutcome::Failure,
            ],
        );
        assert!(a.local().is_quarantined(victim));
        assert_ne!(table.quarantine_bits() & (1 << victim), 0);
        // Shard B has seen no failures of its own, but its next sync
        // imposes the verdict.
        assert!(!b.local().is_quarantined(victim));
        b.report_batch(0, &[ArmOutcome::Ratio(0.5)]);
        assert!(b.local().is_quarantined(victim));
        // B's failure streak for the victim stays untouched (shard-local).
        assert_eq!(table.failure_total(), 3);
    }

    #[test]
    fn foreign_folds_converge_to_global_posterior() {
        let roster = arms();
        let table = SharedOutcomeTable::new(roster.len());
        let mut a = ReplicaSelector::new(roster.clone(), config(5), 0, &table, 1);
        let mut b = ReplicaSelector::new(roster.clone(), config(5), 1, &table, 1);
        // Interleave prescribed outcomes across both replicas, then
        // compare against one centralized selector fed the same stream.
        let mut central = LosslessSelector::new(roster, config(5));
        let script: Vec<(usize, f64)> = (0..300)
            .map(|i| (i % 4, ((i * 37) % 100) as f64 / 100.0))
            .collect();
        for (i, &(arm, ratio)) in script.iter().enumerate() {
            let outcome = [ArmOutcome::Ratio(ratio)];
            if i % 2 == 0 {
                a.report_batch(arm, &outcome);
            } else {
                b.report_batch(arm, &outcome);
            }
            central.report_batch(arm, &outcome);
        }
        a.sync();
        b.sync();
        // Sample-average folds are exact up to the table's fixed-point
        // quantization of foreign contributions.
        for arm in 0..central.arms().len() {
            assert_eq!(a.local().pulls()[arm], central.pulls()[arm]);
            assert_eq!(b.local().pulls()[arm], central.pulls()[arm]);
            assert!(
                (a.local().estimates()[arm] - central.estimates()[arm]).abs() < 1e-6,
                "arm {arm}: {} vs {}",
                a.local().estimates()[arm],
                central.estimates()[arm]
            );
            assert!((b.local().estimates()[arm] - central.estimates()[arm]).abs() < 1e-6);
        }
    }

    #[test]
    fn resolve_threads_zero_means_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(0), cores);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn pool_bound_counts_every_workers_hand() {
        // With S workers draining one queue, each can hold a batch at
        // once, so the pool must exceed the one-worker bound
        // (queue_cap + 1 worker + 1 producer) by S − 1.
        assert_eq!(shard_pool_size(1, 4), 6);
        assert_eq!(shard_pool_size(8, 1), 10);
        for s in 1..=8 {
            assert!(shard_pool_size(2, s) > 2 + 1 + 1 || s == 1);
        }
    }

    #[test]
    fn queue_and_pool_sizes() {
        // One worker: `buffer_segments` in K-batches, floored at 2.
        let one = ShardQueues::new(1, 64, 8, 16);
        assert_eq!((one.queue_cap, one.pool_batches()), (8, 10));
        let one = ShardQueues::new(1, 1, 2, 16);
        assert_eq!((one.queue_cap, one.pool_batches()), (2, 4));
        // Several workers share the queue, floored at 2 batches each.
        let four = ShardQueues::new(4, 64, 8, 16);
        assert_eq!((four.queue_cap, four.pool_batches()), (8, 13));
        let four = ShardQueues::new(4, 1, 2, 16);
        assert_eq!((four.queue_cap, four.pool_batches()), (8, 13));
    }

    /// What a two-worker run with dying workers left behind: whether it
    /// failed with `WorkerFailed`, the batches the producer got into the
    /// queue, and the tags of the batches a surviving worker drained.
    struct DeadWorkerRun {
        worker_failed: bool,
        enqueued: usize,
        drained: Vec<usize>,
    }

    /// Run two workers over up to `max_batches` one-segment batches tagged
    /// by their index: worker 0 dies on its first batch, and worker 1 dies
    /// too if `both_die`, else drains the queue once worker 0 holds its
    /// batch. The producer stops early when `acquire` or `enqueue` returns
    /// `None`. Runs on a watchdog thread, so a hang fails the test.
    fn run_with_dead_workers(max_batches: usize, both_die: bool) -> DeadWorkerRun {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut source = adaedge_datasets::SineStream::new(64, 0.1, 4, 7);
            let queues = ShardQueues::new(2, 4, 1, source.segment_len());
            let took_first = std::sync::Barrier::new(2);
            let drained = std::sync::Mutex::new(Vec::new());
            let mut enqueued = 0;
            let result = queues.run(
                |worker: &ShardWorker<usize>| {
                    if worker.shard() == 1 && !both_die {
                        took_first.wait();
                        while let Some(batch) = worker.recv() {
                            drained.lock().unwrap().push(batch.tag);
                            worker.recycle(batch.segs);
                        }
                        return;
                    }
                    let batch = worker.recv();
                    if worker.shard() == 0 && !both_die {
                        took_first.wait();
                    }
                    panic!(
                        "worker {} dies holding {:?}",
                        worker.shard(),
                        batch.map(|b| b.tag)
                    );
                },
                |producer| {
                    while enqueued < max_batches {
                        let Some(segs) = producer.acquire(1, &mut source) else {
                            break;
                        };
                        if producer.enqueue(enqueued, segs).is_none() {
                            break;
                        }
                        enqueued += 1;
                    }
                },
            );
            let _ = tx.send(DeadWorkerRun {
                worker_failed: matches!(result, Err(AdaEdgeError::WorkerFailed { .. })),
                enqueued,
                drained: drained.into_inner().unwrap(),
            });
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("ShardQueues::run hung with a dead worker")
    }

    #[test]
    fn a_dead_worker_fails_the_run_and_the_survivor_drains_the_rest() {
        // More batches than the pool holds: the lost batch's buffers never
        // come back, and the pool bound still keeps the producer going.
        let n = 40;
        let run = run_with_dead_workers(n, false);
        assert!(run.worker_failed);
        assert_eq!(run.enqueued, n);
        // Worker 0 took batch 0 before worker 1 started receiving.
        assert_eq!(run.drained, (1..n).collect::<Vec<_>>());
    }

    #[test]
    fn two_dead_workers_stop_the_producer_and_fail_the_run() {
        let run = run_with_dead_workers(usize::MAX, true);
        assert!(run.worker_failed);
        // Each worker took one batch before it died; the producer then
        // stopped on a `None` instead of enqueuing forever.
        assert!(run.enqueued >= 2, "{}", run.enqueued);
        assert!(run.drained.is_empty());
    }

    fn sine_segments(n: usize) -> Vec<Vec<f64>> {
        let mut source = adaedge_datasets::SineStream::new(256, 0.1, 4, 7);
        (0..n).map(|_| source.next_segment()).collect()
    }

    #[test]
    fn compress_batch_on_healthy_arm_emits_chosen_codec() {
        let reg = CodecRegistry::new(4);
        let segs = sine_segments(4);
        let mut scratch = CodecScratch::new();
        let mut outcomes = vec![ArmOutcome::Failure; 9]; // stale: must be cleared
        let mut emitted = Vec::new();
        compress_batch(
            &reg,
            CodecId::Gorilla,
            &segs,
            &mut scratch,
            &mut outcomes,
            |i, b| emitted.push((i, b.codec)),
        );
        let want: Vec<_> = (0..4).map(|i| (i, CodecId::Gorilla)).collect();
        assert_eq!(emitted, want);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| matches!(o, ArmOutcome::Ratio(_))));
    }

    #[test]
    fn compress_batch_contains_codec_panics_and_falls_back_to_raw() {
        let mut reg = CodecRegistry::new(4);
        reg.inject_compress_panic(CodecId::Gzip);
        let segs = sine_segments(3);
        let mut scratch = CodecScratch::new();
        let mut outcomes = Vec::new();
        let mut emitted = Vec::new();
        compress_batch(
            &reg,
            CodecId::Gzip,
            &segs,
            &mut scratch,
            &mut outcomes,
            |i, b| emitted.push((i, b.to_block())),
        );
        assert_eq!(outcomes, vec![ArmOutcome::Failure; 3]);
        assert_eq!(emitted.len(), 3);
        for ((i, block), seg) in emitted.iter().zip(&segs) {
            assert_eq!(block.codec, CodecId::Raw, "segment {i}");
            assert_eq!(&reg.decompress(block).unwrap(), seg, "segment {i}");
        }
        // The arena the panics unwound through still serves a healthy arm.
        let mut blocks = Vec::new();
        compress_batch(
            &reg,
            CodecId::Gorilla,
            &segs,
            &mut scratch,
            &mut outcomes,
            |_, b| blocks.push(b.to_block()),
        );
        assert!(outcomes.iter().all(|o| matches!(o, ArmOutcome::Ratio(_))));
        for (block, seg) in blocks.iter().zip(&segs) {
            assert_eq!(block.codec, CodecId::Gorilla);
            assert_eq!(&reg.decompress(block).unwrap(), seg);
        }
    }

    #[test]
    fn reward_quantization_error_is_negligible() {
        for &r in &[0.0, 1e-9, 0.123456789, 0.5, 0.999999999, 1.0] {
            let units = to_units(r);
            assert!((units as f64 / REWARD_UNIT - r).abs() < 1e-9, "{r}");
        }
    }
}
