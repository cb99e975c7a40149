//! The multi-tenant fleet engine: thousands of independent streams
//! multiplexed over one shared set of sharded compression workers.
//!
//! The single-stream engine ([`crate::engine`]) is the per-device story:
//! one signal, one selector, S pipeline shards. A *gateway* aggregating an
//! edge fleet inverts the cardinality — 10k low-rate streams, each needing
//! its **own** bandit posterior (codecs that win on one sensor's signal
//! lose on another's), sharing a worker pool sized to the hardware, not to
//! the tenant count. This module provides that layer:
//!
//! * **Single-owner stream state.** Each admitted stream is one boxed
//!   value: id, priority, its own [`crate::selector::LosslessSelector`]
//!   and its counters. It lives either in its producer-side driver or in
//!   the tag of its one in-flight batch. A worker selects, compresses and
//!   reports on the stream it was handed, with no lock, and sends it back
//!   with the batch's completion.
//! * **One shard runtime.** Batches travel the same per-shard queues,
//!   recycle pools and parked-wake work stealing as the engines'
//!   (`shard::ShardQueues`), and every segment goes through the engines'
//!   contained compress step (`shard::compress_batch`). What the fleet
//!   adds is the per-stream decision and what it emits.
//! * **Fair, work-conserving scheduling.** The producer round-robins
//!   ready streams into the shard queues: a stream dispatches one batch
//!   per turn and rejoins the back of its home queue when that batch
//!   completes, so a hot stream cannot starve others; a stream with
//!   nothing to send sits in no queue and costs zero cycles; an idle
//!   shard steals batches from busy ones.
//! * **Per-stream ordering.** A stream's state travels inside its batch,
//!   so it has at most one batch in flight and its select→report pairs
//!   never interleave — its posterior after a multi-stream run is
//!   *identical* to a solo run over the same segments (the
//!   fleet-equivalence suite pins this, and a 1-stream fleet is
//!   bit-identical to the single-stream engine).
//! * **Bounded residency with evict/restore.** At most
//!   [`FleetConfig::max_resident_streams`] streams are resident; finished
//!   streams are evicted, their posterior archived (optionally persisted
//!   via [`adaedge_storage::posterior`], CRC-framed) and restored
//!   bit-exactly if the stream returns ([`adaedge_bandit::Policy::restore`]).
//! * **Priority-aware egress.** Workers emit compressed-segment
//!   descriptors to a dedicated egress stage that packs them into bounded
//!   transport frames in priority-then-deadline order
//!   ([`crate::frame::FramePacker`]), with per-stream byte accounting in
//!   the final report.

use crate::error::{AdaEdgeError, Result};
use crate::frame::{FrameConfig, FrameItem, FramePacker, Priority, StreamEgress};
use crate::selector::{check_lossless_arms, ArmOutcome, LosslessSelector, SelectorConfig};
use crate::shard::{compress_batch, ShardQueues, ShardWorker};
use crate::uplink::{LinkPressure, PressureGauge};
use adaedge_bandit::EpsilonGreedy;
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_datasets::SegmentSource;
use adaedge_storage::posterior::{load_posteriors, save_posteriors, StreamPosterior};
use crossbeam::channel;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// Knuth's multiplicative hash constant, also used by the shard replicas'
/// seed derivation — stream id 0 leaves the seed unchanged, which is what
/// makes a 1-stream fleet bit-identical to the engine's shard 0.
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Workers hand frame descriptors to the egress stage in chunks of this
/// many items (plus a final partial flush), trading a bounded amount of
/// packing latency for an order of magnitude fewer egress wakeups.
const FRAME_FLUSH_ITEMS: usize = 128;

/// One tenant stream to run through the fleet.
pub struct StreamSpec {
    /// Stable stream identity (selector seed derivation, frame routing,
    /// posterior archive key). Must be unique among *resident* streams;
    /// a spec re-using an evicted stream's id resumes its posterior.
    pub id: u64,
    /// Transmission priority class for frame packing.
    pub priority: Priority,
    /// Segments this spec contributes before the stream is drained and
    /// evicted.
    pub n_segments: usize,
    /// The stream's segment source.
    pub source: Box<dyn SegmentSource>,
}

impl StreamSpec {
    /// Convenience constructor.
    pub fn new(
        id: u64,
        priority: Priority,
        n_segments: usize,
        source: Box<dyn SegmentSource>,
    ) -> Self {
        Self {
            id,
            priority,
            n_segments,
            source,
        }
    }
}

impl std::fmt::Debug for StreamSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSpec")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("n_segments", &self.n_segments)
            .finish()
    }
}

/// Fleet configuration. The engine-shaped fields mean exactly what they
/// mean in [`crate::engine::EngineConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads — one pipeline shard each; `0` = one per core.
    pub n_compression_threads: usize,
    /// Uncompressed-buffer capacity in segments, split across shards.
    pub buffer_segments: usize,
    /// Lossless candidate arms (every stream's selector gets this roster).
    pub lossless_arms: Vec<CodecId>,
    /// MAB hyper-parameters. Each stream derives its RNG seed as
    /// `seed ^ (id · φ)`; stream 0 keeps the seed unchanged.
    pub selector: SelectorConfig,
    /// Dataset decimal precision.
    pub precision: u8,
    /// Segments per scheduling batch (K); one arm decision per batch.
    pub batch_segments: usize,
    /// Residency bound; `0` = unbounded (every spec admitted immediately).
    /// With a bound, further specs wait for an eviction.
    pub max_resident_streams: usize,
    /// Transport-frame packing parameters for the egress stage.
    pub frame: FrameConfig,
    /// Optional posterior archive file: loaded (if present) before the
    /// run so returning streams resume their learned state, and rewritten
    /// with every evicted stream's posterior after it.
    pub posterior_path: Option<std::path::PathBuf>,
    /// Optional link-pressure gauge shared with the uplink transport.
    /// When set, workers read the current [`LinkPressure`] level before
    /// every arm decision and bias selection toward higher-ratio codecs
    /// under congestion
    /// ([`crate::selector::LosslessSelector::select_arm_biased`]). `None`
    /// (the default) keeps arm selection bit-identical to previous
    /// releases.
    pub pressure: Option<PressureGauge>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            n_compression_threads: 1,
            buffer_segments: 64,
            lossless_arms: CodecRegistry::lossless_candidates(),
            selector: SelectorConfig::default(),
            precision: 4,
            batch_segments: 1,
            max_resident_streams: 0,
            frame: FrameConfig::default(),
            posterior_path: None,
            pressure: None,
        }
    }
}

/// A resident stream's state. It has one owner at a time: its driver on
/// the producer while the stream waits for a turn, or the tag of its one
/// in-flight batch while a worker compresses it.
#[derive(Debug)]
struct Stream {
    id: u64,
    priority: Priority,
    selector: LosslessSelector,
    segments: u64,
    bytes_in: u64,
    bytes_out: u64,
    codec_failures: u64,
}

impl Stream {
    /// A fresh stream whose selector is seeded `seed ^ id·φ`.
    fn new(
        id: u64,
        priority: Priority,
        arms: Vec<CodecId>,
        mut config: SelectorConfig,
    ) -> Box<Self> {
        config.seed ^= id.wrapping_mul(HASH_MULT);
        Box::new(Self {
            id,
            priority,
            selector: LosslessSelector::new(arms, config),
            segments: 0,
            bytes_in: 0,
            bytes_out: 0,
            codec_failures: 0,
        })
    }

    /// The evicted stream's final rollup and the posterior to archive.
    fn retire(
        self: Box<Self>,
        arms: &[CodecId],
        restored: bool,
    ) -> (StreamReport, StreamPosterior) {
        let sel = &self.selector;
        let posterior = StreamPosterior {
            stream_id: self.id,
            arms: arms.to_vec(),
            pulls: sel.pulls().to_vec(),
            estimates: sel.estimates().to_vec(),
            failure_totals: sel.failure_totals().to_vec(),
            quarantine_bits: sel.quarantine_bits(),
        };
        let report = StreamReport {
            id: self.id,
            priority: self.priority,
            segments: self.segments,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            codec_failures: self.codec_failures,
            pulls: posterior.pulls.clone(),
            estimates: posterior.estimates.clone(),
            failure_totals: posterior.failure_totals.clone(),
            quarantine_bits: posterior.quarantine_bits,
            restored,
            egress: StreamEgress::default(),
        };
        (report, posterior)
    }
}

/// Resident bytes one admitted stream costs: its `Box<Stream>` (the
/// selector nests inline), the boxed ε-greedy policy, and the per-arm
/// heap vectors. Reported so capacity planning for `max_resident_streams`
/// has a number to multiply.
fn per_stream_state_bytes(n_arms: usize) -> usize {
    std::mem::size_of::<Stream>()
        + std::mem::size_of::<EpsilonGreedy>()
        // q + n (policy), failure totals, consecutive streaks, codec ids,
        // quarantine + mask bools.
        + n_arms * (8 + 8 + 8 + 4 + std::mem::size_of::<CodecId>() + 2)
}

/// A stream's home shard.
fn map_shard(id: u64, n: usize) -> usize {
    ((id.wrapping_mul(HASH_MULT) >> 32) as usize) % n
}

/// One stream's final rollup. Posterior vectors align with
/// [`FleetReport::arms`].
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The stream id.
    pub id: u64,
    /// Its priority class.
    pub priority: Priority,
    /// Segments compressed for this stream.
    pub segments: u64,
    /// Raw bytes in.
    pub bytes_in: u64,
    /// Compressed bytes out.
    pub bytes_out: u64,
    /// Contained codec failures (degraded to Raw).
    pub codec_failures: u64,
    /// Final per-arm pull counts.
    pub pulls: Vec<u64>,
    /// Final per-arm reward estimates.
    pub estimates: Vec<f64>,
    /// Final per-arm cumulative failure totals.
    pub failure_totals: Vec<u64>,
    /// Final quarantine verdicts (bit `i` = arm `i`).
    pub quarantine_bits: u64,
    /// Whether this stream resumed from an archived posterior.
    pub restored: bool,
    /// Transport-frame egress accounting (payload bytes, segments,
    /// fragments shipped).
    pub egress: StreamEgress,
}

/// Egress-stage rollup.
#[derive(Debug, Clone, Copy)]
pub struct FrameSummary {
    /// Frames emitted.
    pub frames: u64,
    /// Total frame bytes (payload + per-fragment overhead).
    pub bytes: u64,
    /// Largest frame emitted — never above `payload_cap` by construction.
    pub max_frame_used: usize,
    /// The configured cap the packer enforced.
    pub payload_cap: usize,
}

/// Aggregate fleet results.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Distinct stream sessions completed (spec count).
    pub streams: u64,
    /// Segments compressed across all streams.
    pub segments: u64,
    /// Data points processed.
    pub points: u64,
    /// Raw bytes in.
    pub bytes_in: u64,
    /// Compressed bytes out.
    pub bytes_out: u64,
    /// Wall-clock runtime.
    pub elapsed_seconds: f64,
    /// Aggregate throughput in segments per second.
    pub segments_per_sec: f64,
    /// Aggregate throughput in points per second.
    pub points_per_sec: f64,
    /// How often each codec was selected, fleet-wide.
    pub codec_counts: HashMap<CodecId, u64>,
    /// Contained codec failures fleet-wide.
    pub codec_failures: u64,
    /// Worker shards the run used.
    pub shards: usize,
    /// Batches a worker took from a foreign shard's queue.
    pub stolen_batches: u64,
    /// Streams evicted (every completed stream is).
    pub evictions: u64,
    /// Streams that resumed from an archived posterior.
    pub restores: u64,
    /// Peak resident streams observed.
    pub peak_resident: usize,
    /// Bytes of per-stream resident state (stream + selector posterior) —
    /// the bounded cost of one admitted stream.
    pub per_stream_state_bytes: usize,
    /// The arm roster every stream's posterior vectors align with.
    pub arms: Vec<CodecId>,
    /// Egress-stage rollup.
    pub frames: FrameSummary,
    /// Batches whose arm decision was taken under elevated or critical
    /// link pressure (pressure-biased selection; see
    /// [`FleetConfig::pressure`]). Zero when no gauge is attached.
    pub degraded_batches: u64,
    /// Per-stream rollups, sorted by id.
    pub stream_reports: Vec<StreamReport>,
}

/// A dispatched batch's tag: the stream's driver slot, the stream itself,
/// and the ingest sequence of the batch's first segment.
type Dispatch = (usize, Box<Stream>, u64);

/// A completed batch, sent back to the producer: the driver slot and the
/// stream.
type Completion = (usize, Box<Stream>);

/// Producer-side driver for one resident stream.
struct StreamDriver {
    /// The stream's state, or `None` while its batch is in flight.
    stream: Option<Box<Stream>>,
    source: Box<dyn SegmentSource>,
    remaining: usize,
    home: usize,
    restored: bool,
}

/// The producer's bookkeeping: admission, the ready queues and eviction.
/// Only the producer thread touches it.
struct Scheduler<'a> {
    config: &'a FleetConfig,
    pending: VecDeque<StreamSpec>,
    /// Ids of the resident streams: the residency bound, and the rule that
    /// a repeated id waits for its previous session's eviction.
    resident: HashSet<u64>,
    drivers: Vec<Option<StreamDriver>>,
    free_slots: Vec<usize>,
    /// Per-shard queues of the driver slots whose stream is home with
    /// segments left.
    ready: Vec<VecDeque<usize>>,
    rr_shard: usize,
    in_flight: usize,
    /// Posteriors of evicted streams, keyed by id; re-admitted ids resume
    /// from here.
    archive: HashMap<u64, StreamPosterior>,
    reports: Vec<StreamReport>,
    restores: u64,
    peak_resident: usize,
}

impl Scheduler<'_> {
    /// Admit waiting specs while there is room. A spec whose id is still
    /// resident rotates behind the others until that session is evicted.
    fn admit(&mut self) {
        let cap = self.config.max_resident_streams;
        let mut skipped = 0;
        while skipped < self.pending.len() && (cap == 0 || self.resident.len() < cap) {
            let spec = self.pending.pop_front().expect("non-empty");
            if !self.resident.insert(spec.id) {
                self.pending.push_back(spec);
                skipped += 1;
                continue;
            }
            self.peak_resident = self.peak_resident.max(self.resident.len());
            let arms = self.config.lossless_arms.clone();
            let mut stream = Stream::new(spec.id, spec.priority, arms, self.config.selector);
            let restored = match self.archive.get(&spec.id) {
                Some(p) => {
                    stream.selector.restore_posterior(
                        &p.pulls,
                        &p.estimates,
                        &p.failure_totals,
                        p.quarantine_bits,
                    );
                    self.restores += 1;
                    true
                }
                None => false,
            };
            let driver = StreamDriver {
                stream: None,
                source: spec.source,
                remaining: spec.n_segments,
                home: map_shard(spec.id, self.ready.len()),
                restored,
            };
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.drivers[s] = Some(driver);
                    s
                }
                None => {
                    self.drivers.push(Some(driver));
                    self.drivers.len() - 1
                }
            };
            self.requeue_or_evict(slot, stream);
        }
    }

    /// Hand a stream back to its driver: to the back of its home ready
    /// queue while it has segments left, else evicted and archived.
    /// Returns whether it was evicted.
    fn requeue_or_evict(&mut self, slot: usize, stream: Box<Stream>) -> bool {
        let d = self.drivers[slot].as_mut().expect("live slot");
        if d.remaining > 0 {
            d.stream = Some(stream);
            self.ready[d.home].push_back(slot);
            return false;
        }
        let restored = d.restored;
        self.drivers[slot] = None;
        self.free_slots.push(slot);
        self.resident.remove(&stream.id);
        let (report, posterior) = stream.retire(&self.config.lossless_arms, restored);
        self.archive.insert(posterior.stream_id, posterior);
        self.reports.push(report);
        true
    }

    /// Take back a completed batch's stream, admitting waiting specs if
    /// that evicted it.
    fn complete(&mut self, (slot, stream): Completion) {
        self.in_flight -= 1;
        if self.requeue_or_evict(slot, stream) {
            self.admit();
        }
    }

    /// The next ready stream's slot, round-robin over the shards.
    fn next_ready(&mut self) -> Option<usize> {
        let n = self.ready.len();
        for off in 0..n {
            let sh = (self.rr_shard + off) % n;
            if let Some(slot) = self.ready[sh].pop_front() {
                self.rr_shard = (sh + 1) % n;
                return Some(slot);
            }
        }
        None
    }
}

/// Run every spec through the fleet: admit up to the residency bound,
/// schedule ready streams fairly over the sharded worker pool, evict
/// completed streams (archiving their posterior), admit waiting specs in
/// their place, and pack all compressed output into bounded transport
/// frames. See the module docs for the scheduling and equivalence
/// guarantees. A bad `lossless_arms` roster is a
/// [`AdaEdgeError::Config`] error.
pub fn run_fleet(specs: Vec<StreamSpec>, config: &FleetConfig) -> Result<FleetReport> {
    check_lossless_arms(&config.lossless_arms)?;
    let k = config.batch_segments.max(1);
    let segment_len = specs.first().map_or(0, |s| s.source.segment_len());
    let queues = ShardQueues::new(
        config.n_compression_threads,
        config.buffer_segments,
        k,
        segment_len,
    );
    let n_shards = queues.shards();
    let reg = CodecRegistry::new(config.precision);

    // Posterior archive: optionally seeded from disk in the CRC-framed
    // format, and written back after the run.
    let mut archive: HashMap<u64, StreamPosterior> = HashMap::new();
    if let Some(path) = &config.posterior_path {
        if path.exists() {
            let loaded = load_posteriors(path)
                .map_err(|_| AdaEdgeError::Config("posterior archive unreadable"))?;
            for p in loaded {
                if p.arms != config.lossless_arms {
                    return Err(AdaEdgeError::Config(
                        "posterior archive arm roster mismatch",
                    ));
                }
                archive.insert(p.stream_id, p);
            }
        }
    }

    // Completed batches return their stream here. Bound: the producer
    // drains this channel with `try_recv` at the top of every turn, before
    // any call that can block, and dispatches at most one batch per turn.
    // So the completions that can arrive between two drains are those of
    // the batches unreported at the first — each in a shard's work queue
    // (at most `batch_cap` per shard) or in a worker's hands (at most one
    // per worker) — plus the one batch dispatched in between:
    // `S·batch_cap + S + 1 ≤ S·shard_pool_size`, the total recycle-pool
    // batches. A worker's send therefore never blocks.
    let (done_tx, done_rx) = channel::bounded::<Completion>(queues.pool_batches());
    // Frame descriptors in `FRAME_FLUSH_ITEMS` chunks: two chunks per
    // worker, so a worker can run one chunk ahead of the egress stage. The
    // egress thread only consumes, so a full channel stalls a worker only
    // until egress catches up, never into a deadlock.
    let (frame_tx, frame_rx) = channel::bounded::<Vec<FrameItem>>(2 * n_shards);
    let frame_config = config.frame;

    let start = Instant::now();
    let mut codec_counts: HashMap<CodecId, u64> = HashMap::new();
    let mut degraded_batches = 0u64;
    let mut sched = Scheduler {
        config,
        pending: specs.into_iter().collect(),
        resident: HashSet::new(),
        drivers: Vec::new(),
        free_slots: Vec::new(),
        ready: (0..n_shards).map(|_| VecDeque::new()).collect(),
        rr_shard: 0,
        in_flight: 0,
        archive,
        reports: Vec::new(),
        restores: 0,
        peak_resident: 0,
    };

    let packer = std::thread::scope(|scope| -> Result<FramePacker> {
        // Egress stage: packs every compressed-segment descriptor into
        // bounded frames in priority-then-deadline order. Emits full
        // frames as soon as enough data is buffered and flushes the
        // partial tail when the workers disconnect.
        let egress = scope.spawn(move || {
            let mut packer = FramePacker::new(frame_config);
            while let Ok(items) = frame_rx.recv() {
                for item in items {
                    packer.push(item);
                }
                while packer.frame_ready() && packer.next_frame().is_some() {}
            }
            packer.flush();
            packer
        });

        let reg = &reg;
        // Owns `frame_tx`: the egress stage sees the end of input once the
        // run is over and this closure is dropped.
        let compress = move |worker: &mut ShardWorker<'_, Dispatch>| {
            let mut scratch = CodecScratch::new();
            let mut counts: HashMap<CodecId, u64> = HashMap::new();
            let mut degraded = 0u64;
            let mut outcomes = Vec::with_capacity(k);
            // Frame descriptors are flushed to the egress stage in chunks,
            // not per batch: a per-batch send wakes the parked egress
            // thread every few microseconds of work, and on a single core
            // that wakeup pair costs more than the batch.
            let mut items: Vec<FrameItem> = Vec::with_capacity(FRAME_FLUSH_ITEMS);
            while let Some(batch) = worker.recv() {
                let (slot, mut stream, base_seq) = batch.tag;
                let segs = batch.segs;
                let (id, priority) = (stream.id, stream.priority);
                // One decision per batch, arm sticky. Under link pressure
                // the decision is biased toward higher-ratio arms; the
                // Nominal path is bit-identical to plain select_arm.
                let level = config
                    .pressure
                    .as_ref()
                    .map_or(LinkPressure::Nominal, |g| g.level());
                if level != LinkPressure::Nominal {
                    degraded += 1;
                }
                let (arm, codec) = stream.selector.select_arm_biased(level);
                let mut bytes_out = 0u64;
                compress_batch(reg, codec, &segs, &mut scratch, &mut outcomes, |i, b| {
                    *counts.entry(b.codec).or_insert(0) += 1;
                    bytes_out += b.compressed_bytes() as u64;
                    items.push(FrameItem {
                        stream: id,
                        priority,
                        seq: base_seq + i as u64,
                        len: b.compressed_bytes(),
                    });
                });
                stream.selector.report_batch(arm, &outcomes);
                let points: usize = segs.iter().map(Vec::len).sum();
                stream.segments += segs.len() as u64;
                stream.bytes_in += points as u64 * 8;
                stream.bytes_out += bytes_out;
                stream.codec_failures += outcomes
                    .iter()
                    .filter(|&&o| o == ArmOutcome::Failure)
                    .count() as u64;
                // Never blocks, by the channel's bound.
                done_tx
                    .send((slot, stream))
                    .expect("the completion receiver outlives the workers");
                worker.recycle(batch.home, segs);
                if items.len() >= FRAME_FLUSH_ITEMS {
                    let chunk =
                        std::mem::replace(&mut items, Vec::with_capacity(FRAME_FLUSH_ITEMS));
                    let _ = frame_tx.send(chunk);
                }
            }
            if !items.is_empty() {
                let _ = frame_tx.send(items);
            }
            (counts, degraded)
        };

        // ---- Producer: admission, fair scheduling, eviction. ----
        let sched = &mut sched;
        let workers = queues.run(compress, |producer| {
            sched.admit();
            let mut seq = 0u64;
            loop {
                while let Ok(done) = done_rx.try_recv() {
                    sched.complete(done);
                }
                let Some(slot) = sched.next_ready() else {
                    // Every resident stream is in flight; with none in
                    // flight, nothing is resident or waiting.
                    if sched.in_flight == 0 {
                        break;
                    }
                    let done = done_rx.recv().expect("the workers hold a sender");
                    sched.complete(done);
                    continue;
                };
                // Acquire buffers, preferring the stream's home pool.
                let d = sched.drivers[slot].as_mut().expect("ready slot live");
                let take = k.min(d.remaining);
                let Some((bhome, segs)) = producer.acquire(d.home, take, d.source.as_mut()) else {
                    break;
                };
                d.remaining -= take;
                let stream = d.stream.take().expect("a ready stream is home");
                sched.in_flight += 1;
                let tag = (slot, stream, seq);
                seq += take as u64;
                if producer.enqueue(bhome, tag, segs).is_none() {
                    break;
                }
            }
        });
        let packer = egress.join();
        for (counts, degraded) in workers? {
            for (codec, count) in counts {
                *codec_counts.entry(codec).or_insert(0) += count;
            }
            degraded_batches += degraded;
        }
        packer.map_err(|_| AdaEdgeError::WorkerFailed {
            stage: "frame egress",
        })
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let Scheduler {
        archive,
        reports: mut stream_reports,
        restores,
        peak_resident,
        ..
    } = sched;

    if let Some(path) = &config.posterior_path {
        let mut all: Vec<&StreamPosterior> = archive.values().collect();
        all.sort_by_key(|p| p.stream_id);
        save_posteriors(path, all.into_iter())
            .map_err(|_| AdaEdgeError::Config("posterior archive unwritable"))?;
    }

    stream_reports.sort_by_key(|r| r.id);
    for r in stream_reports.iter_mut() {
        if let Some(e) = packer.stream_egress().get(&r.id) {
            r.egress = *e;
        }
    }
    let completed = stream_reports.len() as u64;
    let segments: u64 = stream_reports.iter().map(|r| r.segments).sum();
    let bytes_in: u64 = stream_reports.iter().map(|r| r.bytes_in).sum();
    let bytes_out: u64 = stream_reports.iter().map(|r| r.bytes_out).sum();
    let codec_failures: u64 = stream_reports.iter().map(|r| r.codec_failures).sum();
    let points = bytes_in / 8;
    Ok(FleetReport {
        streams: completed,
        segments,
        points,
        bytes_in,
        bytes_out,
        elapsed_seconds: elapsed,
        segments_per_sec: segments as f64 / elapsed.max(1e-9),
        points_per_sec: points as f64 / elapsed.max(1e-9),
        codec_counts,
        codec_failures,
        shards: n_shards,
        stolen_batches: queues.stolen_batches(),
        evictions: completed,
        restores,
        peak_resident,
        per_stream_state_bytes: per_stream_state_bytes(config.lossless_arms.len()),
        arms: config.lossless_arms.clone(),
        frames: FrameSummary {
            frames: packer.frames_emitted(),
            bytes: packer.bytes_emitted(),
            max_frame_used: packer.max_frame_used(),
            payload_cap: config.frame.payload_cap,
        },
        degraded_batches,
        stream_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_datasets::SineStream;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Heap bytes live from this thread's allocations (net of frees).
        static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    }

    fn track(delta: isize) {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
    }

    /// Wraps the system allocator and tracks live bytes per thread, so a
    /// test can measure what one construction leaves on the heap while
    /// other tests run on other threads.
    struct PerThreadBytes;

    // SAFETY: every call forwards to `System` with the caller's arguments;
    // the counter is a thread-local `Cell` with a const initializer, so
    // tracking never allocates or re-enters the allocator.
    unsafe impl GlobalAlloc for PerThreadBytes {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            track(layout.size() as isize);
            // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
            // contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            track(-(layout.size() as isize));
            // SAFETY: `ptr` came from this allocator, i.e. from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            track(layout.size() as isize);
            // SAFETY: forwarded unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            track(new_size as isize - layout.size() as isize);
            // SAFETY: forwarded unchanged; `ptr` came from `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: PerThreadBytes = PerThreadBytes;
    #[test]
    fn state_bytes_match_what_admitting_a_stream_allocates() {
        // The formula must equal the heap one admitted stream really
        // holds: the `Box<Stream>` (selector nested inline, counted once)
        // plus the selector's own heap parts.
        let arms = CodecRegistry::lossless_candidates();
        let before = LIVE_BYTES.with(Cell::get);
        let s = Stream::new(1, Priority::Normal, arms.clone(), SelectorConfig::default());
        let held = LIVE_BYTES.with(Cell::get) - before;
        assert_eq!(held as usize, per_stream_state_bytes(arms.len()));
        drop(s);
        assert_eq!(
            LIVE_BYTES.with(Cell::get),
            before,
            "stream frees all it holds"
        );
    }

    #[test]
    fn empty_fleet_returns_zeroed_report() {
        let report = run_fleet(Vec::new(), &FleetConfig::default()).unwrap();
        assert_eq!(report.streams, 0);
        assert_eq!(report.segments, 0);
        assert_eq!(report.frames.frames, 0);
    }

    #[test]
    fn small_fleet_processes_every_stream() {
        let specs: Vec<StreamSpec> = (0..5)
            .map(|id| {
                StreamSpec::new(
                    id,
                    Priority::Normal,
                    6,
                    Box::new(SineStream::new(256, 0.1, 4, id)),
                )
            })
            .collect();
        let config = FleetConfig {
            n_compression_threads: 2,
            batch_segments: 2,
            ..Default::default()
        };
        let report = run_fleet(specs, &config).unwrap();
        assert_eq!(report.streams, 5);
        assert_eq!(report.segments, 30);
        assert_eq!(report.points, 5 * 6 * 256);
        assert_eq!(report.evictions, 5);
        assert_eq!(report.stream_reports.len(), 5);
        for r in &report.stream_reports {
            assert_eq!(r.segments, 6);
            assert!(r.bytes_out > 0);
            assert_eq!(r.egress.segments, 6, "every segment must ship");
        }
        let counted: u64 = report.codec_counts.values().sum();
        assert_eq!(counted, 30);
        assert!(report.frames.frames > 0);
        assert!(report.frames.max_frame_used <= report.frames.payload_cap);
        // Per-stream state is bounded: well under a KiB per arm roster.
        assert!(
            report.per_stream_state_bytes < 4096,
            "{}",
            report.per_stream_state_bytes
        );
    }

    #[test]
    fn bounded_residency_evicts_and_admits() {
        let specs: Vec<StreamSpec> = (0..8)
            .map(|id| {
                StreamSpec::new(
                    id,
                    Priority::Normal,
                    3,
                    Box::new(SineStream::new(128, 0.1, 4, id)),
                )
            })
            .collect();
        let config = FleetConfig {
            n_compression_threads: 1,
            max_resident_streams: 2,
            ..Default::default()
        };
        let report = run_fleet(specs, &config).unwrap();
        assert_eq!(report.streams, 8);
        assert_eq!(report.segments, 24);
        assert!(report.peak_resident <= 2, "{}", report.peak_resident);
        assert_eq!(report.evictions, 8);
    }

    #[test]
    fn readmitted_stream_resumes_posterior() {
        // The same id appears twice: the second session must restore the
        // first's posterior, so its pull counts continue, not restart.
        // Unbounded residency too: a repeated id waits for its previous
        // session's eviction even with no capacity bound.
        for max_resident_streams in [0, 1] {
            let mk = |seed| Box::new(SineStream::new(128, 0.1, 4, seed));
            let specs = vec![
                StreamSpec::new(42, Priority::Normal, 4, mk(1)),
                StreamSpec::new(7, Priority::Normal, 4, mk(2)),
                StreamSpec::new(42, Priority::Normal, 4, mk(3)),
            ];
            let config = FleetConfig {
                max_resident_streams,
                ..Default::default()
            };
            let report = run_fleet(specs, &config).unwrap();
            assert_eq!(report.streams, 3);
            assert_eq!(report.restores, 1);
            let sessions: Vec<_> = report
                .stream_reports
                .iter()
                .filter(|r| r.id == 42)
                .collect();
            assert_eq!(sessions.len(), 2);
            let total_pulls: u64 = sessions.last().unwrap().pulls.iter().sum();
            assert_eq!(
                total_pulls, 8,
                "second session must continue the first's counts (bound {max_resident_streams})"
            );
            assert!(sessions.last().unwrap().restored);
        }
    }

    #[test]
    fn pressure_gauge_degrades_batch_selection() {
        let mk_specs = || -> Vec<StreamSpec> {
            (0..4)
                .map(|id| {
                    StreamSpec::new(
                        id,
                        Priority::Normal,
                        6,
                        Box::new(SineStream::new(128, 0.1, 4, id)),
                    )
                })
                .collect()
        };
        // No gauge: zero degraded batches, the pre-uplink behavior.
        let baseline = run_fleet(mk_specs(), &FleetConfig::default()).unwrap();
        assert_eq!(baseline.degraded_batches, 0);
        // A gauge pinned at Critical: every batch decision is degraded and
        // selection collapses to the deterministic best-ratio argmax.
        let gauge = PressureGauge::new();
        gauge.set(LinkPressure::Critical);
        let config = FleetConfig {
            pressure: Some(gauge),
            ..Default::default()
        };
        let report = run_fleet(mk_specs(), &config).unwrap();
        assert_eq!(report.segments, 24);
        assert_eq!(
            report.degraded_batches, 24,
            "every batch ran under Critical pressure"
        );
        // A gauge at Nominal is bit-identical to no gauge at all.
        let idle_gauge = PressureGauge::new();
        let config = FleetConfig {
            pressure: Some(idle_gauge),
            ..Default::default()
        };
        let nominal = run_fleet(mk_specs(), &config).unwrap();
        assert_eq!(nominal.degraded_batches, 0);
        assert_eq!(nominal.codec_counts, baseline.codec_counts);
        for (a, b) in nominal
            .stream_reports
            .iter()
            .zip(baseline.stream_reports.iter())
        {
            assert_eq!(a.pulls, b.pulls, "stream {}", a.id);
        }
    }
}
