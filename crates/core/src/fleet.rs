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
//!   value: id, priority, its own [`crate::selector::LosslessSelector`],
//!   its segment source, the segments it has left and its counters. It
//!   lives either in the producer's ready queue or in the tag of its one
//!   in-flight batch. A worker selects, compresses and reports on the
//!   stream it was handed, with no lock, and sends it back with the
//!   batch's completion.
//! * **One shard runtime.** Batches travel the same work queue and
//!   recycle pool as the engine's (`shard::ShardQueues`), and every
//!   segment goes through the engine's contained compress step
//!   (`shard::compress_batch`). What the fleet adds is the per-stream
//!   decision and what it emits.
//! * **Fair, work-conserving scheduling.** Ready streams wait in one
//!   queue: a stream dispatches one batch per turn and rejoins the back
//!   of the queue when that batch completes, so a hot stream cannot
//!   starve others; a stream with nothing to send sits in no queue and
//!   costs zero cycles. Whichever worker is free takes the next batch
//!   from the one work queue.
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
//!   The archive is flat: one row per stream id, one column per posterior
//!   field. Admission only books residency; a stream's selector is built,
//!   and restored from its archive row, at its first turn, so that work
//!   overlaps the workers' compression.
//! * **Priority-aware egress.** Workers emit compressed-segment
//!   descriptors to a dedicated egress stage that packs them into bounded
//!   transport frames in priority-then-deadline order
//!   ([`crate::frame::FramePacker`]), with per-stream byte accounting in
//!   the final report.

use crate::error::{AdaEdgeError, Result};
use crate::frame::{FrameConfig, FrameItem, FramePacker, Priority, StreamEgress};
use crate::selector::{check_lossless_arms, ArmOutcome, LosslessSelector, SelectorConfig};
use crate::shard::{compress_batch, derive_seed, ShardQueues, ShardWorker};
use crate::uplink::{LinkPressure, PressureGauge};
use adaedge_bandit::EpsilonGreedy;
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_datasets::SegmentSource;
use adaedge_storage::posterior::{
    PosteriorDecoder, PosteriorEncoder, PosteriorRecord, StreamPosterior,
};
use crossbeam::channel;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::time::Instant;

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
    /// Uncompressed-buffer capacity in segments, as in
    /// [`crate::engine::EngineConfig::buffer_segments`].
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

/// A resident stream. It has one owner at a time: the producer's ready
/// queue while the stream waits for a turn, or the tag of its one
/// in-flight batch while a worker compresses it.
struct Stream {
    id: u64,
    priority: Priority,
    selector: LosslessSelector,
    source: Box<dyn SegmentSource>,
    /// Segments of its spec not yet dispatched.
    remaining: usize,
    /// Whether it resumed from an archived posterior.
    restored: bool,
    segments: u64,
    bytes_in: u64,
    bytes_out: u64,
    codec_failures: u64,
}

impl Stream {
    /// A fresh stream for `spec`, its selector seeded `seed ^ id·φ`.
    fn new(spec: StreamSpec, arms: Vec<CodecId>, mut config: SelectorConfig) -> Box<Self> {
        config.seed = derive_seed(config.seed, spec.id);
        Box::new(Self {
            id: spec.id,
            priority: spec.priority,
            selector: LosslessSelector::new(arms, config),
            source: spec.source,
            remaining: spec.n_segments,
            restored: false,
            segments: 0,
            bytes_in: 0,
            bytes_out: 0,
            codec_failures: 0,
        })
    }

    /// The evicted stream's final rollup.
    fn report(&self) -> StreamReport {
        let sel = &self.selector;
        StreamReport {
            id: self.id,
            priority: self.priority,
            segments: self.segments,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            codec_failures: self.codec_failures,
            pulls: sel.pulls().to_vec(),
            estimates: sel.estimates().to_vec(),
            failure_totals: sel.failure_totals().to_vec(),
            quarantine_bits: sel.quarantine_bits(),
            restored: self.restored,
            egress: StreamEgress::default(),
        }
    }
}

/// Posteriors of evicted streams and of the loaded archive file: one row
/// per stream id, one column per field, per-arm columns `n_arms` wide and
/// aligned with [`FleetConfig::lossless_arms`].
struct Archive {
    n_arms: usize,
    rows: HashMap<u64, usize>,
    ids: Vec<u64>,
    pulls: Vec<u64>,
    estimates: Vec<f64>,
    failure_totals: Vec<u64>,
    quarantine_bits: Vec<u64>,
}

impl Archive {
    fn new(n_arms: usize, capacity: usize) -> Self {
        Self {
            n_arms,
            rows: HashMap::with_capacity(capacity),
            ids: Vec::with_capacity(capacity),
            pulls: Vec::with_capacity(capacity * n_arms),
            estimates: Vec::with_capacity(capacity * n_arms),
            failure_totals: Vec::with_capacity(capacity * n_arms),
            quarantine_bits: Vec::with_capacity(capacity),
        }
    }

    /// Load the archive file at `path`, whose every record must hold the
    /// `arms` roster. The file's bytes are freed before this returns.
    fn load(path: &Path, arms: &[CodecId]) -> Result<Self> {
        fn unreadable<E>(_: E) -> AdaEdgeError {
            AdaEdgeError::Config("posterior archive unreadable")
        }
        let bytes = std::fs::read(path).map_err(unreadable)?;
        let mut dec = PosteriorDecoder::new(&bytes).map_err(unreadable)?;
        let mut archive = Self::new(arms.len(), dec.remaining());
        let mut p = StreamPosterior::default();
        while dec.next_into(&mut p).map_err(unreadable)? {
            if p.arms != arms {
                return Err(AdaEdgeError::Config(
                    "posterior archive arm roster mismatch",
                ));
            }
            archive.store(
                p.stream_id,
                &p.pulls,
                &p.estimates,
                &p.failure_totals,
                p.quarantine_bits,
            );
        }
        Ok(archive)
    }

    /// Overwrite `id`'s row, or append one.
    fn store(
        &mut self,
        id: u64,
        pulls: &[u64],
        estimates: &[f64],
        failure_totals: &[u64],
        quarantine_bits: u64,
    ) {
        match self.rows.entry(id) {
            Entry::Occupied(e) => {
                let row = *e.get();
                let cols = row * self.n_arms..(row + 1) * self.n_arms;
                self.pulls[cols.clone()].copy_from_slice(pulls);
                self.estimates[cols.clone()].copy_from_slice(estimates);
                self.failure_totals[cols].copy_from_slice(failure_totals);
                self.quarantine_bits[row] = quarantine_bits;
            }
            Entry::Vacant(e) => {
                e.insert(self.ids.len());
                self.ids.push(id);
                self.pulls.extend_from_slice(pulls);
                self.estimates.extend_from_slice(estimates);
                self.failure_totals.extend_from_slice(failure_totals);
                self.quarantine_bits.push(quarantine_bits);
            }
        }
    }

    /// Restore `id`'s archived posterior into `sel`; whether it had one.
    fn restore(&self, id: u64, sel: &mut LosslessSelector) -> bool {
        let Some(&row) = self.rows.get(&id) else {
            return false;
        };
        let cols = row * self.n_arms..(row + 1) * self.n_arms;
        sel.restore_posterior(
            &self.pulls[cols.clone()],
            &self.estimates[cols.clone()],
            &self.failure_totals[cols],
            self.quarantine_bits[row],
        );
        true
    }

    /// Write every row to `path` in stream-id order, in one call.
    fn save(&self, path: &Path, arms: &[CodecId]) -> Result<()> {
        let mut order: Vec<usize> = (0..self.ids.len()).collect();
        if !self.ids.is_sorted() {
            order.sort_unstable_by_key(|&row| self.ids[row]);
        }
        let unwritable = |_| AdaEdgeError::Config("posterior archive unwritable");
        let mut enc = PosteriorEncoder::with_capacity(order.len(), arms);
        for row in order {
            let cols = row * self.n_arms..(row + 1) * self.n_arms;
            enc.push(PosteriorRecord {
                stream_id: self.ids[row],
                arms,
                pulls: &self.pulls[cols.clone()],
                estimates: &self.estimates[cols.clone()],
                failure_totals: &self.failure_totals[cols],
                quarantine_bits: self.quarantine_bits[row],
            })
            .map_err(unwritable)?;
        }
        enc.write_to(path).map_err(unwritable)
    }
}

/// Resident bytes one admitted stream costs: its `Box<Stream>` (the
/// selector nests inline), the boxed ε-greedy policy, and the per-arm
/// heap vectors; not its segment source, which the caller sized. Reported
/// so capacity planning for `max_resident_streams` has a number to
/// multiply.
fn per_stream_state_bytes(n_arms: usize) -> usize {
    std::mem::size_of::<Stream>()
        + std::mem::size_of::<EpsilonGreedy>()
        // q + n (policy), failure totals, consecutive streaks, codec ids,
        // mask bools.
        + n_arms * (8 + 8 + 8 + 4 + std::mem::size_of::<CodecId>() + 1)
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
    /// Wall-clock runtime of the run itself: admission, scheduling,
    /// compression and egress. It excludes loading the posterior archive
    /// before the run and writing it back after; a caller that times the
    /// whole `run_fleet` call, as perfbench's `fleet` episode does, sees
    /// those too.
    pub elapsed_seconds: f64,
    /// Aggregate throughput in segments per second, over
    /// [`Self::elapsed_seconds`].
    pub segments_per_sec: f64,
    /// Aggregate throughput in points per second.
    pub points_per_sec: f64,
    /// How often each codec was selected, fleet-wide.
    pub codec_counts: HashMap<CodecId, u64>,
    /// Contained codec failures fleet-wide.
    pub codec_failures: u64,
    /// Worker shards the run used.
    pub shards: usize,
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

/// A dispatched batch's tag: the stream and the ingest sequence of the
/// batch's first segment.
type Dispatch = (Box<Stream>, u64);

/// A batch's completion: its stream back, or `None` from a worker that
/// died outside the contained compress step (see [`DeathNotice`]).
type Completion = Option<Box<Stream>>;

/// Held by every worker: sends a `None` completion if its worker unwinds,
/// so a producer waiting for the stream that worker held wakes up, stops
/// dispatching, and lets the run report the failure.
struct DeathNotice<'a>(&'a channel::Sender<Completion>);

impl Drop for DeathNotice<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(None);
        }
    }
}

/// A resident stream waiting for a turn: admitted and not yet built, or
/// built and back from its last batch.
enum Ready {
    Admitted(StreamSpec),
    Built(Box<Stream>),
}

/// The producer's bookkeeping: admission, the ready queue and eviction.
/// Only the producer thread touches it.
struct Scheduler<'a> {
    config: &'a FleetConfig,
    pending: VecDeque<StreamSpec>,
    /// Ids of the resident streams: the residency bound, and the rule that
    /// a repeated id waits for its previous session's eviction.
    resident: HashSet<u64>,
    /// Resident streams with segments left that wait for a turn, in turn
    /// order.
    ready: VecDeque<Ready>,
    in_flight: usize,
    /// Posteriors of evicted streams; re-admitted ids resume from here.
    archive: Archive,
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
            if spec.n_segments > 0 {
                self.ready.push_back(Ready::Admitted(spec));
            } else {
                // It gets no turn: build and evict it now.
                let stream = self.build(spec);
                self.requeue_or_evict(stream);
            }
        }
    }

    /// An admitted spec's stream, restored from its archive row if it has
    /// one.
    fn build(&mut self, spec: StreamSpec) -> Box<Stream> {
        let arms = self.config.lossless_arms.clone();
        let mut stream = Stream::new(spec, arms, self.config.selector);
        if self.archive.restore(stream.id, &mut stream.selector) {
            stream.restored = true;
            self.restores += 1;
        }
        stream
    }

    /// Put a stream at the back of the ready queue while it has segments
    /// left, else evict and archive it. Returns whether it was evicted.
    fn requeue_or_evict(&mut self, stream: Box<Stream>) -> bool {
        if stream.remaining > 0 {
            self.ready.push_back(Ready::Built(stream));
            return false;
        }
        self.resident.remove(&stream.id);
        let sel = &stream.selector;
        self.archive.store(
            stream.id,
            sel.pulls(),
            sel.estimates(),
            sel.failure_totals(),
            sel.quarantine_bits(),
        );
        self.reports.push(stream.report());
        true
    }

    /// Take back a completed batch's stream, admitting waiting specs if
    /// that evicted it.
    fn complete(&mut self, stream: Box<Stream>) {
        self.in_flight -= 1;
        if self.requeue_or_evict(stream) {
            self.admit();
        }
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
    let arms = &config.lossless_arms;
    let archive = match &config.posterior_path {
        Some(path) if path.exists() => Archive::load(path, arms)?,
        _ => Archive::new(arms.len(), 0),
    };

    // Completed batches return their stream here. Bound: the producer
    // drains this channel with `try_recv` at the top of every turn, before
    // any call that can block, and dispatches at most one batch per turn.
    // So the completions that can arrive between two drains are those of
    // the batches unreported at the first — each in the work queue (at
    // most `queue_cap`) or in a worker's hands (at most one per worker) —
    // plus the one batch dispatched in between: `queue_cap + S + 1`, the
    // recycle pool's batches. Each worker also sends at most one `None`
    // when it dies, after which the producer stops draining: S more. A
    // worker's send therefore never blocks.
    let (done_tx, done_rx) = channel::bounded::<Completion>(queues.pool_batches() + n_shards);
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
        ready: VecDeque::new(),
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
        let compress = move |worker: &ShardWorker<Dispatch>| {
            let _notice = DeathNotice(&done_tx);
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
                let (mut stream, base_seq) = batch.tag;
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
                #[cfg(test)]
                if id == tests::DOOMED_STREAM {
                    panic!("worker dies outside the contained compress step");
                }
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
                // Never blocks, by the channel's bound, and never fails: the
                // receiver outlives the workers.
                let _ = done_tx.send(Some(stream));
                worker.recycle(segs);
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
                // A `None` completion: a worker died, and the run fails.
                while let Ok(done) = done_rx.try_recv() {
                    let Some(done) = done else { return };
                    sched.complete(done);
                }
                let Some(next) = sched.ready.pop_front() else {
                    // Every resident stream is in flight; with none in
                    // flight, nothing is resident or waiting.
                    if sched.in_flight == 0 {
                        break;
                    }
                    match done_rx.recv() {
                        Ok(Some(done)) => sched.complete(done),
                        _ => return,
                    }
                    continue;
                };
                // A stream is built at its first turn, while the workers
                // compress earlier batches.
                let mut stream = match next {
                    Ready::Built(stream) => stream,
                    Ready::Admitted(spec) => sched.build(spec),
                };
                let take = k.min(stream.remaining);
                let Some(segs) = producer.acquire(take, stream.source.as_mut()) else {
                    break;
                };
                stream.remaining -= take;
                sched.in_flight += 1;
                let tag = (stream, seq);
                seq += take as u64;
                if producer.enqueue(tag, segs).is_none() {
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
        archive.save(path, arms)?;
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
    use crate::heap;
    use adaedge_datasets::SineStream;
    use std::sync::{Arc, Mutex};

    /// A source of no size: boxing it allocates nothing.
    struct NoSource;

    impl SegmentSource for NoSource {
        fn segment_len(&self) -> usize {
            0
        }

        fn next_segment(&mut self) -> Vec<f64> {
            Vec::new()
        }
    }

    #[test]
    fn state_bytes_match_what_admitting_a_stream_allocates() {
        // The formula must equal the heap one admitted stream really
        // holds: the `Box<Stream>` (selector nested inline, counted once)
        // plus the selector's own heap parts.
        let arms = CodecRegistry::lossless_candidates();
        let spec = StreamSpec::new(1, Priority::Normal, 0, Box::new(NoSource));
        let before = heap::live_bytes();
        let s = Stream::new(spec, arms.clone(), SelectorConfig::default());
        let held = heap::live_bytes() - before;
        assert_eq!(held as usize, per_stream_state_bytes(arms.len()));
        // The fleet holds one of these per resident stream: keep it from
        // growing past its recorded size.
        assert!(held <= 498, "{held} B per stream");
        drop(s);
        assert_eq!(heap::live_bytes(), before, "stream frees all it holds");
    }

    /// Logs its stream id on every fill.
    struct Recording {
        id: u64,
        log: Arc<Mutex<Vec<u64>>>,
        inner: SineStream,
    }

    impl SegmentSource for Recording {
        fn segment_len(&self) -> usize {
            self.inner.segment_len()
        }

        fn next_segment(&mut self) -> Vec<f64> {
            self.log.lock().unwrap().push(self.id);
            self.inner.next_segment()
        }
    }

    #[test]
    fn streams_take_turns_one_batch_at_a_time() {
        // One batch per turn, then the back of the queue; the one-segment
        // stream is evicted after its only turn.
        let log = Arc::new(Mutex::new(Vec::new()));
        let specs = [5, 1, 3]
            .into_iter()
            .zip(0u64..)
            .map(|(n, id)| {
                let source = Recording {
                    id,
                    log: log.clone(),
                    inner: SineStream::new(64, 0.1, 4, id),
                };
                StreamSpec::new(id, Priority::Normal, n, Box::new(source))
            })
            .collect();
        let config = FleetConfig {
            n_compression_threads: 1,
            batch_segments: 1,
            ..Default::default()
        };
        let report = run_fleet(specs, &config).unwrap();
        assert_eq!(report.segments, 9);
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 0, 2, 0, 2, 0, 0]);
    }

    /// The stream whose worker panics right after its arm decision, in
    /// test builds: an id no other test uses.
    pub(super) const DOOMED_STREAM: u64 = u64::MAX / 2;

    #[test]
    fn a_dead_worker_fails_the_run_instead_of_hanging() {
        // A worker panics outside the contained compress step, on the
        // doomed stream's first batch. The producer must stop and the run
        // report the lost worker; it runs on a watchdog thread so a hang
        // fails the test instead of blocking it.
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let specs: Vec<StreamSpec> = (0..8)
                    .map(|i| {
                        let id = DOOMED_STREAM - 3 + i;
                        let source = SineStream::new(256, 0.1, 4, i);
                        StreamSpec::new(id, Priority::Normal, 16, Box::new(source))
                    })
                    .collect();
                let config = FleetConfig {
                    n_compression_threads: threads,
                    ..Default::default()
                };
                let _ = tx.send(run_fleet(specs, &config).err());
            });
            let err = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("run_fleet hung at S = {threads}"));
            assert!(
                matches!(err, Some(AdaEdgeError::WorkerFailed { .. })),
                "S = {threads}: {err:?}"
            );
        }
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
    fn archive_write_back_keeps_idle_rows_and_reports_retired_ones() {
        // Stream 3 restores from the file and retires; stream 5 is new;
        // stream 1000 is archived but never runs.
        let arms = CodecRegistry::lossless_candidates();
        let n = arms.len();
        let archived = |stream_id: u64, quarantine_bits| StreamPosterior {
            stream_id,
            arms: arms.clone(),
            pulls: (0..n as u64).map(|i| 40 + i * stream_id).collect(),
            estimates: (0..n).map(|i| 0.3 + i as f64 / 7.0).collect(),
            failure_totals: (0..n as u64).map(|i| i % 2).collect(),
            quarantine_bits,
        };
        let path = std::env::temp_dir().join(format!(
            "adaedge-fleet-archive-{}.posteriors",
            std::process::id()
        ));
        let before = [archived(3, 0), archived(1000, 0b10)];
        adaedge_storage::save_posteriors(&path, before.iter()).unwrap();
        let original = std::fs::read(&path).unwrap();

        let mk = |id, n| {
            StreamSpec::new(
                id,
                Priority::Normal,
                n,
                Box::new(SineStream::new(128, 0.1, 4, id)),
            )
        };
        let config = FleetConfig {
            posterior_path: Some(path.clone()),
            ..Default::default()
        };
        let report = run_fleet(vec![mk(5, 3), mk(3, 4)], &config).unwrap();
        assert_eq!(report.restores, 1);
        let written = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The idle record is last in id order, byte for byte as loaded.
        let record_len = (original.len() - 14) / 2;
        assert!(written.ends_with(&original[original.len() - record_len..]));
        // Every retired stream's record is its report's posterior.
        let mut expected = Vec::new();
        for r in &report.stream_reports {
            assert_eq!(r.restored, r.id == 3);
            expected.push(StreamPosterior {
                stream_id: r.id,
                arms: arms.clone(),
                pulls: r.pulls.clone(),
                estimates: r.estimates.clone(),
                failure_totals: r.failure_totals.clone(),
                quarantine_bits: r.quarantine_bits,
            });
        }
        expected.push(before[1].clone());
        let mut enc = PosteriorEncoder::new();
        for p in &expected {
            enc.push(p.as_record()).unwrap();
        }
        assert_eq!(written, enc.into_bytes());
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
