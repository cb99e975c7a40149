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
//! * **Per-stream selector state, no global lock.** Each admitted stream
//!   owns a [`crate::selector::LosslessSelector`] behind its own mutex,
//!   indexed through a [`ShardedStreamTable`] hashed by stream id. The
//!   handle (an `Arc`) travels *inside* every dispatched batch, so the
//!   hot path never touches the table at all — workers lock exactly one
//!   uncontended per-stream mutex around `select_arm` and once more
//!   around `report_batch`, microseconds apiece.
//! * **One shard runtime.** Batches travel the same per-shard queues,
//!   recycle pools and parked-wake work stealing as the engines'
//!   (`shard::ShardQueues`), each tagged with its stream handle, and every
//!   segment goes through the engines' contained compress step
//!   (`shard::compress_batch`). What the fleet adds is the
//!   decision under the stream's own mutex and what it emits.
//! * **Fair, work-conserving scheduling.** The producer round-robins
//!   ready streams into the shard queues: a hot stream gets one batch per
//!   turn and goes to the back of its queue, so it cannot starve others;
//!   a stream with nothing to send sits in no queue and costs zero
//!   cycles; an idle shard steals batches from busy ones.
//! * **Per-stream ordering.** At most one batch per stream is in flight
//!   at a time, so a stream's select→report pairs never interleave —
//!   its posterior after a multi-stream run is *identical* to a solo run
//!   over the same segments (the fleet-equivalence suite pins this, and a
//!   1-stream fleet is bit-identical to the single-stream engine).
//! * **Bounded residency with evict/restore.** The stream table holds at
//!   most [`FleetConfig::max_resident_streams`]; finished streams are
//!   evicted, their posterior archived (optionally persisted via
//!   [`adaedge_storage::posterior`], CRC-framed) and restored bit-exactly
//!   if the stream returns ([`adaedge_bandit::Policy::restore`]).
//! * **Priority-aware egress.** Workers emit compressed-segment
//!   descriptors to a dedicated egress stage that packs them into bounded
//!   transport frames in priority-then-deadline order
//!   ([`crate::frame::FramePacker`]), with per-stream byte accounting in
//!   the final report.

use crate::error::{AdaEdgeError, Result};
use crate::frame::{FrameConfig, FrameItem, FramePacker, Priority, StreamEgress};
use crate::selector::{ArmOutcome, LosslessSelector, SelectorConfig};
use crate::shard::{compress_batch, ShardQueues, ShardWorker, WorkGate};
use crate::uplink::{LinkPressure, PressureGauge, UplinkRollup};
use adaedge_bandit::EpsilonGreedy;
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_datasets::SegmentSource;
use adaedge_storage::posterior::{load_posteriors, save_posteriors, StreamPosterior};
use crossbeam::channel;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// Stream-table residency bound; `0` = unbounded (every spec admitted
    /// immediately). With a bound, further specs wait for an eviction.
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

/// Mutable per-stream state, behind the stream's own mutex.
struct StreamState {
    selector: LosslessSelector,
    segments: u64,
    bytes_in: u64,
    bytes_out: u64,
    codec_failures: u64,
}

/// A resident stream's shared handle: everything a worker needs travels
/// here, inside the batch — the hot path never consults the table.
pub struct StreamEntry {
    id: u64,
    priority: Priority,
    /// Batches currently dispatched and not yet reported (0 or 1 — the
    /// per-stream ordering guarantee). Checked by the scheduler and the
    /// table's idle-eviction scan.
    in_flight: AtomicU32,
    /// Producer-side activity clock for LRU eviction.
    last_active: AtomicU64,
    state: Mutex<StreamState>,
}

impl StreamEntry {
    /// The stream's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The stream's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Whether a batch of this stream is currently in flight.
    pub fn is_in_flight(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) != 0
    }
}

impl std::fmt::Debug for StreamEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEntry")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .finish()
    }
}

/// Which map shard a stream id lives in.
fn map_shard(id: u64, n: usize) -> usize {
    ((id.wrapping_mul(HASH_MULT) >> 32) as usize) % n
}

/// The bounded resident-stream index: per-stream selector state in
/// sharded maps hashed by stream id, so concurrent admission, stats
/// rollups and eviction scans contend only per shard — there is no
/// global table lock (the worker hot path holds no table reference at
/// all; entries travel inside batches).
pub struct ShardedStreamTable {
    shards: Vec<Mutex<HashMap<u64, Arc<StreamEntry>>>>,
    capacity: usize,
    len: AtomicUsize,
}

impl std::fmt::Debug for ShardedStreamTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStreamTable")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ShardedStreamTable {
    /// Create a table with `n_shards` map shards holding at most
    /// `capacity` streams (`0` = unbounded).
    pub fn new(n_shards: usize, capacity: usize) -> Self {
        let n = n_shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            len: AtomicUsize::new(0),
        }
    }

    /// Resident streams.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether no stream is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the residency bound is reached (never true when unbounded).
    pub fn is_full(&self) -> bool {
        self.capacity != 0 && self.len() >= self.capacity
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.shards[map_shard(id, self.shards.len())]
            .lock()
            .contains_key(&id)
    }

    /// Look up a resident stream's handle.
    pub fn get(&self, id: u64) -> Option<Arc<StreamEntry>> {
        self.shards[map_shard(id, self.shards.len())]
            .lock()
            .get(&id)
            .cloned()
    }

    /// Admit a stream. Fails (returns `false`, entry untouched) when the
    /// table is full or the id is already resident.
    pub fn insert(&self, entry: Arc<StreamEntry>, now: u64) -> bool {
        if self.is_full() {
            return false;
        }
        let mut shard = self.shards[map_shard(entry.id, self.shards.len())].lock();
        if shard.contains_key(&entry.id) {
            return false;
        }
        entry.last_active.store(now, Ordering::SeqCst);
        shard.insert(entry.id, entry);
        self.len.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Record activity for LRU bookkeeping.
    pub fn touch(&self, id: u64, now: u64) {
        if let Some(e) = self.get(id) {
            e.last_active.store(now, Ordering::SeqCst);
        }
    }

    /// Evict `id`, returning its handle.
    pub fn remove(&self, id: u64) -> Option<Arc<StreamEntry>> {
        let removed = self.shards[map_shard(id, self.shards.len())]
            .lock()
            .remove(&id);
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::SeqCst);
        }
        removed
    }

    /// The least-recently-active resident stream with nothing in flight —
    /// the LRU/idle eviction candidate. Streams mid-batch are never
    /// offered (evicting one would lose its pending report).
    pub fn lru_idle(&self) -> Option<Arc<StreamEntry>> {
        let mut best: Option<(u64, Arc<StreamEntry>)> = None;
        for shard in &self.shards {
            for entry in shard.lock().values() {
                if entry.is_in_flight() {
                    continue;
                }
                let at = entry.last_active.load(Ordering::SeqCst);
                if best.as_ref().map(|(t, _)| at < *t).unwrap_or(true) {
                    best = Some((at, entry.clone()));
                }
            }
        }
        best.map(|(_, e)| e)
    }
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
    /// Streams evicted from the table (every completed stream is).
    pub evictions: u64,
    /// Streams that resumed from an archived posterior.
    pub restores: u64,
    /// Peak resident streams observed.
    pub peak_resident: usize,
    /// Bytes of per-stream resident state (entry + selector posterior) —
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
    /// Uplink transport rollup: retries, breaker trips, replay outcomes.
    /// Populated by the caller via [`FleetReport::absorb_session`] /
    /// [`FleetReport::absorb_replay`] after driving the transport.
    pub uplink: UplinkRollup,
    /// Per-stream rollups, sorted by id.
    pub stream_reports: Vec<StreamReport>,
}

impl FleetReport {
    /// Fold an uplink session's transport counters into this report.
    pub fn absorb_session(&mut self, session: &crate::uplink::SessionReport) {
        self.uplink.absorb_session(session);
    }

    /// Fold a spool reconnect-replay report into this report.
    pub fn absorb_replay(&mut self, replay: &crate::spooling::ReplayReport) {
        self.uplink.absorb_replay(replay);
    }
}

/// Producer-side driver for one resident stream.
struct StreamDriver {
    entry: Arc<StreamEntry>,
    source: Box<dyn SegmentSource>,
    remaining: usize,
    home: usize,
    restored: bool,
}

/// Resident bytes one admitted stream costs, each nested type counted
/// once: the entry's `Arc` allocation (the two reference counts, then the
/// entry, which holds its `StreamState` inline, which holds the
/// `LosslessSelector` inline), the boxed ε-greedy policy, and the per-arm
/// heap vectors. Reported so capacity planning for `max_resident_streams`
/// has a number to multiply.
fn per_stream_state_bytes(n_arms: usize) -> usize {
    2 * std::mem::size_of::<usize>()
        + std::mem::size_of::<StreamEntry>()
        + std::mem::size_of::<EpsilonGreedy>()
        // q + n (policy), failure totals, consecutive streaks, codec ids,
        // quarantine + mask bools.
        + n_arms * (8 + 8 + 8 + 4 + std::mem::size_of::<CodecId>() + 2)
}

/// Stream stats copied out at eviction (the selector stays behind in the
/// posterior snapshot).
struct StreamStats {
    segments: u64,
    bytes_in: u64,
    bytes_out: u64,
    codec_failures: u64,
}

/// Snapshot a stream's posterior and counters under its lock.
fn snapshot_posterior(entry: &StreamEntry, arms: &[CodecId]) -> (StreamPosterior, StreamStats) {
    let st = entry.state.lock();
    let posterior = StreamPosterior {
        stream_id: entry.id,
        arms: arms.to_vec(),
        pulls: st.selector.pulls().to_vec(),
        estimates: st.selector.estimates().to_vec(),
        failure_totals: st.selector.failure_totals().to_vec(),
        quarantine_bits: st.selector.quarantine_bits(),
    };
    let stats = StreamStats {
        segments: st.segments,
        bytes_in: st.bytes_in,
        bytes_out: st.bytes_out,
        codec_failures: st.codec_failures,
    };
    drop(st);
    (posterior, stats)
}

/// Run every spec through the fleet: admit up to the residency bound,
/// schedule ready streams fairly over the sharded worker pool, evict
/// completed streams (archiving their posterior), admit waiting specs in
/// their place, and pack all compressed output into bounded transport
/// frames. See the module docs for the scheduling and equivalence
/// guarantees.
pub fn run_fleet(specs: Vec<StreamSpec>, config: &FleetConfig) -> Result<FleetReport> {
    let k = config.batch_segments.max(1);
    let segment_len = specs.first().map_or(0, |s| s.source.segment_len());
    let queues = ShardQueues::new(
        config.n_compression_threads,
        config.buffer_segments,
        k,
        segment_len,
    );
    let n_shards = queues.shards();
    let arms = config.lossless_arms.clone();
    let state_bytes = per_stream_state_bytes(arms.len());
    let reg = CodecRegistry::new(config.precision);

    // Posterior archive: evicted streams park their learned state here;
    // re-admitted ids resume from it. Optionally seeded from / persisted
    // to disk in the CRC-framed format.
    let mut archive: HashMap<u64, StreamPosterior> = HashMap::new();
    if let Some(path) = &config.posterior_path {
        if path.exists() {
            let loaded = load_posteriors(path)
                .map_err(|_| AdaEdgeError::Config("posterior archive unreadable"))?;
            for p in loaded {
                if p.arms != arms {
                    return Err(AdaEdgeError::Config(
                        "posterior archive arm roster mismatch",
                    ));
                }
                archive.insert(p.stream_id, p);
            }
        }
    }

    let done_gate = WorkGate::new(); // wakes the producer on batch completion
    let table = ShardedStreamTable::new(n_shards, config.max_resident_streams);
    let (frame_tx, frame_rx) = channel::unbounded::<Vec<FrameItem>>();
    let frame_config = config.frame;

    let start = Instant::now();
    let mut codec_counts: HashMap<CodecId, u64> = HashMap::new();
    let mut degraded_batches = 0u64;
    let mut stream_reports: Vec<StreamReport> = Vec::new();
    let mut evictions = 0u64;
    let mut restores = 0u64;
    let mut peak_resident = 0usize;
    let mut streams_completed = 0u64;

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
        let done_gate = &done_gate;
        // Owns `frame_tx`: the egress stage sees the end of input once the
        // run is over and this closure is dropped.
        let compress = move |worker: &mut ShardWorker<'_, (Arc<StreamEntry>, u64)>| {
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
                let (entry, base_seq) = batch.tag;
                let segs = batch.segs;
                // One decision per batch, arm sticky. The stream lock is
                // held only for the decision itself; per-stream ordering
                // (one batch in flight) keeps the select→report pair
                // atomic with respect to this stream's other batches.
                // Under link pressure the decision is biased toward
                // higher-ratio arms; the Nominal path is bit-identical to
                // plain select_arm.
                let level = config
                    .pressure
                    .as_ref()
                    .map_or(LinkPressure::Nominal, |g| g.level());
                if level != LinkPressure::Nominal {
                    degraded += 1;
                }
                let (arm, codec) = entry.state.lock().selector.select_arm_biased(level);
                let mut bytes_out = 0u64;
                compress_batch(reg, codec, &segs, &mut scratch, &mut outcomes, |i, b| {
                    *counts.entry(b.codec).or_insert(0) += 1;
                    bytes_out += b.compressed_bytes() as u64;
                    items.push(FrameItem {
                        stream: entry.id,
                        priority: entry.priority,
                        seq: base_seq + i as u64,
                        len: b.compressed_bytes(),
                    });
                });
                let failures = outcomes
                    .iter()
                    .filter(|&&o| o == ArmOutcome::Failure)
                    .count();
                let points: usize = segs.iter().map(Vec::len).sum();
                {
                    let mut st = entry.state.lock();
                    st.selector.report_batch(arm, &outcomes);
                    st.segments += segs.len() as u64;
                    st.bytes_in += points as u64 * 8;
                    st.bytes_out += bytes_out;
                    st.codec_failures += failures as u64;
                }
                // Completion order matters: the in-flight decrement must be
                // visible before the recycle send / gate notify that
                // unblocks the producer, so a woken producer always
                // observes the stream as schedulable.
                entry.in_flight.fetch_sub(1, Ordering::SeqCst);
                drop(entry);
                worker.recycle(batch.home, segs);
                done_gate.notify();
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
        let mut pending: VecDeque<StreamSpec> = specs.into_iter().collect();
        let mut drivers: Vec<Option<StreamDriver>> = Vec::new();
        let mut free_slots: Vec<usize> = Vec::new();
        // Per-shard ready queues of driver slots. A slot in a queue may
        // still be in flight (it is re-enqueued at dispatch for fairness);
        // the scheduler rotates past those.
        let mut ready: Vec<VecDeque<usize>> = (0..n_shards).map(|_| VecDeque::new()).collect();
        let mut draining: Vec<usize> = Vec::new();
        let mut clock = 0u64;
        let mut seq = 0u64;
        let mut rr_shard = 0usize;

        macro_rules! admit_pending {
            () => {
                let mut attempts = pending.len();
                while attempts > 0 && !table.is_full() && !pending.is_empty() {
                    attempts -= 1;
                    if table.contains(pending.front().expect("non-empty").id) {
                        // A live session of this id is still resident;
                        // rotate the spec behind the others until the
                        // eviction frees its identity.
                        pending.rotate_left(1);
                        continue;
                    }
                    let spec = pending.pop_front().expect("non-empty");
                    let mut sel_config = config.selector;
                    sel_config.seed ^= spec.id.wrapping_mul(HASH_MULT);
                    let mut selector = LosslessSelector::new(arms.clone(), sel_config);
                    let restored = if let Some(p) = archive.get(&spec.id) {
                        selector.restore_posterior(
                            &p.pulls,
                            &p.estimates,
                            &p.failure_totals,
                            p.quarantine_bits,
                        );
                        restores += 1;
                        true
                    } else {
                        false
                    };
                    let entry = Arc::new(StreamEntry {
                        id: spec.id,
                        priority: spec.priority,
                        in_flight: AtomicU32::new(0),
                        last_active: AtomicU64::new(clock),
                        state: Mutex::new(StreamState {
                            selector,
                            segments: 0,
                            bytes_in: 0,
                            bytes_out: 0,
                            codec_failures: 0,
                        }),
                    });
                    assert!(table.insert(entry.clone(), clock), "admission raced");
                    peak_resident = peak_resident.max(table.len());
                    let home = map_shard(spec.id, n_shards);
                    let driver = StreamDriver {
                        entry,
                        source: spec.source,
                        remaining: spec.n_segments,
                        home,
                        restored,
                    };
                    let slot = match free_slots.pop() {
                        Some(s) => {
                            drivers[s] = Some(driver);
                            s
                        }
                        None => {
                            drivers.push(Some(driver));
                            drivers.len() - 1
                        }
                    };
                    if drivers[slot].as_ref().expect("just set").remaining > 0 {
                        ready[home].push_back(slot);
                    } else {
                        draining.push(slot);
                    }
                }
            };
        }

        macro_rules! reap_completed {
            () => {
                let mut i = 0;
                while i < draining.len() {
                    let slot = draining[i];
                    let done = {
                        let d = drivers[slot].as_ref().expect("draining slot live");
                        !d.entry.is_in_flight()
                    };
                    if !done {
                        i += 1;
                        continue;
                    }
                    draining.swap_remove(i);
                    let d = drivers[slot].take().expect("draining slot live");
                    let (posterior, stats) = snapshot_posterior(&d.entry, &arms);
                    stream_reports.push(StreamReport {
                        id: d.entry.id,
                        priority: d.entry.priority,
                        segments: stats.segments,
                        bytes_in: stats.bytes_in,
                        bytes_out: stats.bytes_out,
                        codec_failures: stats.codec_failures,
                        pulls: posterior.pulls.clone(),
                        estimates: posterior.estimates.clone(),
                        failure_totals: posterior.failure_totals.clone(),
                        quarantine_bits: posterior.quarantine_bits,
                        restored: d.restored,
                        egress: StreamEgress::default(),
                    });
                    archive.insert(d.entry.id, posterior);
                    table.remove(d.entry.id);
                    evictions += 1;
                    streams_completed += 1;
                    free_slots.push(slot);
                }
                if !pending.is_empty() {
                    admit_pending!();
                }
            };
        }

        let workers = queues.run(compress, |producer| {
            admit_pending!();
            'produce: loop {
                clock += 1;
                // Reaping scans the draining list; doing it every dispatch
                // is wasted motion unless admission is actually starved
                // for a slot. Amortize to every 64th turn — plus
                // unconditionally below when the ready queues run dry
                // (progress/termination).
                if clock.is_multiple_of(64) || (!pending.is_empty() && table.is_full()) {
                    reap_completed!();
                }
                let total_ready: usize = ready.iter().map(|q| q.len()).sum();
                if total_ready == 0 {
                    reap_completed!();
                    if draining.is_empty() && pending.is_empty() {
                        break;
                    }
                    if ready.iter().any(|q| !q.is_empty()) {
                        // Reaping freed a slot and admission refilled the
                        // ready queues — dispatch, don't park.
                        continue;
                    }
                    // Everything left is mid-flight (or waiting on a
                    // mid-flight eviction): park until a worker completes
                    // a batch.
                    done_gate.register_sleeper();
                    let ticket = done_gate.epoch();
                    let progress = draining.iter().any(|&s| {
                        !drivers[s]
                            .as_ref()
                            .expect("draining slot live")
                            .entry
                            .is_in_flight()
                    });
                    if progress {
                        done_gate.cancel_park();
                    } else {
                        done_gate.park(ticket);
                    }
                    continue;
                }
                // Fair pick: scan shards round-robin; within a shard rotate
                // past streams whose previous batch is still in flight.
                let mut picked: Option<usize> = None;
                'scan: for off in 0..n_shards {
                    let sh = (rr_shard + off) % n_shards;
                    for _ in 0..ready[sh].len() {
                        let slot = ready[sh].pop_front().expect("len checked");
                        if drivers[slot]
                            .as_ref()
                            .expect("ready slot live")
                            .entry
                            .is_in_flight()
                        {
                            ready[sh].push_back(slot);
                            continue;
                        }
                        picked = Some(slot);
                        rr_shard = (sh + 1) % n_shards;
                        break 'scan;
                    }
                }
                let Some(slot) = picked else {
                    // Every ready stream has a batch in flight; park for one.
                    done_gate.register_sleeper();
                    let ticket = done_gate.epoch();
                    let progress =
                        ready.iter().flatten().chain(draining.iter()).any(|&s| {
                            !drivers[s].as_ref().expect("slot live").entry.is_in_flight()
                        });
                    if progress {
                        done_gate.cancel_park();
                    } else {
                        done_gate.park(ticket);
                    }
                    continue;
                };
                // Acquire buffers, preferring the stream's home pool.
                let d = drivers[slot].as_mut().expect("picked slot live");
                let take = k.min(d.remaining);
                let Some((bhome, segs)) = producer.acquire(d.home, take, d.source.as_mut()) else {
                    break 'produce;
                };
                d.remaining -= take;
                let base_seq = seq;
                seq += take as u64;
                d.entry.in_flight.fetch_add(1, Ordering::SeqCst);
                d.entry.last_active.store(clock, Ordering::SeqCst);
                let tag = (d.entry.clone(), base_seq);
                // The slot was popped from its ready queue at pick time and
                // a slot is never enqueued twice, so this is the only copy:
                // back of the queue for fairness, or off to draining.
                if d.remaining > 0 {
                    ready[d.home].push_back(slot);
                } else {
                    draining.push(slot);
                }
                if producer.enqueue(bhome, tag, segs).is_none() {
                    break 'produce;
                }
            }
        });
        // Workers are gone: everything still draining is complete now.
        reap_completed!();
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
    let segments: u64 = stream_reports.iter().map(|r| r.segments).sum();
    let bytes_in: u64 = stream_reports.iter().map(|r| r.bytes_in).sum();
    let bytes_out: u64 = stream_reports.iter().map(|r| r.bytes_out).sum();
    let codec_failures: u64 = stream_reports.iter().map(|r| r.codec_failures).sum();
    let points = bytes_in / 8;
    Ok(FleetReport {
        streams: streams_completed,
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
        evictions,
        restores,
        peak_resident,
        per_stream_state_bytes: state_bytes,
        arms,
        frames: FrameSummary {
            frames: packer.frames_emitted(),
            bytes: packer.bytes_emitted(),
            max_frame_used: packer.max_frame_used(),
            payload_cap: config.frame.payload_cap,
        },
        degraded_batches,
        uplink: UplinkRollup::default(),
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

    fn entry(id: u64) -> Arc<StreamEntry> {
        Arc::new(StreamEntry {
            id,
            priority: Priority::Normal,
            in_flight: AtomicU32::new(0),
            last_active: AtomicU64::new(0),
            state: Mutex::new(StreamState {
                selector: LosslessSelector::new(
                    CodecRegistry::lossless_candidates(),
                    SelectorConfig::default(),
                ),
                segments: 0,
                bytes_in: 0,
                bytes_out: 0,
                codec_failures: 0,
            }),
        })
    }

    #[test]
    fn state_bytes_match_what_admitting_a_stream_allocates() {
        // The formula must equal the heap one admitted stream really
        // holds: the `Arc` allocation (entry, state and selector nested
        // inline, counted once) plus the selector's own heap parts.
        let arms = CodecRegistry::lossless_candidates().len();
        let before = LIVE_BYTES.with(Cell::get);
        let e = entry(1);
        let held = LIVE_BYTES.with(Cell::get) - before;
        assert_eq!(held as usize, per_stream_state_bytes(arms));
        drop(e);
        assert_eq!(
            LIVE_BYTES.with(Cell::get),
            before,
            "entry frees all it holds"
        );
    }

    #[test]
    fn table_bounds_residency_and_rejects_duplicates() {
        let t = ShardedStreamTable::new(4, 2);
        assert!(t.insert(entry(1), 0));
        assert!(!t.insert(entry(1), 1), "duplicate id must be rejected");
        assert!(t.insert(entry(2), 1));
        assert!(t.is_full());
        assert!(!t.insert(entry(3), 2), "full table must reject");
        assert_eq!(t.len(), 2);
        assert!(t.contains(1) && t.contains(2) && !t.contains(3));
        t.remove(1).expect("resident");
        assert!(!t.is_full());
        assert!(t.insert(entry(3), 3));
    }

    #[test]
    fn lru_idle_skips_in_flight_streams() {
        let t = ShardedStreamTable::new(2, 0);
        t.insert(entry(10), 5);
        t.insert(entry(20), 1); // least recently active…
        t.insert(entry(30), 3);
        t.get(20).unwrap().in_flight.store(1, Ordering::SeqCst); // …but busy
        let victim = t.lru_idle().expect("idle stream exists");
        assert_eq!(victim.id(), 30, "oldest *idle* stream wins");
        t.get(20).unwrap().in_flight.store(0, Ordering::SeqCst);
        assert_eq!(t.lru_idle().unwrap().id(), 20);
        // touch() refreshes recency.
        t.touch(20, 9);
        assert_eq!(t.lru_idle().unwrap().id(), 30);
    }

    #[test]
    fn unbounded_table_never_full() {
        let t = ShardedStreamTable::new(3, 0);
        for id in 0..100 {
            assert!(t.insert(entry(id), id));
        }
        assert!(!t.is_full());
        assert_eq!(t.len(), 100);
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
        let mk = |seed| Box::new(SineStream::new(128, 0.1, 4, seed));
        let specs = vec![
            StreamSpec::new(42, Priority::Normal, 4, mk(1)),
            StreamSpec::new(7, Priority::Normal, 4, mk(2)),
            StreamSpec::new(42, Priority::Normal, 4, mk(3)),
        ];
        let config = FleetConfig {
            max_resident_streams: 1,
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
            "second session must continue the first's counts"
        );
        assert!(sessions.last().unwrap().restored);
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
        assert_eq!(baseline.uplink, UplinkRollup::default());
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
