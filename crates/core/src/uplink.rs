//! Fault-tolerant uplink transport between the frame packer / spool
//! replayer and the (simulated) network (DESIGN.md §7).
//!
//! The repo's earlier layers assume the uplink either works or is fully
//! down (the spool covers "down"). Real edge links are *partially*
//! broken — lossy, slow, reordering — and both CStream and the semantic-
//! compression line treat the link as a first-class, varying resource
//! the compression policy must react to. This module closes that loop:
//!
//! * [`Uplink`] — the sender: a bounded in-flight ACK window over the
//!   [`FramePacker`], per-frame deadlines, bounded retries under
//!   exponential [`Backoff`] with deterministic seeded jitter, and a
//!   [`CircuitBreaker`] (closed → open → half-open with probe frames)
//!   that trips to spool-only store-and-forward mode.
//! * [`Receiver`] — the ingest side: CRC-checked frames, fragment
//!   reassembly with duplicate/overlap dedup, an [`IngestLedger`]
//!   cursor for exactly-once admission, and capture-order release.
//! * [`FaultyLink`] — a deterministic test transport: seeded drop /
//!   duplicate / reorder / delay / corrupt / stall of frames *and*
//!   ACKs, with scriptable phase schedules ("40% loss for 300 ticks,
//!   then clean").
//! * [`LinkPressure`] — the graceful-degradation hook: when the retry
//!   backlog / spool depth crosses [`PressureWatermarks`], a shared
//!   [`PressureGauge`] biases the selectors toward higher-ratio arms
//!   (and back), so compression choice visibly adapts to link health.
//!
//! Everything runs on **virtual time** (`u64` ticks) and caller-seeded
//! RNGs: no wall clock anywhere, every fault schedule and every retry
//! delay reproduces from its seed alone.

use crate::frame::{FrameConfig, FrameItem, FramePacker, Priority, StreamId};
use crate::spooling::IngestLedger;
use adaedge_codecs::crc32c::{crc32c, crc32c_append};
use adaedge_codecs::faultkit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

// --- seeded-jitter exponential backoff -------------------------------------

/// Exponential-backoff parameters, in virtual-time ticks.
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Delay before the first retry.
    pub base_ticks: u64,
    /// Hard ceiling on any single delay.
    pub max_ticks: u64,
    /// Jitter fraction `j`: each delay is scaled by a seeded uniform
    /// factor in `[1−j, 1+j)`. Zero disables jitter entirely.
    pub jitter: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            base_ticks: 4,
            max_ticks: 64,
            jitter: 0.25,
        }
    }
}

/// Deterministic seeded-jitter exponential backoff: attempt `k` waits
/// `min(base · 2^k, max)` ticks, scaled by a jitter factor drawn from
/// this instance's own [`SmallRng`]. Two instances with the same config
/// and seed produce the exact same delay sequence — the property the
/// unit tests pin per seed.
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffConfig,
    rng: SmallRng,
}

impl Backoff {
    /// Create a backoff schedule from its config and RNG seed.
    pub fn new(cfg: BackoffConfig, seed: u64) -> Self {
        assert!(cfg.base_ticks > 0, "base_ticks must be > 0");
        assert!(cfg.max_ticks >= cfg.base_ticks, "max below base");
        assert!((0.0..1.0).contains(&cfg.jitter), "jitter in [0,1)");
        Self {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The delay before retry number `attempt` (0-based). Always ≥ 1
    /// tick and ≤ `max_ticks · (1+j)` rounded.
    pub fn delay(&mut self, attempt: u32) -> u64 {
        let raw = self
            .cfg
            .base_ticks
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.cfg.max_ticks);
        if self.cfg.jitter == 0.0 {
            return raw.max(1);
        }
        let factor = 1.0 + self.cfg.jitter * (2.0 * self.rng.gen::<f64>() - 1.0);
        ((raw as f64 * factor).round() as u64).max(1)
    }
}

// --- link pressure: watermarks + shared gauge -------------------------------

/// How hard the link is pushing back, coarsened to three levels the
/// selectors can act on. Ordered: `Nominal < Elevated < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LinkPressure {
    /// Backlog below every watermark: select normally.
    Nominal = 0,
    /// Backlog above the elevated watermark: damp exploration.
    Elevated = 1,
    /// Backlog above the critical watermark: pure exploitation of the
    /// best-compressing arm.
    Critical = 2,
}

impl LinkPressure {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => LinkPressure::Nominal,
            1 => LinkPressure::Elevated,
            _ => LinkPressure::Critical,
        }
    }
}

/// Backlog watermarks with hysteresis: each level sets at its `*_set`
/// depth and only clears back below at `*_clear` (< `*_set`), so a
/// backlog oscillating around one threshold cannot flap the gauge.
#[derive(Debug, Clone, Copy)]
pub struct PressureWatermarks {
    /// Depth at which pressure rises to [`LinkPressure::Elevated`].
    pub elevated_set: usize,
    /// Depth at or below which `Elevated` clears back to `Nominal`.
    pub elevated_clear: usize,
    /// Depth at which pressure rises to [`LinkPressure::Critical`].
    pub critical_set: usize,
    /// Depth at or below which `Critical` clears back to `Elevated`.
    pub critical_clear: usize,
}

impl Default for PressureWatermarks {
    fn default() -> Self {
        Self {
            elevated_set: 12,
            elevated_clear: 6,
            critical_set: 32,
            critical_clear: 16,
        }
    }
}

impl PressureWatermarks {
    /// The level a backlog of `depth` records maps to, given the
    /// previous level (hysteresis needs history).
    pub fn classify(&self, prev: LinkPressure, depth: usize) -> LinkPressure {
        debug_assert!(self.elevated_clear < self.elevated_set);
        debug_assert!(self.critical_clear < self.critical_set);
        let mut level = prev;
        if depth >= self.critical_set {
            level = LinkPressure::Critical;
        } else if depth >= self.elevated_set && level < LinkPressure::Elevated {
            level = LinkPressure::Elevated;
        }
        if level == LinkPressure::Critical && depth <= self.critical_clear {
            level = LinkPressure::Elevated;
        }
        if level == LinkPressure::Elevated && depth <= self.elevated_clear {
            level = LinkPressure::Nominal;
        }
        level
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    level: AtomicU8,
    transitions: AtomicU64,
}

/// A cheaply clonable shared pressure gauge: the uplink writes it once
/// per tick, fleet workers read it once per batch. Transitions are
/// counted for the report rollups.
#[derive(Debug, Clone, Default)]
pub struct PressureGauge {
    inner: Arc<GaugeInner>,
}

impl PressureGauge {
    /// A fresh gauge at [`LinkPressure::Nominal`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The current pressure level.
    pub fn level(&self) -> LinkPressure {
        LinkPressure::from_u8(self.inner.level.load(Ordering::Relaxed))
    }

    /// Set the level; a change counts as one degradation transition.
    pub fn set(&self, level: LinkPressure) {
        let prev = self.inner.level.swap(level as u8, Ordering::Relaxed);
        if prev != level as u8 {
            self.inner.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Level changes observed since creation (both directions).
    pub fn transitions(&self) -> u64 {
        self.inner.transitions.load(Ordering::Relaxed)
    }
}

// --- wire types -------------------------------------------------------------

/// One fragment as it crosses the link: the packer's descriptor plus the
/// actual payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFragment {
    /// Capture sequence of the record this fragment belongs to.
    pub seq: u64,
    /// Byte offset within the record's payload.
    pub offset: usize,
    /// Whether this fragment completes the record.
    pub last: bool,
    /// The fragment's payload bytes.
    pub bytes: Vec<u8>,
}

/// Data frame or half-open probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Carries record fragments.
    Data,
    /// Empty liveness probe sent while the breaker is half-open.
    Probe,
}

/// A frame on the wire: id, kind, fragments, and a CRC-32C over all of
/// it so the receiver rejects corruption instead of ingesting garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkFrame {
    /// Sender-assigned id; retransmissions reuse it so duplicate ACKs
    /// are harmless.
    pub frame_id: u64,
    /// Data or probe.
    pub kind: FrameKind,
    /// The fragments aboard (empty for probes).
    pub fragments: Vec<WireFragment>,
    /// CRC-32C over kind, id and every fragment's header + bytes.
    pub crc: u32,
}

impl UplinkFrame {
    fn digest(kind: FrameKind, frame_id: u64, fragments: &[WireFragment]) -> u32 {
        let mut crc = crc32c(&[kind as u8]);
        crc = crc32c_append(crc, &frame_id.to_le_bytes());
        for f in fragments {
            crc = crc32c_append(crc, &f.seq.to_le_bytes());
            crc = crc32c_append(crc, &(f.offset as u64).to_le_bytes());
            crc = crc32c_append(crc, &[f.last as u8]);
            crc = crc32c_append(crc, &f.bytes);
        }
        crc
    }

    /// Build a sealed frame (CRC computed over the final contents).
    pub fn new(frame_id: u64, kind: FrameKind, fragments: Vec<WireFragment>) -> Self {
        let crc = Self::digest(kind, frame_id, &fragments);
        Self {
            frame_id,
            kind,
            fragments,
            crc,
        }
    }

    /// Whether the frame survived the link intact.
    pub fn verify(&self) -> bool {
        Self::digest(self.kind, self.frame_id, &self.fragments) == self.crc
    }

    /// Payload bytes aboard (fragment bytes only).
    pub fn payload_len(&self) -> usize {
        self.fragments.iter().map(|f| f.bytes.len()).sum()
    }
}

/// An acknowledgement: the frame it answers plus the receiver's
/// cumulative contiguous ingest cursor, CRC-protected like frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledged frame.
    pub frame_id: u64,
    /// Highest contiguous sequence the receiver has durably ingested.
    pub cumulative_seq: u64,
    /// CRC-32C over the two fields.
    pub crc: u32,
}

impl Ack {
    fn digest(frame_id: u64, cumulative_seq: u64) -> u32 {
        crc32c_append(
            crc32c(&frame_id.to_le_bytes()),
            &cumulative_seq.to_le_bytes(),
        )
    }

    /// Build a sealed ACK.
    pub fn new(frame_id: u64, cumulative_seq: u64) -> Self {
        Self {
            frame_id,
            cumulative_seq,
            crc: Self::digest(frame_id, cumulative_seq),
        }
    }

    /// Whether the ACK survived the link intact.
    pub fn verify(&self) -> bool {
        Self::digest(self.frame_id, self.cumulative_seq) == self.crc
    }
}

// --- the transport abstraction ---------------------------------------------

/// A bidirectional frame/ACK channel driven in virtual time. Sends are
/// enqueued at tick `now`; polls surface whatever the link has decided
/// is deliverable at `now`.
pub trait Transport {
    /// Sender → receiver direction.
    fn send_frame(&mut self, now: u64, frame: UplinkFrame);
    /// Receiver → sender direction.
    fn send_ack(&mut self, now: u64, ack: Ack);
    /// Frames deliverable to the receiver at `now`, in delivery order.
    fn poll_frames(&mut self, now: u64) -> Vec<UplinkFrame>;
    /// ACKs deliverable to the sender at `now`, in delivery order.
    fn poll_acks(&mut self, now: u64) -> Vec<Ack>;
    /// Whether any message is still queued inside the link.
    fn is_empty(&self) -> bool;
}

/// A lossless fixed-latency link — the control-group transport.
#[derive(Debug, Default)]
pub struct PerfectLink {
    /// Delivery latency in ticks (both directions).
    pub latency: u64,
    frames: BTreeMap<u64, Vec<UplinkFrame>>,
    acks: BTreeMap<u64, Vec<Ack>>,
}

impl PerfectLink {
    /// A perfect link with the given one-way latency.
    pub fn new(latency: u64) -> Self {
        Self {
            latency,
            ..Self::default()
        }
    }
}

fn drain_due<T>(map: &mut BTreeMap<u64, Vec<T>>, now: u64) -> Vec<T> {
    let mut out = Vec::new();
    let due: Vec<u64> = map.range(..=now).map(|(&k, _)| k).collect();
    for k in due {
        out.extend(map.remove(&k).expect("key from range"));
    }
    out
}

impl Transport for PerfectLink {
    fn send_frame(&mut self, now: u64, frame: UplinkFrame) {
        self.frames
            .entry(now + self.latency)
            .or_default()
            .push(frame);
    }

    fn send_ack(&mut self, now: u64, ack: Ack) {
        self.acks.entry(now + self.latency).or_default().push(ack);
    }

    fn poll_frames(&mut self, now: u64) -> Vec<UplinkFrame> {
        drain_due(&mut self.frames, now)
    }

    fn poll_acks(&mut self, now: u64) -> Vec<Ack> {
        drain_due(&mut self.acks, now)
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.acks.is_empty()
    }
}

// --- the faulty link --------------------------------------------------------

/// One phase's fault mix. All probabilities are per message.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Base one-way latency in ticks.
    pub delay_ticks: u64,
    /// Probability a data frame is silently dropped.
    pub drop: f64,
    /// Probability a data frame is delivered twice (second copy at an
    /// independently jittered delay).
    pub duplicate: f64,
    /// Probability a data frame's bytes are corrupted in flight (the
    /// receiver's CRC rejects it — an effective drop that also exercises
    /// the integrity path).
    pub corrupt: f64,
    /// Probability a message takes extra `1..=jitter_ticks` delay —
    /// the reordering mechanism (a delayed frame arrives after its
    /// successors).
    pub reorder: f64,
    /// Maximum extra delay for reordered messages.
    pub jitter_ticks: u64,
    /// Probability an ACK is dropped.
    pub ack_drop: f64,
    /// Probability an ACK is corrupted (sender's CRC rejects it).
    pub ack_corrupt: f64,
    /// Probability an ACK is duplicated.
    pub ack_duplicate: f64,
    /// Total stall: nothing is delivered (in either direction) while
    /// this phase is active; queued traffic resumes when it ends.
    pub stall: bool,
}

impl FaultSpec {
    /// A clean link with the given latency.
    pub fn clean(delay_ticks: u64) -> Self {
        Self {
            delay_ticks,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            jitter_ticks: 0,
            ack_drop: 0.0,
            ack_corrupt: 0.0,
            ack_duplicate: 0.0,
            stall: false,
        }
    }

    /// Uniform loss on the frame path with mild reordering.
    pub fn lossy(delay_ticks: u64, drop: f64) -> Self {
        Self {
            drop,
            reorder: 0.2,
            jitter_ticks: 4,
            ..Self::clean(delay_ticks)
        }
    }

    /// A black hole: everything sent during this phase is frozen.
    pub fn stalled() -> Self {
        Self {
            stall: true,
            ..Self::clean(1)
        }
    }
}

/// One entry of a [`FaultyLink`] schedule: `spec` applies to messages
/// sent while `now < until_tick`. The final phase extends forever.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// First tick *after* this phase (exclusive end).
    pub until_tick: u64,
    /// The fault mix while the phase is active.
    pub spec: FaultSpec,
}

/// What the link did to traffic (the ground truth chaos tests compare
/// sender/receiver counters against).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Data/probe frames accepted for transmission.
    pub frames_sent: u64,
    /// Frames silently dropped.
    pub frames_dropped: u64,
    /// Frames delivered twice.
    pub frames_duplicated: u64,
    /// Frames corrupted in flight.
    pub frames_corrupted: u64,
    /// Frames given extra reordering delay.
    pub frames_reordered: u64,
    /// ACKs accepted for transmission.
    pub acks_sent: u64,
    /// ACKs dropped.
    pub acks_dropped: u64,
    /// ACKs corrupted.
    pub acks_corrupted: u64,
    /// ACKs duplicated.
    pub acks_duplicated: u64,
}

impl LinkCounters {
    /// Frames the link destroyed outright (dropped or corrupted — the
    /// receiver never ingests either).
    pub fn frames_dropped_by_link(&self) -> u64 {
        self.frames_dropped + self.frames_corrupted
    }
}

/// The deterministic fault-injecting transport. Every decision flows
/// through one caller-seeded RNG, so a whole chaos run reproduces from
/// `(schedule, seed)` alone.
#[derive(Debug)]
pub struct FaultyLink {
    phases: Vec<Phase>,
    rng: SmallRng,
    frames: BTreeMap<u64, Vec<UplinkFrame>>,
    acks: BTreeMap<u64, Vec<Ack>>,
    counters: LinkCounters,
}

impl FaultyLink {
    /// A single-phase link: `spec` forever.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        Self::with_schedule(
            vec![Phase {
                until_tick: u64::MAX,
                spec,
            }],
            seed,
        )
    }

    /// A scripted link: phases apply in order by send tick; the last
    /// phase extends forever. Phases must be non-empty and sorted.
    pub fn with_schedule(phases: Vec<Phase>, seed: u64) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.windows(2).all(|w| w[0].until_tick < w[1].until_tick),
            "phases must be sorted by until_tick"
        );
        Self {
            phases,
            rng: SmallRng::seed_from_u64(seed),
            frames: BTreeMap::new(),
            acks: BTreeMap::new(),
            counters: LinkCounters::default(),
        }
    }

    /// The spec governing messages sent (or delivered) at `now`.
    pub fn spec_at(&self, now: u64) -> FaultSpec {
        for p in &self.phases {
            if now < p.until_tick {
                return p.spec;
            }
        }
        self.phases.last().expect("non-empty").spec
    }

    /// The link's fault ground truth.
    pub fn counters(&self) -> LinkCounters {
        self.counters
    }

    fn deliver_at(&mut self, now: u64, spec: &FaultSpec) -> u64 {
        let mut due = now + spec.delay_ticks;
        if spec.reorder > 0.0 && spec.jitter_ticks > 0 && self.rng.gen::<f64>() < spec.reorder {
            self.counters.frames_reordered += 1;
            due += self.rng.gen_range(1..=spec.jitter_ticks);
        }
        due
    }
}

impl Transport for FaultyLink {
    fn send_frame(&mut self, now: u64, mut frame: UplinkFrame) {
        let spec = self.spec_at(now);
        self.counters.frames_sent += 1;
        if !spec.stall && spec.drop > 0.0 && self.rng.gen::<f64>() < spec.drop {
            self.counters.frames_dropped += 1;
            return;
        }
        if spec.corrupt > 0.0 && self.rng.gen::<f64>() < spec.corrupt {
            self.counters.frames_corrupted += 1;
            // Flip bits in a fragment's payload, or in the CRC itself
            // for payload-less frames — either way verification fails.
            let victim = frame.fragments.iter_mut().find(|f| !f.bytes.is_empty());
            match victim {
                // A radio burst can smear many bits across one frame.
                Some(f) => faultkit::bit_flip_n(&mut f.bytes, 8, &mut self.rng),
                None => frame.crc ^= 1 << self.rng.gen_range(0..32u32),
            }
        }
        let dup = spec.duplicate > 0.0 && self.rng.gen::<f64>() < spec.duplicate;
        let due = self.deliver_at(now, &spec);
        if dup {
            self.counters.frames_duplicated += 1;
            let dup_due = self.deliver_at(now, &spec);
            self.frames.entry(dup_due).or_default().push(frame.clone());
        }
        self.frames.entry(due).or_default().push(frame);
    }

    fn send_ack(&mut self, now: u64, mut ack: Ack) {
        let spec = self.spec_at(now);
        self.counters.acks_sent += 1;
        if !spec.stall && spec.ack_drop > 0.0 && self.rng.gen::<f64>() < spec.ack_drop {
            self.counters.acks_dropped += 1;
            return;
        }
        if spec.ack_corrupt > 0.0 && self.rng.gen::<f64>() < spec.ack_corrupt {
            self.counters.acks_corrupted += 1;
            ack.crc ^= 1 << self.rng.gen_range(0..32u32);
        }
        let dup = spec.ack_duplicate > 0.0 && self.rng.gen::<f64>() < spec.ack_duplicate;
        let due = self.deliver_at(now, &spec);
        if dup {
            self.counters.acks_duplicated += 1;
            let dup_due = self.deliver_at(now, &spec);
            self.acks.entry(dup_due).or_default().push(ack);
        }
        self.acks.entry(due).or_default().push(ack);
    }

    fn poll_frames(&mut self, now: u64) -> Vec<UplinkFrame> {
        if self.spec_at(now).stall {
            return Vec::new();
        }
        drain_due(&mut self.frames, now)
    }

    fn poll_acks(&mut self, now: u64) -> Vec<Ack> {
        if self.spec_at(now).stall {
            return Vec::new();
        }
        drain_due(&mut self.acks, now)
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.acks.is_empty()
    }
}

// --- receiver ---------------------------------------------------------------

/// Ingest-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverCounters {
    /// Frames that arrived (any kind, any fate).
    pub frames_received: u64,
    /// Frames rejected by the CRC check (link corruption).
    pub frames_rejected: u64,
    /// Probe frames answered.
    pub probe_frames: u64,
    /// Fragments for already-ingested records, dropped idempotently.
    pub duplicate_fragments: u64,
    /// Completed records the ledger refused as duplicates.
    pub duplicate_records: u64,
    /// Records admitted exactly once.
    pub records_delivered: u64,
    /// Payload bytes of admitted records.
    pub payload_bytes_delivered: u64,
}

/// Reassembly buffer for one record: bytes plus merged coverage
/// intervals, so duplicated and re-fragmented deliveries (retries may
/// slice a record differently) never double-count.
#[derive(Debug, Default)]
struct PartialRecord {
    buf: Vec<u8>,
    /// Sorted, disjoint `[start, end)` coverage intervals.
    intervals: Vec<(usize, usize)>,
    /// Total record length, known once a `last` fragment arrives.
    total: Option<usize>,
}

impl PartialRecord {
    fn add(&mut self, offset: usize, bytes: &[u8], last: bool) {
        let end = offset + bytes.len();
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        self.buf[offset..end].copy_from_slice(bytes);
        if last {
            self.total = Some(end);
        }
        // Merge the new interval into the sorted disjoint set.
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(self.intervals.len() + 1);
        let (mut s, mut e) = (offset, end);
        for &(a, b) in &self.intervals {
            if b < s || a > e {
                merged.push((a, b));
            } else {
                s = s.min(a);
                e = e.max(b);
            }
        }
        merged.push((s, e));
        merged.sort_unstable();
        self.intervals = merged;
    }

    fn complete(&self) -> bool {
        match self.total {
            Some(0) => true,
            Some(t) => self
                .intervals
                .first()
                .is_some_and(|&(s, e)| s == 0 && e >= t),
            None => false,
        }
    }

    fn into_bytes(mut self) -> Vec<u8> {
        let t = self.total.expect("complete record");
        self.buf.truncate(t);
        self.buf
    }
}

/// The ingest side of the uplink: CRC verification, fragment
/// reassembly, exactly-once admission through an [`IngestLedger`], and
/// capture-order release of completed records.
#[derive(Debug, Default)]
pub struct Receiver {
    ledger: IngestLedger,
    partial: HashMap<u64, PartialRecord>,
    /// Completed, ledger-admitted records awaiting in-order release.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Highest sequence already released to the consumer.
    released: u64,
    counters: ReceiverCounters,
}

impl Receiver {
    /// A fresh receiver with an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle one frame off the link. Returns the ACK to send back, or
    /// `None` when the frame failed its CRC (a corrupt frame is never
    /// acknowledged — the sender's deadline covers it).
    pub fn on_frame(&mut self, frame: &UplinkFrame) -> Option<Ack> {
        self.counters.frames_received += 1;
        if !frame.verify() {
            self.counters.frames_rejected += 1;
            return None;
        }
        if frame.kind == FrameKind::Probe {
            self.counters.probe_frames += 1;
            return Some(Ack::new(frame.frame_id, self.ledger.acked_seq()));
        }
        for wf in &frame.fragments {
            if self.ledger.seen(wf.seq) {
                self.counters.duplicate_fragments += 1;
                continue;
            }
            let p = self.partial.entry(wf.seq).or_default();
            p.add(wf.offset, &wf.bytes, wf.last);
            if p.complete() {
                let rec = self.partial.remove(&wf.seq).expect("entry exists");
                let bytes = rec.into_bytes();
                if self.ledger.accept(wf.seq) {
                    self.counters.records_delivered += 1;
                    self.counters.payload_bytes_delivered += bytes.len() as u64;
                    self.ready.insert(wf.seq, bytes);
                } else {
                    self.counters.duplicate_records += 1;
                }
            }
        }
        Some(Ack::new(frame.frame_id, self.ledger.acked_seq()))
    }

    /// Release completed records **in capture order**: only the
    /// contiguous prefix above the last release leaves the receiver; a
    /// record that arrived ahead of a hole waits for the hole to fill.
    pub fn take_ordered(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(bytes) = self.ready.remove(&(self.released + 1)) {
            self.released += 1;
            out.push((self.released, bytes));
        }
        out
    }

    /// Records admitted but still waiting behind a capture-order hole.
    pub fn pending_release(&self) -> usize {
        self.ready.len()
    }

    /// The ledger's contiguous cursor.
    pub fn acked_seq(&self) -> u64 {
        self.ledger.acked_seq()
    }

    /// The ledger (for handing to [`crate::spooling::run_reconnect`]
    /// after a breaker recovery).
    pub fn ledger_mut(&mut self) -> &mut IngestLedger {
        &mut self.ledger
    }

    /// Ingest-side counters.
    pub fn counters(&self) -> ReceiverCounters {
        self.counters
    }
}

// --- circuit breaker --------------------------------------------------------

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive frame timeouts that trip the breaker open.
    pub trip_after: u32,
    /// Ticks the breaker stays open before probing.
    pub open_ticks: u64,
    /// Consecutive successful probes required to close again.
    pub probes_to_close: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_after: 4,
            open_ticks: 64,
            probes_to_close: 2,
        }
    }
}

/// Breaker state (closed → open → half-open → closed / open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: frames flow.
    Closed,
    /// Tripped: nothing is sent until `until`.
    Open {
        /// Tick at which the breaker moves to half-open.
        until: u64,
    },
    /// Probing: only probe frames are sent.
    HalfOpen,
}

/// The uplink's circuit breaker. Pure state machine — the [`Uplink`]
/// feeds it timeouts and ACKs and asks what it may send.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_timeouts: u32,
    probe_successes: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        assert!(cfg.trip_after > 0, "trip_after must be > 0");
        assert!(cfg.probes_to_close > 0, "probes_to_close must be > 0");
        Self {
            cfg,
            state: BreakerState::Closed,
            consecutive_timeouts: 0,
            probe_successes: 0,
            trips: 0,
        }
    }

    /// Current state (after lazily applying the open→half-open timer).
    pub fn state(&mut self, now: u64) -> BreakerState {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
                self.probe_successes = 0;
            }
        }
        self.state
    }

    /// Times the breaker tripped open (including half-open reopenings).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Record a frame timeout. Returns `true` when this timeout tripped
    /// the breaker (closed → open) or reopened it (half-open → open).
    pub fn on_timeout(&mut self, now: u64) -> bool {
        match self.state(now) {
            BreakerState::Closed => {
                self.consecutive_timeouts += 1;
                if self.consecutive_timeouts >= self.cfg.trip_after {
                    self.trip(now);
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                // A failed probe reopens immediately.
                self.trip(now);
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open {
            until: now + self.cfg.open_ticks,
        };
        self.consecutive_timeouts = 0;
        self.probe_successes = 0;
        self.trips += 1;
    }

    /// Record a successful ACK for a data frame.
    pub fn on_ack(&mut self) {
        self.consecutive_timeouts = 0;
    }

    /// Record a successful probe ACK. Returns `true` when the breaker
    /// just closed.
    pub fn on_probe_ack(&mut self) -> bool {
        if self.state != BreakerState::HalfOpen {
            return false;
        }
        self.probe_successes += 1;
        if self.probe_successes >= self.cfg.probes_to_close {
            self.state = BreakerState::Closed;
            self.consecutive_timeouts = 0;
            true
        } else {
            false
        }
    }
}

// --- the uplink sender ------------------------------------------------------

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct UplinkConfig {
    /// Transport frame geometry (shared with the packer).
    pub frame: FrameConfig,
    /// Maximum un-ACKed frames in flight (the ACK window).
    pub window: usize,
    /// Ticks a frame may remain un-ACKed before it times out.
    pub deadline_ticks: u64,
    /// Retries per frame before it is abandoned and its records
    /// re-queued (NACK-equivalent: the replay cursor rewinds).
    pub max_retries: u32,
    /// Frames the sender may transmit per tick, retries included
    /// (`0` = unlimited). This is the link-capacity model the goodput
    /// bench leans on.
    pub frames_per_tick: usize,
    /// Records the sender will buffer un-ACKed before refusing new
    /// offers (backpressure to the driver / spool).
    pub accept_limit: usize,
    /// Retry backoff parameters.
    pub backoff: BackoffConfig,
    /// Circuit-breaker parameters.
    pub breaker: BreakerConfig,
    /// Degradation watermarks over `backlog() + external backlog`.
    pub watermarks: PressureWatermarks,
    /// Stream id stamped on outgoing fragments.
    pub stream: StreamId,
    /// Transmission class for offered records.
    pub priority: Priority,
    /// Seed for the backoff jitter RNG.
    pub seed: u64,
}

impl Default for UplinkConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::default(),
            window: 4,
            deadline_ticks: 16,
            max_retries: 5,
            frames_per_tick: 0,
            accept_limit: 64,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            watermarks: PressureWatermarks::default(),
            stream: 0,
            priority: Priority::Normal,
            seed: 0,
        }
    }
}

/// Sender-side counters (plumbed into fleet rollups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UplinkCounters {
    /// Frames transmitted (first sends, data only).
    pub frames_sent: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Frame deadline expirations.
    pub timeouts: u64,
    /// Breaker trips (closed→open and half-open→open).
    pub trips: u64,
    /// Probe frames sent while half-open.
    pub half_open_probes: u64,
    /// Frames abandoned after exhausting retries.
    pub retry_exhausted: u64,
    /// Records re-queued after a frame was abandoned.
    pub requeues: u64,
    /// Records cancelled by a breaker trip (handed back for rewind).
    pub cancelled_on_trip: u64,
    /// Valid ACKs processed.
    pub acks_received: u64,
    /// ACKs rejected by the CRC check.
    pub acks_rejected: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    frame: UplinkFrame,
    deadline: u64,
    attempt: u32,
}

/// The windowed, retrying, breaker-guarded uplink sender. Driven in
/// virtual time: the owner calls [`Uplink::offer`] to enqueue records
/// and [`Uplink::tick`] once per tick to pump ACKs, deadlines, retries
/// and transmissions through a [`Transport`].
#[derive(Debug)]
pub struct Uplink {
    cfg: UplinkConfig,
    packer: FramePacker,
    /// Un-ACKed record payloads by sequence (freed by cumulative ACK).
    payloads: BTreeMap<u64, Vec<u8>>,
    /// Sequences currently queued (possibly partially) in the packer.
    queued: HashSet<u64>,
    in_flight: HashMap<u64, InFlight>,
    /// Frames awaiting their backoff delay, keyed by fire tick.
    retry_at: BTreeMap<u64, Vec<InFlight>>,
    /// Frame ids ACKed while waiting in the retry queue.
    late_acked: HashSet<u64>,
    backoff: Backoff,
    breaker: CircuitBreaker,
    gauge: PressureGauge,
    external_backlog: usize,
    /// Highest cumulative sequence the receiver has confirmed.
    cum_acked: u64,
    next_frame_id: u64,
    /// Probe currently awaiting its ACK (id), if any.
    probe_in_flight: Option<u64>,
    /// Sequences cancelled by a breaker trip, awaiting driver rewind.
    rewind: Vec<u64>,
    counters: UplinkCounters,
}

impl Uplink {
    /// Create a sender.
    pub fn new(cfg: UplinkConfig) -> Self {
        assert!(cfg.window > 0, "window must be > 0");
        assert!(cfg.deadline_ticks > 0, "deadline must be > 0");
        assert!(cfg.accept_limit > 0, "accept_limit must be > 0");
        let backoff = Backoff::new(cfg.backoff, cfg.seed);
        let breaker = CircuitBreaker::new(cfg.breaker);
        let packer = FramePacker::new(cfg.frame);
        Self {
            cfg,
            packer,
            payloads: BTreeMap::new(),
            queued: HashSet::new(),
            in_flight: HashMap::new(),
            retry_at: BTreeMap::new(),
            late_acked: HashSet::new(),
            backoff,
            breaker,
            gauge: PressureGauge::new(),
            external_backlog: 0,
            cum_acked: 0,
            next_frame_id: 0,
            probe_in_flight: None,
            rewind: Vec::new(),
            counters: UplinkCounters::default(),
        }
    }

    /// The shared pressure gauge (clone it into the fleet config /
    /// selectors).
    pub fn pressure(&self) -> PressureGauge {
        self.gauge.clone()
    }

    /// Report backlog the sender cannot see (spool depth during an
    /// outage) so the pressure gauge reflects total debt.
    pub fn set_external_backlog(&mut self, records: usize) {
        self.external_backlog = records;
    }

    /// Whether a new record would be accepted right now: breaker closed
    /// and the un-ACKed buffer below its limit.
    pub fn can_accept(&mut self, now: u64) -> bool {
        self.breaker.state(now) == BreakerState::Closed
            && self.payloads.len() < self.cfg.accept_limit
    }

    /// Offer one record for transmission. Returns `false` (and drops
    /// nothing — the caller keeps the payload) when backpressured.
    pub fn offer(&mut self, now: u64, seq: u64, payload: Vec<u8>) -> bool {
        if !self.can_accept(now) || seq <= self.cum_acked || self.payloads.contains_key(&seq) {
            return false;
        }
        self.packer.push(FrameItem {
            stream: self.cfg.stream,
            priority: self.cfg.priority,
            seq,
            len: payload.len(),
        });
        self.queued.insert(seq);
        self.payloads.insert(seq, payload);
        true
    }

    /// Un-ACKed records buffered in the sender (pressure input).
    pub fn backlog(&self) -> usize {
        self.payloads.len()
    }

    /// Highest cumulative sequence the receiver has confirmed.
    pub fn acked_seq(&self) -> u64 {
        self.cum_acked
    }

    /// Nothing buffered, queued, in flight, or awaiting retry.
    pub fn idle(&self) -> bool {
        self.payloads.is_empty()
            && self.in_flight.is_empty()
            && self.retry_at.is_empty()
            && self.packer.pending() == 0
    }

    /// Breaker state at `now`.
    pub fn breaker_state(&mut self, now: u64) -> BreakerState {
        self.breaker.state(now)
    }

    /// Sender counters (trips included).
    pub fn counters(&self) -> UplinkCounters {
        let mut c = self.counters;
        c.trips = self.breaker.trips();
        c
    }

    /// Sequences cancelled by a breaker trip since the last call: the
    /// driver must re-supply them (rewind the spool replay cursor to
    /// below the smallest one).
    pub fn take_rewind(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.rewind)
    }

    fn on_ack(&mut self, ack: Ack) {
        if !ack.verify() {
            self.counters.acks_rejected += 1;
            return;
        }
        self.counters.acks_received += 1;
        if self.probe_in_flight == Some(ack.frame_id) {
            self.probe_in_flight = None;
            self.breaker.on_probe_ack();
        } else if self.in_flight.remove(&ack.frame_id).is_some() {
            self.breaker.on_ack();
        } else {
            // The frame may be waiting in the retry queue (late ACK
            // after its deadline) — remember to discard it there.
            self.late_acked.insert(ack.frame_id);
        }
        if ack.cumulative_seq > self.cum_acked {
            self.cum_acked = ack.cumulative_seq;
            let keep = self.payloads.split_off(&(self.cum_acked + 1));
            self.payloads = keep;
            let cum = self.cum_acked;
            self.queued.retain(|&s| s > cum);
        }
    }

    /// Build a wire frame from the packer's next descriptor frame,
    /// slicing bytes out of the retained payloads. Descriptors for
    /// records that were cumulatively ACKed while sitting in the packer
    /// (a delayed duplicate of an abandoned frame landed) are stale —
    /// their payloads are gone and their bytes must not reship.
    fn build_frame(&mut self) -> Option<UplinkFrame> {
        loop {
            let tf = self.packer.next_frame()?;
            let mut fragments = Vec::with_capacity(tf.fragments.len());
            for f in &tf.fragments {
                if f.last {
                    self.queued.remove(&f.seq);
                }
                let Some(payload) = self.payloads.get(&f.seq) else {
                    continue; // stale descriptor: already ACKed
                };
                fragments.push(WireFragment {
                    seq: f.seq,
                    offset: f.offset,
                    last: f.last,
                    bytes: payload[f.offset..f.offset + f.len].to_vec(),
                });
            }
            if fragments.is_empty() {
                continue; // the whole frame was stale — pack the next one
            }
            let id = self.next_frame_id;
            self.next_frame_id += 1;
            return Some(UplinkFrame::new(id, FrameKind::Data, fragments));
        }
    }

    /// Re-queue the un-ACKed records of an abandoned frame so their
    /// bytes are repacked and retried from scratch — the in-memory
    /// equivalent of a NACK-driven replay-cursor rewind.
    fn requeue_frame_records(&mut self, frame: &UplinkFrame) {
        let mut seqs: Vec<u64> = frame.fragments.iter().map(|f| f.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        for seq in seqs {
            if seq <= self.cum_acked || self.queued.contains(&seq) {
                continue;
            }
            let Some(payload) = self.payloads.get(&seq) else {
                continue;
            };
            self.packer.push(FrameItem {
                stream: self.cfg.stream,
                priority: self.cfg.priority,
                seq,
                len: payload.len(),
            });
            self.queued.insert(seq);
            self.counters.requeues += 1;
        }
    }

    /// Cancel everything buffered or outstanding (breaker trip): the
    /// sender goes quiet, and every un-ACKed sequence is handed back to
    /// the driver for spool-side rewind.
    fn cancel_all(&mut self) {
        self.in_flight.clear();
        self.retry_at.clear();
        self.late_acked.clear();
        self.probe_in_flight = None;
        // Drain the packer's descriptors; payloads are dropped wholesale.
        while self.packer.next_frame().is_some() {}
        self.queued.clear();
        let cancelled: Vec<u64> = self.payloads.keys().copied().collect();
        self.counters.cancelled_on_trip += cancelled.len() as u64;
        self.rewind.extend(cancelled);
        self.payloads.clear();
    }

    /// One virtual-time step: process ACKs, expire deadlines, fire
    /// retries, transmit new frames while the window allows, probe when
    /// half-open, and refresh the pressure gauge.
    pub fn tick(&mut self, now: u64, transport: &mut dyn Transport) {
        // 1. Inbound ACKs.
        for ack in transport.poll_acks(now) {
            self.on_ack(ack);
        }

        // 2. Deadline scan (deterministic order).
        let mut expired: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable();
        if self.probe_in_flight.is_some() && expired.contains(&self.probe_in_flight.unwrap()) {
            // Probe timed out: reopen.
            let id = self.probe_in_flight.take().unwrap();
            self.in_flight.remove(&id);
            expired.retain(|&e| e != id);
            self.counters.timeouts += 1;
            self.breaker.on_timeout(now);
        }
        for id in expired {
            let mut f = self.in_flight.remove(&id).expect("expired id in flight");
            self.counters.timeouts += 1;
            let tripped = self.breaker.on_timeout(now);
            if tripped {
                self.cancel_all();
                break;
            }
            if f.attempt >= self.cfg.max_retries {
                self.counters.retry_exhausted += 1;
                self.requeue_frame_records(&f.frame);
            } else {
                let delay = self.backoff.delay(f.attempt);
                f.attempt += 1;
                self.retry_at.entry(now + delay).or_default().push(f);
            }
        }

        let mut budget = if self.cfg.frames_per_tick == 0 {
            usize::MAX
        } else {
            self.cfg.frames_per_tick
        };

        match self.breaker.state(now) {
            BreakerState::Closed => {
                // 3. Fire due retries (they hold the cumulative ACK back,
                // so they outrank new transmissions).
                let due: Vec<u64> = self.retry_at.range(..=now).map(|(&k, _)| k).collect();
                'retry: for k in due {
                    let frames = self.retry_at.remove(&k).expect("key from range");
                    let mut pending = frames.into_iter();
                    while let Some(mut f) = pending.next() {
                        if self.late_acked.remove(&f.frame.frame_id) {
                            continue; // ACKed while backing off
                        }
                        if budget == 0 || self.in_flight.len() >= self.cfg.window {
                            // No room this tick: park this frame and every
                            // one still behind it for the next tick.
                            let parked = self.retry_at.entry(now + 1).or_default();
                            parked.push(f);
                            parked.extend(pending);
                            break 'retry;
                        }
                        budget -= 1;
                        self.counters.retries += 1;
                        f.deadline = now + self.cfg.deadline_ticks;
                        transport.send_frame(now, f.frame.clone());
                        self.in_flight.insert(f.frame.frame_id, f);
                    }
                }

                // 4. New transmissions while the window has room. Partial
                // frames ship only when nothing else is outstanding, so
                // steady-state frames stay full but the tail still drains.
                while budget > 0 && self.in_flight.len() < self.cfg.window {
                    let flush_tail = self.in_flight.is_empty() && self.retry_at.is_empty();
                    let tail_due = flush_tail && self.packer.pending() > 0;
                    if !self.packer.frame_ready() && !tail_due {
                        break;
                    }
                    let Some(frame) = self.build_frame() else {
                        break;
                    };
                    budget -= 1;
                    self.counters.frames_sent += 1;
                    let deadline = now + self.cfg.deadline_ticks;
                    transport.send_frame(now, frame.clone());
                    self.in_flight.insert(
                        frame.frame_id,
                        InFlight {
                            frame,
                            deadline,
                            attempt: 0,
                        },
                    );
                }
            }
            BreakerState::HalfOpen => {
                // 5. Probe: one at a time.
                if self.probe_in_flight.is_none() && budget > 0 {
                    let id = self.next_frame_id;
                    self.next_frame_id += 1;
                    let probe = UplinkFrame::new(id, FrameKind::Probe, Vec::new());
                    self.counters.half_open_probes += 1;
                    transport.send_frame(now, probe.clone());
                    self.probe_in_flight = Some(id);
                    self.in_flight.insert(
                        id,
                        InFlight {
                            frame: probe,
                            deadline: now + self.cfg.deadline_ticks,
                            attempt: 0,
                        },
                    );
                }
            }
            BreakerState::Open { .. } => {}
        }

        // 6. Pressure gauge.
        let depth = self.payloads.len() + self.external_backlog;
        let level = self.cfg.watermarks.classify(self.gauge.level(), depth);
        self.gauge.set(level);
    }
}

// --- session driver ---------------------------------------------------------

/// What one in-memory uplink session did (the bench/chaos rollup).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Virtual ticks consumed.
    pub ticks: u64,
    /// Records offered to the sender.
    pub offered_records: u64,
    /// Records released by the receiver in capture order.
    pub delivered_records: u64,
    /// Payload bytes of delivered records.
    pub goodput_bytes: u64,
    /// The receiver's final contiguous cursor.
    pub final_acked_seq: u64,
    /// Whether everything drained before the tick budget ran out.
    pub completed: bool,
    /// Sender counters.
    pub uplink: UplinkCounters,
    /// Receiver counters.
    pub receiver: ReceiverCounters,
    /// Pressure transitions observed on the sender's gauge.
    pub degradation_transitions: u64,
}

/// Drive `records` (capture-order `(seq, payload)` pairs, sequences
/// contiguous from `records[0].0`) through an uplink/receiver pair over
/// `link` until everything is delivered or `max_ticks` elapse. Records
/// cancelled by a breaker trip are re-offered once the breaker closes —
/// the in-memory stand-in for the spool rewind the chaos suite's
/// store-and-forward test exercises for real.
pub fn run_session(
    records: &[(u64, Vec<u8>)],
    uplink: &mut Uplink,
    receiver: &mut Receiver,
    link: &mut dyn Transport,
    max_ticks: u64,
) -> SessionReport {
    let by_seq: HashMap<u64, &Vec<u8>> = records.iter().map(|(s, p)| (*s, p)).collect();
    let mut requeue: VecDeque<u64> = VecDeque::new();
    let mut next = 0usize;
    let mut delivered = 0u64;
    let mut goodput = 0u64;
    let mut ticks = 0u64;
    let mut completed = false;

    for now in 0..max_ticks {
        ticks = now + 1;
        for frame in link.poll_frames(now) {
            if let Some(ack) = receiver.on_frame(&frame) {
                link.send_ack(now, ack);
            }
        }
        for (_, bytes) in receiver.take_ordered() {
            delivered += 1;
            goodput += bytes.len() as u64;
        }
        uplink.tick(now, link);
        for seq in uplink.take_rewind() {
            requeue.push_back(seq);
        }
        while uplink.can_accept(now) {
            if let Some(&seq) = requeue.front() {
                let payload = by_seq.get(&seq).expect("rewound seq was offered");
                if uplink.offer(now, seq, (*payload).clone()) {
                    requeue.pop_front();
                } else {
                    requeue.pop_front(); // already ACKed meanwhile
                }
            } else if next < records.len() {
                let (seq, ref payload) = records[next];
                if !uplink.offer(now, seq, payload.clone()) {
                    break;
                }
                next += 1;
            } else {
                break;
            }
        }
        uplink.set_external_backlog(records.len() - next + requeue.len());
        if next == records.len() && requeue.is_empty() && uplink.idle() && link.is_empty() {
            completed = true;
            break;
        }
    }
    // Drain any release still parked behind the loop boundary.
    for (_, bytes) in receiver.take_ordered() {
        delivered += 1;
        goodput += bytes.len() as u64;
    }

    SessionReport {
        ticks,
        offered_records: next as u64,
        delivered_records: delivered,
        goodput_bytes: goodput,
        final_acked_seq: receiver.acked_seq(),
        completed,
        uplink: uplink.counters(),
        receiver: receiver.counters(),
        degradation_transitions: uplink.pressure().transitions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, len: usize) -> (u64, Vec<u8>) {
        (seq, (0..len).map(|i| (i as u8) ^ (seq as u8)).collect())
    }

    fn records(n: usize, len: usize) -> Vec<(u64, Vec<u8>)> {
        (1..=n as u64).map(|s| record(s, len)).collect()
    }

    fn small_cfg() -> UplinkConfig {
        UplinkConfig {
            frame: FrameConfig {
                payload_cap: 64,
                fragment_overhead: 8,
            },
            window: 4,
            deadline_ticks: 8,
            max_retries: 4,
            accept_limit: 16,
            ..UplinkConfig::default()
        }
    }

    // --- backoff -------------------------------------------------------

    #[test]
    fn backoff_sequence_is_pinned_per_seed() {
        // These literals are the contract: any change to the vendored
        // RNG, the jitter mapping, or the cap logic shows up here.
        let cfg = BackoffConfig {
            base_ticks: 4,
            max_ticks: 64,
            jitter: 0.25,
        };
        let seq =
            |seed: u64| -> Vec<u64> { (0..8).map(|a| Backoff::new(cfg, seed).delay(a)).collect() };
        let mut b7 = Backoff::new(cfg, 7);
        let got7: Vec<u64> = (0..8).map(|a| b7.delay(a)).collect();
        let mut b9 = Backoff::new(cfg, 9);
        let got9: Vec<u64> = (0..8).map(|a| b9.delay(a)).collect();
        assert_eq!(got7, [3, 7, 18, 31, 79, 63, 71, 59]);
        assert_eq!(got9, [4, 8, 14, 38, 50, 52, 61, 55]);
        // First-call determinism: a fresh instance at the same seed
        // produces the same first delay regardless of attempt index math.
        assert_eq!(seq(7)[0], got7[0]);
    }

    #[test]
    fn backoff_same_seed_same_sequence() {
        let cfg = BackoffConfig::default();
        let mut a = Backoff::new(cfg, 42);
        let mut b = Backoff::new(cfg, 42);
        for attempt in 0..20 {
            assert_eq!(a.delay(attempt), b.delay(attempt));
        }
    }

    #[test]
    fn backoff_without_jitter_is_pure_exponential() {
        let cfg = BackoffConfig {
            base_ticks: 2,
            max_ticks: 32,
            jitter: 0.0,
        };
        let mut b = Backoff::new(cfg, 1);
        let got: Vec<u64> = (0..7).map(|a| b.delay(a)).collect();
        assert_eq!(got, [2, 4, 8, 16, 32, 32, 32], "doubles then caps");
    }

    #[test]
    fn backoff_jittered_delays_stay_in_band() {
        let cfg = BackoffConfig {
            base_ticks: 8,
            max_ticks: 128,
            jitter: 0.25,
        };
        let mut b = Backoff::new(cfg, 3);
        for attempt in 0..10u32 {
            let raw = (8u64 << attempt.min(10)).min(128) as f64;
            let d = b.delay(attempt) as f64;
            assert!(d >= (raw * 0.75).floor() && d <= (raw * 1.25).ceil());
        }
    }

    // --- watermarks ----------------------------------------------------

    #[test]
    fn watermarks_have_hysteresis() {
        let w = PressureWatermarks {
            elevated_set: 10,
            elevated_clear: 5,
            critical_set: 20,
            critical_clear: 12,
        };
        use LinkPressure::*;
        let mut l = Nominal;
        l = w.classify(l, 9);
        assert_eq!(l, Nominal);
        l = w.classify(l, 10);
        assert_eq!(l, Elevated);
        // Oscillating between clear and set does not flap.
        l = w.classify(l, 7);
        assert_eq!(l, Elevated);
        l = w.classify(l, 5);
        assert_eq!(l, Nominal);
        l = w.classify(l, 25);
        assert_eq!(l, Critical, "jumps straight to critical");
        l = w.classify(l, 15);
        assert_eq!(l, Critical, "above critical_clear stays critical");
        l = w.classify(l, 12);
        assert_eq!(l, Elevated);
        l = w.classify(l, 4);
        assert_eq!(l, Nominal, "full release in one step when deep below");
    }

    #[test]
    fn gauge_counts_transitions() {
        let g = PressureGauge::new();
        assert_eq!(g.level(), LinkPressure::Nominal);
        g.set(LinkPressure::Elevated);
        g.set(LinkPressure::Elevated);
        g.set(LinkPressure::Critical);
        g.set(LinkPressure::Nominal);
        assert_eq!(g.transitions(), 3);
    }

    // --- wire integrity ------------------------------------------------

    #[test]
    fn frame_crc_rejects_corruption() {
        let frame = UplinkFrame::new(
            9,
            FrameKind::Data,
            vec![WireFragment {
                seq: 1,
                offset: 0,
                last: true,
                bytes: vec![1, 2, 3, 4],
            }],
        );
        assert!(frame.verify());
        let mut bad = frame.clone();
        bad.fragments[0].bytes[2] ^= 0x40;
        assert!(!bad.verify());
        let mut bad_id = frame.clone();
        bad_id.frame_id = 10;
        assert!(!bad_id.verify());
        let ack = Ack::new(9, 1);
        assert!(ack.verify());
        let mut bad_ack = ack;
        bad_ack.cumulative_seq = 2;
        assert!(!bad_ack.verify());
    }

    // --- receiver reassembly -------------------------------------------

    #[test]
    fn receiver_reassembles_across_duplicate_and_overlapping_fragments() {
        let mut rx = Receiver::new();
        let payload: Vec<u8> = (0..40u8).collect();
        let frag = |offset: usize, end: usize, last: bool| WireFragment {
            seq: 1,
            offset,
            last,
            bytes: payload[offset..end].to_vec(),
        };
        // Out of order, with a duplicate middle and an overlapping cut.
        let f1 = UplinkFrame::new(0, FrameKind::Data, vec![frag(20, 40, true)]);
        let f2 = UplinkFrame::new(1, FrameKind::Data, vec![frag(10, 25, false)]);
        let f3 = UplinkFrame::new(2, FrameKind::Data, vec![frag(10, 25, false)]);
        let f4 = UplinkFrame::new(3, FrameKind::Data, vec![frag(0, 12, false)]);
        for f in [&f1, &f2, &f3, &f4] {
            rx.on_frame(f);
        }
        let out = rx.take_ordered();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1, payload);
        assert_eq!(rx.counters().records_delivered, 1);
    }

    #[test]
    fn receiver_releases_in_capture_order_only() {
        let mut rx = Receiver::new();
        let whole = |seq: u64, bytes: Vec<u8>| {
            UplinkFrame::new(
                100 + seq,
                FrameKind::Data,
                vec![WireFragment {
                    seq,
                    offset: 0,
                    last: true,
                    bytes,
                }],
            )
        };
        rx.on_frame(&whole(2, vec![2; 4]));
        rx.on_frame(&whole(3, vec![3; 4]));
        assert!(rx.take_ordered().is_empty(), "hole at 1 blocks release");
        assert_eq!(rx.pending_release(), 2);
        rx.on_frame(&whole(1, vec![1; 4]));
        let out = rx.take_ordered();
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(rx.acked_seq(), 3);
    }

    #[test]
    fn receiver_dedups_whole_record_duplicates() {
        let mut rx = Receiver::new();
        let f = UplinkFrame::new(
            0,
            FrameKind::Data,
            vec![WireFragment {
                seq: 1,
                offset: 0,
                last: true,
                bytes: vec![7; 8],
            }],
        );
        let a1 = rx.on_frame(&f).expect("acked");
        let a2 = rx.on_frame(&f).expect("acked again");
        assert_eq!(a1.cumulative_seq, 1);
        assert_eq!(a2.cumulative_seq, 1);
        assert_eq!(rx.take_ordered().len(), 1);
        assert_eq!(rx.counters().duplicate_fragments, 1);
    }

    #[test]
    fn zero_length_record_delivers() {
        let mut rx = Receiver::new();
        let f = UplinkFrame::new(
            0,
            FrameKind::Data,
            vec![WireFragment {
                seq: 1,
                offset: 0,
                last: true,
                bytes: Vec::new(),
            }],
        );
        rx.on_frame(&f);
        let out = rx.take_ordered();
        assert_eq!(out, vec![(1, Vec::new())]);
    }

    // --- breaker -------------------------------------------------------

    #[test]
    fn breaker_trips_opens_probes_and_closes() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after: 3,
            open_ticks: 10,
            probes_to_close: 2,
        });
        assert_eq!(b.state(0), BreakerState::Closed);
        assert!(!b.on_timeout(1));
        assert!(!b.on_timeout(2));
        assert!(b.on_timeout(3), "third consecutive timeout trips");
        assert_eq!(b.state(4), BreakerState::Open { until: 13 });
        assert_eq!(b.state(13), BreakerState::HalfOpen);
        assert!(!b.on_probe_ack(), "first probe success not enough");
        assert!(b.on_probe_ack(), "second closes");
        assert_eq!(b.state(14), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn breaker_probe_timeout_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after: 1,
            open_ticks: 5,
            probes_to_close: 1,
        });
        assert!(b.on_timeout(0));
        assert_eq!(b.state(5), BreakerState::HalfOpen);
        assert!(b.on_timeout(6), "probe timeout reopens");
        assert_eq!(b.state(6), BreakerState::Open { until: 11 });
        assert_eq!(b.trips(), 2);
        // An ACK while closed resets the streak.
        assert_eq!(b.state(11), BreakerState::HalfOpen);
        b.on_probe_ack();
        assert_eq!(b.state(12), BreakerState::Closed);
        b.on_ack();
        assert!(b.on_timeout(13), "trip_after=1 trips immediately again");
    }

    // --- sender over a perfect link -------------------------------------

    #[test]
    fn perfect_link_delivers_everything_exactly_once_no_retries() {
        let recs = records(40, 50);
        let mut up = Uplink::new(small_cfg());
        let mut rx = Receiver::new();
        let mut link = PerfectLink::new(2);
        let report = run_session(&recs, &mut up, &mut rx, &mut link, 10_000);
        assert!(report.completed);
        assert_eq!(report.delivered_records, 40);
        assert_eq!(report.final_acked_seq, 40);
        assert_eq!(report.uplink.retries, 0);
        assert_eq!(report.uplink.timeouts, 0);
        assert_eq!(report.uplink.trips, 0);
        assert_eq!(report.receiver.duplicate_records, 0);
        assert_eq!(report.goodput_bytes, 40 * 50);
    }

    #[test]
    fn window_bounds_in_flight_frames() {
        let mut cfg = small_cfg();
        cfg.window = 2;
        cfg.deadline_ticks = 20; // must exceed the 12-tick round trip
        let recs = records(30, 60);
        let mut up = Uplink::new(cfg);
        let mut rx = Receiver::new();
        // High latency: the window must throttle, never exceed 2.
        let mut link = PerfectLink::new(6);
        let mut offered = 0usize;
        for now in 0..2_000u64 {
            for frame in link.poll_frames(now) {
                if let Some(ack) = rx.on_frame(&frame) {
                    link.send_ack(now, ack);
                }
            }
            up.tick(now, &mut link);
            assert!(up.in_flight.len() <= 2, "window violated");
            while offered < recs.len() && up.offer(now, recs[offered].0, recs[offered].1.clone()) {
                offered += 1;
            }
            if offered == recs.len() && up.idle() && link.is_empty() {
                break;
            }
        }
        rx.take_ordered();
        assert_eq!(rx.acked_seq(), 30);
    }

    #[test]
    fn lossy_link_recovers_via_retries() {
        let recs = records(60, 40);
        let mut up = Uplink::new(small_cfg());
        let mut rx = Receiver::new();
        let mut link = FaultyLink::new(FaultSpec::lossy(2, 0.3), 11);
        let report = run_session(&recs, &mut up, &mut rx, &mut link, 50_000);
        assert!(report.completed, "30% loss must still drain");
        assert_eq!(report.delivered_records, 60);
        assert_eq!(report.final_acked_seq, 60);
        assert!(report.uplink.retries > 0, "loss must force retries");
        assert_eq!(
            link.counters().frames_sent,
            report.uplink.frames_sent + report.uplink.retries + report.uplink.half_open_probes
        );
    }

    #[test]
    fn faulty_link_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let recs = records(30, 48);
            let mut up = Uplink::new(small_cfg());
            let mut rx = Receiver::new();
            let mut link = FaultyLink::new(
                FaultSpec {
                    drop: 0.2,
                    duplicate: 0.15,
                    corrupt: 0.1,
                    ack_drop: 0.1,
                    ..FaultSpec::lossy(2, 0.2)
                },
                seed,
            );
            let rep = run_session(&recs, &mut up, &mut rx, &mut link, 50_000);
            (rep.ticks, rep.uplink, rep.receiver, link.counters())
        };
        assert_eq!(run(5), run(5), "same seed, same everything");
        assert_ne!(run(5).3, run(6).3, "different seed, different faults");
    }

    #[test]
    fn trip_cancels_and_reports_rewind() {
        let mut cfg = small_cfg();
        cfg.breaker = BreakerConfig {
            trip_after: 2,
            open_ticks: 50,
            probes_to_close: 1,
        };
        cfg.max_retries = 1;
        let mut up = Uplink::new(cfg);
        let mut link = FaultyLink::new(
            FaultSpec {
                drop: 1.0,
                ..FaultSpec::clean(1)
            },
            0,
        );
        for (seq, payload) in records(6, 40) {
            assert!(up.offer(0, seq, payload));
        }
        let mut now = 0;
        while up.breaker_state(now) == BreakerState::Closed && now < 500 {
            up.tick(now, &mut link);
            now += 1;
        }
        assert!(matches!(up.breaker_state(now), BreakerState::Open { .. }));
        let rewind = up.take_rewind();
        assert!(!rewind.is_empty(), "trip hands back un-ACKed records");
        assert!(up.idle(), "everything cancelled");
        assert!(!up.can_accept(now), "open breaker refuses offers");
        assert!(up.counters().trips >= 1);
    }

    #[test]
    fn pressure_gauge_rises_with_backlog_and_releases() {
        let mut cfg = small_cfg();
        cfg.watermarks = PressureWatermarks {
            elevated_set: 4,
            elevated_clear: 2,
            critical_set: 8,
            critical_clear: 5,
        };
        cfg.accept_limit = 32;
        // Keep the breaker out of the way: this test is about the gauge.
        cfg.breaker.trip_after = 1000;
        let mut up = Uplink::new(cfg);
        let gauge = up.pressure();
        // Stall the link so backlog builds, then let it drain clean.
        let mut link = FaultyLink::with_schedule(
            vec![
                Phase {
                    until_tick: 40,
                    spec: FaultSpec::stalled(),
                },
                Phase {
                    until_tick: u64::MAX,
                    spec: FaultSpec::clean(1),
                },
            ],
            3,
        );
        let recs = records(12, 30);
        let mut rx = Receiver::new();
        let mut offered = 0usize;
        for now in 0..400u64 {
            for frame in link.poll_frames(now) {
                if let Some(ack) = rx.on_frame(&frame) {
                    link.send_ack(now, ack);
                }
            }
            while offered < recs.len() && up.offer(now, recs[offered].0, recs[offered].1.clone()) {
                offered += 1;
            }
            up.tick(now, &mut link);
            if now == 30 {
                assert_eq!(gauge.level(), LinkPressure::Critical, "stalled backlog");
            }
        }
        assert_eq!(gauge.level(), LinkPressure::Nominal, "drained backlog");
        assert!(gauge.transitions() >= 2, "engaged and released");
        rx.take_ordered();
        assert_eq!(rx.acked_seq(), 12);
    }
}
