//! Store-and-forward wiring between the offline mode and the durable
//! segment spool (DESIGN.md §6d).
//!
//! During a disconnect the offline pipeline keeps compressing under its
//! storage budget; egress drains land in the [`adaedge_storage::Spool`]
//! as CRC-framed, sequenced records via [`SpoolSink`]. On reconnect,
//! [`run_reconnect`] replays the backlog **in capture order at a
//! controlled rate** through the existing [`FramePacker`], while the
//! ingest side's [`IngestLedger`] dedups duplicates idempotently and
//! reports `acked_seq` (highest contiguous durably-ingested sequence)
//! back to the spool — which garbage-collects only fully-ACKed closed
//! segments. Together: at-least-once delivery, exactly-once ingest.

use crate::error::AdaEdgeError;
use crate::frame::{FrameConfig, FrameItem, FramePacker, Priority, StreamId, TransportFrame};
use crate::offline::OfflineAdaEdge;
use adaedge_codecs::{CodecId, CodecRegistry, CompressedBlock};
use adaedge_storage::spool::{ReplayItem, Spool, SpoolError, SpoolStats};
use std::collections::BTreeSet;

/// Errors from the store-and-forward layer: either the durable spool or
/// the compression engine feeding it.
#[derive(Debug)]
pub enum RelayError {
    /// The spool failed (I/O, configuration).
    Spool(SpoolError),
    /// The engine failed while producing egress.
    Engine(AdaEdgeError),
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::Spool(e) => write!(f, "relay spool error: {e}"),
            RelayError::Engine(e) => write!(f, "relay engine error: {e}"),
        }
    }
}

impl std::error::Error for RelayError {}

impl From<SpoolError> for RelayError {
    fn from(e: SpoolError) -> Self {
        RelayError::Spool(e)
    }
}

impl From<AdaEdgeError> for RelayError {
    fn from(e: AdaEdgeError) -> Self {
        RelayError::Engine(e)
    }
}

/// Serialize a compressed block into a spool-record payload.
///
/// Format (little-endian): codec-name len `u8` + name bytes, `n_points:
/// u32`, payload len `u32`, payload bytes — the same name-keyed idiom as
/// the persist formats, so the record survives codec-enum reordering.
/// Integrity is the spool frame's CRC-32C; no second checksum here.
pub fn encode_block(block: &CompressedBlock) -> Vec<u8> {
    let name = block.codec.name().as_bytes();
    let mut out = Vec::with_capacity(1 + name.len() + 8 + block.payload.len());
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out.extend_from_slice(&block.n_points.to_le_bytes());
    out.extend_from_slice(&(block.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&block.payload);
    out
}

/// Deserialize a spool-record payload written by [`encode_block`].
/// Returns `None` on any structural mismatch (defensive: the spool frame
/// CRC already rejects bit rot, so this only fires on logic errors or
/// foreign payloads).
pub fn decode_block(bytes: &[u8]) -> Option<CompressedBlock> {
    let (&name_len, rest) = bytes.split_first()?;
    let name_len = name_len as usize;
    if rest.len() < name_len + 8 {
        return None;
    }
    let (name, rest) = rest.split_at(name_len);
    let codec = CodecId::from_name(std::str::from_utf8(name).ok()?)?;
    let (n_points_bytes, rest) = rest.split_at(4);
    let n_points = u32::from_le_bytes(n_points_bytes.try_into().ok()?);
    let (len_bytes, rest) = rest.split_at(4);
    let payload_len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    if rest.len() != payload_len {
        return None;
    }
    Some(CompressedBlock {
        codec,
        n_points,
        payload: rest.to_vec(),
    })
}

/// The disconnect-side sink: compressed egress goes into the durable
/// spool instead of over the (down) link.
#[derive(Debug)]
pub struct SpoolSink {
    spool: Spool,
    spooled_blocks: u64,
    spooled_payload_bytes: u64,
}

impl SpoolSink {
    /// Wrap an open spool.
    pub fn new(spool: Spool) -> Self {
        Self {
            spool,
            spooled_blocks: 0,
            spooled_payload_bytes: 0,
        }
    }

    /// Spool one compressed block, returning its capture sequence.
    pub fn put_block(
        &mut self,
        timestamp: u64,
        block: &CompressedBlock,
    ) -> Result<u64, SpoolError> {
        let payload = encode_block(block);
        let seq = self.spool.append(timestamp, &payload)?;
        self.spooled_blocks += 1;
        self.spooled_payload_bytes += payload.len() as u64;
        Ok(seq)
    }

    /// Flush the batched-sync window (ship-boundary durability).
    pub fn sync(&mut self) -> Result<(), SpoolError> {
        self.spool.sync()
    }

    /// Blocks spooled through this sink.
    pub fn spooled_blocks(&self) -> u64 {
        self.spooled_blocks
    }

    /// Encoded payload bytes spooled through this sink (frame overheads
    /// excluded).
    pub fn spooled_payload_bytes(&self) -> u64 {
        self.spooled_payload_bytes
    }

    /// The underlying spool (read access).
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// Unwrap the spool.
    pub fn into_spool(self) -> Spool {
        self.spool
    }
}

/// Drain the offline pipeline's freshest segments (its reconnection
/// egress plan) into the spool — the "disconnect" leg of store-and-
/// forward. Returns `(blocks, encoded payload bytes)` spooled.
pub fn spool_offline_egress(
    edge: &mut OfflineAdaEdge,
    sink: &mut SpoolSink,
    byte_budget: usize,
    timestamp: u64,
) -> Result<(usize, u64), RelayError> {
    let shipped = edge.drain(byte_budget)?;
    let mut bytes = 0u64;
    let count = shipped.len();
    for (_, block) in &shipped {
        sink.put_block(timestamp, block)?;
        bytes += block.payload.len() as u64;
    }
    sink.sync()?;
    Ok((count, bytes))
}

/// The ingest side's idempotent at-least-once ledger.
///
/// Replay (and live publishing) may deliver a sequence more than once —
/// after a reconnect the spool resends everything above the last ACK it
/// saw. [`IngestLedger::accept`] admits each sequence exactly once;
/// `acked_seq` is the highest *contiguous* sequence durably ingested,
/// which is what the spool's ACK-gated GC keys on. Known-lost ranges
/// (reported by the replayer as gaps) advance the cursor without
/// counting as ingested.
#[derive(Debug, Clone, Default)]
pub struct IngestLedger {
    acked: u64,
    out_of_order: BTreeSet<u64>,
    accepted: u64,
    duplicates: u64,
    lost: u64,
}

impl IngestLedger {
    /// Fresh ledger (nothing ingested; `acked_seq() == 0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one delivered sequence. Returns `true` when it is new (the
    /// caller should ingest the payload), `false` for a duplicate (drop
    /// it — idempotency). Sequence 0 is never valid.
    pub fn accept(&mut self, seq: u64) -> bool {
        if seq == 0 || seq <= self.acked || self.out_of_order.contains(&seq) {
            self.duplicates += 1;
            return false;
        }
        self.out_of_order.insert(seq);
        self.accepted += 1;
        self.advance();
        true
    }

    /// Record that sequences `from..=to` are unrecoverable at the source
    /// (spool bit rot or retention drop): the contiguity cursor may move
    /// past them so delivery of the surviving backlog can still be ACKed.
    pub fn mark_lost(&mut self, from: u64, to: u64) {
        for seq in from.max(1)..=to {
            if seq > self.acked && self.out_of_order.insert(seq) {
                self.lost += 1;
            }
        }
        self.advance();
    }

    fn advance(&mut self) {
        while self.out_of_order.remove(&(self.acked + 1)) {
            self.acked += 1;
        }
    }

    /// Whether `seq` has already been admitted (contiguously or out of
    /// order). Receivers use this to drop duplicate fragments *before*
    /// spending reassembly work on a record the ledger would refuse.
    pub fn seen(&self, seq: u64) -> bool {
        seq != 0 && (seq <= self.acked || self.out_of_order.contains(&seq))
    }

    /// Highest contiguous sequence ingested (or known lost).
    pub fn acked_seq(&self) -> u64 {
        self.acked
    }

    /// Sequences accepted exactly once.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Duplicate deliveries dropped.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Sequences recorded lost at the source.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

/// Reconnect-replay configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Records drained per tick — the controlled backfill rate (the ADR's
    /// rate-limited replay; one tick ≈ one transmit window).
    pub records_per_tick: usize,
    /// Transport frame geometry for the packer.
    pub frame: FrameConfig,
    /// Stream id stamped on replayed fragments.
    pub stream: StreamId,
    /// Transmission class for backfill (default [`Priority::Bulk`]: live
    /// traffic preempts replay, per the packer's ordering).
    pub priority: Priority,
    /// Decode every replayed block through the registry and count
    /// failures (end-to-end verification mode; costs decompression time).
    pub verify_decode: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            records_per_tick: 64,
            frame: FrameConfig::default(),
            stream: 0,
            priority: Priority::Bulk,
            verify_decode: false,
        }
    }
}

/// What a reconnect replay did (counters surfaced into reports).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Rate-limit ticks consumed.
    pub ticks: u64,
    /// Records pulled from the spool.
    pub replayed_records: u64,
    /// Records the ledger admitted (ingested exactly once).
    pub ingested_records: u64,
    /// Duplicate deliveries the ledger dropped.
    pub duplicate_records: u64,
    /// Sequences reported lost (gaps: bit rot / retention).
    pub lost_records: u64,
    /// Replayed records whose payload failed to decode back into a
    /// compressed block (only counted with `verify_decode`).
    pub decode_failures: u64,
    /// Transport frames emitted by the packer.
    pub frames_emitted: u64,
    /// Frame bytes emitted (payload + fragment overheads).
    pub frame_bytes: u64,
    /// Largest emitted frame (never above the configured cap).
    pub max_frame_used: usize,
    /// Segment files GC'd during the replay (ACK-gated).
    pub gc_segments: u64,
    /// The ledger's final contiguous cursor.
    pub final_acked_seq: u64,
    /// Spool depth and lifetime counters after the replay.
    pub spool: SpoolStats,
}

/// Replay the spool's durable backlog (everything above the ledger's
/// cursor) through a [`FramePacker`] at a controlled rate — the
/// "reconnect" leg of store-and-forward.
///
/// Every tick drains up to `records_per_tick` records, emits the frames
/// that are ready, and reports the ledger's `acked_seq` back to the
/// spool, which GCs fully-ACKed closed segments as the replay advances —
/// spool disk usage shrinks *during* a long backfill, not after it.
/// Emitted frames are passed to `emit` (transmit hook; tests collect
/// them, production would hand them to the radio).
pub fn run_reconnect(
    spool: &mut Spool,
    ledger: &mut IngestLedger,
    registry: &CodecRegistry,
    cfg: &ReplayConfig,
    mut emit: impl FnMut(TransportFrame),
) -> Result<ReplayReport, SpoolError> {
    assert!(cfg.records_per_tick > 0, "records_per_tick must be > 0");
    let mut packer = FramePacker::new(cfg.frame);
    let mut report = ReplayReport {
        ticks: 0,
        replayed_records: 0,
        ingested_records: 0,
        duplicate_records: 0,
        lost_records: 0,
        decode_failures: 0,
        frames_emitted: 0,
        frame_bytes: 0,
        max_frame_used: 0,
        gc_segments: 0,
        final_acked_seq: 0,
        spool: SpoolStats::default(),
    };
    let dup_before = ledger.duplicates();
    let lost_before = ledger.lost();
    let ingested_before = ledger.accepted();

    let replayer = spool.replayer(ledger.acked_seq())?;
    let items: Vec<ReplayItem> = replayer.collect();
    let mut in_tick = 0usize;
    for item in items {
        match item {
            ReplayItem::Record(rec) => {
                report.replayed_records += 1;
                in_tick += 1;
                if !ledger.accept(rec.seq) {
                    // Duplicate delivery: idempotent drop, nothing packed.
                } else {
                    let mut len = rec.payload.len();
                    if cfg.verify_decode {
                        match decode_block(&rec.payload) {
                            Some(block) => {
                                if registry.decompress(&block).is_err() {
                                    report.decode_failures += 1;
                                }
                                len = block.payload.len();
                            }
                            None => report.decode_failures += 1,
                        }
                    }
                    packer.push(FrameItem {
                        stream: cfg.stream,
                        priority: cfg.priority,
                        seq: rec.seq,
                        len,
                    });
                }
            }
            ReplayItem::Gap { from_seq, to_seq } => {
                ledger.mark_lost(from_seq, to_seq);
            }
        }
        if in_tick >= cfg.records_per_tick {
            in_tick = 0;
            report.ticks += 1;
            while packer.frame_ready() {
                if let Some(frame) = packer.next_frame() {
                    emit(frame);
                } else {
                    break;
                }
            }
            report.gc_segments += spool.ack(ledger.acked_seq())? as u64;
        }
    }
    if in_tick > 0 {
        report.ticks += 1;
    }
    for frame in packer.flush() {
        emit(frame);
    }
    report.gc_segments += spool.ack(ledger.acked_seq())? as u64;

    report.ingested_records = ledger.accepted() - ingested_before;
    report.duplicate_records = ledger.duplicates() - dup_before;
    report.lost_records = ledger.lost() - lost_before;
    report.frames_emitted = packer.frames_emitted();
    report.frame_bytes = packer.bytes_emitted();
    report.max_frame_used = packer.max_frame_used();
    report.final_acked_seq = ledger.acked_seq();
    report.spool = spool.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_storage::spool::SpoolConfig;
    use std::time::Duration;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "adaedge-spooling-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn spool(dir: &std::path::Path) -> Spool {
        let mut c = SpoolConfig::new(dir);
        c.sync_interval = Duration::from_secs(3600);
        c.segment_max_bytes = 4096;
        Spool::open(c).unwrap()
    }

    fn sample_block(i: u64) -> CompressedBlock {
        CompressedBlock {
            codec: CodecId::Raw,
            n_points: 4,
            payload: (0..32u8).map(|b| b.wrapping_add(i as u8)).collect(),
        }
    }

    #[test]
    fn block_roundtrips_through_spool_payload() {
        let block = sample_block(3);
        let bytes = encode_block(&block);
        assert_eq!(decode_block(&bytes).unwrap(), block);
        // Structural damage is rejected, not panicked on.
        assert!(decode_block(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_block(&[]).is_none());
        let mut wrong_name = bytes.clone();
        wrong_name[1] = b'?';
        assert!(decode_block(&wrong_name).is_none());
    }

    #[test]
    fn ledger_dedups_and_tracks_contiguity() {
        let mut ledger = IngestLedger::new();
        assert!(ledger.accept(1));
        assert!(ledger.accept(3));
        assert_eq!(ledger.acked_seq(), 1, "3 waits on the hole at 2");
        assert!(!ledger.accept(3), "duplicate dropped");
        assert!(ledger.accept(2));
        assert_eq!(ledger.acked_seq(), 3);
        assert!(!ledger.accept(1), "already contiguous");
        assert!(!ledger.accept(0), "seq 0 invalid");
        assert_eq!(ledger.accepted(), 3);
        assert_eq!(ledger.duplicates(), 3);
    }

    #[test]
    fn ledger_lost_ranges_advance_cursor_without_counting_ingest() {
        let mut ledger = IngestLedger::new();
        assert!(ledger.accept(1));
        ledger.mark_lost(2, 4);
        assert_eq!(ledger.acked_seq(), 4);
        assert_eq!(ledger.lost(), 3);
        assert!(ledger.accept(5));
        assert_eq!(ledger.acked_seq(), 5);
        assert_eq!(ledger.accepted(), 2);
        // A "lost" record that later shows up is a duplicate.
        assert!(!ledger.accept(3));
    }

    #[test]
    fn reconnect_replays_everything_exactly_once_and_gcs() {
        let dir = tmpdir("reconnect");
        let mut sink = SpoolSink::new(spool(&dir));
        for i in 0..200u64 {
            sink.put_block(i, &sample_block(i)).unwrap();
        }
        sink.sync().unwrap();
        let mut sp = sink.into_spool();
        let mut ledger = IngestLedger::new();
        let reg = CodecRegistry::new(4);
        let cfg = ReplayConfig {
            records_per_tick: 16,
            verify_decode: true,
            ..ReplayConfig::default()
        };
        let mut frames = Vec::new();
        let report = run_reconnect(&mut sp, &mut ledger, &reg, &cfg, |f| frames.push(f)).unwrap();
        assert_eq!(report.replayed_records, 200);
        assert_eq!(report.ingested_records, 200);
        assert_eq!(report.duplicate_records, 0);
        assert_eq!(report.decode_failures, 0);
        assert_eq!(report.final_acked_seq, 200);
        assert_eq!(report.ticks, 200 / 16 + 1);
        assert!(report.frames_emitted > 0);
        assert!(report.max_frame_used <= cfg.frame.payload_cap);
        assert_eq!(report.frames_emitted as usize, frames.len());
        // ACK-gated GC ran during the replay: only the open segment's
        // records remain on disk.
        assert!(report.gc_segments > 0, "GC should run mid-replay");
        assert_eq!(report.spool.closed_segments, 0);
        // A second reconnect has nothing new: full dedup, zero ingest.
        let report2 = run_reconnect(&mut sp, &mut ledger, &reg, &cfg, |_| {}).unwrap();
        assert_eq!(report2.ingested_records, 0);
        assert_eq!(report2.final_acked_seq, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reconnect_resumes_mid_backlog_idempotently() {
        let dir = tmpdir("resume");
        let mut sp = spool(&dir);
        for i in 0..50u64 {
            sp.append(i, &encode_block(&sample_block(i))).unwrap();
        }
        sp.sync().unwrap();
        let reg = CodecRegistry::new(4);
        let cfg = ReplayConfig::default();
        // First link window: the ingest side saw some records but its ACK
        // (say 20) only partially covers them.
        let mut ledger = IngestLedger::new();
        for seq in 1..=20u64 {
            ledger.accept(seq);
        }
        let report = run_reconnect(&mut sp, &mut ledger, &reg, &cfg, |_| {}).unwrap();
        assert_eq!(report.replayed_records, 30, "only the un-ACKed tail");
        assert_eq!(report.ingested_records, 30);
        assert_eq!(ledger.accepted(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }
}
