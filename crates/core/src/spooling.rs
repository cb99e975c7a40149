//! Store-and-forward (DESIGN.md §6d): one [`Forwarder`] drives the
//! durable spool into the uplink, and the ingest side's
//! [`Receiver`](crate::uplink::Receiver) admits each sequence once.
//!
//! Every compressed block goes through [`Forwarder::submit`]: it is
//! encoded ([`encode_block`]), appended to the [`Spool`] as a CRC-framed,
//! sequenced record, and offered to the [`Uplink`] at once when the
//! sender has room. What the sender cannot take — a full buffer, an open
//! breaker, the records a trip handed back — stays on disk, and
//! [`Forwarder::tick`] re-reads it in capture order through a lazy spool
//! cursor as fast as the uplink accepts it, so the forwarder holds at most
//! the sender's `accept_limit` records in memory, whatever the backlog.
//! The receiver's cumulative ACK goes back to the spool, which
//! garbage-collects only fully-ACKed closed segments. Together:
//! at-least-once delivery, exactly-once ingest.

use crate::uplink::{Transport, Uplink, UplinkConfig};
use adaedge_codecs::{CodecId, CompressedBlock};
use adaedge_storage::spool::{ReplayItem, Replayer, Spool, SpoolError};

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

/// The store-and-forward loop: owns the durable [`Spool`] and the
/// [`Uplink`] it feeds. Call [`Forwarder::submit`] for every captured
/// block and [`Forwarder::tick`] once per virtual tick; the receive side
/// runs wherever the transport delivers.
///
/// A new forwarder resumes at the spool's `acked_seq + 1`. A spool
/// reopened after a crash does not remember its ACK cursor, so a
/// forwarder built on it replays everything still on disk and the
/// receiver drops what it already holds.
/// The replay rate is the uplink's `accept_limit` and `frames_per_tick`;
/// durability is the spool's `sync_interval` and [`Forwarder::sync`].
#[derive(Debug)]
pub struct Forwarder {
    spool: Spool,
    uplink: Uplink,
    /// Next sequence due to the uplink: everything below it was offered,
    /// ACKed, or reported lost by the spool.
    next: u64,
    /// Last sequence appended to the spool.
    head: u64,
    /// Lazy capture-order cursor over the backlog; `None` once it runs
    /// dry or a rewind moves `next` below it.
    cursor: Option<Replayer>,
    /// Sorted, disjoint ranges the spool reported as gaps that the
    /// receiver's cumulative ACK has not passed.
    gaps: Vec<(u64, u64)>,
}

impl Forwarder {
    /// A forwarder over `spool`, sending through a new uplink.
    pub fn new(spool: Spool, uplink: UplinkConfig) -> Self {
        let stats = spool.stats();
        Self {
            spool,
            uplink: Uplink::new(uplink),
            next: stats.acked_seq + 1,
            head: stats.next_seq - 1,
            cursor: None,
            gaps: Vec::new(),
        }
    }

    /// Spool one compressed block and return its sequence. The record is
    /// offered live only when it is the next one due and the uplink
    /// accepts it; otherwise [`Forwarder::tick`] replays it from disk.
    pub fn submit(&mut self, now: u64, block: &CompressedBlock) -> Result<u64, SpoolError> {
        let payload = encode_block(block);
        let seq = self.spool.append(now, &payload)?;
        self.head = seq;
        if seq == self.next && self.uplink.offer(now, seq, payload) {
            self.next += 1;
        }
        Ok(seq)
    }

    /// One virtual-time step: tick the uplink, rewind below whatever a
    /// breaker trip cancelled, offer the backlog while the uplink accepts,
    /// and ACK the spool up to the receiver's cumulative cursor.
    pub fn tick(&mut self, now: u64, transport: &mut dyn Transport) -> Result<(), SpoolError> {
        self.uplink.tick(now, transport);
        if let Some(lo) = self.uplink.take_rewind().into_iter().min() {
            self.next = self.next.min(lo);
            self.cursor = None;
        }
        let mut rebuilt = false;
        while self.next <= self.head && self.uplink.can_accept(now) {
            if self.cursor.is_none() {
                if rebuilt {
                    break; // a fresh cursor has nothing more
                }
                self.cursor = Some(self.spool.replayer(self.next - 1)?);
                rebuilt = true;
            }
            match self.cursor.as_mut().and_then(Iterator::next) {
                None => self.cursor = None,
                Some(ReplayItem::Record(rec)) => {
                    if rec.seq >= self.next {
                        // A refused re-offer means the record was ACKed
                        // meanwhile.
                        self.uplink.offer(now, rec.seq, rec.payload);
                        self.next = rec.seq + 1;
                    }
                }
                Some(ReplayItem::Gap { from_seq, to_seq }) => {
                    match self.gaps.last_mut() {
                        Some(last) if from_seq <= last.1 + 1 => last.1 = last.1.max(to_seq),
                        _ => self.gaps.push((from_seq, to_seq)),
                    }
                    self.next = self.next.max(to_seq + 1);
                }
            }
        }
        self.uplink
            .set_external_backlog((self.head + 1).saturating_sub(self.next) as usize);
        let acked = self.uplink.acked_seq();
        self.gaps.retain(|&(_, to)| to > acked);
        if let Some(first) = self.gaps.first_mut() {
            first.0 = first.0.max(acked + 1);
        }
        self.spool.ack(acked)?;
        Ok(())
    }

    /// Make every appended record durable now.
    pub fn sync(&mut self) -> Result<(), SpoolError> {
        self.spool.sync()
    }

    /// Sequences the spool could not replay (retention drops, bit rot)
    /// and the receiver has not ACKed. A gap the receiver's cursor later
    /// passes was delivered before and stops counting: the GC'd prefix of
    /// a spool reopened after a crash, whose ACK cursor is not persisted,
    /// replays as a gap until the first ACK arrives.
    pub fn lost(&self) -> u64 {
        self.gaps.iter().map(|&(from, to)| to - from + 1).sum()
    }

    /// The spool (depth gauges and lifetime counters).
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// The uplink (counters, pressure gauge, cumulative ACK).
    pub fn uplink(&self) -> &Uplink {
        &self.uplink
    }

    /// Unwrap the spool, e.g. to hand it to the next forwarder.
    pub fn into_spool(self) -> Spool {
        self.spool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameConfig;
    use crate::heap::live_bytes;
    use crate::uplink::{FaultSpec, FaultyLink, Phase, Receiver};
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

    /// A raw block of `len` payload bytes derived from `seq`.
    fn block(seq: u64, len: usize) -> CompressedBlock {
        CompressedBlock {
            codec: CodecId::Raw,
            n_points: (len / 8) as u32,
            payload: (0..len).map(|i| (i as u8) ^ (seq as u8)).collect(),
        }
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

    /// What one drive of a forwarder/receiver pair did.
    struct Run {
        ticks: u64,
        /// Records the receiver released, in release order.
        released: Vec<(u64, Vec<u8>)>,
        completed: bool,
    }

    /// Tick `fwd` and a receiver over `link` until the receiver holds
    /// every record the spool has and the link is quiet, or `max_ticks`
    /// pass.
    fn drive(fwd: &mut Forwarder, rx: &mut Receiver, link: &mut FaultyLink, max_ticks: u64) -> Run {
        let head = fwd.spool().stats().next_seq - 1;
        let mut released = Vec::new();
        for now in 0..max_ticks {
            for frame in link.poll_frames(now) {
                assert!(frame.payload_len() <= small_cfg().frame.payload_cap);
                if let Some(ack) = rx.on_frame(&frame) {
                    link.send_ack(now, ack);
                }
            }
            released.extend(rx.take_ordered());
            fwd.tick(now, link).unwrap();
            if rx.acked_seq() == head && fwd.uplink().idle() && link.is_empty() {
                return Run {
                    ticks: now + 1,
                    released,
                    completed: true,
                };
            }
        }
        Run {
            ticks: max_ticks,
            released,
            completed: false,
        }
    }

    /// Decoded payload bytes of released records (goodput).
    fn goodput(released: &[(u64, Vec<u8>)]) -> usize {
        released
            .iter()
            .map(|(_, bytes)| decode_block(bytes).expect("decodes").payload.len())
            .sum()
    }

    #[test]
    fn block_roundtrips_through_spool_payload() {
        let block = block(3, 32);
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
    fn reconnect_replays_everything_exactly_once_and_gcs() {
        let dir = tmpdir("reconnect");
        let mut sp = spool(&dir);
        for i in 0..200u64 {
            sp.append(i, &encode_block(&block(i, 32))).unwrap();
        }
        sp.sync().unwrap();
        let mut fwd = Forwarder::new(sp, small_cfg());
        let mut rx = Receiver::new();
        let mut link = FaultyLink::new(FaultSpec::clean(2), 1);
        let run = drive(&mut fwd, &mut rx, &mut link, 10_000);
        assert!(run.completed);
        assert_eq!(run.released.len(), 200);
        for (i, (seq, bytes)) in run.released.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "capture order");
            assert_eq!(decode_block(bytes), Some(block(i as u64, 32)));
        }
        assert_eq!(rx.counters().duplicate_records, 0);
        assert_eq!(fwd.lost(), 0);
        assert!(fwd.uplink().counters().frames_sent > 0);
        // ACK-gated GC ran: only the open segment's records remain.
        let stats = fwd.spool().stats();
        assert!(stats.gc_segments > 0);
        assert_eq!(stats.closed_segments, 0);
        assert_eq!(stats.acked_seq, 200);
        // A second reconnect has nothing new: it resumes past the ACK.
        let mut fwd = Forwarder::new(fwd.into_spool(), small_cfg());
        let run = drive(&mut fwd, &mut rx, &mut link, 10_000);
        assert!(run.completed);
        assert!(run.released.is_empty());
        assert_eq!(fwd.uplink().counters().frames_sent, 0);
        assert_eq!(rx.counters().records_delivered, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reconnect_resumes_mid_backlog_idempotently() {
        let dir = tmpdir("resume");
        let mut fwd = Forwarder::new(spool(&dir), small_cfg());
        for i in 0..50u64 {
            fwd.submit(i, &block(i, 32)).unwrap();
        }
        // First link window: it closes once the receiver's cursor reaches
        // 20, with ACKs and more records still in flight.
        let mut rx = Receiver::new();
        let mut link = FaultyLink::new(FaultSpec::clean(2), 1);
        let mut now = 0;
        while rx.acked_seq() < 20 {
            for frame in link.poll_frames(now) {
                if let Some(ack) = rx.on_frame(&frame) {
                    link.send_ack(now, ack);
                }
            }
            fwd.tick(now, &mut link).unwrap();
            now += 1;
        }
        // The spool has heard an ACK that covers only part of what the
        // receiver holds.
        let acked = fwd.spool().stats().acked_seq;
        assert!(
            acked > 0 && acked <= rx.acked_seq() && acked < 50,
            "ACK {acked}"
        );
        // The next forwarder replays only the un-ACKed tail.
        let mut fwd = Forwarder::new(fwd.into_spool(), small_cfg());
        let mut link = FaultyLink::new(FaultSpec::clean(2), 2);
        let mut resent = Vec::new();
        for now in 0..10_000u64 {
            for frame in link.poll_frames(now) {
                resent.extend(frame.fragments.iter().map(|f| f.seq));
                if let Some(ack) = rx.on_frame(&frame) {
                    link.send_ack(now, ack);
                }
            }
            fwd.tick(now, &mut link).unwrap();
            if rx.acked_seq() == 50 && fwd.uplink().idle() && link.is_empty() {
                break;
            }
        }
        assert_eq!(rx.acked_seq(), 50);
        assert_eq!(resent.iter().min(), Some(&(acked + 1)), "only the tail");
        assert_eq!(rx.counters().records_delivered, 50, "exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perfect_link_delivers_everything_exactly_once_no_retries() {
        let dir = tmpdir("perfect");
        let mut fwd = Forwarder::new(spool(&dir), small_cfg());
        for seq in 1..=40u64 {
            fwd.submit(0, &block(seq, 50)).unwrap();
        }
        let mut rx = Receiver::new();
        let mut link = FaultyLink::new(FaultSpec::clean(2), 1);
        let run = drive(&mut fwd, &mut rx, &mut link, 10_000);
        assert!(run.completed);
        assert_eq!(run.released.len(), 40);
        assert_eq!(rx.acked_seq(), 40);
        let c = fwd.uplink().counters();
        assert_eq!(c.retries, 0);
        assert_eq!(c.timeouts, 0);
        assert_eq!(c.trips, 0);
        assert_eq!(rx.counters().duplicate_records, 0);
        assert_eq!(goodput(&run.released), 40 * 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_link_recovers_via_retries() {
        let dir = tmpdir("lossy");
        let mut fwd = Forwarder::new(spool(&dir), small_cfg());
        for seq in 1..=60u64 {
            fwd.submit(0, &block(seq, 40)).unwrap();
        }
        let mut rx = Receiver::new();
        let mut link = FaultyLink::new(FaultSpec::lossy(2, 0.3), 11);
        let run = drive(&mut fwd, &mut rx, &mut link, 50_000);
        assert!(run.completed, "30% loss must still drain");
        assert_eq!(run.released.len(), 60);
        assert_eq!(rx.acked_seq(), 60);
        let c = fwd.uplink().counters();
        assert!(c.retries > 0, "loss must force retries");
        assert_eq!(
            link.counters().frames_sent,
            c.frames_sent + c.retries + c.half_open_probes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_link_is_deterministic_per_seed() {
        let run = |seed: u64, name: &str| {
            let dir = tmpdir(name);
            let mut fwd = Forwarder::new(spool(&dir), small_cfg());
            for seq in 1..=30u64 {
                fwd.submit(0, &block(seq, 48)).unwrap();
            }
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
            let ticks = drive(&mut fwd, &mut rx, &mut link, 50_000).ticks;
            std::fs::remove_dir_all(&dir).ok();
            (
                ticks,
                fwd.uplink().counters(),
                rx.counters(),
                link.counters(),
            )
        };
        assert_eq!(
            run(5, "seed-a"),
            run(5, "seed-b"),
            "same seed, same everything"
        );
        assert_ne!(
            run(5, "seed-a").3,
            run(6, "seed-b").3,
            "different seed, different faults"
        );
    }

    #[test]
    fn forwarder_heap_is_bounded_by_accept_limit_not_backlog() {
        const LIMIT: usize = 16;
        const LEN: usize = 64;
        const REPLAY_TICKS: u64 = 40;
        // Capture `k`·LIMIT records behind a stalled link (the breaker
        // never trips), heal the link, replay for REPLAY_TICKS ticks, and
        // return the heap the forwarder owns mid-replay (what dropping it
        // frees) and its spool syncs. The spool keeps one metadata entry
        // per segment file (1 MiB by default), so at these backlogs it
        // holds one.
        let held = |k: usize| -> (isize, u64) {
            let dir = tmpdir(&format!("heap-{k}"));
            let mut spool_cfg = SpoolConfig::new(&dir);
            spool_cfg.sync_interval = Duration::from_secs(3600);
            let mut cfg = small_cfg();
            cfg.accept_limit = LIMIT;
            cfg.breaker.trip_after = u32::MAX;
            let mut fwd = Forwarder::new(Spool::open(spool_cfg).unwrap(), cfg);
            let captured = (k * LIMIT) as u64;
            let mut link = FaultyLink::with_schedule(
                vec![
                    Phase {
                        until_tick: captured,
                        spec: FaultSpec::stalled(),
                    },
                    Phase {
                        until_tick: u64::MAX,
                        spec: FaultSpec::clean(1),
                    },
                ],
                1,
            );
            let mut rx = Receiver::new();
            for now in 0..captured + REPLAY_TICKS {
                for frame in link.poll_frames(now) {
                    if let Some(ack) = rx.on_frame(&frame) {
                        link.send_ack(now, ack);
                    }
                }
                rx.take_ordered();
                if now < captured {
                    fwd.submit(now, &block(now + 1, LEN)).unwrap();
                }
                fwd.tick(now, &mut link).unwrap();
            }
            assert!(rx.acked_seq() > LIMIT as u64, "the replay has begun");
            assert!(
                rx.acked_seq() + 4 * LIMIT as u64 <= captured,
                "most of the backlog is still on disk"
            );
            let syncs = fwd.spool().stats().syncs;
            let before = live_bytes();
            drop(fwd);
            let held = before - live_bytes();
            std::fs::remove_dir_all(&dir).ok();
            (held, syncs)
        };
        let record = encode_block(&block(1, LEN)).len();
        // Per buffered record: the payload, its copy in an in-flight or
        // retrying frame, and the sender's map and set entries. The
        // constant covers the replay cursor's 8 KiB read buffer.
        let bound = LIMIT * (2 * record + 256) + record + 12 * 1024;
        let (small, small_syncs) = held(10);
        let (large, large_syncs) = held(40);
        assert!(
            small as usize <= bound && large as usize <= bound,
            "forwarder holds {small} B at 10x and {large} B at 40x accept_limit, \
             bound {bound} B (spool syncs {small_syncs} and {large_syncs})"
        );
        assert!(
            (large - small).unsigned_abs() <= 512,
            "heap grew with the backlog: {small} B at 10x, {large} B at 40x \
             (spool syncs {small_syncs} and {large_syncs})"
        );
    }
}
