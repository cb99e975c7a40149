//! Store-and-forward integration: the offline mode submits compressed
//! egress to a `Forwarder` through a long disconnect, and the forwarder
//! replays the spooled backlog through the uplink to a receiver with
//! ACK-gated GC (the 48h-disconnect simulation smoke).
//!
//! Logical time is compressed: one ingested segment per "minute", 48h =
//! 2880 segments, egress drained to the forwarder every 10 minutes while
//! the link is stalled. The reconnect protocol is then driven through its
//! failure modes in order: a first replay whose ACKs never reach the
//! sender, a spool node crash and recovery at full backlog depth, the real
//! rate-limited reconnect with incremental GC, and finally a replay from
//! a spool that has forgotten its ACK cursor, which the receiver must
//! dedup to zero.

use adaedge_codecs::{CodecId, CodecRegistry, CompressedBlock};
use adaedge_core::spooling::{decode_block, encode_block, Forwarder};
use adaedge_core::uplink::{FaultSpec, FaultyLink, Receiver, Transport, UplinkConfig};
use adaedge_core::{AggKind, OfflineAdaEdge, OfflineConfig, OptimizationTarget};
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource};
use adaedge_storage::spool::{ReplayItem, Spool, SpoolConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-spool-int-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn spool_cfg(dir: &Path) -> SpoolConfig {
    let mut cfg = SpoolConfig::new(dir);
    // Durability is driven explicitly (each drain syncs); the timer
    // would add nondeterminism here.
    cfg.sync_interval = Duration::from_secs(3600);
    cfg.segment_max_bytes = 64 * 1024;
    cfg
}

const MINUTES: u64 = 48 * 60; // 2880 segments, one per logical minute
const DRAIN_EVERY: u64 = 10;

/// One receive-side step at `now`: frames in, ACKs out, then every
/// record released in capture order is decoded and decompressed.
/// Returns how many records were released.
fn receive(
    now: u64,
    link: &mut FaultyLink,
    rx: &mut Receiver,
    registry: &CodecRegistry,
    payload_cap: usize,
) -> u64 {
    for frame in link.poll_frames(now) {
        assert!(frame.payload_len() <= payload_cap, "frame over its cap");
        if let Some(ack) = rx.on_frame(&frame) {
            link.send_ack(now, ack);
        }
    }
    let mut released = 0;
    for (seq, bytes) in rx.take_ordered() {
        let block = decode_block(&bytes).expect("every block decodes");
        registry
            .decompress(&block)
            .unwrap_or_else(|e| panic!("seq {seq} decompresses: {e}"));
        released += 1;
    }
    released
}

#[test]
fn forty_eight_hour_disconnect_spools_and_replays_exactly_once() {
    let dir = tmpdir("48h");
    let cfg = spool_cfg(&dir);
    let registry = CodecRegistry::new(4);
    let uplink_cfg = UplinkConfig::default();
    let cap = uplink_cfg.frame.payload_cap;

    // --- Disconnect: 48h of ingest, egress drained into the forwarder
    // while the link is stalled: the breaker trips and everything waits
    // in the spool. ---
    let mut engine_cfg = OfflineConfig::new(4 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    let mut fwd = Forwarder::new(Spool::open(cfg.clone()).expect("spool"), uplink_cfg.clone());
    let mut down = FaultyLink::new(FaultSpec::stalled(), 1);

    for minute in 0..MINUTES {
        edge.ingest(&stream.next_segment()).expect("ingest");
        if (minute + 1) % DRAIN_EVERY == 0 {
            let shipped = edge.drain(usize::MAX).expect("drain");
            assert_eq!(
                shipped.len() as u64,
                DRAIN_EVERY,
                "drain ships the whole backlog"
            );
            for (_, block) in &shipped {
                fwd.submit(minute, block).expect("submit");
            }
            fwd.sync().expect("sync");
        }
        fwd.tick(minute, &mut down).expect("tick");
    }
    assert_eq!(edge.store().len(), 0, "every segment left the store");
    assert!(fwd.uplink().counters().trips > 0, "the dead link trips");

    let depth = fwd.spool().stats();
    assert_eq!(depth.appended_records, MINUTES);
    assert_eq!(depth.records, MINUTES);
    assert!(depth.closed_segments > 10, "48h must span many segments");
    assert!(
        depth.newest_ts - depth.oldest_ts >= MINUTES - DRAIN_EVERY - 1,
        "spool age gauge covers the disconnect window"
    );
    assert_eq!(depth.durable_seq, MINUTES, "drains sync at ship boundaries");

    // --- Reconnect attempt 1: the link drops mid-replay, once the
    // receiver has ingested 1500 records. The spool has heard the ACKs
    // that made it back before the drop and GC'd only what they cover. ---
    let mut fwd = Forwarder::new(fwd.into_spool(), uplink_cfg.clone());
    let mut rx = Receiver::new();
    let mut link = FaultyLink::new(FaultSpec::clean(2), 2);
    let mut released = 0u64;
    let mut now = 0;
    while rx.acked_seq() < 1500 {
        released += receive(now, &mut link, &mut rx, &registry, cap);
        fwd.tick(now, &mut link).expect("tick");
        now += 1;
        assert!(now < 100_000, "attempt 1 stalled at {}", rx.acked_seq());
    }
    let first_attempt = rx.counters().records_delivered;
    let cursor_at_cut = rx.acked_seq();
    assert!(first_attempt >= 1500);
    let heard = fwd.uplink().acked_seq();
    assert!(heard <= rx.acked_seq(), "ACKs only trail the receiver");
    let partial = fwd.spool().stats();
    assert!(
        partial.gc_records <= heard,
        "GC never passes the ACK the spool heard"
    );
    assert_eq!(
        partial.records + partial.gc_records,
        MINUTES,
        "nothing above the ACK is deleted"
    );

    // --- Spool node power-cycles with the backlog on disk. ---
    drop(fwd);
    let spool = Spool::open(cfg.clone()).expect("recovery");
    assert_eq!(
        spool.stats().records,
        partial.records,
        "synced backlog survives"
    );

    // --- Reconnect attempt 2: rate-limited replay with incremental GC.
    // The reopened spool has forgotten its ACK cursor, so the forwarder
    // resumes at seq 1: the GC'd prefix replays as a gap and the rest of
    // what attempt 1 delivered is resent; the receiver dedups it. ---
    let mut fwd = Forwarder::new(spool, uplink_cfg.clone());
    let mut link = FaultyLink::new(FaultSpec::clean(2), 3);
    let mut gc_mid_replay = 0u64;
    for now in 0..100_000u64 {
        released += receive(now, &mut link, &mut rx, &registry, cap);
        fwd.tick(now, &mut link).expect("tick");
        assert!(
            fwd.uplink().backlog() <= uplink_cfg.accept_limit,
            "the replay rate is the sender's accept_limit"
        );
        if rx.acked_seq() < (cursor_at_cut + MINUTES) / 2 {
            gc_mid_replay = fwd.spool().stats().gc_segments;
        }
        if rx.acked_seq() == MINUTES && fwd.uplink().idle() && link.is_empty() {
            break;
        }
    }
    assert_eq!(rx.acked_seq(), MINUTES);
    assert_eq!(
        released, MINUTES,
        "every block decodes end-to-end, in order"
    );
    let rc = rx.counters();
    // Until the receiver's first ACK comes back the forwarder resends
    // what attempt 1 delivered; after it, re-offers below the ACK are
    // refused and skipped.
    let resent = rc.duplicate_fragments + rc.duplicate_records;
    assert!(
        resent > 0 && resent < cursor_at_cut - partial.gc_records,
        "the resent prefix is deduped, not re-ingested ({resent} duplicates)"
    );
    assert_eq!(fwd.lost(), 0);
    let up = fwd.uplink().counters();
    assert!(up.frames_sent > 0);
    assert_eq!(
        link.counters().frames_sent,
        up.frames_sent + up.retries + up.half_open_probes
    );
    assert!(gc_mid_replay > 0, "GC runs during the replay, not after");
    let after = fwd.spool().stats();
    assert_eq!(
        after.closed_segments, 0,
        "every fully-ACKed closed segment was collected"
    );
    assert!(
        after.records < MINUTES / 10,
        "spool drained down to the open-segment tail"
    );

    // Conservation: every spooled record was ingested exactly once
    // across both attempts.
    assert_eq!(rx.counters().records_delivered, MINUTES);

    // --- Worst case: the spool loses its ACK state. A reopened spool
    // does not persist its ACK cursor, so a new forwarder resends
    // whatever still exists; the receiver dedups all of it —
    // at-least-once delivery, exactly-once ingest. ---
    drop(fwd);
    let spool = Spool::open(cfg).expect("reopen");
    assert_eq!(spool.stats().acked_seq, 0, "the ACK cursor is forgotten");
    let mut fwd = Forwarder::new(spool, uplink_cfg);
    let dups_before = rx.counters().duplicate_fragments + rx.counters().duplicate_records;
    for now in 0..100_000u64 {
        released += receive(now, &mut link, &mut rx, &registry, cap);
        fwd.tick(now, &mut link).expect("tick");
        if fwd.uplink().acked_seq() == MINUTES && fwd.uplink().idle() && link.is_empty() {
            break;
        }
    }
    let rc = rx.counters();
    assert!(
        rc.duplicate_fragments + rc.duplicate_records > dups_before,
        "the open-segment tail is still replayable"
    );
    assert_eq!(rc.records_delivered, MINUTES, "nothing re-ingested");
    assert_eq!(released, MINUTES);
    // The GC'd prefix replays as a gap below the receiver's cursor.
    assert_eq!(fwd.lost(), 0, "GC'd ranges are not data loss");
    drop(fwd);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_pressure_surfaces_bounded_disk_loss_in_replay_report() {
    let dir = tmpdir("retention");
    let mut cfg = spool_cfg(&dir);
    cfg.segment_max_bytes = 2048;
    cfg.max_spool_bytes = Some(16 * 1024);
    // The receiver's cursor cannot pass the dropped prefix (a spool gap
    // never crosses the wire), so nothing is ever ACKed: the sender must
    // be able to buffer every survivor for all of them to arrive.
    let n = 1000u64;
    let uplink_cfg = UplinkConfig {
        accept_limit: n as usize,
        ..UplinkConfig::default()
    };
    let mut spool = Spool::open(cfg.clone()).expect("spool");

    // A disconnect longer than the disk can hold: 1000 blocks against a
    // 16 KiB cap forces drop-oldest on closed segments. The backlog is
    // written before the forwarder starts (a device that captured while
    // it had no link at all), so no dropped record ever left the disk.
    let block = |i: u64| CompressedBlock {
        codec: CodecId::Raw,
        n_points: 12,
        payload: (0..96u8).map(|b| b.wrapping_mul(i as u8 | 1)).collect(),
    };
    for i in 0..n {
        spool
            .append(i, &encode_block(&block(i)))
            .expect("spool block");
    }
    spool.sync().expect("sync");
    let depth = spool.stats();
    assert!(depth.bytes <= 16 * 1024, "byte cap enforced");
    assert!(depth.dropped_segments > 0);
    assert_eq!(
        depth.dropped_unacked_records, depth.dropped_records,
        "nothing was ACKed, so every drop is surfaced as un-ACKed loss"
    );

    // Reconnect: the dropped prefix comes back as lost, the survivors as
    // deliveries.
    let mut fwd = Forwarder::new(spool, uplink_cfg);
    let mut link = FaultyLink::new(FaultSpec::clean(2), 4);
    let mut rx = Receiver::new();
    for now in 0..20_000 {
        for frame in link.poll_frames(now) {
            if let Some(ack) = rx.on_frame(&frame) {
                link.send_ack(now, ack);
            }
        }
        fwd.tick(now, &mut link).expect("tick");
        if rx.counters().records_delivered + fwd.lost() == n && link.is_empty() {
            break;
        }
    }
    let lost = fwd.lost();
    assert!(lost > 0, "retention loss must be visible");
    assert_eq!(lost, depth.dropped_records);
    let rc = rx.counters();
    assert_eq!(
        rc.records_delivered + lost,
        n,
        "conservation: every record is either delivered or accounted lost"
    );
    assert_eq!(rc.duplicate_records, 0);
    assert_eq!(
        rx.pending_release() as u64,
        rc.records_delivered,
        "survivors wait behind the hole"
    );

    // The spool's own account agrees: its gaps are the forwarder's lost
    // count, and every survivor decodes.
    drop(fwd);
    let mut spool = Spool::open(cfg).expect("reopen");
    let registry = CodecRegistry::new(4);
    let (mut gap_seqs, mut records) = (0u64, 0u64);
    for item in spool.replayer(0).expect("replayer") {
        match item {
            ReplayItem::Record(rec) => {
                let block = decode_block(&rec.payload).expect("decodes");
                registry.decompress(&block).expect("decompresses");
                records += 1;
            }
            ReplayItem::Gap { from_seq, to_seq } => gap_seqs += to_seq - from_seq + 1,
        }
    }
    assert_eq!(gap_seqs, lost);
    assert_eq!(records + gap_seqs, n);
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spooled_payloads_roundtrip_through_block_codec() {
    // decode(encode(block)) is identity for a real engine-produced block.
    let mut engine_cfg = OfflineConfig::new(1 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    for _ in 0..8 {
        edge.ingest(&stream.next_segment()).expect("ingest");
    }
    let shipped = edge.drain(usize::MAX).expect("drain");
    assert!(!shipped.is_empty());
    for (_, block) in &shipped {
        let bytes = encode_block(block);
        assert_eq!(decode_block(&bytes).as_ref(), Some(block));
    }
}
