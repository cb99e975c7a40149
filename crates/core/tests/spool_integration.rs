//! Store-and-forward integration: the offline mode spools compressed
//! egress through a long disconnect, then replays it through the frame
//! packer with ACK-gated GC (ISSUE 8's 48h-disconnect simulation smoke).
//!
//! Logical time is compressed: one ingested segment per "minute", 48h =
//! 2880 segments, egress drained to the spool every 10 minutes. The
//! reconnect protocol is then driven through its failure modes in order:
//! an interrupted first replay whose ACKs never reach the spool, a spool
//! node crash and recovery at full backlog depth, the real rate-limited
//! reconnect with incremental GC, and finally a replay from fully stale
//! ACK state that the ingest ledger must dedup to zero.

use adaedge_codecs::{CodecId, CodecRegistry, CompressedBlock};
use adaedge_core::spooling::{
    decode_block, run_reconnect, spool_offline_egress, IngestLedger, ReplayConfig, SpoolSink,
};
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

#[test]
fn forty_eight_hour_disconnect_spools_and_replays_exactly_once() {
    let dir = tmpdir("48h");
    let cfg = spool_cfg(&dir);

    // --- Disconnect: 48h of ingest, egress drained into the spool. ---
    let mut engine_cfg = OfflineConfig::new(4 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    let mut sink = SpoolSink::new(Spool::open(cfg.clone()).expect("spool"));

    for minute in 0..MINUTES {
        edge.ingest(&stream.next_segment()).expect("ingest");
        if (minute + 1) % DRAIN_EVERY == 0 {
            let (blocks, _) =
                spool_offline_egress(&mut edge, &mut sink, usize::MAX, minute).expect("drain");
            assert_eq!(blocks as u64, DRAIN_EVERY, "drain ships the whole backlog");
        }
    }
    assert_eq!(edge.store().len(), 0, "every segment left the store");
    assert_eq!(sink.spooled_blocks(), MINUTES);

    let depth = sink.spool().stats();
    assert_eq!(depth.records, MINUTES);
    assert!(depth.closed_segments > 10, "48h must span many segments");
    assert!(
        depth.newest_ts - depth.oldest_ts >= MINUTES - DRAIN_EVERY - 1,
        "spool age gauge covers the disconnect window"
    );
    assert_eq!(depth.durable_seq, MINUTES, "drains sync at ship boundaries");

    // --- Reconnect attempt 1: link dies mid-replay, ACKs are lost. ---
    // The ingest side receives and ingests 1500 records, but the spool
    // never hears a single ACK (no GC happens).
    let mut spool = sink.into_spool();
    let mut ledger = IngestLedger::new();
    let mut delivered = 0u64;
    for item in spool.replayer(0).expect("replayer") {
        if delivered == 1500 {
            break; // link drop
        }
        match item {
            ReplayItem::Record(rec) => {
                assert_eq!(rec.seq, delivered + 1, "capture order");
                assert!(ledger.accept(rec.seq));
                delivered += 1;
            }
            ReplayItem::Gap { .. } => panic!("healthy spool has no gaps"),
        }
    }
    assert_eq!(ledger.acked_seq(), 1500);
    assert_eq!(spool.stats().records, MINUTES, "no ACKs, no GC");

    // --- Spool node power-cycles with the full backlog on disk. ---
    drop(spool);
    let mut spool = Spool::open(cfg.clone()).expect("recovery");
    assert_eq!(spool.stats().records, MINUTES, "synced backlog survives");

    // --- Reconnect attempt 2: rate-limited replay with incremental GC.
    // The ledger (ingest side) is the resume authority: replay starts at
    // its cursor, so the 1500 already-ingested records are not resent.
    let registry = CodecRegistry::new(4);
    let replay_cfg = ReplayConfig {
        records_per_tick: 64,
        verify_decode: true,
        ..ReplayConfig::default()
    };
    let mut frames = Vec::new();
    let report = run_reconnect(&mut spool, &mut ledger, &registry, &replay_cfg, |f| {
        frames.push(f)
    })
    .expect("reconnect");

    assert_eq!(report.replayed_records, MINUTES - 1500);
    assert_eq!(report.ingested_records, MINUTES - 1500);
    assert_eq!(report.duplicate_records, 0);
    assert_eq!(report.lost_records, 0);
    assert_eq!(report.decode_failures, 0, "every block decodes end-to-end");
    assert_eq!(report.final_acked_seq, MINUTES);
    assert!(
        report.ticks >= (MINUTES - 1500) / 64,
        "rate limit respected"
    );
    assert!(report.frames_emitted > 0);
    assert_eq!(report.frames_emitted as usize, frames.len());
    assert!(report.max_frame_used <= replay_cfg.frame.payload_cap);
    assert!(
        report.gc_segments > 0,
        "GC runs during the replay, not after"
    );
    assert_eq!(
        report.spool.closed_segments, 0,
        "every fully-ACKed closed segment was collected"
    );
    assert!(
        report.spool.records < MINUTES / 10,
        "spool drained down to the open-segment tail"
    );

    // Conservation: every spooled record was ingested exactly once
    // across both attempts.
    assert_eq!(ledger.accepted(), MINUTES);
    assert_eq!(ledger.duplicates(), 0);

    // --- Worst case: total ACK-state loss on the spool side. A replay
    // from seq 0 resends whatever still exists; the ledger dedups all of
    // it — at-least-once delivery, exactly-once ingest.
    let accepted_before = ledger.accepted();
    let mut resent = 0u64;
    for item in spool.replayer(0).expect("replayer") {
        match item {
            ReplayItem::Record(rec) => {
                assert!(!ledger.accept(rec.seq), "must dedup, seq {}", rec.seq);
                resent += 1;
            }
            ReplayItem::Gap { from_seq, to_seq } => {
                // GC'd ranges report as gaps; they are all below the ACK
                // cursor, so the ledger ignores them.
                ledger.mark_lost(from_seq, to_seq);
            }
        }
    }
    assert!(resent > 0, "the open-segment tail is still replayable");
    assert_eq!(ledger.accepted(), accepted_before, "nothing re-ingested");
    assert_eq!(ledger.lost(), 0, "GC'd ranges are not data loss");
    drop(spool);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_pressure_surfaces_bounded_disk_loss_in_replay_report() {
    let dir = tmpdir("retention");
    let mut cfg = spool_cfg(&dir);
    cfg.segment_max_bytes = 2048;
    cfg.max_spool_bytes = Some(16 * 1024);
    let mut sink = SpoolSink::new(Spool::open(cfg).expect("spool"));

    // A disconnect longer than the disk can hold: 1000 blocks against a
    // 16 KiB cap forces drop-oldest on closed segments.
    let n = 1000u64;
    for i in 0..n {
        let block = CompressedBlock {
            codec: CodecId::Raw,
            n_points: 12,
            payload: (0..96u8).map(|b| b.wrapping_mul(i as u8 | 1)).collect(),
        };
        sink.put_block(i, &block).expect("spool block");
    }
    sink.sync().expect("sync");
    let depth = sink.spool().stats();
    assert!(depth.bytes <= 16 * 1024, "byte cap enforced");
    assert!(depth.dropped_segments > 0);
    assert_eq!(
        depth.dropped_unacked_records, depth.dropped_records,
        "nothing was ACKed, so every drop is surfaced as un-ACKed loss"
    );

    // Reconnect: the dropped prefix comes back as `lost`, the survivors
    // as ingests, and the ledger's cursor still reaches the end.
    let mut spool = sink.into_spool();
    let mut ledger = IngestLedger::new();
    let registry = CodecRegistry::new(4);
    let replay_cfg = ReplayConfig {
        records_per_tick: 32,
        verify_decode: true,
        ..ReplayConfig::default()
    };
    let report =
        run_reconnect(&mut spool, &mut ledger, &registry, &replay_cfg, |_| {}).expect("reconnect");

    assert!(report.lost_records > 0, "retention loss must be visible");
    assert_eq!(report.lost_records, depth.dropped_records);
    assert_eq!(
        report.ingested_records + report.lost_records,
        n,
        "conservation: every record is either ingested or accounted lost"
    );
    assert_eq!(report.duplicate_records, 0);
    assert_eq!(report.decode_failures, 0);
    assert_eq!(
        report.final_acked_seq, n,
        "the cursor advances past the loss"
    );
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
        let bytes = adaedge_core::spooling::encode_block(block);
        assert_eq!(decode_block(&bytes).as_ref(), Some(block));
    }
}
