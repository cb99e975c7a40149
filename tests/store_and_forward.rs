//! Tier-1 gate for the store-and-forward subsystem, through the `adaedge`
//! facade: a fast end-to-end disconnect → crash → reconnect cycle through
//! the `Forwarder`, and the composed path from online compression over a
//! link whose blackout trips the breaker to bit-exact decoded values.
//! The exhaustive fault suites live with their crates
//! (`crates/storage/tests/spool_recovery.rs`,
//! `crates/core/tests/spool_integration.rs`,
//! `crates/core/tests/uplink_chaos.rs`); these tests keep the happy path,
//! one crash and one trip under the root `cargo test` umbrella.

use adaedge::codecs::faultkit;
use adaedge::codecs::CodecRegistry;
use adaedge::core::spooling::{decode_block, Forwarder};
use adaedge::core::uplink::{
    BreakerConfig, FaultSpec, FaultyLink, Phase, Receiver, Transport, UplinkConfig,
};
use adaedge::core::{
    AggKind, Constraints, OfflineAdaEdge, OfflineConfig, OnlineAdaEdge, OnlineConfig,
    OptimizationTarget, Path,
};
use adaedge::datasets::{CbfConfig, CbfStream, SegmentSource, SineStream};
use adaedge::storage::{Spool, SpoolConfig};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-saf-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn spool_cfg(dir: &std::path::Path) -> SpoolConfig {
    let mut cfg = SpoolConfig::new(dir);
    cfg.segment_max_bytes = 8 * 1024;
    cfg.sync_interval = Duration::from_secs(3600);
    cfg
}

#[test]
fn disconnect_crash_reconnect_delivers_every_segment_exactly_once() {
    let dir = tmpdir("crash");
    let cfg = spool_cfg(&dir);

    // Disconnect: compress 60 segments under the storage budget,
    // submitting egress to the forwarder every 10 segments. There is no
    // link, so nothing is ever sent.
    let mut engine_cfg = OfflineConfig::new(1 << 20, OptimizationTarget::agg(AggKind::Sum));
    engine_cfg.precision = 4;
    let mut edge = OfflineAdaEdge::new(engine_cfg).expect("engine");
    let mut stream = CbfStream::new(CbfConfig::default(), 256);
    let uplink_cfg = UplinkConfig::default();
    let mut fwd = Forwarder::new(Spool::open(cfg.clone()).expect("spool"), uplink_cfg.clone());
    for tick in 0..60u64 {
        edge.ingest(&stream.next_segment()).expect("ingest");
        if (tick + 1) % 10 == 0 {
            for (_, block) in edge.drain(usize::MAX).expect("drain") {
                fwd.submit(tick, &block).expect("submit");
            }
            fwd.sync().expect("sync");
        }
    }
    let stats = fwd.spool().stats();
    assert_eq!(stats.appended_records, 60);
    assert_eq!(stats.durable_seq, 60, "drains sync at ship boundaries");

    // Power cut: tear the open segment's unsynced tail, then recover.
    let path = fwd.spool().open_segment_path().expect("open segment");
    let synced = fwd.spool().open_segment_synced_bytes();
    let len = fwd.spool().open_segment_len();
    drop(fwd);
    if len > synced {
        faultkit::file_truncate_at(&path, synced + (len - synced) / 2).expect("tear");
    }
    let spool = Spool::open(cfg).expect("crash recovery");
    assert_eq!(
        spool.stats().next_seq - 1,
        60,
        "everything below the durable horizon survives the crash"
    );

    // Reconnect: the forwarder replays the backlog through the uplink;
    // the receiver decodes every block; ACK-gated GC trims the spool.
    let registry = CodecRegistry::new(4);
    let mut fwd = Forwarder::new(spool, uplink_cfg.clone());
    let mut link = FaultyLink::new(FaultSpec::clean(2), 1);
    let mut rx = Receiver::new();
    let mut released = 0u64;
    for now in 0..10_000u64 {
        for frame in link.poll_frames(now) {
            assert!(frame.payload_len() <= uplink_cfg.frame.payload_cap);
            if let Some(ack) = rx.on_frame(&frame) {
                link.send_ack(now, ack);
            }
        }
        for (seq, bytes) in rx.take_ordered() {
            released += 1;
            assert_eq!(seq, released, "capture order");
            let block = decode_block(&bytes).expect("decodes");
            registry.decompress(&block).expect("decompresses");
        }
        fwd.tick(now, &mut link).expect("tick");
        if rx.acked_seq() == 60 && fwd.uplink().idle() && link.is_empty() {
            break;
        }
    }

    assert_eq!(released, 60, "every block decodes end-to-end");
    let rc = rx.counters();
    assert_eq!(rc.records_delivered, 60, "exactly once");
    assert_eq!(rc.duplicate_records, 0);
    assert_eq!(fwd.lost(), 0);
    assert_eq!(rx.acked_seq(), 60);
    let up = fwd.uplink().counters();
    assert!(up.frames_sent > 0);
    assert_eq!(
        link.counters().frames_sent,
        up.frames_sent + up.retries + up.half_open_probes
    );
    assert_eq!(
        fwd.spool().stats().closed_segments,
        0,
        "ACK-gated GC collected the backlog"
    );

    // A second reconnect finds nothing new: it resumes past the ACK.
    let mut fwd = Forwarder::new(fwd.into_spool(), uplink_cfg);
    for now in 10_000..10_100u64 {
        fwd.tick(now, &mut link).expect("tick");
    }
    assert_eq!(fwd.uplink().counters().frames_sent, 0);
    assert_eq!(rx.counters().records_delivered, 60);
    drop(fwd);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn online_blocks_cross_a_tripping_link_bit_exact_in_capture_order() {
    // OnlineAdaEdge (bit-exact lossless arms) → Forwarder → FaultyLink
    // whose blackout trips the breaker → Receiver → decode_block →
    // decompress: every input segment comes back once, in capture order,
    // with the same bits.
    const SEGMENT: usize = 256;
    const N: usize = 120;
    let dir = tmpdir("composed");
    // The link carries the raw stream (R = 1), so the lossless arms fit.
    let constraints = Constraints::online(100_000.0, 64.0 * 100_000.0, SEGMENT);
    let mut config = OnlineConfig::new(constraints, OptimizationTarget::agg(AggKind::Sum));
    config.lossless_arms = CodecRegistry::lossless_candidates()
        .into_iter()
        .filter(|c| c.is_bit_exact())
        .collect();
    let mut edge = OnlineAdaEdge::new(config).expect("online");
    let mut stream = SineStream::new(SEGMENT, 0.01, 4, 7);
    let segments: Vec<Vec<f64>> = (0..N).map(|_| stream.next_segment()).collect();

    let mut link = FaultyLink::with_schedule(
        vec![
            Phase {
                until_tick: 40,
                spec: FaultSpec::clean(2),
            },
            Phase {
                until_tick: 300,
                spec: FaultSpec::stalled(),
            },
            Phase {
                until_tick: u64::MAX,
                spec: FaultSpec::clean(2),
            },
        ],
        5,
    );
    let cfg = UplinkConfig {
        frames_per_tick: 2,
        deadline_ticks: 12,
        breaker: BreakerConfig {
            trip_after: 2,
            open_ticks: 40,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    };
    let mut fwd = Forwarder::new(Spool::open(spool_cfg(&dir)).expect("spool"), cfg);
    let mut rx = Receiver::new();
    let registry = CodecRegistry::new(4);
    let mut delivered: Vec<(u64, Vec<f64>)> = Vec::new();
    for now in 0..20_000u64 {
        for frame in link.poll_frames(now) {
            if let Some(ack) = rx.on_frame(&frame) {
                link.send_ack(now, ack);
            }
        }
        for (seq, bytes) in rx.take_ordered() {
            let block = decode_block(&bytes).expect("decodes");
            delivered.push((seq, registry.decompress(&block).expect("decompresses")));
        }
        fwd.tick(now, &mut link).expect("tick");
        // Capture: one segment per tick, blackout or not.
        if let Some(segment) = segments.get(now as usize) {
            let out = edge.process_segment(segment).expect("compress");
            assert_eq!(out.path, Path::Lossless);
            assert_eq!(
                fwd.submit(now, &out.selection.block).expect("submit"),
                now + 1
            );
        }
        if rx.acked_seq() == N as u64 && fwd.uplink().idle() && link.is_empty() {
            break;
        }
    }

    let up = fwd.uplink().counters();
    assert!(up.trips >= 1, "the blackout must trip the breaker");
    assert!(up.cancelled_on_trip > 0, "the trip hands records back");
    assert_eq!(delivered.len(), N, "every segment exactly once");
    assert_eq!(rx.counters().records_delivered, N as u64);
    for (i, ((seq, values), input)) in delivered.iter().zip(&segments).enumerate() {
        assert_eq!(*seq, i as u64 + 1, "capture order");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(values), bits(input), "segment {seq} bit-exact");
    }
    assert_eq!(fwd.lost(), 0);
    drop(fwd);
    std::fs::remove_dir_all(&dir).ok();
}
