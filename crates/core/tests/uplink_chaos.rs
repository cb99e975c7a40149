//! Uplink chaos suite: exactly-once, capture-order delivery under every
//! fault mix the `FaultyLink` can inject.
//!
//! Each scenario spools its records through a `Forwarder` (a real
//! on-disk spool feeding a real `Uplink`), drives it against a `Receiver`
//! over a seeded fault-injecting link in virtual time, and then checks
//! the strongest property the transport claims: the receiver releases
//! **every submitted record exactly once, byte-identical, in capture
//! order** — no matter what the link dropped, duplicated, reordered,
//! corrupted or stalled, on the frame path *or* the ACK path. The stall
//! and blackout scenarios trip the circuit breaker into spool-only mode:
//! capture continues into the spool, and on recovery the forwarder
//! replays the backlog into the same receiver with zero loss.

use adaedge_codecs::{CodecId, CompressedBlock};
use adaedge_core::spooling::{decode_block, Forwarder};
use adaedge_core::uplink::{
    BackoffConfig, BreakerConfig, FaultSpec, FaultyLink, Phase, Receiver, Transport, UplinkConfig,
    UplinkCounters,
};
use adaedge_core::FrameConfig;
use adaedge_storage::spool::{Spool, SpoolConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-uplink-chaos-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Deterministic capture-order records with varied sizes; ~5% are larger
/// than the frame payload cap so retransmits exercise re-fragmentation.
fn records(n: u64, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (1..=n)
        .map(|seq| {
            let len = rng.gen_range(8..=300) + if rng.gen::<f64>() < 0.05 { 1500 } else { 0 };
            let bytes = (0..len)
                .map(|i| (seq as u8).wrapping_mul(31).wrapping_add(i as u8) ^ rng.gen::<u8>())
                .collect();
            (seq, bytes)
        })
        .collect()
}

/// An uplink config hardened for fault mixes where the breaker must NOT
/// trip (the drive helper asserts it stays closed): generous retries, a
/// deadline past the worst-case jittered round trip, a breaker that only
/// trips on a genuinely dead link.
fn chaos_cfg() -> UplinkConfig {
    UplinkConfig {
        // A small radio-profile frame so every run spans many frames —
        // otherwise the packer batches the whole stream into a handful
        // and the fault probabilities barely get to fire.
        frame: FrameConfig {
            payload_cap: 256,
            fragment_overhead: 12,
        },
        window: 8,
        deadline_ticks: 32,
        max_retries: 40,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 16,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 10_000,
            open_ticks: 64,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    }
}

/// A spool with explicit durability (replay syncs; the timer would add
/// nondeterminism) and small segments, so GC has closed segments to take.
fn spool(dir: &Path) -> Spool {
    let mut cfg = SpoolConfig::new(dir);
    cfg.sync_interval = Duration::from_secs(3600);
    cfg.segment_max_bytes = 4096;
    Spool::open(cfg).expect("spool")
}

/// A record's bytes as the raw block the forwarder spools.
fn raw(bytes: &[u8]) -> CompressedBlock {
    CompressedBlock {
        codec: CodecId::Raw,
        n_points: 0,
        payload: bytes.to_vec(),
    }
}

/// What one drive did.
struct Drive {
    /// Released records, decoded back to the submitted bytes.
    delivered: Vec<(u64, Vec<u8>)>,
    uplink: UplinkCounters,
    /// The sender's cumulative ACK at the end.
    acked_seq: u64,
    rx: Receiver,
    completed: bool,
}

/// Submit `recs` to a fresh forwarder over a fresh spool, then tick it
/// and a receiver over `link` until the receiver holds everything and
/// the link is quiet, collecting every record the receiver releases so
/// callers can assert byte-identical capture-order delivery.
fn drive(
    name: &str,
    recs: &[(u64, Vec<u8>)],
    cfg: UplinkConfig,
    link: &mut FaultyLink,
    max_ticks: u64,
) -> Drive {
    let dir = tmpdir(name);
    let mut fwd = Forwarder::new(spool(&dir), cfg);
    for (seq, bytes) in recs {
        assert_eq!(fwd.submit(0, &raw(bytes)).expect("submit"), *seq);
    }
    let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut release = |rx: &mut Receiver| {
        for (seq, bytes) in rx.take_ordered() {
            delivered.push((seq, decode_block(&bytes).expect("decodes").payload));
        }
    };
    let mut rx = Receiver::new();
    let mut completed = false;
    for now in 0..max_ticks {
        for frame in link.poll_frames(now) {
            if let Some(ack) = rx.on_frame(&frame) {
                link.send_ack(now, ack);
            }
        }
        release(&mut rx);
        fwd.tick(now, link).expect("tick");
        if rx.acked_seq() == recs.len() as u64 && fwd.uplink().idle() && link.is_empty() {
            completed = true;
            break;
        }
    }
    release(&mut rx);
    assert_eq!(fwd.lost(), 0, "a healthy spool loses nothing");
    let d = Drive {
        delivered,
        uplink: fwd.uplink().counters(),
        acked_seq: fwd.uplink().acked_seq(),
        rx,
        completed,
    };
    drop(fwd);
    std::fs::remove_dir_all(&dir).ok();
    d
}

/// [`drive`] for fault mixes under which the breaker must stay closed.
fn drive_closed(
    name: &str,
    recs: &[(u64, Vec<u8>)],
    link: &mut FaultyLink,
    max_ticks: u64,
) -> Drive {
    let d = drive(name, recs, chaos_cfg(), link, max_ticks);
    assert_eq!(
        d.uplink.trips, 0,
        "breaker must stay closed in this scenario"
    );
    d
}

/// The exactly-once contract: the delivered sequence IS the capture
/// sequence — same seqs, same order, same bytes.
fn assert_exactly_once(recs: &[(u64, Vec<u8>)], delivered: &[(u64, Vec<u8>)], rx: &Receiver) {
    assert_eq!(
        delivered.len(),
        recs.len(),
        "every record exactly once ({} delivered of {})",
        delivered.len(),
        recs.len()
    );
    for ((want_seq, want), (got_seq, got)) in recs.iter().zip(delivered) {
        assert_eq!(want_seq, got_seq, "capture order");
        assert_eq!(want, got, "seq {want_seq} byte-identical");
    }
    assert_eq!(rx.counters().records_delivered, recs.len() as u64);
}

#[test]
fn clean_link_delivers_everything_exactly_once() {
    let recs = records(80, 1);
    let mut link = FaultyLink::new(FaultSpec::clean(2), 1);
    let Drive {
        delivered,
        uplink: up,
        acked_seq,
        rx,
        completed,
    } = drive_closed(
        "clean_link_delivers_everything_exactly_once",
        &recs,
        &mut link,
        5_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    assert_eq!(up.retries, 0, "a clean link needs no retries");
    assert_eq!(acked_seq, 80);
}

#[test]
fn twenty_percent_loss_delivers_exactly_once_in_order() {
    let recs = records(80, 2);
    let mut link = FaultyLink::new(FaultSpec::lossy(2, 0.20), 2);
    let Drive {
        delivered,
        uplink: up,
        rx,
        completed,
        ..
    } = drive_closed(
        "twenty_percent_loss_delivers_exactly_once_in_order",
        &recs,
        &mut link,
        20_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    let lc = link.counters();
    assert!(lc.frames_dropped > 0, "the loss must actually fire");
    assert!(up.retries > 0, "loss must be repaired by retries");
    // Sender-side conservation: every link transmission is accounted for.
    assert_eq!(
        lc.frames_sent,
        up.frames_sent + up.retries + up.half_open_probes
    );
}

#[test]
fn duplicate_heavy_link_is_deduped() {
    let recs = records(60, 3);
    let spec = FaultSpec {
        duplicate: 0.5,
        ack_duplicate: 0.5,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 3);
    let Drive {
        delivered,
        rx,
        completed,
        ..
    } = drive_closed("duplicate_heavy_link_is_deduped", &recs, &mut link, 20_000);
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    assert!(link.counters().frames_duplicated > 0);
    assert!(
        rx.counters().duplicate_fragments > 0 || rx.counters().duplicate_records > 0,
        "duplicates must reach the dedup path, not vanish"
    );
}

#[test]
fn reorder_heavy_link_releases_in_capture_order() {
    let recs = records(60, 4);
    let spec = FaultSpec {
        reorder: 0.8,
        jitter_ticks: 12,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 4);
    let Drive {
        delivered,
        rx,
        completed,
        ..
    } = drive_closed(
        "reorder_heavy_link_releases_in_capture_order",
        &recs,
        &mut link,
        20_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    assert!(link.counters().frames_reordered > 0);
}

#[test]
fn corrupted_frames_are_rejected_and_retried() {
    let recs = records(60, 5);
    let spec = FaultSpec {
        corrupt: 0.3,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 5);
    let Drive {
        delivered,
        rx,
        completed,
        ..
    } = drive_closed(
        "corrupted_frames_are_rejected_and_retried",
        &recs,
        &mut link,
        20_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    assert!(link.counters().frames_corrupted > 0);
    assert_eq!(
        rx.counters().frames_rejected,
        link.counters().frames_corrupted,
        "every corrupted frame is caught by the CRC, none ingested"
    );
}

#[test]
fn ack_path_faults_cause_no_duplicates_or_loss() {
    // Frames arrive fine; the ACKs get mangled. The sender retransmits
    // records the receiver already has — its dedup must absorb all of
    // it without double-release.
    let recs = records(60, 6);
    let spec = FaultSpec {
        ack_drop: 0.4,
        ack_corrupt: 0.2,
        ack_duplicate: 0.3,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 6);
    let Drive {
        delivered,
        uplink: up,
        rx,
        completed,
        ..
    } = drive_closed(
        "ack_path_faults_cause_no_duplicates_or_loss",
        &recs,
        &mut link,
        20_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    let lc = link.counters();
    assert!(lc.acks_dropped > 0 && lc.acks_corrupted > 0);
    // A corrupted ACK may also be duplicated, so the sender can reject
    // more copies than the link counted corruption events.
    assert!(up.acks_rejected >= lc.acks_corrupted);
    assert!(
        rx.counters().duplicate_fragments > 0 || rx.counters().duplicate_records > 0,
        "lost ACKs must force spurious retransmits that the receiver dedups"
    );
}

#[test]
fn combined_fault_mix_survives() {
    let recs = records(80, 7);
    let spec = FaultSpec {
        drop: 0.10,
        duplicate: 0.10,
        corrupt: 0.05,
        reorder: 0.30,
        jitter_ticks: 8,
        ack_drop: 0.15,
        ack_corrupt: 0.05,
        ack_duplicate: 0.10,
        ..FaultSpec::clean(2)
    };
    let mut link = FaultyLink::new(spec, 7);
    let Drive {
        delivered,
        rx,
        completed,
        ..
    } = drive_closed("combined_fault_mix_survives", &recs, &mut link, 40_000);
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
}

#[test]
fn phase_schedule_heavy_loss_then_clean_completes() {
    // 40% loss for the first 200 ticks, then a clean link: everything
    // still in flight at the phase boundary finishes promptly.
    let recs = records(80, 8);
    let schedule = vec![
        Phase {
            until_tick: 200,
            spec: FaultSpec::lossy(2, 0.40),
        },
        Phase {
            until_tick: u64::MAX,
            spec: FaultSpec::clean(2),
        },
    ];
    let mut link = FaultyLink::with_schedule(schedule, 8);
    let Drive {
        delivered,
        uplink: up,
        rx,
        completed,
        ..
    } = drive_closed(
        "phase_schedule_heavy_loss_then_clean_completes",
        &recs,
        &mut link,
        20_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    assert!(link.counters().frames_dropped > 0);
    assert!(up.retries > 0);
}

#[test]
fn stall_then_recovery_trips_breaker_and_redelivers_everything() {
    // A total blackout mid-stream: frames time out, the breaker trips,
    // cancelled records are handed back, and the forwarder replays them
    // from the spool once the link heals — nothing is lost, nothing
    // doubles.
    let recs = records(40, 9);
    let schedule = vec![
        Phase {
            until_tick: 20,
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
    ];
    let mut link = FaultyLink::with_schedule(schedule, 9);
    let cfg = UplinkConfig {
        // Small frames + one frame per tick: the stream is still mid-air
        // when the blackout starts, so the stall has frames to kill.
        frame: FrameConfig {
            payload_cap: 256,
            fragment_overhead: 12,
        },
        frames_per_tick: 1,
        deadline_ticks: 12,
        max_retries: 2,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 8,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 2,
            open_ticks: 40,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    };
    let d = drive("stall", &recs, cfg, &mut link, 20_000);
    assert!(d.completed, "recovery must finish: {:?}", d.uplink);
    assert_exactly_once(&recs, &d.delivered, &d.rx);
    assert_eq!(d.acked_seq, 40);
    assert!(d.uplink.trips >= 1, "the blackout must trip the breaker");
    assert!(
        d.uplink.half_open_probes >= 1,
        "recovery goes through half-open probing"
    );
    assert!(
        d.uplink.cancelled_on_trip > 0,
        "tripping hands in-flight records back for replay"
    );
}

#[test]
fn seeded_fault_sweep_is_exactly_once_everywhere() {
    // Twenty random fault mixes, all derived deterministically from the
    // sweep seed: the exactly-once contract holds for every one.
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let spec = FaultSpec {
            drop: rng.gen::<f64>() * 0.25,
            duplicate: rng.gen::<f64>() * 0.25,
            corrupt: rng.gen::<f64>() * 0.10,
            reorder: rng.gen::<f64>() * 0.50,
            jitter_ticks: rng.gen_range(1..=10),
            ack_drop: rng.gen::<f64>() * 0.30,
            ack_corrupt: rng.gen::<f64>() * 0.10,
            ack_duplicate: rng.gen::<f64>() * 0.25,
            ..FaultSpec::clean(rng.gen_range(1..=4))
        };
        let recs = records(50, seed);
        let mut link = FaultyLink::new(spec, seed);
        let Drive {
            delivered,
            rx,
            completed,
            ..
        } = drive_closed(&format!("sweep-{seed}"), &recs, &mut link, 60_000);
        assert!(completed, "seed {seed} did not drain: {spec:?}");
        assert_exactly_once(&recs, &delivered, &rx);
    }
}

#[test]
fn long_soak_smoke_under_sustained_faults() {
    // A longer stream under a sustained moderate fault mix — the seeded
    // soak CI runs in release mode.
    let recs = records(400, 10);
    let spec = FaultSpec {
        drop: 0.10,
        duplicate: 0.10,
        reorder: 0.20,
        jitter_ticks: 6,
        ack_drop: 0.20,
        ..FaultSpec::clean(1)
    };
    let mut link = FaultyLink::new(spec, 10);
    let Drive {
        delivered,
        uplink: up,
        rx,
        completed,
        ..
    } = drive_closed(
        "long_soak_smoke_under_sustained_faults",
        &recs,
        &mut link,
        200_000,
    );
    assert!(completed);
    assert_exactly_once(&recs, &delivered, &rx);
    assert_eq!(
        link.counters().frames_sent,
        up.frames_sent + up.retries + up.half_open_probes
    );
}

#[test]
fn blackout_trips_to_spool_only_and_recovers_via_reconnect() {
    // The full store-and-forward loop with a real on-disk spool:
    //
    //   capture ──▶ Forwarder ──▶ spool (always, durability)
    //                     └─────▶ uplink ──▶ FaultyLink ──▶ receiver  (live)
    //
    // A blackout trips the breaker; live sends stop (spool-only mode)
    // while capture continues. When the link heals the breaker probes
    // half-open, closes, and the forwarder replays the backlog from the
    // spool into the SAME receiver — every captured record lands exactly
    // once, with ACK-gated GC along the way.
    let dir = tmpdir("blackout");
    let schedule = vec![
        Phase {
            until_tick: 30,
            spec: FaultSpec::clean(2),
        },
        Phase {
            until_tick: 250,
            spec: FaultSpec::stalled(),
        },
        Phase {
            until_tick: u64::MAX,
            spec: FaultSpec::clean(2),
        },
    ];
    let mut link = FaultyLink::with_schedule(schedule, 11);
    let cfg = UplinkConfig {
        window: 4,
        deadline_ticks: 12,
        max_retries: 1,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 8,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 2,
            open_ticks: 40,
            probes_to_close: 2,
        },
        ..UplinkConfig::default()
    };
    let mut fwd = Forwarder::new(spool(&dir), cfg);
    let mut rx = Receiver::new();

    let total = 40u64;
    let payload =
        |seq: u64| -> Vec<u8> { (0..160u8).map(|i| i.wrapping_mul(seq as u8 | 1)).collect() };

    let mut captured = 0u64;
    let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut live_cursor = None;
    let mut completed = false;
    for now in 0..4_000u64 {
        for frame in link.poll_frames(now) {
            if let Some(ack) = rx.on_frame(&frame) {
                link.send_ack(now, ack);
            }
        }
        for (seq, bytes) in rx.take_ordered() {
            delivered.push((seq, decode_block(&bytes).expect("decodes").payload));
        }
        if now == 250 {
            // The link heals: what the live path got through.
            live_cursor = Some(rx.acked_seq());
        }
        fwd.tick(now, &mut link).expect("tick");
        // Capture continues at one record per 3 ticks, blackout or not.
        if now % 3 == 0 && captured < total {
            captured += 1;
            let seq = fwd.submit(now, &raw(&payload(captured))).expect("submit");
            assert_eq!(seq, captured);
        }
        if captured == total && rx.acked_seq() == total && fwd.uplink().idle() && link.is_empty() {
            completed = true;
            break;
        }
    }
    let up = fwd.uplink().counters();
    assert!(up.trips >= 1, "the blackout must trip the breaker");
    assert!(completed, "the breaker must close again on a healed link");
    assert!(up.half_open_probes >= 2);
    assert!(up.cancelled_on_trip > 0);
    let live_cursor = live_cursor.expect("ran past the blackout");
    assert!(
        live_cursor < total,
        "the blackout must leave a backlog to re-drain"
    );
    // Recovery replayed the backlog into the same receiver: every record
    // exactly once, in capture order, byte-identical.
    let recs: Vec<(u64, Vec<u8>)> = (1..=total).map(|s| (s, payload(s))).collect();
    assert_exactly_once(&recs, &delivered, &rx);
    assert_eq!(fwd.lost(), 0, "zero un-ACKed loss");
    let stats = fwd.spool().stats();
    assert!(stats.gc_segments > 0, "ACK-gated GC ran");
    assert_eq!(stats.closed_segments, 0);
    drop(fwd);
    std::fs::remove_dir_all(&dir).ok();
}
