//! Crash-recovery and ACK-ledger fault suite for the durable segment
//! spool (ISSUE 8 acceptance: 500+ randomized crash points).
//!
//! Fault model (DESIGN.md §6d): every byte at or below the open
//! segment's last `fdatasync` offset survives a power cut; anything past
//! it may be torn arbitrarily. Closed segments are synced in full before
//! the `.open` → `.closed` rename, so only the open tail is ever at
//! risk. The suites simulate a crash by dropping the `Spool` handle and
//! truncating the open segment file at a chosen offset with the shared
//! faultkit primitives, then reopening and checking the recovery
//! contract:
//!
//! * reopen never panics and never errors on torn input;
//! * the recovered record set is exactly the longest valid frame prefix
//!   — never a phantom record, never a reordered one;
//! * every record at or below the pre-crash durable horizon survives;
//! * ACK-gated GC never deletes an un-ACKed record, under any
//!   interleaving of append/sync/ack/crash/reopen.

use adaedge_codecs::faultkit;
use adaedge_storage::spool::{
    ReplayItem, Spool, SpoolConfig, SpoolRecord, FRAME_OVERHEAD, HEADER_BYTES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Unique temp dir per test (and per proptest case where needed).
fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "adaedge-spool-rec-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A spool that never syncs on its own: durability moves only on
/// explicit `sync()`, rotation, or `replayer()`.
fn manual_cfg(dir: &Path, segment_max: u64) -> SpoolConfig {
    let mut cfg = SpoolConfig::new(dir);
    cfg.segment_max_bytes = segment_max;
    cfg.sync_interval = Duration::from_secs(3600);
    cfg
}

/// Deterministic payload for sequence `seq` of length `len`.
fn payload_for(seq: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq as u8).wrapping_add(i as u8))
        .collect()
}

/// Collect a full replay from `from_seq`, splitting records and gaps.
fn replay_all(sp: &mut Spool, from_seq: u64) -> (Vec<SpoolRecord>, Vec<(u64, u64)>) {
    let mut records = Vec::new();
    let mut gaps = Vec::new();
    for item in sp.replayer(from_seq).expect("replayer") {
        match item {
            ReplayItem::Record(r) => records.push(r),
            ReplayItem::Gap { from_seq, to_seq } => gaps.push((from_seq, to_seq)),
        }
    }
    (records, gaps)
}

// ---------------------------------------------------------------------
// Crash-recovery proptest: cut the (single) segment file anywhere.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Write N records into one segment, cut the file at an arbitrary
    /// byte offset (including inside the header), reopen. The recovered
    /// set must be exactly the longest valid frame prefix: every frame
    /// wholly below the cut survives, everything at or past it is gone,
    /// and nothing is invented.
    #[test]
    fn recovery_is_exactly_the_longest_valid_prefix(
        lens in prop::collection::vec(0usize..64, 1..32),
        cut_frac in 0.0f64..1.0,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmpdir(&format!("prefix-{case}"));
        let cfg = manual_cfg(&dir, 1 << 20);
        let mut sp = Spool::open(cfg.clone()).expect("open");
        for (i, &len) in lens.iter().enumerate() {
            let seq = sp.append(i as u64, &payload_for(i as u64 + 1, len)).expect("append");
            prop_assert_eq!(seq, i as u64 + 1);
        }
        let path = sp.open_segment_path().expect("open segment");
        let file_len = sp.open_segment_len();
        drop(sp);

        let cut = (cut_frac * file_len as f64) as u64;
        faultkit::file_truncate_at(&path, cut).expect("truncate");

        let sp2 = Spool::open(cfg.clone()).expect("reopen must not fail");
        // Expected: frames fitting wholly below the cut. Frame i ends at
        // HEADER_BYTES + sum of (FRAME_OVERHEAD + len) over 0..=i.
        let mut end = HEADER_BYTES;
        let mut expected = 0usize;
        if cut >= HEADER_BYTES {
            for &len in &lens {
                end += FRAME_OVERHEAD + len as u64;
                if end <= cut {
                    expected += 1;
                } else {
                    break;
                }
            }
        }
        let stats = sp2.stats();
        prop_assert_eq!(stats.records, expected as u64, "cut={} file_len={}", cut, file_len);
        prop_assert_eq!(stats.next_seq, expected as u64 + 1, "no phantom sequences");
        prop_assert_eq!(stats.durable_seq, expected as u64);
        if cut < HEADER_BYTES {
            // Torn creation: the unreadable file is removed, not patched.
            prop_assert_eq!(stats.recovered_dropped_files, 1);
        }

        // Replay must deliver exactly that prefix, in order, bit-exact.
        let mut sp2 = sp2;
        let (records, gaps) = replay_all(&mut sp2, 0);
        prop_assert!(gaps.is_empty(), "tail truncation never creates a gap");
        prop_assert_eq!(records.len(), expected);
        for (i, rec) in records.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64 + 1);
            prop_assert_eq!(&rec.payload, &payload_for(i as u64 + 1, lens[i]));
        }
        drop(sp2);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// ACK-ledger interleaving proptest: append/sync/ack/crash/reopen.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Append a record of this payload length.
    Append(usize),
    /// Explicit fdatasync (advances the durable horizon).
    Sync,
    /// ACK this fraction of the un-ACKed durable backlog.
    Ack(f64),
    /// Power cut: tear the open segment at `synced + frac * (len - synced)`.
    Crash(f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is unweighted; repetition stands in for
    // weights (4:2:2:1 append-heavy mix keeps the spool growing).
    prop_oneof![
        (0usize..48).prop_map(Op::Append),
        (0usize..48).prop_map(Op::Append),
        (0usize..48).prop_map(Op::Append),
        (0usize..48).prop_map(Op::Append),
        Just(Op::Sync),
        Just(Op::Sync),
        (0.0f64..=1.0).prop_map(Op::Ack),
        (0.0f64..=1.0).prop_map(Op::Ack),
        (0.0f64..=1.0).prop_map(Op::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under random interleavings of append / sync / ack / GC / crash /
    /// reopen: no un-ACKed record is ever deleted, the pre-crash durable
    /// horizon always survives, and replay after reopen delivers every
    /// un-ACKed surviving record exactly once in capture order.
    #[test]
    fn ack_ledger_interleavings_never_lose_unacked_records(
        ops in prop::collection::vec(op_strategy(), 1..48),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmpdir(&format!("ledger-{case}"));
        // Small segments force rotation (and therefore GC eligibility).
        let cfg = manual_cfg(&dir, 256);
        let mut sp = Spool::open(cfg.clone()).expect("open");
        // Model: payloads by seq (index i holds seq i+1), ACK cursor.
        let mut model: Vec<Vec<u8>> = Vec::new();
        let mut acked: u64 = 0;
        let mut ts: u64 = 0;

        for op in ops {
            match op {
                Op::Append(len) => {
                    let seq = model.len() as u64 + 1;
                    let p = payload_for(seq, len);
                    let got = sp.append(ts, &p).expect("append");
                    prop_assert_eq!(got, seq);
                    model.push(p);
                    ts += 1;
                }
                Op::Sync => sp.sync().expect("sync"),
                Op::Ack(frac) => {
                    let durable = sp.stats().durable_seq;
                    if durable > acked {
                        let span = durable - acked;
                        let to = acked + 1 + (frac * (span - 1) as f64) as u64;
                        sp.ack(to).expect("ack");
                        acked = to;
                    }
                }
                Op::Crash(frac) => {
                    let durable = sp.stats().durable_seq;
                    let open_path = sp.open_segment_path();
                    let synced = sp.open_segment_synced_bytes();
                    let len = sp.open_segment_len();
                    drop(sp);
                    if let Some(path) = open_path {
                        // The fault model: bytes below the sync offset
                        // are safe, anything past it may vanish.
                        let cut = synced + (frac * (len - synced) as f64) as u64;
                        faultkit::file_truncate_at(&path, cut).expect("cut");
                    }
                    sp = Spool::open(cfg.clone()).expect("reopen after crash");
                    let recovered = sp.stats().next_seq - 1;
                    prop_assert!(
                        recovered >= durable,
                        "lost durable records: recovered {} < durable {}",
                        recovered, durable
                    );
                    prop_assert!(recovered as usize <= model.len(), "phantom records");
                    // Records past the recovery point are gone; their
                    // sequence numbers will be reassigned.
                    model.truncate(recovered as usize);
                    // The ACK cursor is the ingest side's state; re-report
                    // it so GC resumes (it is not persisted on this node).
                    sp.ack(acked).expect("re-ack");
                }
            }

            // Invariant after every op: replay from the ACK cursor
            // delivers exactly the un-ACKed durable records, once, in
            // capture order, bit-exact against the model.
            let (records, gaps) = replay_all(&mut sp, acked);
            prop_assert!(gaps.is_empty(), "no gaps without bit rot/retention");
            let durable = sp.stats().durable_seq;
            prop_assert_eq!(records.len() as u64, durable - acked);
            for (i, rec) in records.iter().enumerate() {
                let seq = acked + 1 + i as u64;
                prop_assert_eq!(rec.seq, seq, "capture order violated");
                prop_assert_eq!(
                    &rec.payload,
                    &model[(seq - 1) as usize],
                    "payload mismatch at seq {}", seq
                );
            }
        }
        drop(sp);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Power-loss torture: 520 randomized crash points in one long history.
// ---------------------------------------------------------------------

/// One long spool history with 520 crash/reopen cycles (the acceptance
/// floor is 500+). Each cycle appends a random burst with random syncs,
/// ACKs a random durable prefix (driving GC), then cuts the open segment
/// at a random offset at or past the sync horizon and reopens. Checked
/// every cycle: recovery succeeds, the durable horizon survives, no
/// phantom records, ACK-gated GC never deleted an un-ACKed record, and
/// the whole un-ACKed backlog replays bit-exact in capture order.
#[test]
fn power_loss_torture_520_crash_points() {
    let dir = tmpdir("torture");
    let cfg = manual_cfg(&dir, 512);
    let mut rng = SmallRng::seed_from_u64(0xAE5E_ED08);
    let mut sp = Spool::open(cfg.clone()).expect("open");
    let mut model: Vec<Vec<u8>> = Vec::new();
    let mut acked: u64 = 0;
    let mut ts: u64 = 0;
    let mut crashes = 0u32;
    // GC counters are per-process-lifetime and reset on reopen, so
    // accumulate across crash cycles.
    let mut total_gc_segments = 0u64;

    while crashes < 520 {
        // Random burst of appends, with syncs sprinkled between them so
        // crash points land across append/sync boundaries.
        for _ in 0..rng.gen_range(1..=10usize) {
            let seq = model.len() as u64 + 1;
            let p = payload_for(seq, rng.gen_range(0..56));
            assert_eq!(sp.append(ts, &p).expect("append"), seq);
            model.push(p);
            ts += 1;
            if rng.gen_bool(0.3) {
                sp.sync().expect("sync");
            }
        }
        // ACK a random durable prefix: exercises GC before the crash, so
        // some cycles cut right after segment files were unlinked.
        let durable = sp.stats().durable_seq;
        if durable > acked && rng.gen_bool(0.7) {
            acked = rng.gen_range(acked + 1..=durable);
            sp.ack(acked).expect("ack");
        }

        // Power cut at a random offset at or past the sync horizon.
        let pre_stats = sp.stats();
        let pre_durable = pre_stats.durable_seq;
        total_gc_segments += pre_stats.gc_segments;
        let open_path = sp.open_segment_path();
        let synced = sp.open_segment_synced_bytes();
        let len = sp.open_segment_len();
        drop(sp);
        if let Some(path) = open_path {
            let cut = rng.gen_range(synced..=len);
            faultkit::file_truncate_at(&path, cut).expect("cut");
        }
        crashes += 1;

        sp = Spool::open(cfg.clone()).expect("reopen after crash");
        let recovered = sp.stats().next_seq - 1;
        assert!(
            recovered >= pre_durable,
            "cycle {crashes}: durable horizon lost ({recovered} < {pre_durable})"
        );
        assert!(
            recovered as usize <= model.len(),
            "cycle {crashes}: phantom records"
        );
        model.truncate(recovered as usize);
        sp.ack(acked).expect("re-ack");

        // GC safety + exactly-once capture-order replay of the backlog.
        let (records, gaps) = replay_all(&mut sp, acked);
        assert!(gaps.is_empty(), "cycle {crashes}: unexpected gap {gaps:?}");
        assert_eq!(records.len() as u64, recovered - acked, "cycle {crashes}");
        for (i, rec) in records.iter().enumerate() {
            let seq = acked + 1 + i as u64;
            assert_eq!(rec.seq, seq, "cycle {crashes}: order");
            assert_eq!(
                rec.payload,
                model[(seq - 1) as usize],
                "cycle {crashes}: payload at seq {seq}"
            );
        }
    }

    let stats = sp.stats();
    total_gc_segments += stats.gc_segments;
    assert!(total_gc_segments > 0, "torture never exercised GC");
    assert_eq!(stats.dropped_segments, 0, "retention is off");
    drop(sp);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Faultkit-driven media faults: bit rot and duplicated frames.
// ---------------------------------------------------------------------

/// Fill a spool with enough fixed-size records to produce several closed
/// segments, then sync. Returns (spool, record payload length).
fn multi_segment_spool(dir: &Path) -> (Spool, usize) {
    let cfg = manual_cfg(dir, 256);
    let mut sp = Spool::open(cfg).expect("open");
    let len = 40usize;
    for i in 0..24u64 {
        sp.append(i, &payload_for(i + 1, len)).expect("append");
    }
    sp.sync().expect("sync");
    assert!(
        sp.stats().closed_segments >= 3,
        "need several closed segments"
    );
    (sp, len)
}

#[test]
fn bit_rot_in_closed_segment_replays_prefix_then_gap() {
    let dir = tmpdir("bitrot");
    let (sp, len) = multi_segment_spool(&dir);
    let total = sp.stats().records;
    drop(sp);

    // Corrupt the SECOND closed segment past its first frame, so its
    // first record survives and the rest of the segment becomes a gap.
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    names.sort();
    let victim = &names[1];
    let first_frame_end = HEADER_BYTES + FRAME_OVERHEAD + len as u64;
    let file_len = std::fs::metadata(victim).unwrap().len();
    let mut rng = SmallRng::seed_from_u64(17);
    faultkit::file_bit_flip_in(victim, first_frame_end..file_len, &mut rng).expect("flip");

    let mut sp = Spool::open(manual_cfg(&dir, 256)).expect("reopen");
    let stats = sp.stats();
    assert_eq!(
        stats.corrupt_segments, 1,
        "mid-spool rot is flagged, not dropped"
    );
    assert_eq!(
        stats.next_seq,
        total + 1,
        "later segments still anchor next_seq"
    );

    let (records, gaps) = replay_all(&mut sp, 0);
    assert_eq!(gaps.len(), 1, "exactly one lost range");
    let (gap_from, gap_to) = gaps[0];
    assert!(gap_from > 1, "the rotted segment's first record survived");
    assert!(gap_to < total, "later segments replay past the gap");
    // Everything outside the gap is delivered once, in order, bit-exact.
    let mut expect = 1u64;
    for rec in &records {
        if expect == gap_from {
            expect = gap_to + 1;
        }
        assert_eq!(rec.seq, expect);
        assert_eq!(rec.payload, payload_for(rec.seq, len));
        expect += 1;
    }
    assert_eq!(expect, total + 1, "every non-lost record was replayed");
    drop(sp);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicated_frame_is_rejected_by_seq_contiguity() {
    let dir = tmpdir("dupframe");
    let (sp, len) = multi_segment_spool(&dir);
    let total = sp.stats().records;
    drop(sp);

    // Duplicate the first frame of the second closed segment: the copy
    // has a valid CRC but a non-contiguous sequence number, which the
    // scan must reject — a CRC alone cannot catch replayed writes.
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    names.sort();
    let victim = &names[1];
    faultkit::file_duplicate_range(victim, HEADER_BYTES, FRAME_OVERHEAD + len as u64)
        .expect("duplicate");

    let mut sp = Spool::open(manual_cfg(&dir, 256)).expect("reopen");
    let (records, gaps) = replay_all(&mut sp, 0);
    // No record is delivered twice and no phantom appears; the segment's
    // post-duplicate remainder is a known-lost range.
    let mut seen = std::collections::HashSet::new();
    for rec in &records {
        assert!(seen.insert(rec.seq), "seq {} delivered twice", rec.seq);
        assert!(rec.seq <= total, "phantom seq {}", rec.seq);
        assert_eq!(rec.payload, payload_for(rec.seq, len));
    }
    assert_eq!(
        gaps.len(),
        1,
        "duplicate splits the segment into prefix + gap"
    );
    drop(sp);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Retention under pressure: replay reports the dropped range as a gap.
// ---------------------------------------------------------------------

#[test]
fn retention_drop_surfaces_as_replay_gap_with_unacked_accounting() {
    let dir = tmpdir("retention-gap");
    let mut cfg = manual_cfg(&dir, 256);
    cfg.max_spool_bytes = Some(1100);
    let mut sp = Spool::open(cfg).expect("open");
    let len = 40usize;
    // ACK as we go only for the first 6 records: later drops hit
    // un-ACKed data and must be accounted as such.
    for i in 0..40u64 {
        sp.append(i, &payload_for(i + 1, len)).expect("append");
        if i == 6 {
            sp.sync().expect("sync");
            sp.ack(6).expect("ack");
        }
    }
    sp.sync().expect("sync");
    let stats = sp.stats();
    assert!(stats.dropped_segments > 0, "byte cap must trigger drops");
    assert!(stats.bytes <= 1100, "cap enforced");
    assert!(
        stats.dropped_unacked_records > 0,
        "drops past the ACK cursor are data loss and must be surfaced"
    );
    assert!(stats.dropped_unacked_records <= stats.dropped_records);

    // Replay from the ACK cursor: the dropped range comes back as a gap
    // so the replaying side can count it lost; the survivors follow in
    // order.
    let (records, gaps) = replay_all(&mut sp, 6);
    assert_eq!(gaps.len(), 1);
    let (gap_from, gap_to) = gaps[0];
    assert_eq!(gap_from, 7, "gap starts right after the ACK cursor");
    assert_eq!(
        gap_to - gap_from + 1,
        stats.dropped_records,
        "gap spans exactly the dropped records (ACKed ones were GC'd, not dropped)"
    );
    assert_eq!(records.first().map(|r| r.seq), Some(gap_to + 1));
    assert_eq!(records.last().map(|r| r.seq), Some(40));
    drop(sp);
    std::fs::remove_dir_all(&dir).ok();
}
