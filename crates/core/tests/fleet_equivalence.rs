//! Fleet-equivalence suite: the multi-tenant fleet layer must be the
//! *same engine* per stream, not a statistical cousin of it.
//!
//! Three layers of guarantees, mirroring `shard_equivalence.rs`:
//!
//! 1. **A 1-stream fleet is the single-stream engine.** Stream id 0
//!    leaves the selector seed unchanged (the same φ-multiply derivation
//!    the shard replicas use), so a fleet of one stream over one worker
//!    must reproduce `run_pipeline` at S = 1 bit for bit: same bytes on
//!    the wire, same codec decisions, same posterior as an in-test
//!    centralized oracle replay.
//! 2. **Interleaving is invisible per stream.** At most one batch per
//!    stream is in flight, so a stream's select→report pairs never
//!    reorder no matter how many tenants share the workers or which
//!    worker takes the batch. Property-tested: every stream's posterior
//!    under interleaved multi-stream traffic equals its solo-fleet run.
//! 3. **Evict/restore is bit-exact.** A posterior archived at eviction
//!    (in memory or through the CRC-framed posterior file) and restored
//!    at re-admission continues with identical pulls, estimates, failure
//!    totals and quarantine verdicts — verified against an oracle that
//!    replays the restore by hand.
//!
//! The egress stage's hard invariant rides along: no emitted transport
//! frame ever exceeds the payload cap, and per-stream frame accounting
//! conserves every compressed byte.

use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::engine::{run_pipeline, EngineConfig};
use adaedge_core::fleet::{run_fleet, FleetConfig, StreamSpec};
use adaedge_core::frame::{FrameConfig, Priority};
use adaedge_core::selector::{ArmOutcome, LosslessSelector, SelectorConfig};
use adaedge_datasets::{SegmentSource, SineStream};
use proptest::prelude::*;

fn roster() -> Vec<CodecId> {
    CodecRegistry::lossless_candidates()
}

const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fleet's per-stream seed derivation, replicated for oracles.
fn stream_seed(base: u64, id: u64) -> u64 {
    base ^ id.wrapping_mul(HASH_MULT)
}

fn sine_spec(id: u64, priority: Priority, n: usize, seg_len: usize, seed: u64) -> StreamSpec {
    StreamSpec::new(
        id,
        priority,
        n,
        Box::new(SineStream::new(seg_len, 0.1, 4, seed)),
    )
}

/// Replay one stream's worker loop centrally: its own selector (seeded by
/// the fleet derivation), segments in order, one sticky arm per K-batch.
/// Returns (bytes_out, codec_counts, final selector).
fn stream_oracle(
    id: u64,
    source: &mut dyn SegmentSource,
    segments: usize,
    k: usize,
    selector_config: SelectorConfig,
) -> (
    u64,
    std::collections::HashMap<CodecId, u64>,
    LosslessSelector,
) {
    let mut config = selector_config;
    config.seed = stream_seed(config.seed, id);
    let reg = CodecRegistry::new(4);
    let mut selector = LosslessSelector::new(roster(), config);
    let mut scratch = CodecScratch::new();
    let mut bytes_out = 0u64;
    let mut counts = std::collections::HashMap::new();
    let mut seg = Vec::with_capacity(source.segment_len());
    let mut done = 0usize;
    while done < segments {
        let batch = k.min(segments - done);
        let (arm, codec) = selector.select_arm();
        let mut outcomes = Vec::with_capacity(batch);
        for _ in 0..batch {
            source.next_segment_into(&mut seg);
            let block = reg.compress_into(codec, &seg, &mut scratch).expect("codec");
            bytes_out += block.compressed_bytes() as u64;
            outcomes.push(ArmOutcome::Ratio(block.ratio()));
            *counts.entry(codec).or_insert(0u64) += 1;
        }
        selector.report_batch(arm, &outcomes);
        done += batch;
    }
    (bytes_out, counts, selector)
}

#[test]
fn one_stream_fleet_is_bit_identical_to_engine() {
    // Stream id 0 ⇒ unchanged seed ⇒ the fleet's one selector is the
    // engine's shard-0 replica. Same source, same K ⇒ identical bytes
    // and decisions, at per-segment and sticky-batch scheduling alike.
    for k in [1, 8] {
        let config = FleetConfig {
            n_compression_threads: 1,
            batch_segments: k,
            ..Default::default()
        };
        let fleet =
            run_fleet(vec![sine_spec(0, Priority::Normal, 120, 1000, 7)], &config).expect("fleet");

        let mut source = SineStream::new(1000, 0.1, 4, 7);
        let engine_config = EngineConfig {
            n_compression_threads: 1,
            batch_segments: k,
            ..Default::default()
        };
        let engine = run_pipeline(&mut source, 120, &engine_config).expect("engine");

        assert_eq!(fleet.segments, engine.segments, "K={k}");
        assert_eq!(fleet.bytes_in, engine.bytes_in, "K={k}");
        assert_eq!(fleet.bytes_out, engine.bytes_out, "K={k}");
        assert_eq!(fleet.codec_counts, engine.codec_counts, "K={k}");
        assert_eq!(fleet.streams, 1);
    }
}

#[test]
fn one_stream_fleet_posterior_matches_central_oracle() {
    for k in [1, 4] {
        let config = FleetConfig {
            n_compression_threads: 1,
            batch_segments: k,
            ..Default::default()
        };
        let fleet =
            run_fleet(vec![sine_spec(3, Priority::Normal, 90, 500, 11)], &config).expect("fleet");
        let mut source = SineStream::new(500, 0.1, 4, 11);
        let (bytes, counts, oracle) =
            stream_oracle(3, &mut source, 90, k, SelectorConfig::default());
        let r = &fleet.stream_reports[0];
        assert_eq!(r.bytes_out, bytes, "K={k}");
        assert_eq!(fleet.codec_counts, counts, "K={k}");
        assert_eq!(r.pulls, oracle.pulls(), "K={k}");
        // Estimates bit-for-bit, not approximately.
        let got: Vec<u64> = r.estimates.iter().map(|e| e.to_bits()).collect();
        let want: Vec<u64> = oracle.estimates().iter().map(|e| e.to_bits()).collect();
        assert_eq!(got, want, "K={k}");
        assert_eq!(r.failure_totals, oracle.failure_totals(), "K={k}");
        assert_eq!(r.quarantine_bits, 0, "K={k}");
    }
}

#[test]
fn frame_packer_never_exceeds_cap_and_conserves_bytes() {
    // Tight cap forces heavy fragmentation: compressed sine segments run
    // to hundreds of bytes against a 96-byte cap. The packer's hard
    // invariant (never emit over cap) and conservation (every compressed
    // byte of every stream ships exactly once) must both hold.
    let config = FleetConfig {
        n_compression_threads: 2,
        batch_segments: 2,
        frame: FrameConfig {
            payload_cap: 96,
            fragment_overhead: 8,
        },
        ..Default::default()
    };
    let specs = vec![
        sine_spec(1, Priority::Critical, 20, 400, 1),
        sine_spec(2, Priority::Bulk, 20, 400, 2),
        sine_spec(3, Priority::Normal, 20, 400, 3),
    ];
    let report = run_fleet(specs, &config).expect("fleet");
    assert!(report.frames.frames > 0);
    assert!(
        report.frames.max_frame_used <= 96,
        "frame over cap: {} > 96",
        report.frames.max_frame_used
    );
    let mut egress_total = 0u64;
    for r in &report.stream_reports {
        assert_eq!(
            r.egress.payload_bytes, r.bytes_out,
            "stream {}: every compressed byte must ship exactly once",
            r.id
        );
        assert_eq!(r.egress.segments, r.segments, "stream {}", r.id);
        assert!(r.egress.fragments >= r.egress.segments, "stream {}", r.id);
        egress_total += r.egress.payload_bytes;
    }
    assert_eq!(egress_total, report.bytes_out);
    // Frame bytes = payloads + per-fragment overhead, nothing else.
    let fragments: u64 = report
        .stream_reports
        .iter()
        .map(|r| r.egress.fragments)
        .sum();
    assert_eq!(report.frames.bytes, egress_total + fragments * 8);
}

#[test]
fn bounded_fleet_with_mixed_priorities_accounts_exactly() {
    let config = FleetConfig {
        n_compression_threads: 2,
        batch_segments: 3,
        max_resident_streams: 4,
        ..Default::default()
    };
    let specs: Vec<StreamSpec> = (0..12)
        .map(|id| {
            let pr = Priority::ALL[id as usize % 4];
            sine_spec(id, pr, 7, 300, 100 + id)
        })
        .collect();
    let report = run_fleet(specs, &config).expect("fleet");
    assert_eq!(report.streams, 12);
    assert_eq!(report.segments, 12 * 7);
    assert!(report.peak_resident <= 4, "{}", report.peak_resident);
    assert_eq!(report.evictions, 12);
    assert_eq!(report.restores, 0);
    let counted: u64 = report.codec_counts.values().sum();
    assert_eq!(counted, 12 * 7);
    assert_eq!(report.codec_failures, 0);
    for r in &report.stream_reports {
        assert_eq!(r.segments, 7);
        let pulls: u64 = r.pulls.iter().sum();
        assert_eq!(pulls, 7, "stream {}: every segment is a pull", r.id);
    }
}

#[test]
fn posterior_file_roundtrip_restores_bit_exactly() {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "adaedge-fleet-eq-{}.posteriors",
            std::process::id()
        ));
        p
    };
    std::fs::remove_file(&path).ok();

    // Session 1: stream 9 learns over 40 segments; posterior persisted.
    let config1 = FleetConfig {
        n_compression_threads: 1,
        batch_segments: 4,
        posterior_path: Some(path.clone()),
        ..Default::default()
    };
    let run1 =
        run_fleet(vec![sine_spec(9, Priority::High, 40, 400, 21)], &config1).expect("session 1");
    let r1 = &run1.stream_reports[0];
    assert!(!r1.restored);

    // The persisted file is the in-memory posterior, to the bit.
    let on_disk = adaedge_storage::load_posteriors(&path).expect("load");
    assert_eq!(on_disk.len(), 1);
    assert_eq!(on_disk[0].stream_id, 9);
    assert_eq!(on_disk[0].pulls, r1.pulls);
    let disk_bits: Vec<u64> = on_disk[0].estimates.iter().map(|e| e.to_bits()).collect();
    let mem_bits: Vec<u64> = r1.estimates.iter().map(|e| e.to_bits()).collect();
    assert_eq!(disk_bits, mem_bits);

    // Session 2: same id returns with fresh data; must resume, and the
    // resumed posterior must equal an oracle that restores by hand and
    // replays session 2's segments.
    let config2 = FleetConfig {
        n_compression_threads: 1,
        batch_segments: 4,
        posterior_path: Some(path.clone()),
        ..Default::default()
    };
    let run2 =
        run_fleet(vec![sine_spec(9, Priority::High, 24, 400, 22)], &config2).expect("session 2");
    let r2 = &run2.stream_reports[0];
    assert!(r2.restored);
    assert_eq!(run2.restores, 1);

    let mut sel_config = SelectorConfig::default();
    sel_config.seed = stream_seed(sel_config.seed, 9);
    let reg = CodecRegistry::new(4);
    let mut oracle = LosslessSelector::new(roster(), sel_config);
    oracle.restore_posterior(
        &on_disk[0].pulls,
        &on_disk[0].estimates,
        &on_disk[0].failure_totals,
        on_disk[0].quarantine_bits,
    );
    let mut source = SineStream::new(400, 0.1, 4, 22);
    let mut scratch = CodecScratch::new();
    let mut seg = Vec::new();
    let mut done = 0usize;
    while done < 24 {
        let batch = 4usize.min(24 - done);
        let (arm, codec) = oracle.select_arm();
        let mut outcomes = Vec::with_capacity(batch);
        for _ in 0..batch {
            source.next_segment_into(&mut seg);
            let block = reg.compress_into(codec, &seg, &mut scratch).expect("codec");
            outcomes.push(ArmOutcome::Ratio(block.ratio()));
        }
        oracle.report_batch(arm, &outcomes);
        done += batch;
    }
    assert_eq!(r2.pulls, oracle.pulls());
    let got: Vec<u64> = r2.estimates.iter().map(|e| e.to_bits()).collect();
    let want: Vec<u64> = oracle.estimates().iter().map(|e| e.to_bits()).collect();
    assert_eq!(got, want, "restored stream must continue bit-exactly");
    let total: u64 = r2.pulls.iter().sum();
    assert_eq!(total, 64, "40 + 24 pulls across both sessions");

    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved multi-stream traffic over shared workers
    /// leaves every stream's posterior exactly where its solo run lands
    /// it: the one-batch-in-flight invariant makes scheduling invisible
    /// to the bandit math. Empty specs, a residency bound and a one-batch
    /// buffer (recycle-pool pressure) must not change that, nor stall
    /// the run.
    #[test]
    fn interleaved_posteriors_match_solo_runs(
        n_streams in 2usize..5,
        segs_per_stream in 0usize..16,
        k in 1usize..4,
        shards in 1usize..4,
        max_resident_streams in 0usize..=3,
        buffer_segments in prop_oneof![Just(1usize), Just(64usize)],
    ) {
        let mk_specs = |ids: &[u64]| -> Vec<StreamSpec> {
            ids.iter()
                .map(|&id| sine_spec(id, Priority::Normal, segs_per_stream, 64, 1000 + id))
                .collect()
        };
        let ids: Vec<u64> = (0..n_streams as u64).map(|i| i * 17 + 1).collect();
        let config = FleetConfig {
            n_compression_threads: shards,
            batch_segments: k,
            max_resident_streams,
            buffer_segments,
            ..Default::default()
        };
        let multi = run_fleet(mk_specs(&ids), &config).expect("multi");
        prop_assert_eq!(multi.streams, n_streams as u64);
        let solo_config = FleetConfig {
            n_compression_threads: 1,
            batch_segments: k,
            ..Default::default()
        };
        for &id in &ids {
            let solo = run_fleet(mk_specs(&[id]), &solo_config).expect("solo");
            let m = multi.stream_reports.iter().find(|r| r.id == id).expect("present");
            let s = &solo.stream_reports[0];
            prop_assert_eq!(&m.pulls, &s.pulls, "stream {}", id);
            let m_bits: Vec<u64> = m.estimates.iter().map(|e| e.to_bits()).collect();
            let s_bits: Vec<u64> = s.estimates.iter().map(|e| e.to_bits()).collect();
            prop_assert_eq!(m_bits, s_bits, "stream {}", id);
            prop_assert_eq!(&m.failure_totals, &s.failure_totals, "stream {}", id);
            prop_assert_eq!(m.quarantine_bits, s.quarantine_bits, "stream {}", id);
            prop_assert_eq!(m.bytes_out, s.bytes_out, "stream {}", id);
        }
    }
}
