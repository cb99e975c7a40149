//! Shard-equivalence suite: the sharded, replica-selector engine must be
//! *provably* the same bandit as the centralized one where the math says
//! so, and within exploration noise where it says that.
//!
//! Three layers of guarantees, mirroring `batch_equivalence.rs`:
//!
//! 1. **S = 1 is bandit-exact.** A single shard has no foreign deltas, so
//!    the replica *is* the centralized selector — the engine's output is
//!    compared bit for bit against an in-test replay of the centralized
//!    worker loop (same stream, same seed, same arithmetic).
//! 2. **Delta-sync is posterior-exact at `sync_interval = 1`.** For
//!    sample-average policies the fold depends only on per-arm sums and
//!    counts, so any interleaving of outcomes across shards must land on
//!    the centralized posterior (property-tested over random scripts, up
//!    to the table's ~2⁻³² fixed-point quantization).
//! 3. **S > 1 pays only exploration noise.** Egress and dominant-arm
//!    share move by less than the ε-greedy exploration band, and the
//!    staleness test quantifies the cumulative-reward cost of syncing
//!    lazily (documented bound: ≤ 5 % vs centralized at equal decisions).

use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::engine::{run_pipeline, EngineConfig};
use adaedge_core::selector::{ArmOutcome, LosslessSelector, SelectorConfig};
use adaedge_core::shard::{ReplicaSelector, SharedOutcomeTable};
use adaedge_datasets::{SegmentSource, SineStream};
use proptest::prelude::*;

fn roster() -> Vec<CodecId> {
    CodecRegistry::lossless_candidates()
}

fn run_with_shards(shards: usize, k: usize, segments: usize) -> adaedge_core::engine::EngineReport {
    let mut source = SineStream::new(1000, 0.1, 4, 7);
    let config = EngineConfig {
        n_compression_threads: shards,
        batch_segments: k,
        ..Default::default()
    };
    run_pipeline(&mut source, segments, &config).expect("pipeline")
}

/// Replay the centralized (pre-shard) worker loop: one selector, one
/// thread, segments in stream order, one sticky arm per K-batch. This is
/// the oracle the S = 1 engine must reproduce bit for bit.
fn centralized_oracle(k: usize, segments: usize) -> (u64, std::collections::HashMap<CodecId, u64>) {
    let mut source = SineStream::new(1000, 0.1, 4, 7);
    let reg = CodecRegistry::new(4);
    let mut selector = LosslessSelector::new(roster(), SelectorConfig::default());
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
    (bytes_out, counts)
}

#[test]
fn s1_engine_is_bit_identical_to_centralized_oracle() {
    // Per-segment scheduling and sticky batches both must reproduce the
    // centralized engine exactly when there is only one shard: same seed,
    // same decision sequence, same bytes on the wire.
    for k in [1, 8] {
        let report = run_with_shards(1, k, 120);
        let (oracle_bytes, oracle_counts) = centralized_oracle(k, 120);
        assert_eq!(report.bytes_out, oracle_bytes, "K={k}");
        assert_eq!(report.codec_counts, oracle_counts, "K={k}");
        assert_eq!(report.shards, 1, "K={k}");
    }
}

#[test]
fn per_shard_accounting_covers_every_segment() {
    for shards in [2, 4] {
        let report = run_with_shards(shards, 4, 160);
        assert_eq!(report.segments, 160, "S={shards}");
        let total: u64 = report.codec_counts.values().sum();
        assert_eq!(total, 160, "S={shards}");
        assert_eq!(report.shards, shards);
        assert_eq!(report.codec_failures, 0, "S={shards}");
        // Delta-sync demonstrably ran.
        assert!(report.selector_syncs > 0, "S={shards}");
    }
}

#[test]
fn sharded_egress_stays_within_exploration_noise() {
    // Equal decision counts per selector: each of the S replicas makes
    // SEGMENTS/S decisions at K=1, the centralized run makes SEGMENTS.
    // Total work is identical; what may move is exploration overhead
    // (each replica burns its own optimistic-init warm-up), bounded by
    // the ε-band tolerances batch_equivalence already uses.
    const SEGMENTS: usize = 400;
    let s1 = run_with_shards(1, 1, SEGMENTS);
    for shards in [2, 4] {
        let sn = run_with_shards(shards, 1, SEGMENTS);
        let egress1 = s1.bytes_out as f64 / s1.bytes_in as f64;
        let egress_n = sn.bytes_out as f64 / sn.bytes_in as f64;
        assert!(
            (egress1 - egress_n).abs() < 0.1,
            "S={shards}: egress {egress_n:.4} vs S=1 {egress1:.4}"
        );
    }
}

#[test]
fn delta_sync_staleness_cost_is_bounded() {
    // Prescribed stationary environment: each arm always achieves a fixed
    // ratio, so cumulative reward is a pure function of the decision
    // sequence and regret is measurable without codec noise. Centralized
    // D decisions vs S=4 shards × D/4 decisions each, interleaved
    // round-robin — equal decision counts, different staleness.
    const D: usize = 400;
    const S: usize = 4;
    let arms = roster();
    let ratios: Vec<f64> = (0..arms.len())
        .map(|i| 0.3 + 0.6 * (i as f64 / (arms.len() - 1) as f64))
        .collect(); // arm 0 is best (ratio 0.3), last is worst (0.9)

    let mut central = LosslessSelector::new(arms.clone(), SelectorConfig::default());
    let mut central_reward = 0.0;
    for _ in 0..D {
        let (arm, _) = central.select_arm();
        central_reward += central.report_batch(arm, &[ArmOutcome::Ratio(ratios[arm])]);
    }

    for sync_interval in [1, 64] {
        let table = SharedOutcomeTable::new(arms.len());
        let mut replicas: Vec<ReplicaSelector> = (0..S)
            .map(|i| {
                ReplicaSelector::new(
                    arms.clone(),
                    SelectorConfig::default(),
                    i,
                    &table,
                    sync_interval,
                )
            })
            .collect();
        let mut sharded_reward = 0.0;
        for d in 0..D {
            let replica = &mut replicas[d % S];
            let (arm, _) = replica.select_arm();
            let outcome = [ArmOutcome::Ratio(ratios[arm])];
            replica.report_batch(arm, &outcome);
            sharded_reward += (1.0 - ratios[arm]).clamp(0.0, 1.0);
        }
        // Documented staleness bound (DESIGN.md §4e): the cumulative-reward
        // cost of replication — extra optimistic-init warm-up plus up to
        // (S−1)·sync_interval decisions of posterior lag — stays within 5 %
        // of the centralized selector at equal decision counts.
        let delta = (central_reward - sharded_reward).abs() / central_reward;
        assert!(
            delta <= 0.05,
            "sync_interval={sync_interval}: sharded reward {sharded_reward:.2} vs \
             centralized {central_reward:.2} (delta {:.1}%)",
            delta * 100.0
        );
        assert!(table.syncs() > 0);
    }
}

#[test]
fn pool_exhaustion_under_sharding_does_not_deadlock() {
    // Regression for the recycle-pool bound: with the one-worker formula
    // (queue_cap + 2), four workers can each hold a batch while the queue
    // is full, leaving none to recycle and deadlocking the producer's
    // blocking recv. The bound queue_cap + S + 1 keeps one batch always
    // in flight. Tiny buffer + many segments makes the pool the
    // bottleneck, so this run deadlocks (and times out) if the bound
    // regresses.
    let mut source = SineStream::new(200, 0.1, 4, 7);
    let config = EngineConfig {
        n_compression_threads: 4,
        buffer_segments: 1, // floors at 2 batches per worker: maximum pool pressure
        batch_segments: 2,
        ..Default::default()
    };
    let report = run_pipeline(&mut source, 300, &config).expect("pipeline");
    assert_eq!(report.segments, 300);
    let total: u64 = report.codec_counts.values().sum();
    assert_eq!(total, 300);
}

/// Apply a prescribed outcome script round-robin across `s` replicas at
/// `sync_interval = 1`, final-sync each, and return them.
fn replay_sharded<'t>(
    script: &[(usize, f64)],
    s: usize,
    table: &'t SharedOutcomeTable,
) -> Vec<ReplicaSelector<'t>> {
    let mut replicas: Vec<ReplicaSelector> = (0..s)
        .map(|i| ReplicaSelector::new(roster(), SelectorConfig::default(), i, table, 1))
        .collect();
    for (i, &(arm, ratio)) in script.iter().enumerate() {
        replicas[i % s].report_batch(arm, &[ArmOutcome::Ratio(ratio)]);
    }
    for r in &mut replicas {
        r.sync();
    }
    replicas
}

proptest! {
    /// Any outcome script, split across any shard count at
    /// `sync_interval = 1`, lands every replica on the centralized
    /// posterior: identical pull counts, estimates within the table's
    /// fixed-point quantization. This is the delta-sync exactness claim
    /// for sample-average policies.
    #[test]
    fn sharded_replay_matches_centralized_posterior(
        script in prop::collection::vec((0usize..6, 0.0f64..1.5), 1..120),
        s in 1usize..=4,
    ) {
        let mut central = LosslessSelector::new(roster(), SelectorConfig::default());
        for &(arm, ratio) in &script {
            central.report_batch(arm, &[ArmOutcome::Ratio(ratio)]);
        }
        let table = SharedOutcomeTable::new(roster().len());
        let replicas = replay_sharded(&script, s, &table);
        for (i, replica) in replicas.iter().enumerate() {
            prop_assert_eq!(replica.local().pulls(), central.pulls(), "replica {}", i);
            prop_assert_eq!(replica.local().total_pulls(), central.total_pulls());
            for arm in 0..central.arms().len() {
                let got = replica.local().estimates()[arm];
                let want = central.estimates()[arm];
                prop_assert!(
                    (got - want).abs() < 1e-6,
                    "replica {} arm {}: {} vs {}", i, arm, got, want
                );
            }
        }
    }

    /// A single shard is not merely close — it is the centralized
    /// selector, bit for bit, including failures, streaks and quarantine,
    /// because no foreign deltas ever exist to fold.
    #[test]
    fn single_shard_replay_is_bit_identical(
        script in prop::collection::vec((0usize..6, 0.0f64..1.5, any::<bool>()), 1..120),
    ) {
        let table = SharedOutcomeTable::new(roster().len());
        let mut replica = ReplicaSelector::new(roster(), SelectorConfig::default(), 0, &table, 1);
        let mut central = LosslessSelector::new(roster(), SelectorConfig::default());
        for &(arm, ratio, fail) in &script {
            let outcome = if fail {
                [ArmOutcome::Failure]
            } else {
                [ArmOutcome::Ratio(ratio)]
            };
            replica.report_batch(arm, &outcome);
            central.report_batch(arm, &outcome);
        }
        prop_assert_eq!(replica.local().estimates(), central.estimates());
        prop_assert_eq!(replica.local().pulls(), central.pulls());
        prop_assert_eq!(replica.local().failure_totals(), central.failure_totals());
        for arm in 0..central.arms().len() {
            prop_assert_eq!(
                replica.local().is_quarantined(arm),
                central.is_quarantined(arm)
            );
        }
    }
}
