//! End-to-end offline-mode tests: the recoding cascade under a hard
//! budget, MAB vs fixed-pair baselines, and the CodecDB failure mode.

use adaedge::codecs::{CodecId, CodecRegistry};
use adaedge::core::baselines::{CodecDbBaseline, FixedPair, FixedPairOffline};
use adaedge::core::{AggKind, OfflineAdaEdge, OfflineConfig, OptimizationTarget, PolicyKind};
use adaedge::datasets::{CbfConfig, CbfGenerator, CbfStream, SegmentSource};
use adaedge::ml::{metrics, Dataset, KMeansConfig, Model};
use adaedge::storage::SegmentStore;

const SEGMENT: usize = 1024;
const INSTANCE: usize = 128;

fn kmeans_model() -> Model {
    let mut gen = CbfGenerator::new(CbfConfig {
        seed: 23,
        ..Default::default()
    });
    let (rows, _) = gen.dataset(40);
    Model::train_kmeans(
        &Dataset::unlabeled(rows),
        KMeansConfig {
            k: 3,
            ..Default::default()
        },
    )
}

fn offline_accuracy(edge: &OfflineAdaEdge, model: &Model) -> f64 {
    let mut orig_rows = Vec::new();
    let mut lossy_rows = Vec::new();
    for (_, rec, orig) in edge.reconstruct_all().unwrap() {
        let orig = orig.expect("originals kept");
        for (o, l) in orig.chunks_exact(INSTANCE).zip(rec.chunks_exact(INSTANCE)) {
            orig_rows.push(o.to_vec());
            lossy_rows.push(l.to_vec());
        }
    }
    metrics::ml_accuracy(model, &orig_rows, &lossy_rows)
}

#[test]
fn mab_cascade_stays_within_budget_and_keeps_accuracy() {
    let model = kmeans_model();
    let budget = 200 * 1024;
    let mut config = OfflineConfig::new(budget, OptimizationTarget::ml());
    config.model = Some(model.clone());
    config.instance_len = INSTANCE;
    let mut edge = OfflineAdaEdge::new(config).unwrap();
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    for _ in 0..150 {
        let report = edge.ingest(&stream.next_segment()).unwrap();
        assert!(report.utilization <= 1.0 + 1e-9, "budget breached");
    }
    assert!(edge.total_recodes() > 0);
    assert_eq!(edge.store().len(), 150);
    let acc = offline_accuracy(&edge, &model);
    // ~6x overcommit: the MAB should keep most cluster assignments intact.
    assert!(acc > 0.7, "offline accuracy {acc}");
}

#[test]
fn mab_beats_a_poor_fixed_pair() {
    let model = kmeans_model();
    let budget = 160 * 1024;
    let n_segments = 120;

    // MAB pipeline.
    let mut config = OfflineConfig::new(budget, OptimizationTarget::ml());
    config.model = Some(model.clone());
    config.instance_len = INSTANCE;
    let mut mab = OfflineAdaEdge::new(config).unwrap();
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    for _ in 0..n_segments {
        mab.ingest(&stream.next_segment()).unwrap();
    }
    let mab_acc = offline_accuracy(&mab, &model);

    // A deliberately poor fixed pair: snappy (weak lossless on floats) +
    // RRD-sample (crude lossy), hand-driven through the same cascade.
    let reg = CodecRegistry::new(4);
    let pair = FixedPair::new(CodecId::Snappy, CodecId::RrdSample);
    let mut store = SegmentStore::with_budget(budget);
    let mut originals = Vec::new();
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    for _ in 0..n_segments {
        let data = stream.next_segment();
        let sel = pair.compress_lossless(&reg, &data).unwrap();
        let mut incoming = sel.block;
        // Make room: recode victims to half size until under 0.8 budget.
        loop {
            let projected = store.used_bytes() + incoming.compressed_bytes();
            if (projected as f64) <= 0.8 * budget as f64 {
                break;
            }
            let mut freed = false;
            for id in store.victim_order() {
                let seg = store.peek(id).unwrap();
                let target = seg.ratio() * 0.5;
                let block = seg.block().unwrap().clone();
                if let Ok(recoded) = pair.recode(&reg, &block, target) {
                    if recoded.block.compressed_bytes() < block.compressed_bytes() {
                        store.replace(id, recoded.block).unwrap();
                        freed = true;
                        break;
                    }
                }
            }
            if !freed {
                break;
            }
        }
        // Snappy can exceed ratio 1.0 on floats; if the put fails the pair
        // baseline has effectively failed, mirroring the paper's failures.
        if incoming.ratio() > 1.0 {
            incoming = reg.get(CodecId::Raw).compress(&data).unwrap();
        }
        store.put_compressed(incoming).unwrap();
        originals.push(data);
    }
    let mut orig_rows = Vec::new();
    let mut lossy_rows = Vec::new();
    for (id, orig) in store.ids().into_iter().zip(&originals) {
        let rec = reg
            .decompress(store.peek(id).unwrap().block().unwrap())
            .unwrap();
        for (o, l) in orig.chunks_exact(INSTANCE).zip(rec.chunks_exact(INSTANCE)) {
            orig_rows.push(o.to_vec());
            lossy_rows.push(l.to_vec());
        }
    }
    let pair_acc = metrics::ml_accuracy(&model, &orig_rows, &lossy_rows);

    assert!(
        mab_acc >= pair_acc,
        "MAB {mab_acc} should not lose to snappy_rrdsample {pair_acc}"
    );
}

#[test]
fn codecdb_baseline_fails_at_recode_time() {
    // CodecDB has no lossy path: once storage pressure demands ratios below
    // lossless reach, it cannot continue (Figure 12's "CodecDB fails").
    let reg = CodecRegistry::new(4);
    let mut db = CodecDbBaseline::new(CodecRegistry::lossless_candidates(), 1);
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    // Let it commit, then demand an impossible ratio.
    for _ in 0..12 {
        db.compress(&reg, &stream.next_segment()).unwrap();
    }
    assert!(db.committed().is_some());
    let err = db
        .compress_for_ratio(&reg, &stream.next_segment(), 0.05)
        .unwrap_err();
    assert!(matches!(
        err,
        adaedge::core::AdaEdgeError::NoFeasibleArm { .. }
    ));
}

#[test]
fn fifo_and_lru_policies_both_bound_space() {
    let model = kmeans_model();
    for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::QueryCount] {
        let mut config = OfflineConfig::new(120 * 1024, OptimizationTarget::ml());
        config.model = Some(model.clone());
        config.instance_len = INSTANCE;
        config.policy = policy;
        let mut edge = OfflineAdaEdge::new(config).unwrap();
        let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
        for _ in 0..80 {
            let report = edge.ingest(&stream.next_segment()).unwrap();
            assert!(report.utilization <= 1.0 + 1e-9, "{policy:?}");
        }
        assert_eq!(edge.store().len(), 80, "{policy:?}");
    }
}

#[test]
fn lru_keeps_fresh_segments_lossless() {
    // "AdaEdge consistently delivers 100% accuracy for fresh segments"
    // (§V-B2): the most recent segments should still be losslessly stored.
    let model = kmeans_model();
    let mut config = OfflineConfig::new(150 * 1024, OptimizationTarget::ml());
    config.model = Some(model.clone());
    config.instance_len = INSTANCE;
    let mut edge = OfflineAdaEdge::new(config).unwrap();
    let mut stream = CbfStream::new(CbfConfig::default(), SEGMENT);
    let mut last_id = None;
    for _ in 0..100 {
        last_id = Some(edge.ingest(&stream.next_segment()).unwrap().id);
    }
    let freshest = edge.store().peek(last_id.unwrap()).unwrap();
    assert!(
        freshest.block().unwrap().codec.is_lossless(),
        "freshest segment was lossy-compressed: {:?}",
        freshest.block().unwrap().codec
    );
}

/// FNV-1a over every stored segment's id, codec and payload bytes, in
/// ingestion order.
fn store_digest(store: &SegmentStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in store.ids() {
        let block = store.peek(id).unwrap().block().unwrap();
        eat(&id.0.to_le_bytes());
        eat(block.codec.name().as_bytes());
        eat(&(block.payload.len() as u64).to_le_bytes());
        eat(&block.payload);
    }
    h
}

#[test]
fn sum_cascade_stores_pinned_blocks() {
    // The offline benchmark's shape (SUM target, ε = 0.1, θ = 0.8, LRU,
    // 1000-point CBF segments, a 20 kB budget): most ingests recode. With
    // the default roster most victims are Sprintz blocks; a roster of
    // bit-exact lossless arms makes every first recode start from a gzip,
    // snappy or Gorilla block. PAA keeps the sum and scores the reward
    // ceiling, so once it has, no band explores: every older segment is
    // stored as PAA, and held originals store the same blocks as decodes.
    let bit_exact = vec![CodecId::Gzip, CodecId::Snappy, CodecId::Gorilla];
    let cases = [
        (
            CodecRegistry::lossless_candidates(),
            true,
            0xc058_5e81_bf15_3fc0,
        ),
        (
            CodecRegistry::lossless_candidates(),
            false,
            0xc058_5e81_bf15_3fc0,
        ),
        (bit_exact.clone(), true, 0x91fa_0aa3_2ed3_a247),
        (bit_exact, false, 0x91fa_0aa3_2ed3_a247),
    ];
    for (arms, keep_originals, want) in cases {
        let what = format!("{arms:?}, keep_originals {keep_originals}");
        let mut config = OfflineConfig::new(20_000, OptimizationTarget::agg(AggKind::Sum));
        config.lossless_arms = arms;
        config.keep_originals = keep_originals;
        let mut edge = OfflineAdaEdge::new(config).unwrap();
        let mut stream = CbfStream::new(
            CbfConfig {
                seed: 7,
                ..Default::default()
            },
            1000,
        );
        for _ in 0..80 {
            edge.ingest(&stream.next_segment()).unwrap();
        }
        assert!(edge.total_recodes() > 40, "{what}");
        let mut codecs = std::collections::BTreeMap::new();
        for seg in edge.store().iter() {
            *codecs.entry(seg.block().unwrap().codec.name()).or_insert(0) += 1;
        }
        eprintln!(
            "{what}: {} recodes, stored {codecs:?}, digest {:#018x}",
            edge.total_recodes(),
            store_digest(edge.store())
        );
        assert_eq!(store_digest(edge.store()), want, "{what}");
    }
}

#[test]
fn fixed_pair_cascade_stores_pinned_blocks() {
    // The shape of `sum_cascade_stores_pinned_blocks` driven through fixed
    // pairs, Raw/PLA being the TVStore-like cascade. A pair that runs out
    // of shrink room fails its ingest; the pins then cover the store as
    // the failure left it. Every digest was captured before the offline
    // drivers shared one cascade, so they prove that change kept every
    // stored byte.
    use CodecId::{Buff, BuffLossy, Fft, Gorilla, Paa, Pla, Raw, Sprintz};
    let cases = [
        (Gorilla, Paa, 80, 457, 0x0a0f_33fc_57a9_afde),
        (Sprintz, Fft, 80, 907, 0xf4fe_8dad_2ab4_e3b7),
        // BUFF-lossy bottoms out near ratio 0.125 and fails at segment 19.
        (Buff, BuffLossy, 18, 60, 0x564e_651f_af1f_4b0d),
        (Raw, Pla, 80, 1490, 0xcbaf_a20d_0890_da0e),
    ];
    for (lossless, lossy, want_stored, want_recodes, want) in cases {
        let pair = FixedPair::new(lossless, lossy);
        let mut driver = FixedPairOffline::new(pair, 20_000, 4);
        let mut stream = CbfStream::new(
            CbfConfig {
                seed: 7,
                ..Default::default()
            },
            1000,
        );
        for _ in 0..80 {
            if driver.ingest(&stream.next_segment()).is_err() {
                break;
            }
        }
        let name = driver.name();
        let digest = store_digest(driver.store());
        eprintln!(
            "{name}: {} stored, {} recodes, digest {digest:#018x}",
            driver.store().len(),
            driver.total_recodes
        );
        assert_eq!(driver.store().len(), want_stored, "{name}");
        assert_eq!(driver.total_recodes, want_recodes, "{name}");
        assert_eq!(digest, want, "{name}");
    }
}

#[test]
fn policy_and_target_cascades_store_pinned_blocks() {
    // The shape of `sum_cascade_stores_pinned_blocks` under every victim
    // policy and under non-SUM targets. Every third ingest queries an
    // older segment, so LRU, FIFO and query-count walk different orders.
    // PAA keeps the mean as it keeps the sum, so AVG stores what SUM does.
    use PolicyKind::{Fifo, Lru, QueryCount};
    let cases = [
        (Lru, AggKind::Sum, 0xf954_2c41_70fa_4b0d),
        (Fifo, AggKind::Sum, 0x8455_9039_a452_a55f),
        (QueryCount, AggKind::Sum, 0x424d_4b89_21f2_8e7f),
        (Fifo, AggKind::Avg, 0x8455_9039_a452_a55f),
        (QueryCount, AggKind::Min, 0x4979_978c_f01a_619a),
        (Lru, AggKind::Max, 0x55de_4d72_6517_35c8),
    ];
    let mut digests = Vec::new();
    for (policy, kind, want) in cases {
        let what = format!("{policy:?}, {kind:?}");
        let mut config = OfflineConfig::new(20_000, OptimizationTarget::agg(kind));
        config.policy = policy;
        let mut edge = OfflineAdaEdge::new(config).unwrap();
        let mut stream = CbfStream::new(
            CbfConfig {
                seed: 11,
                ..Default::default()
            },
            1000,
        );
        let mut ids = Vec::new();
        for i in 0..60usize {
            if i % 3 == 2 {
                edge.query_segment(ids[(i * 7) % ids.len()]).unwrap();
            }
            ids.push(edge.ingest(&stream.next_segment()).unwrap().id);
        }
        assert!(edge.total_recodes() > 30, "{what}");
        let digest = store_digest(edge.store());
        eprintln!(
            "{what}: {} recodes, digest {digest:#018x}",
            edge.total_recodes()
        );
        digests.push(digest);
        assert_eq!(digest, want, "{what}");
    }
    // The three policies stored different blocks under the SUM target.
    assert!(digests[0] != digests[1] && digests[1] != digests[2] && digests[0] != digests[2]);
}
