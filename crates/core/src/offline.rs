//! Offline mode (§IV-B2, §IV-C2): no egress link — data keeps evolving
//! inside a hard storage budget.
//!
//! Incoming segments are compressed with the lossless MAB and stored. When
//! occupancy crosses `θ × budget` (θ = 0.8 in the paper) the recoding
//! cascade wakes up: policy-ordered victims are re-compressed to half
//! their current size by the ratio-banded lossy MAB, same-codec recodes
//! using virtual decompression. A segment that cannot shrink further is
//! skipped; the experiment fails only when even the cascade cannot make
//! room for new data.
//!
//! The mode is single-threaded: [`OfflineAdaEdge`] compresses, makes room
//! and stores each segment in turn, and the fixed-pair baselines run the
//! same cascade with their own recode step.

use crate::error::{AdaEdgeError, Result};
use crate::selector::{BandedLossySelector, LosslessSelector, Selection, SelectorConfig};
use crate::targets::{OptimizationTarget, Reference, ReferenceAggs, RewardEvaluator};
use adaedge_codecs::{CodecError, CodecId, CodecRegistry, CodecScratch, CompressedBlock};
use adaedge_ml::Model;
use adaedge_storage::{
    CompressionPolicy, FifoPolicy, LruPolicy, QueryCountPolicy, Segment, SegmentData, SegmentId,
    SegmentStore, StoreError, VictimKey,
};
use std::collections::HashMap;
use std::time::Instant;

/// Which compression-sequencing policy to run (§IV-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used (AdaEdge's default).
    Lru,
    /// Insertion order (RRDTool-style round robin).
    Fifo,
    /// Least-queried first.
    QueryCount,
}

impl PolicyKind {
    fn build(self) -> Box<dyn CompressionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::QueryCount => Box::new(QueryCountPolicy::new()),
        }
    }
}

/// Offline pipeline configuration.
pub struct OfflineConfig {
    /// Hard storage budget in bytes.
    pub storage_budget_bytes: usize,
    /// Recoding trigger as a fraction of the budget (paper: 0.8).
    pub recode_threshold: f64,
    /// Each recoding pass shrinks a victim to this fraction of its current
    /// size (paper: 0.5 — "reduced to half").
    pub recode_factor: f64,
    /// Lossless candidate arms.
    pub lossless_arms: Vec<CodecId>,
    /// Lossy candidate arms.
    pub lossy_arms: Vec<CodecId>,
    /// MAB hyper-parameters (paper: ε = 0.1 offline).
    pub selector: SelectorConfig,
    /// The workload target the lossy MABs optimize.
    pub target: OptimizationTarget,
    /// Frozen model for ML targets.
    pub model: Option<Model>,
    /// Dataset instance length.
    pub instance_len: usize,
    /// Dataset decimal precision.
    pub precision: u8,
    /// Sequencing policy.
    pub policy: PolicyKind,
    /// Compression-ratio band edges for the lossy MAB set (§IV-C2);
    /// a single edge `[1.0]` collapses to one instance (ablation).
    pub band_edges: Vec<f64>,
    /// Keep originals for reward evaluation (experiment harness mode; a
    /// production deployment would sample instead). Held originals also
    /// spare victim decodes: a victim stored with a
    /// [bit-exact](adaedge_codecs::CodecId::is_bit_exact) lossless codec
    /// (gzip, zlib, snappy, …) is recoded from its original, which its
    /// decode would equal bit for bit, so it is never decompressed.
    pub keep_originals: bool,
}

impl OfflineConfig {
    /// Defaults matching the paper's offline experiments.
    pub fn new(storage_budget_bytes: usize, target: OptimizationTarget) -> Self {
        Self {
            storage_budget_bytes,
            recode_threshold: 0.8,
            recode_factor: 0.5,
            lossless_arms: CodecRegistry::lossless_candidates(),
            lossy_arms: CodecRegistry::lossy_candidates(),
            selector: SelectorConfig::offline(),
            target,
            model: None,
            instance_len: 0,
            precision: 4,
            policy: PolicyKind::Lru,
            band_edges: adaedge_bandit::default_band_edges(),
            keep_originals: true,
        }
    }
}

/// One reconstructed segment: (id, reconstruction, original-if-kept).
pub type ReconstructedSegment = (SegmentId, Vec<f64>, Option<Vec<f64>>);

/// Outcome of ingesting one segment.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Id the segment was stored under.
    pub id: SegmentId,
    /// The lossless selection that stored it.
    pub selection: Selection,
    /// Recoding passes triggered by this ingest.
    pub recodes: usize,
    /// Wall-clock seconds spent making room for this segment: the whole
    /// recoding cascade, including the lossy arms' compress and recode
    /// calls, scoring each attempt (from compressed-domain aggregates, or
    /// a decode where the target needs one), the decode of a victim
    /// recoded into another codec, and attempts that were not committed.
    pub recode_seconds: f64,
    /// The part of `recode_seconds` spent in the committed recodes' own
    /// compress or recode calls (a cross-codec recode's victim decode
    /// included). It is the cascade's cost to a compression thread that
    /// leaves reward evaluation to another thread, as the paper does.
    pub recode_commit_seconds: f64,
    /// Storage utilization after the ingest.
    pub utilization: f64,
}

/// A hard-budgeted [`SegmentStore`] and the one recoding cascade that
/// keeps it under θ × budget (§IV-C2), shared by [`OfflineAdaEdge`] and
/// the fixed-pair baselines. Each driver supplies only its recode step,
/// and every segment enters through [`BudgetedStore::put`].
pub(crate) struct BudgetedStore {
    store: SegmentStore,
    budget: usize,
    threshold: f64,
    recode_factor: f64,
    /// Each held original with the aggregates its recodes score against,
    /// computed once at `put`.
    originals: Option<HashMap<SegmentId, (Vec<f64>, ReferenceAggs)>>,
    /// Raw bytes (points × 8) of the stored segments; a recode keeps a
    /// segment's point count, so only `put` and `remove` change it.
    raw_bytes: usize,
    /// The victim order of the current `make_room` call.
    order: VictimOrder,
    /// Committed recodes so far.
    pub(crate) total_recodes: u64,
}

impl BudgetedStore {
    /// A `budget`-byte store recoding past `threshold × budget`, each victim
    /// to `recode_factor` of its ratio; holds originals when asked.
    pub(crate) fn new(
        budget: usize,
        policy: PolicyKind,
        threshold: f64,
        recode_factor: f64,
        keep_originals: bool,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(AdaEdgeError::Config("recode_threshold must be in [0,1]"));
        }
        if !(0.0..1.0).contains(&recode_factor) || recode_factor == 0.0 {
            return Err(AdaEdgeError::Config("recode_factor must be in (0,1)"));
        }
        Ok(Self {
            store: SegmentStore::new(Some(budget), policy.build()),
            budget,
            threshold,
            recode_factor,
            originals: keep_originals.then(HashMap::new),
            raw_bytes: 0,
            order: VictimOrder::default(),
            total_recodes: 0,
        })
    }

    /// The segment store (read access).
    pub(crate) fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Record a query of segment `id` with the policy.
    fn touch(&mut self, id: SegmentId) {
        self.store.get(id);
    }

    /// The original of segment `id` with its aggregates, when originals
    /// are kept.
    fn original(&self, id: SegmentId) -> Option<Reference<'_>> {
        let (points, aggs) = self.originals.as_ref()?.get(&id)?;
        Some(Reference::with_aggs(points, *aggs))
    }

    /// Store `block`, holding `original` and `aggs(original)` when
    /// originals are kept.
    pub(crate) fn put(
        &mut self,
        block: CompressedBlock,
        original: &[f64],
        aggs: impl FnOnce(&[f64]) -> ReferenceAggs,
    ) -> Result<SegmentId> {
        let raw = block.n_points as usize * adaedge_codecs::POINT_BYTES;
        let id = self.store.put_compressed(block)?;
        self.raw_bytes += raw;
        if let Some(originals) = self.originals.as_mut() {
            originals.insert(id, (original.to_vec(), aggs(original)));
        }
        Ok(id)
    }

    /// Remove segment `id` and its original.
    fn remove(&mut self, id: SegmentId) -> Result<Segment> {
        let seg = self.store.remove(id)?;
        self.raw_bytes -= seg.n_points() * adaedge_codecs::POINT_BYTES;
        if let Some(originals) = self.originals.as_mut() {
            originals.remove(&id);
        }
        Ok(seg)
    }

    /// Decode segment `id` (no policy effect).
    pub(crate) fn decode(&self, reg: &CodecRegistry, id: SegmentId) -> Result<Vec<f64>> {
        let seg = self.store.peek(id).ok_or(StoreError::NotFound(id))?;
        match &seg.data {
            SegmentData::Raw(points) => Ok(points.clone()),
            SegmentData::Compressed(block) => Ok(reg.decompress(block)?),
        }
    }

    /// Decode every segment in ingestion order, paired with its original.
    pub(crate) fn decode_all(&self, reg: &CodecRegistry) -> Result<Vec<ReconstructedSegment>> {
        let mut out = Vec::with_capacity(self.store.len());
        for id in self.store.ids() {
            out.push((
                id,
                self.decode(reg, id)?,
                self.original(id).map(|original| original.points().to_vec()),
            ));
        }
        Ok(out)
    }

    /// The mean compression ratio the whole store must reach to fit under
    /// the recoding threshold. Victims already at or below it are spared
    /// while less-compressed victims exist — otherwise the cascade goes
    /// depth-first on the policy order and over-compresses old segments
    /// (damaging accuracy) while fresh segments never share the burden.
    fn required_mean_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 0.0;
        }
        (self.threshold * self.budget as f64 / self.raw_bytes as f64).min(1.0)
    }

    /// Whether `incoming` more bytes keep usage at or below θ × budget.
    fn fits(&self, incoming: usize) -> bool {
        (self.store.used_bytes() + incoming) as f64 <= self.threshold * self.budget as f64
    }

    /// Make room so `incoming` more bytes keep usage at or below θ × budget,
    /// or at least within the budget: shrink the least-valuable shrinkable
    /// victim through `recode` (block, original if held, target ratio),
    /// commit it, and repeat. Returns the committed recodes and their
    /// seconds; fails if even the cascade cannot fit `incoming` under the
    /// hard budget.
    ///
    /// Each pass walks the policy order from its start. The order is built
    /// once per call; a commit changes only its victim's key and ratio, so
    /// that entry alone is re-keyed and moved ([`VictimOrder::commit`]).
    pub(crate) fn make_room(
        &mut self,
        incoming: usize,
        mut recode: impl FnMut(&CompressedBlock, Option<Reference<'_>>, f64) -> Result<Selection>,
    ) -> Result<(usize, f64)> {
        let (mut recodes, mut seconds) = (0usize, 0.0f64);
        if self.fits(incoming) {
            return Ok((recodes, seconds));
        }
        // Only `put` and `remove` move the required ratio.
        let r_req = self.required_mean_ratio();
        self.order.build(&self.store);
        'pass: loop {
            if self.fits(incoming) {
                return Ok((recodes, seconds));
            }
            // Two walks over the policy order: first only victims still
            // above the globally required mean ratio, then anything that
            // can shrink.
            let n = self.order.entries.len();
            for step in 0..2 * n {
                let Victim { id, ratio, .. } = self.order.entries[step % n];
                if (ratio > r_req) != (step < n) {
                    continue;
                }
                let Some(block) = self.store.peek(id).and_then(Segment::block) else {
                    continue;
                };
                let old_bytes = block.compressed_bytes();
                // Shrink by the recode factor (§IV-C2), but never push a
                // victim far below the globally required mean ratio:
                // compressing harder than the budget demands only costs
                // accuracy.
                let target = (ratio * self.recode_factor).max(r_req.min(ratio * 0.9));
                match recode(block, self.original(id), target) {
                    Ok(sel) if sel.block.compressed_bytes() < old_bytes => {
                        seconds += sel.seconds;
                        let ratio = sel.block.ratio();
                        self.store.replace(id, sel.block)?;
                        self.order.commit(step % n, ratio, &self.store);
                        self.total_recodes += 1;
                        recodes += 1;
                        continue 'pass;
                    }
                    Ok(_)
                    | Err(AdaEdgeError::NoFeasibleArm { .. })
                    | Err(AdaEdgeError::Codec(
                        CodecError::RatioUnreachable { .. } | CodecError::RecodeUnsupported(_),
                    )) => continue,
                    Err(e) => return Err(e),
                }
            }
            // No victim can shrink further: accept anything that still fits
            // the hard budget.
            if self.store.used_bytes() + incoming <= self.budget {
                return Ok((recodes, seconds));
            }
            return Err(AdaEdgeError::Store(StoreError::BudgetExceeded {
                needed: incoming,
                available: self.budget.saturating_sub(self.store.used_bytes()),
            }));
        }
    }
}

/// One entry of a [`VictimOrder`]: what a walk step reads, so that a step
/// looks nothing up in the store.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Victim {
    key: VictimKey,
    id: SegmentId,
    /// The stored block's compression ratio.
    ratio: f64,
}

/// The store's compressed segments in recoding order (ascending policy
/// key), kept across the passes of one `make_room` call.
#[derive(Debug, Default)]
struct VictimOrder {
    entries: Vec<Victim>,
}

impl VictimOrder {
    /// Rebuild from `store`: the order [`SegmentStore::victim_order_into`]
    /// gives, less the raw segments, which no recode takes.
    fn build(&mut self, store: &SegmentStore) {
        self.entries.clear();
        for seg in store.iter() {
            if let (Some(block), Some(key)) = (seg.block(), store.victim_key(seg.id)) {
                self.entries.push(Victim {
                    key,
                    id: seg.id,
                    ratio: block.ratio(),
                });
            }
        }
        // Keys are unique, so the unstable sort is the order.
        self.entries.sort_unstable_by_key(|v| v.key);
    }

    /// Entry `i` was recoded to `ratio` in `store`: take its new key and
    /// move it to the key's place, by binary search in the rest of the
    /// still-sorted order.
    fn commit(&mut self, i: usize, ratio: f64, store: &SegmentStore) {
        let mut victim = self.entries.remove(i);
        victim.ratio = ratio;
        victim.key = store
            .victim_key(victim.id)
            .expect("a recoded segment is still stored");
        let at = self.entries.partition_point(|v| v.key < victim.key);
        self.entries.insert(at, victim);
    }
}

/// The offline AdaEdge pipeline.
pub struct OfflineAdaEdge {
    reg: CodecRegistry,
    cascade: BudgetedStore,
    lossless: LosslessSelector,
    /// Reused compression arena for the lossless selector.
    scratch: CodecScratch,
    lossy: BandedLossySelector,
}

impl std::fmt::Debug for OfflineAdaEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfflineAdaEdge")
            .field("store", self.cascade.store())
            .field("total_recodes", &self.cascade.total_recodes)
            .finish()
    }
}

impl OfflineAdaEdge {
    /// Build the pipeline.
    pub fn new(config: OfflineConfig) -> Result<Self> {
        let cascade = BudgetedStore::new(
            config.storage_budget_bytes,
            config.policy,
            config.recode_threshold,
            config.recode_factor,
            config.keep_originals,
        )?;
        let evaluator = RewardEvaluator::new(config.target, config.model, config.instance_len);
        Ok(Self {
            reg: CodecRegistry::new(config.precision),
            cascade,
            lossless: LosslessSelector::new(config.lossless_arms, config.selector),
            scratch: CodecScratch::new(),
            lossy: BandedLossySelector::with_edges(
                config.lossy_arms,
                config.selector,
                evaluator,
                config.band_edges,
            ),
        })
    }

    /// The codec registry in use.
    pub fn registry(&self) -> &CodecRegistry {
        &self.reg
    }

    /// The segment store (read access).
    pub fn store(&self) -> &SegmentStore {
        self.cascade.store()
    }

    /// Storage utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.cascade.store().utilization()
    }

    /// Total recoding passes so far.
    pub fn total_recodes(&self) -> u64 {
        self.cascade.total_recodes
    }

    /// The lossless MAB's current greedy arm.
    pub fn greedy_lossless_arm(&self) -> CodecId {
        self.lossless.greedy_arm()
    }

    /// Ingest one segment: lossless-compress, make room, store.
    pub fn ingest(&mut self, data: &[f64]) -> Result<IngestReport> {
        let selection = self.lossless.compress(&self.reg, data, &mut self.scratch)?;
        let t0 = Instant::now();
        let (lossy, reg) = (&mut self.lossy, &self.reg);
        let (recodes, recode_commit_seconds) = self.cascade.make_room(
            selection.block.compressed_bytes(),
            |block, original, target| lossy.recode(reg, block, original, target),
        )?;
        let recode_seconds = t0.elapsed().as_secs_f64();
        let lossy = &self.lossy;
        let id = self
            .cascade
            .put(selection.block.clone(), data, |original| {
                lossy.reference_aggs(original)
            })?;
        Ok(IngestReport {
            id,
            selection,
            recodes,
            recode_seconds,
            recode_commit_seconds,
            utilization: self.cascade.store().utilization(),
        })
    }

    /// Reconstruct one stored segment (no policy effect).
    pub fn reconstruct(&self, id: SegmentId) -> Result<Vec<f64>> {
        self.cascade.decode(&self.reg, id)
    }

    /// Reconstruct every stored segment in ingestion order, paired with the
    /// retained original (when `keep_originals`).
    pub fn reconstruct_all(&self) -> Result<Vec<ReconstructedSegment>> {
        self.cascade.decode_all(&self.reg)
    }

    /// Plan an egress batch for an intermittent reconnection: which
    /// segments to ship within `byte_budget` compressed bytes.
    ///
    /// The paper leaves reconnection bandwidth planning as future work
    /// (§IV-C2); this reference strategy ships the *freshest* segments
    /// first (newly ingested data is the most valuable, §IV-F, and the
    /// least compressed, so shipping it preserves the most information per
    /// transmitted byte). Greedy knapsack by recency: a segment that does
    /// not fit is skipped in favour of smaller, older ones.
    pub fn drain_plan(&self, byte_budget: usize) -> Vec<SegmentId> {
        let store = self.cascade.store();
        let mut ids: Vec<SegmentId> = store.ids();
        ids.sort_by_key(|&id| std::cmp::Reverse(store.peek(id).map(|s| s.timestamp).unwrap_or(0)));
        let mut plan = Vec::new();
        let mut used = 0usize;
        for id in ids {
            let Some(seg) = store.peek(id) else {
                continue;
            };
            let bytes = seg.size_bytes();
            if used + bytes <= byte_budget {
                used += bytes;
                plan.push(id);
            }
        }
        plan
    }

    /// Execute a drain plan: remove the planned segments from the store
    /// (they have been shipped upstream) and return their blocks in plan
    /// order. Frees budget for continued ingestion.
    pub fn drain(&mut self, byte_budget: usize) -> Result<Vec<(SegmentId, CompressedBlock)>> {
        let plan = self.drain_plan(byte_budget);
        let mut shipped = Vec::with_capacity(plan.len());
        for id in plan {
            if let SegmentData::Compressed(block) = self.cascade.remove(id)?.data {
                shipped.push((id, block));
            }
        }
        Ok(shipped)
    }

    /// Run a query over a stored segment: reconstructs it and marks the
    /// access so the LRU policy protects it from aggressive recoding.
    pub fn query_segment(&mut self, id: SegmentId) -> Result<Vec<f64>> {
        self.cascade.touch(id);
        self.cascade.decode(&self.reg, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggKind;

    fn smooth_segment(seed: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (seed * n + i) as f64 * 0.01;
                ((x.sin() * 3.0) * 1e4).round() / 1e4
            })
            .collect()
    }

    fn pipeline(budget: usize) -> OfflineAdaEdge {
        OfflineAdaEdge::new(OfflineConfig::new(
            budget,
            OptimizationTarget::agg(AggKind::Sum),
        ))
        .unwrap()
    }

    #[test]
    fn ingests_within_budget_without_recoding() {
        let mut edge = pipeline(1 << 20);
        for s in 0..5 {
            let report = edge.ingest(&smooth_segment(s, 1000)).unwrap();
            assert_eq!(report.recodes, 0);
        }
        assert_eq!(edge.store().len(), 5);
        assert_eq!(edge.total_recodes(), 0);
    }

    #[test]
    fn recoding_kicks_in_at_threshold_and_bounds_space() {
        // Tiny budget: raw segment = 8000 B, lossless ~2000 B, budget fits
        // only a few before the cascade must run.
        let mut edge = pipeline(10_000);
        for s in 0..40 {
            let report = edge.ingest(&smooth_segment(s, 1000)).unwrap();
            assert!(report.utilization <= 1.0 + 1e-9);
        }
        assert!(edge.total_recodes() > 0, "cascade never ran");
        assert!(edge.store().len() == 40, "no segment may be dropped");
        // Old segments got recoded to much smaller ratios.
        let min_ratio = edge
            .store()
            .iter()
            .map(|s| s.ratio())
            .fold(f64::INFINITY, f64::min);
        assert!(min_ratio < 0.2, "cascade should compress hard: {min_ratio}");
    }

    #[test]
    fn recode_seconds_times_the_cascade_within_the_ingest() {
        let mut edge = pipeline(10_000);
        let mut recoding_ingests = 0;
        for s in 0..30 {
            let t0 = Instant::now();
            let report = edge.ingest(&smooth_segment(s, 1000)).unwrap();
            let wall = t0.elapsed().as_secs_f64();
            assert!(report.recode_seconds <= wall, "{report:?} vs {wall}");
            assert!(report.recode_commit_seconds <= report.recode_seconds);
            if report.recodes > 0 {
                recoding_ingests += 1;
                assert!(report.recode_seconds > 0.0, "{report:?}");
            }
        }
        assert!(recoding_ingests > 0, "cascade never ran");
    }

    #[test]
    fn reconstruction_covers_all_points() {
        let mut edge = pipeline(20_000);
        for s in 0..20 {
            edge.ingest(&smooth_segment(s, 1000)).unwrap();
        }
        for (_, rec, orig) in edge.reconstruct_all().unwrap() {
            assert_eq!(rec.len(), 1000);
            let orig = orig.expect("originals kept by default");
            assert_eq!(orig.len(), 1000);
        }
    }

    /// Ratio the first segment ends at after 25 ingests of
    /// `smooth_segment(offset..offset + 25)` into a `budget`-byte store,
    /// with or without a query of the first segment before every ingest.
    fn first_segment_final_ratio(offset: usize, budget: usize, query_first: bool) -> f64 {
        let mut edge = pipeline(budget);
        let first = edge.ingest(&smooth_segment(offset, 1000)).unwrap().id;
        for s in 1..25 {
            if query_first {
                edge.query_segment(first).unwrap();
            }
            edge.ingest(&smooth_segment(offset + s, 1000)).unwrap();
        }
        assert!(edge.total_recodes() > 0, "cascade never ran");
        edge.store().peek(first).unwrap().ratio()
    }

    #[test]
    fn query_protects_segments_from_recoding() {
        // Moderate pressure: segments must be recoded, but the cascade is
        // not forced all the way to every codec's floor (where even hot
        // segments would eventually be hit). Compare causally: the queried
        // segment against the same segment in an otherwise identical run
        // without queries.
        let mut protected = 0;
        for offset in (0..=700).step_by(100) {
            for budget in [26_000, 30_000, 34_000] {
                let queried = first_segment_final_ratio(offset, budget, true);
                let unqueried = first_segment_final_ratio(offset, budget, false);
                assert!(
                    queried >= unqueried,
                    "offset {offset}, budget {budget}: queried segment at {queried}, \
                     {unqueried} without queries"
                );
                if queried > unqueried {
                    protected += 1;
                }
            }
        }
        assert!(
            protected > 0,
            "queries never kept a segment less compressed"
        );
    }

    #[test]
    fn a_warm_pass_that_commits_nothing_allocates_nothing() {
        let reg = CodecRegistry::new(4);
        let mut cascade = BudgetedStore::new(5_000, PolicyKind::Lru, 0.8, 0.5, false).unwrap();
        // Six ~800 B raw blocks: over θ × budget, within the budget.
        for s in 0..6 {
            let block = reg
                .get(CodecId::Raw)
                .compress(&smooth_segment(s, 100))
                .unwrap();
            cascade
                .put(block, &[], |_| ReferenceAggs::default())
                .unwrap();
        }
        let mut attempts = 0;
        let mut pass = |cascade: &mut BudgetedStore| {
            cascade.make_room(0, |_, _, _| {
                attempts += 1;
                Err(AdaEdgeError::Codec(CodecError::RecodeUnsupported("test")))
            })
        };
        pass(&mut cascade).unwrap();
        let before = crate::heap::allocations();
        assert_eq!(pass(&mut cascade).unwrap(), (0, 0.0));
        assert_eq!(crate::heap::allocations(), before, "a warm pass allocated");
        assert_eq!(attempts, 12, "each pass tries every victim once");
    }

    /// The kept order as `(key, id)` pairs, after checking each entry's
    /// ratio against its stored block.
    fn kept_order(cascade: &BudgetedStore) -> Vec<(VictimKey, SegmentId)> {
        for v in &cascade.order.entries {
            let stored = cascade.store.peek(v.id).unwrap().ratio();
            assert_eq!(v.ratio.to_bits(), stored.to_bits(), "{v:?}");
        }
        cascade
            .order
            .entries
            .iter()
            .map(|v| (v.key, v.id))
            .collect()
    }

    fn fresh_order(cascade: &BudgetedStore) -> Vec<(VictimKey, SegmentId)> {
        let mut order = Vec::new();
        cascade.store.victim_order_into(&mut order);
        order
    }

    /// A PAA recode of `block` to `target`, as a cascade's recode step.
    fn paa_recode(reg: &CodecRegistry, block: &CompressedBlock, target: f64) -> Result<Selection> {
        let points = reg.decompress(block)?;
        let block = reg
            .get_lossy(CodecId::Paa)
            .unwrap()
            .compress_to_ratio(&points, target)?;
        Ok(Selection {
            codec: CodecId::Paa,
            block,
            seconds: 0.0,
            reward: 0.0,
        })
    }

    #[test]
    fn the_kept_victim_order_equals_a_fresh_one_after_every_commit() {
        let reg = CodecRegistry::new(4);
        for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::QueryCount] {
            let mut cascade = BudgetedStore::new(1 << 20, policy, 0.8, 0.5, false).unwrap();
            let mut ids = Vec::new();
            for s in 0..8 {
                let block = reg
                    .get(CodecId::Raw)
                    .compress(&smooth_segment(s, 200))
                    .unwrap();
                ids.push(
                    cascade
                        .put(block, &[], |_| ReferenceAggs::default())
                        .unwrap(),
                );
                if s % 3 == 2 {
                    cascade.touch(ids[s / 2]);
                }
            }
            cascade.order.build(&cascade.store);
            assert_eq!(kept_order(&cascade), fresh_order(&cascade), "{policy:?}");
            // Commit entries at scattered positions, as `make_room` does.
            for round in 0..20 {
                let i = (round * 5) % ids.len();
                let id = cascade.order.entries[i].id;
                let block = cascade.store.peek(id).unwrap().block().unwrap().clone();
                let sel = paa_recode(&reg, &block, block.ratio() * 0.7).unwrap();
                let ratio = sel.block.ratio();
                cascade.store.replace(id, sel.block).unwrap();
                cascade.order.commit(i, ratio, &cascade.store);
                let what = format!("{policy:?}, round {round}");
                assert_eq!(kept_order(&cascade), fresh_order(&cascade), "{what}");
            }
        }
    }

    #[test]
    fn make_room_leaves_the_order_of_its_last_commit() {
        // Real cascades under every policy, with queries between ingests:
        // after each call the kept order is the store's fresh order.
        let reg = CodecRegistry::new(4);
        for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::QueryCount] {
            let mut cascade = BudgetedStore::new(8_000, policy, 0.8, 0.5, false).unwrap();
            let (mut ids, mut commits) = (Vec::new(), 0);
            for s in 0..30 {
                let block = reg
                    .get(CodecId::Raw)
                    .compress(&smooth_segment(s, 100))
                    .unwrap();
                let (made, _) = cascade
                    .make_room(block.compressed_bytes(), |block, _, target| {
                        paa_recode(&reg, block, target)
                    })
                    .unwrap();
                if made > 0 {
                    commits += made;
                    assert_eq!(
                        kept_order(&cascade),
                        fresh_order(&cascade),
                        "{policy:?} {s}"
                    );
                }
                ids.push(
                    cascade
                        .put(block, &[], |_| ReferenceAggs::default())
                        .unwrap(),
                );
                if s % 3 == 1 {
                    cascade.touch(ids[s / 3]);
                }
            }
            assert!(commits > 20, "{policy:?}: {commits} commits");
        }
    }

    #[test]
    fn impossible_budget_fails_hard() {
        // Budget smaller than a single compressed segment.
        let mut edge = pipeline(600);
        let err = edge.ingest(&smooth_segment(0, 1000));
        assert!(err.is_err());
    }

    #[test]
    fn config_validation() {
        let mut c = OfflineConfig::new(1000, OptimizationTarget::agg(AggKind::Sum));
        c.recode_threshold = 1.5;
        assert!(OfflineAdaEdge::new(c).is_err());
        let mut c = OfflineConfig::new(1000, OptimizationTarget::agg(AggKind::Sum));
        c.recode_factor = 1.0;
        assert!(OfflineAdaEdge::new(c).is_err());
    }

    #[test]
    fn drain_plan_prefers_fresh_segments_within_budget() {
        let mut edge = pipeline(1 << 20);
        let mut ids = Vec::new();
        for s in 0..10 {
            ids.push(edge.ingest(&smooth_segment(s, 1000)).unwrap().id);
        }
        // Budget exactly covering the three freshest segments (block sizes
        // vary across MAB probes, so compute it from the actual store).
        let budget: usize = ids[7..]
            .iter()
            .map(|&id| edge.store().peek(id).unwrap().size_bytes())
            .sum();
        let plan = edge.drain_plan(budget);
        assert!(!plan.is_empty());
        // Freshest first.
        assert_eq!(plan[0], *ids.last().unwrap());
        let total: usize = plan
            .iter()
            .map(|&id| edge.store().peek(id).unwrap().size_bytes())
            .sum();
        assert!(total <= budget);
    }

    #[test]
    fn drain_removes_segments_and_frees_space() {
        let mut edge = pipeline(1 << 20);
        for s in 0..8 {
            edge.ingest(&smooth_segment(s, 1000)).unwrap();
        }
        let before = edge.store().used_bytes();
        let shipped = edge.drain(before / 2).unwrap();
        assert!(!shipped.is_empty());
        assert!(edge.store().used_bytes() < before);
        assert_eq!(edge.store().len(), 8 - shipped.len());
        // Shipped blocks decode.
        for (_, block) in &shipped {
            assert_eq!(edge.registry().decompress(block).unwrap().len(), 1000);
        }
    }

    #[test]
    fn zero_budget_drains_nothing() {
        let mut edge = pipeline(1 << 20);
        edge.ingest(&smooth_segment(0, 1000)).unwrap();
        assert!(edge.drain_plan(0).is_empty());
        assert!(edge.drain(0).unwrap().is_empty());
    }

    #[test]
    fn lossless_mab_converges_on_sprintz() {
        let mut edge = pipeline(1 << 22);
        for s in 0..60 {
            edge.ingest(&smooth_segment(s, 1000)).unwrap();
        }
        assert_eq!(edge.greedy_lossless_arm(), CodecId::Sprintz);
    }
}
