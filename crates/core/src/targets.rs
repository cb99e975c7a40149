//! Optimization targets (§IV-D): what the MAB maximizes.
//!
//! A target is a weighted sum of normalized components — aggregation
//! accuracy, ML task accuracy and compression throughput. Single targets
//! are the one-component special case; weights must sum to 1.

use crate::query::AggKind;
use adaedge_bandit::Normalizer;
use adaedge_codecs::{direct_agg, CodecError, CodecRegistry, CodecScratch, CompressedBlock};
use adaedge_ml::{metrics, Model};

/// The highest reward [`RewardEvaluator`] gives: every reward is clamped
/// to `[0, REWARD_CEILING]`, so an arm scoring it can only be tied.
pub(crate) const REWARD_CEILING: f64 = 1.0;

/// One component of an optimization target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetComponent {
    /// Relative accuracy of an aggregation query (ACC_agg).
    AggAccuracy(AggKind),
    /// Machine-learning task accuracy (ACC_ml), needs an attached model.
    MlAccuracy,
    /// Compression throughput (C_thr), min–max normalized online.
    Throughput,
}

/// A (possibly complex) optimization target: weighted components.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationTarget {
    components: Vec<(f64, TargetComponent)>,
}

impl OptimizationTarget {
    /// Single aggregation-accuracy target.
    pub fn agg(kind: AggKind) -> Self {
        Self {
            components: vec![(1.0, TargetComponent::AggAccuracy(kind))],
        }
    }

    /// Single ML-accuracy target.
    pub fn ml() -> Self {
        Self {
            components: vec![(1.0, TargetComponent::MlAccuracy)],
        }
    }

    /// Single compression-throughput target.
    pub fn throughput() -> Self {
        Self {
            components: vec![(1.0, TargetComponent::Throughput)],
        }
    }

    /// Complex weighted target (§IV-D3). Weights must be positive and sum
    /// to 1 (±1e-6).
    pub fn complex(components: Vec<(f64, TargetComponent)>) -> Self {
        assert!(!components.is_empty(), "need at least one component");
        let sum: f64 = components.iter().map(|(w, _)| w).sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights must sum to 1, got {sum}");
        assert!(
            components.iter().all(|&(w, _)| w > 0.0),
            "weights must be positive"
        );
        Self { components }
    }

    /// The weighted components.
    pub fn components(&self) -> &[(f64, TargetComponent)] {
        &self.components
    }

    /// Whether any component needs an ML model.
    pub fn needs_model(&self) -> bool {
        self.components
            .iter()
            .any(|(_, c)| matches!(c, TargetComponent::MlAccuracy))
    }
}

/// Two float sums of the same `n` values, added in different orders or
/// through different but exact formulas, differ by at most
/// `n · SUM_ERROR_FACTOR · Σ|xᵢ|`.
const SUM_ERROR_FACTOR: f64 = 2.0 * f64::EPSILON;

/// One aggregate of a reference series and its float-resolution floor:
/// an attempt whose aggregate lies within `floor` of `truth` scores 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AggTruth {
    truth: f64,
    floor: f64,
}

impl AggTruth {
    /// `kind` over `reference`, bit for bit as [`AggKind::eval`] and the
    /// `iter().map(abs).sum()` of Σ|xᵢ| give it. A SUM or AVG floor is the
    /// summation error bound of the reference (`2·n·ε·Σ|xᵢ|`, over `n` for
    /// AVG), so a codec that preserves the sum ties with the reference
    /// however its sum is formed: from the decoded points or from the
    /// compressed domain. MAX and MIN compare exactly.
    fn of(kind: AggKind, reference: &[f64]) -> Self {
        match kind {
            AggKind::Sum | AggKind::Avg => {
                // Σx and Σ|x| in one pass; each fold starts from -0.0 and
                // adds in order, as `Sum for f64` does.
                let (sum, abs_sum) = reference
                    .iter()
                    .fold((-0.0, -0.0), |(s, a), &x| (s + x, a + x.abs()));
                let n = reference.len() as f64;
                let (truth, floor) = match kind {
                    AggKind::Sum => (sum, SUM_ERROR_FACTOR * n * abs_sum),
                    _ => (sum / n, SUM_ERROR_FACTOR * abs_sum),
                };
                Self {
                    // `AggKind::eval` of no points is 0.0.
                    truth: if reference.is_empty() { 0.0 } else { truth },
                    floor,
                }
            }
            AggKind::Max | AggKind::Min => Self {
                truth: kind.eval(reference),
                floor: 0.0,
            },
        }
    }
}

/// The aggregates a target's aggregation components read from one
/// reference series: an [`AggTruth`] for each scored [`AggKind`]. The
/// default holds none, for a series no recode scores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ReferenceAggs {
    by_kind: [Option<AggTruth>; 4],
}

impl ReferenceAggs {
    fn get(&self, kind: AggKind) -> AggTruth {
        self.by_kind[kind as usize].expect("aggregates cover every scored kind")
    }
}

/// The points an attempt is scored against, with the aggregates the target
/// reads from them, computed once ([`RewardEvaluator::reference`]) however
/// many attempts are scored against them.
#[derive(Debug, Clone, Copy)]
pub struct Reference<'a> {
    points: &'a [f64],
    aggs: ReferenceAggs,
}

impl<'a> Reference<'a> {
    /// `points` with aggregates computed from them earlier.
    pub(crate) fn with_aggs(points: &'a [f64], aggs: ReferenceAggs) -> Self {
        Self { points, aggs }
    }

    /// The reference points.
    pub fn points(&self) -> &'a [f64] {
        self.points
    }
}

/// Accuracy of one aggregate `value` against the reference's aggregate, at
/// float resolution: inside the floor it is exactly 1.0.
fn agg_score(reference: AggTruth, value: f64) -> f64 {
    if (value - reference.truth).abs() <= reference.floor {
        1.0
    } else {
        metrics::agg_accuracy(reference.truth, value).max(0.0)
    }
}

/// Cut a segment into model-input rows of `instance_len` points
/// (remainder points dropped).
fn rows(instance_len: usize, data: &[f64]) -> Vec<Vec<f64>> {
    data.chunks_exact(instance_len)
        .map(|c| c.to_vec())
        .collect()
}

fn ml_accuracy(
    model: Option<&Model>,
    instance_len: usize,
    original: &[f64],
    reconstructed: &[f64],
) -> f64 {
    let model = model.expect("ml_accuracy requires a model");
    metrics::ml_accuracy(
        model,
        &rows(instance_len, original),
        &rows(instance_len, reconstructed),
    )
}

/// What an attempt is scored from: its decoded points, or its compressed
/// block, decoded only when a component cannot be answered from the
/// compressed domain.
enum Attempt<'a> {
    Points(&'a [f64]),
    Block {
        reg: &'a CodecRegistry,
        block: &'a CompressedBlock,
        scratch: &'a mut CodecScratch,
        buf: &'a mut Vec<f64>,
        decoded: bool,
    },
}

impl Attempt<'_> {
    /// The reconstruction, decoded into `buf` on first use.
    fn points(&mut self) -> Result<&[f64], CodecError> {
        match self {
            Attempt::Points(points) => Ok(points),
            Attempt::Block {
                reg,
                block,
                scratch,
                buf,
                decoded,
            } => {
                if !*decoded {
                    reg.decompress_into(block, scratch, buf)?;
                    *decoded = true;
                }
                Ok(buf.as_slice())
            }
        }
    }

    /// The reconstruction's aggregate: compressed-domain when the codec
    /// answers `kind` directly (`direct_agg`), else over the decoded points.
    fn agg(&mut self, kind: AggKind) -> Result<f64, CodecError> {
        if let Attempt::Block { block, .. } = self {
            if let Some(value) = direct_agg(block, kind.op())? {
                return Ok(value);
            }
        }
        Ok(kind.eval(self.points()?))
    }
}

/// Evaluates the optimization target for one compressed segment, producing
/// the MAB reward in [0, 1].
pub struct RewardEvaluator {
    target: OptimizationTarget,
    model: Option<Model>,
    /// Rows of `instance_len` points are cut from each segment for ML
    /// evaluation (a segment typically packs several dataset instances).
    instance_len: usize,
    throughput_norm: Normalizer,
}

impl std::fmt::Debug for RewardEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewardEvaluator")
            .field("target", &self.target)
            .field("has_model", &self.model.is_some())
            .field("instance_len", &self.instance_len)
            .finish()
    }
}

impl RewardEvaluator {
    /// Build an evaluator. `model`/`instance_len` are required when the
    /// target includes ML accuracy.
    pub fn new(target: OptimizationTarget, model: Option<Model>, instance_len: usize) -> Self {
        if target.needs_model() {
            assert!(model.is_some(), "ML target requires a model");
            assert!(instance_len > 0, "ML target requires an instance length");
        }
        Self {
            target,
            model,
            instance_len,
            throughput_norm: Normalizer::new(),
        }
    }

    /// The configured target.
    pub fn target(&self) -> &OptimizationTarget {
        &self.target
    }

    /// The frozen model, if any.
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// ML accuracy of a reconstruction against the original segment.
    pub fn ml_accuracy(&self, original: &[f64], reconstructed: &[f64]) -> f64 {
        ml_accuracy(
            self.model.as_ref(),
            self.instance_len,
            original,
            reconstructed,
        )
    }

    /// Aggregation accuracy of a reconstruction, at float resolution (an
    /// error within the reference's summation error bound scores 1.0).
    pub fn agg_accuracy(&self, kind: AggKind, original: &[f64], reconstructed: &[f64]) -> f64 {
        agg_score(AggTruth::of(kind, original), kind.eval(reconstructed))
    }

    /// The aggregates this target's aggregation components read from
    /// `points`.
    pub(crate) fn reference_aggs(&self, points: &[f64]) -> ReferenceAggs {
        let mut aggs = ReferenceAggs::default();
        for &(_, component) in &self.target.components {
            if let TargetComponent::AggAccuracy(kind) = component {
                aggs.by_kind[kind as usize].get_or_insert_with(|| AggTruth::of(kind, points));
            }
        }
        aggs
    }

    /// `points` as a scoring reference, its aggregates computed once here.
    pub fn reference<'a>(&self, points: &'a [f64]) -> Reference<'a> {
        Reference::with_aggs(points, self.reference_aggs(points))
    }

    /// Evaluate the full target for one segment.
    ///
    /// * `original` — the raw points,
    /// * `reconstructed` — decompressed output of the selected codec,
    /// * `compress_seconds` — wall time the compression took.
    pub fn evaluate(
        &mut self,
        original: &[f64],
        reconstructed: &[f64],
        compress_seconds: f64,
    ) -> f64 {
        let reference = self.reference(original);
        self.score(reference, Attempt::Points(reconstructed), compress_seconds)
            .expect("decoded points need no decode")
    }

    /// Evaluate the full target for `block`, a compressed form of
    /// `reference`'s points, without decoding it when the target allows: each
    /// aggregation component is answered in the compressed domain
    /// (`direct_agg`), and the block is decoded into `buf` (through
    /// `scratch`) only for an ML component or an aggregate the codec cannot
    /// answer directly (FFT MAX/MIN). Either way the reward is the one
    /// [`Self::evaluate`] gives on the decoded block, bit for bit when the
    /// aggregate error is inside the float-resolution floor. Aggregation
    /// components score against `reference`'s cached aggregates.
    pub fn evaluate_block(
        &mut self,
        reg: &CodecRegistry,
        reference: Reference<'_>,
        block: &CompressedBlock,
        compress_seconds: f64,
        scratch: &mut CodecScratch,
        buf: &mut Vec<f64>,
    ) -> Result<f64, CodecError> {
        let attempt = Attempt::Block {
            reg,
            block,
            scratch,
            buf,
            decoded: false,
        };
        self.score(reference, attempt, compress_seconds)
    }

    /// The weighted target over one attempt, clamped to [0, 1].
    fn score(
        &mut self,
        reference: Reference<'_>,
        mut attempt: Attempt<'_>,
        compress_seconds: f64,
    ) -> Result<f64, CodecError> {
        let Self {
            target,
            model,
            instance_len,
            throughput_norm,
        } = self;
        let mut reward = 0.0;
        for &(w, component) in &target.components {
            let value = match component {
                TargetComponent::AggAccuracy(kind) => {
                    agg_score(reference.aggs.get(kind), attempt.agg(kind)?)
                }
                TargetComponent::MlAccuracy => ml_accuracy(
                    model.as_ref(),
                    *instance_len,
                    reference.points,
                    attempt.points()?,
                ),
                TargetComponent::Throughput => {
                    let points = reference.points.len();
                    let thr = metrics::compression_throughput(points * 8, compress_seconds);
                    throughput_norm.observe_and_normalize(thr)
                }
            };
            reward += w * value;
        }
        Ok(reward.clamp(0.0, REWARD_CEILING))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_ml::{Dataset, TreeConfig};

    fn model() -> Model {
        let data = Dataset::new(
            vec![
                vec![1.0, 1.0],
                vec![2.0, 2.0],
                vec![8.0, 8.0],
                vec![9.0, 9.0],
            ],
            vec![0, 0, 1, 1],
        );
        Model::train_dtree(&data, TreeConfig::default())
    }

    #[test]
    fn single_target_constructors() {
        assert_eq!(OptimizationTarget::ml().components().len(), 1);
        assert!(OptimizationTarget::ml().needs_model());
        assert!(!OptimizationTarget::agg(AggKind::Sum).needs_model());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_weights_rejected() {
        OptimizationTarget::complex(vec![
            (0.5, TargetComponent::Throughput),
            (0.2, TargetComponent::MlAccuracy),
        ]);
    }

    #[test]
    fn perfect_reconstruction_gets_full_reward() {
        let mut eval = RewardEvaluator::new(OptimizationTarget::ml(), Some(model()), 2);
        let data = vec![1.0, 1.0, 9.0, 9.0];
        assert_eq!(eval.evaluate(&data, &data, 1.0), 1.0);
    }

    #[test]
    fn label_flips_reduce_ml_reward() {
        let mut eval = RewardEvaluator::new(OptimizationTarget::ml(), Some(model()), 2);
        let data = vec![1.0, 1.0, 9.0, 9.0];
        let bad = vec![9.0, 9.0, 9.0, 9.0]; // first row flipped to class 1
        assert_eq!(eval.evaluate(&data, &bad, 1.0), 0.5);
    }

    #[test]
    fn agg_reward_tracks_relative_error() {
        let mut eval = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let data = vec![10.0, 10.0];
        let close = vec![9.0, 10.0];
        let r = eval.evaluate(&data, &close, 1.0);
        assert!((r - 0.95).abs() < 1e-9, "{r}");
    }

    #[test]
    fn sum_within_float_resolution_scores_exactly_one() {
        // The same values added in another order: 0.1 + 0.2 + 0.3 rounds
        // to 0.6000000000000001, 0.3 + 0.2 + 0.1 to 0.6.
        let data = [0.1, 0.2, 0.3];
        let reordered = [0.3, 0.2, 0.1];
        assert_ne!(AggKind::Sum.eval(&data), AggKind::Sum.eval(&reordered));
        for kind in [AggKind::Sum, AggKind::Avg] {
            let mut eval = RewardEvaluator::new(OptimizationTarget::agg(kind), None, 0);
            assert_eq!(eval.evaluate(&data, &reordered, 1.0), 1.0, "{kind:?}");
        }
        // A real error is still scored: 10,10 vs 9,10.
        let mut eval = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let r = eval.evaluate(&[10.0, 10.0], &[9.0, 10.0], 1.0);
        assert!((r - 0.95).abs() < 1e-9, "{r}");
        // MAX/MIN compare exactly: one ulp off is an error.
        let mut eval = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Max), None, 0);
        let r = eval.evaluate(&[1.0, 2.0], &[1.0, 2.0f64.next_up()], 1.0);
        assert!(r < 1.0, "{r}");
    }

    #[test]
    fn cached_aggregates_equal_the_per_attempt_folds_bit_for_bit() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut random = |n: usize, scale: f64| -> Vec<f64> {
            (0..n).map(|_| (rng.gen::<f64>() - 0.5) * scale).collect()
        };
        let series = [
            random(1000, 6.0),
            random(1000, 1e12),
            random(7, 1e-300),
            Vec::new(),
            vec![-0.0; 16],
            vec![0.0, -0.0, 0.0],
            vec![f64::MAX, f64::MAX],
            cbf(1000),
        ];
        for reference in &series {
            let n = reference.len();
            for kind in [AggKind::Sum, AggKind::Max, AggKind::Min, AggKind::Avg] {
                // The truth and floor as scoring formed them on every
                // attempt before they were cached per reference.
                let abs_sum = || reference.iter().map(|x| x.abs()).sum::<f64>();
                let floor = match kind {
                    AggKind::Sum => SUM_ERROR_FACTOR * n as f64 * abs_sum(),
                    AggKind::Avg => SUM_ERROR_FACTOR * abs_sum(),
                    AggKind::Max | AggKind::Min => 0.0,
                };
                let eval = RewardEvaluator::new(OptimizationTarget::agg(kind), None, 0);
                let cached = eval.reference(reference).aggs.get(kind);
                let what = format!("{kind:?} over {n} points");
                assert_eq!(
                    cached.truth.to_bits(),
                    kind.eval(reference).to_bits(),
                    "{what}"
                );
                assert_eq!(cached.floor.to_bits(), floor.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn a_reference_caches_only_the_scored_kinds() {
        let data = sine(100);
        let target = OptimizationTarget::complex(vec![
            (0.5, TargetComponent::AggAccuracy(AggKind::Avg)),
            (0.25, TargetComponent::AggAccuracy(AggKind::Max)),
            (0.25, TargetComponent::Throughput),
        ]);
        let aggs = RewardEvaluator::new(target, None, 0).reference_aggs(&data);
        let cached: Vec<bool> = aggs.by_kind.iter().map(Option::is_some).collect();
        // Indexed Sum, Max, Min, Avg.
        assert_eq!(cached, [false, true, false, true]);
        assert_eq!(ReferenceAggs::default().by_kind, [None; 4]);
    }

    fn sine(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.013).sin() * 3.0 * 1e4).round() / 1e4)
            .collect()
    }

    fn cbf(n: usize) -> Vec<f64> {
        use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource};
        CbfStream::new(CbfConfig::default(), n).next_segment()
    }

    /// Every compressed block with a compressed-domain aggregate path:
    /// the lossy codecs at ratios 0.5/0.2/0.1 (where reachable) and
    /// lossless BUFF.
    fn direct_path_blocks(reg: &CodecRegistry, data: &[f64]) -> Vec<CompressedBlock> {
        use adaedge_codecs::CodecId;
        let mut blocks = vec![reg.get(CodecId::Buff).compress(data).unwrap()];
        for id in [
            CodecId::Paa,
            CodecId::Pla,
            CodecId::Fft,
            CodecId::BuffLossy,
            CodecId::RrdSample,
            CodecId::Lttb,
        ] {
            for ratio in [0.5, 0.2, 0.1] {
                match reg.get_lossy(id).unwrap().compress_to_ratio(data, ratio) {
                    Ok(block) => blocks.push(block),
                    Err(CodecError::RatioUnreachable { .. }) => {}
                    Err(e) => panic!("{id} at {ratio}: {e}"),
                }
            }
        }
        blocks
    }

    #[test]
    fn direct_reward_matches_decode_reward() {
        let reg = CodecRegistry::new(4);
        let (mut scratch, mut buf) = (CodecScratch::new(), Vec::new());
        let (mut inside_floor, mut direct_scored) = (0, 0);
        for data in [sine(1000), cbf(1000)] {
            for block in direct_path_blocks(&reg, &data) {
                let decoded = reg.decompress(&block).unwrap();
                for kind in [AggKind::Sum, AggKind::Max, AggKind::Min, AggKind::Avg] {
                    let mut eval = RewardEvaluator::new(OptimizationTarget::agg(kind), None, 0);
                    let via_decode = eval.evaluate(&data, &decoded, 1.0);
                    buf.clear();
                    let direct = eval
                        .evaluate_block(
                            &reg,
                            eval.reference(&data),
                            &block,
                            1.0,
                            &mut scratch,
                            &mut buf,
                        )
                        .unwrap();
                    let has_direct = adaedge_codecs::direct_agg(&block, kind.op())
                        .unwrap()
                        .is_some();
                    // The direct path never decodes; the fallback does.
                    assert_eq!(buf.is_empty(), has_direct, "{} {kind:?}", block.codec);
                    direct_scored += has_direct as usize;
                    let what = format!("{} ratio {} {kind:?}", block.codec, block.ratio());
                    if via_decode == 1.0 || direct == 1.0 {
                        inside_floor += 1;
                        assert_eq!(direct.to_bits(), via_decode.to_bits(), "{what}");
                    } else {
                        let tol = 1e-9 * direct.abs().max(via_decode.abs());
                        assert!(
                            (direct - via_decode).abs() <= tol,
                            "{what}: direct {direct} vs decode {via_decode}"
                        );
                    }
                }
            }
        }
        // Sum-preserving codecs (PAA, FFT, BUFF) land inside the floor.
        assert!(
            inside_floor >= 40,
            "only {inside_floor} rewards inside the floor"
        );
        assert!(direct_scored >= 120, "only {direct_scored} direct scores");
    }

    #[test]
    fn warm_interpolating_decodes_allocate_nothing_and_buff_only_its_output() {
        use adaedge_codecs::CodecId;
        let reg = CodecRegistry::new(4);
        let data = cbf(1000);
        let (mut scratch, mut buf) = (CodecScratch::new(), Vec::new());
        for id in [CodecId::Pla, CodecId::Lttb] {
            let block = reg
                .get_lossy(id)
                .unwrap()
                .compress_to_ratio(&data, 0.2)
                .unwrap();
            reg.decompress_into(&block, &mut scratch, &mut buf).unwrap();
            let before = crate::heap::allocations();
            reg.decompress_into(&block, &mut scratch, &mut buf).unwrap();
            assert_eq!(crate::heap::allocations(), before, "a warm {id} decode");
            assert_eq!(buf, reg.decompress(&block).unwrap(), "{id}");
        }
        // A fresh arena: BUFF reads its packed run through stack chunks, so
        // the one allocation is the output.
        for block in [
            reg.get(CodecId::Buff).compress(&data).unwrap(),
            reg.get_lossy(CodecId::BuffLossy)
                .unwrap()
                .compress_to_ratio(&data, 0.2)
                .unwrap(),
        ] {
            let before = crate::heap::allocations();
            let out = reg.decompress(&block).unwrap();
            assert_eq!(crate::heap::allocations(), before + 1, "{}", block.codec);
            assert_eq!(out.len(), data.len());
        }
    }

    #[test]
    fn ml_targets_and_fft_extrema_decode() {
        use adaedge_codecs::CodecId;
        let reg = CodecRegistry::new(4);
        let data = sine(1000);
        let fft = reg
            .get_lossy(CodecId::Fft)
            .unwrap()
            .compress_to_ratio(&data, 0.2)
            .unwrap();
        let paa = reg
            .get_lossy(CodecId::Paa)
            .unwrap()
            .compress_to_ratio(&data, 0.2)
            .unwrap();
        let ml_target = OptimizationTarget::complex(vec![
            (0.5, TargetComponent::AggAccuracy(AggKind::Sum)),
            (0.5, TargetComponent::MlAccuracy),
        ]);
        let cases = [
            (OptimizationTarget::agg(AggKind::Max), None, &fft),
            (OptimizationTarget::agg(AggKind::Min), None, &fft),
            (ml_target, Some(model()), &paa),
        ];
        for (target, model, block) in cases {
            let mut eval = RewardEvaluator::new(target, model, 2);
            let (mut scratch, mut buf) = (CodecScratch::new(), Vec::new());
            let direct = eval
                .evaluate_block(
                    &reg,
                    eval.reference(&data),
                    block,
                    1.0,
                    &mut scratch,
                    &mut buf,
                )
                .unwrap();
            assert_eq!(buf, reg.decompress(block).unwrap(), "{:?}", eval.target());
            let via_decode = eval.evaluate(&data, &buf, 1.0);
            assert_eq!(direct.to_bits(), via_decode.to_bits());
        }
    }

    #[test]
    fn complex_target_mixes_components() {
        let target = OptimizationTarget::complex(vec![
            (0.625, TargetComponent::AggAccuracy(AggKind::Sum)),
            (0.375, TargetComponent::MlAccuracy),
        ]);
        let mut eval = RewardEvaluator::new(target, Some(model()), 2);
        let data = vec![1.0, 1.0, 9.0, 9.0];
        // Perfect on both components.
        assert!((eval.evaluate(&data, &data, 1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_component_prefers_fast_codecs() {
        let mut eval = RewardEvaluator::new(OptimizationTarget::throughput(), None, 0);
        let data = vec![0.0; 1000];
        // Warm the normalizer with a slow and a fast observation.
        eval.evaluate(&data, &data, 1.0);
        eval.evaluate(&data, &data, 0.001);
        let slow = eval.evaluate(&data, &data, 0.8);
        let fast = eval.evaluate(&data, &data, 0.002);
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    #[should_panic(expected = "requires a model")]
    fn ml_target_without_model_rejected() {
        RewardEvaluator::new(OptimizationTarget::ml(), None, 2);
    }
}
