//! MAB-backed compression selectors (§IV-C).
//!
//! [`LosslessSelector`] minimizes compressed size (its reward is
//! `1 − ratio`). [`BandedLossySelector`] maximizes the configured
//! optimization target at a required ratio, masking arms whose floor is
//! above it, with one MAB instance per compression-ratio band. Offline
//! recoding moves across bands (§IV-C2); an online run keeps one ratio
//! `R`, so its dedicated lossy MAB (§IV-C1) is the one band owning `R`.

use crate::error::{AdaEdgeError, Result};
use crate::targets::{Reference, ReferenceAggs, RewardEvaluator, REWARD_CEILING};
use crate::uplink::LinkPressure;
use adaedge_bandit::{
    default_band_edges, masked_argmax, BandedBandits, EpsilonGreedy, GradientBandit, Policy,
    StepSize, Ucb,
};
use adaedge_codecs::{CodecError, CodecId, CodecRegistry, CodecScratch, CompressedBlock};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Which bandit algorithm drives selection (§III-C discusses the family;
/// the paper's experiments use optimistic ε-greedy, the others are
/// available for ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditAlgorithm {
    /// Optimistic ε-greedy (the paper's choice).
    EpsilonGreedy,
    /// UCB1 with exploration constant `c`.
    Ucb {
        /// Confidence-bonus scale (√2 is the classic choice).
        c: f64,
    },
    /// Gradient bandit with learning rate `alpha`.
    Gradient {
        /// Preference learning rate.
        alpha: f64,
    },
}

/// MAB hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SelectorConfig {
    /// The bandit algorithm.
    pub algorithm: BanditAlgorithm,
    /// Exploration rate (paper: 0.01 online, 0.1 offline); ε-greedy only.
    pub epsilon: f64,
    /// Optimistic initial estimate (pushes early exploration); ε-greedy only.
    pub optimistic_init: f64,
    /// Estimate update rule; constant 0.5 for data-shift robustness.
    pub step: StepSize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            algorithm: BanditAlgorithm::EpsilonGreedy,
            epsilon: 0.1,
            optimistic_init: 1.0,
            step: StepSize::SampleAverage,
            seed: 0,
        }
    }
}

impl SelectorConfig {
    /// The paper's online-mode setting (ε = 0.01).
    pub fn online() -> Self {
        Self {
            epsilon: 0.01,
            ..Default::default()
        }
    }

    /// The paper's offline-mode setting (ε = 0.1).
    pub fn offline() -> Self {
        Self {
            epsilon: 0.1,
            ..Default::default()
        }
    }

    /// The paper's data-shift setting (ε = 0.1, constant step 0.5).
    pub fn nonstationary() -> Self {
        Self {
            epsilon: 0.1,
            step: StepSize::Constant(0.5),
            ..Default::default()
        }
    }

    fn build_mab(&self, n_arms: usize) -> Box<dyn Policy> {
        match self.algorithm {
            BanditAlgorithm::EpsilonGreedy => Box::new(EpsilonGreedy::with_options(
                n_arms,
                self.epsilon,
                self.optimistic_init,
                self.step,
            )),
            BanditAlgorithm::Ucb { c } => Box::new(Ucb::new(n_arms, c)),
            BanditAlgorithm::Gradient { alpha } => Box::new(GradientBandit::new(n_arms, alpha)),
        }
    }
}

/// The outcome of one selection + compression step.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Which codec was chosen.
    pub codec: CodecId,
    /// The compressed block.
    pub block: CompressedBlock,
    /// Wall-clock seconds compression took.
    pub seconds: f64,
    /// The reward fed back to the MAB.
    pub reward: f64,
}

/// How many *consecutive* failures (codec errors or caught panics) an arm
/// may accumulate before [`LosslessSelector`] quarantines it.
pub const QUARANTINE_AFTER: u32 = 3;

/// Exploration damping applied under [`LinkPressure::Elevated`]: the
/// policy explores at a quarter of its configured rate while the uplink
/// backlog sits between the elevated and critical watermarks.
pub const ELEVATED_EXPLORE_SCALE: f64 = 0.25;

/// One per-segment outcome a batched engine worker accumulates locally
/// (outside the selector lock) and reports through
/// [`LosslessSelector::report_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArmOutcome {
    /// Successful compression achieving this compressed/raw ratio.
    Ratio(f64),
    /// Codec error or caught panic (counts toward quarantine).
    Failure,
}

/// Check a lossless arm roster: non-empty, every arm lossless, and at most
/// 64 arms, because quarantine verdicts travel as a `u64` bitmask (bit `i`
/// = arm `i`). The pipelines call this at entry, so a bad roster is an
/// [`AdaEdgeError::Config`] error, not a panic.
pub(crate) fn check_lossless_arms(arms: &[CodecId]) -> Result<()> {
    if arms.is_empty() {
        Err(AdaEdgeError::Config("lossless arms must not be empty"))
    } else if !arms.iter().all(|a| a.is_lossless()) {
        Err(AdaEdgeError::Config("lossless arms hold a lossy codec"))
    } else if arms.len() > 64 {
        Err(AdaEdgeError::Config("more than 64 lossless arms"))
    } else {
        Ok(())
    }
}

/// MAB over lossless arms, rewarding small compressed sizes.
pub struct LosslessSelector {
    arms: Vec<CodecId>,
    mab: Box<dyn Policy>,
    rng: SmallRng,
    /// Consecutive failures per arm; reset by a successful report.
    consecutive_failures: Vec<u32>,
    /// Cumulative failures per arm (never reset; surfaced in reports).
    failure_totals: Vec<u64>,
    /// Arms masked out of selection after repeated failures, bit `i` =
    /// arm `i` (rosters hold at most 64 arms). Sticky for the selector's
    /// lifetime: a codec that panicked on this workload is not trusted
    /// again mid-run.
    quarantined: u64,
    /// Pre-allocated selection mask so the steady-state select path stays
    /// allocation-free even while arms are quarantined.
    mask: Vec<bool>,
}

impl std::fmt::Debug for LosslessSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LosslessSelector")
            .field("arms", &self.arms)
            .finish()
    }
}

impl LosslessSelector {
    /// Create a selector over the given lossless candidate arms.
    ///
    /// # Panics
    ///
    /// If `arms` is empty, holds a lossy codec or has more than 64 arms.
    pub fn new(arms: Vec<CodecId>, config: SelectorConfig) -> Self {
        if let Err(e) = check_lossless_arms(&arms) {
            panic!("{e}");
        }
        let mab = config.build_mab(arms.len());
        let n = arms.len();
        Self {
            arms,
            mab,
            rng: SmallRng::seed_from_u64(config.seed),
            consecutive_failures: vec![0; n],
            failure_totals: vec![0; n],
            quarantined: 0,
            mask: vec![true; n],
        }
    }

    /// The candidate arms.
    pub fn arms(&self) -> &[CodecId] {
        &self.arms
    }

    /// Current reward estimates, aligned with [`Self::arms`].
    pub fn estimates(&self) -> &[f64] {
        self.mab.estimates()
    }

    /// Per-arm pull counts, aligned with [`Self::arms`].
    pub fn pulls(&self) -> &[u64] {
        self.mab.pulls()
    }

    /// The arm the MAB currently believes best (no exploration): the
    /// highest estimate, ties to the lowest index, as ε-greedy exploits.
    pub fn greedy_arm(&self) -> CodecId {
        self.arms[masked_argmax(self.mab.estimates(), None)]
    }

    /// Whether selection masks out quarantined arms; if so, `self.mask`
    /// now holds the non-quarantined arms. When *every* arm is quarantined
    /// the selector fails open (no mask) — arms keep being tried and the
    /// engine's per-segment Raw fallback contains the damage.
    fn refresh_mask(&mut self) -> bool {
        let n_quarantined = self.quarantined.count_ones() as usize;
        if n_quarantined == 0 || n_quarantined == self.arms.len() {
            return false;
        }
        for (arm, m) in self.mask.iter_mut().enumerate() {
            *m = self.quarantined & (1u64 << arm) == 0;
        }
        true
    }

    /// Select an arm without compressing (split API for the multithreaded
    /// engine, which compresses outside the selector lock). Quarantined
    /// arms are masked out unless every arm is quarantined.
    pub fn select_arm(&mut self) -> (usize, CodecId) {
        let mask = self.refresh_mask().then_some(self.mask.as_slice());
        let arm = self.mab.select(mask, &mut self.rng);
        (arm, self.arms[arm])
    }

    /// Select an arm under a link-pressure bias (§7 degradation path):
    ///
    /// * `Nominal` — identical to [`Self::select_arm`], bit for bit.
    /// * `Elevated` — exploration damped to [`ELEVATED_EXPLORE_SCALE`]
    ///   of its configured rate: keep learning, but stop spending the
    ///   backlogged link on experiments.
    /// * `Critical` — pure exploitation: a deterministic argmax over the
    ///   current estimates (reward is `1 − ratio`, so the argmax *is*
    ///   the best-compressing arm), no RNG draw at all. Quarantined arms
    ///   stay masked; all-quarantined fails open like `select_arm`.
    pub fn select_arm_biased(&mut self, pressure: LinkPressure) -> (usize, CodecId) {
        match pressure {
            LinkPressure::Nominal => self.select_arm(),
            LinkPressure::Elevated => {
                self.mab.set_exploration_scale(ELEVATED_EXPLORE_SCALE);
                let pick = self.select_arm();
                self.mab.set_exploration_scale(1.0);
                pick
            }
            LinkPressure::Critical => {
                let mask = self.refresh_mask().then_some(self.mask.as_slice());
                let arm = masked_argmax(self.mab.estimates(), mask);
                (arm, self.arms[arm])
            }
        }
    }

    /// Record a failed compression attempt (codec error or caught panic)
    /// for `arm`. After [`QUARANTINE_AFTER`] consecutive failures the arm
    /// is quarantined and no longer selected. Returns whether the arm is
    /// now quarantined.
    pub fn record_failure(&mut self, arm: usize) -> bool {
        self.failure_totals[arm] += 1;
        self.consecutive_failures[arm] += 1;
        if self.consecutive_failures[arm] >= QUARANTINE_AFTER {
            self.quarantine_arm(arm);
        }
        self.is_quarantined(arm)
    }

    /// Quarantine `arm` outright, regardless of its local failure streak.
    ///
    /// This is the cross-shard propagation path: a replica that learns
    /// (from the shared outcome table) that another shard quarantined the
    /// arm imposes the same verdict locally, without waiting to burn
    /// [`QUARANTINE_AFTER`] of its own segments on a codec already known
    /// bad. Idempotent; the local consecutive-failure streak is left
    /// untouched.
    pub fn quarantine_arm(&mut self, arm: usize) {
        self.quarantined |= 1u64 << arm;
    }

    /// Fold `pulls` *foreign* pulls of `arm` totalling `reward_sum` into
    /// the underlying policy, as if this selector had observed them via
    /// [`Self::report_ratio`] (see [`adaedge_bandit::Policy::fold`]).
    ///
    /// Foreign failures do **not** feed the local consecutive-failure
    /// streak — failure streaks are a per-shard signal and quarantine
    /// propagates through [`Self::quarantine_arm`] instead, so a codec
    /// that fails only on one shard's data cannot be quarantined by
    /// shards where it works.
    pub fn fold_foreign(&mut self, arm: usize, pulls: u64, reward_sum: f64) {
        self.mab.fold(arm, pulls, reward_sum);
    }

    /// Total pulls the underlying policy has absorbed (local + folded).
    pub fn total_pulls(&self) -> u64 {
        self.mab.total_pulls()
    }

    /// Restore a persisted posterior into this (fresh) selector: per-arm
    /// pull counts and estimates via [`adaedge_bandit::Policy::restore`]
    /// (bit-exact for the estimate-based policies), cumulative failure
    /// totals, and quarantine verdicts from `quarantine_bits` (bit `i` =
    /// arm `i`, the [`crate::shard::SharedOutcomeTable`] convention).
    ///
    /// Consecutive-failure *streaks* are deliberately not part of the
    /// persisted state: they are a live signal about the data a selector
    /// is currently seeing, meaningless after an eviction gap.
    pub fn restore_posterior(
        &mut self,
        pulls: &[u64],
        estimates: &[f64],
        failure_totals: &[u64],
        quarantine_bits: u64,
    ) {
        assert_eq!(pulls.len(), self.arms.len(), "posterior/roster mismatch");
        assert_eq!(estimates.len(), self.arms.len());
        assert_eq!(failure_totals.len(), self.arms.len());
        for arm in 0..self.arms.len() {
            self.mab.restore(arm, pulls[arm], estimates[arm]);
            self.failure_totals[arm] = failure_totals[arm];
        }
        // Bits past the roster name no arm.
        self.quarantined |= quarantine_bits & (u64::MAX >> (64 - self.arms.len()));
    }

    /// Quarantine verdicts as a bitmask (bit `i` = arm `i`), the form the
    /// persist layer and the shared outcome table both use.
    pub fn quarantine_bits(&self) -> u64 {
        self.quarantined
    }

    /// Whether `arm` is currently quarantined.
    pub fn is_quarantined(&self, arm: usize) -> bool {
        self.quarantined & (1u64 << arm) != 0
    }

    /// The currently quarantined arms (empty in a healthy run).
    pub fn quarantined_arms(&self) -> Vec<CodecId> {
        (0..self.arms.len())
            .filter(|&arm| self.is_quarantined(arm))
            .map(|arm| self.arms[arm])
            .collect()
    }

    /// Cumulative per-arm failure counts, aligned with [`Self::arms`].
    pub fn failure_totals(&self) -> &[u64] {
        &self.failure_totals
    }

    /// Feed the size reward for a block produced by `arm` back to the MAB.
    pub fn report_block(&mut self, arm: usize, block: &CompressedBlock) -> f64 {
        self.report_ratio(arm, block.ratio())
    }

    /// Feed the size reward for a compression of `arm` that achieved
    /// `ratio` back to the MAB (borrow-free variant of
    /// [`Self::report_block`] for callers holding a scratch-backed block).
    pub fn report_ratio(&mut self, arm: usize, ratio: f64) -> f64 {
        // A successful compression clears the arm's consecutive-failure
        // streak (quarantine itself is sticky).
        self.consecutive_failures[arm] = 0;
        // Smaller is better; ratios above 1 (failed compression) floor at 0.
        let reward = (1.0 - ratio).clamp(0.0, 1.0);
        self.mab.update(arm, reward);
        reward
    }

    /// Report a batch of outcomes for `arm` in order, exactly as if each
    /// had been fed through [`Self::report_ratio`] / [`Self::record_failure`]
    /// individually — the estimates, pull counts, failure streaks and
    /// quarantine state end up bit-identical to the sequential calls.
    ///
    /// This is the batched engine's reward path: a worker holds `arm`
    /// sticky across K segments, accumulates outcomes locally, and pays one
    /// lock acquisition here instead of one per segment. Returns the summed
    /// reward credited to the arm.
    pub fn report_batch(&mut self, arm: usize, outcomes: &[ArmOutcome]) -> f64 {
        let mut total = 0.0;
        for &outcome in outcomes {
            match outcome {
                ArmOutcome::Ratio(ratio) => total += self.report_ratio(arm, ratio),
                ArmOutcome::Failure => {
                    self.record_failure(arm);
                }
            }
        }
        total
    }

    /// Select an arm, compress through the caller's `scratch` arena, feed
    /// the size reward back.
    pub fn compress(
        &mut self,
        reg: &CodecRegistry,
        data: &[f64],
        scratch: &mut CodecScratch,
    ) -> Result<Selection> {
        let (arm, codec) = self.select_arm();
        let t0 = Instant::now();
        let block = match reg.compress_into(codec, data, scratch) {
            Ok(block_ref) => block_ref.to_block(),
            Err(e) => {
                self.record_failure(arm);
                return Err(e.into());
            }
        };
        let seconds = t0.elapsed().as_secs_f64();
        let reward = self.report_block(arm, &block);
        Ok(Selection {
            codec,
            block,
            seconds,
            reward,
        })
    }
}

/// Fill `mask` with the feasibility of lossy `arms` at a target ratio.
fn feasibility_mask(
    reg: &CodecRegistry,
    arms: &[CodecId],
    n_points: usize,
    ratio: f64,
    mask: &mut Vec<bool>,
) {
    mask.clear();
    mask.extend(arms.iter().map(|&a| {
        reg.get_lossy(a)
            .map(|c| c.min_ratio(n_points) <= ratio)
            .unwrap_or(false)
    }));
}

/// Whether a `victim` block recodes through `lossy`'s virtual
/// decompression instead of a decode and re-compress: a lossy codec
/// recodes its own blocks, and BUFF-lossy recodes BUFF blocks too.
pub(crate) fn same_family(victim: CodecId, lossy: CodecId) -> bool {
    victim == lossy || (lossy == CodecId::BuffLossy && victim == CodecId::Buff)
}

/// What one recode call has made of its victim so far, so that each piece
/// is made at most once however many arms it tries: the decode (in the
/// selector's `victim` buffer), and that decode's aggregates when it is the
/// scoring reference.
#[derive(Default)]
struct VictimDecode {
    decoded: bool,
    aggs: Option<ReferenceAggs>,
}

impl VictimDecode {
    /// Decode `block` into `out` unless it already holds it.
    fn points<'a>(
        &mut self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        scratch: &mut CodecScratch,
        out: &'a mut Vec<f64>,
    ) -> std::result::Result<&'a [f64], CodecError> {
        if !self.decoded {
            reg.decompress_into(block, scratch, out)?;
            self.decoded = true;
        }
        Ok(out)
    }
}

/// Lossy selection with one MAB instance per ratio band (§IV-C2). Online
/// mode's single operating ratio uses one band (§IV-C1).
pub struct BandedLossySelector {
    arms: Vec<CodecId>,
    bands: BandedBandits<Box<dyn Policy>>,
    evaluator: RewardEvaluator,
    rng: SmallRng,
    /// Reused decompression arena for reward scoring and victim decodes.
    scratch: CodecScratch,
    /// Reused reconstruction buffer for reward scoring.
    buf: Vec<f64>,
    /// Reused buffer for a recode victim's decode.
    victim: Vec<f64>,
    /// Reused feasibility mask of the current call.
    mask: Vec<bool>,
    /// Reused `(arm, reward)` scores of the current recode.
    updates: Vec<(usize, f64)>,
}

/// What a lossy attempt compresses ([`BandedLossySelector::attempt`]).
#[derive(Clone, Copy)]
enum Input<'a> {
    /// Fresh points.
    Fresh(Reference<'a>),
    /// A stored block to recode, with the points it was compressed from
    /// when the caller still holds them.
    Victim {
        block: &'a CompressedBlock,
        original: Option<Reference<'a>>,
    },
}

/// One arm choice of a band ([`BandedLossySelector::choose_arm`]).
struct ArmChoice {
    /// The arm to run.
    arm: usize,
    /// The band's masked greedy arm.
    greedy: usize,
    /// The greedy arm's reward mean, when the band's policy keeps one.
    greedy_mean: Option<f64>,
}

impl std::fmt::Debug for BandedLossySelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandedLossySelector")
            .field("arms", &self.arms)
            .field("bands", &self.bands)
            .finish()
    }
}

impl BandedLossySelector {
    /// Create a banded selector with the default halving band edges.
    pub fn new(arms: Vec<CodecId>, config: SelectorConfig, evaluator: RewardEvaluator) -> Self {
        Self::with_edges(arms, config, evaluator, default_band_edges())
    }

    /// Create a banded selector with explicit band edges.
    pub fn with_edges(
        arms: Vec<CodecId>,
        config: SelectorConfig,
        evaluator: RewardEvaluator,
        edges: Vec<f64>,
    ) -> Self {
        assert!(!arms.is_empty(), "need at least one arm");
        let n = arms.len();
        let bands = BandedBandits::new(edges, move || config.build_mab(n));
        Self {
            arms,
            bands,
            evaluator,
            rng: SmallRng::seed_from_u64(config.seed.wrapping_add(2)),
            scratch: CodecScratch::new(),
            buf: Vec::new(),
            victim: Vec::new(),
            mask: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// The candidate arms.
    pub fn arms(&self) -> &[CodecId] {
        &self.arms
    }

    /// How many band instances have been spawned so far.
    pub fn instantiated_bands(&self) -> usize {
        self.bands.instantiated()
    }

    /// `points` as a scoring reference for this selector's target
    /// ([`RewardEvaluator::reference`]).
    pub fn reference<'a>(&self, points: &'a [f64]) -> Reference<'a> {
        self.evaluator.reference(points)
    }

    /// The aggregates this selector's target reads from `points`.
    pub(crate) fn reference_aggs(&self, points: &[f64]) -> ReferenceAggs {
        self.evaluator.reference_aggs(points)
    }

    /// Choose an arm of `ratio`'s band among the arms `self.mask` enables.
    ///
    /// A greedy arm that has been pulled and whose reward mean sits at
    /// [`REWARD_CEILING`] is taken with no exploration draw: no other arm
    /// can beat it, only tie it, so exploring would buy nothing for its
    /// compute. Otherwise the band selects as its policy does. Policies
    /// without reward means (gradient bandits) always select.
    fn choose_arm(&mut self, ratio: f64) -> ArmChoice {
        let (greedy, _) = self.bands.greedy(ratio, Some(&self.mask));
        let policy = self.bands.policy_for(ratio);
        let greedy_mean = policy.reward_means().map(|m| m[greedy]);
        let arm = if greedy_mean == Some(REWARD_CEILING) && policy.pulls()[greedy] > 0 {
            greedy
        } else {
            self.bands.select(ratio, Some(&self.mask), &mut self.rng)
        };
        ArmChoice {
            arm,
            greedy,
            greedy_mean,
        }
    }

    /// Compress fresh points (or re-compress a decoded segment) to `ratio`
    /// using the band owning that ratio. Infeasible selections
    /// (data-dependent floors) are penalized and retried on other arms.
    pub fn compress_to_ratio(
        &mut self,
        reg: &CodecRegistry,
        data: &[f64],
        ratio: f64,
    ) -> Result<Selection> {
        feasibility_mask(reg, &self.arms, data.len(), ratio, &mut self.mask);
        let input = Input::Fresh(self.evaluator.reference(data));
        for _ in 0..self.arms.len() {
            if self.mask.iter().all(|&m| !m) {
                return Err(AdaEdgeError::NoFeasibleArm {
                    target_ratio: ratio,
                });
            }
            let arm = self.choose_arm(ratio).arm;
            let outcome = self.attempt(reg, input, arm, ratio, &mut VictimDecode::default())?;
            self.bands
                .update(ratio, arm, outcome.as_ref().map_or(0.0, |s| s.reward));
            match outcome {
                Some(selection) => return Ok(selection),
                None => self.mask[arm] = false,
            }
        }
        Err(AdaEdgeError::NoFeasibleArm {
            target_ratio: ratio,
        })
    }

    /// Report a batch of `(arm, reward)` updates into the band owning
    /// `ratio`, in order, exactly as K sequential `update` calls.
    /// [`Self::recode`] accumulates its per-attempt scores locally and
    /// flushes them through here, so a recode costs one reward-reporting
    /// pass however many arms it probed; external drivers that score
    /// attempts outside the selector lock can use it the same way.
    pub fn report_batch(&mut self, ratio: f64, updates: &[(usize, f64)]) {
        for &(arm, reward) in updates {
            self.bands.update(ratio, arm, reward);
        }
    }

    /// Recode an existing block to a tighter ratio. Same-codec blocks use
    /// virtual decompression; otherwise the block is decoded once and
    /// re-compressed with the band's selected arm. `original`, when given,
    /// must be the points `block` was compressed from ([`Self::reference`]):
    /// attempts are scored against it and its cached aggregates, and a
    /// block whose codec [is bit-exact](CodecId::is_bit_exact) is
    /// re-compressed from it without being decoded (the decode would equal
    /// it bit for bit). Without it, attempts score against the victim's
    /// decode, whose aggregates the call computes once.
    ///
    /// Recoding is destructive, so exploration is *safe*: a non-greedy
    /// pull is still compressed and scored (the MAB learns from it), but
    /// when its measured reward falls materially below the band's greedy
    /// reward mean the greedy arm is also run and whichever measured
    /// better is committed. Exploration then costs compute, not permanent
    /// accuracy — the paper frames exploration overhead as recoverable
    /// (§V-C), which a committed bad lossy block would not be. A band
    /// without reward means (a gradient bandit's preferences are not
    /// rewards) always runs the greedy arm after a non-greedy pull. A band
    /// whose pulled greedy arm has a reward mean at the ceiling of 1.0 does
    /// not explore at all, here or in [`Self::compress_to_ratio`].
    ///
    /// Per-attempt rewards are accumulated locally and flushed through
    /// [`Self::report_batch`] on exit (identical MAB state: every deferred
    /// update is either followed by an immediate return or belongs to an
    /// arm the retry mask already excludes from later reads).
    pub fn recode(
        &mut self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        original: Option<Reference<'_>>,
        ratio: f64,
    ) -> Result<Selection> {
        let mut updates = std::mem::take(&mut self.updates);
        updates.clear();
        let result = self.recode_inner(reg, block, original, ratio, &mut updates);
        self.report_batch(ratio, &updates);
        self.updates = updates;
        result
    }

    /// The recode retry loop, pushing `(arm, reward)` scores into
    /// `updates` instead of touching the bands directly.
    fn recode_inner(
        &mut self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        original: Option<Reference<'_>>,
        ratio: f64,
        updates: &mut Vec<(usize, f64)>,
    ) -> Result<Selection> {
        /// Reward shortfall (vs the greedy reward mean) beyond which an
        /// explored recode result is not committed.
        const SAFE_MARGIN: f64 = 0.005;

        let n = block.n_points as usize;
        feasibility_mask(reg, &self.arms, n, ratio, &mut self.mask);
        let input = Input::Victim { block, original };
        let mut victim = VictimDecode::default();
        for _ in 0..self.arms.len() {
            if self.mask.iter().all(|&m| !m) {
                return Err(AdaEdgeError::NoFeasibleArm {
                    target_ratio: ratio,
                });
            }
            let ArmChoice {
                arm,
                greedy,
                greedy_mean,
            } = self.choose_arm(ratio);
            let outcome = self.attempt(reg, input, arm, ratio, &mut victim)?;
            updates.push((arm, outcome.as_ref().map_or(0.0, |s| s.reward)));
            let Some(probe) = outcome else {
                self.mask[arm] = false;
                continue;
            };
            let poor = greedy_mean.is_none_or(|mean| probe.reward + SAFE_MARGIN < mean);
            if arm != greedy && poor {
                // The probe was informative but poor (or cannot be told
                // poor from a mean): also run the greedy arm and commit
                // whichever *measured* better (the greedy mean itself may
                // rest on a lucky early pull).
                let rerun = self.attempt(reg, input, greedy, ratio, &mut victim)?;
                updates.push((greedy, rerun.as_ref().map_or(0.0, |s| s.reward)));
                if let Some(g) = rerun.filter(|g| g.reward >= probe.reward) {
                    return Ok(Selection {
                        seconds: probe.seconds + g.seconds,
                        ..g
                    });
                }
            }
            return Ok(probe);
        }
        Err(AdaEdgeError::NoFeasibleArm {
            target_ratio: ratio,
        })
    }

    /// One lossy attempt of `arm` at `ratio`, scored through
    /// [`RewardEvaluator::evaluate_block`]: from compressed-domain
    /// aggregates when the target allows, else from a decode through the
    /// selector's reused arena. A victim of the arm's own family
    /// ([`same_family`]) is recoded through virtual decompression; any
    /// other victim is re-compressed from its decode, or from the held
    /// original when its codec is [bit-exact](CodecId::is_bit_exact). A
    /// victim is scored against its original when given, else against its
    /// decode; `victim` keeps that decode (in `self.victim`) and its
    /// aggregates for the rest of the recode call.
    ///
    /// `Ok(None)` is an attempt that cannot reach `ratio` or recode the
    /// victim; the caller scores it 0 and masks the arm for the retry.
    fn attempt(
        &mut self,
        reg: &CodecRegistry,
        input: Input<'_>,
        arm: usize,
        ratio: f64,
        victim: &mut VictimDecode,
    ) -> Result<Option<Selection>> {
        let codec = self.arms[arm];
        let lossy = reg.get_lossy(codec).expect("arm must be lossy");
        let t0 = Instant::now();
        let attempt = match input {
            Input::Fresh(reference) => lossy.compress_to_ratio(reference.points(), ratio),
            Input::Victim { block, .. } if same_family(block.codec, codec) => {
                reg.recode(block, ratio)
            }
            Input::Victim { block, original } => {
                let points = match original {
                    Some(orig) if block.codec.is_bit_exact() => orig.points(),
                    _ => victim.points(reg, block, &mut self.scratch, &mut self.victim)?,
                };
                lossy.compress_to_ratio(points, ratio)
            }
        };
        let block = match attempt {
            Ok(block) => block,
            Err(CodecError::RatioUnreachable { .. } | CodecError::RecodeUnsupported(_)) => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        let seconds = t0.elapsed().as_secs_f64();
        let reference = match input {
            Input::Fresh(reference)
            | Input::Victim {
                original: Some(reference),
                ..
            } => reference,
            Input::Victim {
                block: stored,
                original: None,
            } => {
                let points = victim.points(reg, stored, &mut self.scratch, &mut self.victim)?;
                let evaluator = &self.evaluator;
                let aggs = *victim
                    .aggs
                    .get_or_insert_with(|| evaluator.reference_aggs(points));
                Reference::with_aggs(points, aggs)
            }
        };
        let reward = self.evaluator.evaluate_block(
            reg,
            reference,
            &block,
            seconds,
            &mut self.scratch,
            &mut self.buf,
        )?;
        Ok(Some(Selection {
            codec,
            block,
            seconds,
            reward,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggKind;
    use crate::targets::OptimizationTarget;

    fn reg() -> CodecRegistry {
        CodecRegistry::new(4)
    }

    fn smooth(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.01).sin() * 3.0 * 1e4).round() / 1e4)
            .collect()
    }

    #[test]
    fn lossless_selector_learns_small_codec() {
        let reg = reg();
        let mut sel = LosslessSelector::new(
            CodecRegistry::lossless_candidates(),
            SelectorConfig {
                epsilon: 0.1,
                seed: 3,
                ..Default::default()
            },
        );
        let data = smooth(1024);
        let mut scratch = CodecScratch::new();
        for _ in 0..60 {
            sel.compress(&reg, &data, &mut scratch).unwrap();
        }
        // Sprintz should win on smooth 4-digit data.
        assert_eq!(sel.greedy_arm(), CodecId::Sprintz);
    }

    #[test]
    fn greedy_arm_is_the_arm_the_policy_exploits() {
        // After one pull every other arm ties at the optimistic 1.0; with
        // ε = 0 the policy exploits the first of them.
        let mut sel = LosslessSelector::new(
            CodecRegistry::lossless_candidates(),
            SelectorConfig {
                epsilon: 0.0,
                seed: 6,
                ..Default::default()
            },
        );
        sel.report_ratio(0, 0.3);
        let greedy = sel.greedy_arm();
        assert_eq!(greedy, sel.select_arm().1);
        assert_eq!(greedy, sel.select_arm_biased(LinkPressure::Critical).1);
    }

    #[test]
    fn report_batch_is_bit_identical_to_sequential_reports() {
        let config = SelectorConfig {
            epsilon: 0.1,
            seed: 11,
            ..Default::default()
        };
        let arms = CodecRegistry::lossless_candidates();
        let mut seq = LosslessSelector::new(arms.clone(), config);
        let mut batched = LosslessSelector::new(arms, config);
        // Mixed outcomes, including enough failures to trip quarantine on
        // one arm, split across uneven batch sizes.
        let outcomes = [
            ArmOutcome::Ratio(0.4),
            ArmOutcome::Failure,
            ArmOutcome::Ratio(0.35),
            ArmOutcome::Failure,
            ArmOutcome::Failure,
            ArmOutcome::Failure,
            ArmOutcome::Ratio(0.9),
        ];
        for (i, chunk) in outcomes.chunks(3).enumerate() {
            let arm = i % 2;
            for &o in chunk {
                match o {
                    ArmOutcome::Ratio(r) => {
                        seq.report_ratio(arm, r);
                    }
                    ArmOutcome::Failure => {
                        seq.record_failure(arm);
                    }
                }
            }
            batched.report_batch(arm, chunk);
        }
        assert_eq!(seq.estimates(), batched.estimates());
        assert_eq!(seq.pulls(), batched.pulls());
        assert_eq!(seq.failure_totals(), batched.failure_totals());
        assert_eq!(seq.quarantined_arms(), batched.quarantined_arms());
        // Both selectors draw from identically-advanced RNGs afterwards.
        assert_eq!(seq.select_arm(), batched.select_arm());
    }

    #[test]
    fn banded_report_batch_matches_sequential_updates() {
        let evaluator = || RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let config = SelectorConfig::offline();
        let arms = CodecRegistry::lossy_candidates();
        let mut seq = BandedLossySelector::new(arms.clone(), config, evaluator());
        let mut batched = BandedLossySelector::new(arms, config, evaluator());
        let updates = [(0usize, 0.8), (1, 0.3), (0, 0.55), (2, 0.0)];
        for &(arm, reward) in &updates {
            seq.bands.update(0.25, arm, reward);
        }
        batched.report_batch(0.25, &updates);
        let mask = vec![true; seq.arms.len()];
        assert_eq!(
            seq.bands.greedy(0.25, Some(&mask)),
            batched.bands.greedy(0.25, Some(&mask))
        );
        assert_eq!(seq.instantiated_bands(), batched.instantiated_bands());
    }

    #[test]
    fn lossy_selector_respects_target_ratio() {
        let reg = reg();
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let mut sel = BandedLossySelector::new(
            CodecRegistry::lossy_candidates(),
            SelectorConfig::online(),
            evaluator,
        );
        let data = smooth(1000);
        for _ in 0..20 {
            let s = sel.compress_to_ratio(&reg, &data, 0.1).unwrap();
            assert!(
                s.block.ratio() <= 0.1 + 1e-9,
                "{}: {}",
                s.codec,
                s.block.ratio()
            );
        }
    }

    #[test]
    fn lossy_selector_learns_paa_or_fft_for_sum() {
        let reg = reg();
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        // BUFF-lossy is infeasible at ratio 0.05 (its floor is ≈0.126);
        // restrict the arms to the feasible set.
        let mut sel = BandedLossySelector::new(
            vec![CodecId::Paa, CodecId::Pla, CodecId::Fft, CodecId::RrdSample],
            SelectorConfig {
                epsilon: 0.05,
                seed: 1,
                ..Default::default()
            },
            evaluator,
        );
        let data = smooth(1000);
        let committed: Vec<CodecId> = (0..80)
            .map(|_| sel.compress_to_ratio(&reg, &data, 0.05).unwrap().codec)
            .collect();
        // Once learned, every committed segment is a SUM-optimal arm.
        let late = &committed[40..];
        assert!(
            late.iter().all(|&c| c == CodecId::Paa || c == CodecId::Fft),
            "sum target should favour PAA/FFT, committed {late:?}"
        );
    }

    #[test]
    fn buff_lossy_masked_below_floor() {
        let reg = reg();
        let mut mask = Vec::new();
        feasibility_mask(
            &reg,
            &CodecRegistry::lossy_candidates(),
            1000,
            0.05,
            &mut mask,
        );
        // PAA, PLA, FFT, BUFF-lossy, RRD — BUFF-lossy (index 3) infeasible.
        assert_eq!(mask, vec![true, true, true, false, true]);
    }

    #[test]
    fn no_feasible_arm_error() {
        let reg = reg();
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let mut sel = BandedLossySelector::new(
            vec![CodecId::BuffLossy],
            SelectorConfig::online(),
            evaluator,
        );
        let err = sel
            .compress_to_ratio(&reg, &smooth(1000), 0.05)
            .unwrap_err();
        assert!(matches!(err, AdaEdgeError::NoFeasibleArm { .. }));
    }

    #[test]
    fn banded_selector_recodes_with_virtual_decompression() {
        let reg = reg();
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let mut sel = BandedLossySelector::new(
            vec![CodecId::Paa], // single arm: recode must go PAA→PAA
            SelectorConfig::offline(),
            evaluator,
        );
        let data = smooth(1000);
        let first = sel.compress_to_ratio(&reg, &data, 0.4).unwrap();
        let original = sel.reference(&data);
        let recoded = sel.recode(&reg, &first.block, Some(original), 0.1).unwrap();
        assert_eq!(recoded.codec, CodecId::Paa);
        assert!(recoded.block.ratio() <= 0.1 + 1e-9);
    }

    #[test]
    fn recode_without_originals_scores_against_the_victim() {
        let reg = reg();
        let data = smooth(1000);
        // RRD sampling does not keep the sum; PAA of its decode does.
        let victim = reg
            .get_lossy(CodecId::RrdSample)
            .unwrap()
            .compress_to_ratio(&data, 0.4)
            .unwrap();
        let recode = |hint: Option<&[f64]>| {
            let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
            let mut sel =
                BandedLossySelector::new(vec![CodecId::Paa], SelectorConfig::offline(), evaluator);
            let hint = hint.map(|points| sel.reference(points));
            sel.recode(&reg, &victim, hint, 0.1).unwrap()
        };
        let without = recode(None);
        assert_eq!(without.codec, CodecId::Paa);
        assert_eq!(without.reward, 1.0, "PAA keeps the victim's sum");
        let with = recode(Some(&data));
        let mut eval = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let recoded = reg.decompress(&with.block).unwrap();
        let against_original = eval.evaluate(&data, &recoded, 0.0);
        assert!(with.reward < 1.0, "{}", with.reward);
        assert!((with.reward - against_original).abs() < 1e-9);
    }

    #[test]
    fn bit_exact_victims_recode_from_the_hint_without_decoding() {
        let reg = reg();
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.013).sin() * 3.0 + (i as f64).sqrt() * 1e-9)
            .collect();
        let recode = |victim: &CompressedBlock, hint: Option<&[f64]>| {
            let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
            let mut sel = BandedLossySelector::new(
                CodecRegistry::lossy_candidates(),
                SelectorConfig::offline(),
                evaluator,
            );
            let hint = hint.map(|points| sel.reference(points));
            sel.recode(&reg, victim, hint, 0.1).unwrap()
        };
        for codec in CodecId::ALL.into_iter().filter(|c| c.is_bit_exact()) {
            let victim = reg.get(codec).compress(&data).unwrap();
            let via_decode = recode(&victim, None);
            let via_hint = recode(&victim, Some(&data));
            assert_eq!(via_hint.codec, via_decode.codec, "{codec}");
            assert_eq!(via_hint.block, via_decode.block, "{codec}");
            assert_eq!(via_hint.reward, via_decode.reward, "{codec}");
            // The hint stands in for the decode: a victim whose payload no
            // longer decodes to the data still recodes from it.
            let mut garbled = victim.clone();
            garbled.payload.iter_mut().for_each(|b| *b = !*b);
            assert_eq!(
                recode(&garbled, Some(&data)).block,
                via_hint.block,
                "{codec}"
            );
        }
    }

    /// A banded selector over every lossy arm (PAA is arm 0) for `kind`.
    fn banded(kind: AggKind, config: SelectorConfig) -> BandedLossySelector {
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(kind), None, 0);
        BandedLossySelector::new(CodecRegistry::lossy_candidates(), config, evaluator)
    }

    /// Per-arm pulls of the band owning `ratio`.
    fn band_pulls(sel: &mut BandedLossySelector, ratio: f64) -> Vec<u64> {
        sel.bands.policy_for(ratio).pulls().to_vec()
    }

    #[test]
    fn a_greedy_arm_at_the_reward_ceiling_is_taken_without_exploring() {
        let reg = reg();
        let data = smooth(1000);
        let victim = reg.get(CodecId::Gzip).compress(&data).unwrap();
        // ε = 1: every select would explore.
        let mut sel = banded(
            AggKind::Sum,
            SelectorConfig {
                epsilon: 1.0,
                seed: 9,
                ..Default::default()
            },
        );
        // PAA has scored the ceiling in the 0.1 band.
        sel.bands.update(0.1, 0, 1.0);
        let before = band_pulls(&mut sel, 0.1);
        let original = sel.reference(&data);
        for _ in 0..20 {
            let s = sel.compress_to_ratio(&reg, &data, 0.1).unwrap();
            assert_eq!((s.codec, s.reward), (CodecId::Paa, 1.0));
            let s = sel.recode(&reg, &victim, Some(original), 0.1).unwrap();
            assert_eq!((s.codec, s.reward), (CodecId::Paa, 1.0));
        }
        let after = band_pulls(&mut sel, 0.1);
        assert_eq!(after[0], before[0] + 40);
        assert_eq!(after[1..], before[1..], "another arm was pulled");
    }

    #[test]
    fn an_unpulled_arm_at_the_optimistic_ceiling_does_not_stop_exploring() {
        // A fresh band holds every arm at the optimistic 1.0, PAA (arm 0)
        // greedy among them; with ε = 1 the first pick is a uniform draw.
        let reg = reg();
        let data = smooth(1000);
        let mut picked = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let config = SelectorConfig {
                epsilon: 1.0,
                seed,
                ..Default::default()
            };
            let mut sel = banded(AggKind::Sum, config);
            picked.insert(sel.compress_to_ratio(&reg, &data, 0.1).unwrap().codec);
        }
        assert!(picked.len() > 1, "only {picked:?} picked");
    }

    #[test]
    fn below_the_ceiling_the_band_selects_as_its_policy_does() {
        // Under MAX no arm keeps the maximum exactly, so every band stays
        // below the ceiling: each pick must equal a twin band's select on
        // the same RNG stream, fed the same rewards.
        let reg = reg();
        let data = smooth(1000);
        let config = SelectorConfig {
            epsilon: 0.5,
            seed: 4,
            ..Default::default()
        };
        let mut sel = banded(AggKind::Max, config);
        let n = sel.arms.len();
        let mut twin = BandedBandits::new(default_band_edges(), move || config.build_mab(n));
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(2));
        let mut mask = Vec::new();
        feasibility_mask(&reg, &sel.arms, data.len(), 0.1, &mut mask);
        let mut picked = std::collections::BTreeSet::new();
        for _ in 0..60 {
            let s = sel.compress_to_ratio(&reg, &data, 0.1).unwrap();
            assert!(s.reward < REWARD_CEILING, "{}: {}", s.codec, s.reward);
            let arm = twin.select(0.1, Some(&mask), &mut rng);
            assert_eq!(s.codec, sel.arms[arm]);
            twin.update(0.1, arm, s.reward);
            picked.insert(s.codec);
        }
        assert!(picked.len() > 2, "only {picked:?} picked");
    }

    #[test]
    fn a_gradient_band_at_the_reward_ceiling_still_explores() {
        // A gradient bandit's estimates are preferences, not reward means,
        // so PAA scoring the ceiling must not stop its exploration.
        let reg = reg();
        let data = smooth(1000);
        let mut sel = banded(
            AggKind::Sum,
            SelectorConfig {
                algorithm: BanditAlgorithm::Gradient { alpha: 0.1 },
                seed: 3,
                ..Default::default()
            },
        );
        sel.bands.update(0.1, 0, 1.0);
        for _ in 0..40 {
            sel.compress_to_ratio(&reg, &data, 0.1).unwrap();
        }
        let pulls = band_pulls(&mut sel, 0.1);
        assert!(pulls[1..].iter().sum::<u64>() > 0, "{pulls:?}");
    }

    #[test]
    fn a_gradient_band_commits_the_better_measured_recode() {
        // With no reward mean to judge a probe by, a non-greedy recode
        // also runs the greedy arm and commits the better measured result:
        // PAA keeps the sum exactly, so nothing below the ceiling may be
        // committed however often the band explores.
        let reg = reg();
        let data = smooth(1000);
        let victim = reg.get(CodecId::Gzip).compress(&data).unwrap();
        let mut sel = banded(
            AggKind::Sum,
            SelectorConfig {
                algorithm: BanditAlgorithm::Gradient { alpha: 0.1 },
                seed: 3,
                ..Default::default()
            },
        );
        sel.bands.update(0.1, 0, 1.0);
        let recodes = 40;
        let original = sel.reference(&data);
        for _ in 0..recodes {
            let s = sel.recode(&reg, &victim, Some(original), 0.1).unwrap();
            assert_eq!(s.reward, 1.0, "{} committed", s.codec);
        }
        let pulls = band_pulls(&mut sel, 0.1);
        // The seeding pull, one per recode, and a greedy rerun after each
        // probe that explored.
        assert!(pulls.iter().sum::<u64>() > 1 + recodes, "{pulls:?}");
    }

    #[test]
    fn banded_selector_uses_separate_bands() {
        let reg = reg();
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let mut sel = BandedLossySelector::new(
            CodecRegistry::lossy_candidates(),
            SelectorConfig::offline(),
            evaluator,
        );
        let data = smooth(1000);
        sel.compress_to_ratio(&reg, &data, 0.4).unwrap();
        assert_eq!(sel.instantiated_bands(), 1);
        sel.compress_to_ratio(&reg, &data, 0.05).unwrap();
        assert_eq!(sel.instantiated_bands(), 2);
    }

    #[test]
    #[should_panic(expected = "lossless arms")]
    fn lossless_selector_rejects_lossy_arms() {
        LosslessSelector::new(vec![CodecId::Paa], SelectorConfig::default());
    }

    #[test]
    fn bad_lossless_rosters_are_config_errors_at_every_entry_point() {
        use crate::engine::{run_pipeline, EngineConfig};
        use crate::fleet::{run_fleet, FleetConfig, StreamSpec};
        use crate::frame::Priority;
        use adaedge_datasets::SineStream;
        for arms in [vec![], vec![CodecId::Paa], vec![CodecId::Gzip; 65]] {
            let sine = || SineStream::new(64, 0.1, 4, 1);
            let online = EngineConfig {
                lossless_arms: arms.clone(),
                ..Default::default()
            };
            let fleet = FleetConfig {
                lossless_arms: arms.clone(),
                ..Default::default()
            };
            let spec = StreamSpec::new(0, Priority::Normal, 4, Box::new(sine()));
            let results = [
                ("run_pipeline", run_pipeline(&mut sine(), 4, &online).err()),
                ("run_fleet", run_fleet(vec![spec], &fleet).err()),
            ];
            for (entry, err) in results {
                assert!(
                    matches!(err, Some(AdaEdgeError::Config(_))),
                    "{entry} with {} arms: {err:?}",
                    arms.len()
                );
            }
        }
    }

    #[test]
    fn bad_recode_thresholds_are_config_errors_at_every_entry_point() {
        use crate::offline::{OfflineAdaEdge, OfflineConfig};
        let target = || OptimizationTarget::agg(AggKind::Sum);
        for threshold in [f64::NAN, -0.5, 1.5] {
            let edge = OfflineConfig {
                recode_threshold: threshold,
                ..OfflineConfig::new(1 << 20, target())
            };
            let results = [("OfflineAdaEdge::new", OfflineAdaEdge::new(edge).err())];
            for (entry, err) in results {
                assert!(
                    matches!(err, Some(AdaEdgeError::Config(_))),
                    "{entry} with θ = {threshold}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn nominal_bias_is_bit_identical_to_select_arm() {
        let config = SelectorConfig {
            epsilon: 0.3,
            seed: 17,
            ..Default::default()
        };
        let arms = CodecRegistry::lossless_candidates();
        let mut plain = LosslessSelector::new(arms.clone(), config);
        let mut biased = LosslessSelector::new(arms, config);
        for i in 0..300 {
            let a = plain.select_arm();
            let b = biased.select_arm_biased(LinkPressure::Nominal);
            assert_eq!(a, b, "diverged at step {i}");
            let ratio = 0.3 + (a.0 as f64) * 0.1;
            plain.report_ratio(a.0, ratio);
            biased.report_ratio(b.0, ratio);
        }
    }

    #[test]
    fn critical_bias_is_deterministic_argmax() {
        let mut sel = LosslessSelector::new(
            CodecRegistry::lossless_candidates(),
            SelectorConfig {
                epsilon: 1.0, // maximally exploratory when unbiased
                seed: 5,
                ..Default::default()
            },
        );
        // Teach it: arm 1 compresses best (lowest ratio → highest reward).
        for (arm, ratio) in [(0, 0.8), (1, 0.2), (2, 0.7), (3, 0.9), (4, 0.6), (5, 0.75)] {
            sel.report_ratio(arm, ratio);
        }
        for _ in 0..50 {
            let (arm, _) = sel.select_arm_biased(LinkPressure::Critical);
            assert_eq!(arm, 1, "critical pressure must exploit, never explore");
        }
        // Critical selection draws no RNG: the next nominal pick matches a
        // twin that never went critical.
        let mut twin = LosslessSelector::new(
            CodecRegistry::lossless_candidates(),
            SelectorConfig {
                epsilon: 1.0,
                seed: 5,
                ..Default::default()
            },
        );
        for (arm, ratio) in [(0, 0.8), (1, 0.2), (2, 0.7), (3, 0.9), (4, 0.6), (5, 0.75)] {
            twin.report_ratio(arm, ratio);
        }
        assert_eq!(
            sel.select_arm_biased(LinkPressure::Nominal),
            twin.select_arm()
        );
    }

    #[test]
    fn critical_bias_respects_quarantine() {
        let mut sel = LosslessSelector::new(
            CodecRegistry::lossless_candidates(),
            SelectorConfig::default(),
        );
        for (arm, ratio) in [(0, 0.8), (1, 0.2), (2, 0.7), (3, 0.9), (4, 0.6), (5, 0.75)] {
            sel.report_ratio(arm, ratio);
        }
        sel.quarantine_arm(1); // the best arm goes toxic
        let (arm, _) = sel.select_arm_biased(LinkPressure::Critical);
        assert_eq!(arm, 4, "next-best non-quarantined arm (ratio 0.6)");
    }

    #[test]
    fn elevated_bias_explores_less_than_nominal() {
        // With ε=1.0 a nominal selector explores every draw; elevated
        // damping to 0.25 must produce mostly-greedy picks.
        let run = |pressure: LinkPressure| -> usize {
            let mut sel = LosslessSelector::new(
                CodecRegistry::lossless_candidates(),
                SelectorConfig {
                    epsilon: 1.0,
                    seed: 23,
                    ..Default::default()
                },
            );
            for (arm, ratio) in [(0, 0.8), (1, 0.2), (2, 0.7), (3, 0.9), (4, 0.6), (5, 0.75)] {
                sel.report_ratio(arm, ratio);
            }
            (0..400)
                .filter(|_| sel.select_arm_biased(pressure).0 != 1)
                .count()
        };
        let nominal_explores = run(LinkPressure::Nominal);
        let elevated_explores = run(LinkPressure::Elevated);
        assert!(
            elevated_explores * 2 < nominal_explores,
            "elevated {elevated_explores} vs nominal {nominal_explores}"
        );
        assert!(elevated_explores > 0, "elevated still explores a little");
    }
}
