//! MAB-backed compression selectors (§IV-C).
//!
//! [`LosslessSelector`] minimizes compressed size (its reward is
//! `1 − ratio`); [`LossySelector`] maximizes the configured optimization
//! target at a required ratio, masking arms whose floor is above the
//! target; [`BandedLossySelector`] keeps one MAB instance per
//! compression-ratio band for offline recoding.

use crate::error::{AdaEdgeError, Result};
use crate::targets::RewardEvaluator;
use crate::uplink::LinkPressure;
use adaedge_bandit::{
    default_band_edges, BandedBandits, EpsilonGreedy, GradientBandit, Policy, StepSize, Ucb,
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

    /// UCB variant of the defaults (ablation).
    pub fn ucb(c: f64) -> Self {
        Self {
            algorithm: BanditAlgorithm::Ucb { c },
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
    /// Arms masked out of selection after repeated failures. Sticky for
    /// the selector's lifetime: a codec that panicked on this workload is
    /// not trusted again mid-run.
    quarantined: Vec<bool>,
    /// Pre-allocated selection mask so the steady-state select path stays
    /// allocation-free even while arms are quarantined.
    mask: Vec<bool>,
    n_quarantined: usize,
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
            quarantined: vec![false; n],
            mask: vec![true; n],
            n_quarantined: 0,
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

    /// The arm the MAB currently believes best (no exploration).
    pub fn greedy_arm(&self) -> CodecId {
        let est = self.mab.estimates();
        let best = (0..est.len())
            .max_by(|&a, &b| est[a].partial_cmp(&est[b]).expect("finite estimates"))
            .expect("non-empty");
        self.arms[best]
    }

    /// Select an arm without compressing (split API for the multithreaded
    /// engine, which compresses outside the selector lock).
    ///
    /// Quarantined arms are masked out. When *every* arm is quarantined
    /// the selector fails open (no mask) — arms keep being tried and the
    /// engine's per-segment Raw fallback contains the damage.
    pub fn select_arm(&mut self) -> (usize, CodecId) {
        let mask = if self.n_quarantined == 0 || self.n_quarantined == self.arms.len() {
            None
        } else {
            for (m, q) in self.mask.iter_mut().zip(&self.quarantined) {
                *m = !q;
            }
            Some(self.mask.as_slice())
        };
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
                let est = self.mab.estimates();
                let fail_open = self.n_quarantined == 0 || self.n_quarantined == self.arms.len();
                let mut best: Option<usize> = None;
                for i in 0..est.len() {
                    if !fail_open && self.quarantined[i] {
                        continue;
                    }
                    match best {
                        None => best = Some(i),
                        Some(b) if est[i] > est[b] => best = Some(i),
                        _ => {}
                    }
                }
                let arm = best.expect("selector has at least one arm");
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
        if !self.quarantined[arm] && self.consecutive_failures[arm] >= QUARANTINE_AFTER {
            self.quarantined[arm] = true;
            self.n_quarantined += 1;
        }
        self.quarantined[arm]
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
        if !self.quarantined[arm] {
            self.quarantined[arm] = true;
            self.n_quarantined += 1;
        }
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
            if quarantine_bits & (1u64 << arm) != 0 {
                self.quarantine_arm(arm);
            }
        }
    }

    /// Quarantine verdicts as a bitmask (bit `i` = arm `i`), the form the
    /// persist layer and the shared outcome table both use.
    pub fn quarantine_bits(&self) -> u64 {
        self.quarantined
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &q)| acc | ((q as u64) << i))
    }

    /// Whether `arm` is currently quarantined.
    pub fn is_quarantined(&self, arm: usize) -> bool {
        self.quarantined[arm]
    }

    /// The currently quarantined arms (empty in a healthy run).
    pub fn quarantined_arms(&self) -> Vec<CodecId> {
        self.arms
            .iter()
            .zip(&self.quarantined)
            .filter_map(|(&a, &q)| q.then_some(a))
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

/// Feasibility mask for lossy arms at a target ratio.
fn feasibility_mask(
    reg: &CodecRegistry,
    arms: &[CodecId],
    n_points: usize,
    ratio: f64,
) -> Vec<bool> {
    arms.iter()
        .map(|&a| {
            reg.get_lossy(a)
                .map(|c| c.min_ratio(n_points) <= ratio)
                .unwrap_or(false)
        })
        .collect()
}

/// Run one lossy compression attempt and score it through
/// [`RewardEvaluator::evaluate_block`]: from compressed-domain aggregates
/// when the target allows, else from a decode through `scratch`/`buf`, so
/// repeated attempts reuse the same arena.
#[allow(clippy::too_many_arguments)]
fn lossy_attempt(
    reg: &CodecRegistry,
    codec: CodecId,
    data: &[f64],
    ratio: f64,
    evaluator: &mut RewardEvaluator,
    scratch: &mut CodecScratch,
    buf: &mut Vec<f64>,
) -> std::result::Result<(CompressedBlock, f64, f64), CodecError> {
    let lossy = reg.get_lossy(codec).expect("arm must be lossy");
    let t0 = Instant::now();
    let block = lossy.compress_to_ratio(data, ratio)?;
    let seconds = t0.elapsed().as_secs_f64();
    let reward = evaluator.evaluate_block(reg, data, &block, seconds, scratch, buf)?;
    Ok((block, seconds, reward))
}

/// Decode a recode victim into `out` unless `*decoded` says `out` already
/// holds it.
fn decode_victim(
    reg: &CodecRegistry,
    block: &CompressedBlock,
    scratch: &mut CodecScratch,
    out: &mut Vec<f64>,
    decoded: &mut bool,
) -> std::result::Result<(), CodecError> {
    if !*decoded {
        reg.decompress_into(block, scratch, out)?;
        *decoded = true;
    }
    Ok(())
}

/// MAB over lossy arms at a single operating ratio (online mode).
pub struct LossySelector {
    arms: Vec<CodecId>,
    mab: Box<dyn Policy>,
    evaluator: RewardEvaluator,
    rng: SmallRng,
    /// Reused decompression arena for reward scoring.
    scratch: CodecScratch,
    /// Reused reconstruction buffer for reward scoring.
    buf: Vec<f64>,
}

impl std::fmt::Debug for LossySelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LossySelector")
            .field("arms", &self.arms)
            .finish()
    }
}

impl LossySelector {
    /// Create a selector over lossy candidate arms with the given target
    /// evaluator.
    pub fn new(arms: Vec<CodecId>, config: SelectorConfig, evaluator: RewardEvaluator) -> Self {
        assert!(!arms.is_empty(), "need at least one arm");
        let mab = config.build_mab(arms.len());
        Self {
            arms,
            mab,
            evaluator,
            rng: SmallRng::seed_from_u64(config.seed.wrapping_add(1)),
            scratch: CodecScratch::new(),
            buf: Vec::new(),
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

    /// Select a feasible arm, compress to `ratio`, evaluate the target and
    /// feed the reward back. Infeasible selections (data-dependent floors)
    /// are penalized and retried on other arms.
    pub fn compress_to_ratio(
        &mut self,
        reg: &CodecRegistry,
        data: &[f64],
        ratio: f64,
    ) -> Result<Selection> {
        let mut mask = feasibility_mask(reg, &self.arms, data.len(), ratio);
        for _ in 0..self.arms.len() {
            if mask.iter().all(|&m| !m) {
                return Err(AdaEdgeError::NoFeasibleArm {
                    target_ratio: ratio,
                });
            }
            let arm = self.mab.select(Some(&mask), &mut self.rng);
            match lossy_attempt(
                reg,
                self.arms[arm],
                data,
                ratio,
                &mut self.evaluator,
                &mut self.scratch,
                &mut self.buf,
            ) {
                Ok((block, seconds, reward)) => {
                    self.mab.update(arm, reward);
                    return Ok(Selection {
                        codec: self.arms[arm],
                        block,
                        seconds,
                        reward,
                    });
                }
                Err(CodecError::RatioUnreachable { .. }) => {
                    // Data-dependent floor: penalize and exclude this round.
                    self.mab.update(arm, 0.0);
                    mask[arm] = false;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(AdaEdgeError::NoFeasibleArm {
            target_ratio: ratio,
        })
    }

    /// Access the evaluator (e.g. to inspect the model).
    pub fn evaluator(&self) -> &RewardEvaluator {
        &self.evaluator
    }
}

/// Lossy selection with one MAB instance per ratio band (§IV-C2, offline).
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

    /// Compress fresh points (or re-compress a decoded segment) to `ratio`
    /// using the band owning that ratio.
    pub fn compress_to_ratio(
        &mut self,
        reg: &CodecRegistry,
        data: &[f64],
        ratio: f64,
    ) -> Result<Selection> {
        let mut mask = feasibility_mask(reg, &self.arms, data.len(), ratio);
        for _ in 0..self.arms.len() {
            if mask.iter().all(|&m| !m) {
                return Err(AdaEdgeError::NoFeasibleArm {
                    target_ratio: ratio,
                });
            }
            let arm = self.bands.select(ratio, Some(&mask), &mut self.rng);
            match lossy_attempt(
                reg,
                self.arms[arm],
                data,
                ratio,
                &mut self.evaluator,
                &mut self.scratch,
                &mut self.buf,
            ) {
                Ok((block, seconds, reward)) => {
                    self.bands.update(ratio, arm, reward);
                    return Ok(Selection {
                        codec: self.arms[arm],
                        block,
                        seconds,
                        reward,
                    });
                }
                Err(CodecError::RatioUnreachable { .. }) => {
                    self.bands.update(ratio, arm, 0.0);
                    mask[arm] = false;
                }
                Err(e) => return Err(e.into()),
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
    /// re-compressed with the band's selected arm.
    ///
    /// Recoding is destructive, so exploration is *safe*: a non-greedy
    /// pull is still compressed and scored (the MAB learns from it), but
    /// when its measured reward falls materially below the band's greedy
    /// estimate the greedy arm's result is committed instead. Exploration
    /// then costs compute, not permanent accuracy — the paper frames
    /// exploration overhead as recoverable (§V-C), which a committed bad
    /// lossy block would not be.
    ///
    /// Per-attempt rewards are accumulated locally and flushed through
    /// [`Self::report_batch`] on exit (identical MAB state: every deferred
    /// update is either followed by an immediate return or belongs to an
    /// arm the retry mask already excludes from later reads).
    pub fn recode(
        &mut self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        original_hint: Option<&[f64]>,
        ratio: f64,
    ) -> Result<Selection> {
        let mut updates: Vec<(usize, f64)> = Vec::new();
        let result = self.recode_inner(reg, block, original_hint, ratio, &mut updates);
        self.report_batch(ratio, &updates);
        result
    }

    /// The recode retry loop, pushing `(arm, reward)` scores into
    /// `updates` instead of touching the bands directly.
    fn recode_inner(
        &mut self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        original_hint: Option<&[f64]>,
        ratio: f64,
        updates: &mut Vec<(usize, f64)>,
    ) -> Result<Selection> {
        /// Reward shortfall (vs the greedy estimate) beyond which an
        /// explored recode result is not committed.
        const SAFE_MARGIN: f64 = 0.005;

        let n = block.n_points as usize;
        let mut mask = feasibility_mask(reg, &self.arms, n, ratio);
        // Whether `self.victim` holds this call's decode of `block`.
        let mut decoded = false;

        // One recode attempt with a specific arm: returns the new block,
        // its wall time and its measured reward.
        macro_rules! attempt_arm {
            ($arm:expr) => {{
                let codec = self.arms[$arm];
                let t0 = Instant::now();
                let same_family = codec == block.codec
                    || (codec == CodecId::BuffLossy && block.codec == CodecId::Buff);
                let attempt: std::result::Result<CompressedBlock, CodecError> = if same_family {
                    reg.recode(block, ratio)
                } else {
                    decode_victim(
                        reg,
                        block,
                        &mut self.scratch,
                        &mut self.victim,
                        &mut decoded,
                    )?;
                    reg.get_lossy(codec)
                        .expect("arm must be lossy")
                        .compress_to_ratio(&self.victim, ratio)
                };
                match attempt {
                    Ok(new_block) => {
                        let seconds = t0.elapsed().as_secs_f64();
                        // Score against the raw points when the caller
                        // still has them; else the pre-recode decode.
                        let reference: &[f64] = match original_hint {
                            Some(orig) => orig,
                            None => {
                                decode_victim(
                                    reg,
                                    block,
                                    &mut self.scratch,
                                    &mut self.victim,
                                    &mut decoded,
                                )?;
                                &self.victim
                            }
                        };
                        let reward = self.evaluator.evaluate_block(
                            reg,
                            reference,
                            &new_block,
                            seconds,
                            &mut self.scratch,
                            &mut self.buf,
                        )?;
                        updates.push(($arm, reward));
                        Ok(Some((new_block, seconds, reward)))
                    }
                    Err(CodecError::RatioUnreachable { .. })
                    | Err(CodecError::RecodeUnsupported(_)) => {
                        updates.push(($arm, 0.0));
                        Ok(None)
                    }
                    Err(e) => Err(AdaEdgeError::from(e)),
                }
            }};
        }

        for _ in 0..self.arms.len() {
            if mask.iter().all(|&m| !m) {
                return Err(AdaEdgeError::NoFeasibleArm {
                    target_ratio: ratio,
                });
            }
            let (greedy_arm, greedy_est) = self.bands.greedy(ratio, Some(&mask));
            let arm = self.bands.select(ratio, Some(&mask), &mut self.rng);
            match attempt_arm!(arm)? {
                Some((new_block, seconds, reward)) => {
                    if arm != greedy_arm && reward + SAFE_MARGIN < greedy_est {
                        // The probe was informative but poor: also run the
                        // greedy arm and commit whichever *measured* better
                        // (the greedy estimate itself may rest on a lucky
                        // early pull).
                        if let Some((g_block, g_seconds, g_reward)) = attempt_arm!(greedy_arm)? {
                            if g_reward >= reward {
                                return Ok(Selection {
                                    codec: self.arms[greedy_arm],
                                    block: g_block,
                                    seconds: seconds + g_seconds,
                                    reward: g_reward,
                                });
                            }
                        }
                    }
                    return Ok(Selection {
                        codec: self.arms[arm],
                        block: new_block,
                        seconds,
                        reward,
                    });
                }
                None => {
                    mask[arm] = false;
                }
            }
        }
        Err(AdaEdgeError::NoFeasibleArm {
            target_ratio: ratio,
        })
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
        let mut sel = LossySelector::new(
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
        // BUFF-lossy is infeasible at ratio 0.05 (its floor is ≈0.126), so
        // its optimistic initial estimate would never be corrected; restrict
        // the arms to the feasible set for a clean argmax below.
        let mut sel = LossySelector::new(
            vec![CodecId::Paa, CodecId::Pla, CodecId::Fft, CodecId::RrdSample],
            SelectorConfig {
                epsilon: 0.05,
                seed: 1,
                ..Default::default()
            },
            evaluator,
        );
        let data = smooth(1000);
        for _ in 0..80 {
            sel.compress_to_ratio(&reg, &data, 0.05).unwrap();
        }
        let est = sel.estimates();
        let arms = sel.arms().to_vec();
        let best = arms[(0..est.len())
            .max_by(|&a, &b| est[a].partial_cmp(&est[b]).unwrap())
            .unwrap()];
        assert!(
            best == CodecId::Paa || best == CodecId::Fft,
            "sum target should favour PAA/FFT, got {best} (estimates {est:?})"
        );
    }

    #[test]
    fn buff_lossy_masked_below_floor() {
        let reg = reg();
        let mask = feasibility_mask(&reg, &CodecRegistry::lossy_candidates(), 1000, 0.05);
        // PAA, PLA, FFT, BUFF-lossy, RRD — BUFF-lossy (index 3) infeasible.
        assert_eq!(mask, vec![true, true, true, false, true]);
    }

    #[test]
    fn no_feasible_arm_error() {
        let reg = reg();
        let evaluator = RewardEvaluator::new(OptimizationTarget::agg(AggKind::Sum), None, 0);
        let mut sel = LossySelector::new(
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
        let recoded = sel.recode(&reg, &first.block, Some(&data), 0.1).unwrap();
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
        use crate::engine::{
            run_offline_pipeline, run_pipeline, EngineConfig, OfflineEngineConfig,
        };
        use crate::fleet::{run_fleet, FleetConfig, StreamSpec};
        use crate::frame::Priority;
        use adaedge_datasets::SineStream;
        for arms in [vec![], vec![CodecId::Paa], vec![CodecId::Gzip; 65]] {
            let sine = || SineStream::new(64, 0.1, 4, 1);
            let online = EngineConfig {
                lossless_arms: arms.clone(),
                ..Default::default()
            };
            let offline = OfflineEngineConfig {
                lossless_arms: arms.clone(),
                ..OfflineEngineConfig::new(1 << 20, OptimizationTarget::agg(AggKind::Sum))
            };
            let fleet = FleetConfig {
                lossless_arms: arms.clone(),
                ..Default::default()
            };
            let spec = StreamSpec::new(0, Priority::Normal, 4, Box::new(sine()));
            let results = [
                ("run_pipeline", run_pipeline(&mut sine(), 4, &online).err()),
                (
                    "run_offline_pipeline",
                    run_offline_pipeline(&mut sine(), 4, &offline).err(),
                ),
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
