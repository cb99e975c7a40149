//! The bandit policy trait and shared arm statistics.

use rand::RngCore;

/// How reward estimates are updated after each pull.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSize {
    /// Incremental sample average: `Q += (R − Q) / N`. Converges on
    /// stationary problems.
    SampleAverage,
    /// Constant step `Q += α (R − Q)`: exponential recency weighting, the
    /// paper's choice for non-stationary data shift (step = 0.5, §V-C).
    Constant(f64),
}

/// A multi-armed bandit policy over `k` arms.
///
/// Arms are dense indices `0..k`; the selection framework maps codec ids to
/// arm indices. Policies are `Send` so a selector can live inside the
/// multithreaded engine. State is O(k) per instance (§III-C).
pub trait Policy: Send {
    /// Number of arms.
    fn n_arms(&self) -> usize;

    /// Pick an arm among those enabled in `mask` (all arms when `None`).
    ///
    /// At least one arm must be enabled; implementations may panic
    /// otherwise. The mask models infeasible arms — e.g. lossless codecs
    /// that cannot reach the target ratio, or BUFF-lossy below its floor.
    fn select(&mut self, mask: Option<&[bool]>, rng: &mut dyn RngCore) -> usize;

    /// Feed back the observed reward for `arm`.
    fn update(&mut self, arm: usize, reward: f64);

    /// Fold `pulls` *foreign* pulls of `arm` totalling `reward_sum` into
    /// this policy's state, as if [`Policy::update`] had been called
    /// `pulls` times with the mean reward `reward_sum / pulls`.
    ///
    /// This is the delta-sync merge primitive for replicated selectors:
    /// a shard replica periodically folds the outcomes other shards
    /// published since its last sync. For sample-average policies the
    /// fold is *exact* — the posterior depends only on per-arm reward
    /// sums and counts, which are order-independent — and implementations
    /// override it with an O(1) closed form. The default replays the mean
    /// `pulls` times, which is exact for sample averages and the standard
    /// mean-field approximation otherwise (constant-step and gradient
    /// policies are order-sensitive, so any merge of concurrent histories
    /// is an approximation; see the shard-equivalence tests for the
    /// measured cost).
    fn fold(&mut self, arm: usize, pulls: u64, reward_sum: f64) {
        if pulls == 0 {
            return;
        }
        let mean = reward_sum / pulls as f64;
        for _ in 0..pulls {
            self.update(arm, mean);
        }
    }

    /// Overwrite `arm`'s posterior with a persisted `(pulls, estimate)`
    /// pair, replacing whatever state the arm held.
    ///
    /// This is the persist-*restore* primitive for evicted fleet streams:
    /// a stream's selector is summarized as per-arm pull counts and value
    /// estimates at eviction, and a fresh policy is rebuilt from those
    /// numbers at re-admission. Estimate-based policies (ε-greedy, UCB)
    /// override this with a direct overwrite, which round-trips **bit
    /// exactly**. The default reconstructs the equivalent reward mass and
    /// folds it in — exact for sample averages up to the `estimate·pulls`
    /// rounding, a mean-field approximation for order-sensitive policies
    /// (a gradient bandit's preferences are not recoverable from means).
    fn restore(&mut self, arm: usize, pulls: u64, estimate: f64) {
        self.fold(arm, pulls, estimate * pulls as f64);
    }

    /// Scale the policy's exploration pressure by `scale` (1.0 = the
    /// configured default, 0.0 = pure exploitation). The link-pressure
    /// degradation path uses this to damp exploration when the uplink is
    /// backlogged — exploring a poorly-compressing arm while frames queue
    /// is bandwidth the device doesn't have. Implementations scale their
    /// exploration knob (ε, UCB's `c`); the default is a no-op for
    /// policies without one. At `scale == 1.0` selection must be
    /// bit-identical to never having called this (same RNG draw count).
    fn set_exploration_scale(&mut self, _scale: f64) {}

    /// Current value estimates per arm (for introspection and tests).
    fn estimates(&self) -> &[f64];

    /// Per-arm reward means, for policies whose estimates are means of
    /// the observed rewards (ε-greedy, UCB), so a caller may compare them
    /// with a measured reward. An arm never pulled holds the policy's
    /// initial value. `None` (the default) when the estimates are on
    /// another scale, such as a gradient bandit's softmax preferences.
    fn reward_means(&self) -> Option<&[f64]> {
        None
    }

    /// Total number of updates seen.
    fn total_pulls(&self) -> u64;

    /// Per-arm pull counts.
    fn pulls(&self) -> &[u64];
}

impl Policy for Box<dyn Policy> {
    fn n_arms(&self) -> usize {
        (**self).n_arms()
    }

    fn select(&mut self, mask: Option<&[bool]>, rng: &mut dyn RngCore) -> usize {
        (**self).select(mask, rng)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        (**self).update(arm, reward)
    }

    fn fold(&mut self, arm: usize, pulls: u64, reward_sum: f64) {
        (**self).fold(arm, pulls, reward_sum)
    }

    fn restore(&mut self, arm: usize, pulls: u64, estimate: f64) {
        (**self).restore(arm, pulls, estimate)
    }

    fn set_exploration_scale(&mut self, scale: f64) {
        (**self).set_exploration_scale(scale)
    }

    fn estimates(&self) -> &[f64] {
        (**self).estimates()
    }

    fn reward_means(&self) -> Option<&[f64]> {
        (**self).reward_means()
    }

    fn total_pulls(&self) -> u64 {
        (**self).total_pulls()
    }

    fn pulls(&self) -> &[u64] {
        (**self).pulls()
    }
}

/// Argmax over enabled arms, ties broken by lowest index (deterministic).
/// This is how the estimate-based policies exploit, so a caller that needs
/// their greedy arm without a draw agrees with them. Panics when `mask`
/// enables no arm.
pub fn masked_argmax(values: &[f64], mask: Option<&[bool]>) -> usize {
    let enabled = |i: usize| mask.is_none_or(|m| m[i]);
    let mut best: Option<usize> = None;
    for i in 0..values.len() {
        if !enabled(i) {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if values[i] > values[b] => best = Some(i),
            _ => {}
        }
    }
    best.expect("mask must enable at least one arm")
}

/// Uniformly pick one enabled arm: one `gen_range(0..count)` draw over the
/// enabled arms, then the `k`-th of them. Allocation-free, so exploration
/// costs nothing on the heap in steady state.
pub(crate) fn masked_uniform(n: usize, mask: Option<&[bool]>, rng: &mut dyn RngCore) -> usize {
    use rand::Rng;
    let enabled = |i: &usize| mask.is_none_or(|m| m[*i]);
    let count = (0..n).filter(enabled).count();
    assert!(count > 0, "mask must enable at least one arm");
    let k = rng.gen_range(0..count);
    (0..n).filter(enabled).nth(k).expect("k < count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn argmax_respects_mask() {
        let values = [1.0, 5.0, 3.0];
        assert_eq!(masked_argmax(&values, None), 1);
        assert_eq!(masked_argmax(&values, Some(&[true, false, true])), 2);
        assert_eq!(masked_argmax(&values, Some(&[true, false, false])), 0);
    }

    #[test]
    fn argmax_ties_break_low() {
        let values = [2.0, 2.0, 2.0];
        assert_eq!(masked_argmax(&values, None), 0);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn argmax_empty_mask_panics() {
        masked_argmax(&[1.0, 2.0], Some(&[false, false]));
    }

    /// `masked_uniform` as it stood when it collected the enabled arms
    /// into a `Vec`, frozen.
    fn masked_uniform_collecting(n: usize, mask: Option<&[bool]>, rng: &mut dyn RngCore) -> usize {
        use rand::Rng;
        let enabled: Vec<usize> = (0..n).filter(|&i| mask.is_none_or(|m| m[i])).collect();
        enabled[rng.gen_range(0..enabled.len())]
    }

    #[test]
    fn uniform_picks_match_the_collecting_form() {
        // Every 6-arm mask with at least one arm enabled, and no mask.
        let mut masks: Vec<Option<Vec<bool>>> = vec![None];
        masks.extend((1u32..64).map(|bits| Some((0..6).map(|i| bits >> i & 1 == 1).collect())));
        for (seed, mask) in masks.iter().enumerate() {
            let mut a = SmallRng::seed_from_u64(seed as u64);
            let mut b = SmallRng::seed_from_u64(seed as u64);
            for draw in 0..200 {
                assert_eq!(
                    masked_uniform(6, mask.as_deref(), &mut a),
                    masked_uniform_collecting(6, mask.as_deref(), &mut b),
                    "mask {mask:?}, draw {draw}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn uniform_empty_mask_panics() {
        masked_uniform(2, Some(&[false, false]), &mut SmallRng::seed_from_u64(1));
    }

    #[test]
    fn uniform_only_picks_enabled() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let pick = masked_uniform(4, Some(&[false, true, false, true]), &mut rng);
            assert!(pick == 1 || pick == 3);
        }
    }

    #[test]
    fn only_sample_mean_policies_report_reward_means() {
        use crate::{EpsilonGreedy, GradientBandit, Ucb};
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(EpsilonGreedy::optimistic(3, 0.1, 1.0)),
            Box::new(Ucb::new(3, 1.0)),
            Box::new(GradientBandit::new(3, 0.1)),
        ];
        for p in policies.iter_mut() {
            p.update(1, 0.25);
            p.update(1, 0.75);
        }
        for p in &policies[..2] {
            assert_eq!(p.reward_means(), Some(p.estimates()));
            assert_eq!(p.reward_means().unwrap()[1], 0.5);
        }
        assert_eq!(policies[2].reward_means(), None);
    }
}
