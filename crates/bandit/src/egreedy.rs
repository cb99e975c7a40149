//! ε-greedy and optimistic ε-greedy policies — the algorithms AdaEdge's
//! evaluation uses (ε = 0.1 offline, 0.01 online; optimistic initial
//! values push early exploration; constant step 0.5 for data shift).

use crate::policy::{masked_argmax, masked_uniform, Policy, StepSize};
use rand::{Rng, RngCore};

/// ε-greedy with configurable initial estimates and step size.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    epsilon: f64,
    /// Link-pressure damping of ε (1.0 = nominal). Kept separate from
    /// `epsilon` so releasing the pressure restores the configured rate
    /// exactly.
    explore_scale: f64,
    q: Vec<f64>,
    n: Vec<u64>,
    step: StepSize,
    total: u64,
}

impl EpsilonGreedy {
    /// Plain ε-greedy with zero-initialized estimates and sample-average
    /// updates.
    pub fn new(n_arms: usize, epsilon: f64) -> Self {
        Self::with_options(n_arms, epsilon, 0.0, StepSize::SampleAverage)
    }

    /// Optimistic ε-greedy: initial estimates set high so every arm gets
    /// tried early even under a greedy rule (§III-C).
    pub fn optimistic(n_arms: usize, epsilon: f64, initial: f64) -> Self {
        Self::with_options(n_arms, epsilon, initial, StepSize::SampleAverage)
    }

    /// Fully configurable constructor.
    pub fn with_options(n_arms: usize, epsilon: f64, initial: f64, step: StepSize) -> Self {
        assert!(n_arms > 0, "need at least one arm");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon in [0,1]");
        if let StepSize::Constant(a) = step {
            assert!(a > 0.0 && a <= 1.0, "step alpha in (0,1]");
        }
        Self {
            epsilon,
            explore_scale: 1.0,
            q: vec![initial; n_arms],
            n: vec![0; n_arms],
            step,
            total: 0,
        }
    }

    /// The exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Policy for EpsilonGreedy {
    fn n_arms(&self) -> usize {
        self.q.len()
    }

    fn select(&mut self, mask: Option<&[bool]>, rng: &mut dyn RngCore) -> usize {
        // The explore draw happens whenever ε > 0, scaled or not, so a
        // scale of exactly 1.0 is bit-identical (same RNG draw count) to
        // never having scaled.
        if self.epsilon > 0.0 && rng.gen::<f64>() < self.epsilon * self.explore_scale {
            masked_uniform(self.q.len(), mask, rng)
        } else {
            masked_argmax(&self.q, mask)
        }
    }

    fn set_exploration_scale(&mut self, scale: f64) {
        assert!((0.0..=1.0).contains(&scale), "scale in [0,1]");
        self.explore_scale = scale;
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.n[arm] += 1;
        self.total += 1;
        match self.step {
            StepSize::SampleAverage => {
                self.q[arm] += (reward - self.q[arm]) / self.n[arm] as f64;
            }
            StepSize::Constant(alpha) => {
                self.q[arm] += alpha * (reward - self.q[arm]);
            }
        }
    }

    fn fold(&mut self, arm: usize, pulls: u64, reward_sum: f64) {
        if pulls == 0 {
            return;
        }
        let k = pulls as f64;
        let n0 = self.n[arm];
        self.n[arm] += pulls;
        self.total += pulls;
        match self.step {
            StepSize::SampleAverage => {
                // Exact: the sample average depends only on sum and count.
                // An untouched arm's optimistic initial estimate is *not* a
                // reward sum, so the first fold replaces it outright —
                // matching the incremental rule, whose first update sets
                // `q = r` regardless of the initial value.
                self.q[arm] = if n0 == 0 {
                    reward_sum / k
                } else {
                    (self.q[arm] * n0 as f64 + reward_sum) / (n0 as f64 + k)
                };
            }
            StepSize::Constant(alpha) => {
                // Closed form of k updates at the mean reward:
                // Q' = (1-α)^k Q + (1 − (1-α)^k) r̄.
                let keep = (1.0 - alpha).powf(k);
                self.q[arm] = keep * self.q[arm] + (1.0 - keep) * (reward_sum / k);
            }
        }
    }

    fn restore(&mut self, arm: usize, pulls: u64, estimate: f64) {
        // ε-greedy state *is* (pulls, estimate), so a persisted posterior
        // restores bit exactly by overwriting — no reward replay, no
        // rounding through a reconstructed sum.
        self.total = self.total - self.n[arm] + pulls;
        self.n[arm] = pulls;
        self.q[arm] = estimate;
    }

    fn estimates(&self) -> &[f64] {
        &self.q
    }

    fn reward_means(&self) -> Option<&[f64]> {
        Some(&self.q)
    }

    fn total_pulls(&self) -> u64 {
        self.total
    }

    fn pulls(&self) -> &[u64] {
        &self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A 3-arm Bernoulli-ish bandit with known means.
    fn run(policy: &mut dyn Policy, means: &[f64], steps: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pulls = vec![0u64; means.len()];
        for _ in 0..steps {
            let arm = policy.select(None, &mut rng);
            pulls[arm] += 1;
            // Noisy reward around the mean.
            let noise: f64 = rng.gen::<f64>() * 0.1 - 0.05;
            policy.update(arm, means[arm] + noise);
        }
        pulls
    }

    #[test]
    fn converges_to_best_arm() {
        let mut p = EpsilonGreedy::new(3, 0.1);
        let pulls = run(&mut p, &[0.2, 0.8, 0.5], 2000, 42);
        assert!(pulls[1] > 1500, "best arm pulled {} times", pulls[1]);
        let est = p.estimates();
        assert!((est[1] - 0.8).abs() < 0.05);
    }

    #[test]
    fn optimistic_init_explores_all_arms_greedily() {
        // Pure greedy (ε=0) with optimistic init still tries every arm.
        let mut p = EpsilonGreedy::optimistic(5, 0.0, 10.0);
        let pulls = run(&mut p, &[0.1, 0.2, 0.3, 0.4, 0.9], 500, 7);
        assert!(pulls.iter().all(|&c| c > 0), "pulls {pulls:?}");
        assert!(pulls[4] > 400);
    }

    #[test]
    fn zero_init_greedy_can_get_stuck_but_eps_escapes() {
        // ε=0 with zero init exploits the first decent arm; ε=0.2 finds the
        // true best. This is the explore/exploit contrast from §III-C.
        let mut greedy = EpsilonGreedy::new(3, 0.0);
        let g_pulls = run(&mut greedy, &[0.5, 0.9, 0.4], 1000, 3);
        let mut eps = EpsilonGreedy::new(3, 0.2);
        let e_pulls = run(&mut eps, &[0.5, 0.9, 0.4], 1000, 3);
        assert!(e_pulls[1] >= g_pulls[1]);
        assert!(e_pulls[1] > 600, "{e_pulls:?}");
    }

    #[test]
    fn constant_step_tracks_nonstationary_shift() {
        let mut p = EpsilonGreedy::with_options(2, 0.1, 0.0, StepSize::Constant(0.5));
        let mut rng = SmallRng::seed_from_u64(11);
        // Phase 1: arm 0 pays. Phase 2: arm 1 pays.
        for phase in 0..2 {
            for _ in 0..300 {
                let arm = p.select(None, &mut rng);
                let reward = if arm == phase { 1.0 } else { 0.0 };
                p.update(arm, reward);
            }
        }
        // After the shift the estimate for arm 1 dominates quickly.
        assert!(p.estimates()[1] > p.estimates()[0]);
    }

    #[test]
    fn sample_average_adapts_slower_than_constant_step() {
        let drive = |step: StepSize| -> f64 {
            let mut p = EpsilonGreedy::with_options(1, 0.0, 0.0, step);
            // 500 rewards of 0.0, then 50 rewards of 1.0.
            for _ in 0..500 {
                p.update(0, 0.0);
            }
            for _ in 0..50 {
                p.update(0, 1.0);
            }
            p.estimates()[0]
        };
        let avg = drive(StepSize::SampleAverage);
        let fast = drive(StepSize::Constant(0.5));
        assert!(fast > 0.9, "constant step estimate {fast}");
        assert!(avg < 0.2, "sample average estimate {avg}");
    }

    #[test]
    fn fold_matches_sequential_mean_updates_sample_average() {
        // Folding (k pulls, sum S) must equal any sequence of k updates
        // totalling S — sample averages are order-independent.
        let mut seq = EpsilonGreedy::optimistic(2, 0.1, 1.0);
        let mut folded = EpsilonGreedy::optimistic(2, 0.1, 1.0);
        let rewards = [0.3, 0.9, 0.6, 0.0, 0.45];
        for &r in &rewards {
            seq.update(0, r);
        }
        folded.fold(0, rewards.len() as u64, rewards.iter().sum());
        assert!((seq.estimates()[0] - folded.estimates()[0]).abs() < 1e-12);
        assert_eq!(seq.pulls(), folded.pulls());
        assert_eq!(seq.total_pulls(), folded.total_pulls());
        // Untouched arm keeps its optimistic estimate in both.
        assert_eq!(seq.estimates()[1], 1.0);
        assert_eq!(folded.estimates()[1], 1.0);
    }

    #[test]
    fn fold_matches_replayed_mean_constant_step() {
        // The constant-step closed form must equal k literal updates at
        // the mean reward (the documented mean-field semantics).
        let mut seq = EpsilonGreedy::with_options(1, 0.0, 0.0, StepSize::Constant(0.5));
        let mut folded = EpsilonGreedy::with_options(1, 0.0, 0.0, StepSize::Constant(0.5));
        seq.update(0, 0.2);
        folded.update(0, 0.2);
        let (k, sum) = (7u64, 7.0 * 0.8);
        for _ in 0..k {
            seq.update(0, 0.8);
        }
        folded.fold(0, k, sum);
        assert!((seq.estimates()[0] - folded.estimates()[0]).abs() < 1e-12);
        assert_eq!(seq.pulls(), folded.pulls());
    }

    #[test]
    fn restore_round_trips_bit_exactly() {
        // Evict/restore cycle: a fresh policy fed a posterior snapshot
        // must be indistinguishable from the original, bit for bit.
        let mut original = EpsilonGreedy::optimistic(3, 0.1, 1.0);
        for (arm, r) in [(0, 0.3), (1, 0.9), (0, 0.6), (2, 0.123456789), (1, 0.4)] {
            original.update(arm, r);
        }
        let mut restored = EpsilonGreedy::optimistic(3, 0.1, 1.0);
        for arm in 0..3 {
            restored.restore(arm, original.pulls()[arm], original.estimates()[arm]);
        }
        assert_eq!(original.estimates(), restored.estimates());
        assert_eq!(original.pulls(), restored.pulls());
        assert_eq!(original.total_pulls(), restored.total_pulls());
        // Further updates evolve identically from the restored state.
        original.update(1, 0.77);
        restored.update(1, 0.77);
        assert_eq!(original.estimates(), restored.estimates());
    }

    #[test]
    fn restore_of_unpulled_arm_keeps_optimistic_init() {
        let mut p = EpsilonGreedy::optimistic(2, 0.1, 1.0);
        p.restore(0, 0, 1.0);
        assert_eq!(p.estimates(), &[1.0, 1.0]);
        assert_eq!(p.pulls(), &[0, 0]);
        assert_eq!(p.total_pulls(), 0);
    }

    #[test]
    fn fold_zero_pulls_is_a_no_op() {
        let mut p = EpsilonGreedy::optimistic(2, 0.1, 1.0);
        p.fold(0, 0, 0.0);
        assert_eq!(p.pulls(), &[0, 0]);
        assert_eq!(p.estimates(), &[1.0, 1.0]);
    }

    #[test]
    fn respects_mask() {
        let mut p = EpsilonGreedy::new(3, 1.0); // always explore
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let arm = p.select(Some(&[false, true, false]), &mut rng);
            assert_eq!(arm, 1);
        }
    }

    #[test]
    fn exploration_scale_damps_and_restores() {
        // Scale 0: never explores (pure argmax). Scale back to 1.0:
        // behaves exactly like a never-scaled twin from the same seed.
        let mut p = EpsilonGreedy::new(3, 1.0);
        p.set_exploration_scale(0.0);
        let mut rng = SmallRng::seed_from_u64(5);
        p.update(2, 0.9);
        for _ in 0..50 {
            assert_eq!(p.select(None, &mut rng), 2, "scale 0 is greedy");
        }
        p.set_exploration_scale(1.0);
        let mut twin = EpsilonGreedy::new(3, 1.0);
        twin.update(2, 0.9);
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            assert_eq!(p.select(None, &mut r1), twin.select(None, &mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_rejected() {
        EpsilonGreedy::new(2, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_rejected() {
        EpsilonGreedy::new(0, 0.1);
    }
}
