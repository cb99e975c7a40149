//! Upper Confidence Bound (UCB1) policy: exploration driven by the
//! uncertainty bonus `c · sqrt(ln t / n_a)` instead of random ε-moves, so
//! exploration fades as the environment becomes known (§III-C).

use crate::policy::{masked_argmax, Policy};
use rand::RngCore;

/// UCB1 with exploration constant `c`.
#[derive(Debug, Clone)]
pub struct Ucb {
    c: f64,
    /// Link-pressure damping of the confidence bonus (1.0 = nominal).
    explore_scale: f64,
    q: Vec<f64>,
    n: Vec<u64>,
    total: u64,
}

impl Ucb {
    /// Create a UCB policy; `c` scales the confidence bonus (√2 is the
    /// classic choice).
    pub fn new(n_arms: usize, c: f64) -> Self {
        assert!(n_arms > 0, "need at least one arm");
        assert!(c >= 0.0, "c must be non-negative");
        Self {
            c,
            explore_scale: 1.0,
            q: vec![0.0; n_arms],
            n: vec![0; n_arms],
            total: 0,
        }
    }
}

impl Policy for Ucb {
    fn n_arms(&self) -> usize {
        self.q.len()
    }

    fn select(&mut self, mask: Option<&[bool]>, _rng: &mut dyn RngCore) -> usize {
        let enabled = |i: usize| mask.is_none_or(|m| m[i]);
        // Untried enabled arms first.
        for i in 0..self.q.len() {
            if enabled(i) && self.n[i] == 0 {
                return i;
            }
        }
        let t = (self.total.max(1)) as f64;
        let scores: Vec<f64> = (0..self.q.len())
            .map(|i| {
                if self.n[i] == 0 {
                    f64::NEG_INFINITY // unreachable: handled above when enabled
                } else {
                    self.q[i] + self.c * self.explore_scale * (t.ln() / self.n[i] as f64).sqrt()
                }
            })
            .collect();
        masked_argmax(&scores, mask)
    }

    fn set_exploration_scale(&mut self, scale: f64) {
        assert!((0.0..=1.0).contains(&scale), "scale in [0,1]");
        self.explore_scale = scale;
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.n[arm] += 1;
        self.total += 1;
        self.q[arm] += (reward - self.q[arm]) / self.n[arm] as f64;
    }

    fn fold(&mut self, arm: usize, pulls: u64, reward_sum: f64) {
        // UCB keeps sample-average estimates, so the fold is exact.
        if pulls == 0 {
            return;
        }
        let n0 = self.n[arm];
        self.n[arm] += pulls;
        self.total += pulls;
        self.q[arm] = if n0 == 0 {
            reward_sum / pulls as f64
        } else {
            (self.q[arm] * n0 as f64 + reward_sum) / (n0 + pulls) as f64
        };
    }

    fn restore(&mut self, arm: usize, pulls: u64, estimate: f64) {
        // UCB state is (pulls, estimate) plus the total the confidence
        // bonus divides by; all three restore exactly by overwrite.
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
    use rand::{Rng, SeedableRng};

    #[test]
    fn tries_every_arm_once_first() {
        let mut p = Ucb::new(4, 2.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let arm = p.select(None, &mut rng);
            seen.insert(arm);
            p.update(arm, 0.5);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn converges_to_best_arm() {
        let mut p = Ucb::new(3, 1.0);
        let mut rng = SmallRng::seed_from_u64(9);
        let means = [0.3, 0.9, 0.5];
        let mut pulls = [0u64; 3];
        for _ in 0..3000 {
            let arm = p.select(None, &mut rng);
            pulls[arm] += 1;
            let noise: f64 = rng.gen::<f64>() * 0.1 - 0.05;
            p.update(arm, means[arm] + noise);
        }
        assert!(pulls[1] > 2500, "pulls {pulls:?}");
    }

    #[test]
    fn exploration_fades_over_time() {
        // The share of suboptimal pulls in the second half should be lower
        // than in the first half.
        let mut p = Ucb::new(2, 2.0);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut subopt = [0u64; 2]; // [first half, second half]
        for t in 0..2000 {
            let arm = p.select(None, &mut rng);
            if arm == 0 {
                subopt[(t >= 1000) as usize] += 1;
            }
            let r = if arm == 1 { 1.0 } else { 0.4 };
            p.update(arm, r);
        }
        assert!(subopt[1] <= subopt[0], "{subopt:?}");
    }

    #[test]
    fn respects_mask() {
        let mut p = Ucb::new(3, 2.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..20 {
            let arm = p.select(Some(&[true, false, true]), &mut rng);
            assert_ne!(arm, 1);
            p.update(arm, 0.1);
        }
    }

    #[test]
    fn exploration_scale_zero_collapses_to_greedy() {
        let mut p = Ucb::new(2, 5.0);
        let mut rng = SmallRng::seed_from_u64(4);
        // Arm 1 has the better estimate but far fewer pulls: the full
        // bonus would pick arm 0; scale 0 must go straight to arm 1.
        p.restore(0, 500, 0.4);
        p.restore(1, 5, 0.6);
        p.set_exploration_scale(0.0);
        assert_eq!(p.select(None, &mut rng), 1);
        p.set_exploration_scale(1.0);
        assert_eq!(p.select(None, &mut rng), 1, "5 pulls carry a big bonus");
        p.restore(1, 5000, 0.6);
        assert_eq!(p.select(None, &mut rng), 0, "restored bonus favors 0");
    }

    #[test]
    fn zero_c_is_pure_greedy_after_warmup() {
        let mut p = Ucb::new(2, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        p.update(0, 0.9);
        p.update(1, 0.1);
        for _ in 0..10 {
            assert_eq!(p.select(None, &mut rng), 0);
            p.update(0, 0.9);
        }
    }
}
