//! Ratio-banded bandit set: one independent MAB instance per target
//! compression-ratio range (§IV-C2).
//!
//! The best lossy codec changes with the target ratio (BUFF-lossy wins at
//! moderate ratios, PAA/FFT at aggressive ones), so a single instance
//! would smear rewards across regimes. Offline mode therefore consults the
//! instance owning the band the current target falls into.

use crate::policy::Policy;
use rand::RngCore;

/// A set of bandit instances keyed by compression-ratio band.
pub struct BandedBandits<P: Policy> {
    /// Band edges, descending, e.g. `[1.0, 0.5, 0.25, 0.125, 0.0625]`.
    /// Band `i` covers `(edges[i+1], edges[i]]`; the last band covers
    /// `(0, edges.last()]`.
    edges: Vec<f64>,
    factory: Box<dyn Fn() -> P + Send>,
    bands: Vec<Option<P>>,
}

impl<P: Policy> std::fmt::Debug for BandedBandits<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandedBandits")
            .field("edges", &self.edges)
            .field(
                "instantiated",
                &self.bands.iter().filter(|b| b.is_some()).count(),
            )
            .finish()
    }
}

/// The default band edges: each band halves the ratio, mirroring the
/// offline recoding cascade that halves segment size per pass (§IV-C2).
pub fn default_band_edges() -> Vec<f64> {
    vec![1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
}

impl<P: Policy> BandedBandits<P> {
    /// Create a banded set. `edges` must be strictly descending and
    /// positive; `factory` builds a fresh policy for a band on first use.
    pub fn new(edges: Vec<f64>, factory: impl Fn() -> P + Send + 'static) -> Self {
        assert!(!edges.is_empty(), "need at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] > w[1]) && *edges.last().expect("non-empty") > 0.0,
            "edges must be strictly descending and positive"
        );
        let n = edges.len();
        let mut bands = Vec::with_capacity(n);
        bands.resize_with(n, || None);
        Self {
            edges,
            factory: Box::new(factory),
            bands,
        }
    }

    /// Which band a target ratio falls into.
    pub fn band_of(&self, ratio: f64) -> usize {
        // Band i covers (edges[i+1], edges[i]]; ratios above edges[0] clamp
        // to band 0 and ratios at or below the last edge to the final band.
        for i in 0..self.edges.len() - 1 {
            if ratio > self.edges[i + 1] {
                return i;
            }
        }
        self.edges.len() - 1
    }

    /// Number of bands.
    pub fn n_bands(&self) -> usize {
        self.edges.len()
    }

    /// How many bands have been instantiated so far.
    pub fn instantiated(&self) -> usize {
        self.bands.iter().filter(|b| b.is_some()).count()
    }

    /// Access (lazily creating) the policy owning `ratio`'s band.
    pub fn policy_for(&mut self, ratio: f64) -> &mut P {
        let band = self.band_of(ratio);
        self.bands[band].get_or_insert_with(|| (self.factory)())
    }

    /// Select an arm for a target ratio.
    pub fn select(&mut self, ratio: f64, mask: Option<&[bool]>, rng: &mut dyn RngCore) -> usize {
        self.policy_for(ratio).select(mask, rng)
    }

    /// Update the band owning `ratio` with an observed reward.
    pub fn update(&mut self, ratio: f64, arm: usize, reward: f64) {
        self.policy_for(ratio).update(arm, reward);
    }

    /// The band's current greedy arm and its estimate, restricted to the
    /// enabled arms in `mask` (all arms when `None`).
    ///
    /// Arms that have actually been pulled are preferred over arms whose
    /// estimate is still the (optimistic) initial value, so callers can use
    /// the result as a trustworthy reference point.
    pub fn greedy(&mut self, ratio: f64, mask: Option<&[bool]>) -> (usize, f64) {
        let policy: &P = self.policy_for(ratio);
        let (est, pulls) = (policy.estimates(), policy.pulls());
        let pick = |require_pulled: bool| -> Option<usize> {
            let mut best: Option<usize> = None;
            for i in 0..est.len() {
                if mask.is_none_or(|m| m[i]) && (!require_pulled || pulls[i] > 0) {
                    match best {
                        None => best = Some(i),
                        Some(b) if est[i] > est[b] => best = Some(i),
                        _ => {}
                    }
                }
            }
            best
        };
        let b = pick(true)
            .or_else(|| pick(false))
            .expect("mask must enable at least one arm");
        (b, est[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egreedy::EpsilonGreedy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn set() -> BandedBandits<EpsilonGreedy> {
        BandedBandits::new(default_band_edges(), || EpsilonGreedy::new(3, 0.1))
    }

    #[test]
    fn band_mapping() {
        let b = set();
        assert_eq!(b.band_of(1.0), 0);
        assert_eq!(b.band_of(0.9), 0);
        assert_eq!(b.band_of(0.5), 1);
        assert_eq!(b.band_of(0.3), 1);
        assert_eq!(b.band_of(0.25), 2);
        assert_eq!(b.band_of(0.13), 2);
        assert_eq!(b.band_of(0.125), 3);
        assert_eq!(b.band_of(0.07), 3);
        assert_eq!(b.band_of(0.01), 5);
    }

    #[test]
    fn bands_learn_independently() {
        let mut b = set();
        let mut rng = SmallRng::seed_from_u64(17);
        // Arm 0 pays in the coarse band; arm 2 pays in the fine band.
        for _ in 0..500 {
            let arm = b.select(0.8, None, &mut rng);
            b.update(0.8, arm, if arm == 0 { 1.0 } else { 0.0 });
            let arm = b.select(0.05, None, &mut rng);
            b.update(0.05, arm, if arm == 2 { 1.0 } else { 0.0 });
        }
        let coarse = b.policy_for(0.8).estimates().to_vec();
        let fine = b.policy_for(0.05).estimates().to_vec();
        assert!(coarse[0] > coarse[2], "{coarse:?}");
        assert!(fine[2] > fine[0], "{fine:?}");
    }

    #[test]
    fn lazy_instantiation() {
        let mut b = set();
        assert_eq!(b.instantiated(), 0);
        b.policy_for(0.5);
        assert_eq!(b.instantiated(), 1);
        b.policy_for(0.4); // same band
        assert_eq!(b.instantiated(), 1);
        b.policy_for(0.01);
        assert_eq!(b.instantiated(), 2);
    }

    #[test]
    #[should_panic(expected = "descending")]
    fn bad_edges_rejected() {
        BandedBandits::new(vec![0.5, 0.5], || EpsilonGreedy::new(2, 0.1));
    }
}
