//! # adaedge-bandit
//!
//! Multi-armed bandit policies backing AdaEdge's compression selection
//! (§III-C, §IV-C): ε-greedy with optimistic initialization and constant
//! step sizes for non-stationary streams, UCB1, a gradient bandit for
//! ablations, plus the ratio-banded bandit set that offline mode uses to
//! keep one instance per compression-ratio range.
//!
//! ```
//! use adaedge_bandit::{EpsilonGreedy, Policy};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut mab = EpsilonGreedy::optimistic(3, 0.1, 1.0);
//! let mut rng = SmallRng::seed_from_u64(1);
//! for _ in 0..500 {
//!     let arm = mab.select(None, &mut rng);
//!     let reward = [0.2, 0.9, 0.4][arm];
//!     mab.update(arm, reward);
//! }
//! // The middle arm pays best, so its estimate dominates.
//! assert!(mab.estimates()[1] > mab.estimates()[0]);
//! assert!(mab.estimates()[1] > mab.estimates()[2]);
//! ```

#![warn(missing_docs)]

pub mod banded;
pub mod egreedy;
pub mod gradient;
pub mod normalize;
pub mod policy;
pub mod ucb;

pub use banded::{default_band_edges, BandedBandits};
pub use egreedy::EpsilonGreedy;
pub use gradient::GradientBandit;
pub use normalize::Normalizer;
pub use policy::{masked_argmax, Policy, StepSize};
pub use ucb::Ucb;
