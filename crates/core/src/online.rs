//! Online mode (§IV-B1, §IV-C1): a continuously connected edge hub that
//! must fit the compressed stream through a bandwidth-constrained link.
//!
//! The target ratio `R = B/(64·I)` follows from the constraints. Lossless
//! selection (size-rewarded MAB) runs first; once it becomes apparent that
//! no lossless arm reaches `R`, a dedicated lossy MAB is spawned whose
//! reward is the workload target, with every lossy arm tuned to `R`.

use crate::constraints::Constraints;
use crate::error::{AdaEdgeError, Result};
use crate::selector::{LosslessSelector, LossySelector, Selection, SelectorConfig};
use crate::targets::{OptimizationTarget, RewardEvaluator};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_ml::Model;

/// Which path produced a segment's block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// A lossless arm met the target ratio.
    Lossless,
    /// Lossy selection was required.
    Lossy,
}

/// Online pipeline configuration.
pub struct OnlineConfig {
    /// System constraints; must include a bandwidth (use
    /// [`Constraints::online`]).
    pub constraints: Constraints,
    /// Lossless candidate arms.
    pub lossless_arms: Vec<CodecId>,
    /// Lossy candidate arms.
    pub lossy_arms: Vec<CodecId>,
    /// MAB hyper-parameters (paper: ε = 0.01 online).
    pub selector: SelectorConfig,
    /// The workload target optimized when lossy compression is needed.
    pub target: OptimizationTarget,
    /// Frozen model for ML targets.
    pub model: Option<Model>,
    /// Dataset instance length (rows cut from segments for ML scoring).
    pub instance_len: usize,
    /// Dataset decimal precision (configures quantizing codecs).
    pub precision: u8,
}

impl OnlineConfig {
    /// Reasonable defaults around the given constraints and target.
    pub fn new(constraints: Constraints, target: OptimizationTarget) -> Self {
        Self {
            constraints,
            lossless_arms: CodecRegistry::lossless_candidates(),
            lossy_arms: CodecRegistry::lossy_candidates(),
            selector: SelectorConfig::online(),
            target,
            model: None,
            instance_len: 0,
            precision: 4,
        }
    }
}

/// Per-segment outcome.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The selection (codec, block, timing, reward).
    pub selection: Selection,
    /// Lossless or lossy path.
    pub path: Path,
}

/// Running totals for the online pipeline.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    /// Segments processed.
    pub segments: u64,
    /// Segments shipped lossless.
    pub lossless_segments: u64,
    /// Segments shipped lossy.
    pub lossy_segments: u64,
    /// Raw bytes ingested.
    pub bytes_in: u64,
    /// Compressed bytes egressed.
    pub bytes_out: u64,
}

/// The online AdaEdge pipeline.
pub struct OnlineAdaEdge {
    reg: CodecRegistry,
    target_ratio: f64,
    lossless: LosslessSelector,
    /// Reused compression arena for the lossless selector.
    scratch: CodecScratch,
    /// The dedicated lossy MAB instance of §IV-C1. Constructed up front but
    /// left untouched until lossless selection proves inadequate.
    lossy: LossySelector,
    /// Consecutive lossless misses before the pipeline commits to lossy.
    lossless_miss_budget: u32,
    misses: u32,
    committed_lossy: bool,
    stats: OnlineStats,
}

impl std::fmt::Debug for OnlineAdaEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineAdaEdge")
            .field("target_ratio", &self.target_ratio)
            .field("committed_lossy", &self.committed_lossy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl OnlineAdaEdge {
    /// Build the pipeline. Fails when the constraints carry no bandwidth.
    pub fn new(config: OnlineConfig) -> Result<Self> {
        let target_ratio = config
            .constraints
            .target_ratio()
            .ok_or(AdaEdgeError::Config("online mode requires a bandwidth"))?;
        let miss_budget = (config.lossless_arms.len() as u32) * 2;
        let evaluator = RewardEvaluator::new(config.target, config.model, config.instance_len);
        Ok(Self {
            reg: CodecRegistry::new(config.precision),
            target_ratio,
            lossless: LosslessSelector::new(config.lossless_arms, config.selector),
            scratch: CodecScratch::new(),
            lossy: LossySelector::new(config.lossy_arms, config.selector, evaluator),
            lossless_miss_budget: miss_budget,
            misses: 0,
            committed_lossy: false,
            stats: OnlineStats::default(),
        })
    }

    /// The derived target compression ratio `R`.
    pub fn target_ratio(&self) -> f64 {
        self.target_ratio
    }

    /// Whether the pipeline has committed to the lossy path.
    pub fn is_lossy_mode(&self) -> bool {
        self.committed_lossy
    }

    /// Running statistics.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// The codec registry in use.
    pub fn registry(&self) -> &CodecRegistry {
        &self.reg
    }

    /// Process one ingested segment, producing the block that would be
    /// shipped over the link.
    pub fn process_segment(&mut self, data: &[f64]) -> Result<OnlineOutcome> {
        self.stats.segments += 1;
        self.stats.bytes_in += (data.len() * 8) as u64;
        if !self.committed_lossy {
            let sel = self.lossless.compress(&self.reg, data, &mut self.scratch)?;
            if sel.block.ratio() <= self.target_ratio {
                self.misses = 0;
                self.stats.lossless_segments += 1;
                self.stats.bytes_out += sel.block.compressed_bytes() as u64;
                return Ok(OnlineOutcome {
                    selection: sel,
                    path: Path::Lossless,
                });
            }
            // The arm overshot the link budget: it becomes apparent that R
            // is out of lossless reach once every arm has had its chance.
            self.misses += 1;
            if self.misses >= self.lossless_miss_budget {
                self.committed_lossy = true;
            }
        }
        let sel = self
            .lossy
            .compress_to_ratio(&self.reg, data, self.target_ratio)?;
        self.stats.lossy_segments += 1;
        self.stats.bytes_out += sel.block.compressed_bytes() as u64;
        Ok(OnlineOutcome {
            selection: sel,
            path: Path::Lossy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggKind;

    fn smooth(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.01).sin() * 3.0 * 1e4).round() / 1e4)
            .collect()
    }

    fn config(ratio: f64) -> OnlineConfig {
        // I = 1000 pts/s; choose B to produce the wanted ratio.
        let constraints = Constraints::online(1000.0, ratio * 64.0 * 1000.0, 1000);
        OnlineConfig::new(constraints, OptimizationTarget::agg(AggKind::Sum))
    }

    #[test]
    fn generous_ratio_stays_lossless() {
        let mut edge = OnlineAdaEdge::new(config(0.9)).unwrap();
        let data = smooth(1000);
        // Early probes of weak arms (snappy/gorilla on noisy mantissas) may
        // overshoot 0.9 and fall back to lossy for that segment; once the
        // MAB warms up, everything ships lossless.
        for _ in 0..15 {
            edge.process_segment(&data).unwrap();
        }
        assert!(!edge.is_lossy_mode());
        for _ in 0..15 {
            let out = edge.process_segment(&data).unwrap();
            assert_eq!(out.path, Path::Lossless);
            assert!(out.selection.block.ratio() <= 0.9);
        }
    }

    #[test]
    fn harsh_ratio_falls_back_to_lossy() {
        let mut edge = OnlineAdaEdge::new(config(0.05)).unwrap();
        let data = smooth(1000);
        let mut saw_lossy = false;
        for _ in 0..40 {
            let out = edge.process_segment(&data).unwrap();
            if out.path == Path::Lossy {
                saw_lossy = true;
                assert!(out.selection.block.ratio() <= 0.05 + 1e-9);
            }
        }
        assert!(saw_lossy);
        assert!(edge.is_lossy_mode());
        // Once committed, everything goes lossy.
        let out = edge.process_segment(&data).unwrap();
        assert_eq!(out.path, Path::Lossy);
    }

    #[test]
    fn moderate_ratio_uses_best_lossless() {
        // Sprintz reaches ~0.2 on smooth 4-digit data, so R = 0.35 is
        // losslessly feasible and loss stays zero.
        let mut edge = OnlineAdaEdge::new(config(0.35)).unwrap();
        let data = smooth(1000);
        let mut lossless_seen = 0;
        for _ in 0..50 {
            if edge.process_segment(&data).unwrap().path == Path::Lossless {
                lossless_seen += 1;
            }
        }
        assert!(lossless_seen > 30, "lossless {lossless_seen}/50");
        assert!(!edge.is_lossy_mode());
    }

    #[test]
    fn egress_respects_bandwidth_on_average() {
        let mut edge = OnlineAdaEdge::new(config(0.1)).unwrap();
        let data = smooth(1000);
        for _ in 0..30 {
            edge.process_segment(&data).unwrap();
        }
        let stats = edge.stats();
        // Post-commitment, bytes out per segment ≤ R × bytes in (with the
        // warm-up lossless attempts excluded, the totals stay close).
        let overall = stats.bytes_out as f64 / stats.bytes_in as f64;
        assert!(overall < 0.2, "overall egress ratio {overall}");
    }

    #[test]
    fn offline_constraints_rejected() {
        let constraints = Constraints::offline(1000.0, 1 << 20, 1000);
        let err = OnlineAdaEdge::new(OnlineConfig::new(
            constraints,
            OptimizationTarget::agg(AggKind::Sum),
        ))
        .unwrap_err();
        assert!(matches!(err, AdaEdgeError::Config(_)));
    }
}
