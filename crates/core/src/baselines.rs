//! Comparison baselines from the paper's evaluation (§V):
//!
//! * **Fixed codecs / fixed pairs** — a predetermined lossless codec with a
//!   predetermined lossy fallback (`lossless_lossy` in Figures 12–14).
//! * **CodecDB-like** — static data-driven lossless selection: samples the
//!   first segments, commits to the best lossless codec, and *fails* when
//!   the required ratio is out of lossless reach (it has no lossy path).
//! * **TVStore-like** — a single lossy method (PLA) at every level.

use crate::error::{AdaEdgeError, Result};
use crate::selector::Selection;
use adaedge_codecs::{CodecError, CodecId, CodecRegistry, CompressedBlock};
use std::time::Instant;

/// A fixed `lossless_lossy` pair baseline.
#[derive(Debug, Clone, Copy)]
pub struct FixedPair {
    /// The lossless codec used while space allows.
    pub lossless: CodecId,
    /// The lossy codec used when a target ratio is imposed.
    pub lossy: CodecId,
}

impl FixedPair {
    /// Construct a pair; panics if the roles are mismatched.
    pub fn new(lossless: CodecId, lossy: CodecId) -> Self {
        assert!(lossless.is_lossless(), "{lossless} is not lossless");
        assert!(!lossy.is_lossless(), "{lossy} is not lossy");
        Self { lossless, lossy }
    }

    /// Display name in the paper's `lossless_lossy` convention.
    pub fn name(&self) -> String {
        format!(
            "{}_{}",
            self.lossless.name().replace('-', ""),
            self.lossy.name().replace('-', "")
        )
    }

    /// Compress a fresh segment losslessly.
    pub fn compress_lossless(&self, reg: &CodecRegistry, data: &[f64]) -> Result<Selection> {
        let t0 = Instant::now();
        let block = reg.get(self.lossless).compress(data)?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok(Selection {
            codec: self.lossless,
            block,
            seconds,
            reward: 0.0,
        })
    }

    /// Recode an existing block to a tighter ratio: virtual decompression
    /// when the block already uses the pair's lossy codec, otherwise a full
    /// decompress + re-compress (this is where slow decompressors — e.g.
    /// Gorilla in Figure 14 — lose the race).
    pub fn recode(
        &self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        ratio: f64,
    ) -> Result<Selection> {
        let t0 = Instant::now();
        let same_family = block.codec == self.lossy
            || (self.lossy == CodecId::BuffLossy && block.codec == CodecId::Buff);
        let new_block = if same_family {
            reg.recode(block, ratio)?
        } else {
            let decoded = reg.decompress(block)?;
            reg.get_lossy(self.lossy)
                .expect("lossy role checked at construction")
                .compress_to_ratio(&decoded, ratio)?
        };
        let seconds = t0.elapsed().as_secs_f64();
        Ok(Selection {
            codec: self.lossy,
            block: new_block,
            seconds,
            reward: 0.0,
        })
    }
}

/// CodecDB-like baseline: static sample-based lossless selection.
#[derive(Debug)]
pub struct CodecDbBaseline {
    sample_budget: usize,
    observed: Vec<(CodecId, f64)>,
    committed: Option<CodecId>,
    candidates: Vec<CodecId>,
    round: usize,
}

impl CodecDbBaseline {
    /// Create a baseline that probes each candidate `sample_budget` times
    /// before committing to the smallest-output codec.
    pub fn new(candidates: Vec<CodecId>, sample_budget: usize) -> Self {
        assert!(!candidates.is_empty());
        assert!(candidates.iter().all(|c| c.is_lossless()));
        Self {
            sample_budget: sample_budget.max(1),
            observed: Vec::new(),
            committed: None,
            candidates,
            round: 0,
        }
    }

    /// The codec the baseline has committed to, if sampling has finished.
    pub fn committed(&self) -> Option<CodecId> {
        self.committed
    }

    /// Compress one segment. During the sampling phase each candidate is
    /// probed round-robin; afterwards the committed codec is used
    /// unconditionally.
    pub fn compress(&mut self, reg: &CodecRegistry, data: &[f64]) -> Result<Selection> {
        let codec = match self.committed {
            Some(c) => c,
            None => {
                let c = self.candidates[self.round % self.candidates.len()];
                self.round += 1;
                c
            }
        };
        let t0 = Instant::now();
        let block = reg.get(codec).compress(data)?;
        let seconds = t0.elapsed().as_secs_f64();
        if self.committed.is_none() {
            self.observed.push((codec, block.ratio()));
            if self.round >= self.candidates.len() * self.sample_budget {
                // Commit to the candidate with the best mean ratio.
                let mut best = (self.candidates[0], f64::INFINITY);
                for &cand in &self.candidates {
                    let ratios: Vec<f64> = self
                        .observed
                        .iter()
                        .filter(|(c, _)| *c == cand)
                        .map(|&(_, r)| r)
                        .collect();
                    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
                    if mean < best.1 {
                        best = (cand, mean);
                    }
                }
                self.committed = Some(best.0);
            }
        }
        Ok(Selection {
            codec,
            block,
            seconds,
            reward: 0.0,
        })
    }

    /// Compress under a required ratio: CodecDB has no lossy path, so it
    /// fails outright when its (committed or probing) codec overshoots —
    /// the "CodecDB fails" annotations of Figures 7 and 12.
    pub fn compress_for_ratio(
        &mut self,
        reg: &CodecRegistry,
        data: &[f64],
        ratio: f64,
    ) -> Result<Selection> {
        let sel = self.compress(reg, data)?;
        if sel.block.ratio() > ratio {
            return Err(AdaEdgeError::NoFeasibleArm {
                target_ratio: ratio,
            });
        }
        Ok(sel)
    }
}

/// TVStore-like baseline: PLA at every compression level.
#[derive(Debug, Default)]
pub struct TvStoreBaseline;

impl TvStoreBaseline {
    /// Create the baseline.
    pub fn new() -> Self {
        Self
    }

    /// Compress a segment to a target ratio with PLA.
    pub fn compress(&self, reg: &CodecRegistry, data: &[f64], ratio: f64) -> Result<Selection> {
        let pla = reg.get_lossy(CodecId::Pla).expect("PLA is lossy");
        let t0 = Instant::now();
        let block = pla.compress_to_ratio(data, ratio).map_err(|e| match e {
            CodecError::RatioUnreachable { requested, .. } => AdaEdgeError::NoFeasibleArm {
                target_ratio: requested,
            },
            other => AdaEdgeError::Codec(other),
        })?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok(Selection {
            codec: CodecId::Pla,
            block,
            seconds,
            reward: 0.0,
        })
    }

    /// Recode an existing PLA block to a tighter ratio.
    pub fn recode(
        &self,
        reg: &CodecRegistry,
        block: &CompressedBlock,
        ratio: f64,
    ) -> Result<Selection> {
        let t0 = Instant::now();
        let new_block = if block.codec == CodecId::Pla {
            reg.recode(block, ratio)?
        } else {
            let decoded = reg.decompress(block)?;
            reg.get_lossy(CodecId::Pla)
                .expect("PLA is lossy")
                .compress_to_ratio(&decoded, ratio)?
        };
        Ok(Selection {
            codec: CodecId::Pla,
            block: new_block,
            seconds: t0.elapsed().as_secs_f64(),
            reward: 0.0,
        })
    }
}

/// Offline-mode driver for a fixed pair: the same store + threshold +
/// halving cascade as [`crate::offline::OfflineAdaEdge`], but with the
/// pair's codecs hard-wired instead of MABs. This is the `lossless_lossy`
/// baseline family of Figures 12–14 (and, with `Raw`/`Pla`, the
/// TVStore-like cascade).
pub struct FixedPairOffline {
    reg: CodecRegistry,
    pair: FixedPair,
    store: adaedge_storage::SegmentStore,
    threshold: f64,
    recode_factor: f64,
    originals: std::collections::HashMap<adaedge_storage::SegmentId, Vec<f64>>,
    /// Accumulated compute time (compression + recoding), used by the
    /// high-frequency experiment to detect deadline misses.
    pub compute_seconds: f64,
    /// Total recode passes.
    pub total_recodes: u64,
}

impl std::fmt::Debug for FixedPairOffline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedPairOffline")
            .field("pair", &self.pair.name())
            .field("store", &self.store)
            .finish()
    }
}

impl FixedPairOffline {
    /// Create the driver with the paper's defaults (θ = 0.8, halving).
    pub fn new(pair: FixedPair, budget_bytes: usize, precision: u8) -> Self {
        Self {
            reg: CodecRegistry::new(precision),
            pair,
            store: adaedge_storage::SegmentStore::with_budget(budget_bytes),
            threshold: 0.8,
            recode_factor: 0.5,
            originals: std::collections::HashMap::new(),
            compute_seconds: 0.0,
            total_recodes: 0,
        }
    }

    /// The pair's display name.
    pub fn name(&self) -> String {
        self.pair.name()
    }

    /// Read access to the store.
    pub fn store(&self) -> &adaedge_storage::SegmentStore {
        &self.store
    }

    /// The mean ratio the store must reach to fit under the threshold (the
    /// same breadth-first guard as the MAB pipeline, so pair baselines are
    /// not handicapped by depth-first over-compression).
    fn required_mean_ratio(&self) -> f64 {
        let raw_bytes: usize = self
            .store
            .iter()
            .map(|s| s.n_points() * adaedge_codecs::POINT_BYTES)
            .sum();
        if raw_bytes == 0 {
            return 0.0;
        }
        let budget = self.store.budget_bytes().expect("budgeted store") as f64;
        (self.threshold * budget / raw_bytes as f64).min(1.0)
    }

    /// Recode the least-valuable shrinkable victim once; returns freed bytes.
    fn recode_one(&mut self) -> Result<usize> {
        let r_req = self.required_mean_ratio();
        let victims = self.store.victim_order();
        let mut ordered: Vec<_> = victims
            .iter()
            .copied()
            .filter(|&id| {
                self.store
                    .peek(id)
                    .map(|s| s.ratio() > r_req)
                    .unwrap_or(false)
            })
            .collect();
        ordered.extend(victims.iter().copied().filter(|&id| {
            self.store
                .peek(id)
                .map(|s| s.ratio() <= r_req)
                .unwrap_or(false)
        }));
        for id in ordered {
            let Some(seg) = self.store.peek(id) else {
                continue;
            };
            let Some(block) = seg.block() else { continue };
            let old_bytes = block.compressed_bytes();
            let target = (seg.ratio() * self.recode_factor).max(r_req.min(seg.ratio() * 0.9));
            let block = block.clone();
            match self.pair.recode(&self.reg, &block, target) {
                Ok(sel) => {
                    if sel.block.compressed_bytes() >= old_bytes {
                        continue;
                    }
                    self.compute_seconds += sel.seconds;
                    let freed = old_bytes - sel.block.compressed_bytes();
                    self.store.replace(id, sel.block)?;
                    self.total_recodes += 1;
                    return Ok(freed);
                }
                Err(AdaEdgeError::Codec(CodecError::RatioUnreachable { .. }))
                | Err(AdaEdgeError::Codec(CodecError::RecodeUnsupported(_))) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(0)
    }

    /// Ingest one segment through the fixed cascade.
    pub fn ingest(&mut self, data: &[f64]) -> Result<()> {
        let sel = self.pair.compress_lossless(&self.reg, data)?;
        self.compute_seconds += sel.seconds;
        let incoming = sel.block.compressed_bytes();
        let budget = self.store.budget_bytes().expect("budgeted store") as f64;
        loop {
            let projected = (self.store.used_bytes() + incoming) as f64;
            if projected <= self.threshold * budget {
                break;
            }
            if self.recode_one()? == 0 {
                if projected <= budget {
                    break;
                }
                return Err(AdaEdgeError::Store(
                    adaedge_storage::StoreError::BudgetExceeded {
                        needed: incoming,
                        available: (budget as usize).saturating_sub(self.store.used_bytes()),
                    },
                ));
            }
        }
        let id = self.store.put_compressed(sel.block)?;
        self.originals.insert(id, data.to_vec());
        Ok(())
    }

    /// Reconstruct all segments with their originals, ingestion order.
    pub fn reconstruct_all(&self) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
        let mut out = Vec::with_capacity(self.store.len());
        for id in self.store.ids() {
            let seg = self.store.peek(id).expect("listed id exists");
            let rec = match seg.block() {
                Some(block) => self.reg.decompress(block)?,
                None => continue,
            };
            let orig = self.originals.get(&id).expect("original kept").clone();
            out.push((orig, rec));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> CodecRegistry {
        CodecRegistry::new(4)
    }

    fn smooth(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.01).sin() * 3.0 * 1e4).round() / 1e4)
            .collect()
    }

    #[test]
    fn fixed_pair_naming() {
        let p = FixedPair::new(CodecId::Gzip, CodecId::BuffLossy);
        assert_eq!(p.name(), "gzip_bufflossy");
        let p = FixedPair::new(CodecId::Gorilla, CodecId::Fft);
        assert_eq!(p.name(), "gorilla_fft");
    }

    #[test]
    #[should_panic(expected = "not lossless")]
    fn fixed_pair_role_check() {
        FixedPair::new(CodecId::Paa, CodecId::Fft);
    }

    #[test]
    fn fixed_pair_compress_and_recode() {
        let reg = reg();
        let p = FixedPair::new(CodecId::Sprintz, CodecId::Paa);
        let data = smooth(1000);
        let lossless = p.compress_lossless(&reg, &data).unwrap();
        assert_eq!(lossless.codec, CodecId::Sprintz);
        // First recode: sprintz → paa (full path).
        let recoded = p.recode(&reg, &lossless.block, 0.3).unwrap();
        assert_eq!(recoded.codec, CodecId::Paa);
        // Second recode: paa → paa (virtual path).
        let again = p.recode(&reg, &recoded.block, 0.1).unwrap();
        assert!(again.block.ratio() <= 0.1 + 1e-9);
    }

    #[test]
    fn codecdb_commits_to_best_lossless() {
        let reg = reg();
        let mut db = CodecDbBaseline::new(CodecRegistry::lossless_candidates(), 2);
        let data = smooth(1000);
        for _ in 0..CodecRegistry::lossless_candidates().len() * 2 {
            db.compress(&reg, &data).unwrap();
        }
        // Sprintz wins on smooth 4-digit data.
        assert_eq!(db.committed(), Some(CodecId::Sprintz));
    }

    #[test]
    fn codecdb_fails_below_lossless_reach() {
        let reg = reg();
        let mut db = CodecDbBaseline::new(vec![CodecId::Sprintz], 1);
        let data = smooth(1000);
        db.compress(&reg, &data).unwrap(); // commit
        let err = db.compress_for_ratio(&reg, &data, 0.01).unwrap_err();
        assert!(matches!(err, AdaEdgeError::NoFeasibleArm { .. }));
        // But it succeeds within lossless reach.
        assert!(db.compress_for_ratio(&reg, &data, 0.5).is_ok());
    }

    #[test]
    fn fixed_pair_offline_cascade_bounds_space() {
        let pair = FixedPair::new(CodecId::Sprintz, CodecId::Paa);
        let mut driver = FixedPairOffline::new(pair, 20_000, 4);
        for s in 0..40 {
            let data: Vec<f64> = (0..1000)
                .map(|i| (((s * 1000 + i) as f64 * 0.01).sin() * 1e4).round() / 1e4)
                .collect();
            driver.ingest(&data).unwrap();
        }
        assert_eq!(driver.store().len(), 40);
        assert!(driver.total_recodes > 0);
        assert!(driver.store().utilization() <= 1.0 + 1e-9);
        let pairs = driver.reconstruct_all().unwrap();
        assert_eq!(pairs.len(), 40);
        assert!(pairs
            .iter()
            .all(|(o, r)| o.len() == 1000 && r.len() == 1000));
    }

    #[test]
    fn fixed_pair_offline_fails_when_floor_hit() {
        // BUFF-lossy cannot shrink below ≈0.125; a tiny budget must fail.
        let pair = FixedPair::new(CodecId::Buff, CodecId::BuffLossy);
        let mut driver = FixedPairOffline::new(pair, 3_000, 4);
        let mut failed = false;
        for s in 0..40 {
            let data: Vec<f64> = (0..1000)
                .map(|i| (((s * 1000 + i) as f64 * 0.013).sin() * 3e4).round() / 1e4)
                .collect();
            if driver.ingest(&data).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "pair should run out of shrink room");
    }

    #[test]
    fn tvstore_is_pla_everywhere() {
        let reg = reg();
        let tv = TvStoreBaseline::new();
        let data = smooth(1000);
        for ratio in [0.5, 0.2, 0.05] {
            let sel = tv.compress(&reg, &data, ratio).unwrap();
            assert_eq!(sel.codec, CodecId::Pla);
            assert!(sel.block.ratio() <= ratio + 1e-9);
        }
        let sel = tv.compress(&reg, &data, 0.3).unwrap();
        let recoded = tv.recode(&reg, &sel.block, 0.1).unwrap();
        assert!(recoded.block.ratio() <= 0.1 + 1e-9);
    }
}
