//! Piecewise Linear Approximation (Shatkay & Zdonik, ICDE 1996).
//!
//! The segment is represented by a subset of *knots* — (index, value)
//! pairs — reconstructed by linear interpolation. Knots are chosen by
//! greedy Douglas–Peucker refinement: repeatedly split the interval whose
//! maximum deviation from its chord is largest. Because the point of
//! maximum deviation is usually a local extremum, PLA preserves peaks —
//! the property that makes it the winner for MAX queries in the paper's
//! Figure 9.
//!
//! Recoding drops knots by smallest-triangle-area (Visvalingam–Whyatt),
//! operating purely on the stored knots (§IV-E virtual decompression).
//!
//! Payload: sequence of `(index: u32, value: f32)` pairs, ascending index.

use crate::block::{CodecId, CompressedBlock, CompressedBlockRef, POINT_BYTES};
use crate::error::{CodecError, Result};
use crate::scratch::CodecScratch;
use crate::traits::{budget_bytes, check_lossy_args, Codec, CodecKind, LossyCodec};
use std::collections::BinaryHeap;

const KNOT_BYTES: usize = 8;

/// PLA codec. Stateless.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pla;

fn knots_for(n: usize, ratio: f64) -> usize {
    (budget_bytes(n, ratio) / KNOT_BYTES).min(n)
}

fn encode_knots(n: usize, knots: &[(u32, f32)]) -> CompressedBlock {
    let mut payload = Vec::with_capacity(knots.len() * KNOT_BYTES);
    for &(idx, val) in knots {
        payload.extend_from_slice(&idx.to_le_bytes());
        payload.extend_from_slice(&val.to_le_bytes());
    }
    CompressedBlock::new(CodecId::Pla, n, payload)
}

/// The knots of a payload of `(index: u32, value: f32)` pairs, PLA's and
/// LTTB's layout, read straight off it. The payload is checked first: a
/// non-empty whole number of pairs (else `Corrupt(size_error)`) whose
/// indices ascend below the block's length (else `Corrupt(order_error)`).
pub(crate) fn read_knots<'a>(
    block: &'a CompressedBlock,
    size_error: &'static str,
    order_error: &'static str,
) -> Result<impl ExactSizeIterator<Item = (u32, f32)> + 'a> {
    if block.payload.is_empty() || !block.payload.len().is_multiple_of(KNOT_BYTES) {
        return Err(CodecError::Corrupt(size_error));
    }
    let knots = block.payload.chunks_exact(KNOT_BYTES).map(|c| {
        let idx = u32::from_le_bytes(c[..4].try_into().expect("4 bytes"));
        let val = f32::from_le_bytes(c[4..].try_into().expect("4 bytes"));
        (idx, val)
    });
    let mut prev: Option<u32> = None;
    for (idx, _) in knots.clone() {
        if idx >= block.n_points || prev.is_some_and(|p| idx <= p) {
            return Err(CodecError::Corrupt(order_error));
        }
        prev = Some(idx);
    }
    Ok(knots)
}

pub(crate) fn decode_knots(block: &CompressedBlock) -> Result<Vec<(u32, f32)>> {
    Ok(read_knots(block, "pla payload size", "pla knot index out of order")?.collect())
}

/// Perpendicular-free deviation: vertical distance of `data[i]` from the
/// chord between knots `a` and `b` (indices into the original segment).
fn chord_dev(data: &[f64], a: usize, b: usize, i: usize) -> f64 {
    let t = (i - a) as f64 / (b - a) as f64;
    let interp = data[a] + (data[b] - data[a]) * t;
    (data[i] - interp).abs()
}

/// Find the point of maximum deviation strictly inside `(a, b)`.
fn max_dev(data: &[f64], a: usize, b: usize) -> Option<(usize, f64)> {
    if b <= a + 1 {
        return None;
    }
    let mut best = (a + 1, 0.0f64);
    for i in a + 1..b {
        let d = chord_dev(data, a, b, i);
        if d > best.1 {
            best = (i, d);
        }
    }
    Some(best)
}

/// Greedy Douglas–Peucker refinement to at most `m` knots (m >= 2).
fn select_knots(data: &[f64], m: usize) -> Vec<(u32, f32)> {
    let n = data.len();
    if n == 1 || m <= 1 {
        return vec![(0, data[0] as f32)];
    }
    #[derive(PartialEq)]
    struct Interval {
        err: f64,
        a: usize,
        b: usize,
        split: usize,
    }
    impl Eq for Interval {}
    impl Ord for Interval {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.err
                .partial_cmp(&other.err)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.a.cmp(&other.a))
        }
    }
    impl PartialOrd for Interval {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut knots: Vec<usize> = vec![0, n - 1];
    let mut heap = BinaryHeap::new();
    if let Some((split, err)) = max_dev(data, 0, n - 1) {
        heap.push(Interval {
            err,
            a: 0,
            b: n - 1,
            split,
        });
    }
    while knots.len() < m {
        let Some(iv) = heap.pop() else { break };
        if iv.err <= 1e-12 {
            break; // Linear to rounding noise; extra knots are wasted bytes.
        }
        knots.push(iv.split);
        for (a, b) in [(iv.a, iv.split), (iv.split, iv.b)] {
            if let Some((split, err)) = max_dev(data, a, b) {
                heap.push(Interval { err, a, b, split });
            }
        }
    }
    knots.sort_unstable();
    knots
        .into_iter()
        .map(|i| (i as u32, data[i] as f32))
        .collect()
}

/// Douglas–Peucker refinement until the maximum chord deviation is at most
/// `eps` (no knot budget).
fn select_knots_until(data: &[f64], eps: f64) -> Vec<(u32, f32)> {
    // Reuse the budgeted refinement with an unreachable budget, stopping on
    // the error criterion instead: re-implemented here because the stop
    // condition differs.
    let n = data.len();
    if n == 1 {
        return vec![(0, data[0] as f32)];
    }
    let mut knots: Vec<usize> = vec![0, n - 1];
    let mut stack: Vec<(usize, usize)> = vec![(0, n - 1)];
    while let Some((a, b)) = stack.pop() {
        if let Some((split, err)) = max_dev(data, a, b) {
            // f32 storage adds rounding of its own; leave headroom.
            if err > eps * 0.5 {
                knots.push(split);
                stack.push((a, split));
                stack.push((split, b));
            }
        }
    }
    knots.sort_unstable();
    knots.dedup();
    knots
        .into_iter()
        .map(|i| (i as u32, data[i] as f32))
        .collect()
}

/// Drop knots to at most `m` by repeatedly removing the knot whose triangle
/// with its neighbours has the smallest area (endpoints are never dropped).
fn thin_knots(mut knots: Vec<(u32, f32)>, m: usize) -> Vec<(u32, f32)> {
    let area = |p: (u32, f32), q: (u32, f32), r: (u32, f32)| -> f64 {
        let (x1, y1) = (p.0 as f64, p.1 as f64);
        let (x2, y2) = (q.0 as f64, q.1 as f64);
        let (x3, y3) = (r.0 as f64, r.1 as f64);
        ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)).abs() * 0.5
    };
    while knots.len() > m.max(2) {
        let mut min_area = f64::INFINITY;
        let mut min_idx = 1usize;
        for i in 1..knots.len() - 1 {
            let a = area(knots[i - 1], knots[i], knots[i + 1]);
            if a < min_area {
                min_area = a;
                min_idx = i;
            }
        }
        knots.remove(min_idx);
    }
    knots
}

/// Linear interpolation through ascending `knots` into `out`, resized to
/// `n` points, flat before the first knot and after the last. Each span
/// between two knots writes both ends, in knot order, so a knot's own
/// point holds the value the span after it computes there.
pub(crate) fn interpolate_into(
    n: usize,
    mut knots: impl Iterator<Item = (u32, f32)>,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(n, 0.0);
    let Some(first) = knots.next() else {
        return;
    };
    out[..=first.0 as usize].fill(first.1 as f64);
    let mut a = first;
    for b in knots {
        let (a_idx, a_val) = (a.0 as usize, a.1 as f64);
        let (b_idx, b_val) = (b.0 as usize, b.1 as f64);
        for (i, slot) in out[a_idx..=b_idx].iter_mut().enumerate() {
            let t = i as f64 / (b_idx - a_idx) as f64;
            *slot = a_val + (b_val - a_val) * t;
        }
        a = b;
    }
    out[a.0 as usize..].fill(a.1 as f64);
}

impl Codec for Pla {
    fn id(&self) -> CodecId {
        CodecId::Pla
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossy
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        // Natural setting: half the points as knots.
        scratch.out = self.compress_to_ratio(data, 0.5)?.payload;
        Ok(CompressedBlockRef::new(self.id(), data.len(), &scratch.out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        _scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let knots = read_knots(block, "pla payload size", "pla knot index out of order")?;
        interpolate_into(block.n_points as usize, knots, out);
        Ok(())
    }
}

impl LossyCodec for Pla {
    fn compress_to_ratio(&self, data: &[f64], ratio: f64) -> Result<CompressedBlock> {
        check_lossy_args(data.len(), ratio)?;
        let m = knots_for(data.len(), ratio);
        let needed = if data.len() == 1 { 1 } else { 2 };
        if m < needed {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(data.len()),
            });
        }
        Ok(encode_knots(data.len(), &select_knots(data, m)))
    }

    fn min_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let needed = if n == 1 { 1 } else { 2 };
        (needed * KNOT_BYTES) as f64 / (n * POINT_BYTES) as f64
    }

    fn recode(&self, block: &CompressedBlock, ratio: f64) -> Result<CompressedBlock> {
        self.check_block(block)?;
        let n = block.n_points as usize;
        check_lossy_args(n, ratio)?;
        if block.ratio() <= ratio {
            return Err(CodecError::RecodeUnsupported(
                "block already at or below target ratio",
            ));
        }
        let m = knots_for(n, ratio);
        let needed = if n == 1 { 1 } else { 2 };
        if m < needed {
            return Err(CodecError::RatioUnreachable {
                requested: ratio,
                minimum: self.min_ratio(n),
            });
        }
        let knots = decode_knots(block)?;
        Ok(encode_knots(n, &thin_knots(knots, m)))
    }

    fn compress_with_error_bound(
        &self,
        data: &[f64],
        max_abs_error: f64,
    ) -> Result<CompressedBlock> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        if !max_abs_error.is_finite() || max_abs_error <= 0.0 {
            return Err(CodecError::InvalidParameter("error bound must be positive"));
        }
        Ok(encode_knots(
            data.len(),
            &select_knots_until(data, max_abs_error),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.05).sin() * 3.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn perfectly_linear_data_is_exact() {
        let data: Vec<f64> = (0..100).map(|i| 2.0 * i as f64 + 1.0).collect();
        let block = Pla.compress_to_ratio(&data, 0.5).unwrap();
        // Only 2 knots needed for a line.
        assert!(block.compressed_bytes() <= 2 * KNOT_BYTES);
        let back = Pla.decompress(&block).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn hits_target_ratio() {
        let data = sample(1000);
        for target in [0.5, 0.2, 0.1, 0.05, 0.02] {
            let block = Pla.compress_to_ratio(&data, target).unwrap();
            assert!(block.ratio() <= target + 1e-9);
        }
    }

    #[test]
    fn preserves_peaks_well() {
        // A spiky signal: PLA should capture the spike because the spike is
        // the max-deviation point.
        let mut data = vec![0.0; 200];
        data[77] = 50.0;
        let block = Pla.compress_to_ratio(&data, 0.1).unwrap();
        let back = Pla.decompress(&block).unwrap();
        let max_orig = data.iter().cloned().fold(f64::MIN, f64::max);
        let max_back = back.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (max_orig - max_back).abs() / max_orig < 0.01,
            "peak lost: {max_back} vs {max_orig}"
        );
    }

    #[test]
    fn error_shrinks_with_budget() {
        let data = sample(1000);
        let rmse = |r: f64| {
            let b = Pla.compress_to_ratio(&data, r).unwrap();
            let back = Pla.decompress(&b).unwrap();
            (data
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / data.len() as f64)
                .sqrt()
        };
        assert!(rmse(0.3) <= rmse(0.05) + 1e-12);
    }

    #[test]
    fn recode_thins_knots() {
        let data = sample(1000);
        let block = Pla.compress_to_ratio(&data, 0.2).unwrap();
        let recoded = Pla.recode(&block, 0.05).unwrap();
        assert!(recoded.ratio() <= 0.05 + 1e-9);
        let back = Pla.decompress(&recoded).unwrap();
        assert_eq!(back.len(), data.len());
        // Endpoints survive thinning.
        let knots = decode_knots(&recoded).unwrap();
        assert_eq!(knots.first().unwrap().0, 0);
        assert_eq!(knots.last().unwrap().0, 999);
    }

    #[test]
    fn single_point_segment() {
        let block = Pla.compress_to_ratio(&[5.0], 1.0).unwrap();
        let back = Pla.decompress(&block).unwrap();
        assert_eq!(back.len(), 1);
        assert!((back[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn floor_enforced() {
        let data = sample(100);
        assert!(matches!(
            Pla.compress_to_ratio(&data, 0.01),
            Err(CodecError::RatioUnreachable { .. })
        ));
        let floor = Pla.min_ratio(100);
        assert!(Pla.compress_to_ratio(&data, floor).is_ok());
    }

    #[test]
    fn corrupt_knots_rejected() {
        let data = sample(100);
        let block = Pla.compress_to_ratio(&data, 0.5).unwrap();
        let mut bad = block.clone();
        bad.payload.truncate(KNOT_BYTES - 2);
        assert!(Pla.decompress(&bad).is_err());
        // Out-of-range index.
        let mut bad2 = block.clone();
        bad2.payload[..4].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(Pla.decompress(&bad2).is_err());
    }

    #[test]
    fn constant_data_collapses() {
        let data = vec![7.0; 500];
        let block = Pla.compress_to_ratio(&data, 0.5).unwrap();
        assert!(block.compressed_bytes() <= 2 * KNOT_BYTES);
        let back = Pla.decompress(&block).unwrap();
        assert!(back.iter().all(|&v| (v - 7.0).abs() < 1e-6));
    }
}
