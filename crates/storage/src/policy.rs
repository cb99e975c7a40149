//! Compression-sequencing policies (§IV-F).
//!
//! The segment-management component decides *which* segments get recoded
//! first when space runs out. AdaEdge defaults to LRU — least recently
//! accessed segments are compressed most aggressively, so query-hot and
//! fresh segments stay accurate. RRDTool-style FIFO and a query-count
//! policy are provided for the ablation benches; all implement the same
//! GET/PUT-notification interface so alternatives slot in easily.

use crate::segment::SegmentId;
use std::collections::HashMap;

/// A policy's sort key for one segment: recoding order is ascending key.
pub type VictimKey = (u64, u64);

/// Notification interface + victim ordering for recoding policies.
pub trait CompressionPolicy: Send {
    /// A segment was inserted (PUT).
    fn on_insert(&mut self, id: SegmentId);

    /// A segment was read by a query (GET).
    fn on_access(&mut self, id: SegmentId);

    /// A segment was recoded in place (treated as a fresh PUT by LRU:
    /// newly compressed segments go to the back of the list).
    fn on_recode(&mut self, id: SegmentId);

    /// A segment was removed.
    fn on_remove(&mut self, id: SegmentId);

    /// Append every segment with its key to `out`, in any order. Keys are
    /// unique, and ascending key is recoding order: least valuable first.
    fn victim_keys(&self, out: &mut Vec<(VictimKey, SegmentId)>);

    /// The key of segment `id` alone, as [`Self::victim_keys`] gives it;
    /// `None` for a segment the policy does not hold. A caller that keeps
    /// an ordered victim list re-keys one entry through this after a
    /// notification instead of collecting every key again. The provided
    /// body collects them all; the policies here look the one key up.
    fn victim_key(&self, id: SegmentId) -> Option<VictimKey> {
        let mut keyed = Vec::new();
        self.victim_keys(&mut keyed);
        keyed
            .into_iter()
            .find(|&(_, k)| k == id)
            .map(|(key, _)| key)
    }

    /// Segments in recoding order: least valuable first.
    fn victim_order(&self) -> Vec<SegmentId> {
        let mut keyed = Vec::new();
        self.victim_keys(&mut keyed);
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// Human-readable policy name.
    fn name(&self) -> &'static str;
}

/// LRU: victims ordered by last touch (insert, access or recode).
#[derive(Debug, Default)]
pub struct LruPolicy {
    seq: u64,
    last_touch: HashMap<SegmentId, u64>,
}

impl LruPolicy {
    /// Create an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, id: SegmentId) {
        self.seq += 1;
        self.last_touch.insert(id, self.seq);
    }
}

impl CompressionPolicy for LruPolicy {
    fn on_insert(&mut self, id: SegmentId) {
        self.touch(id);
    }

    fn on_access(&mut self, id: SegmentId) {
        self.touch(id);
    }

    fn on_recode(&mut self, id: SegmentId) {
        self.touch(id);
    }

    fn on_remove(&mut self, id: SegmentId) {
        self.last_touch.remove(&id);
    }

    fn victim_keys(&self, out: &mut Vec<(VictimKey, SegmentId)>) {
        out.extend(self.last_touch.iter().map(|(&id, &s)| ((s, 0), id)));
    }

    fn victim_key(&self, id: SegmentId) -> Option<VictimKey> {
        self.last_touch.get(&id).map(|&s| (s, 0))
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// FIFO / round-robin (RRDTool-style): victims ordered purely by insertion;
/// queries do not protect segments.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    seq: u64,
    inserted: HashMap<SegmentId, u64>,
}

impl FifoPolicy {
    /// Create an empty FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CompressionPolicy for FifoPolicy {
    fn on_insert(&mut self, id: SegmentId) {
        self.seq += 1;
        self.inserted.entry(id).or_insert(self.seq);
    }

    fn on_access(&mut self, _id: SegmentId) {}

    fn on_recode(&mut self, _id: SegmentId) {}

    fn on_remove(&mut self, id: SegmentId) {
        self.inserted.remove(&id);
    }

    fn victim_keys(&self, out: &mut Vec<(VictimKey, SegmentId)>) {
        out.extend(self.inserted.iter().map(|(&id, &s)| ((s, 0), id)));
    }

    fn victim_key(&self, id: SegmentId) -> Option<VictimKey> {
        self.inserted.get(&id).map(|&s| (s, 0))
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Query-count informativeness: least-queried segments are recoded first,
/// with insertion order breaking ties (an informativeness measure from
/// §IV-B2).
#[derive(Debug, Default)]
pub struct QueryCountPolicy {
    seq: u64,
    stats: HashMap<SegmentId, (u64, u64)>, // (query count, insert seq)
}

impl QueryCountPolicy {
    /// Create an empty query-count policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CompressionPolicy for QueryCountPolicy {
    fn on_insert(&mut self, id: SegmentId) {
        self.seq += 1;
        let seq = self.seq;
        self.stats.entry(id).or_insert((0, seq));
    }

    fn on_access(&mut self, id: SegmentId) {
        if let Some(entry) = self.stats.get_mut(&id) {
            entry.0 += 1;
        }
    }

    fn on_recode(&mut self, _id: SegmentId) {}

    fn on_remove(&mut self, id: SegmentId) {
        self.stats.remove(&id);
    }

    fn victim_keys(&self, out: &mut Vec<(VictimKey, SegmentId)>) {
        out.extend(self.stats.iter().map(|(&id, &s)| (s, id)));
    }

    fn victim_key(&self, id: SegmentId) -> Option<VictimKey> {
        self.stats.get(&id).copied()
    }

    fn name(&self) -> &'static str {
        "query-count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<SegmentId> {
        v.iter().map(|&i| SegmentId(i)).collect()
    }

    #[test]
    fn lru_orders_by_recency() {
        let mut p = LruPolicy::new();
        for i in 0..4 {
            p.on_insert(SegmentId(i));
        }
        assert_eq!(p.victim_order(), ids(&[0, 1, 2, 3]));
        p.on_access(SegmentId(0)); // protect the oldest
        assert_eq!(p.victim_order(), ids(&[1, 2, 3, 0]));
        p.on_recode(SegmentId(1)); // recoded goes to the back
        assert_eq!(p.victim_order(), ids(&[2, 3, 0, 1]));
    }

    #[test]
    fn lru_remove() {
        let mut p = LruPolicy::new();
        p.on_insert(SegmentId(1));
        p.on_insert(SegmentId(2));
        p.on_remove(SegmentId(1));
        assert_eq!(p.victim_order(), ids(&[2]));
    }

    #[test]
    fn fifo_ignores_access() {
        let mut p = FifoPolicy::new();
        for i in 0..3 {
            p.on_insert(SegmentId(i));
        }
        p.on_access(SegmentId(0));
        p.on_access(SegmentId(0));
        assert_eq!(p.victim_order(), ids(&[0, 1, 2]));
    }

    #[test]
    fn query_count_protects_hot_segments() {
        let mut p = QueryCountPolicy::new();
        for i in 0..3 {
            p.on_insert(SegmentId(i));
        }
        p.on_access(SegmentId(0));
        p.on_access(SegmentId(0));
        p.on_access(SegmentId(1));
        assert_eq!(p.victim_order(), ids(&[2, 1, 0]));
    }

    /// A policy that keeps only the bulk `victim_keys`, so `victim_key`
    /// runs the provided body.
    struct BulkOnly(LruPolicy);

    impl CompressionPolicy for BulkOnly {
        fn on_insert(&mut self, id: SegmentId) {
            self.0.on_insert(id);
        }
        fn on_access(&mut self, id: SegmentId) {
            self.0.on_access(id);
        }
        fn on_recode(&mut self, id: SegmentId) {
            self.0.on_recode(id);
        }
        fn on_remove(&mut self, id: SegmentId) {
            self.0.on_remove(id);
        }
        fn victim_keys(&self, out: &mut Vec<(VictimKey, SegmentId)>) {
            self.0.victim_keys(out);
        }
        fn name(&self) -> &'static str {
            "bulk-only"
        }
    }

    #[test]
    fn one_segment_keys_match_the_bulk_keys() {
        let mut policies: Vec<Box<dyn CompressionPolicy>> = vec![
            Box::new(LruPolicy::new()),
            Box::new(FifoPolicy::new()),
            Box::new(QueryCountPolicy::new()),
            Box::new(BulkOnly(LruPolicy::new())),
        ];
        for p in &mut policies {
            for i in 0..6 {
                p.on_insert(SegmentId(i));
            }
            p.on_access(SegmentId(2));
            p.on_access(SegmentId(2));
            p.on_access(SegmentId(4));
            p.on_recode(SegmentId(0));
            p.on_remove(SegmentId(5));
            let mut keyed = Vec::new();
            p.victim_keys(&mut keyed);
            assert_eq!(keyed.len(), 5, "{}", p.name());
            for (key, id) in keyed {
                assert_eq!(p.victim_key(id), Some(key), "{} {id:?}", p.name());
            }
            assert_eq!(p.victim_key(SegmentId(5)), None, "{}", p.name());
        }
    }

    #[test]
    fn reinsert_keeps_original_fifo_slot() {
        let mut p = FifoPolicy::new();
        p.on_insert(SegmentId(7));
        p.on_insert(SegmentId(8));
        p.on_insert(SegmentId(7)); // duplicate insert keeps first seq
        assert_eq!(p.victim_order(), ids(&[7, 8]));
    }
}
