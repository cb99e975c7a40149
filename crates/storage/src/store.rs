//! The segment store: byte-accounted segment map with a pluggable
//! compression-sequencing policy and an optional hard storage budget.

use crate::policy::{CompressionPolicy, LruPolicy, VictimKey};
use crate::segment::{Segment, SegmentData, SegmentId};
use adaedge_codecs::CompressedBlock;
use std::collections::HashMap;

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The referenced segment does not exist.
    NotFound(SegmentId),
    /// An insert or replace would exceed the hard storage budget.
    BudgetExceeded {
        /// Bytes the operation needed.
        needed: usize,
        /// Bytes actually available under the budget.
        available: usize,
    },
    /// A stored block no longer matches the CRC-32C recorded when it was
    /// written (in-memory bit rot, or a buggy writer scribbled on it).
    ChecksumMismatch(SegmentId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "{id} not found"),
            StoreError::BudgetExceeded { needed, available } => {
                write!(
                    f,
                    "budget exceeded: needed {needed} B, available {available} B"
                )
            }
            StoreError::ChecksumMismatch(id) => {
                write!(f, "{id} failed checksum verification")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Byte-accounted segment store.
///
/// `budget_bytes` is a *hard* limit: operations that would exceed it fail,
/// mirroring the paper's experiment setup where breaching a constraint
/// fails the run. Recoding pressure is signalled earlier through
/// [`SegmentStore::over_threshold`].
pub struct SegmentStore {
    segments: HashMap<SegmentId, Segment>,
    policy: Box<dyn CompressionPolicy>,
    used_bytes: usize,
    budget_bytes: Option<usize>,
    next_id: u64,
    clock: u64,
    /// CRC-32C per compressed segment, recorded at write time. Only
    /// populated when verification is enabled.
    checksums: HashMap<SegmentId, u32>,
    verify_checksums: bool,
    /// Verification failures observed by reads (atomic so `peek(&self)`
    /// can count them too).
    checksum_failures: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("segments", &self.segments.len())
            .field("used_bytes", &self.used_bytes)
            .field("budget_bytes", &self.budget_bytes)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl SegmentStore {
    /// Unbounded store with the default LRU policy.
    pub fn unbounded() -> Self {
        Self::new(None, Box::new(LruPolicy::new()))
    }

    /// Budgeted store with the default LRU policy.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self::new(Some(budget_bytes), Box::new(LruPolicy::new()))
    }

    /// Fully configurable constructor.
    pub fn new(budget_bytes: Option<usize>, policy: Box<dyn CompressionPolicy>) -> Self {
        Self {
            segments: HashMap::new(),
            policy,
            used_bytes: 0,
            budget_bytes,
            next_id: 0,
            clock: 0,
            checksums: HashMap::new(),
            verify_checksums: false,
            checksum_failures: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Enable CRC-32C verification: every compressed block is checksummed
    /// when written and re-verified on [`SegmentStore::peek`] /
    /// [`SegmentStore::get`], so bit rot is caught before a corrupted
    /// payload reaches a decoder. Off by default (reads stay
    /// byte-identical in cost to the unverified store).
    pub fn with_checksum_verification(mut self) -> Self {
        self.verify_checksums = true;
        self
    }

    /// Whether checksum verification is enabled.
    pub fn verifies_checksums(&self) -> bool {
        self.verify_checksums
    }

    /// How many reads failed checksum verification so far.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn record_checksum(&mut self, id: SegmentId, seg_checksum: Option<u32>) {
        if !self.verify_checksums {
            return;
        }
        match seg_checksum {
            Some(crc) => {
                self.checksums.insert(id, crc);
            }
            None => {
                self.checksums.remove(&id);
            }
        }
    }

    /// `true` when the segment's current bytes still match its recorded
    /// checksum (trivially true with verification off, for raw segments,
    /// and for missing segments — those are reported by the caller's
    /// `None`/`NotFound` path instead).
    fn checksum_ok(&self, id: SegmentId) -> bool {
        if !self.verify_checksums {
            return true;
        }
        let (Some(seg), Some(&expected)) = (self.segments.get(&id), self.checksums.get(&id)) else {
            return true;
        };
        match seg.block() {
            Some(block) if block.checksum() != expected => {
                self.checksum_failures
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                false
            }
            _ => true,
        }
    }

    /// Explicitly verify one segment against its recorded checksum.
    pub fn verify(&self, id: SegmentId) -> Result<(), StoreError> {
        if self.segments.contains_key(&id) {
            if self.checksum_ok(id) {
                Ok(())
            } else {
                Err(StoreError::ChecksumMismatch(id))
            }
        } else {
            Err(StoreError::NotFound(id))
        }
    }

    fn check_budget(&self, additional: usize) -> Result<(), StoreError> {
        if let Some(budget) = self.budget_bytes {
            let available = budget.saturating_sub(self.used_bytes);
            if additional > available {
                return Err(StoreError::BudgetExceeded {
                    needed: additional,
                    available,
                });
            }
        }
        Ok(())
    }

    /// Insert a raw segment; returns its id.
    pub fn put_raw(&mut self, points: Vec<f64>) -> Result<SegmentId, StoreError> {
        let bytes = points.len() * adaedge_codecs::POINT_BYTES;
        self.check_budget(bytes)?;
        let id = SegmentId(self.next_id);
        self.next_id += 1;
        self.clock += 1;
        self.segments
            .insert(id, Segment::raw(id, self.clock, points));
        self.used_bytes += bytes;
        self.policy.on_insert(id);
        Ok(id)
    }

    /// Insert a compressed segment; returns its id.
    pub fn put_compressed(&mut self, block: CompressedBlock) -> Result<SegmentId, StoreError> {
        let bytes = block.compressed_bytes();
        self.check_budget(bytes)?;
        let id = SegmentId(self.next_id);
        self.next_id += 1;
        self.clock += 1;
        let crc = self.verify_checksums.then(|| block.checksum());
        self.segments
            .insert(id, Segment::compressed(id, self.clock, block));
        self.used_bytes += bytes;
        self.record_checksum(id, crc);
        self.policy.on_insert(id);
        Ok(id)
    }

    /// Peek a segment without touching the policy (internal reads, e.g. by
    /// the recoding cascade). With verification enabled, a segment whose
    /// bytes fail their checksum reads as `None` (and is counted in
    /// [`SegmentStore::checksum_failures`]) so it never reaches a decoder.
    pub fn peek(&self, id: SegmentId) -> Option<&Segment> {
        if !self.checksum_ok(id) {
            return None;
        }
        self.segments.get(&id)
    }

    /// Read a segment on behalf of a query: records the access so the
    /// policy protects it (GET). Checksum-verified like
    /// [`SegmentStore::peek`].
    pub fn get(&mut self, id: SegmentId) -> Option<&Segment> {
        if !self.checksum_ok(id) {
            return None;
        }
        if self.segments.contains_key(&id) {
            self.policy.on_access(id);
        }
        self.segments.get(&id)
    }

    /// Replace a segment's representation (the recoding step). The new
    /// block must describe the same number of points.
    pub fn replace(&mut self, id: SegmentId, block: CompressedBlock) -> Result<(), StoreError> {
        let seg = self.segments.get_mut(&id).ok_or(StoreError::NotFound(id))?;
        let old_bytes = seg.size_bytes();
        let new_bytes = block.compressed_bytes();
        if new_bytes > old_bytes {
            // Growth must still respect the budget.
            if let Some(budget) = self.budget_bytes {
                let available = budget.saturating_sub(self.used_bytes - old_bytes);
                if new_bytes > available {
                    return Err(StoreError::BudgetExceeded {
                        needed: new_bytes,
                        available,
                    });
                }
            }
        }
        let crc = self.verify_checksums.then(|| block.checksum());
        seg.data = SegmentData::Compressed(block);
        self.used_bytes = self.used_bytes - old_bytes + new_bytes;
        self.record_checksum(id, crc);
        self.policy.on_recode(id);
        Ok(())
    }

    /// Remove a segment entirely.
    pub fn remove(&mut self, id: SegmentId) -> Result<Segment, StoreError> {
        let seg = self.segments.remove(&id).ok_or(StoreError::NotFound(id))?;
        self.used_bytes -= seg.size_bytes();
        self.checksums.remove(&id);
        self.policy.on_remove(id);
        Ok(seg)
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The hard budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Fraction of the budget in use (0.0 when unbounded).
    pub fn utilization(&self) -> f64 {
        match self.budget_bytes {
            Some(b) if b > 0 => self.used_bytes as f64 / b as f64,
            _ => 0.0,
        }
    }

    /// Whether usage has crossed `theta` × budget — the recoding trigger
    /// (§IV-C2; the paper uses θ = 0.8).
    pub fn over_threshold(&self, theta: f64) -> bool {
        match self.budget_bytes {
            Some(b) => self.used_bytes as f64 > theta * b as f64,
            None => false,
        }
    }

    /// Number of stored segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Recoding order from the policy: least valuable first.
    pub fn victim_order(&self) -> Vec<SegmentId> {
        self.policy.victim_order()
    }

    /// The recoding order into `order`, each id after its policy key:
    /// [`SegmentStore::victim_order`] without allocating once `order` has
    /// held as many segments.
    pub fn victim_order_into(&self, order: &mut Vec<(VictimKey, SegmentId)>) {
        order.clear();
        self.policy.victim_keys(order);
        order.sort_unstable();
    }

    /// The policy key of segment `id` alone
    /// ([`CompressionPolicy::victim_key`]): where it now sits in the
    /// recoding order.
    pub fn victim_key(&self, id: SegmentId) -> Option<VictimKey> {
        self.policy.victim_key(id)
    }

    /// Iterate all segments (no policy effect), in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.segments.values()
    }

    /// All ids, ascending (ingestion order).
    pub fn ids(&self) -> Vec<SegmentId> {
        let mut ids: Vec<SegmentId> = self.segments.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The policy's name (for experiment output).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaedge_codecs::CodecId;

    fn block(n: usize, bytes: usize) -> CompressedBlock {
        CompressedBlock::new(CodecId::Paa, n, vec![0u8; bytes])
    }

    #[test]
    fn byte_accounting_tracks_operations() {
        let mut store = SegmentStore::unbounded();
        let a = store.put_raw(vec![0.0; 100]).unwrap(); // 800 B
        let b = store.put_compressed(block(100, 200)).unwrap();
        assert_eq!(store.used_bytes(), 1000);
        store.replace(a, block(100, 400)).unwrap();
        assert_eq!(store.used_bytes(), 600);
        store.remove(b).unwrap();
        assert_eq!(store.used_bytes(), 400);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn budget_is_hard() {
        let mut store = SegmentStore::with_budget(1000);
        store.put_raw(vec![0.0; 100]).unwrap(); // 800 B
        let err = store.put_raw(vec![0.0; 100]).unwrap_err();
        assert!(matches!(err, StoreError::BudgetExceeded { .. }));
        // Small segment still fits.
        store.put_compressed(block(10, 100)).unwrap();
    }

    #[test]
    fn threshold_detection() {
        let mut store = SegmentStore::with_budget(1000);
        store.put_compressed(block(10, 700)).unwrap();
        assert!(!store.over_threshold(0.8));
        store.put_compressed(block(10, 150)).unwrap();
        assert!(store.over_threshold(0.8));
        assert!((store.utilization() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn get_protects_victims_peek_does_not() {
        let mut store = SegmentStore::unbounded();
        let a = store.put_compressed(block(10, 10)).unwrap();
        let b = store.put_compressed(block(10, 10)).unwrap();
        assert_eq!(store.victim_order(), vec![a, b]);
        store.peek(a);
        assert_eq!(store.victim_order(), vec![a, b]);
        store.get(a);
        assert_eq!(store.victim_order(), vec![b, a]);
    }

    #[test]
    fn replace_moves_to_back_of_lru() {
        let mut store = SegmentStore::unbounded();
        let a = store.put_compressed(block(10, 80)).unwrap();
        let b = store.put_compressed(block(10, 80)).unwrap();
        store.replace(a, block(10, 40)).unwrap();
        assert_eq!(store.victim_order(), vec![b, a]);
    }

    #[test]
    fn replace_missing_fails() {
        let mut store = SegmentStore::unbounded();
        assert_eq!(
            store.replace(SegmentId(99), block(1, 1)),
            Err(StoreError::NotFound(SegmentId(99)))
        );
    }

    #[test]
    fn replacement_growth_respects_budget() {
        let mut store = SegmentStore::with_budget(500);
        let a = store.put_compressed(block(10, 400)).unwrap();
        assert!(store.replace(a, block(10, 600)).is_err());
        // Shrinking always works.
        store.replace(a, block(10, 100)).unwrap();
        assert_eq!(store.used_bytes(), 100);
    }

    #[test]
    fn checksum_verification_catches_bit_rot() {
        let mut store = SegmentStore::unbounded().with_checksum_verification();
        assert!(store.verifies_checksums());
        let id = store.put_compressed(block(10, 50)).unwrap();
        assert_eq!(store.verify(id), Ok(()));
        assert!(store.peek(id).is_some());
        // Flip one payload bit behind the store's back (in-memory bit rot).
        if let SegmentData::Compressed(b) = &mut store.segments.get_mut(&id).unwrap().data {
            b.payload[7] ^= 0x10;
        }
        assert_eq!(store.verify(id), Err(StoreError::ChecksumMismatch(id)));
        assert!(store.peek(id).is_none(), "rotted block must not be served");
        assert!(store.get(id).is_none());
        assert!(store.checksum_failures() >= 3);
        assert_eq!(
            store.verify(SegmentId(99)),
            Err(StoreError::NotFound(SegmentId(99)))
        );
    }

    #[test]
    fn replace_refreshes_checksum_and_raw_is_exempt() {
        let mut store = SegmentStore::unbounded().with_checksum_verification();
        let id = store.put_compressed(block(10, 50)).unwrap();
        store.replace(id, block(10, 20)).unwrap();
        assert_eq!(store.verify(id), Ok(()));
        let raw = store.put_raw(vec![1.0; 16]).unwrap();
        assert_eq!(store.verify(raw), Ok(()));
        store.remove(id).unwrap();
        assert!(store.checksums.is_empty() || !store.checksums.contains_key(&id));
    }

    #[test]
    fn verification_is_off_by_default() {
        let mut store = SegmentStore::unbounded();
        assert!(!store.verifies_checksums());
        let id = store.put_compressed(block(10, 50)).unwrap();
        if let SegmentData::Compressed(b) = &mut store.segments.get_mut(&id).unwrap().data {
            b.payload[0] ^= 0xFF;
        }
        // No bookkeeping, no rejection, no counters.
        assert_eq!(store.verify(id), Ok(()));
        assert!(store.peek(id).is_some());
        assert_eq!(store.checksum_failures(), 0);
        assert!(store.checksums.is_empty());
    }

    #[test]
    fn ids_are_monotonic() {
        let mut store = SegmentStore::unbounded();
        let a = store.put_raw(vec![1.0]).unwrap();
        let b = store.put_raw(vec![2.0]).unwrap();
        assert!(b > a);
        assert_eq!(store.ids(), vec![a, b]);
    }
}
