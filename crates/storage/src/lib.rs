//! # adaedge-storage
//!
//! Segment management for AdaEdge (§IV-F): the byte-accounted segment
//! store with a hard storage budget and recoding threshold, and the
//! pluggable compression-sequencing policies (LRU by default, FIFO and
//! query-count for ablations) that decide which segments get recoded
//! first when space runs out.
//!
//! ```
//! use adaedge_storage::{SegmentStore, SegmentId};
//!
//! let mut store = SegmentStore::with_budget(10_000);
//! let id = store.put_raw(vec![0.5; 100]).unwrap();
//! assert_eq!(store.used_bytes(), 800);
//! assert!(!store.over_threshold(0.8));
//! assert_eq!(store.victim_order(), vec![id]);
//! ```

#![warn(missing_docs)]

pub mod persist;
pub mod policy;
pub mod posterior;
pub mod segment;
pub mod spool;
pub mod store;

pub use persist::{load_segments, save_segments, PersistError};
pub use policy::{CompressionPolicy, FifoPolicy, LruPolicy, QueryCountPolicy, VictimKey};
pub use posterior::{
    load_posteriors, save_posteriors, PosteriorDecoder, PosteriorEncoder, PosteriorRecord,
    StreamPosterior,
};
pub use segment::{Segment, SegmentData, SegmentId};
pub use spool::{ReplayItem, Replayer, Spool, SpoolConfig, SpoolError, SpoolRecord, SpoolStats};
pub use store::{SegmentStore, StoreError};
