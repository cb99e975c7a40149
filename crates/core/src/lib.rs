//! # adaedge-core
//!
//! The AdaEdge framework (ICDE 2024): hardware-conscious, MAB-assisted
//! lossless + lossy compression selection for resource-constrained edge
//! devices.
//!
//! * [`constraints`] — ingestion rate / bandwidth / storage constraints and
//!   the derived target ratio `R = B/(64·I)`.
//! * [`targets`] — single and complex (weighted) optimization targets and
//!   the reward evaluator.
//! * [`selector`] — MAB-backed lossless, lossy and ratio-banded selectors.
//! * [`online`] / [`offline`] — the two operating modes.
//! * [`baselines`] — fixed pairs, CodecDB-like and TVStore-like baselines.
//! * [`query`] — aggregation queries over reconstructed segments.
//! * [`engine`] — the multithreaded ingest/compress runtime.
//! * [`shard`] — the shard runtime the engine and the fleet share, plus
//!   per-shard selector replicas and the delta-sync outcome table.
//! * [`fleet`] — the multi-tenant gateway: thousands of independent
//!   streams multiplexed over the shared sharded workers.
//! * [`frame`] — priority-aware packing of compressed segments into
//!   bounded transport frames.
//! * [`spooling`] — store-and-forward: the `Forwarder` that spools every
//!   block, offers it live, and replays the backlog through the uplink
//!   with ACK-gated GC.
//! * [`uplink`] — fault-tolerant transport: ACK windows, retry/backoff,
//!   circuit breaking, the `Receiver` that admits each sequence exactly
//!   once, the `FaultyLink` chaos transport, and the `LinkPressure`
//!   degradation signal that biases the selectors.
#![warn(missing_docs)]

pub mod baselines;
pub mod constraints;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod frame;
pub mod offline;
pub mod online;
pub mod query;
pub mod selector;
pub mod shard;
pub mod spooling;
pub mod targets;
pub mod uplink;

pub use constraints::{Constraints, NetworkProfile};
pub use error::{AdaEdgeError, Result};
pub use fleet::{run_fleet, FleetConfig, FleetReport, StreamReport, StreamSpec};
pub use frame::{FrameConfig, FrameItem, FramePacker, Priority, TransportFrame};
pub use offline::{IngestReport, OfflineAdaEdge, OfflineConfig, PolicyKind};
pub use online::{OnlineAdaEdge, OnlineConfig, OnlineOutcome, OnlineStats, Path};
pub use query::AggKind;
pub use selector::{
    BandedLossySelector, BanditAlgorithm, LosslessSelector, Selection, SelectorConfig,
    ELEVATED_EXPLORE_SCALE,
};
pub use shard::{resolve_threads, shard_pool_size, ReplicaSelector, SharedOutcomeTable};
pub use spooling::{decode_block, encode_block, Forwarder};
pub use targets::{OptimizationTarget, RewardEvaluator, TargetComponent};
pub use uplink::{
    Ack, Backoff, BackoffConfig, BreakerConfig, BreakerState, CircuitBreaker, FaultSpec,
    FaultyLink, FrameKind, LinkPressure, Phase, PressureGauge, PressureWatermarks, Receiver,
    Transport, Uplink, UplinkConfig, UplinkCounters, UplinkFrame, WireFragment,
};

/// The test builds' global allocator: heap accounting per thread, so a
/// test can measure what one call allocates or leaves on the heap while
/// other tests run on other threads.
#[cfg(test)]
mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Heap bytes live from this thread's allocations (net of frees).
        static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
        /// Allocations (reallocations included) made by this thread.
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Heap bytes this thread's allocations hold now.
    pub(crate) fn live_bytes() -> isize {
        LIVE_BYTES.with(Cell::get)
    }

    /// Allocations this thread has made so far.
    pub(crate) fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    fn track(delta: isize, allocates: bool) {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
        if allocates {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }

    struct PerThread;

    // SAFETY: every call forwards to `System` with the caller's arguments;
    // the counters are thread-local `Cell`s with const initializers, so
    // tracking never allocates or re-enters the allocator.
    unsafe impl GlobalAlloc for PerThread {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            track(layout.size() as isize, true);
            // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
            // contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            track(-(layout.size() as isize), false);
            // SAFETY: `ptr` came from this allocator, i.e. from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            track(layout.size() as isize, true);
            // SAFETY: forwarded unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            track(new_size as isize - layout.size() as isize, true);
            // SAFETY: forwarded unchanged; `ptr` came from `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: PerThread = PerThread;
}
