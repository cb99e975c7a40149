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
//! * [`engine`] — the multithreaded ingest/compress/recode runtime.
//! * [`shard`] — the shard runtime the engines and the fleet share, plus
//!   per-shard selector replicas and the delta-sync outcome table.
//! * [`fleet`] — the multi-tenant gateway: thousands of independent
//!   streams multiplexed over the shared sharded workers.
//! * [`frame`] — priority-aware packing of compressed segments into
//!   bounded transport frames.
//! * [`spooling`] — store-and-forward: durable spool sink for disconnect
//!   egress and ACK-gated reconnect replay through the frame packer.
//! * [`uplink`] — fault-tolerant transport: ACK windows, retry/backoff,
//!   circuit breaking, the `FaultyLink` chaos transport, and the
//!   `LinkPressure` degradation signal that biases the selectors.
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
pub use spooling::{
    decode_block, encode_block, run_reconnect, spool_offline_egress, IngestLedger, RelayError,
    ReplayConfig, ReplayReport, SpoolSink,
};
pub use targets::{OptimizationTarget, RewardEvaluator, TargetComponent};
pub use uplink::{
    run_session, Ack, Backoff, BackoffConfig, BreakerConfig, BreakerState, CircuitBreaker,
    FaultSpec, FaultyLink, FrameKind, LinkPressure, Phase, PressureGauge, PressureWatermarks,
    Receiver, SessionReport, Transport, Uplink, UplinkConfig, UplinkCounters, UplinkFrame,
    WireFragment,
};
