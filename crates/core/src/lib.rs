//! # aero-core
//!
//! The AERO anomaly detector from *"From Chaos to Clarity: Time Series
//! Anomaly Detection in Astronomical Observations"* (ICDE 2024):
//!
//! * a **temporal reconstruction module** — a shared-weight Transformer
//!   encoder-decoder applied independently per variate (star), with a long
//!   context window `W` and a short reconstruction window `ω` and an
//!   irregular-interval time embedding;
//! * a **concurrent-noise reconstruction module** — a self-loop-free GCN
//!   whose graph is re-learned *per window* from the first module's
//!   reconstruction errors (window-wise graph structure learning), so that
//!   spatially/temporally random noise can be reconstructed from similarly
//!   affected stars while true anomalies cannot;
//! * **two-stage training** (Algorithm 1) and **online detection** with POT
//!   thresholding (Algorithm 2);
//! * the common [`Detector`] trait and [`run_detection`] pipeline shared
//!   with all baselines, plus Table IV ablation variants and the Fig. 7
//!   memory model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adapter;
pub mod config;
pub mod detector;
pub mod fleet;
pub mod graph_learn;
pub mod memory;
pub mod model;
pub mod online;
pub mod overload;
pub mod persist;
pub mod report;
pub mod serve;
pub mod snapshot;
pub mod supervisor;
pub mod temporal;
pub mod wal;

pub use ablation::AblationVariant;
pub use adapter::{AdapterSet, StarAdapter};
pub use config::{AeroConfig, GraphMode, NoiseFeatures};
pub use detector::{
    run_detection, Detector, DetectorError, DetectorResult, RunOutcome, RunTiming,
};
pub use fleet::{
    FleetConfig, FleetCoordinator, FleetHealth, FleetResume, ShardAssignment, ShardFactory,
    ShardHealth, ShardState, StarCatalog,
};
pub use graph_learn::{window_adjacency, GraphBuilder};
pub use memory::{
    aero_inference_memory, aero_memory, baseline_memory, shared_fleet_memory, star_delta_bytes,
    MemoryEstimate, SharedFleetEstimate,
};
pub use model::{Aero, BackboneSnapshot, ChaosHook, ScoreMode, ShardFailure, StarDelta};
pub use online::{
    DegradePolicy, FrameDisposition, FrameVerdict, HealthReport, OnlineAero, StarStatus,
    StarVerdict,
};
pub use overload::{
    Admission, FallbackScorer, GovernedVerdict, LadderLevel, OverloadCounters, OverloadPolicy,
    PriorityClass, RejectReason, StreamGovernor, TenantCounters, TenantQuota, TenantRollup,
    MAX_TENANT_ID,
};
pub use persist::{load_model, save_model};
pub use report::{
    build_catalog, health_json, render_catalog, render_fleet_health, stream_summary_json,
    to_json, EventCandidate, FrameTotals,
};
pub use serve::{ServeConfig, ServeCore, ServeOptions, ServeReport, ServeState};
pub use snapshot::{DetectorState, GovernorStarState, GovernorState, ShardSnapshot, StarLane};
pub use supervisor::{
    BreakerState, SupervisionError, Supervisor, SupervisorPolicy, SupervisorStats,
};
pub use temporal::TemporalModule;
pub use wal::{
    FsyncPolicy, WalConfig, WalFinding, WalFindingKind, WalFrame, WalIdentity, WalRecovery,
    WalVerifyReport, WalWriter,
};
