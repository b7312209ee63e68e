//! # dtrain-faults
//!
//! Deterministic fault injection for distributed-training experiments,
//! plus the degradation controller and the [`Algo`] enum it switches
//! between, shared by every execution path.

mod algo;
pub mod chaos;
mod checkpoint;
pub mod markers;
mod membership;
mod schedule;

pub use algo::Algo;
pub use chaos::{
    bursty_trace, busy_signals, jitter_trace, merge, run_controlled, straggle_ratio,
    wan_squeeze_trace, AdaptiveReport, ChaosAction, ChaosSpec, ChaosTraceCfg, CtrlAction, CtrlPlan,
    CtrlSignals, DegradePolicy, SegmentedRun,
};
pub use checkpoint::{CheckpointStore, WorkerCheckpoint, MAX_VERSIONS};
pub use membership::{is_connected, ElasticConfig, GangView, MemberState, MembershipView};
pub use schedule::{
    FaultEvent, FaultKind, FaultPlan, FaultSchedule, RecoveryPolicy, RuntimeFaultSchedule,
};
