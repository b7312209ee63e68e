//! # dtrain-algos
//!
//! The primary contribution of the reproduced paper, rebuilt in Rust: a
//! unified, fair implementation of seven distributed data-parallel training
//! algorithms —
//!
//! | centralized | decentralized |
//! |---|---|
//! | BSP (synchronous, + local aggregation) | AR-SGD (ring AllReduce) |
//! | ASP (asynchronous)                     | GoSGD (asymmetric gossip) |
//! | SSP (stale-synchronous, threshold *s*) | AD-PSGD (bipartite exchange) |
//! | EASGD (elastic averaging, period *τ*)  | |
//!
//! — plus the three optimization techniques (parameter sharding, wait-free
//! backpropagation, deep gradient compression), all running as deterministic
//! processes over the [`dtrain_desim`] kernel with the [`dtrain_cluster`]
//! network/GPU models. Runs are either *accuracy experiments* (real SGD on a
//! small model, virtual clock from the full-size profile) or *performance
//! experiments* (cost-only, full ResNet-50/VGG-16 profiles).
//!
//! Entry point: build a [`RunConfig`] and call [`run`].

pub mod adaptive;
mod centralized;
mod collective;
mod config;
pub mod cost;
mod decentralized;
mod exec;
mod runner;

pub use adaptive::run_adaptive;
pub use centralized::{
    elastic_update, handle_crash, merge_grad, ps_apply_time, Addr, BspRole, PsCore, PsFaultState,
    PsMode, PsRealState, PS_OWNER_BASE,
};
pub use collective::{collective_engine, run_hier_allreduce, ChunkLayout, EngineCore};
pub use config::{
    Algo, FaultConfig, OptimizationConfig, RealTraining, RunConfig, StopCondition, SyntheticTask,
};
pub use decentralized::{adpsgd_is_active, AllReduceBoard};
pub use exec::{
    build_worker_cores, shard_tensor_indices, slice_set, slice_sparse, unslice_set, GradData, Msg,
    Recorder, Snapshot, WorkerCore, WorkerFaults,
};
pub use runner::{run, run_observed, run_traced, EpochPoint, RunOutput};
