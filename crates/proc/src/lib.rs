//! # dtrain-proc
//!
//! The third execution path: data-parallel training with **workers as OS
//! processes**, coordinated over loopback TCP with a versioned
//! length-delimited binary frame protocol. The same seven algorithm
//! bodies as the simulator and the threaded runtime — written once in
//! [`dtrain_runtime::worker_body`] against the `ExecBackend` trait — run
//! here against real sockets and real `SIGKILL`s.
//!
//! | layer | module |
//! |---|---|
//! | frames + payload primitives (CRC-32, seq) | [`codec`] |
//! | RPC message set | [`proto`] |
//! | per-rank dedup / reply-replay machine | [`session`] |
//! | run config + argv encoding | [`config`] |
//! | worker-side `ExecBackend` (reconnect + chaos) | [`backend`] |
//! | coordinator, spawning, failure model | [`coordinator`] |
//!
//! ```no_run
//! use std::time::Duration;
//! use dtrain_proc::{train_proc, ProcConfig};
//!
//! let mut cfg = ProcConfig::default();
//! cfg.plan.workers = 4;
//! cfg.plan.epochs = 2;
//! let report = train_proc(cfg, Duration::from_secs(120)).unwrap();
//! println!("{} accuracy {:.3}", report.strategy, report.final_accuracy);
//! ```
//!
//! The worker binary is `dtrain-proc-worker`; the coordinator spawns it
//! with `--addr <coordinator> --worker <rank> --cfg <packed run config>`.
//! It is discovered next to the current executable, or via the
//! `DTRAIN_PROC_WORKER` env var / `ProcConfig::worker_exe`.

pub mod adaptive;
pub mod backend;
pub mod codec;
pub mod config;
pub mod coordinator;
pub mod proto;
pub mod session;

pub use adaptive::train_proc_adaptive;
pub use backend::{LinkOpts, ProcBackend};
pub use codec::{crc32, CodecError, MAX_PAYLOAD, PROTO_VERSION};
pub use config::{ProcConfig, RejoinSpec, WorkerCfg};
pub use coordinator::{
    train_proc, train_proc_observed, ProcError, ProcReport, ProcRun, WorkerStats,
};
pub use proto::Msg;
pub use session::{Inbound, ResumeDecision, Session};
