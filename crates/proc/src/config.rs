//! Process-path run configuration, its argv encoding for worker
//! processes, and worker-binary discovery.
//!
//! The coordinator and its workers are separate OS processes, so the run
//! configuration crosses an `argv` boundary: [`encode_worker_cfg`] packs
//! the path-agnostic subset (plan + task + model) into one `key=value`
//! string and [`decode_worker_cfg`] restores it in the worker `main`.
//! Floats travel as bit patterns (`to_bits` hex) so both sides construct
//! bit-identical models and schedules — the cross-path pins depend on it.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_cluster::CollectiveSchedule;
use dtrain_data::TeacherTaskConfig;
use dtrain_faults::ChaosSpec;
use dtrain_runtime::{Algo, RunPlan};

/// Millisecond duration from an env var, if set and parseable.
fn env_ms(var: &str) -> Option<Duration> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

/// A scheduled late rejoin: when rank `worker`'s process death is
/// recorded, the coordinator spawns a replacement process for the same
/// rank that re-enters the cohort at `at_round` (pinned, so iteration
/// counts stay deterministic).
#[derive(Clone, Copy, Debug)]
pub struct RejoinSpec {
    pub worker: usize,
    pub at_round: u64,
}

/// Configuration for a process-path training run.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// The path-agnostic slice shared with the threaded runtime.
    pub plan: RunPlan,
    /// The synthetic task both sides rebuild deterministically.
    pub task: TeacherTaskConfig,
    /// MLP hidden layer widths (the model every worker builds).
    pub hidden: Vec<usize>,
    /// Seed for the model's parameter init.
    pub model_seed: u64,
    /// Local iterations between coordinator checkpoint directives
    /// (0 = no periodic checkpoints).
    pub checkpoint_interval: u64,
    /// A BSP round that cannot fill within this window force-closes
    /// partially (the degrade-to-partial-barrier path).
    pub barrier_deadline: Duration,
    /// Worker connect: attempts and base backoff (doubled per retry).
    pub connect_retries: u32,
    pub connect_backoff: Duration,
    /// Socket read timeout on worker connections — a transfer that stalls
    /// longer than this counts as a dead peer.
    pub transfer_deadline: Duration,
    /// Test hook: freeze rank `.0`'s connection handler when its heartbeat
    /// announces round `.1` (before the round executes), so a test can
    /// `SIGKILL` the process at a pinned point.
    pub pause_at: Option<(usize, u64)>,
    /// Scheduled late rejoin after a real process death.
    pub rejoin: Option<RejoinSpec>,
    /// Liveness-poll period: how often the reaper checks children for real
    /// exits and disconnected sessions for expired reconnect windows.
    /// Default 25 ms; `DTRAIN_PROC_HEARTBEAT_MS` overrides.
    pub heartbeat_interval: Duration,
    /// How long a disconnected rank may take to reconnect-with-resume
    /// before it is declared dead and evicted. Must exceed
    /// `heartbeat_interval` (validated at launch). Default 1 s;
    /// `DTRAIN_PROC_RECONNECT_MS` overrides.
    pub reconnect_window: Duration,
    /// Seeded chaos interposer applied on every worker's send path
    /// (inactive by default).
    pub chaos: ChaosSpec,
    /// Confine `chaos` to a single rank (`None` = every rank). Lets a test
    /// sever one link while the rest of the cohort trains on.
    pub chaos_rank: Option<usize>,
    /// Injected straggler: rank `.0` sleeps `.1` extra milliseconds per
    /// iteration (the adaptive-degradation controller's test signal).
    pub straggler: Option<(usize, u64)>,
    /// Override the seed-derived starting weights. Coordinator-side only —
    /// it never crosses the argv boundary; workers adopt it through the
    /// `HelloAck` snapshot they already apply. The adaptive controller
    /// uses this to carry parameters across a mid-run strategy switch.
    pub initial_params: Option<dtrain_nn::ParamSet>,
    /// Worker binary override; default is discovery next to the current
    /// executable (see [`worker_exe`]).
    pub worker_exe: Option<PathBuf>,
}

impl ProcConfig {
    /// Reject configurations whose failure detector cannot work: the
    /// reconnect window must exceed the liveness-poll period, or a
    /// disconnected rank could be swept before it ever had a poll's worth
    /// of time to come back. Also rejects a plan no worker can run
    /// ([`RunPlan::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.reconnect_window <= self.heartbeat_interval {
            return Err(format!(
                "reconnect_window ({:?}) must exceed heartbeat_interval ({:?})",
                self.reconnect_window, self.heartbeat_interval
            ));
        }
        self.plan.validate()
    }
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            plan: RunPlan::default(),
            task: TeacherTaskConfig::default(),
            hidden: vec![64, 32],
            model_seed: 7,
            checkpoint_interval: 10,
            barrier_deadline: Duration::from_millis(1500),
            connect_retries: 8,
            connect_backoff: Duration::from_millis(10),
            transfer_deadline: Duration::from_secs(60),
            pause_at: None,
            rejoin: None,
            heartbeat_interval: env_ms("DTRAIN_PROC_HEARTBEAT_MS")
                .unwrap_or(Duration::from_millis(25)),
            reconnect_window: env_ms("DTRAIN_PROC_RECONNECT_MS")
                .unwrap_or(Duration::from_millis(1000)),
            chaos: ChaosSpec::default(),
            chaos_rank: None,
            straggler: None,
            initial_params: None,
            worker_exe: None,
        }
    }
}

fn algo_str(a: Algo, workers: usize) -> String {
    match a {
        Algo::Bsp => "bsp".into(),
        Algo::Asp => "asp".into(),
        Algo::Ssp { staleness } => format!("ssp:{staleness}"),
        Algo::Easgd { tau, alpha } => format!(
            "easgd:{tau}:{:08x}",
            Algo::easgd_alpha(alpha, workers).to_bits()
        ),
        Algo::GoSgd { p } => format!("gossip:{:016x}", p.to_bits()),
        Algo::AdPsgd => "adpsgd".into(),
        Algo::ArSgd => unreachable!("ProcConfig::validate rejects AR-SGD"),
    }
}

fn parse_algo(s: &str) -> Result<Algo, String> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or("");
    fn hex(part: Option<&str>, s: &str, what: &str) -> Result<u64, String> {
        part.and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| format!("strategy {s}: bad {what}"))
    }
    match head {
        "bsp" => Ok(Algo::Bsp),
        "asp" => Ok(Algo::Asp),
        "adpsgd" => Ok(Algo::AdPsgd),
        "ssp" => {
            let st = parts
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("strategy {s}: bad staleness"))?;
            Ok(Algo::Ssp { staleness: st })
        }
        "easgd" => {
            let tau = parts
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("strategy {s}: bad tau"))?;
            let alpha = f32::from_bits(hex(parts.next(), s, "alpha")? as u32);
            Ok(Algo::Easgd {
                tau,
                alpha: Some(alpha),
            })
        }
        "gossip" => Ok(Algo::GoSgd {
            p: f64::from_bits(hex(parts.next(), s, "p")?),
        }),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// Pack the worker-visible subset of `cfg` into one argv-safe string.
pub fn encode_worker_cfg(cfg: &ProcConfig) -> String {
    let p = &cfg.plan;
    let t = &cfg.task;
    let hidden = cfg
        .hidden
        .iter()
        .map(|h| h.to_string())
        .collect::<Vec<_>>()
        .join("-");
    let mut s = format!(
        "workers={},epochs={},batch={},strategy={},lr={:08x},mom={:08x},wd={:08x},seed={},\
         collective={},gpus={},in={},th={},nc={},ts={},tes={},noise={:08x},tseed={},hidden={},\
         mseed={},rw={}",
        p.workers,
        p.epochs,
        p.batch,
        algo_str(p.strategy, p.workers),
        p.base_lr.to_bits(),
        p.momentum.to_bits(),
        p.weight_decay.to_bits(),
        p.seed,
        p.collective.name(),
        p.gpus_per_machine,
        t.input_dim,
        t.teacher_hidden,
        t.num_classes,
        t.train_size,
        t.test_size,
        t.label_noise.to_bits(),
        t.seed,
        hidden,
        cfg.model_seed,
        cfg.reconnect_window.as_millis(),
    );
    if cfg.chaos.is_active() {
        s.push_str(&format!(",chaos={}", cfg.chaos.encode()));
        if let Some(rank) = cfg.chaos_rank {
            s.push_str(&format!(",chaosr={rank}"));
        }
    }
    if let Some((rank, ms)) = cfg.straggler {
        s.push_str(&format!(",strag={rank}:{ms}"));
    }
    s
}

/// The worker-visible run description, restored from the argv string.
pub struct WorkerCfg {
    pub plan: RunPlan,
    pub task: TeacherTaskConfig,
    pub hidden: Vec<usize>,
    pub model_seed: u64,
    /// Worker-side reconnect budget, mirroring the coordinator's window.
    pub reconnect_window: Duration,
    pub chaos: ChaosSpec,
    /// Rank `chaos` is confined to (`None` = every rank).
    pub chaos_rank: Option<usize>,
    pub straggler: Option<(usize, u64)>,
}

/// Inverse of [`encode_worker_cfg`].
pub fn decode_worker_cfg(s: &str) -> Result<WorkerCfg, String> {
    let mut plan = RunPlan::default();
    let mut task = TeacherTaskConfig::default();
    let mut hidden = Vec::new();
    let mut model_seed = 0u64;
    let mut reconnect_window = Duration::from_millis(1000);
    let mut chaos = ChaosSpec::default();
    let mut chaos_rank = None;
    let mut straggler = None;
    for kv in s.split(',') {
        let (k, v) = kv
            .trim()
            .split_once('=')
            .ok_or_else(|| format!("bad pair '{kv}'"))?;
        let int = || v.parse::<u64>().map_err(|_| format!("bad int for {k}"));
        let bits = || u32::from_str_radix(v, 16).map_err(|_| format!("bad float bits for {k}"));
        match k {
            "workers" => plan.workers = int()? as usize,
            "epochs" => plan.epochs = int()?,
            "batch" => plan.batch = int()? as usize,
            "strategy" => plan.strategy = parse_algo(v)?,
            "lr" => plan.base_lr = f32::from_bits(bits()?),
            "mom" => plan.momentum = f32::from_bits(bits()?),
            "wd" => plan.weight_decay = f32::from_bits(bits()?),
            "seed" => plan.seed = int()?,
            "collective" => {
                plan.collective = CollectiveSchedule::parse(v)
                    .ok_or_else(|| format!("unknown collective '{v}'"))?
            }
            "gpus" => plan.gpus_per_machine = (int()? as usize).max(1),
            "in" => task.input_dim = int()? as usize,
            "th" => task.teacher_hidden = int()? as usize,
            "nc" => task.num_classes = int()? as usize,
            "ts" => task.train_size = int()? as usize,
            "tes" => task.test_size = int()? as usize,
            "noise" => task.label_noise = f32::from_bits(bits()?),
            "tseed" => task.seed = int()?,
            "hidden" => {
                hidden = v
                    .split('-')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.parse::<usize>().map_err(|_| format!("bad hidden '{v}'")))
                    .collect::<Result<Vec<_>, _>>()?
            }
            "mseed" => model_seed = int()?,
            "rw" => reconnect_window = Duration::from_millis(int()?),
            "chaos" => chaos = ChaosSpec::decode(v)?,
            "chaosr" => chaos_rank = Some(v.parse().map_err(|_| format!("bad chaos rank '{v}'"))?),
            "strag" => {
                let (rank, ms) = v
                    .split_once(':')
                    .ok_or_else(|| format!("bad straggler '{v}'"))?;
                straggler = Some((
                    rank.parse()
                        .map_err(|_| format!("bad straggler rank '{v}'"))?,
                    ms.parse().map_err(|_| format!("bad straggler ms '{v}'"))?,
                ));
            }
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    Ok(WorkerCfg {
        plan,
        task,
        hidden,
        model_seed,
        reconnect_window,
        chaos,
        chaos_rank,
        straggler,
    })
}

/// Locate the `dtrain-proc-worker` binary: the explicit override, the
/// `DTRAIN_PROC_WORKER` env var, or discovery next to the current
/// executable (test binaries live in `target/<profile>/deps/`, the worker
/// bin one level up in `target/<profile>/`).
pub fn worker_exe(over: Option<&PathBuf>) -> Result<PathBuf, String> {
    if let Some(p) = over {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("DTRAIN_PROC_WORKER") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = me
        .parent()
        .ok_or_else(|| "current_exe has no parent".to_string())?
        .to_path_buf();
    for _ in 0..2 {
        let candidate = dir.join("dtrain-proc-worker");
        if candidate.is_file() {
            return Ok(candidate);
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => break,
        }
    }
    Err(
        "cannot locate dtrain-proc-worker binary; build it (cargo build -p dtrain-proc) \
         or set DTRAIN_PROC_WORKER / ProcConfig::worker_exe"
            .to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_cfg_round_trips() {
        let mut cfg = ProcConfig::default();
        cfg.plan.strategy = Algo::Easgd {
            tau: 4,
            alpha: Some(0.23),
        };
        cfg.plan.base_lr = 0.0173;
        cfg.plan.collective = CollectiveSchedule::Pipelined;
        cfg.plan.gpus_per_machine = 3;
        cfg.hidden = vec![48, 24, 12];
        cfg.model_seed = 99;
        cfg.task.label_noise = 0.031;
        cfg.reconnect_window = Duration::from_millis(750);
        cfg.chaos = ChaosSpec {
            seed: 9,
            drop_pm: 20,
            corrupt_pm: 5,
            ..ChaosSpec::default()
        };
        cfg.chaos_rank = Some(1);
        cfg.straggler = Some((2, 40));
        let s = encode_worker_cfg(&cfg);
        let back = decode_worker_cfg(&s).expect("decode");
        assert_eq!(back.plan.workers, cfg.plan.workers);
        assert_eq!(back.plan.base_lr.to_bits(), cfg.plan.base_lr.to_bits());
        assert_eq!(
            back.plan.strategy,
            Algo::Easgd {
                tau: 4,
                alpha: Some(0.23)
            }
        );
        assert_eq!(back.plan.collective, CollectiveSchedule::Pipelined);
        assert_eq!(back.plan.gpus_per_machine, 3);
        assert_eq!(back.hidden, cfg.hidden);
        assert_eq!(back.model_seed, 99);
        assert_eq!(
            back.task.label_noise.to_bits(),
            cfg.task.label_noise.to_bits()
        );
        assert_eq!(back.reconnect_window, Duration::from_millis(750));
        assert_eq!(back.chaos.encode(), cfg.chaos.encode());
        assert_eq!(back.chaos_rank, Some(1));
        assert_eq!(back.straggler, Some((2, 40)));
    }

    #[test]
    fn inactive_chaos_stays_off_the_argv() {
        let cfg = ProcConfig::default();
        let s = encode_worker_cfg(&cfg);
        assert!(!s.contains("chaos="), "{s}");
        assert!(!s.contains("strag="), "{s}");
        let back = decode_worker_cfg(&s).expect("decode");
        assert!(!back.chaos.is_active());
        assert_eq!(back.straggler, None);
    }

    #[test]
    fn validate_requires_window_beyond_heartbeat() {
        let mut cfg = ProcConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.reconnect_window = cfg.heartbeat_interval;
        assert!(cfg.validate().is_err());
        cfg.reconnect_window = cfg.heartbeat_interval + Duration::from_millis(1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn all_strategies_round_trip() {
        let workers = 4;
        for (a, back_as) in [
            (Algo::Bsp, Algo::Bsp),
            (Algo::Asp, Algo::Asp),
            (Algo::Ssp { staleness: 3 }, Algo::Ssp { staleness: 3 }),
            (
                Algo::Easgd {
                    tau: 8,
                    alpha: Some(0.125),
                },
                Algo::Easgd {
                    tau: 8,
                    alpha: Some(0.125),
                },
            ),
            // An unset alpha crosses argv as the resolved 0.9/N.
            (
                Algo::Easgd {
                    tau: 8,
                    alpha: None,
                },
                Algo::Easgd {
                    tau: 8,
                    alpha: Some(0.9 / workers as f32),
                },
            ),
            (Algo::GoSgd { p: 0.37 }, Algo::GoSgd { p: 0.37 }),
            (Algo::AdPsgd, Algo::AdPsgd),
        ] {
            let back = parse_algo(&algo_str(a, workers)).expect("parse");
            assert_eq!(back, back_as);
        }
    }

    #[test]
    fn validate_rejects_ar_sgd() {
        // AR-SGD has no worker body and no argv form.
        let mut cfg = ProcConfig::default();
        cfg.plan.strategy = Algo::ArSgd;
        let err = cfg.validate().expect_err("AR-SGD must be rejected");
        assert!(err.contains("AR-SGD"), "{err}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_worker_cfg("workers").is_err());
        assert!(decode_worker_cfg("bogus=1").is_err());
        assert!(decode_worker_cfg("strategy=warp:9").is_err());
        assert!(decode_worker_cfg("lr=nothex").is_err());
        assert!(decode_worker_cfg("collective=diagonal").is_err());
        assert!(decode_worker_cfg("chaos=1:2").is_err());
        assert!(decode_worker_cfg("strag=5").is_err());
    }
}
