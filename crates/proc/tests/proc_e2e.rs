//! End-to-end process-path runs: real worker OS processes over loopback
//! TCP, one per rank, all seven-strategy families exercised through the
//! same `worker_body` the threaded runtime uses.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_data::TeacherTaskConfig;
use dtrain_models::mlp_classifier;
use dtrain_proc::{train_proc, ProcConfig};
use dtrain_runtime::{Algo, RunPlan};

const MODEL_SEED: u64 = 7;
const TIMEOUT: Duration = Duration::from_secs(120);

fn cfg(strategy: Algo, workers: usize, epochs: u64, train_size: usize) -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers,
            epochs,
            batch: 16,
            strategy,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size,
            test_size: 32,
            seed: 11,
            ..Default::default()
        },
        model_seed: MODEL_SEED,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
        ..Default::default()
    }
}

fn model_bytes(task: &TeacherTaskConfig) -> u64 {
    mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED)
        .get_params()
        .num_bytes()
}

/// BSP: 4 real processes, 3 epochs. Iteration counts are exact, every
/// worker pushes one full-model gradient per round, nothing is evicted.
#[test]
fn bsp_end_to_end_over_tcp() {
    let c = cfg(Algo::Bsp, 4, 3, 256);
    let per_worker_iters = 3 * (256 / 4 / 16) as u64; // 12
    let bytes = model_bytes(&c.task);
    let report = train_proc(c, TIMEOUT).expect("bsp run");
    assert_eq!(report.strategy, "BSP");
    assert_eq!(report.total_iterations, 4 * per_worker_iters);
    assert_eq!(
        (report.evictions, report.rejoins, report.partial_rounds),
        (0, 0, 0)
    );
    for (w, stats) in report.per_worker.iter().enumerate() {
        assert_eq!(stats.iterations, per_worker_iters, "worker {w} iterations");
        assert_eq!(
            stats.logical_bytes,
            per_worker_iters * bytes,
            "worker {w} pushed one full-model gradient per round"
        );
        assert!(!stats.evicted);
    }
    assert!(
        report.final_accuracy > 0.1,
        "BSP must beat chance on the teacher task, got {}",
        report.final_accuracy
    );
}

/// SSP with staleness 1: bounded-staleness clock waits relayed through the
/// coordinator; all ranks finish all rounds.
#[test]
fn ssp_end_to_end_over_tcp() {
    let c = cfg(Algo::Ssp { staleness: 1 }, 4, 3, 256);
    let report = train_proc(c, TIMEOUT).expect("ssp run");
    assert_eq!(report.total_iterations, 4 * 12);
    assert_eq!(report.evictions, 0);
    assert!(
        report.final_accuracy > 0.1,
        "SSP accuracy {}",
        report.final_accuracy
    );
}

/// ASP: pure asynchronous push-pull against the coordinator-owned PS.
#[test]
fn asp_end_to_end_over_tcp() {
    let c = cfg(Algo::Asp, 4, 3, 256);
    let report = train_proc(c, TIMEOUT).expect("asp run");
    assert_eq!(report.total_iterations, 4 * 12);
    assert_eq!(report.evictions, 0);
    assert!(
        report.final_accuracy > 0.1,
        "ASP accuracy {}",
        report.final_accuracy
    );
}

/// The decentralized families ride the coordinator's relay mailboxes:
/// EASGD (elastic pull), Gossip (weighted push), AD-PSGD (active/passive
/// exchange with reply tokens). One short run each.
#[test]
fn decentralized_families_smoke() {
    for strategy in [
        Algo::Easgd {
            tau: 2,
            alpha: Some(0.4),
        },
        Algo::GoSgd { p: 1.0 },
        Algo::AdPsgd,
    ] {
        let c = cfg(strategy, 4, 2, 128);
        let report =
            train_proc(c, TIMEOUT).unwrap_or_else(|e| panic!("{strategy:?} run failed: {e}"));
        assert_eq!(
            report.total_iterations,
            4 * 4,
            "{strategy:?} iteration count"
        );
        assert_eq!(report.evictions, 0, "{strategy:?} saw a spurious eviction");
        assert!(report.final_loss.is_finite());
    }
}
