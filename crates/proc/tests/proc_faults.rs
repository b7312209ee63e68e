//! Real fault injection on the process path: a worker **process** is
//! SIGKILLed mid-training at a pinned round (the coordinator's pause gate
//! makes the kill point deterministic), and the run must evict it, keep
//! converging, and — when a rejoin is scheduled — adopt a replacement
//! process at the pinned round.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_data::TeacherTaskConfig;
use dtrain_models::mlp_classifier;
use dtrain_obs::{names, EventKind, ObsSink, Track};
use dtrain_proc::{ProcConfig, ProcReport, ProcRun, RejoinSpec};
use dtrain_runtime::{Algo, RunPlan};

const MODEL_SEED: u64 = 7;
const TIMEOUT: Duration = Duration::from_secs(120);
const GATE: Duration = Duration::from_secs(30);

/// 4 workers, 256 samples / 4 / batch 16 = 4 rounds per epoch, 3 epochs
/// = 12 rounds per rank.
fn kill_cfg(strategy: Algo) -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers: 4,
            epochs: 3,
            batch: 16,
            strategy,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: 256,
            test_size: 32,
            seed: 11,
            ..Default::default()
        },
        model_seed: MODEL_SEED,
        // Generous so a loaded machine cannot spuriously force-close a
        // round that would otherwise fill.
        barrier_deadline: Duration::from_secs(2),
        // Freeze rank 1's handler when its heartbeat announces round 2,
        // i.e. after it completed rounds 0 and 1.
        pause_at: Some((1, 2)),
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
        ..Default::default()
    }
}

fn run_kill(cfg: ProcConfig, sink: &ObsSink) -> ProcReport {
    let run = ProcRun::launch(cfg, sink).expect("launch");
    let killed = run.kill_paused(GATE);
    assert!(
        killed.is_some(),
        "pause gate never froze / eviction never recorded"
    );
    run.finish(TIMEOUT).expect("run must finish after the kill")
}

/// Archive the run's canonical trace under `results/proc/` at the repo
/// root so CI can upload it as an artifact when an assertion fails.
fn archive_trace(name: &str, sink: &ObsSink) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/proc");
    if std::fs::create_dir_all(&dir).is_ok() {
        let trace = dtrain_obs::export::canonical_trace(&sink.snapshot());
        let _ = std::fs::write(dir.join(format!("{name}.txt")), trace);
    }
}

fn instants(sink: &ObsSink, name: &str) -> Vec<i64> {
    sink.snapshot()
        .iter()
        .filter(|e| e.track == Track::Runtime(0))
        .filter_map(|e| match e.kind {
            EventKind::Instant { name: n, value } if n == name => Some(value),
            _ => None,
        })
        .collect()
}

/// SIGKILL a BSP worker process after round 1: the coordinator must evict
/// it at its last heartbeat round, survivors keep training on a 3-member
/// cohort, and the run still converges. Iteration accounting is exact and
/// deterministic: the victim got through 2 rounds, survivors all 12.
#[test]
fn bsp_survives_sigkill_of_worker_process() {
    let sink = ObsSink::enabled();
    let report = run_kill(kill_cfg(Algo::Bsp), &sink);
    archive_trace("bsp_sigkill", &sink);

    assert_eq!(report.evictions, 1);
    assert_eq!(report.rejoins, 0);
    assert!(report.per_worker[1].evicted);
    assert_eq!(
        report.per_worker[1].iterations, 2,
        "victim completed rounds 0 and 1"
    );
    for w in [0, 2, 3] {
        assert!(!report.per_worker[w].evicted);
        assert_eq!(report.per_worker[w].iterations, 12, "survivor {w}");
    }
    assert_eq!(report.total_iterations, 3 * 12 + 2);
    // At most the round in flight at the kill can force-close partially;
    // every later round sizes its cohort from the updated membership.
    assert!(
        report.partial_rounds <= 1,
        "unexpected partial rounds: {}",
        report.partial_rounds
    );
    assert!(
        report.final_accuracy > 0.1,
        "survivors must keep converging, got accuracy {}",
        report.final_accuracy
    );

    // The canonical trace records the death: crash + evict + shard
    // failover for rank 1 on the runtime track.
    assert_eq!(instants(&sink, names::CRASH), vec![1]);
    assert_eq!(instants(&sink, names::EVICT), vec![1]);
    assert_eq!(instants(&sink, names::REJOIN), Vec::<i64>::new());
}

/// The kill choreography is deterministic under a fixed seed: two
/// identical runs agree on every per-rank iteration count and on the
/// final model (bit-identical aggregation order on the survivor cohort).
#[test]
fn sigkill_run_is_deterministic() {
    let a = run_kill(kill_cfg(Algo::Bsp), &ObsSink::disabled());
    let b = run_kill(kill_cfg(Algo::Bsp), &ObsSink::disabled());
    assert_eq!(a.total_iterations, b.total_iterations);
    for w in 0..4 {
        assert_eq!(
            a.per_worker[w].iterations, b.per_worker[w].iterations,
            "worker {w} iterations must not depend on timing"
        );
    }
    assert_eq!(
        a.final_accuracy.to_bits(),
        b.final_accuracy.to_bits(),
        "same seed, same kill point => bit-identical final model"
    );
    assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
}

/// Schedule a late rejoin for the killed rank: the coordinator spawns a
/// replacement process at death, pins its re-entry to round 6, and the
/// replacement adopts the live globals through the same adoption path the
/// threaded runtime uses. The final cohort is whole again.
#[test]
fn bsp_late_rejoin_after_sigkill() {
    let mut cfg = kill_cfg(Algo::Bsp);
    cfg.rejoin = Some(RejoinSpec {
        worker: 1,
        at_round: 6,
    });
    let bytes = mlp_classifier(
        cfg.task.input_dim,
        &[64, 32],
        cfg.task.num_classes,
        MODEL_SEED,
    )
    .get_params()
    .num_bytes();

    let sink = ObsSink::enabled();
    let report = run_kill(cfg, &sink);
    archive_trace("bsp_sigkill_rejoin", &sink);

    assert_eq!((report.evictions, report.rejoins), (1, 1));
    assert!(report.per_worker[1].evicted);
    // Victim: rounds 0-1. Replacement: rounds 6-11.
    assert_eq!(report.per_worker[1].iterations, 2 + 6);
    assert_eq!(
        report.per_worker[1].logical_bytes,
        6 * bytes,
        "replacement pushed one full-model gradient for each of its 6 rounds"
    );
    for w in [0, 2, 3] {
        assert_eq!(report.per_worker[w].iterations, 12);
    }
    assert_eq!(report.total_iterations, 3 * 12 + 2 + 6);
    assert!(
        report.final_accuracy > 0.1,
        "rejoined cohort accuracy {}",
        report.final_accuracy
    );
    assert_eq!(instants(&sink, names::EVICT), vec![1]);
    assert_eq!(instants(&sink, names::REJOIN), vec![1]);
}

/// SSP survivors must not deadlock on a dead rank's stale clock: the
/// coordinator parks the victim's clock at the eviction, unblocking every
/// staleness gate that was waiting on it.
#[test]
fn ssp_survives_sigkill_without_clock_deadlock() {
    let report = run_kill(kill_cfg(Algo::Ssp { staleness: 1 }), &ObsSink::disabled());
    assert_eq!(report.evictions, 1);
    assert_eq!(report.per_worker[1].iterations, 2);
    for w in [0, 2, 3] {
        assert_eq!(
            report.per_worker[w].iterations, 12,
            "survivor {w} must finish"
        );
    }
    assert_eq!(report.total_iterations, 3 * 12 + 2);
    assert!(report.final_loss.is_finite());
}
