//! The three-way conformance pin: for BSP on the same model, data, and
//! schedule, the **simulator**, the **threaded runtime**, and the
//! **process path** (real OS processes over loopback TCP) must agree
//! exactly on the logical work — per-worker payload bytes pushed and
//! iterations executed — and the two real-SGD paths must produce the
//! same final model.
//!
//! This is the contract that makes the `ExecBackend` refactor safe: one
//! `worker_body`, three transports, identical algorithm semantics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dtrain_core::prelude::*;
use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_models::mlp_classifier;
use dtrain_proc::{train_proc_observed, ProcConfig};
use dtrain_runtime::{train_threaded_observed, Algo, RunPlan, ThreadedConfig};

const MODEL_SEED: u64 = 7;

fn tiny_task() -> TeacherTaskConfig {
    TeacherTaskConfig {
        train_size: 128,
        test_size: 32,
        seed: 11,
        ..Default::default()
    }
}

fn final_counter(events: &[Event], track: Track, name: &str) -> Option<i64> {
    events
        .iter()
        .rev()
        .filter(|e| e.track == track)
        .find_map(|e| match e.kind {
            EventKind::Counter { name: n, value } if n == name => Some(value),
            _ => None,
        })
}

/// BSP, 2 workers, 8 iterations, identical MLP on all three paths.
#[test]
fn sim_threaded_and_proc_agree_on_bsp_logical_metrics() {
    let task = tiny_task();
    let workers = 2usize;
    let batch = 16usize;
    let epochs = 2u64;
    // Per-worker: shard 64 samples / batch 16 = 4 iterations per epoch.
    let iters = epochs * (task.train_size as u64 / workers as u64 / batch as u64);

    // --- Simulator path ---
    let cfg = RunConfig {
        algo: Algo::Bsp,
        cluster: ClusterConfig::paper(NetworkConfig::TEN_GBPS),
        workers,
        profile: resnet50(),
        batch,
        opts: OptimizationConfig::default(),
        stop: StopCondition::Iterations(iters),
        real: Some(RealTraining {
            task: dtrain_algos::SyntheticTask::Teacher(task.clone()),
            batch,
            model_seed: MODEL_SEED,
            ..Default::default()
        }),
        seed: 5,
        faults: None,
    };
    let sim_sink = ObsSink::enabled();
    let sim_out = run_observed(&cfg, &sim_sink);
    let sim_events = sim_sink.snapshot();

    // --- Threaded path ---
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);
    let thr_sink = ObsSink::enabled();
    let thr = train_threaded_observed(
        || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
        &train,
        &test,
        &ThreadedConfig {
            workers,
            epochs,
            batch,
            strategy: Algo::Bsp,
            seed: 5,
            ..Default::default()
        },
        &thr_sink,
    );
    let thr_events = thr_sink.snapshot();

    // --- Process path: real worker processes over loopback TCP ---
    let proc_sink = ObsSink::enabled();
    let proc = train_proc_observed(
        ProcConfig {
            plan: RunPlan {
                workers,
                epochs,
                batch,
                strategy: Algo::Bsp,
                seed: 5,
                ..Default::default()
            },
            task: task.clone(),
            model_seed: MODEL_SEED,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
            ..Default::default()
        },
        Duration::from_secs(120),
        &proc_sink,
    )
    .expect("process-path run");
    let proc_events = proc_sink.snapshot();

    // Iteration counts: all three paths executed the same schedule.
    assert_eq!(sim_out.total_iterations, thr.total_iterations);
    assert_eq!(thr.total_iterations, proc.total_iterations);
    assert_eq!(proc.total_iterations, workers as u64 * iters);

    let model_bytes = mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED)
        .get_params()
        .num_bytes();
    for w in 0..workers {
        let track = Track::Worker(w as u16);
        let sim_bytes = final_counter(&sim_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("sim worker {w} emitted no logical.bytes"));
        let thr_bytes = final_counter(&thr_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("threaded worker {w} emitted no logical.bytes"));
        let proc_bytes = final_counter(&proc_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("proc worker {w} emitted no logical.bytes"));
        assert_eq!(sim_bytes, thr_bytes, "worker {w}: sim vs threaded bytes");
        assert_eq!(thr_bytes, proc_bytes, "worker {w}: threaded vs proc bytes");
        // And the analytic value: one full-model gradient per iteration.
        assert_eq!(proc_bytes as u64, iters * model_bytes);
        // The report's per-worker stats agree with the emitted counter.
        assert_eq!(proc.per_worker[w].logical_bytes, proc_bytes as u64);
        assert_eq!(proc.per_worker[w].iterations, iters);
    }

    // The two real-SGD paths run identical math over identical transports
    // (f32 bit patterns on the wire, rank-ordered aggregation), so the
    // final model — and therefore its eval — must match bit-for-bit.
    assert_eq!(
        thr.final_accuracy.to_bits(),
        proc.final_accuracy.to_bits(),
        "threaded acc {} vs proc acc {}",
        thr.final_accuracy,
        proc.final_accuracy
    );
    assert_eq!(
        thr.final_loss.to_bits(),
        proc.final_loss.to_bits(),
        "threaded loss {} vs proc loss {}",
        thr.final_loss,
        proc.final_loss
    );
}

/// The same bit-identity pin under the hierarchical schedules: threads and
/// processes execute the identical two-level summation tree (members sum
/// into leaders rank-ascending, the leader barrier means the partials
/// rank-ascending), so the final models must still match bit-for-bit —
/// and, since `Pipelined` is a timing refinement of `Hier` with the same
/// math, those two must agree with each other too.
#[test]
fn threaded_and_proc_agree_bitwise_under_hier_collectives() {
    let task = tiny_task();
    let workers = 4usize;
    let batch = 16usize;
    let epochs = 2u64;
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);

    let mut accs = Vec::new();
    for collective in [CollectiveSchedule::Hier, CollectiveSchedule::Pipelined] {
        let thr = train_threaded_observed(
            || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
            &train,
            &test,
            &ThreadedConfig {
                workers,
                epochs,
                batch,
                strategy: Algo::Bsp,
                seed: 5,
                collective,
                gpus_per_machine: 2,
                ..Default::default()
            },
            &ObsSink::disabled(),
        );
        let proc = train_proc_observed(
            ProcConfig {
                plan: RunPlan {
                    workers,
                    epochs,
                    batch,
                    strategy: Algo::Bsp,
                    seed: 5,
                    collective,
                    gpus_per_machine: 2,
                    ..Default::default()
                },
                task: task.clone(),
                model_seed: MODEL_SEED,
                worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
                ..Default::default()
            },
            Duration::from_secs(120),
            &ObsSink::disabled(),
        )
        .expect("process-path run");

        let name = collective.name();
        assert_eq!(thr.total_iterations, proc.total_iterations, "{name}");
        assert_eq!(
            thr.final_accuracy.to_bits(),
            proc.final_accuracy.to_bits(),
            "{name}: threaded acc {} vs proc acc {}",
            thr.final_accuracy,
            proc.final_accuracy
        );
        assert_eq!(
            thr.final_loss.to_bits(),
            proc.final_loss.to_bits(),
            "{name}: threaded loss {} vs proc loss {}",
            thr.final_loss,
            proc.final_loss
        );
        assert!(thr.final_drift < 1e-5, "{name} drift {}", thr.final_drift);
        accs.push(thr.final_accuracy.to_bits());
    }
    assert_eq!(accs[0], accs[1], "hier and pipelined share the same math");
}
