//! Fault injection on the threaded engine: crash-restarts from checkpoint,
//! straggler slowdowns, and PS outages must not stop training from
//! converging — the recovery machinery absorbs them.

use std::sync::Arc;
use std::time::Duration;

use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_faults::RuntimeFaultSchedule;
use dtrain_models::default_mlp;
use dtrain_runtime::{train_threaded, Algo, RuntimeFaultConfig, ThreadedConfig};

fn data() -> (Arc<dtrain_data::Dataset>, dtrain_data::Dataset) {
    let (train, test) = teacher_task(&TeacherTaskConfig {
        train_size: 2048,
        test_size: 512,
        seed: 11,
        ..Default::default()
    });
    (Arc::new(train), test)
}

fn faulty_run(strategy: Algo, faults: RuntimeFaultConfig) -> dtrain_runtime::ThreadedReport {
    let (train, test) = data();
    train_threaded(
        || default_mlp(10, 7),
        &train,
        &test,
        &ThreadedConfig {
            workers: 4,
            epochs: 10,
            strategy,
            faults: Some(faults),
            ..Default::default()
        },
    )
}

fn crashy_schedule() -> RuntimeFaultSchedule {
    RuntimeFaultSchedule {
        crashes: vec![(1, 40), (3, 90)],
        stragglers: vec![(2, 2.0)],
        ps_outages: vec![(200, 2)],
    }
}

#[test]
fn bsp_survives_crashes_stragglers_and_ps_outage() {
    let r = faulty_run(
        Algo::Bsp,
        RuntimeFaultConfig {
            schedule: crashy_schedule(),
            checkpoint_interval: 10,
            restart_backoff: Duration::from_millis(5),
            max_restarts: 8,
            heartbeat_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    assert_eq!(r.restarts, 2, "both scheduled crashes restarted");
    assert_eq!(r.ps_recoveries, 1, "PS outage consumed");
    assert_eq!(r.abandoned_restarts, 0);
    assert!(
        r.final_accuracy > 0.4,
        "BSP under faults: {}",
        r.final_accuracy
    );
    // the barrier keeps replicas identical even across restores
    assert!(r.final_drift < 1e-5, "BSP drift {}", r.final_drift);
}

#[test]
fn asp_survives_crashes_and_outage() {
    let r = faulty_run(
        Algo::Asp,
        RuntimeFaultConfig {
            schedule: crashy_schedule(),
            checkpoint_interval: 10,
            restart_backoff: Duration::from_millis(5),
            max_restarts: 8,
            heartbeat_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    assert_eq!(r.restarts, 2);
    assert_eq!(r.ps_recoveries, 1);
    assert!(
        r.final_accuracy > 0.4,
        "ASP under faults: {}",
        r.final_accuracy
    );
}

#[test]
fn restart_budget_is_bounded() {
    let r = faulty_run(
        Algo::Asp,
        RuntimeFaultConfig {
            schedule: RuntimeFaultSchedule {
                crashes: vec![(0, 10), (1, 20), (2, 30), (3, 40)],
                ..Default::default()
            },
            checkpoint_interval: 5,
            restart_backoff: Duration::from_millis(1),
            max_restarts: 2,
            heartbeat_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    assert_eq!(r.restarts, 2, "budget caps restarts");
    assert_eq!(r.abandoned_restarts, 2, "excess crashes abandoned");
}

#[test]
fn heartbeat_watchdog_flags_stalled_worker() {
    // A 150 ms restart backoff against a 30 ms heartbeat timeout: the
    // crashed worker is silent for five timeouts, so the watchdog must
    // log missed heartbeats while it is down.
    let r = faulty_run(
        Algo::GoSgd { p: 0.3 },
        RuntimeFaultConfig {
            schedule: RuntimeFaultSchedule {
                crashes: vec![(0, 20)],
                ..Default::default()
            },
            checkpoint_interval: 10,
            restart_backoff: Duration::from_millis(150),
            max_restarts: 8,
            heartbeat_timeout: Duration::from_millis(30),
            ..Default::default()
        },
    );
    assert_eq!(r.restarts, 1);
    assert!(
        r.missed_heartbeats > 0,
        "watchdog saw no missed heartbeats across a 150 ms outage"
    );
    assert!(
        r.final_accuracy > 0.3,
        "gossip under crash: {}",
        r.final_accuracy
    );
}
