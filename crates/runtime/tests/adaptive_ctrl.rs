//! Adaptive degradation controller, threaded path.
//!
//! Wall-clock timestamps make full-trace goldens meaningless here, so the
//! pin is the *marker sequence*: the timestamp-stripped `ctrl.switch`
//! lines must be identical run over run, and the controller's decision
//! must be stable for a pinned fault schedule.

use std::sync::Arc;

use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_faults::{CtrlAction, CtrlPlan, DegradePolicy, RuntimeFaultSchedule};
use dtrain_models::default_mlp;
use dtrain_obs::export::canonical_line;
use dtrain_obs::ObsSink;
use dtrain_runtime::{train_adaptive, Algo, RuntimeFaultConfig, ThreadedConfig};

fn data() -> (Arc<dtrain_data::Dataset>, dtrain_data::Dataset) {
    let (train, test) = teacher_task(&TeacherTaskConfig {
        train_size: 2048,
        test_size: 512,
        seed: 11,
        ..Default::default()
    });
    (Arc::new(train), test)
}

fn straggler_cfg() -> ThreadedConfig {
    ThreadedConfig {
        workers: 4,
        epochs: 8,
        strategy: Algo::Bsp,
        faults: Some(RuntimeFaultConfig {
            schedule: RuntimeFaultSchedule {
                stragglers: vec![(0, 4.0)],
                ..Default::default()
            },
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// The `ctrl.switch` lines of a trace with the wall-clock timestamp
/// stripped: `(track, kind, name, value)` stays, timing goes.
fn marker_sequence(sink: &ObsSink) -> Vec<String> {
    sink.snapshot()
        .iter()
        .map(canonical_line)
        .filter(|l| l.contains("ctrl.switch"))
        .map(|l| {
            let (_ts, rest) = l.split_once(' ').expect("canonical line has a timestamp");
            rest.to_string()
        })
        .collect()
}

#[test]
fn straggler_trips_bsp_to_ssp_with_pinned_marker() {
    let (train, test) = data();
    let ctrl = CtrlPlan {
        enabled: true,
        probe_epochs: 3,
        ..Default::default()
    };
    let run = || {
        let sink = ObsSink::enabled();
        let out = train_adaptive(
            || default_mlp(10, 7),
            &train,
            &test,
            &straggler_cfg(),
            &ctrl,
            &sink,
        );
        let markers = marker_sequence(&sink);
        (out, markers)
    };
    let (a, ma) = run();
    assert!(
        matches!(a.action, CtrlAction::SwitchToSsp { .. }),
        "expected a straggler trip, got {:?} (signals {:?})",
        a.action,
        a.signals
    );
    assert!(a.signals.straggle_ratio > 2.0, "{:?}", a.signals);
    assert_eq!(a.segments.len(), 2);
    assert_eq!(a.segments[0].strategy, Algo::Bsp.name());
    assert_eq!(a.segments[1].strategy, Algo::Ssp { staleness: 3 }.name());
    assert!(
        a.last().final_accuracy > 0.3,
        "degraded run still learns: {}",
        a.last().final_accuracy
    );
    assert_eq!(
        ma,
        vec![format!("r0 I ctrl.switch {} -", a.action.code())],
        "exactly one ctrl.switch marker, on the runtime track"
    );

    // Wall-clock timing varies; the decision and the marker sequence may
    // not: a 4x injected slowdown dwarfs scheduler noise.
    let (b, mb) = run();
    assert_eq!(a.action, b.action, "controller decision must be stable");
    assert_eq!(ma, mb, "marker sequence must be reproducible");
}

#[test]
fn untrippable_policy_stays_and_still_stamps_the_marker() {
    let (train, test) = data();
    let ctrl = CtrlPlan {
        enabled: true,
        probe_epochs: 2,
        policy: DegradePolicy {
            straggle_threshold: 1e9,
            comm_threshold: 1.1, // comm_fraction is a fraction; cannot trip
            retry_threshold: 1e9,
            ..Default::default()
        },
    };
    let cfg = ThreadedConfig {
        workers: 4,
        epochs: 4,
        strategy: Algo::Bsp,
        ..Default::default()
    };
    let sink = ObsSink::enabled();
    let out = train_adaptive(|| default_mlp(10, 7), &train, &test, &cfg, &ctrl, &sink);
    assert_eq!(out.action, CtrlAction::Stay);
    assert_eq!(out.segments.len(), 2, "Stay still splits at the probe");
    assert_eq!(out.segments[1].strategy, Algo::Bsp.name());
    assert_eq!(marker_sequence(&sink), vec!["r0 I ctrl.switch 0 -"]);
}

#[test]
fn disabled_controller_runs_single_segment_without_markers() {
    let (train, test) = data();
    let sink = ObsSink::enabled();
    let out = train_adaptive(
        || default_mlp(10, 7),
        &train,
        &test,
        &ThreadedConfig {
            workers: 2,
            epochs: 3,
            ..Default::default()
        },
        &CtrlPlan::default(),
        &sink,
    );
    assert_eq!(out.segments.len(), 1);
    assert_eq!(out.action, CtrlAction::Stay);
    assert!(marker_sequence(&sink).is_empty());
}
