//! Adaptive degradation controller, process path.
//!
//! A real straggling *process* (rank 0 sleeps extra milliseconds per
//! iteration) inflates its `busy_ms` in `RunComplete`; the probe segment
//! must read that as a straggle trip and run the remainder cohort under
//! SSP, with the probe's evaluated model adopted through the `HelloAck`
//! snapshot. Wall-clock timestamps make full-trace goldens meaningless
//! here (as on the threaded path), so the pin is the timestamp-stripped
//! `ctrl.switch` marker sequence plus a stable decision across reruns.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_data::TeacherTaskConfig;
use dtrain_faults::{CtrlAction, CtrlPlan};
use dtrain_obs::export::canonical_line;
use dtrain_obs::ObsSink;
use dtrain_proc::{train_proc_adaptive, ProcConfig};
use dtrain_runtime::{Algo, RunPlan};

const TIMEOUT: Duration = Duration::from_secs(120);

/// 4 workers, 4 rounds per epoch; rank 0 sleeps 25 ms extra per round —
/// an order of magnitude over the healthy ranks' compute time.
fn straggler_cfg(epochs: u64) -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers: 4,
            epochs,
            batch: 16,
            strategy: Algo::Bsp,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: 256,
            test_size: 32,
            seed: 11,
            ..Default::default()
        },
        model_seed: 7,
        barrier_deadline: Duration::from_secs(2),
        straggler: Some((0, 25)),
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
        ..Default::default()
    }
}

/// `ctrl.switch` lines with the wall-clock timestamp stripped.
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
fn straggling_process_trips_bsp_to_ssp_with_pinned_marker() {
    let ctrl = CtrlPlan {
        enabled: true,
        probe_epochs: 2,
        ..Default::default()
    };
    let run = || {
        let sink = ObsSink::enabled();
        let out =
            train_proc_adaptive(straggler_cfg(4), &ctrl, TIMEOUT, &sink).expect("adaptive run");
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
    assert_eq!(
        a.segments.iter().map(|s| s.evictions).sum::<u64>(),
        0,
        "a slow rank is degraded around, never evicted"
    );
    assert!(
        a.last().final_accuracy > 0.1,
        "degraded run still learns: {}",
        a.last().final_accuracy
    );
    assert_eq!(
        ma,
        vec![format!("r0 I ctrl.switch {} -", a.action.code())],
        "exactly one ctrl.switch marker, on the runtime track"
    );

    // A 25 ms injected sleep dwarfs scheduler noise: the decision and the
    // marker sequence must survive a rerun even though timings differ.
    let (b, mb) = run();
    assert_eq!(a.action, b.action, "controller decision must be stable");
    assert_eq!(ma, mb, "marker sequence must be reproducible");
}

#[test]
fn disabled_controller_runs_single_segment_without_markers() {
    let sink = ObsSink::enabled();
    let out = train_proc_adaptive(straggler_cfg(2), &CtrlPlan::default(), TIMEOUT, &sink)
        .expect("plain run");
    assert_eq!(out.segments.len(), 1);
    assert_eq!(out.action, CtrlAction::Stay);
    assert!(marker_sequence(&sink).is_empty());
}
