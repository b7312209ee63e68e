//! Adaptive degradation controller, simulator path.
//!
//! 1. **Straggler trip**: a heterogeneous fleet (one GPU at a third of the
//!    others' TFLOPS) must push `straggle_ratio` past the policy threshold
//!    and switch the remainder from BSP to SSP, visible as a `ctrl.switch`
//!    marker in the trace.
//! 2. **WAN trip**: a 1 Gbps inter-machine network must push
//!    `comm_fraction` past the threshold and enable DGC for the remainder.
//! 3. **Golden trace**: the full canonical trace of the pinned straggler
//!    run is a committed artifact (`tests/golden/adaptive.trace`) —
//!    virtual timestamps, so it is byte-stable. Re-bless consciously with
//!    `DTRAIN_BLESS=1 cargo test -p dtrain-algos --test adaptive_ctrl`.
//! 4. **Run-twice**: both trips reproduce byte-identical traces.
//! 5. **Disabled controller**: a single segment, no marker, output
//!    identical to a plain run — existing goldens cannot move.

use std::fs;
use std::path::PathBuf;

use dtrain_algos::adaptive::run_adaptive;
use dtrain_algos::{
    run_observed, Algo, OptimizationConfig, RealTraining, RunConfig, StopCondition, SyntheticTask,
};
use dtrain_cluster::{ClusterConfig, NetworkConfig};
use dtrain_data::TeacherTaskConfig;
use dtrain_faults::{CtrlAction, CtrlPlan};
use dtrain_models::resnet50;
use dtrain_obs::export::{canonical_trace, diff_canonical};
use dtrain_obs::ObsSink;

fn base_cfg(cluster: ClusterConfig, epochs: u64) -> RunConfig {
    RunConfig {
        algo: Algo::Bsp,
        cluster,
        workers: 4,
        profile: resnet50(),
        batch: 128,
        opts: OptimizationConfig {
            ps_shards: 2,
            ..Default::default()
        },
        stop: StopCondition::Epochs(epochs),
        faults: None,
        real: Some(RealTraining {
            task: SyntheticTask::Teacher(TeacherTaskConfig {
                train_size: 512,
                test_size: 128,
                ..Default::default()
            }),
            ..Default::default()
        }),
        seed: 11,
    }
}

/// One GPU at a third of the fleet's TFLOPS: straggler-bound.
fn straggler_cfg(epochs: u64) -> RunConfig {
    let mut cluster = ClusterConfig::paper_with_workers(NetworkConfig::FIFTY_SIX_GBPS, 4);
    cluster.gpu_classes = vec![cluster.gpu_tflops / 3.0];
    base_cfg(cluster, epochs)
}

/// Four single-GPU machines over a 1 Gbps squeezed WAN: comm-bound.
fn wan_cfg(epochs: u64) -> RunConfig {
    let mut cluster = ClusterConfig::paper(NetworkConfig {
        bandwidth_gbps: 1.0,
        latency_us: 500.0,
    });
    cluster.machines = 4;
    cluster.gpus_per_machine = 1;
    base_cfg(cluster, epochs)
}

fn ctrl() -> CtrlPlan {
    CtrlPlan {
        enabled: true,
        probe_epochs: 2,
        ..Default::default()
    }
}

#[test]
fn straggler_trips_bsp_to_ssp_with_golden_trace() {
    let bless = std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1");
    let sink = ObsSink::enabled();
    let out = run_adaptive(&straggler_cfg(4), &ctrl(), &sink);
    assert!(
        matches!(out.action, CtrlAction::SwitchToSsp { .. }),
        "expected a straggler trip, got {:?} (signals {:?})",
        out.action,
        out.signals
    );
    assert!(out.signals.straggle_ratio > 2.0, "{:?}", out.signals);
    assert_eq!(out.segments.len(), 2);
    assert_eq!(out.segments[0].algo, "BSP");
    assert_eq!(out.segments[1].algo, "SSP");
    assert!(
        out.last().final_accuracy.expect("accuracy") > 0.3,
        "degraded run still learns: {:?}",
        out.last().final_accuracy
    );

    let events = sink.snapshot();
    assert_eq!(sink.dropped(), 0, "obs ring overflowed; raise capacity");
    let got = canonical_trace(&events);
    assert!(
        got.contains("ctrl.switch"),
        "trace lacks ctrl.switch marker"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/adaptive.trace");
    if bless {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &got).unwrap();
        eprintln!("blessed {} ({} lines)", path.display(), got.lines().count());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden trace {}; record it with DTRAIN_BLESS=1 cargo test -p dtrain-algos --test adaptive_ctrl",
            path.display()
        )
    });
    if let Some(report) = diff_canonical(&expected, &got) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_diffs");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("adaptive.diff"), &report).unwrap();
        panic!("adaptive golden trace diverged:\n{report}");
    }
}

#[test]
fn wan_squeeze_trips_dgc_and_reruns_identically() {
    let record = || {
        let sink = ObsSink::enabled();
        let out = run_adaptive(&wan_cfg(4), &ctrl(), &sink);
        let trace = canonical_trace(&sink.snapshot());
        (out, trace)
    };
    let (a, ta) = record();
    assert_eq!(
        a.action,
        CtrlAction::EnableDgc,
        "expected a comm trip (signals {:?})",
        a.signals
    );
    assert!(a.signals.comm_fraction > 0.6, "{:?}", a.signals);
    assert!(a.signals.straggle_ratio < 2.0, "{:?}", a.signals);
    // DGC actually bites: the remainder moves far fewer inter-machine
    // bytes per iteration than the probe.
    let probe_rate =
        a.segments[0].traffic.inter_bytes as f64 / a.segments[0].total_iterations.max(1) as f64;
    let rest_rate =
        a.segments[1].traffic.inter_bytes as f64 / a.segments[1].total_iterations.max(1) as f64;
    assert!(
        rest_rate * 10.0 < probe_rate,
        "DGC remainder should slash traffic: {rest_rate:.0} vs {probe_rate:.0} bytes/iter"
    );
    assert!(ta.contains("ctrl.switch"));

    let (b, tb) = record();
    assert_eq!(ta, tb, "identical adaptive runs produced different traces");
    assert_eq!(a.last().final_accuracy, b.last().final_accuracy);
    assert_eq!(a.segments[1].end_time, b.segments[1].end_time);
}

#[test]
fn disabled_controller_changes_nothing() {
    let cfg = straggler_cfg(3);
    let off = CtrlPlan::default();
    assert!(!off.enabled);

    let sink_plain = ObsSink::enabled();
    let plain = run_observed(&cfg, &sink_plain);
    let sink_adaptive = ObsSink::enabled();
    let adaptive = run_adaptive(&cfg, &off, &sink_adaptive);

    assert_eq!(adaptive.segments.len(), 1);
    assert_eq!(adaptive.action, CtrlAction::Stay);
    assert_eq!(adaptive.segments[0].end_time, plain.end_time);
    assert_eq!(adaptive.segments[0].final_accuracy, plain.final_accuracy);
    // Byte-identical traces: the disabled controller adds no events, so
    // every pre-existing golden stays pinned.
    let ta = canonical_trace(&sink_plain.snapshot());
    let tb = canonical_trace(&sink_adaptive.snapshot());
    assert_eq!(ta, tb);
    assert!(!tb.contains("ctrl.switch"));
}
