//! Adaptive degradation controller, process path: the [`SegmentedRun`]
//! impl that [`run_controlled`] drives. Each segment is its own process
//! cohort; the remainder adopts the probe's evaluated model through
//! [`ProcConfig::initial_params`] (workers pick it up via the `HelloAck`
//! snapshot they already apply — nothing new crosses the argv boundary).
//!
//! Signals on this path:
//! - `straggle_ratio` — per-rank `busy_ms` shipped home in `RunComplete`
//!   (compute + iteration hooks, injected straggler sleeps included).
//! - `retry_rate` — session-resume takeovers per executed iteration; a
//!   chaos-squeezed link shows up here rather than in phase timings.
//! - `comm_fraction` — the share of wall time the mean rank spent *not*
//!   busy: exchange waits, server round-trips, reconnect backoff.
//!
//! `EnableDgc` is recorded in the marker and report but does not change
//! the proc wire format (the simulator is where DGC alters traffic).

use std::time::{Duration, Instant};

use dtrain_faults::{
    busy_signals, run_controlled, AdaptiveReport, Algo, CtrlPlan, CtrlSignals, SegmentedRun,
};
use dtrain_obs::ObsSink;

use crate::config::ProcConfig;
use crate::coordinator::{train_proc_observed, ProcError, ProcReport};

struct ProcSegments<'a> {
    cfg: ProcConfig,
    timeout: Duration,
    sink: &'a ObsSink,
    start: Instant,
}

impl SegmentedRun for ProcSegments<'_> {
    type Report = ProcReport;
    type Error = ProcError;

    fn epochs(&self) -> u64 {
        self.cfg.plan.epochs
    }

    fn algo(&self) -> Algo {
        self.cfg.plan.strategy
    }

    fn run(&mut self, epochs: u64) -> Result<ProcReport, ProcError> {
        let mut cfg = self.cfg.clone();
        cfg.plan.epochs = epochs;
        train_proc_observed(cfg, self.timeout, self.sink)
    }

    fn signals(&self, segment: &ProcReport) -> CtrlSignals {
        let busy: Vec<f64> = segment
            .per_worker
            .iter()
            .map(|s| s.busy_ms as f64 / 1000.0)
            .collect();
        busy_signals(
            &busy,
            segment.wall_time.as_secs_f64(),
            segment.retries,
            segment.total_iterations,
        )
    }

    fn switch_ns(&self, _probe: &ProcReport) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn adopt(&mut self, probe: &ProcReport, algo: Algo, _dgc: bool) {
        self.cfg.plan.strategy = algo;
        self.cfg.initial_params = Some(probe.final_params.clone());
    }
}

/// [`train_proc_observed`] under the adaptive degradation controller.
/// `timeout` bounds each segment.
pub fn train_proc_adaptive(
    cfg: ProcConfig,
    ctrl: &CtrlPlan,
    timeout: Duration,
    sink: &ObsSink,
) -> Result<AdaptiveReport<ProcReport>, ProcError> {
    let mut run = ProcSegments {
        cfg,
        timeout,
        sink,
        start: Instant::now(),
    };
    run_controlled(&mut run, ctrl, sink)
}
