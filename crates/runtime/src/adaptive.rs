//! Adaptive degradation controller, threaded path: the [`SegmentedRun`]
//! impl that [`run_controlled`] drives.
//!
//! Signals come from the probe's per-worker busy times against its wall
//! time. `EnableDgc` is recorded in the marker but cannot change this
//! path's wire behaviour (shared memory moves no bytes); the sim path is
//! where DGC alters the run. The remainder starts from the probe's
//! aggregate parameters.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use dtrain_data::Dataset;
use dtrain_faults::{
    busy_signals, run_controlled, AdaptiveReport, Algo, CtrlPlan, CtrlSignals, SegmentedRun,
};
use dtrain_nn::{Network, ParamSet};
use dtrain_obs::ObsSink;

use crate::engine::{train_threaded_observed, ThreadedConfig, ThreadedReport};

struct ThreadedRun<'a, F> {
    factory: F,
    train: &'a Arc<Dataset>,
    test: &'a Dataset,
    cfg: ThreadedConfig,
    /// Starting parameters for the next segment (`None` = `factory`'s).
    adopted: Option<ParamSet>,
    sink: &'a ObsSink,
    start: Instant,
}

impl<F> SegmentedRun for ThreadedRun<'_, F>
where
    F: Fn() -> Network + Send + Sync,
{
    type Report = ThreadedReport;
    type Error = Infallible;

    fn epochs(&self) -> u64 {
        self.cfg.epochs
    }

    fn algo(&self) -> Algo {
        self.cfg.strategy
    }

    fn run(&mut self, epochs: u64) -> Result<ThreadedReport, Infallible> {
        let mut cfg = self.cfg.clone();
        cfg.epochs = epochs;
        let factory = || {
            let mut net = (self.factory)();
            if let Some(p) = &self.adopted {
                net.set_params(p);
            }
            net
        };
        Ok(train_threaded_observed(
            factory, self.train, self.test, &cfg, self.sink,
        ))
    }

    fn signals(&self, segment: &ThreadedReport) -> CtrlSignals {
        let busy: Vec<f64> = segment
            .per_worker_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        busy_signals(
            &busy,
            segment.wall_time.as_secs_f64(),
            0,
            segment.total_iterations,
        )
    }

    fn switch_ns(&self, _probe: &ThreadedReport) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn adopt(&mut self, probe: &ThreadedReport, algo: Algo, _dgc: bool) {
        self.cfg.strategy = algo;
        self.adopted = Some(probe.final_params.clone());
    }
}

/// [`train_threaded_observed`] under the adaptive degradation controller.
pub fn train_adaptive<F>(
    factory: F,
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
    ctrl: &CtrlPlan,
    sink: &ObsSink,
) -> AdaptiveReport<ThreadedReport>
where
    F: Fn() -> Network + Send + Sync,
{
    let mut run = ThreadedRun {
        factory,
        train,
        test,
        cfg: cfg.clone(),
        adopted: None,
        sink,
        start: Instant::now(),
    };
    let Ok(report) = run_controlled(&mut run, ctrl, sink);
    report
}
