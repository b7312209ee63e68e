//! Adaptive degradation controller, simulator path: the
//! [`SegmentedRun`] impl that [`run_controlled`] drives.
//!
//! Signals come from the probe's phase breakdowns in virtual time, so the
//! whole decision is exactly deterministic. `EnableDgc` bites here: the
//! remainder of a gradient-pushing run gets `opts.dgc = Some(default)`.
//! The probe's trained parameters become the remainder's starting weights.

use std::convert::Infallible;

use dtrain_compress::DgcConfig;
use dtrain_faults::{
    run_controlled, straggle_ratio, AdaptiveReport, CtrlPlan, CtrlSignals, SegmentedRun,
};
use dtrain_obs::{ObsSink, Phase};

use crate::config::{Algo, RunConfig, StopCondition};
use crate::runner::{run_observed, RunOutput};

/// Distill controller signals from a finished simulated segment.
pub(crate) fn sim_signals(out: &RunOutput) -> CtrlSignals {
    let compute: Vec<f64> = out
        .per_worker_breakdown
        .iter()
        .map(|b| b.get(Phase::Compute).as_secs_f64())
        .collect();
    let b = &out.mean_breakdown;
    CtrlSignals {
        straggle_ratio: straggle_ratio(&compute),
        comm_fraction: b.fraction(Phase::Comm)
            + b.fraction(Phase::GlobalAgg)
            + b.fraction(Phase::LocalAgg),
        retry_rate: 0.0,
    }
}

struct SimRun<'a> {
    cfg: RunConfig,
    epochs: u64,
    sink: &'a ObsSink,
}

impl SegmentedRun for SimRun<'_> {
    type Report = RunOutput;
    type Error = Infallible;

    fn epochs(&self) -> u64 {
        self.epochs
    }

    fn algo(&self) -> Algo {
        self.cfg.algo
    }

    fn run(&mut self, epochs: u64) -> Result<RunOutput, Infallible> {
        self.cfg.stop = StopCondition::Epochs(epochs);
        Ok(run_observed(&self.cfg, self.sink))
    }

    fn signals(&self, segment: &RunOutput) -> CtrlSignals {
        sim_signals(segment)
    }

    fn switch_ns(&self, probe: &RunOutput) -> u64 {
        probe.end_time.0
    }

    fn adopt(&mut self, probe: &RunOutput, algo: Algo, dgc: bool) {
        self.cfg.algo = algo;
        if dgc && self.cfg.opts.dgc.is_none() {
            self.cfg.opts.dgc = Some(DgcConfig::default());
        }
        if let (Some(real), Some(params)) = (self.cfg.real.as_mut(), probe.final_params.clone()) {
            real.initial_params = Some(params);
        }
    }
}

/// [`run_observed`] under the adaptive degradation controller. Requires
/// an epoch stop condition; the probe takes `ctrl.probe_epochs` of it.
pub fn run_adaptive(cfg: &RunConfig, ctrl: &CtrlPlan, sink: &ObsSink) -> AdaptiveReport<RunOutput> {
    let epochs = match cfg.stop {
        StopCondition::Epochs(e) => e,
        StopCondition::Iterations(_) => {
            panic!("run_adaptive requires StopCondition::Epochs")
        }
    };
    let mut run = SimRun {
        cfg: cfg.clone(),
        epochs,
        sink,
    };
    let Ok(report) = run_controlled(&mut run, ctrl, sink);
    report
}
