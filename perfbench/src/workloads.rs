//! The four workloads, their inputs (all derived from the seed), one
//! training call each, and the output checks every call must pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrain_algos::{run_observed, Algo, RunConfig, RunOutput, StopCondition};
use dtrain_cluster::{CollectiveSchedule, NetworkConfig};
use dtrain_core::presets::{accuracy_run, collective_run, AccuracyScale, PaperModel};
use dtrain_data::{prototype_images, Dataset, ImageTaskConfig, TeacherTaskConfig};
use dtrain_models::small_cnn;
use dtrain_obs::ObsSink;
use dtrain_proc::{ProcConfig, ProcReport, ProcRun};
use dtrain_runtime::{train_threaded_observed, RunPlan, Strategy, ThreadedConfig, ThreadedReport};

use crate::record::{Clock, Doc};
use crate::sys;

/// The seed the pinned reference values below were taken at.
pub const DEFAULT_SEED: u64 = 11;

/// Per-track ring capacity for traced runs: large enough that the longest
/// track (the simulator kernel's, ~63k events on `collective_sim`) never
/// wraps, so `obs.dropped` stays 0.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Reference outputs of the simulator workloads at [`DEFAULT_SEED`].
/// Observation is timing-passive and the simulator deterministic, so every
/// run at the default seed, traced or not, must reproduce these exactly.
const PIN_COLLECTIVE_SIM: Outcome = Outcome {
    iterations: 256,
    accuracy_bits: None,
    virtual_end_ns: Some(2_980_857_947),
    inter_bytes: 11_449_550_336,
    intra_bytes: 52_340_801_536,
    drift: None,
    evictions: 0,
    retries: 0,
    partial_rounds: 0,
};
const PIN_PS_SIM: Outcome = Outcome {
    iterations: 7680,
    // 0.68994140625
    accuracy_bits: Some(1_060_151_296),
    virtual_end_ns: Some(653_667_609_310),
    inter_bytes: 785_112_023_040,
    intra_bytes: 785_112_023_040,
    drift: None,
    evictions: 0,
    retries: 0,
    partial_rounds: 0,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CnnThreaded,
    MlpProc,
    CollectiveSim,
    PsSim,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CnnThreaded,
        Workload::MlpProc,
        Workload::CollectiveSim,
        Workload::PsSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnThreaded => "cnn_threaded",
            Workload::MlpProc => "mlp_proc",
            Workload::CollectiveSim => "collective_sim",
            Workload::PsSim => "ps_sim",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Threads (or processes) that compute at the same time. The
    /// simulator runs exactly one simulated process at a time.
    pub fn compute_threads(self) -> usize {
        match self {
            Workload::CnnThreaded | Workload::MlpProc => 2,
            Workload::CollectiveSim | Workload::PsSim => 1,
        }
    }

    pub fn is_sim(self) -> bool {
        matches!(self, Workload::CollectiveSim | Workload::PsSim)
    }

    /// Per-worker iterations × workers for one training call.
    pub fn expected_iterations(self) -> u64 {
        match self {
            Workload::CnnThreaded => 2 * CNN_EPOCHS * (CNN_TRAIN / 2 / CNN_BATCH) as u64,
            Workload::MlpProc => 2 * MLP_EPOCHS * (MLP_TRAIN / 2 / MLP_BATCH) as u64,
            Workload::CollectiveSim => 32 * COLLECTIVE_ITERS,
            Workload::PsSim => 8 * PS_EPOCHS * (PS_TRAIN / 8 / PS_BATCH) as u64,
        }
    }
}

const CNN_TRAIN: usize = 2048;
const CNN_BATCH: usize = 32;
const CNN_EPOCHS: u64 = 3;
const MLP_TRAIN: usize = 1024;
const MLP_BATCH: usize = 16;
const MLP_EPOCHS: u64 = 1;
const COLLECTIVE_ITERS: u64 = 8;
const PS_TRAIN: usize = 7680;
const PS_BATCH: usize = 8;
const PS_EPOCHS: u64 = 8;

pub fn cnn_task(seed: u64) -> ImageTaskConfig {
    ImageTaskConfig {
        channels: 1,
        side: 32,
        num_classes: 8,
        train_size: CNN_TRAIN,
        test_size: 512,
        noise: 0.9,
        seed,
    }
}

pub fn cnn_model(seed: u64) -> dtrain_nn::Network {
    small_cnn(1, 32, 8, seed)
}

pub fn cnn_config(seed: u64, workers: usize) -> ThreadedConfig {
    ThreadedConfig {
        workers,
        epochs: CNN_EPOCHS,
        batch: CNN_BATCH,
        strategy: Strategy::Bsp,
        seed,
        ..Default::default()
    }
}

/// Wide MLP 32→512→512→10 (284,682 params, 1.14 MB per frame).
pub fn mlp_config(seed: u64) -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers: 2,
            epochs: MLP_EPOCHS,
            batch: MLP_BATCH,
            strategy: Strategy::Bsp,
            seed,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: MLP_TRAIN,
            test_size: 512,
            seed,
            ..Default::default()
        },
        hidden: vec![512, 512],
        model_seed: seed,
        ..Default::default()
    }
}

/// The `fig4_optimizations --collective` cell: AR-SGD, pipelined schedule,
/// ResNet-50 profile, 8 machines × 4 GPUs at 10 Gbps, cost-only. The
/// simulated run has no random input, so every seed yields the same run.
pub fn collective_config(seed: u64) -> RunConfig {
    let mut cfg = collective_run(
        PaperModel::ResNet50,
        8,
        NetworkConfig::TEN_GBPS,
        CollectiveSchedule::Pipelined,
        COLLECTIVE_ITERS,
    );
    cfg.seed = seed;
    cfg
}

/// The `accuracy_run` preset for ASP at 8 workers and 2 PS shards: teacher
/// MLP with real math, batch 8, ResNet-50 timing at 56 Gbps.
pub fn ps_config(seed: u64) -> RunConfig {
    let mut cfg = accuracy_run(
        Algo::Asp,
        8,
        &AccuracyScale {
            epochs: PS_EPOCHS,
            train_size: PS_TRAIN,
            batch: PS_BATCH,
            seed,
            ..Default::default()
        },
    );
    cfg.opts.ps_shards = 2;
    cfg
}

fn sim_config(w: Workload, seed: u64) -> RunConfig {
    match w {
        Workload::CollectiveSim => collective_config(seed),
        Workload::PsSim => ps_config(seed),
        _ => unreachable!("{} is not a simulator workload", w.name()),
    }
}

/// What one training call produced, reduced to the values the checks
/// compare.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub iterations: u64,
    /// Bit pattern of the final test accuracy (exact comparison).
    pub accuracy_bits: Option<u32>,
    pub virtual_end_ns: Option<u64>,
    pub inter_bytes: u64,
    pub intra_bytes: u64,
    pub drift: Option<f32>,
    pub evictions: u64,
    pub retries: u64,
    pub partial_rounds: u64,
}

impl Outcome {
    pub fn accuracy(&self) -> Option<f64> {
        self.accuracy_bits.map(|b| f64::from(f32::from_bits(b)))
    }
}

pub fn threaded_outcome(r: &ThreadedReport) -> Outcome {
    Outcome {
        iterations: r.total_iterations,
        accuracy_bits: Some(r.final_accuracy.to_bits()),
        virtual_end_ns: None,
        inter_bytes: 0,
        intra_bytes: 0,
        drift: Some(r.final_drift),
        evictions: r.evictions,
        retries: 0,
        partial_rounds: 0,
    }
}

pub fn proc_outcome(r: &ProcReport) -> Outcome {
    Outcome {
        iterations: r.total_iterations,
        accuracy_bits: Some(r.final_accuracy.to_bits()),
        virtual_end_ns: None,
        inter_bytes: 0,
        intra_bytes: 0,
        drift: None,
        evictions: r.evictions,
        retries: r.retries,
        partial_rounds: r.partial_rounds,
    }
}

pub fn sim_outcome(o: &RunOutput) -> Outcome {
    Outcome {
        iterations: o.total_iterations,
        accuracy_bits: o.final_accuracy.map(f32::to_bits),
        virtual_end_ns: Some(o.end_time.as_nanos()),
        inter_bytes: o.traffic.inter_bytes,
        intra_bytes: o.traffic.intra_bytes,
        drift: None,
        evictions: 0,
        retries: 0,
        partial_rounds: 0,
    }
}

/// One timed training call of a workload.
pub struct Call {
    /// Wall seconds before the first training step (see [`run_call`]).
    pub setup_s: f64,
    /// Wall seconds of the training call itself.
    pub train_s: f64,
    /// Training samples the call processed (simulated samples on the
    /// simulator workloads).
    pub samples: f64,
    pub outcome: Outcome,
    /// The simulator's own output, for the layer metrics.
    pub sim: Option<RunOutput>,
    pub threaded: Option<ThreadedReport>,
    pub proc: Option<ProcReport>,
}

/// Run `w` once with observation into `sink`.
///
/// Set-up is what happens before the first training step: dataset
/// generation and model construction on the threaded path; on the proc
/// path `ProcRun::launch` (config check, model init, process spawn — the
/// handshake completes inside the training call); on the simulator, a
/// zero-iteration run of the same configuration (process spawn, per-worker
/// state and data generation, teardown).
pub fn run_call(w: Workload, seed: u64, sink: &ObsSink) -> Result<Call, String> {
    match w {
        Workload::CnnThreaded => {
            let t0 = Instant::now();
            let (train, test) = prototype_images(&cnn_task(seed));
            // Each worker builds its replica inside the training call; this
            // times one construction as part of set-up.
            drop(cnn_model(seed));
            let train: Arc<Dataset> = Arc::new(train);
            let setup_s = t0.elapsed().as_secs_f64();
            let cfg = cnn_config(seed, 2);
            let t1 = Instant::now();
            let r = train_threaded_observed(|| cnn_model(seed), &train, &test, &cfg, sink);
            let train_s = t1.elapsed().as_secs_f64();
            Ok(Call {
                setup_s,
                train_s,
                samples: (r.total_iterations * cfg.batch as u64) as f64,
                outcome: threaded_outcome(&r),
                sim: None,
                threaded: Some(r),
                proc: None,
            })
        }
        Workload::MlpProc => {
            let cfg = mlp_config(seed);
            let batch = cfg.plan.batch as u64;
            let t0 = Instant::now();
            let run = ProcRun::launch(cfg, sink).map_err(|e| format!("launch: {e}"))?;
            let setup_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let r = run
                .finish(Duration::from_secs(60))
                .map_err(|e| format!("finish: {e}"))?;
            let train_s = t1.elapsed().as_secs_f64();
            Ok(Call {
                setup_s,
                train_s,
                samples: (r.total_iterations * batch) as f64,
                outcome: proc_outcome(&r),
                sim: None,
                threaded: None,
                proc: Some(r),
            })
        }
        Workload::CollectiveSim | Workload::PsSim => {
            let cfg = sim_config(w, seed);
            let mut empty = cfg.clone();
            empty.stop = StopCondition::Iterations(0);
            let t0 = Instant::now();
            run_observed(&empty, &ObsSink::disabled());
            let setup_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let o = run_observed(&cfg, sink);
            let train_s = t1.elapsed().as_secs_f64();
            Ok(Call {
                setup_s,
                train_s,
                samples: (o.total_iterations * cfg.batch as u64) as f64,
                outcome: sim_outcome(&o),
                sim: Some(o),
                threaded: None,
                proc: None,
            })
        }
    }
}

/// Problems with one call's output: wrong iteration count, replica drift
/// under BSP, any fault-tolerance activity on a fault-free run, or a
/// difference from `reference` (an earlier call of the same workload and
/// seed — every workload here is deterministic).
pub fn verify(w: Workload, got: &Outcome, reference: Option<&Outcome>) -> Vec<String> {
    let mut bad = Vec::new();
    let want = w.expected_iterations();
    if got.iterations != want {
        bad.push(format!("iterations {} != {want}", got.iterations));
    }
    match got.accuracy() {
        Some(a) if !(0.0..=1.0).contains(&a) => bad.push(format!("accuracy {a} out of range")),
        None if w != Workload::CollectiveSim => bad.push("no accuracy".into()),
        _ => {}
    }
    if let Some(d) = got.drift {
        if d != 0.0 {
            bad.push(format!("BSP replica drift {d} != 0"));
        }
    }
    if got.evictions + got.retries + got.partial_rounds != 0 {
        bad.push(format!(
            "fault-free run saw evictions={} retries={} partial_rounds={}",
            got.evictions, got.retries, got.partial_rounds
        ));
    }
    if let Some(r) = reference {
        if got != r {
            bad.push(format!("differs from the first call: {got:?} vs {r:?}"));
        }
    }
    bad
}

/// Run `w` once and [`verify`] it against `reference`. A call that errs or
/// fails a check counts as failed in `doc` and yields `None`.
pub fn checked_call(
    w: Workload,
    seed: u64,
    sink: &ObsSink,
    reference: Option<&Outcome>,
    doc: &mut Doc,
) -> Option<Call> {
    doc.attempted += 1;
    let res = run_call(w, seed, sink).and_then(|c| {
        let bad = verify(w, &c.outcome, reference);
        if bad.is_empty() {
            Ok(c)
        } else {
            Err(bad.join("; "))
        }
    });
    match res {
        Ok(c) => Some(c),
        Err(e) => {
            doc.failed += 1;
            doc.check(format!("{}.call{}", w.name(), doc.attempted), false, e);
            None
        }
    }
}

/// Pinned outputs for the default seed, if `w` has them.
fn pin(w: Workload) -> Option<&'static Outcome> {
    match w {
        Workload::CollectiveSim => Some(&PIN_COLLECTIVE_SIM),
        Workload::PsSim => Some(&PIN_PS_SIM),
        _ => None,
    }
}

/// Fewest training calls per measurement, however long they take.
const MIN_CALLS: usize = 3;

/// The end-to-end measurement: untraced training calls of `w` until
/// `seconds` have passed, then the output checks that need a traced run.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, doc: &mut Doc) {
    let name = w.name();
    let mut setup = Vec::new();
    let mut sps = Vec::new();
    let mut rss = Vec::new();
    let mut reference: Option<Outcome> = None;
    let start = Instant::now();
    while sps.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        if let Err(e) = sys::reset_peak_rss() {
            doc.failed += 1;
            doc.check(format!("{name}.reset_peak_rss"), false, e);
        }
        let plain = ObsSink::disabled();
        if let Some(call) = checked_call(w, seed, &plain, reference.as_ref(), doc) {
            setup.push(call.setup_s);
            sps.push(call.samples / call.train_s);
            rss.push(sys::peak_rss_mb());
            reference.get_or_insert(call.outcome);
        }
        if doc.attempted as usize >= MIN_CALLS && sps.is_empty() {
            break; // every call fails: stop early, the run is already lost
        }
    }
    if sps.is_empty() {
        return;
    }
    doc.metric("samples_per_s", "samples/s", Clock::Wall, name, &sps);
    doc.metric("setup_s", "s", Clock::Wall, name, &setup);
    let reference = reference.expect("a call succeeded");
    if let Some(acc) = reference.accuracy() {
        doc.metric("final_accuracy", "fraction", Clock::None, name, &[acc]);
    }
    if w.is_sim() {
        doc.attempted += 1;
        if !observation_is_passive(w, seed, &reference, doc) {
            doc.failed += 1;
        }
    }
    let error_rate = doc.failed as f64 / doc.attempted as f64;
    doc.metric("error_rate", "fraction", Clock::None, name, &[error_rate]);
    doc.metric("peak_rss_mb", "MB", Clock::None, name, &rss);
}

/// A traced simulator run must agree exactly with the untraced one on
/// virtual end time, iterations, traffic and accuracy, and at the default
/// seed both must equal the pinned reference.
pub fn observation_is_passive(w: Workload, seed: u64, untraced: &Outcome, doc: &mut Doc) -> bool {
    let sink = ObsSink::with_capacity(TRACE_CAPACITY);
    let traced = sim_outcome(&run_observed(&sim_config(w, seed), &sink));
    let mut ok = doc.check(
        format!("{}.traced_equals_untraced", w.name()),
        &traced == untraced,
        format!("traced {traced:?} vs untraced {untraced:?}"),
    );
    ok &= doc.check(
        format!("{}.trace_dropped_zero", w.name()),
        sink.dropped() == 0,
        format!("{} events dropped", sink.dropped()),
    );
    if seed == DEFAULT_SEED {
        if let Some(p) = pin(w) {
            ok &= doc.check(
                format!("{}.default_seed_pinned", w.name()),
                untraced == p,
                format!("untraced {untraced:?}"),
            );
        }
    }
    ok
}
