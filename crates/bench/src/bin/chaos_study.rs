//! Network-adversity study: the seven algorithms under three seeded link
//! scenarios — `clean`, `bursty` (Poisson cross-traffic bursts plus
//! ambient jitter), and `wan` (a sustained 50× inter-machine squeeze) —
//! each with the adaptive degradation controller off and on.
//!
//! The simulator is bit-deterministic, so every reported metric is exact:
//! the `--baseline` gate against the committed `BENCH_010.json` trips on
//! any drift at all, and a drift is a real change to the chaos trace
//! generators, the network model, or the controller. The binary also
//! self-checks two acceptance bars: under the WAN squeeze the controller
//! must trip BSP (comm-bound probe → DGC on), and on a clean fabric it
//! must *not* trip — an idle controller may cost nothing.
//!
//! Flags: `--smoke` runs the short variant only (the records CI gates
//! on), `--baseline PATH` gates against a committed trajectory, `--out
//! PATH` overrides the output (default `BENCH_010.json`), `--csv DIR`
//! archives the tables.

use dtrain_algos::adaptive::run_adaptive;
use dtrain_algos::{
    run_observed, Algo, FaultConfig, OptimizationConfig, RealTraining, RunConfig, StopCondition,
    SyntheticTask,
};
use dtrain_bench::trajectory::{check_baseline, write_trajectory, TrajRecord};
use dtrain_bench::HarnessOpts;
use dtrain_cluster::{ClusterConfig, NetworkConfig};
use dtrain_core::report::Table;
use dtrain_data::TeacherTaskConfig;
use dtrain_desim::SimTime;
use dtrain_faults::{
    bursty_trace, jitter_trace, merge, wan_squeeze_trace, ChaosTraceCfg, CtrlAction, CtrlPlan,
};
use dtrain_models::resnet50;
use dtrain_obs::export::canonical_trace;
use dtrain_obs::ObsSink;

const STUDY_SEED: u64 = 17;
const MACHINES: usize = 4;

const ALGOS: [Algo; 7] = [
    Algo::Bsp,
    Algo::Asp,
    Algo::Ssp { staleness: 3 },
    Algo::Easgd {
        tau: 4,
        alpha: None,
    },
    Algo::ArSgd,
    Algo::GoSgd { p: 0.5 },
    Algo::AdPsgd,
];

const SCENARIOS: [&str; 3] = ["clean", "bursty", "wan"];

fn trace_cfg() -> ChaosTraceCfg {
    ChaosTraceCfg {
        seed: STUDY_SEED,
        machines: MACHINES,
        // Comfortably past the longest cell's virtual end time, so every
        // scenario shapes the whole run.
        horizon: SimTime::from_secs(60),
    }
}

/// A seeded adversity schedule for one scenario name (`None` = clean).
fn scenario_schedule(name: &str) -> Option<FaultConfig> {
    let schedule = match name {
        "clean" => return None,
        "bursty" => merge(&[
            bursty_trace(trace_cfg(), 6.0, SimTime::from_millis(300), 0.15),
            jitter_trace(trace_cfg(), SimTime::from_millis(500), 0.3),
        ]),
        "wan" => wan_squeeze_trace(trace_cfg(), SimTime::ZERO, SimTime::from_secs(60), 0.02),
        other => panic!("unknown scenario {other}"),
    };
    Some(FaultConfig {
        schedule,
        checkpoint_interval: 0,
        elastic: None,
    })
}

/// Four single-GPU machines on a 56 Gbps fabric, ResNet-50 cost profile,
/// real teacher-task math so the controller's parameter adoption is
/// exercised end to end.
fn cell_cfg(algo: Algo, scenario: &str, epochs: u64) -> RunConfig {
    let mut cluster = ClusterConfig::paper(NetworkConfig::FIFTY_SIX_GBPS);
    cluster.machines = MACHINES;
    cluster.gpus_per_machine = 1;
    RunConfig {
        algo,
        cluster,
        workers: 4,
        profile: resnet50(),
        batch: 128,
        opts: OptimizationConfig {
            // PS sharding only applies to the centralized algorithms.
            ps_shards: if algo.is_centralized() { 2 } else { 1 },
            ..Default::default()
        },
        stop: StopCondition::Epochs(epochs),
        faults: scenario_schedule(scenario),
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

fn ctrl(probe_epochs: u64) -> CtrlPlan {
    CtrlPlan {
        enabled: true,
        probe_epochs,
        ..Default::default()
    }
}

struct Cell {
    end_secs: f64,
    accuracy: f32,
    inter_bytes: u64,
    action: CtrlAction,
}

fn run_cell(algo: Algo, scenario: &str, epochs: u64, probe: Option<u64>) -> Cell {
    let cfg = cell_cfg(algo, scenario, epochs);
    match probe {
        None => {
            let out = run_observed(&cfg, &ObsSink::disabled());
            Cell {
                end_secs: out.end_time.as_secs_f64(),
                accuracy: out.final_accuracy.unwrap_or(0.0),
                inter_bytes: out.traffic.inter_bytes,
                action: CtrlAction::Stay,
            }
        }
        Some(probe_epochs) => {
            let out = run_adaptive(&cfg, &ctrl(probe_epochs), &ObsSink::disabled());
            Cell {
                end_secs: out.segments.iter().map(|s| s.end_time.as_secs_f64()).sum(),
                accuracy: out.last().final_accuracy.unwrap_or(0.0),
                inter_bytes: out.segments.iter().map(|s| s.traffic.inter_bytes).sum(),
                action: out.action,
            }
        }
    }
}

/// Run the full matrix at one scale; emit the table and exact trajectory
/// records (`_smoke` suffix distinguishes the short variant).
fn run_variant(
    opts: &HarnessOpts,
    epochs: u64,
    probe_epochs: u64,
    suffix: &str,
    records: &mut Vec<TrajRecord>,
    divergences: &mut Vec<String>,
) {
    let mut table = Table::new(
        format!(
            "chaos matrix: {} algos x {} scenarios x ctrl off/on (seed {}{})",
            ALGOS.len(),
            SCENARIOS.len(),
            STUDY_SEED,
            if suffix.is_empty() { "" } else { ", smoke" }
        ),
        &[
            "algo", "scenario", "ctrl", "end_s", "acc", "inter_MB", "action",
        ],
    );
    for algo in ALGOS {
        for scenario in SCENARIOS {
            for ctrl_on in [false, true] {
                let cell = run_cell(algo, scenario, epochs, ctrl_on.then_some(probe_epochs));
                let ctrl_tag = if ctrl_on { "on" } else { "off" };
                table.push_row(vec![
                    algo.name().to_string(),
                    scenario.to_string(),
                    ctrl_tag.to_string(),
                    format!("{:.3}", cell.end_secs),
                    format!("{:.3}", cell.accuracy),
                    format!("{:.1}", cell.inter_bytes as f64 / 1e6),
                    format!("{:?}", cell.action),
                ]);
                records.push(TrajRecord {
                    kernel: format!(
                        "chaos_{}_{}_{}{suffix}",
                        algo.name().to_lowercase().replace('-', ""),
                        scenario,
                        ctrl_tag
                    ),
                    threads: 1,
                    ms: cell.end_secs * 1e3,
                    oversubscribed: false,
                });

                // Acceptance bars, checked on the BSP row of every
                // variant: the controller must trip under the WAN squeeze
                // and must not trip on a clean fabric.
                if algo == Algo::Bsp && ctrl_on {
                    match scenario {
                        "wan" if cell.action == CtrlAction::Stay => divergences.push(format!(
                            "acceptance: BSP under the WAN squeeze did not trip \
                             (action {:?}{suffix})",
                            cell.action
                        )),
                        "clean" if cell.action != CtrlAction::Stay => divergences.push(format!(
                            "acceptance: BSP on a clean fabric tripped to {:?}{suffix}",
                            cell.action
                        )),
                        _ => {}
                    }
                }
            }
        }
    }
    opts.emit(&table, &format!("chaos_matrix{}", suffix.replace('_', "")));
}

/// Same cell, run twice: trace and end time must be bit-identical.
fn determinism_self_check(epochs: u64, probe_epochs: u64, divergences: &mut Vec<String>) {
    let record = || {
        let sink = ObsSink::enabled();
        let out = run_adaptive(
            &cell_cfg(Algo::Bsp, "wan", epochs),
            &ctrl(probe_epochs),
            &sink,
        );
        let end = out.segments.last().expect("segments").end_time;
        (out.action, end, canonical_trace(&sink.snapshot()))
    };
    let (aa, ae, at) = record();
    let (ba, be, bt) = record();
    if aa != ba || ae != be {
        divergences.push("determinism: adaptive wan cell differs between identical runs".into());
    }
    if at != bt {
        divergences
            .push("determinism: adaptive wan cell trace differs between identical runs".into());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut baseline: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--baseline" => {
                i += 1;
                baseline = Some(args.get(i).expect("--baseline requires a path").clone());
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).expect("--out requires a path").clone());
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    let opts = HarnessOpts::from_args(&rest);

    let mut records = Vec::new();
    let mut divergences = Vec::new();

    // The smoke records are always produced: they are what CI's exact
    // baseline gate compares. The full variant reruns the matrix at
    // training length.
    run_variant(&opts, 3, 1, "_smoke", &mut records, &mut divergences);
    determinism_self_check(3, 1, &mut divergences);
    if !smoke {
        run_variant(&opts, 6, 2, "", &mut records, &mut divergences);
    }

    if let Some(path) = &baseline {
        check_baseline(path, &records, &mut divergences);
    }
    let out = out_path.as_deref().unwrap_or("BENCH_010.json");
    let meta = [
        ("study", "\"chaos_study\"".to_string()),
        ("smoke", smoke.to_string()),
        ("seed", STUDY_SEED.to_string()),
        ("machines", MACHINES.to_string()),
        ("algos", ALGOS.len().to_string()),
    ];
    write_trajectory(out, &meta, &records, &divergences).expect("write trajectory");
    println!("wrote {out} ({} records)", records.len());

    if !divergences.is_empty() {
        eprintln!("CHAOS STUDY DIVERGENCE:");
        for d in &divergences {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}
