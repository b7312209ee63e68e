//! Run assembly: spawn the right processes for an algorithm, execute the
//! simulation, and distill the outputs (throughput, breakdowns, accuracy
//! curves).

use std::sync::Arc;

use dtrain_cluster::{Breakdown, LinkWindow, MetricsHub, NetModel, ShardPlan, TrafficStats};
use dtrain_compress::compressed_wire_bytes;
use dtrain_desim::{Pid, SimTime, Simulation, StopReason, TraceRecord};
use dtrain_faults::CheckpointStore;
use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_obs::{names, ObsSink, Track};

use crate::centralized::{
    asp_worker, bsp_worker, easgd_worker, ps_process, ssp_worker, Addr, BspRole, PsCore,
    PsFaultState, PsMode, PsRealState,
};
use crate::collective::{collective_engine, ChunkLayout, EngineCore};
use crate::config::{Algo, RunConfig};
use crate::decentralized::{
    adpsgd_active_worker, adpsgd_is_active, adpsgd_passive_worker, arsgd_worker, gosgd_worker,
    AllReduceBoard,
};
use crate::exec::{build_worker_cores, shard_tensor_indices, slice_set, Msg, Recorder, Snapshot};

/// One evaluated point of the accuracy/time curve (Fig. 1 of the paper).
#[derive(Clone, Debug)]
pub struct EpochPoint {
    pub epoch: u64,
    /// Virtual time at which the slowest contributing worker finished the
    /// epoch.
    pub time: SimTime,
    pub test_accuracy: f32,
    pub test_error: f32,
    /// Max elementwise spread between any worker replica and the replica
    /// mean — the parameter-variance the paper blames for accuracy loss.
    pub drift: f32,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub algo: String,
    pub workers: usize,
    pub end_time: SimTime,
    /// Aggregate images/second of virtual time.
    pub throughput: f64,
    pub total_iterations: u64,
    pub mean_breakdown: Breakdown,
    pub per_worker_breakdown: Vec<Breakdown>,
    pub traffic: TrafficStats,
    /// Accuracy curve (real-math runs only).
    pub curve: Vec<EpochPoint>,
    pub final_accuracy: Option<f32>,
    /// The trained model (real-math runs only): worker 0's replica for
    /// synchronous algorithms, the replica mean otherwise — the same
    /// artifact the accuracy curve evaluates. The adaptive controller
    /// feeds this into the next segment's `initial_params`.
    pub final_params: Option<ParamSet>,
}

impl RunOutput {
    /// Speedup relative to a single-worker throughput baseline.
    pub fn speedup_vs(&self, single_worker_throughput: f64) -> f64 {
        if single_worker_throughput == 0.0 {
            0.0
        } else {
            self.throughput / single_worker_throughput
        }
    }
}

/// How the "trained model" is extracted for evaluation.
fn eval_uses_worker_average(algo: Algo) -> bool {
    // Synchronous algorithms keep replicas identical: worker 0 is the model.
    // Everything else drifts; the conventional artifact is the replica mean.
    !algo.is_synchronous()
}

/// Execute one run.
pub fn run(cfg: &RunConfig) -> RunOutput {
    run_impl(cfg, false, &ObsSink::disabled()).0
}

/// Execute one run with structured-event observation: per-phase spans,
/// iteration spans, NIC queue counters, fault markers, and the kernel's
/// scheduling stream all land in `sink` (see `dtrain_obs`). Observation is
/// timing-passive — the run's virtual-time behaviour is bit-identical to
/// [`run`].
pub fn run_observed(cfg: &RunConfig, sink: &ObsSink) -> RunOutput {
    run_impl(cfg, false, sink).0
}

/// Execute one run with kernel event tracing enabled; returns the output
/// plus the full scheduling trace. Two runs of an identical configuration
/// (same seeds, same fault schedule) must produce identical traces — the
/// determinism contract fault injection is required to preserve.
pub fn run_traced(cfg: &RunConfig) -> (RunOutput, Vec<TraceRecord>) {
    let (out, trace) = run_impl(cfg, true, &ObsSink::disabled());
    (out, trace.expect("tracing was enabled"))
}

fn run_impl(cfg: &RunConfig, trace: bool, sink: &ObsSink) -> (RunOutput, Option<Vec<TraceRecord>>) {
    cfg.validate().expect("invalid run configuration");
    let metrics = MetricsHub::observed(cfg.workers, sink);
    let recorder = Recorder::new();
    let net = NetModel::new(&cfg.cluster);
    net.set_obs(sink);
    // Shared checkpoint store: workers and PS shards snapshot into it and
    // roll back from it on crash/outage.
    let store: Option<Arc<CheckpointStore>> = cfg
        .faults
        .as_ref()
        .map(|f| Arc::new(CheckpointStore::new(f.checkpoint_interval)));
    if let Some(f) = cfg.faults.as_ref() {
        let windows: Vec<LinkWindow> = f
            .schedule
            .link_faults()
            .into_iter()
            .map(|(start, machine, factor, duration)| LinkWindow {
                start,
                machine,
                factor,
                duration,
            })
            .collect();
        if !windows.is_empty() {
            net.set_link_faults(windows);
        }
    }
    let mut cores = build_worker_cores(cfg, &metrics, &recorder, &net, store.as_ref());

    let mut sim: Simulation<Msg> = Simulation::new();
    if trace {
        sim.enable_tracing();
    }
    if sink.is_enabled() {
        // Mirror the kernel's scheduling stream onto the obs timeline: one
        // instant per resume/deliver/kill/spawn, value = pid.
        let kt = sink.track(Track::Kernel);
        sim.set_event_hook(move |rec| {
            let name = match rec.kind {
                0 => names::K_RESUME,
                1 => names::K_DELIVER,
                2 => names::K_KILL,
                _ => names::K_SPAWN,
            };
            kt.instant(rec.time.as_nanos(), name, rec.pid.0 as i64);
        });
    }

    let num_shards = if cfg.algo.is_centralized() {
        cfg.opts.ps_shards
    } else {
        0
    };
    // Pids are assigned densely in spawn order (kernel contract): PS shards
    // first, then workers.
    let profile_bytes: Vec<u64> = cfg.profile.layers.iter().map(|l| l.bytes()).collect();
    let profile_plan = if cfg.opts.balanced_sharding {
        ShardPlan::balanced(&profile_bytes, num_shards.max(1))
    } else {
        ShardPlan::layer_wise(&profile_bytes, num_shards.max(1))
    };
    let ps_addrs: Vec<Addr> = (0..num_shards)
        .map(|s| Addr {
            pid: Pid(s),
            node: profile_plan.machine_of_shard(s, &cfg.cluster),
        })
        .collect();
    let worker_addrs: Vec<Addr> = (0..cfg.workers)
        .map(|w| Addr {
            pid: Pid(num_shards + w),
            node: cfg.cluster.machine_of_worker(w),
        })
        .collect();

    // Elastic centralized runs share a live shard→machine map: a PS-shard
    // machine loss re-homes the shard there and worker traffic follows.
    let ps_homes = if cfg.is_elastic() && cfg.algo.is_centralized() && num_shards > 0 {
        Some(profile_plan.homes(&cfg.cluster))
    } else {
        None
    };
    for core in cores.iter_mut() {
        core.ps_homes = ps_homes.clone();
    }

    // ---- spawn PS shards (centralized algorithms) ----
    if cfg.algo.is_centralized() {
        let global_shards = build_global_shard_params(cfg, num_shards);
        let leaders = bsp_leaders(cfg);
        for s in 0..num_shards {
            let real = global_shards.as_ref().map(|slices| PsRealState {
                params: slices[s].clone(),
                // Under DGC the pushed gradients already carry momentum
                // (Lin et al.'s momentum correction replaces the optimizer's
                // momentum); the server must not apply it twice.
                opt: SgdMomentum::new(
                    if cfg.opts.dgc.is_some() {
                        0.0
                    } else {
                        cfg.real.as_ref().map_or(0.9, |r| r.momentum)
                    },
                    cfg.real.as_ref().map_or(1e-4, |r| r.weight_decay),
                ),
            });
            let reply_bytes = match cfg.opts.dgc.as_ref() {
                Some(d) => compressed_wire_bytes(profile_plan.bytes_of_shard(s), d.final_sparsity),
                None => profile_plan.bytes_of_shard(s),
            };
            let expected_stops = match (cfg.algo, cfg.opts.local_aggregation) {
                (Algo::Bsp, true) => leaders.len(),
                _ => cfg.workers,
            };
            let faults = match (cfg.faults.as_ref(), store.as_ref()) {
                (Some(f), Some(store)) => Some(PsFaultState {
                    outages: f.schedule.ps_failures_for(s).into(),
                    store: Arc::clone(store),
                    applies: 0,
                }),
                _ => None,
            };
            let ps = PsCore {
                shard: s,
                node: ps_addrs[s].node,
                net: net.clone(),
                real,
                reply_bytes,
                workers: worker_addrs.clone(),
                expected_stops,
                faults,
                elastic: cfg.elastic().cloned(),
                homes: ps_homes.clone(),
                machines: cfg.cluster.machines,
                state_bytes: profile_plan.bytes_of_shard(s),
                obs: sink.track(Track::Ps(s as u16)),
                collective: cfg.opts.collective,
            };
            let mode = match cfg.algo {
                Algo::Bsp => PsMode::Bsp {
                    num_senders: if cfg.opts.local_aggregation {
                        leaders.len()
                    } else {
                        cfg.workers
                    },
                },
                Algo::Asp => PsMode::Asp,
                Algo::Ssp { .. } => PsMode::Ssp {
                    num_workers: cfg.workers,
                },
                Algo::Easgd { alpha, .. } => PsMode::Easgd {
                    alpha: Algo::easgd_alpha(alpha, cfg.workers),
                },
                _ => unreachable!(),
            };
            let pid = sim.spawn(format!("ps{s}"), move |ctx| ps_process(ps, mode, ctx));
            assert_eq!(pid, ps_addrs[s].pid, "pid assignment contract");
        }
    }

    // ---- spawn workers ----
    let board = if matches!(cfg.algo, Algo::ArSgd) && cfg.real.is_some() {
        Some(AllReduceBoard::new())
    } else {
        None
    };
    let buckets = if matches!(cfg.algo, Algo::ArSgd) && cfg.opts.wait_free_bp {
        8usize.min(cfg.profile.layers.len().max(1))
    } else {
        1
    };
    let leaders = bsp_leaders(cfg);
    let actives: Vec<usize> = (0..cfg.workers).filter(|&w| adpsgd_is_active(w)).collect();
    let passives: Vec<usize> = (0..cfg.workers).filter(|&w| !adpsgd_is_active(w)).collect();

    // Hierarchical/pipelined AR-SGD: one collective engine per machine,
    // spawned after the workers (pids `num_shards + workers + m`).
    let use_engines = matches!(cfg.algo, Algo::ArSgd) && !cfg.opts.collective.is_flat();
    let engine_addrs: Vec<Addr> = if use_engines {
        (0..cfg.cluster.machines)
            .map(|m| Addr {
                pid: Pid(num_shards + cfg.workers + m),
                node: dtrain_cluster::NodeId(m),
            })
            .collect()
    } else {
        Vec::new()
    };
    // Engines share the workers' membership view Arc, so eviction/rejoin
    // reshapes worker cohorts and engine groups from identical history.
    let engine_view = cores
        .first()
        .and_then(|c| c.elastic.as_ref().map(|e| Arc::clone(&e.view)));

    for (w, core) in cores.drain(..).enumerate() {
        let ps = ps_addrs.clone();
        let peers = worker_addrs.clone();
        let algo = cfg.algo;
        let local_agg = cfg.opts.local_aggregation;
        let leaders = leaders.clone();
        let board = board.clone();
        let passives = passives.clone();
        let collective = cfg.opts.collective;
        let engines = engine_addrs.clone();
        let no_overlap = cfg.opts.disable_overlap;
        let num_actives = actives.len();
        let name = format!("worker{w}");
        let pid = sim.spawn(name, move |ctx| match algo {
            Algo::Bsp => {
                let role = if !local_agg {
                    BspRole::Solo
                } else if let Some(followers) = leaders.get(&w) {
                    BspRole::Leader {
                        followers: followers.iter().map(|&f| peers[f]).collect(),
                    }
                } else {
                    // our machine's leader is the lowest co-located worker
                    let leader_w = *leaders
                        .iter()
                        .find(|(_, fs)| fs.contains(&w))
                        .map(|(l, _)| l)
                        .expect("every follower has a leader");
                    BspRole::Follower {
                        leader: peers[leader_w],
                    }
                };
                bsp_worker(core, ps, role, ctx)
            }
            Algo::Asp => asp_worker(core, ps, ctx),
            Algo::Ssp { staleness } => ssp_worker(core, ps, staleness, ctx),
            Algo::Easgd { tau, .. } => easgd_worker(core, ps, tau, ctx),
            Algo::ArSgd => arsgd_worker(core, peers, board, buckets, collective, engines, ctx),
            Algo::GoSgd { p } => gosgd_worker(core, peers, p, ctx),
            Algo::AdPsgd => {
                if adpsgd_is_active(w) {
                    adpsgd_active_worker(core, peers, passives, !no_overlap, ctx)
                } else {
                    adpsgd_passive_worker(core, peers, num_actives, ctx)
                }
            }
        });
        assert_eq!(pid, worker_addrs[w].pid, "pid assignment contract");
    }

    // ---- spawn collective engines (hierarchical AR-SGD only) ----
    if use_engines {
        let total_iters = crate::exec::resolve_total_iters(cfg);
        for m in 0..cfg.cluster.machines {
            let eng = EngineCore {
                machine: m,
                node: engine_addrs[m].node,
                net: net.clone(),
                obs: sink.track(Track::Machine(m as u16)),
                workers: worker_addrs.clone(),
                engines: engine_addrs.clone(),
                gpus_per_machine: cfg.cluster.gpus_per_machine,
                num_workers: cfg.workers,
                total_iters,
                view: engine_view.clone(),
                layout: ChunkLayout::new(
                    profile_bytes.iter().sum(),
                    cfg.opts.collective,
                    cfg.opts.dgc.as_ref().map(|d| d.final_sparsity),
                ),
            };
            let pid = sim.spawn(format!("coll{m}"), move |ctx| collective_engine(eng, ctx));
            assert_eq!(pid, engine_addrs[m].pid, "pid assignment contract");
        }
    }

    let stats = sim.run();
    assert_eq!(
        stats.reason,
        StopReason::Completed,
        "simulation did not complete cleanly: blocked={:?}",
        stats.blocked
    );

    // ---- distill outputs ----
    let snapshots = recorder.snapshots();
    let curve = if cfg.real.is_some() {
        evaluate_curve(cfg, &snapshots)
    } else {
        Vec::new()
    };
    let final_accuracy = curve.last().map(|p| p.test_accuracy);
    let final_params = if cfg.real.is_some() {
        final_params_of(cfg, &snapshots)
    } else {
        None
    };
    let out = RunOutput {
        algo: cfg.algo.name().to_string(),
        workers: cfg.workers,
        end_time: stats.end_time,
        throughput: metrics.throughput(cfg.batch),
        total_iterations: metrics.total_iterations(),
        mean_breakdown: metrics.mean_breakdown(),
        per_worker_breakdown: metrics.breakdowns(),
        traffic: net.stats(),
        curve,
        final_accuracy,
        final_params,
    };
    (out, stats.trace)
}

/// leader worker → its followers, for BSP local aggregation.
fn bsp_leaders(cfg: &RunConfig) -> std::collections::BTreeMap<usize, Vec<usize>> {
    let mut map = std::collections::BTreeMap::new();
    if !(matches!(cfg.algo, Algo::Bsp) && cfg.opts.local_aggregation) {
        return map;
    }
    for w in 0..cfg.workers {
        let peers = cfg.cluster.machine_peers(w);
        let leader = peers.start; // lowest co-located worker id
        if w == leader {
            map.insert(w, Vec::new());
        } else if leader < cfg.workers {
            map.entry(leader).or_insert_with(Vec::new).push(w);
        }
    }
    map
}

/// Initial global parameters, sliced per PS shard (real mode only).
fn build_global_shard_params(cfg: &RunConfig, num_shards: usize) -> Option<Vec<ParamSet>> {
    let rcfg = cfg.real.as_ref()?;
    let mut net = rcfg.task.build_net(rcfg.model_seed);
    if let Some(p) = &rcfg.initial_params {
        net.set_params(p);
    }
    let layout = net.layout();
    let group_bytes: Vec<u64> = layout.groups.iter().map(|g| g.num_bytes()).collect();
    let plan = if cfg.opts.balanced_sharding {
        ShardPlan::balanced(&group_bytes, num_shards)
    } else {
        ShardPlan::layer_wise(&group_bytes, num_shards)
    };
    let params = net.get_params();
    Some(
        (0..num_shards)
            .map(|s| slice_set(&params, &shard_tensor_indices(&layout, &plan, s)))
            .collect(),
    )
}

/// The trained model at the last completed epoch, selected the same way
/// [`evaluate_curve`] picks the model it evaluates.
fn final_params_of(cfg: &RunConfig, snapshots: &[Snapshot]) -> Option<ParamSet> {
    let max_epoch = snapshots.iter().map(|s| s.epoch).max()?;
    let of_epoch: Vec<&Snapshot> = snapshots.iter().filter(|s| s.epoch == max_epoch).collect();
    if of_epoch.is_empty() {
        return None;
    }
    let params: Vec<&ParamSet> = of_epoch.iter().map(|s| &s.params).collect();
    let mean = ParamSet::mean_of(&params);
    Some(if eval_uses_worker_average(cfg.algo) {
        mean
    } else {
        of_epoch
            .iter()
            .find(|s| s.worker == 0)
            .map(|s| s.params.clone())
            .unwrap_or(mean)
    })
}

/// Evaluate the recorded snapshots into an accuracy curve.
fn evaluate_curve(cfg: &RunConfig, snapshots: &[Snapshot]) -> Vec<EpochPoint> {
    let rcfg = cfg.real.as_ref().expect("real mode");
    let (_train, test) = rcfg.datasets();
    let (x, y) = test.as_batch();
    let mut eval_net = rcfg.task.build_net(rcfg.model_seed);
    let use_average = eval_uses_worker_average(cfg.algo);
    let max_epoch = snapshots.iter().map(|s| s.epoch).max().unwrap_or(0);
    let mut out = Vec::new();
    for e in 1..=max_epoch {
        let of_epoch: Vec<&Snapshot> = snapshots.iter().filter(|s| s.epoch == e).collect();
        if of_epoch.is_empty() {
            continue;
        }
        let time = of_epoch.iter().map(|s| s.time).max().expect("nonempty");
        let params: Vec<&ParamSet> = of_epoch.iter().map(|s| &s.params).collect();
        let mean = ParamSet::mean_of(&params);
        let drift = params
            .iter()
            .fold(0.0f32, |m, p| m.max(p.max_abs_diff(&mean)));
        let chosen = if use_average {
            mean
        } else {
            of_epoch
                .iter()
                .find(|s| s.worker == 0)
                .map(|s| s.params.clone())
                .unwrap_or(mean)
        };
        eval_net.set_params(&chosen);
        let (_loss, acc) = eval_net.eval_batch(x.clone(), &y);
        out.push(EpochPoint {
            epoch: e,
            time,
            test_accuracy: acc,
            test_error: 1.0 - acc,
            drift,
        });
    }
    out
}
