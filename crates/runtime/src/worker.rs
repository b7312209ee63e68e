//! The algorithm bodies, written once.
//!
//! [`worker_body`] is the single implementation of the seven aggregation
//! algorithms' per-worker control flow. It is generic over
//! [`ExecBackend`], so the identical code drives OS threads over shared
//! memory (`ThreadedBackend`, this crate) and OS processes over TCP
//! (`ProcBackend`, `dtrain-proc`). What the paper's algorithms *do* lives
//! here; how bytes move lives in the backend.

use std::time::Instant;

use dtrain_data::Dataset;
use dtrain_faults::{markers, Algo};
use dtrain_nn::{LrSchedule, Network, SgdMomentum};
use dtrain_obs::{names, Phase, TrackHandle, NO_ITER};
use dtrain_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::{ExecBackend, PeerRequest, RunPlan};

/// What one worker hands back when its share of the run is over.
pub struct WorkerOutcome {
    /// Final replica parameters.
    pub params: dtrain_nn::ParamSet,
    /// Iterations actually executed (skipped dead rounds excluded).
    pub iterations: u64,
    /// Cumulative payload bytes pushed (the `logical.bytes` counter).
    pub logical_bytes: u64,
    /// Wall time this worker spent *busy* — gradient computation plus the
    /// backend's per-iteration local work (which is where straggler
    /// slowdowns are injected on the threaded and proc paths). Excludes
    /// blocking exchanges, so a straggler's busy time stands out even
    /// under a barrier that equalizes iteration wall time. This is the
    /// [`dtrain_faults::CtrlSignals::straggle_ratio`] feedstock.
    pub busy: std::time::Duration,
}

/// One timed gradient computation: runs `train_batch`, records it as a
/// `compute` span on the worker's obs track, and returns the elapsed time
/// (accumulated into [`WorkerOutcome::busy`]).
pub(crate) fn timed_train(
    net: &mut Network,
    x: Tensor,
    y: &[usize],
    obs: &TrackHandle,
    clock: &Instant,
) -> std::time::Duration {
    let start = Instant::now();
    let t0 = clock.elapsed().as_nanos() as u64;
    net.train_batch(x, y);
    let t1 = clock.elapsed().as_nanos() as u64;
    obs.span(t0, t1 - t0, Phase::Compute.name(), NO_ITER);
    start.elapsed()
}

/// Execute this worker's share of the run described by `plan` against
/// `backend`, training `net` on its shard of `train`.
///
/// Obs events land on `obs` stamped with nanoseconds since `wall` — the
/// *logical* counters (payload bytes, iteration counts) are deterministic
/// and comparable across all three execution paths; timestamps are not.
pub fn worker_body<B: ExecBackend>(
    backend: &mut B,
    mut net: Network,
    train: &Dataset,
    plan: &RunPlan,
    obs: &TrackHandle,
    wall: Instant,
) -> WorkerOutcome {
    let w = backend.rank();
    let shard = train.shard(w, plan.workers);
    let sched = LrSchedule::paper_scaled(plan.workers, plan.base_lr, plan.epochs as f32);
    let mut opt = SgdMomentum::new(plan.momentum, plan.weight_decay);
    let mut rng =
        SmallRng::seed_from_u64(plan.seed ^ (w as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let per_epoch = shard.len() / plan.batch;
    let n = plan.workers as f32;
    let mut alpha = 1.0 / n; // gossip mixing weight
    let mut cache_ts = 0u64; // SSP cache timestamp
    let mut clock = 0u64;
    let passives: Vec<usize> = (0..plan.workers).filter(|v| v % 2 == 1).collect();
    let num_actives = (0..plan.workers).filter(|v| v % 2 == 0).count();
    let is_active = w.is_multiple_of(2);
    // AD-PSGD passive bookkeeping: actives may finish (and send Done)
    // while this passive is still training, so the count must persist
    // across the training loop and the final drain.
    let mut dones = 0usize;
    let mut local_iter = 0u64;
    let mut executed = 0u64;
    // Cumulative payload bytes this worker pushed (mirrors the simulator's
    // `logical.bytes` counter exactly: same model, same push schedule).
    let mut logical = 0u64;
    let mut busy = std::time::Duration::ZERO;
    let ns = |clock: &Instant| clock.elapsed().as_nanos() as u64;
    backend.startup(&net.get_params(), &opt);

    for epoch in 0..plan.epochs {
        for (bi, batch) in shard
            .epoch_batches(plan.batch, plan.seed ^ w as u64, epoch)
            .into_iter()
            .enumerate()
        {
            let epoch_f = epoch as f32 + bi as f32 / per_epoch as f32;
            let full_lr = sched.lr_at(epoch_f);
            let grad_lr = full_lr / n;
            let it_idx = epoch * per_epoch as u64 + bi as u64;

            // Elastic membership gate: a dead round is skipped outright —
            // no compute, no barrier seat, no heartbeat. A rejoin round
            // re-enters with fresh state pulled at the current epoch.
            if backend.elastic() {
                if backend.death_round(w) == Some(it_idx) {
                    markers::crash(obs, ns(&wall), w);
                    markers::evict(obs, ns(&wall), w);
                    backend.note_eviction();
                    if matches!(plan.strategy, Algo::Ssp { .. }) {
                        // Park the dead clock so survivors' staleness gate
                        // excludes it (a stalled clock would block them).
                        backend.park_clock();
                    }
                }
                if !backend.is_live(w, it_idx) {
                    continue;
                }
                if backend.rejoin_round(w) == Some(it_idx) {
                    match plan.strategy {
                        Algo::Bsp | Algo::Asp | Algo::Ssp { .. } | Algo::Easgd { .. } => {
                            // Pull the current parameters from the server.
                            let fresh = backend.ps_snapshot();
                            net.set_params(&fresh);
                            opt.reset();
                        }
                        Algo::ArSgd | Algo::GoSgd { .. } | Algo::AdPsgd => {
                            // No server: resume from the latest checkpoint
                            // (peer averaging re-converges the replica).
                            if let Some((p, o, cp_iter)) = backend.checkpoint_restore() {
                                net.set_params(&p);
                                opt = o;
                                markers::ckpt_restore(obs, ns(&wall), cp_iter);
                            }
                            alpha = 1.0 / n; // gossip mixing mass as at init
                        }
                    }
                    if matches!(plan.strategy, Algo::Ssp { .. }) {
                        clock = it_idx;
                        cache_ts = it_idx;
                        backend.bump_clock(it_idx);
                    }
                    backend.note_rejoin();
                    markers::rejoin(obs, ns(&wall), w);
                }
            }

            // Consume any crash points reached: lose the replica, wait out
            // the supervisor backoff, restore from the checkpoint. (With
            // elastic membership the view already encodes the crashes; on
            // the process path crashes are real signals, never injected.)
            while let Some(restored) = backend.poll_crash(local_iter) {
                if let Some((p, o, _)) = restored {
                    net.set_params(&p);
                    opt = o;
                }
            }
            let it_start = Instant::now();
            obs.enter(ns(&wall), names::ITER, it_idx);

            match plan.strategy {
                Algo::Bsp => {
                    let (x, y) = train.gather(&batch);
                    busy += timed_train(&mut net, x, &y, obs, &wall);
                    let grad = net.grads();
                    logical += grad.num_bytes();
                    obs.counter(ns(&wall), names::LOGICAL_BYTES, logical as i64);
                    let out = if plan.collective.is_flat() {
                        backend.bsp_exchange(it_idx, grad, full_lr)
                    } else {
                        let live = backend.live_at(it_idx);
                        crate::collective::hier_bsp_exchange(
                            backend,
                            it_idx,
                            grad,
                            full_lr,
                            &live,
                            plan.gpus_per_machine,
                            obs,
                            &wall,
                        )
                    };
                    if let Some(arrived) = out.arrived {
                        if arrived < out.expected {
                            markers::partial_barrier(obs, ns(&wall), arrived);
                        }
                    }
                    net.set_params(&out.params);
                }
                Algo::Asp => {
                    let (x, y) = train.gather(&batch);
                    busy += timed_train(&mut net, x, &y, obs, &wall);
                    backend.ps_gate();
                    let grad = net.grads();
                    logical += grad.num_bytes();
                    obs.counter(ns(&wall), names::LOGICAL_BYTES, logical as i64);
                    let fresh = backend.ps_push_pull(&grad, grad_lr);
                    net.set_params(&fresh);
                    backend.ps_applied();
                }
                Algo::Ssp { staleness } => {
                    let (x, y) = train.gather(&batch);
                    busy += timed_train(&mut net, x, &y, obs, &wall);
                    let grad = net.grads();
                    logical += grad.num_bytes();
                    obs.counter(ns(&wall), names::LOGICAL_BYTES, logical as i64);
                    // push to the global table
                    backend.ps_gate();
                    backend.ps_push(&grad, grad_lr);
                    backend.ps_applied();
                    // local update on the cache
                    let mut p = net.get_params();
                    opt.step(&mut p, &grad, grad_lr);
                    net.set_params(&p);
                    clock += 1;
                    backend.bump_clock(clock);
                    if clock > cache_ts + staleness {
                        let min = backend.wait_min_clock(clock - staleness);
                        let fresh = backend.ps_snapshot();
                        net.set_params(&fresh);
                        opt.reset();
                        cache_ts = min;
                    }
                    obs.counter(
                        ns(&wall),
                        names::STALENESS,
                        clock.saturating_sub(cache_ts) as i64,
                    );
                }
                Algo::Easgd { tau, alpha } => {
                    let a = Algo::easgd_alpha(alpha, plan.workers);
                    let (x, y) = train.gather(&batch);
                    busy += timed_train(&mut net, x, &y, obs, &wall);
                    let grad = net.grads();
                    let mut p = net.get_params();
                    opt.step(&mut p, &grad, grad_lr);
                    net.set_params(&p);
                    clock += 1;
                    if clock.is_multiple_of(tau) {
                        backend.ps_gate();
                        let push = net.get_params();
                        logical += push.num_bytes();
                        obs.counter(ns(&wall), names::LOGICAL_BYTES, logical as i64);
                        let updated = backend.ps_elastic_exchange(&push, a);
                        net.set_params(&updated);
                        backend.ps_applied();
                    }
                }
                Algo::GoSgd { p } => {
                    let (x, y) = train.gather(&batch);
                    busy += timed_train(&mut net, x, &y, obs, &wall);
                    let grad = net.grads();
                    let mut px = net.get_params();
                    opt.step(&mut px, &grad, grad_lr);
                    net.set_params(&px);
                    // merge everything queued
                    for (params, msg_alpha) in backend.gossip_drain() {
                        let anew = alpha + msg_alpha;
                        let mut x = net.get_params();
                        x.lerp(&params, msg_alpha / anew);
                        net.set_params(&x);
                        alpha = anew;
                    }
                    if rng.gen::<f64>() < p && plan.workers > 1 {
                        // Elastic targeting draws from the live cohort so
                        // shares never chase an evicted replica.
                        let target = if backend.elastic() {
                            let mut live = backend.live_at(it_idx);
                            live.retain(|&x| x != w);
                            if live.is_empty() {
                                None
                            } else {
                                Some(live[rng.gen_range(0..live.len())])
                            }
                        } else {
                            Some(loop {
                                let t = rng.gen_range(0..plan.workers);
                                if t != w {
                                    break t;
                                }
                            })
                        };
                        if let Some(target) = target {
                            alpha *= 0.5;
                            let share = net.get_params();
                            logical += share.num_bytes();
                            obs.counter(ns(&wall), names::LOGICAL_BYTES, logical as i64);
                            backend.gossip_send(target, share, alpha);
                        }
                    }
                }
                Algo::ArSgd => unreachable!("RunPlan::validate rejects AR-SGD"),
                Algo::AdPsgd => {
                    if is_active {
                        // initiate the exchange, overlap with compute;
                        // elastic draws only from passives scheduled live
                        // this round — none live means a pure local round.
                        let target = if backend.elastic() {
                            let live: Vec<usize> = passives
                                .iter()
                                .copied()
                                .filter(|&v| backend.is_live(v, it_idx))
                                .collect();
                            if live.is_empty() {
                                None
                            } else {
                                Some(live[rng.gen_range(0..live.len())])
                            }
                        } else {
                            Some(passives[rng.gen_range(0..passives.len())])
                        };
                        let mut pending = false;
                        if let Some(target) = target {
                            let mine = net.get_params();
                            logical += mine.num_bytes();
                            obs.counter(ns(&wall), names::LOGICAL_BYTES, logical as i64);
                            backend.exchange_request(target, mine);
                            pending = true;
                        }
                        let (x, y) = train.gather(&batch);
                        busy += timed_train(&mut net, x, &y, obs, &wall);
                        let grad = net.grads();
                        if pending {
                            // The backend owns the transport deadline:
                            // bounded retry waits, then the exchange is
                            // abandoned (elastic only).
                            if let Some(mid) = backend.exchange_await() {
                                net.set_params(&mid);
                            }
                        }
                        let mut p = net.get_params();
                        opt.step(&mut p, &grad, grad_lr);
                        net.set_params(&p);
                    } else {
                        let (x, y) = train.gather(&batch);
                        busy += timed_train(&mut net, x, &y, obs, &wall);
                        let grad = net.grads();
                        let mut p = net.get_params();
                        opt.step(&mut p, &grad, grad_lr);
                        net.set_params(&p);
                        // serve queued exchange requests
                        while let Some(req) = backend.exchange_next(false) {
                            serve_exchange(
                                backend,
                                &mut net,
                                req,
                                &mut dones,
                                obs,
                                &wall,
                                &mut logical,
                            );
                        }
                    }
                }
            }

            local_iter += 1;
            executed += 1;
            let mut state = || (net.get_params(), opt.clone());
            let local_start = Instant::now();
            backend.iter_end(it_idx, local_iter, it_start.elapsed(), &mut state);
            // iter_end is local work (checkpointing, injected slowdown), so
            // it counts as busy; the straggler signal lives here.
            busy += local_start.elapsed();
            obs.exit(ns(&wall), names::ITER);
        }
    }
    backend.finish();

    // AD-PSGD teardown: actives announce completion; passives serve until
    // every active is done (otherwise actives could block forever).
    if matches!(plan.strategy, Algo::AdPsgd) {
        if is_active {
            backend.announce_done();
        } else {
            while dones < num_actives {
                match backend.exchange_next(true) {
                    Some(req) => {
                        serve_exchange(backend, &mut net, req, &mut dones, obs, &wall, &mut logical)
                    }
                    None => break,
                }
            }
        }
    }
    WorkerOutcome {
        params: net.get_params(),
        iterations: executed,
        logical_bytes: logical,
        busy,
    }
}

/// Passive side of one AD-PSGD exchange: adopt and return the midpoint.
fn serve_exchange<B: ExecBackend>(
    backend: &mut B,
    net: &mut Network,
    req: PeerRequest,
    dones: &mut usize,
    obs: &TrackHandle,
    clock: &Instant,
    logical: &mut u64,
) {
    match req {
        PeerRequest::Exchange { params, token } => {
            let mut mine = net.get_params();
            mine.lerp(&params, 0.5);
            net.set_params(&mine);
            *logical += mine.num_bytes();
            obs.counter(
                clock.elapsed().as_nanos() as u64,
                names::LOGICAL_BYTES,
                *logical as i64,
            );
            backend.exchange_reply(token, mine);
        }
        PeerRequest::Done => *dones += 1,
    }
}
