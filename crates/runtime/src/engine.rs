//! The threaded training engine: N OS threads, each owning a model replica
//! and a data shard, aggregating through the chosen [`Algo`].
//!
//! This is the "production" counterpart of the simulator in `dtrain-algos`:
//! same algorithms, real parallelism, real wall-clock. Execution is
//! nondeterministic (true races decide interleavings), so tests assert
//! learning outcomes rather than exact values.
//!
//! The algorithm bodies themselves live in [`crate::worker_body`], written
//! once against the [`ExecBackend`] trait; this module provides
//! [`ThreadedBackend`] — the shared-memory implementation — plus the
//! thread supervisor (fault injection, watchdog, final aggregation).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver};
use dtrain_cluster::CollectiveSchedule;
use dtrain_data::Dataset;
use dtrain_faults::{markers, Algo, CheckpointStore, MembershipView, RuntimeFaultSchedule};
use dtrain_nn::{Network, ParamSet, SgdMomentum};
use dtrain_obs::{ObsSink, Track, TrackHandle};
use parking_lot::Mutex;

use crate::backend::{BspOutcome, ExecBackend, PeerRequest, ReplyToken, RunPlan};
use crate::strategy::{ExchangeMsg, GossipMsg, PeerCtrl, PeerNet, PsState};
use crate::sync::ElasticBarrier;
use crate::worker::worker_body;

/// Checkpoint-store owner key for the shared parameter server (workers use
/// their own index; mirrors the simulator's `PS_OWNER_BASE` convention).
const PS_OWNER: usize = 1 << 20;

/// Fault injection for the threaded runtime: an iteration-indexed schedule
/// plus the supervisor policy (checkpoint cadence, bounded restart retries
/// with backoff, heartbeat watchdog threshold).
#[derive(Clone, Debug)]
pub struct RuntimeFaultConfig {
    pub schedule: RuntimeFaultSchedule,
    /// Local iterations between worker checkpoint snapshots (0 = only the
    /// initial snapshot).
    pub checkpoint_interval: u64,
    /// Wall-clock delay before a crashed worker is restarted.
    pub restart_backoff: Duration,
    /// Total restart budget for the run; crashes beyond it are abandoned
    /// (counted in [`ThreadedReport::abandoned_restarts`]).
    pub max_restarts: u64,
    /// Watchdog threshold: a worker silent for longer than this counts a
    /// missed heartbeat.
    pub heartbeat_timeout: Duration,
    /// Elastic membership: the same round-indexed view the simulator
    /// consults, keyed here by each worker's local iteration index. A dead
    /// round is skipped outright (no compute, no barrier seat) instead of
    /// being restarted; rejoiners re-enter at the current round with fresh
    /// state. `None` = classic restart-based recovery. When set, the
    /// iteration-indexed crash schedule is ignored (the view encodes it).
    pub elastic: Option<Arc<MembershipView>>,
    /// Elastic only: how long a peer-exchange reply may take before one
    /// bounded retry wait is charged (and eventually abandoned).
    pub transfer_deadline: Duration,
    /// Elastic only: reply waits after the deadline before the exchange is
    /// abandoned.
    pub max_transfer_retries: u32,
    /// Elastic only: a BSP round that cannot fill within this window
    /// force-closes partially so survivors keep making progress.
    pub barrier_deadline: Duration,
}

impl Default for RuntimeFaultConfig {
    fn default() -> Self {
        RuntimeFaultConfig {
            schedule: RuntimeFaultSchedule::default(),
            checkpoint_interval: 10,
            restart_backoff: Duration::from_millis(20),
            max_restarts: 8,
            heartbeat_timeout: Duration::from_secs(5),
            elastic: None,
            transfer_deadline: Duration::from_millis(500),
            max_transfer_retries: 3,
            barrier_deadline: Duration::from_secs(2),
        }
    }
}

/// Default replica count for threaded runs: the `DTRAIN_THREADS` override
/// if set (the same knob that sizes the kernel thread pool), else 4.
pub fn default_workers() -> usize {
    std::env::var("DTRAIN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Configuration for a threaded training run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    pub workers: usize,
    pub epochs: u64,
    pub batch: usize,
    pub strategy: Algo,
    /// Single-worker base LR; scaled/warmed/decayed like the paper.
    pub base_lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub seed: u64,
    pub faults: Option<RuntimeFaultConfig>,
    /// BSP reduction schedule; see [`RunPlan::collective`].
    pub collective: CollectiveSchedule,
    /// Ranks per synthetic machine group for the hierarchical schedules.
    pub gpus_per_machine: usize,
}

impl ThreadedConfig {
    /// The path-agnostic slice handed to [`worker_body`].
    pub fn plan(&self) -> RunPlan {
        RunPlan {
            workers: self.workers,
            epochs: self.epochs,
            batch: self.batch,
            strategy: self.strategy,
            base_lr: self.base_lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            seed: self.seed,
            collective: self.collective,
            gpus_per_machine: self.gpus_per_machine,
        }
    }
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            workers: default_workers(),
            epochs: 10,
            batch: 32,
            strategy: Algo::Bsp,
            base_lr: 0.02,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
            faults: None,
            collective: CollectiveSchedule::Flat,
            gpus_per_machine: 2,
        }
    }
}

/// Outcome of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    pub strategy: &'static str,
    pub final_accuracy: f32,
    pub final_loss: f32,
    pub wall_time: Duration,
    pub total_iterations: u64,
    /// Max elementwise spread between replicas at the end.
    pub final_drift: f32,
    /// Worker crash-restarts executed (checkpoint restore after backoff).
    pub restarts: u64,
    /// Crashes past the bounded-retry budget (worker kept its live state).
    pub abandoned_restarts: u64,
    /// PS outages consumed (server state rolled back to its checkpoint).
    pub ps_recoveries: u64,
    /// Watchdog observations of a worker silent past `heartbeat_timeout`.
    pub missed_heartbeats: u64,
    /// Elastic membership: workers evicted from the cohort (no restart).
    pub evictions: u64,
    /// Elastic membership: workers that re-entered at a later round.
    pub rejoins: u64,
    /// The aggregate model (replica mean over the final cohort) — the
    /// state a follow-on segment adopts across a controller switch.
    pub final_params: ParamSet,
    /// Per-worker busy time (compute + local work; excludes barrier and
    /// exchange waits) — the straggle-ratio feedstock for the adaptive
    /// degradation controller.
    pub per_worker_busy: Vec<Duration>,
}

/// Shared fault-injection state for one threaded run.
struct FaultRuntime {
    cfg: RuntimeFaultConfig,
    store: CheckpointStore,
    /// Runtime-infrastructure obs track (PS outages, server checkpoints).
    obs: TrackHandle,
    /// Millis-since-start of each worker's last heartbeat; `u64::MAX` once
    /// the worker finished.
    heartbeats: Vec<AtomicU64>,
    started: Instant,
    /// Global iteration counter (all workers), keys the PS outage windows.
    global_iters: AtomicU64,
    /// PS outage windows not yet consumed: `(start_iter, len)`, guarded so
    /// exactly one worker executes each recovery.
    pending_outages: Mutex<Vec<(u64, u64)>>,
    restarts: AtomicU64,
    abandoned: AtomicU64,
    ps_recoveries: AtomicU64,
    missed_heartbeats: AtomicU64,
    ps_applies: AtomicU64,
    evictions: AtomicU64,
    rejoins: AtomicU64,
}

impl FaultRuntime {
    fn new(cfg: RuntimeFaultConfig, workers: usize, obs: TrackHandle, clock: Instant) -> Self {
        let mut pending = cfg.schedule.ps_outages.clone();
        pending.sort_unstable();
        FaultRuntime {
            store: CheckpointStore::new(cfg.checkpoint_interval),
            obs,
            heartbeats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            started: clock,
            global_iters: AtomicU64::new(0),
            pending_outages: Mutex::new(pending),
            restarts: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            ps_recoveries: AtomicU64::new(0),
            missed_heartbeats: AtomicU64::new(0),
            ps_applies: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            cfg,
        }
    }

    fn beat(&self, w: usize) {
        let ms = self.started.elapsed().as_millis() as u64;
        self.heartbeats[w].store(ms, Ordering::Relaxed);
    }

    fn finish(&self, w: usize) {
        self.heartbeats[w].store(u64::MAX, Ordering::Relaxed);
    }

    /// Crash-restart: notionally lose the replica, wait out the supervisor
    /// backoff, restore from the last checkpoint. Returns the restored
    /// state, or `None` when the retry budget is exhausted (the crash is
    /// abandoned and the worker continues with its live state).
    fn crash_restart(&self, w: usize) -> Option<(ParamSet, SgdMomentum, u64)> {
        // Reserve a slot in the budget atomically: concurrent crashes must
        // not all pass a stale read of the counter and overrun the cap.
        let reserved = self
            .restarts
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                (r < self.cfg.max_restarts).then_some(r + 1)
            })
            .is_ok();
        if !reserved {
            self.abandoned.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        std::thread::sleep(self.cfg.restart_backoff);
        match self.store.restore(w) {
            Some(cp) => Some((cp.params, cp.opt, cp.iteration)),
            None => {
                // No checkpoint to restore from: hand the slot back.
                self.restarts.fetch_sub(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Consume any PS outage whose window start the global iteration
    /// counter has crossed: the server state rolls back to its last
    /// checkpoint and clients stall for the recovery backoff (scaled by
    /// the window length).
    fn ps_gate(&self, ps: &PsState) {
        let k = self.global_iters.load(Ordering::Relaxed);
        let due = {
            let mut pending = self.pending_outages.lock();
            pending
                .iter()
                .position(|&(start, _)| start <= k)
                .map(|i| pending.remove(i))
        };
        if let Some((_, len)) = due {
            markers::ps_outage(&self.obs, self.now_ns(), 0);
            if let Some(cp) = self.store.restore(PS_OWNER) {
                let mut g = ps.global.lock();
                *g = (cp.params, cp.opt);
                markers::ckpt_restore(&self.obs, self.now_ns(), cp.iteration);
            }
            if self.cfg.elastic.is_some() {
                // Elastic failover: the server state re-homes from its
                // checkpoint onto a survivor — one bounded recovery delay
                // instead of an outage-scaled stall.
                markers::shard_failover(&self.obs, self.now_ns(), 0);
                std::thread::sleep(self.cfg.restart_backoff);
            } else {
                std::thread::sleep(self.cfg.restart_backoff * len.max(1) as u32);
            }
            self.ps_recoveries.fetch_add(1, Ordering::Relaxed);
            markers::ps_recover(&self.obs, self.now_ns(), 0);
        }
    }

    /// Count one PS apply; checkpoint the server state on the cadence.
    fn ps_applied(&self, ps: &PsState) {
        let n = self.ps_applies.fetch_add(1, Ordering::Relaxed) + 1;
        if self.store.due(n) {
            let g = ps.global.lock();
            self.store.save(PS_OWNER, n, &g.0, &g.1);
            markers::ckpt_save(&self.obs, self.now_ns(), n);
        }
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// Watchdog loop: samples heartbeats until every worker finished, counting
/// workers silent for longer than the timeout.
fn watchdog(fr: &FaultRuntime) {
    let timeout_ms = fr.cfg.heartbeat_timeout.as_millis() as u64;
    let tick = (fr.cfg.heartbeat_timeout / 4).max(Duration::from_millis(1));
    loop {
        std::thread::sleep(tick);
        let now_ms = fr.started.elapsed().as_millis() as u64;
        let mut all_done = true;
        for hb in &fr.heartbeats {
            let last = hb.load(Ordering::Relaxed);
            if last == u64::MAX {
                continue;
            }
            all_done = false;
            if now_ms.saturating_sub(last) > timeout_ms {
                fr.missed_heartbeats.fetch_add(1, Ordering::Relaxed);
            }
        }
        if all_done {
            return;
        }
    }
}

/// Shared state for BSP's barrier rounds.
struct BspRound {
    slots: Mutex<Vec<Option<ParamSet>>>,
    /// Hierarchical rounds: per-leader `(partial_sum, ranks_covered)`
    /// deposits, indexed by leader rank.
    partials: Mutex<Vec<Option<(ParamSet, usize)>>>,
    enter: ElasticBarrier,
    leave: ElasticBarrier,
}

/// The shared-memory [`ExecBackend`]: one instance per worker thread,
/// coordinating through a `Mutex`-guarded parameter server, crossbeam
/// mailboxes, and the elastic barrier — exactly the PR 4 semantics.
struct ThreadedBackend {
    w: usize,
    workers: usize,
    ps: Arc<PsState>,
    peers: Arc<PeerNet>,
    bsp: Arc<BspRound>,
    faults: Option<Arc<FaultRuntime>>,
    elastic: Option<Arc<MembershipView>>,
    obs: TrackHandle,
    wall: Instant,
    slowdown: f64,
    crash_iters: VecDeque<u64>,
    pending_reply: Option<Receiver<ParamSet>>,
}

impl ThreadedBackend {
    fn ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }
}

impl ExecBackend for ThreadedBackend {
    fn rank(&self) -> usize {
        self.w
    }

    fn elastic(&self) -> bool {
        self.elastic.is_some()
    }

    fn death_round(&mut self, w: usize) -> Option<u64> {
        self.elastic.as_ref().and_then(|v| v.death_round(w))
    }

    fn rejoin_round(&mut self, w: usize) -> Option<u64> {
        self.elastic.as_ref().and_then(|v| v.rejoin_round(w))
    }

    fn is_live(&mut self, w: usize, round: u64) -> bool {
        self.elastic.as_ref().is_none_or(|v| v.is_live(w, round))
    }

    fn live_at(&mut self, round: u64) -> Vec<usize> {
        match self.elastic.as_ref() {
            Some(v) => v.live_at(round),
            None => (0..self.workers).collect(),
        }
    }

    fn note_eviction(&mut self) {
        if let Some(fr) = self.faults.as_ref() {
            fr.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_rejoin(&mut self) {
        if let Some(fr) = self.faults.as_ref() {
            fr.rejoins.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn park_clock(&mut self) {
        self.ps.bump_clock(self.w, u64::MAX);
    }

    fn ps_snapshot(&mut self) -> ParamSet {
        self.ps.snapshot()
    }

    fn ps_push_pull(&mut self, grad: &ParamSet, lr: f32) -> ParamSet {
        self.ps.push_and_pull(grad, lr)
    }

    fn ps_push(&mut self, grad: &ParamSet, lr: f32) {
        let mut g = self.ps.global.lock();
        let (params, opt_ps) = &mut *g;
        opt_ps.step(params, grad, lr);
    }

    fn ps_elastic_exchange(&mut self, params: &ParamSet, alpha: f32) -> ParamSet {
        self.ps.elastic_exchange(params, alpha)
    }

    fn bump_clock(&mut self, clock: u64) {
        self.ps.bump_clock(self.w, clock);
    }

    fn wait_min_clock(&mut self, needed: u64) -> u64 {
        self.ps.wait_for_min_clock(needed)
    }

    fn ps_gate(&mut self) {
        if let Some(fr) = self.faults.as_ref() {
            fr.ps_gate(&self.ps);
        }
    }

    fn ps_applied(&mut self) {
        if let Some(fr) = self.faults.as_ref() {
            fr.ps_applied(&self.ps);
        }
    }

    fn bsp_exchange(&mut self, round: u64, grad: ParamSet, lr: f32) -> BspOutcome {
        self.bsp.slots.lock()[self.w] = Some(grad);
        // This round's cohort: the live members under the view (everyone,
        // classically). A rejoiner waits without a deadline — it arrives
        // early and must not force-close the round it is waiting to
        // re-enter.
        let (expected, deadline) = match self.elastic.as_ref() {
            Some(view) => (
                view.live_at(round).len(),
                if view.rejoin_round(self.w) == Some(round) {
                    None
                } else {
                    self.faults.as_ref().map(|fr| fr.cfg.barrier_deadline)
                },
            ),
            None => (self.workers, None),
        };
        let mut closed_with = None;
        if let Some(arrived) = self.bsp.enter.wait(round, expected, deadline) {
            closed_with = Some(arrived);
            self.ps_gate();
            let mut slots = self.bsp.slots.lock();
            let grads: Vec<&ParamSet> = if self.elastic.is_some() {
                slots.iter().filter_map(|s| s.as_ref()).collect()
            } else {
                slots
                    .iter()
                    .map(|s| s.as_ref().expect("all deposited"))
                    .collect()
            };
            let mean = ParamSet::mean_of(&grads);
            self.ps.push_and_pull(&mean, lr);
            slots.iter_mut().for_each(|s| *s = None);
            drop(slots);
            self.ps_applied();
        }
        self.bsp.leave.wait(round, expected, deadline);
        BspOutcome {
            params: self.ps.snapshot(),
            arrived: closed_with,
            expected,
        }
    }

    fn coll_send(&mut self, target: usize, params: ParamSet) {
        let _ = self.peers.coll_tx[target].send((self.w, params));
    }

    fn coll_recv(&mut self) -> Option<(usize, ParamSet)> {
        // Threaded membership is a pre-computed view shared by every rank,
        // so the expected senders always exist; a None only means teardown.
        self.peers.coll_rx[self.w].lock().recv().ok()
    }

    fn bsp_exchange_partial(
        &mut self,
        round: u64,
        partial: ParamSet,
        weight: usize,
        lr: f32,
        leaders: usize,
    ) -> BspOutcome {
        self.bsp.partials.lock()[self.w] = Some((partial, weight));
        // Same deadline policy as the flat barrier, but the cohort is the
        // leader set (one seat per live machine group).
        let deadline = match self.elastic.as_ref() {
            Some(view) if view.rejoin_round(self.w) != Some(round) => {
                self.faults.as_ref().map(|fr| fr.cfg.barrier_deadline)
            }
            _ => None,
        };
        let mut closed_with = None;
        if let Some(arrived) = self.bsp.enter.wait(round, leaders, deadline) {
            closed_with = Some(arrived);
            self.ps_gate();
            let mut slots = self.bsp.partials.lock();
            let parts: Vec<(usize, (ParamSet, usize))> = slots
                .iter_mut()
                .enumerate()
                .filter_map(|(rank, s)| s.take().map(|p| (rank, p)))
                .collect();
            let mean = crate::collective::reduce_partials(parts);
            self.ps.push_and_pull(&mean, lr);
            drop(slots);
            self.ps_applied();
        }
        self.bsp.leave.wait(round, leaders, deadline);
        BspOutcome {
            params: self.ps.snapshot(),
            arrived: closed_with,
            expected: leaders,
        }
    }

    fn gossip_send(&mut self, target: usize, params: ParamSet, alpha: f32) {
        let _ = self.peers.gossip_tx[target].send(GossipMsg { params, alpha });
    }

    fn gossip_drain(&mut self) -> Vec<(ParamSet, f32)> {
        let mut out = Vec::new();
        while let Ok(msg) = self.peers.gossip_rx[self.w].lock().try_recv() {
            out.push((msg.params, msg.alpha));
        }
        out
    }

    fn exchange_request(&mut self, target: usize, params: ParamSet) {
        let (reply_tx, reply_rx) = unbounded();
        let _ = self.peers.exchange_tx[target].send(PeerCtrl::Exchange(ExchangeMsg {
            params,
            reply: reply_tx,
        }));
        self.pending_reply = Some(reply_rx);
    }

    fn exchange_await(&mut self) -> Option<ParamSet> {
        let reply_rx = self.pending_reply.take()?;
        // Transport deadline: bounded retry waits, then the exchange is
        // abandoned (elastic only).
        let deadline = self
            .faults
            .as_ref()
            .filter(|fr| fr.cfg.elastic.is_some())
            .map(|fr| (fr.cfg.transfer_deadline, fr.cfg.max_transfer_retries));
        match deadline {
            Some((dl, retries)) => {
                let mut got = None;
                for attempt in 1..=retries.max(1) {
                    match reply_rx.recv_timeout(dl) {
                        Ok(m) => {
                            got = Some(m);
                            break;
                        }
                        Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                            markers::retry(&self.obs, self.ns(), attempt);
                        }
                        Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
                got
            }
            None => Some(
                reply_rx
                    .recv()
                    .expect("AD-PSGD passive peer died before replying"),
            ),
        }
    }

    fn exchange_next(&mut self, block: bool) -> Option<PeerRequest> {
        let ctrl = if block {
            self.peers.exchange_rx[self.w].lock().recv().ok()?
        } else {
            self.peers.exchange_rx[self.w].lock().try_recv().ok()?
        };
        Some(match ctrl {
            PeerCtrl::Exchange(msg) => PeerRequest::Exchange {
                params: msg.params,
                token: ReplyToken::Local(msg.reply),
            },
            PeerCtrl::Done => PeerRequest::Done,
        })
    }

    fn exchange_reply(&mut self, token: ReplyToken, midpoint: ParamSet) {
        if let ReplyToken::Local(tx) = token {
            let _ = tx.send(midpoint);
        }
    }

    fn announce_done(&mut self) {
        for v in (0..self.workers).filter(|v| v % 2 == 1) {
            let _ = self.peers.exchange_tx[v].send(PeerCtrl::Done);
        }
    }

    fn startup(&mut self, params: &ParamSet, opt: &SgdMomentum) {
        if let Some(fr) = self.faults.as_ref() {
            fr.store.save(self.w, 0, params, opt);
            fr.beat(self.w);
        }
    }

    fn poll_crash(&mut self, local_iter: u64) -> Option<Option<(ParamSet, SgdMomentum, u64)>> {
        let fr = self.faults.as_ref()?;
        if self.elastic.is_some() {
            return None;
        }
        if self.crash_iters.front().is_none_or(|&it| it > local_iter) {
            return None;
        }
        self.crash_iters.pop_front();
        markers::crash(&self.obs, self.ns(), self.w);
        let restored = fr.crash_restart(self.w);
        if let Some((_, _, cp_iter)) = restored.as_ref() {
            markers::ckpt_restore(&self.obs, self.ns(), *cp_iter);
            markers::restart(&self.obs, self.ns(), self.w);
        }
        Some(restored)
    }

    fn checkpoint_restore(&mut self) -> Option<(ParamSet, SgdMomentum, u64)> {
        let fr = self.faults.as_ref()?;
        let cp = fr.store.restore(self.w)?;
        Some((cp.params, cp.opt, cp.iteration))
    }

    fn iter_end(
        &mut self,
        _round: u64,
        local_iter: u64,
        elapsed: Duration,
        state: &mut dyn FnMut() -> (ParamSet, SgdMomentum),
    ) {
        if let Some(fr) = self.faults.as_ref() {
            // Persistent straggler: stretch this iteration by the slowdown
            // factor (sleep the extra fraction of what it actually took).
            if self.slowdown > 1.0 {
                std::thread::sleep(elapsed.mul_f64(self.slowdown - 1.0));
            }
            fr.beat(self.w);
            fr.global_iters.fetch_add(1, Ordering::Relaxed);
            if fr.store.due(local_iter) {
                let (params, opt) = state();
                fr.store.save(self.w, local_iter, &params, &opt);
                markers::ckpt_save(&self.obs, self.ns(), local_iter);
            }
        }
    }

    fn finish(&mut self) {
        if let Some(fr) = self.faults.as_ref() {
            fr.finish(self.w);
        }
    }
}

/// Train `factory()`-built replicas over `train` with `cfg.workers`
/// threads; evaluate the aggregate model on `test`.
pub fn train_threaded<F>(
    factory: F,
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
) -> ThreadedReport
where
    F: Fn() -> Network + Send + Sync,
{
    train_threaded_observed(factory, train, test, cfg, &ObsSink::disabled())
}

/// [`train_threaded`] with structured-event observation: per-iteration and
/// per-compute spans, cumulative `logical.bytes` counters, and fault
/// markers land in `sink`, stamped with wall-clock nanoseconds since run
/// start. The *logical* counters (payload bytes, iteration counts) are
/// deterministic and comparable with the simulator's; timestamps are not.
pub fn train_threaded_observed<F>(
    factory: F,
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
    sink: &ObsSink,
) -> ThreadedReport
where
    F: Fn() -> Network + Send + Sync,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    let plan = cfg.plan();
    if let Err(e) = plan.validate() {
        panic!("{e}");
    }
    if matches!(cfg.strategy, Algo::AdPsgd) {
        assert!(cfg.workers >= 2, "AD-PSGD needs two workers");
    }
    let shard_len = train.len() / cfg.workers;
    assert!(
        train.len().is_multiple_of(cfg.workers) && shard_len.is_multiple_of(cfg.batch),
        "dataset ({}) must divide evenly into workers x batch ({} x {})",
        train.len(),
        cfg.workers,
        cfg.batch
    );

    let ps = PsState::new(
        factory().get_params(),
        cfg.momentum,
        cfg.weight_decay,
        cfg.workers,
    );
    let peers = PeerNet::new(cfg.workers);
    let bsp = Arc::new(BspRound {
        slots: Mutex::new(vec![None; cfg.workers]),
        partials: Mutex::new(vec![None; cfg.workers]),
        enter: ElasticBarrier::new(),
        leave: ElasticBarrier::new(),
    });
    let clock = Instant::now();
    let faults: Option<Arc<FaultRuntime>> = cfg.faults.clone().map(|fc| {
        Arc::new(FaultRuntime::new(
            fc,
            cfg.workers,
            sink.track(Track::Runtime(0)),
            clock,
        ))
    });
    if let Some(fr) = faults.as_ref() {
        // Baseline PS checkpoint so an outage before the first cadence tick
        // still has a state to roll back to.
        let g = ps.global.lock();
        fr.store.save(PS_OWNER, 0, &g.0, &g.1);
    }

    let started = Instant::now();
    let finals: Vec<(ParamSet, Duration)> = std::thread::scope(|scope| {
        if let Some(fr) = faults.as_ref() {
            let fr = Arc::clone(fr);
            scope.spawn(move || watchdog(&fr));
        }
        let mut handles = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let ps = Arc::clone(&ps);
            let peers = Arc::clone(&peers);
            let bsp = Arc::clone(&bsp);
            let factory = &factory;
            let train = Arc::clone(train);
            let plan = plan.clone();
            let faults = faults.clone();
            let obs = sink.track(Track::Worker(w as u16));
            let backend_obs = sink.track(Track::Worker(w as u16));
            handles.push(scope.spawn(move || {
                let mut backend = ThreadedBackend {
                    w,
                    workers: plan.workers,
                    ps,
                    peers,
                    bsp,
                    elastic: faults.as_ref().and_then(|fr| fr.cfg.elastic.clone()),
                    slowdown: faults
                        .as_ref()
                        .map_or(1.0, |fr| fr.cfg.schedule.straggler_slowdown(w)),
                    crash_iters: faults
                        .as_ref()
                        .map(|fr| {
                            let mut c = fr.cfg.schedule.crash_iterations_for(w);
                            c.sort_unstable();
                            c.into()
                        })
                        .unwrap_or_default(),
                    faults,
                    obs: backend_obs,
                    wall: clock,
                    pending_reply: None,
                };
                let out = worker_body(&mut backend, factory(), &train, &plan, &obs, clock);
                (out.params, out.busy)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let wall_time = started.elapsed();
    let per_worker_busy: Vec<Duration> = finals.iter().map(|(_, b)| *b).collect();
    let finals: Vec<ParamSet> = finals.into_iter().map(|(p, _)| p).collect();

    // Aggregate model: replica mean (equals any replica for BSP). Under
    // elastic membership only the final cohort's replicas count — an
    // evicted worker's stale replica is not part of the trained model.
    let refs: Vec<&ParamSet> = match faults.as_ref().and_then(|fr| fr.cfg.elastic.as_ref()) {
        Some(view) => {
            let last_round = (cfg.epochs * (shard_len / cfg.batch) as u64).saturating_sub(1);
            let live = view.live_at(last_round);
            let cohort: Vec<&ParamSet> = finals
                .iter()
                .enumerate()
                .filter(|(i, _)| live.contains(i))
                .map(|(_, p)| p)
                .collect();
            if cohort.is_empty() {
                finals.iter().collect()
            } else {
                cohort
            }
        }
        None => finals.iter().collect(),
    };
    let mean = ParamSet::mean_of(&refs);
    let drift = refs
        .iter()
        .fold(0.0f32, |m, p| m.max(p.max_abs_diff(&mean)));
    let mut eval_net = factory();
    eval_net.set_params(&mean);
    let (x, y) = test.as_batch();
    let (loss, acc) = eval_net.eval_batch(x, &y);
    let counter = |f: fn(&FaultRuntime) -> &AtomicU64| -> u64 {
        faults
            .as_ref()
            .map_or(0, |fr| f(fr).load(Ordering::Relaxed))
    };
    // Classic runs execute the full schedule; elastic runs execute exactly
    // the rounds the membership view scheduled (counted as they happen).
    let total_iterations = match faults.as_ref() {
        Some(fr) if fr.cfg.elastic.is_some() => fr.global_iters.load(Ordering::Relaxed),
        _ => cfg.workers as u64 * cfg.epochs * (shard_len / cfg.batch) as u64,
    };
    ThreadedReport {
        strategy: cfg.strategy.name(),
        final_accuracy: acc,
        final_loss: loss,
        wall_time,
        total_iterations,
        final_drift: drift,
        restarts: counter(|fr| &fr.restarts),
        abandoned_restarts: counter(|fr| &fr.abandoned),
        ps_recoveries: counter(|fr| &fr.ps_recoveries),
        missed_heartbeats: counter(|fr| &fr.missed_heartbeats),
        evictions: counter(|fr| &fr.evictions),
        rejoins: counter(|fr| &fr.rejoins),
        final_params: mean,
        per_worker_busy,
    }
}
