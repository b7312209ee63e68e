//! The coordinator: spawns worker processes, owns the authoritative
//! membership/parameter-server/barrier state, and services each worker's
//! RPCs from a per-connection handler thread.
//!
//! ## Topology and threading
//!
//! Star topology: every worker process holds one TCP connection to the
//! coordinator and is always the caller, so a handler thread services one
//! worker's requests strictly in order. Blocking requests (BSP barrier
//! arrival, SSP clock waits, AD-PSGD mailbox polls) simply park the
//! handler thread; the other connections keep moving.
//!
//! ## Failure model
//!
//! The coordinator distinguishes *transient link trouble* from *real
//! death*. A connection-level error (EOF/RST, a CRC mismatch from a
//! damaged frame, a read past the transfer deadline) is a **disconnect**:
//! the rank's session notes the time and the rank gets the configured
//! reconnect window to come back with [`Msg::Resume`], which replays the
//! cached reply or asks for an idempotent resend (see [`crate::session`]).
//! Only two things produce an **eviction**, both funneling into
//! [`Coord::record_death`] (idempotent): the reaper observing a real
//! process exit via `Child::try_wait` (a `SIGKILL` is recorded within one
//! heartbeat interval — no reconnect grace for a corpse), and a
//! disconnect whose reconnect window expires without a resume. A recorded
//! death evicts the rank from the dynamic membership table at the round
//! its last heartbeat announced, parks its SSP clock at `u64::MAX`,
//! resolves its in-flight exchanges as gone, and frees its data shard
//! (marked as a shard failover on the runtime obs track). Synchronous
//! rounds the victim had a seat in force-close partially at the barrier
//! deadline; later rounds size their cohort from the updated table. A
//! scheduled [`RejoinSpec`] makes the coordinator spawn a replacement
//! process for the same rank, which re-enters at the pinned round through
//! the PR 4 adoption path.
//!
//! Membership queries are answered by a [`MembershipView`] rebuilt from
//! the observed evict/rejoin events — the same round-indexed view the
//! simulator and threaded paths consult, here fed by real process deaths.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrain_data::teacher_task;
use dtrain_faults::{markers, CheckpointStore, MembershipView};
use dtrain_models::mlp_classifier;
use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_obs::{names, ObsSink, Track, TrackHandle};
use dtrain_runtime::{reduce_partials, ElasticBarrier, PsState};
use parking_lot::{Condvar, Mutex};

use crate::codec::{write_frame, CodecError};
use crate::config::{encode_worker_cfg, worker_exe, ProcConfig};
use crate::proto::Msg;
use crate::session::{Inbound, ResumeDecision, Session};

/// Why a process-path run failed to launch or finish.
#[derive(Debug)]
pub enum ProcError {
    Io(std::io::Error),
    Config(String),
    /// The run did not reach completion within the supervision timeout.
    Stalled(String),
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "io: {e}"),
            ProcError::Config(s) => write!(f, "config: {s}"),
            ProcError::Stalled(s) => write!(f, "stalled: {s}"),
        }
    }
}

impl std::error::Error for ProcError {}

impl From<std::io::Error> for ProcError {
    fn from(e: std::io::Error) -> Self {
        ProcError::Io(e)
    }
}

/// Per-worker facts carried in the final report.
#[derive(Clone, Copy, Debug)]
pub struct WorkerStats {
    /// Iterations the rank executed (replacement process included).
    pub iterations: u64,
    /// Cumulative payload bytes pushed (`logical.bytes`); for a killed
    /// rank, only what its replacement reported (the victim's counter
    /// died with it).
    pub logical_bytes: u64,
    /// Milliseconds the rank spent on local work (compute + per-iteration
    /// hooks, straggler injection included; exchange waits excluded).
    pub busy_ms: u64,
    /// Did this rank's original process die mid-run?
    pub evicted: bool,
}

/// Outcome of a process-path run.
#[derive(Clone, Debug)]
pub struct ProcReport {
    pub strategy: &'static str,
    pub final_accuracy: f32,
    pub final_loss: f32,
    pub wall_time: Duration,
    /// Iterations executed across all ranks, victims' partial progress
    /// included (counted from their heartbeat rounds).
    pub total_iterations: u64,
    pub evictions: u64,
    pub rejoins: u64,
    /// BSP rounds that force-closed partially at the barrier deadline.
    pub partial_rounds: u64,
    /// Reconnect-with-resume takeovers served (`net.retry` markers).
    pub retries: u64,
    pub per_worker: Vec<WorkerStats>,
    /// The evaluated model: mean of the final cohort's replicas. The
    /// adaptive controller feeds this into the next segment's
    /// `initial_params`.
    pub final_params: ParamSet,
}

/// One queued AD-PSGD mailbox item.
enum QItem {
    Exchange { token: u64, params: ParamSet },
    Done,
}

/// State of one relayed AD-PSGD exchange, keyed by token.
enum Pending {
    Waiting,
    Ready(ParamSet),
    Gone,
}

#[derive(Default)]
struct Mailbox {
    gossip: VecDeque<(f32, ParamSet)>,
    exchange: VecDeque<QItem>,
    /// Hierarchical-collective relay: `(sender_rank, payload)` for the
    /// intra-machine reduce/broadcast legs.
    coll: VecDeque<(u32, ParamSet)>,
}

/// The dynamic membership table: evict/rejoin events observed from real
/// process deaths, plus per-rank progress facts.
struct Members {
    evicts: Vec<(usize, u64)>,
    rejoins: Vec<(usize, u64)>,
    /// Round each rank's next heartbeat will announce (= rounds executed
    /// + start round).
    last_hb: Vec<u64>,
    start_round: Vec<u64>,
    /// Iterations a killed original process got through before dying.
    victim_iters: Vec<u64>,
    /// Completed outcome per rank (replacement's, for rejoined ranks).
    outcomes: Vec<Option<Outcome>>,
}

/// One rank's completion report, as shipped in `RunComplete`.
struct Outcome {
    iterations: u64,
    logical_bytes: u64,
    busy_ms: u64,
    params: ParamSet,
}

impl Members {
    fn view(&self, workers: usize) -> MembershipView {
        MembershipView::from_events(workers, &self.evicts, &self.rejoins)
    }

    fn dead(&self, w: usize) -> bool {
        self.evicts.iter().any(|&(v, _)| v == w)
    }
}

struct PauseState {
    armed: Option<(usize, u64)>,
    paused: Option<usize>,
    released: bool,
}

/// One rank's transport session plus the disconnect clock that decides
/// when link trouble hardens into an eviction.
#[derive(Default)]
struct SessionSlot {
    s: Session,
    /// Set when the rank's connection dropped without a completed outcome;
    /// cleared by a successful Hello/Resume or by the eviction itself.
    disconnected_at: Option<Instant>,
}

/// Shared coordinator state (one per run), behind an `Arc` so handler
/// threads, the reaper, and the [`ProcRun`] handle all see it.
struct Coord {
    cfg: ProcConfig,
    ps: Arc<PsState>,
    bsp_slots: Mutex<BTreeMap<u64, BTreeMap<usize, ParamSet>>>,
    /// Hierarchical rounds: per-leader `(partial_sum, ranks_covered)`
    /// deposits, keyed round -> leader rank.
    #[allow(clippy::type_complexity)]
    bsp_partials: Mutex<BTreeMap<u64, BTreeMap<usize, (ParamSet, usize)>>>,
    bsp_enter: ElasticBarrier,
    bsp_leave: ElasticBarrier,
    members: Mutex<Members>,
    member_cv: Condvar,
    mail: Mutex<Vec<Mailbox>>,
    mail_cv: Condvar,
    pending: Mutex<HashMap<u64, Pending>>,
    pending_cv: Condvar,
    next_token: AtomicU64,
    store: CheckpointStore,
    pause: Mutex<PauseState>,
    pause_cv: Condvar,
    /// Per-rank transport sessions (dedup/replay + disconnect clocks).
    /// Lock discipline: never held together with `members` — every path
    /// takes them in separate scoped blocks.
    sessions: Mutex<Vec<SessionSlot>>,
    session_cv: Condvar,
    children: Mutex<Vec<(usize, Child)>>,
    evictions: AtomicU64,
    rejoins: AtomicU64,
    partial_rounds: AtomicU64,
    /// Resume takeovers served (one per `net.retry` marker).
    retries: AtomicU64,
    stop: AtomicBool,
    wall: Instant,
    obs_rt: TrackHandle,
    obs_workers: Vec<TrackHandle>,
    /// Spawn recipe for rejoin replacements.
    exe: std::path::PathBuf,
    addr: String,
    cfg_str: String,
}

impl Coord {
    fn ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }

    fn live_at(&self, round: u64) -> Vec<usize> {
        self.members
            .lock()
            .view(self.cfg.plan.workers)
            .live_at(round)
    }

    fn spawn_worker(&self, w: usize) -> Result<(), ProcError> {
        let child = Command::new(&self.exe)
            .arg("--addr")
            .arg(&self.addr)
            .arg("--worker")
            .arg(w.to_string())
            .arg("--cfg")
            .arg(&self.cfg_str)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        self.children.lock().push((w, child));
        Ok(())
    }

    /// A connection handler for rank `w` (at session `generation`) hit an
    /// I/O error. Not an eviction: start the reconnect clock and let the
    /// reaper evict only if the window expires without a resume. A stale
    /// generation means a newer connection already took over — ignore.
    fn note_disconnect(&self, w: usize, generation: u64) {
        {
            let m = self.members.lock();
            if m.dead(w) || m.outcomes[w].is_some() {
                return; // already evicted or cleanly finished
            }
        }
        let mut sess = self.sessions.lock();
        let slot = &mut sess[w];
        if slot.s.generation != generation {
            return;
        }
        if slot.disconnected_at.is_none() {
            slot.disconnected_at = Some(Instant::now());
        }
    }

    /// Record rank `w`'s process death (idempotent): evict it at the round
    /// its last heartbeat announced, park its clock, resolve its relayed
    /// exchanges, and spawn the scheduled replacement if one is due.
    fn record_death(&self, w: usize) {
        let (_evict_round, spawn_rejoin) = {
            let mut m = self.members.lock();
            if m.dead(w) || m.outcomes[w].is_some() {
                return;
            }
            let at = m.last_hb[w];
            m.evicts.push((w, at));
            m.victim_iters[w] = at.saturating_sub(m.start_round[w]);
            let spawn = match self.cfg.rejoin {
                Some(spec) if spec.worker == w => {
                    m.rejoins.push((w, spec.at_round));
                    Some(spec.at_round)
                }
                None | Some(_) => None,
            };
            (at, spawn)
        };
        self.evictions.fetch_add(1, Ordering::Relaxed);
        // Park the dead clock so SSP survivors' staleness gate excludes it.
        self.ps.bump_clock(w, u64::MAX);
        markers::crash(&self.obs_rt, self.ns(), w);
        markers::evict(&self.obs_rt, self.ns(), w);
        // The victim's data shard leaves the cohort with it — survivors
        // keep their own shards (shard ownership re-maps, work does not
        // silently vanish from the metrics: the report counts the victim's
        // partial progress separately).
        markers::shard_failover(&self.obs_rt, self.ns(), w);
        // Resolve exchanges queued *at* the victim: the requesters get
        // "gone" instead of blocking forever.
        {
            let mut mail = self.mail.lock();
            let dropped: Vec<QItem> = mail[w].exchange.drain(..).collect();
            // Collective items queued at the victim will never be consumed.
            mail[w].coll.clear();
            drop(mail);
            let mut pend = self.pending.lock();
            for item in dropped {
                if let QItem::Exchange { token, .. } = item {
                    pend.insert(token, Pending::Gone);
                }
            }
        }
        // A dead active can no longer announce completion: synthesize its
        // Done so passives don't drain forever.
        if w.is_multiple_of(2) {
            let mut mail = self.mail.lock();
            for (v, mb) in mail.iter_mut().enumerate() {
                if v % 2 == 1 {
                    mb.exchange.push_back(QItem::Done);
                }
            }
        }
        // The eviction consumed the disconnect window (if one was open).
        {
            let mut sess = self.sessions.lock();
            sess[w].disconnected_at = None;
        }
        self.pending_cv.notify_all();
        self.mail_cv.notify_all();
        self.member_cv.notify_all();
        self.session_cv.notify_all();
        if spawn_rejoin.is_some() {
            if let Err(e) = self.spawn_worker(w) {
                eprintln!("dtrain-proc: failed to spawn rejoin replacement for {w}: {e}");
            }
        }
    }

    /// Service one request from rank `w`. `Ok(None)` means the connection
    /// is done (clean completion).
    fn dispatch(&self, w: usize, msg: Msg) -> Result<Option<Msg>, CodecError> {
        let reply = match msg {
            Msg::Heartbeat { round } => {
                {
                    let mut m = self.members.lock();
                    m.last_hb[w] = m.last_hb[w].max(round);
                }
                // Test pause gate: freeze this handler (and therefore the
                // worker, which blocks on the ack) at a pinned round.
                {
                    let mut p = self.pause.lock();
                    if p.armed == Some((w, round)) {
                        p.armed = None;
                        p.paused = Some(w);
                        self.pause_cv.notify_all();
                        while !p.released {
                            self.pause_cv.wait(&mut p);
                        }
                    }
                }
                let executed = {
                    let m = self.members.lock();
                    round.saturating_sub(m.start_round[w])
                };
                Msg::HeartbeatAck {
                    checkpoint: self.store.due(executed),
                }
            }
            Msg::Membership { round } => Msg::LiveSet {
                live: self.live_at(round).into_iter().map(|v| v as u32).collect(),
            },
            Msg::Snapshot => Msg::Params {
                params: self.ps.snapshot(),
            },
            Msg::AspPushPull { grad, lr } => Msg::Params {
                params: self.ps.push_and_pull(&grad, lr),
            },
            Msg::SspPush { grad, lr } => {
                let mut g = self.ps.global.lock();
                let (params, opt) = &mut *g;
                opt.step(params, &grad, lr);
                Msg::Ok
            }
            Msg::EasgdExchange { params, alpha } => Msg::Params {
                params: self.ps.elastic_exchange(&params, alpha),
            },
            Msg::BumpClock { clock } => {
                self.ps.bump_clock(w, clock);
                Msg::Ok
            }
            Msg::WaitMinClock { needed } => Msg::MinClock {
                min: self.ps.wait_for_min_clock(needed),
            },
            Msg::BspExchange { round, lr, grad } => self.bsp_exchange(w, round, lr, grad),
            Msg::CollSend { target, params } => {
                let target = target as usize;
                if target < self.cfg.plan.workers {
                    self.mail.lock()[target].coll.push_back((w as u32, params));
                    self.mail_cv.notify_all();
                }
                Msg::Ok
            }
            Msg::CollRecv => self.coll_recv(w),
            Msg::BspPartial {
                round,
                lr,
                weight,
                leaders,
                partial,
            } => self.bsp_partial(w, round, lr, weight as usize, leaders as usize, partial),
            Msg::GossipSend {
                target,
                alpha,
                params,
            } => {
                let target = target as usize;
                if target < self.cfg.plan.workers {
                    self.mail.lock()[target].gossip.push_back((alpha, params));
                }
                Msg::Ok
            }
            Msg::GossipDrain => Msg::GossipItems {
                items: self.mail.lock()[w].gossip.drain(..).collect(),
            },
            Msg::ExchangeRequest { target, params } => {
                let target = target as usize;
                let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                let target_dead =
                    target >= self.cfg.plan.workers || self.members.lock().dead(target);
                if target_dead {
                    self.pending.lock().insert(token, Pending::Gone);
                } else {
                    self.pending.lock().insert(token, Pending::Waiting);
                    self.mail.lock()[target]
                        .exchange
                        .push_back(QItem::Exchange { token, params });
                    self.mail_cv.notify_all();
                }
                // The token rides back in the ack so the same connection's
                // later ExchangeAwait can claim it.
                Msg::MinClock { min: token }
            }
            Msg::ExchangeAwait => {
                // The worker encodes the awaited token as a WaitMinClock
                // would be ambiguous; ProcBackend tracks its own single
                // outstanding token, so Await carries no payload and we
                // resolve the newest token registered by this rank.
                unreachable!("ExchangeAwait is handled in the connection loop")
            }
            Msg::ExchangePoll { block } => self.exchange_poll(w, block),
            Msg::ExchangeRespond { token, params } => {
                let mut pend = self.pending.lock();
                if let Some(p @ Pending::Waiting) = pend.get_mut(&token) {
                    *p = Pending::Ready(params);
                }
                drop(pend);
                self.pending_cv.notify_all();
                Msg::Ok
            }
            Msg::AnnounceDone => {
                let mut mail = self.mail.lock();
                for (v, mb) in mail.iter_mut().enumerate() {
                    if v % 2 == 1 && v != w {
                        mb.exchange.push_back(QItem::Done);
                    }
                }
                drop(mail);
                self.mail_cv.notify_all();
                Msg::Ok
            }
            Msg::CkptSave { iteration, params } => {
                self.store.save(
                    w,
                    iteration,
                    &params,
                    &SgdMomentum::new(self.cfg.plan.momentum, self.cfg.plan.weight_decay),
                );
                markers::ckpt_save(&self.obs_rt, self.ns(), iteration);
                Msg::Ok
            }
            Msg::CkptFetch => match self.store.restore(w) {
                Some(cp) => Msg::CkptState {
                    iteration: cp.iteration,
                    params: cp.params,
                },
                None => Msg::Gone,
            },
            Msg::RunComplete {
                iterations,
                logical_bytes,
                busy_ms,
                params,
            } => {
                self.obs_workers[w].counter(self.ns(), names::LOGICAL_BYTES, logical_bytes as i64);
                {
                    let mut m = self.members.lock();
                    m.outcomes[w] = Some(Outcome {
                        iterations,
                        logical_bytes,
                        busy_ms,
                        params,
                    });
                }
                // Anything still queued at this rank will never be served.
                {
                    let mut mail = self.mail.lock();
                    let dropped: Vec<QItem> = mail[w].exchange.drain(..).collect();
                    drop(mail);
                    let mut pend = self.pending.lock();
                    for item in dropped {
                        if let QItem::Exchange { token, .. } = item {
                            pend.insert(token, Pending::Gone);
                        }
                    }
                    self.pending_cv.notify_all();
                }
                self.member_cv.notify_all();
                return Ok(Some(Msg::Ok)); // connection loop ends after this
            }
            other => {
                return Err(CodecError::Malformed(match other {
                    Msg::Hello { .. } => "unexpected Hello after handshake",
                    _ => "unexpected message type from worker",
                }))
            }
        };
        Ok(Some(reply))
    }

    fn bsp_exchange(&self, w: usize, round: u64, lr: f32, grad: ParamSet) -> Msg {
        self.bsp_slots
            .lock()
            .entry(round)
            .or_default()
            .insert(w, grad);
        let (expected, deadline) = {
            let m = self.members.lock();
            let view = m.view(self.cfg.plan.workers);
            let expected = view.live_at(round).len().max(1);
            // A rejoiner waiting at its re-entry round arrives arbitrarily
            // early; it must not force-close the round it waits to join.
            let deadline = if view.rejoin_round(w) == Some(round) {
                None
            } else {
                Some(self.cfg.barrier_deadline)
            };
            (expected, deadline)
        };
        let mut leader = false;
        let mut arrived_n = 0usize;
        if let Some(arrived) = self.bsp_enter.wait(round, expected, deadline) {
            leader = true;
            arrived_n = arrived;
            let deposited = self.bsp_slots.lock().remove(&round).unwrap_or_default();
            let grads: Vec<&ParamSet> = deposited.values().collect();
            if !grads.is_empty() {
                let mean = ParamSet::mean_of(&grads);
                self.ps.push_and_pull(&mean, lr);
            }
            if arrived < expected {
                self.partial_rounds.fetch_add(1, Ordering::Relaxed);
                markers::partial_barrier(&self.obs_rt, self.ns(), arrived);
            }
        }
        self.bsp_leave.wait(round, expected, deadline);
        Msg::BspResult {
            leader,
            arrived: arrived_n as u32,
            expected: expected as u32,
            params: self.ps.snapshot(),
        }
    }

    /// Hierarchical leaders' barrier: like [`Self::bsp_exchange`] but the
    /// cohort is the leader set and the closer runs the shared
    /// rank-ascending partial reduction, so the float tree is identical to
    /// the threaded path's.
    fn bsp_partial(
        &self,
        w: usize,
        round: u64,
        lr: f32,
        weight: usize,
        leaders: usize,
        partial: ParamSet,
    ) -> Msg {
        self.bsp_partials
            .lock()
            .entry(round)
            .or_default()
            .insert(w, (partial, weight));
        let deadline = {
            let m = self.members.lock();
            let view = m.view(self.cfg.plan.workers);
            if view.rejoin_round(w) == Some(round) {
                None
            } else {
                Some(self.cfg.barrier_deadline)
            }
        };
        let expected = leaders.max(1);
        let mut leader = false;
        let mut arrived_n = 0usize;
        if let Some(arrived) = self.bsp_enter.wait(round, expected, deadline) {
            leader = true;
            arrived_n = arrived;
            let deposited = self.bsp_partials.lock().remove(&round).unwrap_or_default();
            if !deposited.is_empty() {
                // BTreeMap iteration is ascending by leader rank — the
                // order `reduce_partials` requires.
                let mean = reduce_partials(deposited.into_iter().collect());
                self.ps.push_and_pull(&mean, lr);
            }
            if arrived < expected {
                self.partial_rounds.fetch_add(1, Ordering::Relaxed);
                markers::partial_barrier(&self.obs_rt, self.ns(), arrived);
            }
        }
        self.bsp_leave.wait(round, expected, deadline);
        Msg::BspResult {
            leader,
            arrived: arrived_n as u32,
            expected: expected as u32,
            params: self.ps.snapshot(),
        }
    }

    /// Blocking pop of rank `w`'s collective mailbox. Bounded by the
    /// transfer deadline so a leader gathering from a worker that died
    /// mid-round eventually degrades instead of parking forever.
    fn coll_recv(&self, w: usize) -> Msg {
        let start = Instant::now();
        loop {
            {
                let mut mail = self.mail.lock();
                if let Some((sender, params)) = mail[w].coll.pop_front() {
                    return Msg::CollItem { sender, params };
                }
                self.mail_cv.wait_for(&mut mail, Duration::from_millis(50));
            }
            if self.stop.load(Ordering::Relaxed) || start.elapsed() > self.cfg.transfer_deadline {
                return Msg::Gone;
            }
        }
    }

    fn exchange_poll(&self, w: usize, block: bool) -> Msg {
        loop {
            {
                let mut mail = self.mail.lock();
                if let Some(item) = mail[w].exchange.pop_front() {
                    return match item {
                        QItem::Exchange { token, params } => Msg::ExchangeItem { token, params },
                        QItem::Done => Msg::PeerDone,
                    };
                }
                if !block {
                    return Msg::Gone;
                }
                // Bounded wait so stop/death conditions are re-checked even
                // if a notify races past.
                self.mail_cv.wait_for(&mut mail, Duration::from_millis(50));
            }
            if self.stop.load(Ordering::Relaxed) {
                return Msg::Gone;
            }
        }
    }

    /// Resolve rank `w`'s outstanding exchange `token` (blocks).
    fn exchange_await(&self, token: u64) -> Msg {
        let mut pend = self.pending.lock();
        loop {
            match pend.get(&token) {
                Some(Pending::Ready(_)) => {
                    if let Some(Pending::Ready(p)) = pend.remove(&token) {
                        return Msg::Params { params: p };
                    }
                    return Msg::Gone;
                }
                Some(Pending::Gone) | None => {
                    pend.remove(&token);
                    return Msg::Gone;
                }
                Some(Pending::Waiting) => {
                    self.pending_cv
                        .wait_for(&mut pend, Duration::from_millis(50));
                    if self.stop.load(Ordering::Relaxed) {
                        pend.remove(&token);
                        return Msg::Gone;
                    }
                }
            }
        }
    }
}

/// First frame was a fresh `Hello`: (re)initialise the rank's session,
/// answer `HelloAck` with the current globals, and serve the connection.
fn handshake_hello(coord: &Arc<Coord>, w: usize, seq: u32, stream: TcpStream) {
    if w >= coord.cfg.plan.workers {
        return;
    }
    let start_round = {
        let mut m = coord.members.lock();
        let start = if m.dead(w) {
            // The replacement for a killed rank: re-enter
            // at the pinned rejoin round.
            let at = m
                .rejoins
                .iter()
                .find(|&&(v, _)| v == w)
                .map(|&(_, r)| r)
                .unwrap_or(0);
            coord.rejoins.fetch_add(1, Ordering::Relaxed);
            markers::rejoin(&coord.obs_rt, coord.ns(), w);
            at
        } else {
            0
        };
        m.start_round[w] = start;
        m.last_hb[w] = m.last_hb[w].max(start);
        start
    };
    let generation = {
        let mut sess = coord.sessions.lock();
        let slot = &mut sess[w];
        slot.s.reset();
        slot.s.classify(seq); // the Hello consumed this seq
        slot.disconnected_at = None;
        slot.s.next_generation()
    };
    let ack = Msg::HelloAck {
        start_round,
        params: coord.ps.snapshot(),
    };
    let mut writer = BufWriter::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    if ack.write_to(&mut writer, seq).is_err() {
        coord.note_disconnect(w, generation);
        return;
    }
    drop(writer);
    serve_connection(coord, w, stream, generation);
}

/// First frame was a `Resume`: the rank's previous socket died but the
/// process is alive and retrying. Refuse evicted ranks, take over the
/// session under a fresh generation, emit a `net.retry` marker, satisfy
/// the resume decision, then fall into the normal service loop.
fn handshake_resume(
    coord: &Arc<Coord>,
    w: usize,
    seq: u32,
    last_seq: u32,
    attempt: u32,
    stream: TcpStream,
) {
    if w >= coord.cfg.plan.workers {
        return;
    }
    {
        let m = coord.members.lock();
        if m.dead(w) || m.outcomes[w].is_some() {
            return; // evicted or already finished: nothing to resume
        }
    }
    let (generation, decision) = {
        let mut sess = coord.sessions.lock();
        let slot = &mut sess[w];
        let d = slot.s.on_resume(last_seq);
        if matches!(d, ResumeDecision::Refuse) {
            return;
        }
        slot.disconnected_at = None;
        (slot.s.next_generation(), d)
    };
    coord.retries.fetch_add(1, Ordering::Relaxed);
    markers::retry(&coord.obs_rt, coord.ns(), attempt);
    let mut writer = BufWriter::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let served = match decision {
        // Never saw `last_seq`: ask the worker to resend it.
        ResumeDecision::RequestResend => Msg::ResumeAck.write_to(&mut writer, seq).is_ok(),
        // Saw it and finished it: replay the cached reply verbatim.
        ResumeDecision::ResendCached(ty, payload) => {
            write_frame(&mut writer, ty, last_seq, &payload).is_ok()
        }
        // Saw it, but its dispatch still runs on the stale handler
        // (parked in a barrier or mailbox wait). Wait for that handler
        // to cache its reply, then replay it here.
        ResumeDecision::AwaitInFlight => {
            let deadline = Instant::now() + coord.cfg.transfer_deadline;
            let replay = loop {
                let mut sess = coord.sessions.lock();
                if sess[w].s.generation != generation {
                    break None; // superseded by yet another resume
                }
                if let Some((ty, payload)) = sess[w].s.cached.clone() {
                    break Some((ty, payload));
                }
                if coord.stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                    break None;
                }
                coord
                    .session_cv
                    .wait_for(&mut sess, Duration::from_millis(20));
            };
            match replay {
                Some((ty, payload)) => write_frame(&mut writer, ty, last_seq, &payload).is_ok(),
                None => false,
            }
        }
        ResumeDecision::Refuse => unreachable!("refused above"),
    };
    if !served {
        coord.note_disconnect(w, generation);
        return;
    }
    drop(writer);
    serve_connection(coord, w, stream, generation);
}

/// One worker connection's service loop: handshake already done; read a
/// request, run it through the rank's session (dedup / replay), dispatch
/// fresh requests, cache then write replies, until completion or a link
/// error. Link errors start the reconnect clock via
/// [`Coord::note_disconnect`]; only protocol violations (a message type a
/// worker must never send) still evict directly.
fn serve_connection(coord: &Arc<Coord>, w: usize, stream: TcpStream, generation: u64) {
    let _ = stream.set_read_timeout(Some(coord.cfg.transfer_deadline));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            coord.note_disconnect(w, generation);
            return;
        }
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let (seq, msg) = match Msg::read_from(&mut reader) {
            Ok(m) => m,
            Err(_) => {
                // EOF, RST, read timeout, or a CRC-damaged frame: all link
                // trouble, none of it proof of death.
                coord.note_disconnect(w, generation);
                return;
            }
        };
        // Session gate: duplicates replay the cached reply without
        // re-dispatching; stale frames are dropped on the floor.
        match coord.sessions.lock()[w].s.classify(seq) {
            Inbound::Fresh => {}
            Inbound::Duplicate(Some((ty, payload))) => {
                if write_frame(&mut writer, ty, seq, &payload).is_err() {
                    coord.note_disconnect(w, generation);
                    return;
                }
                continue;
            }
            // Duplicate of a request whose dispatch is still running (the
            // original copy arrived first on this same ordered stream, so
            // its reply is coming): nothing to do for this copy.
            Inbound::Duplicate(None) | Inbound::Stale => continue,
        }
        let (reply, finished) = match msg {
            Msg::ExchangeAwait => {
                let tok = coord.sessions.lock()[w].s.cur_token.take();
                let r = match tok {
                    Some(tok) => coord.exchange_await(tok),
                    None => Msg::Gone,
                };
                (Some(r), false)
            }
            Msg::ExchangeRequest { .. } => {
                let r = match coord.dispatch(w, msg) {
                    Ok(r) => r,
                    Err(_) => {
                        coord.record_death(w);
                        return;
                    }
                };
                // The dispatch smuggles the token back as MinClock{min};
                // park it in the session (so it survives a reconnect) and
                // ack the worker with Ok.
                if let Some(Msg::MinClock { min }) = r {
                    coord.sessions.lock()[w].s.cur_token = Some(min);
                }
                (Some(Msg::Ok), false)
            }
            Msg::RunComplete { .. } => {
                let r = match coord.dispatch(w, msg) {
                    Ok(r) => r,
                    Err(_) => {
                        coord.record_death(w);
                        return;
                    }
                };
                (r, true)
            }
            other => match coord.dispatch(w, other) {
                Ok(r) => (r, false),
                Err(_) => {
                    coord.record_death(w);
                    return;
                }
            },
        };
        if let Some(reply) = reply {
            let (rty, rpayload) = reply.encode();
            // Cache BEFORE writing: if the write (or the frame in flight)
            // is lost, the resumed connection replays from this cache. If
            // a resume superseded this socket while dispatch was parked,
            // the cache is the handoff — the new connection's
            // AwaitInFlight wait picks it up; this stale handler must not
            // touch the wire again.
            let stale = {
                let mut sess = coord.sessions.lock();
                let slot = &mut sess[w];
                if slot.s.last_seq == seq {
                    slot.s.cache_reply(rty, rpayload.clone());
                }
                slot.s.generation != generation
            };
            coord.session_cv.notify_all();
            if stale {
                return;
            }
            if write_frame(&mut writer, rty, seq, &rpayload).is_err() {
                coord.note_disconnect(w, generation);
                return;
            }
        }
        if finished {
            return;
        }
    }
}

/// A live process-path run: spawned workers, their connections, and the
/// control hooks tests use (pause / kill / release). Dropping the handle
/// kills and reaps every child it spawned — no orphans survive a panic.
pub struct ProcRun {
    coord: Arc<Coord>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    started: Instant,
    sink_enabled: bool,
    cleaned: bool,
}

impl ProcRun {
    /// Spawn `cfg.plan.workers` worker processes against a fresh loopback
    /// listener and start serving them.
    pub fn launch(cfg: ProcConfig, sink: &ObsSink) -> Result<ProcRun, ProcError> {
        let workers = cfg.plan.workers;
        assert!(workers >= 1, "need at least one worker");
        let shard_len = cfg.task.train_size / workers;
        assert!(
            cfg.task.train_size.is_multiple_of(workers) && shard_len.is_multiple_of(cfg.plan.batch),
            "dataset ({}) must divide evenly into workers x batch ({} x {})",
            cfg.task.train_size,
            workers,
            cfg.plan.batch
        );
        cfg.validate().map_err(ProcError::Config)?;
        let exe = worker_exe(cfg.worker_exe.as_ref()).map_err(ProcError::Config)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let mut init_net = mlp_classifier(
            cfg.task.input_dim,
            &cfg.hidden,
            cfg.task.num_classes,
            cfg.model_seed,
        );
        if let Some(p) = &cfg.initial_params {
            init_net.set_params(p);
        }
        let ps = PsState::new(
            init_net.get_params(),
            cfg.plan.momentum,
            cfg.plan.weight_decay,
            workers,
        );
        let cfg_str = encode_worker_cfg(&cfg);
        let coord = Arc::new(Coord {
            ps,
            bsp_slots: Mutex::new(BTreeMap::new()),
            bsp_partials: Mutex::new(BTreeMap::new()),
            bsp_enter: ElasticBarrier::new(),
            bsp_leave: ElasticBarrier::new(),
            members: Mutex::new(Members {
                evicts: Vec::new(),
                rejoins: Vec::new(),
                last_hb: vec![0; workers],
                start_round: vec![0; workers],
                victim_iters: vec![0; workers],
                outcomes: (0..workers).map(|_| None).collect(),
            }),
            member_cv: Condvar::new(),
            mail: Mutex::new((0..workers).map(|_| Mailbox::default()).collect()),
            mail_cv: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            pending_cv: Condvar::new(),
            next_token: AtomicU64::new(1),
            store: CheckpointStore::new(cfg.checkpoint_interval),
            pause: Mutex::new(PauseState {
                armed: cfg.pause_at,
                paused: None,
                released: false,
            }),
            pause_cv: Condvar::new(),
            sessions: Mutex::new((0..workers).map(|_| SessionSlot::default()).collect()),
            session_cv: Condvar::new(),
            children: Mutex::new(Vec::new()),
            evictions: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            partial_rounds: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            wall: Instant::now(),
            obs_rt: sink.track(Track::Runtime(0)),
            obs_workers: (0..workers)
                .map(|w| sink.track(Track::Worker(w as u16)))
                .collect(),
            exe,
            addr,
            cfg_str,
            cfg,
        });

        // Accept loop: handshake each incoming connection, then hand it to
        // a handler thread. Keeps accepting so rejoin replacements can
        // connect late.
        let accept_coord = Arc::clone(&coord);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_coord.stop.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let coord = Arc::clone(&accept_coord);
                std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let mut reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    match Msg::read_from(&mut reader) {
                        Ok((seq, Msg::Hello { worker })) => {
                            handshake_hello(&coord, worker as usize, seq, stream);
                        }
                        Ok((
                            seq,
                            Msg::Resume {
                                worker,
                                last_seq,
                                attempt,
                            },
                        )) => {
                            handshake_resume(
                                &coord,
                                worker as usize,
                                seq,
                                last_seq,
                                attempt,
                                stream,
                            );
                        }
                        _ => {}
                    }
                });
            }
        });

        // Reaper: notice child exits even when the rank's handler thread
        // is parked (barrier, clock wait, mailbox poll), and harden
        // disconnects whose reconnect window expired into evictions. A
        // real process exit needs no reconnect grace — a corpse cannot
        // resume — so `SIGKILL` is still recorded within one heartbeat.
        let reap_coord = Arc::clone(&coord);
        std::thread::spawn(move || loop {
            if reap_coord.stop.load(Ordering::Relaxed) {
                return;
            }
            let exited: Vec<usize> = {
                let mut children = reap_coord.children.lock();
                children
                    .iter_mut()
                    .filter_map(|(w, c)| match c.try_wait() {
                        Ok(Some(_)) => Some(*w),
                        _ => None,
                    })
                    .collect()
            };
            for w in exited {
                let done = {
                    let m = reap_coord.members.lock();
                    m.outcomes[w].is_some()
                };
                if !done {
                    reap_coord.record_death(w);
                }
            }
            let expired: Vec<usize> = {
                let sess = reap_coord.sessions.lock();
                sess.iter()
                    .enumerate()
                    .filter(|(_, slot)| {
                        slot.disconnected_at
                            .is_some_and(|t| t.elapsed() >= reap_coord.cfg.reconnect_window)
                    })
                    .map(|(w, _)| w)
                    .collect()
            };
            for w in expired {
                reap_coord.record_death(w);
            }
            std::thread::sleep(reap_coord.cfg.heartbeat_interval);
        });

        for w in 0..workers {
            coord.spawn_worker(w)?;
        }
        Ok(ProcRun {
            coord,
            accept_thread: Some(accept_thread),
            started: Instant::now(),
            sink_enabled: sink.is_enabled(),
            cleaned: false,
        })
    }

    /// PIDs of every child spawned so far, with their ranks.
    pub fn pids(&self) -> Vec<(usize, u32)> {
        self.coord
            .children
            .lock()
            .iter()
            .map(|(w, c)| (*w, c.id()))
            .collect()
    }

    /// Block until the armed pause gate freezes its worker; returns the
    /// frozen rank and its PID.
    pub fn wait_paused(&self, timeout: Duration) -> Option<(usize, u32)> {
        let deadline = Instant::now() + timeout;
        let mut p = self.coord.pause.lock();
        while p.paused.is_none() {
            if Instant::now() >= deadline {
                return None;
            }
            self.coord
                .pause_cv
                .wait_for(&mut p, Duration::from_millis(20));
        }
        let rank = p.paused.unwrap();
        drop(p);
        let pid = self
            .pids()
            .into_iter()
            .rev()
            .find(|&(w, _)| w == rank)
            .map(|(_, pid)| pid)?;
        Some((rank, pid))
    }

    /// `SIGKILL` the paused worker, release the gate, and block until the
    /// coordinator records the eviction. Returns the killed PID.
    pub fn kill_paused(&self, timeout: Duration) -> Option<u32> {
        let (rank, pid) = self.wait_paused(timeout)?;
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        // Wait until the process is actually gone before releasing the
        // gate, so the handler's next write/read deterministically fails.
        let gone_by = Instant::now() + timeout;
        while std::path::Path::new(&format!("/proc/{pid}/exe")).exists() && Instant::now() < gone_by
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let mut p = self.coord.pause.lock();
            p.paused = None;
            p.released = true;
            self.coord.pause_cv.notify_all();
        }
        let deadline = Instant::now() + timeout;
        let mut m = self.coord.members.lock();
        while !m.dead(rank) {
            if Instant::now() >= deadline {
                return None;
            }
            self.coord
                .member_cv
                .wait_for(&mut m, Duration::from_millis(20));
        }
        Some(pid)
    }

    /// Wait for every rank to account for itself, then evaluate the final
    /// cohort's mean model and reap every child.
    pub fn finish(mut self, timeout: Duration) -> Result<ProcReport, ProcError> {
        let deadline = Instant::now() + timeout;
        {
            let mut m = self.coord.members.lock();
            loop {
                let done = (0..self.coord.cfg.plan.workers).all(|w| {
                    m.outcomes[w].is_some()
                        || (m.dead(w) && !m.rejoins.iter().any(|&(v, _)| v == w))
                });
                if done {
                    break;
                }
                if Instant::now() >= deadline {
                    drop(m);
                    self.cleanup();
                    return Err(ProcError::Stalled(format!(
                        "run did not complete within {timeout:?}"
                    )));
                }
                self.coord
                    .member_cv
                    .wait_for(&mut m, Duration::from_millis(50));
            }
        }
        let wall_time = self.started.elapsed();
        self.cleanup();
        let coord = &self.coord;
        let cfg = &coord.cfg;
        let m = coord.members.lock();

        let shard_len = cfg.task.train_size / cfg.plan.workers;
        let last_round = (cfg.plan.epochs * (shard_len / cfg.plan.batch) as u64).saturating_sub(1);
        let live = m.view(cfg.plan.workers).live_at(last_round);
        let finals: Vec<&ParamSet> = m
            .outcomes
            .iter()
            .enumerate()
            .filter(|(w, o)| o.is_some() && live.contains(w))
            .map(|(_, o)| &o.as_ref().unwrap().params)
            .collect();
        let finals = if finals.is_empty() {
            m.outcomes
                .iter()
                .filter_map(|o| o.as_ref().map(|out| &out.params))
                .collect()
        } else {
            finals
        };
        let mean = ParamSet::mean_of(&finals);
        let mut eval_net = mlp_classifier(
            cfg.task.input_dim,
            &cfg.hidden,
            cfg.task.num_classes,
            cfg.model_seed,
        );
        eval_net.set_params(&mean);
        let (_, test) = teacher_task(&cfg.task);
        let (x, y) = test.as_batch();
        let (loss, acc) = eval_net.eval_batch(x, &y);

        let per_worker: Vec<WorkerStats> = (0..cfg.plan.workers)
            .map(|w| {
                let (iters, bytes, busy) = m.outcomes[w]
                    .as_ref()
                    .map(|o| (o.iterations, o.logical_bytes, o.busy_ms))
                    .unwrap_or((0, 0, 0));
                WorkerStats {
                    iterations: iters + m.victim_iters[w],
                    logical_bytes: bytes,
                    busy_ms: busy,
                    evicted: m.dead(w),
                }
            })
            .collect();
        let total_iterations = per_worker.iter().map(|s| s.iterations).sum();

        Ok(ProcReport {
            strategy: cfg.plan.strategy.name(),
            final_accuracy: acc,
            final_loss: loss,
            wall_time,
            total_iterations,
            evictions: coord.evictions.load(Ordering::Relaxed),
            rejoins: coord.rejoins.load(Ordering::Relaxed),
            partial_rounds: coord.partial_rounds.load(Ordering::Relaxed),
            retries: coord.retries.load(Ordering::Relaxed),
            per_worker,
            final_params: mean,
        })
    }

    /// Kill and reap every spawned child, stop the service threads.
    fn cleanup(&mut self) {
        if self.cleaned {
            return;
        }
        self.cleaned = true;
        self.coord.stop.store(true, Ordering::Relaxed);
        // Release any paused handler so its thread can observe the dead
        // socket and exit.
        {
            let mut p = self.coord.pause.lock();
            p.released = true;
            self.coord.pause_cv.notify_all();
        }
        self.coord.mail_cv.notify_all();
        self.coord.pending_cv.notify_all();
        // Kill (idempotent for already-exited children) and reap.
        let mut children = std::mem::take(&mut *self.coord.children.lock());
        for (_, child) in children.iter_mut() {
            let _ = child.kill();
        }
        for (_, mut child) in children {
            let _ = child.wait();
        }
        // Unblock the accept loop with a dummy connection, then join it.
        if let Some(handle) = self.accept_thread.take() {
            let _ = TcpStream::connect(&self.coord.addr);
            let _ = handle.join();
        }
        let _ = self.sink_enabled;
    }
}

impl Drop for ProcRun {
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// Train on the process path: spawn, run to completion, evaluate.
pub fn train_proc(cfg: ProcConfig, timeout: Duration) -> Result<ProcReport, ProcError> {
    train_proc_observed(cfg, timeout, &ObsSink::disabled())
}

/// [`train_proc`] with structured-event observation: eviction/rejoin/
/// partial-barrier markers and final per-worker `logical.bytes` counters
/// land in `sink` on the same tracks the threaded path uses.
pub fn train_proc_observed(
    cfg: ProcConfig,
    timeout: Duration,
    sink: &ObsSink,
) -> Result<ProcReport, ProcError> {
    ProcRun::launch(cfg, sink)?.finish(timeout)
}
