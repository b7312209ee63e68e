//! Network-adversity DSL: seeded time-varying link traces for the
//! simulator, a frame-chaos spec for the process path's loopback TCP, and
//! the adaptive degradation controller's policy — one vocabulary, three
//! consumers.
//!
//! The sim generators expand deterministically into [`FaultKind::LinkDegrade`]
//! windows, which `dtrain-cluster::NetModel` already consumes, so a "bursty
//! cross-traffic" trace is just a denser, seeded schedule. The process path
//! cannot model bandwidth, so its adversity is frame-level: a [`ChaosSpec`]
//! drives a seeded interposer on the worker's send path that drops,
//! bit-corrupts, duplicates, and delays frames — the self-healing transport
//! (CRC + sequence numbers + reconnect-with-resume) must absorb all of it.
//! The [`DegradePolicy`] closes the loop: it reads live signals (straggle
//! ratio, comm fraction, retry rate) and decides whether a run
//! should degrade gracefully (BSP→SSP, DGC on) instead of grinding.

use dtrain_desim::SimTime;
use dtrain_obs::{ObsSink, Track};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::algo::Algo;
use crate::markers;
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

/// Shared shape of every sim-path trace generator.
#[derive(Clone, Copy, Debug)]
pub struct ChaosTraceCfg {
    pub seed: u64,
    pub machines: usize,
    /// Windows are generated in `[0, horizon)`.
    pub horizon: SimTime,
}

/// Bursty cross-traffic: short, deep bandwidth dips arriving Poisson-like
/// per machine (`bursts_per_machine` expected over the horizon, each
/// lasting `burst_len` at `factor`× bandwidth). Models a shared fabric
/// where someone else's shuffle lands on your NIC.
pub fn bursty_trace(
    cfg: ChaosTraceCfg,
    bursts_per_machine: f64,
    burst_len: SimTime,
    factor: f64,
) -> FaultSchedule {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0B0B_57CA_FF1C_00DE_u64);
    let span = cfg.horizon.as_nanos().max(1);
    let mut events = Vec::new();
    for machine in 0..cfg.machines {
        for _ in 0..poisson(&mut rng, bursts_per_machine) {
            events.push(FaultEvent {
                at: SimTime::from_nanos(rng.gen_range(0..span)),
                kind: FaultKind::LinkDegrade {
                    machine,
                    factor,
                    duration: burst_len,
                },
            });
        }
    }
    FaultSchedule::new(events)
}

/// Sustained WAN-tier squeeze: every machine's NIC drops to `factor`×
/// bandwidth for `[start, start + duration)` — the geo-distributed-tier
/// scenario where the inter-site trunk is the bottleneck. Deterministic
/// (no sampling); the seed is unused but kept in `cfg` for uniformity.
pub fn wan_squeeze_trace(
    cfg: ChaosTraceCfg,
    start: SimTime,
    duration: SimTime,
    factor: f64,
) -> FaultSchedule {
    let events = (0..cfg.machines)
        .map(|machine| FaultEvent {
            at: start,
            kind: FaultKind::LinkDegrade {
                machine,
                factor,
                duration,
            },
        })
        .collect();
    FaultSchedule::new(events)
}

/// Per-link jitter: shallow flutter windows every ~`period` per machine,
/// each scaling bandwidth by a factor drawn uniformly from
/// `[1 - amplitude, 1)`. Models ambient congestion noise.
pub fn jitter_trace(cfg: ChaosTraceCfg, period: SimTime, amplitude: f64) -> FaultSchedule {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0071_7E12_F107_7E12_u64);
    let amplitude = amplitude.clamp(0.0, 1.0);
    let period_ns = period.as_nanos().max(1);
    let mut events = Vec::new();
    for machine in 0..cfg.machines {
        let mut t = rng.gen_range(0..period_ns);
        while t < cfg.horizon.as_nanos() {
            let factor = 1.0 - rng.gen_range(0.0..amplitude.max(f64::MIN_POSITIVE));
            events.push(FaultEvent {
                at: SimTime::from_nanos(t),
                kind: FaultKind::LinkDegrade {
                    machine,
                    factor,
                    duration: SimTime::from_nanos(period_ns / 2),
                },
            });
            t += period_ns + rng.gen_range(0..period_ns / 4 + 1);
        }
    }
    FaultSchedule::new(events)
}

/// Merge several schedules into one (sorted; overlapping windows compound
/// multiplicatively inside `NetModel`).
pub fn merge(schedules: &[FaultSchedule]) -> FaultSchedule {
    FaultSchedule::new(
        schedules
            .iter()
            .flat_map(|s| s.events().iter().cloned())
            .collect(),
    )
}

/// Knuth's Poisson sampler (small λ).
fn poisson(rng: &mut SmallRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let (mut k, mut p) = (0usize, 1.0f64);
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// Frame chaos for the process path
// ---------------------------------------------------------------------------

/// Seeded frame-level adversity for the proc path's loopback TCP. All
/// probabilities are per-mille per frame, drawn on the worker's send path
/// *after* the CRC is computed — chaos models the wire, not the sender.
/// Crosses the coordinator→worker argv boundary as a compact string
/// (see [`ChaosSpec::encode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    pub seed: u64,
    /// Frame silently dropped (send skipped; recovered by resume/resend).
    pub drop_pm: u16,
    /// One bit of the frame flipped (detected by the CRC, never applied).
    pub corrupt_pm: u16,
    /// Frame sent twice (deduplicated by the sequence number).
    pub dup_pm: u16,
    /// Frame delayed by `delay_ms` before sending.
    pub delay_pm: u16,
    pub delay_ms: u16,
    /// After this many frames the link is cut for good: every further send
    /// fails and reconnects are refused, so the reconnect window expires
    /// and the ordinary eviction path must fire. `0` = never.
    pub sever_after: u64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            drop_pm: 0,
            corrupt_pm: 0,
            dup_pm: 0,
            delay_pm: 0,
            delay_ms: 1,
            sever_after: 0,
        }
    }
}

/// What the interposer does with one outgoing frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    Pass,
    Drop,
    /// Flip this bit offset (modulo the frame length) before sending.
    CorruptBit(u32),
    Duplicate,
    DelayMs(u16),
    /// The link is severed: the send fails and stays failed.
    Sever,
}

impl ChaosSpec {
    /// Per-`(spec seed, rank)` RNG so each worker's chaos stream is
    /// independent but reproducible.
    pub fn rng_for(&self, rank: usize) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ (rank as u64).wrapping_mul(0xC4A0_5C4A_05C4_A05D))
    }

    /// Decide the fate of frame number `frame_idx` (0-based, per worker).
    /// At most one action applies per frame; drop > corrupt > dup > delay.
    pub fn draw(&self, rng: &mut SmallRng, frame_idx: u64) -> ChaosAction {
        if self.sever_after > 0 && frame_idx >= self.sever_after {
            return ChaosAction::Sever;
        }
        let roll = rng.gen_range(0u32..1000);
        let bit = rng.gen::<u32>(); // always draw, so streams stay aligned
        let mut bound = self.drop_pm as u32;
        if roll < bound {
            return ChaosAction::Drop;
        }
        bound += self.corrupt_pm as u32;
        if roll < bound {
            return ChaosAction::CorruptBit(bit);
        }
        bound += self.dup_pm as u32;
        if roll < bound {
            return ChaosAction::Duplicate;
        }
        bound += self.delay_pm as u32;
        if roll < bound {
            return ChaosAction::DelayMs(self.delay_ms);
        }
        ChaosAction::Pass
    }

    /// Compact argv form: `seed:drop:corrupt:dup:delay_pm:delay_ms:sever`.
    pub fn encode(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}",
            self.seed,
            self.drop_pm,
            self.corrupt_pm,
            self.dup_pm,
            self.delay_pm,
            self.delay_ms,
            self.sever_after
        )
    }

    pub fn decode(s: &str) -> Result<ChaosSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 7 {
            return Err(format!("chaos spec needs 7 fields, got {}", parts.len()));
        }
        let field = |i: usize| -> Result<u64, String> {
            parts[i]
                .parse::<u64>()
                .map_err(|e| format!("chaos spec field {i} ({:?}): {e}", parts[i]))
        };
        let pm = |i: usize| -> Result<u16, String> {
            let v = field(i)?;
            if v > 1000 {
                return Err(format!("chaos spec field {i} = {v} exceeds 1000‰"));
            }
            Ok(v as u16)
        };
        let spec = ChaosSpec {
            seed: field(0)?,
            drop_pm: pm(1)?,
            corrupt_pm: pm(2)?,
            dup_pm: pm(3)?,
            delay_pm: pm(4)?,
            delay_ms: field(5)?.min(u16::MAX as u64) as u16,
            sever_after: field(6)?,
        };
        if spec.drop_pm as u32 + spec.corrupt_pm as u32 + spec.dup_pm as u32 + spec.delay_pm as u32
            > 1000
        {
            return Err("chaos probabilities sum past 1000‰".into());
        }
        Ok(spec)
    }

    /// Does this spec inject anything at all?
    pub fn is_active(&self) -> bool {
        self.drop_pm > 0
            || self.corrupt_pm > 0
            || self.dup_pm > 0
            || self.delay_pm > 0
            || self.sever_after > 0
    }
}

// ---------------------------------------------------------------------------
// Adaptive degradation controller policy
// ---------------------------------------------------------------------------

/// The live signals the controller reads at a segment boundary. Each path
/// distills them from its own metrics plumbing (MetricsHub breakdowns in
/// the sim, per-worker wall clocks in the threaded runtime, heartbeat
/// inter-arrival gaps + session retry counts on the proc path).
#[derive(Clone, Copy, Debug, Default)]
pub struct CtrlSignals {
    /// Slowest worker's per-iteration time over the cohort median.
    pub straggle_ratio: f64,
    /// Communication share of the end-to-end step time, in `[0, 1]`.
    pub comm_fraction: f64,
    /// Transport retries per iteration (proc session layer).
    pub retry_rate: f64,
}

/// What the controller does at a segment boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlAction {
    /// Signals healthy: keep the current strategy.
    Stay,
    /// Straggler-bound: relax the barrier, BSP→SSP at this staleness.
    SwitchToSsp { staleness: u64 },
    /// Comm-bound: turn on gradient compression, keep the strategy.
    EnableDgc,
}

impl CtrlAction {
    /// Scalar payload for the `ctrl.switch` marker.
    pub fn code(&self) -> i64 {
        match self {
            CtrlAction::Stay => 0,
            CtrlAction::SwitchToSsp { .. } => 1,
            CtrlAction::EnableDgc => 2,
        }
    }
}

/// Threshold policy table (DESIGN.md §8). Straggler pressure outranks
/// comm pressure: a barrier stuck behind one slow worker wastes the whole
/// cohort, whereas comm-bound rounds still make proportional progress.
#[derive(Clone, Copy, Debug)]
pub struct DegradePolicy {
    /// Trip BSP→SSP when `straggle_ratio` exceeds this.
    pub straggle_threshold: f64,
    /// Trip DGC-on when `comm_fraction` exceeds this (and stragglers
    /// are not the dominant problem).
    pub comm_threshold: f64,
    /// Retry storms count as comm pressure past this rate.
    pub retry_threshold: f64,
    /// Staleness bound adopted on a BSP→SSP switch.
    pub ssp_staleness: u64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            straggle_threshold: 2.0,
            comm_threshold: 0.6,
            retry_threshold: 0.5,
            ssp_staleness: 3,
        }
    }
}

/// Controller attachment for a run: segment the run into a probe window
/// and a remainder, read [`CtrlSignals`] at the boundary, and apply the
/// [`DegradePolicy`]'s verdict to the remainder (parameters adopted across
/// the switch). One function, [`run_controlled`], runs every execution path
/// through a [`SegmentedRun`] impl, so the three paths trip identically.
#[derive(Clone, Copy, Debug)]
pub struct CtrlPlan {
    pub enabled: bool,
    /// Epochs in the probe segment before the controller's decision point.
    pub probe_epochs: u64,
    pub policy: DegradePolicy,
}

impl Default for CtrlPlan {
    fn default() -> Self {
        CtrlPlan {
            enabled: false,
            probe_epochs: 1,
            policy: DegradePolicy::default(),
        }
    }
}

/// Slowest worker over the cohort median — the shared distillation of
/// per-worker busy time into [`CtrlSignals::straggle_ratio`]. An empty or
/// all-zero cohort reads as 1.0 (no straggle pressure).
pub fn straggle_ratio(busy_secs: &[f64]) -> f64 {
    if busy_secs.is_empty() {
        return 1.0;
    }
    let mut sorted: Vec<f64> = busy_secs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    let max = sorted[sorted.len() - 1];
    if median <= 0.0 {
        1.0
    } else {
        max / median
    }
}

impl DegradePolicy {
    pub fn decide(&self, s: &CtrlSignals) -> CtrlAction {
        if s.straggle_ratio > self.straggle_threshold {
            return CtrlAction::SwitchToSsp {
                staleness: self.ssp_staleness,
            };
        }
        if s.comm_fraction > self.comm_threshold || s.retry_rate > self.retry_threshold {
            return CtrlAction::EnableDgc;
        }
        CtrlAction::Stay
    }
}

/// Controller signals from per-worker busy seconds, the segment's wall
/// time, and the transport retries over its iterations. Whatever a worker
/// is not busy with is coordination: barrier waits, server round-trips,
/// exchange stalls, reconnect backoff.
pub fn busy_signals(
    busy_secs: &[f64],
    wall_secs: f64,
    retries: u64,
    iterations: u64,
) -> CtrlSignals {
    let mean_busy = if busy_secs.is_empty() {
        0.0
    } else {
        busy_secs.iter().sum::<f64>() / busy_secs.len() as f64
    };
    CtrlSignals {
        straggle_ratio: straggle_ratio(busy_secs),
        comm_fraction: if wall_secs > 0.0 {
            (1.0 - mean_busy / wall_secs).clamp(0.0, 1.0)
        } else {
            0.0
        },
        retry_rate: if iterations > 0 {
            retries as f64 / iterations as f64
        } else {
            0.0
        },
    }
}

/// One execution path as [`run_controlled`] sees it: a configured run that
/// executes in epoch segments and is reconfigured between them.
pub trait SegmentedRun {
    /// A finished segment's report.
    type Report;
    type Error;
    /// Epochs of the whole configured run.
    fn epochs(&self) -> u64;
    /// The algorithm the run is configured with.
    fn algo(&self) -> Algo;
    /// Run `epochs` epochs of the current configuration.
    fn run(&mut self, epochs: u64) -> Result<Self::Report, Self::Error>;
    /// Controller signals distilled from a finished segment.
    fn signals(&self, segment: &Self::Report) -> CtrlSignals;
    /// Timestamp of the `ctrl.switch` marker after `probe`: virtual time on
    /// the simulator (so the trace is bit-reproducible), wall time on the
    /// real paths.
    fn switch_ns(&self, probe: &Self::Report) -> u64;
    /// Configure the remainder: run `algo`, turn DGC on when `dgc` (on the
    /// paths that model it), and start from `probe`'s trained parameters.
    fn adopt(&mut self, probe: &Self::Report, algo: Algo, dgc: bool);
}

/// Outcome of a run under the degradation controller.
#[derive(Clone, Debug)]
pub struct AdaptiveReport<R> {
    /// Probe first, remainder second (single entry when the controller is
    /// disabled or the probe covers the whole run).
    pub segments: Vec<R>,
    /// Signals read at the segment boundary.
    pub signals: CtrlSignals,
    /// The policy's verdict at the boundary.
    pub action: CtrlAction,
}

impl<R> AdaptiveReport<R> {
    /// The final segment, which holds the trained model.
    pub fn last(&self) -> &R {
        self.segments
            .last()
            .expect("a controlled run has at least one segment")
    }
}

/// Run `run` under the degradation controller: a probe of
/// `ctrl.probe_epochs`, the policy's verdict on its signals, a
/// `ctrl.switch` marker on `Runtime(0)`, then the remainder under the
/// degraded configuration ([`Algo::degrade`]) with the probe's parameters
/// adopted. Each segment restarts its LR schedule over its own epoch span.
/// A disabled controller, or a probe covering the whole run, runs once
/// unchanged and emits no marker.
pub fn run_controlled<S: SegmentedRun>(
    run: &mut S,
    ctrl: &CtrlPlan,
    sink: &ObsSink,
) -> Result<AdaptiveReport<S::Report>, S::Error> {
    let epochs = run.epochs();
    if !ctrl.enabled || ctrl.probe_epochs >= epochs {
        return Ok(AdaptiveReport {
            segments: vec![run.run(epochs)?],
            signals: CtrlSignals::default(),
            action: CtrlAction::Stay,
        });
    }
    let probe = run.run(ctrl.probe_epochs)?;
    let signals = run.signals(&probe);
    let action = ctrl.policy.decide(&signals);
    markers::ctrl_switch(
        &sink.track(Track::Runtime(0)),
        run.switch_ns(&probe),
        action.code(),
    );
    let (algo, dgc) = run.algo().degrade(action);
    run.adopt(&probe, algo, dgc);
    let rest = run.run(epochs - ctrl.probe_epochs)?;
    Ok(AdaptiveReport {
        segments: vec![probe, rest],
        signals,
        action,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChaosTraceCfg {
        ChaosTraceCfg {
            seed: 99,
            machines: 3,
            horizon: SimTime::from_secs(30),
        }
    }

    #[test]
    fn traces_are_deterministic_and_seed_sensitive() {
        let a = bursty_trace(cfg(), 4.0, SimTime::from_millis(200), 0.2);
        let b = bursty_trace(cfg(), 4.0, SimTime::from_millis(200), 0.2);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let mut c2 = cfg();
        c2.seed = 100;
        assert_ne!(a, bursty_trace(c2, 4.0, SimTime::from_millis(200), 0.2));

        let j = jitter_trace(cfg(), SimTime::from_millis(500), 0.3);
        assert_eq!(j, jitter_trace(cfg(), SimTime::from_millis(500), 0.3));
        assert!(!j.is_empty());
    }

    #[test]
    fn windows_stay_inside_the_horizon_with_sane_factors() {
        let merged = merge(&[
            bursty_trace(cfg(), 6.0, SimTime::from_millis(100), 0.25),
            jitter_trace(cfg(), SimTime::from_millis(400), 0.2),
            wan_squeeze_trace(cfg(), SimTime::from_secs(5), SimTime::from_secs(10), 0.05),
        ]);
        assert!(!merged.is_empty());
        let mut last = SimTime::ZERO;
        for e in merged.events() {
            assert!(e.at <= cfg().horizon);
            assert!(e.at >= last, "merge must keep events sorted");
            last = e.at;
            match e.kind {
                FaultKind::LinkDegrade {
                    machine, factor, ..
                } => {
                    assert!(machine < cfg().machines);
                    assert!((0.0..1.0).contains(&factor), "factor {factor}");
                }
                ref other => panic!("chaos traces emit only LinkDegrade, got {other:?}"),
            }
        }
    }

    #[test]
    fn wan_squeeze_hits_every_machine_once() {
        let s = wan_squeeze_trace(cfg(), SimTime::from_secs(2), SimTime::from_secs(8), 0.1);
        assert_eq!(s.link_faults().len(), cfg().machines);
        for (at, _, factor, dur) in s.link_faults() {
            assert_eq!(at, SimTime::from_secs(2));
            assert_eq!(dur, SimTime::from_secs(8));
            assert_eq!(factor, 0.1);
        }
    }

    #[test]
    fn chaos_spec_round_trips_and_rejects_garbage() {
        let spec = ChaosSpec {
            seed: 41,
            drop_pm: 20,
            corrupt_pm: 15,
            dup_pm: 10,
            delay_pm: 50,
            delay_ms: 3,
            sever_after: 0,
        };
        assert_eq!(ChaosSpec::decode(&spec.encode()), Ok(spec));
        assert!(ChaosSpec::decode("1:2:3").is_err(), "too few fields");
        assert!(ChaosSpec::decode("x:0:0:0:0:0:0").is_err(), "non-numeric");
        assert!(
            ChaosSpec::decode("1:2000:0:0:0:0:0").is_err(),
            "probability past 1000‰"
        );
        assert!(
            ChaosSpec::decode("1:600:600:0:0:0:0").is_err(),
            "probabilities must sum ≤ 1000‰"
        );
    }

    #[test]
    fn chaos_draws_are_deterministic_per_rank_and_sever_dominates() {
        let spec = ChaosSpec {
            seed: 7,
            drop_pm: 100,
            corrupt_pm: 100,
            dup_pm: 100,
            delay_pm: 100,
            delay_ms: 2,
            sever_after: 5,
        };
        let run = |rank: usize| -> Vec<ChaosAction> {
            let mut rng = spec.rng_for(rank);
            (0..10).map(|i| spec.draw(&mut rng, i)).collect()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "ranks get independent streams");
        for (i, a) in run(1).iter().enumerate() {
            if i >= 5 {
                assert_eq!(*a, ChaosAction::Sever);
            } else {
                assert_ne!(*a, ChaosAction::Sever);
            }
        }
        // With all rates zero every frame passes.
        let quiet = ChaosSpec::default();
        assert!(!quiet.is_active());
        let mut rng = quiet.rng_for(0);
        assert!((0..50).all(|i| quiet.draw(&mut rng, i) == ChaosAction::Pass));
    }

    #[test]
    fn policy_table_matches_design() {
        let p = DegradePolicy::default();
        let healthy = CtrlSignals {
            straggle_ratio: 1.1,
            comm_fraction: 0.3,
            ..Default::default()
        };
        assert_eq!(p.decide(&healthy), CtrlAction::Stay);
        let straggling = CtrlSignals {
            straggle_ratio: 4.0,
            comm_fraction: 0.9, // stragglers outrank comm pressure
            ..Default::default()
        };
        assert_eq!(
            p.decide(&straggling),
            CtrlAction::SwitchToSsp { staleness: 3 }
        );
        let comm_bound = CtrlSignals {
            straggle_ratio: 1.2,
            comm_fraction: 0.8,
            ..Default::default()
        };
        assert_eq!(p.decide(&comm_bound), CtrlAction::EnableDgc);
        let retry_storm = CtrlSignals {
            straggle_ratio: 1.0,
            comm_fraction: 0.2,
            retry_rate: 2.0,
        };
        assert_eq!(p.decide(&retry_storm), CtrlAction::EnableDgc);
        assert_eq!(CtrlAction::Stay.code(), 0);
        assert_eq!(CtrlAction::SwitchToSsp { staleness: 3 }.code(), 1);
        assert_eq!(CtrlAction::EnableDgc.code(), 2);
    }

    #[test]
    fn busy_signals_read_idle_share_and_retries() {
        // Median busy 1 s, max 3 s; the mean rank is busy 5/3 s of 4 s.
        let s = busy_signals(&[1.0, 3.0, 1.0], 4.0, 6, 12);
        assert_eq!(s.straggle_ratio, 3.0);
        assert!((s.comm_fraction - (1.0 - 5.0 / 12.0)).abs() < 1e-12);
        assert_eq!(s.retry_rate, 0.5);
        let empty = busy_signals(&[], 0.0, 3, 0);
        assert_eq!(
            (empty.straggle_ratio, empty.comm_fraction, empty.retry_rate),
            (1.0, 0.0, 0.0)
        );
    }

    #[test]
    fn straggle_ratio_is_max_over_median() {
        assert_eq!(straggle_ratio(&[]), 1.0);
        assert_eq!(straggle_ratio(&[0.0, 0.0]), 1.0);
        assert_eq!(straggle_ratio(&[1.0, 1.0, 1.0, 1.0]), 1.0);
        // One slow worker in four: 3.0 over a median of 1.0.
        assert_eq!(straggle_ratio(&[1.0, 3.0, 1.0, 1.0]), 3.0);
        // Half the cohort slow is no longer a straggler story: the
        // median moves with them.
        assert!(straggle_ratio(&[1.0, 3.0, 3.0, 1.0]) <= 3.0 / 3.0 + 1e-9);
    }
}
