//! Shared state for the threaded engine's aggregation algorithms.
//!
//! These are the same seven algorithms as `dtrain-algos`, but running on
//! real OS threads against real shared memory: a `Mutex`-guarded parameter
//! server for the centralized family, channels for the decentralized one.
//! Unlike the simulator, execution here is *not* deterministic — it races
//! like production training does.

use std::sync::Arc;

use crossbeam_channel::{unbounded, Receiver, Sender};
use dtrain_nn::{ParamSet, SgdMomentum};
use parking_lot::{Condvar, Mutex};

/// Centralized shared state: global parameters + optimizer + SSP clocks.
pub struct PsState {
    pub global: Mutex<(ParamSet, SgdMomentum)>,
    pub clocks: Mutex<Vec<u64>>,
    pub clock_moved: Condvar,
}

impl PsState {
    pub fn new(params: ParamSet, momentum: f32, weight_decay: f32, workers: usize) -> Arc<Self> {
        Arc::new(PsState {
            global: Mutex::new((params, SgdMomentum::new(momentum, weight_decay))),
            clocks: Mutex::new(vec![0; workers]),
            clock_moved: Condvar::new(),
        })
    }

    /// ASP/SSP push, or a BSP round's averaged gradient: apply `grad` at
    /// `lr` once and return fresh global params.
    pub fn push_and_pull(&self, grad: &ParamSet, lr: f32) -> ParamSet {
        let mut g = self.global.lock();
        let (params, opt) = &mut *g;
        opt.step(params, grad, lr);
        params.clone()
    }

    /// Read-only snapshot of the global parameters.
    pub fn snapshot(&self) -> ParamSet {
        self.global.lock().0.clone()
    }

    /// Advance `worker`'s clock to `clock` and wake staleness waiters.
    pub fn bump_clock(&self, worker: usize, clock: u64) {
        let mut clocks = self.clocks.lock();
        clocks[worker] = clock;
        drop(clocks);
        self.clock_moved.notify_all();
    }

    /// Block until `min(clocks) ≥ needed` (SSP gating). Returns the min.
    pub fn wait_for_min_clock(&self, needed: u64) -> u64 {
        let mut clocks = self.clocks.lock();
        loop {
            let min = clocks.iter().copied().min().unwrap_or(0);
            if min >= needed {
                return min;
            }
            self.clock_moved.wait(&mut clocks);
        }
    }

    /// Elastic-averaging exchange (EASGD): center pulls toward the worker,
    /// the returned params pull the worker toward the center.
    pub fn elastic_exchange(&self, worker_params: &ParamSet, alpha: f32) -> ParamSet {
        let mut g = self.global.lock();
        let (center, _) = &mut *g;
        let mut updated = worker_params.clone();
        updated.lerp(center, alpha);
        center.lerp(worker_params, alpha);
        updated
    }
}

/// A gossip share: parameters plus their push-sum mixing weight.
pub struct GossipMsg {
    pub params: ParamSet,
    pub alpha: f32,
}

/// An AD-PSGD exchange request: the active side's parameters and a channel
/// to send the agreed midpoint back on.
pub struct ExchangeMsg {
    pub params: ParamSet,
    pub reply: Sender<ParamSet>,
}

/// Per-worker mailboxes for the decentralized strategies.
pub struct PeerNet {
    pub gossip_tx: Vec<Sender<GossipMsg>>,
    pub gossip_rx: Vec<Mutex<Receiver<GossipMsg>>>,
    pub exchange_tx: Vec<Sender<PeerCtrl>>,
    pub exchange_rx: Vec<Mutex<Receiver<PeerCtrl>>>,
    /// Hierarchical-collective mailboxes: `(sender_rank, payload)` for the
    /// intra-machine reduce/broadcast legs.
    pub coll_tx: Vec<Sender<(usize, ParamSet)>>,
    pub coll_rx: Vec<Mutex<Receiver<(usize, ParamSet)>>>,
}

/// Control messages on the exchange channels.
pub enum PeerCtrl {
    Exchange(ExchangeMsg),
    /// One active worker finished (passives exit after hearing from all).
    Done,
}

impl PeerNet {
    pub fn new(workers: usize) -> Arc<Self> {
        let mut gossip_tx = Vec::with_capacity(workers);
        let mut gossip_rx = Vec::with_capacity(workers);
        let mut exchange_tx = Vec::with_capacity(workers);
        let mut exchange_rx = Vec::with_capacity(workers);
        let mut coll_tx = Vec::with_capacity(workers);
        let mut coll_rx = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (gt, gr) = unbounded();
            gossip_tx.push(gt);
            gossip_rx.push(Mutex::new(gr));
            let (et, er) = unbounded();
            exchange_tx.push(et);
            exchange_rx.push(Mutex::new(er));
            let (ct, cr) = unbounded();
            coll_tx.push(ct);
            coll_rx.push(Mutex::new(cr));
        }
        Arc::new(PeerNet {
            gossip_tx,
            gossip_rx,
            exchange_tx,
            exchange_rx,
            coll_tx,
            coll_rx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_tensor::Tensor;

    fn ps(v: &[f32]) -> ParamSet {
        ParamSet(vec![Tensor::from_vec(&[v.len()], v.to_vec())])
    }

    #[test]
    fn push_and_pull_applies_gradient() {
        let state = PsState::new(ps(&[1.0, 2.0]), 0.0, 0.0, 2);
        let fresh = state.push_and_pull(&ps(&[1.0, -1.0]), 0.5);
        assert_eq!(fresh.0[0].data(), &[0.5, 2.5]);
        assert_eq!(state.snapshot().0[0].data(), &[0.5, 2.5]);
    }

    #[test]
    fn elastic_exchange_moves_both_sides() {
        let state = PsState::new(ps(&[0.0]), 0.0, 0.0, 1);
        let updated = state.elastic_exchange(&ps(&[10.0]), 0.25);
        // worker pulled toward center: 10 − 0.25·10 = 7.5
        assert_eq!(updated.0[0].data(), &[7.5]);
        // center pulled toward worker: 0 + 0.25·10 = 2.5
        assert_eq!(state.snapshot().0[0].data(), &[2.5]);
    }

    #[test]
    fn clock_gating_blocks_until_released() {
        let state = PsState::new(ps(&[0.0]), 0.0, 0.0, 2);
        state.bump_clock(0, 5);
        let s2 = Arc::clone(&state);
        let waiter = std::thread::spawn(move || s2.wait_for_min_clock(3));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "must wait for worker 1's clock");
        state.bump_clock(1, 4);
        let min = waiter.join().expect("waiter thread");
        assert_eq!(min, 4);
    }

    #[test]
    fn peer_net_routes_messages() {
        let net = PeerNet::new(2);
        net.gossip_tx[1]
            .send(GossipMsg {
                params: ps(&[1.0]),
                alpha: 0.5,
            })
            .expect("send");
        let got = net.gossip_rx[1].lock().try_recv().expect("recv");
        assert_eq!(got.alpha, 0.5);
    }
}
