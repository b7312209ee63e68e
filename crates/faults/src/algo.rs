//! The seven algorithms of the paper (Table I), named once for every
//! execution path: the simulator (`dtrain-algos`), the threaded runtime and
//! the process path. It lives here, beside [`CtrlAction`], because the
//! degradation controller decides switches between algorithms.

use crate::chaos::CtrlAction;

/// The seven algorithms of the paper (Table I), with their hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// Bulk Synchronous Parallel (centralized, synchronous).
    Bsp,
    /// Asynchronous Parallel (centralized, asynchronous).
    Asp,
    /// Stale Synchronous Parallel with staleness threshold `s`.
    Ssp { staleness: u64 },
    /// Elastic Averaging SGD with communication period `tau` and moving
    /// rate `alpha` (the paper's recommended α = 0.9/N when `None`; see
    /// [`Algo::easgd_alpha`]).
    Easgd { tau: u64, alpha: Option<f32> },
    /// AllReduce SGD (decentralized, synchronous; ring collective).
    /// Simulator only: the threaded and process paths reject it.
    ArSgd,
    /// Gossip SGD with exchange probability `p`.
    GoSgd { p: f64 },
    /// Asynchronous Decentralized Parallel SGD (bipartite pairing).
    AdPsgd,
}

impl Algo {
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Bsp => "BSP",
            Algo::Asp => "ASP",
            Algo::Ssp { .. } => "SSP",
            Algo::Easgd { .. } => "EASGD",
            Algo::ArSgd => "AR-SGD",
            Algo::GoSgd { .. } => "GoSGD",
            Algo::AdPsgd => "AD-PSGD",
        }
    }

    /// Centralized algorithms use parameter servers.
    pub fn is_centralized(&self) -> bool {
        matches!(
            self,
            Algo::Bsp | Algo::Asp | Algo::Ssp { .. } | Algo::Easgd { .. }
        )
    }

    /// Synchronous algorithms keep replicas identical every iteration.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, Algo::Bsp | Algo::ArSgd)
    }

    /// Algorithms that communicate gradients (vs. parameters); only these
    /// admit wait-free BP and DGC (paper §V-B/C).
    pub fn communicates_gradients(&self) -> bool {
        matches!(self, Algo::Bsp | Algo::Asp | Algo::Ssp { .. } | Algo::ArSgd)
    }

    /// EASGD's moving rate for a cohort of `workers`: the configured
    /// `alpha`, else the paper's 0.9/N.
    pub fn easgd_alpha(alpha: Option<f32>, workers: usize) -> f32 {
        alpha.unwrap_or(0.9 / workers as f32)
    }

    /// The algorithm, and whether DGC turns on, after the controller's
    /// verdict. Only BSP switches to SSP: the barrier is what a straggler
    /// poisons, and the other algorithms already decouple. DGC applies
    /// only to algorithms that communicate gradients.
    pub fn degrade(self, action: CtrlAction) -> (Algo, bool) {
        match action {
            CtrlAction::SwitchToSsp { staleness } if self == Algo::Bsp => {
                (Algo::Ssp { staleness }, false)
            }
            CtrlAction::EnableDgc => (self, self.communicates_gradients()),
            _ => (self, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_table() {
        let ssp = CtrlAction::SwitchToSsp { staleness: 3 };
        let easgd = Algo::Easgd {
            tau: 4,
            alpha: None,
        };
        let gosgd = Algo::GoSgd { p: 0.1 };
        let ssp1 = Algo::Ssp { staleness: 1 };
        // (algo, algo after SwitchToSsp, DGC on after EnableDgc); no
        // verdict but SwitchToSsp changes the algorithm, and only
        // EnableDgc turns DGC on.
        let table = [
            (Algo::Bsp, Algo::Ssp { staleness: 3 }, true),
            (Algo::Asp, Algo::Asp, true),
            (ssp1, ssp1, true),
            (easgd, easgd, false),
            (Algo::ArSgd, Algo::ArSgd, true),
            (gosgd, gosgd, false),
            (Algo::AdPsgd, Algo::AdPsgd, false),
        ];
        for (algo, after_ssp, dgc) in table {
            assert_eq!(algo.degrade(CtrlAction::Stay), (algo, false), "{algo:?}");
            assert_eq!(algo.degrade(ssp), (after_ssp, false), "{algo:?}");
            assert_eq!(algo.degrade(CtrlAction::EnableDgc), (algo, dgc), "{algo:?}");
        }
    }

    #[test]
    fn names() {
        assert_eq!(Algo::Bsp.name(), "BSP");
        assert_eq!(Algo::Ssp { staleness: 3 }.name(), "SSP");
        assert_eq!(Algo::GoSgd { p: 0.1 }.name(), "GoSGD");
        assert_eq!(Algo::ArSgd.name(), "AR-SGD");
    }
}
