//! The discretised ECN action space (§3.3).
//!
//! The raw knob space is enormous (thresholds span a few KB to tens of MB,
//! probability is continuous). ACC discretises it: `Kmin` takes the
//! exponential ladder `E(n) = 20·2ⁿ KB` (fine steps where congestion lives),
//! `Kmax` takes coarse values `{1, 2, 5, 10} MB` (throughput is insensitive
//! above 1 MB), and `Pmax ∈ {1%, 5%, 10%, …, 100%}` (uniform 5% steps —
//! below that granularity the network barely reacts).
//!
//! The full cross-product (840 combinations with `Kmin ≤ Kmax`) is not built
//! here: the deployed system maps the NN output onto a small *template*
//! table in the switch ("configurator maps the action into the ECN
//! template", §3.1) — the paper's NN has ~20 outputs (§6). The default
//! [`ActionSpace::templates`] provides such a 20-entry table: ten latency
//! templates (tight `Kmax`, strong marking) and ten throughput templates
//! (wide `Kmax`, gentle marking), one pair per `Kmin` rung.

use crate::reward::{e_n, LADDER_LEVELS};
use netsim::queues::EcnConfig;
use serde::{Deserialize, Serialize};

/// A discrete, indexable set of ECN configurations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ActionSpace {
    actions: Vec<EcnConfig>,
}

const MB: u64 = 1024 * 1024;

impl ActionSpace {
    /// The default 20-entry template table (see module docs).
    pub fn templates() -> Self {
        let mut actions = Vec::with_capacity(2 * LADDER_LEVELS);
        for n in 0..LADDER_LEVELS {
            let kmin = e_n(n);
            // Latency-oriented: Kmax close above Kmin, aggressive marking.
            let kmax_lat = (4 * kmin).clamp(kmin, 10 * MB);
            actions.push(EcnConfig::new(kmin, kmax_lat, 0.25));
            // Throughput-oriented: wide marking band, gentle probability.
            let kmax_thr = (16 * kmin).clamp(MB, 10 * MB);
            actions.push(EcnConfig::new(kmin, kmax_thr.max(kmin), 0.05));
        }
        ActionSpace { actions }
    }

    /// A single-threshold sweep `Kmin = Kmax = E(n)` with `Pmax = 1`
    /// (the Fig. 1 / Fig. 17 style "ten levels of ECN threshold").
    pub fn single_threshold_ladder() -> Self {
        let actions = (0..LADDER_LEVELS)
            .map(|n| EcnConfig::new(e_n(n), e_n(n), 1.0))
            .collect();
        ActionSpace { actions }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The configuration for action index `i`.
    pub fn get(&self, i: usize) -> EcnConfig {
        self.actions[i]
    }

    /// All actions.
    pub fn actions(&self) -> &[EcnConfig] {
        &self.actions
    }

    /// The index whose configuration is closest to `cfg` (log-distance over
    /// Kmin/Kmax plus probability distance) — used to encode the *current*
    /// switch configuration as the `ECN(c)` state feature when ACC takes
    /// over a switch with a foreign static config.
    pub fn nearest(&self, cfg: &EcnConfig) -> usize {
        let dist = |a: &EcnConfig| -> f64 {
            let lk = |x: u64| (x.max(1) as f64).ln();
            (lk(a.kmin_bytes) - lk(cfg.kmin_bytes)).powi(2)
                + (lk(a.kmax_bytes) - lk(cfg.kmax_bytes)).powi(2)
                + (a.pmax - cfg.pmax).powi(2)
        };
        let mut best = 0;
        let mut best_d = f64::MAX;
        for (i, a) in self.actions.iter().enumerate() {
            let d = dist(a);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Normalised encoding of an action index into `[0, 1]` (the `ECN(c)`
    /// state feature).
    pub fn encode(&self, idx: usize) -> f32 {
        debug_assert!(idx < self.len());
        idx as f32 / (self.len() - 1) as f32
    }
}

impl Default for ActionSpace {
    fn default() -> Self {
        ActionSpace::templates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_space_shape() {
        let s = ActionSpace::templates();
        assert_eq!(s.len(), 20);
        for a in s.actions() {
            assert!(a.kmin_bytes <= a.kmax_bytes);
            assert!(a.pmax > 0.0 && a.pmax <= 1.0);
            assert!(a.kmax_bytes <= 10 * MB);
        }
        // Kmin rungs follow the exponential ladder, two templates per rung.
        assert_eq!(s.get(0).kmin_bytes, e_n(0));
        assert_eq!(s.get(1).kmin_bytes, e_n(0));
        assert_eq!(s.get(18).kmin_bytes, e_n(9));
    }

    #[test]
    fn ladder_space() {
        let s = ActionSpace::single_threshold_ladder();
        assert_eq!(s.len(), 10);
        for (n, a) in s.actions().iter().enumerate() {
            assert_eq!(a.kmin_bytes, a.kmax_bytes);
            assert_eq!(a.kmin_bytes, e_n(n));
            assert_eq!(a.pmax, 1.0);
        }
    }

    #[test]
    fn nearest_round_trips() {
        let s = ActionSpace::templates();
        for i in 0..s.len() {
            let a = s.get(i);
            assert_eq!(s.nearest(&a), i, "action {i} not its own nearest");
        }
    }

    #[test]
    fn nearest_maps_foreign_configs_sensibly() {
        let s = ActionSpace::templates();
        // The DCQCN-paper setting (5K/200K/1%) should land on a small-Kmin
        // template.
        let i = s.nearest(&EcnConfig::dcqcn_paper());
        assert!(s.get(i).kmin_bytes <= e_n(2));
        // A huge threshold should land near the top of the ladder.
        let j = s.nearest(&EcnConfig::new(8 * MB, 10 * MB, 0.05));
        assert!(s.get(j).kmin_bytes >= e_n(8));
    }

    #[test]
    fn encode_is_normalised() {
        let s = ActionSpace::templates();
        assert_eq!(s.encode(0), 0.0);
        assert_eq!(s.encode(s.len() - 1), 1.0);
        let mid = s.encode(s.len() / 2);
        assert!(mid > 0.0 && mid < 1.0);
    }
}
