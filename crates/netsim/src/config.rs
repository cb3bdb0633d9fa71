//! Simulation-wide and per-port configuration.

use crate::ids::DEFAULT_NUM_PRIOS;
use crate::queues::{EcnConfig, MAX_PRIOS};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Per-port configuration applied when a switch or host port is instantiated.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PortConfig {
    /// Number of egress traffic classes.
    pub num_prios: usize,
    /// DWRR weight per class. A weight of 0 means *strict priority*: the
    /// class is always served before any weighted class (higher index wins
    /// among strict classes).
    pub weights: Vec<u32>,
    /// Initial ECN/RED marking configuration per class (`None` = no marking).
    pub ecn: Vec<Option<EcnConfig>>,
    /// Per-class maximum queue depth in bytes (drop-tail bound). PFC should
    /// keep lossless classes well below this.
    pub max_queue_bytes: Vec<u64>,
    /// Packets of slab capacity reserved per switch. A simulation core keeps
    /// one slab behind every egress queue of every port it simulates and
    /// creates it with room for `arena_slots` packets for each switch it
    /// owns (all of them, unsharded; at least one switch's worth). The slab
    /// grows on demand, but any growth is a heap allocation on the packet
    /// hot path — size this above the deepest backlog per switch the
    /// workload reaches, host NIC queues included, to keep the steady
    /// state allocation-free (`acc-bench`'s `engine_counts` test prints
    /// both numbers).
    #[serde(default = "default_arena_slots")]
    pub arena_slots: usize,
}

/// Serde default for [`PortConfig::arena_slots`] (configs recorded before
/// the field existed deserialize to the same capacity new ones default to).
fn default_arena_slots() -> usize {
    2048
}

impl Default for PortConfig {
    fn default() -> Self {
        // prio 0 = TCP (drop-tail, weight 3), prio 1 = RDMA (ECN + PFC,
        // weight 7), prio 2 = control (strict priority). The lossless RDMA
        // class is bounded by PFC and the shared buffer, not by a per-queue
        // drop-tail cap (a cap below what the dynamic PFC threshold allows
        // to accumulate would silently violate losslessness).
        PortConfig {
            num_prios: DEFAULT_NUM_PRIOS,
            weights: vec![3, 7, 0],
            ecn: vec![None, Some(EcnConfig::dcqcn_paper()), None],
            max_queue_bytes: vec![5 * 1024 * 1024, u64::MAX, 4 * 1024 * 1024],
            arena_slots: default_arena_slots(),
        }
    }
}

impl PortConfig {
    /// A configuration with `num_prios` classes sharing equal weight and no
    /// marking; useful for tests.
    pub fn plain(num_prios: usize) -> Self {
        PortConfig {
            num_prios,
            weights: vec![1; num_prios],
            ecn: vec![None; num_prios],
            max_queue_bytes: vec![10 * 1024 * 1024; num_prios],
            arena_slots: default_arena_slots(),
        }
    }

    /// Set the DWRR weight split between the TCP (prio 0) and RDMA (prio 1)
    /// classes, e.g. `with_tcp_rdma_split(30, 70)`.
    pub fn with_tcp_rdma_split(mut self, tcp: u32, rdma: u32) -> Self {
        self.weights[0] = tcp;
        self.weights[1] = rdma;
        self
    }

    fn validate(&self) {
        assert!(self.num_prios > 0, "at least one traffic class required");
        assert!(
            self.num_prios <= MAX_PRIOS,
            "at most 8 traffic classes (PFC bitmask), got {}",
            self.num_prios
        );
        assert_eq!(self.weights.len(), self.num_prios);
        assert_eq!(self.ecn.len(), self.num_prios);
        assert_eq!(self.max_queue_bytes.len(), self.num_prios);
    }
}

/// Global simulation parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Maximum payload bytes per data packet (RoCE MTU minus headers).
    pub mtu_payload: u32,
    /// Switch shared buffer size in bytes.
    pub buffer_bytes: u64,
    /// Dynamic PFC threshold parameter: Xoff for an ingress (port, prio)
    /// counter fires when it exceeds `pfc_alpha * free_buffer`.
    pub pfc_alpha: f64,
    /// Resume (Xon) once the counter falls below `pfc_xon_frac * Xoff`.
    pub pfc_xon_frac: f64,
    /// Bitmask of lossless traffic classes protected by PFC
    /// (bit `p` set = class `p` is lossless). Default: RDMA + control.
    pub lossless_mask: u8,
    /// Control-plane tick interval for [`crate::control::QueueController`]s;
    /// `None` disables the control plane.
    pub control_interval: Option<SimTime>,
    /// Per-port defaults applied at build time.
    pub port: PortConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            mtu_payload: 1000,
            buffer_bytes: 32 * 1024 * 1024,
            pfc_alpha: 1.0 / 8.0,
            pfc_xon_frac: 0.5,
            lossless_mask: 0b110,
            control_interval: Some(SimTime::from_us(50)),
            port: PortConfig::default(),
        }
    }
}

impl SimConfig {
    /// Validate internal consistency; panics on misconfiguration.
    pub fn validate(&self) {
        assert!(self.mtu_payload > 0, "mtu_payload must be positive");
        assert!(self.buffer_bytes > 0, "buffer must be positive");
        assert!(
            self.pfc_alpha > 0.0 && self.pfc_alpha.is_finite(),
            "pfc_alpha must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.pfc_xon_frac),
            "pfc_xon_frac must be in [0,1]"
        );
        self.port.validate();
        assert!(
            u32::from(self.lossless_mask) >> self.port.num_prios == 0,
            "lossless_mask {:#b} names a class beyond the port's {}",
            self.lossless_mask,
            self.port.num_prios
        );
    }

    /// Convenience: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: set the control interval (ACC's delta_t).
    pub fn with_control_interval(mut self, dt: SimTime) -> Self {
        self.control_interval = Some(dt);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimConfig::default().validate();
    }

    #[test]
    fn default_port_shape() {
        let p = PortConfig::default();
        assert_eq!(p.num_prios, 3);
        assert_eq!(p.weights[2], 0, "control class is strict priority");
        assert!(p.ecn[1].is_some(), "RDMA class is marked by default");
        assert!(p.ecn[0].is_none());
    }

    #[test]
    #[should_panic(expected = "mtu_payload")]
    fn zero_mtu_rejected() {
        let mut c = SimConfig::default();
        c.mtu_payload = 0;
        c.validate();
    }

    /// A ninth class would have no bit of its own in the `u8` PFC masks.
    #[test]
    #[should_panic(expected = "at most 8 traffic classes (PFC bitmask), got 9")]
    fn nine_classes_rejected() {
        let mut c = SimConfig::default();
        c.port = PortConfig::plain(9);
        c.validate();
    }

    /// A lossless bit for a class the ports lack would protect nothing.
    #[test]
    #[should_panic(expected = "lossless_mask 0b110 names a class beyond the port's 1")]
    fn lossless_bit_past_the_classes_rejected() {
        let mut c = SimConfig::default();
        c.port = PortConfig::plain(1);
        c.validate();
    }

    #[test]
    fn builder_helpers() {
        let p = PortConfig::default().with_tcp_rdma_split(30, 70);
        assert_eq!(p.weights[0], 30);
        assert_eq!(p.weights[1], 70);
    }
}
