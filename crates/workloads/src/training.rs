//! The parameter-server distributed-training model (§5.3.2).
//!
//! `n` workers train synchronously against one parameter server. Each
//! iteration, every worker pushes its gradients (one message of
//! `gradient_bytes`) to the PS; when all gradients are in, the PS applies
//! the update and broadcasts the fresh model to every worker; each worker
//! then computes for `compute_time` before pushing the next gradient.
//! Iterations per second is the training-speed metric of Fig. 10.
//!
//! Model sizes are configurable; the presets scale the real AlexNet /
//! ResNet-50 parameter counts down by 10x so that a packet-level simulation
//! covers multiple iterations in a manageable event budget — the
//! communication:computation ratio (which is what ECN tuning affects) is
//! preserved by scaling the compute time with the model.

use netsim::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use transport::{AppHook, CcKind, CompletedMsg, Message};

use crate::apptag::{self, APP_TRAINING};

const T_GRAD: u64 = 1;
const T_MODEL: u64 = 2;

#[inline]
fn tag(ty: u64, worker: u64) -> u64 {
    apptag::tag(APP_TRAINING, ty, worker)
}

/// Training-cluster parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Bytes pushed per worker per iteration (and broadcast back).
    pub gradient_bytes: u64,
    /// Per-iteration local computation time.
    pub compute_time: SimTime,
    /// Transport used (RDMA in the paper's GPU cluster).
    pub cc: CcKind,
}

impl TrainingConfig {
    /// AlexNet-like: big model, relatively short compute — communication
    /// bound (the case where the network matters most).
    pub fn alexnet() -> Self {
        TrainingConfig {
            gradient_bytes: 24_000_000, // ~240 MB scaled by 10
            compute_time: SimTime::from_ms(3),
            cc: CcKind::Dcqcn,
        }
    }

    /// ResNet-50-like: smaller model, longer compute.
    pub fn resnet50() -> Self {
        TrainingConfig {
            gradient_bytes: 10_000_000, // ~100 MB scaled by 10
            compute_time: SimTime::from_ms(8),
            cc: CcKind::Dcqcn,
        }
    }
}

/// The PS-training application; implements [`AppHook`].
pub struct TrainingCluster {
    cfg: TrainingConfig,
    workers: Vec<NodeId>,
    ps: NodeId,
    grads_this_iter: HashSet<u64>,
    /// Completed iterations with their completion times.
    pub iterations: Vec<SimTime>,
}

impl TrainingCluster {
    /// `hosts[..n-1]` become workers, the last host the parameter server
    /// (the paper's 7-worker + 1-PS setup uses 8 hosts).
    pub fn new(hosts: &[NodeId], cfg: TrainingConfig) -> Self {
        assert!(hosts.len() >= 2, "need a worker and a PS");
        let (workers, ps) = hosts.split_at(hosts.len() - 1);
        TrainingCluster {
            cfg,
            workers: workers.to_vec(),
            ps: ps[0],
            grads_this_iter: HashSet::new(),
            iterations: Vec::new(),
        }
    }

    /// Worker nodes.
    pub fn workers(&self) -> &[NodeId] {
        &self.workers
    }

    /// The parameter server.
    pub fn ps(&self) -> NodeId {
        self.ps
    }

    /// First gradient push from every worker (after one compute period).
    pub fn initial_arrivals(&self, start: SimTime) -> Vec<crate::gen::Arrival> {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, &w)| crate::gen::Arrival {
                src: w,
                at: start + self.cfg.compute_time,
                msg: Message::new(self.ps, self.cfg.gradient_bytes, self.cfg.cc)
                    .with_tag(tag(T_GRAD, i as u64)),
            })
            .collect()
    }

    /// Iterations per second over the window `[from, to)`.
    pub fn iterations_per_sec(&self, from: SimTime, to: SimTime) -> f64 {
        let n = self
            .iterations
            .iter()
            .filter(|&&t| t >= from && t < to)
            .count();
        n as f64 / (to - from).as_secs_f64()
    }
}

impl AppHook for TrainingCluster {
    fn on_message_received(&mut self, m: &CompletedMsg) -> Vec<(SimTime, Message)> {
        if apptag::app(m.tag) != APP_TRAINING {
            // Another app's (or untagged) traffic on shared host stacks.
            return vec![];
        }
        let ty = apptag::ty(m.tag);
        let idx = apptag::payload(m.tag);
        match ty {
            T_GRAD => {
                // At the PS. A gradient aimed at a different PS node, or
                // from a worker index past ours, is not ours.
                if m.dst != self.ps || idx as usize >= self.workers.len() {
                    return vec![];
                }
                self.grads_this_iter.insert(idx);
                if self.grads_this_iter.len() == self.workers.len() {
                    self.grads_this_iter.clear();
                    self.iterations.push(m.end);
                    // Broadcast the fresh model.
                    self.workers
                        .iter()
                        .enumerate()
                        .map(|(i, &w)| {
                            (
                                SimTime::ZERO,
                                Message::new(w, self.cfg.gradient_bytes, self.cfg.cc)
                                    .with_tag(tag(T_MODEL, i as u64)),
                            )
                        })
                        .collect()
                } else {
                    vec![]
                }
            }
            T_MODEL => {
                // At a worker: compute, then push the next gradient.
                if idx as usize >= self.workers.len() {
                    return vec![];
                }
                vec![(
                    self.cfg.compute_time,
                    Message::new(self.ps, self.cfg.gradient_bytes, self.cfg.cc)
                        .with_tag(tag(T_GRAD, idx)),
                )]
            }
            // Foreign messages (probes, other apps) are not ours to react to.
            _ => vec![],
        }
    }
}

/// Shared handle used when wiring the cluster into the simulator.
pub type SharedTraining = Rc<RefCell<TrainingCluster>>;

#[cfg(test)]
mod tests {
    use super::*;
    use transport::{FctCollector, StackConfig};

    #[test]
    fn synchronous_iterations_progress() {
        let topo = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let fct = FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
        let cfg = TrainingConfig {
            gradient_bytes: 1_000_000,
            compute_time: SimTime::from_ms(1),
            cc: CcKind::Dcqcn,
        };
        let cluster = Rc::new(RefCell::new(TrainingCluster::new(&hosts, cfg)));
        transport::set_app_hook(&mut sim, cluster.clone());
        let init = cluster.borrow().initial_arrivals(SimTime::ZERO);
        crate::gen::apply_arrivals(&mut sim, &init);
        sim.run_until(SimTime::from_ms(100));
        let c = cluster.borrow();
        assert!(
            c.iterations.len() >= 5,
            "expected several iterations, got {}",
            c.iterations.len()
        );
        // Iterations are strictly ordered in time.
        for w in c.iterations.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(c.iterations_per_sec(SimTime::ZERO, SimTime::from_ms(100)) > 50.0);
    }

    #[test]
    fn iteration_time_lower_bound() {
        // One iteration >= compute + 7 gradients serialized into one PS link
        // + model broadcast out of the same link.
        let topo = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let fct = FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
        let cfg = TrainingConfig {
            gradient_bytes: 2_000_000,
            compute_time: SimTime::from_ms(1),
            cc: CcKind::Dcqcn,
        };
        let cluster = Rc::new(RefCell::new(TrainingCluster::new(&hosts, cfg)));
        transport::set_app_hook(&mut sim, cluster.clone());
        let init = cluster.borrow().initial_arrivals(SimTime::ZERO);
        crate::gen::apply_arrivals(&mut sim, &init);
        sim.run_until(SimTime::from_ms(200));
        let c = cluster.borrow();
        assert!(c.iterations.len() >= 2);
        let gap = c.iterations[1] - c.iterations[0];
        // 7 workers x 2MB in + 7 x 2MB out over 25G ≈ 4.5ms+4.5ms, + 1ms
        // compute: at least ~7ms even with perfect pipelining.
        assert!(
            gap > SimTime::from_ms(6),
            "iteration gap implausibly small: {gap}"
        );
    }

    #[test]
    fn presets_are_ordered() {
        let a = TrainingConfig::alexnet();
        let r = TrainingConfig::resnet50();
        assert!(a.gradient_bytes > r.gradient_bytes);
        assert!(a.compute_time < r.compute_time);
    }
}
