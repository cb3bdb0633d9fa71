//! The closed-loop distributed-storage application model (§5.3.1, Table 1).
//!
//! Servers are split 3:1 into *compute* and *storage* nodes. Each compute
//! node keeps `io_depth` IOs outstanding (the FIO `iodepth` knob). Per IO,
//! a weighted coin picks read vs. write according to the profile's
//! read:write ratio, and the block size is drawn log-uniformly from the
//! profile's range:
//!
//! * **Read** — compute sends a 256 B request to a random storage node; the
//!   storage node "accesses the device" (a fixed latency) and streams the
//!   block back; completion of the block at the compute node finishes the IO.
//! * **Write** — compute streams the block to a random storage node; the
//!   storage node forwards a replica to `replication` other storage nodes;
//!   each replica acknowledges with a 64 B message; once all replica ACKs
//!   are in, the storage node sends a 256 B completion to the compute node.
//!
//! IOPS — the metric customers see (§6, footnote 5) — is completed IOs per
//! second, and is network-bound in exactly the way the paper describes:
//! reads stress storage→compute incast, writes stress the storage backplane.

use netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use transport::{AppHook, CcKind, CompletedMsg, Message};

/// Message-tag type field (bits 56..60 of the tag; bits 60..64 carry the
/// application id so co-resident apps — see [`crate::apptag`] — never
/// interpret each other's messages).
const T_READ_REQ: u64 = 1;
const T_READ_RESP: u64 = 2;
const T_WRITE_DATA: u64 = 3;
const T_REPL_DATA: u64 = 4;
const T_REPL_ACK: u64 = 5;
const T_WRITE_ACK: u64 = 6;

use crate::apptag::{self, APP_STORAGE};

#[inline]
fn tag(ty: u64, io: u64) -> u64 {
    apptag::tag(APP_STORAGE, ty, io)
}
#[inline]
fn tag_ty(t: u64) -> u64 {
    apptag::ty(t)
}
#[inline]
fn tag_io(t: u64) -> u64 {
    apptag::payload(t)
}

/// One of the Table-1 traffic profiles.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StorageProfile {
    /// Profile name as in Table 1.
    pub name: &'static str,
    /// Fraction of IOs that are reads (e.g. 0.5 for a 5:5 ratio).
    pub read_frac: f64,
    /// Smallest block size, bytes.
    pub block_min: u64,
    /// Largest block size, bytes (log-uniform between the two).
    pub block_max: u64,
}

impl StorageProfile {
    /// OLTP: 5:5 read:write, 512 B – 64 KB.
    pub fn oltp() -> Self {
        StorageProfile {
            name: "OLTP",
            read_frac: 0.5,
            block_min: 512,
            block_max: 64 * 1024,
        }
    }
    /// OLAP: 5:5, 256 KB – 4 MB.
    pub fn olap() -> Self {
        StorageProfile {
            name: "OLAP",
            read_frac: 0.5,
            block_min: 256 * 1024,
            block_max: 4 * 1024 * 1024,
        }
    }
    /// VDI: 2:8, 1 KB – 64 KB.
    pub fn vdi() -> Self {
        StorageProfile {
            name: "VDI",
            read_frac: 0.2,
            block_min: 1024,
            block_max: 64 * 1024,
        }
    }
    /// Exchange server: 6:4, 32 KB – 512 KB.
    pub fn exchange() -> Self {
        StorageProfile {
            name: "ExchangeServer",
            read_frac: 0.6,
            block_min: 32 * 1024,
            block_max: 512 * 1024,
        }
    }
    /// Video streaming: 2:8, 64 KB fixed.
    pub fn video() -> Self {
        StorageProfile {
            name: "VideoStreaming",
            read_frac: 0.2,
            block_min: 64 * 1024,
            block_max: 64 * 1024,
        }
    }
    /// File backup: 4:6, 16 KB – 64 KB.
    pub fn backup() -> Self {
        StorageProfile {
            name: "FileBackup",
            read_frac: 0.4,
            block_min: 16 * 1024,
            block_max: 64 * 1024,
        }
    }

    /// All six Table-1 profiles, in the paper's order.
    pub fn all() -> Vec<StorageProfile> {
        vec![
            Self::oltp(),
            Self::olap(),
            Self::vdi(),
            Self::exchange(),
            Self::video(),
            Self::backup(),
        ]
    }

    fn sample_block(&self, rng: &mut SmallRng) -> u64 {
        if self.block_min == self.block_max {
            return self.block_min;
        }
        let lo = (self.block_min as f64).ln();
        let hi = (self.block_max as f64).ln();
        ((lo + rng.gen::<f64>() * (hi - lo)).exp() as u64).clamp(self.block_min, self.block_max)
    }
}

/// Device access latency a storage node adds before it answers a read,
/// forwards a replica or acknowledges a write (NVMe-class).
pub const DEVICE_LATENCY: SimTime = SimTime::from_us(20);

/// Cluster-level knobs.
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// The Table-1 profile to run.
    pub profile: StorageProfile,
    /// Outstanding IOs per compute node.
    pub io_depth: usize,
    /// Extra replicas per write.
    pub replication: usize,
    /// Transport for all storage traffic (the paper uses RDMA between
    /// storage nodes and for the benchmark cluster).
    pub cc: CcKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            profile: StorageProfile::oltp(),
            io_depth: 16,
            replication: 2,
            cc: CcKind::Dcqcn,
            seed: 1,
        }
    }
}

struct WriteState {
    compute: NodeId,
    acks_pending: usize,
}

struct IoState {
    issued_at: SimTime,
    is_read: bool,
}

/// The cluster model; implements [`AppHook`].
pub struct StorageCluster {
    cfg: StorageConfig,
    compute: Vec<NodeId>,
    storage: Vec<NodeId>,
    rng: SmallRng,
    next_io: u64,
    writes: HashMap<u64, WriteState>,
    ios: HashMap<u64, IoState>,
    /// Completion log: (time, io latency, was_read).
    pub completions: Vec<(SimTime, SimTime, bool)>,
}

impl StorageCluster {
    /// Split `hosts` 3:1 into compute and storage nodes and build the model.
    pub fn new(hosts: &[NodeId], cfg: StorageConfig) -> Self {
        assert!(hosts.len() >= 4, "need at least 4 hosts for a 3:1 split");
        let n_storage = (hosts.len() / 4).max(2);
        let (compute, storage) = hosts.split_at(hosts.len() - n_storage);
        // A write needs `replication` storage nodes besides the primary;
        // small clusters clamp the factor rather than fail.
        let mut cfg = cfg;
        cfg.replication = cfg.replication.min(storage.len() - 1);
        let seed = cfg.seed;
        StorageCluster {
            cfg,
            compute: compute.to_vec(),
            storage: storage.to_vec(),
            rng: SmallRng::seed_from_u64(seed),
            next_io: 0,
            writes: HashMap::new(),
            ios: HashMap::new(),
            completions: Vec::new(),
        }
    }

    /// Compute nodes of the cluster.
    pub fn compute_nodes(&self) -> &[NodeId] {
        &self.compute
    }

    /// Storage nodes of the cluster.
    pub fn storage_nodes(&self) -> &[NodeId] {
        &self.storage
    }

    /// The initial message batch: `io_depth` IOs per compute node. Schedule
    /// these before running the simulation.
    pub fn initial_arrivals(&mut self, start: SimTime) -> Vec<crate::gen::Arrival> {
        let mut out = Vec::new();
        for ci in 0..self.compute.len() {
            for _ in 0..self.cfg.io_depth {
                let (src, msg) = self.issue_io(ci, start);
                out.push(crate::gen::Arrival {
                    src,
                    at: start,
                    msg,
                });
            }
        }
        out
    }

    /// Issue one new IO from compute node index `ci`; returns the first
    /// message of its chain.
    fn issue_io(&mut self, ci: usize, now: SimTime) -> (NodeId, Message) {
        let io = self.next_io;
        self.next_io += 1;
        let compute = self.compute[ci];
        let storage = self.storage[self.rng.gen_range(0..self.storage.len())];
        let is_read = self.rng.gen::<f64>() < self.cfg.profile.read_frac;
        let block = self.cfg.profile.sample_block(&mut self.rng);
        self.ios.insert(
            io,
            IoState {
                issued_at: now,
                is_read,
            },
        );
        let msg = if is_read {
            // The request carries the block size in its low tag bits via the
            // write map (reads reuse `writes` to remember the block size).
            self.writes.insert(
                io,
                WriteState {
                    compute,
                    acks_pending: block as usize, // stash block size
                },
            );
            Message::new(storage, 256, self.cfg.cc).with_tag(tag(T_READ_REQ, io))
        } else {
            Message::new(storage, block, self.cfg.cc).with_tag(tag(T_WRITE_DATA, io))
        };
        (compute, msg)
    }

    /// Record an IO completion (the caller then issues the next IO from the
    /// same compute node — the closed loop). Returns `false` for IOs this
    /// cluster never issued (a response meant for another cluster instance
    /// on the same hosts), which are ignored rather than counted (or
    /// panicked on).
    fn finish_io(&mut self, io: u64, now: SimTime) -> bool {
        match self.ios.remove(&io) {
            Some(st) => {
                self.completions.push((now, now - st.issued_at, st.is_read));
                true
            }
            None => false,
        }
    }

    /// Completed IOs per second over `[from, to)`.
    pub fn iops(&self, from: SimTime, to: SimTime) -> f64 {
        let n = self
            .completions
            .iter()
            .filter(|(t, _, _)| *t >= from && *t < to)
            .count();
        n as f64 / (to - from).as_secs_f64()
    }

    /// Mean IO latency over all completions, microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions
            .iter()
            .map(|(_, l, _)| l.as_us_f64())
            .sum::<f64>()
            / self.completions.len() as f64
    }
}

impl AppHook for StorageCluster {
    fn on_message_received(&mut self, m: &CompletedMsg) -> Vec<(SimTime, Message)> {
        if apptag::app(m.tag) != APP_STORAGE {
            // Another app's (or untagged) traffic on shared host stacks.
            return vec![];
        }
        let ty = tag_ty(m.tag);
        let io = tag_io(m.tag);
        match ty {
            T_READ_REQ => {
                // At the storage node: stream the block back after the
                // device access latency.
                let block = self
                    .writes
                    .remove(&io)
                    .map(|w| w.acks_pending as u64)
                    .unwrap_or(64 * 1024);
                vec![(
                    DEVICE_LATENCY,
                    Message::new(m.src, block, self.cfg.cc).with_tag(tag(T_READ_RESP, io)),
                )]
            }
            T_READ_RESP => {
                // At the compute node: IO done; issue the next one (unless
                // the IO is not this cluster's).
                let now = m.end;
                if !self.finish_io(io, now) {
                    return vec![];
                }
                let Some(ci) = self.compute.iter().position(|&c| c == m.dst) else {
                    return vec![];
                };
                let (src, msg) = self.issue_io(ci, now);
                debug_assert_eq!(src, m.dst);
                vec![(SimTime::ZERO, msg)]
            }
            T_WRITE_DATA => {
                // At the primary storage node: replicate after the device
                // write latency.
                let replicas: Vec<NodeId> = {
                    let mut cand: Vec<NodeId> = self
                        .storage
                        .iter()
                        .copied()
                        .filter(|&s| s != m.dst)
                        .collect();
                    for i in 0..self.cfg.replication.min(cand.len()) {
                        let j = self.rng.gen_range(i..cand.len());
                        cand.swap(i, j);
                    }
                    cand.truncate(self.cfg.replication);
                    cand
                };
                self.writes.insert(
                    io,
                    WriteState {
                        compute: m.src,
                        acks_pending: replicas.len(),
                    },
                );
                if replicas.is_empty() {
                    // No replication: acknowledge straight away.
                    let w = self.writes.remove(&io).unwrap();
                    return vec![(
                        DEVICE_LATENCY,
                        Message::new(w.compute, 256, self.cfg.cc).with_tag(tag(T_WRITE_ACK, io)),
                    )];
                }
                replicas
                    .into_iter()
                    .map(|r| {
                        (
                            DEVICE_LATENCY,
                            Message::new(r, m.bytes, self.cfg.cc).with_tag(tag(T_REPL_DATA, io)),
                        )
                    })
                    .collect()
            }
            T_REPL_DATA => {
                // At a replica: persist, then ack the primary.
                vec![(
                    DEVICE_LATENCY,
                    Message::new(m.src, 64, self.cfg.cc).with_tag(tag(T_REPL_ACK, io)),
                )]
            }
            T_REPL_ACK => {
                // At the primary: when all replicas answered, complete to the
                // compute node. Unknown writes are not this cluster's.
                let done = {
                    let Some(w) = self.writes.get_mut(&io) else {
                        return vec![];
                    };
                    w.acks_pending -= 1;
                    w.acks_pending == 0
                };
                if done {
                    let w = self.writes.remove(&io).unwrap();
                    vec![(
                        SimTime::ZERO,
                        Message::new(w.compute, 256, self.cfg.cc).with_tag(tag(T_WRITE_ACK, io)),
                    )]
                } else {
                    vec![]
                }
            }
            T_WRITE_ACK => {
                // At the compute node: IO done; issue the next one (same
                // handling of foreign IOs as reads).
                let now = m.end;
                if !self.finish_io(io, now) {
                    return vec![];
                }
                let Some(ci) = self.compute.iter().position(|&c| c == m.dst) else {
                    return vec![];
                };
                let (src, msg) = self.issue_io(ci, now);
                debug_assert_eq!(src, m.dst);
                vec![(SimTime::ZERO, msg)]
            }
            // Foreign messages (probes, other apps) are not ours to react to.
            _ => vec![],
        }
    }
}

/// Shared handle used when wiring the cluster into the simulator.
pub type SharedStorage = Rc<RefCell<StorageCluster>>;

#[cfg(test)]
mod tests {
    use super::*;
    use transport::{FctCollector, StackConfig};

    fn run_cluster(profile: StorageProfile, io_depth: usize, ms: u64) -> (f64, usize) {
        let topo = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let fct = FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
        let cfg = StorageConfig {
            profile,
            io_depth,
            ..Default::default()
        };
        let cluster = Rc::new(RefCell::new(StorageCluster::new(&hosts, cfg)));
        transport::set_app_hook(&mut sim, cluster.clone());
        let init = cluster.borrow_mut().initial_arrivals(SimTime::ZERO);
        crate::gen::apply_arrivals(&mut sim, &init);
        let horizon = SimTime::from_ms(ms);
        sim.run_until(horizon);
        let c = cluster.borrow();
        (c.iops(SimTime::ZERO, horizon), c.completions.len())
    }

    #[test]
    fn profiles_match_table1() {
        let all = StorageProfile::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].name, "OLTP");
        assert!((all[2].read_frac - 0.2).abs() < 1e-12, "VDI is 2:8");
        assert_eq!(all[4].block_min, all[4].block_max, "video is fixed 64KB");
        assert_eq!(all[1].block_max, 4 * 1024 * 1024, "OLAP up to 4MB");
    }

    #[test]
    fn block_sampling_in_range() {
        let p = StorageProfile::oltp();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let b = p.sample_block(&mut rng);
            assert!((p.block_min..=p.block_max).contains(&b));
        }
    }

    #[test]
    fn cluster_sustains_closed_loop() {
        let (iops, completed) = run_cluster(StorageProfile::oltp(), 4, 20);
        assert!(completed > 100, "only {completed} IOs in 20ms");
        assert!(iops > 5_000.0, "iops={iops}");
    }

    #[test]
    fn reads_and_writes_both_complete() {
        let topo = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let fct = FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
        let cluster = Rc::new(RefCell::new(StorageCluster::new(
            &hosts,
            StorageConfig::default(),
        )));
        transport::set_app_hook(&mut sim, cluster.clone());
        let init = cluster.borrow_mut().initial_arrivals(SimTime::ZERO);
        crate::gen::apply_arrivals(&mut sim, &init);
        sim.run_until(SimTime::from_ms(30));
        let c = cluster.borrow();
        let reads = c.completions.iter().filter(|(_, _, r)| *r).count();
        let writes = c.completions.len() - reads;
        assert!(reads > 20, "reads={reads}");
        assert!(writes > 20, "writes={writes}");
        // OLTP is 5:5; allow wide tolerance on a short run.
        let frac = reads as f64 / c.completions.len() as f64;
        assert!((0.3..0.7).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn deeper_iodepth_does_not_reduce_iops_when_unsaturated() {
        let (iops4, _) = run_cluster(StorageProfile::vdi(), 2, 20);
        let (iops16, _) = run_cluster(StorageProfile::vdi(), 8, 20);
        assert!(
            iops16 > iops4 * 1.2,
            "more outstanding IOs should raise IOPS: {iops4} vs {iops16}"
        );
    }

    #[test]
    fn split_is_three_to_one() {
        let hosts: Vec<NodeId> = (0..24).map(NodeId).collect();
        let c = StorageCluster::new(&hosts, StorageConfig::default());
        assert_eq!(c.compute_nodes().len(), 18);
        assert_eq!(c.storage_nodes().len(), 6);
    }
}
