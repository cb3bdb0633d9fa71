//! The periodic queue sampler: a read-only hook inside the event loop.

use crate::recorder::{RunRecorder, SharedRecorder};
use crate::samples::QueueSample;
use netsim::ids::{NodeId, PortId};
use netsim::sim::{SimCore, Simulator};
use netsim::time::SimTime;
use std::collections::HashMap;

/// Cumulative counters remembered between samples of one queue.
#[derive(Clone, Copy, Debug, Default)]
struct PrevCounters {
    tx_bytes: u64,
    tx_pkts: u64,
    marked_pkts: u64,
    marked_bytes: u64,
    drops: u64,
    enq_pkts: u64,
    pfc_pauses: u64,
    pause_ps: u64,
}

/// Move every fault `core` executed since the previous drain onto `rec`'s
/// event timeline (in execution order, so byte-identical across identical
/// runs). The sampler does this each interval; a harness calls it once more
/// at the end of a run, for faults that fired after the last sampling tick.
pub fn drain_fault_log(core: &mut SimCore, rec: &mut RunRecorder) {
    for f in core.drain_fault_log() {
        rec.record_event(&(&f).into());
    }
}

/// Install a sampler that records a [`QueueSample`] for every egress queue
/// of every switch, every `interval`, into `recorder`.
///
/// The hook only reads counters — it never mutates queues, the RNG or the
/// schedule beyond its own sampling event, so an identical seeded run
/// without the sampler produces the identical packet trajectory. Rows with
/// no activity in the interval (empty queue, nothing transmitted, enqueued,
/// dropped or paused) are elided to bound file size.
///
/// In a sharded run the sampler is installed in every shard (the sampling
/// tick is replicated so shard clocks agree), but each shard samples only
/// the switches it owns — the per-shard streams partition the full record
/// set and merge losslessly ([`crate::merge::merge_shards`]). Unsharded,
/// every node is owned and the filter is a no-op.
pub fn install_queue_sampler(sim: &mut Simulator, interval: SimTime, recorder: SharedRecorder) {
    let switches: Vec<NodeId> = sim.core().topo.switches().to_vec();
    let mut prev: HashMap<(u32, u16, u8), PrevCounters> = HashMap::new();
    sim.set_sampler(
        interval,
        Box::new(move |core| {
            let t_ps = core.now().as_ps();
            let num_prios = core.cfg.port.num_prios;
            let mut rec = recorder.borrow_mut();
            for &sw in &switches {
                if !core.owns_node(sw) {
                    continue;
                }
                let n_ports = core.topo.node(sw).ports.len();
                let buffer_used_bytes = core.buffer_used(sw);
                for p in 0..n_ports {
                    let port = PortId(p as u16);
                    let pfc_pauses = core.pfc_pauses_of_port(sw, port);
                    for prio in 0..num_prios as u8 {
                        let q = core.queue(sw, port, prio);
                        let qlen_bytes = q.bytes();
                        let t = core.queue_telem(sw, port, prio);
                        let pause_ps = core.pfc_pause_time(sw, port, prio).as_ps();
                        let cur = PrevCounters {
                            tx_bytes: t.tx_bytes,
                            tx_pkts: t.tx_pkts,
                            marked_pkts: t.tx_marked_pkts,
                            marked_bytes: t.tx_marked_bytes,
                            drops: t.drops,
                            enq_pkts: t.enq_pkts,
                            pfc_pauses,
                            pause_ps,
                        };
                        let pv = prev.insert((sw.0, port.0, prio), cur).unwrap_or_default();
                        let s = QueueSample {
                            t_ps,
                            node: sw.0,
                            port: port.0,
                            prio,
                            qlen_bytes,
                            d_tx_bytes: cur.tx_bytes - pv.tx_bytes,
                            d_tx_pkts: cur.tx_pkts - pv.tx_pkts,
                            d_marked_pkts: cur.marked_pkts - pv.marked_pkts,
                            d_marked_bytes: cur.marked_bytes - pv.marked_bytes,
                            d_drops: cur.drops - pv.drops,
                            d_enq_pkts: cur.enq_pkts - pv.enq_pkts,
                            d_pfc_pauses: cur.pfc_pauses - pv.pfc_pauses,
                            d_pause_ps: cur.pause_ps - pv.pause_ps,
                            buffer_used_bytes,
                        };
                        let quiet = s.qlen_bytes == 0
                            && s.d_tx_pkts == 0
                            && s.d_enq_pkts == 0
                            && s.d_drops == 0
                            && s.d_pfc_pauses == 0
                            && s.d_pause_ps == 0;
                        if !quiet {
                            rec.record_queue(&s);
                        }
                    }
                }
            }
            drain_fault_log(core, &mut rec);
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RunRecorder;
    use crate::sink::VecSink;
    use netsim::config::SimConfig;
    use netsim::topology::TopologySpec;

    #[test]
    fn no_traffic_means_no_rows_but_sampling_still_runs() {
        let topo = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500)).build();
        let mut cfg = SimConfig::default();
        cfg.control_interval = None;
        let mut sim = Simulator::new(topo, cfg);
        let rec = RunRecorder::new()
            .with_sink(Box::new(VecSink::new()))
            .into_shared();
        install_queue_sampler(&mut sim, SimTime::from_us(100), rec.clone());
        sim.run_until(SimTime::from_ms(1));
        // Ten sampling ticks happened, but an idle network emits zero rows.
        assert_eq!(rec.borrow().queue_samples, 0);
    }
}
