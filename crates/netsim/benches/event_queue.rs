//! Microbenchmarks of the future-event queue: the timing-wheel
//! [`EventQueue`] against the reference [`HeapEventQueue`] on an
//! incast-heavy hold pattern, plus end-to-end `Simulator::step` throughput.
//!
//! The hold pattern is the classic priority-queue benchmark that matches
//! the engine's steady state: a queue preloaded to its working depth, then
//! pop-one/push-one at serialization-delay offsets. The one gate on the
//! wheel/heap ratio (>= 1.3x, median of alternating pairs) is the
//! `wheel_beats_reference_heap` test of `acc-bench`'s `perf` module, which
//! runs the same workload; this harness is for interactive profiling
//! (`cargo bench -p netsim --bench event_queue`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use netsim::event::{Event, EventQueue, HeapEventQueue};
use netsim::ids::{FlowId, NodeId, PRIO_RDMA};
use netsim::prelude::*;

/// Working depth of the queue during the hold benchmark. An incast run on
/// the quick fabric keeps a few thousand events in flight.
const DEPTH: usize = 4096;
/// Hold operations per measured batch.
const OPS: u64 = 20_000;

/// Deterministic xorshift so both queues see the identical op stream.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Incast-like inter-event offset: mostly sub-microsecond serialization /
/// propagation gaps (in-wheel), a sliver of far-future control timers
/// (overflow tier), and exact ties from simultaneous arrivals.
fn incast_offset(rng: &mut Lcg) -> u64 {
    match rng.next() % 16 {
        0..=9 => rng.next() % 700_000,     // ≤ 0.7 µs: serialization gaps
        10..=13 => rng.next() % 4_000_000, // ≤ 4 µs: propagation + queueing
        14 => 50_000_000,                  // control-tick distance
        _ => 0,                            // simultaneous arrival (FIFO tie)
    }
}

fn preloaded_wheel(seed: u64) -> (EventQueue, Lcg, SimTime) {
    let mut rng = Lcg(seed);
    let mut q = EventQueue::new();
    let mut t = SimTime::ZERO;
    for i in 0..DEPTH {
        t = SimTime::from_ps(t.as_ps() + incast_offset(&mut rng) / 16);
        q.push(
            t,
            Event::HostTimer {
                host: NodeId(0),
                token: i as u64,
            },
        );
    }
    (q, rng, t)
}

fn preloaded_heap(seed: u64) -> (HeapEventQueue, Lcg, SimTime) {
    let mut rng = Lcg(seed);
    let mut q = HeapEventQueue::new();
    let mut t = SimTime::ZERO;
    for i in 0..DEPTH {
        t = SimTime::from_ps(t.as_ps() + incast_offset(&mut rng) / 16);
        q.push(
            t,
            Event::HostTimer {
                host: NodeId(0),
                token: i as u64,
            },
        );
    }
    (q, rng, t)
}

fn bench_queue_hold(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(OPS));
    g.sample_size(20);
    g.bench_function("wheel_hold_incast", |b| {
        b.iter_batched(
            || preloaded_wheel(0x9E37_79B9_7F4A_7C15),
            |(mut q, mut rng, _)| {
                let mut acc = 0u64;
                for i in 0..OPS {
                    let s = q.pop().expect("queue stays at DEPTH");
                    acc ^= s.seq;
                    let t = SimTime::from_ps(s.time.as_ps() + incast_offset(&mut rng));
                    q.push(
                        t,
                        Event::HostTimer {
                            host: NodeId(0),
                            token: i,
                        },
                    );
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("heap_hold_incast", |b| {
        b.iter_batched(
            || preloaded_heap(0x9E37_79B9_7F4A_7C15),
            |(mut q, mut rng, _)| {
                let mut acc = 0u64;
                for i in 0..OPS {
                    let s = q.pop().expect("queue stays at DEPTH");
                    acc ^= s.seq;
                    let t = SimTime::from_ps(s.time.as_ps() + incast_offset(&mut rng));
                    q.push(
                        t,
                        Event::HostTimer {
                            host: NodeId(0),
                            token: i,
                        },
                    );
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A driver that blasts fixed-size packets at one destination, re-arming
/// itself on every TX-ready, so the event loop runs a saturated hot path
/// without the transport crate (netsim benches cannot depend on it).
struct Blast {
    dst: NodeId,
    remaining: u32,
}
impl NicDriver for Blast {
    fn on_packet(&mut self, _p: &Packet, _c: &mut HostCtx<'_>) {}
    fn on_tx_ready(&mut self, ctx: &mut HostCtx<'_>) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
        self.pump(ctx);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
impl Blast {
    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        let src = ctx.host();
        // Keep ~16 KB queued at the NIC; on_tx_ready refills as it drains.
        while self.remaining > 0 && ctx.egress_backlog_bytes(PRIO_RDMA) < 16_000 {
            let last = self.remaining == 1;
            let seq = u64::from(self.remaining) * 1000;
            ctx.send(Packet::data(
                FlowId(u64::from(src.0)),
                src,
                self.dst,
                PRIO_RDMA,
                seq,
                1000,
                last,
                Ecn::Ect,
            ));
            self.remaining -= 1;
        }
    }
}

/// End-to-end event-loop throughput on an 8-to-1 incast: exercises the
/// whole dispatch path (wheel, switch RX, DWRR, PFC, serialization).
fn bench_step_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(10);
    g.bench_function("sim_step_incast_8to1", |b| {
        b.iter_batched(
            || {
                let topo =
                    TopologySpec::single_switch(9, 25_000_000_000, SimTime::from_ns(500)).build();
                let mut sim = Simulator::new(topo, SimConfig::default());
                let hosts: Vec<NodeId> = sim.core().topo.hosts().to_vec();
                let dst = hosts[8];
                for &h in &hosts[..8] {
                    sim.set_driver(
                        h,
                        Box::new(Blast {
                            dst,
                            remaining: 500,
                        }),
                    );
                    sim.with_driver(h, |_, ctx| ctx.set_timer_at(SimTime::ZERO, 0));
                }
                sim
            },
            |mut sim| {
                sim.run_until(SimTime::from_ms(5));
                sim.core().events_processed
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_queue_hold, bench_step_throughput);
criterion_main!(benches);
