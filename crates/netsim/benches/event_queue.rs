//! Microbenchmarks of the future-event queue: the timing-wheel
//! [`EventQueue`] against the reference [`HeapEventQueue`] on two hold
//! patterns, plus end-to-end `Simulator::step` throughput.
//!
//! The hold pattern is the classic priority-queue benchmark that matches
//! the engine's steady state: a queue preloaded to its working depth, then
//! pop-one/push-one at serialization-delay offsets. `hold_incast` is the
//! sparse one (4096 pending over ~0.6 ms); `dense` is shaped like the
//! 288-host WebSearch run that was profiled (see EXPERIMENTS.md, "The event
//! queue was 46 % of `websearch-packet`"): ~1,900 pending, ~180 events per
//! 262 ns, one push in twenty landing in the bucket being drained. The one
//! gate on the wheel/heap ratio (>= 1.3x, median of alternating pairs) is
//! the `wheel_beats_reference_heap` test of `acc-bench`'s `perf` module,
//! which runs the incast workload; this harness is for interactive
//! profiling (`cargo bench -p netsim --bench event_queue`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use netsim::event::{Event, EventQueue, HeapEventQueue, Scheduled};
use netsim::ids::{FlowId, NodeId, PRIO_RDMA};
use netsim::prelude::*;

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

/// Offsets of a loaded 288-host fabric. The mean, 2.8 µs, over 1,900
/// pending events gives the measured 0.69 events per nanosecond.
fn dense_offset(rng: &mut Lcg) -> u64 {
    match rng.next() % 20 {
        0..=7 => rng.next() % 700_000,              // serialization
        8..=16 => 500_000 + rng.next() % 1_000_000, // propagation + serialization
        17..=18 => rng.next() % 44_000_000,         // pace timers of throttled flows
        _ => rng.next() % 50_000,                   // the bucket being drained
    }
}

/// One hold workload: working depth and offset distribution.
struct Hold {
    name: &'static str,
    depth: usize,
    offset: fn(&mut Lcg) -> u64,
}

const HOLDS: [Hold; 2] = [
    // An incast run on the quick fabric keeps a few thousand events in flight.
    Hold {
        name: "hold_incast",
        depth: 4096,
        offset: incast_offset,
    },
    Hold {
        name: "dense",
        depth: 1900,
        offset: dense_offset,
    },
];

fn timer(token: u64) -> Event {
    Event::HostTimer {
        host: NodeId(0),
        token,
    }
}

/// Bench `OPS` pop-one/push-one steps on a queue preloaded to `hold.depth`.
fn bench_hold<Q>(
    g: &mut criterion::BenchmarkGroup<'_>,
    queue: &str,
    hold: &Hold,
    new: fn() -> Q,
    push: fn(&mut Q, SimTime, Event),
    pop: fn(&mut Q) -> Option<Scheduled>,
) {
    g.bench_function(&format!("{queue}_{}", hold.name), |b| {
        b.iter_batched(
            || {
                let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
                let mut q = new();
                let mut t = 0;
                for i in 0..hold.depth {
                    t += (hold.offset)(&mut rng) / 16;
                    push(&mut q, SimTime::from_ps(t), timer(i as u64));
                }
                (q, rng)
            },
            |(mut q, mut rng)| {
                let mut acc = 0u64;
                for i in 0..OPS {
                    let s = pop(&mut q).expect("queue stays at depth");
                    acc ^= s.seq;
                    let t = SimTime::from_ps(s.time.as_ps() + (hold.offset)(&mut rng));
                    push(&mut q, t, timer(i));
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_queue_hold(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(OPS));
    g.sample_size(20);
    for hold in &HOLDS {
        bench_hold(
            &mut g,
            "wheel",
            hold,
            EventQueue::new,
            EventQueue::push,
            EventQueue::pop,
        );
        bench_hold(
            &mut g,
            "heap",
            hold,
            HeapEventQueue::new,
            HeapEventQueue::push,
            HeapEventQueue::pop,
        );
    }
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
