//! Deterministic fault injection: scripted link, switch and telemetry faults.
//!
//! A [`FaultPlan`] is a seeded, serializable schedule of [`FaultKind`]s that
//! [`crate::sim::Simulator::install_fault_plan`] turns into ordinary events
//! in the simulation's future-event list. Faults therefore execute at exact
//! simulated times, interleaved deterministically with packet events:
//! identical seeds and identical plans reproduce identical runs, byte for
//! byte, which is what makes failure testing regressable.
//!
//! Two RNG streams keep determinism composable: the packet path keeps using
//! the config-seeded engine RNG, while probabilistic faults (packet loss)
//! draw from a dedicated RNG seeded from [`FaultPlan::seed`]. A run with a
//! loss-free plan is bit-identical to the same run with no plan at all.
//!
//! What can be injected:
//!
//! * **Link flaps** — [`FaultKind::LinkDown`] / [`FaultKind::LinkUp`]:
//!   both directions fail, routes steer around the failure, packets already
//!   in flight toward the dead link are lost at arrival, and PFC pause state
//!   on both endpoints is cleared so a flap can never leave a port paused
//!   forever.
//! * **Rate degradation** — [`FaultKind::DegradeLink`]: the link serializes
//!   at a reduced rate (a flapping optic, a misnegotiated speed) until
//!   [`FaultKind::RestoreLinkRate`].
//! * **Packet loss** — [`FaultKind::PacketLoss`]: a fraction of packets
//!   arriving at one port is black-holed (1.0 = total blackhole, 0.0 =
//!   healthy again).
//! * **Switch reboot** — [`FaultKind::SwitchReboot`]: every egress queue is
//!   flushed (the packets are lost), the ECN configuration reverts to the
//!   configured static default, and PFC state is reset with resumes sent so
//!   peers un-stick.
//! * **Telemetry faults** — [`FaultKind::TelemetryFreeze`] /
//!   [`FaultKind::TelemetryBlank`]: the counters a controller reads through
//!   [`crate::control::SwitchView::snapshot`] freeze at their current values
//!   or read back as zero, while the data path keeps running. This is the
//!   "stale state vector" failure mode safe-mode guardrails must catch; the
//!   flight-recorder sampler keeps seeing ground truth so the divergence is
//!   observable.
//!
//! A plan is checked twice before anything is scheduled: structurally
//! ([`FaultPlan::validate`], also run by the deserializer) and against the
//! fabric it is installed on ([`FaultPlan::check_topology`]: every node and
//! port exists, switch-only faults name switches).
//!
//! Every executed fault is reported once, by the engine's `report_fault`:
//! appended to the in-core fault log
//! ([`crate::sim::SimCore::drain_fault_log`]) — one entry at the endpoint
//! the fault names, whose [`FaultDetail`] carries the rest (a link fault's
//! far end, a rate, a loss fraction, a flush count) — and marked in the
//! profiler when profiling is on.

use crate::ids::{NodeId, PortId};
use crate::queues::QueueTelemetry;
use crate::time::SimTime;
use crate::topology::{NodeKind, Topology};
use serde::{Deserialize, Serialize};

/// Why a [`FaultPlan`] (or one of its [`FaultKind`]s) was rejected. Typed so
/// tooling that loads hand-edited plans can distinguish a bad parameter from
/// a structurally impossible schedule or an endpoint the fabric does not
/// have — and so the rejection happens at deserialization or installation
/// time, not mid-run.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// `DegradeLink` with a zero line rate (a degraded link still serializes).
    ZeroDegradedRate {
        /// Link endpoint.
        node: NodeId,
        /// Port on that endpoint.
        port: PortId,
    },
    /// `PacketLoss` fraction is NaN/infinite.
    NonFiniteLossFraction {
        /// Receiving node.
        node: NodeId,
        /// Ingress port.
        port: PortId,
    },
    /// `PacketLoss` fraction outside `[0, 1]`.
    LossFractionOutOfRange {
        /// Receiving node.
        node: NodeId,
        /// Ingress port.
        port: PortId,
        /// The offending fraction.
        frac: f64,
    },
    /// Two `SwitchReboot`s of the same switch scheduled closer together than
    /// the reboot settle window — the second would flush a switch that is
    /// still settling from the first, which is never a meaningful schedule
    /// (it is almost always a duplicated line in a hand-edited plan).
    OverlappingReboots {
        /// The switch rebooted twice.
        node: NodeId,
        /// First scheduled reboot.
        first: SimTime,
        /// Conflicting second reboot.
        second: SimTime,
    },
    /// An event names a node the topology does not have.
    UnknownNode {
        /// Position of the event in [`FaultPlan::events`].
        event: usize,
        /// The fault it schedules.
        kind: FaultKind,
    },
    /// An event names a port its node does not have.
    UnknownPort {
        /// Position of the event in [`FaultPlan::events`].
        event: usize,
        /// The fault it schedules.
        kind: FaultKind,
    },
    /// A switch-only fault (`SwitchReboot`, `Telemetry*`) names a host.
    SwitchOnlyFault {
        /// Position of the event in [`FaultPlan::events`].
        event: usize,
        /// The fault it schedules.
        kind: FaultKind,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ZeroDegradedRate { node, port } => {
                write!(f, "DegradeLink at {}:{} needs rate_bps > 0", node.0, port.0)
            }
            FaultPlanError::NonFiniteLossFraction { node, port } => {
                write!(f, "PacketLoss frac at {}:{} is not finite", node.0, port.0)
            }
            FaultPlanError::LossFractionOutOfRange { node, port, frac } => {
                write!(
                    f,
                    "PacketLoss frac {frac} at {}:{} outside [0, 1]",
                    node.0, port.0
                )
            }
            FaultPlanError::OverlappingReboots {
                node,
                first,
                second,
            } => {
                write!(
                    f,
                    "switch {} rebooted at {first} and again at {second}: reboot windows \
                     must be at least {} apart",
                    node.0, REBOOT_SETTLE
                )
            }
            FaultPlanError::UnknownNode { event, kind }
            | FaultPlanError::UnknownPort { event, kind }
            | FaultPlanError::SwitchOnlyFault { event, kind } => {
                let (node, port) = kind.target();
                write!(f, "event {event} ({}): node {} ", kind.name(), node.0)?;
                match (self, port) {
                    (FaultPlanError::UnknownNode { .. }, _) => write!(f, "does not exist"),
                    (_, Some(port)) => write!(f, "has no port {}", port.0),
                    (_, None) => write!(f, "is a host; this fault applies to switches only"),
                }
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Minimum spacing between two reboots of the same switch: a reboot flushes
/// queues and resets state, and the fabric needs at least this long before a
/// second reboot of the same box describes a distinct fault (rather than a
/// duplicated schedule entry).
pub const REBOOT_SETTLE: SimTime = SimTime::from_us(100);

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail the link attached to (`node`, `port`) — both directions.
    LinkDown {
        /// One endpoint of the link.
        node: NodeId,
        /// Port on that endpoint.
        port: PortId,
    },
    /// Restore the link attached to (`node`, `port`).
    LinkUp {
        /// One endpoint of the link.
        node: NodeId,
        /// Port on that endpoint.
        port: PortId,
    },
    /// Degrade the serialization rate of the link attached to
    /// (`node`, `port`) — both directions — to `rate_bps`.
    DegradeLink {
        /// One endpoint of the link.
        node: NodeId,
        /// Port on that endpoint.
        port: PortId,
        /// Degraded line rate, bits/s (must be positive).
        rate_bps: u64,
    },
    /// Undo a [`FaultKind::DegradeLink`]: the link serializes at its
    /// topology-configured rate again.
    RestoreLinkRate {
        /// One endpoint of the link.
        node: NodeId,
        /// Port on that endpoint.
        port: PortId,
    },
    /// Black-hole a fraction of the packets arriving at (`node`, `port`).
    /// `frac = 1.0` drops everything; `frac = 0.0` restores health.
    PacketLoss {
        /// Receiving node.
        node: NodeId,
        /// Ingress port whose arrivals are lossy.
        port: PortId,
        /// Fraction of arrivals dropped, in `[0, 1]`.
        frac: f64,
    },
    /// Reboot a switch: flush all egress queues (packets lost), reset every
    /// queue's ECN config to the configured static default, clear PFC state
    /// (sending resumes upstream) and restore telemetry health.
    SwitchReboot {
        /// The switch to reboot.
        node: NodeId,
    },
    /// Freeze the telemetry counters controllers read from `node`: every
    /// subsequent [`crate::control::SwitchView::snapshot`] returns the
    /// values current at injection time, while the data path keeps moving.
    TelemetryFreeze {
        /// The node whose telemetry freezes.
        node: NodeId,
    },
    /// Blank the telemetry counters controllers read from `node`: snapshots
    /// return zeroed counters and an empty queue.
    TelemetryBlank {
        /// The node whose telemetry blanks.
        node: NodeId,
    },
    /// Restore healthy telemetry reads on `node`.
    TelemetryRestore {
        /// The node whose telemetry recovers.
        node: NodeId,
    },
}

impl FaultKind {
    /// Stable machine-readable name (used in the fault log and telemetry).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkUp { .. } => "link_up",
            FaultKind::DegradeLink { .. } => "link_degrade",
            FaultKind::RestoreLinkRate { .. } => "link_rate_restore",
            FaultKind::PacketLoss { .. } => "packet_loss",
            FaultKind::SwitchReboot { .. } => "switch_reboot",
            FaultKind::TelemetryFreeze { .. } => "telem_freeze",
            FaultKind::TelemetryBlank { .. } => "telem_blank",
            FaultKind::TelemetryRestore { .. } => "telem_restore",
        }
    }

    /// The node this fault names, and the port on it — `None` for the
    /// node-wide faults, which apply to switches only.
    pub(crate) fn target(&self) -> (NodeId, Option<PortId>) {
        match *self {
            FaultKind::LinkDown { node, port }
            | FaultKind::LinkUp { node, port }
            | FaultKind::DegradeLink { node, port, .. }
            | FaultKind::RestoreLinkRate { node, port }
            | FaultKind::PacketLoss { node, port, .. } => (node, Some(port)),
            FaultKind::SwitchReboot { node }
            | FaultKind::TelemetryFreeze { node }
            | FaultKind::TelemetryBlank { node }
            | FaultKind::TelemetryRestore { node } => (node, None),
        }
    }

    /// Parameter sanity check; `Err` says exactly what is wrong.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        match *self {
            FaultKind::DegradeLink {
                node,
                port,
                rate_bps: 0,
            } => Err(FaultPlanError::ZeroDegradedRate { node, port }),
            FaultKind::PacketLoss { node, port, frac } if !frac.is_finite() => {
                Err(FaultPlanError::NonFiniteLossFraction { node, port })
            }
            FaultKind::PacketLoss { node, port, frac } if !(0.0..=1.0).contains(&frac) => {
                Err(FaultPlanError::LossFractionOutOfRange { node, port, frac })
            }
            _ => Ok(()),
        }
    }
}

/// A fault with its injection time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault executes (absolute simulated time).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, serializable schedule of faults for one run.
///
/// Build one with the chainable helpers, or deserialize it from JSON (the
/// schema is documented in `EXPERIMENTS.md`), then hand it to
/// [`crate::sim::Simulator::install_fault_plan`].
///
/// Deserialization validates: a hand-edited plan with a non-finite loss
/// fraction, a zero degraded rate or overlapping per-switch reboots is
/// rejected while being parsed (with a [`FaultPlanError`] message), never
/// mid-run.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG (drives probabilistic packet loss).
    pub seed: u64,
    /// The scheduled faults. Order is irrelevant; the event queue sorts.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given fault-RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Schedule `kind` at `at` (chainable).
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Schedule `kind` at `at`.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Schedule a down/up flap of the link at (`node`, `port`).
    pub fn link_flap(
        mut self,
        node: NodeId,
        port: PortId,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Self {
        self.push(down_at, FaultKind::LinkDown { node, port });
        self.push(up_at, FaultKind::LinkUp { node, port });
        self
    }

    /// Freeze `node`'s telemetry over `[from, until)`.
    pub fn telemetry_freeze(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.push(from, FaultKind::TelemetryFreeze { node });
        self.push(until, FaultKind::TelemetryRestore { node });
        self
    }

    /// Blank `node`'s telemetry over `[from, until)`.
    pub fn telemetry_blank(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.push(from, FaultKind::TelemetryBlank { node });
        self.push(until, FaultKind::TelemetryRestore { node });
        self
    }

    /// Degrade the link at (`node`, `port`) to `rate_bps` over `[from, until)`.
    pub fn degrade_window(
        mut self,
        node: NodeId,
        port: PortId,
        rate_bps: u64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.push(
            from,
            FaultKind::DegradeLink {
                node,
                port,
                rate_bps,
            },
        );
        self.push(until, FaultKind::RestoreLinkRate { node, port });
        self
    }

    /// Drop `frac` of arrivals at (`node`, `port`) over `[from, until)`.
    pub fn loss_window(
        mut self,
        node: NodeId,
        port: PortId,
        frac: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.push(from, FaultKind::PacketLoss { node, port, frac });
        self.push(
            until,
            FaultKind::PacketLoss {
                node,
                port,
                frac: 0.0,
            },
        );
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validate every scheduled fault, plus the cross-event invariants
    /// (per-switch reboot windows must not overlap within
    /// [`REBOOT_SETTLE`]).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for ev in &self.events {
            ev.kind.validate()?;
        }
        // Reboots of the same switch must be spaced apart: collect per-node
        // reboot times, sort, and reject any pair inside the settle window.
        let mut reboots: Vec<(NodeId, SimTime)> = self
            .events
            .iter()
            .filter_map(|ev| match ev.kind {
                FaultKind::SwitchReboot { node } => Some((node, ev.at)),
                _ => None,
            })
            .collect();
        reboots.sort_by_key(|&(n, t)| (n.0, t));
        for w in reboots.windows(2) {
            let ((n1, t1), (n2, t2)) = (w[0], w[1]);
            if n1 == n2 && t2 - t1 < REBOOT_SETTLE {
                return Err(FaultPlanError::OverlappingReboots {
                    node: n1,
                    first: t1,
                    second: t2,
                });
            }
        }
        Ok(())
    }

    /// Check every event's endpoint against `topo`: the node exists, the
    /// port exists on it, and a node-wide (switch-only) fault does not name
    /// a host. [`crate::sim::Simulator::install_fault_plan`] runs this
    /// before it schedules anything; tools that know the topology up front
    /// can reject a hand-edited plan before building a simulator.
    pub fn check_topology(&self, topo: &Topology) -> Result<(), FaultPlanError> {
        for (event, ev) in self.events.iter().enumerate() {
            let kind = ev.kind;
            let (node, port) = kind.target();
            let Some(info) = topo.nodes.get(node.idx()) else {
                return Err(FaultPlanError::UnknownNode { event, kind });
            };
            match port {
                Some(port) if port.idx() >= info.ports.len() => {
                    return Err(FaultPlanError::UnknownPort { event, kind });
                }
                None if info.kind == NodeKind::Host => {
                    return Err(FaultPlanError::SwitchOnlyFault { event, kind });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Wire shape of a [`FaultPlan`]; the real type validates on top of this.
#[derive(Deserialize)]
struct FaultPlanWire {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl serde::Deserialize for FaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let w = FaultPlanWire::from_value(v)?;
        let plan = FaultPlan {
            seed: w.seed,
            events: w.events,
        };
        plan.validate()
            .map_err(|e| serde::Error::new(format!("invalid fault plan: {e}")))?;
        Ok(plan)
    }
}

/// One executed fault, as recorded in [`crate::sim::SimCore`]'s fault log.
///
/// The telemetry layer drains these into its event stream; `detail` carries
/// the fault's parameters. Both the entry and its detail are plain `Copy`
/// data — logging a fault on the hot path never touches the allocator; the
/// stable `key=value` text form is only rendered when a consumer formats
/// the detail (see [`FaultDetail`]'s `Display`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultLogEntry {
    /// Execution time.
    pub at: SimTime,
    /// Stable fault name (see [`FaultKind::name`]).
    pub kind: &'static str,
    /// Node the fault applied to.
    pub node: NodeId,
    /// Port the fault applied to (`PortId(u16::MAX)` for node-wide faults).
    pub port: PortId,
    /// Parameters (renders as e.g. `rate_bps=10000000000`; empty when none).
    pub detail: FaultDetail,
}

/// The parameters of an executed fault, as structured `Copy` data.
///
/// Replaces the per-record `format!`ed `String` the fault log used to
/// carry. The `Display` impl reproduces the old strings byte-for-byte
/// (`peer=<node>:<port>`, `rate_bps=<bps>`, `frac=<f64>`, `flushed=<n>`,
/// and empty for [`FaultDetail::None`]), so recorded JSONL is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum FaultDetail {
    /// No parameters (telemetry faults, rate restores).
    #[default]
    None,
    /// The peer endpoint of a link fault: `peer=<node>:<port>`.
    Peer {
        /// Peer node.
        node: NodeId,
        /// Peer port.
        port: PortId,
    },
    /// Degraded serialization rate: `rate_bps=<bps>`.
    RateBps(u64),
    /// Injected loss fraction: `frac=<frac>`.
    LossFrac(f64),
    /// Packets flushed by a switch reboot: `flushed=<n>`.
    Flushed(u64),
}

impl std::fmt::Display for FaultDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultDetail::None => Ok(()),
            FaultDetail::Peer { node, port } => write!(f, "peer={}:{}", node.0, port.0),
            FaultDetail::RateBps(rate) => write!(f, "rate_bps={rate}"),
            FaultDetail::LossFrac(frac) => write!(f, "frac={frac}"),
            FaultDetail::Flushed(n) => write!(f, "flushed={n}"),
        }
    }
}

/// How a node's telemetry reads are currently distorted (fault injection).
pub(crate) enum TelemFault {
    /// Snapshots return the values captured at freeze time, per queue:
    /// `(qlen_bytes, telem)` indexed by `port * num_prios + prio`.
    Frozen(Vec<(u64, QueueTelemetry)>),
    /// Snapshots return zeroed counters and an empty queue.
    Blank,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enum detail must render the exact strings the fault log carried
    /// when it `format!`ed per record — recorded JSONL depends on them.
    #[test]
    fn fault_detail_renders_legacy_strings() {
        assert_eq!(FaultDetail::None.to_string(), "");
        assert_eq!(
            FaultDetail::Peer {
                node: NodeId(28),
                port: PortId(0)
            }
            .to_string(),
            "peer=28:0"
        );
        assert_eq!(
            FaultDetail::RateBps(10_000_000_000).to_string(),
            "rate_bps=10000000000"
        );
        assert_eq!(FaultDetail::LossFrac(0.3).to_string(), "frac=0.3");
        assert_eq!(FaultDetail::LossFrac(1.0).to_string(), "frac=1");
        assert_eq!(FaultDetail::Flushed(17).to_string(), "flushed=17");
    }

    #[test]
    fn plan_builders_accumulate_events() {
        let plan = FaultPlan::new(7)
            .link_flap(
                NodeId(1),
                PortId(2),
                SimTime::from_us(10),
                SimTime::from_us(20),
            )
            .telemetry_freeze(NodeId(1), SimTime::from_us(5), SimTime::from_us(30))
            .loss_window(
                NodeId(3),
                PortId(0),
                0.25,
                SimTime::from_us(1),
                SimTime::from_us(2),
            )
            .degrade_window(
                NodeId(1),
                PortId(2),
                1_000_000_000,
                SimTime::from_us(40),
                SimTime::from_us(50),
            );
        assert_eq!(plan.len(), 8);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let bad_rate = FaultPlan::new(0).at(
            SimTime::ZERO,
            FaultKind::DegradeLink {
                node: NodeId(0),
                port: PortId(0),
                rate_bps: 0,
            },
        );
        assert!(bad_rate.validate().is_err());
        let bad_frac = FaultPlan::new(0).at(
            SimTime::ZERO,
            FaultKind::PacketLoss {
                node: NodeId(0),
                port: PortId(0),
                frac: 1.5,
            },
        );
        assert!(bad_frac.validate().is_err());
    }

    #[test]
    fn typed_errors_name_the_offender() {
        let bad = FaultKind::PacketLoss {
            node: NodeId(3),
            port: PortId(1),
            frac: f64::NAN,
        };
        assert_eq!(
            bad.validate(),
            Err(FaultPlanError::NonFiniteLossFraction {
                node: NodeId(3),
                port: PortId(1)
            })
        );
        let oob = FaultKind::PacketLoss {
            node: NodeId(3),
            port: PortId(1),
            frac: 1.5,
        };
        assert!(matches!(
            oob.validate(),
            Err(FaultPlanError::LossFractionOutOfRange { frac, .. }) if frac == 1.5
        ));
    }

    #[test]
    fn overlapping_reboots_rejected() {
        let plan = FaultPlan::new(0)
            .at(
                SimTime::from_us(500),
                FaultKind::SwitchReboot { node: NodeId(4) },
            )
            .at(
                SimTime::from_us(550),
                FaultKind::SwitchReboot { node: NodeId(4) },
            );
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::OverlappingReboots {
                node: NodeId(4),
                ..
            })
        ));
        // Same spacing on *different* switches is fine, as is a spaced pair.
        let ok = FaultPlan::new(0)
            .at(
                SimTime::from_us(500),
                FaultKind::SwitchReboot { node: NodeId(4) },
            )
            .at(
                SimTime::from_us(550),
                FaultKind::SwitchReboot { node: NodeId(5) },
            )
            .at(
                SimTime::from_us(700),
                FaultKind::SwitchReboot { node: NodeId(4) },
            );
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn deserialization_validates() {
        // A hand-edited plan with an out-of-range loss fraction fails at
        // parse time with a message naming the problem.
        let text = r#"{"seed":1,"events":[
            {"at":1000,"kind":{"PacketLoss":{"node":2,"port":0,"frac":2.5}}}
        ]}"#;
        let err = serde_json::from_str::<FaultPlan>(text).unwrap_err();
        assert!(
            err.to_string().contains("invalid fault plan"),
            "unexpected error: {err}"
        );
        // Overlapping reboots are structural, not per-event — also caught.
        let dup = serde_json::to_string(
            &FaultPlan::new(0)
                .at(
                    SimTime::from_us(1),
                    FaultKind::SwitchReboot { node: NodeId(1) },
                )
                .at(
                    SimTime::from_us(2),
                    FaultKind::SwitchReboot { node: NodeId(1) },
                ),
        )
        .unwrap();
        assert!(serde_json::from_str::<FaultPlan>(&dup).is_err());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(42)
            .at(
                SimTime::from_ms(1),
                FaultKind::SwitchReboot { node: NodeId(4) },
            )
            .telemetry_blank(NodeId(2), SimTime::from_ms(2), SimTime::from_ms(3));
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            FaultKind::SwitchReboot { node: NodeId(0) }.name(),
            "switch_reboot"
        );
        assert_eq!(
            FaultKind::TelemetryFreeze { node: NodeId(0) }.name(),
            "telem_freeze"
        );
    }
}
