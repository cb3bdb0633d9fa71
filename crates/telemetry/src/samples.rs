//! The record types the flight recorder emits.

use serde::{Deserialize, Serialize};

/// One periodic sample of one switch egress queue.
///
/// `d_*` fields are deltas since the previous sample of the same queue
/// (since the start of the run for the first sample); the rest are
/// instantaneous readings. Quiet rows — empty queue, no traffic, no PFC
/// activity in the interval — are elided by the sampler to bound file size.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueSample {
    /// Sample time in picoseconds of simulated time.
    pub t_ps: u64,
    /// Switch the queue lives on.
    pub node: u32,
    /// Egress port.
    pub port: u16,
    /// Traffic class.
    pub prio: u8,
    /// Instantaneous queue depth, bytes.
    pub qlen_bytes: u64,
    /// Bytes transmitted this interval.
    pub d_tx_bytes: u64,
    /// Packets transmitted this interval.
    pub d_tx_pkts: u64,
    /// CE-marked packets transmitted this interval.
    pub d_marked_pkts: u64,
    /// CE-marked bytes transmitted this interval.
    pub d_marked_bytes: u64,
    /// Packets dropped at this queue this interval.
    pub d_drops: u64,
    /// Packets enqueued this interval.
    pub d_enq_pkts: u64,
    /// PFC PAUSE frames sent upstream from this *port* this interval
    /// (port-level counter, repeated on every prio row of the port).
    pub d_pfc_pauses: u64,
    /// Time this queue's transmitter spent paused by received PFC frames
    /// this interval, picoseconds.
    pub d_pause_ps: u64,
    /// Instantaneous shared-buffer occupancy of the whole switch, bytes
    /// (switch-level, repeated on every row of the switch).
    pub buffer_used_bytes: u64,
}

/// One ACC decision: everything the agent saw and did on one control tick
/// for one queue.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentSample {
    /// Decision time in picoseconds of simulated time.
    pub t_ps: u64,
    /// Switch the controller runs on.
    pub node: u32,
    /// Port of the tuned queue.
    pub port: u16,
    /// Traffic class of the tuned queue.
    pub prio: u8,
    /// The state vector fed to the DDQN (k intervals x 4 features).
    pub state: Vec<f32>,
    /// Index of the chosen action in the action space.
    pub action_idx: usize,
    /// Kmin of the applied `{Kmin, Kmax, Pmax}` template, bytes.
    pub kmin_bytes: u64,
    /// Kmax of the applied template, bytes.
    pub kmax_bytes: u64,
    /// Pmax of the applied template.
    pub pmax: f64,
    /// Exploration rate at decision time.
    pub epsilon: f64,
    /// Reward computed for the *previous* action over the last interval.
    pub reward: f64,
    /// TD loss of the most recent minibatch (None before training starts).
    pub td_loss: Option<f64>,
    /// Transitions currently in this agent's replay memory.
    pub replay_len: usize,
    /// Cumulative training minibatches run by this agent.
    pub train_steps: u64,
    /// Whether the action was the net's argmax (`false`: an ε-exploration
    /// draw). Frozen agents only decide greedily.
    #[serde(default)]
    pub greedy: bool,
    /// The net's Q-value of the chosen action (`None` on explored rows).
    #[serde(default)]
    pub q_chosen: Option<f64>,
    /// The largest Q-value over all actions (`None` on explored rows).
    #[serde(default)]
    pub q_best: Option<f64>,
    /// The largest Q-value over the other actions, so `q_best - q_second`
    /// is how strongly the net prefers its choice (`None` on explored rows).
    #[serde(default)]
    pub q_second: Option<f64>,
}

/// One discrete event of a run: an injected fault taking effect, a
/// safe-mode guardrail violation/trip/recovery, or anything else a
/// component wants on the run's timeline.
///
/// `node`/`port`/`prio` locate the event where that makes sense; events
/// that concern a whole switch set `port` to `u16::MAX`, and events that
/// are not priority-specific set `prio` to `u8::MAX`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventSample {
    /// Event time in picoseconds of simulated time.
    pub t_ps: u64,
    /// Node the event concerns.
    pub node: u32,
    /// Port the event concerns (`u16::MAX` = whole node).
    pub port: u16,
    /// Traffic class the event concerns (`u8::MAX` = not class-specific).
    pub prio: u8,
    /// Stable machine-readable kind, e.g. `link_down`, `guard_trip`.
    pub kind: String,
    /// Free-form detail (violation name, flushed byte count, ...).
    pub detail: String,
}

impl From<&netsim::fault::FaultLogEntry> for EventSample {
    /// An executed fault as it appears on the run's event timeline.
    fn from(f: &netsim::fault::FaultLogEntry) -> Self {
        EventSample {
            t_ps: f.at.as_ps(),
            node: f.node.0,
            port: f.port.0,
            prio: u8::MAX,
            kind: f.kind.to_string(),
            detail: f.detail.to_string(),
        }
    }
}

impl Default for EventSample {
    fn default() -> Self {
        EventSample {
            t_ps: 0,
            node: 0,
            port: u16::MAX,
            prio: u8::MAX,
            kind: String::new(),
            detail: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sample_roundtrip() {
        let s = QueueSample {
            t_ps: 1_000_000,
            node: 3,
            port: 7,
            prio: 1,
            qlen_bytes: 4096,
            d_tx_bytes: 10_000,
            d_tx_pkts: 10,
            d_marked_pkts: 2,
            d_marked_bytes: 2096,
            d_drops: 0,
            d_enq_pkts: 11,
            d_pfc_pauses: 1,
            d_pause_ps: 500,
            buffer_used_bytes: 8192,
        };
        let text = serde_json::to_string(&s).unwrap();
        let back: QueueSample = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn agent_sample_roundtrip_with_and_without_loss() {
        let mut s = AgentSample {
            t_ps: 50_000_000,
            node: 1,
            port: 2,
            prio: 1,
            state: vec![0.5, 0.25, 0.0, 1.0],
            action_idx: 9,
            kmin_bytes: 20 * 1024,
            kmax_bytes: 1024 * 1024,
            pmax: 0.05,
            epsilon: 0.08,
            reward: 0.75,
            td_loss: None,
            replay_len: 128,
            train_steps: 64,
            greedy: false,
            q_chosen: None,
            q_best: None,
            q_second: None,
        };
        let back: AgentSample = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        s.td_loss = Some(0.011718750);
        s.greedy = true;
        (s.q_chosen, s.q_best, s.q_second) = (Some(0.5), Some(0.5), Some(0.25));
        let back: AgentSample = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    /// A record written before the decision fields existed still loads:
    /// they default to an explored row.
    #[test]
    fn agent_sample_without_decision_fields_loads() {
        let old = r#"{"t_ps":1,"node":2,"port":3,"prio":1,"state":[0.0],"action_idx":4,"kmin_bytes":5,"kmax_bytes":6,"pmax":0.5,"epsilon":0.1,"reward":0.3,"td_loss":null,"replay_len":7,"train_steps":8}"#;
        let s: AgentSample = serde_json::from_str(old).unwrap();
        assert_eq!((s.action_idx, s.train_steps), (4, 8));
        assert!(!s.greedy);
        assert_eq!((s.q_chosen, s.q_best, s.q_second), (None, None, None));
    }

    #[test]
    fn event_sample_roundtrip() {
        let s = EventSample {
            t_ps: 3_000_000_000,
            node: 24,
            port: 6,
            prio: u8::MAX,
            kind: "link_down".to_string(),
            detail: "peer=28:0".to_string(),
        };
        let back: EventSample = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn serialization_is_deterministic() {
        let s = QueueSample::default();
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&s).unwrap()
        );
    }
}
