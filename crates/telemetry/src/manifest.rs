//! The run manifest: one `manifest.json` per recorded run.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::io;
use std::path::Path;

/// Everything needed to identify and audit one recorded run: what ran,
/// with what configuration and seed, how big it was, and how fast the
/// engine processed it. Written next to the JSONL series as
/// `manifest.json`.
///
/// Unlike the JSONL series, the manifest intentionally contains wall-clock
/// measurements, so it is *not* byte-identical across repeated runs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment id (e.g. `fig15`).
    pub experiment: String,
    /// Run directory name, unique within the experiment invocation.
    pub run: String,
    /// Control policy the run used (e.g. `ACC`, `SECN1`).
    pub policy: String,
    /// RNG seed of the simulation.
    pub seed: u64,
    /// FNV-1a digest of the arrival list the run was built with: two runs
    /// with equal digests were offered the same traffic (0 in manifests
    /// written before the digest was recorded).
    #[serde(default)]
    pub arrivals_digest: u64,
    /// The integrity digest of the deployed model bundle the run installs
    /// (the pretrained ACC model), `null` for a run that installs none
    /// (and in manifests written before runs named their model).
    #[serde(default)]
    pub model_digest: Option<u64>,
    /// `full` or `quick`.
    pub scale: String,
    /// Number of hosts in the topology.
    pub hosts: usize,
    /// Number of switches in the topology.
    pub switches: usize,
    /// Simulated time covered, microseconds.
    pub sim_time_us: f64,
    /// Wall-clock duration of the run, seconds.
    pub wall_time_s: f64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// High-water mark of the future-event queue (absent in manifests
    /// written before the timing-wheel queue tracked it).
    #[serde(default)]
    pub peak_event_queue: u64,
    /// Queue samples recorded.
    pub queue_samples: u64,
    /// Agent samples recorded.
    pub agent_samples: u64,
    /// Event samples recorded (faults, guardrail trips; absent in
    /// manifests written before the event timeline existed).
    #[serde(default)]
    pub event_samples: u64,
    /// Fault-log entries the engine discarded because its bounded in-core
    /// buffer filled between drains (absent before soak runs bounded the
    /// buffers; nonzero means the event timeline is incomplete).
    #[serde(default)]
    pub fault_log_dropped: u64,
    /// Flows registered with the FCT collector.
    pub flows_total: usize,
    /// Flows that completed before the horizon.
    pub flows_completed: usize,
    /// FCT recap (overall/mice/elephant summaries), free-form JSON.
    pub fct: Value,
    /// The full `SimConfig` the run used, as JSON.
    pub config: Value,
}

impl RunManifest {
    /// Write this manifest as `manifest.json` under `dir`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(dir.join("manifest.json"), text)
    }

    /// Load a manifest from a `manifest.json` path.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn manifest_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("acc-telem-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = RunManifest {
            experiment: "fig15".into(),
            run: "run_0001_ACC".into(),
            policy: "ACC".into(),
            seed: 15,
            arrivals_digest: 0x1234_5678,
            model_digest: Some(0x9abc_def0),
            scale: "quick".into(),
            hosts: 16,
            switches: 1,
            sim_time_us: 24_000.0,
            wall_time_s: 1.5,
            events_processed: 1_000_000,
            events_per_sec: 666_666.7,
            peak_event_queue: 4096,
            queue_samples: 480,
            agent_samples: 240,
            event_samples: 12,
            fault_log_dropped: 0,
            flows_total: 100,
            flows_completed: 100,
            fct: json!({"overall": {"avg_us": 120.0}}),
            config: json!({"seed": 15}),
        };
        m.save(&dir).unwrap();
        let back = RunManifest::load(&dir.join("manifest.json")).unwrap();
        assert_eq!(back.experiment, "fig15");
        assert_eq!(back.seed, 15);
        assert_eq!(back.arrivals_digest, 0x1234_5678);
        assert_eq!(back.model_digest, Some(0x9abc_def0));
        assert_eq!(back.flows_completed, 100);
        assert_eq!(back.fct["overall"]["avg_us"].as_f64(), Some(120.0));
        // A manifest written before runs named their model loads as `None`.
        let fields = serde_json::to_value(&m).unwrap();
        let old: serde_json::Map = fields
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| *k != "model_digest")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let old = serde_json::Value::Object(old).to_string();
        std::fs::write(dir.join("manifest.json"), old).unwrap();
        let back = RunManifest::load(&dir.join("manifest.json")).unwrap();
        assert_eq!(back.model_digest, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
