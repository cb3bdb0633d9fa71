//! Deployment bundles: the artifact ACC ships to switches.
//!
//! The paper's flow (§4.3) is: train offline → install "the same offline
//! training model for network switches" → each switch fine-tunes online.
//! What actually travels to the switch is more than raw weights — the
//! action-template table and the state/reward conventions must match the
//! model, or inference is garbage. A [`DeployBundle`] packages all of it,
//! versioned, as one JSON artifact with an integrity digest.

use crate::action::ActionSpace;
use crate::reward::RewardConfig;
use netsim::prelude::{NodeId, Simulator};
use rl::Mlp;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Bundle format version (bump on incompatible changes).
pub const BUNDLE_VERSION: u32 = 1;

/// Why a [`DeployBundle`] was rejected. Typed so deployment tooling can
/// distinguish "wrong artifact" (version/digest) from "broken artifact"
/// (shape mismatches) from plain I/O trouble.
#[derive(Clone, Debug, PartialEq)]
pub enum DeployError {
    /// The bundle's format version is not the one this build supports.
    UnsupportedVersion {
        /// Version stamped in the bundle.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The model's output width does not match the action-template table.
    ActionTableMismatch {
        /// Model output dimension.
        outputs: usize,
        /// Entries in the action table.
        actions: usize,
    },
    /// The model's input width does not match `history_k x features`.
    StateShapeMismatch {
        /// Model input dimension.
        inputs: usize,
        /// `history_k * FEATURES_PER_OBS`.
        expected: usize,
    },
    /// The model bytes do not hash to the recorded digest (corruption).
    DigestMismatch {
        /// Digest recorded in the bundle.
        expected: u64,
        /// Digest computed over the carried model.
        computed: u64,
    },
    /// Reading or writing the bundle file failed.
    Io(String),
    /// The bundle file is not valid JSON for this schema.
    Parse(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnsupportedVersion { found, supported } => {
                write!(f, "bundle version {found} != supported {supported}")
            }
            DeployError::ActionTableMismatch { outputs, actions } => {
                write!(
                    f,
                    "model outputs ({outputs}) != action table size ({actions})"
                )
            }
            DeployError::StateShapeMismatch { inputs, expected } => {
                write!(f, "model inputs ({inputs}) != k x features ({expected})")
            }
            DeployError::DigestMismatch { expected, computed } => {
                write!(
                    f,
                    "model digest mismatch (bundle says {expected:#018x}, model hashes to \
                     {computed:#018x}): corrupted bundle"
                )
            }
            DeployError::Io(e) => write!(f, "bundle I/O error: {e}"),
            DeployError::Parse(e) => write!(f, "bundle parse error: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<std::io::Error> for DeployError {
    fn from(e: std::io::Error) -> Self {
        DeployError::Io(e.to_string())
    }
}

/// A self-contained deployable ACC model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeployBundle {
    /// Format version.
    pub version: u32,
    /// Free-form provenance (training traffic, date, commit...).
    pub provenance: String,
    /// The trained evaluation network.
    pub model: Mlp,
    /// The action-template table the model's outputs index into.
    pub actions: ActionSpace,
    /// Reward convention the model was trained under (for audit/retrain).
    pub reward: RewardConfig,
    /// History length k the state builder must use.
    pub history_k: usize,
    /// FNV-1a digest over the serialized model (integrity check).
    pub digest: u64,
}

/// The 64-bit FNV-1a hash of `bytes`: the digest of bundles here and of
/// the harness's cached pretrained models.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl DeployBundle {
    /// Package a trained model with its conventions.
    pub fn new(
        provenance: impl Into<String>,
        model: Mlp,
        actions: ActionSpace,
        reward: RewardConfig,
        history_k: usize,
    ) -> Self {
        assert_eq!(
            model.output_dim(),
            actions.len(),
            "model outputs must match the action table"
        );
        assert_eq!(
            model.input_dim(),
            history_k * crate::state::FEATURES_PER_OBS,
            "model inputs must match k x 4 features"
        );
        let digest = fnv1a(
            serde_json::to_string(&model)
                .expect("model serializes")
                .as_bytes(),
        );
        DeployBundle {
            version: BUNDLE_VERSION,
            provenance: provenance.into(),
            model,
            actions,
            reward,
            history_k,
            digest,
        }
    }

    /// Verify internal consistency (version, dims, digest).
    pub fn validate(&self) -> Result<(), DeployError> {
        if self.version != BUNDLE_VERSION {
            return Err(DeployError::UnsupportedVersion {
                found: self.version,
                supported: BUNDLE_VERSION,
            });
        }
        if self.model.output_dim() != self.actions.len() {
            return Err(DeployError::ActionTableMismatch {
                outputs: self.model.output_dim(),
                actions: self.actions.len(),
            });
        }
        if self.model.input_dim() != self.history_k * crate::state::FEATURES_PER_OBS {
            return Err(DeployError::StateShapeMismatch {
                inputs: self.model.input_dim(),
                expected: self.history_k * crate::state::FEATURES_PER_OBS,
            });
        }
        let digest = fnv1a(
            serde_json::to_string(&self.model)
                .expect("model serializes")
                .as_bytes(),
        );
        if digest != self.digest {
            return Err(DeployError::DigestMismatch {
                expected: self.digest,
                computed: digest,
            });
        }
        Ok(())
    }

    /// Persist as JSON, crash-safely: the bundle is written to a sibling
    /// `.tmp` file, fsynced, then atomically renamed over the destination.
    /// A checkpoint interrupted at any point leaves either the previous
    /// bundle or no bundle — never a truncated file that would fail digest
    /// validation at rollback time.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DeployError> {
        use std::io::Write;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let text = serde_json::to_string(self).expect("bundle serializes");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(DeployError::from(e));
        }
        // Durability of the rename itself: fsync the containing directory
        // (best-effort — not every platform lets you open a directory).
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Load and validate from JSON.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DeployError> {
        let text = std::fs::read_to_string(path)?;
        let bundle: DeployBundle =
            serde_json::from_str(&text).map_err(|e| DeployError::Parse(e.to_string()))?;
        bundle.validate()?;
        Ok(bundle)
    }
}

// ---------------------------------------------------------------------------
// Fleet lifecycle: checkpoint → validate → hot-swap → probation → promote or
// roll back. This is the production loop §4.3 sketches but never spells out.
// ---------------------------------------------------------------------------

/// Configuration of the fleet checkpoint/hot-swap/rollback loop.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Where checkpoints are persisted (crash-safely); `None` keeps them
    /// in memory only.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Guard trips tolerated fleet-wide during a bundle's probation window
    /// before it is rolled back. The paper's guard layer treats any trip as
    /// loss of trust, so the default is zero.
    pub probation_trip_budget: u64,
    /// Swap opportunities skipped after a rollback before the fleet will
    /// consider a *new* candidate again (the quarantined digest itself is
    /// never retried).
    pub quarantine_backoff: u32,
    /// Provenance stamped into checkpointed bundles.
    pub provenance: String,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            checkpoint_dir: None,
            probation_trip_budget: 0,
            quarantine_backoff: 1,
            provenance: "fleet checkpoint".into(),
        }
    }
}

/// Counters the fleet loop accumulates over a soak run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FleetStats {
    /// Bundles checkpointed from the online fleet.
    pub checkpoints: u64,
    /// Hot-swaps applied to the running fleet (candidates entering
    /// probation; each is later promoted or rolled back).
    pub swaps: u64,
    /// Probation windows that ended with the candidate promoted to
    /// last-known-good.
    pub promoted: u64,
    /// Probation windows that ended in rollback to last-known-good.
    pub rollbacks: u64,
    /// Swap opportunities skipped because the candidate digest was
    /// quarantined by an earlier rollback.
    pub quarantined_skips: u64,
    /// Swap opportunities skipped by post-rollback backoff.
    pub backoff_skips: u64,
    /// Candidate bundles rejected by [`DeployBundle::validate`] before
    /// ever touching the fleet.
    pub invalid_bundles: u64,
}

/// What [`FleetManager::try_swap`] did with a candidate bundle.
#[derive(Clone, Debug, PartialEq)]
pub enum SwapOutcome {
    /// The candidate is live on every switch and under probation.
    Swapped {
        /// Digest of the candidate now in probation.
        digest: u64,
    },
    /// Skipped: still backing off from a recent rollback.
    SkippedBackoff,
    /// Skipped: this exact bundle was rolled back before.
    SkippedQuarantined {
        /// The quarantined digest.
        digest: u64,
    },
    /// The candidate failed validation and was never applied.
    Invalid {
        /// Why validation rejected it.
        error: DeployError,
    },
}

/// How a probation window ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbationOutcome {
    /// No candidate was under probation.
    Idle,
    /// The candidate survived: it is the new last-known-good.
    Promoted {
        /// Digest of the promoted bundle.
        digest: u64,
    },
    /// Guards tripped past budget: the fleet runs last-known-good again
    /// and the candidate is quarantined.
    RolledBack {
        /// Digest of the quarantined candidate.
        digest: u64,
        /// Guard trips observed during the probation window.
        trips: u64,
    },
}

/// The fleet's deployment state machine. One instance manages every ACC
/// switch of a simulation: it checkpoints the online-tuned policy into
/// [`DeployBundle`]s, hot-swaps validated candidates into the running
/// controllers at phase boundaries, watches the guard layer during the
/// following probation window, and rolls the fleet back to the
/// last-known-good bundle (quarantining the candidate) if guards trip.
pub struct FleetManager {
    cfg: FleetConfig,
    last_good: DeployBundle,
    /// Digests of rolled-back bundles; never retried.
    quarantine: std::collections::HashSet<u64>,
    backoff_remaining: u32,
    probation: Option<Probation>,
    /// Counters for the SLO report.
    pub stats: FleetStats,
}

struct Probation {
    bundle: DeployBundle,
    trips_baseline: u64,
}

impl FleetManager {
    /// Start managing a fleet from a validated initial bundle (typically
    /// the offline pre-trained model).
    pub fn new(cfg: FleetConfig, initial: DeployBundle) -> Result<Self, DeployError> {
        initial.validate()?;
        Ok(FleetManager {
            cfg,
            last_good: initial,
            quarantine: std::collections::HashSet::new(),
            backoff_remaining: 0,
            probation: None,
            stats: FleetStats::default(),
        })
    }

    /// The bundle the fleet falls back to on rollback.
    pub fn last_good(&self) -> &DeployBundle {
        &self.last_good
    }

    /// Push the last-known-good model into every ACC switch (initial
    /// deployment, or re-seeding a fresh simulation).
    pub fn deploy(&self, sim: &mut Simulator) {
        Self::apply_to_fleet(sim, &self.last_good.model);
    }

    /// Total guard trips across every guarded switch (0 when the fleet
    /// runs unguarded controllers).
    pub fn total_trips(sim: &mut Simulator) -> u64 {
        let mut trips = 0;
        for sw in sim.core().topo.switches().to_vec() {
            trips += sim.with_controller(sw, |c, _| {
                c.as_any_mut()
                    .downcast_mut::<crate::guard::GuardedController>()
                    .map(|g| g.stats.trips)
                    .unwrap_or(0)
            });
        }
        trips
    }

    fn apply_to_fleet(sim: &mut Simulator, model: &Mlp) {
        for sw in sim.core().topo.switches().to_vec() {
            crate::trainer::load_model_into(sim, sw, model);
        }
    }

    /// Checkpoint the online-tuned policy of `switch` into a bundle
    /// stamped with this fleet's provenance, persisting it crash-safely
    /// under [`FleetConfig::checkpoint_dir`] when one is configured.
    pub fn checkpoint(
        &mut self,
        sim: &mut Simulator,
        switch: NodeId,
    ) -> Result<DeployBundle, DeployError> {
        let model = crate::trainer::extract_model(sim, switch);
        let bundle = DeployBundle::new(
            self.cfg.provenance.clone(),
            model,
            self.last_good.actions.clone(),
            self.last_good.reward,
            self.last_good.history_k,
        );
        self.stats.checkpoints += 1;
        if let Some(dir) = &self.cfg.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
            bundle.save(dir.join(format!("ckpt_{:04}.json", self.stats.checkpoints)))?;
        }
        Ok(bundle)
    }

    /// Offer a candidate bundle to the fleet. Applies it to every switch
    /// and opens a probation window unless backoff, quarantine or
    /// validation says no. Call [`FleetManager::end_probation`] at the
    /// next boundary to promote or roll back.
    pub fn try_swap(&mut self, sim: &mut Simulator, candidate: DeployBundle) -> SwapOutcome {
        assert!(
            self.probation.is_none(),
            "end_probation must run before the next swap"
        );
        if self.backoff_remaining > 0 {
            self.backoff_remaining -= 1;
            self.stats.backoff_skips += 1;
            return SwapOutcome::SkippedBackoff;
        }
        if self.quarantine.contains(&candidate.digest) {
            self.stats.quarantined_skips += 1;
            return SwapOutcome::SkippedQuarantined {
                digest: candidate.digest,
            };
        }
        if let Err(error) = candidate.validate() {
            self.stats.invalid_bundles += 1;
            return SwapOutcome::Invalid { error };
        }
        Self::apply_to_fleet(sim, &candidate.model);
        self.stats.swaps += 1;
        let digest = candidate.digest;
        self.probation = Some(Probation {
            bundle: candidate,
            trips_baseline: Self::total_trips(sim),
        });
        SwapOutcome::Swapped { digest }
    }

    /// Close the current probation window: if guards tripped past
    /// [`FleetConfig::probation_trip_budget`] since the swap, restore the
    /// last-known-good model on every switch and quarantine the candidate;
    /// otherwise promote it.
    pub fn end_probation(&mut self, sim: &mut Simulator) -> ProbationOutcome {
        let Some(p) = self.probation.take() else {
            return ProbationOutcome::Idle;
        };
        let trips = Self::total_trips(sim).saturating_sub(p.trips_baseline);
        if trips > self.cfg.probation_trip_budget {
            Self::apply_to_fleet(sim, &self.last_good.model);
            self.quarantine.insert(p.bundle.digest);
            self.backoff_remaining = self.cfg.quarantine_backoff;
            self.stats.rollbacks += 1;
            ProbationOutcome::RolledBack {
                digest: p.bundle.digest,
                trips,
            }
        } else {
            self.stats.promoted += 1;
            let digest = p.bundle.digest;
            self.last_good = p.bundle;
            ProbationOutcome::Promoted { digest }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{AccConfig, AccController};

    fn bundle() -> DeployBundle {
        let space = ActionSpace::templates();
        let model = Mlp::new(&[12, 40, 40, space.len()], 3);
        DeployBundle::new("unit test", model, space, RewardConfig::default(), 3)
    }

    #[test]
    fn new_bundle_validates() {
        assert!(bundle().validate().is_ok());
    }

    #[test]
    fn corruption_detected_with_typed_errors() {
        let mut b = bundle();
        b.digest ^= 1;
        let err = b.validate().unwrap_err();
        assert!(matches!(err, DeployError::DigestMismatch { .. }));
        assert!(err.to_string().contains("digest"));
        let mut b2 = bundle();
        b2.version = 99;
        let err = b2.validate().unwrap_err();
        assert_eq!(
            err,
            DeployError::UnsupportedVersion {
                found: 99,
                supported: BUNDLE_VERSION
            }
        );
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let mut b = bundle();
        b.history_k = 5; // model was built for k = 3
        assert!(matches!(
            b.validate().unwrap_err(),
            DeployError::StateShapeMismatch {
                inputs: 12,
                expected: 20
            }
        ));
    }

    #[test]
    fn load_errors_are_typed() {
        let missing = DeployBundle::load("/nonexistent/acc_bundle.json").unwrap_err();
        assert!(matches!(missing, DeployError::Io(_)));
        let path = std::env::temp_dir().join("acc_bundle_garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let garbage = DeployBundle::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(garbage, DeployError::Parse(_)));
    }

    /// Write `text` to a scratch file and load it as a bundle.
    fn load_text(name: &str, text: &str) -> Result<DeployBundle, DeployError> {
        let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let loaded = DeployBundle::load(&path);
        let _ = std::fs::remove_file(&path);
        loaded
    }

    /// A saved bundle with its model's `model` text replaced by `edit` of
    /// it and the integrity digest recomputed over the edited model, so
    /// only the model's own shape check can refuse it.
    fn with_model_edit(edit: impl Fn(&str) -> String) -> String {
        let b = bundle();
        let text = serde_json::to_string(&b).unwrap();
        let model = serde_json::to_string(&b.model).unwrap();
        let edited = edit(&model);
        assert_ne!(edited, model);
        text.replacen(&model, &edited, 1).replacen(
            &format!("\"digest\":{}", b.digest),
            &format!("\"digest\":{}", fnv1a(edited.as_bytes())),
            1,
        )
    }

    #[test]
    fn a_model_without_dims_is_a_parse_error() {
        let text = with_model_edit(|m| m.replacen("\"dims\":[12,40,40,20]", "\"dims\":[]", 1));
        let err = load_text("acc_bundle_no_dims", &text).unwrap_err();
        assert!(matches!(err, DeployError::Parse(_)), "{err}");
    }

    #[test]
    fn a_layer_that_disagrees_with_dims_is_a_parse_error() {
        let text = with_model_edit(|m| m.replacen("\"n_in\":12", "\"n_in\":1", 1));
        let err = load_text("acc_bundle_bad_layer", &text).unwrap_err();
        assert!(
            matches!(&err, DeployError::Parse(e) if e.contains("layer 0 is 1x40")),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "model outputs")]
    fn mismatched_action_table_rejected_at_build() {
        let space = ActionSpace::templates();
        let model = Mlp::new(&[12, 40, 5], 3); // wrong output width
        DeployBundle::new("x", model, space, RewardConfig::default(), 3);
    }

    #[test]
    fn file_round_trip_keeps_the_model() {
        let b = bundle();
        let path = std::env::temp_dir().join("acc_bundle_test.json");
        b.save(&path).unwrap();
        let loaded = DeployBundle::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.provenance, "unit test");

        let cfg = crate::trainer::frozen_config(&AccConfig::default());
        let ctl = AccController::from_model(cfg, loaded.actions, &loaded.model);
        // A controller built from the loaded bundle answers with the saved
        // model.
        let s = vec![0.25f32; 12];
        assert_eq!(
            ctl.agent().borrow_mut().get().q_values(&s),
            b.model.forward(&s)
        );
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("acc-deploy-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        let b = bundle();
        b.save(&path).unwrap();
        // Overwriting an existing bundle goes through the same rename path.
        let space = ActionSpace::templates();
        let model = Mlp::new(&[12, 40, 40, space.len()], 7);
        let b2 = DeployBundle::new("second", model, space, RewardConfig::default(), 3);
        b2.save(&path).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["bundle.json"], "stray temp file left behind");
        let loaded = DeployBundle::load(&path).unwrap();
        assert_eq!(loaded.provenance, "second");
        assert!(loaded.validate().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
