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
    /// A save interrupted at any point leaves either the previous bundle or
    /// no bundle — never a truncated file that would fail digest
    /// validation at the next load.
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
        let mut ws = rl::BatchActivations::new();
        b.model.forward_batch(&s, 1, &mut ws);
        assert_eq!(ctl.greedy_q_values(&s), ws.output());
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
