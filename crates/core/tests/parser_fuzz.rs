//! Hostile input to the model and fault-plan parsers: every truncation and
//! byte flip of a valid `DeployBundle` and `FaultPlan` either parses or
//! returns the parser's typed error — it never panics — and a bundle that
//! loads is whole and hashes to its own digest.

use acc_core::deploy::fnv1a;
use acc_core::{ActionSpace, DeployBundle, DeployError, RewardConfig};
use netsim::prelude::*;
use proptest::prelude::*;
use rl::Mlp;

fn bundle_json() -> String {
    let space = ActionSpace::templates();
    let model = Mlp::new(&[12, 8, space.len()], 9);
    let bundle = DeployBundle::new("fuzz", model, space, RewardConfig::default(), 3);
    serde_json::to_string(&bundle).unwrap()
}

fn fault_plan_json() -> String {
    let (n, p) = (NodeId(2), PortId(1));
    let plan = FaultPlan::new(3)
        .link_flap(n, p, SimTime::from_us(10), SimTime::from_us(20))
        .degrade_window(
            n,
            p,
            10_000_000_000,
            SimTime::from_us(30),
            SimTime::from_us(40),
        )
        .telemetry_freeze(n, SimTime::from_us(50), SimTime::from_us(60))
        .at(
            SimTime::from_us(70),
            FaultKind::PacketLoss {
                node: n,
                port: p,
                frac: 0.25,
            },
        )
        .at(SimTime::from_us(80), FaultKind::SwitchReboot { node: n });
    serde_json::to_string(&plan).unwrap()
}

/// `text` cut at the fraction `at` of its length, or with the byte there
/// replaced by `byte` (which may leave invalid UTF-8: read lossily, as a
/// file reader that accepted it would).
fn mutate(text: &str, at: f64, flip: Option<u8>) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
    match flip {
        Some(b) => bytes[i] = b,
        None => bytes.truncate(i),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Load `text` as a bundle file: a parse, shape or digest failure is a
/// typed [`DeployError`].
fn load_bundle(text: &str) -> Result<DeployBundle, DeployError> {
    let path = std::env::temp_dir().join(format!("acc-fuzz-bundle-{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let loaded = DeployBundle::load(&path);
    let _ = std::fs::remove_file(&path);
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_mutated_bundle_loads_or_is_a_typed_error(
        at in 0.0f64..1.0,
        flip in any::<bool>(),
        byte in any::<u8>(),
    ) {
        let text = mutate(&bundle_json(), at, flip.then_some(byte));
        if let Ok(b) = load_bundle(&text) {
            // What loads is whole: it answers a state of its own width...
            let mut ws = rl::BatchActivations::new();
            b.model.forward_batch(&vec![0.5; b.model.input_dim()], 1, &mut ws);
            prop_assert_eq!(ws.output().len(), b.actions.len());
            // ...and intact: its model re-hashes to the digest it carries.
            let model = serde_json::to_string(&b.model).unwrap();
            prop_assert_eq!(fnv1a(model.as_bytes()), b.digest);
        }
    }

    #[test]
    fn a_mutated_fault_plan_parses_or_is_a_typed_error(
        at in 0.0f64..1.0,
        flip in any::<bool>(),
        byte in any::<u8>(),
    ) {
        let text = mutate(&fault_plan_json(), at, flip.then_some(byte));
        let _ = serde_json::from_str::<FaultPlan>(&text);
    }
}
