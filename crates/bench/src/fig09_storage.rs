//! Fig. 9 + Table 1 — distributed storage IOPS across the six traffic
//! profiles, ACC vs the vendor-default static ECN, for several IO depths.
//! The paper finds gains up to ~30% (FileBackup) that grow with IO depth.

use crate::common::{self, Harness, MatrixCell, Policy};
use netsim::prelude::*;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::gen::apply_arrivals;
use workloads::{StorageCluster, StorageConfig, StorageProfile};

fn run_one(
    h: &Harness,
    profile: StorageProfile,
    io_depth: usize,
    policy: Policy,
    seed: u64,
) -> f64 {
    let scale = h.scale;
    let mut sc = h.scenario(&TopologySpec::paper_testbed(), policy, seed, &[]);
    let sim = &mut sc.sim;

    let storage_cfg = StorageConfig {
        profile,
        io_depth,
        seed,
        ..Default::default()
    };
    let cluster = Rc::new(RefCell::new(StorageCluster::new(&sc.hosts, storage_cfg)));
    transport::set_app_hook(sim, cluster.clone());
    let init = cluster.borrow_mut().initial_arrivals(SimTime::ZERO);
    apply_arrivals(sim, &init);

    let warmup = scale.pick(SimTime::from_ms(20), SimTime::from_ms(5));
    let horizon = scale.pick(SimTime::from_ms(80), SimTime::from_ms(20));
    sim.run_until(horizon);
    let iops = cluster.borrow().iops(warmup, horizon);
    iops
}

/// Run the experiment.
pub fn run(h: &Harness) -> Value {
    let scale = h.scale;
    let depths: Vec<usize> = scale.pick(vec![8, 32, 128], vec![8, 32]);
    // The profiles are inputs, not results: they go to stderr with the
    // other progress lines.
    eprintln!("[fig9] Table 1 profiles: read:write ratio and block sizes");
    for p in StorageProfile::all() {
        eprintln!(
            "  {:<16} {:.0}:{:.0}  {}B - {}B",
            p.name,
            p.read_frac * 10.0,
            (1.0 - p.read_frac) * 10.0,
            p.block_min,
            p.block_max
        );
    }
    // Multi-seed cells: each (profile, depth, policy, seed) simulation is
    // one independent matrix cell; the OLAP row reports the seed-averaged
    // IOPS, which takes the single-seed noise out of the gain column.
    let seeds: Vec<u64> = scale.pick(vec![1, 2, 3], vec![1, 2]);
    let policies = [Policy::Vendor, Policy::Acc];
    let mut cells = Vec::new();
    for profile in StorageProfile::all() {
        for &depth in &depths {
            for policy in policies {
                for &seed in &seeds {
                    let profile = profile.clone();
                    cells.push(MatrixCell::new(
                        format!(
                            "fig9 {} depth={depth} {} seed{seed}",
                            profile.name,
                            policy.name()
                        ),
                        move |h| run_one(h, profile, depth, policy, seed),
                    ));
                }
            }
        }
    }
    let mut results = h.run_matrix(cells).into_iter();
    let mut rows = Vec::new();
    for profile in StorageProfile::all() {
        for &depth in &depths {
            let mut mean = |_p: Policy| {
                let sum: f64 = (0..seeds.len())
                    .map(|_| results.next().expect("one result per cell"))
                    .sum();
                sum / seeds.len() as f64
            };
            let vendor = mean(Policy::Vendor);
            let acc = mean(Policy::Acc);
            let gain = (acc / vendor - 1.0) * 100.0;
            rows.push(json!({
                "profile": profile.name,
                "io_depth": depth,
                "seeds": seeds.len(),
                "vendor_iops": vendor,
                "acc_iops": acc,
                "gain_pct": gain,
            }));
        }
    }
    json!({ "rows": rows })
}

/// Print the seed-averaged IOPS of both policies per profile and IO depth.
pub fn show(v: &Value) {
    common::print_table(
        common::rows(v, "rows"),
        &[
            "profile",
            "io_depth",
            "seeds",
            "vendor_iops",
            "acc_iops",
            "gain_pct",
        ],
    );
}
