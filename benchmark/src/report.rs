//! Result documents: the driver's one-line result, the `run` set, its
//! validator, and `compare`.
#![forbid(unsafe_code)]

use crate::catalog::{self, Better, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::harness::{Traced, Untraced};
use crate::stats::{median, min_max, quartiles};
use serde_json::{json, Map, Value};

pub const SCHEMA: &str = "acc-benchmark/v1";

/// Per-layer metrics that may legitimately be negative (differences).
const SIGNED: &[&str] = &["harness.trace_overhead_frac", "shard.extra_events_vs_1"];

fn metric_object(defs: &[MetricDef], value_of: impl Fn(&str) -> f64) -> Value {
    let mut m = Map::new();
    for d in defs {
        m.insert(
            d.name.to_string(),
            json!({ "value": value_of(d.name), "unit": d.unit }),
        );
    }
    Value::Object(m)
}

/// The last line of standard output in driver mode.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let doc = json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics,
    });
    serde_json::to_string(&doc).expect("a JSON value serializes")
}

pub fn untraced_metrics(u: &Untraced) -> Value {
    metric_object(END_TO_END, |name| u.metrics[name].median())
}

pub fn traced_metrics(t: &Traced) -> Value {
    metric_object(PER_LAYER, |name| t.metrics[name])
}

/// One workload's entry in a `run` set.
pub fn workload_entry(u: &Untraced, t: &Traced) -> Value {
    let mut e2e = Map::new();
    for d in END_TO_END {
        let s = &u.metrics[d.name];
        let (lo, hi) = min_max(&s.values);
        e2e.insert(
            d.name.to_string(),
            json!({
                "unit": d.unit,
                "median": s.median(),
                "min": lo,
                "max": hi,
                "n": s.values.len(),
                "values": s.values.clone(),
            }),
        );
    }
    let failures: Vec<String> = u.failures.iter().chain(&t.failures).cloned().collect();
    json!({
        "digest": format!("{:016x}", u.digest),
        "traced_digest": format!("{:016x}", t.digest),
        "flows_attempted": u.attempted,
        "flows_failed": u.failed,
        "recorded_samples": u.recorded.map(|r| r.to_vec()),
        "host_speed_factor": u.speed.clone(),
        "correct": failures.is_empty() && u.digest == t.digest,
        "failures": failures,
        "end_to_end": Value::Object(e2e),
        "per_layer": traced_metrics(t),
    })
}

fn num(v: &Value, what: &str) -> Result<f64, String> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{what}: missing or not a number"))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{what}: not finite"))
    }
}

/// Check a `run` document: schema tag, every workload, every metric by
/// name, every number present, finite and (unless it is a difference)
/// non-negative.
pub fn validate(doc: &Value) -> Result<(), String> {
    if doc["schema"].as_str() != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    let sets = doc["sets"].as_array().ok_or("sets: missing")?;
    if sets.is_empty() {
        return Err("sets: empty".into());
    }
    for (i, set) in sets.iter().enumerate() {
        set["seed"]
            .as_u64()
            .ok_or_else(|| format!("sets[{i}].seed: missing"))?;
        for w in Workload::ALL {
            let at = format!("sets[{i}].{}", w.name());
            let e = &set["workloads"][w.name()];
            if e.as_object().is_none() {
                return Err(format!("{at}: missing"));
            }
            if e["digest"].as_str().map(str::len) != Some(16) {
                return Err(format!("{at}.digest: missing"));
            }
            e["correct"]
                .as_bool()
                .ok_or_else(|| format!("{at}.correct: missing"))?;
            let factors = e["host_speed_factor"]
                .as_array()
                .ok_or_else(|| format!("{at}.host_speed_factor: missing"))?;
            if e["end_to_end"]["setup_s"]["n"].as_u64() != Some(factors.len() as u64) {
                return Err(format!("{at}.host_speed_factor: not one per set-up"));
            }
            for f in factors {
                if num(f, &format!("{at}.host_speed_factor"))? <= 0.0 {
                    return Err(format!("{at}.host_speed_factor: not positive"));
                }
            }
            for d in END_TO_END {
                let m = &e["end_to_end"][d.name];
                for field in ["median", "min", "max"] {
                    let what = format!("{at}.{}.{field}", d.name);
                    if num(&m[field], &what)? <= 0.0 {
                        return Err(format!("{what}: not positive"));
                    }
                }
                let vals = m["values"]
                    .as_array()
                    .ok_or_else(|| format!("{at}.{}.values: missing", d.name))?;
                if vals.is_empty() || m["n"].as_u64() != Some(vals.len() as u64) {
                    return Err(format!("{at}.{}.n does not count values", d.name));
                }
                if m["unit"].as_str() != Some(d.unit) {
                    return Err(format!("{at}.{}.unit is not {}", d.name, d.unit));
                }
            }
            for d in PER_LAYER {
                let what = format!("{at}.{}", d.name);
                let x = num(&e["per_layer"][d.name]["value"], &what)?;
                if x < 0.0 && !SIGNED.contains(&d.name) {
                    return Err(format!("{what}: negative"));
                }
            }
        }
    }
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// Neither side moved past the bound, but a side's own spread is wider
    /// than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static MetricDef,
    pub a: Side,
    pub b: Side,
    /// `(b - a) / a`: the change as a share of A's median.
    pub change: f64,
    pub verdict: Verdict,
}

/// One side of a comparison: median and the spread around it (quartiles
/// from four samples up, otherwise min and max).
pub struct Side {
    pub median: f64,
    pub lo: f64,
    pub hi: f64,
    pub n: usize,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (lo, hi) = if values.len() >= 4 {
            quartiles(values)
        } else {
            min_max(values)
        };
        Side {
            median: median(values),
            lo,
            hi,
            n: values.len(),
        }
    }

    fn spread(&self) -> f64 {
        (self.hi - self.lo) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

pub fn judge(metric: &MetricDef, a: &[f64], b: &[f64]) -> (Side, Side, f64, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let change = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > metric.bound {
        Verdict::Better
    } else if sa.spread().max(sb.spread()) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (sa, sb, change, verdict)
}

fn values_of(set: &Value, w: Workload, metric: &str) -> Result<Vec<f64>, String> {
    let arr = set["workloads"][w.name()]["end_to_end"][metric]["values"]
        .as_array()
        .ok_or_else(|| format!("{}.{metric}.values: missing", w.name()))?;
    arr.iter()
        .map(|v| num(v, &format!("{}.{metric}", w.name())))
        .collect()
}

/// One row per workload and end-to-end metric, set `a` against set `b`.
pub fn compare_sets(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for metric in END_TO_END {
            let (va, vb) = (values_of(a, w, metric.name)?, values_of(b, w, metric.name)?);
            let (sa, sb, change, verdict) = judge(metric, &va, &vb);
            rows.push(Row {
                workload: w.name(),
                metric,
                a: sa,
                b: sb,
                change,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<23} {:<22} {:>13} {:>25} {:>13} {:>25} {:>16} {:>6}  verdict",
        "workload", "metric", "A median", "A spread", "B median", "B spread", "(B-A)/A", "bound"
    );
    for r in rows {
        let side = |s: &Side| format!("[{:.5e} .. {:.5e}] n={}", s.lo, s.hi, s.n);
        println!(
            "{:<23} {:<22} {:>13.6e} {:>25} {:>13.6e} {:>25} {:>+8.2}% of A {:>5.0}%  {}",
            r.workload,
            r.metric.name,
            r.a.median,
            side(&r.a),
            r.b.median,
            side(&r.b),
            r.change * 100.0,
            r.metric.bound * 100.0,
            r.verdict.as_str(),
        );
    }
}

pub fn rows_json(rows: &[Row]) -> Value {
    Value::Array(
        rows.iter()
            .map(|r| {
                json!({
                    "workload": r.workload,
                    "metric": r.metric.name,
                    "a_median": r.a.median,
                    "a_spread": [r.a.lo, r.a.hi],
                    "b_median": r.b.median,
                    "b_spread": [r.b.lo, r.b.hi],
                    "change_of_a": r.change,
                    "bound": r.metric.bound,
                    "verdict": r.verdict.as_str(),
                })
            })
            .collect(),
    )
}

/// The `BENCHMARK.json` this catalogue corresponds to.
pub fn benchmark_json(command: &[&str], paths: &[&str], run_seconds: u64) -> Value {
    let defs = |defs: &[MetricDef], bounded: bool| -> Vec<Value> {
        defs.iter()
            .map(|d| {
                if bounded {
                    json!({"name": d.name, "unit": d.unit, "better": d.better.as_str(), "bound": d.bound})
                } else {
                    json!({"name": d.name, "unit": d.unit, "better": d.better.as_str()})
                }
            })
            .collect()
    };
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| json!({"name": w.name(), "why": w.why()}))
        .collect();
    json!({
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": workloads,
        "end_to_end": defs(catalog::END_TO_END, true),
        "per_layer": defs(catalog::PER_LAYER, false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    /// The committed baseline is real `run` output: the validator accepts
    /// it as it is and rejects it with any one field damaged.
    #[test]
    fn validator_accepts_real_output_and_rejects_damage() {
        let baseline: Value =
            serde_json::from_str(include_str!("../results/baseline.json")).unwrap();
        validate(&baseline).unwrap();

        // Apply `edit` to one workload's entry of a copy, then validate.
        let edited = |edit: &dyn Fn(&mut Map)| {
            let mut doc = baseline.clone();
            let Value::Object(top) = &mut doc else {
                panic!()
            };
            let Some(Value::Array(sets)) = top.get_mut("sets") else {
                panic!()
            };
            let Value::Object(set) = &mut sets[0] else {
                panic!()
            };
            let Some(Value::Object(ws)) = set.get_mut("workloads") else {
                panic!()
            };
            let Some(Value::Object(entry)) = ws.get_mut("xl-clos-sharded") else {
                panic!()
            };
            edit(entry);
            validate(&doc)
        };
        let set = |entry: &mut Map, group: &str, metric: &str, field: &str, v: Value| {
            let Some(Value::Object(g)) = entry.get_mut(group) else {
                panic!()
            };
            let Some(Value::Object(m)) = g.get_mut(metric) else {
                panic!()
            };
            m.insert(field.to_string(), v);
        };
        let e = edited(&|e| set(e, "end_to_end", "wall_s", "median", Value::Null)).unwrap_err();
        assert!(e.contains("wall_s.median"), "{e}");
        let e = edited(&|e| set(e, "end_to_end", "wall_s", "max", json!(f64::NAN))).unwrap_err();
        assert!(e.contains("wall_s.max"), "{e}");
        let e = edited(&|e| set(e, "end_to_end", "setup_s", "min", json!(-0.5))).unwrap_err();
        assert!(e.contains("not positive"), "{e}");
        let e = edited(&|e| set(e, "per_layer", "sim.events", "value", json!(-1.0))).unwrap_err();
        assert!(e.contains("negative"), "{e}");
        let e = edited(&|e| set(e, "per_layer", "netsim.run_s", "value", json!("x"))).unwrap_err();
        assert!(e.contains("netsim.run_s"), "{e}");
        let e = edited(&|e| {
            e.insert("digest".into(), json!("short"));
        })
        .unwrap_err();
        assert!(e.contains("digest"), "{e}");
        // A difference may be negative.
        edited(&|e| {
            set(
                e,
                "per_layer",
                "shard.extra_events_vs_1",
                "value",
                json!(-3.0),
            )
        })
        .unwrap();
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = end_to_end("wall_s").unwrap(); // lower is better, 25 %
        let tput = end_to_end("sim_us_per_wall_s").unwrap(); // higher, 25 %
        let v = |m, a: &[f64], b: &[f64]| judge(m, a, b).3;
        assert_eq!(
            v(wall, &[1.0, 1.01, 0.99], &[1.02, 1.0, 1.03]),
            Verdict::Same
        );
        assert_eq!(
            v(wall, &[1.0, 1.01, 0.99], &[1.4, 1.41, 1.39]),
            Verdict::Worse
        );
        assert_eq!(
            v(wall, &[1.0, 1.01, 0.99], &[0.6, 0.61, 0.59]),
            Verdict::Better
        );
        assert_eq!(
            v(tput, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Worse
        );
        assert_eq!(
            v(tput, &[100.0, 101.0, 99.0], &[130.0, 131.0, 129.0]),
            Verdict::Better
        );
        // Medians agree, but A's own runs differ by more than the bound.
        assert_eq!(
            v(tput, &[70.0, 100.0, 130.0], &[100.0, 101.0, 99.0]),
            Verdict::Unresolved
        );
        let (_, _, change, _) = judge(wall, &[2.0], &[2.5]);
        assert_eq!(change, 0.25, "ratio is given as a share of A");
    }
}
