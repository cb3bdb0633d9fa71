//! Flow-completion-time collection and summary statistics.
//!
//! Every flow started anywhere in the simulation registers here; the
//! receiving stack marks it complete when the last in-order byte lands.
//! Experiment harnesses then slice the records by size class / time window /
//! priority to produce the paper's FCT tables.

use netsim::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One flow's life record.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Globally unique flow id.
    pub flow: FlowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Message size in bytes.
    pub bytes: u64,
    /// Traffic class the data travelled on.
    pub prio: Prio,
    /// Application-defined tag (used by closed-loop app models).
    pub tag: u64,
    /// Time the sender started the flow.
    pub start: SimTime,
    /// Time the receiver consumed the final in-order byte, if finished.
    pub end: Option<SimTime>,
}

impl FlowRecord {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<SimTime> {
        self.end.map(|e| e - self.start)
    }
}

/// Shared, interior-mutable handle to an [`FctCollector`].
pub type SharedFct = Rc<RefCell<FctCollector>>;

/// Central registry of all flows in a run.
#[derive(Default, Debug)]
pub struct FctCollector {
    records: HashMap<u64, FlowRecord>,
    order: Vec<u64>,
    completed_count: usize,
}

impl FctCollector {
    /// Create an empty collector behind the usual shared handle.
    pub fn new_shared() -> SharedFct {
        Rc::new(RefCell::new(FctCollector::default()))
    }

    /// Reserve capacity for `n` additional flow records so registration
    /// during a pre-sized run never rehashes or reallocates.
    pub fn reserve(&mut self, n: usize) {
        self.records.reserve(n);
        self.order.reserve(n);
    }

    /// Register a new flow at start time. Records that arrive already
    /// completed (replayed traces, synthetic fixtures) count towards
    /// [`FctCollector::completed_count`] immediately.
    pub fn register(&mut self, rec: FlowRecord) {
        if rec.end.is_some() {
            self.completed_count += 1;
        }
        let prev = self.records.insert(rec.flow.0, rec);
        debug_assert!(prev.is_none(), "duplicate flow id {}", rec.flow);
        self.order.push(rec.flow.0);
    }

    /// Register a batch of flow-level backend completions
    /// ([`netsim::flowsim::FlowDone`]) as already-finished records, so the
    /// hybrid/flow fidelity modes feed the exact same FCT statistics
    /// pipeline (percentiles, size buckets, JSONL reports) the packet
    /// engine does.
    pub fn register_flowsim(&mut self, done: &[netsim::flowsim::FlowDone]) {
        self.reserve(done.len());
        for d in done {
            self.register(FlowRecord {
                flow: d.flow,
                src: d.src,
                dst: d.dst,
                bytes: d.bytes,
                prio: d.prio,
                tag: d.tag,
                start: d.start,
                end: Some(d.end),
            });
        }
    }

    /// Mark `flow` complete at `now`.
    pub fn complete(&mut self, flow: FlowId, now: SimTime) {
        let rec = self
            .records
            .get_mut(&flow.0)
            .expect("completing unregistered flow");
        debug_assert!(rec.end.is_none(), "flow completed twice");
        rec.end = Some(now);
        self.completed_count += 1;
    }

    /// Look up one flow.
    pub fn get(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.records.get(&flow.0)
    }

    /// All records in registration order.
    pub fn records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.order.iter().map(move |id| &self.records[id])
    }

    /// Completed flows only.
    pub fn completed(&self) -> impl Iterator<Item = &FlowRecord> {
        self.records().filter(|r| r.end.is_some())
    }

    /// Flows that were started but never finished (should be empty at the
    /// end of a well-formed experiment unless it was cut short).
    pub fn unfinished(&self) -> impl Iterator<Item = &FlowRecord> {
        self.records().filter(|r| r.end.is_none())
    }

    /// Number of completed flows.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Total number of registered flows.
    pub fn total_count(&self) -> usize {
        self.order.len()
    }

    /// Summarise the completed flows that match `filter`.
    pub fn stats(&self, filter: impl Fn(&FlowRecord) -> bool) -> FctStats {
        let fcts: Vec<f64> = self
            .completed()
            .filter(|r| filter(r))
            .map(|r| r.fct().unwrap().as_us_f64())
            .collect();
        FctStats::from_us(fcts)
    }

    /// Export a whole-run summary — the hook run manifests use.
    pub fn summary(&self) -> FctSummary {
        FctSummary {
            total: self.total_count(),
            completed: self.completed_count(),
            unfinished: self.total_count() - self.completed_count(),
            overall: self.stats(|_| true),
        }
    }
}

/// Join the per-shard FCT records of one sharded run into a single
/// collector, deterministically.
///
/// Each shard's collector holds the records of flows its own hosts touched.
/// A same-shard flow contributes one complete record. A cross-shard flow
/// contributes two halves: the sender's registration (true `start`, `tag`,
/// `end: None` — the completion happened in the receiver's shard) and the
/// receiver's completion stub (`end: Some`, degenerate start). The merge
/// joins the halves by flow id — sender metadata, receiver end time — and
/// registers the results in flow-id order, so the merged statistics are
/// byte-identical for any shard count.
pub fn merge_shard_fct(per_shard: Vec<Vec<FlowRecord>>) -> FctCollector {
    use std::collections::hash_map::Entry;
    let mut by_flow: HashMap<u64, FlowRecord> = HashMap::new();
    for recs in per_shard {
        for r in recs {
            match by_flow.entry(r.flow.0) {
                Entry::Vacant(v) => {
                    v.insert(r);
                }
                Entry::Occupied(mut o) => {
                    let cur = o.get_mut();
                    if cur.end.is_none() {
                        // `cur` is the sender half: take the receiver's end.
                        cur.end = r.end;
                    } else if r.end.is_none() {
                        // `r` is the sender half: keep its metadata, graft
                        // the receiver's end time on.
                        let end = cur.end;
                        *cur = r;
                        cur.end = end;
                    }
                }
            }
        }
    }
    let mut all: Vec<FlowRecord> = by_flow.into_values().collect();
    all.sort_by_key(|r| r.flow.0);
    let mut merged = FctCollector::default();
    merged.reserve(all.len());
    for r in all {
        merged.register(r);
    }
    merged
}

/// Whole-run FCT recap exported into run manifests.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FctSummary {
    /// Flows registered.
    pub total: usize,
    /// Flows that completed.
    pub completed: usize,
    /// Flows still in flight at the end of the run.
    pub unfinished: usize,
    /// FCT statistics over all completed flows.
    pub overall: FctStats,
}

/// FCT summary in microseconds.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FctStats {
    /// Number of flows summarised.
    pub count: usize,
    /// Mean FCT (us).
    pub avg_us: f64,
    /// Median FCT (us).
    pub p50_us: f64,
    /// 99th percentile FCT (us).
    pub p99_us: f64,
    /// 99.9th percentile FCT (us).
    pub p999_us: f64,
    /// Max FCT (us).
    pub max_us: f64,
    /// Samples discarded because they were NaN or infinite (a poisoned
    /// clock or a degenerate division upstream must taint the run visibly,
    /// not abort it). Absent in records written before this field existed.
    #[serde(default)]
    pub dropped_non_finite: usize,
}

impl FctStats {
    /// Build from raw FCT samples in microseconds.
    ///
    /// Non-finite samples (NaN, ±inf) are dropped from the summary and
    /// counted in [`FctStats::dropped_non_finite`] — one corrupt sample must
    /// not panic a whole run's summarization. The finite remainder is
    /// ordered with [`f64::total_cmp`], which is a total order and therefore
    /// cannot panic even if the finiteness filter is ever relaxed.
    pub fn from_us(fcts: Vec<f64>) -> FctStats {
        let total = fcts.len();
        let mut finite: Vec<f64> = fcts.into_iter().filter(|x| x.is_finite()).collect();
        let dropped = total - finite.len();
        if finite.is_empty() {
            return FctStats {
                dropped_non_finite: dropped,
                ..FctStats::default()
            };
        }
        finite.sort_by(f64::total_cmp);
        FctStats {
            count: finite.len(),
            avg_us: netsim::util::mean(&finite),
            p50_us: netsim::util::percentile_sorted(&finite, 50.0),
            p99_us: netsim::util::percentile_sorted(&finite, 99.0),
            p999_us: netsim::util::percentile_sorted(&finite, 99.9),
            max_us: *finite.last().unwrap(),
            dropped_non_finite: dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, bytes: u64, start_us: u64, end_us: Option<u64>) -> FlowRecord {
        FlowRecord {
            flow: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            bytes,
            prio: 1,
            tag: 0,
            start: SimTime::from_us(start_us),
            end: end_us.map(SimTime::from_us),
        }
    }

    #[test]
    fn register_complete_roundtrip() {
        let mut c = FctCollector::default();
        c.register(rec(1, 1000, 0, None));
        assert_eq!(c.total_count(), 1);
        assert_eq!(c.completed_count(), 0);
        c.complete(FlowId(1), SimTime::from_us(42));
        assert_eq!(c.completed_count(), 1);
        let r = c.get(FlowId(1)).unwrap();
        assert_eq!(r.fct(), Some(SimTime::from_us(42)));
        assert_eq!(c.unfinished().count(), 0);
    }

    #[test]
    fn stats_by_size_slices() {
        let mut c = FctCollector::default();
        for i in 0..10u64 {
            let mut r = rec(
                i,
                if i < 5 { 1_000 } else { 10_000_000 },
                0,
                Some(10 * (i + 1)),
            );
            r.flow = FlowId(i);
            c.register(r);
        }
        assert_eq!(c.completed_count(), 10, "pre-completed records count");
        let mice = c.stats(|r| r.bytes < 100_000);
        let elephants = c.stats(|r| r.bytes >= 10_000_000);
        assert_eq!(mice.count, 5);
        assert_eq!(elephants.count, 5);
        assert!((mice.avg_us - 30.0).abs() < 1e-9); // (10+20+30+40+50)/5
        assert!((elephants.avg_us - 80.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = FctStats::from_us(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.avg_us, 0.0);
    }

    #[test]
    fn non_finite_fcts_are_dropped_not_fatal() {
        // A synthetic NaN/inf sample must not panic summarization (the old
        // partial_cmp(..).unwrap() sort aborted the whole run) and must not
        // pollute the finite statistics.
        let s = FctStats::from_us(vec![10.0, f64::NAN, 30.0, f64::INFINITY, 20.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.dropped_non_finite, 2);
        assert!((s.avg_us - 20.0).abs() < 1e-12);
        assert_eq!(s.max_us, 30.0);
        assert!(s.p999_us.is_finite());

        // All-poison input degrades to the empty summary, with the damage
        // counted.
        let s = FctStats::from_us(vec![f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(s.count, 0);
        assert_eq!(s.dropped_non_finite, 2);
        assert_eq!(s.avg_us, 0.0);
    }

    #[test]
    fn percentiles_ordering() {
        let s = FctStats::from_us((1..=1000).map(|x| x as f64).collect());
        assert!(s.p50_us <= s.p99_us && s.p99_us <= s.p999_us && s.p999_us <= s.max_us);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.max_us, 1000.0);
    }
}
