//! Capture orchestration: simulate all vantage points once, reuse
//! everywhere.
//!
//! The five captures (four Mar–May vantage points + the Campus 1 Jun/Jul
//! re-capture) are cut into per-household sub-capture shards by
//! [`workload::ShardPlan::paper`] and executed on `simcore::par`'s
//! deterministic fork-join executor. [`run_summary`] — the `repro` path —
//! folds every household range into a [`VantageFold`] on the worker that
//! simulates it, so the capture is never held in memory; [`run_capture`]
//! materialises it instead, for tests, examples and benches. `jobs` and
//! the sub-shard count `K` control wall-clock time only: the summary and
//! the assembled [`Capture`] are byte-identical for every worker and
//! sub-shard count (`crates/workload/tests/parallel_identity.rs` pins
//! this, per capture, down to the serialised flow logs).

use crate::summary::{CaptureSummary, VantageFold};
use dropbox::FlowTruth;
use nettrace::FlowRecord;
use workload::{
    simulate_shards, simulate_shards_into, FaultPlan, ShardPlan, SimOutput, SpanFold, VantageKind,
};

/// A full reproduction run: the four Mar–May captures plus the Campus 1
/// Jun/Jul re-capture with Dropbox 1.4.0 (Table 4).
pub struct Capture {
    /// Population scale factor used.
    pub scale: f64,
    /// Seed used.
    pub seed: u64,
    /// Campus 1, Campus 2, Home 1, Home 2 (v1.2.52 era).
    pub vantages: Vec<SimOutput>,
    /// Campus 1 re-capture (v1.4.0 + tuned server windows).
    pub campus1_v14: SimOutput,
}

impl Capture {
    /// Output of one vantage point.
    pub fn vantage(&self, kind: VantageKind) -> &SimOutput {
        let idx = VantageKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known vantage");
        &self.vantages[idx]
    }
}

/// Simulate everything on up to `jobs` worker threads (`1` = strictly
/// serial on the calling thread; see `simcore::par::available_jobs` for
/// an "auto" value). `faults` applies to every capture; pass
/// [`FaultPlan::none`] for the clean reproduction. Output bytes are
/// independent of `jobs`.
pub fn run_capture(scale: f64, seed: u64, faults: &FaultPlan, jobs: usize) -> Capture {
    run_capture_with_plan(&ShardPlan::paper(), scale, seed, faults, jobs)
}

/// [`run_capture`] with an explicit shard plan — use
/// [`ShardPlan::with_sub_shards`] to tune the household sub-shard count
/// (the `--hh-shards` flag of `repro`). The plan must end with the
/// Campus 1 re-capture, as [`ShardPlan::paper`] does. Output bytes are
/// independent of both `jobs` and the plan's sub-shard count.
pub fn run_capture_with_plan(
    plan: &ShardPlan,
    scale: f64,
    seed: u64,
    faults: &FaultPlan,
    jobs: usize,
) -> Capture {
    let mut outputs = simulate_shards(plan, scale, seed, faults, jobs);
    let campus1_v14 = outputs.pop().expect("plan ends with the re-capture");
    Capture {
        scale,
        seed,
        vantages: outputs,
        campus1_v14,
    }
}

/// What `repro` folds each household range into: the summary fold, plus
/// the materialised records only when they are asked for (trace export).
struct RunFold {
    summary: VantageFold,
    records: Option<SimOutput>,
}

impl SpanFold for RunFold {
    fn accept(&mut self, flow: FlowRecord, truth: Option<FlowTruth>) {
        self.summary.observe(&flow, truth.as_ref());
        if let Some(out) = &mut self.records {
            out.accept(flow, truth);
        }
    }

    fn merge(&mut self, later: Self) {
        self.summary.merge(later.summary);
        if let (Some(out), Some(later)) = (&mut self.records, later.records) {
            out.merge(later);
        }
    }
}

/// Simulate every capture of `plan` and fold it straight into its summary
/// — one pass, on the workers, with no capture held in memory. With
/// `keep_records` the same pass also materialises the [`Capture`] (for
/// trace export). The plan must end with the Campus 1 re-capture, as
/// [`ShardPlan::paper`] does. Output bytes are independent of `jobs` and
/// of the plan's sub-shard count.
pub fn run_summary(
    plan: &ShardPlan,
    scale: f64,
    seed: u64,
    faults: &FaultPlan,
    jobs: usize,
    keep_records: bool,
) -> (CaptureSummary, Option<Capture>) {
    let folds = simulate_shards_into(plan, scale, seed, faults, jobs, |shard| RunFold {
        summary: VantageFold::for_shard(shard),
        records: keep_records.then(|| SimOutput::new(&shard.config(scale))),
    });
    let mut vantages = Vec::new();
    let mut outputs = Vec::new();
    for (fold, stats) in folds {
        if let Some(out) = fold.records {
            outputs.push(out.with_stats(stats.clone()));
        }
        vantages.push(fold.summary.finish(stats));
    }
    let campus1_v14 = vantages.pop().expect("plan ends with the re-capture");
    let summary = CaptureSummary {
        scale,
        seed,
        vantages,
        campus1_v14,
    };
    let capture = keep_records.then(|| {
        let campus1_v14 = outputs.pop().expect("plan ends with the re-capture");
        Capture {
            scale,
            seed,
            vantages: outputs,
            campus1_v14,
        }
    });
    (summary, capture)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_all_vantages() {
        let cap = run_capture(0.012, 3, &FaultPlan::none(), 2);
        assert_eq!(cap.vantages.len(), 4);
        for (kind, out) in VantageKind::ALL.iter().zip(&cap.vantages) {
            assert_eq!(out.dataset.name, kind.name());
            assert!(!out.dataset.flows.is_empty(), "{kind:?} empty");
        }
        assert_eq!(cap.campus1_v14.dataset.days, 14);
        // Accessor returns the right dataset.
        assert_eq!(cap.vantage(VantageKind::Home2).dataset.name, "Home 2");
    }

    #[test]
    fn worker_count_does_not_change_the_capture() {
        let a = run_capture(0.012, 3, &FaultPlan::none(), 1);
        let b = run_capture(0.012, 3, &FaultPlan::none(), 3);
        for (x, y) in a
            .vantages
            .iter()
            .chain([&a.campus1_v14])
            .zip(b.vantages.iter().chain([&b.campus1_v14]))
        {
            assert_eq!(x.dataset.flows.len(), y.dataset.flows.len());
            let bytes =
                |o: &SimOutput| -> u64 { o.dataset.flows.iter().map(|f| f.total_bytes()).sum() };
            assert_eq!(bytes(x), bytes(y), "{} differs across jobs", x.dataset.name);
        }
    }

    #[test]
    fn sub_shard_count_does_not_change_the_capture() {
        let coarse = run_capture_with_plan(
            &ShardPlan::paper().with_sub_shards(1),
            0.012,
            3,
            &FaultPlan::none(),
            2,
        );
        let fine = run_capture(0.012, 3, &FaultPlan::none(), 2);
        for (x, y) in coarse
            .vantages
            .iter()
            .chain([&coarse.campus1_v14])
            .zip(fine.vantages.iter().chain([&fine.campus1_v14]))
        {
            let jsonl = |o: &SimOutput| -> Vec<u8> {
                let mut buf = Vec::new();
                nettrace::flowlog::write_jsonl(&mut buf, &o.dataset.flows).expect("serialise");
                buf
            };
            assert_eq!(jsonl(x), jsonl(y), "{} differs across K", x.dataset.name);
        }
    }
}
