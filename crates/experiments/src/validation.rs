//! Ground-truth scoring of the analysis methods.
//!
//! The paper validated its flow-tagging and chunk-counting heuristics in a
//! testbed (Appendix A); owning the whole substrate lets us score them
//! against every flow of the full simulation:
//!
//! * store/retrieve tagging accuracy of `f(u)`,
//! * chunk-count estimation error of the PSH method,
//! * provider/role classification consistency,
//! * deduplication and LAN-sync savings that never reach the wire.
//!
//! Scoring needs the per-flow ground truth (`FlowTruth`), which lives
//! outside the `FlowRecord` stream, so the driver hands each record to the
//! summary fold together with its truth and [`TruthScoreAcc`] scores it in
//! the same single pass that feeds the tables and figures
//! ([`crate::summary::VantageFold`]): tag scoring, chunk scoring, and
//! user-inference observation all fold there, and [`report`] renders the
//! finished [`TruthScores`].

use crate::report::{Report, TextTable};
use crate::run::Capture;
use crate::summary::CaptureSummary;
use dropbox::FlowTruth;
use dropbox_analysis::chunks::estimate_chunks;
use dropbox_analysis::classify::{dropbox_role, storage_tag, DropboxRole, StorageTag};
use dropbox_analysis::stream::Accumulate;
use dropbox_analysis::users::{score_users, InferUsersAcc};
use nettrace::FlowRecord;
use std::mem::size_of;

/// One vantage's inference methods scored against ground truth.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TruthScores {
    /// Client-storage flows with store/retrieve ground truth.
    pub storage_flows: u64,
    /// Of those, flows `f(u)` tagged correctly.
    pub tag_ok: u64,
    /// Acknowledged flows whose chunk estimate is exact.
    pub chunk_exact: u64,
    /// Acknowledged flows whose chunk estimate is off by at most one.
    pub chunk_close: u64,
    /// Sum of the absolute chunk-estimate errors of acknowledged flows.
    pub chunk_err_sum: u64,
    /// User accounts inferred from namespace lists (Sec. 2.3.1).
    pub inferred_users: Vec<Vec<u64>>,
}

/// Streaming scorer behind [`TruthScores`]: folds `(record, truth)` pairs.
#[derive(Default)]
pub struct TruthScoreAcc {
    scores: TruthScores,
    users: InferUsersAcc,
}

impl TruthScoreAcc {
    /// Score one record against its ground truth (`None` for background
    /// records).
    pub fn observe(&mut self, f: &FlowRecord, truth: Option<&FlowTruth>) {
        self.users.observe(f);
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let (true_tag, true_chunks, acked) = match truth {
            Some(FlowTruth::Store { chunks, acked, .. }) => (StorageTag::Store, *chunks, *acked),
            Some(FlowTruth::Retrieve { chunks, .. }) => (StorageTag::Retrieve, *chunks, true),
            _ => return,
        };
        let s = &mut self.scores;
        s.storage_flows += 1;
        if storage_tag(f) == true_tag {
            s.tag_ok += 1;
        }
        // The chunk estimator is only defined for acknowledged flows
        // (the paper notes the misbehaving client breaks it).
        if acked {
            let err = estimate_chunks(f).abs_diff(true_chunks);
            s.chunk_err_sum += u64::from(err);
            if err == 0 {
                s.chunk_exact += 1;
            }
            if err <= 1 {
                s.chunk_close += 1;
            }
        }
    }

    /// Append the scores of the records that follow this fold's.
    pub fn merge(&mut self, later: TruthScoreAcc) {
        let (s, l) = (&mut self.scores, later.scores);
        s.storage_flows += l.storage_flows;
        s.tag_ok += l.tag_ok;
        s.chunk_exact += l.chunk_exact;
        s.chunk_close += l.chunk_close;
        s.chunk_err_sum += l.chunk_err_sum;
        self.users.merge(later.users);
    }

    /// The finished scores.
    pub fn finish(self) -> TruthScores {
        TruthScores {
            inferred_users: self.users.finish(),
            ..self.scores
        }
    }

    /// Estimated live state size in bytes.
    pub fn state_bytes(&self) -> usize {
        size_of::<TruthScores>() + self.users.state_bytes()
    }
}

/// Score the analysis layer of a materialised capture against generator
/// ground truth (the adapter over [`report`]).
pub fn validate(cap: &Capture) -> Report {
    report(&CaptureSummary::compute(cap))
}

/// Render the ground-truth scores of the four Mar–May vantage points.
pub fn report(summary: &CaptureSummary) -> Report {
    let mut t = TextTable::new(vec![
        "Vantage",
        "storage flows",
        "tag accuracy",
        "chunk exact",
        "chunk |err|<=1",
        "mean |err|",
    ]);
    let mut worst_tag = 1.0f64;
    for v in &summary.vantages {
        let s = &v.truth;
        let total = s.storage_flows.max(1) as f64;
        let tagged = s.tag_ok as f64 / total;
        worst_tag = worst_tag.min(tagged);
        t.row(vec![
            v.name.clone(),
            s.storage_flows.to_string(),
            format!("{:.4}", tagged),
            format!("{:.4}", s.chunk_exact as f64 / total),
            format!("{:.4}", s.chunk_close as f64 / total),
            format!("{:.3}", s.chunk_err_sum as f64 / total),
        ]);
    }
    let mut body = t.render();
    body.push_str(&format!(
        "\nworst-case f(u) tagging accuracy: {worst_tag:.4} (paper estimates <1% error)\n"
    ));
    for v in &summary.vantages {
        body.push_str(&format!(
            "{}: {} chunk transfers served by LAN Sync (invisible at the probe)\n",
            v.name, v.lan_synced
        ));
    }
    body.push_str("\nuser-account inference from namespace lists (Sec. 2.3.1):\n");
    for v in &summary.vantages {
        let inferred = &v.truth.inferred_users;
        // Ground truth restricted to devices the monitor actually saw.
        let seen: std::collections::BTreeSet<u64> = inferred.iter().flatten().copied().collect();
        let truth: Vec<Vec<u64>> = v
            .truth_users
            .iter()
            .map(|g| {
                g.iter()
                    .copied()
                    .filter(|d| seen.contains(d))
                    .collect::<Vec<u64>>()
            })
            .filter(|g: &Vec<u64>| !g.is_empty())
            .collect();
        let (precision, recall) = score_users(inferred, &truth);
        body.push_str(&format!(
            "  {}: {} devices, {} inferred accounts, pairwise precision {:.3} recall {:.3}\n",
            v.name,
            seen.len(),
            inferred.len(),
            precision,
            recall
        ));
    }
    Report::new(
        "validation",
        "Ground-truth scoring of the paper's inference methods",
        body,
    )
    .with_csv("validation.csv", t.csv())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_capture;

    #[test]
    fn validation_scores_are_high_on_a_small_run() {
        let cap = run_capture(0.012, 11, &workload::FaultPlan::none(), 2);
        let rep = validate(&cap);
        // Extract the worst tag accuracy from the body sentinel line.
        let line = rep
            .body
            .lines()
            .find(|l| l.contains("worst-case"))
            .expect("worst-case line");
        let value: f64 = line
            .split_whitespace()
            .find_map(|w| w.parse::<f64>().ok())
            .expect("a number");
        assert!(
            value > 0.97,
            "tagging accuracy too low: {value} \n{}",
            rep.body
        );
    }
}
