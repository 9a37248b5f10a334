//! The streamed summary `repro` builds — every household range folded on
//! its worker, the folds merged in household order — renders exactly what
//! the materialised capture renders, at every `(jobs, hh-shards)` cut.

use experiments::run::run_capture;
use experiments::{run_summary, validation, CaptureSummary, SUMMARY_REPORTS};
use workload::{FaultPlan, ShardPlan, SimOutput};

const SCALE: f64 = 0.012;
const SEED: u64 = 3;

/// Every report rendered from `s`: body and artifacts, in output order.
fn rendered(s: &CaptureSummary) -> Vec<(String, String)> {
    SUMMARY_REPORTS
        .iter()
        .flat_map(|(_, render)| {
            let rep = render(s);
            std::iter::once((format!("{}.txt", rep.id), rep.render())).chain(rep.artifacts)
        })
        .collect()
}

fn jsonl(out: &SimOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    nettrace::flowlog::write_jsonl(&mut buf, &out.dataset.flows).expect("serialise");
    buf
}

#[test]
fn streamed_summary_matches_the_materialised_capture() {
    let cap = run_capture(SCALE, SEED, &FaultPlan::none(), 2);
    let reference = CaptureSummary::compute(&cap);
    let expected = rendered(&reference);
    let expected_validation = validation::validate(&cap).render();
    for (jobs, shards) in [(1, 1), (2, 4), (3, 16)] {
        let plan = ShardPlan::paper().with_sub_shards(shards);
        let (streamed, kept) = run_summary(&plan, SCALE, SEED, &FaultPlan::none(), jobs, false);
        assert!(kept.is_none());
        let cut = format!("jobs {jobs}, hh-shards {shards}");
        assert_eq!(streamed.records(), reference.records(), "{cut}");
        assert_eq!(streamed.stages(), reference.stages(), "{cut}");
        assert_eq!(streamed.state_bytes(), reference.state_bytes(), "{cut}");
        for (got, want) in rendered(&streamed).iter().zip(&expected) {
            assert_eq!(got, want, "{cut}: {} differs", want.0);
        }
        assert_eq!(
            validation::report(&streamed).render(),
            expected_validation,
            "{cut}"
        );
    }
}

#[test]
fn kept_records_ride_the_same_pass() {
    let plan = ShardPlan::paper().with_sub_shards(4);
    let (_, kept) = run_summary(&plan, SCALE, SEED, &FaultPlan::none(), 2, true);
    let kept = kept.expect("records kept when asked for");
    let cap = run_capture(SCALE, SEED, &FaultPlan::none(), 1);
    for (a, b) in kept
        .vantages
        .iter()
        .chain([&kept.campus1_v14])
        .zip(cap.vantages.iter().chain([&cap.campus1_v14]))
    {
        assert_eq!(jsonl(a), jsonl(b), "{}", a.dataset.name);
        assert_eq!(a.stats(), b.stats(), "{}", a.dataset.name);
        assert_eq!(a.truths, b.truths, "{}", a.dataset.name);
    }
}
