//! Zero-fault identity and faulty-run determinism.
//!
//! The fault-injection substrate must be invisible when disabled: a run
//! with [`FaultPlan::none`] has to reproduce, byte for byte, the
//! canonical baseline output. The digests pinned below were captured from
//! the per-household-stream baseline (the sub-capture sharding refactor);
//! if they move, either a fault branch leaked into the clean path (an
//! extra RNG draw is enough) or a change perturbed the per-household seed
//! derivation — both break the reproducibility contract and need a
//! deliberate re-pin.
//!
//! An *active* plan, in turn, must stay a pure function of its inputs:
//! the same `(config, seed, plan)` triple serialises to identical JSONL
//! on every run. The lossy and chaos pins below hold the fault path itself
//! to constants — resets, retries, outage backoffs, offline queueing and
//! the reconnect storm — so a refactor of that path cannot move a byte
//! unnoticed either.

use dropbox::client::ClientVersion;
use nettrace::FlowRecord;
use workload::{
    simulate_vantage, simulate_vantage_audited, FaultPlan, FaultStats, OutageKnobs, SimOutput,
    VantageConfig, VantageKind,
};

fn config(kind: VantageKind) -> VantageConfig {
    let mut config = VantageConfig::paper(kind, 0.02);
    config.days = 7;
    config
}

fn run(kind: VantageKind, plan: &FaultPlan) -> SimOutput {
    simulate_vantage(&config(kind), ClientVersion::V1_2_52, 42, plan)
}

/// FNV-1a over the shape-defining fields of every record, in order.
fn digest(flows: &[FlowRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for f in flows {
        for v in [
            f.first_syn.micros(),
            f.last_packet.micros(),
            f.up.bytes,
            f.down.bytes,
            f.up.packets,
            f.down.packets,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn none_plan_reproduces_the_pinned_baseline() {
    let home = run(VantageKind::Home1, &FaultPlan::none());
    assert_eq!(home.dataset.flows.len(), 9727);
    let bytes: u64 = home.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 1_014_154_257_606);
    assert_eq!(digest(&home.dataset.flows), 0x24a187552ac6cc36);

    let campus = run(VantageKind::Campus1, &FaultPlan::none());
    assert_eq!(campus.dataset.flows.len(), 808);
    let bytes: u64 = campus.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 26_181_183_100);
    assert_eq!(digest(&campus.dataset.flows), 0x1677cb9ce0b2216f);
}

#[test]
fn lossy_plan_is_deterministic_down_to_the_serialised_bytes() {
    let plan = FaultPlan::lossy(7, 7);
    let jsonl = |out: &SimOutput| {
        let mut buf = Vec::new();
        nettrace::flowlog::write_jsonl(&mut buf, &out.dataset.flows).unwrap();
        buf
    };
    let a = run(VantageKind::Campus1, &plan);
    let b = run(VantageKind::Campus1, &plan);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(
        jsonl(&a),
        jsonl(&b),
        "faulty runs must serialise identically"
    );
    assert!(a.fault_stats.sync_retries > 0 || a.fault_stats.aborted_flows > 0);
}

#[test]
fn lossy_plan_reproduces_the_pinned_capture() {
    let campus = run(VantageKind::Campus1, &FaultPlan::lossy(7, 7));
    assert_eq!(campus.dataset.flows.len(), 853);
    let bytes: u64 = campus.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 26_200_335_285);
    assert_eq!(digest(&campus.dataset.flows), 0x9c467ba8f8e75692);
    assert_eq!(
        campus.fault_stats,
        FaultStats {
            sync_retries: 32,
            aborted_flows: 32,
            notify_aborts: 7,
            reconnect_attempts: 0,
            reconnects: 0,
            fallback_polls: 0,
            offline_commits: 0,
        }
    );
}

#[test]
fn audited_chaos_plan_reproduces_the_pinned_capture() {
    // Seed 13 is one whose metadata outages catch local commits, so the
    // offline queue and its deferred flushes are pinned too.
    let plan = FaultPlan::chaos(13, 7, &OutageKnobs::default());
    let (home, audit) = simulate_vantage_audited(
        &config(VantageKind::Home1),
        ClientVersion::V1_2_52,
        42,
        &plan,
    );
    assert_eq!(home.dataset.flows.len(), 10_466);
    let bytes: u64 = home.dataset.flows.iter().map(|f| f.total_bytes()).sum();
    assert_eq!(bytes, 1_014_207_902_528);
    assert_eq!(digest(&home.dataset.flows), 0xb83cfd3f1d6fffcf);
    assert_eq!(
        home.fault_stats,
        FaultStats {
            sync_retries: 116,
            aborted_flows: 113,
            notify_aborts: 113,
            reconnect_attempts: 329,
            reconnects: 51,
            fallback_polls: 144,
            offline_commits: 3,
        }
    );
    assert_eq!(audit.commit_count(), 809);
    assert_eq!(audit.commits().iter().filter(|c| c.deferred).count(), 5);
    let violations = workload::oracle::check(&audit);
    assert!(
        violations.is_empty(),
        "oracle violations: {:?}",
        violations.iter().map(|v| v.render()).collect::<Vec<_>>()
    );
}
