//! Fixture-based self-tests: each known-bad tree must produce exactly the
//! expected findings under the workspace configuration, and the known-good
//! tree must pass clean. The fixtures mirror the real layout
//! (`crates/<name>/src/...`), so [`simlint::Options::workspace`] applies
//! unchanged — the same configuration the verify gate runs.

use simlint::{Options, Report};
use std::path::PathBuf;

fn lint(fixture: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    simlint::run(&root, &Options::workspace()).expect("fixture tree readable")
}

fn rules(report: &Report) -> Vec<&str> {
    report.violations.iter().map(|v| v.rule.as_str()).collect()
}

#[test]
fn clean_fixture_passes() {
    let r = lint("clean");
    assert!(r.ok(), "expected clean, got: {:?}", r.violations);
    assert!(r.allowed.is_empty());
    assert!(r.files_scanned >= 2);
}

#[test]
fn wallclock_fixture_fails() {
    let r = lint("wallclock");
    // The thread spawn in the same fixture is the par-exec rule's beat.
    assert_eq!(rules(&r), ["wall-clock", "wall-clock", "par-exec"]);
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("SystemTime::now")));
    assert!(msgs.iter().any(|m| m.contains("Instant::now")));
    assert!(msgs.iter().any(|m| m.contains("thread::spawn")));
}

#[test]
fn parexec_fixture_fails_outside_the_executor_only() {
    let r = lint("parexec");
    // Sorted by file: the executor file's unjustified Mutex first, then
    // the sim crate's thread::spawn / thread::scope.
    assert_eq!(
        rules(&r),
        ["par-exec", "par-exec", "par-exec"],
        "{:?}",
        r.violations
    );
    assert!(r.violations[0].file.ends_with("crates/simcore/src/par.rs"));
    assert!(r.violations[0].message.contains("`Mutex`"));
    assert!(r.violations[1].file.ends_with("crates/workload/src/lib.rs"));
    assert!(r.violations[1].message.contains("thread::spawn"));
    assert!(r.violations[1].message.contains("simcore::par"));
    assert!(r.violations[2].message.contains("thread::scope"));
    // The annotated scheduling cursor is suppressed, not silently passed.
    assert_eq!(r.allowed.len(), 1, "{:?}", r.allowed);
    assert_eq!(r.allowed[0].rule, "par-exec");
    assert!(r.allowed[0].reason.contains("scheduling"));
}

#[test]
fn shardseed_fixture_flags_scheduling_state_derivation() {
    let r = lint("shardseed");
    assert_eq!(rules(&r), ["shard-seed"], "{:?}", r.violations);
    assert!(r.violations[0]
        .file
        .ends_with("crates/workload/src/driver.rs"));
    assert!(r.violations[0].message.contains("`worker_idx`"));
    assert!(r.violations[0].message.contains("stable shard identity"));
    // The annotated derivation is suppressed with its justification, not
    // silently passed; the identity-derived stream is simply clean.
    assert_eq!(r.allowed.len(), 1, "{:?}", r.allowed);
    assert_eq!(r.allowed[0].rule, "shard-seed");
    assert!(r.allowed[0].reason.contains("identity"));
}

#[test]
fn mapiter_sim_fixture_fails_strict() {
    let r = lint("mapiter_sim");
    assert_eq!(rules(&r), ["map-iter", "map-iter"], "{:?}", r.violations);
    assert!(r.violations[0].message.contains("flows"));
    assert!(r.violations[1].message.contains("tags"));
}

#[test]
fn mapiter_emit_fixture_flags_only_emission_reaching() {
    let r = lint("mapiter_emit");
    assert_eq!(rules(&r), ["map-iter"], "{:?}", r.violations);
    assert!(r.violations[0].message.contains("samples"));
    assert!(r.violations[0].message.contains("emission"));
}

#[test]
fn materialize_fixture_flags_rescans_outside_the_view() {
    let r = lint("materialize");
    assert_eq!(
        rules(&r),
        ["full-materialize", "full-materialize"],
        "{:?}",
        r.violations
    );
    // Sorted by line: the `for` loop first, then `.flows.iter()`.
    assert!(r.violations[0].file.ends_with("crates/core/src/lib.rs"));
    assert!(r.violations[0].message.contains("`for` loop"));
    assert!(r.violations[1].message.contains("`.flows.iter()`"));
    // The compatibility view is exempt; the annotated export is
    // suppressed with its justification, not silently passed.
    assert_eq!(r.allowed.len(), 1, "{:?}", r.allowed);
    assert_eq!(r.allowed[0].rule, "full-materialize");
    assert!(r.allowed[0].reason.contains("anonymise"));
}

#[test]
fn oraclepure_fixture_flags_mutable_borrows() {
    let r = lint("oraclepure");
    assert_eq!(
        rules(&r),
        ["oracle-pure", "oracle-pure"],
        "{:?}",
        r.violations
    );
    assert!(r.violations[0]
        .file
        .ends_with("crates/workload/src/oracle.rs"));
    assert!(r.violations[0].message.contains("read-only"));
    // The `&self` scorer and the test module are clean.
    assert!(r.allowed.is_empty());
}

#[test]
fn allowed_fixture_suppresses_with_justification() {
    let r = lint("allowed");
    assert!(r.ok(), "justified allow must suppress: {:?}", r.violations);
    assert_eq!(r.allowed.len(), 1);
    assert_eq!(r.allowed[0].rule, "wall-clock");
    assert!(r.allowed[0].reason.contains("self-profiling"));
}

#[test]
fn badallow_fixture_reports_both_problems() {
    let r = lint("badallow");
    assert_eq!(
        rules(&r),
        ["allow-syntax", "wall-clock"],
        "{:?}",
        r.violations
    );
    assert!(r.allowed.is_empty(), "malformed allow must not suppress");
}

#[test]
fn hermetic_fixture_fails() {
    let r = lint("hermetic");
    let mut got = rules(&r);
    got.sort();
    assert_eq!(
        got,
        [
            "extern-crate",
            "non-workspace-dep",
            "non-workspace-dep",
            "non-workspace-dep",
            "process-spawn"
        ],
        "{:?}",
        r.violations
    );
}

#[test]
fn panic_fixture_fails() {
    let r = lint("panic");
    assert_eq!(
        rules(&r),
        ["panic-path", "panic-path"],
        "{:?}",
        r.violations
    );
    assert!(r.violations[0].message.contains("unwrap"));
    assert!(r.violations[1].message.contains("expect"));
}

#[test]
fn schema_fixture_flags_only_strict_new_field() {
    let r = lint("schema");
    assert_eq!(rules(&r), ["schema-drift"], "{:?}", r.violations);
    assert!(r.violations[0].message.contains("FixRec"));
    assert!(r.violations[0].message.contains("fresh"));
}

#[test]
fn reports_are_deterministic_and_machine_readable() {
    let a = lint("hermetic");
    let b = lint("hermetic");
    let ja = simcore::json::to_string(&a.to_json());
    let jb = simcore::json::to_string(&b.to_json());
    assert_eq!(ja, jb, "report serialisation must be run-independent");
    assert!(ja.contains("\"counts\""));
    assert!(ja.contains("\"files_scanned\""));
}

#[test]
fn taint_fixture_resolves_aliases_and_crosses_crates() {
    let r = lint("taint");
    assert_eq!(
        rules(&r),
        ["taint-flow", "shard-seed", "shard-seed"],
        "{:?}",
        r.violations
    );
    // Emission leg: a scheduling-derived value is serialised.
    assert!(r.violations[0].file.ends_with("crates/core/src/report.rs"));
    assert!(r.violations[0].message.contains("`worker_idx`"));
    assert_eq!(r.violations[0].pass, "taint");
    // Cross-crate leg: the taint reaches `fork` two crates away, through
    // `workload::wrap` — only the param-flow fixpoint can see it.
    assert!(r.violations[1].file.ends_with("crates/dropbox/src/lib.rs"));
    assert!(r.violations[1].message.contains("`thread_no`"));
    assert_eq!(r.violations[1].symbol, "workload::wrap");
    // Aliased leg: `use ... household_stream as stream` must not hide the
    // seed constructor; provenance names the resolved symbol.
    assert!(r.violations[2].file.ends_with("crates/workload/src/lib.rs"));
    assert!(r.violations[2].message.contains("`worker_idx`"));
    assert!(r.violations[2].message.contains("stable shard identity"));
    assert_eq!(r.violations[2].symbol, "simcore::par::household_stream");
    // Identity-derived streams are clean; the annotated one is suppressed.
    assert_eq!(r.allowed.len(), 1, "{:?}", r.allowed);
    assert_eq!(r.allowed[0].rule, "shard-seed");
}

#[test]
fn providerspec_fixture_holds_new_provider_modules_to_sim_rules() {
    // The provider-matrix refactor added `dropbox/src/spec.rs` and
    // provider modules under `workload/` — both sim crates, so the strict
    // tier (map-iter, seed provenance, float-merge) covers them with no
    // configuration change.
    let r = lint("providerspec");
    let mut found = rules(&r);
    found.sort_unstable();
    assert_eq!(
        found,
        ["float-merge", "map-iter", "shard-seed"],
        "{:?}",
        r.violations
    );
    let by_rule = |rule: &str| {
        r.violations
            .iter()
            .find(|v| v.rule == rule)
            .unwrap_or_else(|| panic!("missing {rule}"))
    };
    assert!(by_rule("map-iter")
        .file
        .ends_with("crates/dropbox/src/spec.rs"));
    assert!(by_rule("map-iter").message.contains("specs"));
    assert!(by_rule("shard-seed")
        .file
        .ends_with("crates/workload/src/providers.rs"));
    assert!(by_rule("shard-seed").message.contains("`worker_idx`"));
    assert!(by_rule("float-merge")
        .file
        .ends_with("crates/workload/src/providers.rs"));
    assert!(by_rule("float-merge").message.contains("up_bytes"));
    // The household-identity stream is clean, no suppressions involved.
    assert!(r.allowed.is_empty(), "{:?}", r.allowed);
}

#[test]
fn floatmerge_fixture_flags_order_sensitive_reductions() {
    let r = lint("floatmerge");
    assert_eq!(
        rules(&r),
        ["float-merge", "float-merge"],
        "{:?}",
        r.violations
    );
    // Sorted by line: the `+=` in `Accumulate::merge`, then the re-sum in
    // a merge-named method.
    assert!(r.violations[0].message.contains("`sum +=`"));
    assert_eq!(r.violations[0].symbol, "Accumulate for BadAcc::merge");
    assert!(r.violations[1].message.contains(".sum::<f64>()"));
    assert!(r.violations[1].symbol.contains("FoldAcc"));
    assert_eq!(r.violations[0].pass, "float");
    // `OrderlessSum` routing is clean; the annotated `+=` is suppressed.
    assert_eq!(r.allowed.len(), 1, "{:?}", r.allowed);
    assert_eq!(r.allowed[0].rule, "float-merge");
    assert!(r.allowed[0].reason.contains("slot order"));
}

#[test]
fn staleallow_fixture_flags_suppressions_of_nothing() {
    let r = lint("staleallow");
    assert_eq!(rules(&r), ["stale-allow"], "{:?}", r.violations);
    assert!(r.violations[0].message.contains("wall-clock"));
    assert!(r.violations[0].message.contains("suppresses no violations"));
    assert_eq!(r.violations[0].pass, "allow");
    // The live annotation suppresses a real read; the deliberately-kept
    // stale annotation is itself excused by an allow(stale-allow).
    let mut allowed: Vec<&str> = r.allowed.iter().map(|a| a.rule.as_str()).collect();
    allowed.sort();
    assert_eq!(allowed, ["stale-allow", "wall-clock"], "{:?}", r.allowed);
}

#[test]
fn report_json_carries_rule_provenance() {
    let r = lint("taint");
    let j = simcore::json::to_string(&r.to_json());
    assert!(j.contains("\"pass\":\"taint\""));
    assert!(j.contains("\"symbol\":\"simcore::par::household_stream\""));
}
