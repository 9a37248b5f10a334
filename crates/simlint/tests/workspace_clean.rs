//! The real workspace must pass its own lint: every pre-existing
//! violation is either fixed or carries a justified allow annotation.
//! This is the same check `scripts/verify.sh` gates on.

use simcore::json;
use simlint::Options;
use std::path::PathBuf;

#[test]
fn workspace_passes_simlint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = simlint::run(&root, &Options::workspace()).expect("workspace readable");
    assert!(
        report.ok(),
        "workspace has simlint violations:\n{}",
        report.render()
    );
    // The committed report pins the scan exactly: file count, and every
    // sanctioned suppression with its line and reason. Adding or moving
    // a file or an allow means regenerating it with the binary.
    let committed = std::fs::read_to_string(root.join("results/simlint_report.json"))
        .expect("committed report readable");
    assert_eq!(
        json::to_string(&report.to_json()) + "\n",
        committed,
        "results/simlint_report.json is stale: regenerate it with \
         `cargo run --release --offline -p simlint`\n{}",
        report.render()
    );
}
