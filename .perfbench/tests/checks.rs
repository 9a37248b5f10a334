//! The output checks behind `attempted` / `failed`, on committed fixtures
//! shaped like `repro`'s output directories.

use perfbench::checks::{check, check_chaos, check_matrix, check_paper, index_entries, Ops};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn ops(attempted: u64, failed: u64) -> Ops {
    Ops { attempted, failed }
}

#[test]
fn index_lists_reports_and_their_artifacts() {
    let index = std::fs::read_to_string(fixture("paper_run/INDEX.md")).unwrap();
    assert_eq!(
        index_entries(&index),
        ["fig1.txt", "table1.txt", "table1.csv"]
    );
}

#[test]
fn paper_needs_every_indexed_file_non_empty() {
    assert_eq!(check_paper(&fixture("paper_run"), None), ops(4, 0));
    // fig1.txt is empty and table1.csv missing.
    assert_eq!(check_paper(&fixture("paper_broken"), None), ops(4, 2));
    // No INDEX.md: the one operation left fails.
    assert_eq!(check_paper(&fixture("no_such_run"), None), ops(1, 1));
}

#[test]
fn paper_at_the_results_seed_must_match_committed_files() {
    // table1.csv differs from the reference; the stale INDEX.md is not
    // compared.
    let reference = fixture("paper_results");
    assert_eq!(
        check_paper(&fixture("paper_run"), Some(&reference)),
        ops(4, 1)
    );
    // Files the reference lacks are only checked for content.
    assert_eq!(
        check_paper(&fixture("paper_run"), Some(&fixture("matrix_ok"))),
        ops(4, 0)
    );
}

#[test]
fn chaos_counts_distinct_violating_seeds() {
    assert_eq!(check_chaos(&fixture("chaos_pass"), 3), ops(3, 0));
    // Seed 2 by its row and its detail lines, seed 3 by its detail line.
    assert_eq!(check_chaos(&fixture("chaos_fail"), 3), ops(3, 2));
    // A scenario without a row failed.
    assert_eq!(check_chaos(&fixture("chaos_pass"), 5), ops(5, 2));
    assert_eq!(check_chaos(&fixture("no_such_run"), 384), ops(384, 384));
}

#[test]
fn matrix_needs_artifacts_spec_rows_and_the_access_line() {
    assert_eq!(check_matrix(&fixture("matrix_ok"), "lte"), ops(9, 0));
    assert_eq!(check_matrix(&fixture("matrix_ok"), "wifi"), ops(9, 1));
    // provider_bundling_rtt.csv and the gdrive_like row are missing.
    assert_eq!(check_matrix(&fixture("matrix_partial"), "lte"), ops(9, 2));
}

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

#[test]
fn paper_is_compared_with_results_only_at_the_results_seed() {
    let results = fixture("paper_results");
    let at = args(&["all", "--seed", "2012"]);
    assert_eq!(
        check("paper", &at, &fixture("paper_run"), &results, true),
        ops(4, 1)
    );
    let other = args(&["all", "--seed", "7"]);
    assert_eq!(
        check("paper", &other, &fixture("paper_run"), &results, true),
        ops(4, 0)
    );
}

#[test]
fn a_failed_exit_fails_the_run() {
    let results = fixture("paper_results");
    let chaos = args(&["--chaos", "3", "--jobs", "2"]);
    assert_eq!(
        check("chaos", &chaos, &fixture("chaos_pass"), &results, true),
        ops(3, 0)
    );
    // Files look fine but the process failed: every operation fails.
    assert_eq!(
        check("chaos", &chaos, &fixture("chaos_pass"), &results, false),
        ops(3, 3)
    );
    // Counts parsed from a failing run stand.
    assert_eq!(
        check("chaos", &chaos, &fixture("chaos_fail"), &results, false),
        ops(3, 2)
    );
    let matrix = args(&["--provider-matrix", "--access", "lte"]);
    assert_eq!(
        check("matrix", &matrix, &fixture("matrix_ok"), &results, true),
        ops(9, 0)
    );
}
