//! Output checks behind the `attempted` / `failed` counts of a run.
//!
//! An operation is an artifact for `paper` and `matrix` and a scenario for
//! `chaos`. The checks read only the files `repro` wrote, so they keep
//! working while the code that writes them is refactored.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Seed the committed `results/` were generated with (at `repro all`'s
/// default scale).
pub const RESULTS_SEED: u64 = 2012;

/// Operations checked and how many of them failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// A run that exited non-zero failed even where its files look fine;
    /// with nothing parsed, every operation failed.
    pub fn with_exit(mut self, exited_ok: bool) -> Ops {
        if !exited_ok {
            self.attempted = self.attempted.max(1);
            if self.failed == 0 {
                self.failed = self.attempted;
            }
        }
        self
    }
}

fn non_empty(path: &Path) -> bool {
    fs::metadata(path).is_ok_and(|m| m.is_file() && m.len() > 0)
}

/// Report and artifact names listed in a run's `INDEX.md` table.
pub fn index_entries(index: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in index.lines().filter(|l| l.starts_with("| [")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // cells: "", "[id.txt](id.txt)", title, artifacts, ""
        if let Some(report) = cells
            .get(1)
            .and_then(|c| c.split_once("]("))
            .and_then(|(_, rest)| rest.strip_suffix(')'))
        {
            names.push(report.to_string());
        }
        if let Some(arts) = cells.get(cells.len().saturating_sub(2)) {
            names.extend(
                arts.split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(String::from),
            );
        }
    }
    names
}

/// `paper`: `INDEX.md` and every file it lists exist and are non-empty.
/// With `reference` (the committed `results/`, for the seed it was made
/// with), every listed file that is also there must be byte-identical.
/// `INDEX.md` itself is never compared: the committed one is stale.
pub fn check_paper(out: &Path, reference: Option<&Path>) -> Ops {
    let mut ops = Ops::default();
    let index = fs::read_to_string(out.join("INDEX.md")).unwrap_or_default();
    ops.record(!index.is_empty());
    for name in index_entries(&index) {
        let path = out.join(&name);
        let mut ok = non_empty(&path);
        if let Some(reference) = reference {
            let committed = reference.join(&name);
            if ok && committed.is_file() {
                ok = fs::read(&path).ok() == fs::read(&committed).ok();
            }
        }
        ops.record(ok);
    }
    ops
}

/// `chaos`: one operation per scenario; a scenario fails when the
/// convergence oracle reported a violation for its seed, or when its row
/// is missing from `chaos_soak.txt`.
pub fn check_chaos(out: &Path, scenarios: u64) -> Ops {
    let text = fs::read_to_string(out.join("chaos_soak.txt")).unwrap_or_default();
    let mut rows: BTreeSet<u64> = BTreeSet::new();
    let mut violating: BTreeSet<u64> = BTreeSet::new();
    for line in text.lines() {
        // Table row: seed flows commits deferred probes reconnects polls violations
        let cols: Result<Vec<u64>, _> = line.split_whitespace().map(str::parse).collect();
        if let Ok(&[seed, _, _, _, _, _, _, violations]) = cols.as_deref() {
            rows.insert(seed);
            if violations > 0 {
                violating.insert(seed);
            }
        }
        // Violation detail: "seed N: [invariant] ..."
        if let Some(seed) = line
            .strip_prefix("seed ")
            .and_then(|r| r.split_once(':'))
            .and_then(|(n, _)| n.parse().ok())
        {
            violating.insert(seed);
        }
    }
    let in_range = |s: &u64| (1..=scenarios).contains(s);
    let missing = (1..=scenarios).filter(|s| !rows.contains(s)).count() as u64;
    let violated = violating
        .iter()
        .filter(|s| in_range(s) && rows.contains(s))
        .count() as u64;
    Ops {
        attempted: scenarios,
        failed: missing + violated,
    }
}

/// Artifacts of `repro --provider-matrix`.
const MATRIX_ARTIFACTS: [&str; 5] = [
    "provider_matrix.txt",
    "provider_matrix_cdf.csv",
    "provider_matrix_volume.csv",
    "provider_bundling_rtt.txt",
    "provider_bundling_rtt.csv",
];

/// Provider spec slugs: one volume row each.
const MATRIX_SPECS: [&str; 3] = ["dropbox", "skydrive_like", "gdrive_like"];

/// `matrix`: the five artifacts, one volume row per spec, and the line
/// saying every household was forced onto `access`.
pub fn check_matrix(out: &Path, access: &str) -> Ops {
    let mut ops = Ops::default();
    for name in MATRIX_ARTIFACTS {
        ops.record(non_empty(&out.join(name)));
    }
    let volume = fs::read_to_string(out.join("provider_matrix_volume.csv")).unwrap_or_default();
    for slug in MATRIX_SPECS {
        ops.record(
            volume
                .lines()
                .skip(1)
                .any(|l| l.split(',').next() == Some(slug)),
        );
    }
    let report = fs::read_to_string(out.join("provider_matrix.txt")).unwrap_or_default();
    ops.record(report.contains(&format!("forced to `{access}`")));
    ops
}

/// Value following `flag` in `args`.
pub fn arg_after<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Check the outputs of one `repro` run of `workload` with `args`.
/// `results` is the committed `results/` directory, which a `paper` run at
/// [`RESULTS_SEED`] must reproduce.
pub fn check(workload: &str, args: &[String], out: &Path, results: &Path, exited_ok: bool) -> Ops {
    let ops = match workload {
        "paper" => {
            let seed = arg_after(args, "--seed").and_then(|s| s.parse().ok());
            let at_results_seed = seed == Some(RESULTS_SEED);
            check_paper(out, at_results_seed.then_some(results))
        }
        "chaos" => {
            let n = arg_after(args, "--chaos").and_then(|n| n.parse().ok());
            check_chaos(out, n.unwrap_or(0))
        }
        "matrix" => check_matrix(out, arg_after(args, "--access").unwrap_or("wired")),
        _ => Ops::default(),
    };
    ops.with_exit(exited_ok)
}
