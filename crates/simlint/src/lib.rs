//! `simlint` — the workspace's in-tree static-analysis pass.
//!
//! The reproduction's core claim is that every table and figure of
//! *Inside Dropbox* (IMC 2012) regenerates byte-identically from a seed,
//! even under fault plans. That claim rests on invariants the compiler
//! does not check:
//!
//! * **determinism** — no wall-clock reads in simulation crates, OS
//!   threads confined to the deterministic fork-join executor
//!   (`simcore::par`, whose own shared-state uses must each be justified —
//!   the `par-exec` rule), seed streams derived only from stable shard
//!   identity, never scheduling state (the seed-provenance taint pass in
//!   [`taint`], emitting the `shard-seed` and `taint-flow` rules), no
//!   `HashMap`/`HashSet` iteration whose order can reach serialized
//!   output ([`rules`], resolved workspace-wide by [`resolve`]), and no
//!   order-sensitive f64 reduction in merge paths ([`floatsum`]);
//! * **hermeticity** — every dependency is an in-tree path dependency and
//!   no code shells out ([`manifest`], [`rules`]);
//! * **streaming** — analysis crates consume flow records through the
//!   single-pass pipeline instead of re-scanning materialised `.flows`
//!   vectors, outside the declared compatibility view ([`rules`]);
//! * **panic policy** — fault-recovery paths propagate errors instead of
//!   unwrapping ([`rules`]);
//! * **JSONL schema stability** — new serialized fields are read back
//!   with `field_or` defaults ([`schema`]).
//!
//! Violations can be suppressed, never silently: a
//! `// simlint: allow(<rule>) — <reason>` annotation on the offending
//! line (or the line above) records the justification, a malformed
//! annotation is itself a violation (`allow-syntax`), and an annotation
//! that suppresses nothing is too (`stale-allow`) — suppressions cannot
//! outlive the code they excuse.
//!
//! Every run is one cold pass in two stages. Per-file **fact
//! extraction** ([`facts`]) lexes each file once and records local
//! findings plus everything the cross-file passes need (call sites with
//! argument structure, taint sets, schema accesses, `use` declarations).
//! The **global passes** — symbol resolution and the
//! emission/parameter-flow fixpoints ([`resolve`]), seed-provenance taint
//! ([`taint`]), the schema join ([`schema`]), and stale-allow detection —
//! then run over the full fact set. The whole workspace takes ~0.1–0.15 s
//! on a two-core host (`crates/bench/benches/simlint.rs`), too little for
//! a cache between runs to pay for its bookkeeping.
//!
//! The pass is std-only and builds on its own lightweight lexer
//! ([`lexer`]) — consistent with the hermetic-workspace rule it enforces.

pub mod facts;
pub mod floatsum;
pub mod lexer;
pub mod manifest;
pub mod resolve;
pub mod rules;
pub mod schema;
pub mod source;
pub mod taint;

use facts::{FileFacts, Finding};
use simcore::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every rule identifier the pass can emit.
pub const RULES: &[&str] = &[
    "wall-clock",
    "par-exec",
    "shard-seed",
    "taint-flow",
    "float-merge",
    "map-iter",
    "full-materialize",
    "non-workspace-dep",
    "extern-crate",
    "process-spawn",
    "panic-path",
    "oracle-pure",
    "schema-drift",
    "allow-syntax",
    "stale-allow",
];

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`RULES`]).
    pub rule: String,
    /// Root-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
    /// Analysis pass that produced the finding (`file`, `manifest`,
    /// `resolve`, `taint`, `float`, `schema`, `allow`).
    pub pass: String,
    /// Resolved symbol path the finding hangs off, when the pass has one
    /// (e.g. the seed-derivation function a tainted value reached).
    pub symbol: String,
}

/// A violation suppressed by a justified allow annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppressed {
    /// Rule identifier.
    pub rule: String,
    /// Root-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The annotation's justification.
    pub reason: String,
}

/// Result of linting a tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of `.rs` and `Cargo.toml` files scanned.
    pub files_scanned: usize,
    /// Violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Justified suppressions, same order.
    pub allowed: Vec<Suppressed>,
}

impl Report {
    /// True when the tree is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-rule violation counts (deterministically ordered).
    pub fn counts(&self) -> BTreeMap<&str, usize> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule.as_str()).or_default() += 1;
        }
        counts
    }

    /// Machine-readable report (the `results/simlint_report.json`
    /// payload). Each violation carries rule provenance: the `pass` that
    /// produced it and, when resolution was involved, the resolved
    /// `symbol` path.
    pub fn to_json(&self) -> Json {
        let viol = Json::Arr(
            self.violations
                .iter()
                .map(|v| {
                    Json::obj([
                        ("rule", v.rule.to_json()),
                        ("file", v.file.to_json()),
                        ("line", Json::U64(v.line as u64)),
                        ("message", v.message.to_json()),
                        ("pass", v.pass.to_json()),
                        ("symbol", v.symbol.to_json()),
                    ])
                })
                .collect(),
        );
        let allowed = Json::Arr(
            self.allowed
                .iter()
                .map(|a| {
                    Json::obj([
                        ("rule", a.rule.to_json()),
                        ("file", a.file.to_json()),
                        ("line", Json::U64(a.line as u64)),
                        ("reason", a.reason.to_json()),
                    ])
                })
                .collect(),
        );
        let counts = Json::Obj(
            self.counts()
                .into_iter()
                .map(|(rule, n)| (rule.to_string(), Json::U64(n as u64)))
                .collect(),
        );
        Json::obj([
            ("files_scanned", Json::U64(self.files_scanned as u64)),
            ("ok", Json::Bool(self.ok())),
            ("counts", counts),
            ("violations", viol),
            ("allowed", allowed),
        ])
    }

    /// Human diagnostics, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file, v.line, v.rule, v.message
            ));
        }
        for a in &self.allowed {
            out.push_str(&format!(
                "{}:{}: [{}] allowed — {}\n",
                a.file, a.line, a.rule, a.reason
            ));
        }
        out.push_str(&format!(
            "simlint: {} file(s), {} violation(s), {} allowed\n",
            self.files_scanned,
            self.violations.len(),
            self.allowed.len()
        ));
        out
    }
}

/// Lint configuration. [`Options::workspace`] is what the binary and the
/// verify gate use; tests construct variants to lint fixtures.
#[derive(Clone, Debug)]
pub struct Options {
    /// Crates (directory names under `crates/`) holding simulation code:
    /// strict determinism tier.
    pub sim_crates: Vec<String>,
    /// Root-relative path suffixes of fault-recovery files where
    /// `unwrap`/`expect` are banned.
    pub panic_path_files: Vec<String>,
    /// Root-relative path suffixes of the deterministic parallel
    /// executor(s): the only files where thread primitives are legal.
    /// Inside them the `par-exec` rule inverts — shared-mutable-state
    /// primitives are flagged instead, so every exception to "shards are
    /// pure" carries a justified allow annotation.
    pub par_exec_files: Vec<String>,
    /// Root-relative path suffixes of the convergence-oracle files: the
    /// read-only judges of a finished run. Any `&mut` borrow outside
    /// tests is flagged (`oracle-pure`) — the oracle must not be able to
    /// mutate the simulation state it is checking.
    pub oracle_files: Vec<String>,
    /// Crates (directory names under `crates/`) holding analysis code
    /// held to the streaming single-pass contract: re-scanning a
    /// materialised `.flows` vector is flagged (`full-materialize`).
    pub analysis_crates: Vec<String>,
    /// Root-relative path suffixes exempt from `full-materialize`: the
    /// declared materialised compatibility view.
    pub materialize_exempt_files: Vec<String>,
    /// Path suffixes exempt from the schema rule (the generic JSON
    /// substrate itself).
    pub schema_skip: Vec<String>,
    /// Grandfathered strict-read `(type, field)` pairs: the schema as it
    /// existed when the back-compat contract was introduced. New fields
    /// must use `field_or` and never enter this list.
    pub schema_baseline: Vec<(String, String)>,
}

impl Options {
    /// The workspace's own configuration.
    pub fn workspace() -> Options {
        let baseline: &[(&str, &str)] = &[
            ("Endpoint", "ip"),
            ("Endpoint", "port"),
            ("FlowKey", "client"),
            ("FlowKey", "server"),
            ("AppMarker", "sni"),
            ("AppMarker", "common_name"),
            ("AppMarker", "host"),
            ("AppMarker", "path"),
            ("AppMarker", "status"),
            ("AppMarker", "host_int"),
            ("AppMarker", "namespaces"),
            ("DirStats", "packets"),
            ("DirStats", "bytes"),
            ("DirStats", "psh_segments"),
            ("DirStats", "retransmissions"),
            ("DirStats", "first_payload"),
            ("DirStats", "last_payload"),
            ("NotifyMeta", "host_int"),
            ("NotifyMeta", "namespaces"),
            ("FlowRecord", "key"),
            ("FlowRecord", "first_syn"),
            ("FlowRecord", "last_packet"),
            ("FlowRecord", "up"),
            ("FlowRecord", "down"),
            ("FlowRecord", "min_rtt_ms"),
            ("FlowRecord", "rtt_samples"),
            ("FlowRecord", "tls_sni"),
            ("FlowRecord", "tls_certificate_cn"),
            ("FlowRecord", "http_host"),
            ("FlowRecord", "server_fqdn"),
            ("FlowRecord", "notify"),
            ("FlowRecord", "close"),
            ("Summary", "n"),
            ("Summary", "mean"),
            ("Summary", "m2"),
            ("Summary", "min"),
            ("Summary", "max"),
            ("Summary", "sum"),
            ("Ecdf", "sorted"),
        ];
        Options {
            sim_crates: [
                "simcore", "tcpmodel", "workload", "dropbox", "nettrace", "tstat", "dnssim", "core",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            panic_path_files: [
                "crates/dropbox/src/client.rs",
                "crates/dropbox/src/storage.rs",
                "crates/workload/src/driver.rs",
                "crates/simcore/src/faults.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            par_exec_files: vec!["crates/simcore/src/par.rs".to_string()],
            oracle_files: vec!["crates/workload/src/oracle.rs".to_string()],
            analysis_crates: ["core", "experiments"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            materialize_exempt_files: vec!["crates/core/src/dataset.rs".to_string()],
            schema_skip: vec!["crates/simcore/src/json.rs".to_string()],
            schema_baseline: baseline
                .iter()
                .map(|(t, f)| (t.to_string(), f.to_string()))
                .collect(),
        }
    }

    /// True when `crate_name` is held to the strict determinism tier.
    pub fn is_sim_crate(&self, crate_name: &str) -> bool {
        self.sim_crates.iter().any(|c| c == crate_name)
    }
}

/// Directories never descended into: build outputs, VCS metadata, and the
/// lint's own known-bad test fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results", "node_modules"];

/// Lint the tree rooted at `root` with the given options: read every
/// file, extract its facts, and run the global passes over them.
pub fn run(root: &Path, opts: &Options) -> io::Result<Report> {
    let mut rs = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut rs, &mut manifests)?;
    rs.sort();
    manifests.sort();

    let mut manifest_texts = Vec::with_capacity(manifests.len());
    for path in &manifests {
        manifest_texts.push((rel_of(root, path), fs::read_to_string(path)?));
    }
    let mut all_facts = Vec::with_capacity(rs.len());
    for path in &rs {
        let rel = rel_of(root, path);
        let text = fs::read_to_string(path)?;
        all_facts.push(FileFacts::compute(&rel, &text, opts));
    }
    Ok(finish(
        rs.len() + manifests.len(),
        &manifest_texts,
        &all_facts,
        opts,
    ))
}

/// The global passes plus finding routing: everything downstream of the
/// per-file facts.
fn finish(
    files_scanned: usize,
    manifest_texts: &[(String, String)],
    all_facts: &[FileFacts],
    opts: &Options,
) -> Report {
    // Manifests: hermeticity rule plus the crate-dir → import-name map
    // the resolver needs.
    let mut violations = Vec::new();
    let mut pkg: BTreeMap<String, String> = BTreeMap::new();
    for (rel, text) in manifest_texts {
        manifest::check(rel, text, &mut violations);
        if let Some(name) = manifest::package_name(text) {
            let crate_dir = match rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
            {
                Some(dir) => dir.to_string(),
                None => "workspace-root".to_string(),
            };
            pkg.insert(crate_dir, name.replace('-', "_"));
        }
    }
    let ws = resolve::Workspace::build(all_facts, &pkg);

    // Gather findings per file: local facts, the emission-tier map-iter
    // verdicts, taint, and the schema join.
    let mut findings: Vec<Vec<Finding>> = all_facts.iter().map(|f| f.local.clone()).collect();
    for (fi, file) in all_facts.iter().enumerate() {
        for site in &file.map_iter {
            if ws.emitting[fi]
                .get(site.fn_idx as usize)
                .copied()
                .unwrap_or(false)
            {
                findings[fi].push(rules::map_iter_emit_finding(site));
            }
        }
    }
    for (fi, f) in taint::check(&ws, opts) {
        findings[fi].push(f);
    }
    for (fi, f) in schema::check_facts(all_facts, opts) {
        findings[fi].push(f);
    }

    // Route findings through the allow annotations, tracking which allows
    // actually suppressed something — the rest are stale.
    let mut allowed = Vec::new();
    for (fi, file) in all_facts.iter().enumerate() {
        let mut used = vec![false; file.allows.len()];
        let allow_idx = |rule: &str, line: u32| {
            file.allows.iter().position(|a| {
                (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule)
            })
        };
        for f in &findings[fi] {
            match allow_idx(&f.rule, f.line) {
                Some(ai) => {
                    used[ai] = true;
                    allowed.push(Suppressed {
                        rule: f.rule.clone(),
                        file: file.rel.clone(),
                        line: f.line,
                        reason: file.allows[ai].reason.clone(),
                    });
                }
                None => violations.push(Violation {
                    rule: f.rule.clone(),
                    file: file.rel.clone(),
                    line: f.line,
                    message: f.message.clone(),
                    pass: f.pass.clone(),
                    symbol: f.symbol.clone(),
                }),
            }
        }
        // Stale-allow pass. Descending line order so an `allow(stale-allow)`
        // covering a later stale annotation is marked used before its own
        // staleness is judged.
        let mut order: Vec<usize> = (0..file.allows.len()).collect();
        order.sort_by_key(|&ai| std::cmp::Reverse(file.allows[ai].line));
        for ai in order {
            if used[ai] {
                continue;
            }
            let a = &file.allows[ai];
            let message = format!(
                "allow({}) suppresses no violations — the code it excused is gone; delete \
                 the annotation",
                a.rules.join(", ")
            );
            match allow_idx("stale-allow", a.line) {
                Some(aj) => {
                    used[aj] = true;
                    allowed.push(Suppressed {
                        rule: "stale-allow".to_string(),
                        file: file.rel.clone(),
                        line: a.line,
                        reason: file.allows[aj].reason.clone(),
                    });
                }
                None => violations.push(Violation {
                    rule: "stale-allow".to_string(),
                    file: file.rel.clone(),
                    line: a.line,
                    message,
                    pass: "allow".to_string(),
                    symbol: String::new(),
                }),
            }
        }
    }

    violations.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    violations.dedup();
    allowed.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    allowed.dedup();

    Report {
        files_scanned,
        violations,
        allowed,
    }
}

/// Recursive walk collecting `.rs` files and `Cargo.toml` manifests.
fn walk(
    root: &Path,
    dir: &Path,
    rs: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, rs, manifests)?;
        } else if name.ends_with(".rs") {
            rs.push(path);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        }
    }
    Ok(())
}

/// Root-relative, `/`-separated path for diagnostics and reports.
fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
