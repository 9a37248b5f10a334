//! Seed-provenance taint analysis.
//!
//! The byte-identity contract (serial ≡ `--jobs N` ≡ `--hh-shards K` ≡
//! `--chaos`) holds exactly as long as nothing that reaches an RNG seed
//! or a serialised result depends on *how the run was scheduled*. This
//! pass tracks that property as dataflow instead of trusting argument
//! names at one call site:
//!
//! * **Sources.** An identifier whose name carries a scheduling fragment
//!   (`worker`, `job`, `thread`, …) is tainted, and taint propagates
//!   locally through `let` bindings and assignments to a fixpoint.
//! * **Sinks.** Seed derivation (`fork` / `fork_named` / `shard_stream` /
//!   `household_stream`, by resolved path or name) and serialisation
//!   (`to_json` / `write_jsonl` / `json::to_string` / `FlowSink::accept`).
//! * **Transitivity.** The [`crate::resolve`] parameter-flow fixpoint
//!   marks, per workspace function, which parameters flow onward into a
//!   sink — so passing a tainted value to an innocently-named wrapper in
//!   another crate is still flagged, and flagged *at the call site that
//!   introduced the taint*.
//!
//! Clean-by-construction values — household indices, capture names,
//! stream labels — never match a scheduling fragment, and the range
//! starts span folds merge by are canonical household order (stable
//! identity), so they are deliberately not fragments.
//!
//! Findings reuse the `shard-seed` rule id for seed sinks (the pass
//! subsumes the old name-based rule) and `taint-flow` for emission sinks.

use crate::facts::Finding;
use crate::lexer::TokKind;
use crate::resolve::{callee_param, Target, Workspace};
use crate::source::{FnSpan, SourceFile};
use crate::Options;
use std::collections::BTreeSet;

/// Name fragments that mark a value as scheduling state.
pub const SCHEDULING_FRAGMENTS: &[&str] = &["job", "worker", "thread", "cpu_", "core_id"];

/// Seed-derivation function names. Arguments decide a stream's identity,
/// so every argument position is seed-sensitive.
pub const SEED_FN_NAMES: &[&str] = &["fork", "fork_named", "shard_stream", "household_stream"];

/// Serialisation sink names the emission fixpoint seeds from.
pub const EMIT_SINK_NAMES: &[&str] = &["to_json", "write_jsonl"];

/// Serialisation sink names for the taint rule: emission plus the
/// `FlowSink` boundary.
pub const TAINT_SINK_NAMES: &[&str] = &["to_json", "write_jsonl", "accept"];

/// True when an identifier names scheduling state.
pub fn is_scheduling_name(name: &str) -> bool {
    if name == "self" {
        return false;
    }
    let lower = name.to_ascii_lowercase();
    SCHEDULING_FRAGMENTS.iter().any(|f| lower.contains(f))
}

/// The locally tainted identifier set of one function: fragment-named
/// identifiers plus everything assigned from a tainted expression,
/// iterated to a fixpoint.
pub fn local_tainted(file: &SourceFile, f: &FnSpan) -> BTreeSet<String> {
    let toks = &file.toks;
    let mut tainted: BTreeSet<String> = toks[f.sig_start..f.body_end]
        .iter()
        .filter(|t| t.kind == TokKind::Ident && is_scheduling_name(&t.text))
        .map(|t| t.text.clone())
        .collect();
    if tainted.is_empty() {
        return tainted;
    }
    for _ in 0..8 {
        let mut changed = false;
        let mut k = f.body_open;
        while k < f.body_end {
            let t = &toks[k];
            // `let [mut] name [: Ty] = expr;`
            if t.is_ident("let") {
                let mut j = k + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                // Only simple binders: `let Some(x) = …` / `let Foo { .. } = …`
                // start a pattern, not a name, and are skipped.
                let is_pattern = toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_sym("(") || n.is_sym("{") || n.is_sym("::"));
                if let Some(binder) = toks
                    .get(j)
                    .filter(|t| t.kind == TokKind::Ident && t.text != "_" && !is_pattern)
                {
                    let binder = binder.text.clone();
                    // The initialiser starts after the first top-level `=`.
                    let mut depth = 0i32;
                    let mut eq = None;
                    for m in j + 1..f.body_end.min(j + 96) {
                        let s = &toks[m];
                        if s.kind == TokKind::Sym {
                            match s.text.as_str() {
                                "(" | "[" | "{" | "<" => depth += 1,
                                ")" | "]" | "}" | ">" => depth -= 1,
                                ";" if depth <= 0 => break,
                                "=" if depth <= 0
                                    && !toks
                                        .get(m + 1)
                                        .is_some_and(|n| n.is_sym("=") || n.is_sym(">")) =>
                                {
                                    eq = Some(m);
                                    break;
                                }
                                _ => {}
                            }
                        }
                    }
                    if let Some(eq) = eq {
                        if expr_tainted(file, eq + 1, f.body_end, &tainted)
                            && tainted.insert(binder)
                        {
                            changed = true;
                        }
                    }
                }
                k += 1;
                continue;
            }
            // `name = expr` / `name op= expr` (outside a let).
            if t.kind == TokKind::Sym
                && t.text == "="
                && !toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_sym("=") || n.is_sym(">"))
                && k > 0
            {
                let prev = &toks[k - 1];
                let target = if prev.kind == TokKind::Ident && !(k >= 2 && toks[k - 2].is_sym(":"))
                {
                    Some(prev.text.clone())
                } else if matches!(
                    prev.text.as_str(),
                    "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|"
                ) && k >= 2
                    && toks[k - 2].kind == TokKind::Ident
                {
                    Some(toks[k - 2].text.clone())
                } else {
                    None
                };
                if let Some(target) = target {
                    if expr_tainted(file, k + 1, f.body_end, &tainted) && tainted.insert(target) {
                        changed = true;
                    }
                }
            }
            k += 1;
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// True when the expression starting at `from` (up to the next top-level
/// `;`, bounded) mentions a tainted identifier.
fn expr_tainted(file: &SourceFile, from: usize, limit: usize, tainted: &BTreeSet<String>) -> bool {
    let toks = &file.toks;
    let mut depth = 0i32;
    for m in from..limit.min(from + 160) {
        let t = &toks[m];
        if t.kind == TokKind::Sym {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                // `;` ends a statement; a depth-0 `,` ends a match arm —
                // scanning past either would leak taint from the next
                // statement/arm into this binding.
                ";" | "," if depth == 0 => return false,
                _ => {}
            }
        } else if t.kind == TokKind::Ident && tainted.contains(&t.text) {
            return true;
        }
    }
    false
}

/// Run the global taint rule over the resolved workspace: per (file, fn)
/// findings for tainted values reaching seed derivation (`shard-seed`)
/// or serialisation (`taint-flow`).
pub fn check(ws: &Workspace<'_>, opts: &Options) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let in_scope = opts.sim_crates.iter().any(|c| *c == file.crate_dir)
            || opts.analysis_crates.iter().any(|c| *c == file.crate_dir);
        if !in_scope || file.is_test_file {
            continue;
        }
        for (fj, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for (ci, c) in f.calls.iter().enumerate() {
                let last = c.path.last().map(String::as_str).unwrap_or("");
                let name_seed = SEED_FN_NAMES.contains(&last);
                let name_emit = TAINT_SINK_NAMES.contains(&last)
                    || c.path
                        .ends_with(&["json".to_string(), "to_string".to_string()]);
                let resolved = match ws.target(fi, fj, ci) {
                    Target::Fn(di, dj) => Some((di, dj)),
                    _ => None,
                };
                let symbol = match resolved {
                    Some((di, dj)) => ws.symbol_path(di, dj),
                    None => c.path.join("::"),
                };
                for (a, arg) in c.args.iter().enumerate() {
                    if arg.tainted.is_empty() {
                        continue;
                    }
                    let mut to_seed = name_seed;
                    let mut to_emit = name_emit;
                    if let Some((di, dj)) = resolved {
                        if let Some(p2) = callee_param(&ws.files[di].fns[dj].params, c, a) {
                            to_seed |= ws.seed_param[di][dj].get(p2).copied().unwrap_or(false);
                            to_emit |= ws.emit_param[di][dj].get(p2).copied().unwrap_or(false);
                        }
                    }
                    for id in &arg.tainted {
                        if to_seed {
                            out.push((
                                fi,
                                Finding {
                                    pass: "taint".to_string(),
                                    rule: "shard-seed".to_string(),
                                    line: c.line,
                                    message: format!(
                                        "`{id}` flows into seed derivation `{symbol}`: shard \
                                         seeds must be derived from stable shard identity \
                                         (capture, household), never worker ids, job counts, \
                                         or other scheduling state"
                                    ),
                                    symbol: symbol.clone(),
                                },
                            ));
                        }
                        if to_emit {
                            out.push((
                                fi,
                                Finding {
                                    pass: "taint".to_string(),
                                    rule: "taint-flow".to_string(),
                                    line: c.line,
                                    message: format!(
                                        "scheduling-derived `{id}` reaches serialised output \
                                         via `{symbol}`: emitted results must be independent \
                                         of worker ids, job counts, and merge scheduling"
                                    ),
                                    symbol: symbol.clone(),
                                },
                            ));
                        }
                    }
                }
                if name_emit && !c.recv_tainted.is_empty() {
                    for id in &c.recv_tainted {
                        out.push((
                            fi,
                            Finding {
                                pass: "taint".to_string(),
                                rule: "taint-flow".to_string(),
                                line: c.line,
                                message: format!(
                                    "scheduling-derived `{id}` reaches serialised output via \
                                     `{symbol}`: emitted results must be independent of worker \
                                     ids, job counts, and merge scheduling"
                                ),
                                symbol: symbol.clone(),
                            },
                        ));
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::FileFacts;
    use std::collections::BTreeMap;

    fn check_src(files: &[(&str, &str)]) -> Vec<Finding> {
        let opts = Options::workspace();
        let facts: Vec<FileFacts> = files
            .iter()
            .map(|(rel, src)| FileFacts::compute(rel, src, &opts))
            .collect();
        let ws = Workspace::build(&facts, &BTreeMap::new());
        check(&ws, &opts).into_iter().map(|(_, f)| f).collect()
    }

    #[test]
    fn scheduling_fragments_taint_and_propagate() {
        let src = "pub fn bad(rng: &Rng, worker_idx: u64) -> Rng {\n\
                       let salt = worker_idx ^ 7;\n\
                       rng.fork(salt)\n\
                   }\n\
                   pub fn good(rng: &Rng, household: u64) -> Rng {\n\
                       rng.fork(household)\n\
                   }\n";
        let found = check_src(&[("crates/workload/src/driver.rs", src)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "shard-seed");
        assert!(found[0].message.contains("`salt`"));
        assert!(found[0].message.contains("stable shard identity"));
    }

    #[test]
    fn aliased_seed_call_is_caught() {
        let files = [
            (
                "crates/simcore/src/par.rs",
                "pub fn household_stream(master: u64, capture: u64, hh: u64) -> Rng {\n\
                     make(master, capture, hh)\n\
                 }\n",
            ),
            (
                "crates/workload/src/driver.rs",
                "use simcore::par::household_stream as hh_stream;\n\
                 pub fn bad(seed: u64, job_id: u64) -> Rng {\n\
                     hh_stream(seed, 1, job_id)\n\
                 }\n",
            ),
        ];
        let found = check_src(&files);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "shard-seed");
        assert!(found[0].message.contains("`job_id`"));
        assert_eq!(found[0].symbol, "simcore::par::household_stream");
    }

    #[test]
    fn cross_crate_wrapper_flow_is_caught() {
        let files = [
            (
                "crates/simcore/src/par.rs",
                "pub fn shard_stream(master: u64, shard: u64) -> Rng { make(master, shard) }\n\
                 pub fn spawn_shard(seed: u64, salt: u64) -> Rng { shard_stream(seed, salt) }\n",
            ),
            (
                "crates/workload/src/driver.rs",
                "use simcore::par::spawn_shard;\n\
                 pub fn bad(seed: u64, n_jobs: u64) -> Rng { spawn_shard(seed, n_jobs) }\n",
            ),
        ];
        let found = check_src(&files);
        assert!(
            found
                .iter()
                .any(|f| f.rule == "shard-seed" && f.message.contains("`n_jobs`")),
            "tainted arg to an innocently-named cross-crate wrapper: {found:?}"
        );
    }

    #[test]
    fn tainted_emission_is_caught() {
        let src = "pub fn bad(worker_idx: u64) -> String {\n\
                       let row = Row { id: worker_idx };\n\
                       json::to_string(&row.to_json())\n\
                   }\n";
        let found = check_src(&[("crates/core/src/report.rs", src)]);
        assert!(
            found
                .iter()
                .any(|f| f.rule == "taint-flow" && f.message.contains("`row`")),
            "tainted struct reaching serialisation: {found:?}"
        );
    }

    #[test]
    fn tests_and_out_of_scope_crates_are_skipped() {
        let src = "pub fn bad(rng: &Rng, worker_idx: u64) -> Rng { rng.fork(worker_idx) }\n";
        assert!(check_src(&[("crates/workload/tests/t.rs", src)]).is_empty());
        assert!(check_src(&[("crates/bench/src/lib.rs", src)]).is_empty());
    }
}
