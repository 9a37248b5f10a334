//! Per-file analysis facts: everything the global passes need from one
//! source file.
//!
//! The lint used to hand whole token streams to every rule. Splitting the
//! work into a per-file *fact extraction* step and cheap cross-file
//! *global passes* (emission reachability, seed-provenance taint, schema
//! drift, stale-allow detection) lets the global passes see resolved,
//! structured data instead of tokens, and keeps each source file lexed
//! exactly once per run: [`FileFacts::compute`] is a pure function of
//! `(file bytes, configuration)`.

use crate::lexer::TokKind;
use crate::source::{FnSpan, SourceFile};
use crate::{floatsum, rules, schema, taint, Options};
use std::collections::BTreeSet;

/// One pre-routing diagnostic: a rule hit that has not yet been matched
/// against allow annotations.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Analysis pass that produced the finding (`file`, `resolve`,
    /// `taint`, `float`, `schema`, `manifest`, `allow`).
    pub pass: String,
    /// Rule identifier (one of [`crate::RULES`]).
    pub rule: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
    /// Resolved symbol path the finding hangs off (empty when the pass
    /// has no symbol context).
    pub symbol: String,
}

impl Finding {
    /// A finding from a purely token-level (per-file) rule.
    pub fn local(rule: &str, line: u32, message: String) -> Finding {
        Finding {
            pass: "file".to_string(),
            rule: rule.to_string(),
            line,
            message,
            symbol: String::new(),
        }
    }
}

/// One argument of a recorded call: which caller parameters appear in it
/// and which locally-tainted identifiers appear in it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArgFact {
    /// Indices into the caller's parameter list.
    pub params: Vec<u64>,
    /// Locally tainted identifier names appearing in the argument.
    pub tainted: Vec<String>,
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallFact {
    /// Path segments as written (`["simcore", "par", "shard_stream"]`;
    /// just the method name for method calls).
    pub path: Vec<String>,
    /// True for `.name(...)` method syntax.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Per-argument facts, in order.
    pub args: Vec<ArgFact>,
    /// Caller parameter indices appearing in the receiver chain (methods).
    pub recv_params: Vec<u64>,
    /// Tainted identifiers appearing in the receiver chain (methods).
    pub recv_tainted: Vec<String>,
}

/// Facts about one `fn` item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing impl block (empty for free functions).
    pub owner: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names (`self` recorded literally).
    pub params: Vec<String>,
    /// True when the body directly serialises (`to_json` /
    /// `write_jsonl` / `json::to_string`).
    pub direct_emit: bool,
    /// True when the function lives in test-only code.
    pub is_test: bool,
    /// Call sites in the body.
    pub calls: Vec<CallFact>,
}

/// A map-iteration site whose verdict depends on the global emission
/// fixpoint (non-strict tier): flagged only if the enclosing function
/// reaches serialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapIterSite {
    /// Index into [`FileFacts::fns`] of the enclosing function.
    pub fn_idx: u64,
    /// 1-based line of the iteration.
    pub line: u32,
    /// Name of the iterated binding.
    pub name: String,
    /// `HashMap` or `HashSet`.
    pub kind: String,
    /// How it is iterated (`` `.keys()` ``, `` `for` loop ``, …).
    pub how: String,
}

/// One serialisation-schema access: a field written by `ToJson` or read
/// by `FromJson`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaFact {
    /// Type the impl block serialises.
    pub ty: String,
    /// Field name.
    pub field: String,
    /// `write`, `strict` (read via `field`), or `default` (`field_or`).
    pub access: String,
    /// 1-based line.
    pub line: u32,
}

/// A parsed allow annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowFact {
    /// 1-based line of the annotation.
    pub line: u32,
    /// Rules it suppresses.
    pub rules: Vec<String>,
    /// Mandatory justification.
    pub reason: String,
}

/// One `use` declaration leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseFact {
    /// Full path segments.
    pub path: Vec<String>,
    /// Bound local name (`*` for globs).
    pub alias: String,
}

/// Everything the global passes need from one file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Root-relative `/`-separated path.
    pub rel: String,
    /// Crate directory name (`workspace-root` outside `crates/`).
    pub crate_dir: String,
    /// Module path of the file inside its crate (empty for the root).
    pub module: Vec<String>,
    /// True when the whole file is test/tooling code.
    pub is_test_file: bool,
    /// Findings decided purely locally (token-level rules, float rule,
    /// malformed allows).
    pub local: Vec<Finding>,
    /// Allow annotations.
    pub allows: Vec<AllowFact>,
    /// Function facts, aligned with the file's `fn` items.
    pub fns: Vec<FnFact>,
    /// Map-iteration sites awaiting the emission verdict.
    pub map_iter: Vec<MapIterSite>,
    /// Schema accesses for the cross-file drift rule.
    pub schema: Vec<SchemaFact>,
    /// `use` declarations for call resolution.
    pub uses: Vec<UseFact>,
}

impl Default for FnFact {
    fn default() -> FnFact {
        FnFact {
            name: String::new(),
            owner: String::new(),
            line: 0,
            params: Vec::new(),
            direct_emit: false,
            is_test: false,
            calls: Vec::new(),
        }
    }
}

/// Module path of a file inside its crate, from the root-relative path:
/// `crates/x/src/a/b.rs` → `["a", "b"]`, `…/src/lib.rs` and
/// `…/src/main.rs` → `[]`, `…/src/a/mod.rs` → `["a"]`.
pub fn module_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let src = match parts.iter().position(|p| *p == "src") {
        Some(i) => i,
        None => return Vec::new(),
    };
    let mut module: Vec<String> = parts[src + 1..]
        .iter()
        .map(|p| p.trim_end_matches(".rs").to_string())
        .collect();
    match module.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            module.pop();
        }
        _ => {}
    }
    module
}

impl FileFacts {
    /// Extract all facts from one file. Pure function of
    /// `(rel, src, opts)`.
    pub fn compute(rel: &str, src: &str, opts: &Options) -> FileFacts {
        let file = SourceFile::analyse(rel, src);
        let mut local = Vec::new();
        for bad in &file.bad_allows {
            local.push(Finding {
                pass: "allow".to_string(),
                rule: "allow-syntax".to_string(),
                line: bad.line,
                message: format!("malformed simlint annotation: {}", bad.what),
                symbol: String::new(),
            });
        }
        rules::wall_clock(&file, opts, &mut local);
        rules::par_exec(&file, opts, &mut local);
        rules::hermetic_source(&file, &mut local);
        rules::panic_path(&file, opts, &mut local);
        rules::oracle_pure(&file, opts, &mut local);
        rules::full_materialize(&file, opts, &mut local);
        floatsum::check(&file, opts, &mut local);
        let mut map_iter = Vec::new();
        rules::map_iter(&file, opts, &mut local, &mut map_iter);

        let fns = file
            .fns
            .iter()
            .map(|f| fn_fact(&file, f))
            .collect::<Vec<_>>();

        FileFacts {
            rel: file.rel.clone(),
            crate_dir: file.crate_name.clone(),
            module: module_of(rel),
            is_test_file: file.is_test_file,
            local,
            allows: file
                .allows
                .iter()
                .map(|a| AllowFact {
                    line: a.line,
                    rules: a.rules.clone(),
                    reason: a.reason.clone(),
                })
                .collect(),
            fns,
            map_iter,
            schema: schema::collect_facts(&file, opts),
            uses: file
                .uses
                .iter()
                .map(|u| UseFact {
                    path: u.path.clone(),
                    alias: u.alias.clone(),
                })
                .collect(),
        }
    }
}

/// Keywords that can directly precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "let", "else", "move", "as",
    "impl", "where", "pub", "Some", "Ok", "Err", "None",
];

/// Extract one function's facts: direct-emission flag and call sites with
/// parameter/taint argument structure.
fn fn_fact(file: &SourceFile, f: &FnSpan) -> FnFact {
    let toks = &file.toks;
    let tainted = taint::local_tainted(file, f);
    let mut calls = Vec::new();
    let mut direct_emit = false;

    let mut k = f.body_open;
    while k < f.body_end {
        let t = &toks[k];
        // `json::to_string(..)` is direct serialisation.
        if t.is_ident("json")
            && toks.get(k + 1).is_some_and(|n| n.is_sym("::"))
            && toks.get(k + 2).is_some_and(|n| n.is_ident("to_string"))
        {
            direct_emit = true;
        }
        // Method call: `.name(`.
        if t.is_sym(".")
            && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(k + 2).is_some_and(|n| n.is_sym("("))
        {
            let name = toks[k + 1].text.clone();
            if taint::EMIT_SINK_NAMES.contains(&name.as_str()) {
                direct_emit = true;
            }
            let (recv_params, recv_tainted) = receiver_idents(toks, k, &f.params, &tainted);
            let args = collect_args(toks, k + 2, f.body_end, &f.params, &tainted);
            calls.push(CallFact {
                path: vec![name],
                method: true,
                line: toks[k + 1].line,
                args,
                recv_params,
                recv_tainted,
            });
            k += 3;
            continue;
        }
        // Free/path call: `path::to::name(` — the identifier directly
        // before `(`, not preceded by `.`, with any `ident::` prefix.
        if t.kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|n| n.is_sym("("))
            && !(k > 0 && toks[k - 1].is_sym("."))
            && !KEYWORDS.contains(&t.text.as_str())
        {
            let mut start = k;
            while start >= 2
                && toks[start - 1].is_sym("::")
                && toks[start - 2].kind == TokKind::Ident
            {
                start -= 2;
            }
            let path: Vec<String> = toks[start..=k]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .collect();
            if path
                .last()
                .is_some_and(|n| taint::EMIT_SINK_NAMES.contains(&n.as_str()))
            {
                direct_emit = true;
            }
            let args = collect_args(toks, k + 1, f.body_end, &f.params, &tainted);
            calls.push(CallFact {
                path,
                method: false,
                line: toks[k].line,
                args,
                recv_params: Vec::new(),
                recv_tainted: Vec::new(),
            });
            k += 2;
            continue;
        }
        k += 1;
    }

    FnFact {
        name: f.name.clone(),
        owner: f.owner.clone().unwrap_or_default(),
        line: f.line,
        params: f.params.clone(),
        direct_emit,
        is_test: file.in_test(f.sig_start),
        calls,
    }
}

/// Caller params / tainted idents in the receiver chain of a method call
/// whose `.` sits at `dot`: walk back over `ident (. ident)*`.
fn receiver_idents(
    toks: &[crate::lexer::Tok],
    dot: usize,
    params: &[String],
    tainted: &BTreeSet<String>,
) -> (Vec<u64>, Vec<String>) {
    let mut idents = Vec::new();
    let mut j = dot;
    while j >= 1 {
        if toks[j - 1].kind == TokKind::Ident {
            idents.push(toks[j - 1].text.clone());
            if j >= 2 && toks[j - 2].is_sym(".") {
                j -= 2;
                continue;
            }
        }
        break;
    }
    let mut recv_params: Vec<u64> = idents
        .iter()
        .filter_map(|n| params.iter().position(|p| p == n).map(|i| i as u64))
        .collect();
    recv_params.sort_unstable();
    recv_params.dedup();
    let mut recv_tainted: Vec<String> =
        idents.into_iter().filter(|n| tainted.contains(n)).collect();
    recv_tainted.sort();
    recv_tainted.dedup();
    (recv_params, recv_tainted)
}

/// Per-argument facts of the call whose `(` sits at `open`: split on
/// top-level commas, record caller params and tainted idents per slot.
fn collect_args(
    toks: &[crate::lexer::Tok],
    open: usize,
    limit: usize,
    params: &[String],
    tainted: &BTreeSet<String>,
) -> Vec<ArgFact> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut cur = ArgFact::default();
    let mut any = false;
    let mut j = open;
    while j < toks.len() && j < limit {
        let t = &toks[j];
        if t.kind == TokKind::Sym {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => {
                    args.push(std::mem::take(&mut cur));
                    j += 1;
                    continue;
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident && depth >= 1 {
            any = true;
            if let Some(i) = params.iter().position(|p| p == &t.text) {
                let i = i as u64;
                if !cur.params.contains(&i) {
                    cur.params.push(i);
                }
            }
            if tainted.contains(&t.text) && !cur.tainted.contains(&t.text) {
                cur.tainted.push(t.text.clone());
            }
        } else if depth >= 1 {
            any = true;
        }
        j += 1;
    }
    if any || !args.is_empty() {
        args.push(cur);
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        assert_eq!(module_of("crates/simcore/src/par.rs"), ["par"]);
        assert!(module_of("crates/workload/src/lib.rs").is_empty());
        assert!(module_of("src/main.rs").is_empty());
        assert_eq!(module_of("crates/x/src/a/b.rs"), ["a", "b"]);
        assert_eq!(module_of("crates/x/src/a/mod.rs"), ["a"]);
    }

    #[test]
    fn let_bound_taint_reaches_aliased_call_argument() {
        let src = "use simcore::par::shard_stream as derive;\n\
                   pub fn f(rng: &Rng, worker_idx: u64) -> Rng {\n\
                       let salt = worker_idx ^ 7;\n\
                       derive(1, salt)\n\
                   }\n";
        let facts = FileFacts::compute("crates/workload/src/driver.rs", src, &Options::workspace());
        assert_eq!(facts.fns.len(), 1);
        // `salt` is tainted through the let-binding and appears in the
        // second argument of the aliased call.
        let call = facts.fns[0]
            .calls
            .iter()
            .find(|c| c.path == ["derive"])
            .unwrap();
        assert_eq!(call.args.len(), 2);
        assert_eq!(call.args[1].tainted, ["salt"]);
    }

    #[test]
    fn call_collection_paths_and_methods() {
        let src = "fn f(x: u64, hh: u64) {\n\
                       let r = simcore::par::household_stream(1, x, hh);\n\
                       r.fork(hh);\n\
                       json::to_string(&r);\n\
                   }\n";
        let facts = FileFacts::compute("crates/workload/src/driver.rs", src, &Options::workspace());
        let f = &facts.fns[0];
        assert!(f.direct_emit, "json::to_string marks direct emission");
        let paths: Vec<String> = f.calls.iter().map(|c| c.path.join("::")).collect();
        assert!(paths.contains(&"simcore::par::household_stream".to_string()));
        assert!(f.calls.iter().any(|c| c.method && c.path == ["fork"]));
        let hs = f
            .calls
            .iter()
            .find(|c| c.path.last().is_some_and(|s| s == "household_stream"))
            .unwrap();
        assert_eq!(hs.args.len(), 3);
        assert_eq!(hs.args[1].params, [0]);
        assert_eq!(hs.args[2].params, [1]);
    }
}
