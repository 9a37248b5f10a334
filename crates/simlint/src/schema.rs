//! JSONL schema-drift rule.
//!
//! PR 2 established the back-compat contract for serialized records: a
//! field added to a type's `ToJson` output must be read back with
//! `field_or(name, default)` so that logs written by older builds still
//! parse. This rule cross-checks, for every type with hand-written
//! `impl ToJson` / `impl FromJson` blocks, the set of field names written
//! against the set read, and fails when a written field is read *strictly*
//! (`field(name)`) unless the `(type, field)` pair is grandfathered in the
//! baseline compiled into [`crate::Options`].
//!
//! The rule is split like the rest of the pass: [`collect_facts`] runs
//! per file during fact extraction, [`check_facts`] joins the accesses
//! workspace-wide.

use crate::facts::{Finding, SchemaFact};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Options;
use std::collections::BTreeMap;

/// Collect every serialisation-schema access in one file.
pub fn collect_facts(file: &SourceFile, opts: &Options) -> Vec<SchemaFact> {
    if file.is_test_file
        || opts
            .schema_skip
            .iter()
            .any(|s| file.rel.ends_with(s.as_str()))
    {
        return Vec::new();
    }
    let toks = &file.toks;
    let mut out = Vec::new();
    for imp in &file.impls {
        if file.in_test(imp.body_open) {
            continue;
        }
        match imp.trait_name.as_deref() {
            Some("ToJson") => {
                // Field writes: `("name", <expr>,` tuple heads with
                // identifier-like names (error strings are filtered out).
                for k in imp.body_open..imp.body_end.min(toks.len()) {
                    if toks[k].is_sym("(")
                        && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Str)
                        && toks.get(k + 2).is_some_and(|t| t.is_sym(","))
                        && ident_like(&toks[k + 1].text)
                    {
                        out.push(SchemaFact {
                            ty: imp.owner.clone(),
                            field: toks[k + 1].text.clone(),
                            access: "write".to_string(),
                            line: toks[k + 1].line,
                        });
                    }
                }
            }
            Some("FromJson") => {
                // Field reads: `field("name")` (strict) and
                // `field_or("name", default)` (back-compatible).
                for k in imp.body_open..imp.body_end.min(toks.len()) {
                    let access = if toks[k].is_ident("field") {
                        "strict"
                    } else if toks[k].is_ident("field_or") {
                        "default"
                    } else {
                        continue;
                    };
                    if !toks.get(k + 1).is_some_and(|t| t.is_sym("(")) {
                        continue;
                    }
                    let Some(name) = toks.get(k + 2).filter(|t| t.kind == TokKind::Str) else {
                        continue;
                    };
                    out.push(SchemaFact {
                        ty: imp.owner.clone(),
                        field: name.text.clone(),
                        access: access.to_string(),
                        line: name.line,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Join the per-file accesses workspace-wide and flag strict reads of
/// written fields that are neither defaulted nor grandfathered.
pub fn check_facts(files: &[crate::facts::FileFacts], opts: &Options) -> Vec<(usize, Finding)> {
    #[derive(Default)]
    struct TypeSchema {
        writes: BTreeMap<String, (usize, u32)>,
        strict: BTreeMap<String, (usize, u32)>,
        defaulted: BTreeMap<String, (usize, u32)>,
    }
    let mut types: BTreeMap<String, TypeSchema> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for s in &file.schema {
            let entry = types.entry(s.ty.clone()).or_default();
            let target = match s.access.as_str() {
                "write" => &mut entry.writes,
                "strict" => &mut entry.strict,
                "default" => &mut entry.defaulted,
                _ => continue,
            };
            target.entry(s.field.clone()).or_insert((fi, s.line));
        }
    }
    let mut out = Vec::new();
    for (ty, schema) in &types {
        for (field, _) in schema.writes.iter() {
            if schema.defaulted.contains_key(field) {
                continue;
            }
            let Some(&(fi, line)) = schema.strict.get(field) else {
                // Written but never read back: forward-compatible, old
                // readers simply ignore it.
                continue;
            };
            let grandfathered = opts
                .schema_baseline
                .iter()
                .any(|(t, f)| t == ty && f == field);
            if grandfathered {
                continue;
            }
            out.push((
                fi,
                Finding {
                    pass: "schema".to_string(),
                    rule: "schema-drift".to_string(),
                    line,
                    message: format!(
                        "`{ty}::from_json` reads new field `{field}` strictly; \
                         use `field_or(\"{field}\", default)` so logs written before the field existed still parse"
                    ),
                    symbol: format!("{ty}::{field}"),
                },
            ));
        }
    }
    out
}

/// True when a string literal looks like a JSON field name rather than a
/// message (identifier characters only).
fn ident_like(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::FileFacts;

    fn run_schema(src: &str, baseline: &[(&str, &str)]) -> Vec<Finding> {
        let mut opts = Options::workspace();
        opts.schema_baseline = baseline
            .iter()
            .map(|(t, f)| (t.to_string(), f.to_string()))
            .collect();
        let facts = vec![FileFacts::compute("crates/x/src/lib.rs", src, &opts)];
        check_facts(&facts, &opts)
            .into_iter()
            .map(|(_, f)| f)
            .collect()
    }

    const SRC: &str = r#"
impl ToJson for Rec {
    fn to_json(&self) -> Json {
        Json::obj([("old", self.old.to_json()), ("fresh", self.fresh.to_json())])
    }
}
impl FromJson for Rec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Rec { old: v.field("old")?, fresh: v.field("fresh")? })
    }
}
"#;

    #[test]
    fn strict_read_of_new_field_is_drift() {
        let v = run_schema(SRC, &[("Rec", "old")]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "schema-drift");
        assert!(v[0].message.contains("fresh"));
        assert_eq!(v[0].symbol, "Rec::fresh");
    }

    #[test]
    fn field_or_and_baseline_are_clean() {
        let v = run_schema(SRC, &[("Rec", "old"), ("Rec", "fresh")]);
        assert!(v.is_empty());
        let ok = SRC.replace("v.field(\"fresh\")?", "v.field_or(\"fresh\", 0)?");
        assert!(run_schema(&ok, &[("Rec", "old")]).is_empty());
    }

    #[test]
    fn error_strings_are_not_fields() {
        let src = r#"
impl ToJson for E {
    fn to_json(&self) -> Json {
        let _ = format!("not a field {}", 1);
        Json::obj([("x", self.x.to_json())])
    }
}
impl FromJson for E {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(E { x: v.field_or("x", 0)? })
    }
}
"#;
        assert!(run_schema(src, &[]).is_empty());
    }
}
