//! `BENCHMARK.json` at the repository root describes this benchmark to
//! outside tooling. It must stay within the format's limits and list
//! exactly the workloads and metrics of the tables in `src/lib.rs`, which
//! are what `e2e` and `layers` print.

use perfbench::{Better, E2E, LAYERS, WORKLOADS};
use simcore::json::Json;

fn benchmark() -> Json {
    let path = perfbench::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match v.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn number(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::U64(n)) => *n as f64,
        Some(Json::F64(x)) => *x,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn top_level_shape_and_limits() {
    let b = benchmark();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = number(&b, "run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    assert!((2..=8).contains(&list(&b, "workloads").len()));
    assert!((1..=16).contains(&list(&b, "end_to_end").len()));
    assert!((1..=128).contains(&list(&b, "per_layer").len()));
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let b = benchmark();
    let mut seen = std::collections::BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for item in list(&b, section) {
            let name = text(item, "name");
            assert!(is_name(name), "bad name `{name}`");
            assert!(seen.insert(name.to_string()), "`{name}` used twice");
            if section != "workloads" {
                let unit = text(item, "unit");
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "bad unit `{unit}`"
                );
            }
        }
    }
}

#[test]
fn workloads_match_the_table() {
    let b = benchmark();
    let ws = list(&b, "workloads");
    assert_eq!(ws.len(), WORKLOADS.len());
    for (j, w) in ws.iter().zip(&WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn end_to_end_metrics_match_the_table() {
    let b = benchmark();
    let ms = list(&b, "end_to_end");
    assert_eq!(ms.len(), E2E.len());
    for (j, m) in ms.iter().zip(&E2E) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.as_str());
        assert_eq!(number(j, "bound"), m.bound);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    // Set-up time is required, and carries the largest bound.
    let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(E2E.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match_the_table_and_name_what_they_move() {
    let b = benchmark();
    let ms = list(&b, "per_layer");
    assert_eq!(ms.len(), LAYERS.len());
    let e2e: Vec<&str> = list(&b, "end_to_end")
        .iter()
        .map(|m| text(m, "name"))
        .collect();
    let workloads: Vec<&str> = list(&b, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    for (j, m) in ms.iter().zip(&LAYERS) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.as_str());
        assert!(
            e2e.contains(&m.moves),
            "{} moves unknown `{}`",
            m.name,
            m.moves
        );
        assert!(
            workloads.contains(&m.on),
            "{} names unknown workload `{}`",
            m.name,
            m.on
        );
    }
}

#[test]
fn command_runs_the_e2e_benchmark_from_inside_paths() {
    let b = benchmark();
    let paths: Vec<&str> = list(&b, "paths")
        .iter()
        .map(|p| match p {
            Json::Str(s) => s.as_str(),
            other => panic!("path is not a string: {other:?}"),
        })
        .collect();
    assert_eq!(paths, [".perfbench"]);
    let root = perfbench::repo_root();
    assert_eq!(
        root.join(paths[0]),
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
    );
    let command: Vec<&str> = list(&b, "command")
        .iter()
        .map(|c| match c {
            Json::Str(s) => s.as_str(),
            other => panic!("command word is not a string: {other:?}"),
        })
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert_eq!(command[0], "cargo");
    // Arguments appended to the command must reach the benchmark, not
    // cargo.
    assert_eq!(command.last(), Some(&"--"));
    let manifest = command
        .iter()
        .position(|c| *c == "--manifest-path")
        .expect("manifest path");
    assert_eq!(command[manifest + 1], ".perfbench/Cargo.toml");
    let bench = command
        .iter()
        .position(|c| *c == "--bench")
        .expect("bench target");
    assert_eq!(command[bench + 1], "e2e");
}
