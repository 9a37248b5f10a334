//! Benchmark of the static-analysis pass itself: simlint runs on every
//! verify invocation, always cold, so its wall time over the workspace is
//! tracked like any other substrate cost. Split into the full end-to-end
//! pass (read, lex and extract facts for every file, then the global
//! passes) and the lexer alone (the pass is lexing-dominated on large
//! files).

use bench::{Harness, Throughput};
use simlint::Options;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn main() {
    let root = workspace_root();
    let opts = Options::workspace();

    // One warm run to count files/violations and fault the tree into the
    // page cache, so the benchmark measures analysis, not cold disk.
    let report = simlint::run(&root, &opts).expect("workspace readable");
    assert!(
        report.ok(),
        "benchmark expects a clean workspace:\n{}",
        report.render()
    );
    let files = report.files_scanned as u64;

    // The largest source file, lexed alone.
    let driver = root.join("crates/workload/src/driver.rs");
    let driver_src = std::fs::read_to_string(&driver).expect("driver.rs readable");

    let mut c = Harness::new("simlint");
    let mut g = c.group("simlint");
    g.throughput(Throughput::Elements(files));
    g.sample_size(10);
    g.bench_function("workspace_full_pass", |b| {
        b.iter(|| {
            simlint::run(std::hint::black_box(&root), &opts)
                .expect("workspace readable")
                .violations
                .len()
        })
    });
    g.finish();

    let mut g = c.group("simlint");
    g.throughput(Throughput::Bytes(driver_src.len() as u64));
    g.bench_function("lex_driver_rs", |b| {
        b.iter(|| {
            simlint::lexer::lex(std::hint::black_box(&driver_src))
                .toks
                .len()
        })
    });
    g.finish();

    c.finish().expect("write BENCH_simlint.json");
}
