#!/usr/bin/env bash
# Tier-1 verification, run fully offline: the workspace must build and
# test from a clean checkout with an empty registry cache (all
# dependencies are in-tree path dependencies; see tests/hermetic.rs).
set -euo pipefail

cd "$(dirname "$0")/.."

# Warnings are errors throughout tier-1 (exported once so every cargo
# invocation below shares one build fingerprint and artifact cache).
export RUSTFLAGS="-D warnings"

cargo fmt --check

# Committed CSV artifacts must stay small — the full Fig. 9 scatter grows
# linearly with the capture and is committed decimated + digested (see
# figures::fig9). Fails on any tracked or staged results/*.csv above the
# cap.
max_csv_bytes=262144
while IFS= read -r f; do
    [ -f "$f" ] || continue
    size=$(wc -c < "$f")
    if [ "$size" -gt "$max_csv_bytes" ]; then
        echo "error: $f is $size bytes (cap $max_csv_bytes): decimate or digest bulk CSV dumps" >&2
        exit 1
    fi
done < <({ git ls-files 'results/*.csv'; \
           git diff --cached --name-only --diff-filter=AM -- 'results/*.csv'; } | sort -u)

# Determinism & hermeticity lint: hard gate, exits non-zero on any
# violation and writes results/simlint_report.json. Runs twice: the
# second run must be served entirely from the warm incremental cache
# (target/simlint-cache.json) and still reproduce the committed report
# byte-for-byte — catching both lint regressions and cache unsoundness.
cargo run --release --offline -p simlint
cargo run --release --offline -p simlint
git diff --exit-code -- results/simlint_report.json
# Suppressions must not outlive the code they excuse: any stale-allow in
# the report — violation or pinned — fails the gate outright.
if grep -q '"rule":"stale-allow"' results/simlint_report.json; then
    echo "error: stale allow annotation(s) recorded in results/simlint_report.json" >&2
    exit 1
fi

cargo build --release --offline
cargo test -q --offline

# The repository benchmark (.perfbench) is a workspace of its own whose
# traced run calls the workspace crates' public API: compile and test it
# here, so an API change that breaks it fails this gate instead of the
# benchmark run.
cargo test --offline --manifest-path .perfbench/Cargo.toml
cargo check --offline --manifest-path .perfbench/Cargo.toml --benches

# Rustdoc is part of tier-1: crate docs must build warning-clean.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Fault-injected smoke run: the whole reproduction pipeline must survive a
# lossy plan (resets, retries, outages) end to end — and a parallel run of
# the same pipeline (8 workers over the household sub-shards, plus an
# unsharded run) must be byte-identical to the serial one.
smoke_dir="$(mktemp -d)"
par_dir="$(mktemp -d)"
coarse_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$par_dir" "$coarse_dir"' EXIT
cargo run --release --offline -p experiments --bin repro -- \
    table2 --scale 0.01 --faults 7 --jobs 1 --out "$smoke_dir"
test -s "$smoke_dir/table2.txt"
cargo run --release --offline -p experiments --bin repro -- \
    table2 --scale 0.01 --faults 7 --jobs 8 --out "$par_dir"
diff -r "$smoke_dir" "$par_dir"
cargo run --release --offline -p experiments --bin repro -- \
    table2 --scale 0.01 --faults 7 --jobs 8 --hh-shards 1 --out "$coarse_dir"
diff -r "$smoke_dir" "$coarse_dir"

# Every report of a whole run, serial and unsharded against parallel and
# cut into household ranges: each range folds into its own accumulators
# and the folds merge in household order, so every merged accumulator is
# diffed across cuts.
all_serial_dir="$(mktemp -d)"
all_cut_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$par_dir" "$coarse_dir" "$all_serial_dir" "$all_cut_dir"' EXIT
cargo run --release --offline -p experiments --bin repro -- \
    all --scale 0.01 --jobs 1 --hh-shards 1 --out "$all_serial_dir" > /dev/null
test -s "$all_serial_dir/validation.txt"
cargo run --release --offline -p experiments --bin repro -- \
    all --scale 0.01 --jobs 4 --hh-shards 3 --out "$all_cut_dir" > /dev/null
diff -r "$all_serial_dir" "$all_cut_dir"

# The committed bytes: the headline run must rebuild every file it writes
# byte for byte as committed in results/, and the protocol-trace example
# must rebuild the committed pcap.
all_committed_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$par_dir" "$coarse_dir" "$all_serial_dir" "$all_cut_dir" "$all_committed_dir"' EXIT
cargo run --release --offline -p experiments --bin repro -- \
    all --scale 0.1 --seed 2012 --out "$all_committed_dir" > /dev/null
for f in "$all_committed_dir"/*; do
    cmp "$f" "results/$(basename "$f")"
done
cargo run --release --offline --example protocol_trace > /dev/null
git diff --exit-code -- protocol_trace.pcap

# Provider-matrix smoke: every spec through the same Home 1 workload on
# an LTE access profile, twice — the artifacts (throughput CDFs, volume
# table, bundling-vs-RTT sweep) must be deterministic run over run.
matrix_dir="$(mktemp -d)"
matrix_dir2="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$par_dir" "$coarse_dir" "$all_serial_dir" "$all_cut_dir" "$all_committed_dir" "$matrix_dir" "$matrix_dir2"' EXIT
cargo run --release --offline -p experiments --bin repro -- \
    --provider-matrix --access lte --scale 0.02 --jobs 4 --out "$matrix_dir"
test -s "$matrix_dir/provider_matrix.txt"
test -s "$matrix_dir/provider_matrix_cdf.csv"
test -s "$matrix_dir/provider_bundling_rtt.csv"
grep -q "forced to \`lte\`" "$matrix_dir/provider_matrix.txt"
cargo run --release --offline -p experiments --bin repro -- \
    --provider-matrix --access lte --scale 0.02 --jobs 1 --out "$matrix_dir2"
diff -r "$matrix_dir" "$matrix_dir2"

# Chaos-soak smoke: 32 seeded control-plane fault scenarios, each checked
# against the sync-convergence oracle; `repro --chaos` exits non-zero on
# any violation.
chaos_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$par_dir" "$coarse_dir" "$all_serial_dir" "$all_cut_dir" "$all_committed_dir" "$matrix_dir" "$matrix_dir2" "$chaos_dir"' EXIT
cargo run --release --offline -p experiments --bin repro -- \
    --chaos 32 --out "$chaos_dir"
test -s "$chaos_dir/chaos_soak.txt"
grep -q "convergence oracle: PASS" "$chaos_dir/chaos_soak.txt"

# Fault-substrate benchmark (writes crates/bench/BENCH_faults.json).
cargo bench --offline -p bench --bench faults
test -s crates/bench/BENCH_faults.json

# Lint-pass benchmark (writes crates/bench/BENCH_simlint.json).
cargo bench --offline -p bench --bench simlint
test -s crates/bench/BENCH_simlint.json

# Serial-vs-parallel capture benchmark (writes
# crates/bench/BENCH_parallel.json; schedule_speedup is the
# hardware-independent figure — see the file's "note").
cargo bench --offline -p bench --bench parallel
test -s crates/bench/BENCH_parallel.json

# Streaming-summary benchmark (writes crates/bench/BENCH_stream.json):
# the single shared pass must digest the full-scale (1.0) capture.
cargo bench --offline -p bench --bench stream
test -s crates/bench/BENCH_stream.json

# Chaos-soak benchmark (writes crates/bench/BENCH_chaos.json:
# scenarios/sec through the audited driver + oracle).
cargo bench --offline -p bench --bench chaos
test -s crates/bench/BENCH_chaos.json

# Provider-spec engine benchmark (writes crates/bench/BENCH_providers.json:
# per-spec upload-transaction throughput + one matrix sweep cell).
cargo bench --offline -p bench --bench providers
test -s crates/bench/BENCH_providers.json
