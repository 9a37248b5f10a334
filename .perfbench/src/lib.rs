//! Shared library of the repository benchmark.
//!
//! Two programs use it:
//!
//! * `benches/e2e.rs` runs the real `repro` binary as a child process, one
//!   closed-loop run at a time, and measures each run from outside
//!   (wall clock, `wait4` rusage, time to the first progress line);
//! * `benches/layers.rs` repeats one workload in a single process with
//!   spans around the calls into each layer, and reports per-layer time,
//!   memory and work counts.
//!
//! The workload and metric tables below are the single source of the names
//! both programs print; `tests/benchmark_json.rs` checks that
//! `BENCHMARK.json` at the repository root lists the same ones.
//!
//! This crate is std-only on purpose: the end-to-end benchmark must keep
//! building while the workspace crates' APIs are refactored.

pub mod checks;
pub mod compare;
pub mod json;
pub mod stats;
pub mod trace;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Benchmark seed when none is given.
pub const DEFAULT_SEED: u64 = 2012;

/// One `repro` invocation the benchmark repeats.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// `repro` arguments; `{shards}` stands for a household sub-shard
    /// count drawn from the benchmark seed.
    pub args: &'static [&'static str],
    /// Prefix of the first progress line `repro` prints on stderr: the
    /// end of set-up.
    pub progress: &'static str,
}

/// `--jobs 2` in every workload is fixed rather than `nproc`, so a
/// workload does the same work on every host.
///
/// The simulation seed is fixed at 2012, the seed `results/` was made
/// with: at these scales the population drawn from another seed changes
/// the work by up to a third, more than any bound. The benchmark seed
/// picks `paper`'s household sub-shard count instead, which changes the
/// schedule and, by `repro`'s determinism contract, no output byte.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper",
        why: "the headline `repro all` at its default scale: capture-bound (tcpmodel, tstat), a serial analysis tail, the whole capture held in memory",
        args: &[
            "all",
            "--scale",
            "0.1",
            "--seed",
            "2012",
            "--hh-shards",
            "{shards}",
            "--jobs",
            "2",
        ],
        progress: "simulating",
    },
    Workload {
        name: "chaos",
        why: "384 audited fault scenarios on short flows: session machine, offline queue, failover and oracle; never builds a CaptureSummary",
        args: &["--chaos", "384", "--jobs", "2"],
        progress: "chaos soak:",
    },
    Workload {
        name: "matrix",
        why: "three provider specs over LTE: loss, jitter and rate caps drive retransmissions; 1 MB-chunk bulk flows versus per-change connections",
        args: &[
            "--provider-matrix",
            "--access",
            "lte",
            "--scale",
            "0.5",
            "--seed",
            "2012",
            "--jobs",
            "2",
        ],
        progress: "provider matrix:",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `repro` arguments for benchmark seed `seed`. The sub-shard
    /// count stays within 8–16, where two workers are evenly loaded.
    pub fn repro_args(&self, seed: u64) -> Vec<String> {
        let shards = (8 + seed % 9).to_string();
        self.args
            .iter()
            .map(|a| a.replace("{shards}", &shards))
            .collect()
    }
}

/// A metric a user of `repro` sees, with the share of the parent's median
/// by which it may worsen before a change counts as a regression.
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// On a shared 2-core host, runs with identical inputs spread by ~8%
/// (interquartile, over ten runs), and slow stretches last longer than a
/// run; a bound has to be three times the spread.
pub const E2E: [E2eMetric; 4] = [
    E2eMetric {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eMetric {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Peak RSS moves with the schedule: which shards are in flight at once.
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    // Set-up is 1 to 300 ms, where process start-up jitter is a large
    // share; it gets the largest bound.
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced run, with the end-to-end metric
/// and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric is measured on every workload; what each one
/// covers per workload is listed in `README.md`.
pub const LAYERS: [LayerMetric; 22] = [
    layer("workload.capture_s", "s", Lower, "cpu_s", "paper"),
    layer(
        "workload.capture_rss_mb",
        "MB",
        Lower,
        "peak_rss_mb",
        "paper",
    ),
    layer("core.summary_s", "s", Lower, "wall_s", "paper"),
    layer("core.state_mb", "MB", Lower, "peak_rss_mb", "paper"),
    layer("core.summary_rss_mb", "MB", Lower, "peak_rss_mb", "paper"),
    layer("experiments.self_s", "s", Lower, "wall_s", "paper"),
    layer("nettrace.records", "count", Higher, "cpu_s", "paper"),
    layer("nettrace.packets", "count", Lower, "cpu_s", "paper"),
    layer(
        "nettrace.pkts_per_flow",
        "pkt/flow",
        Lower,
        "cpu_s",
        "chaos",
    ),
    layer(
        "nettrace.short_flow_share",
        "share",
        Lower,
        "cpu_s",
        "chaos",
    ),
    layer("nettrace.rtx_share", "share", Lower, "cpu_s", "matrix"),
    layer("nettrace.aborted_share", "share", Lower, "cpu_s", "chaos"),
    layer("tcpmodel.bulk_ns_per_pkt", "ns", Lower, "cpu_s", "paper"),
    layer("tstat.bulk_ns_per_pkt", "ns", Lower, "cpu_s", "paper"),
    layer("tcpmodel.short_ns_per_flow", "ns", Lower, "cpu_s", "chaos"),
    layer("tstat.short_ns_per_flow", "ns", Lower, "cpu_s", "chaos"),
    layer("tcpmodel.lte_ns_per_pkt", "ns", Lower, "cpu_s", "matrix"),
    layer(
        "dropbox.upload_txn_us.dropbox",
        "us",
        Lower,
        "cpu_s",
        "matrix",
    ),
    layer(
        "dropbox.upload_txn_us.skydrive_like",
        "us",
        Lower,
        "cpu_s",
        "matrix",
    ),
    layer(
        "dropbox.upload_txn_us.gdrive_like",
        "us",
        Lower,
        "cpu_s",
        "matrix",
    ),
    layer("trace.total_s", "s", Lower, "cpu_s", "paper"),
    layer("trace.overhead_share", "share", Lower, "cpu_s", "paper"),
];

/// Unit of a metric from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| LAYERS.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The last line of a benchmark run: the result object the contract asks
/// for, with every metric in `names` (in table order).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&str],
    value: impl Fn(&str) -> f64,
) -> String {
    use json::Json;
    let metrics = names
        .iter()
        .map(|&n| {
            let entry = Json::obj([
                ("value", Json::Num(value(n))),
                ("unit", Json::Str(unit_of(n).unwrap_or("").to_string())),
            ]);
            (n.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .dump()
}

/// Root of the repository (the checkout the benchmark runs in).
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Cargo's build directory for the checkout: `CARGO_TARGET_DIR`, taken
/// relative to the repository root, or `target`.
pub fn target_dir() -> std::path::PathBuf {
    repo_root().join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
}

/// Where the benchmark writes `repro` outputs, the series file and spans.
pub fn out_dir() -> std::path::PathBuf {
    target_dir().join("bench")
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_picks_paper_sub_shards_in_range() {
        let w = workload("paper").expect("paper workload");
        let shards: std::collections::BTreeSet<u64> = (0..100)
            .map(|seed| {
                let args = w.repro_args(seed);
                assert!(!args.iter().any(|a| a.contains('{')));
                checks::arg_after(&args, "--hh-shards")
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(shards, (8..=16).collect());
        assert_eq!(checks::arg_after(&w.repro_args(5), "--seed"), Some("2012"));
        // Only paper has an input to draw.
        let c = workload("matrix").expect("matrix workload");
        assert_eq!(c.repro_args(7), c.repro_args(8));
    }

    #[test]
    fn layer_metrics_name_known_e2e_metrics_and_workloads() {
        for m in &LAYERS {
            assert!(E2E.iter().any(|e| e.name == m.moves), "{}", m.name);
            assert!(workload(m.on).is_some(), "{}", m.name);
        }
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let line = result_line(true, 3, 0, &["wall_s", "cpu_s"], |_| 1.5);
        let v = json::Json::parse(&line).expect("valid json");
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(
            metrics.get("cpu_s").and_then(|m| m.get("unit")),
            Some(&json::Json::Str("s".into()))
        );
        assert_eq!(v.get("attempted").and_then(|a| a.as_f64()), Some(3.0));
    }
}
