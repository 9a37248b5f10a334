//! End-to-end benchmark of `repro`.
//!
//! ```text
//! cargo bench --offline --manifest-path .perfbench/Cargo.toml --bench e2e -- \
//!     --workload paper|chaos|matrix [--seed N] [--seconds S] [--trace 0|1]
//! cargo bench ... --bench e2e -- --compare BASELINE.json [--current CURRENT.json]
//! ```
//!
//! Builds `repro` in release mode, then runs it as a child process in a
//! closed loop (one run in flight) until `--seconds` have passed, and
//! measures each run from outside: wall time from spawn to exit, user+sys
//! CPU time and peak RSS from `wait4`, and set-up time from spawn to the
//! first progress line on the child's stderr. Nine extra runs are stopped
//! at that line, so set-up gets a median of its own. Every run's outputs
//! are checked. The last stdout line is the result object; each run is
//! also appended to `<target>/bench/e2e.json`, the series `--compare`
//! reads.
//!
//! `--trace 1` makes one untraced run for reference and then runs the
//! in-process traced benchmark (`benches/layers.rs`), whose per-layer
//! metrics it reports instead.
//!
//! This file links only std and the benchmark's own library.

use perfbench::checks::{self, Ops};
use perfbench::compare::{self, Verdict};
use perfbench::json::Json;
use perfbench::stats::Summary;
use perfbench::{Workload, E2E, LAYERS};
use std::io::{BufRead, BufReader};
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const DEFAULT_SECONDS: f64 = 20.0;
/// Runs stopped at the end of set-up, per benchmark run.
const SETUP_PROBES: usize = 9;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<PathBuf>,
    current: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: perfbench::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        compare: None,
        current: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(perfbench::workload(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            // `cargo bench` starts the benchmark in its package directory;
            // relative paths are taken from the repository root instead.
            "--compare" => args.compare = Some(perfbench::repo_root().join(value("--compare")?)),
            "--current" => args.current = Some(perfbench::repo_root().join(value("--current")?)),
            // `cargo bench` appends this to every benchmark's arguments.
            "--bench" => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn cargo() -> Command {
    let mut cmd = Command::new(std::env::var_os("CARGO").unwrap_or("cargo".into()));
    // A relative CARGO_TARGET_DIR is resolved against the working
    // directory, so every cargo call starts from the checkout root.
    cmd.current_dir(perfbench::repo_root());
    cmd
}

fn build_repro() -> Result<PathBuf, String> {
    let status = cargo()
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "experiments",
            "--bin",
            "repro",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed: {status}"));
    }
    Ok(perfbench::target_dir().join("release").join("repro"))
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux `struct rusage`: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Reap child `pid`, returning its wait status and resource usage.
fn reap(pid: u32) -> Result<(c_int, Rusage), String> {
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals with the
        // layout wait4(2) expects; `pid` is a child of this process that
        // nothing else waits for.
        let rc = unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) };
        if rc == pid as c_int {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
}

/// One `repro` run, measured from outside.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    setup_s: Option<f64>,
    exited_ok: bool,
    /// Last stderr lines, for diagnosing a failed run.
    stderr_tail: Vec<String>,
}

/// Run `repro` to completion or, with `stop_after_setup`, until its first
/// progress line.
fn run_repro(
    repro: &Path,
    args: &[String],
    progress: &str,
    stop_after_setup: bool,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut setup_s = None;
    let mut tail: Vec<String> = Vec::new();
    for line in BufReader::new(stderr).split(b'\n') {
        let line = String::from_utf8_lossy(&line.map_err(|e| e.to_string())?).into_owned();
        if setup_s.is_none() && line.starts_with(progress) {
            setup_s = Some(t0.elapsed().as_secs_f64());
            if stop_after_setup {
                child
                    .kill()
                    .map_err(|e| format!("cannot stop repro: {e}"))?;
                break;
            }
        }
        if tail.len() == 20 {
            tail.remove(0);
        }
        tail.push(line);
    }
    let (status, usage) = reap(child.id())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Sample {
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        // ru_maxrss is in kilobytes on Linux.
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        setup_s,
        exited_ok: status == 0,
        stderr_tail: tail,
    })
}

/// A full run plus the check of what it wrote.
fn measured_run(
    repro: &Path,
    w: &Workload,
    args: &[String],
    out_dir: &Path,
) -> Result<(Sample, Ops), String> {
    let _ = std::fs::remove_dir_all(out_dir);
    let sample = run_repro(repro, args, w.progress, false)?;
    let results = perfbench::repo_root().join("results");
    let ops = checks::check(w.name, args, out_dir, &results, sample.exited_ok);
    if ops.failed > 0 || sample.setup_s.is_none() {
        eprintln!(
            "e2e: {} run failed ({} of {} ops; exit ok: {}); stderr tail:\n{}",
            w.name,
            ops.failed,
            ops.attempted,
            sample.exited_ok,
            sample.stderr_tail.join("\n")
        );
    }
    Ok((sample, ops))
}

fn repro_args(w: &Workload, seed: u64) -> (Vec<String>, PathBuf) {
    let out_dir = perfbench::out_dir().join(format!("out-{}", w.name));
    let mut args = w.repro_args(seed);
    args.push("--out".into());
    args.push(out_dir.display().to_string());
    (args, out_dir)
}

/// `x` with four significant digits, for tables of values from 1 ms to
/// 1000 MB.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (3 - magnitude).max(0) as usize)
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .current_dir(perfbench::repo_root())
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Git revision and dirty flag of the checkout, when it is a git
/// repository of its own.
fn provenance() -> (Json, Json) {
    let top = git(&["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    let is_repo =
        top.and_then(|t| t.canonicalize().ok()) == perfbench::repo_root().canonicalize().ok();
    let rev = is_repo.then(|| git(&["rev-parse", "HEAD"])).flatten();
    let dirty = is_repo
        .then(|| git(&["status", "--porcelain", "--untracked-files=no"]))
        .flatten();
    (
        rev.map_or(Json::Null, Json::Str),
        dirty.map_or(Json::Null, |d| Json::Bool(!d.is_empty())),
    )
}

fn run_e2e(w: &Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let repro = build_repro()?;
    let (args, out_dir) = repro_args(w, seed);

    // The probes also bring the binary and its inputs into the page cache
    // before the measured runs.
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        let probe = run_repro(&repro, &args, w.progress, true)?;
        setups.push(
            probe
                .setup_s
                .ok_or("repro ended before its first progress line")?,
        );
    }

    let mut samples: Vec<Sample> = Vec::new();
    let mut ops = Ops::default();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (sample, run_ops) = measured_run(&repro, w, &args, &out_dir)?;
        ops.add(run_ops);
        samples.push(sample);
    }
    setups.extend(samples.iter().filter_map(|s| s.setup_s));
    let correct = ops.failed == 0 && samples.iter().all(|s| s.exited_ok && s.setup_s.is_some());

    let values = |name: &str| -> Vec<f64> {
        match name {
            "wall_s" => samples.iter().map(|s| s.wall_s).collect(),
            "cpu_s" => samples.iter().map(|s| s.cpu_s).collect(),
            "peak_rss_mb" => samples.iter().map(|s| s.peak_rss_mb).collect(),
            "setup_s" => setups.clone(),
            other => unreachable!("no end-to-end metric `{other}`"),
        }
    };
    println!(
        "e2e {}: seed {seed}, {} run(s) of `repro {}`, {} set-up sample(s)",
        w.name,
        samples.len(),
        args.join(" "),
        setups.len()
    );
    println!(
        "{:<12} {:>5} {:>12} {:>12} {:>12} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    let mut metrics = Vec::new();
    let mut medians = Vec::new();
    for m in &E2E {
        let v = values(m.name);
        let s = Summary::of(&v).expect("every metric has at least one sample");
        println!(
            "{:<12} {:>5} {:>12} {:>12} {:>12} {:>3}",
            m.name,
            m.unit,
            sig(s.median),
            sig(s.q1),
            sig(s.q3),
            s.n
        );
        medians.push((m.name, s.median));
        metrics.push((
            m.name.to_string(),
            Json::obj([
                ("unit", Json::Str(m.unit.into())),
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
                ("samples", Json::Arr(v.into_iter().map(Json::Num).collect())),
            ]),
        ));
    }
    println!("ops: {} attempted, {} failed", ops.attempted, ops.failed);

    let (rev, dirty) = provenance();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let entry = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(seed as f64)),
        ("git_rev", rev),
        ("git_dirty", dirty),
        ("nproc", Json::Num(nproc as f64)),
        (
            "repro_args",
            Json::Arr(w.repro_args(seed).into_iter().map(Json::Str).collect()),
        ),
        ("runs", Json::Num(samples.len() as f64)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    append_series(&perfbench::out_dir().join("e2e.json"), entry)?;

    let names: Vec<&str> = E2E.iter().map(|m| m.name).collect();
    let median = |n: &str| {
        medians
            .iter()
            .find(|(m, _)| *m == n)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    println!(
        "{}",
        perfbench::result_line(correct, ops.attempted, ops.failed, &names, median)
    );
    Ok(())
}

fn append_series(path: &Path, entry: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(v) => v.get("runs").and_then(Json::as_arr).unwrap_or(&[]).to_vec(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        },
        Err(_) => Vec::new(),
    };
    runs.push(entry);
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::create_dir_all(path.parent().expect("series file has a directory"))
        .and_then(|_| std::fs::write(path, doc.dump() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run_traced(w: &Workload, seed: u64) -> Result<(), String> {
    let repro = build_repro()?;
    let (args, out_dir) = repro_args(w, seed);
    let (reference, ops) = measured_run(&repro, w, &args, &out_dir)?;
    println!(
        "untraced reference run: {:.3} s CPU, {:.3} s wall",
        reference.cpu_s, reference.wall_s
    );

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let out = cargo()
        .args(["bench", "--offline", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .args(["--bench", "layers", "--", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--untraced-cpu-s", &reference.cpu_s.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the traced benchmark: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced benchmark failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("traced benchmark printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("traced benchmark result: {e}"))?;
    let metrics = result
        .get("metrics")
        .ok_or("traced result has no metrics")?;
    let value = |n: &str| {
        metrics
            .get(n)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    if let Some(m) = LAYERS.iter().find(|m| value(m.name).is_none()) {
        return Err(format!("traced run did not report `{}`", m.name));
    }
    let count = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let traced_correct = result.get("correct") == Some(&Json::Bool(true));
    let correct = traced_correct && ops.failed == 0 && reference.setup_s.is_some();
    let names: Vec<&str> = LAYERS.iter().map(|m| m.name).collect();
    println!(
        "{}",
        perfbench::result_line(
            correct,
            ops.attempted + count("attempted"),
            ops.failed + count("failed"),
            &names,
            |n| value(n).unwrap_or(f64::NAN),
        )
    );
    Ok(())
}

/// Compare two series; `Ok(false)` when a metric regressed.
fn run_compare(base_path: &Path, cur_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let base = read(base_path)?;
    let cur = read(cur_path)?;
    println!(
        "baseline {}  vs  current {}",
        base_path.display(),
        cur_path.display()
    );
    println!(
        "{:<8} {:<12} {:>28} {:>28} {:>8}  verdict (bound)",
        "workload", "metric", "baseline median [q1, q3] n", "current median [q1, q3] n", "worse"
    );
    let cell = |s: &Summary| format!("{} [{}, {}] {}", sig(s.median), sig(s.q1), sig(s.q3), s.n);
    let rows = compare::compare(&base, &cur);
    for r in &rows {
        let bound = E2E
            .iter()
            .find(|m| m.name == r.metric)
            .map_or(0.0, |m| m.bound);
        println!(
            "{:<8} {:<12} {:>28} {:>28} {:>+7.1}%  {} ({:.0}%)",
            r.workload,
            r.metric,
            cell(&r.base),
            cell(&r.cur),
            r.worse_by * 100.0,
            r.verdict.as_str(),
            bound * 100.0
        );
    }
    if rows.is_empty() {
        return Err("the two series share no workload".into());
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regression))
}

fn main() {
    let result = parse_args().and_then(|args| {
        if let Some(base) = &args.compare {
            let cur = args
                .current
                .unwrap_or_else(|| perfbench::out_dir().join("e2e.json"));
            return run_compare(base, &cur).map(|ok| {
                if !ok {
                    std::process::exit(1);
                }
            });
        }
        let w = args.workload.ok_or("--workload is required")?;
        if args.trace {
            run_traced(w, args.seed)
        } else {
            run_e2e(w, args.seed, args.seconds)
        }
    });
    if let Err(e) = result {
        eprintln!("e2e: {e}");
        std::process::exit(2);
    }
}
