//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [IDS...] [--scale S] [--seed N] [--jobs N] [--hh-shards K]
//!       [--out DIR] [--faults N] [--export-traces]
//!       [--chaos N] [--outage-gap-days G] [--outage-secs S]
//!       [--provider-matrix] [--access wired|wifi|lte]
//!
//!   IDS     table1..table5, fig1..fig21, validation, recommendations,
//!           ablations, or `all` (the default); `--list` prints them
//!   --scale population scale factor (default 0.1)
//!   --seed  simulation seed (default 2012)
//!   --jobs N          simulate the five captures on up to N worker
//!                     threads (0 = auto-detect, the default; 1 = strictly
//!                     serial). Changes wall-clock time only: artifacts
//!                     are byte-identical at every N
//!   --hh-shards K     cut each capture into up to K household-range
//!                     sub-shards (default 16); more shards = finer
//!                     load-balancing for high --jobs values. Changes
//!                     wall-clock time only: artifacts are byte-identical
//!                     at every K
//!   --out   output directory (default results/)
//!   --faults N        inject network/server faults from the lossy plan
//!                     seeded with N (default: fault-free)
//!   --chaos N         chaos-soak mode: run N seeded control-plane fault
//!                     scenarios (a compact 7-day Home 1 capture each)
//!                     and check the sync-convergence oracle on every one.
//!                     Writes `chaos_soak.txt` + CSVs to --out and exits
//!                     non-zero if any scenario violates an invariant.
//!                     No tables/figures are generated in this mode
//!   --outage-gap-days G  mean days between server-outage starts
//!                     (default 2; applies to --faults and --chaos plans)
//!   --outage-secs S   median outage duration in seconds (default 180;
//!                     the per-outage cap scales to at least 20×S)
//!   --export-traces   also write the anonymised flow logs (JSON-lines,
//!                     one file per vantage point — the counterpart of the
//!                     paper's published trace repository)
//!   --provider-matrix provider-matrix mode: run the Home 1 workload once
//!                     per provider spec (Dropbox, SkyDrive-like,
//!                     GDrive-like) and sweep the bundling-vs-RTT folder
//!                     harness. Writes `provider_matrix.txt` +
//!                     `provider_matrix_*.csv` + `provider_bundling_rtt.*`
//!                     to --out. No tables/figures in this mode
//!   --access P        force every household onto access-link profile P
//!                     (`wired` | `wifi` | `lte`) in provider-matrix mode
//! ```
//!
//! An unknown id or flag, a flag without its value, or a malformed value
//! prints usage and exits 2 before anything is simulated or written.

use experiments::ablations;
use experiments::figures;
use experiments::recommendations;
use experiments::report::Report;
use experiments::tables;
use std::fs;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;
use tcpmodel::AccessLink;
use workload::{FaultPlan, OutageKnobs, ShardPlan};

const USAGE: &str = "usage: repro [IDS...] [--list] [--scale S] [--seed N] [--jobs N] [--hh-shards K] [--out DIR] [--faults N] [--export-traces] [--chaos N] [--outage-gap-days G] [--outage-secs S] [--provider-matrix] [--access wired|wifi|lte]";

/// Reports that need no capture: the testbed figures, Table 1, the
/// recommendations and the ablations.
const STANDALONE_REPORTS: [&str; 5] = ["fig1", "fig19", "table1", "recommendations", "ablations"];

/// Every report id `repro` accepts, in `--list` order: the standalone
/// reports, the reports rendered from the five captures, and `all`.
fn report_ids() -> impl Iterator<Item = &'static str> {
    STANDALONE_REPORTS
        .into_iter()
        .chain(experiments::SUMMARY_REPORTS.iter().map(|&(id, _)| id))
        .chain(["all"])
}

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    /// Generate reports (or run a chaos or provider-matrix mode).
    Run(Options),
    /// Print usage and exit 0.
    Help,
    /// Print the report ids and exit 0.
    List,
}

/// The options of a run; see the module doc for each flag.
#[derive(Debug)]
struct Options {
    /// Requested report ids; `["all"]` when none (or `all`) was named.
    ids: Vec<String>,
    scale: f64,
    seed: u64,
    jobs: usize,
    hh_shards: usize,
    out_dir: PathBuf,
    export_traces: bool,
    fault_seed: Option<u64>,
    chaos_seeds: Option<u64>,
    knobs: OutageKnobs,
    provider_matrix: bool,
    access: Option<&'static AccessLink>,
}

/// Parse `flag`'s value.
fn parse_value<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` cannot take the value `{value}`"))
}

/// Parse the arguments after the program name. `Err` holds the message
/// printed above the usage line.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut o = Options {
        ids: Vec::new(),
        scale: 0.1,
        seed: 2012,
        jobs: 0, // auto-detect
        hh_shards: workload::shard::DEFAULT_SUB_SHARDS,
        out_dir: PathBuf::from("results"),
        export_traces: false,
        fault_seed: None,
        chaos_seeds: None,
        knobs: OutageKnobs::default(),
        provider_matrix: false,
        access: None,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{a}` needs a value"));
        match a.as_str() {
            "--scale" => o.scale = parse_value(&a, value()?)?,
            "--seed" => o.seed = parse_value(&a, value()?)?,
            "--jobs" => o.jobs = parse_value(&a, value()?)?,
            "--hh-shards" => o.hh_shards = parse_value::<usize>(&a, value()?)?.max(1),
            "--out" => o.out_dir = PathBuf::from(value()?),
            "--export-traces" => o.export_traces = true,
            "--faults" => o.fault_seed = Some(parse_value(&a, value()?)?),
            "--chaos" => o.chaos_seeds = Some(parse_value(&a, value()?)?),
            "--outage-gap-days" => o.knobs.gap_days = parse_value(&a, value()?)?,
            "--outage-secs" => {
                let secs: f64 = parse_value(&a, value()?)?;
                o.knobs.median_secs = secs;
                o.knobs.max_secs = o.knobs.max_secs.max(20.0 * secs);
            }
            "--provider-matrix" => o.provider_matrix = true,
            "--access" => {
                let name = value()?;
                let link = AccessLink::by_name(&name)
                    .ok_or_else(|| format!("unknown access profile `{name}`"))?;
                o.access = Some(link);
            }
            "--help" | "-h" => return Ok(Command::Help),
            "--list" => return Ok(Command::List),
            id if report_ids().any(|known| known == id) => o.ids.push(a),
            other => return Err(format!("unknown report id or flag `{other}` (see --list)")),
        }
    }
    if o.ids.is_empty() || o.ids.iter().any(|i| i == "all") {
        o.ids = vec!["all".into()];
    }
    Ok(Command::Run(o))
}

fn main() {
    let Options {
        ids,
        scale,
        seed,
        jobs,
        hh_shards,
        out_dir,
        export_traces,
        fault_seed,
        chaos_seeds,
        knobs,
        provider_matrix,
        access,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(o)) => o,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Ok(Command::List) => {
            for id in report_ids() {
                println!("{id}");
            }
            return;
        }
        Err(msg) => {
            eprintln!("repro: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let want = |id: &str| ids[0] == "all" || ids.iter().any(|i| i == id);

    fs::create_dir_all(&out_dir).expect("create output directory");

    // Provider-matrix mode is its own pipeline: per-spec captures + the
    // bundling-vs-RTT sweep, no tables/figures.
    if provider_matrix {
        let resolved_jobs = if jobs == 0 {
            simcore::par::available_jobs()
        } else {
            jobs
        };
        let cfg = experiments::providers::MatrixConfig {
            scale,
            seed,
            link: access,
            ..experiments::providers::MatrixConfig::default()
        };
        eprintln!(
            "provider matrix: {} specs x {}-day Home 1 capture (scale {scale}, seed {seed}, jobs {resolved_jobs}{})…",
            dropbox::spec::ALL.len(),
            cfg.days,
            match access {
                Some(l) => format!(", access {}", l.name),
                None => String::new(),
            }
        );
        let t0 = Instant::now();
        let reports = [
            experiments::providers::provider_matrix(&cfg, resolved_jobs),
            experiments::providers::bundling_vs_rtt(seed),
        ];
        eprintln!("matrix finished in {:.1}s", t0.elapsed().as_secs_f64());
        for rep in &reports {
            println!("{}", rep.render());
            fs::write(out_dir.join(format!("{}.txt", rep.id)), rep.render()).expect("write report");
            for (name, contents) in &rep.artifacts {
                fs::write(out_dir.join(name), contents).expect("write artifact");
            }
        }
        return;
    }

    // Chaos-soak mode is its own pipeline: scenarios + oracle, no
    // tables/figures, non-zero exit on any convergence violation.
    if let Some(seeds) = chaos_seeds {
        let cfg = experiments::chaos::SoakConfig {
            seeds,
            knobs,
            ..experiments::chaos::SoakConfig::default()
        };
        let resolved_jobs = if jobs == 0 {
            simcore::par::available_jobs()
        } else {
            jobs
        };
        eprintln!(
            "chaos soak: {seeds} scenario(s) (scale {}, {} days each, jobs {resolved_jobs})…",
            cfg.scale, cfg.days
        );
        let t0 = Instant::now();
        let (rep, violations) = experiments::chaos::chaos_soak(&cfg, resolved_jobs);
        eprintln!("soak finished in {:.1}s", t0.elapsed().as_secs_f64());
        println!("{}", rep.render());
        fs::write(out_dir.join(format!("{}.txt", rep.id)), rep.render()).expect("write report");
        for (name, contents) in &rep.artifacts {
            fs::write(out_dir.join(name), contents).expect("write artifact");
        }
        if violations > 0 {
            eprintln!("chaos soak FAILED: {violations} convergence violation(s)");
            std::process::exit(1);
        }
        eprintln!("chaos soak passed: {seeds} scenario(s), zero violations");
        return;
    }

    let mut reports: Vec<Report> = Vec::new();

    // Standalone testbed figures need no capture.
    if want("fig1") {
        reports.push(figures::fig1());
    }
    if want("fig19") {
        reports.push(figures::fig19());
    }
    if want("table1") {
        reports.push(tables::table1());
    }
    if want("recommendations") {
        reports.push(recommendations::recommendations());
    }
    if want("ablations") {
        reports.extend(ablations::all());
    }

    let needs_capture = ids
        .iter()
        .any(|i| !STANDALONE_REPORTS.contains(&i.as_str()));
    if needs_capture {
        let plan = match fault_seed {
            // The longest capture is the 42-day Mar–May window; the plan's
            // outage schedule covers it entirely. With default knobs this
            // is draw-for-draw the historical lossy plan.
            Some(fs) => FaultPlan::lossy_tuned(fs, 42, &knobs),
            None => FaultPlan::none(),
        };
        let resolved_jobs = if jobs == 0 {
            simcore::par::available_jobs()
        } else {
            jobs
        };
        eprintln!(
            "simulating 4 vantage points + the Jun/Jul re-capture (scale {scale}, seed {seed}, jobs {resolved_jobs}{})…",
            match fault_seed {
                Some(fs) => format!(", fault seed {fs}"),
                None => String::new(),
            }
        );
        let t0 = Instant::now();
        let shard_plan = ShardPlan::paper().with_sub_shards(hh_shards);
        // One pass, on the workers, feeds every analysis (tables, figures
        // and validation) as the households are simulated.
        let (summary, capture) = experiments::run_summary(
            &shard_plan,
            scale,
            seed,
            &plan,
            resolved_jobs,
            export_traces,
        );
        eprintln!(
            "simulation and summary pass finished in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        eprintln!(
            "flow records: {} (all five captures) through {} accumulator stages \
             (accumulator state {} kB)",
            summary.records(),
            summary.stages(),
            summary.state_bytes() / 1024
        );
        if plan.is_active() {
            let mut stats = workload::FaultStats::default();
            for v in summary
                .vantages
                .iter()
                .chain(std::iter::once(&summary.campus1_v14))
            {
                stats.absorb(v.fault_stats);
            }
            eprintln!(
                "injected faults: {} sync retries, {} aborted transfers, {} notification aborts",
                stats.sync_retries, stats.aborted_flows, stats.notify_aborts
            );
        }

        // Figures, tables and validation are pure renderers over the
        // summary.
        for (id, gen) in experiments::SUMMARY_REPORTS {
            if want(id) {
                reports.push(gen(&summary));
            }
        }

        if let Some(cap) = capture {
            for out in cap.vantages {
                let name = out.dataset.name.to_lowercase().replace(' ', "");
                let path = out_dir.join(format!("traces_{name}.jsonl"));
                let mut flows = out.dataset.flows;
                nettrace::flowlog::anonymise_clients(&mut flows);
                let file = fs::File::create(&path).expect("create trace export");
                nettrace::flowlog::write_jsonl(std::io::BufWriter::new(file), &flows)
                    .expect("write trace export");
                eprintln!("exported {} flows to {}", flows.len(), path.display());
            }
        }
    }

    let mut index = String::from(
        "# results index\n\ngenerated by `repro`; see EXPERIMENTS.md for paper-vs-measured.\n\n",
    );
    index.push_str(&format!(
        "run parameters: scale {scale}, seed {seed} (five captures in per-household \
         sub-shards; byte-identical at every `--jobs` and `--hh-shards` value)\n\n\
         | report | title | artifacts |\n|---|---|---|\n"
    ));
    for rep in &reports {
        println!("{}", rep.render());
        let path = out_dir.join(format!("{}.txt", rep.id));
        fs::write(&path, rep.render()).expect("write report");
        for (name, contents) in &rep.artifacts {
            fs::write(out_dir.join(name), contents).expect("write artifact");
        }
        let artifacts: Vec<&str> = rep.artifacts.iter().map(|(n, _)| n.as_str()).collect();
        index.push_str(&format!(
            "| [{id}.txt]({id}.txt) | {title} | {arts} |\n",
            id = rep.id,
            title = rep.title,
            arts = artifacts.join(", ")
        ));
    }
    index.push_str(
        "\nBenchmark artifacts (written by `cargo bench -p bench`, not by `repro`):\n\
         `BENCH_parallel.json` (serial-vs-parallel capture speedup; see EXPERIMENTS.md),\n\
         `BENCH_stream.json` (single-pass summary throughput and accumulator state),\n\
         `BENCH_faults.json`, `BENCH_simlint.json`, `BENCH_chaos.json` (chaos-soak\n\
         scenarios/sec), `BENCH_providers.json` (per-spec upload-transaction\n\
         throughput), and the substrate/figures/tables benches, all under\n\
         `crates/bench/`.\n\n\
         Provider-matrix artifacts (written by `repro --provider-matrix`, not by\n\
         the default run): `provider_matrix.txt`, `provider_matrix_cdf.csv`,\n\
         `provider_matrix_volume.csv`, `provider_bundling_rtt.txt/.csv`.\n",
    );
    fs::write(out_dir.join("INDEX.md"), index).expect("write index");
    eprintln!("wrote {} reports to {}", reports.len(), out_dir.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn run(args: &[&str]) -> Options {
        match parse(args) {
            Ok(Command::Run(o)) => o,
            other => panic!("{args:?} must parse as a run: {other:?}"),
        }
    }

    #[test]
    fn every_listed_id_parses_and_none_means_all() {
        let ids: Vec<&str> = report_ids().collect();
        assert_eq!(
            ids.len(),
            STANDALONE_REPORTS.len() + experiments::SUMMARY_REPORTS.len() + 1
        );
        for id in &ids {
            assert_eq!(run(&[id]).ids, vec![id.to_string()]);
        }
        for id in ["fig1", "fig19", "table2", "validation", "ablations", "all"] {
            assert!(ids.contains(&id), "{id} missing from the --list table");
        }
        assert_eq!(run(&[]).ids, vec!["all"]);
        assert_eq!(run(&["table2", "all"]).ids, vec!["all"]);
        assert_eq!(run(&["table2", "fig3"]).ids, vec!["table2", "fig3"]);
    }

    #[test]
    fn unknown_ids_and_flags_are_usage_errors() {
        for args in [
            &["fig99"][..],
            &["nosuchfig"],
            &["table2", "fig99"],
            &["fig99", "--list"],
            &["--bogus"],
            &["Table2"],
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must not parse"));
            assert!(
                err.starts_with("unknown report id or flag"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn flags_take_their_values() {
        let o = run(&[
            "table3",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--hh-shards",
            "0",
            "--out",
            "dir",
            "--faults",
            "9",
            "--outage-secs",
            "600",
            "--export-traces",
        ]);
        assert_eq!(o.ids, vec!["table3"]);
        assert_eq!((o.scale, o.seed, o.jobs, o.hh_shards), (0.02, 7, 4, 1));
        assert_eq!(o.out_dir, PathBuf::from("dir"));
        assert_eq!(o.fault_seed, Some(9));
        assert_eq!(o.knobs.median_secs, 600.0);
        assert_eq!(o.knobs.max_secs, 12_000.0);
        assert!(o.export_traces && !o.provider_matrix && o.chaos_seeds.is_none());
        let o = run(&["--provider-matrix", "--access", "lte", "--chaos", "3"]);
        assert!(o.provider_matrix);
        assert_eq!(o.access.map(|l| l.name), Some("lte"));
        assert_eq!(o.chaos_seeds, Some(3));
    }

    #[test]
    fn missing_or_malformed_values_are_usage_errors() {
        for (args, want) in [
            (&["--scale"][..], "needs a value"),
            (&["all", "--out"], "needs a value"),
            (&["--seed", "x"], "cannot take the value `x`"),
            (&["--jobs", "-1"], "cannot take the value `-1`"),
            (&["--access", "dialup"], "unknown access profile `dialup`"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must not parse"));
            assert!(err.ends_with(want), "{args:?}: {err}");
        }
    }

    #[test]
    fn help_and_list_stop_parsing() {
        assert!(matches!(parse(&["--help", "--bogus"]), Ok(Command::Help)));
        assert!(matches!(parse(&["table2", "-h"]), Ok(Command::Help)));
        assert!(matches!(parse(&["--list", "fig99"]), Ok(Command::List)));
    }
}
