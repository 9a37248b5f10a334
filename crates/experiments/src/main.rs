//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [IDS...] [--scale S] [--seed N] [--jobs N] [--hh-shards K]
//!       [--out DIR] [--faults N] [--export-traces]
//!       [--chaos N] [--outage-gap-days G] [--outage-secs S]
//!       [--provider-matrix] [--access wired|wifi|lte]
//!
//!   IDS     table1..table5, fig1..fig21, validation, recommendations,
//!           or `all` (default)
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

use experiments::ablations;
use experiments::figures;
use experiments::recommendations;
use experiments::report::Report;
use experiments::tables;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;
use workload::{FaultPlan, OutageKnobs, ShardPlan};

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = 0.1f64;
    let mut seed = 2012u64;
    let mut jobs = 0usize; // 0 = auto-detect
    let mut hh_shards = workload::shard::DEFAULT_SUB_SHARDS;
    let mut out_dir = PathBuf::from("results");
    let mut export_traces = false;
    let mut fault_seed: Option<u64> = None;
    let mut chaos_seeds: Option<u64> = None;
    let mut knobs = OutageKnobs::default();
    let mut provider_matrix = false;
    let mut access: Option<&'static tcpmodel::AccessLink> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.next().expect("--scale value").parse().expect("scale"),
            "--seed" => seed = args.next().expect("--seed value").parse().expect("seed"),
            "--jobs" => jobs = args.next().expect("--jobs value").parse().expect("jobs"),
            "--hh-shards" => {
                hh_shards = args
                    .next()
                    .expect("--hh-shards value")
                    .parse::<usize>()
                    .expect("hh-shards")
                    .max(1)
            }
            "--out" => out_dir = PathBuf::from(args.next().expect("--out value")),
            "--export-traces" => export_traces = true,
            "--faults" => {
                fault_seed = Some(
                    args.next()
                        .expect("--faults value")
                        .parse()
                        .expect("fault seed"),
                )
            }
            "--chaos" => {
                chaos_seeds = Some(
                    args.next()
                        .expect("--chaos value")
                        .parse()
                        .expect("chaos seed count"),
                )
            }
            "--outage-gap-days" => {
                knobs.gap_days = args
                    .next()
                    .expect("--outage-gap-days value")
                    .parse()
                    .expect("gap days")
            }
            "--outage-secs" => {
                let secs: f64 = args
                    .next()
                    .expect("--outage-secs value")
                    .parse()
                    .expect("outage secs");
                knobs.median_secs = secs;
                knobs.max_secs = knobs.max_secs.max(20.0 * secs);
            }
            "--provider-matrix" => provider_matrix = true,
            "--access" => {
                let name = args.next().expect("--access value");
                access = Some(
                    tcpmodel::AccessLink::by_name(&name)
                        .unwrap_or_else(|| panic!("unknown access profile `{name}`")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [IDS...] [--scale S] [--seed N] [--jobs N] [--hh-shards K] [--out DIR] [--faults N] [--export-traces] [--chaos N] [--outage-gap-days G] [--outage-secs S] [--provider-matrix] [--access wired|wifi|lte]"
                );
                return;
            }
            "--list" => {
                println!("table1 table2 table3 table4 table5");
                println!("fig1 fig2 … fig21 (no fig19 capture needed: fig1, fig19)");
                println!("validation recommendations ablations all");
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = vec!["all".into()];
    }
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

    let needs_capture = ids[0] == "all"
        || ids.iter().any(|i| {
            !matches!(
                i.as_str(),
                "fig1" | "fig19" | "table1" | "recommendations" | "ablations"
            )
        });
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
