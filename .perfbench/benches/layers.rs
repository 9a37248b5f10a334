//! Traced in-process run of one benchmark workload.
//!
//! ```text
//! cargo bench --offline --manifest-path .perfbench/Cargo.toml --bench layers -- \
//!     --workload paper|chaos|matrix [--seed N] [--untraced-cpu-s S]
//! ```
//!
//! Repeats what `repro` does for the workload, serially (`--jobs 1`) in this
//! process, with a span around each call into a layer's public functions.
//! Spans inside the layers are not recorded, so a call's time counts for
//! the layer it enters. After the workload it times the hot substrate
//! paths directly. It prints the self time of each layer and every
//! per-layer metric of the benchmark, writes the spans to
//! `<target>/bench/layers-<workload>.json`, and ends with the result
//! object. `benches/e2e.rs --trace 1` runs it and passes the CPU time of an
//! untraced `repro` run, which the tracing overhead is measured against.

use dnssim::DnsDirectory;
use dropbox::client::{ChunkWork, ClientVersion, SyncConfig, SyncEngine};
use dropbox::content::ChunkId;
use dropbox::spec;
use dropbox::storage::ChunkStore;
use experiments::chaos::SoakConfig;
use experiments::providers::{self, MatrixConfig};
use experiments::report::{cdf_summary, cdfs_csv, Report, TextTable};
use experiments::summary::{SummarySpec, VantageSummary};
use experiments::{ablations, figures, recommendations, tables, validation};
use experiments::{Capture, CaptureSummary};
use nettrace::{Endpoint, FlowKey, Ipv4};
use perfbench::checks::{arg_after, Ops, RESULTS_SEED};
use perfbench::json::Json;
use perfbench::stats::Summary;
use perfbench::trace::Tracer;
use perfbench::{vm_hwm_mb, Workload, LAYERS};
use simcore::stats::Ecdf;
use simcore::{Rng, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tcpmodel::{simulate, tls, AccessLink, Dialogue, Direction, Message, PathParams, TcpParams};
use tstat::Monitor;
use workload::{
    oracle, simulate_shards, simulate_vantage_audited, CaptureShard, FaultPlan, ShardPlan,
    SimOutput, VantageConfig, VantageKind,
};

/// The traced run is serial, so spans never overlap.
const JOBS: usize = 1;
/// A flow with at most this many packets counts as short.
const SHORT_FLOW_PACKETS: u64 = 20;
/// Capture seed of every chaos scenario, as `experiments::chaos` fixes it.
const CHAOS_CAPTURE_SEED: u64 = 2012;
const MB: f64 = 1024.0 * 1024.0;

/// What the traced run counted besides time.
#[derive(Default)]
struct Tally {
    records: u64,
    /// Records with packets: the flows `tcpmodel` simulated.
    flows: u64,
    packets: u64,
    short_flows: u64,
    wire_bytes: u64,
    rtx_bytes: u64,
    aborted: u64,
    /// Largest accumulator state held at once, in bytes.
    state_bytes: usize,
    capture_rss_mb: f64,
    summary_rss_mb: f64,
    commits: u64,
    ops: Ops,
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    arg_after(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("workload arguments carry `{flag}`"))
}

/// Count a capture's records in the `nettrace` layer's terms. Background
/// services are generated as flow records without packets (they carry no
/// ground truth), so the packet counts cover only the flows `tcpmodel`
/// and `tstat` produced.
fn scan(t: &mut Tracer, request: &str, out: &SimOutput, tally: &mut Tally) {
    t.span("nettrace.scan", request, |_| {
        tally.records += out.dataset.flows.len() as u64;
        for (f, _) in out.flows_with_truth().filter(|(_, truth)| truth.is_some()) {
            let packets = f.up.packets + f.down.packets;
            let rtx = f.up.rtx_bytes + f.down.rtx_bytes;
            tally.flows += 1;
            tally.packets += packets;
            tally.short_flows += u64::from(packets <= SHORT_FLOW_PACKETS);
            tally.rtx_bytes += rtx;
            tally.wire_bytes += f.up.bytes + f.down.bytes + rtx;
            tally.aborted += u64::from(f.aborted);
        }
    });
}

/// One single-pass accumulator run over a Home 1 capture. `repro` runs
/// none for `chaos` and `matrix`; this pass measures the analysis cost of
/// their records without the capture.
fn summarise(t: &mut Tracer, request: &str, out: &SimOutput, tally: &mut Tally) {
    let s = t.span("core.summary", request, |_| {
        VantageSummary::compute(out, &SummarySpec::for_kind(VantageKind::Home1))
    });
    tally.state_bytes = tally.state_bytes.max(s.state_bytes);
}

/// `repro all`: testbed reports, five captures, one summary pass, the
/// reports rendered from it, and validation against ground truth.
fn paper(t: &mut Tracer, args: &[String], tally: &mut Tally) {
    let scale: f64 = arg(args, "--scale");
    let seed: u64 = arg(args, "--seed");
    let mut reports = t.span("experiments.testbed", "paper", |_| {
        let mut r = vec![
            figures::fig1(),
            figures::fig19(),
            tables::table1(),
            recommendations::recommendations(),
        ];
        r.extend(ablations::all());
        r
    });

    let plan = ShardPlan::paper().with_sub_shards(arg(args, "--hh-shards"));
    let mut slots: Vec<Option<SimOutput>> = plan.shards.iter().map(|_| None).collect();
    for shard in &plan.shards {
        // The capture alone, through the same household sharding.
        let single = ShardPlan {
            shards: vec![CaptureShard {
                merge_slot: 0,
                ..shard.clone()
            }],
            sub_shards: plan.sub_shards,
        };
        let out = t
            .span("workload.capture", &shard.label, |_| {
                simulate_shards(&single, scale, seed, &FaultPlan::none(), JOBS)
            })
            .pop()
            .expect("one output per capture");
        scan(t, &shard.label, &out, tally);
        slots[shard.merge_slot] = Some(out);
    }
    tally.capture_rss_mb = vm_hwm_mb().unwrap_or(f64::NAN);
    let mut vantages: Vec<SimOutput> = slots
        .into_iter()
        .map(|o| o.expect("every merge slot is filled"))
        .collect();
    let campus1_v14 = vantages.pop().expect("the plan ends with the re-capture");
    let cap = Capture {
        scale,
        seed,
        vantages,
        campus1_v14,
    };

    let summary = t.span("core.summary", "paper", |_| CaptureSummary::compute(&cap));
    tally.state_bytes = summary.state_bytes();
    tally.summary_rss_mb = vm_hwm_mb().unwrap_or(f64::NAN);
    reports.extend(t.span("experiments.render", "paper", |_| render(&summary)));
    reports.push(t.span("experiments.validation", "paper", |_| {
        validation::validate(&cap)
    }));

    // Every report is non-empty and, at the seed `results/` was made with,
    // byte-identical to the committed file where there is one.
    let reference = (seed == RESULTS_SEED).then(|| perfbench::repo_root().join("results"));
    for rep in &reports {
        let files = std::iter::once((format!("{}.txt", rep.id), rep.render()))
            .chain(rep.artifacts.iter().cloned());
        for (name, contents) in files {
            let committed = reference
                .as_ref()
                .and_then(|r| std::fs::read(r.join(&name)).ok());
            tally
                .ops
                .record(!contents.is_empty() && committed.is_none_or(|c| c == contents.as_bytes()));
        }
    }
}

/// The reports `repro all` renders from the summary.
fn render(s: &CaptureSummary) -> Vec<Report> {
    vec![
        tables::table2(s),
        tables::table3(s),
        tables::table4(s),
        tables::table5_report(s),
        figures::fig2(s),
        figures::fig3(s),
        figures::fig4(s),
        figures::fig5(s),
        figures::fig6(s),
        figures::fig7(s),
        figures::fig8(s),
        figures::fig9(s),
        figures::fig10(s),
        figures::fig11(s),
        figures::fig12(s),
        figures::fig13(s),
        figures::fig14(s),
        figures::fig15(s),
        figures::fig16(s),
        figures::fig17(s),
        figures::fig18(s),
        figures::fig20(s),
        figures::fig21(s),
    ]
}

/// `repro --chaos N`: audited scenarios and the oracle, the clean twin,
/// and the soak report.
fn chaos(t: &mut Tracer, args: &[String], tally: &mut Tally) {
    let cfg = SoakConfig {
        seeds: arg(args, "--chaos"),
        ..SoakConfig::default()
    };
    let mut config = VantageConfig::paper(VantageKind::Home1, cfg.scale);
    config.days = cfg.days;
    let mut table = TextTable::new(vec!["seed", "flows", "commits", "violations"]);
    let mut lags = Vec::new();
    for seed in cfg.base_seed..cfg.base_seed + cfg.seeds {
        let request = format!("scenario-{seed}");
        let faults = FaultPlan::chaos(seed, cfg.days, &cfg.knobs);
        let (out, audit) = t.span("workload.capture", &request, |_| {
            simulate_vantage_audited(&config, ClientVersion::V1_2_52, CHAOS_CAPTURE_SEED, &faults)
        });
        let violations = t.span("workload.oracle", &request, |_| oracle::check(&audit));
        tally.ops.record(violations.is_empty());
        tally.commits += audit.commit_count();
        lags.extend(audit.sync_lags_secs());
        table.row(vec![
            seed.to_string(),
            out.dataset.flows.len().to_string(),
            audit.commit_count().to_string(),
            violations.len().to_string(),
        ]);
        scan(t, &request, &out, tally);
        summarise(t, &request, &out, tally);
    }
    let (_, clean) = t.span("workload.capture", "clean", |_| {
        simulate_vantage_audited(
            &config,
            ClientVersion::V1_2_52,
            CHAOS_CAPTURE_SEED,
            &FaultPlan::none(),
        )
    });
    tally.capture_rss_mb = vm_hwm_mb().unwrap_or(f64::NAN);
    tally.summary_rss_mb = tally.capture_rss_mb;
    let report = t.span("experiments.render", "chaos", |_| {
        let clean = Ecdf::new(clean.sync_lags_secs());
        let chaos = Ecdf::new(lags);
        let mut body = table.render();
        body.push_str(&cdf_summary(
            "sync lag, clean (s)",
            &clean,
            &[(60.0, "within a minute")],
        ));
        body.push_str(&cdf_summary(
            "sync lag, chaos (s)",
            &chaos,
            &[(3_600.0, "within an hour")],
        ));
        Report::new("chaos_soak", "chaos soak", body)
            .with_csv("chaos_soak.csv", table.csv())
            .with_csv(
                "chaos_sync_lag_cdf.csv",
                cdfs_csv(&[("clean", &clean), ("chaos", &chaos)], 400),
            )
    });
    tally.ops.record(!report.render().is_empty());
}

/// `repro --provider-matrix`: one Home 1 capture per provider spec, then
/// the bundling-vs-RTT sweep.
fn matrix(t: &mut Tracer, args: &[String], tally: &mut Tally) {
    let seed: u64 = arg(args, "--seed");
    let access: String = arg(args, "--access");
    let link = AccessLink::by_name(&access).expect("known access profile");
    let cfg = MatrixConfig {
        scale: arg(args, "--scale"),
        seed,
        link: Some(link),
        ..MatrixConfig::default()
    };
    for prov in spec::ALL {
        // The plan `experiments::providers` builds for one matrix cell.
        let mut plan = ShardPlan::paper()
            .truncated(cfg.days)
            .with_protocol(prov)
            .with_link(link);
        plan.shards.retain(|s| s.kind == VantageKind::Home1);
        plan.shards[0].merge_slot = 0;
        let out = t
            .span("workload.capture", prov.slug, |_| {
                simulate_shards(&plan, cfg.scale, seed, &FaultPlan::none(), JOBS)
            })
            .pop()
            .expect("one capture per matrix cell");
        tally.ops.record(!out.dataset.flows.is_empty());
        scan(t, prov.slug, &out, tally);
        summarise(t, prov.slug, &out, tally);
    }
    tally.capture_rss_mb = vm_hwm_mb().unwrap_or(f64::NAN);
    tally.summary_rss_mb = tally.capture_rss_mb;
    let sweep = t.span("experiments.sweep", "bundling_vs_rtt", |_| {
        providers::bundling_vs_rtt(seed)
    });
    // One series per spec plus Dropbox's second client version.
    let series = spec::ALL.len() + 1;
    tally.ops.record(
        sweep.artifacts.first().is_some_and(|(_, csv)| {
            csv.lines().count() == 1 + series * providers::RTT_PROBES.len()
        }),
    );
}

// Synthetic flows for the substrate timings; the same shapes as
// `crates/bench/benches/substrate.rs`.

fn store_dialogue(chunks: u64, bytes: u32) -> Dialogue {
    let mut m = tls::handshake(
        "dl-client1.dropbox.com",
        "*.dropbox.com",
        SimDuration::from_millis(60),
    );
    for _ in 0..chunks {
        m.push(Message::simple(
            Direction::Up,
            SimDuration::from_millis(30),
            634 + bytes,
        ));
        m.push(Message::simple(
            Direction::Down,
            SimDuration::from_millis(90),
            309,
        ));
    }
    Dialogue::new(m)
}

fn key() -> FlowKey {
    FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
        Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
    )
}

fn wired_path() -> PathParams {
    PathParams {
        inner_rtt: SimDuration::from_millis(10),
        outer_rtt: SimDuration::from_millis(90),
        jitter: 0.05,
        loss_up: 0.001,
        loss_down: 0.001,
        up_rate: None,
        down_rate: None,
    }
}

/// Median time of one call of `f` over seven batches of about 40 ms, in ns.
fn ns_per_call<R>(t: &mut Tracer, name: &str, mut f: impl FnMut() -> R) -> f64 {
    t.span(name, "substrate", |_| {
        let warm = Instant::now();
        let mut calls = 0u64;
        while warm.elapsed() < Duration::from_millis(20) {
            black_box(f());
            calls += 1;
        }
        let batch = 2 * calls;
        let per_call: Vec<f64> = (0..7)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        Summary::of(&per_call).expect("seven batches").median
    })
}

/// Per-packet and per-flow costs of `tcpmodel` and `tstat`, and
/// per-transaction cost of the sync engine under each provider spec.
fn substrate(t: &mut Tracer, metrics: &mut BTreeMap<String, f64>) {
    let tcp = TcpParams::era_2012_v1();
    let segments = |d: &Dialogue, path: &PathParams| {
        let mut out = Vec::with_capacity(2_000);
        simulate(
            SimTime::from_secs(1),
            key(),
            d,
            path,
            &tcp,
            &mut Rng::new(7),
            &mut out,
        );
        out
    };
    let lte = AccessLink::by_name("lte")
        .expect("lte profile")
        .path(SimDuration::from_millis(90), &mut Rng::new(5));
    for (kind, dialogue, path) in [
        ("bulk", store_dialogue(10, 100_000), wired_path()),
        ("short", store_dialogue(1, 2_000), wired_path()),
        ("lte", store_dialogue(10, 100_000), lte),
    ] {
        let packets = segments(&dialogue, &path);
        let per = |ns: f64| {
            if kind == "short" {
                ns
            } else {
                ns / packets.len() as f64
            }
        };
        let unit = if kind == "short" { "flow" } else { "pkt" };
        let ns = ns_per_call(t, &format!("tcpmodel.{kind}"), || {
            segments(&dialogue, &path)
        });
        metrics.insert(format!("tcpmodel.{kind}_ns_per_{unit}"), per(ns));
        if kind != "lte" {
            let ns = ns_per_call(t, &format!("tstat.{kind}"), || {
                Monitor::new(true).process_flow(black_box(&packets))
            });
            metrics.insert(format!("tstat.{kind}_ns_per_{unit}"), per(ns));
        }
    }

    let chunks: Vec<ChunkWork> = (1..=80)
        .map(|i| ChunkWork {
            id: ChunkId(i),
            wire_bytes: 50_000,
            raw_bytes: 50_000,
        })
        .collect();
    for prov in spec::ALL {
        let mut dns = DnsDirectory::new();
        for (name, ip) in prov.dns_entries() {
            dns.register(name, ip);
        }
        let ns = ns_per_call(t, &format!("dropbox.upload_txn.{}", prov.slug), || {
            // A fresh store every call, so dedup never short-circuits.
            let store = ChunkStore::new();
            let config = SyncConfig {
                version: ClientVersion::V1_4_0,
                spec: prov,
                ..SyncConfig::default()
            };
            let mut engine = SyncEngine::new(&dns, &store, config, 7);
            engine
                .upload_transaction(
                    black_box(&chunks),
                    0,
                    &mut Rng::new(11),
                    None,
                    SimTime::EPOCH,
                )
                .len()
        });
        metrics.insert(format!("dropbox.upload_txn_us.{}", prov.slug), ns / 1e3);
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    untraced_cpu_s: f64,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = perfbench::DEFAULT_SEED;
    let mut untraced_cpu_s = f64::NAN;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    perfbench::workload(&name)
                        .unwrap_or_else(|| panic!("unknown workload `{name}`")),
                );
            }
            "--seed" => seed = value().parse().expect("--seed is a number"),
            "--untraced-cpu-s" => {
                untraced_cpu_s = value().parse().expect("--untraced-cpu-s is a number")
            }
            // `cargo bench` appends this to every benchmark's arguments.
            "--bench" => {}
            other => panic!("unknown argument `{other}`"),
        }
    }
    Args {
        workload: workload.expect("--workload is required"),
        seed,
        untraced_cpu_s,
    }
}

fn main() {
    let Args {
        workload: w,
        seed,
        untraced_cpu_s,
    } = parse_args();
    let args = w.repro_args(seed);
    let mut t = Tracer::default();
    let mut tally = Tally::default();

    t.span("bench.run", w.name, |t| match w.name {
        "paper" => paper(t, &args, &mut tally),
        "chaos" => chaos(t, &args, &mut tally),
        "matrix" => matrix(t, &args, &mut tally),
        other => unreachable!("no traced run for `{other}`"),
    });
    let run = t.spans()[0].secs();
    let layers = t.self_by_layer();
    // The traced total is the work `repro` itself does: without the record
    // scan, and without the analysis pass added on `chaos` and `matrix`.
    let added = t.total("nettrace.scan")
        + if w.name == "paper" {
            0.0
        } else {
            t.total("core.summary")
        };
    let total = run - added;

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    substrate(&mut t, &mut metrics);
    let share = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    for (name, value) in [
        ("workload.capture_s", t.total("workload.capture")),
        ("workload.capture_rss_mb", tally.capture_rss_mb),
        ("core.summary_s", t.total("core.summary")),
        ("core.state_mb", tally.state_bytes as f64 / MB),
        ("core.summary_rss_mb", tally.summary_rss_mb),
        (
            "experiments.self_s",
            layers.get("experiments").copied().unwrap_or(0.0),
        ),
        ("nettrace.records", tally.records as f64),
        ("nettrace.packets", tally.packets as f64),
        ("nettrace.pkts_per_flow", share(tally.packets, tally.flows)),
        (
            "nettrace.short_flow_share",
            share(tally.short_flows, tally.flows),
        ),
        (
            "nettrace.rtx_share",
            share(tally.rtx_bytes, tally.wire_bytes),
        ),
        ("nettrace.aborted_share", share(tally.aborted, tally.flows)),
        ("trace.total_s", total),
        ("trace.overhead_share", total / untraced_cpu_s - 1.0),
    ] {
        metrics.insert(name.to_string(), value);
    }

    println!(
        "layers {}: seed {seed}, jobs {JOBS}, traced run {run:.3} s, of which {total:.3} s is work repro does",
        w.name
    );
    println!("self time per layer (s):");
    for (layer, secs) in &layers {
        let label = if layer == "bench" {
            "(unattributed)"
        } else {
            layer
        };
        println!("  {label:<16} {secs:>10.3} {:>6.1}%", 100.0 * secs / run);
    }
    let attributed = 1.0 - layers.get("bench").copied().unwrap_or(0.0) / run;
    println!(
        "  layer self times cover {:.1}% of the traced run",
        100.0 * attributed
    );
    println!("spans: name, count, total s, self s");
    for (name, (n, secs, own)) in t.by_name() {
        println!("  {name:<36} {n:>5} {secs:>10.3} {own:>10.3}");
    }
    let captures: Vec<_> = t
        .spans()
        .iter()
        .filter(|s| s.name == "workload.capture")
        .collect();
    if captures.len() <= 8 {
        for s in captures {
            println!("  workload.capture[{}] {:.3} s", s.request, s.secs());
        }
    }
    if w.name == "chaos" {
        println!("  workload.commits {}", tally.commits);
    }
    println!("per-layer metrics:");
    for m in &LAYERS {
        println!(
            "  {:<38} {:>16.6} {:<8} -> {} on {}",
            m.name, metrics[m.name], m.unit, m.moves, m.on
        );
    }

    let doc = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(seed as f64)),
        ("spans", t.to_json()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    let path = perfbench::out_dir().join(format!("layers-{}.json", w.name));
    std::fs::create_dir_all(perfbench::out_dir())
        .and_then(|_| std::fs::write(&path, doc.dump() + "\n"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    let names: Vec<&str> = LAYERS.iter().map(|m| m.name).collect();
    let ops = tally.ops;
    println!(
        "{}",
        perfbench::result_line(ops.failed == 0, ops.attempted, ops.failed, &names, |n| {
            metrics[n]
        })
    );
}
