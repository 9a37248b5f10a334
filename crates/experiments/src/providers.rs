//! Provider-matrix experiments: competing protocol specifications driven
//! through the same household workload (the `repro --provider-matrix`
//! mode).
//!
//! The paper measures one provider; the generic sync engine lets the
//! identical Home 1 workload run against every [`dropbox::spec`] entry —
//! Dropbox itself, a no-dedup/no-delta fixed-chunk "SkyDrive-like" spec,
//! and a no-bundling per-file-commit "GDrive-like" spec — so the
//! protocol-design effects of Secs. 4.2–4.5 (dedup savings, bundling vs
//! RTT, data-center placement) emerge as *differences between columns* of
//! one experiment rather than absolute claims:
//!
//! * [`provider_matrix`] — per-spec capture runs producing storage-flow
//!   throughput CDFs and volume totals (`provider_matrix_cdf.csv`,
//!   `provider_matrix_volume.csv`),
//! * [`bundling_vs_rtt`] — a folder-upload micro-harness sweeping the
//!   storage RTT per spec, the Figs. 10–11 mechanism isolated
//!   (`provider_bundling_rtt.csv`).
//!
//! An `--access wifi|lte` override forces every household onto one
//! [`tcpmodel::AccessLink`] profile, injected ahead of the TCP model, so
//! the same matrix can be read per access technology.

use crate::report::{cdf_summary, cdfs_csv, fmt_bps, fmt_bytes, Report, TextTable};
use dnssim::DnsDirectory;
use dropbox::client::{ChunkWork, ClientVersion, SyncConfig, SyncEngine};
use dropbox::content::{Content, ContentKind};
use dropbox::spec::{self, ProviderSpec};
use dropbox::storage::ChunkStore;
use dropbox_analysis::throughput::{throughput_bps, transfer_duration};
use nettrace::{Endpoint, FlowKey, FlowRecord, Ipv4};
use simcore::stats::Ecdf;
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{simulate, AccessLink, PathParams, TcpParams};
use tstat::FlowObserver;
use workload::shard::ShardPlan;
use workload::{simulate_shards_into, FaultPlan, SpanFold, VantageKind};

/// Parameters of one provider-matrix run.
#[derive(Clone, Copy, Debug)]
pub struct MatrixConfig {
    /// Population scale factor (same meaning as `repro --scale`).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Capture days per spec (a matrix run repeats the capture once per
    /// spec, so it defaults to a shorter window than the paper plan).
    pub days: u32,
    /// Forced access-link profile (`None` = the vantage's own mix).
    pub link: Option<&'static AccessLink>,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            scale: 0.05,
            seed: 2012,
            days: 7,
            link: None,
        }
    }
}

/// The single-capture Home 1 plan of one matrix cell: the paper plan's
/// Home 1 shard re-targeted at `spec`, truncated, and (optionally) forced
/// onto an access-link profile. Sub-shard count is inherited, so the cell
/// is byte-identical at every `--jobs` / `--hh-shards` value like any
/// other capture.
fn matrix_plan(spec: &'static ProviderSpec, cfg: &MatrixConfig) -> ShardPlan {
    let mut plan = ShardPlan::paper().truncated(cfg.days).with_protocol(spec);
    if let Some(link) = cfg.link {
        plan = plan.with_link(link);
    }
    plan.shards.retain(|s| s.kind == VantageKind::Home1);
    plan.shards[0].merge_slot = 0;
    plan
}

/// Best available server name of a flow record (DNS, SNI, then Host).
fn server_name(f: &FlowRecord) -> Option<&str> {
    f.server_fqdn
        .as_deref()
        .or(f.tls_sni.as_deref())
        .or(f.http_host.as_deref())
}

/// Storage-plane totals of one capture under one spec.
struct SpecTotals {
    store_thr: Ecdf,
    retrieve_thr: Ecdf,
    up_bytes: u64,
    down_bytes: u64,
    storage_flows: usize,
}

/// The fold behind [`SpecTotals`]: each household range of a matrix cell
/// folds its storage flows — picked by the spec's own naming — on the
/// worker that simulates it, and the ranges merge in household order.
struct SpecTotalsFold {
    spec: &'static ProviderSpec,
    store: Vec<f64>,
    retrieve: Vec<f64>,
    up_bytes: u64,
    down_bytes: u64,
    storage_flows: usize,
}

impl SpecTotalsFold {
    fn new(spec: &'static ProviderSpec) -> Self {
        SpecTotalsFold {
            spec,
            store: Vec::new(),
            retrieve: Vec::new(),
            up_bytes: 0,
            down_bytes: 0,
            storage_flows: 0,
        }
    }

    fn finish(self) -> SpecTotals {
        SpecTotals {
            store_thr: Ecdf::new(self.store),
            retrieve_thr: Ecdf::new(self.retrieve),
            up_bytes: self.up_bytes,
            down_bytes: self.down_bytes,
            storage_flows: self.storage_flows,
        }
    }
}

impl SpanFold for SpecTotalsFold {
    fn accept(&mut self, f: FlowRecord, _truth: Option<dropbox::FlowTruth>) {
        if !server_name(&f).is_some_and(|n| self.spec.is_storage_name(n)) {
            return;
        }
        self.storage_flows += 1;
        self.up_bytes += f.up.bytes;
        self.down_bytes += f.down.bytes;
        if let Some(thr) = throughput_bps(&f) {
            if f.up.bytes >= f.down.bytes {
                self.store.push(thr);
            } else {
                self.retrieve.push(thr);
            }
        }
    }

    fn merge(&mut self, later: Self) {
        self.store.extend(later.store);
        self.retrieve.extend(later.retrieve);
        self.up_bytes += later.up_bytes;
        self.down_bytes += later.down_bytes;
        self.storage_flows += later.storage_flows;
    }
}

/// Simulate one matrix cell and fold it into its storage-plane totals.
fn spec_totals(spec: &'static ProviderSpec, cfg: &MatrixConfig, jobs: usize) -> SpecTotals {
    let plan = matrix_plan(spec, cfg);
    let (fold, _) =
        simulate_shards_into(&plan, cfg.scale, cfg.seed, &FaultPlan::none(), jobs, |_| {
            SpecTotalsFold::new(spec)
        })
        .pop()
        .expect("one capture per matrix cell");
    fold.finish()
}

/// Run the Home 1 workload once per provider spec and report the
/// storage-plane differences: throughput CDFs per spec plus upload and
/// download volume totals. The no-dedup/no-delta spec re-uploads what
/// Dropbox would deduplicate or delta-encode, so its upload volume reads
/// strictly higher on the same household behaviour.
pub fn provider_matrix(cfg: &MatrixConfig, jobs: usize) -> Report {
    let mut body = String::new();
    if let Some(link) = cfg.link {
        body.push_str(&format!(
            "access link forced to `{}` for every household\n\n",
            link.name
        ));
    }
    let mut volume = TextTable::new(vec![
        "provider",
        "storage flows",
        "upload",
        "download",
        "median store bps",
    ]);
    let mut all_cdfs: Vec<(String, Ecdf)> = Vec::new();
    for prov in spec::ALL {
        let t = spec_totals(prov, cfg, jobs);
        body.push_str(&cdf_summary(
            &format!("{} store throughput (bit/s)", prov.name),
            &t.store_thr,
            &[],
        ));
        volume.row(vec![
            prov.slug.to_string(),
            t.storage_flows.to_string(),
            fmt_bytes(t.up_bytes),
            fmt_bytes(t.down_bytes),
            fmt_bps(t.store_thr.quantile(0.5).unwrap_or(0.0)),
        ]);
        all_cdfs.push((format!("{}-store", prov.slug), t.store_thr));
        all_cdfs.push((format!("{}-retrieve", prov.slug), t.retrieve_thr));
    }
    body.push('\n');
    body.push_str(&volume.render());
    body.push_str(
        "\nexpected shape: the no-dedup/no-delta spec uploads strictly more\n\
         bytes than Dropbox on the same households; the per-file-commit spec\n\
         trails on throughput as every chunk pays its own ack round trip.\n",
    );
    let refs: Vec<(&str, &Ecdf)> = all_cdfs.iter().map(|(l, e)| (l.as_str(), e)).collect();
    Report::new(
        "provider_matrix",
        "Competing provider specs over the same Home 1 workload",
        body,
    )
    .with_csv("provider_matrix_cdf.csv", cdfs_csv(&refs, 200))
    .with_csv("provider_matrix_volume.csv", volume.csv())
}

/// Time to upload a folder of `files` fresh files of `file_bytes` each
/// through `spec`'s real sync engine at a given storage RTT: the flows of
/// one `upload_transaction` simulated back to back over the TCP model.
/// Every file is smaller than every spec's chunk size, so the chunk count
/// is identical across specs and the measured difference is purely the
/// protocol — bundling amortises the per-chunk ack stall, per-file
/// commits pay it once per RTT.
pub fn folder_sync_secs(
    prov: &'static ProviderSpec,
    version: ClientVersion,
    files: u32,
    file_bytes: u64,
    rtt_ms: u64,
    seed: u64,
) -> f64 {
    let mut rng = Rng::new(seed);
    let mut dns = DnsDirectory::new();
    for (name, ip) in prov.dns_entries() {
        dns.register(name, ip);
    }
    let store = ChunkStore::new();
    let config = SyncConfig {
        version,
        spec: prov,
        ..SyncConfig::default()
    };
    let mut eng = SyncEngine::new(&dns, &store, config, 7);
    let mut chunks: Vec<ChunkWork> = Vec::new();
    for i in 0..files {
        let content = Content::with_chunk_size(
            seed.wrapping_add(1 + i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            file_bytes,
            ContentKind::Document,
            prov.chunk_bytes,
        );
        for (ci, &id) in content.chunk_ids().iter().enumerate() {
            chunks.push(ChunkWork {
                id,
                wire_bytes: content.wire_chunk_size(ci as u32),
                raw_bytes: content.chunk_size(ci as u32),
            });
        }
    }
    let flows = eng.upload_transaction(&chunks, 0, &mut rng, None, SimTime::from_secs(1));
    let path = PathParams {
        inner_rtt: SimDuration::from_millis(8),
        outer_rtt: SimDuration::from_millis(rtt_ms.saturating_sub(8).max(1)),
        jitter: 0.03,
        loss_up: 0.0005,
        loss_down: 0.0005,
        up_rate: None,
        down_rate: None,
    };
    let tcp = match version {
        ClientVersion::V1_2_52 => TcpParams::era_2012_v1(),
        ClientVersion::V1_4_0 => TcpParams::era_2012_v14(),
    };
    let mut total = 0.0f64;
    for flow in &flows {
        let key = FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 2), 40_000),
            Endpoint::new(Ipv4::new(107, 22, 0, 5), flow.port),
        );
        let mut observer = FlowObserver::new(None);
        simulate(
            SimTime::from_secs(1),
            key,
            &flow.dialogue,
            &path,
            &tcp,
            &mut rng,
            &mut observer,
        );
        if let Some(rec) = observer.finish() {
            total += transfer_duration(&rec)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0);
        }
    }
    total
}

/// The RTT probes of the bundling sweep (ms).
pub const RTT_PROBES: [u64; 5] = [20, 50, 100, 200, 400];

/// Sweep the storage RTT per provider spec and report the folder-upload
/// time: the bundling-vs-RTT mechanism of Figs. 10–11, isolated from the
/// rest of the capture. Dropbox appears twice — v1.2.52 (pre-bundling)
/// and v1.4.0 (`store_batch`) — alongside the always-bundling and
/// never-bundling specs, so the figure shows both the historical fix and
/// the cross-provider contrast.
pub fn bundling_vs_rtt(seed: u64) -> Report {
    let files = 40u32;
    let file_bytes = 50_000u64;
    let series: Vec<(String, &'static ProviderSpec, ClientVersion)> = vec![
        (
            "dropbox-v1.2.52".into(),
            &spec::DROPBOX,
            ClientVersion::V1_2_52,
        ),
        (
            "dropbox-v1.4.0".into(),
            &spec::DROPBOX,
            ClientVersion::V1_4_0,
        ),
        (
            spec::SKYDRIVE_LIKE.slug.into(),
            &spec::SKYDRIVE_LIKE,
            ClientVersion::V1_4_0,
        ),
        (
            spec::GDRIVE_LIKE.slug.into(),
            &spec::GDRIVE_LIKE,
            ClientVersion::V1_4_0,
        ),
    ];
    let mut t = TextTable::new(vec!["series", "rtt_ms", "folder_sync_s"]);
    let mut body = format!("folder workload: {files} files x {file_bytes} B, fresh store\n\n");
    for (label, prov, version) in &series {
        let mut line = format!("{label}:");
        for rtt in RTT_PROBES {
            let secs = folder_sync_secs(prov, *version, files, file_bytes, rtt, seed);
            t.row(vec![label.clone(), rtt.to_string(), format!("{secs:.2}")]);
            line.push_str(&format!("  {rtt}ms={secs:.1}s"));
        }
        body.push_str(&line);
        body.push('\n');
    }
    body.push_str(
        "\nexpected shape: the never-bundling series degrades steepest with\n\
         RTT (one ack stall per chunk); bundling flattens the curve, which is\n\
         exactly the v1.2.52 → v1.4.0 step the paper measured.\n",
    );
    Report::new(
        "provider_bundling_rtt",
        "Folder-upload time vs storage RTT per provider spec",
        body,
    )
    .with_csv("provider_bundling_rtt.csv", t.csv())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{simulate_shards, SimOutput};

    #[test]
    fn matrix_cells_are_deterministic_across_jobs_and_shards() {
        let cfg = MatrixConfig {
            scale: 0.01,
            days: 3,
            ..MatrixConfig::default()
        };
        let plan = matrix_plan(&spec::SKYDRIVE_LIKE, &cfg);
        let a = simulate_shards(&plan, cfg.scale, cfg.seed, &FaultPlan::none(), 1);
        let b = simulate_shards(
            &plan.with_sub_shards(3),
            cfg.scale,
            cfg.seed,
            &FaultPlan::none(),
            4,
        );
        let jsonl = |o: &SimOutput| -> Vec<u8> {
            let mut buf = Vec::new();
            nettrace::flowlog::write_jsonl(&mut buf, &o.dataset.flows).expect("serialise");
            buf
        };
        assert_eq!(jsonl(&a[0]), jsonl(&b[0]));
    }

    #[test]
    fn no_dedup_spec_uploads_more_than_dropbox() {
        let cfg = MatrixConfig {
            scale: 0.02,
            days: 5,
            ..MatrixConfig::default()
        };
        let up_of = |prov: &'static ProviderSpec| -> u64 { spec_totals(prov, &cfg, 2).up_bytes };
        let dropbox = up_of(&spec::DROPBOX);
        let skydrive = up_of(&spec::SKYDRIVE_LIKE);
        assert!(dropbox > 0, "dropbox cell must produce storage traffic");
        assert!(
            skydrive > dropbox,
            "no-dedup/no-delta must re-upload what Dropbox saves: \
             {skydrive} vs {dropbox}"
        );
    }

    #[test]
    fn per_file_commits_degrade_faster_with_rtt() {
        let near = 20;
        let far = 200;
        // Many small chunks: the regime where per-chunk ack stalls, not
        // TLS setup or congestion windowing, carry the RTT dependence.
        let (files, bytes) = (60, 30_000);
        let g_near = folder_sync_secs(
            &spec::GDRIVE_LIKE,
            ClientVersion::V1_4_0,
            files,
            bytes,
            near,
            5,
        );
        let g_far = folder_sync_secs(
            &spec::GDRIVE_LIKE,
            ClientVersion::V1_4_0,
            files,
            bytes,
            far,
            5,
        );
        let d_near = folder_sync_secs(&spec::DROPBOX, ClientVersion::V1_4_0, files, bytes, near, 5);
        let d_far = folder_sync_secs(&spec::DROPBOX, ClientVersion::V1_4_0, files, bytes, far, 5);
        // Absolute RTT slope: every un-bundled chunk pays the full extra
        // round trip, while a bundle pays it once (plus a few slow-start
        // rounds), so the added seconds per added RTT must be far larger
        // without bundling.
        let g_slope = g_far - g_near;
        let d_slope = d_far - d_near;
        assert!(
            g_slope > 2.0 * d_slope,
            "never-bundling must degrade faster with RTT: gdrive +{g_slope:.2}s \
             vs dropbox-v1.4 +{d_slope:.2}s over {near}->{far} ms"
        );
    }

    #[test]
    fn bundling_report_covers_every_series_and_probe() {
        let r = bundling_vs_rtt(11);
        assert!(r.body.contains("dropbox-v1.2.52"));
        assert!(r.body.contains("gdrive_like"));
        let csv = &r.artifacts[0].1;
        assert_eq!(
            csv.lines().count(),
            1 + 4 * RTT_PROBES.len(),
            "header + series x probes"
        );
    }
}
