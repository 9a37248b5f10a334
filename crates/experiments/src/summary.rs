//! Single-pass capture summaries.
//!
//! Every flow-derived statistic the tables and figures consume is
//! computed here by folding each vantage point's record stream through
//! **one** [`VantageFold`] — the experiment harness never re-scans a
//! record vector per figure, and `repro` never materialises one: each
//! household range folds on the worker that simulates it and the folds
//! merge in household order (`crate::run::run_summary`). A
//! [`VantageSummary`] holds the finished accumulator outputs; the
//! figure/table generators are pure renderers over it.
//!
//! Two kinds of state live in the accumulators:
//!
//! * *aggregates* (tables, daily series, per-role shares) — bounded by
//!   the analysis dimensions (addresses, days, roles), not by the flow
//!   count,
//! * *distributions* (ECDF sample vectors, scatter rows) — O(flows in
//!   the category), because the reports pin byte-identical ECDFs and
//!   CSV artifacts, which need the exact point sets in stream order.
//!
//! Vantage-specific statistics (the Campus 2 throughput scatter, the
//! home-network household tables, …) are only accumulated where a
//! consumer exists, controlled by [`SummarySpec`].

use dropbox::FlowTruth;
use dropbox_analysis::chunks::{estimate_chunks, reverse_payload_per_chunk, ChunkGroup};
use dropbox_analysis::classify::{
    dropbox_role, ssl_adjusted, storage_tag, transfer_size, DropboxRole, Provider, StorageTag,
};
use dropbox_analysis::dataset::{
    DailyBytesAcc, DailyTotalAcc, DatasetOverview, DropboxTotals, DropboxTotalsAcc, OverviewAcc,
    ProviderDay, ProviderSeriesAcc, RoleBreakdownAcc, RoleShare, StorageServersAcc,
};
use dropbox_analysis::groups::{HouseholdUsage, HouseholdsAcc};
use dropbox_analysis::sessions::{
    DevicesPerHouseholdAcc, HolidayDipAcc, HourlyProfiles, HourlyProfilesAcc,
    NamespacesPerDeviceAcc, RawDurationsAcc, StartupsAcc,
};
use dropbox_analysis::throughput::{throughput_bps, transfer_duration, ThetaModel};
use dropbox_analysis::Accumulate;
use nettrace::{FlowRecord, Ipv4};
use simcore::stats::{LogBins, OrderlessSum};
use simcore::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::mem::size_of;
use workload::shard::RECAPTURE_SEED_TAG;
use workload::{CaptureShard, FaultStats, SimOutput, SpanFold, VantageKind, VantageStats};

use crate::run::Capture;
use crate::validation::{TruthScoreAcc, TruthScores};

/// Per-tag (store/retrieve) sample vectors of client-storage flows, in
/// stream order — the inputs of Figs. 7, 8, 21 and Table 4.
#[derive(Clone, Debug, Default)]
pub struct TagSamples {
    /// Whole-flow sizes (`total_bytes`), Fig. 7.
    pub sizes: Vec<f64>,
    /// Estimated chunks per flow, Fig. 8.
    pub chunks: Vec<f64>,
    /// Reverse payload per estimated chunk, Fig. 21.
    pub rev_payload: Vec<f64>,
    /// Payload transfer sizes (`transfer_size`), Table 4.
    pub transfer_sizes: Vec<f64>,
    /// Throughputs of flows with a defined duration, Table 4.
    pub throughputs: Vec<f64>,
}

impl TagSamples {
    /// Append the samples of the flows that follow these in the stream.
    fn append(&mut self, later: TagSamples) {
        self.sizes.extend(later.sizes);
        self.chunks.extend(later.chunks);
        self.rev_payload.extend(later.rev_payload);
        self.transfer_sizes.extend(later.transfer_sizes);
        self.throughputs.extend(later.throughputs);
    }
}

/// All per-tag storage-flow statistics of one vantage point.
#[derive(Clone, Debug, Default)]
pub struct StorageFlows {
    /// Store-tagged flows.
    pub store: TagSamples,
    /// Retrieve-tagged flows.
    pub retrieve: TagSamples,
    /// SSL-adjusted uploaded bytes of store flows (Fig. 11 ratios).
    pub store_up_adj: u64,
    /// SSL-adjusted downloaded bytes of retrieve flows (Fig. 11 ratios).
    pub retrieve_down_adj: u64,
}

impl StorageFlows {
    /// Samples of one tag.
    pub fn tag(&self, tag: StorageTag) -> &TagSamples {
        match tag {
            StorageTag::Store => &self.store,
            StorageTag::Retrieve => &self.retrieve,
        }
    }
}

/// Streaming accumulator behind [`StorageFlows`].
#[derive(Default)]
pub struct StorageFlowsAcc {
    out: StorageFlows,
}

impl Accumulate for StorageFlowsAcc {
    type Output = StorageFlows;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let (up, down) = ssl_adjusted(f);
        let t = match storage_tag(f) {
            StorageTag::Store => {
                self.out.store_up_adj += up;
                &mut self.out.store
            }
            StorageTag::Retrieve => {
                self.out.retrieve_down_adj += down;
                &mut self.out.retrieve
            }
        };
        t.sizes.push(f.total_bytes() as f64);
        t.chunks.push(estimate_chunks(f) as f64);
        if let Some(p) = reverse_payload_per_chunk(f) {
            t.rev_payload.push(p);
        }
        t.transfer_sizes.push(transfer_size(f) as f64);
        if let Some(x) = throughput_bps(f) {
            t.throughputs.push(x);
        }
    }

    fn merge(&mut self, later: Self) {
        let (out, later) = (&mut self.out, later.out);
        out.store.append(later.store);
        out.retrieve.append(later.retrieve);
        out.store_up_adj += later.store_up_adj;
        out.retrieve_down_adj += later.retrieve_down_adj;
    }

    fn finish(self) -> StorageFlows {
        self.out
    }

    fn state_bytes(&self) -> usize {
        let tag = |t: &TagSamples| {
            (t.sizes.len()
                + t.chunks.len()
                + t.rev_payload.len()
                + t.transfer_sizes.len()
                + t.throughputs.len())
                * size_of::<f64>()
        };
        size_of::<Self>() + tag(&self.out.store) + tag(&self.out.retrieve)
    }
}

/// Minimum-RTT samples of the storage and control planes (Fig. 6):
/// flows with ≥ 10 RTT samples, in stream order.
#[derive(Clone, Debug, Default)]
pub struct RttPlanes {
    /// Client-storage flows.
    pub storage: Vec<f64>,
    /// Client-control and notification flows.
    pub control: Vec<f64>,
}

/// Streaming accumulator behind [`RttPlanes`].
#[derive(Default)]
pub struct RttAcc {
    out: RttPlanes,
}

impl Accumulate for RttAcc {
    type Output = RttPlanes;

    fn observe(&mut self, f: &FlowRecord) {
        if f.rtt_samples < 10 {
            return;
        }
        let plane = match dropbox_role(f) {
            Some(DropboxRole::ClientStorage) => &mut self.out.storage,
            Some(DropboxRole::ClientControl) | Some(DropboxRole::NotifyControl) => {
                &mut self.out.control
            }
            _ => return,
        };
        if let Some(r) = f.min_rtt_ms {
            plane.push(r);
        }
    }

    fn merge(&mut self, later: Self) {
        self.out.storage.extend(later.out.storage);
        self.out.control.extend(later.out.control);
    }

    fn finish(self) -> RttPlanes {
        self.out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + (self.out.storage.len() + self.out.control.len()) * size_of::<f64>()
    }
}

/// Web-interface statistics (Figs. 17–18): upload/download sizes of the
/// main interface (`dl-web`) and direct-link (`dl`) download sizes.
#[derive(Clone, Debug, Default)]
pub struct WebStats {
    /// Upload bytes of `dl-web.dropbox.com` flows.
    pub web_up: Vec<f64>,
    /// Download bytes of `dl-web.dropbox.com` flows.
    pub web_down: Vec<f64>,
    /// Download bytes of `dl.dropbox.com` flows (count = `len()`).
    pub direct_down: Vec<f64>,
    /// All web-storage flows (direct links + main interface + rest).
    pub web_storage_flows: usize,
}

/// Streaming accumulator behind [`WebStats`].
#[derive(Default)]
pub struct WebAcc {
    out: WebStats,
}

impl Accumulate for WebAcc {
    type Output = WebStats;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::WebStorage) {
            return;
        }
        self.out.web_storage_flows += 1;
        match f.server_name() {
            Some("dl-web.dropbox.com") => {
                self.out.web_up.push(f.up.bytes as f64);
                self.out.web_down.push(f.down.bytes as f64);
            }
            Some("dl.dropbox.com") => self.out.direct_down.push(f.down.bytes as f64),
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        let (out, later) = (&mut self.out, later.out);
        out.web_up.extend(later.web_up);
        out.web_down.extend(later.web_down);
        out.direct_down.extend(later.direct_down);
        out.web_storage_flows += later.web_storage_flows;
    }

    fn finish(self) -> WebStats {
        self.out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>()
            + (self.out.web_up.len() + self.out.web_down.len() + self.out.direct_down.len())
                * size_of::<f64>()
    }
}

/// One tag's share of the Fig. 9 throughput scatter.
#[derive(Clone, Debug, Default)]
pub struct Fig9Tag {
    /// CSV rows (`tag,bytes,throughput_bps,chunks,group`) in stream order.
    pub rows: String,
    /// Flows with a defined throughput.
    pub n: usize,
    /// Flows above the θ slow-start bound.
    pub above_theta: usize,
    /// Throughput sum (exact, order-insensitive accumulation — see
    /// [`Fig9Acc`]).
    pub thr_sum: f64,
    /// Maximum throughput.
    pub thr_max: f64,
}

impl Fig9Tag {
    /// Append the rows and counts of the flows that follow these (the
    /// throughput sum is filled in once, by [`Fig9Acc`]'s `finish`).
    fn append(&mut self, later: Fig9Tag) {
        self.rows.push_str(&later.rows);
        self.n += later.n;
        self.above_theta += later.above_theta;
        self.thr_max = self.thr_max.max(later.thr_max);
    }
}

/// Fig. 9 scatter statistics (Campus 2).
#[derive(Clone, Debug, Default)]
pub struct Fig9Data {
    /// Store-tagged flows.
    pub store: Fig9Tag,
    /// Retrieve-tagged flows.
    pub retrieve: Fig9Tag,
}

/// Streaming accumulator behind [`Fig9Data`]. Throughput sums accumulate
/// in `OrderlessSum`s so the reported means cannot depend on fold order;
/// `finish` rounds them once into [`Fig9Tag::thr_sum`].
pub struct Fig9Acc {
    theta: ThetaModel,
    out: Fig9Data,
    store_thr: OrderlessSum,
    retr_thr: OrderlessSum,
}

/// The RTT Fig. 9's θ reference uses (outer 88 ms + access).
pub fn fig9_theta() -> ThetaModel {
    ThetaModel::paper(SimDuration::from_millis(100))
}

impl Fig9Acc {
    /// New accumulator with the paper's θ model.
    pub fn new() -> Self {
        Fig9Acc {
            theta: fig9_theta(),
            out: Fig9Data::default(),
            store_thr: OrderlessSum::new(),
            retr_thr: OrderlessSum::new(),
        }
    }
}

impl Default for Fig9Acc {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulate for Fig9Acc {
    type Output = Fig9Data;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let tag = storage_tag(f);
        let bytes = transfer_size(f);
        let Some(x) = throughput_bps(f) else { return };
        let c = estimate_chunks(f);
        let (t, thr) = match tag {
            StorageTag::Store => (&mut self.out.store, &mut self.store_thr),
            StorageTag::Retrieve => (&mut self.out.retrieve, &mut self.retr_thr),
        };
        thr.add(x);
        t.thr_max = t.thr_max.max(x);
        t.n += 1;
        if x > self.theta.theta_bps(bytes) {
            t.above_theta += 1;
        }
        let _ = writeln!(
            t.rows,
            "{tag:?},{bytes},{x:.0},{c},{}",
            ChunkGroup::of(c).label()
        );
    }

    fn merge(&mut self, later: Self) {
        self.out.store.append(later.out.store);
        self.out.retrieve.append(later.out.retrieve);
        self.store_thr.merge(&later.store_thr);
        self.retr_thr.merge(&later.retr_thr);
    }

    fn finish(self) -> Fig9Data {
        let mut out = self.out;
        out.store.thr_sum = self.store_thr.value();
        out.retrieve.thr_sum = self.retr_thr.value();
        out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.out.store.rows.len() + self.out.retrieve.rows.len()
    }
}

/// The size bins of Fig. 10's duration-floor grid.
pub fn fig10_bins() -> LogBins {
    LogBins::new(1_000.0, 400e6, 36)
}

/// Minimum flow duration per (chunk group, size bin), per tag (Fig. 10,
/// Campus 2). Indexed `[group][bin]`.
#[derive(Clone, Debug)]
pub struct Fig10Data {
    /// Store-tagged minima.
    pub store: Vec<Vec<Option<f64>>>,
    /// Retrieve-tagged minima.
    pub retrieve: Vec<Vec<Option<f64>>>,
}

/// Streaming accumulator behind [`Fig10Data`].
pub struct Fig10Acc {
    bins: LogBins,
    out: Fig10Data,
}

impl Fig10Acc {
    /// New accumulator over [`fig10_bins`].
    pub fn new() -> Self {
        let bins = fig10_bins();
        let grid = || vec![vec![None; bins.len()]; ChunkGroup::ALL.len()];
        Fig10Acc {
            out: Fig10Data {
                store: grid(),
                retrieve: grid(),
            },
            bins,
        }
    }
}

impl Default for Fig10Acc {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulate for Fig10Acc {
    type Output = Fig10Data;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let bytes = transfer_size(f);
        if bytes == 0 {
            return;
        }
        let Some(d) = transfer_duration(f) else {
            return;
        };
        let g = ChunkGroup::ALL
            .iter()
            .position(|&g| g == ChunkGroup::of(estimate_chunks(f)))
            .expect("group");
        let b = self.bins.index(bytes as f64);
        let grid = match storage_tag(f) {
            StorageTag::Store => &mut self.out.store,
            StorageTag::Retrieve => &mut self.out.retrieve,
        };
        let secs = d.as_secs_f64();
        grid[g][b] = Some(grid[g][b].map_or(secs, |m: f64| m.min(secs)));
    }

    fn merge(&mut self, later: Self) {
        for (mine, theirs) in [
            (&mut self.out.store, later.out.store),
            (&mut self.out.retrieve, later.out.retrieve),
        ] {
            for (row, later_row) in mine.iter_mut().zip(theirs) {
                for (m, l) in row.iter_mut().zip(later_row) {
                    *m = match (*m, l) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
            }
        }
    }

    fn finish(self) -> Fig10Data {
        self.out
    }

    fn state_bytes(&self) -> usize {
        let grid = |g: &[Vec<Option<f64>>]| {
            g.iter()
                .map(|r| r.len() * size_of::<Option<f64>>())
                .sum::<usize>()
        };
        size_of::<Self>() + grid(&self.out.store) + grid(&self.out.retrieve)
    }
}

/// Fig. 20 scatter (Campus 1): SSL-adjusted byte pairs in stream order
/// plus the store/retrieve split.
#[derive(Clone, Debug, Default)]
pub struct Fig20Data {
    /// CSV rows (`up_adj,down_adj,tag`), no header.
    pub rows: String,
    /// Store-tagged flows.
    pub store: usize,
    /// Retrieve-tagged flows.
    pub retrieve: usize,
}

/// Streaming accumulator behind [`Fig20Data`].
#[derive(Default)]
pub struct Fig20Acc {
    out: Fig20Data,
}

impl Accumulate for Fig20Acc {
    type Output = Fig20Data;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let (u, d) = ssl_adjusted(f);
        let tag = storage_tag(f);
        match tag {
            StorageTag::Store => self.out.store += 1,
            StorageTag::Retrieve => self.out.retrieve += 1,
        }
        let _ = writeln!(self.out.rows, "{u},{d},{tag:?}");
    }

    fn merge(&mut self, later: Self) {
        self.out.rows.push_str(&later.out.rows);
        self.out.store += later.out.store;
        self.out.retrieve += later.out.retrieve;
    }

    fn finish(self) -> Fig20Data {
        self.out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.out.rows.len()
    }
}

/// Which vantage-specific accumulators to register: statistics are only
/// paid for where a table or figure consumes them.
#[derive(Clone, Copy, Debug, Default)]
pub struct SummarySpec {
    /// Per-provider daily series (Fig. 2; Home 1).
    pub provider_series: bool,
    /// Dropbox/YouTube daily byte shares (Fig. 3; Campus 2).
    pub daily_shares: bool,
    /// Household aggregation and devices/household (Figs. 11–12,
    /// Table 5; home networks).
    pub households: bool,
    /// Namespaces per device (Fig. 13; Campus 1 and Home 1).
    pub namespaces: bool,
    /// Throughput scatter + θ (Fig. 9; Campus 2).
    pub fig9: bool,
    /// Duration-floor grid (Fig. 10; Campus 2).
    pub fig10: bool,
    /// Up/down byte scatter (Fig. 20; Campus 1).
    pub fig20: bool,
}

impl SummarySpec {
    /// The statistics the paper's reports consume at `kind`.
    pub fn for_kind(kind: VantageKind) -> Self {
        match kind {
            VantageKind::Campus1 => SummarySpec {
                namespaces: true,
                fig20: true,
                ..Self::default()
            },
            VantageKind::Campus2 => SummarySpec {
                daily_shares: true,
                fig9: true,
                fig10: true,
                ..Self::default()
            },
            VantageKind::Home1 => SummarySpec {
                provider_series: true,
                households: true,
                namespaces: true,
                ..Self::default()
            },
            VantageKind::Home2 => SummarySpec {
                households: true,
                ..Self::default()
            },
        }
    }

    /// The Campus 1 Jun/Jul re-capture only feeds Table 4.
    pub fn recapture() -> Self {
        Self::default()
    }

    /// The statistics the reports consume from one capture of the paper
    /// plan.
    pub fn for_shard(shard: &CaptureShard) -> Self {
        if shard.seed_tag == RECAPTURE_SEED_TAG {
            Self::recapture()
        } else {
            Self::for_kind(shard.kind)
        }
    }
}

/// Everything the reports need from one vantage point, computed in a
/// single pass over its flow records.
pub struct VantageSummary {
    /// Vantage point name ("Campus 1", …).
    pub name: String,
    /// Capture days.
    pub days: u32,
    /// Chunk transfers served by LAN Sync (from the driver, not flows).
    pub lan_synced: u64,
    /// Ground-truth user accounts (from the driver, not flows).
    pub truth_users: Vec<Vec<u64>>,
    /// Fault-injection ground truth (from the driver, not flows).
    pub fault_stats: FaultStats,
    /// Records the fold observed.
    pub records: u64,
    /// Accumulators the fold fed.
    pub stages: usize,
    /// Accumulator state at the end of the pass (the peak: accumulator
    /// state only grows during a pass).
    pub state_bytes: usize,
    /// Table 2 row.
    pub overview: DatasetOverview,
    /// Table 3 row.
    pub dropbox_totals: DropboxTotals,
    /// Fig. 4 per-role shares.
    pub role_breakdown: BTreeMap<&'static str, RoleShare>,
    /// Fig. 5 storage servers per day.
    pub storage_servers: Vec<usize>,
    /// Figs. 7/8/21 + Table 4 storage-flow samples.
    pub storage: StorageFlows,
    /// Fig. 6 RTT samples.
    pub rtt: RttPlanes,
    /// Figs. 17–18 web-interface statistics.
    pub web: WebStats,
    /// Fig. 14 start-ups per day.
    pub startups: Vec<f64>,
    /// Fig. 14 holiday dip.
    pub holiday_dip: Option<f64>,
    /// Fig. 15 hourly weekday profiles.
    pub hourly: HourlyProfiles,
    /// Fig. 16 raw session durations.
    pub raw_durations: Vec<f64>,
    /// Fig. 2 per-provider series (where [`SummarySpec::provider_series`]).
    pub provider_series: Option<BTreeMap<Provider, Vec<ProviderDay>>>,
    /// Fig. 3 daily Dropbox bytes (where [`SummarySpec::daily_shares`]).
    pub daily_dropbox: Option<Vec<u64>>,
    /// Fig. 3 daily YouTube bytes.
    pub daily_youtube: Option<Vec<u64>>,
    /// Fig. 3 daily total bytes.
    pub daily_total: Option<Vec<u64>>,
    /// Figs. 11/12 + Table 5 households (where [`SummarySpec::households`]).
    pub households: Option<BTreeMap<Ipv4, HouseholdUsage>>,
    /// Fig. 12 devices per household.
    pub devices_per_household: Option<BTreeMap<Ipv4, usize>>,
    /// Fig. 13 namespaces per device (where [`SummarySpec::namespaces`]).
    pub namespaces_per_device: Option<BTreeMap<u64, usize>>,
    /// Fig. 9 scatter (where [`SummarySpec::fig9`]).
    pub fig9: Option<Fig9Data>,
    /// Fig. 10 grid (where [`SummarySpec::fig10`]).
    pub fig10: Option<Fig10Data>,
    /// Fig. 20 scatter (where [`SummarySpec::fig20`]).
    pub fig20: Option<Fig20Data>,
    /// The inference methods scored against ground truth.
    pub truth: TruthScores,
}

/// The fold behind a [`VantageSummary`]: every accumulator a
/// [`SummarySpec`] asks for plus the ground-truth scoring, fed
/// `(record, truth)` in one pass. It is the [`SpanFold`] each household
/// range of a capture folds into; range folds merge in household order.
pub struct VantageFold {
    name: String,
    days: u32,
    records: u64,
    overview: OverviewAcc,
    totals: DropboxTotalsAcc,
    roles: RoleBreakdownAcc,
    servers: StorageServersAcc,
    storage: StorageFlowsAcc,
    rtt: RttAcc,
    web: WebAcc,
    startups: StartupsAcc,
    holiday: HolidayDipAcc,
    hourly: HourlyProfilesAcc,
    raw: RawDurationsAcc,
    provider_series: Option<ProviderSeriesAcc>,
    daily_dropbox: Option<DailyBytesAcc>,
    daily_youtube: Option<DailyBytesAcc>,
    daily_total: Option<DailyTotalAcc>,
    households: Option<HouseholdsAcc>,
    devices: Option<DevicesPerHouseholdAcc>,
    namespaces: Option<NamespacesPerDeviceAcc>,
    fig9: Option<Fig9Acc>,
    fig10: Option<Fig10Acc>,
    fig20: Option<Fig20Acc>,
    truth: TruthScoreAcc,
}

impl VantageFold {
    /// An empty fold over a `days`-day capture of vantage point `name`.
    pub fn new(name: &str, days: u32, spec: &SummarySpec) -> Self {
        VantageFold {
            name: name.to_string(),
            days,
            records: 0,
            overview: OverviewAcc::default(),
            totals: DropboxTotalsAcc::default(),
            roles: RoleBreakdownAcc::default(),
            servers: StorageServersAcc::new(days),
            storage: StorageFlowsAcc::default(),
            rtt: RttAcc::default(),
            web: WebAcc::default(),
            startups: StartupsAcc::new(days),
            holiday: HolidayDipAcc::new(days),
            hourly: HourlyProfilesAcc::new(days),
            raw: RawDurationsAcc::default(),
            provider_series: spec.provider_series.then(|| ProviderSeriesAcc::new(days)),
            daily_dropbox: spec
                .daily_shares
                .then(|| DailyBytesAcc::new(Provider::Dropbox, days)),
            daily_youtube: spec
                .daily_shares
                .then(|| DailyBytesAcc::new(Provider::YouTube, days)),
            daily_total: spec.daily_shares.then(|| DailyTotalAcc::new(days)),
            households: spec.households.then(HouseholdsAcc::default),
            devices: spec.households.then(DevicesPerHouseholdAcc::default),
            namespaces: spec.namespaces.then(NamespacesPerDeviceAcc::default),
            fig9: spec.fig9.then(Fig9Acc::new),
            fig10: spec.fig10.then(Fig10Acc::new),
            fig20: spec.fig20.then(Fig20Acc::default),
            truth: TruthScoreAcc::default(),
        }
    }

    /// An empty fold over one capture of the paper plan.
    pub fn for_shard(shard: &CaptureShard) -> Self {
        Self::new(
            shard.kind.name(),
            shard.days,
            &SummarySpec::for_shard(shard),
        )
    }

    /// Fold one record and its ground truth (`None` for background
    /// records) into every accumulator.
    pub fn observe(&mut self, f: &FlowRecord, truth: Option<&FlowTruth>) {
        self.records += 1;
        self.overview.observe(f);
        self.totals.observe(f);
        self.roles.observe(f);
        self.servers.observe(f);
        self.storage.observe(f);
        self.rtt.observe(f);
        self.web.observe(f);
        self.startups.observe(f);
        self.holiday.observe(f);
        self.hourly.observe(f);
        self.raw.observe(f);
        self.provider_series.observe(f);
        self.daily_dropbox.observe(f);
        self.daily_youtube.observe(f);
        self.daily_total.observe(f);
        self.households.observe(f);
        self.devices.observe(f);
        self.namespaces.observe(f);
        self.fig9.observe(f);
        self.fig10.observe(f);
        self.fig20.observe(f);
        self.truth.observe(f, truth);
    }

    /// Accumulators this fold feeds.
    fn stages(&self) -> usize {
        let optional = [
            self.provider_series.is_some(),
            self.daily_dropbox.is_some(),
            self.daily_youtube.is_some(),
            self.daily_total.is_some(),
            self.households.is_some(),
            self.devices.is_some(),
            self.namespaces.is_some(),
            self.fig9.is_some(),
            self.fig10.is_some(),
            self.fig20.is_some(),
        ];
        12 + optional.iter().filter(|&&on| on).count()
    }

    /// Live accumulator state in bytes.
    fn state_bytes(&self) -> usize {
        self.overview.state_bytes()
            + self.totals.state_bytes()
            + self.roles.state_bytes()
            + self.servers.state_bytes()
            + self.storage.state_bytes()
            + self.rtt.state_bytes()
            + self.web.state_bytes()
            + self.startups.state_bytes()
            + self.holiday.state_bytes()
            + self.hourly.state_bytes()
            + self.raw.state_bytes()
            + self.provider_series.state_bytes()
            + self.daily_dropbox.state_bytes()
            + self.daily_youtube.state_bytes()
            + self.daily_total.state_bytes()
            + self.households.state_bytes()
            + self.devices.state_bytes()
            + self.namespaces.state_bytes()
            + self.fig9.state_bytes()
            + self.fig10.state_bytes()
            + self.fig20.state_bytes()
            + self.truth.state_bytes()
    }

    /// Finish every accumulator into the capture's summary, with the
    /// driver's capture-level counters.
    pub fn finish(self, stats: VantageStats) -> VantageSummary {
        let stages = self.stages();
        let state_bytes = self.state_bytes();
        VantageSummary {
            name: self.name,
            days: self.days,
            lan_synced: stats.lan_synced,
            truth_users: stats.truth_users,
            fault_stats: stats.fault_stats,
            records: self.records,
            stages,
            state_bytes,
            overview: self.overview.finish(),
            dropbox_totals: self.totals.finish(),
            role_breakdown: self.roles.finish(),
            storage_servers: self.servers.finish(),
            storage: self.storage.finish(),
            rtt: self.rtt.finish(),
            web: self.web.finish(),
            startups: self.startups.finish(),
            holiday_dip: self.holiday.finish(),
            hourly: self.hourly.finish(),
            raw_durations: self.raw.finish(),
            provider_series: self.provider_series.finish(),
            daily_dropbox: self.daily_dropbox.finish(),
            daily_youtube: self.daily_youtube.finish(),
            daily_total: self.daily_total.finish(),
            households: self.households.finish(),
            devices_per_household: self.devices.finish(),
            namespaces_per_device: self.namespaces.finish(),
            fig9: self.fig9.finish(),
            fig10: self.fig10.finish(),
            fig20: self.fig20.finish(),
            truth: self.truth.finish(),
        }
    }
}

impl SpanFold for VantageFold {
    fn accept(&mut self, flow: FlowRecord, truth: Option<FlowTruth>) {
        self.observe(&flow, truth.as_ref());
    }

    fn merge(&mut self, later: Self) {
        self.records += later.records;
        self.overview.merge(later.overview);
        self.totals.merge(later.totals);
        self.roles.merge(later.roles);
        self.servers.merge(later.servers);
        self.storage.merge(later.storage);
        self.rtt.merge(later.rtt);
        self.web.merge(later.web);
        self.startups.merge(later.startups);
        self.holiday.merge(later.holiday);
        self.hourly.merge(later.hourly);
        self.raw.merge(later.raw);
        self.provider_series.merge(later.provider_series);
        self.daily_dropbox.merge(later.daily_dropbox);
        self.daily_youtube.merge(later.daily_youtube);
        self.daily_total.merge(later.daily_total);
        self.households.merge(later.households);
        self.devices.merge(later.devices);
        self.namespaces.merge(later.namespaces);
        self.fig9.merge(later.fig9);
        self.fig10.merge(later.fig10);
        self.fig20.merge(later.fig20);
        self.truth.merge(later.truth);
    }
}

impl VantageSummary {
    /// Fold a materialised capture through a [`VantageFold`] — the test
    /// and bench adapter; `repro` folds each household range as it is
    /// simulated instead.
    pub fn compute(out: &SimOutput, spec: &SummarySpec) -> Self {
        let mut fold = VantageFold::new(&out.dataset.name, out.dataset.days, spec);
        for (f, truth) in out.flows_with_truth() {
            fold.observe(f, truth.as_ref());
        }
        fold.finish(out.stats())
    }
}

/// Single-pass summaries of a whole reproduction run: the four Mar–May
/// vantage points plus the Campus 1 Jun/Jul re-capture.
pub struct CaptureSummary {
    /// Population scale factor of the run.
    pub scale: f64,
    /// Simulation seed of the run.
    pub seed: u64,
    /// Campus 1, Campus 2, Home 1, Home 2 (v1.2.52 era).
    pub vantages: Vec<VantageSummary>,
    /// Campus 1 re-capture (v1.4.0), Table 4's second era.
    pub campus1_v14: VantageSummary,
}

impl CaptureSummary {
    /// Summarise every vantage point of a materialised capture (one pass
    /// each) — the test and bench adapter over the same [`VantageFold`]
    /// `repro` streams into (`crate::run::run_summary`).
    pub fn compute(cap: &Capture) -> Self {
        let vantages = VantageKind::ALL
            .iter()
            .zip(&cap.vantages)
            .map(|(&kind, out)| VantageSummary::compute(out, &SummarySpec::for_kind(kind)))
            .collect();
        let campus1_v14 = VantageSummary::compute(&cap.campus1_v14, &SummarySpec::recapture());
        CaptureSummary {
            scale: cap.scale,
            seed: cap.seed,
            vantages,
            campus1_v14,
        }
    }

    /// Summary of one vantage point.
    pub fn vantage(&self, kind: VantageKind) -> &VantageSummary {
        let idx = VantageKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known vantage");
        &self.vantages[idx]
    }

    /// Total records observed across all five passes.
    pub fn records(&self) -> u64 {
        self.vantages
            .iter()
            .chain(std::iter::once(&self.campus1_v14))
            .map(|v| v.records)
            .sum()
    }

    /// Total accumulator stages registered across all five passes.
    pub fn stages(&self) -> usize {
        self.vantages
            .iter()
            .chain(std::iter::once(&self.campus1_v14))
            .map(|v| v.stages)
            .sum()
    }

    /// Total end-of-pass accumulator state across all five passes.
    pub fn state_bytes(&self) -> usize {
        self.vantages
            .iter()
            .chain(std::iter::once(&self.campus1_v14))
            .map(|v| v.state_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_capture;
    use dropbox_analysis::groups::aggregate_households;
    use dropbox_analysis::sessions::{
        devices_per_household, holiday_dip, hourly_profiles, namespaces_per_device,
        raw_session_durations, startups_per_day,
    };
    use std::sync::OnceLock;
    use workload::FaultPlan;

    fn capture() -> &'static Capture {
        static CAP: OnceLock<Capture> = OnceLock::new();
        CAP.get_or_init(|| run_capture(0.012, 3, &FaultPlan::none(), 2))
    }

    #[test]
    fn summary_matches_materialised_analyses() {
        let cap = capture();
        let sum = CaptureSummary::compute(cap);
        for (kind, (out, v)) in VantageKind::ALL
            .iter()
            .zip(cap.vantages.iter().zip(&sum.vantages))
        {
            assert_eq!(v.name, out.dataset.name);
            assert_eq!(v.records, out.dataset.flows.len() as u64, "{kind:?}");
            assert_eq!(v.overview, out.dataset.overview(), "{kind:?}");
            assert_eq!(v.dropbox_totals, out.dataset.dropbox_totals());
            assert_eq!(v.role_breakdown, out.dataset.role_breakdown());
            assert_eq!(v.storage_servers, out.dataset.storage_servers_per_day());
            assert_eq!(
                v.startups,
                startups_per_day(&out.dataset.flows, out.dataset.days)
            );
            assert_eq!(
                v.holiday_dip,
                holiday_dip(&out.dataset.flows, out.dataset.days)
            );
            assert_eq!(v.raw_durations, raw_session_durations(&out.dataset.flows));
            let hourly = hourly_profiles(&out.dataset.flows, out.dataset.days);
            assert_eq!(v.hourly.startups, hourly.startups);
            assert_eq!(v.hourly.active, hourly.active);
            assert_eq!(v.hourly.store, hourly.store);
            assert_eq!(v.hourly.retrieve, hourly.retrieve);
        }
        // Vantage-specific statistics land exactly where specified.
        let h1 = sum.vantage(VantageKind::Home1);
        assert_eq!(
            h1.provider_series.as_ref().expect("Home 1 series"),
            &cap.vantage(VantageKind::Home1).dataset.provider_series()
        );
        for kind in [VantageKind::Home1, VantageKind::Home2] {
            let v = sum.vantage(kind);
            let flows = &cap.vantage(kind).dataset.flows;
            assert_eq!(
                v.households.as_ref().expect("home households"),
                &aggregate_households(flows)
            );
            assert_eq!(
                v.devices_per_household.as_ref().expect("home devices"),
                &devices_per_household(flows)
            );
        }
        for kind in [VantageKind::Campus1, VantageKind::Home1] {
            let v = sum.vantage(kind);
            assert_eq!(
                v.namespaces_per_device.as_ref().expect("namespaces"),
                &namespaces_per_device(&cap.vantage(kind).dataset.flows)
            );
        }
        let c2 = sum.vantage(VantageKind::Campus2);
        assert_eq!(
            c2.daily_total.as_ref().expect("daily totals"),
            &cap.vantage(VantageKind::Campus2)
                .dataset
                .daily_total_bytes()
        );
        assert!(c2.fig9.is_some() && c2.fig10.is_some());
        assert!(sum.vantage(VantageKind::Campus1).fig20.is_some());
        assert!(sum.campus1_v14.fig9.is_none());
    }

    #[test]
    fn storage_samples_follow_stream_order() {
        let cap = capture();
        let sum = CaptureSummary::compute(cap);
        for (out, v) in cap.vantages.iter().zip(&sum.vantages) {
            for tag in [StorageTag::Store, StorageTag::Retrieve] {
                let sizes: Vec<f64> = out
                    .dataset
                    .client_storage_flows()
                    .filter(|f| storage_tag(f) == tag)
                    .map(|f| f.total_bytes() as f64)
                    .collect();
                assert_eq!(v.storage.tag(tag).sizes, sizes, "{}", out.dataset.name);
                let chunks: Vec<f64> = out
                    .dataset
                    .client_storage_flows()
                    .filter(|f| storage_tag(f) == tag)
                    .map(|f| estimate_chunks(f) as f64)
                    .collect();
                assert_eq!(v.storage.tag(tag).chunks, chunks);
            }
        }
    }

    #[test]
    fn summary_is_deterministic_across_runs() {
        let cap = capture();
        let a = CaptureSummary::compute(cap);
        let b = CaptureSummary::compute(cap);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.state_bytes(), b.state_bytes());
        for (x, y) in a.vantages.iter().zip(&b.vantages) {
            assert_eq!(x.overview, y.overview);
            assert_eq!(x.raw_durations, y.raw_durations);
            assert_eq!(
                x.fig9.as_ref().map(|d| &d.store.rows),
                y.fig9.as_ref().map(|d| &d.store.rows)
            );
        }
    }
}
