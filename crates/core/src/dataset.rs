//! Vantage-point datasets and the paper's summary tables.
//!
//! A [`Dataset`] is what one probe collected: the monitor's flow records
//! (Dropbox traffic at packet fidelity, background services at flow
//! fidelity) plus the vantage point's capabilities. The headline
//! aggregations — Table 2 (dataset overview), Table 3 (Dropbox totals),
//! Fig. 4 (per-role traffic shares), Fig. 5 (storage servers contacted
//! per day) and the per-provider daily series of Figs. 2–3 — are
//! implemented as streaming accumulators ([`OverviewAcc`] …), so they can
//! run in one shared pass over a record stream (see [`crate::stream`]).
//!
//! This module is the **materialised compatibility view**: the `Dataset`
//! methods iterate the retained flow vector and feed the corresponding
//! accumulator, so pre-streaming callers keep working byte-identically.
//! It is the one place whole-`Vec` iteration is sanctioned (`simlint`'s
//! `full-materialize` rule exempts this file).

use crate::classify::{dropbox_role, provider_of, DropboxRole, Provider};
use crate::stream::{run_one, Accumulate};
use nettrace::{FlowRecord, Ipv4};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;

/// One vantage point's capture.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Vantage point name ("Campus 1", …).
    pub name: String,
    /// Whether DNS traffic passes the probe (false for Campus 2).
    pub expose_dns: bool,
    /// Number of capture days.
    pub days: u32,
    /// All flow records.
    pub flows: Vec<FlowRecord>,
}

/// Row of Table 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetOverview {
    /// Distinct client addresses.
    pub ip_addrs: usize,
    /// Total observed volume in bytes (both directions, all services).
    pub volume_bytes: u64,
}

/// Row of Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropboxTotals {
    /// Dropbox flows.
    pub flows: usize,
    /// Dropbox volume in bytes.
    pub volume_bytes: u64,
    /// Distinct devices (`host_int`s).
    pub devices: usize,
}

/// Per-role share of Dropbox traffic (Fig. 4).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoleShare {
    /// Fraction of Dropbox bytes.
    pub bytes_frac: f64,
    /// Fraction of Dropbox flows.
    pub flows_frac: f64,
}

/// One day of a provider's popularity series (Fig. 2).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProviderDay {
    /// Distinct client addresses that contacted the service.
    pub ip_addrs: usize,
    /// Bytes exchanged with the service.
    pub bytes: u64,
}

impl Dataset {
    /// Create a dataset.
    pub fn new(name: impl Into<String>, expose_dns: bool, days: u32) -> Self {
        Dataset {
            name: name.into(),
            expose_dns,
            days,
            flows: Vec::new(),
        }
    }

    /// Dropbox flows only.
    pub fn dropbox_flows(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows
            .iter()
            .filter(|f| provider_of(f) == Provider::Dropbox)
    }

    /// Client-storage (`dl-clientX`) flows only.
    pub fn client_storage_flows(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows
            .iter()
            .filter(|f| dropbox_role(f) == Some(DropboxRole::ClientStorage))
    }

    /// Table 2 row.
    pub fn overview(&self) -> DatasetOverview {
        run_one(&self.flows, OverviewAcc::default())
    }

    /// Table 3 row.
    pub fn dropbox_totals(&self) -> DropboxTotals {
        run_one(&self.flows, DropboxTotalsAcc::default())
    }

    /// Fig. 4: traffic share of each Dropbox server role.
    pub fn role_breakdown(&self) -> BTreeMap<&'static str, RoleShare> {
        run_one(&self.flows, RoleBreakdownAcc::default())
    }

    /// Fig. 5: distinct storage-server addresses contacted per day.
    pub fn storage_servers_per_day(&self) -> Vec<usize> {
        run_one(&self.flows, StorageServersAcc::new(self.days))
    }

    /// Figs. 2–3: per-provider daily popularity series.
    pub fn provider_series(&self) -> BTreeMap<Provider, Vec<ProviderDay>> {
        run_one(&self.flows, ProviderSeriesAcc::new(self.days))
    }

    /// Total bytes of one provider per day (Fig. 3 shares).
    pub fn daily_bytes(&self, provider: Provider) -> Vec<u64> {
        run_one(&self.flows, DailyBytesAcc::new(provider, self.days))
    }

    /// Total bytes of *all* traffic per day.
    pub fn daily_total_bytes(&self) -> Vec<u64> {
        run_one(&self.flows, DailyTotalAcc::new(self.days))
    }
}

/// Add `later`'s per-key counts into `counts`.
fn add_counts<K: Ord>(counts: &mut BTreeMap<K, u64>, later: BTreeMap<K, u64>) {
    for (k, n) in later {
        *counts.entry(k).or_default() += n;
    }
}

/// Add `later`'s per-day totals into `per_day` (both span the same days).
fn add_days(per_day: &mut [u64], later: Vec<u64>) {
    for (day, n) in per_day.iter_mut().zip(later) {
        *day += n;
    }
}

/// Streaming Table 2 row: distinct client addresses and total volume.
#[derive(Default)]
pub struct OverviewAcc {
    ips: BTreeSet<Ipv4>,
    volume: u64,
}

impl Accumulate for OverviewAcc {
    type Output = DatasetOverview;

    fn observe(&mut self, f: &FlowRecord) {
        self.ips.insert(f.key.client.ip);
        self.volume += f.total_bytes();
    }

    fn merge(&mut self, later: Self) {
        self.ips.extend(later.ips);
        self.volume += later.volume;
    }

    fn finish(self) -> DatasetOverview {
        DatasetOverview {
            ip_addrs: self.ips.len(),
            volume_bytes: self.volume,
        }
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.ips.len() * size_of::<Ipv4>()
    }
}

/// Streaming Table 3 row: Dropbox flows, volume and distinct devices.
#[derive(Default)]
pub struct DropboxTotalsAcc {
    flows: usize,
    volume: u64,
    devices: BTreeSet<u64>,
}

impl Accumulate for DropboxTotalsAcc {
    type Output = DropboxTotals;

    fn observe(&mut self, f: &FlowRecord) {
        if provider_of(f) != Provider::Dropbox {
            return;
        }
        self.flows += 1;
        self.volume += f.total_bytes();
        if let Some(meta) = &f.notify {
            self.devices.insert(meta.host_int);
        }
    }

    fn merge(&mut self, later: Self) {
        self.flows += later.flows;
        self.volume += later.volume;
        self.devices.extend(later.devices);
    }

    fn finish(self) -> DropboxTotals {
        DropboxTotals {
            flows: self.flows,
            volume_bytes: self.volume,
            devices: self.devices.len(),
        }
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.devices.len() * size_of::<u64>()
    }
}

/// Streaming Fig. 4: per-role byte/flow shares of Dropbox traffic.
#[derive(Default)]
pub struct RoleBreakdownAcc {
    bytes: BTreeMap<DropboxRole, u64>,
    flows: BTreeMap<DropboxRole, u64>,
    total_bytes: u64,
    total_flows: u64,
}

impl Accumulate for RoleBreakdownAcc {
    type Output = BTreeMap<&'static str, RoleShare>;

    fn observe(&mut self, f: &FlowRecord) {
        let Some(role) = dropbox_role(f) else { return };
        *self.bytes.entry(role).or_default() += f.total_bytes();
        *self.flows.entry(role).or_default() += 1;
        self.total_bytes += f.total_bytes();
        self.total_flows += 1;
    }

    fn merge(&mut self, later: Self) {
        add_counts(&mut self.bytes, later.bytes);
        add_counts(&mut self.flows, later.flows);
        self.total_bytes += later.total_bytes;
        self.total_flows += later.total_flows;
    }

    fn finish(self) -> BTreeMap<&'static str, RoleShare> {
        DropboxRole::ALL
            .into_iter()
            .map(|role| {
                let share = RoleShare {
                    bytes_frac: if self.total_bytes > 0 {
                        *self.bytes.get(&role).unwrap_or(&0) as f64 / self.total_bytes as f64
                    } else {
                        0.0
                    },
                    flows_frac: if self.total_flows > 0 {
                        *self.flows.get(&role).unwrap_or(&0) as f64 / self.total_flows as f64
                    } else {
                        0.0
                    },
                };
                (role.label(), share)
            })
            .collect()
    }
}

/// Streaming Fig. 5: distinct storage-server addresses per capture day.
pub struct StorageServersAcc {
    per_day: Vec<BTreeSet<Ipv4>>,
}

impl StorageServersAcc {
    /// Track `days` capture days.
    pub fn new(days: u32) -> Self {
        StorageServersAcc {
            per_day: vec![BTreeSet::new(); days as usize],
        }
    }
}

impl Accumulate for StorageServersAcc {
    type Output = Vec<usize>;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::ClientStorage) {
            return;
        }
        let d = f.first_syn.day() as usize;
        if d < self.per_day.len() {
            self.per_day[d].insert(f.key.server.ip);
        }
    }

    fn merge(&mut self, later: Self) {
        for (day, servers) in self.per_day.iter_mut().zip(later.per_day) {
            day.extend(servers);
        }
    }

    fn finish(self) -> Vec<usize> {
        self.per_day.into_iter().map(|s| s.len()).collect()
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>()
            + self
                .per_day
                .iter()
                .map(|s| size_of::<BTreeSet<Ipv4>>() + s.len() * size_of::<Ipv4>())
                .sum::<usize>()
    }
}

/// Streaming Figs. 2–3: per-provider daily popularity series.
pub struct ProviderSeriesAcc {
    days: u32,
    map: BTreeMap<Provider, Vec<(BTreeSet<Ipv4>, u64)>>,
}

impl ProviderSeriesAcc {
    /// Track `days` capture days per provider.
    pub fn new(days: u32) -> Self {
        ProviderSeriesAcc {
            days,
            map: BTreeMap::new(),
        }
    }
}

impl Accumulate for ProviderSeriesAcc {
    type Output = BTreeMap<Provider, Vec<ProviderDay>>;

    fn observe(&mut self, f: &FlowRecord) {
        let p = provider_of(f);
        let series = self
            .map
            .entry(p)
            .or_insert_with(|| vec![(BTreeSet::new(), 0); self.days as usize]);
        let d = f.first_syn.day() as usize;
        if d < series.len() {
            series[d].0.insert(f.key.client.ip);
            series[d].1 += f.total_bytes();
        }
    }

    fn merge(&mut self, later: Self) {
        for (p, series) in later.map {
            match self.map.get_mut(&p) {
                Some(mine) => {
                    for ((ips, bytes), (later_ips, later_bytes)) in mine.iter_mut().zip(series) {
                        ips.extend(later_ips);
                        *bytes += later_bytes;
                    }
                }
                None => {
                    self.map.insert(p, series);
                }
            }
        }
    }

    fn finish(self) -> BTreeMap<Provider, Vec<ProviderDay>> {
        self.map
            .into_iter()
            .map(|(p, series)| {
                (
                    p,
                    series
                        .into_iter()
                        .map(|(ips, bytes)| ProviderDay {
                            ip_addrs: ips.len(),
                            bytes,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>()
            + self
                .map
                .values()
                .flatten()
                .map(|(ips, _)| size_of::<(BTreeSet<Ipv4>, u64)>() + ips.len() * size_of::<Ipv4>())
                .sum::<usize>()
    }
}

/// Streaming per-day byte totals of one provider (Fig. 3 shares).
pub struct DailyBytesAcc {
    provider: Provider,
    per_day: Vec<u64>,
}

impl DailyBytesAcc {
    /// Track `provider` over `days` capture days.
    pub fn new(provider: Provider, days: u32) -> Self {
        DailyBytesAcc {
            provider,
            per_day: vec![0; days as usize],
        }
    }
}

impl Accumulate for DailyBytesAcc {
    type Output = Vec<u64>;

    fn observe(&mut self, f: &FlowRecord) {
        if provider_of(f) == self.provider {
            let d = f.first_syn.day() as usize;
            if d < self.per_day.len() {
                self.per_day[d] += f.total_bytes();
            }
        }
    }

    fn merge(&mut self, later: Self) {
        add_days(&mut self.per_day, later.per_day);
    }

    fn finish(self) -> Vec<u64> {
        self.per_day
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.per_day.len() * size_of::<u64>()
    }
}

/// Streaming per-day byte totals of *all* traffic.
pub struct DailyTotalAcc {
    per_day: Vec<u64>,
}

impl DailyTotalAcc {
    /// Track `days` capture days.
    pub fn new(days: u32) -> Self {
        DailyTotalAcc {
            per_day: vec![0; days as usize],
        }
    }
}

impl Accumulate for DailyTotalAcc {
    type Output = Vec<u64>;

    fn observe(&mut self, f: &FlowRecord) {
        let d = f.first_syn.day() as usize;
        if d < self.per_day.len() {
            self.per_day[d] += f.total_bytes();
        }
    }

    fn merge(&mut self, later: Self) {
        add_days(&mut self.per_day, later.per_day);
    }

    fn finish(self) -> Vec<u64> {
        self.per_day
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.per_day.len() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
    use nettrace::{Endpoint, FlowKey};
    use simcore::SimTime;

    fn flow(name: &str, client: Ipv4, server: Ipv4, day: u32, up: u64, down: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(Endpoint::new(client, 40_000), Endpoint::new(server, 443)),
            first_syn: SimTime::from_day_offset(day, simcore::SimDuration::from_hours(10)),
            last_packet: SimTime::from_day_offset(day, simcore::SimDuration::from_hours(11)),
            up: DirStats {
                bytes: up,
                ..DirStats::default()
            },
            down: DirStats {
                bytes: down,
                ..DirStats::default()
            },
            min_rtt_ms: None,
            rtt_samples: 0,
            tls_sni: Some(name.to_owned()),
            tls_certificate_cn: None,
            http_host: None,
            server_fqdn: None,
            notify: None,
            close: FlowClose::Fin,
            aborted: false,
        }
    }

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new("Test", true, 3);
        let c1 = Ipv4::new(10, 0, 0, 1);
        let c2 = Ipv4::new(10, 0, 0, 2);
        let s1 = Ipv4::new(107, 22, 0, 1);
        let s2 = Ipv4::new(107, 22, 0, 2);
        ds.flows
            .push(flow("dl-client1.dropbox.com", c1, s1, 0, 50_000, 5_000));
        ds.flows
            .push(flow("dl-client2.dropbox.com", c1, s2, 0, 1_000, 90_000));
        ds.flows
            .push(flow("dl-client1.dropbox.com", c2, s1, 1, 2_000, 3_000));
        let mut notify = flow(
            "notify1.dropbox.com",
            c1,
            Ipv4::new(199, 47, 216, 33),
            0,
            900,
            500,
        );
        notify.notify = Some(NotifyMeta {
            host_int: 42,
            namespaces: vec![1, 2],
        });
        ds.flows.push(notify);
        ds.flows.push(flow(
            "r3.youtube.com",
            c2,
            Ipv4::new(74, 125, 0, 1),
            0,
            3_000,
            900_000,
        ));
        ds
    }

    #[test]
    fn overview_counts_all_traffic() {
        let ds = sample_dataset();
        let o = ds.overview();
        assert_eq!(o.ip_addrs, 2);
        let expected: u64 = ds.flows.iter().map(|f| f.total_bytes()).sum();
        assert_eq!(o.volume_bytes, expected);
    }

    #[test]
    fn dropbox_totals_exclude_youtube() {
        let ds = sample_dataset();
        let t = ds.dropbox_totals();
        assert_eq!(t.flows, 4);
        assert_eq!(t.devices, 1);
        assert!(t.volume_bytes < ds.overview().volume_bytes);
    }

    #[test]
    fn role_breakdown_fractions_sum_to_one() {
        let ds = sample_dataset();
        let shares = ds.role_breakdown();
        let bytes_sum: f64 = shares.values().map(|s| s.bytes_frac).sum();
        let flows_sum: f64 = shares.values().map(|s| s.flows_frac).sum();
        assert!((bytes_sum - 1.0).abs() < 1e-9);
        assert!((flows_sum - 1.0).abs() < 1e-9);
        assert!(shares["Client (storage)"].bytes_frac > 0.8);
    }

    #[test]
    fn storage_servers_per_day_counts_distinct() {
        let ds = sample_dataset();
        let per_day = ds.storage_servers_per_day();
        assert_eq!(per_day, vec![2, 1, 0]);
    }

    #[test]
    fn provider_series_tracks_days_and_ips() {
        let ds = sample_dataset();
        let series = ds.provider_series();
        let dropbox = &series[&Provider::Dropbox];
        assert_eq!(dropbox[0].ip_addrs, 1, "only c1 touches Dropbox on day 0");
        assert_eq!(dropbox[1].ip_addrs, 1, "c2 on day 1");
        let youtube = &series[&Provider::YouTube];
        assert!(youtube[0].bytes > 900_000);
        // Fig. 3-style share computation.
        let total = ds.daily_total_bytes();
        let dropbox_daily = ds.daily_bytes(Provider::Dropbox);
        assert!(dropbox_daily[0] < total[0]);
    }
}
