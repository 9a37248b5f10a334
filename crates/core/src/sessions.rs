//! Device sessions from notification flows (Secs. 5.2–5.5).
//!
//! The always-open notification connection delimits a device's session:
//! its duration is the session duration (Fig. 16 uses the raw flow
//! durations, which is why NAT-killed sub-minute flows appear in the home
//! curves), and a device's *session start* is the first notification flow
//! after a real gap (flows re-established within seconds after an abrupt
//! reset belong to the same logical session — Figs. 14/15 and Table 5
//! count those merged sessions).
//!
//! Every analysis here is a streaming accumulator ([`MergedSessionsAcc`]
//! …) observing one record at a time; the historical slice functions are
//! thin wrappers. Session merging needs flows time-ordered per device, so
//! [`MergedSessionsAcc`] keeps one compact observation per notification
//! flow (times, address, namespace list) and merges at `finish` — state
//! O(notification flows), a small fraction of the capture, never the
//! records themselves.

use crate::classify::{dropbox_role, storage_tag, DropboxRole, StorageTag};
use crate::stream::{run_one, Accumulate};
use nettrace::{FlowRecord, Ipv4};
use simcore::stats::OrderlessSum;
use simcore::time::CaptureCalendar;
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;

/// Re-connections within this gap are the same logical session.
pub const MERGE_GAP: SimDuration = SimDuration::from_secs(30);

/// A merged device session.
#[derive(Clone, Debug)]
pub struct DeviceSession {
    /// Device identifier.
    pub host_int: u64,
    /// Household (client address).
    pub household: Ipv4,
    /// Session start.
    pub start: SimTime,
    /// Session end.
    pub end: SimTime,
    /// Last namespace list advertised during the session.
    pub namespaces: Vec<u64>,
}

impl DeviceSession {
    /// Session duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// One notification-flow observation: the only state session merging
/// needs per flow.
#[derive(Clone, Debug)]
struct NotifyObs {
    first_syn: SimTime,
    last_packet: SimTime,
    household: Ipv4,
    namespaces: Vec<u64>,
}

/// Streaming session merger: collects one compact observation per
/// notification flow and merges them into logical [`DeviceSession`]s at
/// `finish` (per-device time order, [`MERGE_GAP`] rule).
#[derive(Default)]
pub struct MergedSessionsAcc {
    per_dev: BTreeMap<u64, Vec<NotifyObs>>,
    obs_bytes: usize,
}

impl Accumulate for MergedSessionsAcc {
    type Output = Vec<DeviceSession>;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) == Some(DropboxRole::NotifyControl) {
            if let Some(meta) = &f.notify {
                self.obs_bytes += size_of::<NotifyObs>() + meta.namespaces.len() * size_of::<u64>();
                self.per_dev
                    .entry(meta.host_int)
                    .or_default()
                    .push(NotifyObs {
                        first_syn: f.first_syn,
                        last_packet: f.last_packet,
                        household: f.key.client.ip,
                        namespaces: meta.namespaces.clone(),
                    });
            }
        }
    }

    fn merge(&mut self, later: Self) {
        for (host_int, list) in later.per_dev {
            self.per_dev.entry(host_int).or_default().extend(list);
        }
        self.obs_bytes += later.obs_bytes;
    }

    fn finish(self) -> Vec<DeviceSession> {
        let mut out = Vec::new();
        for (host_int, mut list) in self.per_dev {
            // Stable sort over arrival order == the historical sort over
            // the flow slice.
            list.sort_by_key(|o| o.first_syn);
            let mut current: Option<DeviceSession> = None;
            for o in list {
                match current.as_mut() {
                    Some(s)
                        if o.first_syn.saturating_since(s.end) <= MERGE_GAP
                            && o.household == s.household =>
                    {
                        s.end = s.end.max(o.last_packet);
                        s.namespaces = o.namespaces;
                    }
                    _ => {
                        if let Some(done) = current.take() {
                            out.push(done);
                        }
                        current = Some(DeviceSession {
                            host_int,
                            household: o.household,
                            start: o.first_syn,
                            end: o.last_packet,
                            namespaces: o.namespaces,
                        });
                    }
                }
            }
            if let Some(done) = current.take() {
                out.push(done);
            }
        }
        out.sort_by_key(|s| s.start);
        out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.per_dev.len() * size_of::<u64>() + self.obs_bytes
    }
}

/// Streaming Fig. 16 sample: raw notification-flow durations in seconds.
#[derive(Default)]
pub struct RawDurationsAcc {
    durations: Vec<f64>,
}

impl Accumulate for RawDurationsAcc {
    type Output = Vec<f64>;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) == Some(DropboxRole::NotifyControl) {
            self.durations.push(f.duration().as_secs_f64());
        }
    }

    fn merge(&mut self, later: Self) {
        self.durations.extend(later.durations);
    }

    fn finish(self) -> Vec<f64> {
        self.durations
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.durations.len() * size_of::<f64>()
    }
}

/// Streaming distinct-device counter (any flow carrying notify metadata).
#[derive(Default)]
pub struct DistinctDevicesAcc {
    devices: BTreeSet<u64>,
}

impl Accumulate for DistinctDevicesAcc {
    type Output = usize;

    fn observe(&mut self, f: &FlowRecord) {
        if let Some(meta) = &f.notify {
            self.devices.insert(meta.host_int);
        }
    }

    fn merge(&mut self, later: Self) {
        self.devices.extend(later.devices);
    }

    fn finish(self) -> usize {
        self.devices.len()
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.devices.len() * size_of::<u64>()
    }
}

/// Streaming Fig. 12: devices per household address.
#[derive(Default)]
pub struct DevicesPerHouseholdAcc {
    map: BTreeMap<Ipv4, BTreeSet<u64>>,
}

impl Accumulate for DevicesPerHouseholdAcc {
    type Output = BTreeMap<Ipv4, usize>;

    fn observe(&mut self, f: &FlowRecord) {
        if let Some(meta) = &f.notify {
            self.map
                .entry(f.key.client.ip)
                .or_default()
                .insert(meta.host_int);
        }
    }

    fn merge(&mut self, later: Self) {
        for (ip, set) in later.map {
            self.map.entry(ip).or_default().extend(set);
        }
    }

    fn finish(self) -> BTreeMap<Ipv4, usize> {
        self.map
            .into_iter()
            .map(|(ip, set)| (ip, set.len()))
            .collect()
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>()
            + self
                .map
                .values()
                .map(|set| size_of::<(Ipv4, BTreeSet<u64>)>() + set.len() * size_of::<u64>())
                .sum::<usize>()
    }
}

/// Streaming Fig. 13: last observed namespace count per device.
#[derive(Default)]
pub struct NamespacesPerDeviceAcc {
    latest: BTreeMap<u64, (SimTime, usize)>,
}

impl Accumulate for NamespacesPerDeviceAcc {
    type Output = BTreeMap<u64, usize>;

    fn observe(&mut self, f: &FlowRecord) {
        if let Some(meta) = &f.notify {
            let entry = self
                .latest
                .entry(meta.host_int)
                .or_insert((f.last_packet, 0));
            if f.last_packet >= entry.0 {
                *entry = (f.last_packet, meta.namespaces.len());
            }
        }
    }

    fn merge(&mut self, later: Self) {
        // The later stream's last observation wins unless this stream saw
        // the device later in simulated time — what `observe` would do.
        for (host_int, (at, n)) in later.latest {
            let entry = self.latest.entry(host_int).or_insert((at, n));
            if at >= entry.0 {
                *entry = (at, n);
            }
        }
    }

    fn finish(self) -> BTreeMap<u64, usize> {
        self.latest.into_iter().map(|(h, (_, n))| (h, n)).collect()
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() + self.latest.len() * size_of::<(u64, (SimTime, usize))>()
    }
}

/// Streaming Fig. 14: fraction of devices starting a session per day.
#[derive(Default)]
pub struct StartupsAcc {
    days: u32,
    sessions: MergedSessionsAcc,
    devices: DistinctDevicesAcc,
}

impl StartupsAcc {
    /// Track `days` capture days.
    pub fn new(days: u32) -> Self {
        StartupsAcc {
            days,
            ..StartupsAcc::default()
        }
    }
}

impl Accumulate for StartupsAcc {
    type Output = Vec<f64>;

    fn observe(&mut self, f: &FlowRecord) {
        self.sessions.observe(f);
        self.devices.observe(f);
    }

    fn merge(&mut self, later: Self) {
        self.sessions.merge(later.sessions);
        self.devices.merge(later.devices);
    }

    fn finish(self) -> Vec<f64> {
        let sessions = self.sessions.finish();
        let total_devices = self.devices.finish().max(1) as f64;
        let mut per_day: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); self.days as usize];
        for s in &sessions {
            let d = s.start.day() as usize;
            if d < per_day.len() {
                per_day[d].insert(s.host_int);
            }
        }
        per_day
            .into_iter()
            .map(|set| set.len() as f64 / total_devices)
            .collect()
    }

    fn state_bytes(&self) -> usize {
        self.sessions.state_bytes() + self.devices.state_bytes()
    }
}

/// Raw notification-flow durations in seconds (the Fig. 16 sample).
pub fn raw_session_durations(flows: &[FlowRecord]) -> Vec<f64> {
    run_one(flows, RawDurationsAcc::default())
}

/// Merge notification flows into logical device sessions.
pub fn merged_sessions(flows: &[FlowRecord]) -> Vec<DeviceSession> {
    run_one(flows, MergedSessionsAcc::default())
}

/// Distinct devices observed (by `host_int`) — Table 3's device counts.
pub fn distinct_devices(flows: &[FlowRecord]) -> usize {
    run_one(flows, DistinctDevicesAcc::default())
}

/// Devices per household (Fig. 12): household address → device count.
pub fn devices_per_household(flows: &[FlowRecord]) -> BTreeMap<Ipv4, usize> {
    run_one(flows, DevicesPerHouseholdAcc::default())
}

/// Last observed namespace count per device (Fig. 13).
pub fn namespaces_per_device(flows: &[FlowRecord]) -> BTreeMap<u64, usize> {
    run_one(flows, NamespacesPerDeviceAcc::default())
}

/// Fraction of all devices starting at least one session on each capture
/// day (Fig. 14).
pub fn startups_per_day(flows: &[FlowRecord], days: u32) -> Vec<f64> {
    run_one(flows, StartupsAcc::new(days))
}

/// The hourly profiles of Fig. 15, averaged over working days.
#[derive(Clone, Debug)]
pub struct HourlyProfiles {
    /// (a) fraction of devices starting a session per hour.
    pub startups: [f64; 24],
    /// (b) fraction of devices active (connected) per hour.
    pub active: [f64; 24],
    /// (c) fraction of total retrieved bytes per hour.
    pub retrieve: [f64; 24],
    /// (d) fraction of total stored bytes per hour.
    pub store: [f64; 24],
}

/// Streaming Fig. 15: the four hourly profiles over working days. The
/// storage-volume histograms count integer bytes (exact in any merge
/// order; every bin stays far below 2^53, so the one cast in `finish` is
/// bit-identical to the historical f64 flow loop), their normalising
/// totals accumulate order-insensitively (`OrderlessSum`), and the
/// session parts fold from the merged sessions at `finish`.
pub struct HourlyProfilesAcc {
    days: u32,
    sessions: MergedSessionsAcc,
    devices: DistinctDevicesAcc,
    retrieve: [u64; 24],
    store: [u64; 24],
    retr_total: OrderlessSum,
    store_total: OrderlessSum,
}

impl HourlyProfilesAcc {
    /// Track `days` capture days.
    pub fn new(days: u32) -> Self {
        HourlyProfilesAcc {
            days,
            sessions: MergedSessionsAcc::default(),
            devices: DistinctDevicesAcc::default(),
            retrieve: [0; 24],
            store: [0; 24],
            retr_total: OrderlessSum::new(),
            store_total: OrderlessSum::new(),
        }
    }
}

impl Accumulate for HourlyProfilesAcc {
    type Output = HourlyProfiles;

    fn observe(&mut self, f: &FlowRecord) {
        self.sessions.observe(f);
        self.devices.observe(f);
        if dropbox_role(f) != Some(DropboxRole::ClientStorage)
            || !CaptureCalendar::is_working_day(f.first_syn.day())
        {
            return;
        }
        let (up, down) = crate::classify::ssl_adjusted(f);
        let h = f.first_syn.hour() as usize;
        match storage_tag(f) {
            StorageTag::Store => {
                self.store[h] += up;
                self.store_total.add(up as f64);
            }
            StorageTag::Retrieve => {
                self.retrieve[h] += down;
                self.retr_total.add(down as f64);
            }
        }
    }

    fn merge(&mut self, later: Self) {
        self.sessions.merge(later.sessions);
        self.devices.merge(later.devices);
        for (h, bytes) in later.retrieve.iter().enumerate() {
            self.retrieve[h] += bytes;
        }
        for (h, bytes) in later.store.iter().enumerate() {
            self.store[h] += bytes;
        }
        self.retr_total.merge(&later.retr_total);
        self.store_total.merge(&later.store_total);
    }

    fn finish(self) -> HourlyProfiles {
        let sessions = self.sessions.finish();
        let total_devices = self.devices.finish().max(1) as f64;
        let working_days: Vec<u32> = (0..self.days)
            .filter(|&d| CaptureCalendar::is_working_day(d))
            .collect();
        let n_working = working_days.len().max(1) as f64;
        let is_working = |t: SimTime| CaptureCalendar::is_working_day(t.day());

        let mut startups = [0.0f64; 24];
        let mut active = [0.0f64; 24];
        for s in &sessions {
            if is_working(s.start) {
                startups[s.start.hour() as usize] += 1.0;
            }
            // Active during every hour bin the session overlaps, on working days.
            let mut t = s.start;
            let end = s.end.min(s.start + SimDuration::from_days(7));
            while t <= end {
                if is_working(t) {
                    active[t.hour() as usize] += 1.0;
                }
                t += SimDuration::from_hours(1);
            }
        }
        for v in &mut startups {
            *v /= total_devices * n_working;
        }
        for v in &mut active {
            *v /= total_devices * n_working;
        }

        let mut retrieve = self.retrieve.map(|b| b as f64);
        let mut store = self.store.map(|b| b as f64);
        let retr_total = self.retr_total.value();
        let store_total = self.store_total.value();
        if retr_total > 0.0 {
            for v in &mut retrieve {
                *v /= retr_total;
            }
        }
        if store_total > 0.0 {
            for v in &mut store {
                *v /= store_total;
            }
        }

        HourlyProfiles {
            startups,
            active,
            retrieve,
            store,
        }
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() - size_of::<MergedSessionsAcc>() - size_of::<DistinctDevicesAcc>()
            + self.sessions.state_bytes()
            + self.devices.state_bytes()
    }
}

/// Streaming holiday-dip ratio (see [`holiday_dip`]).
#[derive(Default)]
pub struct HolidayDipAcc {
    startups: StartupsAcc,
}

impl HolidayDipAcc {
    /// Track `days` capture days.
    pub fn new(days: u32) -> Self {
        HolidayDipAcc {
            startups: StartupsAcc::new(days),
        }
    }
}

impl Accumulate for HolidayDipAcc {
    type Output = Option<f64>;

    fn observe(&mut self, f: &FlowRecord) {
        self.startups.observe(f);
    }

    fn merge(&mut self, later: Self) {
        self.startups.merge(later.startups);
    }

    fn finish(self) -> Option<f64> {
        let series = self.startups.finish();
        let mut holiday = Vec::new();
        let mut working = Vec::new();
        for (d, &v) in series.iter().enumerate() {
            let d = d as u32;
            if CaptureCalendar::is_holiday(d) {
                holiday.push(v);
            } else if CaptureCalendar::is_working_day(d) {
                working.push(v);
            }
        }
        if holiday.is_empty() || working.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| {
            let mut s = OrderlessSum::new();
            for &x in v {
                s.add(x);
            }
            s.value() / v.len() as f64
        };
        let w = mean(&working);
        (w > 0.0).then(|| mean(&holiday) / w)
    }

    fn state_bytes(&self) -> usize {
        self.startups.state_bytes()
    }
}

/// Compute Fig. 15's four hourly profiles over working days.
pub fn hourly_profiles(flows: &[FlowRecord], days: u32) -> HourlyProfiles {
    run_one(flows, HourlyProfilesAcc::new(days))
}

/// Holiday effect on device start-ups (the paper notes "exceptions around
/// holidays in April and May" in Fig. 14): mean start-up fraction on
/// holidays divided by the mean on ordinary working days. `None` when the
/// capture has no holiday or no working day with data.
pub fn holiday_dip(flows: &[FlowRecord], days: u32) -> Option<f64> {
    run_one(flows, HolidayDipAcc::new(days))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
    use nettrace::{Endpoint, FlowKey};

    fn notify_flow(
        ip: Ipv4,
        host_int: u64,
        namespaces: Vec<u64>,
        start_s: u64,
        end_s: u64,
    ) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(ip, 40_000 + (start_s % 1000) as u16),
                Endpoint::new(Ipv4::new(199, 47, 216, 33), 80),
            ),
            first_syn: SimTime::from_secs(start_s),
            last_packet: SimTime::from_secs(end_s),
            up: DirStats::default(),
            down: DirStats::default(),
            min_rtt_ms: None,
            rtt_samples: 0,
            tls_sni: None,
            tls_certificate_cn: None,
            http_host: None,
            server_fqdn: Some("notify1.dropbox.com".into()),
            notify: Some(NotifyMeta {
                host_int,
                namespaces,
            }),
            close: FlowClose::Fin,
            aborted: false,
        }
    }

    #[test]
    fn nat_fragments_merge_into_one_session() {
        let ip = Ipv4::new(10, 1, 0, 1);
        let flows = vec![
            notify_flow(ip, 7, vec![1], 1_000, 1_050),
            notify_flow(ip, 7, vec![1], 1_055, 1_110), // 5 s gap: same session
            notify_flow(ip, 7, vec![1], 5_000, 6_000), // new session
        ];
        let sessions = merged_sessions(&flows);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].duration().secs(), 110);
        assert_eq!(sessions[1].duration().secs(), 1_000);
        // But the raw durations (Fig. 16) keep all three flows.
        assert_eq!(raw_session_durations(&flows).len(), 3);
    }

    #[test]
    fn device_and_household_counts() {
        let a = Ipv4::new(10, 1, 0, 1);
        let b = Ipv4::new(10, 1, 0, 2);
        let flows = vec![
            notify_flow(a, 1, vec![10], 0, 100),
            notify_flow(a, 2, vec![10, 11], 0, 100),
            notify_flow(b, 3, vec![12], 0, 100),
        ];
        assert_eq!(distinct_devices(&flows), 3);
        let per_hh = devices_per_household(&flows);
        assert_eq!(per_hh[&a], 2);
        assert_eq!(per_hh[&b], 1);
    }

    #[test]
    fn namespace_counts_use_last_observation() {
        let ip = Ipv4::new(10, 1, 0, 1);
        let flows = vec![
            notify_flow(ip, 1, vec![10], 0, 100),
            notify_flow(ip, 1, vec![10, 11, 12], 200, 300),
        ];
        let ns = namespaces_per_device(&flows);
        assert_eq!(ns[&1], 3);
    }

    #[test]
    fn startups_per_day_fractions() {
        let ip = Ipv4::new(10, 1, 0, 1);
        let day = 86_400u64;
        let flows = vec![
            notify_flow(ip, 1, vec![1], 10, 100),
            notify_flow(ip, 2, vec![2], 20, 120),
            notify_flow(ip, 1, vec![1], day + 10, day + 500),
        ];
        let s = startups_per_day(&flows, 3);
        assert_eq!(s.len(), 3);
        assert!((s[0] - 1.0).abs() < 1e-9, "both devices start on day 0");
        assert!((s[1] - 0.5).abs() < 1e-9, "one of two devices on day 1");
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn holiday_dip_detects_reduced_startups() {
        let ip = Ipv4::new(10, 1, 0, 1);
        let mut flows = Vec::new();
        // Sessions on every ordinary working day for two devices, none on
        // the holidays (days 15, 16, 32, 38).
        for d in 0..42u32 {
            if CaptureCalendar::is_working_day(d) {
                let t = d as u64 * 86_400 + 9 * 3_600;
                flows.push(notify_flow(ip, 1, vec![1], t, t + 3_600));
                flows.push(notify_flow(ip, 2, vec![2], t + 60, t + 3_700));
            }
        }
        // Holidays exist but have zero start-ups.
        let dip = holiday_dip(&flows, 42).expect("dip computable");
        assert_eq!(dip, 0.0);
        // Add a holiday session for one device: dip becomes 0 < x < 1.
        let hday = 32u64 * 86_400 + 10 * 3_600;
        flows.push(notify_flow(ip, 1, vec![1], hday, hday + 1_000));
        let dip = holiday_dip(&flows, 42).expect("dip computable");
        assert!(dip > 0.0 && dip < 1.0, "dip {dip}");
    }

    #[test]
    fn hourly_startups_land_in_right_bin() {
        let ip = Ipv4::new(10, 1, 0, 1);
        // Day 2 is a Monday (working day); 10:30 start.
        let start = 2 * 86_400 + 10 * 3_600 + 1_800;
        let flows = vec![notify_flow(ip, 1, vec![1], start, start + 3 * 3_600)];
        let p = hourly_profiles(&flows, 42);
        assert!(p.startups[10] > 0.0);
        assert_eq!(p.startups[9], 0.0);
        // Active in hours 10..13.
        assert!(p.active[11] > 0.0 && p.active[13] > 0.0);
    }
}
