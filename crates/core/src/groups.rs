//! Household aggregation and the user-group taxonomy (Sec. 5.1, Table 5).
//!
//! Home customers have static IP addresses, so an address identifies a
//! household. Per household the paper accumulates the SSL-adjusted store
//! and retrieve volumes of the Dropbox client's storage flows, the devices
//! seen behind the address (from notification `host_int`s), the days with
//! any Dropbox activity, and the sessions; it then sorts households into
//! four groups:
//!
//! * **occasional** — less than 10 kB in both directions,
//! * **upload-only** — more than three orders of magnitude more stored
//!   than retrieved,
//! * **download-only** — the converse,
//! * **heavy** — everything else.

use crate::classify::{dropbox_role, ssl_adjusted, storage_tag, DropboxRole, StorageTag};
use crate::sessions::MergedSessionsAcc;
use crate::stream::{run_one, Accumulate};
use nettrace::{FlowRecord, Ipv4};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;

/// Activity of one household (one client address).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HouseholdUsage {
    /// Whether the Dropbox *client application* was observed (storage,
    /// meta-data, or notification traffic). Households that only touch the
    /// web interface are excluded from the Sec. 5 analyses, which "account
    /// only for transfers made from the Dropbox client".
    pub client_seen: bool,
    /// SSL-adjusted bytes stored from this address (client storage flows).
    pub store_bytes: u64,
    /// SSL-adjusted bytes retrieved to this address.
    pub retrieve_bytes: u64,
    /// Devices observed behind the address.
    pub devices: BTreeSet<u64>,
    /// Days (capture-day indices) with any Dropbox activity.
    pub days_online: BTreeSet<u32>,
    /// Merged device sessions started from this address.
    pub sessions: u32,
}

impl HouseholdUsage {
    /// Fold in the usage the same address showed later in the stream.
    fn absorb(&mut self, later: HouseholdUsage) {
        self.client_seen |= later.client_seen;
        self.store_bytes += later.store_bytes;
        self.retrieve_bytes += later.retrieve_bytes;
        self.devices.extend(later.devices);
        self.days_online.extend(later.days_online);
        self.sessions += later.sessions;
    }
}

/// The four user groups of Sec. 5.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum UserGroup {
    /// Clients left running, hardly any data exchanged.
    Occasional,
    /// Predominantly submitting content.
    UploadOnly,
    /// Predominantly fetching content.
    DownloadOnly,
    /// Both directions in volume.
    Heavy,
}

impl UserGroup {
    /// All groups in Table 5's row order.
    pub const ALL: [UserGroup; 4] = [
        UserGroup::Occasional,
        UserGroup::UploadOnly,
        UserGroup::DownloadOnly,
        UserGroup::Heavy,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            UserGroup::Occasional => "Occasional",
            UserGroup::UploadOnly => "Upload-only",
            UserGroup::DownloadOnly => "Download-only",
            UserGroup::Heavy => "Heavy",
        }
    }
}

/// Threshold below which a direction counts as "no data" (10 kB).
pub const OCCASIONAL_THRESHOLD: u64 = 10_000;
/// Ratio qualifying as "orders of magnitude" difference (10³).
pub const DOMINANCE_RATIO: f64 = 1_000.0;

/// Classify a household by the paper's heuristics.
pub fn group_of(h: &HouseholdUsage) -> UserGroup {
    let up = h.store_bytes;
    let down = h.retrieve_bytes;
    if up < OCCASIONAL_THRESHOLD && down < OCCASIONAL_THRESHOLD {
        return UserGroup::Occasional;
    }
    let upf = up.max(1) as f64;
    let downf = down.max(1) as f64;
    if upf / downf >= DOMINANCE_RATIO {
        UserGroup::UploadOnly
    } else if downf / upf >= DOMINANCE_RATIO {
        UserGroup::DownloadOnly
    } else {
        UserGroup::Heavy
    }
}

/// Streaming household aggregation: per-flow usage folds in stream
/// order; session counts come from the embedded merged-session
/// accumulator at `finish`, after which web-only households are dropped
/// (Sec. 5 accounts only for client transfers).
#[derive(Default)]
pub struct HouseholdsAcc {
    map: BTreeMap<Ipv4, HouseholdUsage>,
    sessions: MergedSessionsAcc,
}

impl Accumulate for HouseholdsAcc {
    type Output = BTreeMap<Ipv4, HouseholdUsage>;

    fn observe(&mut self, f: &FlowRecord) {
        self.sessions.observe(f);
        let Some(role) = dropbox_role(f) else {
            return;
        };
        let h = self.map.entry(f.key.client.ip).or_default();
        h.days_online.insert(f.first_syn.day());
        match role {
            DropboxRole::ClientStorage => {
                h.client_seen = true;
                let (up, down) = ssl_adjusted(f);
                match storage_tag(f) {
                    StorageTag::Store => h.store_bytes += up,
                    StorageTag::Retrieve => h.retrieve_bytes += down,
                }
            }
            DropboxRole::ClientControl => {
                h.client_seen = true;
            }
            DropboxRole::NotifyControl => {
                h.client_seen = true;
                if let Some(meta) = &f.notify {
                    h.devices.insert(meta.host_int);
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        for (ip, h) in later.map {
            match self.map.get_mut(&ip) {
                Some(mine) => mine.absorb(h),
                None => {
                    self.map.insert(ip, h);
                }
            }
        }
        self.sessions.merge(later.sessions);
    }

    fn finish(self) -> BTreeMap<Ipv4, HouseholdUsage> {
        let mut map = self.map;
        // Session counts come from the merged notification sessions.
        for s in self.sessions.finish() {
            if let Some(h) = map.get_mut(&s.household) {
                h.sessions += 1;
            }
        }
        // Only households running the client participate (Sec. 5).
        map.retain(|_, h| h.client_seen);
        map
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>() - size_of::<MergedSessionsAcc>()
            + self.sessions.state_bytes()
            + self
                .map
                .values()
                .map(|h| {
                    size_of::<(Ipv4, HouseholdUsage)>()
                        + h.devices.len() * size_of::<u64>()
                        + h.days_online.len() * size_of::<u32>()
                })
                .sum::<usize>()
    }
}

/// Aggregate a dataset's flows into per-household usage.
pub fn aggregate_households(flows: &[FlowRecord]) -> BTreeMap<Ipv4, HouseholdUsage> {
    run_one(flows, HouseholdsAcc::default())
}

/// One row of Table 5.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupRow {
    /// Fraction of household addresses in the group.
    pub addr_frac: f64,
    /// Fraction of sessions contributed by the group.
    pub session_frac: f64,
    /// Total retrieved bytes.
    pub retrieve_bytes: u64,
    /// Total stored bytes.
    pub store_bytes: u64,
    /// Average days on-line.
    pub avg_days: f64,
    /// Average devices per household.
    pub avg_devices: f64,
}

/// Compute Table 5 for a set of households.
pub fn table5(households: &BTreeMap<Ipv4, HouseholdUsage>) -> BTreeMap<UserGroup, GroupRow> {
    let total_addrs = households.len().max(1) as f64;
    let total_sessions: u64 = households.values().map(|h| h.sessions as u64).sum();
    let mut rows: BTreeMap<UserGroup, GroupRow> = UserGroup::ALL
        .into_iter()
        .map(|g| (g, GroupRow::default()))
        .collect();
    let mut counts: BTreeMap<UserGroup, u64> = BTreeMap::new();
    let mut day_sums: BTreeMap<UserGroup, u64> = BTreeMap::new();
    let mut dev_sums: BTreeMap<UserGroup, u64> = BTreeMap::new();

    for h in households.values() {
        let g = group_of(h);
        let row = rows.get_mut(&g).expect("all groups present");
        row.retrieve_bytes += h.retrieve_bytes;
        row.store_bytes += h.store_bytes;
        row.session_frac += h.sessions as f64;
        *counts.entry(g).or_default() += 1;
        *day_sums.entry(g).or_default() += h.days_online.len() as u64;
        // Households without an observed notify flow still have ≥1 device.
        *dev_sums.entry(g).or_default() += h.devices.len().max(1) as u64;
    }
    for (g, row) in rows.iter_mut() {
        let n = counts.get(g).copied().unwrap_or(0);
        row.addr_frac = n as f64 / total_addrs;
        row.session_frac = if total_sessions > 0 {
            row.session_frac / total_sessions as f64
        } else {
            0.0
        };
        if n > 0 {
            row.avg_days = day_sums[g] as f64 / n as f64;
            row.avg_devices = dev_sums[g] as f64 / n as f64;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(store: u64, retrieve: u64) -> HouseholdUsage {
        HouseholdUsage {
            store_bytes: store,
            retrieve_bytes: retrieve,
            ..HouseholdUsage::default()
        }
    }

    #[test]
    fn group_heuristics_match_section_5_1() {
        assert_eq!(group_of(&usage(0, 0)), UserGroup::Occasional);
        assert_eq!(group_of(&usage(9_999, 9_999)), UserGroup::Occasional);
        assert_eq!(
            group_of(&usage(1_000_000_000, 900_000)),
            UserGroup::UploadOnly
        );
        assert_eq!(
            group_of(&usage(900_000, 1_000_000_000)),
            UserGroup::DownloadOnly
        );
        assert_eq!(group_of(&usage(50_000_000, 20_000_000)), UserGroup::Heavy);
        // The paper's example: 1 GB vs 1 MB is exactly 3 orders.
        assert_eq!(
            group_of(&usage(1_000_000_000, 1_000_000)),
            UserGroup::UploadOnly
        );
    }

    #[test]
    fn zero_direction_counts_as_dominant() {
        assert_eq!(group_of(&usage(50_000, 0)), UserGroup::UploadOnly);
        assert_eq!(group_of(&usage(0, 50_000)), UserGroup::DownloadOnly);
    }

    #[test]
    fn boundary_below_threshold_is_occasional_even_if_skewed() {
        // 9 kB up, nothing down: still occasional (both under 10 kB).
        assert_eq!(group_of(&usage(9_000, 0)), UserGroup::Occasional);
    }

    #[test]
    fn table5_fractions_sum_to_one() {
        let mut households = BTreeMap::new();
        let specs = [
            (0u64, 0u64),
            (5_000, 2_000),
            (80_000_000, 10_000),
            (20_000, 90_000_000),
            (40_000_000, 30_000_000),
            (60_000_000, 50_000_000),
        ];
        for (i, &(s, r)) in specs.iter().enumerate() {
            let mut h = usage(s, r);
            h.sessions = (i + 1) as u32;
            h.days_online.insert(i as u32);
            households.insert(Ipv4::new(10, 0, 0, i as u8), h);
        }
        let t = table5(&households);
        let addr_sum: f64 = t.values().map(|r| r.addr_frac).sum();
        let sess_sum: f64 = t.values().map(|r| r.session_frac).sum();
        assert!((addr_sum - 1.0).abs() < 1e-9);
        assert!((sess_sum - 1.0).abs() < 1e-9);
        assert_eq!(t[&UserGroup::Occasional].addr_frac, 2.0 / 6.0);
        assert_eq!(t[&UserGroup::Heavy].addr_frac, 2.0 / 6.0);
        // Heavy households hold the volume.
        assert!(t[&UserGroup::Heavy].store_bytes > t[&UserGroup::UploadOnly].store_bytes);
    }

    #[test]
    fn table5_empty_input() {
        let t = table5(&BTreeMap::new());
        assert_eq!(t.len(), 4);
        assert!(t.values().all(|r| r.addr_frac == 0.0));
    }
}
