//! User inference from notification payloads (Sec. 2.3.1).
//!
//! "Different devices belonging to a single user can be inferred as well,
//! by comparing namespace lists." Devices of one account always share the
//! account's root namespace, so two devices behind the same address whose
//! advertised namespace lists intersect belong, with high confidence, to
//! the same user. This module implements that inference as a union-find
//! over the monitor's notification metadata, and the experiment harness
//! scores it against generator ground truth.

use crate::classify::{dropbox_role, DropboxRole};
use crate::stream::{run_one, Accumulate};
use nettrace::{FlowRecord, Ipv4};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;

/// Union-find over device ids.
struct Dsu {
    parent: BTreeMap<u64, u64>,
}

impl Dsu {
    fn new() -> Self {
        Dsu {
            parent: BTreeMap::new(),
        }
    }

    fn find(&mut self, x: u64) -> u64 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: u64, b: u64) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Streaming account inference: keeps the last observed namespace set
/// per (address, device) — state bounded by the device population — and
/// runs the union-find at `finish`.
#[derive(Default)]
pub struct InferUsersAcc {
    per_addr: BTreeMap<Ipv4, BTreeMap<u64, BTreeSet<u64>>>,
}

impl Accumulate for InferUsersAcc {
    type Output = Vec<Vec<u64>>;

    fn observe(&mut self, f: &FlowRecord) {
        if dropbox_role(f) != Some(DropboxRole::NotifyControl) {
            return;
        }
        if let Some(meta) = &f.notify {
            self.per_addr
                .entry(f.key.client.ip)
                .or_default()
                .insert(meta.host_int, meta.namespaces.iter().copied().collect());
        }
    }

    fn merge(&mut self, later: Self) {
        // A later namespace list replaces an earlier one, as in `observe`.
        for (ip, devices) in later.per_addr {
            self.per_addr.entry(ip).or_default().extend(devices);
        }
    }

    fn finish(self) -> Vec<Vec<u64>> {
        let mut dsu = Dsu::new();
        for devices in self.per_addr.values() {
            let list: Vec<(&u64, &BTreeSet<u64>)> = devices.iter().collect();
            for (i, (&a, nss_a)) in list.iter().enumerate() {
                dsu.find(a); // make sure singletons appear
                for (&b, nss_b) in list.iter().skip(i + 1) {
                    if nss_a.intersection(nss_b).next().is_some() {
                        dsu.union(a, b);
                    }
                }
            }
        }

        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let devices: Vec<u64> = dsu.parent.keys().copied().collect();
        for d in devices {
            let root = dsu.find(d);
            groups.entry(root).or_default().push(d);
        }
        let mut out: Vec<Vec<u64>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort();
        out
    }

    fn state_bytes(&self) -> usize {
        size_of::<Self>()
            + self
                .per_addr
                .values()
                .map(|devices| {
                    size_of::<(Ipv4, BTreeMap<u64, BTreeSet<u64>>)>()
                        + devices
                            .values()
                            .map(|nss| {
                                size_of::<(u64, BTreeSet<u64>)>() + nss.len() * size_of::<u64>()
                            })
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Infer user accounts: groups of device ids believed to belong to the
/// same user. Devices are joined when they appear behind the same client
/// address and their namespace lists share at least one namespace.
pub fn infer_users(flows: &[FlowRecord]) -> Vec<Vec<u64>> {
    run_one(flows, InferUsersAcc::default())
}

/// Score inferred user groups against ground truth: returns
/// `(pairwise_precision, pairwise_recall)` over same-user device pairs.
pub fn score_users(inferred: &[Vec<u64>], truth: &[Vec<u64>]) -> (f64, f64) {
    let pairs = |groups: &[Vec<u64>]| -> BTreeSet<(u64, u64)> {
        let mut set = BTreeSet::new();
        for g in groups {
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    set.insert((g[i].min(g[j]), g[i].max(g[j])));
                }
            }
        }
        set
    };
    let inf = pairs(inferred);
    let tru = pairs(truth);
    if inf.is_empty() && tru.is_empty() {
        return (1.0, 1.0);
    }
    let hit = inf.intersection(&tru).count() as f64;
    let precision = if inf.is_empty() {
        1.0
    } else {
        hit / inf.len() as f64
    };
    let recall = if tru.is_empty() {
        1.0
    } else {
        hit / tru.len() as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
    use nettrace::{Endpoint, FlowKey};
    use simcore::SimTime;

    fn notify(ip: Ipv4, host_int: u64, namespaces: Vec<u64>) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(ip, 40_000 + host_int as u16),
                Endpoint::new(Ipv4::new(199, 47, 216, 33), 80),
            ),
            first_syn: SimTime::from_secs(host_int),
            last_packet: SimTime::from_secs(host_int + 100),
            up: DirStats::default(),
            down: DirStats::default(),
            min_rtt_ms: None,
            rtt_samples: 0,
            tls_sni: None,
            tls_certificate_cn: None,
            http_host: Some("notify1.dropbox.com".into()),
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
    fn shared_root_joins_devices() {
        let ip = Ipv4::new(10, 0, 0, 1);
        let flows = vec![
            notify(ip, 1, vec![100, 5]),
            notify(ip, 2, vec![100, 7]),
            notify(ip, 3, vec![200]), // a flatmate's account
        ];
        let groups = infer_users(&flows);
        assert_eq!(groups, vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn no_join_across_addresses() {
        let flows = vec![
            notify(Ipv4::new(10, 0, 0, 1), 1, vec![100]),
            notify(Ipv4::new(10, 0, 0, 2), 2, vec![100]),
        ];
        // Same namespace (a shared folder) but different households: the
        // conservative heuristic keeps them separate.
        let groups = infer_users(&flows);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn transitive_joining() {
        let ip = Ipv4::new(10, 0, 0, 1);
        let flows = vec![
            notify(ip, 1, vec![100]),
            notify(ip, 2, vec![100, 101]),
            notify(ip, 3, vec![101]),
        ];
        let groups = infer_users(&flows);
        assert_eq!(groups, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn scoring_perfect_and_partial() {
        let truth = vec![vec![1, 2, 3], vec![4]];
        assert_eq!(score_users(&truth, &truth), (1.0, 1.0));
        // Missing one device from the group: recall drops, precision holds.
        let inferred = vec![vec![1, 2], vec![3], vec![4]];
        let (p, r) = score_users(&inferred, &truth);
        assert_eq!(p, 1.0);
        assert!((r - 1.0 / 3.0).abs() < 1e-9);
        // Over-merging: precision drops.
        let inferred = vec![vec![1, 2, 3, 4]];
        let (p, r) = score_users(&inferred, &truth);
        assert!(p < 1.0 && r == 1.0);
    }

    #[test]
    fn empty_input() {
        assert!(infer_users(&[]).is_empty());
        assert_eq!(score_users(&[], &[]), (1.0, 1.0));
    }
}
