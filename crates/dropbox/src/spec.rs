//! Provider protocol specifications (ROADMAP item 3).
//!
//! The sync engine in [`crate::client`] is protocol-*invariant*: the
//! transaction ladder (commit → need_blocks → store/retrieve →
//! close_changeset) with its fault recovery, the session state machine and
//! the chunked content transfer work the same for every personal cloud
//! storage service of the paper's era. What differs between providers is captured
//! here as data — a [`ProviderSpec`]:
//!
//! * **chunk size** — Dropbox splits at 4 MB (Sec. 2.1); competitors used
//!   fixed smaller or larger units,
//! * **bundling** — whether small chunks share one storage operation
//!   (Dropbox gained this in v1.4.0, Sec. 4.5.1),
//! * **dedup / delta capability** — Dropbox uploads only unknown chunks
//!   and rsync-style deltas of edited ones; the 2012-era competitors
//!   re-uploaded whole files,
//! * **datacenter placement** — extra RTT of the provider's control and
//!   storage planes relative to the measured Dropbox baseline of Fig. 6
//!   (Sec. 4.2: control in the Dropbox DC, storage on Amazon),
//! * **notification style** — long-poll (Dropbox, Sec. 2.3.1) versus
//!   periodic polling,
//! * **naming** — the DNS surface the probe sees.
//!
//! [`DROPBOX`] reproduces today's byte-identical captures and is the
//! default everywhere; [`SKYDRIVE_LIKE`] and [`GDRIVE_LIKE`] are the
//! competing models driven through the same household sweep by
//! `repro --provider-matrix`.

use crate::client::ClientVersion;
use nettrace::Ipv4;
use simcore::SimDuration;

/// Bundling parameters: how small chunks are packed into one storage
/// operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleParams {
    /// A bundle is packed up to this many payload bytes.
    pub budget: u64,
    /// Chunks at or above this size always travel as single commands.
    pub max_member: u64,
}

/// Whether (and when) a provider bundles small chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bundling {
    /// One command per chunk, always (per-chunk sequential acks).
    Never,
    /// Bundling active for every client generation.
    Always(BundleParams),
    /// Bundling only for v1.4.0-generation clients (the Dropbox rollout
    /// the paper's re-capture measures).
    V14Only(BundleParams),
}

/// How clients learn about remote changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NotifyStyle {
    /// One HTTP long-poll connection held open per session (Dropbox).
    LongPoll,
    /// Periodic short poll connections, one every `period_secs`.
    Poll {
        /// Seconds between change polls.
        period_secs: u64,
    },
}

/// Extra round-trip latency of the provider's datacenters relative to the
/// vantage point's measured Dropbox baseline (`storage_rtt` /
/// `control_rtt` of Fig. 6). Zero for Dropbox by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Added to the control-plane RTT.
    pub control_extra_ms: u64,
    /// Added to the storage-plane RTT.
    pub storage_extra_ms: u64,
}

impl Placement {
    /// Control-plane RTT surcharge.
    pub fn control_extra(&self) -> SimDuration {
        SimDuration::from_millis(self.control_extra_ms)
    }

    /// Storage-plane RTT surcharge.
    pub fn storage_extra(&self) -> SimDuration {
        SimDuration::from_millis(self.storage_extra_ms)
    }
}

/// The DNS surface of a provider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Naming {
    /// The full Dropbox deployment of Table 1 (`client-lb`, `clientX`,
    /// `notifyX`, `dl-clientX`, … under `dropbox.com`), served by
    /// [`dnssim::DnsDirectory::new`].
    DropboxDns,
    /// A flat generic deployment: `sync.<domain>` (control),
    /// `notify.<domain>`, `telemetry.<domain>`, and a rotation pool of
    /// `storeN.<domain>` storage fronts.
    Flat {
        /// Provider domain, e.g. `skydrive-like.example`.
        domain: &'static str,
        /// Number of `storeN` storage fronts.
        storage_pool: u32,
        /// Wildcard certificate common name presented by every server.
        cert: &'static str,
        /// First two octets of the provider's address block.
        ip_base: (u8, u8),
    },
}

/// Everything that distinguishes one provider's sync protocol from
/// another's. The engine consumes specs by shared reference; the three
/// shipped models are the statics [`DROPBOX`], [`SKYDRIVE_LIKE`] and
/// [`GDRIVE_LIKE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProviderSpec {
    /// Display name ("Dropbox", "SkyDrive-like", …).
    pub name: &'static str,
    /// Stable machine-readable key for artifacts and CLI flags.
    pub slug: &'static str,
    /// Content split size: files larger than this are chunked.
    pub chunk_bytes: u64,
    /// Whether the server deduplicates chunks it already holds
    /// (`need_blocks` answers with a subset).
    pub dedup: bool,
    /// Whether edits travel as rsync-style deltas instead of whole
    /// re-compressed chunks.
    pub delta: bool,
    /// Bundling behaviour.
    pub bundling: Bundling,
    /// Client-side commit coalescing window (seconds) — active only while
    /// bundling is (changes detected close together ride one connection).
    pub coalesce_secs: u64,
    /// Datacenter placement relative to the Dropbox baseline.
    pub placement: Placement,
    /// Notification delivery style.
    pub notify: NotifyStyle,
    /// DNS surface.
    pub naming: Naming,
}

/// Dropbox bundle budget of v1.4.0 (chunks are ≤ 4 MB; bundles are packed
/// to the same cap, Sec. 4.5.1).
pub const DROPBOX_BUNDLE: BundleParams = BundleParams {
    budget: 4 * 1024 * 1024,
    max_member: 1024 * 1024,
};

/// The measured Dropbox deployment: 4 MB chunks, dedup + delta, bundling
/// from v1.4.0 on, long-poll notifications, Table 1 DNS. The default spec
/// — every capture run with it is byte-identical to the pre-refactor
/// engine.
pub static DROPBOX: ProviderSpec = ProviderSpec {
    name: "Dropbox",
    slug: "dropbox",
    chunk_bytes: crate::content::CHUNK_SIZE,
    dedup: true,
    delta: true,
    bundling: Bundling::V14Only(DROPBOX_BUNDLE),
    coalesce_secs: 60,
    placement: Placement {
        control_extra_ms: 0,
        storage_extra_ms: 0,
    },
    notify: NotifyStyle::LongPoll,
    naming: Naming::DropboxDns,
};

/// A no-dedup / no-delta fixed-chunk model in the style of 2012-era
/// SkyDrive: 1 MB units, whole-file re-uploads on every edit, periodic
/// change polls, and a single distant datacenter serving both planes.
pub static SKYDRIVE_LIKE: ProviderSpec = ProviderSpec {
    name: "SkyDrive-like",
    slug: "skydrive_like",
    chunk_bytes: 1024 * 1024,
    dedup: false,
    delta: false,
    bundling: Bundling::Always(BundleParams {
        budget: 4 * 1024 * 1024,
        max_member: 1024 * 1024,
    }),
    coalesce_secs: 60,
    placement: Placement {
        control_extra_ms: 18,
        storage_extra_ms: 26,
    },
    notify: NotifyStyle::Poll { period_secs: 300 },
    naming: Naming::Flat {
        domain: "skydrive-like.example",
        storage_pool: 8,
        cert: "*.skydrive-like.example",
        ip_base: (157, 55),
    },
};

/// A no-bundling per-file-commit model in the style of 2012-era Google
/// Drive: large fixed chunks, one commit (and one storage connection) per
/// detected change, no dedup/delta, control and storage co-located on the
/// provider's backbone.
pub static GDRIVE_LIKE: ProviderSpec = ProviderSpec {
    name: "GDrive-like",
    slug: "gdrive_like",
    chunk_bytes: 8 * 1024 * 1024,
    dedup: false,
    delta: false,
    bundling: Bundling::Never,
    coalesce_secs: 0,
    placement: Placement {
        control_extra_ms: 8,
        storage_extra_ms: 10,
    },
    notify: NotifyStyle::LongPoll,
    naming: Naming::Flat {
        domain: "gdrive-like.example",
        storage_pool: 12,
        cert: "*.gdrive-like.example",
        ip_base: (74, 126),
    },
};

/// All shipped provider specs, Dropbox first.
pub static ALL: [&ProviderSpec; 3] = [&DROPBOX, &SKYDRIVE_LIKE, &GDRIVE_LIKE];

/// Look a spec up by its CLI/artifact slug.
pub fn by_slug(slug: &str) -> Option<&'static ProviderSpec> {
    ALL.iter().copied().find(|s| s.slug == slug)
}

impl ProviderSpec {
    /// Bundling parameters in effect for a client generation; `None`
    /// means one command per chunk.
    pub fn bundle_params(&self, version: ClientVersion) -> Option<BundleParams> {
        match self.bundling {
            Bundling::Never => None,
            Bundling::Always(b) => Some(b),
            Bundling::V14Only(b) => (version == ClientVersion::V1_4_0).then_some(b),
        }
    }

    /// The commit-coalescing window for a client generation: bundling
    /// clients merge commits detected within the window into one
    /// transaction; per-chunk clients (and per-file-commit providers)
    /// never coalesce.
    pub fn commit_coalesce(&self, version: ClientVersion) -> SimDuration {
        if self.bundle_params(version).is_some() {
            SimDuration::from_secs(self.coalesce_secs)
        } else {
            SimDuration::ZERO
        }
    }

    /// Certificate common name presented by the provider's servers.
    pub fn cert_cn(&self) -> &'static str {
        match self.naming {
            Naming::DropboxDns => crate::client::CERT_CN,
            Naming::Flat { cert, .. } => cert,
        }
    }

    /// Control-plane FQDN (flat naming only; the Dropbox spec routes
    /// through [`dnssim::DnsDirectory::meta_name`]).
    pub fn control_name(&self) -> String {
        match self.naming {
            Naming::DropboxDns => "client-lb.dropbox.com".to_owned(),
            Naming::Flat { domain, .. } => format!("sync.{domain}"),
        }
    }

    /// Notification FQDN (flat naming only).
    pub fn notify_name(&self) -> String {
        match self.naming {
            Naming::DropboxDns => "notify1.dropbox.com".to_owned(),
            Naming::Flat { domain, .. } => format!("notify.{domain}"),
        }
    }

    /// Telemetry/crash-report FQDN (flat naming only).
    pub fn telemetry_name(&self) -> String {
        match self.naming {
            Naming::DropboxDns => "d.dropbox.com".to_owned(),
            Naming::Flat { domain, .. } => format!("telemetry.{domain}"),
        }
    }

    /// Storage front for rotation `cursor` (flat naming only; the Dropbox
    /// spec rotates the per-device `dl-clientX` alias lists of Sec. 2.4).
    pub fn storage_name(&self, cursor: usize) -> String {
        match self.naming {
            Naming::DropboxDns => format!("dl-client{}.dropbox.com", cursor + 1),
            Naming::Flat {
                domain,
                storage_pool,
                ..
            } => format!(
                "store{}.{domain}",
                1 + (cursor as u32 % storage_pool.max(1))
            ),
        }
    }

    /// Whether `name` addresses the provider's storage plane (drives the
    /// control-vs-storage RTT split of Fig. 6 in the driver).
    pub fn is_storage_name(&self, name: &str) -> bool {
        match self.naming {
            Naming::DropboxDns => matches!(
                dnssim::DnsDirectory::role_of_name(name),
                Some(r) if r.is_amazon()
            ),
            Naming::Flat { domain, .. } => {
                name.starts_with("store")
                    && name.ends_with(domain)
                    && (name.starts_with("store.")
                        || name
                            .as_bytes()
                            .get(5)
                            .copied()
                            .map(|b| b.is_ascii_digit())
                            .unwrap_or(false))
            }
        }
    }

    /// DNS registrations this spec needs beyond the Dropbox deployment.
    /// Empty for [`Naming::DropboxDns`], so default runs never touch the
    /// directory; flat providers get deterministic addresses in their own
    /// block (control/notify/telemetry on `.0.x`, storage fronts on
    /// `.1.x`).
    pub fn dns_entries(&self) -> Vec<(String, Ipv4)> {
        match self.naming {
            Naming::DropboxDns => Vec::new(),
            Naming::Flat {
                domain,
                storage_pool,
                ip_base: (a, b),
                ..
            } => {
                let mut out = vec![
                    (format!("sync.{domain}"), Ipv4::new(a, b, 0, 1)),
                    (format!("notify.{domain}"), Ipv4::new(a, b, 0, 2)),
                    (format!("telemetry.{domain}"), Ipv4::new(a, b, 0, 3)),
                ];
                for i in 0..storage_pool {
                    out.push((
                        format!("store{}.{domain}", i + 1),
                        Ipv4::new(a, b, 1 + (i / 250) as u8, 1 + (i % 250) as u8),
                    ));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropbox_spec_matches_legacy_engine_knobs() {
        assert_eq!(DROPBOX.chunk_bytes, crate::content::CHUNK_SIZE);
        assert!(DROPBOX.dedup && DROPBOX.delta);
        assert_eq!(DROPBOX.bundle_params(ClientVersion::V1_2_52), None);
        assert_eq!(
            DROPBOX.bundle_params(ClientVersion::V1_4_0),
            Some(DROPBOX_BUNDLE)
        );
        assert_eq!(
            DROPBOX.commit_coalesce(ClientVersion::V1_2_52),
            SimDuration::ZERO
        );
        assert_eq!(
            DROPBOX.commit_coalesce(ClientVersion::V1_4_0),
            SimDuration::from_secs(60)
        );
        assert_eq!(DROPBOX.placement.control_extra(), SimDuration::ZERO);
        assert_eq!(DROPBOX.placement.storage_extra(), SimDuration::ZERO);
        assert!(DROPBOX.dns_entries().is_empty());
        assert_eq!(DROPBOX.cert_cn(), "*.dropbox.com");
    }

    #[test]
    fn competing_specs_differ_where_the_paper_says() {
        // SkyDrive-like: no dedup/delta, fixed small chunks, polls.
        assert!(!SKYDRIVE_LIKE.dedup && !SKYDRIVE_LIKE.delta);
        assert!(SKYDRIVE_LIKE.chunk_bytes < DROPBOX.chunk_bytes);
        assert!(matches!(SKYDRIVE_LIKE.notify, NotifyStyle::Poll { .. }));
        // GDrive-like: never bundles, never coalesces (per-file commits).
        assert_eq!(GDRIVE_LIKE.bundle_params(ClientVersion::V1_4_0), None);
        assert_eq!(
            GDRIVE_LIKE.commit_coalesce(ClientVersion::V1_4_0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn flat_naming_produces_resolvable_consistent_names() {
        for spec in [&SKYDRIVE_LIKE, &GDRIVE_LIKE] {
            let entries = spec.dns_entries();
            let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&spec.control_name().as_str()));
            assert!(names.contains(&spec.notify_name().as_str()));
            assert!(names.contains(&spec.telemetry_name().as_str()));
            for cursor in 0..20 {
                let s = spec.storage_name(cursor);
                assert!(names.contains(&s.as_str()), "{s} not registered");
                assert!(spec.is_storage_name(&s), "{s} not storage");
            }
            assert!(!spec.is_storage_name(&spec.control_name()));
            assert!(!spec.is_storage_name(&spec.notify_name()));
            // No generic name collides with the Dropbox zone.
            assert!(names.iter().all(|n| !n.ends_with(".dropbox.com")));
            // Addresses are unique within the spec.
            let mut ips: Vec<_> = entries.iter().map(|(_, ip)| *ip).collect();
            ips.sort_unstable();
            ips.dedup();
            assert_eq!(ips.len(), entries.len());
        }
    }

    #[test]
    fn slug_lookup_covers_all_specs() {
        for spec in ALL {
            assert_eq!(by_slug(spec.slug), Some(spec));
        }
        assert_eq!(by_slug("nope"), None);
    }

    #[test]
    fn storage_rotation_cycles_the_pool() {
        let pool = match SKYDRIVE_LIKE.naming {
            Naming::Flat { storage_pool, .. } => storage_pool as usize,
            _ => unreachable!(),
        };
        let names: std::collections::BTreeSet<String> = (0..3 * pool)
            .map(|c| SKYDRIVE_LIKE.storage_name(c))
            .collect();
        assert_eq!(names.len(), pool, "rotation must cycle the whole pool");
    }
}
