//! Flow classification from wire-visible names and byte counts.
//!
//! Three classifiers, layered exactly as in the paper:
//!
//! 1. **Provider attribution** (Sec. 3.3): which cloud/storage service a
//!    flow belongs to, from the TLS server name and/or DNS FQDN.
//! 2. **Dropbox server roles** (Table 1 / Fig. 4): which part of the
//!    Dropbox architecture the server implements.
//! 3. **Storage-flow tagging** (Appendix A.2): classifying `dl-clientX`
//!    flows as *store* or *retrieve* by the byte counts of the two
//!    directions, using the empirical separator
//!    `f(u) = 0.67·(u − 294) + 4103`.

use nettrace::FlowRecord;

/// SSL handshake bytes contributed by clients (Appendix A.2).
pub const SSL_CLIENT_OVERHEAD: u64 = 294;
/// SSL handshake bytes contributed by servers (Appendix A.2).
pub const SSL_SERVER_OVERHEAD: u64 = 4103;

/// Cloud-storage (and reference) services compared in Sec. 3.3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Provider {
    /// Dropbox (all `*.dropbox.com` services).
    Dropbox,
    /// Apple iCloud.
    ICloud,
    /// Microsoft SkyDrive.
    SkyDrive,
    /// Google Drive (launched on 2012-04-24, mid-capture).
    GoogleDrive,
    /// Aggregated smaller providers (SugarSync, Box.com, UbuntuOne, …).
    OtherCloud,
    /// YouTube — the traffic-volume yardstick of Fig. 3.
    YouTube,
    /// Everything else.
    Unknown,
}

impl Provider {
    /// All cloud-storage providers (excluding YouTube/Unknown).
    pub const CLOUD: [Provider; 5] = [
        Provider::Dropbox,
        Provider::ICloud,
        Provider::SkyDrive,
        Provider::GoogleDrive,
        Provider::OtherCloud,
    ];

    /// Display label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Provider::Dropbox => "Dropbox",
            Provider::ICloud => "iCloud",
            Provider::SkyDrive => "SkyDrive",
            Provider::GoogleDrive => "Google Drive",
            Provider::OtherCloud => "Others",
            Provider::YouTube => "YouTube",
            Provider::Unknown => "Unknown",
        }
    }
}

/// The names the services used in 2012, in matching order.
const SUFFIXES: [(&str, Provider); 15] = [
    ("dropbox.com", Provider::Dropbox),
    ("icloud.com", Provider::ICloud),
    ("me.com", Provider::ICloud),
    ("livefilestore.com", Provider::SkyDrive),
    ("skydrive.live.com", Provider::SkyDrive),
    ("storage.live.com", Provider::SkyDrive),
    ("drive.google.com", Provider::GoogleDrive),
    ("docs.google.com", Provider::GoogleDrive),
    ("clients6.google.com", Provider::GoogleDrive),
    ("sugarsync.com", Provider::OtherCloud),
    ("box.com", Provider::OtherCloud),
    ("one.ubuntu.com", Provider::OtherCloud),
    ("youtube.com", Provider::YouTube),
    ("googlevideo.com", Provider::YouTube),
    ("ytimg.com", Provider::YouTube),
];

/// Attribute a server name to a provider: the first suffix it equals or
/// ends with after a dot. Runs per record, so it must not allocate.
pub fn provider_of_name(name: &str) -> Provider {
    SUFFIXES
        .iter()
        .find(|(s, _)| {
            name.strip_suffix(s)
                .is_some_and(|rest| rest.is_empty() || rest.ends_with('.'))
        })
        .map_or(Provider::Unknown, |&(_, p)| p)
}

/// Attribute a flow to a provider using the best available name
/// (FQDN → SNI → certificate CN → HTTP host), as Sec. 3.1 describes. A
/// wildcard certificate CN (`*.dropbox.com`) needs no special case: its
/// `*.` label ends with a dot like any other.
pub fn provider_of(flow: &FlowRecord) -> Provider {
    flow.server_name()
        .map_or(Provider::Unknown, provider_of_name)
}

/// Dropbox server-role groups as presented in Fig. 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DropboxRole {
    /// `dl-clientX` — client storage.
    ClientStorage,
    /// `dl` and `dl-web` — web storage (direct links + web interface).
    WebStorage,
    /// `api-content` — API storage.
    ApiStorage,
    /// `client-lb`/`clientX` — client control (meta-data).
    ClientControl,
    /// `notifyX` — notification control.
    NotifyControl,
    /// `www` — web control.
    WebControl,
    /// `d` and `dl-debugX` — system logs.
    SystemLog,
    /// `api` and anything unrecognised under `dropbox.com`.
    Others,
}

impl DropboxRole {
    /// All roles in Fig. 4's legend order.
    pub const ALL: [DropboxRole; 8] = [
        DropboxRole::ClientStorage,
        DropboxRole::WebStorage,
        DropboxRole::ApiStorage,
        DropboxRole::ClientControl,
        DropboxRole::NotifyControl,
        DropboxRole::WebControl,
        DropboxRole::SystemLog,
        DropboxRole::Others,
    ];

    /// Display label as in Fig. 4.
    pub fn label(self) -> &'static str {
        match self {
            DropboxRole::ClientStorage => "Client (storage)",
            DropboxRole::WebStorage => "Web (storage)",
            DropboxRole::ApiStorage => "API (storage)",
            DropboxRole::ClientControl => "Client (control)",
            DropboxRole::NotifyControl => "Notify (control)",
            DropboxRole::WebControl => "Web (control)",
            DropboxRole::SystemLog => "System log (all)",
            DropboxRole::Others => "Others",
        }
    }
}

/// Role of a Dropbox flow, or `None` when the flow is not Dropbox.
pub fn dropbox_role(flow: &FlowRecord) -> Option<DropboxRole> {
    let name = flow
        .server_name()
        .filter(|&n| provider_of_name(n) == Provider::Dropbox)?;
    let host = name.strip_suffix(".dropbox.com").unwrap_or(name);
    Some(match host {
        h if h.starts_with("dl-client") => DropboxRole::ClientStorage,
        "dl" | "dl-web" => DropboxRole::WebStorage,
        "api-content" => DropboxRole::ApiStorage,
        "client-lb" => DropboxRole::ClientControl,
        h if h.starts_with("client") && !h.contains('-') => DropboxRole::ClientControl,
        h if h.starts_with("notify") => DropboxRole::NotifyControl,
        "www" => DropboxRole::WebControl,
        "d" => DropboxRole::SystemLog,
        h if h.starts_with("dl-debug") => DropboxRole::SystemLog,
        _ => DropboxRole::Others,
    })
}

/// Store/retrieve tag of a client-storage flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageTag {
    /// The flow uploaded chunks.
    Store,
    /// The flow downloaded chunks.
    Retrieve,
}

/// The empirical separator of Appendix A.2: a storage flow with `u`
/// uploaded bytes is a *store* when its download stays below `f(u)`.
///
/// ```
/// use dropbox_analysis::classify::f_u;
/// // A 1 MB upload answered only by handshake + OKs sits far below f(u).
/// assert!(4103.0 + 10.0 * 309.0 < f_u(1_000_000));
/// ```
pub fn f_u(uploaded: u64) -> f64 {
    0.67 * (uploaded as f64 - 294.0) + 4103.0
}

/// Tag a client-storage flow as store or retrieve from its byte counts.
pub fn storage_tag(flow: &FlowRecord) -> StorageTag {
    if (flow.down.bytes as f64) < f_u(flow.up.bytes) {
        StorageTag::Store
    } else {
        StorageTag::Retrieve
    }
}

/// Payload bytes of a storage flow with the typical SSL overheads
/// subtracted, per direction — the quantity plotted in Figs. 9, 11 and 20.
pub fn ssl_adjusted(flow: &FlowRecord) -> (u64, u64) {
    (
        flow.up.bytes.saturating_sub(SSL_CLIENT_OVERHEAD),
        flow.down.bytes.saturating_sub(SSL_SERVER_OVERHEAD),
    )
}

/// The transferred size of a tagged storage flow (SSL-adjusted bytes in
/// the transfer direction).
pub fn transfer_size(flow: &FlowRecord) -> u64 {
    let (up, down) = ssl_adjusted(flow);
    match storage_tag(flow) {
        StorageTag::Store => up,
        StorageTag::Retrieve => down,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::{DirStats, FlowClose};
    use nettrace::{Endpoint, FlowKey, Ipv4};
    use simcore::SimTime;
    use std::collections::BTreeSet;

    fn flow(name: &str, up: u64, down: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
                Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
            ),
            first_syn: SimTime::EPOCH,
            last_packet: SimTime::from_secs(10),
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

    #[test]
    fn provider_suffixes() {
        assert_eq!(
            provider_of_name("dl-client3.dropbox.com"),
            Provider::Dropbox
        );
        assert_eq!(provider_of_name("p04-content.icloud.com"), Provider::ICloud);
        assert_eq!(
            provider_of_name("duc281.livefilestore.com"),
            Provider::SkyDrive
        );
        assert_eq!(provider_of_name("drive.google.com"), Provider::GoogleDrive);
        assert_eq!(provider_of_name("api.sugarsync.com"), Provider::OtherCloud);
        assert_eq!(provider_of_name("r3.youtube.com"), Provider::YouTube);
        assert_eq!(provider_of_name("example.org"), Provider::Unknown);
        // No substring tricks: "dropbox.com.evil.org" must not match.
        assert_eq!(provider_of_name("dropbox.com.evil.org"), Provider::Unknown);
        // A suffix glued on without a dot is a different domain.
        assert_eq!(provider_of_name("xdropbox.com"), Provider::Unknown);
        assert_eq!(provider_of_name("mybox.com"), Provider::Unknown);
        assert_eq!(provider_of_name("home.com"), Provider::Unknown);
        assert_eq!(provider_of_name(""), Provider::Unknown);
    }

    /// The matcher as first written, with one `format!` per suffix tried:
    /// the reference the suffix table must agree with.
    fn reference_provider_of_name(name: &str) -> Provider {
        let has = |s: &str| name == s || name.ends_with(&format!(".{s}"));
        if has("dropbox.com") {
            Provider::Dropbox
        } else if has("icloud.com") || has("me.com") {
            Provider::ICloud
        } else if has("livefilestore.com") || has("skydrive.live.com") || has("storage.live.com") {
            Provider::SkyDrive
        } else if has("drive.google.com") || has("docs.google.com") || has("clients6.google.com") {
            Provider::GoogleDrive
        } else if has("sugarsync.com") || has("box.com") || has("one.ubuntu.com") {
            Provider::OtherCloud
        } else if has("youtube.com") || has("googlevideo.com") || has("ytimg.com") {
            Provider::YouTube
        } else {
            Provider::Unknown
        }
    }

    /// `provider_of` as first written: the wildcard label is dropped
    /// before matching.
    fn reference_provider_of(flow: &FlowRecord) -> Provider {
        match flow.server_name() {
            Some(name) => reference_provider_of_name(name.strip_prefix("*.").unwrap_or(name)),
            None => Provider::Unknown,
        }
    }

    /// `dropbox_role` as first written, as an `if` chain.
    fn reference_dropbox_role(flow: &FlowRecord) -> Option<DropboxRole> {
        if reference_provider_of(flow) != Provider::Dropbox {
            return None;
        }
        let name = flow.server_name()?;
        let host = name.strip_suffix(".dropbox.com").unwrap_or(name);
        Some(if host.starts_with("dl-client") {
            DropboxRole::ClientStorage
        } else if host == "dl" || host == "dl-web" {
            DropboxRole::WebStorage
        } else if host == "api-content" {
            DropboxRole::ApiStorage
        } else if host == "client-lb" || (host.starts_with("client") && !host.contains('-')) {
            DropboxRole::ClientControl
        } else if host.starts_with("notify") {
            DropboxRole::NotifyControl
        } else if host == "www" {
            DropboxRole::WebControl
        } else if host == "d" || host.starts_with("dl-debug") {
            DropboxRole::SystemLog
        } else {
            DropboxRole::Others
        })
    }

    /// A random label: often a role prefix or the tail of a table suffix
    /// (`box`, `me`, `live`), so glued and nested names hit the boundaries.
    fn label(rng: &mut simcore::Rng) -> String {
        const TRICKY: [&str; 18] = [
            "box",
            "me",
            "ho",
            "live",
            "google",
            "com",
            "x",
            "*",
            "dl-client",
            "dl",
            "dl-web",
            "api-content",
            "client-lb",
            "client",
            "notify",
            "www",
            "dl-debug",
            "d",
        ];
        let mut l = match rng.below(3) {
            0 => String::new(),
            _ => (*rng.pick(&TRICKY)).to_owned(),
        };
        if l.is_empty() || rng.chance(0.3) {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789-";
            for _ in 0..rng.range_u64(1, 4) {
                l.push(*rng.pick(alphabet) as char);
            }
        }
        l
    }

    /// A name around one of the table's suffixes (half of them Dropbox's):
    /// bare, behind 1–3 labels, glued on without a dot or behind a leading
    /// dot, optionally followed by a trailing label; sometimes the empty
    /// string.
    fn name_near_a_suffix(rng: &mut simcore::Rng) -> String {
        if rng.chance(0.02) {
            return String::new();
        }
        let mut name = match rng.below(5) {
            0 => String::new(),
            1 | 2 => {
                let n = if rng.chance(0.5) {
                    1
                } else {
                    rng.range_u64(2, 4)
                };
                (0..n).map(|_| label(rng) + ".").collect()
            }
            3 => label(rng),
            _ => ".".to_owned(),
        };
        let suffix = if rng.chance(0.5) {
            "dropbox.com"
        } else {
            rng.pick(&SUFFIXES).0
        };
        name.push_str(suffix);
        if rng.chance(0.2) {
            name.push('.');
            name.push_str(&label(rng));
        }
        name
    }

    simcore::proptest! {
        #![cases(4096)]

        #[test]
        fn suffix_table_agrees_with_reference(
            name in simcore::proptest::from_fn(name_near_a_suffix)
        ) {
            simcore::prop_assert_eq!(provider_of_name(&name), reference_provider_of_name(&name));
            let sni = flow(&name, 1, 1);
            simcore::prop_assert_eq!(provider_of(&sni), reference_provider_of(&sni));
            simcore::prop_assert_eq!(dropbox_role(&sni), reference_dropbox_role(&sni));
            let mut cert = flow("x", 1, 1);
            cert.tls_sni = None;
            cert.tls_certificate_cn = Some(format!("*.{name}"));
            simcore::prop_assert_eq!(provider_of(&cert), reference_provider_of(&cert));
            simcore::prop_assert_eq!(dropbox_role(&cert), reference_dropbox_role(&cert));
        }
    }

    #[test]
    fn generated_names_reach_every_provider_and_role() {
        let root = simcore::Rng::new(7);
        let (mut providers, mut roles) = (BTreeSet::new(), BTreeSet::new());
        for i in 0..4096 {
            let name = name_near_a_suffix(&mut root.fork(i));
            providers.insert(provider_of_name(&name));
            roles.extend(dropbox_role(&flow(&name, 1, 1)));
        }
        assert_eq!(providers.len(), 7, "{providers:?}");
        assert_eq!(roles.len(), DropboxRole::ALL.len(), "{roles:?}");
    }

    #[test]
    fn wildcard_certificate_matches_dropbox() {
        let mut f = flow("x", 100, 100);
        f.tls_sni = None;
        f.tls_certificate_cn = Some("*.dropbox.com".into());
        assert_eq!(provider_of(&f), Provider::Dropbox);
    }

    #[test]
    fn roles_follow_figure_4_grouping() {
        let cases = [
            ("dl-client99.dropbox.com", DropboxRole::ClientStorage),
            ("dl.dropbox.com", DropboxRole::WebStorage),
            ("dl-web.dropbox.com", DropboxRole::WebStorage),
            ("api-content.dropbox.com", DropboxRole::ApiStorage),
            ("client-lb.dropbox.com", DropboxRole::ClientControl),
            ("client4.dropbox.com", DropboxRole::ClientControl),
            ("notify12.dropbox.com", DropboxRole::NotifyControl),
            ("www.dropbox.com", DropboxRole::WebControl),
            ("d.dropbox.com", DropboxRole::SystemLog),
            ("dl-debug2.dropbox.com", DropboxRole::SystemLog),
            ("api.dropbox.com", DropboxRole::Others),
        ];
        for (name, role) in cases {
            assert_eq!(dropbox_role(&flow(name, 1, 1)), Some(role), "{name}");
        }
        assert_eq!(dropbox_role(&flow("youtube.com", 1, 1)), None);
    }

    #[test]
    fn f_u_separates_store_and_retrieve() {
        // A store flow: 10 chunks of 20 kB up, only handshake + OKs down.
        let store = flow(
            "dl-client1.dropbox.com",
            294 + 10 * (634 + 20_000),
            4103 + 10 * 309 + 37,
        );
        assert_eq!(storage_tag(&store), StorageTag::Store);
        // A retrieve flow: requests up, chunks down.
        let retr = flow(
            "dl-client1.dropbox.com",
            294 + 10 * 400,
            4103 + 10 * (309 + 20_000),
        );
        assert_eq!(storage_tag(&retr), StorageTag::Retrieve);
    }

    #[test]
    fn f_u_handles_handshake_only_flows() {
        // A flow that exchanged only the SSL handshake: down (4103) ==
        // f(294) exactly; the tagger must not call it a store of data.
        let hs = flow("dl-client1.dropbox.com", 294, 4103);
        assert_eq!(storage_tag(&hs), StorageTag::Retrieve);
        assert_eq!(transfer_size(&hs), 0);
    }

    #[test]
    fn single_small_chunk_store_is_still_store() {
        // 1 chunk of 1 kB: u = 294+634+1000, d = 4103+309+37.
        let f1 = flow("dl-client1.dropbox.com", 1928, 4449);
        assert_eq!(storage_tag(&f1), StorageTag::Store);
    }

    #[test]
    fn ssl_adjustment_subtracts_overheads() {
        let f1 = flow("dl-client1.dropbox.com", 10_294, 8_103);
        assert_eq!(ssl_adjusted(&f1), (10_000, 4_000));
        let tiny = flow("dl-client1.dropbox.com", 100, 100);
        assert_eq!(ssl_adjusted(&tiny), (0, 0));
    }
}
