//! Property tests of the mergeable accumulators: a randomized flow set
//! cut at random contiguous points, each piece folded on its own and the
//! pieces merged in order, must yield exactly what one fold over the whole
//! set yields — for every accumulator (the household-range merge half of
//! the byte-identity contract — see `dropbox_analysis::stream`).

use dropbox_analysis::dataset::{
    DailyBytesAcc, DailyTotalAcc, DropboxTotalsAcc, OverviewAcc, ProviderSeriesAcc,
    RoleBreakdownAcc, StorageServersAcc,
};
use dropbox_analysis::groups::HouseholdsAcc;
use dropbox_analysis::sessions::{
    DevicesPerHouseholdAcc, DistinctDevicesAcc, HolidayDipAcc, HourlyProfilesAcc,
    MergedSessionsAcc, NamespacesPerDeviceAcc, RawDurationsAcc, StartupsAcc,
};
use dropbox_analysis::stream::run_one;
use dropbox_analysis::users::InferUsersAcc;
use dropbox_analysis::{Accumulate, Provider};
use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
use nettrace::{Endpoint, FlowKey, FlowRecord, Ipv4};
use simcore::proptest::{any_u64, vec_of};
use simcore::{prop_assert_eq, proptest, SimDuration, SimTime};
use std::fmt::Debug;

const DAYS: u32 = 3;

/// Expand one random seed into a flow record, covering every traffic
/// kind the accumulators dispatch on: store/retrieve storage flows with
/// Appendix-A wire construction, notification flows carrying device
/// metadata, control and web flows, and non-Dropbox background traffic.
fn record_from_seed(s: u64) -> FlowRecord {
    let client = Ipv4::new(10, 0, 0, 1 + ((s >> 3) % 5) as u8);
    let day = ((s >> 6) % DAYS as u64) as u32;
    let start = SimTime::from_day_offset(day, SimDuration::from_secs(30_000 + (s >> 9) % 40_000));
    let mut f = FlowRecord {
        key: FlowKey::new(
            Endpoint::new(client, 40_000 + (s % 1_000) as u16),
            Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
        ),
        first_syn: start,
        last_packet: start.checked_add(SimDuration::from_secs(10)).unwrap(),
        up: DirStats::default(),
        down: DirStats::default(),
        min_rtt_ms: Some(20.0 + (s >> 11) as f64 % 180.0),
        rtt_samples: 4,
        tls_sni: None,
        tls_certificate_cn: None,
        http_host: None,
        server_fqdn: None,
        notify: None,
        close: FlowClose::Fin,
        aborted: false,
    };
    let chunks = 1 + (s >> 12) % 20;
    let chunk_bytes = 1 + (s >> 17) % 500_000;
    match s % 6 {
        0 => {
            // Store flow per Appendix A.2.
            f.tls_sni = Some("dl-client1.dropbox.com".into());
            f.up = DirStats {
                bytes: 294 + chunks * (634 + chunk_bytes),
                psh_segments: 2 + chunks,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
            f.down = DirStats {
                bytes: 4103 + chunks * 309 + 37,
                psh_segments: 2 + chunks + 1,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
        }
        1 => {
            // Retrieve flow.
            f.tls_sni = Some("dl-client2.dropbox.com".into());
            f.up = DirStats {
                bytes: 294 + chunks * 394,
                psh_segments: 2 + 2 * chunks,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
            f.down = DirStats {
                bytes: 4103 + chunks * (309 + chunk_bytes),
                psh_segments: 2 + chunks,
                first_payload: Some(f.first_syn),
                last_payload: Some(f.last_packet),
                ..DirStats::default()
            };
        }
        2 => {
            // Notification flow: device metadata drives sessions, device
            // counts, namespace maps and user inference.
            f.key = FlowKey::new(
                Endpoint::new(client, 40_000 + (s % 1_000) as u16),
                Endpoint::new(Ipv4::new(199, 47, 216, 33), 80),
            );
            f.last_packet = start
                .checked_add(SimDuration::from_secs(30 + (s >> 21) % 5_000))
                .unwrap();
            f.server_fqdn = Some("notify1.dropbox.com".into());
            f.up.bytes = 400;
            f.down.bytes = 600;
            let mut namespaces = vec![100 + (s >> 15) % 6];
            if s & 1 << 22 != 0 {
                namespaces.push(100 + (s >> 24) % 6);
            }
            f.notify = Some(NotifyMeta {
                host_int: 1 + (s >> 12) % 8,
                namespaces,
            });
        }
        3 => {
            // Client control (meta-data).
            f.tls_sni = Some("client4.dropbox.com".into());
            f.up.bytes = 2_000 + (s >> 14) % 8_000;
            f.down.bytes = 3_000 + (s >> 18) % 8_000;
        }
        4 => {
            // Web control.
            f.tls_sni = Some("www.dropbox.com".into());
            f.up.bytes = 1_000;
            f.down.bytes = 20_000 + (s >> 14) % 100_000;
        }
        _ => {
            // Non-Dropbox background traffic.
            f.key = FlowKey::new(
                Endpoint::new(client, 40_000 + (s % 1_000) as u16),
                Endpoint::new(Ipv4::new(74, 125, 0, 1), 443),
            );
            f.tls_sni = Some("r3.youtube.com".into());
            f.up.bytes = 5_000;
            f.down.bytes = 100_000 + (s >> 14) % 2_000_000;
        }
    }
    f
}

/// Fold `flows` in contiguous pieces cut at `cuts` (sorted; repeated cuts
/// make empty pieces) and merge the pieces in stream order.
fn fold_in_pieces<A: Accumulate>(flows: &[FlowRecord], cuts: &[usize], new: &dyn Fn() -> A) -> A {
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(cuts.iter().copied())
        .chain(std::iter::once(flows.len()))
        .collect();
    let mut pieces = bounds.windows(2).map(|w| {
        let mut acc = new();
        for f in &flows[w[0]..w[1]] {
            acc.observe(f);
        }
        acc
    });
    let mut acc = pieces.next().expect("at least one piece");
    for later in pieces {
        acc.merge(later);
    }
    acc
}

/// The merged fold equals one fold over the whole stream: the finished
/// results (compared through `Debug`, which prints every f64 exactly) and
/// the live-state estimate both.
fn assert_merge_is_concatenation<A: Accumulate>(
    name: &str,
    flows: &[FlowRecord],
    cuts: &[usize],
    new: impl Fn() -> A,
) where
    A::Output: Debug,
{
    let merged = fold_in_pieces(flows, cuts, &new);
    let mut whole = new();
    for f in flows {
        whole.observe(f);
    }
    assert_eq!(merged.state_bytes(), whole.state_bytes(), "{name} state");
    assert_eq!(
        format!("{:?}", merged.finish()),
        format!("{:?}", whole.finish()),
        "{name} cut at {cuts:?}"
    );
}

proptest! {
    #![cases(64)]

    /// Folding any contiguous cut of the stream and merging the pieces in
    /// order equals one fold over the whole stream, for every accumulator
    /// and any mix of traffic kinds — households included, whose records
    /// here interleave across the cuts.
    #[test]
    fn merged_pieces_equal_one_fold(
        seeds in vec_of(any_u64(), 0..60),
        cut_seeds in vec_of(any_u64(), 0..5),
    ) {
        let flows: Vec<FlowRecord> = seeds.iter().map(|&s| record_from_seed(s)).collect();
        let mut cuts: Vec<usize> = cut_seeds
            .iter()
            .map(|&c| (c % (flows.len() as u64 + 1)) as usize)
            .collect();
        cuts.sort_unstable();
        let f = &flows;
        let c = &cuts;
        assert_merge_is_concatenation("overview", f, c, OverviewAcc::default);
        assert_merge_is_concatenation("totals", f, c, DropboxTotalsAcc::default);
        assert_merge_is_concatenation("roles", f, c, RoleBreakdownAcc::default);
        assert_merge_is_concatenation("servers", f, c, || StorageServersAcc::new(DAYS));
        assert_merge_is_concatenation("providers", f, c, || ProviderSeriesAcc::new(DAYS));
        assert_merge_is_concatenation("daily dropbox", f, c, || {
            DailyBytesAcc::new(Provider::Dropbox, DAYS)
        });
        assert_merge_is_concatenation("daily total", f, c, || DailyTotalAcc::new(DAYS));
        assert_merge_is_concatenation("raw durations", f, c, RawDurationsAcc::default);
        assert_merge_is_concatenation("sessions", f, c, MergedSessionsAcc::default);
        assert_merge_is_concatenation("devices", f, c, DistinctDevicesAcc::default);
        assert_merge_is_concatenation("devices/household", f, c, DevicesPerHouseholdAcc::default);
        assert_merge_is_concatenation("namespaces", f, c, NamespacesPerDeviceAcc::default);
        assert_merge_is_concatenation("startups", f, c, || StartupsAcc::new(DAYS));
        assert_merge_is_concatenation("hourly", f, c, || HourlyProfilesAcc::new(DAYS));
        assert_merge_is_concatenation("holiday dip", f, c, || HolidayDipAcc::new(DAYS));
        assert_merge_is_concatenation("users", f, c, InferUsersAcc::default);
        assert_merge_is_concatenation("households", f, c, HouseholdsAcc::default);
        assert_merge_is_concatenation("optional", f, c, || Some(OverviewAcc::default()));
        assert_merge_is_concatenation("disabled", f, c, || None::<OverviewAcc>);
    }

    /// Two folds over the same stream are identical — results and reported
    /// live state both (no hidden run-to-run state).
    #[test]
    fn fold_double_run_is_deterministic(seeds in vec_of(any_u64(), 0..60)) {
        let flows: Vec<FlowRecord> = seeds.iter().map(|&s| record_from_seed(s)).collect();
        let digest = || {
            let acc = fold_in_pieces(&flows, &[flows.len() / 2], &HouseholdsAcc::default);
            format!("{}|{:?}", acc.state_bytes(), acc.finish())
        };
        prop_assert_eq!(digest(), digest());
        prop_assert_eq!(
            format!("{:?}", run_one(&flows, HourlyProfilesAcc::new(DAYS))),
            format!("{:?}", run_one(&flows, HourlyProfilesAcc::new(DAYS)))
        );
    }
}
