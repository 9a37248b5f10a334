//! The end-to-end vantage-point simulation.
//!
//! [`simulate_vantage`] plays one vantage point's whole capture:
//!
//! 1. builds the population and registers devices/namespaces with the
//!    meta-data plane,
//! 2. schedules every device's sessions and file events,
//! 3. orders all commits (local uploads and external-producer commits)
//!    chronologically and propagates them to the namespace members —
//!    on-line members download after a notification delay, off-line
//!    members queue the work for their next session start (the login
//!    synchronisation burst of Fig. 15(c)), same-LAN members are served by
//!    the LAN Sync Protocol and generate no WAN traffic (Sec. 5.2),
//! 4. renders every resulting connection through the `dropbox` protocol
//!    engine and the `tcpmodel` network straight into a single-flow
//!    `tstat::FlowObserver`,
//! 5. adds web/API/direct-link usage and the flow-fidelity background
//!    services.
//!
//! The output pairs each monitored flow record with its generator ground
//! truth so the analysis layer's inferences can be scored.

use crate::activity::{device_sessions, file_events, FileEvent, Session};
use crate::audit::{CommitRecord, DeliveryKind, Excuse, SyncAudit};
use crate::population::{self, Behavior, Household};
use crate::providers;
use crate::vantage::{Access, VantageConfig};
use dnssim::DnsDirectory;
use dropbox::client::{
    ChunkWork, ClientVersion, RecoveryOutcome, RetryPolicy, SyncConfig, SyncEngine,
};
use dropbox::content::{sample_file_size, ChunkId, Content};
use dropbox::lan_sync::{Announcement, LanSync};
use dropbox::metadata::{FileId, HostInt, MetadataServer, NamespaceId, UserId};
use dropbox::notification::{
    notification_flow, notification_flow_named, poll_check_flow, reconnect_probe_flow,
    reconnect_probe_flow_named, SessionEnd,
};
use dropbox::session::{plan_session, OfflineQueue, PhaseKind, SessionPolicy};
use dropbox::spec::{Naming, NotifyStyle, ProviderSpec};
use dropbox::storage::ChunkStore;
use dropbox::web::{api_session_flows, direct_link_flow, web_session_flows};
use dropbox::{FlowSpec, FlowTruth};
use dropbox_analysis::Dataset;
use nettrace::{Endpoint, FlowKey, FlowRecord, Ipv4};
use simcore::faults::{FaultPlan, FlowFaults};
use simcore::{dist, par, Rng, ShardId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
use tcpmodel::{simulate_faulty, TcpParams};
use tstat::FlowObserver;

/// Ground-truth fault/recovery counters accumulated over a simulated
/// capture. All zero when the run's [`FaultPlan`] is inactive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Retry attempts by sync clients (outage waits plus transfer
    /// re-offers after a mid-flow reset).
    pub sync_retries: u64,
    /// Storage flows cut mid-transfer by an injected reset.
    pub aborted_flows: u64,
    /// Notification connection fragments that ended in an injected abort
    /// (reconnect churn on flaky links).
    pub notify_aborts: u64,
    /// Failed notification reconnect probes sent during control-plane
    /// outages (the build-up of the reconnect storm).
    pub reconnect_attempts: u64,
    /// Successful notification reconnects after an outage end (the storm
    /// itself).
    pub reconnects: u64,
    /// Fallback metadata polls rendered while the notification plane was
    /// down.
    pub fallback_polls: u64,
    /// Local commits queued through a metadata outage before flushing.
    pub offline_commits: u64,
}

impl FaultStats {
    /// Accumulate another household's (or span's) counters.
    pub fn absorb(&mut self, other: FaultStats) {
        self.sync_retries += other.sync_retries;
        self.aborted_flows += other.aborted_flows;
        self.notify_aborts += other.notify_aborts;
        self.reconnect_attempts += other.reconnect_attempts;
        self.reconnects += other.reconnects;
        self.fallback_polls += other.fallback_polls;
        self.offline_commits += other.offline_commits;
    }
}

/// A per-span fold of a capture's record stream: what each household
/// range's worker folds its records into, before the spans merge in
/// household order.
///
/// `merge` must mean stream concatenation: folding contiguous household
/// ranges separately and merging them in household order equals one fold
/// over the whole capture, so the merged state is byte-identical at every
/// `--jobs` and `--hh-shards` value.
pub trait SpanFold: Send {
    /// Fold one completed record and its ground truth (`None` for
    /// background records).
    fn accept(&mut self, flow: FlowRecord, truth: Option<FlowTruth>);

    /// Append the fold of the household range that follows this one.
    fn merge(&mut self, later: Self)
    where
        Self: Sized;
}

/// Result of one vantage-point simulation, materialised: the fold that
/// keeps every record. The test, example and trace-export view of a
/// capture; `repro` folds straight into its analyses instead.
pub struct SimOutput {
    /// The dataset (monitored flow records + background records).
    pub dataset: Dataset,
    /// Ground truth aligned with `dataset.flows` (`None` for background).
    pub truths: Vec<Option<FlowTruth>>,
    /// Number of chunk transfers served by the LAN Sync Protocol (never
    /// seen at the probe).
    pub lan_synced: u64,
    /// Ground-truth user accounts: groups of device ids (`host_int`s)
    /// belonging to one user, for scoring the Sec. 2.3.1 inference.
    pub truth_users: Vec<Vec<u64>>,
    /// Fault-injection ground truth (retries, aborts, notification churn).
    pub fault_stats: FaultStats,
}

impl SimOutput {
    /// An empty capture of `config`'s vantage point.
    pub fn new(config: &VantageConfig) -> SimOutput {
        SimOutput {
            dataset: Dataset::new(config.kind.name(), config.expose_dns, config.days),
            truths: Vec::new(),
            lan_synced: 0,
            truth_users: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Attach the capture-level counters of the run that filled it.
    pub fn with_stats(mut self, stats: VantageStats) -> SimOutput {
        self.lan_synced = stats.lan_synced;
        self.truth_users = stats.truth_users;
        self.fault_stats = stats.fault_stats;
        self
    }

    /// A copy of the capture-level counters.
    pub fn stats(&self) -> VantageStats {
        VantageStats {
            lan_synced: self.lan_synced,
            truth_users: self.truth_users.clone(),
            fault_stats: self.fault_stats,
        }
    }

    /// The record stream with its aligned ground truth — what the
    /// validation harness folds over in a single pass.
    pub fn flows_with_truth(&self) -> impl Iterator<Item = (&FlowRecord, &Option<FlowTruth>)> {
        self.dataset.flows.iter().zip(&self.truths)
    }
}

impl SpanFold for SimOutput {
    fn accept(&mut self, flow: FlowRecord, truth: Option<FlowTruth>) {
        self.dataset.flows.push(flow);
        self.truths.push(truth);
    }

    fn merge(&mut self, later: Self) {
        self.dataset.flows.extend(later.dataset.flows);
        self.truths.extend(later.truths);
    }
}

/// Provider-aware notification session flow: the Dropbox spec routes
/// through the `notifyX` pool (drawing the pool pick from `rng`, exactly
/// as the pre-refactor driver did); flat-named providers pin their single
/// notify front.
#[allow(clippy::too_many_arguments)]
fn spec_notification_flow(
    proto: &'static ProviderSpec,
    dns: &DnsDirectory,
    host: HostInt,
    namespaces: &[NamespaceId],
    span: SimDuration,
    changes: u32,
    end: SessionEnd,
    rng: &mut Rng,
) -> FlowSpec {
    match proto.naming {
        Naming::DropboxDns => notification_flow(dns, host, namespaces, span, changes, end, rng),
        Naming::Flat { .. } => notification_flow_named(
            proto.notify_name(),
            host,
            namespaces,
            span,
            changes,
            end,
            rng,
        ),
    }
}

/// Provider-aware counterpart of `reconnect_probe_flow` (see
/// [`spec_notification_flow`] for the naming split).
fn spec_reconnect_probe_flow(
    proto: &'static ProviderSpec,
    dns: &DnsDirectory,
    host: HostInt,
    namespaces: &[NamespaceId],
    rng: &mut Rng,
) -> FlowSpec {
    match proto.naming {
        Naming::DropboxDns => reconnect_probe_flow(dns, host, namespaces, rng),
        Naming::Flat { .. } => {
            reconnect_probe_flow_named(proto.notify_name(), host, namespaces, rng)
        }
    }
}

/// A commit of chunks into a namespace, in global time order.
struct Commit {
    at: SimTime,
    ns: NamespaceId,
    committer: Option<usize>, // global device index; None = external producer
    chunks: Vec<ChunkWork>,
    /// Chunk versions this commit replaces (the previous ids of edited
    /// chunks) — what offline-queue coalescing drops when the same file
    /// is edited again before the metadata plane recovers.
    superseded: Vec<ChunkId>,
}

/// Work queued for a device. Batches carry the ledger ids of the commits
/// they deliver so the sync audit can match deliveries to commits.
#[derive(Default)]
struct DeviceQueue {
    /// (deliver_at, commit id, chunks) for downloads while on-line.
    online_downloads: Vec<(SimTime, u64, Vec<ChunkWork>)>,
    /// Per-commit chunk batches waiting for the next session start.
    pending: Vec<(SimTime, u64, Vec<ChunkWork>)>,
    /// Pending commit batches per session index (resolved before render).
    pending_at_start: BTreeMap<usize, Vec<(Vec<u64>, Vec<ChunkWork>)>>,
}

/// Flattened device handle (local to one household).
struct Dev {
    host_int: HostInt,
    namespaces: Vec<NamespaceId>,
    sessions: Vec<Session>,
    behavior: Behavior,
    version: ClientVersion,
    abnormal: bool,
    nat_afflicted: bool,
}

impl Dev {
    /// Index of the session whose `[start, end]` interval contains `t`.
    ///
    /// `sessions` is disjoint and ordered (`activity::device_sessions`
    /// merges overlaps), so the first session with `end >= t` is the only
    /// candidate — binary search instead of a linear scan.
    fn session_containing(&self, t: SimTime) -> Option<usize> {
        let i = self.sessions.partition_point(|s| s.end < t);
        match self.sessions.get(i) {
            Some(s) if s.start <= t && t <= s.end => Some(i),
            _ => None,
        }
    }

    /// Index of the first session starting strictly after `t`.
    fn next_session_after(&self, t: SimTime) -> Option<usize> {
        let i = self.sessions.partition_point(|s| s.start <= t);
        (i < self.sessions.len()).then_some(i)
    }
}

/// End of the (possibly chained) metadata outage covering `t` — `t`
/// itself when the plane is up. Pure; draws nothing.
fn meta_recovery(faults: &FaultPlan, t: SimTime) -> SimTime {
    let mut at = t;
    for _ in 0..64 {
        match faults.meta_outage_end(at) {
            Some(e) if e > at => at = e,
            _ => break,
        }
    }
    at
}

/// Earliest instant a committer can flush a commit made at `t` while the
/// metadata plane was down: the first moment at or after recovery at
/// which the device is on-line *and* the plane is up. `None` when the
/// capture ends first (no later session) — those commits never reach the
/// server, as in reality.
fn flush_time(dev: &Dev, t: SimTime, faults: &FaultPlan) -> Option<SimTime> {
    let mut probe = t;
    for _ in 0..64 {
        let recover = meta_recovery(faults, probe);
        let online = if dev.session_containing(recover).is_some() {
            Some(recover)
        } else {
            dev.next_session_after(recover)
                .map(|si| dev.sessions[si].start)
        };
        let at = online?;
        if faults.meta_available(at) {
            return Some(at);
        }
        // The next session itself starts inside another outage: chain on.
        probe = at;
    }
    None
}

/// Drain an offline queue into the committer's upload schedule at its
/// flush instant. Batches keep their commit tags so the render pass can
/// journal each commit's flush exactly once.
fn flush_queue(
    q: &mut OfflineQueue,
    at: SimTime,
    di: usize,
    uploads: &mut [Vec<(SimTime, Vec<u64>, Vec<ChunkWork>)>],
) {
    for b in q.drain() {
        uploads[di].push((at, b.tags, b.chunks));
    }
}

/// Count one sync transaction's recovery work into `stats` and play its
/// flows, each at its offset from the transaction start `at`.
fn play_transaction(
    outcome: RecoveryOutcome,
    at: SimTime,
    stats: &mut FaultStats,
    play: &mut dyn FnMut(&FlowSpec, SimTime),
) {
    stats.sync_retries += u64::from(outcome.retries);
    stats.aborted_flows += u64::from(outcome.aborted_flows);
    for (off, spec) in &outcome.flows {
        play(spec, at + *off);
    }
}

/// Capture-level outputs that are not the record stream itself: what the
/// streaming driver returns alongside the records it emits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VantageStats {
    /// Number of chunk transfers served by the LAN Sync Protocol (never
    /// seen at the probe).
    pub lan_synced: u64,
    /// Ground-truth user accounts (groups of `host_int`s).
    pub truth_users: Vec<Vec<u64>>,
    /// Fault-injection ground truth.
    pub fault_stats: FaultStats,
}

impl VantageStats {
    /// Append the counters of the household range that follows this one.
    pub fn merge(&mut self, later: VantageStats) {
        self.lan_synced += later.lan_synced;
        self.truth_users.extend(later.truth_users);
        self.fault_stats.absorb(later.fault_stats);
    }
}

/// Simulate one vantage point. `version` selects the client generation
/// (v1.2.52 for the Mar–May capture, v1.4.0 for the Jun/Jul re-capture of
/// Table 4). `faults` injects network and server failures. There is one
/// code path whatever the plan: under [`FaultPlan::none`] every fault
/// decision on it is inert (no window is open, no probability is positive,
/// no fault randomness is drawn). Under an active plan, flows pick up link
/// degradations, storage transfers can be cut and resumed, and
/// notification connections churn — all still a deterministic function of
/// `(config, version, seed, plan)`.
///
/// This is the materialising fold over the full-range household sweep.
pub fn simulate_vantage(
    config: &VantageConfig,
    version: ClientVersion,
    seed: u64,
    faults: &FaultPlan,
) -> SimOutput {
    materialise(config, version, seed, faults, None)
}

/// Audited form of [`simulate_vantage`]: additionally returns the
/// [`SyncAudit`] ledger of every commit, expected delivery, actual
/// delivery, excuse, flush, and reconnect event — the ground truth the
/// chaos-soak convergence oracle ([`crate::oracle::check`]) judges after
/// the fault plan quiesces. Recording draws no randomness and mutates no
/// simulation state, so the record stream is byte-identical to the
/// unaudited run.
pub fn simulate_vantage_audited(
    config: &VantageConfig,
    version: ClientVersion,
    seed: u64,
    faults: &FaultPlan,
) -> (SimOutput, SyncAudit) {
    let mut audit = SyncAudit::new();
    let out = materialise(config, version, seed, faults, Some(&mut audit));
    (out, audit)
}

/// Sweep every household of the capture into the materialising fold.
fn materialise(
    config: &VantageConfig,
    version: ClientVersion,
    seed: u64,
    faults: &FaultPlan,
    audit: Option<&mut SyncAudit>,
) -> SimOutput {
    let mut out = SimOutput::new(config);
    let stats = simulate_span_impl(
        config,
        version,
        seed,
        faults,
        0..config.addresses,
        &mut |rec, truth| out.accept(rec, truth),
        audit,
    );
    out.with_stats(stats)
}

/// The single driver core every entry point shares: sweeps the requested
/// household range in index order and hands each completed record (with
/// its ground truth) to `emit`. The closure indirection draws no
/// randomness, so the record stream is byte-identical however it is
/// consumed.
///
/// Concatenating the emitted streams of any contiguous partition of
/// `0..config.addresses` — records, truths, `truth_users`, and summed
/// counters alike — reproduces the full-capture sweep byte for byte,
/// because every household draws from its own seed stream
/// ([`par::household_stream`]) and touches only household-local state.
pub(crate) fn simulate_span_impl(
    config: &VantageConfig,
    version: ClientVersion,
    seed: u64,
    faults: &FaultPlan,
    households: Range<usize>,
    emit: &mut dyn FnMut(FlowRecord, Option<FlowTruth>),
    mut audit: Option<&mut SyncAudit>,
) -> VantageStats {
    assert!(
        households.end <= config.addresses,
        "household range {households:?} exceeds population {}",
        config.addresses
    );
    // The capture's root stream IS its shard stream: derived from
    // (capture seed, vantage label) through SplitMix64, so running this
    // capture as `shard::CaptureShard` household ranges on N workers or
    // calling it directly here consumes identical randomness byte for
    // byte.
    let capture = ShardId::from_label(config.kind.name());
    let root_rng = par::shard_stream(seed, capture);
    // Capture-wide constants of the population plane. Deriving them is
    // pure (non-advancing forks of the population stream), so every span
    // computes identical values without communicating.
    let pop_root = root_rng.fork_named("population");
    let host_base = population::host_int_base(&pop_root);
    let abnormal = population::abnormal_household(config, &pop_root);
    let providers_root = root_rng.fork_named("providers");

    // The Dropbox zone plus (for non-Dropbox specs) the provider's flat
    // deployment. Registration is name-keyed and empty for the Dropbox
    // spec, so default runs see a byte-identical directory.
    let mut dns = DnsDirectory::new();
    for (name, ip) in config.protocol.dns_entries() {
        dns.register(name, ip);
    }
    let dns = dns;
    let policy = RetryPolicy::default();
    let mut stats = VantageStats::default();
    for idx in households {
        let hh = population::generate_household(
            config,
            version,
            &pop_root,
            idx,
            host_base,
            abnormal == Some(idx),
        );
        simulate_household(
            config,
            version,
            seed,
            capture,
            faults,
            &dns,
            &policy,
            idx,
            &hh,
            &providers_root,
            &mut stats,
            emit,
            audit.as_deref_mut(),
        );
    }
    stats
}

/// Play one household's whole capture — registration, commit ordering,
/// propagation, rendered device flows, web/API usage, and background
/// providers. Every random draw descends from the household's own stream
/// ([`par::household_stream`]) and every piece of mutable state (metadata
/// plane, chunk store, ephemeral-port counter, LAN subnet) is
/// household-local, so households can be grouped into ranges arbitrarily
/// without any of them observing the cut.
#[allow(clippy::too_many_arguments)]
fn simulate_household(
    config: &VantageConfig,
    version: ClientVersion,
    seed: u64,
    capture: ShardId,
    faults: &FaultPlan,
    dns: &DnsDirectory,
    policy: &RetryPolicy,
    idx: usize,
    hh: &Household,
    providers_root: &Rng,
    stats: &mut VantageStats,
    emit: &mut dyn FnMut(FlowRecord, Option<FlowTruth>),
    mut audit: Option<&mut SyncAudit>,
) {
    // Every stream below descends from this one: a pure function of
    // (capture seed, capture id, household index) — never of the range
    // cut, the worker, or `--jobs` (simlint's `shard-seed` rule).
    let hh_rng = par::household_stream(seed, capture, idx as u64);
    let mut fault_stats = FaultStats::default();
    // Ephemeral client ports count per household (each client churns its
    // own source ports), so flow keys are independent of range grouping.
    let mut port_counter: u32 = 0;
    // Dedicated stream for per-flow link-fault decisions, so fault draws
    // never perturb the schedule/content/render streams.
    let mut link_fault_rng = hh_rng.fork_named("faults");

    let mut play =
        |spec: &FlowSpec, at: SimTime, client_ip: Ipv4, access: Access, day: u32, rng: &mut Rng| {
            let Some(server_ip) = dns.resolve(&spec.server_name) else {
                return;
            };
            port_counter = port_counter.wrapping_add(1);
            let client = Endpoint::new(client_ip, (10_000 + (port_counter % 50_000)) as u16);
            let server = Endpoint::new(server_ip, spec.port);
            // Small household-stable spread on top of the base RTT so the
            // CDFs of Fig. 6 show the narrow band the paper measures.
            let spread = SimDuration::from_millis((client_ip.0 as u64 * 7) % 6);
            // The storage/control RTT split of Fig. 6, plus the provider's
            // datacenter-placement surcharge (zero for Dropbox, whose measured
            // RTTs *are* the baseline).
            let placement = &config.protocol.placement;
            let outer = spread
                + if config.protocol.is_storage_name(&spec.server_name) {
                    config.storage_rtt + placement.storage_extra()
                } else {
                    config.control_rtt_on(day) + placement.control_extra()
                };
            let path = config.path(access, outer, rng);
            let tcp = match spec.truth {
                _ if matches!(spec.truth, FlowTruth::Notification) => TcpParams::era_2012_v1(),
                _ => match version {
                    ClientVersion::V1_2_52 => TcpParams::era_2012_v1(),
                    ClientVersion::V1_4_0 => TcpParams::era_2012_v14(),
                },
            };
            // Merge the flow's intrinsic faults (e.g. a recovering upload's
            // scripted reset) with link-level faults drawn from the plan. The
            // none plan draws nothing and `merged` is the spec's own profile
            // (normally `None`).
            let merged = FlowFaults::merged(spec.faults, faults.link_faults(&mut link_fault_rng));
            // The probe sees the flow's DNS answer just before the flow, so
            // where DNS passes the probe that name labels the server.
            let mut flow = FlowObserver::new(config.expose_dns.then(|| spec.server_name.clone()));
            simulate_faulty(
                at,
                FlowKey::new(client, server),
                &spec.dialogue,
                &path,
                &tcp,
                merged.as_ref(),
                rng,
                &mut flow,
            );
            if let Some(rec) = flow.finish() {
                emit(rec, Some(spec.truth.clone()));
            }
        };

    // ---- Dropbox sync planes (client households only) -------------------
    if let Some(behavior) = hh.behavior {
        // Household-local server state. Namespace ids allocate from a
        // per-household base so the merged capture still looks like one
        // metadata plane; chunk contents are household-unique, so a local
        // chunk store dedups exactly as a capture-wide one would.
        let store = ChunkStore::new();
        let mut md = MetadataServer::with_ns_base(((idx as u64) + 1) << 32);
        let user = UserId(1_000 + idx as u64);
        let mut sched_rng = hh_rng.fork_named("schedules");

        // ---- Register devices and namespaces ----------------------------
        let mut devs: Vec<Dev> = Vec::new();
        let mut ns_members: BTreeMap<NamespaceId, Vec<usize>> = BTreeMap::new();
        let mut fed_namespaces: Vec<NamespaceId> = Vec::new();

        // Shared-folder pool of the household: enough folders so that the
        // most connected device reaches its namespace count.
        let max_ns = hh
            .devices
            .iter()
            .map(|d| d.namespace_count)
            .max()
            .unwrap_or(1);
        // Shared-folder pool of the household, created unlinked; devices
        // join exactly the folders their namespace count calls for.
        let mut pool: Vec<NamespaceId> = Vec::new();
        while pool.len() < max_ns.saturating_sub(1) {
            let ns = md.create_namespace_unlinked();
            // External feed probability by behaviour: download-only
            // households subscribe to folders produced elsewhere.
            let fed_p = match behavior {
                Behavior::DownloadOnly => 0.85,
                Behavior::Heavy => 0.50,
                Behavior::UploadOnly => 0.10,
                Behavior::Occasional => 0.03,
            };
            if sched_rng.chance(fed_p) {
                fed_namespaces.push(ns);
            }
            pool.push(ns);
        }
        stats
            .truth_users
            .push(hh.devices.iter().map(|d| d.host_int).collect());
        let mut root_marked = false;
        for d in hh.devices.iter() {
            let host = HostInt(d.host_int);
            let root = md.register_host(user, host);
            // Download-only (and some heavy) accounts receive content into
            // their *root* from their own unmonitored devices elsewhere —
            // the mirror image of the paper's upload-only users submitting
            // "to geographically dispersed devices".
            if !root_marked {
                root_marked = true;
                let root_fed_p = match behavior {
                    Behavior::DownloadOnly => 0.85,
                    Behavior::Heavy => 0.35,
                    _ => 0.0,
                };
                if root_fed_p > 0.0 && sched_rng.chance(root_fed_p) {
                    fed_namespaces.push(root);
                }
            }
            // Link this device to the first (namespace_count - 1) folders.
            let mut nss = vec![root];
            for &ns in pool.iter().take(d.namespace_count.saturating_sub(1)) {
                md.link_namespace(host, ns);
                nss.push(ns);
            }
            let local_idx = devs.len();
            for &ns in &nss {
                ns_members.entry(ns).or_default().push(local_idx);
            }
            let sessions =
                device_sessions(config.kind, d, config.days, &mut sched_rng.fork(d.host_int));
            devs.push(Dev {
                host_int: host,
                namespaces: nss,
                sessions,
                behavior,
                version: d.version,
                abnormal: d.abnormal_uploader,
                nat_afflicted: d.nat_afflicted,
            });
        }

        // ---- Phase A: the household's commits in time order -----------------
        let mut commit_rng = hh_rng.fork_named("commits");
        let mut raw_events: Vec<(SimTime, usize, FileEvent)> = Vec::new();
        for (di, dev) in devs.iter().enumerate() {
            if dev.abnormal {
                continue; // handled separately
            }
            for s in &dev.sessions {
                for e in file_events(dev.behavior, s, &mut commit_rng) {
                    raw_events.push((e.at, di, e));
                }
            }
        }
        // External producer commits on fed namespaces.
        let mut external: Vec<(SimTime, NamespaceId)> = Vec::new();
        for &ns in &fed_namespaces {
            let rate_per_day = 1.5;
            let mut t_days = 0.0;
            loop {
                t_days += dist::exponential(&mut commit_rng, rate_per_day);
                if t_days >= config.days as f64 {
                    break;
                }
                external.push((SimTime::from_micros((t_days * 86_400.0 * 1e6) as u64), ns));
            }
        }

        // Materialise commits chronologically so edits see a consistent file
        // registry per namespace.
        #[derive(Clone)]
        struct FileState {
            content: Content,
            chunk_ids: Vec<ChunkId>,
        }
        let mut ns_files: BTreeMap<NamespaceId, Vec<FileState>> = BTreeMap::new();
        let mut next_seed: u64 = hh_rng.fork_named("contentseed").next_u64() | 1;
        let mut next_file: u64 = 1;

        enum RawCommit {
            Local(usize, FileEvent),
            External(NamespaceId),
        }
        let mut ordered: Vec<(SimTime, RawCommit)> = raw_events
            .into_iter()
            .map(|(t, di, e)| (t, RawCommit::Local(di, e)))
            .chain(
                external
                    .into_iter()
                    .map(|(t, ns)| (t, RawCommit::External(ns))),
            )
            .collect();
        ordered.sort_by_key(|(t, _)| *t);

        let mut commits: Vec<Commit> = Vec::new();
        for (t, raw) in ordered {
            let (ns, committer, kind, is_edit) = match &raw {
                RawCommit::Local(di, e) => {
                    let dev = &devs[*di];
                    // Root namespace favoured for personal files.
                    let ns = if dev.namespaces.len() == 1 || commit_rng.chance(0.5) {
                        dev.namespaces[0]
                    } else {
                        dev.namespaces[1 + commit_rng.below_usize(dev.namespaces.len() - 1)]
                    };
                    (ns, Some(*di), e.kind, e.is_edit)
                }
                RawCommit::External(ns) => {
                    // Collaborators elsewhere both add and edit; the kind mix
                    // matches ordinary users.
                    let kind = {
                        let u = commit_rng.f64();
                        if u < 0.42 {
                            dropbox::content::ContentKind::Text
                        } else if u < 0.75 {
                            dropbox::content::ContentKind::Document
                        } else {
                            dropbox::content::ContentKind::Media
                        }
                    };
                    (*ns, None, kind, commit_rng.chance(0.5))
                }
            };
            let files = ns_files.entry(ns).or_default();
            // A change event usually touches several files at once (saving a
            // project, dropping a folder): 1 + geometric burst.
            let burst = 1 + simcore::dist::geometric(&mut commit_rng, 0.38) as usize;
            let mut chunks: Vec<ChunkWork> = Vec::new();
            let mut superseded: Vec<ChunkId> = Vec::new();
            for b in 0..burst {
                let edit_this = (is_edit || b > 0 && commit_rng.chance(0.5)) && !files.is_empty();
                if edit_this {
                    let fi = commit_rng.below_usize(files.len());
                    let frac = (0.03 + commit_rng.f64() * 0.30).min(1.0);
                    let (next, changed) = files[fi].content.edit(frac, &mut commit_rng);
                    for &ci in &changed {
                        let id = next.chunk_id(ci);
                        superseded.push(files[fi].chunk_ids[ci as usize]);
                        files[fi].chunk_ids[ci as usize] = id;
                        chunks.push(ChunkWork {
                            id,
                            // Delta-capable providers ship the rsync-style
                            // delta; the rest re-upload the whole chunk.
                            wire_bytes: if config.protocol.delta {
                                next.delta_wire_size(ci, frac)
                            } else {
                                next.wire_chunk_size(ci)
                            },
                            raw_bytes: next.chunk_size(ci),
                        });
                    }
                    files[fi].content = next;
                } else {
                    next_seed = next_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let size = sample_file_size(kind, &mut commit_rng);
                    let content = Content::with_chunk_size(
                        next_seed,
                        size,
                        kind,
                        config.protocol.chunk_bytes,
                    );
                    let ids = content.chunk_ids();
                    for (i, &id) in ids.iter().enumerate() {
                        chunks.push(ChunkWork {
                            id,
                            wire_bytes: content.wire_chunk_size(i as u32),
                            raw_bytes: content.chunk_size(i as u32),
                        });
                    }
                    next_file += 1;
                    // Journal bookkeeping on the meta-data plane.
                    if let Some(nsm) = md.namespace_mut(ns) {
                        nsm.commit(FileId(next_file), content, ids.clone());
                    }
                    files.push(FileState {
                        content,
                        chunk_ids: ids,
                    });
                }
            }
            if chunks.is_empty() {
                continue;
            }
            commits.push(Commit {
                at: t,
                ns,
                committer,
                chunks,
                superseded,
            });
        }

        // ---- Phase B: propagate commits to members -------------------------
        // The household runs the LAN Sync Protocol on its subnet: on-line
        // devices broadcast discovery announcements and serve chunks they hold
        // to peers sharing the namespace, keeping that traffic off the WAN.
        //
        // Under control-plane faults a commit may not become *visible* at
        // its commit time: while the metadata plane refuses writes, local
        // commits wait in the committer's bounded offline queue (with
        // coalescing of superseded edits) and flush at the first on-line
        // instant after recovery; external producers' commits land as soon
        // as the plane returns. Members propagate from the visibility
        // instant, not the commit instant.
        let mut queues: Vec<DeviceQueue> =
            (0..devs.len()).map(|_| DeviceQueue::default()).collect();
        let mut uploads: Vec<Vec<(SimTime, Vec<u64>, Vec<ChunkWork>)>> =
            vec![Vec::new(); devs.len()];
        let mut lan = LanSync::default();
        let mut prop_rng = hh_rng.fork_named("propagation");
        const OFFLINE_QUEUE_CAP: usize = 6;
        let mut offline: Vec<OfflineQueue> = (0..devs.len())
            .map(|_| OfflineQueue::new(OFFLINE_QUEUE_CAP))
            .collect();
        let mut offline_flush: Vec<Option<SimTime>> = vec![None; devs.len()];
        // Ledger-wide ids of this household's commits.
        let cid_base = audit.as_ref().map(|a| a.commit_count()).unwrap_or(0);

        for (local_id, c) in commits.iter().enumerate() {
            let cid = cid_base + local_id as u64;
            let deferred = !faults.meta_available(c.at);
            let mut flush_at: Option<SimTime> = None;
            let mut never_flushed = false;
            let visible_at = if !deferred {
                c.at
            } else {
                match c.committer {
                    Some(di) => match flush_time(&devs[di], c.at, faults) {
                        Some(f) => {
                            flush_at = Some(f);
                            f
                        }
                        None => {
                            never_flushed = true;
                            c.at
                        }
                    },
                    // External producers commit from elsewhere; their
                    // changes land the moment the plane recovers.
                    None => meta_recovery(faults, c.at),
                }
            };
            if let Some(a) = audit.as_deref_mut() {
                a.push_commit(CommitRecord {
                    id: cid,
                    ns: c.ns.0,
                    at: c.at,
                    visible_at,
                    committer: c.committer.map(|di| devs[di].host_int.0),
                    chunks: c.chunks.iter().map(|w| w.id).collect(),
                    deferred,
                });
                if never_flushed {
                    a.excuse_commit(cid, Excuse::NeverFlushed);
                }
            }
            if let Some(di) = c.committer {
                if never_flushed {
                    // The committer's capture ends before the metadata plane
                    // recovers: the commit never reaches the server.
                    fault_stats.offline_commits += 1;
                } else {
                    match flush_at {
                        None => uploads[di].push((c.at, vec![cid], c.chunks.clone())),
                        Some(f) => {
                            // Queue through the outage. A new flush instant
                            // means a new outage window: drain the batches
                            // headed for the earlier one first.
                            if let Some(f0) = offline_flush[di] {
                                if f0 != f {
                                    flush_queue(&mut offline[di], f0, di, &mut uploads);
                                }
                            }
                            offline[di].push(c.at, cid, c.chunks.clone(), &c.superseded);
                            offline_flush[di] = Some(f);
                            fault_stats.offline_commits += 1;
                        }
                    }
                    // The committer holds the chunks and, while on-line,
                    // announces itself on the household subnet — but only
                    // once the commit is visible: LAN peers discover changes
                    // through the metadata journal.
                    let dev = &devs[di];
                    if dev.session_containing(visible_at).is_some() {
                        lan.announce(Announcement {
                            host: dev.host_int,
                            namespaces: dev.namespaces.clone(),
                            at: visible_at,
                        });
                    }
                    for w in &c.chunks {
                        lan.chunk_available(dev.host_int, w.id);
                    }
                }
            }
            let members = ns_members.get(&c.ns).cloned().unwrap_or_default();
            for m in members {
                if Some(m) == c.committer {
                    continue;
                }
                let dev = &devs[m];
                if let Some(a) = audit.as_deref_mut() {
                    a.expect_delivery(cid, dev.host_int.0);
                }
                if never_flushed {
                    continue; // excused above: the commit never synced
                }
                if dev.session_containing(visible_at).is_some() {
                    // On-line member: ask the LAN first (Sec. 5.2), then fall
                    // back to a cloud retrieve.
                    let pairs: Vec<(ChunkId, u64)> =
                        c.chunks.iter().map(|w| (w.id, w.raw_bytes)).collect();
                    if lan
                        .try_serve(dev.host_int, c.ns, &pairs, visible_at)
                        .is_some()
                    {
                        if let Some(a) = audit.as_deref_mut() {
                            a.deliver(cid, dev.host_int.0, visible_at, DeliveryKind::Lan);
                        }
                        continue;
                    }
                    let mut delay = SimDuration::from_secs(prop_rng.range_u64(2, 25));
                    if !faults.notify_available(visible_at) {
                        // The push is lost: the member learns of the change
                        // from a fallback metadata poll instead.
                        delay += SimDuration::from_millis(prop_rng.range_u64(30_000, 120_000));
                    } else if faults.degraded_at(visible_at) {
                        // Elevated 5xx rates delay the push.
                        delay += SimDuration::from_millis(faults.notify_delay_ms as u64);
                    }
                    queues[m]
                        .online_downloads
                        .push((visible_at + delay, cid, c.chunks.clone()));
                    // Once the cloud retrieve lands, this device can serve the
                    // chunks to later peers on its LAN.
                    for w in &c.chunks {
                        lan.chunk_available(dev.host_int, w.id);
                    }
                    lan.announce(Announcement {
                        host: dev.host_int,
                        namespaces: dev.namespaces.clone(),
                        at: visible_at,
                    });
                } else {
                    queues[m].pending.push((visible_at, cid, c.chunks.clone()));
                }
            }
        }
        // Drain every offline queue still holding batches: its flush
        // instant was computed against the committer's sessions, so the
        // drain lands inside one.
        for di in 0..devs.len() {
            if let Some(f) = offline_flush[di] {
                flush_queue(&mut offline[di], f, di, &mut uploads);
            }
        }
        for q in &offline {
            if let Some(a) = audit.as_deref_mut() {
                a.superseded_chunks(q.superseded_ids());
                for &tag in q.coalesced_tags() {
                    a.excuse_commit(tag, Excuse::CoalescedAway);
                }
                if !q.is_empty() {
                    a.residual_batches(q.len() as u64);
                }
            }
        }
        // Deferred flushes were appended after direct uploads; restore
        // chronological order for the per-session coalescing below (a
        // no-op when nothing was deferred: the sort is stable).
        for u in &mut uploads {
            u.sort_by_key(|(t, _, _)| *t);
        }
        stats.lan_synced += lan.served_chunks();
        // Resolve pending commit batches to the first session after their
        // visibility time. Commits after a device's last session never
        // sync (the capture ends first), as in reality — the audit excuses
        // them explicitly so the oracle can tell "capture ended" from
        // "delivery lost".
        for (di, dev) in devs.iter().enumerate() {
            let pending = std::mem::take(&mut queues[di].pending);
            for (t, cid, batch) in pending {
                if let Some(si) = dev.next_session_after(t) {
                    queues[di]
                        .pending_at_start
                        .entry(si)
                        .or_default()
                        .push((vec![cid], batch));
                } else if let Some(a) = audit.as_deref_mut() {
                    a.excuse(cid, dev.host_int.0, Excuse::NoLaterSession);
                }
            }
        }

        // ---- Phase C: render the household's device flows -------------------
        let render_rng = hh_rng.fork_named("render");
        let session_policy = SessionPolicy {
            retry: *policy,
            ..SessionPolicy::default()
        };

        for (di, dev) in devs.iter().enumerate() {
            let sync_config = SyncConfig {
                version: dev.version,
                no_storage_acks: dev.abnormal,
                spec: config.protocol,
                ..SyncConfig::default()
            };
            let mut engine = SyncEngine::new(&dns, &store, sync_config, dev.host_int.0);
            let mut dev_rng = render_rng.fork(dev.host_int.0);

            // Index per-session transactions. Bundling lets changes
            // detected close together ride one connection: coalesce
            // commits within the spec's window when bundling is active for
            // this client generation (Dropbox: v1.4.0 only — v1.2.52 stays
            // at zero; per-file-commit providers never coalesce).
            let coalesce = config.protocol.commit_coalesce(dev.version);
            let mut session_uploads: BTreeMap<usize, Vec<(SimTime, Vec<u64>, Vec<ChunkWork>)>> =
                BTreeMap::new();
            for (t, cids, chunks) in &uploads[di] {
                if let Some(si) = dev.session_containing(*t) {
                    let list = session_uploads.entry(si).or_default();
                    match list.last_mut() {
                        Some((t0, acc_ids, acc))
                            if !coalesce.is_zero() && t.saturating_since(*t0) <= coalesce =>
                        {
                            acc_ids.extend(cids.iter().copied());
                            acc.extend(chunks.iter().copied());
                        }
                        _ => list.push((*t, cids.clone(), chunks.clone())),
                    }
                }
            }
            let mut session_downloads: BTreeMap<usize, Vec<(SimTime, Vec<ChunkWork>)>> =
                BTreeMap::new();
            for (t, cid, chunks) in &queues[di].online_downloads {
                let si = dev
                    .session_containing(*t)
                    .or_else(|| dev.next_session_after(*t));
                if let Some(si) = si {
                    let t = (*t).max(dev.sessions[si].start);
                    if let Some(a) = audit.as_deref_mut() {
                        a.deliver(*cid, dev.host_int.0, t, DeliveryKind::Online);
                    }
                    session_downloads
                        .entry(si)
                        .or_default()
                        .push((t, chunks.clone()));
                } else if let Some(a) = audit.as_deref_mut() {
                    a.excuse(*cid, dev.host_int.0, Excuse::NoLaterSession);
                }
            }

            for (si, session) in dev.sessions.iter().enumerate() {
                let day = session.start.day();
                let changes = session_downloads.get(&si).map(|v| v.len()).unwrap_or(0) as u32;

                // Session-start control traffic.
                let mut pending = queues[di].pending_at_start.remove(&si).unwrap_or_default();
                // The login burst replays each missed changeset; very long
                // offline periods collapse the tail into one bulk transaction.
                const MAX_LOGIN_TRANSACTIONS: usize = 12;
                if pending.len() > MAX_LOGIN_TRANSACTIONS {
                    let mut tail_ids: Vec<u64> = Vec::new();
                    let mut tail: Vec<ChunkWork> = Vec::new();
                    for (ids, chunks) in pending.drain(MAX_LOGIN_TRANSACTIONS - 1..) {
                        tail_ids.extend(ids);
                        tail.extend(chunks);
                    }
                    pending.push((tail_ids, tail));
                }
                let pending_chunks: usize = pending.iter().map(|(_, c)| c.len()).sum();
                for spec in engine.session_start_flows(pending_chunks, &mut dev_rng) {
                    play(
                        &spec,
                        session.start + SimDuration::from_millis(dev_rng.range_u64(50, 900)),
                        hh.ip,
                        hh.access,
                        day,
                        &mut dev_rng,
                    );
                }

                // Notification connection(s) covering the session.
                let span = session.duration();
                if let NotifyStyle::Poll { period_secs } = config.protocol.notify {
                    // Polling provider: no session-long long-poll. One
                    // short change-check connection per period, jittered,
                    // capped like the long-poll cycle model so 8 h
                    // sessions stay affordable.
                    let period = SimDuration::from_secs(period_secs.max(30));
                    let mut t =
                        session.start + SimDuration::from_millis(dev_rng.range_u64(500, 5_000));
                    let mut polls = 0u32;
                    while t < session.end && polls < 96 {
                        let spec = poll_check_flow(
                            config.protocol.notify_name(),
                            dev.host_int,
                            md.namespaces_of(dev.host_int),
                            &mut dev_rng,
                        );
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                        t += period + SimDuration::from_millis(dev_rng.range_u64(0, 2_000));
                        polls += 1;
                    }
                } else if dev.nat_afflicted {
                    // The gateway kills the connection within a minute; the
                    // client reconnects immediately. The effect is bursty in
                    // real gateways ([10]): model ~35 kills per session, after
                    // which the connection survives.
                    let mut t = session.start;
                    let mut frags = 0;
                    while t < session.end && frags < 28 {
                        let frag = SimDuration::from_secs(dev_rng.range_u64(20, 55))
                            .min(session.end.saturating_since(t));
                        let spec = spec_notification_flow(
                            config.protocol,
                            &dns,
                            dev.host_int,
                            md.namespaces_of(dev.host_int),
                            frag,
                            0,
                            SessionEnd::NatReset,
                            &mut dev_rng,
                        );
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                        t += frag + SimDuration::from_millis(200);
                        frags += 1;
                    }
                    if t < session.end {
                        let spec = spec_notification_flow(
                            config.protocol,
                            &dns,
                            dev.host_int,
                            md.namespaces_of(dev.host_int),
                            session.end.saturating_since(t),
                            0,
                            SessionEnd::ClientShutdown,
                            &mut dev_rng,
                        );
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                    }
                } else if !faults.notify_available(session.start)
                    || matches!(
                        faults.next_notify_outage_after(session.start),
                        Some((lo, _)) if lo < session.end
                    )
                {
                    // A notification outage overlaps the session: degrade
                    // per the client's session state machine (DESIGN.md §9)
                    // — long-poll fragments abort at the outage, jittered
                    // fallback polls keep metadata flowing, and reconnect
                    // probes back off until the plane returns. The probes
                    // and the post-recovery reconnects are the storm the
                    // chaos experiments aggregate fleet-wide.
                    let splan = plan_session(
                        session.start,
                        session.end,
                        faults,
                        &session_policy,
                        &mut dev_rng,
                    );
                    for phase in &splan.phases {
                        match &phase.kind {
                            PhaseKind::Notify { end } => {
                                let frag = phase.end.saturating_since(phase.start);
                                if frag.is_zero() {
                                    continue;
                                }
                                let n_changes = if *end == SessionEnd::ClientShutdown {
                                    changes
                                } else {
                                    0
                                };
                                let spec = spec_notification_flow(
                                    config.protocol,
                                    &dns,
                                    dev.host_int,
                                    md.namespaces_of(dev.host_int),
                                    frag,
                                    n_changes,
                                    *end,
                                    &mut dev_rng,
                                );
                                play(&spec, phase.start, hh.ip, hh.access, day, &mut dev_rng);
                                if *end == SessionEnd::Aborted {
                                    fault_stats.notify_aborts += 1;
                                }
                            }
                            PhaseKind::PollFallback { polls } => {
                                for &pt in polls {
                                    // Fallback metadata poll; a dead or
                                    // degraded metadata plane answers with an
                                    // error-sized response.
                                    let resp = if faults.meta_available(pt) { 420 } else { 120 };
                                    let spec =
                                        engine.control_flow(false, &[(340, resp)], &mut dev_rng);
                                    play(&spec, pt, hh.ip, hh.access, day, &mut dev_rng);
                                    fault_stats.fallback_polls += 1;
                                    if let Some(a) = audit.as_deref_mut() {
                                        a.fallback_poll();
                                    }
                                }
                            }
                        }
                    }
                    for &at in &splan.reconnect_attempts {
                        let spec = spec_reconnect_probe_flow(
                            config.protocol,
                            &dns,
                            dev.host_int,
                            md.namespaces_of(dev.host_int),
                            &mut dev_rng,
                        );
                        play(&spec, at, hh.ip, hh.access, day, &mut dev_rng);
                        fault_stats.reconnect_attempts += 1;
                        if let Some(a) = audit.as_deref_mut() {
                            a.reconnect_attempt(at, dev.host_int.0);
                        }
                    }
                    for &at in &splan.reconnects {
                        fault_stats.reconnects += 1;
                        if let Some(a) = audit.as_deref_mut() {
                            a.reconnect(at, dev.host_int.0);
                        }
                    }
                } else if faults.notify_churn_p > 0.0 && dev_rng.chance(faults.notify_churn_p) {
                    // A flaky link churns the notification connection: a few
                    // fragments die mid-poll (RST with a request outstanding)
                    // and the client reconnects after an exponential backoff
                    // before the connection finally stabilises.
                    let n_aborts = 1 + dev_rng.below(3) as u32;
                    let mut t = session.start;
                    let mut attempt = 0u32;
                    while attempt < n_aborts && t < session.end {
                        let frag = SimDuration::from_secs(dev_rng.range_u64(90, 900))
                            .min(session.end.saturating_since(t));
                        let spec = spec_notification_flow(
                            config.protocol,
                            &dns,
                            dev.host_int,
                            md.namespaces_of(dev.host_int),
                            frag,
                            0,
                            SessionEnd::Aborted,
                            &mut dev_rng,
                        );
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                        fault_stats.notify_aborts += 1;
                        t += frag + policy.backoff(attempt, &mut dev_rng);
                        attempt += 1;
                    }
                    if t < session.end {
                        let spec = spec_notification_flow(
                            config.protocol,
                            &dns,
                            dev.host_int,
                            md.namespaces_of(dev.host_int),
                            session.end.saturating_since(t),
                            changes,
                            SessionEnd::ClientShutdown,
                            &mut dev_rng,
                        );
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                    }
                } else {
                    let spec = spec_notification_flow(
                        config.protocol,
                        &dns,
                        dev.host_int,
                        md.namespaces_of(dev.host_int),
                        span,
                        changes,
                        SessionEnd::ClientShutdown,
                        &mut dev_rng,
                    );
                    play(&spec, session.start, hh.ip, hh.access, day, &mut dev_rng);
                }

                // Login synchronisation burst: one transaction per missed
                // changeset, staggered over the first minutes of the session.
                let mut t_login = session.start + SimDuration::from_secs(dev_rng.range_u64(10, 40));
                for (cids, batch) in &pending {
                    if let Some(a) = audit.as_deref_mut() {
                        for &cid in cids {
                            a.deliver(cid, dev.host_int.0, t_login, DeliveryKind::Login);
                        }
                    }
                    let outcome = engine.download_transaction_faulty(
                        batch,
                        day,
                        t_login,
                        faults,
                        policy,
                        &mut dev_rng,
                        None,
                    );
                    play_transaction(outcome, t_login, &mut fault_stats, &mut |spec, at| {
                        play(spec, at, hh.ip, hh.access, day, &mut dev_rng)
                    });
                    t_login += SimDuration::from_secs(dev_rng.range_u64(3, 25));
                }

                // Periodic list refreshes (the short meta-data connections).
                let mut t = session.start + SimDuration::from_mins(dev_rng.range_u64(20, 45));
                while t < session.end {
                    if faults.degraded_at(t) && dev_rng.chance(faults.degraded_5xx_p) {
                        // Partially degraded metadata plane: the first
                        // attempt bounces with a 5xx-sized response and is
                        // retried immediately after.
                        let spec = engine.control_flow(false, &[(340, 120)], &mut dev_rng);
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                        fault_stats.sync_retries += 1;
                    }
                    let spec = engine.control_flow(false, &[(340, 420)], &mut dev_rng);
                    play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                    t += SimDuration::from_mins(dev_rng.range_u64(25, 50));
                }

                // Uploads.
                if let Some(ups) = session_uploads.get(&si) {
                    for (t, cids, chunks) in ups {
                        if let Some(a) = audit.as_deref_mut() {
                            for &cid in cids {
                                a.flushed(cid, *t);
                            }
                        }
                        let outcome = engine.upload_transaction_faulty(
                            chunks,
                            day,
                            *t,
                            faults,
                            policy,
                            &mut dev_rng,
                            None,
                        );
                        play_transaction(outcome, *t, &mut fault_stats, &mut |spec, at| {
                            play(spec, at, hh.ip, hh.access, day, &mut dev_rng)
                        });
                    }
                }

                // Downloads while on-line.
                if let Some(downs) = session_downloads.get(&si) {
                    for (t, chunks) in downs {
                        let outcome = engine.download_transaction_faulty(
                            chunks,
                            day,
                            *t,
                            faults,
                            policy,
                            &mut dev_rng,
                            None,
                        );
                        play_transaction(outcome, *t, &mut fault_stats, &mut |spec, at| {
                            play(spec, at, hh.ip, hh.access, day, &mut dev_rng)
                        });
                    }
                }

                // Rare crash report (exception back-trace to dl-debugX).
                if dev_rng.chance(0.008) {
                    let spec = engine.backtrace_flow(&mut dev_rng);
                    play(
                        &spec,
                        session.start + SimDuration::from_secs(dev_rng.range_u64(30, 300)),
                        hh.ip,
                        hh.access,
                        day,
                        &mut dev_rng,
                    );
                }

                // Occasional event-log report.
                if dev_rng.chance(0.15) {
                    let spec = engine.event_log_flow(&mut dev_rng);
                    play(
                        &spec,
                        session.start + SimDuration::from_secs(dev_rng.range_u64(60, 600)),
                        hh.ip,
                        hh.access,
                        day,
                        &mut dev_rng,
                    );
                }

                // The misbehaving uploader: consecutive single-4MB-chunk
                // connections during its active window (Home 2, days 8–22),
                // clipped to the part of the session overlapping that window.
                if dev.abnormal {
                    let win_lo =
                        SimTime::from_day_offset(8.min(config.days - 1), SimDuration::ZERO);
                    let win_hi = SimTime::from_day_offset(23.min(config.days), SimDuration::ZERO);
                    let lo = session.start.max(win_lo);
                    let hi = session.end.min(win_hi);
                    let mut t = lo + SimDuration::from_secs(30);
                    let mut n: u64 = dev.host_int.0 << 16;
                    while t < hi {
                        n += 1;
                        let chunk = ChunkWork {
                            id: ChunkId(n),
                            wire_bytes: 4 * 1024 * 1024,
                            raw_bytes: 4 * 1024 * 1024,
                        };
                        let spec = engine.store_flow(&[chunk], day, &mut dev_rng, None, t);
                        play(&spec, t, hh.ip, hh.access, day, &mut dev_rng);
                        t += SimDuration::from_secs(dev_rng.range_u64(1_100, 1_900));
                    }
                }
            }
        }

        // The household's final chunk-store content: the durability side
        // of the convergence oracle checks every flushed commit's live
        // chunks against this snapshot.
        if let Some(a) = audit.as_deref_mut() {
            a.snapshot_store(store.ids());
        }
    }

    // ---- Phase D: web interface, direct links, API ----------------------
    if hh.uses_web {
        let mut web_rng = hh_rng.fork_named("web");
        for day in 0..config.days {
            let at = |r: &mut Rng| {
                SimTime::from_day_offset(day, SimDuration::from_secs(r.range_u64(8 * 3600, 85_000)))
            };
            if web_rng.chance(0.06) {
                let t = at(&mut web_rng);
                for spec in web_session_flows(&mut web_rng) {
                    play(&spec, t, hh.ip, hh.access, day, &mut web_rng.clone());
                }
            }
            if web_rng.chance(0.55) {
                let t = at(&mut web_rng);
                let spec = direct_link_flow(&mut web_rng);
                play(&spec, t, hh.ip, hh.access, day, &mut web_rng.clone());
            }
            if hh.behavior.is_some() && web_rng.chance(0.08) {
                let t = at(&mut web_rng);
                for spec in api_session_flows(&mut web_rng) {
                    play(&spec, t, hh.ip, hh.access, day, &mut web_rng.clone());
                }
            }
        }
    }

    // ---- Phase E: background provider traffic ---------------------------
    let mut prng = providers_root.fork(idx as u64);
    providers::household_flows(config, hh, &mut prng, &mut |rec| emit(rec, None));

    stats.fault_stats.absorb(fault_stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vantage::VantageKind;
    use dropbox_analysis::classify::{dropbox_role, provider_of, DropboxRole, Provider};

    fn small_sim(kind: VantageKind) -> SimOutput {
        let mut config = VantageConfig::paper(kind, 0.02);
        config.days = 7;
        simulate_vantage(&config, ClientVersion::V1_2_52, 42, &FaultPlan::none())
    }

    #[test]
    fn produces_flows_of_all_planes() {
        let out = small_sim(VantageKind::Home1);
        let ds = &out.dataset;
        assert!(!ds.flows.is_empty());
        let mut roles = std::collections::HashSet::new();
        for f in ds.flows.iter() {
            if let Some(r) = dropbox_role(f) {
                roles.insert(format!("{r:?}"));
            }
        }
        assert!(roles.contains("ClientStorage"), "roles: {roles:?}");
        assert!(roles.contains("ClientControl"));
        assert!(roles.contains("NotifyControl"));
    }

    #[test]
    fn truths_align_with_flows() {
        let out = small_sim(VantageKind::Home1);
        assert_eq!(out.dataset.flows.len(), out.truths.len());
        // All monitored Dropbox flows carry a truth; background has none.
        for (f, t) in out.dataset.flows.iter().zip(&out.truths) {
            match provider_of(f) {
                Provider::Dropbox => assert!(t.is_some(), "dropbox flow without truth"),
                _ => assert!(t.is_none(), "background flow with truth"),
            }
        }
    }

    #[test]
    fn none_plan_reports_zero_fault_stats() {
        let out = small_sim(VantageKind::Home1);
        assert_eq!(out.fault_stats, FaultStats::default());
        assert!(out.dataset.flows.iter().all(|f| !f.aborted));
    }

    #[test]
    fn lossy_plan_yields_retries_and_aborted_records() {
        let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
        config.days = 7;
        let plan = FaultPlan::lossy(42, config.days);
        let out = simulate_vantage(&config, ClientVersion::V1_2_52, 42, &plan);
        let s = out.fault_stats;
        assert!(s.sync_retries > 0, "no retries recorded: {s:?}");
        assert!(s.aborted_flows > 0, "no aborted flows recorded: {s:?}");
        assert!(s.notify_aborts > 0, "no notification churn recorded: {s:?}");
        // The injected resets are visible at the probe as aborted records.
        assert!(
            out.dataset.flows.iter().any(|f| f.aborted),
            "no monitored record flagged aborted"
        );
        // Recovery is lossless: retried transfers add wire bytes, but the
        // analysis-facing unique byte counters stay panic-free and sane.
        assert!(out
            .dataset
            .flows
            .iter()
            .any(|f| f.up.rtx_bytes > 0 || f.down.rtx_bytes > 0));
    }

    #[test]
    fn chaos_plan_exercises_degraded_modes_and_converges() {
        let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
        config.days = 7;
        let plan = FaultPlan::chaos(42, config.days, &simcore::faults::OutageKnobs::default());
        let (out, audit) = simulate_vantage_audited(&config, ClientVersion::V1_2_52, 42, &plan);
        let s = out.fault_stats;
        assert!(s.reconnect_attempts > 0, "no reconnect probes: {s:?}");
        assert!(s.reconnects > 0, "no reconnect storm: {s:?}");
        assert!(s.fallback_polls > 0, "no fallback polls: {s:?}");
        // The convergence oracle finds nothing to complain about.
        let violations = crate::oracle::check(&audit);
        assert!(
            violations.is_empty(),
            "oracle violations: {:?}",
            violations.iter().map(|v| v.render()).collect::<Vec<_>>()
        );
        // Degraded sessions still produce a full flow mix.
        assert!(out.dataset.flows.len() > 100);
    }

    #[test]
    fn audited_chaos_run_is_byte_identical_to_unaudited() {
        let mut config = VantageConfig::paper(VantageKind::Campus1, 0.02);
        config.days = 7;
        let plan = FaultPlan::chaos(7, config.days, &simcore::faults::OutageKnobs::default());
        let plain = simulate_vantage(&config, ClientVersion::V1_2_52, 9, &plan);
        let (audited, audit) = simulate_vantage_audited(&config, ClientVersion::V1_2_52, 9, &plan);
        assert_eq!(plain.dataset.flows.len(), audited.dataset.flows.len());
        for (a, b) in plain.dataset.flows.iter().zip(audited.dataset.flows.iter()) {
            assert_eq!(a.total_bytes(), b.total_bytes());
            assert_eq!(a.first_syn, b.first_syn);
        }
        assert_eq!(plain.fault_stats, audited.fault_stats);
        // The ledger actually recorded the capture.
        assert!(audit.commit_count() > 0);
    }

    #[test]
    fn clean_audited_run_has_no_degraded_mode_artifacts() {
        let mut config = VantageConfig::paper(VantageKind::Home1, 0.02);
        config.days = 7;
        let (out, audit) =
            simulate_vantage_audited(&config, ClientVersion::V1_2_52, 42, &FaultPlan::none());
        assert_eq!(out.fault_stats, FaultStats::default());
        assert!(audit.reconnect_events().is_empty());
        assert_eq!(audit.fallback_poll_count(), 0);
        assert!(audit.commits().iter().all(|c| !c.deferred));
        let violations = crate::oracle::check(&audit);
        assert!(
            violations.is_empty(),
            "clean run must converge: {:?}",
            violations.iter().map(|v| v.render()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_sim(VantageKind::Campus1);
        let b = small_sim(VantageKind::Campus1);
        assert_eq!(a.dataset.flows.len(), b.dataset.flows.len());
        let bytes_a: u64 = a.dataset.flows.iter().map(|f| f.total_bytes()).sum();
        let bytes_b: u64 = b.dataset.flows.iter().map(|f| f.total_bytes()).sum();
        assert_eq!(bytes_a, bytes_b);
    }

    #[test]
    fn notification_flows_carry_device_ids() {
        // The lossy Campus 1 capture of the fault ablation aborts
        // notification fragments: each RST must close the record that
        // carries the request, not leave it behind for a late server ACK.
        let mut campus = VantageConfig::paper(VantageKind::Campus1, 0.02);
        campus.days = 7;
        let lossy = simulate_vantage(
            &campus,
            ClientVersion::V1_2_52,
            42,
            &FaultPlan::lossy(7, campus.days),
        );
        assert!(lossy.fault_stats.notify_aborts > 0);
        for out in [small_sim(VantageKind::Home1), lossy] {
            let notify: Vec<_> = out
                .dataset
                .flows
                .iter()
                .filter(|f| dropbox_role(f) == Some(DropboxRole::NotifyControl))
                .collect();
            assert!(!notify.is_empty());
            assert!(notify.iter().all(|f| f.notify.is_some()));
        }
    }

    #[test]
    fn storage_flows_have_valid_truth_tags() {
        let out = small_sim(VantageKind::Home1);
        let mut stores = 0;
        let mut retrieves = 0;
        for (f, t) in out.dataset.flows.iter().zip(&out.truths) {
            if dropbox_role(f) == Some(DropboxRole::ClientStorage) {
                match t {
                    Some(FlowTruth::Store { .. }) => stores += 1,
                    Some(FlowTruth::Retrieve { .. }) => retrieves += 1,
                    other => panic!("storage flow with truth {other:?}"),
                }
            }
        }
        assert!(stores > 0, "no store flows generated");
        assert!(retrieves > 0, "no retrieve flows generated");
    }

    #[test]
    fn lan_sync_saves_wan_retrievals_in_multi_device_homes() {
        // With LAN sync active, some same-household propagation is served
        // locally; the saving counter must be positive on home vantages.
        let mut config = VantageConfig::paper(VantageKind::Home1, 0.04);
        config.days = 10;
        let out = simulate_vantage(&config, ClientVersion::V1_2_52, 11, &FaultPlan::none());
        assert!(out.lan_synced > 0, "no LAN-sync savings recorded");
    }

    #[test]
    fn v14_coalescing_reduces_storage_flow_count() {
        let mut config = VantageConfig::paper(VantageKind::Campus1, 0.2);
        config.days = 10;
        let v1 = simulate_vantage(&config, ClientVersion::V1_2_52, 5, &FaultPlan::none());
        let v14 = simulate_vantage(&config, ClientVersion::V1_4_0, 5, &FaultPlan::none());
        let stores = |o: &SimOutput| {
            o.truths
                .iter()
                .filter(|t| matches!(t, Some(FlowTruth::Store { .. })))
                .count()
        };
        // Same population and events; coalescing merges commits within
        // 60 s, so v1.4.0 produces at most as many store flows.
        assert!(
            stores(&v14) <= stores(&v1),
            "v14 {} vs v1 {}",
            stores(&v14),
            stores(&v1)
        );
    }

    #[test]
    fn truth_users_cover_all_observed_devices() {
        let mut config = VantageConfig::paper(VantageKind::Home2, 0.03);
        config.days = 7;
        let out = simulate_vantage(&config, ClientVersion::V1_2_52, 9, &FaultPlan::none());
        let truth_devices: std::collections::BTreeSet<u64> =
            out.truth_users.iter().flatten().copied().collect();
        for f in &out.dataset.flows {
            if let Some(meta) = &f.notify {
                assert!(
                    truth_devices.contains(&meta.host_int),
                    "observed device {} missing from truth users",
                    meta.host_int
                );
            }
        }
    }

    #[test]
    fn campus2_records_lack_fqdn() {
        let out = small_sim(VantageKind::Campus2);
        assert!(out.dataset.flows.iter().all(|f| f.server_fqdn.is_none()));
        // But SNI still identifies Dropbox.
        assert!(out
            .dataset
            .flows
            .iter()
            .any(|f| provider_of(f) == Provider::Dropbox));
    }

    #[test]
    fn session_lookup_matches_linear_scan_on_boundaries() {
        use crate::activity::Session;
        use crate::population::Behavior;

        let s = |a: u64, b: u64| Session {
            start: SimTime::from_secs(a),
            end: SimTime::from_secs(b),
        };
        let cases: Vec<Vec<Session>> = vec![
            vec![],
            vec![s(10, 20)],
            vec![s(10, 20), s(30, 45), s(100, 100), s(200, 250)],
        ];
        for sessions in cases {
            let dev = Dev {
                host_int: dropbox::metadata::HostInt(1),
                namespaces: Vec::new(),
                sessions: sessions.clone(),
                behavior: Behavior::Heavy,
                version: ClientVersion::V1_2_52,
                abnormal: false,
                nat_afflicted: false,
            };
            // Probe every boundary instant plus its neighbours and the
            // gaps, so `t == start`, `t == end`, and zero-length sessions
            // are all exercised.
            let second = simcore::SimDuration::from_secs(1);
            let mut probes = vec![SimTime::from_secs(0), SimTime::from_secs(1_000)];
            for sess in &sessions {
                for t in [sess.start, sess.end] {
                    probes.push(t);
                    probes.push(t + second);
                    if t >= SimTime::from_secs(1) {
                        probes.push(t - second);
                    }
                }
            }
            for t in probes {
                let linear_containing = sessions
                    .iter()
                    .position(|sess| sess.start <= t && t <= sess.end);
                let linear_next = sessions.iter().position(|sess| sess.start > t);
                assert_eq!(
                    dev.session_containing(t),
                    linear_containing,
                    "session_containing({t:?}) in {sessions:?}"
                );
                assert_eq!(
                    dev.next_session_after(t),
                    linear_next,
                    "next_session_after({t:?}) in {sessions:?}"
                );
            }
        }
    }
}
