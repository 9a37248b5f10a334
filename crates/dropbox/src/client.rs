//! The Dropbox client sync engine.
//!
//! Given chunk-level work (uploads after local changes, downloads after
//! remote changes), the engine produces the TCP [`FlowSpec`]s a real client
//! would generate, for both protocol generations:
//!
//! * **v1.2.52** (the version distributed during the paper's capture):
//!   every chunk is a separate `store`/`retrieve` operation acknowledged
//!   sequentially — the client waits one RTT plus the server reaction time
//!   between chunks (Sec. 4.4.2),
//! * **v1.4.0** (the Jun/Jul re-capture): `store_batch`/`retrieve_batch`
//!   bundle small chunks up to the 4 MB bundle budget; single-chunk
//!   commands remain in use for large chunks, and batches are still issued
//!   sequentially (Sec. 4.5.1).
//!
//! Transactions are limited to [`Command::MAX_CHUNKS_PER_BATCH`] chunks —
//! the run-time parameter that shapes Fig. 7/8's 100-chunk / ~400 MB flow
//! caps. Meta-data exchanges (`commit_batch` → `need_blocks`,
//! `close_changeset`) ride on separate short TLS connections to the
//! meta-data servers, reflecting their aggressive connection timeouts
//! (Sec. 2.3.2).

use crate::content::ChunkId;
use crate::protocol::{Command, ProtocolTrace, Sender};
use crate::spec::{self, Naming, ProviderSpec};
use crate::storage::ChunkStore;
use crate::{FlowSpec, FlowTruth};
use dnssim::{DnsDirectory, ServerRole};
use simcore::faults::{FaultPlan, FlowFaults};
use simcore::{dist, Rng, SimDuration, SimTime};
use tcpmodel::tls;
use tcpmodel::{CloseMode, Dialogue, Direction, Message, Write};

/// Client software generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientVersion {
    /// Stable version during the Mar–May 2012 capture.
    V1_2_52,
    /// Bundling version of the Jun/Jul 2012 re-capture.
    V1_4_0,
}

/// Per-operation wire overheads measured in the paper's testbed
/// (Appendix A.2/A.3).
pub mod overhead {
    /// Client-side overhead of one store operation.
    pub const STORE_CLIENT: u32 = 634;
    /// Server-side overhead of one storage operation (the `ok`).
    pub const SERVER_PER_OP: u32 = 309;
    /// Minimum client-side overhead of one retrieve request.
    pub const RETRIEVE_CLIENT_MIN: u32 = 362;
    /// Maximum client-side overhead of one retrieve request.
    pub const RETRIEVE_CLIENT_MAX: u32 = 426;
}

/// Certificate common name of every Dropbox service (Sec. 3.1).
pub const CERT_CN: &str = "*.dropbox.com";

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SyncConfig {
    /// Protocol generation.
    pub version: ClientVersion,
    /// Median server reaction time between storage operations.
    pub server_reaction_ms: f64,
    /// Median client reaction time between storage operations.
    pub client_reaction_ms: f64,
    /// The Home 2 "misbehaving device": submits single 4 MB chunks on
    /// consecutive connections and its flows lack acknowledgment messages
    /// (Secs. 4.3.1, A.3).
    pub no_storage_acks: bool,
    /// Provider protocol specification the engine is parameterised by
    /// (chunking, bundling, dedup/delta, naming). Defaults to the measured
    /// Dropbox deployment.
    pub spec: &'static ProviderSpec,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            version: ClientVersion::V1_2_52,
            server_reaction_ms: 120.0,
            client_reaction_ms: 60.0,
            no_storage_acks: false,
            spec: &spec::DROPBOX,
        }
    }
}

/// A chunk to transfer: identity plus compressed on-wire size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkWork {
    /// Chunk identity.
    pub id: ChunkId,
    /// Compressed (on-wire) size of the chunk data or delta.
    pub wire_bytes: u64,
    /// Raw size (for the dedup store accounting).
    pub raw_bytes: u64,
}

/// Exponential-backoff retry policy of the sync client.
///
/// Backoff for attempt `n` (0-based) is `base · factor^n`, capped at
/// `max_backoff`, with deterministic jitter drawn from the caller's RNG
/// (uniform in `[0.5, 1.0)` of the nominal delay) so synchronized clients
/// do not retry in lockstep. After `max_attempts` consecutive failures the
/// client stops giving up: the next attempt is forced to succeed, which
/// bounds recovery time and guarantees every transaction eventually
/// completes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the second attempt.
    pub base: SimDuration,
    /// Multiplicative growth per failed attempt.
    pub factor: f64,
    /// Upper bound on a single backoff.
    pub max_backoff: SimDuration,
    /// Failures tolerated before a retry is forced to succeed.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_secs(2),
            factor: 2.0,
            max_backoff: SimDuration::from_secs(300),
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based), with jitter from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut Rng) -> SimDuration {
        let nominal = self.base.as_secs_f64() * self.factor.powi(attempt.min(30) as i32);
        let capped = nominal.min(self.max_backoff.as_secs_f64());
        SimDuration::from_secs_f64(capped * (0.5 + 0.5 * rng.f64()))
    }
}

/// Flows of one sync transaction, each with the offset from the
/// transaction start at which it should be played, plus recovery counters
/// for the run's fault statistics (all zero under [`FaultPlan::none`]).
#[derive(Debug, Default)]
pub struct RecoveryOutcome {
    /// `(offset, flow)` pairs in play order; offsets accumulate backoffs.
    pub flows: Vec<(SimDuration, FlowSpec)>,
    /// Retry attempts performed (outage waits and transfer retries).
    pub retries: u32,
    /// Storage flows cut mid-transfer by an injected reset.
    pub aborted_flows: u32,
}

/// The sync engine of one device.
pub struct SyncEngine<'a> {
    dns: &'a DnsDirectory,
    store: &'a ChunkStore,
    config: SyncConfig,
    device_id: u64,
    alias_cursor: usize,
}

impl<'a> SyncEngine<'a> {
    /// Create the engine for a device.
    pub fn new(
        dns: &'a DnsDirectory,
        store: &'a ChunkStore,
        config: SyncConfig,
        device_id: u64,
    ) -> Self {
        SyncEngine {
            dns,
            store,
            config,
            device_id,
            alias_cursor: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.config
    }

    /// Server answer to `commit_batch`: deduplicating providers report
    /// only the chunks the store is missing; the rest demand everything.
    fn need_blocks(&self, all_ids: &[(ChunkId, u64)]) -> Vec<ChunkId> {
        if self.config.spec.dedup {
            self.store.need_blocks(all_ids)
        } else {
            all_ids.iter().map(|&(id, _)| id).collect()
        }
    }

    fn server_reaction(&self, rng: &mut Rng) -> SimDuration {
        SimDuration::from_secs_f64(
            dist::lognormal_median(rng, self.config.server_reaction_ms, 0.4) / 1_000.0,
        )
    }

    fn client_reaction(&self, rng: &mut Rng) -> SimDuration {
        SimDuration::from_secs_f64(
            dist::lognormal_median(rng, self.config.client_reaction_ms, 0.4) / 1_000.0,
        )
    }

    /// Next storage front. Dropbox rotates the per-device alias list of
    /// Sec. 2.4; flat-named providers rotate their `storeN` pool.
    fn next_storage_alias(&mut self, day: u32) -> String {
        let name = match self.config.spec.naming {
            Naming::DropboxDns => {
                let list = self.dns.storage_aliases_for(self.device_id, day);
                list[self.alias_cursor % list.len()].clone()
            }
            Naming::Flat { .. } => self.config.spec.storage_name(self.alias_cursor),
        };
        self.alias_cursor += 1;
        name
    }

    /// A short TLS control exchange with the meta-data servers.
    ///
    /// `exchanges` request/response pairs of small messages; the connection
    /// is closed actively by the client shortly after (the aggressive
    /// timeout behaviour producing "several short TLS connections").
    pub fn control_flow(
        &mut self,
        via_lb: bool,
        exchanges: &[(u32, u32)],
        rng: &mut Rng,
    ) -> FlowSpec {
        let name = match self.config.spec.naming {
            Naming::DropboxDns => self.dns.meta_name(via_lb, rng),
            Naming::Flat { .. } => self.config.spec.control_name(),
        };
        let mut messages =
            tls::handshake(&name, self.config.spec.cert_cn(), self.server_reaction(rng));
        for &(req, resp) in exchanges {
            messages.push(Message {
                dir: Direction::Up,
                delay: self.client_reaction(rng),
                writes: vec![tls::record(req)],
            });
            messages.push(Message {
                dir: Direction::Down,
                delay: self.server_reaction(rng),
                writes: vec![tls::record(resp)],
            });
        }
        let dialogue = Dialogue::new(messages).with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(200),
        });
        FlowSpec {
            server_name: name,
            port: ServerRole::MetaData.port(),
            dialogue,
            truth: FlowTruth::Control,
            faults: None,
        }
    }

    /// The session-start control traffic: `register_host` then `list`.
    /// Returns the flows; `list` responses scale with the amount of
    /// pending meta-data (`pending_updates`).
    pub fn session_start_flows(&mut self, pending_updates: usize, rng: &mut Rng) -> Vec<FlowSpec> {
        let list_resp = 600 + (pending_updates as u32).min(2_000) * 120;
        vec![
            self.control_flow(false, &[(420, 380)], rng), // register_host
            self.control_flow(false, &[(350, list_resp)], rng), // list
        ]
    }

    /// The flows of one *upload* transaction on a fault-free network, in
    /// play order: [`SyncEngine::upload_transaction_faulty`] under
    /// [`FaultPlan::none`], where every flow plays at the transaction
    /// start. `trace`, when given, records the ladder at `trace_t0`.
    pub fn upload_transaction(
        &mut self,
        chunks: &[ChunkWork],
        day: u32,
        rng: &mut Rng,
        trace: Option<&mut ProtocolTrace>,
        trace_t0: SimTime,
    ) -> Vec<FlowSpec> {
        let none = FaultPlan::none();
        let policy = RetryPolicy::default();
        let out = self.upload_transaction_faulty(chunks, day, trace_t0, &none, &policy, rng, trace);
        out.flows.into_iter().map(|(_, spec)| spec).collect()
    }

    /// One storage connection uploading a batch (≤ 100 chunks). Public so
    /// that pathological actors (the Home 2 single-chunk uploader) can be
    /// driven without the surrounding meta-data transaction.
    pub fn store_flow(
        &mut self,
        batch: &[ChunkWork],
        day: u32,
        rng: &mut Rng,
        mut trace: Option<&mut ProtocolTrace>,
        trace_t0: SimTime,
    ) -> FlowSpec {
        let name = self.next_storage_alias(day);
        let mut messages =
            tls::handshake(&name, self.config.spec.cert_cn(), self.server_reaction(rng));
        let mut data_bytes = 0u64;

        let groups = self.bundle(batch);
        for group in &groups {
            let group_bytes: u64 = group.iter().map(|c| c.wire_bytes).sum();
            data_bytes += group_bytes;
            if let Some(t) = trace.as_deref_mut() {
                let ids: Vec<ChunkId> = group.iter().map(|c| c.id).collect();
                let cmd = if ids.len() == 1 {
                    Command::Store { id: ids[0] }
                } else {
                    Command::StoreBatch { ids }
                };
                t.record(trace_t0, Sender::Client, cmd);
            }
            messages.push(Message {
                dir: Direction::Up,
                delay: self.client_reaction(rng),
                writes: vec![tls::record(overhead::STORE_CLIENT + group_bytes as u32)],
            });
            if !self.config.no_storage_acks {
                if let Some(t) = trace.as_deref_mut() {
                    t.record(trace_t0, Sender::Server, Command::Ok);
                }
                messages.push(Message {
                    dir: Direction::Down,
                    delay: self.server_reaction(rng),
                    writes: vec![Write::plain(overhead::SERVER_PER_OP)],
                });
            }
        }

        let close = if self.config.no_storage_acks {
            // The misbehaving device opens consecutive connections, killing
            // each as soon as its upload finishes.
            CloseMode::ClientRst {
                delay: SimDuration::from_millis(500),
            }
        } else {
            Dialogue::new(Vec::new()).close // default 60 s server timeout
        };
        FlowSpec {
            server_name: name,
            port: ServerRole::ClientStorage.port(),
            dialogue: Dialogue::new(messages).with_close(close),
            truth: FlowTruth::Store {
                chunks: batch.len() as u32,
                data_bytes,
                acked: !self.config.no_storage_acks,
            },
            faults: None,
        }
    }

    /// Build the flows of one *upload* synchronisation transaction under
    /// `plan`, each with its offset from the transaction start `at`.
    ///
    /// `chunks` are the chunk versions the client wants to commit. While
    /// the servers are inside an outage window, each `commit_batch` is
    /// refused with a short error exchange (the 5xx answer) and the client
    /// backs off per `policy`. The meta-data side then answers
    /// `need_blocks` (deduplicated against the global store), and only the
    /// missing chunks are uploaded, in transactions of at most 100 chunks,
    /// each on its own storage connection; `close_changeset` ends the
    /// ladder. A connection cut by the plan's reset probability commits
    /// the chunks acknowledged before the cut, and after a backoff the
    /// client *resumes*, re-offering only the uncommitted remainder on a
    /// fresh connection. Committed chunks are inserted into the store.
    ///
    /// Under [`FaultPlan::none`] no window is open and no reset is drawn,
    /// so every offset is zero and `rng` sees only the ladder's own draws.
    /// `trace`, when given, records the completed ladder's commands at
    /// `at` plus their offset; refused commits and cut connections are not
    /// recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn upload_transaction_faulty(
        &mut self,
        chunks: &[ChunkWork],
        day: u32,
        at: SimTime,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        rng: &mut Rng,
        mut trace: Option<&mut ProtocolTrace>,
    ) -> RecoveryOutcome {
        let mut out = RecoveryOutcome::default();
        if chunks.is_empty() {
            return out;
        }
        let mut offset = SimDuration::ZERO;
        let commit_req = 400 + 70 * chunks.len() as u32;

        let mut attempt = 0u32;
        while attempt < policy.max_attempts && !plan.server_available(at + offset) {
            out.flows
                .push((offset, self.control_flow(true, &[(commit_req, 120)], rng)));
            out.retries += 1;
            offset += policy.backoff(attempt, rng);
            attempt += 1;
        }

        // commit_batch → need_blocks; the response is sized by the hash list.
        let all_ids: Vec<(ChunkId, u64)> = chunks.iter().map(|c| (c.id, c.raw_bytes)).collect();
        let needed_ids = self.need_blocks(&all_ids);
        if let Some(t) = trace.as_deref_mut() {
            let hashes = all_ids.iter().map(|&(id, _)| id).collect();
            t.record(at + offset, Sender::Client, Command::CommitBatch { hashes });
            let hashes = needed_ids.clone();
            t.record(at + offset, Sender::Server, Command::NeedBlocks { hashes });
        }
        let need_resp = 200 + 70 * needed_ids.len() as u32;
        out.flows.push((
            offset,
            self.control_flow(true, &[(commit_req, need_resp)], rng),
        ));

        let mut remaining: Vec<ChunkWork> = chunks
            .iter()
            .filter(|c| needed_ids.contains(&c.id))
            .copied()
            .collect();

        let mut attempt = 0u32;
        while !remaining.is_empty() {
            let batch_len = remaining.len().min(Command::MAX_CHUNKS_PER_BATCH);
            let batch = &remaining[..batch_len];
            let abort =
                attempt < policy.max_attempts && plan.reset_p > 0.0 && rng.chance(plan.reset_p);
            if abort {
                let (spec, committed) = self.store_flow_aborted(batch, day, rng);
                for c in &committed {
                    self.store.put(c.id, c.raw_bytes);
                }
                remaining.retain(|c| !committed.iter().any(|k| k.id == c.id));
                out.flows.push((offset, spec));
                out.aborted_flows += 1;
                out.retries += 1;
                offset += policy.backoff(attempt, rng);
                attempt += 1;
                // Resume: re-offer only the uncommitted chunks. The server
                // answer sizes like a need_blocks over the remainder.
                let reoffer_resp = 200 + 70 * remaining.len() as u32;
                out.flows
                    .push((offset, self.control_flow(true, &[(260, reoffer_resp)], rng)));
            } else {
                let spec = self.store_flow(batch, day, rng, trace.as_deref_mut(), at + offset);
                for c in batch {
                    self.store.put(c.id, c.raw_bytes);
                }
                remaining.drain(..batch_len);
                out.flows.push((offset, spec));
            }
        }

        // close_changeset back on the meta side.
        if let Some(t) = trace {
            t.record(at + offset, Sender::Client, Command::CloseChangeset);
            t.record(at + offset, Sender::Server, Command::Ok);
        }
        out.flows
            .push((offset, self.control_flow(true, &[(260, 180)], rng)));
        out
    }

    /// A store connection that an injected fault cuts mid-transfer.
    ///
    /// The reset lands inside a uniformly-chosen transfer group: every
    /// group before it is fully written *and acknowledged* (those chunks
    /// are committed — returned for the caller to `put`), the chosen
    /// group's upload is truncated partway through its write, and nothing
    /// after it reaches the wire.
    fn store_flow_aborted(
        &mut self,
        batch: &[ChunkWork],
        day: u32,
        rng: &mut Rng,
    ) -> (FlowSpec, Vec<ChunkWork>) {
        let mut spec = self.store_flow(batch, day, rng, None, SimTime::EPOCH);

        // Reconstruct the grouping to find per-group write sizes. The
        // dialogue is: 4 handshake messages, then per group one Up write
        // (+ one Down OK unless acks are disabled).
        let groups = self.bundle(batch);
        let cut_group = rng.below(groups.len() as u64) as usize;
        let committed: Vec<ChunkWork> = groups[..cut_group]
            .iter()
            .flat_map(|g| g.iter().map(|&&c| c))
            .collect();

        let msgs_per_group = if self.config.no_storage_acks { 1 } else { 2 };
        let preamble: u64 = spec
            .dialogue
            .messages
            .iter()
            .take(4 + cut_group * msgs_per_group)
            .map(|m| m.size() as u64)
            .sum();
        let cut_write = spec.dialogue.messages[4 + cut_group * msgs_per_group].size() as u64;
        let frac = 0.15 + 0.7 * rng.f64();
        let threshold = (preamble + (cut_write as f64 * frac) as u64).max(1);

        spec.faults = Some(FlowFaults {
            reset_after_bytes: Some(threshold),
            ..FlowFaults::default()
        });
        // The fault injects the RST; no orderly close ever happens.
        spec.dialogue.close = CloseMode::LeftOpen;
        let data_bytes: u64 = committed.iter().map(|c| c.wire_bytes).sum();
        spec.truth = FlowTruth::Store {
            chunks: committed.len() as u32,
            data_bytes,
            acked: !self.config.no_storage_acks,
        };
        (spec, committed)
    }

    /// Build the flows of one *download* synchronisation transaction
    /// (after `list` reported remote changes) under `plan`, each with its
    /// offset from the transaction start `at`.
    ///
    /// While the servers are inside an outage window, each `list` is
    /// refused with a short error exchange and the client backs off per
    /// `policy`. Chunks are then fetched in transactions of at most 100,
    /// each on its own storage connection. A connection cut by the plan's
    /// reset probability is re-fetched whole after a backoff: retrieves
    /// are idempotent, so a truncated download commits nothing.
    ///
    /// Under [`FaultPlan::none`] no window is open and no reset is drawn,
    /// so every offset is zero and `rng` sees only the ladder's own draws.
    /// `trace`, when given, records the completed ladder's commands at
    /// `at` plus their offset; refused lists and cut connections are not
    /// recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn download_transaction_faulty(
        &mut self,
        chunks: &[ChunkWork],
        day: u32,
        at: SimTime,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        rng: &mut Rng,
        mut trace: Option<&mut ProtocolTrace>,
    ) -> RecoveryOutcome {
        let mut out = RecoveryOutcome::default();
        if chunks.is_empty() {
            return out;
        }
        let mut offset = SimDuration::ZERO;
        let list_resp = 400 + 90 * chunks.len() as u32;

        let mut attempt = 0u32;
        while attempt < policy.max_attempts && !plan.server_available(at + offset) {
            out.flows
                .push((offset, self.control_flow(false, &[(340, 120)], rng)));
            out.retries += 1;
            offset += policy.backoff(attempt, rng);
            attempt += 1;
        }
        if let Some(t) = trace.as_deref_mut() {
            t.record(at + offset, Sender::Client, Command::List);
        }
        out.flows
            .push((offset, self.control_flow(false, &[(340, list_resp)], rng)));

        for batch in chunks.chunks(Command::MAX_CHUNKS_PER_BATCH) {
            let mut attempt = 0u32;
            while attempt < policy.max_attempts && plan.reset_p > 0.0 && rng.chance(plan.reset_p) {
                let mut spec = self.retrieve_flow(batch, day, rng, None, SimTime::EPOCH);
                let total: u64 = spec.dialogue.messages.iter().map(|m| m.size() as u64).sum();
                let frac = 0.2 + 0.6 * rng.f64();
                spec.faults = Some(FlowFaults {
                    reset_after_bytes: Some(((total as f64 * frac) as u64).max(1)),
                    ..FlowFaults::default()
                });
                spec.dialogue.close = CloseMode::LeftOpen;
                out.flows.push((offset, spec));
                out.aborted_flows += 1;
                out.retries += 1;
                offset += policy.backoff(attempt, rng);
                attempt += 1;
            }
            let spec = self.retrieve_flow(batch, day, rng, trace.as_deref_mut(), at + offset);
            out.flows.push((offset, spec));
        }
        out
    }

    /// One storage connection downloading a batch (≤ 100 chunks).
    fn retrieve_flow(
        &mut self,
        batch: &[ChunkWork],
        day: u32,
        rng: &mut Rng,
        mut trace: Option<&mut ProtocolTrace>,
        trace_t0: SimTime,
    ) -> FlowSpec {
        let name = self.next_storage_alias(day);
        let mut messages =
            tls::handshake(&name, self.config.spec.cert_cn(), self.server_reaction(rng));
        let mut data_bytes = 0u64;

        let groups = self.bundle(batch);
        for group in &groups {
            let group_bytes: u64 = group.iter().map(|c| c.wire_bytes).sum();
            data_bytes += group_bytes;
            if let Some(t) = trace.as_deref_mut() {
                let ids: Vec<ChunkId> = group.iter().map(|c| c.id).collect();
                let cmd = if ids.len() == 1 {
                    Command::Retrieve { id: ids[0] }
                } else {
                    Command::RetrieveBatch { ids }
                };
                t.record(trace_t0, Sender::Client, cmd);
            }
            // The HTTP request is written as two pushed segments
            // (Fig. 19(b): "HTTP_retrieve (2 x PSH)"), totalling the
            // 362–426 bytes of Appendix A.3.
            let total = rng.range_u64(
                overhead::RETRIEVE_CLIENT_MIN as u64,
                overhead::RETRIEVE_CLIENT_MAX as u64,
            ) as u32;
            let first = 200u32;
            messages.push(Message {
                dir: Direction::Up,
                delay: self.client_reaction(rng),
                writes: vec![Write::plain(first), Write::plain(total - first)],
            });
            if let Some(t) = trace.as_deref_mut() {
                t.record(trace_t0, Sender::Server, Command::Ok);
            }
            messages.push(Message {
                dir: Direction::Down,
                delay: self.server_reaction(rng),
                writes: vec![tls::record(overhead::SERVER_PER_OP + group_bytes as u32)],
            });
        }

        FlowSpec {
            server_name: name,
            port: ServerRole::ClientStorage.port(),
            dialogue: Dialogue::new(messages),
            truth: FlowTruth::Retrieve {
                chunks: batch.len() as u32,
                data_bytes,
            },
            faults: None,
        }
    }

    /// Group chunks into transfer operations according to the provider
    /// spec and client version: without bundling every chunk is its own
    /// command; with bundling, chunks smaller than the spec's
    /// `max_member` are packed into bundles of up to `budget` bytes
    /// (Dropbox enables this from v1.4.0, Sec. 4.5.1).
    fn bundle<'b>(&self, batch: &'b [ChunkWork]) -> Vec<Vec<&'b ChunkWork>> {
        match self.config.spec.bundle_params(self.config.version) {
            None => batch.iter().map(|c| vec![c]).collect(),
            Some(b) => {
                let mut groups: Vec<Vec<&ChunkWork>> = Vec::new();
                let mut current: Vec<&ChunkWork> = Vec::new();
                let mut current_bytes = 0u64;
                for c in batch {
                    if c.wire_bytes >= b.max_member {
                        groups.push(vec![c]);
                        continue;
                    }
                    if current_bytes + c.wire_bytes > b.budget && !current.is_empty() {
                        groups.push(std::mem::take(&mut current));
                        current_bytes = 0;
                    }
                    current_bytes += c.wire_bytes;
                    current.push(c);
                }
                if !current.is_empty() {
                    groups.push(current);
                }
                groups
            }
        }
    }

    /// An exception back-trace upload (`dl-debugX.dropbox.com`, Sec. 2.3)
    /// — rare crash reports shipped to Amazon-side collectors.
    pub fn backtrace_flow(&mut self, rng: &mut Rng) -> FlowSpec {
        let name = format!("dl-debug{}.dropbox.com", rng.range_u64(1, 4));
        let mut messages =
            tls::handshake(&name, self.config.spec.cert_cn(), self.server_reaction(rng));
        messages.push(Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(100),
            writes: vec![tls::record(rng.range_u64(2_000, 40_000) as u32)],
        });
        messages.push(Message {
            dir: Direction::Down,
            delay: self.server_reaction(rng),
            writes: vec![tls::record(150)],
        });
        FlowSpec {
            server_name: name,
            port: 443,
            dialogue: Dialogue::new(messages).with_close(CloseMode::ClientFin {
                delay: SimDuration::from_millis(100),
            }),
            truth: FlowTruth::SystemLog,
            faults: None,
        }
    }

    /// An event-log report flow (`d.dropbox.com`, Sec. 2.3) — sporadic,
    /// small, and excluded from the paper's deeper analysis.
    pub fn event_log_flow(&mut self, rng: &mut Rng) -> FlowSpec {
        let name = "d.dropbox.com".to_owned();
        let mut messages =
            tls::handshake(&name, self.config.spec.cert_cn(), self.server_reaction(rng));
        messages.push(Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(50),
            writes: vec![tls::record(rng.range_u64(300, 2_000) as u32)],
        });
        messages.push(Message {
            dir: Direction::Down,
            delay: self.server_reaction(rng),
            writes: vec![tls::record(120)],
        });
        FlowSpec {
            server_name: name,
            port: 443,
            dialogue: Dialogue::new(messages).with_close(CloseMode::ClientFin {
                delay: SimDuration::from_millis(100),
            }),
            truth: FlowTruth::SystemLog,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ChunkId;

    fn chunkw(id: u64, bytes: u64) -> ChunkWork {
        ChunkWork {
            id: ChunkId(id),
            wire_bytes: bytes,
            raw_bytes: bytes,
        }
    }

    fn engine_with<'a>(
        dns: &'a DnsDirectory,
        store: &'a ChunkStore,
        version: ClientVersion,
    ) -> SyncEngine<'a> {
        SyncEngine::new(
            dns,
            store,
            SyncConfig {
                version,
                ..SyncConfig::default()
            },
            42,
        )
    }

    #[test]
    fn upload_splits_into_100_chunk_batches() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks: Vec<ChunkWork> = (0..250).map(|i| chunkw(i, 10_000)).collect();
        let mut rng = Rng::new(1);
        let flows = eng.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let storage: Vec<&FlowSpec> = flows
            .iter()
            .filter(|f| matches!(f.truth, FlowTruth::Store { .. }))
            .collect();
        assert_eq!(storage.len(), 3, "250 chunks -> 3 batches");
        let counts: Vec<u32> = storage.iter().filter_map(|f| f.truth.chunks()).collect();
        assert_eq!(counts, vec![100, 100, 50]);
        // Control flows bracket the storage flows.
        assert!(matches!(flows.first().unwrap().truth, FlowTruth::Control));
        assert!(matches!(flows.last().unwrap().truth, FlowTruth::Control));
    }

    #[test]
    fn dedup_suppresses_known_chunks() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let chunks: Vec<ChunkWork> = (0..10).map(|i| chunkw(i, 5_000)).collect();
        let mut rng = Rng::new(2);
        let mut eng1 = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let f1 = eng1.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        assert!(f1
            .iter()
            .any(|f| matches!(f.truth, FlowTruth::Store { .. })));
        // Second device uploads the same content: fully deduplicated, no
        // storage flows at all.
        let mut eng2 = SyncEngine::new(&dns, &store, SyncConfig::default(), 43);
        let f2 = eng2.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        assert!(f2.iter().all(|f| matches!(f.truth, FlowTruth::Control)));
    }

    #[test]
    fn no_dedup_spec_reuploads_duplicated_content() {
        // Same duplicated-content scenario as above, but through a spec
        // without dedup: the second device must put every chunk back on
        // the wire, strictly more upload bytes than the deduplicating
        // provider's zero.
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let chunks: Vec<ChunkWork> = (0..10).map(|i| chunkw(i, 5_000)).collect();
        let mut rng = Rng::new(2);
        let config = SyncConfig {
            spec: &spec::SKYDRIVE_LIKE,
            ..SyncConfig::default()
        };
        let mut eng1 = SyncEngine::new(&dns, &store, config.clone(), 42);
        eng1.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let mut eng2 = SyncEngine::new(&dns, &store, config, 43);
        let f2 = eng2.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let storage_up: u64 = f2
            .iter()
            .filter(|f| matches!(f.truth, FlowTruth::Store { .. }))
            .map(|f| f.dialogue.bytes_up())
            .sum();
        assert!(
            storage_up > 10 * 5_000,
            "no-dedup second device re-uploads everything ({storage_up} B up)"
        );
    }

    #[test]
    fn v1_sends_one_ok_per_chunk() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks: Vec<ChunkWork> = (0..5).map(|i| chunkw(i, 20_000)).collect();
        let mut rng = Rng::new(3);
        let flows = eng.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let store_flow = flows
            .iter()
            .find(|f| matches!(f.truth, FlowTruth::Store { .. }))
            .unwrap();
        // Down messages: 2 TLS handshake + 5 OKs.
        let down = store_flow
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Down)
            .count();
        assert_eq!(down, 7);
        // Each OK is exactly the 309-byte per-op overhead.
        let oks: Vec<u32> = store_flow
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Down)
            .skip(2)
            .map(|m| m.size())
            .collect();
        assert!(oks.iter().all(|&s| s == overhead::SERVER_PER_OP));
    }

    #[test]
    fn v14_bundles_small_chunks() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_4_0);
        // 40 chunks of 100 kB -> bundles of ~40 fit 4 MB -> 1 group.
        let chunks: Vec<ChunkWork> = (0..40).map(|i| chunkw(i, 100_000)).collect();
        let mut rng = Rng::new(4);
        let flows = eng.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let store_flow = flows
            .iter()
            .find(|f| matches!(f.truth, FlowTruth::Store { .. }))
            .unwrap();
        let down = store_flow
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Down)
            .count();
        // 2 handshake + 1 single bundle OK.
        assert_eq!(down, 3);
    }

    #[test]
    fn v14_keeps_large_chunks_single() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let eng = engine_with(&dns, &store, ClientVersion::V1_4_0);
        let big = [
            chunkw(1, 3_000_000),
            chunkw(2, 3_500_000),
            chunkw(3, 50_000),
        ];
        let refs: Vec<&ChunkWork> = big.iter().collect();
        let groups = eng.bundle(&big);
        assert_eq!(groups.len(), 3, "two large singles + one small group");
        assert_eq!(groups[0].len(), 1);
        assert_eq!(groups[2], vec![refs[2]]);
    }

    #[test]
    fn retrieve_requests_are_two_pushed_writes() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks = [chunkw(1, 10_000), chunkw(2, 12_000)];
        let mut rng = Rng::new(5);
        let out = eng.download_transaction_faulty(
            &chunks,
            0,
            SimTime::EPOCH,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            &mut rng,
            None,
        );
        let (_, rf) = out
            .flows
            .iter()
            .find(|(_, f)| matches!(f.truth, FlowTruth::Retrieve { .. }))
            .unwrap();
        let up_requests: Vec<&Message> = rf
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Up)
            .skip(2) // TLS handshake writes
            .collect();
        assert_eq!(up_requests.len(), 2);
        for req in up_requests {
            assert_eq!(req.writes.len(), 2, "HTTP_retrieve is 2 x PSH");
            let total = req.size();
            assert!(
                (overhead::RETRIEVE_CLIENT_MIN..=overhead::RETRIEVE_CLIENT_MAX).contains(&total)
            );
        }
    }

    #[test]
    fn storage_aliases_rotate_per_flow() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let mut rng = Rng::new(6);
        let chunks: Vec<ChunkWork> = (0..250).map(|i| chunkw(i, 1_000)).collect();
        let flows = eng.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let names: Vec<&str> = flows
            .iter()
            .filter(|f| matches!(f.truth, FlowTruth::Store { .. }))
            .map(|f| f.server_name.as_str())
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names[0] != names[1] || names[1] != names[2]);
        assert!(names.iter().all(|n| n.starts_with("dl-client")));
    }

    #[test]
    fn misbehaving_device_has_no_acks_and_rst_close() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = SyncEngine::new(
            &dns,
            &store,
            SyncConfig {
                no_storage_acks: true,
                ..SyncConfig::default()
            },
            4096,
        );
        let mut rng = Rng::new(7);
        let chunks = [chunkw(1, 4 * 1024 * 1024)];
        let flows = eng.upload_transaction(&chunks, 0, &mut rng, None, SimTime::EPOCH);
        let sf = flows
            .iter()
            .find(|f| matches!(f.truth, FlowTruth::Store { .. }))
            .unwrap();
        let down = sf
            .dialogue
            .messages
            .iter()
            .filter(|m| m.dir == Direction::Down)
            .count();
        assert_eq!(down, 2, "handshake only, no OKs");
        assert!(matches!(sf.dialogue.close, CloseMode::ClientRst { .. }));
        match sf.truth {
            FlowTruth::Store { acked, .. } => assert!(!acked),
            _ => unreachable!(),
        }
    }

    #[test]
    fn backoff_golden_values() {
        // Pinned sequence: exponential growth under deterministic jitter.
        // Any change to the RNG stream, the policy defaults, or the jitter
        // formula shows up here as a reproducibility break.
        let p = RetryPolicy::default();
        let mut rng = Rng::new(42);
        let micros: Vec<u64> = (0..8).map(|a| p.backoff(a, &mut rng).micros()).collect();
        assert_eq!(
            micros,
            vec![
                1_083_863,
                2_757_961,
                6_720_174,
                15_397_544,
                31_868_863,
                56_631_663,
                110_032_549,
                236_801_081,
            ]
        );
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let p = RetryPolicy::default();
        let mut rng = Rng::new(9);
        for attempt in 0..40 {
            let b = p.backoff(attempt, &mut rng).as_secs_f64();
            let nominal = (2.0f64 * 2.0f64.powi(attempt.min(30) as i32)).min(300.0);
            assert!(
                b >= nominal * 0.5 - 1e-9 && b < nominal + 1e-9,
                "attempt {attempt}: {b}"
            );
        }
        // Deep attempts sit at the cap.
        let deep = p.backoff(20, &mut rng).as_secs_f64();
        assert!((150.0..300.0).contains(&deep), "capped backoff {deep}");
    }

    #[test]
    fn faulty_upload_resumes_only_uncommitted_chunks() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks: Vec<ChunkWork> = (0..30).map(|i| chunkw(i, 50_000)).collect();
        let plan = FaultPlan {
            reset_p: 0.7, // force several aborts
            ..FaultPlan::none()
        };
        let policy = RetryPolicy::default();
        let mut rng = Rng::new(11);
        let out = eng.upload_transaction_faulty(
            &chunks,
            0,
            SimTime::from_secs(100),
            &plan,
            &policy,
            &mut rng,
            None,
        );
        assert!(out.aborted_flows > 0, "reset_p 0.7 must cut something");
        assert_eq!(out.retries, out.aborted_flows, "no outage in this plan");
        // Every chunk committed exactly once despite the cuts.
        let stats = store.stats();
        assert_eq!(stats.chunks, 30);
        assert_eq!(stats.bytes, 30 * 50_000);
        // Aborted store flows carry an intrinsic reset fault; clean ones
        // do not.
        for (_, f) in &out.flows {
            if let FlowTruth::Store { .. } = f.truth {
                if let Some(fault) = f.faults {
                    assert!(fault.reset_after_bytes.is_some());
                }
            } else {
                assert!(f.faults.is_none());
            }
        }
        // Offsets are non-decreasing (backoffs accumulate).
        let offsets: Vec<_> = out.flows.iter().map(|(o, _)| *o).collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            offsets.last().unwrap() > &SimDuration::ZERO,
            "retries must push later flows out in time"
        );
    }

    #[test]
    fn faulty_upload_with_no_faults_commits_everything_without_retries() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks: Vec<ChunkWork> = (0..10).map(|i| chunkw(i, 8_000)).collect();
        let mut rng = Rng::new(12);
        let out = eng.upload_transaction_faulty(
            &chunks,
            0,
            SimTime::from_secs(100),
            &FaultPlan::none(),
            &RetryPolicy::default(),
            &mut rng,
            None,
        );
        assert_eq!(out.retries, 0);
        assert_eq!(out.aborted_flows, 0);
        assert!(out.flows.iter().all(|(o, _)| *o == SimDuration::ZERO));
        assert_eq!(store.stats().chunks, 10);
    }

    #[test]
    fn outage_window_defers_commit_with_error_exchanges() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks = [chunkw(1, 5_000)];
        let start = SimTime::from_secs(1_000);
        let plan = FaultPlan {
            // Outage covering the transaction start; the client must back
            // off past its end.
            outages: vec![(SimTime::from_secs(900), SimTime::from_secs(1_010))],
            ..FaultPlan::none()
        };
        let mut rng = Rng::new(13);
        let out = eng.upload_transaction_faulty(
            &chunks,
            0,
            start,
            &plan,
            &RetryPolicy::default(),
            &mut rng,
            None,
        );
        assert!(out.retries > 0, "commit must be refused at least once");
        assert_eq!(out.aborted_flows, 0);
        // The successful part of the transaction plays after the outage
        // (or after max_attempts force-succeeds — not with this window).
        let last_offset = out.flows.last().unwrap().0;
        assert!(plan.server_available(start + last_offset));
        assert_eq!(store.stats().chunks, 1);
    }

    #[test]
    fn faulty_download_refetches_whole_batch() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks: Vec<ChunkWork> = (0..5).map(|i| chunkw(i, 30_000)).collect();
        let plan = FaultPlan {
            reset_p: 0.8,
            ..FaultPlan::none()
        };
        let mut rng = Rng::new(14);
        let out = eng.download_transaction_faulty(
            &chunks,
            0,
            SimTime::from_secs(50),
            &plan,
            &RetryPolicy::default(),
            &mut rng,
            None,
        );
        assert!(out.aborted_flows > 0);
        // The final retrieve of each batch is clean and carries the full
        // chunk count (downloads are idempotent, nothing is partial).
        let (_, last_retrieve) = out
            .flows
            .iter()
            .rev()
            .find(|(_, f)| matches!(f.truth, FlowTruth::Retrieve { .. }))
            .unwrap();
        assert!(last_retrieve.faults.is_none());
        assert_eq!(last_retrieve.truth.chunks(), Some(5));
    }

    #[test]
    fn download_trace_records_the_completed_ladder_after_the_outage() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let chunks = [chunkw(1, 10_000), chunkw(2, 12_000)];
        let start = SimTime::from_secs(1_000);
        let plan = FaultPlan {
            outages: vec![(SimTime::from_secs(900), SimTime::from_secs(1_010))],
            ..FaultPlan::none()
        };
        let mut trace = ProtocolTrace::new();
        let out = eng.download_transaction_faulty(
            &chunks,
            0,
            start,
            &plan,
            &RetryPolicy::default(),
            &mut Rng::new(15),
            Some(&mut trace),
        );
        assert!(out.retries > 0, "the list must be refused at least once");
        // Refused lists are not traced; the ladder is stamped when it ran.
        assert_eq!(
            trace.ladder(),
            vec!["list", "retrieve", "ok", "retrieve", "ok"]
        );
        let ran_at = start + out.flows.last().unwrap().0;
        assert!(ran_at > start);
        assert!(trace.entries().iter().all(|e| e.at == ran_at));
    }

    #[test]
    fn protocol_trace_matches_figure_1() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = engine_with(&dns, &store, ClientVersion::V1_2_52);
        let mut rng = Rng::new(8);
        let mut trace = ProtocolTrace::new();
        let chunks = [chunkw(900, 5_000), chunkw(901, 6_000)];
        eng.upload_transaction(&chunks, 0, &mut rng, Some(&mut trace), SimTime::EPOCH);
        let ladder = trace.ladder();
        assert_eq!(
            ladder,
            vec![
                "commit_batch",
                "need_blocks",
                "store",
                "ok",
                "store",
                "ok",
                "close_changeset",
                "ok"
            ]
        );
    }
}
