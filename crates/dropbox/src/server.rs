//! Server-side command processing.
//!
//! [`MetaEndpoint`] and [`StorageEndpoint`] implement the behaviour of the
//! Dropbox control and storage planes as explicit request → response
//! handlers over [`Command`]s. The sync engine's flow builders encode the
//! same semantics implicitly (they must pre-compute sizes to build TCP
//! dialogues); these endpoints are the *reference* implementation used by
//! the protocol tests and the Fig. 1 testbed: every ladder the engine
//! emits must be accepted by the endpoints.

use crate::content::ChunkId;
use crate::metadata::{HostInt, MetadataServer, NamespaceId, UserId};
use crate::protocol::{Command, Plane};
use crate::storage::ChunkStore;

/// Errors a server can answer with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// Command sent to the wrong plane (e.g. `store` at a meta server).
    WrongPlane {
        /// Plane the command belongs to.
        expected: Plane,
        /// Plane of the endpoint that received it.
        got: Plane,
    },
    /// Device not registered.
    UnknownHost(HostInt),
    /// Namespace does not exist or the device is not a member.
    NamespaceDenied(NamespaceId),
    /// Retrieve of a chunk the store does not hold.
    MissingChunk(ChunkId),
    /// Batch exceeds the 100-chunk transaction limit (Sec. 2.3.2).
    BatchTooLarge(usize),
}

/// The meta-data plane endpoint (`client-lb`/`clientX`).
pub struct MetaEndpoint<'a> {
    md: &'a mut MetadataServer,
    store: &'a ChunkStore,
}

impl<'a> MetaEndpoint<'a> {
    /// Bind the endpoint to its backing state.
    pub fn new(md: &'a mut MetadataServer, store: &'a ChunkStore) -> Self {
        MetaEndpoint { md, store }
    }

    /// Register a device for a user and answer with its root namespace id
    /// (wrapped in an `ok`; the namespace travels in the session state).
    pub fn register_host(&mut self, user: UserId, host: HostInt) -> NamespaceId {
        self.md.register_host(user, host)
    }

    /// Handle a meta-plane command.
    pub fn handle(
        &mut self,
        host: HostInt,
        command: &Command,
        sizes: &[(ChunkId, u64)],
    ) -> Result<Command, ServerError> {
        if command.plane() != Plane::Meta {
            return Err(ServerError::WrongPlane {
                expected: command.plane(),
                got: Plane::Meta,
            });
        }
        if self.md.namespaces_of(host).is_empty() {
            return Err(ServerError::UnknownHost(host));
        }
        match command {
            Command::RegisterHost | Command::List | Command::CloseChangeset => Ok(Command::Ok),
            Command::CommitBatch { hashes } => {
                if hashes.len() > Command::MAX_CHUNKS_PER_BATCH {
                    return Err(ServerError::BatchTooLarge(hashes.len()));
                }
                // Answer with the subset of hashes the store lacks.
                let with_sizes: Vec<(ChunkId, u64)> = hashes
                    .iter()
                    .map(|id| {
                        let size = sizes
                            .iter()
                            .find(|(sid, _)| sid == id)
                            .map(|&(_, s)| s)
                            .unwrap_or(0);
                        (*id, size)
                    })
                    .collect();
                let need = self.store.need_blocks(&with_sizes);
                Ok(Command::NeedBlocks { hashes: need })
            }
            _ => unreachable!("plane checked above"),
        }
    }
}

/// The storage plane endpoint (`dl-clientX`, Amazon).
pub struct StorageEndpoint<'a> {
    store: &'a ChunkStore,
}

impl<'a> StorageEndpoint<'a> {
    /// Bind the endpoint to the chunk store.
    pub fn new(store: &'a ChunkStore) -> Self {
        StorageEndpoint { store }
    }

    /// Handle a storage-plane command. `sizes` supplies the raw size of
    /// each uploaded chunk.
    pub fn handle(
        &mut self,
        command: &Command,
        sizes: &[(ChunkId, u64)],
    ) -> Result<Command, ServerError> {
        if command.plane() != Plane::Storage {
            return Err(ServerError::WrongPlane {
                expected: command.plane(),
                got: Plane::Storage,
            });
        }
        let size_of = |id: &ChunkId| {
            sizes
                .iter()
                .find(|(sid, _)| sid == id)
                .map(|&(_, s)| s)
                .unwrap_or(0)
        };
        match command {
            Command::Store { id } => {
                self.store.put(*id, size_of(id));
                Ok(Command::Ok)
            }
            Command::StoreBatch { ids } => {
                if ids.len() > Command::MAX_CHUNKS_PER_BATCH {
                    return Err(ServerError::BatchTooLarge(ids.len()));
                }
                for id in ids {
                    self.store.put(*id, size_of(id));
                }
                Ok(Command::Ok)
            }
            Command::Retrieve { id } => {
                if !self.store.has(*id) {
                    return Err(ServerError::MissingChunk(*id));
                }
                Ok(Command::Ok)
            }
            Command::RetrieveBatch { ids } => {
                for id in ids {
                    if !self.store.has(*id) {
                        return Err(ServerError::MissingChunk(*id));
                    }
                }
                Ok(Command::Ok)
            }
            Command::Ok => Ok(Command::Ok),
            _ => unreachable!("plane checked above"),
        }
    }
}

/// Replay a protocol trace (client-side commands) against fresh endpoints,
/// verifying every message is accepted in order — the conformance check
/// used by the Fig. 1 experiment.
pub fn replay_accepts(
    trace: &crate::protocol::ProtocolTrace,
    host: HostInt,
    user: UserId,
    sizes: &[(ChunkId, u64)],
) -> Result<(), ServerError> {
    let mut md = MetadataServer::new();
    let store = ChunkStore::new();
    {
        let mut meta = MetaEndpoint::new(&mut md, &store);
        meta.register_host(user, host);
    }
    for entry in trace.entries() {
        if entry.from != crate::protocol::Sender::Client {
            continue;
        }
        match entry.command.plane() {
            Plane::Meta => {
                let mut meta = MetaEndpoint::new(&mut md, &store);
                meta.handle(host, &entry.command, sizes)?;
            }
            Plane::Storage => {
                let mut storage = StorageEndpoint::new(&store);
                storage.handle(&entry.command, sizes)?;
            }
            Plane::Notify => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ChunkWork, SyncConfig, SyncEngine};
    use crate::protocol::ProtocolTrace;
    use dnssim::DnsDirectory;
    use simcore::{Rng, SimTime};

    fn setup() -> (MetadataServer, ChunkStore) {
        let mut md = MetadataServer::new();
        let store = ChunkStore::new();
        md.register_host(UserId(1), HostInt(10));
        (md, store)
    }

    #[test]
    fn commit_answers_with_missing_chunks_only() {
        let (mut md, store) = setup();
        store.put(ChunkId(1), 100);
        let mut meta = MetaEndpoint::new(&mut md, &store);
        let resp = meta
            .handle(
                HostInt(10),
                &Command::CommitBatch {
                    hashes: vec![ChunkId(1), ChunkId(2)],
                },
                &[(ChunkId(1), 100), (ChunkId(2), 200)],
            )
            .unwrap();
        assert_eq!(
            resp,
            Command::NeedBlocks {
                hashes: vec![ChunkId(2)]
            }
        );
    }

    #[test]
    fn oversized_batch_rejected() {
        let (mut md, store) = setup();
        let mut meta = MetaEndpoint::new(&mut md, &store);
        let hashes: Vec<ChunkId> = (0..101).map(ChunkId).collect();
        assert_eq!(
            meta.handle(HostInt(10), &Command::CommitBatch { hashes }, &[]),
            Err(ServerError::BatchTooLarge(101))
        );
    }

    #[test]
    fn unknown_host_rejected() {
        let (mut md, store) = setup();
        let mut meta = MetaEndpoint::new(&mut md, &store);
        assert_eq!(
            meta.handle(HostInt(99), &Command::List, &[]),
            Err(ServerError::UnknownHost(HostInt(99)))
        );
    }

    #[test]
    fn wrong_plane_rejected_both_ways() {
        let (mut md, store) = setup();
        let mut meta = MetaEndpoint::new(&mut md, &store);
        assert!(matches!(
            meta.handle(HostInt(10), &Command::Store { id: ChunkId(1) }, &[]),
            Err(ServerError::WrongPlane { .. })
        ));
        let mut storage = StorageEndpoint::new(&store);
        assert!(matches!(
            storage.handle(&Command::List, &[]),
            Err(ServerError::WrongPlane { .. })
        ));
    }

    #[test]
    fn retrieve_of_missing_chunk_fails() {
        let (_, store) = setup();
        let mut storage = StorageEndpoint::new(&store);
        assert_eq!(
            storage.handle(&Command::Retrieve { id: ChunkId(9) }, &[]),
            Err(ServerError::MissingChunk(ChunkId(9)))
        );
        store.put(ChunkId(9), 10);
        assert_eq!(
            storage.handle(&Command::Retrieve { id: ChunkId(9) }, &[]),
            Ok(Command::Ok)
        );
    }

    #[test]
    fn engine_traces_replay_cleanly() {
        // Conformance: the ladders the sync engine produces are accepted by
        // the reference endpoints.
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut engine = SyncEngine::new(&dns, &store, SyncConfig::default(), 10);
        let mut trace = ProtocolTrace::new();
        let chunks: Vec<ChunkWork> = (0..5)
            .map(|i| ChunkWork {
                id: ChunkId(500 + i),
                wire_bytes: 10_000,
                raw_bytes: 12_000,
            })
            .collect();
        let mut rng = Rng::new(1);
        engine.upload_transaction(&chunks, 0, &mut rng, Some(&mut trace), SimTime::EPOCH);
        let sizes: Vec<(ChunkId, u64)> = chunks.iter().map(|c| (c.id, c.raw_bytes)).collect();
        replay_accepts(&trace, HostInt(10), UserId(1), &sizes).expect("trace accepted");
    }

    #[test]
    fn v14_batch_traces_replay_cleanly() {
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut engine = SyncEngine::new(
            &dns,
            &store,
            SyncConfig {
                version: crate::client::ClientVersion::V1_4_0,
                ..SyncConfig::default()
            },
            10,
        );
        let mut trace = ProtocolTrace::new();
        let chunks: Vec<ChunkWork> = (0..30)
            .map(|i| ChunkWork {
                id: ChunkId(900 + i),
                wire_bytes: 60_000,
                raw_bytes: 60_000,
            })
            .collect();
        let mut rng = Rng::new(2);
        engine.upload_transaction(&chunks, 0, &mut rng, Some(&mut trace), SimTime::EPOCH);
        // The v1.4 ladder contains store_batch commands.
        assert!(trace.ladder().contains(&"store_batch"));
        let sizes: Vec<(ChunkId, u64)> = chunks.iter().map(|c| (c.id, c.raw_bytes)).collect();
        replay_accepts(&trace, HostInt(10), UserId(1), &sizes).expect("trace accepted");
    }
}
