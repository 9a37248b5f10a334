//! Server-side meta-data: users, devices, namespaces, files, journals.
//!
//! Each device linked to Dropbox has a unique identifier (`host_int`), and
//! each shared folder a unique *namespace* id; the root folder of every
//! user is itself a namespace (Sec. 2.3.1). File entries live inside
//! namespaces and carry the chunk-id list of the current version. Every
//! namespace keeps a journal sequence number; clients hold a cursor per
//! namespace and fetch the entries added since (the incremental `list`
//! mechanism of Sec. 2.2).

use crate::content::{ChunkId, Content};
use std::collections::BTreeMap;

/// Unique device identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct HostInt(pub u64);

/// Unique namespace (folder) identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NamespaceId(pub u64);

/// Unique user (account) identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct UserId(pub u64);

/// Unique file identifier within a namespace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u64);

/// One version of a file as known by the server.
#[derive(Clone, Debug)]
pub struct FileEntry {
    /// File identity.
    pub file: FileId,
    /// Content descriptor of the current version.
    pub content: Content,
    /// Chunk-id list of the current version (ids persist for untouched
    /// chunks across edits, which is what makes dedup effective).
    pub chunk_ids: Vec<ChunkId>,
    /// Journal sequence number at which this version was committed.
    pub journal_seq: u64,
    /// True when the file has been deleted (tombstone).
    pub deleted: bool,
}

/// A namespace: the unit of sharing and of journal ordering.
#[derive(Clone, Debug, Default)]
pub struct Namespace {
    files: BTreeMap<FileId, FileEntry>,
    journal_seq: u64,
}

impl Namespace {
    /// Current journal sequence number.
    pub fn seq(&self) -> u64 {
        self.journal_seq
    }

    /// Number of live (non-deleted) files.
    pub fn live_files(&self) -> usize {
        self.files.values().filter(|f| !f.deleted).count()
    }

    /// Commit a new version of a file; returns the journal seq assigned.
    pub fn commit(&mut self, file: FileId, content: Content, chunk_ids: Vec<ChunkId>) -> u64 {
        self.journal_seq += 1;
        self.files.insert(
            file,
            FileEntry {
                file,
                content,
                chunk_ids,
                journal_seq: self.journal_seq,
                deleted: false,
            },
        );
        self.journal_seq
    }

    /// Mark a file deleted; returns the journal seq assigned.
    pub fn delete(&mut self, file: FileId) -> Option<u64> {
        let entry = self.files.get_mut(&file)?;
        self.journal_seq += 1;
        entry.deleted = true;
        entry.journal_seq = self.journal_seq;
        Some(self.journal_seq)
    }

    /// Entries committed after `cursor` (the incremental `list` response).
    pub fn updates_since(&self, cursor: u64) -> Vec<&FileEntry> {
        let mut out: Vec<&FileEntry> = self
            .files
            .values()
            .filter(|f| f.journal_seq > cursor)
            .collect();
        out.sort_by_key(|f| f.journal_seq);
        out
    }

    /// Access a file entry.
    pub fn file(&self, id: FileId) -> Option<&FileEntry> {
        self.files.get(&id)
    }
}

/// The whole meta-data plane.
#[derive(Clone, Debug, Default)]
pub struct MetadataServer {
    namespaces: BTreeMap<NamespaceId, Namespace>,
    /// Device registry: which namespaces each device is linked to.
    devices: BTreeMap<HostInt, Vec<NamespaceId>>,
    /// Account registry: which devices belong to each user.
    users: BTreeMap<UserId, Vec<HostInt>>,
    next_ns: u64,
}

impl MetadataServer {
    /// Fresh empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty server whose shared-folder namespace ids start above
    /// `base`. Namespace ids are serialised into notification metadata, so
    /// when each household runs its own metadata plane (the sub-capture
    /// sharding of `workload::shard`), every household must allocate from
    /// a disjoint id range for the merged capture to look like one server.
    /// Root namespaces are unaffected: they derive from the user id and
    /// carry the high bit, so they can never collide with a folder id.
    pub fn with_ns_base(base: u64) -> Self {
        MetadataServer {
            next_ns: base,
            ..Self::default()
        }
    }

    /// Register a device (`register_host`), linking it to a user. The
    /// device starts linked to the user's root namespace, which is created
    /// on first registration.
    pub fn register_host(&mut self, user: UserId, host: HostInt) -> NamespaceId {
        let root = NamespaceId(user.0 | 0x8000_0000_0000_0000);
        self.namespaces.entry(root).or_default();
        let devs = self.users.entry(user).or_default();
        if !devs.contains(&host) {
            devs.push(host);
        }
        let nss = self.devices.entry(host).or_default();
        if !nss.contains(&root) {
            nss.push(root);
        }
        root
    }

    /// Create a new shared folder owned by `user` and link it to `host`.
    pub fn create_namespace(&mut self, host: HostInt) -> NamespaceId {
        let ns = self.create_namespace_unlinked();
        self.devices.entry(host).or_default().push(ns);
        ns
    }

    /// Create a shared folder without linking any device yet (membership
    /// is established through [`MetadataServer::link_namespace`]).
    pub fn create_namespace_unlinked(&mut self) -> NamespaceId {
        self.next_ns += 1;
        let ns = NamespaceId(self.next_ns);
        self.namespaces.insert(ns, Namespace::default());
        ns
    }

    /// Link an existing namespace to another device (sharing / multi-device
    /// accounts).
    pub fn link_namespace(&mut self, host: HostInt, ns: NamespaceId) -> bool {
        if !self.namespaces.contains_key(&ns) {
            return false;
        }
        let list = self.devices.entry(host).or_default();
        if !list.contains(&ns) {
            list.push(ns);
        }
        true
    }

    /// Namespace list of a device (what notification requests advertise).
    pub fn namespaces_of(&self, host: HostInt) -> &[NamespaceId] {
        self.devices.get(&host).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Devices of a user.
    pub fn devices_of(&self, user: UserId) -> &[HostInt] {
        self.users.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mutable namespace access.
    pub fn namespace_mut(&mut self, ns: NamespaceId) -> Option<&mut Namespace> {
        self.namespaces.get_mut(&ns)
    }

    /// Shared namespace access.
    pub fn namespace(&self, ns: NamespaceId) -> Option<&Namespace> {
        self.namespaces.get(&ns)
    }

    /// All devices linked to a namespace (for change propagation).
    pub fn members_of(&self, ns: NamespaceId) -> Vec<HostInt> {
        self.devices
            .iter()
            .filter(|(_, nss)| nss.contains(&ns))
            .map(|(&h, _)| h)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentKind;

    fn content(seed: u64, size: u64) -> Content {
        Content::new(seed, size, ContentKind::Text)
    }

    #[test]
    fn register_creates_root_namespace() {
        let mut md = MetadataServer::new();
        let u = UserId(1);
        let ns1 = md.register_host(u, HostInt(10));
        let ns2 = md.register_host(u, HostInt(11));
        assert_eq!(ns1, ns2, "same user, same root namespace");
        assert_eq!(md.devices_of(u), &[HostInt(10), HostInt(11)]);
        assert_eq!(md.namespaces_of(HostInt(10)), &[ns1]);
    }

    #[test]
    fn ns_base_offsets_folder_ids_but_not_roots() {
        let mut a = MetadataServer::with_ns_base(1 << 32);
        let mut b = MetadataServer::with_ns_base(2 << 32);
        assert_eq!(a.create_namespace_unlinked(), NamespaceId((1 << 32) + 1));
        assert_eq!(b.create_namespace_unlinked(), NamespaceId((2 << 32) + 1));
        // Root namespaces derive from the user id, not the counter.
        let root_a = a.register_host(UserId(7), HostInt(1));
        let root_b = b.register_host(UserId(7), HostInt(2));
        assert_eq!(root_a, root_b);
        assert_eq!(root_a, NamespaceId(7 | 0x8000_0000_0000_0000));
    }

    #[test]
    fn journal_cursor_yields_incremental_updates() {
        let mut md = MetadataServer::new();
        let root = md.register_host(UserId(1), HostInt(10));
        let ns = md.namespace_mut(root).unwrap();
        let c = content(1, 1000);
        let seq1 = ns.commit(FileId(1), c, c.chunk_ids());
        let cursor = seq1;
        let c2 = content(2, 2000);
        ns.commit(FileId(2), c2, c2.chunk_ids());
        let updates = md.namespace(root).unwrap().updates_since(cursor);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].file, FileId(2));
        assert!(md.namespace(root).unwrap().updates_since(0).len() == 2);
    }

    #[test]
    fn delete_produces_tombstone_update() {
        let mut md = MetadataServer::new();
        let root = md.register_host(UserId(1), HostInt(10));
        let ns = md.namespace_mut(root).unwrap();
        let c = content(1, 1000);
        let seq = ns.commit(FileId(1), c, c.chunk_ids());
        assert_eq!(ns.live_files(), 1);
        ns.delete(FileId(1)).unwrap();
        assert_eq!(ns.live_files(), 0);
        let upd = ns.updates_since(seq);
        assert_eq!(upd.len(), 1);
        assert!(upd[0].deleted);
        assert!(ns.delete(FileId(99)).is_none());
    }

    #[test]
    fn shared_namespace_membership() {
        let mut md = MetadataServer::new();
        md.register_host(UserId(1), HostInt(10));
        md.register_host(UserId(2), HostInt(20));
        let shared = md.create_namespace(HostInt(10));
        assert!(md.link_namespace(HostInt(20), shared));
        let mut members = md.members_of(shared);
        members.sort();
        assert_eq!(members, vec![HostInt(10), HostInt(20)]);
        // Device 20 now advertises two namespaces in its notify requests.
        assert_eq!(md.namespaces_of(HostInt(20)).len(), 2);
        assert!(!md.link_namespace(HostInt(20), NamespaceId(9999)));
    }

    #[test]
    fn commits_are_ordered_in_journal() {
        let mut ns = Namespace::default();
        for i in 0..10u64 {
            let c = content(i, 100);
            ns.commit(FileId(i), c, c.chunk_ids());
        }
        let upd = ns.updates_since(0);
        let seqs: Vec<u64> = upd.iter().map(|e| e.journal_seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ns.seq(), 10);
    }
}
