//! Property: chunk-level resume is lossless. For any seeded fault plan,
//! a faulty upload transaction commits every offered chunk exactly once —
//! the store ends up holding precisely the original bytes, no chunk is
//! lost to a mid-flow reset and none is double-committed by a retry.

use dnssim::DnsDirectory;
use dropbox::client::{ChunkWork, ClientVersion, RetryPolicy, SyncConfig, SyncEngine};
use dropbox::content::ChunkId;
use dropbox::storage::ChunkStore;
use dropbox::FlowTruth;
use simcore::faults::FaultPlan;
use simcore::proptest::any_u64;
use simcore::{prop_assert, prop_assert_eq, proptest, Rng, SimDuration, SimTime};

fn arb_chunks(rng: &mut Rng) -> Vec<ChunkWork> {
    let n = 1 + (rng.next_u64() % 150) as usize;
    (0..n as u64)
        .map(|i| {
            let raw = 1 + rng.next_u64() % 400_000;
            ChunkWork {
                id: ChunkId(0x5eed_0000 + i),
                wire_bytes: 1 + raw / 2,
                raw_bytes: raw,
            }
        })
        .collect()
}

proptest! {
    #![cases(48)]

    /// Store bytes == offered bytes after recovery, for any seed: resume
    /// re-offers exactly the uncommitted chunks, and the idempotent store
    /// never double-counts a retried one.
    #[test]
    fn faulty_upload_is_lossless_and_exactly_once(seed in any_u64()) {
        let mut rng = Rng::new(seed);
        let chunks = arb_chunks(&mut rng);
        let raw_total: u64 = chunks.iter().map(|c| c.raw_bytes).sum();

        let plan = FaultPlan::lossy(seed ^ 0xfau64, 7);
        let version = if seed % 2 == 0 {
            ClientVersion::V1_2_52
        } else {
            ClientVersion::V1_4_0
        };
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        let mut eng = SyncEngine::new(
            &dns,
            &store,
            SyncConfig { version, ..SyncConfig::default() },
            7,
        );
        let out = eng.upload_transaction_faulty(
            &chunks,
            0,
            SimTime::from_secs(seed % 500_000),
            &plan,
            &RetryPolicy::default(),
            &mut rng,
            None,
        );

        let stats = store.stats();
        prop_assert_eq!(stats.chunks, chunks.len() as u64, "every chunk committed once");
        prop_assert_eq!(stats.bytes, raw_total, "no loss, no double-commit");
        prop_assert_eq!(stats.dedup_hits, 0, "fresh store: nothing deduplicated");

        // Flow offsets are non-decreasing and the plan's counters agree
        // with the emitted flows.
        let offsets: Vec<SimDuration> = out.flows.iter().map(|(o, _)| *o).collect();
        prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let aborted_specs = out
            .flows
            .iter()
            .filter(|(_, f)| {
                matches!(f.truth, FlowTruth::Store { .. })
                    && f.faults.is_some_and(|x| x.reset_after_bytes.is_some())
            })
            .count();
        prop_assert_eq!(aborted_specs as u32, out.aborted_flows);
    }

    /// A retried upload against a store that already holds some of the
    /// content still converges: the union of dedup hits and commits covers
    /// every chunk exactly once.
    #[test]
    fn faulty_upload_respects_preexisting_dedup(seed in any_u64()) {
        let mut rng = Rng::new(seed.wrapping_mul(3));
        let chunks = arb_chunks(&mut rng);
        let dns = DnsDirectory::new();
        let store = ChunkStore::new();
        // Pre-seed every third chunk.
        for c in chunks.iter().step_by(3) {
            store.put(c.id, c.raw_bytes);
        }
        let pre = store.stats();
        let plan = FaultPlan::lossy(seed, 7);
        let mut eng = SyncEngine::new(&dns, &store, SyncConfig::default(), 8);
        eng.upload_transaction_faulty(
            &chunks,
            0,
            SimTime::from_secs(123),
            &plan,
            &RetryPolicy::default(),
            &mut rng,
            None,
        );
        let post = store.stats();
        prop_assert_eq!(post.chunks, chunks.len() as u64);
        let raw_total: u64 = chunks.iter().map(|c| c.raw_bytes).sum();
        prop_assert_eq!(post.bytes, raw_total);
        prop_assert_eq!(post.dedup_hits, pre.chunks, "each pre-seeded chunk hits once");
    }
}
