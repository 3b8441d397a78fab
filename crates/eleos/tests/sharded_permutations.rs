//! Schedule-permutation refinement proptest for the *sharded* front-end.
//!
//! The sharded twin of `frontend_permutations.rs`. Property: the
//! [`Frontend`] + [`ShardedEleos`] pair is a *refinement* of the
//! unsharded single-writer path. For an arbitrary interleaving of client
//! streams — arbitrary arrival gaps, group boundaries moved around by
//! policy knobs and random explicit flushes — the final durable state
//! across *all shards* must be logically identical (every LPID's readable
//! content, and the set of unwritten LPIDs) to a single unsharded
//! controller fed the same client batches one `Eleos::write` at a time in
//! ACK order. Hash-routing LPIDs across shards, splitting merged groups
//! into per-shard sub-batches and committing them via 2PC — including
//! duplicate-LPID later-wins resolution when the duplicates land on
//! different sub-batches of the same group — must never be observable.

use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::sharded::{shard_of_lpid, ShardedEleos};
use eleos::{Eleos, EleosConfig, EleosError, PageMode, WriteBatch, WriteOpts};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use proptest::prelude::*;

const LPIDS: u64 = 64;
const SHARDS: usize = 2;

fn cfg() -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 256 * 1024,
        ..EleosConfig::test_small()
    }
}

fn sharded() -> ShardedEleos {
    let devs = (0..SHARDS)
        .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
        .collect();
    ShardedEleos::format(devs, &cfg()).unwrap()
}

fn unsharded() -> Eleos {
    Eleos::format(
        FlashDevice::new(Geometry::tiny(), CostProfile::unit()),
        cfg(),
    )
    .unwrap()
}

fn page_bytes(lpid: u64, seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (lpid as u8) ^ seed ^ (i as u8).wrapping_mul(37))
        .collect()
}

fn build(pages: &[(u64, u8, u16)]) -> WriteBatch {
    let mut b = WriteBatch::new(PageMode::Variable);
    for &(lpid, seed, len) in pages {
        b.put(lpid, &page_bytes(lpid, seed, len)).unwrap();
    }
    b
}

/// Read-back image of the whole LPID space through the router.
fn sharded_image(sh: &mut ShardedEleos) -> Vec<Option<Vec<u8>>> {
    (0..LPIDS)
        .map(|lpid| match sh.read(lpid) {
            Ok(b) => Some(b.to_vec()),
            Err(EleosError::NotFound(_)) => None,
            Err(e) => panic!("lpid {lpid}: unexpected read error {e}"),
        })
        .collect()
}

/// Read-back image of the whole LPID space on the unsharded reference.
fn image(ssd: &mut Eleos) -> Vec<Option<Vec<u8>>> {
    (0..LPIDS)
        .map(|lpid| match ssd.read(lpid) {
            Ok(b) => Some(b.to_vec()),
            Err(EleosError::NotFound(_)) => None,
            Err(e) => panic!("lpid {lpid}: unexpected read error {e}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_frontend_is_a_refinement_of_the_single_writer_path(
        pattern in prop::collection::vec(0usize..4, 6..36),
        pages in prop::collection::vec(
            prop::collection::vec((0u64..LPIDS, any::<u8>(), 1u16..900), 1..5),
            6..36
        ),
        gaps in prop::collection::vec(0u64..40_000, 6..36),
        explicit_flush in prop::collection::vec(any::<bool>(), 6..36),
        flush_bytes in 512usize..8192,
        flush_interval_ns in 1_000u64..120_000,
        cap in 1usize..8,
    ) {
        let n = pattern
            .len()
            .min(pages.len())
            .min(gaps.len())
            .min(explicit_flush.len());
        let clients = 4;
        let policy = GroupCommitPolicy {
            flush_bytes,
            flush_interval_ns,
            max_queued_batches: cap,
            ..GroupCommitPolicy::default()
        };

        // The 64-LPID space must actually straddle the shards, or the
        // property degenerates to the unsharded one.
        let routed: std::collections::HashSet<usize> =
            (0..LPIDS).map(|l| shard_of_lpid(l, SHARDS)).collect();
        prop_assert_eq!(routed.len(), SHARDS);

        // Run A: the multi-client front-end over the sharded router.
        let mut a = sharded();
        let mut fe = Frontend::new(clients, policy);
        // Per-client list of batch indices, to resolve (client, seq) ACKs.
        let mut per_client: Vec<Vec<usize>> = vec![Vec::new(); clients];
        let mut ack_order: Vec<(usize, u64)> = Vec::new();
        let mut at = 0u64;
        for i in 0..n {
            let client = pattern[i] % clients;
            at += gaps[i];
            per_client[client].push(i);
            let acks = fe.submit(&mut a, client, at, build(&pages[i])).unwrap();
            ack_order.extend(acks.iter().map(|k| (k.client, k.client_seq)));
            if explicit_flush[i] {
                let acks = fe.flush(&mut a).unwrap();
                ack_order.extend(acks.iter().map(|k| (k.client, k.client_seq)));
            }
        }
        let acks = fe.flush(&mut a).unwrap();
        ack_order.extend(acks.iter().map(|k| (k.client, k.client_seq)));

        // Fault-free run: every submission must have been ACKed exactly once.
        prop_assert_eq!(ack_order.len(), n);
        prop_assert_eq!(fe.pending_batches(), 0);

        // Run B: the same client batches through the unsharded
        // single-writer path, one write per batch, in ACK order.
        let mut b = unsharded();
        for &(client, seq) in &ack_order {
            let i = per_client[client][seq as usize];
            b.write(&build(&pages[i]), WriteOpts::default()).unwrap();
        }

        // Logical state must be identical, including which LPIDs exist.
        prop_assert_eq!(sharded_image(&mut a), image(&mut b));
    }
}
