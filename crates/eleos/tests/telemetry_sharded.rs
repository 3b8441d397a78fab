//! Multi-shard telemetry: merging per-shard snapshots must keep the
//! conservation invariant *per shard* — each shard's attribution ledger
//! partitions that shard's busy time exactly; merging never nets a
//! violation on one shard against slack on another — and the merged
//! ledger rows stay labeled by shard id so attribution remains traceable
//! to the controller that spent the time.

use eleos::frontend::{Frontend, GroupCommitPolicy};
use eleos::sharded::ShardedEleos;
use eleos::{EleosConfig, PageMode, TelemetrySnapshot, WriteBatch};
use eleos_flash::{Activity, CostProfile, FlashDevice, Geometry, SpanKind};
use eleos_workloads::multi_client::{generate, MultiClientConfig};

const SHARDS: usize = 2;

fn cfg() -> EleosConfig {
    EleosConfig {
        ckpt_log_bytes: 256 * 1024,
        telemetry: true,
        ..EleosConfig::test_small()
    }
}

fn array() -> ShardedEleos {
    let devs = (0..SHARDS)
        .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
        .collect();
    ShardedEleos::format(devs, &cfg()).unwrap()
}

/// Drive a multi-client group-commit schedule across both shards —
/// cross-shard 2PC groups included — then check the merged snapshot.
#[test]
fn merged_snapshot_conserves_per_shard_and_labels_rows() {
    let mut sh = array();
    let mc = MultiClientConfig {
        clients: 3,
        batches_per_client: 40,
        lpids_per_client: 32,
        mean_gap_ns: 30_000,
        seed: 9,
        ..MultiClientConfig::default()
    };
    let mut fe = Frontend::new(
        mc.clients,
        GroupCommitPolicy {
            flush_bytes: 4 * 1024,
            flush_interval_ns: 25_000,
            max_queued_batches: 16,
            ..GroupCommitPolicy::default()
        },
    );
    for cb in generate(&mc) {
        let mut b = WriteBatch::new(PageMode::Variable);
        for (lpid, payload) in &cb.pages {
            b.put(*lpid, payload).expect("put");
        }
        fe.submit(&mut sh, cb.client, cb.at, b).expect("submit");
        // Conservation must hold on every shard at every step, not just
        // at the end — the 2PC forces land mid-schedule.
        let merged = TelemetrySnapshot::merge(sh.snapshots());
        assert!(
            merged.conservation_error().is_none(),
            "{:?}",
            merged.conservation_error()
        );
    }
    fe.flush(&mut sh).expect("final flush");
    sh.drain();

    let merged = TelemetrySnapshot::merge(sh.snapshots());
    assert!(
        merged.conservation_error().is_none(),
        "{:?}",
        merged.conservation_error()
    );
    assert_eq!(merged.shards.len(), SHARDS);

    // Both shards actually worked: user writes and WAL time on each.
    for (s, snap) in merged.shards.iter().enumerate() {
        assert!(snap.total_busy_ns() > 0, "shard {s} recorded no busy time");
        for a in [Activity::UserWrite, Activity::Wal] {
            assert!(
                snap.activity_busy_ns(a) > 0,
                "shard {s}: activity {} recorded no time",
                a.label()
            );
        }
    }

    // Ledger rows carry the shard id, and every shard contributes rows.
    let rows = merged.ledger_rows();
    for s in 0..SHARDS {
        assert!(
            rows.iter().any(|&(rs, ..)| rs == s),
            "no ledger row labeled shard {s}: {rows:?}"
        );
    }
    // Rows re-partition each shard's busy time exactly.
    for s in 0..SHARDS {
        let sum: u64 = rows
            .iter()
            .filter(|&&(rs, ..)| rs == s)
            .map(|&(_, _, cpu, flash)| cpu + flash)
            .sum();
        assert_eq!(
            sum,
            merged.shards[s].total_busy_ns(),
            "shard {s}: ledger rows do not re-partition its busy time"
        );
    }

    // Merged counters are sums; the host timeline is the max shard clock.
    let cpu_sum: u64 = merged.shards.iter().map(|s| s.cpu_busy_ns).sum();
    assert_eq!(merged.cpu_busy_ns(), cpu_sum);
    assert_eq!(
        merged.now(),
        merged.shards.iter().map(|s| s.now).max().unwrap()
    );
    assert_eq!(merged.now(), sh.host_now());

    // The front-end charged its bookkeeping on shard 0 and recorded one
    // span per durable group.
    assert!(merged.shards[0].ledger.cpu_ns(Activity::Frontend) > 0);
    assert_eq!(
        merged.shards[0].span(SpanKind::GroupFlush).count(),
        fe.groups_flushed()
    );

    // The merged JSON names every shard once.
    let json = merged.to_json();
    for s in 0..SHARDS {
        assert!(
            json.contains(&format!("\"shard\":{s}")),
            "merged JSON missing shard {s}: {json}"
        );
    }
}
