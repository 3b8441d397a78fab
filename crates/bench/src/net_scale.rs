//! `net_scale` — loopback wire-protocol server throughput (DESIGN.md §16).
//!
//! Spawns the `eleos-server` engine over a loopback TCP listener and
//! drives it with N concurrent client threads, each pipelining
//! session-ordered write batches and draining ACKs. Unlike the in-process
//! benches, every batch here pays the real codec + kernel socket path, so
//! `host_seconds` measures the server stack (frame encode/decode, ingress
//! channel, per-connection reader threads) on top of the controller; the
//! `net_clients` key labels the entry. Simulated counters still come from
//! the drained controller's telemetry snapshot, including the
//! `Activity::Net` CPU attribution the engine charges per frame.

use crate::perfjson::BenchEntry;
use eleos::frontend::GroupCommitPolicy;
use eleos::{Eleos, EleosConfig, GcPolicy};
use eleos_flash::{CostProfile, FlashDevice, Geometry, SpanKind};
use eleos_server::{Client, ServerHandle};
use std::time::Instant;

/// Same 512 MB array as the other perfbench entries.
fn geo() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 64,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

/// Loopback sweep point: N clients × `batches` pipelined writes each.
pub fn bench_net_scale(scale: &str, label: &str) -> BenchEntry {
    let clients: usize = 4;
    // The smoke scale must still amortize per-run setup (server + reader
    // thread spawn, TCP handshakes, device format) or the perf_smoke gate
    // compares startup cost against the committed steady state.
    let batches: u64 = if scale == "small" { 768 } else { 2048 };
    let cfg = EleosConfig {
        max_user_lpid: (clients as u64) * 64 + 1,
        ckpt_log_bytes: 64 * 1024 * 1024,
        mapping_cache_pages: 1 << 12,
        ..Default::default()
    };
    let ssd =
        Eleos::format(FlashDevice::new(geo(), CostProfile::high_end_cpu()), cfg).expect("format");
    let policy = GroupCommitPolicy {
        flush_bytes: 32 * 1024,
        max_queued_batches: 64,
        ..GroupCommitPolicy::default()
    };
    let handle = ServerHandle::spawn(ssd, policy, "127.0.0.1:0").expect("spawn");
    let addr = handle.addr();

    let t = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for k in 0..batches {
                    // Each client owns its own residue class of lpids.
                    let lpid = ci as u64 + (k % 64) * clients as u64;
                    let mut page = vec![(k % 251) as u8; 600 + (k % 7) as usize * 100];
                    page[..8].copy_from_slice(&lpid.to_le_bytes());
                    c.write(vec![(lpid, page)]).expect("write");
                }
                c.wait_all_acked().expect("drain");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let (mut ssd, stats) = handle.shutdown();
    let host = t.elapsed().as_secs_f64();
    let ops = clients as u64 * batches;
    assert_eq!(stats.acks_out, ops, "every batch ACKed durably");
    ssd.drain();
    let snap = ssd.snapshot();
    assert!(snap.conservation_error().is_none(), "ledger conserved");
    eprintln!(
        "  net_scale: {clients} TCP clients x {batches} batches, {} frames in, {} groups ACKed",
        stats.frames_in, stats.acks_out
    );
    BenchEntry {
        label: label.to_string(),
        bench: "net_scale_loopback".to_string(),
        scale: scale.to_string(),
        ops,
        host_seconds: host,
        sim_ops_per_host_sec: ops as f64 / host,
        bytes_programmed: snap.flash.bytes_programmed,
        bytes_read: 0,
        cpu_busy_ns: snap.cpu_busy_ns,
        flash_busy_ns: snap.flash.channel_busy_ns.iter().sum(),
        write_p99_ns: snap.span(SpanKind::WriteBatch).p99(),
        mapping_cache_pages: 1 << 12,
        gc_policy: GcPolicy::MinCostDecline.label().to_string(),
        shards: 1,
        net_clients: clients as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke the loopback bench at toy scale: it completes, ACKs every
    /// batch, and labels the entry with the client count.
    #[test]
    fn net_scale_smoke() {
        let e = bench_net_scale("small", "test");
        assert_eq!(e.bench, "net_scale_loopback");
        assert_eq!(e.net_clients, 4);
        assert_eq!(e.ops, 4 * 768);
        assert!(e.bytes_programmed > 0);
        assert!(e.cpu_busy_ns > 0);
    }
}
