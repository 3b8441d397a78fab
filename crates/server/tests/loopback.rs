//! Loopback end-to-end: N concurrent TCP clients through group commit,
//! kill/reconnect-redo, WSN re-ACK semantics on the wire, refused pages,
//! and drain-on-shutdown.

use std::io::Write;
use std::net::TcpStream;

use eleos::frontend::GroupCommitPolicy;
use eleos::types::{Lpid, MAP_PAGE_BASE};
use eleos::{Controller, Eleos, EleosConfig, EleosError, ShardedEleos};
use eleos_flash::{Activity, CostProfile, FlashDevice, Geometry};
use eleos_server::proto::ERR_BAD_REQUEST;
use eleos_server::{Client, Frame, FrameReader, FrameStep, ServerHandle, PROTO_VERSION, REACK_GROUP};

fn devices(n: usize) -> Vec<FlashDevice> {
    (0..n)
        .map(|_| FlashDevice::new(Geometry::tiny(), CostProfile::unit()))
        .collect()
}

fn spawn_single(policy: GroupCommitPolicy) -> ServerHandle<Eleos> {
    let ssd = Eleos::format(devices(1).pop().unwrap(), EleosConfig::test_small()).unwrap();
    ServerHandle::spawn(ssd, policy, "127.0.0.1:0").unwrap()
}

/// Block until the server sends one whole frame.
fn recv(stream: &mut TcpStream, fr: &mut FrameReader) -> Frame {
    loop {
        match fr.next_frame() {
            FrameStep::Frame(f) => return f,
            FrameStep::Malformed(w) => panic!("malformed from server: {w}"),
            FrameStep::NeedMore => {}
        }
        assert!(fr.read_from(stream).unwrap() > 0, "server closed unexpectedly");
    }
}

/// Open a raw protocol connection and a fresh session on it.
fn raw_session(addr: std::net::SocketAddr) -> (TcpStream, FrameReader, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut fr = FrameReader::new();
    stream
        .write_all(&Frame::Hello { version: PROTO_VERSION, sid: 0 }.encode())
        .unwrap();
    match recv(&mut stream, &mut fr) {
        Frame::HelloOk { sid, highest_wsn: 0 } => (stream, fr, sid),
        f => panic!("unexpected: {f:?}"),
    }
}

#[test]
fn concurrent_clients_write_read_delete_through_group_commit() {
    let handle = spawn_single(GroupCommitPolicy {
        flush_bytes: 4 * 1024,
        max_queued_batches: 16,
        ..GroupCommitPolicy::default()
    });
    let addr = handle.addr();
    const CLIENTS: usize = 4;
    const BATCHES: u64 = 12;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Client ci owns lpids ci, ci+CLIENTS, ci+2*CLIENTS, ...
                for k in 0..BATCHES {
                    let lpid = (ci as u64) + (k % 4) * CLIENTS as u64;
                    let val = vec![(ci as u8) ^ (k as u8); 64 + 8 * k as usize];
                    c.write(vec![(lpid, val)]).expect("write");
                }
                c.wait_all_acked().expect("drain acks");
                assert_eq!(c.unacked(), 0);
                assert_eq!(c.highest_acked(), BATCHES);
                // Read-your-writes over the wire: the *last* write to each
                // owned lpid must be visible.
                for slot in 0..4u64 {
                    let lpid = ci as u64 + slot * CLIENTS as u64;
                    let k = slot + 8; // last k with k % 4 == slot
                    let got = c.read(vec![lpid]).expect("read");
                    assert_eq!(
                        got[0].as_deref(),
                        Some(&vec![(ci as u8) ^ (k as u8); 64 + 8 * k as usize][..]),
                        "client {ci} lpid {lpid}"
                    );
                }
                // Delete one owned page and confirm it is gone.
                c.delete(vec![ci as u64]).expect("delete");
                assert_eq!(c.read(vec![ci as u64]).expect("read")[0], None);
                c.sid()
            })
        })
        .collect();
    let sids: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(
        sids.iter().collect::<std::collections::HashSet<_>>().len(),
        CLIENTS,
        "every connection gets its own session"
    );

    let (ssd, stats) = handle.shutdown();
    assert_eq!(stats.conns_opened, CLIENTS as u64);
    assert_eq!(stats.acks_out, CLIENTS as u64 * BATCHES);
    // Durable per-session high-water survives on the controller.
    for sid in sids {
        assert_eq!(ssd.session_highest(sid), Some(BATCHES));
    }
    // The wire work is attributed to Activity::Net and the ledger is
    // conserved.
    let snap = ssd.snapshot();
    assert!(snap.ledger.cpu_ns(Activity::Net) > 0, "net CPU attributed");
    assert!(snap.conservation_error().is_none());
}

#[test]
fn killed_client_loses_only_unacked_and_redo_deduplicates() {
    let handle = spawn_single(GroupCommitPolicy::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();

    // Phase 1: establish some durably ACKed state.
    for k in 0..5u64 {
        c.write(vec![(k, vec![0xA0 + k as u8; 100])]).unwrap();
    }
    c.wait_all_acked().unwrap();
    let acked_before = c.highest_acked();
    assert_eq!(acked_before, 5);

    // Phase 2: pipeline more writes and die without collecting ACKs.
    for k in 0..4u64 {
        c.write(vec![(10 + k, vec![0xB0 + k as u8; 80])]).unwrap();
    }
    c.kill();

    // Reconnect: ACKed writes never vanish; the redo buffer replays
    // whatever the server lost, and the WSN check deduplicates whatever
    // it already applied.
    let server_h = c.reconnect(addr).unwrap();
    assert!(
        server_h >= acked_before,
        "acked high-water vanished: {server_h} < {acked_before}"
    );
    c.wait_all_acked().unwrap();
    assert_eq!(c.highest_acked(), 9);
    assert_eq!(c.unacked(), 0);

    // Every write — pre-kill acked and post-kill redone — is present
    // exactly once (last-writer content, no duplication artifacts).
    for k in 0..5u64 {
        assert_eq!(c.read(vec![k]).unwrap()[0].as_deref(), Some(&vec![0xA0 + k as u8; 100][..]));
    }
    for k in 0..4u64 {
        assert_eq!(
            c.read(vec![10 + k]).unwrap()[0].as_deref(),
            Some(&vec![0xB0 + k as u8; 80][..])
        );
    }
    let (ssd, _) = handle.shutdown();
    assert_eq!(ssd.session_highest(c.sid()), Some(9));
}

/// Speak the protocol by hand to pin the wire-level WSN re-ACK rules:
/// a gap or duplicate WSN is *not applied* and the durable high-water is
/// re-ACKed with the sentinel group id.
#[test]
fn gap_and_duplicate_wsns_reack_without_applying() {
    let handle = spawn_single(GroupCommitPolicy::default());
    let (mut stream, mut fr, sid) = raw_session(handle.addr());

    // WSN 1 applies and ACKs durably.
    stream
        .write_all(&Frame::WriteBatch { sid, wsn: 1, pages: vec![(1, vec![0x11; 64])] }.encode())
        .unwrap();
    match recv(&mut stream, &mut fr) {
        Frame::Ack { highest_wsn: 1, group, .. } => assert_ne!(group, REACK_GROUP),
        f => panic!("unexpected: {f:?}"),
    }

    // Gap (wsn 5): not applied, re-ACK of 1.
    stream
        .write_all(&Frame::WriteBatch { sid, wsn: 5, pages: vec![(2, vec![0x55; 64])] }.encode())
        .unwrap();
    match recv(&mut stream, &mut fr) {
        Frame::Ack { highest_wsn: 1, group: REACK_GROUP, .. } => {}
        f => panic!("unexpected: {f:?}"),
    }

    // Duplicate (wsn 1 again): not applied, re-ACK of 1.
    stream
        .write_all(&Frame::WriteBatch { sid, wsn: 1, pages: vec![(1, vec![0xFF; 64])] }.encode())
        .unwrap();
    match recv(&mut stream, &mut fr) {
        Frame::Ack { highest_wsn: 1, group: REACK_GROUP, .. } => {}
        f => panic!("unexpected: {f:?}"),
    }

    // The in-order successor still applies.
    stream
        .write_all(&Frame::WriteBatch { sid, wsn: 2, pages: vec![(3, vec![0x22; 64])] }.encode())
        .unwrap();
    match recv(&mut stream, &mut fr) {
        Frame::Ack { highest_wsn: 2, group, .. } => assert_ne!(group, REACK_GROUP),
        f => panic!("unexpected: {f:?}"),
    }

    let (mut ssd, stats) = handle.shutdown();
    assert_eq!(stats.reacks, 2);
    // Neither rejected write touched the store.
    assert_eq!(ssd.read(1).unwrap().as_ref(), &[0x11; 64][..], "duplicate not applied");
    assert!(
        matches!(ssd.read(2), Err(EleosError::NotFound(_))),
        "gap write not applied"
    );
    assert_eq!(ssd.read(3).unwrap().as_ref(), &[0x22; 64][..]);
    assert_eq!(ssd.session_highest(sid), Some(2));
}

/// A well-formed batch the controller cannot take — a reserved LPID, or no
/// pages at all — is refused whole with `ERR_BAD_REQUEST`: nothing is
/// applied, the session's WSN does not advance, and the connection keeps
/// serving.
#[test]
fn bad_pages_are_refused_without_applying_or_advancing() {
    let handle = spawn_single(GroupCommitPolicy::default());
    let (mut stream, mut fr, sid) = raw_session(handle.addr());
    let send = |stream: &mut TcpStream, f: Frame| stream.write_all(&f.encode()).unwrap();

    send(&mut stream, Frame::WriteBatch { sid, wsn: 1, pages: vec![(1, vec![0x11; 64])] });
    match recv(&mut stream, &mut fr) {
        Frame::Ack { highest_wsn: 1, group, .. } => assert_ne!(group, REACK_GROUP),
        f => panic!("unexpected: {f:?}"),
    }

    // A reserved LPID refuses the whole batch, the legal page beside it too.
    send(&mut stream, Frame::WriteBatch {
        sid,
        wsn: 2,
        pages: vec![(2, vec![0x22; 64]), (MAP_PAGE_BASE, vec![0xEE; 64])],
    });
    match recv(&mut stream, &mut fr) {
        Frame::Err { code, detail } => {
            assert_eq!(code, ERR_BAD_REQUEST);
            assert!(detail.starts_with("bad page"), "{detail}");
        }
        f => panic!("unexpected: {f:?}"),
    }

    // An empty batch has its own refusal, not the session one.
    send(&mut stream, Frame::WriteBatch { sid, wsn: 2, pages: vec![] });
    match recv(&mut stream, &mut fr) {
        Frame::Err { code, detail } => {
            assert_eq!(code, ERR_BAD_REQUEST);
            assert_eq!(detail, "empty write batch");
        }
        f => panic!("unexpected: {f:?}"),
    }

    // WSN 2 is still the next one: it applies (no re-ACK), and reads on the
    // same connection see neither refused page.
    send(&mut stream, Frame::WriteBatch { sid, wsn: 2, pages: vec![(3, vec![0x33; 64])] });
    match recv(&mut stream, &mut fr) {
        Frame::Ack { highest_wsn: 2, group, .. } => assert_ne!(group, REACK_GROUP),
        f => panic!("unexpected: {f:?}"),
    }
    send(&mut stream, Frame::ReadBatch { lpids: vec![1, 2, 3] });
    match recv(&mut stream, &mut fr) {
        Frame::ReadResp { pages } => assert_eq!(
            pages,
            vec![Some(vec![0x11; 64]), None, Some(vec![0x33; 64])]
        ),
        f => panic!("unexpected: {f:?}"),
    }

    let (mut ssd, stats) = handle.shutdown();
    assert_eq!(stats.reacks, 0);
    assert!(matches!(ssd.read(2), Err(EleosError::NotFound(_))), "refused page not applied");
    assert_eq!(ssd.session_highest(sid), Some(2));
    assert!(ssd.snapshot().conservation_error().is_none());
}

/// Both ends of a connection disable Nagle: a small request must not wait
/// for the peer's delayed ACK. The client's socket keeps it across a
/// reconnect.
#[test]
fn client_sockets_disable_nagle_across_reconnect() {
    let handle = spawn_single(GroupCommitPolicy::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    assert!(c.raw_stream().nodelay().unwrap(), "connect sets TCP_NODELAY");
    c.write(vec![(1, vec![0x44; 32])]).unwrap();
    c.kill();
    c.reconnect(addr).unwrap();
    assert!(c.raw_stream().nodelay().unwrap(), "reconnect sets TCP_NODELAY");
    c.wait_all_acked().unwrap();
    assert_eq!(c.read(vec![1]).unwrap()[0].as_deref(), Some(&[0x44; 32][..]));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_inflight_group_durably() {
    // Thresholds high enough that nothing flushes by size/count — the
    // drain itself must make the pipelined writes durable.
    let handle = spawn_single(GroupCommitPolicy {
        flush_bytes: usize::MAX,
        flush_interval_ns: u64::MAX,
        max_queued_batches: 10_000,
        ..GroupCommitPolicy::default()
    });
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    for k in 0..6u64 {
        c.write(vec![(k, vec![0xC0 + k as u8; 120])]).unwrap();
    }
    // No ACK wait: ask for shutdown immediately. The server must drain
    // the open group durably, ACK everything, then confirm.
    c.shutdown_server().unwrap();
    assert_eq!(c.unacked(), 0, "drain ACKed every in-flight batch");
    assert_eq!(c.highest_acked(), 6);

    let (mut ssd, _) = handle.shutdown();
    for k in 0..6u64 {
        assert_eq!(ssd.read(k).unwrap().as_ref(), &vec![0xC0 + k as u8; 120][..]);
    }
    assert_eq!(ssd.session_highest(c.sid()), Some(6));
}

#[test]
fn sharded_array_behind_the_same_server() {
    let ssd = ShardedEleos::format(devices(2), &EleosConfig::test_small()).unwrap();
    let handle = ServerHandle::spawn(ssd, GroupCommitPolicy::default(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    // Enough lpids to straddle both shards.
    let pages: Vec<(Lpid, Vec<u8>)> = (0..16u64).map(|l| (l, vec![l as u8 ^ 0x5A; 90])).collect();
    c.write(pages.clone()).unwrap();
    c.wait_all_acked().unwrap();
    let got = c.read((0..16u64).collect()).unwrap();
    for (l, g) in (0..16u64).zip(&got) {
        assert_eq!(g.as_deref(), Some(&vec![l as u8 ^ 0x5A; 90][..]));
    }
    c.shutdown_server().unwrap();
    let (ssd, _) = handle.shutdown();
    assert_eq!(ssd.session_highest(c.sid()), Some(1));
    assert!(ssd.snapshot().conservation_error().is_none());
}
