//! The single-threaded storage engine behind the wire server.
//!
//! Exactly one thread owns the controller and the group-commit
//! [`Frontend`]; per-connection reader threads parse frames, build each
//! write batch in the controller's format, and push [`EngineMsg`]s
//! through one bounded channel, so the engine does no per-page byte
//! work (DESIGN.md §16, buffer ownership). That shape keeps the
//! SimClock timeline deterministic (one mutator, message order = timeline
//! order), and the channel bound *is* the ingress backpressure: when the
//! engine falls behind, reader threads block on `send`, their sockets
//! stop being drained, and TCP flow control pushes back on the client —
//! slow consumers are flow-controlled, never buffered unboundedly.
//!
//! ACK discipline: a client's `WriteBatch` is answered only when the
//! covering group commit is durable ([`GroupAck`]); the group-commit time
//! threshold degenerates to *flush-on-idle* (the engine flushes whenever
//! its inbox is empty), so batches never wait on a wall-clock timer that
//! simulated time cannot see. Reads and deletes flush the open group
//! first — a connection always reads its own ACK-pending writes.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};

use eleos::error::EleosError;
use eleos::frontend::{Frontend, GroupAck, GroupCommitPolicy};
use eleos::types::{Lpid, Sid};
use eleos::Controller;
use eleos_flash::Activity;

use crate::proto::{
    encode_read_resp, Frame, Request, WireWrite, ERR_BAD_REQUEST, ERR_BAD_VERSION, ERR_INTERNAL,
    ERR_UNKNOWN_SESSION, PROTO_VERSION, REACK_GROUP,
};

/// Fixed CPU per decoded frame, charged to [`Activity::Net`].
const NET_FRAME_CPU_NS: u64 = 400;
/// One extra nanosecond of net CPU per this many payload bytes.
const NET_BYTES_PER_NS: u64 = 64;

/// Everything the reader/accept threads tell the engine.
#[derive(Debug)]
pub enum EngineMsg {
    /// A new TCP connection; `stream` is the engine's write half.
    Connected { conn: u64, stream: TcpStream },
    /// One well-formed request from a connection.
    Request { conn: u64, request: Request },
    /// The connection died (EOF, I/O error, or malformed frame).
    Disconnected { conn: u64, reason: &'static str },
    /// Out-of-band shutdown from [`crate::ServerHandle::shutdown`].
    ShutdownExt,
}

/// Counters the server reports after shutdown (wire-side observability
/// that the telemetry ledger's `net` row complements on the sim side).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    pub conns_opened: u64,
    pub conns_dropped: u64,
    pub frames_in: u64,
    pub acks_out: u64,
    /// Out-of-order WSNs answered with a re-ACK of the durable high-water.
    pub reacks: u64,
    /// Queued-but-unflushed batches discarded because their connection
    /// died before the covering group closed.
    pub purged_batches: u64,
}

struct ConnState {
    stream: TcpStream,
    /// This connection's client slot in the [`Frontend`].
    client: usize,
    /// Session bound by `Hello` (0 = none yet).
    sid: Sid,
}

/// Single-owner engine: one controller, one front-end, N connections.
pub struct Engine<C: Controller> {
    ssd: C,
    fe: Frontend,
    rx: Receiver<EngineMsg>,
    conns: HashMap<u64, ConnState>,
    /// Frontend client slot -> conn id, for routing [`GroupAck`]s.
    owner: HashMap<usize, u64>,
    stats: NetStats,
}

impl<C: Controller> Engine<C> {
    pub fn new(ssd: C, policy: GroupCommitPolicy, rx: Receiver<EngineMsg>) -> Self {
        Engine {
            ssd,
            // Client slot 0 is reserved (the frontend needs >= 1 client);
            // every connection allocates its own slot via `add_client`.
            fe: Frontend::new(1, policy),
            rx,
            conns: HashMap::new(),
            owner: HashMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Run until shutdown; returns the controller (drained durable) and
    /// the wire counters.
    pub fn run(mut self) -> (C, NetStats) {
        loop {
            let msg = match self.rx.try_recv() {
                Ok(m) => m,
                Err(TryRecvError::Empty) => {
                    // Idle: flush the open group (time threshold ==
                    // flush-on-idle under simulated time).
                    self.flush_and_ack();
                    match self.rx.recv() {
                        Ok(m) => m,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            match msg {
                EngineMsg::Connected { conn, stream } => {
                    let client = self.fe.add_client();
                    self.owner.insert(client, conn);
                    self.conns.insert(conn, ConnState { stream, client, sid: 0 });
                    self.stats.conns_opened += 1;
                }
                EngineMsg::Request { conn, request } => {
                    self.stats.frames_in += 1;
                    if self.handle_request(conn, request) {
                        self.drain_and_close();
                        return (self.ssd, self.stats);
                    }
                }
                EngineMsg::Disconnected { conn, .. } => self.drop_conn(conn),
                EngineMsg::ShutdownExt => {
                    self.drain_and_close();
                    return (self.ssd, self.stats);
                }
            }
        }
        // All senders are gone (accept loop died): drain and stop.
        self.drain_and_close();
        (self.ssd, self.stats)
    }

    /// Handle one request; `true` means a graceful shutdown was requested.
    fn handle_request(&mut self, conn: u64, request: Request) -> bool {
        if !self.conns.contains_key(&conn) {
            return false; // raced with a disconnect
        }
        self.charge_net(&request);
        match request {
            Request::Write(w) => self.on_write(conn, w),
            Request::Frame(Frame::Hello { version, sid }) => self.on_hello(conn, version, sid),
            Request::Frame(Frame::ReadBatch { lpids }) => self.on_read(conn, &lpids),
            Request::Frame(Frame::DeleteBatch { lpids }) => self.on_delete(conn, &lpids),
            Request::Frame(Frame::Shutdown) => return true,
            // Server->client opcodes arriving at the server are a protocol
            // violation: treat like a malformed stream.
            Request::Frame(_) => self.drop_conn(conn),
        }
        false
    }

    fn on_hello(&mut self, conn: u64, version: u32, sid: Sid) {
        if version != PROTO_VERSION {
            self.send(conn, &Frame::Err {
                code: ERR_BAD_VERSION,
                detail: format!("want {PROTO_VERSION}, got {version}"),
            });
            self.drop_conn(conn);
            return;
        }
        let granted = if sid == 0 {
            match self.ssd.open_session() {
                Ok(s) => s,
                Err(e) => {
                    self.send_internal(conn, &e);
                    return;
                }
            }
        } else {
            sid
        };
        match self.ssd.session_highest(granted) {
            Some(highest) => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.sid = granted;
                }
                self.send(conn, &Frame::HelloOk { sid: granted, highest_wsn: highest });
            }
            None => {
                // Resume of a session this controller never opened (or
                // already closed): refuse, keep the connection so the
                // client can retry with sid 0.
                self.send(conn, &Frame::Err {
                    code: ERR_UNKNOWN_SESSION,
                    detail: format!("sid {sid}"),
                });
            }
        }
    }

    fn on_write(&mut self, conn: u64, w: WireWrite) {
        let (client, bound_sid) = match self.conns.get(&conn) {
            Some(c) => (c.client, c.sid),
            None => return,
        };
        let WireWrite { sid, wsn, batch, .. } = w;
        let batch = match batch {
            _ if bound_sid == 0 || bound_sid != sid => {
                Err("write outside the connection's session".to_string())
            }
            Ok(b) if b.is_empty() => Err("empty write batch".to_string()),
            Ok(b) => Ok(b),
            Err(e) => Err(format!("bad page: {e}")),
        };
        let batch = match batch {
            Ok(b) => b,
            Err(detail) => {
                self.send(conn, &Frame::Err { code: ERR_BAD_REQUEST, detail });
                return;
            }
        };
        let at = self.ssd.host_now();
        match self.fe.submit_sessioned(&mut self.ssd, client, at, batch, sid, wsn) {
            Ok(acks) => self.dispatch_acks(&acks),
            Err(EleosError::WsnOutOfOrder { highest_acked, .. }) => {
                // Not applied (gap or duplicate): re-ACK the durable
                // high-water so the client can resynchronize its redo
                // buffer (Section III-A2).
                self.stats.reacks += 1;
                self.send(conn, &Frame::Ack {
                    sid,
                    highest_wsn: highest_acked,
                    group: REACK_GROUP,
                });
            }
            Err(EleosError::UnknownSession(s)) => {
                self.send(conn, &Frame::Err {
                    code: ERR_UNKNOWN_SESSION,
                    detail: format!("sid {s}"),
                });
            }
            Err(e) => self.send_internal(conn, &e),
        }
    }

    fn on_read(&mut self, conn: u64, lpids: &[Lpid]) {
        // Read-your-writes: the open group (which may hold this
        // connection's ACK-pending batches) flushes first.
        self.flush_and_ack();
        let mut pages = Vec::with_capacity(lpids.len());
        for &l in lpids {
            match self.ssd.read(l) {
                Ok(b) => pages.push(Some(b)),
                Err(EleosError::NotFound(_)) => pages.push(None),
                Err(e) => {
                    self.send_internal(conn, &e);
                    return;
                }
            }
        }
        self.send_wire(conn, &encode_read_resp(&pages));
    }

    fn on_delete(&mut self, conn: u64, lpids: &[Lpid]) {
        self.flush_and_ack();
        if lpids.is_empty() {
            self.send(conn, &Frame::Err {
                code: ERR_BAD_REQUEST,
                detail: "empty delete".into(),
            });
            return;
        }
        match self.ssd.delete(lpids) {
            Ok(()) => self.send(conn, &Frame::DeleteOk),
            Err(e) => self.send_internal(conn, &e),
        }
    }

    /// Flush the open group and route the resulting durable ACKs.
    fn flush_and_ack(&mut self) {
        if self.fe.pending_batches() == 0 {
            return;
        }
        match self.fe.flush(&mut self.ssd) {
            Ok(acks) => self.dispatch_acks(&acks),
            Err(e) => {
                // The queue survives a failed flush by contract; dropping
                // it here converts the fault into the allowed unACKed-batch
                // loss instead of an unbounded retry loop.
                let detail = format!("group flush failed: {e}");
                let conns: Vec<u64> = self.conns.keys().copied().collect();
                for conn in conns {
                    self.send(conn, &Frame::Err {
                        code: ERR_INTERNAL,
                        detail: detail.clone(),
                    });
                }
                let clients: Vec<usize> = self.owner.keys().copied().collect();
                for c in clients {
                    self.stats.purged_batches += self.fe.purge_client(c) as u64;
                }
            }
        }
    }

    fn dispatch_acks(&mut self, acks: &[GroupAck]) {
        for a in acks {
            if let Some((sid, wsn)) = a.session {
                if let Some(&conn) = self.owner.get(&a.client) {
                    self.stats.acks_out += 1;
                    self.send(conn, &Frame::Ack {
                        sid,
                        highest_wsn: wsn,
                        group: a.group,
                    });
                }
            }
        }
    }

    /// Graceful shutdown: every queued batch is flushed durably and ACKed,
    /// then every connection gets `ShutdownOk` and the sockets close.
    fn drain_and_close(&mut self) {
        self.flush_and_ack();
        self.ssd.drain();
        let conns: Vec<u64> = self.conns.keys().copied().collect();
        for conn in conns {
            self.send(conn, &Frame::ShutdownOk);
            self.drop_conn(conn);
        }
    }

    fn drop_conn(&mut self, conn: u64) {
        if let Some(c) = self.conns.remove(&conn) {
            self.stats.conns_dropped += 1;
            self.stats.purged_batches += self.fe.purge_client(c.client) as u64;
            self.owner.remove(&c.client);
            let _ = c.stream.shutdown(Shutdown::Both);
            // The session stays open: a reconnect resumes it and the WSN
            // high-water tells the client which redo buffers to replay.
        }
    }

    fn send(&mut self, conn: u64, frame: &Frame) {
        self.send_wire(conn, &frame.encode());
    }

    fn send_wire(&mut self, conn: u64, wire: &[u8]) {
        if let Some(c) = self.conns.get_mut(&conn) {
            if c.stream.write_all(wire).is_err() {
                self.drop_conn(conn);
            }
        }
    }

    fn send_internal(&mut self, conn: u64, e: &EleosError) {
        self.send(conn, &Frame::Err {
            code: ERR_INTERNAL,
            detail: format!("{e}"),
        });
    }

    /// Frame decode + dispatch CPU, attributed to [`Activity::Net`] on
    /// unit 0 so the ledger's conservation invariant stays exact.
    fn charge_net(&mut self, request: &Request) {
        let payload: u64 = match request {
            Request::Write(w) => w.payload_bytes,
            Request::Frame(Frame::ReadBatch { lpids } | Frame::DeleteBatch { lpids }) => {
                8 * lpids.len() as u64
            }
            _ => 0,
        };
        self.ssd
            .unit_mut(0)
            .charge_host_cpu(Activity::Net, NET_FRAME_CPU_NS + payload / NET_BYTES_PER_NS);
    }
}
