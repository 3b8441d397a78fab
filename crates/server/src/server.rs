//! TCP front door: accept loop, per-connection reader threads, and the
//! [`ServerHandle`] a host (or test harness) drives.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use eleos::frontend::GroupCommitPolicy;
use eleos::{Controller, PageMode};

use crate::engine::{Engine, EngineMsg, NetStats};
use crate::proto::{FrameReader, FrameStep};

/// A running server: engine thread + accept thread + one reader thread
/// per live connection, all over one bound loopback/TCP address.
pub struct ServerHandle<C: Controller> {
    addr: SocketAddr,
    tx: SyncSender<EngineMsg>,
    stop: Arc<AtomicBool>,
    engine: JoinHandle<(C, NetStats)>,
    accept: JoinHandle<()>,
}

impl<C: Controller + Send + 'static> ServerHandle<C> {
    /// Bind `addr` (use port 0 for an ephemeral port), move the controller
    /// onto the engine thread, and start serving.
    ///
    /// The ingress channel is bounded at twice the group-commit
    /// backpressure cap: a reader thread that cannot enqueue blocks, its
    /// socket stops draining, and TCP flow control reaches the client.
    /// Reader threads build write batches in the controller's page mode,
    /// read here once.
    pub fn spawn(ssd: C, policy: GroupCommitPolicy, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mode = ssd.unit(0).config().page_mode;
        let bound = policy.max_queued_batches.saturating_mul(2).max(16);
        let (tx, rx) = sync_channel::<EngineMsg>(bound);
        let engine = std::thread::spawn({
            let engine = Engine::new(ssd, policy, rx);
            move || engine.run()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = std::thread::spawn({
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            move || accept_loop(listener, tx, stop, mode)
        });
        Ok(ServerHandle { addr, tx, stop, engine, accept })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain every in-flight group
    /// durably, ACK, close all connections, and hand the controller back
    /// (tests inspect durable state through it).
    pub fn shutdown(self) -> (C, NetStats) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.tx.send(EngineMsg::ShutdownExt);
        let _ = self.accept.join();
        self.engine.join().expect("engine thread panicked")
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<EngineMsg>,
    stop: Arc<AtomicBool>,
    mode: PageMode,
) {
    for (conn, stream) in (1u64..).zip(listener.incoming()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => break,
        };
        // ACKs and read responses are small writes the client waits on:
        // never let Nagle hold one back for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if tx.send(EngineMsg::Connected { conn, stream: write_half }).is_err() {
            break; // engine is gone
        }
        std::thread::spawn({
            let tx = tx.clone();
            move || reader_loop(conn, stream, tx, mode)
        });
    }
}

/// Pump one connection's socket through the incremental frame decoder,
/// building each write batch here so the engine thread only submits it.
/// EOF, I/O errors, and malformed streams all end as one `Disconnected`
/// message — the engine purges the connection's unflushed batches and
/// closes the socket; the session itself survives for reconnect-redo.
fn reader_loop(conn: u64, mut stream: TcpStream, tx: SyncSender<EngineMsg>, mode: PageMode) {
    let mut fr = FrameReader::new();
    let reason = 'outer: loop {
        match fr.read_from(&mut stream) {
            Ok(0) => break 'outer "eof",
            Ok(_) => {}
            Err(_) => break 'outer "io error",
        }
        loop {
            match fr.next_request(mode) {
                FrameStep::Frame(request) => {
                    if tx.send(EngineMsg::Request { conn, request }).is_err() {
                        return; // engine is gone; nothing to report to
                    }
                }
                FrameStep::NeedMore => break,
                FrameStep::Malformed(why) => break 'outer why,
            }
        }
    };
    let _ = tx.send(EngineMsg::Disconnected { conn, reason });
}
