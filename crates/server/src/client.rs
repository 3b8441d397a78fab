//! Blocking reference client with a host-side redo buffer.
//!
//! The client is the paper's host: it pipelines `WriteBatch` frames with
//! consecutive WSNs without waiting for ACKs, keeps every unACKed batch
//! in a redo buffer, and on reconnect replays the buffers above the
//! server's re-ACKed high-water — exactly-once in effect, because the
//! server's WSN check discards anything it already applied. A batch is
//! encoded once; the redo buffer holds those wire bytes and a replay
//! resends them unchanged (the session id in them survives a resume).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use eleos::types::{Lpid, Sid, Wsn};

use crate::proto::{encode_write_batch, Frame, FrameReader, FrameStep, PROTO_VERSION, REACK_GROUP};

/// One connected (or reconnectable) session.
pub struct Client {
    stream: TcpStream,
    fr: FrameReader,
    sid: Sid,
    next_wsn: Wsn,
    highest_acked: Wsn,
    /// WSN -> encoded `WriteBatch` frame, for every write not yet covered
    /// by a durable ACK.
    redo: BTreeMap<Wsn, Vec<u8>>,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connect and open a fresh session.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let mut c = Client {
            stream: connect(addr)?,
            fr: FrameReader::new(),
            sid: 0,
            next_wsn: 1,
            highest_acked: 0,
            redo: BTreeMap::new(),
        };
        c.hello(0)?;
        Ok(c)
    }

    /// Reconnect after a dead connection: resume the session, discard
    /// redo buffers the server already ACKed durably, replay the rest in
    /// WSN order. Returns the server's durable high-water from the
    /// handshake — the acked-never-vanish contract says it is at least
    /// the highest ACK this client saw before the connection died.
    pub fn reconnect(&mut self, addr: SocketAddr) -> io::Result<Wsn> {
        self.stream = connect(addr)?;
        self.fr = FrameReader::new();
        let sid = self.sid;
        let server_highest = self.hello(sid)?;
        self.replay()?;
        Ok(server_highest)
    }

    fn hello(&mut self, sid: Sid) -> io::Result<Wsn> {
        self.send(&Frame::Hello { version: PROTO_VERSION, sid })?;
        match self.recv()? {
            Frame::HelloOk { sid, highest_wsn } => {
                self.sid = sid;
                self.apply_highest(highest_wsn);
                if self.next_wsn <= highest_wsn {
                    self.next_wsn = highest_wsn + 1;
                }
                Ok(highest_wsn)
            }
            Frame::Err { code, detail } => Err(bad_data(format!("hello refused ({code}): {detail}"))),
            f => Err(bad_data(format!("unexpected hello reply: {f:?}"))),
        }
    }

    pub fn sid(&self) -> Sid {
        self.sid
    }

    /// Highest WSN the server has durably ACKed.
    pub fn highest_acked(&self) -> Wsn {
        self.highest_acked
    }

    /// Batches sent but not yet durably ACKed.
    pub fn unacked(&self) -> usize {
        self.redo.len()
    }

    /// Kill the connection abruptly (chaos: the process "dies" without
    /// goodbye). The redo buffer survives for [`Client::reconnect`].
    pub fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Raw socket access for chaos harnesses (partial frames, garbage).
    pub fn raw_stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Pipeline one write batch; returns its WSN without waiting for the
    /// ACK (Section III-A2: "waiting for an ACK wastes parallelism").
    pub fn write(&mut self, pages: Vec<(Lpid, Vec<u8>)>) -> io::Result<Wsn> {
        let wsn = self.next_wsn;
        self.next_wsn += 1;
        let wire = self.redo.entry(wsn).or_insert(encode_write_batch(self.sid, wsn, &pages));
        self.stream.write_all(wire)?;
        Ok(wsn)
    }

    /// Block until `wsn` is durably ACKed (processing any interleaved
    /// ACKs; a re-ACK triggers an in-place replay of the surviving redo
    /// buffers).
    pub fn wait_acked(&mut self, wsn: Wsn) -> io::Result<()> {
        while self.highest_acked < wsn {
            let f = self.recv()?;
            self.absorb(f)?;
        }
        Ok(())
    }

    /// Block until every outstanding write is durably ACKed.
    pub fn wait_all_acked(&mut self) -> io::Result<()> {
        let target = self.next_wsn - 1;
        self.wait_acked(target)
    }

    /// Read LPAGEs (request order preserved; `None` = not stored).
    pub fn read(&mut self, lpids: Vec<Lpid>) -> io::Result<Vec<Option<Vec<u8>>>> {
        self.send(&Frame::ReadBatch { lpids })?;
        loop {
            match self.recv()? {
                Frame::ReadResp { pages } => return Ok(pages),
                f => self.absorb(f)?,
            }
        }
    }

    /// Atomically delete LPAGEs.
    pub fn delete(&mut self, lpids: Vec<Lpid>) -> io::Result<()> {
        self.send(&Frame::DeleteBatch { lpids })?;
        loop {
            match self.recv()? {
                Frame::DeleteOk => return Ok(()),
                f => self.absorb(f)?,
            }
        }
    }

    /// Ask the server to drain durably and stop; returns once the server
    /// confirms with `ShutdownOk` (any in-flight ACKs are absorbed first,
    /// so the redo buffer reflects what the drain made durable).
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.recv()? {
                Frame::ShutdownOk => return Ok(()),
                f => self.absorb(f)?,
            }
        }
    }

    /// Fold one server frame into client state.
    fn absorb(&mut self, f: Frame) -> io::Result<()> {
        match f {
            Frame::Ack { highest_wsn, group, .. } => {
                self.apply_highest(highest_wsn);
                if group == REACK_GROUP {
                    // Not applied: replay everything above the re-ACKed
                    // high-water.
                    self.replay()?;
                }
                Ok(())
            }
            Frame::Err { code, detail } => Err(bad_data(format!("server error ({code}): {detail}"))),
            Frame::ShutdownOk => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server shut down",
            )),
            f => Err(bad_data(format!("unexpected frame: {f:?}"))),
        }
    }

    fn apply_highest(&mut self, highest: Wsn) {
        if highest > self.highest_acked {
            self.highest_acked = highest;
        }
        let keep = self.redo.split_off(&(self.highest_acked + 1));
        self.redo = keep;
    }

    /// Resend every buffered batch, in WSN order, as encoded.
    fn replay(&mut self) -> io::Result<()> {
        for wire in self.redo.values() {
            self.stream.write_all(wire)?;
        }
        Ok(())
    }

    fn send(&mut self, f: &Frame) -> io::Result<()> {
        self.stream.write_all(&f.encode())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        loop {
            match self.fr.next_frame() {
                FrameStep::Frame(f) => return Ok(f),
                FrameStep::Malformed(why) => return Err(bad_data(why.into())),
                FrameStep::NeedMore => {}
            }
            if self.fr.read_from(&mut self.stream)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
        }
    }
}

/// Open a request/response connection: small frames (hello, reads) go
/// out at once instead of waiting behind Nagle for the peer's delayed ACK.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}
