//! Tracing from outside the program: a [`Controller`] wrapper that times
//! every call the server engine makes into the controller, and a replay
//! timer for the wire codec.
//!
//! The server is generic over [`Controller`], so a traced run hands it a
//! [`Traced`] controller instead of a bare [`Eleos`]; untraced runs use
//! [`Eleos`] itself and pay nothing. Spans stay in memory until the run
//! ends.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use eleos::{
    BatchAck, Controller, Eleos, EleosConfig, Lpid, MergedSnapshot, Result, Sid, WriteBatch, Wsn,
};
use eleos_flash::{FlashDevice, Nanos};
use eleos_server::{Frame, FrameReader, FrameStep};

/// What the engine asked the controller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlOp {
    /// One group-commit flush (`write_sessions`, or `write` without
    /// session advances).
    Write,
    Read,
    ReadBatch,
    Delete,
}

impl CtlOp {
    pub fn label(self) -> &'static str {
        match self {
            CtlOp::Write => "write_sessions",
            CtlOp::Read => "read",
            CtlOp::ReadBatch => "read_batch",
            CtlOp::Delete => "delete",
        }
    }
}

/// Per-LPID `read` calls closer together than this are one span: the
/// engine serves a `ReadBatch` frame with back-to-back calls.
const READ_RUN_GAP: Duration = Duration::from_micros(2);

/// One controller call — or one run of back-to-back `read` calls —
/// timed on the engine thread.
#[derive(Debug, Clone)]
pub struct CtlSpan {
    pub op: CtlOp,
    pub start: Instant,
    pub end: Instant,
    /// Time inside the controller (for a run of reads, excluding the
    /// engine's work between the calls).
    pub busy_ns: u64,
    /// Controller calls this span covers.
    pub calls: u64,
    /// LPAGEs written, read or deleted.
    pub pages: u64,
    /// Wire bytes of a write group (0 otherwise).
    pub bytes: u64,
    /// Client batches the group carried (from the WSN advance of each
    /// session since its previous group).
    pub batches: u64,
    /// The client requests that caused this call: `(sid, wsn)` advances.
    pub covers: Vec<(Sid, Wsn)>,
}

/// A controller that records a [`CtlSpan`] for every data-path call.
pub struct Traced {
    inner: Eleos,
    spans: Vec<CtlSpan>,
    last_wsn: HashMap<Sid, Wsn>,
}

/// The controller a round serves: bare for end-to-end numbers, wrapped
/// for per-layer ones.
pub trait Probe: Controller + Send + 'static {
    fn wrap(ssd: Eleos) -> Self;
    /// The controller back, plus the spans recorded since [`Probe::wrap`].
    fn unwrap(self) -> (Eleos, Vec<CtlSpan>);
}

impl Probe for Eleos {
    fn wrap(ssd: Eleos) -> Self {
        ssd
    }

    fn unwrap(self) -> (Eleos, Vec<CtlSpan>) {
        (self, Vec::new())
    }
}

impl Probe for Traced {
    fn wrap(ssd: Eleos) -> Self {
        Traced {
            inner: ssd,
            spans: Vec::new(),
            last_wsn: HashMap::new(),
        }
    }

    fn unwrap(self) -> (Eleos, Vec<CtlSpan>) {
        (self.inner, self.spans)
    }
}

impl Traced {
    fn record<T>(
        &mut self,
        op: CtlOp,
        pages: u64,
        f: impl FnOnce(&mut Eleos) -> Result<T>,
    ) -> Result<T> {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let busy_ns = (end - start).as_nanos() as u64;
        if let Some(last) = self.spans.last_mut() {
            if op == CtlOp::Read && last.op == CtlOp::Read && start - last.end < READ_RUN_GAP {
                last.end = end;
                last.busy_ns += busy_ns;
                last.calls += 1;
                last.pages += pages;
                return out;
            }
        }
        self.spans.push(CtlSpan {
            op,
            start,
            end,
            busy_ns,
            calls: 1,
            pages,
            bytes: 0,
            batches: 0,
            covers: Vec::new(),
        });
        out
    }

    fn record_write(&mut self, batch: &WriteBatch, advances: &[(Sid, Wsn)]) -> Result<BatchAck> {
        let start = Instant::now();
        let out = if advances.is_empty() {
            Controller::write(&mut self.inner, batch)
        } else {
            Controller::write_sessions(&mut self.inner, batch, advances)
        };
        let end = Instant::now();
        let mut batches = 0;
        if out.is_ok() {
            for &(sid, wsn) in advances {
                let last = self.last_wsn.insert(sid, wsn).unwrap_or(0);
                batches += wsn.saturating_sub(last);
            }
        }
        self.spans.push(CtlSpan {
            op: CtlOp::Write,
            start,
            end,
            busy_ns: (end - start).as_nanos() as u64,
            calls: 1,
            pages: batch.len() as u64,
            bytes: batch.wire_len() as u64,
            batches,
            covers: advances.to_vec(),
        });
        out
    }
}

impl Controller for Traced {
    fn format(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        Ok(Traced::wrap(<Eleos as Controller>::format(devs, cfg)?))
    }

    fn recover(devs: Vec<FlashDevice>, cfg: &EleosConfig) -> Result<Self> {
        Ok(Traced::wrap(<Eleos as Controller>::recover(devs, cfg)?))
    }

    fn crash(self) -> Vec<FlashDevice> {
        Controller::crash(self.inner)
    }

    fn write(&mut self, batch: &WriteBatch) -> Result<BatchAck> {
        self.record_write(batch, &[])
    }

    fn write_sessions(&mut self, batch: &WriteBatch, advances: &[(Sid, Wsn)]) -> Result<BatchAck> {
        self.record_write(batch, advances)
    }

    fn open_session(&mut self) -> Result<Sid> {
        Controller::open_session(&mut self.inner)
    }

    fn close_session(&mut self, sid: Sid) -> Result<()> {
        Controller::close_session(&mut self.inner, sid)
    }

    fn session_highest(&self, sid: Sid) -> Option<Wsn> {
        Controller::session_highest(&self.inner, sid)
    }

    fn read(&mut self, lpid: Lpid) -> Result<Bytes> {
        self.record(CtlOp::Read, 1, |c| Controller::read(c, lpid))
    }

    fn read_batch(&mut self, lpids: &[Lpid]) -> Result<Vec<Bytes>> {
        self.record(CtlOp::ReadBatch, lpids.len() as u64, |c| {
            Controller::read_batch(c, lpids)
        })
    }

    fn delete(&mut self, lpids: &[Lpid]) -> Result<()> {
        self.record(CtlOp::Delete, lpids.len() as u64, |c| {
            Controller::delete(c, lpids)
        })
    }

    fn checkpoint(&mut self) -> Result<()> {
        Controller::checkpoint(&mut self.inner)
    }

    fn maintenance(&mut self) -> Result<()> {
        Controller::maintenance(&mut self.inner)
    }

    fn drain(&mut self) {
        Controller::drain(&mut self.inner)
    }

    fn host_now(&self) -> Nanos {
        Controller::host_now(&self.inner)
    }

    fn snapshot(&self) -> MergedSnapshot {
        Controller::snapshot(&self.inner)
    }

    fn units(&self) -> usize {
        1
    }

    fn unit_of(&self, _lpid: Lpid) -> usize {
        0
    }

    fn unit(&self, i: usize) -> &Eleos {
        Controller::unit(&self.inner, i)
    }

    fn unit_mut(&mut self, i: usize) -> &mut Eleos {
        Controller::unit_mut(&mut self.inner, i)
    }
}

/// Codec cost measured by replaying a run's own frames.
pub struct CodecTiming {
    pub encode_ns_per_kb: f64,
    pub decode_ns_per_kb: f64,
}

/// Encode every frame, then decode the byte stream through a
/// [`FrameReader`] fed in 16 KiB socket-sized reads, as the server's
/// reader threads do.
pub fn replay_codec(frames: &[Frame]) -> CodecTiming {
    let t = Instant::now();
    let wire: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| std::hint::black_box(f.encode()))
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    let stream: Vec<u8> = wire.concat();
    let kb = stream.len() as f64 / 1024.0;

    let t = Instant::now();
    let mut fr = FrameReader::new();
    let mut decoded = 0usize;
    for chunk in stream.chunks(16 * 1024) {
        fr.feed(chunk);
        loop {
            match fr.next_frame() {
                FrameStep::Frame(f) => {
                    std::hint::black_box(&f);
                    decoded += 1;
                }
                FrameStep::NeedMore => break,
                FrameStep::Malformed(why) => panic!("replayed frame failed to decode: {why}"),
            }
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(decoded, frames.len(), "every replayed frame decodes");
    CodecTiming {
        encode_ns_per_kb: encode_ns / kb.max(f64::MIN_POSITIVE),
        decode_ns_per_kb: decode_ns / kb.max(f64::MIN_POSITIVE),
    }
}
