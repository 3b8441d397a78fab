//! Wire protocol: length-prefixed binary frames (DESIGN.md §16).
//!
//! Every frame is `[len: u32 LE][opcode: u8][payload]` where `len` counts
//! the opcode byte plus the payload. Integers are little-endian and byte
//! strings are `u32`-length-prefixed, reusing the controller's on-flash
//! codec ([`eleos::codec`]) — one serialization idiom across the repo.
//!
//! Decoding is strict and fails soft: an oversized length, an unknown
//! opcode, a payload that underflows, or trailing garbage after a
//! well-formed body all classify the frame as *malformed*, and the server
//! closes that connection without touching controller state — the
//! connection's unACKed batches are lost, which is exactly the loss an
//! unACKed write is allowed to suffer (the frame-fuzz proptest pins this).

use std::io::{self, Read};

use eleos::codec::{Reader, Writer};
use eleos::types::{Lpid, Sid, Wsn};
use eleos::{EleosError, PageMode, WriteBatch};

/// Protocol version carried in `Hello`; the server rejects mismatches.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on `len` (opcode + payload). A frame claiming more is
/// malformed — the decoder never allocates ahead of this check, so a
/// hostile 4 GiB length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 4 * 1024 * 1024;

/// Sentinel `group` in a wire ACK meaning "not applied — re-ACK of the
/// durable high-water" (a gap or duplicate WSN, Section III-A2).
pub const REACK_GROUP: u64 = u64::MAX;

// Client -> server opcodes.
pub const OP_HELLO: u8 = 0x01;
pub const OP_WRITE_BATCH: u8 = 0x02;
pub const OP_READ_BATCH: u8 = 0x03;
pub const OP_DELETE_BATCH: u8 = 0x04;
pub const OP_SHUTDOWN: u8 = 0x05;

// Server -> client opcodes.
pub const OP_HELLO_OK: u8 = 0x81;
pub const OP_ACK: u8 = 0x82;
pub const OP_READ_RESP: u8 = 0x83;
pub const OP_DELETE_OK: u8 = 0x84;
pub const OP_ERR: u8 = 0x85;
pub const OP_SHUTDOWN_OK: u8 = 0x86;

/// Error codes carried by [`Frame::Err`].
pub const ERR_BAD_VERSION: u8 = 1;
pub const ERR_UNKNOWN_SESSION: u8 = 2;
pub const ERR_BAD_REQUEST: u8 = 3;
pub const ERR_INTERNAL: u8 = 4;
pub const ERR_SHUTTING_DOWN: u8 = 5;

/// One parsed protocol frame (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Open (sid 0) or resume (sid != 0) a session.
    Hello { version: u32, sid: Sid },
    /// One client write batch under the session WSN protocol. Pages are
    /// `(lpid, payload)` pairs applied in order (later wins).
    WriteBatch {
        sid: Sid,
        wsn: Wsn,
        pages: Vec<(Lpid, Vec<u8>)>,
    },
    /// Read a set of LPAGEs; the response preserves request order.
    ReadBatch { lpids: Vec<Lpid> },
    /// Atomically delete a set of LPAGEs (TRIM).
    DeleteBatch { lpids: Vec<Lpid> },
    /// Ask the server to drain durably and stop.
    Shutdown,

    /// Session granted/resumed; `highest_wsn` is the durable high-water
    /// the client uses to discard acknowledged redo buffers.
    HelloOk { sid: Sid, highest_wsn: Wsn },
    /// The covering group is durable up to `highest_wsn` (or a re-ACK
    /// when `group == REACK_GROUP`: the submitted WSN was not applied).
    Ack {
        sid: Sid,
        highest_wsn: Wsn,
        group: u64,
    },
    /// Per-LPID results in request order; `None` = not found.
    ReadResp { pages: Vec<Option<Vec<u8>>> },
    /// The delete group is durable.
    DeleteOk,
    /// Request-level failure; the connection stays open unless the server
    /// says otherwise by closing it.
    Err { code: u8, detail: String },
    /// All in-flight groups are durable; the server is closing.
    ShutdownOk,
}

impl Frame {
    /// Encode as a complete wire frame (length prefix included) into one
    /// exact-size buffer.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Hello { version, sid } => frame(OP_HELLO, 12, |w| {
                w.u32(*version);
                w.u64(*sid);
            }),
            Frame::WriteBatch { sid, wsn, pages } => encode_write_batch(*sid, *wsn, pages),
            Frame::ReadBatch { lpids } => encode_lpids(OP_READ_BATCH, lpids),
            Frame::DeleteBatch { lpids } => encode_lpids(OP_DELETE_BATCH, lpids),
            Frame::Shutdown => frame(OP_SHUTDOWN, 0, |_| {}),
            Frame::HelloOk { sid, highest_wsn } => frame(OP_HELLO_OK, 16, |w| {
                w.u64(*sid);
                w.u64(*highest_wsn);
            }),
            Frame::Ack {
                sid,
                highest_wsn,
                group,
            } => frame(OP_ACK, 24, |w| {
                w.u64(*sid);
                w.u64(*highest_wsn);
                w.u64(*group);
            }),
            Frame::ReadResp { pages } => encode_read_resp(pages),
            Frame::DeleteOk => frame(OP_DELETE_OK, 0, |_| {}),
            Frame::Err { code, detail } => frame(OP_ERR, 5 + detail.len(), |w| {
                w.u8(*code);
                w.bytes(detail.as_bytes());
            }),
            Frame::ShutdownOk => frame(OP_SHUTDOWN_OK, 0, |_| {}),
        }
    }

    /// Decode a frame *body* (opcode + payload, length prefix already
    /// stripped). `None` = malformed: unknown opcode, underflow, or
    /// trailing bytes.
    pub fn decode_body(body: &[u8]) -> Option<Frame> {
        let mut r = Reader::new(body);
        let op = r.u8()?;
        let f = match op {
            OP_HELLO => Frame::Hello {
                version: r.u32()?,
                sid: r.u64()?,
            },
            OP_WRITE_BATCH => {
                let (sid, wsn, pages) =
                    walk_write_batch(&mut r, Vec::with_capacity, |pages, lpid, p| {
                        pages.push((lpid, p.to_vec()))
                    })?;
                Frame::WriteBatch { sid, wsn, pages }
            }
            OP_READ_BATCH | OP_DELETE_BATCH => {
                let n = r.u32()? as usize;
                if n > r.remaining() / 8 {
                    return None;
                }
                let mut lpids = Vec::with_capacity(n);
                for _ in 0..n {
                    lpids.push(r.u64()?);
                }
                if op == OP_READ_BATCH {
                    Frame::ReadBatch { lpids }
                } else {
                    Frame::DeleteBatch { lpids }
                }
            }
            OP_SHUTDOWN => Frame::Shutdown,
            OP_HELLO_OK => Frame::HelloOk {
                sid: r.u64()?,
                highest_wsn: r.u64()?,
            },
            OP_ACK => Frame::Ack {
                sid: r.u64()?,
                highest_wsn: r.u64()?,
                group: r.u64()?,
            },
            OP_READ_RESP => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return None;
                }
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    match r.u8()? {
                        0 => pages.push(None),
                        1 => pages.push(Some(r.bytes()?.to_vec())),
                        _ => return None,
                    }
                }
                Frame::ReadResp { pages }
            }
            OP_DELETE_OK => Frame::DeleteOk,
            OP_ERR => Frame::Err {
                code: r.u8()?,
                detail: String::from_utf8(r.bytes()?.to_vec()).ok()?,
            },
            OP_SHUTDOWN_OK => Frame::ShutdownOk,
            _ => return None,
        };
        if r.remaining() != 0 {
            return None; // trailing garbage
        }
        Some(f)
    }
}

/// Build one frame of `payload` bytes after the opcode into an exact-size
/// buffer, the length prefix written in place before the body.
fn frame(op: u8, payload: usize, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let len = 1 + payload;
    let mut out = Vec::with_capacity(4 + len);
    let mut w = Writer(&mut out);
    w.u32(len as u32);
    w.u8(op);
    body(&mut w);
    assert_eq!(out.len(), 4 + len, "frame body does not match its length prefix");
    out
}

fn encode_lpids(op: u8, lpids: &[Lpid]) -> Vec<u8> {
    frame(op, 4 + 8 * lpids.len(), |w| {
        w.u32(lpids.len() as u32);
        for l in lpids {
            w.u64(*l);
        }
    })
}

/// Encode a `WriteBatch` frame straight from borrowed pages — the client
/// keeps these bytes as its redo buffer and resends them as they are.
pub(crate) fn encode_write_batch<P: AsRef<[u8]>>(
    sid: Sid,
    wsn: Wsn,
    pages: &[(Lpid, P)],
) -> Vec<u8> {
    let payload: usize = pages.iter().map(|(_, p)| 12 + p.as_ref().len()).sum();
    frame(OP_WRITE_BATCH, 20 + payload, |w| {
        w.u64(sid);
        w.u64(wsn);
        w.u32(pages.len() as u32);
        for (lpid, p) in pages {
            w.u64(*lpid);
            w.bytes(p.as_ref());
        }
    })
}

/// Encode a `ReadResp` frame straight from borrowed pages (the engine
/// passes the controller's `Bytes` without copying them out first).
pub(crate) fn encode_read_resp<P: AsRef<[u8]>>(pages: &[Option<P>]) -> Vec<u8> {
    let payload: usize = pages
        .iter()
        .map(|p| 1 + p.as_ref().map_or(0, |b| 4 + b.as_ref().len()))
        .sum();
    frame(OP_READ_RESP, 4 + payload, |w| {
        w.u32(pages.len() as u32);
        for p in pages {
            match p {
                Some(b) => {
                    w.u8(1);
                    w.bytes(b.as_ref());
                }
                None => w.u8(0),
            }
        }
    })
}

/// The one `WriteBatch` grammar, shared by [`Frame::decode_body`] and
/// [`Request::decode_body`]: after the opcode, `[sid u64][wsn u64][count
/// u32]` then `count` entries of `[lpid u64][len u32][payload]`. `init`
/// receives the count and builds the sink every page is handed to, in
/// order. `None` = malformed (the caller still checks for trailing bytes).
fn walk_write_batch<'a, S>(
    r: &mut Reader<'a>,
    init: impl FnOnce(usize) -> S,
    mut page: impl FnMut(&mut S, Lpid, &'a [u8]),
) -> Option<(Sid, Wsn, S)> {
    let sid = r.u64()?;
    let wsn = r.u64()?;
    let n = r.u32()? as usize;
    // Entries are at least 12 wire bytes each; a count that cannot fit in
    // the remaining payload is malformed (cheap guard before the
    // allocation).
    if n > r.remaining() / 12 {
        return None;
    }
    let mut sink = init(n);
    for _ in 0..n {
        let lpid = r.u64()?;
        page(&mut sink, lpid, r.bytes()?);
    }
    Some((sid, wsn, sink))
}

/// A client request as the server's reader threads decode it.
#[derive(Debug)]
pub enum Request {
    /// A `WriteBatch` frame, decoded straight into the controller's batch
    /// format so the engine thread does no per-page work.
    Write(WireWrite),
    /// Any other well-formed frame.
    Frame(Frame),
}

/// A decoded `WriteBatch` frame.
#[derive(Debug)]
pub struct WireWrite {
    pub sid: Sid,
    pub wsn: Wsn,
    /// The frame's pages in order, or the first page the batch refused
    /// (a reserved LPID or an oversized page): a well-formed frame the
    /// engine answers with `ERR_BAD_REQUEST`.
    pub batch: Result<WriteBatch, EleosError>,
    /// Payload bytes the frame carried, refused pages included.
    pub payload_bytes: u64,
}

impl Request {
    /// Decode a frame body the way the server does: a `WriteBatch` goes
    /// straight into a [`WriteBatch`] of page mode `mode`, everything else
    /// through [`Frame::decode_body`]. Accepts exactly the bodies
    /// [`Frame::decode_body`] accepts.
    pub fn decode_body(body: &[u8], mode: PageMode) -> Option<Request> {
        if body.first() != Some(&OP_WRITE_BATCH) {
            return Frame::decode_body(body).map(Request::Frame);
        }
        let mut r = Reader::new(&body[1..]);
        // The rest of the body bounds the payload bytes from above.
        let payload_bound = r.remaining();
        let (sid, wsn, (batch, payload_bytes)) = walk_write_batch(
            &mut r,
            |n| (Ok(WriteBatch::with_capacity(mode, n, payload_bound)), 0),
            |(batch, payload_bytes): &mut (Result<WriteBatch, EleosError>, u64), lpid, p| {
                *payload_bytes += p.len() as u64;
                if let Ok(b) = batch {
                    if let Err(e) = b.put(lpid, p) {
                        *batch = Err(e);
                    }
                }
            },
        )?;
        if r.remaining() != 0 {
            return None; // trailing garbage
        }
        Some(Request::Write(WireWrite { sid, wsn, batch, payload_bytes }))
    }
}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Bytes land in one buffer — straight from the socket via
/// [`FrameReader::read_from`], or copied in by [`FrameReader::feed`] — and
/// frames are decoded in place behind a cursor; the unconsumed tail moves
/// to the front only when the buffer runs out of room. Any split works,
/// including mid-header. Malformed input is *sticky*: once a stream
/// produced garbage there is no way to resynchronize a length-prefixed
/// protocol, so every later call keeps returning [`FrameStep::Malformed`]
/// and the server closes the connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
    /// End of the received bytes; `buf[end..]` is free room.
    end: usize,
    poisoned: Option<&'static str>,
}

/// One step of incremental decoding: a [`Frame`] from
/// [`FrameReader::next_frame`], a [`Request`] from
/// [`FrameReader::next_request`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStep<F = Frame> {
    /// A complete, well-formed frame.
    Frame(F),
    /// The buffer holds no complete frame yet.
    NeedMore,
    /// The stream is garbage; close the connection.
    Malformed(&'static str),
}

/// Room [`FrameReader::read_from`] offers the socket per read, at least;
/// also the size of a new reader's buffer, enough for a request/response
/// stream of small frames (a larger frame grows it on arrival).
const READ_ROOM: usize = 16 * 1024;
/// Least size a buffer grows to once frames outgrow it, so the unconsumed
/// tail slides to the front once every several frames, not every read.
const GROWN_BUF: usize = 512 * 1024;

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw socket bytes.
    pub fn feed(&mut self, data: &[u8]) {
        if self.poisoned.is_none() {
            self.make_room(data.len());
            self.buf[self.end..self.end + data.len()].copy_from_slice(data);
            self.end += data.len();
        }
    }

    /// One `read` from `src` straight into the buffer; returns its byte
    /// count (0 = end of stream). Bytes read after the stream was poisoned
    /// are discarded.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.make_room(READ_ROOM);
        let n = src.read(&mut self.buf[self.end..])?;
        if self.poisoned.is_none() {
            self.end += n;
        }
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Try to decode the next frame from the buffer.
    pub fn next_frame(&mut self) -> FrameStep {
        self.next_with(Frame::decode_body)
    }

    /// Try to decode the next client request, building write batches in
    /// page mode `mode` ([`Request::decode_body`]).
    pub fn next_request(&mut self, mode: PageMode) -> FrameStep<Request> {
        self.next_with(|body| Request::decode_body(body, mode))
    }

    fn next_with<F>(&mut self, decode: impl FnOnce(&[u8]) -> Option<F>) -> FrameStep<F> {
        if let Some(why) = self.poisoned {
            return FrameStep::Malformed(why);
        }
        let Some(len) = self.frame_len() else {
            return FrameStep::NeedMore;
        };
        if len == 0 || len > MAX_FRAME {
            return self.poison("frame length out of range");
        }
        if self.buffered() < 4 + len {
            return FrameStep::NeedMore;
        }
        let body = self.start + 4..self.start + 4 + len;
        self.start = body.end;
        let frame = decode(&self.buf[body]);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        match frame {
            Some(f) => FrameStep::Frame(f),
            None => self.poison("undecodable frame body"),
        }
    }

    /// The declared length of the next frame, once its prefix is in.
    fn frame_len(&self) -> Option<usize> {
        (self.buffered() >= 4).then(|| {
            u32::from_le_bytes(self.buf[self.start..self.start + 4].try_into().unwrap()) as usize
        })
    }

    /// Make `want` bytes of free room after `end`, and room for the whole
    /// frame whose prefix is buffered: slide the unconsumed tail to the
    /// front, and grow the buffer if that is not enough.
    fn make_room(&mut self, want: usize) {
        let held = self.buffered();
        let frame = self.frame_len().map_or(0, |len| 4 + len.min(MAX_FRAME));
        let need = want.max(frame.saturating_sub(held));
        if self.buf.len() - self.end >= need {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.start = 0;
        self.end = held;
        if self.buf.len() - self.end < need {
            let size = if self.buf.is_empty() { need } else { GROWN_BUF.max(held + need) };
            self.buf.resize(size, 0);
        }
    }

    fn poison<F>(&mut self, why: &'static str) -> FrameStep<F> {
        self.poisoned = Some(why);
        self.start = 0;
        self.end = 0;
        FrameStep::Malformed(why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let wire = f.encode();
        let mut fr = FrameReader::new();
        fr.feed(&wire);
        assert_eq!(fr.next_frame(), FrameStep::Frame(f));
        assert_eq!(fr.next_frame(), FrameStep::NeedMore);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: PROTO_VERSION,
            sid: 0,
        });
        roundtrip(Frame::WriteBatch {
            sid: 9,
            wsn: 3,
            pages: vec![(1, vec![0xAA; 100]), (2, Vec::new())],
        });
        roundtrip(Frame::ReadBatch {
            lpids: vec![1, 2, 3],
        });
        roundtrip(Frame::DeleteBatch { lpids: vec![7] });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::HelloOk {
            sid: 42,
            highest_wsn: 17,
        });
        roundtrip(Frame::Ack {
            sid: 42,
            highest_wsn: 17,
            group: 3,
        });
        roundtrip(Frame::ReadResp {
            pages: vec![Some(vec![1, 2, 3]), None],
        });
        roundtrip(Frame::DeleteOk);
        roundtrip(Frame::Err {
            code: ERR_BAD_REQUEST,
            detail: "nope".into(),
        });
        roundtrip(Frame::ShutdownOk);
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles() {
        let f = Frame::WriteBatch {
            sid: 1,
            wsn: 1,
            pages: vec![(5, vec![7; 33])],
        };
        let wire = f.encode();
        let mut fr = FrameReader::new();
        for &b in &wire[..wire.len() - 1] {
            fr.feed(&[b]);
            assert_eq!(fr.next_frame(), FrameStep::NeedMore);
        }
        fr.feed(&wire[wire.len() - 1..]);
        assert_eq!(fr.next_frame(), FrameStep::Frame(f));
    }

    #[test]
    fn read_from_slides_and_grows_the_buffer() {
        // Frames of 1 B to ~1.2 MiB, several buffers' worth in total, read
        // in chunks that straddle frame boundaries: the unconsumed tail
        // slides to the front and the buffer grows for the large frames.
        let frames: Vec<Frame> = (0..40u64)
            .map(|k| Frame::WriteBatch {
                sid: 1,
                wsn: k,
                pages: vec![(k, vec![k as u8; (k as usize * 31_337) % (1_200_000 + 1)])],
            })
            .collect();
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let mut src = &wire[..];
        let mut chunks = [1usize, 70_000, 3, 300_000, 9_999].iter().cycle();
        let mut fr = FrameReader::new();
        let mut decoded = Vec::new();
        loop {
            let take = (*chunks.next().unwrap()).min(src.len());
            let mut chunk = &src[..take];
            if fr.read_from(&mut chunk).unwrap() == 0 {
                break;
            }
            src = &src[take - chunk.len()..];
            while let FrameStep::Frame(f) = fr.next_frame() {
                decoded.push(f);
            }
        }
        assert!(decoded == frames);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn oversized_length_poisons() {
        let mut fr = FrameReader::new();
        fr.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(fr.next_frame(), FrameStep::Malformed(_)));
        // Sticky: feeding more does not resurrect the stream.
        fr.feed(&Frame::Shutdown.encode());
        assert!(matches!(fr.next_frame(), FrameStep::Malformed(_)));
    }

    #[test]
    fn trailing_garbage_in_body_poisons() {
        let mut wire = Frame::Shutdown.encode();
        // Stretch the declared length and append a junk byte inside it.
        wire[0] += 1;
        wire.push(0xFF);
        let mut fr = FrameReader::new();
        fr.feed(&wire);
        assert!(matches!(fr.next_frame(), FrameStep::Malformed(_)));
    }

    #[test]
    fn write_batch_count_overflow_is_malformed() {
        let mut body = Vec::new();
        {
            let mut w = Writer(&mut body);
            w.u8(OP_WRITE_BATCH);
            w.u64(1);
            w.u64(1);
            w.u32(u32::MAX); // claims 4B entries, provides none
        }
        assert_eq!(Frame::decode_body(&body), None);
    }
}
