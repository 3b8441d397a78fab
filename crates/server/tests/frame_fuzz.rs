//! Frame-decoder robustness (ISSUE 10 satellite 1).
//!
//! Property: arbitrary byte-level splits, truncations, and garbage
//! prefixes never panic the decoder or corrupt controller state, whether
//! bytes are fed in or read straight from a socket-like source. A
//! malformed or half-received frame closes *that* connection cleanly —
//! losing only its unACKed batches — while other connections keep
//! serving. The server's direct-to-batch `WriteBatch` decode accepts
//! exactly what the `Frame` decoder accepts and yields the same pages.

use std::io::{self, Read, Write};

use eleos::batch::{parse_batch, ENTRY_HEADER};
use eleos::frontend::GroupCommitPolicy;
use eleos::types::{Lpid, MAP_PAGE_BASE};
use eleos::{Eleos, EleosConfig, PageMode, WriteBatch};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use eleos_server::proto::OP_WRITE_BATCH;
use eleos_server::{
    Client, Frame, FrameReader, FrameStep, Request, ServerHandle, MAX_FRAME, PROTO_VERSION,
};
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(version, sid)| Frame::Hello { version, sid }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)), 0..4)
        )
            .prop_map(|(sid, wsn, pages)| Frame::WriteBatch { sid, wsn, pages }),
        prop::collection::vec(any::<u64>(), 0..6).prop_map(|lpids| Frame::ReadBatch { lpids }),
        prop::collection::vec(any::<u64>(), 0..6).prop_map(|lpids| Frame::DeleteBatch { lpids }),
        Just(Frame::Shutdown),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(sid, highest_wsn, group)| Frame::Ack { sid, highest_wsn, group }),
    ]
}

/// A byte source whose reads return the next of `cuts` bytes (cycled),
/// capped by the caller's buffer and by the data left.
struct ChunkedReader<'a> {
    data: &'a [u8],
    cuts: std::iter::Cycle<std::slice::Iter<'a, usize>>,
}

impl<'a> ChunkedReader<'a> {
    fn new(data: &'a [u8], cuts: &'a [usize]) -> Self {
        ChunkedReader { data, cuts: cuts.iter().cycle() }
    }
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (*self.cuts.next().unwrap()).min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Read chunk sizes from one byte up to more than a whole maximal frame.
fn arb_read_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![3 => 1usize..48, 1 => 1usize..=MAX_FRAME + 4096], 1..12)
}

/// Decode every complete frame buffered; `true` once the stream is
/// malformed.
fn drain(fr: &mut FrameReader, decoded: &mut Vec<Frame>) -> bool {
    loop {
        match fr.next_frame() {
            FrameStep::Frame(f) => decoded.push(f),
            FrameStep::NeedMore => return false,
            FrameStep::Malformed(_) => return true,
        }
    }
}

fn arb_lpid() -> impl Strategy<Value = Lpid> {
    prop_oneof![0u64..1000, Just(MAP_PAGE_BASE), any::<u64>()]
}

fn arb_write_batch() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec((arb_lpid(), prop::collection::vec(any::<u8>(), 0..80)), 0..5),
    )
        .prop_map(|(sid, wsn, pages)| Frame::WriteBatch { sid, wsn, pages })
}

/// Frame bodies (length prefix stripped): valid `WriteBatch`es, the same
/// cut short, stretched, or with one byte changed, byte soup behind the
/// `WriteBatch` opcode, byte soup, and the other frames.
fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    let body = |f: Frame| f.encode()[4..].to_vec();
    prop_oneof![
        arb_write_batch().prop_map(body),
        (arb_write_batch(), any::<usize>(), any::<u8>(), 0..3u8).prop_map(
            move |(f, at, byte, how)| {
                let mut b = body(f);
                let i = at % b.len();
                match how {
                    0 => b.truncate(i),
                    1 => b.push(byte),
                    _ => b[i] ^= byte | 1,
                }
                b
            }
        ),
        prop::collection::vec(any::<u8>(), 0..96).prop_map(|mut b| {
            b.insert(0, OP_WRITE_BATCH);
            b
        }),
        prop::collection::vec(any::<u8>(), 0..96),
        arb_frame().prop_map(body),
    ]
}

fn arb_mode() -> impl Strategy<Value = PageMode> {
    prop_oneof![
        Just(PageMode::Variable),
        Just(PageMode::Fixed(64)),
        Just(PageMode::Fixed(4096)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure decoder fuzz: any byte soup, fed in any chunking, never
    /// panics; once malformed, the stream stays malformed.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        data in prop::collection::vec(any::<u8>(), 0..512),
        cuts in prop::collection::vec(1usize..64, 1..16),
    ) {
        let mut fr = FrameReader::new();
        let mut pos = 0;
        let mut poisoned = false;
        let mut cut_iter = cuts.iter().cycle();
        while pos < data.len() {
            let n = (*cut_iter.next().unwrap()).min(data.len() - pos);
            fr.feed(&data[pos..pos + n]);
            pos += n;
            loop {
                match fr.next_frame() {
                    FrameStep::Frame(_) => prop_assert!(!poisoned, "frame after poison"),
                    FrameStep::NeedMore => break,
                    FrameStep::Malformed(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
        }
    }

    /// Well-formed frames survive any split pattern; appending garbage
    /// after a valid prefix yields exactly the prefix, then Malformed.
    #[test]
    fn valid_frames_decode_across_any_split_then_garbage_poisons(
        frames in prop::collection::vec(arb_frame(), 1..6),
        cuts in prop::collection::vec(1usize..48, 1..12),
        garbage in prop::collection::vec(any::<u8>(), 1..32),
        truncate_last in any::<bool>(),
        read_cuts in arb_read_cuts(),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let full_frames = if truncate_last {
            wire.truncate(wire.len() - 1);
            frames.len() - 1
        } else {
            frames.len()
        };
        // A truncated tail is indistinguishable from "more bytes coming";
        // garbage after it must NOT produce a frame beyond the prefix.
        wire.extend_from_slice(&garbage);

        // Both feeding modes see the same stream: bytes fed in by the
        // caller, and bytes the decoder reads from the source itself.
        for via_read_from in [false, true] {
            let mut fr = FrameReader::new();
            let mut decoded = Vec::new();
            let mut dead = false;
            if via_read_from {
                let mut src = ChunkedReader::new(&wire, &read_cuts);
                while !dead && fr.read_from(&mut src).unwrap() > 0 {
                    dead = drain(&mut fr, &mut decoded);
                }
            } else {
                let mut pos = 0;
                let mut cut_iter = cuts.iter().cycle();
                while pos < wire.len() && !dead {
                    let n = (*cut_iter.next().unwrap()).min(wire.len() - pos);
                    fr.feed(&wire[pos..pos + n]);
                    pos += n;
                    dead = drain(&mut fr, &mut decoded);
                }
            }
            if dead {
                // Poison is sticky: a valid frame arriving after it never
                // decodes, and its bytes are not kept.
                let valid = Frame::Shutdown.encode();
                if via_read_from {
                    prop_assert_eq!(fr.read_from(&mut &valid[..]).unwrap(), valid.len());
                } else {
                    fr.feed(&valid);
                }
                prop_assert!(matches!(fr.next_frame(), FrameStep::Malformed(_)));
                prop_assert_eq!(fr.buffered(), 0);
            }
            // Every frame of the intact prefix decodes bit-exactly, in order.
            // (Bytes *after* the prefix are unprotected garbage: a truncated
            // tail merged with junk may parse as some frame — TCP integrity,
            // not the length-prefix framing, is what rules that out in
            // practice — so only the intact prefix is asserted on.)
            for (d, f) in decoded.iter().zip(&frames).take(full_frames) {
                prop_assert_eq!(d, f);
            }
            // With no truncation every encoded frame must come through before
            // the garbage can poison the stream.
            if !truncate_last {
                prop_assert!(decoded.len() >= full_frames);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One `WriteBatch` grammar: the server's direct-to-batch decode
    /// accepts exactly the bodies the `Frame` decoder accepts, and the
    /// batch it builds parses back to the frame's `(lpid, payload)` list —
    /// or refuses the first page `WriteBatch::put` refuses.
    #[test]
    fn request_decode_agrees_with_frame_decode(body in arb_body(), mode in arb_mode()) {
        let frame = Frame::decode_body(&body);
        let request = Request::decode_body(&body, mode);
        prop_assert_eq!(frame.is_some(), request.is_some());
        match (frame, request) {
            (Some(Frame::WriteBatch { sid, wsn, pages }), Some(Request::Write(w))) => {
                prop_assert_eq!((w.sid, w.wsn), (sid, wsn));
                let payload: usize = pages.iter().map(|(_, p)| p.len()).sum();
                prop_assert_eq!(w.payload_bytes, payload as u64);
                let mut reference = WriteBatch::new(mode);
                let refused = pages.iter().find_map(|(l, p)| reference.put(*l, p).err());
                match w.batch {
                    Err(e) => prop_assert_eq!(Some(e), refused),
                    Ok(batch) => {
                        prop_assert_eq!(refused, None);
                        prop_assert_eq!(batch.as_bytes(), reference.as_bytes());
                        if pages.is_empty() {
                            prop_assert!(batch.is_empty());
                        } else {
                            let bytes = batch.as_bytes();
                            let parsed: Vec<(Lpid, Vec<u8>)> = parse_batch(bytes, mode)
                                .unwrap()
                                .iter()
                                .map(|e| {
                                    let at = e.start + ENTRY_HEADER;
                                    (e.lpid, bytes[at..at + e.payload_len].to_vec())
                                })
                                .collect();
                            prop_assert_eq!(parsed, pages);
                        }
                    }
                }
            }
            (Some(f), Some(Request::Frame(g))) => {
                prop_assert!(!matches!(f, Frame::WriteBatch { .. }));
                prop_assert_eq!(f, g);
            }
            (None, None) => {}
            (f, r) => prop_assert!(false, "decoders disagree: {:?} vs {:?}", f, r),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A frame of exactly `MAX_FRAME` bytes decodes through `read_from`
    /// under any read chunking, between ordinary frames; garbage after it
    /// poisons the stream for good.
    #[test]
    fn max_size_frame_decodes_through_read_from(
        lead in prop::collection::vec(arb_frame(), 0..3),
        read_cuts in arb_read_cuts(),
    ) {
        let big = Frame::WriteBatch {
            sid: 1,
            wsn: 1,
            pages: vec![(7, vec![0xAB; MAX_FRAME - 33])],
        };
        let mut frames = lead;
        frames.push(big);
        frames.push(Frame::Shutdown);
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        prop_assert_eq!(frames[frames.len() - 2].encode().len(), 4 + MAX_FRAME);
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());

        let mut fr = FrameReader::new();
        let mut decoded = Vec::new();
        let mut dead = false;
        let mut src = ChunkedReader::new(&wire, &read_cuts);
        while !dead && fr.read_from(&mut src).unwrap() > 0 {
            dead = drain(&mut fr, &mut decoded);
        }
        prop_assert!(dead, "oversized length after the frames poisons");
        prop_assert!(decoded == frames, "every frame up to the garbage decodes");
        prop_assert_eq!(fr.read_from(&mut &Frame::Shutdown.encode()[..]).unwrap(), 5);
        prop_assert!(matches!(fr.next_frame(), FrameStep::Malformed(_)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: a connection spraying garbage (or truncated frames) is
    /// closed cleanly; a concurrent well-behaved client keeps writing and
    /// reading, and controller state is uncorrupted.
    #[test]
    fn malformed_connection_never_corrupts_live_server(
        garbage in prop::collection::vec(any::<u8>(), 1..256),
        after_valid_hello in any::<bool>(),
    ) {
        let ssd = Eleos::format(
            FlashDevice::new(Geometry::tiny(), CostProfile::unit()),
            EleosConfig::test_small(),
        )
        .unwrap();
        let handle = ServerHandle::spawn(ssd, GroupCommitPolicy::default(), "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        // Good client establishes durable state first.
        let mut good = Client::connect(addr).unwrap();
        good.write(vec![(1, vec![0xAA; 100])]).unwrap();
        good.wait_all_acked().unwrap();

        // Evil connection: optionally a valid Hello, then byte soup.
        {
            let mut evil = std::net::TcpStream::connect(addr).unwrap();
            if after_valid_hello {
                evil.write_all(&Frame::Hello { version: PROTO_VERSION, sid: 0 }.encode()).unwrap();
            }
            let _ = evil.write_all(&garbage);
            // Dropped here: whatever the server made of the soup, the
            // connection dies now.
        }

        // The good client is unaffected: more writes ACK durably and both
        // values read back exactly.
        good.write(vec![(2, vec![0xBB; 60])]).unwrap();
        good.wait_all_acked().unwrap();
        let got = good.read(vec![1, 2]).unwrap();
        prop_assert_eq!(got[0].as_deref(), Some(&[0xAA; 100][..]));
        prop_assert_eq!(got[1].as_deref(), Some(&[0xBB; 60][..]));

        let (mut ssd, _) = handle.shutdown();
        prop_assert_eq!(ssd.read(1).unwrap().as_ref(), &[0xAA; 100][..]);
        prop_assert_eq!(ssd.read(2).unwrap().as_ref(), &[0xBB; 60][..]);
        prop_assert!(ssd.snapshot().conservation_error().is_none());
    }
}
