//! One client session: sends its operation sequence through an unmodified
//! [`eleos_server::Client`], times every request, and checks every read.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use eleos::{Lpid, Sid, Wsn};
use eleos_server::{Client, Frame};

use crate::stamp;
use crate::workload::Op;

/// Frames a traced session keeps for the codec replay, by encoded bytes.
const REPLAY_BUDGET: usize = 16 << 20;
/// Violations kept verbatim for the report (each also counts as a failed
/// request).
const KEEP_VIOLATIONS: usize = 8;

/// Per-LPID versions shared by all sessions of a round. A session stores
/// `sent` before a write leaves and `acked` once it sees the covering
/// ACK, so a reader can bound the version any read may return.
pub struct Versions {
    pub sent: Vec<AtomicU32>,
    pub acked: Vec<AtomicU32>,
}

impl Versions {
    pub fn new(initial: &[u32]) -> Versions {
        let v = || initial.iter().map(|&x| AtomicU32::new(x)).collect();
        Versions {
            sent: v(),
            acked: v(),
        }
    }
}

/// One client request as the client saw it, keyed by session and WSN
/// (writes) or by the session's read sequence number (reads).
pub struct ClientSpan {
    pub sid: Sid,
    pub write: bool,
    pub seq: u64,
    pub start: Instant,
    pub end: Instant,
    pub pages: u64,
}

/// Everything one session measured.
#[derive(Default)]
pub struct SessionOut {
    pub sid: Sid,
    pub attempted: u64,
    /// Requests that failed, were refused, or returned wrong data.
    pub failed: u64,
    pub violations: Vec<String>,
    pub ack_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub pages_acked: u64,
    pub bytes_acked: u64,
    pub pages_read: u64,
    pub spans: Vec<ClientSpan>,
    pub frames: Vec<Frame>,
    trace: bool,
    replay_bytes: usize,
}

impl SessionOut {
    fn violation(&mut self, what: String) {
        if self.violations.len() < KEEP_VIOLATIONS {
            self.violations.push(what);
        }
    }

    fn keep_frame(&mut self, bytes: usize, f: impl FnOnce() -> Frame) {
        if self.trace && self.replay_bytes + bytes <= REPLAY_BUDGET {
            self.replay_bytes += bytes;
            self.frames.push(f());
        }
    }
}

struct Pending {
    wsn: Wsn,
    sent_at: Instant,
    versions: Vec<(Lpid, u32)>,
    bytes: u64,
}

/// Run `ops` on `client` with at most `window` unACKed write batches,
/// then wait for every ACK.
pub fn drive(
    client: &mut Client,
    ops: impl Iterator<Item = Op>,
    window: usize,
    shared: &Versions,
    trace: bool,
) -> SessionOut {
    let mut out = SessionOut {
        sid: client.sid(),
        trace,
        ..SessionOut::default()
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut reads = 0u64;
    let mut completed = 0u64;
    let result = (|| -> io::Result<()> {
        for op in ops {
            out.attempted += 1;
            match op {
                Op::Write { pages, versions } => {
                    while client.unacked() >= window {
                        let oldest = pending.front().map_or(0, |p| p.wsn);
                        client.wait_acked(oldest)?;
                        completed += settle(client, &mut pending, shared, &mut out);
                    }
                    for &(lpid, v) in &versions {
                        shared.sent[lpid as usize].store(v, Ordering::SeqCst);
                    }
                    let bytes: usize = pages.iter().map(|(_, p)| p.len()).sum();
                    let kept = trace.then(|| pages.clone());
                    let sent_at = Instant::now();
                    let wsn = client.write(pages)?;
                    let sid = out.sid;
                    out.keep_frame(bytes, || Frame::WriteBatch {
                        sid,
                        wsn,
                        pages: kept.expect("pages kept when tracing"),
                    });
                    pending.push_back(Pending {
                        wsn,
                        sent_at,
                        versions,
                        bytes: bytes as u64,
                    });
                }
                Op::Read(lpids) => {
                    let lo: Vec<u32> = lpids
                        .iter()
                        .map(|&l| shared.acked[l as usize].load(Ordering::SeqCst))
                        .collect();
                    let start = Instant::now();
                    let pages = client.read(lpids.clone())?;
                    let end = Instant::now();
                    out.read_ns.push((end - start).as_nanos() as u64);
                    completed += settle(client, &mut pending, shared, &mut out);
                    let hi: Vec<u32> = lpids
                        .iter()
                        .map(|&l| shared.sent[l as usize].load(Ordering::SeqCst))
                        .collect();
                    let ok = check_read(&lpids, &pages, &lo, &hi, &mut out);
                    completed += u64::from(ok);
                    out.pages_read += pages.iter().filter(|p| p.is_some()).count() as u64;
                    if trace {
                        out.spans.push(ClientSpan {
                            sid: out.sid,
                            write: false,
                            seq: reads,
                            start,
                            end,
                            pages: lpids.len() as u64,
                        });
                        let bytes =
                            pages.iter().flatten().map(Vec::len).sum::<usize>() + 8 * lpids.len();
                        out.keep_frame(bytes, || Frame::ReadBatch { lpids });
                        out.keep_frame(0, || Frame::ReadResp { pages });
                    }
                    reads += 1;
                }
            }
        }
        client.wait_all_acked()?;
        completed += settle(client, &mut pending, shared, &mut out);
        Ok(())
    })();
    if let Err(e) = result {
        out.violation(format!("session {}: {e}", out.sid));
    }
    out.failed = out.attempted - completed.min(out.attempted);
    if trace {
        out.spans.sort_by_key(|s| s.start);
    }
    out
}

/// Retire every pending write the client has seen ACKed; returns how many.
fn settle(
    client: &Client,
    pending: &mut VecDeque<Pending>,
    shared: &Versions,
    out: &mut SessionOut,
) -> u64 {
    let highest = client.highest_acked();
    let now = Instant::now();
    let mut n = 0;
    while pending.front().is_some_and(|p| p.wsn <= highest) {
        let p = pending.pop_front().expect("front exists");
        out.ack_ns.push((now - p.sent_at).as_nanos() as u64);
        out.pages_acked += p.versions.len() as u64;
        out.bytes_acked += p.bytes;
        for &(lpid, v) in &p.versions {
            shared.acked[lpid as usize].fetch_max(v, Ordering::SeqCst);
        }
        n += 1;
        if out.trace {
            out.spans.push(ClientSpan {
                sid: out.sid,
                write: true,
                seq: p.wsn,
                start: p.sent_at,
                end: now,
                pages: p.versions.len() as u64,
            });
        }
    }
    n
}

/// A read is correct when every page is intact and its version lies
/// between the last ACK seen before the request (`lo`) and the last write
/// sent after the response (`hi`). Once every write is ACKed the two meet,
/// and the check demands the exact last version.
fn check_read(
    lpids: &[Lpid],
    pages: &[Option<Vec<u8>>],
    lo: &[u32],
    hi: &[u32],
    out: &mut SessionOut,
) -> bool {
    if pages.len() != lpids.len() {
        out.violation(format!(
            "read of {} lpids returned {} pages",
            lpids.len(),
            pages.len()
        ));
        return false;
    }
    let mut ok = true;
    for (((&lpid, page), &lo), &hi) in lpids.iter().zip(pages).zip(lo).zip(hi) {
        let got = match page {
            None => Ok(0),
            Some(p) => stamp::check(lpid, p),
        };
        match got {
            Ok(v) if (lo..=hi).contains(&v) => {}
            Ok(v) => {
                ok = false;
                out.violation(format!(
                    "lpid {lpid}: read version {v}, expected {lo}..={hi}"
                ));
            }
            Err(e) => {
                ok = false;
                out.violation(e);
            }
        }
    }
    ok
}
