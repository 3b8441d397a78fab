//! The three workloads: device configuration, set-up (format, preload,
//! warm-up), and the seeded per-session operation sequences.
//!
//! Every session owns the LPIDs of one residue class mod 2, so writes of
//! different sessions never touch the same LPID and the final state of
//! every LPID is known exactly.

use eleos::frontend::GroupCommitPolicy;
use eleos::{Controller, Eleos, EleosConfig, EleosError, Lpid, PageMode, WriteBatch};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use eleos_workloads::tpcc::{TpccTrace, TpccTraceConfig};
use eleos_workloads::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stamp::{self, mix};

/// 512 MB, 8 channels: the array every in-process perfbench entry uses.
pub fn geometry() -> Geometry {
    Geometry {
        channels: 8,
        eblocks_per_channel: 64,
        wblocks_per_eblock: 32,
        wblock_bytes: 32 * 1024,
        rblock_bytes: 4 * 1024,
    }
}

/// Share of raw flash exported to users (the gc_lab convention).
const EXPORT_FACTOR: f64 = 0.70;
/// `gc_churn` fills this share of exported capacity before timing.
const GC_FILL: f64 = 0.80;
/// Uniform page sizes of the preloads, `gc_churn` and `read_mix` writes.
const SMALL_PAGE: usize = 640;
const LARGE_PAGE: usize = 2048;
/// `read_mix` preload: LPIDs stored before timing.
const READ_MIX_LPIDS: u64 = 100_000;
/// TPC-C trace pages per session (two sessions: 100K LPIDs in all).
const TPCC_PAGES_PER_SESSION: u64 = 50_000;
/// `ReadBatch`es of the read-back phase.
const READBACK_BATCHES: u64 = 2048;

pub fn policy() -> GroupCommitPolicy {
    GroupCommitPolicy {
        max_queued_batches: 64,
        ..GroupCommitPolicy::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpccWrite,
    GcChurn,
    ReadMix,
}

/// One client request, generated before it is sent.
pub enum Op {
    /// A write batch: the pages and the `(lpid, version)` each carries.
    Write {
        pages: Vec<(Lpid, Vec<u8>)>,
        versions: Vec<(Lpid, u32)>,
    },
    /// A `ReadBatch` of these LPIDs.
    Read(Vec<Lpid>),
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TpccWrite, Workload::GcChurn, Workload::ReadMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccWrite => "tpcc_write",
            Workload::GcChurn => "gc_churn",
            Workload::ReadMix => "read_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Size of the LPID space the workload touches.
    pub fn lpids(self) -> u64 {
        match self {
            Workload::TpccWrite => 2 * TPCC_PAGES_PER_SESSION,
            Workload::GcChurn => {
                let mean = (SMALL_PAGE + LARGE_PAGE) as f64 / 2.0;
                (geometry().total_bytes() as f64 * EXPORT_FACTOR * GC_FILL / mean) as u64
            }
            Workload::ReadMix => READ_MIX_LPIDS,
        }
    }

    pub fn sessions(self) -> usize {
        match self {
            Workload::GcChurn => 1,
            Workload::TpccWrite | Workload::ReadMix => 2,
        }
    }

    /// Write batches a session may have sent but not seen ACKed.
    pub fn window(self) -> usize {
        match self {
            Workload::TpccWrite => 16,
            Workload::GcChurn | Workload::ReadMix => 4,
        }
    }

    /// Requests per session in one round: a fixed count, not a time bound.
    pub fn ops_per_session(self) -> usize {
        match self {
            Workload::TpccWrite => 2_000,
            Workload::GcChurn => 160,
            Workload::ReadMix => 3_000,
        }
    }

    pub fn config(self) -> EleosConfig {
        let (ckpt_log_bytes, mapping_cache_pages) = match self {
            Workload::TpccWrite => (64 << 20, 1024),
            Workload::GcChurn => (16 << 20, 1024),
            Workload::ReadMix => (16 << 20, 128),
        };
        EleosConfig {
            max_user_lpid: self.lpids() + 1,
            ckpt_log_bytes,
            mapping_cache_pages,
            ..EleosConfig::default()
        }
    }

    /// Format a fresh device and load it: returns the controller and the
    /// version of every LPID it now stores (0 = never written).
    pub fn setup(self, seed: u64) -> Result<(Eleos, Vec<u32>), EleosError> {
        let dev = FlashDevice::new(geometry(), CostProfile::high_end_cpu());
        let mut ssd = Eleos::format(dev, self.config())?;
        let mut versions = vec![0u32; self.lpids() as usize];
        if matches!(self, Workload::GcChurn | Workload::ReadMix) {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x9E10AD));
            let mut batch = WriteBatch::new(PageMode::Variable);
            for lpid in 0..self.lpids() {
                let len = rng.gen_range(SMALL_PAGE..=LARGE_PAGE);
                batch.put(lpid, &stamp::stamp(lpid, 1, len))?;
                versions[lpid as usize] = 1;
                if batch.wire_len() >= 256 * 1024 {
                    Controller::write(&mut ssd, &batch)?;
                    batch = WriteBatch::new(PageMode::Variable);
                }
            }
            if !batch.is_empty() {
                Controller::write(&mut ssd, &batch)?;
            }
        }
        if self == Workload::ReadMix {
            // Warm the mapping cache with the reads' own key distribution.
            let zipf = Zipfian::new(self.lpids(), 0.99);
            let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x3A4));
            for _ in 0..1_000 {
                let lpids: Vec<Lpid> = (0..32).map(|_| zipf.next_scrambled(&mut rng)).collect();
                ssd.read_batch(&lpids)?;
            }
        }
        ssd.drain();
        Ok((ssd, versions))
    }

    /// The seeded operation sequence of session `s` (of
    /// [`Workload::sessions`]). `versions` is the state after set-up; the
    /// generator keeps its own copy of the session's residue class.
    pub fn ops(self, seed: u64, s: usize, versions: &[u32]) -> Box<dyn Iterator<Item = Op> + Send> {
        let s64 = s as u64;
        let mut rng = StdRng::seed_from_u64(mix(seed ^ (0x5E55 + s64)));
        let mut ver: Vec<u32> = versions.to_vec();
        let mut bump = move |lpid: Lpid| {
            let v = &mut ver[lpid as usize];
            *v += 1;
            *v
        };
        let n = self.ops_per_session();
        match self {
            Workload::TpccWrite => {
                let mut trace = TpccTrace::new(TpccTraceConfig {
                    pages: TPCC_PAGES_PER_SESSION,
                    seed: mix(seed ^ (0x7BCC + s64)),
                    ..TpccTraceConfig::default()
                });
                Box::new((0..n).map(move |_| {
                    let mut b = WriteFrame::default();
                    while b.bytes < 64 * 1024 {
                        let w = trace.next().expect("the trace is infinite");
                        let lpid = 2 * w.lpid + s64;
                        b.put(lpid, bump(lpid), (w.len as usize).max(stamp::HEADER));
                    }
                    b.finish()
                }))
            }
            Workload::GcChurn => {
                let lpids = self.lpids();
                Box::new((0..n).map(move |_| {
                    let mut b = WriteFrame::default();
                    while b.bytes < 1024 * 1024 {
                        let lpid = rng.gen_range(0..lpids);
                        b.put(lpid, bump(lpid), rng.gen_range(SMALL_PAGE..=LARGE_PAGE));
                    }
                    b.finish()
                }))
            }
            Workload::ReadMix => {
                let zipf = Zipfian::new(self.lpids(), 0.99);
                // One write in every ten requests, at a seeded position, so
                // every round writes the same number of batches.
                let mut write_at = 0;
                Box::new((0..n).map(move |i| {
                    if i % 10 == 0 {
                        write_at = i + rng.gen_range(0..10);
                    }
                    if i != write_at {
                        Op::Read((0..32).map(|_| zipf.next_scrambled(&mut rng)).collect())
                    } else {
                        let mut b = WriteFrame::default();
                        while b.bytes < 16 * 1024 {
                            let lpid = (zipf.next_scrambled(&mut rng) & !1) | s64;
                            b.put(lpid, bump(lpid), rng.gen_range(SMALL_PAGE..=LARGE_PAGE));
                        }
                        b.finish()
                    }
                }))
            }
        }
    }

    /// Session `part` of `parts` in the read phase of the write-only
    /// workloads, sent once every write is ACKed: together the sessions
    /// read [`READBACK_BATCHES`] runs of 32 consecutive LPIDs spread evenly
    /// over the LPID space, each session every `parts`-th run. (Every LPID
    /// is checked again in-process after recovery.)
    pub fn readback_ops(self, part: usize, parts: usize) -> Box<dyn Iterator<Item = Op> + Send> {
        let n = self.lpids();
        let stride = (n / READBACK_BATCHES).max(32);
        Box::new(
            (0..READBACK_BATCHES)
                .map(move |i| i * stride)
                .take_while(move |&start| start < n)
                .skip(part)
                .step_by(parts)
                .map(move |start| Op::Read((start..n.min(start + 32)).collect())),
        )
    }
}

#[derive(Default)]
struct WriteFrame {
    pages: Vec<(Lpid, Vec<u8>)>,
    versions: Vec<(Lpid, u32)>,
    bytes: usize,
}

impl WriteFrame {
    fn put(&mut self, lpid: Lpid, ver: u32, len: usize) {
        self.pages.push((lpid, stamp::stamp(lpid, ver, len)));
        self.versions.push((lpid, ver));
        self.bytes += len;
    }

    fn finish(self) -> Op {
        Op::Write {
            pages: self.pages,
            versions: self.versions,
        }
    }
}
