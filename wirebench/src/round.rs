//! One round: set up, serve a fixed operation count over loopback, read
//! back, shut down with a drain, crash, recover, and check everything.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use eleos::{Controller, Eleos, EleosError, MergedSnapshot};
use eleos_flash::{Activity, LatencyHistogram, SpanKind};
use eleos_server::{Client, Frame, NetStats, ServerHandle};

use crate::probe::{replay_codec, CtlOp, CtlSpan, Probe};
use crate::session::{self, ClientSpan, SessionOut, Versions};
use crate::stamp;
use crate::workload::{self, Op, Workload};

/// What one round measured: one value per metric name.
#[derive(Default)]
pub struct RoundOut {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Traced rounds only: one JSON object per span.
    pub spans_jsonl: String,
}

impl RoundOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }

    fn absorb(&mut self, s: &SessionOut) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        for v in &s.violations {
            if self.violations.len() < 16 {
                self.violations.push(v.clone());
            }
        }
    }
}

fn snapshot_of(ssd: &Eleos) -> MergedSnapshot {
    Controller::snapshot(ssd)
}

/// Run one round of `w` with controller probe `P`.
pub fn run<P: Probe>(w: Workload, seed: u64, trace: bool) -> Result<RoundOut, String> {
    let err = |what: &'static str| move |e: EleosError| format!("{what}: {e}");
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let mut out = RoundOut::default();

    // ---- set-up: format, preload, warm-up, spawn, connect ----
    let setup_t = Instant::now();
    let (ssd, initial) = w.setup(seed).map_err(err("set-up"))?;
    let before = snapshot_of(&ssd);
    let handle = ServerHandle::spawn(P::wrap(ssd), workload::policy(), "127.0.0.1:0")
        .map_err(io("spawn"))?;
    let addr = handle.addr();
    let mut clients = (0..w.sessions())
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<Client>>>()
        .map_err(io("connect"))?;
    out.e2e.insert("setup_s", setup_t.elapsed().as_secs_f64());
    let shared = Versions::new(&initial);

    // ---- timed window ----
    let ops = (0..clients.len())
        .map(|s| w.ops(seed, s, &initial))
        .collect();
    let (sessions, t0, t1) = run_sessions(&mut clients, ops, w.window(), &shared, trace);
    let window = t1 - t0;
    out.window_s = window.as_secs_f64();
    drop(clients);
    let (served, net) = handle.shutdown();
    let (ssd, ctl_spans) = served.unwrap();
    let after = snapshot_of(&ssd);

    let mut sess = sessions;
    for s in &sess {
        out.absorb(s);
    }
    if net.reacks != 0 {
        out.fail(format!(
            "{} re-ACKs: the server refused in-order writes",
            net.reacks
        ));
    }

    // ---- read phase of the write-only workloads: read back over the wire ----
    let (ssd, read_spans, read_wall) = if w == Workload::ReadMix {
        (ssd, Vec::new(), window)
    } else {
        let handle = ServerHandle::spawn(P::wrap(ssd), workload::policy(), "127.0.0.1:0")
            .map_err(io("respawn"))?;
        let mut readers = (0..READ_SESSIONS)
            .map(|_| Client::connect(handle.addr()))
            .collect::<std::io::Result<Vec<Client>>>()
            .map_err(io("connect"))?;
        let ops = (0..READ_SESSIONS)
            .map(|s| w.readback_ops(s, READ_SESSIONS))
            .collect();
        let (rb, start, end) = run_sessions(&mut readers, ops, w.window(), &shared, trace);
        drop(readers);
        let (served, _) = handle.shutdown();
        let (ssd, spans) = served.unwrap();
        for s in rb {
            out.absorb(&s);
            sess.push(s);
        }
        (ssd, spans, end - start)
    };

    // ---- crash and recover: every ACKed write must survive ----
    let cfg = w.config();
    let now_before = ssd.host_now();
    let devs = Controller::crash(ssd);
    let t = Instant::now();
    let mut recovered = <Eleos as Controller>::recover(devs, &cfg).map_err(err("recover"))?;
    let recovery_host = t.elapsed();
    let recovery_sim_ns = recovered.host_now() - now_before;
    verify_recovered(&mut recovered, &shared, &mut out);
    for (what, snap) in [("window", &after), ("recovered", &snapshot_of(&recovered))] {
        if let Some(e) = snap.conservation_error() {
            out.fail(format!("{what}: ledger conservation broken: {e}"));
        }
    }

    // ---- end-to-end metrics ----
    let sum = |f: fn(&SessionOut) -> u64| sess.iter().map(f).sum::<u64>();
    let d = Delta {
        before: &before,
        after: &after,
    };
    let bytes_acked = sum(|s| s.bytes_acked) as f64;
    out.e2e.insert(
        "write_pages_per_s",
        sum(|s| s.pages_acked) as f64 / window.as_secs_f64(),
    );
    out.e2e.insert(
        "read_pages_per_s",
        sum(|s| s.pages_read) as f64 / read_wall.as_secs_f64(),
    );
    let sim_s = d.now_ns() as f64 / 1e9;
    out.e2e.insert(
        "sim_pages_per_s",
        (d.eleos(|e| e.lpages) + d.eleos(|e| e.reads)) as f64 / sim_s,
    );
    out.e2e.insert(
        "write_amp",
        d.flash(|f| f.bytes_programmed) as f64 / bytes_acked,
    );
    out.e2e
        .insert("recovery_sim_ms", recovery_sim_ns as f64 / 1e6);
    let mut ack_ns: Vec<u64> = sess.iter().flat_map(|s| s.ack_ns.iter().copied()).collect();
    let mut read_ns: Vec<u64> = sess
        .iter()
        .flat_map(|s| s.read_ns.iter().copied())
        .collect();
    let us = |samples: &mut [u64], q: f64| percentile(samples, q) as f64 / 1e3;
    out.e2e.insert("write_ack_p50_us", us(&mut ack_ns, 0.50));
    out.e2e.insert("write_ack_p99_us", us(&mut ack_ns, 0.99));
    out.e2e.insert("read_p50_us", us(&mut read_ns, 0.50));
    out.e2e.insert("read_p99_us", us(&mut read_ns, 0.99));

    // ---- per-layer metrics (traced rounds) ----
    if trace {
        let frames: Vec<Frame> = sess
            .iter_mut()
            .flat_map(|s| std::mem::take(&mut s.frames))
            .collect();
        let read_phase = if w == Workload::ReadMix {
            &ctl_spans
        } else {
            &read_spans
        };
        layer_metrics(
            &mut out.layer,
            &d,
            &net,
            &ctl_spans,
            read_phase,
            window,
            &frames,
            w.sessions(),
        );
        out.layer
            .insert("recovery.host_ms", recovery_host.as_secs_f64() * 1e3);
        out.spans_jsonl = spans_jsonl(t0, &sess, &ctl_spans, &read_spans);
    }
    Ok(out)
}

/// Sessions of the read-back phase: two, like the window of `read_mix`,
/// so one preempted client does not stall the whole phase.
const READ_SESSIONS: usize = 2;

type Ops = Box<dyn Iterator<Item = Op> + Send>;

/// Run one session per client on its own thread, all released together;
/// returns each session's record and the first start and last end.
fn run_sessions(
    clients: &mut [Client],
    ops: Vec<Ops>,
    window: usize,
    shared: &Versions,
    trace: bool,
) -> (Vec<SessionOut>, Instant, Instant) {
    let barrier = Barrier::new(clients.len());
    let timed: Vec<(SessionOut, Instant, Instant)> = std::thread::scope(|sc| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(ops)
            .map(|(client, ops)| {
                let barrier = &barrier;
                sc.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let o = session::drive(client, ops, window, shared, trace);
                    (o, start, Instant::now())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = timed
        .iter()
        .map(|t| t.1)
        .min()
        .expect("at least one session");
    let end = timed
        .iter()
        .map(|t| t.2)
        .max()
        .expect("at least one session");
    (timed.into_iter().map(|t| t.0).collect(), start, end)
}

/// Read every LPID of the recovered controller in-process and compare
/// with the last version written (all writes were ACKed before the
/// drained shutdown).
fn verify_recovered(ssd: &mut Eleos, shared: &Versions, out: &mut RoundOut) {
    use std::sync::atomic::Ordering;
    for (lpid, v) in shared.sent.iter().enumerate() {
        let lpid = lpid as u64;
        let want = v.load(Ordering::SeqCst);
        let got = match Controller::read(ssd, lpid) {
            Ok(b) => stamp::check(lpid, &b),
            Err(EleosError::NotFound(_)) => Ok(0),
            Err(e) => Err(format!("lpid {lpid}: read after recovery failed: {e}")),
        };
        if got != Ok(want) {
            out.fail(format!(
                "after recovery lpid {lpid}: {got:?}, expected version {want}"
            ));
        }
    }
}

/// Timed-window differences of two snapshots.
struct Delta<'a> {
    before: &'a MergedSnapshot,
    after: &'a MergedSnapshot,
}

impl Delta<'_> {
    fn now_ns(&self) -> u64 {
        self.after.now() - self.before.now()
    }

    fn eleos(&self, f: fn(&eleos::EleosStats) -> u64) -> u64 {
        f(&self.after.eleos()) - f(&self.before.eleos())
    }

    fn flash(&self, f: fn(&eleos_flash::FlashStats) -> u64) -> u64 {
        f(&self.after.flash()) - f(&self.before.flash())
    }

    fn map(&self, f: fn(&eleos::MapCacheStats) -> u64) -> u64 {
        f(&self.after.map_cache()) - f(&self.before.map_cache())
    }

    fn busy_ms(&self, a: Activity) -> f64 {
        (self.after.activity_busy_ns(a) - self.before.activity_busy_ns(a)) as f64 / 1e6
    }

    fn channel_busy_ns(&self) -> u64 {
        let sum = |s: &MergedSnapshot| s.flash().channel_busy_ns.iter().sum::<u64>();
        sum(self.after) - sum(self.before)
    }

    /// p99 of the spans recorded inside the window, in µs.
    fn span_p99_us(&self, kind: SpanKind) -> f64 {
        let mut window = window_samples(&self.before.span(kind), &self.after.span(kind));
        percentile(&mut window, 0.99) as f64 / 1e3
    }
}

/// The samples of `after` that `before` does not hold, at the histogram's
/// bucket resolution: a histogram of `n` samples is expanded rank by rank
/// into its sorted bucket values, and the two sorted lists are differenced.
fn window_samples(before: &LatencyHistogram, after: &LatencyHistogram) -> Vec<u64> {
    let expand = |h: &LatencyHistogram| -> Vec<u64> {
        let n = h.count();
        (1..=n)
            .map(|r| h.quantile((r as f64 - 0.5) / n as f64))
            .collect()
    };
    let (b, a) = (expand(before), expand(after));
    let mut out = Vec::with_capacity(a.len().saturating_sub(b.len()));
    let mut bi = b.iter().peekable();
    for v in a {
        if bi.peek().is_some_and(|&&x| x == v) {
            bi.next();
        } else {
            out.push(v);
        }
    }
    out
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    d: &Delta,
    net: &NetStats,
    window_spans: &[CtlSpan],
    read_spans: &[CtlSpan],
    window: Duration,
    frames: &[Frame],
    sessions: usize,
) {
    let codec = replay_codec(frames);
    m.insert("proto.encode_ns_per_kb", codec.encode_ns_per_kb);
    m.insert("proto.decode_ns_per_kb", codec.decode_ns_per_kb);

    let ctl_ns: u64 = window_spans.iter().map(|s| s.busy_ns).sum();
    let window_ns = window.as_nanos() as f64;
    let frames_in = net.frames_in.saturating_sub(sessions as u64);
    m.insert("engine.ctl_busy_frac", ctl_ns as f64 / window_ns);
    m.insert(
        "engine.outside_ctl_us_per_frame",
        (window_ns - ctl_ns as f64) / frames_in.max(1) as f64 / 1e3,
    );
    m.insert("engine.frames_in", frames_in as f64);
    m.insert("engine.reacks", net.reacks as f64);

    let writes: Vec<&CtlSpan> = window_spans
        .iter()
        .filter(|s| s.op == CtlOp::Write)
        .collect();
    let groups = writes.len().max(1) as f64;
    let write_ns: u64 = writes.iter().map(|s| s.busy_ns).sum();
    let write_kb = writes.iter().map(|s| s.bytes).sum::<u64>() as f64 / 1024.0;
    m.insert("frontend.groups", writes.len() as f64);
    m.insert(
        "frontend.batches_per_group",
        writes.iter().map(|s| s.batches).sum::<u64>() as f64 / groups,
    );
    m.insert("frontend.kb_per_group", write_kb / groups);
    m.insert(
        "controller.write_us_per_group",
        write_ns as f64 / groups / 1e3,
    );
    m.insert(
        "controller.write_ns_per_kb",
        write_ns as f64 / write_kb.max(f64::MIN_POSITIVE),
    );

    let reads: Vec<&CtlSpan> = read_spans
        .iter()
        .filter(|s| matches!(s.op, CtlOp::Read | CtlOp::ReadBatch))
        .collect();
    let read_pages = reads.iter().map(|s| s.pages).sum::<u64>().max(1) as f64;
    let calls = |op: CtlOp| {
        reads
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.calls)
            .sum::<u64>() as f64
    };
    m.insert(
        "controller.read_ns_per_page",
        reads.iter().map(|s| s.busy_ns).sum::<u64>() as f64 / read_pages,
    );
    m.insert("controller.read_calls", calls(CtlOp::Read));
    m.insert("controller.read_batch_calls", calls(CtlOp::ReadBatch));

    for (name, a) in [
        ("ledger.user_write_ms", Activity::UserWrite),
        ("ledger.user_read_ms", Activity::UserRead),
        ("ledger.gc_ms", Activity::Gc),
        ("ledger.wal_ms", Activity::Wal),
        ("ledger.ckpt_ms", Activity::Ckpt),
        ("ledger.map_io_ms", Activity::MapIo),
        ("ledger.frontend_ms", Activity::Frontend),
        ("ledger.net_ms", Activity::Net),
    ] {
        m.insert(name, d.busy_ms(a));
    }

    let channels = d.after.flash().channel_busy_ns.len().max(1) as f64;
    m.insert(
        "flash.bytes_programmed",
        d.flash(|f| f.bytes_programmed) as f64,
    );
    m.insert("flash.bytes_read", d.flash(|f| f.bytes_read) as f64);
    m.insert("flash.erases", d.flash(|f| f.erases) as f64);
    m.insert(
        "flash.overlap_ratio",
        d.channel_busy_ns() as f64 / (channels * d.now_ns().max(1) as f64),
    );

    let (hits, misses) = (d.map(|c| c.hits), d.map(|c| c.misses));
    m.insert(
        "mapping.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("mapping.flash_loads", d.map(|c| c.flash_loads) as f64);
    m.insert("mapping.evictions", d.map(|c| c.evictions) as f64);

    let moved = d.eleos(|e| e.gc_moved_bytes) as f64;
    let erased = (d.eleos(|e| e.gc_erases) * workload::geometry().eblock_bytes()) as f64;
    m.insert("gc.collections", d.eleos(|e| e.gc_collections) as f64);
    m.insert("gc.moved_bytes", moved);
    m.insert(
        "gc.moved_per_reclaimed",
        if erased > moved {
            moved / (erased - moved)
        } else {
            0.0
        },
    );
    m.insert("wal.commits", d.eleos(|e| e.commits) as f64);
    m.insert("ckpt.checkpoints", d.eleos(|e| e.checkpoints) as f64);

    m.insert(
        "span.write_batch_p99_us",
        d.span_p99_us(SpanKind::WriteBatch),
    );
    m.insert(
        "span.group_flush_p99_us",
        d.span_p99_us(SpanKind::GroupFlush),
    );
    m.insert("span.gc_collect_p99_us", d.span_p99_us(SpanKind::GcCollect));
}

/// One JSON object per span, times in ns from the window start: client
/// requests keyed by session and WSN (or read sequence), and controller
/// calls — of the window, then of the read-back phase — with the
/// `(sid, wsn)` requests that caused them.
fn spans_jsonl(t0: Instant, sess: &[SessionOut], ctl: &[CtlSpan], read_ctl: &[CtlSpan]) -> String {
    let rel = |t: Instant| t.saturating_duration_since(t0).as_nanos();
    let mut s = String::new();
    let client = |s: &mut String, c: &ClientSpan| {
        let op = if c.write { "write" } else { "read" };
        let key = if c.write { "wsn" } else { "read_seq" };
        let _ = writeln!(
            s,
            "{{\"layer\":\"client\",\"op\":\"{op}\",\"sid\":{},\"{key}\":{},\"start_ns\":{},\"end_ns\":{},\"pages\":{}}}",
            c.sid,
            c.seq,
            rel(c.start),
            rel(c.end),
            c.pages
        );
    };
    for c in sess.iter().flat_map(|x| x.spans.iter()) {
        client(&mut s, c);
    }
    for c in ctl.iter().chain(read_ctl) {
        let covers: Vec<String> = c
            .covers
            .iter()
            .map(|(sid, wsn)| format!("[{sid},{wsn}]"))
            .collect();
        let _ = writeln!(
            s,
            "{{\"layer\":\"controller\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"pages\":{},\"bytes\":{},\"caused_by\":[{}]}}",
            c.op.label(),
            rel(c.start),
            rel(c.end),
            c.busy_ns,
            c.calls,
            c.pages,
            c.bytes,
            covers.join(",")
        );
    }
    s
}
