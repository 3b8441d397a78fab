//! `wirebench` — the end-to-end benchmark of the wire server.
//!
//! One process runs `eleos-server` on loopback and drives it with the
//! unmodified `eleos_server::Client` (at most two client threads, one
//! connection each). A run repeats fixed-size rounds of one workload until
//! `--seconds` have passed, checks every read, the recovered state and
//! the ledger conservation, and prints one JSON line last:
//!
//! ```text
//! wirebench --workload <tpcc_write|gc_churn|read_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced rounds.
//! `--trace 1` alternates untraced and traced rounds and reports the
//! per-layer metrics of the traced ones, plus the tracing overhead; the
//! spans of the last traced round are written to `spans/<workload>.jsonl`
//! beside this package's manifest.

mod probe;
mod round;
mod session;
mod stamp;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use eleos::Eleos;

use crate::probe::Traced;
use crate::round::RoundOut;
use crate::workload::Workload;

/// Rounds in a run, at least: `setup_s` is the median of several set-ups.
const MIN_ROUNDS: usize = 3;

/// End-to-end metrics reported in the result line: name and unit.
const E2E: [(&str, &str); 9] = [
    ("write_pages_per_s", "1/s"),
    ("read_pages_per_s", "1/s"),
    ("write_ack_p50_us", "us"),
    ("read_p50_us", "us"),
    ("sim_pages_per_s", "1/s"),
    ("write_amp", "ratio"),
    ("recovery_sim_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end tail latencies: printed with the others, but too unsteady
/// from run to run on a small shared host to bound a regression (the
/// `read_mix` Nagle stall, and scheduler tails). The traced run reports
/// them as `client.*` layer metrics.
const E2E_TAILS: [(&str, &str); 2] = [("write_ack_p99_us", "us"), ("read_p99_us", "us")];

/// Per-layer metrics: name and unit.
const LAYER: [(&str, &str); 41] = [
    ("client.write_ack_p99_us", "us"),
    ("client.read_p99_us", "us"),
    ("proto.encode_ns_per_kb", "ns/KB"),
    ("proto.decode_ns_per_kb", "ns/KB"),
    ("engine.ctl_busy_frac", "frac"),
    ("engine.outside_ctl_us_per_frame", "us"),
    ("engine.frames_in", "count"),
    ("engine.reacks", "count"),
    ("frontend.groups", "count"),
    ("frontend.batches_per_group", "count"),
    ("frontend.kb_per_group", "KB"),
    ("controller.write_us_per_group", "us"),
    ("controller.write_ns_per_kb", "ns/KB"),
    ("controller.read_ns_per_page", "ns"),
    ("controller.read_calls", "count"),
    ("controller.read_batch_calls", "count"),
    ("ledger.user_write_ms", "ms"),
    ("ledger.user_read_ms", "ms"),
    ("ledger.gc_ms", "ms"),
    ("ledger.wal_ms", "ms"),
    ("ledger.ckpt_ms", "ms"),
    ("ledger.map_io_ms", "ms"),
    ("ledger.frontend_ms", "ms"),
    ("ledger.net_ms", "ms"),
    ("flash.bytes_programmed", "bytes"),
    ("flash.bytes_read", "bytes"),
    ("flash.erases", "count"),
    ("flash.overlap_ratio", "ratio"),
    ("mapping.hit_rate", "frac"),
    ("mapping.flash_loads", "count"),
    ("mapping.evictions", "count"),
    ("gc.collections", "count"),
    ("gc.moved_bytes", "bytes"),
    ("gc.moved_per_reclaimed", "ratio"),
    ("wal.commits", "count"),
    ("ckpt.checkpoints", "count"),
    ("span.write_batch_p99_us", "us"),
    ("span.group_flush_p99_us", "us"),
    ("span.gc_collect_p99_us", "us"),
    ("recovery.host_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val).ok_or_else(bad)?),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_of(rounds: &[&RoundOut], pick: impl Fn(&RoundOut) -> Option<f64>) -> f64 {
    median(rounds.iter().filter_map(|r| pick(r)).collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut plain: Vec<RoundOut> = Vec::new();
    let mut traced: Vec<RoundOut> = Vec::new();
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    // One uncounted round first: it pays the process's cold start (page
    // faults on fresh heap, lazy allocator set-up) and sets `peak_rss_mb`.
    // Its checks still count.
    let warm_up = match round::run::<Eleos>(w, stamp::mix(args.seed ^ 0x3A2A), false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wirebench: warm-up round failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let first_round_rss_mb = peak_rss_mb();
    let start = Instant::now();
    let mut round = 0u64;
    while (round as usize) < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let seed = stamp::mix(args.seed.wrapping_mul(1_000_003).wrapping_add(round));
        let traced_round = args.trace && round % 2 == 1;
        let r = if traced_round {
            round::run::<Traced>(w, seed, true)
        } else {
            round::run::<Eleos>(w, seed, false)
        };
        if let Ok(r) = &r {
            let e = &r.e2e;
            eprintln!(
                "round {round}{}: window {:.3} s, {:.0} written/s, {:.0} read/s, set-up {:.3} s, write ack p99 {:.0} us, read p50 {:.0} us, p99 {:.0} us, recovery {:.3} sim ms",
                if traced_round { " (traced)" } else { "" },
                r.window_s,
                e["write_pages_per_s"],
                e["read_pages_per_s"],
                e["setup_s"],
                e["write_ack_p99_us"],
                e["read_p50_us"],
                e["read_p99_us"],
                e["recovery_sim_ms"],
            );
        }
        match r {
            Ok(r) if traced_round => traced.push(r),
            Ok(r) => plain.push(r),
            Err(e) => {
                eprintln!("wirebench: round {round} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        round += 1;
    }

    let all: Vec<&RoundOut> = plain.iter().chain(&traced).chain([&warm_up]).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    for v in all.iter().flat_map(|r| r.violations.iter()).take(16) {
        eprintln!("wirebench: check failed: {v}");
    }
    let correct = failed == 0;

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let plain_refs: Vec<&RoundOut> = plain.iter().collect();
    for (name, _) in E2E.iter().chain(E2E_TAILS.iter()) {
        let v = match *name {
            "peak_rss_mb" => first_round_rss_mb,
            _ => median_of(&plain_refs, |r| r.e2e.get(name).copied()),
        };
        metrics.insert(name, v);
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    println!(
        "wirebench {} seed {} ({} rounds, {:.1} s)",
        w.name(),
        args.seed,
        round,
        start.elapsed().as_secs_f64()
    );
    println!("  {:<34} {:>16.4} frac", "failed_frac", failed_frac);
    for (name, unit) in E2E.iter().chain(E2E_TAILS.iter()) {
        println!("  {:<34} {:>16.4} {unit}", name, metrics[name]);
    }
    let mut out_metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let traced_refs: Vec<&RoundOut> = traced.iter().collect();
        let overhead = median_of(&traced_refs, |r| Some(r.window_s))
            / median_of(&plain_refs, |r| Some(r.window_s))
            - 1.0;
        println!("  per-layer (median of {} traced rounds):", traced.len());
        for (name, unit) in LAYER {
            let v = match name {
                "client.write_ack_p99_us" => metrics["write_ack_p99_us"],
                "client.read_p99_us" => metrics["read_p99_us"],
                "trace.overhead_frac" => overhead,
                _ => median_of(&traced_refs, |r| r.layer.get(name).copied()),
            };
            println!("  {:<34} {:>16.4} {unit}", name, v);
            out_metrics.push((name, unit, v));
        }
        if let Err(e) = write_spans(w, traced.last().expect("traced rounds ran")) {
            eprintln!("wirebench: could not write spans: {e}");
        }
    } else {
        out_metrics = E2E.iter().map(|&(n, u)| (n, u, metrics[n])).collect();
    }

    let body: Vec<String> = out_metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity; report them as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn write_spans(w: Workload, round: &RoundOut) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{}.jsonl", w.name())), &round.spans_jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the result line carries is declared in BENCHMARK.json
    /// with the same unit, and the declared lists hold nothing else.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"unit\": ").count();
        for (name, unit) in E2E.iter().chain(LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{name} ({unit}) is not declared");
        }
        assert_eq!(
            declared,
            E2E.len() + LAYER.len(),
            "BENCHMARK.json declares extra metrics"
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
