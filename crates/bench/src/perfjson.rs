//! The `BENCH_controller.json` wall-clock trajectory: entry type, the flat
//! one-object-per-line (de)serializer shared by `perfbench` and `repro_all`,
//! and a renderer for the EXPERIMENTS.md appendix.

use crate::report::Table;
use std::fmt::Write as _;

/// One wall-clock measurement of a named bench.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    pub label: String,
    pub bench: String,
    pub scale: String,
    pub ops: u64,
    pub host_seconds: f64,
    pub sim_ops_per_host_sec: f64,
    pub bytes_programmed: u64,
    pub bytes_read: u64,
    /// Simulated controller-CPU busy time over the run (telemetry snapshot).
    pub cpu_busy_ns: u64,
    /// Simulated flash-channel busy time over the run (telemetry snapshot).
    pub flash_busy_ns: u64,
    /// p99 of the write-batch latency span, simulated ns (0 when the bench
    /// records no write spans, and in pre-telemetry committed entries).
    pub write_p99_ns: u64,
    /// Controller shards the bench ran against (`--shards`): 1 for the
    /// unsharded path and for entries committed before sharding existed.
    pub shards: u32,
    /// Mapping-cache bound the bench ran with
    /// (`EleosConfig::mapping_cache_pages`): entries committed before the
    /// flash-resident mapping existed kept the whole map in memory, which
    /// the demand-paged controller approximates as a never-binding bound
    /// of 0 (= "unbounded" in the trajectory).
    pub mapping_cache_pages: u64,
    /// GC victim-selection policy label (`GcPolicy::label()`): entries
    /// committed before the policy lab existed all ran the paper's
    /// min-cost-decline selection.
    pub gc_policy: String,
    /// Concurrent TCP clients the bench drove through the wire-protocol
    /// server (`net_scale`): 0 for in-process benches and for entries
    /// committed before the server existed.
    pub net_clients: u32,
}

/// Serialize one entry as a flat JSON object (no trailing newline).
pub fn render_entry(e: &BenchEntry, out: &mut String) {
    let _ = write!(
        out,
        "  {{\"label\": \"{}\", \"bench\": \"{}\", \"scale\": \"{}\", \"ops\": {}, \
         \"host_seconds\": {:.4}, \"sim_ops_per_host_sec\": {:.1}, \
         \"bytes_programmed\": {}, \"bytes_read\": {}, \"cpu_busy_ns\": {}, \
         \"flash_busy_ns\": {}, \"write_p99_ns\": {}, \"shards\": {}, \
         \"mapping_cache_pages\": {}, \"gc_policy\": \"{}\", \
         \"net_clients\": {}}}",
        e.label,
        e.bench,
        e.scale,
        e.ops,
        e.host_seconds,
        e.sim_ops_per_host_sec,
        e.bytes_programmed,
        e.bytes_read,
        e.cpu_busy_ns,
        e.flash_busy_ns,
        e.write_p99_ns,
        e.shards,
        e.mapping_cache_pages,
        e.gc_policy,
        e.net_clients
    );
}

/// Parse the flat entry objects back out of a BENCH_controller.json
/// (exactly the format `render_entry` writes — one object per line).
pub fn parse_entries(text: &str) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.ends_with('}') {
            continue;
        }
        let field = |key: &str| -> Option<String> {
            let pat = format!("\"{key}\": ");
            let at = line.find(&pat)? + pat.len();
            let rest = &line[at..];
            if let Some(stripped) = rest.strip_prefix('"') {
                Some(stripped[..stripped.find('"')?].to_string())
            } else {
                let end = rest
                    .find([',', '}'])
                    .unwrap_or(rest.len());
                Some(rest[..end].trim().to_string())
            }
        };
        let (Some(label), Some(bench), Some(scale)) =
            (field("label"), field("bench"), field("scale"))
        else {
            continue;
        };
        let num = |key: &str| field(key).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        out.push(BenchEntry {
            label,
            bench,
            scale,
            ops: num("ops") as u64,
            host_seconds: num("host_seconds"),
            sim_ops_per_host_sec: num("sim_ops_per_host_sec"),
            bytes_programmed: num("bytes_programmed") as u64,
            bytes_read: num("bytes_read") as u64,
            // Default 0 keeps entries committed before the telemetry
            // fields existed parseable.
            cpu_busy_ns: num("cpu_busy_ns") as u64,
            flash_busy_ns: num("flash_busy_ns") as u64,
            write_p99_ns: num("write_p99_ns") as u64,
            // Entries committed before sharding existed ran unsharded.
            shards: field("shards").and_then(|v| v.parse::<u32>().ok()).unwrap_or(1),
            // Pre-demand-paging entries held the whole map in memory.
            mapping_cache_pages: field("mapping_cache_pages")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0),
            // Pre-policy-lab entries all ran the paper's selection.
            gc_policy: field("gc_policy").unwrap_or_else(|| "min_cost_decline".into()),
            // Pre-server entries all ran in-process (no TCP clients).
            net_clients: field("net_clients")
                .and_then(|v| v.parse::<u32>().ok())
                .unwrap_or(0),
        });
    }
    out
}

/// Table of the committed wall-clock trajectory (full-scale entries only —
/// smoke-scale runs are gate checks, not baselines).
pub fn trajectory_table(entries: &[BenchEntry]) -> Table {
    let mut t = Table::new(
        "Appendix — host wall-clock controller benchmarks (perfbench)",
        &["label", "bench", "ops", "host secs", "sim-ops/host-sec"],
    );
    for e in entries.iter().filter(|e| e.scale == "full") {
        t.row(vec![
            e.label.clone(),
            e.bench.clone(),
            e.ops.to_string(),
            format!("{:.3}", e.host_seconds),
            format!("{:.0}", e.sim_ops_per_host_sec),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_fields() {
        let e = BenchEntry {
            label: "l".into(),
            bench: "b".into(),
            scale: "full".into(),
            ops: 42,
            host_seconds: 1.5,
            sim_ops_per_host_sec: 28.0,
            bytes_programmed: 1024,
            bytes_read: 2048,
            cpu_busy_ns: 777,
            flash_busy_ns: 888,
            write_p99_ns: 999,
            shards: 4,
            mapping_cache_pages: 16384,
            gc_policy: "greedy".into(),
            net_clients: 3,
        };
        let mut s = String::new();
        render_entry(&e, &mut s);
        let back = parse_entries(&s);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].label, "l");
        assert_eq!(back[0].ops, 42);
        assert_eq!(back[0].bytes_read, 2048);
        assert_eq!(back[0].cpu_busy_ns, 777);
        assert_eq!(back[0].flash_busy_ns, 888);
        assert_eq!(back[0].write_p99_ns, 999);
        assert_eq!(back[0].shards, 4);
        assert_eq!(back[0].mapping_cache_pages, 16384);
        assert_eq!(back[0].gc_policy, "greedy");
        assert_eq!(back[0].net_clients, 3);
    }

    #[test]
    fn pre_telemetry_entries_parse_with_zero_defaults() {
        let legacy = "  {\"label\": \"l\", \"bench\": \"b\", \"scale\": \"full\", \"ops\": 7, \
                      \"host_seconds\": 1.0, \"sim_ops_per_host_sec\": 7.0, \
                      \"bytes_programmed\": 1, \"bytes_read\": 2}";
        let back = parse_entries(legacy);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].cpu_busy_ns, 0);
        assert_eq!(back[0].flash_busy_ns, 0);
        assert_eq!(back[0].write_p99_ns, 0);
        // Pre-sharding entries ran one shard, not zero.
        assert_eq!(back[0].shards, 1);
        // Pre-demand-paging entries held the whole map in memory (0 =
        // unbounded) and always used the paper's GC selection.
        assert_eq!(back[0].mapping_cache_pages, 0);
        assert_eq!(back[0].gc_policy, "min_cost_decline");
        // Pre-server entries ran in-process.
        assert_eq!(back[0].net_clients, 0);

        // Entries written while the host thread-count key existed still
        // read: the unknown key is skipped and its neighbours stay intact.
        let threaded = "  {\"label\": \"exec-parallel\", \"bench\": \"b\", \"scale\": \"full\", \
                        \"ops\": 9, \"write_p99_ns\": 5, \"host_threads\": 8, \"shards\": 2}";
        let back = parse_entries(threaded);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].label, "exec-parallel");
        assert_eq!(back[0].ops, 9);
        assert_eq!(back[0].write_p99_ns, 5);
        assert_eq!(back[0].shards, 2);
    }

    #[test]
    fn trajectory_table_skips_smoke_entries() {
        let mk = |scale: &str| BenchEntry {
            label: "x".into(),
            bench: "y".into(),
            scale: scale.into(),
            ops: 1,
            host_seconds: 1.0,
            sim_ops_per_host_sec: 1.0,
            bytes_programmed: 0,
            bytes_read: 0,
            cpu_busy_ns: 0,
            flash_busy_ns: 0,
            write_p99_ns: 0,
            shards: 1,
            mapping_cache_pages: 0,
            gc_policy: "min_cost_decline".into(),
            net_clients: 0,
        };
        let t = trajectory_table(&[mk("full"), mk("small"), mk("full")]);
        assert_eq!(t.rows.len(), 2);
    }
}
