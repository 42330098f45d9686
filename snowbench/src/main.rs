//! The repository benchmark.
//!
//! `snowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Workloads, and why each was chosen:
//! * `stream_inproc` — closed loop on the in-process transport. Every
//!   message pays the whole protocol path (envelope, connect check,
//!   inbox, classify, RML match) and the post office, with no wire: a
//!   `core::process` or `vm::post` change shows here, a wire change
//!   cannot.
//! * `stream_tcp` — the same generated traffic, window and placement on
//!   `TcpTransport`, so every message crosses a localhost socket and
//!   gains the wire layers (envelope encode, `encode_frame`, the writer
//!   queue, the `BatchWriter` flush, `read_frame`, decode, the
//!   expose-table lookup). A wire change shows here and not on
//!   `stream_inproc`.
//! * `migrate_soak` — open loop on `TcpTransport` at about a tenth of
//!   `stream_tcp`'s rate, with Zipf fan-in onto one hot rank that carries
//!   a 7.5 MB MG state and is migrated back and forth many times. The
//!   message layers are mostly idle, so the cost is the migration path:
//!   the start handshake, coordinating and draining a peer connected to
//!   every rank, forwarding the RML, streaming and restoring the state,
//!   the commit, and every peer's nack → lookup → reconnect. The state
//!   crosses the same frame layer as the streams' small frames, in
//!   256 KiB chunks, so a per-frame gain that costs bulk frames shows.
//!
//! With `--trace 0` the run is untraced and the last line carries the
//! end-to-end metrics. With `--trace 1` the command runs the workload
//! untraced and then traced with the same seed, and the last line
//! carries the per-layer metrics, the tracing overhead among them.
//! Every run checks every lane (§4) online and exits non-zero, naming
//! the lane, on a loss, duplicate, reorder or corruption.

mod env;
mod gen;
mod lanes;
mod micro;
mod osacct;
mod rec;
mod report;
mod soak;
mod stats;
mod stream;

use report::Report;
use std::collections::BTreeMap;

/// End-to-end metrics and their units, in `BENCHMARK.json` order. Each
/// is defined on every workload: `msgs_per_s` is verified deliveries per
/// second from the end of set-up to the last delivery; `svc_us_mean` is
/// the mean time from a message being due (scheduled in the soak,
/// admitted by its lane's window in the streams) to its verified
/// receipt. The gate takes the mean because on the in-process stream the
/// closed loop's percentiles depend on how the two pool threads happen to
/// interleave and do not repeat between runs; the percentiles, and the
/// soak's pause and phase-sliced service times, are printed beside it
/// and reported per layer.
const END_TO_END: [(&str, &str); 4] = [
    ("msgs_per_s", "msg/s"),
    ("svc_us_mean", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. A
/// metric whose layer the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("pause_ms_p50", "ms"),
    ("pause_ms_tail", "ms"),
    ("svc_steady_us_p50", "us"),
    ("svc_steady_us_p99", "us"),
    ("svc_during_us_p50", "us"),
    ("svc_during_us_p99", "us"),
    ("failed_frac", "ratio"),
    ("core.process.send_ns_p50", "ns"),
    ("core.process.recv_ns_p50", "ns"),
    ("core.process.send_refused_frac", "ratio"),
    ("core.process.recv_hit_frac", "ratio"),
    ("core.process.busy_frac", "ratio"),
    ("core.process.transit_us_p50", "us"),
    ("core.process.send_lag_us_p99", "us"),
    ("core.process.reconnect_ms_p50", "ms"),
    ("vm.post.backlog_max", "count"),
    ("core.rml.len_max", "count"),
    ("vm.tcp.write_cpu_ns_per_msg", "ns"),
    ("vm.tcp.read_cpu_ns_per_msg", "ns"),
    ("net.frame.encode_ns_small", "ns"),
    ("net.frame.batch_ns_small", "ns"),
    ("net.frame.read_ns_small", "ns"),
    ("net.frame.encode_ns_chunk", "ns"),
    ("net.frame.batch_ns_chunk", "ns"),
    ("net.frame.read_ns_chunk", "ns"),
    ("vm.daemon.cpu_s", "s"),
    ("sched.cpu_s", "s"),
    ("core.init.cpu_s", "s"),
    ("bench.workers.cpu_s", "s"),
    ("core.migrate.poll_wait_ms_p50", "ms"),
    ("core.migrate.call_ms_p50", "ms"),
    ("core.migrate.resume_ms_p50", "ms"),
    ("core.migrate.coordinate_ms_p50", "ms"),
    ("core.migrate.rml_forwarded_mean", "count"),
    ("sched.requested_to_started_ms_p50", "ms"),
    ("sched.started_to_restored_ms_p50", "ms"),
    ("sched.restored_to_committed_ms_p50", "ms"),
    ("sched.attempts_mean", "count"),
    ("sched.unattributed_ms_p50", "ms"),
    ("state.pipeline.stream_chunks_ms", "ms"),
    ("state.pipeline.restore_ms", "ms"),
    ("state.pipeline.bytes", "B"),
    ("state.pipeline.chunks", "count"),
    ("process.cpu_frac", "ratio"),
    ("process.invol_ctx_switches_per_s", "1/s"),
    ("process.threads_max", "count"),
    ("process.exited_threads_cpu_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.pool_idle_frac", "ratio"),
    ("bench.migrations", "count"),
];

const WORKLOADS: [&str; 3] = ["stream_inproc", "stream_tcp", "migrate_soak"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload once, untraced or traced.
fn run_workload(a: &Args, traced: bool, setups: usize) -> Result<Report, String> {
    match a.workload.as_str() {
        "stream_inproc" => stream::report(false, a.seed, a.seconds, traced, setups),
        "stream_tcp" => stream::report(true, a.seed, a.seconds, traced, setups),
        _ => soak::report(a.seed, a.seconds, traced, setups),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snowbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_workload(&args, false, env::SETUPS).and_then(|r| {
            r.print(
                &format!("{} seed {} untraced", args.workload, args.seed),
                &END_TO_END,
            )
        })
    };
    if let Err(e) = outcome {
        eprintln!("snowbench: {} seed {}: {e}", args.workload, args.seed);
        std::process::exit(1);
    }
}

/// The traced mode: an untraced run for the reference headline, then the
/// traced run; reports every per-layer metric.
fn run_traced(args: &Args) -> Result<(), String> {
    let plain = run_workload(args, false, 1)?;
    let mut traced = run_workload(args, true, 1)?;
    // The headline the tracer could distort: throughput for the streams,
    // the median pause for the soak.
    let overhead = if args.workload == "migrate_soak" {
        let (p, t) = (plain.get("pause_ms_p50"), traced.get("pause_ms_p50"));
        t.zip(p).map(|(t, p)| t / p - 1.0)
    } else {
        let (p, t) = (plain.get("msgs_per_s"), traced.get("msgs_per_s"));
        t.zip(p).map(|(t, p)| 1.0 - t / p)
    };
    traced.add(
        "bench.trace_overhead_frac",
        overhead.unwrap_or(0.0),
        "ratio",
        None,
    );
    micro::frame_report(&mut traced);
    for (name, unit) in PER_LAYER {
        if traced.get(name).is_none() {
            traced.add_noted(name, 0.0, unit, None, "absent on this workload".into());
        }
    }
    let path = write_spans(args, &mut traced)?;
    traced.lines.push(format!("spans written to {path}"));
    traced.print(
        &format!("{} seed {} traced", args.workload, args.seed),
        &PER_LAYER,
    )
}

/// Write the traced run's spans, one JSON object per line.
fn write_spans(args: &Args, r: &mut Report) -> Result<String, String> {
    use std::io::Write;
    let dir = std::path::Path::new("snowbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in r.spans.drain(..) {
        writeln!(w, "{}", s.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// (name, unit) of every metric one section of `BENCHMARK.json`
    /// declares, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let body = text
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section present");
        let body = &body[..body.find(']').expect("section closes")];
        body.lines()
            .filter_map(|l| {
                let field = |k: &str| {
                    let v = l.split(&format!("\"{k}\": \"")).nth(1)?;
                    v.split('"').next().map(str::to_string)
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }
}
