//! `snow-bench scale` — run the delivery-substrate scale suite and emit
//! the schema'd `BENCH_scale.json` baseline.
//!
//! Both scenarios (all-pairs flood, migration-under-load) run at every
//! requested rank count (256 / 1k / 5k / 10k by default — the ring is
//! driven by a bounded worker pool, so 10k ranks never means 10k OS
//! threads); see `snow_bench::scale` for what each measures.
//!
//! `--smoke` shrinks the budgets for CI; `--transport tcp` drives the
//! framed localhost-socket backend instead of the in-process substrate
//! (`--transport inproc,tcp` sweeps both into one document);
//! `--validate FILE` skips the runs and only schema-checks an existing
//! document; `--gate FILE --baseline FILE` regression-gates a fresh run
//! against the committed baseline (the CI `bench-smoke` gate).
//!
//! Usage:
//!   cargo run -p snow-bench --release --bin scale
//!   cargo run -p snow-bench --release --bin scale -- --ranks 256 --smoke
//!   cargo run -p snow-bench --release --bin scale -- --ranks 64 --smoke --transport tcp
//!   cargo run -p snow-bench --release --bin scale -- --transport inproc,tcp --out BENCH_scale.json
//!   cargo run -p snow-bench --bin scale -- --validate BENCH_scale.json
//!   cargo run -p snow-bench --bin scale -- --gate BENCH_run.json --baseline BENCH_scale.json

use snow_bench::scale::{
    emit_document, gate_document, read_doc, run_flood, run_migration_under_load, validate_document,
    FloodConfig, GateTolerances, MigrationLoadConfig, ScaleRecord, TransportKind,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: scale [--ranks N[,N...]] [--smoke] [--transport inproc|tcp[,...]] [--out FILE]\n\
         \x20      [--validate FILE]\n\
         \x20      [--gate FILE --baseline FILE [--min-throughput-ratio R] [--max-latency-ratio R]]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut ranks: Vec<usize> = Vec::new();
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_scale.json");
    let mut validate: Option<PathBuf> = None;
    let mut gate: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tol = GateTolerances::default();
    let mut transports: Vec<TransportKind> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => {
                let spec = args.next().unwrap_or_else(|| usage());
                for part in spec.split(',') {
                    match part.trim().parse::<usize>() {
                        Ok(n) if n >= 4 => ranks.push(n),
                        _ => usage(),
                    }
                }
            }
            "--smoke" => smoke = true,
            "--transport" => {
                let spec = args.next().unwrap_or_else(|| usage());
                for part in spec.split(',') {
                    transports.push(TransportKind::parse(part.trim()).unwrap_or_else(|| usage()));
                }
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--validate" => validate = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--gate" => gate = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--baseline" => baseline = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--min-throughput-ratio" => {
                tol.min_throughput_ratio = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-latency-ratio" => {
                tol.max_latency_ratio = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }

    if let Some(path) = validate {
        let doc = match read_doc(&path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("scale: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_document(&doc) {
            Ok(()) => {
                println!("{}: valid snow-bench-scale document", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("scale: {} fails schema: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if let Some(current_path) = gate {
        let Some(baseline_path) = baseline else {
            eprintln!("scale: --gate requires --baseline FILE");
            return ExitCode::FAILURE;
        };
        let (current, base) = match (read_doc(&current_path), read_doc(&baseline_path)) {
            (Ok(c), Ok(b)) => (c, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("scale: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = validate_document(&current) {
            eprintln!("scale: {} fails schema: {e}", current_path.display());
            return ExitCode::FAILURE;
        }
        return match gate_document(&current, &base, tol) {
            Ok(()) => {
                println!(
                    "{}: within tolerance of {}",
                    current_path.display(),
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(violations) => {
                for v in &violations {
                    eprintln!("scale: GATE {v}");
                }
                eprintln!("scale: {} regression(s) against baseline", violations.len());
                ExitCode::FAILURE
            }
        };
    }

    if ranks.is_empty() {
        ranks = vec![256, 1000, 5000, 10_000];
    }
    if transports.is_empty() {
        transports = vec![TransportKind::InProc];
    }

    let mut records: Vec<ScaleRecord> = Vec::new();
    for (&transport, &n) in transports
        .iter()
        .flat_map(|t| ranks.iter().map(move |n| (t, n)))
    {
        let mut cfg = if smoke {
            FloodConfig::smoke(n)
        } else {
            FloodConfig::standard(n)
        };
        cfg.transport = transport;
        eprintln!(
            "scale: flood ranks={n} transport={} fanout={} msgs={}",
            transport.as_str(),
            cfg.fanout(),
            n as u64 * cfg.fanout() as u64 * cfg.msgs_per_pair()
        );
        let rec = run_flood(&cfg);
        eprintln!(
            "scale:   {:.0} msgs/s  p50 {:.1} us  p99 {:.1} us  wall {:.2} s",
            rec.msgs_per_sec, rec.p50_latency_us, rec.p99_latency_us, rec.wall_s
        );
        records.push(rec);

        let mut cfg = if smoke {
            MigrationLoadConfig::smoke(n)
        } else {
            MigrationLoadConfig::standard(n)
        };
        cfg.transport = transport;
        eprintln!(
            "scale: migration-under-load ranks={n} transport={} rounds={} traced={}",
            transport.as_str(),
            cfg.rounds,
            cfg.trace
        );
        let rec = run_migration_under_load(&cfg);
        eprintln!(
            "scale:   {:.0} msgs/s  pause {:.1} ms (trace {})  audit {}",
            rec.msgs_per_sec,
            rec.pause_ms.unwrap_or(0.0),
            rec.pause_trace_ms
                .map_or("n/a".into(), |p| format!("{p:.1} ms")),
            match (rec.audit_clean, rec.audit_skipped) {
                (Some(c), _) => c.to_string(),
                (None, Some(_)) => "skipped".into(),
                (None, None) => "n/a".into(),
            },
        );
        if rec.audit_clean == Some(false) {
            eprintln!("scale: §4 AUDIT VIOLATION at {n} ranks — not emitting a dirty baseline");
            return ExitCode::FAILURE;
        }
        if rec.migration_aborted == Some(true) {
            eprintln!("scale: migration at {n} ranks aborted even after the retry");
        }
        records.push(rec);
    }

    let doc = emit_document(&records, smoke);
    if let Err(e) = validate_document(&doc) {
        eprintln!("scale: emitted document fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("scale: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{}: {} records", out.display(), records.len());
    ExitCode::SUCCESS
}
