//! Shared observability harness for the integration suites.
//!
//! Every traced suite funnels its run through [`audit_and_export`]:
//! the event log is checked online against the paper's §4 guarantees
//! (per-sender FIFO, zero message loss, no cyclic wait among drained
//! processes, terminated migrations) and both the event log and any
//! per-migration metrics are exported as JSONL under
//! `target/audit-logs/`, where `snow-bench audit --dir` and CI pick
//! them up for the offline pass.

#![allow(dead_code)]

use snow::trace::serial::events_to_jsonl;
use snow::trace::Tracer;
use std::path::PathBuf;
use std::sync::Arc;

/// Where the suites drop their JSONL exports. Shared with the
/// `snow-bench audit` subcommand and the CI audit step.
pub fn export_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/audit-logs"
    ));
    std::fs::create_dir_all(&dir).expect("create target/audit-logs");
    dir
}

/// Export the tracer's event log (and metrics, if any migrations were
/// recorded) as JSONL, then run the online auditor over the snapshot.
/// Panics with the rendered report if any §4 guarantee is violated.
pub fn audit_and_export(tracer: &Arc<Tracer>, name: &str) {
    let events = tracer.snapshot();
    let dir = export_dir();
    std::fs::write(
        dir.join(format!("{name}.events.jsonl")),
        events_to_jsonl(&events),
    )
    .expect("write event log JSONL");
    let metrics = tracer.metrics();
    if !metrics.is_empty() {
        std::fs::write(
            dir.join(format!("{name}.metrics.jsonl")),
            metrics.to_jsonl(),
        )
        .expect("write metrics JSONL");
    }
    snow::trace::assert_clean(&events);
}

/// Block until the scheduler names this process for migration.
///
/// Event-driven replacement for the old `poll_point()` + 1 ms sleep
/// loops the suites used to carry: this parks on the signal queue via
/// [`SnowProcess::await_migration_request`], so the process wakes the
/// instant the migration signal lands instead of on the next poll
/// tick. The generous outer loop only guards against a scheduler that
/// never fires (which the per-suite watchdogs then surface).
pub fn await_migration(p: &mut snow::prelude::SnowProcess) {
    while !p
        .await_migration_request(std::time::Duration::from_secs(5))
        .unwrap()
    {}
}

/// The two drivers of the one connect/send state machine in
/// `SnowProcess`: the blocking call, and a cooperative step loop.
#[derive(Debug, Clone, Copy)]
pub enum Driver {
    /// `SnowProcess::send`, which parks between steps.
    Blocking,
    /// `SnowProcess::try_send` called until it posts or errors, as a
    /// cooperative pool drives a rank.
    Stepped,
}

impl Driver {
    /// Both drivers, for tests that must see the same verdict from each.
    pub const BOTH: [Driver; 2] = [Driver::Blocking, Driver::Stepped];

    /// Send `payload` to `dest` through this driver. The step loop
    /// gives up after 10 s without a verdict and reports that as
    /// `Watchdog("try_send loop cap")`.
    pub fn send(
        self,
        p: &mut snow::prelude::SnowProcess,
        dest: snow::prelude::Rank,
        tag: snow::prelude::Tag,
        payload: bytes::Bytes,
    ) -> Result<(), snow::prelude::ProtoError> {
        match self {
            Driver::Blocking => p.send(dest, tag, payload),
            Driver::Stepped => {
                let cap = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while !p.try_send(dest, tag, &payload)? {
                    if std::time::Instant::now() >= cap {
                        return Err(snow::prelude::ProtoError::Watchdog("try_send loop cap"));
                    }
                    std::thread::yield_now();
                }
                Ok(())
            }
        }
    }
}
