//! Process migration (Fig 5) and initialization (Fig 7).
//!
//! `migrate()` runs on the migrating process after a `migration_request`
//! signal was intercepted at a poll point; `initialize()` runs as the
//! body of the process the scheduler spawned on the destination host.
//! Together they transfer the communication state: connections are
//! drained and closed with Chandy-Lamport-style marker coordination
//! \[28\], in-transit messages are captured in the received-message-list
//! and forwarded, and the exe+mem state follows on the same FIFO
//! channel.
//!
//! # Abortable migration
//!
//! The paper assumes the destination survives the transfer. This
//! reproduction treats phase 1 (everything before `migration_commit`)
//! as an abortable transaction instead: the destination acknowledges
//! the verified state with a [`snow_vm::Payload::StateAck`] before the
//! commit handshake, and on any phase-1 failure — destination host
//! gone, transfer channel dead, checksum/digest rejection, ack
//! watchdog — the source reports [`SchedRequest::MigrationAbort`]. The
//! scheduler reaps the half-initialized destination and either
//! re-targets the migration at an alternate live host (retry policy) or
//! rolls the directory back, at which point the source restores its
//! drained RML (zero message loss), re-opens its gates, re-announces to
//! the peers it had coordinated away, and resumes in place with
//! [`MigrationOutcome::Aborted`].

use crate::error::ProtoError;
use crate::process::{scaled_watchdog, Event, SnowProcess, CONN_RESEND, TICK};
use bytes::Bytes;
use snow_net::FrameClass;
use snow_state::{
    ChunkedRestorer, PipelineConfig, ProcessState, RestoreTeardown, StateCostModel, StateError,
};
use snow_trace::{metrics::MigrationMetrics, metrics::MigrationVerdict, EventKind};
use snow_vm::wire::{SchedReply, SchedRequest};
use snow_vm::{Envelope, Incoming, Payload, PostSender, ProcessCell, Rank, Signal, Vmid};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Timing breakdown of one migration, as measured by the two protocol
/// halves. "Modeled" components come from the calibrated cost models
/// (host speed, link bandwidth); "real" components are wall-clock on the
/// machine running the reproduction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationTimings {
    /// Real seconds coordinating connected peers (signal + markers +
    /// drain + close) — Table 2 row "Coordinate".
    pub coordinate_real_s: f64,
    /// Modeled seconds to collect the exe+mem state — row "Collect".
    pub collect_modeled_s: f64,
    /// Modeled seconds to push the state across the network — row "Tx".
    pub tx_modeled_s: f64,
    /// Modeled seconds to restore on the destination — row "Restore",
    /// estimated by the source from the destination host's speed (the
    /// initialized process naps the same model on its own clock).
    pub restore_modeled_s: f64,
    /// Modeled seconds for the overlapped collect→tx→restore pipeline:
    /// the makespan of the chunk schedule rather than the sum of its
    /// stages. For a monolithic transfer this equals
    /// `collect + tx + restore`.
    pub pipelined_modeled_s: f64,
    /// Chunks the state was streamed as (1 for a monolithic transfer).
    pub chunks: usize,
    /// Encoder workers used (0 = monolithic path).
    pub workers: usize,
    /// Canonical state size in bytes.
    pub state_bytes: usize,
    /// In-transit messages captured and forwarded (Fig 13 behaviour).
    pub rml_forwarded: usize,
}

impl MigrationTimings {
    /// Total migration cost with the serial state transfer the paper
    /// measures — Table 2 row "Migrate" (coordinate + collect + tx +
    /// restore, each stage strictly after the previous).
    pub fn total_s(&self) -> f64 {
        self.serial_total_s()
    }

    /// Serial-sum total: what the migration costs without stage overlap.
    pub fn serial_total_s(&self) -> f64 {
        self.coordinate_real_s + self.collect_modeled_s + self.tx_modeled_s + self.restore_modeled_s
    }

    /// Pipelined total: coordinate plus the overlapped-schedule makespan.
    pub fn pipelined_total_s(&self) -> f64 {
        self.coordinate_real_s + self.pipelined_modeled_s
    }

    /// Clear the per-attempt transfer fields. Coordination cost and the
    /// forwarded-RML count are shared across retry attempts and survive.
    fn reset_attempt(&mut self) {
        self.collect_modeled_s = 0.0;
        self.tx_modeled_s = 0.0;
        self.restore_modeled_s = 0.0;
        self.pipelined_modeled_s = 0.0;
        self.chunks = 0;
        self.workers = 0;
        self.state_bytes = 0;
    }
}

/// What [`SnowProcess::migrate`] resolved to.
#[must_use = "an aborted migration hands the process back; dropping the outcome loses the rank"]
pub enum MigrationOutcome {
    /// The destination acknowledged the state: execution resumes there
    /// and the caller must return from its entry function (Fig 5
    /// line 11).
    Completed(MigrationTimings),
    /// The migration was rolled back: the caller owns the process again
    /// — same vmid, restored RML, gates re-opened — and must keep
    /// running in place. Boxed: the handed-back process dwarfs the
    /// timings of the common completed case.
    Aborted(Box<AbortedMigration>),
}

impl MigrationOutcome {
    /// The timings of a migration that must have completed. Panics with
    /// the abort reason otherwise — the assertion style tests use when
    /// an abort would itself be a failure.
    #[track_caller]
    pub fn expect_completed(self) -> MigrationTimings {
        match self {
            MigrationOutcome::Completed(t) => t,
            MigrationOutcome::Aborted(a) => panic!(
                "migration aborted after {} attempt(s): {}",
                a.attempts, a.reason
            ),
        }
    }

    /// Did the migration roll back?
    pub fn is_aborted(&self) -> bool {
        matches!(self, MigrationOutcome::Aborted(_))
    }
}

/// A rolled-back migration: everything the caller needs to resume.
pub struct AbortedMigration {
    /// The process, live again at its pre-migration vmid.
    pub process: SnowProcess,
    /// The failure that triggered the (final) abort.
    pub reason: String,
    /// Transfer attempts made before giving up (1 = no retry policy or
    /// first attempt already unrecoverable).
    pub attempts: u32,
    /// Messages restored to the received-message-list: the drained RML
    /// plus any deposits the reaped destination returned. The zero-loss
    /// guarantee is that nothing drained for the transfer is dropped.
    pub rml_restored: usize,
}

/// The scheduler's ruling on a [`SchedRequest::MigrationAbort`].
enum AbortDecision {
    /// Retry the transfer against a freshly initialized process.
    Retry {
        new_vmid: Vmid,
        attempt: u32,
        backoff_ms: u64,
    },
    /// Rolled back: the directory points at the source again.
    Aborted,
    /// The destination committed before the abort landed: the migration
    /// stands and the source must terminate as on success.
    Denied,
}

impl SnowProcess {
    /// The migrate() algorithm (Fig 5), as a two-phase transaction.
    /// Consumes the process; the outcome decides who owns the rank:
    ///
    /// * [`MigrationOutcome::Completed`] — the application must return
    ///   from its entry function, terminating the migrating process
    ///   (Fig 5 line 11). Execution resumes inside the initialized
    ///   process on the destination host.
    /// * [`MigrationOutcome::Aborted`] — the transfer failed before
    ///   commit and was rolled back; the process is handed back and the
    ///   application must resume in place.
    pub fn migrate(mut self, state: &ProcessState) -> Result<MigrationOutcome, ProtoError> {
        let wall0 = Instant::now();
        let mut timings = MigrationTimings::default();
        let mut retry_causes: Vec<String> = Vec::new();
        self.trace_mig(EventKind::MigrationStart { rank: self.rank });

        // Lines 2–3: inform the scheduler, learn the initialized
        // process's vmid.
        self.cell.sched_send(SchedRequest::MigrationStart {
            rank: self.rank,
            reply: self.cell.reply_sender(),
        })?;
        let new_vmid = loop {
            match self.wait_event("migration_start handshake")? {
                Event::Sched(SchedReply::NewVmid { new_vmid }) => break new_vmid,
                Event::Sched(SchedReply::Error { reason }) => {
                    return Err(ProtoError::Scheduler(reason))
                }
                _ => continue,
            }
        };

        // Line 4: tell the local daemon to reject all future conn_req,
        // and reject those already queued — `classify` nacks inbound
        // requests while `migrating` is set, which covers requests that
        // raced past the daemon before the flag landed.
        self.migrating = true;
        self.cell.set_reject_all(true);

        // Lines 5–7: coordinate connected peers. A failure here (a live
        // peer that never produced its marker) aborts the migration
        // instead of wedging the process; channels are force-closed
        // either way so the abort rolls back from a consistent state.
        let mut coordinated: Vec<Rank> = Vec::new();
        let mut failure = self.coordinate_peers(&mut timings, &mut coordinated).err();

        // The RML drained for forwarding is *retained* by the source
        // until the destination acknowledges the state: re-forwarded on
        // retry, restored verbatim on abort.
        let mut batch = self.rml.drain_all();
        timings.rml_forwarded = batch.len();

        let mut attempts: u32 = 1;
        let mut target = new_vmid;
        loop {
            if failure.is_none() {
                match self.transfer_to(target, &batch, state, &mut timings) {
                    // Line 11: terminate — the caller returns from the
                    // app function; the spawn wrapper unregisters us and
                    // notifies the daemon.
                    Ok(()) => {
                        self.record_migration_metrics(
                            MigrationVerdict::Committed,
                            attempts,
                            &timings,
                            wall0,
                            0,
                            retry_causes,
                            None,
                        );
                        return Ok(MigrationOutcome::Completed(timings));
                    }
                    Err(cause) => failure = Some(cause),
                }
            }
            let cause = failure.take().expect("loop iterates with a failure");

            // Deposits a failed destination returned before standing
            // down ride behind the original batch: per-peer FIFO holds
            // because everything there arrived after our drain.
            batch.extend(self.rml.drain_all());

            match self.request_abort(&cause)? {
                AbortDecision::Retry {
                    new_vmid,
                    attempt,
                    backoff_ms,
                } => {
                    self.trace_mig(EventKind::MigrationRetried { attempt });
                    retry_causes.push(cause);
                    attempts = attempt;
                    target = new_vmid;
                    if backoff_ms > 0 {
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                    }
                }
                AbortDecision::Denied => {
                    self.record_migration_metrics(
                        MigrationVerdict::Committed,
                        attempts,
                        &timings,
                        wall0,
                        0,
                        retry_causes,
                        None,
                    );
                    return Ok(MigrationOutcome::Completed(timings));
                }
                AbortDecision::Aborted => {
                    let aborted = self.roll_back(batch, &coordinated, cause, attempts);
                    aborted.process.record_migration_metrics(
                        MigrationVerdict::Aborted,
                        attempts,
                        &timings,
                        wall0,
                        aborted.rml_restored,
                        retry_causes,
                        Some(aborted.reason.clone()),
                    );
                    return Ok(MigrationOutcome::Aborted(Box::new(aborted)));
                }
            }
        }
    }

    /// Deposit this migration's measurements into the shared metrics
    /// registry. Skipped entirely when tracing is disabled so the
    /// Table 1 overhead experiment stays unpolluted.
    #[allow(clippy::too_many_arguments)]
    fn record_migration_metrics(
        &self,
        verdict: MigrationVerdict,
        attempts: u32,
        timings: &MigrationTimings,
        wall0: Instant,
        rml_restored: usize,
        retry_causes: Vec<String>,
        abort_cause: Option<String>,
    ) {
        let tracer = self.cell.tracer();
        if !tracer.is_enabled() {
            return;
        }
        tracer.metrics().record_migration(MigrationMetrics {
            rank: self.rank,
            verdict,
            attempts,
            coordinate_s: timings.coordinate_real_s,
            collect_s: timings.collect_modeled_s,
            tx_s: timings.tx_modeled_s,
            restore_s: timings.restore_modeled_s,
            pipelined_s: timings.pipelined_modeled_s,
            wall_s: wall0.elapsed().as_secs_f64(),
            state_bytes: timings.state_bytes,
            chunks: timings.chunks,
            rml_forwarded: timings.rml_forwarded,
            rml_restored,
            retry_causes,
            abort_cause,
        });
    }

    fn trace_mig(&self, kind: EventKind) {
        self.cell.trace(kind);
    }

    /// Fig 5 lines 5–7: send `peer_migrating` markers plus disconnection
    /// signals, drain every coordinated channel into the RML, absorb
    /// stragglers, close everything. Peers whose marker was delivered
    /// are appended to `coordinated` (the abort path re-announces to
    /// exactly those). Errors carry the abort cause; channels are closed
    /// and the coordinate timing stamped even on failure.
    fn coordinate_peers(
        &mut self,
        timings: &mut MigrationTimings,
        coordinated: &mut Vec<Rank>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let mut awaiting: HashSet<Rank> = self.cc.keys().copied().collect();
        let peers: Vec<Rank> = awaiting.iter().copied().collect();
        for peer in peers {
            let delivered = self.cc.get(&peer).is_some_and(|tx| {
                self.post_ctrl(tx, Payload::PeerMigrating, FrameClass::Control)
                    .is_ok()
            });
            self.trace_mig(EventKind::PeerMigratingSent { peer });
            if !delivered {
                // Peer already terminated; nothing to drain from it.
                awaiting.remove(&peer);
                continue;
            }
            coordinated.push(peer);
            // The disconnection signal interrupts the peer if it is
            // computing (Fig 6); if it is in recv, the marker alone
            // suffices (Fig 4 lines 12–14).
            if let Some(v) = self.pl.get(&peer) {
                self.cell
                    .send_signal(*v, Signal::Disconnect { from: self.rank });
            }
        }

        // Line 6: receive into the RML until end_of_messages (peer not
        // migrating) or peer_migrating (peer migrating simultaneously)
        // arrives from every connected peer. The deadline honours the
        // environment's time scale: a slowed modeled host legitimately
        // drains slowly.
        let deadline = Instant::now() + scaled_watchdog(self.cell.time_scale());
        let mut failure: Option<String> = None;
        while !awaiting.is_empty() {
            match self.next_event(TICK) {
                Err(e) => {
                    failure = Some(format!("environment failed during drain: {e}"));
                    break;
                }
                Ok(Some(Event::EndOfMessages(p) | Event::PeerMigrated(p))) => {
                    awaiting.remove(&p);
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    self.sample_drain_depth();
                    // Liveness check: a peer that died uncoordinated
                    // cannot ever send its marker.
                    awaiting.retain(|p| match self.pl.get(p) {
                        Some(v) => self.cell.shared().registry().addr_of(*v).is_some(),
                        None => false,
                    });
                    if Instant::now() >= deadline {
                        failure = Some(format!(
                            "drain watchdog expired awaiting markers from {} peer(s)",
                            awaiting.len()
                        ));
                        break;
                    }
                }
            }
        }

        // Absorb everything still deliverable in the inbox into the RML.
        // Live peers are fully drained by the marker protocol (FIFO puts
        // their data before end_of_messages); this catches messages from
        // peers that terminated after sending, which can never produce a
        // marker. Such frames may still sit *staged* behind a modeled
        // wire delay (e.g. injected jitter on the last message of a peer
        // that finished right after sending): wait the backlog out, or
        // those in-flight frames would be dropped with the channels.
        loop {
            while let Ok(Some(_)) = self.next_event(Duration::ZERO) {}
            if self.cell.inbox_backlog() == 0 || Instant::now() >= deadline {
                break;
            }
            let _ = self.next_event(TICK);
        }

        // Line 7: close all existing connections. Peers that coordinated
        // were closed by the marker handling; anything left (e.g.
        // simultaneous migration races, or a failed drain) closes here.
        let still_open: Vec<Rank> = self.cc.keys().copied().collect();
        for peer in still_open {
            self.close_channel_to(peer);
        }
        timings.coordinate_real_s = t0.elapsed().as_secs_f64();
        // Close the drain with a peak-depth sample so the registry sees
        // the link's high-water mark even if every tick caught it empty.
        let tracer = self.cell.tracer();
        if tracer.is_enabled() {
            tracer.metrics().sample_queue_depth(
                &format!("{}:staged-peak", self.cell.label()),
                tracer.now_ns(),
                self.cell.inbox_staged_high_water(),
            );
        }
        match failure {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// One queue-depth sample of this process's inbox, taken on each
    /// quiet tick of the drain loop. Feeds the per-link queue-depth
    /// series in the metrics registry.
    fn sample_drain_depth(&self) {
        let tracer = self.cell.tracer();
        if tracer.is_enabled() {
            tracer.metrics().sample_queue_depth(
                self.cell.label(),
                tracer.now_ns(),
                self.cell.inbox_backlog(),
            );
        }
    }

    /// One transfer attempt against `target`: connect, forward the RML
    /// batch, stream the state, wait for the destination's verdict.
    /// Errors are abort causes, not hard failures — the caller asks the
    /// scheduler what to do next.
    fn transfer_to(
        &mut self,
        target: Vmid,
        batch: &[Envelope],
        state: &ProcessState,
        timings: &mut MigrationTimings,
    ) -> Result<(), String> {
        timings.reset_attempt();

        // Line 8: a direct channel to the initialized process (it
        // accepts all connection requests, Fig 7 line 1).
        let state_tx = self
            .connect_to_vmid(target)
            .map_err(|e| format!("state-transfer connect failed: {e}"))?;

        self.trace_mig(EventKind::RmlForwarded {
            count: batch.len(),
            bytes: batch.iter().map(Envelope::wire_bytes).sum(),
        });
        self.post_ctrl(
            &state_tx,
            Payload::RmlBatch(batch.to_vec()),
            FrameClass::Data,
        )
        .map_err(|_| "transfer channel closed before the RML batch".to_string())?;

        // Lines 9–10: collect and send the execution and memory state
        // (cost modeled by host speed and link bandwidth).
        let speed = self.cell.host_spec().map(|h| h.speed).unwrap_or(1.0);
        let dest_speed = self
            .cell
            .shared()
            .host_spec(target.host)
            .map(|h| h.speed)
            .unwrap_or(1.0);
        let link = self.cell.shared().path(self.cell.vmid().host, target.host);

        if self.pipeline.is_monolithic() {
            // Serial path: collect everything, then ship one frame —
            // each stage strictly after the previous, as the paper
            // measures it.
            let mut bytes = state.collect();
            if self.corrupt_chunk.take().is_some() {
                // Failure injection: flip one body byte so the
                // destination's checksum verification rejects the image.
                if let Some(b) = bytes.last_mut() {
                    *b ^= 0xff;
                }
            }
            timings.state_bytes = bytes.len();
            timings.collect_modeled_s = self.cost.collect_seconds(bytes.len(), speed);
            let nap = self.cell.time_scale().real(timings.collect_modeled_s);
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            self.trace_mig(EventKind::StateCollected { bytes: bytes.len() });

            timings.tx_modeled_s = link.transfer_seconds(bytes.len());
            timings.restore_modeled_s = self.cost.restore_seconds(bytes.len(), dest_speed);
            timings.pipelined_modeled_s =
                timings.collect_modeled_s + timings.tx_modeled_s + timings.restore_modeled_s;
            timings.chunks = 1;
            self.post_ctrl(
                &state_tx,
                Payload::ExeMemState(Bytes::from(bytes)),
                FrameClass::Data,
            )
            .map_err(|_| "transfer channel closed sending the state frame".to_string())?;
            self.trace_mig(EventKind::StateTransmitted {
                bytes: timings.state_bytes,
            });
        } else {
            // Pipelined path: partition the state into chunks, encode on
            // a worker pool, ship each chunk as its own frame. Encoding
            // of chunk i+1 overlaps transmission of chunk i, and the
            // destination restores chunks as they arrive. The modeled
            // schedule tracks each chunk through `workers` encoders, the
            // FIFO wire, and the destination's restorer; its makespan is
            // the pipelined cost, while the plain sums remain the serial
            // (Table 2) stage costs.
            let cfg = self.pipeline.clone();
            let workers = cfg.workers.max(1);
            let mut corrupt = self.corrupt_chunk.take();
            let this = &*self;
            let cost = self.cost;
            let scale = this.cell.time_scale();
            let t0 = Instant::now();
            let mut worker_free = vec![0.0f64; workers];
            let mut wire_free = 0.0f64;
            let mut restore_free = 0.0f64;
            let mut collect_serial = 0.0f64;
            let mut tx_serial = 0.0f64;
            let mut restore_serial = 0.0f64;
            let summary = snow_state::stream_chunks(state, &cfg, |chunk| {
                let chunk_len = chunk.bytes.len();
                let c_s = cost.collect_seconds(chunk_len, speed);
                collect_serial += c_s;
                let w = (0..workers)
                    .min_by(|a, b| worker_free[*a].total_cmp(&worker_free[*b]))
                    .expect("at least one worker");
                worker_free[w] += c_s;
                let done_collect = worker_free[w];
                // Nap to this chunk's modeled encode-completion before
                // handing it to the wire, so the link model (which
                // serialises frames per sender) observes the overlapped
                // schedule rather than an instantaneous burst.
                let target = t0 + scale.real(done_collect);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                // Failure injection: misdeclare one chunk's checksum so
                // the destination's per-chunk verification rejects it.
                let mut checksum = chunk.checksum;
                if corrupt == Some(chunk.seq) {
                    corrupt = None;
                    checksum ^= 1;
                }
                let payload = Payload::ExeMemStateChunk {
                    seq: chunk.seq,
                    checksum,
                    bytes: Bytes::from(chunk.bytes),
                };
                let nbytes = this
                    .post_ctrl(&state_tx, payload, FrameClass::Data)
                    .map_err(|_| "transfer channel closed mid chunk stream".to_string())?;
                let tx_s = link.transfer_seconds(nbytes);
                tx_serial += tx_s;
                wire_free = done_collect.max(wire_free) + tx_s;
                let r_s = cost.restore_seconds(chunk_len, dest_speed);
                restore_serial += r_s;
                restore_free = wire_free.max(restore_free) + r_s;
                this.cell.trace(EventKind::StateChunkSent {
                    seq: chunk.seq,
                    bytes: chunk_len,
                });
                Ok::<(), String>(())
            })?;

            // Close the stream: the digest frame the destination must
            // reproduce before committing to the restored state.
            let digest = Payload::ExeMemStateDigest {
                digest: summary.digest,
                chunks: summary.chunks,
                total_bytes: summary.total_bytes as u64,
            };
            let nbytes = this
                .post_ctrl(&state_tx, digest, FrameClass::Data)
                .map_err(|_| "transfer channel closed sending the digest frame".to_string())?;
            let digest_tx_s = link.transfer_seconds(nbytes);
            tx_serial += digest_tx_s;
            wire_free += digest_tx_s;

            timings.state_bytes = summary.total_bytes;
            timings.collect_modeled_s = collect_serial;
            timings.tx_modeled_s = tx_serial;
            timings.restore_modeled_s = restore_serial;
            timings.pipelined_modeled_s = wire_free.max(restore_free);
            timings.chunks = summary.chunks as usize;
            timings.workers = cfg.workers;
            self.trace_mig(EventKind::StateCollected {
                bytes: summary.total_bytes,
            });
            self.trace_mig(EventKind::StateTransmitted {
                bytes: summary.total_bytes,
            });
        }

        // Phase-1 close: the destination verifies before we are allowed
        // to disappear.
        self.wait_state_ack(target)
    }

    /// Wait for the destination's [`Event::StateAck`], with per-tick
    /// liveness probes (a vanished destination can never answer) and a
    /// time-scaled watchdog. Acks from earlier, already-reaped attempts
    /// are discarded by vmid.
    fn wait_state_ack(&mut self, target: Vmid) -> Result<(), String> {
        let deadline = Instant::now() + scaled_watchdog(self.cell.time_scale());
        loop {
            match self.next_event(TICK) {
                Err(e) => return Err(format!("environment failed awaiting state ack: {e}")),
                Ok(Some(Event::StateAck { ok, from, detail })) => {
                    if from != target {
                        continue; // stale ack from an aborted attempt
                    }
                    if ok {
                        return Ok(());
                    }
                    return Err(format!("destination rejected the state: {detail}"));
                }
                Ok(Some(Event::StateBatch(returned))) => {
                    // A dying destination returned peer deposits; hold
                    // them in the RML for the retry/abort path.
                    for env in returned {
                        self.rml.append(env);
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    if self.cell.shared().registry().addr_of(target).is_none() {
                        return Err("destination vanished awaiting state ack".to_string());
                    }
                    if Instant::now() >= deadline {
                        return Err("state ack watchdog expired".to_string());
                    }
                }
            }
        }
    }

    /// Report the failed transfer and wait for the scheduler's ruling:
    /// retry against a replacement destination, final abort, or denial
    /// because the destination already committed.
    fn request_abort(&mut self, cause: &str) -> Result<AbortDecision, ProtoError> {
        self.cell.sched_send(SchedRequest::MigrationAbort {
            rank: self.rank,
            reason: cause.to_string(),
            reply: self.cell.reply_sender(),
        })?;
        loop {
            match self.wait_event("migration abort handshake")? {
                Event::Sched(SchedReply::MigrationRetry {
                    new_vmid,
                    attempt,
                    backoff_ms,
                }) => {
                    return Ok(AbortDecision::Retry {
                        new_vmid,
                        attempt,
                        backoff_ms,
                    })
                }
                Event::Sched(SchedReply::MigrationAborted { rank }) if rank == self.rank => {
                    return Ok(AbortDecision::Aborted)
                }
                Event::Sched(SchedReply::MigrationAbortDenied { rank }) if rank == self.rank => {
                    return Ok(AbortDecision::Denied)
                }
                Event::Sched(SchedReply::Error { reason }) => {
                    return Err(ProtoError::Scheduler(reason))
                }
                Event::StateBatch(returned) => {
                    for env in returned {
                        self.rml.append(env);
                    }
                }
                _ => continue,
            }
        }
    }

    /// Roll the process back to a running state after a final abort: the
    /// scheduler has already restored the directory. Restores the
    /// retained RML in front of anything received since (zero loss),
    /// re-opens the connection gates, and re-announces to the peers that
    /// were coordinated away with a [`Payload::MigrationAborted`] marker
    /// (best effort — a peer that migrated or terminated meanwhile is
    /// skipped; it re-locates us on demand through the directory).
    fn roll_back(
        mut self,
        mut batch: Vec<Envelope>,
        coordinated: &[Rank],
        reason: String,
        attempts: u32,
    ) -> AbortedMigration {
        // Sweep any already-delivered deposit return from the reaped
        // destination before restoring the batch.
        while let Ok(Some(ev)) = self.next_event(Duration::ZERO) {
            if let Event::StateBatch(returned) = ev {
                for env in returned {
                    self.rml.append(env);
                }
            }
        }
        batch.extend(self.rml.drain_all());
        let rml_restored = batch.len();
        self.rml.prepend_batch(batch);
        // Reopen the gates only after the RML is back in place: nothing
        // new can be accepted while `migrating` still nacks for us.
        self.migrating = false;
        self.migrate_pending = false;
        self.cell.set_reject_all(false);
        self.trace_mig(EventKind::MigrationAborted {
            rank: self.rank,
            attempt: attempts,
        });
        for &peer in coordinated {
            if self.connect(peer).is_err() {
                continue;
            }
            if let Some(tx) = self.cc.get(&peer) {
                let _ = self.post_ctrl(tx, Payload::MigrationAborted, FrameClass::Control);
            }
        }
        AbortedMigration {
            process: self,
            reason,
            attempts,
            rml_restored,
        }
    }

    /// Establish a channel to an explicit vmid (the initialized
    /// process). Same `conn_req` as `connect()` but addressed by vmid,
    /// since the PL table still maps our rank to ourselves. Nacks are
    /// retried with exponential backoff under a time-scaled watchdog
    /// deadline; a departed destination host fails fast.
    fn connect_to_vmid(&mut self, target: Vmid) -> Result<PostSender<Incoming>, ProtoError> {
        let deadline = Instant::now() + scaled_watchdog(self.cell.time_scale());
        let mut backoff = Duration::from_millis(1);
        const BACKOFF_CAP: Duration = Duration::from_millis(64);
        // A grant from an earlier, reaped attempt may have parked a
        // stale transfer channel under our rank; clear it so the next
        // grant records cleanly.
        self.cc.remove(&self.rank);
        loop {
            // A destination host that left the environment can never
            // grant: fail fast instead of burning the whole deadline.
            if self.cell.shared().host_spec(target.host).is_none() {
                return Err(ProtoError::Env(snow_vm::process::EnvError::HostGone(
                    target.host,
                )));
            }
            let req_id = self.cell.next_req_id();
            // The request and its reply are datagrams: either may be
            // dropped by an armed fault plan, so re-send under the same
            // req_id until the destination answers.
            let mut next_resend = Instant::now();
            loop {
                if Instant::now() >= next_resend {
                    next_resend = Instant::now() + CONN_RESEND;
                    self.route_conn_req(req_id, target)?;
                }
                let Some(ev) = self.next_event(TICK)? else {
                    if Instant::now() >= deadline {
                        return Err(ProtoError::Watchdog("state-transfer connect"));
                    }
                    continue;
                };
                match ev {
                    Event::Granted { req_id: r, .. } if r == req_id => {
                        // Do not record this in cc: it is the transfer
                        // channel, not an application connection. Build
                        // a dedicated sender from the grant.
                        // `classify` stored it in cc under our own rank
                        // (peer_rank == self.rank); pull it back out.
                        return match self.cc.remove(&self.rank) {
                            Some(tx) => Ok(tx),
                            None => Err(ProtoError::Protocol(
                                "transfer-channel grant carried no channel",
                            )),
                        };
                    }
                    Event::Nacked { req_id: r } if r == req_id => {
                        // Initialized process not ready yet (spawn
                        // race): back off and retry until the scaled
                        // watchdog gives up.
                        if Instant::now() >= deadline {
                            return Err(ProtoError::Watchdog("state-transfer connect"));
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                        break;
                    }
                    Event::Granted { peer, .. } if peer == self.rank => {
                        // Stale grant from a reaped earlier attempt:
                        // drop the channel it parked so the grant we
                        // are waiting for records cleanly.
                        self.cc.remove(&self.rank);
                    }
                    Event::StateBatch(returned) => {
                        // Deposit return from the previous, reaped
                        // attempt arriving while we connect to the
                        // replacement.
                        for env in returned {
                            self.rml.append(env);
                        }
                    }
                    _ => continue,
                }
            }
        }
    }
}

/// Send the destination's verdict on the transferred state back to the
/// source over the transfer back-channel (recorded in `cc` under the
/// migrating rank when the source's `conn_req` was granted).
fn send_state_ack(p: &SnowProcess, rank: Rank, ok: bool, detail: &str) {
    if let Some(tx) = p.cc.get(&rank) {
        let ack = Payload::StateAck {
            ok,
            from: p.cell.vmid(),
            detail: detail.to_string(),
        };
        let _ = p.post_ctrl(tx, ack, FrameClass::Control);
    }
}

/// Return every message peers deposited at this half-initialized
/// destination to the source (ahead of the verdict on the same FIFO
/// channel), so an abort loses nothing: the source folds them behind its
/// retained RML batch.
fn return_deposits(p: &mut SnowProcess, rank: Rank) {
    let deposits = p.rml.drain_all();
    if deposits.is_empty() {
        return;
    }
    if let Some(tx) = p.cc.get(&rank) {
        let _ = p.post_ctrl(tx, Payload::RmlBatch(deposits), FrameClass::Control);
    }
}

/// Tear down a failing initialization: trace the discarded partial
/// restore, return peer deposits, send the negative verdict, and hand
/// the caller the error to die with.
fn abort_initialize(
    mut p: SnowProcess,
    rank: Rank,
    teardown: Option<RestoreTeardown>,
    detail: String,
    err: ProtoError,
) -> ProtoError {
    let (chunks, bytes) = teardown
        .map(|t| (t.chunks_received, t.bytes_received))
        .unwrap_or((0, 0));
    p.cell
        .trace(EventKind::StateRestoreAborted { chunks, bytes });
    return_deposits(&mut p, rank);
    send_state_ack(&p, rank, false, &detail);
    err
}

/// The initialize() algorithm (Fig 7): the body of the process the
/// scheduler spawned on the destination host. Accepts every connection
/// request from the start, buffers early traffic, receives the forwarded
/// RML and the exe+mem state, completes the scheduler handshake, and
/// restores the state.
///
/// The state arrives either as one monolithic `ExeMemState` frame
/// (restored after the commit handshake, as in the paper) or as a
/// pipelined `ExeMemStateChunk` stream, where each chunk is verified and
/// decoded as it arrives — restore overlaps the remaining transmission —
/// and the closing digest frame must match before the state is trusted.
/// Either way the image is verified *before* the commit handshake and
/// acknowledged to the source with a [`Payload::StateAck`]; a rejected
/// image (or a protocol violation: duplicate RML batch, monolithic
/// frame after a chunk stream) sends a negative ack, returns any peer
/// deposits to the source, and errors out. A
/// [`SchedReply::MigrationAborted`] reap order from the scheduler makes
/// the process stand down with [`ProtoError::MigrationAborted`].
///
/// Returns the resumed [`SnowProcess`] (with the merged RML and the
/// authoritative PL table), the restored [`ProcessState`], and the
/// restore timing for Table 2.
pub fn initialize(
    cell: ProcessCell,
    rank: Rank,
    cost: StateCostModel,
    pipeline: PipelineConfig,
) -> Result<(SnowProcess, ProcessState, f64), ProtoError> {
    let mut p = SnowProcess::fresh(cell, rank, cost);
    p.pipeline = pipeline;
    let speed = p.cell.host_spec().map(|h| h.speed).unwrap_or(1.0);
    // Line 1: all conn_req accepted from here on — `classify` grants by
    // default.
    let mut forwarded_rml: Option<Vec<Envelope>> = None;
    let mut mono_bytes: Option<Bytes> = None;
    let mut restorer: Option<ChunkedRestorer> = None;
    let mut restored: Option<(ProcessState, usize)> = None;
    let mut restore_modeled_s = 0.0f64;
    // Lines 2–4: receive the RML, buffering and granting meanwhile, then
    // the exe+mem state (FIFO on the transfer channel guarantees the RML
    // arrives first, and that chunks arrive in sequence).
    while mono_bytes.is_none() && restored.is_none() {
        match p.wait_event("initialize")? {
            Event::StateBatch(batch) => {
                if forwarded_rml.is_some() {
                    let t = restorer.take().map(ChunkedRestorer::abort);
                    return Err(abort_initialize(
                        p,
                        rank,
                        t,
                        "duplicate RML batch".to_string(),
                        ProtoError::Protocol("duplicate RML batch"),
                    ));
                }
                forwarded_rml = Some(batch);
            }
            Event::State(bytes) => {
                if restorer.is_some() {
                    let t = restorer.take().map(ChunkedRestorer::abort);
                    return Err(abort_initialize(
                        p,
                        rank,
                        t,
                        "monolithic state frame after a chunk stream".to_string(),
                        ProtoError::Protocol("monolithic state frame after a chunk stream"),
                    ));
                }
                // Verify before the commit handshake: a corrupted image
                // must abort the migration, not commit it. (The actual
                // decode still runs after commit, as the paper orders
                // it.)
                if let Err(e) = ProcessState::verify(&bytes) {
                    let detail = format!("monolithic state rejected: {e}");
                    return Err(abort_initialize(
                        p,
                        rank,
                        None,
                        detail,
                        ProtoError::State(e),
                    ));
                }
                mono_bytes = Some(bytes);
            }
            Event::StateChunk {
                seq,
                checksum,
                bytes,
            } => {
                match restorer
                    .get_or_insert_with(ChunkedRestorer::new)
                    .push(seq, checksum, &bytes)
                {
                    Ok(()) => {}
                    Err(e) => {
                        let t = restorer.take().map(ChunkedRestorer::abort);
                        let detail = format!("chunk {seq} rejected: {e}");
                        return Err(abort_initialize(p, rank, t, detail, ProtoError::State(e)));
                    }
                }
                // Incremental restore: nap this chunk's modeled decode
                // cost now, overlapping the rest of the transmission.
                let nap_s = cost.restore_seconds(bytes.len(), speed);
                restore_modeled_s += nap_s;
                let nap = p.cell.time_scale().real(nap_s);
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
                p.cell.trace(EventKind::StateChunkRestored {
                    seq,
                    bytes: bytes.len(),
                });
            }
            Event::StateDigest {
                digest,
                chunks,
                total_bytes,
            } => {
                let Some(r) = restorer.take() else {
                    return Err(abort_initialize(
                        p,
                        rank,
                        None,
                        "digest frame with no chunks".to_string(),
                        ProtoError::State(StateError::StreamIncomplete(
                            "digest frame with no chunks",
                        )),
                    ));
                };
                let t = RestoreTeardown {
                    chunks_received: r.chunks_received(),
                    bytes_received: r.bytes_received(),
                    nodes_decoded: r.nodes_decoded(),
                };
                match r.finish(digest, chunks, total_bytes) {
                    Ok(state) => restored = Some((state, total_bytes as usize)),
                    Err(e) => {
                        let detail = format!("state digest rejected: {e}");
                        return Err(abort_initialize(
                            p,
                            rank,
                            Some(t),
                            detail,
                            ProtoError::State(e),
                        ));
                    }
                }
            }
            Event::Sched(SchedReply::MigrationAborted { rank: r }) if r == rank => {
                // Reap order: the source aborted (or the scheduler's
                // deadline expired). Return whatever peers deposited
                // here and stand down.
                let t = restorer.take().map(ChunkedRestorer::abort);
                if let Some(t) = t {
                    p.cell.trace(EventKind::StateRestoreAborted {
                        chunks: t.chunks_received,
                        bytes: t.bytes_received,
                    });
                }
                return_deposits(&mut p, rank);
                return Err(ProtoError::MigrationAborted);
            }
            _ => continue,
        }
    }
    // Line 3: insert the forwarded list *in front of* locally received
    // messages.
    p.rml.prepend_batch(forwarded_rml.unwrap_or_default());
    // The image survived verification: the positive ack releases the
    // source (Fig 5 line 11) while we complete the commit handshake.
    send_state_ack(&p, rank, true, "");
    // The transfer channel was recorded under our own rank; it is not an
    // application connection.
    p.cc.remove(&rank);

    // Line 5: inform the scheduler restore_complete.
    p.cell.sched_send(SchedRequest::RestoreComplete {
        rank,
        new_vmid: p.cell.vmid(),
        reply: p.cell.reply_sender(),
    })?;
    // Line 6: wait for the PL table and old vmid.
    loop {
        match p.wait_event("PL table handshake")? {
            Event::Sched(SchedReply::PlTable {
                entries,
                old_vmid: _,
            }) => {
                for (r, v) in entries {
                    // Our own row still names the initialized process's
                    // predecessor until commit; we are authoritative for
                    // ourselves.
                    if r != rank {
                        p.pl.insert(r, v);
                    }
                }
                p.pl.insert(rank, p.cell.vmid());
                break;
            }
            Event::Sched(SchedReply::MigrationAborted { rank: r }) if r == rank => {
                return Err(ProtoError::MigrationAborted);
            }
            Event::Sched(SchedReply::Error { reason }) => {
                return Err(ProtoError::Scheduler(reason))
            }
            _ => continue,
        }
    }
    // Line 7: migration_commit.
    p.cell.sched_send(SchedRequest::MigrationCommit { rank })?;

    // Line 8: restore the process state (cost modeled by host speed).
    // The chunked path already decoded and napped incrementally while
    // the stream was in flight; the monolithic path restores here.
    let (state, state_len) = match (mono_bytes, restored) {
        (Some(bytes), _) => {
            let state = ProcessState::restore(&bytes)?;
            restore_modeled_s = cost.restore_seconds(bytes.len(), speed);
            let nap = p.cell.time_scale().real(restore_modeled_s);
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            (state, bytes.len())
        }
        (None, Some((state, len))) => (state, len),
        (None, None) => unreachable!("loop exits only with state"),
    };
    p.cell.trace(EventKind::StateRestored { bytes: state_len });
    Ok((p, state, restore_modeled_s))
}
