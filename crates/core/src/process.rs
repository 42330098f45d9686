//! The SNOW process runtime: send (Fig 2), connect (Fig 3), recv (Fig 4)
//! and the disconnection handler (Fig 6).
//!
//! A [`SnowProcess`] wraps a virtual-machine [`ProcessCell`] with the
//! paper's protocol state: the PL-table cache `pl[]`, the `Connected`
//! set with its channels `cc[]`, the received-message-list, and the
//! `Closed_conn` coordination counter. All algorithm line references in
//! comments are to the paper's figures.

use crate::error::ProtoError;
use crate::rml::Rml;
use bytes::Bytes;
use snow_net::FrameClass;
use snow_state::{PipelineConfig, StateCostModel};
use snow_trace::EventKind;
use snow_vm::post::InboxClosed;
use snow_vm::process::EnvError;
use snow_vm::wire::{ConnReqMsg, Ctrl, ExeStatus, SchedReply, SchedRequest};
use snow_vm::{
    Envelope, HostId, Incoming, Payload, PostSender, ProcessCell, Rank, Signal, Tag, Vmid,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tag used by protocol marker envelopes (`peer_migrating`,
/// `end_of_messages`); never surfaced to applications.
const TAG_CTRL: Tag = -1;

/// How long a blocking protocol step may stall before reporting a
/// watchdog error instead of hanging (peers dying uncoordinated are
/// outside the paper's failure model).
pub(crate) const WATCHDOG: Duration = Duration::from_secs(60);

/// Granularity at which blocked protocol loops wake to run liveness
/// checks.
pub(crate) const TICK: Duration = Duration::from_millis(25);

/// How long `connect` waits for a grant/nack before re-sending the
/// `conn_req` under the same request id. The request and its reply ride
/// the connectionless datagram service (§2.3), so either leg may be
/// lost; re-sending is the requester's recovery, and the daemon/target
/// dedup duplicate requests.
const CONN_RESEND: Duration = Duration::from_millis(110);

/// The watchdog window stretched for slowed modeled hosts: a
/// `time_scale` that makes modeled seconds real must also stretch the
/// deadline, or a legitimately slow drain/transfer trips the watchdog
/// spuriously.
pub(crate) fn scaled_watchdog(scale: snow_net::TimeScale) -> Duration {
    WATCHDOG.max(scale.real(WATCHDOG.as_secs_f64()))
}

/// How many consecutive re-lookups may name the very vmid that just
/// nacked before `connect` reports the target as dead.
const MAX_STALE_RETRIES: u32 = 400;

/// Pause before re-sending a `conn_req` to a location the scheduler has
/// just confirmed although its process nacked.
const STALE_WAIT: Duration = Duration::from_millis(2);

/// Events surfaced by the shared inbox classifier. Everything it fully
/// handles itself (data buffering, inbound connection grants, the
/// bookkeeping of pending outbound connects, deposits a failed
/// destination returns to a migrating process) reports as
/// [`Event::Handled`].
#[derive(Debug)]
pub(crate) enum Event {
    /// Nothing for the caller: the message was fully handled.
    Handled,
    /// A scheduler reply arrived.
    Sched(SchedReply),
    /// A `peer_migrating` marker from `rank` was processed: the channel
    /// is closed and `Closed_conn` incremented.
    PeerMigrated(Rank),
    /// An `end_of_messages` marker from `rank` (meaningful during a
    /// migration drain).
    EndOfMessages(Rank),
    /// The forwarded received-message-list (initialization only).
    StateBatch(Vec<Envelope>),
    /// One chunk of the exe+mem state stream (initialization only).
    StateChunk {
        /// Position in the stream (0 = header chunk).
        seq: u32,
        /// XXH64 of `bytes`.
        checksum: u64,
        /// The chunk's slice of the canonical state body.
        bytes: Bytes,
    },
    /// The digest frame closing the state stream (initialization
    /// only).
    StateDigest {
        /// Whole-body XXH64.
        digest: u64,
        /// Chunk count the source sent.
        chunks: u32,
        /// Total body bytes the source sent.
        total_bytes: u64,
    },
    /// The destination's verdict on a transferred state image
    /// (migration source only).
    StateAck {
        /// Whether the destination restored the state successfully.
        ok: bool,
        /// The destination's vmid — lets the source discard acks from an
        /// earlier, already-aborted attempt.
        from: Vmid,
        /// Failure detail when `ok` is false.
        detail: String,
    },
}

/// Progress of one connection establishment toward a destination rank:
/// Fig 3 as a state machine. [`SnowProcess::connect_step`] sends its
/// messages and the inbox classifier feeds it the replies, so the
/// blocking and the cooperative drivers run the same machine.
#[derive(Debug)]
struct PendingConn {
    stage: ConnStage,
    /// Consecutive re-lookups that named the vmid that had just nacked.
    stale: u32,
}

#[derive(Debug)]
enum ConnStage {
    /// Send a fresh `conn_req` to `pl[dest]` (or look `dest` up first)
    /// once `at` passes.
    Retry { at: Instant },
    /// A scheduler lookup for the destination's location is in flight.
    Lookup {
        /// When to re-issue the lookup if no reply has landed (either
        /// leg may ride a lossy datagram link).
        next_resend: Instant,
        /// The refusal that prompted the lookup (none for a cold one).
        refused: Option<Refusal>,
    },
    /// A `conn_req` is outstanding at `target`.
    Req {
        /// The request id we sent (grants/nacks quote it back).
        req_id: u64,
        /// The vmid the request was addressed to.
        target: Vmid,
        /// When to re-send under the same `req_id` (§2.3: the
        /// connectionless service may drop either leg).
        next_resend: Instant,
    },
    /// The attempt failed; the next connect step toward this rank
    /// returns the error.
    Failed(ProtoError),
}

/// Why a connection attempt had to re-locate its destination.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// The process at this vmid nacked our `conn_req`.
    Nacked(Vmid),
    /// The target's host has left: our own daemon rejected on its
    /// behalf (§3.1).
    HostGone(HostId),
}

/// A SNOW application process: the paper's protocol endpoint.
pub struct SnowProcess {
    pub(crate) cell: ProcessCell,
    pub(crate) rank: Rank,
    /// PL-table cache: rank → vmid (§2.1).
    pub(crate) pl: HashMap<Rank, Vmid>,
    /// `Connected` + `cc[]`: open logical channels per peer rank.
    pub(crate) cc: HashMap<Rank, PostSender<Incoming>>,
    /// The received-message-list (§3.1).
    pub(crate) rml: Rml,
    /// The `Closed_conn` coordination counter (Fig 6).
    pub(crate) closed_conn: u32,
    /// In-flight connection attempts (Fig 3, stepwise).
    pending_conn: HashMap<Rank, PendingConn>,
    /// Set once a `migration_request` signal has been intercepted.
    pub(crate) migrate_pending: bool,
    /// True while running `migrate()`: inbound `conn_req`s are nacked
    /// and returned deposits are filed in the RML.
    pub(crate) migrating: bool,
    /// State collect/restore cost model.
    pub(crate) cost: StateCostModel,
    /// Chunked state-transfer knobs used by `migrate()`.
    pub(crate) pipeline: PipelineConfig,
    /// Failure-injection hook: corrupt this chunk seq on the *next*
    /// migration attempt (one-shot; cleared when consumed).
    pub(crate) corrupt_chunk: Option<u32>,
}

impl SnowProcess {
    /// Wrap a freshly spawned process.
    pub fn fresh(cell: ProcessCell, rank: Rank, cost: StateCostModel) -> Self {
        let mut pl = HashMap::new();
        pl.insert(rank, cell.vmid());
        SnowProcess {
            cell,
            rank,
            pl,
            cc: HashMap::new(),
            rml: Rml::new(),
            closed_conn: 0,
            pending_conn: HashMap::new(),
            migrate_pending: false,
            migrating: false,
            cost,
            pipeline: PipelineConfig::default(),
            corrupt_chunk: None,
        }
    }

    /// Override the chunked state-transfer configuration this process
    /// will use when it migrates.
    pub fn set_pipeline(&mut self, cfg: PipelineConfig) {
        self.pipeline = cfg;
    }

    /// Failure injection for tests: flip one bit in chunk `seq` of the
    /// next migration's state stream, forcing the destination's checksum
    /// check to fail and the migration to abort (or retry, under a
    /// scheduler retry policy). One-shot: a retried attempt transmits
    /// clean.
    pub fn inject_chunk_corruption(&mut self, seq: u32) {
        self.corrupt_chunk = Some(seq);
    }

    /// Install PL-table rows (rank → vmid). §2.1: "the PL table is
    /// stored inside the memory spaces of every process" — launchers
    /// distribute the initial table so first connections route directly
    /// instead of consulting the scheduler (consultation is reserved for
    /// the on-demand update after a `conn_nack`, Fig 3).
    pub fn install_pl(&mut self, entries: &[(Rank, Vmid)]) {
        for (r, v) in entries {
            if *r != self.rank {
                self.pl.insert(*r, *v);
            }
        }
    }

    /// This process's application rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// This process's vmid.
    pub fn vmid(&self) -> Vmid {
        self.cell.vmid()
    }

    /// Ranks currently in the `Connected` set.
    pub fn connected(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.cc.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Messages buffered in the received-message-list.
    pub fn rml_len(&self) -> usize {
        self.rml.len()
    }

    /// The environment cell (host spec, tracer, ...).
    pub fn cell(&self) -> &ProcessCell {
        &self.cell
    }

    fn trace(&self, kind: EventKind) {
        self.cell.trace(kind);
    }

    // ------------------------------------------------------------------
    // Shared inbox processing
    // ------------------------------------------------------------------

    /// Receive and classify the next inbox message, fully handling
    /// everything that has a context-independent reaction:
    /// * data messages → RML (Fig 4 line 7),
    /// * `peer_migrating` → close channel + `Closed_conn += 1`
    ///   (Fig 4 lines 12–14),
    /// * inbound `conn_req` → grant, or nack while migrating
    ///   (Fig 4 lines 9–11 / Fig 5 line 4),
    /// * grants, nacks and location replies → the pending connect they
    ///   answer (Fig 3 lines 3–14), whatever the caller is waiting for,
    /// * while migrating, deposits a failed destination returns → RML.
    ///
    /// Returns `Ok(None)` on a tick timeout so callers can run liveness
    /// checks; errors with [`ProtoError::Watchdog`] via
    /// [`Self::wait_event`].
    pub(crate) fn next_event(&mut self, timeout: Duration) -> Result<Option<Event>, ProtoError> {
        let inc = match self.cell.recv_incoming_timeout(timeout) {
            Ok(Some(inc)) => inc,
            Ok(None) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(self.classify(inc)))
    }

    fn classify(&mut self, inc: Incoming) -> Event {
        match inc {
            Incoming::Data(env) => match env.payload {
                Payload::Data(_) => {
                    self.trace(EventKind::RmlAppend {
                        from: env.src,
                        tag: env.tag,
                        msg: env.msg,
                    });
                    self.rml.append(env);
                    Event::Handled
                }
                Payload::PeerMigrating => {
                    let src = env.src;
                    self.trace(EventKind::PeerMigratingSeen { peer: src });
                    self.close_channel_to(src);
                    self.closed_conn += 1;
                    Event::PeerMigrated(src)
                }
                Payload::EndOfMessages => {
                    self.trace(EventKind::EndOfMessages { peer: env.src });
                    Event::EndOfMessages(env.src)
                }
                // A migrating process receives a batch only from a failed
                // destination returning the deposits peers left there:
                // hold them for the retry or the roll-back.
                Payload::RmlBatch(batch) if self.migrating => {
                    for env in batch {
                        self.rml.append(env);
                    }
                    Event::Handled
                }
                Payload::RmlBatch(batch) => Event::StateBatch(batch),
                Payload::ExeMemStateChunk {
                    seq,
                    checksum,
                    bytes,
                } => Event::StateChunk {
                    seq,
                    checksum,
                    bytes,
                },
                Payload::ExeMemStateDigest {
                    digest,
                    chunks,
                    total_bytes,
                } => Event::StateDigest {
                    digest,
                    chunks,
                    total_bytes,
                },
                Payload::StateAck { ok, from, detail } => Event::StateAck { ok, from, detail },
                Payload::MigrationAborted => {
                    self.trace(EventKind::MigrationAbortSeen { peer: env.src });
                    Event::Handled
                }
            },
            Incoming::Ctrl(ctrl) => match ctrl {
                Ctrl::ConnReq(req) => {
                    if self.migrating {
                        // Fig 5 line 4: a migrating process rejects
                        // connection requests itself.
                        let req_id = req.req_id;
                        let target = req.target;
                        self.trace(EventKind::ConnNack { to: req.from_rank });
                        self.cell
                            .answer_conn_req(req_id, Ctrl::ConnNack { req_id, target });
                    } else {
                        self.grant(req);
                    }
                    Event::Handled
                }
                Ctrl::ConnGrant {
                    peer_rank,
                    peer_vmid,
                    data_to_granter,
                    ..
                } => {
                    self.note_grant(peer_rank, peer_vmid, data_to_granter);
                    Event::Handled
                }
                Ctrl::ConnNack { req_id, .. } => {
                    self.note_nack(req_id);
                    Event::Handled
                }
                Ctrl::Sched(reply) => {
                    if let SchedReply::Location {
                        about,
                        status,
                        vmid,
                    } = reply
                    {
                        self.note_location(about, status, vmid);
                    }
                    Event::Sched(reply)
                }
                // Normal processes never receive scheduler *requests*.
                Ctrl::SchedRequest(_) => Event::Handled,
            },
        }
    }

    /// A grant opens the channel toward `peer` (Fig 3), but only for the
    /// request it answers: while a `conn_req` toward `peer` is
    /// outstanding at one vmid, a grant from another (a late duplicate
    /// from the peer's old location, or from a reaped state-transfer
    /// destination) is dropped with its channel.
    fn note_grant(&mut self, peer: Rank, vmid: Vmid, tx: PostSender<Incoming>) {
        if matches!(
            self.pending_conn.get(&peer),
            Some(PendingConn { stage: ConnStage::Req { target, .. }, .. }) if *target != vmid
        ) {
            return;
        }
        self.pl.insert(peer, vmid);
        // Crossing-request dedup: the first established channel wins so
        // each direction stays on one wire.
        if let std::collections::hash_map::Entry::Vacant(e) = self.cc.entry(peer) {
            e.insert(tx);
            self.trace(EventKind::ChannelOpen { peer });
        }
        self.pending_conn.remove(&peer);
    }

    /// Fig 3 lines 9–14: a nack for a pending `conn_req` invalidates the
    /// cached location and fires the re-lookup. A nack no pending
    /// connect owns answers a request already settled, and is dropped.
    fn note_nack(&mut self, req_id: u64) {
        let nacked = self.pending_conn.iter().find_map(|(d, pc)| match pc.stage {
            ConnStage::Req {
                req_id: r, target, ..
            } if r == req_id => Some((*d, target)),
            _ => None,
        });
        if let Some((dest, target)) = nacked {
            self.trace(EventKind::ConnNack { to: dest });
            self.relocate(dest, Refusal::Nacked(target));
        }
    }

    /// The scheduler's answer to a pending connect's lookup (Fig 3
    /// lines 10–14), judged against the refusal that prompted it.
    fn note_location(&mut self, about: Rank, status: ExeStatus, vmid: Option<Vmid>) {
        let Some(pc) = self.pending_conn.get_mut(&about) else {
            return;
        };
        let ConnStage::Lookup { refused, .. } = pc.stage else {
            return;
        };
        let v = match (status, vmid) {
            (ExeStatus::Terminated, _) | (_, None) => {
                pc.stage = ConnStage::Failed(ProtoError::DestinationTerminated(about));
                return;
            }
            (_, Some(v)) => v,
        };
        self.pl.insert(about, v);
        pc.stage = match refused {
            // The directory still names the departed host: the
            // destination is unreachable.
            Some(Refusal::HostGone(h)) if v.host == h => {
                ConnStage::Failed(ProtoError::Env(EnvError::HostGone(h)))
            }
            // The same process nacked and is still listed: it is dead
            // but the scheduler has not (yet) heard. Retry briefly, then
            // report instead of spinning forever — peers dying
            // uncoordinated are outside the paper's failure model, so
            // this is surfaced, not masked.
            Some(Refusal::Nacked(t)) if t == v => {
                pc.stale += 1;
                if pc.stale >= MAX_STALE_RETRIES {
                    ConnStage::Failed(ProtoError::Watchdog("connect retries"))
                } else {
                    ConnStage::Retry {
                        at: Instant::now() + STALE_WAIT,
                    }
                }
            }
            _ => {
                pc.stale = 0;
                ConnStage::Retry { at: Instant::now() }
            }
        };
    }

    /// Block for the next event, up to the watchdog limit.
    pub(crate) fn wait_event(&mut self, what: &'static str) -> Result<Event, ProtoError> {
        let deadline = Instant::now() + WATCHDOG;
        loop {
            if let Some(ev) = self.next_event(TICK)? {
                return Ok(ev);
            }
            if Instant::now() >= deadline {
                return Err(ProtoError::Watchdog(what));
            }
        }
    }

    /// Grant an inbound connection request (`grant_connection_to`,
    /// Fig 3 line 7 / Fig 4 line 10). A crossing request from a rank we
    /// are connecting to settles our own attempt (Fig 3 lines 6–8).
    fn grant(&mut self, req: ConnReqMsg) {
        let peer = req.from_rank;
        self.pl.insert(peer, req.from_vmid);
        let grant = Ctrl::ConnGrant {
            req_id: req.req_id,
            peer_rank: self.rank,
            peer_vmid: self.cell.vmid(),
            data_to_granter: self.cell.data_sender_to_me(req.from_vmid.host),
        };
        self.trace(EventKind::ConnAck { from: peer });
        self.cell.answer_conn_req(req.req_id, grant);
        if let std::collections::hash_map::Entry::Vacant(e) = self.cc.entry(peer) {
            e.insert(req.data_to_requester);
            self.trace(EventKind::ChannelOpen { peer });
        }
        self.pending_conn.remove(&peer);
    }

    /// Route a `conn_req` from this process to `target` under `req_id`,
    /// carrying the data channel the target will use toward us (Fig 3
    /// line 2).
    pub(crate) fn route_conn_req(&self, req_id: u64, target: Vmid) -> Result<(), EnvError> {
        self.cell.route_conn_req(ConnReqMsg {
            req_id,
            from_rank: self.rank,
            from_vmid: self.cell.vmid(),
            target,
            reply: self.cell.reply_sender(),
            data_to_requester: self.cell.data_sender_to_me(target.host),
        })
    }

    /// Close the channel toward `peer`, sending `end_of_messages` as the
    /// last message on it (§3.2.2).
    pub(crate) fn close_channel_to(&mut self, peer: Rank) {
        if let Some(tx) = self.cc.remove(&peer) {
            let _ = self.post_ctrl(&tx, Payload::EndOfMessages, FrameClass::Control);
            self.trace(EventKind::ChannelClose { peer });
        }
    }

    /// Post a protocol frame (tag [`TAG_CTRL`]) on `tx` as `class`,
    /// returning its modeled wire size.
    pub(crate) fn post_ctrl(
        &self,
        tx: &PostSender<Incoming>,
        payload: Payload,
        class: FrameClass,
    ) -> Result<usize, InboxClosed> {
        let env = Envelope {
            src: self.rank,
            tag: TAG_CTRL,
            msg: self.cell.tracer().next_msg_id(),
            payload,
        };
        let bytes = env.wire_bytes();
        tx.send_classed(Incoming::Data(env), bytes, class)
            .map(|()| bytes)
    }

    // ------------------------------------------------------------------
    // The protocol steps: connect (Fig 3), send (Fig 2), recv (Fig 4)
    // ------------------------------------------------------------------
    //
    // Each step advances its algorithm without blocking, so a bounded
    // worker pool can multiplex thousands of ranks: a blocked `connect`
    // would otherwise pin its worker waiting for a grant from a rank the
    // pool has not scheduled, which deadlocks once every worker is
    // pinned. The blocking `send` and `recv` are short loops over the
    // same steps that park on this process's inbox in between.

    /// Drain every deliverable inbox message without blocking, running
    /// the shared classifier on each (data → RML, inbound `conn_req` →
    /// grant, markers → channel close + `Closed_conn`, grants, nacks and
    /// location replies → the pending connects they answer).
    pub fn pump(&mut self) -> Result<(), ProtoError> {
        while let Some(inc) = self.cell.try_recv_incoming()? {
            self.classify(inc);
        }
        Ok(())
    }

    /// One non-blocking step of `connect` (Fig 3): returns `true` once
    /// `dest` is in the `Connected` set. Each call sends at most one
    /// message — the `conn_req` (or the lookup that must precede it), or
    /// a re-send of a stalled one past its pacing deadline. Grants,
    /// nacks and location replies reach the attempt through the inbox
    /// classifier, whichever call happens to receive them. A failed
    /// attempt is returned once, by the next step toward `dest`: the
    /// scheduler reports the rank terminated
    /// ([`ProtoError::DestinationTerminated`]), a re-lookup still names a
    /// departed host ([`EnvError::HostGone`]), or the process that nacked
    /// stays listed through 400 re-lookups, each followed by a 2 ms wait
    /// ([`ProtoError::Watchdog`]`("connect retries")`).
    pub fn connect_step(&mut self, dest: Rank) -> Result<bool, ProtoError> {
        if self.cc.contains_key(&dest) {
            self.pending_conn.remove(&dest);
            return Ok(true);
        }
        let now = Instant::now();
        let pc = self.pending_conn.entry(dest).or_insert(PendingConn {
            stage: ConnStage::Retry { at: now },
            stale: 0,
        });
        match pc.stage {
            ConnStage::Retry { at } if now >= at => match self.pl.get(&dest) {
                Some(&target) => {
                    let req_id = self.cell.next_req_id();
                    self.send_conn_req(dest, req_id, target);
                }
                None => self.begin_lookup(dest, None),
            },
            ConnStage::Lookup {
                next_resend,
                refused,
            } if now >= next_resend => self.begin_lookup(dest, refused),
            ConnStage::Req {
                req_id,
                target,
                next_resend,
            } if now >= next_resend => self.send_conn_req(dest, req_id, target),
            _ => {}
        }
        if let Some(PendingConn {
            stage: ConnStage::Failed(e),
            ..
        }) = self.pending_conn.get(&dest)
        {
            let e = e.clone();
            self.pending_conn.remove(&dest);
            return Err(e);
        }
        Ok(false)
    }

    /// Fire (not await) a scheduler lookup for `dest`, prompted by
    /// `refused` (none for a cold lookup).
    fn begin_lookup(&mut self, dest: Rank, refused: Option<Refusal>) {
        self.trace(EventKind::SchedulerConsult { about: dest });
        let stage = match self.cell.sched_send(SchedRequest::Lookup {
            about: dest,
            reply: self.cell.reply_sender(),
        }) {
            Ok(()) => ConnStage::Lookup {
                next_resend: Instant::now() + CONN_RESEND,
                refused,
            },
            Err(e) => ConnStage::Failed(e.into()),
        };
        self.set_stage(dest, stage);
    }

    /// Drop the cached location of `dest` and look it up again.
    fn relocate(&mut self, dest: Rank, refused: Refusal) {
        self.pl.remove(&dest);
        self.begin_lookup(dest, Some(refused));
    }

    /// Fig 3 line 2: route one `conn_req` to `target` and record it as
    /// pending. A departed host is our own daemon rejecting on the
    /// target's behalf (§3.1): re-locate.
    fn send_conn_req(&mut self, dest: Rank, req_id: u64, target: Vmid) {
        self.trace(EventKind::ConnReq { to: dest });
        if let Err(EnvError::HostGone(h)) = self.route_conn_req(req_id, target) {
            self.trace(EventKind::ConnNack { to: dest });
            self.relocate(dest, Refusal::HostGone(h));
        } else {
            self.set_stage(
                dest,
                ConnStage::Req {
                    req_id,
                    target,
                    next_resend: Instant::now() + CONN_RESEND,
                },
            );
        }
    }

    fn set_stage(&mut self, dest: Rank, stage: ConnStage) {
        if let Some(pc) = self.pending_conn.get_mut(&dest) {
            pc.stage = stage;
        }
    }

    /// When the connect machine toward `dest` next acts without a
    /// message arriving: a re-send, the stale wait, or now.
    fn connect_timer(&self, dest: Rank) -> Instant {
        match self.pending_conn.get(&dest).map(|pc| &pc.stage) {
            Some(ConnStage::Retry { at }) => *at,
            Some(ConnStage::Lookup { next_resend, .. } | ConnStage::Req { next_resend, .. }) => {
                *next_resend
            }
            _ => Instant::now(),
        }
    }

    /// The blocking driver: repeat `step` until it reports done, parking
    /// on the inbox in between until the next message arrives (the
    /// classifier handles it on the spot) or the connect machine toward
    /// `dest` is due.
    fn drive(
        &mut self,
        dest: Rank,
        mut step: impl FnMut(&mut Self) -> Result<bool, ProtoError>,
    ) -> Result<(), ProtoError> {
        let deadline = Instant::now() + WATCHDOG;
        while !step(self)? {
            let now = Instant::now();
            if now >= deadline {
                return Err(ProtoError::Watchdog("connect"));
            }
            let wake = self.connect_timer(dest).min(deadline);
            self.next_event(wake.saturating_duration_since(now))?;
        }
        Ok(())
    }

    /// Establish a connection with `dest` (sender-initiated, §3.1),
    /// blocking until it is granted or fails.
    pub(crate) fn connect(&mut self, dest: Rank) -> Result<(), ProtoError> {
        self.drive(dest, |p| {
            p.pump()?;
            p.connect_step(dest)
        })
    }

    /// Non-blocking send (Fig 2): `Ok(true)` when the message was
    /// posted to the channel, `Ok(false)` when the connection is still
    /// being established (nothing was sent — call again later). A
    /// channel that died because the peer migrated away or terminated
    /// is dropped and re-resolved on the next call.
    pub fn try_send(&mut self, dest: Rank, tag: Tag, payload: &Bytes) -> Result<bool, ProtoError> {
        self.pump()?;
        // Fig 2 lines 1–3.
        if !self.connect_step(dest)? {
            return Ok(false);
        }
        let env = Envelope {
            src: self.rank,
            tag,
            msg: self.cell.tracer().next_msg_id(),
            payload: Payload::Data(payload.clone()),
        };
        let bytes = env.wire_bytes();
        // Fig 2 line 4. The timestamp is captured before the post: the
        // receiver can consume (and trace) the message the instant it
        // lands, and its RecvDone must sort after our Send for the log
        // to stay causal. Recording still happens only on success, so a
        // dead-inbox retry leaves no event. With tracing off the hot
        // path pays neither the clock read nor the event construction.
        let msg = env.msg;
        let t_send = if self.cell.tracer().is_enabled() {
            Some(self.cell.tracer().now_ns())
        } else {
            None
        };
        let tx = self.cc.get(&dest).expect("connected after connect_step");
        match tx.send_classed(Incoming::Data(env), bytes, FrameClass::Data) {
            Ok(()) => {
                if let Some(t_send) = t_send {
                    self.cell.trace_at(
                        t_send,
                        EventKind::Send {
                            to: dest,
                            tag,
                            bytes: payload.len(),
                            msg,
                        },
                    );
                }
                Ok(true)
            }
            Err(_) => {
                // The peer's inbox died: it terminated or its migration
                // completed and the old process exited. Drop the stale
                // channel and re-resolve; the scheduler reports
                // Terminated if it is truly gone.
                self.cc.remove(&dest);
                self.pl.remove(&dest);
                Ok(false)
            }
        }
    }

    /// Send `payload` to rank `dest` under `tag`. Establishes the
    /// connection first when necessary; never blocks on the receiver
    /// (buffered mode, §2.3). If the channel died because the peer
    /// migrated away, re-locates and retries transparently.
    pub fn send(&mut self, dest: Rank, tag: Tag, payload: Bytes) -> Result<(), ProtoError> {
        self.drive(dest, |p| p.try_send(dest, tag, &payload))
    }

    /// Fig 4 lines 2–4: take the first buffered message matching
    /// `src`/`tag` and trace its delivery; `from_rml` marks a match
    /// found before this receive read anything new.
    fn deliver(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
        from_rml: bool,
    ) -> Option<(Rank, Tag, Bytes)> {
        let env = self.rml.take_match(src, tag)?;
        let Payload::Data(body) = env.payload else {
            unreachable!("only data envelopes enter the RML")
        };
        self.trace(EventKind::RecvDone {
            from: env.src,
            tag: env.tag,
            bytes: body.len(),
            msg: env.msg,
            from_rml,
        });
        Some((env.src, env.tag, body))
    }

    /// Non-blocking receive (Fig 4): drain deliverable traffic, then
    /// take a buffered match from the received-message-list if one
    /// exists.
    pub fn try_recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Rank, Tag, Bytes)>, ProtoError> {
        self.pump()?;
        Ok(self.deliver(src, tag, true))
    }

    /// Receive a message matching `src`/`tag` (either may be `None` for
    /// a wildcard). Searches the received-message-list first; new
    /// unwanted messages are appended to it.
    pub fn recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<(Rank, Tag, Bytes), ProtoError> {
        self.trace(EventKind::RecvStart { from: src, tag });
        let mut from_rml = true;
        loop {
            if let Some(m) = self.deliver(src, tag, from_rml) {
                return Ok(m);
            }
            from_rml = false;
            // Fig 4 lines 5–15: park for one new data or control
            // message; the classifier implements lines 6–14.
            self.wait_event("recv")?;
        }
    }

    /// Non-blocking probe: is a matching message already buffered or
    /// deliverable? Drains deliverable inbox traffic into the RML first;
    /// consumes nothing and leaves the RML's order as it is.
    pub fn probe(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<bool, ProtoError> {
        self.pump()?;
        Ok(self.rml.has_match(src, tag))
    }

    // ------------------------------------------------------------------
    // poll points & signals (Fig 6, §5.2)
    // ------------------------------------------------------------------

    /// A poll point: process queued signals, exactly as the prototype's
    /// migration macros do at compiler-selected locations. Returns
    /// `true` when a `migration_request` has been intercepted and the
    /// application should call [`SnowProcess::migrate`].
    ///
    /// Signals are *only* handled here (and in [`Self::compute`]) —
    /// never inside send/recv — which realises the `sighold`/`sigrelse`
    /// discipline of §5.2.
    pub fn poll_point(&mut self) -> Result<bool, ProtoError> {
        while let Some(sig) = self.cell.poll_signal() {
            self.handle_signal(sig)?;
        }
        Ok(self.migrate_pending)
    }

    /// React to one delivered signal (shared by [`Self::poll_point`] and
    /// [`Self::await_migration_request`]).
    fn handle_signal(&mut self, sig: Signal) -> Result<(), ProtoError> {
        match sig {
            Signal::Migrate => {
                self.cell.trace(EventKind::SignalDelivered {
                    signal: "SIGMIGRATE",
                });
                self.migrate_pending = true;
            }
            Signal::Disconnect { from } => {
                self.cell.trace(EventKind::SignalDelivered {
                    signal: "SIGDISCONNECT",
                });
                self.disconnection_handler(from)?;
            }
        }
        Ok(())
    }

    /// Block until a `migration_request` signal is intercepted or
    /// `timeout` elapses, servicing other signals meanwhile. Returns
    /// whether migration is now pending. This is the event-driven
    /// equivalent of spinning on [`Self::poll_point`] with sleeps: it
    /// parks on the signal queue, so tests and drivers that wait for a
    /// scheduler-initiated migration wake the instant the signal lands.
    pub fn await_migration_request(&mut self, timeout: Duration) -> Result<bool, ProtoError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.migrate_pending {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            match self.cell.wait_signal(deadline - now) {
                Some(sig) => self.handle_signal(sig)?,
                None => return Ok(self.migrate_pending),
            }
        }
    }

    /// Has a migration request been intercepted (without polling again)?
    pub fn migration_pending(&self) -> bool {
        self.migrate_pending
    }

    /// The disconnection handler (Fig 6): if the coordination for some
    /// migrating peer has not already been performed by `recv`
    /// (`Closed_conn == 0`), drain messages into the RML until a
    /// `peer_migrating` marker arrives, then close that channel;
    /// otherwise consume one unit of completed coordination.
    fn disconnection_handler(&mut self, _from: Rank) -> Result<(), ProtoError> {
        if self.closed_conn == 0 {
            loop {
                match self.wait_event("disconnection_handler")? {
                    Event::PeerMigrated(_) => break,
                    _ => continue,
                }
            }
            // `classify` incremented Closed_conn for the marker we just
            // consumed; this handler invocation pairs with it.
            self.closed_conn -= 1;
        } else {
            self.closed_conn -= 1;
        }
        Ok(())
    }

    /// A computation event of `modeled_seconds` of work: sleeps the
    /// scaled real time, then hits a poll point. Returns `true` when
    /// migration was requested.
    pub fn compute(&mut self, modeled_seconds: f64) -> Result<bool, ProtoError> {
        self.trace(EventKind::Compute {
            work: (modeled_seconds * 1e6) as u64,
        });
        let real = self.cell.time_scale().real(modeled_seconds);
        if !real.is_zero() {
            std::thread::sleep(real);
        }
        self.poll_point()
    }

    /// Graceful termination: tells the scheduler this rank is done
    /// (peers that later try to reach it get "destination terminated").
    pub fn finish(self) {
        let _ = self
            .cell
            .sched_send(SchedRequest::Terminated { rank: self.rank });
    }
}
