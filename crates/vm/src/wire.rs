//! Wire types: data envelopes, control messages and signals.
//!
//! These are the messages that cross process boundaries. Data envelopes
//! flow over logical connections; control messages implement the
//! connectionless handshakes (connection establishment, scheduler
//! consultation); signals implement the ordered signaling service of
//! §2.3 (migration request and the disconnection signal of Fig 5/6).

use crate::ids::{Rank, Tag, Vmid};
use crate::post::PostSender;
use bytes::Bytes;
use snow_trace::MsgId;

/// Fixed per-envelope header cost charged by the link cost model, on top
/// of the payload bytes (rough Ethernet + PVM framing).
pub const ENVELOPE_OVERHEAD_BYTES: usize = 64;

/// What a data envelope carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// An application message.
    Data(Bytes),
    /// The marker a migrating process sends as *its* last message on a
    /// channel (Fig 5 line 5): "all messages sent earlier through this
    /// channel have been received once you see this".
    PeerMigrating,
    /// The marker a *peer* sends as its last message before closing its
    /// side of a channel toward the migrating process (§3.2.2).
    EndOfMessages,
    /// The migrating process's received-message-list, forwarded to the
    /// initialized process (Fig 5 line 8 / Fig 7 lines 2–3).
    RmlBatch(Vec<Envelope>),
    /// One chunk of the canonical exe+mem state stream (Fig 5 line 10 /
    /// Fig 7 line 4). Chunks are FIFO on the transfer channel; `seq`
    /// guards against logic errors, `checksum` against corruption.
    ExeMemStateChunk {
        /// Position in the stream (0 = header chunk).
        seq: u32,
        /// XXH64 of `bytes`.
        checksum: u64,
        /// This chunk's slice of the canonical state body.
        bytes: Bytes,
    },
    /// Closes a chunked state stream: whole-state digest plus totals the
    /// destination must reproduce before restoring.
    ExeMemStateDigest {
        /// XXH64 over the whole reassembled body.
        digest: u64,
        /// Number of chunks sent.
        chunks: u32,
        /// Total body bytes sent.
        total_bytes: u64,
    },
    /// A process that had announced a migration rolled it back: sent to
    /// every peer it had coordinated away so they treat the old endpoint
    /// as live again (the scheduler has already rolled the PL table
    /// back).
    MigrationAborted,
    /// The destination's verdict on a received state transfer, sent back
    /// to the source over the transfer channel before the commit
    /// handshake. A negative ack (or none at all) sends the source down
    /// the abort path.
    StateAck {
        /// True when the state arrived intact: the source may terminate.
        ok: bool,
        /// The acking initialized process — lets the source discard
        /// stale acks from an earlier, already-aborted attempt.
        from: Vmid,
        /// Failure description when `ok` is false.
        detail: String,
    },
}

impl Payload {
    /// Application-payload size used for link cost accounting.
    pub fn body_bytes(&self) -> usize {
        match self {
            Payload::Data(b) => b.len(),
            Payload::PeerMigrating | Payload::EndOfMessages => 0,
            Payload::RmlBatch(list) => list.iter().map(Envelope::wire_bytes).sum(),
            Payload::ExeMemStateChunk { bytes, .. } => bytes.len(),
            // Header-only frames: seq/digest/ack metadata rides in the
            // envelope overhead, like the protocol markers.
            Payload::ExeMemStateDigest { .. } => 0,
            Payload::MigrationAborted | Payload::StateAck { .. } => 0,
        }
    }
}

/// One message on a logical connection.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender's application rank.
    pub src: Rank,
    /// Application tag.
    pub tag: Tag,
    /// Globally unique wire id (trace matching / dedup checks).
    pub msg: MsgId,
    /// Contents.
    pub payload: Payload,
}

impl Envelope {
    /// Total modeled wire size.
    pub fn wire_bytes(&self) -> usize {
        ENVELOPE_OVERHEAD_BYTES + self.payload.body_bytes()
    }
}

/// A connection request (`conn_req`) as routed through daemons.
#[derive(Debug, Clone)]
pub struct ConnReqMsg {
    /// Unique request id (daemon pending-record key).
    pub req_id: u64,
    /// Requester's application rank.
    pub from_rank: Rank,
    /// Requester's vmid (for PL-table updates on the granter side).
    pub from_vmid: Vmid,
    /// Target vmid the requester believes the destination lives at.
    pub target: Vmid,
    /// Where grant/nack replies must be delivered (the requester's
    /// inbox, control-grade link).
    pub reply: PostSender<Incoming>,
    /// A sender into the requester's inbox that the granter will use as
    /// its data-sending end of the new channel. The requester has already
    /// provisioned it with the path link model.
    pub data_to_requester: PostSender<Incoming>,
}

/// Control messages delivered through a process inbox.
#[derive(Debug, Clone)]
pub enum Ctrl {
    /// A peer asks to establish a connection (forwarded by the target's
    /// daemon).
    ConnReq(ConnReqMsg),
    /// Connection granted: carries the granter's data-sending end.
    ConnGrant {
        /// Request being answered.
        req_id: u64,
        /// Granter's application rank.
        peer_rank: Rank,
        /// Granter's vmid.
        peer_vmid: Vmid,
        /// Sender into the granter's inbox for the requester to use.
        data_to_granter: PostSender<Incoming>,
    },
    /// Connection denied: the target migrated, is migrating, terminated,
    /// or its host left.
    ConnNack {
        /// Request being answered.
        req_id: u64,
        /// The vmid the request was addressed to.
        target: Vmid,
    },
    /// A request bound for the scheduler (only the scheduler process
    /// sees these).
    SchedRequest(SchedRequest),
    /// A scheduler reply (lookup results, migration coordination).
    Sched(SchedReply),
}

/// Everything that can land in a process inbox.
#[derive(Debug, Clone)]
pub enum Incoming {
    /// A data envelope on an established logical connection.
    Data(Envelope),
    /// A control message.
    Ctrl(Ctrl),
}

impl Incoming {
    /// Modeled wire size for link accounting.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Incoming::Data(e) => e.wire_bytes(),
            Incoming::Ctrl(_) => ENVELOPE_OVERHEAD_BYTES,
        }
    }
}

/// Execution status of a rank, as reported by the scheduler (§3.1:
/// "consult scheduler for exe status and new_vmid").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExeStatus {
    /// Running normally at the reported vmid.
    Running,
    /// Migrated (or migrating): the reported vmid is the new location.
    Migrated,
    /// The process has terminated; no location exists.
    Terminated,
}

/// Why a migration could not be started or could not be completed.
///
/// Typed so the drain engine and tests branch on causes structurally;
/// the [`std::fmt::Display`] form preserves the historical phrasing
/// harnesses grep for ("unknown rank", "not a member", "aborted", …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailCause {
    /// The rank was never registered.
    UnknownRank,
    /// The rank exists but is not [`ExeStatus::Running`].
    NotRunning(ExeStatus),
    /// A migration of the rank is already in flight.
    AlreadyMigrating,
    /// The requested destination host is not a member.
    HostNotMember(crate::ids::HostId),
    /// The requested destination host is being evacuated; admission
    /// control refuses new migrations onto it.
    HostDraining(crate::ids::HostId),
    /// The source process terminated before the migration signal landed.
    SourceTerminated,
    /// A host drain was asked to move more ranks than its worker pool
    /// plus job queue can hold.
    DrainOverflow {
        /// Ranks the drain would have to move.
        ranks: usize,
        /// `max_workers + job_queue_size` of the rejected request.
        capacity: usize,
    },
    /// No live, non-draining destination host exists for the migrant.
    NoDestination,
    /// Every transfer attempt failed; the migration rolled back.
    Aborted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last attempt's failure description.
        reason: String,
    },
}

impl std::fmt::Display for FailCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailCause::UnknownRank => write!(f, "unknown rank"),
            FailCause::NotRunning(status) => write!(f, "not running ({status:?})"),
            FailCause::AlreadyMigrating => write!(f, "already migrating"),
            FailCause::HostNotMember(h) => write!(f, "host {h} is not a member"),
            FailCause::HostDraining(h) => write!(f, "host {h} is draining"),
            FailCause::SourceTerminated => write!(f, "terminated before migration"),
            FailCause::DrainOverflow { ranks, capacity } => {
                write!(
                    f,
                    "drain of {ranks} rank(s) exceeds pool capacity {capacity}"
                )
            }
            FailCause::NoDestination => write!(f, "no live destination host"),
            FailCause::Aborted { attempts, reason } => {
                write!(f, "aborted after {attempts} attempt(s): {reason}")
            }
        }
    }
}

/// Worker-pool shape of a host drain ([`SchedRequest::HostDrain`]): at
/// most `max_workers` migrations run concurrently, the rest wait in a
/// bounded job queue, and per-rank verdicts accumulate in a bounded
/// result queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainPoolConfig {
    /// Concurrent migration jobs (pool width).
    pub max_workers: usize,
    /// Ranks that may wait behind the pool; a drain needing more than
    /// `max_workers + job_queue_size` slots is rejected up front.
    pub job_queue_size: usize,
    /// Per-rank verdicts retained in the terminal report; beyond this
    /// the report only counts them.
    pub res_queue_size: usize,
    /// Emit a progress trace event and a pool-occupancy sample every
    /// period while the drain runs. Zero disables progress logging.
    pub progress_log_period: std::time::Duration,
}

impl Default for DrainPoolConfig {
    fn default() -> Self {
        DrainPoolConfig {
            max_workers: 4,
            job_queue_size: 64,
            res_queue_size: 64,
            progress_log_period: std::time::Duration::ZERO,
        }
    }
}

/// Terminal verdict of a host drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every co-located rank migrated off the host.
    Evacuated {
        /// Ranks moved.
        completed: usize,
        /// Retry rulings issued across the gang (re-targets after a
        /// destination death).
        retried: usize,
    },
    /// The drain terminated, but some migrants rolled back in place.
    PartiallyEvacuated {
        /// Ranks moved.
        completed: usize,
        /// Ranks whose migration finally aborted (they resume on the
        /// draining host).
        aborted: usize,
        /// Retry rulings issued across the gang.
        retried: usize,
    },
}

/// How one migrant of a drain gang ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainRankResult {
    /// Migrated off the host; now lives at the reported vmid.
    Completed(Vmid),
    /// Rolled back in place for the reported cause.
    Aborted(FailCause),
}

/// Requests processes send to the scheduler.
#[derive(Debug, Clone)]
pub enum SchedRequest {
    /// Locate a rank (Fig 3 line 10). Reply: [`SchedReply::Location`].
    Lookup {
        /// Rank to locate.
        about: Rank,
        /// Requester's inbox for the reply.
        reply: PostSender<Incoming>,
    },
    /// A user/harness asks the scheduler to migrate `rank` onto `to_host`
    /// (§2.2). Reply (to the requesting harness): [`SchedReply::MigrationDone`]
    /// after commit.
    Migrate {
        /// Rank to migrate.
        rank: Rank,
        /// Destination workstation.
        to_host: crate::ids::HostId,
        /// Requester's inbox for the completion notification.
        reply: PostSender<Incoming>,
    },
    /// The migrating process announces `migration_start` and asks for its
    /// initialized process's vmid (Fig 5 lines 2–3). Reply:
    /// [`SchedReply::NewVmid`].
    MigrationStart {
        /// The migrating rank.
        rank: Rank,
        /// Its inbox for the reply.
        reply: PostSender<Incoming>,
    },
    /// The initialized process reports `restore_complete` and asks for
    /// the PL table (Fig 7 lines 5–6). Reply: [`SchedReply::PlTable`].
    RestoreComplete {
        /// The migrated rank.
        rank: Rank,
        /// The initialized process's vmid (becomes authoritative).
        new_vmid: Vmid,
        /// Its inbox for the reply.
        reply: PostSender<Incoming>,
    },
    /// The initialized process confirms `migration_commit` (Fig 7 line 7).
    MigrationCommit {
        /// The migrated rank.
        rank: Rank,
    },
    /// The migrating process reports that the transfer to its initialized
    /// process failed (destination gone, transfer channel dead, restore
    /// rejected). The scheduler reaps the half-initialized destination
    /// and either re-targets the migration (retry policy) or rolls the
    /// directory back to the still-running source. Reply:
    /// [`SchedReply::MigrationRetry`], [`SchedReply::MigrationAborted`]
    /// or [`SchedReply::MigrationAbortDenied`].
    MigrationAbort {
        /// The migrating rank.
        rank: Rank,
        /// Why the transfer failed (bookkeeping + requester's error).
        reason: String,
        /// The migrating process's inbox for the decision.
        reply: PostSender<Incoming>,
    },
    /// Evacuate every running rank co-located on `host`: the scheduler
    /// expands the request into a gang of per-rank migration jobs fed
    /// through a bounded worker pool, and drives the drain to a
    /// terminal [`SchedReply::DrainDone`] (or rejects it up front with
    /// [`SchedReply::DrainFailed`]).
    HostDrain {
        /// The host being evacuated.
        host: crate::ids::HostId,
        /// Worker-pool shape for the gang.
        pool: DrainPoolConfig,
        /// Requester's inbox for the terminal verdict.
        reply: PostSender<Incoming>,
    },
    /// A process announces its termination so lookups report
    /// [`ExeStatus::Terminated`].
    Terminated {
        /// The terminating rank.
        rank: Rank,
    },
    /// Register an application process (spawn-time bookkeeping).
    Register {
        /// Rank being registered.
        rank: Rank,
        /// Where it lives.
        vmid: Vmid,
    },
    /// Stop the scheduler loop (environment teardown).
    Shutdown,
}

/// Replies from the scheduler.
#[derive(Debug, Clone)]
pub enum SchedReply {
    /// Result of [`SchedRequest::Lookup`].
    Location {
        /// The rank that was looked up.
        about: Rank,
        /// Its execution status.
        status: ExeStatus,
        /// Current vmid, when one exists.
        vmid: Option<Vmid>,
    },
    /// Result of [`SchedRequest::MigrationStart`]: where the initialized
    /// process waits.
    NewVmid {
        /// The initialized process's vmid.
        new_vmid: Vmid,
    },
    /// Result of [`SchedRequest::RestoreComplete`]: the authoritative PL
    /// table and the old vmid being retired.
    PlTable {
        /// rank → vmid for every registered process.
        entries: Vec<(Rank, Vmid)>,
        /// The migrating process's retiring vmid.
        old_vmid: Vmid,
    },
    /// A migration requested via [`SchedRequest::Migrate`] committed.
    MigrationDone {
        /// The migrated rank.
        rank: Rank,
        /// Its new vmid.
        new_vmid: Vmid,
    },
    /// A failed migration was re-targeted at an alternate host
    /// ([`SchedRequest::MigrationAbort`] under a retry policy): the
    /// source should retry the transfer against `new_vmid` after
    /// `backoff_ms`.
    MigrationRetry {
        /// The freshly initialized process to transfer to.
        new_vmid: Vmid,
        /// The attempt number about to run (2 = first retry).
        attempt: u32,
        /// Source-side pause before retrying, from the retry policy.
        backoff_ms: u64,
    },
    /// A migration was abandoned: the directory was rolled back to the
    /// old vmid and the source must resume in place. Also delivered to a
    /// half-initialized destination process as its reap order.
    MigrationAborted {
        /// The rank whose migration aborted.
        rank: Rank,
    },
    /// An abort request arrived after the destination had already
    /// committed: the migration stands and the source must terminate as
    /// if the transfer had been acknowledged.
    MigrationAbortDenied {
        /// The rank whose abort was denied.
        rank: Rank,
    },
    /// A migration requested via [`SchedRequest::Migrate`] failed for
    /// good: it never started, or it finally aborted. Rank-tagged so a
    /// requester waiting on one of several in-flight migrations can
    /// route the verdict (an untagged [`SchedReply::Error`] would be
    /// claimed by whichever waiter reads it first).
    MigrationFailed {
        /// The rank whose migration failed.
        rank: Rank,
        /// Typed cause (render with `Display` for the historical
        /// human-readable phrasing).
        cause: FailCause,
    },
    /// Terminal verdict of a [`SchedRequest::HostDrain`]: the gang ran
    /// to completion (possibly with per-rank aborts).
    DrainDone {
        /// The drained host.
        host: crate::ids::HostId,
        /// Aggregate verdict.
        outcome: DrainOutcome,
        /// Per-rank verdicts, capped at the request's `res_queue_size`
        /// (the outcome's counters always cover the whole gang).
        per_rank: Vec<(Rank, DrainRankResult)>,
    },
    /// A [`SchedRequest::HostDrain`] was rejected before any job ran.
    DrainFailed {
        /// The host the rejected request named.
        host: crate::ids::HostId,
        /// Why the drain was refused.
        cause: FailCause,
    },
    /// The scheduler could not satisfy a request (unknown rank, no such
    /// host, migration already in flight).
    Error {
        /// Human-readable cause.
        reason: String,
    },
}

/// Signals of the ordered signaling service (§2.3). Signals never
/// interrupt communication events; `snow-core` checks the queue only at
/// computation events and between communication events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// The scheduler orders this process to migrate (`SIGUSR1` in the
    /// prototype, Fig 5 line 1).
    Migrate,
    /// A migrating peer asks this process to coordinate disconnection
    /// (`SIGUSR2`, Fig 5 line 5 / Fig 6).
    Disconnect {
        /// The migrating peer's rank.
        from: Rank,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_net::{LinkModel, TimeScale};

    fn env(bytes: usize) -> Envelope {
        Envelope {
            src: 0,
            tag: 1,
            msg: MsgId(1),
            payload: Payload::Data(Bytes::from(vec![0u8; bytes])),
        }
    }

    #[test]
    fn wire_bytes_include_overhead() {
        assert_eq!(env(100).wire_bytes(), 100 + ENVELOPE_OVERHEAD_BYTES);
    }

    #[test]
    fn markers_are_header_only() {
        let e = Envelope {
            src: 0,
            tag: -1,
            msg: MsgId(2),
            payload: Payload::PeerMigrating,
        };
        assert_eq!(e.wire_bytes(), ENVELOPE_OVERHEAD_BYTES);
    }

    #[test]
    fn rml_batch_accumulates_sizes() {
        let batch = Payload::RmlBatch(vec![env(10), env(20)]);
        assert_eq!(batch.body_bytes(), 10 + 20 + 2 * ENVELOPE_OVERHEAD_BYTES);
    }

    #[test]
    fn ctrl_messages_have_fixed_cost() {
        let (reply, _post) =
            crate::post::Post::<Incoming>::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let inc = Incoming::Ctrl(Ctrl::ConnNack {
            req_id: 1,
            target: Vmid {
                host: crate::ids::HostId(0),
                pid: 0,
            },
        });
        assert_eq!(inc.wire_bytes(), ENVELOPE_OVERHEAD_BYTES);
        drop(reply);
    }

    #[test]
    fn state_payload_sized_by_bytes() {
        let p = Payload::ExeMemStateChunk {
            seq: 3,
            checksum: 0,
            bytes: Bytes::from(vec![0u8; 256 * 1024]),
        };
        assert_eq!(p.body_bytes(), 256 * 1024);
    }
}
