//! The scheduler process: lookup service + migration choreography.

use crate::directory::{Directory, IndexedDirectory, PlEntry};
use crate::records::{MigrationPhase, MigrationRecord, RecordStore};
use snow_trace::{
    metrics::{DrainMetrics, SchedulerRuling},
    EventKind,
};
use snow_vm::wire::{
    Ctrl, DrainOutcome, DrainPoolConfig, DrainRankResult, ExeStatus, FailCause, Incoming,
    SchedReply, SchedRequest,
};
use snow_vm::{HostId, PostSender, ProcessCell, Rank, Signal, VirtualMachine, Vmid};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The migration-enabled executable image (§2.2): what the scheduler
/// remotely invokes on a destination host to create an *initialized
/// process* awaiting state transfer. The closure receives the fresh
/// [`ProcessCell`] and the migrating rank; it is expected to run the
/// `initialize()` protocol and then resume the application.
pub type ProcessImage = Arc<dyn Fn(ProcessCell, Rank) + Send + Sync>;

/// How the scheduler re-targets a failed migration before giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transfer attempts allowed (1 = no retries).
    pub max_attempts: u32,
    /// Source-side pause before each retry.
    pub backoff: Duration,
    /// Maximum extra pause added on top of `backoff`, drawn
    /// deterministically per `(seed, rank, attempt)` so that N migrants
    /// whose shared destination died do not re-target in lockstep.
    /// `Duration::ZERO` disables jitter.
    pub jitter: Duration,
    /// Seed for the jitter draw (the spread is a pure function of
    /// `(seed, rank, attempt)` — reruns back off identically).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            jitter: Duration::ZERO,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff for `rank`'s retry number `attempt`: the base pause
    /// plus a deterministic jitter in `[0, self.jitter]`. Pure in
    /// `(seed, rank, attempt)`, so a replayed run backs off identically
    /// while concurrent migrants spread out.
    pub fn backoff_for(&self, rank: Rank, attempt: u32) -> Duration {
        if self.jitter.is_zero() {
            return self.backoff;
        }
        // splitmix64-style scramble of (seed, rank, attempt).
        let mut h = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((rank as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((attempt as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        self.backoff + Duration::from_nanos((self.jitter.as_nanos() as f64 * frac) as u64)
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Re-target failed migrations at alternate live hosts before
    /// abandoning them. `None` aborts on the first failure.
    pub retry: Option<RetryPolicy>,
    /// How long one transfer attempt may stay in flight before the
    /// scheduler reaps it server-side. Generous by default so slow
    /// modeled transfers are never cut short; `None` disables the sweep.
    pub deadline: Option<Duration>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            retry: None,
            deadline: Some(Duration::from_secs(300)),
        }
    }
}

/// Handle returned by [`spawn_scheduler`].
pub struct SchedulerHandle {
    /// The scheduler's own vmid (install with `vm.set_scheduler` is done
    /// automatically).
    pub vmid: Vmid,
    records: RecordStore,
    init_joins: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
    join: Option<JoinHandle<()>>,
}

impl SchedulerHandle {
    /// Bookkeeping records collected so far.
    pub fn records(&self) -> Vec<MigrationRecord> {
        self.records.all()
    }

    /// Take the join handles of initialized processes spawned so far.
    /// Joining them waits for resumed applications to finish — harness
    /// code should do this after joining the original rank threads.
    pub fn take_init_joins(&self) -> Vec<JoinHandle<()>> {
        std::mem::take(&mut *self.init_joins.lock())
    }

    /// Wait for the scheduler thread to stop (after a
    /// [`SchedRequest::Shutdown`]).
    pub fn join(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

struct InFlight {
    record: usize,
    old_vmid: Vmid,
    new_vmid: Vmid,
    requester: Option<PostSender<Incoming>>,
    attempts: u32,
    /// The source has announced `migration_start`. Until then no
    /// destination can hold its state, so restore-complete and commit
    /// are refused.
    started: bool,
    deadline: Option<Instant>,
    failed_hosts: Vec<HostId>,
    /// When this migration is one job of a host drain, the draining
    /// host: its terminal verdict feeds the gang's outcome instead of a
    /// per-migration reply.
    drain: Option<HostId>,
}

/// One in-progress host evacuation: a gang of per-rank migration jobs
/// fed through a bounded worker pool (at most `pool.max_workers`
/// concurrently in the in-flight table, the rest queued in `pending`).
struct DrainState {
    requester: PostSender<Incoming>,
    pool: DrainPoolConfig,
    /// Ranks waiting for a pool slot (the bounded job queue).
    pending: VecDeque<Rank>,
    /// Ranks currently in the in-flight table on this drain's behalf.
    active: HashSet<Rank>,
    /// Per-rank verdicts, capped at `pool.res_queue_size` (the counters
    /// below always cover the whole gang).
    results: Vec<(Rank, DrainRankResult)>,
    completed: usize,
    aborted: usize,
    /// Retry rulings issued across the gang (re-targets).
    retried: usize,
    /// Gang size at admission.
    total: usize,
    started: Instant,
    last_progress: Instant,
    peak_active: usize,
    /// Round-robin cursor over destination candidates.
    next_dest: usize,
}

struct SchedState {
    dir: Box<dyn Directory>,
    records: RecordStore,
    in_flight: HashMap<Rank, InFlight>,
    drains: HashMap<HostId, DrainState>,
    vm: VirtualMachine,
    image: ProcessImage,
    init_joins: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
    config: SchedulerConfig,
}

impl SchedState {
    fn reply(&self, to: &PostSender<Incoming>, reply: SchedReply) {
        let _ = to.send(
            Incoming::Ctrl(Ctrl::Sched(reply)),
            snow_vm::wire::ENVELOPE_OVERHEAD_BYTES,
        );
    }

    fn handle(&mut self, cell: &ProcessCell, req: SchedRequest) -> bool {
        match req {
            SchedRequest::Register { rank, vmid } => {
                self.dir.insert(
                    rank,
                    PlEntry {
                        vmid,
                        status: ExeStatus::Running,
                    },
                );
            }
            SchedRequest::Lookup { about, reply } => {
                cell.trace(EventKind::SchedulerConsult { about });
                let (status, vmid) = match self.dir.lookup(about) {
                    Some(e) => (
                        e.status,
                        if e.status == ExeStatus::Terminated {
                            None
                        } else {
                            Some(e.vmid)
                        },
                    ),
                    None => (ExeStatus::Terminated, None),
                };
                self.reply(
                    &reply,
                    SchedReply::Location {
                        about,
                        status,
                        vmid,
                    },
                );
            }
            SchedRequest::Migrate {
                rank,
                to_host,
                reply,
            } => self.start_migration(cell, rank, to_host, reply),
            SchedRequest::MigrationStart { rank, reply } => {
                match self.in_flight.get_mut(&rank) {
                    Some(mig) => {
                        mig.started = true;
                        self.records.stamp(mig.record, MigrationPhase::Started);
                        let new_vmid = mig.new_vmid;
                        // Only NOW may lookups redirect: the migrating
                        // process is about to reject connections, so
                        // nacked senders consulting us must find the
                        // initialized process. Redirecting any earlier
                        // can deadlock a process that is blocked in
                        // recv and has not yet intercepted the signal
                        // (found by the snow-model schedule explorer).
                        self.dir.insert(
                            rank,
                            PlEntry {
                                vmid: new_vmid,
                                status: ExeStatus::Migrated,
                            },
                        );
                        self.reply(&reply, SchedReply::NewVmid { new_vmid });
                    }
                    None => self.reply(
                        &reply,
                        SchedReply::Error {
                            reason: format!("rank {rank} has no migration in flight"),
                        },
                    ),
                }
            }
            SchedRequest::RestoreComplete {
                rank,
                new_vmid,
                reply,
            } => match self.in_flight.get(&rank) {
                Some(mig) if mig.started => {
                    debug_assert_eq!(mig.new_vmid, new_vmid);
                    self.records.stamp(mig.record, MigrationPhase::Restored);
                    let entries = self
                        .dir
                        .entries()
                        .into_iter()
                        .map(|(r, e)| (r, e.vmid))
                        .collect();
                    let old_vmid = mig.old_vmid;
                    self.reply(&reply, SchedReply::PlTable { entries, old_vmid });
                }
                // Restored before the source even started: no state can
                // have reached the destination yet (the phase order of
                // DESIGN.md "Findings").
                Some(_) => self.reply(
                    &reply,
                    SchedReply::Error {
                        reason: format!("rank {rank}: restore before migration_start"),
                    },
                ),
                None => self.reply(
                    &reply,
                    SchedReply::Error {
                        reason: format!("rank {rank}: restore without migration"),
                    },
                ),
            },
            SchedRequest::MigrationCommit { rank }
                if self.in_flight.get(&rank).is_some_and(|m| m.started) =>
            {
                if let Some(mig) = self.in_flight.remove(&rank) {
                    self.records.stamp(mig.record, MigrationPhase::Committed);
                    self.dir.insert(
                        rank,
                        PlEntry {
                            vmid: mig.new_vmid,
                            status: ExeStatus::Running,
                        },
                    );
                    cell.trace(EventKind::MigrationCommit { rank });
                    record_ruling(cell, rank, "commit", mig.attempts, None);
                    if let Some(requester) = mig.requester {
                        self.reply(
                            &requester,
                            SchedReply::MigrationDone {
                                rank,
                                new_vmid: mig.new_vmid,
                            },
                        );
                    }
                    if let Some(host) = mig.drain {
                        self.drain_job_done(
                            cell,
                            host,
                            rank,
                            DrainRankResult::Completed(mig.new_vmid),
                        );
                    }
                }
            }
            // A commit whose source has not announced `migration_start`
            // is premature and ignored, like its restore-complete.
            SchedRequest::MigrationCommit { .. } => {}
            SchedRequest::MigrationAbort {
                rank,
                reason,
                reply,
            } => match self.in_flight.remove(&rank) {
                Some(mig) => self.abort_or_retry(cell, rank, mig, &reason, Some(&reply)),
                None => {
                    // Either the destination committed before the abort
                    // request arrived (the migration actually succeeded)
                    // or the deadline sweep already reaped it.
                    let committed = self
                        .records
                        .last_for(rank)
                        .map(|r| r.reached(MigrationPhase::Committed))
                        .unwrap_or(false);
                    if committed {
                        self.reply(&reply, SchedReply::MigrationAbortDenied { rank });
                    } else {
                        self.reply(&reply, SchedReply::MigrationAborted { rank });
                    }
                }
            },
            SchedRequest::HostDrain { host, pool, reply } => {
                self.start_drain(cell, host, pool, reply)
            }
            SchedRequest::Terminated { rank } => {
                if let Some(e) = self.dir.lookup(rank) {
                    self.dir.insert(
                        rank,
                        PlEntry {
                            vmid: e.vmid,
                            status: ExeStatus::Terminated,
                        },
                    );
                }
            }
            SchedRequest::Shutdown => return false,
        }
        true
    }

    fn start_migration(
        &mut self,
        cell: &ProcessCell,
        rank: Rank,
        to_host: HostId,
        reply: PostSender<Incoming>,
    ) {
        if let Err(cause) = self.begin_migration(cell, rank, to_host, Some(reply.clone()), None) {
            self.reply(&reply, SchedReply::MigrationFailed { rank, cause });
        }
    }

    /// Is `rank` claimed by any drain gang (queued or active)?
    fn rank_in_drain(&self, rank: Rank) -> bool {
        self.drains
            .values()
            .any(|st| st.active.contains(&rank) || st.pending.contains(&rank))
    }

    /// Open a migration transaction for `rank` toward `to_host`:
    /// validate, initialize the destination process, enter the in-flight
    /// table, and signal the source. `requester` (if any) is notified on
    /// commit/final abort; `drain` tags the entry as one job of a host
    /// evacuation. Admission control lives here: migrations onto a
    /// draining host are refused.
    fn begin_migration(
        &mut self,
        cell: &ProcessCell,
        rank: Rank,
        to_host: HostId,
        requester: Option<PostSender<Incoming>>,
        drain: Option<HostId>,
    ) -> Result<(), FailCause> {
        let entry = match self.dir.lookup(rank) {
            Some(e) if e.status == ExeStatus::Running => e,
            Some(e) => return Err(FailCause::NotRunning(e.status)),
            None => return Err(FailCause::UnknownRank),
        };
        if self.in_flight.contains_key(&rank) || (drain.is_none() && self.rank_in_drain(rank)) {
            return Err(FailCause::AlreadyMigrating);
        }
        if self.vm.host_is_draining(to_host) {
            return Err(FailCause::HostDraining(to_host));
        }
        // Process initialization (§2.2): remotely invoke the
        // migration-enabled executable on the destination and let it wait
        // for state transfer.
        let image = Arc::clone(&self.image);
        let spawned = self
            .vm
            .spawn(to_host, &format!("init:{rank}"), move |init_cell| {
                image(init_cell, rank)
            });
        let Some((new_vmid, init_join)) = spawned else {
            // Spawn refusal: the host left, or began draining between
            // the admission check and the allocation.
            return Err(if self.vm.host_is_draining(to_host) {
                FailCause::HostDraining(to_host)
            } else {
                FailCause::HostNotMember(to_host)
            });
        };
        self.init_joins.lock().push(init_join);
        // NOTE: the PL table is NOT updated yet — lookups keep naming
        // the (still accepting) old process until it announces
        // migration_start. See the MigrationStart handler.
        let record = self.records.open(rank, entry.vmid, new_vmid);
        self.in_flight.insert(
            rank,
            InFlight {
                record,
                old_vmid: entry.vmid,
                new_vmid,
                requester,
                attempts: 1,
                started: false,
                deadline: self.config.deadline.map(|d| Instant::now() + d),
                failed_hosts: Vec::new(),
                drain,
            },
        );
        // Send the migration signal (SIGUSR1 in the prototype).
        if !cell.send_signal(entry.vmid, Signal::Migrate) {
            // The process vanished between lookup and signal.
            self.in_flight.remove(&rank);
            self.reap_init(rank, new_vmid);
            self.dir.insert(
                rank,
                PlEntry {
                    vmid: entry.vmid,
                    status: ExeStatus::Terminated,
                },
            );
            return Err(FailCause::SourceTerminated);
        }
        Ok(())
    }

    /// A transfer attempt failed (source-reported or deadline-swept).
    /// Reap the half-initialized destination, then either re-target the
    /// migration under the retry policy or abandon it: roll the
    /// directory back to the still-running source and tell everyone.
    fn abort_or_retry(
        &mut self,
        cell: &ProcessCell,
        rank: Rank,
        mut mig: InFlight,
        reason: &str,
        source: Option<&PostSender<Incoming>>,
    ) {
        self.reap_init(rank, mig.new_vmid);
        mig.failed_hosts.push(mig.new_vmid.host);
        if let Some(policy) = self.config.retry.clone() {
            if mig.attempts < policy.max_attempts {
                if let Some(new_vmid) = self.respawn_init(rank, &mig) {
                    let attempt = mig.attempts + 1;
                    self.records.retarget(mig.record, new_vmid);
                    self.records.stamp(mig.record, MigrationPhase::Retried);
                    // The source is still rejecting connections, so
                    // lookups must keep redirecting — now at the
                    // replacement destination.
                    self.dir.insert(
                        rank,
                        PlEntry {
                            vmid: new_vmid,
                            status: ExeStatus::Migrated,
                        },
                    );
                    mig.new_vmid = new_vmid;
                    mig.attempts = attempt;
                    mig.deadline = self.config.deadline.map(|d| Instant::now() + d);
                    cell.trace(EventKind::MigrationRetried { attempt });
                    record_ruling(cell, rank, "retry", attempt, Some(reason));
                    if let Some(src) = source {
                        self.reply(
                            src,
                            SchedReply::MigrationRetry {
                                new_vmid,
                                attempt,
                                // Jittered so gang-mates orphaned by one
                                // dead destination fan back in staggered.
                                backoff_ms: policy.backoff_for(rank, attempt).as_millis() as u64,
                            },
                        );
                    }
                    if let Some(host) = mig.drain {
                        if let Some(st) = self.drains.get_mut(&host) {
                            st.retried += 1;
                        }
                    }
                    self.in_flight.insert(rank, mig);
                    return;
                }
            }
        }
        // Final abort: the source resumes at its old location.
        self.records.stamp(mig.record, MigrationPhase::Aborted);
        self.dir.insert(
            rank,
            PlEntry {
                vmid: mig.old_vmid,
                status: ExeStatus::Running,
            },
        );
        cell.trace(EventKind::MigrationAborted {
            rank,
            attempt: mig.attempts,
        });
        record_ruling(cell, rank, "abort", mig.attempts, Some(reason));
        let cause = FailCause::Aborted {
            attempts: mig.attempts,
            reason: reason.to_string(),
        };
        if let Some(src) = source {
            self.reply(src, SchedReply::MigrationAborted { rank });
        }
        if let Some(requester) = &mig.requester {
            self.reply(
                requester,
                SchedReply::MigrationFailed {
                    rank,
                    cause: cause.clone(),
                },
            );
        }
        if let Some(host) = mig.drain {
            self.drain_job_done(cell, host, rank, DrainRankResult::Aborted(cause));
        }
    }

    /// Order a half-initialized destination process to stand down. The
    /// init is blocked inside `initialize()`'s receive loops, so the
    /// reap order goes straight into its inbox; if its host already
    /// left, the registry entry is gone and there is nothing to do (the
    /// orphaned thread unblocks at its own watchdog).
    fn reap_init(&self, rank: Rank, init: Vmid) {
        let from = self
            .vm
            .shared()
            .scheduler_vmid()
            .map(|v| v.host.into())
            .unwrap_or(snow_vm::NodeId::CLIENT);
        let _ = self.vm.shared().transport().send_to(
            from,
            init,
            Incoming::Ctrl(Ctrl::Sched(SchedReply::MigrationAborted { rank })),
            snow_vm::wire::ENVELOPE_OVERHEAD_BYTES,
            snow_net::FrameClass::Control,
        );
    }

    /// Spawn a replacement initialized process on an alternate live
    /// host: lowest host id that is neither the source's host, nor one
    /// that already failed this migration, nor a host being evacuated
    /// (admission control applies to re-targets too).
    fn respawn_init(&mut self, rank: Rank, mig: &InFlight) -> Option<Vmid> {
        for h in self.vm.host_ids() {
            if h == mig.old_vmid.host
                || mig.failed_hosts.contains(&h)
                || self.vm.host_is_draining(h)
            {
                continue;
            }
            let image = Arc::clone(&self.image);
            if let Some((new_vmid, join)) =
                self.vm.spawn(h, &format!("init:{rank}"), move |init_cell| {
                    image(init_cell, rank)
                })
            {
                self.init_joins.lock().push(join);
                return Some(new_vmid);
            }
        }
        None
    }

    /// Abort every in-flight migration whose deadline has passed — the
    /// server-side half of abortability, covering sources that died
    /// without ever reporting failure.
    fn sweep_deadlines(&mut self, cell: &ProcessCell) {
        let now = Instant::now();
        let expired: Vec<Rank> = self
            .in_flight
            .iter()
            .filter(|(_, m)| m.deadline.is_some_and(|d| now >= d))
            .map(|(r, _)| *r)
            .collect();
        for rank in expired {
            if let Some(mig) = self.in_flight.remove(&rank) {
                self.abort_or_retry(cell, rank, mig, "migration deadline expired", None);
            }
        }
    }

    /// Admit a host evacuation: snapshot the co-located running ranks,
    /// arbitrate against the in-flight table (ranks already migrating on
    /// their own are skipped — they are leaving anyway), bound the gang
    /// by the pool capacity, mark the host draining, and start feeding
    /// jobs through the pool.
    fn start_drain(
        &mut self,
        cell: &ProcessCell,
        host: HostId,
        pool: DrainPoolConfig,
        reply: PostSender<Incoming>,
    ) {
        let fail = |me: &Self, cause: FailCause| {
            me.reply(&reply, SchedReply::DrainFailed { host, cause });
        };
        if !self.vm.has_host(host) {
            return fail(self, FailCause::HostNotMember(host));
        }
        if self.drains.contains_key(&host) || self.vm.host_is_draining(host) {
            return fail(self, FailCause::HostDraining(host));
        }
        let mut ranks: Vec<Rank> = self
            .dir
            .entries()
            .into_iter()
            .filter(|(r, e)| {
                e.status == ExeStatus::Running
                    && e.vmid.host == host
                    && !self.in_flight.contains_key(r)
            })
            .map(|(r, _)| r)
            .collect();
        ranks.sort_unstable();
        let capacity = if pool.max_workers == 0 {
            0
        } else {
            pool.max_workers + pool.job_queue_size
        };
        if ranks.len() > capacity {
            return fail(
                self,
                FailCause::DrainOverflow {
                    ranks: ranks.len(),
                    capacity,
                },
            );
        }
        self.vm.set_host_draining(host, true);
        cell.trace(EventKind::Phase {
            label: format!(
                "drain:{host}:start ranks={} workers={}",
                ranks.len(),
                pool.max_workers
            ),
        });
        let now = Instant::now();
        self.drains.insert(
            host,
            DrainState {
                requester: reply,
                pool,
                total: ranks.len(),
                pending: ranks.into(),
                active: HashSet::new(),
                results: Vec::new(),
                completed: 0,
                aborted: 0,
                retried: 0,
                started: now,
                last_progress: now,
                peak_active: 0,
                next_dest: 0,
            },
        );
        self.pump_drain(cell, host);
    }

    /// Round-robin destination pick for the next drain job: any live
    /// host that is neither the draining host nor itself draining.
    fn pick_drain_dest(&mut self, host: HostId) -> Option<HostId> {
        let candidates: Vec<HostId> = self
            .vm
            .host_ids()
            .into_iter()
            .filter(|h| *h != host && !self.vm.host_is_draining(*h))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let st = self.drains.get_mut(&host)?;
        let dest = candidates[st.next_dest % candidates.len()];
        st.next_dest += 1;
        Some(dest)
    }

    /// Fill free pool slots from the job queue; when both the queue and
    /// the pool are empty, the drain has terminated. Jobs that cannot
    /// even start (rank died meanwhile, no live destination) take their
    /// verdict immediately — they must never wedge their gang-mates.
    fn pump_drain(&mut self, cell: &ProcessCell, host: HostId) {
        loop {
            let job = match self.drains.get_mut(&host) {
                Some(st) if st.active.len() < st.pool.max_workers => st.pending.pop_front(),
                _ => None,
            };
            let Some(rank) = job else { break };
            let started = self
                .pick_drain_dest(host)
                .ok_or(FailCause::NoDestination)
                .and_then(|dest| self.begin_migration(cell, rank, dest, None, Some(host)));
            let Some(st) = self.drains.get_mut(&host) else {
                break;
            };
            match started {
                Ok(()) => {
                    st.active.insert(rank);
                    st.peak_active = st.peak_active.max(st.active.len());
                }
                Err(cause) => {
                    record_ruling(cell, rank, "drain-skip", 0, Some(&cause.to_string()));
                    st.aborted += 1;
                    if st.results.len() < st.pool.res_queue_size {
                        st.results.push((rank, DrainRankResult::Aborted(cause)));
                    }
                }
            }
        }
        let finished = self
            .drains
            .get(&host)
            .is_some_and(|st| st.pending.is_empty() && st.active.is_empty());
        if finished {
            self.finish_drain(cell, host);
        }
    }

    /// One drain job reached its terminal state (commit or final
    /// abort): record the verdict, free its pool slot, admit the next
    /// queued rank, and close the drain when the gang is done.
    fn drain_job_done(
        &mut self,
        cell: &ProcessCell,
        host: HostId,
        rank: Rank,
        result: DrainRankResult,
    ) {
        let Some(st) = self.drains.get_mut(&host) else {
            return;
        };
        st.active.remove(&rank);
        match result {
            DrainRankResult::Completed(_) => st.completed += 1,
            DrainRankResult::Aborted(_) => st.aborted += 1,
        }
        if st.results.len() < st.pool.res_queue_size {
            st.results.push((rank, result));
        }
        self.pump_drain(cell, host);
    }

    /// Close a finished drain: clear the draining flag, deposit the
    /// per-drain metrics record (exactly one per drain), and send the
    /// terminal verdict to the requester.
    fn finish_drain(&mut self, cell: &ProcessCell, host: HostId) {
        let Some(st) = self.drains.remove(&host) else {
            return;
        };
        self.vm.set_host_draining(host, false);
        let outcome = if st.aborted == 0 {
            DrainOutcome::Evacuated {
                completed: st.completed,
                retried: st.retried,
            }
        } else {
            DrainOutcome::PartiallyEvacuated {
                completed: st.completed,
                aborted: st.aborted,
                retried: st.retried,
            }
        };
        cell.trace(EventKind::Phase {
            label: format!(
                "drain:{host}:done completed={} aborted={} retried={}",
                st.completed, st.aborted, st.retried
            ),
        });
        let tracer = cell.tracer();
        if tracer.is_enabled() {
            tracer.metrics().record_drain(DrainMetrics {
                host: host.0 as usize,
                ranks: st.total,
                completed: st.completed,
                aborted: st.aborted,
                retried: st.retried,
                makespan_s: st.started.elapsed().as_secs_f64(),
                max_workers: st.pool.max_workers,
                peak_active: st.peak_active,
                outcome: match outcome {
                    DrainOutcome::Evacuated { .. } => "evacuated".into(),
                    DrainOutcome::PartiallyEvacuated { .. } => "partial".into(),
                },
            });
        }
        self.reply(
            &st.requester,
            SchedReply::DrainDone {
                host,
                outcome,
                per_rank: st.results,
            },
        );
    }

    /// Periodic progress logging for live drains: a `Phase` trace line
    /// and a pool-occupancy sample per `progress_log_period` (zero
    /// disables). Runs on the same tick as the deadline sweep.
    fn drain_progress(&mut self, cell: &ProcessCell) {
        let hosts: Vec<HostId> = self.drains.keys().copied().collect();
        for host in hosts {
            let Some(st) = self.drains.get_mut(&host) else {
                continue;
            };
            let period = st.pool.progress_log_period;
            if period.is_zero() || st.last_progress.elapsed() < period {
                continue;
            }
            st.last_progress = Instant::now();
            let label = format!(
                "drain:{host} done={}/{} active={} queued={}",
                st.completed + st.aborted,
                st.total,
                st.active.len(),
                st.pending.len()
            );
            let depth = st.active.len();
            cell.trace(EventKind::Phase { label });
            let tracer = cell.tracer();
            if tracer.is_enabled() {
                tracer.metrics().sample_queue_depth(
                    &format!("drain:{host}:pool"),
                    tracer.now_ns(),
                    depth,
                );
            }
        }
    }
}

/// Deposit one scheduler ruling (commit / retry / abort of an in-flight
/// migration) into the shared metrics registry. Free function so both
/// the request handlers and the deadline sweep can call it without
/// fighting the borrow on `self.in_flight`.
fn record_ruling(cell: &ProcessCell, rank: Rank, action: &str, attempts: u32, cause: Option<&str>) {
    let tracer = cell.tracer();
    if tracer.is_enabled() {
        tracer.metrics().record_ruling(SchedulerRuling {
            rank,
            action: action.to_string(),
            attempts,
            cause: cause.map(str::to_string),
        });
    }
}

/// Spawn the scheduler on `host` and install it in the environment,
/// using the default centralized PL table (dense rank-indexed, O(1)
/// per consult — see [`IndexedDirectory`]).
pub fn spawn_scheduler(vm: &VirtualMachine, host: HostId, image: ProcessImage) -> SchedulerHandle {
    spawn_scheduler_with_directory(vm, host, image, Box::new(IndexedDirectory::new()))
}

/// Spawn the scheduler with a custom [`Directory`] backend (§2: any
/// lookup service meeting the requirements works — centralized,
/// hierarchical, or peer-to-peer).
pub fn spawn_scheduler_with_directory(
    vm: &VirtualMachine,
    host: HostId,
    image: ProcessImage,
    dir: Box<dyn Directory>,
) -> SchedulerHandle {
    spawn_scheduler_with_config(vm, host, image, dir, SchedulerConfig::default())
}

/// How often the scheduler wakes from its inbox wait to sweep in-flight
/// migration deadlines.
const SWEEP_TICK: Duration = Duration::from_millis(50);

/// Spawn the scheduler with a custom directory and explicit
/// [`SchedulerConfig`] (retry policy + in-flight deadline).
pub fn spawn_scheduler_with_config(
    vm: &VirtualMachine,
    host: HostId,
    image: ProcessImage,
    dir: Box<dyn Directory>,
    config: SchedulerConfig,
) -> SchedulerHandle {
    let records = RecordStore::new();
    let init_joins = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut state = SchedState {
        dir,
        records: records.clone(),
        in_flight: HashMap::new(),
        drains: HashMap::new(),
        vm: vm.clone(),
        image,
        init_joins: Arc::clone(&init_joins),
        config,
    };
    let (vmid, join) = vm
        .spawn(host, "scheduler", move |cell| loop {
            match cell.recv_incoming_timeout(SWEEP_TICK) {
                Ok(Some(Incoming::Ctrl(Ctrl::SchedRequest(req)))) => {
                    if !state.handle(&cell, req) {
                        return;
                    }
                }
                Ok(Some(Incoming::Ctrl(Ctrl::ConnReq(req)))) => {
                    // Nobody establishes data connections with the
                    // scheduler; reject through the daemon so its pending
                    // record is cleaned up.
                    let target = req.target;
                    let req_id = req.req_id;
                    cell.answer_conn_req(req_id, Ctrl::ConnNack { req_id, target });
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    state.sweep_deadlines(&cell);
                    state.drain_progress(&cell);
                }
                Err(_) => return,
            }
        })
        .expect("scheduler host must be a member");
    vm.set_scheduler(vmid);
    SchedulerHandle {
        vmid,
        records,
        init_joins,
        join: Some(join),
    }
}

/// A no-op image for environments that never migrate (pure messaging
/// tests) — the initialized process exits immediately.
pub fn null_image() -> ProcessImage {
    Arc::new(|_cell, _rank| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SchedClient;
    use snow_vm::HostSpec;

    #[test]
    fn lookup_roundtrip() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        let v = Vmid { host: h, pid: 77 };
        client.register(3, v).unwrap();
        let (status, vmid) = client.lookup(3).unwrap();
        assert_eq!(status, ExeStatus::Running);
        assert_eq!(vmid, Some(v));
        // Unknown rank → Terminated/None.
        let (status, vmid) = client.lookup(9).unwrap();
        assert_eq!(status, ExeStatus::Terminated);
        assert_eq!(vmid, None);
    }

    #[test]
    fn terminated_rank_reported() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        client.register(0, Vmid { host: h, pid: 1 }).unwrap();
        client.terminated(0).unwrap();
        let (status, vmid) = client.lookup(0).unwrap();
        assert_eq!(status, ExeStatus::Terminated);
        assert_eq!(vmid, None);
    }

    #[test]
    fn migrate_unknown_rank_errors() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        let err = client.migrate(42, h).unwrap_err();
        assert!(err.contains("unknown rank"), "{err}");
    }

    #[test]
    fn migrate_to_unknown_host_errors() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        // Register a rank backed by a real blocked process so the signal
        // could be delivered if we got that far.
        let (pv, _join) = vm
            .spawn(h, "p0", |cell| {
                let _ = cell.wait_signal(std::time::Duration::from_millis(500));
            })
            .unwrap();
        client.register(0, pv).unwrap();
        let err = client.migrate(0, HostId(99)).unwrap_err();
        assert!(err.contains("not a member"), "{err}");
    }

    #[test]
    fn migrate_dead_process_errors() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        let (pv, join) = vm.spawn(h, "p0", |_cell| {}).unwrap();
        join.join().unwrap();
        client.register(0, pv).unwrap();
        let err = client.migrate(0, h).unwrap_err();
        assert!(err.contains("terminated before migration"), "{err}");
    }

    #[test]
    fn full_choreography_with_stub_processes() {
        // Drive the four-step dance by hand (no snow-core yet): the
        // "migrating process" and the image both speak the scheduler
        // protocol directly.
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());

        // The image plays the initialized process: restore-complete then
        // commit, once the source has started.
        let image: ProcessImage = Arc::new(move |cell: ProcessCell, rank: Rank| {
            assert!(await_start_handshake(&cell, rank), "reaped before start");
            cell.sched_send(SchedRequest::RestoreComplete {
                rank,
                new_vmid: cell.vmid(),
                reply: cell.reply_sender(),
            })
            .unwrap();
            match cell.recv_incoming().unwrap() {
                Incoming::Ctrl(Ctrl::Sched(SchedReply::PlTable { entries, old_vmid })) => {
                    assert!(!entries.is_empty());
                    assert_ne!(old_vmid, cell.vmid());
                }
                other => panic!("expected PL table, got {other:?}"),
            }
            cell.sched_send(SchedRequest::MigrationCommit { rank })
                .unwrap();
        });
        let sched = spawn_scheduler(&vm, h0, image);
        let client = SchedClient::new(&vm);

        // The migrating process: wait for the signal, announce start.
        let (pv, pjoin) = vm
            .spawn(h0, "p0", move |cell| {
                let sig = cell.wait_signal(std::time::Duration::from_secs(5));
                assert_eq!(sig, Some(Signal::Migrate));
                cell.sched_send(SchedRequest::MigrationStart {
                    rank: 0,
                    reply: cell.reply_sender(),
                })
                .unwrap();
                match cell.recv_incoming().unwrap() {
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::NewVmid { new_vmid })) => {
                        assert_eq!(new_vmid.host, h1);
                    }
                    other => panic!("expected NewVmid, got {other:?}"),
                }
                // Migrating process terminates (Fig 5 line 11).
            })
            .unwrap();
        client.register(0, pv).unwrap();

        let new_vmid = client.migrate(0, h1).unwrap();
        assert_eq!(new_vmid.host, h1);
        pjoin.join().unwrap();

        // Post-commit lookup points at the new location, Running.
        let (status, vmid) = client.lookup(0).unwrap();
        assert_eq!(status, ExeStatus::Running);
        assert_eq!(vmid, Some(new_vmid));

        // Bookkeeping has all four phases.
        let recs = sched.records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].reached(MigrationPhase::Committed));
        assert!(recs[0].total_seconds().unwrap() >= 0.0);
    }

    #[test]
    fn restore_and_commit_before_start_are_refused() {
        // The image reports restore-complete and commits before the
        // source has announced migration_start. Neither may land: the
        // source's start handshake afterwards must still get its vmid.
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let early_done = Arc::new(std::sync::Barrier::new(2));
        let early_image = Arc::clone(&early_done);
        let image: ProcessImage = Arc::new(move |cell: ProcessCell, rank: Rank| {
            cell.sched_send(SchedRequest::RestoreComplete {
                rank,
                new_vmid: cell.vmid(),
                reply: cell.reply_sender(),
            })
            .unwrap();
            let restore_reply = cell.recv_incoming().unwrap();
            cell.sched_send(SchedRequest::MigrationCommit { rank })
                .unwrap();
            // The scheduler answers one request at a time, so the reply
            // to this lookup comes after it handled the commit.
            cell.sched_send(SchedRequest::Lookup {
                about: rank,
                reply: cell.reply_sender(),
            })
            .unwrap();
            let lookup_reply = cell.recv_incoming().unwrap();
            early_image.wait();
            assert!(
                matches!(
                    restore_reply,
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::Error { .. }))
                ),
                "early restore-complete must be refused, got {restore_reply:?}"
            );
            match lookup_reply {
                Incoming::Ctrl(Ctrl::Sched(SchedReply::Location { status, vmid, .. })) => {
                    assert_eq!(status, ExeStatus::Running, "early commit must be ignored");
                    assert_ne!(vmid, Some(cell.vmid()), "early commit must be ignored");
                }
                other => panic!("expected Location, got {other:?}"),
            }
            (commit_image())(cell, rank);
        });
        let sched = spawn_scheduler(&vm, h0, image);
        let client = SchedClient::new(&vm);
        let (pv, pjoin) = vm
            .spawn(h0, "p0", move |cell| {
                assert_eq!(
                    cell.wait_signal(std::time::Duration::from_secs(5)),
                    Some(Signal::Migrate)
                );
                early_done.wait();
                cell.sched_send(SchedRequest::MigrationStart {
                    rank: 0,
                    reply: cell.reply_sender(),
                })
                .unwrap();
                match cell.recv_incoming().unwrap() {
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::NewVmid { new_vmid })) => {
                        assert_eq!(new_vmid.host, h1);
                    }
                    other => panic!("expected NewVmid, got {other:?}"),
                }
            })
            .unwrap();
        client.register(0, pv).unwrap();
        let new_vmid = client.migrate(0, h1).unwrap();
        assert_eq!(new_vmid.host, h1);
        pjoin.join().unwrap();
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
        let recs = sched.records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].reached(MigrationPhase::Committed));
    }

    /// Stand by as an initialized process until the source's
    /// `migration_start` has redirected the directory to us: the
    /// earliest point at which the real `initialize()` can hold the
    /// state, so stub images report restore no sooner. `false` when the
    /// scheduler reaps the stub first.
    fn await_start_handshake(cell: &ProcessCell, rank: Rank) -> bool {
        loop {
            cell.sched_send(SchedRequest::Lookup {
                about: rank,
                reply: cell.reply_sender(),
            })
            .unwrap();
            match cell.recv_incoming() {
                Ok(Incoming::Ctrl(Ctrl::Sched(SchedReply::Location { vmid, .. })))
                    if vmid == Some(cell.vmid()) =>
                {
                    return true
                }
                Ok(Incoming::Ctrl(Ctrl::Sched(SchedReply::MigrationAborted { .. }))) | Err(_) => {
                    return false
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// A stub image that stands by until the scheduler reaps it (how a
    /// blocked `initialize()` perceives an abort).
    fn reapable_image() -> ProcessImage {
        Arc::new(|cell: ProcessCell, rank: Rank| loop {
            match cell.recv_incoming() {
                Ok(Incoming::Ctrl(Ctrl::Sched(SchedReply::MigrationAborted { rank: r }))) => {
                    assert_eq!(r, rank);
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        })
    }

    #[test]
    fn abort_rolls_back_directory_and_errors_requester() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let sched = spawn_scheduler(&vm, h0, reapable_image());
        let client = SchedClient::new(&vm);
        let (pv, pjoin) = vm
            .spawn(h0, "p0", move |cell| {
                assert_eq!(
                    cell.wait_signal(std::time::Duration::from_secs(5)),
                    Some(Signal::Migrate)
                );
                cell.sched_send(SchedRequest::MigrationStart {
                    rank: 0,
                    reply: cell.reply_sender(),
                })
                .unwrap();
                match cell.recv_incoming().unwrap() {
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::NewVmid { .. })) => {}
                    other => panic!("expected NewVmid, got {other:?}"),
                }
                cell.sched_send(SchedRequest::MigrationAbort {
                    rank: 0,
                    reason: "transfer channel died".into(),
                    reply: cell.reply_sender(),
                })
                .unwrap();
                match cell.recv_incoming().unwrap() {
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::MigrationAborted { rank: 0 })) => {}
                    other => panic!("expected MigrationAborted, got {other:?}"),
                }
            })
            .unwrap();
        client.register(0, pv).unwrap();
        let err = client.migrate(0, h1).unwrap_err();
        assert!(err.contains("aborted"), "{err}");
        pjoin.join().unwrap();
        // Directory rolled back: rank 0 Running at the old vmid.
        let (status, vmid) = client.lookup(0).unwrap();
        assert_eq!(status, ExeStatus::Running);
        assert_eq!(vmid, Some(pv));
        let recs = sched.records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].reached(MigrationPhase::Aborted));
        assert!(!recs[0].reached(MigrationPhase::Committed));
        // The reaped init unblocked promptly.
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
    }

    #[test]
    fn retry_policy_respawns_on_alternate_host() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let h2 = vm.add_host(HostSpec::ideal());
        // First init (h1) waits for its reap order; the replacement
        // (h2) runs the restore choreography to completion.
        let image: ProcessImage = Arc::new(move |cell: ProcessCell, rank: Rank| {
            if cell.host() != h2 {
                (reapable_image())(cell, rank);
                return;
            }
            assert!(await_start_handshake(&cell, rank), "reaped before start");
            cell.sched_send(SchedRequest::RestoreComplete {
                rank,
                new_vmid: cell.vmid(),
                reply: cell.reply_sender(),
            })
            .unwrap();
            match cell.recv_incoming().unwrap() {
                Incoming::Ctrl(Ctrl::Sched(SchedReply::PlTable { .. })) => {}
                other => panic!("expected PL table, got {other:?}"),
            }
            cell.sched_send(SchedRequest::MigrationCommit { rank })
                .unwrap();
        });
        let sched = spawn_scheduler_with_config(
            &vm,
            h0,
            image,
            Box::new(IndexedDirectory::new()),
            SchedulerConfig {
                retry: Some(RetryPolicy {
                    max_attempts: 3,
                    backoff: Duration::from_millis(1),
                    ..RetryPolicy::default()
                }),
                ..SchedulerConfig::default()
            },
        );
        let client = SchedClient::new(&vm);
        let (pv, pjoin) = vm
            .spawn(h0, "p0", move |cell| {
                assert_eq!(
                    cell.wait_signal(std::time::Duration::from_secs(5)),
                    Some(Signal::Migrate)
                );
                cell.sched_send(SchedRequest::MigrationStart {
                    rank: 0,
                    reply: cell.reply_sender(),
                })
                .unwrap();
                match cell.recv_incoming().unwrap() {
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::NewVmid { new_vmid })) => {
                        assert_eq!(new_vmid.host, h1);
                    }
                    other => panic!("expected NewVmid, got {other:?}"),
                }
                cell.sched_send(SchedRequest::MigrationAbort {
                    rank: 0,
                    reason: "checksum mismatch".into(),
                    reply: cell.reply_sender(),
                })
                .unwrap();
                match cell.recv_incoming().unwrap() {
                    Incoming::Ctrl(Ctrl::Sched(SchedReply::MigrationRetry {
                        new_vmid,
                        attempt,
                        ..
                    })) => {
                        assert_eq!(new_vmid.host, h2);
                        assert_eq!(attempt, 2);
                    }
                    other => panic!("expected MigrationRetry, got {other:?}"),
                }
                // Second transfer "succeeds": the h2 init commits on its
                // own; the source terminates as in Fig 5 line 11.
            })
            .unwrap();
        client.register(0, pv).unwrap();
        let new_vmid = client.migrate(0, h1).unwrap();
        assert_eq!(new_vmid.host, h2, "must have re-targeted off h1");
        pjoin.join().unwrap();
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
        let recs = sched.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].attempts, 2);
        assert!(recs[0].reached(MigrationPhase::Retried));
        assert!(recs[0].reached(MigrationPhase::Committed));
        assert_eq!(recs[0].new_vmid, new_vmid);
    }

    #[test]
    fn deadline_sweep_reaps_stalled_migration() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let sched = spawn_scheduler_with_config(
            &vm,
            h0,
            reapable_image(),
            Box::new(IndexedDirectory::new()),
            SchedulerConfig {
                retry: None,
                deadline: Some(Duration::from_millis(100)),
            },
        );
        let client = SchedClient::new(&vm);
        // A source that accepts the signal but never transfers.
        let (pv, pjoin) = vm
            .spawn(h0, "p0", move |cell| {
                assert_eq!(
                    cell.wait_signal(std::time::Duration::from_secs(5)),
                    Some(Signal::Migrate)
                );
                std::thread::sleep(Duration::from_millis(400));
            })
            .unwrap();
        client.register(0, pv).unwrap();
        let err = client.migrate(0, h1).unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        pjoin.join().unwrap();
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
        let recs = sched.records();
        assert!(recs[0].reached(MigrationPhase::Aborted));
        // Directory rolled back to the (stalled but live) source.
        let (status, vmid) = client.lookup(0).unwrap();
        assert_eq!(status, ExeStatus::Running);
        assert_eq!(vmid, Some(pv));
    }

    /// A stub image that completes the restore choreography: the
    /// initialized process reports restore-complete, absorbs the PL
    /// table, and commits.
    fn commit_image() -> ProcessImage {
        Arc::new(|cell: ProcessCell, rank: Rank| {
            if !await_start_handshake(&cell, rank) {
                return;
            }
            cell.sched_send(SchedRequest::RestoreComplete {
                rank,
                new_vmid: cell.vmid(),
                reply: cell.reply_sender(),
            })
            .unwrap();
            match cell.recv_incoming().unwrap() {
                Incoming::Ctrl(Ctrl::Sched(SchedReply::PlTable { .. })) => {}
                other => panic!("expected PL table, got {other:?}"),
            }
            cell.sched_send(SchedRequest::MigrationCommit { rank })
                .unwrap();
        })
    }

    /// The source half of a successful migration: wait for the signal,
    /// announce start, learn the destination, terminate (Fig 5 line 11).
    fn migrating_source(rank: Rank) -> impl FnOnce(ProcessCell) + Send + 'static {
        move |cell: ProcessCell| {
            assert_eq!(
                cell.wait_signal(std::time::Duration::from_secs(5)),
                Some(Signal::Migrate)
            );
            cell.sched_send(SchedRequest::MigrationStart {
                rank,
                reply: cell.reply_sender(),
            })
            .unwrap();
            match cell.recv_incoming().unwrap() {
                Incoming::Ctrl(Ctrl::Sched(SchedReply::NewVmid { .. })) => {}
                other => panic!("expected NewVmid, got {other:?}"),
            }
        }
    }

    #[test]
    fn retry_backoff_jitter_is_deterministic_and_spread() {
        let p = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            jitter: Duration::from_millis(50),
            seed: 42,
        };
        // Pure in (seed, rank, attempt): replays are identical.
        assert_eq!(p.backoff_for(3, 2), p.backoff_for(3, 2));
        // Always within [backoff, backoff + jitter].
        for rank in 0..32 {
            for attempt in 1..4 {
                let d = p.backoff_for(rank, attempt);
                assert!(d >= p.backoff, "{d:?} under base");
                assert!(d <= p.backoff + p.jitter, "{d:?} over cap");
            }
        }
        // Gang-mates spread out instead of re-targeting in lockstep.
        let spread: HashSet<Duration> = (0..32).map(|r| p.backoff_for(r, 2)).collect();
        assert!(spread.len() > 16, "only {} distinct draws", spread.len());
        // Attempts draw independently too.
        let per_attempt: HashSet<Duration> = (1..8).map(|a| p.backoff_for(5, a)).collect();
        assert!(per_attempt.len() > 4);
        // A different seed reshuffles the draws.
        let p2 = RetryPolicy {
            seed: 43,
            ..p.clone()
        };
        assert!((0..32).any(|r| p.backoff_for(r, 2) != p2.backoff_for(r, 2)));
        // Zero jitter degenerates to the fixed backoff.
        let p0 = RetryPolicy {
            jitter: Duration::ZERO,
            ..p.clone()
        };
        assert_eq!(p0.backoff_for(7, 1), p0.backoff);
    }

    #[test]
    fn deadline_sweep_under_concurrent_in_flight_entries() {
        // Twelve migrations in flight at once: the even ranks commit
        // while the odd ranks stall past the deadline. The sweep must
        // reap exactly the stalled half without disturbing committers.
        const N: Rank = 12;
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let image: ProcessImage = Arc::new(move |cell: ProcessCell, rank: Rank| {
            if rank.is_multiple_of(2) {
                (commit_image())(cell, rank)
            } else {
                (reapable_image())(cell, rank)
            }
        });
        let sched = spawn_scheduler_with_config(
            &vm,
            h0,
            image,
            Box::new(IndexedDirectory::new()),
            SchedulerConfig {
                retry: None,
                deadline: Some(Duration::from_millis(200)),
            },
        );
        let client = SchedClient::new(&vm);
        let mut old = Vec::new();
        let mut joins = Vec::new();
        for rank in 0..N {
            let (pv, join) = if rank % 2 == 0 {
                vm.spawn(h0, &format!("p{rank}"), migrating_source(rank))
                    .unwrap()
            } else {
                // Accepts the signal but never transfers.
                vm.spawn(h0, &format!("p{rank}"), move |cell| {
                    assert_eq!(
                        cell.wait_signal(std::time::Duration::from_secs(5)),
                        Some(Signal::Migrate)
                    );
                    std::thread::sleep(Duration::from_millis(800));
                })
                .unwrap()
            };
            client.register(rank, pv).unwrap();
            old.push(pv);
            joins.push(join);
        }
        for rank in 0..N {
            client.migrate_async(rank, h1).unwrap();
        }
        for rank in (0..N).filter(|r| r % 2 == 0) {
            let v = client.wait_migration_done(rank).unwrap();
            assert_eq!(v.host, h1, "rank {rank} must land on h1");
        }
        for rank in (0..N).filter(|r| r % 2 == 1) {
            let err = client.wait_migration_done(rank).unwrap_err();
            assert!(err.contains("deadline"), "rank {rank}: {err}");
            // Directory rolled back to the (stalled but live) source.
            let (status, vmid) = client.lookup(rank).unwrap();
            assert_eq!(status, ExeStatus::Running);
            assert_eq!(vmid, Some(old[rank]));
        }
        for j in joins {
            j.join().unwrap();
        }
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
        let recs = sched.records();
        assert_eq!(recs.len(), N);
        let committed = recs
            .iter()
            .filter(|r| r.reached(MigrationPhase::Committed))
            .count();
        let aborted = recs
            .iter()
            .filter(|r| r.reached(MigrationPhase::Aborted))
            .count();
        assert_eq!((committed, aborted), (N / 2, N / 2));
    }

    #[test]
    fn drain_of_unknown_host_fails() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        let err = client
            .drain_host(HostId(99), DrainPoolConfig::default())
            .unwrap_err();
        assert!(matches!(err, FailCause::HostNotMember(HostId(99))), "{err}");
    }

    #[test]
    fn drain_of_empty_host_trivially_evacuates() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h0, null_image());
        let client = SchedClient::new(&vm);
        let report = client.drain_host(h1, DrainPoolConfig::default()).unwrap();
        assert_eq!(
            report.outcome,
            DrainOutcome::Evacuated {
                completed: 0,
                retried: 0
            }
        );
        assert!(report.per_rank.is_empty());
        assert!(!vm.host_is_draining(h1), "flag must clear on completion");
    }

    #[test]
    fn drain_overflow_is_rejected_before_any_work() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h0, null_image());
        let client = SchedClient::new(&vm);
        client.register(0, Vmid { host: h1, pid: 50 }).unwrap();
        client.register(1, Vmid { host: h1, pid: 51 }).unwrap();
        let pool = DrainPoolConfig {
            max_workers: 1,
            job_queue_size: 0,
            ..DrainPoolConfig::default()
        };
        let err = client.drain_host(h1, pool).unwrap_err();
        assert_eq!(
            err,
            FailCause::DrainOverflow {
                ranks: 2,
                capacity: 1
            }
        );
        assert!(!vm.host_is_draining(h1), "rejected drain must not flag");
        // A zero-width pool can hold nothing at all.
        let err = client
            .drain_host(
                h1,
                DrainPoolConfig {
                    max_workers: 0,
                    ..DrainPoolConfig::default()
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            FailCause::DrainOverflow {
                ranks: 2,
                capacity: 0
            }
        );
    }

    #[test]
    fn draining_host_refuses_inbound_migrations_and_double_drain() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let sched = spawn_scheduler_with_config(
            &vm,
            h0,
            reapable_image(),
            Box::new(IndexedDirectory::new()),
            SchedulerConfig {
                retry: None,
                deadline: Some(Duration::from_millis(300)),
            },
        );
        let client = SchedClient::new(&vm);
        // The evacuee accepts the signal but stalls, keeping the drain
        // open until the deadline sweep aborts it.
        let (pv, pjoin) = vm
            .spawn(h1, "p0", move |cell| {
                assert_eq!(
                    cell.wait_signal(std::time::Duration::from_secs(5)),
                    Some(Signal::Migrate)
                );
                std::thread::sleep(Duration::from_millis(900));
            })
            .unwrap();
        client.register(0, pv).unwrap();
        // A bystander rank elsewhere, backed by a live blocked process.
        let (bv, _bjoin) = vm
            .spawn(h0, "p1", |cell| {
                let _ = cell.wait_signal(std::time::Duration::from_secs(2));
            })
            .unwrap();
        client.register(1, bv).unwrap();

        client
            .drain_host_async(h1, DrainPoolConfig::default())
            .unwrap();
        // Let the scheduler admit the drain and raise the flag.
        let deadline = Instant::now() + Duration::from_secs(2);
        while !vm.host_is_draining(h1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(vm.host_is_draining(h1));

        // Admission control: no migrating onto an evacuating host.
        let err = client.migrate(1, h1).unwrap_err();
        assert!(err.contains("draining"), "{err}");
        // And no second drain of the same host.
        let err = client
            .drain_host(h1, DrainPoolConfig::default())
            .unwrap_err();
        assert!(
            matches!(err, FailCause::HostDraining(h) if h == h1),
            "{err}"
        );

        // The stalled evacuee is deadline-swept into a final abort; the
        // drain still terminates with a verdict.
        let report = client.wait_drain_done(h1).unwrap();
        assert_eq!(
            report.outcome,
            DrainOutcome::PartiallyEvacuated {
                completed: 0,
                aborted: 1,
                retried: 0
            }
        );
        assert_eq!(report.per_rank.len(), 1);
        assert!(
            matches!(report.per_rank[0], (0, DrainRankResult::Aborted(_))),
            "{:?}",
            report.per_rank
        );
        assert!(!vm.host_is_draining(h1), "flag must clear after verdict");
        pjoin.join().unwrap();
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
    }

    #[test]
    fn drain_pumps_gang_through_bounded_pool() {
        const N: Rank = 6;
        let vm = VirtualMachine::new(snow_trace::Tracer::new(), snow_net::TimeScale::ZERO);
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ideal());
        let h2 = vm.add_host(HostSpec::ideal());
        let _ = h2;
        let sched = spawn_scheduler(&vm, h0, commit_image());
        let client = SchedClient::new(&vm);
        let mut joins = Vec::new();
        for rank in 0..N {
            let (pv, join) = vm
                .spawn(h1, &format!("p{rank}"), migrating_source(rank))
                .unwrap();
            client.register(rank, pv).unwrap();
            joins.push(join);
        }
        let report = client
            .drain_host(
                h1,
                DrainPoolConfig {
                    max_workers: 2,
                    job_queue_size: 16,
                    ..DrainPoolConfig::default()
                },
            )
            .unwrap();
        assert_eq!(
            report.outcome,
            DrainOutcome::Evacuated {
                completed: N,
                retried: 0
            }
        );
        assert_eq!(report.per_rank.len(), N);
        for (rank, res) in &report.per_rank {
            match res {
                DrainRankResult::Completed(v) => {
                    assert_ne!(v.host, h1, "rank {rank} must leave h1")
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
        // Every rank is resolvable at its new home.
        for rank in 0..N {
            let (status, vmid) = client.lookup(rank).unwrap();
            assert_eq!(status, ExeStatus::Running);
            assert_ne!(vmid.unwrap().host, h1);
        }
        for j in joins {
            j.join().unwrap();
        }
        for j in sched.take_init_joins() {
            j.join().unwrap();
        }
        // Exactly one terminal metrics record, and the pool bound held.
        let drains = vm.shared().tracer().metrics().drains();
        assert_eq!(drains.len(), 1, "one drain → one record");
        let d = &drains[0];
        assert_eq!((d.ranks, d.completed, d.aborted), (N, N, 0));
        assert_eq!(d.max_workers, 2);
        assert!(
            d.peak_active >= 1 && d.peak_active <= 2,
            "pool bound violated: peak {}",
            d.peak_active
        );
        assert_eq!(d.outcome, "evacuated");
        assert!(!vm.host_is_draining(h1));
    }

    #[test]
    fn second_migration_of_same_rank_while_in_flight_errors() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let _sched = spawn_scheduler(&vm, h, null_image());
        let client = SchedClient::new(&vm);
        // A process that ignores the signal, keeping the migration
        // in flight.
        let (pv, _join) = vm
            .spawn(h, "p0", |cell| {
                std::thread::sleep(std::time::Duration::from_millis(300));
                let _ = cell.poll_signal();
            })
            .unwrap();
        client.register(0, pv).unwrap();
        client.migrate_async(0, h).unwrap();
        // Give the scheduler a beat to open the in-flight entry.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let err = client.migrate(0, h).unwrap_err();
        assert!(
            err.contains("migrating") || err.contains("not running"),
            "{err}"
        );
    }
}
