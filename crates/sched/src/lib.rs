//! # snow-sched — the scheduler
//!
//! The paper requires a scheduler that (§2): (i) tracks hosts and
//! processes, (ii) provides a scalable lookup service mapping ranks to
//! vmids, and (iii) coordinates migration on the source and destination
//! computers. The paper uses a centralized scheduler "for the sake of
//! simplicity" and notes any directory meeting the requirements works;
//! we mirror that: the [`directory::Directory`] trait abstracts the PL
//! store, with [`directory::IndexedDirectory`] (dense O(1) rank-indexed
//! PL table) as the default backend.
//!
//! The migration choreography (§2.2, §3.2.2):
//!
//! 1. A user asks the scheduler to migrate `rank` to a host
//!    ([`snow_vm::wire::SchedRequest::Migrate`]).
//! 2. The scheduler *initializes* a process on the destination — remote
//!    invocation of the migration-enabled executable — then sends the
//!    `migration_request` signal to the migrating process.
//! 3. The migrating process answers with `migration_start` and receives
//!    the initialized process's vmid.
//! 4. The initialized process reports `restore_complete`, receives the
//!    PL table, and confirms `migration_commit`; the scheduler updates
//!    its books and notifies the original requester.
//!
//! Throughout the migration the PL table already maps the rank to the
//! *initialized* process, so peers whose `conn_req` bounces redirect
//! there on demand — no broadcast, no forwarding (§3.1).

#![warn(missing_docs)]

pub mod client;
pub mod directory;
pub mod records;
pub mod scheduler;

pub use client::{DrainReport, SchedClient};
pub use directory::{CentralTable, Directory, IndexedDirectory, PlEntry};
pub use records::{MigrationPhase, MigrationRecord};
pub use scheduler::{
    spawn_scheduler, spawn_scheduler_with_config, spawn_scheduler_with_directory, ProcessImage,
    RetryPolicy, SchedulerConfig, SchedulerHandle,
};
