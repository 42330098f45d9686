//! Protocol-level errors.

use snow_state::StateError;
use snow_vm::process::EnvError;
use snow_vm::Rank;

/// Errors surfaced by the SNOW communication and migration protocols.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The destination rank has terminated — `connect()`'s
    /// "error: destination terminated" (Fig 3 line 13).
    DestinationTerminated(Rank),
    /// The environment failed underneath the protocol (inbox closed,
    /// scheduler gone, ...).
    Env(EnvError),
    /// The scheduler answered a coordination request with an error.
    Scheduler(String),
    /// Execution/memory state failed to restore on the destination.
    State(StateError),
    /// A protocol step did not complete within the watchdog window —
    /// indicates a peer died without coordination (outside the paper's
    /// failure model, reported rather than hanging).
    Watchdog(&'static str),
    /// A peer violated the transfer protocol (a duplicate RML batch).
    Protocol(&'static str),
    /// The migration this process was the destination of was aborted by
    /// the source or the scheduler before commit; the initialized
    /// process must stand down quietly.
    MigrationAborted,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::DestinationTerminated(r) => {
                write!(f, "destination rank {r} terminated")
            }
            ProtoError::Env(e) => write!(f, "environment error: {e}"),
            ProtoError::Scheduler(s) => write!(f, "scheduler error: {s}"),
            ProtoError::State(e) => write!(f, "state transfer error: {e}"),
            ProtoError::Watchdog(what) => write!(f, "protocol watchdog expired in {what}"),
            ProtoError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ProtoError::MigrationAborted => {
                write!(f, "migration aborted before commit")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<EnvError> for ProtoError {
    fn from(e: EnvError) -> Self {
        ProtoError::Env(e)
    }
}

impl From<StateError> for ProtoError {
    fn from(e: StateError) -> Self {
        ProtoError::State(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(ProtoError::DestinationTerminated(3)
            .to_string()
            .contains("rank 3"));
        assert!(ProtoError::Scheduler("boom".into())
            .to_string()
            .contains("boom"));
        assert!(ProtoError::Watchdog("drain").to_string().contains("drain"));
        assert!(ProtoError::Protocol("duplicate RML batch")
            .to_string()
            .contains("duplicate RML batch"));
        assert!(ProtoError::MigrationAborted.to_string().contains("aborted"));
    }

    #[test]
    fn env_error_converts() {
        let e: ProtoError = EnvError::NoScheduler.into();
        assert_eq!(e, ProtoError::Env(EnvError::NoScheduler));
    }
}
