//! # snow-state — execution & memory state for heterogeneous migration
//!
//! SNOW splits process state transfer into three problem domains (§1 of
//! the paper): *computation state*, *memory state*, and *communication
//! state*. The communication state is the paper's subject (`snow-core`);
//! the other two are solved in the authors' companion work — compiler-
//! selected poll points for the execution state \[10\] and a graph
//! representation of data structures for the memory state \[11\]. The
//! communication protocol only needs them as an opaque, machine-
//! independent byte stream produced at Fig 5 line 9 and consumed at
//! Fig 7 line 8. This crate is a faithful working stand-in:
//!
//! * [`exec`] — [`exec::ExecState`]: the function-call path to the active
//!   poll point ("main → kernelMG"), the poll-point id, and the live
//!   locals, all as machine-independent values.
//! * [`memory`] — [`memory::MemoryGraph`]: typed heap blocks plus
//!   pointer edges (cycles allowed); encoding relocates pointers to
//!   canonical node indices so they can be re-materialised at different
//!   addresses on the destination machine.
//! * [`snapshot`] — [`snapshot::ProcessState`]: exec + memory bundled
//!   with an integrity checksum; a migration ships its canonical body
//!   as a [`pipeline`] chunk stream.
//! * [`hash`] — XXH64, the one integrity hash every check on the
//!   migrating state uses.
//! * [`cost`] — the collect/transfer/restore cost model calibrated from
//!   Tables 1–2 of the paper (Ultra 5 collects ~7.5 MB in 0.73 s, the
//!   DEC 5000/120 in 5.209 s).
//! * [`pipeline`] — chunked, worker-pool state collection and
//!   incremental restore, so collect/transmit/restore overlap instead of
//!   running strictly serially.

#![warn(missing_docs)]

pub mod cost;
pub mod exec;
pub mod hash;
pub mod memory;
pub mod pipeline;
pub mod snapshot;

pub use cost::StateCostModel;
pub use exec::ExecState;
pub use hash::{xxh64, Xxh64};
pub use memory::{MemoryGraph, NodeId};
pub use pipeline::{
    collect_chunks, pipelined_makespan, stream_chunks, ChunkStreamSummary, ChunkedRestorer,
    PipelineConfig, PipelineSchedule, RestoreTeardown, StateChunk,
};
pub use snapshot::{fnv1a, fnv1a_with_seed, ProcessState, StateError, FNV_OFFSET};
