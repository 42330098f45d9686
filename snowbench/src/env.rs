//! What the stream and soak workloads share: building the environment,
//! sizing the load-generating pool, and the first-failure latch.

use snow_core::Computation;
use snow_net::TimeScale;
use snow_vm::{HostSpec, TcpTransport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Ranks of every workload, placed alternately on the two application
/// hosts.
pub const RANKS: usize = 32;

/// Application hosts; the soak adds one spare migration target.
pub const APP_HOSTS: usize = 2;

/// Set-ups per untraced run; the reported set-up time is their median.
pub const SETUPS: usize = 21;

/// An environment of `hosts` ideal hosts with no modeled time, on the
/// in-process transport or on localhost TCP.
pub fn build(tcp: bool, hosts: usize) -> Computation {
    let b = Computation::builder()
        .hosts(HostSpec::ideal(), hosts)
        .time_scale(TimeScale::ZERO);
    if tcp {
        b.transport(Arc::new(TcpTransport::new())).build()
    } else {
        b.build()
    }
}

/// Load-generating threads: one per processor, at most `cap`.
pub fn load_threads(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, cap)
}

/// The first failure any thread reports; the others see the flag and
/// stop.
#[derive(Default)]
pub struct Failure {
    flag: AtomicBool,
    first: Mutex<Option<String>>,
}

impl Failure {
    pub fn set(&self, why: String) {
        let mut first = self.first.lock().expect("failure latch poisoned");
        first.get_or_insert(why);
        self.flag.store(true, Ordering::SeqCst);
    }

    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    pub fn take(&self) -> Option<String> {
        self.first.lock().expect("failure latch poisoned").take()
    }
}
