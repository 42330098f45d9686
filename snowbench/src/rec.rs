//! Per-thread recording. Every call the benchmark makes into
//! `core::process` goes through [`Rec`], which counts it always and, in
//! a traced run, times it into a histogram and keeps a span for sampled
//! messages. Nothing here is shared between threads until the run ends.

use crate::lanes::Stamp;
use crate::stats::{Hist, Span};
use bytes::Bytes;
use snow_core::{ProtoError, SnowProcess};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The application tag every benchmark message uses.
pub const TAG: i32 = 7;

/// Message spans are kept for one sequence number in this many.
const SPAN_SAMPLE: u32 = 1024;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// A fresh span id (statistic-only counter: publishes no other data).
pub fn span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Request id shared by a message's spans.
pub fn msg_req(src: usize, seq: u32) -> u64 {
    (src as u64) << 32 | seq as u64
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One message `try_recv` returned.
pub struct Received {
    pub src: usize,
    pub body: Bytes,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Rec {
    pub traced: bool,
    pub epoch: Instant,
    /// Accepted `try_send` calls, ns each (traced).
    pub send: Hist,
    /// `try_recv` calls that returned a message, ns each (traced).
    pub recv: Hist,
    /// Accepted send → verified receipt, ns (traced).
    pub transit: Hist,
    /// Due → verified receipt, ns (streams).
    pub svc: Hist,
    /// Due → accepted send, ns (soak, traced).
    pub lag: Hist,
    pub send_calls: u64,
    pub send_refused: u64,
    pub recv_calls: u64,
    pub recv_hits: u64,
    /// ns inside `try_send` + `try_recv` + `poll_point` (traced).
    pub busy_ns: u64,
    pub backlog_max: usize,
    pub rml_max: usize,
    /// Verified deliveries of timed (non-warm-up) messages.
    pub delivered: u64,
    pub last_delivery_ns: u64,
    pub sweeps: u64,
    pub idle_sweeps: u64,
    pub spans: Vec<Span>,
    /// (due ns, latency ns) of each timed delivery (soak).
    pub svc_pairs: Vec<(u64, u64)>,
    /// (peer, ns) of each accepted send to the hot rank (soak).
    pub hot_accepts: Vec<(usize, u64)>,
}

impl Rec {
    pub fn new(traced: bool, epoch: Instant) -> Rec {
        Rec {
            traced,
            epoch,
            send: Hist::default(),
            recv: Hist::default(),
            transit: Hist::default(),
            svc: Hist::default(),
            lag: Hist::default(),
            send_calls: 0,
            send_refused: 0,
            recv_calls: 0,
            recv_hits: 0,
            busy_ns: 0,
            backlog_max: 0,
            rml_max: 0,
            delivered: 0,
            last_delivery_ns: 0,
            sweeps: 0,
            idle_sweeps: 0,
            spans: Vec::new(),
            svc_pairs: Vec::new(),
            hot_accepts: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        since(self.epoch)
    }

    pub fn span(&mut self, name: &'static str, req: u64, parent: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id: span_id(),
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
    }

    /// `SnowProcess::try_send` for message `(me, seq)`.
    pub fn try_send(
        &mut self,
        p: &mut SnowProcess,
        dest: usize,
        payload: &Bytes,
        seq: u32,
    ) -> Result<bool, ProtoError> {
        if !self.traced {
            return p.try_send(dest, TAG, payload);
        }
        let t0 = self.now();
        let r = p.try_send(dest, TAG, payload);
        let t1 = self.now();
        self.busy_ns += t1 - t0;
        self.send_calls += 1;
        match r {
            Ok(true) => {
                self.send.record(t1 - t0);
                if seq.is_multiple_of(SPAN_SAMPLE) {
                    self.span("core.process.try_send", msg_req(p.rank(), seq), 0, t0, t1);
                }
            }
            Ok(false) => self.send_refused += 1,
            Err(_) => {}
        }
        r
    }

    /// `SnowProcess::try_recv` for any source; returns the body with the
    /// reported source and the call's start (traced runs only) and end.
    pub fn try_recv(&mut self, p: &mut SnowProcess) -> Result<Option<Received>, ProtoError> {
        let t0 = if self.traced { self.now() } else { 0 };
        let r = p.try_recv(None, Some(TAG));
        let hit = matches!(r, Ok(Some(_)));
        let t1 = if self.traced || hit { self.now() } else { 0 };
        if self.traced {
            self.busy_ns += t1 - t0;
            self.recv_calls += 1;
            if hit {
                self.recv_hits += 1;
                self.recv.record(t1 - t0);
            }
        }
        Ok(r?.map(|(src, _tag, body)| Received {
            src,
            body,
            start_ns: t0,
            end_ns: t1,
        }))
    }

    /// Count a verified timed delivery (not a warm-up message).
    pub fn delivered(&mut self, m: &Received, s: &Stamp) {
        self.delivered += 1;
        self.last_delivery_ns = m.end_ns;
        if self.traced {
            self.transit.record(m.end_ns.saturating_sub(s.sent_ns));
            if s.seq.is_multiple_of(SPAN_SAMPLE) {
                let req = msg_req(s.src, s.seq);
                self.span("core.process.try_recv", req, 0, m.start_ns, m.end_ns);
            }
        }
    }

    /// `SnowProcess::poll_point`.
    pub fn poll_point(&mut self, p: &mut SnowProcess) -> Result<bool, ProtoError> {
        if !self.traced {
            return p.poll_point();
        }
        let t0 = self.now();
        let r = p.poll_point();
        self.busy_ns += self.now() - t0;
        r
    }

    /// Sample the queues a visit can see (traced).
    pub fn sample_queues(&mut self, p: &SnowProcess) {
        if self.traced {
            self.backlog_max = self.backlog_max.max(p.cell().inbox_backlog());
            self.rml_max = self.rml_max.max(p.rml_len());
        }
    }

    pub fn merge(&mut self, o: Rec) {
        self.send.merge(&o.send);
        self.recv.merge(&o.recv);
        self.transit.merge(&o.transit);
        self.svc.merge(&o.svc);
        self.lag.merge(&o.lag);
        self.send_calls += o.send_calls;
        self.send_refused += o.send_refused;
        self.recv_calls += o.recv_calls;
        self.recv_hits += o.recv_hits;
        self.busy_ns += o.busy_ns;
        self.backlog_max = self.backlog_max.max(o.backlog_max);
        self.rml_max = self.rml_max.max(o.rml_max);
        self.delivered += o.delivered;
        self.last_delivery_ns = self.last_delivery_ns.max(o.last_delivery_ns);
        self.sweeps += o.sweeps;
        self.idle_sweeps += o.idle_sweeps;
        self.spans.extend(o.spans);
        self.svc_pairs.extend(o.svc_pairs);
        self.hot_accepts.extend(o.hot_accepts);
    }
}
