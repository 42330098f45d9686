//! Localhost TCP backend: the same protocol over real sockets.
//!
//! Every joined node gets its own `127.0.0.1:0` listener; the
//! transport's node table — node id → socket address, daemon handle and
//! expose table — is the built-in *node registry* that resolves
//! vmid→socket without an external name service (the mesh-lang STF
//! design: canonical frames, no EPMD). Frames are the big-endian
//! length-prefixed format of [`snow_net::frame`]; bodies are the
//! canonical encodings of [`super::codec`].
//!
//! Delivery guarantees, by service:
//!
//! * **Connection-oriented** ([`Transport::send_to`] and virtualized
//!   [`RemoteTx`] channel senders): all traffic to one destination node
//!   shares one pooled socket fed through a bounded FIFO queue drained
//!   by a dedicated writer thread, so enqueue order equals wire order
//!   and per-sender FIFO holds end to end. The writer coalesces bursts
//!   of queued frames into shared flushes ([`BatchWriter`]): it drains
//!   until the queue is momentarily empty (or
//!   [`snow_net::frame::BATCH_FLUSH_BYTES`] accumulate) before
//!   flushing, so a flood of small `Inbox`/`Signal` frames costs one
//!   syscall per batch instead of one per frame; the reader on the far
//!   end reads through a buffer of that size, so a batch costs it one
//!   `read` too. The queue bound is the backpressure: senders
//!   outrunning the socket block in `send` until the writer catches up.
//! * **Connectionless** ([`Transport::route_conn_req`]): the frame is
//!   handed to the destination daemon, which draws the drop/duplicate
//!   fault verdict exactly as in-process — fault semantics are
//!   receiver-side and therefore backend-independent.
//! * **Signaling** ([`Transport::signal`]): best-effort; `true` means
//!   the target was alive when the frame was written.
//!
//! Two deliberate differences from the in-process backend, both within
//! the §2.3 contract: a send whose frame was written returns `Ok` even
//! if the destination process dies before the frame lands (a socket
//! cannot know), and senders parked in an expose table stay alive until
//! [`Transport::shutdown`] clears them — clean protocol runs terminate
//! through explicit markers (`PeerMigrating`/`EndOfMessages`), not
//! sender-drop, so only teardown notices.
//!
//! Socket wires carry real delays, so this backend runs at
//! [`TimeScale::ZERO`]: modeled link delays and socket latency must not
//! stack.

use super::codec::{
    decode_conn_req, decode_incoming, decode_signal, put_conn_req, put_incoming, put_signal,
    SenderVault,
};
use super::{NodeId, SendError, Transport};
use crate::daemon::{DaemonHandle, DaemonMsg};
use crate::ids::Vmid;
use crate::post::{InboxClosed, Post, PostSender, RemoteTx};
use crate::vm::Registry;
use crate::wire::{ConnReqMsg, Incoming, Signal, ENVELOPE_OVERHEAD_BYTES};
use parking_lot::{Mutex, RwLock};
use snow_codec::{WireReader, WireWriter};
use snow_net::frame::{
    read_frame, BatchWriter, EncodedFrame, FrameEncoder, FrameError, FrameKind, BATCH_FLUSH_BYTES,
};
use snow_net::{FrameClass, LinkModel, TimeScale};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Node {
    addr: SocketAddr,
    daemon: Mutex<Option<DaemonHandle>>,
    /// Sender handles virtualized out of this node: expose_id → the
    /// live local sender a remote peer's wire name resolves back to.
    exposed: Mutex<HashMap<u64, PostSender<Incoming>>>,
}

/// Frames one pooled connection's queue may hold before senders block.
/// Small enough to bound the memory a stalled peer pins (64 MiB frames
/// × this cap worst case never materialises: floods queue ~100-byte
/// frames, state chunks are few), large enough that a flood burst keeps
/// the writer busy between wakeups.
const SEND_QUEUE_FRAMES: usize = 1024;

/// A pooled outbound connection: encoded frames go into the bounded
/// queue in call order; the dedicated writer thread drains it onto the
/// socket in the same order. The writer owns the stream — when the
/// queue's senders detect disconnection (writer died on a write error)
/// the conn is evicted and the next send re-dials.
struct Conn {
    tx: crossbeam::channel::Sender<EncodedFrame>,
}

/// Drain `rx` onto `stream`, coalescing whatever is queued into shared
/// flushes. Exits when the queue disconnects (conn evicted, node left,
/// shutdown) — after putting any still-queued frames on the wire — or
/// when a write fails, which drops the stream and lets queue senders
/// observe the disconnect on their next send.
fn writer_loop(rx: crossbeam::channel::Receiver<EncodedFrame>, stream: TcpStream) {
    let mut out = BatchWriter::new(stream);
    loop {
        // Park until there is work (or the conn is torn down).
        let frame = match rx.recv() {
            Ok(f) => f,
            Err(_) => {
                let _ = out.flush();
                return;
            }
        };
        if out.push_encoded(frame.as_bytes()).is_err() {
            return;
        }
        // Opportunistic drain: everything queued behind the wakeup
        // frame joins its batch. Flush on queue-momentarily-empty —
        // the latency edge of the flush policy (the byte threshold
        // inside BatchWriter is the other edge).
        loop {
            match rx.try_recv() {
                Ok(f) => {
                    if out.push_encoded(f.as_bytes()).is_err() {
                        return;
                    }
                }
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    let _ = out.flush();
                    return;
                }
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
}

/// How long the accept loop backs off after `err` before the next
/// accept. Per-connection failures (the peer gave up mid-handshake —
/// ECONNABORTED and kin) are normal churn and retry immediately;
/// anything else — most notably descriptor exhaustion, which surfaces
/// as an uncategorised error — backs off so the loop does not spin
/// while the condition persists. No error kind is fatal: the accept
/// thread exits only on shutdown or node removal.
fn accept_backoff(err: &io::Error) -> Duration {
    match err.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted
        | io::ErrorKind::WouldBlock => Duration::ZERO,
        _ => Duration::from_millis(10),
    }
}

struct Inner {
    registry: RwLock<Option<Registry>>,
    nodes: RwLock<HashMap<u32, Arc<Node>>>,
    /// Pooled outbound connections, one per destination node. Dials
    /// happen outside this lock (see [`Inner::conn_to`]); the map is
    /// the single point of truth for which connection frames ride, so
    /// frames of one sender never split across streams — or FIFO dies.
    conns: Mutex<HashMap<u32, Arc<Conn>>>,
    next_expose: AtomicU64,
    down: AtomicBool,
}

impl Inner {
    fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        self.registry.read().as_ref().map(f)
    }

    /// Create the node (listener + accept thread) if it does not exist;
    /// install `daemon` either way when one is supplied.
    fn ensure_node(self: &Arc<Self>, id: u32, daemon: Option<DaemonHandle>) {
        {
            let nodes = self.nodes.read();
            if let Some(node) = nodes.get(&id) {
                if daemon.is_some() {
                    *node.daemon.lock() = daemon;
                }
                return;
            }
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind transport listener");
        let addr = listener.local_addr().expect("listener addr");
        let node = Arc::new(Node {
            addr,
            daemon: Mutex::new(daemon),
            exposed: Mutex::new(HashMap::new()),
        });
        let mut nodes = self.nodes.write();
        // Raced with another creator: keep theirs, drop our listener.
        if let Some(existing) = nodes.get(&id) {
            if node.daemon.lock().is_some() {
                *existing.daemon.lock() = node.daemon.lock().clone();
            }
            return;
        }
        nodes.insert(id, Arc::clone(&node));
        drop(nodes);
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("snow-tcp-accept-{id}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner.down.load(Ordering::SeqCst) || !inner.nodes.read().contains_key(&id) {
                        return;
                    }
                    // A failed accept poisons one handshake, not the
                    // listener: log, back off if it looks like resource
                    // pressure, and keep accepting. Exiting here would
                    // silently stop the node taking new connections.
                    let stream = match stream {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("snow-tcp-accept-{id}: accept error (continuing): {e}");
                            std::thread::sleep(accept_backoff(&e));
                            continue;
                        }
                    };
                    let inner = Arc::clone(&inner);
                    let node = Arc::clone(&node);
                    std::thread::Builder::new()
                        .name(format!("snow-tcp-read-{id}"))
                        .spawn(move || reader_loop(inner, id, node, stream))
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn accept thread");
    }

    /// The pooled connection to `dst`, dialing a new one if none exists.
    /// The dial happens *outside* the `conns` lock — one unreachable
    /// destination must not stall senders to every other node for the
    /// connect timeout — with an insert-or-race afterwards: if another
    /// sender pooled a connection while we dialed, theirs wins and our
    /// socket is dropped before any frame touched it (frames to one
    /// node must never split across streams, or FIFO dies).
    fn conn_to(&self, dst: u32, addr: SocketAddr) -> Result<Arc<Conn>, SendError> {
        if let Some(c) = self.conns.lock().get(&dst) {
            return Ok(Arc::clone(c));
        }
        let stream = TcpStream::connect(addr).map_err(|_| SendError::Unroutable)?;
        let _ = stream.set_nodelay(true);
        let (tx, rx) = crossbeam::channel::bounded(SEND_QUEUE_FRAMES);
        let conn = Arc::new(Conn { tx });
        {
            let mut conns = self.conns.lock();
            if let Some(existing) = conns.get(&dst) {
                return Ok(Arc::clone(existing));
            }
            conns.insert(dst, Arc::clone(&conn));
        }
        std::thread::Builder::new()
            .name(format!("snow-tcp-write-{dst}"))
            .spawn(move || writer_loop(rx, stream))
            .expect("spawn writer thread");
        Ok(conn)
    }

    /// Queue one frame for `dst`'s writer, dialing (or re-dialing after
    /// the writer died on a broken socket) as needed. Blocks only when
    /// `dst`'s queue is full — backpressure from that one socket, not a
    /// global stall. Frames are encoded on the sending thread, so an
    /// oversized body has already surfaced there as a typed error
    /// instead of desyncing the stream or killing the connection
    /// receiver-side.
    fn send_frame(&self, dst: u32, frame: EncodedFrame) -> Result<(), SendError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(SendError::Unroutable);
        }
        let addr = self
            .nodes
            .read()
            .get(&dst)
            .map(|n| n.addr)
            .ok_or(SendError::Unroutable)?;
        let mut frame = Some(frame);
        for attempt in 0..2 {
            let conn = self.conn_to(dst, addr)?;
            match conn.tx.send(frame.take().expect("frame unconsumed")) {
                Ok(()) => return Ok(()),
                // Writer gone (socket died): take the frame back for
                // the retry, evict the dead conn if it is still the
                // pooled one, and re-dial once.
                Err(crossbeam::channel::SendError(f)) => frame = Some(f),
            }
            let mut conns = self.conns.lock();
            if conns.get(&dst).is_some_and(|c| Arc::ptr_eq(c, &conn)) {
                conns.remove(&dst);
            }
            if attempt == 1 {
                return Err(SendError::Unroutable);
            }
        }
        Err(SendError::Unroutable)
    }
}

/// Per-node codec vault: exposes local senders out of `local`'s table,
/// resolves wire names back to local handles or [`TcpRemoteTx`] stubs.
struct NodeVault {
    inner: Arc<Inner>,
    local: u32,
}

impl SenderVault for NodeVault {
    fn expose(&self, s: &PostSender<Incoming>) -> (u32, u64) {
        // Already virtualized: forward its existing wire name instead of
        // chaining a second hop through this node.
        if let Some((home, id)) = s.remote_addr() {
            return (home, id);
        }
        let id = self.inner.next_expose.fetch_add(1, Ordering::Relaxed);
        if let Some(node) = self.inner.nodes.read().get(&self.local) {
            node.exposed.lock().insert(id, s.clone());
        }
        (self.local, id)
    }

    fn resolve(&self, home: u32, id: u64) -> PostSender<Incoming> {
        if home == self.local {
            // A sender exposed here came back around (same-node
            // conn_req): hand back the original local handle.
            if let Some(node) = self.inner.nodes.read().get(&home) {
                if let Some(s) = node.exposed.lock().get(&id) {
                    return s.clone();
                }
            }
            // Expose record gone (node left / shutdown): a dead sender,
            // indistinguishable from the owner terminating.
            let (tx, _gone) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
            return tx;
        }
        PostSender::remote(Arc::new(TcpRemoteTx {
            inner: Arc::clone(&self.inner),
            home,
            id,
            local: self.local,
        }))
    }
}

/// A virtualized sender living on node `home`: sends encode an `Expose`
/// frame and ride the pooled socket to the home node, which looks the
/// id up in its expose table and delivers locally.
struct TcpRemoteTx {
    inner: Arc<Inner>,
    home: u32,
    id: u64,
    /// The node this stub was decoded on — senders embedded in messages
    /// sent *through* this stub are exposed here.
    local: u32,
}

impl RemoteTx<Incoming> for TcpRemoteTx {
    fn send(&self, msg: Incoming, bytes: usize, class: FrameClass) -> Result<(), InboxClosed> {
        let vault = NodeVault {
            inner: Arc::clone(&self.inner),
            local: self.local,
        };
        let frame = message_frame(
            FrameKind::Expose,
            |w| w.put_u64(self.id),
            &vault,
            &msg,
            bytes,
            class,
        )
        .map_err(|_| InboxClosed)?;
        self.inner
            .send_frame(self.home, frame)
            .map_err(|_| InboxClosed)
    }

    fn addr(&self) -> (u32, u64) {
        (self.home, self.id)
    }
}

/// Fixed fields ahead of the message in an `Inbox` or `Expose` frame:
/// the 8-byte address (vmid or expose id), the modeled size and the
/// class.
const MESSAGE_LEAD_BYTES: usize = 8 + 8 + 1;

/// Encode an `Inbox` or `Expose` frame in one buffer sized from the
/// message's modeled size: `address` writes the 8-byte address, then
/// the modeled size, the class and the length-prefixed message follow.
/// The modeled size counts a fixed envelope overhead above the payload,
/// so the buffer normally holds the whole frame without growing.
fn message_frame(
    kind: FrameKind,
    address: impl FnOnce(&mut WireWriter),
    vault: &NodeVault,
    msg: &Incoming,
    bytes: usize,
    class: FrameClass,
) -> Result<EncodedFrame, FrameError> {
    let mut f = FrameEncoder::new(bytes.saturating_add(MESSAGE_LEAD_BYTES));
    address(f.body());
    f.body().put_u64(bytes as u64);
    f.body().put_u8(class_byte(class));
    f.begin_prefixed();
    put_incoming(f.body(), vault, msg);
    f.finish(kind)
}

fn class_byte(class: FrameClass) -> u8 {
    match class {
        FrameClass::Control => 0,
        FrameClass::Data => 1,
    }
}

fn byte_class(b: u8) -> FrameClass {
    if b == 1 {
        FrameClass::Data
    } else {
        FrameClass::Control
    }
}

fn reader_loop(inner: Arc<Inner>, node_id: u32, node: Arc<Node>, stream: TcpStream) {
    // The peer's writer flushes at most about BATCH_FLUSH_BYTES at a
    // time, so a buffer that size takes a whole flush in one `read`
    // rather than two per frame (header, then body). A body larger than
    // the buffer is read past it, straight into the frame's own Vec.
    let mut stream = BufReader::with_capacity(BATCH_FLUSH_BYTES, stream);
    let vault = NodeVault {
        inner: Arc::clone(&inner),
        local: node_id,
    };
    loop {
        let (kind, body) = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            // Clean close, torn stream or teardown: either way this
            // socket is done.
            Ok(None) | Err(_) => return,
        };
        if inner.down.load(Ordering::SeqCst) {
            return;
        }
        // Dispatch must never block: every sink below is an unbounded
        // queue, so a slow process cannot back-pressure the socket into
        // deadlock. Malformed bodies are dropped like corrupt datagrams.
        match kind {
            FrameKind::Inbox => {
                let mut r = WireReader::new(&body);
                let Ok(to) = read_vmid(&mut r) else { continue };
                let (Ok(bytes), Ok(class)) = (r.get_u64(), r.get_u8()) else {
                    continue;
                };
                let Ok(raw) = r.get_bytes() else { continue };
                let Ok(msg) = decode_incoming(&vault, raw) else {
                    continue;
                };
                let _ = inner.with_registry(|reg| {
                    reg.with_addr(to, |addr| {
                        addr.inbox
                            .send_classed(msg, bytes as usize, byte_class(class))
                    })
                });
            }
            FrameKind::Expose => {
                let mut r = WireReader::new(&body);
                let (Ok(id), Ok(bytes), Ok(class)) = (r.get_u64(), r.get_u64(), r.get_u8()) else {
                    continue;
                };
                let Ok(raw) = r.get_bytes() else { continue };
                let Ok(msg) = decode_incoming(&vault, raw) else {
                    continue;
                };
                // Delivered under the table lock: cloning the sender out
                // would cost a lock on its inbox, and dropping the clone
                // another. Only process-local senders are ever exposed
                // (`NodeVault::expose` forwards a remote one's existing
                // name), and a local sender feeds an unbounded queue, so
                // this send cannot block or re-enter the table.
                if let Some(s) = node.exposed.lock().get(&id) {
                    let _ = s.send_classed(msg, bytes as usize, byte_class(class));
                }
            }
            FrameKind::ConnReq => {
                let Ok(req) = decode_conn_req(&vault, &body) else {
                    continue;
                };
                if let Some(d) = node.daemon.lock().clone() {
                    d.send(DaemonMsg::RouteConnReq(req));
                }
            }
            FrameKind::Signal => {
                let mut r = WireReader::new(&body);
                let Ok(to) = read_vmid(&mut r) else { continue };
                let Ok(raw) = r.get_bytes() else { continue };
                let Ok(sig) = decode_signal(raw) else {
                    continue;
                };
                let _ = inner
                    .with_registry(|reg| reg.with_addr(to, |addr| addr.signals.send(sig).is_ok()));
            }
        }
    }
}

fn read_vmid(r: &mut WireReader) -> Result<Vmid, snow_codec::CodecError> {
    Ok(Vmid {
        host: crate::ids::HostId(r.get_u32()?),
        pid: r.get_u32()?,
    })
}

fn write_vmid(w: &mut WireWriter, vmid: Vmid) {
    w.put_u32(vmid.host.0);
    w.put_u32(vmid.pid);
}

/// The localhost-sockets backend. See the module docs for guarantees.
pub struct TcpTransport {
    inner: Arc<Inner>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// An unattached TCP transport. Nodes (listeners) are created as
    /// hosts join; the scheduler-client node appears lazily on its
    /// first send.
    pub fn new() -> Self {
        TcpTransport {
            inner: Arc::new(Inner {
                registry: RwLock::new(None),
                nodes: RwLock::new(HashMap::new()),
                conns: Mutex::new(HashMap::new()),
                next_expose: AtomicU64::new(1),
                down: AtomicBool::new(false),
            }),
        }
    }

    fn vault(&self, local: u32) -> NodeVault {
        // Sends may originate from endpoints that never joined as hosts
        // (the scheduler client, bench harness threads): give them a
        // real node on first use so exposed reply handles can route
        // back.
        self.inner.ensure_node(local, None);
        NodeVault {
            inner: Arc::clone(&self.inner),
            local,
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn attach(&self, registry: Registry) {
        *self.inner.registry.write() = Some(registry);
    }

    fn host_joined(&self, node: NodeId, daemon: Option<DaemonHandle>) {
        self.inner.ensure_node(node.0, daemon);
    }

    fn host_left(&self, node: NodeId) {
        let removed = self.inner.nodes.write().remove(&node.0);
        self.inner.conns.lock().remove(&node.0);
        if let Some(n) = removed {
            // Wake the accept loop so it observes the removal and exits.
            let _ = TcpStream::connect(n.addr);
            n.exposed.lock().clear();
        }
    }

    fn send_to(
        &self,
        from: NodeId,
        to: Vmid,
        msg: Incoming,
        bytes: usize,
        class: FrameClass,
    ) -> Result<(), SendError> {
        // The modeled wire size obeys the same frame cap as the real
        // encoding (checked again in send_frame), keeping the
        // "fits in one frame" contract backend-independent.
        if bytes > snow_net::MAX_BODY_BYTES {
            return Err(SendError::TooLarge);
        }
        let vault = self.vault(from.0);
        let frame = message_frame(
            FrameKind::Inbox,
            |w| write_vmid(w, to),
            &vault,
            &msg,
            bytes,
            class,
        )
        .map_err(|_| SendError::TooLarge)?;
        self.inner.send_frame(to.host.0, frame)
    }

    fn route_conn_req(&self, from: NodeId, req: ConnReqMsg) -> Result<(), SendError> {
        let dst = req.target.host.0;
        let vault = self.vault(from.0);
        let mut f = FrameEncoder::new(ENVELOPE_OVERHEAD_BYTES);
        put_conn_req(f.body(), &vault, &req);
        let frame = f
            .finish(FrameKind::ConnReq)
            .map_err(|_| SendError::TooLarge)?;
        self.inner.send_frame(dst, frame)
    }

    fn signal(&self, to: Vmid, sig: Signal) -> bool {
        // Best-effort with a local liveness answer: the frame rides the
        // socket, the boolean reflects whether the target was still
        // registered when it was written.
        let alive = self
            .inner
            .with_registry(|reg| reg.with_addr(to, |_| true).unwrap_or(false))
            .unwrap_or(false);
        if !alive {
            return false;
        }
        let mut f = FrameEncoder::new(ENVELOPE_OVERHEAD_BYTES);
        write_vmid(f.body(), to);
        f.begin_prefixed();
        put_signal(f.body(), sig);
        f.finish(FrameKind::Signal)
            .is_ok_and(|frame| self.inner.send_frame(to.host.0, frame).is_ok())
    }

    fn shutdown(&self) {
        if self.inner.down.swap(true, Ordering::SeqCst) {
            return;
        }
        let nodes: Vec<Arc<Node>> = self.inner.nodes.write().drain().map(|(_, n)| n).collect();
        // Close pooled sockets (readers on the far end see EOF) …
        self.inner.conns.lock().clear();
        for n in &nodes {
            // … wake each accept loop so it observes `down` and exits …
            let _ = TcpStream::connect(n.addr);
            // … and drop parked senders so blocked receivers see
            // InboxClosed instead of waiting on a handle nobody holds.
            n.exposed.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;
    use crate::vm::ProcAddr;
    use crate::wire::{Ctrl, Envelope, Payload};
    use bytes::Bytes;
    use snow_trace::MsgId;
    use std::time::Duration;

    fn register_proc(
        reg: &Registry,
        vmid: Vmid,
    ) -> (Post<Incoming>, crossbeam::channel::Receiver<Signal>) {
        let (tx, post) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let (sig_tx, sig_rx) = crossbeam::channel::unbounded();
        reg.register(
            vmid,
            ProcAddr {
                inbox: tx,
                signals: sig_tx,
                host: vmid.host,
                label: "t".into(),
            },
        );
        (post, sig_rx)
    }

    #[test]
    fn inbox_frames_cross_the_socket_in_order() {
        let t = TcpTransport::new();
        let reg = Registry::new();
        t.attach(reg.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let (post, _sigs) = register_proc(&reg, dst);
        for i in 0..200u64 {
            let msg = Incoming::Data(Envelope {
                src: 0,
                tag: 0,
                msg: MsgId(i),
                payload: Payload::Data(Bytes::from(i.to_be_bytes().to_vec())),
            });
            t.send_to(NodeId(0), dst, msg, 64, FrameClass::Data)
                .unwrap();
        }
        for i in 0..200u64 {
            match post.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(Incoming::Data(e)) => assert_eq!(e.msg, MsgId(i)),
                other => panic!("expected data, got {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn accept_backoff_classifies_churn_vs_pressure() {
        // Handshake churn retries immediately …
        for kind in [
            std::io::ErrorKind::ConnectionAborted,
            std::io::ErrorKind::ConnectionReset,
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::WouldBlock,
        ] {
            assert_eq!(
                accept_backoff(&std::io::Error::from(kind)),
                Duration::ZERO,
                "{kind:?}"
            );
        }
        // … resource pressure (EMFILE surfaces uncategorised) backs off.
        let emfile = std::io::Error::from_raw_os_error(24); // EMFILE
        assert!(accept_backoff(&emfile) > Duration::ZERO);
    }

    #[test]
    fn accept_loop_survives_connection_churn() {
        // Torn handshakes (the churn that produces ECONNABORTED under
        // load) must not kill the node: after a burst of connect+drop,
        // real frames still flow.
        let t = TcpTransport::new();
        let reg = Registry::new();
        t.attach(reg.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let (post, _sigs) = register_proc(&reg, dst);
        let addr = t.inner.nodes.read().get(&1).unwrap().addr;
        for _ in 0..50 {
            drop(std::net::TcpStream::connect(addr).unwrap());
        }
        let msg = Incoming::Data(Envelope {
            src: 0,
            tag: 0,
            msg: MsgId(7),
            payload: Payload::Data(Bytes::from_static(b"alive")),
        });
        t.send_to(NodeId(0), dst, msg, 64, FrameClass::Data)
            .unwrap();
        match post.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Incoming::Data(e)) => assert_eq!(e.msg, MsgId(7)),
            other => panic!("node stopped accepting after churn: {other:?}"),
        }
        t.shutdown();
    }

    #[test]
    fn oversized_modeled_send_is_too_large() {
        let t = TcpTransport::new();
        let reg = Registry::new();
        t.attach(reg.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let (_post, _sigs) = register_proc(&reg, dst);
        let msg = Incoming::Data(Envelope {
            src: 0,
            tag: 0,
            msg: MsgId(1),
            payload: Payload::Data(Bytes::from_static(b"small body, huge claim")),
        });
        assert_eq!(
            t.send_to(
                NodeId(0),
                dst,
                msg,
                snow_net::MAX_BODY_BYTES + 1,
                FrameClass::Data
            ),
            Err(SendError::TooLarge)
        );
        t.shutdown();
    }

    #[test]
    fn unknown_node_is_unroutable() {
        let t = TcpTransport::new();
        t.attach(Registry::new());
        t.host_joined(NodeId(0), None);
        let dst = Vmid {
            host: HostId(9),
            pid: 0,
        };
        let msg = Incoming::Ctrl(Ctrl::ConnNack {
            req_id: 1,
            target: dst,
        });
        assert_eq!(
            t.send_to(NodeId(0), dst, msg, 64, FrameClass::Control),
            Err(SendError::Unroutable)
        );
    }

    #[test]
    fn host_left_cuts_the_route() {
        let t = TcpTransport::new();
        let reg = Registry::new();
        t.attach(reg.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let (_post, _sigs) = register_proc(&reg, dst);
        let msg = || {
            Incoming::Ctrl(Ctrl::ConnNack {
                req_id: 1,
                target: dst,
            })
        };
        t.send_to(NodeId(0), dst, msg(), 64, FrameClass::Control)
            .unwrap();
        t.host_left(NodeId(1));
        assert_eq!(
            t.send_to(NodeId(0), dst, msg(), 64, FrameClass::Control),
            Err(SendError::Unroutable)
        );
        t.shutdown();
    }

    #[test]
    fn signals_ride_the_socket() {
        let t = TcpTransport::new();
        let reg = Registry::new();
        t.attach(reg.clone());
        t.host_joined(NodeId(0), None);
        let dst = Vmid {
            host: HostId(0),
            pid: 0,
        };
        let (_post, sigs) = register_proc(&reg, dst);
        assert!(t.signal(dst, Signal::Disconnect { from: 3 }));
        assert_eq!(
            sigs.recv_timeout(Duration::from_secs(5)).unwrap(),
            Signal::Disconnect { from: 3 }
        );
        // Unknown process: reported dead without a socket write.
        assert!(!t.signal(
            Vmid {
                host: HostId(0),
                pid: 99,
            },
            Signal::Migrate
        ));
        t.shutdown();
    }

    #[test]
    fn exposed_sender_routes_back_to_origin_node() {
        // A reply handle embedded in a message exposed on node 0 must be
        // usable from node 1 — the virtualized-handle path that makes
        // conn_req/grant handshakes work over sockets.
        let t = TcpTransport::new();
        let reg = Registry::new();
        t.attach(reg.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let sched = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let (sched_post, _sigs) = register_proc(&reg, sched);
        // "Process" on node 0: a raw post whose sender goes out as a
        // reply handle inside a Lookup request.
        let (reply_tx, reply_post) = Post::<Incoming>::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let req = Incoming::Ctrl(Ctrl::SchedRequest(crate::wire::SchedRequest::Lookup {
            about: 5,
            reply: reply_tx,
        }));
        t.send_to(NodeId(0), sched, req, 64, FrameClass::Control)
            .unwrap();
        let got_reply = match sched_post.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Incoming::Ctrl(Ctrl::SchedRequest(crate::wire::SchedRequest::Lookup {
                about: 5,
                reply,
            }))) => reply,
            other => panic!("expected lookup, got {other:?}"),
        };
        // The decoded handle is remote (it lives on node 0) …
        assert_eq!(got_reply.remote_addr().map(|(h, _)| h), Some(0));
        // … and sending through it lands in the original post.
        got_reply
            .send(
                Incoming::Ctrl(Ctrl::Sched(crate::wire::SchedReply::Location {
                    about: 5,
                    status: crate::wire::ExeStatus::Running,
                    vmid: None,
                })),
                64,
            )
            .unwrap();
        match reply_post.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Incoming::Ctrl(Ctrl::Sched(crate::wire::SchedReply::Location {
                about: 5,
                ..
            }))) => {}
            other => panic!("expected location reply, got {other:?}"),
        }
        t.shutdown();
    }
}
