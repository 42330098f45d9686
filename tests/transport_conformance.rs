//! Backend-parametrized conformance suite for the [`Transport`] seam.
//!
//! The paper's §2.3 service split — lossless in-order channels plus a
//! best-effort connectionless daemon service — must hold identically on
//! every backend, so each property here runs twice: against the default
//! in-process substrate and against the framed localhost-TCP backend.
//! Anything the protocols rely on (per-sender FIFO, conn_req
//! re-delivery after a dropped datagram, late receivers absorbing a
//! buffered backlog) is pinned at this seam rather than in the
//! protocol suites, so a new backend gets the whole checklist for free.

use bytes::Bytes;
use snow::net::{FaultPlan, FaultSpec, FrameClass, LinkModel, LinkSel, TimeScale};
use snow::trace::{MsgId, Tracer};
use snow::vm::daemon::spawn_daemon;
use snow::vm::vm::{ProcAddr, Registry};
use snow::vm::wire::{ConnReqMsg, Ctrl, Envelope, Incoming, Payload};
use snow::vm::{
    FaultLayer, HostId, InProcTransport, NodeId, Post, SendError, TcpTransport, Transport, Vmid,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `prop` once per backend, labelling failures with the backend
/// name.
fn for_each_backend(prop: impl Fn(&'static str, Arc<dyn Transport>)) {
    let backends: [(&'static str, Arc<dyn Transport>); 2] = [
        ("inproc", Arc::new(InProcTransport::new())),
        ("tcp", Arc::new(TcpTransport::new())),
    ];
    for (name, t) in backends {
        prop(name, Arc::clone(&t));
        t.shutdown();
    }
}

/// Register a fresh inbox for `vmid` in `registry`, returning the
/// receiving post.
fn register_inbox(registry: &Registry, vmid: Vmid) -> Post<Incoming> {
    let (tx, post) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
    let (sig_tx, _sig_rx) = crossbeam::channel::unbounded();
    registry.register(
        vmid,
        ProcAddr {
            inbox: tx,
            signals: sig_tx,
            host: vmid.host,
            label: format!("t{}:{}", vmid.host, vmid.pid),
        },
    );
    post
}

fn data_env(src: usize, seq: u64) -> Incoming {
    Incoming::Data(Envelope {
        src,
        tag: 1,
        msg: MsgId(seq),
        payload: Payload::Data(Bytes::copy_from_slice(&seq.to_le_bytes())),
    })
}

/// Blocking drain of the next message, with a patience ceiling (TCP
/// delivery crosses a socket and a reader thread, so `try_recv` alone
/// would race).
fn recv_within(post: &Post<Incoming>, d: Duration) -> Option<Incoming> {
    let deadline = Instant::now() + d;
    loop {
        let left = deadline.checked_duration_since(Instant::now())?;
        if let Ok(Some(msg)) = post.recv_timeout(left) {
            return Some(msg);
        }
    }
}

/// §4 FIFO at the seam: a burst from one sender node arrives complete
/// and in order, whatever the backend does with framing and threads.
#[test]
fn per_sender_fifo_holds_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let post = register_inbox(&registry, dst);
        const N: u64 = 1_000;
        for seq in 0..N {
            t.send_to(NodeId(0), dst, data_env(0, seq), 16, FrameClass::Data)
                .unwrap_or_else(|e| panic!("{name}: send {seq} failed: {e}"));
        }
        for expect in 0..N {
            match recv_within(&post, Duration::from_secs(10)) {
                Some(Incoming::Data(env)) => {
                    assert_eq!(env.msg, MsgId(expect), "{name}: out-of-order delivery");
                }
                other => panic!("{name}: lost message {expect}: {other:?}"),
            }
        }
    });
}

/// §4 FIFO survives wire batching: a burst interleaving many small
/// frames with large state-chunk-sized bodies — the shape a migration
/// under flood load produces — arrives complete and in order. On TCP
/// the small frames coalesce into shared flushes while the large ones
/// trip the byte-threshold flush mid-batch; neither path may reorder.
#[test]
fn batched_burst_with_large_chunks_keeps_fifo_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let post = register_inbox(&registry, dst);
        // 512 KiB dwarfs BATCH_FLUSH_BYTES (64 KiB): every chunk frame
        // forces at least one threshold flush inside the writer.
        let chunk = Bytes::from(vec![0xabu8; 512 * 1024]);
        const N: u64 = 400;
        for seq in 0..N {
            let (payload, bytes) = if seq % 50 == 25 {
                (Payload::Data(chunk.clone()), chunk.len())
            } else {
                (
                    Payload::Data(Bytes::copy_from_slice(&seq.to_le_bytes())),
                    16,
                )
            };
            let env = Incoming::Data(Envelope {
                src: 0,
                tag: 1,
                msg: MsgId(seq),
                payload,
            });
            t.send_to(NodeId(0), dst, env, bytes, FrameClass::Data)
                .unwrap_or_else(|e| panic!("{name}: send {seq} failed: {e}"));
        }
        for expect in 0..N {
            match recv_within(&post, Duration::from_secs(10)) {
                Some(Incoming::Data(env)) => {
                    assert_eq!(env.msg, MsgId(expect), "{name}: batch reordered the burst");
                    if expect % 50 == 25 {
                        match env.payload {
                            Payload::Data(b) => {
                                assert_eq!(b.len(), chunk.len(), "{name}: chunk truncated")
                            }
                            other => panic!("{name}: chunk payload mangled: {other:?}"),
                        }
                    }
                }
                other => panic!("{name}: lost message {expect}: {other:?}"),
            }
        }
    });
}

/// The same mixed burst through a *virtualized* sender — a reply handle
/// that crossed the wire inside a grant. On TCP every message rides an
/// `Expose` frame to the handle's home node, which delivers it through
/// its expose table. Bodies depend on their position, so a frame that
/// straddles the reader's buffer, or an in-place encode that misplaces
/// a byte, shows as a mismatch rather than a length change.
#[test]
fn exposed_sender_burst_arrives_in_order_and_intact_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let peer = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let peer_post = register_inbox(&registry, peer);
        // The handle's home is node 0; node 1 learns it from a grant.
        let (home_tx, home_post) = Post::<Incoming>::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let grant = Incoming::Ctrl(Ctrl::ConnGrant {
            req_id: 1,
            peer_rank: 0,
            peer_vmid: Vmid {
                host: HostId(0),
                pid: 0,
            },
            data_to_granter: home_tx,
        });
        t.send_to(NodeId(0), peer, grant, 64, FrameClass::Control)
            .unwrap_or_else(|e| panic!("{name}: grant failed: {e}"));
        let exposed = match recv_within(&peer_post, Duration::from_secs(10)) {
            Some(Incoming::Ctrl(Ctrl::ConnGrant {
                data_to_granter, ..
            })) => data_to_granter,
            other => panic!("{name}: expected the grant, got {other:?}"),
        };
        if name == "tcp" {
            assert_eq!(
                exposed.remote_addr().map(|(home, _)| home),
                Some(0),
                "{name}: the handle must be virtualized"
            );
        }
        // 16 B bodies with a 512 KiB one every 50 frames: the large
        // bodies outgrow both the writer's flush threshold and the
        // reader's buffer (64 KiB each).
        let body = |seq: u64| -> Vec<u8> {
            let len = if seq % 50 == 25 { 512 * 1024 } else { 16 };
            (0..len)
                .map(|i| (seq as usize * 131 + i * 7) as u8)
                .collect()
        };
        const N: u64 = 400;
        for seq in 0..N {
            let env = Envelope {
                src: 1,
                tag: 1,
                msg: MsgId(seq),
                payload: Payload::Data(Bytes::from(body(seq))),
            };
            let bytes = env.wire_bytes();
            exposed
                .send_classed(Incoming::Data(env), bytes, FrameClass::Data)
                .unwrap_or_else(|e| panic!("{name}: send {seq} failed: {e}"));
        }
        for expect in 0..N {
            match recv_within(&home_post, Duration::from_secs(10)) {
                Some(Incoming::Data(Envelope {
                    msg,
                    payload: Payload::Data(got),
                    ..
                })) => {
                    assert_eq!(msg, MsgId(expect), "{name}: burst reordered");
                    assert!(
                        got[..] == body(expect)[..],
                        "{name}: body {expect} corrupted"
                    );
                }
                other => panic!("{name}: lost message {expect}: {other:?}"),
            }
        }
    });
}

/// A message claiming more than one frame can carry is rejected with
/// the typed error at the sending call on every backend — never
/// truncated, wrapped, or left to kill the connection receiver-side.
#[test]
fn oversized_send_is_too_large_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), None);
        let dst = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let _post = register_inbox(&registry, dst);
        let err = t
            .send_to(
                NodeId(0),
                dst,
                data_env(0, 1),
                snow::net::MAX_BODY_BYTES + 1,
                FrameClass::Data,
            )
            .unwrap_err();
        assert_eq!(err, SendError::TooLarge, "{name}");
        // The boundary itself still routes.
        t.send_to(
            NodeId(0),
            dst,
            data_env(0, 2),
            snow::net::MAX_BODY_BYTES,
            FrameClass::Data,
        )
        .unwrap_or_else(|e| panic!("{name}: boundary send failed: {e}"));
    });
}

/// Sends toward a node the transport has never been told about are
/// rejected, not silently dropped.
#[test]
fn unknown_destination_is_unroutable_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        t.host_joined(NodeId(0), None);
        let ghost = Vmid {
            host: HostId(77),
            pid: 0,
        };
        let err = t
            .send_to(NodeId(0), ghost, data_env(0, 1), 16, FrameClass::Data)
            .unwrap_err();
        assert_eq!(err, SendError::Unroutable, "{name}");
    });
}

/// The connectionless service stays best-effort on every backend: an
/// armed datagram-drop plan swallows the conn_req at the *receiving*
/// daemon (the verdict is drawn on the receiver side, so it is
/// transport-independent), and the requester's re-send after the plan
/// clears reaches the target — the paper's retry-until-nack/grant loop.
#[test]
fn conn_req_resend_survives_datagram_drop_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        let tracer = Tracer::disabled();
        let faults = Arc::new(FaultLayer::new());
        faults.install(FaultPlan::new(11).rule(LinkSel::Any, FaultSpec::none().drops(1.0)));
        let daemon = spawn_daemon(
            HostId(1),
            registry.clone(),
            Arc::clone(&tracer),
            Arc::clone(&faults),
        );
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(1), Some(daemon));
        let target = Vmid {
            host: HostId(1),
            pid: 0,
        };
        let target_post = register_inbox(&registry, target);
        let requester = Vmid {
            host: HostId(0),
            pid: 0,
        };
        let (reply_tx, _reply_rx) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let req = |req_id| ConnReqMsg {
            req_id,
            from_rank: 0,
            from_vmid: requester,
            target,
            reply: reply_tx.clone(),
            data_to_requester: reply_tx.clone(),
        };

        // First attempt: routed, then dropped by the daemon's injector.
        t.route_conn_req(NodeId(0), req(1))
            .unwrap_or_else(|e| panic!("{name}: route failed: {e}"));
        assert!(
            recv_within(&target_post, Duration::from_millis(200)).is_none(),
            "{name}: dropped conn_req must not reach the target"
        );

        // The faults lift; the requester re-sends and the daemon routes.
        faults.clear();
        t.route_conn_req(NodeId(0), req(2))
            .unwrap_or_else(|e| panic!("{name}: re-send failed: {e}"));
        match recv_within(&target_post, Duration::from_secs(10)) {
            Some(Incoming::Ctrl(Ctrl::ConnReq(r))) => {
                assert_eq!(r.req_id, 2, "{name}");
                assert_eq!(r.from_vmid, requester, "{name}");
            }
            other => panic!("{name}: re-sent conn_req lost: {other:?}"),
        }
    });
}

/// Channels buffer while the receiver is away: a full burst sent with
/// nobody draining is absorbed, then drained complete and in order —
/// the absorb-until-empty contract drain-based migration relies on.
#[test]
fn backlog_absorbs_until_empty_on_every_backend() {
    for_each_backend(|name, t| {
        let registry = Registry::new();
        t.attach(registry.clone());
        t.host_joined(NodeId(0), None);
        t.host_joined(NodeId(2), None);
        let dst = Vmid {
            host: HostId(2),
            pid: 3,
        };
        let post = register_inbox(&registry, dst);
        const N: u64 = 300;
        for seq in 0..N {
            t.send_to(NodeId(0), dst, data_env(4, seq), 16, FrameClass::Data)
                .unwrap_or_else(|e| panic!("{name}: send {seq} failed: {e}"));
        }
        // Only now does the receiver start draining.
        let mut got = 0u64;
        while got < N {
            match recv_within(&post, Duration::from_secs(10)) {
                Some(Incoming::Data(env)) => {
                    assert_eq!(env.msg, MsgId(got), "{name}: backlog reordered");
                    got += 1;
                }
                other => panic!("{name}: backlog lost message {got}: {other:?}"),
            }
        }
    });
}
