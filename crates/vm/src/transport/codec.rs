//! Canonical encoding of the wire types for socket transports.
//!
//! Everything that crosses a socket is written with `snow-codec`'s
//! canonical big-endian form — the same machine-independent
//! representation the state-transfer layer already uses — so the frame
//! bodies are plain data with no deserialize-a-closure surface.
//!
//! The one genuinely hard case is a [`PostSender`] embedded in a
//! message (conn_req reply addresses, grant data-ends, scheduler reply
//! handles): a live queue handle cannot cross a socket. It is
//! *virtualized* instead, through a [`SenderVault`]: encoding a local
//! sender parks it in the sending node's expose table and writes its
//! `(home_node, expose_id)` wire name; encoding a sender that is
//! already remote just writes the name it carries. Decoding resolves a
//! name back to the real handle when it is local, or to a
//! [`crate::post::RemoteTx`]-backed sender that routes frames to the
//! home node otherwise.

use crate::ids::{Rank, Vmid};
use crate::post::PostSender;
use crate::wire::{
    ConnReqMsg, Ctrl, DrainOutcome, DrainPoolConfig, DrainRankResult, Envelope, ExeStatus,
    FailCause, Incoming, Payload, SchedReply, SchedRequest, Signal,
};
use bytes::Bytes;
use snow_codec::{CodecError, WireReader, WireWriter};
use snow_trace::MsgId;
use std::time::Duration;

/// Virtualizes [`PostSender`] handles across a socket boundary.
pub(crate) trait SenderVault {
    /// Wire name for `s`: `(home_node, expose_id)`.
    fn expose(&self, s: &PostSender<Incoming>) -> (u32, u64);
    /// The sender a received wire name stands for.
    fn resolve(&self, home: u32, id: u64) -> PostSender<Incoming>;
}

type Result<T> = std::result::Result<T, CodecError>;

fn put_sender(w: &mut WireWriter, v: &dyn SenderVault, s: &PostSender<Incoming>) {
    let (home, id) = v.expose(s);
    w.put_u32(home);
    w.put_u64(id);
}

fn get_sender(r: &mut WireReader, v: &dyn SenderVault) -> Result<PostSender<Incoming>> {
    let home = r.get_u32()?;
    let id = r.get_u64()?;
    Ok(v.resolve(home, id))
}

fn put_vmid(w: &mut WireWriter, vmid: Vmid) {
    w.put_u32(vmid.host.0);
    w.put_u32(vmid.pid);
}

fn get_vmid(r: &mut WireReader) -> Result<Vmid> {
    Ok(Vmid {
        host: crate::ids::HostId(r.get_u32()?),
        pid: r.get_u32()?,
    })
}

fn put_rank(w: &mut WireWriter, rank: Rank) {
    w.put_uvarint(rank as u64);
}

fn get_rank(r: &mut WireReader) -> Result<Rank> {
    Ok(r.get_uvarint()? as Rank)
}

fn put_payload(w: &mut WireWriter, v: &dyn SenderVault, p: &Payload) {
    match p {
        Payload::Data(b) => {
            w.put_u8(0);
            w.put_bytes(b);
        }
        Payload::PeerMigrating => w.put_u8(1),
        Payload::EndOfMessages => w.put_u8(2),
        Payload::RmlBatch(list) => {
            w.put_u8(3);
            w.put_uvarint(list.len() as u64);
            for e in list {
                put_envelope(w, v, e);
            }
        }
        Payload::ExeMemStateChunk {
            seq,
            checksum,
            bytes,
        } => {
            w.put_u8(5);
            w.put_u32(*seq);
            w.put_u64(*checksum);
            w.put_bytes(bytes);
        }
        Payload::ExeMemStateDigest {
            digest,
            chunks,
            total_bytes,
        } => {
            w.put_u8(6);
            w.put_u64(*digest);
            w.put_u32(*chunks);
            w.put_u64(*total_bytes);
        }
        Payload::MigrationAborted => w.put_u8(7),
        Payload::StateAck { ok, from, detail } => {
            w.put_u8(8);
            w.put_u8(*ok as u8);
            put_vmid(w, *from);
            w.put_str(detail);
        }
    }
}

fn get_payload(r: &mut WireReader, v: &dyn SenderVault) -> Result<Payload> {
    Ok(match r.get_u8()? {
        0 => Payload::Data(Bytes::copy_from_slice(r.get_bytes()?)),
        1 => Payload::PeerMigrating,
        2 => Payload::EndOfMessages,
        3 => {
            let n = r.get_uvarint()?;
            let mut list = Vec::with_capacity(n.min(4096) as usize);
            for _ in 0..n {
                list.push(get_envelope(r, v)?);
            }
            Payload::RmlBatch(list)
        }
        // 4 stays unassigned (a retired kind), so 5-8 keep their bytes.
        5 => Payload::ExeMemStateChunk {
            seq: r.get_u32()?,
            checksum: r.get_u64()?,
            bytes: Bytes::copy_from_slice(r.get_bytes()?),
        },
        6 => Payload::ExeMemStateDigest {
            digest: r.get_u64()?,
            chunks: r.get_u32()?,
            total_bytes: r.get_u64()?,
        },
        7 => Payload::MigrationAborted,
        8 => Payload::StateAck {
            ok: r.get_u8()? != 0,
            from: get_vmid(r)?,
            detail: r.get_str()?.to_string(),
        },
        t => return Err(CodecError::BadTag(t)),
    })
}

fn put_envelope(w: &mut WireWriter, v: &dyn SenderVault, e: &Envelope) {
    put_rank(w, e.src);
    w.put_ivarint(e.tag as i64);
    w.put_u64(e.msg.0);
    put_payload(w, v, &e.payload);
}

fn get_envelope(r: &mut WireReader, v: &dyn SenderVault) -> Result<Envelope> {
    Ok(Envelope {
        src: get_rank(r)?,
        tag: r.get_ivarint()? as i32,
        msg: MsgId(r.get_u64()?),
        payload: get_payload(r, v)?,
    })
}

/// Decode a conn_req datagram body.
pub(crate) fn decode_conn_req(v: &dyn SenderVault, body: &[u8]) -> Result<ConnReqMsg> {
    let mut r = WireReader::new(body);
    let req = get_conn_req(&mut r, v)?;
    r.finish()?;
    Ok(req)
}

/// Write a conn_req datagram body.
pub(crate) fn put_conn_req(w: &mut WireWriter, v: &dyn SenderVault, req: &ConnReqMsg) {
    w.put_u64(req.req_id);
    put_rank(w, req.from_rank);
    put_vmid(w, req.from_vmid);
    put_vmid(w, req.target);
    put_sender(w, v, &req.reply);
    put_sender(w, v, &req.data_to_requester);
}

fn get_conn_req(r: &mut WireReader, v: &dyn SenderVault) -> Result<ConnReqMsg> {
    Ok(ConnReqMsg {
        req_id: r.get_u64()?,
        from_rank: get_rank(r)?,
        from_vmid: get_vmid(r)?,
        target: get_vmid(r)?,
        reply: get_sender(r, v)?,
        data_to_requester: get_sender(r, v)?,
    })
}

fn put_pool(w: &mut WireWriter, pool: &DrainPoolConfig) {
    w.put_uvarint(pool.max_workers as u64);
    w.put_uvarint(pool.job_queue_size as u64);
    w.put_uvarint(pool.res_queue_size as u64);
    w.put_u64(pool.progress_log_period.as_secs());
    w.put_u32(pool.progress_log_period.subsec_nanos());
}

fn get_pool(r: &mut WireReader) -> Result<DrainPoolConfig> {
    Ok(DrainPoolConfig {
        max_workers: r.get_uvarint()? as usize,
        job_queue_size: r.get_uvarint()? as usize,
        res_queue_size: r.get_uvarint()? as usize,
        progress_log_period: Duration::new(r.get_u64()?, r.get_u32()?),
    })
}

fn put_sched_request(w: &mut WireWriter, v: &dyn SenderVault, req: &SchedRequest) {
    match req {
        SchedRequest::Lookup { about, reply } => {
            w.put_u8(0);
            put_rank(w, *about);
            put_sender(w, v, reply);
        }
        SchedRequest::Migrate {
            rank,
            to_host,
            reply,
        } => {
            w.put_u8(1);
            put_rank(w, *rank);
            w.put_u32(to_host.0);
            put_sender(w, v, reply);
        }
        SchedRequest::MigrationStart { rank, reply } => {
            w.put_u8(2);
            put_rank(w, *rank);
            put_sender(w, v, reply);
        }
        SchedRequest::RestoreComplete {
            rank,
            new_vmid,
            reply,
        } => {
            w.put_u8(3);
            put_rank(w, *rank);
            put_vmid(w, *new_vmid);
            put_sender(w, v, reply);
        }
        SchedRequest::MigrationCommit { rank } => {
            w.put_u8(4);
            put_rank(w, *rank);
        }
        SchedRequest::MigrationAbort {
            rank,
            reason,
            reply,
        } => {
            w.put_u8(5);
            put_rank(w, *rank);
            w.put_str(reason);
            put_sender(w, v, reply);
        }
        SchedRequest::HostDrain { host, pool, reply } => {
            w.put_u8(6);
            w.put_u32(host.0);
            put_pool(w, pool);
            put_sender(w, v, reply);
        }
        SchedRequest::Terminated { rank } => {
            w.put_u8(7);
            put_rank(w, *rank);
        }
        SchedRequest::Register { rank, vmid } => {
            w.put_u8(8);
            put_rank(w, *rank);
            put_vmid(w, *vmid);
        }
        SchedRequest::Shutdown => w.put_u8(9),
    }
}

fn get_sched_request(r: &mut WireReader, v: &dyn SenderVault) -> Result<SchedRequest> {
    use crate::ids::HostId;
    Ok(match r.get_u8()? {
        0 => SchedRequest::Lookup {
            about: get_rank(r)?,
            reply: get_sender(r, v)?,
        },
        1 => SchedRequest::Migrate {
            rank: get_rank(r)?,
            to_host: HostId(r.get_u32()?),
            reply: get_sender(r, v)?,
        },
        2 => SchedRequest::MigrationStart {
            rank: get_rank(r)?,
            reply: get_sender(r, v)?,
        },
        3 => SchedRequest::RestoreComplete {
            rank: get_rank(r)?,
            new_vmid: get_vmid(r)?,
            reply: get_sender(r, v)?,
        },
        4 => SchedRequest::MigrationCommit { rank: get_rank(r)? },
        5 => SchedRequest::MigrationAbort {
            rank: get_rank(r)?,
            reason: r.get_str()?.to_string(),
            reply: get_sender(r, v)?,
        },
        6 => SchedRequest::HostDrain {
            host: HostId(r.get_u32()?),
            pool: get_pool(r)?,
            reply: get_sender(r, v)?,
        },
        7 => SchedRequest::Terminated { rank: get_rank(r)? },
        8 => SchedRequest::Register {
            rank: get_rank(r)?,
            vmid: get_vmid(r)?,
        },
        9 => SchedRequest::Shutdown,
        t => return Err(CodecError::BadTag(t)),
    })
}

fn put_exe_status(w: &mut WireWriter, s: ExeStatus) {
    w.put_u8(match s {
        ExeStatus::Running => 0,
        ExeStatus::Migrated => 1,
        ExeStatus::Terminated => 2,
    });
}

fn get_exe_status(r: &mut WireReader) -> Result<ExeStatus> {
    Ok(match r.get_u8()? {
        0 => ExeStatus::Running,
        1 => ExeStatus::Migrated,
        2 => ExeStatus::Terminated,
        t => return Err(CodecError::BadTag(t)),
    })
}

fn put_fail_cause(w: &mut WireWriter, c: &FailCause) {
    match c {
        FailCause::UnknownRank => w.put_u8(0),
        FailCause::NotRunning(s) => {
            w.put_u8(1);
            put_exe_status(w, *s);
        }
        FailCause::AlreadyMigrating => w.put_u8(2),
        FailCause::HostNotMember(h) => {
            w.put_u8(3);
            w.put_u32(h.0);
        }
        FailCause::HostDraining(h) => {
            w.put_u8(4);
            w.put_u32(h.0);
        }
        FailCause::SourceTerminated => w.put_u8(5),
        FailCause::DrainOverflow { ranks, capacity } => {
            w.put_u8(6);
            w.put_uvarint(*ranks as u64);
            w.put_uvarint(*capacity as u64);
        }
        FailCause::NoDestination => w.put_u8(7),
        FailCause::Aborted { attempts, reason } => {
            w.put_u8(8);
            w.put_u32(*attempts);
            w.put_str(reason);
        }
    }
}

fn get_fail_cause(r: &mut WireReader) -> Result<FailCause> {
    use crate::ids::HostId;
    Ok(match r.get_u8()? {
        0 => FailCause::UnknownRank,
        1 => FailCause::NotRunning(get_exe_status(r)?),
        2 => FailCause::AlreadyMigrating,
        3 => FailCause::HostNotMember(HostId(r.get_u32()?)),
        4 => FailCause::HostDraining(HostId(r.get_u32()?)),
        5 => FailCause::SourceTerminated,
        6 => FailCause::DrainOverflow {
            ranks: r.get_uvarint()? as usize,
            capacity: r.get_uvarint()? as usize,
        },
        7 => FailCause::NoDestination,
        8 => FailCause::Aborted {
            attempts: r.get_u32()?,
            reason: r.get_str()?.to_string(),
        },
        t => return Err(CodecError::BadTag(t)),
    })
}

fn put_sched_reply(w: &mut WireWriter, reply: &SchedReply) {
    match reply {
        SchedReply::Location {
            about,
            status,
            vmid,
        } => {
            w.put_u8(0);
            put_rank(w, *about);
            put_exe_status(w, *status);
            match vmid {
                Some(v) => {
                    w.put_u8(1);
                    put_vmid(w, *v);
                }
                None => w.put_u8(0),
            }
        }
        SchedReply::NewVmid { new_vmid } => {
            w.put_u8(1);
            put_vmid(w, *new_vmid);
        }
        SchedReply::PlTable { entries, old_vmid } => {
            w.put_u8(2);
            w.put_uvarint(entries.len() as u64);
            for (rank, vmid) in entries {
                put_rank(w, *rank);
                put_vmid(w, *vmid);
            }
            put_vmid(w, *old_vmid);
        }
        SchedReply::MigrationDone { rank, new_vmid } => {
            w.put_u8(3);
            put_rank(w, *rank);
            put_vmid(w, *new_vmid);
        }
        SchedReply::MigrationRetry {
            new_vmid,
            attempt,
            backoff_ms,
        } => {
            w.put_u8(4);
            put_vmid(w, *new_vmid);
            w.put_u32(*attempt);
            w.put_u64(*backoff_ms);
        }
        SchedReply::MigrationAborted { rank } => {
            w.put_u8(5);
            put_rank(w, *rank);
        }
        SchedReply::MigrationAbortDenied { rank } => {
            w.put_u8(6);
            put_rank(w, *rank);
        }
        SchedReply::MigrationFailed { rank, cause } => {
            w.put_u8(7);
            put_rank(w, *rank);
            put_fail_cause(w, cause);
        }
        SchedReply::DrainDone {
            host,
            outcome,
            per_rank,
        } => {
            w.put_u8(8);
            w.put_u32(host.0);
            match outcome {
                DrainOutcome::Evacuated { completed, retried } => {
                    w.put_u8(0);
                    w.put_uvarint(*completed as u64);
                    w.put_uvarint(*retried as u64);
                }
                DrainOutcome::PartiallyEvacuated {
                    completed,
                    aborted,
                    retried,
                } => {
                    w.put_u8(1);
                    w.put_uvarint(*completed as u64);
                    w.put_uvarint(*aborted as u64);
                    w.put_uvarint(*retried as u64);
                }
            }
            w.put_uvarint(per_rank.len() as u64);
            for (rank, res) in per_rank {
                put_rank(w, *rank);
                match res {
                    DrainRankResult::Completed(v) => {
                        w.put_u8(0);
                        put_vmid(w, *v);
                    }
                    DrainRankResult::Aborted(cause) => {
                        w.put_u8(1);
                        put_fail_cause(w, cause);
                    }
                }
            }
        }
        SchedReply::DrainFailed { host, cause } => {
            w.put_u8(9);
            w.put_u32(host.0);
            put_fail_cause(w, cause);
        }
        SchedReply::Error { reason } => {
            w.put_u8(10);
            w.put_str(reason);
        }
    }
}

fn get_sched_reply(r: &mut WireReader) -> Result<SchedReply> {
    use crate::ids::HostId;
    Ok(match r.get_u8()? {
        0 => SchedReply::Location {
            about: get_rank(r)?,
            status: get_exe_status(r)?,
            vmid: match r.get_u8()? {
                0 => None,
                1 => Some(get_vmid(r)?),
                t => return Err(CodecError::BadTag(t)),
            },
        },
        1 => SchedReply::NewVmid {
            new_vmid: get_vmid(r)?,
        },
        2 => {
            let n = r.get_uvarint()?;
            let mut entries = Vec::with_capacity(n.min(65536) as usize);
            for _ in 0..n {
                entries.push((get_rank(r)?, get_vmid(r)?));
            }
            SchedReply::PlTable {
                entries,
                old_vmid: get_vmid(r)?,
            }
        }
        3 => SchedReply::MigrationDone {
            rank: get_rank(r)?,
            new_vmid: get_vmid(r)?,
        },
        4 => SchedReply::MigrationRetry {
            new_vmid: get_vmid(r)?,
            attempt: r.get_u32()?,
            backoff_ms: r.get_u64()?,
        },
        5 => SchedReply::MigrationAborted { rank: get_rank(r)? },
        6 => SchedReply::MigrationAbortDenied { rank: get_rank(r)? },
        7 => SchedReply::MigrationFailed {
            rank: get_rank(r)?,
            cause: get_fail_cause(r)?,
        },
        8 => {
            let host = HostId(r.get_u32()?);
            let outcome = match r.get_u8()? {
                0 => DrainOutcome::Evacuated {
                    completed: r.get_uvarint()? as usize,
                    retried: r.get_uvarint()? as usize,
                },
                1 => DrainOutcome::PartiallyEvacuated {
                    completed: r.get_uvarint()? as usize,
                    aborted: r.get_uvarint()? as usize,
                    retried: r.get_uvarint()? as usize,
                },
                t => return Err(CodecError::BadTag(t)),
            };
            let n = r.get_uvarint()?;
            let mut per_rank = Vec::with_capacity(n.min(65536) as usize);
            for _ in 0..n {
                let rank = get_rank(r)?;
                let res = match r.get_u8()? {
                    0 => DrainRankResult::Completed(get_vmid(r)?),
                    1 => DrainRankResult::Aborted(get_fail_cause(r)?),
                    t => return Err(CodecError::BadTag(t)),
                };
                per_rank.push((rank, res));
            }
            SchedReply::DrainDone {
                host,
                outcome,
                per_rank,
            }
        }
        9 => SchedReply::DrainFailed {
            host: HostId(r.get_u32()?),
            cause: get_fail_cause(r)?,
        },
        10 => SchedReply::Error {
            reason: r.get_str()?.to_string(),
        },
        t => return Err(CodecError::BadTag(t)),
    })
}

fn put_ctrl(w: &mut WireWriter, v: &dyn SenderVault, c: &Ctrl) {
    match c {
        Ctrl::ConnReq(req) => {
            w.put_u8(0);
            put_conn_req(w, v, req);
        }
        Ctrl::ConnGrant {
            req_id,
            peer_rank,
            peer_vmid,
            data_to_granter,
        } => {
            w.put_u8(1);
            w.put_u64(*req_id);
            put_rank(w, *peer_rank);
            put_vmid(w, *peer_vmid);
            put_sender(w, v, data_to_granter);
        }
        Ctrl::ConnNack { req_id, target } => {
            w.put_u8(2);
            w.put_u64(*req_id);
            put_vmid(w, *target);
        }
        Ctrl::SchedRequest(req) => {
            w.put_u8(3);
            put_sched_request(w, v, req);
        }
        Ctrl::Sched(reply) => {
            w.put_u8(4);
            put_sched_reply(w, reply);
        }
    }
}

fn get_ctrl(r: &mut WireReader, v: &dyn SenderVault) -> Result<Ctrl> {
    Ok(match r.get_u8()? {
        0 => Ctrl::ConnReq(get_conn_req(r, v)?),
        1 => Ctrl::ConnGrant {
            req_id: r.get_u64()?,
            peer_rank: get_rank(r)?,
            peer_vmid: get_vmid(r)?,
            data_to_granter: get_sender(r, v)?,
        },
        2 => Ctrl::ConnNack {
            req_id: r.get_u64()?,
            target: get_vmid(r)?,
        },
        3 => Ctrl::SchedRequest(get_sched_request(r, v)?),
        4 => Ctrl::Sched(get_sched_reply(r)?),
        t => return Err(CodecError::BadTag(t)),
    })
}

/// Write one inbox message body.
pub(crate) fn put_incoming(w: &mut WireWriter, v: &dyn SenderVault, msg: &Incoming) {
    match msg {
        Incoming::Data(e) => {
            w.put_u8(0);
            put_envelope(w, v, e);
        }
        Incoming::Ctrl(c) => {
            w.put_u8(1);
            put_ctrl(w, v, c);
        }
    }
}

/// Decode one inbox message body.
pub(crate) fn decode_incoming(v: &dyn SenderVault, body: &[u8]) -> Result<Incoming> {
    let mut r = WireReader::new(body);
    let msg = match r.get_u8()? {
        0 => Incoming::Data(get_envelope(&mut r, v)?),
        1 => Incoming::Ctrl(get_ctrl(&mut r, v)?),
        t => return Err(CodecError::BadTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Write a signal body.
pub(crate) fn put_signal(w: &mut WireWriter, sig: Signal) {
    match sig {
        Signal::Migrate => w.put_u8(0),
        Signal::Disconnect { from } => {
            w.put_u8(1);
            put_rank(w, from);
        }
    }
}

/// Decode a signal body.
pub(crate) fn decode_signal(body: &[u8]) -> Result<Signal> {
    let mut r = WireReader::new(body);
    let sig = match r.get_u8()? {
        0 => Signal::Migrate,
        1 => Signal::Disconnect {
            from: get_rank(&mut r)?,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    r.finish()?;
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;
    use crate::post::Post;
    use parking_lot::Mutex;
    use snow_net::{LinkModel, TimeScale};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A vault that parks exposed senders in a map, standing in for one
    /// node's expose table.
    #[derive(Default)]
    struct MapVault {
        next: AtomicU64,
        table: Mutex<HashMap<u64, PostSender<Incoming>>>,
    }

    impl SenderVault for MapVault {
        fn expose(&self, s: &PostSender<Incoming>) -> (u32, u64) {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.table.lock().insert(id, s.clone());
            (0, id)
        }
        fn resolve(&self, _home: u32, id: u64) -> PostSender<Incoming> {
            self.table.lock().get(&id).expect("exposed").clone()
        }
    }

    fn vmid(h: u32, p: u32) -> Vmid {
        Vmid {
            host: HostId(h),
            pid: p,
        }
    }

    /// The bytes `put` writes into a fresh writer.
    fn encoded(put: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        put(&mut w);
        w.into_bytes()
    }

    fn roundtrip(msg: &Incoming) -> Incoming {
        let v = MapVault::default();
        let bytes = encoded(|w| put_incoming(w, &v, msg));
        decode_incoming(&v, &bytes).expect("decode")
    }

    #[test]
    fn data_envelope_roundtrips() {
        let msg = Incoming::Data(Envelope {
            src: 3,
            tag: -7,
            msg: MsgId(99),
            payload: Payload::Data(Bytes::from_static(b"payload")),
        });
        match roundtrip(&msg) {
            Incoming::Data(e) => {
                assert_eq!(e.src, 3);
                assert_eq!(e.tag, -7);
                assert_eq!(e.msg, MsgId(99));
                match e.payload {
                    Payload::Data(b) => assert_eq!(&b[..], b"payload"),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_marker_payloads_roundtrip() {
        for payload in [
            Payload::PeerMigrating,
            Payload::EndOfMessages,
            Payload::MigrationAborted,
            Payload::ExeMemStateDigest {
                digest: 1,
                chunks: 2,
                total_bytes: 3,
            },
            Payload::StateAck {
                ok: false,
                from: vmid(1, 2),
                detail: "checksum mismatch".into(),
            },
            Payload::ExeMemStateChunk {
                seq: 7,
                checksum: 0xdead,
                bytes: Bytes::from_static(&[1, 2, 3]),
            },
            Payload::RmlBatch(vec![Envelope {
                src: 1,
                tag: 0,
                msg: MsgId(5),
                payload: Payload::Data(Bytes::from_static(b"x")),
            }]),
        ] {
            let msg = Incoming::Data(Envelope {
                src: 0,
                tag: 0,
                msg: MsgId(1),
                payload,
            });
            let got = roundtrip(&msg);
            assert_eq!(format!("{got:?}"), format!("{msg:?}"));
        }
    }

    #[test]
    fn conn_req_carries_live_senders_through_the_vault() {
        let v = MapVault::default();
        let (reply, post) = Post::<Incoming>::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let req = ConnReqMsg {
            req_id: 42,
            from_rank: 1,
            from_vmid: vmid(0, 1),
            target: vmid(2, 3),
            reply: reply.clone(),
            data_to_requester: reply,
        };
        let bytes = encoded(|w| put_conn_req(w, &v, &req));
        let got = decode_conn_req(&v, &bytes).unwrap();
        assert_eq!(got.req_id, 42);
        assert_eq!(got.target, vmid(2, 3));
        // The resolved reply sender reaches the original inbox.
        got.reply
            .send(
                Incoming::Ctrl(Ctrl::ConnNack {
                    req_id: 42,
                    target: vmid(2, 3),
                }),
                8,
            )
            .unwrap();
        assert!(matches!(
            post.recv().unwrap(),
            Incoming::Ctrl(Ctrl::ConnNack { req_id: 42, .. })
        ));
    }

    #[test]
    fn sched_messages_roundtrip() {
        let (reply, _post) = Post::<Incoming>::channel(LinkModel::INSTANT, TimeScale::ZERO);
        for req in [
            SchedRequest::Lookup {
                about: 5,
                reply: reply.clone(),
            },
            SchedRequest::Migrate {
                rank: 1,
                to_host: HostId(4),
                reply: reply.clone(),
            },
            SchedRequest::MigrationStart {
                rank: 2,
                reply: reply.clone(),
            },
            SchedRequest::RestoreComplete {
                rank: 3,
                new_vmid: vmid(1, 1),
                reply: reply.clone(),
            },
            SchedRequest::MigrationCommit { rank: 4 },
            SchedRequest::MigrationAbort {
                rank: 5,
                reason: "dest gone".into(),
                reply: reply.clone(),
            },
            SchedRequest::HostDrain {
                host: HostId(2),
                pool: DrainPoolConfig::default(),
                reply: reply.clone(),
            },
            SchedRequest::Terminated { rank: 6 },
            SchedRequest::Register {
                rank: 7,
                vmid: vmid(3, 3),
            },
            SchedRequest::Shutdown,
        ] {
            let msg = Incoming::Ctrl(Ctrl::SchedRequest(req));
            let got = roundtrip(&msg);
            // Senders print as opaque handles; compare debug shapes of
            // the sender-free projection via the discriminant-rich text.
            assert_eq!(
                std::mem::discriminant(got_req(&got)),
                std::mem::discriminant(got_req(&msg)),
            );
        }
        for reply in [
            SchedReply::Location {
                about: 1,
                status: ExeStatus::Migrated,
                vmid: Some(vmid(1, 2)),
            },
            SchedReply::NewVmid {
                new_vmid: vmid(2, 2),
            },
            SchedReply::PlTable {
                entries: vec![(0, vmid(0, 0)), (1, vmid(1, 0))],
                old_vmid: vmid(9, 9),
            },
            SchedReply::MigrationDone {
                rank: 1,
                new_vmid: vmid(1, 5),
            },
            SchedReply::MigrationRetry {
                new_vmid: vmid(2, 5),
                attempt: 2,
                backoff_ms: 40,
            },
            SchedReply::MigrationAborted { rank: 3 },
            SchedReply::MigrationAbortDenied { rank: 4 },
            SchedReply::MigrationFailed {
                rank: 5,
                cause: FailCause::Aborted {
                    attempts: 3,
                    reason: "x".into(),
                },
            },
            SchedReply::DrainDone {
                host: HostId(1),
                outcome: DrainOutcome::PartiallyEvacuated {
                    completed: 2,
                    aborted: 1,
                    retried: 4,
                },
                per_rank: vec![
                    (0, DrainRankResult::Completed(vmid(2, 0))),
                    (1, DrainRankResult::Aborted(FailCause::NoDestination)),
                ],
            },
            SchedReply::DrainFailed {
                host: HostId(3),
                cause: FailCause::DrainOverflow {
                    ranks: 100,
                    capacity: 68,
                },
            },
            SchedReply::Error {
                reason: "unknown rank".into(),
            },
        ] {
            let msg = Incoming::Ctrl(Ctrl::Sched(reply));
            let got = roundtrip(&msg);
            assert_eq!(format!("{got:?}"), format!("{msg:?}"));
        }
    }

    fn got_req(msg: &Incoming) -> &SchedRequest {
        match msg {
            Incoming::Ctrl(Ctrl::SchedRequest(r)) => r,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn signals_roundtrip() {
        for sig in [Signal::Migrate, Signal::Disconnect { from: 12 }] {
            assert_eq!(
                decode_signal(&encoded(|w| put_signal(w, sig))).unwrap(),
                sig
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let v = MapVault::default();
        let mut bytes = encoded(|w| put_signal(w, Signal::Migrate));
        bytes.push(0);
        assert!(decode_signal(&bytes).is_err());
        let mut bytes = encoded(|w| {
            put_incoming(
                w,
                &v,
                &Incoming::Ctrl(Ctrl::Sched(SchedReply::Error { reason: "r".into() })),
            )
        });
        bytes.push(0);
        assert!(decode_incoming(&v, &bytes).is_err());
    }

    #[test]
    fn unknown_payload_tag_is_bad_tag() {
        let v = MapVault::default();
        let marker = Incoming::Data(Envelope {
            src: 0,
            tag: 0,
            msg: MsgId(1),
            payload: Payload::PeerMigrating,
        });
        // The payload tag is the envelope's last byte. Tag 4 gets a body
        // shaped like the retired single-frame state, so only the tag
        // can refuse it.
        for (tag, body) in [(4u8, &[3u8, 1, 2, 3][..]), (0xff, &[][..])] {
            let mut bytes = encoded(|w| put_incoming(w, &v, &marker));
            *bytes.last_mut().unwrap() = tag;
            bytes.extend_from_slice(body);
            assert!(
                matches!(decode_incoming(&v, &bytes), Err(CodecError::BadTag(t)) if t == tag),
                "payload tag {tag}"
            );
        }
    }

    #[test]
    fn unknown_tag_is_bad_tag() {
        let v = MapVault::default();
        assert!(matches!(
            decode_incoming(&v, &[0xfe]),
            Err(CodecError::BadTag(0xfe))
        ));
    }
}
