//! Structured event (de)serialization.
//!
//! This module gives every [`EventKind`] a typed JSON shape
//! (`{"type": "Send", "to": 1, ...}`) that round-trips exactly, so
//! integration tests can dump their traces as JSONL and `snow-bench
//! audit` can replay them offline.

use crate::event::{Event, EventKind, MsgId};
use crate::report::JsonValue;

fn obj(ty: &str, fields: Vec<(String, JsonValue)>) -> JsonValue {
    let mut all = vec![("type".to_string(), JsonValue::Str(ty.to_string()))];
    all.extend(fields);
    JsonValue::Object(all)
}

fn num(n: impl Into<f64>) -> JsonValue {
    JsonValue::Num(n.into())
}

fn unum(n: usize) -> JsonValue {
    JsonValue::Num(n as f64)
}

/// Serialize one event kind to its typed JSON object.
pub fn kind_to_json(kind: &EventKind) -> JsonValue {
    use EventKind::*;
    match kind {
        Send {
            to,
            tag,
            bytes,
            msg,
        } => obj(
            "Send",
            vec![
                ("to".into(), unum(*to)),
                ("tag".into(), num(*tag)),
                ("bytes".into(), unum(*bytes)),
                ("msg".into(), num(msg.0 as f64)),
            ],
        ),
        RecvStart { from, tag } => obj(
            "RecvStart",
            vec![
                ("from".into(), from.map_or(JsonValue::Null, unum)),
                ("tag".into(), tag.map_or(JsonValue::Null, num)),
            ],
        ),
        RecvDone {
            from,
            tag,
            bytes,
            msg,
            from_rml,
        } => obj(
            "RecvDone",
            vec![
                ("from".into(), unum(*from)),
                ("tag".into(), num(*tag)),
                ("bytes".into(), unum(*bytes)),
                ("msg".into(), num(msg.0 as f64)),
                ("from_rml".into(), JsonValue::Bool(*from_rml)),
            ],
        ),
        RmlAppend { from, tag, msg } => obj(
            "RmlAppend",
            vec![
                ("from".into(), unum(*from)),
                ("tag".into(), num(*tag)),
                ("msg".into(), num(msg.0 as f64)),
            ],
        ),
        ConnReq { to } => obj("ConnReq", vec![("to".into(), unum(*to))]),
        ConnAck { from } => obj("ConnAck", vec![("from".into(), unum(*from))]),
        ConnNack { to } => obj("ConnNack", vec![("to".into(), unum(*to))]),
        SchedulerConsult { about } => obj("SchedulerConsult", vec![("about".into(), unum(*about))]),
        ChannelOpen { peer } => obj("ChannelOpen", vec![("peer".into(), unum(*peer))]),
        ChannelClose { peer } => obj("ChannelClose", vec![("peer".into(), unum(*peer))]),
        MigrationStart { rank } => obj("MigrationStart", vec![("rank".into(), unum(*rank))]),
        PeerMigratingSent { peer } => obj("PeerMigratingSent", vec![("peer".into(), unum(*peer))]),
        PeerMigratingSeen { peer } => obj("PeerMigratingSeen", vec![("peer".into(), unum(*peer))]),
        EndOfMessages { peer } => obj("EndOfMessages", vec![("peer".into(), unum(*peer))]),
        RmlForwarded { count, bytes } => obj(
            "RmlForwarded",
            vec![
                ("count".into(), unum(*count)),
                ("bytes".into(), unum(*bytes)),
            ],
        ),
        StateChunkSent { seq, bytes } => obj(
            "StateChunkSent",
            vec![("seq".into(), num(*seq)), ("bytes".into(), unum(*bytes))],
        ),
        StateChunkRestored { seq, bytes } => obj(
            "StateChunkRestored",
            vec![("seq".into(), num(*seq)), ("bytes".into(), unum(*bytes))],
        ),
        StateCollected { bytes } => obj("StateCollected", vec![("bytes".into(), unum(*bytes))]),
        StateTransmitted { bytes } => obj("StateTransmitted", vec![("bytes".into(), unum(*bytes))]),
        StateRestored { bytes } => obj("StateRestored", vec![("bytes".into(), unum(*bytes))]),
        MigrationCommit { rank } => obj("MigrationCommit", vec![("rank".into(), unum(*rank))]),
        MigrationAborted { rank, attempt } => obj(
            "MigrationAborted",
            vec![
                ("rank".into(), unum(*rank)),
                ("attempt".into(), num(*attempt)),
            ],
        ),
        MigrationRetried { attempt } => {
            obj("MigrationRetried", vec![("attempt".into(), num(*attempt))])
        }
        MigrationAbortSeen { peer } => {
            obj("MigrationAbortSeen", vec![("peer".into(), unum(*peer))])
        }
        StateRestoreAborted { chunks, bytes } => obj(
            "StateRestoreAborted",
            vec![
                ("chunks".into(), num(*chunks)),
                ("bytes".into(), unum(*bytes)),
            ],
        ),
        FaultDelay { extra_ns } => obj(
            "FaultDelay",
            vec![("extra_ns".into(), num(*extra_ns as f64))],
        ),
        FaultReset => obj("FaultReset", vec![]),
        FaultDropped { what } => obj(
            "FaultDropped",
            vec![("what".into(), JsonValue::Str(what.clone()))],
        ),
        FaultDuplicated { what } => obj(
            "FaultDuplicated",
            vec![("what".into(), JsonValue::Str(what.clone()))],
        ),
        SignalDelivered { signal } => obj(
            "SignalDelivered",
            vec![("signal".into(), JsonValue::Str((*signal).to_string()))],
        ),
        Compute { work } => obj("Compute", vec![("work".into(), num(*work as f64))]),
        Phase { label } => obj(
            "Phase",
            vec![("label".into(), JsonValue::Str(label.clone()))],
        ),
    }
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn get_u32(v: &JsonValue, key: &str) -> Result<u32, String> {
    Ok(get_usize(v, key)? as u32)
}

fn get_i32(v: &JsonValue, key: &str) -> Result<i32, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .map(|n| n as i32)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn get_msg(v: &JsonValue, key: &str) -> Result<MsgId, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .map(MsgId)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// Deserialize one event kind from its typed JSON object.
pub fn kind_from_json(v: &JsonValue) -> Result<EventKind, String> {
    let ty = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("kind object missing 'type'")?;
    let kind = match ty {
        "Send" => EventKind::Send {
            to: get_usize(v, "to")?,
            tag: get_i32(v, "tag")?,
            bytes: get_usize(v, "bytes")?,
            msg: get_msg(v, "msg")?,
        },
        "RecvStart" => EventKind::RecvStart {
            from: match v.get("from") {
                Some(JsonValue::Null) | None => None,
                Some(n) => Some(n.as_u64().ok_or("bad 'from'")? as usize),
            },
            tag: match v.get("tag") {
                Some(JsonValue::Null) | None => None,
                Some(n) => Some(n.as_f64().ok_or("bad 'tag'")? as i32),
            },
        },
        "RecvDone" => EventKind::RecvDone {
            from: get_usize(v, "from")?,
            tag: get_i32(v, "tag")?,
            bytes: get_usize(v, "bytes")?,
            msg: get_msg(v, "msg")?,
            from_rml: v
                .get("from_rml")
                .and_then(JsonValue::as_bool)
                .ok_or("missing 'from_rml'")?,
        },
        "RmlAppend" => EventKind::RmlAppend {
            from: get_usize(v, "from")?,
            tag: get_i32(v, "tag")?,
            msg: get_msg(v, "msg")?,
        },
        "ConnReq" => EventKind::ConnReq {
            to: get_usize(v, "to")?,
        },
        "ConnAck" => EventKind::ConnAck {
            from: get_usize(v, "from")?,
        },
        "ConnNack" => EventKind::ConnNack {
            to: get_usize(v, "to")?,
        },
        "SchedulerConsult" => EventKind::SchedulerConsult {
            about: get_usize(v, "about")?,
        },
        "ChannelOpen" => EventKind::ChannelOpen {
            peer: get_usize(v, "peer")?,
        },
        "ChannelClose" => EventKind::ChannelClose {
            peer: get_usize(v, "peer")?,
        },
        "MigrationStart" => EventKind::MigrationStart {
            rank: get_usize(v, "rank")?,
        },
        "PeerMigratingSent" => EventKind::PeerMigratingSent {
            peer: get_usize(v, "peer")?,
        },
        "PeerMigratingSeen" => EventKind::PeerMigratingSeen {
            peer: get_usize(v, "peer")?,
        },
        "EndOfMessages" => EventKind::EndOfMessages {
            peer: get_usize(v, "peer")?,
        },
        "RmlForwarded" => EventKind::RmlForwarded {
            count: get_usize(v, "count")?,
            bytes: get_usize(v, "bytes")?,
        },
        "StateChunkSent" => EventKind::StateChunkSent {
            seq: get_u32(v, "seq")?,
            bytes: get_usize(v, "bytes")?,
        },
        "StateChunkRestored" => EventKind::StateChunkRestored {
            seq: get_u32(v, "seq")?,
            bytes: get_usize(v, "bytes")?,
        },
        "StateCollected" => EventKind::StateCollected {
            bytes: get_usize(v, "bytes")?,
        },
        "StateTransmitted" => EventKind::StateTransmitted {
            bytes: get_usize(v, "bytes")?,
        },
        "StateRestored" => EventKind::StateRestored {
            bytes: get_usize(v, "bytes")?,
        },
        "MigrationCommit" => EventKind::MigrationCommit {
            rank: get_usize(v, "rank")?,
        },
        "MigrationAborted" => EventKind::MigrationAborted {
            rank: get_usize(v, "rank")?,
            attempt: get_u32(v, "attempt")?,
        },
        "MigrationRetried" => EventKind::MigrationRetried {
            attempt: get_u32(v, "attempt")?,
        },
        "MigrationAbortSeen" => EventKind::MigrationAbortSeen {
            peer: get_usize(v, "peer")?,
        },
        "StateRestoreAborted" => EventKind::StateRestoreAborted {
            chunks: get_u32(v, "chunks")?,
            bytes: get_usize(v, "bytes")?,
        },
        "FaultDelay" => EventKind::FaultDelay {
            extra_ns: v
                .get("extra_ns")
                .and_then(JsonValue::as_u64)
                .ok_or("missing 'extra_ns'")?,
        },
        "FaultReset" => EventKind::FaultReset,
        "FaultDropped" => EventKind::FaultDropped {
            what: v
                .get("what")
                .and_then(JsonValue::as_str)
                .ok_or("missing 'what'")?
                .to_string(),
        },
        "FaultDuplicated" => EventKind::FaultDuplicated {
            what: v
                .get("what")
                .and_then(JsonValue::as_str)
                .ok_or("missing 'what'")?
                .to_string(),
        },
        "SignalDelivered" => {
            let name = v
                .get("signal")
                .and_then(JsonValue::as_str)
                .ok_or("missing 'signal'")?;
            // The in-memory variant carries a &'static str; map the known
            // names and fall back to a leaked-free placeholder.
            let signal = match name {
                "SIGMIGRATE" => "SIGMIGRATE",
                "SIGDISCONNECT" => "SIGDISCONNECT",
                _ => "SIGUNKNOWN",
            };
            EventKind::SignalDelivered { signal }
        }
        "Compute" => EventKind::Compute {
            work: v
                .get("work")
                .and_then(JsonValue::as_u64)
                .ok_or("missing 'work'")?,
        },
        "Phase" => EventKind::Phase {
            label: v
                .get("label")
                .and_then(JsonValue::as_str)
                .ok_or("missing 'label'")?
                .to_string(),
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(kind)
}

/// Serialize one event (typed, round-trippable).
pub fn event_to_json(e: &Event) -> JsonValue {
    JsonValue::Object(vec![
        ("t_ns".into(), JsonValue::Num(e.t_ns as f64)),
        ("seq".into(), JsonValue::Num(e.seq as f64)),
        ("who".into(), JsonValue::Str(e.who.clone())),
        ("kind".into(), kind_to_json(&e.kind)),
    ])
}

/// Deserialize one event.
pub fn event_from_json(v: &JsonValue) -> Result<Event, String> {
    Ok(Event {
        t_ns: v
            .get("t_ns")
            .and_then(JsonValue::as_u64)
            .ok_or("missing 't_ns'")?,
        seq: v
            .get("seq")
            .and_then(JsonValue::as_u64)
            .ok_or("missing 'seq'")?,
        who: v
            .get("who")
            .and_then(JsonValue::as_str)
            .ok_or("missing 'who'")?
            .to_string(),
        kind: kind_from_json(v.get("kind").ok_or("missing 'kind'")?)?,
    })
}

/// Serialize a snapshot as JSONL: one event object per line, in order.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e).to_string());
        out.push('\n');
    }
    out
}

/// Parse a JSONL event log (blank lines skipped). Errors carry the
/// 1-based line number.
pub fn events_from_jsonl(s: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(event_from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        use EventKind::*;
        vec![
            Send {
                to: 1,
                tag: -1,
                bytes: 64,
                msg: MsgId(9),
            },
            RecvStart {
                from: Some(2),
                tag: None,
            },
            RecvStart {
                from: None,
                tag: Some(5),
            },
            RecvDone {
                from: 2,
                tag: 5,
                bytes: 8,
                msg: MsgId(10),
                from_rml: true,
            },
            RmlAppend {
                from: 2,
                tag: 5,
                msg: MsgId(11),
            },
            ConnReq { to: 3 },
            ConnAck { from: 3 },
            ConnNack { to: 3 },
            SchedulerConsult { about: 0 },
            ChannelOpen { peer: 1 },
            ChannelClose { peer: 1 },
            MigrationStart { rank: 4 },
            PeerMigratingSent { peer: 0 },
            PeerMigratingSeen { peer: 4 },
            EndOfMessages { peer: 4 },
            RmlForwarded {
                count: 3,
                bytes: 300,
            },
            StateChunkSent {
                seq: 0,
                bytes: 4096,
            },
            StateChunkRestored {
                seq: 0,
                bytes: 4096,
            },
            StateCollected { bytes: 8192 },
            StateTransmitted { bytes: 8192 },
            StateRestored { bytes: 8192 },
            MigrationCommit { rank: 4 },
            MigrationAborted {
                rank: 4,
                attempt: 2,
            },
            MigrationRetried { attempt: 2 },
            MigrationAbortSeen { peer: 4 },
            StateRestoreAborted {
                chunks: 1,
                bytes: 4096,
            },
            FaultDelay { extra_ns: 2_500 },
            FaultReset,
            FaultDropped {
                what: "conn_req".into(),
            },
            FaultDuplicated {
                what: "conn_reply".into(),
            },
            SignalDelivered {
                signal: "SIGMIGRATE",
            },
            Compute { work: 1000 },
            Phase {
                label: "iter \"2\" done".into(),
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in all_kinds() {
            let j = kind_to_json(&kind);
            let back = kind_from_json(&j).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn jsonl_roundtrips_a_log() {
        let events: Vec<Event> = all_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                t_ns: 100 * i as u64,
                seq: i as u64,
                who: format!("p{}", i % 3),
                kind,
            })
            .collect();
        let text = events_to_jsonl(&events);
        let back = events_from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_reports_bad_line() {
        let err = events_from_jsonl("{\"t_ns\":1}\nnot json\n").unwrap_err();
        assert!(err.contains("line 1") || err.contains("line 2"), "{err}");
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let v = JsonValue::parse(r#"{"type":"Teleport"}"#).unwrap();
        assert!(kind_from_json(&v).unwrap_err().contains("Teleport"));
    }
}
