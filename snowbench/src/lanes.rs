//! The online §4 check. Every payload carries its lane (src, dst), a
//! per-lane sequence number, its scheduled and sent times, and a check
//! word over all of them that also seeds the fill bytes. The receiver
//! keeps the next expected sequence number of each inbound lane, so a
//! loss, duplicate, reorder or corruption is caught on the message that
//! exposes it and reported with its lane.

use bytes::Bytes;

/// Header bytes: src u16, dst u16, seq u32, sched_ns u64, send lag u32,
/// check u32.
pub const HEADER: usize = 24;

/// What a verified payload says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub src: usize,
    pub dst: usize,
    pub seq: u32,
    /// When the message was due, ns after the run's epoch.
    pub sched_ns: u64,
    /// When the accepted `try_send` call began, ns after the epoch.
    pub sent_ns: u64,
}

fn check_word(header: &[u8], len: usize) -> u32 {
    let mut h = snow_state::fnv1a(header);
    h ^= len as u64;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    (h ^ (h >> 32)) as u32
}

fn fill_byte(check: u32, i: usize) -> u8 {
    (check as usize).wrapping_add(i.wrapping_mul(31)) as u8
}

/// Build a `len`-byte payload for `stamp` (`len >= HEADER`).
pub fn encode(stamp: &Stamp, len: usize) -> Bytes {
    assert!(len >= HEADER, "payload of {len} B cannot hold the header");
    let mut buf = vec![0u8; len];
    buf[0..2].copy_from_slice(&(stamp.src as u16).to_le_bytes());
    buf[2..4].copy_from_slice(&(stamp.dst as u16).to_le_bytes());
    buf[4..8].copy_from_slice(&stamp.seq.to_le_bytes());
    buf[8..16].copy_from_slice(&stamp.sched_ns.to_le_bytes());
    let lag = stamp
        .sent_ns
        .saturating_sub(stamp.sched_ns)
        .min(u32::MAX as u64) as u32;
    buf[16..20].copy_from_slice(&lag.to_le_bytes());
    let check = check_word(&buf[..20], len);
    buf[20..24].copy_from_slice(&check.to_le_bytes());
    for (i, b) in buf[HEADER..].iter_mut().enumerate() {
        *b = fill_byte(check, i);
    }
    Bytes::from(buf)
}

/// Decode a payload and verify its content.
pub fn decode(body: &[u8]) -> Result<Stamp, String> {
    if body.len() < HEADER {
        return Err(format!(
            "payload of {} B is shorter than the header",
            body.len()
        ));
    }
    let u16_at = |i: usize| u16::from_le_bytes([body[i], body[i + 1]]);
    let u32_at = |i: usize| u32::from_le_bytes(body[i..i + 4].try_into().expect("4 bytes"));
    let check = u32_at(20);
    if check != check_word(&body[..20], body.len()) {
        return Err("header check word mismatch".to_string());
    }
    if let Some(i) = body[HEADER..]
        .iter()
        .enumerate()
        .position(|(i, &b)| b != fill_byte(check, i))
    {
        return Err(format!("fill byte {i} corrupted"));
    }
    let sched_ns = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    Ok(Stamp {
        src: u16_at(0) as usize,
        dst: u16_at(2) as usize,
        seq: u32_at(4),
        sched_ns,
        sent_ns: sched_ns + u32_at(16) as u64,
    })
}

/// A §4 violation, naming its lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub src: usize,
    pub dst: usize,
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane {}->{}: {}", self.src, self.dst, self.what)
    }
}

/// The receiver's expected-sequence table: one entry per inbound lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneChecker {
    me: usize,
    next: Vec<u32>,
}

impl LaneChecker {
    pub fn new(me: usize, ranks: usize) -> Self {
        LaneChecker {
            me,
            next: vec![0; ranks],
        }
    }

    /// Rebuild from a table carried in a migrated process's state.
    pub fn from_table(me: usize, next: Vec<u32>) -> Self {
        LaneChecker { me, next }
    }

    /// The table to carry across a migration.
    pub fn table(&self) -> &[u32] {
        &self.next
    }

    /// Verify one delivery from `env_src` (the sender SNOW reported).
    pub fn accept(&mut self, env_src: usize, body: &[u8]) -> Result<Stamp, Violation> {
        let fail = |what: String| Violation {
            src: env_src,
            dst: self.me,
            what,
        };
        let s = decode(body).map_err(|e| fail(format!("corrupt payload: {e}")))?;
        if s.src != env_src || s.dst != self.me {
            return Err(fail(format!(
                "misrouted payload of lane {}->{}",
                s.src, s.dst
            )));
        }
        let expected = self.next[env_src];
        if s.seq < expected {
            return Err(fail(format!(
                "duplicate or reorder: seq {} after {}",
                s.seq,
                expected - 1
            )));
        }
        if s.seq > expected {
            return Err(fail(format!(
                "loss or reorder: expected seq {expected}, got {}",
                s.seq
            )));
        }
        self.next[env_src] = expected + 1;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, dst: usize, seq: u32, len: usize) -> Bytes {
        let stamp = Stamp {
            src,
            dst,
            seq,
            sched_ns: 1_000 + seq as u64,
            sent_ns: 1_500 + seq as u64,
        };
        encode(&stamp, len)
    }

    #[test]
    fn roundtrip_carries_the_stamp() {
        let b = msg(3, 5, 9, 64);
        let s = decode(&b).unwrap();
        assert_eq!(
            (s.src, s.dst, s.seq, s.sched_ns, s.sent_ns),
            (3, 5, 9, 1_009, 1_509)
        );
        assert!(decode(&msg(3, 5, 9, HEADER)).is_ok());
    }

    #[test]
    fn in_order_lanes_pass() {
        let mut c = LaneChecker::new(1, 4);
        for seq in 0..5 {
            c.accept(0, &msg(0, 1, seq, 64)).unwrap();
            c.accept(2, &msg(2, 1, seq, 100)).unwrap();
        }
        assert_eq!(c.table(), &[5, 0, 5, 0]);
    }

    #[test]
    fn injected_loss_is_caught_and_names_the_lane() {
        let mut c = LaneChecker::new(1, 4);
        c.accept(0, &msg(0, 1, 0, 64)).unwrap();
        let v = c.accept(0, &msg(0, 1, 2, 64)).unwrap_err();
        assert_eq!((v.src, v.dst), (0, 1));
        assert!(v.to_string().starts_with("lane 0->1: loss"), "{v}");
    }

    #[test]
    fn injected_duplicate_is_caught() {
        let mut c = LaneChecker::new(1, 4);
        c.accept(3, &msg(3, 1, 0, 64)).unwrap();
        c.accept(3, &msg(3, 1, 1, 64)).unwrap();
        let v = c.accept(3, &msg(3, 1, 1, 64)).unwrap_err();
        assert!(v.to_string().starts_with("lane 3->1: duplicate"), "{v}");
    }

    #[test]
    fn injected_swap_is_caught() {
        let mut c = LaneChecker::new(1, 4);
        c.accept(0, &msg(0, 1, 0, 64)).unwrap();
        assert!(c.accept(0, &msg(0, 1, 2, 64)).is_err());
        // The checker does not advance past a violation.
        let mut c = LaneChecker::new(1, 4);
        c.accept(0, &msg(0, 1, 1, 64)).unwrap_err();
        c.accept(0, &msg(0, 1, 0, 64)).unwrap();
    }

    #[test]
    fn corruption_and_misrouting_are_caught() {
        let mut c = LaneChecker::new(1, 4);
        let mut bad = msg(0, 1, 0, 64).to_vec();
        bad[40] ^= 1;
        assert!(c.accept(0, &bad).unwrap_err().what.contains("corrupt"));
        let mut bad = msg(0, 1, 0, 64).to_vec();
        bad[4] = 7;
        assert!(c.accept(0, &bad).unwrap_err().what.contains("corrupt"));
        let v = c.accept(2, &msg(0, 1, 0, 64)).unwrap_err();
        assert!(v.what.contains("misrouted"), "{v}");
        // A table carried across a migration continues the lane.
        let mut moved = LaneChecker::from_table(1, c.table().to_vec());
        moved.accept(0, &msg(0, 1, 0, 64)).unwrap();
        assert_eq!(moved.table()[0], 1);
    }
}
