//! The received-message-list (§3.1).
//!
//! "As a result of the coordination, messages in transit are drained from
//! the channels and stored in a temporary storage in process memory
//! space, namely the *received-message-list*." The list changes the
//! receive operation: `recv` must search the list before taking new
//! messages from a channel, and unwanted messages are appended until the
//! wanted one is found.
//!
//! On migration the migrating process's list is *prepended* to the
//! initialized process's list (Fig 7 line 3) — messages captured during
//! coordination precede anything the initialized process received on
//! newly established connections. This ordering is what makes Theorem 3
//! (FIFO across migration) hold; `prepend_batch` keeps it.

use snow_vm::{Envelope, Rank, Tag};
use std::collections::VecDeque;

/// The received-message-list: an ordered buffer of data envelopes.
#[derive(Debug, Default)]
pub struct Rml {
    list: VecDeque<Envelope>,
}

impl Rml {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a newly arrived but currently unwanted message
    /// (Fig 4 line 7).
    pub fn append(&mut self, env: Envelope) {
        self.list.push_back(env);
    }

    /// Insert a forwarded batch *in front of* the existing contents,
    /// preserving the batch's internal order (Fig 7 line 3).
    pub fn prepend_batch(&mut self, batch: Vec<Envelope>) {
        for env in batch.into_iter().rev() {
            self.list.push_front(env);
        }
    }

    /// Search for the first message matching `src`/`tag` (either may be
    /// a wildcard) and remove it (Fig 4 lines 2–3). Matching is
    /// first-match-in-order, which preserves per-source FIFO.
    pub fn take_match(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Option<Envelope> {
        let pos = self.position(src, tag)?;
        self.list.remove(pos)
    }

    /// Is a message matching `src`/`tag` buffered? Moves nothing, so a
    /// probe cannot reorder the list.
    pub(crate) fn has_match(&self, src: Option<Rank>, tag: Option<Tag>) -> bool {
        self.position(src, tag).is_some()
    }

    fn position(&self, src: Option<Rank>, tag: Option<Tag>) -> Option<usize> {
        self.list
            .iter()
            .position(|e| src.is_none_or(|s| e.src == s) && tag.is_none_or(|t| e.tag == t))
    }

    /// Drain everything, in order — the migration path (Fig 5 line 8).
    pub fn drain_all(&mut self) -> Vec<Envelope> {
        self.list.drain(..).collect()
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Total payload bytes buffered (for trace/cost reporting).
    pub fn total_bytes(&self) -> usize {
        self.list.iter().map(Envelope::wire_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use snow_trace::MsgId;
    use snow_vm::Payload;

    fn env(src: Rank, tag: Tag, id: u64) -> Envelope {
        Envelope {
            src,
            tag,
            msg: MsgId(id),
            payload: Payload::Data(Bytes::from_static(b"x")),
        }
    }

    #[test]
    fn append_then_take_in_order() {
        let mut rml = Rml::new();
        rml.append(env(0, 1, 1));
        rml.append(env(0, 1, 2));
        assert_eq!(rml.take_match(Some(0), Some(1)).unwrap().msg, MsgId(1));
        assert_eq!(rml.take_match(Some(0), Some(1)).unwrap().msg, MsgId(2));
        assert!(rml.take_match(Some(0), Some(1)).is_none());
    }

    #[test]
    fn wildcards_match_anything() {
        let mut rml = Rml::new();
        rml.append(env(3, 9, 1));
        assert!(rml.take_match(None, None).is_some());
        rml.append(env(3, 9, 2));
        assert!(rml.take_match(Some(3), None).is_some());
        rml.append(env(3, 9, 3));
        assert!(rml.take_match(None, Some(9)).is_some());
        assert!(rml.is_empty());
    }

    #[test]
    fn mismatches_left_in_place() {
        let mut rml = Rml::new();
        rml.append(env(1, 5, 1));
        rml.append(env(2, 6, 2));
        // Take by src=2: skips the first entry without disturbing it.
        assert_eq!(rml.take_match(Some(2), None).unwrap().msg, MsgId(2));
        assert_eq!(rml.len(), 1);
        assert_eq!(rml.take_match(None, None).unwrap().msg, MsgId(1));
    }

    #[test]
    fn selective_take_preserves_per_source_fifo() {
        let mut rml = Rml::new();
        rml.append(env(1, 5, 1));
        rml.append(env(2, 5, 2));
        rml.append(env(1, 5, 3));
        assert_eq!(rml.take_match(Some(1), None).unwrap().msg, MsgId(1));
        assert_eq!(rml.take_match(Some(1), None).unwrap().msg, MsgId(3));
    }

    #[test]
    fn prepend_batch_goes_in_front_in_order() {
        let mut rml = Rml::new();
        rml.append(env(9, 0, 100)); // locally received
        rml.prepend_batch(vec![env(1, 0, 1), env(1, 0, 2)]);
        assert_eq!(rml.take_match(None, None).unwrap().msg, MsgId(1));
        assert_eq!(rml.take_match(None, None).unwrap().msg, MsgId(2));
        assert_eq!(rml.take_match(None, None).unwrap().msg, MsgId(100));
    }

    #[test]
    fn prepend_empty_batch_is_noop() {
        let mut rml = Rml::new();
        rml.append(env(0, 0, 1));
        rml.prepend_batch(vec![]);
        assert_eq!(rml.len(), 1);
    }

    #[test]
    fn drain_all_preserves_order_and_empties() {
        let mut rml = Rml::new();
        for i in 0..5 {
            rml.append(env(0, 0, i));
        }
        let drained = rml.drain_all();
        assert_eq!(
            drained.iter().map(|e| e.msg.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(rml.is_empty());
    }

    #[test]
    fn total_bytes_counts_wire_size() {
        let mut rml = Rml::new();
        rml.append(env(0, 0, 1));
        rml.append(env(0, 0, 2));
        assert_eq!(
            rml.total_bytes(),
            2 * (1 + snow_vm::wire::ENVELOPE_OVERHEAD_BYTES)
        );
    }
}
