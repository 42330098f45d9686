//! Length-prefixed wire frames for socket-backed transports.
//!
//! A socket carries an ordered byte stream; the SNOW services on top of
//! it exchange discrete messages. This module defines the boundary
//! between the two: every message rides in one *frame* with a
//! fixed-width big-endian header (network order, matching the
//! `snow-codec` canonical encoding the bodies are written in):
//!
//! ```text
//! +----------------+---------+---------+------------------+
//! | u32 len (BE)   | u8 ver  | u8 kind | body (len-2) ... |
//! +----------------+---------+---------+------------------+
//! ```
//!
//! `len` counts everything after itself (version byte, kind byte and
//! body), so a reader can pull exactly one frame off the stream without
//! understanding the body. The format is deliberately closure-free —
//! bodies are canonical `snow-codec` bytes describing plain data, never
//! serialized code — which is what keeps a deserialization step from
//! becoming an RCE surface.

use crate::TimeScale;
use snow_codec::WireWriter;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame format version stamped into every header. A reader refusing a
/// version it does not know fails loudly instead of misparsing.
pub const FRAME_VERSION: u8 = 1;

/// Upper bound on one frame's `len` field (64 MiB). State transfer is
/// chunked well below this; anything larger is corruption or abuse.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// What a frame's body contains — the §2.3 service it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection-oriented service, addressed to a process inbox by
    /// vmid (the destination node resolves it in its local registry).
    Inbox,
    /// Connection-oriented service, addressed to an *exposed sender* by
    /// id — the virtualized form of a `PostSender` handle that crossed
    /// the wire inside an earlier message.
    Expose,
    /// Connectionless service: a `conn_req` datagram for the
    /// destination node's daemon.
    ConnReq,
    /// Signaling service: a best-effort ordered signal for a process.
    Signal,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Inbox => 1,
            FrameKind::Expose => 2,
            FrameKind::ConnReq => 3,
            FrameKind::Signal => 4,
        }
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::Inbox),
            2 => Some(FrameKind::Expose),
            3 => Some(FrameKind::ConnReq),
            4 => Some(FrameKind::Signal),
            _ => None,
        }
    }
}

/// Largest body one frame can carry: the `len` field counts the version
/// and kind bytes too, so the body gets two bytes less than the cap.
pub const MAX_BODY_BYTES: usize = MAX_FRAME_BYTES as usize - 2;

/// A frame that cannot be put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The body exceeds [`MAX_BODY_BYTES`]. Encoding it anyway would
    /// either wrap the 32-bit length field (desyncing the stream and
    /// misframing everything after it) or make the receiver kill the
    /// connection on the length check — so it is rejected at encode
    /// time instead.
    BodyTooLarge {
        /// The offending body's size.
        len: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BodyTooLarge { len } => {
                write!(f, "frame body {len} bytes exceeds {MAX_BODY_BYTES}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Header bytes ahead of every body: the `u32` length, the version byte
/// and the kind byte.
const HEADER_BYTES: usize = 6;

/// Widest unsigned LEB128 encoding of a `u64`: the room
/// [`FrameEncoder::begin_prefixed`] reserves for a section's length.
const MAX_UVARINT_BYTES: usize = 10;

/// Builds one frame in a single buffer, so its body is written once and
/// never copied.
///
/// The header is reserved up front and patched by
/// [`FrameEncoder::finish`] once the body's length is known. A body may
/// end in one length-prefixed section — the canonical `put_bytes`
/// layout, a uvarint length then the bytes — written in place too:
/// [`FrameEncoder::begin_prefixed`] reserves the widest prefix, and
/// `finish` writes the real prefix flush against the section and moves
/// the few bytes ahead of it (header and leading fields) up to meet it.
/// The frame then starts a few bytes into its buffer, and the section
/// itself never moves. The bytes are those [`encode_frame`] would give
/// for the same body.
pub struct FrameEncoder {
    w: WireWriter,
    /// Start of the room reserved for the trailing section's length.
    prefix_at: Option<usize>,
}

impl FrameEncoder {
    /// An empty frame whose body is expected to take about `body_hint`
    /// bytes. The buffer is allocated once, with room for the header,
    /// the hint (capped at [`MAX_BODY_BYTES`]) and a section prefix
    /// twice over (its reserved room and the scratch `finish` encodes
    /// it in); a longer body grows it.
    pub fn new(body_hint: usize) -> Self {
        let mut w = WireWriter::with_capacity(
            HEADER_BYTES + 2 * MAX_UVARINT_BYTES + body_hint.min(MAX_BODY_BYTES),
        );
        w.put_raw(&[0; HEADER_BYTES]);
        FrameEncoder { w, prefix_at: None }
    }

    /// The body so far: fields written here land in their final place.
    pub fn body(&mut self) -> &mut WireWriter {
        &mut self.w
    }

    /// Start the body's trailing section: everything written through
    /// [`FrameEncoder::body`] after this call is framed as one
    /// length-prefixed byte string, whose length `finish` fills in.
    /// Call at most once per frame.
    pub fn begin_prefixed(&mut self) {
        assert!(self.prefix_at.is_none(), "one prefixed section per frame");
        self.prefix_at = Some(self.w.len());
        self.w.put_raw(&[0; MAX_UVARINT_BYTES]);
    }

    /// Patch the header (and the section prefix, if any) and hand out
    /// the finished frame. A body above [`MAX_BODY_BYTES`] is rejected
    /// here, before any bytes touch a stream: a wrapped or oversized
    /// length field is not a recoverable receiver-side condition.
    pub fn finish(self, kind: FrameKind) -> Result<EncodedFrame, FrameError> {
        let (mut buf, start) = match self.prefix_at {
            None => (self.w.into_bytes(), 0),
            Some(at) => close_prefixed(self.w, at),
        };
        let body_len = buf.len() - start - HEADER_BYTES;
        if body_len > MAX_BODY_BYTES {
            return Err(FrameError::BodyTooLarge { len: body_len });
        }
        buf[start..start + HEADER_BYTES].copy_from_slice(&header(kind, body_len));
        Ok(EncodedFrame { buf, start })
    }
}

/// Fill in the length prefix of the section whose reserved room starts
/// at `at`, and move the bytes ahead of the room up to meet the prefix.
/// Returns the buffer and where the frame now starts in it.
fn close_prefixed(mut w: WireWriter, at: usize) -> (Vec<u8>, usize) {
    let section = at + MAX_UVARINT_BYTES;
    let end = w.len();
    // Encode the prefix as scratch past the end, copy it flush against
    // the section and cut the scratch off.
    w.put_uvarint((end - section) as u64);
    let mut buf = w.into_bytes();
    let width = buf.len() - end;
    buf.copy_within(end.., section - width);
    buf.truncate(end);
    let start = MAX_UVARINT_BYTES - width;
    buf.copy_within(..at, start);
    (buf, start)
}

/// The header of a frame of `kind` whose body is `body_len` bytes
/// (at most [`MAX_BODY_BYTES`]).
fn header(kind: FrameKind, body_len: usize) -> [u8; HEADER_BYTES] {
    let [a, b, c, d] = (2 + body_len as u32).to_be_bytes();
    [a, b, c, d, FRAME_VERSION, kind.to_u8()]
}

/// A finished frame, header and body contiguous; see [`FrameEncoder`].
pub struct EncodedFrame {
    buf: Vec<u8>,
    start: usize,
}

impl EncodedFrame {
    /// The frame's wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// Encode one frame around a body already in hand: header plus `body`,
/// ready for a single `write_all`. Bodies above [`MAX_BODY_BYTES`] are
/// rejected here, before any bytes touch the stream. A body encoded for
/// the frame is written in place with [`FrameEncoder`] instead.
pub fn encode_frame(kind: FrameKind, body: &[u8]) -> Result<Vec<u8>, FrameError> {
    if body.len() > MAX_BODY_BYTES {
        return Err(FrameError::BodyTooLarge { len: body.len() });
    }
    let mut w = WireWriter::with_capacity(HEADER_BYTES + body.len());
    w.put_raw(&header(kind, body.len()));
    w.put_raw(body);
    Ok(w.into_bytes())
}

/// Read exactly one frame off `r`. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (peer closed the stream); mid-frame EOF, an unknown
/// version/kind or an oversized length are hard errors. The header is
/// read and checked first, then the body is read straight into the
/// returned buffer.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameKind, Vec<u8>)>> {
    let mut head = [0u8; HEADER_BYTES];
    // A clean close lands here with zero bytes; anything partial is an
    // error like any other short read.
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes([head[0], head[1], head[2], head[3]]);
    if !(2..=MAX_FRAME_BYTES).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [2, {MAX_FRAME_BYTES}]"),
        ));
    }
    let version = head[4];
    if version != FRAME_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame version {version}, expected {FRAME_VERSION}"),
        ));
    }
    let kind = FrameKind::from_u8(head[5]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame kind {}", head[5]),
        )
    })?;
    let mut body = vec![0u8; len as usize - 2];
    r.read_exact(&mut body)?;
    Ok(Some((kind, body)))
}

/// Write one frame to `w` and flush it. One syscall-visible write per
/// frame keeps call order equal to wire order, which is what preserves
/// per-sender FIFO through a shared socket.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> io::Result<()> {
    let bytes = encode_frame(kind, body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Flush a batch once this many unflushed bytes have accumulated, even
/// if more frames are queued. Keeps a long burst's first frames from
/// waiting on the last, and bounds the buffer a stalled peer can pin.
pub const BATCH_FLUSH_BYTES: usize = 64 * 1024;

/// Coalesces consecutive frames into shared flushes.
///
/// Frames are appended to an internal buffer in call order; [`flush`]
/// pushes the buffer to the underlying stream in one `write_all` +
/// `flush`. Because the buffer is strictly append-only and drained
/// front-to-back, wire order always equals append order — batching
/// changes *when* bytes reach the socket, never their relative order,
/// so per-sender FIFO survives. The writer auto-flushes when the
/// pending buffer crosses [`BATCH_FLUSH_BYTES`]; the owner decides the
/// other flush edge (typically: input queue momentarily empty).
///
/// [`flush`]: BatchWriter::flush
pub struct BatchWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    /// Frames appended since the last flush.
    pending: usize,
}

impl<W: Write> BatchWriter<W> {
    /// A batch writer over `out` with nothing pending.
    pub fn new(out: W) -> Self {
        BatchWriter {
            out,
            buf: Vec::with_capacity(BATCH_FLUSH_BYTES),
            pending: 0,
        }
    }

    /// Append one frame to the batch, auto-flushing if the pending
    /// bytes cross [`BATCH_FLUSH_BYTES`]. Oversized bodies surface the
    /// same `InvalidInput` error [`write_frame`] reports.
    pub fn push(&mut self, kind: FrameKind, body: &[u8]) -> io::Result<()> {
        let bytes = encode_frame(kind, body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.push_encoded(&bytes)
    }

    /// Append one already-encoded frame (the bytes [`encode_frame`] or
    /// [`FrameEncoder`] produced) under the same auto-flush policy as
    /// [`push`]. Callers that encode up front — to surface
    /// [`FrameError`] on the sending thread before the frame crosses
    /// into a writer queue — hand the bytes over here without
    /// re-encoding.
    ///
    /// [`push`]: BatchWriter::push
    pub fn push_encoded(&mut self, frame: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(frame);
        self.pending += 1;
        if self.buf.len() >= BATCH_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Frames appended but not yet on the wire.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Unwrap the underlying stream, discarding any unflushed batch.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Push everything buffered to the stream in one write, then flush
    /// the stream itself. No-op when nothing is pending.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        self.pending = 0;
        self.out.flush()
    }
}

/// Socket-backed transports carry real wire delays, so the modeled
/// clock must be off: this is the scale they are required to run at.
pub const SOCKET_TIME_SCALE: TimeScale = TimeScale::ZERO;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let body = b"hello frames".to_vec();
        let bytes = encode_frame(FrameKind::ConnReq, &body).unwrap();
        let mut c = Cursor::new(bytes);
        let (kind, got) = read_frame(&mut c).unwrap().unwrap();
        assert_eq!(kind, FrameKind::ConnReq);
        assert_eq!(got, body);
        // Stream exhausted cleanly.
        assert!(read_frame(&mut c).unwrap().is_none());
    }

    #[test]
    fn frames_concatenate_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Inbox, b"one").unwrap();
        write_frame(&mut buf, FrameKind::Signal, b"two").unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut c).unwrap().unwrap(),
            (FrameKind::Inbox, b"one".to_vec())
        );
        assert_eq!(
            read_frame(&mut c).unwrap().unwrap(),
            (FrameKind::Signal, b"two".to_vec())
        );
    }

    #[test]
    fn empty_body_is_legal() {
        let bytes = encode_frame(FrameKind::Signal, &[]).unwrap();
        let mut c = Cursor::new(bytes);
        let (kind, body) = read_frame(&mut c).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Signal);
        assert!(body.is_empty());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_frame(FrameKind::Inbox, b"x").unwrap();
        bytes[4] = 9; // version byte
        assert!(read_frame(&mut Cursor::new(bytes)).is_err());
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = encode_frame(FrameKind::Inbox, b"x").unwrap();
        bytes[5] = 0xee; // kind byte
        assert!(read_frame(&mut Cursor::new(bytes)).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(MAX_FRAME_BYTES + 1);
        w.put_u8(FRAME_VERSION);
        w.put_u8(1);
        assert!(read_frame(&mut Cursor::new(w.into_bytes())).is_err());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let bytes = encode_frame(FrameKind::Expose, b"truncated body").unwrap();
        let cut = &bytes[..bytes.len() - 3];
        assert!(read_frame(&mut Cursor::new(cut.to_vec())).is_err());
    }

    #[test]
    fn oversized_body_rejected_at_encode() {
        let body = vec![0u8; MAX_BODY_BYTES + 1];
        assert_eq!(
            encode_frame(FrameKind::Inbox, &body),
            Err(FrameError::BodyTooLarge {
                len: MAX_BODY_BYTES + 1
            })
        );
        // The boundary itself is legal.
        assert!(encode_frame(FrameKind::Inbox, &vec![0u8; MAX_BODY_BYTES]).is_ok());
        // The in-place encoder counts the section prefix (4 bytes at
        // this size) against the same cap.
        let encode = |section: usize| {
            let mut f = FrameEncoder::new(0);
            f.begin_prefixed();
            f.body().put_raw(&body[..section]);
            f.finish(FrameKind::Inbox).map(|f| f.as_bytes().len())
        };
        assert_eq!(
            encode(MAX_BODY_BYTES - 3),
            Err(FrameError::BodyTooLarge {
                len: MAX_BODY_BYTES + 1
            })
        );
        assert_eq!(
            encode(MAX_BODY_BYTES - 4),
            Ok(HEADER_BYTES + MAX_BODY_BYTES)
        );
    }

    #[test]
    fn in_place_encoder_matches_copying_encode() {
        // Section lengths whose uvarint prefix takes 1, 2 and 3 bytes,
        // at and around each width's edge.
        for section_len in [0usize, 1, 127, 128, 16_383, 16_384, 300_000] {
            let section: Vec<u8> = (0..section_len).map(|i| (i * 31 + 7) as u8).collect();
            let mut f = FrameEncoder::new(8);
            f.body().put_u64(0x0102_0304_0506_0708);
            f.body().put_u8(9);
            f.begin_prefixed();
            f.body().put_raw(&section);
            let in_place = f.finish(FrameKind::Expose).unwrap();

            let mut body = WireWriter::new();
            body.put_u64(0x0102_0304_0506_0708);
            body.put_u8(9);
            body.put_bytes(&section);
            let copied = encode_frame(FrameKind::Expose, body.as_slice()).unwrap();
            assert_eq!(
                in_place.as_bytes(),
                &copied[..],
                "section of {section_len} B"
            );
        }
    }

    /// A `Read` that hands out one byte per call, like a socket that
    /// delivers a frame in the smallest possible pieces.
    struct Trickle(Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn frames_parse_from_one_byte_reads() {
        let bodies: [&[u8]; 3] = [b"first", b"", &[0xab; 300]];
        let mut stream = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let kind = [FrameKind::Inbox, FrameKind::Signal, FrameKind::Expose][i];
            write_frame(&mut stream, kind, body).unwrap();
        }
        let mut r = Trickle(Cursor::new(stream.clone()));
        for (i, body) in bodies.iter().enumerate() {
            let kind = [FrameKind::Inbox, FrameKind::Signal, FrameKind::Expose][i];
            assert_eq!(read_frame(&mut r).unwrap(), Some((kind, body.to_vec())));
        }
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF at a boundary"
        );
        // Cut inside the header and inside the body: both are errors,
        // never a clean close.
        for cut in [1, HEADER_BYTES - 1, HEADER_BYTES + 2] {
            let mut r = Trickle(Cursor::new(stream[..cut].to_vec()));
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn write_frame_surfaces_oversized_body_as_invalid_input() {
        let mut sink = Vec::new();
        let err =
            write_frame(&mut sink, FrameKind::Inbox, &vec![0u8; MAX_BODY_BYTES + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "no bytes may reach the stream");
    }

    /// A `Write` that counts flushes, so tests can observe batching.
    struct CountingSink {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn batch_writer_coalesces_and_preserves_order() {
        let mut bw = BatchWriter::new(CountingSink {
            bytes: Vec::new(),
            flushes: 0,
        });
        for seq in 0..50u64 {
            bw.push(FrameKind::Inbox, &seq.to_le_bytes()).unwrap();
        }
        assert_eq!(bw.pending(), 50, "small frames stay buffered");
        bw.flush().unwrap();
        let sink = bw.into_inner();
        assert_eq!(sink.flushes, 1, "one flush for the whole burst");
        let mut c = Cursor::new(sink.bytes);
        for seq in 0..50u64 {
            let (kind, body) = read_frame(&mut c).unwrap().unwrap();
            assert_eq!(kind, FrameKind::Inbox);
            assert_eq!(body, seq.to_le_bytes());
        }
        assert!(read_frame(&mut c).unwrap().is_none());
    }

    #[test]
    fn batch_writer_auto_flushes_at_byte_threshold() {
        let mut bw = BatchWriter::new(CountingSink {
            bytes: Vec::new(),
            flushes: 0,
        });
        // Two frames of just over half the threshold each: the second
        // push crosses BATCH_FLUSH_BYTES and must auto-flush.
        let body = vec![7u8; BATCH_FLUSH_BYTES / 2 + 8];
        bw.push(FrameKind::Inbox, &body).unwrap();
        assert_eq!(bw.pending(), 1);
        bw.push(FrameKind::Inbox, &body).unwrap();
        assert_eq!(bw.pending(), 0, "threshold crossing flushed the batch");
        assert_eq!(bw.into_inner().flushes, 1);
    }

    #[test]
    fn batch_writer_flush_is_noop_when_empty() {
        let mut bw = BatchWriter::new(CountingSink {
            bytes: Vec::new(),
            flushes: 0,
        });
        bw.flush().unwrap();
        assert_eq!(bw.into_inner().flushes, 0);
    }
}
