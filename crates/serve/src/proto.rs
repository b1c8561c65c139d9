//! The length-prefixed wire protocol between `laab loadgen` (or any
//! client) and the serving front-end ([`Server`](crate::Server)).
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! ┌────────────────┬───────────────────────────────────────────┐
//! │ len: u32 LE    │ payload (len bytes)                       │
//! └────────────────┴───────────────────────────────────────────┘
//!                    payload[0] = protocol version (PROTO_VERSION)
//!                    payload[1] = message tag
//!                    payload[2..] = message body, little-endian fields
//! ```
//!
//! The length prefix is bounded by [`MAX_FRAME_LEN`], so a corrupt or
//! hostile prefix can never trigger a giant allocation; an unknown
//! version or message tag is a structured [`FrameError`], never a panic.
//! Strings are `u16` length + UTF-8 bytes. The codec is hand-rolled over
//! `std::io` (no serialization dependency): the framing itself is the
//! subject under test, modeled on the ttrpc agent protocol the ROADMAP
//! references.
//!
//! Messages:
//!
//! * [`RequestMsg`] — one serving request: client-assigned `id` (frames
//!   may complete out of order; the id is the correlation key), the
//!   workload-family callsite, operand size, dtype, target backend, and
//!   the payload identity (which vector operands the request binds — see
//!   [`Request::env_from_pool`](crate::workload::Request::env_from_pool)).
//! * [`ResponseMsg`] — the matching completion: queue delay and
//!   per-request execution share in nanoseconds, the admitted batch's
//!   occupancy and [`FlushKind`], and a [checksum](result_checksum) of
//!   the result matrices so clients can assert bitwise identity with an
//!   in-process oracle without shipping the matrices back.
//! * [`Message::Shutdown`] / [`Message::ShutdownAck`] — graceful server
//!   shutdown: the server stops accepting, drains in-flight work, acks,
//!   and removes its unix socket file.

use std::io::{Read, Write};
use std::sync::Arc;

use laab_backend::Dtype;
use laab_dense::{Matrix, Scalar};

use crate::admission::FlushKind;

/// Protocol version byte carried by every frame, and the only one the
/// decoder accepts: any other byte, the retired version 1 included, is
/// [`FrameError::UnknownVersion`]. Version 2 added the per-request
/// `deadline_us` field and the `Busy`/`Expired`/`Failed` response
/// statuses.
pub const PROTO_VERSION: u8 = 2;

/// Upper bound on one frame's payload length. Requests and responses are
/// tiny (well under 1 KiB); anything larger is a corrupt or hostile
/// length prefix and is rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024;

/// Message tag bytes (payload\[1\]).
const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_SHUTDOWN_ACK: u8 = 4;

/// Why a frame could not be decoded (or read). These are the transport
/// layer's structured errors — every malformed input maps to a variant,
/// never a panic, so a misbehaving client cannot take the server down.
#[derive(Debug, Clone)]
pub enum FrameError {
    /// The underlying socket read/write failed.
    Io(Arc<std::io::Error>),
    /// The stream ended (or the buffer ran out) mid-frame.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The frame's version byte is not [`PROTO_VERSION`].
    UnknownVersion(u8),
    /// The frame's message tag is not one this version defines.
    UnknownMessage(u8),
    /// A dtype byte that names no [`Dtype`].
    UnknownDtype(u8),
    /// A flush-kind byte that names no [`FlushKind`].
    UnknownFlush(u8),
    /// A response status byte that is neither ok nor error.
    UnknownStatus(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The payload was longer than the message it encodes.
    TrailingBytes {
        /// Unconsumed bytes after the message body.
        extra: usize,
    },
    /// The frame arrived whole but its payload is inconsistent: the
    /// message body runs past the length prefix, or its shape fields
    /// contradict each other (zero operand size, empty family/backend
    /// name, a served response claiming zero occupancy). Rejected here
    /// so nonsense never reaches plan compilation.
    BadPayload {
        /// Which invariant the payload violated.
        what: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket I/O failed: {e}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: length prefix {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::UnknownVersion(v) => {
                write!(f, "unknown protocol version {v} (this build speaks {PROTO_VERSION})")
            }
            FrameError::UnknownMessage(t) => write!(f, "unknown message tag {t}"),
            FrameError::UnknownDtype(d) => write!(f, "unknown dtype byte {d}"),
            FrameError::UnknownFlush(k) => write!(f, "unknown flush-kind byte {k}"),
            FrameError::UnknownStatus(s) => write!(f, "unknown response status byte {s}"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "frame carries {extra} trailing bytes past the message body")
            }
            FrameError::BadPayload { what } => {
                write!(f, "inconsistent payload: {what}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl PartialEq for FrameError {
    /// Structural equality; I/O errors compare by [`std::io::ErrorKind`]
    /// (the payload is not comparable).
    fn eq(&self, other: &Self) -> bool {
        use FrameError::*;
        match (self, other) {
            (Io(a), Io(b)) => a.kind() == b.kind(),
            (Truncated { needed: a, got: b }, Truncated { needed: c, got: d }) => (a, b) == (c, d),
            (Oversized { len: a }, Oversized { len: b }) => a == b,
            (UnknownVersion(a), UnknownVersion(b)) => a == b,
            (UnknownMessage(a), UnknownMessage(b)) => a == b,
            (UnknownDtype(a), UnknownDtype(b)) => a == b,
            (UnknownFlush(a), UnknownFlush(b)) => a == b,
            (UnknownStatus(a), UnknownStatus(b)) => a == b,
            (BadUtf8, BadUtf8) => true,
            (TrailingBytes { extra: a }, TrailingBytes { extra: b }) => a == b,
            (BadPayload { what: a }, BadPayload { what: b }) => a == b,
            _ => false,
        }
    }
}

/// One serving request as it travels over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMsg {
    /// Client-assigned correlation id, echoed in the response. Responses
    /// may arrive out of request order (batching reorders completion).
    pub id: u64,
    /// The workload-family callsite ([`Family::id`](crate::workload::Family::id)).
    pub family: String,
    /// Operand size.
    pub n: u64,
    /// Element precision.
    pub dtype: Dtype,
    /// Registry name of the backend to execute on.
    pub backend: String,
    /// Payload identity (selects the request's vector operand values).
    pub payload: u64,
    /// Microseconds the client is willing to wait, measured from server
    /// receipt; `0` means no deadline. A request whose deadline elapses
    /// before execution gets [`Outcome::Expired`] instead of compute.
    pub deadline_us: u64,
}

/// The server's completion report for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseMsg {
    /// Echo of the request's correlation id.
    pub id: u64,
    /// How the request fared.
    pub outcome: Outcome,
}

/// A response's body: served, or rejected with a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The request executed.
    Ok {
        /// Nanoseconds between admission and the start of the execution
        /// that served the request — waiting for a free executor and,
        /// in a batch whose plan does not stack, for the batch-mates
        /// that ran first.
        queue_ns: u64,
        /// The request's execution time, nanoseconds: its own when it
        /// ran alone, its share of a stacked batched execution.
        exec_ns: u64,
        /// How many requests the admitted batch held.
        occupancy: u32,
        /// What flushed the batch (occupancy, drain or pressure; the
        /// server no longer produces `Deadline`).
        flush: FlushKind,
        /// [`result_checksum`] over the result matrices, for bitwise
        /// comparison against an in-process oracle.
        checksum: u64,
    },
    /// The request was rejected (unknown family/backend, unsupported
    /// dtype, out-of-range size); nothing executed.
    Err {
        /// Human-readable rejection reason.
        message: String,
    },
    /// The server shed the request under load (per-connection in-flight
    /// cap or admission backlog full). Nothing executed; the client may
    /// retry after the hinted backoff.
    Busy {
        /// Suggested minimum microseconds before retrying.
        retry_after_us: u64,
    },
    /// The request's deadline elapsed before execution started; the
    /// server skipped the work rather than serve a stale answer.
    Expired {
        /// Microseconds the request had waited when it was dropped.
        waited_us: u64,
    },
    /// Execution was attempted and died (a panic caught at the executor
    /// boundary, or the signature is quarantined after repeated
    /// failures). The pool survives; this request does not.
    Failed {
        /// Human-readable failure reason (panic payload or quarantine
        /// notice).
        message: String,
    },
}

/// Every message the protocol defines.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A serving request (client → server).
    Request(RequestMsg),
    /// A completion (server → client).
    Response(ResponseMsg),
    /// Ask the server to shut down gracefully (client → server).
    Shutdown,
    /// The server acknowledges shutdown; it drains and exits after this
    /// frame (server → client).
    ShutdownAck,
}

// ---- encode ----

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "protocol strings are short");
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
}

fn dtype_byte(d: Dtype) -> u8 {
    match d {
        Dtype::F32 => 1,
        Dtype::F64 => 2,
    }
}

fn dtype_of(b: u8) -> Result<Dtype, FrameError> {
    match b {
        1 => Ok(Dtype::F32),
        2 => Ok(Dtype::F64),
        other => Err(FrameError::UnknownDtype(other)),
    }
}

fn flush_byte(k: FlushKind) -> u8 {
    match k {
        FlushKind::Occupancy => 1,
        FlushKind::Deadline => 2,
        FlushKind::Drain => 3,
        FlushKind::Pressure => 4,
    }
}

fn flush_of(b: u8) -> Result<FlushKind, FrameError> {
    match b {
        1 => Ok(FlushKind::Occupancy),
        2 => Ok(FlushKind::Deadline),
        3 => Ok(FlushKind::Drain),
        4 => Ok(FlushKind::Pressure),
        other => Err(FrameError::UnknownFlush(other)),
    }
}

/// Encode `msg` as one complete frame (length prefix included).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, msg);
    frame
}

/// Room reserved per encoded frame: every request the served families
/// name and every `Ok` response fits, so encoding one allocates once
/// instead of growing through four sizes.
const FRAME_RESERVE: usize = 64;

/// Append `msg` to `buf` as one complete frame (length prefix
/// included), so several frames can leave in one `write`.
pub fn encode_frame_into(buf: &mut Vec<u8>, msg: &Message) {
    buf.reserve(FRAME_RESERVE);
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.push(PROTO_VERSION);
    match msg {
        Message::Request(r) => {
            buf.push(TAG_REQUEST);
            buf.extend_from_slice(&r.id.to_le_bytes());
            put_str(buf, &r.family);
            buf.extend_from_slice(&r.n.to_le_bytes());
            buf.push(dtype_byte(r.dtype));
            put_str(buf, &r.backend);
            buf.extend_from_slice(&r.payload.to_le_bytes());
            buf.extend_from_slice(&r.deadline_us.to_le_bytes());
        }
        Message::Response(r) => {
            buf.push(TAG_RESPONSE);
            buf.extend_from_slice(&r.id.to_le_bytes());
            match &r.outcome {
                Outcome::Ok { queue_ns, exec_ns, occupancy, flush, checksum } => {
                    buf.push(0);
                    buf.extend_from_slice(&queue_ns.to_le_bytes());
                    buf.extend_from_slice(&exec_ns.to_le_bytes());
                    buf.extend_from_slice(&occupancy.to_le_bytes());
                    buf.push(flush_byte(*flush));
                    buf.extend_from_slice(&checksum.to_le_bytes());
                }
                Outcome::Err { message } => {
                    buf.push(1);
                    put_str(buf, message);
                }
                Outcome::Busy { retry_after_us } => {
                    buf.push(2);
                    buf.extend_from_slice(&retry_after_us.to_le_bytes());
                }
                Outcome::Expired { waited_us } => {
                    buf.push(3);
                    buf.extend_from_slice(&waited_us.to_le_bytes());
                }
                Outcome::Failed { message } => {
                    buf.push(4);
                    put_str(buf, message);
                }
            }
        }
        Message::Shutdown => buf.push(TAG_SHUTDOWN),
        Message::ShutdownAck => buf.push(TAG_SHUTDOWN_ACK),
    }
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

// ---- decode ----

/// A byte cursor over one frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes. The cursor spans one *complete* payload (its
    /// length prefix was read in full), so running out here is a body
    /// that contradicts the prefix, not a stream that ended early.
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::BadPayload {
                what: "message body runs past the frame's length prefix",
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
    }
}

/// Decode one frame's payload (version byte onward, length prefix
/// already stripped and validated).
fn decode_payload(payload: &[u8]) -> Result<Message, FrameError> {
    let mut c = Cursor { buf: payload, pos: 0 };
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(FrameError::UnknownVersion(version));
    }
    let msg = match c.u8()? {
        TAG_REQUEST => {
            let req = RequestMsg {
                id: c.u64()?,
                family: c.str()?,
                n: c.u64()?,
                dtype: dtype_of(c.u8()?)?,
                backend: c.str()?,
                payload: c.u64()?,
                deadline_us: c.u64()?,
            };
            if req.n == 0 {
                return Err(FrameError::BadPayload { what: "request operand size n = 0" });
            }
            if req.family.is_empty() {
                return Err(FrameError::BadPayload { what: "request family name is empty" });
            }
            if req.backend.is_empty() {
                return Err(FrameError::BadPayload { what: "request backend name is empty" });
            }
            Message::Request(req)
        }
        TAG_RESPONSE => {
            let id = c.u64()?;
            let outcome = match c.u8()? {
                0 => {
                    let ok = Outcome::Ok {
                        queue_ns: c.u64()?,
                        exec_ns: c.u64()?,
                        occupancy: c.u32()?,
                        flush: flush_of(c.u8()?)?,
                        checksum: c.u64()?,
                    };
                    if matches!(ok, Outcome::Ok { occupancy: 0, .. }) {
                        return Err(FrameError::BadPayload {
                            what: "served response claims batch occupancy 0",
                        });
                    }
                    ok
                }
                1 => Outcome::Err { message: c.str()? },
                2 => Outcome::Busy { retry_after_us: c.u64()? },
                3 => Outcome::Expired { waited_us: c.u64()? },
                4 => Outcome::Failed { message: c.str()? },
                other => return Err(FrameError::UnknownStatus(other)),
            };
            Message::Response(ResponseMsg { id, outcome })
        }
        TAG_SHUTDOWN => Message::Shutdown,
        TAG_SHUTDOWN_ACK => Message::ShutdownAck,
        other => return Err(FrameError::UnknownMessage(other)),
    };
    if c.pos != payload.len() {
        return Err(FrameError::TrailingBytes { extra: payload.len() - c.pos });
    }
    Ok(msg)
}

/// Decode one frame from the front of `buf`, returning the message and
/// the bytes consumed. Rejects truncated input, an oversized length
/// prefix, and every malformed payload with a [`FrameError`] — the
/// decoder never panics on wire bytes.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated { needed: 4, got: buf.len() });
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Err(FrameError::Truncated { needed: total, got: buf.len() });
    }
    let msg = decode_payload(&buf[4..total])?;
    Ok((msg, total))
}

/// Write `msg` as one frame to `w` (flushing).
pub fn write_message(w: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Read one frame from `r`. `Ok(None)` is a clean end of stream (the
/// peer closed between frames); EOF *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Truncated { needed: 4, got });
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(Arc::new(e))),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated { needed: 4 + len as usize, got: 4 + filled })
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(Arc::new(e))),
        }
    }
    decode_payload(&payload).map(Some)
}

/// Independent accumulators [`result_checksum`] spreads elements over:
/// enough multiply chains in flight to hide the multiply's latency
/// (a 256×256 result takes ≈ 30 µs at 16 lanes, about twice that at 8).
const CHECKSUM_LANES: usize = 16;

/// A checksum over result matrices: shapes plus the exact bit pattern of
/// every element (`f32` widens to `f64` losslessly, so equal values of
/// either precision hash alike). Equal checksums across a server
/// execution and an in-process oracle mean bitwise-identical results
/// without shipping matrices over the wire.
///
/// Each element is one xor-multiply step on one of 16 independent
/// accumulators (element `i` goes to lane `i mod 16`), so the multiplies
/// of consecutive elements overlap instead of forming one dependency
/// chain; the lanes are then folded, in order, into a running state that
/// also absorbed the matrix's rows and columns. Every step
/// depends on what came before it, so swapping two elements — of one lane
/// or of two — changes the result.
///
/// The value is an opaque `u64` in the frame: it is only ever compared
/// with the checksum the *same build* computes on the other side, so the
/// function may change without a frame-layout or [`PROTO_VERSION`] bump.
pub fn result_checksum<T: Scalar>(results: &[Matrix<T>]) -> u64 {
    /// 2⁶⁴ / φ, odd: the multiplier of every step.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    // The rotate carries the multiply's well-mixed high bits down, so a
    // flipped sign bit (bit 63) reaches every later step.
    let step = |h: u64, word: u64| (h.rotate_left(29) ^ word).wrapping_mul(K);
    let mut h = K;
    for m in results {
        h = step(step(h, m.rows() as u64), m.cols() as u64);
        let mut lanes: [u64; CHECKSUM_LANES] = std::array::from_fn(|i| h ^ i as u64);
        // The last chunk may be short; `zip` stops with it.
        for chunk in m.as_slice().chunks(CHECKSUM_LANES) {
            for (lane, v) in lanes.iter_mut().zip(chunk) {
                *lane = step(*lane, v.to_f64().to_bits());
            }
        }
        h = lanes.iter().fold(h, |h, &lane| step(h, lane));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Message {
        Message::Request(RequestMsg {
            id: 42,
            family: "chain".into(),
            n: 192,
            dtype: Dtype::F64,
            backend: "engine".into(),
            payload: 7,
            deadline_us: 1_500,
        })
    }

    fn response() -> Message {
        Message::Response(ResponseMsg {
            id: 42,
            outcome: Outcome::Ok {
                queue_ns: 123,
                exec_ns: 456,
                occupancy: 3,
                flush: FlushKind::Deadline,
                checksum: 0xDEAD_BEEF,
            },
        })
    }

    #[test]
    fn round_trips_every_message_kind() {
        let err = Message::Response(ResponseMsg {
            id: 9,
            outcome: Outcome::Err { message: "unknown backend `cuda`".into() },
        });
        let busy = Message::Response(ResponseMsg {
            id: 10,
            outcome: Outcome::Busy { retry_after_us: 750 },
        });
        let expired = Message::Response(ResponseMsg {
            id: 11,
            outcome: Outcome::Expired { waited_us: 2_500 },
        });
        let failed = Message::Response(ResponseMsg {
            id: 12,
            outcome: Outcome::Failed { message: "injected fault: panic".into() },
        });
        for msg in [
            request(),
            response(),
            err,
            busy,
            expired,
            failed,
            Message::Shutdown,
            Message::ShutdownAck,
        ] {
            let frame = encode_frame(&msg);
            let (back, used) = decode_frame(&frame).expect("round-trips");
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
            // And through the stream reader.
            let mut r = &frame[..];
            assert_eq!(read_message(&mut r).expect("reads"), Some(msg));
        }
    }

    #[test]
    fn served_requests_and_ok_responses_fit_the_frame_reserve() {
        for family in crate::workload::Family::ALL {
            let Message::Request(r) = request() else { unreachable!() };
            let req = Message::Request(RequestMsg { family: family.id().into(), ..r });
            assert!(encode_frame(&req).len() <= FRAME_RESERVE, "{}", family.id());
        }
        assert!(encode_frame(&response()).len() <= FRAME_RESERVE);
    }

    #[test]
    fn inconsistent_shape_fields_are_bad_payload() {
        // n = 0 in an otherwise well-formed request.
        let zero_n = Message::Request(RequestMsg {
            id: 1,
            family: "chain".into(),
            n: 0,
            dtype: Dtype::F64,
            backend: "engine".into(),
            payload: 0,
            deadline_us: 0,
        });
        assert!(matches!(
            decode_frame(&encode_frame(&zero_n)),
            Err(FrameError::BadPayload { what }) if what.contains("n = 0")
        ));
        // Empty family and backend strings.
        let empty_family = Message::Request(RequestMsg {
            id: 1,
            family: String::new(),
            n: 8,
            dtype: Dtype::F64,
            backend: "engine".into(),
            payload: 0,
            deadline_us: 0,
        });
        assert!(matches!(
            decode_frame(&encode_frame(&empty_family)),
            Err(FrameError::BadPayload { what }) if what.contains("family")
        ));
        let empty_backend = Message::Request(RequestMsg {
            id: 1,
            family: "chain".into(),
            n: 8,
            dtype: Dtype::F64,
            backend: String::new(),
            payload: 0,
            deadline_us: 0,
        });
        assert!(matches!(
            decode_frame(&encode_frame(&empty_backend)),
            Err(FrameError::BadPayload { what }) if what.contains("backend")
        ));
        // A served response claiming occupancy 0.
        let zero_occ = Message::Response(ResponseMsg {
            id: 1,
            outcome: Outcome::Ok {
                queue_ns: 1,
                exec_ns: 1,
                occupancy: 0,
                flush: FlushKind::Drain,
                checksum: 0,
            },
        });
        assert!(matches!(
            decode_frame(&encode_frame(&zero_occ)),
            Err(FrameError::BadPayload { what }) if what.contains("occupancy")
        ));
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_truncated() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_message(&mut empty).unwrap(), None);
        let frame = encode_frame(&request());
        let mut cut = &frame[..frame.len() - 3];
        assert!(matches!(read_message(&mut cut), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut frame = encode_frame(&request());
        frame[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(FrameError::Oversized { len: MAX_FRAME_LEN + 1 }));
        let mut r = &frame[..];
        assert!(matches!(read_message(&mut r), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn unknown_version_and_tag_are_structured_errors() {
        // Every version byte but the current one, the retired 1 included.
        let mut frame = encode_frame(&request());
        for v in (0..=u8::MAX).filter(|&v| v != PROTO_VERSION) {
            frame[4] = v; // version byte
            assert_eq!(decode_frame(&frame), Err(FrameError::UnknownVersion(v)));
        }
        let mut frame = encode_frame(&Message::Shutdown);
        frame[5] = 250; // tag byte
        assert_eq!(decode_frame(&frame), Err(FrameError::UnknownMessage(250)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_frame(&Message::Shutdown);
        frame.push(0);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) + 1;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(FrameError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn checksum_is_bit_exact_and_shape_aware() {
        let a = Matrix::<f64>::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let b = a.clone();
        assert_eq!(
            result_checksum(std::slice::from_ref(&a)),
            result_checksum(std::slice::from_ref(&b))
        );
        // One ULP of drift changes the checksum.
        let mut c = a.clone();
        let v = c.get(0, 0);
        c.set(0, 0, f64::from_bits(v.to_bits() + 1));
        assert_ne!(result_checksum(std::slice::from_ref(&a)), result_checksum(&[c]));
        // Same data, different shape: distinct.
        let flat = Matrix::<f64>::from_fn(2, 3, |i, j| {
            let k = i * 3 + j;
            ((k / 2) * 2 + k % 2) as f64
        });
        assert_ne!(result_checksum(&[a]), result_checksum(&[flat]));
        // f32 checksums see exact bit patterns too (f32 → f64 is lossless),
        // so an f32 result hashes like the f64 result of equal values.
        let f = Matrix::<f32>::from_fn(2, 2, |i, j| (i + j) as f32 + 0.125);
        let wide = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64 + 0.125);
        assert_eq!(result_checksum(std::slice::from_ref(&f)), result_checksum(&[wide]));
        let mut g = f.clone();
        g.set(1, 1, f32::from_bits(g.get(1, 1).to_bits() + 1));
        assert_ne!(result_checksum(&[f]), result_checksum(&[g]));
    }

    #[test]
    fn checksum_sees_signs_nan_payloads_and_element_order() {
        // Two full rounds of the lanes plus a short last chunk.
        const L: usize = CHECKSUM_LANES;
        let base =
            Matrix::<f64>::from_fn(3, (2 * L + 5) / 3 + 1, |i, j| (i * 100 + j) as f64 + 0.5);
        let len = base.as_slice().len();
        assert!(len > 2 * L && !len.is_multiple_of(L));
        let sum = |m: &Matrix<f64>| result_checksum(std::slice::from_ref(m));
        let with = |edits: &[(usize, f64)]| {
            let mut m = base.clone();
            for &(at, v) in edits {
                m.as_mut_slice()[at] = v;
            }
            m
        };
        let at = |k: usize| base.as_slice()[k];

        // -0.0 and 0.0 compare equal as floats and differ in one bit.
        assert_ne!(sum(&with(&[(4, 0.0)])), sum(&with(&[(4, -0.0)])));
        // Negating every element of one lane must not cancel out.
        let negated: Vec<(usize, f64)> =
            [2, 2 + L, 2 + 2 * L].iter().map(|&k| (k, -at(k))).collect();
        assert_ne!(sum(&base), sum(&with(&negated)));
        // Two NaNs that differ only in payload.
        let (nan_a, nan_b) =
            (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0x7ff8_0000_0000_0002));
        assert!(nan_a.is_nan() && nan_b.is_nan());
        assert_ne!(sum(&with(&[(len - 1, nan_a)])), sum(&with(&[(len - 1, nan_b)])));
        // Swapping two elements: of one lane, of two lanes, and across
        // the boundary between the full rounds and the tail.
        for (a, b) in [(1, 1 + L), (1, 2), (2 * L - 1, 2 * L)] {
            assert_ne!(sum(&base), sum(&with(&[(a, at(b)), (b, at(a))])), "swap {a}<->{b}");
        }
        // Order across matrices counts too.
        let other = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        assert_ne!(
            result_checksum(&[base.clone(), other.clone()]),
            result_checksum(&[other, base.clone()])
        );
    }
}
