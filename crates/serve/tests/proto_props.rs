//! Property suite for the wire protocol: `decode_frame` must be total.
//!
//! Whatever bytes arrive — a faithful encoding, a truncation mid-frame,
//! a hostile length prefix, a future protocol version, or pure noise —
//! the decoder returns a structured [`FrameError`]; it never panics and
//! never trusts a length prefix enough to allocate unboundedly. And for
//! well-formed messages, decode is the exact inverse of encode — also
//! through a `BufReader` over a stream that splits bytes anywhere, the
//! way the server reads a connection.

use std::io::{BufReader, Read};

use laab_backend::Dtype;
use laab_serve::proto::{
    decode_frame, encode_frame, encode_frame_into, read_message, FrameError, Message, Outcome,
    RequestMsg, ResponseMsg, MAX_FRAME_LEN,
};
use laab_serve::FlushKind;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seeded ASCII string (the shim has no string strategy); includes
/// empty and multi-byte-ish lengths.
fn seeded_string(seed: u64, max_len: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| (b'!' + (rng.gen::<u64>() % 90) as u8) as char).collect()
}

/// Like [`seeded_string`] but never empty — the decoder rejects empty
/// family/backend names as `BadPayload` (a property of its own below).
fn seeded_name(seed: u64, max_len: usize) -> String {
    let mut s = seeded_string(seed, max_len - 1);
    s.push('x');
    s
}

fn seeded_request(seed: u64) -> Message {
    let mut rng = StdRng::seed_from_u64(seed);
    Message::Request(RequestMsg {
        id: rng.gen(),
        family: seeded_name(seed ^ 1, 24),
        n: rng.gen::<u64>().max(1),
        dtype: if rng.gen::<bool>() { Dtype::F64 } else { Dtype::F32 },
        backend: seeded_name(seed ^ 2, 24),
        payload: rng.gen(),
        deadline_us: rng.gen(),
    })
}

fn seeded_response(seed: u64) -> Message {
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = match rng.gen_range(0..5) {
        0 => Outcome::Ok {
            queue_ns: rng.gen(),
            exec_ns: rng.gen(),
            occupancy: rng.gen::<u32>().max(1),
            flush: [
                FlushKind::Occupancy,
                FlushKind::Deadline,
                FlushKind::Drain,
                FlushKind::Pressure,
            ][rng.gen_range(0..4)],
            checksum: rng.gen(),
        },
        1 => Outcome::Err { message: seeded_string(seed ^ 3, 120) },
        2 => Outcome::Busy { retry_after_us: rng.gen() },
        3 => Outcome::Expired { waited_us: rng.gen() },
        _ => Outcome::Failed { message: seeded_string(seed ^ 4, 120) },
    };
    Message::Response(ResponseMsg { id: rng.gen(), outcome })
}

/// `k` seeded frames of every kind, as the messages and as one byte
/// stream (built with `encode_frame_into`, so the stream is also the
/// appending encoder's output), with the offset where each frame ends.
fn seeded_burst(seed: u64, k: usize) -> (Vec<Message>, Vec<u8>, Vec<usize>) {
    let msgs: Vec<Message> = (0..k as u64)
        .map(|i| match (seed ^ i) % 4 {
            0 => seeded_request(seed ^ (i << 32)),
            1 => seeded_response(seed ^ (i << 32)),
            2 => Message::Shutdown,
            _ => Message::ShutdownAck,
        })
        .collect();
    let (mut bytes, mut ends) = (Vec::new(), Vec::new());
    for msg in &msgs {
        encode_frame_into(&mut bytes, msg);
        ends.push(bytes.len());
    }
    (msgs, bytes, ends)
}

/// A stream that returns its bytes in seeded chunks of 1 to 16 bytes,
/// the way a socket may split a pipelined burst.
struct Chunked {
    bytes: Vec<u8>,
    pos: usize,
    rng: StdRng,
}

impl Chunked {
    /// `bytes` behind a `BufReader`, as the server reads a connection.
    fn buffered(bytes: &[u8], seed: u64) -> BufReader<Chunked> {
        BufReader::new(Chunked { bytes: bytes.to_vec(), pos: 0, rng: StdRng::seed_from_u64(seed) })
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let k = self.rng.gen_range(1..17).min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..k].copy_from_slice(&self.bytes[self.pos..self.pos + k]);
        self.pos += k;
        Ok(k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `encode_frame` is `encode_frame_into` on an empty buffer, and
    /// appending leaves what the buffer already held untouched.
    #[test]
    fn encode_frame_into_appends_exactly_one_frame(seed in any::<u64>()) {
        let prefix = seeded_string(seed, 40).into_bytes();
        for msg in [seeded_request(seed), seeded_response(seed)] {
            let mut buf = prefix.clone();
            encode_frame_into(&mut buf, &msg);
            prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&buf[prefix.len()..], &encode_frame(&msg)[..]);
        }
    }

    /// A burst read through a `BufReader` over arbitrarily split reads
    /// (1-byte reads included) yields exactly its messages, in order,
    /// then a clean end of stream.
    #[test]
    fn buffered_reads_of_a_split_burst_yield_every_frame(seed in any::<u64>(), k in 1usize..8) {
        let (msgs, bytes, _) = seeded_burst(seed, k);
        let mut r = Chunked::buffered(&bytes, seed);
        for msg in &msgs {
            prop_assert_eq!(read_message(&mut r).expect("whole frame"), Some(msg.clone()));
        }
        prop_assert_eq!(read_message(&mut r), Ok(None));
    }

    /// A burst cut at any byte: the frames that ended before the cut come
    /// out, then a clean end of stream when the cut falls between frames
    /// and `Truncated` when it falls inside one.
    #[test]
    fn a_cut_burst_yields_its_whole_frames_then_truncated(seed in any::<u64>(), k in 1usize..5) {
        let (msgs, bytes, ends) = seeded_burst(seed, k);
        for cut in 0..=bytes.len() {
            let mut r = Chunked::buffered(&bytes[..cut], seed ^ cut as u64);
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            for msg in &msgs[..whole] {
                prop_assert_eq!(read_message(&mut r).expect("whole frame"), Some(msg.clone()));
            }
            match read_message(&mut r) {
                Ok(None) => prop_assert!(cut == 0 || ends.contains(&cut), "cut {cut}"),
                Err(FrameError::Truncated { .. }) => prop_assert!(!ends.contains(&cut), "cut {cut}"),
                other => prop_assert!(false, "cut {cut}/{}: {:?}", bytes.len(), other),
            }
        }
    }

    /// An oversized length prefix after `j` good frames: the `j` messages
    /// come out, then `Oversized`, before any allocation for it.
    #[test]
    fn an_oversized_prefix_mid_burst_stops_after_the_good_frames(
        seed in any::<u64>(),
        j in 0usize..6,
        extra in 1u32..1_000_000,
    ) {
        let (msgs, mut bytes, _) = seeded_burst(seed, j);
        let len = MAX_FRAME_LEN.saturating_add(extra);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut r = Chunked::buffered(&bytes, seed);
        for msg in &msgs {
            prop_assert_eq!(read_message(&mut r).expect("whole frame"), Some(msg.clone()));
        }
        prop_assert_eq!(read_message(&mut r), Err(FrameError::Oversized { len }));
    }

    /// A frame whose length prefix matches the bytes sent but whose body
    /// is cut short arrived whole: it is `BadPayload`, never `Truncated`
    /// (which means "the stream ended mid-frame", and would send a
    /// buffered decoder back to wait for bytes that are not coming).
    #[test]
    fn a_body_shorter_than_its_message_is_bad_payload_not_truncated(seed in any::<u64>()) {
        let short = Err(FrameError::BadPayload {
            what: "message body runs past the frame's length prefix",
        });
        for msg in [seeded_request(seed), seeded_response(seed), Message::Shutdown] {
            let whole = encode_frame(&msg);
            for body in 0..whole.len() - 4 {
                let mut frame = (body as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(&whole[4..4 + body]);
                prop_assert_eq!(decode_frame(&frame).map(|(m, _)| m), short.clone());
                prop_assert_eq!(read_message(&mut &frame[..]).map(|m| m.unwrap()), short.clone());
            }
        }
    }

    /// Round trip: decode(encode(m)) == m, consuming exactly the frame.
    #[test]
    fn encode_decode_round_trips(seed in any::<u64>()) {
        for msg in [
            seeded_request(seed),
            seeded_response(seed),
            Message::Shutdown,
            Message::ShutdownAck,
        ] {
            let bytes = encode_frame(&msg);
            let (decoded, used) = decode_frame(&bytes).expect("own encoding decodes");
            prop_assert_eq!(&decoded, &msg);
            prop_assert_eq!(used, bytes.len(), "a frame consumes exactly itself");
        }
    }

    /// Every strict prefix of a valid frame is `Truncated` — never a
    /// panic, never a bogus success.
    #[test]
    fn truncation_is_rejected_at_every_split_point(seed in any::<u64>()) {
        let bytes = encode_frame(&seeded_request(seed));
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated { .. }) => {}
                other => prop_assert!(
                    false,
                    "prefix of {cut}/{} bytes must be Truncated, got {:?}",
                    bytes.len(),
                    other
                ),
            }
        }
    }

    /// A hostile length prefix above `MAX_FRAME_LEN` is rejected before
    /// any allocation, regardless of what follows.
    #[test]
    fn oversized_length_prefixes_are_rejected(extra in 1u32..1_000_000) {
        let len = MAX_FRAME_LEN.saturating_add(extra);
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        prop_assert_eq!(decode_frame(&bytes), Err(FrameError::Oversized { len }));
        // The streaming reader hits the same wall.
        let mut cursor = &bytes[..];
        prop_assert_eq!(read_message(&mut cursor), Err(FrameError::Oversized { len }));
    }

    /// A frame stamped with any version byte but `PROTO_VERSION` (2) is
    /// `UnknownVersion`: a future revision, and the retired version 1
    /// (`bump` = 255), fail loudly instead of being misparsed.
    #[test]
    fn unknown_versions_are_rejected(seed in any::<u64>(), bump in 1u8..=255) {
        let mut bytes = encode_frame(&seeded_request(seed));
        let stamped = bytes[4].wrapping_add(bump);
        bytes[4] = stamped;
        prop_assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::UnknownVersion(stamped))
        );
    }

    /// Shape fields the length prefix cannot vouch for — a zero operand
    /// size, an empty family or backend name, a served response claiming
    /// occupancy zero — are `BadPayload`, caught at the frame boundary
    /// instead of deep in plan compilation.
    #[test]
    fn inconsistent_shape_fields_are_bad_payload(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = RequestMsg {
            id: rng.gen(),
            family: seeded_name(seed ^ 1, 24),
            n: rng.gen::<u64>().max(1),
            dtype: Dtype::F64,
            backend: seeded_name(seed ^ 2, 24),
            payload: rng.gen(),
            deadline_us: rng.gen(),
        };
        let cases = [
            RequestMsg { n: 0, ..base.clone() },
            RequestMsg { family: String::new(), ..base.clone() },
            RequestMsg { backend: String::new(), ..base },
        ];
        for msg in cases {
            let bytes = encode_frame(&Message::Request(msg));
            prop_assert!(matches!(
                decode_frame(&bytes),
                Err(FrameError::BadPayload { .. })
            ));
        }
        let resp = Message::Response(ResponseMsg {
            id: rng.gen(),
            outcome: Outcome::Ok {
                queue_ns: rng.gen(),
                exec_ns: rng.gen(),
                occupancy: 0,
                flush: FlushKind::Deadline,
                checksum: rng.gen(),
            },
        });
        prop_assert!(matches!(
            decode_frame(&encode_frame(&resp)),
            Err(FrameError::BadPayload { .. })
        ));
    }

    /// Total on noise: random bytes with a sane length prefix decode to
    /// *some* structured result without panicking.
    #[test]
    fn decoder_is_total_on_noise(seed in any::<u64>(), len in 0usize..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = (len as u32).to_le_bytes().to_vec();
        bytes.extend((0..len).map(|_| rng.gen::<u64>() as u8));
        let _ = decode_frame(&bytes); // must return, Ok or Err
        let mut cursor = &bytes[..];
        let _ = read_message(&mut cursor);
    }

    /// Flipping any single byte of a frame never panics the decoder, and
    /// on the fixed header bytes it yields a structured error (a flipped
    /// body byte may legitimately decode to a different valid message).
    #[test]
    fn single_byte_corruption_never_panics(seed in any::<u64>(), at in 0usize..64) {
        let mut bytes = encode_frame(&seeded_response(seed));
        let at = at % bytes.len();
        bytes[at] ^= 0x5A;
        let _ = decode_frame(&bytes);
    }
}
