//! Wire codec for the resident `aero serve` ingest endpoint.
//!
//! Length-delimited, checksummed binary framing, symmetric in both
//! directions (DESIGN.md §15):
//!
//! ```text
//! [magic: b"AWP1"] [len: u32 LE] [crc: u64 LE = FNV-1a(payload)] [payload: len bytes]
//! payload = tag: u8 | tag-specific fields, all little-endian
//! ```
//!
//! Float fields travel as raw IEEE bits, so an encode→decode round trip is
//! bitwise — the same contract the WAL relies on, pinned here by the
//! `wire_codec` proptest suite. The decoder is **incremental and bounded**:
//! bytes are fed in as they arrive, a message is surfaced once complete, and
//! a corrupted length prefix can never provoke an oversized allocation
//! (the length is validated against [`Decoder::max_payload`] before any
//! buffer grows past it). Every malformed input maps to a typed
//! [`WireError`]; none panic.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::overload::RejectReason;
use crate::persist::Fnv64;

/// Magic bytes opening every wire message.
pub const WIRE_MAGIC: [u8; 4] = *b"AWP1";

/// Fixed header: magic + payload length + payload checksum.
pub const WIRE_HEADER_LEN: usize = 4 + 4 + 8;

/// Protocol version carried in `Hello` / `HelloAck`.
pub const WIRE_PROTOCOL: u16 = 1;

/// Default upper bound on one message's payload (1 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// Typed decode failure. Everything here poisons only the *connection*
/// (the server drops it); the detector behind the codec never sees a byte
/// of a malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds the decoder's payload bound.
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The decoder's bound.
        max: usize,
    },
    /// The stream is not positioned at a message boundary.
    BadMagic([u8; 4]),
    /// Payload bytes do not match the header checksum (torn or corrupted).
    BadChecksum {
        /// Checksum from the header.
        expected: u64,
        /// Checksum of the received payload.
        found: u64,
    },
    /// Unknown message tag.
    UnknownTag(u8),
    /// The payload is shorter than its tag requires, or a field is invalid.
    BadPayload(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte bound")
            }
            Self::BadMagic(bytes) => write!(f, "bad magic {bytes:02x?}"),
            Self::BadChecksum { expected, found } => {
                write!(f, "checksum mismatch: header {expected:#018x}, payload {found:#018x}")
            }
            Self::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            Self::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One star frame inside an [`WireMsg::Ingest`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// Frame timestamp (bits preserved, NaN included).
    pub timestamp: f64,
    /// Per-star values (bits preserved).
    pub values: Vec<f32>,
}

/// Every message either side of the wire can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client handshake: who is offering, speaking which protocol.
    Hello {
        /// Wire tenant id (0..=[`crate::overload::MAX_TENANT_ID`]).
        tenant: u32,
        /// Client protocol version.
        protocol: u16,
    },
    /// A batch of star frames offered for admission.
    Ingest {
        /// Client-assigned batch sequence number (echoed in the response).
        seq: u64,
        /// The frames, oldest first.
        frames: Vec<WireFrame>,
    },
    /// Request the JSON status document.
    Status,
    /// Ask the service to drain gracefully (admin).
    Drain,
    /// Orderly goodbye; the server closes after acknowledging.
    Bye,
    /// Server handshake reply: protocol + expected frame width.
    HelloAck {
        /// Server protocol version.
        protocol: u16,
        /// Stars per frame the detector expects.
        stars: u32,
    },
    /// Whole batch admitted.
    Ack {
        /// Echo of the batch sequence.
        seq: u64,
        /// Frames admitted (the whole batch).
        admitted: u16,
        /// Queue depth after the batch.
        depth: u32,
    },
    /// Batch partially or fully rejected; `reason` is the first rejection's.
    Reject {
        /// Echo of the batch sequence.
        seq: u64,
        /// Why the first rejected frame was turned away.
        reason: RejectReason,
        /// Frames admitted before/between rejections.
        admitted: u16,
        /// Frames rejected.
        rejected: u16,
    },
    /// Status response: a JSON document (see `ServeCore::status_json`).
    StatusJson(
        /// The JSON document.
        String,
    ),
    /// Drain complete: the final summary JSON document.
    DrainAck(
        /// The JSON document.
        String,
    ),
    /// Fatal protocol-level error; the server closes the connection after
    /// sending this.
    Error {
        /// Machine-readable code (1 = decode, 2 = frame width, 3 = version,
        /// 4 = state).
        code: u8,
        /// Human-readable description.
        message: String,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_INGEST: u8 = 0x02;
const TAG_STATUS: u8 = 0x03;
const TAG_DRAIN: u8 = 0x04;
const TAG_BYE: u8 = 0x05;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_ACK: u8 = 0x82;
const TAG_REJECT: u8 = 0x83;
const TAG_STATUS_JSON: u8 = 0x84;
const TAG_DRAIN_ACK: u8 = 0x85;
const TAG_ERROR: u8 = 0x86;

fn reason_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::Backpressure => 1,
        RejectReason::QuotaExceeded => 2,
        RejectReason::Draining => 3,
    }
}

fn reason_from(code: u8) -> Result<RejectReason, WireError> {
    match code {
        1 => Ok(RejectReason::Backpressure),
        2 => Ok(RejectReason::QuotaExceeded),
        3 => Ok(RejectReason::Draining),
        other => Err(WireError::BadPayload(format!("unknown reject reason {other}"))),
    }
}

/// FNV-1a-64 over a payload — the checksum carried in the wire header.
/// Public so fault injectors (`aero loadgen`) can build frames that are
/// valid right up to a deliberately corrupted byte.
pub fn wire_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(payload);
    h.finish()
}

/// Encodes one message as a complete wire frame (header + payload).
pub fn encode(msg: &WireMsg) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    match msg {
        WireMsg::Hello { tenant, protocol } => {
            p.push(TAG_HELLO);
            p.extend_from_slice(&tenant.to_le_bytes());
            p.extend_from_slice(&protocol.to_le_bytes());
        }
        WireMsg::Ingest { seq, frames } => {
            p.push(TAG_INGEST);
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&(frames.len() as u16).to_le_bytes());
            for frame in frames {
                p.extend_from_slice(&frame.timestamp.to_bits().to_le_bytes());
                p.extend_from_slice(&(frame.values.len() as u32).to_le_bytes());
                for &v in &frame.values {
                    p.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
        WireMsg::Status => p.push(TAG_STATUS),
        WireMsg::Drain => p.push(TAG_DRAIN),
        WireMsg::Bye => p.push(TAG_BYE),
        WireMsg::HelloAck { protocol, stars } => {
            p.push(TAG_HELLO_ACK);
            p.extend_from_slice(&protocol.to_le_bytes());
            p.extend_from_slice(&stars.to_le_bytes());
        }
        WireMsg::Ack { seq, admitted, depth } => {
            p.push(TAG_ACK);
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&admitted.to_le_bytes());
            p.extend_from_slice(&depth.to_le_bytes());
        }
        WireMsg::Reject { seq, reason, admitted, rejected } => {
            p.push(TAG_REJECT);
            p.extend_from_slice(&seq.to_le_bytes());
            p.push(reason_code(*reason));
            p.extend_from_slice(&admitted.to_le_bytes());
            p.extend_from_slice(&rejected.to_le_bytes());
        }
        WireMsg::StatusJson(json) => {
            p.push(TAG_STATUS_JSON);
            p.extend_from_slice(json.as_bytes());
        }
        WireMsg::DrainAck(json) => {
            p.push(TAG_DRAIN_ACK);
            p.extend_from_slice(json.as_bytes());
        }
        WireMsg::Error { code, message } => {
            p.push(TAG_ERROR);
            p.push(*code);
            p.extend_from_slice(message.as_bytes());
        }
    }
    let mut out = Vec::with_capacity(WIRE_HEADER_LEN + p.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&(p.len() as u32).to_le_bytes());
    out.extend_from_slice(&wire_checksum(&p).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// Cursor-based little-endian field reader over one payload.
struct Fields<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Fields<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| WireError::BadPayload("payload truncated".into()))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap_or([0; 2])))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap_or([0; 4])))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap_or([0; 8])))
    }

    fn rest_utf8(&mut self) -> Result<String, WireError> {
        let bytes = &self.bytes[self.at..];
        self.at = self.bytes.len();
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::BadPayload("invalid UTF-8".into()))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload(format!(
                "{} trailing bytes after message",
                self.bytes.len() - self.at
            )))
        }
    }
}

/// Decodes one payload (header already validated).
fn decode_payload(payload: &[u8]) -> Result<WireMsg, WireError> {
    let mut f = Fields::new(payload);
    let tag = f.u8()?;
    let msg = match tag {
        TAG_HELLO => WireMsg::Hello { tenant: f.u32()?, protocol: f.u16()? },
        TAG_INGEST => {
            let seq = f.u64()?;
            let nframes = f.u16()? as usize;
            let mut frames = Vec::with_capacity(nframes.min(1024));
            for _ in 0..nframes {
                let timestamp = f64::from_bits(f.u64()?);
                let n = f.u32()? as usize;
                // The payload length already bounds n (4 bytes per value
                // must fit in what remains) — check before allocating.
                if n > (payload.len() - f.at) / 4 {
                    return Err(WireError::BadPayload(format!(
                        "frame claims {n} values but only {} bytes remain",
                        payload.len() - f.at
                    )));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(f32::from_bits(f.u32()?));
                }
                frames.push(WireFrame { timestamp, values });
            }
            WireMsg::Ingest { seq, frames }
        }
        TAG_STATUS => WireMsg::Status,
        TAG_DRAIN => WireMsg::Drain,
        TAG_BYE => WireMsg::Bye,
        TAG_HELLO_ACK => WireMsg::HelloAck { protocol: f.u16()?, stars: f.u32()? },
        TAG_ACK => WireMsg::Ack { seq: f.u64()?, admitted: f.u16()?, depth: f.u32()? },
        TAG_REJECT => WireMsg::Reject {
            seq: f.u64()?,
            reason: reason_from(f.u8()?)?,
            admitted: f.u16()?,
            rejected: f.u16()?,
        },
        TAG_STATUS_JSON => WireMsg::StatusJson(f.rest_utf8()?),
        TAG_DRAIN_ACK => WireMsg::DrainAck(f.rest_utf8()?),
        TAG_ERROR => WireMsg::Error { code: f.u8()?, message: f.rest_utf8()? },
        other => return Err(WireError::UnknownTag(other)),
    };
    f.done()?;
    Ok(msg)
}

/// Incremental, bounded wire decoder. Feed arriving bytes with
/// [`extend`](Self::extend), then pull complete messages with
/// [`next`](Self::next) until it returns `Ok(None)`. Once any call returns
/// an error the connection is poisoned — the caller must drop it (resyncing
/// inside a corrupted byte stream cannot be trusted).
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes already consumed from the front of `buf` (compacted lazily).
    head: usize,
    max_payload: usize,
}

impl Decoder {
    /// A decoder accepting payloads up to `max_payload` bytes.
    pub fn new(max_payload: usize) -> Self {
        Self { buf: Vec::new(), head: 0, max_payload }
    }

    /// The payload bound.
    pub fn max_payload(&self) -> usize {
        self.max_payload
    }

    /// Bytes currently buffered (bounded by one message + one read chunk).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.head > 0 && self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > self.max_payload {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete message, if one is buffered. The length
    /// prefix is validated against the payload bound *before* the decoder
    /// waits for (or buffers) the claimed bytes, so a corrupted length can
    /// never force an unbounded allocation.
    ///
    /// Not an `Iterator`: the fallible `Result<Option<_>>` shape is the
    /// point — callers must distinguish "need more bytes" from "poisoned
    /// stream".
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireMsg>, WireError> {
        let pending = &self.buf[self.head..];
        if pending.len() < WIRE_HEADER_LEN {
            return Ok(None);
        }
        let magic: [u8; 4] = pending[..4].try_into().unwrap_or([0; 4]);
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let len = u32::from_le_bytes(pending[4..8].try_into().unwrap_or([0; 4]));
        if len as usize > self.max_payload {
            return Err(WireError::Oversized { len, max: self.max_payload });
        }
        let expected = u64::from_le_bytes(pending[8..16].try_into().unwrap_or([0; 8]));
        let total = WIRE_HEADER_LEN + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = &pending[WIRE_HEADER_LEN..total];
        let found = wire_checksum(payload);
        if found != expected {
            return Err(WireError::BadChecksum { expected, found });
        }
        let msg = decode_payload(payload)?;
        self.head += total;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMsg) {
        let bytes = encode(&msg);
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&bytes);
        assert_eq!(dec.next().unwrap(), Some(msg));
        assert_eq!(dec.next().unwrap(), None);
    }

    #[test]
    fn every_message_kind_round_trips() {
        roundtrip(WireMsg::Hello { tenant: 17, protocol: WIRE_PROTOCOL });
        roundtrip(WireMsg::Ingest {
            seq: 9,
            frames: vec![
                WireFrame { timestamp: 100.5, values: vec![1.0, -2.5, 3.25] },
                WireFrame { timestamp: 101.5, values: vec![0.0, f32::MIN_POSITIVE, -0.0] },
            ],
        });
        roundtrip(WireMsg::Status);
        roundtrip(WireMsg::Drain);
        roundtrip(WireMsg::Bye);
        roundtrip(WireMsg::HelloAck { protocol: WIRE_PROTOCOL, stars: 8 });
        roundtrip(WireMsg::Ack { seq: 3, admitted: 4, depth: 12 });
        roundtrip(WireMsg::Reject {
            seq: 4,
            reason: RejectReason::QuotaExceeded,
            admitted: 1,
            rejected: 3,
        });
        roundtrip(WireMsg::StatusJson("{\"ok\":true}".into()));
        roundtrip(WireMsg::DrainAck("{}".into()));
        roundtrip(WireMsg::Error { code: 1, message: "bad magic".into() });
    }

    #[test]
    fn nan_timestamps_survive_bitwise() {
        let msg = WireMsg::Ingest {
            seq: 0,
            frames: vec![WireFrame {
                timestamp: f64::from_bits(0x7ff8_0000_dead_beef),
                values: vec![f32::from_bits(0x7fc0_1234)],
            }],
        };
        let bytes = encode(&msg);
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&bytes);
        let Some(WireMsg::Ingest { frames, .. }) = dec.next().unwrap() else {
            panic!("expected ingest");
        };
        assert_eq!(frames[0].timestamp.to_bits(), 0x7ff8_0000_dead_beef);
        assert_eq!(frames[0].values[0].to_bits(), 0x7fc0_1234);
    }

    #[test]
    fn split_delivery_reassembles() {
        let bytes = encode(&WireMsg::Ack { seq: 77, admitted: 2, depth: 5 });
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        for chunk in bytes.chunks(3) {
            dec.extend(chunk);
        }
        assert_eq!(dec.next().unwrap(), Some(WireMsg::Ack { seq: 77, admitted: 2, depth: 5 }));
    }

    #[test]
    fn pipelined_messages_decode_in_order() {
        let mut stream = encode(&WireMsg::Status);
        stream.extend_from_slice(&encode(&WireMsg::Bye));
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&stream);
        assert_eq!(dec.next().unwrap(), Some(WireMsg::Status));
        assert_eq!(dec.next().unwrap(), Some(WireMsg::Bye));
        assert_eq!(dec.next().unwrap(), None);
    }

    #[test]
    fn garbage_magic_is_typed_not_panic() {
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(b"GARBAGEGARBAGEGARBAGE");
        assert!(matches!(dec.next(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut dec = Decoder::new(1024);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        dec.extend(&bytes);
        assert_eq!(dec.next(), Err(WireError::Oversized { len: u32::MAX, max: 1024 }));
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let mut bytes = encode(&WireMsg::Hello { tenant: 3, protocol: 1 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&bytes);
        assert!(matches!(dec.next(), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn truncated_frame_waits_instead_of_erroring() {
        let bytes = encode(&WireMsg::Status);
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&bytes[..bytes.len() - 1]);
        assert_eq!(dec.next().unwrap(), None, "incomplete: need more bytes");
        dec.extend(&bytes[bytes.len() - 1..]);
        assert_eq!(dec.next().unwrap(), Some(WireMsg::Status));
    }

    #[test]
    fn ingest_value_count_cannot_overallocate() {
        // Hand-craft an ingest whose frame claims far more values than the
        // payload holds: must be a typed error, not an allocation.
        let mut p = vec![TAG_INGEST];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&1u16.to_le_bytes());
        p.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // claimed value count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&wire_checksum(&p).to_le_bytes());
        bytes.extend_from_slice(&p);
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&bytes);
        assert!(matches!(dec.next(), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn trailing_bytes_after_message_are_rejected() {
        let mut p = vec![TAG_STATUS, 0xAA];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&wire_checksum(&p).to_le_bytes());
        bytes.append(&mut p);
        let mut dec = Decoder::new(DEFAULT_MAX_PAYLOAD);
        dec.extend(&bytes);
        assert!(matches!(dec.next(), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::Oversized { len: 9, max: 4 }.to_string().contains("9"));
        assert!(WireError::UnknownTag(0x7f).to_string().contains("0x7f"));
        assert!(WireError::BadMagic(*b"HTTP").to_string().contains("magic"));
    }
}
