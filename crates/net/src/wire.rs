//! The versioned wire format shared by every transport.
//!
//! Frames are length-prefixed and fixed-header:
//!
//! ```text
//! +------+---------+------+-------+-------------+----------------+
//! | 0xFB | version | kind | flags | len u32 LE  | payload (len)  |
//! +------+---------+------+-------+-------------+----------------+
//! ```
//!
//! The magic byte makes a desynchronized stream fail fast instead of
//! misparsing; the version byte lets a future format bump be rejected
//! explicitly ([`DecodeError::BadVersion`]) rather than silently
//! misinterpreted; `len` is bounded by [`MAX_PAYLOAD`] so a corrupt length
//! can never drive an allocation or an unbounded read. Every decode
//! failure is a value of [`DecodeError`] — transports surface it, they
//! never panic on remote bytes.
//!
//! The protocol itself needs only five message kinds: a `Hello` handshake
//! that binds a connection to a mesh rank, the dissemination `Signal`
//! (episode × round — the entire payload of the fuzzy barrier protocol),
//! `Poison` for fault propagation, `Nack` for receiver-driven
//! retransmission, and `Bye` for a graceful goodbye so peer *death* (a
//! closed connection with no `Bye`) is distinguishable from peer
//! *departure*.

use std::error::Error;
use std::fmt;

/// First byte of every frame.
pub const MAGIC: u8 = 0xFB;
/// Current wire-format version.
pub const VERSION: u8 = 0x01;
/// Fixed header size in bytes: magic, version, kind, flags, `len` (u32 LE).
pub const HEADER_LEN: usize = 8;
/// Upper bound on a frame payload. Every protocol payload is ≤ 16 bytes;
/// the slack leaves room for format growth while keeping a corrupt length
/// harmless.
pub const MAX_PAYLOAD: usize = 256;
/// The longest frame this version encodes: a header and the 12-byte
/// `Signal` / `Nack` payload. [`Message::encode_into`] writes into a
/// buffer of this size.
pub const MAX_ENCODED: usize = HEADER_LEN + 12;

/// A protocol message, the unit every [`crate::Transport`] sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Handshake: binds this connection to the sender's mesh rank and
    /// asserts the mesh size, so a misconfigured peer is rejected at
    /// connect time instead of corrupting the dissemination pattern.
    Hello {
        /// The sender's mesh rank.
        rank: u32,
        /// The mesh size the sender was configured with.
        nodes: u32,
    },
    /// Dissemination signal: the sender has reached `round` of `episode`.
    Signal {
        /// The barrier episode (0-based).
        episode: u64,
        /// The dissemination round within the episode.
        round: u32,
    },
    /// The sender's endpoint is poisoned; release waiters with an error.
    Poison {
        /// The episode in flight when the poison originated.
        episode: u64,
    },
    /// Receiver-driven retransmission request: the sender is still missing
    /// the `round` signal of `episode` from this connection's peer.
    Nack {
        /// The episode the sender is stalled on.
        episode: u64,
        /// The round whose signal is missing.
        round: u32,
    },
    /// Graceful goodbye: the sender is leaving and will close the
    /// connection; the close must not be treated as a peer death.
    Bye,
}

/// Frame kind bytes (one per [`Message`] variant).
mod kind {
    pub const HELLO: u8 = 1;
    pub const SIGNAL: u8 = 2;
    pub const POISON: u8 = 3;
    pub const NACK: u8 = 4;
    pub const BYE: u8 = 5;
}

impl Message {
    /// The frame kind byte for this message.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => kind::HELLO,
            Message::Signal { .. } => kind::SIGNAL,
            Message::Poison { .. } => kind::POISON,
            Message::Nack { .. } => kind::NACK,
            Message::Bye => kind::BYE,
        }
    }

    /// Encodes the message as one complete frame (header + payload).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = [0u8; MAX_ENCODED];
        let len = self.encode_into(&mut frame);
        frame[..len].to_vec()
    }

    /// Encodes the message as one complete frame into the front of `buf`
    /// and returns the frame's length: the allocation-free encoder that
    /// [`Message::encode`] wraps.
    pub fn encode_into(&self, buf: &mut [u8; MAX_ENCODED]) -> usize {
        let payload = &mut buf[HEADER_LEN..];
        let len = match *self {
            Message::Hello { rank, nodes } => {
                payload[..4].copy_from_slice(&rank.to_le_bytes());
                payload[4..8].copy_from_slice(&nodes.to_le_bytes());
                8
            }
            Message::Signal { episode, round } | Message::Nack { episode, round } => {
                payload[..8].copy_from_slice(&episode.to_le_bytes());
                payload[8..12].copy_from_slice(&round.to_le_bytes());
                12
            }
            Message::Poison { episode } => {
                payload[..8].copy_from_slice(&episode.to_le_bytes());
                8
            }
            Message::Bye => 0,
        };
        buf[0] = MAGIC;
        buf[1] = VERSION;
        buf[2] = self.kind();
        buf[3] = 0; // flags, reserved
        buf[4..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        HEADER_LEN + len
    }
}

/// Why a frame failed to decode. Remote bytes can be arbitrary; every
/// failure mode is a value, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The first byte was not [`MAGIC`] — the stream is desynchronized or
    /// the peer speaks a different protocol.
    BadMagic(u8),
    /// The version byte names a format this build does not understand.
    BadVersion(u8),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
    /// The buffer ended before the declared frame did.
    Truncated {
        /// Bytes the frame declared.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload length does not match the message kind's layout.
    BadPayload {
        /// The frame kind.
        kind: u8,
        /// The declared payload length.
        len: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::Oversized(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD} byte cap")
            }
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            DecodeError::BadPayload { kind, len } => {
                write!(f, "kind {kind} cannot have a {len} byte payload")
            }
        }
    }
}

impl Error for DecodeError {}

/// Validates a frame header and returns `(kind, payload_len)`.
///
/// Stream transports read exactly [`HEADER_LEN`] bytes, validate them
/// here, then read exactly `payload_len` more — a corrupt header can never
/// cause an unbounded read.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), DecodeError> {
    if header[0] != MAGIC {
        return Err(DecodeError::BadMagic(header[0]));
    }
    if header[1] != VERSION {
        return Err(DecodeError::BadVersion(header[1]));
    }
    let k = header[2];
    if !(kind::HELLO..=kind::BYE).contains(&k) {
        return Err(DecodeError::UnknownKind(k));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len));
    }
    Ok((k, len))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes a payload whose header already validated as `kind`.
pub fn decode_payload(kind_byte: u8, payload: &[u8]) -> Result<Message, DecodeError> {
    let bad = || DecodeError::BadPayload {
        kind: kind_byte,
        len: payload.len(),
    };
    match kind_byte {
        kind::HELLO => {
            if payload.len() != 8 {
                return Err(bad());
            }
            Ok(Message::Hello {
                rank: le_u32(&payload[0..4]),
                nodes: le_u32(&payload[4..8]),
            })
        }
        kind::SIGNAL | kind::NACK => {
            if payload.len() != 12 {
                return Err(bad());
            }
            let episode = le_u64(&payload[0..8]);
            let round = le_u32(&payload[8..12]);
            Ok(if kind_byte == kind::SIGNAL {
                Message::Signal { episode, round }
            } else {
                Message::Nack { episode, round }
            })
        }
        kind::POISON => {
            if payload.len() != 8 {
                return Err(bad());
            }
            Ok(Message::Poison {
                episode: le_u64(&payload[0..8]),
            })
        }
        kind::BYE => {
            if !payload.is_empty() {
                return Err(bad());
            }
            Ok(Message::Bye)
        }
        other => Err(DecodeError::UnknownKind(other)),
    }
}

/// Decodes one complete frame from the front of `buf`, returning the
/// message and the number of bytes consumed. Datagram-shaped callers (the
/// loopback transport, tests) use this; stream transports use
/// [`decode_header`] + [`decode_payload`] so they can size the second read.
pub fn decode(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (k, len) = decode_header(&header)?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(DecodeError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let msg = decode_payload(k, &buf[HEADER_LEN..total])?;
    Ok((msg, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Message; 5] = [
        Message::Hello { rank: 3, nodes: 8 },
        Message::Signal {
            episode: 71,
            round: 2,
        },
        Message::Poison { episode: 9 },
        Message::Nack {
            episode: 1,
            round: 0,
        },
        Message::Bye,
    ];

    #[test]
    fn every_message_roundtrips() {
        for msg in ALL {
            let bytes = msg.encode();
            let (decoded, used) = decode(&bytes).expect("roundtrip");
            assert_eq!(decoded, msg);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn encode_into_writes_the_golden_frames() {
        // At 0 and at the maximum every payload byte is 0x00 or 0xFF, so a
        // golden frame is its header followed by `len` copies of `fill`.
        for (word, wide, fill) in [(0u32, 0u64, 0x00u8), (u32::MAX, u64::MAX, 0xFF)] {
            let cases = [
                (
                    Message::Hello {
                        rank: word,
                        nodes: word,
                    },
                    1,
                    8,
                ),
                (
                    Message::Signal {
                        episode: wide,
                        round: word,
                    },
                    2,
                    12,
                ),
                (Message::Poison { episode: wide }, 3, 8),
                (
                    Message::Nack {
                        episode: wide,
                        round: word,
                    },
                    4,
                    12,
                ),
                (Message::Bye, 5, 0),
            ];
            for (msg, kind, len) in cases {
                let mut golden = vec![MAGIC, VERSION, kind, 0, len, 0, 0, 0];
                golden.resize(HEADER_LEN + usize::from(len), fill);
                // A dirty buffer: every byte of the frame must be written.
                let mut buf = [0xAA; MAX_ENCODED];
                let used = msg.encode_into(&mut buf);
                assert_eq!(&buf[..used], &golden[..], "{msg:?}");
                assert_eq!(msg.encode(), golden, "{msg:?}");
                assert_eq!(decode(&buf[..used]), Ok((msg, used)), "{msg:?}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut bytes = Message::Bye.encode();
        let bye_len = bytes.len();
        bytes.extend_from_slice(&Message::Poison { episode: 4 }.encode());
        let (first, used) = decode(&bytes).unwrap();
        assert_eq!(first, Message::Bye);
        assert_eq!(used, bye_len);
        let (second, _) = decode(&bytes[used..]).unwrap();
        assert_eq!(second, Message::Poison { episode: 4 });
    }

    #[test]
    fn header_failures_are_explicit() {
        let good = Message::Bye.encode();
        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert_eq!(decode(&bad_magic), Err(DecodeError::BadMagic(0x00)));

        let mut bad_version = good.clone();
        bad_version[1] = 9;
        assert_eq!(decode(&bad_version), Err(DecodeError::BadVersion(9)));

        let mut bad_kind = good.clone();
        bad_kind[2] = 200;
        assert_eq!(decode(&bad_kind), Err(DecodeError::UnknownKind(200)));

        let mut oversized = good.clone();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&oversized),
            Err(DecodeError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn truncation_reports_the_shortfall() {
        let bytes = Message::Signal {
            episode: 5,
            round: 1,
        }
        .encode();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(DecodeError::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn payload_length_mismatch_is_bad_payload() {
        // A Signal header with a Poison-sized (8 byte) payload.
        let mut frame = vec![MAGIC, VERSION, 2, 0];
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode(&frame),
            Err(DecodeError::BadPayload { kind: 2, len: 8 })
        );
    }
}
