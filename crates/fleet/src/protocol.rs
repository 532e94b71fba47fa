//! The fleet wire protocol: versioned, length-prefixed, checksummed
//! frames over TCP.
//!
//! The encoding is hand-rolled and serde-free, consistent with the
//! cell-store's flat-text records: fixed-width little-endian integers,
//! length-prefixed UTF-8 strings, and a trailing FNV-1a 64 checksum over
//! everything after the magic (version, kind, payload length, payload).
//! A frame on the wire looks like:
//!
//! ```text
//! magic  u32  0x53464C54 ("SFLT")
//! ver    u16  PROTO_VERSION
//! kind   u8   frame discriminant
//! len    u32  payload byte count (capped at MAX_PAYLOAD)
//! payload     len bytes
//! check  u64  fnv1a64(ver ‖ kind ‖ len ‖ payload)
//! ```
//!
//! Every decode error is a value, never a panic: a truncated stream, a
//! flipped bit, an oversized length, or an unknown discriminant yields a
//! [`ProtoError`] the caller maps to "drop this connection" (coordinator)
//! or "reconnect with backoff" (worker). The property tests round-trip
//! randomized frames and mutilate them byte-by-byte to pin this down.
//!
//! Work assignment rides on *manifest indices*, not serialized cell keys:
//! coordinator and workers independently derive the same
//! [`work_manifest`](strata_expt::work_manifest) from the (filter,
//! params) announced in [`Frame::Welcome`], verify agreement via the
//! manifest fingerprint, and then name cells by index — with the full key
//! string echoed alongside as a belt-and-braces check.

use std::io::{Read, Write};

use strata_expt::fnv1a64;

/// Protocol version; bump on any frame-layout or semantics change.
pub const PROTO_VERSION: u16 = 1;

/// Frame magic: `"SFLT"` little-endian.
pub const MAGIC: u32 = 0x544C_4653;

/// Upper bound on payload size — far above any real record (the largest
/// cell records are a few KiB) but small enough that a corrupt length
/// field cannot OOM the peer.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Coordinator → worker, on connect: the suite selection this fleet
    /// run executes. The worker rebuilds the manifest locally and must
    /// arrive at `manifest_len` cells with this `fingerprint`, or refuse.
    Welcome {
        /// Comma-separated experiment filter (empty = full suite).
        filter: String,
        /// Workload scale factor.
        scale: u32,
        /// Workload variant selector.
        variant: u64,
        /// Number of cells in the canonical manifest.
        manifest_len: u32,
        /// [`strata_expt::RunContext::fingerprint`] of the manifest.
        fingerprint: u64,
    },
    /// Worker → coordinator: manifest verified, ready for work.
    Register {
        /// Display name for progress reporting (e.g. host or pid).
        worker: String,
    },
    /// Worker → coordinator: give me a cell.
    Fetch,
    /// Coordinator → worker: execute manifest cell `index`.
    Assign {
        /// Manifest index of the leased cell.
        index: u32,
        /// Full key string, echoed for end-to-end verification.
        key: String,
    },
    /// Coordinator → worker: nothing to hand out right now (all
    /// remaining cells are leased elsewhere); poll again after `millis`.
    Wait {
        /// Suggested back-off before the next `Fetch`.
        millis: u32,
    },
    /// Coordinator → worker: every cell is done; disconnect.
    Finished,
    /// Worker → coordinator: the serialized result of an assigned cell,
    /// in the cell-store's flat-text record format.
    Result {
        /// Manifest index the result answers.
        index: u32,
        /// Full key string of the cell.
        key: String,
        /// [`strata_expt::render_record`] serialization of the result.
        record: String,
    },
    /// Worker → coordinator heartbeat: refreshes the sender's leases so
    /// a long-running cell is not reassigned under a live worker.
    Ping,
}

/// Why a frame failed to decode or a stream failed to deliver one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Underlying transport error (includes EOF mid-frame).
    Io(String),
    /// First four bytes were not [`MAGIC`].
    BadMagic(u32),
    /// Peer speaks a different [`PROTO_VERSION`].
    BadVersion(u16),
    /// Unknown frame discriminant.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Buffer ended before the declared frame did.
    Truncated,
    /// Checksum mismatch — the frame was corrupted in flight.
    BadChecksum,
    /// Payload structure invalid (bad UTF-8, short fields, trailing
    /// bytes).
    BadPayload,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (this side speaks {PROTO_VERSION})")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadChecksum => write!(f, "frame checksum mismatch"),
            ProtoError::BadPayload => write!(f, "malformed frame payload"),
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e.to_string())
    }
}

// --- encoding ----------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Welcome { .. } => 1,
            Frame::Register { .. } => 2,
            Frame::Fetch => 3,
            Frame::Assign { .. } => 4,
            Frame::Wait { .. } => 5,
            Frame::Finished => 6,
            Frame::Result { .. } => 7,
            Frame::Ping => 8,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Welcome {
                filter,
                scale,
                variant,
                manifest_len,
                fingerprint,
            } => {
                put_str(&mut p, filter);
                put_u32(&mut p, *scale);
                put_u64(&mut p, *variant);
                put_u32(&mut p, *manifest_len);
                put_u64(&mut p, *fingerprint);
            }
            Frame::Register { worker } => put_str(&mut p, worker),
            Frame::Fetch | Frame::Finished | Frame::Ping => {}
            Frame::Assign { index, key } => {
                put_u32(&mut p, *index);
                put_str(&mut p, key);
            }
            Frame::Wait { millis } => put_u32(&mut p, *millis),
            Frame::Result { index, key, record } => {
                put_u32(&mut p, *index);
                put_str(&mut p, key);
                put_str(&mut p, record);
            }
        }
        p
    }

    /// Serializes the frame, checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = Vec::with_capacity(23 + payload.len());
        put_u32(&mut out, MAGIC);
        put_u16(&mut out, PROTO_VERSION);
        out.push(self.kind());
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(&payload);
        // The checksum covers everything after the magic, so any
        // single-bit corruption of version, kind, length, or payload is
        // caught (corrupting the magic itself fails the magic check).
        let check = fnv1a64(&out[4..]);
        put_u64(&mut out, check);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Structural errors are reported in validation order: magic, then
    /// version, then length bound, then truncation, then checksum, then
    /// kind/payload shape — so a corrupted stream fails loudly and
    /// specifically rather than panicking or misparsing.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
        let mut c = Cursor { buf, at: 0 };
        let magic = c.u32()?;
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let kind = c.u8()?;
        let len = c.u32()?;
        if len > MAX_PAYLOAD {
            return Err(ProtoError::Oversized(len));
        }
        let payload_at = c.at;
        let payload = c.bytes(len as usize)?;
        let check = c.u64()?;
        if fnv1a64(&buf[4..payload_at + len as usize]) != check {
            return Err(ProtoError::BadChecksum);
        }
        let frame = parse_payload(kind, payload)?;
        Ok((frame, c.at))
    }

    /// Writes the frame to `w` as one `write_all`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }

    /// Reads exactly one frame from `r` (blocking).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Io`] on EOF or transport failure, otherwise the
    /// decode error for the malformed frame.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, ProtoError> {
        // magic(4) + version(2) + kind(1) + len(4)
        let mut head = [0u8; 11];
        r.read_exact(&mut head)?;
        let magic = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(head[4..6].try_into().expect("2 bytes"));
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let kind = head[6];
        let len = u32::from_le_bytes(head[7..11].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(ProtoError::Oversized(len));
        }
        let mut rest = vec![0u8; len as usize + 8];
        r.read_exact(&mut rest)?;
        let (payload, check_bytes) = rest.split_at(len as usize);
        let check = u64::from_le_bytes(check_bytes.try_into().expect("8 bytes"));
        let mut summed = head[4..].to_vec();
        summed.extend_from_slice(payload);
        if fnv1a64(&summed) != check {
            return Err(ProtoError::BadChecksum);
        }
        parse_payload(kind, payload)
    }
}

fn parse_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let frame = match kind {
        1 => Frame::Welcome {
            filter: c.string()?,
            scale: c.u32()?,
            variant: c.u64()?,
            manifest_len: c.u32()?,
            fingerprint: c.u64()?,
        },
        2 => Frame::Register {
            worker: c.string()?,
        },
        3 => Frame::Fetch,
        4 => Frame::Assign {
            index: c.u32()?,
            key: c.string()?,
        },
        5 => Frame::Wait { millis: c.u32()? },
        6 => Frame::Finished,
        7 => Frame::Result {
            index: c.u32()?,
            key: c.string()?,
            record: c.string()?,
        },
        8 => Frame::Ping,
        other => return Err(ProtoError::UnknownKind(other)),
    };
    if c.at != payload.len() {
        // Trailing bytes mean the peer serialized something this side
        // does not understand; refusing beats silently ignoring.
        return Err(ProtoError::BadPayload);
    }
    Ok(frame)
}

/// Bounds-checked little-endian reader over a byte slice. Payload-level
/// underruns are [`ProtoError::BadPayload`] (the checksum already passed,
/// so the frame is structurally wrong, not cut short in flight);
/// header-level underruns in [`Frame::decode`] surface as
/// [`ProtoError::Truncated`] via the `bytes`/fixed readers before any
/// payload parsing happens.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len).map_err(|_| ProtoError::BadPayload)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadPayload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Welcome {
                filter: "fig2,fig18".into(),
                scale: 2,
                variant: 7,
                manifest_len: 128,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            },
            Frame::Register {
                worker: "worker-1".into(),
            },
            Frame::Fetch,
            Frame::Assign {
                index: 17,
                key: "gzip|sdt:sieve(4096)|x86-like|s1v0".into(),
            },
            Frame::Wait { millis: 200 },
            Frame::Finished,
            Frame::Result {
                index: 17,
                key: "gzip|sdt:sieve(4096)|x86-like|s1v0".into(),
                record: "strata-cell-v2\nkey=gzip|...\nkind=native\n".into(),
            },
            Frame::Ping,
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for frame in samples() {
            let bytes = frame.encode();
            let (back, used) = Frame::decode(&bytes).expect("decodes");
            assert_eq!(back, frame);
            assert_eq!(used, bytes.len());
            // Stream reader agrees with the buffer decoder.
            let from_stream = Frame::read_from(&mut &bytes[..]).expect("reads");
            assert_eq!(from_stream, frame);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Frame::decode(&[]).unwrap_err(), ProtoError::Truncated);
        assert_eq!(
            Frame::decode(&[0xFF; 32]).unwrap_err(),
            ProtoError::BadMagic(0xFFFF_FFFF)
        );
        let mut bytes = Frame::Ping.encode();
        bytes[4] ^= 0x40; // version
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            ProtoError::BadVersion(_)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Frame::Ping.encode();
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            ProtoError::Oversized(u32::MAX)
        );
        assert_eq!(
            Frame::read_from(&mut &bytes[..]).unwrap_err(),
            ProtoError::Oversized(u32::MAX)
        );
    }
}
