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
//! Every decode error is a value, never a panic. [`Frame::decode`] is the
//! one decoder, and [`Frame::next`] feeds it a connection's bytes as they
//! arrive: [`ProtoError::Truncated`] means "wait for more bytes"; any
//! other error — a flipped bit, an oversized length, an unknown
//! discriminant — is what the caller maps to "drop this connection"
//! (coordinator) or "reconnect with backoff" (worker). The property tests
//! stream randomized frames in random chunks and mutilate them
//! bit-by-bit to pin this down.
//!
//! Work assignment rides on *manifest indices*, not serialized cell keys:
//! coordinator and workers independently derive the same
//! [`work_manifest`](strata_expt::work_manifest) from the (filter,
//! params) announced in [`Frame::Welcome`], verify agreement via the
//! manifest fingerprint, and then name cells by index — with the full key
//! string echoed alongside as a belt-and-braces check.

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

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// First four bytes were not [`MAGIC`].
    BadMagic(u32),
    /// Peer speaks a different [`PROTO_VERSION`].
    BadVersion(u16),
    /// Unknown frame discriminant.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Buffer ended before the declared frame did: the rest has not
    /// arrived yet.
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
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (this side speaks {PROTO_VERSION})")
            }
            other => write!(f, "malformed frame: {other:?}"),
        }
    }
}

// --- encoding ----------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend((s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl Frame {
    /// The frame's discriminant and payload.
    fn payload(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let kind = match self {
            Frame::Welcome {
                filter,
                scale,
                variant,
                manifest_len,
                fingerprint,
            } => {
                put_str(&mut p, filter);
                p.extend(scale.to_le_bytes());
                p.extend(variant.to_le_bytes());
                p.extend(manifest_len.to_le_bytes());
                p.extend(fingerprint.to_le_bytes());
                1
            }
            Frame::Register { worker } => {
                put_str(&mut p, worker);
                2
            }
            Frame::Fetch => 3,
            Frame::Assign { index, key } => {
                p.extend(index.to_le_bytes());
                put_str(&mut p, key);
                4
            }
            Frame::Wait { millis } => {
                p.extend(millis.to_le_bytes());
                5
            }
            Frame::Finished => 6,
            Frame::Result { index, key, record } => {
                p.extend(index.to_le_bytes());
                put_str(&mut p, key);
                put_str(&mut p, record);
                7
            }
            Frame::Ping => 8,
        };
        (kind, p)
    }

    /// Serializes the frame, checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, payload) = self.payload();
        let mut out = Vec::with_capacity(23 + payload.len());
        out.extend(MAGIC.to_le_bytes());
        out.extend(PROTO_VERSION.to_le_bytes());
        out.push(kind);
        out.extend((payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        // The checksum covers everything after the magic, so any
        // single-bit corruption of version, kind, length, or payload is
        // caught (corrupting the magic itself fails the magic check).
        let check = fnv1a64(&out[4..]);
        out.extend(check.to_le_bytes());
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
    /// specifically rather than panicking or misparsing. Every proper
    /// prefix of a valid frame is [`ProtoError::Truncated`] and nothing
    /// else, which is what lets [`Frame::next`] wait for the rest.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
        let mut c = Cursor {
            buf,
            at: 0,
            short: ProtoError::Truncated,
        };
        let magic = c.u32()?;
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(c.array()?);
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let [kind] = c.array()?;
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

    /// Takes the first complete frame off the front of `received` — one
    /// connection's bytes so far, in whatever chunks they arrived — or
    /// `None` while it is still arriving. The streaming side of
    /// [`Frame::decode`].
    ///
    /// # Errors
    ///
    /// Any decode error but truncation: the stream is corrupt and the
    /// connection unusable.
    pub fn next(received: &mut Vec<u8>) -> Result<Option<Frame>, ProtoError> {
        match Frame::decode(received) {
            Ok((frame, used)) => {
                received.drain(..used);
                Ok(Some(frame))
            }
            Err(ProtoError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

fn parse_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
        short: ProtoError::BadPayload,
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

/// Bounds-checked little-endian reader over a byte slice; an underrun is
/// `short`. Payload-level underruns are [`ProtoError::BadPayload`] (the
/// checksum already passed, so the frame is structurally wrong, not cut
/// short in flight); frame-level underruns in [`Frame::decode`] are
/// [`ProtoError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    short: ProtoError,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.saturating_add(n);
        let s = self.buf.get(self.at..end).ok_or(self.short.clone())?;
        self.at = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
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
        }
    }

    /// A checksummed frame of `kind` around an arbitrary payload.
    fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend(MAGIC.to_le_bytes());
        out.extend(PROTO_VERSION.to_le_bytes());
        out.push(kind);
        out.extend((payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        let check = fnv1a64(&out[4..]);
        out.extend(check.to_le_bytes());
        out
    }

    /// A whole, checksummed frame whose payload is too short for its kind
    /// is malformed, not "wait for more bytes": a connection must be
    /// dropped over it rather than stall on it forever.
    #[test]
    fn short_payload_is_bad_payload_not_truncated() {
        // Wait (a u32), Assign (u32 + string) and Welcome cut inside a
        // fixed-width field, and Register cut inside a string length.
        for (kind, payload) in [
            (5, &[][..]),
            (5, &[1, 2][..]),
            (4, &[1, 0][..]),
            (1, &[0, 0, 0, 0, 1, 0, 0, 0, 2][..]),
            (2, &[3, 0, 0][..]),
        ] {
            let bytes = framed(kind, payload);
            assert_eq!(Frame::decode(&bytes).unwrap_err(), ProtoError::BadPayload);
            assert_eq!(Frame::next(&mut bytes.clone()), Err(ProtoError::BadPayload));
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
            Frame::decode(&bytes[..11]).unwrap_err(),
            ProtoError::Oversized(u32::MAX)
        );
    }
}
