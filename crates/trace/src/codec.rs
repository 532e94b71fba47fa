//! The trace record codec: delta/varint packing of retire records.
//!
//! A block payload is a sequence of variable-width records:
//!
//! ```text
//! flags  u8   bits 0..2  control kind (0 none, 1 cond, 2 direct,
//!                        3 call, 4 indirect, 5 return)
//!             bit  3     taken
//!             bit  4     indirect target
//!             bits 5..6  mem class (0 none, 1 load, 2 store)
//!             bit  7     sequential (pc == prev_pc + 4; no pc delta)
//! [pc Δ]  varint  zigzag(pc - (prev_pc + 4)), absent when bit 7 set
//! [tgt Δ] varint  zigzag(target - (pc + 4)), present when the record is
//!                 a control instruction or taken; absent otherwise
//!                 (target is then the fall-through pc + 4)
//! ```
//!
//! Straight-line code costs one byte per instruction; a taken branch
//! costs two to three. Every decode failure is a [`CodecError`] value —
//! the property tests truncate at every prefix and flip every byte to
//! pin that down.

use strata_isa::ControlKind;
use strata_machine::observers::{CompactRetire, MemClass};

/// Why a block payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended mid-record.
    Truncated,
    /// Flag byte names an unknown control kind or mem class.
    BadFlags(u8),
    /// A varint ran past the 64-bit range.
    BadVarint,
    /// Payload decoded cleanly but held the wrong number of records, or
    /// left trailing bytes.
    CountMismatch {
        /// Records the block header promised.
        expected: u32,
        /// Records actually present.
        found: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated mid-record"),
            CodecError::BadFlags(b) => write!(f, "invalid flag byte {b:#04x}"),
            CodecError::BadVarint => write!(f, "varint exceeds 64 bits"),
            CodecError::CountMismatch { expected, found } => {
                write!(f, "block promised {expected} records, decoded {found}")
            }
        }
    }
}

const KIND_MASK: u8 = 0b0000_0111;
const FLAG_TAKEN: u8 = 1 << 3;
const FLAG_INDIRECT: u8 = 1 << 4;
const MEM_SHIFT: u8 = 5;
const MEM_MASK: u8 = 0b0110_0000;
const FLAG_SEQ: u8 = 1 << 7;

fn kind_code(kind: ControlKind) -> u8 {
    match kind {
        ControlKind::None => 0,
        ControlKind::Conditional => 1,
        ControlKind::Direct => 2,
        ControlKind::Call => 3,
        ControlKind::Indirect => 4,
        ControlKind::Return => 5,
    }
}

fn kind_of(code: u8) -> Option<ControlKind> {
    Some(match code {
        0 => ControlKind::None,
        1 => ControlKind::Conditional,
        2 => ControlKind::Direct,
        3 => ControlKind::Call,
        4 => ControlKind::Indirect,
        5 => ControlKind::Return,
        _ => return None,
    })
}

fn mem_code(mem: MemClass) -> u8 {
    match mem {
        MemClass::None => 0,
        MemClass::Load => 1,
        MemClass::Store => 2,
    }
}

fn mem_of(code: u8) -> Option<MemClass> {
    Some(match code {
        0 => MemClass::None,
        1 => MemClass::Load,
        2 => MemClass::Store,
        _ => return None,
    })
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(payload: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = payload.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::BadVarint);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Whether a record carries an explicit target delta. Untaken non-control
/// instructions always fall through (`target == pc + 4`), so only control
/// instructions and taken transfers need one.
fn has_target(kind: ControlKind, taken: bool) -> bool {
    kind != ControlKind::None || taken
}

/// Packs a record slice into one block payload.
pub fn encode_block(records: &[CompactRetire]) -> Vec<u8> {
    // ~1.5 bytes per record in practice; reserve 2 to avoid regrowth.
    let mut out = Vec::with_capacity(records.len() * 2);
    let mut prev_pc: u32 = 0;
    for r in records {
        let seq = r.pc == prev_pc.wrapping_add(4);
        let mut flags = kind_code(r.kind) | (mem_code(r.mem) << MEM_SHIFT);
        if r.taken {
            flags |= FLAG_TAKEN;
        }
        if r.indirect {
            flags |= FLAG_INDIRECT;
        }
        if seq {
            flags |= FLAG_SEQ;
        }
        out.push(flags);
        if !seq {
            let delta = r.pc as i64 - (prev_pc as i64 + 4);
            push_varint(&mut out, zigzag(delta));
        }
        if has_target(r.kind, r.taken) {
            let delta = r.target as i64 - (r.pc as i64 + 4);
            push_varint(&mut out, zigzag(delta));
        } else {
            debug_assert_eq!(
                r.target,
                r.pc.wrapping_add(4),
                "untaken non-control record at {:#x} must fall through",
                r.pc
            );
        }
        prev_pc = r.pc;
    }
    out
}

/// Unpacks a block payload record by record into `visit`, expecting
/// exactly `count` records — the one decode loop. `visit` has seen every
/// record ahead of a defect by the time the defect is reported.
///
/// # Errors
///
/// Any structural defect — truncation, unknown flag bits, varint
/// overflow, record-count disagreement — is returned as a [`CodecError`].
pub fn visit_block(
    payload: &[u8],
    count: u32,
    mut visit: impl FnMut(CompactRetire),
) -> Result<(), CodecError> {
    let mut found: u32 = 0;
    let mut prev_pc: u32 = 0;
    let mut pos = 0usize;
    while pos < payload.len() {
        if found >= count {
            return Err(CodecError::CountMismatch {
                expected: count,
                found: count + 1,
            });
        }
        let flags = payload[pos];
        pos += 1;
        let kind = kind_of(flags & KIND_MASK).ok_or(CodecError::BadFlags(flags))?;
        let mem = mem_of((flags & MEM_MASK) >> MEM_SHIFT).ok_or(CodecError::BadFlags(flags))?;
        let taken = flags & FLAG_TAKEN != 0;
        let indirect = flags & FLAG_INDIRECT != 0;
        let pc = if flags & FLAG_SEQ != 0 {
            prev_pc.wrapping_add(4)
        } else {
            let delta = unzigzag(read_varint(payload, &mut pos)?);
            (prev_pc as i64 + 4 + delta) as u32
        };
        let target = if has_target(kind, taken) {
            let delta = unzigzag(read_varint(payload, &mut pos)?);
            (pc as i64 + 4 + delta) as u32
        } else {
            pc.wrapping_add(4)
        };
        visit(CompactRetire {
            pc,
            kind,
            taken,
            indirect,
            target,
            mem,
        });
        found += 1;
        prev_pc = pc;
    }
    if found != count {
        return Err(CodecError::CountMismatch {
            expected: count,
            found,
        });
    }
    Ok(())
}

/// Unpacks a block payload into a vector, expecting exactly `count`
/// records.
///
/// # Errors
///
/// As [`visit_block`].
pub fn decode_block(payload: &[u8], count: u32) -> Result<Vec<CompactRetire>, CodecError> {
    // A record takes at least a byte, which bounds what a bad count can
    // make this reserve.
    let mut records = Vec::with_capacity((count as usize).min(payload.len()));
    visit_block(payload, count, |r| records.push(r))?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_stats::rng::SmallRng;

    fn random_record(rng: &mut SmallRng) -> CompactRetire {
        let kind = kind_of(rng.gen_range(0u8..6)).unwrap();
        let taken = kind != ControlKind::None && rng.gen_bool(0.6);
        let pc = rng.gen_range(0u32..0x0100_0000) & !3;
        let target = if has_target(kind, taken) {
            rng.gen_range(0u32..0x0100_0000) & !3
        } else {
            pc.wrapping_add(4)
        };
        CompactRetire {
            pc,
            kind,
            taken,
            indirect: kind != ControlKind::None && rng.gen_bool(0.3),
            target,
            mem: mem_of(rng.gen_range(0u8..3)).unwrap(),
        }
    }

    fn random_stream(rng: &mut SmallRng, len: usize) -> Vec<CompactRetire> {
        // Mix straight-line runs (the common case the seq bit compresses)
        // with fully random records.
        let mut records = Vec::with_capacity(len);
        let mut pc = 0x1000u32;
        while records.len() < len {
            if rng.gen_bool(0.7) {
                for _ in 0..rng.gen_range(1usize..8) {
                    if records.len() == len {
                        break;
                    }
                    records.push(CompactRetire {
                        pc,
                        kind: ControlKind::None,
                        taken: false,
                        indirect: false,
                        target: pc.wrapping_add(4),
                        mem: mem_of(rng.gen_range(0u8..3)).unwrap(),
                    });
                    pc = pc.wrapping_add(4);
                }
            } else {
                let r = random_record(rng);
                pc = r.target;
                records.push(r);
            }
        }
        records
    }

    #[test]
    fn round_trips_randomized_streams() {
        let mut rng = SmallRng::seed_from_u64(0x7ace);
        for case in 0..50 {
            let records = random_stream(&mut rng, 1 + case * 7);
            let payload = encode_block(&records);
            let back = decode_block(&payload, records.len() as u32).unwrap();
            assert_eq!(back, records, "case {case}");
        }
    }

    #[test]
    fn straight_line_code_is_one_byte_per_instr() {
        let records: Vec<CompactRetire> = (0..100)
            .map(|i| CompactRetire {
                pc: 0x1000 + i * 4,
                kind: ControlKind::None,
                taken: false,
                indirect: false,
                target: 0x1004 + i * 4,
                mem: MemClass::None,
            })
            .collect();
        let payload = encode_block(&records);
        // First record pays a pc delta; the rest ride the seq bit.
        assert!(payload.len() <= 103, "got {} bytes", payload.len());
        assert_eq!(decode_block(&payload, 100).unwrap(), records);
    }

    #[test]
    fn empty_block_round_trips() {
        assert!(encode_block(&[]).is_empty());
        assert_eq!(decode_block(&[], 0).unwrap(), vec![]);
    }

    #[test]
    fn every_prefix_truncation_is_an_error() {
        let mut rng = SmallRng::seed_from_u64(0xbead);
        let records = random_stream(&mut rng, 64);
        let payload = encode_block(&records);
        for cut in 0..payload.len() {
            let res = decode_block(&payload[..cut], records.len() as u32);
            assert!(res.is_err(), "prefix of {cut} bytes decoded cleanly");
        }
    }

    #[test]
    fn every_byte_corruption_is_detected_or_changes_records() {
        // Single-byte corruption must never decode to the original
        // stream while claiming success: either the decoder errors, or
        // it produces a *different* record list (the block checksum in
        // the file layer catches that case).
        let mut rng = SmallRng::seed_from_u64(0xc0de);
        let records = random_stream(&mut rng, 48);
        let payload = encode_block(&records);
        for i in 0..payload.len() {
            for flip in [0x01u8, 0x80u8, 0xff] {
                let mut bad = payload.clone();
                bad[i] ^= flip;
                match decode_block(&bad, records.len() as u32) {
                    Err(_) => {}
                    Ok(decoded) => assert_ne!(
                        decoded, records,
                        "flipping byte {i} with {flip:#x} was invisible"
                    ),
                }
            }
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // A non-seq record whose pc delta never terminates within 64 bits.
        let payload = [
            0x00u8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ];
        assert_eq!(decode_block(&payload, 1), Err(CodecError::BadVarint));
    }

    #[test]
    fn count_mismatch_rejected() {
        let records = vec![CompactRetire {
            pc: 0x1000,
            kind: ControlKind::None,
            taken: false,
            indirect: false,
            target: 0x1004,
            mem: MemClass::None,
        }];
        let payload = encode_block(&records);
        assert!(matches!(
            decode_block(&payload, 2),
            Err(CodecError::CountMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            decode_block(&payload, 0),
            Err(CodecError::CountMismatch { .. })
        ));
    }
}
