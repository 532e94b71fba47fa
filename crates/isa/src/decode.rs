use std::fmt;

use crate::encode::op;
use crate::{Instr, Reg};

/// Error returned by [`decode`] for malformed machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte does not name any SimRISC instruction.
    InvalidOpcode(u8),
    /// A shift-immediate instruction carried a shift amount of 32 or more.
    InvalidShiftAmount(u16),
    /// An `lwa`/`swa` word carried an absolute address that is not 4-byte
    /// aligned.
    UnalignedAddress(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidOpcode(opc) => write!(f, "invalid opcode {opc:#04x}"),
            DecodeError::InvalidShiftAmount(s) => {
                write!(f, "invalid shift amount {s} (must be 0..32)")
            }
            DecodeError::UnalignedAddress(a) => {
                write!(f, "absolute address {a:#x} is not word aligned")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Whether `word` decodes to a direct [`Instr::Jmp`], judged by its
/// opcode byte alone (every `jmp` word is valid) — what a translator
/// asks of a patched exit-trampoline head, without a full [`decode`].
///
/// ```
/// use strata_isa::{encode, is_jmp, Instr};
/// assert!(is_jmp(encode(&Instr::Jmp { target: 0x40 })));
/// assert!(!is_jmp(encode(&Instr::Call { target: 0x40 })));
/// ```
#[inline]
pub fn is_jmp(word: u32) -> bool {
    (word >> 24) as u8 == op::JMP
}

/// Decodes a 32-bit machine word into an [`Instr`].
///
/// # Errors
///
/// Returns [`DecodeError::InvalidOpcode`] for unknown opcodes and
/// [`DecodeError::InvalidShiftAmount`] for `slli`/`srli`/`srai` words with a
/// shift amount of 32 or more.
///
/// ```
/// use strata_isa::{decode, DecodeError};
/// assert_eq!(decode(0xFF00_0000), Err(DecodeError::InvalidOpcode(0xFF)));
/// ```
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let opcode = (word >> 24) as u8;
    let rd = Reg::from_bits(word >> 20);
    let rs1 = Reg::from_bits(word >> 16);
    let rs2 = Reg::from_bits(word >> 12);
    let imm = (word & 0xFFFF) as u16;
    let simm = imm as i16;
    let abs = word & 0xF_FFFF;
    let jtarget = (word & 0xFF_FFFF) << 2;

    let instr = match opcode {
        op::NOP => Instr::Nop,

        op::ADD => Instr::Add { rd, rs1, rs2 },
        op::SUB => Instr::Sub { rd, rs1, rs2 },
        op::MUL => Instr::Mul { rd, rs1, rs2 },
        op::DIVU => Instr::Divu { rd, rs1, rs2 },
        op::REMU => Instr::Remu { rd, rs1, rs2 },
        op::AND => Instr::And { rd, rs1, rs2 },
        op::OR => Instr::Or { rd, rs1, rs2 },
        op::XOR => Instr::Xor { rd, rs1, rs2 },
        op::SLL => Instr::Sll { rd, rs1, rs2 },
        op::SRL => Instr::Srl { rd, rs1, rs2 },
        op::SRA => Instr::Sra { rd, rs1, rs2 },
        op::MOV => Instr::Mov { rd, rs: rs1 },

        op::ADDI => Instr::Addi { rd, rs1, imm: simm },
        op::ANDI => Instr::Andi { rd, rs1, imm },
        op::ORI => Instr::Ori { rd, rs1, imm },
        op::XORI => Instr::Xori { rd, rs1, imm },
        op::SLLI => Instr::Slli {
            rd,
            rs1,
            shamt: shamt(imm)?,
        },
        op::SRLI => Instr::Srli {
            rd,
            rs1,
            shamt: shamt(imm)?,
        },
        op::SRAI => Instr::Srai {
            rd,
            rs1,
            shamt: shamt(imm)?,
        },
        op::LUI => Instr::Lui { rd, imm },

        op::LW => Instr::Lw { rd, rs1, off: simm },
        op::SW => Instr::Sw {
            rs2: rd,
            rs1,
            off: simm,
        },
        op::LB => Instr::Lb { rd, rs1, off: simm },
        op::LBU => Instr::Lbu { rd, rs1, off: simm },
        op::SB => Instr::Sb {
            rs2: rd,
            rs1,
            off: simm,
        },
        op::LWA => Instr::Lwa {
            rd,
            addr: aligned(abs)?,
        },
        op::SWA => Instr::Swa {
            rs: rd,
            addr: aligned(abs)?,
        },
        op::PUSH => Instr::Push { rs: rd },
        op::POP => Instr::Pop { rd },
        op::PUSHF => Instr::Pushf,
        op::POPF => Instr::Popf,

        op::CMP => Instr::Cmp { rs1, rs2 },
        op::CMPI => Instr::Cmpi { rs1, imm: simm },
        op::BEQ => Instr::Beq { off: simm },
        op::BNE => Instr::Bne { off: simm },
        op::BLT => Instr::Blt { off: simm },
        op::BGE => Instr::Bge { off: simm },
        op::BLTU => Instr::Bltu { off: simm },
        op::BGEU => Instr::Bgeu { off: simm },

        op::JMP => Instr::Jmp { target: jtarget },
        op::CALL => Instr::Call { target: jtarget },
        op::JR => Instr::Jr { rs: rs1 },
        op::CALLR => Instr::Callr { rs: rs1 },
        op::RET => Instr::Ret,
        op::JMEM => Instr::Jmem { addr: jtarget },

        op::TRAP => Instr::Trap { code: imm },
        op::HALT => Instr::Halt,

        other => return Err(DecodeError::InvalidOpcode(other)),
    };
    Ok(instr)
}

#[inline]
fn aligned(addr: u32) -> Result<u32, DecodeError> {
    if addr.is_multiple_of(4) {
        Ok(addr)
    } else {
        Err(DecodeError::UnalignedAddress(addr))
    }
}

#[inline]
fn shamt(imm: u16) -> Result<u8, DecodeError> {
    if imm < 32 {
        Ok(imm as u8)
    } else {
        Err(DecodeError::InvalidShiftAmount(imm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;

    fn sample_instrs() -> Vec<Instr> {
        use Instr::*;
        let r = |i: u8| Reg::try_from(i).unwrap();
        vec![
            Nop,
            Halt,
            Ret,
            Pushf,
            Popf,
            Add {
                rd: r(1),
                rs1: r(2),
                rs2: r(3),
            },
            Sub {
                rd: r(15),
                rs1: r(0),
                rs2: r(7),
            },
            Mul {
                rd: r(4),
                rs1: r(4),
                rs2: r(4),
            },
            Divu {
                rd: r(5),
                rs1: r(6),
                rs2: r(7),
            },
            Remu {
                rd: r(8),
                rs1: r(9),
                rs2: r(10),
            },
            And {
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Or {
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Xor {
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Sll {
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Srl {
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Sra {
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Mov {
                rd: r(3),
                rs: r(12),
            },
            Addi {
                rd: r(2),
                rs1: r(3),
                imm: -32768,
            },
            Addi {
                rd: r(2),
                rs1: r(3),
                imm: 32767,
            },
            Andi {
                rd: r(2),
                rs1: r(3),
                imm: 0xFFFF,
            },
            Ori {
                rd: r(2),
                rs1: r(3),
                imm: 0xABCD,
            },
            Xori {
                rd: r(2),
                rs1: r(3),
                imm: 1,
            },
            Slli {
                rd: r(2),
                rs1: r(3),
                shamt: 31,
            },
            Srli {
                rd: r(2),
                rs1: r(3),
                shamt: 0,
            },
            Srai {
                rd: r(2),
                rs1: r(3),
                shamt: 16,
            },
            Lui {
                rd: r(9),
                imm: 0xDEAD,
            },
            Lw {
                rd: r(1),
                rs1: r(15),
                off: -4,
            },
            Sw {
                rs2: r(1),
                rs1: r(15),
                off: 8,
            },
            Lb {
                rd: r(1),
                rs1: r(2),
                off: 3,
            },
            Lbu {
                rd: r(1),
                rs1: r(2),
                off: -1,
            },
            Sb {
                rs2: r(1),
                rs1: r(2),
                off: 0,
            },
            Lwa {
                rd: r(1),
                addr: 0xF_FFFC,
            },
            Swa {
                rs: r(14),
                addr: 0x100,
            },
            Push { rs: r(7) },
            Pop { rd: r(8) },
            Cmp {
                rs1: r(1),
                rs2: r(2),
            },
            Cmpi { rs1: r(1), imm: -7 },
            Beq { off: -100 },
            Bne { off: 100 },
            Blt { off: 0 },
            Bge { off: 1 },
            Bltu { off: -1 },
            Bgeu { off: 32767 },
            Jmp { target: 0x10_0000 },
            Call { target: 0x20_0004 },
            Jr { rs: r(11) },
            Callr { rs: r(12) },
            Jmem { addr: 0x104 },
            Trap { code: 0xF001 },
        ]
    }

    #[test]
    fn exhaustive_roundtrip() {
        for instr in sample_instrs() {
            let word = encode(&instr);
            assert_eq!(decode(word), Ok(instr), "word {word:#010x}");
        }
    }

    #[test]
    fn invalid_opcode() {
        assert_eq!(decode(0xE100_0000), Err(DecodeError::InvalidOpcode(0xE1)));
    }

    #[test]
    fn invalid_shift() {
        // Hand-build an slli word with shamt = 40.
        let word = ((op::SLLI as u32) << 24) | (1 << 20) | (1 << 16) | 40;
        assert_eq!(decode(word), Err(DecodeError::InvalidShiftAmount(40)));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DecodeError::InvalidOpcode(0xE1).to_string(),
            "invalid opcode 0xe1"
        );
        assert_eq!(
            DecodeError::InvalidShiftAmount(40).to_string(),
            "invalid shift amount 40 (must be 0..32)"
        );
    }
}
