use crate::Reg;

/// A decoded SimRISC instruction.
///
/// All instructions occupy exactly four bytes. Branch offsets (`Beq` etc.)
/// are signed *word* offsets relative to the instruction following the
/// branch: the branch target is `pc + 4 + off * 4`. Jump targets
/// (`Jmp`/`Call`/`Jmem`) are absolute byte addresses that must be 4-byte
/// aligned and below [`crate::MAX_JUMP_TARGET`]. The `Lwa`/`Swa` absolute
/// addressing mode reaches the low 1 MiB of memory
/// ([`crate::MAX_ABS_ADDR`]); the SDT's register save area lives there so
/// spill code needs no free base register, mirroring x86 absolute
/// addressing.
///
/// Calls (`Call`/`Callr`) push the address of the following instruction on
/// the stack (`sp -= 4; mem[sp] = pc + 4`) before transferring control;
/// `Ret` pops an address and jumps to it. `Jmem` loads a word from an
/// absolute memory slot and jumps to it — the SimRISC analogue of the x86
/// `jmp [mem]` used by indirect-branch translation caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    // ---- R-type ALU -------------------------------------------------------
    /// `rd = rs1 + rs2` (wrapping).
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 - rs2` (wrapping).
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 * rs2` (wrapping, low 32 bits).
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 / rs2` unsigned; division by zero yields `u32::MAX`.
    Divu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 % rs2` unsigned; remainder by zero yields `rs1`.
    Remu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 & rs2`.
    And { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 | rs2`.
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 ^ rs2`.
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 << (rs2 & 31)`.
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = ((rs1 as i32) >> (rs2 & 31)) as u32` (arithmetic).
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs` (register move).
    Mov { rd: Reg, rs: Reg },

    // ---- I-type ALU -------------------------------------------------------
    /// `rd = rs1 + sext(imm)` (wrapping).
    Addi { rd: Reg, rs1: Reg, imm: i16 },
    /// `rd = rs1 & zext(imm)`.
    Andi { rd: Reg, rs1: Reg, imm: u16 },
    /// `rd = rs1 | zext(imm)`.
    Ori { rd: Reg, rs1: Reg, imm: u16 },
    /// `rd = rs1 ^ zext(imm)`.
    Xori { rd: Reg, rs1: Reg, imm: u16 },
    /// `rd = rs1 << shamt` with `shamt` in `0..32`.
    Slli { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = rs1 >> shamt` (logical).
    Srli { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = ((rs1 as i32) >> shamt) as u32` (arithmetic).
    Srai { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = imm << 16` (load upper immediate).
    Lui { rd: Reg, imm: u16 },

    // ---- Memory -----------------------------------------------------------
    /// `rd = mem32[rs1 + sext(off)]`.
    Lw { rd: Reg, rs1: Reg, off: i16 },
    /// `mem32[rs1 + sext(off)] = rs2`.
    Sw { rs2: Reg, rs1: Reg, off: i16 },
    /// `rd = sext8(mem8[rs1 + sext(off)])`.
    Lb { rd: Reg, rs1: Reg, off: i16 },
    /// `rd = zext8(mem8[rs1 + sext(off)])`.
    Lbu { rd: Reg, rs1: Reg, off: i16 },
    /// `mem8[rs1 + sext(off)] = rs2 & 0xFF`.
    Sb { rs2: Reg, rs1: Reg, off: i16 },
    /// `rd = mem32[addr]` with a 20-bit absolute address.
    Lwa { rd: Reg, addr: u32 },
    /// `mem32[addr] = rs` with a 20-bit absolute address.
    Swa { rs: Reg, addr: u32 },
    /// `sp -= 4; mem32[sp] = rs`.
    Push { rs: Reg },
    /// `rd = mem32[sp]; sp += 4`.
    Pop { rd: Reg },
    /// `sp -= 4; mem32[sp] = flags` (architecture-taxed flags save).
    Pushf,
    /// `flags = mem32[sp]; sp += 4`.
    Popf,

    // ---- Compare & conditional branches ------------------------------------
    /// Sets flags from `rs1 ? rs2` (eq, signed lt, unsigned lt).
    Cmp { rs1: Reg, rs2: Reg },
    /// Sets flags from `rs1 ? sext(imm)`.
    Cmpi { rs1: Reg, imm: i16 },
    /// Branch if equal (flags.eq).
    Beq { off: i16 },
    /// Branch if not equal.
    Bne { off: i16 },
    /// Branch if signed less-than (flags.lt).
    Blt { off: i16 },
    /// Branch if signed greater-or-equal.
    Bge { off: i16 },
    /// Branch if unsigned less-than (flags.ltu).
    Bltu { off: i16 },
    /// Branch if unsigned greater-or-equal.
    Bgeu { off: i16 },

    // ---- Control transfer ---------------------------------------------------
    /// Unconditional jump to an absolute byte address.
    Jmp { target: u32 },
    /// Direct call: push `pc + 4`, jump to `target`.
    Call { target: u32 },
    /// Indirect jump to the address in `rs`.
    Jr { rs: Reg },
    /// Indirect call: push `pc + 4`, jump to the address in `rs`.
    Callr { rs: Reg },
    /// Return: pop an address from the stack and jump to it.
    Ret,
    /// Jump indirect through memory: `pc = mem32[addr]` (absolute slot).
    Jmem { addr: u32 },

    // ---- System -------------------------------------------------------------
    /// Host upcall with a 16-bit code; the machine suspends and hands the
    /// code to the embedder (SDT runtime or syscall emulation).
    Trap { code: u16 },
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// Returns `true` for instructions that may transfer control anywhere
    /// other than the following instruction (including `Halt`, which
    /// suspends sequential execution from the translator's viewpoint).
    ///
    /// The SDT translator uses this to find basic-block boundaries.
    ///
    /// ```
    /// use strata_isa::{Instr, Reg};
    /// assert!(Instr::Ret.ends_block());
    /// assert!(Instr::Beq { off: 2 }.ends_block());
    /// assert!(!Instr::Add { rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 }.ends_block());
    /// ```
    pub fn ends_block(&self) -> bool {
        matches!(
            self,
            Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::Blt { .. }
                | Instr::Bge { .. }
                | Instr::Bltu { .. }
                | Instr::Bgeu { .. }
                | Instr::Jmp { .. }
                | Instr::Call { .. }
                | Instr::Jr { .. }
                | Instr::Callr { .. }
                | Instr::Ret
                | Instr::Jmem { .. }
                | Instr::Halt
        )
    }

    /// Returns `true` for instructions that overwrite the condition flags
    /// (`cmp`/`cmpi` and `popf`). Static analyses over emitted dispatch
    /// code use this to prove the application's flags survive a lookup.
    ///
    /// ```
    /// use strata_isa::{Instr, Reg};
    /// assert!(Instr::Cmp { rs1: Reg::R1, rs2: Reg::R2 }.writes_flags());
    /// assert!(Instr::Popf.writes_flags());
    /// assert!(!Instr::Add { rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 }.writes_flags());
    /// ```
    pub fn writes_flags(&self) -> bool {
        matches!(self, Instr::Cmp { .. } | Instr::Cmpi { .. } | Instr::Popf)
    }

    /// Returns `true` for instructions whose behaviour depends on the
    /// current condition flags (the conditional branches and `pushf`).
    #[cfg(test)]
    fn reads_flags(&self) -> bool {
        matches!(
            self,
            Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::Blt { .. }
                | Instr::Bge { .. }
                | Instr::Bltu { .. }
                | Instr::Bgeu { .. }
                | Instr::Pushf
        )
    }

    /// The general-purpose register this instruction writes, if any.
    ///
    /// `Pop` reports its explicit destination (the implicit stack-pointer
    /// update is not a "destination" in the dataflow sense, matching how
    /// `push`/`pushf`/`popf` and stores report `None`).
    ///
    /// ```
    /// use strata_isa::{Instr, Reg};
    /// assert_eq!(Instr::Mov { rd: Reg::R3, rs: Reg::R1 }.dest_reg(), Some(Reg::R3));
    /// assert_eq!(Instr::Pop { rd: Reg::R1 }.dest_reg(), Some(Reg::R1));
    /// assert_eq!(Instr::Push { rs: Reg::R1 }.dest_reg(), None);
    /// assert_eq!(Instr::Swa { rs: Reg::R1, addr: 0x100 }.dest_reg(), None);
    /// ```
    pub fn dest_reg(&self) -> Option<Reg> {
        use Instr::*;
        match *self {
            Add { rd, .. }
            | Sub { rd, .. }
            | Mul { rd, .. }
            | Divu { rd, .. }
            | Remu { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Mov { rd, .. }
            | Addi { rd, .. }
            | Andi { rd, .. }
            | Ori { rd, .. }
            | Xori { rd, .. }
            | Slli { rd, .. }
            | Srli { rd, .. }
            | Srai { rd, .. }
            | Lui { rd, .. }
            | Lw { rd, .. }
            | Lb { rd, .. }
            | Lbu { rd, .. }
            | Lwa { rd, .. }
            | Pop { rd } => Some(rd),
            _ => None,
        }
    }

    /// The statically known control-transfer target of the instruction at
    /// address `pc`: the absolute target of `jmp`/`call`, or the resolved
    /// `pc + 4 + off * 4` destination of a conditional branch. Indirect
    /// transfers and non-branches return `None`.
    ///
    /// ```
    /// use strata_isa::{Instr, Reg};
    /// assert_eq!(Instr::Jmp { target: 0x40 }.static_target(0x100), Some(0x40));
    /// assert_eq!(Instr::Beq { off: 2 }.static_target(0x100), Some(0x10C));
    /// assert_eq!(Instr::Beq { off: -1 }.static_target(0x100), Some(0x100));
    /// assert_eq!(Instr::Jr { rs: Reg::R1 }.static_target(0x100), None);
    /// ```
    pub fn static_target(&self, pc: u32) -> Option<u32> {
        use Instr::*;
        match *self {
            Jmp { target } | Call { target } => Some(target),
            Beq { off } | Bne { off } | Blt { off } | Bge { off } | Bltu { off } | Bgeu { off } => {
                Some((pc as i64 + 4 + off as i64 * 4) as u32)
            }
            _ => None,
        }
    }
}

/// The SimRISC condition flags, written by `cmp`/`cmpi` and read by the
/// conditional branches and `pushf`/`popf`.
///
/// ```
/// use strata_isa::Flags;
/// let f = Flags::from_compare(3, 7);
/// assert!(!f.eq && f.lt && f.ltu);
/// assert_eq!(Flags::from_bits(f.to_bits()), f);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Flags {
    /// Operands were equal.
    pub eq: bool,
    /// First operand was less than the second, compared as signed.
    pub lt: bool,
    /// First operand was less than the second, compared as unsigned.
    pub ltu: bool,
}

impl Flags {
    /// Computes flags exactly as `cmp a, b` would.
    #[inline]
    pub fn from_compare(a: u32, b: u32) -> Flags {
        Flags {
            eq: a == b,
            lt: (a as i32) < (b as i32),
            ltu: a < b,
        }
    }

    /// Packs the flags into the low three bits of a word (the `pushf`
    /// stack representation).
    #[inline]
    pub fn to_bits(self) -> u32 {
        (self.eq as u32) | ((self.lt as u32) << 1) | ((self.ltu as u32) << 2)
    }

    /// Unpacks flags from the low three bits of a word.
    #[inline]
    pub fn from_bits(bits: u32) -> Flags {
        Flags {
            eq: bits & 1 != 0,
            lt: bits & 2 != 0,
            ltu: bits & 4 != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_compare_semantics() {
        let f = Flags::from_compare(5, 5);
        assert!(f.eq && !f.lt && !f.ltu);

        // -1 (0xFFFF_FFFF) vs 1: signed less, unsigned greater.
        let f = Flags::from_compare(0xFFFF_FFFF, 1);
        assert!(!f.eq && f.lt && !f.ltu);

        let f = Flags::from_compare(1, 0xFFFF_FFFF);
        assert!(!f.eq && !f.lt && f.ltu);
    }

    #[test]
    fn flags_bits_roundtrip() {
        for bits in 0..8 {
            assert_eq!(Flags::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn flags_readers_and_writers() {
        use crate::Reg;
        assert!(Instr::Cmpi {
            rs1: Reg::R1,
            imm: 3
        }
        .writes_flags());
        assert!(Instr::Popf.writes_flags());
        assert!(!Instr::Pushf.writes_flags());
        assert!(Instr::Pushf.reads_flags());
        assert!(Instr::Bgeu { off: -2 }.reads_flags());
        assert!(!Instr::Jmp { target: 0 }.reads_flags());
        // ALU ops never touch flags on SimRISC (unlike x86) — that is
        // exactly what makes the pushf tax avoidable around hash code.
        assert!(!Instr::Addi {
            rd: Reg::R2,
            rs1: Reg::R2,
            imm: 1
        }
        .writes_flags());
    }

    #[test]
    fn dest_regs() {
        use crate::Reg;
        assert_eq!(
            Instr::Lwa {
                rd: Reg::R7,
                addr: 0x120
            }
            .dest_reg(),
            Some(Reg::R7)
        );
        assert_eq!(
            Instr::Lui {
                rd: Reg::R2,
                imm: 0x60
            }
            .dest_reg(),
            Some(Reg::R2)
        );
        for none in [
            Instr::Pushf,
            Instr::Popf,
            Instr::Push { rs: Reg::R3 },
            Instr::Sw {
                rs2: Reg::R1,
                rs1: Reg::R2,
                off: 0,
            },
            Instr::Cmp {
                rs1: Reg::R1,
                rs2: Reg::R2,
            },
            Instr::Ret,
            Instr::Jmem { addr: 0x100 },
        ] {
            assert_eq!(none.dest_reg(), None, "{none:?}");
        }
    }

    #[test]
    fn static_targets() {
        use crate::Reg;
        assert_eq!(
            Instr::Call { target: 0x200 }.static_target(0x80),
            Some(0x200)
        );
        assert_eq!(Instr::Bne { off: 0 }.static_target(0x80), Some(0x84));
        assert_eq!(Instr::Blt { off: -3 }.static_target(0x80), Some(0x78));
        assert_eq!(Instr::Ret.static_target(0x80), None);
        assert_eq!(Instr::Callr { rs: Reg::R4 }.static_target(0x80), None);
        assert_eq!(Instr::Jmem { addr: 0x100 }.static_target(0x80), None);
    }

    #[test]
    fn block_enders() {
        assert!(Instr::Jmp { target: 0 }.ends_block());
        assert!(Instr::Call { target: 0 }.ends_block());
        assert!(Instr::Jr { rs: Reg::R1 }.ends_block());
        assert!(Instr::Callr { rs: Reg::R1 }.ends_block());
        assert!(Instr::Jmem { addr: 0x100 }.ends_block());
        assert!(Instr::Halt.ends_block());
        assert!(!Instr::Trap { code: 1 }.ends_block());
        assert!(!Instr::Nop.ends_block());
        assert!(!Instr::Push { rs: Reg::R2 }.ends_block());
        assert!(!Instr::Cmp {
            rs1: Reg::R1,
            rs2: Reg::R2
        }
        .ends_block());
    }
}
