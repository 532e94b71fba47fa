//! Word-level random program generation (unstructured instruction soup).
//!
//! Extracted from the arch stepper-equivalence property test so every
//! differential suite draws from the same distribution: ALU ops, memory
//! traffic through pre-seeded pointer registers, calls/returns, indirect
//! jumps (including a deliberately unaligned pointer), traps, halts, and
//! self-modifying stores that patch live code. Programs run under fuel
//! and may legitimately fault — differential consumers assert that both
//! sides fault *identically*.

use strata_isa::{encode, Instr, Reg};
use strata_machine::{layout, Machine};
use strata_stats::rng::SmallRng;

/// Program length in words; the last word is always `halt`.
pub const CODE_LEN: usize = 48;

/// `Reg` from a raw index (panics above 15).
pub fn reg(i: u8) -> Reg {
    Reg::try_from(i).unwrap()
}

/// Scratch destinations; r5..r8 are reserved as pre-seeded address /
/// payload registers so most generated traffic stays in bounds.
pub fn scratch(rng: &mut SmallRng) -> Reg {
    const SCRATCH: [u8; 8] = [1, 2, 3, 4, 9, 10, 11, 12];
    reg(SCRATCH[rng.gen_range(0usize..SCRATCH.len())])
}

/// Any register as a source operand.
pub fn any_reg(rng: &mut SmallRng) -> Reg {
    reg(rng.gen_range(0u8..16))
}

/// A word-aligned address inside the generated code region.
pub fn code_slot(rng: &mut SmallRng) -> u32 {
    layout::APP_BASE + rng.gen_range(0u32..CODE_LEN as u32) * 4
}

/// A word slot for the absolutely-addressed ops (`lwa`/`swa`/`jmem`),
/// whose encoding caps addresses at 20 bits — use low memory, below the
/// code region at `APP_BASE`.
pub fn low_slot(rng: &mut SmallRng) -> u32 {
    0x400 + rng.gen_range(0u32..256) * 4
}

/// A conditional-branch offset from slot `i` landing inside the region.
pub fn branch_off(rng: &mut SmallRng, i: usize) -> i16 {
    let target = rng.gen_range(0u32..CODE_LEN as u32) as i32;
    (target - i as i32 - 1) as i16
}

/// A random instruction for slot `i` of the program.
pub fn gen_instr(rng: &mut SmallRng, i: usize) -> Instr {
    let rd = scratch(rng);
    let rs1 = any_reg(rng);
    let rs2 = any_reg(rng);
    match rng.gen_range(0u32..100) {
        0..=11 => match rng.gen_range(0u32..6) {
            0 => Instr::Add { rd, rs1, rs2 },
            1 => Instr::Sub { rd, rs1, rs2 },
            2 => Instr::Xor { rd, rs1, rs2 },
            3 => Instr::And { rd, rs1, rs2 },
            4 => Instr::Or { rd, rs1, rs2 },
            _ => Instr::Sll { rd, rs1, rs2 },
        },
        12..=21 => match rng.gen_range(0u32..4) {
            0 => Instr::Addi {
                rd,
                rs1,
                imm: (rng.gen_range(0u32..1000) as i32 - 500) as i16,
            },
            1 => Instr::Ori {
                rd,
                rs1,
                imm: rng.next_u32() as u16,
            },
            2 => Instr::Slli {
                rd,
                rs1,
                shamt: rng.gen_range(0u32..32) as u8,
            },
            _ => Instr::Lui {
                rd,
                imm: rng.next_u32() as u16,
            },
        },
        22..=27 => match rng.gen_range(0u32..3) {
            0 => Instr::Mul { rd, rs1, rs2 },
            1 => Instr::Divu { rd, rs1, rs2 },
            _ => Instr::Remu { rd, rs1, rs2 },
        },
        // Loads/stores through the pre-seeded data pointer in r5.
        28..=39 => {
            let off = rng.gen_range(0u32..64) as i16;
            match rng.gen_range(0u32..4) {
                0 => Instr::Lw {
                    rd,
                    rs1: reg(5),
                    off,
                },
                1 => Instr::Sw {
                    rs2: rs1,
                    rs1: reg(5),
                    off,
                },
                2 => Instr::Lbu {
                    rd,
                    rs1: reg(5),
                    off,
                },
                _ => Instr::Sb {
                    rs2: rs1,
                    rs1: reg(5),
                    off,
                },
            }
        }
        40..=45 => match rng.gen_range(0u32..2) {
            0 => Instr::Cmp { rs1, rs2 },
            _ => Instr::Cmpi {
                rs1,
                imm: (rng.gen_range(0u32..200) as i32 - 100) as i16,
            },
        },
        46..=55 => {
            let off = branch_off(rng, i);
            match rng.gen_range(0u32..4) {
                0 => Instr::Beq { off },
                1 => Instr::Bne { off },
                2 => Instr::Blt { off },
                _ => Instr::Bgeu { off },
            }
        }
        56..=61 => match rng.gen_range(0u32..2) {
            0 => Instr::Jmp {
                target: code_slot(rng),
            },
            _ => Instr::Call {
                target: code_slot(rng),
            },
        },
        // r6 holds an aligned code address; r8 a deliberately unaligned
        // one, so both paths must surface the same UnalignedPc error.
        62..=66 => {
            let rs = if rng.gen_range(0u32..8) == 0 {
                reg(8)
            } else {
                reg(6)
            };
            if rng.gen_bool(0.5) {
                Instr::Jr { rs }
            } else {
                Instr::Callr { rs }
            }
        }
        67..=70 => Instr::Ret,
        71..=76 => {
            if rng.gen_bool(0.5) {
                Instr::Push { rs: rs1 }
            } else {
                Instr::Pop { rd }
            }
        }
        // Self-modifying store: r7 holds a valid encoded instruction and
        // r6 a code address, so this patches live code and must
        // invalidate the predecoded page (and, under a translating
        // tier, flush any superblock built over it).
        77..=82 => Instr::Sw {
            rs2: reg(7),
            rs1: reg(6),
            off: (rng.gen_range(0u32..8) * 4) as i16,
        },
        83..=87 => {
            if rng.gen_bool(0.5) {
                Instr::Swa {
                    rs: rs1,
                    addr: low_slot(rng),
                }
            } else {
                Instr::Lwa {
                    rd,
                    addr: low_slot(rng),
                }
            }
        }
        88..=89 => {
            if rng.gen_bool(0.5) {
                Instr::Pushf
            } else {
                Instr::Popf
            }
        }
        90..=92 => Instr::Trap {
            code: rng.gen_range(0u32..1000) as u16,
        },
        93 => Instr::Jmem {
            addr: low_slot(rng),
        },
        94 => Instr::Halt,
        _ => Instr::Nop,
    }
}

/// A generated word program plus the machine setup it expects:
/// everything needed to instantiate bit-identical machines for each
/// side of a differential run, and to reproduce the case from a file.
#[derive(Debug, Clone)]
pub struct WordProgram {
    /// Encoded instruction words loaded at [`layout::APP_BASE`].
    pub words: Vec<u32>,
    /// Initial values for r1..r4.
    pub seeds: [u32; 4],
    /// The decodable instruction whose encoding is pre-seeded into r7
    /// (the payload self-modifying stores write into code).
    pub patch: Instr,
    /// Aligned code address pre-seeded into r6 (r8 gets `+2`,
    /// deliberately unaligned).
    pub code_target: u32,
}

impl WordProgram {
    /// Draws a fresh random program (the distribution of the original
    /// stepper-equivalence trials).
    pub fn generate(rng: &mut SmallRng) -> WordProgram {
        let words: Vec<u32> = (0..CODE_LEN - 1)
            .map(|i| encode(&gen_instr(rng, i)))
            .chain([encode(&Instr::Halt)])
            .collect();
        // The payload r7 patches into code must itself be decodable.
        let patch = match rng.gen_range(0u32..3) {
            0 => Instr::Nop,
            1 => Instr::Addi {
                rd: scratch(rng),
                rs1: scratch(rng),
                imm: (rng.gen_range(0u32..200) as i32 - 100) as i16,
            },
            _ => Instr::Halt,
        };
        let seeds: [u32; 4] = [
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
        ];
        let code_target = code_slot(rng);
        WordProgram {
            words,
            seeds,
            patch,
            code_target,
        }
    }

    /// Builds a machine with this program loaded and registers seeded.
    /// Every call returns an identical machine, which is what makes
    /// lockstep comparison meaningful.
    pub fn instantiate(&self) -> Machine {
        self.instantiate_on(Machine::new(layout::DEFAULT_MEM_BYTES))
    }

    /// [`instantiate`](Self::instantiate) on a machine the caller built
    /// (of [`layout::DEFAULT_MEM_BYTES`], nothing loaded yet).
    pub fn instantiate_on(&self, mut m: Machine) -> Machine {
        m.write_code(layout::APP_BASE, &self.words).unwrap();
        let cpu = m.cpu_mut();
        cpu.pc = layout::APP_BASE;
        for (i, &v) in self.seeds.iter().enumerate() {
            cpu.set_reg(reg(1 + i as u8), v);
        }
        cpu.set_reg(reg(5), layout::APP_DATA_BASE);
        cpu.set_reg(reg(6), self.code_target);
        cpu.set_reg(reg(7), encode(&self.patch));
        cpu.set_reg(reg(8), self.code_target + 2); // unaligned
        m
    }

    /// The same case truncated to its first `keep` words (plus a final
    /// `halt`), used by binary-search shrinking. Setup registers are
    /// unchanged so the shrunk case stays faithful to the original.
    pub fn truncated(&self, keep: usize) -> WordProgram {
        let keep = keep.min(self.words.len());
        let mut words: Vec<u32> = self.words[..keep].to_vec();
        words.push(encode(&Instr::Halt));
        WordProgram {
            words,
            ..self.clone()
        }
    }

    /// Renders the case as a re-runnable `.sasm` file: a header of
    /// `;` comments capturing the register setup, then one canonical-
    /// syntax instruction per line (the exact text `strata-asm` accepts,
    /// assembled at [`layout::APP_BASE`]).
    pub fn to_sasm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "; strata difftest reproducer");
        let _ = writeln!(
            out,
            "; assemble at {:#x}; set pc = {:#x}",
            layout::APP_BASE,
            layout::APP_BASE
        );
        let _ = writeln!(
            out,
            "; setup: r1={:#x} r2={:#x} r3={:#x} r4={:#x}",
            self.seeds[0], self.seeds[1], self.seeds[2], self.seeds[3]
        );
        let _ = writeln!(
            out,
            "; setup: r5={:#x} (data) r6={:#x} (code ptr) r8={:#x} (unaligned)",
            layout::APP_DATA_BASE,
            self.code_target,
            self.code_target + 2
        );
        let _ = writeln!(
            out,
            "; setup: r7={:#x} (encoded patch: {})",
            encode(&self.patch),
            self.patch
        );
        for (i, &w) in self.words.iter().enumerate() {
            match strata_isa::decode(w) {
                Ok(instr) => {
                    let _ = writeln!(out, "    {instr:<24}; [{i:02}] {w:#010x}");
                }
                Err(_) => {
                    // The generator only emits encodable instructions,
                    // but stay robust for hand-edited cases.
                    let _ = writeln!(
                        out,
                        "    nop                     ; [{i:02}] undecodable {w:#010x}"
                    );
                }
            }
        }
        out
    }
}
