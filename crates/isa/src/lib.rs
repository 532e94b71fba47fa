//! # strata-isa — the SimRISC instruction set
//!
//! SimRISC is a 32-bit, fixed-width (4-byte) RISC instruction set designed as
//! the guest architecture for the `strata` software-dynamic-translation (SDT)
//! laboratory. It is deliberately rich enough to express, as *real executed
//! instructions*, every code sequence an SDT emits when handling indirect
//! branches:
//!
//! * hashing a branch target (`srli`/`andi`/`slli`),
//! * probing translation tables (`lui`+`add`+`lw`),
//! * tag compares and chained conditional branches (`cmp`/`bne`),
//! * register spills to an absolute save area (`lwa`/`swa`),
//! * flags save/restore around lookup code (`pushf`/`popf`), and
//! * the final transfer through a memory slot (`jmem`), mirroring the x86
//!   `jmp [mem]` idiom used by indirect-branch translation caches.
//!
//! The ISA has 16 general-purpose registers ([`Reg`]), with `r15` serving as
//! the stack pointer by software convention ([`Reg::SP`]). Calls push the
//! return address on the stack and `ret` pops it — this stack-based
//! call/return convention is what makes *return caches* and *fast returns*
//! (the mechanisms evaluated by Hiser et al., CGO 2007) directly expressible.
//!
//! ## Example
//!
//! ```
//! use strata_isa::{Instr, Reg, encode, decode};
//!
//! let instr = Instr::Addi { rd: Reg::R1, rs1: Reg::R2, imm: -4 };
//! let word = encode(&instr);
//! assert_eq!(decode(word).unwrap(), instr);
//! ```

mod class;
mod decode;
mod disasm;
mod encode;
mod instr;
mod reg;

pub use class::{ControlKind, InstrClass};
pub use decode::{decode, is_jmp, DecodeError};
pub use encode::encode;
pub use instr::{Flags, Instr};
pub use reg::Reg;

/// Size in bytes of every SimRISC instruction.
pub const INSTR_BYTES: u32 = 4;

/// Maximum byte address expressible by a `jmp`/`call`/`jmem` 24-bit word
/// immediate (64 MiB).
pub const MAX_JUMP_TARGET: u32 = (1 << 24) * INSTR_BYTES - 1;

/// Maximum byte address expressible by the 20-bit absolute `lwa`/`swa`
/// addressing mode (1 MiB). The SDT keeps its register save area below this
/// boundary so spill code needs no free base register.
pub const MAX_ABS_ADDR: u32 = (1 << 20) - 1;
