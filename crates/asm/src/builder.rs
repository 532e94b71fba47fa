use strata_isa::{encode, Instr, Reg, INSTR_BYTES};

use crate::AsmError;

/// A forward-referenceable code location handle created by
/// [`CodeBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Instruction-level items recorded before label resolution.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// An instruction needing no resolution.
    Fixed(Instr),
    /// A conditional branch to a label; the variant is rebuilt with the
    /// resolved offset.
    Branch { template: Instr, label: Label },
    /// `jmp`/`call` to a label (absolute target patched in).
    Jump { is_call: bool, label: Label },
    /// `lui rd, hi(label)` half of a `li_label`.
    LuiLabel { rd: Reg, label: Label },
    /// `ori rd, rd, lo(label)` half of a `li_label`.
    OriLabel { rd: Reg, label: Label },
    /// Raw data word (`.word`).
    Word(u32),
}

/// A programmatic SimRISC assembler with labels and forward references.
///
/// The builder records instructions and label uses, then [`finish`] resolves
/// every reference and returns the encoded words. Code is laid out
/// contiguously starting at the base address given to [`CodeBuilder::new`];
/// `jmp`/`call`/`li_label` targets resolve to absolute byte addresses, and
/// conditional branches to word offsets.
///
/// Every instruction has a method of the same name (`add`, `lw`, `beq`, …);
/// conditional branches and jumps take a [`Label`]. See the crate-level
/// example.
///
/// [`finish`]: CodeBuilder::finish
#[derive(Debug)]
pub struct CodeBuilder {
    base: u32,
    items: Vec<Item>,
    labels: Vec<Option<u32>>,
}

impl CodeBuilder {
    /// Creates a builder whose first instruction will live at byte address
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned.
    pub fn new(base: u32) -> CodeBuilder {
        assert!(
            base.is_multiple_of(INSTR_BYTES),
            "code base {base:#x} is not word aligned"
        );
        CodeBuilder {
            base,
            items: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Returns the base address passed to [`CodeBuilder::new`].
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::RebindLabel`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        let slot = &mut self.labels[label.0];
        if slot.is_some() {
            return Err(AsmError::RebindLabel(label.0));
        }
        *slot = Some(self.items.len() as u32);
        Ok(())
    }

    /// Convenience: creates a label already bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l).expect("fresh label cannot be bound");
        l
    }

    /// Byte address of the *next* instruction to be emitted.
    #[cfg(test)]
    fn current_addr(&self) -> u32 {
        self.base + self.items.len() as u32 * INSTR_BYTES
    }

    /// Appends an already-formed instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.items.push(Item::Fixed(instr));
        self
    }

    /// Appends a raw data word (the `.word` directive).
    pub fn word(&mut self, value: u32) -> &mut Self {
        self.items.push(Item::Word(value));
        self
    }

    /// Loads a 32-bit constant via the canonical `lui`+`ori` pair.
    ///
    /// Always occupies exactly two instructions, so generated code has a
    /// predictable layout.
    pub fn li(&mut self, rd: Reg, value: u32) -> &mut Self {
        self.emit(Instr::Lui {
            rd,
            imm: (value >> 16) as u16,
        });
        self.emit(Instr::Ori {
            rd,
            rs1: rd,
            imm: (value & 0xFFFF) as u16,
        });
        self
    }

    /// Loads the absolute address of `label` via `lui`+`ori`.
    pub fn li_label(&mut self, rd: Reg, label: Label) -> &mut Self {
        self.items.push(Item::LuiLabel { rd, label });
        self.items.push(Item::OriLabel { rd, label });
        self
    }

    /// Resolves all references and returns the encoded machine words.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound, or [`AsmError::BranchOutOfRange`] if a conditional branch
    /// cannot reach its target.
    pub fn finish(&self) -> Result<Vec<u32>, AsmError> {
        let resolve = |label: Label| -> Result<u32, AsmError> {
            self.labels[label.0]
                .map(|idx| self.base + idx * INSTR_BYTES)
                .ok_or(AsmError::UnboundLabel(label.0))
        };

        let mut out = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let pc = self.base + idx as u32 * INSTR_BYTES;
            let word = match *item {
                Item::Fixed(instr) => encode(&instr),
                Item::Word(w) => w,
                Item::Branch { template, label } => {
                    let target = resolve(label)?;
                    let delta = (target as i64 - (pc as i64 + 4)) / INSTR_BYTES as i64;
                    let off = i16::try_from(delta).map_err(|_| AsmError::BranchOutOfRange {
                        from: pc,
                        to: target,
                    })?;
                    encode(&rebuild_branch(template, off))
                }
                Item::Jump { is_call, label } => {
                    let target = resolve(label)?;
                    let instr = if is_call {
                        Instr::Call { target }
                    } else {
                        Instr::Jmp { target }
                    };
                    encode(&instr)
                }
                Item::LuiLabel { rd, label } => {
                    let target = resolve(label)?;
                    encode(&Instr::Lui {
                        rd,
                        imm: (target >> 16) as u16,
                    })
                }
                Item::OriLabel { rd, label } => {
                    let target = resolve(label)?;
                    encode(&Instr::Ori {
                        rd,
                        rs1: rd,
                        imm: (target & 0xFFFF) as u16,
                    })
                }
            };
            out.push(word);
        }
        Ok(out)
    }
}

fn rebuild_branch(template: Instr, off: i16) -> Instr {
    match template {
        Instr::Beq { .. } => Instr::Beq { off },
        Instr::Bne { .. } => Instr::Bne { off },
        Instr::Blt { .. } => Instr::Blt { off },
        Instr::Bge { .. } => Instr::Bge { off },
        Instr::Bltu { .. } => Instr::Bltu { off },
        Instr::Bgeu { .. } => Instr::Bgeu { off },
        other => unreachable!("non-branch template {other:?}"),
    }
}

macro_rules! rrr {
    ($($name:ident => $variant:ident),* $(,)?) => {
        $(
            #[doc = concat!("Appends `", stringify!($name), " rd, rs1, rs2`.")]
            pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
                self.emit(Instr::$variant { rd, rs1, rs2 })
            }
        )*
    };
}

macro_rules! rri {
    ($($name:ident => $variant:ident : $imm:ty),* $(,)?) => {
        $(
            #[doc = concat!("Appends `", stringify!($name), " rd, rs1, imm`.")]
            pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: $imm) -> &mut Self {
                self.emit(Instr::$variant { rd, rs1, imm })
            }
        )*
    };
}

macro_rules! shift {
    ($($name:ident => $variant:ident),* $(,)?) => {
        $(
            #[doc = concat!("Appends `", stringify!($name), " rd, rs1, shamt`.")]
            pub fn $name(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
                self.emit(Instr::$variant { rd, rs1, shamt })
            }
        )*
    };
}

macro_rules! branch {
    ($($name:ident => $variant:ident),* $(,)?) => {
        $(
            #[doc = concat!("Appends a `", stringify!($name), "` to `label`.")]
            pub fn $name(&mut self, label: Label) -> &mut Self {
                self.items.push(Item::Branch {
                    template: Instr::$variant { off: 0 },
                    label,
                });
                self
            }
        )*
    };
}

impl CodeBuilder {
    rrr! {
        add => Add, sub => Sub, mul => Mul, divu => Divu, remu => Remu,
        and => And, or => Or, xor => Xor, sll => Sll, srl => Srl, sra => Sra,
    }

    rri! {
        addi => Addi: i16, andi => Andi: u16, ori => Ori: u16, xori => Xori: u16,
    }

    shift! { slli => Slli, srli => Srli, srai => Srai }

    branch! {
        beq => Beq, bne => Bne, blt => Blt, bge => Bge, bltu => Bltu, bgeu => Bgeu,
    }

    /// Appends `mov rd, rs`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.emit(Instr::Mov { rd, rs })
    }

    /// Appends `lui rd, imm`.
    pub fn lui(&mut self, rd: Reg, imm: u16) -> &mut Self {
        self.emit(Instr::Lui { rd, imm })
    }

    /// Appends `lw rd, off(rs1)`.
    pub fn lw(&mut self, rd: Reg, rs1: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lw { rd, rs1, off })
    }

    /// Appends `sw rs2, off(rs1)`.
    pub fn sw(&mut self, rs2: Reg, rs1: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Sw { rs2, rs1, off })
    }

    /// Appends `lb rd, off(rs1)`.
    pub fn lb(&mut self, rd: Reg, rs1: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lb { rd, rs1, off })
    }

    /// Appends `lbu rd, off(rs1)`.
    pub fn lbu(&mut self, rd: Reg, rs1: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lbu { rd, rs1, off })
    }

    /// Appends `sb rs2, off(rs1)`.
    pub fn sb(&mut self, rs2: Reg, rs1: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Sb { rs2, rs1, off })
    }

    /// Appends `lwa rd, [addr]`.
    pub fn lwa(&mut self, rd: Reg, addr: u32) -> &mut Self {
        self.emit(Instr::Lwa { rd, addr })
    }

    /// Appends `swa rs, [addr]`.
    pub fn swa(&mut self, rs: Reg, addr: u32) -> &mut Self {
        self.emit(Instr::Swa { rs, addr })
    }

    /// Appends `push rs`.
    pub fn push(&mut self, rs: Reg) -> &mut Self {
        self.emit(Instr::Push { rs })
    }

    /// Appends `pop rd`.
    pub fn pop(&mut self, rd: Reg) -> &mut Self {
        self.emit(Instr::Pop { rd })
    }

    /// Appends `pushf`.
    pub fn pushf(&mut self) -> &mut Self {
        self.emit(Instr::Pushf)
    }

    /// Appends `popf`.
    pub fn popf(&mut self) -> &mut Self {
        self.emit(Instr::Popf)
    }

    /// Appends `cmp rs1, rs2`.
    pub fn cmp(&mut self, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::Cmp { rs1, rs2 })
    }

    /// Appends `cmpi rs1, imm`.
    pub fn cmpi(&mut self, rs1: Reg, imm: i16) -> &mut Self {
        self.emit(Instr::Cmpi { rs1, imm })
    }

    /// Appends `jmp label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.items.push(Item::Jump {
            is_call: false,
            label,
        });
        self
    }

    /// Appends `call label`.
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.items.push(Item::Jump {
            is_call: true,
            label,
        });
        self
    }

    /// Appends `jr rs`.
    pub fn jr(&mut self, rs: Reg) -> &mut Self {
        self.emit(Instr::Jr { rs })
    }

    /// Appends `callr rs`.
    pub fn callr(&mut self, rs: Reg) -> &mut Self {
        self.emit(Instr::Callr { rs })
    }

    /// Appends `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Instr::Ret)
    }

    /// Appends `jmem [addr]`.
    pub fn jmem(&mut self, addr: u32) -> &mut Self {
        self.emit(Instr::Jmem { addr })
    }

    /// Appends `trap code`.
    pub fn trap(&mut self, code: u16) -> &mut Self {
        self.emit(Instr::Trap { code })
    }

    /// Appends `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr::Halt)
    }

    /// Appends `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_isa::decode;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut b = CodeBuilder::new(0x1000);
        let fwd = b.new_label();
        let top = b.here();
        b.cmpi(Reg::R1, 0);
        b.beq(fwd);
        b.jmp(top);
        b.bind(fwd).unwrap();
        b.halt();
        let code = b.finish().unwrap();

        // beq at 0x1004: target 0x100C → off = (0x100C - 0x1008)/4 = 1.
        assert_eq!(decode(code[1]).unwrap(), Instr::Beq { off: 1 });
        // jmp at 0x1008 back to 0x1000.
        assert_eq!(decode(code[2]).unwrap(), Instr::Jmp { target: 0x1000 });
    }

    #[test]
    fn li_label_splits_address() {
        let mut b = CodeBuilder::new(0x0030_0000);
        let l = b.new_label();
        b.li_label(Reg::R5, l);
        b.bind(l).unwrap();
        b.halt();
        let code = b.finish().unwrap();
        assert_eq!(
            decode(code[0]).unwrap(),
            Instr::Lui {
                rd: Reg::R5,
                imm: 0x0030
            }
        );
        assert_eq!(
            decode(code[1]).unwrap(),
            Instr::Ori {
                rd: Reg::R5,
                rs1: Reg::R5,
                imm: 0x0008
            }
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = CodeBuilder::new(0);
        let l = b.new_label();
        b.jmp(l);
        assert_eq!(b.finish(), Err(AsmError::UnboundLabel(0)));
    }

    #[test]
    fn rebinding_is_an_error() {
        let mut b = CodeBuilder::new(0);
        let l = b.new_label();
        b.bind(l).unwrap();
        assert_eq!(b.bind(l), Err(AsmError::RebindLabel(0)));
    }

    #[test]
    fn branch_out_of_range_detected() {
        let mut b = CodeBuilder::new(0);
        let far = b.new_label();
        b.beq(far);
        for _ in 0..40_000 {
            b.nop();
        }
        b.bind(far).unwrap();
        b.halt();
        match b.finish() {
            Err(AsmError::BranchOutOfRange { from: 0, .. }) => {}
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn current_addr_tracks_emission() {
        let mut b = CodeBuilder::new(0x2000);
        assert_eq!(b.current_addr(), 0x2000);
        b.nop().nop();
        assert_eq!(b.current_addr(), 0x2008);
        b.li(Reg::R1, 0xDEADBEEF);
        assert_eq!(b.current_addr(), 0x2010);
    }

    #[test]
    fn word_directive_passes_through() {
        let mut b = CodeBuilder::new(0);
        b.word(0x12345678);
        assert_eq!(b.finish().unwrap(), vec![0x12345678]);
    }
}
