use std::fmt;

use strata_isa::{ControlKind, DecodeError, Flags, Instr, InstrClass};

use crate::event::{ControlEvent, ExecutionObserver, MemAccess, RetireEvent};
use crate::tier::{ExitKind, TierBlockMeta, TierEngine, TierMutation};
use crate::{Cpu, ExecTier, Memory, TierStats};

/// Errors surfaced by machine execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// A memory access touched bytes outside of memory.
    OutOfBounds { addr: u32, len: u32 },
    /// The program counter was not 4-byte aligned.
    UnalignedPc { pc: u32 },
    /// The word at `pc` did not decode to an instruction.
    Decode { pc: u32, source: DecodeError },
    /// [`Machine::run`] exhausted its step budget.
    OutOfFuel { steps: u64 },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfBounds { addr, len } => {
                write!(
                    f,
                    "memory access of {len} byte(s) at {addr:#x} is out of bounds"
                )
            }
            MachineError::UnalignedPc { pc } => write!(f, "unaligned pc {pc:#x}"),
            MachineError::Decode { pc, source } => write!(f, "at pc {pc:#x}: {source}"),
            MachineError::OutOfFuel { steps } => {
                write!(f, "execution exceeded the step budget of {steps}")
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally; execution continues.
    Running,
    /// A `trap` instruction retired. `pc` already points at the following
    /// instruction; the embedder services the trap and resumes (possibly at
    /// a different `pc`).
    Trap(u16),
    /// A `halt` instruction retired.
    Halted,
}

/// The simulated SimRISC machine: CPU state plus memory.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
    mem: Memory,
    /// Threaded-tier state; `None` runs the pure interpreter (the
    /// default — no field access on the interpreter's per-instruction
    /// path, only one check at [`Machine::run`] entry).
    tier: Option<Box<TierEngine>>,
}

impl Machine {
    /// Creates a machine with `mem_bytes` of zeroed memory and the stack
    /// pointer initialized to the top of memory.
    pub fn new(mem_bytes: u32) -> Machine {
        Machine::with_memory(Memory::new(mem_bytes))
    }

    /// [`Machine::new`] around a memory already built.
    pub fn with_memory(mem: Memory) -> Machine {
        let mut cpu = Cpu::new();
        cpu.set_sp(mem.size());
        Machine {
            cpu,
            mem,
            tier: None,
        }
    }

    /// Selects the execution tier driving [`Machine::run`].
    ///
    /// Switching to [`ExecTier::Threaded`] installs a fresh tier engine
    /// (empty translation cache, zeroed profile); switching back to
    /// [`ExecTier::Interp`] discards it. Guest-visible behavior is
    /// identical either way — only wall-clock changes.
    pub fn set_tier(&mut self, tier: ExecTier) {
        self.tier = match tier {
            ExecTier::Interp => None,
            ExecTier::Threaded(cfg) => Some(Box::new(TierEngine::new(cfg, &self.mem))),
        };
    }

    /// Translation-tier counters, when the threaded tier is active.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|t| t.stats())
    }

    /// Mutation-testing hook: corrupts the side-exit target of the first
    /// translated conditional branch, if any. See
    /// `TierEngine::corrupt_side_exit`.
    #[doc(hidden)]
    pub fn corrupt_translated_side_exit(&mut self) -> bool {
        self.tier
            .as_mut()
            .is_some_and(|tier| tier.corrupt_side_exit())
    }

    /// Structural metadata for every live translated superblock — the
    /// threaded tier's analogue of `Sdt::cache_meta()`, consumed by the
    /// translation validator in `strata-analysis`. Empty when the
    /// threaded tier is off, nothing is hot yet, or the translation
    /// cache is stale (pending flush at the next block-head arrival).
    pub fn tier_blocks(&self) -> Vec<TierBlockMeta> {
        self.tier
            .as_ref()
            .map(|tier| tier.export_blocks(self.mem.code_version()))
            .unwrap_or_default()
    }

    /// Mutation-testing hook: injects one lowered-op defect of class `m`
    /// into the first eligible translated op (the stored guest
    /// instruction stays intact, exactly like a lowering bug). Returns
    /// `false` when the tier is off or nothing eligible is translated.
    #[doc(hidden)]
    pub fn corrupt_lowered_op(&mut self, m: TierMutation) -> bool {
        self.tier
            .as_mut()
            .is_some_and(|tier| tier.corrupt_lowered(m))
    }

    /// Shared view of CPU state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable view of CPU state (the SDT runtime uses this while servicing
    /// traps).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Shared view of memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable view of memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Writes a sequence of machine words (code) starting at `addr` and
    /// registers the span as an executable region, predecoding it.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if the words do not fit.
    pub fn write_code(&mut self, addr: u32, words: &[u32]) -> Result<(), MachineError> {
        for (i, w) in words.iter().enumerate() {
            self.mem.write_u32(addr + i as u32 * 4, *w)?;
        }
        self.mem.register_code_region(addr, words.len() as u32 * 4);
        Ok(())
    }

    /// Executes instructions until `halt`, a `trap`, an error, or `fuel`
    /// retired instructions.
    ///
    /// This is the hot loop of every simulation. Each iteration tries the
    /// predecoded fast path — a page-table load with the alignment and
    /// bounds checks folded into two masks, no error-path code — and only
    /// falls back to the general fetch (decode, memoize, or report the
    /// error) on the first execution of a word, after self-modifying code
    /// invalidated it, or when `pc` left mapped code entirely. Guest
    /// semantics are bit-identical to calling [`Machine::step`] in a
    /// loop; the fuel budget is sliced off one instruction at a time, so
    /// resuming after a trap or out-of-fuel return observes exactly the
    /// same states.
    ///
    /// # Errors
    ///
    /// Propagates execution errors and returns [`MachineError::OutOfFuel`]
    /// if the budget is exhausted before `halt`/`trap`.
    pub fn run<O: ExecutionObserver>(
        &mut self,
        observer: &mut O,
        fuel: u64,
    ) -> Result<StepOutcome, MachineError> {
        if self.tier.is_some() {
            return self.run_tiered(observer, fuel);
        }
        for _ in 0..fuel {
            let pc = self.cpu.pc;
            let instr = match self.mem.fetch_predecoded(pc) {
                Some(instr) => instr,
                None => self.mem.fetch(pc)?,
            };
            match self.exec(pc, instr, observer)? {
                StepOutcome::Running => {}
                outcome => return Ok(outcome),
            }
        }
        Err(MachineError::OutOfFuel { steps: fuel })
    }

    /// [`Machine::run`] with the threaded tier installed: profile region
    /// heads at control-transfer arrivals, dispatch into translated
    /// superblocks when one starts at `pc`, interpret everything else.
    /// Guest semantics, retire streams, and fuel accounting are
    /// bit-identical to the interpreter loop above.
    fn run_tiered<O: ExecutionObserver>(
        &mut self,
        observer: &mut O,
        fuel: u64,
    ) -> Result<StepOutcome, MachineError> {
        let mut tier = self.tier.take().expect("run_tiered requires a tier");
        let result = self.run_tiered_inner(&mut tier, observer, fuel);
        self.tier = Some(tier);
        result
    }

    fn run_tiered_inner<O: ExecutionObserver>(
        &mut self,
        tier: &mut TierEngine,
        observer: &mut O,
        fuel: u64,
    ) -> Result<StepOutcome, MachineError> {
        let mut left = fuel;
        // `arrived` is true exactly when `pc` was reached by a control
        // transfer (or is the resume point): those are the only pcs that
        // can head a superblock, so lookup/profile work happens only
        // there and straight-line interpretation stays one compare away
        // from the untiered loop.
        let mut arrived = true;
        while left > 0 {
            let pc = self.cpu.pc;
            if arrived {
                tier.sync_version(self.mem.code_version());
                if let Some(idx) = tier.lookup(pc) {
                    let exit = tier.exec_block(idx, &mut self.cpu, &mut self.mem, left, observer);
                    left -= exit.retired;
                    match exit.kind {
                        ExitKind::Continue => continue,
                        ExitKind::Trap(code) => return Ok(StepOutcome::Trap(code)),
                        ExitKind::Halted => return Ok(StepOutcome::Halted),
                        ExitKind::Fault(err) => return Err(err),
                    }
                }
                if tier.profile(pc, &self.mem) {
                    continue; // freshly translated: re-dispatch at `pc`
                }
            }
            let instr = match self.mem.fetch_predecoded(pc) {
                Some(instr) => instr,
                None => self.mem.fetch(pc)?,
            };
            match self.exec(pc, instr, observer)? {
                StepOutcome::Running => {}
                outcome => return Ok(outcome),
            }
            left -= 1;
            arrived = self.cpu.pc != pc.wrapping_add(4);
        }
        Err(MachineError::OutOfFuel { steps: fuel })
    }

    /// Fetches, decodes, executes, and retires one instruction, notifying
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Returns fetch/decode errors and out-of-bounds memory accesses. CPU
    /// state is unchanged when an error is returned mid-instruction except
    /// that no partial writes are observable (each instruction performs at
    /// most one memory write, attempted before register state is updated).
    pub fn step<O: ExecutionObserver>(
        &mut self,
        observer: &mut O,
    ) -> Result<StepOutcome, MachineError> {
        let pc = self.cpu.pc;
        let instr = self.mem.fetch(pc)?;
        self.exec(pc, instr, observer)
    }

    /// Executes one already-fetched instruction and retires it — the one
    /// definition of guest semantics, force-inlined into its three callers
    /// ([`Machine::run`], the tiered loop, [`Machine::step`]) so the paths
    /// cannot drift.
    ///
    /// Each dispatch arm retires its own event instead of falling into a
    /// shared tail: the event's `class`, `control.kind` and whether `mem`
    /// is present are literals at the observer call, so an observer that
    /// is itself `#[inline(always)]` (the cost model) is specialised per
    /// instruction shape — an ALU arm carries no D-cache or predictor
    /// code at all. The literals repeat [`Instr::class`] and
    /// [`Instr::control_kind`]; `tests::every_variant_retires_its_own_shape`
    /// holds them to it for every variant the decoder produces.
    #[inline(always)]
    fn exec<O: ExecutionObserver>(
        &mut self,
        pc: u32,
        instr: Instr,
        observer: &mut O,
    ) -> Result<StepOutcome, MachineError> {
        use Instr::*;

        let next = pc.wrapping_add(4);
        let cpu = &mut self.cpu;
        let mem = &mut self.mem;

        // Sets `pc`, delivers the event, and evaluates to `Running`. The
        // two-argument form is a fall-through instruction.
        macro_rules! retire {
            ($class:ident, $mem:expr) => {
                retire!($class, None, $mem, false, next, false)
            };
            ($class:ident, $kind:ident, $mem:expr, $taken:expr, $target:expr, $indirect:expr) => {{
                let target = $target;
                cpu.pc = target;
                observer.on_retire(&RetireEvent {
                    pc,
                    instr,
                    class: InstrClass::$class,
                    mem: $mem,
                    control: ControlEvent {
                        kind: ControlKind::$kind,
                        taken: $taken,
                        target,
                        indirect: $indirect,
                    },
                });
                StepOutcome::Running
            }};
        }
        // A register-writing fall-through instruction.
        macro_rules! set {
            ($class:ident, $rd:expr, $val:expr) => {{
                let v = $val;
                cpu.set_reg($rd, v);
                retire!($class, None)
            }};
        }
        // A conditional branch: `target` is the next `pc` either way.
        macro_rules! branch {
            ($cond:expr, $off:expr) => {{
                let taken = $cond;
                let target = if taken {
                    next.wrapping_add(($off as i32 as u32).wrapping_mul(4))
                } else {
                    next
                };
                retire!(CondBranch, Conditional, None, taken, target, false)
            }};
        }
        let load = |addr, len| {
            Some(MemAccess {
                addr,
                len,
                is_store: false,
            })
        };
        let store = |addr, len| {
            Some(MemAccess {
                addr,
                len,
                is_store: true,
            })
        };

        Ok(match instr {
            Add { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1).wrapping_add(cpu.reg(rs2))),
            Sub { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1).wrapping_sub(cpu.reg(rs2))),
            Mul { rd, rs1, rs2 } => set!(Mul, rd, cpu.reg(rs1).wrapping_mul(cpu.reg(rs2))),
            Divu { rd, rs1, rs2 } => {
                let v = cpu.reg(rs1).checked_div(cpu.reg(rs2)).unwrap_or(u32::MAX);
                set!(Div, rd, v)
            }
            Remu { rd, rs1, rs2 } => {
                let n = cpu.reg(rs1);
                set!(Div, rd, n.checked_rem(cpu.reg(rs2)).unwrap_or(n))
            }
            And { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1) & cpu.reg(rs2)),
            Or { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1) | cpu.reg(rs2)),
            Xor { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1) ^ cpu.reg(rs2)),
            Sll { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1) << (cpu.reg(rs2) & 31)),
            Srl { rd, rs1, rs2 } => set!(Alu, rd, cpu.reg(rs1) >> (cpu.reg(rs2) & 31)),
            Sra { rd, rs1, rs2 } => {
                let v = (cpu.reg(rs1) as i32) >> (cpu.reg(rs2) & 31);
                set!(Alu, rd, v as u32)
            }
            Mov { rd, rs } => set!(Alu, rd, cpu.reg(rs)),

            Addi { rd, rs1, imm } => set!(Alu, rd, cpu.reg(rs1).wrapping_add(imm as i32 as u32)),
            Andi { rd, rs1, imm } => set!(Alu, rd, cpu.reg(rs1) & imm as u32),
            Ori { rd, rs1, imm } => set!(Alu, rd, cpu.reg(rs1) | imm as u32),
            Xori { rd, rs1, imm } => set!(Alu, rd, cpu.reg(rs1) ^ imm as u32),
            Slli { rd, rs1, shamt } => set!(Alu, rd, cpu.reg(rs1) << shamt),
            Srli { rd, rs1, shamt } => set!(Alu, rd, cpu.reg(rs1) >> shamt),
            Srai { rd, rs1, shamt } => set!(Alu, rd, ((cpu.reg(rs1) as i32) >> shamt) as u32),
            Lui { rd, imm } => set!(Alu, rd, (imm as u32) << 16),

            Lw { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                cpu.set_reg(rd, mem.read_u32(a)?);
                retire!(Load, load(a, 4))
            }
            Sw { rs2, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                mem.write_u32(a, cpu.reg(rs2))?;
                retire!(Store, store(a, 4))
            }
            Lb { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                cpu.set_reg(rd, mem.read_u8(a)? as i8 as i32 as u32);
                retire!(Load, load(a, 1))
            }
            Lbu { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                cpu.set_reg(rd, mem.read_u8(a)? as u32);
                retire!(Load, load(a, 1))
            }
            Sb { rs2, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                mem.write_u8(a, cpu.reg(rs2) as u8)?;
                retire!(Store, store(a, 1))
            }
            Lwa { rd, addr } => {
                cpu.set_reg(rd, mem.read_u32(addr)?);
                retire!(Load, load(addr, 4))
            }
            Swa { rs, addr } => {
                mem.write_u32(addr, cpu.reg(rs))?;
                retire!(Store, store(addr, 4))
            }
            Push { rs } => {
                let sp = cpu.sp().wrapping_sub(4);
                mem.write_u32(sp, cpu.reg(rs))?;
                cpu.set_sp(sp);
                retire!(Store, store(sp, 4))
            }
            Pop { rd } => {
                let sp = cpu.sp();
                let v = mem.read_u32(sp)?;
                cpu.set_sp(sp.wrapping_add(4));
                cpu.set_reg(rd, v); // rd == sp overrides the increment, like x86
                retire!(Load, load(sp, 4))
            }
            Pushf => {
                let sp = cpu.sp().wrapping_sub(4);
                mem.write_u32(sp, cpu.flags.to_bits())?;
                cpu.set_sp(sp);
                retire!(FlagsSave, store(sp, 4))
            }
            Popf => {
                let sp = cpu.sp();
                cpu.flags = Flags::from_bits(mem.read_u32(sp)?);
                cpu.set_sp(sp.wrapping_add(4));
                retire!(FlagsRestore, load(sp, 4))
            }

            Cmp { rs1, rs2 } => {
                cpu.flags = Flags::from_compare(cpu.reg(rs1), cpu.reg(rs2));
                retire!(Alu, None)
            }
            Cmpi { rs1, imm } => {
                cpu.flags = Flags::from_compare(cpu.reg(rs1), imm as i32 as u32);
                retire!(Alu, None)
            }

            Beq { off } => branch!(cpu.flags.eq, off),
            Bne { off } => branch!(!cpu.flags.eq, off),
            Blt { off } => branch!(cpu.flags.lt, off),
            Bge { off } => branch!(!cpu.flags.lt, off),
            Bltu { off } => branch!(cpu.flags.ltu, off),
            Bgeu { off } => branch!(!cpu.flags.ltu, off),

            Jmp { target } => retire!(DirectJump, Direct, None, true, target, false),
            Call { target } => {
                let sp = cpu.sp().wrapping_sub(4);
                mem.write_u32(sp, next)?;
                cpu.set_sp(sp);
                retire!(DirectCall, Call, store(sp, 4), true, target, false)
            }
            Jr { rs } => retire!(IndirectJump, Indirect, None, true, cpu.reg(rs), true),
            Callr { rs } => {
                let target = cpu.reg(rs);
                let sp = cpu.sp().wrapping_sub(4);
                mem.write_u32(sp, next)?;
                cpu.set_sp(sp);
                retire!(IndirectCall, Call, store(sp, 4), true, target, true)
            }
            Ret => {
                let sp = cpu.sp();
                let target = mem.read_u32(sp)?;
                cpu.set_sp(sp.wrapping_add(4));
                retire!(Return, Return, load(sp, 4), true, target, true)
            }
            Jmem { addr } => {
                let target = mem.read_u32(addr)?;
                retire!(IndirectJump, Indirect, load(addr, 4), true, target, true)
            }

            Trap { code } => {
                retire!(Trap, None);
                StepOutcome::Trap(code)
            }
            Halt => {
                retire!(Other, None);
                StepOutcome::Halted
            }
            Nop => retire!(Other, None),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullObserver;
    use strata_asm::assemble;
    use strata_isa::Reg;

    fn machine_with(src: &str) -> Machine {
        let mut m = Machine::new(0x1_0000);
        let code = assemble(0x100, src).expect("assembles");
        m.write_code(0x100, &code).unwrap();
        m.cpu_mut().pc = 0x100;
        m
    }

    fn run(src: &str) -> Machine {
        let mut m = machine_with(src);
        let out = m.run(&mut NullObserver, 10_000).expect("runs");
        assert_eq!(out, StepOutcome::Halted);
        m
    }

    #[test]
    fn arithmetic_and_logic() {
        let m = run(r"
            li r1, 21
            li r2, 2
            mul r3, r1, r2
            addi r3, r3, -2
            xor r4, r3, r3
            ori r4, r4, 0xFF
            andi r4, r4, 0xF0
            srli r4, r4, 4
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 40);
        assert_eq!(m.cpu().reg(Reg::R4), 0xF);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let m = run(r"
            li r1, 17
            li r2, 0
            divu r3, r1, r2
            remu r4, r1, r2
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), u32::MAX);
        assert_eq!(m.cpu().reg(Reg::R4), 17);
    }

    #[test]
    fn loads_and_stores() {
        let m = run(r"
            li r1, 0x2000
            li r2, 0xCAFE
            sw r2, 4(r1)
            lw r3, 4(r1)
            sb r2, 0(r1)
            lbu r4, 0(r1)
            lb r5, 0(r1)
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 0xCAFE);
        assert_eq!(m.cpu().reg(Reg::R4), 0xFE);
        assert_eq!(m.cpu().reg(Reg::R5), 0xFFFF_FFFE); // sign-extended
    }

    #[test]
    fn stack_discipline() {
        let m = run(r"
            li r1, 111
            li r2, 222
            push r1
            push r2
            pop r3
            pop r4
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 222);
        assert_eq!(m.cpu().reg(Reg::R4), 111);
        assert_eq!(m.cpu().sp(), 0x1_0000);
    }

    #[test]
    fn flags_survive_pushf_popf() {
        let m = run(r"
            li r1, 1
            li r2, 2
            cmp r1, r2      ; lt, ltu set
            pushf
            cmpi r1, 1      ; eq set
            popf
            blt less
            li r3, 0
            halt
        less:
            li r3, 77
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 77, "popf must restore the lt flag");
    }

    #[test]
    fn call_and_ret() {
        let m = run(r"
            li r1, 5
            call double
            call double
            halt
        double:
            add r1, r1, r1
            ret
        ");
        assert_eq!(m.cpu().reg(Reg::R1), 20);
        assert_eq!(m.cpu().sp(), 0x1_0000);
    }

    #[test]
    fn indirect_call_and_jump() {
        let m = run(r"
            li r9, target
            jr r9
            halt            ; skipped
        target:
            li r8, fn1
            callr r8
            halt
        fn1:
            li r7, 99
            ret
        ");
        assert_eq!(m.cpu().reg(Reg::R7), 99);
    }

    #[test]
    fn jmem_jumps_through_memory() {
        let m = run(r"
            li r1, dest
            swa r1, [0x200]
            jmem [0x200]
            halt            ; skipped
        dest:
            li r2, 5
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R2), 5);
    }

    #[test]
    fn trap_suspends_with_pc_after() {
        let mut m = machine_with("nop\ntrap 0x42\nli r1, 3\nhalt\n");
        let out = m.run(&mut NullObserver, 100).unwrap();
        assert_eq!(out, StepOutcome::Trap(0x42));
        // Resuming continues after the trap.
        let out = m.run(&mut NullObserver, 100).unwrap();
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(m.cpu().reg(Reg::R1), 3);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = machine_with("top:\n jmp top\n");
        assert_eq!(
            m.run(&mut NullObserver, 10),
            Err(MachineError::OutOfFuel { steps: 10 })
        );
    }

    #[test]
    fn observer_sees_control_flow() {
        #[derive(Default)]
        struct Watcher {
            indirect_taken: u32,
            cond_total: u32,
            stores: u32,
        }
        impl ExecutionObserver for Watcher {
            fn on_retire(&mut self, ev: &RetireEvent) {
                if ev.control.indirect && ev.control.taken {
                    self.indirect_taken += 1;
                }
                if ev.control.kind == ControlKind::Conditional {
                    self.cond_total += 1;
                }
                if ev.mem.is_some_and(|m| m.is_store) {
                    self.stores += 1;
                }
            }
        }
        let mut m = machine_with(
            r"
            li r1, 3
        top:
            addi r1, r1, -1
            cmpi r1, 0
            bne top
            li r9, out
            jr r9
        out:
            push r1
            halt
        ",
        );
        let mut w = Watcher::default();
        m.run(&mut w, 1000).unwrap();
        assert_eq!(w.indirect_taken, 1);
        assert_eq!(w.cond_total, 3);
        assert_eq!(w.stores, 1);
    }

    /// Every instruction the decoder produces, one per opcode, with
    /// operands that execute without faulting on [`variant_machine`].
    fn every_variant() -> Vec<Instr> {
        // rd = r1, rs1 = r2, rs2 = r0, imm = 16.
        let instrs: Vec<Instr> = (0..=u8::MAX)
            .filter_map(|op| strata_isa::decode((op as u32) << 24 | 0x12_0010).ok())
            .collect();
        assert!(instrs.len() > 40, "the opcode sweep found {instrs:?}");
        instrs
    }

    fn variant_machine(instr: Instr, tier: ExecTier) -> Machine {
        let mut m = Machine::new(0x80_0000);
        m.write_code(0x100, &[strata_isa::encode(&instr)]).unwrap();
        m.cpu_mut().pc = 0x100;
        m.cpu_mut().set_reg(Reg::R2, 0x2000);
        m.cpu_mut().set_sp(0x4000);
        m.set_tier(tier);
        m
    }

    #[test]
    fn every_variant_retires_its_own_shape() {
        // `exec` writes each arm's class, control kind and memory shape as
        // literals; this holds them to the ISA's own classification, and
        // shows all three loops (and translated slots) retire alike.
        use Instr::*;
        #[derive(Default)]
        struct Rec(Vec<RetireEvent>);
        impl ExecutionObserver for Rec {
            fn on_retire(&mut self, ev: &RetireEvent) {
                self.0.push(*ev);
            }
        }
        let threaded = |threshold| {
            ExecTier::Threaded(crate::TierConfig {
                threshold,
                ..Default::default()
            })
        };
        let loops: [(&str, ExecTier, bool); 4] = [
            ("run", ExecTier::Interp, false),
            ("step", ExecTier::Interp, true),
            ("tiered loop, interpreted", threaded(u32::MAX), false),
            ("tiered loop, translated", threaded(1), false),
        ];
        let mut translated = 0;
        for instr in every_variant() {
            let is_store = matches!(
                instr,
                Sw { .. }
                    | Sb { .. }
                    | Swa { .. }
                    | Push { .. }
                    | Pushf
                    | Call { .. }
                    | Callr { .. }
            );
            let is_load = matches!(
                instr,
                Lw { .. }
                    | Lb { .. }
                    | Lbu { .. }
                    | Lwa { .. }
                    | Pop { .. }
                    | Popf
                    | Ret
                    | Jmem { .. }
            );
            let indirect = matches!(instr, Jr { .. } | Callr { .. } | Ret | Jmem { .. });
            for (name, tier, step) in loops {
                let mut m = variant_machine(instr, tier);
                let mut rec = Rec::default();
                let result = if step {
                    m.step(&mut rec)
                } else {
                    m.run(&mut rec, 1)
                };
                match (instr, result) {
                    (Trap { code }, out) => assert_eq!(out, Ok(StepOutcome::Trap(code))),
                    (Halt, out) => assert_eq!(out, Ok(StepOutcome::Halted)),
                    (_, out) if step => assert_eq!(out, Ok(StepOutcome::Running)),
                    (_, out) => assert_eq!(out, Err(MachineError::OutOfFuel { steps: 1 })),
                }
                let [ev] = rec.0[..] else {
                    panic!("{name}: {instr:?} retired {:?}", rec.0)
                };
                let ctx = format!("{name}: {instr:?} retired {ev:?}");
                assert_eq!((ev.pc, ev.instr), (0x100, instr), "{ctx}");
                assert_eq!(ev.class, instr.class(), "{ctx}");
                assert_eq!(ev.control.kind, instr.control_kind(), "{ctx}");
                assert_eq!(ev.control.indirect, indirect, "{ctx}");
                assert_eq!(ev.control.target, m.cpu().pc, "{ctx}");
                assert_eq!(ev.control.taken, m.cpu().pc != 0x104, "{ctx}");
                assert_eq!(ev.mem.is_some(), is_store || is_load, "{ctx}");
                assert_eq!(ev.mem.is_some_and(|a| a.is_store), is_store, "{ctx}");
                translated += m.tier_stats().map_or(0, |t| t.translated_retired);
            }
        }
        assert!(translated > 40, "threshold 1 translates on first arrival");
    }

    #[test]
    fn pop_into_sp_loads_value() {
        let m = run(r"
            li r1, 0x4000
            push r1
            pop sp
            halt
        ");
        assert_eq!(m.cpu().sp(), 0x4000);
    }
}
