//! Native execution: a guest run to `halt` on a bare machine, the
//! reference every slowdown is measured against.
//!
//! [`run_to_halt`] is the one native run loop. The native cell, trace
//! recording and tier validation each hand it their own observer;
//! [`BranchCensus`] is the dynamic branch count they share.

use std::fmt;

use strata_isa::ControlKind;

use crate::syscall::{SyscallState, SDT_TRAP_BASE};
use crate::{
    layout, ExecTier, ExecutionObserver, Machine, MachineError, Program, RetireEvent, StepOutcome,
};

/// Dynamic branch counts of a run, by kind: the paper's Table 1 census.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCensus {
    /// Indirect jumps (`jr`, `jmem`).
    pub indirect_jumps: u64,
    /// Indirect calls (`callr`).
    pub indirect_calls: u64,
    /// Returns.
    pub returns: u64,
    /// Direct calls.
    pub direct_calls: u64,
    /// Conditional branches.
    pub cond_branches: u64,
}

impl BranchCensus {
    /// All indirect branches (jumps + calls + returns): the paper's "IB"
    /// count.
    pub fn indirect_branches(&self) -> u64 {
        self.indirect_jumps + self.indirect_calls + self.returns
    }
}

impl ExecutionObserver for BranchCensus {
    #[inline(always)]
    fn on_retire(&mut self, ev: &RetireEvent) {
        match ev.control.kind {
            ControlKind::Indirect => self.indirect_jumps += 1,
            ControlKind::Call if ev.control.indirect => self.indirect_calls += 1,
            ControlKind::Call => self.direct_calls += 1,
            ControlKind::Return => self.returns += 1,
            ControlKind::Conditional => self.cond_branches += 1,
            _ => {}
        }
    }
}

/// Why a native run stopped before `halt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeError {
    /// The guest raised a trap code reserved for the SDT runtime.
    ReservedTrap {
        /// Offending code.
        code: u16,
        /// Address of the `trap`.
        pc: u32,
    },
    /// The machine faulted or ran out of fuel.
    Machine(MachineError),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::ReservedTrap { code, pc } => {
                write!(
                    f,
                    "application trap {code:#x} at {pc:#x} is reserved for the SDT runtime"
                )
            }
            NativeError::Machine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for NativeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NativeError::Machine(e) => Some(e),
            NativeError::ReservedTrap { .. } => None,
        }
    }
}

impl From<MachineError> for NativeError {
    fn from(e: MachineError) -> NativeError {
        NativeError::Machine(e)
    }
}

/// Runs `program` on a fresh machine under `tier` until it halts,
/// servicing its application syscalls between [`Machine::run`] segments.
/// Returns the syscall checksum and the halted machine.
///
/// `retired` reads how many instructions the fresh `observer` has seen.
/// Each segment is handed what is left of `fuel` by that count, so the
/// observer's own counter is the fuel meter and the driver adds no work
/// per retired instruction.
///
/// # Errors
///
/// [`NativeError::ReservedTrap`] for a trap at or above
/// [`SDT_TRAP_BASE`], and machine faults as [`NativeError::Machine`].
/// Running dry is [`MachineError::OutOfFuel`] naming `fuel`, the caller's
/// budget, not the slice left after the last trap.
pub fn run_to_halt<O: ExecutionObserver>(
    program: &Program,
    tier: ExecTier,
    fuel: u64,
    observer: &mut O,
    retired: impl Fn(&O) -> u64,
) -> Result<(u32, Machine), NativeError> {
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut machine)?;
    machine.set_tier(tier);
    let mut syscalls = SyscallState::new();
    loop {
        let left = fuel.saturating_sub(retired(observer));
        match machine.run(observer, left) {
            Ok(StepOutcome::Halted) => return Ok((syscalls.checksum(), machine)),
            Ok(StepOutcome::Trap(code)) if code >= SDT_TRAP_BASE => {
                let pc = machine.cpu().pc.wrapping_sub(4);
                return Err(NativeError::ReservedTrap { code, pc });
            }
            Ok(StepOutcome::Trap(code)) => {
                syscalls.handle(code, &machine);
            }
            Ok(StepOutcome::Running) => unreachable!("run returns only on halt/trap/error"),
            Err(MachineError::OutOfFuel { .. }) => {
                return Err(MachineError::OutOfFuel { steps: fuel }.into())
            }
            Err(fault) => return Err(fault.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::Chain;
    use crate::InstrCounter;
    use strata_asm::assemble;

    #[test]
    fn census_counts_each_kind_by_hand() {
        // Two passes of: jr, callr + ret, call + ret, bne (taken once,
        // not taken once); then jmem, a syscall and halt.
        let src = format!(
            r"
            li r5, 2
        top:
            li r9, body
            jr r9
        body:
            li r8, f
            callr r8
            call f
            addi r5, r5, -1
            cmpi r5, 0
            bne top
            li r1, done
            li r2, {slot}
            sw r1, 0(r2)
            jmem [{slot}]
        done:
            trap 0x1
            halt
        f:
            ret
            ",
            slot = layout::APP_DATA_BASE
        );
        let program = Program::new("t", assemble(layout::APP_BASE, &src).unwrap(), Vec::new());
        let mut obs = Chain::new(InstrCounter::default(), BranchCensus::default());
        run_to_halt(&program, ExecTier::Interp, 10_000, &mut obs, |o| {
            o.first().retired()
        })
        .unwrap();
        let expected = BranchCensus {
            indirect_jumps: 2 + 1,
            indirect_calls: 2,
            returns: 4,
            direct_calls: 2,
            cond_branches: 2,
        };
        assert_eq!(*obs.second(), expected);
        assert_eq!(expected.indirect_branches(), 3 + 2 + 4);
    }
}
