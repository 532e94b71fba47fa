//! Native (untranslated) execution — the baseline every slowdown is
//! measured against.

use strata_arch::{ArchModel, ArchProfile};
use strata_isa::{ControlKind, Reg};
use strata_machine::syscall::{SyscallState, SDT_TRAP_BASE};
use strata_machine::{
    layout, ExecTier, ExecutionObserver, Machine, MachineError, Program, RetireEvent, StepOutcome,
};

use crate::SdtError;

/// Measurements from a native (untranslated) run of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeRun {
    /// Syscall checksum — the program's observable result.
    pub checksum: u32,
    /// Total cycles under the architecture model.
    pub total_cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Dynamic count of indirect jumps (`jr`, `jmem`).
    pub indirect_jumps: u64,
    /// Dynamic count of indirect calls (`callr`).
    pub indirect_calls: u64,
    /// Dynamic count of returns.
    pub returns: u64,
    /// Dynamic count of direct calls.
    pub direct_calls: u64,
    /// Dynamic count of conditional branches.
    pub cond_branches: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Final register file (for state-equivalence checks in tests).
    pub regs: [u32; Reg::COUNT],
}

impl NativeRun {
    /// Dynamic count of all indirect branches (jumps + calls + returns) —
    /// the paper's "IB" count.
    pub fn indirect_branches(&self) -> u64 {
        self.indirect_jumps + self.indirect_calls + self.returns
    }
}

struct NativeObserver {
    model: ArchModel,
    indirect_jumps: u64,
    indirect_calls: u64,
    returns: u64,
    direct_calls: u64,
    cond_branches: u64,
}

impl ExecutionObserver for NativeObserver {
    #[inline(always)]
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.model.cost_of(ev);
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

/// Runs `program` directly (no translation) on the interpreter under a
/// fresh legacy-predictor cost model for `profile`.
///
/// # Errors
///
/// Returns [`SdtError::ReservedTrap`] if the program uses an SDT-reserved
/// trap code, and machine faults (including fuel exhaustion) as
/// [`SdtError::Machine`].
pub fn run_native(
    program: &Program,
    profile: ArchProfile,
    fuel: u64,
) -> Result<NativeRun, SdtError> {
    run_native_with_model(program, ArchModel::new(profile), fuel, ExecTier::Interp)
}

/// [`run_native`] with an explicit cost model and execution tier.
///
/// The tier decides how the host executes guest instructions (pure
/// interpretation vs direct-threaded superblock translation of hot
/// regions); the retire-event stream — and therefore every charged
/// cycle, cache access, and predictor outcome — is bit-identical across
/// tiers, so tier choice can never move a reported metric. Only
/// wall-clock changes.
///
/// # Errors
///
/// Same contract as [`run_native`].
pub fn run_native_with_model(
    program: &Program,
    model: ArchModel,
    fuel: u64,
    tier: ExecTier,
) -> Result<NativeRun, SdtError> {
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut machine)?;
    machine.set_tier(tier);
    let mut syscalls = SyscallState::new();
    let mut obs = NativeObserver {
        model,
        indirect_jumps: 0,
        indirect_calls: 0,
        returns: 0,
        direct_calls: 0,
        cond_branches: 0,
    };

    let mut used = 0u64;
    loop {
        let before = obs.model.stats().instructions;
        match machine.run(&mut obs, fuel.saturating_sub(used)) {
            Ok(StepOutcome::Halted) => break,
            Ok(StepOutcome::Trap(code)) => {
                if code >= SDT_TRAP_BASE {
                    return Err(SdtError::ReservedTrap {
                        code,
                        pc: machine.cpu().pc.wrapping_sub(4),
                    });
                }
                syscalls.handle(code, &machine);
            }
            Ok(StepOutcome::Running) => unreachable!("run returns only on halt/trap/error"),
            // `run` names the slice it was handed; report the caller's budget.
            Err(MachineError::OutOfFuel { .. }) => {
                return Err(MachineError::OutOfFuel { steps: fuel }.into())
            }
            Err(fault) => return Err(fault.into()),
        }
        used += obs.model.stats().instructions - before;
    }

    Ok(NativeRun {
        checksum: syscalls.checksum(),
        total_cycles: obs.model.total_cycles(),
        instructions: obs.model.stats().instructions,
        indirect_jumps: obs.indirect_jumps,
        indirect_calls: obs.indirect_calls,
        returns: obs.returns,
        direct_calls: obs.direct_calls,
        cond_branches: obs.cond_branches,
        icache_misses: obs.model.icache().misses(),
        dcache_misses: obs.model.dcache().misses(),
        regs: *machine.cpu().regs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_asm::assemble;

    #[test]
    fn out_of_fuel_names_the_callers_budget() {
        // The trap ends `Machine::run` after one instruction; the second
        // call runs dry on the remaining 499 and must not report that.
        let code = assemble(layout::APP_BASE, "trap 0x1\ntop:\njmp top\n").unwrap();
        let program = Program::new("t", code, Vec::new());
        match run_native(&program, ArchProfile::x86_like(), 500) {
            Err(SdtError::Machine(MachineError::OutOfFuel { steps: 500 })) => {}
            other => panic!("expected OutOfFuel {{ steps: 500 }}, got {other:?}"),
        }
    }
}
