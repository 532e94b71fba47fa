//! Minimal syscall convention for guest programs.
//!
//! Workloads need a way to produce externally visible results (so
//! correctness under translation can be checked) without modeling real I/O.
//! Trap codes below [`SDT_TRAP_BASE`] are *application* traps; the SDT
//! passes them through untranslated, so the same [`SyscallState`] services
//! a program whether it runs natively or under translation.

/// First trap code reserved for SDT-internal use. Application syscalls must
/// use codes below this value.
pub const SDT_TRAP_BASE: u16 = 0xF000;

/// `trap SYS_CHECKSUM`: folds the value in `r4` into the run checksum.
pub const SYS_CHECKSUM: u16 = 0x0001;

/// `trap SYS_EMIT`: records the value in `r4` into the output stream (and
/// folds it into the checksum too).
pub const SYS_EMIT: u16 = 0x0002;

use strata_isa::Reg;

use crate::Machine;

/// Host-side state accumulated by application syscalls.
///
/// ```
/// use strata_machine::syscall::SyscallState;
/// let s = SyscallState::default();
/// assert_eq!(s.checksum(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallState {
    checksum: u32,
    emitted: Vec<u32>,
}

impl SyscallState {
    /// Creates empty syscall state.
    pub fn new() -> SyscallState {
        SyscallState::default()
    }

    /// The running checksum over all `SYS_CHECKSUM`/`SYS_EMIT` values.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// Values recorded by `SYS_EMIT`, in order.
    pub fn emitted(&self) -> &[u32] {
        &self.emitted
    }

    /// Services an application trap. Returns `true` if the code was an
    /// application syscall handled here, `false` for unknown/SDT codes.
    pub fn handle(&mut self, code: u16, machine: &Machine) -> bool {
        match code {
            SYS_CHECKSUM => {
                self.fold(machine.cpu().reg(Reg::R4));
                true
            }
            SYS_EMIT => {
                let v = machine.cpu().reg(Reg::R4);
                self.emitted.push(v);
                self.fold(v);
                true
            }
            _ => false,
        }
    }

    fn fold(&mut self, value: u32) {
        self.checksum = self
            .checksum
            .wrapping_mul(31)
            .wrapping_add(value)
            .rotate_left(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layout, Machine, NullObserver, StepOutcome};
    use strata_asm::assemble;

    #[test]
    fn checksum_accumulates_deterministically() {
        let src = r"
            li r4, 7
            trap 0x1
            li r4, 9
            trap 0x2
            halt
        ";
        let run_once = || {
            let code = assemble(layout::APP_BASE, src).unwrap();
            let mut m = Machine::new(0x20_0000);
            m.write_code(layout::APP_BASE, &code).unwrap();
            m.cpu_mut().pc = layout::APP_BASE;
            let mut sys = SyscallState::default();
            loop {
                match m.run(&mut NullObserver, 1000).unwrap() {
                    StepOutcome::Trap(code) => {
                        assert!(sys.handle(code, &m));
                    }
                    StepOutcome::Halted => break,
                    StepOutcome::Running => unreachable!(),
                }
            }
            sys
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert_eq!(a.emitted(), &[9]);
        assert_ne!(a.checksum(), 0);
    }

    #[test]
    fn unknown_codes_are_rejected() {
        let m = Machine::new(0x1000);
        let mut sys = SyscallState::default();
        assert!(!sys.handle(SDT_TRAP_BASE, &m));
        assert!(!sys.handle(0x7777, &m));
    }
}
