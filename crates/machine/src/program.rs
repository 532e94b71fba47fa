use crate::{layout, Machine, MachineError};

/// A loadable SimRISC program: code, optional static data, and an entry
/// point.
///
/// Programs follow the conventional [`layout`]: code at
/// [`layout::APP_BASE`], data at [`layout::APP_DATA_BASE`]. The workload
/// generators in `strata-workloads` all produce `Program`s; both the native
/// runner and the SDT consume them.
#[derive(Debug, Clone)]
pub struct Program {
    /// Human-readable name (e.g. the SPEC stand-in benchmark name).
    pub name: String,
    /// Machine words loaded at [`Program::code_base`].
    pub code: Vec<u32>,
    /// Byte address the code is loaded at.
    pub code_base: u32,
    /// Static data loaded at [`Program::data_base`].
    pub data: Vec<u8>,
    /// Byte address the data is loaded at.
    pub data_base: u32,
    /// Initial program counter.
    pub entry: u32,
}

impl Program {
    /// Creates a program using the conventional layout, entered at its
    /// first instruction.
    pub fn new(name: impl Into<String>, code: Vec<u32>, data: Vec<u8>) -> Program {
        Program {
            name: name.into(),
            code,
            code_base: layout::APP_BASE,
            data,
            data_base: layout::APP_DATA_BASE,
            entry: layout::APP_BASE,
        }
    }

    /// Size of the code in bytes.
    pub(crate) fn code_bytes(&self) -> u32 {
        self.code.len() as u32 * 4
    }

    /// First byte address past the end of the code.
    pub fn code_end(&self) -> u32 {
        self.code_base + self.code_bytes()
    }

    /// Loads the program into `machine` and points `pc` at the entry.
    ///
    /// The stack pointer is reset to the top of memory.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if code or data do not fit.
    pub fn load(&self, machine: &mut Machine) -> Result<(), MachineError> {
        machine.write_code(self.code_base, &self.code)?;
        machine.mem_mut().write_bytes(self.data_base, &self.data)?;
        let sp = machine.mem().size();
        let cpu = machine.cpu_mut();
        cpu.pc = self.entry;
        cpu.set_sp(sp);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullObserver, StepOutcome};
    use strata_asm::assemble;
    use strata_isa::Reg;

    #[test]
    fn load_and_run() {
        let code = assemble(
            layout::APP_BASE,
            &format!("li r1, {}\nlw r2, 0(r1)\nhalt\n", layout::APP_DATA_BASE),
        )
        .unwrap();
        let program = Program::new("t", code, vec![0x78, 0x56, 0x34, 0x12]);
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        program.load(&mut m).unwrap();
        assert_eq!(m.run(&mut NullObserver, 100).unwrap(), StepOutcome::Halted);
        assert_eq!(m.cpu().reg(Reg::R2), 0x12345678);
    }

    #[test]
    fn code_extent_helpers() {
        let p = Program::new("t", vec![0; 10], Vec::new());
        assert_eq!(p.code_bytes(), 40);
        assert_eq!(p.code_end(), layout::APP_BASE + 40);
    }
}
