//! Native (untranslated) execution — the baseline every slowdown is
//! measured against.

use strata_arch::{ArchModel, ArchProfile};
use strata_isa::Reg;
use strata_machine::observers::Chain;
use strata_machine::{run_to_halt, BranchCensus, ExecTier, Machine, Program};

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
    /// The measurements of a native run that halted as `machine` with
    /// syscall checksum `checksum`, priced by `model`.
    pub fn new(checksum: u32, model: &ArchModel, census: &BranchCensus, machine: &Machine) -> Self {
        NativeRun {
            checksum,
            total_cycles: model.total_cycles(),
            instructions: model.instructions(),
            indirect_jumps: census.indirect_jumps,
            indirect_calls: census.indirect_calls,
            returns: census.returns,
            direct_calls: census.direct_calls,
            cond_branches: census.cond_branches,
            icache_misses: model.icache().misses(),
            dcache_misses: model.dcache().misses(),
            regs: *machine.cpu().regs(),
        }
    }

    /// Dynamic count of all indirect branches (jumps + calls + returns) —
    /// the paper's "IB" count.
    pub fn indirect_branches(&self) -> u64 {
        self.indirect_jumps + self.indirect_calls + self.returns
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
    let mut runs = run_native_models(program, vec![model], fuel, tier)?;
    Ok(runs.remove(0))
}

/// Runs `program` natively once, priced under every model of `models`:
/// one [`NativeRun`] per model, in order, each equal to what
/// [`run_native_with_model`] reports for that model alone.
///
/// # Errors
///
/// Same contract as [`run_native`].
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn run_native_models(
    program: &Program,
    models: Vec<ArchModel>,
    fuel: u64,
    tier: ExecTier,
) -> Result<Vec<NativeRun>, SdtError> {
    let mut obs = Chain::new(models, BranchCensus::default());
    let (checksum, machine) = run_to_halt(program, tier, fuel, &mut obs, |o| {
        o.first()[0].instructions()
    })?;
    let (models, census) = obs.into_inner();
    Ok(models
        .iter()
        .map(|model| NativeRun::new(checksum, model, &census, &machine))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_asm::assemble;
    use strata_machine::{layout, MachineError};

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
