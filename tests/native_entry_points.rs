//! Every native entry point goes through the one run-to-halt driver, so
//! each keeps its contract: a trap reserved for the SDT runtime is an
//! error (in release builds too, where a `debug_assert!` would be gone),
//! and running dry after a syscall names the caller's budget, not the
//! slice left after the trap.

use strata_lab::analysis::validate_program_tier;
use strata_lab::arch::{ArchModel, ArchProfile};
use strata_lab::asm::assemble;
use strata_lab::core::{run_native, run_native_with_model};
use strata_lab::machine::{
    layout, run_to_halt, ExecTier, InstrCounter, MachineError, NativeError, Program,
};

/// What a run ended with: its error, or `halted`.
fn outcome<T, E: ToString>(run: Result<T, E>) -> String {
    run.map_or_else(|e| e.to_string(), |_| "halted".into())
}

/// Each native entry point's outcome on `src` run with `fuel`, named.
fn outcomes(src: &str, fuel: u64) -> Vec<(String, String)> {
    let program = Program::new("t", assemble(layout::APP_BASE, src).unwrap(), Vec::new());
    let p = &program;
    let native = run_native(p, ArchProfile::x86_like(), fuel);
    let mut out = vec![("run_native".to_string(), outcome(native))];
    for tier in [ExecTier::Interp, ExecTier::Threaded(Default::default())] {
        let mut counter = InstrCounter::default();
        let driver = run_to_halt(p, tier, fuel, &mut counter, InstrCounter::retired);
        let model = ArchModel::new(ArchProfile::x86_like());
        let native = run_native_with_model(p, model, fuel, tier);
        let recorded = strata_lab::trace::record(p, fuel, tier);
        let validated = validate_program_tier(p, tier, fuel);
        out.extend([
            (format!("run_to_halt {tier:?}"), outcome(driver)),
            (format!("run_native_with_model {tier:?}"), outcome(native)),
            (format!("trace::record {tier:?}"), outcome(recorded)),
            (
                format!("validate_program_tier {tier:?}"),
                outcome(validated),
            ),
        ]);
    }
    out
}

#[test]
fn a_reserved_trap_is_an_error_from_every_native_entry_point() {
    let pc = layout::APP_BASE + 4;
    let expected = NativeError::ReservedTrap { code: 0xF002, pc }.to_string();
    for (entry, error) in outcomes("trap 0x1\ntrap 0xF002\nhalt\n", 1000) {
        assert!(error.contains(&expected), "{entry}: {error}");
    }
}

#[test]
fn running_dry_after_a_syscall_names_the_callers_budget() {
    // The syscall ends the first segment after one instruction; the
    // second runs dry on the 499 left and must not report that.
    let expected = MachineError::OutOfFuel { steps: 500 }.to_string();
    for (entry, error) in outcomes("trap 0x1\ntop:\njmp top\n", 500) {
        assert!(error.contains(&expected), "{entry}: {error}");
    }
}
