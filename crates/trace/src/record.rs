//! Reference-run recording: one native pass, four cost models, one
//! retire stream.
//!
//! This mirrors [`strata_core::run_native_with_model`]'s loop exactly — same
//! machine construction, same syscall handling, same fuel accounting —
//! but chains an [`ArchModel`] per profile plus a [`RetireLog`] onto the
//! single execution, so the resulting [`Trace`] header carries native
//! baselines for *every* profile while the guest runs once.

use strata_arch::{ArchModel, ArchProfile};
use strata_core::{NativeRun, SdtError};
use strata_isa::ControlKind;
use strata_machine::observers::RetireLog;
use strata_machine::syscall::{SyscallState, SDT_TRAP_BASE};
use strata_machine::{
    layout, ExecTier, ExecutionObserver, Machine, Program, RetireEvent, StepOutcome,
};

use crate::file::{NativeSummary, Trace};

/// The raw outcome of a recording pass, before packaging into a
/// [`Trace`].
#[derive(Debug)]
pub struct Recorded {
    /// Syscall checksum of the run.
    pub checksum: u32,
    /// Per-profile native baselines, in [`profiles`](recording_profiles)
    /// order.
    pub natives: Vec<NativeSummary>,
    /// The full retire stream.
    pub log: RetireLog,
}

/// The profiles every trace records baselines for: the three real cost
/// models plus the ideal control.
pub fn recording_profiles() -> Vec<ArchProfile> {
    let mut v = ArchProfile::all();
    v.push(ArchProfile::ideal());
    v
}

struct MultiObserver {
    models: Vec<ArchModel>,
    log: RetireLog,
    indirect_jumps: u64,
    indirect_calls: u64,
    returns: u64,
    direct_calls: u64,
    cond_branches: u64,
}

impl ExecutionObserver for MultiObserver {
    #[inline]
    fn on_retire(&mut self, ev: &RetireEvent) {
        for m in &mut self.models {
            m.cost_of(ev);
        }
        self.log.on_retire(ev);
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

/// Runs `program` natively once, recording the retire stream and a
/// [`NativeRun`] under every recording profile.
///
/// # Errors
///
/// Same contract as [`strata_core::run_native_with_model`]: reserved traps
/// and machine faults (including fuel exhaustion) are [`SdtError`]s.
pub fn record(program: &Program, fuel: u64, tier: ExecTier) -> Result<Recorded, SdtError> {
    let profiles = recording_profiles();
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut machine)?;
    machine.set_tier(tier);
    let mut syscalls = SyscallState::new();
    let mut obs = MultiObserver {
        models: profiles.iter().cloned().map(ArchModel::new).collect(),
        log: RetireLog::new(),
        indirect_jumps: 0,
        indirect_calls: 0,
        returns: 0,
        direct_calls: 0,
        cond_branches: 0,
    };

    let mut used = 0u64;
    loop {
        let before = obs.models[0].stats().instructions;
        match machine.run(&mut obs, fuel.saturating_sub(used))? {
            StepOutcome::Halted => break,
            StepOutcome::Trap(code) => {
                if code >= SDT_TRAP_BASE {
                    return Err(SdtError::ReservedTrap {
                        code,
                        pc: machine.cpu().pc.wrapping_sub(4),
                    });
                }
                syscalls.handle(code, &machine);
            }
            StepOutcome::Running => unreachable!("run returns only on halt/trap/error"),
        }
        used += obs.models[0].stats().instructions - before;
    }

    let checksum = syscalls.checksum();
    let regs = *machine.cpu().regs();
    let natives = profiles
        .iter()
        .zip(&obs.models)
        .map(|(profile, model)| NativeSummary {
            profile: profile.name.to_string(),
            run: NativeRun {
                checksum,
                total_cycles: model.total_cycles(),
                instructions: model.stats().instructions,
                indirect_jumps: obs.indirect_jumps,
                indirect_calls: obs.indirect_calls,
                returns: obs.returns,
                direct_calls: obs.direct_calls,
                cond_branches: obs.cond_branches,
                icache_misses: model.icache().misses(),
                dcache_misses: model.dcache().misses(),
                regs,
            },
        })
        .collect();

    Ok(Recorded {
        checksum,
        natives,
        log: obs.log,
    })
}

impl Recorded {
    /// Packages the recording as a [`Trace`] for `workload` at the given
    /// params and sampling interval.
    pub fn into_trace(self, workload: &str, scale: u32, variant: u64, interval: u64) -> Trace {
        Trace {
            workload: workload.to_string(),
            scale,
            variant,
            interval,
            checksum: self.checksum,
            natives: self.natives,
            records: self.log.into_records(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_core::run_native;

    fn program(name: &str) -> Program {
        let spec = strata_workloads::by_name(name).expect("workload exists");
        (spec.build)(&strata_workloads::Params::default())
    }

    #[test]
    fn recorded_baselines_match_run_native_per_profile() {
        let prog = program("gzip");
        let rec = record(&prog, 1 << 30, ExecTier::Interp).unwrap();
        assert_eq!(rec.natives.len(), 4);
        for summary in &rec.natives {
            let profile = recording_profiles()
                .into_iter()
                .find(|p| p.name == summary.profile)
                .unwrap();
            let direct = run_native(&prog, profile, 1 << 30).unwrap();
            assert_eq!(summary.run, direct, "profile {}", summary.profile);
        }
    }

    #[test]
    fn stream_length_matches_instruction_count() {
        let prog = program("gzip");
        let rec = record(&prog, 1 << 30, ExecTier::Interp).unwrap();
        assert_eq!(
            rec.log.records().len() as u64,
            rec.natives[0].run.instructions
        );
    }

    #[test]
    fn recording_is_deterministic() {
        let prog = program("parser");
        let a = record(&prog, 1 << 30, ExecTier::Interp).unwrap();
        let b = record(&prog, 1 << 30, ExecTier::Interp).unwrap();
        assert_eq!(a.log.records(), b.log.records());
        assert_eq!(a.checksum, b.checksum);
    }
}
