//! Reference-run recording: one native run priced under every recording
//! profile, with its retire stream.
//!
//! A recording is [`run_to_halt`] with one [`ArchModel`] per profile, a
//! [`RetireLog`] and a [`BranchCensus`] chained onto the single
//! execution, so the resulting [`Trace`] header carries the native
//! baseline of *every* profile while the guest runs once. Each baseline
//! equals what [`strata_core::run_native`] reports for that profile.

use strata_arch::{ArchModel, ArchProfile};
use strata_core::{NativeRun, SdtError};
use strata_machine::observers::{Chain, RetireLog};
use strata_machine::{run_to_halt, BranchCensus, ExecTier, Program};

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

/// Runs `program` natively once, recording the retire stream and a
/// [`NativeRun`] under every recording profile.
///
/// # Errors
///
/// Same contract as [`strata_core::run_native_with_model`]: reserved traps
/// and machine faults (including fuel exhaustion) are [`SdtError`]s.
pub fn record(program: &Program, fuel: u64, tier: ExecTier) -> Result<Recorded, SdtError> {
    let profiles = recording_profiles();
    let models: Vec<ArchModel> = profiles.iter().cloned().map(ArchModel::new).collect();
    let mut obs = Chain::new(
        models,
        Chain::new(RetireLog::new(), BranchCensus::default()),
    );
    let (checksum, machine) = run_to_halt(program, tier, fuel, &mut obs, |o| {
        o.first()[0].instructions()
    })?;
    let (models, tail) = obs.into_inner();
    let (log, census) = tail.into_inner();
    let natives = profiles
        .iter()
        .zip(&models)
        .map(|(profile, model)| NativeSummary {
            profile: profile.name.to_string(),
            run: NativeRun::new(checksum, model, &census, &machine),
        })
        .collect();
    Ok(Recorded {
        checksum,
        natives,
        log,
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
