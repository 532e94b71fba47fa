//! `strata verify` over its `--all` sweep ([`VERIFY_SWEEP`]): every
//! registered mechanism and the mixed-policy configurations of the
//! fig. 18 experiment. The checker must come back clean on everything the
//! translator emits, the sweep must reach every registered mechanism, and
//! a deliberately corrupted cache must be flagged.

use strata_analysis::{self as analysis, CacheImage, Lint};
use strata_arch::ArchProfile;
use strata_core::{Sdt, SdtConfig};
use strata_isa::{encode, Instr, Reg};
use strata_lab::cli::{parse_config, parse_policy, VERIFY_SWEEP};
use strata_workloads::{by_name, Params};

const FUEL: u64 = 400_000_000;

fn config_for(spec: &str, policy: &str) -> SdtConfig {
    let mut cfg = parse_config(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
    if !policy.is_empty() {
        parse_policy(policy, &mut cfg).unwrap_or_else(|e| panic!("{policy}: {e}"));
    }
    cfg.validate().unwrap_or_else(|e| panic!("{spec}: {e:?}"));
    cfg
}

fn image_for(workload: &str, cfg: SdtConfig) -> CacheImage {
    let program = (by_name(workload).unwrap().build)(&Params::default());
    let mut sdt = Sdt::new(cfg, &program).expect("sdt constructs");
    sdt.run(ArchProfile::x86_like(), FUEL)
        .expect("run completes");
    CacheImage::capture(&sdt)
}

fn assert_clean(workload: &str, spec: &str, policy: &str) {
    let img = image_for(workload, config_for(spec, policy));
    let report = analysis::verify_image(&img);
    assert!(
        report.is_clean(),
        "[{workload}] `{spec}` policy `{policy}` not clean:\n{}",
        report.render_text()
    );
    assert!(
        report.stats.fragments > 0,
        "[{workload}] `{spec}` translated nothing"
    );
    assert!(
        report.stats.edges > 0,
        "[{workload}] `{spec}` recovered no edges"
    );
}

/// The sweep's entries whose jump and call classes share one strategy
/// (`mixed == false`) or bind different ones (`mixed == true`).
fn sweep(mixed: bool) -> impl Iterator<Item = (&'static str, &'static str)> {
    VERIFY_SWEEP.into_iter().filter(move |&(spec, policy)| {
        let cfg = config_for(spec, policy);
        (cfg.policy.jump != cfg.policy.call) == mixed
    })
}

#[test]
fn all_single_mechanism_configs_verify_clean() {
    for (spec, policy) in sweep(false) {
        assert_clean("perlbmk", spec, policy);
    }
}

#[test]
fn mixed_policy_configs_verify_clean() {
    for (spec, policy) in sweep(true) {
        assert_clean("perlbmk", spec, policy);
    }
}

#[test]
fn verify_sweep_covers_every_registered_mechanism() {
    let program = (by_name("perlbmk").unwrap().build)(&Params::default());
    let mut covered = Vec::new();
    for (spec, policy) in VERIFY_SWEEP {
        let sdt = Sdt::new(config_for(spec, policy), &program).expect("sdt constructs");
        covered.extend(sdt.policy_summary().into_iter().map(|(_, mech)| mech));
    }
    // A strategy reports itself by its description, which starts with its
    // id (a return cache describes itself as `rc(n)`).
    for info in strata_core::mechanism_registry() {
        let name = if info.id == "retcache" { "rc" } else { info.id };
        let seen = covered.iter().any(|m| m.starts_with(name));
        assert!(
            seen,
            "`verify --all` never reaches `{}`: {covered:?}",
            info.id
        );
    }
    assert_eq!(
        sweep(false).count() + sweep(true).count(),
        VERIFY_SWEEP.len()
    );
}

#[test]
fn call_heavy_workload_verifies_clean_under_return_mechanisms() {
    for (spec, policy) in [
        ("tuned:512,1024", ""),
        ("fastret:512", ""),
        ("shadow:512,256", ""),
    ] {
        assert_clean("eon", spec, policy);
    }
}

/// Corrupting an unlinked exit trampoline's spill head into a `cmp` must
/// trip the flags-liveness lint: at that point the application's flags
/// are live and unsaved, so a flags-writing instruction is a clobber.
#[test]
fn clobbering_mutation_is_flagged() {
    let mut img = image_for("perlbmk", config_for("ibtc:4096+nolink", ""));
    let unlinked = img
        .meta
        .exit_sites
        .iter()
        .map(|e| e.patch_addr)
        .find(|&a| {
            matches!(
                img.line_at(a).and_then(|l| l.instr),
                Some(Instr::Swa { .. })
            )
        })
        .expect("an unlinked exit trampoline head");
    let clobber = Instr::Cmp {
        rs1: Reg::R1,
        rs2: Reg::R2,
    };
    img.patch_word(unlinked, encode(&clobber));
    let report = analysis::verify_image(&img);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::FlagsClobber && d.addr == unlinked),
        "expected a flags-clobber finding at {unlinked:#x}:\n{}",
        report.render_text()
    );
}
