//! One execution priced under several models equals one run per model.
//!
//! [`Sdt::run_models`] executes the guest once: it counts each retired
//! instruction once, by origin, and steps every model's caches and
//! predictors on it. Each report must equal what [`Sdt::run`] reports for
//! that model alone, field for field — for every registered mechanism,
//! re-entry, unlinked fragments and a fragment cache small enough to
//! flush, under every profile and every predictor family. The same holds
//! for a native run priced under several models, and for a trace replay
//! ([`DispatchReplay::with_models`]): the replay path never reads a model,
//! so one replay under k models is k replays.
//!
//! The retire path is force-inlined, which takes its real shape only
//! under optimisation, so CI also runs this test in release.

use std::collections::BTreeSet;

use strata_arch::{ArchModel, ArchProfile, PredictorSpec};
use strata_core::{
    run_native_models, run_native_with_model, ClassPolicy, DispatchReplay, RetMechanism, Sdt,
    SdtConfig,
};
use strata_machine::observers::{CompactRetire, RetireLog};
use strata_machine::{run_to_halt, ExecTier, Program};
use strata_workloads::Params;

const FUEL: u64 = 200_000_000;

const WORKLOADS: [&str; 3] = ["gcc", "perlbmk", "eon"];

fn program(name: &str) -> Program {
    let spec = strata_workloads::by_name(name).expect("registered workload");
    (spec.build)(&Params::default())
}

/// One configuration per `mechanism_registry()` id, plus re-entry over
/// unlinked fragments and an 8 KiB cache that flushes.
fn configs() -> Vec<SdtConfig> {
    let with_ret = |mut cfg: SdtConfig, ret| {
        cfg.ret = ret;
        cfg
    };
    let with_jump = |policy| {
        let mut cfg = SdtConfig::ibtc_inline(256);
        cfg.policy.jump = policy;
        cfg
    };
    let mut nolink = SdtConfig::reentry();
    nolink.link_fragments = false;
    let mut small = SdtConfig::tuned(512, 128);
    small.cache_limit = Some(8192);
    vec![
        SdtConfig::reentry(),
        SdtConfig::ibtc_inline(256),
        SdtConfig::ibtc_out_of_line(256),
        SdtConfig::sieve(256),
        with_jump(ClassPolicy::Adaptive {
            ibtc_entries: 16,
            sieve_buckets: 64,
            sieve_arity: 2,
        }),
        with_jump(ClassPolicy::Predictive {
            sieve_buckets: 64,
            probation: 8,
        }),
        SdtConfig::tuned(512, 128),
        with_ret(SdtConfig::ibtc_inline(256), RetMechanism::FastReturn),
        with_ret(
            SdtConfig::sieve(64),
            RetMechanism::ShadowStack { depth: 16 },
        ),
        small,
        nolink,
    ]
}

/// Five models covering every profile and every predictor family; `turn`
/// rotates which profile meets which predictor.
fn models(turn: usize) -> Vec<ArchModel> {
    let mut profiles = ArchProfile::all();
    profiles.push(ArchProfile::ideal());
    let predictors = [
        PredictorSpec::Legacy,
        PredictorSpec::None,
        PredictorSpec::Btb { sets: 128, ways: 4 },
        PredictorSpec::Ittage { tables: 4 },
        PredictorSpec::Ideal,
    ];
    let profile = |i: usize| profiles[(i + turn) % profiles.len()].clone();
    (0..predictors.len())
        .map(|i| ArchModel::with_predictor_spec(profile(i), predictors[i]))
        .collect()
}

/// Runs the configurations `configs()` deals to `workload` (the `i`th to
/// `WORKLOADS[i % 3]`) once under five models, and once per model alone.
fn check_translated(workload: &str) {
    let program = program(workload);
    let dealt = configs().into_iter().enumerate();
    let mine = dealt.filter(|(i, _)| WORKLOADS[i % WORKLOADS.len()] == workload);
    for (turn, cfg) in mine {
        let what = format!("{workload} under {}", cfg.describe());
        let new = || Sdt::new(cfg, &program).expect("valid configuration");
        let priced = new().run_models(models(turn), FUEL).expect("runs");
        assert_eq!(priced.len(), 5, "{what}");
        for (model, report) in models(turn).into_iter().zip(&priced) {
            let arch = model.profile().name;
            let alone = new().run(model, FUEL).expect("runs");
            assert_eq!(report, &alone, "{what} on {arch}");
        }
        let flushes = priced[0].mech.cache_flushes;
        assert_eq!(flushes > 0, cfg.cache_limit.is_some(), "{what}");
    }
}

#[test]
fn gcc_executes_once_priced_like_one_run_per_model() {
    check_translated("gcc");
}

#[test]
fn perlbmk_executes_once_priced_like_one_run_per_model() {
    check_translated("perlbmk");
}

#[test]
fn eon_executes_once_priced_like_one_run_per_model() {
    check_translated("eon");
}

#[test]
fn configs_cover_every_registered_mechanism() {
    let program = program("gcc");
    let covered: BTreeSet<String> = configs()
        .into_iter()
        .flat_map(|cfg| Sdt::new(cfg, &program).expect("valid").policy_summary())
        .map(|(_, mechanism)| mechanism)
        .collect();
    for info in strata_core::mechanism_registry() {
        let name = if info.id == "retcache" { "rc" } else { info.id };
        let seen = covered.iter().any(|m| m.starts_with(name));
        assert!(seen, "no configuration covers `{}`: {covered:?}", info.id);
    }
}

#[test]
fn one_native_execution_prices_like_one_run_per_model() {
    for workload in WORKLOADS {
        let program = program(workload);
        let priced = run_native_models(&program, models(0), FUEL, ExecTier::Interp);
        let priced = priced.expect("runs");
        for (model, run) in models(0).into_iter().zip(&priced) {
            let arch = model.profile().name;
            let alone = run_native_with_model(&program, model, FUEL, ExecTier::Interp);
            assert_eq!(run, &alone.expect("runs"), "{workload} on {arch}");
        }
    }
}

/// The control records of `program`'s native retire stream, the only
/// ones a replay acts on.
fn control_stream(program: &Program) -> Vec<CompactRetire> {
    let mut log = RetireLog::new();
    let retired = |log: &RetireLog| log.records().len() as u64;
    run_to_halt(program, ExecTier::Interp, FUEL, &mut log, retired).expect("runs to halt");
    let records = log.into_records().into_iter();
    records.filter(CompactRetire::is_control).collect()
}

/// Replays the configurations `configs()` deals to `workload` once under
/// five models and once per model alone — a third of the stream, a seek
/// past the next third, the rest, as sampled replay walks — and holds
/// every model's counters and costs to its lone replay's.
fn check_replayed(workload: &str) {
    let program = program(workload);
    let stream = control_stream(&program);
    let third = stream.len() / 3;
    let replay = |rp: &mut DispatchReplay| {
        rp.seek(program.entry).expect("entry translates");
        let step = |rp: &mut DispatchReplay, events: &[CompactRetire]| {
            for ev in events {
                rp.step(ev).expect("the native stream replays");
            }
        };
        step(rp, &stream[..third]);
        rp.seek(stream[2 * third].pc).expect("seek translates");
        step(rp, &stream[2 * third..]);
    };
    let dealt = configs().into_iter().enumerate();
    let mine = dealt.filter(|(i, _)| WORKLOADS[i % WORKLOADS.len()] == workload);
    for (turn, cfg) in mine {
        let what = format!("{workload} replayed under {}", cfg.describe());
        let mut shared = DispatchReplay::with_models(cfg, &program, models(turn)).expect("valid");
        replay(&mut shared);
        for (m, model) in models(turn).into_iter().enumerate() {
            let arch = format!("model {m} ({})", model.profile().name);
            let mut alone = DispatchReplay::new(cfg, &program, model).expect("valid");
            replay(&mut alone);
            assert_eq!(
                shared.rate_counters_of(m),
                alone.rate_counters(),
                "{what} on {arch}"
            );
            assert_eq!(shared.stats(), alone.stats(), "{what} on {arch}");
            assert_eq!(shared.per_class(), alone.per_class(), "{what} on {arch}");
            let (priced, lone) = (shared.model_at(m), alone.model());
            assert_eq!(priced.stats(), lone.stats(), "{what} on {arch}");
            assert_eq!(
                priced.indirect_mispredicts(),
                lone.indirect_mispredicts(),
                "{what} on {arch}"
            );
        }
        assert_eq!(shared.rate_counters(), shared.rate_counters_of(0), "{what}");
        let flushes = shared.stats().cache_flushes;
        assert_eq!(flushes > 0, cfg.cache_limit.is_some(), "{what}");
    }
}

#[test]
fn gcc_replays_once_priced_like_one_replay_per_model() {
    check_replayed("gcc");
}

#[test]
fn perlbmk_replays_once_priced_like_one_replay_per_model() {
    check_replayed("perlbmk");
}

#[test]
fn eon_replays_once_priced_like_one_replay_per_model() {
    check_replayed("eon");
}
