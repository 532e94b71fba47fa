//! A run serves the smaller sizes of its size class that its witness
//! covers, and no other.
//!
//! [`Sdt::serves`] says a finished run is, step for step, the run of a
//! configuration that differs only in fixed-table sizes. Here every member
//! of a class runs on its own: wherever the larger member says it serves
//! the smaller, its reports relabelled ([`RunReport::relabelled`]) must
//! equal the smaller member's own, under four models (every profile and
//! several predictor families).
//!
//! The programs are indirect-heavy testgen loops, padded so that the
//! highest index any table hashes sits just below, at or just above the
//! class boundary of `SLOTS` slots. Only the one below may be served, so
//! a witness check that let the index equal the boundary serves more
//! pairs than `SERVED` states. Every `mechanism_registry()` mechanism with
//! a fixed table is covered (the shared IBTC inline, two-way and out of
//! line; the sieve, also under adaptive and predictive policies and
//! beside a return cache or fast returns; the return cache, alone and in
//! `tuned`), and so is an 8 KiB fragment cache that flushes.
//!
//! The pricing batches take their real shape only under optimisation, so
//! CI also runs this test in release.

use strata_arch::{ArchModel, ArchProfile, PredictorSpec};
use strata_core::{ClassPolicy, RetMechanism, RunReport, Sdt, SdtConfig};
use strata_machine::Program;
use strata_stats::rng::SmallRng;
use strata_testgen::progen::{build_program_padded, Action};

const FUEL: u64 = 50_000_000;

/// The class boundary, in slots of the smaller member's table.
const SLOTS: u32 = 1024;

/// The pairs served over every shape and seed: one per (shape, seed),
/// where the highest index hashed is `SLOTS - 1`.
const SERVED: usize = SHAPES.len() * SEEDS.len();

const SEEDS: [u64; 2] = [11, 12];

/// A configuration family whose fixed tables have `slots` slots each in
/// the tables it names (by [`strata_core::FixedTable::name`]).
struct Shape {
    name: &'static str,
    config: fn(u32) -> SdtConfig,
    tables: &'static [&'static str],
}

fn with_ret(mut cfg: SdtConfig, ret: RetMechanism) -> SdtConfig {
    cfg.ret = ret;
    cfg
}

/// The jump class under `policy`; calls keep a 512-entry shared IBTC,
/// the last fixed table, so the allocation floor holds across the class.
fn with_jump(policy: ClassPolicy) -> SdtConfig {
    let mut cfg = SdtConfig::ibtc_inline(512);
    cfg.policy.jump = policy;
    cfg
}

const SHAPES: [Shape; 11] = [
    Shape {
        name: "ibtc",
        config: SdtConfig::ibtc_inline,
        tables: &["ibtc"],
    },
    Shape {
        name: "ibtc two-way",
        config: |slots| SdtConfig {
            ibtc_ways: 2,
            ..SdtConfig::ibtc_inline(2 * slots)
        },
        tables: &["ibtc"],
    },
    Shape {
        name: "ibtc out of line",
        config: SdtConfig::ibtc_out_of_line,
        tables: &["ibtc"],
    },
    Shape {
        name: "sieve",
        config: SdtConfig::sieve,
        tables: &["sieve"],
    },
    Shape {
        name: "adaptive",
        config: |slots| {
            with_jump(ClassPolicy::Adaptive {
                ibtc_entries: 16,
                sieve_buckets: slots,
                sieve_arity: 2,
            })
        },
        tables: &["jump sieve"],
    },
    Shape {
        name: "predictive",
        config: |slots| {
            with_jump(ClassPolicy::Predictive {
                sieve_buckets: slots,
                probation: 8,
            })
        },
        tables: &["jump sieve"],
    },
    Shape {
        name: "return cache",
        config: |slots| {
            let rc = RetMechanism::ReturnCache { entries: slots };
            with_ret(SdtConfig::ibtc_inline(512), rc)
        },
        tables: &["return cache"],
    },
    Shape {
        name: "tuned",
        config: |slots| SdtConfig::tuned(slots, slots),
        tables: &["ibtc", "return cache"],
    },
    Shape {
        name: "sieve with a return cache",
        config: |slots| {
            let rc = RetMechanism::ReturnCache { entries: slots };
            with_ret(SdtConfig::sieve(slots), rc)
        },
        tables: &["sieve", "return cache"],
    },
    Shape {
        name: "sieve with fast returns",
        config: |slots| with_ret(SdtConfig::sieve(slots), RetMechanism::FastReturn),
        tables: &["sieve"],
    },
    Shape {
        name: "tuned in an 8 KiB cache",
        config: |slots| SdtConfig {
            cache_limit: Some(8192),
            ..SdtConfig::tuned(slots, slots)
        },
        tables: &["ibtc", "return cache"],
    },
];

/// Four models: every profile, and a predictor family apiece.
fn models() -> Vec<ArchModel> {
    let mut profiles = ArchProfile::all();
    profiles.push(ArchProfile::ideal());
    let predictors = [
        PredictorSpec::Legacy,
        PredictorSpec::Btb { sets: 128, ways: 4 },
        PredictorSpec::Ittage { tables: 4 },
        PredictorSpec::None,
    ];
    profiles
        .into_iter()
        .zip(predictors)
        .map(|(profile, predictor)| ArchModel::with_predictor_spec(profile, predictor))
        .collect()
}

/// An indirect-heavy loop body: most actions are indirect calls and
/// jumps through a table of twelve functions.
fn actions(seed: u64) -> Vec<Action> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..160)
        .map(|_| match rng.gen_range(0u32..10) {
            0..=3 => Action::IndirectCall(rng.gen_range(0..12)),
            4..=6 => Action::IndirectJump(rng.gen_range(0..12)),
            7 => Action::DirectCall(rng.gen_range(0..12)),
            8 => Action::Arith(rng.gen_range(0u8..6)),
            _ => Action::Checkpoint,
        })
        .collect()
}

fn program(seed: u64, pad: u32) -> Program {
    build_program_padded(&actions(seed), 12, 20, pad)
}

/// Runs `cfg` over `program` under [`models`]: the SDT and its reports.
fn run(cfg: SdtConfig, program: &Program) -> (Sdt, Vec<RunReport>) {
    let what = cfg.describe();
    let mut sdt = Sdt::new(cfg, program).unwrap_or_else(|e| panic!("{what}: {e}"));
    let reports = sdt.run_models(models(), FUEL);
    (sdt, reports.unwrap_or_else(|e| panic!("{what}: {e}")))
}

/// The highest index `sdt` hashed into the tables `shape` sizes.
fn highest(sdt: &Sdt, shape: &Shape) -> u32 {
    let tables = sdt.fixed_tables();
    let sized = tables
        .iter()
        .filter(|t| shape.tables.contains(&t.name.as_str()));
    assert_eq!(sized.clone().count(), shape.tables.len(), "{}", shape.name);
    let hashed = sized.filter_map(|t| t.highest_hashed).max();
    hashed.unwrap_or_else(|| panic!("{}: nothing hashed", shape.name))
}

#[test]
fn a_run_serves_exactly_the_sizes_its_witness_covers() {
    let mut served = 0;
    for shape in &SHAPES {
        let (large, small) = ((shape.config)(2 * SLOTS), (shape.config)(SLOTS));
        for seed in SEEDS {
            // Unpadded, every index hashed is below the boundary; padding
            // moves them all up by as many words.
            let (sdt, _) = run(large, &program(seed, 0));
            let unpadded = highest(&sdt, shape);
            assert!(unpadded < SLOTS - 1, "{}: {unpadded}", shape.name);
            for at in [SLOTS - 1, SLOTS, SLOTS + 1] {
                let what = format!("{} seed {seed}, highest index {at}", shape.name);
                let program = program(seed, at - unpadded);
                let (sdt, reports) = run(large, &program);
                assert_eq!(highest(&sdt, shape), at, "{what}: padding");
                let (alone, own) = run(small, &program);
                assert!(!alone.serves(&large), "{what}: a smaller table serves");
                if shape.name.contains("8 KiB") {
                    assert!(reports[0].mech.cache_flushes > 0, "{what}: no flush");
                }
                if sdt.serves(&small) {
                    served += 1;
                    let relabelled: Vec<RunReport> =
                        reports.into_iter().map(|r| r.relabelled(&small)).collect();
                    assert_eq!(relabelled, own, "{what}");
                }
                assert_eq!(sdt.serves(&small), at < SLOTS, "{what}");
            }
        }
    }
    assert_eq!(served, SERVED);
}

/// A run serves only what shares its size class and layout: itself (by
/// any other name, too), not a larger table, not another mechanism, not a
/// configuration `Sdt::new` refuses, and not a size that moves the table
/// after it.
#[test]
fn serving_needs_one_size_class_and_one_layout() {
    let program = program(SEEDS[0], 0);
    let (sdt, reports) = run(SdtConfig::tuned(1024, 1024), &program);
    assert!(sdt.serves(&SdtConfig::tuned(1024, 1024)));
    assert!(sdt.serves(&SdtConfig::tuned(512, 1024)));
    assert!(!sdt.serves(&SdtConfig::tuned(2048, 1024)), "larger");
    assert!(!sdt.serves(&SdtConfig::ibtc_inline(512)), "another class");
    assert!(
        !sdt.serves(&SdtConfig::tuned(3, 1024)),
        "refused by Sdt::new"
    );
    let relabelled = reports[0].clone().relabelled(&SdtConfig::tuned(512, 1024));
    assert_eq!(relabelled.config, SdtConfig::tuned(512, 1024).describe());
    assert_eq!(relabelled.per_class[0].mechanism, "ibtc(512,shared,inline)");
    assert_eq!(relabelled.per_class[2].mechanism, "rc(1024)");

    // A shadow stack sits right after the sieve, so every other bucket
    // count moves it.
    let shadow = |buckets| {
        let ret = RetMechanism::ShadowStack { depth: 64 };
        with_ret(SdtConfig::sieve(buckets), ret)
    };
    let (sdt, _) = run(shadow(1024), &program);
    assert!(sdt.serves(&shadow(1024)));
    assert!(!sdt.serves(&shadow(512)), "the shadow stack moved");
}
