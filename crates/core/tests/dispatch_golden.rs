//! Golden disassembly snapshots of the dispatch sequences each mechanism
//! emits, per branch class.
//!
//! The strategy-layer refactor must keep every legacy single-mechanism
//! configuration byte-identical; these fixtures pin the entire occupied
//! fragment cache (shared stubs, per-site dispatch sequences, call glue,
//! sieve stanzas, linked trampolines) after a run that exercises an
//! indirect call, an indirect register jump, an indirect memory jump, a
//! direct call, and returns.
//!
//! A second program, [`POLY_PROGRAM`], pins the paths a monomorphic
//! program never reaches: a four-target indirect jump and a two-target
//! indirect call in a loop. Its fixtures are `adaptive.txt` (the jump
//! site promotes inline → per-site IBTC → sieve), `predictive.txt` (the
//! sites cross their probation and re-emit as frequency-ordered sieve
//! probes), `split_policy.txt` (distinct jump and call bindings, each
//! with its own per-binding miss glue) and `ibtc_persite_2way.txt`.
//!
//! To refresh after an *intentional* emission change:
//!
//! ```text
//! STRATA_UPDATE_GOLDEN=1 cargo test -p strata-core --test dispatch_golden
//! ```
//!
//! then commit the updated files under `tests/golden/dispatch/`.

use std::path::PathBuf;

use strata_arch::ArchProfile;
use strata_asm::assemble;
use strata_core::{
    ClassPolicy, FlagsPolicy, IbMechanism, IbtcPlacement, IbtcScope, RetMechanism, RunReport, Sdt,
    SdtConfig,
};
use strata_machine::{layout, Program};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dispatch")
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("STRATA_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with STRATA_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "emitted dispatch code drifted from {} — if intentional, regenerate with \
         STRATA_UPDATE_GOLDEN=1",
        path.display()
    );
}

/// One basic block per branch class: a direct call, an indirect call, an
/// indirect register jump, an indirect memory jump, and two returns.
const PROGRAM: &str = "\
main:
    call f
    li r9, f
    callr r9
    li r9, j1
    jr r9
j1:
    li r8, 0x800
    li r9, j2
    sw r9, 0(r8)
    jmem [0x800]
j2:
    li r5, 3
    trap 0x1
    halt
f:
    addi r4, r4, 1
    ret
";

/// A polymorphic loop: each iteration jumps through a four-entry jump
/// table and calls through a two-entry function-pointer table, so the
/// jump site sees four targets and the call site two.
fn poly_program() -> String {
    format!(
        "\
main:
    li r10, {data}
    li r1, case0
    sw r1, 0(r10)
    li r1, case1
    sw r1, 4(r10)
    li r1, case2
    sw r1, 8(r10)
    li r1, case3
    sw r1, 12(r10)
    li r1, f1
    sw r1, 16(r10)
    li r1, f2
    sw r1, 20(r10)
    li r5, 24
    li r6, 0
top:
    andi r7, r6, 3
    slli r7, r7, 2
    add r7, r7, r10
    lw r7, 0(r7)
    jr r7
case0:
    addi r4, r4, 1
    jmp next
case1:
    addi r4, r4, 10
    jmp next
case2:
    addi r4, r4, 100
    jmp next
case3:
    addi r4, r4, 1000
next:
    andi r7, r6, 1
    slli r7, r7, 2
    add r7, r7, r10
    lw r9, 16(r7)
    callr r9
    addi r6, r6, 1
    addi r5, r5, -1
    cmpi r5, 0
    bne top
    trap 0x1
    halt
f1:
    addi r4, r4, 3
    ret
f2:
    addi r4, r4, 7
    ret
",
        data = layout::APP_DATA_BASE
    )
}

fn dump(cfg: SdtConfig) -> String {
    dump_program(PROGRAM, cfg).0
}

/// The occupied fragment cache after running `src` under `cfg`, and the
/// run's report.
fn dump_program(src: &str, cfg: SdtConfig) -> (String, RunReport) {
    let code = assemble(layout::APP_BASE, src).expect("program assembles");
    let program = Program::new("dispatch-golden", code, Vec::new());
    let mut sdt = Sdt::new(cfg, &program).expect("sdt constructs");
    let report = sdt
        .run(ArchProfile::x86_like(), 1_000_000)
        .expect("run completes");
    assert!(report.halted);
    let dump = format!(
        "config: {}\n\n{}",
        report.config,
        sdt.dump_cache(usize::MAX)
    );
    (dump, report)
}

/// Every legacy configuration whose emission the refactor must preserve.
fn legacy_configs() -> Vec<(&'static str, SdtConfig)> {
    let mut ibtc_2way = SdtConfig::ibtc_inline(256);
    ibtc_2way.ibtc_ways = 2;
    let ibtc_persite = SdtConfig {
        ib: IbMechanism::Ibtc {
            entries: 64,
            scope: IbtcScope::PerSite,
            placement: IbtcPlacement::Inline,
        },
        ..SdtConfig::ibtc_inline(64)
    };
    let mut fastret = SdtConfig::ibtc_inline(256);
    fastret.ret = RetMechanism::FastReturn;
    let mut shadow = SdtConfig::ibtc_inline(256);
    shadow.ret = RetMechanism::ShadowStack { depth: 16 };
    let mut sieve_noflags = SdtConfig::sieve(64);
    sieve_noflags.flags = FlagsPolicy::None;
    let mut reentry_nolink = SdtConfig::reentry();
    reentry_nolink.link_fragments = false;
    let mut instrumented = SdtConfig::ibtc_inline(256);
    instrumented.instrument_blocks = true;
    instrumented.elide_direct_jumps = true;
    vec![
        ("reentry", SdtConfig::reentry()),
        ("ibtc_inline", SdtConfig::ibtc_inline(256)),
        ("ibtc_inline_2way", ibtc_2way),
        ("ibtc_outline", SdtConfig::ibtc_out_of_line(256)),
        ("ibtc_persite", ibtc_persite),
        ("sieve", SdtConfig::sieve(64)),
        ("tuned", SdtConfig::tuned(256, 64)),
        ("fastret", fastret),
        ("shadow", shadow),
        ("sieve_noflags", sieve_noflags),
        ("reentry_nolink", reentry_nolink),
        ("instrumented_elide", instrumented),
    ]
}

#[test]
fn dispatch_sequences_are_pinned_per_config() {
    for (name, cfg) in legacy_configs() {
        assert_golden(&format!("{name}.txt"), &dump(cfg));
    }
}

/// Configurations whose promotion, per-binding glue and per-site two-way
/// paths only [`poly_program`] reaches.
fn polymorphic_configs() -> Vec<(&'static str, SdtConfig)> {
    let mut adaptive = SdtConfig::ibtc_inline(256);
    let promote = ClassPolicy::Adaptive {
        ibtc_entries: 16,
        sieve_buckets: 64,
        sieve_arity: 2,
    };
    adaptive.policy.jump = promote;
    adaptive.policy.call = promote;
    let mut predictive = SdtConfig::ibtc_inline(256);
    let observe = ClassPolicy::Predictive {
        sieve_buckets: 64,
        probation: 8,
    };
    predictive.policy.jump = observe;
    predictive.policy.call = observe;
    let mut split = SdtConfig::ibtc_inline(256);
    split.policy.call = ClassPolicy::Fixed {
        mech: IbMechanism::Sieve { buckets: 32 },
        ways: 1,
    };
    let mut persite_2way = SdtConfig {
        ib: IbMechanism::Ibtc {
            entries: 16,
            scope: IbtcScope::PerSite,
            placement: IbtcPlacement::Inline,
        },
        ..SdtConfig::ibtc_inline(16)
    };
    persite_2way.ibtc_ways = 2;
    vec![
        ("adaptive", adaptive),
        ("predictive", predictive),
        ("split_policy", split),
        ("ibtc_persite_2way", persite_2way),
    ]
}

#[test]
fn promotion_and_bind_glue_paths_are_pinned() {
    let src = poly_program();
    for (name, cfg) in polymorphic_configs() {
        let (dump, report) = dump_program(&src, cfg);
        let [jump, call, _] = &report.per_class[..] else {
            panic!("three class rows");
        };
        match name {
            // Four jump targets past an arity of 2: inline → IBTC →
            // sieve; two call targets: inline → IBTC.
            "adaptive" => assert_eq!(report.mech.adaptive_promotions, 3, "{name}"),
            // Both polymorphic sites (and the return site) cross their
            // probation.
            "predictive" => assert!(report.mech.adaptive_promotions >= 2, "{name}"),
            "split_policy" => assert_ne!(jump.mechanism, call.mechanism, "{name}"),
            _ => {}
        }
        assert_golden(&format!("{name}.txt"), &dump);
    }
}
