//! Golden snapshot of the JSON report shapes `strata verify` emits.
//!
//! Downstream tooling (CI scrapers, dashboards) keys on the
//! report layout, so the shape is versioned: `schema_version` must be
//! bumped whenever a key is added, removed, or renamed, and this test
//! pins the full rendered JSON — both the static `VerifyReport` and the
//! `--validate-tiers` `TierReport` — for one deterministic run so any
//! drift is a visible diff, not a silent breakage.
//!
//! To refresh after an *intentional* shape change (bump `SCHEMA_VERSION`
//! in `crates/analysis/src/diag.rs` first):
//!
//! ```text
//! STRATA_UPDATE_GOLDEN=1 cargo test -p strata-analysis --test verify_json_golden
//! ```
//!
//! then commit the updated files under `tests/golden/`.

use std::path::PathBuf;

use strata_arch::ArchProfile;
use strata_asm::assemble;
use strata_core::{Sdt, SdtConfig};
use strata_machine::{layout, ExecTier, Machine, NullObserver, Program, TierConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
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
        "verify JSON shape drifted from {} — if intentional, bump SCHEMA_VERSION \
         and regenerate with STRATA_UPDATE_GOLDEN=1",
        path.display()
    );
}

/// A small deterministic program with an indirect call, an indirect
/// jump, and returns, so the verified cache holds dispatch code of
/// every class.
const PROGRAM: &str = "\
main:
    call f
    li r9, f
    callr r9
    li r9, done
    jr r9
done:
    li r5, 3
    trap 0x1
    halt
f:
    addi r4, r4, 1
    ret
";

#[test]
fn verify_report_json_shape_is_pinned() {
    let code = assemble(layout::APP_BASE, PROGRAM).expect("program assembles");
    let program = Program::new("verify-golden", code, Vec::new());
    let mut sdt = Sdt::new(SdtConfig::ibtc_inline(256), &program).expect("sdt constructs");
    sdt.run(ArchProfile::x86_like(), 1_000_000)
        .expect("run completes");
    let report = strata_analysis::verify(&sdt);
    assert!(report.is_clean(), "golden run must verify clean");
    let mut json = report.to_json().render_pretty();
    json.push('\n');
    assert!(
        json.contains("\"schema_version\""),
        "report JSON must carry schema_version"
    );
    assert_golden("verify_report.json", &json);
}

#[test]
fn tier_report_json_shape_is_pinned() {
    // A hot counted loop so the threaded tier translates a superblock
    // (including a fused cmp+branch) before the validator runs.
    let src = "\
main:
    li r1, 64
loop:
    addi r1, r1, -1
    addi r2, r2, 3
    cmpi r1, 0
    bne loop
    halt
";
    let code = assemble(layout::APP_BASE, src).expect("program assembles");
    let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
    Program::new("tier-golden", code, Vec::new())
        .load(&mut m)
        .expect("program loads");
    m.set_tier(ExecTier::Threaded(TierConfig {
        threshold: 1,
        ..TierConfig::default()
    }));
    m.run(&mut NullObserver, 10_000).expect("run halts");
    let report = strata_analysis::validate_machine_tier(&m);
    assert!(report.blocks > 0, "loop must translate");
    assert!(report.is_clean(), "golden run must validate clean");
    let mut json = report.to_json().render_pretty();
    json.push('\n');
    assert_golden("tier_report.json", &json);
}
