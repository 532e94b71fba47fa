//! The two experiments whose renders simulate on the spot, under every
//! kind of run context side by side in one process: fig22 is
//! deterministic and re-ranks at least one mechanism pair across
//! predictor models — the paper's core claim that no mechanism ranking
//! is predictor-independent — whether its cells are full runs or
//! SimPoint estimates, and fig21's fidelity gate passes with the
//! predictor-mispredict row armed.
//!
//! Traces record into `CARGO_TARGET_TMPDIR` on first use, so the tests
//! never touch the reference bundles under `results/traces`.

use std::path::PathBuf;

use strata_expt::{run_suite, Mode, RunContext, SuiteOptions};

fn sampled() -> RunContext {
    RunContext {
        mode: Mode::Sampled {
            traces_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("context-traces"),
        },
        ..RunContext::default()
    }
}

fn render(filter: &str, context: RunContext) -> String {
    let opts = SuiteOptions {
        jobs: 1,
        filter: Some(filter.into()),
        context,
        ..SuiteOptions::default()
    };
    run_suite(&opts).expect("suite runs").rendered
}

/// Pulls `N` out of the `RANKING INVERSIONS: N (...)` note.
fn inversion_count(rendered: &str) -> u64 {
    let line = rendered
        .lines()
        .find(|l| l.starts_with("RANKING INVERSIONS:"))
        .expect("fig22 prints an inversion note");
    line.split(':')
        .nth(1)
        .expect("count after colon")
        .split_whitespace()
        .next()
        .expect("leading count")
        .parse()
        .expect("numeric inversion count")
}

#[test]
fn fig22_reranks_mechanisms_exact_and_sampled() {
    for context in [RunContext::default(), sampled()] {
        let rendered = render("fig22", context.clone());
        assert!(
            inversion_count(&rendered) >= 1,
            "no mechanism pair re-ranked across predictor models under {context:?}:\n{rendered}"
        );
        // Every predictor model of the sweep must appear as table rows.
        for label in ["none", "legacy", "btb:128x4", "ittage:4", "ideal"] {
            assert!(rendered.contains(label), "missing predictor row {label}");
        }
        assert_eq!(
            rendered,
            render("fig22", context),
            "render not deterministic"
        );
    }
}

#[test]
fn fig21_fidelity_gate_passes_with_predictor_row() {
    let rendered = render("fig21", sampled());
    assert!(
        rendered.contains("pred_mispredicts"),
        "fig21 lost its predictor-mispredict fidelity row:\n{rendered}"
    );
    assert!(
        rendered.contains("FIDELITY PASS"),
        "sampled fidelity gate failed:\n{rendered}"
    );
}
