//! Integration tests for the regression gate: the baseline gate catches
//! perturbed metrics end to end and skips what a filtered run did not
//! select.

use std::path::PathBuf;

use strata_expt::{baseline_gate, run_suite, write_artifacts, OutputFormat, SuiteOptions};
use strata_workloads::Params;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("strata-gate-{name}-{}", std::process::id()))
}

fn opts(filter: &str) -> SuiteOptions {
    SuiteOptions {
        jobs: 4,
        filter: Some(filter.into()),
        format: OutputFormat::Text,
        params: Params::default(),
        ..SuiteOptions::default()
    }
}

#[test]
fn gate_detects_a_perturbed_metric_and_names_the_experiment() {
    let baseline_dir = tmp("baseline");
    let _ = std::fs::remove_dir_all(&baseline_dir);

    let run = run_suite(&opts("table1")).expect("run");
    write_artifacts(&run, &baseline_dir).expect("write baseline");

    // Sanity: unperturbed gate is clean.
    let clean = baseline_gate(&run, &baseline_dir, 5.0).expect("gate");
    assert!(clean.is_clean(), "{}", clean.render_text());

    // Perturb one metric in the committed snapshot by more than the
    // tolerance. gzip at scale 1 executes 515716 instructions; any other
    // figure works as long as it differs by >5%.
    let path = baseline_dir.join("table1.json");
    let text = std::fs::read_to_string(&path).expect("read table1.json");
    let perturbed = text.replace("\"515716\"", "\"600000\"");
    assert_ne!(text, perturbed, "fixture value moved; update this test");
    std::fs::write(&path, perturbed).expect("write perturbed");

    let delta = baseline_gate(&run, &baseline_dir, 5.0).expect("gate");
    assert_eq!(delta.regressions(), 1);
    let rendered = delta.render_text();
    assert!(
        rendered.contains("table1"),
        "report must name the experiment: {rendered}"
    );
    assert!(
        rendered.contains("gzip"),
        "report must name the row: {rendered}"
    );
    assert!(rendered.contains("FAIL"), "{rendered}");

    // Within tolerance, the same drift is visible but does not fail.
    let tolerant = baseline_gate(&run, &baseline_dir, 50.0).expect("gate");
    assert!(tolerant.is_clean());
    assert_eq!(tolerant.deltas.len(), 1);

    let _ = std::fs::remove_dir_all(&baseline_dir);
}

#[test]
fn gate_errors_on_missing_or_empty_baseline_dir() {
    let run = run_suite(&opts("table1")).expect("run");
    let missing = tmp("missing");
    let _ = std::fs::remove_dir_all(&missing);
    assert!(baseline_gate(&run, &missing, 5.0).is_err());
    std::fs::create_dir_all(&missing).expect("mkdir");
    let err = baseline_gate(&run, &missing, 5.0).unwrap_err();
    assert!(err.contains("no *.json"), "{err}");
    let _ = std::fs::remove_dir_all(&missing);
}

#[test]
fn filtered_run_gates_against_full_baseline_without_failing() {
    // A baseline captured from table1+fig14, gated by a table1-only run:
    // fig14 must be skipped, not failed.
    let baseline_dir = tmp("filtered");
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let full = run_suite(&opts("table1,fig14")).expect("full run");
    write_artifacts(&full, &baseline_dir).expect("write baseline");

    let narrow = run_suite(&opts("table1")).expect("narrow run");
    let delta = baseline_gate(&narrow, &baseline_dir, 5.0).expect("gate");
    assert!(delta.is_clean(), "{}", delta.render_text());
    assert_eq!(delta.skipped_experiments, ["fig14"]);
    assert!(
        delta.skipped_rows > 0,
        "fig14's cells are absent from the narrow run's cells.json"
    );

    let _ = std::fs::remove_dir_all(&baseline_dir);
}
