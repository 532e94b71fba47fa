//! Golden-file tests for the renderers.
//!
//! The regression gate diffs *rendered* artifacts, so format drift in the
//! text/CSV/JSON renderers would surface as a mystery baseline failure
//! (or worse, silently change what the gate compares). These tests pin
//! the renderings byte-for-byte against committed fixtures.
//!
//! To refresh after an intentional format change:
//!
//! ```text
//! STRATA_UPDATE_GOLDEN=1 cargo test -p strata-expt --test golden
//! ```
//!
//! then commit the updated files under `tests/golden/` (and refresh
//! `results/baseline/` — see EXPERIMENTS.md).

use std::path::PathBuf;

use strata_expt::{baseline_gate, run_suite, write_artifacts, OutputFormat, SuiteOptions};
use strata_stats::baseline::{diff, Snapshot};
use strata_workloads::Params;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `STRATA_UPDATE_GOLDEN=1`.
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
        "rendered output drifted from {} — if intentional, regenerate with STRATA_UPDATE_GOLDEN=1",
        path.display()
    );
}

fn table1(format: OutputFormat) -> strata_expt::SuiteReport {
    let opts = SuiteOptions {
        jobs: 2,
        filter: Some("table1".into()),
        format,
        params: Params::default(),
        cache_dir: None,
        ..SuiteOptions::default()
    };
    run_suite(&opts).expect("suite runs")
}

#[test]
fn table1_text_rendering_is_pinned() {
    assert_golden("table1.txt", &table1(OutputFormat::Text).rendered);
}

#[test]
fn table1_csv_rendering_is_pinned() {
    assert_golden("table1.csv", &table1(OutputFormat::Csv).rendered);
}

#[test]
fn table1_json_rendering_and_artifacts_are_pinned() {
    let report = table1(OutputFormat::Json);
    assert_golden("table1.json", &report.rendered);
    // The artifacts are what the baseline gate actually diffs: pin the
    // per-experiment document and the per-cell metrics document.
    let artifact = |name: &str| -> &str {
        report
            .artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
            .unwrap_or_else(|| panic!("missing artifact {name}"))
    };
    assert_golden("table1_artifact.json", artifact("table1.json"));
    assert_golden("table1_cells.json", artifact("cells.json"));
}

/// Two tiny fixture runs, diffed: pins the delta report's text and JSON
/// shape (the other half of what the gate emits).
#[test]
fn delta_report_rendering_is_pinned() {
    let base_doc = r#"{
  "id": "fig4",
  "params": {"scale": 1, "variant": 0},
  "tables": [{
    "title": "slowdowns",
    "columns": ["benchmark", "slowdown", "dispatches", "note"],
    "rows": [
      ["gzip", "1.500x", "1000", "steady"],
      ["gcc", "3.000x", "500000", "hot"],
      ["mcf", "2.000x", "0", "idle"]
    ]
  }]
}"#;
    let fresh_doc = r#"{
  "id": "fig4",
  "params": {"scale": 1, "variant": 0},
  "tables": [{
    "title": "slowdowns",
    "columns": ["benchmark", "slowdown", "dispatches", "note"],
    "rows": [
      ["gzip", "1.530x", "1000", "steady"],
      ["gcc", "3.900x", "500000", "renamed"],
      ["mcf", "2.000x", "7", "idle"]
    ]
  }]
}"#;
    let extra_doc = r#"{"id": "fig9", "params": {"scale": 1, "variant": 0}, "tables": []}"#;
    let baseline = Snapshot::from_documents([("fig4.json", base_doc), ("fig9.json", extra_doc)])
        .expect("baseline parses");
    let fresh = Snapshot::from_documents([("fig4.json", fresh_doc)]).expect("fresh parses");
    let report = diff(&baseline, &fresh, 5.0);
    assert!(!report.is_clean());
    assert_golden("delta_report.txt", &report.render_text());
    assert_golden(
        "delta_report.json",
        &(report.to_json().render_pretty() + "\n"),
    );
}

/// End-to-end: artifacts written by one run gate cleanly against a second
/// run of the same tree — the acceptance property the CI step relies on.
#[test]
fn self_baseline_gates_clean() {
    let dir = std::env::temp_dir().join(format!("strata-golden-base-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = table1(OutputFormat::Text);
    write_artifacts(&first, &dir).expect("write baseline");
    let second = table1(OutputFormat::Text);
    let delta = baseline_gate(&second, &dir, 5.0).expect("gate runs");
    assert!(delta.is_clean(), "{}", delta.render_text());
    assert_eq!(
        delta.deltas.len(),
        0,
        "identical runs must not drift at all"
    );
    assert!(delta.compared > 50, "the gate must actually compare cells");
    let _ = std::fs::remove_dir_all(&dir);
}
