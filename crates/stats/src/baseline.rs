//! Baseline snapshots and regression diffing.
//!
//! The experiment orchestrator emits every table and figure as a JSON
//! artifact (`results/*.json`); committing a set of those artifacts under
//! `results/baseline/` pins the reproduction's numbers. This module loads
//! such a snapshot, matches it against a fresh run — experiments by id,
//! tables by title, rows by their first-column label, columns by name —
//! and reports every metric that drifted, failing the gate when any
//! numeric delta exceeds the tolerance or a compared structure changed
//! shape.
//!
//! Matching is intersection-based: experiments (or rows) present only in
//! the baseline are reported as *skipped* rather than failed, so a
//! filtered run (`strata bench --filter fig4 --baseline …`) can still be
//! gated against a full-suite snapshot. The skip counts appear in the
//! summary so a silently shrinking suite stays visible.
//!
//! Numeric cells are compared after stripping the renderers' unit
//! suffixes (`1.503x`, `12.34%`, `1.20 µs`); everything else must match
//! byte-for-byte.

use std::path::Path;

use crate::{Json, Table};

/// One table of a parsed artifact document.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDoc {
    /// Table title (the match key within an experiment).
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows as raw cells.
    pub rows: Vec<Vec<String>>,
}

/// One parsed artifact document (`{id, tables: [{title, columns, rows}]}`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentDoc {
    /// Experiment id (`table1`, `fig4`, `cells`, …).
    pub id: String,
    /// Rendered workload parameters, compared as an opaque string.
    pub params: String,
    /// The experiment's tables.
    pub tables: Vec<TableDoc>,
}

/// A set of artifact documents, either loaded from a committed baseline
/// directory or built from a fresh run's artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Documents in load order.
    pub experiments: Vec<ExperimentDoc>,
}

impl Snapshot {
    /// Builds a snapshot from `(source_name, json_text)` documents — the
    /// shape of a suite report's artifact list.
    ///
    /// # Errors
    ///
    /// Returns the source name and parse error of the first bad document.
    pub fn from_documents<'a>(
        docs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Snapshot, String> {
        let mut experiments = Vec::new();
        for (name, text) in docs {
            let value = Json::parse(text).map_err(|e| format!("{name}: {e}"))?;
            experiments.push(parse_doc(name, &value).ok_or_else(|| {
                format!("{name}: not an artifact document (want {{id, tables}})")
            })?);
        }
        Ok(Snapshot { experiments })
    }

    /// Loads every `*.json` file under `dir` (sorted by file name).
    ///
    /// # Errors
    ///
    /// Fails when the directory is unreadable, contains no `*.json`
    /// files, or any file fails to parse.
    pub fn load_dir(dir: &Path) -> Result<Snapshot, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no *.json baseline files under {}", dir.display()));
        }
        let mut texts = Vec::new();
        for path in paths {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            texts.push((name, text));
        }
        Snapshot::from_documents(texts.iter().map(|(n, t)| (n.as_str(), t.as_str())))
    }

    fn get(&self, id: &str) -> Option<&ExperimentDoc> {
        self.experiments.iter().find(|e| e.id == id)
    }
}

fn parse_doc(source: &str, value: &Json) -> Option<ExperimentDoc> {
    let id = match value.get("id").and_then(Json::as_str) {
        Some(id) => id.to_string(),
        // Fall back to the file stem so hand-written fixtures work.
        None => source.strip_suffix(".json").unwrap_or(source).to_string(),
    };
    let params = value.get("params").map(Json::render).unwrap_or_default();
    let mut tables = Vec::new();
    for t in value.get("tables")?.as_arr()? {
        let columns: Option<Vec<String>> = t
            .get("columns")?
            .as_arr()?
            .iter()
            .map(|c| c.as_str().map(str::to_string))
            .collect();
        let rows: Option<Vec<Vec<String>>> = t
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                r.as_arr()?
                    .iter()
                    .map(|c| c.as_str().map(str::to_string))
                    .collect()
            })
            .collect();
        tables.push(TableDoc {
            title: t.get("title")?.as_str()?.to_string(),
            columns: columns?,
            rows: rows?,
        });
    }
    Some(ExperimentDoc { id, params, tables })
}

/// One changed metric or shape mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Experiment id.
    pub experiment: String,
    /// Table title.
    pub table: String,
    /// Row label (first cell), empty for table-level mismatches.
    pub row: String,
    /// Column name, empty for table-level mismatches.
    pub column: String,
    /// Baseline cell value (or shape description).
    pub baseline: String,
    /// Fresh cell value (or shape description).
    pub fresh: String,
    /// Percent change for numeric cells; `None` for non-numeric or
    /// shape mismatches.
    pub delta_pct: Option<f64>,
    /// Whether this delta fails the gate.
    pub regressed: bool,
}

/// The outcome of diffing a fresh run against a baseline snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaReport {
    /// The tolerance the diff ran with, in percent.
    pub tolerance_pct: f64,
    /// Every changed cell and shape mismatch, in snapshot order.
    pub deltas: Vec<Delta>,
    /// Numeric cells compared.
    pub compared: u64,
    /// Baseline experiments absent from the fresh run (not gated —
    /// filtered runs legitimately skip experiments).
    pub skipped_experiments: Vec<String>,
    /// Fresh experiments absent from the baseline (not gated).
    pub new_experiments: Vec<String>,
    /// Baseline rows absent from the fresh run, as `experiment/table/row`
    /// (not gated, for the same reason).
    pub skipped_rows: u64,
}

impl DeltaReport {
    /// Number of gate-failing deltas.
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }

    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// Renders the report as aligned text: a summary line, then a table
    /// of every changed cell (worst first).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "baseline gate: {} regression(s), {} drift(s) within tolerance \
             ({} numeric cells compared, tolerance {}%)\n",
            self.regressions(),
            self.deltas.len() - self.regressions(),
            self.compared,
            fmt_f64(self.tolerance_pct),
        );
        if !self.skipped_experiments.is_empty() {
            out.push_str(&format!(
                "skipped (in baseline, not in this run): {}\n",
                self.skipped_experiments.join(", ")
            ));
        }
        if !self.new_experiments.is_empty() {
            out.push_str(&format!(
                "new (in this run, not in baseline): {}\n",
                self.new_experiments.join(", ")
            ));
        }
        if self.skipped_rows > 0 {
            out.push_str(&format!("skipped baseline rows: {}\n", self.skipped_rows));
        }
        if !self.deltas.is_empty() {
            let mut t = Table::new(
                "deltas vs baseline",
                &[
                    "experiment",
                    "table",
                    "row",
                    "column",
                    "baseline",
                    "fresh",
                    "Δ%",
                    "gate",
                ],
            );
            for d in self.sorted_deltas() {
                t.row([
                    d.experiment.as_str(),
                    d.table.as_str(),
                    d.row.as_str(),
                    d.column.as_str(),
                    d.baseline.as_str(),
                    d.fresh.as_str(),
                    &d.delta_pct
                        .map(|p| format!("{p:+.2}"))
                        .unwrap_or_else(|| "—".into()),
                    if d.regressed { "FAIL" } else { "ok" },
                ]);
            }
            out.push_str(&t.render_text());
        }
        out
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tolerance_pct", Json::num(self.tolerance_pct)),
            ("regressions", Json::uint(self.regressions() as u64)),
            ("compared", Json::uint(self.compared)),
            (
                "skipped_experiments",
                Json::arr(self.skipped_experiments.iter().map(Json::str)),
            ),
            (
                "new_experiments",
                Json::arr(self.new_experiments.iter().map(Json::str)),
            ),
            ("skipped_rows", Json::uint(self.skipped_rows)),
            (
                "deltas",
                Json::arr(self.sorted_deltas().into_iter().map(|d| {
                    Json::obj([
                        ("experiment", Json::str(&d.experiment)),
                        ("table", Json::str(&d.table)),
                        ("row", Json::str(&d.row)),
                        ("column", Json::str(&d.column)),
                        ("baseline", Json::str(&d.baseline)),
                        ("fresh", Json::str(&d.fresh)),
                        (
                            "delta_pct",
                            d.delta_pct.map(Json::num).unwrap_or(Json::Null),
                        ),
                        ("regressed", Json::Bool(d.regressed)),
                    ])
                })),
            ),
        ])
    }

    /// Deltas ordered worst-first: regressions before drifts, larger
    /// percent magnitude first, snapshot order as the tiebreak.
    fn sorted_deltas(&self) -> Vec<&Delta> {
        let mut sorted: Vec<&Delta> = self.deltas.iter().collect();
        sorted.sort_by(|a, b| {
            b.regressed
                .cmp(&a.regressed)
                .then(magnitude(b).total_cmp(&magnitude(a)))
        });
        sorted
    }
}

fn magnitude(d: &Delta) -> f64 {
    d.delta_pct.map(f64::abs).unwrap_or(f64::INFINITY)
}

fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// A cell value parsed into comparable form.
enum Metric {
    /// Numeric after unit-stripping, normalized (ns for durations).
    Number(f64),
    /// Anything else — compared byte-for-byte.
    Text,
}

/// Parses the renderers' numeric cell formats: plain numbers, `1.503x`
/// slowdowns, `12.34%` rates, and `ns`/`µs`/`ms` durations.
fn parse_metric(cell: &str) -> Metric {
    let cell = cell.trim();
    let (token, multiplier) = if let Some(t) = cell.strip_suffix('x') {
        (t, 1.0)
    } else if let Some(t) = cell.strip_suffix('%') {
        (t, 1.0)
    } else if let Some(t) = cell.strip_suffix("ns") {
        (t.trim_end(), 1.0)
    } else if let Some(t) = cell.strip_suffix("µs") {
        (t.trim_end(), 1e3)
    } else if let Some(t) = cell.strip_suffix("ms") {
        (t.trim_end(), 1e6)
    } else {
        (cell, 1.0)
    };
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Metric::Number(v * multiplier),
        _ => Metric::Text,
    }
}

/// Diffs `fresh` against `baseline` at `tolerance_pct`.
///
/// Experiments are matched by id, tables by title, rows by first-column
/// label (duplicate labels pair up by occurrence), columns by name.
/// A numeric cell regresses when its percent change exceeds the
/// tolerance in either direction; a non-numeric cell regresses on any
/// change; a baseline table or column missing from the fresh document
/// regresses as a shape mismatch.
pub fn diff(baseline: &Snapshot, fresh: &Snapshot, tolerance_pct: f64) -> DeltaReport {
    let mut report = DeltaReport {
        tolerance_pct,
        deltas: Vec::new(),
        compared: 0,
        skipped_experiments: Vec::new(),
        new_experiments: Vec::new(),
        skipped_rows: 0,
    };
    for base_exp in &baseline.experiments {
        let Some(fresh_exp) = fresh.get(&base_exp.id) else {
            report.skipped_experiments.push(base_exp.id.clone());
            continue;
        };
        diff_experiment(base_exp, fresh_exp, &mut report);
    }
    for fresh_exp in &fresh.experiments {
        if baseline.get(&fresh_exp.id).is_none() {
            report.new_experiments.push(fresh_exp.id.clone());
        }
    }
    report
}

fn shape_delta(report: &mut DeltaReport, experiment: &str, table: &str, base: &str, fresh: &str) {
    report.deltas.push(Delta {
        experiment: experiment.to_string(),
        table: table.to_string(),
        row: String::new(),
        column: String::new(),
        baseline: base.to_string(),
        fresh: fresh.to_string(),
        delta_pct: None,
        regressed: true,
    });
}

fn diff_experiment(base: &ExperimentDoc, fresh: &ExperimentDoc, report: &mut DeltaReport) {
    if base.params != fresh.params {
        shape_delta(
            report,
            &base.id,
            "",
            &format!("params {}", base.params),
            &format!("params {}", fresh.params),
        );
        return; // Different workload params: every number differs trivially.
    }
    for base_table in &base.tables {
        let Some(fresh_table) = fresh.tables.iter().find(|t| t.title == base_table.title) else {
            shape_delta(
                report,
                &base.id,
                &base_table.title,
                "table present",
                "table missing",
            );
            continue;
        };
        diff_table(&base.id, base_table, fresh_table, report);
    }
}

fn diff_table(id: &str, base: &TableDoc, fresh: &TableDoc, report: &mut DeltaReport) {
    // Column name -> index in the fresh table.
    let fresh_col = |name: &str| fresh.columns.iter().position(|c| c == name);
    for column in &base.columns {
        if fresh_col(column).is_none() {
            shape_delta(
                report,
                id,
                &base.title,
                &format!("column `{column}` present"),
                "column missing",
            );
        }
    }
    // Pair rows by (first-cell label, occurrence index) so duplicate
    // labels still line up positionally.
    let occurrence_keys = |rows: &[Vec<String>]| -> Vec<(String, usize)> {
        let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        rows.iter()
            .map(|r| {
                let label = r.first().cloned().unwrap_or_default();
                let n = seen.entry(label.clone()).or_insert(0);
                let key = (label, *n);
                *n += 1;
                key
            })
            .collect()
    };
    let fresh_keys = occurrence_keys(&fresh.rows);
    for (base_row, key) in base.rows.iter().zip(occurrence_keys(&base.rows)) {
        let Some(fresh_row) = fresh_keys
            .iter()
            .position(|k| *k == key)
            .map(|i| &fresh.rows[i])
        else {
            report.skipped_rows += 1;
            continue;
        };
        for (ci, column) in base.columns.iter().enumerate() {
            let Some(fci) = fresh_col(column) else {
                continue;
            };
            let base_cell = base_row.get(ci).map(String::as_str).unwrap_or("");
            let fresh_cell = fresh_row.get(fci).map(String::as_str).unwrap_or("");
            diff_cell(
                id,
                &base.title,
                &key.0,
                column,
                base_cell,
                fresh_cell,
                report,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn diff_cell(
    id: &str,
    table: &str,
    row: &str,
    column: &str,
    base: &str,
    fresh: &str,
    report: &mut DeltaReport,
) {
    let (delta_pct, regressed) = match (parse_metric(base), parse_metric(fresh)) {
        (Metric::Number(b), Metric::Number(f)) => {
            report.compared += 1;
            if b == f {
                return;
            }
            if b == 0.0 {
                // No percentage from a zero base; any change fails.
                (None, true)
            } else {
                let pct = (f - b) / b.abs() * 100.0;
                (Some(pct), pct.abs() > report.tolerance_pct)
            }
        }
        _ => {
            if base == fresh {
                return;
            }
            (None, true)
        }
    };
    report.deltas.push(Delta {
        experiment: id.to_string(),
        table: table.to_string(),
        row: row.to_string(),
        column: column.to_string(),
        baseline: base.to_string(),
        fresh: fresh.to_string(),
        delta_pct,
        regressed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, rows: &[(&str, &str, &str)]) -> String {
        let table = Json::obj([
            ("title", Json::str("metrics")),
            (
                "columns",
                Json::arr(["benchmark", "slowdown", "label"].map(Json::str)),
            ),
            (
                "rows",
                Json::arr(
                    rows.iter()
                        .map(|&(a, b, c)| Json::arr([a, b, c].map(Json::str))),
                ),
            ),
        ]);
        Json::obj([
            ("id", Json::str(id)),
            ("params", Json::obj([("scale", Json::uint(1))])),
            ("tables", Json::arr([table])),
        ])
        .render_pretty()
    }

    fn snapshot(docs: &[(&str, &str)]) -> Snapshot {
        Snapshot::from_documents(docs.iter().copied()).expect("parses")
    }

    #[test]
    fn identical_snapshots_are_clean() {
        let text = doc("fig4", &[("gzip", "1.500x", "a"), ("gcc", "3.000x", "b")]);
        let a = snapshot(&[("fig4.json", &text)]);
        let report = diff(&a, &a.clone(), 5.0);
        assert!(report.is_clean());
        assert!(report.deltas.is_empty());
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn drift_within_tolerance_is_reported_but_clean() {
        let base = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.000x", "a")]))]);
        let fresh = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.030x", "a")]))]);
        let report = diff(&base, &fresh, 5.0);
        assert!(report.is_clean());
        assert_eq!(report.deltas.len(), 1);
        let d = &report.deltas[0];
        assert!(!d.regressed);
        assert!((d.delta_pct.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn regression_beyond_tolerance_fails_and_names_experiment() {
        let base = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.000x", "a")]))]);
        let fresh = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.100x", "a")]))]);
        let report = diff(&base, &fresh, 5.0);
        assert_eq!(report.regressions(), 1);
        let text = report.render_text();
        assert!(text.contains("fig4"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        // Improvements beyond tolerance fail too — the numbers are pinned.
        let faster = snapshot(&[("f.json", &doc("fig4", &[("gzip", "0.900x", "a")]))]);
        assert_eq!(diff(&base, &faster, 5.0).regressions(), 1);
    }

    #[test]
    fn tolerance_boundary_is_exclusive() {
        let base = snapshot(&[("f.json", &doc("fig4", &[("gzip", "100", "a")]))]);
        let fresh = snapshot(&[("f.json", &doc("fig4", &[("gzip", "105", "a")]))]);
        assert!(
            diff(&base, &fresh, 5.0).is_clean(),
            "exactly 5% passes a 5% gate"
        );
        assert_eq!(diff(&base, &fresh, 4.9).regressions(), 1);
    }

    #[test]
    fn non_numeric_change_fails() {
        let base = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.000x", "old")]))]);
        let fresh = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.000x", "new")]))]);
        let report = diff(&base, &fresh, 50.0);
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.deltas[0].delta_pct, None);
    }

    #[test]
    fn zero_base_change_fails_without_percentage() {
        let base = snapshot(&[("f.json", &doc("t", &[("gzip", "0", "a")]))]);
        let fresh = snapshot(&[("f.json", &doc("t", &[("gzip", "7", "a")]))]);
        let report = diff(&base, &fresh, 99.0);
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.deltas[0].delta_pct, None);
    }

    #[test]
    fn missing_experiment_is_skipped_not_failed() {
        let base = snapshot(&[
            ("a.json", &doc("fig4", &[("gzip", "1.0x", "a")])),
            ("b.json", &doc("fig7", &[("gzip", "2.0x", "a")])),
        ]);
        let fresh = snapshot(&[("a.json", &doc("fig4", &[("gzip", "1.0x", "a")]))]);
        let report = diff(&base, &fresh, 5.0);
        assert!(report.is_clean());
        assert_eq!(report.skipped_experiments, ["fig7"]);
        let reverse = diff(&fresh, &base, 5.0);
        assert_eq!(reverse.new_experiments, ["fig7"]);
    }

    #[test]
    fn missing_table_and_column_are_shape_regressions() {
        let with = doc("fig4", &[("gzip", "1.0x", "a")]);
        let without = Json::obj([
            ("id", Json::str("fig4")),
            ("params", Json::obj([("scale", Json::uint(1))])),
            ("tables", Json::arr([])),
        ])
        .render();
        let base = snapshot(&[("f.json", &with)]);
        let fresh = snapshot(&[("f.json", &without)]);
        assert_eq!(diff(&base, &fresh, 5.0).regressions(), 1);

        let narrower = Json::parse(&with).unwrap();
        // Drop the `label` column from the fresh table.
        let narrower = {
            let table = Json::obj([
                ("title", Json::str("metrics")),
                (
                    "columns",
                    Json::arr(["benchmark", "slowdown"].map(Json::str)),
                ),
                (
                    "rows",
                    Json::arr([Json::arr(["gzip", "1.0x"].map(Json::str))]),
                ),
            ]);
            let mut doc = narrower;
            if let Json::Obj(members) = &mut doc {
                for (k, v) in members.iter_mut() {
                    if k == "tables" {
                        *v = Json::arr([table.clone()]);
                    }
                }
            }
            doc.render()
        };
        let fresh = snapshot(&[("f.json", &narrower)]);
        assert_eq!(
            diff(&base, &fresh, 5.0).regressions(),
            1,
            "missing column fails"
        );
    }

    #[test]
    fn params_mismatch_is_a_single_shape_regression() {
        let base = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.0x", "a")]))]);
        let other = doc("fig4", &[("gzip", "9.0x", "a")]).replace("\"scale\": 1", "\"scale\": 2");
        let fresh = snapshot(&[("f.json", &other)]);
        let report = diff(&base, &fresh, 5.0);
        assert_eq!(report.regressions(), 1);
        assert!(report.deltas[0].baseline.contains("params"));
    }

    #[test]
    fn duration_units_are_normalized() {
        let base = snapshot(&[(
            "m.json",
            &doc("microbench", &[("isa/encode", "1.00 µs", "")]),
        )]);
        let fresh = snapshot(&[(
            "m.json",
            &doc("microbench", &[("isa/encode", "1020 ns", "")]),
        )]);
        let report = diff(&base, &fresh, 5.0);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.deltas.len(), 1);
        assert!((report.deltas[0].delta_pct.unwrap() - 2.0).abs() < 1e-9);
        let slow = snapshot(&[(
            "m.json",
            &doc("microbench", &[("isa/encode", "1.20 ms", "")]),
        )]);
        assert_eq!(diff(&base, &slow, 5.0).regressions(), 1);
    }

    #[test]
    fn load_dir_round_trips() {
        let dir = std::env::temp_dir().join(format!("strata-baseline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig4.json"), doc("fig4", &[("gzip", "1.0x", "a")])).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let snap = Snapshot::load_dir(&dir).expect("loads");
        assert_eq!(snap.experiments.len(), 1);
        assert_eq!(snap.experiments[0].id, "fig4");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(Snapshot::load_dir(&dir).is_err(), "missing dir errors");
    }

    #[test]
    fn report_json_shape() {
        let base = snapshot(&[("f.json", &doc("fig4", &[("gzip", "1.000x", "a")]))]);
        let fresh = snapshot(&[("f.json", &doc("fig4", &[("gzip", "2.000x", "a")]))]);
        let json = diff(&base, &fresh, 5.0).to_json().render();
        assert!(json.contains("\"regressions\":1"), "{json}");
        assert!(json.contains("\"experiment\":\"fig4\""), "{json}");
    }
}
