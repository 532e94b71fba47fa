//! Suite orchestration: select experiments, expand them into the one
//! [`work_manifest`], execute it and render every experiment on one
//! parallel pool — text, CSV, or JSON — with per-experiment JSON
//! artifacts.
//!
//! A render starts only once every cell it declares is in the store, and
//! sections are assembled in registry order, so the output is
//! byte-identical for any `--jobs` value (the pool only changes *when*
//! each memoized result appears and each render runs, never what either
//! contains).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use strata_stats::baseline::{self, DeltaReport, Snapshot};
use strata_stats::Json;
use strata_workloads::{Params, SAMPLED_ONLY_SCALE};

use crate::cell::{CellKey, RunKind, Stage};
use crate::context::RunContext;
use crate::exec::{sampled_only, schedule, with_implied_natives, RenderNeeds};
use crate::experiments::Output;
use crate::registry::{by_id, registry, Experiment};
use crate::store::{ExecutionStats, Store, StoreStats};
use crate::view::View;

/// Stdout rendering format for `strata bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned text tables plus reading notes (default).
    Text,
    /// CSV per table, titles as `#` comment lines, notes omitted.
    Csv,
    /// One pretty-printed JSON document for the whole suite.
    Json,
}

impl OutputFormat {
    /// Parses `text` / `csv` / `json`.
    pub fn parse(s: &str) -> Result<OutputFormat, String> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "csv" => Ok(OutputFormat::Csv),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("unknown format `{other}` (text|csv|json)")),
        }
    }
}

/// Options for one suite run.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Worker threads (default: available parallelism).
    pub jobs: usize,
    /// Comma-separated experiment-id patterns (see [`select`]); `None`
    /// runs everything.
    pub filter: Option<String>,
    /// Stdout format.
    pub format: OutputFormat,
    /// Workload parameters.
    pub params: Params,
    /// Enable the on-disk cell cache under this directory.
    pub cache_dir: Option<PathBuf>,
    /// What the cells' results mean: exact or sampled, and under which
    /// predictor model. [`run_suite`] builds its store from it;
    /// [`render_from_store`] reads the store's own.
    pub context: RunContext,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            filter: None,
            format: OutputFormat::Text,
            params: Params::default(),
            cache_dir: None,
            context: RunContext::default(),
        }
    }
}

impl SuiteOptions {
    /// The [`work_manifest`] of this selection, checked against the
    /// context it is about to run under — what [`run_suite`] plans from.
    ///
    /// # Errors
    ///
    /// Returns an error when any filter pattern matches no experiment, or
    /// when an exact context is asked for a scale only sampled mode runs.
    pub fn manifest(&self) -> Result<Vec<CellKey>, String> {
        let cells = work_manifest(self.filter.as_deref(), self.params)?;
        if self.context.traces_dir().is_none() {
            let sampled_only_cell = cells.iter().find(|c| c.params.scale >= SAMPLED_ONLY_SCALE);
            if let Some(cell) = sampled_only_cell {
                return Err(sampled_only(cell));
            }
        }
        Ok(cells)
    }
}

/// One rendered experiment.
#[derive(Debug)]
pub struct SuiteSection {
    /// Experiment id (`table1`, `fig4`, …).
    pub id: &'static str,
    /// Experiment title.
    pub title: &'static str,
    /// Rendered tables and notes.
    pub output: Output,
}

/// The result of a suite run.
#[derive(Debug)]
pub struct SuiteReport {
    /// Rendered experiments in registry order.
    pub sections: Vec<SuiteSection>,
    /// The complete stdout rendering in the requested format.
    pub rendered: String,
    /// Per-experiment JSON artifacts as `(file_name, content)` pairs.
    pub artifacts: Vec<(String, String)>,
    /// Distinct cells requested by the selected experiments.
    pub unique_cells: usize,
    /// Store counters (computed / memo hits / disk hits).
    pub store_stats: StoreStats,
    /// What the exact translated executions behind the cells did.
    pub executions: ExecutionStats,
    /// Every failed cell as `(key, stage, error)` (see [`Store::failures`]).
    pub failures: Vec<(String, Stage, String)>,
}

fn patterns(filter: Option<&str>) -> Vec<&str> {
    filter
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

/// Whether `pattern` selects experiment `id`: a pattern that *is* an
/// experiment id selects exactly that experiment (`fig2` is fig2 alone,
/// not fig20–22 too); any other pattern selects every id containing it.
fn pattern_selects(pattern: &str, id: &str) -> bool {
    match by_id(pattern) {
        Some(exact) => exact.id == id,
        None => id.contains(pattern),
    }
}

/// Selects experiments matching `filter` (comma-separated patterns, see
/// `pattern_selects`; `None` or empty selects all), in registry order.
pub fn select(filter: Option<&str>) -> Vec<&'static Experiment> {
    let patterns = patterns(filter);
    registry()
        .iter()
        .filter(|e| patterns.is_empty() || patterns.iter().any(|p| pattern_selects(p, e.id)))
        .collect()
}

/// Checks that every comma-separated filter pattern matches at least one
/// experiment id. A typo'd pattern riding along with valid ones
/// (`--filter fig4,fgi7`) used to be silently dropped, so the run
/// "succeeded" while measuring less than asked.
///
/// # Errors
///
/// Returns a message naming the dead pattern and every valid id.
pub fn validate_filter(filter: Option<&str>) -> Result<(), String> {
    for pattern in patterns(filter) {
        if !registry().iter().any(|e| pattern_selects(pattern, e.id)) {
            let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
            return Err(format!(
                "filter pattern `{pattern}` matches no experiment (ids: {})",
                ids.join(", ")
            ));
        }
    }
    Ok(())
}

/// The canonical work manifest — the only expansion of a selection into
/// cells: the selected experiments' cells **plus** every translated cell's
/// implied native counterpart (a worker must verify against the native
/// checksum, and a render needs it for slowdowns), deduped by key string
/// in deterministic order — each native counterpart directly precedes the
/// first translated cell that implies it.
///
/// A run executes this list. Runs of two selections share the cells their
/// manifests share, under the same keys, so the disk caches of `--filter`
/// halves merge into the cache of their union.
///
/// # Errors
///
/// Returns an error when any filter pattern matches no experiment.
pub fn work_manifest(filter: Option<&str>, params: Params) -> Result<Vec<CellKey>, String> {
    validate_filter(filter)?;
    Ok(with_implied_natives(
        select(filter).into_iter().flat_map(|e| (e.cells)(params)),
    ))
}

/// Runs the suite: executes the selection's [`SuiteOptions::manifest`]
/// and renders every selected experiment on one `--jobs` pool (see
/// [`render_from_store`]).
///
/// # Errors
///
/// As [`SuiteOptions::manifest`]; nothing is simulated on an error.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteReport, String> {
    let cells = opts.manifest()?;
    let store = Store::new(opts.context.clone(), opts.cache_dir.clone());
    Ok(render(&store, opts, &cells))
}

/// Renders the selected experiments from `store`, computing first the
/// cells of the selection's [`work_manifest`] that it does not hold —
/// none, when `store` was filled by [`execute`](crate::execute) over that
/// manifest. Cells are computed, and renders run, on the `opts.jobs`
/// pool (see [`crate::exec`]), so the output is total however the store
/// was filled, and byte-identical to a local run over the same cells.
/// An experiment whose render errs, or which declares a failed cell, gets
/// a section of one note saying so instead; every other section is what a
/// clean run prints.
///
/// # Errors
///
/// Returns an error when any filter pattern matches no experiment.
pub fn render_from_store(store: &Store, opts: &SuiteOptions) -> Result<SuiteReport, String> {
    let cells = work_manifest(opts.filter.as_deref(), opts.params)?;
    Ok(render(store, opts, &cells))
}

/// Computes `cells` — the selection's manifest — into `store` and renders
/// the selected experiments beside them on one pool: a render whose
/// declared cells are all natives runs as soon as the natives are in,
/// every other render after the last translated group. A render that
/// reads trace bundles counts among the users of those of its cells'
/// (workload, params). Sections and artifacts are assembled in registry
/// order afterwards.
fn render(store: &Store, opts: &SuiteOptions, cells: &[CellKey]) -> SuiteReport {
    let selected = select(opts.filter.as_deref());
    let view = View::new(store, opts.params);
    let needs: Vec<RenderNeeds> = selected
        .iter()
        .map(|e| {
            let cells = (e.cells)(opts.params);
            let mut bundles: Vec<(&'static str, Params)> = Vec::new();
            for cell in cells.iter().filter(|_| e.reads_bundles) {
                if !bundles.contains(&(cell.workload, cell.params)) {
                    bundles.push((cell.workload, cell.params));
                }
            }
            RenderNeeds {
                natives_only: cells.iter().all(|c| c.kind == RunKind::Native),
                bundles,
            }
        })
        .collect();
    let outputs: Vec<OnceLock<Output>> = selected.iter().map(|_| OnceLock::new()).collect();
    schedule(store, cells, opts.jobs, &needs, |i| {
        let section = render_section(selected[i], &view, store);
        outputs[i].set(section).expect("each render runs once");
    });
    let sections: Vec<SuiteSection> = selected
        .iter()
        .zip(outputs)
        .map(|(e, output)| SuiteSection {
            id: e.id,
            title: e.title,
            output: output
                .into_inner()
                .expect("every selected experiment rendered"),
        })
        .collect();

    let mut artifacts: Vec<(String, String)> = sections
        .iter()
        .map(|s| {
            (
                format!("{}.json", s.id),
                section_json(s, opts.params).render_pretty() + "\n",
            )
        })
        .collect();
    // Per-cell raw metrics, rendered after the sections so cells computed
    // lazily during a render are included. This is the finest-grained
    // artifact the baseline gate diffs.
    let cells_doc = Json::obj([
        ("id", Json::str("cells")),
        (
            "title",
            Json::str("Per-cell raw metrics for the selected experiments"),
        ),
        ("params", params_json(opts.params)),
        ("tables", Json::arr([view.cells_table().to_json()])),
        ("notes", Json::arr([])),
    ]);
    artifacts.push(("cells.json".to_string(), cells_doc.render_pretty() + "\n"));

    let rendered = match opts.format {
        OutputFormat::Text => render_text(&sections),
        OutputFormat::Csv => render_csv(&sections),
        OutputFormat::Json => {
            let doc = Json::obj([
                ("params", params_json(opts.params)),
                (
                    "experiments",
                    Json::arr(sections.iter().map(|s| section_json(s, opts.params))),
                ),
            ]);
            doc.render_pretty() + "\n"
        }
    };

    SuiteReport {
        sections,
        rendered,
        artifacts,
        unique_cells: store.len(),
        store_stats: store.stats(),
        executions: store.executions(),
        failures: store.failures(),
    }
}

/// `e`'s section, or a one-note failure section when its render errs or
/// a cell it declares (or a native those imply) failed. The cells are
/// only looked at when the store holds a failure at all, and a render
/// reads only the cells its experiment declares. Run when those cells are
/// final (see [`render`]) — for a render of natives only, while
/// translated cells may still be landing; it looks at none of them.
fn render_section(e: &Experiment, view: &View, store: &Store) -> Output {
    let cells = store
        .holds_failures()
        .then(|| with_implied_natives((e.cells)(view.params())));
    let failed = cells.into_iter().flatten().find_map(|cell| {
        let result = store.get(&cell)?;
        let (stage, error) = result.as_failed()?;
        Some(format!(
            "cell {} failed at {stage}: {error}",
            cell.key_string()
        ))
    });
    let rendered = failed.map_or_else(|| (e.render)(view), Err);
    rendered.unwrap_or_else(|reason| Output {
        notes: vec![format!("NOT RENDERED: {reason}")],
        ..Output::default()
    })
}

/// Writes the report's JSON artifacts under `dir` (created if missing).
///
/// # Errors
///
/// Returns a message naming the file that failed.
pub fn write_artifacts(report: &SuiteReport, dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for (name, content) in &report.artifacts {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

/// Diffs a fresh suite report against the committed baseline snapshot
/// under `baseline_dir` at `tolerance_pct`.
///
/// The fresh side is the report's JSON artifacts (per-experiment tables
/// plus the per-cell metrics document), so the gate sees exactly what
/// `write_artifacts` would persist. Baseline experiments the run did not
/// select are reported as skipped, not failed — a filtered run can still
/// gate against a full-suite baseline.
///
/// # Errors
///
/// Returns an error when the baseline directory is missing, empty, or
/// holds unparsable documents.
pub fn baseline_gate(
    report: &SuiteReport,
    baseline_dir: &Path,
    tolerance_pct: f64,
) -> Result<DeltaReport, String> {
    let baseline = Snapshot::load_dir(baseline_dir).map_err(|e| {
        format!(
            "baseline: {e} (capture one with `strata bench --artifacts-dir {}`)",
            baseline_dir.display()
        )
    })?;
    let fresh = Snapshot::from_documents(
        report
            .artifacts
            .iter()
            .map(|(name, content)| (name.as_str(), content.as_str())),
    )?;
    Ok(baseline::diff(&baseline, &fresh, tolerance_pct))
}

fn params_json(params: Params) -> Json {
    Json::obj([
        ("scale", Json::uint(params.scale as u64)),
        ("variant", Json::uint(params.variant)),
    ])
}

fn section_json(section: &SuiteSection, params: Params) -> Json {
    Json::obj([
        ("id", Json::str(section.id)),
        ("title", Json::str(section.title)),
        ("params", params_json(params)),
        (
            "tables",
            Json::arr(section.output.tables.iter().map(|t| t.to_json())),
        ),
        (
            "notes",
            Json::arr(section.output.notes.iter().map(Json::str)),
        ),
    ])
}

fn render_text(sections: &[SuiteSection]) -> String {
    let mut out = String::new();
    for section in sections {
        out.push_str(&format!("== {} — {} ==\n\n", section.id, section.title));
        for table in &section.output.tables {
            out.push_str(&table.render_text());
            out.push('\n');
        }
        for note in &section.output.notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

fn render_csv(sections: &[SuiteSection]) -> String {
    let mut out = String::new();
    for section in sections {
        for table in &section.output.tables {
            out.push_str(&format!("# {}: {}\n", section.id, table.title()));
            out.push_str(&table.render_csv());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_matches_exact_ids_then_substrings() {
        let ids = |filter| -> Vec<&str> { select(Some(filter)).iter().map(|e| e.id).collect() };
        assert_eq!(select(None).len(), 23);
        assert_eq!(select(Some("")).len(), 23);
        assert_eq!(ids("table"), ["table1", "table2"]);
        assert_eq!(ids("fig4, fig7"), ["fig4", "fig7"]);
        // An experiment id selects that experiment alone, although it is
        // also a substring of fig20..fig22.
        assert_eq!(ids("fig2"), ["fig2"]);
        // fig1 is no experiment, so it stays a substring of fig10..fig19.
        let teens: Vec<String> = (10..20).map(|n| format!("fig{n}")).collect();
        assert_eq!(ids("fig1"), teens);
        assert_eq!(ids("fig").len(), 21, "every figure, neither table");
        // What the benchmark's workloads pass.
        assert_eq!(ids("table1"), ["table1"]);
        assert_eq!(ids("fig3,fig13,fig14"), ["fig3", "fig13", "fig14"]);
        assert_eq!(ids("fig20,fig21,fig22"), ["fig20", "fig21", "fig22"]);
        assert!(select(Some("nope")).is_empty());
    }

    #[test]
    fn format_parses() {
        assert_eq!(OutputFormat::parse("text"), Ok(OutputFormat::Text));
        assert_eq!(OutputFormat::parse("csv"), Ok(OutputFormat::Csv));
        assert_eq!(OutputFormat::parse("json"), Ok(OutputFormat::Json));
        assert!(OutputFormat::parse("yaml").is_err());
    }

    #[test]
    fn empty_filter_error_names_ids() {
        let opts = SuiteOptions {
            filter: Some("zzz".into()),
            ..SuiteOptions::default()
        };
        let err = run_suite(&opts).unwrap_err();
        assert!(err.contains("table1"), "{err}");
    }

    #[test]
    fn exact_runs_refuse_sampled_only_scales_before_any_cell_starts() {
        let exact = SuiteOptions {
            filter: Some("table1".into()),
            params: Params {
                scale: strata_workloads::SAMPLED_ONLY_SCALE,
                variant: 0,
            },
            ..SuiteOptions::default()
        };
        let err = run_suite(&exact).unwrap_err();
        assert_eq!(err, "gzip at scale 10 is sampled-only; run with --sampled");
        // The same selection is a plan under a sampled context, and one
        // scale down it is a plan under an exact one.
        let sampled = SuiteOptions {
            context: RunContext {
                mode: crate::Mode::Sampled {
                    traces_dir: "unused".into(),
                },
                ..RunContext::default()
            },
            ..exact.clone()
        };
        assert_eq!(sampled.manifest().map(|m| m.len()), Ok(12));
        let mut below = exact;
        below.params.scale -= 1;
        assert_eq!(below.manifest().map(|m| m.len()), Ok(12));
    }

    #[test]
    fn dead_pattern_among_valid_ones_errors() {
        // `fig4` matches, `fgi7` does not: the whole run must fail rather
        // than silently measuring less than asked.
        let opts = SuiteOptions {
            filter: Some("fig4,fgi7".into()),
            ..SuiteOptions::default()
        };
        let err = run_suite(&opts).unwrap_err();
        assert!(err.contains("`fgi7`"), "{err}");
        assert!(
            err.contains("fig17"),
            "error must list the valid ids: {err}"
        );

        assert!(validate_filter(None).is_ok());
        assert!(validate_filter(Some("")).is_ok());
        assert!(validate_filter(Some("fig4, fig7")).is_ok());
        assert!(
            validate_filter(Some("fig4,,")).is_ok(),
            "empty segments are ignored"
        );
        assert!(validate_filter(Some("fig4,nope")).is_err());
    }
}
