//! Suite orchestration: select experiments, expand their cells, execute
//! the deduped cell set in parallel, then render every experiment
//! serially — text, CSV, or JSON — with per-experiment JSON artifacts.
//!
//! Rendering happens strictly after execution and in registry order, so
//! the output is byte-identical for any `--jobs` value (the parallel
//! phase only changes *when* each memoized result appears, never what it
//! contains).

use std::path::{Path, PathBuf};

use strata_stats::baseline::{self, DeltaReport, Snapshot};
use strata_stats::Json;
use strata_workloads::Params;

use crate::cell::CellKey;
use crate::context::RunContext;
use crate::exec::execute;
use crate::experiments::Output;
use crate::registry::{by_id, registry, Experiment};
use crate::store::{Store, StoreStats};
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
    /// predictor model. [`run_suite`] and [`run_shard`] build their store
    /// from it; [`render_from_store`] reads the store's own.
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
/// [`pattern_selects`]; `None` or empty selects all), in registry order.
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

/// Expands the selected experiments into their cells, deduped by key
/// string in first-seen order — the canonical work list both `run_suite`
/// and the shard partition operate on.
fn expand_cells(selected: &[&'static Experiment], params: Params) -> Vec<CellKey> {
    let mut seen = std::collections::HashSet::new();
    let mut cells = Vec::new();
    for e in selected {
        for cell in (e.cells)(params) {
            if seen.insert(cell.key_string()) {
                cells.push(cell);
            }
        }
    }
    cells
}

/// The canonical work manifest for a distributed run: the selected
/// experiments' cells **plus** every translated cell's implied native
/// counterpart (a worker must verify against the native checksum, and the
/// coordinator must be able to render slowdowns), deduped by key string
/// in deterministic order — each native counterpart directly precedes the
/// first translated cell that implies it.
///
/// Coordinator and workers both derive this list independently from
/// (filter, params), so work can be assigned by *manifest index* over the
/// wire and verified against the full key string; no cell-key codec is
/// needed, and any registry skew between the two binaries is caught by
/// [`RunContext::fingerprint`] before any work is handed out.
///
/// # Errors
///
/// Returns an error when any filter pattern matches no experiment.
pub fn work_manifest(filter: Option<&str>, params: Params) -> Result<Vec<CellKey>, String> {
    validate_filter(filter)?;
    let selected = select(filter);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for cell in expand_cells(&selected, params) {
        if let crate::cell::RunKind::Translated(_) = cell.kind {
            let native = cell.native_counterpart();
            if seen.insert(native.key_string()) {
                out.push(native);
            }
        }
        if seen.insert(cell.key_string()) {
            out.push(cell);
        }
    }
    Ok(out)
}

/// One `--shard index/count` slice of a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards, `>= 1`.
    pub count: u32,
}

/// The result of one shard's execution (no rendering happens in shard
/// mode — see [`run_shard`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// Distinct cells the selected experiments expand into, suite-wide.
    pub total_cells: usize,
    /// How many of those this shard owns and executed.
    pub shard_cells: usize,
    /// Store counters (computed / memo hits / disk hits).
    pub store_stats: StoreStats,
}

/// Executes one shard of the suite's cell set into the disk cache and
/// returns counts — **without rendering**.
///
/// The partition assigns each unique cell to exactly one shard by a
/// stable hash of its key string ([`CellKey::shard_of`]), so `n`
/// machines running `--shard 0/n .. (n-1)/n` cover the suite exactly
/// once. Rendering is deliberately skipped: a render would lazily
/// compute every cell the other shards own, defeating the split. Merge
/// the shards' `*.cell` files into one cache directory and render with
/// a plain `strata bench --cache` (all disk hits).
///
/// Translated cells verify against their native baseline, so a shard
/// also computes the (few, cheap) native counterparts of its translated
/// cells even when those hash to another shard — duplicated native work
/// is the price of coordination-free verification, and merging is still
/// well-defined because cell results are pure functions of their keys.
///
/// # Errors
///
/// Returns an error for a malformed shard (`index >= count` or zero
/// `count`), a missing `cache_dir` (a shard's only output is the disk
/// cache), or a filter pattern matching no experiment.
pub fn run_shard(opts: &SuiteOptions, shard: Shard) -> Result<ShardReport, String> {
    if shard.count == 0 {
        return Err("shard count must be at least 1".into());
    }
    if shard.index >= shard.count {
        return Err(format!(
            "shard index {} out of range for {} shard(s)",
            shard.index, shard.count
        ));
    }
    validate_filter(opts.filter.as_deref())?;
    let Some(cache_dir) = &opts.cache_dir else {
        return Err(
            "--shard requires the disk cache (a shard's only output is results/cache/)".into(),
        );
    };
    let selected = select(opts.filter.as_deref());
    let all = expand_cells(&selected, opts.params);
    let mine: Vec<CellKey> = all
        .iter()
        .filter(|c| c.shard_of(shard.count) == shard.index)
        .cloned()
        .collect();

    let store = Store::new(opts.context.clone(), Some(cache_dir.clone()));
    execute(&store, &mine, opts.jobs);
    Ok(ShardReport {
        total_cells: all.len(),
        shard_cells: mine.len(),
        store_stats: store.stats(),
    })
}

/// Runs the suite: execute all selected cells in parallel, then render.
///
/// # Errors
///
/// Returns an error when any filter pattern matches no experiment.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteReport, String> {
    validate_filter(opts.filter.as_deref())?;
    let selected = select(opts.filter.as_deref());

    let store = Store::new(opts.context.clone(), opts.cache_dir.clone());
    let cells = expand_cells(&selected, opts.params);
    execute(&store, &cells, opts.jobs);
    render_from_store(&store, opts)
}

/// Renders the selected experiments from an already-populated store — the
/// tail half of [`run_suite`], shared with the fleet coordinator. Cells
/// missing from the store are computed on the spot by the [`View`]'s lazy
/// path (serially), so the output is total regardless of how the store
/// was filled — and byte-identical to a local run over the same cells.
///
/// # Errors
///
/// Returns an error when any filter pattern matches no experiment.
pub fn render_from_store(store: &Store, opts: &SuiteOptions) -> Result<SuiteReport, String> {
    validate_filter(opts.filter.as_deref())?;
    let selected = select(opts.filter.as_deref());
    let unique_cells = store.len();

    let view = View::new(store, opts.params);
    let sections: Vec<SuiteSection> = selected
        .iter()
        .map(|e| SuiteSection {
            id: e.id,
            title: e.title,
            output: (e.render)(&view),
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

    Ok(SuiteReport {
        sections,
        rendered,
        artifacts,
        unique_cells,
        store_stats: store.stats(),
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
    fn shard_partition_is_disjoint_and_complete() {
        let selected = select(None);
        let all = expand_cells(&selected, Params::default());
        assert!(
            all.len() > 100,
            "expected the full suite grid, got {}",
            all.len()
        );
        for count in [1u32, 2, 3, 8] {
            let mut covered = 0usize;
            for index in 0..count {
                let mine: Vec<_> = all.iter().filter(|c| c.shard_of(count) == index).collect();
                covered += mine.len();
            }
            // Every cell's shard index is in range and deterministic, so
            // counting per-index membership covers each cell exactly once.
            assert_eq!(covered, all.len(), "count={count}");
            assert!(
                all.iter().all(|c| c.shard_of(count) < count),
                "count={count}"
            );
        }
        // One shard owns everything.
        assert!(all.iter().all(|c| c.shard_of(1) == 0));
    }

    #[test]
    fn run_shard_rejects_bad_specs() {
        let cached = SuiteOptions {
            cache_dir: Some(std::env::temp_dir().join("strata-shard-unused")),
            ..SuiteOptions::default()
        };
        let err = run_shard(&cached, Shard { index: 2, count: 2 }).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = run_shard(&cached, Shard { index: 0, count: 0 }).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");

        let uncached = SuiteOptions::default();
        let err = run_shard(&uncached, Shard { index: 0, count: 2 }).unwrap_err();
        assert!(err.contains("disk cache"), "{err}");

        let bad_filter = SuiteOptions {
            filter: Some("zzz".into()),
            cache_dir: Some(std::env::temp_dir().join("strata-shard-unused")),
            ..SuiteOptions::default()
        };
        assert!(run_shard(&bad_filter, Shard { index: 0, count: 2 }).is_err());
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
