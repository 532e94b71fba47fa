//! End-to-end guarantees of the orchestrator: parallel suite runs are
//! byte-identical to serial ones, memoization keys never collide, and the
//! on-disk cell cache round-trips results faithfully.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_expt::{
    execute, registry, render_from_store, run_suite, work_manifest, CellKey, CellResult,
    OutputFormat, Stage, Store, SuiteOptions,
};
use strata_stats::Json;
use strata_workloads::Params;

/// A small but representative filter: table1 touches every workload's
/// native run, fig14 exercises cache-limit configs on two workloads.
const FILTER: &str = "table1,fig14";

fn opts(jobs: usize, format: OutputFormat) -> SuiteOptions {
    SuiteOptions {
        jobs,
        filter: Some(FILTER.into()),
        format,
        params: Params::default(),
        cache_dir: None,
        ..SuiteOptions::default()
    }
}

fn suite(jobs: usize, format: OutputFormat) -> strata_expt::SuiteReport {
    run_suite(&opts(jobs, format)).expect("suite runs")
}

/// One failed fig14 cell, planted before the run: table1's section and
/// artifact are what a clean run prints, fig14's section is one note
/// naming the cell, and `cells.json` leaves the cell out.
#[test]
fn a_failed_cell_replaces_only_the_sections_that_read_it() {
    let clean = suite(2, OutputFormat::Text);
    let opts = opts(2, OutputFormat::Text);
    let failed_cell = registry()
        .iter()
        .find(|e| e.id == "fig14")
        .map(|e| (e.cells)(opts.params)[0].clone())
        .expect("fig14 has cells");
    let key = failed_cell.key_string();
    let store = Store::in_memory();
    let planted = CellResult::Failed {
        stage: Stage::Run,
        error: "planted".into(),
    };
    store.put(&failed_cell, planted);
    execute(&store, &opts.manifest().expect("plan"), 2);
    let report = render_from_store(&store, &opts).expect("renders");

    assert_eq!(
        report.failures,
        [(key.clone(), Stage::Run, "planted".into())]
    );
    let table1 = |text: &str| text.split("== fig14").next().map(str::to_string);
    assert_eq!(table1(&report.rendered), table1(&clean.rendered));
    let artifact = |r: &strata_expt::SuiteReport, name: &str| {
        let found = r.artifacts.iter().find(|(n, _)| n == name);
        found.map(|(_, text)| text.clone()).expect(name)
    };
    assert_eq!(
        artifact(&report, "table1.json"),
        artifact(&clean, "table1.json")
    );
    let fig14 = &report.sections[1];
    assert!(fig14.output.tables.is_empty());
    assert_eq!(
        fig14.output.notes,
        [format!("NOT RENDERED: cell {key} failed at run: planted")]
    );
    let rows = |r: &strata_expt::SuiteReport| -> Vec<String> {
        let doc = Json::parse(&artifact(r, "cells.json")).expect("cells.json parses");
        cell_keys(&doc)
    };
    let mut expected = rows(&clean);
    expected.retain(|k| *k != key);
    assert_eq!(rows(&report), expected);
    assert_eq!(expected.len() + 1, rows(&clean).len());
}

/// The cell keys of a `cells.json` document, in row order.
fn cell_keys(doc: &Json) -> Vec<String> {
    let table = &doc.get("tables").and_then(Json::as_arr).expect("tables")[0];
    let rows = table.get("rows").and_then(Json::as_arr).expect("rows");
    rows.iter()
        .map(|row| row.as_arr().and_then(|r| r[0].as_str()).expect("a key"))
        .map(str::to_string)
        .collect()
}

/// What a section's failure check relies on: a render reads only the
/// cells its experiment declares. The committed full-suite `cells.json`
/// holds every cell the renders read, and its rows are exactly the work
/// manifest's keys.
#[test]
fn baseline_cells_are_exactly_the_manifest() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baseline/cells.json"
    );
    let text = std::fs::read_to_string(path).expect("committed baseline");
    let mut rows = cell_keys(&Json::parse(&text).expect("parses"));
    let manifest = work_manifest(None, Params::default()).expect("manifest");
    let mut keys: Vec<String> = manifest.iter().map(CellKey::key_string).collect();
    rows.sort();
    keys.sort();
    assert_eq!(rows, keys);
    assert_eq!(keys.len(), 1176);
}

/// Renders run on the pool beside the cells, so besides matching the
/// serial run byte for byte, neither run may simulate a cell outside the
/// manifest: a render reading an undeclared cell would compute it on the
/// spot, racing the pool.
#[test]
fn parallel_suite_is_byte_identical_to_serial() {
    let serial = suite(1, OutputFormat::Text);
    let parallel = suite(4, OutputFormat::Text);
    assert_eq!(
        serial.rendered, parallel.rendered,
        "text output depends on --jobs"
    );
    assert_eq!(
        serial.artifacts, parallel.artifacts,
        "JSON artifacts depend on --jobs"
    );
    assert_eq!(serial.unique_cells, parallel.unique_cells);
    let manifest = work_manifest(Some(FILTER), Params::default()).expect("manifest");
    for report in [&serial, &parallel] {
        assert_eq!(report.store_stats.computed as usize, manifest.len());
    }
}

/// A render whose cells are all natives runs before the translated cells
/// are in; its failure check sees the same failed native a late render
/// does. table1 (early) and fig2 (late) over a failed x86 gzip native,
/// rendered from a store holding nothing else: both sections are the one
/// note naming it, and the translated gzip cell fails over it.
#[test]
fn an_early_render_reports_its_failed_native() {
    let opts = SuiteOptions {
        jobs: 2,
        filter: Some("table1,fig2".into()),
        ..SuiteOptions::default()
    };
    let x86 = ArchProfile::x86_like();
    let native = CellKey::native("gzip", x86.clone(), opts.params);
    let over = CellKey::translated("gzip", SdtConfig::reentry(), x86, opts.params);
    let store = Store::in_memory();
    let planted = CellResult::Failed {
        stage: Stage::Run,
        error: "planted".into(),
    };
    store.put(&native, planted);
    let report = render_from_store(&store, &opts).expect("renders");

    let key = native.key_string();
    let note = format!("NOT RENDERED: cell {key} failed at run: planted");
    let ids: Vec<&str> = report.sections.iter().map(|s| s.id).collect();
    assert_eq!(ids, ["table1", "fig2"]);
    for section in &report.sections {
        assert!(section.output.tables.is_empty(), "{}", section.id);
        assert_eq!(
            section.output.notes,
            std::slice::from_ref(&note),
            "{}",
            section.id
        );
    }
    let baseline = "baseline failed at run: planted".to_string();
    let mut expected = vec![
        (key, Stage::Run, "planted".to_string()),
        (over.key_string(), Stage::Native, baseline),
    ];
    expected.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(report.failures, expected);
}

#[test]
fn json_format_is_deterministic_too() {
    let serial = suite(1, OutputFormat::Json);
    let parallel = suite(3, OutputFormat::Json);
    assert_eq!(serial.rendered, parallel.rendered);
}

#[test]
fn memoization_dedupes_across_experiments() {
    // table1 and fig14 both need gcc/perlbmk natives; the store must
    // compute each unique cell exactly once.
    let report = suite(2, OutputFormat::Text);
    let stats = report.store_stats;
    assert_eq!(stats.computed as usize, report.unique_cells);
    assert!(
        stats.memo_hits > 0,
        "shared natives should hit the memo store"
    );
}

#[test]
fn distinct_cells_never_share_a_key() {
    // Walk every dimension the key must separate; any two distinct cells
    // must yield distinct key strings.
    let profiles = [
        ArchProfile::x86_like(),
        ArchProfile::sparc_like(),
        ArchProfile::mips_like(),
    ];
    let configs = [
        SdtConfig::reentry(),
        SdtConfig::ibtc_inline(512),
        SdtConfig::ibtc_inline(1024),
        SdtConfig::ibtc_out_of_line(1024),
        SdtConfig::sieve(1024),
        SdtConfig::tuned(4096, 1024),
    ];
    let params = [
        Params {
            scale: 1,
            variant: 0,
        },
        Params {
            scale: 2,
            variant: 0,
        },
        Params {
            scale: 1,
            variant: 7,
        },
    ];
    let mut keys = std::collections::HashSet::new();
    let mut total = 0usize;
    for workload in ["gzip", "gcc"] {
        for profile in &profiles {
            for p in params {
                keys.insert(CellKey::native(workload, profile.clone(), p).key_string());
                total += 1;
                for cfg in &configs {
                    keys.insert(
                        CellKey::translated(workload, *cfg, profile.clone(), p).key_string(),
                    );
                    total += 1;
                }
            }
        }
    }
    assert_eq!(keys.len(), total, "cell key collision");
}

#[test]
fn equal_cells_always_hit() {
    let a = CellKey::translated(
        "vortex",
        SdtConfig::tuned(4096, 1024),
        ArchProfile::x86_like(),
        Params::default(),
    );
    let b = CellKey::translated(
        "vortex",
        SdtConfig::tuned(4096, 1024),
        ArchProfile::x86_like(),
        Params::default(),
    );
    assert_eq!(a.key_string(), b.key_string());
    assert_eq!(a.cache_file_name(), b.cache_file_name());
}

#[test]
fn disk_cache_round_trips_suite_cells() {
    let dir = std::env::temp_dir().join(format!("strata-expt-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let opts = SuiteOptions {
        jobs: 2,
        filter: Some("fig14".into()),
        format: OutputFormat::Text,
        params: Params::default(),
        cache_dir: Some(dir.clone()),
        ..SuiteOptions::default()
    };
    let cold = run_suite(&opts).expect("cold run");
    assert!(cold.store_stats.computed > 0);
    assert_eq!(cold.store_stats.disk_hits, 0);

    let warm = run_suite(&opts).expect("warm run");
    assert_eq!(
        warm.store_stats.computed, 0,
        "warm run must be served from disk"
    );
    assert_eq!(warm.store_stats.disk_hits as usize, warm.unique_cells);
    assert_eq!(cold.rendered, warm.rendered, "disk cache changed results");
    assert_eq!(cold.artifacts, warm.artifacts);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The one way to split a run across machines: each runs its own
/// `--filter … --cache`, the `*.cell` files are copied into one
/// directory, and a run of the union renders from it without simulating —
/// byte for byte what one in-memory run of the union prints.
#[test]
fn caches_of_filtered_runs_merge_and_render_from_disk() {
    let root = std::env::temp_dir().join(format!("strata-expt-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let opts = |filter: &str, cache: Option<std::path::PathBuf>| SuiteOptions {
        jobs: 2,
        filter: Some(filter.into()),
        cache_dir: cache,
        ..SuiteOptions::default()
    };
    let merged_dir = root.join("merged");
    std::fs::create_dir_all(&merged_dir).expect("merged cache dir");
    for half in ["fig2", "fig4"] {
        let dir = root.join(half);
        let run = run_suite(&opts(half, Some(dir.clone()))).expect("half run");
        assert!(run.store_stats.computed > 0, "{half} simulated nothing");
        for entry in std::fs::read_dir(&dir).expect("half cache") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "cell") {
                let name = path.file_name().expect("name");
                std::fs::copy(&path, merged_dir.join(name)).expect("copy");
            }
        }
    }
    let merged = run_suite(&opts("fig2,fig4", Some(merged_dir))).expect("merged render");
    assert_eq!(
        merged.store_stats.computed, 0,
        "the merge must not simulate"
    );
    let local = run_suite(&opts("fig2,fig4", None)).expect("local run");
    assert_eq!(merged.unique_cells, local.unique_cells);
    assert_eq!(merged.rendered, local.rendered);
    assert_eq!(merged.artifacts, local.artifacts);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn store_counts_are_consistent() {
    let store = Store::in_memory();
    assert!(store.is_empty());
    let opts = SuiteOptions {
        jobs: 1,
        filter: Some("fig2".into()),
        format: OutputFormat::Csv,
        params: Params::default(),
        cache_dir: None,
        ..SuiteOptions::default()
    };
    let report = run_suite(&opts).expect("suite runs");
    // fig2: reentry config across all 12 workloads + 12 natives.
    assert_eq!(report.unique_cells, 24);
    // The store holds exactly the manifest.
    let manifest = work_manifest(Some("fig2"), opts.params).expect("manifest");
    assert_eq!(report.unique_cells, manifest.len());
    assert!(report.rendered.starts_with("# fig2:"));
}
