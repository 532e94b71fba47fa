//! End-to-end test of the `--shard i/n` workflow: every shard executes
//! its slice of the cell set into a shared cache directory (in practice
//! each machine writes its own directory and the `*.cell` files are
//! merged afterwards — the file set is the same either way), then a
//! plain cached run renders the suite entirely from disk hits.

use strata_expt::{run_shard, run_suite, OutputFormat, Shard, SuiteOptions};
use strata_workloads::Params;

#[test]
fn shards_cover_the_suite_and_merge_renders_from_disk() {
    let dir = std::env::temp_dir().join(format!("strata-shard-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let opts = |cache| SuiteOptions {
        jobs: 2,
        filter: Some("fig2".into()),
        format: OutputFormat::Text,
        params: Params::default(),
        cache_dir: cache,
        ..SuiteOptions::default()
    };

    const COUNT: u32 = 3;
    let mut shard_cells = 0;
    let mut total_cells = None;
    for index in 0..COUNT {
        let report = run_shard(
            &opts(Some(dir.clone())),
            Shard {
                index,
                count: COUNT,
            },
        )
        .expect("shard run");
        shard_cells += report.shard_cells;
        // Every shard sees the same suite-wide work list.
        assert_eq!(
            *total_cells.get_or_insert(report.total_cells),
            report.total_cells
        );
    }
    // The partition is exhaustive and disjoint.
    assert_eq!(Some(shard_cells), total_cells);

    // The merged cache renders the full experiment without simulating:
    // translated cells all land as disk hits (only natives recomputed by
    // other shards may overlap, and those are also already on disk).
    let merged = run_suite(&opts(Some(dir.clone()))).expect("merged render");
    assert_eq!(
        merged.store_stats.computed, 0,
        "merge-then-render must not simulate"
    );

    // And it matches a from-scratch in-memory run byte for byte. (The
    // store's unique-cell count exceeds `total_cells` in both runs: it
    // also holds the native counterparts `execute` schedules implicitly.)
    let fresh = run_suite(&opts(None)).expect("fresh run");
    assert_eq!(merged.unique_cells, fresh.unique_cells);
    assert!(merged.unique_cells >= total_cells.unwrap());
    assert_eq!(merged.rendered, fresh.rendered);
    assert_eq!(merged.artifacts, fresh.artifacts);

    let _ = std::fs::remove_dir_all(&dir);
}
