//! Property tests for cell-key stability — the regression gate's
//! foundation. Baselines are matched against fresh runs by cell key, so a
//! key that drifts with registration order, `--jobs` count, or process
//! state would silently decouple the gate from the metrics it pins; and a
//! knob change that *fails* to change the key would alias two different
//! configurations onto one memoization slot.

use std::collections::BTreeSet;
use std::path::PathBuf;

use strata_arch::{ArchProfile, PredictorSpec};
use strata_core::{FlagsPolicy, IbMechanism, IbtcPlacement, IbtcScope, RetMechanism, SdtConfig};
use strata_expt::{execute, registry, CellKey, Mode, RunContext, Store};
use strata_workloads::Params;

/// The four kinds of run context, with the key namespace each has had
/// since its axis was introduced. These literals are what existing
/// `*.cell` caches were built against; a context must keep producing them
/// byte for byte.
fn contexts() -> [(RunContext, &'static str); 4] {
    let sampled = || Mode::Sampled {
        traces_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("key-traces"),
    };
    let ittage = PredictorSpec::Ittage { tables: 4 };
    let ctx = |mode, predictor| RunContext { mode, predictor };
    [
        (ctx(Mode::Exact, PredictorSpec::Legacy), ""),
        (ctx(sampled(), PredictorSpec::Legacy), "sampled/"),
        (ctx(Mode::Exact, ittage), "pred-ittage:4/"),
        (ctx(sampled(), ittage), "sampled/pred-ittage:4/"),
    ]
}

#[test]
fn context_namespaces_are_frozen() {
    for (context, namespace) in contexts() {
        assert_eq!(context.namespace(), namespace);
    }
    assert_eq!(RunContext::default(), contexts()[0].0);
}

#[test]
fn contexts_sharing_a_cache_directory_never_serve_each_others_cells() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("key-shared-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let x86 = ArchProfile::x86_like();
    let native = CellKey::native("gzip", x86.clone(), Params::default());
    let cell = CellKey::translated("gzip", SdtConfig::reentry(), x86, Params::default());
    // A budget file older versions kept beside the cells is neither read
    // nor deleted.
    std::fs::create_dir_all(&dir).expect("cache dir");
    let budgets = dir.join("budgets.v1");
    let old_book = format!("strata-budgets-v1\n9\t{}\n", cell.key_string());
    std::fs::write(&budgets, &old_book).expect("old budget file");

    // Every context computes the cell for itself, although all four write
    // into one directory...
    for (context, namespace) in contexts() {
        let store = Store::new(context, Some(dir.clone()));
        execute(&store, std::slice::from_ref(&cell), 1);
        assert_eq!(
            store.stats().computed,
            2,
            "`{namespace}` was served a foreign cell"
        );
        assert_eq!(store.stats().disk_hits, 0, "`{namespace}`");
    }
    // ...and afterwards each finds its own records again, under its own
    // namespace.
    let mut cycles = BTreeSet::new();
    for (context, namespace) in contexts() {
        let store = Store::new(context, Some(dir.clone()));
        // A sampled cell under a non-legacy predictor fails (the trace
        // header's baselines are legacy-priced, and a translated cell's
        // cycles are built on them), and a failed cell is never written,
        // so that context finds no record of its own.
        let refused = namespace == "sampled/pred-ittage:4/";
        assert_eq!(store.cached(&native).is_none(), refused, "`{namespace}`");
        let result = store.cached(&cell);
        assert_eq!(result.is_none(), refused, "`{namespace}`");
        let own = if refused { 0 } else { 2 };
        assert_eq!(store.stats().disk_hits, own, "`{namespace}`");
        if let Some(result) = result {
            let report = result.as_translated().expect("a translated result");
            cycles.insert((namespace.starts_with("sampled/"), report.total_cycles));
        }
    }
    // Exact and estimated cycles differ, so a mix-up would have shown.
    assert!(cycles.len() >= 2, "{cycles:?}");
    assert_eq!(std::fs::read_to_string(&budgets).ok(), Some(old_book));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Expands every registered experiment and returns the deduplicated,
/// sorted key set.
fn all_keys(order: impl Iterator<Item = &'static strata_expt::Experiment>) -> BTreeSet<String> {
    let params = Params::default();
    order
        .flat_map(|e| (e.cells)(params))
        .flat_map(|cell| {
            // The executor also schedules every translated cell's native
            // counterpart; include it like the real expansion does.
            let native = cell.native_counterpart();
            [cell, native]
        })
        .map(|cell| cell.key_string())
        .collect()
}

#[test]
fn key_set_is_invariant_under_registration_order() {
    let forward = all_keys(registry().iter());
    let reverse = all_keys(registry().iter().rev());
    assert_eq!(
        forward, reverse,
        "cell keys depend on job-spec registration order"
    );
    assert!(!forward.is_empty());
}

#[test]
fn key_strings_are_pure_functions_of_cell_content() {
    let make = || {
        CellKey::translated(
            "gcc",
            SdtConfig::tuned(4096, 1024),
            ArchProfile::sparc_like(),
            Params {
                scale: 2,
                variant: 5,
            },
        )
    };
    let a = make();
    // Rebuilding the same cell, and cloning it, must yield the same key
    // and the same disk-cache file name, however many times.
    for _ in 0..3 {
        assert_eq!(make().key_string(), a.key_string());
        assert_eq!(a.clone().key_string(), a.key_string());
        assert_eq!(make().cache_file_name(), a.cache_file_name());
    }
}

#[test]
fn executed_key_set_is_invariant_under_jobs_count() {
    // A small real cell set: two workloads, two configs, plus implied
    // natives. Execute at several --jobs values and compare the stores'
    // full key sets (the disk-cache names derive from these, so this also
    // pins the cache layout).
    let profile = ArchProfile::x86_like();
    let params = Params::default();
    let cells: Vec<CellKey> = ["gzip", "mcf"]
        .iter()
        .flat_map(|w| {
            [
                CellKey::translated(w, SdtConfig::ibtc_inline(512), profile.clone(), params),
                CellKey::translated(w, SdtConfig::sieve(1024), profile.clone(), params),
            ]
        })
        .collect();

    let keys_at = |jobs: usize| -> BTreeSet<String> {
        let store = Store::in_memory();
        execute(&store, &cells, jobs);
        store.snapshot().into_iter().map(|(key, _)| key).collect()
    };

    let serial = keys_at(1);
    assert_eq!(serial.len(), 6, "2 workloads x (2 translated + 1 native)");
    for jobs in [2, 4, 8] {
        assert_eq!(keys_at(jobs), serial, "key set depends on --jobs {jobs}");
    }
}

#[test]
fn every_knob_change_changes_the_key() {
    let base_cfg = SdtConfig::ibtc_inline(4096);
    let base = CellKey::translated("gzip", base_cfg, ArchProfile::x86_like(), Params::default());

    // One mutation per knob, each expected to produce a distinct key.
    let mut variants: Vec<(&str, CellKey)> = vec![
        (
            "workload",
            CellKey::translated("gcc", base_cfg, ArchProfile::x86_like(), Params::default()),
        ),
        (
            "profile",
            CellKey::translated(
                "gzip",
                base_cfg,
                ArchProfile::mips_like(),
                Params::default(),
            ),
        ),
        (
            "scale",
            CellKey::translated(
                "gzip",
                base_cfg,
                ArchProfile::x86_like(),
                Params {
                    scale: 2,
                    variant: 0,
                },
            ),
        ),
        (
            "variant",
            CellKey::translated(
                "gzip",
                base_cfg,
                ArchProfile::x86_like(),
                Params {
                    scale: 1,
                    variant: 3,
                },
            ),
        ),
        (
            "kind",
            CellKey::native("gzip", ArchProfile::x86_like(), Params::default()),
        ),
    ];
    let mut push_cfg = |label: &'static str, cfg: SdtConfig| {
        variants.push((
            label,
            CellKey::translated("gzip", cfg, ArchProfile::x86_like(), Params::default()),
        ));
    };
    push_cfg("ibtc entries", SdtConfig::ibtc_inline(2048));
    push_cfg("ibtc placement", SdtConfig::ibtc_out_of_line(4096));
    push_cfg("ibtc scope", {
        let mut c = base_cfg;
        c.ib = IbMechanism::Ibtc {
            entries: 4096,
            scope: IbtcScope::PerSite,
            placement: IbtcPlacement::Inline,
        };
        c
    });
    push_cfg("mechanism reentry", SdtConfig::reentry());
    push_cfg("mechanism sieve", SdtConfig::sieve(4096));
    push_cfg("return cache", SdtConfig::tuned(4096, 1024));
    push_cfg("return cache entries", SdtConfig::tuned(4096, 512));
    push_cfg("fast return", {
        let mut c = base_cfg;
        c.ret = RetMechanism::FastReturn;
        c
    });
    push_cfg("shadow stack", {
        let mut c = base_cfg;
        c.ret = RetMechanism::ShadowStack { depth: 64 };
        c
    });
    push_cfg("shadow depth", {
        let mut c = base_cfg;
        c.ret = RetMechanism::ShadowStack { depth: 128 };
        c
    });
    push_cfg("flags policy", {
        let mut c = base_cfg;
        c.flags = FlagsPolicy::None;
        c
    });
    push_cfg("fragment linking", {
        let mut c = base_cfg;
        c.link_fragments = false;
        c
    });
    push_cfg("cache limit", {
        let mut c = base_cfg;
        c.cache_limit = Some(1 << 16);
        c
    });
    push_cfg("cache limit value", {
        let mut c = base_cfg;
        c.cache_limit = Some(1 << 17);
        c
    });
    push_cfg("instrumentation", {
        let mut c = base_cfg;
        c.instrument_blocks = true;
        c
    });
    push_cfg("jump elision", {
        let mut c = base_cfg;
        c.elide_direct_jumps = true;
        c
    });
    push_cfg("ibtc ways", {
        let mut c = base_cfg;
        c.ibtc_ways = 2;
        c
    });

    let base_key = base.key_string();
    let mut seen = BTreeSet::from([base_key.clone()]);
    for (label, cell) in &variants {
        let key = cell.key_string();
        assert_ne!(
            key, base_key,
            "changing `{label}` did not change the cell key"
        );
        assert!(
            seen.insert(key.clone()),
            "`{label}` collides with another variant: {key}"
        );
    }
}
