//! The work-queue executor — the local consumer of the work plan.
//!
//! A run's plan is decided in three places, each the only one of its
//! kind: [`work_manifest`](crate::work_manifest) says *which* cells (the
//! selected experiments' cells, deduped, each native baseline directly
//! before the first translated cell implying it — [`with_implied_natives`]
//! is that completion step), [`dispatch_order`] says *in what order*
//! (natives first, then longest recorded budget first, unknown budgets in
//! manifest order), and [`program_for`] is where every cell's `Program`
//! comes from. [`execute`] here, the fleet coordinator and the fleet
//! worker consume that one plan and differ only in who pulls the next
//! cell: `execute` lets a `--jobs N` pool of scoped threads claim indices
//! off a shared atomic counter.
//!
//! Execution runs in two phases — the order's native prefix, then its
//! translated rest — so that every translated cell can verify its
//! checksum against an already-memoized native result without ever racing
//! another thread to compute the same baseline. Observed costs are
//! recorded back into the disk cache's budget book for the next run (see
//! [`crate::budget`]).
//!
//! Parallelism and scheduling order only change *when* results land in
//! the [`Store`]; the results themselves are deterministic functions of
//! their keys, and all rendering happens serially afterwards, so suite
//! output is bit-identical for every `--jobs` value and for every budget
//! ordering.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use strata_core::{run_native_with_model, Sdt};
use strata_machine::{ExecTier, Program};
use strata_workloads::{by_name, Params};

use crate::budget::dispatch_order;
use crate::cell::{CellKey, CellResult, RunKind};
use crate::store::Store;

/// Fuel ceiling for every run — far above any workload at default scale.
pub const FUEL: u64 = 4_000_000_000;

/// Process-wide execution tier for native (untranslated) runs.
///
/// Tier choice cannot change any rendered number — retire streams are
/// bit-identical across tiers — so it is host-only configuration like
/// `--jobs`: in no cell key, no fingerprint, and not in the
/// [`RunContext`](crate::RunContext). Set once by [`set_exec_tier`] (the
/// CLI's `--tier` flag); the interpreter otherwise.
static EXEC_TIER: OnceLock<ExecTier> = OnceLock::new();

/// Pins the execution tier for this process (first caller wins).
pub fn set_exec_tier(tier: ExecTier) {
    let _ = EXEC_TIER.set(tier);
}

/// The process-wide execution tier.
pub fn exec_tier() -> ExecTier {
    *EXEC_TIER.get_or_init(|| ExecTier::Interp)
}

/// The program a workload builds at `params`, built once per process —
/// the one source of programs for exact cells, trace recording, sampled
/// replay and the experiments that simulate on the spot. [`cell_result`]
/// fetches it only once it knows it has to run something: a store hit
/// never builds.
///
/// # Panics
///
/// Panics on a workload the registry does not know.
pub fn program_for(workload: &str, params: Params) -> Arc<Program> {
    type ProgramKey = (String, u32, u64);
    static CACHE: OnceLock<Mutex<HashMap<ProgramKey, Arc<Program>>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("program cache lock");
    Arc::clone(
        cache
            .entry((workload.to_string(), params.scale, params.variant))
            .or_insert_with(|| {
                let spec =
                    by_name(workload).unwrap_or_else(|| panic!("unknown workload `{workload}`"));
                Arc::new((spec.build)(&params))
            }),
    )
}

/// Computes (or recalls) the result of one cell. Translated cells verify
/// their checksum against the memoized native baseline.
///
/// How the cell is produced is the store's [`RunContext`](crate::RunContext):
/// in sampled mode every cell is served from trace-driven estimation
/// instead of exact simulation (see [`crate::sampled`]), and exact runs are
/// priced under the context's predictor. Exact mode refuses scaled-tier
/// workloads — their full runs are exactly what sampled mode exists to
/// avoid; [`SuiteOptions::manifest`](crate::SuiteOptions::manifest) turns
/// that into an error before any cell starts, so the assertion here only
/// guards the invariant.
pub fn cell_result(store: &Store, key: &CellKey) -> Arc<CellResult> {
    let ctx = store.context();
    if ctx.traces_dir().is_some() {
        return crate::sampled::sampled_cell_result(store, key);
    }
    assert!(
        key.params.scale < strata_workloads::SAMPLED_ONLY_SCALE,
        "{} at scale {} is sampled-only; run with --sampled",
        key.workload,
        key.params.scale
    );
    match &key.kind {
        RunKind::Native => store.get_or_compute(key, || {
            let program = program_for(key.workload, key.params);
            CellResult::Native(
                run_native_with_model(&program, ctx.model(key.profile.clone()), FUEL, exec_tier())
                    .unwrap_or_else(|e| {
                        panic!("native {} on {}: {e}", key.workload, key.profile.name)
                    }),
            )
        }),
        RunKind::Translated(cfg) => {
            let native = cell_result(store, &key.native_counterpart());
            let cfg = *cfg;
            store.get_or_compute(key, || {
                let program = program_for(key.workload, key.params);
                let report = Sdt::new(cfg, &program)
                    .unwrap_or_else(|e| {
                        panic!("sdt for {} / {}: {e}", key.workload, cfg.describe())
                    })
                    .run(ctx.model(key.profile.clone()), FUEL)
                    .unwrap_or_else(|e| {
                        panic!(
                            "run {} / {} on {}: {e}",
                            key.workload,
                            cfg.describe(),
                            key.profile.name
                        )
                    });
                assert_eq!(
                    report.checksum,
                    native.checksum(),
                    "{}/{}: translated run diverged from native",
                    key.workload,
                    cfg.describe()
                );
                CellResult::Translated(Box::new(report))
            })
        }
    }
}

/// Completes a cell list into a work list: deduped by key string in
/// first-seen order, with every translated cell's native counterpart
/// inserted directly before the first translated cell that implies it (a
/// translated run verifies against the native checksum, and a render needs
/// the baseline for slowdowns). Idempotent.
pub(crate) fn with_implied_natives(cells: impl IntoIterator<Item = CellKey>) -> Vec<CellKey> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for cell in cells {
        if matches!(cell.kind, RunKind::Translated(_)) {
            let native = cell.native_counterpart();
            if seen.insert(native.key_string()) {
                out.push(native);
            }
        }
        if seen.insert(cell.key_string()) {
            out.push(cell);
        }
    }
    out
}

/// Executes `cells` (deduped) on `jobs` worker threads, populating `store`.
///
/// Every translated cell's native counterpart is scheduled too, so after
/// this returns the store can answer any slowdown query the cells imply.
pub fn execute(store: &Store, cells: &[CellKey], jobs: usize) {
    let cells = with_implied_natives(cells.iter().cloned());
    // The whole order is fixed up front, so this run's own budget
    // recordings cannot perturb its schedule.
    let order = dispatch_order(store, &cells);
    let natives = order.partition_point(|&i| cells[i].kind == RunKind::Native);
    for phase in [&order[..natives], &order[natives..]] {
        run_phase(store, &cells, phase, jobs.max(1));
    }
    store.flush_budgets();
}

fn run_phase(store: &Store, cells: &[CellKey], phase: &[usize], jobs: usize) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(phase.len()) {
            scope.spawn(|| {
                while let Some(&i) = phase.get(next.fetch_add(1, Ordering::Relaxed)) {
                    cell_result(store, &cells[i]);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_arch::ArchProfile;
    use strata_core::SdtConfig;

    #[test]
    fn execute_dedupes_and_verifies() {
        let store = Store::in_memory();
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let cfg = SdtConfig::ibtc_inline(512);
        // The same cell requested twice, plus its implied native baseline:
        // exactly two simulations run.
        let cells = vec![
            CellKey::translated("gzip", cfg, x86.clone(), p),
            CellKey::translated("gzip", cfg, x86.clone(), p),
        ];
        execute(&store, &cells, 2);
        assert_eq!(store.stats().computed, 2);
        assert!(store.get(&CellKey::native("gzip", x86, p)).is_some());
    }

    #[test]
    fn a_hit_builds_no_program() {
        // No workload is called `ghost`, so building its program panics:
        // lookups of results the store already holds must not get there.
        let store = Store::in_memory();
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let result = cell_result(&store, &CellKey::native("gzip", x86.clone(), p));
        let native = CellKey::native("ghost", x86.clone(), p);
        let translated = CellKey::translated("ghost", SdtConfig::reentry(), x86.clone(), p);
        for key in [&native, &translated] {
            store.put(key, (*result).clone());
            assert_eq!(cell_result(&store, key), result);
        }
        let view = crate::View::new(&store, p);
        assert_eq!(Some(&view.native("ghost", &x86)), result.as_native());
        assert_eq!(store.stats().computed, 1, "gzip alone was simulated");
    }
}
