//! The work-queue executor.
//!
//! Simulation cells are pure, single-threaded, and independent, so the
//! scheduler is embarrassingly simple: dedupe the requested cells, then
//! let a `--jobs N` pool of scoped threads claim indices off a shared
//! atomic counter. Execution runs in two phases — native baselines first,
//! translated cells second — so that every translated cell can verify its
//! checksum against an already-memoized native result without ever racing
//! another thread to compute the same baseline.
//!
//! Within each phase, cells run **longest-first**: the [`BudgetBook`]
//! loaded from the disk cache ranks cells by their previously observed
//! `total_cycles`, so the gcc/perlbmk-sized cells that dominate the tail
//! start immediately instead of serializing at the end of the run. Cells
//! without a recorded budget fall back to FIFO order after the known ones
//! (see [`crate::budget`]); observed costs are recorded back into the
//! cache for the next run.
//!
//! Parallelism and scheduling order only change *when* results land in
//! the [`Store`]; the results themselves are deterministic functions of
//! their keys, and all rendering happens serially afterwards, so suite
//! output is bit-identical for every `--jobs` value and for every budget
//! ordering.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use strata_core::{run_native_with_model, Sdt};
use strata_machine::{ExecTier, Program};
use strata_workloads::{by_name, Params};

use crate::budget::order_longest_first;
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

/// Builds the program a cell runs (workload at the cell's params).
pub fn build_program(workload: &str, params: Params) -> Program {
    let spec = by_name(workload).unwrap_or_else(|| panic!("unknown workload `{workload}`"));
    (spec.build)(&params)
}

/// Computes (or recalls) the result of one cell. Translated cells verify
/// their checksum against the memoized native baseline.
///
/// How the cell is produced is the store's [`RunContext`](crate::RunContext):
/// in sampled mode every cell is served from trace-driven estimation
/// instead of exact simulation (see [`crate::sampled`]), and exact runs are
/// priced under the context's predictor. Exact mode refuses scaled-tier
/// workloads — their full runs are exactly what sampled mode exists to
/// avoid.
pub fn cell_result(store: &Store, key: &CellKey, program: &Program) -> Arc<CellResult> {
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
            CellResult::Native(
                run_native_with_model(program, ctx.model(key.profile.clone()), FUEL, exec_tier())
                    .unwrap_or_else(|e| {
                        panic!("native {} on {}: {e}", key.workload, key.profile.name)
                    }),
            )
        }),
        RunKind::Translated(cfg) => {
            let native = cell_result(store, &key.native_counterpart(), program);
            let cfg = *cfg;
            store.get_or_compute(key, || {
                let report = Sdt::new(cfg, program)
                    .unwrap_or_else(|e| {
                        panic!("sdt for {} / {}: {e}", key.workload, cfg.describe())
                    })
                    .run_with_model(ctx.model(key.profile.clone()), FUEL)
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

/// Executes `cells` (deduped) on `jobs` worker threads, populating `store`.
///
/// Every translated cell's native counterpart is scheduled too, so after
/// this returns the store can answer any slowdown query the cells imply.
pub fn execute(store: &Store, cells: &[CellKey], jobs: usize) {
    // Dedupe by key string, preserving first-seen order, and split into
    // the two phases.
    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut natives: Vec<CellKey> = Vec::new();
    let mut translated: Vec<CellKey> = Vec::new();
    let mut push = |key: CellKey, natives: &mut Vec<CellKey>, translated: &mut Vec<CellKey>| {
        if seen.insert(key.key_string(), ()).is_none() {
            match key.kind {
                RunKind::Native => natives.push(key),
                RunKind::Translated(_) => translated.push(key),
            }
        }
    };
    for cell in cells {
        if matches!(cell.kind, RunKind::Translated(_)) {
            push(cell.native_counterpart(), &mut natives, &mut translated);
        }
        push(cell.clone(), &mut natives, &mut translated);
    }

    // Build each (workload, params) program once, shared by all workers.
    let mut programs: HashMap<(&'static str, u32, u64), Program> = HashMap::new();
    for key in natives.iter().chain(&translated) {
        programs
            .entry((key.workload, key.params.scale, key.params.variant))
            .or_insert_with(|| build_program(key.workload, key.params));
    }

    // Longest-first within each phase, from budgets observed on previous
    // runs (empty book = FIFO). Both phases are ordered up front so this
    // run's own recordings cannot perturb its schedule.
    let ordered =
        [&natives, &translated].map(|phase| order_longest_first(phase, |cell| store.budget(cell)));
    for phase in &ordered {
        run_phase(store, phase, &programs, jobs.max(1));
    }
    store.flush_budgets();
}

fn run_phase(
    store: &Store,
    cells: &[CellKey],
    programs: &HashMap<(&'static str, u32, u64), Program>,
    jobs: usize,
) {
    if cells.is_empty() {
        return;
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(cells.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(key) = cells.get(i) else { break };
                let program = &programs[&(key.workload, key.params.scale, key.params.variant)];
                cell_result(store, key, program);
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
}
