//! The work-queue executor — the local consumer of the work plan.
//!
//! A run's plan is decided in three places, each the only one of its
//! kind: [`work_manifest`](crate::work_manifest) says *which* cells (the
//! selected experiments' cells, deduped, each native baseline directly
//! before the first translated cell implying it — [`with_implied_natives`]
//! is that completion step), [`dispatch_order`] says *in what order*
//! (natives first, each kind in manifest order), and [`program_for`] is
//! where every cell's `Program` comes from. [`execute`] here, the fleet
//! coordinator and the fleet worker consume that one plan and differ only
//! in who pulls the next cell: `execute` lets a `--jobs N` pool of scoped
//! threads claim indices off a shared atomic counter.
//!
//! Execution runs in two phases — the order's native prefix, then its
//! translated rest — so that every translated cell can verify its
//! checksum against an already-memoized native result without ever racing
//! another thread to compute the same baseline.
//!
//! Parallelism and scheduling order only change *when* results land in
//! the [`Store`]; the results themselves are deterministic functions of
//! their keys, and all rendering happens serially afterwards, so suite
//! output is bit-identical for every `--jobs` value.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use strata_core::{run_native_with_model, Sdt};
use strata_machine::{ExecTier, Program};
use strata_workloads::{by_name, Params, SAMPLED_ONLY_SCALE};

use crate::cell::{CellKey, CellResult, RunKind, Stage};
use crate::context::RunContext;
use crate::sampled::{ensure_bundle, estimate_cell};
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
/// # Errors
///
/// Returns a message for a workload the registry does not know.
pub fn program_for(workload: &str, params: Params) -> Result<Arc<Program>, String> {
    type ProgramKey = (String, u32, u64);
    static CACHE: OnceLock<Mutex<HashMap<ProgramKey, Arc<Program>>>> = OnceLock::new();
    let spec = by_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("program cache lock");
    Ok(Arc::clone(
        cache
            .entry((workload.to_string(), params.scale, params.variant))
            .or_insert_with(|| Arc::new((spec.build)(&params))),
    ))
}

/// Computes (or recalls) the result of one cell — the one producer of
/// results, in both modes. Exact translated cells verify their checksum
/// against the memoized native baseline, looked up first.
///
/// How the cell is produced is the store's [`RunContext`]: in sampled
/// mode natives are served from the trace header's per-profile baselines
/// and translated cells are estimated (see [`crate::sampled`]); exact
/// runs are priced under the context's predictor. A step that fails makes
/// the cell a [`CellResult::Failed`] naming its [`Stage`] — including an
/// exact run at a scale only sampled mode runs, which
/// [`SuiteOptions::manifest`](crate::SuiteOptions::manifest) already
/// refuses before any cell starts.
pub fn cell_result(store: &Store, key: &CellKey) -> Arc<CellResult> {
    let ctx = store.context();
    let exact_translated = ctx.traces_dir().is_none() && key.kind != RunKind::Native;
    let native = exact_translated.then(|| cell_result(store, &key.native_counterpart()));
    store.get_or_compute(key, || {
        compute(ctx, key, native.as_deref())
            .unwrap_or_else(|(stage, error)| CellResult::Failed { stage, error })
    })
}

/// [`cell_result`] on a store miss; `native` is an exact translated
/// cell's baseline.
fn compute(
    ctx: &RunContext,
    key: &CellKey,
    native: Option<&CellResult>,
) -> Result<CellResult, (Stage, String)> {
    let (workload, params, arch) = (key.workload, key.params, key.profile.name);
    let model = || ctx.model(key.profile.clone());
    let failed_native = native.and_then(CellResult::as_failed);
    match (&key.kind, ctx.traces_dir(), failed_native) {
        (RunKind::Native, Some(dir), _) => {
            let bundle = ensure_bundle(dir, workload, params).map_err(at(Stage::Estimate))?;
            let lacks =
                || at(Stage::Estimate)(format!("{workload}'s trace lacks a {arch} baseline"));
            Ok(CellResult::Native(
                bundle.header.native_for(arch).ok_or_else(lacks)?.clone(),
            ))
        }
        (RunKind::Translated(cfg), Some(dir), _) => {
            let cell = estimate_cell(dir, workload, params, *cfg, model());
            let report = cell.map_err(at(Stage::Estimate))?.report;
            Ok(CellResult::Translated(Box::new(report)))
        }
        _ if params.scale >= SAMPLED_ONLY_SCALE => Err((Stage::Scale, sampled_only(key))),
        (_, _, Some((stage, error))) => Err(at(Stage::Native)(format!(
            "baseline failed at {stage}: {error}"
        ))),
        (RunKind::Native, None, _) => {
            let program = program_for(workload, params).map_err(at(Stage::Build))?;
            let run = run_native_with_model(&program, model(), FUEL, exec_tier());
            Ok(CellResult::Native(run.map_err(at(Stage::Native))?))
        }
        (RunKind::Translated(cfg), None, _) => {
            let program = program_for(workload, params).map_err(at(Stage::Build))?;
            let mut sdt = Sdt::new(*cfg, &program).map_err(at(Stage::Translate))?;
            let report = sdt.run(model(), FUEL).map_err(at(Stage::Run))?;
            if native.and_then(CellResult::as_native).map(|n| n.checksum) != Some(report.checksum) {
                return Err(at(Stage::Checksum)("translated run diverged from native"));
            }
            Ok(CellResult::Translated(Box::new(report)))
        }
    }
}

/// Tags an error with the stage it happened at.
fn at<E: ToString>(stage: Stage) -> impl Fn(E) -> (Stage, String) {
    move |e| (stage, e.to_string())
}

/// Why an exact run refuses `cell`, whose scale only sampled mode runs.
pub(crate) fn sampled_only(cell: &CellKey) -> String {
    let (workload, scale) = (cell.workload, cell.params.scale);
    format!("{workload} at scale {scale} is sampled-only; run with --sampled")
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

/// The order `cells` are dispatched in, as indices into `cells`: native
/// baselines first (translated cells verify against them), each kind in
/// manifest order. The local executor and the fleet coordinator both hand
/// out work in this order.
pub fn dispatch_order(cells: &[CellKey]) -> Vec<usize> {
    let (natives, translated): (Vec<usize>, Vec<usize>) =
        (0..cells.len()).partition(|&i| cells[i].kind == RunKind::Native);
    [natives, translated].concat()
}

/// Executes `cells` (deduped) on `jobs` worker threads, populating `store`.
///
/// Every translated cell's native counterpart is scheduled too, so after
/// this returns the store can answer any slowdown query the cells imply.
pub fn execute(store: &Store, cells: &[CellKey], jobs: usize) {
    let cells = with_implied_natives(cells.iter().cloned());
    let order = dispatch_order(&cells);
    let natives = order.partition_point(|&i| cells[i].kind == RunKind::Native);
    for phase in [&order[..natives], &order[natives..]] {
        run_phase(store, &cells, phase, jobs.max(1));
    }
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
    fn natives_lead_and_each_kind_keeps_manifest_order() {
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let sdt = |w| CellKey::translated(w, SdtConfig::reentry(), x86.clone(), p);
        let native = |w| CellKey::native(w, x86.clone(), p);
        let set = [native("gzip"), sdt("gzip"), native("gcc"), sdt("gcc")];
        assert_eq!(dispatch_order(&set), [0, 2, 1, 3]);
        // Whatever the interleaving, nothing but the kind moves a cell.
        let set = [sdt("mcf"), native("gcc"), sdt("gzip"), native("mcf")];
        assert_eq!(dispatch_order(&set), [1, 3, 0, 2]);
        assert_eq!(dispatch_order(&set[..1]), [0]);
        assert!(dispatch_order(&[]).is_empty());
    }

    #[test]
    fn a_hit_builds_no_program() {
        // No workload is called `ghost`, so building its program fails:
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
        // Unheld, the same key is a failed build, not a panic.
        let fresh = Store::in_memory();
        let failed = cell_result(&fresh, &native);
        let (stage, error) = failed.as_failed().expect("a failed cell");
        assert_eq!((stage, error), (Stage::Build, "unknown workload `ghost`"));
    }

    /// Every way a cell can fail lands as a `Failed` naming its stage,
    /// the run goes on, and the cells that can run equal a clean run's.
    #[test]
    fn failed_cells_are_results_and_leave_the_rest_alone() {
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let big = Params {
            scale: strata_workloads::SAMPLED_ONLY_SCALE,
            variant: 0,
        };
        let good = vec![
            CellKey::translated("gzip", SdtConfig::ibtc_inline(512), x86.clone(), p),
            CellKey::translated("mcf", SdtConfig::reentry(), x86.clone(), p),
        ];
        let bad = [
            // An unknown workload, and a translated cell over its failed
            // native.
            CellKey::translated("ghost", SdtConfig::reentry(), x86.clone(), p),
            // A table size `Sdt::new` refuses.
            CellKey::translated("gzip", SdtConfig::ibtc_inline(3), x86.clone(), p),
            // An exact cell at a scale only sampled mode runs.
            CellKey::native("gzip", x86.clone(), big),
        ];
        let store = Store::in_memory();
        let all: Vec<CellKey> = good.iter().chain(&bad).cloned().collect();
        execute(&store, &all, 2);

        let stage_of = |key: CellKey| store.get(&key).and_then(|r| r.as_failed().map(|f| f.0));
        let ghost = CellKey::native("ghost", x86.clone(), p);
        assert_eq!(stage_of(ghost), Some(Stage::Build));
        let [over_ghost, bad_config, sampled_only] = bad;
        assert_eq!(stage_of(over_ghost.clone()), Some(Stage::Native));
        assert_eq!(stage_of(bad_config), Some(Stage::Translate));
        assert_eq!(stage_of(sampled_only), Some(Stage::Scale));
        let reason = store.get(&over_ghost).expect("held");
        assert_eq!(
            reason.as_failed().map(|f| f.1),
            Some("baseline failed at build: unknown workload `ghost`")
        );
        let failures = store.failures();
        assert_eq!(failures.len(), 4, "{failures:?}");

        let clean = Store::in_memory();
        execute(&clean, &good, 1);
        assert_eq!(clean.len(), 4, "two translated cells and their natives");
        let held: HashMap<String, Arc<CellResult>> = store.snapshot().into_iter().collect();
        for (key, result) in clean.snapshot() {
            assert_eq!(held.get(&key), Some(&result), "{key}");
        }
    }
}
