//! The work-queue executor — the local consumer of the work plan.
//!
//! A run's plan is decided in three places, each the only one of its
//! kind: [`work_manifest`](crate::work_manifest) says *which* cells (the
//! selected experiments' cells, deduped, each native baseline directly
//! before the first translated cell implying it — `with_implied_natives`
//! is that completion step), `dispatch_order` says *in what order*
//! (natives first, each kind in manifest order), and `program_for` is
//! where every cell's `Program` comes from. [`execute`] consumes that one
//! plan: a `--jobs N` pool of scoped threads claims tasks — execution
//! groups and, for a suite, renders — off a shared atomic counter.
//!
//! An execution group (`execution_groups`) is the cells that differ
//! only in profile: one execution — in sampled mode, one trace replay —
//! serves them all, priced under each cell's model, and each result
//! lands under its own key.
//!
//! The pool runs three phases (`schedule`): the native groups; then the
//! renders that read natives only, followed by the translated groups;
//! then every other render. So every translated cell verifies its
//! checksum against an already-memoized native result without ever
//! racing another thread to compute the same baseline, and every render
//! starts once the cells it declares are in the store — the ones that
//! simulate on the spot (fig20–22) beside the translated groups.
//!
//! Parallelism and scheduling order only change *when* results land in
//! the [`Store`] and when a render runs; the results are deterministic
//! functions of their keys, a render reads only the cells its experiment
//! declares, and the suite assembles sections in registry order, so
//! suite output is bit-identical for every `--jobs` value.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use strata_arch::ArchModel;
use strata_core::{run_native_models, Sdt};
use strata_machine::{ExecTier, Program};
use strata_workloads::{by_name, Params, SAMPLED_ONLY_SCALE};

use crate::cell::{CellKey, CellResult, RunKind, Stage};
use crate::context::RunContext;
use crate::sampled::{ensure_bundle, estimate_cells, SampledCell};
use crate::store::Store;

/// Fuel ceiling for every run — far above any workload at default scale.
pub const FUEL: u64 = 4_000_000_000;

/// Process-wide execution tier for native (untranslated) runs.
///
/// Tier choice cannot change any rendered number — retire streams are
/// bit-identical across tiers — so it is host-only configuration like
/// `--jobs`: in no cell key and not in the
/// [`RunContext`](crate::RunContext). Set once by [`set_exec_tier`] (the
/// CLI's `--tier` flag); the interpreter otherwise.
static EXEC_TIER: OnceLock<ExecTier> = OnceLock::new();

/// Pins the execution tier for this process (first caller wins).
pub fn set_exec_tier(tier: ExecTier) {
    let _ = EXEC_TIER.set(tier);
}

/// The process-wide execution tier.
pub(crate) fn exec_tier() -> ExecTier {
    *EXEC_TIER.get_or_init(|| ExecTier::Interp)
}

/// The program a workload builds at `params`, built once per process —
/// the one source of programs for exact cells, trace recording, sampled
/// replay and the experiments that simulate on the spot. [`cell_result`]
/// fetches it only once it knows it has to run something: a store hit
/// never builds.
///
/// The build runs outside the cache's lock, so one worker's build never
/// holds up another's lookup. Two workers may race to build the same
/// program; programs are deterministic, and the first one inserted wins.
///
/// # Errors
///
/// Returns a message for a workload the registry does not know.
pub(crate) fn program_for(workload: &str, params: Params) -> Result<Arc<Program>, String> {
    type ProgramKey = (String, u32, u64);
    static CACHE: OnceLock<Mutex<HashMap<ProgramKey, Arc<Program>>>> = OnceLock::new();
    let spec = by_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (workload.to_string(), params.scale, params.variant);
    if let Some(program) = cache.lock().expect("program cache lock").get(&key) {
        return Ok(Arc::clone(program));
    }
    let built = Arc::new((spec.build)(&params));
    let mut cache = cache.lock().expect("program cache lock");
    Ok(Arc::clone(cache.entry(key).or_insert(built)))
}

/// Computes (or recalls) the result of one cell: `cell_results` for a
/// group of one, the way the views ask.
pub(crate) fn cell_result(store: &Store, key: &CellKey) -> Arc<CellResult> {
    cell_results(store, std::slice::from_ref(key)).remove(0)
}

/// Computes (or recalls) the results of an execution group — cells that
/// differ only in profile (see [`execution_groups`]) — the one producer
/// of results, in both modes and for groups of any size. Exact
/// translated cells verify their checksum against their memoized native
/// baselines, looked up first.
///
/// How the cells are produced is the store's [`RunContext`]: in sampled
/// mode natives are served from the trace header's per-profile baselines
/// and a translated group is estimated by one replay (see
/// [`crate::sampled`]); an exact group executes once. Either way each
/// missing cell is priced under its own model (the context's predictor
/// over the cell's profile). A step that fails
/// makes a cell a [`CellResult::Failed`] naming its [`Stage`] — a failed
/// execution fails every cell it was priced for — including an exact run
/// at a scale only sampled mode runs, which
/// [`SuiteOptions::manifest`](crate::SuiteOptions::manifest) already
/// refuses before any cell starts.
fn cell_results(store: &Store, group: &[CellKey]) -> Vec<Arc<CellResult>> {
    debug_assert!(group
        .iter()
        .all(|key| key.execution_key() == group[0].execution_key()));
    let ctx = store.context();
    let exact = ctx.traces_dir().is_none();
    let natives: Vec<Option<Arc<CellResult>>> = group
        .iter()
        .map(|key| {
            (exact && key.kind != RunKind::Native)
                .then(|| cell_result(store, &key.native_counterpart()))
        })
        .collect();
    store.get_or_compute(group, |missing| {
        let keys: Vec<&CellKey> = missing.iter().map(|&i| &group[i]).collect();
        let natives: Vec<Option<&CellResult>> =
            missing.iter().map(|&i| natives[i].as_deref()).collect();
        compute(ctx, &keys, &natives)
    })
}

/// [`cell_results`] on a store miss: the results of `keys`, one
/// execution group's missing cells; `natives` are exact translated
/// cells' baselines.
fn compute(
    ctx: &RunContext,
    keys: &[&CellKey],
    natives: &[Option<&CellResult>],
) -> Vec<CellResult> {
    let failed = |(stage, error)| CellResult::Failed { stage, error };
    if let Some(dir) = ctx.traces_dir() {
        let estimated = estimate(ctx, dir, keys);
        return estimated
            .into_iter()
            .map(|r| r.unwrap_or_else(failed))
            .collect();
    }
    let head = keys[0];
    if head.params.scale >= SAMPLED_ONLY_SCALE {
        return keys
            .iter()
            .map(|key| failed((Stage::Scale, sampled_only(key))))
            .collect();
    }
    // A cell over a failed baseline fails at it; the rest share one run.
    let mut results: Vec<Option<CellResult>> = natives
        .iter()
        .map(|native| {
            let (stage, error) = native.and_then(CellResult::as_failed)?;
            let why = format!("baseline failed at {stage}: {error}");
            Some(failed(at(Stage::Native)(why)))
        })
        .collect();
    let runnable: Vec<usize> = (0..keys.len()).filter(|&i| results[i].is_none()).collect();
    if runnable.is_empty() {
        return results.into_iter().flatten().collect();
    }
    let models = runnable.iter().map(|&i| ctx.model(keys[i].profile.clone()));
    let checksums = runnable.iter().map(|&i| {
        let native = natives[i].and_then(CellResult::as_native);
        native.map(|n| n.checksum)
    });
    match run_exact(head, models.collect(), checksums) {
        Ok(ran) => {
            for (i, result) in runnable.into_iter().zip(ran) {
                results[i] = Some(result);
            }
        }
        Err(why) => {
            for i in runnable {
                results[i] = Some(failed(why.clone()));
            }
        }
    }
    results.into_iter().flatten().collect()
}

/// A sampled-mode group: natives served from their trace header's
/// baselines, translated cells estimated from the trace by one replay
/// priced under each cell's model (the context's predictor over the
/// cell's profile). A bundle or replay failure fails every cell; a
/// profile the trace has no baseline for fails its own cell.
fn estimate(
    ctx: &RunContext,
    dir: &Path,
    keys: &[&CellKey],
) -> Vec<Result<CellResult, (Stage, String)>> {
    let (workload, params) = (keys[0].workload, keys[0].params);
    let estimated: Result<Vec<Result<CellResult, String>>, String> = match &keys[0].kind {
        RunKind::Native => ensure_bundle(dir, workload, params).map(|bundle| {
            let native = |key: &&CellKey| {
                let arch = key.profile.name;
                let lacks = || format!("{workload}'s trace lacks a {arch} baseline");
                let baseline = bundle.header.native_for(arch).ok_or_else(lacks)?;
                Ok(CellResult::Native(baseline.clone()))
            };
            keys.iter().map(native).collect()
        }),
        RunKind::Translated(cfg) => {
            let models = keys.iter().map(|key| ctx.model(key.profile.clone()));
            let cells = estimate_cells(dir, workload, params, *cfg, models.collect());
            let translated = |cell: Result<SampledCell, String>| {
                Ok(CellResult::Translated(Box::new(cell?.report)))
            };
            cells.map(|cells| cells.into_iter().map(translated).collect())
        }
    };
    match estimated {
        Ok(cells) => cells
            .into_iter()
            .map(|cell| cell.map_err(at(Stage::Estimate)))
            .collect(),
        Err(why) => keys
            .iter()
            .map(|_| Err(at(Stage::Estimate)(&why)))
            .collect(),
    }
}

/// One exact execution of `head`'s workload and kind, priced under
/// `models`: a result per model, in order. A translated run checks each
/// report against its native baseline's checksum (`checksums`, one per
/// model).
fn run_exact(
    head: &CellKey,
    models: Vec<ArchModel>,
    checksums: impl Iterator<Item = Option<u32>>,
) -> Result<Vec<CellResult>, (Stage, String)> {
    let program = program_for(head.workload, head.params).map_err(at(Stage::Build))?;
    match &head.kind {
        RunKind::Native => {
            let runs = run_native_models(&program, models, FUEL, exec_tier());
            Ok(runs
                .map_err(at(Stage::Native))?
                .into_iter()
                .map(CellResult::Native)
                .collect())
        }
        RunKind::Translated(cfg) => {
            let mut sdt = Sdt::new(*cfg, &program).map_err(at(Stage::Translate))?;
            let reports = sdt.run_models(models, FUEL).map_err(at(Stage::Run))?;
            reports
                .into_iter()
                .zip(checksums)
                .map(|(report, native)| {
                    if native != Some(report.checksum) {
                        return Err(at(Stage::Checksum)("translated run diverged from native"));
                    }
                    Ok(CellResult::Translated(Box::new(report)))
                })
                .collect()
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
/// manifest order.
pub(crate) fn dispatch_order(cells: &[CellKey]) -> Vec<usize> {
    let (natives, translated): (Vec<usize>, Vec<usize>) =
        (0..cells.len()).partition(|&i| cells[i].kind == RunKind::Native);
    [natives, translated].concat()
}

/// The execution groups of `cells`: the cells sharing workload, kind and
/// params (their [`CellKey::execution_key`]) — under one store, the
/// context too — and so one execution, which prices each cell under its
/// own profile. Groups are listed in the [`dispatch_order`] of their first
/// cell, natives first, and keep that order inside.
pub(crate) fn execution_groups(cells: &[CellKey]) -> Vec<Vec<CellKey>> {
    let mut slot_of = HashMap::new();
    let mut groups: Vec<Vec<CellKey>> = Vec::new();
    for i in dispatch_order(cells) {
        let slot = *slot_of.entry(cells[i].execution_key()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(cells[i].clone());
    }
    groups
}

/// Executes `cells` (deduped) on `jobs` worker threads, populating `store`.
///
/// Every translated cell's native counterpart is scheduled too, so after
/// this returns the store can answer any slowdown query the cells imply.
/// The unit of work is an execution group (`execution_groups`): one
/// execution per group, priced under each of its cells' profiles.
pub fn execute(store: &Store, cells: &[CellKey], jobs: usize) {
    schedule(store, cells, jobs, &[], |_| {});
}

/// One unit of pool work.
enum Task<'a> {
    /// Compute (or recall) an execution group.
    Execute(&'a [CellKey]),
    /// Run render `i` of [`schedule`]'s list.
    Render(usize),
}

/// [`execute`] with renders on the same pool: `render(i)` runs once for
/// each `i` in `0..natives_only.len()`, as soon as the cells render `i`
/// reads are in the store. A render that reads natives only
/// (`natives_only[i]`) heads the translated phase's queue, in list order;
/// every other render runs after the last translated group. The caller
/// collects what the renders produce and orders it.
pub(crate) fn schedule(
    store: &Store,
    cells: &[CellKey],
    jobs: usize,
    natives_only: &[bool],
    render: impl Fn(usize) + Sync,
) {
    let groups = execution_groups(&with_implied_natives(cells.iter().cloned()));
    let natives = groups.partition_point(|group| group[0].kind == RunKind::Native);
    let (native_groups, translated) = groups.split_at(natives);
    let renders = |early: bool| {
        let at = (0..natives_only.len()).filter(move |&i| natives_only[i] == early);
        at.map(Task::Render)
    };
    let phases: [Vec<Task>; 3] = [
        native_groups.iter().map(|g| Task::Execute(g)).collect(),
        renders(true)
            .chain(translated.iter().map(|g| Task::Execute(g)))
            .collect(),
        renders(false).collect(),
    ];
    for tasks in &phases {
        run_phase(tasks, jobs.max(1), |task| match *task {
            Task::Execute(group) => {
                cell_results(store, group);
            }
            Task::Render(i) => render(i),
        });
    }
}

/// Runs every task on `jobs` scoped threads claiming them in order.
fn run_phase(tasks: &[Task], jobs: usize, run: impl Fn(&Task) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(tasks.len()) {
            scope.spawn(|| {
                while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                    run(task);
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

    /// Grouping only shares executions: the cells that differ only in
    /// profile form one group, groups go out natives first in the order
    /// of their first cell, and the store `execute` leaves holds exactly
    /// what computing every cell on its own does, counters included —
    /// exact runs and sampled replays alike.
    #[test]
    fn grouped_execution_equals_per_cell_computation() {
        let p = Params::default();
        let mut cells = Vec::new();
        for workload in ["mcf", "gzip"] {
            for cfg in [SdtConfig::ibtc_inline(512), SdtConfig::reentry()] {
                for profile in ArchProfile::all() {
                    cells.push(CellKey::translated(workload, cfg, profile, p));
                }
            }
        }
        let planned = with_implied_natives(cells.clone());
        let groups = execution_groups(&planned);
        let heads: Vec<String> = groups.iter().map(|g| g[0].key_string()).collect();
        let order = dispatch_order(&planned);
        let mut firsts: Vec<String> = order.iter().map(|&i| planned[i].key_string()).collect();
        firsts.retain(|key| heads.contains(key));
        assert_eq!(heads, firsts, "groups in the order of their first cell");
        assert_eq!(
            groups.len(),
            6,
            "a native and two configurations per workload"
        );
        assert!(groups.iter().all(|g| g.len() == 3), "one cell per profile");

        let traces = std::env::temp_dir().join(format!("strata-grouped-{}", std::process::id()));
        let sampled = RunContext {
            mode: crate::Mode::Sampled {
                traces_dir: traces.clone(),
            },
            ..RunContext::default()
        };
        for ctx in [RunContext::default(), sampled] {
            let alone = Store::new(ctx.clone(), None);
            for &i in &order {
                cell_result(&alone, &planned[i]);
            }
            assert!(alone.failures().is_empty(), "{:?}", alone.failures());
            for jobs in [1, 2] {
                let what = format!("{} --jobs {jobs}", ctx.namespace());
                let grouped = Store::new(ctx.clone(), None);
                execute(&grouped, &cells, jobs);
                assert_eq!(grouped.snapshot(), alone.snapshot(), "{what}");
                assert_eq!(grouped.stats(), alone.stats(), "{what}");
            }
        }
        let _ = std::fs::remove_dir_all(&traces);
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
