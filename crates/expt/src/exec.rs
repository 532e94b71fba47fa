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
//! In sampled mode the translated groups go out bundle by bundle, and
//! `schedule` counts each trace bundle's users up front — its translated
//! groups and the renders that read it — so the store drops a bundle as
//! soon as its last user is done, and about `--jobs` bundles are resident
//! at once (see [`crate::sampled`]).
//!
//! Parallelism and scheduling order only change *when* results land in
//! the [`Store`] and when a render runs; the results are deterministic
//! functions of their keys, a render reads only the cells its experiment
//! declares, and the suite assembles sections in registry order, so
//! suite output is bit-identical for every `--jobs` value.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use strata_arch::{ArchModel, PredictorSpec};
use strata_core::{run_native_models, RunReport, Sdt, SdtConfig};
use strata_machine::{ExecTier, Program};
use strata_workloads::{by_name, Params};

use crate::cell::{CellKey, CellResult, RunKind, Stage};
use crate::context::RunContext;
use crate::sampled::{estimate_bundle, Bundles, Reading, SampledCell};
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
/// Each program has one slot, filled once: the first worker to ask
/// builds it outside the slots' lock, so no other lookup waits on the
/// build, and a worker asking for the same program meanwhile waits for
/// that build rather than making its own.
///
/// # Errors
///
/// Returns a message for a workload the registry does not know.
pub(crate) fn program_for(workload: &str, params: Params) -> Result<Arc<Program>, String> {
    type ProgramKey = (&'static str, u32, u64);
    type Slot = Arc<OnceLock<Arc<Program>>>;
    static SLOTS: OnceLock<Mutex<HashMap<ProgramKey, Slot>>> = OnceLock::new();
    let spec = by_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let key = (spec.name, params.scale, params.variant);
    let slot = {
        let slots = SLOTS.get_or_init(Default::default);
        let mut slots = slots.lock().expect("program slots lock");
        Arc::clone(slots.entry(key).or_default())
    };
    Ok(Arc::clone(
        slot.get_or_init(|| Arc::new((spec.build)(&params))),
    ))
}

/// Computes (or recalls) the result of one cell: `cell_results` for a
/// group of one, the way the views ask.
pub(crate) fn cell_result(store: &Store, key: &CellKey) -> Arc<CellResult> {
    cell_results(store, std::slice::from_ref(key)).remove(0)
}

/// Computes (or recalls) the results of an execution group — cells that
/// differ only in profile (see [`execution_groups`]) — or, in exact mode,
/// of a size class of them (see [`size_classes`]): the one producer of
/// results, in both modes and for groups of any size. Exact translated
/// cells verify their checksum against their memoized native baselines,
/// looked up first.
///
/// How the cells are produced is the store's [`RunContext`]: in sampled
/// mode natives are served from the trace header's per-profile baselines
/// and a translated group is estimated by one replay (see
/// [`crate::sampled`]); an exact group executes once. Either way each
/// missing cell is priced under its own model (the context's predictor
/// over the cell's profile). A step that fails
/// makes a cell a [`CellResult::Failed`] naming its [`Stage`] — a failed
/// execution fails every cell it was priced for.
fn cell_results(store: &Store, group: &[CellKey]) -> Vec<Arc<CellResult>> {
    debug_assert!(group
        .iter()
        .all(|key| key.class_key() == group[0].class_key()));
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
        compute(store, &keys, &natives)
    })
}

/// [`cell_results`] on a store miss: the results of `keys`, one
/// execution group's missing cells — in exact mode, one size class's;
/// `natives` are exact translated cells' baselines.
fn compute(store: &Store, keys: &[&CellKey], natives: &[Option<&CellResult>]) -> Vec<CellResult> {
    let ctx = store.context();
    let failed = |(stage, error)| CellResult::Failed { stage, error };
    if ctx.traces_dir().is_some() {
        let estimated = estimate(ctx, store.bundles(), keys);
        return estimated
            .into_iter()
            .map(|r| r.unwrap_or_else(failed))
            .collect();
    }
    // A cell over a failed baseline fails at it; the rest share runs.
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
    let cells: Vec<(&CellKey, Option<&CellResult>)> =
        runnable.iter().map(|&i| (keys[i], natives[i])).collect();
    let head = keys[0];
    let program = program_for(head.workload, head.params).map_err(at(Stage::Build));
    let ran = program.and_then(|program| match &head.kind {
        RunKind::Native => {
            let models = cells.iter().map(|(key, _)| ctx.model(key.profile.clone()));
            let runs = run_native_models(&program, models.collect(), FUEL, exec_tier());
            let runs = runs.map_err(at(Stage::Native))?;
            Ok(runs.into_iter().map(CellResult::Native).collect())
        }
        RunKind::Translated(_) => Ok(run_class(store, &program, &cells)),
    });
    match ran {
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

/// The class step: the results of `cells`, one exact size class's
/// runnable translated cells beside their native baselines, in order.
/// The class's largest member — the execution group with the most
/// fixed-table entries — runs, priced under every pending cell's
/// profile; each member it [serves](Sdt::serves) takes its own cells'
/// reports, relabelled; the rest go on the same way, largest remaining
/// first. A member that fails serves nobody.
fn run_class(
    store: &Store,
    program: &Program,
    cells: &[(&CellKey, Option<&CellResult>)],
) -> Vec<CellResult> {
    let config = |i: usize| match &cells[i].0.kind {
        RunKind::Translated(cfg) => *cfg,
        RunKind::Native => unreachable!("a size class holds translated cells"),
    };
    let profile = |i: usize| &cells[i].0.profile;
    let mut pending: Vec<Vec<usize>> = Vec::new();
    for i in 0..cells.len() {
        let key = cells[i].0.execution_key();
        match pending
            .iter_mut()
            .find(|g| cells[g[0]].0.execution_key() == key)
        {
            Some(group) => group.push(i),
            None => pending.push(vec![i]),
        }
    }
    pending.sort_by_key(|g| std::cmp::Reverse(config(g[0]).fixed_table_entries()));
    let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
    while !pending.is_empty() {
        let head = pending.remove(0);
        // One model per profile: the head's, then those only others have.
        let mut priced = head.clone();
        for &i in pending.iter().flatten() {
            if !priced.iter().any(|&j| profile(j).name == profile(i).name) {
                priced.push(i);
            }
        }
        let models = priced
            .iter()
            .map(|&i| store.context().model(profile(i).clone()));
        let ran = run_translated(program, config(head[0]), models.collect());
        store.count_run(
            ran.as_ref()
                .ok()
                .map(|(_, reports)| reports[0].instructions),
        );
        let (sdt, reports) = match ran {
            Ok(ran) => ran,
            Err((stage, error)) => {
                for i in head {
                    let error = error.clone();
                    results[i] = Some(CellResult::Failed { stage, error });
                }
                continue;
            }
        };
        let result = |i: usize, cfg: &SdtConfig| {
            let at = priced
                .iter()
                .position(|&j| profile(j).name == profile(i).name);
            let report = reports[at.expect("every pending profile is priced")].clone();
            verified(report.relabelled(cfg), cells[i].1)
        };
        for &i in &head {
            results[i] = Some(result(i, &config(i)));
        }
        pending.retain(|group| {
            let cfg = config(group[0]);
            if !sdt.serves(&cfg) {
                return true;
            }
            store.count_served();
            for &i in group {
                results[i] = Some(result(i, &cfg));
            }
            false
        });
    }
    let computed = results.into_iter();
    computed
        .map(|r| r.expect("every cell ran or was served"))
        .collect()
}

/// One exact execution of `program` under `cfg`, priced under `models`:
/// the translator it leaves and a report per model.
fn run_translated(
    program: &Program,
    cfg: SdtConfig,
    models: Vec<ArchModel>,
) -> Result<(Sdt, Vec<RunReport>), (Stage, String)> {
    let mut sdt = Sdt::new(cfg, program).map_err(at(Stage::Translate))?;
    let reports = sdt.run_models(models, FUEL).map_err(at(Stage::Run))?;
    Ok((sdt, reports))
}

/// A translated cell's result from `report`, checked against its native
/// baseline's checksum.
fn verified(report: RunReport, native: Option<&CellResult>) -> CellResult {
    let native = native.and_then(CellResult::as_native);
    if native.map(|n| n.checksum) != Some(report.checksum) {
        let (stage, error) = at(Stage::Checksum)("translated run diverged from native");
        return CellResult::Failed { stage, error };
    }
    CellResult::Translated(Box::new(report))
}

/// A sampled-mode group: natives served from their trace header's
/// baselines, translated cells estimated from the run's bundle by one
/// replay priced under each cell's model (the context's predictor over
/// the cell's profile). A bundle or replay failure fails every cell; a
/// profile the trace has no baseline for fails its own cell. The
/// header's baselines are priced under the legacy predictor, and a
/// translated cell's cycles are built on them, so under any other
/// predictor every cell fails rather than mix two predictors.
fn estimate(
    ctx: &RunContext,
    bundles: &Bundles,
    keys: &[&CellKey],
) -> Vec<Result<CellResult, (Stage, String)>> {
    let (workload, params) = (keys[0].workload, keys[0].params);
    let estimated: Result<Vec<Result<CellResult, String>>, String> = match &keys[0].kind {
        _ if ctx.predictor != PredictorSpec::Legacy => Err(format!(
            "sampled native baselines are priced under the legacy predictor, \
             not {}",
            ctx.predictor.label()
        )),
        RunKind::Native => bundles.header(workload, params).map(|header| {
            let native = |key: &&CellKey| {
                let arch = key.profile.name;
                let lacks = || format!("{workload}'s trace lacks a {arch} baseline");
                let baseline = header.native_for(arch).ok_or_else(lacks)?;
                Ok(CellResult::Native(baseline.clone()))
            };
            keys.iter().map(native).collect()
        }),
        RunKind::Translated(cfg) => {
            let models = keys.iter().map(|key| ctx.model(key.profile.clone()));
            let replay = |bundle: Reading| {
                estimate_bundle(&bundle, workload, params, *cfg, models.collect())
            };
            let translated = |cell: Result<SampledCell, String>| {
                Ok(CellResult::Translated(Box::new(cell?.report)))
            };
            let cells = bundles.read(workload, params).and_then(replay);
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

/// Tags an error with the stage it happened at.
fn at<E: ToString>(stage: Stage) -> impl Fn(E) -> (Stage, String) {
    move |e| (stage, e.to_string())
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

/// The size classes of `groups`, exact translated execution groups: the
/// groups whose cells share a [`CellKey::class_key`] — workload, params
/// and configuration up to fixed-table sizes — concatenated into one
/// list, in the order of each class's first group. One task computes a
/// class, so the class step (see `run_class`) runs its largest member
/// first and serves the smaller ones it can.
pub(crate) fn size_classes(groups: Vec<Vec<CellKey>>) -> Vec<Vec<CellKey>> {
    let mut slot_of = HashMap::new();
    let mut classes: Vec<Vec<CellKey>> = Vec::new();
    for group in groups {
        let slot = *slot_of.entry(group[0].class_key()).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[slot].extend(group);
    }
    classes
}

/// Executes `cells` (deduped) on `jobs` worker threads, populating `store`.
///
/// Every translated cell's native counterpart is scheduled too, so after
/// this returns the store can answer any slowdown query the cells imply.
/// The unit of work is an execution group (`execution_groups`): one
/// execution per group, priced under each of its cells' profiles — in
/// exact mode, a size class of them (`size_classes`).
pub fn execute(store: &Store, cells: &[CellKey], jobs: usize) {
    schedule(store, cells, jobs, &[], |_| {});
}

/// What [`schedule`] needs to know of a render.
pub(crate) struct RenderNeeds {
    /// Whether every cell the render declares is a native.
    pub(crate) natives_only: bool,
    /// The (workload, params) whose trace bundles the render reads, each
    /// once.
    pub(crate) bundles: Vec<(&'static str, Params)>,
}

/// One unit of pool work.
enum Task<'a> {
    /// Compute (or recall) an execution group.
    Execute(&'a [CellKey]),
    /// Run render `i` of [`schedule`]'s list.
    Render(usize),
}

/// [`execute`] with renders on the same pool: `render(i)` runs once for
/// each `i` in `0..renders.len()`, as soon as the cells render `i` reads
/// are in the store. A render that reads natives only
/// (`renders[i].natives_only`) heads the translated phase's queue, in
/// list order; every other render runs after the last translated group.
/// The caller collects what the renders produce and orders it.
///
/// A bundle's users are the sampled translated groups of its (workload,
/// params) and the renders that name it (`renders[i].bundles`): all are
/// counted in the store's bundles before the first task starts, each
/// ends when its task does, and the last one drops the bundle. Sampled
/// translated groups go out bundle by bundle (a stable sort by workload
/// and params), so about `jobs` bundles are resident at once; exact
/// translated groups go out as size classes (`size_classes`), in manifest
/// order.
pub(crate) fn schedule(
    store: &Store,
    cells: &[CellKey],
    jobs: usize,
    renders: &[RenderNeeds],
    render: impl Fn(usize) + Sync,
) {
    let sampled = store.context().traces_dir().is_some();
    let mut groups = execution_groups(&with_implied_natives(cells.iter().cloned()));
    let natives = groups.partition_point(|group| group[0].kind == RunKind::Native);
    // The bundle a group reads: a sampled translated group's own.
    let bundle_of = |group: &[CellKey]| {
        let head = &group[0];
        (sampled && head.kind != RunKind::Native).then_some((head.workload, head.params))
    };
    if sampled {
        groups[natives..].sort_by_key(|g| (g[0].workload, g[0].params.scale, g[0].params.variant));
    } else {
        let translated = groups.split_off(natives);
        groups.extend(size_classes(translated));
    }
    let bundles = store.bundles();
    let rendered = renders.iter().flat_map(|r| r.bundles.iter().copied());
    for (workload, params) in groups.iter().filter_map(|g| bundle_of(g)).chain(rendered) {
        bundles.owe(workload, params);
    }
    let (native_groups, translated) = groups.split_at(natives);
    let render_tasks = |early: bool| {
        let at = (0..renders.len()).filter(move |&i| renders[i].natives_only == early);
        at.map(Task::Render)
    };
    let phases: [Vec<Task>; 3] = [
        native_groups.iter().map(|g| Task::Execute(g)).collect(),
        render_tasks(true)
            .chain(translated.iter().map(|g| Task::Execute(g)))
            .collect(),
        render_tasks(false).collect(),
    ];
    for tasks in &phases {
        run_phase(tasks, jobs.max(1), |task| match *task {
            Task::Execute(group) => {
                cell_results(store, group);
                if let Some((workload, params)) = bundle_of(group) {
                    bundles.done(workload, params);
                }
            }
            Task::Render(i) => {
                render(i);
                for &(workload, params) in &renders[i].bundles {
                    bundles.done(workload, params);
                }
            }
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
    use std::path::{Path, PathBuf};
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

    /// A sweep of IBTC, sieve and `tuned` sizes over `workloads`, each
    /// configuration under its own set of profiles, so that a class's
    /// largest member lacks profiles its smaller members have.
    fn size_sweep(workloads: &[&'static str]) -> Vec<CellKey> {
        let sweep = [
            SdtConfig::ibtc_inline(4096),
            SdtConfig::ibtc_inline(64),
            SdtConfig::ibtc_inline(32),
            SdtConfig::sieve(4096),
            SdtConfig::sieve(64),
            SdtConfig::sieve(32),
            SdtConfig::tuned(4096, 1024),
            SdtConfig::tuned(64, 1024),
            SdtConfig::tuned(4096, 32),
        ];
        let profiles = ArchProfile::all();
        let sets: [&[usize]; 3] = [&[0], &[1, 2], &[0, 2]];
        let mut cells = Vec::new();
        for &workload in workloads {
            for (j, cfg) in sweep.iter().enumerate() {
                for &k in sets[j % sets.len()] {
                    let profile = profiles[k].clone();
                    cells.push(CellKey::translated(
                        workload,
                        *cfg,
                        profile,
                        Params::default(),
                    ));
                }
            }
        }
        cells
    }

    /// Grouping only shares executions: the cells that differ only in
    /// profile form one group, groups go out natives first in the order
    /// of their first cell, and the store `execute` leaves holds exactly
    /// what computing every cell on its own does, counters included —
    /// exact runs and sampled replays alike. In exact mode the groups of
    /// a size sweep go out as size classes, and the class step serves
    /// some of them without changing a result.
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

        let swept = [cells.clone(), size_sweep(&["gzip", "mcf"])].concat();
        let planned_sweep = with_implied_natives(swept.clone());
        let groups = execution_groups(&planned_sweep);
        let natives = groups.partition_point(|g| g[0].kind == RunKind::Native);
        let classes = size_classes(groups[natives..].to_vec());
        assert_eq!(
            classes.len(),
            8,
            "ibtc, re-entry, sieve and tuned per workload"
        );

        let traces = std::env::temp_dir().join(format!("strata-grouped-{}", std::process::id()));
        let sampled = RunContext {
            mode: crate::Mode::Sampled {
                traces_dir: traces.clone(),
            },
            ..RunContext::default()
        };
        let runs = [
            (RunContext::default(), &swept, &[1, 2, 4]),
            (sampled, &cells, &[1, 2, 4]),
        ];
        for (ctx, cells, jobs) in runs {
            let alone = Store::new(ctx.clone(), None);
            let planned = with_implied_natives(cells.clone());
            for &i in &dispatch_order(&planned) {
                cell_result(&alone, &planned[i]);
            }
            assert!(alone.failures().is_empty(), "{:?}", alone.failures());
            let mut executions = Vec::new();
            for &jobs in jobs {
                let what = format!("{} --jobs {jobs}", ctx.namespace());
                let grouped = Store::new(ctx.clone(), None);
                execute(&grouped, cells, jobs);
                assert_eq!(grouped.snapshot(), alone.snapshot(), "{what}");
                assert_eq!(grouped.stats(), alone.stats(), "{what}");
                executions.push(grouped.executions());
            }
            assert!(executions.iter().all(|e| *e == executions[0]));
            assert_eq!(
                alone.executions().served,
                0,
                "a cell alone is a class of one"
            );
            if ctx.traces_dir().is_none() {
                let groups = execution_groups(&planned);
                let translated = groups.iter().filter(|g| g[0].kind != RunKind::Native);
                let e = executions[0];
                assert_eq!(e.run + e.served, translated.count() as u64, "{e:?}");
                assert!(e.served > 0, "{e:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&traces);
    }

    /// A class whose largest member fails — at `Stage::Translate`, with a
    /// table size `Sdt::new` refuses — serves nobody: the failure is the
    /// head's alone, and the other members run as if it were not there,
    /// largest first, serving what they can.
    #[test]
    fn a_failed_head_serves_nobody() {
        let p = Params::default();
        let x86 = ArchProfile::x86_like();
        let cell =
            |entries| CellKey::translated("gzip", SdtConfig::ibtc_inline(entries), x86.clone(), p);
        let head = cell(1 << 17);
        let cells = [head.clone(), cell(4096), cell(64), cell(32)];
        let planned = with_implied_natives(cells.clone());
        assert_eq!(
            size_classes(execution_groups(&planned).split_off(1)).len(),
            1
        );

        let alone = Store::in_memory();
        for key in &planned {
            cell_result(&alone, key);
        }
        let grouped = Store::in_memory();
        execute(&grouped, &cells, 2);
        assert_eq!(grouped.snapshot(), alone.snapshot());
        let failures = grouped.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].0, head.key_string());
        assert_eq!(failures[0].1, Stage::Translate);
        let executions = grouped.executions();
        assert_eq!(
            (executions.run, executions.served),
            (3, 1),
            "{executions:?}"
        );
    }

    /// A trace's native baselines are priced under the legacy predictor,
    /// so a sampled native under another fails at estimation, naming
    /// why, before any trace is recorded.
    #[test]
    fn sampled_natives_refuse_a_non_legacy_predictor() {
        let traces = std::env::temp_dir().join(format!("strata-pred-{}", std::process::id()));
        let ctx = RunContext {
            mode: crate::Mode::Sampled {
                traces_dir: traces.clone(),
            },
            predictor: PredictorSpec::Ittage { tables: 4 },
        };
        let store = Store::new(ctx, None);
        let native = CellKey::native("gzip", ArchProfile::x86_like(), Params::default());
        let failed = cell_result(&store, &native);
        let (stage, error) = failed.as_failed().expect("a failed cell");
        assert_eq!(stage, Stage::Estimate);
        assert!(
            error.contains("legacy") && error.contains("ittage:4"),
            "{error}"
        );
        assert!(!traces.exists(), "no trace recorded for a refused cell");
    }

    /// A translated cell's sampled cycles are built on its trace's
    /// legacy-priced native baseline, so it refuses another predictor as
    /// the natives do, with the same reason, before any trace is recorded.
    #[test]
    fn sampled_translated_cells_refuse_a_non_legacy_predictor() {
        let traces = temp_traces("pred-translated");
        let ctx = RunContext {
            predictor: PredictorSpec::Ittage { tables: 4 },
            ..sampled(&traces)
        };
        let store = Store::new(ctx, None);
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let native = cell_result(&store, &CellKey::native("gzip", x86.clone(), p));
        let cell = CellKey::translated("gzip", SdtConfig::reentry(), x86, p);
        let failed = cell_result(&store, &cell);
        let (stage, error) = failed.as_failed().expect("a failed cell");
        assert_eq!((stage, error), native.as_failed().expect("a failed native"));
        assert_eq!(stage, Stage::Estimate);
        assert!(error.contains("ittage:4"), "{error}");
        assert!(!traces.exists(), "no trace recorded for a refused cell");
    }

    /// A sampled context reading and recording its traces under `traces`.
    fn sampled(traces: &Path) -> RunContext {
        RunContext {
            mode: crate::Mode::Sampled {
                traces_dir: traces.to_path_buf(),
            },
            ..RunContext::default()
        }
    }

    /// An empty traces directory of this process's, tagged `tag`.
    fn temp_traces(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strata-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A sampled `execute` of `cells` over `traces` at `jobs`: what the
    /// store holds afterwards, and how many bundles the run loaded.
    fn sampled_run(
        traces: &Path,
        cells: &[CellKey],
        jobs: usize,
    ) -> (Vec<(String, Arc<CellResult>)>, usize) {
        let store = Store::new(sampled(traces), None);
        execute(&store, cells, jobs);
        assert!(store.failures().is_empty(), "{:?}", store.failures());
        assert_eq!(store.bundles().held(), 0, "the run holds no bundle");
        (store.snapshot(), store.bundles().loads())
    }

    /// A sampled run loads each (workload, params) bundle once — cold,
    /// where the natives record it and the translated groups replay it,
    /// and warm, where the natives read the header alone — and holds none
    /// once it returns.
    #[test]
    fn a_sampled_run_loads_each_bundle_once_and_holds_none_after() {
        let p = Params::default();
        let other = Params {
            scale: 1,
            variant: 1,
        };
        let mut cells = Vec::new();
        for (workload, params) in [("gzip", p), ("mcf", p), ("gzip", other)] {
            for cfg in [SdtConfig::ibtc_inline(512), SdtConfig::reentry()] {
                for profile in ArchProfile::all() {
                    cells.push(CellKey::translated(workload, cfg, profile, params));
                }
            }
        }
        let mut runs = Vec::new();
        for jobs in [1, 2, 4] {
            let traces = temp_traces(&format!("lifetime-{jobs}"));
            for run in ["cold", "warm"] {
                let (held, loads) = sampled_run(&traces, &cells, jobs);
                assert_eq!(loads, 3, "{run} --jobs {jobs}: one load per bundle");
                runs.push(held);
            }
            let _ = std::fs::remove_dir_all(&traces);
        }
        assert!(runs.iter().all(|held| *held == runs[0]));
    }

    /// `bytes`, a `.strace` image, with one byte of its header's payload
    /// flipped, so that the header's checksum fails.
    fn corrupt_header(bytes: &[u8]) -> Vec<u8> {
        let mut bad = bytes.to_vec();
        bad[8 + 4 + 8] ^= 1;
        bad
    }

    /// `bytes`, a `.strace` image, with one byte of its last block's
    /// payload flipped: the header is sound, the block fails its checksum.
    fn corrupt_block(bytes: &[u8]) -> Vec<u8> {
        let mut bad = bytes.to_vec();
        bad[bytes.len() - 8] ^= 1;
        bad
    }

    /// Sampled natives read the header alone, whatever the blocks hold, and
    /// load — so re-record — the bundle when the header cannot be read as
    /// this workload's: corrupt, of the previous layout (`STRACE01`) or of
    /// another params. Every case ends in a clean run's results and a
    /// clean trace file.
    #[test]
    fn sampled_natives_read_the_header_alone_or_fall_back_to_a_load() {
        let p = Params::default();
        let other = Params {
            scale: 1,
            variant: 1,
        };
        let natives_at = |params| {
            let profiles = ArchProfile::all().into_iter();
            profiles
                .map(|a| CellKey::native("gzip", a, params))
                .collect::<Vec<_>>()
        };
        let translated: Vec<CellKey> = ArchProfile::all()
            .into_iter()
            .map(|a| CellKey::translated("gzip", SdtConfig::tuned(512, 128), a, p))
            .collect();
        let clean = temp_traces("header-clean");
        let natives = [natives_at(p), natives_at(other)].concat();
        let (clean_natives, _) = sampled_run(&clean, &natives, 1);
        let (clean_all, _) = sampled_run(&clean, &[&natives[..], &translated].concat(), 1);
        let trace = |dir: &Path, params| dir.join(crate::sampled::trace_file_name("gzip", params));
        let sound = std::fs::read(trace(&clean, p)).unwrap();
        let sound_other = std::fs::read(trace(&clean, other)).unwrap();
        // A trace's own `.simpts` beside it, as a recording leaves it.
        let setup = |tag: &str, params, bytes: &[u8]| {
            let dir = temp_traces(tag);
            std::fs::create_dir_all(&dir).unwrap();
            let simpts = crate::sampled::simpts_file_name("gzip", params);
            std::fs::copy(clean.join(&simpts), dir.join(&simpts)).unwrap();
            std::fs::write(trace(&dir, params), bytes).unwrap();
            dir
        };
        let held_natives = |params: Params| {
            let keys: HashSet<String> = natives_at(params)
                .iter()
                .map(|k| format!("sampled/{}", k.key_string()))
                .collect();
            let held = clean_natives.iter().filter(|(k, _)| keys.contains(k));
            held.cloned().collect::<Vec<_>>()
        };

        // A sound header over a corrupt block: the natives are served
        // from the header and leave the file alone; the first translated
        // group re-records it, once.
        let bad = corrupt_block(&sound);
        let dir = setup("header-block", p, &bad);
        assert_eq!(sampled_run(&dir, &natives_at(p), 2), (held_natives(p), 0));
        assert_eq!(std::fs::read(trace(&dir, p)).unwrap(), bad, "left alone");
        let all = [&natives_at(p)[..], &translated].concat();
        let (held, loads) = sampled_run(&dir, &all, 2);
        assert_eq!(loads, 1, "re-recorded once");
        assert_eq!(std::fs::read(trace(&dir, p)).unwrap(), sound, "re-recorded");
        let in_clean: HashMap<_, _> = clean_all.iter().cloned().collect();
        assert!(held.iter().all(|(k, r)| in_clean.get(k) == Some(r)));
        assert_eq!(held.len(), all.len());
        let _ = std::fs::remove_dir_all(&dir);

        // A header that cannot be read as this trace's: the natives load
        // the bundle, which re-records the trace.
        let mislabeled = ("header-mislabeled", other, sound.clone(), &sound_other);
        for (tag, params, bytes, recorded) in [
            ("header-corrupt", p, corrupt_header(&sound), &sound),
            (
                "header-previous",
                p,
                [b"STRACE01", &sound[8..]].concat(),
                &sound,
            ),
            mislabeled,
        ] {
            let dir = setup(tag, params, &bytes);
            let natives = natives_at(params);
            assert_eq!(
                sampled_run(&dir, &natives, 2),
                (held_natives(params), 1),
                "{tag}"
            );
            assert_eq!(
                &std::fs::read(trace(&dir, params)).unwrap(),
                recorded,
                "{tag}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&clean);
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
        let big = Params::at_scale(10);
        let good = vec![
            CellKey::translated("gzip", SdtConfig::ibtc_inline(512), x86.clone(), p),
            CellKey::translated("mcf", SdtConfig::reentry(), x86.clone(), p),
            // Exact mode runs every scale, the reference tier's too.
            CellKey::native("gzip", x86.clone(), big),
        ];
        let bad = [
            // An unknown workload, and a translated cell over its failed
            // native.
            CellKey::translated("ghost", SdtConfig::reentry(), x86.clone(), p),
            // A table size `Sdt::new` refuses.
            CellKey::translated("gzip", SdtConfig::ibtc_inline(3), x86.clone(), p),
        ];
        let store = Store::in_memory();
        let all: Vec<CellKey> = good.iter().chain(&bad).cloned().collect();
        execute(&store, &all, 2);

        let stage_of = |key: CellKey| store.get(&key).and_then(|r| r.as_failed().map(|f| f.0));
        let ghost = CellKey::native("ghost", x86.clone(), p);
        assert_eq!(stage_of(ghost), Some(Stage::Build));
        let [over_ghost, bad_config] = bad;
        assert_eq!(stage_of(over_ghost.clone()), Some(Stage::Native));
        assert_eq!(stage_of(bad_config), Some(Stage::Translate));
        let reason = store.get(&over_ghost).expect("held");
        assert_eq!(
            reason.as_failed().map(|f| f.1),
            Some("baseline failed at build: unknown workload `ghost`")
        );
        let failures = store.failures();
        assert_eq!(failures.len(), 3, "{failures:?}");

        let clean = Store::in_memory();
        execute(&clean, &good, 1);
        assert_eq!(
            clean.len(),
            5,
            "two translated cells, their natives and one at scale 10"
        );
        let held: HashMap<String, Arc<CellResult>> = store.snapshot().into_iter().collect();
        for (key, result) in clean.snapshot() {
            assert_eq!(held.get(&key), Some(&result), "{key}");
        }
    }
}
