//! Sampled (SimPoint) execution mode.
//!
//! Exact mode re-executes every guest instruction of every cell through
//! the SDT. Sampled mode replaces that with trace-driven estimation:
//!
//! 1. **Bundle** ([`ensure_bundle`]): one reference recording per
//!    (workload, params) — a compressed retire trace plus a SimPoint
//!    sidecar — loaded from the traces directory or recorded on demand
//!    and persisted (crash-safe, with orphaned artifacts pruned). A
//!    bundle keeps the trace's header and only the records replay reads:
//!    the control transfers of the elected intervals and their warmups
//!    (a [`DispatchReplay`] returns at once on anything else), plus the
//!    pc each of those intervals starts at. A suite run holds its bundles
//!    in its store, each from its first read to the end of its last
//!    counted user (the execution groups and renders that read it; see
//!    [`crate::exec`]), loaded once however many ask at once; sampled
//!    natives read the trace's header alone. Nothing here outlives the
//!    run.
//! 2. **Estimate** ([`estimate_cells`]): one [`DispatchReplay`], handed
//!    the [`ArchModel`]s an execution group's cells are priced under (one
//!    per profile or predictor; [`estimate_cell`] is the one-model case),
//!    walks only the elected intervals (plus one warmup interval each),
//!    snapshots each model's
//!    [`rate_counters_of`](DispatchReplay::rate_counters_of) around every
//!    measured interval, and feeds the per-cluster deltas through
//!    [`strata_stats::stratified_estimate`]. Rate counters (dispatches,
//!    misses, the model's mispredicts) are extrapolated with 95%
//!    confidence intervals, one [`Estimate`] per [`rate`] name and model;
//!    structural counters (fragments, cache bytes, translator work) come
//!    from the replay's final state.
//! 3. **Synthesize**: the estimates are assembled into an ordinary
//!    [`RunReport`] — cycles from the exact per-profile native baseline
//!    recorded in the trace header plus an analytic dispatch-overhead
//!    model over the model's [`ArchProfile`](strata_arch::ArchProfile)
//!    cost tables — so every existing renderer works unchanged.
//!    `fig21_sampled_fidelity` reads the raw estimates
//!    ([`SampledCell::est`]) to print estimate-vs-exact rows with stated
//!    error bars.
//!
//! The mode is strictly opt-in (`--sampled`, which sets
//! [`Mode::Sampled`](crate::Mode) in the store's
//! [`RunContext`](crate::RunContext)); when off, nothing here runs and
//! exact mode is byte-identical to before. Sampled results are memoized
//! and cached under the context's namespace so they can never collide
//! with exact cells (see [`crate::store`]).

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use strata_arch::ArchModel;
use strata_core::{
    rate, ClassReport, DispatchReplay, MechanismStats, RunReport, SdtConfig, SdtError,
};
use strata_machine::observers::CompactRetire;
use strata_stats::{stratified_estimate, Estimate, Stratum};
use strata_trace::{record, select, BlockWalker, SimPoints, Trace, TraceHeader};
use strata_workloads::{by_name, Params};

use crate::exec::{exec_tier, program_for, FUEL};
use crate::fsutil::{atomic_write, atomic_write_bytes};

/// Where reference traces live unless `--traces` overrides it.
pub const DEFAULT_TRACES_DIR: &str = "results/traces";

/// Warmup intervals replayed (but not measured) before each
/// non-contiguous simulation point, so cold mechanism state does not
/// bleed into the measured deltas.
const WARMUP_INTERVALS: u64 = 1;

/// Deterministic sampling interval for a trace of `instructions`
/// retired instructions: targets ~250 intervals (so k-means sees enough
/// phases and coverage stays well under 20%), floored so tiny programs
/// keep meaningful intervals.
pub fn pick_interval(instructions: u64) -> u64 {
    (instructions / 250).max(500)
}

/// File name of a workload's trace at `params` (the canonical instance
/// drops the params suffix, matching `results/traces/<workload>.strace`).
pub fn trace_file_name(workload: &str, params: Params) -> String {
    if params == Params::default() {
        format!("{workload}.strace")
    } else {
        format!("{workload}.s{}v{}.strace", params.scale, params.variant)
    }
}

/// File name of the SimPoint sidecar next to the trace.
pub fn simpts_file_name(workload: &str, params: Params) -> String {
    if params == Params::default() {
        format!("{workload}.simpts")
    } else {
        format!("{workload}.s{}v{}.simpts", params.scale, params.variant)
    }
}

/// What one (workload, params) needs for any number of sampled cells: the
/// trace's header, its SimPoint selection, and the records replay reads.
#[derive(Debug)]
pub struct Bundle {
    /// The trace's header: identity, interval, record count, checksum
    /// and the per-profile native baselines.
    pub header: TraceHeader,
    /// The elected simulation points.
    pub points: SimPoints,
    /// The `.strace` the bundle was cut from; [`full_trace_pass`]
    /// streams it.
    pub path: PathBuf,
    /// What is held of the records of [`resident_ranges`], a run each.
    resident: Vec<Run>,
}

/// One resident stretch of a trace — whole intervals, the last of a trace
/// possibly partial — reduced to what replay reads of it.
#[derive(Debug, PartialEq)]
struct Run {
    /// Index of the run's first interval.
    first: u64,
    /// Per interval of the run: the pc of its first record (where a
    /// `seek` lands) and the offset in `control` of its first control
    /// record.
    heads: Vec<(u32, usize)>,
    /// The run's control records, in trace order.
    control: Vec<CompactRetire>,
}

/// Where a bundle's records come from: the `.strace` being walked, or a
/// recording still in memory.
enum Source<'a> {
    File(BlockWalker<BufReader<File>>),
    Recording(&'a [CompactRetire]),
}

impl Source<'_> {
    /// Streams the records of `ranges` (sorted, disjoint) to `visit`,
    /// each with its index.
    fn visit(
        &mut self,
        ranges: &[Range<u64>],
        mut visit: impl FnMut(u64, CompactRetire),
    ) -> Result<(), String> {
        match self {
            Source::File(walker) => walker
                .visit_ranges(ranges, visit)
                .map_err(|e| e.to_string()),
            Source::Recording(records) => {
                // Clipped to the recording, as the walker clips to the file.
                let n = records.len() as u64;
                for i in ranges.iter().flat_map(|r| r.start.min(n)..r.end.min(n)) {
                    visit(i, records[i as usize]);
                }
                Ok(())
            }
        }
    }
}

/// The record ranges replay reads: every elected interval and the
/// warmup before it, merged where they touch. A function of the
/// selection alone, so every cell of a bundle reads the same ranges.
fn resident_ranges(pts: &SimPoints) -> Vec<Range<u64>> {
    let interval = pts.interval.max(1);
    let mut out: Vec<Range<u64>> = Vec::new();
    for p in &pts.points {
        let start = p.interval.saturating_sub(WARMUP_INTERVALS) * interval;
        let end = ((p.interval + 1) * interval).min(pts.instructions);
        match out.last_mut() {
            Some(last) if (last.start..=last.end).contains(&start) => last.end = end.max(last.end),
            _ => out.push(start..end),
        }
    }
    out
}

impl Bundle {
    /// Cuts the bundle of `points` out of `source` — the one place
    /// records are reduced to what stays resident.
    fn cut(
        header: TraceHeader,
        points: SimPoints,
        path: PathBuf,
        mut source: Source,
    ) -> Result<Bundle, String> {
        let interval = points.interval.max(1);
        let ranges = resident_ranges(&points);
        let mut resident: Vec<Run> = Vec::with_capacity(ranges.len());
        source.visit(&ranges, |index, record| {
            if ranges.get(resident.len()).is_some_and(|r| r.start == index) {
                resident.push(Run {
                    first: index / interval,
                    heads: Vec::new(),
                    control: Vec::new(),
                });
            }
            // Ranges start on interval boundaries, so a run is open.
            let Some(run) = resident.last_mut() else {
                return;
            };
            if index % interval == 0 {
                run.heads.push((record.pc, run.control.len()));
            }
            if record.is_control() {
                run.control.push(record);
            }
        })?;
        resident
            .iter_mut()
            .for_each(|run| run.control.shrink_to_fit());
        Ok(Bundle {
            header,
            points,
            path,
            resident,
        })
    }

    /// Interval `i` of the trace: the pc it starts at and its control
    /// records.
    ///
    /// # Errors
    ///
    /// A message unless the interval lies inside [`resident_ranges`].
    fn interval(&self, i: u64) -> Result<(u32, &[CompactRetire]), String> {
        let held = self.resident.iter().find_map(|run| {
            let at = usize::try_from(i.checked_sub(run.first)?).ok()?;
            let &(pc, lo) = run.heads.get(at)?;
            let hi = run.heads.get(at + 1).map_or(run.control.len(), |h| h.1);
            Some((pc, run.control.get(lo..hi)?))
        });
        held.ok_or_else(|| format!("{}: interval {i} is not resident", self.header.workload))
    }
}

/// Which bundle: a workload and its params.
type BundleKey = (&'static str, u32, u64);

fn bundle_key(workload: &'static str, params: Params) -> BundleKey {
    (workload, params.scale, params.variant)
}

/// One run's bundles, read from one traces directory: each is loaded by
/// its first reader — recorded there on demand — and dropped as soon as
/// no user is left. The run's store owns one.
///
/// The scheduler counts a bundle's users before they run ([`owe`]) and
/// ends each when it finishes ([`done`]), so a bundle stays resident from
/// its first read to its last user's end, however far apart. A
/// [`Reading`] holds its bundle too while it lives: readers the scheduler
/// did not count share a load in flight, and leave nothing behind.
///
/// [`owe`]: Bundles::owe
/// [`done`]: Bundles::done
pub(crate) struct Bundles {
    dir: PathBuf,
    slots: Mutex<HashMap<BundleKey, Slot>>,
    /// Bundles loaded so far, read or recorded.
    loads: AtomicUsize,
}

/// A bundle with users left.
#[derive(Default)]
struct Slot {
    /// Counted users that have not finished.
    owed: usize,
    /// [`Reading`]s alive.
    reading: usize,
    /// Filled once, by the first read; later reads wait on it.
    bundle: Arc<OnceLock<Result<Arc<Bundle>, String>>>,
}

/// A bundle being read: it stays resident while this lives.
pub(crate) struct Reading<'a> {
    bundles: &'a Bundles,
    key: BundleKey,
    bundle: Arc<Bundle>,
}

impl std::ops::Deref for Reading<'_> {
    type Target = Bundle;

    fn deref(&self) -> &Bundle {
        &self.bundle
    }
}

impl Drop for Reading<'_> {
    fn drop(&mut self) {
        self.bundles.end_read(self.key);
    }
}

impl Bundles {
    /// No bundle yet, read from (or recorded into) `dir`.
    pub(crate) fn new(dir: PathBuf) -> Bundles {
        Bundles {
            dir,
            slots: Mutex::new(HashMap::new()),
            loads: AtomicUsize::new(0),
        }
    }

    fn slots(&self) -> MutexGuard<'_, HashMap<BundleKey, Slot>> {
        self.slots.lock().expect("bundle slots lock")
    }

    /// Counts one more user of the bundle of `workload` at `params`, to be
    /// ended by one [`done`](Bundles::done).
    pub(crate) fn owe(&self, workload: &'static str, params: Params) {
        let key = bundle_key(workload, params);
        self.slots().entry(key).or_default().owed += 1;
    }

    /// Ends one counted user of the bundle of `workload` at `params`; the
    /// last one drops it, unless it is still being read.
    pub(crate) fn done(&self, workload: &'static str, params: Params) {
        let key = bundle_key(workload, params);
        let mut slots = self.slots();
        if let Some(slot) = slots.get_mut(&key) {
            debug_assert!(slot.owed > 0, "{key:?}: done without owe");
            slot.owed = slot.owed.saturating_sub(1);
        }
        release(&mut slots, key);
    }

    /// The bundle of `workload` at `params`, which the first read loads —
    /// or records, selects and persists — and every later one shares,
    /// however many ask at once.
    ///
    /// # Errors
    ///
    /// The load's message, for every read of that load: recording failed,
    /// or an existing artifact was unreadable *and* could not be
    /// re-recorded.
    pub(crate) fn read(
        &self,
        workload: &'static str,
        params: Params,
    ) -> Result<Reading<'_>, String> {
        let key = bundle_key(workload, params);
        let slot = {
            let mut slots = self.slots();
            let slot = slots.entry(key).or_default();
            slot.reading += 1;
            Arc::clone(&slot.bundle)
        };
        let loaded = slot.get_or_init(|| {
            self.loads.fetch_add(1, Ordering::Relaxed);
            load_bundle(&self.dir, workload, params).map(Arc::new)
        });
        match loaded {
            Ok(bundle) => Ok(Reading {
                bundles: self,
                key,
                bundle: Arc::clone(bundle),
            }),
            Err(why) => {
                self.end_read(key);
                Err(why.clone())
            }
        }
    }

    fn end_read(&self, key: BundleKey) {
        let mut slots = self.slots();
        if let Some(slot) = slots.get_mut(&key) {
            slot.reading -= 1;
        }
        release(&mut slots, key);
    }

    /// The header of the trace of `workload` at `params` — where its
    /// native baselines are. It is read off the file alone when that
    /// opens with a sound header of this workload and params; otherwise
    /// the bundle is [`read`](Bundles::read), so the trace is re-recorded
    /// as a load would.
    ///
    /// # Errors
    ///
    /// As [`Bundles::read`].
    pub(crate) fn header(
        &self,
        workload: &'static str,
        params: Params,
    ) -> Result<TraceHeader, String> {
        let path = self.dir.join(trace_file_name(workload, params));
        let walker = BlockWalker::open_path(&path).ok();
        match walker.filter(|w| is_trace_of(w.header(), workload, params)) {
            Some(walker) => Ok(walker.header().clone()),
            None => Ok(self.read(workload, params)?.header.clone()),
        }
    }

    /// Bundles loaded so far.
    #[cfg(test)]
    pub(crate) fn loads(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
    }

    /// Bundles with users left or being read.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.slots().len()
    }
}

/// Drops the slot at `key` once it has neither counted users nor reads.
fn release(slots: &mut HashMap<BundleKey, Slot>, key: BundleKey) {
    if slots
        .get(&key)
        .is_some_and(|slot| slot.owed == 0 && slot.reading == 0)
    {
        slots.remove(&key);
    }
}

/// Whether `header` is that of a trace of `workload` at `params`.
fn is_trace_of(header: &TraceHeader, workload: &str, params: Params) -> bool {
    header.workload == workload && header.scale == params.scale && header.variant == params.variant
}

/// Loads — or records, selects, and persists — the trace + SimPoints
/// bundle for `workload` at `params` under `dir`. Nothing is kept: each
/// call loads the bundle anew, and it lives as long as the caller holds
/// it. (A suite run shares its bundles among the cells of a run through
/// its store instead.)
///
/// # Errors
///
/// Returns a message when recording fails or an existing artifact is
/// unreadable *and* cannot be re-recorded.
pub fn ensure_bundle(dir: &Path, workload: &str, params: Params) -> Result<Arc<Bundle>, String> {
    load_bundle(dir, workload, params).map(Arc::new)
}

fn load_bundle(dir: &Path, workload: &str, params: Params) -> Result<Bundle, String> {
    let path = dir.join(trace_file_name(workload, params));
    if let Some(bundle) = read_bundle(dir, &path, workload, params) {
        return Ok(bundle);
    }
    // Missing, corrupt, or mislabeled: re-record from scratch. The
    // recording is deterministic, so an overwrite is always safe.
    let (trace, points) = record_trace(dir, workload, params)?;
    Bundle::cut(
        trace.header(),
        points,
        path,
        Source::Recording(&trace.records),
    )
}

/// The bundle of the `.strace` at `path`, if that is a sound trace of
/// `workload` at `params`: every block is verified, and only the blocks
/// under [`resident_ranges`] are unpacked. Blocks end on interval
/// boundaries and the ranges are whole intervals, so an unpacked block
/// holds only records the bundle keeps. A file of the previous layout
/// fails to open (`BadMagic`), so the caller re-records it.
fn read_bundle(dir: &Path, path: &Path, workload: &str, params: Params) -> Option<Bundle> {
    let walker = BlockWalker::open_path(path).ok()?;
    let h = walker.header().clone();
    if !is_trace_of(&h, workload, params) {
        return None;
    }
    let simpts_path = dir.join(simpts_file_name(workload, params));
    let points = std::fs::read_to_string(&simpts_path)
        .ok()
        .and_then(|text| SimPoints::parse(&text).ok())
        .filter(|p| p.interval == h.interval && p.instructions == h.instructions);
    let Some(points) = points else {
        // No sidecar, or one of another recording: electing points takes
        // the whole trace, this once.
        let trace = Trace::read(path).ok()?;
        let points = select(&trace);
        persist_simpoints(dir, &simpts_path, &points);
        let records = Source::Recording(&trace.records);
        return Bundle::cut(h, points, path.to_path_buf(), records).ok();
    };
    Bundle::cut(h, points, path.to_path_buf(), Source::File(walker)).ok()
}

/// Records a fresh reference trace for `workload` at `params`, elects
/// its SimPoints and persists both under `dir`, pruning orphaned
/// artifacts of unregistered workloads in the same pass — the
/// `strata trace record` entry point.
///
/// # Errors
///
/// Returns a message when the reference run itself fails.
pub fn record_trace(
    dir: &Path,
    workload: &str,
    params: Params,
) -> Result<(Trace, SimPoints), String> {
    let program = program_for(workload, params)?;
    let recorded =
        record(&program, FUEL, exec_tier()).map_err(|e| format!("recording {workload}: {e}"))?;
    let interval = pick_interval(recorded.log.records().len() as u64);
    let trace = recorded.into_trace(workload, params.scale, params.variant, interval);
    // Persistence is best-effort, like the cell cache: an unwritable
    // directory degrades to re-recording next run, never to an error.
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = atomic_write_bytes(
            &dir.join(trace_file_name(workload, params)),
            &trace.to_bytes(),
        );
        prune_orphans(dir);
    }
    let points = select(&trace);
    persist_simpoints(dir, &dir.join(simpts_file_name(workload, params)), &points);
    Ok((trace, points))
}

fn persist_simpoints(dir: &Path, path: &Path, points: &SimPoints) {
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = atomic_write(path, &points.render());
    }
}

/// Removes `*.strace` / `*.simpts` files whose workload (the file-name
/// stem before the first `.`) is no longer registered, run on every save
/// so renamed or deleted workloads cannot leave multi-megabyte orphans.
pub fn prune_orphans(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || !(name.ends_with(".strace") || name.ends_with(".simpts")) {
            continue;
        }
        let stem = name.split('.').next().unwrap_or("");
        if by_name(stem).is_none() {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// One estimated cell: the synthesized [`RunReport`] every renderer
/// consumes, plus the raw estimates and sampling accounting the
/// fidelity experiment reports.
#[derive(Debug)]
pub struct SampledCell {
    /// The synthesized report (counters rounded from the estimates).
    pub report: RunReport,
    /// Raw whole-run estimates with confidence intervals, one per rate
    /// counter, at the positions [`rate`] names. Structural counters are
    /// not here — they are read off the replay's final state.
    pub est: [Estimate; rate::COUNT],
    /// Total intervals in the trace.
    pub intervals: u64,
    /// Simulation points replayed.
    pub points: usize,
    /// Instructions in the full trace.
    pub trace_records: u64,
    /// Instructions actually replayed (warmup + measured).
    pub replayed_records: u64,
}

impl SampledCell {
    /// Replayed fraction of the trace — the sampled guest-dispatch work
    /// relative to exact mode, warmup included.
    pub fn work_fraction(&self) -> f64 {
        if self.trace_records == 0 {
            return 0.0;
        }
        self.replayed_records as f64 / self.trace_records as f64
    }
}

/// Estimates one translated cell from its workload's bundle, priced
/// under `model` (an [`ArchProfile`](strata_arch::ArchProfile) means its
/// legacy-predictor model): [`estimate_cells`] with one model.
///
/// # Errors
///
/// As [`estimate_cells`], both levels in one.
pub fn estimate_cell(
    dir: &Path,
    workload: &str,
    params: Params,
    cfg: SdtConfig,
    model: impl Into<ArchModel>,
) -> Result<SampledCell, String> {
    estimate_cells(dir, workload, params, cfg, vec![model.into()])?.remove(0)
}

/// Estimates the translated cells of one execution group — `cfg` on
/// `workload` at `params`, priced under each of `models` — from the
/// workload's bundle, with one replay: it replays the elected intervals
/// (each preceded by a warmup interval unless the replay is already
/// positioned there) under every model at once. Per model, it stratifies
/// the per-interval counter deltas by phase cluster and synthesizes a
/// [`RunReport`] from the whole-run estimates plus the replay's
/// structural state. The replay does not depend on the models, so each
/// cell equals what [`estimate_cell`] gives for its model alone. The
/// bundle is loaded for this call, as [`ensure_bundle`] loads it, and
/// dropped when it returns.
///
/// # Errors
///
/// The outer error, for every cell: the bundle cannot be produced or the
/// replay desynchronizes (which would mean a recorder/replayer bug — the
/// equivalence tests pin this). An inner error fails that model's cell
/// alone: its profile has no native baseline in the trace.
pub fn estimate_cells(
    dir: &Path,
    workload: &str,
    params: Params,
    cfg: SdtConfig,
    models: Vec<ArchModel>,
) -> Result<Vec<Result<SampledCell, String>>, String> {
    let bundle = load_bundle(dir, workload, params)?;
    estimate_bundle(&bundle, workload, params, cfg, models)
}

/// [`estimate_cells`] over a bundle already in hand.
pub(crate) fn estimate_bundle(
    bundle: &Bundle,
    workload: &str,
    params: Params,
    cfg: SdtConfig,
    models: Vec<ArchModel>,
) -> Result<Vec<Result<SampledCell, String>>, String> {
    let program = program_for(workload, params)?;
    let pts = &bundle.points;
    let interval = pts.interval.max(1);
    let n_intervals = pts.intervals.max(1);
    let n_models = models.len();

    let mut rp = DispatchReplay::with_models(cfg, &program, models)
        .map_err(|e| format!("{workload}/{}: {e}", cfg.describe()))?;
    let fail = |e: strata_core::SdtError| format!("{workload}/{}: replay: {e}", cfg.describe());

    // Replays interval `i`, returning how many records it spans — the
    // work it stands for, of which only the control records are fed.
    let run_interval = |rp: &mut DispatchReplay, i: u64| -> Result<u64, String> {
        for ev in bundle.interval(i)?.1 {
            rp.step(ev).map_err(fail)?;
        }
        Ok(((i + 1) * interval).min(pts.instructions) - i * interval)
    };
    // Every model's counters, in model order.
    let counters = |rp: &DispatchReplay| -> Vec<[u64; rate::COUNT]> {
        (0..n_models).map(|m| rp.rate_counters_of(m)).collect()
    };

    let mut replayed: u64 = 0;
    // The next interval index the replay is positioned at (having
    // consumed the stream contiguously up to its first record).
    let mut cursor: Option<u64> = None;
    // (cluster, per-model per-counter deltas) per measured point, in
    // point order; counters at their `rate` positions.
    let mut samples: Vec<(u32, Vec<[f64; rate::COUNT]>)> = Vec::with_capacity(pts.points.len());

    for p in &pts.points {
        let idx = p.interval;
        let warm_from = if cursor == Some(idx) {
            idx
        } else {
            idx.saturating_sub(WARMUP_INTERVALS)
        };
        if cursor != Some(warm_from) {
            rp.seek(bundle.interval(warm_from)?.0).map_err(fail)?;
        }
        for i in warm_from..idx {
            replayed += run_interval(&mut rp, i)?;
        }
        let before = counters(&rp);
        replayed += run_interval(&mut rp, idx)?;
        let deltas = before
            .iter()
            .zip(counters(&rp))
            .map(|(before, after)| std::array::from_fn(|c| (after[c] - before[c]) as f64))
            .collect();
        samples.push((p.cluster, deltas));
        cursor = Some(idx + 1);
    }

    // Per-cluster strata: weight = the cluster's share of all intervals,
    // samples = its measured points' deltas for one model's counter at a
    // time.
    let cluster_weight: HashMap<u32, u64> = {
        let mut w: HashMap<u32, u64> = HashMap::new();
        for p in &pts.points {
            *w.entry(p.cluster).or_default() += p.weight;
        }
        w
    };
    let mut clusters: Vec<u32> = cluster_weight.keys().copied().collect();
    clusters.sort_unstable();
    let estimate = |model: usize, counter: usize| -> Estimate {
        let strata: Vec<Stratum> = clusters
            .iter()
            .map(|&c| Stratum {
                weight: cluster_weight[&c] as f64,
                samples: samples
                    .iter()
                    .filter(|(sc, _)| *sc == c)
                    .map(|(_, d)| d[model][counter])
                    .collect(),
            })
            .collect();
        let per_interval = stratified_estimate(&strata).unwrap_or(Estimate {
            mean: 0.0,
            ci95: 0.0,
        });
        Estimate {
            mean: per_interval.mean * n_intervals as f64,
            ci95: per_interval.ci95 * n_intervals as f64,
        }
    };

    let (mech, per_class) = (rp.stats(), rp.per_class());
    let cell = |model: usize| {
        let est = std::array::from_fn(|counter| estimate(model, counter));
        let report = synthesize_report(
            &bundle.header,
            rp.model_at(model),
            cfg,
            &est,
            mech,
            per_class.clone(),
        )?;
        Ok(SampledCell {
            report,
            est,
            intervals: pts.intervals,
            points: pts.points.len(),
            trace_records: pts.instructions,
            replayed_records: replayed,
        })
    };
    Ok((0..n_models).map(cell).collect())
}

fn round_u64(e: &Estimate) -> u64 {
    e.mean.round().max(0.0) as u64
}

/// Assembles a [`RunReport`] from sampled estimates: rate counters are
/// the rounded whole-run estimates, structural counters come from the
/// replay's final state (its `model`'s trap cycles are the translator's),
/// and cycles are the exact native baseline from the trace header plus
/// an analytic dispatch/miss overhead formula over the model profile's
/// cost table. The formula is deliberately coarse — sampled mode's
/// fidelity contract is on the *counters* (gated by fig21); the cycle
/// numbers are labeled estimates.
fn synthesize_report(
    trace: &TraceHeader,
    model: &ArchModel,
    cfg: SdtConfig,
    est: &[Estimate; rate::COUNT],
    mut mech: MechanismStats,
    mut per_class: Vec<ClassReport>,
) -> Result<RunReport, String> {
    let profile = model.profile();
    let translator_cycles = model.stats().trap_cycles;
    let native = trace.native_for(profile.name).ok_or_else(|| {
        format!(
            "trace for {} lacks a {} baseline",
            trace.workload, profile.name
        )
    })?;

    mech.ib_dispatches = round_u64(&est[rate::IB_DISPATCHES]);
    mech.jump_dispatches = round_u64(&est[rate::JUMP_DISPATCHES]);
    mech.call_dispatches = round_u64(&est[rate::CALL_DISPATCHES]);
    mech.ret_dispatches = round_u64(&est[rate::RET_DISPATCHES]);
    mech.ib_misses = round_u64(&est[rate::IB_MISSES]);
    mech.rc_misses = round_u64(&est[rate::RC_MISSES]);
    for (row, class) in per_class.iter_mut().enumerate() {
        let (dispatches, misses) = rate::class(row);
        class.dispatches = round_u64(&est[dispatches]);
        class.misses = round_u64(&est[misses]);
    }

    // Analytic overhead model: a hit-path dispatch is flags save/restore
    // plus a short hash/probe/compare/jump sequence; a miss crosses into
    // the runtime and back (two traps) around a context save/restore.
    let p = profile;
    let hit_cost = p.flags_save_cost
        + p.flags_restore_cost
        + 3 * p.alu_cost
        + p.load_cost
        + p.branch_cost
        + p.taken_branch_cost;
    let miss_cost = 2 * p.trap_cost + 16 * (p.load_cost + p.store_cost) + p.translator_lookup_cost;
    let glue_cost = p.store_cost + p.alu_cost;
    let dispatches = mech.ib_dispatches + mech.ret_dispatches;
    let misses = mech.ib_misses + mech.rc_misses;
    // The model's predictors' contribution per transfer class: every
    // mispredicted dispatch-site indirect eats the profile's flush
    // penalty on top of the analytic dispatch sequence.
    let indirect_mispredicts = round_u64(&est[rate::JUMP_MISPREDICTS])
        + round_u64(&est[rate::CALL_MISPREDICTS])
        + round_u64(&est[rate::RET_MISPREDICTS]);
    let cycles_by_origin = [
        native.total_cycles,
        native.direct_calls * glue_cost,
        dispatches * hit_cost + indirect_mispredicts * p.mispredict_penalty,
        misses * miss_cost,
        0,
        0,
    ];
    let instrs_by_origin = [
        native.instructions,
        native.direct_calls * 2,
        dispatches * 8,
        misses * 24,
        0,
        0,
    ];
    let total_cycles = cycles_by_origin.iter().sum::<u64>() + translator_cycles;
    let instructions = instrs_by_origin.iter().sum::<u64>();

    Ok(RunReport {
        config: cfg.describe(),
        arch: profile.name,
        halted: true,
        checksum: trace.checksum,
        instructions,
        total_cycles,
        cycles_by_origin,
        instrs_by_origin,
        translator_cycles,
        mech,
        per_class,
        icache_misses: native.icache_misses,
        dcache_misses: native.dcache_misses,
        indirect_mispredicts,
        // Conditional-predictor interactions are not modeled in sampled
        // mode (the replay carries no per-branch outcome stream).
        cond_mispredicts: 0,
    })
}

/// Exact whole-trace mechanism counters for each of `cfgs`, in order,
/// beside each replay's [`rate_counters`](DispatchReplay::rate_counters)
/// (the model's mispredicts among them) — the fidelity experiment's
/// ground truth. One pass streams *every* record (no sampling) off the
/// bundle's `.strace` a block at a time and steps one replay per
/// configuration on it, each under a fresh model from `model`; the
/// replay-exactness tests prove this equals exact-mode counters.
///
/// A file that cannot be opened or verified, or whose header is no
/// longer the bundle's, is re-recorded, as a bundle load would, and
/// replayed from memory under fresh replays. A replay that desyncs on a
/// sound file is reported, not answered by re-recording: the recording is
/// deterministic, so it would desync again.
///
/// # Errors
///
/// Returns a message on construction failure or desync.
pub fn full_trace_pass(
    bundle: &Bundle,
    workload: &str,
    params: Params,
    cfgs: &[SdtConfig],
    model: impl Fn() -> ArchModel,
) -> Result<Vec<(MechanismStats, [u64; rate::COUNT])>, String> {
    let program = program_for(workload, params)?;
    let fail = |cfg: &SdtConfig, e| format!("{workload}/{}: {e}", cfg.describe());
    // One replay per configuration, at the program's entry, with the
    // first desync it meets once stepped.
    let fresh = || -> Result<Vec<(DispatchReplay, Option<SdtError>)>, String> {
        let start = |cfg: &SdtConfig| {
            let mut rp = DispatchReplay::new(*cfg, &program, model())?;
            rp.seek(program.entry)?;
            Ok((rp, None))
        };
        cfgs.iter()
            .map(|cfg| start(cfg).map_err(|e| fail(cfg, e)))
            .collect()
    };
    let mut replays = fresh()?;
    let streamed = BlockWalker::open_path(&bundle.path)
        .ok()
        .filter(|walker| walker.header() == &bundle.header)
        .is_some_and(|walker| {
            let records = bundle.header.instructions;
            step_all(&mut replays, Source::File(walker), records).is_ok()
        });
    if !streamed {
        let dir = bundle.path.parent().unwrap_or(Path::new(""));
        let (trace, _) = record_trace(dir, workload, params)?;
        replays = fresh()?;
        let records = trace.records.len() as u64;
        step_all(&mut replays, Source::Recording(&trace.records), records)?;
    }
    replays
        .into_iter()
        .zip(cfgs)
        .map(|((rp, desync), cfg)| match desync {
            Some(e) => Err(fail(cfg, e)),
            None => Ok((rp.stats(), rp.rate_counters())),
        })
        .collect()
}

/// Steps every replay of `replays` not yet desynchronized on each of the
/// first `records` records of `source`, keeping the first desync each
/// meets. The error is the source's: it could not be read.
fn step_all(
    replays: &mut [(DispatchReplay, Option<SdtError>)],
    mut source: Source,
    records: u64,
) -> Result<(), String> {
    source.visit(std::slice::from_ref(&(0..records)), |_, ev| {
        if !ev.is_control() {
            return;
        }
        for (rp, desync) in replays.iter_mut().filter(|(_, d)| d.is_none()) {
            *desync = rp.step(&ev).err();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use strata_arch::ArchProfile;
    use strata_trace::TraceError;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strata-sampled-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn interval_targets_250_with_a_floor() {
        assert_eq!(pick_interval(0), 500);
        assert_eq!(pick_interval(100_000), 500);
        assert_eq!(pick_interval(1_000_000), 4000);
        assert_eq!(pick_interval(100_000_000), 400_000);
    }

    #[test]
    fn artifact_names_suffix_noncanonical_params() {
        let p = Params::default();
        assert_eq!(trace_file_name("gzip", p), "gzip.strace");
        assert_eq!(simpts_file_name("gzip", p), "gzip.simpts");
        let big = Params {
            scale: 10,
            variant: 3,
        };
        assert_eq!(trace_file_name("bzip2", big), "bzip2.s10v3.strace");
        assert_eq!(simpts_file_name("bzip2", big), "bzip2.s10v3.simpts");
    }

    #[test]
    fn prune_removes_only_unregistered_trace_artifacts() {
        let dir = temp_dir("prune");
        for name in [
            "gzip.strace",
            "gzip.simpts",
            "ghost.strace",
            "ghost.simpts",
            "ghost.s2v1.strace",
            "notes.txt",
            ".gzip.strace.123.0.tmp",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        prune_orphans(&dir);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(
            left,
            [
                ".gzip.strace.123.0.tmp",
                "gzip.simpts",
                "gzip.strace",
                "notes.txt"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_records_persists_and_estimates_match_full_replay() {
        let dir = temp_dir("bundle");
        let params = Params::default();
        let bundle = ensure_bundle(&dir, "gzip", params).expect("bundle");
        assert!(dir.join("gzip.strace").exists());
        assert!(dir.join("gzip.simpts").exists());
        assert_eq!(bundle.header.workload, "gzip");
        assert!(
            bundle.points.coverage() <= 0.2,
            "{}",
            bundle.points.coverage()
        );

        // Determinism: a fresh recording is byte-identical to the file.
        let on_disk = std::fs::read(dir.join("gzip.strace")).unwrap();
        let (again, _) = record_trace(&dir, "gzip", params).expect("re-record");
        assert_eq!(again.to_bytes(), on_disk, "recording is deterministic");

        let cfg = SdtConfig::ibtc_inline(512);
        let cell =
            estimate_cell(&dir, "gzip", params, cfg, ArchProfile::x86_like()).expect("estimate");
        assert!(cell.work_fraction() <= 0.2, "{}", cell.work_fraction());
        assert_eq!(cell.report.checksum, bundle.header.checksum);

        let x86 = || ArchModel::new(ArchProfile::x86_like());
        let (truth, _) = full_trace_pass(&bundle, "gzip", params, &[cfg], x86).unwrap()[0];
        let ib = &cell.est[rate::IB_DISPATCHES];
        let err = ib.rel_error(truth.ib_dispatches as f64);
        assert!(
            err < 0.25,
            "ib dispatch estimate off by {err} (est {} vs {})",
            ib.mean,
            truth.ib_dispatches
        );
        let err = cell.est[rate::RET_DISPATCHES].rel_error(truth.ret_dispatches as f64);
        assert!(err < 0.25, "ret dispatch estimate off by {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_requests_for_one_bundle_load_it_once() {
        let dir = temp_dir("single-flight");
        let params = Params::default();
        let bundles = Bundles::new(dir.clone());
        let gate = std::sync::Barrier::new(4);
        // A cold directory: whoever loads, records — for long enough that
        // the other three arrive while the slot is being filled.
        (0..4).for_each(|_| bundles.owe("gzip", params));
        let request = || {
            gate.wait();
            let bundle = bundles.read("gzip", params)?;
            let at = std::ptr::from_ref::<Bundle>(&bundle) as usize;
            drop(bundle);
            bundles.done("gzip", params);
            Ok::<usize, String>(at)
        };
        let held: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4).map(|_| s.spawn(request)).collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("no panic").expect("bundle"))
                .collect()
        });
        assert_eq!(bundles.loads(), 1, "one load for four requests");
        assert!(held.iter().all(|&at| at == held[0]), "one bundle");
        assert_eq!(bundles.held(), 0, "dropped after its last user");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A read nobody counted loads, and leaves nothing behind; a counted
    /// user keeps the bundle from one read to the next.
    #[test]
    fn a_bundle_lives_from_its_first_read_to_its_last_users_end() {
        let dir = temp_dir("lifetime");
        let params = Params::default();
        let bundles = Bundles::new(dir.clone());
        let header = || bundles.read("gzip", params).map(|b| b.header.clone());
        let alone = header().expect("records");
        assert_eq!((bundles.loads(), bundles.held()), (1, 0));
        bundles.owe("gzip", params);
        bundles.owe("gzip", params);
        for _ in 0..3 {
            assert_eq!(header(), Ok(alone.clone()));
        }
        bundles.done("gzip", params);
        assert_eq!((bundles.loads(), bundles.held()), (2, 1));
        bundles.done("gzip", params);
        assert_eq!((bundles.loads(), bundles.held()), (2, 0));
        // A sound header is read off the file, with no load.
        assert_eq!(bundles.header("gzip", params), Ok(alone));
        assert_eq!((bundles.loads(), bundles.held()), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_bundles_estimate_exactly_like_whole_traces() {
        let dir = temp_dir("resident");
        let params = Params::default();
        let x86 = ArchProfile::x86_like();
        for spec in strata_workloads::registry() {
            let name = spec.name;
            // Cut from the fresh recording in memory, then read back
            // from the file through the streamed walk: the same bundle.
            let cut = load_bundle(&dir, name, params).expect("records");
            let path = dir.join(trace_file_name(name, params));
            let read = read_bundle(&dir, &path, name, params).expect("file loads");
            assert_eq!((&read.header, &read.points), (&cut.header, &cut.points));
            assert_eq!(read.resident, cut.resident);

            // What is resident is the control records of the elected
            // intervals and their warmups, and where each interval starts.
            let mut full = Vec::new();
            let mut walker = BlockWalker::open_path(&path).expect("opens");
            let all = std::slice::from_ref(&(0..u64::MAX));
            let whole_trace = walker.visit_ranges(all, |_, r| full.push(r));
            whole_trace.expect("whole trace");
            let (pts, n) = (&read.points, read.header.instructions);
            let ranges = resident_ranges(pts);
            assert_eq!(ranges.len(), read.resident.len());
            for (r, run) in ranges.iter().zip(&read.resident) {
                let held = &full[r.start as usize..r.end as usize];
                let control: Vec<_> = held.iter().filter(|r| r.is_control()).copied().collect();
                assert_eq!(run.control, control, "{name} {r:?}");
                assert_eq!(run.first * pts.interval, r.start);
                for (i, &(pc, at)) in (run.first..).zip(&run.heads) {
                    let head = (i * pts.interval) as usize;
                    assert_eq!(pc, full[head].pc, "{name}: interval {i}");
                    let before = full[r.start as usize..head].iter();
                    assert_eq!(at, before.filter(|r| r.is_control()).count());
                }
                assert_eq!(
                    run.heads.len() as u64,
                    (r.end - r.start).div_ceil(pts.interval)
                );
            }
            let touched: std::collections::BTreeSet<u64> = pts
                .points
                .iter()
                .flat_map(|p| [p.interval.saturating_sub(WARMUP_INTERVALS), p.interval])
                .collect();
            let span = |i: &u64| ((i + 1) * pts.interval).min(n) - i * pts.interval;
            let replayed: u64 = touched.iter().map(span).sum();
            assert_eq!(
                replayed,
                ranges.iter().map(|r| r.end - r.start).sum::<u64>()
            );
            assert!(replayed <= n / 4, "{name}");
            assert!(read.interval(pts.intervals).is_err(), "beyond the trace");

            // A bundle holding every record of the trace, control or not.
            let whole = Bundle {
                resident: vec![Run {
                    first: 0,
                    heads: (0..pts.intervals as usize)
                        .map(|i| i * pts.interval as usize)
                        .map(|at| (full[at].pc, at))
                        .collect(),
                    control: full,
                }],
                header: read.header.clone(),
                points: pts.clone(),
                path,
            };
            for cfg in [SdtConfig::ibtc_inline(512), SdtConfig::tuned(512, 128)] {
                let estimate = |b: &Bundle| {
                    let models = vec![x86.clone().into()];
                    let cells = estimate_bundle(b, name, params, cfg, models);
                    cells.expect("replays").remove(0).expect("estimates")
                };
                let cell = estimate(&read);
                // The work a cell stands for is the span it replays, as
                // it was when every record of the span was resident.
                assert_eq!(cell.replayed_records, replayed, "{name}");
                assert_eq!(
                    format!("{cell:?}"),
                    format!("{:?}", estimate(&whole)),
                    "{name}/{}",
                    cfg.describe()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_truth_pass_equals_a_pass_per_configuration() {
        let dir = temp_dir("one-pass");
        let params = Params::default();
        let bundle = load_bundle(&dir, "perlbmk", params).expect("records");
        let cfgs = [
            SdtConfig::reentry(),
            SdtConfig::ibtc_inline(512),
            SdtConfig::sieve(256),
            SdtConfig::tuned(512, 128),
        ];
        let model = || {
            let spec = strata_arch::PredictorSpec::Ittage { tables: 4 };
            ArchModel::with_predictor_spec(ArchProfile::x86_like(), spec)
        };
        let one_pass = full_trace_pass(&bundle, "perlbmk", params, &cfgs, model).unwrap();
        let per_config: Vec<_> = cfgs
            .iter()
            .flat_map(|&cfg| full_trace_pass(&bundle, "perlbmk", params, &[cfg], model).unwrap())
            .collect();
        assert_eq!(one_pass, per_config);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file of `dir` with its bytes.
    fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn a_desync_on_a_sound_trace_is_reported_not_re_recorded() {
        let dir = temp_dir("desync");
        let params = Params::default();
        let bundle = load_bundle(&dir, "gzip", params).expect("records");
        let before = contents(&dir);
        // gzip's trace replayed against perlbmk's program.
        let x86 = || ArchModel::new(ArchProfile::x86_like());
        let cfgs = [SdtConfig::ibtc_inline(512), SdtConfig::reentry()];
        let err = full_trace_pass(&bundle, "perlbmk", params, &cfgs, x86).unwrap_err();
        assert!(err.contains("desynchronized"), "{err}");
        assert_eq!(contents(&dir), before, "nothing re-recorded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `bytes`, a `.strace` image, under the magic of the previous format
    /// (fixed 64 Ki-record blocks).
    fn previous_format(bytes: &[u8]) -> Vec<u8> {
        [b"STRACE01", &bytes[8..]].concat()
    }

    /// The inode of `path`: a re-recording renames a new file into place.
    fn inode(path: &Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).unwrap())
    }

    /// Each block frame of the `.strace` image `bytes`: its byte offset
    /// and the records it holds.
    fn frames(bytes: &[u8]) -> Vec<(usize, Range<u64>)> {
        let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut at = 8 + 4 + 8 + field(8) as usize;
        let mut records = 0..0;
        let mut out = Vec::new();
        while field(at) != u32::MAX {
            records = records.end..records.end + u64::from(field(at + 4));
            out.push((at, records.clone()));
            at += 16 + field(at) as usize;
        }
        out
    }

    #[test]
    fn a_block_outside_the_resident_ranges_is_verified_but_never_unpacked() {
        let params = Params::default();
        let cells = |b: &Bundle| {
            let models = vec![ArchProfile::x86_like().into()];
            let cells = estimate_bundle(b, "gzip", params, SdtConfig::tuned(512, 128), models);
            format!("{:?}", cells.expect("replays"))
        };
        // The first block no resident range touches, as (frame offset,
        // payload byte range), and the file's sound image.
        let unread = |bundle: &Bundle| {
            let on_disk = std::fs::read(&bundle.path).unwrap();
            let ranges = resident_ranges(&bundle.points);
            let all = frames(&on_disk);
            let k = all
                .iter()
                .position(|(_, r)| ranges.iter().all(|w| w.end <= r.start || r.end <= w.start))
                .expect("a block replay never reads");
            let end = all.get(k + 1).map_or(on_disk.len() - 4, |f| f.0);
            (all[k].0, all[k].0 + 16..end, on_disk)
        };

        // A payload that checksums but does not decode: the bundle loads
        // from the file and estimates as the sound trace does.
        let dir = temp_dir("unread-garbage");
        let sound = load_bundle(&dir, "gzip", params).expect("records");
        let (at, payload, on_disk) = unread(&sound);
        let mut bad = on_disk.clone();
        bad[payload.start] = 0xFF;
        let sum = strata_trace::fnv1a64(&bad[payload]);
        bad[at + 8..at + 16].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&sound.path, &bad).unwrap();
        let unpacked = Trace::read(&sound.path);
        assert!(
            matches!(unpacked, Err(TraceError::Codec(_))),
            "{unpacked:?}"
        );
        let read = load_bundle(&dir, "gzip", params).expect("loads");
        assert_eq!(std::fs::read(&sound.path).unwrap(), bad, "not re-recorded");
        assert_eq!(read.resident, sound.resident);
        assert_eq!(cells(&read), cells(&sound));
        let _ = std::fs::remove_dir_all(&dir);

        // One flipped bit in the same payload, checksum left alone: the
        // file is refused and re-recorded.
        let dir = temp_dir("unread-flip");
        let sound = load_bundle(&dir, "gzip", params).expect("records");
        let (_, payload, on_disk) = unread(&sound);
        let mut bad = on_disk.clone();
        bad[payload.start + payload.len() / 2] ^= 0x10;
        std::fs::write(&sound.path, &bad).unwrap();
        assert!(read_bundle(&dir, &sound.path, "gzip", params).is_none());
        let again = load_bundle(&dir, "gzip", params).expect("re-records");
        assert_eq!(std::fs::read(&sound.path).unwrap(), on_disk, "re-recorded");
        assert_eq!(cells(&again), cells(&sound));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trace_of_the_previous_format_is_re_recorded_once() {
        let dir = temp_dir("previous-format");
        let params = Params::default();
        let fresh = load_bundle(&dir, "gzip", params).expect("records");
        let on_disk = std::fs::read(&fresh.path).unwrap();
        std::fs::write(&fresh.path, previous_format(&on_disk)).unwrap();
        let upgraded = load_bundle(&dir, "gzip", params).expect("re-records");
        assert_eq!(std::fs::read(&fresh.path).unwrap(), on_disk, "re-recorded");
        let recorded = inode(&fresh.path);
        let again = load_bundle(&dir, "gzip", params).expect("reads");
        assert_eq!(inode(&fresh.path), recorded, "read, not recorded again");
        for bundle in [&upgraded, &again] {
            assert_eq!(
                (&bundle.header, &bundle.points),
                (&fresh.header, &fresh.points)
            );
            assert_eq!(bundle.resident, fresh.resident);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_trace_counters_re_records_a_trace_that_went_missing_or_bad() {
        let dir = temp_dir("fallback");
        let params = Params::default();
        let bundle = load_bundle(&dir, "gzip", params).expect("records");
        let truth = || {
            let x86 = || ArchModel::new(ArchProfile::x86_like());
            let cfg = SdtConfig::ibtc_inline(512);
            full_trace_pass(&bundle, "gzip", params, &[cfg], x86).expect("counters")
        };
        let streamed = truth();
        let on_disk = std::fs::read(&bundle.path).unwrap();

        std::fs::remove_file(&bundle.path).unwrap();
        assert_eq!(truth(), streamed, "deleted");
        assert_eq!(std::fs::read(&bundle.path).unwrap(), on_disk, "re-recorded");

        let mut bad = on_disk.clone();
        *bad.last_mut().unwrap() ^= 1;
        bad[on_disk.len() / 2] ^= 1;
        std::fs::write(&bundle.path, &bad).unwrap();
        assert_eq!(truth(), streamed, "corrupt mid-stream");
        assert_eq!(std::fs::read(&bundle.path).unwrap(), on_disk, "re-recorded");

        // A trace of the previous format is re-recorded, and only once.
        std::fs::write(&bundle.path, previous_format(&on_disk)).unwrap();
        assert_eq!(truth(), streamed, "previous format");
        assert_eq!(std::fs::read(&bundle.path).unwrap(), on_disk, "re-recorded");
        let upgraded = inode(&bundle.path);
        assert_eq!(truth(), streamed, "upgraded");
        assert_eq!(inode(&bundle.path), upgraded, "read, not recorded again");

        // A directory that cannot be created or written (a file sits in
        // its place): the recording is replayed from memory.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"in the way").unwrap();
        assert_eq!(truth(), streamed, "unwritable");
        let _ = std::fs::remove_file(&dir);
    }
}
