//! The four end-to-end workloads: what one run of each is, how its output
//! is checked, and the cold-then-warm measurement loop.
//!
//! Load shape: a closed loop with one client. Runs execute back to back,
//! one child process at a time; the harness only polls `/proc` while a
//! child runs. The program sees the seed only as `--variant`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;
use crate::proc::{run_child, ChildRun};
use crate::stats::median;

/// Distinct workload instances a seed can select (`--variant seed % 16`).
/// A small closed set, so that every instance can be — and has been — run
/// to check that no cell fails and to pin its output digest; an arbitrary
/// 64-bit variant could land on an instance where the program's own
/// `FIDELITY` gate fails.
pub const VARIANTS: u64 = 16;

/// Worker threads each child gets (`--jobs`): the reference box's core
/// count, fixed so results compare across hosts with more cores.
const JOBS: &str = "2";

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Fresh-directory cold runs per measurement; `setup_s` is their
    /// median. Three where a run is a few seconds, one where it is long.
    pub cold_runs: usize,
    /// Distinct instances a seed selects among: [`VARIANTS`], or 1 where
    /// the seed does not reach the program.
    pub instances: u64,
    /// Whether identical runs fall in two modes by the program's own
    /// doing, so that its time metrics report the better mode's typical
    /// run instead of the median (`metrics::Stat::Time`).
    pub bimodal: bool,
    /// `strata` argument lists of the children that make one run, without
    /// the artifact flags. `work` is the run's working directory.
    children: fn(seed: u64, root: &Path, work: &Path) -> Vec<Vec<String>>,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn variant(seed: u64, offset: u64) -> String {
    (seed.wrapping_add(offset) % VARIANTS).to_string()
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "suite-exact",
        why: "Every figure, exact, under the zero-tolerance baseline gate: 1164 of 1176 cells are translated, so core (Sdt::run over Machine::step) and arch costing do the work.",
        cold_runs: 1,
        instances: 1,
        bimodal: false,
        // The suite is the paper's figure set and the committed baseline
        // pins it at variant 0, so the seed does not vary this workload;
        // sdt-churn runs the same layers on seeded instances.
        children: |_seed, root, _work| {
            let baseline = root.join("results/baseline");
            vec![strings(&[
                "bench",
                "--jobs",
                JOBS,
                "--baseline",
                &baseline.to_string_lossy(),
                "--tolerance",
                "0",
            ])]
        },
    },
    Workload {
        name: "suite-sampled",
        why: "The same figures by SimPoint replay of recorded traces: trace decode, DispatchReplay and expt::sampled do the work; guest dispatch and per-instruction costing are bypassed.",
        cold_runs: 3,
        instances: VARIANTS,
        // About one run in three takes eight times the minor page faults
        // (≈ 1 M for 130 K) and 1.2 s more system time, depending on how
        // the two workers' allocations interleave in the allocator.
        bimodal: true,
        children: |seed, _root, work| {
            vec![strings(&[
                "bench",
                "--sampled",
                "--traces",
                &work.join("traces").to_string_lossy(),
                "--jobs",
                JOBS,
                "--variant",
                &variant(seed, 0),
            ])]
        },
    },
    Workload {
        name: "native-threaded",
        why: "Native cells on the threaded tier, four instances back to back: machine::tier and arch costing do all the work, core none, so a tier gain shows here and not on suite-exact.",
        cold_runs: 3,
        instances: VARIANTS,
        bimodal: false,
        children: |seed, _root, _work| {
            (0..4)
                .map(|i| {
                    strings(&[
                        "bench", "--filter", "table1", "--scale", "9", "--tier", "threaded",
                        "--jobs", "1", "--variant", &variant(seed, i),
                    ])
                })
                .collect()
        },
    },
    Workload {
        name: "sdt-churn",
        why: "Re-entry, unlinked exits and an 8-12 KiB fragment cache: trap servicing, translation, link patching and flushes dominate, so caching decoded fragments pays here what it saves on suite-exact.",
        cold_runs: 1,
        instances: VARIANTS,
        bimodal: false,
        children: |seed, _root, _work| {
            vec![strings(&[
                "bench", "--filter", "fig3,fig13,fig14", "--scale", "4", "--jobs", JOBS,
                "--variant", &variant(seed, 0),
            ])]
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Where things are.
pub struct Paths {
    /// Repository (or checkout) root.
    pub root: PathBuf,
    /// The release `strata` binary under test.
    pub strata: PathBuf,
    /// `benchmarks/out`: everything the benchmark writes lands here.
    pub out: PathBuf,
}

/// FNV-1a 64 of `bytes` — the stdout digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `cells:` summary `strata bench` prints on stderr.
#[derive(Debug, PartialEq, Eq)]
pub struct CellsLine {
    pub unique: u64,
    pub simulated: u64,
    pub memo_hits: u64,
    pub disk_hits: u64,
}

/// Parses `cells: 1176 unique (1176 simulated, 6253 memo hits, 0 disk
/// hits) on 2 job(s)` out of a stderr capture.
pub fn parse_cells_line(stderr: &str) -> Option<CellsLine> {
    let rest = stderr.lines().find_map(|l| l.strip_prefix("cells: "))?;
    let (unique, rest) = rest.split_once(" unique (")?;
    let (simulated, rest) = rest.split_once(" simulated, ")?;
    let (memo_hits, rest) = rest.split_once(" memo hits, ")?;
    let (disk_hits, _) = rest.split_once(" disk hits)")?;
    Some(CellsLine {
        unique: unique.parse().ok()?,
        simulated: simulated.parse().ok()?,
        memo_hits: memo_hits.parse().ok()?,
        disk_hits: disk_hits.parse().ok()?,
    })
}

/// Parses fig21's verdict, `FIDELITY PASS (max rel err 0.60% <= 5.00%,
/// …`: whether it passed and the maximum relative error in percent.
pub fn parse_fidelity(stdout: &str) -> Option<(bool, f64)> {
    let rest = stdout.lines().find_map(|l| l.strip_prefix("FIDELITY "))?;
    let (verdict, rest) = rest.split_once(" (max rel err ")?;
    let pass = match verdict {
        "PASS" => true,
        "FAIL" => false,
        _ => return None,
    };
    Some((pass, rest.split_once('%')?.0.parse().ok()?))
}

/// Parses `baseline gate: 0 regression(s), 0 drift(s) within tolerance
/// (5696 numeric cells compared, …`: (regressions, drifts, compared).
pub fn parse_gate(stdout: &str) -> Option<(u64, u64, u64)> {
    let rest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("baseline gate: "))?;
    let (regressions, rest) = rest.split_once(" regression(s), ")?;
    let (drifts, rest) = rest.split_once(" drift(s)")?;
    let (_, rest) = rest.split_once('(')?;
    let (compared, _) = rest.split_once(" numeric cells compared")?;
    Some((
        regressions.parse().ok()?,
        drifts.parse().ok()?,
        compared.parse().ok()?,
    ))
}

/// Sums the guest-instruction census out of a `cells.json` artifact:
/// (cells, instructions) over the rows of its one table.
pub fn census_from_cells_json(text: &str) -> Option<(u64, u64)> {
    let doc = Json::parse(text).ok()?;
    let table = doc.get("tables")?.as_arr()?.first()?;
    let column = table
        .get("columns")?
        .as_arr()?
        .iter()
        .position(|c| c.as_str() == Some("instructions"))?;
    let rows = table.get("rows")?.as_arr()?;
    let mut instrs = 0u64;
    for row in rows {
        instrs += row.as_arr()?.get(column)?.as_str()?.parse::<u64>().ok()?;
    }
    Some((rows.len() as u64, instrs))
}

/// One run of a workload: its children's measurements summed (maximum for
/// memory), and what the output checks found.
#[derive(Debug, Clone)]
pub struct RunSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    /// Unique cells the children reported (0 when one died first).
    pub cells: u64,
    pub digest: u64,
    pub fidelity_err_pct: Option<f64>,
    /// Numeric baseline cells the zero-tolerance gate compared.
    pub gate_compared: Option<u64>,
    /// Why the run's cells count as failed, if they do.
    pub failure: Option<String>,
}

/// Cold runs write artifacts (for the census); warm runs write none.
fn run_once(
    w: &Workload,
    seed: u64,
    paths: &Paths,
    work: &Path,
    cold: bool,
) -> Result<RunSample, String> {
    let mut sample = RunSample {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_kb: 0,
        cells: 0,
        digest: 0,
        fidelity_err_pct: None,
        gate_compared: None,
        failure: None,
    };
    let mut all_stdout = Vec::new();
    for (i, mut args) in (w.children)(seed, &paths.root, work)
        .into_iter()
        .enumerate()
    {
        if cold {
            args.push("--artifacts-dir".into());
            args.push(
                work.join(format!("artifacts{i}"))
                    .to_string_lossy()
                    .into_owned(),
            );
        } else {
            args.push("--no-artifacts".into());
        }
        let ChildRun {
            wall_s,
            cpu_s,
            peak_rss_kb,
            success,
            stdout,
            stderr,
        } = run_child(&paths.strata, &args, work)?;
        sample.wall_s += wall_s;
        sample.cpu_s += cpu_s;
        sample.peak_rss_kb = sample.peak_rss_kb.max(peak_rss_kb);
        let text = String::from_utf8_lossy(&stdout);
        let mut fail = |why: String| {
            sample.failure.get_or_insert(why);
        };
        if !success {
            let last = stderr.lines().last().unwrap_or("").to_string();
            fail(format!("child {i} exited non-zero: {last}"));
        }
        match parse_cells_line(&stderr) {
            Some(line) => sample.cells += line.unique,
            None => fail(format!("child {i} printed no `cells:` line")),
        }
        if args.iter().any(|a| a == "--sampled") {
            match parse_fidelity(&text) {
                Some((true, err)) => sample.fidelity_err_pct = Some(err),
                Some((false, err)) => {
                    sample.fidelity_err_pct = Some(err);
                    fail(format!("FIDELITY FAIL (max rel err {err}%)"));
                }
                None => fail("sampled run printed no FIDELITY line".into()),
            }
        }
        if args.iter().any(|a| a == "--baseline") {
            match parse_gate(&text) {
                Some((0, 0, compared)) => sample.gate_compared = Some(compared),
                Some((r, d, _)) => fail(format!("baseline gate: {r} regression(s), {d} drift(s)")),
                None => fail("gated run printed no `baseline gate:` line".into()),
            }
        }
        all_stdout.extend_from_slice(&stdout);
    }
    sample.digest = fnv1a64(&all_stdout);
    Ok(sample)
}

/// Reads the census the cold run's artifacts hold: (cells, instructions)
/// summed over the run's children.
fn read_census(w: &Workload, seed: u64, paths: &Paths, work: &Path) -> Option<(u64, u64)> {
    let children = (w.children)(seed, &paths.root, work).len();
    let mut total = (0, 0);
    for i in 0..children {
        let text = std::fs::read_to_string(work.join(format!("artifacts{i}/cells.json"))).ok()?;
        let (cells, instrs) = census_from_cells_json(&text)?;
        total = (total.0 + cells, total.1 + instrs);
    }
    Some(total)
}

/// Everything measured about one workload.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Guest instructions of one run's unique cells (cold-run census).
    pub census_instrs: u64,
    /// stdout digest of the (first) cold run — the reference the warm
    /// runs and the pinned digest are checked against.
    pub digest: u64,
    /// `Some(true/false)` when `digests.json` pins this seed's instance.
    pub pinned_ok: Option<bool>,
    pub cold: Vec<RunSample>,
    pub warm: Vec<RunSample>,
    /// Cells attempted and failed over all runs, cold and warm.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Per-run values of an end-to-end metric, by name. `setup_s` comes
    /// from the cold runs, everything else from the warm ones.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let warm = |f: fn(&RunSample) -> f64| self.warm.iter().map(f).collect();
        match metric {
            "wall_s" => warm(|r| r.wall_s),
            "cpu_s" => warm(|r| r.cpu_s),
            "guest_mips" => self
                .warm
                .iter()
                .filter(|r| r.cpu_s > 0.0)
                .map(|r| self.census_instrs as f64 / r.cpu_s / 1e6)
                .collect(),
            "peak_rss_mb" => warm(|r| r.peak_rss_kb as f64 / 1024.0),
            "setup_s" => self.cold.iter().map(|r| r.wall_s).collect(),
            "fidelity_err_pct" => self
                .warm
                .iter()
                .filter_map(|r| r.fidelity_err_pct)
                .collect(),
            "failed_share" => vec![self.failed_share()],
            _ => Vec::new(),
        }
    }
}

/// The pinned stdout digest for `workload` at `seed`, from
/// `benchmarks/digests.json` (keyed by instance).
fn pinned_digest(paths: &Paths, w: &Workload, seed: u64) -> Option<u64> {
    let text = std::fs::read_to_string(paths.root.join("benchmarks/digests.json")).ok()?;
    let hex = Json::parse(&text)
        .ok()?
        .get(w.name)?
        .get(&(seed % w.instances).to_string())?
        .as_str()?
        .to_string();
    u64::from_str_radix(&hex, 16).ok()
}

/// Empties `dir`, creating it if need be. Only ever called on paths under
/// `benchmarks/out/work/`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// The stdout digest of one cold run of `w` at `seed`, for `pin`.
///
/// # Errors
///
/// Returns a message when the run cannot be made or any of its checks
/// fails: a failing instance must not be pinned.
pub fn cold_digest(w: &Workload, seed: u64, paths: &Paths) -> Result<u64, String> {
    let work = paths.out.join("work").join(w.name).join("pin");
    fresh_dir(&work)?;
    let run = run_once(w, seed, paths, &work, true)?;
    match run.failure {
        None => Ok(run.digest),
        Some(why) => Err(format!("{} at seed {seed}: {why}", w.name)),
    }
}

/// Measures one workload: `cold_runs` runs, each in a fresh directory
/// under `out/work/<name>/`, then warm runs in the last of them until
/// another would overrun `seconds` (always at least one).
///
/// # Errors
///
/// Returns a message when a child cannot be run at all or the work
/// directory cannot be prepared; a child that runs and fails is data.
pub fn measure(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    paths: &Paths,
) -> Result<WorkloadResult, String> {
    let base = paths.out.join("work").join(w.name);
    fresh_dir(&base)?;
    let mut result = WorkloadResult {
        workload: w,
        seed,
        census_instrs: 0,
        digest: 0,
        pinned_ok: None,
        cold: Vec::new(),
        warm: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut work = base.clone();
    for i in 0..w.cold_runs {
        work = base.join(format!("cold{i}"));
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let run = run_once(w, seed, paths, &work, true)?;
        if i == 0 {
            result.digest = run.digest;
            if let Some((_, instrs)) = read_census(w, seed, paths, &work) {
                result.census_instrs = instrs;
            }
        }
        result.cold.push(run);
    }
    // Cells per run, for charging a run that died before reporting any.
    let cells_per_run = result
        .cold
        .iter()
        .map(|r| r.cells)
        .max()
        .unwrap_or(0)
        .max(1);

    let started = Instant::now();
    loop {
        result.warm.push(run_once(w, seed, paths, &work, false)?);
        let typical = median(&result.samples("wall_s")).unwrap_or(0.0);
        if started.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }

    result.pinned_ok = pinned_digest(paths, w, seed).map(|d| d == result.digest);
    // What fails every run of the measurement, however each one went.
    let whole_failure = if result.census_instrs == 0 {
        Some("the cold run left no cells.json census".to_string())
    } else if result.pinned_ok == Some(false) {
        Some(format!(
            "stdout digest {:016x} differs from the one pinned in digests.json: a simulated number moved",
            result.digest
        ))
    } else {
        None
    };
    let reference = result.digest;
    for (kind, run) in result
        .cold
        .iter()
        .map(|r| ("cold", r))
        .chain(result.warm.iter().map(|r| ("warm", r)))
    {
        let failure = run
            .failure
            .clone()
            .or_else(|| {
                (run.digest != reference).then(|| {
                    format!(
                        "stdout digest {:016x} differs from the cold run's {reference:016x}",
                        run.digest
                    )
                })
            })
            .or_else(|| whole_failure.clone());
        let cells = run.cells.max(cells_per_run);
        result.attempted += cells;
        if let Some(why) = failure {
            result.failed += cells;
            let line = format!("{kind} run: {why}");
            if !result.failures.contains(&line) {
                result.failures.push(line);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cells_line_among_other_stderr() {
        let stderr = "wrote 24 artifact(s) under results/\n\
                      cells: 1176 unique (1176 simulated, 6253 memo hits, 0 disk hits) on 2 job(s)\n\
                      wrote results/delta_report.txt\n";
        assert_eq!(
            parse_cells_line(stderr),
            Some(CellsLine {
                unique: 1176,
                simulated: 1176,
                memo_hits: 6253,
                disk_hits: 0
            })
        );
        assert_eq!(parse_cells_line("error: no such experiment\n"), None);
        assert_eq!(
            parse_cells_line("cells: many unique (1 simulated, 2 memo hits, 3 disk hits)"),
            None
        );
    }

    #[test]
    fn parses_the_fidelity_verdict() {
        let pass = "notes\nFIDELITY PASS (max rel err 0.60% <= 5.00%, max work 14.8% <= 20%, all gated metrics within bars: true)\n";
        assert_eq!(parse_fidelity(pass), Some((true, 0.60)));
        let fail = "FIDELITY FAIL (max rel err 7.25% <= 5.00%, max work 14.8% <= 20%, all gated metrics within bars: false)";
        assert_eq!(parse_fidelity(fail), Some((false, 7.25)));
        assert_eq!(parse_fidelity("no verdict here"), None);
        assert_eq!(
            parse_fidelity("FIDELITY MAYBE (max rel err 1% <= 5%)"),
            None
        );
    }

    #[test]
    fn parses_the_gate_line() {
        let clean = "baseline gate: 0 regression(s), 0 drift(s) within tolerance (5696 numeric cells compared, tolerance 0%)\n";
        assert_eq!(parse_gate(clean), Some((0, 0, 5696)));
        let dirty = "x\nbaseline gate: 3 regression(s), 1 drift(s) within tolerance (12 numeric cells compared, tolerance 5%)";
        assert_eq!(parse_gate(dirty), Some((3, 1, 12)));
        assert_eq!(parse_gate("baseline gate: broken"), None);
    }

    #[test]
    fn sums_the_census_from_cells_json() {
        let doc = r#"{"id": "cells", "tables": [{"title": "per-cell metrics",
            "columns": ["cell", "total_cycles", "instructions", "ib_dispatches", "ret_dispatches"],
            "rows": [["a|native|x86-like|s1v0", "10", "1746337", "", ""],
                     ["a|sdt:reentry|x86-like|s1v0", "20", "1945295", "0", "0"]]}]}"#;
        assert_eq!(census_from_cells_json(doc), Some((2, 1746337 + 1945295)));
        assert_eq!(census_from_cells_json("{}"), None);
        let no_column = r#"{"tables": [{"columns": ["cell"], "rows": [["a"]]}]}"#;
        assert_eq!(census_from_cells_json(no_column), None);
    }

    #[test]
    fn digest_is_fnv1a64() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seeds_select_one_of_sixteen_instances() {
        let args =
            (by_name("native-threaded").unwrap().children)(14, Path::new("/r"), Path::new("/w"));
        let variants: Vec<&str> = args.iter().map(|a| a.last().unwrap().as_str()).collect();
        assert_eq!(variants, ["14", "15", "0", "1"]);
        let same =
            (by_name("sdt-churn").unwrap().children)(16 + 3, Path::new("/r"), Path::new("/w"));
        assert_eq!(same[0].last().unwrap(), "3");
        // The suite is pinned to the committed baseline's instance.
        let exact = (by_name("suite-exact").unwrap().children)(7, Path::new("/r"), Path::new("/w"));
        assert!(!exact[0].contains(&"--variant".to_string()));
        assert!(exact[0].contains(&"/r/results/baseline".to_string()));
    }
}
