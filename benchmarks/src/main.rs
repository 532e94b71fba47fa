//! `strata-perf` — the repository's benchmark.
//!
//! ```text
//! strata-perf run     [--workload NAME]... [--seed N] [--seconds S]
//! strata-perf trace   [--seed N]
//! strata-perf all     [--seed N] [--seconds S]
//! strata-perf bench   --workload NAME --seed N --seconds S --trace 0|1
//! strata-perf compare A.json B.json
//! strata-perf pin
//!     common: [--root DIR] [--strata PATH]
//! ```
//!
//! `run` times the release `strata` binary as a subprocess on the four
//! end-to-end workloads; `trace` runs the in-process layer probes with
//! span recording; `all` does both; `bench` is one workload (or the
//! traced run) ending in the one-line JSON result a driver reads;
//! `compare` judges one `result.json` against another; `pin` rewrites
//! `digests.json`. Everything written lands under `benchmarks/out/`.
//! See `benchmarks/README.md`.

mod compare;
mod json;
mod layers;
mod metrics;
mod proc;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use metrics::MetricDef;
use workloads::{Paths, Workload, WorkloadResult};

/// Warm-phase length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

struct Options {
    paths: Paths,
    seed: u64,
    seconds: f64,
    workloads: Vec<&'static Workload>,
    trace: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let mut strata = None;
    let (mut seed, mut seconds, mut trace) = (0, DEFAULT_SECONDS, false);
    let (mut selected, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--root" => root = PathBuf::from(value()?),
            "--strata" => strata = Some(PathBuf::from(value()?)),
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("bad --seed `{v}` (a whole number)"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}` (a positive number)"))?;
            }
            "--workload" => {
                let v = value()?;
                let w = workloads::by_name(v).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload `{v}` (one of {})", names.join(", "))
                })?;
                selected.push(w);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => positional.push(arg.clone()),
        }
    }
    let root = root
        .canonicalize()
        .map_err(|e| format!("repository root {}: {e}", root.display()))?;
    Ok(Options {
        paths: Paths {
            strata: strata.unwrap_or_else(|| root.join("target/release/strata")),
            out: root.join("benchmarks/out"),
            root,
        },
        seed,
        seconds,
        workloads: selected,
        trace,
        positional,
    })
}

/// `git status --porcelain` of the repository, or `None` where there is
/// no repository (a source checkout) or no git.
fn git_status(root: &Path) -> Option<Vec<String>> {
    let out = Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_string)
            .collect(),
    )
}

/// Who and what was measured, for `result.json`. Warns when the host is
/// already busy: the load would be measured as the program's.
fn host_json(paths: &Paths) -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg: f64 = read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if loadavg > 0.5 * nproc as f64 {
        eprintln!("warning: 1-min load average {loadavg} exceeds half of {nproc} cores; timings will include it");
    }
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_default();
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&paths.root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::str(String::from_utf8_lossy(&o.stdout).trim())
        });
    let meta = std::fs::metadata(&paths.strata).ok();
    let mtime = meta
        .as_ref()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(Json::Null, |d| Json::Num(d.as_secs() as f64));
    Json::obj([
        ("commit", commit),
        ("strata_binary", Json::str(paths.strata.to_string_lossy())),
        (
            "strata_size_bytes",
            meta.map_or(Json::Null, |m| Json::Num(m.len() as f64)),
        ),
        ("strata_mtime_unix_s", mtime),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("loadavg_1min", Json::Num(loadavg)),
    ])
}

/// One metric's per-run values summarised: the reported value, median,
/// extremes, and quartiles once there are nine runs (no percentile has
/// ten samples beyond it). Fields in display order.
fn summarize(def: &MetricDef, samples: &[f64], bimodal: bool) -> [(&'static str, Option<f64>); 6] {
    let (lo, hi) = stats::range(samples).unzip();
    let quartiles = stats::quartiles(samples).filter(|_| samples.len() >= 9);
    [
        ("value", def.reported(samples, bimodal)),
        ("median", stats::median(samples)),
        ("min", lo),
        ("max", hi),
        ("q1", quartiles.map(|q| q[0])),
        ("q3", quartiles.map(|q| q[2])),
    ]
}

fn summary_json(def: &MetricDef, samples: &[f64], bimodal: bool) -> Json {
    let mut doc = Json::obj([("unit", Json::str(def.unit))]);
    for (field, v) in summarize(def, samples, bimodal) {
        doc.set(field, v.map_or(Json::Null, Json::Num));
    }
    doc.set("n", Json::Num(samples.len() as f64));
    doc.set(
        "samples",
        Json::Arr(samples.iter().copied().map(Json::Num).collect()),
    );
    doc
}

/// The end-to-end metrics a workload reports: all of the contract's, plus
/// the extras that exist for it.
fn reported_metrics(r: &WorkloadResult) -> Vec<(&'static MetricDef, Vec<f64>)> {
    metrics::END_TO_END
        .iter()
        .chain(metrics::END_TO_END_EXTRA)
        .map(|def| (def, r.samples(def.name)))
        .filter(|(_, samples)| !samples.is_empty())
        .collect()
}

fn workload_json(r: &WorkloadResult) -> Json {
    Json::obj([
        ("seed", Json::Num(r.seed as f64)),
        ("why", Json::str(r.workload.why)),
        ("bimodal", Json::Bool(r.workload.bimodal)),
        ("cold_runs", Json::Num(r.cold.len() as f64)),
        ("warm_runs", Json::Num(r.warm.len() as f64)),
        ("census_guest_instrs", Json::Num(r.census_instrs as f64)),
        ("digest", Json::str(format!("{:016x}", r.digest))),
        ("digest_pinned", r.pinned_ok.map_or(Json::Null, Json::Bool)),
        (
            "gate_cells_compared",
            r.warm
                .first()
                .and_then(|w| w.gate_compared)
                .map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("cells_attempted", Json::Num(r.attempted as f64)),
        ("cells_failed", Json::Num(r.failed as f64)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::obj(
                reported_metrics(r)
                    .into_iter()
                    .map(|(def, s)| (def.name, summary_json(def, &s, r.workload.bimodal))),
            ),
        ),
    ])
}

fn print_workload(r: &WorkloadResult) {
    println!(
        "== {} (seed {}, {} cold + {} warm runs, digest {:016x}{}) ==",
        r.workload.name,
        r.seed,
        r.cold.len(),
        r.warm.len(),
        r.digest,
        match r.pinned_ok {
            Some(true) => ", pinned",
            Some(false) => ", DIFFERS FROM PIN",
            None => ", not pinned",
        }
    );
    println!(
        "{:<18} {:<9} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3}",
        "metric", "unit", "value", "median", "min", "max", "q1", "q3", "n"
    );
    for (def, samples) in reported_metrics(r) {
        print!("{:<18} {:<9}", def.name, def.unit);
        for (_, v) in summarize(def, &samples, r.workload.bimodal) {
            print!(" {:>12}", v.map_or("-".into(), |v| format!("{v:.4}")));
        }
        println!(" {:>3}", samples.len());
    }
    for failure in &r.failures {
        println!("FAILED: {failure}");
    }
}

/// Reads `out/result.json` if it holds this schema, else starts afresh;
/// `run` and `trace` each replace their own section.
fn load_result(paths: &Paths) -> Json {
    std::fs::read_to_string(paths.out.join("result.json"))
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .filter(|doc| doc.get("schema").and_then(Json::as_str) == Some(RESULT_SCHEMA))
        .unwrap_or_else(|| Json::obj([("schema", Json::str(RESULT_SCHEMA))]))
}

const RESULT_SCHEMA: &str = "strata-perf-result-v1";

fn write_out(paths: &Paths, file: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(&paths.out)
        .map_err(|e| format!("create {}: {e}", paths.out.display()))?;
    let path = paths.out.join(file);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Measures the selected workloads (all four by default), prints every
/// metric, and writes the `workloads` section of `result.json`. Fails
/// when a cell failed or a child wrote outside `benchmarks/out/`.
fn run(opts: &Options) -> Result<Vec<WorkloadResult>, String> {
    if !opts.paths.strata.is_file() {
        return Err(format!(
            "no strata binary at {} (build it with benchmarks/run.sh, or pass --strata)",
            opts.paths.strata.display()
        ));
    }
    let before = git_status(&opts.paths.root);
    let host = host_json(&opts.paths);
    let selected: Vec<&'static Workload> = if opts.workloads.is_empty() {
        workloads::ALL.iter().collect()
    } else {
        opts.workloads.clone()
    };
    let mut results = Vec::new();
    for w in selected {
        eprintln!(
            "strata-perf: measuring {} (seed {}, {} s warm)",
            w.name, opts.seed, opts.seconds
        );
        let r = workloads::measure(w, opts.seed, opts.seconds, &opts.paths)?;
        print_workload(&r);
        results.push(r);
    }

    let mut doc = load_result(&opts.paths);
    doc.set("host", host);
    let mut section = doc
        .get("workloads")
        .cloned()
        .unwrap_or_else(|| Json::obj::<&str>([]));
    for r in &results {
        section.set(r.workload.name, workload_json(r));
    }
    doc.set("workloads", section);
    write_out(&opts.paths, "result.json", &doc)?;

    // Hygiene: children run with their cwd and every path argument under
    // benchmarks/out/, so the tree must look as it did before.
    if let (Some(before), Some(after)) = (before, git_status(&opts.paths.root)) {
        let stray: Vec<&String> = after
            .iter()
            .filter(|line| !before.contains(line) && !line.contains("benchmarks/out/"))
            .collect();
        if !stray.is_empty() {
            return Err(format!(
                "the run changed the working tree outside benchmarks/out/: {stray:?}"
            ));
        }
    }
    Ok(results)
}

fn any_failed(results: &[WorkloadResult]) -> bool {
    results.iter().any(|r| r.failed > 0)
}

/// The traced run: per-layer metrics printed and written to the
/// `per_layer` section of `result.json`, spans to `trace.json`. Returns
/// the metrics in registry order and the number of probe cells run.
fn trace(opts: &Options) -> Result<(Vec<MetricValue>, u64), String> {
    let work = opts.paths.out.join("work/trace");
    workloads::fresh_dir(&work)?;
    let variant = opts.seed % workloads::VARIANTS;
    eprintln!("strata-perf: traced run over the probe grid (variant {variant})");
    let probe = layers::traced_run(variant, &work)?;

    println!("== per layer (variant {variant}) ==");
    let mut values = Vec::new();
    let mut section = Json::obj([("seed", Json::Num(opts.seed as f64))]);
    for def in metrics::PER_LAYER {
        let value = probe
            .metrics
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("the traced run produced no `{}`", def.name))?;
        println!("{:<36} {:<7} {value:>16.4}", def.name, def.unit);
        section.set(def.name, metric_json(value, def.unit));
        values.push((def.name, value, def.unit));
    }
    write_out(&opts.paths, "trace.json", &probe.recorder.to_json())?;
    let mut doc = load_result(&opts.paths);
    doc.set("per_layer", section);
    write_out(&opts.paths, "result.json", &doc)?;
    let cells = spans::aggregate(probe.recorder.spans())
        .get(&("harness", "cell"))
        .map_or(0, |a| a.calls);
    Ok((values, cells))
}

/// `(name, value, unit)`.
type MetricValue = (&'static str, f64, &'static str);

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The result line a driver reads: the last line of stdout.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<MetricValue>) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name, metric_json(value, unit))),
            ),
        ),
    ])
    .render()
}

/// One workload end to end (`--trace 0`) or the traced run (`--trace 1`),
/// ending in the result line.
fn bench(opts: &Options) -> Result<bool, String> {
    if opts.workloads.len() != 1 {
        return Err("bench needs exactly one --workload".into());
    }
    if opts.trace {
        let (values, cells) = trace(opts)?;
        // A probe cell that fails aborts the run, so reaching this line
        // means none did.
        println!("{}", result_line(true, cells, 0, values));
        return Ok(true);
    }
    let results = run(opts)?;
    let r = &results[0];
    let mut values = Vec::new();
    for def in metrics::END_TO_END {
        let value = def
            .reported(&r.samples(def.name), r.workload.bimodal)
            .ok_or_else(|| format!("{}: no samples of `{}`", r.workload.name, def.name))?;
        values.push((def.name, value, def.unit));
    }
    println!(
        "{}",
        result_line(r.failed == 0, r.attempted, r.failed, values)
    );
    Ok(r.failed == 0)
}

/// Re-records `benchmarks/digests.json`: the stdout digest of a cold run
/// of every instance a seed can select.
fn pin(opts: &Options) -> Result<(), String> {
    let mut doc = Json::obj::<&str>([]);
    for w in workloads::ALL {
        let mut entry = Json::obj::<&str>([]);
        for seed in 0..w.instances {
            eprintln!("strata-perf: pinning {} instance {seed}", w.name);
            let digest = workloads::cold_digest(w, seed, &opts.paths)?;
            entry.set(&seed.to_string(), Json::str(format!("{digest:016x}")));
        }
        doc.set(w.name, entry);
    }
    let path = opts.paths.root.join("benchmarks/digests.json");
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn compare_files(opts: &Options) -> Result<bool, String> {
    let [base, new] = opts.positional.as_slice() else {
        return Err("usage: strata-perf compare A.json B.json".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let comparison = compare::compare(&load(base)?, &load(new)?);
    print!("base {base}\nnew  {new}\n{}", comparison.text);
    Ok(!comparison.failed)
}

fn main() -> ExitCode {
    // STRATA_* variables reconfigure the program (tier, sampled mode,
    // predictor, scale); neither the children nor the in-process probes
    // may inherit them.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("STRATA_") {
            std::env::remove_var(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!(
            "usage: strata-perf <run|trace|all|bench|compare|pin> ... (see benchmarks/README.md)"
        );
        return ExitCode::from(2);
    };
    let outcome = parse_options(rest).and_then(|opts| match command.as_str() {
        "run" => run(&opts).map(|r| !any_failed(&r)),
        "trace" => trace(&opts).map(|_| true),
        "all" => {
            let results = run(&opts)?;
            trace(&opts)?;
            Ok(!any_failed(&results))
        }
        "bench" => bench(&opts),
        "compare" => compare_files(&opts),
        "pin" => pin(&opts).map(|()| true),
        other => Err(format!("unknown command `{other}`")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
