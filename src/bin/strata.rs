//! `strata` — command-line driver for the SDT laboratory: `list`, `run`,
//! `compare`, `verify`, `bench` and `trace record|info|simpoints`.
//! [`VERBS`] holds each verb's usage synopsis, which is also the table of
//! `--flags` the verb reads: a flag that is not in it exits 2 naming the
//! flag and the verb instead of running on defaults.
//!
//! `bench --baseline DIR` diffs the run's artifacts against the committed
//! snapshot under `DIR` and exits nonzero when any metric drifts more
//! than `--tolerance` percent (default 5) — the CI regression gate.
//!
//! A run is split across machines by running `bench --filter … --cache`
//! on each; a plain `bench --cache` over the merged `*.cell` files renders
//! the union, byte-identical to one local run.
//!
//! Config specs mirror `SdtConfig::describe()` loosely:
//! `reentry`, `ibtc:<entries>`, `ibtc-outline:<entries>`,
//! `ibtc-persite:<entries>`, `sieve:<buckets>`, `tuned:<ibtc>,<rc>`,
//! `fastret:<ibtc>`, `shadow:<ibtc>,<depth>`; append `+noflags` or `+nolink`
//! (grammar: `SdtConfig::parse`).
//!
//! `--ib-policy` overrides per-branch-class dispatch strategies on top of
//! the base config, e.g. `--ib-policy jump=sieve:4096,call=ibtc:512x2,ret=retcache:1024`
//! (grammar: `SdtConfig::parse_policy`). [`SPECS`], printed with the
//! usage, lists both grammars and `--predictor`'s.

use std::process::ExitCode;

use strata_lab::arch::ArchProfile;
use strata_lab::cli::{
    check_flags, check_verb, parse_arch, parse_config, parse_context, parse_flag, parse_params,
    parse_policy, parse_suite, parse_tier, usage_verb, VERIFY_SWEEP,
};
use strata_lab::core::{run_native_with_model, Origin, RetMechanism, Sdt, SdtConfig};
use strata_lab::expt::sampled;
use strata_lab::expt::{self, SuiteReport};
use strata_lab::machine::{ExecTier, TierConfig};
use strata_lab::stats::Table;
use strata_lab::workloads::{by_name, registry, Params};

const FUEL: u64 = 8_000_000_000;

/// Environment variables earlier versions read as flag fallbacks, with the
/// flag that replaces each. Setting one is an error rather than a silent
/// no-op: a run configured by a variable that nothing reads would measure
/// something other than what was asked.
const REMOVED_ENV: [(&str, &str); 6] = [
    ("STRATA_TIER", "--tier SPEC"),
    ("STRATA_SAMPLED", "--sampled [--traces DIR]"),
    ("STRATA_PREDICTOR", "--predictor SPEC"),
    ("STRATA_SCALE", "--scale N"),
    ("STRATA_VARIANT", "--variant N"),
    ("STRATA_CSV", "--format csv"),
];

type Verb = fn(&[String]) -> Result<(), String>;

/// Every verb: its usage synopsis and its entry point. The synopsis names
/// the verb (`cli::usage_verb`), is what `strata` prints without one, and
/// is the table of `--flags` the verb reads (`cli::check_flags`) — a flag
/// a verb starts reading has to be added here to be accepted at all.
const VERBS: [(&str, Verb); 8] = [
    ("strata list", list_cmd),
    (
        "strata run <workload> [--config SPEC] [--ib-policy SPEC] [--arch x86|sparc|mips]\n\
         \x20          [--scale N] [--variant N] [--instrument] [--cache-limit BYTES]\n\
         \x20          [--dump-cache N] [--tier interp|threaded[:M]] [--tier-threshold M]\n\
         \x20          [--predictor SPEC]",
        run_cmd,
    ),
    (
        "strata compare <workload> [--arch NAME] [--scale N] [--variant N] [--tier SPEC]\n\
         \x20            [--tier-threshold M] [--predictor SPEC]",
        compare_cmd,
    ),
    (
        "strata verify [<workload>] [--config SPEC] [--ib-policy SPEC] [--all]\n\
         \x20            [--arch NAME] [--scale N] [--format text|json] [--validate-tiers]",
        verify_cmd,
    ),
    (
        "strata bench [--jobs N] [--filter IDS] [--format text|csv|json]\n\
         \x20            [--scale N] [--variant N] [--cache] [--no-artifacts]\n\
         \x20            [--artifacts-dir DIR] [--baseline DIR] [--tolerance PCT]\n\
         \x20            [--list] [--sampled] [--traces DIR]\n\
         \x20            [--tier interp|threaded[:M]] [--tier-threshold M] [--predictor SPEC]",
        bench_cmd,
    ),
    (
        "strata trace record <workload|all> [--scale N] [--variant N]\n\
         \x20            [--traces DIR] [--tier SPEC] [--tier-threshold M]",
        trace_record_cmd,
    ),
    ("strata trace info <file.strace>", trace_info_cmd),
    (
        "strata trace simpoints <workload> [--scale N] [--variant N] [--traces DIR]",
        trace_simpoints_cmd,
    ),
];

const SPECS: &str = "\
config SPECs: reentry | ibtc:4096 | ibtc-outline:4096 | ibtc-persite:64
              | sieve:4096 | tuned:4096,1024 | fastret:4096
              | shadow:4096,1024  (+noflags, +nolink)
policy SPECs: jump=sieve:4096,call=ibtc:512x2,ret=retcache:1024
              classes jump|call|ret; strategies inherit | reentry
              | ibtc:N[x2] | ibtc-outline:N | ibtc-persite:N[x2]
              | sieve:N | adaptive[:ibtc,sieve[,arity]]
              | predictive[:sieve,probation];
              ret: asib | retcache:N | rc:N | fastret | shadow:N
predictor SPECs: legacy | none | ideal | btb:N | btb:SxW | ittage[:T]";

fn main() -> ExitCode {
    for (name, flag) in REMOVED_ENV {
        if std::env::var_os(name).is_some() {
            eprintln!("{name} is no longer read; pass {flag}");
            return ExitCode::from(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = check_verb(&args) {
        eprintln!("{message}");
        return ExitCode::from(2);
    }
    for (usage, run) in VERBS {
        let named = usage_verb(usage).count();
        if !usage_verb(usage).eq(args.iter().take(named)) {
            continue;
        }
        // First thing in any verb: a command line it would not read as
        // written is refused, not run on defaults.
        if let Err(message) = check_flags(usage, &args[named..]) {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
        return match run(&args[named..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!("usage: strata <verb> ...\n");
    for (usage, _) in VERBS {
        eprintln!("{usage}");
    }
    eprintln!("\n{SPECS}");
    ExitCode::from(2)
}

fn list_cmd(_args: &[String]) -> Result<(), String> {
    let mut t = Table::new("available workloads", &["name", "models", "summary"]);
    for spec in registry() {
        t.row([spec.name, "SPEC CINT2000", spec.summary]);
    }
    println!("{}", t.render_text());
    Ok(())
}

struct CommonArgs {
    workload: &'static strata_lab::workloads::Spec,
    profile: ArchProfile,
    params: Params,
}

fn parse_common(args: &[String]) -> Result<CommonArgs, String> {
    let name = args
        .first()
        .ok_or("missing workload name (try `strata list`)")?;
    let workload =
        by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `strata list`)"))?;
    Ok(CommonArgs {
        workload,
        profile: parse_arch(args)?,
        params: parse_params(args)?,
    })
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let common = parse_common(args)?;
    // Both sides are priced under `--predictor` (legacy by default).
    let context = parse_context(args, false)?;
    let model = || context.model(common.profile.clone());
    let mut cfg = match parse_flag(args, "--config") {
        Some(spec) => parse_config(&spec)?,
        None => SdtConfig::ibtc_inline(4096),
    };
    if let Some(spec) = parse_flag(args, "--ib-policy") {
        parse_policy(&spec, &mut cfg)?;
    }
    if args.iter().any(|a| a == "--instrument") {
        cfg.instrument_blocks = true;
    }
    if let Some(limit) = parse_flag(args, "--cache-limit") {
        cfg.cache_limit = Some(
            limit
                .parse()
                .map_err(|_| format!("bad --cache-limit `{limit}`"))?,
        );
    }

    // The tier only changes how the host executes the native baseline;
    // retire streams are bit-identical, so every reported number below
    // is tier-independent (only wall-clock moves).
    let tier = parse_tier(args)?.unwrap_or(ExecTier::Interp);

    let program = (common.workload.build)(&common.params);
    let native = run_native_with_model(&program, model(), FUEL, tier).map_err(|e| e.to_string())?;
    let mut sdt = Sdt::new(cfg, &program).map_err(|e| e.to_string())?;
    let report = sdt.run(model(), FUEL).map_err(|e| e.to_string())?;

    let pct = |c: u64| format!("{:.1}%", c as f64 * 100.0 / report.total_cycles as f64);
    let mut t = Table::new(
        format!(
            "{} under {} on {}",
            program.name, report.config, report.arch
        ),
        &["metric", "value"],
    );
    t.row([
        "slowdown vs native",
        &format!("{:.3}x", report.slowdown(native.total_cycles)),
    ]);
    t.row(["total cycles", &report.total_cycles.to_string()]);
    t.row(["native cycles", &native.total_cycles.to_string()]);
    t.row(["guest instructions", &report.instructions.to_string()]);
    for origin in Origin::ALL {
        t.row([
            &format!("cycles: {}", origin.label()),
            &pct(report.cycles_for(origin)),
        ]);
    }
    t.row(["cycles: translator", &pct(report.translator_cycles)]);
    t.row(["IB dispatches", &report.mech.ib_dispatches.to_string()]);
    t.row([
        "IB hit rate",
        &format!("{:.2}%", report.mech.ib_hit_rate() * 100.0),
    ]);
    t.row(["ret dispatches", &report.mech.ret_dispatches.to_string()]);
    t.row(["fragments", &report.mech.fragments.to_string()]);
    t.row(["cache bytes", &report.mech.cache_used_bytes.to_string()]);
    t.row(["cache flushes", &report.mech.cache_flushes.to_string()]);
    for table in sdt.fixed_tables() {
        let size = match table.ways {
            1 => format!("{} entries", table.slots),
            ways => format!("{} sets of {ways}", table.slots),
        };
        let highest = table
            .highest_hashed
            .map_or("none".into(), |i| i.to_string());
        t.row([
            format!("{} table", table.name),
            format!("{size}, highest index hashed {highest}"),
        ]);
    }
    println!("{}", t.render_text());

    let mut ct = Table::new(
        "per-class dispatch breakdown",
        &["class", "mechanism", "dispatches", "misses", "promotions"],
    );
    for c in &report.per_class {
        ct.row([
            c.class.to_string(),
            c.mechanism.clone(),
            c.dispatches.to_string(),
            c.misses.to_string(),
            c.promotions.to_string(),
        ]);
    }
    println!("{}", ct.render_text());

    if cfg.instrument_blocks {
        let blocks = sdt.block_profile();
        let mut bt = Table::new("hottest blocks", &["app address", "executions"]);
        for &(addr, count) in blocks.iter().take(8) {
            bt.row([format!("{addr:#x}"), count.to_string()]);
        }
        println!("{}", bt.render_text());
    }
    if let Some(n) = parse_flag(args, "--dump-cache") {
        let n: usize = n.parse().map_err(|_| format!("bad --dump-cache `{n}`"))?;
        print!("{}", sdt.dump_cache(n));
    }
    Ok(())
}

/// One stderr line per failed cell — its key, stage and error — and the
/// error the verb exits 1 with; `Ok` when every cell has a result.
fn failed_cells(report: &SuiteReport) -> Result<(), String> {
    for (key, stage, error) in &report.failures {
        eprintln!("failed: {key} at {stage}: {}", error.replace('\n', " "));
    }
    let n = report.failures.len();
    (n == 0).then_some(()).ok_or(format!("{n} cell(s) failed"))
}

/// Runs the experiment suite through the `strata-expt` orchestrator.
/// JSON artifacts land in `results/` unless `--no-artifacts`.
fn bench_cmd(args: &[String]) -> Result<(), String> {
    // Pin the process-wide execution tier for native cells before any
    // cell runs (the interpreter absent the flag).
    if let Some(tier) = parse_tier(args)? {
        expt::set_exec_tier(tier);
    }
    let mut suite = parse_suite(args)?;
    // `--list` prints the selected experiments (honoring `--filter`) with
    // their cell counts and runs nothing.
    if args.iter().any(|a| a == "--list") {
        let filter = suite.opts.filter.as_deref();
        expt::validate_filter(filter)?;
        let selected = expt::select(filter);
        let mut t = Table::new(
            format!("{} experiment(s) selected", selected.len()),
            &["id", "cells", "title"],
        );
        let mut total = 0usize;
        for e in &selected {
            let count = (e.cells)(suite.opts.params).len();
            total += count;
            t.row([e.id.to_string(), count.to_string(), e.title.to_string()]);
        }
        println!("{}", t.render_text());
        eprintln!("{total} cell(s) before cross-experiment dedup");
        return Ok(());
    }
    if let Some(jobs) = parse_flag(args, "--jobs") {
        suite.opts.jobs = jobs.parse().map_err(|_| format!("bad --jobs `{jobs}`"))?;
        if suite.opts.jobs == 0 {
            return Err("--jobs must be at least 1".into());
        }
    }
    let baseline_dir = parse_flag(args, "--baseline");
    if baseline_dir.is_some() && suite.opts.context.traces_dir().is_some() {
        return Err(
            "--baseline gates exact results; estimated (--sampled) runs cannot be gated \
             against it"
                .into(),
        );
    }
    let tolerance = match parse_flag(args, "--tolerance") {
        Some(t) => {
            let pct: f64 = t.parse().map_err(|_| format!("bad --tolerance `{t}`"))?;
            if !pct.is_finite() || pct < 0.0 {
                return Err(format!(
                    "--tolerance must be a nonnegative percentage, got `{t}`"
                ));
            }
            pct
        }
        None => 5.0,
    };

    let report = expt::run_suite(&suite.opts)?;
    print!("{}", report.rendered);
    if suite.write_artifacts {
        let dir = &suite.artifacts_dir;
        let written = expt::write_artifacts(&report, dir.as_ref())?;
        eprintln!("wrote {} artifact(s) under {dir}/", written.len());
    }
    let s = report.store_stats;
    eprintln!(
        "cells: {} unique ({} simulated, {} memo hits, {} disk hits) on {} job(s)",
        report.unique_cells, s.computed, s.memo_hits, s.disk_hits, suite.opts.jobs
    );
    let e = report.executions;
    eprintln!(
        "executions: {} run, {} served by a larger table, {:.2} G guest instructions",
        e.run,
        e.served,
        e.instructions as f64 / 1e9
    );
    let failed = failed_cells(&report);

    // The regression gate: diff against the committed baseline and fail
    // the process on any out-of-tolerance drift. The delta report is
    // always written (it is the gate's primary output and what CI uploads
    // on failure), independent of --no-artifacts.
    if let Some(dir) = baseline_dir {
        let delta = expt::baseline_gate(&report, dir.as_ref(), tolerance)?;
        let text = delta.render_text();
        print!("{text}");
        let artifacts_dir = &suite.artifacts_dir;
        let report_dir = std::path::Path::new(artifacts_dir);
        if let Err(e) = std::fs::create_dir_all(report_dir) {
            eprintln!("warning: create {artifacts_dir}/: {e}");
        }
        for (name, content) in [
            ("delta_report.txt", text),
            ("delta_report.json", delta.to_json().render_pretty() + "\n"),
        ] {
            let path = report_dir.join(name);
            match std::fs::write(&path, content) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: write {}: {e}", path.display()),
            }
        }
        if !delta.is_clean() {
            return Err(format!(
                "{} metric(s) regressed beyond {tolerance}% vs baseline {dir}",
                delta.regressions()
            ));
        }
    }
    failed
}

/// The traces directory the `trace` verbs work on: their context is
/// sampled by construction, there is no `--sampled` to spell out.
fn traces_dir(args: &[String]) -> Result<std::path::PathBuf, String> {
    let context = parse_context(args, true)?;
    Ok(context
        .traces_dir()
        .expect("always_sampled yields a sampled context")
        .to_path_buf())
}

/// `strata trace record <workload|all>` — records reference retire
/// traces independent of any bench run. `all` refreshes the canonical
/// per-workload traces that `bench --sampled` replays; `record` always
/// re-records (it never trusts a stale file).
fn trace_record_cmd(args: &[String]) -> Result<(), String> {
    if let Some(tier) = parse_tier(args)? {
        expt::set_exec_tier(tier);
    }
    let target = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: strata trace record <workload|all> ...")?;
    let dir = traces_dir(args)?;
    let params = parse_params(args)?;
    let names: Vec<&str> = if target == "all" {
        registry().iter().map(|s| s.name).collect()
    } else {
        vec![
            by_name(target)
                .ok_or_else(|| format!("unknown workload `{target}` (try `strata list`)"))?
                .name,
        ]
    };
    let mut t = Table::new(
        format!("recorded {} trace(s) under {}", names.len(), dir.display()),
        &[
            "workload",
            "instructions",
            "interval",
            "points",
            "coverage",
            "bytes",
        ],
    );
    for name in names {
        let (trace, points) = sampled::record_trace(&dir, name, params)?;
        let path = dir.join(sampled::trace_file_name(name, params));
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        t.row([
            name.to_string(),
            trace.records.len().to_string(),
            trace.interval.to_string(),
            points.points.len().to_string(),
            format!("{:.1}%", points.coverage() * 100.0),
            bytes.to_string(),
        ]);
    }
    println!("{}", t.render_text());
    Ok(())
}

/// `strata trace info <file.strace>` — prints a trace file's header.
fn trace_info_cmd(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("usage: strata trace info <file.strace>")?;
    let info =
        strata_lab::trace::Trace::info(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let h = &info.header;
    let profiles: Vec<&str> = h.natives.iter().map(|n| n.profile.as_str()).collect();
    let mut t = Table::new(format!("trace {path}"), &["field", "value"]);
    t.row(["workload", &h.workload]);
    t.row(["scale", &h.scale.to_string()]);
    t.row(["variant", &h.variant.to_string()]);
    t.row(["instructions", &h.instructions.to_string()]);
    t.row(["interval", &h.interval.to_string()]);
    t.row(["blocks", &info.blocks.to_string()]);
    t.row(["checksum", &format!("{:#010x}", h.checksum)]);
    t.row(["baselines", &profiles.join(", ")]);
    t.row(["file bytes", &info.file_bytes.to_string()]);
    t.row([
        "bytes/instr",
        &format!(
            "{:.3}",
            info.file_bytes as f64 / h.instructions.max(1) as f64
        ),
    ]);
    println!("{}", t.render_text());
    Ok(())
}

/// `strata trace simpoints <workload>` — elects SimPoints, reusing an
/// existing valid trace.
fn trace_simpoints_cmd(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: strata trace simpoints <workload> ...")?;
    let spec =
        by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `strata list`)"))?;
    let dir = traces_dir(args)?;
    let params = parse_params(args)?;
    let bundle = sampled::ensure_bundle(&dir, spec.name, params)?;
    let p = &bundle.points;
    let mut t = Table::new(
        format!(
            "{}: {} point(s) over {} interval(s) of {} instr ({} phase(s))",
            spec.name,
            p.points.len(),
            p.intervals,
            p.interval,
            p.k
        ),
        &["interval", "weight", "cluster"],
    );
    for pt in &p.points {
        t.row([
            pt.interval.to_string(),
            pt.weight.to_string(),
            pt.cluster.to_string(),
        ]);
    }
    println!("{}", t.render_text());
    eprintln!(
        "coverage {:.2}% of {} recorded instruction(s)",
        p.coverage() * 100.0,
        p.instructions
    );
    Ok(())
}

/// Statically verifies the code the translator emits: runs the workload
/// under each requested configuration, snapshots the fragment cache, and
/// checks it with `strata-analysis` (CFG recovery, dataflow lints, table
/// audits). Exits nonzero if any report has findings at warning severity
/// or above. `--all` sweeps every registered mechanism plus the
/// mixed-policy configurations of the fig. 18 experiment.
///
/// `--validate-tiers` additionally runs the workload(s) natively under
/// both execution tiers and checks every superblock the threaded tier
/// translated by symbolic per-slot equivalence (translation validation;
/// see `strata-analysis::validate`). With `--all` the tier sweep covers
/// every registered workload, since tier validation is independent of
/// the SDT mechanism configuration.
fn verify_cmd(args: &[String]) -> Result<(), String> {
    use strata_lab::analysis;
    use strata_lab::stats::Json;

    // The workload is optional (default `perlbmk`); everything else is
    // flag-driven, so only a non-flag first argument names a workload.
    let name = match args.first() {
        Some(a) if !a.starts_with("--") => a.clone(),
        _ => "perlbmk".to_string(),
    };
    let workload =
        by_name(&name).ok_or_else(|| format!("unknown workload `{name}` (try `strata list`)"))?;
    let profile = parse_arch(args)?;
    // `check_flags` refuses `--variant` here, so this is `--scale` alone.
    let params = parse_params(args)?;
    let json = match parse_flag(args, "--format").as_deref() {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(format!("unknown --format `{other}` (text|json)")),
    };

    // (config spec, policy spec) pairs to verify. `--all` is its own
    // sweep: a spec beside it would be ignored, so it is refused.
    let all = args.iter().any(|a| a == "--all");
    if all && args.iter().any(|a| a == "--config" || a == "--ib-policy") {
        return Err(
            "--all verifies its own sweep; it takes neither --config nor --ib-policy".into(),
        );
    }
    let specs: Vec<(String, String)> = if all {
        VERIFY_SWEEP
            .iter()
            .map(|&(c, p)| (c.to_string(), p.to_string()))
            .collect()
    } else {
        vec![(
            parse_flag(args, "--config").unwrap_or_else(|| "ibtc:4096".into()),
            parse_flag(args, "--ib-policy").unwrap_or_default(),
        )]
    };

    let program = (workload.build)(&params);
    let mut reports = Vec::new();
    for (config, policy) in &specs {
        let mut cfg = parse_config(config)?;
        if !policy.is_empty() {
            parse_policy(policy, &mut cfg)?;
        }
        let mut sdt = Sdt::new(cfg, &program).map_err(|e| e.to_string())?;
        sdt.run(profile.clone(), FUEL).map_err(|e| e.to_string())?;
        reports.push(analysis::verify(&sdt));
    }

    // --validate-tiers: translation validation of the execution tiers,
    // on the superblocks a real native run of each workload promotes.
    let mut tier_entries: Vec<(&'static str, &'static str, analysis::TierReport)> = Vec::new();
    if args.iter().any(|a| a == "--validate-tiers") {
        let sweep: Vec<&'static str> = if all {
            registry().iter().map(|w| w.name).collect()
        } else {
            vec![workload.name]
        };
        // A low promotion threshold maximizes translated coverage; the
        // interpreter row proves the no-tier path exports no blocks.
        let tiers = [
            ("interp", ExecTier::Interp),
            (
                "threaded:4",
                ExecTier::Threaded(TierConfig {
                    threshold: 4,
                    ..TierConfig::default()
                }),
            ),
        ];
        for wl in sweep {
            let spec = by_name(wl).expect("registry name resolves");
            let prog = (spec.build)(&params);
            for (label, tier) in tiers {
                let report = analysis::validate_program_tier(&prog, tier, FUEL)
                    .map_err(|e| format!("{wl} [{label}]: {e}"))?;
                tier_entries.push((wl, label, report));
            }
        }
    }

    let dirty = reports.iter().filter(|r| !r.is_clean()).count();
    let tier_dirty = tier_entries
        .iter()
        .filter(|(_, _, r)| !r.is_clean())
        .count();
    if json {
        let out = Json::obj([
            ("workload", Json::str(&name)),
            ("clean", Json::Bool(dirty == 0 && tier_dirty == 0)),
            ("reports", Json::arr(reports.iter().map(|r| r.to_json()))),
            (
                "tier_validation",
                Json::arr(tier_entries.iter().map(|(wl, label, r)| {
                    Json::obj([
                        ("workload", Json::str(*wl)),
                        ("tier", Json::str(*label)),
                        ("report", r.to_json()),
                    ])
                })),
            ),
        ]);
        println!("{}", out.render_pretty());
    } else {
        for r in &reports {
            print!("{}", r.render_text());
        }
        for (wl, label, r) in &tier_entries {
            print!("{wl} [{label}] {}", r.render_text());
        }
    }
    if dirty + tier_dirty > 0 {
        return Err(format!(
            "{dirty} of {} configuration(s) and {tier_dirty} of {} tier run(s) failed verification on {name}",
            specs.len(),
            tier_entries.len(),
        ));
    }
    if tier_entries.is_empty() {
        eprintln!("{} configuration(s) verified clean on {name}", specs.len());
    } else {
        eprintln!(
            "{} configuration(s) and {} tier run(s) verified clean",
            specs.len(),
            tier_entries.len(),
        );
    }
    Ok(())
}

fn compare_cmd(args: &[String]) -> Result<(), String> {
    let common = parse_common(args)?;
    // Both sides are priced under `--predictor` (legacy by default).
    let context = parse_context(args, false)?;
    let model = || context.model(common.profile.clone());
    let tier = parse_tier(args)?.unwrap_or(ExecTier::Interp);
    let program = (common.workload.build)(&common.params);
    let native = run_native_with_model(&program, model(), FUEL, tier).map_err(|e| e.to_string())?;

    let mut fast = SdtConfig::ibtc_inline(4096);
    fast.ret = RetMechanism::FastReturn;
    let configs = [
        SdtConfig::reentry(),
        SdtConfig::ibtc_out_of_line(4096),
        SdtConfig::ibtc_inline(4096),
        SdtConfig::sieve(4096),
        SdtConfig::tuned(4096, 1024),
        fast,
    ];
    let mut t = Table::new(
        format!(
            "{} on {}: all mechanisms",
            program.name, common.profile.name
        ),
        &["configuration", "slowdown", "IB hit rate"],
    );
    for cfg in configs {
        let report = Sdt::new(cfg, &program)
            .and_then(|mut s| s.run(model(), FUEL))
            .map_err(|e| e.to_string())?;
        t.row([
            report.config.clone(),
            format!("{:.3}x", report.slowdown(native.total_cycles)),
            format!("{:.2}%", report.mech.ib_hit_rate() * 100.0),
        ]);
    }
    println!("{}", t.render_text());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_lab::cli::parse_predictor;

    /// The words of `text` that are concrete specs, not placeholders
    /// (`ibtc:N[x2]`, `ittage[:T]`) or prose: no capitals, no brackets.
    fn concrete(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| c.is_whitespace() || c == '|' || c == ';')
            .map(|w| w.trim_matches(|c| c == '(' || c == ')' || c == ','))
            .filter(|w| !w.is_empty() && !w.contains(|c: char| c.is_ascii_uppercase() || c == '['))
    }

    #[test]
    fn every_concrete_spec_in_the_usage_text_parses() {
        let config = SPECS.strip_prefix("config SPECs:").expect("config section");
        let (config, policy) = config.split_once("policy SPECs:").expect("policy section");
        let (policy, predictor) = policy.split_once("predictor SPECs:").expect("predictor");
        // Modifiers (`+noflags`) are listed bare, to append to a head.
        let configs: Vec<String> = concrete(config)
            .map(|s| {
                if s.starts_with('+') {
                    format!("reentry{s}")
                } else {
                    s.to_string()
                }
            })
            .collect();
        let (example, strategies) = policy.trim_start().split_once('\n').expect("example");
        let (jump, ret) = strategies.split_once("ret:").expect("ret strategies");
        let jump = jump
            .split_once("strategies")
            .expect("jump/call strategies")
            .1;
        let policies: Vec<String> = std::iter::once(example.to_string())
            .chain(concrete(jump).map(|s| format!("jump={s}")))
            .chain(concrete(ret).map(|s| format!("ret={s}")))
            .collect();
        let predictors: Vec<&str> = concrete(predictor).collect();
        // 8 heads and 2 modifiers; the example, `inherit`, `reentry`,
        // `asib` and `fastret`; `legacy`, `none` and `ideal`.
        assert_eq!(
            (configs.len(), policies.len(), predictors.len()),
            (10, 5, 3)
        );
        for spec in &configs {
            parse_config(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
        for spec in &policies {
            let mut cfg = SdtConfig::reentry();
            parse_policy(spec, &mut cfg).unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
        for spec in predictors {
            parse_predictor(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
    }
}
