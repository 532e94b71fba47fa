//! The per-layer probes: the only file that calls into the crates under
//! test. Every call is made from outside, through a crate's public
//! functions, inside a span; the per-layer metrics are aggregated from
//! those spans. A refactor that renames something here breaks the
//! benchmark's build, and fixing it is a `benchmark` change of its own —
//! README.md lists every function called.

use std::path::Path;
use std::time::Instant;

use strata_analysis as analysis;
use strata_arch::{ArchModel, ArchProfile, Btb, Ittage, TargetPredictor};
use strata_core::{run_native, DispatchReplay, RunReport, Sdt, SdtConfig};
use strata_expt as expt;
use strata_expt::{CellKey, Store, SuiteOptions};
use strata_fleet::Frame;
use strata_isa::{decode, encode, ControlKind, Instr};
use strata_machine::syscall::SyscallState;
use strata_machine::{
    layout, ExecTier, ExecutionObserver, Machine, NullObserver, Program, RetireEvent, StepOutcome,
    TierConfig,
};
use strata_stats::baseline::Snapshot;
use strata_trace::Trace;
use strata_workloads::{registry, Params};

use crate::spans::{aggregate, Aggregate, Recorder};

/// Far above any probe cell (scale 1 ≈ 1–2 M instructions).
const FUEL: u64 = 1_000_000_000;

/// Fragment-cache limit of the `smallcache` probe cells, as fig14's
/// tightest points: gcc and perlbmk flush and retranslate continuously.
const SMALL_CACHE_BYTES: u32 = 8 * 1024;
const SMALL_CACHE_WORKLOADS: [&str; 2] = ["gcc", "perlbmk"];

/// The trace, replay and sampled probes use fig21's IB-diverse trio.
const TRACE_WORKLOADS: [&str; 3] = ["gzip", "perlbmk", "parser"];

/// Passes over the grid; each runs every cell traced and untraced.
const GRID_PASSES: usize = 3;

/// What the traced run hands back.
pub struct Probe {
    /// `(metric name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
}

fn tuned() -> SdtConfig {
    SdtConfig::tuned(4096, 1024)
}

fn small_cache() -> SdtConfig {
    let mut cfg = SdtConfig::ibtc_inline(1024);
    cfg.cache_limit = Some(SMALL_CACHE_BYTES);
    cfg
}

fn threaded() -> ExecTier {
    ExecTier::Threaded(TierConfig::default())
}

fn loaded_machine(program: &Program) -> Machine {
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    program
        .load(&mut machine)
        .expect("workload programs fit guest memory");
    machine
}

/// Runs a loaded machine to `halt` through `Machine::run`, servicing the
/// workload's syscalls; returns the checksum.
fn run_to_halt<O: ExecutionObserver>(machine: &mut Machine, observer: &mut O) -> u32 {
    let mut syscalls = SyscallState::new();
    loop {
        match machine
            .run(observer, FUEL)
            .expect("probe cell runs to halt")
        {
            StepOutcome::Halted => return syscalls.checksum(),
            StepOutcome::Trap(code) => {
                assert!(syscalls.handle(code, machine), "unexpected trap {code:#x}");
            }
            StepOutcome::Running => unreachable!("run returns on halt or trap"),
        }
    }
}

/// The same through a `Machine::step` loop — the shape `Sdt::run` drives.
fn step_to_halt(machine: &mut Machine) -> u32 {
    let mut syscalls = SyscallState::new();
    loop {
        match machine
            .step(&mut NullObserver)
            .expect("probe cell steps to halt")
        {
            StepOutcome::Running => {}
            StepOutcome::Halted => return syscalls.checksum(),
            StepOutcome::Trap(code) => {
                assert!(syscalls.handle(code, machine), "unexpected trap {code:#x}");
            }
        }
    }
}

/// Keeps every retired event, for costing outside the dispatch loop.
struct Capture(Vec<RetireEvent>);

impl ExecutionObserver for Capture {
    #[inline]
    fn on_retire(&mut self, event: &RetireEvent) {
        self.0.push(*event);
    }
}

fn sdt_counts(report: &RunReport) -> Vec<(&'static str, f64)> {
    let m = &report.mech;
    vec![
        ("instrs", report.instructions as f64),
        ("translator_entries", m.translator_entries as f64),
        ("fragments", m.fragments as f64),
        ("exit_links", m.exit_links as f64),
        ("cache_flushes", m.cache_flushes as f64),
        ("ib_dispatches", m.ib_dispatches as f64),
        ("ib_misses", m.ib_misses.min(m.ib_dispatches) as f64),
        ("ret_dispatches", m.ret_dispatches as f64),
        ("rc_misses", m.rc_misses.min(m.ret_dispatches) as f64),
    ]
}

/// One translated probe cell, `<workload>/<config>`: construct, run,
/// statically verify.
fn sdt_cell(
    rec: &mut Recorder,
    program: &Program,
    cfg: SdtConfig,
    config: &str,
    run: &'static str,
    native_checksum: u32,
) {
    rec.set_cell(format!("{}/{config}", program.name));
    rec.enter("harness", "cell");
    let mut sdt = rec.call(
        "core",
        "Sdt::new",
        || Sdt::new(cfg, program).expect("probe config is valid"),
        |_| vec![],
    );
    let report = rec.call(
        "core",
        run,
        || {
            sdt.run(ArchProfile::x86_like(), FUEL)
                .expect("translated cell runs to halt")
        },
        sdt_counts,
    );
    assert_eq!(
        report.checksum, native_checksum,
        "{}: translated run diverged",
        program.name
    );
    rec.call(
        "analysis",
        "verify",
        || analysis::verify(&sdt),
        |r| {
            let findings = r
                .diagnostics
                .iter()
                .filter(|d| d.severity() >= analysis::Severity::Warning)
                .count();
            vec![("findings", findings as f64), ("images", 1.0)]
        },
    );
    rec.exit(&[]);
}

/// One workload's share of the probe grid: natively on both tiers and by
/// single steps, costed, and translated under `tuned` and `reentry`, plus
/// the small-cache cell where it has one. `indirects`, when given,
/// collects the (pc, target) stream the predictor probes replay.
fn workload_cells(rec: &mut Recorder, program: &Program, indirects: Option<&mut Vec<(u32, u32)>>) {
    let x86 = ArchProfile::x86_like();
    let name = &program.name;
    rec.set_cell("grid");
    rec.enter("harness", "grid");

    rec.set_cell(format!("{name}/native"));
    rec.enter("harness", "cell");
    let native = rec.call(
        "core",
        "run_native",
        || run_native(program, x86.clone(), FUEL).expect("native cell runs to halt"),
        |n| vec![("instrs", n.instructions as f64)],
    );
    let instrs = native.instructions as f64;

    let mut m = rec.call(
        "machine",
        "Machine::new+Program::load",
        || loaded_machine(program),
        |_| vec![],
    );
    let sum = rec.call(
        "machine",
        "Machine::run[interp]",
        || run_to_halt(&mut m, &mut NullObserver),
        |_| vec![("instrs", instrs)],
    );
    assert_eq!(sum, native.checksum, "{name}: interpreter diverged");

    let mut m = rec.call(
        "machine",
        "Machine::new+Program::load",
        || loaded_machine(program),
        |_| vec![],
    );
    m.set_tier(threaded());
    let sum = rec.call(
        "machine",
        "Machine::run[threaded]",
        || run_to_halt(&mut m, &mut NullObserver),
        |_| vec![("instrs", instrs)],
    );
    assert_eq!(sum, native.checksum, "{name}: threaded tier diverged");
    let tier = m.tier_stats().expect("tier was set");
    rec.call(
        "analysis",
        "validate_machine_tier",
        || analysis::validate_machine_tier(&m),
        |r| {
            let findings = r
                .diagnostics
                .iter()
                .filter(|d| d.severity() >= analysis::Severity::Warning)
                .count();
            vec![
                ("blocks_validated", r.blocks as f64),
                ("findings", findings as f64),
                ("tier_blocks", tier.blocks_translated as f64),
                ("translated_retired", tier.translated_retired as f64),
                ("tier_flushes", tier.flushes as f64),
                ("instrs", instrs),
            ]
        },
    );

    let mut m = rec.call(
        "machine",
        "Machine::new+Program::load",
        || loaded_machine(program),
        |_| vec![],
    );
    let sum = rec.call(
        "machine",
        "Machine::step",
        || step_to_halt(&mut m),
        |_| vec![("instrs", instrs)],
    );
    assert_eq!(sum, native.checksum, "{name}: step loop diverged");

    let mut m = rec.call(
        "machine",
        "Machine::new+Program::load",
        || loaded_machine(program),
        |_| vec![],
    );
    let events = rec.call(
        "machine",
        "Machine::run[capture]",
        || {
            let mut capture = Capture(Vec::with_capacity(native.instructions as usize));
            run_to_halt(&mut m, &mut capture);
            capture.0
        },
        |_| vec![],
    );
    rec.call(
        "arch",
        "ArchModel::cost_of",
        || {
            let mut model = ArchModel::new(x86.clone());
            for ev in &events {
                model.cost_of(ev);
            }
            model
        },
        |model| {
            assert_eq!(
                model.total_cycles(),
                native.total_cycles,
                "{name}: costing diverged"
            );
            let (ic, dc) = (model.icache(), model.dcache());
            vec![
                ("events", events.len() as f64),
                ("icache_accesses", (ic.hits() + ic.misses()) as f64),
                ("icache_misses", ic.misses() as f64),
                ("dcache_accesses", (dc.hits() + dc.misses()) as f64),
                ("dcache_misses", dc.misses() as f64),
                ("cond_branches", native.cond_branches as f64),
                ("cond_mispredicts", model.cond_mispredicts() as f64),
                (
                    "indirect_transfers",
                    model.stats().indirect_transfers as f64,
                ),
                ("indirect_mispredicts", model.indirect_mispredicts() as f64),
            ]
        },
    );
    if let Some(indirects) = indirects {
        indirects.extend(
            events
                .iter()
                .filter(|e| e.control.indirect && e.control.kind != ControlKind::Return)
                .map(|e| (e.pc, e.control.target)),
        );
    }
    drop(events);
    rec.exit(&[]);

    sdt_cell(
        rec,
        program,
        tuned(),
        "tuned",
        "Sdt::run[tuned]",
        native.checksum,
    );
    sdt_cell(
        rec,
        program,
        SdtConfig::reentry(),
        "reentry",
        "Sdt::run[reentry]",
        native.checksum,
    );
    if SMALL_CACHE_WORKLOADS.contains(&name.as_str()) {
        sdt_cell(
            rec,
            program,
            small_cache(),
            "smallcache",
            "Sdt::run[smallcache]",
            native.checksum,
        );
    }
    rec.exit(&[]);
}

/// One pass over the probe grid, each workload's cells run twice back to
/// back, with span recording off and on (in the order `traced_first`
/// gives). Returns each pair's traced ÷ untraced time: only runs a
/// fraction of a second apart share a host speed, so only they can show a
/// cost as small as recording.
fn grid_pass(
    rec: &mut Recorder,
    programs: &[Program],
    indirects: &mut Vec<(u32, u32)>,
    traced_first: bool,
) -> Vec<f64> {
    let mut ratios = Vec::with_capacity(programs.len());
    for program in programs {
        let mut seconds = [0.0; 2];
        for traced in [traced_first, !traced_first] {
            rec.set_enabled(traced);
            let started = Instant::now();
            workload_cells(rec, program, traced.then_some(&mut *indirects));
            seconds[traced as usize] = started.elapsed().as_secs_f64();
        }
        ratios.push(seconds[1] / seconds[0]);
    }
    rec.set_enabled(true);
    ratios
}

/// The cells of the probe grid as the orchestrator names them.
fn grid_cells(params: Params) -> Vec<CellKey> {
    let x86 = ArchProfile::x86_like();
    let mut cells = Vec::new();
    for spec in registry() {
        cells.push(CellKey::native(spec.name, x86.clone(), params));
        cells.push(CellKey::translated(spec.name, tuned(), x86.clone(), params));
        cells.push(CellKey::translated(
            spec.name,
            SdtConfig::reentry(),
            x86.clone(),
            params,
        ));
        if SMALL_CACHE_WORKLOADS.contains(&spec.name) {
            cells.push(CellKey::translated(
                spec.name,
                small_cache(),
                x86.clone(),
                params,
            ));
        }
    }
    cells
}

/// Repeats `f` until about 20 ms have passed and returns the repetitions,
/// so a span around a microsecond-scale call is long enough to time.
fn repeat(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || start.elapsed().as_millis() < 20 {
        f();
        reps += 1;
    }
    reps as f64
}

/// Probes outside the grid: codecs, predictors, the trace substrate, the
/// orchestrator's store and render paths, and the fleet wire format.
/// Runs with the working directory inside `work`, because fig21's render
/// records into `results/traces` relative to it.
fn pipeline_probes(
    rec: &mut Recorder,
    programs: &[Program],
    indirects: &[(u32, u32)],
    params: Params,
    work: &Path,
) {
    let x86 = ArchProfile::x86_like();
    rec.set_cell("pipeline");
    rec.enter("harness", "pipeline");

    rec.set_cell("pipeline/isa");
    let words: Vec<u32> = programs
        .iter()
        .flat_map(|p| p.code.iter().copied())
        .collect();
    let instrs: Vec<Instr> = rec.call(
        "isa",
        "decode",
        || words.iter().filter_map(|&w| decode(w).ok()).collect(),
        |_| vec![("words", words.len() as f64)],
    );
    rec.call(
        "isa",
        "encode",
        || instrs.iter().map(encode).fold(0u32, |a, w| a ^ w),
        |_| vec![("words", instrs.len() as f64)],
    );

    rec.set_cell("pipeline/predictors");
    rec.call(
        "arch",
        "Btb::predict_and_update",
        || {
            let mut btb = Btb::new(512);
            indirects
                .iter()
                .filter(|&&(pc, target)| btb.predict_and_update(pc, target))
                .count()
        },
        |_| vec![("updates", indirects.len() as f64)],
    );
    rec.call(
        "arch",
        "Ittage::predict_and_update",
        || {
            let mut ittage = Ittage::new(4);
            indirects
                .iter()
                .filter(|&&(pc, target)| ittage.predict_and_update(pc, target))
                .count()
        },
        |_| vec![("updates", indirects.len() as f64)],
    );

    // Relative, as fig21's render names it, so both share one bundle.
    let traces_dir = Path::new(expt::DEFAULT_TRACES_DIR);
    for program in programs
        .iter()
        .filter(|p| TRACE_WORKLOADS.contains(&p.name.as_str()))
    {
        let name = program.name.as_str();
        rec.set_cell(format!("pipeline/trace/{name}"));
        let recorded = rec.call(
            "trace",
            "record",
            || {
                strata_trace::record(program, FUEL, ExecTier::Interp)
                    .expect("recording runs to halt")
            },
            |r| vec![("instrs", r.log.records().len() as f64)],
        );
        let interval = expt::sampled::pick_interval(recorded.log.records().len() as u64);
        let trace = recorded.into_trace(name, params.scale, params.variant, interval);
        let records = trace.records.len() as f64;
        let bytes = rec.call(
            "trace",
            "Trace::to_bytes",
            || trace.to_bytes(),
            |b| vec![("records", records), ("bytes", b.len() as f64)],
        );
        let decoded = rec.call(
            "trace",
            "Trace::from_bytes",
            || Trace::from_bytes(&bytes).expect("a fresh encoding decodes"),
            |_| vec![("records", records)],
        );
        assert_eq!(decoded.records.len(), trace.records.len());
        let path = work.join(format!("{name}.probe.strace"));
        std::fs::write(&path, &bytes).expect("write inside the work directory");
        rec.call(
            "trace",
            "Trace::read",
            || Trace::read(&path).expect("a fresh file reads"),
            |_| vec![("bytes", bytes.len() as f64)],
        );
        rec.call(
            "trace",
            "simpoints::select",
            || strata_trace::select(&trace),
            |_| vec![("traces", 1.0)],
        );

        rec.call(
            "core",
            "DispatchReplay::step",
            || {
                let mut replay = DispatchReplay::new(tuned(), program, x86.clone())
                    .expect("probe config is valid");
                replay.seek(program.entry).expect("entry translates");
                for ev in &trace.records {
                    replay.step(ev).expect("a recording replays without desync");
                }
                replay.stats().ib_dispatches
            },
            |_| vec![("events", records)],
        );

        rec.call(
            "expt",
            "sampled::ensure_bundle",
            || expt::sampled::ensure_bundle(traces_dir, name, params).expect("bundle records"),
            |_| vec![],
        );
        rec.call(
            "expt",
            "sampled::estimate_cell",
            || {
                expt::sampled::estimate_cell(traces_dir, name, params, tuned(), x86.clone())
                    .expect("cell estimates")
            },
            |c| {
                vec![
                    ("cells", 1.0),
                    ("trace_records", c.trace_records as f64),
                    ("replayed_records", c.replayed_records as f64),
                ]
            },
        );
    }

    rec.set_cell("pipeline/execute");
    let cells = grid_cells(params);
    let store = Store::in_memory();
    rec.call(
        "expt",
        "execute",
        || expt::execute(&store, &cells, 1),
        |_| {
            let s = store.stats();
            vec![
                ("cells", store.len() as f64),
                ("computed", s.computed as f64),
                ("memo_hits", s.memo_hits as f64),
            ]
        },
    );

    rec.set_cell("pipeline/records");
    let snapshot = store.snapshot();
    let mut records = Vec::new();
    rec.call(
        "expt",
        "render_record",
        || {
            repeat(|| {
                records = snapshot
                    .iter()
                    .map(|(k, r)| expt::render_record(k, r))
                    .collect()
            })
        },
        |reps| vec![("records", reps * snapshot.len() as f64)],
    );
    rec.call(
        "expt",
        "parse_record",
        || {
            repeat(|| {
                for ((key, _), text) in snapshot.iter().zip(&records) {
                    expt::parse_record(text, key).expect("a fresh record parses");
                }
            })
        },
        |reps| vec![("records", reps * snapshot.len() as f64)],
    );

    rec.set_cell("pipeline/fleet");
    let frames: Vec<Frame> = snapshot
        .iter()
        .zip(&records)
        .enumerate()
        .map(|(i, ((key, _), record))| Frame::Result {
            index: i as u32,
            key: key.clone(),
            record: record.clone(),
        })
        .collect();
    let mut wire = Vec::new();
    rec.call(
        "fleet",
        "Frame::encode",
        || repeat(|| wire = frames.iter().map(Frame::encode).collect::<Vec<_>>()),
        |reps| vec![("frames", reps * frames.len() as f64)],
    );
    rec.call(
        "fleet",
        "Frame::decode",
        || {
            repeat(|| {
                for buf in &wire {
                    Frame::decode(buf).expect("a fresh frame decodes");
                }
            })
        },
        |reps| vec![("frames", reps * wire.len() as f64)],
    );

    rec.set_cell("pipeline/disk-store");
    let cache_dir = work.join("cache");
    rec.call(
        "expt",
        "execute[fill disk cache]",
        || expt::execute(&Store::with_disk_cache(cache_dir.clone()), &cells, 1),
        |_| vec![],
    );
    rec.call(
        "expt",
        "execute[from disk cache]",
        || {
            let disk = Store::with_disk_cache(cache_dir.clone());
            expt::execute(&disk, &cells, 1);
            disk.stats()
        },
        |s| {
            assert_eq!(s.computed, 0, "every cell loads from the disk cache");
            vec![("disk_hits", s.disk_hits as f64)]
        },
    );

    // fig20/21/22 simulate inside their render functions (tier re-runs
    // and validation, trace replays, predictor sweeps), which is where a
    // suite's render time goes.
    rec.set_cell("pipeline/render");
    let filter = "fig20,fig21,fig22";
    let opts = SuiteOptions {
        jobs: 1,
        filter: Some(filter.into()),
        params,
        ..SuiteOptions::default()
    };
    let render_store = Store::in_memory();
    let render_cells =
        expt::work_manifest(Some(filter), params).expect("the filter names experiments");
    rec.call(
        "expt",
        "execute[render cells]",
        || expt::execute(&render_store, &render_cells, 1),
        |_| vec![],
    );
    let report = rec.call(
        "expt",
        "render_from_store",
        || expt::render_from_store(&render_store, &opts).expect("the filter names experiments"),
        |r| {
            let (pass, err) =
                crate::workloads::parse_fidelity(&r.rendered).expect("fig21 prints its verdict");
            assert!(
                pass,
                "fig21 verdict is FIDELITY FAIL at variant {}",
                params.variant
            );
            vec![("renders", 1.0), ("fidelity_err_pct", err)]
        },
    );

    rec.set_cell("pipeline/stats");
    let (_, cells_json) = report
        .artifacts
        .iter()
        .find(|(file, _)| file == "cells.json")
        .expect("every report carries cells.json");
    rec.call(
        "stats",
        "Json::parse",
        || {
            repeat(|| {
                strata_stats::Json::parse(cells_json).expect("an artifact parses");
            })
        },
        |reps| vec![("bytes", reps * cells_json.len() as f64)],
    );
    let baseline_dir = work.join("baseline");
    expt::write_artifacts(&report, &baseline_dir).expect("write inside the work directory");
    rec.call(
        "stats",
        "baseline::diff",
        || {
            let baseline =
                Snapshot::load_dir(&baseline_dir).expect("the artifacts just written load");
            let fresh = Snapshot::from_documents(
                report
                    .artifacts
                    .iter()
                    .map(|(n, t)| (n.as_str(), t.as_str())),
            )
            .expect("artifacts parse");
            strata_stats::diff(&baseline, &fresh, 0.0)
        },
        |delta| {
            assert!(delta.is_clean(), "a report differs from its own artifacts");
            vec![("gates", 1.0)]
        },
    );
    rec.exit(&[]);
}

/// Builds the per-layer metric list from the aggregated spans.
fn layer_metrics(
    agg: &std::collections::BTreeMap<(&'static str, &'static str), Aggregate>,
) -> Vec<(&'static str, f64)> {
    let get = |layer: &'static str, name: &'static str| -> &Aggregate {
        agg.get(&(layer, name))
            .unwrap_or_else(|| panic!("no span {layer}/{name}"))
    };
    let ns = |layer, name| get(layer, name).total_ns as f64;
    let cnt = |layer, name, count: &str| get(layer, name).counts.get(count).copied().unwrap_or(0.0);
    let per = |layer, name, count: &str| ns(layer, name) / cnt(layer, name, count);
    let per_call = |layer, name| ns(layer, name) / get(layer, name).calls as f64;
    let share = |layer, name, num: &str, den: &str| cnt(layer, name, num) / cnt(layer, name, den);
    let hit_rate = |name, miss: &str, total: &str| {
        let total = cnt("core", name, total);
        if total == 0.0 {
            1.0
        } else {
            1.0 - cnt("core", name, miss) / total
        }
    };

    // Counts are summed over every traced grid pass; report one pass's.
    let passes = GRID_PASSES as f64;
    let cnt_pass = |layer, name, count: &str| cnt(layer, name, count) / passes;

    let cost = "ArchModel::cost_of";
    let tier = "validate_machine_tier";
    let steady_ns = per("core", "Sdt::run[tuned]", "instrs");
    // Host time beyond steady linked-fragment execution, per event that
    // caused it.
    let excess_us = |name, per_count: &str| {
        (ns("core", name) - cnt("core", name, "instrs") * steady_ns)
            / cnt("core", name, per_count)
            / 1e3
    };

    let mut out = vec![
        ("isa.decode_ns_per_word", per("isa", "decode", "words")),
        ("isa.encode_ns_per_word", per("isa", "encode", "words")),
        ("workloads.build_ms", ns("workloads", "Spec::build") / 1e6),
        (
            "workloads.code_words",
            cnt("workloads", "Spec::build", "code_words"),
        ),
        (
            "machine.construct_us",
            per_call("machine", "Machine::new+Program::load") / 1e3,
        ),
        (
            "machine.run_interp_ns_per_instr",
            per("machine", "Machine::run[interp]", "instrs"),
        ),
        (
            "machine.run_threaded_ns_per_instr",
            per("machine", "Machine::run[threaded]", "instrs"),
        ),
        (
            "machine.step_ns_per_instr",
            per("machine", "Machine::step", "instrs"),
        ),
        (
            "machine.tier_blocks",
            cnt_pass("analysis", tier, "tier_blocks"),
        ),
        (
            "machine.tier_coverage",
            share("analysis", tier, "translated_retired", "instrs"),
        ),
        (
            "machine.tier_flushes",
            cnt_pass("analysis", tier, "tier_flushes"),
        ),
        ("arch.cost_ns_per_event", per("arch", cost, "events")),
        (
            "arch.icache_miss_rate",
            share("arch", cost, "icache_misses", "icache_accesses"),
        ),
        (
            "arch.dcache_miss_rate",
            share("arch", cost, "dcache_misses", "dcache_accesses"),
        ),
        (
            "arch.cond_mispredict_rate",
            share("arch", cost, "cond_mispredicts", "cond_branches"),
        ),
        (
            "arch.indirect_mispredict_rate",
            share("arch", cost, "indirect_mispredicts", "indirect_transfers"),
        ),
        (
            "arch.btb_ns_per_update",
            per("arch", "Btb::predict_and_update", "updates"),
        ),
        (
            "arch.ittage_ns_per_update",
            per("arch", "Ittage::predict_and_update", "updates"),
        ),
        ("core.sdt_new_ms", per_call("core", "Sdt::new") / 1e6),
        ("core.sdt_run_ns_per_instr", steady_ns),
        (
            "core.sdt_vs_native_ratio",
            steady_ns / per("core", "run_native", "instrs"),
        ),
        (
            "core.trap_us_per_entry",
            excess_us("Sdt::run[reentry]", "translator_entries"),
        ),
        (
            "core.translate_us_per_fragment",
            excess_us("Sdt::run[smallcache]", "fragments"),
        ),
    ];
    for (count, names) in [
        (
            "translator_entries",
            [
                "core.translator_entries.tuned",
                "core.translator_entries.reentry",
                "core.translator_entries.smallcache",
            ],
        ),
        (
            "fragments",
            [
                "core.fragments.tuned",
                "core.fragments.reentry",
                "core.fragments.smallcache",
            ],
        ),
        (
            "exit_links",
            [
                "core.exit_links.tuned",
                "core.exit_links.reentry",
                "core.exit_links.smallcache",
            ],
        ),
        (
            "cache_flushes",
            [
                "core.cache_flushes.tuned",
                "core.cache_flushes.reentry",
                "core.cache_flushes.smallcache",
            ],
        ),
    ] {
        for (metric, run) in names.into_iter().zip([
            "Sdt::run[tuned]",
            "Sdt::run[reentry]",
            "Sdt::run[smallcache]",
        ]) {
            out.push((metric, cnt_pass("core", run, count)));
        }
    }
    for (metric, run) in [
        ("core.ib_hit_rate.tuned", "Sdt::run[tuned]"),
        ("core.ib_hit_rate.reentry", "Sdt::run[reentry]"),
        ("core.ib_hit_rate.smallcache", "Sdt::run[smallcache]"),
    ] {
        out.push((metric, hit_rate(run, "ib_misses", "ib_dispatches")));
    }
    for (metric, run) in [
        ("core.ret_hit_rate.tuned", "Sdt::run[tuned]"),
        ("core.ret_hit_rate.reentry", "Sdt::run[reentry]"),
        ("core.ret_hit_rate.smallcache", "Sdt::run[smallcache]"),
    ] {
        out.push((metric, hit_rate(run, "rc_misses", "ret_dispatches")));
    }
    let mb = |layer, name| cnt(layer, name, "bytes") / 1e6;
    out.extend([
        (
            "core.replay_ns_per_event",
            per("core", "DispatchReplay::step", "events"),
        ),
        (
            "trace.record_ns_per_instr",
            per("trace", "record", "instrs"),
        ),
        (
            "trace.encode_ns_per_record",
            per("trace", "Trace::to_bytes", "records"),
        ),
        (
            "trace.decode_ns_per_record",
            per("trace", "Trace::from_bytes", "records"),
        ),
        (
            "trace.read_ms_per_mb",
            ns("trace", "Trace::read") / 1e6 / mb("trace", "Trace::read"),
        ),
        (
            "trace.bytes_per_instr",
            share("trace", "Trace::to_bytes", "bytes", "records"),
        ),
        (
            "trace.simpoints_ms",
            per_call("trace", "simpoints::select") / 1e6,
        ),
        (
            "expt.cells_per_s",
            cnt("expt", "execute", "cells") / (ns("expt", "execute") / 1e9),
        ),
        (
            "expt.memo_hit_share",
            cnt("expt", "execute", "memo_hits")
                / (cnt("expt", "execute", "memo_hits") + cnt("expt", "execute", "computed")),
        ),
        (
            "expt.record_render_us",
            per("expt", "render_record", "records") / 1e3,
        ),
        (
            "expt.record_parse_us",
            per("expt", "parse_record", "records") / 1e3,
        ),
        (
            "expt.store_load_ms",
            per_call("expt", "execute[from disk cache]") / 1e6,
        ),
        (
            "expt.render_ms",
            per("expt", "render_from_store", "renders") / 1e6,
        ),
        (
            "expt.sampled_cell_ms",
            per("expt", "sampled::estimate_cell", "cells") / 1e6,
        ),
        (
            "expt.work_fraction",
            share(
                "expt",
                "sampled::estimate_cell",
                "replayed_records",
                "trace_records",
            ),
        ),
        (
            "expt.fidelity_err_pct",
            share("expt", "render_from_store", "fidelity_err_pct", "renders"),
        ),
        (
            "stats.json_parse_mb_per_s",
            mb("stats", "Json::parse") / (ns("stats", "Json::parse") / 1e9),
        ),
        (
            "stats.baseline_gate_ms",
            per_call("stats", "baseline::diff") / 1e6,
        ),
        (
            "analysis.verify_ms",
            per("analysis", "verify", "images") / 1e6,
        ),
        (
            "analysis.validate_tier_ms",
            per_call("analysis", tier) / 1e6,
        ),
        (
            "analysis.findings",
            cnt("analysis", "verify", "findings") + cnt("analysis", tier, "findings"),
        ),
        (
            "analysis.blocks_validated",
            cnt_pass("analysis", tier, "blocks_validated"),
        ),
        (
            "fleet.frame_encode_ns",
            per("fleet", "Frame::encode", "frames"),
        ),
        (
            "fleet.frame_decode_ns",
            per("fleet", "Frame::decode", "frames"),
        ),
    ]);
    out
}

/// The traced run: builds the twelve workloads at `variant`, walks the
/// probe grid [`GRID_PASSES`] times (every cell with span recording off
/// and on), runs the pipeline probes once, and aggregates.
/// `work` must exist and be empty; the process's working directory moves
/// into it.
pub fn traced_run(variant: u64, work: &Path) -> Result<Probe, String> {
    // The orchestrator resolves tier, sampled mode and predictor from
    // process-wide state; pin the tier and rely on main() having scrubbed
    // the STRATA_* variables for the other two.
    expt::set_exec_tier(ExecTier::Interp);
    std::env::set_current_dir(work).map_err(|e| format!("enter {}: {e}", work.display()))?;
    let params = Params { scale: 1, variant };

    let mut rec = Recorder::new(true);
    rec.set_cell("build");
    rec.enter("harness", "build");
    let programs: Vec<Program> = registry()
        .iter()
        .map(|spec| {
            rec.call(
                "workloads",
                "Spec::build",
                || (spec.build)(&params),
                |p| vec![("code_words", p.code.len() as f64)],
            )
        })
        .collect();
    rec.exit(&[]);

    let mut indirects = Vec::new();
    let mut traced_over_untraced = Vec::new();
    for pass in 0..GRID_PASSES {
        indirects.clear();
        traced_over_untraced.extend(grid_pass(
            &mut rec,
            &programs,
            &mut indirects,
            pass % 2 == 1,
        ));
    }
    pipeline_probes(&mut rec, &programs, &indirects, params, work);

    let agg = aggregate(rec.spans());
    let mut metrics = layer_metrics(&agg);
    let roots: Vec<&Aggregate> = ["build", "grid", "pipeline"]
        .iter()
        .filter_map(|name| agg.get(&("harness", *name)))
        .collect();
    let root_total: u64 = roots.iter().map(|a| a.total_ns).sum();
    // Cell spans are harness bookkeeping too: their self time is the gap
    // between the layer calls they group.
    let harness_self: u64 = roots.iter().map(|a| a.self_ns).sum::<u64>()
        + agg.get(&("harness", "cell")).map_or(0, |a| a.self_ns);
    metrics.push((
        "trace.unattributed_share",
        harness_self as f64 / root_total as f64,
    ));
    let typical_ratio = crate::stats::median(&traced_over_untraced).expect("the grid has cells");
    metrics.push(("trace.overhead_pct", (typical_ratio - 1.0) * 100.0));
    Ok(Probe {
        metrics,
        recorder: rec,
    })
}
