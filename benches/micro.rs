//! Microbenchmarks for the substrate components: ISA encode/decode, the
//! assembler, interpreter stepping throughput, cache and predictor
//! simulation, translation, and an end-to-end translated run. These
//! quantify the *simulator's* host-side cost, complementing the
//! guest-cycle experiments behind `strata bench`.
//!
//! Criterion is not available in the offline build environment, so this is
//! a self-contained `harness = false` benchmark: each workload is timed
//! over enough iterations to exceed a minimum measurement window and the
//! median per-iteration time is reported (`cargo bench --bench micro`).
//!
//! Medians are also persisted as an artifact-shaped JSON document
//! (default `results/microbench.json`, override with `STRATA_BENCH_OUT`,
//! disable with `STRATA_BENCH_OUT=-`) so `strata bench --baseline` can
//! diff substrate performance with the same machinery that gates the
//! guest-cycle experiments. Wall-clock medians are host-dependent and
//! noisy, so they are *not* part of the committed default baseline — see
//! EXPERIMENTS.md for how to opt a machine-local baseline in.

use std::hint::black_box;
use std::time::Instant;

use strata_stats::Json;

use strata_arch::{
    ArchModel, ArchProfile, Btb, CacheConfig, CacheSim, CondPredictor, Ittage, SetAssocBtb,
    TargetPredictor,
};
use strata_asm::assemble;
use strata_core::{ClassPolicy, Sdt, SdtConfig};
use strata_isa::{decode, encode, Instr, Reg};
use strata_machine::{layout, ExecTier, Machine, NullObserver, Program, StepOutcome, TierConfig};
use strata_stats::Table;
use strata_workloads::{by_name, Params};

/// Times `f` over repeated batches and returns the median per-call
/// nanoseconds across batches.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warm up, then measure batches sized to take ~10ms each.
    f();
    let probe = Instant::now();
    f();
    let one = probe.elapsed().as_nanos().max(1) as u64;
    let batch = (10_000_000 / one).clamp(1, 100_000) as usize;
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn human(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

struct Bench {
    table: Table,
}

impl Bench {
    fn new() -> Bench {
        Bench {
            table: Table::new(
                "microbenchmarks (median)",
                &["benchmark", "time", "per-element"],
            ),
        }
    }

    /// Runs one benchmark; `elements` is the work-unit count for a derived
    /// per-element rate (0 = no rate column).
    fn run(&mut self, name: &str, elements: u64, f: impl FnMut()) {
        let ns = time_ns(f);
        let per = if elements > 0 {
            human(ns / elements as f64)
        } else {
            String::new()
        };
        self.table.row([name.to_string(), human(ns), per]);
        eprintln!("  {name}: {}", human(ns));
    }

    /// Writes the medians as an artifact-shaped JSON document so the
    /// baseline differ treats them like any experiment.
    fn write_json(&self, path: &str) {
        let doc = Json::obj([
            ("id", Json::str("microbench")),
            (
                "title",
                Json::str("Substrate microbenchmark medians (host wall clock)"),
            ),
            ("tables", Json::arr([self.table.to_json()])),
            ("notes", Json::arr([])),
        ]);
        if let Some(parent) = std::path::Path::new(path).parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("warning: create {}: {e}", parent.display());
                return;
            }
        }
        match std::fs::write(path, doc.render_pretty() + "\n") {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: write {path}: {e}"),
        }
    }
}

fn interpreter_program() -> Program {
    let code = assemble(
        layout::APP_BASE,
        r"
        li r1, 100000
    top:
        addi r1, r1, -1
        xor r2, r2, r1
        cmpi r1, 0
        bne top
        halt
    ",
    )
    .unwrap();
    Program::new("spin", code, Vec::new())
}

/// A program that chains through `sites` indirect jumps, each in its own
/// basic block, so translating it emits exactly `sites` dispatch
/// sequences for the active jump strategy.
fn indirect_chain_program(sites: u32) -> Program {
    let mut src = String::new();
    for i in 0..sites {
        src.push_str(&format!("    li r9, site{i}\n    jr r9\nsite{i}:\n"));
    }
    src.push_str("    halt\n");
    let code = assemble(layout::APP_BASE, &src).unwrap();
    Program::new("chain", code, Vec::new())
}

fn main() {
    let mut b = Bench::new();

    // ISA encode/decode.
    let instrs: Vec<Instr> = (0..256u32)
        .map(|i| match i % 4 {
            0 => Instr::Add {
                rd: Reg::try_from((i % 16) as u8).unwrap(),
                rs1: Reg::R1,
                rs2: Reg::R2,
            },
            1 => Instr::Lw {
                rd: Reg::R3,
                rs1: Reg::SP,
                off: (i as i16) - 128,
            },
            2 => Instr::Beq {
                off: (i as i16) - 128,
            },
            _ => Instr::Jmp {
                target: (i % 1024) * 4,
            },
        })
        .collect();
    let words: Vec<u32> = instrs.iter().map(encode).collect();
    b.run("isa/encode_256", 256, || {
        for i in &instrs {
            black_box(encode(black_box(i)));
        }
    });
    b.run("isa/decode_256", 256, || {
        for w in &words {
            black_box(decode(black_box(*w)).unwrap());
        }
    });

    // Assembler.
    let src = r"
        li r1, 100
    top:
        addi r1, r1, -1
        cmpi r1, 0
        call f
        bne top
        halt
    f:
        add r2, r2, r1
        ret
    ";
    b.run("asm/assemble_small_program", 0, || {
        black_box(assemble(layout::APP_BASE, black_box(src)).unwrap());
    });

    // Interpreter throughput.
    let program = interpreter_program();
    b.run("machine/interpret_400k_instrs", 400_002, || {
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        program.load(&mut m).unwrap();
        assert_eq!(
            m.run(&mut NullObserver, 10_000_000).unwrap(),
            StepOutcome::Halted
        );
    });
    b.run("machine/interpret_400k_instrs_costed", 400_002, || {
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        program.load(&mut m).unwrap();
        let mut model = ArchModel::new(ArchProfile::x86_like());
        assert_eq!(m.run(&mut model, 10_000_000).unwrap(), StepOutcome::Halted);
        black_box(model.total_cycles());
    });

    // The same two workloads under the threaded execution tier: identical
    // retire streams (and therefore identical charged cycles), different
    // host dispatch. The costed variant is Amdahl-bound by the cost
    // model's own per-instruction work, which the tier cannot remove.
    let tier = ExecTier::Threaded(TierConfig::default());
    b.run("machine/interpret_400k_instrs_threaded", 400_002, || {
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        program.load(&mut m).unwrap();
        m.set_tier(tier);
        assert_eq!(
            m.run(&mut NullObserver, 10_000_000).unwrap(),
            StepOutcome::Halted
        );
    });
    b.run(
        "machine/interpret_400k_instrs_costed_threaded",
        400_002,
        || {
            let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
            program.load(&mut m).unwrap();
            m.set_tier(tier);
            let mut model = ArchModel::new(ArchProfile::x86_like());
            assert_eq!(m.run(&mut model, 10_000_000).unwrap(), StepOutcome::Halted);
            black_box(model.total_cycles());
        },
    );

    // Stepper dispatch in isolation: construction cost (dominated by guest
    // RAM + predecode-page setup) and warm-dispatch throughput (the fused
    // fetch/exec loop on already-predecoded pages, no per-iteration
    // construction). The spin program re-initializes `r1` at its entry, so
    // resetting the pc replays the full 400k-instruction run.
    b.run("machine/construct_16mib", 0, || {
        black_box(Machine::new(layout::DEFAULT_MEM_BYTES));
    });
    let mut warm = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut warm).unwrap();
    b.run("machine/dispatch_warm_400k_instrs", 400_002, || {
        warm.cpu_mut().pc = layout::APP_BASE;
        assert_eq!(
            warm.run(&mut NullObserver, 10_000_000).unwrap(),
            StepOutcome::Halted
        );
    });
    // Warm threaded dispatch: the superblocks survive across iterations
    // (the code is never invalidated), so this is the steady-state cost
    // of hot-region execution — the headline the tier exists for.
    let mut warm_threaded = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut warm_threaded).unwrap();
    warm_threaded.set_tier(tier);
    b.run(
        "machine/dispatch_warm_400k_instrs_threaded",
        400_002,
        || {
            warm_threaded.cpu_mut().pc = layout::APP_BASE;
            assert_eq!(
                warm_threaded.run(&mut NullObserver, 10_000_000).unwrap(),
                StepOutcome::Halted
            );
        },
    );

    // Microarchitecture simulators.
    let mut cache = CacheSim::new(CacheConfig {
        sets: 128,
        ways: 4,
        line_bytes: 32,
    });
    b.run("arch/cache_access_stride_4096", 4096, || {
        for i in 0..4096u32 {
            black_box(cache.access(i * 8));
        }
    });
    let mut predictor = CondPredictor::new(12);
    b.run("arch/gshare_update_4096", 4096, || {
        for i in 0..4096u32 {
            black_box(predictor.predict_and_update(i * 4, i % 3 != 0));
        }
    });
    let mut btb = Btb::new(512);
    b.run("arch/btb_update_4096", 4096, || {
        for i in 0..4096u32 {
            black_box(btb.predict_and_update(i * 4, (i % 7) * 64));
        }
    });
    // The predictor zoo behind `--predictor`: same access pattern as the
    // legacy BTB row, so the deltas are pure model cost (LRU search for
    // the set-associative table, folded-history tag lookups for ITTAGE).
    let mut sa_btb = SetAssocBtb::new(128, 4);
    b.run("arch/setassoc_btb_update_4096", 4096, || {
        for i in 0..4096u32 {
            black_box(sa_btb.predict_and_update(i * 4, (i % 7) * 64));
        }
    });
    let mut ittage = Ittage::new(4);
    b.run("arch/ittage_update_4096", 4096, || {
        for i in 0..4096u32 {
            black_box(ittage.predict_and_update(i * 4, (i % 7) * 64));
        }
    });

    // Translation and end-to-end.
    let gcc = (by_name("gcc").unwrap().build)(&Params::default());
    b.run("sdt/construct_and_translate_entry", 0, || {
        let mut sdt = Sdt::new(SdtConfig::ibtc_inline(1024), &gcc).unwrap();
        // Run just far enough to force initial translation work.
        let _ = black_box(sdt.run(ArchProfile::x86_like(), 50_000));
    });
    let spin = interpreter_program();
    b.run("sdt/run_400k_instr_program", 0, || {
        let mut sdt = Sdt::new(SdtConfig::ibtc_inline(1024), &spin).unwrap();
        let report = sdt.run(ArchProfile::x86_like(), 50_000_000).unwrap();
        black_box(report.total_cycles);
    });

    // Dispatch-emission cost per strategy: translating a 32-site indirect
    // chain emits exactly 32 jump-dispatch sequences, so the per-element
    // column approximates one site's emission (plus one cold execution)
    // under each strategy. Construction cost is identical across rows.
    let chain = indirect_chain_program(32);
    let two_way = {
        let mut c = SdtConfig::ibtc_inline(512);
        c.ibtc_ways = 2;
        c
    };
    let adaptive = {
        let mut c = SdtConfig::ibtc_inline(512);
        c.policy.jump = ClassPolicy::Adaptive {
            ibtc_entries: 256,
            sieve_buckets: 512,
            sieve_arity: 8,
        };
        c
    };
    let predictive = {
        let mut c = SdtConfig::ibtc_inline(512);
        c.policy.jump = ClassPolicy::Predictive {
            sieve_buckets: 512,
            probation: 64,
        };
        c
    };
    let strategies: [(&str, SdtConfig); 8] = [
        ("emit/reentry_32sites", SdtConfig::reentry()),
        ("emit/ibtc_inline_32sites", SdtConfig::ibtc_inline(512)),
        ("emit/ibtc_2way_32sites", two_way),
        (
            "emit/ibtc_outline_32sites",
            SdtConfig::ibtc_out_of_line(512),
        ),
        ("emit/ibtc_persite_32sites", {
            let mut c = SdtConfig::ibtc_inline(512);
            c.ib = strata_core::IbMechanism::Ibtc {
                entries: 64,
                scope: strata_core::IbtcScope::PerSite,
                placement: strata_core::IbtcPlacement::Inline,
            };
            c
        }),
        ("emit/sieve_32sites", SdtConfig::sieve(512)),
        ("emit/adaptive_32sites", adaptive),
        ("emit/predictive_32sites", predictive),
    ];
    for (name, cfg) in strategies {
        b.run(name, 32, || {
            let mut sdt = Sdt::new(cfg, &chain).unwrap();
            let report = sdt.run(ArchProfile::x86_like(), 1_000_000).unwrap();
            assert!(report.halted);
            black_box(report.total_cycles);
        });
    }

    // Trace codec: block-compressed encode/decode of a real recorded
    // retire trace — the cost sampled mode pays per trace load, and the
    // rate at which replay streams records off disk. Per-element is one
    // retired instruction.
    let recorded = strata_trace::record(&gcc, 50_000_000, ExecTier::Interp).unwrap();
    let n = recorded.log.records().len() as u64;
    let trace = recorded.into_trace("gcc", 1, 0, 1529);
    let bytes = trace.to_bytes();
    b.run(&format!("trace/encode_{n}_records"), n, || {
        black_box(black_box(&trace).to_bytes());
    });
    b.run(&format!("trace/decode_{n}_records"), n, || {
        black_box(strata_trace::Trace::from_bytes(black_box(&bytes)).unwrap());
    });

    println!("{}", b.table.render_text());

    // Anchored at the package root, whatever directory cargo runs us in.
    let out = std::env::var("STRATA_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/results/microbench.json").into());
    if out != "-" {
        b.write_json(&out);
    }
}
