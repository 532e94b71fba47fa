//! Trace replay exactness: feeding a native retire stream through
//! [`DispatchReplay`] must reproduce exact-mode mechanism counters —
//! every dispatch, miss, link, fill, promotion, and flush — for every
//! mechanism configuration. This is the fidelity contract the sampled
//! execution mode is built on.

use strata_arch::{ArchModel, ArchProfile, PredictorSpec};
use strata_asm::assemble;
use strata_core::{rate, ClassPolicy, DispatchReplay, RetMechanism, Sdt, SdtConfig};
use strata_machine::observers::{CompactRetire, RetireLog};
use strata_machine::syscall::{SyscallState, SDT_TRAP_BASE};
use strata_machine::{layout, Machine, Program, StepOutcome};

mod common;

const FUEL: u64 = 20_000_000;

fn program(name: &str, src: &str) -> Program {
    let code = assemble(layout::APP_BASE, src).expect("program assembles");
    Program::new(name, code, Vec::new())
}

/// Runs `prog` natively (no SDT) and returns its retire stream.
fn native_log(prog: &Program) -> Vec<CompactRetire> {
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    prog.load(&mut machine).expect("program loads");
    let mut syscalls = SyscallState::new();
    let mut log = RetireLog::new();
    loop {
        match machine.run(&mut log, FUEL).expect("native run succeeds") {
            StepOutcome::Halted => break,
            StepOutcome::Trap(code) => {
                assert!(code < SDT_TRAP_BASE, "app programs use app traps only");
                syscalls.handle(code, &machine);
            }
            StepOutcome::Running => unreachable!("run returns only on halt/trap"),
        }
    }
    log.into_records()
}

/// Mechanism configurations the replay must track exactly: the shared
/// list.
fn configs() -> Vec<SdtConfig> {
    common::configs().into_iter().map(|(_, cfg)| cfg).collect()
}

fn check_replay_exact(prog: &Program) {
    let log = native_log(prog);
    for cfg in configs() {
        let mut sdt = Sdt::new(cfg, prog).expect("sdt constructs");
        let report = match sdt.run(ArchProfile::x86_like(), FUEL) {
            Ok(r) => r,
            // Configurations that cannot run this program (cache too
            // small without flushing, etc.) are skipped, not failures.
            Err(e) => panic!("[{}] {} failed: {e}", prog.name, cfg.describe()),
        };
        let mut rp =
            DispatchReplay::new(cfg, prog, ArchProfile::x86_like()).expect("replay constructs");
        rp.seek(layout::APP_BASE).expect("seek to entry");
        for ev in &log {
            rp.step(ev).unwrap_or_else(|e| {
                panic!("[{}] {}: replay desync: {e}", prog.name, cfg.describe())
            });
        }
        assert_eq!(
            rp.stats(),
            report.mech,
            "[{}] mechanism counters diverge under {}",
            prog.name,
            cfg.describe()
        );
        assert_eq!(
            rp.per_class(),
            report.per_class,
            "[{}] per-class counters diverge under {}",
            prog.name,
            cfg.describe()
        );
        // The replay charges its model nothing but translator work.
        assert_eq!(
            rp.model().stats().trap_cycles,
            report.translator_cycles,
            "[{}] translator cycles diverge under {}",
            prog.name,
            cfg.describe()
        );
    }
}

#[test]
fn replay_matches_exact_mode_on_jump_table_loop() {
    check_replay_exact(&program(
        "switch",
        &format!(
            r"
        li r10, {data}
        li r1, case0
        sw r1, 0(r10)
        li r1, case1
        sw r1, 4(r10)
        li r1, case2
        sw r1, 8(r10)
        li r1, case3
        sw r1, 12(r10)
        li r5, 40
        li r4, 0
        li r6, 0
    top:
        andi r7, r6, 3
        slli r7, r7, 2
        add r7, r7, r10
        lw r7, 0(r7)
        jr r7               ; 4-way polymorphic indirect jump
    case0:
        addi r4, r4, 1
        jmp next
    case1:
        addi r4, r4, 10
        jmp next
    case2:
        addi r4, r4, 100
        jmp next
    case3:
        addi r4, r4, 1000
    next:
        addi r6, r6, 1
        addi r5, r5, -1
        cmpi r5, 0
        bne top
        trap 0x1
        halt
        ",
            data = layout::APP_DATA_BASE
        ),
    ));
}

#[test]
fn replay_matches_exact_mode_on_indirect_calls() {
    check_replay_exact(&program(
        "fnptr",
        r"
        li r8, add_one
        li r9, add_two
        li r5, 25
        li r4, 0
    top:
        andi r7, r5, 1
        cmpi r7, 0
        beq even
        callr r8
        jmp next
    even:
        callr r9
    next:
        addi r5, r5, -1
        cmpi r5, 0
        bne top
        trap 0x1
        halt
    add_one:
        addi r4, r4, 1
        ret
    add_two:
        addi r4, r4, 2
        ret
        ",
    ));
}

#[test]
fn replay_matches_exact_mode_on_recursion() {
    check_replay_exact(&program(
        "recursion",
        r"
        li r1, 12
        li r4, 0
        call fib_acc
        trap 0x1
        halt
    fib_acc:
        cmpi r1, 1
        bge  recurse
        addi r4, r4, 1
        ret
    recurse:
        push r1
        addi r1, r1, -1
        call fib_acc
        pop r1
        push r1
        addi r1, r1, -2
        call fib_acc
        pop r1
        ret
        ",
    ));
}

#[test]
fn replay_matches_exact_mode_on_call_loop() {
    check_replay_exact(&program(
        "call-loop",
        r"
        li r1, 40
        li r4, 0
    top:
        call bump
        addi r1, r1, -1
        cmpi r1, 0
        bne top
        trap 0x1
        halt
    bump:
        addi r4, r4, 3
        ret
        ",
    ));
}

/// One configuration per `mechanism_registry()` id (and the shapes the
/// ids fan out into), plus a predictive policy beside `configs()`'s
/// adaptive one.
fn registry_shapes() -> Vec<SdtConfig> {
    let mut cfgs = configs();
    let mut predictive = SdtConfig::ibtc_inline(256);
    predictive.policy.jump = ClassPolicy::Predictive {
        sieve_buckets: 64,
        probation: 8,
    };
    cfgs.push(predictive);
    let mut elide = SdtConfig::tuned(512, 128);
    elide.elide_direct_jumps = true;
    cfgs.push(elide);
    cfgs
}

#[test]
fn control_records_alone_replay_like_the_whole_stream() {
    // Sampled bundles keep a trace's control records only. That is exact
    // because `step` returns at once on anything else — so a replay fed
    // the filtered stream must end in the very state of one fed every
    // record, flushes, promotions and the model's predictors included,
    // whichever predictor the model is built with.
    let spec = strata_workloads::by_name("gcc").expect("registered");
    let prog = (spec.build)(&strata_workloads::Params::default());
    let log = native_log(&prog);
    let control: Vec<CompactRetire> = log.iter().filter(|r| r.is_control()).copied().collect();
    assert!(
        control.len() * 2 < log.len(),
        "most records are not control"
    );
    let predictors = [
        PredictorSpec::Legacy,
        PredictorSpec::None,
        PredictorSpec::Ittage { tables: 4 },
    ];
    let mispredict_slots = [
        rate::JUMP_MISPREDICTS,
        rate::CALL_MISPREDICTS,
        rate::RET_MISPREDICTS,
    ];
    let mut covered = std::collections::BTreeSet::new();
    for mut cfg in registry_shapes() {
        // A cache small enough to flush, wherever flushing is allowed.
        if cfg.ret != RetMechanism::FastReturn {
            cfg.cache_limit = Some(8192);
        }
        for predictor in predictors {
            let what = format!("{} under {}", cfg.describe(), predictor.label());
            let end_state = |stream: &[CompactRetire]| {
                let model = ArchModel::with_predictor_spec(ArchProfile::x86_like(), predictor);
                let mut rp = DispatchReplay::new(cfg, &prog, model).unwrap();
                rp.seek(prog.entry).unwrap();
                for ev in stream {
                    rp.step(ev).unwrap_or_else(|e| panic!("{what}: {e}"));
                }
                let counters = rp.rate_counters();
                // Every prediction goes through the handed model: its
                // mispredicts are the three slots', no more, no fewer.
                let slots: u64 = mispredict_slots.iter().map(|&at| counters[at]).sum();
                assert_eq!(slots, rp.model().indirect_mispredicts(), "{what}");
                ((rp.stats(), rp.per_class()), counters, *rp.model().stats())
            };
            let whole = end_state(&log);
            assert_eq!(end_state(&control), whole, "{what}");

            let ((mech, per_class), counters, _) = whole;
            assert_eq!(mech.cache_flushes > 0, cfg.cache_limit.is_some(), "{what}");
            // Each `rate` name leads to the number the reports give under
            // it, and the names share no position and leave none unnamed.
            let mut named = vec![
                (rate::IB_DISPATCHES, mech.ib_dispatches),
                (rate::JUMP_DISPATCHES, mech.jump_dispatches),
                (rate::CALL_DISPATCHES, mech.call_dispatches),
                (rate::RET_DISPATCHES, mech.ret_dispatches),
                (rate::IB_MISSES, mech.ib_misses),
                (rate::RC_MISSES, mech.rc_misses),
            ];
            named.extend(mispredict_slots.map(|at| (at, counters[at])));
            for (row, class) in per_class.iter().enumerate() {
                let (dispatches, misses) = rate::class(row);
                named.extend([(dispatches, class.dispatches), (misses, class.misses)]);
            }
            named.sort_unstable();
            let at: Vec<usize> = named.iter().map(|&(at, _)| at).collect();
            assert_eq!(at, (0..rate::COUNT).collect::<Vec<_>>());
            let want: Vec<u64> = named.iter().map(|&(_, n)| n).collect();
            assert_eq!(counters.to_vec(), want, "{what}");
            // With no target predictor, every dispatch it sees misses:
            // each mispredict slot counts its own class (fast returns
            // excepted — the return-address stack predicts those).
            if predictor == PredictorSpec::None {
                assert_eq!(counters[rate::JUMP_MISPREDICTS], mech.jump_dispatches);
                assert_eq!(counters[rate::CALL_MISPREDICTS], mech.call_dispatches);
                if cfg.ret != RetMechanism::FastReturn {
                    assert_eq!(counters[rate::RET_MISPREDICTS], mech.ret_dispatches);
                }
            }
            covered.extend(per_class.iter().map(|c| c.mechanism.clone()));
        }
    }
    // Every registered mechanism took part, by the name it reports (a
    // return cache describes itself as `rc(n)`).
    for info in strata_core::mechanism_registry() {
        let name = if info.id == "retcache" { "rc" } else { info.id };
        let seen = covered.iter().any(|m| m.starts_with(name));
        assert!(seen, "no configuration covers `{}`: {covered:?}", info.id);
    }
}

#[test]
fn replay_with_elision_tracks_elided_jumps() {
    // Jump elision inlines direct-jump targets; the replay must consume
    // those control events inside the fragment instead of traversing an
    // exit.
    let prog = program(
        "elide",
        r"
        li r5, 30
        li r4, 0
    top:
        addi r4, r4, 1
        jmp mid
    mid:
        addi r4, r4, 2
        jmp tail
    tail:
        addi r5, r5, -1
        cmpi r5, 0
        bne top
        trap 0x1
        halt
        ",
    );
    let log = native_log(&prog);
    let mut cfg = SdtConfig::ibtc_inline(256);
    cfg.elide_direct_jumps = true;
    let mut sdt = Sdt::new(cfg, &prog).unwrap();
    let report = sdt.run(ArchProfile::x86_like(), FUEL).unwrap();
    assert!(report.mech.elided_jumps > 0, "elision engaged");
    let mut rp = DispatchReplay::new(cfg, &prog, ArchProfile::x86_like()).unwrap();
    rp.seek(layout::APP_BASE).unwrap();
    for ev in &log {
        rp.step(ev).unwrap();
    }
    assert_eq!(rp.stats(), report.mech);
}

#[test]
fn desync_is_reported_not_miscounted() {
    let prog = program(
        "tiny",
        r"
        li r4, 1
        trap 0x1
        halt
        ",
    );
    let mut rp =
        DispatchReplay::new(SdtConfig::ibtc_inline(64), &prog, ArchProfile::x86_like()).unwrap();
    // Stepping before seek is a desync, not a panic.
    let ev = CompactRetire {
        pc: layout::APP_BASE,
        kind: strata_isa::ControlKind::Direct,
        taken: true,
        indirect: false,
        target: layout::APP_BASE,
        mem: strata_machine::observers::MemClass::None,
    };
    let err = rp.step(&ev).unwrap_err();
    assert!(err.to_string().contains("desynchronized"), "{err}");
}
