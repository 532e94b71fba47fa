//! Translated-vs-native equivalence: every program must produce the same
//! checksum and final register state under every mechanism configuration
//! as it does natively. This is the SDT's core correctness property.

use strata_arch::ArchProfile;
use strata_asm::assemble;
use strata_core::{run_native, FlagsPolicy, Sdt, SdtConfig};
use strata_machine::{layout, Program};

mod common;

const FUEL: u64 = 2_000_000;

fn program(name: &str, src: &str) -> Program {
    let code = assemble(layout::APP_BASE, src).expect("program assembles");
    Program::new(name, code, Vec::new())
}

fn check_equivalence(prog: &Program) {
    let native = run_native(prog, ArchProfile::x86_like(), FUEL).expect("native run succeeds");
    for (_, cfg) in common::configs() {
        let mut sdt = Sdt::new(cfg, prog).expect("sdt constructs");
        let report = sdt
            .run(ArchProfile::x86_like(), FUEL * 20)
            .unwrap_or_else(|e| panic!("[{}] {} failed: {e}", prog.name, cfg.describe()));
        assert!(report.halted);
        assert_eq!(
            report.checksum,
            native.checksum,
            "[{}] checksum mismatch under {}",
            prog.name,
            cfg.describe()
        );
        assert_eq!(
            sdt.machine().cpu().regs(),
            &native.regs,
            "[{}] final registers mismatch under {}",
            prog.name,
            cfg.describe()
        );
        assert!(
            report.total_cycles > native.total_cycles,
            "[{}] translation cannot be free under {}",
            prog.name,
            cfg.describe()
        );
    }
}

#[test]
fn straightline_arithmetic() {
    check_equivalence(&program(
        "straightline",
        r"
        li r1, 1000
        li r2, 7
        mul r3, r1, r2
        addi r3, r3, -42
        mov r4, r3
        trap 0x1
        halt
        ",
    ));
}

#[test]
fn counted_loop_with_branches() {
    check_equivalence(&program(
        "loop",
        r"
        li r1, 50
        li r4, 0
    top:
        add r4, r4, r1
        addi r1, r1, -1
        cmpi r1, 0
        bne top
        trap 0x1
        halt
        ",
    ));
}

#[test]
fn direct_calls_and_returns() {
    check_equivalence(&program(
        "calls",
        r"
        li r4, 3
        call double
        call double
        call double
        trap 0x1
        halt
    double:
        add r4, r4, r4
        ret
        ",
    ));
}

#[test]
fn call_in_loop_exercises_return_locality() {
    check_equivalence(&program(
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

#[test]
fn recursion() {
    check_equivalence(&program(
        "recursion",
        r"
        li r1, 12
        li r4, 0
        call fib_acc
        trap 0x1
        halt
    fib_acc:                ; adds 2^depth-ish work via two recursive calls
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
fn jump_table_dispatch_loop() {
    check_equivalence(&program(
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
fn indirect_calls_through_function_pointers() {
    check_equivalence(&program(
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
fn flags_live_across_indirect_branch() {
    // cmp sets flags, then an indirect jump intervenes, then the branch
    // consumes the flags: FlagsPolicy::Always must preserve them.
    check_equivalence(&program(
        "flags-across-ib",
        r"
        li r1, 1
        li r2, 2
        li r9, after
        cmp r1, r2          ; lt
        jr r9
    after:
        blt less
        li r4, 111
        trap 0x1
        halt
    less:
        li r4, 222
        trap 0x1
        halt
        ",
    ));
}

#[test]
fn app_jmem_is_translated() {
    check_equivalence(&program(
        "jmem",
        &format!(
            r"
        li r1, dest
        li r2, {slot}
        sw r1, 0(r2)
        jmem [{slot}]
        halt                ; skipped
    dest:
        li r4, 77
        trap 0x1
        halt
        ",
            slot = layout::APP_DATA_BASE + 0x40
        ),
    ));
}

#[test]
fn app_syscalls_pass_through() {
    check_equivalence(&program(
        "syscalls",
        r"
        li r5, 5
        li r4, 0
    top:
        add r4, r4, r5
        trap 0x2            ; emit r4
        addi r5, r5, -1
        cmpi r5, 0
        bne top
        halt
        ",
    ));
}

#[test]
fn flags_policy_none_is_cheaper_when_flags_dead() {
    let prog = program(
        "noflags",
        r"
        li r8, f
        li r5, 60
        li r4, 0
    top:
        callr r8
        addi r5, r5, -1
        cmpi r5, 0
        bne top
        trap 0x1
        halt
    f:
        addi r4, r4, 7
        ret
        ",
    );
    let native = run_native(&prog, ArchProfile::x86_like(), FUEL).unwrap();

    let mut with_flags = SdtConfig::ibtc_inline(256);
    with_flags.flags = FlagsPolicy::Always;
    let mut without = with_flags;
    without.flags = FlagsPolicy::None;

    let ra = Sdt::new(with_flags, &prog)
        .unwrap()
        .run(ArchProfile::x86_like(), FUEL * 20)
        .unwrap();
    let rb = Sdt::new(without, &prog)
        .unwrap()
        .run(ArchProfile::x86_like(), FUEL * 20)
        .unwrap();
    assert_eq!(ra.checksum, native.checksum);
    assert_eq!(rb.checksum, native.checksum);
    assert!(
        rb.total_cycles < ra.total_cycles,
        "dropping pushf/popf must be cheaper: {} vs {}",
        rb.total_cycles,
        ra.total_cycles
    );
}

#[test]
fn warm_cache_second_run_is_cheaper() {
    let prog = program(
        "warm",
        r"
        li r5, 30
        li r4, 0
        li r8, f
    top:
        callr r8
        addi r5, r5, -1
        cmpi r5, 0
        bne top
        trap 0x1
        halt
    f:
        addi r4, r4, 1
        ret
        ",
    );
    let mut sdt = Sdt::new(SdtConfig::ibtc_inline(256), &prog).unwrap();
    let cold = sdt.run(ArchProfile::x86_like(), FUEL).unwrap();
    // NOTE: the program ran to halt; to re-run we need a fresh machine, so
    // instead verify the cold run's translator work happened and the cache
    // retained its fragments.
    assert!(cold.mech.translator_entries > 0);
    assert!(sdt.fragments() > 0);
    assert!(sdt.cache_used_bytes() > 0);
}

#[test]
fn self_modifying_code_is_detected_not_miscompiled() {
    // The program patches an upcoming instruction. Natively the machine
    // honors it (its decode cache invalidates on stores); under the SDT
    // the already-translated fragment would go stale, so the run must be
    // refused with a precise error instead of silently diverging.
    let prog = program(
        "smc",
        &format!(
            r"
        li r1, {replacement:#x}
        li r2, patch_site
        sw r1, 0(r2)
        li r4, 0
    patch_site:
        nop
        trap 0x1
        halt
        ",
            replacement = strata_isa::encode(&strata_isa::Instr::Addi {
                rd: strata_isa::Reg::R4,
                rs1: strata_isa::Reg::R4,
                imm: 7
            }),
        ),
    );
    let native = run_native(&prog, ArchProfile::x86_like(), FUEL).unwrap();
    assert_eq!(native.regs[4], 7, "native run honors the patch");

    let mut sdt = Sdt::new(SdtConfig::ibtc_inline(64), &prog).unwrap();
    match sdt.run(ArchProfile::x86_like(), FUEL) {
        Err(strata_core::SdtError::SelfModifyingCode { addr, .. }) => {
            assert!(addr >= layout::APP_BASE);
        }
        other => panic!("expected SelfModifyingCode, got {other:?}"),
    }
}

#[test]
fn dispatch_handles_scratch_registers_as_targets() {
    // The dispatch prologue spills r1 and then captures the target; if the
    // target register IS r1/r2/r3 the capture order must still be correct.
    check_equivalence(&program(
        "scratch-targets",
        r"
        li r1, t1
        jr r1
    t1:
        li r2, t2
        jr r2
    t2:
        li r3, t3
        jr r3
    t3:
        li r1, f
        callr r1
        li r2, f
        callr r2
        li r3, f
        callr r3
        trap 0x1
        halt
    f:
        addi r4, r4, 11
        ret
        ",
    ));
}

#[test]
fn indirect_jump_through_stack_pointer_region_register() {
    // jr through r15 (sp) after temporarily repointing it — an abusive but
    // legal pattern the dispatch must survive.
    check_equivalence(&program(
        "jr-sp",
        r"
        mov r10, sp          ; save real sp
        li sp, t
        mov r11, sp
        mov sp, r10          ; restore before the jump (stack must be sane)
        jr r11
    t:
        li r4, 5
        trap 0x1
        halt
        ",
    ));
}
