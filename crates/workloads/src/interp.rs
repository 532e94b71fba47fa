//! Interpreter workloads: `perlbmk` (bytecode dispatch dominated by one hot
//! polymorphic indirect jump) and `gap` (a stack-machine interpreter mixed
//! with arithmetic kernels).

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

/// Number of distinct bytecode handlers in the perlbmk stand-in.
const PERL_OPS: usize = 128;
/// Bytecode length.
const PERL_CODE_LEN: usize = 2048;

/// Builds the `perlbmk` stand-in: a threaded bytecode interpreter whose
/// dispatch loop executes one indirect jump per bytecode — the canonical
/// worst case for SDT indirect-branch handling (253.perlbmk's interpreter
/// loop behaves the same way).
pub fn build_perlbmk(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let table = data_base + 0x1000;
    let passes = 40 * params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0x9E3779B97F4A7C15));
    let bytecode: Vec<u8> = (0..PERL_CODE_LEN)
        .map(|_| rng.gen_range(0..PERL_OPS as u8))
        .collect();

    let mut src = String::new();
    // Initialize the handler table (the interpreter's computed-goto table).
    src.push_str(&format!("    li r13, {table}\n"));
    for op in 0..PERL_OPS {
        src.push_str(&format!("    li r1, h{op}\n    sw r1, {}(r13)\n", op * 4));
    }
    src.push_str(&format!(
        r"
    li r10, {data_base}
    li r12, {PERL_CODE_LEN}
    li r5, {passes}
    li r4, 0
pass:
    li r11, 0
iloop:
    add r7, r10, r11
    lbu r7, 0(r7)
    slli r7, r7, 2
    add r7, r7, r13
    lw r7, 0(r7)
    jr r7               ; the hot interpreter dispatch
"
    ));
    // Handlers: distinct tiny bodies, all rejoining the loop.
    for op in 0..PERL_OPS {
        let body = match op % 8 {
            0 => format!("    addi r4, r4, {}\n", op + 1),
            1 => format!("    xori r4, r4, {:#x}\n", 0x40 + op),
            2 => format!("    slli r6, r4, {}\n    add r4, r4, r6\n", 1 + op % 3),
            3 => format!("    srli r6, r4, {}\n    xor r4, r4, r6\n", 1 + op % 7),
            4 => format!("    addi r4, r4, {}\n", op * 7),
            5 => "    sub r4, r4, r11\n".to_string(),
            6 => "    add r4, r4, r11\n".to_string(),
            _ => format!("    ori r4, r4, {:#x}\n", op),
        };
        src.push_str(&format!("h{op}:\n{body}    jmp inext\n"));
    }
    src.push_str(
        r"
inext:
    addi r11, r11, 1
    cmp r11, r12
    bltu iloop
    trap 0x1            ; checksum the accumulator once per pass
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt
",
    );

    let code = assemble(layout::APP_BASE, &src).expect("perlbmk assembles");
    Program::new("perlbmk", code, bytecode)
}

/// `gap` stack-machine opcodes.
const GAP_OPS: usize = 32;
const GAP_CODE_LEN: usize = 1024;

/// Builds the `gap` stand-in: a stack-machine interpreter (dispatch through
/// a jump table, like 254.gap's inner evaluator) interleaved with a direct
/// arithmetic kernel each pass, so indirect jumps are frequent but not as
/// dominant as in `perlbmk`.
pub fn build_gap(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let table = data_base + 0x1000;
    let vm_stack = data_base + 0x8000;
    let passes = 22 * params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0xA5A5_5A5A_1234_5678));
    let bytecode: Vec<u8> = (0..GAP_CODE_LEN)
        .map(|_| rng.gen_range(0..GAP_OPS as u8))
        .collect();

    let mut src = String::new();
    src.push_str(&format!("    li r13, {table}\n"));
    for op in 0..GAP_OPS {
        src.push_str(&format!("    li r1, g{op}\n    sw r1, {}(r13)\n", op * 4));
    }
    src.push_str(&format!(
        r"
    li r10, {data_base}
    li r12, {GAP_CODE_LEN}
    li r5, {passes}
    li r4, 0
pass:
    li r14, {vm_stack}  ; VM operand-stack pointer (grows up, in data)
    li r11, 0
iloop:
    add r7, r10, r11
    lbu r7, 0(r7)
    slli r7, r7, 2
    add r7, r7, r13
    lw r7, 0(r7)
    jr r7
{{HANDLERS}}gnext:
    addi r11, r11, 1
    cmp r11, r12
    bltu iloop
    call kernel         ; arithmetic kernel between interpretation passes
    trap 0x1
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt
kernel:                 ; 256 rounds of multiply-accumulate
    li r6, 256
    li r7, 0x10dcd
klp:
    mul r4, r4, r7
    addi r4, r4, 12345
    addi r6, r6, -1
    cmpi r6, 0
    bne klp
    ret
"
    ));

    let mut handlers = String::new();
    for op in 0..GAP_OPS {
        let body = match op % 8 {
            0 => "    sw r11, 0(r14)\n    addi r14, r14, 4\n".to_string(),
            1 => "    sw r4, 0(r14)\n    addi r14, r14, 4\n".to_string(),
            2 => "    lw r6, -4(r14)\n    add r4, r4, r6\n".to_string(),
            3 => "    lw r6, -4(r14)\n    xor r4, r4, r6\n".to_string(),
            4 => "    addi r14, r14, -4\n    lw r4, 0(r14)\n    addi r14, r14, 4\n".to_string(),
            5 => format!("    slli r6, r4, {}\n    sub r4, r6, r4\n", 1 + op % 4),
            6 => format!("    srli r6, r4, {}\n    add r4, r4, r6\n", 1 + op % 6),
            _ => format!("    addi r4, r4, {}\n", op),
        };
        handlers.push_str(&format!("g{op}:\n{body}    jmp gnext\n"));
    }
    let src = src.replace("{HANDLERS}", &handlers);
    let code = assemble(layout::APP_BASE, &src).expect("gap assembles");
    Program::new("gap", code, bytecode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perlbmk_is_indirect_jump_dominated() {
        let p = build_perlbmk(&Params::default());
        let r = crate::native_run(&p, 50_000_000);
        let a = crate::native_run(&p, 50_000_000);
        assert_eq!(r, a, "deterministic");
        assert!(r.instructions > 500_000, "{} instrs", r.instructions);
        // One dispatch per bytecode per pass.
        assert!(r.census.indirect_jumps >= (PERL_CODE_LEN as u64) * 40);
        assert!(r.census.indirect_jumps > r.census.returns);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn gap_mixes_dispatch_and_calls() {
        let p = build_gap(&Params::default());
        let r = crate::native_run(&p, 50_000_000);
        assert!(r.census.indirect_jumps >= (GAP_CODE_LEN as u64) * 22);
        assert!(r.census.direct_calls >= 22, "kernel called each pass");
        assert!(r.census.returns >= 22);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn scale_scales_work() {
        let r1 = crate::native_run(&build_perlbmk(&Params::at_scale(1)), 100_000_000);
        let r2 = crate::native_run(&build_perlbmk(&Params::at_scale(2)), 100_000_000);
        assert!(r2.instructions > r1.instructions * 3 / 2);
    }
}
