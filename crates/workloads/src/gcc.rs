//! The `gcc` stand-in: a wide switch (jump table) over an IR opcode
//! stream, with helper calls and a bounded recursive evaluator — the
//! dispatch-plus-call-tree shape of 176.gcc's RTL passes.

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

/// Switch arms in the dispatcher.
const CASES: usize = 128;
/// Distinct helper procedures called from switch arms.
const HELPERS: usize = 32;
/// IR stream length.
const IR_LEN: usize = 1024;

/// Builds the `gcc` stand-in.
pub fn build_gcc(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let table = data_base + 0x1000;
    let passes = 12 * params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0x1766_CC00_DEAD_BEEF));
    let ir: Vec<u8> = (0..IR_LEN).map(|_| rng.gen_range(0..CASES as u8)).collect();

    let mut src = String::new();
    src.push_str(&format!("    li r13, {table}\n"));
    for c in 0..CASES {
        src.push_str(&format!("    li r1, c{c}\n    sw r1, {}(r13)\n", c * 4));
    }
    src.push_str(&format!(
        r"
    li r10, {data_base}
    li r12, {IR_LEN}
    li r5, {passes}
    li r4, 0
    li r9, 0x12345
pass:
    li r11, 0
iloop:
    add r7, r10, r11
    lbu r7, 0(r7)
    slli r7, r7, 2
    add r7, r7, r13
    lw r7, 0(r7)
    jr r7               ; the switch on the IR opcode
"
    ));
    for c in 0..CASES {
        let body = if c >= CASES - HELPERS {
            // The last 32 arms each call a distinct helper procedure,
            // giving the benchmark a wide spread of return targets.
            format!("    call helper{}\n", c - (CASES - HELPERS))
        } else {
            match c % 6 {
                0 => format!("    addi r4, r4, {}\n", c + 1),
                1 => format!("    xori r4, r4, {:#x}\n", c * 3 + 1),
                2 => "    add r4, r4, r11\n".to_string(),
                3 => format!("    slli r6, r4, {}\n    xor r4, r4, r6\n", 1 + c % 5),
                4 => format!("    srli r6, r4, {}\n    add r4, r4, r6\n", 1 + c % 7),
                _ => "    li r1, 3\n    call eval\n    add r4, r4, r2\n".to_string(),
            }
        };
        src.push_str(&format!("c{c}:\n{body}    jmp cnext\n"));
    }
    src.push_str(
        r"
cnext:
    addi r11, r11, 1
    cmp r11, r12
    bltu iloop
    trap 0x1
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt

{HELPERS}eval:                   ; bounded binary-recursive expression evaluator
    cmpi r1, 0
    bne eval_rec
    andi r2, r4, 0xF
    addi r2, r2, 1
    ret
eval_rec:
    push r1
    push r6
    addi r1, r1, -1
    call eval
    mov r6, r2
    lw r1, 4(sp)
    addi r1, r1, -1
    call eval
    add r2, r2, r6
    pop r6
    pop r1
    ret
",
    );
    // Helper procedures: 32 distinct bodies (folding, hash probes,
    // bookkeeping) so the call-site/return-target population is wide.
    let mut helpers = String::new();
    for h in 0..HELPERS {
        let body = match h % 4 {
            0 => format!(
                "    li r6, 0x10dcd\n    mul r9, r9, r6\n    addi r9, r9, {}\n    srli r6, r9, 16\n    add r4, r4, r6\n",
                700 + h
            ),
            1 => format!(
                "    andi r6, r4, 0xFF\n    slli r6, r6, 2\n    li r7, {{CSE}}\n    add r6, r6, r7\n    lw r7, {}(r6)\n    add r4, r4, r7\n    sw r4, {}(r6)\n",
                (h / 4) * 4, (h / 4) * 4
            ),
            2 => format!("    addi r4, r4, {}\n    xori r4, r4, {:#x}\n", h + 3, 0x1111 + h),
            _ => format!("    slli r6, r4, {}\n    xor r4, r4, r6\n    addi r4, r4, {}\n", 1 + h % 5, h),
        };
        helpers.push_str(&format!("helper{h}:\n{body}    ret\n"));
    }
    let src = src.replace("{HELPERS}", &helpers);
    let src = src.replace("{CSE}", &(data_base + 0x2000).to_string());

    let code = assemble(layout::APP_BASE, &src).expect("gcc assembles");
    Program::new("gcc", code, ir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcc_profile() {
        let p = build_gcc(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        assert!(
            r.census.indirect_jumps >= (IR_LEN as u64) * 12,
            "{}",
            r.census.indirect_jumps
        );
        assert!(
            r.census.direct_calls > 1000,
            "case handlers call helpers: {}",
            r.census.direct_calls
        );
        assert!(r.census.returns > 1000);
        assert_ne!(r.checksum, 0);
        // Deterministic.
        assert_eq!(r, crate::native_run(&p, 100_000_000));
    }
}
