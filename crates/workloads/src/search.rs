//! Search workloads: `crafty` (deep recursive game-tree search — the
//! call/return-dominated extreme, like 186.crafty) and `twolf` (annealing
//! with a small move-type dispatch table, like 300.twolf).

use strata_asm::assemble;
use strata_machine::{layout, Program};

use crate::Params;

/// Search depth (3-ary tree ⇒ 3^DEPTH leaves per search).
const DEPTH: u32 = 7;

/// Builds the `crafty` stand-in.
pub fn build_crafty(params: &Params) -> Program {
    let searches = 8 * params.scale;
    let src = format!(
        r"
    li r9, 0xC4AF7        ; eval RNG state
    li r5, {searches}
    li r4, 0
game:
    li r1, {DEPTH}
    call search
    add r4, r4, r2
    trap 0x1
    addi r5, r5, -1
    cmpi r5, 0
    bne game
    halt

search:                   ; r1 = depth -> r2 = score; 3 children per node
    cmpi r1, 0
    bne srec
    ; leaf: pick one of eight evaluators (distinct call sites, so the
    ; return-target population is realistic)
    li r7, 0x10dcd
    mul r9, r9, r7
    addi r9, r9, 12345
    srli r7, r9, 13
    andi r7, r7, 7
    cmpi r7, 0
    beq leaf0
    cmpi r7, 1
    beq leaf1
    cmpi r7, 2
    beq leaf2
    cmpi r7, 3
    beq leaf3
    cmpi r7, 4
    beq leaf4
    cmpi r7, 5
    beq leaf5
    cmpi r7, 6
    beq leaf6
    call evaluate7
    ret
leaf0:
    call evaluate0
    ret
leaf1:
    call evaluate1
    ret
leaf2:
    call evaluate2
    ret
leaf3:
    call evaluate3
    ret
leaf4:
    call evaluate4
    ret
leaf5:
    call evaluate5
    ret
leaf6:
    call evaluate6
    ret
srec:
    push r1
    push r6
    li r6, 0
    lw r1, 4(sp)
    addi r1, r1, -1
    call search
    add r6, r6, r2
    lw r1, 4(sp)
    addi r1, r1, -1
    call search
    add r6, r6, r2
    lw r1, 4(sp)
    addi r1, r1, -1
    call search
    add r6, r6, r2
    srli r2, r6, 1        ; combine child scores
    addi r2, r2, 3
    pop r6
    pop r1
    ret

{{EVALS}}"
    );
    let mut evals = String::new();
    for e in 0..8 {
        evals.push_str(&format!(
            "evaluate{e}:              ; leaf evaluation variant {e}\n    li r7, 0x10dcd\n    mul r9, r9, r7\n    addi r9, r9, {}\n    srli r2, r9, {}\n    andi r2, r2, 0xff\n    ret\n",
            12000 + e * 13,
            16 + e
        ));
    }
    let src = src.replace("{EVALS}", &evals);
    let code = assemble(layout::APP_BASE, &src).expect("crafty assembles");
    Program::new("crafty", code, Vec::new())
}

/// Move types in the twolf annealer.
const MOVE_TYPES: usize = 16;

/// Builds the `twolf` stand-in.
pub fn build_twolf(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let table = data_base + 0x1000;
    let iters = 26_000 * params.scale;

    let mut src = String::new();
    src.push_str(&format!("    li r13, {table}\n"));
    for m in 0..MOVE_TYPES {
        src.push_str(&format!("    li r1, m{m}\n    sw r1, {}(r13)\n", m * 4));
    }
    src.push_str(&format!(
        r"
    li r9, 0x2001
    li r5, {iters}
    li r4, 0
anneal:
    li r7, 0x10dcd        ; pick a move type with the LCG
    mul r9, r9, r7
    addi r9, r9, 12345
    srli r7, r9, 18
    andi r7, r7, {mask}
    slli r7, r7, 2
    add r7, r7, r13
    lw r7, 0(r7)
    jr r7                 ; move-type dispatch
{{MOVES}}accept:
    addi r5, r5, -1
    cmpi r5, 0
    bne anneal
    trap 0x1
    halt
penalty:
    addi r4, r4, -7
    xori r4, r4, 0x3333
    ret
",
        mask = MOVE_TYPES - 1,
    ));
    let mut moves = String::new();
    for m in 0..MOVE_TYPES {
        let body = match m % 4 {
            0 => format!("    srli r6, r9, {}\n    xor r4, r4, r6\n", 4 + m % 12),
            1 => format!("    srli r6, r9, {}\n    add r4, r4, r6\n", 8 + m % 8),
            2 => format!(
                "    slli r6, r4, {0}\n    srli r7, r4, {1}\n    or r4, r6, r7\n",
                1 + m % 7,
                31 - m % 7
            ),
            _ => "    call penalty\n".to_string(),
        };
        moves.push_str(&format!("m{m}:\n{body}    jmp accept\n"));
    }
    let src = src.replace("{MOVES}", &moves);
    let code = assemble(layout::APP_BASE, &src).expect("twolf assembles");
    Program::new("twolf", code, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crafty_is_call_return_dominated() {
        let p = build_crafty(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        // 3^7 leaves + internal nodes per search, 8 searches.
        assert!(r.census.returns > 20_000, "{}", r.census.returns);
        assert_eq!(r.census.indirect_jumps, 0);
        assert!(r.census.returns as f64 / r.instructions as f64 > 0.02);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn twolf_dispatches_moves() {
        let p = build_twolf(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        assert!(r.census.indirect_jumps >= 26_000);
        assert!(
            r.census.returns > 1000,
            "penalty calls: {}",
            r.census.returns
        );
        assert_ne!(r.checksum, 0);
    }
}
