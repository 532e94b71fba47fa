//! Object-oriented-style workloads built on indirect calls:
//!
//! * `eon` — virtual dispatch through per-class vtables (252.eon is the
//!   C++ benchmark in CINT2000; its indirect calls are class-polymorphic),
//! * `vortex` — database record operations selected through a
//!   function-pointer table plus helper calls (255.vortex),
//! * `vpr` — an annealing loop whose cost function is called through a
//!   rarely-changing pointer, i.e. *monomorphic* indirect calls (175.vpr).

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

const CLASSES: usize = 16;
const METHODS: usize = 4;
const OBJECTS: usize = 512;

/// Builds the `eon` stand-in.
pub fn build_eon(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let vtables = data_base + 0x1000;
    let passes = 28 * params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0x252_E011 ^ 0xE0E0));
    let objects: Vec<u8> = (0..OBJECTS)
        .map(|_| rng.gen_range(0..CLASSES as u8))
        .collect();

    let mut src = String::new();
    // Fill the vtables: class c, method m at vtables + (c*METHODS + m)*4.
    src.push_str(&format!("    li r13, {vtables}\n"));
    for c in 0..CLASSES {
        for m in 0..METHODS {
            src.push_str(&format!(
                "    li r1, v{c}_{m}\n    sw r1, {}(r13)\n",
                (c * METHODS + m) * 4
            ));
        }
    }
    src.push_str(&format!(
        r"
    li r10, {data_base}
    li r12, {OBJECTS}
    li r5, {passes}
    li r4, 0
    li r9, 0              ; method selector (rotates per pass)
pass:
    li r11, 0
obj:
    add r7, r10, r11
    lbu r7, 0(r7)         ; class id
    li r6, {METHODS}
    mul r7, r7, r6
    add r7, r7, r9        ; + method index
    slli r7, r7, 2
    add r7, r7, r13
    lw r7, 0(r7)          ; load the method pointer from the vtable
    callr r7              ; virtual call
    addi r11, r11, 1
    cmp r11, r12
    bltu obj
    trap 0x1
    addi r9, r9, 1        ; next method next pass
    cmpi r9, {METHODS}
    bne nowrap
    li r9, 0
nowrap:
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt
"
    ));
    for c in 0..CLASSES {
        for m in 0..METHODS {
            let body = match (c + m) % 4 {
                0 => format!("    addi r4, r4, {}\n", c * 3 + m + 1),
                1 => format!("    xori r4, r4, {:#x}\n", (c << 4) | m | 0x100),
                2 => "    slli r6, r4, 1\n    xor r4, r4, r6\n".to_string(),
                _ => "    add r4, r4, r11\n".to_string(),
            };
            src.push_str(&format!("v{c}_{m}:\n{body}    ret\n"));
        }
    }

    let code = assemble(layout::APP_BASE, &src).expect("eon assembles");
    Program::new("eon", code, objects)
}

const VORTEX_OPS: usize = 32;

/// Builds the `vortex` stand-in.
pub fn build_vortex(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let optab = data_base + 0x1000;
    let records = data_base + 0x4000;
    let iters = 6_000 * params.scale;

    let mut src = String::new();
    src.push_str(&format!("    li r13, {optab}\n"));
    for op in 0..VORTEX_OPS {
        src.push_str(&format!("    li r1, op{op}\n    sw r1, {}(r13)\n", op * 4));
    }
    src.push_str(&format!(
        r"
    li r12, {records}
    li r9, 0xV0R7EX
    li r5, {iters}
    li r4, 0
txn:
    li r7, 0x10dcd        ; pick an operation
    mul r9, r9, r7
    addi r9, r9, 2531
    srli r7, r9, 16
    andi r7, r7, {mask}
    slli r7, r7, 2
    add r7, r7, r13
    lw r7, 0(r7)
    callr r7              ; dispatch the record operation
    addi r5, r5, -1
    cmpi r5, 0
    bne txn
    trap 0x1
    halt

rec_addr:                 ; r9 -> r6 = address of a record field
    srli r6, r9, 8
    andi r6, r6, 0xff
    slli r6, r6, 4        ; 16-byte records
    add r6, r6, r12
    ret
",
        mask = VORTEX_OPS - 1,
    ));
    for op in 0..VORTEX_OPS {
        let field = (op % 4) * 4;
        let body = match op % 4 {
            0 => format!("    call rec_addr\n    lw r7, {field}(r6)\n    add r4, r4, r7\n"),
            1 => format!("    call rec_addr\n    sw r4, {field}(r6)\n    addi r4, r4, {op}\n"),
            2 => format!(
                "    call rec_addr\n    lw r7, {field}(r6)\n    xor r4, r4, r7\n    sw r4, {field}(r6)\n"
            ),
            _ => format!(
                "    call rec_addr\n    lw r7, {field}(r6)\n    add r7, r7, r4\n    sw r7, {field}(r6)\n    srli r4, r4, 1\n"
            ),
        };
        src.push_str(&format!("op{op}:\n{body}    ret\n"));
    }
    // The LCG seed literal above uses a fake hex digit; fix it here instead
    // of inventing assembler syntax.
    let src = src.replace("0xV0R7EX", "0x507EC5");

    let code = assemble(layout::APP_BASE, &src).expect("vortex assembles");
    Program::new("vortex", code, Vec::new())
}

/// Builds the `vpr` stand-in.
pub fn build_vpr(params: &Params) -> Program {
    let iters = 22_000 * params.scale;
    let src = format!(
        r"
    li r8, cost_bb        ; current cost function (changes every 4096 iters)
    li r9, 0x175
    li r5, {iters}
    li r4, 0
    li r11, 0             ; iteration counter for the phase switch
anneal:
    li r7, 0x10dcd
    mul r9, r9, r7
    addi r9, r9, 907
    callr r8              ; monomorphic-by-phase indirect call
    addi r11, r11, 1
    andi r7, r11, 0xfff
    cmpi r7, 0
    bne keep
    ; phase change: toggle the cost function
    li r7, cost_bb
    cmp r8, r7
    bne use_bb
    li r8, cost_net
    jmp keep
use_bb:
    li r8, cost_bb
keep:
    addi r5, r5, -1
    cmpi r5, 0
    bne anneal
    trap 0x1
    halt

cost_bb:                  ; bounding-box style cost
    srli r2, r9, 10
    andi r2, r2, 0x3ff
    add r4, r4, r2
    ret

cost_net:                 ; net-length style cost
    srli r2, r9, 6
    andi r2, r2, 0xff
    xor r4, r4, r2
    addi r4, r4, 5
    ret
"
    );
    let code = assemble(layout::APP_BASE, &src).expect("vpr assembles");
    Program::new("vpr", code, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eon_is_virtual_call_heavy() {
        let p = build_eon(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        assert!(
            r.census.indirect_calls >= (OBJECTS as u64) * 28,
            "{}",
            r.census.indirect_calls
        );
        assert_eq!(r.census.indirect_calls, r.census.returns);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn vortex_mixes_indirect_and_direct_calls() {
        let p = build_vortex(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        assert!(r.census.indirect_calls >= 6_000);
        assert!(r.census.direct_calls >= 6_000, "helpers called by each op");
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn vpr_indirect_calls_are_monomorphic_by_phase() {
        let p = build_vpr(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        assert!(r.census.indirect_calls >= 22_000);
        assert_eq!(r.census.indirect_jumps, 0);
        assert_ne!(r.checksum, 0);
    }
}
