//! The `bzip2` stand-in: shell sort plus a run-length pass over the sorted
//! output. Like 256.bzip2's block sorting, the hot code is comparison
//! loops with dense conditional branches and essentially no indirect
//! branches.

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

/// Words to sort per pass.
const N: u32 = 2048;
/// Shell-sort gap sequence (Ciura-style, descending).
const GAPS: [u32; 8] = [701, 301, 132, 57, 23, 10, 4, 1];

/// Builds the `bzip2` stand-in.
pub fn build_bzip2(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let work = data_base + 0x8000; // scratch copy sorted each pass
    let gaps = data_base + 0x4000;
    let passes = 2 * params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0x256B21));
    let mut data: Vec<u8> = Vec::new();
    for _ in 0..N {
        data.extend_from_slice(&rng.gen_range(0u32..0x1_0000).to_le_bytes());
    }
    // Gap sequence appended at +0x4000 via guest init instead: keep the
    // blob contiguous by writing gaps from code.

    let mut src = String::new();
    for (i, g) in GAPS.iter().enumerate() {
        src.push_str(&format!(
            "    li r1, {g}\n    li r2, {}\n    sw r1, 0(r2)\n",
            gaps + (i as u32) * 4
        ));
    }
    src.push_str(&format!(
        r"
    li r5, {passes}
    li r4, 0
pass:
    ; copy input -> work (the sort is in-place, input must stay pristine)
    li r10, {data_base}
    li r11, {work}
    li r12, {n}
copy:
    lw r7, 0(r10)
    sw r7, 0(r11)
    addi r10, r10, 4
    addi r11, r11, 4
    addi r12, r12, -1
    cmpi r12, 0
    bne copy

    ; shell sort over work[0..N]
    li r13, {gaps_base}   ; gap cursor
    li r14, {gaps_end}
gaploop:
    lw r9, 0(r13)         ; gap
    mov r1, r9            ; i = gap
iloop:
    cmpi r1, 0
    beq inext             ; unreachable guard
    li r7, {n}
    cmp r1, r7
    bgeu gapdone
    ; tmp = work[i]
    slli r6, r1, 2
    li r7, {work}
    add r6, r6, r7
    lw r2, 0(r6)          ; tmp
    mov r3, r1            ; j = i
jloop:
    cmp r3, r9
    bltu place            ; j < gap
    sub r6, r3, r9        ; j - gap
    slli r6, r6, 2
    li r7, {work}
    add r6, r6, r7
    lw r8, 0(r6)          ; work[j-gap]
    cmp r8, r2
    bgeu shift
    jmp place
shift:
    slli r6, r3, 2
    li r7, {work}
    add r6, r6, r7
    sub r6, r6, r9
    sub r6, r6, r9
    sub r6, r6, r9
    sub r6, r6, r9        ; &work[j-gap] (gap*4 subtracted)
    lw r8, 0(r6)
    slli r6, r3, 2
    add r6, r6, r7
    sw r8, 0(r6)          ; work[j] = work[j-gap]
    sub r3, r3, r9
    jmp jloop
place:
    slli r6, r3, 2
    li r7, {work}
    add r6, r6, r7
    sw r2, 0(r6)          ; work[j] = tmp
inext:
    addi r1, r1, 1
    jmp iloop
gapdone:
    addi r13, r13, 4
    cmp r13, r14
    bltu gaploop

    ; run-length pass over the sorted data
    li r10, {work}
    li r12, {n_minus_1}
    li r3, 0              ; runs
rle:
    lw r6, 0(r10)
    lw r7, 4(r10)
    cmp r6, r7
    bne newrun
    addi r3, r3, 1
newrun:
    addi r10, r10, 4
    addi r12, r12, -1
    cmpi r12, 0
    bne rle
    add r4, r4, r3
    ; fold a sample of the sorted output into the checksum
    li r10, {work}
    lw r6, 512(r10)
    add r4, r4, r6
    trap 0x1
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt
",
        n = N,
        n_minus_1 = N - 1,
        gaps_base = gaps,
        gaps_end = gaps + (GAPS.len() as u32) * 4,
        work = work,
    ));

    let code = assemble(layout::APP_BASE, &src).expect("bzip2 assembles");
    Program::new("bzip2", code, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bzip2_sorts_and_has_no_indirect_branches() {
        let p = build_bzip2(&Params::default());
        let r = crate::native_run(&p, 200_000_000);
        assert!(r.instructions > 300_000, "{}", r.instructions);
        assert_eq!(r.census.indirect_branches(), 0);
        assert_ne!(r.checksum, 0);
        assert_eq!(r, crate::native_run(&p, 200_000_000));
    }

    #[test]
    fn sort_actually_sorts() {
        // Execute one pass on the machine and inspect the work buffer.
        use strata_machine::{run_to_halt, ExecTier, InstrCounter};
        let p = build_bzip2(&Params::at_scale(1));
        let mut counter = InstrCounter::default();
        let (_, m) = run_to_halt(
            &p,
            ExecTier::Interp,
            500_000_000,
            &mut counter,
            InstrCounter::retired,
        )
        .unwrap();
        let work = layout::APP_DATA_BASE + 0x8000;
        let mut prev = 0u32;
        for i in 0..N {
            let v = m.mem().read_u32(work + i * 4).unwrap();
            assert!(v >= prev, "work[{i}] = {v} < {prev}");
            prev = v;
        }
    }
}
