//! The `gzip` stand-in: LZ-style hash-chain scanning over a byte buffer.
//! Like 164.gzip, the hot loops are branchy integer code with almost no
//! indirect branches — the control case showing SDT overhead when IB
//! handling barely matters.

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

/// Input buffer size per pass.
const INPUT_LEN: usize = 24 * 1024;
/// Hash-table entries (words).
const HASH_ENTRIES: u32 = 4096;

/// Builds the `gzip` stand-in.
pub fn build_gzip(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let hash_tab = data_base + 0x10_000;
    let passes = params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0x0006_211F_1964));
    // Mildly compressible input: runs plus noise.
    let mut input = Vec::with_capacity(INPUT_LEN);
    while input.len() < INPUT_LEN {
        let b: u8 = rng.gen_range(0..64);
        let run = rng.gen_range(1..6);
        for _ in 0..run {
            input.push(b);
            if input.len() == INPUT_LEN {
                break;
            }
        }
    }

    let src = format!(
        r"
    li r5, {passes}
    li r4, 0
pass:
    li r10, {data_base}     ; input cursor
    li r12, {end}           ; end - 3
    li r13, {hash_tab}
    li r3, 0                ; match counter
scan:
    lbu r6, 0(r10)          ; hash three bytes
    lbu r7, 1(r10)
    slli r6, r6, 4
    xor r6, r6, r7
    lbu r7, 2(r10)
    slli r6, r6, 2
    xor r6, r6, r7
    andi r6, r6, {mask}
    slli r6, r6, 2
    add r6, r6, r13         ; table slot
    lw r7, 0(r6)            ; previous position with this hash
    sw r10, 0(r6)           ; record ours
    cmpi r7, 0
    beq nomatch
    lbu r8, 0(r7)           ; candidate match: compare first byte
    lbu r9, 0(r10)
    cmp r8, r9
    bne nomatch
    addi r3, r3, 1          ; count the match
nomatch:
    addi r10, r10, 1
    cmp r10, r12
    bltu scan
    add r4, r4, r3
    call flush
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt
flush:                      ; per-pass block flush, the only call site
    xori r4, r4, 0x5c5c
    trap 0x1
    ret
",
        end = data_base + (INPUT_LEN as u32) - 3,
        mask = HASH_ENTRIES - 1,
    );

    let code = assemble(layout::APP_BASE, &src).expect("gzip assembles");
    Program::new("gzip", code, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gzip_has_almost_no_indirect_branches() {
        let p = build_gzip(&Params::default());
        let r = crate::native_run(&p, 50_000_000);
        assert!(r.instructions > 400_000, "{}", r.instructions);
        assert_eq!(r.census.indirect_jumps, 0);
        assert_eq!(r.census.indirect_calls, 0);
        assert_eq!(r.census.returns, 1, "one flush per pass at scale 1");
        assert_ne!(r.checksum, 0);
        assert_eq!(r, crate::native_run(&p, 50_000_000));
    }
}
