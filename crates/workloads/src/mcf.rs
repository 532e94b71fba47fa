//! The `mcf` stand-in: pointer chasing through a shuffled successor array.
//! 181.mcf's network-simplex loops are memory-latency bound with few
//! indirect branches; under an SDT its slowdown is dominated by everything
//! *except* IB handling, making it a useful contrast point.

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

/// Nodes in the successor cycle (128 KiB of data — far beyond L1).
const NODES: usize = 32 * 1024;

/// Builds the `mcf` stand-in.
pub fn build_mcf(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let steps = 140_000 * params.scale;

    // A single-cycle permutation (Sattolo's algorithm) so the walk visits
    // every node before repeating — maximal cache hostility.
    let mut rng = SmallRng::seed_from_u64(params.seed(0x0181_0181_0181_0181));
    let mut next: Vec<u32> = (0..NODES as u32).collect();
    for i in (1..NODES).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let data: Vec<u8> = next.iter().flat_map(|w| w.to_le_bytes()).collect();

    let src = format!(
        r"
    li r10, {data_base}
    li r11, 0               ; current node
    li r5, {steps}
    li r4, 0
walk:
    slli r7, r11, 2
    add r7, r7, r10
    lw r11, 0(r7)           ; chase the successor pointer
    add r4, r4, r11
    addi r5, r5, -1
    cmpi r5, 0
    bne walk
    trap 0x1
    halt
"
    );

    let code = assemble(layout::APP_BASE, &src).expect("mcf assembles");
    Program::new("mcf", code, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcf_is_pure_pointer_chasing() {
        let p = build_mcf(&Params::default());
        let r = crate::native_run(&p, 50_000_000);
        assert!(r.instructions > 800_000);
        assert_eq!(r.census.indirect_branches(), 0);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn successor_array_is_one_cycle() {
        let p = build_mcf(&Params::default());
        let next: Vec<u32> = p
            .data
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut seen = vec![false; NODES];
        let mut cur = 0u32;
        for _ in 0..NODES {
            assert!(!seen[cur as usize], "cycle shorter than NODES");
            seen[cur as usize] = true;
            cur = next[cur as usize];
        }
        assert_eq!(cur, 0, "walk returns to the start after NODES steps");
    }
}
