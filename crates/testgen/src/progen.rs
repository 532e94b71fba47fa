//! Structured random program generation (terminating loops).
//!
//! Extracted from the SDT randomized-equivalence test: programs are a
//! counted outer loop whose body is a random mix of straight-line
//! arithmetic, memory round-trips, direct calls into a function table,
//! indirect calls/jumps through that table, and trap checkpoints. They
//! always terminate, so they can be run to completion and compared by
//! checksum/final state rather than under lockstep fuel.

use strata_asm::CodeBuilder;
use strata_isa::Reg;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

/// One action in a generated loop body.
#[derive(Debug, Clone)]
pub enum Action {
    Arith(u8),
    MemRoundTrip(u16),
    DirectCall(usize),
    IndirectCall(usize),
    IndirectJump(usize),
    Checkpoint,
}

/// Draws one random action; call targets index a table of `functions`.
pub fn rand_action(rng: &mut SmallRng, functions: usize) -> Action {
    match rng.gen_range(0u32..6) {
        0 => Action::Arith(rng.gen_range(0u8..6)),
        1 => Action::MemRoundTrip(rng.gen_range(0u16..512)),
        2 => Action::DirectCall(rng.gen_range(0..functions)),
        3 => Action::IndirectCall(rng.gen_range(0..functions)),
        4 => Action::IndirectJump(rng.gen_range(0..functions)),
        _ => Action::Checkpoint,
    }
}

/// Builds a terminating program from a generated action list.
///
/// Register roles: r4 accumulator, r5 outer-loop counter, r8 function-table
/// base, r7 scratch target.
pub fn build_program(actions: &[Action], functions: usize, iters: u8) -> Program {
    build_program_padded(actions, functions, iters, 0)
}

/// [`build_program`] with `pad` `nop`s between the initialisation and the
/// loop: every indirect target and return address — everything a lookup
/// table hashes — moves `pad` words up, so a test can place the highest
/// one at a chosen table index.
pub fn build_program_padded(actions: &[Action], functions: usize, iters: u8, pad: u32) -> Program {
    let mut b = CodeBuilder::new(layout::APP_BASE);
    let table = layout::APP_DATA_BASE;

    let fn_labels: Vec<_> = (0..functions).map(|_| b.new_label()).collect();

    // Init: fill the function-pointer table.
    b.li(Reg::R8, table);
    for (i, l) in fn_labels.iter().enumerate() {
        b.li_label(Reg::R1, *l);
        b.sw(Reg::R1, Reg::R8, (i * 4) as i16);
    }
    b.li(Reg::R4, 0x1234);
    b.li(Reg::R5, iters as u32);
    for _ in 0..pad {
        b.nop();
    }

    let top = b.here();
    for (idx, action) in actions.iter().enumerate() {
        match action {
            Action::Arith(k) => {
                match k % 6 {
                    0 => b.addi(Reg::R4, Reg::R4, 7),
                    1 => b.xori(Reg::R4, Reg::R4, 0x5A5A),
                    2 => b.slli(Reg::R6, Reg::R4, 3).add(Reg::R4, Reg::R4, Reg::R6),
                    3 => b.srli(Reg::R6, Reg::R4, 5).xor(Reg::R4, Reg::R4, Reg::R6),
                    4 => b.sub(Reg::R4, Reg::R4, Reg::R5),
                    _ => {
                        b.li(Reg::R6, 0x10dcd);
                        b.mul(Reg::R4, Reg::R4, Reg::R6)
                    }
                };
            }
            Action::MemRoundTrip(off) => {
                let addr = layout::APP_DATA_BASE + 0x1000 + (*off as u32) * 4;
                b.li(Reg::R6, addr);
                b.sw(Reg::R4, Reg::R6, 0);
                b.lw(Reg::R7, Reg::R6, 0);
                b.add(Reg::R4, Reg::R4, Reg::R7);
            }
            Action::DirectCall(f) => {
                b.call(fn_labels[*f]);
            }
            Action::IndirectCall(f) => {
                b.lw(Reg::R7, Reg::R8, (*f * 4) as i16);
                b.callr(Reg::R7);
            }
            Action::IndirectJump(f) => {
                // Jump through a register over a poison instruction; the
                // target index perturbs the accumulator so different
                // generated jumps stay distinguishable.
                let l = b.new_label();
                b.li_label(Reg::R7, l);
                b.jr(Reg::R7);
                b.addi(Reg::R4, Reg::R4, 9999); // skipped if jr is correct
                b.bind(l).expect("fresh label");
                b.addi(Reg::R4, Reg::R4, (idx + f) as i16);
            }
            Action::Checkpoint => {
                b.trap(0x1);
            }
        }
    }
    b.addi(Reg::R5, Reg::R5, -1);
    b.cmpi(Reg::R5, 0);
    b.bne(top);
    b.trap(0x1);
    b.halt();

    // Function bodies: one per label, distinct arithmetic, all return.
    for (i, l) in fn_labels.iter().enumerate() {
        b.bind(*l).expect("function label bound once");
        match i % 3 {
            0 => b.addi(Reg::R4, Reg::R4, (i as i16) + 1),
            1 => b.xori(Reg::R4, Reg::R4, (i as u16) | 0x80),
            _ => b.srli(Reg::R6, Reg::R4, 2).add(Reg::R4, Reg::R4, Reg::R6),
        };
        b.ret();
    }

    let code = b.finish().expect("generated program assembles");
    Program::new("generated", code, Vec::new())
}
