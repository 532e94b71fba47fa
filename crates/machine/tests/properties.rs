//! Machine-level randomized tests: stack discipline, flags preservation,
//! memory round-trips, and determinism of execution. Driven by the repo's
//! deterministic [`SmallRng`] rather than an external property-testing
//! framework.

use strata_asm::CodeBuilder;
use strata_isa::{Flags, Instr, Reg};
use strata_machine::{
    layout, Cpu, ExecTier, Machine, MachineError, Memory, NullObserver, StepOutcome,
};
use strata_stats::rng::SmallRng;
use strata_testgen::wordgen::WordProgram;

fn fresh_machine() -> Machine {
    Machine::new(layout::DEFAULT_MEM_BYTES)
}

fn run_code(b: CodeBuilder) -> Machine {
    let mut m = fresh_machine();
    let code = b.finish().expect("assembles");
    m.write_code(layout::APP_BASE, &code).unwrap();
    m.cpu_mut().pc = layout::APP_BASE;
    let out = m.run(&mut NullObserver, 1_000_000).expect("runs");
    assert_eq!(out, StepOutcome::Halted);
    m
}

#[test]
fn push_pop_sequences_preserve_sp() {
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0001);
    for _ in 0..50 {
        let values: Vec<u32> = (0..rng.gen_range(1usize..16))
            .map(|_| rng.next_u32())
            .collect();
        let mut b = CodeBuilder::new(layout::APP_BASE);
        for (i, v) in values.iter().enumerate() {
            let r = Reg::try_from((1 + i % 12) as u8).unwrap();
            b.li(r, *v);
            b.push(r);
        }
        for _ in &values {
            b.pop(Reg::R14);
        }
        b.halt();
        let m = run_code(b);
        assert_eq!(m.cpu().sp(), layout::DEFAULT_MEM_BYTES);
        // The last pop yields the first pushed value.
        assert_eq!(m.cpu().reg(Reg::R14), values[0]);
    }
}

#[test]
fn pushf_popf_is_identity_on_flags() {
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0002);
    for _ in 0..100 {
        let (a, b_val) = (rng.next_u32(), rng.next_u32());
        let mut b = CodeBuilder::new(layout::APP_BASE);
        b.li(Reg::R1, a);
        b.li(Reg::R2, b_val);
        b.cmp(Reg::R1, Reg::R2);
        b.pushf();
        // Scramble flags, then restore.
        b.cmpi(Reg::R1, 0);
        b.popf();
        b.halt();
        let m = run_code(b);
        assert_eq!(m.cpu().flags, Flags::from_compare(a, b_val));
    }
    // Equal operands, the boundary the random draws are unlikely to hit.
    let mut b = CodeBuilder::new(layout::APP_BASE);
    b.li(Reg::R1, 7);
    b.li(Reg::R2, 7);
    b.cmp(Reg::R1, Reg::R2);
    b.pushf();
    b.cmpi(Reg::R1, 0);
    b.popf();
    b.halt();
    assert_eq!(run_code(b).cpu().flags, Flags::from_compare(7, 7));
}

#[test]
fn memory_word_roundtrip_via_guest_code() {
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0003);
    for _ in 0..100 {
        let value = rng.next_u32();
        let addr = layout::APP_DATA_BASE + rng.gen_range(0u32..4096) * 4;
        let mut b = CodeBuilder::new(layout::APP_BASE);
        b.li(Reg::R1, addr);
        b.li(Reg::R2, value);
        b.sw(Reg::R2, Reg::R1, 0);
        b.lw(Reg::R3, Reg::R1, 0);
        b.halt();
        let m = run_code(b);
        assert_eq!(m.cpu().reg(Reg::R3), value);
        assert_eq!(m.mem().read_u32(addr).unwrap(), value);
    }
}

#[test]
fn byte_ops_sign_and_zero_extend() {
    for value in 0u32..=255 {
        let addr = layout::APP_DATA_BASE;
        let mut b = CodeBuilder::new(layout::APP_BASE);
        b.li(Reg::R1, addr);
        b.li(Reg::R2, value);
        b.sb(Reg::R2, Reg::R1, 0);
        b.lbu(Reg::R3, Reg::R1, 0);
        b.lb(Reg::R4, Reg::R1, 0);
        b.halt();
        let m = run_code(b);
        assert_eq!(m.cpu().reg(Reg::R3), value);
        assert_eq!(m.cpu().reg(Reg::R4), value as u8 as i8 as i32 as u32);
    }
}

#[test]
fn alu_matches_host_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0004);
    let mut cases: Vec<(u32, u32)> = (0..100).map(|_| (rng.next_u32(), rng.next_u32())).collect();
    // Boundary operands a uniform draw essentially never produces.
    for edge in [0u32, 1, 31, 32, u32::MAX, i32::MAX as u32, i32::MIN as u32] {
        cases.push((edge, 0));
        cases.push((edge, 1));
        cases.push((edge, 32));
        cases.push((edge, u32::MAX));
    }
    for (x, y) in cases {
        let mut b = CodeBuilder::new(layout::APP_BASE);
        b.li(Reg::R1, x);
        b.li(Reg::R2, y);
        b.add(Reg::R3, Reg::R1, Reg::R2);
        b.sub(Reg::R4, Reg::R1, Reg::R2);
        b.mul(Reg::R5, Reg::R1, Reg::R2);
        b.divu(Reg::R6, Reg::R1, Reg::R2);
        b.remu(Reg::R7, Reg::R1, Reg::R2);
        b.xor(Reg::R8, Reg::R1, Reg::R2);
        b.sll(Reg::R9, Reg::R1, Reg::R2);
        b.sra(Reg::R10, Reg::R1, Reg::R2);
        b.halt();
        let m = run_code(b);
        assert_eq!(m.cpu().reg(Reg::R3), x.wrapping_add(y));
        assert_eq!(m.cpu().reg(Reg::R4), x.wrapping_sub(y));
        assert_eq!(m.cpu().reg(Reg::R5), x.wrapping_mul(y));
        assert_eq!(m.cpu().reg(Reg::R6), x.checked_div(y).unwrap_or(u32::MAX));
        assert_eq!(m.cpu().reg(Reg::R7), x.checked_rem(y).unwrap_or(x));
        assert_eq!(m.cpu().reg(Reg::R8), x ^ y);
        assert_eq!(m.cpu().reg(Reg::R9), x << (y & 31));
        assert_eq!(m.cpu().reg(Reg::R10), ((x as i32) >> (y & 31)) as u32);
    }
}

#[test]
fn execution_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0005);
    for _ in 0..20 {
        let seed = rng.next_u32();
        // A small LCG loop; two runs must end in identical machine state.
        let build = || {
            let mut b = CodeBuilder::new(layout::APP_BASE);
            let top = b.new_label();
            b.li(Reg::R9, seed);
            b.li(Reg::R5, 50);
            b.li(Reg::R7, 0x10dcd);
            b.bind(top).unwrap();
            b.mul(Reg::R9, Reg::R9, Reg::R7);
            b.addi(Reg::R9, Reg::R9, 12345);
            b.addi(Reg::R5, Reg::R5, -1);
            b.cmpi(Reg::R5, 0);
            b.bne(top);
            b.halt();
            run_code(b)
        };
        let a = build();
        let b2 = build();
        assert_eq!(a.cpu().regs(), b2.cpu().regs());
        assert_eq!(a.cpu().flags, b2.cpu().flags);
    }
}

#[test]
fn instruction_instances_where_rd_equals_operands() {
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0006);
    for _ in 0..50 {
        let x = rng.next_u32();
        // rd == rs1 == rs2 must behave like ordinary SSA-expanded code.
        let mut b = CodeBuilder::new(layout::APP_BASE);
        b.li(Reg::R1, x);
        b.add(Reg::R1, Reg::R1, Reg::R1);
        b.halt();
        let m = run_code(b);
        assert_eq!(m.cpu().reg(Reg::R1), x.wrapping_add(x));
    }
}

#[test]
fn call_pushes_exactly_the_return_address() {
    let mut b = CodeBuilder::new(layout::APP_BASE);
    let f = b.new_label();
    b.call(f); // at APP_BASE, so return addr is APP_BASE + 4
    b.halt();
    b.bind(f).unwrap();
    b.lw(Reg::R1, Reg::SP, 0);
    b.ret();
    let m = run_code(b);
    assert_eq!(m.cpu().reg(Reg::R1), layout::APP_BASE + 4);
    assert_eq!(m.cpu().sp(), layout::DEFAULT_MEM_BYTES);
}

#[test]
fn decode_cache_tracks_self_modifying_code() {
    // A program that rewrites an upcoming instruction, exercising the
    // decode-cache invalidation path from guest code.
    let mut b = CodeBuilder::new(layout::APP_BASE);
    let patch_site = b.new_label();
    // Overwrite the instruction at `patch_site` with `addi r4, r4, 7`:
    let replacement = strata_isa::encode(&Instr::Addi {
        rd: Reg::R4,
        rs1: Reg::R4,
        imm: 7,
    });
    b.li(Reg::R1, replacement);
    b.li_label(Reg::R2, patch_site);
    b.sw(Reg::R1, Reg::R2, 0);
    b.li(Reg::R4, 0);
    b.bind(patch_site).unwrap();
    b.nop(); // becomes addi r4, r4, 7 at run time
    b.halt();
    let m = run_code(b);
    assert_eq!(m.cpu().reg(Reg::R4), 7, "patched instruction must execute");
}

/// How a word program ends: outcome, CPU state and the whole image.
type FinalState = (Result<StepOutcome, MachineError>, Cpu, Vec<u8>);

fn final_state(mut m: Machine, tier: ExecTier) -> FinalState {
    m.set_tier(tier);
    let out = m.run(&mut NullObserver, 20_000);
    let image = m.mem().read_bytes(0, m.mem().size()).unwrap().to_vec();
    (out, m.cpu().clone(), image)
}

#[test]
fn a_machine_on_a_recycled_image_ends_where_a_first_machine_does() {
    // `Memory` parks its image on drop, process-wide, and `Machine::new`
    // builds on a parked one: from the second trial on, the image the
    // last trial's program (or a concurrent test's) scribbled on. A store
    // path that misses its dirty mark leaves residue there that the
    // reference, on an image no one has ever stored to, does not have.
    let mut rng = SmallRng::seed_from_u64(0x3AC8_0007);
    for trial in 0..24 {
        let prog = WordProgram::generate(&mut rng);
        let tier = if trial % 2 == 0 {
            ExecTier::Interp
        } else {
            ExecTier::Threaded(Default::default())
        };
        let pristine = Machine::with_memory(Memory::fresh(layout::DEFAULT_MEM_BYTES));
        let first = final_state(prog.instantiate_on(pristine), tier);
        assert!(
            final_state(prog.instantiate(), tier) == first,
            "trial {trial} diverged"
        );
    }
}
