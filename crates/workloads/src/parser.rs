//! The `parser` stand-in: recursive-descent parsing of a generated
//! expression token stream. Like 197.parser, execution is dominated by
//! data-dependent conditional branches and call/return pairs from the
//! mutually recursive grammar procedures.

use strata_asm::assemble;
use strata_machine::{layout, Program};
use strata_stats::rng::SmallRng;

use crate::Params;

// Token kinds.
const T_NUM: u8 = 0;
const T_PLUS: u8 = 1;
const T_TIMES: u8 = 2;
const T_LPAREN: u8 = 3;
const T_RPAREN: u8 = 4;
const T_END: u8 = 5;

/// Generates a valid token stream for `expr := term ((PLUS|TIMES) term)*`,
/// `term := NUM | LPAREN expr RPAREN`. The top level keeps appending terms
/// until the budget is exhausted so the stream length is predictable;
/// nested expressions terminate randomly.
fn gen_tokens(rng: &mut SmallRng, out: &mut Vec<u8>, depth: u32, budget: &mut u32) {
    gen_term(rng, out, depth, budget);
    while *budget > 0 {
        out.push(if rng.gen_bool(0.5) { T_PLUS } else { T_TIMES });
        gen_term(rng, out, depth, budget);
    }
}

/// A nested `expr` with random continuation.
fn gen_expr(rng: &mut SmallRng, out: &mut Vec<u8>, depth: u32, budget: &mut u32) {
    gen_term(rng, out, depth, budget);
    while *budget > 0 && rng.gen_bool(0.6) {
        out.push(if rng.gen_bool(0.5) { T_PLUS } else { T_TIMES });
        gen_term(rng, out, depth, budget);
    }
}

fn gen_term(rng: &mut SmallRng, out: &mut Vec<u8>, depth: u32, budget: &mut u32) {
    *budget = budget.saturating_sub(1);
    if depth > 0 && *budget > 4 && rng.gen_bool(0.35) {
        out.push(T_LPAREN);
        gen_expr(rng, out, depth - 1, budget);
        out.push(T_RPAREN);
    } else {
        out.push(T_NUM);
    }
}

/// Builds the `parser` stand-in.
pub fn build_parser(params: &Params) -> Program {
    let data_base = layout::APP_DATA_BASE;
    let passes = 60 * params.scale;

    let mut rng = SmallRng::seed_from_u64(params.seed(0x197_197_197));
    let mut tokens = Vec::new();
    let mut budget = 480u32;
    gen_tokens(&mut rng, &mut tokens, 6, &mut budget);
    tokens.push(T_END);

    let src = format!(
        r"
    li r5, {passes}
    li r4, 0
pass:
    li r10, {data_base}   ; token cursor
    call parse_expr
    add r4, r4, r2
    trap 0x1
    addi r5, r5, -1
    cmpi r5, 0
    bne pass
    halt

; r10 = cursor (advanced), r2 = value. r6/r7 caller-saved via stack.
parse_expr:
    call parse_term
loop_ops:
    lbu r7, 0(r10)
    cmpi r7, {T_PLUS}
    beq do_plus
    cmpi r7, {T_TIMES}
    beq do_times
    ret                   ; neither: expression complete
do_plus:
    addi r10, r10, 1
    push r2
    call parse_term
    pop r6
    add r2, r2, r6
    jmp loop_ops
do_times:
    addi r10, r10, 1
    push r2
    call parse_term
    pop r6
    mul r2, r2, r6
    andi r2, r2, 0x7fff   ; keep values bounded
    jmp loop_ops

parse_term:
    lbu r7, 0(r10)
    cmpi r7, {T_LPAREN}
    beq nested
    ; NUM: value derived from the cursor position
    addi r10, r10, 1
    mov r2, r10
    andi r2, r2, 0xff
    addi r2, r2, 1
    ret
nested:
    addi r10, r10, 1      ; consume '('
    call parse_expr
    addi r10, r10, 1      ; consume ')'
    ret
",
    );

    let code = assemble(layout::APP_BASE, &src).expect("parser assembles");
    Program::new("parser", code, tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_stream_is_balanced() {
        let p = build_parser(&Params::default());
        let mut depth = 0i32;
        for &t in &p.data {
            match t {
                T_LPAREN => depth += 1,
                T_RPAREN => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert_eq!(*p.data.last().unwrap(), T_END);
    }

    #[test]
    fn parser_is_return_heavy() {
        let p = build_parser(&Params::default());
        let r = crate::native_run(&p, 100_000_000);
        assert!(r.census.returns > 10_000, "{}", r.census.returns);
        assert_eq!(r.census.indirect_jumps, 0);
        assert!(
            r.census.direct_calls == r.census.returns,
            "balanced call/ret"
        );
        assert_ne!(r.checksum, 0);
    }
}
