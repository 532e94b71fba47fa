//! Shared code stubs emitted once at fragment-cache initialization.
//!
//! The stubs are the physical manifestation of "context switch overhead":
//! a miss tail saves the full register file and flags before trapping into
//! the translator, and a restore stub reloads everything before resuming in
//! the cache. Their instruction counts (≈18 each way, plus the trap cost)
//! are why the paper's baseline — re-entering the translator on *every*
//! indirect branch — is so expensive.
//!
//! Strategy-specific stub code (per-binding miss glue, out-of-line lookup
//! routines) is emitted right after these by the strategy layer — see
//! [`crate::strategy`].

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::config::FlagsPolicy;
use crate::emitter::Cache;
use crate::protocol::{
    reg_slot, SITE_NOFILL, SITE_SHARED, SLOT_FLAGS, SLOT_RESUME, SLOT_TARGET, TRAP_MISS,
    TRAP_RC_MISS,
};
use crate::{Origin, SdtConfig, SdtError};

/// Addresses of the shared stubs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stubs {
    /// Full restore (registers + flags + dispatch spills) ending
    /// `jmem [SLOT_RESUME]`; resume point after a `TRAP_MISS`.
    pub restore: u32,
    /// Partial restore (`r0`, `r4`–`r15` only) for return-cache misses —
    /// flags and `r1`–`r3` are restored by the target fragment's own
    /// restore sequence.
    pub rc_restore: u32,
    /// Miss tail entered with the flags word already pushed on the
    /// application stack (dispatch-sequence misses).
    pub miss_tail_stack_flags: u32,
    /// Miss tail entered with the application flags still live in the
    /// flags register (direct-branch exit stubs).
    pub miss_tail_reg_flags: u32,
    /// Sets `SLOT_SITE = SITE_SHARED` and falls into the stack-flags miss
    /// tail; target of shared-structure (IBTC/sieve) miss paths under a
    /// single strategy binding.
    pub shared_miss_glue: u32,
    /// Sets `SLOT_SITE = SITE_NOFILL` and falls into the stack-flags miss
    /// tail; target of shadow-stack return fallbacks.
    pub nofill_miss_glue: u32,
    /// Return-cache miss stub: partial save + `TRAP_RC_MISS`.
    pub rc_miss: u32,
}

/// The registers a full context switch must save/restore beyond the
/// dispatch spills `r1`–`r3`: `r0` and `r4`–`r15`.
fn bulk_regs() -> impl Iterator<Item = Reg> {
    std::iter::once(Reg::R0).chain((4..16).map(|i| Reg::try_from(i).expect("0..16")))
}

/// Emits all strategy-independent shared stubs.
pub(crate) fn emit_stubs(
    cache: &mut Cache,
    mem: &mut Memory,
    cfg: &SdtConfig,
) -> Result<Stubs, SdtError> {
    let save_flags = cfg.flags == FlagsPolicy::Always;
    let o = Origin::ContextSwitch;

    let restore_bulk = |cache: &mut Cache, mem: &mut Memory| {
        for r in bulk_regs() {
            let addr = reg_slot(r.index() as u32);
            cache.emit(mem, Instr::Lwa { rd: r, addr }, o)?;
        }
        Ok::<(), SdtError>(())
    };

    // --- restore stub -----------------------------------------------------
    let restore = cache.addr();
    restore_bulk(cache, mem)?;
    if save_flags {
        cache.emit(
            mem,
            Instr::Lwa {
                rd: Reg::R3,
                addr: SLOT_FLAGS,
            },
            o,
        )?;
        cache.emit(mem, Instr::Push { rs: Reg::R3 }, o)?;
    }
    cache.emit_scratch_restore(mem, save_flags, o)?;
    cache.emit(mem, Instr::Jmem { addr: SLOT_RESUME }, o)?;

    // --- return-cache partial restore --------------------------------------
    let rc_restore = cache.addr();
    restore_bulk(cache, mem)?;
    cache.emit(mem, Instr::Jmem { addr: SLOT_RESUME }, o)?;

    // --- trap tails ----------------------------------------------------------
    // Spill the target, save the context and trap with `code`. The flags
    // are saved when `flags_on_stack` is set: popped off the application
    // stack where the caller pushed them, or pushed first if still live.
    let emit_tail =
        |cache: &mut Cache, mem: &mut Memory, flags_on_stack: Option<bool>, code: u16| {
            let at = cache.addr();
            cache.emit(
                mem,
                Instr::Swa {
                    rs: Reg::R1,
                    addr: SLOT_TARGET,
                },
                o,
            )?;
            if let Some(on_stack) = flags_on_stack {
                if !on_stack {
                    cache.emit(mem, Instr::Pushf, o)?;
                }
                cache.emit(mem, Instr::Pop { rd: Reg::R3 }, o)?;
                cache.emit(
                    mem,
                    Instr::Swa {
                        rs: Reg::R3,
                        addr: SLOT_FLAGS,
                    },
                    o,
                )?;
            }
            for r in bulk_regs() {
                let addr = reg_slot(r.index() as u32);
                cache.emit(mem, Instr::Swa { rs: r, addr }, o)?;
            }
            cache.emit(mem, Instr::Trap { code }, o)?;
            Ok::<u32, SdtError>(at)
        };
    let miss_tail_stack_flags = emit_tail(cache, mem, save_flags.then_some(true), TRAP_MISS)?;
    let miss_tail_reg_flags = if save_flags {
        emit_tail(cache, mem, Some(false), TRAP_MISS)?
    } else {
        // Without flags saving the two tails are identical; share one.
        miss_tail_stack_flags
    };

    // --- shared and no-fill (shadow-stack fallback) miss glue -----------------
    let shared_miss_glue = cache.emit_site_glue(mem, SITE_SHARED, miss_tail_stack_flags)?;
    let nofill_miss_glue = cache.emit_site_glue(mem, SITE_NOFILL, miss_tail_stack_flags)?;

    // --- return-cache miss stub: partial save, flags left alone ----------------
    let rc_miss = emit_tail(cache, mem, None, TRAP_RC_MISS)?;

    Ok(Stubs {
        restore,
        rc_restore,
        miss_tail_stack_flags,
        miss_tail_reg_flags,
        shared_miss_glue,
        nofill_miss_glue,
        rc_miss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{SLOT_R1, SLOT_R2, SLOT_R3, SLOT_SITE};
    use strata_machine::layout;

    fn setup(cfg: SdtConfig) -> (Cache, Memory, Stubs) {
        let mut mem = Memory::new(layout::DEFAULT_MEM_BYTES);
        let mut cache = Cache::new(layout::CACHE_BASE, layout::CACHE_BYTES);
        let stubs = emit_stubs(&mut cache, &mut mem, &cfg).unwrap();
        (cache, mem, stubs)
    }

    #[test]
    fn stubs_are_disjoint_and_tagged() {
        let (cache, _mem, s) = setup(SdtConfig::ibtc_out_of_line(256));
        let addrs = [
            s.restore,
            s.rc_restore,
            s.miss_tail_stack_flags,
            s.miss_tail_reg_flags,
            s.shared_miss_glue,
            s.nofill_miss_glue,
            s.rc_miss,
        ];
        let mut sorted = addrs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), addrs.len());
        assert_eq!(cache.origin_at(s.restore), Some(Origin::ContextSwitch));
    }

    /// Decodes the stub instructions at `addr`, stopping after the first
    /// control transfer (`trap`/`jmem`/`jmp`).
    fn decode_stub(mem: &Memory, addr: u32) -> Vec<Instr> {
        let mut out = Vec::new();
        for i in 0..64 {
            let word = mem.read_u32(addr + 4 * i).unwrap();
            let instr = strata_isa::decode(word).unwrap();
            let done = matches!(
                instr,
                Instr::Trap { .. } | Instr::Jmem { .. } | Instr::Jmp { .. }
            );
            out.push(instr);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn flags_none_merges_tails() {
        let mut cfg = SdtConfig::reentry();
        cfg.flags = FlagsPolicy::None;
        let (_, mem, s) = setup(cfg);
        assert_eq!(s.miss_tail_stack_flags, s.miss_tail_reg_flags);
        // The merged tail spills the target, saves the bulk registers, and
        // traps — it must not touch flags or the application stack.
        let tail = decode_stub(&mem, s.miss_tail_stack_flags);
        assert_eq!(
            tail[0],
            Instr::Swa {
                rs: Reg::R1,
                addr: SLOT_TARGET
            }
        );
        assert_eq!(tail.last(), Some(&Instr::Trap { code: TRAP_MISS }));
        assert!(
            !tail.iter().any(|i| matches!(
                i,
                Instr::Pushf | Instr::Popf | Instr::Push { .. } | Instr::Pop { .. }
            )),
            "merged tail must not touch flags or the stack: {tail:?}"
        );
    }

    /// Under [`FlagsPolicy::Always`] the two miss tails are distinct and
    /// each honors its documented entry convention: the stack-flags tail
    /// pops the flags word its caller already pushed, while the reg-flags
    /// tail pushes the still-live flags itself before popping.
    #[test]
    fn flags_always_keeps_tails_distinct() {
        let cfg = SdtConfig::reentry();
        assert_eq!(cfg.flags, FlagsPolicy::Always);
        let (_, mem, s) = setup(cfg);
        assert_ne!(s.miss_tail_stack_flags, s.miss_tail_reg_flags);

        let spill_target = Instr::Swa {
            rs: Reg::R1,
            addr: SLOT_TARGET,
        };
        let save_flags = [
            Instr::Pop { rd: Reg::R3 },
            Instr::Swa {
                rs: Reg::R3,
                addr: SLOT_FLAGS,
            },
        ];
        let stack = decode_stub(&mem, s.miss_tail_stack_flags);
        assert_eq!(stack[0], spill_target);
        assert_eq!(&stack[1..3], &save_flags, "caller already pushed flags");

        let reg = decode_stub(&mem, s.miss_tail_reg_flags);
        assert_eq!(reg[0], spill_target);
        assert_eq!(reg[1], Instr::Pushf, "flags still live: push them first");
        assert_eq!(&reg[2..4], &save_flags);

        for tail in [&stack, &reg] {
            assert_eq!(tail.last(), Some(&Instr::Trap { code: TRAP_MISS }));
        }
    }

    /// The restore stubs honor their doc comments: the full restore
    /// reloads flags (under Always) and all of `r1`–`r3`; the return-cache
    /// partial restore reloads only the bulk registers — flags and the
    /// scratch registers stay saved for the target fragment's prologue.
    #[test]
    fn restore_stubs_match_documented_conventions() {
        let (_, mem, s) = setup(SdtConfig::reentry());
        let restore = decode_stub(&mem, s.restore);
        assert_eq!(restore.last(), Some(&Instr::Jmem { addr: SLOT_RESUME }));
        assert!(
            restore.contains(&Instr::Popf),
            "full restore must reload flags under FlagsPolicy::Always"
        );
        for (reg, slot) in [(Reg::R1, SLOT_R1), (Reg::R2, SLOT_R2), (Reg::R3, SLOT_R3)] {
            assert!(restore.contains(&Instr::Lwa {
                rd: reg,
                addr: slot
            }));
        }

        let rc = decode_stub(&mem, s.rc_restore);
        assert_eq!(rc.last(), Some(&Instr::Jmem { addr: SLOT_RESUME }));
        assert!(
            !rc.iter().any(|i| matches!(
                i,
                Instr::Popf
                    | Instr::Lwa {
                        addr: SLOT_R1 | SLOT_R2 | SLOT_R3,
                        ..
                    }
            )),
            "partial restore must leave flags and r1-r3 to the fragment prologue: {rc:?}"
        );
        // Exactly the bulk registers (r0, r4-r15) reload from their slots.
        let reloads = rc.iter().filter(|i| matches!(i, Instr::Lwa { .. })).count();
        assert_eq!(reloads, 13);
    }

    /// The canned glue stubs materialise their site sentinel and fall into
    /// the stack-flags miss tail.
    #[test]
    fn glue_stubs_store_sentinel_and_enter_stack_flags_tail() {
        let (_, mem, s) = setup(SdtConfig::ibtc_inline(256));
        for (glue, sentinel) in [
            (s.shared_miss_glue, SITE_SHARED),
            (s.nofill_miss_glue, SITE_NOFILL),
        ] {
            let code = decode_stub(&mem, glue);
            assert_eq!(
                code[0],
                Instr::Lui {
                    rd: Reg::R2,
                    imm: (sentinel >> 16) as u16
                }
            );
            assert_eq!(
                code[1],
                Instr::Ori {
                    rd: Reg::R2,
                    rs1: Reg::R2,
                    imm: (sentinel & 0xFFFF) as u16
                }
            );
            assert!(code.contains(&Instr::Swa {
                rs: Reg::R2,
                addr: SLOT_SITE
            }));
            assert_eq!(
                code.last(),
                Some(&Instr::Jmp {
                    target: s.miss_tail_stack_flags
                })
            );
        }
    }

    #[test]
    fn bind_glue_is_distinct_from_shared_glue() {
        let (mut cache, mut mem, s) = setup(SdtConfig::ibtc_inline(256));
        let tail = s.miss_tail_stack_flags;
        let g0 = cache
            .emit_site_glue(&mut mem, crate::protocol::bind_sentinel(0), tail)
            .unwrap();
        let g1 = cache
            .emit_site_glue(&mut mem, crate::protocol::bind_sentinel(1), tail)
            .unwrap();
        assert_ne!(g0, s.shared_miss_glue);
        assert_ne!(g0, g1);
        assert_eq!(cache.origin_at(g0), Some(Origin::ContextSwitch));
    }
}
