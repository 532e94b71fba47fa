//! The dispatch protocol: save-area slots and trap codes shared between
//! emitted code and the runtime.
//!
//! Every indirect-branch dispatch sequence follows one register protocol so
//! that the shared stubs (miss tails, restore stubs, sieve stanzas,
//! return-cache prologues) compose with any mechanism:
//!
//! 1. spill `r1` to [`SLOT_R1`], move the branch target into `r1`
//!    (`mov`/`pop`/load),
//! 2. spill `r2`/`r3` to [`SLOT_R2`]/[`SLOT_R3`],
//! 3. under [`FlagsPolicy::Always`](crate::FlagsPolicy) push the flags on
//!    the application stack,
//! 4. probe using `r2`/`r3` as scratch, keeping the target in `r1`,
//! 5. *hit*: store the fragment address to [`SLOT_JUMP_TARGET`], restore
//!    flags and `r1`–`r3`, transfer via `jmem [SLOT_JUMP_TARGET]`
//!    (the x86 `jmp [mem]` idiom);
//!    *miss*: fall into a miss tail that completes a full context save and
//!    traps into the translator.
//!
//! The save area lives below the 1 MiB `lwa`/`swa` addressing boundary (see
//! [`strata_machine::layout::SAVE_AREA_BASE`]) so spill code needs no free
//! base register.

use strata_machine::layout::SAVE_AREA_BASE;
use strata_machine::syscall::SDT_TRAP_BASE;

/// Spill slot for `r1` during dispatch.
pub const SLOT_R1: u32 = SAVE_AREA_BASE;
/// Spill slot for `r2` during dispatch.
pub const SLOT_R2: u32 = SAVE_AREA_BASE + 4;
/// Spill slot for `r3` during dispatch.
pub const SLOT_R3: u32 = SAVE_AREA_BASE + 8;
/// Holds the resolved fragment address for the final `jmem` of a dispatch
/// hit.
pub const SLOT_JUMP_TARGET: u32 = SAVE_AREA_BASE + 12;
/// Written by the runtime before resuming: the fragment address the restore
/// stub jumps to.
pub const SLOT_RESUME: u32 = SAVE_AREA_BASE + 16;
/// Holds the saved flags word across a full context switch.
pub const SLOT_FLAGS: u32 = SAVE_AREA_BASE + 20;
/// The application-space branch target handed to the runtime on a miss.
pub const SLOT_TARGET: u32 = SAVE_AREA_BASE + 24;
/// The site/exit identifier handed to the runtime on a miss.
pub const SLOT_SITE: u32 = SAVE_AREA_BASE + 28;
/// Base of the 16-word full register save area (`r0` at `+0` … `r15` at
/// `+60`).
pub(crate) const SLOT_REGS: u32 = SAVE_AREA_BASE + 32;
/// Current byte offset into the shadow return stack (circular; only used
/// under [`RetMechanism::ShadowStack`](crate::RetMechanism::ShadowStack)).
pub const SLOT_SHADOW_SP: u32 = SAVE_AREA_BASE + 96;

/// Returns the save slot for register index `i` in the full context save.
pub const fn reg_slot(i: u32) -> u32 {
    SLOT_REGS + i * 4
}

/// Trap: an indirect branch (or unlinked exit) missed; the runtime reads
/// [`SLOT_TARGET`] and [`SLOT_SITE`].
pub const TRAP_MISS: u16 = SDT_TRAP_BASE;
/// Trap: a return-cache transfer reached the wrong fragment (or a cold
/// slot); the runtime reads the actual return target from `r1`.
pub const TRAP_RC_MISS: u16 = SDT_TRAP_BASE + 1;

/// [`SLOT_SITE`] sentinel: the miss came from the shared (site-less)
/// lookup path of a shared IBTC or the sieve.
pub(crate) const SITE_SHARED: u32 = u32::MAX;

/// [`SLOT_SITE`] sentinel: resolve the target but update no lookup
/// structure (shadow-stack return fallbacks — the next balanced call will
/// repopulate the shadow entry itself).
pub(crate) const SITE_NOFILL: u32 = u32::MAX - 1;

/// Base of the per-binding [`SLOT_SITE`] sentinel range used by mixed
/// dispatch policies: binding `k`'s miss glue reports
/// `SITE_BIND_BASE - k`. Single-binding configurations keep using
/// [`SITE_SHARED`], which is how legacy configurations stay bit-identical.
pub(crate) const SITE_BIND_BASE: u32 = u32::MAX - 2;

/// Maximum strategy bindings a policy can resolve to (bounds the sentinel
/// range; a policy has at most one jump and one call binding today).
pub(crate) const MAX_BINDS: usize = 4;

/// The [`SLOT_SITE`] sentinel for binding `k`'s shared miss glue.
pub(crate) const fn bind_sentinel(bind: usize) -> u32 {
    SITE_BIND_BASE - bind as u32
}

/// Decodes a per-binding sentinel back to its binding index.
pub(crate) fn sentinel_bind(site: u32) -> Option<usize> {
    if site <= SITE_BIND_BASE && site > SITE_BIND_BASE - MAX_BINDS as u32 {
        Some((SITE_BIND_BASE - site) as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_isa::MAX_ABS_ADDR;

    #[test]
    fn slots_fit_absolute_addressing() {
        for slot in [
            SLOT_R1,
            SLOT_R2,
            SLOT_R3,
            SLOT_JUMP_TARGET,
            SLOT_RESUME,
            SLOT_FLAGS,
            SLOT_TARGET,
            SLOT_SITE,
            reg_slot(15),
            SLOT_SHADOW_SP,
        ] {
            assert!(
                slot <= MAX_ABS_ADDR,
                "slot {slot:#x} unreachable by lwa/swa"
            );
            assert_eq!(slot % 4, 0);
        }
    }

    #[test]
    fn slots_do_not_overlap() {
        let mut slots = vec![
            SLOT_R1,
            SLOT_R2,
            SLOT_R3,
            SLOT_JUMP_TARGET,
            SLOT_RESUME,
            SLOT_FLAGS,
            SLOT_TARGET,
            SLOT_SITE,
        ];
        for i in 0..16 {
            slots.push(reg_slot(i));
        }
        slots.push(SLOT_SHADOW_SP);
        let n = slots.len();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), n);
    }

    #[test]
    fn bind_sentinels_stay_clear_of_other_sentinels() {
        for k in 0..MAX_BINDS {
            let s = bind_sentinel(k);
            assert_ne!(s, SITE_SHARED);
            assert_ne!(s, SITE_NOFILL);
            assert_eq!(sentinel_bind(s), Some(k));
        }
        assert_eq!(sentinel_bind(SITE_SHARED), None);
        assert_eq!(sentinel_bind(SITE_NOFILL), None);
        assert_eq!(sentinel_bind(bind_sentinel(MAX_BINDS - 1) - 1), None);
        assert_eq!(sentinel_bind(0), None);
    }

    #[test]
    fn trap_codes_reserved() {
        const { assert!(TRAP_MISS >= SDT_TRAP_BASE) };
        const { assert!(TRAP_RC_MISS >= SDT_TRAP_BASE) };
        assert_ne!(TRAP_MISS, TRAP_RC_MISS);
    }
}
