//! The shadow return stack: calls push an `(app, translated)` pair onto a
//! private circular stack; a `ret` pops both, verifies the application
//! address exactly, and jumps to the recorded translated address. Any
//! mismatch (longjmp-style unwinding, stack smashing, overflow wrap) falls
//! back to the translator without filling a structure.

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::config::BranchClass;
use crate::dispatch::{CallPush, TargetSource};
use crate::emitter::TableAlloc;
use crate::protocol::{SLOT_R1, SLOT_R2, SLOT_R3, SLOT_SHADOW_SP};
use crate::sdt::SdtState;
use crate::{Origin, SdtError};

/// Allocates a shadow stack of `depth` pairs: `(base, byte mask)`.
pub(crate) fn alloc_region(alloc: &mut TableAlloc, depth: u32) -> Result<(u32, u32), SdtError> {
    let base = alloc.alloc(depth * 8, 8)?;
    Ok((base, depth * 8 - 1))
}

/// Empties the stack: its entries point at discarded code.
pub(crate) fn reset(st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
    let (base, mask) = st.shadow.expect("shadow stack allocated");
    for off in (0..=mask).step_by(4) {
        mem.write_u32(base + off, 0)?;
    }
    mem.write_u32(SLOT_SHADOW_SP, 0)?;
    Ok(())
}

/// Emits a `ret` as a shadow-stack pop verified against the popped
/// application return address.
pub(crate) fn emit_ret(st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
    let d = Origin::Dispatch;
    let (base, mask) = st.shadow.expect("shadow stack allocated");
    st.emit_dispatch_frame(
        mem,
        TargetSource::PoppedReturn,
        CallPush::None,
        BranchClass::Ret,
    )?;
    st.cache.emit(
        mem,
        Instr::Lwa {
            rd: Reg::R2,
            addr: SLOT_SHADOW_SP,
        },
        d,
    )?;
    st.cache.emit(
        mem,
        Instr::Addi {
            rd: Reg::R2,
            rs1: Reg::R2,
            imm: -8,
        },
        d,
    )?;
    st.cache.emit(
        mem,
        Instr::Andi {
            rd: Reg::R2,
            rs1: Reg::R2,
            imm: mask as u16,
        },
        d,
    )?;
    st.cache.emit_li(mem, Reg::R3, base, d)?;
    st.cache.emit(
        mem,
        Instr::Add {
            rd: Reg::R3,
            rs1: Reg::R3,
            rs2: Reg::R2,
        },
        d,
    )?;
    // Commit the pop before the verify: on fallback the translator
    // resolves the target anyway and stale shadow entries only cost
    // another fallback.
    st.cache.emit(
        mem,
        Instr::Swa {
            rs: Reg::R2,
            addr: SLOT_SHADOW_SP,
        },
        d,
    )?;
    // The popped pair is a one-way tag compare: application address
    // as the tag, translated address as the fragment.
    let nofill = st.stubs.nofill_miss_glue;
    st.emit_tag_probe(mem, Reg::R3, Reg::R2, 1, None, nofill)
}

/// Translates a direct call returning to `ret_app`: push the application
/// return address and the shadow pair, then exit to the callee.
pub(crate) fn emit_direct_call(
    st: &mut SdtState,
    mem: &mut Memory,
    target: u32,
    ret_app: u32,
) -> Result<(), SdtError> {
    let g = Origin::CallGlue;
    st.cache.emit(
        mem,
        Instr::Swa {
            rs: Reg::R1,
            addr: SLOT_R1,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Swa {
            rs: Reg::R2,
            addr: SLOT_R2,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Swa {
            rs: Reg::R3,
            addr: SLOT_R3,
        },
        g,
    )?;
    st.cache.emit_li(mem, Reg::R1, ret_app, g)?;
    st.cache.emit(mem, Instr::Push { rs: Reg::R1 }, g)?;
    let patch = emit_shadow_push(st, mem, ret_app)?;
    st.cache.emit(
        mem,
        Instr::Lwa {
            rd: Reg::R3,
            addr: SLOT_R3,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Lwa {
            rd: Reg::R2,
            addr: SLOT_R2,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Lwa {
            rd: Reg::R1,
            addr: SLOT_R1,
        },
        g,
    )?;
    st.emit_exit(mem, target)?;
    let ret_frag = st.ensure_fragment(mem, ret_app, crate::fragment::FragKind::Body)?;
    st.cache.patch_li(mem, patch, Reg::R2, ret_frag.entry)?;
    Ok(())
}

/// Emits the shadow-stack push: stores `(app_ret, translated_ret)` at the
/// current shadow offset and advances it circularly. Uses `r2`/`r3`
/// (already spilled by the caller). Returns the `li` address of the
/// translated-return placeholder for patching.
pub(crate) fn emit_shadow_push(
    st: &mut SdtState,
    mem: &mut Memory,
    app_ret: u32,
) -> Result<u32, SdtError> {
    let g = Origin::CallGlue;
    let (base, mask) = st.shadow.expect("shadow stack allocated");
    st.cache.emit(
        mem,
        Instr::Lwa {
            rd: Reg::R2,
            addr: SLOT_SHADOW_SP,
        },
        g,
    )?;
    st.cache.emit_li(mem, Reg::R3, base, g)?;
    st.cache.emit(
        mem,
        Instr::Add {
            rd: Reg::R3,
            rs1: Reg::R3,
            rs2: Reg::R2,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Addi {
            rd: Reg::R2,
            rs1: Reg::R2,
            imm: 8,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Andi {
            rd: Reg::R2,
            rs1: Reg::R2,
            imm: mask as u16,
        },
        g,
    )?;
    st.cache.emit(
        mem,
        Instr::Swa {
            rs: Reg::R2,
            addr: SLOT_SHADOW_SP,
        },
        g,
    )?;
    st.cache.emit_li(mem, Reg::R2, app_ret, g)?;
    st.cache.emit(
        mem,
        Instr::Sw {
            rs2: Reg::R2,
            rs1: Reg::R3,
            off: 0,
        },
        g,
    )?;
    let patch = st.cache.emit_li(mem, Reg::R2, 0, g)?;
    st.cache.emit(
        mem,
        Instr::Sw {
            rs2: Reg::R2,
            rs1: Reg::R3,
            off: 4,
        },
        g,
    )?;
    Ok(patch)
}
