//! Fast returns: calls push the *translated* return address, so a `ret`
//! is a single native instruction (and RAS-predictable). Fastest of the
//! return mechanisms, at a transparency cost — the application can observe
//! cache addresses on its stack, and the fragment cache can never be
//! flushed while those addresses are live.

use strata_isa::Instr;
use strata_machine::Memory;

use crate::fragment::FragKind;
use crate::sdt::SdtState;
use crate::{Origin, SdtError};

/// Emits a `ret` as itself: the stack holds a translated address, so a
/// plain ret is both correct and RAS-predictable.
pub(crate) fn emit_ret(st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
    st.cache.emit(mem, Instr::Ret, Origin::App)?;
    Ok(())
}

/// Translates a direct call returning to `ret_app` as a native call whose
/// pushed return address is the return-site fragment.
pub(crate) fn emit_direct_call(
    st: &mut SdtState,
    mem: &mut Memory,
    target: u32,
    ret_app: u32,
) -> Result<(), SdtError> {
    let call_at = st.cache.emit(
        mem,
        Instr::Call {
            target: call_at_placeholder(),
        },
        Origin::App,
    )?;
    // The pushed return address is the cache word after the call:
    // make that the return-site fragment (or a jump to it).
    match st.map.get(ret_app, FragKind::Body) {
        Some(f) => {
            st.cache
                .emit(mem, Instr::Jmp { target: f.entry }, Origin::Trampoline)?;
        }
        None => {
            st.translate_fragment(mem, ret_app, FragKind::Body)?;
        }
    }
    let tramp = st.emit_exit(mem, target)?;
    st.cache
        .patch(mem, call_at, Instr::Call { target: tramp }, None)?;
    Ok(())
}

/// Placeholder target for a call whose real target is patched in once the
/// callee trampoline exists; any valid aligned address works.
fn call_at_placeholder() -> u32 {
    0
}
