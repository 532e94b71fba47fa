//! Returns handled as generic indirect branches: the popped return
//! address dispatches through the jump-class strategy binding. The
//! slowest transparent option, and the paper's reference point for how
//! much return-specific mechanisms buy.

use strata_machine::Memory;

use crate::config::BranchClass;
use crate::dispatch::{CallPush, TargetSource};
use crate::sdt::SdtState;
use crate::SdtError;

/// Emits a `ret` as an indirect dispatch of the popped return address.
pub(crate) fn emit_ret(st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
    st.emit_ib_dispatch(
        mem,
        TargetSource::PoppedReturn,
        CallPush::None,
        BranchClass::Ret,
    )?;
    Ok(())
}
