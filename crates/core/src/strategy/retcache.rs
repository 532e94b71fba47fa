//! The tagless return cache: a `ret` hashes the popped application return
//! address and jumps *unconditionally* through the cache; verification
//! happens in the target fragment's [`FragKind::ReturnPoint`] prologue,
//! which compares the actual return address against its expected constant
//! and falls back to the translator on mismatch.
//!
//! [`FragKind::ReturnPoint`]: crate::fragment::FragKind::ReturnPoint

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::config::BranchClass;
use crate::dispatch::{CallPush, TargetSource};
use crate::emitter::TableAlloc;
use crate::sdt::SdtState;
use crate::tables::TableRef;
use crate::{Origin, SdtError};

/// Allocates a return cache of `entries` entries.
pub(crate) fn alloc_table(alloc: &mut TableAlloc, entries: u32) -> Result<TableRef, SdtError> {
    let base = alloc.alloc(entries * 4, 0x1_0000)?;
    Ok(TableRef {
        base,
        mask: entries - 1,
        entry_bytes: 4,
    })
}

/// Points every return-cache entry at the miss stub.
pub(crate) fn reset(st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
    let t = st.rc_tab.expect("return cache allocated");
    t.fill_all(mem, st.stubs.rc_miss)?;
    Ok(())
}

/// Emits a `ret` as a hash of the popped return address and an
/// unconditional jump through the cache.
pub(crate) fn emit_ret(st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
    let d = Origin::Dispatch;
    st.emit_dispatch_frame(
        mem,
        TargetSource::PoppedReturn,
        CallPush::None,
        BranchClass::Ret,
    )?;
    let table = st.rc_tab.expect("return cache allocated");
    st.cache.emit_hash(mem, table)?;
    st.cache.emit(
        mem,
        Instr::Lw {
            rd: Reg::R2,
            rs1: Reg::R2,
            off: 0,
        },
        d,
    )?;
    // r1–r3 are dead until the target's restore sequence reloads them,
    // so the transfer can go straight through r2 — no jump slot needed.
    st.cache.emit(mem, Instr::Jr { rs: Reg::R2 }, d)?;
    Ok(())
}
