//! Translator re-entry: the paper's baseline. Every indirect branch
//! performs a full context switch into the translator, which resolves the
//! target through its fragment map; nothing is ever cached guest-side, so
//! every site re-traps on every execution.

use strata_machine::Memory;

use crate::fragment::Site;
use crate::sdt::SdtState;
use crate::SdtError;

/// Emits a re-entry site: its miss glue alone, so every execution traps.
pub(crate) fn emit_probe(st: &mut SdtState, mem: &mut Memory, bind: usize) -> Result<(), SdtError> {
    let site = st.new_site(Site::Ib {
        bind: bind as u8,
        table: None,
    });
    st.cache
        .emit_site_glue(mem, site, st.stubs.miss_tail_stack_flags)?;
    Ok(())
}
