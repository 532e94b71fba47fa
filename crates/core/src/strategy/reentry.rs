//! Translator re-entry: the paper's baseline. Every indirect branch
//! performs a full context switch into the translator, which resolves the
//! target through its fragment map; nothing is ever cached guest-side, so
//! every site re-traps on every execution.

use strata_machine::Memory;

use crate::config::BranchClass;
use crate::fragment::{Fragment, Site};
use crate::sdt::SdtState;
use crate::strategy::IbStrategy;
use crate::SdtError;

#[derive(Debug)]
pub(crate) struct Reentry;

impl IbStrategy for Reentry {
    fn id(&self) -> &'static str {
        "reentry"
    }

    fn describe(&self) -> String {
        "reentry".into()
    }

    fn emit_probe(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        _class: BranchClass,
    ) -> Result<(), SdtError> {
        let site = st.new_site(Site::Ib {
            bind: bind as u8,
            table: None,
        });
        st.cache
            .emit_site_glue(mem, site, st.stubs.miss_tail_stack_flags)?;
        Ok(())
    }

    fn on_shared_miss(
        &self,
        _st: &mut SdtState,
        _mem: &mut Memory,
        _bind: usize,
        _target: u32,
        _frag_entry: u32,
    ) -> Result<(), SdtError> {
        unreachable!("re-entry sites always carry a site id")
    }

    fn on_site_miss(
        &self,
        _st: &mut SdtState,
        _mem: &mut Memory,
        _bind: usize,
        _site: u32,
        _target: u32,
        _frag: Fragment,
    ) -> Result<(), SdtError> {
        // A bare re-entry site has nothing to fill: the next execution
        // traps again.
        Ok(())
    }
}
