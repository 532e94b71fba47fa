//! The sieve: the target hash indexes a bucket table whose entries point
//! at chains of compare-and-branch stanzas in the code cache; a hit ends
//! in a *direct* jump (no BTB-hostile indirect transfer). Stanzas are
//! installed lazily by the runtime as targets are first seen.
//!
//! The promoting strategies ([`Adaptive`](super::adaptive::Adaptive),
//! [`Predictive`](super::predictive::Predictive)) end their sites in a
//! sieve and hold one of these for its bucket table.

use strata_machine::Memory;

use crate::config::BranchClass;
use crate::emitter::TableAlloc;
use crate::fragment::{Fragment, SieveBucket};
use crate::sdt::SdtState;
use crate::strategy::{Bind, IbStrategy};
use crate::tables::TableRef;
use crate::SdtError;

#[derive(Debug)]
pub(crate) struct Sieve {
    pub buckets: u32,
}

impl IbStrategy for Sieve {
    fn id(&self) -> &'static str {
        "sieve"
    }

    fn describe(&self) -> String {
        format!("sieve({})", self.buckets)
    }

    fn alloc_fixed(&self, bind: &mut Bind, alloc: &mut TableAlloc) -> Result<(), SdtError> {
        let base = alloc.alloc(self.buckets * 4, 0x1_0000)?;
        bind.table = Some(TableRef {
            base,
            mask: self.buckets - 1,
            entry_bytes: 4,
        });
        Ok(())
    }

    fn reset(&self, bind: &mut Bind, mem: &mut Memory, miss_glue: u32) -> Result<(), SdtError> {
        let t = bind.table.expect("sieve table allocated");
        t.fill_all(mem, miss_glue)?;
        bind.sieve_buckets = vec![SieveBucket::default(); self.buckets as usize];
        Ok(())
    }

    fn emit_probe(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        _class: BranchClass,
    ) -> Result<(), SdtError> {
        let table = st.binds[bind].table.expect("sieve table allocated");
        st.cache.emit_sieve_probe(mem, table)
    }

    fn on_shared_miss(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        target: u32,
        frag_entry: u32,
    ) -> Result<(), SdtError> {
        st.sieve_install(mem, bind, target, frag_entry)
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
        unreachable!("sieve dispatches carry no site id")
    }
}
