//! The sieve: the target hash indexes a bucket table whose entries point
//! at chains of compare-and-branch stanzas in the code cache; a hit ends
//! in a *direct* jump (no BTB-hostile indirect transfer). Stanzas are
//! installed lazily by the runtime as targets are first seen.
//!
//! The promoting strategies ([`adaptive`](super::adaptive),
//! [`predictive`](super::predictive)) end their sites in a sieve and
//! allocate and reset its bucket table here.

use strata_machine::Memory;

use crate::emitter::TableAlloc;
use crate::fragment::SieveBucket;
use crate::sdt::SdtState;
use crate::strategy::Bind;
use crate::tables::TableRef;
use crate::SdtError;

/// Allocates a bucket table of `buckets` entries.
pub(crate) fn alloc_table(alloc: &mut TableAlloc, buckets: u32) -> Result<TableRef, SdtError> {
    let base = alloc.alloc(buckets * 4, 0x1_0000)?;
    Ok(TableRef {
        base,
        mask: buckets - 1,
        entry_bytes: 4,
    })
}

/// Points every bucket of `bind`'s table at `miss_glue` and empties the
/// host-side chain bookkeeping.
pub(crate) fn reset(
    bind: &mut Bind,
    mem: &mut Memory,
    miss_glue: u32,
    buckets: u32,
) -> Result<(), SdtError> {
    let t = bind.table.expect("sieve table allocated");
    t.fill_all(mem, miss_glue)?;
    bind.sieve_buckets = vec![SieveBucket::default(); buckets as usize];
    Ok(())
}

/// Emits a sieve site: a hash into `bind`'s bucket table.
pub(crate) fn emit_probe(st: &mut SdtState, mem: &mut Memory, bind: usize) -> Result<(), SdtError> {
    let table = st.binds[bind].table.expect("sieve table allocated");
    st.cache.emit_sieve_probe(mem, table)
}
