//! The indirect branch translation cache: emitted code hashes the target
//! and probes a tagged software cache mapping application addresses to
//! fragment addresses. Variants: one shared table vs. a table per site,
//! lookup code inlined at each site vs. a shared out-of-line routine, and
//! direct-mapped vs. two-way set-associative tables.

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::config::{IbtcPlacement, IbtcScope};
use crate::dispatch::ibtc_table_ref;
use crate::emitter::{Cache, TableAlloc};
use crate::fragment::Site;
use crate::sdt::SdtState;
use crate::tables::TableRef;
use crate::{Origin, SdtError};

/// The report label, e.g. `ibtc(4096,shared,inline)` or
/// `ibtc(512,persite,inline)x2`.
pub(crate) fn describe(
    entries: u32,
    scope: IbtcScope,
    placement: IbtcPlacement,
    ways: u8,
) -> String {
    let scope = match scope {
        IbtcScope::Shared => "shared",
        IbtcScope::PerSite => "persite",
    };
    let placement = match placement {
        IbtcPlacement::Inline => "inline",
        IbtcPlacement::OutOfLine => "outline",
    };
    let ways = if ways == 2 { "x2" } else { "" };
    format!("ibtc({entries},{scope},{placement}){ways}")
}

/// Allocates the shared table of `entries` entries under `ways`.
pub(crate) fn alloc_shared(
    alloc: &mut TableAlloc,
    entries: u32,
    ways: u8,
) -> Result<TableRef, SdtError> {
    let base = alloc.alloc(entries * 8, 0x1_0000)?;
    ibtc_table_ref(base, entries, ways)
}

/// Emits the out-of-line lookup routine over the shared `table`, whose
/// miss path jumps to `miss_glue`, and returns its address.
pub(crate) fn emit_lookup_routine(
    cache: &mut Cache,
    mem: &mut Memory,
    table: TableRef,
    miss_glue: u32,
) -> Result<u32, SdtError> {
    let d = Origin::Dispatch;
    let at = cache.addr();
    cache.emit_hash(mem, table)?;
    let bne = cache.emit_tag_way(mem, Reg::R2, Reg::R3, 0)?;
    cache.emit(mem, Instr::Ret, d)?;
    let miss = cache.addr();
    cache.emit(mem, Instr::Pop { rd: Reg::R2 }, d)?; // discard return addr
    cache.emit(mem, Instr::Jmp { target: miss_glue }, d)?;
    cache.patch_branch(mem, bne, Instr::Bne { off: 0 }, miss)?;
    Ok(at)
}

/// Empties the shared table, if the binding has one.
pub(crate) fn reset(table: Option<TableRef>, mem: &mut Memory) -> Result<(), SdtError> {
    if let Some(t) = table {
        // Zeroing the whole table empties it (no code lives at 0).
        for off in (0..t.size_bytes()).step_by(4) {
            mem.write_u32(t.base + off, 0)?;
        }
    }
    Ok(())
}

/// Emits an IBTC site of binding `bind`: an inline probe of the shared
/// table or of a fresh per-site one, or a call of the out-of-line
/// routine.
pub(crate) fn emit_probe(
    st: &mut SdtState,
    mem: &mut Memory,
    bind: usize,
    entries: u32,
    scope: IbtcScope,
    placement: IbtcPlacement,
    ways: u8,
) -> Result<(), SdtError> {
    match placement {
        IbtcPlacement::Inline => {
            let (table, site) = match scope {
                IbtcScope::Shared => (st.binds[bind].table.expect("shared IBTC allocated"), None),
                IbtcScope::PerSite => {
                    let table = alloc_site_table(st, mem, entries, ways)?;
                    let site = st.new_site(Site::Ib {
                        bind: bind as u8,
                        table: Some(table.base),
                    });
                    (table, Some(site))
                }
            };
            let glue = st.glue_for(bind);
            st.cache.emit_hash(mem, table)?;
            st.emit_tag_probe(mem, Reg::R2, Reg::R3, ways, site, glue)?;
        }
        IbtcPlacement::OutOfLine => {
            let routine = st.binds[bind]
                .lookup_routine
                .expect("out-of-line routine emitted");
            st.cache
                .emit(mem, Instr::Call { target: routine }, Origin::Dispatch)?;
            st.emit_hit_epilogue(mem)?;
        }
    }
    Ok(())
}

/// Fills `target → entry` into `table` under `ways`.
pub(crate) fn fill(
    table: TableRef,
    ways: u8,
    mem: &mut Memory,
    target: u32,
    entry: u32,
) -> Result<(), SdtError> {
    if ways == 2 {
        table.fill_tagged_2way(mem, target, entry)?;
    } else {
        table.fill_tagged(mem, target, entry)?;
    }
    Ok(())
}

/// Services a miss at per-site IBTC site `site`: fills its table.
pub(crate) fn on_site_miss(
    st: &mut SdtState,
    mem: &mut Memory,
    site: u32,
    target: u32,
    frag_entry: u32,
    entries: u32,
    ways: u8,
) -> Result<(), SdtError> {
    let Site::Ib {
        table: Some(base), ..
    } = st.sites[site as usize]
    else {
        unreachable!("IBTC site misses carry a per-site table");
    };
    fill(
        ibtc_table_ref(base, entries, ways)?,
        ways,
        mem,
        target,
        frag_entry,
    )
}

/// Allocates a per-site IBTC table of `entries` entries under `ways`
/// above the flush floor and zeroes it: the region may be recycled from
/// before a cache flush, and stale tags must not survive.
pub(crate) fn alloc_site_table(
    st: &mut SdtState,
    mem: &mut Memory,
    entries: u32,
    ways: u8,
) -> Result<TableRef, SdtError> {
    let base = st.alloc.alloc(entries * 8, 16)?;
    for i in 0..entries * 2 {
        mem.write_u32(base + i * 4, 0)?;
    }
    ibtc_table_ref(base, entries, ways)
}
