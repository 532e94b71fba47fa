//! The indirect branch translation cache: emitted code hashes the target
//! and probes a tagged software cache mapping application addresses to
//! fragment addresses. Variants: one shared table vs. a table per site,
//! lookup code inlined at each site vs. a shared out-of-line routine, and
//! direct-mapped vs. two-way set-associative tables.

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::config::{BranchClass, IbtcPlacement, IbtcScope};
use crate::dispatch::ibtc_table_ref;
use crate::emitter::{Cache, TableAlloc};
use crate::fragment::{Fragment, Site};
use crate::sdt::SdtState;
use crate::strategy::{Bind, IbStrategy};
use crate::tables::TableRef;
use crate::{Origin, SdtError};

#[derive(Debug)]
pub(crate) struct Ibtc {
    pub entries: u32,
    pub scope: IbtcScope,
    pub placement: IbtcPlacement,
    pub ways: u8,
}

impl Ibtc {
    fn fill(
        &self,
        table: TableRef,
        mem: &mut Memory,
        target: u32,
        entry: u32,
    ) -> Result<(), SdtError> {
        if self.ways == 2 {
            table.fill_tagged_2way(mem, target, entry)?;
        } else {
            table.fill_tagged(mem, target, entry)?;
        }
        Ok(())
    }
}

impl IbStrategy for Ibtc {
    fn id(&self) -> &'static str {
        "ibtc"
    }

    fn describe(&self) -> String {
        let scope = match self.scope {
            IbtcScope::Shared => "shared",
            IbtcScope::PerSite => "persite",
        };
        let placement = match self.placement {
            IbtcPlacement::Inline => "inline",
            IbtcPlacement::OutOfLine => "outline",
        };
        let ways = if self.ways == 2 { "x2" } else { "" };
        format!("ibtc({},{scope},{placement}){ways}", self.entries)
    }

    fn site_table_geometry(&self) -> Option<(u32, u8)> {
        Some((self.entries, self.ways))
    }

    fn alloc_fixed(&self, bind: &mut Bind, alloc: &mut TableAlloc) -> Result<(), SdtError> {
        if self.scope == IbtcScope::Shared {
            let base = alloc.alloc(self.entries * 8, 0x1_0000)?;
            bind.table = Some(ibtc_table_ref(base, self.entries, self.ways)?);
        }
        Ok(())
    }

    fn emit_stub_support(
        &self,
        cache: &mut Cache,
        mem: &mut Memory,
        bind: &mut Bind,
        miss_glue: u32,
    ) -> Result<(), SdtError> {
        if self.placement != IbtcPlacement::OutOfLine {
            return Ok(());
        }
        let table = bind
            .table
            .expect("out-of-line IBTC requires the shared table");
        let d = Origin::Dispatch;
        let at = cache.addr();
        cache.emit_hash(mem, table)?;
        let bne = cache.emit_tag_way(mem, Reg::R2, Reg::R3, 0)?;
        cache.emit(mem, Instr::Ret, d)?;
        let miss = cache.addr();
        cache.emit(mem, Instr::Pop { rd: Reg::R2 }, d)?; // discard return addr
        cache.emit(mem, Instr::Jmp { target: miss_glue }, d)?;
        cache.patch_branch(mem, bne, Instr::Bne { off: 0 }, miss)?;
        bind.lookup_routine = Some(at);
        Ok(())
    }

    fn reset(&self, bind: &mut Bind, mem: &mut Memory, _miss_glue: u32) -> Result<(), SdtError> {
        if let Some(t) = bind.table {
            // Zeroing the whole table empties it (no code lives at 0).
            for off in (0..t.size_bytes()).step_by(4) {
                mem.write_u32(t.base + off, 0)?;
            }
        }
        Ok(())
    }

    fn emit_probe(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        _class: BranchClass,
    ) -> Result<(), SdtError> {
        match self.placement {
            IbtcPlacement::Inline => {
                let (table, site) = match self.scope {
                    IbtcScope::Shared => {
                        (st.binds[bind].table.expect("shared IBTC allocated"), None)
                    }
                    IbtcScope::PerSite => {
                        let table = alloc_site_table(st, mem, self.entries, self.ways)?;
                        let site = st.new_site(Site::Ib {
                            bind: bind as u8,
                            table: Some(table.base),
                        });
                        (table, Some(site))
                    }
                };
                let glue = st.glue_for(bind);
                st.cache.emit_hash(mem, table)?;
                st.emit_tag_probe(mem, Reg::R2, Reg::R3, self.ways, site, glue)?;
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

    fn on_shared_miss(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        target: u32,
        frag_entry: u32,
    ) -> Result<(), SdtError> {
        let table = st.binds[bind].table.expect("shared IBTC allocated");
        self.fill(table, mem, target, frag_entry)
    }

    fn on_site_miss(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        _bind: usize,
        site: u32,
        target: u32,
        frag: Fragment,
    ) -> Result<(), SdtError> {
        let Site::Ib {
            table: Some(base), ..
        } = st.sites[site as usize]
        else {
            unreachable!("IBTC site misses carry a per-site table");
        };
        let t = ibtc_table_ref(base, self.entries, self.ways)?;
        self.fill(t, mem, target, frag.entry)
    }
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
