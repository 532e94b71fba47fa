//! Read-only cache metadata export: everything a host-side tool needs to
//! audit the emitted fragment cache without reaching into translator
//! internals — stub addresses, strategy bindings and their tables,
//! fragment entry points, exit trampolines, and adaptive-site stages.
//!
//! The primary consumer is the `strata-analysis` static checker, which
//! lifts the cache into a CFG and runs dataflow lints over it. The export
//! is a *snapshot*: build it after the run whose cache you want to audit.

use strata_machine::layout;

use crate::fragment::{FragKind, Site};
use crate::sdt::Sdt;
use crate::strategy::adaptive::AdaptiveStage;
use crate::strategy::StrategySpec;
use crate::tables::TableRef;

/// What a lookup table's entries mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Tagged IBTC sets: `{tag, fragment}` pairs (`ways` pairs per set).
    IbtcTagged {
        /// Set associativity (1 or 2).
        ways: u8,
    },
    /// Sieve bucket heads: 4-byte cache addresses of stanza chains (cold
    /// buckets point at the binding's miss glue).
    SieveBuckets,
    /// Tagless return cache: 4-byte cache addresses of return-point
    /// prologues (cold slots point at the `rc_miss` stub).
    ReturnCache,
}

/// A guest lookup table: location, shape, and meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Guest base address.
    pub base: u32,
    /// `sets - 1` (the hash mask every probe applies).
    pub mask: u32,
    /// Bytes per set (4, 8, or 16).
    pub entry_bytes: u32,
    /// Entry interpretation.
    pub kind: TableKind,
}

impl TableMeta {
    fn from_ref(t: TableRef, kind: TableKind) -> TableMeta {
        TableMeta {
            base: t.base,
            mask: t.mask,
            entry_bytes: t.entry_bytes,
            kind,
        }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.mask + 1) * self.entry_bytes
    }

    /// The probe hash: `(addr >> 2) & mask`.
    pub fn index_of(&self, app_addr: u32) -> u32 {
        (app_addr >> 2) & self.mask
    }
}

/// Addresses of the shared runtime stubs (see [`crate::protocol`] for the
/// conventions each expects on entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StubsMeta {
    /// Full restore ending `jmem [SLOT_RESUME]`.
    pub restore: u32,
    /// Partial (bulk-only) restore for return-cache misses.
    pub rc_restore: u32,
    /// Miss tail entered with the flags word already on the stack.
    pub miss_tail_stack_flags: u32,
    /// Miss tail entered with application flags still live.
    pub miss_tail_reg_flags: u32,
    /// Shared (site-less) miss glue.
    pub shared_miss_glue: u32,
    /// No-fill miss glue (shadow-stack fallbacks).
    pub nofill_miss_glue: u32,
    /// Return-cache miss stub.
    pub rc_miss: u32,
}

/// One strategy binding's public face.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindMeta {
    /// Binding index (what [`CacheMeta::class_bind`] points into).
    pub index: usize,
    /// Registry id (`"reentry"`, `"ibtc"`, `"sieve"`, `"adaptive"`,
    /// `"predictive"`).
    pub id: &'static str,
    /// Parameterized label.
    pub describe: String,
    /// The binding's fixed shared table, if any.
    pub table: Option<TableMeta>,
    /// Per-binding miss glue (multi-bind policies only).
    pub glue: Option<u32>,
    /// Out-of-line lookup routine, if the strategy emits one.
    pub lookup_routine: Option<u32>,
}

/// One translated fragment's addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentMeta {
    /// Application address the fragment translates.
    pub app_addr: u32,
    /// Entry kind (body, or return-point with verification prologue).
    pub kind: FragKind,
    /// Entry address in the cache.
    pub entry: u32,
    /// Restore-sequence address (return points; equals `entry` for bodies).
    pub restore_entry: u32,
    /// First body instruction.
    pub body: u32,
}

/// One direct-branch exit trampoline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSiteMeta {
    /// Application target the exit resolves.
    pub target: u32,
    /// Trampoline head (patched into a direct jump once linked).
    pub patch_addr: u32,
}

/// An adaptive dispatch site's current stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveStageMeta {
    /// Single-target inline probe; the two patchable `li` pair addresses.
    Inline {
        /// `li` pair holding the expected target tag.
        tag_li: u32,
        /// `li` pair holding the target's fragment address.
        frag_li: u32,
    },
    /// Promoted to a private direct-mapped IBTC.
    Ibtc {
        /// The site's private table.
        table: TableMeta,
    },
    /// Promoted to the binding's shared sieve.
    Sieve,
    /// Predictive observation: the probe is a bare jump into the site
    /// miss path while the translator tallies target frequencies.
    Observe,
}

/// One adaptive dispatch site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSiteMeta {
    /// The patchable `jmp` heading the site's probe.
    pub entry_jmp: u32,
    /// Current promotion stage.
    pub stage: AdaptiveStageMeta,
}

/// A read-only snapshot of the translator's cache bookkeeping, built by
/// [`Sdt::cache_meta`].
#[derive(Debug, Clone)]
pub struct CacheMeta {
    /// Fragment-cache base address.
    pub cache_base: u32,
    /// Cache bytes occupied.
    pub cache_used: u32,
    /// Cursor right after the shared stubs (the flush point): everything
    /// below it is stub code, everything at or above it is fragments and
    /// per-site dispatch code.
    pub post_stub_cursor: u32,
    /// The program's entry application address.
    pub entry_app: u32,
    /// Application code range `[base, end)`.
    pub app_code: (u32, u32),
    /// Guest table-region bounds `[base, limit)` (bump-allocated tables
    /// and instrumentation counters live here).
    pub table_region: (u32, u32),
    /// Shared stub addresses.
    pub stubs: StubsMeta,
    /// Strategy bindings, in binding order.
    pub binds: Vec<BindMeta>,
    /// Class→binding map: `[jump (also ret-as-IB), call]`.
    pub class_bind: [usize; 2],
    /// Every translated fragment, sorted by entry address.
    pub fragments: Vec<FragmentMeta>,
    /// Every direct-branch exit trampoline.
    pub exit_sites: Vec<ExitSiteMeta>,
    /// Per-site IBTC tables (strategies with [`crate::IbtcScope::PerSite`]).
    pub ib_site_tables: Vec<TableMeta>,
    /// Adaptive dispatch sites with their promotion stages.
    pub adaptive_sites: Vec<AdaptiveSiteMeta>,
    /// The return cache, when the return mechanism uses one.
    pub rc_table: Option<TableMeta>,
    /// Shadow return stack `(base, byte mask)`, when enabled.
    pub shadow: Option<(u32, u32)>,
}

impl CacheMeta {
    /// Every table the emitted code may probe, including per-site and
    /// adaptive-stage tables.
    pub fn all_tables(&self) -> Vec<TableMeta> {
        let mut out: Vec<TableMeta> = self.binds.iter().filter_map(|b| b.table).collect();
        out.extend(self.ib_site_tables.iter().copied());
        out.extend(self.adaptive_sites.iter().filter_map(|s| match s.stage {
            AdaptiveStageMeta::Ibtc { table } => Some(table),
            _ => None,
        }));
        out.extend(self.rc_table);
        out
    }

    /// The miss glue serving binding `index`: its own glue stub under a
    /// multi-bind policy, the shared glue otherwise.
    pub fn glue_for(&self, index: usize) -> u32 {
        self.binds[index]
            .glue
            .unwrap_or(self.stubs.shared_miss_glue)
    }
}

impl Sdt {
    /// Exports a read-only snapshot of the cache's structural metadata for
    /// host-side tooling (disassemblers, the `strata-analysis` checker).
    pub fn cache_meta(&self) -> CacheMeta {
        let st = self.state();
        let s = st.stubs;
        let stubs = StubsMeta {
            restore: s.restore,
            rc_restore: s.rc_restore,
            miss_tail_stack_flags: s.miss_tail_stack_flags,
            miss_tail_reg_flags: s.miss_tail_reg_flags,
            shared_miss_glue: s.shared_miss_glue,
            nofill_miss_glue: s.nofill_miss_glue,
            rc_miss: s.rc_miss,
        };

        let binds = st
            .binds
            .iter()
            .enumerate()
            .map(|(index, b)| {
                let kind = match b.spec {
                    StrategySpec::Ibtc { ways, .. } => TableKind::IbtcTagged { ways },
                    // The sieve's bucket table and the promotion sieve
                    // share a shape; re-entry allocates no table.
                    StrategySpec::Sieve { .. }
                    | StrategySpec::Adaptive { .. }
                    | StrategySpec::Predictive { .. }
                    | StrategySpec::Reentry => TableKind::SieveBuckets,
                };
                BindMeta {
                    index,
                    id: b.spec.id(),
                    describe: b.spec.describe(),
                    table: b.table.map(|t| TableMeta::from_ref(t, kind)),
                    glue: b.glue,
                    lookup_routine: b.lookup_routine,
                }
            })
            .collect();

        let mut fragments: Vec<FragmentMeta> = st
            .map
            .iter()
            .map(|(&(app_addr, kind), f)| FragmentMeta {
                app_addr,
                kind,
                entry: f.entry,
                restore_entry: f.restore_entry,
                body: f.body,
            })
            .collect();
        fragments.sort_by_key(|f| f.entry);

        let mut exit_sites = Vec::new();
        let mut ib_site_tables = Vec::new();
        for site in &st.sites {
            match *site {
                Site::Exit { target, patch_addr } => {
                    exit_sites.push(ExitSiteMeta { target, patch_addr });
                }
                Site::Ib {
                    bind,
                    table: Some(base),
                } => {
                    if let Some((entries, ways)) =
                        st.binds[bind as usize].spec.site_table_geometry()
                    {
                        if let Ok(t) = crate::dispatch::ibtc_table_ref(base, entries, ways) {
                            ib_site_tables
                                .push(TableMeta::from_ref(t, TableKind::IbtcTagged { ways }));
                        }
                    }
                }
                Site::Ib { table: None, .. } | Site::Adaptive { .. } => {}
            }
        }

        let adaptive_sites = st
            .adaptive
            .iter()
            .map(|a| AdaptiveSiteMeta {
                entry_jmp: a.entry_jmp,
                stage: match a.stage {
                    AdaptiveStage::Inline { tag_li, frag_li } => {
                        AdaptiveStageMeta::Inline { tag_li, frag_li }
                    }
                    AdaptiveStage::Ibtc { table } => AdaptiveStageMeta::Ibtc {
                        table: TableMeta::from_ref(table, TableKind::IbtcTagged { ways: 1 }),
                    },
                    AdaptiveStage::Sieve => AdaptiveStageMeta::Sieve,
                    AdaptiveStage::Observe => AdaptiveStageMeta::Observe,
                },
            })
            .collect();

        CacheMeta {
            cache_base: layout::CACHE_BASE,
            cache_used: st.cache.used_bytes(),
            post_stub_cursor: st.post_stub_cursor,
            entry_app: self.entry_app(),
            app_code: self.app_code_range(),
            table_region: (layout::TABLES_BASE, layout::TABLES_END),
            stubs,
            binds,
            class_bind: st.class_bind,
            fragments,
            exit_sites,
            ib_site_tables,
            adaptive_sites,
            rc_table: st
                .rc_tab
                .map(|t| TableMeta::from_ref(t, TableKind::ReturnCache)),
            shadow: st.shadow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SdtConfig;
    use strata_arch::ArchProfile;
    use strata_asm::assemble;
    use strata_machine::{layout, Program};

    fn run(src: &str, cfg: SdtConfig) -> Sdt {
        let code = assemble(layout::APP_BASE, src).unwrap();
        let program = Program::new("t", code, Vec::new());
        let mut sdt = Sdt::new(cfg, &program).unwrap();
        sdt.run(ArchProfile::x86_like(), 1_000_000).unwrap();
        sdt
    }

    const IB_SRC: &str = "li r9, t\njr r9\nt:\nli r4, 1\ntrap 0x1\nhalt\n";

    #[test]
    fn meta_reports_stubs_fragments_and_binds() {
        let sdt = run(IB_SRC, SdtConfig::ibtc_inline(64));
        let m = sdt.cache_meta();
        assert_eq!(m.cache_base, layout::CACHE_BASE);
        assert_eq!(m.cache_used, sdt.cache_used_bytes());
        assert!(m.post_stub_cursor > m.cache_base);
        assert_eq!(m.binds.len(), 1);
        assert_eq!(m.binds[0].id, "ibtc");
        let t = m.binds[0].table.expect("shared IBTC allocated");
        assert_eq!(t.kind, TableKind::IbtcTagged { ways: 1 });
        assert_eq!(t.mask, 63);
        assert_eq!(m.fragments.len(), sdt.fragments());
        // Fragment entries are sorted and all inside the used cache.
        for w in m.fragments.windows(2) {
            assert!(w[0].entry < w[1].entry);
        }
        for f in &m.fragments {
            assert!(f.entry >= m.post_stub_cursor && f.entry < m.cache_base + m.cache_used);
        }
        // Stubs precede the flush point.
        assert!(m.stubs.restore < m.post_stub_cursor);
        assert!(m.stubs.rc_miss < m.post_stub_cursor);
    }

    #[test]
    fn per_site_tables_surface_with_geometry() {
        let cfg = SdtConfig {
            ib: crate::IbMechanism::Ibtc {
                entries: 16,
                scope: crate::IbtcScope::PerSite,
                placement: crate::IbtcPlacement::Inline,
            },
            ..SdtConfig::ibtc_inline(64)
        };
        let sdt = run(IB_SRC, cfg);
        let m = sdt.cache_meta();
        assert!(!m.ib_site_tables.is_empty());
        for t in &m.ib_site_tables {
            assert_eq!(t.kind, TableKind::IbtcTagged { ways: 1 });
            assert_eq!(t.mask, 15);
            assert!(t.base >= m.table_region.0 && t.base < m.table_region.1);
        }
    }

    #[test]
    fn exit_sites_and_rc_table_surface() {
        let sdt = run(
            "call f\nhalt\nf:\nli r4, 2\ntrap 0x1\nret\n",
            SdtConfig::tuned(64, 64),
        );
        let m = sdt.cache_meta();
        assert!(!m.exit_sites.is_empty());
        let rc = m.rc_table.expect("return cache allocated");
        assert_eq!(rc.kind, TableKind::ReturnCache);
        assert_eq!(rc.entry_bytes, 4);
        assert!(m.all_tables().iter().any(|t| t.base == rc.base));
    }
}
