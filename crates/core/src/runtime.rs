//! The SDT runtime: services `TRAP_MISS` / `TRAP_RC_MISS` crossings from
//! the fragment cache — translating new fragments, linking exits, and
//! routing structure fills to the owning strategy binding.

use strata_isa::{Instr, Reg};
use strata_machine::{Machine, Memory};

use crate::config::FlagsPolicy;
use crate::fragment::{FragKind, Fragment, Site};
use crate::protocol::{
    sentinel_bind, SITE_NOFILL, SITE_SHARED, SLOT_RESUME, SLOT_SITE, SLOT_TARGET,
};
use crate::sdt::SdtState;
use crate::{Origin, SdtError};

/// Host-side translator work performed while servicing one trap, used to
/// charge translator cycles to the architecture model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TranslatorWork {
    /// Application instructions newly translated.
    pub new_instrs: u64,
    /// Fragment-map lookups performed.
    pub lookups: u64,
}

impl SdtState {
    /// Whether the fragment cache may be flushed when full.
    fn can_flush(&self) -> bool {
        !self.cfg.ret.forbids_flush()
    }

    /// Discards every fragment, site, and lookup-structure entry, keeping
    /// only the shared stubs — Strata's response to a full fragment cache.
    pub(crate) fn flush_cache(&mut self, mem: &mut Memory) -> Result<(), SdtError> {
        debug_assert!(self.can_flush());
        self.stats.cache_flushes += 1;
        // Preserve instrumentation counts across the flush.
        for (app_addr, slot) in self.block_counters.drain(..) {
            let count = mem.read_u32(slot).unwrap_or(0) as u64;
            *self.flushed_counts.entry(app_addr).or_insert(0) += count;
        }
        self.cache.reset_to(self.post_stub_cursor);
        self.alloc.reset_to(self.alloc_floor);
        self.map = crate::fragment::FragmentMap::default();
        self.sites.clear();
        // Adaptive probes (and promoted per-site tables) lived in the
        // flushed region; sites re-learn their arity from scratch.
        self.adaptive.clear();
        self.frag_meta.clear();
        self.reset_mechanism_structures(mem)
    }

    /// [`SdtState::ensure_fragment`] with flush-on-overflow. Returns the
    /// fragment and whether a flush happened (in which case the missing
    /// site's structures no longer exist and must not be updated).
    pub(crate) fn ensure_fragment_flushing(
        &mut self,
        mem: &mut Memory,
        app_addr: u32,
        kind: FragKind,
    ) -> Result<(crate::fragment::Fragment, bool), SdtError> {
        match self.ensure_fragment(mem, app_addr, kind) {
            Err(SdtError::CacheFull { .. }) if self.can_flush() => {
                self.flush_cache(mem)?;
                Ok((self.ensure_fragment(mem, app_addr, kind)?, true))
            }
            r => Ok((r?, false)),
        }
    }

    /// Services a `TRAP_MISS`: resolve the target fragment, route the fill
    /// to the missing site's strategy binding, and arrange resumption
    /// through the restore stub.
    pub(crate) fn handle_trap_miss(
        &mut self,
        machine: &mut Machine,
    ) -> Result<TranslatorWork, SdtError> {
        self.stats.translator_entries += 1;
        let target = machine.mem().read_u32(SLOT_TARGET)?;
        let site = machine.mem().read_u32(SLOT_SITE)?;
        // A binding's shared (site-less) miss path; SITE_SHARED is the
        // legacy single-binding sentinel for binding 0. Every probe of a
        // fixed table misses this way (a site's own miss path probed a
        // table of its own or none), so the witness notes `target` here,
        // before a flush can skip the fill.
        let shared = match site {
            SITE_SHARED => Some(0),
            _ => sentinel_bind(site),
        };
        if let Some(bind) = shared {
            self.binds[bind].note_hashed(target);
        }
        let before = self.stats.translated_app_instrs;
        let (mut frag, flushed) =
            self.ensure_fragment_flushing(machine.mem_mut(), target, FragKind::Body)?;

        if flushed {
            // The dispatch code that missed was itself discarded; count the
            // miss but skip structure updates for the stale site id.
            self.stats.ib_misses += 1;
        } else if site == SITE_NOFILL {
            // Shadow-stack fallback: the next balanced call repopulates the
            // shadow entry, so there is nothing to fill here.
            self.stats.rc_misses += 1;
        } else if let Some(bind) = shared {
            self.stats.ib_misses += 1;
            self.binds[bind].misses += 1;
            frag = self.fill_catching_flush(machine.mem_mut(), target, frag, |st, mem| {
                let spec = st.binds[bind].spec;
                spec.on_shared_miss(st, mem, bind, target, frag.entry)
            })?;
        } else {
            match self.sites[site as usize] {
                Site::Exit {
                    patch_addr,
                    target: exit_target,
                } => {
                    debug_assert_eq!(exit_target, target);
                    self.stats.exit_misses += 1;
                    if self.cfg.link_fragments {
                        self.stats.exit_links += 1;
                        self.cache.patch(
                            machine.mem_mut(),
                            patch_addr,
                            Instr::Jmp { target: frag.entry },
                            Some(Origin::Trampoline),
                        )?;
                    }
                }
                Site::Ib { bind, .. } | Site::Adaptive { bind, .. } => {
                    let bind = bind as usize;
                    self.stats.ib_misses += 1;
                    self.binds[bind].misses += 1;
                    frag =
                        self.fill_catching_flush(machine.mem_mut(), target, frag, |st, mem| {
                            let spec = st.binds[bind].spec;
                            spec.on_site_miss(st, mem, bind, site, target, frag.entry)
                        })?;
                }
            }
        }

        machine.mem_mut().write_u32(SLOT_RESUME, frag.entry)?;
        machine.cpu_mut().pc = self.stubs.restore;
        Ok(TranslatorWork {
            new_instrs: self.stats.translated_app_instrs - before,
            lookups: 1,
        })
    }

    /// Runs a strategy fill that may emit into the cache (sieve stanzas,
    /// adaptive promotions). If the cache is full, flush and retranslate
    /// the target — its first fragment was discarded — and skip the fill
    /// (the missing site no longer exists).
    fn fill_catching_flush(
        &mut self,
        mem: &mut Memory,
        target: u32,
        frag: Fragment,
        fill: impl FnOnce(&mut SdtState, &mut Memory) -> Result<(), SdtError>,
    ) -> Result<Fragment, SdtError> {
        match fill(self, mem) {
            Err(SdtError::CacheFull { .. }) if self.can_flush() => {
                self.flush_cache(mem)?;
                self.ensure_fragment(mem, target, FragKind::Body)
            }
            r => {
                r?;
                Ok(frag)
            }
        }
    }

    /// Services a `TRAP_RC_MISS`: the actual return target is in
    /// `SLOT_TARGET`; install the return-point fragment in the return
    /// cache and resume at its restore sequence.
    pub(crate) fn handle_trap_rc_miss(
        &mut self,
        machine: &mut Machine,
    ) -> Result<TranslatorWork, SdtError> {
        self.stats.translator_entries += 1;
        self.stats.rc_misses += 1;
        let target = machine.mem().read_u32(SLOT_TARGET)?;
        let before = self.stats.translated_app_instrs;
        let (frag, _flushed) =
            self.ensure_fragment_flushing(machine.mem_mut(), target, FragKind::ReturnPoint)?;
        let rc = self.rc_tab.expect("return cache allocated");
        self.rc_hashed.note(rc, target);
        rc.fill_untagged(machine.mem_mut(), target, frag.entry)?;
        machine
            .mem_mut()
            .write_u32(SLOT_RESUME, frag.restore_entry)?;
        machine.cpu_mut().pc = self.stubs.rc_restore;
        Ok(TranslatorWork {
            new_instrs: self.stats.translated_app_instrs - before,
            lookups: 1,
        })
    }

    /// Appends a sieve stanza for `target → frag_entry` to its bucket's
    /// chain in binding `bind`'s sieve.
    pub(crate) fn sieve_install(
        &mut self,
        mem: &mut Memory,
        bind: usize,
        target: u32,
        frag_entry: u32,
    ) -> Result<(), SdtError> {
        let d = Origin::Dispatch;
        let table = self.binds[bind].table.expect("sieve table allocated");
        let glue = self.glue_for(bind);
        let bucket = table.index_of(target) as usize;
        // A fill that no miss of `target` precedes: a predictive site's
        // promotion installs every target it observed.
        self.binds[bind].note_hashed(target);

        let stanza = self.cache.addr();
        self.cache.emit_li(mem, Reg::R2, target, d)?;
        self.cache.emit(
            mem,
            Instr::Cmp {
                rs1: Reg::R1,
                rs2: Reg::R2,
            },
            d,
        )?;
        self.cache.emit(mem, Instr::Beq { off: 1 }, d)?;
        let link = self.cache.emit(mem, Instr::Jmp { target: glue }, d)?;
        let popf = self.cfg.flags == FlagsPolicy::Always;
        self.cache.emit_scratch_restore(mem, popf, d)?;
        // The sieve's defining property: a hit ends in a DIRECT jump.
        self.cache.emit(mem, Instr::Jmp { target: frag_entry }, d)?;

        match self.binds[bind].sieve_buckets[bucket].last_link {
            None => {
                // First stanza in the bucket: point the bucket head at it.
                mem.write_u32(table.base + bucket as u32 * 4, stanza)?;
            }
            Some(prev_link) => {
                self.cache
                    .patch(mem, prev_link, Instr::Jmp { target: stanza }, None)?;
            }
        }
        self.binds[bind].sieve_buckets[bucket].last_link = Some(link);
        self.binds[bind].sieve_buckets[bucket].len += 1;
        Ok(())
    }

    /// Mean and max sieve chain lengths across every binding's buckets
    /// (0 when no sieve is in use).
    pub(crate) fn sieve_chain_stats(&self) -> (f64, u32) {
        let lens: Vec<u32> = self
            .binds
            .iter()
            .flat_map(|b| b.sieve_buckets.iter())
            .map(|b| b.len)
            .filter(|&l| l > 0)
            .collect();
        if lens.is_empty() {
            return (0.0, 0);
        }
        let max = lens.iter().copied().max().unwrap_or(0);
        let mean = lens.iter().map(|&l| l as f64).sum::<f64>() / lens.len() as f64;
        (mean, max)
    }
}
