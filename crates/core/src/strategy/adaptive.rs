//! Adaptive per-site promotion: every site starts on a cheap single-entry
//! inline probe; when the observed target arity crosses thresholds the
//! runtime re-emits the probe at the cache frontier and repatches the
//! site's entry jump — inline → per-site IBTC → sieve.
//!
//! Promotion machinery:
//!
//! * Stage 0 (*inline*): compare `r1` against one patchable target
//!   constant and jump straight to its (patchable) fragment address. The
//!   first miss fills both constants; the tag starts at 0, which no
//!   application target can equal.
//! * Stage 1 (*IBTC*): on the second distinct target, a per-site
//!   direct-mapped IBTC probe is emitted at the cache frontier and the
//!   site's entry `jmp` is repatched onto it. The table is allocated above
//!   the flush floor, so a cache flush reclaims it.
//! * Stage 2 (*sieve*): past `sieve_arity` distinct targets, the probe is
//!   repatched onto a hash into the binding's shared sieve bucket table;
//!   stanza chains are installed through the normal sieve miss path.
//!
//! Promotion counts are kept per binding and surfaced in
//! [`RunReport`](crate::RunReport). A cache flush discards every adaptive
//! site (their probes live in flushed cache space) and resets the shared
//! sieve, so sites re-learn their arity afterwards — counters are
//! cumulative across flushes.

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::fragment::Site;
use crate::protocol::SLOT_JUMP_TARGET;
use crate::sdt::SdtState;
use crate::strategy::ibtc::alloc_site_table;
use crate::tables::TableRef;
use crate::{Origin, SdtError};

/// Host-side record of one adaptive (or predictive) dispatch site.
#[derive(Debug)]
pub(crate) struct AdaptiveSite {
    /// Patchable `jmp` heading the probe; promotion repoints it.
    pub entry_jmp: u32,
    pub stage: AdaptiveStage,
    /// Distinct application targets observed (bounded by the sieve
    /// threshold — past promotion to the sieve the exact count is moot).
    pub targets: Vec<u32>,
    /// Per-target dispatch counts, parallel to `targets`. Only the
    /// predictive strategy maintains these (its observation stage traps
    /// every dispatch, so they are exact frequencies); adaptive sites
    /// leave the vector empty.
    pub counts: Vec<u64>,
    /// Per-target fragment entries, parallel to `targets` — again only
    /// maintained by the predictive strategy, which needs them to
    /// install every observed target's stanza at promotion time. A
    /// cache flush discards the whole site, so entries never dangle.
    pub frags: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum AdaptiveStage {
    /// Single-target inline probe; the two `li` pairs to patch on fill.
    Inline { tag_li: u32, frag_li: u32 },
    /// Per-site direct-mapped IBTC.
    Ibtc { table: TableRef },
    /// Hashing into the binding's shared sieve.
    Sieve,
    /// Predictive observation: every dispatch traps to the translator,
    /// which tallies exact per-target frequencies before promoting the
    /// site to a frequency-ordered sieve probe.
    Observe,
}

/// Emits an adaptive site of binding `bind` in stage 0: compare against
/// one patchable target constant and jump straight to its patchable
/// fragment address.
pub(crate) fn emit_probe(st: &mut SdtState, mem: &mut Memory, bind: usize) -> Result<(), SdtError> {
    emit_promoting_site(st, mem, bind, |st, mem, site| {
        let d = Origin::Dispatch;
        let tag_li = st.cache.emit_li(mem, Reg::R2, 0, d)?;
        st.cache.emit(
            mem,
            Instr::Cmp {
                rs1: Reg::R1,
                rs2: Reg::R2,
            },
            d,
        )?;
        let bne = st.cache.emit(mem, Instr::Bne { off: 0 }, d)?;
        let frag_li = st.cache.emit_li(mem, Reg::R3, 0, d)?;
        st.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R3,
                addr: SLOT_JUMP_TARGET,
            },
            d,
        )?;
        st.close_way(mem, bne)?;
        st.cache
            .emit_site_glue(mem, site, st.stubs.miss_tail_stack_flags)?;
        Ok(AdaptiveStage::Inline { tag_li, frag_li })
    })
}

/// Services a miss at adaptive site `site`: records the target and fills
/// the site's current stage, promoting it once the observed arity
/// outgrows the stage (a second target → per-site IBTC of
/// `ibtc_entries`, more than `sieve_arity` → the binding's sieve).
pub(crate) fn on_site_miss(
    st: &mut SdtState,
    mem: &mut Memory,
    site: u32,
    target: u32,
    frag_entry: u32,
    ibtc_entries: u32,
    sieve_arity: u32,
) -> Result<(), SdtError> {
    let Site::Adaptive { bind, idx } = st.sites[site as usize] else {
        unreachable!("adaptive site misses carry an adaptive site id");
    };
    let (bind, idx) = (bind as usize, idx as usize);
    let a = &mut st.adaptive[idx];
    if !a.targets.contains(&target) && a.targets.len() <= sieve_arity as usize {
        a.targets.push(target);
    }
    let arity = a.targets.len() as u32;
    let stage = a.stage;
    match stage {
        AdaptiveStage::Inline { tag_li, frag_li } => {
            if arity <= 1 {
                st.cache.patch_li(mem, tag_li, Reg::R2, target)?;
                st.cache.patch_li(mem, frag_li, Reg::R3, frag_entry)?;
            } else {
                promote_to_ibtc(st, mem, bind, idx, site, ibtc_entries, target, frag_entry)?;
            }
        }
        AdaptiveStage::Ibtc { table } => {
            if arity > sieve_arity {
                promote_to_sieve(st, mem, bind, idx, &[(target, frag_entry)])?;
            } else {
                table.fill_tagged(mem, target, frag_entry)?;
            }
        }
        AdaptiveStage::Sieve => {
            // The hash led to an un-installed chain slot for this
            // target; extend the chain exactly like a shared miss.
            st.sieve_install(mem, bind, target, frag_entry)?;
        }
        AdaptiveStage::Observe => {
            unreachable!("observation sites belong to the predictive strategy")
        }
    }
    Ok(())
}

/// Re-emits the site as a per-site IBTC probe of `entries` entries at
/// the cache frontier and repatches the entry jump onto it. On
/// [`SdtError::CacheFull`] the site is left unpromoted (the caller
/// flushes anyway).
#[allow(clippy::too_many_arguments)]
fn promote_to_ibtc(
    st: &mut SdtState,
    mem: &mut Memory,
    bind: usize,
    idx: usize,
    site: u32,
    entries: u32,
    target: u32,
    frag_entry: u32,
) -> Result<(), SdtError> {
    let table = alloc_site_table(st, mem, entries, 1)?;
    let stub = st.cache.addr();
    let glue = st.glue_for(bind);
    st.cache.emit_hash(mem, table)?;
    st.emit_tag_probe(mem, Reg::R2, Reg::R3, 1, Some(site), glue)?;
    repoint_site(st, mem, idx, stub)?;
    table.fill_tagged(mem, target, frag_entry)?;
    st.adaptive[idx].stage = AdaptiveStage::Ibtc { table };
    st.binds[bind].promotions_to_ibtc += 1;
    Ok(())
}

/// Emits a promoting site: a patchable entry `jmp` falling through to the
/// stage-0 probe `probe` emits for the new site id, and registers the
/// site in the stage `probe` returns.
pub(crate) fn emit_promoting_site(
    st: &mut SdtState,
    mem: &mut Memory,
    bind: usize,
    probe: impl FnOnce(&mut SdtState, &mut Memory, u32) -> Result<AdaptiveStage, SdtError>,
) -> Result<(), SdtError> {
    let entry_jmp = st.cache.addr();
    st.cache.emit(
        mem,
        Instr::Jmp {
            target: entry_jmp + 4,
        },
        Origin::Dispatch,
    )?;
    let idx = st.adaptive.len() as u32;
    let site = st.new_site(Site::Adaptive {
        bind: bind as u8,
        idx,
    });
    let stage = probe(st, mem, site)?;
    st.adaptive.push(AdaptiveSite {
        entry_jmp,
        stage,
        targets: Vec::new(),
        counts: Vec::new(),
        frags: Vec::new(),
    });
    Ok(())
}

/// Repatches promoting site `idx`'s entry jump onto the probe at `stub`.
fn repoint_site(
    st: &mut SdtState,
    mem: &mut Memory,
    idx: usize,
    stub: u32,
) -> Result<(), SdtError> {
    let entry_jmp = st.adaptive[idx].entry_jmp;
    st.cache
        .patch(mem, entry_jmp, Instr::Jmp { target: stub }, None)
}

/// Re-emits promoting site `idx` as a sieve probe into the binding's
/// shared bucket table, repatches the entry jump onto it, and installs
/// the `(target, fragment)` stanzas in order — the sieve appends at each
/// chain's tail, so install order is probe order. An abandoned per-site
/// IBTC table is reclaimed at the next cache flush; on
/// [`SdtError::CacheFull`] the site is left unpromoted (the caller
/// flushes anyway, which discards the whole site).
pub(crate) fn promote_to_sieve(
    st: &mut SdtState,
    mem: &mut Memory,
    bind: usize,
    idx: usize,
    installs: &[(u32, u32)],
) -> Result<(), SdtError> {
    let table = st.binds[bind].table.expect("promotion sieve allocated");
    let stub = st.cache.addr();
    st.cache.emit_sieve_probe(mem, table)?;
    repoint_site(st, mem, idx, stub)?;
    for &(target, frag_entry) in installs {
        st.sieve_install(mem, bind, target, frag_entry)?;
    }
    st.adaptive[idx].stage = AdaptiveStage::Sieve;
    st.binds[bind].promotions_to_sieve += 1;
    Ok(())
}
