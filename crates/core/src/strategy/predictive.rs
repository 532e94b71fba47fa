//! Predictor-aware sieve dispatch: order stanza chains by observed
//! target frequency instead of discovery order.
//!
//! A plain sieve installs compare-and-direct-jump stanzas in the order
//! targets first miss, so a site whose hottest target shows up late
//! pays extra compares on every subsequent dispatch. This strategy
//! spends a short *observation* stage to fix that:
//!
//! * Stage 0 (*observe*): the site's probe is just a patchable entry
//!   `jmp` into the site miss path — every dispatch traps to the
//!   translator, which tallies exact per-target frequencies (the same
//!   observed-frequency statistics the adaptive policy's promotion
//!   thresholds key off, but kept as full counts rather than arities).
//! * Stage 1 (*sieve*): once `probation` dispatches have been observed,
//!   the site is re-emitted as a hash probe into the binding's shared
//!   sieve bucket table, and stanzas for every observed target are
//!   installed **in descending frequency order** — the sieve appends at
//!   each chain's tail, so install order *is* probe order, and the
//!   hottest target sits first in its chain. Targets that first appear
//!   after promotion extend chains through the normal miss paths.
//!
//! The observation stage is bounded, so its trap cost amortizes to
//! nothing on long runs; the payoff is shorter average chain walks on
//! polymorphic sites, which is exactly the term a hardware target
//! predictor does *not* hide (a BTB caches the final indirect jump of
//! the dispatch sequence, not the compare ladder in front of it).
//! Sites reuse the adaptive machinery's [`AdaptiveSite`] records and
//! [`Site::Adaptive`] ids; a cache flush discards every site, so they
//! re-observe afterwards.

use strata_machine::Memory;

use crate::fragment::Site;
use crate::sdt::SdtState;
use crate::strategy::adaptive::{emit_promoting_site, promote_to_sieve, AdaptiveStage};
use crate::SdtError;

/// Cap on distinct targets tracked (and pre-installed) per site; a
/// megamorphic site's tail targets install through the ordinary sieve
/// miss path after promotion instead.
const MAX_OBSERVED: usize = 64;

/// Emits a predictive site of binding `bind` in its observation stage:
/// the entry jump falls straight through to the site miss path, so every
/// dispatch traps, which is what makes the tallied frequencies exact.
pub(crate) fn emit_probe(st: &mut SdtState, mem: &mut Memory, bind: usize) -> Result<(), SdtError> {
    emit_promoting_site(st, mem, bind, |st, mem, site| {
        st.cache
            .emit_site_glue(mem, site, st.stubs.miss_tail_stack_flags)?;
        Ok(AdaptiveStage::Observe)
    })
}

/// Services a miss at predictive site `site` of binding `bind`: tallies
/// the target while observing and promotes the site once `probation`
/// dispatches have been observed; a promoted site extends its chain.
pub(crate) fn on_site_miss(
    st: &mut SdtState,
    mem: &mut Memory,
    bind: usize,
    site: u32,
    target: u32,
    frag_entry: u32,
    probation: u32,
) -> Result<(), SdtError> {
    let Site::Adaptive { idx, .. } = st.sites[site as usize] else {
        unreachable!("predictive site misses carry an adaptive site id");
    };
    let idx = idx as usize;
    let stage = st.adaptive[idx].stage;
    match stage {
        AdaptiveStage::Observe => {
            let a = &mut st.adaptive[idx];
            if let Some(i) = a.targets.iter().position(|&t| t == target) {
                a.counts[i] += 1;
            } else if a.targets.len() < MAX_OBSERVED {
                a.targets.push(target);
                a.counts.push(1);
                a.frags.push(frag_entry);
            }
            let observed: u64 = a.counts.iter().sum();
            if observed >= probation as u64 {
                promote(st, mem, bind, idx)?;
            }
        }
        AdaptiveStage::Sieve => {
            st.sieve_install(mem, bind, target, frag_entry)?;
        }
        _ => unreachable!("predictive sites only observe or sieve"),
    }
    Ok(())
}

/// Re-emits the site as a sieve hash probe and pre-installs every
/// observed target's stanza in descending (count, first-seen) order.
/// On [`SdtError::CacheFull`] the site is left unpromoted (the caller
/// flushes anyway, which discards the whole site).
fn promote(st: &mut SdtState, mem: &mut Memory, bind: usize, idx: usize) -> Result<(), SdtError> {
    // The sieve appends at each chain's tail, so installing in
    // descending-frequency order puts the hottest target first in its
    // chain. Ties break on first-seen order for determinism.
    let a = &st.adaptive[idx];
    let mut order: Vec<usize> = (0..a.targets.len()).collect();
    order.sort_by(|&x, &y| a.counts[y].cmp(&a.counts[x]).then(x.cmp(&y)));
    let pairs: Vec<(u32, u32)> = order.iter().map(|&i| (a.targets[i], a.frags[i])).collect();
    promote_to_sieve(st, mem, bind, idx, &pairs)
}
