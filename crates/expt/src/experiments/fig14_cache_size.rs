//! Figure 14 (ablation) — fragment-cache capacity. When the cache cannot
//! hold the working set of translated code, the SDT flushes and
//! retranslates; this sweep shows the cliff and where it sits relative to
//! each benchmark's code footprint.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::Table;
use strata_workloads::Params;

use super::{fx, Output};
use crate::cell::CellKey;
use crate::view::View;

const KIBS: [u32; 6] = [8, 12, 16, 24, 32, 64];
const NAMES: [&str; 2] = ["gcc", "perlbmk"];

fn cfg(kib: u32) -> SdtConfig {
    let mut cfg = SdtConfig::ibtc_inline(1024);
    cfg.cache_limit = Some(kib * 1024);
    cfg
}

/// Cells: the cache-size ladder on the two code-heavy benchmarks,
/// x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let x86 = ArchProfile::x86_like();
    let mut cells = Vec::new();
    for kib in KIBS {
        for name in NAMES {
            cells.push(CellKey::translated(name, cfg(kib), x86.clone(), params));
        }
    }
    cells
}

/// Renders Figure 14.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Fig. 14: fragment-cache size sweep (IBTC 1024, x86-like)",
        &[
            "cache bytes",
            "gcc slowdown",
            "gcc flushes",
            "perlbmk slowdown",
            "perlbmk flushes",
        ],
    );
    for kib in KIBS {
        let mut row = vec![format!("{}K", kib)];
        for name in NAMES {
            let native = view.native(name, &x86).total_cycles;
            let r = view.translated(name, cfg(kib), &x86);
            row.push(fx(r.slowdown(native)));
            row.push(r.mech.cache_flushes.to_string());
        }
        t.row(row);
    }
    let mut out = Output::default();
    out.table(t).note(
        "Reading: below the translated-code working set the flush/retranslate\n\
         cycle dominates; once the cache holds the working set, extra capacity is\n\
         free. Code-expanding mechanisms (inlined lookups, sieve stanzas) move\n\
         this cliff — part of the inline-vs-out-of-line trade-off.",
    );
    Ok(out)
}
