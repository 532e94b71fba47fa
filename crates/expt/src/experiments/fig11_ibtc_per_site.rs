//! Figure 11 — per-site vs shared IBTC tables. A private table per
//! indirect-branch site captures per-branch target locality (a mostly
//! monomorphic branch needs only a handful of entries), at the cost of
//! table space and colder tables.

use strata_arch::ArchProfile;
use strata_core::{IbMechanism, IbtcPlacement, IbtcScope, SdtConfig};
use strata_stats::{geomean, ratio, Table};
use strata_workloads::Params;

use super::{fx, grid, names, pct, Output};
use crate::cell::CellKey;
use crate::view::View;

const SIZES: [u32; 3] = [16, 64, 256];

fn cfg(entries: u32, scope: IbtcScope) -> SdtConfig {
    SdtConfig {
        ib: IbMechanism::Ibtc {
            entries,
            scope,
            placement: IbtcPlacement::Inline,
        },
        ..SdtConfig::ibtc_inline(entries)
    }
}

/// Cells: shared and per-site tables at each size, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let mut configs = Vec::new();
    for entries in SIZES {
        for scope in [IbtcScope::Shared, IbtcScope::PerSite] {
            configs.push(cfg(entries, scope));
        }
    }
    grid(&configs, &[ArchProfile::x86_like()], params)
}

/// Renders Figure 11.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Fig. 11: per-site vs shared IBTC (inline, x86-like)",
        &[
            "entries",
            "shared geomean",
            "shared miss",
            "per-site geomean",
            "per-site miss",
        ],
    );
    for entries in SIZES {
        let mut row = vec![entries.to_string()];
        for scope in [IbtcScope::Shared, IbtcScope::PerSite] {
            let c = cfg(entries, scope);
            let mut slowdowns = Vec::new();
            let mut misses = 0u64;
            let mut dispatches = 0u64;
            for name in names() {
                let native = view.native(name, &x86).total_cycles;
                let r = view.translated(name, c, &x86);
                slowdowns.push(r.slowdown(native));
                misses += r.mech.ib_misses;
                dispatches += r.mech.ib_dispatches + r.mech.ret_dispatches;
            }
            row.push(fx(geomean(slowdowns).expect("nonempty")));
            row.push(pct(ratio(misses, dispatches)));
        }
        t.row(row);
    }
    let mut out = Output::default();
    out.table(t).note(
        "Reading: at small sizes a private table per site out-hits one shared\n\
         table of the same size (no cross-site conflicts); once the shared table\n\
         covers the global target set the difference vanishes — so shared+large is\n\
         the simpler engineering choice, as the paper concludes.",
    );
    Ok(out)
}
