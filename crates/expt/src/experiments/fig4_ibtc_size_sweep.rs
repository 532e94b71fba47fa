//! Figure 4 — IBTC size sensitivity: slowdown and miss rate as the shared
//! inlined table grows from 16 to 65536 entries. The paper's finding:
//! overhead falls steeply until the table covers the dynamic target set,
//! then saturates.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, ratio, Table};
use strata_workloads::Params;

use super::{fx, grid, names, pct, Output};
use crate::cell::CellKey;
use crate::view::View;

const SHIFTS: [u32; 7] = [4, 6, 8, 10, 12, 14, 16];

/// Cells: the IBTC size ladder on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let configs: Vec<SdtConfig> = SHIFTS
        .iter()
        .map(|&s| SdtConfig::ibtc_inline(1 << s))
        .collect();
    grid(&configs, &[ArchProfile::x86_like()], params)
}

/// Renders Figure 4.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Fig. 4: shared inlined IBTC size sweep (x86-like)",
        &[
            "entries",
            "geomean slowdown",
            "miss rate",
            "perlbmk",
            "gcc",
            "eon",
        ],
    );
    for shift in SHIFTS {
        let entries = 1u32 << shift;
        let cfg = SdtConfig::ibtc_inline(entries);
        let mut slowdowns = Vec::new();
        let mut misses = 0u64;
        let mut dispatches = 0u64;
        let mut pick = [0.0f64; 3];
        for name in names() {
            let native = view.native(name, &x86).total_cycles;
            let r = view.translated(name, cfg, &x86);
            let s = r.slowdown(native);
            slowdowns.push(s);
            misses += r.mech.ib_misses;
            dispatches += r.mech.ib_dispatches + r.mech.ret_dispatches;
            match name {
                "perlbmk" => pick[0] = s,
                "gcc" => pick[1] = s,
                "eon" => pick[2] = s,
                _ => {}
            }
        }
        t.row([
            entries.to_string(),
            fx(geomean(slowdowns.iter().copied()).expect("nonempty")),
            pct(ratio(misses, dispatches)),
            fx(pick[0]),
            fx(pick[1]),
            fx(pick[2]),
        ]);
    }
    let mut out = Output::default();
    out.table(t).note(
        "Reading: miss rate (and slowdown) falls steeply with table size and\n\
         saturates once the dynamic indirect-target set fits — most benchmarks\n\
         want at least ~1K entries, after which bigger tables buy little.",
    );
    Ok(out)
}
