//! Figure 7 — sieve bucket-count sensitivity. With few buckets, targets
//! share chains and every dispatch walks multiple compare-and-branch
//! stanzas; with many buckets chains stay short and a hit is one table
//! load plus one stanza ending in a *direct* jump.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

const SHIFTS: [u32; 7] = [4, 6, 8, 10, 12, 14, 16];

/// Cells: the sieve bucket-count ladder on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let configs: Vec<SdtConfig> = SHIFTS.iter().map(|&s| SdtConfig::sieve(1 << s)).collect();
    grid(&configs, &[ArchProfile::x86_like()], params)
}

/// Renders Figure 7.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Fig. 7: sieve bucket-count sweep (x86-like)",
        &[
            "buckets",
            "geomean slowdown",
            "mean chain",
            "max chain",
            "perlbmk",
            "gcc",
        ],
    );
    for shift in SHIFTS {
        let buckets = 1u32 << shift;
        let cfg = SdtConfig::sieve(buckets);
        let mut slowdowns = Vec::new();
        let mut mean_chain: f64 = 0.0;
        let mut max_chain = 0u32;
        let mut pick = [0.0f64; 2];
        for name in names() {
            let native = view.native(name, &x86).total_cycles;
            let r = view.translated(name, cfg, &x86);
            let s = r.slowdown(native);
            slowdowns.push(s);
            mean_chain = mean_chain.max(r.mech.sieve_mean_chain);
            max_chain = max_chain.max(r.mech.sieve_max_chain);
            match name {
                "perlbmk" => pick[0] = s,
                "gcc" => pick[1] = s,
                _ => {}
            }
        }
        t.row([
            buckets.to_string(),
            fx(geomean(slowdowns.iter().copied()).expect("nonempty")),
            format!("{mean_chain:.2}"),
            max_chain.to_string(),
            fx(pick[0]),
            fx(pick[1]),
        ]);
    }
    let mut out = Output::default();
    out.table(t).note(
        "Reading: slowdown tracks chain length; once buckets exceed the dynamic\n\
         target count, chains are ~1 stanza and performance saturates. (Chain\n\
         columns report the worst benchmark at each size.)",
    );
    Ok(out)
}
