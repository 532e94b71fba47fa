//! Figure 19 — adaptive promotion vs fixed mechanisms. The adaptive
//! policy starts every indirect-branch site on a one-entry inline probe
//! and promotes it as observed target arity grows: a second distinct
//! target moves the site to a private IBTC, and more than `sieve_arity`
//! distinct targets move it to a sieve shared by the class's promoted
//! sites. Monomorphic sites thus keep a two-instruction compare while
//! polymorphic sites graduate to structures that can hold their target
//! sets.

use strata_arch::ArchProfile;
use strata_core::{ClassPolicy, SdtConfig};
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

fn adaptive() -> ClassPolicy {
    ClassPolicy::Adaptive {
        ibtc_entries: 256,
        sieve_buckets: 1024,
        sieve_arity: 8,
    }
}

fn configs() -> [(&'static str, SdtConfig); 4] {
    let adaptive_cfg = {
        let mut c = SdtConfig::tuned(512, 1024);
        c.policy.jump = adaptive();
        c.policy.call = adaptive();
        c
    };
    [
        // Fixed mechanisms with the same return cache, so the columns
        // isolate jump/call handling.
        ("ibtc-512", SdtConfig::tuned(512, 1024)),
        ("ibtc-4096", SdtConfig::tuned(4096, 1024)),
        ("sieve-1024", {
            let mut c = SdtConfig::sieve(1024);
            c.ret = SdtConfig::tuned(512, 1024).ret;
            c
        }),
        ("adaptive", adaptive_cfg),
    ]
}

/// Cells: three fixed configurations and the adaptive policy on every
/// benchmark, x86-like (all with a 1024-entry return cache).
pub fn cells(params: Params) -> Vec<CellKey> {
    let cfgs: Vec<SdtConfig> = configs().iter().map(|(_, c)| *c).collect();
    grid(&cfgs, &[ArchProfile::x86_like()], params)
}

/// Renders Figure 19.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let configs = configs();
    let mut t = Table::new(
        "Fig. 19: adaptive promotion vs fixed mechanisms, slowdown vs native (x86-like, rc-1024 \
         returns throughout)",
        &[
            "benchmark",
            "ibtc-512",
            "ibtc-4096",
            "sieve-1024",
            "adaptive",
            "promotions",
        ],
    );
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for name in names() {
        let native = view.native(name, &x86).total_cycles;
        let mut cells = vec![name.to_string()];
        let mut promotions = 0;
        for (i, (label, cfg)) in configs.iter().enumerate() {
            let r = view.translated(name, *cfg, &x86);
            per_cfg[i].push(r.slowdown(native));
            cells.push(fx(r.slowdown(native)));
            if *label == "adaptive" {
                promotions = r.mech.adaptive_promotions;
            }
        }
        cells.push(promotions.to_string());
        t.row(cells);
    }
    let mut cells = vec!["geomean".to_string()];
    for series in &per_cfg {
        cells.push(fx(geomean(series.iter().copied()).expect("nonempty")));
    }
    cells.push(String::new());
    t.row(cells);
    let mut out = Output::default();
    out.table(t).note(
        "Reading: the promotions column counts sites that outgrew their inline\n\
         probe (inline-to-IBTC plus IBTC-to-sieve, cumulative across cache\n\
         flushes). Monomorphic workloads promote almost nothing and ride the\n\
         cheap probe; switch-heavy workloads promote their hot sites and\n\
         approach the fixed mechanisms' cost from below.",
    );
    Ok(out)
}
