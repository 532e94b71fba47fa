//! Figure 9 — return handling. Returns are usually the most frequent
//! indirect branches; the paper evaluates treating them as generic IBs,
//! routing them through a tagless return cache with in-fragment
//! verification, and fast returns (pushing translated addresses —
//! fastest, transparency-violating).

use strata_arch::ArchProfile;
use strata_core::{RetMechanism, SdtConfig};
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

fn configs() -> [(&'static str, SdtConfig); 5] {
    let mut fast = SdtConfig::ibtc_inline(4096);
    fast.ret = RetMechanism::FastReturn;
    let mut shadow = SdtConfig::ibtc_inline(4096);
    shadow.ret = RetMechanism::ShadowStack { depth: 1024 };
    [
        ("ret-as-ib", SdtConfig::ibtc_inline(4096)),
        ("rc-64", SdtConfig::tuned(4096, 64)),
        ("rc-1024", SdtConfig::tuned(4096, 1024)),
        ("shadow-1024", shadow),
        ("fast-ret", fast),
    ]
}

/// Cells: the five return-handling configurations on every benchmark,
/// x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let cfgs: Vec<SdtConfig> = configs().iter().map(|(_, c)| *c).collect();
    grid(&cfgs, &[ArchProfile::x86_like()], params)
}

/// Renders Figure 9.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let configs = configs();
    let mut t = Table::new(
        "Fig. 9: return handling mechanisms, slowdown vs native (x86-like, IBTC 4096 for other IBs)",
        &["benchmark", "ret-as-ib", "rc-64", "rc-1024", "shadow-1024", "fast-ret", "rc-1024 hit rate"],
    );
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for name in names() {
        let native = view.native(name, &x86).total_cycles;
        let mut cells = vec![name.to_string()];
        let mut rc_rate = String::new();
        for (i, (label, cfg)) in configs.iter().enumerate() {
            let r = view.translated(name, *cfg, &x86);
            per_cfg[i].push(r.slowdown(native));
            cells.push(fx(r.slowdown(native)));
            if *label == "rc-1024" {
                rc_rate = format!("{:.2}%", r.mech.ret_hit_rate() * 100.0);
            }
        }
        cells.push(rc_rate);
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
        "Reading: on call/return-heavy benchmarks (crafty, parser, vortex) the\n\
         return cache removes most of the generic-dispatch cost and fast returns\n\
         remove nearly all of it — at the price of exposing fragment-cache\n\
         addresses on the application stack (see examples/transparency.rs). The\n\
         shadow stack is the transparent middle ground: exact return matching\n\
         (no hash conflicts) paid for with extra per-call bookkeeping.",
    );
    Ok(out)
}
