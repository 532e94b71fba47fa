//! Figure 15 (ablation) — direct-jump elision (fragment formation). The
//! translator can keep translating through unconditional jumps, removing a
//! taken jump per elision at the cost of tail-duplicated code. Whether it
//! pays depends on predecessor counts and I-cache pressure.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

fn configs() -> (SdtConfig, SdtConfig) {
    let base = SdtConfig::ibtc_inline(4096);
    let mut elide = base;
    elide.elide_direct_jumps = true;
    (base, elide)
}

fn profiles() -> [ArchProfile; 2] {
    [ArchProfile::x86_like(), ArchProfile::mips_like()]
}

/// Cells: plain and eliding variants on every benchmark, x86- and
/// mips-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let (base, elide) = configs();
    grid(&[base, elide], &profiles(), params)
}

/// Renders Figure 15.
pub fn render(view: &View) -> Result<Output, String> {
    let (base, elide) = configs();
    let mut out = Output::default();
    for profile in profiles() {
        let mut t = Table::new(
            format!("Fig. 15: direct-jump elision ({})", profile.name),
            &[
                "benchmark",
                "plain",
                "elided",
                "delta",
                "jumps elided",
                "cache bytes plain/elided",
            ],
        );
        let mut p_all = Vec::new();
        let mut e_all = Vec::new();
        for name in names() {
            let native = view.native(name, &profile).total_cycles;
            let rp = view.translated(name, base, &profile);
            let re = view.translated(name, elide, &profile);
            let sp = rp.slowdown(native);
            let se = re.slowdown(native);
            p_all.push(sp);
            e_all.push(se);
            t.row([
                name.to_string(),
                fx(sp),
                fx(se),
                format!("{:+.1}%", (se / sp - 1.0) * 100.0),
                re.mech.elided_jumps.to_string(),
                format!("{}/{}", rp.mech.cache_used_bytes, re.mech.cache_used_bytes),
            ]);
        }
        t.row([
            "geomean".to_string(),
            fx(geomean(p_all).expect("nonempty")),
            fx(geomean(e_all).expect("nonempty")),
            String::new(),
            String::new(),
            String::new(),
        ]);
        out.table(t);
    }
    out.note(
        "Reading: elision wins where jump chains have few predecessors and the\n\
         duplicated code stays cache-resident; on dispatch-heavy benchmarks the\n\
         duplicated tails inflate the I-cache footprint and the win evaporates —\n\
         another configuration knob whose right setting is workload- and\n\
         machine-dependent.",
    );
    Ok(out)
}
