//! Figure 5 — inlined IBTC lookup code at every site vs one shared
//! out-of-line routine reached by call/return. Inlining removes a
//! transfer pair per lookup at the cost of code-cache and I-cache
//! footprint.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

const ENTRIES: u32 = 4096;

/// Cells: inline and out-of-line placements on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    grid(
        &[
            SdtConfig::ibtc_inline(ENTRIES),
            SdtConfig::ibtc_out_of_line(ENTRIES),
        ],
        &[ArchProfile::x86_like()],
        params,
    )
}

/// Renders Figure 5.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Fig. 5: inlined vs out-of-line IBTC lookup (4096 entries, x86-like)",
        &[
            "benchmark",
            "inline",
            "out-of-line",
            "outline penalty",
            "cache bytes in/out",
        ],
    );
    let mut inl = Vec::new();
    let mut out_s = Vec::new();
    for name in names() {
        let native = view.native(name, &x86).total_cycles;
        let ri = view.translated(name, SdtConfig::ibtc_inline(ENTRIES), &x86);
        let ro = view.translated(name, SdtConfig::ibtc_out_of_line(ENTRIES), &x86);
        let si = ri.slowdown(native);
        let so = ro.slowdown(native);
        inl.push(si);
        out_s.push(so);
        t.row([
            name.to_string(),
            fx(si),
            fx(so),
            format!("{:+.1}%", (so / si - 1.0) * 100.0),
            format!("{}/{}", ri.mech.cache_used_bytes, ro.mech.cache_used_bytes),
        ]);
    }
    let gi = geomean(inl.iter().copied()).expect("nonempty");
    let go = geomean(out_s.iter().copied()).expect("nonempty");
    t.row([
        "geomean".to_string(),
        fx(gi),
        fx(go),
        format!("{:+.1}%", (go / gi - 1.0) * 100.0),
        String::new(),
    ]);
    let mut out = Output::default();
    out.table(t).note(
        "Reading: the shared routine pays an extra call/return per lookup, so\n\
         inlining wins wherever IBs are frequent — but note the smaller code-cache\n\
         footprint of the out-of-line variant (see fig12 for the I-cache flip side).",
    );
    Ok(out)
}
