//! Figure 12 — the instruction-cache cost of inlining. Inlined IBTC
//! lookup replicates ~20 instructions at every indirect-branch site; on a
//! machine with a small I-cache that replication turns into fetch stalls,
//! narrowing (or reversing) inlining's win. Measured on the mips-like
//! profile (8 KiB I-cache).

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, ratio, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

const ENTRIES: u32 = 4096;

/// Cells: inline and out-of-line placements on every benchmark,
/// mips-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    grid(
        &[
            SdtConfig::ibtc_inline(ENTRIES),
            SdtConfig::ibtc_out_of_line(ENTRIES),
        ],
        &[ArchProfile::mips_like()],
        params,
    )
}

/// Renders Figure 12.
pub fn render(view: &View) -> Result<Output, String> {
    let mips = ArchProfile::mips_like();
    let mut t = Table::new(
        "Fig. 12: I-cache pressure of inlined lookups (mips-like, 8 KiB I-cache)",
        &[
            "benchmark",
            "inline slowdown",
            "outline slowdown",
            "inline i$ miss/1k",
            "outline i$ miss/1k",
            "cache bytes in/out",
        ],
    );
    let mut inl = Vec::new();
    let mut out_s = Vec::new();
    for name in names() {
        let native = view.native(name, &mips).total_cycles;
        let ri = view.translated(name, SdtConfig::ibtc_inline(ENTRIES), &mips);
        let ro = view.translated(name, SdtConfig::ibtc_out_of_line(ENTRIES), &mips);
        inl.push(ri.slowdown(native));
        out_s.push(ro.slowdown(native));
        t.row([
            name.to_string(),
            fx(ri.slowdown(native)),
            fx(ro.slowdown(native)),
            format!("{:.2}", 1000.0 * ratio(ri.icache_misses, ri.instructions)),
            format!("{:.2}", 1000.0 * ratio(ro.icache_misses, ro.instructions)),
            format!("{}/{}", ri.mech.cache_used_bytes, ro.mech.cache_used_bytes),
        ]);
    }
    t.row([
        "geomean".to_string(),
        fx(geomean(inl).expect("nonempty")),
        fx(geomean(out_s).expect("nonempty")),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let mut out = Output::default();
    out.table(t).note(
        "Reading: inlining's per-lookup saving competes with its I-cache\n\
         footprint; with a small I-cache the gap between inline and out-of-line\n\
         closes on code-footprint-heavy benchmarks — configuration must weigh\n\
         both, per architecture.",
    );
    Ok(out)
}
