//! Table 1 — dynamic indirect-branch characteristics of every benchmark:
//! how often each kind of indirect branch retires natively. This is the
//! demand the IB handling mechanisms must serve.

use strata_arch::ArchProfile;
use strata_stats::Table;
use strata_workloads::Params;

use super::{names, natives, Output};
use crate::cell::CellKey;
use crate::view::View;

/// Cells: native baselines on the x86-like profile.
pub fn cells(params: Params) -> Vec<CellKey> {
    natives(&[ArchProfile::x86_like()], params)
}

/// Renders Table 1.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Table 1: dynamic indirect-branch characteristics (native, x86-like)",
        &[
            "benchmark",
            "instructions",
            "ind-jumps",
            "ind-calls",
            "returns",
            "total IBs",
            "IBs/1k instrs",
        ],
    );
    for name in names() {
        let n = view.native(name, &x86);
        let ibs = n.indirect_branches();
        t.row([
            name.to_string(),
            n.instructions.to_string(),
            n.indirect_jumps.to_string(),
            n.indirect_calls.to_string(),
            n.returns.to_string(),
            ibs.to_string(),
            format!("{:.2}", ibs as f64 * 1000.0 / n.instructions as f64),
        ]);
    }
    let mut out = Output::default();
    out.table(t).note(
        "Reading: interpreter/OO benchmarks (perlbmk, gap, eon, vortex) are IB-dense;\n\
         loop kernels (gzip, bzip2, mcf) barely execute IBs — exactly the spread the\n\
         paper relies on to separate mechanism behaviour.",
    );
    Ok(out)
}
