//! Figure 18 — mixed per-class dispatch policies. The paper evaluates
//! each mechanism globally; the strategy layer lets indirect jumps,
//! indirect calls, and returns each pick their own mechanism. This
//! experiment pits four single-mechanism configurations (returns handled
//! as generic IBs, as in the paper's head-to-head) against mixed
//! policies that route each branch class through the mechanism that
//! suits its behaviour.

use strata_arch::ArchProfile;
use strata_core::{ClassPolicy, IbMechanism, IbtcPlacement, IbtcScope, RetMechanism, SdtConfig};
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

/// Number of leading single-mechanism entries in [`configs`].
const SINGLES: usize = 4;

fn fixed(mech: IbMechanism) -> ClassPolicy {
    ClassPolicy::Fixed { mech, ways: 1 }
}

fn configs() -> [(&'static str, SdtConfig); 7] {
    let sieve_ibtc_rc = {
        let mut c = SdtConfig::tuned(512, 1024);
        c.policy.jump = fixed(IbMechanism::Sieve { buckets: 4096 });
        c.policy.call = ClassPolicy::Fixed {
            mech: IbMechanism::Ibtc {
                entries: 512,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::Inline,
            },
            ways: 2,
        };
        c
    };
    let ibtc_sieve_rc = {
        let mut c = SdtConfig::tuned(4096, 1024);
        c.policy.call = fixed(IbMechanism::Sieve { buckets: 1024 });
        c
    };
    let sieve_ibtc_shadow = {
        let mut c = sieve_ibtc_rc;
        c.ret = RetMechanism::ShadowStack { depth: 1024 };
        c
    };
    [
        ("reentry", SdtConfig::reentry()),
        ("ibtc-4096", SdtConfig::ibtc_inline(4096)),
        ("outline-4096", SdtConfig::ibtc_out_of_line(4096)),
        ("sieve-4096", SdtConfig::sieve(4096)),
        ("sv/ibtc/rc", sieve_ibtc_rc),
        ("ibtc/sv/rc", ibtc_sieve_rc),
        ("sv/ibtc/sh", sieve_ibtc_shadow),
    ]
}

/// Cells: four single-mechanism configurations and three mixed policies
/// on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let cfgs: Vec<SdtConfig> = configs().iter().map(|(_, c)| *c).collect();
    grid(&cfgs, &[ArchProfile::x86_like()], params)
}

/// Renders Figure 18.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let configs = configs();
    let mut t = Table::new(
        "Fig. 18: mixed per-class policies vs single mechanisms, slowdown vs native (x86-like; \
         mixed columns are jump/call/ret)",
        &[
            "benchmark",
            "reentry",
            "ibtc-4096",
            "outline-4096",
            "sieve-4096",
            "sv/ibtc/rc",
            "ibtc/sv/rc",
            "sv/ibtc/sh",
        ],
    );
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    // Benchmarks where some mixed policy ran in fewer total cycles than
    // *every* single-mechanism configuration.
    let mut mixed_wins: Vec<String> = Vec::new();
    for name in names() {
        let native = view.native(name, &x86).total_cycles;
        let mut cells = vec![name.to_string()];
        let mut cycles = Vec::with_capacity(configs.len());
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let r = view.translated(name, *cfg, &x86);
            per_cfg[i].push(r.slowdown(native));
            cells.push(fx(r.slowdown(native)));
            cycles.push(r.total_cycles);
        }
        t.row(cells);
        let best_single = cycles[..SINGLES].iter().min().expect("nonempty");
        if let Some(winner) = (SINGLES..configs.len())
            .filter(|&i| cycles[i] < *best_single)
            .min_by_key(|&i| cycles[i])
        {
            mixed_wins.push(format!("{name} ({})", configs[winner].0));
        }
    }
    let mut cells = vec!["geomean".to_string()];
    for series in &per_cfg {
        cells.push(fx(geomean(series.iter().copied()).expect("nonempty")));
    }
    t.row(cells);
    let wins_note = if mixed_wins.is_empty() {
        "Mixed policies beat no single mechanism outright at these parameters.".to_string()
    } else {
        format!(
            "Benchmarks where a mixed policy beats every single mechanism on total\n\
             cycles (best mixed config in parentheses): {}.",
            mixed_wins.join(", ")
        )
    };
    let mut out = Output::default();
    out.table(t).note(format!(
        "Reading: the single-mechanism columns route every indirect transfer —\n\
         returns included — through one mechanism, as in the paper's\n\
         head-to-head. The mixed columns split the classes: sieve buckets for\n\
         the (polymorphic) jumps, a compact IBTC for the (mostly monomorphic)\n\
         calls, and a return cache or shadow stack for the returns.\n\
         {wins_note}"
    ));
    Ok(out)
}
