//! Indirect-branch profiler: uses the execution-observer interface (the
//! same hook the SDT's cost attribution uses) to profile where a program's
//! indirect branches live and how polymorphic each site is — the kind of
//! program instrumentation the paper lists as a primary SDT use case, and
//! exactly the data an SDT implementer needs to size an IBTC or sieve.
//!
//! ```text
//! cargo run --release --example ib_profiler [workload]
//! ```

use std::collections::{BTreeMap, HashSet};

use strata_lab::isa::ControlKind;
use strata_lab::machine::observers::Chain;
use strata_lab::machine::{run_to_halt, ExecTier, ExecutionObserver, InstrCounter, RetireEvent};
use strata_lab::stats::Table;
use strata_lab::workloads::{by_name, Params};

/// Per-site indirect-branch statistics.
#[derive(Default)]
struct SiteStats {
    executions: u64,
    targets: HashSet<u32>,
    kind: &'static str,
}

#[derive(Default)]
struct IbProfiler {
    sites: BTreeMap<u32, SiteStats>,
}

impl ExecutionObserver for IbProfiler {
    fn on_retire(&mut self, ev: &RetireEvent) {
        let kind = match ev.control.kind {
            ControlKind::Indirect => "jump",
            ControlKind::Call if ev.control.indirect => "call",
            ControlKind::Return => "return",
            _ => return,
        };
        let site = self.sites.entry(ev.pc).or_default();
        site.executions += 1;
        site.targets.insert(ev.control.target);
        site.kind = kind;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "perlbmk".to_string());
    let spec = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}`; try: perlbmk, eon, gcc, crafty, ...");
        std::process::exit(2);
    });
    let program = (spec.build)(&Params::default());

    let mut obs = Chain::new(InstrCounter::default(), IbProfiler::default());
    run_to_halt(&program, ExecTier::Interp, 2_000_000_000, &mut obs, |o| {
        o.first().retired()
    })?;
    let profiler = obs.second();

    let mut sites: Vec<(&u32, &SiteStats)> = profiler.sites.iter().collect();
    sites.sort_by_key(|(_, s)| std::cmp::Reverse(s.executions));

    let mut t = Table::new(
        format!("hottest indirect-branch sites in `{name}`"),
        &[
            "site pc",
            "kind",
            "executions",
            "distinct targets",
            "polymorphic?",
        ],
    );
    for (pc, s) in sites.iter().take(10) {
        t.row([
            format!("{pc:#x}"),
            s.kind.to_string(),
            s.executions.to_string(),
            s.targets.len().to_string(),
            if s.targets.len() > 1 { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("{}", t.render_text());

    let total_targets: usize = sites.iter().map(|(_, s)| s.targets.len()).sum();
    println!(
        "total IB sites: {}, total distinct dynamic targets: {}",
        sites.len(),
        total_targets
    );
    println!(
        "sizing hint: a shared IBTC needs roughly {} entries to avoid capacity\n\
         misses (next power of two above the distinct-target count).",
        (total_targets.max(1)).next_power_of_two()
    );
    Ok(())
}
