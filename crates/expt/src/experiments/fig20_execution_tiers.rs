//! Figure 20 (methodology) — execution-tier comparison.
//!
//! The threaded tier translates hot guest regions into direct-threaded
//! superblocks but is required to produce a bit-identical retire-event
//! stream, so **no simulated number can move**: the table below holds
//! only tier-independent quantities (retired instructions, checksum,
//! and the cross-tier agreement verdict), all of which the baseline
//! gate may diff. Agreement is re-verified on every render: each
//! workload is re-run natively under the threaded tier and its
//! checksum, register file, and total cycles are checked equal to the
//! memoized suite baseline — a divergence fails this experiment's
//! section rather than rendering a wrong table. On top of that dynamic
//! check, every superblock the threaded run translated is proved
//! equivalent to its guest code by the symbolic translation validator
//! (`strata-analysis::validate`); any finding likewise fails the
//! section. The validated block/slot totals appear as a note, which the
//! baseline gate ignores.
//!
//! The host wall-clock comparison — the entire point of the tier — is
//! inherently machine- and run-dependent, so it is opt-in: set
//! `STRATA_TIER_TIMING=1` to time both tiers per workload and emit the
//! measurements as notes. The gate ignores notes, and the default
//! render omits them entirely so suite output stays byte-identical
//! across runs (the merged-cache and warm-cache determinism tests rely
//! on that).

use std::time::Instant;

use strata_arch::{ArchModel, ArchProfile};
use strata_stats::{geomean, Table};
use strata_workloads::registry;

use super::Output;
use crate::cell::CellKey;
use crate::exec::{program_for, FUEL};
use crate::view::View;
use strata_core::run_native_with_model;
use strata_machine::{ExecTier, TierConfig};

/// The threaded tier under test: default promotion threshold and block cap.
fn threaded() -> ExecTier {
    ExecTier::Threaded(TierConfig::default())
}

/// Whether to measure and report host wall-clock (`STRATA_TIER_TIMING=1`).
fn timing_enabled() -> bool {
    std::env::var("STRATA_TIER_TIMING").is_ok_and(|v| v == "1")
}

/// Cells: one native baseline per workload, x86-like. These are shared
/// with (and deduped against) fig2/fig3/table1; the verification and
/// timing runs happen in `render` because wall-clock cannot be memoized.
pub fn cells(params: strata_workloads::Params) -> Vec<CellKey> {
    let x86 = ArchProfile::x86_like();
    registry()
        .iter()
        .map(|spec| CellKey::native(spec.name, x86.clone(), params))
        .collect()
}

/// Renders Figure 20, or the first disagreement or finding that makes
/// its table wrong.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let timing = timing_enabled();
    let mut out = Output::default();
    let mut t = Table::new(
        "Fig. 20: execution tiers are observationally identical (x86-like)",
        &["benchmark", "instructions", "checksum", "tiers agree"],
    );
    let mut speedups = Vec::new();
    let mut lines = Vec::new();
    let mut validated = (0usize, 0usize, 0usize);
    // The model the suite's native baselines were priced under: the
    // context's in exact mode; trace headers always record the legacy one.
    let ctx = view.context();
    let baseline_model = || match ctx.traces_dir() {
        None => ctx.model(x86.clone()),
        Some(_) => ArchModel::new(x86.clone()),
    };
    for spec in registry() {
        let name = spec.name;
        let program = program_for(name, view.params())?;
        let timed = |tier: ExecTier| -> Result<_, String> {
            let start = Instant::now();
            let run = run_native_with_model(&program, baseline_model(), FUEL, tier)
                .map_err(|e| format!("native {name} ({tier:?}): {e}"))?;
            Ok((start.elapsed(), run))
        };
        let (threaded_time, thr) = timed(threaded())?;
        // Translation validation: the superblocks that same tier config
        // promotes on this workload must prove equivalent symbolically.
        // A dirty report fails the section — a wrong table is worse than
        // no table.
        let tv = strata_analysis::validate_program_tier(&program, threaded(), FUEL)
            .map_err(|e| format!("tier validation run {name}: {e}"))?;
        if !tv.is_clean() {
            return Err(format!(
                "translation validator flagged {name}:\n{}",
                tv.render_text()
            ));
        }
        validated.0 += tv.blocks;
        validated.1 += tv.slots;
        validated.2 += tv.fused_pairs;
        // The verification that earns the table's "yes": the threaded
        // re-run must match the memoized suite baseline bit for bit.
        let native = view.native(name, &x86);
        if (native.checksum, &native.regs, native.total_cycles)
            != (thr.checksum, &thr.regs, thr.total_cycles)
        {
            return Err(format!("threaded tier diverged on {name}"));
        }
        t.row([
            spec.name.to_string(),
            native.instructions.to_string(),
            format!("{:#010x}", native.checksum),
            "yes".to_string(),
        ]);
        if timing {
            let (interp_time, interp) = timed(ExecTier::Interp)?;
            if interp.checksum != thr.checksum {
                return Err(format!("interpreter and threaded tier disagree on {name}"));
            }
            let speedup = interp_time.as_secs_f64() / threaded_time.as_secs_f64().max(1e-9);
            speedups.push(speedup);
            lines.push(format!(
                "  {:<10} interp {:>8.2} ms, threaded {:>8.2} ms, speedup {:.2}x",
                spec.name,
                interp_time.as_secs_f64() * 1e3,
                threaded_time.as_secs_f64() * 1e3,
                speedup,
            ));
        }
    }
    out.table(t);
    out.note(format!(
        "Translation validation: {} superblock(s), {} lowered slot(s), {} fused \
         cmp+branch pair(s) proved equivalent to guest code symbolically \
         (strata verify --validate-tiers re-runs the same check standalone).",
        validated.0, validated.1, validated.2,
    ));
    if timing {
        out.note(
            "Host wall-clock per tier (single run, this machine; excluded from \
             the baseline gate because it is not a simulated quantity):",
        );
        for line in lines {
            out.note(line);
        }
        let geo = geomean(speedups.iter().copied()).expect("nonempty registry");
        out.note(format!(
            "geomean speedup {geo:.2}x. Both tiers drive the same cost-model \
             observer, which costs about twice what either tier spends \
             dispatching an instruction, so Amdahl caps the costed speedup \
             well below the uncosted one (see BENCH_*.json: \
             machine.run_interp_ns_per_instr and machine.run_threaded_ns_per_instr \
             against arch.cost_ns_per_event)."
        ));
    } else {
        out.note(
            "Wall-clock timing is machine-dependent and therefore opt-in: \
             re-render with STRATA_TIER_TIMING=1 (e.g. `STRATA_TIER_TIMING=1 \
             strata bench --filter fig20`) to measure both tiers per workload. \
             EXPERIMENTS.md records one such measurement.",
        );
    }
    Ok(out)
}
