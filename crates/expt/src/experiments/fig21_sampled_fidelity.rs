//! Figure 21 (methodology) — fidelity of SimPoint-sampled simulation.
//!
//! Sampled mode (`--sampled`) estimates every figure's counters from a
//! few replayed trace intervals instead of full runs. This experiment
//! quantifies the bargain: for one representative configuration per
//! figure family (re-entry, IBTC, sieve, tuned returns) on three
//! IB-diverse workloads, it computes both the **exact** whole-trace
//! counters (a full [`DispatchReplay`] over every record — proven equal
//! to exact execution by the replay-exactness tests; one streamed pass
//! per workload steps all four configurations) and the **sampled**
//! estimate with its 95% confidence interval, then reports relative
//! error, interval coverage, and the work reduction. The
//! `pred_mispredicts` row does the same for the mispredicts of the
//! replay's model (the run context's, [`RunContext::model`]), gating the
//! predictor-aware cycle charge sampled mode synthesizes.
//!
//! The verdict line (`FIDELITY PASS`/`FAIL`) gates CI: every gated
//! metric must estimate within [`MAX_REL_ERROR`] and inside its printed
//! bar, and the sampled replay must touch at most [`MAX_WORK_FRACTION`]
//! of the trace. A dispatch counter only gates when its exact count is
//! at least one event per interval — rarer events are below interval
//! sampling's resolution and print as information. Everything in the
//! table is a deterministic function of the recorded traces, so the
//! render is byte-stable like every other experiment.
//!
//! [`DispatchReplay`]: strata_core::DispatchReplay
//! [`RunContext::model`]: crate::RunContext::model

use strata_arch::ArchProfile;
use strata_core::{rate, SdtConfig};
use strata_stats::{Estimate, Table};

use super::Output;
use crate::cell::CellKey;
use crate::sampled::{estimate_bundle, full_trace_pass};
use crate::view::View;

/// CI gate: maximum relative error of any gated dispatch-count estimate.
pub const MAX_REL_ERROR: f64 = 0.05;

/// CI gate: maximum fraction of trace records the sampled replay may
/// touch (warmup included) — the "≤ 1/5 of exact guest-dispatch work"
/// acceptance bound.
pub const MAX_WORK_FRACTION: f64 = 0.2;

/// Systematic half-width floor on printed error bars, as a fraction of
/// the estimate. The stratified CI captures sampling variance only;
/// warmup truncation at interval boundaries adds a small systematic bias
/// the statistics cannot see, so bars narrower than this are widened
/// before the "within bar" verdict.
pub const BAR_FLOOR: f64 = 0.03;

/// IB-diverse probe workloads: almost no IBs / hot indirect jump /
/// return-dominated.
const WORKLOADS: [&str; 3] = ["gzip", "perlbmk", "parser"];

/// One representative configuration per figure family.
fn representatives() -> [(&'static str, SdtConfig); 4] {
    [
        ("fig2", SdtConfig::reentry()),
        ("fig4", SdtConfig::ibtc_inline(512)),
        ("fig7", SdtConfig::sieve(256)),
        ("fig9", SdtConfig::tuned(512, 128)),
    ]
}

/// Cells: the probe workloads' x86 native baselines — all shared with
/// (and deduped against) fig2/table1. The estimate-vs-exact comparison
/// happens in `render` over trace bundles, not store cells, so this
/// experiment adds no new rows to `cells.json`.
pub fn cells(params: strata_workloads::Params) -> Vec<CellKey> {
    let x86 = ArchProfile::x86_like();
    WORKLOADS
        .iter()
        .map(|&name| CellKey::native(name, x86.clone(), params))
        .collect()
}

/// The printed error bar: the stratified 95% half-width, floored by the
/// documented systematic fraction of the estimate.
fn bar(e: &Estimate) -> f64 {
    e.ci95.max(BAR_FLOOR * e.mean.abs())
}

/// Renders Figure 21, or why a bundle, estimate or replay failed.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let model = || view.context().model(x86.clone());
    let mut out = Output::default();
    let mut t = Table::new(
        "Fig. 21: sampled-simulation fidelity (x86-like)",
        &[
            "figure",
            "benchmark",
            "metric",
            "exact",
            "estimated",
            "ci95",
            "rel err",
            "in bar",
        ],
    );
    let mut max_rel_err: f64 = 0.0;
    let mut max_work: f64 = 0.0;
    let mut all_in_bar = true;
    let mut trace_total: u64 = 0;
    let mut replayed_total: u64 = 0;
    let mut coverage_notes = Vec::new();

    for &workload in &WORKLOADS {
        // Read from the run's traces directory: the context's in sampled
        // mode, otherwise the default reference location (recorded there
        // on first run).
        let bundle = view.bundles().read(workload, view.params())?;
        coverage_notes.push(format!(
            "  {:<8} {} intervals of {} instrs, {} simulation points ({:.1}% coverage)",
            workload,
            bundle.points.intervals,
            bundle.points.interval,
            bundle.points.points.len(),
            bundle.points.coverage() * 100.0,
        ));
        let cfgs = representatives().map(|(_, cfg)| cfg);
        let truths = full_trace_pass(&bundle, workload, view.params(), &cfgs, model)?;
        for ((figure, cfg), (truth, counters)) in representatives().into_iter().zip(truths) {
            let models = vec![model()];
            let cell = estimate_bundle(&bundle, workload, view.params(), cfg, models)?.remove(0)?;
            max_work = max_work.max(cell.work_fraction());
            trace_total += cell.trace_records;
            replayed_total += cell.replayed_records;
            // The predictor-aware cycle charge is linear in the summed
            // mispredict estimate, so gating it gates the cycles too.
            let mispredicts = [
                rate::JUMP_MISPREDICTS,
                rate::CALL_MISPREDICTS,
                rate::RET_MISPREDICTS,
            ];
            let [jump, call, ret] = mispredicts.map(|at| cell.est[at]);
            let pred_est = Estimate {
                mean: jump.mean + call.mean + ret.mean,
                ci95: jump.ci95 + call.ci95 + ret.ci95,
            };
            let pred_truth = mispredicts.iter().map(|&at| counters[at]).sum();
            // Gated metrics: the dispatch counts every figure's overhead
            // model is linear in. Misses ride along as information — they
            // are rarer events with proportionally wider intervals.
            let gated = [
                (
                    "ib_dispatches",
                    &cell.est[rate::IB_DISPATCHES],
                    truth.ib_dispatches,
                    true,
                ),
                (
                    "ret_dispatches",
                    &cell.est[rate::RET_DISPATCHES],
                    truth.ret_dispatches,
                    true,
                ),
                (
                    "ib_misses",
                    &cell.est[rate::IB_MISSES],
                    truth.ib_misses,
                    false,
                ),
                ("pred_mispredicts", &pred_est, pred_truth, true),
            ];
            for (metric, est, exact, gates) in gated {
                let err = est.rel_error(exact as f64);
                let half = bar(est);
                let within = (est.mean - exact as f64).abs() <= half;
                // Interval sampling cannot resolve events rarer than
                // ~one per interval (they mostly fall in unelected
                // intervals); such counters — including zero-truth ones
                // like gzip's near-absent IBs — print for information
                // but do not gate.
                if gates && exact >= bundle.points.intervals {
                    max_rel_err = max_rel_err.max(err);
                    all_in_bar &= within;
                }
                t.row([
                    figure.to_string(),
                    workload.to_string(),
                    metric.to_string(),
                    exact.to_string(),
                    format!("{:.0}", est.mean),
                    format!("±{half:.0}"),
                    if exact > 0 {
                        format!("{:.2}%", err * 100.0)
                    } else {
                        "--".to_string()
                    },
                    if within { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }

    out.table(t);
    out.note("Trace bundles (shared by every sampled cell of the workload):");
    for line in coverage_notes {
        out.note(line);
    }
    let speedup = trace_total as f64 / replayed_total.max(1) as f64;
    out.note(format!(
        "Replayed {replayed_total} of {trace_total} recorded instructions across all \
         cells ({:.1}% — worst single cell {:.1}%), a {speedup:.1}x reduction in \
         guest-dispatch work. Error bars are stratified 95% intervals floored at \
         {:.0}% of the estimate (systematic warmup bias; see DESIGN.md).",
        replayed_total as f64 / trace_total.max(1) as f64 * 100.0,
        max_work * 100.0,
        BAR_FLOOR * 100.0,
    ));
    let pass = max_rel_err <= MAX_REL_ERROR && max_work <= MAX_WORK_FRACTION && all_in_bar;
    out.note(format!(
        "FIDELITY {} (max rel err {:.2}% <= {:.2}%, max work {:.1}% <= {:.0}%, all \
         gated metrics within bars: {})",
        if pass { "PASS" } else { "FAIL" },
        max_rel_err * 100.0,
        MAX_REL_ERROR * 100.0,
        max_work * 100.0,
        MAX_WORK_FRACTION * 100.0,
        all_in_bar,
    ));
    Ok(out)
}
