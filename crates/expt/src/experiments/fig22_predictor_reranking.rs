//! Figure 22 — predictor-aware re-ranking of IB mechanisms.
//!
//! The Arm BTB study behind this suite argues that the *hardware* target
//! predictor under the translated code decides which *software* dispatch
//! mechanism wins: inline per-site probes hand a PC-indexed BTB one
//! predictor slot per site, while shared dispatch routines funnel every
//! target through one alias-prone entry — until a history-based
//! predictor (ITTAGE) disambiguates the shared site from path history
//! and the economics reverse. This experiment makes that interaction
//! measurable: it runs one IB-heavy workload under every mechanism
//! family crossed with the predictor zoo (no prediction, the legacy
//! direct-mapped BTB, a set-associative BTB, ITTAGE, and the ideal
//! oracle) and reports each model's mechanism ranking. The
//! `RANKING INVERSIONS` note counts mechanism pairs whose order flips
//! between predictor models — the paper's claim is that this count is
//! nonzero, i.e. no mechanism ranking is predictor-independent.
//!
//! Each (mechanism, predictor) cell is priced under the model
//! [`RunContext::model`] builds for that predictor, and each mechanism
//! runs once under all five models: in exact mode one
//! [`Sdt::run_models`], under `--sampled` one SimPoint replay of the
//! run's bundle (the one
//! [`estimate_cells`](crate::sampled::estimate_cells) would load). Both are deterministic functions of the workload
//! (and, in sampled mode, its recorded trace), so the render is
//! byte-stable. Like fig21,
//! `cells` contributes only the shared native baseline — the sweep
//! happens in `render`, so `cells.json` and the baseline gate are
//! untouched.

use strata_arch::{ArchProfile, PredictorSpec};
use strata_core::{ClassPolicy, RunReport, Sdt, SdtConfig};
use strata_stats::Table;

use super::{fx, Output};
use crate::cell::CellKey;
use crate::exec::{program_for, FUEL};
use crate::sampled::{estimate_bundle, SampledCell};
use crate::view::View;
use crate::RunContext;

/// The probe workload: a mix of polymorphic indirect jumps and deep
/// call/return recursion, the class blend where per-site and shared
/// dispatch sites diverge most under history-based prediction.
const WORKLOAD: &str = "parser";

/// The predictor sweep, worst to best. `label()` names the rows.
fn predictors() -> [PredictorSpec; 5] {
    [
        PredictorSpec::None,
        PredictorSpec::Legacy,
        PredictorSpec::Btb { sets: 128, ways: 4 },
        PredictorSpec::Ittage { tables: 4 },
        PredictorSpec::Ideal,
    ]
}

/// One representative configuration per mechanism family, plus the
/// predictor-aware frequency-ordered sieve.
fn mechanisms() -> [(&'static str, SdtConfig); 6] {
    let mut predictive = SdtConfig::ibtc_inline(512);
    predictive.policy.jump = ClassPolicy::Predictive {
        sieve_buckets: 256,
        probation: 64,
    };
    [
        ("reentry", SdtConfig::reentry()),
        ("ibtc", SdtConfig::ibtc_inline(512)),
        ("ibtc-outline", SdtConfig::ibtc_out_of_line(512)),
        ("sieve", SdtConfig::sieve(256)),
        ("tuned", SdtConfig::tuned(512, 128)),
        ("predictive", predictive),
    ]
}

/// Cells: only the probe workload's x86 native baseline — shared with
/// (and deduped against) fig2/table1. The mechanism × predictor sweep
/// happens in `render`, so this experiment adds no rows to `cells.json`.
pub fn cells(params: strata_workloads::Params) -> Vec<CellKey> {
    vec![CellKey::native(WORKLOAD, ArchProfile::x86_like(), params)]
}

/// Total cycles and indirect-mispredict count of one mechanism under
/// every predictor, in [`predictors`] order: the mechanism runs once,
/// priced under all five models — exactly, or, in sampled mode, as one
/// replay of the trace's elected intervals.
fn mechanism_cycles(view: &View, cfg: SdtConfig) -> Result<Vec<(u64, u64)>, String> {
    let models = predictors().map(|predictor| {
        let ctx = RunContext {
            predictor,
            ..view.context().clone()
        };
        ctx.model(ArchProfile::x86_like())
    });
    let params = view.params();
    let reports = match view.context().traces_dir() {
        Some(_) => {
            let bundle = view.bundles().read(WORKLOAD, params)?;
            let cells = estimate_bundle(&bundle, WORKLOAD, params, cfg, models.into())?;
            let report = |cell: Result<SampledCell, String>| Ok(cell?.report);
            cells
                .into_iter()
                .map(report)
                .collect::<Result<_, String>>()?
        }
        None => Sdt::new(cfg, &*program_for(WORKLOAD, params)?)
            .and_then(|mut s| s.run_models(models.into(), FUEL))
            .map_err(|e| format!("{}: {e}", cfg.describe()))?,
    };
    let cycles = |r: RunReport| (r.total_cycles, r.indirect_mispredicts);
    Ok(reports.into_iter().map(cycles).collect())
}

/// Renders Figure 22, or why one of its runs failed.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let native_cycles = view.native(WORKLOAD, &x86).total_cycles;
    let mut out = Output::default();
    let mode = if view.context().traces_dir().is_some() {
        "estimated (--sampled)"
    } else {
        "exact"
    };
    let mut t = Table::new(
        format!("Fig. 22: mechanism ranking per predictor model ({WORKLOAD}, x86-like, {mode})"),
        &["predictor", "mechanism", "slowdown", "mispredicts", "rank"],
    );

    // rankings[p] = mechanism indices sorted best (fewest cycles) first
    // under predictor p; ties break on mechanism order for stability.
    let grid: Vec<Vec<(u64, u64)>> = mechanisms()
        .iter()
        .map(|&(_, cfg)| mechanism_cycles(view, cfg))
        .collect::<Result<_, _>>()?;
    let mut rankings: Vec<(String, Vec<usize>)> = Vec::new();
    for (p, spec) in predictors().into_iter().enumerate() {
        let cells: Vec<(u64, u64)> = grid.iter().map(|row| row[p]).collect();
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by_key(|&m| (cells[m].0, m));
        let rank_of = |m: usize| order.iter().position(|&o| o == m).unwrap() + 1;
        for (m, (name, _)) in mechanisms().iter().enumerate() {
            t.row([
                spec.label(),
                name.to_string(),
                fx(cells[m].0 as f64 / native_cycles as f64),
                cells[m].1.to_string(),
                rank_of(m).to_string(),
            ]);
        }
        rankings.push((spec.label(), order));
    }
    out.table(t);

    // A pair of mechanisms (a, b) inverts when some predictor model
    // ranks a above b and another ranks b above a.
    let n = mechanisms().len();
    let mut inversions = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            let above = |order: &[usize]| {
                order.iter().position(|&o| o == a).unwrap()
                    < order.iter().position(|&o| o == b).unwrap()
            };
            let verdicts: Vec<bool> = rankings.iter().map(|(_, o)| above(o)).collect();
            if verdicts.iter().any(|&v| v) && verdicts.iter().any(|&v| !v) {
                inversions.push(format!("{}/{}", mechanisms()[a].0, mechanisms()[b].0));
            }
        }
    }
    out.note(format!(
        "RANKING INVERSIONS: {} (mechanism pairs whose order flips across predictor \
         models{})",
        inversions.len(),
        if inversions.is_empty() {
            String::new()
        } else {
            format!(": {}", inversions.join(", "))
        },
    ));
    out.note(
        "Reading: under a PC-indexed BTB (or none at all) inline per-site probes \
         rank first — each site's final indirect jump gets its own predictor slot. \
         History-based prediction (ITTAGE) flips the table: the shared dispatch \
         sites that alias hopelessly in a BTB become predictable from path \
         history, their mispredicts collapse, and mechanisms with cheaper probe \
         code out-rank inline IBTC. The mechanism ranking is a property of the \
         (mechanism, predictor) pair, not the mechanism alone.",
    );
    Ok(out)
}
