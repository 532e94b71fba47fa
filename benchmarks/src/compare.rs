//! `strata-perf compare A.json B.json`: judges run B against base A, one
//! table per workload, with the registry's bounds.

use crate::json::Json;
use crate::metrics::{self, Better, Bound, MetricDef};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread (of the runs that decide the reported value)
    /// is wider than the bound and the two sides' runs overlap: the data
    /// cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs of `new` against those of `base` for a bounded
/// metric, by the value the metric reports on a workload that is or is
/// not `bimodal`. `None` when a side has no runs or the metric has no bound of
/// its own (layer times, counts).
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64], bimodal: bool) -> Option<Verdict> {
    let (base_med, new_med) = (def.reported(base, bimodal)?, def.reported(new, bimodal)?);
    let limit = match def.bound {
        Bound::Relative(share) => share * base_med.abs(),
        Bound::Absolute(amount) => amount,
        Bound::Exact | Bound::Unbounded => return None,
    };
    let worse_by = match def.better {
        Better::Lower => new_med - base_med,
        Better::Higher => base_med - new_med,
    };
    let (base_lo, base_hi) = def.deciding_band(base, bimodal)?;
    let (new_lo, new_hi) = def.deciding_band(new, bimodal)?;
    let spread = (base_hi - base_lo).max(new_hi - new_lo);
    let overlap = base_lo <= new_hi && new_lo <= base_hi;
    Some(if spread > limit && overlap {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Regressed
    } else if -worse_by > limit {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    })
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn ratio(base: f64, new: f64) -> String {
    if base == 0.0 {
        format!("{new} vs 0")
    } else {
        format!("{:.3}x of {base:.4}", new / base)
    }
}

/// The comparison as text, and whether anything regressed or a count
/// moved.
pub struct Comparison {
    pub text: String,
    pub failed: bool,
}

/// Compares two parsed `result.json` documents.
pub fn compare(base: &Json, new: &Json) -> Comparison {
    let mut text = String::new();
    let mut failed = false;
    for (name, base_w) in base.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
        let Some(new_w) = new.get("workloads").and_then(|w| w.get(name)) else {
            text.push_str(&format!("== {name}: only in base ==\n"));
            continue;
        };
        text.push_str(&format!("== {name} ==\n"));
        let bimodal = base_w.get("bimodal") == Some(&Json::Bool(true));
        text.push_str(&format!(
            "{:<18} {:<9} {:>12} {:>12}  {:<26} {:>7}  {}\n",
            "metric", "unit", "base", "new", "ratio (new of base)", "bound", "verdict"
        ));
        for def in metrics::END_TO_END.iter().chain(metrics::END_TO_END_EXTRA) {
            let side = |w: &Json| {
                w.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .map(samples)
                    .unwrap_or_default()
            };
            let (a, b) = (side(base_w), side(new_w));
            let Some(verdict) = judge(def, &a, &b, bimodal) else {
                continue;
            };
            let (am, bm) = (
                def.reported(&a, bimodal).expect("judged"),
                def.reported(&b, bimodal).expect("judged"),
            );
            let bound = match def.bound {
                Bound::Relative(s) => format!("{:.0}%", s * 100.0),
                Bound::Absolute(x) => format!("+{x}"),
                Bound::Exact | Bound::Unbounded => String::new(),
            };
            failed |= verdict == Verdict::Regressed;
            text.push_str(&format!(
                "{:<18} {:<9} {:>12.4} {:>12.4}  {:<26} {:>7}  {} (n={}/{})\n",
                def.name,
                def.unit,
                am,
                bm,
                ratio(am, bm),
                bound,
                verdict.label(),
                a.len(),
                b.len()
            ));
        }
        let digest = |w: &Json| w.get("digest").and_then(Json::as_str).map(str::to_string);
        if base_w.get("seed") == new_w.get("seed") && digest(base_w) != digest(new_w) {
            failed = true;
            text.push_str(
                "stdout digest differs at the same seed: FAILED (a simulated number moved)\n",
            );
        }
    }

    let layer = |doc: &'_ Json, name: &str| -> Option<f64> {
        doc.get("per_layer")?.get(name)?.get("value")?.as_f64()
    };
    let same_seed = base.get("per_layer").and_then(|p| p.get("seed"))
        == new.get("per_layer").and_then(|p| p.get("seed"));
    let mut header = false;
    for def in metrics::PER_LAYER {
        let (Some(a), Some(b)) = (layer(base, def.name), layer(new, def.name)) else {
            continue;
        };
        if !header {
            header = true;
            text.push_str("== per layer (host times are attribution, not verdicts) ==\n");
        }
        let note = match def.bound {
            Bound::Exact if a == b => "count, identical".to_string(),
            Bound::Exact if !same_seed => "count, differs (different seeds)".to_string(),
            Bound::Exact => {
                failed = true;
                "count differs: FAILED".to_string()
            }
            _ => ratio(a, b),
        };
        text.push_str(&format!(
            "{:<36} {:<7} {:>14.4} {:>14.4}  {note}\n",
            def.name, def.unit, a, b
        ));
    }
    Comparison { text, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::END_TO_END
            .iter()
            .chain(metrics::END_TO_END_EXTRA)
            .chain(metrics::PER_LAYER)
            .find(|m| m.name == name)
            .expect("registered")
    }

    /// `judge` on a workload whose runs are not bimodal.
    fn judged(def: &MetricDef, base: &[f64], new: &[f64]) -> Option<Verdict> {
        judge(def, base, new, false)
    }

    #[test]
    fn relative_bound_on_a_lower_is_better_metric() {
        let wall = def("wall_s"); // 25 % of the base median
        let base = [10.0, 10.1, 9.9];
        assert_eq!(
            judged(wall, &base, &[10.5, 10.6, 10.4]),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            judged(wall, &base, &[13.5, 13.6, 13.4]),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            judged(wall, &base, &[7.0, 7.1, 6.9]),
            Some(Verdict::Improved)
        );
        assert_eq!(judged(wall, &[], &[1.0]), None);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let mips = def("guest_mips");
        assert_eq!(
            judged(mips, &[40.0, 41.0], &[55.0, 56.0]),
            Some(Verdict::Improved)
        );
        assert_eq!(
            judged(mips, &[40.0, 41.0], &[25.0, 26.0]),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let wall = def("wall_s");
        // The runs spread 8..12, wider than the bound (2.6), and overlap
        // the new side's 9..12.5.
        assert_eq!(
            judged(wall, &[8.0, 10.5, 12.0], &[9.0, 11.0, 12.5]),
            Some(Verdict::Unresolved)
        );
        // Just as wide, but every new run beats every base run.
        assert_eq!(
            judged(wall, &[8.0, 10.0, 12.0], &[4.0, 5.0, 7.9]),
            Some(Verdict::Improved)
        );
        // One run a side has no spread to speak of.
        assert_eq!(judged(wall, &[10.0], &[13.0]), Some(Verdict::Regressed));
    }

    #[test]
    fn a_bimodal_workload_is_judged_by_its_better_mode() {
        let (base, new) = ([10.0, 10.1, 10.2, 19.0], [10.1, 10.2, 10.3, 25.0]);
        // The slow-mode runs decide a median and its spread…
        assert_eq!(
            judge(def("wall_s"), &base, &new, false),
            Some(Verdict::Unresolved)
        );
        // …but not a time on a bimodal workload…
        assert_eq!(
            judge(def("wall_s"), &base, &new, true),
            Some(Verdict::Unchanged)
        );
        assert_eq!(def("wall_s").reported(&base, true), Some(10.075));
        assert_eq!(
            def("guest_mips").reported(&[1.0, 2.0, 3.0, 4.0, 5.0], true),
            Some(4.0)
        );
        // …while memory is a median either way.
        assert_eq!(
            judge(def("peak_rss_mb"), &base, &new, true),
            Some(Verdict::Unresolved)
        );
    }

    #[test]
    fn absolute_bounds() {
        let fidelity = def("fidelity_err_pct"); // +0.5 points
        assert_eq!(judged(fidelity, &[0.6], &[1.0]), Some(Verdict::Unchanged));
        assert_eq!(judged(fidelity, &[0.6], &[1.2]), Some(Verdict::Regressed));
        let failed = def("failed_share"); // any increase
        assert_eq!(judged(failed, &[0.0], &[0.0]), Some(Verdict::Unchanged));
        assert_eq!(judged(failed, &[0.0], &[0.001]), Some(Verdict::Regressed));
    }

    #[test]
    fn layer_metrics_get_no_verdict() {
        assert_eq!(judged(def("isa.decode_ns_per_word"), &[1.0], &[9.0]), None);
        assert_eq!(judged(def("workloads.code_words"), &[1.0], &[2.0]), None);
    }

    fn doc(wall: [f64; 3], words: f64, digest: &str) -> Json {
        let text = format!(
            r#"{{"workloads": {{"sdt-churn": {{"seed": 3, "digest": "{digest}", "metrics": {{
                "wall_s": {{"unit": "s", "median": {}, "samples": [{}, {}, {}]}},
                "failed_share": {{"unit": "ratio", "median": 0, "samples": [0]}}}}}}}},
              "per_layer": {{"seed": 3,
                "workloads.code_words": {{"value": {words}, "unit": "count"}},
                "isa.decode_ns_per_word": {{"value": 2.5, "unit": "ns"}}}}}}"#,
            wall[1], wall[0], wall[1], wall[2]
        );
        Json::parse(&text).expect("test document parses")
    }

    #[test]
    fn compare_reports_rows_ratios_and_count_failures() {
        let base = doc([9.9, 10.0, 10.1], 5000.0, "aa");
        let same = compare(&base, &base);
        assert!(!same.failed, "{}", same.text);
        assert!(same.text.contains("== sdt-churn =="));
        assert!(same.text.contains("1.000x of 10.0000"), "{}", same.text);
        assert!(same.text.contains("unchanged"));
        assert!(same.text.contains("count, identical"));

        let slower = compare(&base, &doc([12.9, 13.0, 13.1], 5000.0, "aa"));
        assert!(slower.failed);
        assert!(slower.text.contains("regressed"), "{}", slower.text);

        let moved = compare(&base, &doc([9.9, 10.0, 10.1], 5001.0, "aa"));
        assert!(moved.failed);
        assert!(moved.text.contains("count differs: FAILED"));

        let digest = compare(&base, &doc([9.9, 10.0, 10.1], 5000.0, "bb"));
        assert!(digest.failed);
        assert!(digest.text.contains("stdout digest differs"));
    }
}
