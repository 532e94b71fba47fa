//! The benchmark's metric registry: every name `strata-perf` reports, with
//! its unit, direction, regression bound and whether it is a host time or
//! a count that must repeat exactly. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step); `compare` judges with these
//! bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before `compare` calls it regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median (0.08 = 8 %).
    Relative(f64),
    /// Absolute amount in the metric's own unit.
    Absolute(f64),
    /// A simulated or structural statistic: any difference is a failure,
    /// not a delta.
    Exact,
    /// Host time of a single layer, reported for attribution; never
    /// judged on its own.
    Unbounded,
}

/// Which of a metric's per-run values stands for the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Median,
    /// A time, or a rate derived from one: the median, except on a
    /// workload whose runs fall in two modes (`Workload::bimodal`), where
    /// it is the quartile on the better side — the typical run of the
    /// undisturbed mode. There the share of disturbed runs varies from one
    /// measurement to the next and would move a median between the modes.
    Time,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub stat: Stat,
}

impl MetricDef {
    /// The fraction of the way up the sorted runs at which the reported
    /// value sits.
    fn reported_fraction(&self, bimodal: bool) -> f64 {
        match (self.stat, bimodal, self.better) {
            (Stat::Time, true, Better::Lower) => 0.25,
            (Stat::Time, true, Better::Higher) => 0.75,
            _ => 0.5,
        }
    }

    /// The reported value of a measurement whose runs gave `samples`, on
    /// a workload that is or is not `bimodal`.
    pub fn reported(&self, samples: &[f64], bimodal: bool) -> Option<f64> {
        crate::stats::quantile(samples, self.reported_fraction(bimodal))
    }

    /// The interval of `samples` that decides the reported value — all of
    /// them for a median, the better half for a better-mode quartile. Its width
    /// is the run-to-run spread `compare` weighs against the bound.
    pub fn deciding_band(&self, samples: &[f64], bimodal: bool) -> Option<(f64, f64)> {
        let (lo, hi) = crate::stats::range(samples)?;
        let mid = crate::stats::median(samples)?;
        let fraction = self.reported_fraction(bimodal);
        Some(if fraction < 0.5 {
            (lo, mid)
        } else if fraction > 0.5 {
            (mid, hi)
        } else {
            (lo, hi)
        })
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        stat: Stat::Median,
    }
}

const fn time_stat(def: MetricDef) -> MetricDef {
    MetricDef {
        stat: Stat::Time,
        ..def
    }
}

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
/// The bounds are wide because the reference host is a shared VM whose
/// speed drifts for minutes at a time, and because `suite-sampled`'s
/// footprint differs by a fifth between workload instances; see
/// README.md, "Noise".
pub const END_TO_END: &[MetricDef] = &[
    time_stat(e2e("wall_s", "s", Better::Lower, Bound::Relative(0.25))),
    time_stat(e2e("cpu_s", "s", Better::Lower, Bound::Relative(0.25))),
    time_stat(e2e(
        "guest_mips",
        "Minstr/s",
        Better::Higher,
        Bound::Relative(0.25),
    )),
    e2e("peak_rss_mb", "MB", Better::Lower, Bound::Relative(0.25)),
    e2e("setup_s", "s", Better::Lower, Bound::Relative(0.25)),
];

/// End-to-end metrics that exist on one workload only or are zero when
/// all is well, so `BENCHMARK.json` (whose metrics every workload must
/// report, never as 0) cannot carry them. `run` prints and records them;
/// `compare` judges them; the result line carries `failed_share` as
/// `failed` / `attempted`.
pub const END_TO_END_EXTRA: &[MetricDef] = &[
    e2e("fidelity_err_pct", "%", Better::Lower, Bound::Absolute(0.5)),
    e2e("failed_share", "ratio", Better::Lower, Bound::Absolute(0.0)),
];

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, Bound::Unbounded)
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, Bound::Unbounded)
}

/// A count's direction is what a better *design* would show; `compare`
/// only checks that it did not move.
const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, Bound::Exact)
}

/// Per-layer metrics, grouped by crate. Host times unless built with
/// [`count`].
pub const PER_LAYER: &[MetricDef] = &[
    time("isa.decode_ns_per_word", "ns"),
    time("isa.encode_ns_per_word", "ns"),
    time("workloads.build_ms", "ms"),
    count("workloads.code_words", "count", Better::Lower),
    time("machine.construct_us", "us"),
    time("machine.run_interp_ns_per_instr", "ns"),
    time("machine.run_threaded_ns_per_instr", "ns"),
    time("machine.step_ns_per_instr", "ns"),
    count("machine.tier_blocks", "count", Better::Lower),
    count("machine.tier_coverage", "ratio", Better::Higher),
    count("machine.tier_flushes", "count", Better::Lower),
    time("arch.cost_ns_per_event", "ns"),
    count("arch.icache_miss_rate", "ratio", Better::Lower),
    count("arch.dcache_miss_rate", "ratio", Better::Lower),
    count("arch.cond_mispredict_rate", "ratio", Better::Lower),
    count("arch.indirect_mispredict_rate", "ratio", Better::Lower),
    time("arch.btb_ns_per_update", "ns"),
    time("arch.ittage_ns_per_update", "ns"),
    time("core.sdt_new_ms", "ms"),
    time("core.sdt_run_ns_per_instr", "ns"),
    time("core.sdt_vs_native_ratio", "ratio"),
    time("core.trap_us_per_entry", "us"),
    time("core.translate_us_per_fragment", "us"),
    count("core.translator_entries.tuned", "count", Better::Lower),
    count("core.translator_entries.reentry", "count", Better::Lower),
    count("core.translator_entries.smallcache", "count", Better::Lower),
    count("core.fragments.tuned", "count", Better::Lower),
    count("core.fragments.reentry", "count", Better::Lower),
    count("core.fragments.smallcache", "count", Better::Lower),
    count("core.exit_links.tuned", "count", Better::Lower),
    count("core.exit_links.reentry", "count", Better::Lower),
    count("core.exit_links.smallcache", "count", Better::Lower),
    count("core.cache_flushes.tuned", "count", Better::Lower),
    count("core.cache_flushes.reentry", "count", Better::Lower),
    count("core.cache_flushes.smallcache", "count", Better::Lower),
    count("core.ib_hit_rate.tuned", "ratio", Better::Higher),
    count("core.ib_hit_rate.reentry", "ratio", Better::Higher),
    count("core.ib_hit_rate.smallcache", "ratio", Better::Higher),
    count("core.ret_hit_rate.tuned", "ratio", Better::Higher),
    count("core.ret_hit_rate.reentry", "ratio", Better::Higher),
    count("core.ret_hit_rate.smallcache", "ratio", Better::Higher),
    time("core.replay_ns_per_event", "ns"),
    time("trace.record_ns_per_instr", "ns"),
    time("trace.encode_ns_per_record", "ns"),
    time("trace.decode_ns_per_record", "ns"),
    time("trace.read_ms_per_mb", "ms/MB"),
    count("trace.bytes_per_instr", "B", Better::Lower),
    time("trace.simpoints_ms", "ms"),
    rate("expt.cells_per_s", "1/s"),
    count("expt.memo_hit_share", "ratio", Better::Higher),
    time("expt.record_render_us", "us"),
    time("expt.record_parse_us", "us"),
    time("expt.store_load_ms", "ms"),
    time("expt.render_ms", "ms"),
    time("expt.sampled_cell_ms", "ms"),
    count("expt.work_fraction", "ratio", Better::Lower),
    count("expt.fidelity_err_pct", "%", Better::Lower),
    rate("stats.json_parse_mb_per_s", "MB/s"),
    time("stats.baseline_gate_ms", "ms"),
    time("analysis.verify_ms", "ms"),
    time("analysis.validate_tier_ms", "ms"),
    count("analysis.findings", "count", Better::Lower),
    count("analysis.blocks_validated", "count", Better::Higher),
    time("fleet.frame_encode_ns", "ns"),
    time("fleet.frame_decode_ns", "ns"),
    time("trace.unattributed_share", "ratio"),
    time("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The contract's lexical limits on names and units.
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .chain(END_TO_END_EXTRA)
            .chain(PER_LAYER)
            .collect();
        for m in &all {
            assert!(valid_name(m.name), "name {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at repo root"))
            .expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .expect("section is a list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expect = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|m| {
                    let bound = match m.bound {
                        Bound::Relative(b) => Some(b),
                        _ => None,
                    };
                    let better = match m.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (m.name.into(), m.unit.into(), better.into(), bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(END_TO_END));
        assert_eq!(listed("per_layer"), expect(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }
}
