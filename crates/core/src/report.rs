use crate::{Origin, SdtConfig};

/// Host-side counters kept by the SDT across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HostStats {
    pub translator_entries: u64,
    pub ib_misses: u64,
    pub rc_misses: u64,
    pub exit_misses: u64,
    pub exit_links: u64,
    pub fragments: u64,
    pub translated_app_instrs: u64,
    pub cache_flushes: u64,
    pub elided_jumps: u64,
}

/// Mechanism-level statistics for one translated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MechanismStats {
    /// Executions of indirect-jump/call dispatch sequences.
    pub ib_dispatches: u64,
    /// Executions of indirect-*jump* dispatch sequences (subset of
    /// [`ib_dispatches`](Self::ib_dispatches)).
    pub jump_dispatches: u64,
    /// Executions of indirect-*call* dispatch sequences (subset of
    /// [`ib_dispatches`](Self::ib_dispatches)).
    pub call_dispatches: u64,
    /// Dispatch executions that missed into the translator (IBTC/sieve
    /// fill events; every dispatch under re-entry).
    pub ib_misses: u64,
    /// Executions of return dispatch sequences (returns-as-IB or return
    /// cache).
    pub ret_dispatches: u64,
    /// Return-cache misses (cold slots + verification mismatches).
    pub rc_misses: u64,
    /// Direct-branch exits that trapped (first executions).
    pub exit_misses: u64,
    /// Exits patched into direct jumps (fragment linking events).
    pub exit_links: u64,
    /// Crossings into the translator of any kind.
    pub translator_entries: u64,
    /// Fragments in the cache.
    pub fragments: u64,
    /// Application instructions translated.
    pub translated_app_instrs: u64,
    /// Fragment-cache bytes used.
    pub cache_used_bytes: u64,
    /// Times the fragment cache filled and was flushed.
    pub cache_flushes: u64,
    /// Direct jumps elided during translation (tail duplication).
    pub elided_jumps: u64,
    /// Adaptive-site promotions (inline→IBTC plus IBTC→sieve), cumulative
    /// across cache flushes. 0 without an adaptive policy.
    pub adaptive_promotions: u64,
    /// Mean sieve chain length over non-empty buckets (0 without a sieve).
    pub sieve_mean_chain: f64,
    /// Longest sieve chain.
    pub sieve_max_chain: u32,
}

impl MechanismStats {
    /// Hit rate of the indirect-branch mechanism in `0.0..=1.0`
    /// (1.0 when no dispatches executed).
    pub fn ib_hit_rate(&self) -> f64 {
        if self.ib_dispatches == 0 {
            1.0
        } else {
            1.0 - (self.ib_misses.min(self.ib_dispatches) as f64 / self.ib_dispatches as f64)
        }
    }

    /// Hit rate of the return mechanism in `0.0..=1.0`.
    pub fn ret_hit_rate(&self) -> f64 {
        if self.ret_dispatches == 0 {
            1.0
        } else {
            1.0 - (self.rc_misses.min(self.ret_dispatches) as f64 / self.ret_dispatches as f64)
        }
    }
}

/// Per-branch-class dispatch accounting under the active
/// [`DispatchPolicy`](crate::DispatchPolicy).
///
/// Classes that resolve to the same strategy binding share that binding's
/// tables — and therefore its miss counter, so their rows report the same
/// (combined) miss total. Returns handled as generic indirect branches
/// ([`RetMechanism::AsIb`](crate::RetMechanism::AsIb)) miss into the jump
/// binding's counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Branch class label: `"jump"`, `"call"`, or `"ret"`.
    pub class: &'static str,
    /// The serving mechanism's parameterized label.
    pub mechanism: String,
    /// Dispatch-sequence executions for this class.
    pub dispatches: u64,
    /// Misses serviced by the serving binding (see type docs for
    /// sharing semantics).
    pub misses: u64,
    /// Adaptive-site promotions in the serving binding.
    pub promotions: u64,
}

/// Everything measured about one translated run.
///
/// Compare against a [`NativeRun`](crate::NativeRun) of the same program
/// under the same [`ArchProfile`](strata_arch::ArchProfile) to compute
/// slowdowns; the per-origin cycle buckets regenerate the paper's
/// overhead-source breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// `SdtConfig::describe()` of the configuration that ran.
    pub config: String,
    /// Architecture profile name.
    pub arch: &'static str,
    /// Whether the program ran to `halt` (as opposed to exhausting fuel).
    pub halted: bool,
    /// Syscall checksum at the end of the run (compare with native).
    pub checksum: u32,
    /// Retired guest instructions (application + all overhead code).
    pub instructions: u64,
    /// Total cycles charged by the architecture model, including
    /// translator charges.
    pub total_cycles: u64,
    /// Cycles attributed to each [`Origin`] (index with
    /// [`Origin::index`]).
    pub cycles_by_origin: [u64; 6],
    /// Retired instructions per [`Origin`].
    pub instrs_by_origin: [u64; 6],
    /// Host-side translator cycles (map lookups + translation work).
    pub translator_cycles: u64,
    /// Mechanism-level statistics.
    pub mech: MechanismStats,
    /// Per-branch-class dispatch breakdown (jump, call, ret — in that
    /// order).
    pub per_class: Vec<ClassReport>,
    /// I-cache misses across the run.
    pub icache_misses: u64,
    /// D-cache misses across the run.
    pub dcache_misses: u64,
    /// Indirect-transfer mispredictions (BTB + RAS).
    pub indirect_mispredicts: u64,
    /// Conditional-branch mispredictions.
    pub cond_mispredicts: u64,
}

impl RunReport {
    /// Cycles attributed to `origin`.
    pub fn cycles_for(&self, origin: Origin) -> u64 {
        self.cycles_by_origin[origin.index()]
    }

    /// Cycles not attributable to translated application instructions
    /// (dispatch + context switches + trampolines + glue + translator).
    pub fn overhead_cycles(&self) -> u64 {
        self.total_cycles - self.cycles_for(Origin::App)
    }

    /// Slowdown relative to a native cycle count for the same program and
    /// profile.
    pub fn slowdown(&self, native_cycles: u64) -> f64 {
        if native_cycles == 0 {
            0.0
        } else {
            self.total_cycles as f64 / native_cycles as f64
        }
    }

    /// This report labelled as a run under `config`: the configuration
    /// string and each class's mechanism come from `config` alone, every
    /// count from this run. What a run reports for a configuration it
    /// [serves](crate::Sdt::serves).
    pub fn relabelled(mut self, config: &SdtConfig) -> RunReport {
        self.config = config.describe();
        for (row, (_, label)) in self.per_class.iter_mut().zip(config.class_mechanisms()) {
            row.mechanism = label;
        }
        self
    }
}

/// One fixed lookup table of a translated run (see
/// [`Sdt::fixed_tables`](crate::Sdt::fixed_tables)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedTable {
    /// What the table is: `ibtc`, `sieve` or `return cache`, led by the
    /// class it serves when the jump and call classes have a binding each.
    pub name: String,
    /// Slots the hash indexes: entries, or two-entry sets of a two-way
    /// IBTC.
    pub slots: u32,
    /// Entries per slot (1, or 2 for a two-way IBTC).
    pub ways: u32,
    /// The highest slot index the host has hashed into the table, if any.
    pub highest_hashed: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates() {
        let mut m = MechanismStats {
            ib_dispatches: 100,
            ib_misses: 10,
            ..Default::default()
        };
        assert!((m.ib_hit_rate() - 0.9).abs() < 1e-12);
        m.ib_dispatches = 0;
        assert_eq!(m.ib_hit_rate(), 1.0);
        m.ret_dispatches = 4;
        m.rc_misses = 1;
        assert_eq!(m.ret_hit_rate(), 0.75);
    }

    #[test]
    fn slowdown_math() {
        let r = RunReport {
            config: "x".into(),
            arch: "t",
            halted: true,
            checksum: 0,
            instructions: 0,
            total_cycles: 300,
            cycles_by_origin: [100, 0, 100, 100, 0, 0],
            instrs_by_origin: [0; 6],
            translator_cycles: 0,
            mech: MechanismStats::default(),
            per_class: Vec::new(),
            icache_misses: 0,
            dcache_misses: 0,
            indirect_mispredicts: 0,
            cond_mispredicts: 0,
        };
        assert_eq!(r.slowdown(100), 3.0);
        assert_eq!(r.overhead_cycles(), 200);
        assert_eq!(r.cycles_for(Origin::Dispatch), 100);
        assert_eq!(r.slowdown(0), 0.0);
    }
}
