use strata_isa::{ControlKind, InstrClass};
use strata_machine::{ExecutionObserver, RetireEvent};

use crate::target::{PredictorSpec, Target, TargetPredictor};
use crate::{ArchProfile, CacheSim, CondPredictor, Ras};

/// Detailed cycle and event accounting produced by an [`ArchModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Cycles from per-class base costs.
    pub base_cycles: u64,
    /// Cycles from I-cache miss penalties.
    pub icache_stall_cycles: u64,
    /// Cycles from D-cache miss penalties.
    pub dcache_stall_cycles: u64,
    /// Cycles from branch mispredictions (all kinds) and taken-branch
    /// bubbles.
    pub branch_stall_cycles: u64,
    /// Cycles from flags save/restore taxes.
    pub flags_cycles: u64,
    /// Cycles from trap costs.
    pub trap_cycles: u64,
    /// Retired instruction count.
    pub instructions: u64,
    /// Retired indirect transfers (indirect jumps/calls and returns).
    pub indirect_transfers: u64,
}

impl ModelStats {
    /// Total cycles across all components.
    pub fn total(&self) -> u64 {
        self.base_cycles
            + self.icache_stall_cycles
            + self.dcache_stall_cycles
            + self.branch_stall_cycles
            + self.flags_cycles
            + self.trap_cycles
    }
}

/// A full microarchitecture cost model: per-class costs plus cache and
/// branch-predictor simulation, parameterized by an [`ArchProfile`].
///
/// Use it directly as an [`ExecutionObserver`] for whole-run costing, or
/// call [`ArchModel::cost_of`] per event when the embedder needs to
/// attribute cycles (the SDT buckets them by instruction origin). A
/// driver that sees dispatch events rather than retired instructions
/// (sampled replay) drives the same predictors through
/// [`predict_indirect`](Self::predict_indirect),
/// [`push_return`](Self::push_return) and
/// [`predict_return`](Self::predict_return).
#[derive(Debug)]
pub struct ArchModel {
    profile: ArchProfile,
    /// `(base_cycles, flags_tax)` per [`InstrClass`], indexed by
    /// [`InstrClass::index`] — one load on the retire fast path instead of
    /// a per-event match over profile fields.
    class_costs: [(u64, u64); InstrClass::COUNT],
    icache: CacheSim,
    dcache: CacheSim,
    cond: CondPredictor,
    /// Indirect-target predictor — the active [`PredictorSpec`] model.
    /// [`PredictorSpec::Legacy`] (the default) is the profile's own
    /// direct-mapped BTB, keeping historical charge streams bit-identical.
    target: Target,
    ras: Ras,
    stats: ModelStats,
    /// Mispredictions, counted here where the verdicts are acted on: the
    /// predictors keep none.
    indirect_mispredicts: u64,
    cond_mispredicts: u64,
}

/// Base cost and flags tax for one class under `p` — the single source of
/// truth the precomputed table is built from.
fn class_cost(p: &ArchProfile, class: InstrClass) -> (u64, u64) {
    match class {
        InstrClass::Alu => (p.alu_cost, 0),
        InstrClass::Mul => (p.mul_cost, 0),
        InstrClass::Div => (p.div_cost, 0),
        InstrClass::Load => (p.load_cost, 0),
        InstrClass::Store => (p.store_cost, 0),
        InstrClass::FlagsSave => (p.store_cost, p.flags_save_cost),
        InstrClass::FlagsRestore => (p.load_cost, p.flags_restore_cost),
        InstrClass::CondBranch
        | InstrClass::DirectJump
        | InstrClass::DirectCall
        | InstrClass::IndirectJump
        | InstrClass::IndirectCall
        | InstrClass::Return => (p.branch_cost, 0),
        InstrClass::Trap => (p.other_cost, 0),
        InstrClass::Other => (p.other_cost, 0),
    }
}

impl ArchModel {
    /// Creates a cold model for the given profile under the legacy
    /// predictor ([`PredictorSpec::Legacy`]: the profile's own BTB).
    pub fn new(profile: ArchProfile) -> ArchModel {
        ArchModel::with_predictor_spec(profile, PredictorSpec::Legacy)
    }

    /// Creates a cold model charging indirect transfers with the given
    /// predictor spec.
    pub fn with_predictor_spec(profile: ArchProfile, spec: PredictorSpec) -> ArchModel {
        let mut class_costs = [(0, 0); InstrClass::COUNT];
        for class in InstrClass::ALL {
            class_costs[class.index()] = class_cost(&profile, class);
        }
        ArchModel {
            class_costs,
            icache: CacheSim::new(profile.icache),
            dcache: CacheSim::new(profile.dcache),
            cond: CondPredictor::with_history(
                profile.cond_predictor_bits,
                profile.cond_history_bits,
            ),
            target: spec.build(&profile),
            ras: Ras::new(profile.ras_depth),
            stats: ModelStats::default(),
            indirect_mispredicts: 0,
            cond_mispredicts: 0,
            profile,
        }
    }

    /// The profile this model was built from.
    pub fn profile(&self) -> &ArchProfile {
        &self.profile
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }

    /// Total cycles charged so far.
    pub fn total_cycles(&self) -> u64 {
        self.stats.total()
    }

    /// The instruction-cache simulator (for miss-rate reporting).
    pub fn icache(&self) -> &CacheSim {
        &self.icache
    }

    /// The data-cache simulator.
    pub fn dcache(&self) -> &CacheSim {
        &self.dcache
    }

    /// Indirect-transfer mispredictions (target predictor + RAS) so far.
    pub fn indirect_mispredicts(&self) -> u64 {
        self.indirect_mispredicts
    }

    /// Conditional-branch mispredictions so far.
    pub fn cond_mispredicts(&self) -> u64 {
        self.cond_mispredicts
    }

    /// Predicts the indirect transfer at `pc` through the target
    /// predictor, then trains it on `target`. Returns whether the
    /// prediction was correct.
    #[inline(always)]
    pub fn predict_indirect(&mut self, pc: u32, target: u32) -> bool {
        let correct = self.target.predict_and_update(pc, target);
        self.indirect_mispredicts += u64::from(!correct);
        correct
    }

    /// Pushes a call's return address onto the return-address stack.
    #[inline(always)]
    pub fn push_return(&mut self, return_addr: u32) {
        self.ras.push(return_addr);
    }

    /// Predicts a return through the return-address stack. Returns
    /// whether the popped address was `target`.
    #[inline(always)]
    pub fn predict_return(&mut self, target: u32) -> bool {
        let correct = self.ras.pop_and_check(target);
        self.indirect_mispredicts += u64::from(!correct);
        correct
    }

    /// Charges one retired instruction, updating predictor/cache state, and
    /// returns the cycles it cost.
    ///
    /// Force-inlined: `Machine::exec` hands every dispatch arm an event
    /// whose `class`, `control.kind` and `mem.is_some()` are literals, so
    /// each copy keeps only the blocks its instruction shape can reach.
    #[inline(always)]
    pub fn cost_of(&mut self, ev: &RetireEvent) -> u64 {
        let p = &self.profile;
        self.stats.instructions += 1;

        // Base cost by class: one indexed load from the precomputed table.
        let (base, flags_tax) = self.class_costs[ev.class.index()];
        self.stats.base_cycles += base;
        self.stats.flags_cycles += flags_tax;
        let mut cycles = base + flags_tax;

        // Instruction fetch.
        if !self.icache.access(ev.pc) {
            self.stats.icache_stall_cycles += p.icache_miss_penalty;
            cycles += p.icache_miss_penalty;
        }

        // Data access.
        if let Some(mem) = ev.mem {
            if !self.dcache.access(mem.addr) {
                self.stats.dcache_stall_cycles += p.dcache_miss_penalty;
                cycles += p.dcache_miss_penalty;
            }
        }

        // Control flow: the predictors are reached through the same
        // methods sampled replay drives them with.
        let (taken_cost, mispredict) = (p.taken_branch_cost, p.mispredict_penalty);
        let trap_cost = p.trap_cost;
        let mut branch_stall = 0;
        match ev.control.kind {
            ControlKind::None => {}
            ControlKind::Conditional => {
                if !self.cond.predict_and_update(ev.pc, ev.control.taken) {
                    self.cond_mispredicts += 1;
                    branch_stall += mispredict;
                }
                if ev.control.taken {
                    branch_stall += taken_cost;
                }
            }
            ControlKind::Direct => branch_stall += taken_cost,
            ControlKind::Call => {
                branch_stall += taken_cost;
                self.push_return(ev.pc.wrapping_add(4));
                if ev.control.indirect {
                    self.stats.indirect_transfers += 1;
                    if !self.predict_indirect(ev.pc, ev.control.target) {
                        branch_stall += mispredict;
                    }
                }
            }
            ControlKind::Indirect => {
                self.stats.indirect_transfers += 1;
                branch_stall += taken_cost;
                if !self.predict_indirect(ev.pc, ev.control.target) {
                    branch_stall += mispredict;
                }
            }
            ControlKind::Return => {
                self.stats.indirect_transfers += 1;
                branch_stall += taken_cost;
                if !self.predict_return(ev.control.target) {
                    branch_stall += mispredict;
                }
            }
        }
        self.stats.branch_stall_cycles += branch_stall;
        cycles += branch_stall;

        // Trap crossing.
        if ev.class == InstrClass::Trap {
            self.stats.trap_cycles += trap_cost;
            cycles += trap_cost;
        }

        cycles
    }

    /// Charges host-side translator work: `instrs` newly translated
    /// instructions plus one fragment-map lookup. Returns the cycles
    /// charged (accounted under trap cycles, since they occur inside the
    /// runtime crossing).
    pub fn charge_translator(&mut self, instrs: u64, lookups: u64) -> u64 {
        let cycles = instrs * self.profile.translation_cost_per_instr
            + lookups * self.profile.translator_lookup_cost;
        self.stats.trap_cycles += cycles;
        cycles
    }
}

/// A bare profile prices a run under the legacy predictor:
/// [`ArchModel::new`].
impl From<ArchProfile> for ArchModel {
    fn from(profile: ArchProfile) -> ArchModel {
        ArchModel::new(profile)
    }
}

impl ExecutionObserver for ArchModel {
    #[inline(always)]
    fn on_retire(&mut self, event: &RetireEvent) {
        self.cost_of(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_asm::assemble;
    use strata_machine::{layout, Machine, StepOutcome};

    fn run_costed(src: &str, profile: ArchProfile) -> (Machine, ArchModel) {
        let code = assemble(layout::APP_BASE, src).expect("assembles");
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        m.write_code(layout::APP_BASE, &code).unwrap();
        m.cpu_mut().pc = layout::APP_BASE;
        let mut model = ArchModel::new(profile);
        loop {
            match m.run(&mut model, 1_000_000).unwrap() {
                StepOutcome::Trap(_) => continue,
                StepOutcome::Halted => break,
                StepOutcome::Running => unreachable!(),
            }
        }
        (m, model)
    }

    #[test]
    fn straightline_costs_accumulate() {
        let (_, model) = run_costed(
            "li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt\n",
            ArchProfile::x86_like(),
        );
        let s = model.stats();
        assert_eq!(s.instructions, 6); // li = 2 instrs each
        assert!(s.base_cycles >= 6);
        // One cold I-cache line covers all 6 instructions (32B line = 8 instrs).
        assert_eq!(model.icache().misses(), 1);
    }

    #[test]
    fn flags_tax_differs_by_profile() {
        let src = "pushf\npopf\nhalt\n";
        let (_, x86) = run_costed(src, ArchProfile::x86_like());
        let (_, sparc) = run_costed(src, ArchProfile::sparc_like());
        assert!(x86.stats().flags_cycles > sparc.stats().flags_cycles);
    }

    #[test]
    fn trap_cost_charged() {
        let (_, model) = run_costed("trap 0x1\nhalt\n", ArchProfile::x86_like());
        assert_eq!(model.stats().trap_cycles, ArchProfile::x86_like().trap_cost);
    }

    #[test]
    fn btb_predicts_monomorphic_indirect() {
        // A loop whose jr always targets the same block: after warmup the
        // x86-like BTB should predict it, the sparc-like (no BTB) never.
        let src = r"
            li r1, 16
            li r9, body
        top:
            jr r9
        body:
            addi r1, r1, -1
            cmpi r1, 0
            bne top
            halt
        ";
        let (_, x86) = run_costed(src, ArchProfile::x86_like());
        let (_, sparc) = run_costed(src, ArchProfile::sparc_like());
        assert!(x86.indirect_mispredicts() <= 2, "x86 BTB warms up");
        assert_eq!(
            sparc.indirect_mispredicts(),
            16,
            "no BTB: every jr mispredicts"
        );
    }

    #[test]
    fn ras_predicts_balanced_call_ret() {
        let src = r"
            li r1, 0
            call f
            call f
            call f
            halt
        f:
            addi r1, r1, 1
            ret
        ";
        let (_, model) = run_costed(src, ArchProfile::x86_like());
        // First return may miss nothing: calls push, rets pop — all hit
        // (the returns are the only indirect transfers).
        assert_eq!(model.indirect_mispredicts(), 0);
    }

    #[test]
    fn dcache_pressure_counts() {
        // Stride through 64 KiB of data — guaranteed D-cache misses.
        let src = r"
            li r1, 0x300000   ; APP_DATA_BASE
            li r2, 2048
        loop:
            lw r3, 0(r1)
            addi r1, r1, 32
            addi r2, r2, -1
            cmpi r2, 0
            bne loop
            halt
        ";
        let (_, model) = run_costed(src, ArchProfile::mips_like());
        assert!(
            model.dcache().misses() >= 1024,
            "{}",
            model.dcache().misses()
        );
    }

    #[test]
    fn class_cost_table_matches_direct_costing() {
        // The precomputed table must agree with class_cost for every class
        // under every built-in profile (including the ideal control).
        let mut profiles = ArchProfile::all();
        profiles.push(ArchProfile::ideal());
        for profile in profiles {
            let model = ArchModel::new(profile.clone());
            for class in strata_isa::InstrClass::ALL {
                assert_eq!(
                    model.class_costs[class.index()],
                    class_cost(&profile, class),
                    "{}/{class:?}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn predictor_spec_moves_charged_cycles() {
        // The same retire stream under better indirect prediction must
        // cost fewer cycles; the legacy spec must match the default path.
        let src = r"
            li r1, 64
            li r9, body
        top:
            jr r9
        body:
            addi r1, r1, -1
            cmpi r1, 0
            bne top
            halt
        ";
        let run_spec = |spec: PredictorSpec| {
            let code = assemble(layout::APP_BASE, src).unwrap();
            let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
            m.write_code(layout::APP_BASE, &code).unwrap();
            m.cpu_mut().pc = layout::APP_BASE;
            let mut model = ArchModel::with_predictor_spec(ArchProfile::x86_like(), spec);
            loop {
                match m.run(&mut model, 1_000_000).unwrap() {
                    StepOutcome::Trap(_) => continue,
                    StepOutcome::Halted => break,
                    StepOutcome::Running => unreachable!(),
                }
            }
            (model.total_cycles(), model.indirect_mispredicts())
        };
        let (ideal_cycles, ideal_miss) = run_spec(PredictorSpec::Ideal);
        let (none_cycles, none_miss) = run_spec(PredictorSpec::None);
        let (legacy_cycles, _) = run_spec(PredictorSpec::Legacy);
        let (default_cycles, _) = {
            let code = assemble(layout::APP_BASE, src).unwrap();
            let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
            m.write_code(layout::APP_BASE, &code).unwrap();
            m.cpu_mut().pc = layout::APP_BASE;
            let mut model = ArchModel::new(ArchProfile::x86_like());
            loop {
                match m.run(&mut model, 1_000_000).unwrap() {
                    StepOutcome::Trap(_) => continue,
                    StepOutcome::Halted => break,
                    StepOutcome::Running => unreachable!(),
                }
            }
            (model.total_cycles(), model.indirect_mispredicts())
        };
        assert_eq!(ideal_miss, 0);
        assert_eq!(none_miss, 64, "64 jr retires, none predicted");
        assert!(ideal_cycles < none_cycles);
        assert_eq!(
            legacy_cycles, default_cycles,
            "ArchModel::new defaults to the legacy spec"
        );
    }

    #[test]
    fn translator_charge_accumulates() {
        let mut model = ArchModel::new(ArchProfile::x86_like());
        let c = model.charge_translator(10, 1);
        assert_eq!(c, 10 * 40 + 80);
        assert_eq!(model.stats().trap_cycles, c);
    }
}
