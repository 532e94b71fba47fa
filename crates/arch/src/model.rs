use strata_isa::{ControlKind, InstrClass};
use strata_machine::{ExecutionObserver, RetireEvent};

use crate::target::{PredictorSpec, Target, TargetPredictor};
use crate::{ArchProfile, CacheSim, CondPredictor, Ras};

/// Attribution buckets a retire stream is counted and priced in: the
/// SDT's instruction origins. A native run uses bucket 0 alone.
pub const BUCKETS: usize = 6;

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

    fn add(&mut self, other: &ModelStats) {
        self.base_cycles += other.base_cycles;
        self.icache_stall_cycles += other.icache_stall_cycles;
        self.dcache_stall_cycles += other.dcache_stall_cycles;
        self.branch_stall_cycles += other.branch_stall_cycles;
        self.flags_cycles += other.flags_cycles;
        self.trap_cycles += other.trap_cycles;
        self.instructions += other.instructions;
        self.indirect_transfers += other.indirect_transfers;
    }
}

/// The profile-independent counts of a retire stream, per bucket: retired
/// instructions by [`InstrClass`] and taken conditional branches. Every
/// model pricing the same stream shares them, so a run under several
/// models counts each instruction once ([`Counts::count`]) and steps only
/// each model's stateful simulators ([`ArchModel::simulate`]).
///
/// A class fixes an instruction's control kind (`Instr::class` and
/// `Instr::control_kind` agree), so the taken-branch bubbles and the
/// indirect transfers are read off the class counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    by_class: [[u64; InstrClass::COUNT]; BUCKETS],
    cond_taken: [u64; BUCKETS],
    /// The sum of `by_class`, kept as it goes: a run loop reads it once
    /// per segment.
    retired: u64,
}

/// Classes whose every retirement is a taken transfer.
fn always_taken(class: InstrClass) -> bool {
    matches!(
        class,
        InstrClass::DirectJump
            | InstrClass::DirectCall
            | InstrClass::IndirectJump
            | InstrClass::IndirectCall
            | InstrClass::Return
    )
}

/// Classes the indirect-target machinery (target predictor or RAS) sees.
fn indirect(class: InstrClass) -> bool {
    matches!(
        class,
        InstrClass::IndirectJump | InstrClass::IndirectCall | InstrClass::Return
    )
}

impl Counts {
    /// Counts one retired instruction in `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below [`BUCKETS`].
    #[inline(always)]
    pub fn count(&mut self, bucket: usize, ev: &RetireEvent) {
        debug_assert_eq!(
            always_taken(ev.class),
            !matches!(
                ev.control.kind,
                ControlKind::None | ControlKind::Conditional
            ),
            "{:?} retired as {:?}",
            ev.class,
            ev.control.kind
        );
        self.by_class[bucket][ev.class.index()] += 1;
        if ev.control.kind == ControlKind::Conditional {
            self.cond_taken[bucket] += u64::from(ev.control.taken);
        }
        self.retired += 1;
    }

    /// Instructions counted so far, over every bucket.
    #[inline(always)]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Instructions counted in each bucket.
    pub fn by_bucket(&self) -> [u64; BUCKETS] {
        self.by_class.map(|classes| classes.iter().sum())
    }

    fn add(&mut self, other: &Counts) {
        for (mine, theirs) in self.by_class.iter_mut().zip(&other.by_class) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        for (a, b) in self.cond_taken.iter_mut().zip(&other.cond_taken) {
            *a += b;
        }
        self.retired += other.retired;
    }
}

/// One model's stateful-simulator outcomes in one bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Misses {
    icache: u64,
    dcache: u64,
    cond: u64,
    /// Target predictor and RAS.
    indirect: u64,
}

/// A full microarchitecture cost model: per-class costs plus cache and
/// branch-predictor simulation, parameterized by an [`ArchProfile`].
///
/// Cost is counted on the retire path and priced when read. Retiring an
/// instruction counts it ([`Counts`]) and steps the stateful simulators —
/// I-cache, D-cache, conditional predictor, target predictor and RAS —
/// which count their misses per bucket. [`stats`](Self::stats),
/// [`total_cycles`](Self::total_cycles) and
/// [`cycles_by_bucket`](Self::cycles_by_bucket) are then a dot product of
/// those counts with the profile's prices: integer sums commute, so this
/// is exactly the per-event sum.
///
/// Use it directly as an [`ExecutionObserver`] for whole-run costing
/// (bucket 0), or call [`ArchModel::cost_of`] per event for its cycles. A
/// run priced under several models shares one [`Counts`], steps each
/// model with [`simulate`](Self::simulate) and hands it the counts at the
/// end ([`absorb`](Self::absorb)); the SDT does this to bucket by
/// instruction origin. A driver that sees dispatch events rather than
/// retired instructions (sampled replay) drives the same predictors
/// through [`predict_indirect`](Self::predict_indirect),
/// [`push_return`](Self::push_return) and
/// [`predict_return`](Self::predict_return).
#[derive(Debug)]
pub struct ArchModel {
    profile: ArchProfile,
    /// `(base_cycles, flags_tax)` per [`InstrClass`], indexed by
    /// [`InstrClass::index`].
    class_costs: [(u64, u64); InstrClass::COUNT],
    icache: CacheSim,
    dcache: CacheSim,
    cond: CondPredictor,
    /// Indirect-target predictor — the active [`PredictorSpec`] model.
    /// [`PredictorSpec::Legacy`] (the default) is the profile's own
    /// direct-mapped BTB, keeping historical charge streams bit-identical.
    target: Target,
    ras: Ras,
    /// What this model retired itself, plus every absorbed [`Counts`].
    counts: Counts,
    /// Mispredictions and cache misses per bucket, counted here where the
    /// verdicts are acted on: the predictors keep none.
    misses: [Misses; BUCKETS],
    /// Host-side translator charges ([`charge_translator`](Self::charge_translator)).
    translator_cycles: u64,
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
            counts: Counts::default(),
            misses: [Misses::default(); BUCKETS],
            translator_cycles: 0,
            profile,
        }
    }

    /// The profile this model was built from.
    pub fn profile(&self) -> &ArchProfile {
        &self.profile
    }

    /// Accumulated statistics, priced now. Boxed, it reads like the
    /// reference it stands for: `*model.stats()` copies the numbers.
    pub fn stats(&self) -> Box<ModelStats> {
        let mut stats = ModelStats::default();
        for bucket in 0..BUCKETS {
            stats.add(&self.bucket_stats(bucket));
        }
        stats.trap_cycles += self.translator_cycles;
        Box::new(stats)
    }

    /// Total cycles charged so far.
    pub fn total_cycles(&self) -> u64 {
        self.stats().total()
    }

    /// Cycles charged to each bucket, translator charges left out (they
    /// belong to no retired instruction).
    pub fn cycles_by_bucket(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|bucket| self.bucket_stats(bucket).total())
    }

    /// Retired instructions so far.
    pub fn instructions(&self) -> u64 {
        self.counts.retired()
    }

    /// Host-side translator cycles charged so far (part of the trap
    /// cycles).
    pub fn translator_cycles(&self) -> u64 {
        self.translator_cycles
    }

    /// One bucket's counts priced under the profile: the dot product
    /// every reading is built from.
    fn bucket_stats(&self, bucket: usize) -> ModelStats {
        let p = &self.profile;
        let (classes, misses) = (&self.counts.by_class[bucket], &self.misses[bucket]);
        let mut stats = ModelStats::default();
        let mut taken = self.counts.cond_taken[bucket];
        for class in InstrClass::ALL {
            let n = classes[class.index()];
            let (base, flags_tax) = self.class_costs[class.index()];
            stats.instructions += n;
            stats.base_cycles += n * base;
            stats.flags_cycles += n * flags_tax;
            if always_taken(class) {
                taken += n;
            }
            if indirect(class) {
                stats.indirect_transfers += n;
            }
        }
        stats.icache_stall_cycles = misses.icache * p.icache_miss_penalty;
        stats.dcache_stall_cycles = misses.dcache * p.dcache_miss_penalty;
        stats.branch_stall_cycles =
            taken * p.taken_branch_cost + (misses.cond + misses.indirect) * p.mispredict_penalty;
        stats.trap_cycles = classes[InstrClass::Trap.index()] * p.trap_cost;
        stats
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
        self.misses.iter().map(|m| m.indirect).sum()
    }

    /// Conditional-branch mispredictions so far.
    pub fn cond_mispredicts(&self) -> u64 {
        self.misses.iter().map(|m| m.cond).sum()
    }

    /// Predicts the indirect transfer at `pc` through the target
    /// predictor, then trains it on `target`. Returns whether the
    /// prediction was correct.
    #[inline(always)]
    pub fn predict_indirect(&mut self, pc: u32, target: u32) -> bool {
        let correct = self.target.predict_and_update(pc, target);
        self.misses[0].indirect += u64::from(!correct);
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
        self.misses[0].indirect += u64::from(!correct);
        correct
    }

    /// Steps the stateful simulators — caches, conditional predictor,
    /// target predictor, RAS — on one retired instruction, counting their
    /// misses in `bucket`, and returns the stall cycles they cost. The
    /// instruction itself is not counted: the caller counts it once in
    /// the [`Counts`] it later [`absorb`](Self::absorb)s.
    ///
    /// Force-inlined: `Machine::exec` hands every dispatch arm an event
    /// whose `class`, `control.kind` and `mem.is_some()` are literals, so
    /// each copy keeps only the blocks its instruction shape can reach.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below [`BUCKETS`].
    #[inline(always)]
    pub fn simulate(&mut self, bucket: usize, ev: &RetireEvent) -> u64 {
        let p = &self.profile;
        let misses = &mut self.misses[bucket];
        let mut stall = 0;

        if !self.icache.access(ev.pc) {
            misses.icache += 1;
            stall += p.icache_miss_penalty;
        }
        if let Some(mem) = ev.mem {
            if !self.dcache.access(mem.addr) {
                misses.dcache += 1;
                stall += p.dcache_miss_penalty;
            }
        }

        let correct = match ev.control.kind {
            ControlKind::None | ControlKind::Direct => return stall,
            ControlKind::Conditional => {
                let correct = self.cond.predict_and_update(ev.pc, ev.control.taken);
                misses.cond += u64::from(!correct);
                correct
            }
            ControlKind::Call => {
                self.ras.push(ev.pc.wrapping_add(4));
                if !ev.control.indirect {
                    return stall;
                }
                let correct = self.target.predict_and_update(ev.pc, ev.control.target);
                misses.indirect += u64::from(!correct);
                correct
            }
            ControlKind::Indirect => {
                let correct = self.target.predict_and_update(ev.pc, ev.control.target);
                misses.indirect += u64::from(!correct);
                correct
            }
            ControlKind::Return => {
                let correct = self.ras.pop_and_check(ev.control.target);
                misses.indirect += u64::from(!correct);
                correct
            }
        };
        if !correct {
            stall += p.mispredict_penalty;
        }
        stall
    }

    /// Adds a run's shared counts to this model's: after a run that
    /// [`simulate`](Self::simulate)d every instruction of `counts`, the
    /// model prices that run.
    pub fn absorb(&mut self, counts: &Counts) {
        self.counts.add(counts);
    }

    /// Charges one retired instruction in bucket 0 and returns the cycles
    /// it cost.
    #[inline(always)]
    pub fn cost_of(&mut self, ev: &RetireEvent) -> u64 {
        self.counts.count(0, ev);
        let p = &self.profile;
        let (base, flags_tax) = self.class_costs[ev.class.index()];
        let mut cycles = base + flags_tax;
        let taken = match ev.control.kind {
            ControlKind::None => false,
            ControlKind::Conditional => ev.control.taken,
            _ => true,
        };
        if taken {
            cycles += p.taken_branch_cost;
        }
        if ev.class == InstrClass::Trap {
            cycles += p.trap_cost;
        }
        cycles + self.simulate(0, ev)
    }

    /// Charges host-side translator work: `instrs` newly translated
    /// instructions plus one fragment-map lookup. Returns the cycles
    /// charged (accounted under trap cycles, since they occur inside the
    /// runtime crossing).
    pub fn charge_translator(&mut self, instrs: u64, lookups: u64) -> u64 {
        let cycles = instrs * self.profile.translation_cost_per_instr
            + lookups * self.profile.translator_lookup_cost;
        self.translator_cycles += cycles;
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
        self.counts.count(0, event);
        self.simulate(0, event);
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

    /// Pricing at read time is exact: the dot product of the counts with
    /// the profile's prices equals the sum of every event's own cycles,
    /// under every profile and predictor family.
    #[test]
    fn priced_total_equals_the_sum_of_per_event_cycles() {
        let src = r"
            li r1, 24
            li r9, body
            li r2, 0x300000
        top:
            callr r9
            pushf
            popf
            sw r1, 0(r2)
            addi r2, r2, 64
            cmpi r1, 0
            bne top
            trap 0x1
            halt
        body:
            addi r1, r1, -1
            ret
        ";
        let code = assemble(layout::APP_BASE, src).unwrap();
        let specs = [
            PredictorSpec::Legacy,
            PredictorSpec::None,
            PredictorSpec::Ittage { tables: 2 },
            PredictorSpec::Ideal,
        ];
        let mut profiles = ArchProfile::all();
        profiles.push(ArchProfile::ideal());
        for (profile, spec) in profiles.into_iter().zip(specs) {
            struct Summing(ArchModel, u64);
            impl ExecutionObserver for Summing {
                fn on_retire(&mut self, ev: &RetireEvent) {
                    self.1 += self.0.cost_of(ev);
                }
            }
            let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
            m.write_code(layout::APP_BASE, &code).unwrap();
            m.cpu_mut().pc = layout::APP_BASE;
            let mut sum = Summing(ArchModel::with_predictor_spec(profile, spec), 0);
            while m.run(&mut sum, 1_000_000).unwrap() != StepOutcome::Halted {}
            let Summing(model, cycles) = sum;
            let name = model.profile().name;
            assert_eq!(model.total_cycles(), cycles, "{name}");
            assert_eq!(model.cycles_by_bucket()[0], cycles, "{name}");
            assert_eq!(model.stats().instructions, model.instructions(), "{name}");
        }
    }

    #[test]
    fn translator_charge_accumulates() {
        let mut model = ArchModel::new(ArchProfile::x86_like());
        let c = model.charge_translator(10, 1);
        assert_eq!(c, 10 * 40 + 80);
        assert_eq!(model.stats().trap_cycles, c);
    }
}
